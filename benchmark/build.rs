//! Captures, at build time, the flags this binary is actually compiled with, so every
//! result file can carry them: cargo tells build scripts the profile's opt-level and
//! debug settings, the target triple and the encoded rustflags (`.cargo/config.toml`'s
//! `target-cpu` pin arrives that way), and which `rustc` it is about to invoke.

use std::process::Command;

fn main() {
    let env = |key: &str| std::env::var(key).unwrap_or_default();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // Rustflags are separated by 0x1f in the encoded form.
    let rustflags = env("CARGO_ENCODED_RUSTFLAGS").replace('\u{1f}', " ");
    println!("cargo:rustc-env=E2E_RUSTC_VERSION={rustc_version}");
    println!("cargo:rustc-env=E2E_OPT_LEVEL={}", env("OPT_LEVEL"));
    println!("cargo:rustc-env=E2E_DEBUG={}", env("DEBUG"));
    println!("cargo:rustc-env=E2E_PROFILE={}", env("PROFILE"));
    println!("cargo:rustc-env=E2E_TARGET={}", env("TARGET"));
    println!("cargo:rustc-env=E2E_RUSTFLAGS={rustflags}");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=Cargo.toml");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
