//! Captures, at build time, which `rustc` compiles this crate, so every quick-bench file
//! can name the compiler in its host header (cargo tells build scripts the compiler it
//! is about to invoke through `RUSTC`).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=QUICK_RUSTC_VERSION={rustc_version}");
    println!("cargo:rerun-if-changed=build.rs");
}
