//! Where a number was measured: the host stamp carried by every result file, the
//! tuning-variable hygiene, and the `/proc` readings behind the `process.*` metrics.

use crate::json::Json;

/// Every environment variable the product reads to tune itself.  No workload sets any
/// of them: the harness removes them before the first product call (and so from every
/// child it spawns) and records the defaults that then apply.
pub const TUNING_VARS: &[&str] = &[
    "RAYON_NUM_THREADS",
    "QSIM_PAR_THRESHOLD",
    "QEXEC_WORKERS",
    "QEXEC_QUEUE_CAP",
    "VQA_BATCH_CHUNK",
    "VQA_COMPILED_CACHE",
    "QNOISE_TRAJECTORIES",
    "QOBS",
    "QOBS_RING_CAP",
    "QNET_ADDR",
    "QNET_MAX_CONNS",
    "QNET_MAX_FRAME",
];

/// Removes every tuning variable from this process's environment.  Must run before
/// any thread is spawned and before any product function caches a value.
pub fn scrub_env() {
    for var in TUNING_VARS {
        std::env::remove_var(var);
    }
}

/// The values the tuning variables resolve to once scrubbed — read back through the
/// product's own public getters where one exists, so a changed default shows up here.
pub fn effective_tuning() -> Vec<(&'static str, String)> {
    vec![
        (
            "RAYON_NUM_THREADS",
            rayon::current_num_threads().to_string(),
        ),
        ("QSIM_PAR_THRESHOLD", qsim::parallel_threshold().to_string()),
        // No getter: `ExecutorBuilder::start` defaults to one worker, and every
        // workload registers a single backend, which clamps it to one anyway.
        ("QEXEC_WORKERS", "1".to_string()),
        ("QEXEC_QUEUE_CAP", "unbounded".to_string()),
        ("VQA_BATCH_CHUNK", vqa::batch_chunk().to_string()),
        (
            "VQA_COMPILED_CACHE",
            vqa::circuit_cache_capacity().to_string(),
        ),
        (
            "QNOISE_TRAJECTORIES",
            qnoise::default_trajectories().to_string(),
        ),
        ("QOBS", qobs::enabled().to_string()),
        ("QOBS_RING_CAP", qobs::ring_capacity_from_env().to_string()),
        ("QNET_ADDR", qnet::addr_from_env()),
        ("QNET_MAX_CONNS", qnet::max_conns_from_env().to_string()),
        ("QNET_MAX_FRAME", qnet::max_frame_from_env().to_string()),
    ]
}

/// Cores, CPU, toolchain, commit, build flags and tuning defaults of one measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub profile: Vec<(&'static str, String)>,
    pub tuning: Vec<(&'static str, String)>,
}

impl HostStamp {
    pub fn collect() -> HostStamp {
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: env!("E2E_RUSTC_VERSION").to_string(),
            git_commit: git_commit(),
            profile: vec![
                ("profile", env!("E2E_PROFILE").to_string()),
                ("opt_level", env!("E2E_OPT_LEVEL").to_string()),
                ("debug", env!("E2E_DEBUG").to_string()),
                ("manifest", manifest_release_profile()),
                ("rustflags", env!("E2E_RUSTFLAGS").to_string()),
                ("target", env!("E2E_TARGET").to_string()),
                ("debug_assertions", cfg!(debug_assertions).to_string()),
            ],
            tuning: effective_tuning(),
        }
    }

    pub fn to_json(&self) -> Json {
        let pairs = |kv: &[(&'static str, String)]| {
            Json::obj(kv.iter().map(|(k, v)| (*k, Json::str(v.clone()))))
        };
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("rustc", Json::str(self.rustc.clone())),
            ("git_commit", Json::str(self.git_commit.clone())),
            ("profile", pairs(&self.profile)),
            ("tuning", pairs(&self.tuning)),
        ])
    }
}

/// What two result sets must agree on before their numbers may be compared: core
/// count, CPU model and the thread settings.  Works on the JSON form so `compare` can
/// judge files written by any run.
pub fn comparability_key(stamp: &Json) -> Vec<(String, String)> {
    let text = |v: Option<&Json>| match v {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => n.to_string(),
        _ => "missing".to_string(),
    };
    let mut key = vec![
        ("nproc".to_string(), text(stamp.get("nproc"))),
        ("cpu_model".to_string(), text(stamp.get("cpu_model"))),
    ];
    for var in ["RAYON_NUM_THREADS", "QSIM_PAR_THRESHOLD", "QEXEC_WORKERS"] {
        let value = stamp.get("tuning").and_then(|t| t.get(var));
        key.push((var.to_string(), text(value)));
    }
    key
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `[profile.release]` table of this package's manifest, as written.
fn manifest_release_profile() -> String {
    include_str!("../Cargo.toml")
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join(", ")
}

/// HEAD of the checkout the benchmark runs in, read from `.git` in the working
/// directory only (never a parent: the benchmark stays inside its checkout).
/// `unknown` when the directory is not a git repository.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A reading of this process's OS-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of every thread, exited ones included.
    pub cpu_s: f64,
    /// Voluntary context switches summed over the threads alive now.  The vendored
    /// `rayon` spawns threads per call; their own switches vanish with them, but each
    /// such call blocks the *calling* thread on the join, which is counted here.
    pub vol_ctx_switches: u64,
}

pub fn proc_sample() -> ProcSample {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised command
    // name, are utime and stime in clock ticks; Linux fixes USER_HZ at 100.
    const TICKS_PER_S: f64 = 100.0;
    let cpu_s = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = stat.rsplit_once(')')?.1.to_string();
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let ticks =
                fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
            Some(ticks / TICKS_PER_S)
        })
        .unwrap_or(0.0);
    let vol_ctx_switches = std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .flatten()
                .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
                .filter_map(|status| status_field(&status, "voluntary_ctxt_switches:"))
                .sum()
        })
        .unwrap_or(0);
    ProcSample {
        cpu_s,
        vol_ctx_switches,
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| status_field(&status, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scrubbed_variable_is_recorded() {
        let recorded: Vec<&str> = effective_tuning().iter().map(|(name, _)| *name).collect();
        assert_eq!(recorded, TUNING_VARS);
    }

    #[test]
    fn manifest_profile_is_found() {
        let p = manifest_release_profile();
        assert!(p.contains("lto") && p.contains("debug"), "{p}");
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  123456 kB\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(123456));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(42));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches:"), None);
    }

    #[test]
    fn comparability_key_reads_stamp_json() {
        let stamp = Json::obj([
            ("nproc", Json::Num(2.0)),
            ("cpu_model", Json::str("cpu")),
            ("tuning", Json::obj([("RAYON_NUM_THREADS", Json::str("2"))])),
        ]);
        let key = comparability_key(&stamp);
        assert_eq!(key[0].1, "2");
        assert_eq!(key[2], ("RAYON_NUM_THREADS".to_string(), "2".to_string()));
        assert_eq!(key[3].1, "missing");
    }
}
