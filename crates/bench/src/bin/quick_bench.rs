//! Deterministic quick-bench runner: times the fixed workload list of
//! [`treevqa_bench::quick`] and writes it under its host header to
//! `target/bench_quick.json` (override the path with the first CLI argument;
//! `BENCH_quick.json` at the repository root is the checked-in run).  Records are
//! comparable only with runs on the host named in the header.

use treevqa_bench::quick::{run_quick_suite, to_json, Host};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/bench_quick.json".to_string());
    let host = Host::detect();
    println!("== quick bench (deterministic mode) ==");
    println!(
        "host: {} ({} logical CPUs, {} rayon threads), {}, commit {}",
        host.cpu_model, host.logical_cpus, host.rayon_threads, host.rustc, host.commit
    );
    let records = run_quick_suite();
    for r in &records {
        println!(
            "{:<34} median {:>12.1} ns  ({} samples x {} iters)",
            r.id, r.median_ns, r.samples, r.iters_per_sample
        );
    }
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).expect("failed to create output directory");
    }
    std::fs::write(&path, to_json(&host, &records)).expect("failed to write quick-bench JSON");
    println!("\nwrote {path} ({} workloads)", records.len());
}
