//! Deterministic quick-bench runner: times the fixed workload subset of
//! [`treevqa_bench::quick`] and writes `target/bench_quick.json` (override the path with
//! the first CLI argument).  The ids match the checked-in `BENCH_*.json` records, which
//! are comparable only with runs on the host that recorded them.

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/bench_quick.json".to_string());
    let records = treevqa_bench::quick::run_quick_suite();
    println!("== quick bench (deterministic mode) ==");
    for r in &records {
        println!(
            "{:<34} median {:>12.1} ns  ({} samples x {} iters)",
            r.id, r.median_ns, r.samples, r.iters_per_sample
        );
    }
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).expect("failed to create output directory");
    }
    std::fs::write(&path, treevqa_bench::quick::records_to_json(&records))
        .expect("failed to write quick-bench JSON");
    println!("\nwrote {path} ({} workloads)", records.len());
}
