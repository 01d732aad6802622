//! Generates `BENCH_exec.json`: execution-service throughput baselines (submission
//! overhead and batched jobs/s at 12 qubits) plus the fairness check across 4 clients.
//!
//! The throughput records come from the same deterministic quick-bench harness CI runs
//! (`treevqa_bench::quick::run_quick_suite`, ids prefixed `exec/`), so the checked-in
//! medians line up id for id with every later quick run *on the same host*.  Run on a
//! quiet machine and commit the result:
//!
//! ```text
//! cargo run --release -p treevqa_bench --bin exec_bench
//! ```

use treevqa_bench::quick::{measure_fairness, record_to_json, run_quick_suite, QuickRecord};

fn main() {
    let records: Vec<QuickRecord> = run_quick_suite()
        .into_iter()
        // The overload/admission-control workloads baseline separately in
        // BENCH_exec_overload.json (see the exec_overload binary), and the tracing
        // workload in BENCH_obs.json (obs_bench).
        .filter(|r| {
            r.id.starts_with("exec/")
                && !r.id.starts_with("exec/overload/")
                && !r.id.starts_with("exec/obs/")
        })
        .collect();
    assert!(
        !records.is_empty(),
        "the quick suite must contain exec/ workloads"
    );
    let (clients, per_client, spread) = measure_fairness();
    assert_eq!(
        spread, 0,
        "fair round-robin must be exact for a paused slate"
    );

    // jobs/s headline derived from the slate record (32 jobs per iteration).
    let jobs_per_s = records
        .iter()
        .find(|r| r.id == "exec/jobs/4clients_32x12q")
        .map(|r| 32.0 / (r.median_ns * 1e-9))
        .unwrap_or(f64::NAN);

    let mut out = String::from("{\n  \"throughput\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&record_to_json(r));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"derived\": {{\"jobs_per_s_12q\": {jobs_per_s:.1}}},\n"
    ));
    out.push_str(&format!(
        "  \"fairness\": {{\"clients\": {clients}, \"jobs_per_client\": {per_client}, \
         \"max_position_spread\": {spread}, \"round_robin_exact\": true}}\n"
    ));
    out.push_str("}\n");

    std::fs::write("BENCH_exec.json", &out).expect("write BENCH_exec.json");
    println!("{out}");
    println!(
        "wrote BENCH_exec.json ({} throughput records)",
        records.len()
    );
}
