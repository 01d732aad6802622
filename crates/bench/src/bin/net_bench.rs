//! Generates `BENCH_net.json`: network-serving baselines — the loopback probe round
//! trip (wire + framing + demultiplexing cost per request) and served jobs/s as the
//! 32-job 12-qubit slate fans out over 1, 4, and 16 connections.
//!
//! The records come from the same deterministic quick-bench harness CI runs
//! (`treevqa_bench::quick::run_quick_suite`, ids prefixed `net/`), so the checked-in
//! medians line up id for id with every later quick run *on the same host*.  Run on a
//! quiet machine and commit the result:
//!
//! ```text
//! cargo run --release -p treevqa_bench --bin net_bench
//! ```

use treevqa_bench::quick::{record_to_json, run_quick_suite, QuickRecord};

fn main() {
    let records: Vec<QuickRecord> = run_quick_suite()
        .into_iter()
        .filter(|r| r.id.starts_with("net/"))
        .collect();
    assert!(
        !records.is_empty(),
        "the quick suite must contain net/ workloads"
    );

    // Headlines: probe RTT in microseconds, and jobs/s at each connection count (32
    // jobs per timed iteration regardless of fan-out).
    let median = |id: &str| {
        records
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.median_ns)
            .unwrap_or(f64::NAN)
    };
    let rtt_us = median("net/rtt/probe_2q") / 1e3;
    let jobs_per_s = |id: &str| 32.0 / (median(id) * 1e-9);
    let jobs_1 = jobs_per_s("net/jobs/1conn_32x12q");
    let jobs_4 = jobs_per_s("net/jobs/4conn_32x12q");
    let jobs_16 = jobs_per_s("net/jobs/16conn_32x12q");

    let mut out = String::from("{\n  \"throughput\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&record_to_json(r));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"derived\": {{\"probe_rtt_us\": {rtt_us:.1}, \"jobs_per_s_12q_1conn\": {jobs_1:.1}, \
         \"jobs_per_s_12q_4conn\": {jobs_4:.1}, \"jobs_per_s_12q_16conn\": {jobs_16:.1}}}\n"
    ));
    out.push_str("}\n");

    std::fs::write("BENCH_net.json", &out).expect("write BENCH_net.json");
    println!("{out}");
    println!(
        "wrote BENCH_net.json ({} throughput records)",
        records.len()
    );
}
