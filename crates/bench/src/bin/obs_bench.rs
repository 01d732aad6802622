//! Generates `BENCH_obs.json`: the tracing-overhead baseline for the observability
//! subsystem.
//!
//! Runs the deterministic quick suite and pairs the fully-traced 4-client slate
//! workload (`exec/obs/jobs_on/32x12q` — builder-enabled span recording plus the
//! process-wide `qobs` flag, so the `vqa` cache counters tick too) against its
//! untraced twin (`exec/jobs/4clients_32x12q`, baselined in `BENCH_exec.json`).  The
//! derived overhead percentage is the acceptance budget: full tracing must stay
//! within 5% of the untraced submit→complete path.
//!
//! Only the traced record enters the `"throughput"` array — the untraced twin is
//! already recorded in `BENCH_exec.json`, and one id belongs in one baseline file.  Run
//! on a quiet machine and commit the result:
//!
//! ```text
//! cargo run --release -p treevqa_bench --bin obs_bench
//! ```

use treevqa_bench::quick::{record_to_json, run_quick_suite, QuickRecord};

/// The acceptance budget: fully-enabled tracing may cost at most this fraction of the
/// untraced workload's median.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

fn main() {
    let records: Vec<QuickRecord> = run_quick_suite();
    let off = records
        .iter()
        .find(|r| r.id == "exec/jobs/4clients_32x12q")
        .expect("the quick suite must contain the untraced slate workload");
    let on = records
        .iter()
        .find(|r| r.id == "exec/obs/jobs_on/32x12q")
        .expect("the quick suite must contain the traced slate workload");
    let overhead_pct = (on.median_ns - off.median_ns) / off.median_ns * 100.0;

    let mut out = String::from("{\n  \"throughput\": [\n    ");
    out.push_str(&record_to_json(on));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"derived\": {{\"untraced_median_ns\": {:.1}, \"traced_median_ns\": {:.1}, \
         \"overhead_pct\": {overhead_pct:.2}, \"budget_pct\": {OVERHEAD_BUDGET_PCT:.1}}}\n",
        off.median_ns, on.median_ns
    ));
    out.push_str("}\n");

    std::fs::write("BENCH_obs.json", &out).expect("write BENCH_obs.json");
    println!("{out}");
    println!(
        "tracing overhead: {overhead_pct:.2}% (budget {OVERHEAD_BUDGET_PCT:.1}%) — wrote BENCH_obs.json"
    );
    if overhead_pct > OVERHEAD_BUDGET_PCT {
        eprintln!("warning: overhead exceeds the {OVERHEAD_BUDGET_PCT:.1}% budget on this host");
        std::process::exit(1);
    }
}
