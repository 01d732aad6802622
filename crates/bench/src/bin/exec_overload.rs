//! Generates `BENCH_exec_overload.json`: admission-control and load-shedding
//! baselines for the execution service's bounded queues.
//!
//! The throughput records come from the same deterministic quick-bench harness CI runs
//! (`treevqa_bench::quick::run_quick_suite`, ids prefixed `exec/overload/`), so the
//! checked-in medians line up id for id with every later quick run *on the same
//! host*.  The scenario section replays a fixed
//! overload burst — 256 submissions into a 64-deep `Reject` queue on a paused executor
//! — and asserts the exact accept/reject split before recording it.  Run on a quiet
//! machine and commit the result:
//!
//! ```text
//! cargo run --release -p treevqa_bench --bin exec_overload
//! ```

use qexec::{EvalJob, ExecError, Executor, JobHandle};
use std::sync::Arc;
use treevqa_bench::quick::{record_to_json, run_quick_suite, QuickRecord};
use vqa::{InitialState, StatevectorBackend};

const SUBMITTED: usize = 256;
const CAPACITY: usize = 64;

/// Replays the fixed overload burst: exactly `CAPACITY` submissions are admitted, the
/// rest bounce with [`ExecError::Overloaded`], and every admitted job completes once
/// the executor resumes.  Returns `(accepted, rejected)`.
fn overload_scenario() -> (usize, usize) {
    let circuit = Arc::new(
        qcircuit::HardwareEfficientAnsatz::new(6, 1, qcircuit::Entanglement::Linear).build(),
    );
    let op = Arc::new(qop::PauliOp::from_labels(6, &[("ZIIIII", 1.0)]));
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(0))
        .queue_capacity(CAPACITY)
        .paused()
        .start();
    let client = executor.client();
    let mut accepted: Vec<JobHandle> = Vec::new();
    let mut rejected = 0usize;
    for i in 0..SUBMITTED {
        let params: Vec<f64> = (0..circuit.num_parameters())
            .map(|p| 0.01 * p as f64 + 0.001 * i as f64)
            .collect();
        let job = EvalJob::new(
            Arc::clone(&circuit),
            params,
            InitialState::Basis(0),
            Arc::clone(&op),
        );
        match client.submit(job) {
            Ok(handle) => accepted.push(handle),
            Err(ExecError::Overloaded) => rejected += 1,
            Err(other) => panic!("unexpected admission outcome: {other}"),
        }
    }
    executor.resume();
    for handle in &accepted {
        handle.wait().expect("admitted overload jobs complete");
    }
    let stats = executor.stats();
    assert_eq!(stats.rejected as usize, rejected);
    (accepted.len(), rejected)
}

fn main() {
    let records: Vec<QuickRecord> = run_quick_suite()
        .into_iter()
        .filter(|r| r.id.starts_with("exec/overload/"))
        .collect();
    assert!(
        !records.is_empty(),
        "the quick suite must contain exec/overload/ workloads"
    );

    let (accepted, rejected) = overload_scenario();
    assert_eq!(
        accepted, CAPACITY,
        "the bounded queue admits exactly its capacity"
    );
    assert_eq!(rejected, SUBMITTED - CAPACITY);

    let mut out = String::from("{\n  \"throughput\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&record_to_json(r));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"scenario\": {{\"submitted\": {SUBMITTED}, \"queue_capacity\": {CAPACITY}, \
         \"accepted\": {accepted}, \"rejected\": {rejected}, \
         \"all_accepted_completed\": true}}\n"
    ));
    out.push_str("}\n");

    std::fs::write("BENCH_exec_overload.json", &out).expect("write BENCH_exec_overload.json");
    println!("{out}");
    println!(
        "wrote BENCH_exec_overload.json ({} throughput records)",
        records.len()
    );
}
