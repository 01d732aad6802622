//! Observability suite: span completeness under faults, histogram bucket math, and
//! the disabled-mode bit-identity contract.
//!
//! The contracts under test:
//!
//! 1. **Span completeness** — with recording on, every *admitted* job leaves exactly
//!    one finished lifecycle span whose terminal label matches the outcome its handle
//!    reported, across every resolution path (success, structured failure, expiry,
//!    shedding, cancellation, shutdown).  No span leaks (`open == 0` once all handles
//!    resolve) and no span is orphaned (outcome tallies sum to the finished count).
//! 2. **Histogram math** — the log₂-bucketed latency histogram preserves exact
//!    count/sum/min/max, brackets every quantile by `[min, max]`, and merges
//!    associatively (randomized over `relational::Gen` cases).
//! 3. **Bit-identity** — a traced run returns bit-identical results to an untraced
//!    run of the same workload: recording sits entirely off the driver path.

use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qexec::fault::{FaultPlan, FaultyBackend};
use qexec::qobs;
use qexec::{AdmissionPolicy, EvalJob, ExecError, Executor, JobHandle, SeedPolicy, SubmitOptions};
use qop::PauliOp;
use std::sync::Arc;
use std::time::Duration;
use treevqa_tests::relational::{for_cases, Gen};
use vqa::{InitialState, SampledBackend, StatevectorBackend};

/// Injected faults unwind through `catch_unwind` by design; silence the default hook
/// so the expected panics don't spray backtraces over the test output.
fn silence_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

fn demo_circuit(num_qubits: usize) -> Arc<Circuit> {
    Arc::new(HardwareEfficientAnsatz::new(num_qubits, 2, Entanglement::Circular).build())
}

fn demo_op(num_qubits: usize) -> Arc<PauliOp> {
    let mut label = String::from("ZZ");
    while label.len() < num_qubits {
        label.push('I');
    }
    Arc::new(PauliOp::from_labels(num_qubits, &[(label.as_str(), -1.0)]))
}

fn demo_job(circuit: &Arc<Circuit>, op: &Arc<PauliOp>, salt: usize) -> EvalJob {
    let params: Vec<f64> = (0..circuit.num_parameters())
        .map(|i| 0.05 * i as f64 + 0.013 * salt as f64)
        .collect();
    EvalJob::new(
        Arc::clone(circuit),
        params,
        InitialState::Basis(0),
        Arc::clone(op),
    )
}

/// The span outcome label a resolved handle must have produced.
fn expected_label(result: &Result<vqa::EvalResult, ExecError>) -> &'static str {
    match result {
        Ok(_) => "completed",
        Err(ExecError::Cancelled) => "cancelled",
        Err(ExecError::DeadlineExceeded) => "expired",
        Err(ExecError::Overloaded) => "shed",
        Err(ExecError::ShutDown) => "shutdown",
        Err(_) => "failed",
    }
}

/// Asserts the registry agrees with the per-handle ground truth: exactly one finished
/// span per admitted job, labels matching, nothing open, nothing orphaned.
fn assert_span_complete(registry: &qobs::Registry, results: &[Result<vqa::EvalResult, ExecError>]) {
    let summary = registry.snapshot().spans;
    assert_eq!(
        summary.started,
        results.len() as u64,
        "one span per admitted job"
    );
    assert_eq!(summary.finished, summary.started, "no span leaks");
    assert_eq!(summary.open, 0, "no orphaned spans");
    let tally_sum: u64 = summary.outcomes.iter().map(|&(_, n)| n).sum();
    assert_eq!(
        tally_sum, summary.finished,
        "every finished span has one terminal label"
    );
    for label in [
        "completed",
        "failed",
        "expired",
        "shed",
        "cancelled",
        "shutdown",
    ] {
        let expected = results
            .iter()
            .filter(|r| expected_label(r) == label)
            .count() as u64;
        assert_eq!(
            summary.outcome(label),
            expected,
            "terminal label tally mismatch for {label:?} (summary: {summary:?})"
        );
    }
}

/// Mixed-priority, fault-injected soak: 6 waves x 6 jobs against a faulty backend with
/// retries and failover, plus a deadline wave.  Every admitted job must leave exactly
/// one complete, correctly-labeled span.
#[test]
fn soak_every_job_leaves_one_complete_span() {
    silence_expected_panics();
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let plan = FaultPlan::new(17)
        .with_panic_rate(0.10)
        .with_transient_rate(0.20);
    let executor = Executor::builder()
        .register(
            "faulty",
            FaultyBackend::new(StatevectorBackend::with_shots(64), plan),
        )
        .register("standby", StatevectorBackend::with_shots(64))
        .retry_limit(2)
        .observability(true)
        .start();
    let clients = [executor.client(), executor.client(), executor.client()];

    let mut handles: Vec<JobHandle> = Vec::new();
    for wave in 0..6 {
        let guard = executor.scoped_pause();
        for (c, client) in clients.iter().enumerate() {
            for j in 0..2 {
                let mut job = demo_job(&circuit, &op, wave * 6 + c * 2 + j);
                if wave == 3 && c == 1 {
                    // These lapse while the executor is still paused below.
                    job = job.with_timeout(Duration::from_millis(1));
                }
                let opts = SubmitOptions {
                    priority: c as qexec::Priority - 1,
                    retries: 2,
                    failover: true,
                    ..SubmitOptions::default()
                };
                handles.push(client.submit_with(job, &opts).unwrap());
            }
        }
        if wave == 3 {
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(guard);
        executor.wait_idle();
    }

    let results: Vec<_> = handles
        .iter()
        .map(|h| {
            h.wait_timeout(Duration::from_secs(60))
                .expect("no injected fault may hang a handle")
        })
        .collect();
    assert_span_complete(&executor.observability(), &results);

    // Latency histograms cover every admitted job end-to-end, and only executed jobs
    // contribute an exec stage.
    let snap = executor.observability().snapshot();
    assert_eq!(snap.e2e_latency.count, results.len() as u64);
    assert_eq!(snap.queue_latency.count, results.len() as u64);
    assert!(snap.exec_latency.count <= results.len() as u64);
    assert!(snap.exec_latency.count >= results.iter().filter(|r| r.is_ok()).count() as u64);
}

/// Shedding and cancellation also land terminal labels: a 4-deep shed-policy queue
/// over-submitted while paused, then one queued job cancelled.
#[test]
fn shed_and_cancel_paths_label_spans() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register("sv", StatevectorBackend::with_shots(0))
        .queue_capacity(4)
        .admission(AdmissionPolicy::ShedLowestPriority)
        .observability(true)
        .paused()
        .start();
    let client = executor.client();

    let mut handles: Vec<JobHandle> = Vec::new();
    // Fill the queue at low priority, then displace with high-priority arrivals.
    for i in 0..4 {
        let opts = SubmitOptions {
            priority: 0,
            ..SubmitOptions::default()
        };
        handles.push(
            client
                .submit_with(demo_job(&circuit, &op, i), &opts)
                .unwrap(),
        );
    }
    for i in 4..6 {
        let opts = SubmitOptions {
            priority: 5,
            ..SubmitOptions::default()
        };
        handles.push(
            client
                .submit_with(demo_job(&circuit, &op, i), &opts)
                .unwrap(),
        );
    }
    // Cancel one job that is still queued (a high-priority one, guaranteed queued
    // rather than shed).
    assert!(handles[5].cancel());
    executor.resume();

    let results: Vec<_> = handles
        .iter()
        .map(|h| h.wait_timeout(Duration::from_secs(60)).expect("resolved"))
        .collect();
    assert_span_complete(&executor.observability(), &results);
    let summary = executor.observability().snapshot().spans;
    assert_eq!(
        summary.outcome("shed"),
        2,
        "two low-priority jobs displaced"
    );
    assert_eq!(summary.outcome("cancelled"), 1);
    assert_eq!(summary.outcome("completed"), 3);
}

/// Dropping an executor with queued work finishes those spans with the `shutdown`
/// label — shutdown is a terminal outcome, not a leak.
#[test]
fn shutdown_finishes_queued_spans() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register("sv", StatevectorBackend::with_shots(0))
        .observability(true)
        .paused()
        .start();
    let client = executor.client();
    let handles: Vec<JobHandle> = (0..3)
        .map(|i| client.submit(demo_job(&circuit, &op, i)).unwrap())
        .collect();
    let registry = executor.observability();
    drop(executor);
    let results: Vec<_> = handles
        .iter()
        .map(|h| h.wait_timeout(Duration::from_secs(60)).expect("resolved"))
        .collect();
    assert!(results
        .iter()
        .all(|r| matches!(r, Err(ExecError::ShutDown))));
    assert_span_complete(&registry, &results);
}

/// With recording off (the default), no spans exist but the always-live event
/// counters still back `Executor::stats()`.
#[test]
fn disabled_mode_records_no_spans() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register("sv", StatevectorBackend::with_shots(0))
        .observability(false)
        .start();
    let client = executor.client();
    for i in 0..4 {
        client
            .submit(demo_job(&circuit, &op, i))
            .unwrap()
            .wait()
            .unwrap();
    }
    let snap = executor.observability().snapshot();
    assert!(!snap.enabled);
    assert_eq!(snap.spans.started, 0);
    assert_eq!(snap.spans.finished, 0);
    assert_eq!(snap.e2e_latency.count, 0);
}

/// One job's resolution reduced to comparable bits: slate sequence, the
/// `(shots, samples)` payload when it completed, and the expected span label.
type ResolutionBits = (Option<u64>, Option<(u64, Vec<u64>)>, &'static str);

/// Runs the identical seeded fault workload through an executor with recording `on`,
/// reducing every resolution to comparable bits.
fn traced_run(on: bool) -> Vec<ResolutionBits> {
    silence_expected_panics();
    let circuit = demo_circuit(4);
    let op = demo_op(4);
    // Transient faults only: they fail jobs deterministically without quarantining,
    // so the comparison never races the supervisor's wall-clock readmission.
    let plan = FaultPlan::new(23).with_transient_rate(0.2);
    // A sampled backend consumes an RNG stream in scheduled order, so any tracing
    // interference with scheduling or execution would shift sampled bits.  (Sampled
    // backends are not retry-safe, so faulted jobs fail structurally — identically in
    // both runs.)
    let executor = Executor::builder()
        .register(
            "faulty",
            FaultyBackend::new(SampledBackend::with_policy(64, SeedPolicy::new(7)), plan),
        )
        .observability(on)
        .start();
    let client = executor.client();
    let mut out = Vec::new();
    for wave in 0..4 {
        let guard = executor.scoped_pause();
        let handles: Vec<JobHandle> = (0..4)
            .map(|j| {
                client
                    .submit(demo_job(&circuit, &op, wave * 4 + j))
                    .unwrap()
            })
            .collect();
        drop(guard);
        for handle in &handles {
            let result = handle
                .wait_timeout(Duration::from_secs(60))
                .expect("resolved");
            out.push((
                handle.sequence(),
                result.as_ref().ok().map(|r| {
                    (
                        r.charged.to_bits(),
                        r.free.iter().map(|v| v.to_bits()).collect(),
                    )
                }),
                expected_label(&result),
            ));
        }
        executor.wait_idle();
    }
    out
}

/// The bit-identity contract: tracing on and off produce identical sequence numbers,
/// identical sampled result bits, and identical outcome labels.
#[test]
fn tracing_is_bit_identical_to_untraced() {
    let traced = traced_run(true);
    let untraced = traced_run(false);
    assert_eq!(traced, untraced);
}

/// Cases per histogram property.
const CASES: usize = 256;

/// `min_len` to `max_len - 1` arbitrary values.
fn values(gen: &mut Gen, min_len: u64, max_len: u64) -> Vec<u64> {
    let len = min_len + gen.below(max_len - min_len);
    (0..len).map(|_| gen.next_u64()).collect()
}

/// Exact count/sum/min/max, quantiles bracketed by `[min, max]` and monotone.
#[test]
fn histogram_preserves_exact_moments() {
    for_cases(0x0b51, CASES, |_, gen| {
        let values = values(gen, 1, 200);
        let hist = qobs::Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(
            snap.sum,
            values.iter().fold(0u64, |acc, &v| acc.wrapping_add(v))
        );
        assert_eq!(snap.min, *values.iter().min().unwrap());
        assert_eq!(snap.max, *values.iter().max().unwrap());
        let mut last = snap.min;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let quantile = snap.quantile(q).unwrap();
            assert!(quantile >= snap.min && quantile <= snap.max);
            assert!(quantile >= last, "quantiles must be monotone in q");
            last = quantile;
        }
    });
}

/// Merging per-shard snapshots is equivalent to recording everything into one
/// histogram (the property the registry relies on when aggregating).
#[test]
fn histogram_merge_equals_single_recording() {
    for_cases(0x0b52, CASES, |_, gen| {
        let (a, b) = (values(gen, 0, 100), values(gen, 0, 100));
        let whole = qobs::Histogram::new();
        let left = qobs::Histogram::new();
        let right = qobs::Histogram::new();
        for &v in &a {
            whole.record(v);
            left.record(v);
        }
        for &v in &b {
            whole.record(v);
            right.record(v);
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        let expected = whole.snapshot();
        assert_eq!(merged.buckets, expected.buckets);
        assert_eq!(merged.count, expected.count);
        assert_eq!(merged.sum, expected.sum);
        assert_eq!(merged.min, expected.min);
        assert_eq!(merged.max, expected.max);
    });
}

/// A single recorded value is every quantile: the bucket's upper bound is clamped
/// back to the observed range.
#[test]
fn histogram_single_value_quantiles() {
    for_cases(0x0b53, CASES, |_, gen| {
        let v = gen.next_u64();
        let q = 0.5 * (gen.unit() + 1.0);
        let hist = qobs::Histogram::new();
        hist.record(v);
        assert_eq!(hist.snapshot().quantile(q), Some(v));
    });
}
