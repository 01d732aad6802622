//! Fault-injection suite: seeded driver faults drive the supervision, retry, and
//! failover machinery end to end.
//!
//! The contract under test: **no injected driver fault may hang a handle or corrupt a
//! surviving result.**  Every job resolves to a structured outcome, jobs that survive
//! (directly, via retry, or via failover) are bit-identical to a fault-free replay on
//! a fresh backend, and the same seed replays the same scenario exactly — outcomes,
//! sequence numbers, and all.
//!
//! The CI `soak` job extends the seeded sweep with rotating seeds via
//! `QEXEC_FAULT_SEEDS` (comma-separated), so every run explores new schedules while
//! any failure stays reproducible by exporting the seed it printed.

use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qexec::fault::{FaultKind, FaultPlan, FaultyBackend};
use qexec::{BackendHealth, EvalJob, ExecError, Executor, JobHandle, SeedPolicy, SubmitOptions};
use qop::PauliOp;
use std::sync::Arc;
use std::time::Duration;
use vqa::{Backend, InitialState, SampledBackend, StatevectorBackend};

/// Injected faults unwind through `catch_unwind` by design; silence the default hook
/// so the expected panics don't spray backtraces over the test output.
fn silence_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

fn demo_circuit(num_qubits: usize) -> Arc<Circuit> {
    Arc::new(HardwareEfficientAnsatz::new(num_qubits, 2, Entanglement::Circular).build())
}

fn demo_ops(num_qubits: usize) -> (Arc<PauliOp>, Arc<PauliOp>) {
    let mut charged = String::from("ZZ");
    let mut free = String::from("XI");
    while charged.len() < num_qubits {
        charged.push('I');
        free.push(if free.len() % 2 == 0 { 'Z' } else { 'I' });
    }
    (
        Arc::new(PauliOp::from_labels(
            num_qubits,
            &[(charged.as_str(), -1.0), (free.as_str(), 0.3)],
        )),
        Arc::new(PauliOp::from_labels(num_qubits, &[(free.as_str(), 0.7)])),
    )
}

fn demo_job(
    circuit: &Arc<Circuit>,
    charged: &Arc<PauliOp>,
    free: &Arc<PauliOp>,
    salt: usize,
) -> EvalJob {
    let params: Vec<f64> = (0..circuit.num_parameters())
        .map(|i| 0.05 * i as f64 + 0.013 * salt as f64)
        .collect();
    EvalJob::new(
        Arc::clone(circuit),
        params,
        InitialState::Basis(0),
        Arc::clone(charged),
    )
    .with_free_ops(vec![Arc::clone(free)])
}

/// Fault-free ground truth for one job on a fresh exact backend (statevector results
/// are a pure function of the job, so per-job replay is order-independent).
fn ground_truth(job: &EvalJob) -> (u64, Vec<u64>) {
    let mut backend = StatevectorBackend::with_shots(64);
    let free_refs: Vec<&PauliOp> = job.free_ops.iter().map(|op| op.as_ref()).collect();
    let (charged, free) = backend.evaluate(
        &job.circuit,
        &job.params,
        &job.initial,
        &job.charged_op,
        &free_refs,
    );
    (
        charged.to_bits(),
        free.iter().map(|v| v.to_bits()).collect(),
    )
}

/// One job's resolved outcome, reduced to comparable bits.
type Outcome = (Option<u64>, Result<(u64, Vec<u64>), ExecError>);

/// Runs the standard seeded-fault scenario: 4 waves of 4 jobs (each wave one slate)
/// against a faulty exact backend with retry budget 2, waiting each wave out.  Returns
/// every job with its sequence number and resolution, plus the jobs themselves for
/// ground-truth comparison.
fn run_seeded_scenario(seed: u64) -> (Vec<EvalJob>, Vec<Outcome>) {
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let plan = FaultPlan::new(seed)
        .with_panic_rate(0.08)
        .with_transient_rate(0.15);
    let executor = Executor::single(FaultyBackend::new(StatevectorBackend::with_shots(64), plan));
    let client = executor.client();
    let opts = SubmitOptions {
        retries: 2,
        ..SubmitOptions::default()
    };
    let mut jobs = Vec::new();
    let mut outcomes = Vec::new();
    for wave in 0..4 {
        let mut handles: Vec<JobHandle> = Vec::new();
        executor.pause();
        for j in 0..4 {
            let job = demo_job(&circuit, &charged, &free, wave * 4 + j);
            handles.push(client.submit_with(job.clone(), &opts).unwrap());
            jobs.push(job);
        }
        executor.resume();
        for handle in &handles {
            let resolved = handle
                .wait_timeout(Duration::from_secs(60))
                .unwrap_or_else(|| panic!("an injected fault hung a handle (seed {seed})"));
            outcomes.push((
                handle.sequence(),
                resolved.map(|r| {
                    (
                        r.charged.to_bits(),
                        r.free.iter().map(|v| v.to_bits()).collect(),
                    )
                }),
            ));
        }
    }
    (jobs, outcomes)
}

fn sweep_seeds() -> Vec<u64> {
    let mut seeds = vec![11, 23, 47];
    if let Ok(extra) = std::env::var("QEXEC_FAULT_SEEDS") {
        seeds.extend(
            extra
                .split(',')
                .filter_map(|s| s.trim().parse::<u64>().ok()),
        );
    }
    seeds
}

// ---------------------------------------------------------------------------
// Seeded sweep
// ---------------------------------------------------------------------------

/// Under randomized (but seeded) panics and transient faults with a retry budget:
/// every handle resolves, failures carry structured errors, and every surviving result
/// is bit-identical to the fault-free ground truth.
#[test]
fn seeded_faults_never_hang_and_survivors_stay_bit_identical() {
    silence_expected_panics();
    for seed in sweep_seeds() {
        let (jobs, outcomes) = run_seeded_scenario(seed);
        let mut survivors = 0usize;
        for (job, (seq, outcome)) in jobs.iter().zip(&outcomes) {
            assert!(
                seq.is_some(),
                "every scheduled job gets a sequence number (seed {seed})"
            );
            match outcome {
                Ok(bits) => {
                    survivors += 1;
                    assert_eq!(
                        *bits,
                        ground_truth(job),
                        "a surviving result diverged from the fault-free replay (seed {seed})"
                    );
                }
                Err(ExecError::Execution(msg)) => {
                    assert!(
                        msg.contains("injected"),
                        "driver failure should carry the injected-fault message, got {msg:?}"
                    );
                }
                Err(ExecError::BackendQuarantined { .. }) => {}
                Err(other) => {
                    panic!("unexpected resolution under injected faults (seed {seed}): {other}")
                }
            }
        }
        // The retry budget should rescue most waves at these fault rates; an all-dead
        // run would mean supervision is failing jobs it could have saved.
        assert!(
            survivors > 0,
            "no job survived seed {seed} despite retry budget"
        );
    }
}

/// The harness is counter-based, not stream-based: running the identical scenario
/// twice yields identical outcomes — same survivors, same errors, same sequence
/// numbers.
#[test]
fn same_seed_replays_the_same_scenario_exactly() {
    silence_expected_panics();
    let (_, first) = run_seeded_scenario(23);
    let (_, second) = run_seeded_scenario(23);
    assert_eq!(first, second, "seeded fault scenario failed to replay");
}

// ---------------------------------------------------------------------------
// Quarantine & canary readmission
// ---------------------------------------------------------------------------

/// A hard driver panic quarantines the backend; the next scheduler round runs a canary
/// probe, and a passing canary readmits the backend, which then serves jobs normally.
#[test]
fn hard_panic_quarantines_then_canary_readmits() {
    silence_expected_panics();
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    // Exactly one scripted hard panic at driver call 0; everything after is clean.
    let plan = FaultPlan::new(1).with_fault_at(0, Some(FaultKind::Panic));
    let executor = Executor::builder()
        .register(
            "flaky",
            FaultyBackend::new(StatevectorBackend::with_shots(64), plan),
        )
        .start();
    let client = executor.client();

    let doomed = client
        .submit(demo_job(&circuit, &charged, &free, 0))
        .unwrap();
    match doomed.wait().unwrap_err() {
        ExecError::Execution(msg) => assert!(msg.contains("injected fault at driver call 0")),
        other => panic!("expected the injected panic as Execution, got {other}"),
    }
    assert_eq!(
        executor.backend_health("flaky").unwrap(),
        BackendHealth::Quarantined { failures: 1 }
    );
    assert_eq!(executor.stats().panics, 1);

    // The next submission's round is past the canary backoff: recover + canary probe
    // (clean by the plan) readmit the backend before the job dispatches.
    let job = demo_job(&circuit, &charged, &free, 1);
    let revived = client.submit(job.clone()).unwrap();
    let result = revived.wait().expect("job runs after readmission");
    assert_eq!(
        (
            result.charged.to_bits(),
            result
                .free
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>()
        ),
        ground_truth(&job)
    );
    assert_eq!(
        executor.backend_health("flaky").unwrap(),
        BackendHealth::Healthy
    );
    assert_eq!(executor.stats().readmissions, 1);
}

// ---------------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------------

/// While a target backend is quarantined, failover-opted jobs execute on a
/// capability-compatible standby (bit-identical to running there directly); jobs that
/// did not opt in fail fast with `BackendQuarantined`.
#[test]
fn quarantined_target_fails_over_or_fails_fast() {
    silence_expected_panics();
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    // The primary faults on every call — including canary probes, so it never rejoins.
    let plan = FaultPlan::new(7).with_panic_rate(1.0);
    let executor = Executor::builder()
        .register(
            "primary",
            FaultyBackend::new(StatevectorBackend::with_shots(64), plan),
        )
        .register("standby", StatevectorBackend::with_shots(64))
        .start();
    let client = executor.client();
    let on_primary = |failover: bool| SubmitOptions {
        backend: Some("primary".to_string()),
        failover,
        ..SubmitOptions::default()
    };

    // Trip the quarantine.
    let tripwire = client
        .submit_with(demo_job(&circuit, &charged, &free, 0), &on_primary(false))
        .unwrap();
    assert!(matches!(
        tripwire.wait().unwrap_err(),
        ExecError::Execution(_)
    ));
    assert!(matches!(
        executor.backend_health("primary").unwrap(),
        BackendHealth::Quarantined { .. }
    ));

    // No failover: fail fast, naming the quarantined backend.
    let stuck = client
        .submit_with(demo_job(&circuit, &charged, &free, 1), &on_primary(false))
        .unwrap();
    assert_eq!(
        stuck.wait().unwrap_err(),
        ExecError::BackendQuarantined {
            backend: "primary".to_string()
        }
    );

    // Failover: the standby serves the job, bit-identical to a fresh exact backend.
    let job = demo_job(&circuit, &charged, &free, 2);
    let rescued = client.submit_with(job.clone(), &on_primary(true)).unwrap();
    let result = rescued
        .wait()
        .expect("failover job completes on the standby");
    assert_eq!(
        (
            result.charged.to_bits(),
            result
                .free
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>()
        ),
        ground_truth(&job)
    );
    assert!(executor.stats().failovers >= 1);
    assert_eq!(
        executor.backend_health("standby").unwrap(),
        BackendHealth::Healthy
    );
}

// ---------------------------------------------------------------------------
// Transient faults & retry
// ---------------------------------------------------------------------------

/// A transient fault with retry budget: the job retries on the *same* backend (no
/// quarantine), succeeds, and the result is bit-identical to the fault-free run.
#[test]
fn transient_fault_retries_to_a_bit_identical_result() {
    silence_expected_panics();
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let plan = FaultPlan::new(3).with_fault_at(0, Some(FaultKind::Transient));
    let faulty = FaultyBackend::new(StatevectorBackend::with_shots(64), plan);
    let fault_stats = faulty.stats();
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, faulty)
        .start();
    let client = executor.client();
    let job = demo_job(&circuit, &charged, &free, 0);
    let handle = client
        .submit_with(
            job.clone(),
            &SubmitOptions {
                retries: 1,
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    let result = handle.wait().expect("retry rescues the transient fault");
    assert_eq!(
        (
            result.charged.to_bits(),
            result
                .free
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>()
        ),
        ground_truth(&job)
    );
    let stats = executor.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.panics, 0, "transient faults must not quarantine");
    assert_eq!(
        executor.backend_health(qexec::DEFAULT_BACKEND).unwrap(),
        BackendHealth::Healthy
    );
    assert_eq!(fault_stats.calls(), 2, "faulted attempt plus clean retry");
    assert_eq!(fault_stats.transients(), 1);
    assert_eq!(fault_stats.panics(), 0);
}

/// Transient faults past the retry budget surface as `Execution` errors carrying the
/// transient marker — still no quarantine.
#[test]
fn exhausted_retries_fail_with_the_transient_message() {
    silence_expected_panics();
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let plan = FaultPlan::new(5)
        .with_fault_at(0, Some(FaultKind::Transient))
        .with_fault_at(1, Some(FaultKind::Transient));
    let executor = Executor::single(FaultyBackend::new(StatevectorBackend::with_shots(64), plan));
    let client = executor.client();
    let handle = client
        .submit_with(
            demo_job(&circuit, &charged, &free, 0),
            &SubmitOptions {
                retries: 1,
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    match handle.wait().unwrap_err() {
        ExecError::Execution(msg) => assert!(
            msg.starts_with("transient fault:"),
            "expected the transient marker, got {msg:?}"
        ),
        other => panic!("expected Execution, got {other}"),
    }
    assert_eq!(
        executor.backend_health(qexec::DEFAULT_BACKEND).unwrap(),
        BackendHealth::Healthy
    );
}

/// A stand-in for a third-party driver that carries cross-request mutable RNG state:
/// it computes like the exact backend but deliberately does not advertise
/// `retry_safe` (the workspace backends all do, since the counter-based `qrng`
/// rework keys their draws per request).
struct StreamStatefulBackend(StatevectorBackend);

impl Backend for StreamStatefulBackend {
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>) {
        self.0
            .evaluate(circuit, params, initial, charged_op, free_ops)
    }

    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64 {
        self.0.probe(circuit, params, initial, op)
    }

    fn shots_used(&self) -> u64 {
        self.0.shots_used()
    }

    fn reset_shots(&mut self) {
        self.0.reset_shots()
    }

    fn shots_per_pauli(&self) -> u64 {
        self.0.shots_per_pauli()
    }

    fn name(&self) -> &'static str {
        "stream-stateful"
    }

    fn capabilities(&self) -> vqa::BackendCaps {
        vqa::BackendCaps {
            retry_safe: false,
            ..self.0.capabilities()
        }
    }
}

/// Retries are only allowed where re-execution is observationally invisible: a driver
/// that does not advertise `retry_safe` refuses retry budgets at the submission
/// boundary.
#[test]
fn retries_require_the_retry_safe_capability() {
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let executor = Executor::single(StreamStatefulBackend(StatevectorBackend::with_shots(64)));
    let client = executor.client();
    let err = client
        .submit_with(
            demo_job(&circuit, &charged, &free, 0),
            &SubmitOptions {
                retries: 1,
                ..SubmitOptions::default()
            },
        )
        .unwrap_err();
    assert_eq!(
        err,
        ExecError::MissingCapability {
            backend: qexec::DEFAULT_BACKEND.to_string(),
            missing: "retry_safe",
        }
    );
}

/// The stochastic backends are retry-safe since the counter-based `qrng` rework: a
/// sampled backend accepts a retry budget, and a retry rescued by it is bit-identical
/// to the fault-free run of the same job — the re-execution reuses the job's pinned
/// stream and disturbs nothing else.
#[test]
fn sampled_backend_retries_bit_identically() {
    silence_expected_panics();
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    // The whole first slate is one `evaluate_batch` submission = driver call 0.
    let plan = FaultPlan::new(13).with_fault_at(0, Some(FaultKind::Transient));
    let executor = Executor::builder()
        .register(
            qexec::DEFAULT_BACKEND,
            FaultyBackend::new(SampledBackend::with_policy(256, SeedPolicy::new(42)), plan),
        )
        .paused()
        .start();
    let client = executor.client();
    let opts = SubmitOptions {
        retries: 1,
        ..SubmitOptions::default()
    };
    let handles: Vec<JobHandle> = (0..3)
        .map(|salt| {
            client
                .submit_with(demo_job(&circuit, &charged, &free, salt), &opts)
                .expect("sampled backends accept retry budgets")
        })
        .collect();
    executor.resume();
    // Every handle resolves despite the injected fault (the whole batch faulted at
    // driver call 0 retries one slate later, streams pinned).
    let results: Vec<_> = handles
        .iter()
        .map(|h| h.wait().expect("retry rescues the batch"))
        .collect();
    assert_eq!(executor.stats().retries, 3);
    // Each result is bit-identical to evaluating the same job + stream on a fresh,
    // fault-free backend.
    let mut replay = SampledBackend::with_policy(256, SeedPolicy::new(42));
    for (salt, (handle, result)) in handles.iter().zip(&results).enumerate() {
        let job = demo_job(&circuit, &charged, &free, salt);
        let free_refs: Vec<&PauliOp> = job.free_ops.iter().map(|op| op.as_ref()).collect();
        let request = vqa::EvalRequest {
            circuit: &job.circuit,
            params: &job.params,
            initial: &job.initial,
            charged_op: &job.charged_op,
            free_ops: &free_refs,
            stream: Some(handle.rng_stream()),
        };
        let replayed = replay
            .evaluate_batch(std::slice::from_ref(&request))
            .remove(0);
        assert_eq!(
            result.charged.to_bits(),
            replayed.charged.to_bits(),
            "a rescued retry diverged from the fault-free stream replay"
        );
    }
}
