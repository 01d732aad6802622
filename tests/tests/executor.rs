//! Executor determinism suite: the `qexec` service's schedule-independence contract,
//! fairness, priority, cancellation, and structured-error behaviour.
//!
//! The hard contract under test: **executor results are bit-identical under any
//! schedule** — every job's stochastic draws come from its own counter-based stream
//! pinned at admission ([`qexec::JobHandle::rng_stream`]), so re-evaluating any job
//! with its stream on a fresh identically-configured backend reproduces its result
//! exactly, in any order, for exact, sampled, and trajectory-noise backends.  CI runs
//! this suite under `RAYON_NUM_THREADS ∈ {1, 2, 4}`; the shared `force_parallel_workers`
//! defaults a plain local run to 4 rayon workers so the across-state parallel batch
//! paths are exercised even on a single-core box.  (The
//! dedicated schedule-independence property suite lives in
//! `tests/tests/schedule_independence.rs`.)

use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qexec::{
    wait_all, CompletionHandle, EvalJob, EvalResult, ExecError, Executor, JobHandle, JobSubmitter,
    SeedPolicy, StreamId, SubmitOptions,
};
use qnoise::PauliNoiseModel;
use qop::PauliOp;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;
use treevqa::{TreeVqa, TreeVqaConfig};
use treevqa_tests::relational::force_parallel_workers;
use vqa::{
    Backend, EvalRequest, InitialState, NoisyStatevectorBackend, SampledBackend,
    StatevectorBackend, VqaApplication, VqaTask,
};

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

/// Submits `jobs_per_client` jobs from each of `num_clients` clients (round-robin
/// candidate parameters) against a paused executor, resumes, and returns the jobs in
/// the order the scheduler executed them (by sequence number) together with their
/// results.
fn run_clients(
    executor: &Executor,
    num_clients: usize,
    jobs_per_client: usize,
    circuit: &Arc<Circuit>,
    charged: &Arc<PauliOp>,
    free: &Arc<PauliOp>,
) -> Vec<(EvalJob, qexec::EvalResult, u64, StreamId)> {
    executor.pause();
    let clients: Vec<_> = (0..num_clients).map(|_| executor.client()).collect();
    let mut submitted: Vec<(EvalJob, JobHandle)> = Vec::new();
    for (c, client) in clients.iter().enumerate() {
        for j in 0..jobs_per_client {
            let params: Vec<f64> = (0..circuit.num_parameters())
                .map(|i| 0.05 * i as f64 + 0.11 * c as f64 + 0.013 * j as f64)
                .collect();
            let job = EvalJob::new(
                Arc::clone(circuit),
                params,
                InitialState::Basis(0),
                Arc::clone(charged),
            )
            .with_free_ops(vec![Arc::clone(free)]);
            let handle = client.submit(job.clone()).expect("well-formed job");
            submitted.push((job, handle));
        }
    }
    executor.resume();
    let mut executed: Vec<(EvalJob, qexec::EvalResult, u64, StreamId)> = submitted
        .into_iter()
        .map(|(job, handle)| {
            let result = handle.wait().expect("job executes");
            let seq = handle.sequence().expect("executed jobs have a sequence");
            (job, result, seq, handle.rng_stream())
        })
        .collect();
    executed.sort_by_key(|(_, _, seq, _)| *seq);
    // Sequence numbers must be exactly 0..n in some order (no gaps, no duplicates).
    for (i, (_, _, seq, _)) in executed.iter().enumerate() {
        assert_eq!(*seq, i as u64, "sequence numbers must be gapless");
    }
    executed
}

/// Replays every executed job one at a time through `backend`, keyed by the stream its
/// handle reported — in **reverse** sequence order, to prove the replay is a per-job
/// lookup rather than a ritual re-enactment of the schedule — and demands bit-identical
/// charged/free values and equal shot charges.
fn assert_stream_replay_bit_identical(
    executed: &[(EvalJob, qexec::EvalResult, u64, StreamId)],
    backend: &mut dyn Backend,
) {
    for (job, result, seq, stream) in executed.iter().rev() {
        let free_refs: Vec<&PauliOp> = job.free_ops.iter().map(|op| op.as_ref()).collect();
        let before = backend.shots_used();
        let request = EvalRequest {
            circuit: &job.circuit,
            params: &job.params,
            initial: &job.initial,
            charged_op: &job.charged_op,
            free_ops: &free_refs,
            stream: Some(*stream),
        };
        let mut replayed = backend.evaluate_batch(std::slice::from_ref(&request));
        let replayed = replayed.remove(0);
        assert_eq!(
            result.charged.to_bits(),
            replayed.charged.to_bits(),
            "charged value diverged from the stream-keyed replay at sequence {seq}"
        );
        for (a, b) in result.free.iter().zip(&replayed.free) {
            assert_eq!(a.to_bits(), b.to_bits(), "free value diverged at {seq}");
        }
        assert_eq!(result.shots, backend.shots_used() - before);
    }
}

#[test]
fn exact_backend_matches_stream_replay() {
    force_parallel_workers();
    let circuit = demo_circuit(4);
    let (charged, free) = demo_ops(4);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(64))
        .start();
    let executed = run_clients(&executor, 3, 4, &circuit, &charged, &free);
    assert_stream_replay_bit_identical(&executed, &mut StatevectorBackend::with_shots(64));
}

#[test]
fn sampled_backend_results_are_stream_keyed() {
    force_parallel_workers();
    let circuit = demo_circuit(4);
    let (charged, free) = demo_ops(4);
    let executor = Executor::builder()
        .register(
            qexec::DEFAULT_BACKEND,
            SampledBackend::with_policy(256, SeedPolicy::new(42)),
        )
        .start();
    let executed = run_clients(&executor, 4, 3, &circuit, &charged, &free);
    assert_stream_replay_bit_identical(
        &executed,
        &mut SampledBackend::with_policy(256, SeedPolicy::new(42)),
    );
}

#[test]
fn noisy_trajectory_backend_matches_stream_replay() {
    force_parallel_workers();
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let model = PauliNoiseModel::ibm_like("exec-test", 0.02, 0.05, 0.01, 0.01);
    let make = || {
        NoisyStatevectorBackend::with_policy(model.clone(), 50, SeedPolicy::new(4))
            .with_trajectories(5)
            .with_shot_sampling()
    };
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, make())
        .start();
    let executed = run_clients(&executor, 3, 3, &circuit, &charged, &free);
    assert_stream_replay_bit_identical(&executed, &mut make());
}

#[test]
fn large_batches_cross_the_parallel_threshold_and_stay_replayable() {
    force_parallel_workers();
    // 17 candidates × 2^11 amplitudes crosses the default QSIM_PAR_THRESHOLD of 2^14,
    // so the across-state parallel pool engages under multi-threaded runs.
    let circuit = demo_circuit(11);
    let (charged, free) = demo_ops(11);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(8))
        .start();
    let executed = run_clients(&executor, 1, 17, &circuit, &charged, &free);
    assert_stream_replay_bit_identical(&executed, &mut StatevectorBackend::with_shots(8));
}

#[test]
fn fair_scheduling_interleaves_clients_round_robin() {
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .paused()
        .start();
    let num_clients = 3;
    let per_client = 3;
    let clients: Vec<_> = (0..num_clients).map(|_| executor.client()).collect();
    let mut handles: Vec<Vec<JobHandle>> = (0..num_clients).map(|_| Vec::new()).collect();
    // Client 0 submits all its jobs first, then client 1, then client 2 — yet the
    // scheduler must serve them round-robin, not submission-major.
    for (c, client) in clients.iter().enumerate() {
        for _ in 0..per_client {
            let job = EvalJob::new(
                Arc::clone(&circuit),
                vec![0.1; circuit.num_parameters()],
                InitialState::Basis(0),
                Arc::clone(&charged),
            )
            .with_free_ops(vec![Arc::clone(&free)]);
            handles[c].push(client.submit(job).unwrap());
        }
    }
    executor.resume();
    for hs in &handles {
        wait_all(hs).unwrap();
    }
    for (c, hs) in handles.iter().enumerate() {
        for (j, handle) in hs.iter().enumerate() {
            assert_eq!(
                handle.sequence(),
                Some((j * num_clients + c) as u64),
                "client {c} job {j} must execute in round-robin position"
            );
        }
    }
}

#[test]
fn priority_dominates_fairness_and_submission_order() {
    let circuit = demo_circuit(3);
    let (charged, _) = demo_ops(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .paused()
        .start();
    let a = executor.client();
    let b = executor.client();
    let job = EvalJob::new(
        Arc::clone(&circuit),
        vec![0.2; circuit.num_parameters()],
        InitialState::Basis(0),
        Arc::clone(&charged),
    );
    let a_low = a.submit(job.clone()).unwrap();
    let b_high = b
        .submit_with(
            job.clone(),
            &SubmitOptions {
                priority: 10,
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    let a_high = a
        .submit_with(
            job,
            &SubmitOptions {
                priority: 10,
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    executor.resume();
    executor.wait_idle();
    // Both priority-10 jobs beat the earlier-submitted priority-0 job; among the
    // priority-10 jobs, round-robin starts at client 0 (= a).
    assert_eq!(a_high.sequence(), Some(0));
    assert_eq!(b_high.sequence(), Some(1));
    assert_eq!(a_low.sequence(), Some(2));
}

#[test]
fn cancellation_removes_queued_jobs_and_preserves_the_replay_of_the_rest() {
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let executor = Executor::builder()
        .register(
            qexec::DEFAULT_BACKEND,
            SampledBackend::with_policy(128, SeedPolicy::new(9)),
        )
        .paused()
        .start();
    let client = executor.client();
    let make_job = |x: f64| {
        EvalJob::new(
            Arc::clone(&circuit),
            vec![x; circuit.num_parameters()],
            InitialState::Basis(0),
            Arc::clone(&charged),
        )
        .with_free_ops(vec![Arc::clone(&free)])
    };
    let first = client.submit(make_job(0.1)).unwrap();
    let cancelled = client.submit(make_job(0.2)).unwrap();
    let third = client.submit(make_job(0.3)).unwrap();
    assert!(cancelled.cancel());
    assert!(!cancelled.cancel(), "double-cancel reports false");
    executor.resume();
    let r1 = first.wait().unwrap();
    let r3 = third.wait().unwrap();
    assert_eq!(cancelled.wait().unwrap_err(), ExecError::Cancelled);
    assert_eq!(cancelled.sequence(), None);
    // Cancellation cannot disturb the survivors: each replays bit-identically from its
    // own stream on a fresh backend.
    let mut replay = SampledBackend::with_policy(128, SeedPolicy::new(9));
    for (params, result, stream) in [
        (0.1, &r1, first.rng_stream()),
        (0.3, &r3, third.rng_stream()),
    ] {
        let all_params = vec![params; circuit.num_parameters()];
        let free_refs = [free.as_ref()];
        let request = EvalRequest {
            circuit: &circuit,
            params: &all_params,
            initial: &InitialState::Basis(0),
            charged_op: &charged,
            free_ops: &free_refs,
            stream: Some(stream),
        };
        let replayed = replay
            .evaluate_batch(std::slice::from_ref(&request))
            .remove(0);
        assert_eq!(result.charged.to_bits(), replayed.charged.to_bits());
    }
}

#[test]
fn structured_errors_surface_instead_of_panics() {
    let circuit = demo_circuit(3);
    let (charged, _) = demo_ops(3);
    let executor = Executor::single(StatevectorBackend::new());
    let client = executor.client();

    let err = client
        .submit(EvalJob::new(
            Arc::clone(&circuit),
            vec![0.0; 2],
            InitialState::Basis(0),
            Arc::clone(&charged),
        ))
        .unwrap_err();
    assert_eq!(
        err,
        ExecError::ParameterCountMismatch {
            expected: circuit.num_parameters(),
            got: 2
        }
    );

    let err = client
        .submit(EvalJob::new(
            Arc::clone(&circuit),
            vec![0.0; circuit.num_parameters()],
            InitialState::Basis(123),
            Arc::clone(&charged),
        ))
        .unwrap_err();
    assert_eq!(
        err,
        ExecError::BasisStateOutOfRange {
            basis: 123,
            num_qubits: 3
        }
    );

    let err = client
        .submit(EvalJob::new(
            Arc::new(Circuit::new(3)),
            vec![],
            InitialState::Basis(0),
            charged,
        ))
        .unwrap_err();
    assert_eq!(err, ExecError::EmptyCircuit);
}

#[test]
fn treevqa_runs_are_deterministic_across_executors() {
    force_parallel_workers();
    let tasks: Vec<VqaTask> = [0.45, 0.5, 0.55]
        .iter()
        .map(|&h| {
            VqaTask::with_computed_reference(
                format!("h={h}"),
                h,
                qchem::transverse_field_ising(3, 1.0, h),
            )
        })
        .collect();
    let ansatz = HardwareEfficientAnsatz::new(3, 1, Entanglement::Circular).build();
    let app = VqaApplication::new("exec-det", tasks, ansatz, InitialState::Basis(0));
    let config = TreeVqaConfig {
        max_cluster_iterations: 30,
        record_every: 5,
        seed: 3,
        ..Default::default()
    };
    let run = |seed: u64| {
        let tree = TreeVqa::new(
            app.clone(),
            TreeVqaConfig {
                seed,
                ..config.clone()
            },
        );
        let executor = Executor::single(SampledBackend::with_policy(128, SeedPolicy::new(7)));
        tree.run(&executor).expect("well-formed application")
    };
    let a = run(3);
    let b = run(3);
    assert_eq!(a.total_shots, b.total_shots);
    for (x, y) in a.per_task.iter().zip(&b.per_task) {
        assert_eq!(
            x.energy.to_bits(),
            y.energy.to_bits(),
            "controller runs over the execution service must be bit-reproducible"
        );
    }
}

#[test]
fn runner_reruns_bit_identically_on_fresh_executors() {
    force_parallel_workers();
    let ham = qchem::transverse_field_ising(3, 1.0, 0.5);
    let task = VqaTask::new("t", 0.5, ham.clone());
    let ansatz = HardwareEfficientAnsatz::new(3, 1, Entanglement::Linear).build();
    let config = vqa::VqaRunConfig {
        max_iterations: 25,
        optimizer: qopt::OptimizerSpec::default_spsa(),
        seed: 11,
        record_every: 5,
    };
    // A runner drive is a pure function of (config, backend seed): a second run on a
    // fresh executor — new scheduler, new uids, new streams derived the same way —
    // reproduces the whole optimizer trajectory bit-for-bit.
    let run = || {
        let executor = Executor::single(SampledBackend::with_policy(128, SeedPolicy::new(21)));
        qexec::run_single_vqa(
            &task,
            &ansatz,
            &InitialState::Basis(0),
            &vec![0.0; ansatz.num_parameters()],
            &executor.client(),
            &config,
        )
        .expect("well-formed task")
    };
    let first = run();
    let second = run();
    assert_eq!(first.final_params.len(), second.final_params.len());
    for (a, b) in first.final_params.iter().zip(&second.final_params) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "the service-driven optimizer trajectory must be reproducible"
        );
    }
    assert_eq!(first.shots_used, second.shots_used);
    assert_eq!(first.final_energy.to_bits(), second.final_energy.to_bits());
}

/// What the pinned run ([`treevqa_tests::pinned_treevqa`]) produced at the commit before
/// the controller moved onto `qexec::JobSubmitter`: the refactor changed who assembles a
/// round phase, not one submitted job.
const GOLDEN_TOTAL_SHOTS: u64 = 115_200;
const GOLDEN_ENERGY_BITS: [u64; 4] = [
    13835290669445260266,
    13835458640499801954,
    13837057712173155418,
    13837503552990461698,
];
const GOLDEN_SPLITS: usize = 1;
const GOLDEN_LEAF_TASKS: [&[usize]; 2] = [&[2, 3], &[0, 1]];
const GOLDEN_HISTORY_ROWS: usize = 10;
const GOLDEN_LAST_ROW_SHOTS: u64 = 115_200;

#[test]
fn treevqa_run_matches_the_golden_recorded_before_the_group_refactor() {
    force_parallel_workers();
    let result = treevqa_tests::pinned_treevqa()
        .run(&treevqa_tests::pinned_executor())
        .expect("well-formed application");
    let energy_bits: Vec<u64> = result.per_task.iter().map(|t| t.energy.to_bits()).collect();
    let leaf_tasks: Vec<Vec<usize>> = result
        .tree
        .leaves()
        .iter()
        .map(|n| n.task_indices.clone())
        .collect();
    assert_eq!(result.total_shots, GOLDEN_TOTAL_SHOTS);
    assert_eq!(energy_bits, GOLDEN_ENERGY_BITS);
    assert_eq!(result.tree.num_splits(), GOLDEN_SPLITS);
    assert_eq!(leaf_tasks, GOLDEN_LEAF_TASKS);
    assert_eq!(result.history.len(), GOLDEN_HISTORY_ROWS);
    assert_eq!(
        result.history.last().map(|r| r.cumulative_shots),
        Some(GOLDEN_LAST_ROW_SHOTS)
    );
}

/// A submitter that hands every job to an [`ExecClient`](qexec::ExecClient) and records
/// the most probe jobs ever submitted and not yet waited on.
struct ProbeCounter {
    inner: qexec::ExecClient,
    in_flight: Rc<Cell<usize>>,
    peak: Cell<usize>,
}

/// A handle of [`ProbeCounter`]: a probe leaves the in-flight count at its first result.
struct CountedHandle {
    inner: JobHandle,
    probe: Cell<Option<Rc<Cell<usize>>>>,
}

impl CountedHandle {
    fn seen(&self, result: Result<EvalResult, ExecError>) -> Result<EvalResult, ExecError> {
        if let Some(in_flight) = self.probe.take() {
            in_flight.set(in_flight.get() - 1);
        }
        result
    }
}

impl CompletionHandle for CountedHandle {
    fn wait(&self) -> Result<EvalResult, ExecError> {
        self.seen(self.inner.wait())
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Result<EvalResult, ExecError>> {
        self.inner.wait_timeout(timeout).map(|r| self.seen(r))
    }

    fn try_result(&self) -> Option<Result<EvalResult, ExecError>> {
        self.inner.try_result().map(|r| self.seen(r))
    }
}

impl JobSubmitter for ProbeCounter {
    type Handle = CountedHandle;

    fn submit_job(&self, job: EvalJob, opts: &SubmitOptions) -> Result<CountedHandle, ExecError> {
        let inner = self.inner.submit_job(job, opts)?;
        Ok(CountedHandle {
            inner,
            probe: Cell::new(None),
        })
    }

    fn submit_probe_job(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
    ) -> Result<CountedHandle, ExecError> {
        let inner = self.inner.submit_probe_job(job, opts)?;
        self.in_flight.set(self.in_flight.get() + 1);
        self.peak.set(self.peak.get().max(self.in_flight.get()));
        Ok(CountedHandle {
            inner,
            probe: Cell::new(Some(Rc::clone(&self.in_flight))),
        })
    }
}

/// The controller never has more probes in flight than it has tasks: a round record
/// probes each task once, and the final post-processing probes one cluster's state for
/// every task before it moves on to the next cluster.  So an executor whose admission cap
/// takes a round's probes also takes the final ones.  The pinned run ends with 2
/// clusters of its 4 tasks, and keeps its golden bits.
#[test]
fn treevqa_keeps_at_most_one_probe_per_task_in_flight() {
    force_parallel_workers();
    let executor = treevqa_tests::pinned_executor();
    let submitter = ProbeCounter {
        inner: executor.client(),
        in_flight: Rc::new(Cell::new(0)),
        peak: Cell::new(0),
    };
    let result = treevqa_tests::pinned_treevqa()
        .run_on(&submitter)
        .expect("well-formed application");
    let energy_bits: Vec<u64> = result.per_task.iter().map(|t| t.energy.to_bits()).collect();
    assert_eq!(result.total_shots, GOLDEN_TOTAL_SHOTS);
    assert_eq!(energy_bits, GOLDEN_ENERGY_BITS);
    assert_eq!(result.tree.leaves().len(), 2);
    assert_eq!(submitter.in_flight.get(), 0);
    assert_eq!(
        submitter.peak.get(),
        treevqa_tests::pinned_application().tasks.len()
    );
}
