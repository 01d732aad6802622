//! # qexec — the job-based execution service
//!
//! Every layer above the simulators used to thread a `&mut dyn Backend` by hand and call
//! `evaluate_batch` with borrowed request slices: fully synchronous, single-client, and
//! panicking on malformed input.  This crate redesigns that boundary into a service:
//!
//! * an [`Executor`] **owns** a registry of named backends (capability-negotiated via
//!   [`vqa::BackendCaps`]: batch, shots, noise, trajectories) behind a scheduler thread;
//! * any number of [`ExecClient`]s submit **owned** [`EvalJob`]s — `Arc`-shared circuit
//!   and observables, owned parameters — so work can be queued, prioritized, cancelled,
//!   and moved across threads;
//! * every submission returns a [`JobHandle`] with blocking/polling completion,
//!   cancellation, and the scheduler-assigned execution [`JobHandle::sequence`] number;
//! * malformed input (parameter-count or qubit-count mismatches, out-of-range basis
//!   states, empty circuits) is a structured [`ExecError`] at the submission boundary —
//!   and any residual driver panic surfaces as [`ExecError::Execution`] through the
//!   handle instead of crashing the service.
//!
//! The [`vqa::Backend`] trait survives beneath this API as the low-level driver
//! interface that execution substrates implement; only the executor calls it.
//!
//! # Scheduling
//!
//! Jobs are scheduled strictly by descending [`Priority`]; at equal priority, clients
//! are served **fair round-robin** (one job per client per turn, cursor advancing past
//! the served client), FIFO within a client.  The scheduler drains the queue into a
//! *slate*, partitions it by backend, and executes each backend's evaluation jobs as
//! one `evaluate_batch` submission (probes run singly after) — so concurrent clients'
//! work coalesces into the big batches the compiled scratch-pool engine is built for,
//! while no client can starve another.  The scheduler thread is the executor's only
//! thread: it owns every registered driver and runs the backends' portions of a slate
//! one after another in registration order (splitting work across threads is the
//! drivers' business, decided in one module: `qop::par`).
//!
//! A client that wants several jobs in **one** slate submits them as a group:
//! [`ExecClient::submit_group`] validates every entry, decides admission for all of
//! them and enqueues them under one hold of the queue lock, so the scheduler sees all
//! of the group or none of it — nothing is enqueued on a refusal, and no pause is
//! taken.  It is the only place more than one job is enqueued per call:
//! [`ExecClient::submit_all`], [`JobSubmitter::submit_job_group`], the `qnet` server's
//! batch frames and — through [`run_phase`] — every optimizer phase of
//! [`run_single_vqa`] and of the TreeVQA controller end there.  [`Executor::pause`] /
//! [`Executor::resume`] remain for *several* clients that want to assemble one
//! fair-ordered slate deterministically (the test suites do).
//!
//! # The robustness contract
//!
//! The service degrades structurally, never silently, under five cooperating
//! mechanisms:
//!
//! * **Deadlines** — [`EvalJob::with_deadline`] / [`EvalJob::with_timeout`] bound a
//!   job's *queueing* latency: the scheduler drops expired jobs before slate assembly
//!   (even while paused) with [`ExecError::DeadlineExceeded`], and
//!   [`JobHandle::wait_timeout`] bounds the client's wait.
//! * **Admission control** — [`ExecutorBuilder::queue_capacity`] /
//!   [`ExecutorBuilder::per_client_capacity`] (or the `QEXEC_QUEUE_CAP` environment
//!   variable) bound the queues; the [`AdmissionPolicy`] decides whether overflow
//!   rejects with [`ExecError::Overloaded`], blocks the submitter, or sheds the
//!   queued job that matters least.
//! * **Supervision** — a hard driver panic quarantines its backend; queued jobs
//!   targeting it fail fast with [`ExecError::BackendQuarantined`] or fail over to a
//!   capability-compatible standby ([`SubmitOptions::failover`]); the supervisor
//!   rebuilds the driver's caches ([`vqa::Backend::recover`]) and readmits it once a
//!   canary probe passes (see [`supervisor`]).
//! * **Retries** — [`SubmitOptions::retries`] re-queues failed executions of
//!   idempotent jobs (the backend must advertise [`vqa::BackendCaps::retry_safe`]),
//!   one slate after the failure; the retry executes with the job's own pinned draw
//!   stream, so a successful retry is bit-identical to a fault-free first attempt and
//!   never disturbs any other job's result.
//! * **Fault injection** — the [`fault`] module wraps any backend in a seeded,
//!   counter-deterministic [`fault::FaultyBackend`] so every path above is exercised
//!   reproducibly in CI.
//!
//! # Observability
//!
//! Every executor carries a [`qobs::Registry`] ([`Executor::observability`]).  Event
//! counters for each fault-path transition (reject / shed / expire / retry /
//! quarantine / canary / failover / readmission) are always live — they back the
//! lock-free [`Executor::stats`] snapshot.  When recording is enabled
//! ([`ExecutorBuilder::observability`], or the `QOBS` environment variable
//! process-wide), every admitted job additionally leaves exactly one lifecycle span —
//! submit → slate pickup → backend execution → terminal outcome, labeled with
//! client/backend/priority — feeding queue/exec/end-to-end latency histograms and a
//! bounded ring of finished spans.  Recording sits entirely off the driver path, so
//! traced and untraced runs produce bit-identical results (asserted by
//! `tests/tests/observability.rs`); disabled, the cost is one branch per job.
//! Render snapshots through [`qobs::export`] as a summary table, JSON, or
//! Prometheus-style text — the `exec_trace` example bin shows all three.
//!
//! # The schedule-independence contract
//!
//! **Executor results are bit-identical under any schedule.**  Every job's stochastic
//! draws come from a counter-based [`qrng`] stream pinned at admission
//! ([`SubmitOptions::rng_stream`], [`EvalJob::with_rng_stream`], or the default stream
//! derived from the submission id, readable via [`JobHandle::rng_stream`]) — a pure
//! function of `(root seed, stream, draw index)`, independent of whatever executed
//! before.  Consequences, each asserted by `tests/tests/schedule_independence.rs`:
//!
//! * **Submission interleaving doesn't matter** — a job pinned to a stream returns the
//!   same result no matter which other jobs surround it in the slate.
//! * **Retries and failovers don't matter** — re-executions reuse the pinned stream,
//!   so a recovered run is bit-identical to an undisturbed one.
//! * **Replay is a lookup, not a ritual** — re-evaluating any job with its handle's
//!   stream on an identically configured backend reproduces its result exactly;
//!   [`JobHandle::sequence`] still records the scheduled order for auditing, but
//!   nothing about the result depends on it.
//!
//! This strengthens the pre-PR-9 contract (bit-identical to the *serial replay of the
//! scheduled order*, which made results depend on global scheduling history) to
//! per-job determinism: concurrency never changes *what* is computed, only how it is
//! overlapped.
//!
//! ```
//! use qexec::{EvalJob, Executor};
//! use std::sync::Arc;
//! use vqa::{InitialState, StatevectorBackend};
//!
//! let executor = Executor::single(StatevectorBackend::with_shots(100));
//! let client = executor.client();
//!
//! let circuit = Arc::new(
//!     qcircuit::HardwareEfficientAnsatz::new(3, 1, qcircuit::Entanglement::Linear).build(),
//! );
//! let hamiltonian = Arc::new(qop::PauliOp::from_labels(3, &[("ZZI", -1.0), ("IXI", 0.3)]));
//! let params = vec![0.1; circuit.num_parameters()];
//!
//! let handle = client
//!     .submit(EvalJob::new(circuit, params, InitialState::Basis(0), hamiltonian))
//!     .expect("a well-formed job");
//! let result = handle.wait().expect("executed");
//! assert!(result.charged.is_finite());
//! assert_eq!(executor.shots_used("default").unwrap(), result.shots);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod executor;
pub mod fault;
mod job;
mod runner;
mod submit;
pub mod supervisor;

pub use error::{ExecError, CAPABILITY_NAMES};
pub use executor::{
    AdmissionPolicy, ExecClient, ExecStats, Executor, ExecutorBuilder, PauseGuard, DEFAULT_BACKEND,
    DEFAULT_RETRY_LIMIT, EVENT_NAMES,
};
pub use job::{wait_all, EvalJob, JobHandle, Priority, SubmitOptions, MAX_JOB_QUBITS};
pub use submit::{CompletionHandle, JobSubmitter};
// Re-exported so callers can name draw streams and seed policies without a direct
// dependency on the RNG crate.
pub use qrng;
pub use qrng::{SeedPolicy, StreamId};
pub use runner::{run_baseline, run_phase, run_single_vqa, PhaseRequest};
pub use supervisor::BackendHealth;

// Re-exported so executor callers can name capabilities and run records without a direct
// `vqa` dependency.
pub use vqa::{BackendCaps, EvalResult};

// Re-exported so callers of [`Executor::observability`] can name snapshot/exporter
// types without a direct `qobs` dependency.
pub use qobs;

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
    use qop::PauliOp;
    use std::sync::Arc;
    use vqa::{Backend, InitialState, SampledBackend, StatevectorBackend, VqaRunConfig, VqaTask};

    fn demo_setup() -> (Arc<Circuit>, Vec<f64>, Arc<PauliOp>, Arc<PauliOp>) {
        let circuit = Arc::new(HardwareEfficientAnsatz::new(3, 1, Entanglement::Linear).build());
        let params: Vec<f64> = (0..circuit.num_parameters())
            .map(|i| 0.1 * i as f64)
            .collect();
        let h1 = Arc::new(PauliOp::from_labels(3, &[("ZZI", -1.0), ("IXI", 0.3)]));
        let h2 = Arc::new(PauliOp::from_labels(3, &[("ZZI", -0.8), ("IIX", 0.2)]));
        (circuit, params, h1, h2)
    }

    #[test]
    fn submit_wait_matches_direct_backend_evaluation() {
        let (circuit, params, h1, h2) = demo_setup();
        let executor = Executor::single(StatevectorBackend::with_shots(1000));
        let client = executor.client();
        let handle = client
            .submit(
                EvalJob::new(
                    Arc::clone(&circuit),
                    params.clone(),
                    InitialState::Basis(0),
                    Arc::clone(&h1),
                )
                .with_free_ops(vec![Arc::clone(&h2)]),
            )
            .unwrap();
        let result = handle.wait().unwrap();

        let mut direct = StatevectorBackend::with_shots(1000);
        let (charged, free) = direct.evaluate(
            &circuit,
            &params,
            &InitialState::Basis(0),
            &h1,
            &[h2.as_ref()],
        );
        assert_eq!(result.charged.to_bits(), charged.to_bits());
        assert_eq!(result.free[0].to_bits(), free[0].to_bits());
        assert_eq!(result.shots, 1000 * h1.num_terms() as u64);
        assert_eq!(executor.shots_used(DEFAULT_BACKEND).unwrap(), result.shots);
        assert_eq!(handle.sequence(), Some(0));
    }

    #[test]
    fn validation_rejects_malformed_jobs_with_structured_errors() {
        let (circuit, params, h1, _) = demo_setup();
        let executor = Executor::single(StatevectorBackend::new());
        let client = executor.client();

        let wrong_params = EvalJob::new(
            Arc::clone(&circuit),
            vec![0.0; 3],
            InitialState::Basis(0),
            Arc::clone(&h1),
        );
        assert_eq!(
            client.submit(wrong_params).unwrap_err(),
            ExecError::ParameterCountMismatch {
                expected: circuit.num_parameters(),
                got: 3
            }
        );

        let wrong_op = EvalJob::new(
            Arc::clone(&circuit),
            params.clone(),
            InitialState::Basis(0),
            Arc::new(PauliOp::from_labels(2, &[("ZZ", 1.0)])),
        );
        assert_eq!(
            client.submit(wrong_op).unwrap_err(),
            ExecError::QubitCountMismatch {
                circuit: 3,
                operator: 2
            }
        );

        let empty = EvalJob::new(
            Arc::new(Circuit::new(3)),
            vec![],
            InitialState::Basis(0),
            Arc::clone(&h1),
        );
        assert_eq!(client.submit(empty).unwrap_err(), ExecError::EmptyCircuit);

        let bad_basis = EvalJob::new(
            Arc::clone(&circuit),
            params.clone(),
            InitialState::Basis(8),
            Arc::clone(&h1),
        );
        assert_eq!(
            client.submit(bad_basis).unwrap_err(),
            ExecError::BasisStateOutOfRange {
                basis: 8,
                num_qubits: 3
            }
        );

        let unknown = client.submit_with(
            EvalJob::new(circuit, params, InitialState::Basis(0), h1),
            &SubmitOptions {
                backend: Some("nope".into()),
                ..SubmitOptions::default()
            },
        );
        assert_eq!(
            unknown.unwrap_err(),
            ExecError::UnknownBackend("nope".into())
        );
    }

    #[test]
    fn capability_negotiation_selects_and_rejects() {
        let executor = Executor::builder()
            .register("exact", StatevectorBackend::new())
            .register(
                "sampled",
                SampledBackend::with_policy(128, SeedPolicy::new(7)),
            )
            .start();
        let shots_cap = BackendCaps {
            shots: true,
            ..BackendCaps::default()
        };
        assert_eq!(executor.find_backend(&shots_cap), Some("sampled".into()));
        assert!(executor.capabilities("exact").unwrap().batch);

        let (circuit, params, h1, _) = demo_setup();
        let client = executor.client();
        let err = client
            .submit_with(
                EvalJob::new(circuit, params, InitialState::Basis(0), h1),
                &SubmitOptions {
                    backend: Some("exact".into()),
                    require: shots_cap,
                    ..SubmitOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::MissingCapability {
                backend: "exact".into(),
                missing: "shots"
            }
        );
    }

    #[test]
    fn cancellation_only_succeeds_before_execution() {
        let (circuit, params, h1, _) = demo_setup();
        let executor = Executor::builder()
            .register(DEFAULT_BACKEND, StatevectorBackend::new())
            .paused()
            .start();
        let client = executor.client();
        let job = EvalJob::new(circuit, params, InitialState::Basis(0), h1);
        let keep = client.submit(job.clone()).unwrap();
        let cancel = client.submit(job).unwrap();
        assert!(cancel.cancel(), "a queued job must be cancellable");
        assert_eq!(cancel.wait().unwrap_err(), ExecError::Cancelled);
        executor.resume();
        let result = keep.wait().unwrap();
        assert!(result.charged.is_finite());
        assert!(!keep.cancel(), "a completed job must not be cancellable");
        assert_eq!(keep.sequence(), Some(0), "cancelled jobs consume no slot");
        assert_eq!(cancel.sequence(), None);
    }

    #[test]
    fn priority_overrides_submission_order() {
        let (circuit, params, h1, _) = demo_setup();
        let executor = Executor::builder()
            .register(DEFAULT_BACKEND, StatevectorBackend::new())
            .paused()
            .start();
        let client = executor.client();
        let job = EvalJob::new(circuit, params, InitialState::Basis(0), h1);
        let low = client.submit(job.clone()).unwrap();
        let high = client
            .submit_with(
                job,
                &SubmitOptions {
                    priority: 5,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        executor.resume();
        let _ = (low.wait().unwrap(), high.wait().unwrap());
        assert_eq!(high.sequence(), Some(0));
        assert_eq!(low.sequence(), Some(1));
    }

    #[test]
    fn shutdown_fails_queued_jobs_instead_of_hanging() {
        let (circuit, params, h1, _) = demo_setup();
        let executor = Executor::builder()
            .register(DEFAULT_BACKEND, StatevectorBackend::new())
            .paused()
            .start();
        let client = executor.client();
        let handle = client
            .submit(EvalJob::new(circuit, params, InitialState::Basis(0), h1))
            .unwrap();
        drop(executor);
        assert_eq!(handle.wait().unwrap_err(), ExecError::ShutDown);
    }

    #[test]
    fn reset_shots_clears_the_ledger_mirror() {
        let (circuit, params, h1, _) = demo_setup();
        let executor = Executor::single(StatevectorBackend::with_shots(64));
        let client = executor.client();
        client
            .submit(EvalJob::new(circuit, params, InitialState::Basis(0), h1))
            .unwrap()
            .wait()
            .unwrap();
        assert!(executor.shots_used(DEFAULT_BACKEND).unwrap() > 0);
        executor.wait_idle();
        executor.reset_shots(DEFAULT_BACKEND).unwrap();
        assert_eq!(executor.shots_used(DEFAULT_BACKEND).unwrap(), 0);
    }

    #[test]
    fn runner_improves_energy_and_reports_shots() {
        let ham = qchem::transverse_field_ising(3, 1.0, 0.5);
        let task = VqaTask::with_computed_reference("TFIM h=0.5", 0.5, ham);
        let ansatz = HardwareEfficientAnsatz::new(3, 2, Entanglement::Circular).build();
        let executor = Executor::single(StatevectorBackend::with_shots(128));
        let client = executor.client();
        let zeros = vec![0.0; ansatz.num_parameters()];
        let config = VqaRunConfig {
            max_iterations: 150,
            optimizer: qopt::OptimizerSpec::Spsa(qopt::SpsaConfig {
                a: 0.25,
                ..Default::default()
            }),
            seed: 5,
            record_every: 1,
        };
        let result = run_single_vqa(
            &task,
            &ansatz,
            &InitialState::Basis(0),
            &zeros,
            &client,
            &config,
        )
        .unwrap();
        let initial_energy = result.history.first().unwrap().exact_energy;
        assert!(result.best_energy < initial_energy, "no improvement");
        assert!(result.shots_used > 0);
        assert_eq!(result.history.len(), 150);
        assert_eq!(
            executor.shots_used(DEFAULT_BACKEND).unwrap(),
            result.shots_used
        );
        let fid = task.fidelity(result.best_energy).unwrap();
        assert!(fid > 0.8, "fidelity {fid}");
    }

    #[test]
    fn record_every_thins_history() {
        let ham = qchem::transverse_field_ising(3, 1.0, 0.4);
        let task = VqaTask::with_computed_reference("TFIM h=0.4", 0.4, ham);
        let ansatz = HardwareEfficientAnsatz::new(3, 2, Entanglement::Circular).build();
        let executor = Executor::single(StatevectorBackend::with_shots(16));
        let client = executor.client();
        let zeros = vec![0.0; ansatz.num_parameters()];
        let config = VqaRunConfig {
            max_iterations: 50,
            optimizer: qopt::OptimizerSpec::Spsa(qopt::SpsaConfig {
                a: 0.25,
                ..Default::default()
            }),
            seed: 5,
            record_every: 10,
        };
        let result = run_single_vqa(
            &task,
            &ansatz,
            &InitialState::Basis(0),
            &zeros,
            &client,
            &config,
        )
        .unwrap();
        assert!(result.history.len() <= 7);
        assert!(result
            .history
            .windows(2)
            .all(|w| w[1].cumulative_shots >= w[0].cumulative_shots));
    }

    #[test]
    fn baseline_runs_every_task_and_sums_shots() {
        let tasks: Vec<VqaTask> = [0.4, 0.5]
            .iter()
            .map(|&h| {
                VqaTask::with_computed_reference(
                    format!("TFIM h={h}"),
                    h,
                    qchem::transverse_field_ising(3, 1.0, h),
                )
            })
            .collect();
        let ansatz = HardwareEfficientAnsatz::new(3, 2, Entanglement::Circular).build();
        let app = vqa::VqaApplication::new("tfim-demo", tasks, ansatz, InitialState::Basis(0));
        let zeros = vec![0.0; app.num_parameters()];
        let config = VqaRunConfig {
            max_iterations: 60,
            optimizer: qopt::OptimizerSpec::Spsa(qopt::SpsaConfig {
                a: 0.25,
                ..Default::default()
            }),
            seed: 5,
            record_every: 1,
        };
        let result = run_baseline(&app, &zeros, &config, &mut |i| {
            Box::new(StatevectorBackend::with_shots(64 + i as u64))
        })
        .unwrap();
        assert_eq!(result.per_task.len(), 2);
        let sum: u64 = result.per_task.iter().map(|r| r.shots_used).sum();
        assert_eq!(result.total_shots, sum);
        assert_eq!(result.best_energies().len(), 2);
        // Different tasks get decorrelated optimizer seeds (results differ).
        assert_ne!(
            result.per_task[0].final_params, result.per_task[1].final_params,
            "per-task runs should not be identical"
        );
    }

    #[test]
    fn nested_pauses_require_matching_resumes() {
        let (circuit, params, h1, _) = demo_setup();
        let executor = Executor::single(StatevectorBackend::new());
        let client = executor.client();
        executor.pause();
        executor.pause();
        let handle = client
            .submit(EvalJob::new(circuit, params, InitialState::Basis(0), h1))
            .unwrap();
        executor.resume();
        // Still paused (depth 1): the job must not have run.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "one resume must not undo two pauses");
        executor.resume();
        assert!(handle.wait().unwrap().charged.is_finite());
    }

    #[test]
    fn client_slots_are_reclaimed_after_drop() {
        let (circuit, params, h1, _) = demo_setup();
        let executor = Executor::single(StatevectorBackend::new());
        for _ in 0..100 {
            let client = executor.client();
            client
                .submit(EvalJob::new(
                    Arc::clone(&circuit),
                    params.clone(),
                    InitialState::Basis(0),
                    Arc::clone(&h1),
                ))
                .unwrap()
                .wait()
                .unwrap();
        }
        // All 100 short-lived clients reused a handful of slots instead of growing the
        // executor's state per client ever created.
        executor.wait_idle();
        assert!(
            executor.client_slots() <= 4,
            "slots must be reused, got {}",
            executor.client_slots()
        );
        let probe = executor.client();
        let handle = probe
            .submit(EvalJob::new(circuit, params, InitialState::Basis(0), h1))
            .unwrap();
        assert!(handle.wait().unwrap().charged.is_finite());
    }

    #[test]
    fn runner_rejects_mismatched_initial_parameters() {
        let ham = qchem::transverse_field_ising(3, 1.0, 0.5);
        let task = VqaTask::new("t", 0.5, ham);
        let ansatz = HardwareEfficientAnsatz::new(3, 1, Entanglement::Linear).build();
        let executor = Executor::single(StatevectorBackend::new());
        let client = executor.client();
        let err = run_single_vqa(
            &task,
            &ansatz,
            &InitialState::Basis(0),
            &[0.0; 3],
            &client,
            &VqaRunConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::ParameterCountMismatch { .. }));
    }
}
