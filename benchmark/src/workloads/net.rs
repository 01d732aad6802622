//! The two workloads that load the wire: an in-process `NetServer` over one executor,
//! two `NetClient` connections driven from two threads.
//!
//! `base_lih6_net2` is bound by serving latency (a 64-amplitude job is a microsecond
//! or two of kernel; each 2-job SPSA phase is codec + socket + thread hand-offs);
//! `slate_hea6_net2` pushes 64-job batch frames through the same layers for throughput.
//! A change that trades one for the other shows as a gain on one and a loss on the other.

use super::{
    tasks_with_references, timed, Checks, Outcome, Prepared, Scale, Setup, SetupTimes, Timeline,
    TraceData, NET_CONNECTIONS,
};
use crate::stats::Interval;
use crate::wrappers::{DriverLog, TimedBackend, TimedSubmitter, WaitKind, WaitLog};
use qcircuit::Circuit;
use qexec::{
    CompletionHandle, EvalJob, Executor, JobSubmitter, SeedPolicy, StreamId, DEFAULT_BACKEND,
};
use qnet::{NetClient, NetServer};
use qop::PauliOp;
use qopt::OptimizerSpec;
use std::sync::{Arc, Barrier, Mutex};
use vqa::{
    Backend, InitialState, SampledBackend, StatevectorBackend, VqaRunConfig, VqaRunResult, VqaTask,
};

const SHOTS_PER_PAULI: u64 = 4096;

/// The serving stack both workloads share: executor, server, connections, driver log.
struct Rig {
    server: NetServer,
    clients: Vec<NetClient>,
    log: Arc<Mutex<DriverLog>>,
    last: LastRun,
}

/// What the rig observed around its last run.
#[derive(Default)]
struct LastRun {
    /// Per client thread.
    timelines: Vec<Timeline>,
    /// Executor `(retries, slates)` over the run.
    exec_delta: (u64, u64),
    /// Server counters over the run.
    net_delta: Vec<(&'static str, u64)>,
}

impl Rig {
    /// Backend behind an executor behind a server on an OS-assigned loopback port, two
    /// connections, and one warm-up evaluation through the first of them.
    fn start(
        backend: Box<dyn Backend + Send>,
        setup: Setup,
        expected_jobs: usize,
        capture_every: u64,
        warm_up: EvalJob,
    ) -> Rig {
        // One driver call per 2-job phase at worst.
        let log = if setup.tracing {
            DriverLog::traced(expected_jobs, capture_every)
        } else {
            DriverLog::untraced()
        };
        let executor = Executor::builder()
            .register(
                DEFAULT_BACKEND,
                TimedBackend::new(backend, Arc::clone(&log)),
            )
            .observability(setup.tracing)
            .obs_ring_capacity(2 * expected_jobs + 4096)
            .start();
        let server = NetServer::builder(Arc::new(executor))
            .observability(setup.tracing)
            .bind("127.0.0.1:0")
            .expect("binding a loopback port");
        let clients: Vec<NetClient> = (0..NET_CONNECTIONS)
            .map(|_| NetClient::connect(server.local_addr()).expect("connecting over loopback"))
            .collect();
        clients[0]
            .submit(warm_up)
            .and_then(|handle| handle.wait())
            .expect("the warm-up evaluation of a well-formed job");
        log.lock().expect("driver log poisoned").clear();
        Rig {
            server,
            clients,
            log,
            last: LastRun::default(),
        }
    }

    fn counters(&self) -> ((u64, u64), Vec<(&'static str, u64)>) {
        let executor = self.server.executor();
        (
            (
                executor.stats().retries,
                executor.observability().labeled().get("worker0_slates"),
            ),
            self.server.observability().counters().snapshot(),
        )
    }

    /// Runs `client_loop(thread, connection)` on one thread per connection, released
    /// together: the timed section of both net workloads.
    fn run_clients<T: Send>(
        &self,
        client_loop: impl Fn(usize, &NetClient) -> (T, WaitLog) + Sync,
    ) -> (Vec<T>, ClientRun) {
        let (exec_before, net_before) = self.counters();
        let draws_before = qrng::total_draws();
        let barrier = Barrier::new(self.clients.len());
        let start = qobs::now_ns();
        let per_thread: Vec<(Interval, T, WaitLog)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .enumerate()
                .map(|(thread, client)| {
                    let (barrier, client_loop) = (&barrier, &client_loop);
                    scope.spawn(move || {
                        barrier.wait();
                        let start = qobs::now_ns();
                        let (value, log) = client_loop(thread, client);
                        (Interval::new(start, qobs::now_ns()), value, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let run = Interval::new(start, qobs::now_ns());
        let draws = qrng::total_draws() - draws_before;
        let (exec_after, net_after) = self.counters();
        let mut values = Vec::new();
        let mut threads = Vec::new();
        for (span, value, log) in per_thread {
            values.push(value);
            threads.push((span, log));
        }
        let client_run = ClientRun {
            run,
            draws,
            threads,
            exec_delta: (exec_after.0 - exec_before.0, exec_after.1 - exec_before.1),
            net_delta: net_after
                .iter()
                .zip(&net_before)
                .map(|(&(name, after), &(_, before))| (name, after - before))
                .collect(),
        };
        (values, client_run)
    }

    /// Turns what the client threads logged into the run's [`Outcome`], and keeps their
    /// timelines and the counter deltas for [`Rig::finish`].
    fn conclude(&mut self, client_run: ClientRun, checks: Checks) -> Outcome {
        let ClientRun {
            run,
            draws,
            threads,
            exec_delta,
            net_delta,
        } = client_run;
        let (mut charged_jobs, mut probe_jobs, mut jobs_failed) = (0, 0, 0);
        let mut wait_ns = Vec::new();
        for (_, log) in &threads {
            for wait in &log.waits {
                match wait.kind {
                    WaitKind::Group => {
                        charged_jobs += u64::from(wait.size);
                        wait_ns.push(wait.at.len());
                    }
                    WaitKind::Single => probe_jobs += 1,
                }
            }
            jobs_failed += log.jobs_failed;
        }
        self.last = LastRun {
            timelines: threads
                .into_iter()
                .map(|(span, log)| Timeline {
                    span,
                    waits: log.waits,
                })
                .collect(),
            exec_delta,
            net_delta,
        };
        Outcome {
            run,
            charged_jobs,
            probe_jobs,
            jobs_failed,
            wait_ns,
            draws,
            tree: None,
            checks,
        }
    }

    /// Closes the connections, shuts the server down (joining its threads), stops the
    /// executor, and hands over what was recorded.
    fn finish(self, sampled_shots: u64, wire_group: usize) -> TraceData {
        drop(self.clients);
        self.server.shutdown();
        let registry = self.server.executor().observability();
        let jobs = registry.spans().recorded();
        let spans_dropped = registry.spans().dropped();
        drop(self.server);
        let driver = std::mem::take(&mut *self.log.lock().expect("driver log poisoned"));
        TraceData {
            timelines: self.last.timelines,
            jobs,
            spans_dropped,
            exec_retries: self.last.exec_delta.0,
            exec_slates: self.last.exec_delta.1,
            driver,
            net_counters: self.last.net_delta,
            noise: None,
            sampled_shots,
            wire_group,
        }
    }
}

/// What the harness observed around one timed section of a net workload.
struct ClientRun {
    /// The `workload.run` span.
    run: Interval,
    /// `qrng::total_draws` delta over it.
    draws: u64,
    /// Each client thread's own span and wait log.
    threads: Vec<(Interval, WaitLog)>,
    exec_delta: (u64, u64),
    net_delta: Vec<(&'static str, u64)>,
}

// ---------------------------------------------------------------------------------
// base_lih6_net2
// ---------------------------------------------------------------------------------

/// LiH geometries, 10 per connection.
const BASE_TASKS: usize = 20;
const BASE_RECORD_EVERY: usize = 10;
/// History rows of task 0 compared with an in-process run.
const BASE_COMPARED_ROWS: usize = 500;

/// The conventional baseline over the wire: every task its own
/// `qexec::run_single_vqa`, default SPSA, shot-sampled backend.
pub struct BaseWorkload {
    setup: Setup,
    times: SetupTimes,
    iterations: usize,
    tasks: Vec<VqaTask>,
    ansatz: Circuit,
    initial: InitialState,
    rig: Rig,
}

impl BaseWorkload {
    pub fn prepare(setup: Setup) -> Self {
        let iterations = match setup.scale {
            Scale::Full => 2000,
            Scale::Smoke => 200,
        };
        let mut times = SetupTimes::default();
        let molecule = qchem::MoleculeSpec::lih();
        let hamiltonians = timed(&mut times.qchem_build_s, || molecule.tasks(BASE_TASKS));
        let tasks = tasks_with_references(
            hamiltonians
                .into_iter()
                .map(|(bond, op)| (format!("LiH r={bond:.3}"), bond, op))
                .collect(),
            &mut times,
        );
        let mut build_s = 0.0;
        let ansatz = timed(&mut build_s, || {
            qcircuit::HardwareEfficientAnsatz::new(
                molecule.num_qubits,
                2,
                qcircuit::Entanglement::Circular,
            )
            .build()
        });
        times.qcircuit_build_us = build_s * 1e6;
        let initial = InitialState::Basis(molecule.hartree_fock_state());

        let expected_jobs = BASE_TASKS * (2 * iterations + iterations / BASE_RECORD_EVERY + 16);
        let warm_up = EvalJob::new(
            Arc::new(ansatz.clone()),
            vec![0.0; ansatz.num_parameters()],
            initial,
            Arc::new(tasks[0].hamiltonian.clone()),
        );
        let rig = Rig::start(
            Self::backend(setup.seed),
            setup,
            expected_jobs,
            (expected_jobs / 256).max(1) as u64,
            warm_up,
        );
        BaseWorkload {
            setup,
            times,
            iterations,
            tasks,
            ansatz,
            initial,
            rig,
        }
    }

    fn backend(seed: u64) -> Box<dyn Backend + Send> {
        Box::new(SampledBackend::with_policy(
            SHOTS_PER_PAULI,
            SeedPolicy::new(seed),
        ))
    }

    /// One task through `submitter`, its jobs pinned to streams that depend on the
    /// task and the job's index within it only.
    fn run_task<S: JobSubmitter>(
        &self,
        task: usize,
        submitter: &S,
    ) -> (Result<VqaRunResult, qexec::ExecError>, WaitLog) {
        let timed = TimedSubmitter::new(
            submitter,
            StreamId::named("base_lih6_net2").substream(task as u64),
            self.iterations + self.iterations / BASE_RECORD_EVERY + 4,
        );
        let config = VqaRunConfig {
            max_iterations: self.iterations,
            optimizer: OptimizerSpec::default_spsa(),
            seed: qrng::mix(self.setup.seed, task as u64),
            record_every: BASE_RECORD_EVERY,
        };
        let result = qexec::run_single_vqa(
            &self.tasks[task],
            &self.ansatz,
            &self.initial,
            &vec![0.0; self.ansatz.num_parameters()],
            &timed,
            &config,
        );
        (result, timed.take_log())
    }

    fn check(&self, results: &[Vec<Result<VqaRunResult, qexec::ExecError>>], checks: &mut Checks) {
        let shots_per_job = SHOTS_PER_PAULI * self.tasks[0].hamiltonian.num_terms() as u64;
        let per_thread = BASE_TASKS / NET_CONNECTIONS;
        for (thread, thread_results) in results.iter().enumerate() {
            for (slot, result) in thread_results.iter().enumerate() {
                let task = &self.tasks[thread * per_thread + slot];
                match result {
                    Ok(run) => {
                        let reference = task.reference_energy.expect("set-up computed it");
                        checks.check(run.best_energy >= reference - 1e-9, || {
                            format!("{}: energy {} below exact", task.label, run.best_energy)
                        });
                        checks.check(run.shots_used % shots_per_job == 0, || {
                            format!("{}: shots are not a whole number of jobs", task.label)
                        });
                    }
                    Err(error) => checks.check(false, || format!("{}: {error}", task.label)),
                }
            }
        }
        // The wire must not change a bit: task 0 again, in-process, on a fresh backend
        // with the same seed policy and the same stream pins.
        let local = Executor::single_boxed(Self::backend(self.setup.seed));
        let (reference, _) = self.run_task(0, &local.client());
        let same = match (&results[0][0], &reference) {
            (Ok(remote), Ok(local)) => {
                let rows = remote.history.len().min(BASE_COMPARED_ROWS);
                rows > 0
                    && local.history.len() >= rows
                    && remote.history[..rows]
                        .iter()
                        .zip(&local.history[..rows])
                        .all(|(a, b)| {
                            a.iteration == b.iteration
                                && a.cumulative_shots == b.cumulative_shots
                                && a.loss.to_bits() == b.loss.to_bits()
                                && a.exact_energy.to_bits() == b.exact_energy.to_bits()
                                && a.best_energy.to_bits() == b.best_energy.to_bits()
                        })
            }
            _ => false,
        };
        checks.check(same, || {
            "task 0 over the wire differs from the in-process run".to_string()
        });
    }
}

impl Prepared for BaseWorkload {
    fn setup_times(&self) -> SetupTimes {
        self.times
    }

    fn run(&mut self) -> Outcome {
        let per_thread = BASE_TASKS / NET_CONNECTIONS;
        let (results, client_run) = self.rig.run_clients(|thread, client| {
            let mut results = Vec::with_capacity(per_thread);
            let mut merged = WaitLog::default();
            for slot in 0..per_thread {
                let (result, log) = self.run_task(thread * per_thread + slot, client);
                results.push(result);
                merged.waits.extend(log.waits);
                merged.jobs_failed += log.jobs_failed;
            }
            (results, merged)
        });
        let mut checks = Checks::default();
        self.check(&results, &mut checks);
        self.rig.conclude(client_run, checks)
    }

    fn direct_layer_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "qopt.step_us",
            super::tree::spsa_step_us(self.ansatz.num_parameters(), self.setup.seed),
        )]
    }

    fn shot_reduction(&self, _outcome: &Outcome) -> Option<f64> {
        None
    }

    fn finish(self: Box<Self>) -> TraceData {
        self.rig.finish(SHOTS_PER_PAULI, 2)
    }
}

// ---------------------------------------------------------------------------------
// slate_hea6_net2
// ---------------------------------------------------------------------------------

const SLATE_QUBITS: usize = 6;
/// Jobs per `submit_group`.
const SLATE_GROUP: usize = 64;

/// Batch frames for throughput: each thread submits a 64-job group and waits for all
/// of it before the next.
pub struct SlateWorkload {
    setup: Setup,
    times: SetupTimes,
    rounds: usize,
    circuit: Arc<Circuit>,
    hamiltonian: Arc<PauliOp>,
    base_params: Vec<f64>,
    rig: Rig,
}

/// One job of each group, kept to be recomputed directly after the run.
struct SlateSample {
    params: Vec<f64>,
    charged: f64,
}

impl SlateWorkload {
    pub fn prepare(setup: Setup) -> Self {
        let rounds = match setup.scale {
            Scale::Full => 2500,
            Scale::Smoke => 100,
        };
        let mut times = SetupTimes::default();
        let mut build_s = 0.0;
        let circuit = timed(&mut build_s, || {
            qcircuit::HardwareEfficientAnsatz::new(
                SLATE_QUBITS,
                2,
                qcircuit::Entanglement::Circular,
            )
            .build()
        });
        times.qcircuit_build_us = build_s * 1e6;
        let hamiltonian = treevqa_bench::workloads::tfim_hamiltonian(SLATE_QUBITS);
        let base_params = treevqa_bench::workloads::ansatz_params(&circuit);
        let (circuit, hamiltonian) = (Arc::new(circuit), Arc::new(hamiltonian));
        let expected_jobs = NET_CONNECTIONS * rounds * SLATE_GROUP;
        let warm_up = EvalJob::new(
            Arc::clone(&circuit),
            base_params.clone(),
            InitialState::Basis(0),
            Arc::clone(&hamiltonian),
        );
        let rig = Rig::start(
            Box::new(StatevectorBackend::with_shots(SHOTS_PER_PAULI)),
            setup,
            expected_jobs,
            (expected_jobs / 256).max(1) as u64,
            warm_up,
        );
        SlateWorkload {
            setup,
            times,
            rounds,
            circuit,
            hamiltonian,
            base_params,
            rig,
        }
    }

    /// The parameters of job `index` of `thread`: the base binding plus a seeded jitter.
    /// `qrng::mix` is used directly (not a `CounterRng`) so the harness's own draws do
    /// not count into the product's `qrng::total_draws`.
    fn jittered(&self, thread: usize, index: u64) -> Vec<f64> {
        let key = qrng::mix(self.setup.seed, thread as u64);
        let width = self.base_params.len() as u64;
        self.base_params
            .iter()
            .enumerate()
            .map(|(i, base)| {
                let bits = qrng::mix(key, index * width + i as u64);
                base + 0.05 * ((bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            })
            .collect()
    }

    fn job(&self, params: Vec<f64>) -> EvalJob {
        EvalJob::new(
            Arc::clone(&self.circuit),
            params,
            InitialState::Basis(0),
            Arc::clone(&self.hamiltonian),
        )
    }
}

impl Prepared for SlateWorkload {
    fn setup_times(&self) -> SetupTimes {
        self.times
    }

    fn run(&mut self) -> Outcome {
        let (samples, client_run) = self.rig.run_clients(|thread, client| {
            let timed = TimedSubmitter::new(
                client,
                StreamId::named("slate_hea6_net2").substream(thread as u64),
                self.rounds,
            );
            let mut samples = Vec::with_capacity(self.rounds);
            for round in 0..self.rounds {
                let first = (round * SLATE_GROUP) as u64;
                let kept = round % SLATE_GROUP;
                let jobs: Vec<EvalJob> = (0..SLATE_GROUP as u64)
                    .map(|j| self.job(self.jittered(thread, first + j)))
                    .collect();
                let kept_params = jobs[kept].params.clone();
                // A refused group resolves nothing; it is counted as 64 failed jobs.
                match timed.submit_job_group(jobs) {
                    Ok(handles) => {
                        for (j, handle) in handles.iter().enumerate() {
                            if let (Ok(result), true) = (handle.wait(), j == kept) {
                                samples.push(SlateSample {
                                    params: kept_params.clone(),
                                    charged: result.charged,
                                });
                            }
                        }
                    }
                    Err(_) => {
                        let mut log = timed.take_log();
                        log.jobs_failed += SLATE_GROUP as u64;
                        return (samples, log);
                    }
                }
            }
            (samples, timed.take_log())
        });
        let mut checks = Checks::default();
        // One job in 64, recomputed by a direct driver call, must agree bit for bit.
        let mut direct = StatevectorBackend::with_shots(SHOTS_PER_PAULI);
        let mismatches = samples
            .iter()
            .flatten()
            .filter(|sample| {
                let (charged, _) = direct.evaluate(
                    &self.circuit,
                    &sample.params,
                    &InitialState::Basis(0),
                    &self.hamiltonian,
                    &[],
                );
                charged.to_bits() != sample.charged.to_bits()
            })
            .count();
        let sampled: usize = samples.iter().map(Vec::len).sum();
        checks.check(
            mismatches == 0 && sampled == NET_CONNECTIONS * self.rounds,
            || format!("{mismatches} of {sampled} sampled jobs differ from a direct evaluation"),
        );
        let mut outcome = self.rig.conclude(client_run, checks);
        let expected = (NET_CONNECTIONS * self.rounds * SLATE_GROUP) as u64;
        let (resolved, failed) = (outcome.charged_jobs, outcome.jobs_failed);
        outcome
            .checks
            .check(resolved == expected && failed == 0, || {
                format!("{resolved} of {expected} handles resolved, {failed} with an error")
            });
        outcome
    }

    fn direct_layer_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn shot_reduction(&self, _outcome: &Outcome) -> Option<f64> {
        None
    }

    fn finish(self: Box<Self>) -> TraceData {
        self.rig.finish(0, SLATE_GROUP)
    }
}
