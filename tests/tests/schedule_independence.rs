//! Schedule-independence property suite: the `qexec` contract that **results are
//! bit-identical under any schedule**.
//!
//! Every job pins its own counter-based `qrng` stream, so nothing about the realized
//! execution — slate composition, submission interleaving, retries, failovers — may
//! change any result or the total number of RNG draws.  The properties here randomize
//! the submission order over a four-backend executor, for exact, sampled, and
//! noisy-trajectory backends, and demand bit-identical per-job results plus an
//! identical `qrng::total_draws` delta against the in-order baseline.  A further
//! scenario injects transient faults (rescued by retries) and a permanently dead
//! backend (rescued by failover) and demands the survivors still match the undisturbed
//! baseline bit-for-bit, and another pins the canonical grouping itself: the call
//! sequence each driver observes.
//!
//! The last two scenarios close the hole the small registers above leave open: on 12-
//! and 14-qubit registers (TFIM clusters) the *same* stream-pinned request must return
//! the same bits in a driver batch of 1, 8 and 17 and in executor slates of those sizes,
//! **and** at 1, 2 and 4 threads — batch size and thread count decide whether the dense
//! drivers run states side by side or one at a time, and neither may reach the result.

use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qexec::fault::{FaultKind, FaultPlan, FaultyBackend};
use qexec::{EvalJob, Executor, SeedPolicy, StreamId, SubmitOptions};
use qnoise::PauliNoiseModel;
use qop::PauliOp;
use std::sync::{Arc, Mutex};
use treevqa_tests::relational::{for_cases, Gen};
use vqa::{
    Backend, EvalRequest, InitialState, NoisyStatevectorBackend, SampledBackend, StatevectorBackend,
};

/// Every test in this binary serializes on this lock: the suite compares deltas of the
/// process-global `qrng::total_draws` counter, which concurrent sibling tests running
/// their own executors would pollute.
static SERIAL: Mutex<()> = Mutex::new(());

const BACKENDS: usize = 4;
const JOBS: usize = 12;

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

/// A boxed factory producing one identically configured backend per call.
type BackendFactory = Box<dyn Fn() -> Box<dyn Backend + Send>>;

/// The three backend families under test, as boxed factories so one scenario runner
/// covers them all.  Index `i` is the registration slot (all slots get identically
/// configured drivers, so failover between them preserves results).
fn backend_factories() -> Vec<(&'static str, BackendFactory)> {
    let model = PauliNoiseModel::ibm_like("sched-indep", 0.02, 0.05, 0.01, 0.01);
    vec![
        (
            "exact",
            Box::new(|| Box::new(StatevectorBackend::with_shots(64)) as Box<dyn Backend + Send>),
        ),
        (
            "sampled",
            Box::new(|| {
                Box::new(SampledBackend::with_policy(256, SeedPolicy::new(42)))
                    as Box<dyn Backend + Send>
            }),
        ),
        (
            "noisy-trajectory",
            Box::new(move || {
                Box::new(
                    NoisyStatevectorBackend::with_policy(model.clone(), 50, SeedPolicy::new(3))
                        .with_trajectories(5)
                        .with_shot_sampling(),
                ) as Box<dyn Backend + Send>
            }),
        ),
    ]
}

/// Job `i` of the scenario: parameters derived from `i`, pinned to its own named
/// stream (so its identity survives any submission order), targeted at backend
/// `i % BACKENDS`.
fn scenario_job(
    circuit: &Arc<Circuit>,
    charged: &Arc<PauliOp>,
    free: &Arc<PauliOp>,
    i: usize,
) -> EvalJob {
    let params: Vec<f64> = (0..circuit.num_parameters())
        .map(|p| 0.05 * p as f64 + 0.017 * i as f64)
        .collect();
    EvalJob::new(
        Arc::clone(circuit),
        params,
        InitialState::Basis(0),
        Arc::clone(charged),
    )
    .with_free_ops(vec![Arc::clone(free)])
    .with_rng_stream(StreamId::named(&format!("sched-indep-job{i}")))
}

/// One job's result, reduced to comparable bits.
type Bits = (u64, Vec<u64>, u64);

fn bits(r: &vqa::EvalResult) -> Bits {
    (
        r.charged.to_bits(),
        r.free.iter().map(|v| v.to_bits()).collect(),
        r.shots,
    )
}

/// Runs the standard scenario — `JOBS` stream-pinned jobs spread round-robin over
/// `BACKENDS` identically configured backends — submitting in `order`.  Returns
/// per-job result bits (indexed by job id, not submission position) and the run's
/// `qrng::total_draws` delta.
fn run_scenario(make: &dyn Fn() -> Box<dyn Backend + Send>, order: &[usize]) -> (Vec<Bits>, u64) {
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let mut builder = Executor::builder().paused();
    for b in 0..BACKENDS {
        builder = builder.register_boxed(format!("b{b}"), make());
    }
    let executor = builder.start();
    let client = executor.client();
    let draws_before = qrng::total_draws();
    let mut handles: Vec<Option<qexec::JobHandle>> = (0..JOBS).map(|_| None).collect();
    for &i in order {
        let job = scenario_job(&circuit, &charged, &free, i);
        let opts = SubmitOptions::new().backend(format!("b{}", i % BACKENDS));
        handles[i] = Some(client.submit_with(job, &opts).expect("well-formed job"));
    }
    executor.resume();
    let results: Vec<Bits> = handles
        .into_iter()
        .map(|h| {
            bits(
                &h.expect("every job submitted")
                    .wait()
                    .expect("job executes"),
            )
        })
        .collect();
    drop(executor);
    (results, qrng::total_draws() - draws_before)
}

/// A Fisher–Yates shuffle of `0..JOBS` drawn from `gen`.
fn shuffled_order(gen: &mut Gen) -> Vec<usize> {
    let mut order: Vec<usize> = (0..JOBS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, gen.below(i as u64 + 1) as usize);
    }
    order
}

/// Submission interleavings never change any result or the total number of RNG draws,
/// for every backend family.
#[test]
fn results_and_draw_counts_are_schedule_independent() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let in_order: Vec<usize> = (0..JOBS).collect();
    for_cases(0x5348_5546, 4, |_, gen| {
        let shuffled = shuffled_order(gen);
        for (family, make) in backend_factories() {
            let (baseline, baseline_draws) = run_scenario(make.as_ref(), &in_order);
            for order in [&in_order, &shuffled] {
                let (results, draws) = run_scenario(make.as_ref(), order);
                assert_eq!(
                    &results, &baseline,
                    "{family} results diverged at order={order:?}"
                );
                assert_eq!(
                    draws, baseline_draws,
                    "{family} draw count diverged at order={order:?}"
                );
            }
        }
    });
}

/// Retry and failover perturbations leave every surviving result bit-identical to the
/// undisturbed baseline: the re-executions reuse each job's pinned stream, and the
/// standby backends are configured identically — so supervision machinery is invisible
/// in the results.
#[test]
fn retries_and_failovers_do_not_disturb_results() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Injected faults unwind through catch_unwind by design; keep the log quiet.
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));

    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let in_order: Vec<usize> = (0..JOBS).collect();
    let make_clean = || {
        Box::new(SampledBackend::with_policy(256, SeedPolicy::new(42))) as Box<dyn Backend + Send>
    };
    let (baseline, _) = run_scenario(&make_clean, &in_order);

    let mut builder = Executor::builder().paused();
    for b in 0..BACKENDS {
        // b0's first batch faults transiently (rescued by the retry budget); b3 is
        // permanently dead, including its canary probes (rescued by failover).
        let plan = match b {
            0 => FaultPlan::new(1).with_fault_at(0, Some(FaultKind::Transient)),
            3 => FaultPlan::new(2).with_panic_rate(1.0),
            _ => FaultPlan::new(3),
        };
        builder = builder.register_boxed(
            format!("b{b}"),
            Box::new(FaultyBackend::new(
                SampledBackend::with_policy(256, SeedPolicy::new(42)),
                plan,
            )),
        );
    }
    let executor = builder.start();
    let client = executor.client();
    let mut handles = Vec::new();
    for i in 0..JOBS {
        let job = scenario_job(&circuit, &charged, &free, i);
        let opts = SubmitOptions::new()
            .backend(format!("b{}", i % BACKENDS))
            .retries(2)
            .failover(true);
        handles.push(client.submit_with(job, &opts).expect("well-formed job"));
    }
    executor.resume();
    for (i, handle) in handles.iter().enumerate() {
        let r = handle.wait().expect("retries/failover rescue every job");
        assert_eq!(
            bits(&r),
            baseline[i],
            "job {i} diverged from the undisturbed baseline"
        );
    }
    let stats = executor.stats();
    assert!(stats.retries > 0, "the transient fault should have retried");
    assert!(
        stats.failovers > 0,
        "the dead backend should have failed over"
    );
}

/// One driver call, as a [`RecordingBackend`] saw it: jobs are identified by their
/// first parameter, which [`grouping_job`] sets to the job id.
#[derive(Clone, Debug, PartialEq)]
enum Call {
    Batch(Vec<usize>),
    Probe(usize),
}

/// An exact backend that logs the shape of every call the executor makes on it.
struct RecordingBackend {
    inner: StatevectorBackend,
    log: Arc<Mutex<Vec<Call>>>,
}

impl Backend for RecordingBackend {
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>) {
        self.inner
            .evaluate(circuit, params, initial, charged_op, free_ops)
    }

    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<vqa::EvalResult> {
        let ids = requests.iter().map(|r| r.params[0] as usize).collect();
        self.log.lock().unwrap().push(Call::Batch(ids));
        self.inner.evaluate_batch(requests)
    }

    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64 {
        self.log
            .lock()
            .unwrap()
            .push(Call::Probe(params[0] as usize));
        self.inner.probe(circuit, params, initial, op)
    }

    fn shots_used(&self) -> u64 {
        self.inner.shots_used()
    }

    fn reset_shots(&mut self) {
        self.inner.reset_shots();
    }

    fn shots_per_pauli(&self) -> u64 {
        self.inner.shots_per_pauli()
    }

    fn name(&self) -> &'static str {
        "recording"
    }
}

/// Job `i` of the grouping scenario: its id rides in the first parameter.
fn grouping_job(circuit: &Arc<Circuit>, charged: &Arc<PauliOp>, i: usize) -> EvalJob {
    let mut params = vec![0.1; circuit.num_parameters()];
    params[0] = i as f64;
    EvalJob::new(
        Arc::clone(circuit),
        params,
        InitialState::Basis(0),
        Arc::clone(charged),
    )
}

/// The canonical grouping, stated as the call sequence a driver observes: whatever the
/// submission order, each backend of a slate receives **one** `evaluate_batch` holding
/// its evaluation jobs in slate order, then its probes one by one in slate order.
#[test]
fn each_driver_sees_one_batch_then_its_probes_in_slate_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let circuit = demo_circuit(3);
    let (charged, _) = demo_ops(3);
    // Every third job is a probe, so each backend gets a mix of both kinds.
    let is_probe = |i: usize| i % 3 == 2;
    let in_order: Vec<usize> = (0..JOBS).collect();
    for order in [in_order, shuffled_order(&mut Gen::new(0xC0FFEE))] {
        let logs: Vec<Arc<Mutex<Vec<Call>>>> = (0..BACKENDS).map(|_| Arc::default()).collect();
        let mut builder = Executor::builder().paused();
        for (b, log) in logs.iter().enumerate() {
            builder = builder.register(
                format!("b{b}"),
                RecordingBackend {
                    inner: StatevectorBackend::with_shots(64),
                    log: Arc::clone(log),
                },
            );
        }
        let executor = builder.start();
        let client = executor.client();
        let handles: Vec<_> = order
            .iter()
            .map(|&i| {
                let job = grouping_job(&circuit, &charged, i);
                let opts = SubmitOptions::new().backend(format!("b{}", i % BACKENDS));
                if is_probe(i) {
                    client.submit_probe_with(job, &opts)
                } else {
                    client.submit_with(job, &opts)
                }
                .expect("well-formed job")
            })
            .collect();
        executor.resume();
        for handle in &handles {
            handle.wait().expect("job executes");
        }
        for (b, log) in logs.iter().enumerate() {
            // One client, so slate order is submission order.
            let mine = || order.iter().copied().filter(move |i| i % BACKENDS == b);
            let mut expected = vec![Call::Batch(mine().filter(|&i| !is_probe(i)).collect())];
            expected.extend(mine().filter(|&i| is_probe(i)).map(Call::Probe));
            assert_eq!(
                *log.lock().unwrap(),
                expected,
                "backend b{b} saw a different call sequence for submission order {order:?}"
            );
        }
    }
}

/// The register sizes of the last two scenarios, one on each side of the default
/// `qop::par::map_states` threshold (2^14 amplitudes in a chunk): at 12 qubits a batch of
/// one runs on the calling thread and a batch of ≥ 4 is spread over the threads, at 14
/// qubits any two rollouts are.
const BIG_QUBITS: [usize; 2] = [12, 14];
const BATCH_SIZES: [usize; 3] = [1, 8, 17];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// The TFIM cluster shape: a charged mixed Hamiltonian and two members over the same
/// `2n − 1` strings.
fn tfim_cluster(num_qubits: usize) -> (Arc<PauliOp>, Vec<Arc<PauliOp>>) {
    let member = |h: f64| qchem::transverse_field_ising(num_qubits, 1.0, h);
    let (a, b) = (member(0.6), member(1.1));
    let mixed = PauliOp::mixed(&[&a, &b]);
    (Arc::new(mixed), vec![Arc::new(a), Arc::new(b)])
}

fn with_threads(threads: usize, body: impl FnOnce()) {
    let configure = |n| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("the vendored pool accepts reconfiguration")
    };
    configure(threads);
    body();
    // 0 = back to RAYON_NUM_THREADS / the host's core count.
    configure(0);
}

/// The same request returns the same bits in a driver batch of 1, 8 and 17 and at
/// every thread count, for every backend family.
#[test]
fn results_do_not_depend_on_batch_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for num_qubits in BIG_QUBITS {
        let circuit = demo_circuit(num_qubits);
        let (charged, free) = tfim_cluster(num_qubits);
        let free_refs: Vec<&PauliOp> = free.iter().map(|op| op.as_ref()).collect();
        let params: Vec<f64> = (0..circuit.num_parameters())
            .map(|p| 0.05 * p as f64 + 0.3)
            .collect();
        let request = EvalRequest {
            circuit: &circuit,
            params: &params,
            initial: &InitialState::Basis(0),
            charged_op: &charged,
            free_ops: &free_refs,
            stream: Some(StreamId::named("batch-size")),
        };
        for (family, make) in backend_factories() {
            // (threads, batch size, bits) of every result, compared across all of them.
            let mut seen: Vec<(usize, usize, Bits)> = Vec::new();
            for threads in THREAD_COUNTS {
                with_threads(threads, || {
                    for size in BATCH_SIZES {
                        let results = make().evaluate_batch(&vec![request; size]);
                        assert_eq!(results.len(), size);
                        seen.extend(results.iter().map(|r| (threads, size, bits(r))));
                    }
                });
            }
            let odd = seen.iter().find(|other| other.2 != seen[0].2);
            assert!(
                odd.is_none(),
                "{family} at {num_qubits} qubits: the request's bits depend on the \
                 (threads, batch size) it was evaluated at: {:x?} vs {odd:x?}",
                seen[0]
            );
        }
    }
}

/// The same job returns the same bits whatever the size of the executor slate it was
/// coalesced into and whatever the thread count.
#[test]
fn results_do_not_depend_on_slate_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for num_qubits in BIG_QUBITS {
        let circuit = demo_circuit(num_qubits);
        let (charged, free) = tfim_cluster(num_qubits);
        let params: Vec<f64> = (0..circuit.num_parameters())
            .map(|p| 0.05 * p as f64 + 0.3)
            .collect();
        for (family, make) in backend_factories() {
            let mut seen: Vec<(usize, usize, Bits)> = Vec::new();
            for threads in THREAD_COUNTS {
                with_threads(threads, || {
                    for size in BATCH_SIZES {
                        let executor = Executor::builder()
                            .paused()
                            .register_boxed("b0", make())
                            .start();
                        let client = executor.client();
                        let handles: Vec<_> = (0..size)
                            .map(|_| {
                                let job = EvalJob::new(
                                    Arc::clone(&circuit),
                                    params.clone(),
                                    InitialState::Basis(0),
                                    Arc::clone(&charged),
                                )
                                .with_free_ops(free.clone())
                                .with_rng_stream(StreamId::named("slate-size"));
                                client.submit(job).expect("well-formed job")
                            })
                            .collect();
                        executor.resume();
                        for handle in handles {
                            let result = handle.wait().expect("job executes");
                            seen.push((threads, size, bits(&result)));
                        }
                    }
                });
            }
            let odd = seen.iter().find(|other| other.2 != seen[0].2);
            assert!(
                odd.is_none(),
                "{family} at {num_qubits} qubits: the job's bits depend on the \
                 (threads, slate size) it ran at: {:x?} vs {odd:x?}",
                seen[0]
            );
        }
    }
}
