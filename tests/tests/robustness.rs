//! Robustness suite for the `qexec` service: queue-slot churn, admission control and
//! backpressure, deadlines and timeouts, and shutdown/cancellation races.
//!
//! These tests exercise the fault-tolerance contract *without* injected driver faults
//! (see `fault_injection.rs` for those): every handle must resolve to a structured
//! result, bounded queues must refuse or shed exactly as their policy says, and the
//! executor's slot table must stay bounded by the peak number of simultaneously live
//! clients, not by how many were ever created.  CI runs this suite under
//! `RAYON_NUM_THREADS ∈ {1, 2, 4}` alongside the determinism suite.

use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qexec::{AdmissionPolicy, EvalJob, ExecError, Executor, JobHandle, Priority, SubmitOptions};
use qop::PauliOp;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqa::{InitialState, StatevectorBackend};

fn demo_circuit(num_qubits: usize) -> Arc<Circuit> {
    Arc::new(HardwareEfficientAnsatz::new(num_qubits, 1, Entanglement::Linear).build())
}

fn demo_op(num_qubits: usize) -> Arc<PauliOp> {
    let mut label = String::from("Z");
    while label.len() < num_qubits {
        label.push('I');
    }
    Arc::new(PauliOp::from_labels(num_qubits, &[(label.as_str(), 1.0)]))
}

fn demo_job(circuit: &Arc<Circuit>, op: &Arc<PauliOp>, salt: usize) -> EvalJob {
    let params: Vec<f64> = (0..circuit.num_parameters())
        .map(|i| 0.03 * i as f64 + 0.017 * salt as f64)
        .collect();
    EvalJob::new(
        Arc::clone(circuit),
        params,
        InitialState::Basis(0),
        Arc::clone(op),
    )
}

fn priority_opts(priority: Priority) -> SubmitOptions {
    SubmitOptions {
        priority,
        ..SubmitOptions::default()
    }
}

// ---------------------------------------------------------------------------
// Queue-slot churn
// ---------------------------------------------------------------------------

/// Hundreds of sequential short-lived clients must not grow the slot table: each
/// dropped client's slot is reused once its jobs drain, so `client_slots()` stays
/// bounded by the peak number of simultaneously live clients.
#[test]
fn sequential_client_churn_keeps_slot_table_bounded() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::single(StatevectorBackend::new());
    for round in 0..300 {
        let handles: Vec<JobHandle> = {
            let client = executor.client();
            (0..2)
                .map(|j| {
                    client
                        .submit(demo_job(&circuit, &op, round * 2 + j))
                        .unwrap()
                })
                .collect()
            // `client` drops here with jobs possibly still queued: the slot must be
            // retired and reclaimed once they drain, never leaked.
        };
        for handle in &handles {
            handle.wait().expect("churned job completes");
        }
    }
    executor.wait_idle();
    assert!(
        executor.client_slots() <= 8,
        "300 short-lived clients leaked queue slots: {} allocated",
        executor.client_slots()
    );
}

/// Concurrent churn: slots are bounded by simultaneous liveness even when many threads
/// create and drop clients at once, and no submitted job is orphaned.
#[test]
fn concurrent_client_churn_keeps_slot_table_bounded() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Arc::new(Executor::single(StatevectorBackend::new()));
    let threads = 8;
    let rounds = 40;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let executor = Arc::clone(&executor);
            let circuit = Arc::clone(&circuit);
            let op = Arc::clone(&op);
            scope.spawn(move || {
                for round in 0..rounds {
                    let handle = {
                        let client = executor.client();
                        client
                            .submit(demo_job(&circuit, &op, t * rounds + round))
                            .unwrap()
                    };
                    handle.wait().expect("churned job completes");
                }
            });
        }
    });
    executor.wait_idle();
    assert!(
        executor.client_slots() <= 4 * threads,
        "concurrent churn leaked queue slots: {} allocated for {} peak clients",
        executor.client_slots(),
        threads
    );
}

// ---------------------------------------------------------------------------
// Admission control & backpressure
// ---------------------------------------------------------------------------

/// `Reject` is the default policy: a full global queue fails the submission with
/// `Overloaded` immediately, already-accepted jobs are unaffected, and the rejection
/// counter records every refusal.  Two bursts into a paused executor: 8 into a queue of
/// 4, and the fixed overload scenario of 256 into 64.
#[test]
fn reject_policy_fails_submissions_beyond_capacity() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    for (capacity, submitted) in [(4, 8), (64, 256)] {
        let executor = Executor::builder()
            .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
            .queue_capacity(capacity)
            .paused()
            .start();
        let client = executor.client();
        let handles: Vec<JobHandle> = (0..capacity)
            .map(|j| client.submit(demo_job(&circuit, &op, j)).unwrap())
            .collect();
        for j in capacity..submitted {
            assert_eq!(
                client.submit(demo_job(&circuit, &op, j)).unwrap_err(),
                ExecError::Overloaded,
                "submission {j} should bounce off the full queue of {capacity}"
            );
        }
        assert_eq!(executor.stats().rejected, (submitted - capacity) as u64);
        executor.resume();
        for handle in &handles {
            handle.wait().expect("accepted jobs still complete");
        }
    }
}

/// The per-client bound is independent of the global one: one client saturating its own
/// queue cannot block a second client from being admitted.
#[test]
fn per_client_capacity_is_isolated_per_client() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .per_client_capacity(2)
        .paused()
        .start();
    let noisy_neighbor = executor.client();
    let quiet = executor.client();
    let mut handles = vec![
        noisy_neighbor.submit(demo_job(&circuit, &op, 0)).unwrap(),
        noisy_neighbor.submit(demo_job(&circuit, &op, 1)).unwrap(),
    ];
    assert_eq!(
        noisy_neighbor
            .submit(demo_job(&circuit, &op, 2))
            .unwrap_err(),
        ExecError::Overloaded
    );
    handles.push(
        quiet
            .submit(demo_job(&circuit, &op, 3))
            .expect("a different client's queue has space even though the neighbor's is full"),
    );
    executor.resume();
    for handle in &handles {
        handle.wait().expect("admitted jobs complete");
    }
}

/// `ShedLowestPriority` keeps the queue holding the highest-value work: an important
/// newcomer evicts the least important queued job (which resolves `Overloaded`), while
/// an unimportant newcomer is rejected outright.
#[test]
fn shedding_evicts_lowest_priority_and_rejects_unimportant_newcomers() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .queue_capacity(2)
        .admission(AdmissionPolicy::ShedLowestPriority)
        .paused()
        .start();
    let client = executor.client();
    let low = client
        .submit_with(demo_job(&circuit, &op, 0), &priority_opts(0))
        .unwrap();
    let mid = client
        .submit_with(demo_job(&circuit, &op, 1), &priority_opts(5))
        .unwrap();
    // Queue full. A high-priority newcomer sheds the priority-0 job in its favor.
    let high = client
        .submit_with(demo_job(&circuit, &op, 2), &priority_opts(9))
        .expect("important newcomer is admitted by shedding the least important job");
    assert_eq!(low.wait().unwrap_err(), ExecError::Overloaded);
    // Queue full again (mid + high). A newcomer that itself matters least is rejected
    // instead of evicting more important queued work.
    assert_eq!(
        client
            .submit_with(demo_job(&circuit, &op, 3), &priority_opts(0))
            .unwrap_err(),
        ExecError::Overloaded
    );
    let stats = executor.stats();
    assert_eq!(stats.shed, 1, "exactly one queued job was shed");
    assert_eq!(stats.rejected, 1, "exactly one newcomer was rejected");
    executor.resume();
    mid.wait().expect("surviving job completes");
    high.wait().expect("admitted newcomer completes");
}

/// Shedding treats a group as a unit: it evicts one queued job per missing place when
/// each of them matters less than the group's least important entry, and evicts nothing
/// for a group it then has to refuse.
#[test]
fn shedding_admits_a_group_whole_or_sheds_nothing() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .queue_capacity(3)
        .admission(AdmissionPolicy::ShedLowestPriority)
        .paused()
        .start();
    let client = executor.client();
    let group = |salt: usize, priorities: [Priority; 2]| {
        priorities
            .iter()
            .enumerate()
            .map(|(j, &p)| (demo_job(&circuit, &op, salt + j), priority_opts(p), false))
            .collect::<Vec<_>>()
    };
    let queued: Vec<JobHandle> = [0, 5, 1]
        .iter()
        .enumerate()
        .map(|(j, &p)| {
            client
                .submit_with(demo_job(&circuit, &op, j), &priority_opts(p))
                .unwrap()
        })
        .collect();
    // Two places missing; the priority-0 and priority-1 jobs both matter less than the
    // group's weaker entry (3).
    let admitted = client
        .submit_group(group(10, [9, 3]))
        .expect("both victims matter less than the whole group");
    assert_eq!(queued[0].wait().unwrap_err(), ExecError::Overloaded);
    assert_eq!(queued[2].wait().unwrap_err(), ExecError::Overloaded);
    // Queue: 5, 9, 3.  The next group's weaker entry (2) matters less than all of them.
    assert_eq!(
        client.submit_group(group(20, [9, 2])).unwrap_err(),
        ExecError::Overloaded
    );
    let stats = executor.stats();
    assert_eq!(stats.shed, 2, "nothing is shed for a refused group");
    assert_eq!(stats.rejected, 2, "both entries of the refused group count");
    executor.resume();
    for handle in admitted.iter().chain(&queued[1..2]) {
        handle.wait().expect("surviving job completes");
    }
}

/// `Block` applies backpressure instead of failing: a submitter against a full queue
/// parks until the worker drains space, and every admitted job still completes.
#[test]
fn block_policy_parks_submitters_until_space_drains() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .queue_capacity(2)
        .admission(AdmissionPolicy::Block)
        .start();
    let client = executor.client();
    // 24 submissions through a 2-deep queue: most of them must block and be released
    // by the worker's drain notifications.
    let handles: Vec<JobHandle> = (0..24)
        .map(|j| {
            client
                .submit(demo_job(&circuit, &op, j))
                .expect("blocking admission never fails while the executor is live")
        })
        .collect();
    for handle in &handles {
        handle.wait().expect("blocked-then-admitted job completes");
    }
    assert_eq!(executor.stats().rejected, 0);
}

/// A group larger than the queue bound can never be admitted whole.  Under `Block` it
/// used to wait for space while holding the pause that kept the queue from draining;
/// now it is refused, and nothing of it is left queued.
#[test]
fn group_larger_than_the_queue_is_overloaded_under_block() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .queue_capacity(2)
        .admission(AdmissionPolicy::Block)
        .start();
    let jobs: Vec<EvalJob> = (0..4).map(|j| demo_job(&circuit, &op, j)).collect();
    let client = executor.client();
    // On a helper thread, so a submission that wedges fails this test, not the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(client.submit_all(jobs).map(|_| ())));
    let refused = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the submission must return, not wedge");
    assert_eq!(refused, Err(ExecError::Overloaded));
    assert_eq!(
        executor.stats().rejected,
        4,
        "every entry counts as refused"
    );
    // Nothing was enqueued and no pause was left behind: the executor is idle and a
    // later job runs.
    executor.wait_idle();
    let later = executor.client().submit(demo_job(&circuit, &op, 9));
    later.unwrap().wait().expect("the executor still serves");
}

/// A group that fits the bound but not the queue as it stands waits — unpaused, so the
/// queue can drain — and is then admitted whole: its jobs run back to back in one slate.
#[test]
fn group_behind_a_full_queue_is_admitted_once_it_drains_under_block() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .queue_capacity(2)
        .admission(AdmissionPolicy::Block)
        .paused()
        .start();
    let client = executor.client();
    let plugs = client
        .submit_all((0..2).map(|j| demo_job(&circuit, &op, j)))
        .expect("an empty queue of two takes a group of two");
    let (tx, rx) = std::sync::mpsc::channel();
    let submitter = {
        let client = client.clone();
        let jobs: Vec<EvalJob> = (2..4).map(|j| demo_job(&circuit, &op, j)).collect();
        std::thread::spawn(move || tx.send(client.submit_all(jobs)))
    };
    assert!(
        rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "the queue is full and paused: the group must still be waiting"
    );
    executor.resume();
    let group = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the drain frees room for the group")
        .expect("a group that fits is admitted, not refused");
    submitter.join().unwrap().unwrap();
    for handle in plugs.iter().chain(&group) {
        handle.wait().expect("admitted jobs complete");
    }
    assert_eq!(
        (group[0].sequence(), group[1].sequence()),
        (Some(2), Some(3)),
        "the group runs whole, after the queue it waited for"
    );
    assert_eq!(executor.stats().rejected, 0);
}

// ---------------------------------------------------------------------------
// Deadlines & timeouts
// ---------------------------------------------------------------------------

/// A job whose deadline has already passed is refused at the submission boundary — it
/// never occupies queue space.
#[test]
fn already_expired_deadline_is_rejected_at_submit() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::single(StatevectorBackend::new());
    let client = executor.client();
    let job = demo_job(&circuit, &op, 0).with_deadline(Instant::now() - Duration::from_millis(1));
    assert_eq!(client.submit(job).unwrap_err(), ExecError::DeadlineExceeded);
}

/// Deadlines fire even while the executor is paused: the worker's timed wait sweeps
/// expired jobs out of the queue without any scheduling happening.
#[test]
fn queued_job_expires_while_paused() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .paused()
        .start();
    let client = executor.client();
    let doomed = client
        .submit(demo_job(&circuit, &op, 0).with_timeout(Duration::from_millis(30)))
        .unwrap();
    let patient = client.submit(demo_job(&circuit, &op, 1)).unwrap();
    // No resume: the deadline must fire anyway.
    assert_eq!(doomed.wait().unwrap_err(), ExecError::DeadlineExceeded);
    assert!(executor.stats().expired >= 1);
    assert!(!patient.is_finished(), "undeadlined job is still queued");
    executor.resume();
    patient
        .wait()
        .expect("undeadlined job completes after resume");
}

/// `wait_timeout` observes without cancelling: it returns `None` while the job is
/// pending and the result once the job runs.
#[test]
fn wait_timeout_polls_without_cancelling() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .paused()
        .start();
    let client = executor.client();
    let handle = client.submit(demo_job(&circuit, &op, 0)).unwrap();
    assert!(
        handle.wait_timeout(Duration::from_millis(30)).is_none(),
        "paused executor cannot have run the job yet"
    );
    executor.resume();
    let result = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("job runs promptly after resume");
    result.expect("job completes successfully");
}

/// Mixed-deadline backlog: expired jobs drop with `DeadlineExceeded` ahead of slate
/// assembly, the rest execute, and nothing hangs.
#[test]
fn expired_jobs_are_swept_ahead_of_surviving_work() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .paused()
        .start();
    let client = executor.client();
    let mut doomed = Vec::new();
    let mut alive = Vec::new();
    for j in 0..6 {
        let job = demo_job(&circuit, &op, j);
        if j % 2 == 0 {
            doomed.push(
                client
                    .submit(job.with_timeout(Duration::from_millis(20)))
                    .unwrap(),
            );
        } else {
            alive.push(client.submit(job).unwrap());
        }
    }
    std::thread::sleep(Duration::from_millis(60));
    executor.resume();
    for handle in &doomed {
        assert_eq!(handle.wait().unwrap_err(), ExecError::DeadlineExceeded);
    }
    for handle in &alive {
        handle.wait().expect("undeadlined jobs execute normally");
    }
    assert!(executor.stats().expired >= doomed.len() as u64);
}

// ---------------------------------------------------------------------------
// Shutdown & cancellation races
// ---------------------------------------------------------------------------

/// Dropping the executor fails every still-queued job with `ShutDown`; no handle waits
/// forever.
#[test]
fn shutdown_fails_queued_jobs_with_structured_error() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::builder()
        .register(qexec::DEFAULT_BACKEND, StatevectorBackend::new())
        .paused()
        .start();
    let client = executor.client();
    let handles: Vec<JobHandle> = (0..5)
        .map(|j| client.submit(demo_job(&circuit, &op, j)).unwrap())
        .collect();
    drop(executor);
    for handle in &handles {
        assert_eq!(handle.wait().unwrap_err(), ExecError::ShutDown);
    }
}

/// Cancellation racing the scheduler: submitters, a canceller, and the draining worker
/// all run concurrently, and every handle still resolves to exactly one of
/// success / `Cancelled` / `ShutDown`.
#[test]
fn cancellation_races_resolve_every_handle() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Arc::new(Executor::single(StatevectorBackend::new()));
    let mut all_handles = Vec::new();
    std::thread::scope(|scope| {
        let mut submitters = Vec::new();
        for t in 0..4 {
            let executor = Arc::clone(&executor);
            let circuit = Arc::clone(&circuit);
            let op = Arc::clone(&op);
            submitters.push(scope.spawn(move || {
                let client = executor.client();
                let handles: Vec<JobHandle> = (0..20)
                    .map(|j| client.submit(demo_job(&circuit, &op, t * 100 + j)).unwrap())
                    .collect();
                if t % 2 == 0 {
                    // Half the clients cancel whatever of theirs is still queued,
                    // racing the worker's slate assembly.
                    client.cancel_queued();
                }
                handles
            }));
        }
        for submitter in submitters {
            all_handles.extend(submitter.join().unwrap());
        }
    });
    executor.wait_idle();
    for handle in &all_handles {
        match handle.wait() {
            Ok(_) | Err(ExecError::Cancelled) => {}
            Err(other) => panic!("unexpected resolution under cancellation race: {other}"),
        }
    }
}

/// Per-handle `cancel` also races the worker cleanly: a cancelled handle resolves
/// `Cancelled` if it won the race, or with the computed result if the worker did.
#[test]
fn individual_cancel_races_the_worker() {
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    let executor = Executor::single(StatevectorBackend::new());
    let client = executor.client();
    for round in 0..50 {
        let handle = client.submit(demo_job(&circuit, &op, round)).unwrap();
        handle.cancel();
        match handle.wait() {
            Ok(_) | Err(ExecError::Cancelled) => {}
            Err(other) => panic!("unexpected resolution after cancel: {other}"),
        }
    }
    executor.wait_idle();
}

// ---------------------------------------------------------------------------
// Drivers that break the one-result-per-request contract
// ---------------------------------------------------------------------------

/// A third-party driver whose `evaluate_batch` returns the wrong number of results:
/// `results.len() = requests.len() + delta`, clamped at zero when `delta` is
/// `isize::MIN`.
struct MiscountingBackend {
    inner: StatevectorBackend,
    delta: isize,
}

impl vqa::Backend for MiscountingBackend {
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

    fn evaluate_batch(&mut self, requests: &[vqa::EvalRequest<'_>]) -> Vec<vqa::EvalResult> {
        let mut results = self.inner.evaluate_batch(requests);
        let wanted = requests.len().saturating_add_signed(self.delta);
        let filler = results[0].clone();
        results.resize(wanted, filler);
        results
    }

    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64 {
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
        "miscounting"
    }
}

/// A driver returning `n − 1`, `0` or `n + 1` results for a batch of `n` fails exactly
/// that batch with a structured error naming the backend and both counts — no handle
/// is left waiting for a result that never comes, no job is handed another job's
/// value, and the scheduler survives to serve the next backend.
#[test]
fn wrong_result_count_fails_the_batch_and_the_service_survives() {
    const N: usize = 3;
    let patience = Duration::from_secs(20);
    let circuit = demo_circuit(3);
    let op = demo_op(3);
    for (delta, returned) in [(-1, N - 1), (isize::MIN, 0), (1, N + 1)] {
        let executor = Executor::builder()
            .paused()
            .register(
                "bad",
                MiscountingBackend {
                    inner: StatevectorBackend::new(),
                    delta,
                },
            )
            .register("good", StatevectorBackend::new())
            .start();
        let client = executor.client();
        let to = |backend: &str| SubmitOptions::new().backend(backend);
        let handles: Vec<JobHandle> = (0..N)
            .map(|i| {
                client
                    .submit_with(demo_job(&circuit, &op, i), &to("bad"))
                    .unwrap()
            })
            .collect();
        executor.resume();
        for handle in &handles {
            match handle.wait_timeout(patience) {
                Some(Err(ExecError::Execution(msg))) => assert!(
                    msg.contains("`bad`")
                        && msg.contains(&format!("{returned} results"))
                        && msg.contains(&format!("{N} requests")),
                    "unhelpful miscount error: {msg}"
                ),
                Some(other) => panic!("{returned} results for {N} requests resolved as {other:?}"),
                None => panic!("a handle hangs when the driver returns {returned} of {N} results"),
            }
        }
        let after = client
            .submit_with(demo_job(&circuit, &op, N), &to("good"))
            .unwrap();
        assert!(
            matches!(after.wait_timeout(patience), Some(Ok(_))),
            "the scheduler did not survive a driver returning {returned} of {N} results"
        );
    }
}
