//! The executor: backend registry, fair scheduler, admission control, supervision,
//! and the scheduler thread that runs every driver call.

use crate::error::ExecError;
use crate::fault::TransientFault;
use crate::job::{EvalJob, JobHandle, JobKind, JobState, SubmitOptions};
use crate::supervisor::{self, BackendHealth, Health};
use qop::PauliOp;
use qrng::StreamId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use vqa::{Backend, BackendCaps, EvalRequest, EvalResult};

/// Name under which [`Executor::single`] registers its only backend.
pub const DEFAULT_BACKEND: &str = "default";

/// Event-counter name table for the executor's [`qobs::Registry`]: the seven
/// [`ExecStats`] fields in declaration order, then the supervision events that have no
/// stats field.  The indices in the crate-private `event` module must match
/// this order.
pub const EVENT_NAMES: &[&str] = &[
    "rejected",
    "shed",
    "expired",
    "retries",
    "failovers",
    "panics",
    "readmissions",
    "quarantines",
    "canary_probes",
];

/// Indices into [`EVENT_NAMES`] for the executor's event counters.
pub(crate) mod event {
    pub const REJECTED: usize = 0;
    pub const SHED: usize = 1;
    pub const EXPIRED: usize = 2;
    pub const RETRIES: usize = 3;
    pub const FAILOVERS: usize = 4;
    pub const PANICS: usize = 5;
    pub const READMISSIONS: usize = 6;
    pub const QUARANTINES: usize = 7;
    pub const CANARY_PROBES: usize = 8;
}

/// Default cap on [`SubmitOptions::retries`] (override with
/// [`ExecutorBuilder::retry_limit`]).
pub const DEFAULT_RETRY_LIMIT: u32 = 3;

/// What a bounded queue does with a submission that would overflow it (see
/// [`ExecutorBuilder::queue_capacity`] / [`ExecutorBuilder::per_client_capacity`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Fail the submission immediately with [`ExecError::Overloaded`] (the default:
    /// callers see backpressure as a structured error and decide themselves).
    #[default]
    Reject,
    /// Block the submitting thread until queue space frees up (jobs draining,
    /// cancellation, or deadline expiry).  Submitting against a full queue on a
    /// *paused* executor blocks until someone resumes it.  A group
    /// ([`ExecClient::submit_group`]) waits for room for all of its jobs; one larger
    /// than a bound could wait forever and is refused with [`ExecError::Overloaded`].
    Block,
    /// Evict the queued job that matters least — lowest priority first, then the one
    /// expiring soonest, then the newest — completing it with
    /// [`ExecError::Overloaded`], and admit the newcomer in its place.  If the
    /// newcomer itself matters least, it is rejected instead.  Under sustained
    /// overload this keeps the queue holding the highest-value work.
    ShedLowestPriority,
}

/// Lifetime counters of the service's robustness machinery (see [`Executor::stats`]).
/// Monotonic; consistent whenever the jobs a caller cares about have resolved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Submissions refused with [`ExecError::Overloaded`] (both
    /// [`AdmissionPolicy::Reject`] refusals and newcomers that lost the shedding
    /// comparison).
    pub rejected: u64,
    /// Queued jobs evicted by [`AdmissionPolicy::ShedLowestPriority`].
    pub shed: u64,
    /// Jobs dropped with [`ExecError::DeadlineExceeded`] before execution.
    pub expired: u64,
    /// Failed executions re-queued for retry.
    pub retries: u64,
    /// Jobs executed on a standby backend because their target was quarantined.
    pub failovers: u64,
    /// Hard driver panics (each one quarantines its backend).
    pub panics: u64,
    /// Quarantined backends readmitted after a successful canary probe.
    pub readmissions: u64,
}

/// Immutable per-backend registry metadata (the boxed driver itself lives on the worker
/// thread; this is the submission-side view).
struct BackendMeta {
    name: String,
    caps: BackendCaps,
    /// Mirror of the driver's shot ledger, refreshed by the worker after every executed
    /// group — consistent whenever the jobs a caller cares about have completed.
    shots: AtomicU64,
}

/// A job sitting in a client queue (or the executor's retry queue).
struct QueuedJob {
    uid: u64,
    priority: i32,
    kind: JobKind,
    backend: usize,
    /// The submission's capability requirements, kept for failover selection.
    require: BackendCaps,
    /// Remaining retry budget (decremented each time the job is re-queued).
    retries_left: u32,
    /// Whether a quarantined target may be substituted by a compatible standby.
    failover: bool,
    /// The job's `qrng` draw stream, resolved at admission (pinned by the submission
    /// or derived from the job's uid).  Passed to the driver with every execution —
    /// including retries and failovers, which therefore reproduce the same draws.
    stream: StreamId,
    job: EvalJob,
    state: Arc<JobState>,
}

impl QueuedJob {
    /// A re-queued copy for one retry attempt (shares the completion state, keeps the
    /// first scheduling's sequence number).
    fn retry_clone(&self) -> QueuedJob {
        QueuedJob {
            uid: self.uid,
            priority: self.priority,
            kind: self.kind,
            backend: self.backend,
            require: self.require,
            retries_left: self.retries_left - 1,
            failover: self.failover,
            stream: self.stream,
            job: self.job.clone(),
            state: Arc::clone(&self.state),
        }
    }
}

/// Whether shedding evicts `a` in preference to `b`: lower priority first; at equal
/// priority the job expiring soonest (no deadline sorts last — it can still wait); then
/// the newest.  With a full queue of equals, the newest *is* the incoming job, so
/// sustained equal-priority overload degenerates to rejecting arrivals — FIFO order of
/// accepted work is preserved.
fn sheds_before(a: &QueuedJob, b: &QueuedJob) -> bool {
    match a.priority.cmp(&b.priority) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => match (a.job.deadline, b.job.deadline) {
            (Some(x), Some(y)) if x != y => x < y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            _ => a.uid > b.uid,
        },
    }
}

enum Control {
    ResetShots {
        backend: usize,
        ack: Arc<(Mutex<bool>, Condvar)>,
    },
}

/// Lifecycle of a client's queue slot: slots are reused so a long-lived executor
/// serving many short-lived clients (every TreeVQA run, every connection) does not
/// accumulate dead queues.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// At least one `ExecClient` clone holds the slot.
    Active,
    /// Every clone was dropped but queued jobs remain; freed once they drain.
    Retired,
    /// Reusable by the next [`Executor::client`] call.
    Free,
}

#[derive(Default)]
struct QueueState {
    /// One FIFO per client slot.
    queues: Vec<VecDeque<QueuedJob>>,
    /// Lifecycle of each slot, parallel to `queues`.
    slots: Vec<SlotState>,
    /// Indices of `Free` slots, reused before growing `queues`.
    free_slots: Vec<usize>,
    /// Round-robin cursor: the client index served next at equal priority.
    rr_next: usize,
    /// Jobs queued across all clients (excludes the retry queue).
    pending: usize,
    /// Jobs picked into the current slate but not yet completed.
    in_flight: usize,
    /// Failed executions awaiting their retry: drained ahead of the client queues into
    /// the *next* slate, so a retry replays exactly one slate after its failure — a
    /// deterministic backoff measured in slates, not wall time.
    retries: VecDeque<QueuedJob>,
    /// Scheduler rounds completed; the clock the canary backoff counts in.
    round: u64,
    /// Per-backend health, parallel to the registry (the queue lock is the health
    /// lock).
    health: Vec<Health>,
    /// Nesting depth of [`Executor::pause`]; scheduling runs only at 0.
    pause_depth: usize,
    shutdown: bool,
    controls: VecDeque<Control>,
}

impl QueueState {
    /// Moves drained retired slots to the free list (called after a slate empties the
    /// queues, and when a client drops with nothing queued).
    fn reclaim_retired(&mut self) {
        for id in 0..self.queues.len() {
            if self.slots[id] == SlotState::Retired && self.queues[id].is_empty() {
                self.slots[id] = SlotState::Free;
                self.free_slots.push(id);
            }
        }
    }

    /// No work queued, retrying, or executing.
    fn is_idle(&self) -> bool {
        self.pending == 0 && self.in_flight == 0 && self.retries.is_empty()
    }

    /// The soonest deadline among queued and retrying jobs — bounds the worker's idle
    /// and paused waits so deadlines fire even when nothing else wakes it.
    fn earliest_deadline(&self) -> Option<Instant> {
        self.queues
            .iter()
            .flatten()
            .chain(self.retries.iter())
            .filter_map(|j| j.job.deadline)
            .min()
    }
}

/// Owned by every clone of an [`ExecClient`]; the last drop retires the client's queue
/// slot so the executor can reuse it.
struct SlotGuard {
    shared: std::sync::Weak<Shared>,
    id: usize,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.upgrade() {
            let mut q = shared.queue.lock().unwrap();
            q.slots[self.id] = SlotState::Retired;
            if q.queues[self.id].is_empty() {
                q.slots[self.id] = SlotState::Free;
                q.free_slots.push(self.id);
            }
        }
    }
}

/// State shared between the submission side and the worker thread.
pub(crate) struct Shared {
    queue: Mutex<QueueState>,
    /// Wakes the worker (new jobs, resume, shutdown, controls).
    work_cv: Condvar,
    /// Wakes `wait_idle` callers.
    idle_cv: Condvar,
    /// Wakes [`AdmissionPolicy::Block`] submitters when queue space frees up.
    space_cv: Condvar,
    meta: Vec<BackendMeta>,
    policy: AdmissionPolicy,
    /// Cap on jobs queued across all clients (admission bound; `usize::MAX` =
    /// unbounded).
    global_cap: usize,
    /// Cap on jobs queued under one client slot.
    per_client_cap: usize,
    /// Cap applied to every submission's [`SubmitOptions::retries`].
    retry_limit: u32,
    /// Global execution sequence counter (assigned in scheduled order).
    next_seq: AtomicU64,
    next_uid: AtomicU64,
    /// Observability registry: event counters are always live (they back
    /// [`Executor::stats`], replacing the lock-held `ExecStats` increments); span and
    /// histogram recording is on only when the registry was built enabled.
    obs: Arc<qobs::Registry>,
}

impl Shared {
    fn backend_index(&self, name: &str) -> Result<usize, ExecError> {
        self.meta
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| ExecError::UnknownBackend(name.to_string()))
    }

    /// Increments the pause depth (see [`Executor::pause`]).
    pub(crate) fn pause(&self) {
        self.queue.lock().unwrap().pause_depth += 1;
    }

    /// Decrements the pause depth, waking the worker at zero (see [`Executor::resume`]).
    pub(crate) fn resume(&self) {
        let mut q = self.queue.lock().unwrap();
        q.pause_depth = q.pause_depth.saturating_sub(1);
        let runnable = q.pause_depth == 0;
        drop(q);
        if runnable {
            self.work_cv.notify_all();
        }
    }

    /// Cancels every job queued under one client slot.
    pub(crate) fn cancel_client_queue(&self, client: usize) {
        let mut q = self.queue.lock().unwrap();
        let jobs: Vec<QueuedJob> = q.queues[client].drain(..).collect();
        q.pending -= jobs.len();
        q.reclaim_retired();
        let idle = q.is_idle();
        drop(q);
        for job in jobs {
            job.state.complete(Err(ExecError::Cancelled));
        }
        self.space_cv.notify_all();
        if idle {
            self.idle_cv.notify_all();
        }
    }

    /// Removes a still-queued (or retry-queued) job and completes it as cancelled.
    /// Returns whether the job was found.
    pub(crate) fn cancel_queued(&self, uid: u64) -> bool {
        let mut q = self.queue.lock().unwrap();
        let mut found = None;
        for queue in &mut q.queues {
            if let Some(pos) = queue.iter().position(|j| j.uid == uid) {
                found = Some(queue.remove(pos).expect("position came from iter"));
                break;
            }
        }
        match found {
            Some(_) => q.pending -= 1,
            None => {
                if let Some(pos) = q.retries.iter().position(|j| j.uid == uid) {
                    found = Some(q.retries.remove(pos).expect("position came from iter"));
                }
            }
        }
        let Some(job) = found else {
            return false;
        };
        // Cancellation may have emptied a retired client's queue.
        q.reclaim_retired();
        let idle = q.is_idle();
        drop(q);
        job.state.complete(Err(ExecError::Cancelled));
        self.space_cv.notify_all();
        if idle {
            self.idle_cv.notify_all();
        }
        true
    }
}

/// An RAII pause of an executor's scheduling (see [`Executor::scoped_pause`]): the
/// matching resume runs in `Drop`, so the pause is released even if the scope unwinds.
pub struct PauseGuard<'a> {
    shared: &'a Shared,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.shared.resume();
    }
}

/// Builds an [`Executor`] over a registry of named backends.
pub struct ExecutorBuilder {
    backends: Vec<(String, Box<dyn Backend + Send>, BackendCaps)>,
    paused: bool,
    policy: AdmissionPolicy,
    global_cap: Option<usize>,
    per_client_cap: Option<usize>,
    retry_limit: u32,
    observability: Option<bool>,
    obs_ring_capacity: Option<usize>,
}

impl Default for ExecutorBuilder {
    fn default() -> Self {
        ExecutorBuilder {
            backends: Vec::new(),
            paused: false,
            policy: AdmissionPolicy::default(),
            global_cap: None,
            per_client_cap: None,
            retry_limit: DEFAULT_RETRY_LIMIT,
            observability: None,
            obs_ring_capacity: None,
        }
    }
}

impl ExecutorBuilder {
    /// Registers a backend under `name`, advertising the capabilities it reports via
    /// [`Backend::capabilities`].  The first registered backend is the default target
    /// for jobs that do not name one.
    pub fn register(self, name: impl Into<String>, backend: impl Backend + Send + 'static) -> Self {
        self.register_boxed(name, Box::new(backend))
    }

    /// Registers an already-boxed backend (see [`ExecutorBuilder::register`]).
    pub fn register_boxed(
        mut self,
        name: impl Into<String>,
        backend: Box<dyn Backend + Send>,
    ) -> Self {
        let caps = backend.capabilities();
        self.backends.push((name.into(), backend, caps));
        self
    }

    /// Starts the executor paused: submissions queue but nothing executes until
    /// [`Executor::resume`].  Useful for deterministic multi-client scheduling (all
    /// clients submit, then one resume releases the fair-ordered slate).
    pub fn paused(mut self) -> Self {
        self.paused = true;
        self
    }

    /// Bounds the jobs queued across **all** clients.  Defaults to the
    /// `QEXEC_QUEUE_CAP` environment variable, or unbounded when unset.  What happens
    /// at the bound is the [`ExecutorBuilder::admission`] policy's call.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.global_cap = Some(cap);
        self
    }

    /// Bounds the jobs queued under **one** client slot (defaults to the global
    /// capacity): one runaway client hits its own bound before it can crowd out the
    /// rest.
    pub fn per_client_capacity(mut self, cap: usize) -> Self {
        self.per_client_cap = Some(cap);
        self
    }

    /// Sets the overflow policy for bounded queues (default
    /// [`AdmissionPolicy::Reject`]).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps every submission's [`SubmitOptions::retries`] (default
    /// [`DEFAULT_RETRY_LIMIT`]; 0 disables retries service-wide).
    pub fn retry_limit(mut self, limit: u32) -> Self {
        self.retry_limit = limit;
        self
    }

    /// Turns per-job lifecycle span and latency-histogram recording on or off for this
    /// executor, overriding the process-wide `QOBS` environment default
    /// ([`qobs::enabled`]).  Event counters (and thus [`Executor::stats`]) are always
    /// live regardless — when disabled, the per-job tracing cost is one branch on an
    /// absent span handle.  Tracing never changes
    /// results: span recording is entirely off the driver path, so enabled and disabled
    /// runs are bit-identical.
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = Some(enabled);
        self
    }

    /// Capacity of the finished-span ring buffer (default: the `QOBS_RING_CAP`
    /// environment variable, or [`qobs::DEFAULT_RING_CAPACITY`]).  When full, the
    /// oldest finished span is evicted and counted as dropped — tracing never applies
    /// backpressure to submissions.
    pub fn obs_ring_capacity(mut self, capacity: usize) -> Self {
        self.obs_ring_capacity = Some(capacity);
        self
    }

    /// Spawns the scheduler thread — the executor's only thread, which owns every
    /// registered driver and makes every driver call — and returns the running executor.
    ///
    /// # Panics
    ///
    /// Panics if no backend was registered or two backends share a name (builder-time
    /// programming errors, not runtime job input).
    pub fn start(self) -> Executor {
        assert!(
            !self.backends.is_empty(),
            "an executor needs at least one registered backend"
        );
        let mut names: Vec<&str> = self.backends.iter().map(|(n, _, _)| n.as_str()).collect();
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "backend names must be unique"
        );
        let global_cap = self
            .global_cap
            .or_else(|| {
                std::env::var("QEXEC_QUEUE_CAP")
                    .ok()
                    .and_then(|s| s.parse().ok())
            })
            .unwrap_or(usize::MAX)
            .max(1);
        let per_client_cap = self.per_client_cap.unwrap_or(global_cap).max(1);
        let mut drivers = Vec::with_capacity(self.backends.len());
        let mut meta = Vec::with_capacity(self.backends.len());
        for (name, backend, caps) in self.backends {
            meta.push(BackendMeta {
                name,
                caps,
                shots: AtomicU64::new(backend.shots_used()),
            });
            drivers.push(backend);
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                pause_depth: usize::from(self.paused),
                health: vec![Health::Healthy; meta.len()],
                ..QueueState::default()
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            space_cv: Condvar::new(),
            meta,
            policy: self.policy,
            global_cap,
            per_client_cap,
            retry_limit: self.retry_limit,
            next_seq: AtomicU64::new(0),
            next_uid: AtomicU64::new(0),
            obs: qobs::Registry::with_capacity(
                EVENT_NAMES,
                self.observability.unwrap_or_else(qobs::enabled),
                self.obs_ring_capacity
                    .unwrap_or_else(qobs::ring_capacity_from_env),
            ),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("qexec-scheduler".into())
            .spawn(move || worker_loop(&worker_shared, drivers))
            .expect("spawning the executor scheduler thread failed");
        Executor {
            shared,
            worker: Some(worker),
        }
    }
}

/// The execution service: owns a registry of named backends behind a worker thread,
/// accepts owned [`EvalJob`]s from any number of [`ExecClient`]s, and schedules them
/// with per-job priority and fair round-robin across clients.
///
/// See the crate docs for the serial-replay equivalence contract and the robustness
/// contract (deadlines, admission control, supervision, retries).
pub struct Executor {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl Executor {
    /// Starts building an executor (multi-backend registry form).
    pub fn builder() -> ExecutorBuilder {
        ExecutorBuilder::default()
    }

    /// The one-backend convenience: registers `backend` as [`DEFAULT_BACKEND`] and
    /// starts the service.
    pub fn single(backend: impl Backend + Send + 'static) -> Executor {
        Self::builder().register(DEFAULT_BACKEND, backend).start()
    }

    /// [`Executor::single`] for an already-boxed backend.
    pub fn single_boxed(backend: Box<dyn Backend + Send>) -> Executor {
        Self::builder()
            .register_boxed(DEFAULT_BACKEND, backend)
            .start()
    }

    /// Registers a new client and returns its submission handle.  Each client gets its
    /// own FIFO; the scheduler serves clients round-robin at equal priority, so no
    /// client can starve another.  Slots of fully dropped clients are reused, so a
    /// long-lived executor can serve any number of short-lived clients without
    /// accumulating state.
    pub fn client(&self) -> ExecClient {
        let mut q = self.shared.queue.lock().unwrap();
        let id = match q.free_slots.pop() {
            Some(id) => {
                q.slots[id] = SlotState::Active;
                id
            }
            None => {
                q.queues.push(VecDeque::new());
                q.slots.push(SlotState::Active);
                q.queues.len() - 1
            }
        };
        drop(q);
        ExecClient {
            shared: Arc::clone(&self.shared),
            id,
            slot: Arc::new(SlotGuard {
                shared: Arc::downgrade(&self.shared),
                id,
            }),
        }
    }

    /// Number of client queue slots currently allocated (diagnostic: stays bounded by
    /// the peak number of *simultaneously live* clients, not by how many were ever
    /// created, because dropped clients' slots are reused once their jobs drain).
    pub fn client_slots(&self) -> usize {
        self.shared.queue.lock().unwrap().queues.len()
    }

    /// Names of the registered backends, in registration order (index 0 is the default).
    pub fn backend_names(&self) -> Vec<String> {
        self.shared.meta.iter().map(|m| m.name.clone()).collect()
    }

    /// The capabilities a registered backend advertises.
    pub fn capabilities(&self, backend: &str) -> Result<BackendCaps, ExecError> {
        let idx = self.shared.backend_index(backend)?;
        Ok(self.shared.meta[idx].caps)
    }

    /// The name of the first registered backend satisfying `require`, if any.
    pub fn find_backend(&self, require: &BackendCaps) -> Option<String> {
        self.shared
            .meta
            .iter()
            .find(|m| m.caps.satisfies(require))
            .map(|m| m.name.clone())
    }

    /// The named backend's current supervision state.  A backend quarantined by a
    /// driver panic rejoins service automatically once a canary probe passes
    /// ([`crate::supervisor`] docs describe the lifecycle).
    pub fn backend_health(&self, backend: &str) -> Result<BackendHealth, ExecError> {
        let idx = self.shared.backend_index(backend)?;
        Ok(self.shared.queue.lock().unwrap().health[idx].into())
    }

    /// A snapshot of the service's robustness counters.
    ///
    /// Since PR 8 this is a thin view over the observability registry's event
    /// counters ([`Executor::observability`]): reads are lock-free — they sum sharded
    /// atomics instead of taking the queue lock — and the struct is kept so existing
    /// callers see the same seven fields with the same monotonic semantics.
    pub fn stats(&self) -> ExecStats {
        let c = self.shared.obs.counters();
        ExecStats {
            rejected: c.get(event::REJECTED),
            shed: c.get(event::SHED),
            expired: c.get(event::EXPIRED),
            retries: c.get(event::RETRIES),
            failovers: c.get(event::FAILOVERS),
            panics: c.get(event::PANICS),
            readmissions: c.get(event::READMISSIONS),
        }
    }

    /// The executor's observability registry: always-live event counters plus — when
    /// recording is enabled ([`ExecutorBuilder::observability`] or the `QOBS`
    /// environment variable) — per-job lifecycle spans and queue/exec/end-to-end
    /// latency histograms.  Snapshot it with [`qobs::Registry::snapshot`] and render
    /// via [`qobs::export`] (summary table, JSON, Prometheus text).
    pub fn observability(&self) -> Arc<qobs::Registry> {
        Arc::clone(&self.shared.obs)
    }

    /// Total shots the named backend has charged, as of its most recently completed
    /// job.  Consistent whenever the jobs the caller cares about have completed (e.g.
    /// after waiting on their handles or [`Executor::wait_idle`]).
    pub fn shots_used(&self, backend: &str) -> Result<u64, ExecError> {
        let idx = self.shared.backend_index(backend)?;
        Ok(self.shared.meta[idx].shots.load(Ordering::SeqCst))
    }

    /// Resets the named backend's shot ledger.  Blocks until the worker has applied the
    /// reset; jobs already queued when this is called may execute before or after the
    /// reset, so callers reusing a backend across experiment arms should
    /// [`Executor::wait_idle`] first.
    pub fn reset_shots(&self, backend: &str) -> Result<(), ExecError> {
        let idx = self.shared.backend_index(backend)?;
        let ack = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let mut q = self.shared.queue.lock().unwrap();
            if q.shutdown {
                return Err(ExecError::ShutDown);
            }
            q.controls.push_back(Control::ResetShots {
                backend: idx,
                ack: Arc::clone(&ack),
            });
        }
        self.shared.work_cv.notify_all();
        let (done, cv) = &*ack;
        let mut done = done.lock().unwrap();
        while !*done {
            done = cv.wait(done).unwrap();
        }
        Ok(())
    }

    /// Pauses scheduling: queued and newly submitted jobs accumulate but do not
    /// execute.  Jobs already picked into a slate finish.  Pausing lets a set of
    /// clients assemble one fair-ordered slate deterministically.  One client needs no
    /// pause for that: [`ExecClient::submit_group`] enqueues a group atomically.
    ///
    /// Pauses **nest**: each `pause` must be matched by one [`Executor::resume`], and
    /// scheduling restarts only when every pause has been resumed — so independent
    /// controllers sharing one executor cannot release each other's half-assembled
    /// slates.
    ///
    /// Deadlines keep firing while paused: an expired job is dropped with
    /// [`ExecError::DeadlineExceeded`] even though nothing is scheduled.
    pub fn pause(&self) {
        self.shared.pause();
    }

    /// Undoes one [`Executor::pause`]; scheduling resumes when the pause depth reaches
    /// zero.  Unmatched resumes are ignored.
    pub fn resume(&self) {
        self.shared.resume();
    }

    /// [`Executor::pause`] as an RAII scope: the matching resume runs when the guard
    /// drops, including on unwind — prefer this over manual pause/resume pairs wherever
    /// a panic in between would otherwise leave a shared executor paused forever.
    pub fn scoped_pause(&self) -> PauseGuard<'_> {
        self.shared.pause();
        PauseGuard {
            shared: &self.shared,
        }
    }

    /// Blocks until no jobs are queued, retrying, or executing.  On a paused executor
    /// this waits for [`Executor::resume`] (queued jobs cannot drain while paused).
    pub fn wait_idle(&self) {
        let mut q = self.shared.queue.lock().unwrap();
        while !q.is_idle() {
            q = self.shared.idle_cv.wait(q).unwrap();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// A client's submission handle.  Clones share the client's queue (and thus its
/// fair-scheduling slot); when the last clone drops, the slot is retired and reused by
/// a later [`Executor::client`] call once its queued jobs drain.
#[derive(Clone)]
pub struct ExecClient {
    shared: Arc<Shared>,
    id: usize,
    /// Retires the queue slot when the last clone drops (held only for its `Drop`).
    #[allow(dead_code)]
    slot: Arc<SlotGuard>,
}

impl ExecClient {
    /// Submits a job to the default backend at default priority.
    pub fn submit(&self, job: EvalJob) -> Result<JobHandle, ExecError> {
        self.submit_with(job, &SubmitOptions::default())
    }

    /// Submits a job with explicit backend selection, priority, capability
    /// requirements, retry budget, and failover opt-in.  Validation (shapes, backend,
    /// capabilities, already-expired deadlines) happens here, before queueing —
    /// malformed input never reaches a driver.
    pub fn submit_with(&self, job: EvalJob, opts: &SubmitOptions) -> Result<JobHandle, ExecError> {
        self.submit_one(job, opts, false)
    }

    /// Submits every job of an iterator as one group
    /// ([`ExecClient::submit_group`]) to the default backend at default priority.
    pub fn submit_all(
        &self,
        jobs: impl IntoIterator<Item = EvalJob>,
    ) -> Result<Vec<JobHandle>, ExecError> {
        self.submit_group(
            jobs.into_iter()
                .map(|job| (job, SubmitOptions::default(), false))
                .collect(),
        )
    }

    /// Cancels every job still queued under this client (jobs already executing are
    /// unaffected).  Their handles report [`ExecError::Cancelled`].
    pub fn cancel_queued(&self) {
        self.shared.cancel_client_queue(self.id);
    }

    /// Submits an uncharged probe: the job's charged observable is evaluated exactly on
    /// the prepared state via the driver's `probe` path (zero shots, free observables
    /// ignored).
    pub fn submit_probe(&self, job: EvalJob) -> Result<JobHandle, ExecError> {
        self.submit_probe_with(job, &SubmitOptions::default())
    }

    /// [`ExecClient::submit_probe`] with explicit options.
    pub fn submit_probe_with(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
    ) -> Result<JobHandle, ExecError> {
        self.submit_one(job, opts, true)
    }

    /// A group of one.
    fn submit_one(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
        probe: bool,
    ) -> Result<JobHandle, ExecError> {
        let mut handles = self.submit_group(vec![(job, opts.clone(), probe)])?;
        Ok(handles.pop().expect("one handle per admitted job"))
    }

    /// Submits a group of `(job, options, probe)` entries **atomically**: every entry
    /// is validated before the queue is touched, and admission for the whole group is
    /// decided — and all of it enqueued, in entry order — under one hold of the queue
    /// lock.  The scheduler therefore sees all of the group or none of it: the jobs
    /// land in one slate (their evaluations coalesce into one batched driver
    /// submission per backend) without anyone pausing the executor.
    ///
    /// On a refusal nothing is enqueued and the refusing error is returned: the first
    /// invalid entry's validation error, or [`ExecError::Overloaded`] when the group
    /// does not fit.  A group larger than the per-client or the global queue bound can
    /// never fit and is `Overloaded` under every [`AdmissionPolicy`].  One that can:
    /// `Reject` refuses it unless there is room for all of it now, `Block` waits for
    /// that room, and `ShedLowestPriority` evicts one queued job per missing place
    /// provided each matters less than the group's least important entry (and evicts
    /// nothing otherwise).
    pub fn submit_group(
        &self,
        entries: Vec<(EvalJob, SubmitOptions, bool)>,
    ) -> Result<Vec<JobHandle>, ExecError> {
        let shared = &*self.shared;
        let backends = entries
            .iter()
            .map(|(job, opts, _)| self.validate_entry(job, opts))
            .collect::<Result<Vec<usize>, ExecError>>()?;
        let count = entries.len();
        let refuse = || {
            shared.obs.counters().add(event::REJECTED, count as u64);
            Err(ExecError::Overloaded)
        };
        if count > shared.per_client_cap.min(shared.global_cap) {
            return refuse();
        }
        let first_uid = shared.next_uid.fetch_add(count as u64, Ordering::Relaxed);
        let group: Vec<QueuedJob> = entries
            .into_iter()
            .zip(backends)
            .zip(first_uid..)
            .map(|(((job, opts, probe), backend), uid)| QueuedJob {
                uid,
                priority: opts.priority,
                kind: if probe {
                    JobKind::Probe
                } else {
                    JobKind::Evaluate
                },
                backend,
                require: opts.require,
                retries_left: opts.retries.min(shared.retry_limit),
                failover: opts.failover,
                // The job's draw stream: explicit submit option first, then the job's
                // own builder stream, then the uid-derived default.  Resolved here —
                // once, at admission — so retries and failovers execute with the same
                // stream.
                stream: opts
                    .rng_stream
                    .or(job.rng_stream)
                    .unwrap_or_else(|| StreamId::for_job(uid)),
                job,
                state: Arc::new(JobState::default()),
            })
            .collect();
        let handles = group
            .iter()
            .map(|queued| JobHandle {
                state: Arc::clone(&queued.state),
                shared: Arc::downgrade(&self.shared),
                uid: queued.uid,
                stream: queued.stream,
            })
            .collect();
        // The entry a shedding queue would give up first: queued work is evicted only
        // in favour of all of the group.
        let weakest = group
            .iter()
            .reduce(|w, j| if sheds_before(j, w) { j } else { w });

        let mut q = shared.queue.lock().unwrap();
        // Queued jobs, as `(client, position)`, that shedding gives up for the group.
        let mut victims: Vec<(usize, usize)> = Vec::new();
        // Admission control: both bounds must hold before the group enters its queue.
        loop {
            if q.shutdown {
                return Err(ExecError::ShutDown);
            }
            let own_victims = victims.iter().filter(|v| v.0 == self.id).count();
            let client_full = q.queues[self.id].len() - own_victims + count > shared.per_client_cap;
            let global_full = q.pending - victims.len() + count > shared.global_cap;
            if !client_full && !global_full {
                break;
            }
            match shared.policy {
                AdmissionPolicy::Reject => return refuse(),
                AdmissionPolicy::Block => q = shared.space_cv.wait(q).unwrap(),
                AdmissionPolicy::ShedLowestPriority => {
                    // Victim scope is the saturated bound: this client's queue if it is
                    // the one at capacity, any queue when the global bound is.
                    let scope = if client_full {
                        self.id..self.id + 1
                    } else {
                        0..q.queues.len()
                    };
                    let victim = scope
                        .flat_map(|ci| (0..q.queues[ci].len()).map(move |pos| (ci, pos)))
                        .filter(|at| !victims.contains(at))
                        .reduce(|v, at| {
                            if sheds_before(&q.queues[at.0][at.1], &q.queues[v.0][v.1]) {
                                at
                            } else {
                                v
                            }
                        });
                    match (victim, weakest) {
                        (Some(at), Some(weakest))
                            if sheds_before(&q.queues[at.0][at.1], weakest) =>
                        {
                            victims.push(at);
                        }
                        // The group matters least; shedding queued work for it would be
                        // strictly worse.
                        _ => return refuse(),
                    }
                }
            }
        }
        // Highest position first, so the positions still to come stay valid.
        victims.sort_unstable_by(|a, b| b.cmp(a));
        let shed: Vec<QueuedJob> = victims
            .iter()
            .map(|&(ci, pos)| q.queues[ci].remove(pos).expect("index in range"))
            .collect();
        q.pending -= shed.len();
        if !shed.is_empty() {
            shared.obs.counters().add(event::SHED, shed.len() as u64);
            q.reclaim_retired();
        }
        // Admission succeeded: open the lifecycle spans (submissions refused above get
        // counters only — they never became jobs).  The `enabled` guard keeps label
        // construction (a name clone) off the disabled path entirely.
        if shared.obs.enabled() {
            for queued in &group {
                // The registry rides along so the completion funnel can label failures
                // by wire error code even when the span ring is full.
                queued.state.attach_obs(Arc::clone(&shared.obs));
                if let Some(span) = shared.obs.start_span(qobs::SpanLabels {
                    client: self.id as u64,
                    backend: shared.meta[queued.backend].name.clone(),
                    priority: i64::from(queued.priority),
                    kind: match queued.kind {
                        JobKind::Evaluate => "evaluate",
                        JobKind::Probe => "probe",
                    },
                    worker: None,
                }) {
                    queued.state.attach_span(span);
                }
            }
        }
        q.pending += group.len();
        q.queues[self.id].extend(group);
        drop(q);
        shared.work_cv.notify_one();
        for job in shed {
            // The completion funnel closes the victim's span with a `shed` terminal
            // event (post-admission `Overloaded`).
            job.state.complete(Err(ExecError::Overloaded));
        }
        Ok(handles)
    }

    /// Checks one entry against the registry and the job's own shapes; returns the
    /// index of the backend it targets.
    fn validate_entry(&self, job: &EvalJob, opts: &SubmitOptions) -> Result<usize, ExecError> {
        let backend = match &opts.backend {
            Some(name) => self.shared.backend_index(name)?,
            None => 0,
        };
        let meta = &self.shared.meta[backend];
        if let Some(missing) = meta.caps.first_missing(&opts.require) {
            return Err(ExecError::MissingCapability {
                backend: meta.name.clone(),
                missing,
            });
        }
        // Retrying is only observationally invisible on an idempotent backend: a
        // stream-stateful stochastic driver re-executing a request would shift every
        // later job's draws, changing *other* jobs' results.  The workspace backends
        // are all retry-safe since the counter-based `qrng` rework; the gate remains
        // for third-party drivers that carry cross-request mutable state.
        if opts.retries > 0 && !meta.caps.retry_safe {
            return Err(ExecError::MissingCapability {
                backend: meta.name.clone(),
                missing: "retry_safe",
            });
        }
        job.validate()?;
        if job.deadline.is_some_and(|d| d <= Instant::now()) {
            return Err(ExecError::DeadlineExceeded);
        }
        Ok(backend)
    }
}

/// Drains the retry queue and then the whole client queue into one slate in scheduled
/// order: retries first (their backoff has elapsed and they already hold sequence
/// numbers); then strictly by descending priority; at equal priority, round-robin
/// across clients starting at the cursor; FIFO within a client (a higher-priority job
/// may overtake its client's earlier lower-priority jobs).
fn build_slate(q: &mut QueueState) -> Vec<QueuedJob> {
    let mut slate: Vec<QueuedJob> = q.retries.drain(..).collect();
    slate.reserve(q.pending);
    let num_clients = q.queues.len();
    while q.pending > 0 {
        // Highest remaining priority, computed once per level: nothing is enqueued
        // while the queue lock is held, so draining the whole level before recomputing
        // picks jobs in exactly the same order as a per-pick global rescan — without
        // the O(jobs) scan per pick.
        let level = q
            .queues
            .iter()
            .flat_map(|d| d.iter().map(|j| j.priority))
            .max()
            .expect("pending > 0 implies a queued job");
        loop {
            let mut served = None;
            for offset in 0..num_clients {
                let client = (q.rr_next + offset) % num_clients;
                if let Some(pos) = q.queues[client].iter().position(|j| j.priority == level) {
                    let job = q.queues[client]
                        .remove(pos)
                        .expect("position came from iter");
                    slate.push(job);
                    q.pending -= 1;
                    q.rr_next = (client + 1) % num_clients;
                    served = Some(client);
                    break;
                }
            }
            if served.is_none() {
                break;
            }
        }
    }
    slate
}

/// Completes the job as failed, or re-queues it for one more attempt if it has retry
/// budget left.  Retried jobs share their completion state and sequence number — a
/// successful retry is indistinguishable from a slow first attempt.
fn fail_or_retry(g: &QueuedJob, err: ExecError, retry_out: &mut Vec<QueuedJob>) {
    if g.retries_left > 0 {
        retry_out.push(g.retry_clone());
    } else {
        g.state.complete(Err(err));
    }
}

/// Routes a caught driver unwind: a [`TransientFault`] payload fails (or retries) the
/// affected jobs without quarantining; any other payload is a corrupted driver — the
/// backend is quarantined and its jobs fail or retry.
fn handle_panic(
    shared: &Shared,
    payload: Box<dyn std::any::Any + Send>,
    backend: usize,
    group: &[QueuedJob],
    retry_out: &mut Vec<QueuedJob>,
) {
    match payload.downcast::<TransientFault>() {
        Ok(transient) => {
            let msg = format!("transient fault: {}", transient.0);
            for g in group {
                fail_or_retry(g, ExecError::Execution(msg.clone()), retry_out);
            }
        }
        Err(payload) => {
            let msg = panic_message(payload);
            shared.obs.counters().inc(event::PANICS);
            shared.obs.counters().inc(event::QUARANTINES);
            {
                let mut q = shared.queue.lock().unwrap();
                let round = q.round;
                q.health[backend] = Health::Quarantined {
                    failures: 1,
                    next_canary_round: round + 1,
                };
            }
            for g in group {
                fail_or_retry(g, ExecError::Execution(msg.clone()), retry_out);
            }
        }
    }
}

/// Gate for dispatching to `backend`: healthy backends pass; a quarantined backend
/// whose canary backoff has elapsed gets one recovery + canary attempt (readmitted on
/// success, pushed out with doubled backoff on failure); otherwise the group must be
/// disposed of without touching the driver.
fn ensure_healthy(
    shared: &Shared,
    drivers: &mut [Box<dyn Backend + Send>],
    backend: usize,
) -> bool {
    let due_failures = {
        let q = shared.queue.lock().unwrap();
        match q.health[backend] {
            Health::Healthy => return true,
            Health::Quarantined {
                failures,
                next_canary_round,
            } => {
                if q.round >= next_canary_round {
                    Some(failures)
                } else {
                    None
                }
            }
        }
    };
    let Some(failures) = due_failures else {
        return false;
    };
    shared.obs.counters().inc(event::CANARY_PROBES);
    let passed = supervisor::canary(drivers[backend].as_mut());
    let mut q = shared.queue.lock().unwrap();
    if passed {
        q.health[backend] = Health::Healthy;
        shared.obs.counters().inc(event::READMISSIONS);
        true
    } else {
        let failures = failures + 1;
        let next = q.round + supervisor::backoff_rounds(failures - 1);
        q.health[backend] = Health::Quarantined {
            failures,
            next_canary_round: next,
        };
        false
    }
}

fn currently_healthy(shared: &Shared, backend: usize) -> bool {
    matches!(
        shared.queue.lock().unwrap().health[backend],
        Health::Healthy
    )
}

/// Stamps the dispatch point on a job's span.  The scheduler thread is the only
/// execution thread, so the span's `worker` label is always 0.
fn mark_dispatched(g: &QueuedJob) {
    if let Some(span) = g.state.span() {
        span.set_worker(0);
        span.mark_exec();
    }
}

/// Submits `group` — `Evaluate` jobs, in slate order — to `backend` as exactly one
/// `evaluate_batch` call under full panic supervision.  This is the only place a
/// driver's batch entry point is called: a slate portion passes its whole evaluation
/// group, a failover dispatch a group of one.  Every request carries its job's pinned
/// stream, so a job's result is the same in either shape and on a retry.
fn run_evaluations(
    shared: &Shared,
    drivers: &mut [Box<dyn Backend + Send>],
    backend: usize,
    group: &[QueuedJob],
    retry_out: &mut Vec<QueuedJob>,
) {
    let free_refs: Vec<Vec<&PauliOp>> = group
        .iter()
        .map(|g| g.job.free_ops.iter().map(|op| op.as_ref()).collect())
        .collect();
    let requests: Vec<EvalRequest<'_>> = group
        .iter()
        .zip(&free_refs)
        .map(|(g, free)| EvalRequest {
            circuit: &g.job.circuit,
            params: &g.job.params,
            initial: &g.job.initial,
            charged_op: &g.job.charged_op,
            free_ops: free,
            stream: Some(g.stream),
        })
        .collect();
    // The whole group hits the driver as one batch; stamp every member.
    group.iter().for_each(mark_dispatched);
    let driver = &mut drivers[backend];
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        driver.evaluate_batch(&requests)
    }));
    shared.meta[backend]
        .shots
        .store(driver.shots_used(), Ordering::SeqCst);
    match outcome {
        Ok(results) if results.len() == requests.len() => {
            for (g, result) in group.iter().zip(results) {
                g.state.complete(Ok(result));
            }
        }
        // `vqa::Backend` is a public trait: a driver that breaks the one-result-per-
        // request contract must fail its own group, not strand the unmatched handles
        // (or take the scheduler down with an out-of-range index).
        Ok(results) => {
            let msg = format!(
                "backend `{}` returned {} results for a batch of {} requests",
                shared.meta[backend].name,
                results.len(),
                requests.len()
            );
            for g in group {
                g.state.complete(Err(ExecError::Execution(msg.clone())));
            }
        }
        Err(payload) => handle_panic(shared, payload, backend, group, retry_out),
    }
}

/// Executes one job on an explicit (possibly failover) backend, with full panic
/// supervision on that backend.
fn run_single(
    shared: &Shared,
    drivers: &mut [Box<dyn Backend + Send>],
    backend: usize,
    g: &QueuedJob,
    retry_out: &mut Vec<QueuedJob>,
) {
    match g.kind {
        JobKind::Evaluate => {
            run_evaluations(shared, drivers, backend, std::slice::from_ref(g), retry_out);
        }
        JobKind::Probe => {
            mark_dispatched(g);
            let driver = &mut drivers[backend];
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                driver.probe(
                    &g.job.circuit,
                    &g.job.params,
                    &g.job.initial,
                    &g.job.charged_op,
                )
            }));
            match outcome {
                Ok(charged) => g.state.complete(Ok(EvalResult {
                    charged,
                    free: Vec::new(),
                    shots: 0,
                })),
                Err(payload) => {
                    handle_panic(shared, payload, backend, std::slice::from_ref(g), retry_out);
                }
            }
        }
    }
}

/// Disposes of one job whose target backend is quarantined: execute it on a healthy
/// capability-compatible standby if the submission opted into failover, otherwise fail
/// fast with [`ExecError::BackendQuarantined`] (no retry — retrying against the same
/// quarantined target would just spin).
fn dispose_quarantined(
    shared: &Shared,
    drivers: &mut [Box<dyn Backend + Send>],
    job: QueuedJob,
    retry_out: &mut Vec<QueuedJob>,
) {
    if job.failover {
        let standby = {
            let q = shared.queue.lock().unwrap();
            let caps: Vec<BackendCaps> = shared.meta.iter().map(|m| m.caps).collect();
            supervisor::select_failover(&caps, &q.health, job.backend, &job.require)
        };
        if let Some(idx) = standby {
            shared.obs.counters().inc(event::FAILOVERS);
            // Re-label the span so its terminal record names the backend that
            // actually executed the job.
            if let Some(span) = job.state.span() {
                span.set_backend(&shared.meta[idx].name);
            }
            run_single(shared, drivers, idx, &job, retry_out);
            return;
        }
    }
    job.state.complete(Err(ExecError::BackendQuarantined {
        backend: shared.meta[job.backend].name.clone(),
    }));
}

/// Executes one backend's portion of a slate under the **canonical grouping**: every
/// `Evaluate` job of the portion — in slate order — forms exactly one `evaluate_batch`
/// submission, then each `Probe` runs singly, also in slate order.  The grouping is a
/// function of the backend's job set alone, so a driver's call sequence (and with it
/// every fault-injection point) depends only on which jobs the slate holds for it.
/// Jobs that could not run because the backend is (or became) quarantined are pushed
/// to `quarantined` for [`dispose_quarantined`].
fn execute_backend_portion(
    shared: &Shared,
    drivers: &mut [Box<dyn Backend + Send>],
    backend: usize,
    jobs: Vec<QueuedJob>,
    retry_out: &mut Vec<QueuedJob>,
    quarantined: &mut Vec<QueuedJob>,
) {
    if shared.obs.enabled() {
        shared.obs.labeled().inc("worker0_slates");
    }
    if !ensure_healthy(shared, drivers, backend) {
        quarantined.extend(jobs);
        return;
    }
    let (evals, probes): (Vec<QueuedJob>, Vec<QueuedJob>) =
        jobs.into_iter().partition(|g| g.kind == JobKind::Evaluate);
    if !evals.is_empty() {
        run_evaluations(shared, drivers, backend, &evals, retry_out);
    }
    for g in probes {
        // A panic in the evaluation batch (or an earlier probe) may have quarantined
        // the backend mid-portion; the rest must not touch the corrupted driver.
        if !currently_healthy(shared, backend) {
            quarantined.push(g);
            continue;
        }
        run_single(shared, drivers, backend, &g, retry_out);
    }
}

/// Executes one slate: partitions it by backend, runs every backend's portion under
/// the canonical grouping in backend order, then disposes of the jobs whose backend
/// was quarantined (failover to a healthy standby, or fail fast) — after every portion
/// has run, so failover placement sees the slate's final health picture.  Returns the
/// jobs that earned a retry (re-queued for a later slate).
fn run_slate(
    shared: &Shared,
    drivers: &mut [Box<dyn Backend + Send>],
    slate: Vec<QueuedJob>,
) -> Vec<QueuedJob> {
    let mut per_backend: Vec<Vec<QueuedJob>> = (0..shared.meta.len()).map(|_| Vec::new()).collect();
    for job in slate {
        per_backend[job.backend].push(job);
    }
    let mut retry_out = Vec::new();
    let mut quarantined: Vec<QueuedJob> = Vec::new();
    for (backend, jobs) in per_backend.into_iter().enumerate() {
        if !jobs.is_empty() {
            execute_backend_portion(
                shared,
                drivers,
                backend,
                jobs,
                &mut retry_out,
                &mut quarantined,
            );
        }
    }
    for job in quarantined {
        dispose_quarantined(shared, drivers, job, &mut retry_out);
    }
    retry_out
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(t) = payload.downcast_ref::<TransientFault>() {
        t.0.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Drops every queued/retrying job whose deadline has passed, completing it with
/// [`ExecError::DeadlineExceeded`].  Runs before every slate *and* on every timed
/// wait wake-up, so deadlines fire even while the executor is paused or idle.
fn sweep_expired(shared: &Shared, q: &mut QueueState) {
    let now = Instant::now();
    let mut expired: Vec<QueuedJob> = Vec::new();
    for qi in 0..q.queues.len() {
        let mut i = 0;
        while i < q.queues[qi].len() {
            if q.queues[qi][i].job.deadline.is_some_and(|d| d <= now) {
                expired.push(q.queues[qi].remove(i).expect("index in range"));
                q.pending -= 1;
            } else {
                i += 1;
            }
        }
    }
    let mut i = 0;
    while i < q.retries.len() {
        if q.retries[i].job.deadline.is_some_and(|d| d <= now) {
            expired.push(q.retries.remove(i).expect("index in range"));
        } else {
            i += 1;
        }
    }
    if expired.is_empty() {
        return;
    }
    shared
        .obs
        .counters()
        .add(event::EXPIRED, expired.len() as u64);
    q.reclaim_retired();
    for job in expired {
        job.state.complete(Err(ExecError::DeadlineExceeded));
    }
    shared.space_cv.notify_all();
    if q.is_idle() {
        shared.idle_cv.notify_all();
    }
}

/// The scheduler loop: builds slates, assigns sequence numbers, serves controls, and
/// executes every slate itself on the drivers it owns.
fn worker_loop(shared: &Shared, mut drivers: Vec<Box<dyn Backend + Send>>) {
    loop {
        let slate = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                while let Some(control) = q.controls.pop_front() {
                    match control {
                        Control::ResetShots { backend, ack } => {
                            let driver = &mut drivers[backend];
                            driver.reset_shots();
                            shared.meta[backend]
                                .shots
                                .store(driver.shots_used(), Ordering::SeqCst);
                            let (done, cv) = &*ack;
                            *done.lock().unwrap() = true;
                            cv.notify_all();
                        }
                    }
                }
                if q.shutdown {
                    // Fail whatever is still queued so no handle waits forever.
                    for queue in &mut q.queues {
                        while let Some(job) = queue.pop_front() {
                            job.state.complete(Err(ExecError::ShutDown));
                        }
                    }
                    while let Some(job) = q.retries.pop_front() {
                        job.state.complete(Err(ExecError::ShutDown));
                    }
                    q.pending = 0;
                    shared.idle_cv.notify_all();
                    shared.space_cv.notify_all();
                    return;
                }
                sweep_expired(shared, &mut q);
                if q.pause_depth == 0 && (q.pending > 0 || !q.retries.is_empty()) {
                    break;
                }
                // Bound the wait by the soonest queued deadline so expiry fires even
                // while paused or otherwise unrunnable.
                match q.earliest_deadline() {
                    Some(deadline) => {
                        let now = Instant::now();
                        if deadline <= now {
                            continue;
                        }
                        let (guard, _) = shared.work_cv.wait_timeout(q, deadline - now).unwrap();
                        q = guard;
                    }
                    None => q = shared.work_cv.wait(q).unwrap(),
                }
            }
            q.round += 1;
            let slate = build_slate(&mut q);
            // Draining emptied every queue, so retired client slots become reusable.
            q.reclaim_retired();
            q.in_flight = slate.len();
            // Sequence numbers record the scheduled order, assigned before execution so
            // even a panicking group leaves a complete replay record.  A retried job
            // keeps the number from its first scheduling: the retry re-executes the
            // same position in the replay, it does not occupy a new one.
            for job in &slate {
                if !job.state.has_sequence() {
                    job.state
                        .set_sequence(shared.next_seq.fetch_add(1, Ordering::SeqCst));
                }
                // Slate pickup closes the queue stage of the job's span.  A retried
                // job keeps its first pickup stamp, matching its sequence number.
                if let Some(span) = job.state.span() {
                    span.mark_scheduled(job.state.sequence_value().unwrap_or(0));
                }
            }
            drop(q);
            // The drained queues freed admission space.
            shared.space_cv.notify_all();
            slate
        };
        let retry_jobs = run_slate(shared, &mut drivers, slate);
        shared
            .obs
            .counters()
            .add(event::RETRIES, retry_jobs.len() as u64);
        let mut q = shared.queue.lock().unwrap();
        q.retries.extend(retry_jobs);
        q.in_flight = 0;
        if q.is_idle() {
            shared.idle_cv.notify_all();
        }
    }
}
