//! Owned jobs and completion handles.

use crate::error::ExecError;
use crate::executor::Shared;
use qcircuit::Circuit;
use qop::PauliOp;
use qrng::StreamId;
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};
use vqa::{BackendCaps, EvalResult, InitialState};

/// Per-job scheduling priority: higher values execute first; equal priorities are served
/// fairly round-robin across clients.  The default is 0.
pub type Priority = i32;

/// Hard cap on the register size the execution service accepts.
///
/// A dense statevector is `2^n` amplitudes (two `f64` lanes each), so 32 qubits — 64
/// GiB of state — is already far past anything this service simulates; anything larger
/// is hostile or nonsensical input and is refused at validation with
/// [`ExecError::RegisterTooLarge`] before any allocation is attempted.
pub const MAX_JOB_QUBITS: usize = 32;

/// One owned evaluation of a parameterized ansatz against a charged observable (plus
/// free tracking observables).
///
/// Unlike the borrowed `vqa::EvalRequest<'a>` that the low-level [`vqa::Backend`] driver
/// interface consumes, an `EvalJob` owns (or `Arc`-shares) everything it references, so
/// it can be queued, reprioritized, and moved across threads.  The heavyweight pieces —
/// circuit and observables — are `Arc`s: submitting a thousand candidates of one ansatz
/// shares a single circuit allocation, which also lets the batch engine's uniform-circuit
/// detection short-circuit on pointer equality.
#[derive(Clone, Debug)]
pub struct EvalJob {
    /// The ansatz circuit.
    pub circuit: Arc<Circuit>,
    /// The bound parameter vector for this evaluation.
    pub params: Vec<f64>,
    /// The initial state the ansatz is applied to.
    pub initial: InitialState,
    /// The observable whose estimation is charged shots (for probe jobs: the probed
    /// observable, at zero shot cost).
    pub charged_op: Arc<PauliOp>,
    /// Observables evaluated exactly at zero shot cost on the same state.
    pub free_ops: Vec<Arc<PauliOp>>,
    /// Optional completion deadline.  A job whose deadline has passed before it is
    /// scheduled is dropped by the scheduler with [`ExecError::DeadlineExceeded`]
    /// instead of wasting backend time on work nobody is still waiting for.  Work that
    /// has already started executing is never aborted mid-flight, so a deadline bounds
    /// *queueing* latency, not execution time.
    pub deadline: Option<Instant>,
    /// Optional explicit `qrng` draw stream for the job's stochastic backend draws
    /// (convenience forwarding of [`SubmitOptions::rng_stream`]; the submit option
    /// wins when both are set).  `None` — the default — derives a stream from the
    /// job's submission id, which is already unique and reproducible.
    pub rng_stream: Option<StreamId>,
}

impl EvalJob {
    /// Creates a job with no free tracking observables.
    pub fn new(
        circuit: Arc<Circuit>,
        params: Vec<f64>,
        initial: InitialState,
        charged_op: Arc<PauliOp>,
    ) -> Self {
        EvalJob {
            circuit,
            params,
            initial,
            charged_op,
            free_ops: Vec::new(),
            deadline: None,
            rng_stream: None,
        }
    }

    /// Adds free tracking observables (builder style).
    pub fn with_free_ops(mut self, free_ops: Vec<Arc<PauliOp>>) -> Self {
        self.free_ops = free_ops;
        self
    }

    /// Sets an absolute completion deadline (builder style).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now (builder style).
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Pins the job's `qrng` draw stream (builder style; see
    /// [`SubmitOptions::rng_stream`], which takes precedence when both are set).
    pub fn with_rng_stream(mut self, stream: StreamId) -> Self {
        self.rng_stream = Some(stream);
        self
    }

    /// Validates the job's shapes, reporting the first problem as an [`ExecError`].
    ///
    /// This is the service boundary where malformed user input becomes a structured
    /// error instead of a panic deep inside a simulator kernel.  Since jobs can arrive
    /// over the network (`qnet`), the checks assume a hostile caller, not a
    /// well-behaved in-process one: registers above [`MAX_JOB_QUBITS`] are refused
    /// before any `2^n` allocation, NaN/infinite parameters before they poison a
    /// state, and zero-term observables before they bill vacuous work.
    pub fn validate(&self) -> Result<(), ExecError> {
        let n = self.circuit.num_qubits();
        if self.circuit.num_gates() == 0 {
            return Err(ExecError::EmptyCircuit);
        }
        if n > MAX_JOB_QUBITS {
            return Err(ExecError::RegisterTooLarge {
                num_qubits: n,
                max: MAX_JOB_QUBITS,
            });
        }
        let expected = self.circuit.num_parameters();
        if self.params.len() != expected {
            return Err(ExecError::ParameterCountMismatch {
                expected,
                got: self.params.len(),
            });
        }
        if let Some(index) = self.params.iter().position(|p| !p.is_finite()) {
            return Err(ExecError::NonFiniteParameter { index });
        }
        for op in std::iter::once(&self.charged_op).chain(self.free_ops.iter()) {
            if op.num_qubits() != n {
                return Err(ExecError::QubitCountMismatch {
                    circuit: n,
                    operator: op.num_qubits(),
                });
            }
            if op.num_terms() == 0 {
                return Err(ExecError::EmptyObservable);
            }
        }
        if let InitialState::Basis(b) = self.initial {
            if n < 64 && (b >> n) != 0 {
                return Err(ExecError::BasisStateOutOfRange {
                    basis: b,
                    num_qubits: n,
                });
            }
        }
        Ok(())
    }
}

/// How a job is executed against its backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// A charged evaluation through the backend's batched path.
    Evaluate,
    /// An uncharged probe (`Backend::probe`): exact expectation, zero shots, free
    /// observables ignored.
    Probe,
}

/// Options accepted by [`crate::ExecClient::submit_with`].
#[derive(Clone, Debug, Default)]
pub struct SubmitOptions {
    /// The target backend by registry name; `None` selects the executor's default
    /// (first-registered) backend.
    pub backend: Option<String>,
    /// Scheduling priority (higher first; default 0).
    pub priority: Priority,
    /// Capabilities the backend must advertise; submission fails with
    /// [`ExecError::MissingCapability`] if the selected backend lacks one.
    pub require: BackendCaps,
    /// How many times a failed execution may be retried (default 0).  Retries require
    /// the target backend to advertise [`vqa::BackendCaps::retry_safe`] — re-executing
    /// an idempotent job is observationally invisible to every other job, so retried
    /// runs stay bit-identical to a fault-free run under any schedule.  Submission
    /// fails with [`ExecError::MissingCapability`] (`"retry_safe"`) when retries are
    /// requested on a backend that cannot honor that contract.  The executor
    /// additionally clamps this to its configured retry limit.
    pub retries: u32,
    /// Whether the job may fail over to another registered backend that satisfies
    /// [`SubmitOptions::require`] when its target backend is quarantined after a driver
    /// panic (default `false`: quarantine fails the job fast with
    /// [`ExecError::BackendQuarantined`]).
    pub failover: bool,
    /// Explicit `qrng` draw stream for the job's stochastic backend draws.  `None` —
    /// the default — derives [`StreamId::for_job`] from the job's submission id, so
    /// every job gets a unique reproducible stream with no caller involvement.  Pin a
    /// stream to make a job's randomness independent of submission order (e.g. keyed
    /// by a stable task/candidate identity), or to replay one job's draws elsewhere.
    pub rng_stream: Option<StreamId>,
}

impl SubmitOptions {
    /// Default options (same as `SubmitOptions::default()`, fluent-builder entry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Targets the named backend (builder style).
    pub fn backend(mut self, name: impl Into<String>) -> Self {
        self.backend = Some(name.into());
        self
    }

    /// Sets the scheduling priority (builder style).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Requires backend capabilities (builder style).
    pub fn require(mut self, require: BackendCaps) -> Self {
        self.require = require;
        self
    }

    /// Sets the retry budget (builder style).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Opts into failover to a compatible standby backend (builder style).
    pub fn failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// Pins the job's `qrng` draw stream (builder style).
    pub fn rng_stream(mut self, stream: StreamId) -> Self {
        self.rng_stream = Some(stream);
        self
    }
}

/// The terminal span [`qobs::Outcome`] a completion result maps to.  The mapping is
/// total: every way a job can resolve — including cancellation, shedding
/// ([`ExecError::Overloaded`] *after* admission), expiry, and shutdown — lands on
/// exactly one label, which is what lets the observability tests assert a correctly
/// labeled terminal event for 100% of submitted jobs.
fn outcome_of(result: &Result<EvalResult, ExecError>) -> qobs::Outcome {
    match result {
        Ok(_) => qobs::Outcome::Completed,
        Err(ExecError::Cancelled) => qobs::Outcome::Cancelled,
        Err(ExecError::DeadlineExceeded) => qobs::Outcome::Expired,
        Err(ExecError::Overloaded) => qobs::Outcome::Shed,
        Err(ExecError::ShutDown) => qobs::Outcome::ShutDown,
        Err(_) => qobs::Outcome::Failed,
    }
}

/// A one-shot completion callback (see [`JobHandle::on_complete`]).
type CompletionCallback = Box<dyn FnOnce(&Result<EvalResult, ExecError>) + Send>;

/// Completion state shared between a handle and the scheduler.
#[derive(Default)]
pub(crate) struct JobState {
    slot: Mutex<Option<Result<EvalResult, ExecError>>>,
    cv: Condvar,
    seq: OnceLock<u64>,
    /// Lifecycle span, attached at admission when the executor's registry records
    /// spans.  `complete` is the single funnel every completion path goes through
    /// (worker, cancel, shed, expire, shutdown), so closing the span here guarantees
    /// exactly one terminal event per admitted job.
    span: OnceLock<Arc<qobs::Span>>,
    /// The executor's observability registry, attached at admission when recording is
    /// on, so the completion funnel can label failed jobs by wire error code.
    obs: OnceLock<Arc<qobs::Registry>>,
    /// Callbacks to run on completion.  Guarded by the `slot` lock discipline: both
    /// registration and the completing drain hold `slot` while touching this, so a
    /// callback runs exactly once — either inline at registration (already complete)
    /// or from the completing thread.
    callbacks: Mutex<Vec<CompletionCallback>>,
}

impl std::fmt::Debug for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobState")
            .field("slot", &self.slot)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl JobState {
    pub(crate) fn complete(&self, result: Result<EvalResult, ExecError>) {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_some() {
            drop(slot);
            self.cv.notify_all();
            return;
        }
        if let Some(span) = self.span.get() {
            span.finish(outcome_of(&result));
        }
        // Failed jobs additionally count under their stable wire code
        // (`err<code>_<name>`), so a Prometheus scrape and a `qnet` wire client agree
        // on what failed and how often.
        if let Err(e) = &result {
            if let Some(obs) = self.obs.get() {
                obs.labeled()
                    .inc(&format!("err{}_{}", e.code(), e.code_name()));
            }
        }
        *slot = Some(result);
        // Drain under the `slot` lock (the registration side holds it too), run after
        // releasing it so a callback can inspect the handle without self-deadlock.
        let callbacks: Vec<CompletionCallback> =
            std::mem::take(&mut *self.callbacks.lock().unwrap());
        let for_callbacks = (!callbacks.is_empty()).then(|| slot.as_ref().unwrap().clone());
        drop(slot);
        self.cv.notify_all();
        if let Some(result) = for_callbacks {
            for callback in callbacks {
                callback(&result);
            }
        }
    }

    pub(crate) fn attach_span(&self, span: Arc<qobs::Span>) {
        let _ = self.span.set(span);
    }

    pub(crate) fn attach_obs(&self, obs: Arc<qobs::Registry>) {
        let _ = self.obs.set(obs);
    }

    pub(crate) fn span(&self) -> Option<&Arc<qobs::Span>> {
        self.span.get()
    }

    pub(crate) fn set_sequence(&self, seq: u64) {
        let _ = self.seq.set(seq);
    }

    /// Whether a sequence number was already assigned (true for retried jobs, which
    /// keep the number from their first scheduling).
    pub(crate) fn has_sequence(&self) -> bool {
        self.seq.get().is_some()
    }

    /// The assigned sequence number, if any (the scheduler-side view of
    /// [`JobHandle::sequence`]).
    pub(crate) fn sequence_value(&self) -> Option<u64> {
        self.seq.get().copied()
    }
}

/// A handle to a submitted job: wait for completion, poll, cancel, and observe the
/// execution sequence number the fair scheduler assigned.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) state: Arc<JobState>,
    pub(crate) shared: Weak<Shared>,
    pub(crate) uid: u64,
    pub(crate) stream: StreamId,
}

impl JobHandle {
    /// Blocks until the job completes (or is cancelled / the executor shuts down) and
    /// returns its result.
    ///
    /// Waiting on a job queued behind a paused executor blocks until the executor is
    /// resumed.
    pub fn wait(&self) -> Result<EvalResult, ExecError> {
        let mut slot = self.state.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.state.cv.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }

    /// Blocks until the job completes or `timeout` elapses, returning `None` on
    /// timeout.  A timed-out wait does **not** cancel the job — it stays queued (pair
    /// with a job deadline to bound how long it can linger) and can be waited on again.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<EvalResult, ExecError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.slot.lock().unwrap();
        while slot.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.state.cv.wait_timeout(slot, deadline - now).unwrap();
            slot = guard;
        }
        Some(slot.as_ref().unwrap().clone())
    }

    /// The job's result if it has already completed (non-blocking).
    pub fn try_result(&self) -> Option<Result<EvalResult, ExecError>> {
        self.state.slot.lock().unwrap().clone()
    }

    /// Whether the job has completed (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.state.slot.lock().unwrap().is_some()
    }

    /// Registers a callback to run exactly once when the job completes (with the same
    /// result [`JobHandle::wait`] returns).  If the job has already completed, the
    /// callback runs inline before this returns; otherwise it runs on the completing
    /// thread — the scheduler, or a caller cancelling the job — so it must be short and
    /// must not block (append to a buffer under a short lock, bump a counter).  This is
    /// the push-notification primitive the network server uses to encode each result
    /// straight into its connection's outbox, without a thread or a poll per in-flight
    /// job.
    pub fn on_complete<F>(&self, callback: F)
    where
        F: FnOnce(&Result<EvalResult, ExecError>) + Send + 'static,
    {
        let slot = self.state.slot.lock().unwrap();
        if let Some(result) = slot.as_ref() {
            let result = result.clone();
            drop(slot);
            callback(&result);
        } else {
            // Registered under the `slot` lock: `complete` drains callbacks while
            // holding it, so this either lands before the drain (and runs there) or
            // observes the filled slot above.
            self.state
                .callbacks
                .lock()
                .unwrap()
                .push(Box::new(callback));
        }
    }

    /// Attempts to cancel the job.  Returns `true` if the job was still queued (it is
    /// removed, and [`JobHandle::wait`] reports [`ExecError::Cancelled`]); returns
    /// `false` if it already started executing or completed — started work is never
    /// aborted mid-flight, preserving the serial-replay contract for every job that
    /// does execute.
    pub fn cancel(&self) -> bool {
        let Some(shared) = self.shared.upgrade() else {
            return false;
        };
        shared.cancel_queued(self.uid)
    }

    /// The global execution sequence number the scheduler assigned to this job, or
    /// `None` if it has not been scheduled (yet, or ever — cancelled jobs have none).
    ///
    /// Sequence numbers record the scheduled order for auditing; since the
    /// counter-based `qrng` rework a job's result no longer depends on it — replaying
    /// the job alone, with its [`JobHandle::rng_stream`], reproduces its result
    /// bit-for-bit (see the crate docs).
    pub fn sequence(&self) -> Option<u64> {
        self.state.seq.get().copied()
    }

    /// The `qrng` draw stream the job's stochastic backend draws are keyed by —
    /// the pinned [`SubmitOptions::rng_stream`] / [`EvalJob::with_rng_stream`]
    /// stream, or the default stream derived from the job's submission id.
    /// Evaluating the job's request with this stream on an identically seeded
    /// backend reproduces its result bit-for-bit, with no replay of other jobs.
    pub fn rng_stream(&self) -> StreamId {
        self.stream
    }
}

/// Waits on a slice of handles in order and collects their results, failing fast on the
/// first error.
pub fn wait_all(handles: &[JobHandle]) -> Result<Vec<EvalResult>, ExecError> {
    handles.iter().map(JobHandle::wait).collect()
}
