//! The two bench-local wrappers through which every layer is timed **from outside**:
//! a [`vqa::Backend`] that times the executor's driver calls, and a
//! [`qexec::JobSubmitter`] that times a caller's wait for a group of jobs.  Neither
//! changes what is computed: both forward every call unchanged.

use crate::stats::Interval;
use qcircuit::Circuit;
use qexec::{CompletionHandle, EvalJob, ExecError, JobSubmitter, StreamId, SubmitOptions};
use qop::PauliOp;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vqa::{Backend, BackendCaps, EvalRequest, EvalResult, InitialState};

/// Which driver entry point a `vqa.call` span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    Batch,
    Probe,
}

/// One `vqa.call` span: a driver call as the executor's scheduler thread saw it.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    pub kind: CallKind,
    pub at: Interval,
    /// Requests in the call (1 for a probe).
    pub size: u32,
}

/// An owned copy of one request and its result, kept for replay and for the
/// reference-simulator check.
#[derive(Clone, Debug)]
pub struct Captured {
    pub circuit: Circuit,
    pub params: Vec<f64>,
    pub initial: InitialState,
    pub charged: PauliOp,
    pub free: Vec<PauliOp>,
    pub stream: Option<StreamId>,
    pub result: EvalResult,
    /// Requests in the `evaluate_batch` call this one arrived in, and its index there.
    pub batch: (usize, usize),
}

/// What [`TimedBackend`] has seen.  Counters are always kept (two clock reads per
/// driver call); spans and request captures only when tracing.
#[derive(Debug, Default)]
pub struct DriverLog {
    tracing: bool,
    /// Capture every this-many-th request when tracing (0 = none).
    capture_every: u64,
    pub batch_calls: u64,
    pub probe_calls: u64,
    /// Requests across all batch calls (= charged evaluation jobs the driver ran).
    pub requests: u64,
    pub busy_ns: u64,
    pub calls: Vec<CallSpan>,
    pub captured: Vec<Captured>,
}

impl DriverLog {
    /// A log for an untraced run: counters only.
    pub fn untraced() -> Arc<Mutex<DriverLog>> {
        Arc::default()
    }

    /// A log for the traced run: spans for every call, one request in `capture_every`
    /// (`expected_calls` sizes the span vector up front so the run never reallocates it).
    pub fn traced(expected_calls: usize, capture_every: u64) -> Arc<Mutex<DriverLog>> {
        Arc::new(Mutex::new(DriverLog {
            tracing: true,
            capture_every,
            calls: Vec::with_capacity(expected_calls + expected_calls / 4),
            ..DriverLog::default()
        }))
    }

    /// Forgets everything seen so far (set-up's warm-up evaluation), keeping the mode
    /// and the preallocated span vector.
    pub fn clear(&mut self) {
        let mut fresh = DriverLog {
            tracing: self.tracing,
            capture_every: self.capture_every,
            calls: std::mem::take(&mut self.calls),
            ..DriverLog::default()
        };
        fresh.calls.clear();
        *self = fresh;
    }
}

/// A [`Backend`] that forwards to `inner` and logs what it forwarded.
pub struct TimedBackend {
    inner: Box<dyn Backend + Send>,
    log: Arc<Mutex<DriverLog>>,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn Backend + Send>, log: Arc<Mutex<DriverLog>>) -> Self {
        TimedBackend { inner, log }
    }
}

impl Backend for TimedBackend {
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>) {
        // The executor only calls `evaluate_batch` and `probe`; direct callers of the
        // single form are logged as a batch of one.
        let request = EvalRequest {
            circuit,
            params,
            initial,
            charged_op,
            free_ops,
            stream: None,
        };
        let mut results = self.evaluate_batch(std::slice::from_ref(&request));
        let result = results.pop().expect("one result per request");
        (result.charged, result.free)
    }

    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        let start = qobs::now_ns();
        let results = self.inner.evaluate_batch(requests);
        let end = qobs::now_ns();
        let mut log = self.log.lock().expect("driver log poisoned");
        log.batch_calls += 1;
        log.busy_ns += end - start;
        if log.tracing {
            log.calls.push(CallSpan {
                kind: CallKind::Batch,
                at: Interval::new(start, end),
                size: requests.len() as u32,
            });
            for (i, (req, result)) in requests.iter().zip(&results).enumerate() {
                let index = log.requests + i as u64;
                if log.capture_every != 0 && index % log.capture_every == 0 {
                    log.captured.push(Captured {
                        circuit: req.circuit.clone(),
                        params: req.params.to_vec(),
                        initial: *req.initial,
                        charged: req.charged_op.clone(),
                        free: req.free_ops.iter().map(|op| (*op).clone()).collect(),
                        stream: req.stream,
                        result: result.clone(),
                        batch: (requests.len(), i),
                    });
                }
            }
        }
        log.requests += requests.len() as u64;
        results
    }

    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64 {
        let start = qobs::now_ns();
        let value = self.inner.probe(circuit, params, initial, op);
        let end = qobs::now_ns();
        let mut log = self.log.lock().expect("driver log poisoned");
        log.probe_calls += 1;
        log.busy_ns += end - start;
        if log.tracing {
            log.calls.push(CallSpan {
                kind: CallKind::Probe,
                at: Interval::new(start, end),
                size: 1,
            });
        }
        value
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
        self.inner.name()
    }

    fn capabilities(&self) -> BackendCaps {
        self.inner.capabilities()
    }

    fn recover(&mut self) {
        self.inner.recover();
    }
}

/// What a `net.wait` span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// A `submit_job_group` call up to the last result of the group.
    Group,
    /// A single probe (or single job) up to its result.
    Single,
}

/// One `net.wait` span: the caller-visible wait for a group of jobs.
#[derive(Clone, Copy, Debug)]
pub struct WaitSpan {
    pub kind: WaitKind,
    pub at: Interval,
    pub size: u32,
}

/// What one [`TimedSubmitter`] has seen, and how many of its jobs resolved with an error.
#[derive(Debug, Default)]
pub struct WaitLog {
    pub waits: Vec<WaitSpan>,
    pub jobs_failed: u64,
}

struct Group {
    start: u64,
    kind: WaitKind,
    size: u32,
    remaining: Cell<u32>,
    log: Rc<RefCell<WaitLog>>,
}

/// A [`JobSubmitter`] that forwards to `inner`, times each group from the submit call
/// to its last result, and pins every job to a draw stream derived from
/// `(stream_base, job counter)` — so a run's results do not depend on how the
/// executor numbered the jobs of two concurrent connections, which is what lets the
/// remote run be compared bit for bit with an in-process one.
///
/// One instance per client thread; the handles it returns stay on that thread.
pub struct TimedSubmitter<'a, S> {
    inner: &'a S,
    stream_base: StreamId,
    next_job: Cell<u64>,
    log: Rc<RefCell<WaitLog>>,
}

impl<'a, S: JobSubmitter> TimedSubmitter<'a, S> {
    pub fn new(inner: &'a S, stream_base: StreamId, expected_waits: usize) -> Self {
        TimedSubmitter {
            inner,
            stream_base,
            next_job: Cell::new(0),
            log: Rc::new(RefCell::new(WaitLog {
                waits: Vec::with_capacity(expected_waits),
                ..WaitLog::default()
            })),
        }
    }

    /// The log so far (spans of groups whose last result has been waited for).
    pub fn take_log(&self) -> WaitLog {
        std::mem::take(&mut *self.log.borrow_mut())
    }

    fn pin(&self, job: EvalJob) -> EvalJob {
        let index = self.next_job.get();
        self.next_job.set(index + 1);
        job.with_rng_stream(self.stream_base.substream(index))
    }

    fn group(&self, start: u64, kind: WaitKind, size: usize) -> Rc<Group> {
        Rc::new(Group {
            start,
            kind,
            size: size as u32,
            remaining: Cell::new(size as u32),
            log: Rc::clone(&self.log),
        })
    }

    fn single(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
        probe: bool,
    ) -> Result<TimedHandle<S::Handle>, ExecError> {
        let job = self.pin(job);
        let start = qobs::now_ns();
        let inner = if probe {
            self.inner.submit_probe_job(job, opts)?
        } else {
            self.inner.submit_job(job, opts)?
        };
        Ok(TimedHandle {
            inner,
            group: self.group(start, WaitKind::Single, 1),
            counted: Cell::new(false),
        })
    }
}

impl<S: JobSubmitter> JobSubmitter for TimedSubmitter<'_, S> {
    type Handle = TimedHandle<S::Handle>;

    fn submit_job(&self, job: EvalJob, opts: &SubmitOptions) -> Result<Self::Handle, ExecError> {
        self.single(job, opts, false)
    }

    fn submit_probe_job(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
    ) -> Result<Self::Handle, ExecError> {
        self.single(job, opts, true)
    }

    fn submit_job_group(&self, jobs: Vec<EvalJob>) -> Result<Vec<Self::Handle>, ExecError> {
        let jobs: Vec<EvalJob> = jobs.into_iter().map(|job| self.pin(job)).collect();
        let start = qobs::now_ns();
        let handles = self.inner.submit_job_group(jobs)?;
        let group = self.group(start, WaitKind::Group, handles.len());
        Ok(handles
            .into_iter()
            .map(|inner| TimedHandle {
                inner,
                group: Rc::clone(&group),
                counted: Cell::new(false),
            })
            .collect())
    }
}

/// The completion handle of a [`TimedSubmitter`] job.
pub struct TimedHandle<H> {
    inner: H,
    group: Rc<Group>,
    counted: Cell<bool>,
}

impl<H> TimedHandle<H> {
    /// Counts this handle's first observed completion; the group's span closes when
    /// its last member has been observed.
    fn observed(&self, ok: bool) {
        if self.counted.replace(true) {
            return;
        }
        let group = &self.group;
        let mut log = group.log.borrow_mut();
        if !ok {
            log.jobs_failed += 1;
        }
        group.remaining.set(group.remaining.get() - 1);
        if group.remaining.get() == 0 {
            log.waits.push(WaitSpan {
                kind: group.kind,
                at: Interval::new(group.start, qobs::now_ns()),
                size: group.size,
            });
        }
    }
}

impl<H: CompletionHandle> CompletionHandle for TimedHandle<H> {
    fn wait(&self) -> Result<EvalResult, ExecError> {
        let result = self.inner.wait();
        self.observed(result.is_ok());
        result
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Result<EvalResult, ExecError>> {
        let result = self.inner.wait_timeout(timeout);
        if let Some(r) = &result {
            self.observed(r.is_ok());
        }
        result
    }

    fn try_result(&self) -> Option<Result<EvalResult, ExecError>> {
        let result = self.inner.try_result();
        if let Some(r) = &result {
            self.observed(r.is_ok());
        }
        result
    }
}
