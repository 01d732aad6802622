//! Job-lifecycle span recording.
//!
//! A [`Span`] tracks one job from submission to its terminal event.  The stages
//! mirror the executor's pipeline:
//!
//! ```text
//! submit ──(admitted)──> queued ──> scheduled into a slate ──> executing ──> terminal
//!                                   [mark_scheduled]           [mark_exec]   [finish]
//! ```
//!
//! Stage stamps are relaxed atomics on the span itself; the only lock in the
//! subsystem guards the ring buffer of *finished* spans, taken once per job at
//! terminal time.  The ring has fixed capacity: when full, the oldest span is
//! evicted and counted in [`SpanStore::dropped`], so tracing never applies
//! backpressure to the executor.  Every `finish` also feeds the store's
//! queue/exec/end-to-end latency histograms and per-[`Outcome`] tallies, which is
//! what makes "exactly one terminal event per admitted job" a checkable
//! invariant: `started == finished` and [`SpanStore::open_spans`] `== 0` at
//! quiescence.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::now_ns;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Terminal state of a job span, matching the executor's completion paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The backend produced a result.
    Completed,
    /// The backend (or the service) reported an execution error.
    Failed,
    /// The job's deadline elapsed before execution.
    Expired,
    /// Load shedding evicted the job under an overloaded queue.
    Shed,
    /// The client cancelled the job while it was still queued.
    Cancelled,
    /// The executor shut down before the job ran.
    ShutDown,
}

impl Outcome {
    /// All outcomes, in tally order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Completed,
        Outcome::Failed,
        Outcome::Expired,
        Outcome::Shed,
        Outcome::Cancelled,
        Outcome::ShutDown,
    ];

    /// Stable lowercase label (used by every exporter).
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Failed => "failed",
            Outcome::Expired => "expired",
            Outcome::Shed => "shed",
            Outcome::Cancelled => "cancelled",
            Outcome::ShutDown => "shutdown",
        }
    }

    fn index(self) -> usize {
        match self {
            Outcome::Completed => 0,
            Outcome::Failed => 1,
            Outcome::Expired => 2,
            Outcome::Shed => 3,
            Outcome::Cancelled => 4,
            Outcome::ShutDown => 5,
        }
    }
}

/// Identity labels attached to a span at submission.
#[derive(Clone, Debug)]
pub struct SpanLabels {
    /// Submitting client's id.
    pub client: u64,
    /// Name of the backend the job was routed to (updated on failover).
    pub backend: String,
    /// Scheduling priority (higher first, matching the executor's convention).
    pub priority: i64,
    /// Job kind label (e.g. `evaluate` / `probe`).
    pub kind: &'static str,
    /// Index of the execution thread that ran the job, stamped at dispatch
    /// (`None` for jobs that were never dispatched; `qexec` executes on its one
    /// scheduler thread, so it stamps `Some(0)`).
    pub worker: Option<u64>,
}

/// An immutable record of a finished span.
#[derive(Clone, Debug)]
pub struct FinishedSpan {
    /// Store-unique span id, in start order.
    pub id: u64,
    /// Identity labels (backend reflects any failover).
    pub labels: SpanLabels,
    /// Execution sequence number, if the job was scheduled into a slate.
    pub seq: Option<u64>,
    /// Submission timestamp ([`crate::now_ns`] clock).
    pub submit_ns: u64,
    /// When the job was picked into a slate, if it got that far.
    pub scheduled_ns: Option<u64>,
    /// When the backend started executing it, if it got that far.
    pub exec_ns: Option<u64>,
    /// Terminal timestamp.
    pub end_ns: u64,
    /// Terminal state.
    pub outcome: Outcome,
}

impl FinishedSpan {
    /// Time spent queued: submission until slate pickup (or until the terminal
    /// event, for jobs that died in the queue).
    pub fn queue_ns(&self) -> u64 {
        self.scheduled_ns
            .unwrap_or(self.end_ns)
            .saturating_sub(self.submit_ns)
    }

    /// Backend execution time, if the job reached a backend.
    pub fn exec_time_ns(&self) -> Option<u64> {
        self.exec_ns.map(|e| self.end_ns.saturating_sub(e))
    }

    /// Submit-to-terminal latency.
    pub fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.submit_ns)
    }
}

const UNSET: u64 = u64::MAX;

/// A live span handle.  Held (as `Arc<Span>`) by the executor's job state;
/// cheap to stamp from any thread.  Dropping without [`Span::finish`] leaks an
/// open-span count — deliberately, so tests catch lifecycle holes.
pub struct Span {
    store: Arc<SpanStore>,
    id: u64,
    labels: Mutex<SpanLabels>,
    submit_ns: u64,
    scheduled_ns: AtomicU64,
    exec_ns: AtomicU64,
    seq: AtomicU64,
    finished: AtomicBool,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("id", &self.id)
            .field("finished", &self.finished.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Span {
    /// Store-unique id, in start order.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Stamp slate pickup with the job's execution sequence number.  First call
    /// wins; retries of the same job keep the original stamp.
    pub fn mark_scheduled(&self, seq: u64) {
        let _ = self.scheduled_ns.compare_exchange(
            UNSET,
            now_ns(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        let _ = self
            .seq
            .compare_exchange(UNSET, seq, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Stamp backend-execution start.  First call wins.
    pub fn mark_exec(&self) {
        let _ =
            self.exec_ns
                .compare_exchange(UNSET, now_ns(), Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Re-label the backend (failover moved the job).
    pub fn set_backend(&self, name: &str) {
        self.labels.lock().unwrap().backend = name.to_string();
    }

    /// Label the execution thread that ran (or is running) the job.
    pub fn set_worker(&self, worker: u64) {
        self.labels.lock().unwrap().worker = Some(worker);
    }

    /// Close the span with `outcome`.  Idempotent: only the first call records;
    /// later calls are ignored, preserving exactly-one-terminal-event.
    pub fn finish(&self, outcome: Outcome) {
        if self
            .finished
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let end_ns = now_ns();
        let scheduled = match self.scheduled_ns.load(Ordering::Relaxed) {
            UNSET => None,
            v => Some(v),
        };
        let exec = match self.exec_ns.load(Ordering::Relaxed) {
            UNSET => None,
            v => Some(v),
        };
        let seq = match self.seq.load(Ordering::Relaxed) {
            UNSET => None,
            v => Some(v),
        };
        let record = FinishedSpan {
            id: self.id,
            labels: self.labels.lock().unwrap().clone(),
            seq,
            submit_ns: self.submit_ns,
            scheduled_ns: scheduled,
            exec_ns: exec,
            end_ns,
            outcome,
        };
        self.store.record_finished(record);
    }
}

/// Owner of finished-span storage and the derived latency histograms.
pub struct SpanStore {
    capacity: usize,
    ring: Mutex<VecDeque<FinishedSpan>>,
    next_id: AtomicU64,
    started: AtomicU64,
    finished: AtomicU64,
    dropped: AtomicU64,
    outcomes: [AtomicU64; Outcome::ALL.len()],
    queue_hist: Histogram,
    exec_hist: Histogram,
    e2e_hist: Histogram,
}

impl SpanStore {
    /// A store whose ring keeps the most recent `capacity` finished spans.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(SpanStore {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(0),
            started: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            outcomes: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_hist: Histogram::new(),
            exec_hist: Histogram::new(),
            e2e_hist: Histogram::new(),
        })
    }

    /// Open a span stamped with the current time.
    pub fn start(self: &Arc<Self>, labels: SpanLabels) -> Arc<Span> {
        self.started.fetch_add(1, Ordering::Relaxed);
        Arc::new(Span {
            store: Arc::clone(self),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            labels: Mutex::new(labels),
            submit_ns: now_ns(),
            scheduled_ns: AtomicU64::new(UNSET),
            exec_ns: AtomicU64::new(UNSET),
            seq: AtomicU64::new(UNSET),
            finished: AtomicBool::new(false),
        })
    }

    fn record_finished(&self, span: FinishedSpan) {
        self.outcomes[span.outcome.index()].fetch_add(1, Ordering::Relaxed);
        self.queue_hist.record(span.queue_ns());
        if let Some(exec) = span.exec_time_ns() {
            self.exec_hist.record(exec);
        }
        self.e2e_hist.record(span.total_ns());
        {
            let mut ring = self.ring.lock().unwrap();
            if ring.len() == self.capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(span);
        }
        self.finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Spans started but not yet finished.
    pub fn open_spans(&self) -> u64 {
        self.started.load(Ordering::Relaxed) - self.finished.load(Ordering::Relaxed)
    }

    /// Total spans ever started.
    pub fn started(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }

    /// Total spans finished (whether or not still in the ring).
    pub fn finished(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Finished spans evicted from the ring by capacity pressure.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Count of spans that ended in `outcome`.
    pub fn outcome_count(&self, outcome: Outcome) -> u64 {
        self.outcomes[outcome.index()].load(Ordering::Relaxed)
    }

    /// Clone the ring's contents, oldest first.
    pub fn recorded(&self) -> Vec<FinishedSpan> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// Queue-latency histogram (submit → slate pickup, or terminal for jobs
    /// that never left the queue).
    pub fn queue_latency(&self) -> HistogramSnapshot {
        self.queue_hist.snapshot()
    }

    /// Backend-execution latency histogram (only jobs that reached a backend).
    pub fn exec_latency(&self) -> HistogramSnapshot {
        self.exec_hist.snapshot()
    }

    /// End-to-end latency histogram (submit → terminal, all jobs).
    pub fn e2e_latency(&self) -> HistogramSnapshot {
        self.e2e_hist.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> SpanLabels {
        SpanLabels {
            client: 7,
            backend: "statevector".into(),
            priority: 0,
            kind: "evaluate",
            worker: None,
        }
    }

    #[test]
    fn full_lifecycle_records_once() {
        let store = SpanStore::new(8);
        let span = store.start(labels());
        span.mark_scheduled(42);
        span.mark_exec();
        span.finish(Outcome::Completed);
        span.finish(Outcome::Failed); // ignored: already terminal
        assert_eq!(store.open_spans(), 0);
        assert_eq!(store.outcome_count(Outcome::Completed), 1);
        assert_eq!(store.outcome_count(Outcome::Failed), 0);
        let spans = store.recorded();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].seq, Some(42));
        assert!(spans[0].scheduled_ns.is_some());
        assert!(spans[0].exec_ns.is_some());
        assert_eq!(store.exec_latency().count, 1);
        assert_eq!(store.e2e_latency().count, 1);
    }

    #[test]
    fn queue_death_has_no_exec_sample() {
        let store = SpanStore::new(8);
        let span = store.start(labels());
        span.finish(Outcome::Shed);
        let spans = store.recorded();
        assert_eq!(spans[0].exec_ns, None);
        assert_eq!(spans[0].seq, None);
        assert_eq!(store.exec_latency().count, 0);
        assert_eq!(store.queue_latency().count, 1);
        assert_eq!(store.outcome_count(Outcome::Shed), 1);
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let store = SpanStore::new(2);
        for _ in 0..5 {
            store.start(labels()).finish(Outcome::Completed);
        }
        assert_eq!(store.recorded().len(), 2);
        assert_eq!(store.dropped(), 3);
        assert_eq!(store.finished(), 5);
        // The survivors are the most recent two.
        let ids: Vec<u64> = store.recorded().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn unfinished_span_shows_as_open() {
        let store = SpanStore::new(8);
        let _span = store.start(labels());
        assert_eq!(store.open_spans(), 1);
    }
}
