//! The [`Registry`]: one handle bundling counters, spans, and histograms, and
//! the serializable [`ObsSnapshot`] the exporters consume.

use crate::counter::{Counters, LabeledCounters};
use crate::histogram::HistogramSnapshot;
use crate::span::{Outcome, Span, SpanLabels, SpanStore};
use std::sync::Arc;

/// An observability registry for one subsystem instance (e.g. one `Executor`).
///
/// Counters are *always* live — they are cheaper than the lock-held increments
/// they replaced and back public stats APIs.  Span recording (and with it the
/// latency histograms) is gated on the `enabled` flag fixed at construction:
/// when disabled, [`Registry::start_span`] returns `None` and the per-job
/// tracing cost is a single branch on an `Option`.
pub struct Registry {
    enabled: bool,
    counters: Counters,
    labeled: LabeledCounters,
    spans: Arc<SpanStore>,
}

impl Registry {
    /// A registry over the event-name table `names`, with the ring capacity
    /// taken from `QOBS_RING_CAP` (default [`crate::DEFAULT_RING_CAPACITY`]).
    pub fn new(names: &'static [&'static str], enabled: bool) -> Arc<Self> {
        Self::with_capacity(names, enabled, crate::ring_capacity_from_env())
    }

    /// As [`Registry::new`] with an explicit finished-span ring capacity.
    pub fn with_capacity(
        names: &'static [&'static str],
        enabled: bool,
        ring_capacity: usize,
    ) -> Arc<Self> {
        Arc::new(Registry {
            enabled,
            counters: Counters::new(names),
            labeled: LabeledCounters::new(),
            spans: SpanStore::new(ring_capacity),
        })
    }

    /// Whether span/histogram recording is on for this registry.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The (always-live) event counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The (always-live) dynamically labeled counters — events whose label set
    /// is only known at run time, like a server's per-connection request tallies.
    pub fn labeled(&self) -> &LabeledCounters {
        &self.labeled
    }

    /// The span store (empty forever when the registry is disabled).
    pub fn spans(&self) -> &Arc<SpanStore> {
        &self.spans
    }

    /// Open a lifecycle span, or `None` when recording is disabled.
    pub fn start_span(&self, labels: SpanLabels) -> Option<Arc<Span>> {
        if self.enabled {
            Some(self.spans.start(labels))
        } else {
            None
        }
    }

    /// Snapshot everything into an [`ObsSnapshot`] for export.
    pub fn snapshot(&self) -> ObsSnapshot {
        let spans = &self.spans;
        ObsSnapshot {
            enabled: self.enabled,
            counters: self.counters.snapshot(),
            labeled: self.labeled.snapshot(),
            spans: SpanSummary {
                started: spans.started(),
                finished: spans.finished(),
                open: spans.open_spans(),
                dropped: spans.dropped(),
                ring_capacity: spans.capacity(),
                outcomes: Outcome::ALL
                    .iter()
                    .map(|&o| (o.as_str(), spans.outcome_count(o)))
                    .collect(),
            },
            queue_latency: spans.queue_latency(),
            exec_latency: spans.exec_latency(),
            e2e_latency: spans.e2e_latency(),
        }
    }
}

/// Span-store totals inside an [`ObsSnapshot`].
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// Spans opened.
    pub started: u64,
    /// Spans closed with a terminal outcome.
    pub finished: u64,
    /// Spans still open (`started - finished`).
    pub open: u64,
    /// Finished spans evicted from the ring.
    pub dropped: u64,
    /// Ring capacity.
    pub ring_capacity: usize,
    /// `(outcome label, count)` in [`Outcome::ALL`] order.
    pub outcomes: Vec<(&'static str, u64)>,
}

impl SpanSummary {
    /// Count for one outcome label, 0 if absent.
    pub fn outcome(&self, label: &str) -> u64 {
        self.outcomes
            .iter()
            .find(|(l, _)| *l == label)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }
}

/// A point-in-time copy of a [`Registry`], ready for the [`crate::export`]
/// renderers (or any other consumer).
#[derive(Clone, Debug)]
pub struct ObsSnapshot {
    /// Whether span recording was on.
    pub enabled: bool,
    /// `(event name, total)` for every counter, in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(label, total)` for every dynamically labeled counter, sorted by label
    /// (e.g. `worker0_slates`).  Rendered alongside `counters` by every
    /// exporter.
    pub labeled: Vec<(String, u64)>,
    /// Span totals and per-outcome tallies.
    pub spans: SpanSummary,
    /// Submit → slate-pickup latency (ns).
    pub queue_latency: HistogramSnapshot,
    /// Backend execution latency (ns), jobs that reached a backend only.
    pub exec_latency: HistogramSnapshot,
    /// Submit → terminal latency (ns), all jobs.
    pub e2e_latency: HistogramSnapshot,
}

impl ObsSnapshot {
    /// Counter total by name — static event counters first, then labeled
    /// counters — 0 if the name is unknown to both.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .or_else(|| {
                self.labeled
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["rejected", "shed"];

    fn labels() -> SpanLabels {
        SpanLabels {
            client: 1,
            backend: "sv".into(),
            priority: 0,
            kind: "evaluate",
            worker: None,
        }
    }

    #[test]
    fn disabled_registry_counts_but_never_spans() {
        let reg = Registry::with_capacity(NAMES, false, 16);
        reg.counters().inc(0);
        assert!(reg.start_span(labels()).is_none());
        let snap = reg.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.counter("rejected"), 1);
        assert_eq!(snap.spans.started, 0);
        assert!(snap.queue_latency.is_empty());
    }

    #[test]
    fn enabled_registry_snapshots_spans() {
        let reg = Registry::with_capacity(NAMES, true, 16);
        let span = reg.start_span(labels()).unwrap();
        span.mark_scheduled(0);
        span.mark_exec();
        span.finish(Outcome::Completed);
        let snap = reg.snapshot();
        assert_eq!(snap.spans.started, 1);
        assert_eq!(snap.spans.finished, 1);
        assert_eq!(snap.spans.open, 0);
        assert_eq!(snap.spans.outcome("completed"), 1);
        assert_eq!(snap.e2e_latency.count, 1);
    }
}
