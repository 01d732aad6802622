//! # qobs — zero-overhead-when-off observability for the TreeVQA stack
//!
//! The execution service (`qexec`) schedules jobs across fallible backends, the
//! simulator (`qsim`) amortizes compiled circuits over thousands of parameter
//! re-binds, and until this crate existed neither could say where the time went:
//! `Executor::stats()` was seven ad-hoc counters behind the queue lock and nothing
//! recorded which gate sequences were hot.  `qobs` supplies the missing primitives,
//! built so that the *disabled* configuration costs nothing measurable (one branch
//! per site); what the *enabled* configuration costs is timed by the quick bench's
//! `exec/obs/jobs_on/32x12q` row against its untraced twin `exec/jobs/4clients_32x12q`:
//!
//! * [`Counters`] — a sharded set of named atomic event counters.  Each thread
//!   increments its own cache-line-padded shard with a relaxed `fetch_add`, so
//!   concurrent writers never contend on one line; reads sum the shards.
//! * [`Histogram`] — a fixed 64-bucket log₂ latency histogram.  Recording a
//!   nanosecond value is one `leading_zeros` plus three relaxed atomic adds; no
//!   allocation, no lock, no floating point.  Quantiles are estimated from the
//!   bucket boundaries at snapshot time.
//! * [`SpanStore`] / [`Span`] — a job-lifecycle span recorder.  A span is opened
//!   at submit, stamped as it is scheduled into a slate and handed to a backend,
//!   and closed exactly once with a terminal [`Outcome`]; finished spans land in a
//!   fixed-capacity ring buffer (overflow evicts the oldest and counts it as
//!   dropped, it never blocks the hot path) and simultaneously feed the
//!   queue/exec/end-to-end histograms.
//! * [`Registry`] — bundles the above behind one handle, snapshots into the
//!   plain-data [`ObsSnapshot`], and renders through [`export`] as a
//!   human-readable table, a JSON document, or Prometheus-style exposition text.
//!
//! ## Enablement model
//!
//! Two switches exist, and they deliberately differ in scope:
//!
//! 1. **Per-registry** — every [`Registry`] is constructed enabled or disabled
//!    (`qexec`'s builder exposes this as `.observability(bool)`).  A disabled
//!    registry still counts events — counters are cheaper than the lock-held
//!    increments they replaced and back `Executor::stats()`, which callers rely on
//!    unconditionally — but records no spans and no histograms, and hands out no
//!    span handles, so the per-job tracing cost vanishes.
//! 2. **Process-wide** — [`enabled()`] reads the `QOBS` environment variable once
//!    (any value other than `0`/`false`/empty turns it on) with a programmatic
//!    override via [`set_enabled`].  Library-layer instruments that have no
//!    registry to hang off — the `vqa` compiled-cache counters — consult this
//!    flag, as does `qexec`'s builder for its default.
//!
//! Timestamps come from [`now_ns`]: monotonic nanoseconds since the first
//! observation in the process, so spans serialize as small integers and are
//! immune to wall-clock steps.
//!
//! The crate has no dependencies (JSON is rendered by hand in [`export`]), keeping
//! it at the very bottom of the dependency graph where `qsim` and `vqa` can use it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod counter;
pub mod export;
mod histogram;
mod registry;
mod span;

pub use counter::{Counters, LabeledCounters};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{ObsSnapshot, Registry, SpanSummary};
pub use span::{FinishedSpan, Outcome, Span, SpanLabels, SpanStore};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default capacity of a [`SpanStore`] ring buffer (overridable via
/// `QOBS_RING_CAP` or [`Registry::with_capacity`]).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

// Process-wide enablement: 0 = follow the QOBS env var, 1 = forced on, 2 = forced off.
static FORCED: AtomicU8 = AtomicU8::new(0);
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether process-wide observability is on.
///
/// Reads the `QOBS` environment variable once per process (`1`/`true`/anything
/// except `0`, `false`, or the empty string enables), unless [`set_enabled`] has
/// forced a value.  Library-level instruments (the `vqa` cache counters) check
/// this; the `qexec` builder uses it as the default for its per-executor flag.
pub fn enabled() -> bool {
    match FORCED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *ENV_ENABLED.get_or_init(|| {
            std::env::var("QOBS")
                .map(|v| {
                    let v = v.trim();
                    !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
                })
                .unwrap_or(false)
        }),
    }
}

/// Force the process-wide flag on or off, overriding the `QOBS` environment
/// variable.  Used by the `exec_trace` example (always on) and by tests that must
/// exercise both modes in one process.
pub fn set_enabled(on: bool) {
    FORCED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Ring capacity from the `QOBS_RING_CAP` environment variable, or the default.
pub fn ring_capacity_from_env() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("QOBS_RING_CAP")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_RING_CAPACITY)
    })
}

/// Monotonic nanoseconds since the first `now_ns` call in this process.
///
/// All span timestamps share this epoch, so durations are plain subtractions and
/// exported values stay small.  Saturates at `u64::MAX` (≈584 years of uptime).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    let nanos = epoch.elapsed().as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn ring_capacity_default_without_env() {
        // QOBS_RING_CAP is not set in the test environment.
        assert_eq!(ring_capacity_from_env(), DEFAULT_RING_CAPACITY);
    }
}
