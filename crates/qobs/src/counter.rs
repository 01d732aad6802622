//! Sharded atomic event counters.
//!
//! A [`Counters`] set holds one `u64` per named event, replicated across a small
//! fixed number of cache-line-padded shards.  Each thread is pinned to a shard
//! (round-robin at first touch, via a thread-local), so concurrent increments
//! from different threads land on different cache lines and never bounce a line
//! between cores — the failure mode of the single-`AtomicU64`-per-event design
//! under the executor's multi-client submit storms.  Reading a counter sums its
//! slot across shards; totals are exact because increments are atomic, merely
//! *spread*, not sampled.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of shards.  Enough to separate the handful of threads the workspace
/// runs (scheduler, clients, rayon pool leaders) without bloating snapshots.
const NUM_SHARDS: usize = 8;

/// One counter slot, padded to a cache line so adjacent events in the same shard
/// do not false-share with each other either.
#[repr(align(64))]
struct Slot(AtomicU64);

/// A set of named event counters with per-thread sharding.
///
/// Construct with a static name table; increment by event index (callers define
/// an index enum or constants matching the table).  Increments use relaxed
/// ordering — counts are statistics, not synchronization.
pub struct Counters {
    names: &'static [&'static str],
    /// `shards[s]` holds one padded slot per name.
    shards: Vec<Box<[Slot]>>,
}

/// Round-robin assignment of threads to shards.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
}

impl Counters {
    /// Create a counter set over `names`; all counts start at zero.
    pub fn new(names: &'static [&'static str]) -> Self {
        let shards = (0..NUM_SHARDS)
            .map(|_| {
                (0..names.len())
                    .map(|_| Slot(AtomicU64::new(0)))
                    .collect::<Vec<_>>()
                    .into_boxed_slice()
            })
            .collect();
        Counters { names, shards }
    }

    /// The name table this set was built over, in index order.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Increment event `idx` by one on the calling thread's shard.
    #[inline]
    pub fn inc(&self, idx: usize) {
        self.add(idx, 1);
    }

    /// Add `n` to event `idx` on the calling thread's shard.
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        let shard = MY_SHARD.with(|s| *s);
        self.shards[shard][idx].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Exact total for event `idx` (sums all shards).
    pub fn get(&self, idx: usize) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard[idx].0.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot every event as `(name, total)`, in index order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, self.get(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const NAMES: &[&str] = &["a", "b", "c"];

    #[test]
    fn totals_are_exact_across_threads() {
        let c = Arc::new(Counters::new(NAMES));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc(0);
                    c.add(2, 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(0), 8 * 1000);
        assert_eq!(c.get(1), 0);
        assert_eq!(c.get(2), 8 * 1000 * 3);
        assert_eq!(c.snapshot(), vec![("a", 8000), ("b", 0), ("c", 24000)],);
    }
}

/// Dynamically labeled counters, for label sets unknowable at compile time
/// (e.g. one request tally per network connection).  A mutex-held sorted map: strictly for low-rate events — one
/// lock per increment — where the static [`Counters`] table cannot apply.
#[derive(Debug, Default)]
pub struct LabeledCounters {
    entries: Mutex<BTreeMap<String, u64>>,
}

impl LabeledCounters {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter named `label`, creating it at zero first.
    pub fn add(&self, label: &str, n: u64) {
        let mut map = self.entries.lock().unwrap();
        match map.get_mut(label) {
            Some(v) => *v += n,
            None => {
                map.insert(label.to_string(), n);
            }
        }
    }

    /// Increment the counter named `label` by one.
    pub fn inc(&self, label: &str) {
        self.add(label, 1);
    }

    /// The counter's total, 0 if it was never touched.
    pub fn get(&self, label: &str) -> u64 {
        self.entries
            .lock()
            .unwrap()
            .get(label)
            .copied()
            .unwrap_or(0)
    }

    /// `(label, total)` pairs in sorted label order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }
}
