//! # qrng — counter-based deterministic randomness
//!
//! Every stochastic consumer in this workspace (shot sampling, noise trajectories,
//! SPSA perturbations) draws from this crate so that **a draw's value is a pure
//! function of `(root seed, stream, counter)`** — never of what executed before it.
//! That is the property that lets the execution service run slates in any order, with
//! retries and failover, and still produce bit-identical results (the
//! "schedule-independent determinism" contract in `qexec`).
//!
//! The design follows the counter-mode DRBG construction (Philox/Threefry-style: a
//! stateless block function over a key and a counter) with SplitMix64's finalizer as
//! the block function.  There is no mutable cross-draw state anywhere: a
//! [`CounterRng`] is just `(key, counter)`, and `draw(n)` is `mix(key, n)`.
//!
//! ## The three-level key schedule
//!
//! ```text
//! SeedPolicy { root }                    — one per backend / optimizer instance
//!     └─ StreamId                        — one per job (or named consumer)
//!         └─ substream(i)                — independent lanes within a job
//!             └─ counter 0, 1, 2, …      — the draws
//! ```
//!
//! * [`SeedPolicy`] wraps the root seed (the typed form of what used to be raw
//!   `u64 seed` constructor parameters).
//! * [`StreamId`] is an opaque derived key: [`StreamId::for_job`] from an executor
//!   job id, [`StreamId::named`] from a label, [`StreamId::substream`] for
//!   independent lanes (e.g. trajectory seeds vs. shot noise within one evaluation).
//! * [`CounterRng`] implements the vendored [`rand::Rng`], so every drawing helper
//!   (`random::<f64>()`, `random_range`, …) works on it unchanged.
//!
//! ## Bit-compatibility note
//!
//! [`mix`] is exactly the SplitMix64-finalizer hash that `qnoise::trajectory_seed`
//! has used since the trajectory-seeding contract landed: `trajectory_seed(s, i)`
//! `== mix(s, i)`.  qnoise delegates here, so the per-trajectory noise schedules of
//! previously recorded runs are unchanged by this crate's introduction.
//!
//! ## Draw accounting
//!
//! Every [`CounterRng`] draw bumps a process-wide relaxed counter, readable via
//! [`total_draws`].  The schedule-independence suite uses deltas of this counter to
//! assert that different executor schedules perform *identical* draw work, not just
//! identical results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Golden-ratio increment (SplitMix64's gamma); also the counter multiplier in
/// [`mix`].
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain-separation constant for job-derived streams.
const DOMAIN_JOB: u64 = 0x4A4F_425F_5354_524D; // "JOB_STRM"

/// Domain-separation constant for label-derived streams.
const DOMAIN_NAMED: u64 = 0x4E41_4D45_445F_5354; // "NAMED_ST"

/// Domain-separation constant for instance-local evaluation-order streams.
const DOMAIN_EVAL: u64 = 0x4556_414C_5F4F_5244; // "EVAL_ORD"

/// Domain-separation constant for substream derivation.
const DOMAIN_SUB: u64 = 0x5355_425F_5354_5245; // "SUB_STRE"

static TOTAL_DRAWS: AtomicU64 = AtomicU64::new(0);

/// The counter-mode block function: a stateless 64-bit hash of `(key, counter)`
/// built from SplitMix64's finalizer.
///
/// Bit-identical to the `qnoise::trajectory_seed(seed, trajectory)` contract hash
/// (qnoise delegates here), so `mix(s, i)` *is* the trajectory-seed of stream `s`,
/// index `i`.
#[inline]
pub const fn mix(key: u64, counter: u64) -> u64 {
    let mut z = key ^ counter.wrapping_mul(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Total [`CounterRng`] draws performed by this process (relaxed, monotone).
///
/// Take deltas around a workload to compare the draw *work* of two schedules; the
/// schedule-independence suite asserts the deltas match across submission orders.
pub fn total_draws() -> u64 {
    TOTAL_DRAWS.load(Ordering::Relaxed)
}

/// An opaque derived stream key: the middle level of the `root → stream →
/// substream → counter` schedule.
///
/// Streams with distinct derivations are computationally independent; equality is
/// exact key equality (two jobs given the same explicit stream intentionally share
/// draws — that is how a retry reproduces its first attempt bit-for-bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(u64);

impl StreamId {
    /// Wraps a raw key without derivation (for persistence/round-tripping).
    pub const fn from_raw(raw: u64) -> Self {
        StreamId(raw)
    }

    /// The raw key.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The stream of one executor job: derived from the service-assigned job id.
    ///
    /// This is the default every submitted job gets when no explicit stream is
    /// chosen (`SubmitOptions::rng_stream` in `qexec`), making a job's stochastic
    /// results a function of *which* job it is, not *when* it ran.
    pub const fn for_job(job_id: u64) -> Self {
        StreamId(mix(DOMAIN_JOB, job_id))
    }

    /// The stream of the `index`-th stream-less evaluation of one backend instance.
    ///
    /// Stochastic backends fall back to this derivation (with a per-instance
    /// counter) for requests that carry no explicit stream — direct trait callers,
    /// pre-executor test harnesses — preserving the historical "batched equals
    /// serial" request-order semantics for them.  Executor-submitted requests
    /// always carry a stream and never touch the counter.
    pub const fn for_eval(index: u64) -> Self {
        StreamId(mix(DOMAIN_EVAL, index))
    }

    /// A stream derived from a human-readable label (e.g. `"spsa"`), for consumers
    /// that are not executor jobs.
    pub fn named(label: &str) -> Self {
        let mut key = DOMAIN_NAMED;
        for chunk in label.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            key = mix(key, u64::from_le_bytes(word));
        }
        StreamId(mix(key, label.len() as u64))
    }

    /// The `index`-th independent lane within this stream (e.g. lane 0 for
    /// trajectory seeds, lane 1 for shot noise, one lane per request of a batch).
    pub const fn substream(self, index: u64) -> Self {
        StreamId(mix(self.0 ^ DOMAIN_SUB, index))
    }
}

/// The typed root-seed policy: how an instance (a backend, an optimizer) turns its
/// configured seed plus a [`StreamId`] into concrete draw keys.
///
/// Replaces raw `u64 seed` constructor parameters across the workspace.  Two
/// instances with the same policy and the same stream draw identically — on any
/// thread, in any order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeedPolicy {
    root: u64,
}

impl SeedPolicy {
    /// A policy rooted at `root`.
    pub const fn new(root: u64) -> Self {
        SeedPolicy { root }
    }

    /// The root seed.
    pub const fn root(self) -> u64 {
        self.root
    }

    /// The concrete draw key of `stream` under this policy.
    pub const fn key(self, stream: StreamId) -> u64 {
        mix(self.root, stream.raw())
    }

    /// A counter-based generator over `stream`, starting at counter 0.
    pub const fn rng(self, stream: StreamId) -> CounterRng {
        CounterRng::new(self.key(stream))
    }
}

impl Default for SeedPolicy {
    fn default() -> Self {
        SeedPolicy::new(0)
    }
}

/// A counter-based generator: `(key, counter)` with `draw(n) = mix(key, n)`.
///
/// Implements the vendored [`rand::Rng`], so all drawing helpers (`random`,
/// `random_range`) work unchanged.  Cloning forks the exact position; there is no
/// hidden state, so any draw can be recomputed from the key and its index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
    counter: u64,
}

impl CounterRng {
    /// A generator over `key` starting at counter 0.
    pub const fn new(key: u64) -> Self {
        CounterRng { key, counter: 0 }
    }

    /// A generator resumed at an explicit counter position.
    pub const fn from_parts(key: u64, counter: u64) -> Self {
        CounterRng { key, counter }
    }

    /// The stream key.
    pub const fn key(&self) -> u64 {
        self.key
    }

    /// Draws performed so far (the counter position).
    pub const fn draws(&self) -> u64 {
        self.counter
    }

    /// Standard normal via Box–Muller (consumes two draws).
    pub fn normal(&mut self) -> f64 {
        use rand::Rng as _;
        let u1: f64 = self.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = self.random();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Uniform index in `[0, n)` (`n > 0`).
    pub fn choice(&mut self, n: u64) -> u64 {
        use rand::Rng as _;
        self.random_range(0..n)
    }
}

impl rand::Rng for CounterRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let value = mix(self.key, self.counter);
        self.counter += 1;
        TOTAL_DRAWS.fetch_add(1, Ordering::Relaxed);
        value
    }
}

impl rand::SeedableRng for CounterRng {
    fn seed_from_u64(state: u64) -> Self {
        CounterRng::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    /// The trajectory-seeding hash as written in qnoise before this crate existed.
    fn legacy_trajectory_seed(seed: u64, trajectory: u64) -> u64 {
        let mut z = seed ^ trajectory.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn mix_matches_the_trajectory_seed_contract() {
        for &s in &[0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            for i in 0..64 {
                assert_eq!(mix(s, i), legacy_trajectory_seed(s, i));
            }
        }
    }

    #[test]
    fn draws_are_pure_functions_of_key_and_counter() {
        let mut a = CounterRng::new(7);
        let first: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        // Re-deriving any position reproduces the draw with no prior history.
        for (i, &v) in first.iter().enumerate() {
            let mut fresh = CounterRng::from_parts(7, i as u64);
            assert_eq!(fresh.next_u64(), v);
        }
        assert_eq!(a.draws(), 16);
    }

    #[test]
    fn streams_and_substreams_decorrelate() {
        let policy = SeedPolicy::new(99);
        let a = policy.key(StreamId::for_job(0));
        let b = policy.key(StreamId::for_job(1));
        assert_ne!(a, b);
        let s = StreamId::named("spsa");
        assert_ne!(s.substream(0), s.substream(1));
        assert_ne!(s.substream(0), StreamId::named("spsa-other").substream(0));
        // Named derivation is injective-ish on realistic labels: prefix-extended
        // labels must not collide.
        assert_ne!(StreamId::named("ab"), StreamId::named("abab"));
    }

    #[test]
    fn same_policy_same_stream_is_bit_identical_anywhere() {
        let policy = SeedPolicy::new(1234);
        let stream = StreamId::for_job(17);
        let mut x = policy.rng(stream);
        let mut y = policy.rng(stream);
        // Interleave arbitrary extra work on y's clone: positions still agree.
        let mut noise = policy.rng(StreamId::for_job(18));
        for _ in 0..10 {
            let _ = noise.random::<f64>();
            assert_eq!(x.next_u64(), y.next_u64());
        }
    }

    #[test]
    fn uniform_helpers_behave() {
        let mut rng = SeedPolicy::new(5).rng(StreamId::named("uniformity"));
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[rng.choice(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut acc = 0.0;
        for _ in 0..4_000 {
            acc += rng.normal();
        }
        assert!((acc / 4_000.0).abs() < 0.1, "normal mean {}", acc / 4_000.0);
    }

    #[test]
    fn total_draws_counts_every_draw() {
        let before = total_draws();
        let mut rng = CounterRng::new(3);
        for _ in 0..32 {
            let _ = rng.next_u64();
        }
        assert!(total_draws() - before >= 32);
    }
}
