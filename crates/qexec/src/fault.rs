//! Deterministic fault injection for exercising the supervision, retry, and shedding
//! paths.
//!
//! A [`FaultPlan`] is a pure function from `(seed, call index)` to an optional
//! [`FaultKind`]: the decision for call *n* is a counter-based SplitMix64 hash, never a
//! stateful RNG stream, so a failure scenario replays *exactly* — same seed, same
//! faults at the same driver calls — regardless of how many times it is run or what
//! ran before it.  [`FaultyBackend`] threads a plan through any [`vqa::Backend`],
//! ticking the counter once per driver entry point (`evaluate`, `evaluate_batch`,
//! `probe`) **before** delegating.
//!
//! Two failure severities map onto the service's supervision contract:
//!
//! - [`FaultKind::Panic`] unwinds with an ordinary string payload — the executor
//!   quarantines the backend and the canary/readmission lifecycle engages.
//! - [`FaultKind::Transient`] unwinds with a [`TransientFault`] payload — the executor
//!   fails (or retries) the affected jobs without quarantining, modelling a
//!   recoverable glitch rather than a corrupted driver.
//!
//! [`Backend::recover`] deliberately neither ticks the counter nor faults: the
//! supervisor must always be able to rebuild a driver, and recovery calls happening or
//! not happening must not shift which later calls fault.
//!
//! This module is test/bench support: it ships in the library (the soak CI job and the
//! overload bench drive it), but production registrations simply never wrap their
//! drivers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vqa::{Backend, BackendCaps, EvalRequest, EvalResult, InitialState};

/// What a scheduled fault does when its driver call arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind with a plain payload: the executor treats this as a corrupted driver and
    /// quarantines the backend.
    Panic,
    /// Unwind with a [`TransientFault`] payload: jobs fail (or retry) but the backend
    /// stays in service.
    Transient,
    /// Sleep this many milliseconds, then execute normally — exercises deadline and
    /// timeout paths without failing anything.
    Delay(u64),
}

/// The panic payload [`FaultyBackend`] unwinds with for [`FaultKind::Transient`]
/// faults.  The executor downcasts for this marker to distinguish a recoverable glitch
/// (no quarantine) from a corrupted driver (quarantine).
#[derive(Debug)]
pub struct TransientFault(pub String);

/// A seeded, replayable schedule of injected faults.
///
/// Rate-based faults are decided per call by hashing `(seed, call)`; scripted faults
/// ([`FaultPlan::with_fault_at`]) override the rates at their exact call index.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    panic_rate: f64,
    transient_rate: f64,
    scripted: Vec<(u64, Option<FaultKind>)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults (add rates or scripted faults with the
    /// builder methods).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_rate: 0.0,
            transient_rate: 0.0,
            scripted: Vec::new(),
        }
    }

    /// Sets the per-call probability of a hard [`FaultKind::Panic`].
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-call probability of a [`FaultKind::Transient`] fault.
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Scripts an exact fault at driver call `call` (0-based), overriding the rates at
    /// that index.  Pass `None` to force call `call` fault-free.
    pub fn with_fault_at(mut self, call: u64, kind: Option<FaultKind>) -> Self {
        self.scripted.push((call, kind));
        self
    }

    /// The fault (if any) injected at driver call `call` — a pure function of
    /// `(seed, call)` plus the scripted overrides.
    pub fn decide(&self, call: u64) -> Option<FaultKind> {
        if let Some(&(_, kind)) = self.scripted.iter().rev().find(|&&(c, _)| c == call) {
            return kind;
        }
        let u = unit_hash(self.seed, call);
        if u < self.panic_rate {
            Some(FaultKind::Panic)
        } else if u < self.panic_rate + self.transient_rate {
            Some(FaultKind::Transient)
        } else {
            None
        }
    }
}

/// SplitMix64 finalizer over `(seed, counter)`, mapped to `[0, 1)`.
fn unit_hash(seed: u64, call: u64) -> f64 {
    let mut z = seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Counters a [`FaultyBackend`] updates as it injects — grab a handle via
/// [`FaultyBackend::stats`] **before** boxing the backend into an executor, and assert
/// on it afterwards.
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    calls: Arc<AtomicU64>,
    panics: Arc<AtomicU64>,
    transients: Arc<AtomicU64>,
    delays: Arc<AtomicU64>,
}

impl FaultStats {
    /// Driver entry points seen so far (each ticks the fault counter once).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Hard panics injected so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::SeqCst)
    }

    /// Transient faults injected so far.
    pub fn transients(&self) -> u64 {
        self.transients.load(Ordering::SeqCst)
    }

    /// Delays injected so far.
    pub fn delays(&self) -> u64 {
        self.delays.load(Ordering::SeqCst)
    }
}

/// A [`Backend`] wrapper that injects the faults its [`FaultPlan`] schedules.
///
/// Capabilities, naming, and the shot ledger delegate to the inner backend, so a
/// faulty registration is indistinguishable from a healthy one at submission time —
/// exactly the situation supervision has to handle.
#[derive(Debug)]
pub struct FaultyBackend<B: Backend> {
    inner: B,
    plan: FaultPlan,
    stats: FaultStats,
}

impl<B: Backend> FaultyBackend<B> {
    /// Wraps `inner`, injecting per `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            plan,
            stats: FaultStats::default(),
        }
    }

    /// A live handle onto the injection counters (clone it out before boxing the
    /// backend into an executor).
    pub fn stats(&self) -> FaultStats {
        self.stats.clone()
    }

    /// Ticks the call counter and injects the scheduled fault, if any.  Runs *before*
    /// delegation, so a faulted call never half-executes on the inner driver.
    fn tick(&self) {
        let call = self.stats.calls.fetch_add(1, Ordering::SeqCst);
        match self.plan.decide(call) {
            Some(FaultKind::Panic) => {
                self.stats.panics.fetch_add(1, Ordering::SeqCst);
                panic!("injected fault at driver call {call}");
            }
            Some(FaultKind::Transient) => {
                self.stats.transients.fetch_add(1, Ordering::SeqCst);
                std::panic::panic_any(TransientFault(format!(
                    "injected transient fault at driver call {call}"
                )));
            }
            Some(FaultKind::Delay(ms)) => {
                self.stats.delays.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            None => {}
        }
    }
}

impl<B: Backend> Backend for FaultyBackend<B> {
    fn evaluate(
        &mut self,
        circuit: &qcircuit::Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &qop::PauliOp,
        free_ops: &[&qop::PauliOp],
    ) -> (f64, Vec<f64>) {
        self.tick();
        self.inner
            .evaluate(circuit, params, initial, charged_op, free_ops)
    }

    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        self.tick();
        self.inner.evaluate_batch(requests)
    }

    fn probe(
        &mut self,
        circuit: &qcircuit::Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &qop::PauliOp,
    ) -> f64 {
        self.tick();
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
        self.inner.name()
    }

    fn capabilities(&self) -> BackendCaps {
        self.inner.capabilities()
    }

    // No tick, no fault: recovery must always work, and whether it runs must not shift
    // which later calls fault.
    fn recover(&mut self) {
        self.inner.recover();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_a_pure_function_of_seed_and_call() {
        let plan = FaultPlan::new(42)
            .with_panic_rate(0.2)
            .with_transient_rate(0.2);
        let first: Vec<_> = (0..64).map(|c| plan.decide(c)).collect();
        let second: Vec<_> = (0..64).map(|c| plan.decide(c)).collect();
        assert_eq!(first, second);
        // A different seed gives a different schedule (overwhelmingly likely over 64
        // calls at 40% fault rate).
        let other = FaultPlan::new(43)
            .with_panic_rate(0.2)
            .with_transient_rate(0.2);
        assert_ne!(first, (0..64).map(|c| other.decide(c)).collect::<Vec<_>>());
    }

    #[test]
    fn scripted_faults_override_rates() {
        let plan = FaultPlan::new(7)
            .with_panic_rate(1.0)
            .with_fault_at(3, None)
            .with_fault_at(5, Some(FaultKind::Transient));
        assert_eq!(plan.decide(0), Some(FaultKind::Panic));
        assert_eq!(plan.decide(3), None);
        assert_eq!(plan.decide(5), Some(FaultKind::Transient));
    }

    #[test]
    fn rates_land_near_their_targets() {
        let plan = FaultPlan::new(1234).with_transient_rate(0.25);
        let hits = (0..4000)
            .filter(|&c| plan.decide(c) == Some(FaultKind::Transient))
            .count();
        assert!((800..1200).contains(&hits), "got {hits} of 4000");
    }
}
