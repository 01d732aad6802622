//! Execution backends: how `⟨ψ(θ)|H|ψ(θ)⟩` is produced and how shots are charged.
//!
//! The paper evaluates TreeVQA as a plug-and-play wrapper over several execution
//! substrates (noiseless statevector, shot-sampled, noisy device models, Pauli
//! propagation).  The [`Backend`] trait captures the one operation every substrate must
//! provide — evaluate one *charged* observable (costing shots) and any number of *free*
//! observables (classical recombination / tracking, which the paper notes costs no quantum
//! shots) on the same prepared state — plus a **batch** form, [`Backend::evaluate_batch`],
//! that takes a whole slice of [`EvalRequest`]s at once.
//!
//! # Drivers
//!
//! Two implementations live in this crate.  All dense execution — exact,
//! shot-sampled, analytically attenuated, trajectory-noisy — is **one** driver,
//! [`crate::Dense`], whose four public names differ only in the readout stage that ends
//! its pipeline; this module holds what that pipeline is built from (the
//! circuit and observable caches, the scratch pool, the single `measure` readout).
//! [`PauliPropagationBackend`] never forms a dense state.

use crate::task::InitialState;
use qcircuit::Circuit;
use qop::{PauliOp, Statevector, TermBasis};
use qrng::StreamId;
use qsim::{PauliPropagator, PauliPropagatorConfig, ShotLedger};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One evaluation of a parameterized ansatz against a charged observable (plus free
/// tracking observables), submitted to [`Backend::evaluate_batch`].
#[derive(Clone, Copy, Debug)]
pub struct EvalRequest<'a> {
    /// The ansatz circuit (typically shared by every request of a batch).
    pub circuit: &'a Circuit,
    /// The bound parameter vector for this request.
    pub params: &'a [f64],
    /// The initial state the ansatz is applied to.
    pub initial: &'a InitialState,
    /// The observable whose estimation is charged shots.
    pub charged_op: &'a PauliOp,
    /// Observables evaluated exactly at zero shot cost on the same state.
    pub free_ops: &'a [&'a PauliOp],
    /// The `qrng` stream this request's stochastic draws are keyed by, when the
    /// caller pinned one (the execution service derives one per job, making every
    /// draw a pure function of the job rather than of execution order).  `None`
    /// falls back to the backend's instance-local evaluation-order stream, which
    /// preserves the historical batched-equals-serial request-order semantics for
    /// direct trait callers.
    pub stream: Option<StreamId>,
}

impl<'a> EvalRequest<'a> {
    /// A request without a pinned draw stream: what the [`Backend::evaluate`] and
    /// [`Backend::probe`] entry points submit on the caller's behalf.
    pub(crate) fn unpinned(
        circuit: &'a Circuit,
        params: &'a [f64],
        initial: &'a InitialState,
        charged_op: &'a PauliOp,
        free_ops: &'a [&'a PauliOp],
    ) -> Self {
        EvalRequest {
            circuit,
            params,
            initial,
            charged_op,
            free_ops,
            stream: None,
        }
    }
}

/// The draw stream of a request: its pinned stream, or the backend's next
/// evaluation-order fallback stream (advancing `evals_issued`).
pub(crate) fn resolve_stream(evals_issued: &mut u64, stream: Option<StreamId>) -> StreamId {
    stream.unwrap_or_else(|| {
        let s = StreamId::for_eval(*evals_issued);
        *evals_issued += 1;
        s
    })
}

/// The outcome of one [`EvalRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct EvalResult {
    /// The (possibly noise-affected) charged-observable estimate.
    pub charged: f64,
    /// Exact tracking values, one per `free_ops` entry.
    pub free: Vec<f64>,
    /// Shots charged for this request (lets callers attribute cost per request).
    pub shots: u64,
}

/// What an execution substrate can do, advertised to the `qexec` execution service for
/// capability negotiation: a client can require a backend that natively batches, models
/// shot sampling, models device noise, or simulates stochastic trajectories, and the
/// executor matches (or rejects) the requirement at submission time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendCaps {
    /// Has a native batched fast path (compiled-circuit cache + scratch-state pool), so
    /// multi-request submissions amortize compilation and parallelize across states.
    pub batch: bool,
    /// Models finite-shot sampling noise on the charged observable.
    pub shots: bool,
    /// Models device noise (analytic attenuation or simulated error channels).
    pub noise: bool,
    /// Simulates noise by stochastic Pauli-trajectory rollouts (keyed per evaluation
    /// by the counter-based `qrng` streams, so trajectory schedules are independent of
    /// execution order).
    pub trajectories: bool,
    /// Evaluations are **idempotent**: re-executing a stream-carrying request consumes
    /// no cross-request mutable state, so the execution service may retry a failed job
    /// — or execute a half-failed batch twice — without changing any *other* job's
    /// result.  True for the exact backends, and since the counter-based `qrng`
    /// rework also for the stochastic ones: their draws are pure functions of
    /// `(seed policy, request stream, counter)`, never of what executed before.
    pub retry_safe: bool,
}

impl BackendCaps {
    /// Whether this capability set satisfies every capability required by `req`.
    pub fn satisfies(&self, req: &BackendCaps) -> bool {
        self.first_missing(req).is_none()
    }

    /// The first required capability missing from `self`, if any (for error reporting).
    pub fn first_missing(&self, req: &BackendCaps) -> Option<&'static str> {
        if req.batch && !self.batch {
            Some("batch")
        } else if req.shots && !self.shots {
            Some("shots")
        } else if req.noise && !self.noise {
            Some("noise")
        } else if req.trajectories && !self.trajectories {
            Some("trajectories")
        } else if req.retry_safe && !self.retry_safe {
            Some("retry_safe")
        } else {
            None
        }
    }
}

/// A quantum-execution substrate.
pub trait Backend {
    /// Prepares `|ψ(θ)⟩ = U(θ)|init⟩` once, charges shots for estimating `charged_op`, and
    /// additionally returns exact "tracking" expectations for each operator in `free_ops`
    /// at zero shot cost.
    ///
    /// Returns `(charged_value, free_values)`.
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>);

    /// Evaluates a whole batch of requests, in request order.
    ///
    /// The default implementation is a serial loop over [`Backend::evaluate`], so every
    /// backend supports batching; the dense driver overrides it with its
    /// compiled-circuit + scratch-pool pipeline ([`crate::Dense`]).  Implementations
    /// must preserve request-order semantics (shot charging, RNG consumption) so batched
    /// and serial execution yield identical results.
    ///
    /// The default is stream-blind: it goes through [`Backend::evaluate`].
    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        requests
            .iter()
            .map(|r| {
                let before = self.shots_used();
                let (charged, free) =
                    self.evaluate(r.circuit, r.params, r.initial, r.charged_op, r.free_ops);
                EvalResult {
                    charged,
                    free,
                    shots: self.shots_used() - before,
                }
            })
            .collect()
    }

    /// Evaluates `op` on the prepared state **without charging any shots**.
    ///
    /// Used for metric probes (fidelity-vs-shots histories) and for TreeVQA's
    /// post-processing step, both of which the paper treats as classical recombination of
    /// already-logged data rather than additional quantum execution.
    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64;

    /// Total shots charged so far.
    fn shots_used(&self) -> u64;

    /// Resets the shot counter (used when reusing a backend across experiment arms).
    fn reset_shots(&mut self);

    /// Shots charged per Pauli term per evaluation (the paper's 4096 constant by default).
    fn shots_per_pauli(&self) -> u64;

    /// Human-readable backend name.
    fn name(&self) -> &'static str;

    /// The capabilities this backend advertises to the execution service (default: none
    /// beyond plain evaluation — conservative for third-party implementations).
    fn capabilities(&self) -> BackendCaps {
        BackendCaps::default()
    }

    /// Discards every rebuildable internal structure (compiled-circuit caches, scratch
    /// statevector pools) so the next evaluation rebuilds them from scratch.
    ///
    /// The execution service calls this on a backend it has **quarantined** after a
    /// driver panic, before probing it with a canary job: a panic may have unwound
    /// mid-kernel and left scratch state partially written, so recovery must not trust
    /// anything derived.  Results are unaffected — caches and pools only amortize work.
    /// The default is a no-op for backends that hold no rebuildable state.
    fn recover(&mut self) {}
}

/// Maximum number of scratch statevectors live at once in a batched evaluation; larger
/// batches are processed in chunks of this size (request order is preserved).  Each
/// chunk shares one binding of the compiled circuit's diagonal passes.
pub fn batch_chunk() -> usize {
    16
}

/// A tiny most-recently-used cache, searched by a caller-supplied entry predicate.
///
/// Optimizer loops evaluate one ansatz (and one operator set) at thousands of parameter
/// vectors, so the common case is a permanent hit on the front entry (one equality check
/// per lookup).  The capacity is a handful rather than one because a TreeVQA round
/// rotates through its active clusters' operator sets; an LRU of that depth keeps each
/// entry's derived data amortized instead of thrashing.
#[derive(Debug)]
pub(crate) struct Lru<E> {
    /// Most-recently-used first.
    entries: Vec<E>,
    capacity: usize,
}

impl<E> Default for Lru<E> {
    fn default() -> Self {
        Lru {
            entries: Vec::new(),
            capacity: circuit_cache_capacity(),
        }
    }
}

impl<E> Lru<E> {
    /// Returns the entry satisfying `is_entry`, building it with `make` on a miss (and
    /// evicting the least-recently-used entry past capacity).
    fn lookup(
        &mut self,
        is_entry: impl Fn(&E) -> bool,
        make: impl FnOnce() -> E,
        tally: &Tally,
    ) -> &E {
        let hit = self.entries.iter().position(is_entry);
        tally.add(hit.is_some() as u64, hit.is_none() as u64);
        match hit {
            Some(pos) => self.entries[..=pos].rotate_right(1),
            None => {
                self.entries.insert(0, make());
                self.entries.truncate(self.capacity);
            }
        }
        &self.entries[0]
    }

    /// Drops every entry (quarantine recovery rebuilds derived data from scratch; see
    /// [`Backend::recover`]).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A process-wide pair of tallies — cache `(hits, misses)`, or strings `(requested,
/// evaluated)` — recorded only when observability is on ([`qobs::enabled`]) so the
/// disabled path stays branch-plus-nothing.
struct Tally([AtomicU64; 2]);

impl Tally {
    const fn new() -> Self {
        Tally([AtomicU64::new(0), AtomicU64::new(0)])
    }

    fn add(&self, first: u64, second: u64) {
        if qobs::enabled() {
            self.0[0].fetch_add(first, Ordering::Relaxed);
            self.0[1].fetch_add(second, Ordering::Relaxed);
        }
    }

    fn get(&self) -> (u64, u64) {
        let [first, second] = &self.0;
        (
            first.load(Ordering::Relaxed),
            second.load(Ordering::Relaxed),
        )
    }
}

static CIRCUIT_TALLY: Tally = Tally::new();
static OBSERVABLE_TALLY: Tally = Tally::new();
/// Operator terms the drivers were asked to read out vs distinct strings the term bases
/// actually evaluated, per readout.
static STRING_TALLY: Tally = Tally::new();

/// Default cache depth of the dense driver: the operator sets of eight live TreeVQA
/// clusters.
pub(crate) const DEFAULT_CIRCUIT_CACHE_CAPACITY: usize = 8;

/// Capacity of the dense driver's LRU caches: compiled circuits (with the readout
/// stage's per-circuit plan) and the observable (term-basis) cache.
///
/// Tune with the `VQA_COMPILED_CACHE` environment variable (read once per process,
/// minimum 1, default [`struct@std::sync::OnceLock`]-cached 8): raise it when a workload
/// rotates through many distinct circuits or operator sets (mixed-ansatz job streams
/// through one executor backend, TreeVQA runs with more than eight live clusters), lower
/// it to bound memory when circuits are huge.  Capacity only affects amortization, never
/// results.
pub fn circuit_cache_capacity() -> usize {
    use std::sync::OnceLock;
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("VQA_COMPILED_CACHE")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_CIRCUIT_CACHE_CAPACITY)
    })
}

/// `(hits, misses)` across every backend's circuit-derived-data cache (compiled
/// circuits, trajectory plans) since process start.
///
/// Only populated when process-wide observability is on (`QOBS=1` or
/// [`qobs::set_enabled`]); always `(0, 0)` otherwise.  A low hit rate under a mixed
/// job stream is the signal to raise `VQA_COMPILED_CACHE`
/// ([`circuit_cache_capacity`]).
pub fn circuit_cache_stats() -> (u64, u64) {
    CIRCUIT_TALLY.get()
}

/// `(hits, misses)` across every dense backend's observable cache — the LRU of
/// [`qop::TermBasis`] plans keyed by a request's ordered operator set — since process
/// start.  One lookup is counted per run of consecutive equal operator sets in a batch.
///
/// Populated under the same condition as [`circuit_cache_stats`], on separate counters.
pub fn observable_cache_stats() -> (u64, u64) {
    OBSERVABLE_TALLY.get()
}

/// `(strings requested, strings evaluated)` over every state readout since process
/// start: the operator terms the drivers were asked for vs the distinct Pauli strings
/// the term bases evaluated (9 × 23 → 23 for a root cluster of eight 12-site TFIM tasks).
/// Their ratio is the deduplication factor of the paper's term padding.
///
/// Populated under the same condition as [`circuit_cache_stats`].
pub fn observable_dedup_stats() -> (u64, u64) {
    STRING_TALLY.get()
}

/// An LRU of per-circuit derived data, keyed by circuit equality.
pub(crate) type CircuitCache<V> = Lru<(Circuit, V)>;

impl<V> Lru<(Circuit, V)> {
    /// Returns the cached value for `circuit`, building it with `make` on a miss.
    pub(crate) fn get_or_insert_with(
        &mut self,
        circuit: &Circuit,
        make: impl FnOnce(&Circuit) -> V,
    ) -> &V {
        let entry = self.lookup(
            |(cached, _)| cached == circuit,
            || (circuit.clone(), make(circuit)),
            &CIRCUIT_TALLY,
        );
        &entry.1
    }
}

/// The dense driver's observable cache: one [`TermBasis`] per ordered operator set
/// `[charged, free…]`, same LRU shape and capacity as the compiled-circuit cache.
///
/// Entries are found by structural equality ([`TermBasis::is_basis_of`]), so jobs that
/// arrive over the wire (each with its own deserialized copy) hit like jobs that share
/// an `Arc`.  Within a batch, consecutive requests are first compared by address — jobs
/// of one cluster share their `Arc<PauliOp>`s — so a uniform batch costs one lookup.
pub(crate) type ObservableCache = Lru<Arc<TermBasis>>;

/// Whether two requests measure the same ordered operator set (same objects, or equal
/// operators).
fn same_observables(a: &EvalRequest<'_>, b: &EvalRequest<'_>) -> bool {
    let same = |x: &PauliOp, y: &PauliOp| std::ptr::eq(x, y) || x == y;
    same(a.charged_op, b.charged_op)
        && a.free_ops.len() == b.free_ops.len()
        && a.free_ops.iter().zip(b.free_ops).all(|(x, y)| same(x, y))
}

impl Lru<Arc<TermBasis>> {
    /// The basis of the ordered set `[charged, free…]`, built on a miss.
    pub(crate) fn get(&mut self, charged: &PauliOp, free: &[&PauliOp]) -> Arc<TermBasis> {
        let ops = || std::iter::once(charged).chain(free.iter().copied());
        let basis = self.lookup(
            |basis| basis.is_basis_of(ops()),
            || Arc::new(TermBasis::new(&ops().collect::<Vec<_>>())),
            &OBSERVABLE_TALLY,
        );
        Arc::clone(basis)
    }

    /// Every request's basis, with one lookup per run of consecutive requests that
    /// measure the same operator set.
    pub(crate) fn for_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<Arc<TermBasis>> {
        let mut bases: Vec<Arc<TermBasis>> = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let basis = match bases.last() {
                Some(last) if same_observables(&requests[i - 1], req) => Arc::clone(last),
                _ => self.get(req.charged_op, req.free_ops),
            };
            bases.push(basis);
        }
        bases
    }
}

/// One in-flight request's scratch: the statevector it is prepared into and the
/// per-string values its readout produces.
#[derive(Debug)]
pub(crate) struct Scratch {
    pub(crate) state: Statevector,
    pub(crate) values: Vec<f64>,
}

/// **The** readout: evaluates every distinct string of `basis` once on the slot's
/// prepared state, into the slot's value vector.  Charged and free values (exact,
/// sampled, attenuated, trajectory-averaged) are all contracted from that vector.
pub(crate) fn measure(basis: &TermBasis, slot: &mut Scratch) {
    basis.evaluate(&slot.state, &mut slot.values);
    STRING_TALLY.add(basis.num_terms() as u64, basis.num_strings() as u64);
}

/// The exact values of a basis's free operators (operators `1..`) from one readout.
pub(crate) fn free_values(basis: &TermBasis, values: &[f64]) -> Vec<f64> {
    (1..basis.num_ops())
        .map(|op| basis.op_value(op, values))
        .collect()
}

/// A pool of reusable scratch slots, one per in-flight execution.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
    pub(crate) slots: Vec<Scratch>,
}

impl ScratchPool {
    /// `count` scratch slots of the right register size (grown on demand).
    pub(crate) fn slots(&mut self, count: usize, num_qubits: usize) -> &mut [Scratch] {
        self.slots.retain(|s| s.state.num_qubits() == num_qubits);
        while self.slots.len() < count {
            self.slots.push(Scratch {
                state: Statevector::zero_state(num_qubits),
                values: Vec::new(),
            });
        }
        &mut self.slots[..count]
    }

    /// Frees every pooled slot (quarantine recovery: a mid-kernel unwind may have left
    /// a scratch state partially written; the pool regrows on demand).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Whether two requests run the same circuit (pointer equality short-circuits the
/// structural comparison).
pub(crate) fn same_circuit(a: &EvalRequest<'_>, b: &EvalRequest<'_>) -> bool {
    std::ptr::eq(a.circuit, b.circuit) || a.circuit == b.circuit
}

/// Pauli-propagation backend for large registers (no dense state is ever formed).
///
/// Only basis-state initial states are supported; optionally applies the per-layer
/// depolarizing attenuation of the large-scale noisy study
/// ([`PauliPropagationBackend::with_layer_depolarizing`]).  Uses the trait's default
/// (serial) batch implementation: the propagator is Heisenberg-picture, so there is no
/// shared prepared state to amortize.
#[derive(Debug)]
pub struct PauliPropagationBackend {
    propagator: PauliPropagator,
    shots_per_pauli: u64,
    ledger: ShotLedger,
    /// `(rate, layers)` of the per-layer depolarizing channel; `None` = ideal.
    layer_depolarizing: Option<(f64, usize)>,
}

impl PauliPropagationBackend {
    /// Creates a noiseless Pauli-propagation backend.
    pub fn new(config: PauliPropagatorConfig, shots_per_pauli: u64) -> Self {
        PauliPropagationBackend {
            propagator: PauliPropagator::new(config),
            shots_per_pauli,
            ledger: ShotLedger::new(),
            layer_depolarizing: None,
        }
    }

    /// Section 8.4's noisy configuration: a depolarizing layer of strength `rate` on every
    /// qubit after each of the ansatz' `layers` repetitions, so evaluations see every
    /// term of weight `w` damped by `(1 − rate)^(layers·w)`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_layer_depolarizing(mut self, rate: f64, layers: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "depolarizing rate {rate} outside [0, 1]"
        );
        self.layer_depolarizing = Some((rate, layers));
        self
    }

    /// What evaluations report: `op` with every term damped for its weight — the
    /// depolarizing layer commutes with the (unitary) propagation for this analytic
    /// model, so damping the observable up front is damping the result.
    fn damped_expectation(
        &self,
        circuit: &Circuit,
        params: &[f64],
        op: &PauliOp,
        basis: u64,
    ) -> f64 {
        let Some((rate, layers)) = self.layer_depolarizing else {
            return self.propagator.expectation(circuit, params, op, basis);
        };
        let mut damped = PauliOp::zero(op.num_qubits());
        for t in op.terms() {
            let exponent = layers as f64 * f64::from(t.string.weight());
            damped.add_term(t.string, t.coefficient * (1.0 - rate).powf(exponent));
        }
        self.propagator.expectation(circuit, params, &damped, basis)
    }
}

impl Backend for PauliPropagationBackend {
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>) {
        let basis = initial
            .basis_index()
            .expect("the Pauli-propagation backend requires a basis-state initial state");
        self.ledger
            .charge_evaluation(self.shots_per_pauli, charged_op.num_terms());
        let charged = self.damped_expectation(circuit, params, charged_op, basis);
        let free = free_ops
            .iter()
            .map(|op| self.damped_expectation(circuit, params, op, basis))
            .collect();
        (charged, free)
    }

    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64 {
        let basis = initial
            .basis_index()
            .expect("the Pauli-propagation backend requires a basis-state initial state");
        // Probes report the ideal value, whatever noise evaluations carry (as every
        // other driver's do): fidelity measures the optimized state, not the device.
        self.propagator.expectation(circuit, params, op, basis)
    }

    fn shots_used(&self) -> u64 {
        self.ledger.total()
    }

    fn reset_shots(&mut self) {
        self.ledger.reset();
    }

    fn shots_per_pauli(&self) -> u64 {
        self.shots_per_pauli
    }

    fn name(&self) -> &'static str {
        "pauli-propagation"
    }

    fn capabilities(&self) -> BackendCaps {
        // Heisenberg-picture propagation is a pure function of the request: no RNG, no
        // cross-request state, so retries (and half-failed batch re-executions) cannot
        // perturb any other job.
        BackendCaps {
            noise: self.layer_depolarizing.is_some(),
            retry_safe: true,
            ..BackendCaps::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoisyBackend, NoisyStatevectorBackend, SampledBackend, StatevectorBackend};
    use qcircuit::{Angle, Entanglement, Gate, HardwareEfficientAnsatz};
    use qnoise::PauliNoiseModel;
    use qrng::SeedPolicy;

    /// `⟨op⟩` on `U(θ)|0…0⟩` through the one-shot `qsim::run_circuit`: the reference
    /// the drivers are held to.
    fn ideal(circuit: &Circuit, params: &[f64], op: &PauliOp) -> f64 {
        let zero = Statevector::zero_state(circuit.num_qubits());
        op.expectation(&qsim::run_circuit(circuit, params, &zero))
    }

    fn demo_setup() -> (Circuit, Vec<f64>, PauliOp, PauliOp) {
        let circuit = HardwareEfficientAnsatz::new(3, 1, Entanglement::Linear).build();
        let params: Vec<f64> = (0..circuit.num_parameters())
            .map(|i| 0.1 * i as f64)
            .collect();
        let h1 = PauliOp::from_labels(3, &[("ZZI", -1.0), ("IXI", 0.3)]);
        let h2 = PauliOp::from_labels(3, &[("ZZI", -0.8), ("IIX", 0.2)]);
        (circuit, params, h1, h2)
    }

    #[test]
    fn statevector_backend_charges_shots_and_matches_exact() {
        let (circuit, params, h1, h2) = demo_setup();
        let mut backend = StatevectorBackend::with_shots(1000);
        let (charged, free) =
            backend.evaluate(&circuit, &params, &InitialState::Basis(0), &h1, &[&h2]);
        assert_eq!(backend.shots_used(), 1000 * h1.num_terms() as u64);
        assert!((charged - ideal(&circuit, &params, &h1)).abs() < 1e-12);
        assert!((free[0] - ideal(&circuit, &params, &h2)).abs() < 1e-12);
        backend.reset_shots();
        assert_eq!(backend.shots_used(), 0);
        assert_eq!(backend.name(), "statevector");
    }

    #[test]
    fn batched_evaluation_matches_serial_exactly() {
        let (circuit, params, h1, h2) = demo_setup();
        for batch_size in [1usize, 2, 17] {
            let candidates: Vec<Vec<f64>> = (0..batch_size)
                .map(|k| params.iter().map(|p| p + 0.01 * k as f64).collect())
                .collect();
            let free_ops = [&h2];
            let requests: Vec<EvalRequest<'_>> = candidates
                .iter()
                .map(|c| EvalRequest {
                    circuit: &circuit,
                    params: c,
                    initial: &InitialState::Basis(0),
                    charged_op: &h1,
                    free_ops: &free_ops,
                    stream: None,
                })
                .collect();
            let mut batched = StatevectorBackend::with_shots(100);
            let results = batched.evaluate_batch(&requests);

            let mut serial = StatevectorBackend::with_shots(100);
            for (c, r) in candidates.iter().zip(&results) {
                let (charged, free) =
                    serial.evaluate(&circuit, c, &InitialState::Basis(0), &h1, &[&h2]);
                assert_eq!(charged, r.charged, "batch size {batch_size}");
                assert_eq!(free, r.free);
                assert_eq!(r.shots, 100 * h1.num_terms() as u64);
            }
            assert_eq!(batched.shots_used(), serial.shots_used());
        }
    }

    /// A bad request fails the same way whether its chunk ran on the calling thread (a
    /// batch of one) or was spread over threads (two 13-qubit rollouts together reach the
    /// `qop::par::map_states` threshold whenever there are ≥ 2 threads): the client sees
    /// the kernel's own panic message, not the parallel runtime's.
    #[test]
    fn a_bad_request_panics_with_the_same_message_in_any_batch() {
        let circuit = HardwareEfficientAnsatz::new(13, 1, Entanglement::Linear).build();
        let too_short = vec![0.1; circuit.num_parameters() - 1];
        let op = PauliOp::from_labels(13, &[("ZZIIIIIIIIIII", 1.0)]);
        let message = |batch: usize| {
            let request = EvalRequest {
                circuit: &circuit,
                params: &too_short,
                initial: &InitialState::Basis(0),
                charged_op: &op,
                free_ops: &[],
                stream: None,
            };
            let payload = std::panic::catch_unwind(|| {
                StatevectorBackend::new().evaluate_batch(&vec![request; batch])
            })
            .expect_err("a parameter vector shorter than the circuit's must not evaluate");
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("an index panic carries a formatted message")
        };
        let alone = message(1);
        assert!(alone.contains("index"), "unexpected panic: {alone}");
        assert_eq!(message(2), alone);
    }

    #[test]
    fn sampled_batch_reproduces_the_serial_rng_stream() {
        let (circuit, params, h1, _) = demo_setup();
        let candidates: Vec<Vec<f64>> = (0..5)
            .map(|k| params.iter().map(|p| p + 0.02 * k as f64).collect())
            .collect();
        let requests: Vec<EvalRequest<'_>> = candidates
            .iter()
            .map(|c| EvalRequest {
                circuit: &circuit,
                params: c,
                initial: &InitialState::Basis(0),
                charged_op: &h1,
                free_ops: &[],
                stream: None,
            })
            .collect();
        let mut batched = SampledBackend::with_policy(256, SeedPolicy::new(42));
        let results = batched.evaluate_batch(&requests);
        let mut serial = SampledBackend::with_policy(256, SeedPolicy::new(42));
        for (c, r) in candidates.iter().zip(&results) {
            let (charged, _) = serial.evaluate(&circuit, c, &InitialState::Basis(0), &h1, &[]);
            assert_eq!(charged, r.charged, "batched sampling must match serial");
        }
    }

    #[test]
    fn mixed_circuit_batches_split_into_runs_of_equal_circuits() {
        let (circuit_a, params, h1, _) = demo_setup();
        let circuit_b = HardwareEfficientAnsatz::new(3, 2, Entanglement::Circular).build();
        let params_b: Vec<f64> = (0..circuit_b.num_parameters()).map(|_| 0.05).collect();
        let requests = [
            EvalRequest {
                circuit: &circuit_a,
                params: &params,
                initial: &InitialState::Basis(0),
                charged_op: &h1,
                free_ops: &[],
                stream: None,
            },
            EvalRequest {
                circuit: &circuit_b,
                params: &params_b,
                initial: &InitialState::Basis(0),
                charged_op: &h1,
                free_ops: &[],
                stream: None,
            },
        ];
        let mut backend = StatevectorBackend::with_shots(10);
        let results = backend.evaluate_batch(&requests);
        assert_eq!(results.len(), 2);
        let expected_a = ideal(&circuit_a, &params, &h1);
        let expected_b = ideal(&circuit_b, &params_b, &h1);
        assert!((results[0].charged - expected_a).abs() < 1e-12);
        assert!((results[1].charged - expected_b).abs() < 1e-12);
    }

    #[test]
    fn mixed_circuit_batches_with_pinned_streams_match_one_by_one_evaluation() {
        let (circuit_a, params, h1, h2) = demo_setup();
        let circuit_b = HardwareEfficientAnsatz::new(3, 2, Entanglement::Circular).build();
        let params_b: Vec<f64> = (0..circuit_b.num_parameters())
            .map(|i| 0.05 + 0.03 * i as f64)
            .collect();
        let free_ops = [&h2];
        let initial = InitialState::Basis(0b101);
        // Runs of 2, 1 and 1 requests; the last run revisits the first circuit.
        let requests: Vec<EvalRequest<'_>> = [true, true, false, true]
            .into_iter()
            .zip(0u64..)
            .map(|(first, k)| EvalRequest {
                circuit: if first { &circuit_a } else { &circuit_b },
                params: if first { &params } else { &params_b },
                initial: &initial,
                charged_op: &h1,
                free_ops: &free_ops,
                stream: Some(StreamId::for_job(k)),
            })
            .collect();
        let device = PauliNoiseModel::by_name("mumbai").unwrap();
        let channels = PauliNoiseModel::ibm_like("test", 0.02, 0.05, 0.01, 0.01);
        let stages: [Box<dyn Fn() -> Box<dyn Backend>>; 2] = [
            Box::new(move || {
                Box::new(NoisyBackend::with_policy(
                    device.clone(),
                    128,
                    SeedPolicy::new(8),
                ))
            }),
            Box::new(move || {
                Box::new(
                    NoisyStatevectorBackend::with_policy(channels.clone(), 128, SeedPolicy::new(8))
                        .with_trajectories(5)
                        .with_shot_sampling(),
                )
            }),
        ];
        for make in stages {
            let mut batched = make();
            let results = batched.evaluate_batch(&requests);
            let mut shots = 0;
            for (req, result) in requests.iter().zip(&results) {
                let alone = make().evaluate_batch(std::slice::from_ref(req)).remove(0);
                assert_eq!(alone.charged.to_bits(), result.charged.to_bits());
                assert_eq!(alone.free[0].to_bits(), result.free[0].to_bits());
                shots += alone.shots;
            }
            assert_eq!(batched.shots_used(), shots, "{}", batched.name());
        }
    }

    #[test]
    fn sampled_backend_is_noisy_but_unbiased() {
        let (circuit, params, h1, _) = demo_setup();
        let mut backend = SampledBackend::with_policy(256, SeedPolicy::new(7));
        let exact = ideal(&circuit, &params, &h1);
        let n = 64;
        let mean: f64 = (0..n)
            .map(|_| {
                backend
                    .evaluate(&circuit, &params, &InitialState::Basis(0), &h1, &[])
                    .0
            })
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - exact).abs() < 0.05,
            "sampled mean {mean} vs exact {exact}"
        );
        assert_eq!(backend.shots_used(), 256 * h1.num_terms() as u64 * n);
    }

    #[test]
    fn noisy_backend_attenuates_relative_to_ideal() {
        let (circuit, params, h1, _) = demo_setup();
        let exact = ideal(&circuit, &params, &h1);
        let model = PauliNoiseModel::by_name("mumbai").unwrap();
        let mut backend = NoisyBackend::with_policy(model, 0, SeedPolicy::new(3));
        // shots_per_pauli = 0 disables sampling noise in the analytic sampler, isolating
        // the attenuation effect.
        let (noisy, _) = backend.evaluate(&circuit, &params, &InitialState::Basis(0), &h1, &[]);
        assert!(noisy.abs() <= exact.abs() + 1e-9);
        assert_eq!(backend.name(), "noisy");
    }

    /// The two noisy stages are two readouts of one model over one site list: where the
    /// mean field is exact (one qubit: nothing to spread) the attenuation table, the
    /// analytic stage and the trajectory mean all report the channel's own value.
    #[test]
    fn analytic_and_trajectory_stages_read_one_model() {
        let (p, m) = (0.05, 6);
        let mut circuit = Circuit::new(1);
        for _ in 0..m {
            circuit.push(Gate::Ry(0, Angle::Fixed(0.3)));
        }
        let x = PauliOp::from_labels(1, &[("X", 1.0)]);
        let exact = ideal(&circuit, &[], &x);
        let channel = (1.0 - 4.0 * p / 3.0f64).powi(m);

        let model = PauliNoiseModel::depolarizing(p, 0.0);
        let compiled = qsim::CompiledCircuit::compile(&circuit);
        let table = model.mean_field_attenuation(compiled.noise_sites(), 1);
        assert!((table[1] - channel).abs() < 1e-12);

        let initial = InitialState::Basis(0);
        let mut analytic = NoisyBackend::with_policy(model.clone(), 0, SeedPolicy::new(1));
        let (value, _) = analytic.evaluate(&circuit, &[], &initial, &x, &[]);
        assert!((value - exact * channel).abs() < 1e-12);

        let k = 20_000;
        let mut trajectories =
            NoisyStatevectorBackend::with_policy(model, 0, SeedPolicy::new(5)).with_trajectories(k);
        let (mean, _) = trajectories.evaluate(&circuit, &[], &initial, &x, &[]);
        // Every trajectory reads ±⟨X⟩, so the mean's σ ≤ 1/√k ≈ 0.007.
        assert!(
            (mean - value).abs() < 0.03,
            "trajectory mean {mean} vs analytic {value}"
        );
    }

    #[test]
    fn pauli_propagation_backend_matches_statevector_for_small_systems() {
        let (circuit, params, h1, h2) = demo_setup();
        let mut dense = StatevectorBackend::with_shots(10);
        let mut prop = PauliPropagationBackend::new(
            PauliPropagatorConfig {
                max_weight: 3,
                coefficient_threshold: 1e-14,
                max_terms: 1_000_000,
            },
            10,
        );
        let (a, fa) = dense.evaluate(&circuit, &params, &InitialState::Basis(0b101), &h1, &[&h2]);
        let (b, fb) = prop.evaluate(&circuit, &params, &InitialState::Basis(0b101), &h1, &[&h2]);
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        assert!((fa[0] - fb[0]).abs() < 1e-7);
        assert_eq!(dense.shots_used(), prop.shots_used());
    }

    #[test]
    fn layer_depolarizing_damps_evaluations_per_term_weight_and_spares_probes() {
        let (circuit, params, h1, h2) = demo_setup();
        let (rate, layers) = (0.01, 2);
        let initial = InitialState::Basis(0b101);
        let mut ideal_prop = PauliPropagationBackend::new(PauliPropagatorConfig::default(), 10);
        let mut noisy_prop = PauliPropagationBackend::new(PauliPropagatorConfig::default(), 10)
            .with_layer_depolarizing(rate, layers);
        assert!(!ideal_prop.capabilities().noise);
        assert!(noisy_prop.capabilities().noise);

        // One term at a time, charged and free alike: exactly (1 − rate)^(layers·w).
        for term in h1.terms().iter().chain(h2.terms()) {
            let mut op = PauliOp::zero(3);
            op.add_term(term.string, term.coefficient);
            let factor = (1.0 - rate).powi(layers as i32 * term.string.weight() as i32);
            let (clean, clean_free) = ideal_prop.evaluate(&circuit, &params, &initial, &op, &[&op]);
            let (damped, damped_free) =
                noisy_prop.evaluate(&circuit, &params, &initial, &op, &[&op]);
            assert!(clean.abs() > 1e-3, "term {} carries no signal", term.string);
            assert!((damped - factor * clean).abs() < 1e-12);
            assert!((damped_free[0] - factor * clean_free[0]).abs() < 1e-12);
        }
        assert_eq!(noisy_prop.shots_used(), ideal_prop.shots_used());

        let probed = noisy_prop.probe(&circuit, &params, &initial, &h1);
        let undamped = ideal_prop.probe(&circuit, &params, &initial, &h1);
        assert_eq!(probed.to_bits(), undamped.to_bits());
        let (evaluated, _) = noisy_prop.evaluate(&circuit, &params, &initial, &h1, &[]);
        assert!((evaluated - probed).abs() > 1e-3);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn layer_depolarizing_rejects_a_rate_that_is_no_probability() {
        let _ = PauliPropagationBackend::new(PauliPropagatorConfig::default(), 10)
            .with_layer_depolarizing(1.5, 1);
    }

    #[test]
    #[should_panic]
    fn pauli_propagation_rejects_superposition_initial_state() {
        let (circuit, params, h1, _) = demo_setup();
        let mut prop = PauliPropagationBackend::new(PauliPropagatorConfig::default(), 10);
        let _ = prop.evaluate(
            &circuit,
            &params,
            &InitialState::UniformSuperposition,
            &h1,
            &[],
        );
    }
}
