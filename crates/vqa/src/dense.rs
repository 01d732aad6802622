//! The dense driver: one statevector pipeline ([`Dense`]) ending in a readout stage.
//!
//! The paper's dense substrates — noiseless, shot-sampled, analytically attenuated,
//! trajectory-noisy — differ only in *how a prepared state becomes a number*, so the four
//! public backend names are [`Dense`] over a [`Readout`] stage: [`Exact`], [`Sampled`],
//! [`Attenuated`] here, [`crate::noisy::Trajectories`] beside its docs.  A stage holds
//! three decisions and nothing else: how many rollouts a request needs (and which Pauli
//! errors each replays), what it derives from a circuit once, and how the measured
//! per-string readout becomes the charged estimate.

use crate::backend::{
    batch_chunk, free_values, measure, resolve_stream, same_circuit, Backend, BackendCaps,
    CircuitCache, EvalRequest, EvalResult, ObservableCache, Scratch, ScratchPool,
};
use crate::task::InitialState;
use qcircuit::Circuit;
use qnoise::PauliNoiseModel;
use qop::{PauliOp, TermBasis};
use qrng::{CounterRng, SeedPolicy, StreamId};
use qsim::{BatchTables, CompiledCircuit, PauliInsertion, ShotLedger};
use std::fmt::Debug;

/// How the dense driver turns a request's measured per-string readout into its charged
/// estimate: the one thing the dense substrates differ in.
pub trait Readout {
    /// What the stage derives from a circuit once, cached beside its compiled form.
    type Plan: Debug;

    /// The driver's [`Backend::name`].
    const NAME: &'static str;

    /// What the stage models beyond exact evaluation (`shots`, `noise`, `trajectories`);
    /// `batch` and `retry_safe` are the pipeline's, whatever the stage.
    fn models(&self) -> BackendCaps {
        BackendCaps::default()
    }

    /// Derives the per-circuit plan (on a circuit-cache miss).
    fn plan(&self, compiled: &CompiledCircuit) -> Self::Plan;

    /// Rollouts executed per request.
    fn rollouts(&self, _plan: &Self::Plan) -> usize {
        1
    }

    /// Writes the Pauli errors that rollout `rollout` of the request on `stream` replays
    /// into `out`; leaving it empty makes the rollout ideal.
    fn insertions(
        &self,
        _plan: &Self::Plan,
        _stream: StreamId,
        _rollout: u64,
        _out: &mut Vec<PauliInsertion>,
    ) {
    }

    /// Reduces a request's per-string readout — summed over its rollouts — in place to
    /// the stage's per-string expectations, from which the free values are contracted
    /// afterwards, and returns the estimate of the charged operator `op` (operator 0 of
    /// `basis`).
    fn charged(
        &self,
        plan: &Self::Plan,
        basis: &TermBasis,
        values: &mut [f64],
        op: &PauliOp,
        shots_per_pauli: u64,
        stream: StreamId,
    ) -> f64;
}

/// The analytic shot-noise estimate of `op` (operator 0 of `basis`) from a per-string
/// readout: two draws per non-identity term, in term order.
pub(crate) fn sampled(
    basis: &TermBasis,
    values: &[f64],
    op: &PauliOp,
    shots_per_pauli: u64,
    mut rng: CounterRng,
) -> f64 {
    let terms = basis.op_term_values(0, values);
    qsim::analytic_sampled_from_expectations(op, &terms, shots_per_pauli, &mut rng)
}

/// Exact readout: contract the operators from the per-string values.
#[derive(Debug)]
pub struct Exact;

impl Readout for Exact {
    type Plan = ();

    const NAME: &'static str = "statevector";

    fn plan(&self, _: &CompiledCircuit) {}

    fn charged(
        &self,
        _: &(),
        basis: &TermBasis,
        values: &mut [f64],
        _: &PauliOp,
        _: u64,
        _: StreamId,
    ) -> f64 {
        basis.op_value(0, values)
    }
}

/// Sampling readout: per-term shot noise on the charged operator, drawn on the request's
/// stream.
#[derive(Debug)]
pub struct Sampled {
    policy: SeedPolicy,
}

impl Readout for Sampled {
    type Plan = ();

    const NAME: &'static str = "sampled";

    fn models(&self) -> BackendCaps {
        BackendCaps {
            shots: true,
            ..BackendCaps::default()
        }
    }

    fn plan(&self, _: &CompiledCircuit) {}

    fn charged(
        &self,
        _: &(),
        basis: &TermBasis,
        values: &mut [f64],
        op: &PauliOp,
        shots_per_pauli: u64,
        stream: StreamId,
    ) -> f64 {
        sampled(basis, values, op, shots_per_pauli, self.policy.rng(stream))
    }
}

/// Attenuating readout: the analytic reading of a [`PauliNoiseModel`] — every string is
/// damped by the model's mean-field attenuation for its weight over the circuit's noise
/// sites (the sites the trajectory stage samples errors at); the charged operator
/// additionally carries shot noise.
#[derive(Debug)]
pub struct Attenuated {
    policy: SeedPolicy,
    model: PauliNoiseModel,
}

impl Readout for Attenuated {
    /// [`PauliNoiseModel::mean_field_attenuation`]: the factor per term weight.
    type Plan = Vec<f64>;

    const NAME: &'static str = "noisy";

    fn models(&self) -> BackendCaps {
        BackendCaps {
            shots: true,
            noise: true,
            ..BackendCaps::default()
        }
    }

    fn plan(&self, compiled: &CompiledCircuit) -> Vec<f64> {
        self.model
            .mean_field_attenuation(compiled.noise_sites(), compiled.num_qubits())
    }

    fn charged(
        &self,
        attenuation: &Vec<f64>,
        basis: &TermBasis,
        values: &mut [f64],
        op: &PauliOp,
        shots_per_pauli: u64,
        stream: StreamId,
    ) -> f64 {
        // Shot noise is the *difference* between a sampled and the exact estimate of the
        // charged observable on the ideal state; adding it on top of the attenuated
        // value keeps the variance model simple and unbiased.
        let shot_noise = sampled(basis, values, op, shots_per_pauli, self.policy.rng(stream))
            - basis.op_value(0, values);
        for (value, string) in values.iter_mut().zip(basis.strings()) {
            *value *= attenuation[string.weight() as usize];
        }
        basis.op_value(0, values) + shot_noise
    }
}

/// Prepares `|ψ(θ)⟩` for `req` in `slot`, replaying `insertions`, and reads it out through
/// `basis`: the one way a dense execution becomes a vector of per-string values.  A
/// basis-state start writes the circuit's leading product layer directly
/// ([`CompiledCircuit::execute_from_basis`], the same bits as preparing and executing).
fn rollout(
    compiled: &CompiledCircuit,
    tables: Option<&BatchTables>,
    basis: &TermBasis,
    req: &EvalRequest<'_>,
    insertions: &[PauliInsertion],
    slot: &mut Scratch,
) {
    let (params, state) = (req.params, &mut slot.state);
    match *req.initial {
        InitialState::Basis(b) => compiled.execute_from_basis(b, params, state, insertions, tables),
        InitialState::UniformSuperposition => {
            req.initial.prepare_into(state);
            compiled.execute_in_place_with_insertions(params, state, insertions, tables);
        }
    }
    measure(basis, slot);
}

/// A circuit's compiled form and the stage's plan for it, built on a cache miss.
fn plan_for<'a, R: Readout>(
    plans: &'a mut CircuitCache<(CompiledCircuit, R::Plan)>,
    readout: &R,
    circuit: &Circuit,
) -> &'a (CompiledCircuit, R::Plan) {
    plans.get_or_insert_with(circuit, |c| {
        let compiled = CompiledCircuit::compile(c);
        let plan = readout.plan(&compiled);
        (compiled, plan)
    })
}

/// The dense statevector driver: compiled circuits, term bases, scratch slots and shot
/// accounting, ending in the readout stage `R` — which is all that
/// [`StatevectorBackend`], [`SampledBackend`], [`NoisyBackend`] and
/// [`crate::NoisyStatevectorBackend`] differ in.
///
/// # The pipeline
///
/// Derivative-free optimizers emit *batches* of parameter vectors (SPSA's ± pair, a
/// simplex build, every active TreeVQA cluster's candidates in one controller round),
/// all binding different `θ` to the **same** ansatz.  [`Backend::evaluate_batch`] splits
/// its requests into runs of consecutive equal circuits — the one mixed-circuit rule —
/// and each run goes through the same steps:
///
/// * every request's draw stream is resolved up front, in request order (a pinned
///   [`EvalRequest::stream`], or the instance's next evaluation-order stream);
/// * the circuit is lowered once through a cached [`qsim::CompiledCircuit`], stored
///   with what the stage derives from it, and re-bound per request — never re-walked;
/// * the run is flattened into `(request, rollout)` items, processed in chunks of
///   [`batch_chunk`] items whose insertion schedules are sampled before any state-sized
///   work; each chunk's *distinct* items per request — rollouts of one request with
///   equal schedules are one item (most trajectories of a weakly noisy circuit replay
///   the empty schedule) — take a scratch slot each and are prepared, executed
///   (replaying the schedule) and measured through the request's cached
///   [`qop::TermBasis`] — each *distinct* Pauli string once per state (the paper's term
///   padding, Section 5.2.1);
/// * whether a chunk is spread over threads is not decided here: its distinct items go
///   through [`qop::par::map_states`] — the stack's one parallel region — which hands
///   whole rollouts to the threads once the chunk holds [`qsim::parallel_threshold`]
///   amplitudes in total, and otherwise runs them one after another on the calling
///   thread; every kernel a rollout reaches is the same serial code either way;
/// * per-string values are summed over a request's rollouts in rollout order — a
///   repeated schedule adds its execution's values once per occurrence — the stage
///   reduces them, free operators are contracted from the reduced readout with a serial
///   fold in term order, and shots are charged in request order.
///
/// [`Backend::evaluate`] is a batch of one stream-less request; [`Backend::probe`] is one
/// ideal rollout read out as-is — prepared only when the previous probe did not leave
/// the same state in its slot.  A request's result is therefore a function of the
/// request alone — not of batch size, chunking, entry point, execution order, thread
/// count or whether its chunk was spread over threads — which is what lets every stage
/// advertise `retry_safe`.
#[derive(Debug)]
pub struct Dense<R: Readout> {
    pub(crate) readout: R,
    shots_per_pauli: u64,
    ledger: ShotLedger,
    /// Evaluation-order fallback counter, advanced only by stream-less requests.
    evals_issued: u64,
    plans: CircuitCache<(CompiledCircuit, R::Plan)>,
    observables: ObservableCache,
    pub(crate) pool: ScratchPool,
    /// What the pool's slot 0 holds after a [`Backend::probe`]: the state prepared from
    /// this circuit, these parameter bits and this initial state.  [`Dense::run`] and
    /// [`Backend::recover`] clear it.
    probed: Option<Probed>,
}

/// The preparation a probe left in slot 0 (see [`Dense::probe`](Backend::probe)).
#[derive(Debug)]
struct Probed {
    circuit: Circuit,
    params: Vec<f64>,
    initial: InitialState,
}

impl Probed {
    fn holds(&self, circuit: &Circuit, params: &[f64], initial: &InitialState) -> bool {
        self.initial == *initial
            && self.params.len() == params.len()
            && self
                .params
                .iter()
                .zip(params)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.circuit == *circuit
    }
}

impl<R: Readout> Dense<R> {
    pub(crate) fn with_readout(shots_per_pauli: u64, readout: R) -> Self {
        Dense {
            readout,
            shots_per_pauli,
            ledger: ShotLedger::new(),
            evals_issued: 0,
            plans: CircuitCache::default(),
            observables: ObservableCache::default(),
            pool: ScratchPool::default(),
            probed: None,
        }
    }

    /// Runs requests that all reference one circuit, appending their results.
    fn run(&mut self, requests: &[EvalRequest<'_>], results: &mut Vec<EvalResult>) {
        // The run reuses the pool's slots, slot 0 included.
        self.probed = None;
        let streams: Vec<StreamId> = requests
            .iter()
            .map(|req| resolve_stream(&mut self.evals_issued, req.stream))
            .collect();
        let bases = self.observables.for_batch(requests);
        let readout = &self.readout;
        let (compiled, plan) = plan_for(&mut self.plans, readout, requests[0].circuit);
        let k = readout.rollouts(plan);
        let (num_qubits, items) = (compiled.num_qubits(), requests.len() * k);
        let mut schedules: Vec<Vec<PauliInsertion>> = Vec::new();
        // Per slot, the chunk index of the item it executes; per item, the slot its
        // values are read from.
        let mut reps: Vec<usize> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::new();
        // The open request's per-string sums; chunks preserve flat item order, so the
        // sums are independent of chunk size and thread count.
        let mut sums: Vec<f64> = Vec::new();
        for chunk_start in (0..items).step_by(batch_chunk()) {
            let chunk_len = batch_chunk().min(items - chunk_start);
            let first_req = chunk_start / k;
            let chunk_requests = &requests[first_req..=(chunk_start + chunk_len - 1) / k];
            // Bind the diagonal passes once per run of items that can share a binding:
            // a request's K rollouts, or a whole chunk of single-rollout requests where
            // their bindings resolve a pass identically (always for fixed-angle layers;
            // for QAOA batches, whenever only non-diagonal parameters vary).
            // Arithmetic-identical to binding per execution.
            let share = if k == 1 { chunk_requests.len() } else { 1 };
            let tables: Vec<BatchTables> = chunk_requests
                .chunks(share)
                .map(|run| {
                    let params_list: Vec<&[f64]> = run.iter().map(|r| r.params).collect();
                    compiled.prepare_batch_tables(&params_list)
                })
                .collect();
            // Pre-sample the chunk's insertion schedules serially (cheap: O(gates) per
            // rollout, no state-sized work).
            schedules.resize_with(chunk_len, Vec::new);
            for (item, schedule) in (chunk_start..).zip(&mut schedules) {
                readout.insertions(plan, streams[item / k], (item % k) as u64, schedule);
            }
            // A rollout's values are a function of its request and schedule alone, so an
            // item whose request already holds an equal schedule in this chunk reads that
            // execution's values instead of repeating it (the sum below adds the same
            // numbers in the same order).
            let mut open = 0; // `reps` index of the open request's first execution
            reps.clear();
            slot_of.clear();
            for i in 0..chunk_len {
                if (chunk_start + i) % k == 0 {
                    open = reps.len();
                }
                let slot = match reps[open..]
                    .iter()
                    .position(|&r| schedules[r] == schedules[i])
                {
                    Some(pos) => open + pos,
                    None => {
                        reps.push(i);
                        reps.len() - 1
                    }
                };
                slot_of.push(slot);
            }
            let slots = self.pool.slots(reps.len(), num_qubits);
            qop::par::map_states(slots, 1 << num_qubits, |j, slot| {
                let i = reps[j];
                let req_idx = (chunk_start + i) / k;
                rollout(
                    compiled,
                    Some(&tables[(req_idx - first_req) / share]),
                    &bases[req_idx],
                    &requests[req_idx],
                    &schedules[i],
                    slot,
                );
            });
            for (item, &slot) in (chunk_start..).zip(&slot_of) {
                let (req_idx, nth, values) = (item / k, item % k, &slots[slot].values);
                if nth == 0 {
                    sums.clone_from(values);
                } else {
                    for (sum, v) in sums.iter_mut().zip(values) {
                        *sum += v;
                    }
                }
                if nth + 1 == k {
                    let (req, basis) = (&requests[req_idx], &bases[req_idx]);
                    let charged = readout.charged(
                        plan,
                        basis,
                        &mut sums,
                        req.charged_op,
                        self.shots_per_pauli,
                        streams[req_idx],
                    );
                    let num_terms = req.charged_op.num_terms();
                    self.ledger
                        .charge_evaluation(self.shots_per_pauli, num_terms);
                    results.push(EvalResult {
                        charged,
                        free: free_values(basis, &sums),
                        shots: self.shots_per_pauli * num_terms as u64,
                    });
                }
            }
        }
    }
}

impl<R: Readout> Backend for Dense<R> {
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>) {
        let request = EvalRequest::unpinned(circuit, params, initial, charged_op, free_ops);
        let result = self.evaluate_batch(&[request]).remove(0);
        (result.charged, result.free)
    }

    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        let mut results = Vec::with_capacity(requests.len());
        for run in requests.chunk_by(same_circuit) {
            self.run(run, &mut results);
        }
        results
    }

    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64 {
        // Probes report the *ideal* value on the prepared state, whatever the stage:
        // fidelity metrics measure how good the optimized state is, independent of
        // simulated hardware noise.  The cache entry still carries the stage's plan, so
        // a later evaluation of the same circuit hits it unchanged.
        let basis = self.observables.get(op, &[]);
        let (compiled, _) = plan_for(&mut self.plans, &self.readout, circuit);
        let slot = &mut self.pool.slots(1, compiled.num_qubits())[0];
        // Consecutive probes of one state (the controller probes each cluster state for
        // every member task in a row) prepare it once: only the readout differs.
        let prepared = self
            .probed
            .as_ref()
            .is_some_and(|p| p.holds(circuit, params, initial));
        if prepared {
            measure(&basis, slot);
        } else {
            // Cleared first: a rollout that unwinds leaves no claim on a half-written slot.
            self.probed = None;
            let request = EvalRequest::unpinned(circuit, params, initial, op, &[]);
            // Bound once, as the trajectory driver binds them: the cost layers' phase
            // tables are built here, not inside the pass, and the bits are the same.  A
            // circuit without a diagonal pass has nothing to bind.
            let tables = (compiled.stats().diagonal_passes > 0)
                .then(|| compiled.prepare_batch_tables(&[params]));
            rollout(compiled, tables.as_ref(), &basis, &request, &[], slot);
            self.probed = Some(Probed {
                circuit: circuit.clone(),
                params: params.to_vec(),
                initial: *initial,
            });
        }
        basis.op_value(0, &slot.values)
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
        R::NAME
    }

    fn capabilities(&self) -> BackendCaps {
        // Every stage rides the batched pipeline, and every draw is a pure function of
        // `(seed policy, request stream, counter)` — never of what executed before — so
        // re-executing a request cannot perturb any other request's result.
        BackendCaps {
            batch: true,
            retry_safe: true,
            ..self.readout.models()
        }
    }

    fn recover(&mut self) {
        self.plans.clear();
        self.observables.clear();
        self.pool.clear();
        self.probed = None;
    }
}

/// Exact statevector backend — the dense driver with the exact readout: no sampling
/// noise, but shots are still charged according to the paper's cost model.  This is the
/// configuration behind all noiseless results.
pub type StatevectorBackend = Dense<Exact>;

impl Dense<Exact> {
    /// Creates a backend with the paper's default of 4096 shots per Pauli term.
    pub fn new() -> Self {
        Self::with_shots(qsim::DEFAULT_SHOTS_PER_PAULI)
    }

    /// Creates a backend with an explicit shots-per-Pauli constant.
    pub fn with_shots(shots_per_pauli: u64) -> Self {
        Dense::with_readout(shots_per_pauli, Exact)
    }
}

impl Default for Dense<Exact> {
    fn default() -> Self {
        Self::new()
    }
}

/// Shot-sampled statevector backend — the dense driver with the sampling readout: the
/// charged observable receives per-term binomial sampling noise matching the allotted
/// shots; tracking observables remain exact.
///
/// Sampling noise is drawn from counter-based `qrng` streams: each request's draws are
/// keyed by `(seed policy, request stream)`, so a request's noise never depends on what
/// executed before it — the property behind the executor's schedule-independent
/// determinism.
pub type SampledBackend = Dense<Sampled>;

impl Dense<Sampled> {
    /// Creates a sampled backend with a typed seeding policy.
    pub fn with_policy(shots_per_pauli: u64, policy: SeedPolicy) -> Self {
        Dense::with_readout(shots_per_pauli, Sampled { policy })
    }
}

/// Noisy backend — the dense driver with the attenuating readout: the mean-field
/// attenuation of a `qnoise` device model is applied to the charged observable on top of
/// shot sampling; tracking observables are attenuated but not sampled.  One ideal rollout
/// per request and a deterministic noisy landscape — the model's cheap readout, where
/// [`crate::NoisyStatevectorBackend`] simulates the same model by trajectories.
pub type NoisyBackend = Dense<Attenuated>;

impl Dense<Attenuated> {
    /// Creates a noisy backend with a typed seeding policy.
    pub fn with_policy(model: PauliNoiseModel, shots_per_pauli: u64, policy: SeedPolicy) -> Self {
        Dense::with_readout(shots_per_pauli, Attenuated { policy, model })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{Angle, Entanglement, Gate, HardwareEfficientAnsatz};
    use qop::{PauliString, Statevector};

    fn probe_bits(backend: &mut StatevectorBackend, params: &[f64], op: &PauliOp) -> u64 {
        let circuit = HardwareEfficientAnsatz::new(4, 2, Entanglement::Circular).build();
        backend
            .probe(&circuit, params, &InitialState::Basis(1), op)
            .to_bits()
    }

    /// Overwrites the state a probe left in slot 0, so a probe that reuses it reads a
    /// different value from one that prepares its state afresh.
    fn spoil_slot(backend: &mut StatevectorBackend) {
        backend.pool.slots(1, 4)[0].state = Statevector::basis_state(4, 0b1010);
    }

    #[test]
    fn consecutive_probes_of_one_state_share_its_preparation() {
        let circuit = HardwareEfficientAnsatz::new(4, 2, Entanglement::Circular).build();
        let params: Vec<f64> = (0..circuit.num_parameters())
            .map(|i| 0.1 + 0.07 * i as f64)
            .collect();
        let ops = [
            qchem::transverse_field_ising(4, 1.0, 0.5),
            qchem::transverse_field_ising(4, 1.0, 1.5),
        ];
        let fresh = |params: &[f64], op: &PauliOp| {
            probe_bits(&mut StatevectorBackend::with_shots(0), params, op)
        };
        // A run of probes of one state reads what fresh drivers read.
        let mut backend = StatevectorBackend::with_shots(0);
        for op in [&ops[0], &ops[1], &ops[0]] {
            assert_eq!(probe_bits(&mut backend, &params, op), fresh(&params, op));
        }
        // The repeated probes read the slot: spoiled, it changes their value.
        spoil_slot(&mut backend);
        assert_ne!(
            probe_bits(&mut backend, &params, &ops[1]),
            fresh(&params, &ops[1])
        );

        // An evaluation, recover() and a one-bit change of one parameter each make the
        // next probe prepare its state again.
        spoil_slot(&mut backend);
        let (initial, free) = (InitialState::Basis(1), []);
        backend.evaluate(&circuit, &params, &initial, &ops[0], &free);
        spoil_slot(&mut backend);
        assert_eq!(
            probe_bits(&mut backend, &params, &ops[1]),
            fresh(&params, &ops[1])
        );
        spoil_slot(&mut backend);
        backend.recover();
        assert_eq!(
            probe_bits(&mut backend, &params, &ops[1]),
            fresh(&params, &ops[1])
        );
        spoil_slot(&mut backend);
        let mut nudged = params.clone();
        nudged[3] = f64::from_bits(nudged[3].to_bits() ^ 1);
        assert_eq!(
            probe_bits(&mut backend, &nudged, &ops[1]),
            fresh(&nudged, &ops[1])
        );

        // A probe binds its cost layers once: its value is an unbound rollout's, bit
        // for bit, on a QAOA layer whose ZZ ring is one tabulated diagonal pass.
        let n = 8;
        let mut qaoa = Circuit::new(n);
        for q in 0..n {
            qaoa.push(Gate::H(q));
        }
        for q in 0..n {
            let zz = PauliString::from_masks(0, (1 << q) | (1 << ((q + 1) % n)), n);
            qaoa.push(Gate::PauliRotation(zz, Angle::param(0)));
        }
        for q in 0..n {
            qaoa.push(Gate::Rx(q, Angle::param(1)));
        }
        let (params, initial) = ([0.37, -1.1], InitialState::Basis(5));
        let op = qchem::transverse_field_ising(n, 1.0, 0.5);
        let compiled = CompiledCircuit::compile(&qaoa);
        assert_eq!(compiled.prepare_batch_tables(&[&params]).num_bound(), 1);
        let mut psi = Statevector::zero_state(n);
        compiled.execute_from_basis(5, &params, &mut psi, &[], None);
        let probed = StatevectorBackend::with_shots(0).probe(&qaoa, &params, &initial, &op);
        assert_eq!(probed.to_bits(), op.expectation(&psi).to_bits());
    }
}
