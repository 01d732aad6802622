//! The stochastic-trajectory noisy statevector backend.
//!
//! Where [`crate::NoisyBackend`] *analytically attenuates* expectations (cheap, but
//! blind to how errors actually propagate through the circuit), this backend **simulates
//! the noise**: each evaluation averages K stochastic Pauli trajectories, and each
//! trajectory is one ideal compiled execution with a pre-sampled Pauli error stream
//! replayed between compiled ops (`qnoise::TrajectorySampler` over
//! [`qsim::CompiledCircuit::noise_sites`]).  No density matrix is ever formed: memory
//! stays one statevector per in-flight trajectory, and the trajectory average is an
//! unbiased estimate of the density-matrix expectation.
//!
//! # Riding the batch engine
//!
//! K trajectories of one parameter binding are embarrassingly parallel rollouts of one
//! compiled program — exactly the shape the PR 2 batch engine was built for.  The
//! backend flattens a batch of requests into (request, trajectory) work items and drives
//! them through the same scratch-state pool and across/within-state parallel policy as
//! the exact backends ([`qop::par::map_states`]).  Because all K
//! trajectories of a request share one parameter vector, the compiled circuit's
//! diagonal passes are bound **once per request** ([`qsim::CompiledCircuit::prepare_batch_tables`])
//! and reused by every trajectory — for QAOA-shaped ansätze this removes the whole
//! cost-layer binding (and its `O(√dim)` table construction) from K−1 of the K rollouts.
//!
//! # Determinism
//!
//! Results are deterministic and independent of batching/chunking/thread count — and,
//! since the counter-based `qrng` rework, of execution *order* too.  Each request's
//! randomness is keyed by its draw stream (its pinned [`EvalRequest::stream`], or the
//! backend's evaluation-order fallback stream for direct trait callers): the trajectory
//! stream seed is `policy.key(stream.substream(0))`, trajectory `t` of that stream is
//! seeded per the `qnoise` seeding contract, the trajectory average is summed in
//! trajectory order, and optional shot sampling draws from `stream.substream(1)`.  A
//! stream-carrying request therefore produces the same bits wherever and whenever it
//! runs, which is what lets the backend advertise `retry_safe`.

use crate::backend::{
    batch_chunk, free_values, measure, resolve_stream, uniform_circuit, Backend, BackendCaps,
    CircuitCache, EvalRequest, EvalResult, ObservableCache, ScratchPool,
};
use crate::task::InitialState;
use qcircuit::Circuit;
use qnoise::{readout_attenuation, PauliNoiseModel, TrajectorySampler};
use qop::PauliOp;
use qrng::{SeedPolicy, StreamId};
use qsim::{CompiledCircuit, PauliInsertion, ShotLedger};

/// Per-circuit derived data: the compiled form plus the noise model bound to its sites.
#[derive(Debug)]
struct NoisePlan {
    compiled: CompiledCircuit,
    sampler: TrajectorySampler,
}

impl NoisePlan {
    fn new(circuit: &Circuit, model: &PauliNoiseModel) -> Self {
        let compiled = CompiledCircuit::compile(circuit);
        let sampler = TrajectorySampler::new(&compiled, model);
        NoisePlan { compiled, sampler }
    }
}

/// Noisy statevector backend: stochastic Pauli-trajectory simulation over the compiled
/// batch engine (see the module docs).
///
/// The charged observable and all tracking observables are trajectory-averaged and then
/// readout-attenuated per term; with [`NoisyStatevectorBackend::with_shot_sampling`] the
/// charged value additionally receives the analytic shot-noise perturbation of
/// [`crate::SampledBackend`] on top of the trajectory mean.
#[derive(Debug)]
pub struct NoisyStatevectorBackend {
    model: PauliNoiseModel,
    trajectories: usize,
    policy: SeedPolicy,
    /// Evaluation-order fallback counter, advanced only by stream-less requests.
    evals_issued: u64,
    shots_per_pauli: u64,
    sample_shots: bool,
    ledger: ShotLedger,
    cache: CircuitCache<NoisePlan>,
    observables: ObservableCache,
    pool: ScratchPool,
}

impl NoisyStatevectorBackend {
    /// Creates a trajectory-noise backend with a typed seeding policy.
    ///
    /// The trajectory count defaults to [`qnoise::default_trajectories`] (the
    /// `QNOISE_TRAJECTORIES` knob); shot charging follows the paper's per-Pauli-term
    /// model, and the returned backend reports exact trajectory means (no shot
    /// sampling — opt in with [`NoisyStatevectorBackend::with_shot_sampling`]).
    pub fn with_policy(model: PauliNoiseModel, shots_per_pauli: u64, policy: SeedPolicy) -> Self {
        NoisyStatevectorBackend {
            model,
            trajectories: qnoise::default_trajectories(),
            policy,
            evals_issued: 0,
            shots_per_pauli,
            sample_shots: false,
            ledger: ShotLedger::new(),
            cache: CircuitCache::default(),
            observables: ObservableCache::default(),
            pool: ScratchPool::default(),
        }
    }

    /// Sets the trajectory count per evaluation (builder style, minimum 1).
    pub fn with_trajectories(mut self, trajectories: usize) -> Self {
        self.trajectories = trajectories.max(1);
        self
    }

    /// Adds analytic per-term shot sampling on the charged observable, on top of the
    /// trajectory mean (builder style).
    pub fn with_shot_sampling(mut self) -> Self {
        self.sample_shots = true;
        self
    }

    /// The backend's noise model.
    pub fn model(&self) -> &PauliNoiseModel {
        &self.model
    }

    /// Trajectories averaged per evaluation.
    pub fn trajectories(&self) -> usize {
        self.trajectories
    }

    /// Runs a uniform-circuit slice of requests; the caller guarantees every request
    /// references `circuit`.
    fn run_uniform(&mut self, circuit: &Circuit, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        // Per-request draw streams, resolved up front in request order (stream-less
        // requests consume the evaluation-order fallback exactly as a serial loop
        // would).  Substream 0 keys the trajectory schedules, substream 1 the optional
        // shot sampling — pure functions of the stream, independent of execution order.
        let streams: Vec<StreamId> = requests
            .iter()
            .map(|req| resolve_stream(&mut self.evals_issued, req.stream))
            .collect();
        let eval_seeds: Vec<u64> = streams
            .iter()
            .map(|s| self.policy.key(s.substream(0)))
            .collect();
        let plan = self
            .cache
            .get_or_insert_with(circuit, |c| NoisePlan::new(c, &self.model));
        // With no gate noise every trajectory is the identical ideal rollout, so one
        // rollout suffices (readout attenuation is analytic and per-term, not sampled).
        let k = if plan.sampler.is_trivial() {
            1
        } else {
            self.trajectories
        };
        let num_qubits = plan.compiled.num_qubits();

        // Per request: the diagonal passes bound once (all K trajectories share one
        // binding), and the per-evaluation noise stream seed.
        let tables: Vec<qsim::BatchTables> = requests
            .iter()
            .map(|req| plan.compiled.prepare_batch_tables(&[req.params]))
            .collect();

        // One term basis per request (one cache lookup per run of equal operator sets),
        // and per request one accumulator per *distinct string*, summed in trajectory
        // order (chunk iteration preserves flat item order, so the sums are independent
        // of chunk size and thread count).
        let bases = self.observables.for_batch(requests);
        let mut sums: Vec<Vec<f64>> = bases
            .iter()
            .map(|basis| vec![0.0; basis.num_strings()])
            .collect();

        let total_items = requests.len() * k;
        let mut schedules: Vec<Vec<PauliInsertion>> = Vec::new();
        for chunk_start in (0..total_items).step_by(batch_chunk()) {
            let chunk_len = batch_chunk().min(total_items - chunk_start);
            // Pre-sample the chunk's insertion schedules serially (cheap: O(gates) per
            // trajectory, no state-sized work).
            schedules.resize_with(chunk_len, Vec::new);
            for (slot, item) in (chunk_start..chunk_start + chunk_len).enumerate() {
                let (req_idx, traj) = (item / k, (item % k) as u64);
                plan.sampler
                    .sample_into(eval_seeds[req_idx], traj, &mut schedules[slot]);
            }
            let slots = self.pool.slots(chunk_len, num_qubits);
            qop::par::map_states(slots, 1 << num_qubits, |i, slot| {
                let req_idx = (chunk_start + i) / k;
                let req = &requests[req_idx];
                req.initial.prepare_into(&mut slot.state);
                plan.compiled.execute_in_place_with_insertions(
                    req.params,
                    &mut slot.state,
                    &schedules[i],
                    Some(&tables[req_idx]),
                );
                measure(&bases[req_idx], slot);
            });
            for (i, slot) in slots.iter().enumerate() {
                for (sum, v) in sums[(chunk_start + i) / k].iter_mut().zip(&slot.values) {
                    *sum += v;
                }
            }
        }

        // Reduce per distinct string: trajectory mean → readout attenuation; then map to
        // operator terms — (optional) shot sampling on the charged operator, plain
        // contraction for the rest — charging shots in request order.
        let readout = self.model.readout_flip;
        let mut results = Vec::with_capacity(requests.len());
        for (req_idx, (req, mut values)) in requests.iter().zip(sums).enumerate() {
            self.ledger
                .charge_evaluation(self.shots_per_pauli, req.charged_op.num_terms());
            let basis = &bases[req_idx];
            for (value, string) in values.iter_mut().zip(basis.strings()) {
                *value = *value / k as f64 * readout_attenuation(readout, string.weight());
            }
            let charged = if self.sample_shots {
                let mut rng = self.policy.rng(streams[req_idx].substream(1));
                qsim::analytic_sampled_from_expectations(
                    req.charged_op,
                    &basis.op_term_values(0, &values),
                    self.shots_per_pauli,
                    &mut rng,
                )
            } else {
                basis.op_value(0, &values)
            };
            results.push(EvalResult {
                charged,
                free: free_values(basis, &values),
                shots: self.shots_per_pauli * req.charged_op.num_terms() as u64,
            });
        }
        results
    }
}

impl Backend for NoisyStatevectorBackend {
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>) {
        let request = EvalRequest::unpinned(circuit, params, initial, charged_op, free_ops);
        let mut results = self.run_uniform(circuit, &[request]);
        let result = results.pop().expect("one result per request");
        (result.charged, result.free)
    }

    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        let Some(circuit) = uniform_circuit(requests) else {
            // Mixed-circuit fallback: run each request as its own uniform slice (rather
            // than the trait's stream-blind serial default) so pinned streams survive.
            return requests
                .iter()
                .flat_map(|r| self.run_uniform(r.circuit, std::slice::from_ref(r)))
                .collect();
        };
        self.run_uniform(circuit, requests)
    }

    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64 {
        // Probes report the ideal energy of the prepared state: fidelity metrics measure
        // optimization quality, independent of simulated hardware noise.  The cache
        // entry still carries the real model's sampler so a later noisy evaluation of
        // the same circuit hits it unchanged.
        let plan = self
            .cache
            .get_or_insert_with(circuit, |c| NoisePlan::new(c, &self.model));
        let basis = self.observables.get(op, &[]);
        let slot = self.pool.slot(circuit.num_qubits());
        initial.prepare_into(&mut slot.state);
        plan.compiled.execute_in_place(params, &mut slot.state);
        measure(&basis, slot);
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
        "noisy-trajectory"
    }

    fn capabilities(&self) -> BackendCaps {
        // Retry-safe since the counter-based rework: a stream-carrying request's
        // trajectory schedules and shot draws are pure functions of its stream, so
        // re-executing it cannot shift any other request's randomness.
        BackendCaps {
            batch: true,
            shots: self.sample_shots,
            noise: true,
            trajectories: true,
            retry_safe: true,
        }
    }

    fn recover(&mut self) {
        self.cache.clear();
        self.observables.clear();
        self.pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatevectorBackend;
    use qcircuit::{Entanglement, Gate, HardwareEfficientAnsatz};

    fn demo() -> (Circuit, Vec<f64>, PauliOp, PauliOp) {
        let circuit = HardwareEfficientAnsatz::new(3, 1, Entanglement::Linear).build();
        let params: Vec<f64> = (0..circuit.num_parameters())
            .map(|i| 0.1 * i as f64)
            .collect();
        let h1 = PauliOp::from_labels(3, &[("ZZI", -1.0), ("IXI", 0.3)]);
        let h2 = PauliOp::from_labels(3, &[("ZIZ", 0.7)]);
        (circuit, params, h1, h2)
    }

    #[test]
    fn zero_rate_trajectories_match_exact_backend_bitwise() {
        let (circuit, params, h1, h2) = demo();
        let mut noisy = NoisyStatevectorBackend::with_policy(
            PauliNoiseModel::noiseless(),
            100,
            SeedPolicy::new(9),
        )
        .with_trajectories(3);
        let mut exact = StatevectorBackend::with_shots(100);
        let (nc, nf) = noisy.evaluate(&circuit, &params, &InitialState::Basis(0), &h1, &[&h2]);
        let (ec, ef) = exact.evaluate(&circuit, &params, &InitialState::Basis(0), &h1, &[&h2]);
        // Trajectory averaging of identical rollouts divides and re-sums, so demand
        // bit-identity of the underlying term values via the combined ones.
        assert_eq!(nc.to_bits(), ec.to_bits());
        assert_eq!(nf[0].to_bits(), ef[0].to_bits());
        assert_eq!(noisy.shots_used(), exact.shots_used());
    }

    #[test]
    fn batched_trajectory_evaluation_matches_serial_exactly() {
        let (circuit, params, h1, h2) = demo();
        let model = PauliNoiseModel::ibm_like("test", 0.02, 0.05, 0.01, 0.01);
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
            let mut batched =
                NoisyStatevectorBackend::with_policy(model.clone(), 50, SeedPolicy::new(4))
                    .with_trajectories(7);
            let results = batched.evaluate_batch(&requests);
            let mut serial =
                NoisyStatevectorBackend::with_policy(model.clone(), 50, SeedPolicy::new(4))
                    .with_trajectories(7);
            for (c, r) in candidates.iter().zip(&results) {
                let (charged, free) =
                    serial.evaluate(&circuit, c, &InitialState::Basis(0), &h1, &free_ops);
                assert_eq!(charged.to_bits(), r.charged.to_bits(), "batch {batch_size}");
                assert_eq!(free[0].to_bits(), r.free[0].to_bits());
            }
            assert_eq!(batched.shots_used(), serial.shots_used());
        }
    }

    #[test]
    fn single_qubit_depolarizing_matches_analytic_channel() {
        // ⟨X⟩ on |+⟩ under one depolarizing gate channel: factor 1 − 4p/3.
        let p = 0.3;
        let mut circ = Circuit::new(1);
        circ.push(Gate::H(0));
        let x = PauliOp::from_labels(1, &[("X", 1.0)]);
        let k = 20_000;
        let mut backend = NoisyStatevectorBackend::with_policy(
            PauliNoiseModel::depolarizing(p, 0.0),
            0,
            SeedPolicy::new(5),
        )
        .with_trajectories(k);
        let (value, _) = backend.evaluate(&circ, &[], &InitialState::Basis(0), &x, &[]);
        let expected = 1.0 - 4.0 * p / 3.0;
        // Each trajectory contributes ±1-ish; the mean's σ ≈ √(p/k) ≪ 0.02.
        assert!(
            (value - expected).abs() < 0.02,
            "trajectory mean {value} vs analytic {expected}"
        );
    }

    #[test]
    fn readout_attenuation_is_deterministic_per_term_weight() {
        let (circuit, params, _, _) = demo();
        let r = 0.04;
        let h = PauliOp::from_labels(3, &[("III", -2.0), ("ZII", 1.0), ("ZZZ", 0.5)]);
        let model = PauliNoiseModel::noiseless().with_readout(r);
        let mut noisy =
            NoisyStatevectorBackend::with_policy(model, 0, SeedPolicy::new(1)).with_trajectories(2);
        let (nv, _) = noisy.evaluate(&circuit, &params, &InitialState::Basis(0), &h, &[]);
        let state_terms = {
            let mut s = qop::Statevector::zero_state(3);
            qsim::run_circuit_in_place(&circuit, &params, &mut s);
            qsim::exact_term_expectations(&h, &s)
        };
        let expected: f64 = h
            .terms()
            .iter()
            .zip(&state_terms)
            .map(|(t, &v)| t.coefficient * v * readout_attenuation(r, t.string.weight()))
            .sum();
        assert!((nv - expected).abs() < 1e-12);
    }

    #[test]
    fn probe_reports_ideal_energy_under_noise() {
        let (circuit, params, h1, _) = demo();
        let model = PauliNoiseModel::depolarizing(0.1, 0.2).with_readout(0.05);
        let mut noisy =
            NoisyStatevectorBackend::with_policy(model, 0, SeedPolicy::new(5)).with_trajectories(4);
        let mut exact = StatevectorBackend::with_shots(0);
        let p_noisy = noisy.probe(&circuit, &params, &InitialState::Basis(0), &h1);
        let p_exact = exact.probe(&circuit, &params, &InitialState::Basis(0), &h1);
        assert_eq!(p_noisy.to_bits(), p_exact.to_bits());
    }
}
