//! The stochastic-trajectory readout stage of the dense driver.
//!
//! Where [`crate::NoisyBackend`] reads a `qnoise::PauliNoiseModel` *analytically* (its
//! mean-field attenuation: cheap, but blind to how errors actually propagate through
//! the circuit), this stage **simulates the same model**: each evaluation averages K
//! stochastic Pauli trajectories, and each trajectory is one ideal compiled execution
//! with a pre-sampled Pauli error stream replayed between compiled ops
//! (`qnoise::TrajectorySampler` over [`qsim::CompiledCircuit::noise_sites`]).  No
//! density matrix is ever formed: memory stays one statevector per in-flight *distinct*
//! trajectory, and the trajectory average is an unbiased estimate of the density-matrix
//! expectation.
//!
//! K trajectories of one parameter binding are embarrassingly parallel rollouts of one
//! compiled program — exactly the `(request, rollout)` items the [`crate::dense`]
//! pipeline is built from.  Because all K share one parameter vector, the compiled
//! circuit's diagonal passes are bound **once per request** and reused by every
//! trajectory — for QAOA-shaped ansätze this removes the whole cost-layer binding (and
//! its `O(√dim)` table construction) from K−1 of the K rollouts.  And because a
//! trajectory is its schedule, a request's trajectories that sampled equal schedules —
//! at realistic error rates most of them sample the empty one — are executed and read
//! out **once**, their values added to the average once per occurrence.
//!
//! # Determinism
//!
//! Each request's randomness is keyed by its draw stream: the trajectory stream seed is
//! `policy.key(stream.substream(0))`, trajectory `t` of that stream is seeded per the
//! `qnoise` seeding contract, the trajectory average is summed in trajectory order, and
//! optional shot sampling draws from `stream.substream(1)`.  A stream-carrying request
//! therefore produces the same bits wherever and whenever it runs.

use crate::backend::BackendCaps;
use crate::dense::{sampled, Dense, Readout};
use qnoise::{readout_attenuation, PauliNoiseModel, TrajectorySampler};
use qop::{PauliOp, TermBasis};
use qrng::{SeedPolicy, StreamId};
use qsim::{CompiledCircuit, PauliInsertion};

/// Trajectory readout: the mean over K stochastic Pauli trajectories, readout-attenuated
/// per string weight; optionally the charged operator is shot-sampled on top.
#[derive(Debug)]
pub struct Trajectories {
    policy: SeedPolicy,
    model: PauliNoiseModel,
    trajectories: usize,
    sample_shots: bool,
}

impl Readout for Trajectories {
    /// The noise model bound to the compiled circuit's sites.
    type Plan = TrajectorySampler;

    const NAME: &'static str = "noisy-trajectory";

    fn models(&self) -> BackendCaps {
        BackendCaps {
            shots: self.sample_shots,
            noise: true,
            trajectories: true,
            ..BackendCaps::default()
        }
    }

    fn plan(&self, compiled: &CompiledCircuit) -> TrajectorySampler {
        TrajectorySampler::new(compiled, &self.model)
    }

    fn rollouts(&self, sampler: &TrajectorySampler) -> usize {
        // With no gate noise every trajectory is the identical ideal rollout, so one
        // rollout suffices (readout attenuation is analytic and per-term, not sampled).
        if sampler.is_trivial() {
            1
        } else {
            self.trajectories
        }
    }

    fn insertions(
        &self,
        sampler: &TrajectorySampler,
        stream: StreamId,
        rollout: u64,
        out: &mut Vec<PauliInsertion>,
    ) {
        sampler.sample_into(self.policy.key(stream.substream(0)), rollout, out);
    }

    fn charged(
        &self,
        sampler: &TrajectorySampler,
        basis: &TermBasis,
        values: &mut [f64],
        op: &PauliOp,
        shots_per_pauli: u64,
        stream: StreamId,
    ) -> f64 {
        let k = self.rollouts(sampler) as f64;
        for (value, string) in values.iter_mut().zip(basis.strings()) {
            *value = *value / k * readout_attenuation(self.model.readout_flip, string.weight());
        }
        if self.sample_shots {
            let rng = self.policy.rng(stream.substream(1));
            sampled(basis, values, op, shots_per_pauli, rng)
        } else {
            basis.op_value(0, values)
        }
    }
}

/// Noisy statevector backend — the dense driver with the trajectory readout: stochastic
/// Pauli-trajectory simulation of `qnoise` channels, replayed between compiled ops.
///
/// The charged observable and all tracking observables are trajectory-averaged and then
/// readout-attenuated per term; with [`Dense::with_shot_sampling`] the charged value
/// additionally receives the analytic shot-noise perturbation of
/// [`crate::SampledBackend`] on top of the trajectory mean.
pub type NoisyStatevectorBackend = Dense<Trajectories>;

impl Dense<Trajectories> {
    /// Creates a trajectory-noise backend with a typed seeding policy.
    ///
    /// The trajectory count defaults to [`qnoise::default_trajectories`] (the
    /// `QNOISE_TRAJECTORIES` knob); shot charging follows the paper's per-Pauli-term
    /// model, and the returned backend reports exact trajectory means (no shot
    /// sampling — opt in with [`Dense::with_shot_sampling`]).
    pub fn with_policy(model: PauliNoiseModel, shots_per_pauli: u64, policy: SeedPolicy) -> Self {
        let readout = Trajectories {
            policy,
            model,
            trajectories: qnoise::default_trajectories(),
            sample_shots: false,
        };
        Dense::with_readout(shots_per_pauli, readout)
    }

    /// Sets the trajectory count per evaluation (builder style, minimum 1).
    pub fn with_trajectories(mut self, trajectories: usize) -> Self {
        self.readout.trajectories = trajectories.max(1);
        self
    }

    /// Adds analytic per-term shot sampling on the charged observable, on top of the
    /// trajectory mean (builder style).
    pub fn with_shot_sampling(mut self) -> Self {
        self.readout.sample_shots = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, EvalRequest, InitialState, StatevectorBackend};
    use qcircuit::{Angle, Circuit, Entanglement, Gate, HardwareEfficientAnsatz};

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
    fn equal_schedules_execute_once_and_keep_every_rollouts_bits() {
        // One noise site (after the Ry) at p = 0.3: a request's rollouts repeat the
        // empty schedule and each single-qubit error, so most of them collide.
        let mut circuit = Circuit::new(2);
        circuit.push(Gate::Ry(0, Angle::param(0)));
        circuit.push(Gate::Cx(0, 1));
        let h1 = PauliOp::from_labels(2, &[("ZZ", -1.0), ("XI", 0.5)]);
        let h2 = PauliOp::from_labels(2, &[("IZ", 0.7), ("YX", 0.2)]);
        let model = PauliNoiseModel::depolarizing(0.3, 0.0).with_readout(0.02);
        let policy = SeedPolicy::new(21);
        let params = [[0.4], [0.9], [1.3]];
        let streams: Vec<StreamId> = (0..3).map(|r| StreamId::for_job(40 + r)).collect();
        let free_ops = [&h2];
        let requests: Vec<EvalRequest<'_>> = params
            .iter()
            .zip(&streams)
            .map(|(p, &stream)| EvalRequest {
                circuit: &circuit,
                params: p,
                initial: &InitialState::Basis(0),
                charged_op: &h1,
                free_ops: &free_ops,
                stream: Some(stream),
            })
            .collect();
        let compiled = CompiledCircuit::compile(&circuit);
        let sampler = TrajectorySampler::new(&compiled, &model);
        let basis = TermBasis::new(&[&h1, &h2]);
        // K = 6 splits the last request across two chunks; K = 16 fills a chunk each.
        for k in [6usize, 16] {
            let mut backend = NoisyStatevectorBackend::with_policy(model.clone(), 64, policy)
                .with_trajectories(k)
                .with_shot_sampling();
            let results = backend.evaluate_batch(&requests);
            // (a) Every rollout executed: same bits.
            let mut items: Vec<(usize, Vec<PauliInsertion>)> = Vec::new();
            for (r, (p, &stream)) in params.iter().zip(&streams).enumerate() {
                let (mut state, mut values) = (qop::Statevector::zero_state(2), Vec::new());
                let mut sums: Vec<f64> = Vec::new();
                for t in 0..k {
                    let schedule = sampler.sample(policy.key(stream.substream(0)), t as u64);
                    compiled.execute_from_basis(0, p, &mut state, &schedule, None);
                    basis.evaluate(&state, &mut values);
                    if t == 0 {
                        sums = values.clone();
                    } else {
                        sums.iter_mut().zip(&values).for_each(|(s, v)| *s += v);
                    }
                    items.push((r, schedule));
                }
                let charged = backend
                    .readout
                    .charged(&sampler, &basis, &mut sums, &h1, 64, stream);
                assert_eq!(charged.to_bits(), results[r].charged.to_bits(), "K {k}");
                let free = basis.op_value(1, &sums);
                assert_eq!(free.to_bits(), results[r].free[0].to_bits(), "K {k}");
            }
            // (b) One slot per distinct (request, schedule) of a chunk, not one per rollout.
            let distinct = items
                .chunks(crate::backend::batch_chunk())
                .map(|chunk| {
                    let mut seen: Vec<&(usize, Vec<PauliInsertion>)> = Vec::new();
                    for item in chunk {
                        if !seen.contains(&item) {
                            seen.push(item);
                        }
                    }
                    seen.len()
                })
                .max()
                .unwrap();
            assert!(
                distinct < crate::backend::batch_chunk(),
                "K {k}: no collision"
            );
            assert_eq!(backend.pool.slots.len(), distinct, "K {k}");
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
            let s = qsim::run_circuit(&circuit, &params, &qop::Statevector::zero_state(3));
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
