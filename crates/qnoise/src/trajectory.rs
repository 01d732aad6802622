//! Seeded trajectory sampling over a compiled circuit's noise sites.
//!
//! A [`TrajectorySampler`] is built once per (compiled circuit, noise model) pair: it
//! flattens the model's channels over the circuit's [`qsim::NoiseSite`] table into a
//! list of elementary draws.  Sampling one trajectory then walks that list with a
//! trajectory-private RNG and emits the (sorted) [`qsim::PauliInsertion`] schedule to
//! replay through [`qsim::CompiledCircuit::execute_in_place_with_insertions`] — the
//! compiled gate list is never re-walked, and sampling cost is proportional to the gate
//! count, not the state dimension.

use crate::model::PauliNoiseModel;
use qop::{Pauli, PauliString};
use qsim::{CompiledCircuit, PauliInsertion};
use rand::Rng;

/// The RNG seed of trajectory `trajectory` under stream seed `seed`.
///
/// This is the crate's **seeding contract**: a trajectory's insertion schedule depends
/// only on `(seed, trajectory)` (plus the circuit and model it is sampled for) — never
/// on batch size or which other trajectories run.  Since the
/// workspace-wide counter-based RNG landed, this is exactly [`qrng::mix`] — the same
/// SplitMix64-finalizer block function every stochastic consumer keys its streams with —
/// so trajectory seeds recorded under the original contract are unchanged.
pub fn trajectory_seed(seed: u64, trajectory: u64) -> u64 {
    qrng::mix(seed, trajectory)
}

/// One elementary random draw of a trajectory, pre-resolved to its insertion point.
#[derive(Clone, Debug)]
enum ElemDraw {
    /// A single-qubit channel: cumulative thresholds over `[X, Y, Z]` (an error fires
    /// when the uniform draw lands below `cum[2]`).
    Single {
        after_op: usize,
        qubit: usize,
        cum: [f64; 3],
    },
    /// A `k`-qubit uniform depolarizing draw: with probability `p`, a uniformly random
    /// non-identity Pauli pattern over `qubits`.
    Uniform {
        after_op: usize,
        qubits: Vec<usize>,
        p: f64,
    },
}

/// A noise model bound to one compiled circuit, ready to sample insertion schedules.
#[derive(Clone, Debug)]
pub struct TrajectorySampler {
    draws: Vec<ElemDraw>,
    num_qubits: usize,
    /// Expected number of fired errors per trajectory (for diagnostics and benches).
    mean_errors: f64,
}

impl TrajectorySampler {
    /// Flattens `model`'s channels over `compiled`'s noise sites.
    ///
    /// Channels with zero total error probability are dropped here, so they neither
    /// consume RNG draws nor cost sampling time; consequently the draw stream (and the
    /// seeding contract) is defined over the model's *nonzero* channels in site order.
    ///
    /// # Panics
    ///
    /// Panics if any channel strength is outside `[0, 1]`.
    pub fn new(compiled: &CompiledCircuit, model: &PauliNoiseModel) -> Self {
        let mut draws = Vec::new();
        let mut mean_errors = 0.0;
        let push_single = |draws: &mut Vec<ElemDraw>,
                           mean_errors: &mut f64,
                           after_op: usize,
                           qubit: usize,
                           probs: [f64; 3]| {
            let total: f64 = probs.iter().sum();
            if total <= 0.0 {
                return;
            }
            let cum = [probs[0], probs[0] + probs[1], total];
            *mean_errors += total;
            draws.push(ElemDraw::Single {
                after_op,
                qubit,
                cum,
            });
        };
        // Validate up front (and once), so an invalid model is rejected even when the
        // circuit happens to contain no entangling gate.
        assert!(
            (0.0..=1.0).contains(&model.two_qubit_depolarizing),
            "two-qubit depolarizing strength outside [0, 1]"
        );
        for site in compiled.noise_sites() {
            if site.entangling {
                if model.two_qubit_depolarizing > 0.0 {
                    mean_errors += model.two_qubit_depolarizing;
                    draws.push(ElemDraw::Uniform {
                        after_op: site.op_index,
                        qubits: site.qubits.clone(),
                        p: model.two_qubit_depolarizing,
                    });
                }
                for channel in &model.two_qubit_local {
                    let probs = channel.probabilities();
                    for &q in &site.qubits {
                        push_single(&mut draws, &mut mean_errors, site.op_index, q, probs);
                    }
                }
            } else {
                for channel in &model.single_qubit {
                    let probs = channel.probabilities();
                    push_single(
                        &mut draws,
                        &mut mean_errors,
                        site.op_index,
                        site.qubits[0],
                        probs,
                    );
                }
            }
        }
        TrajectorySampler {
            draws,
            num_qubits: compiled.num_qubits(),
            mean_errors,
        }
    }

    /// Returns `true` if no draw can ever fire (every sampled schedule is empty).
    pub fn is_trivial(&self) -> bool {
        self.draws.is_empty()
    }

    /// Expected number of fired Pauli errors per trajectory.
    pub fn mean_errors_per_trajectory(&self) -> f64 {
        self.mean_errors
    }

    /// Samples the insertion schedule of trajectory `trajectory` under stream seed
    /// `seed` into `out` (cleared first), sorted by insertion point.
    pub fn sample_into(&self, seed: u64, trajectory: u64, out: &mut Vec<PauliInsertion>) {
        out.clear();
        if self.draws.is_empty() {
            return;
        }
        let mut rng = qrng::CounterRng::new(trajectory_seed(seed, trajectory));
        for draw in &self.draws {
            match draw {
                ElemDraw::Single {
                    after_op,
                    qubit,
                    cum,
                } => {
                    let u: f64 = rng.random();
                    if u < cum[2] {
                        let pauli = if u < cum[0] {
                            Pauli::X
                        } else if u < cum[1] {
                            Pauli::Y
                        } else {
                            Pauli::Z
                        };
                        out.push(PauliInsertion {
                            after_op: *after_op,
                            string: PauliString::single(self.num_qubits, *qubit, pauli),
                        });
                    }
                }
                ElemDraw::Uniform {
                    after_op,
                    qubits,
                    p,
                } => {
                    let u: f64 = rng.random();
                    if u < *p {
                        // Uniform over the 4^k − 1 non-identity patterns: indices
                        // 1..4^k, base-4 digits mapped to [I, X, Y, Z] per qubit.
                        let patterns = 1u64 << (2 * qubits.len() as u32);
                        let mut index = rng.random_range(1..patterns);
                        let mut string = PauliString::identity(self.num_qubits);
                        for &q in qubits {
                            let digit = index & 3;
                            index >>= 2;
                            let pauli = match digit {
                                0 => Pauli::I,
                                1 => Pauli::X,
                                2 => Pauli::Y,
                                _ => Pauli::Z,
                            };
                            string.set_pauli(q, pauli);
                        }
                        out.push(PauliInsertion {
                            after_op: *after_op,
                            string,
                        });
                    }
                }
            }
        }
        // Fusion can fold a later source gate into an earlier compiled op, so site op
        // indices are not necessarily monotonic; the executor requires sorted order.
        // The sort is stable: same-op errors keep their source-gate firing order.
        out.sort_by_key(|ins| ins.after_op);
    }

    /// Allocating convenience form of [`TrajectorySampler::sample_into`].
    pub fn sample(&self, seed: u64, trajectory: u64) -> Vec<PauliInsertion> {
        let mut out = Vec::new();
        self.sample_into(seed, trajectory, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PauliChannel;
    use qcircuit::{Angle, Circuit, Gate};

    fn demo_compiled() -> CompiledCircuit {
        let mut circ = Circuit::new(3);
        circ.push(Gate::H(0));
        circ.push(Gate::Rz(0, Angle::param(0)));
        circ.push(Gate::Cx(0, 1));
        circ.push(Gate::H(2));
        CompiledCircuit::compile(&circ)
    }

    #[test]
    fn zero_rate_model_samples_empty_schedules() {
        let compiled = demo_compiled();
        let sampler = TrajectorySampler::new(&compiled, &PauliNoiseModel::noiseless());
        assert!(sampler.is_trivial());
        assert_eq!(sampler.mean_errors_per_trajectory(), 0.0);
        for t in 0..16 {
            assert!(sampler.sample(42, t).is_empty());
        }
        // Explicit zero-strength channels are dropped identically.
        let zero = PauliNoiseModel::depolarizing(0.0, 0.0)
            .with_single_qubit_channel(PauliChannel::Dephasing(0.0));
        assert!(TrajectorySampler::new(&compiled, &zero).is_trivial());
    }

    #[test]
    fn schedules_are_reproducible_and_independent_of_order() {
        let compiled = demo_compiled();
        let model = PauliNoiseModel::ibm_like("t", 0.2, 0.4, 0.1, 0.0);
        let sampler = TrajectorySampler::new(&compiled, &model);
        assert!(!sampler.is_trivial());
        // Sample trajectories out of order and compare against in-order sampling.
        let backwards: Vec<_> = (0..8).rev().map(|t| sampler.sample(7, t)).collect();
        for (t, expected) in backwards.into_iter().rev().enumerate() {
            assert_eq!(sampler.sample(7, t as u64), expected, "trajectory {t}");
        }
        // Different stream seeds give different schedules somewhere.
        let differs = (0..8).any(|t| sampler.sample(7, t) != sampler.sample(8, t));
        assert!(differs);
    }

    #[test]
    fn schedules_are_sorted_and_reference_valid_ops() {
        let compiled = demo_compiled();
        let model = PauliNoiseModel::depolarizing(0.5, 0.9);
        let sampler = TrajectorySampler::new(&compiled, &model);
        for t in 0..32 {
            let schedule = sampler.sample(3, t);
            assert!(schedule.windows(2).all(|w| w[0].after_op <= w[1].after_op));
            assert!(schedule
                .iter()
                .all(|ins| ins.after_op < compiled.num_ops() && !ins.string.is_identity()));
        }
    }

    #[test]
    fn two_qubit_draws_cover_all_fifteen_patterns() {
        let mut circ = Circuit::new(2);
        circ.push(Gate::Cx(0, 1));
        let compiled = CompiledCircuit::compile(&circ);
        let model = PauliNoiseModel::depolarizing(0.0, 1.0);
        let sampler = TrajectorySampler::new(&compiled, &model);
        let mut seen = std::collections::HashSet::new();
        for t in 0..4096 {
            let schedule = sampler.sample(11, t);
            assert_eq!(schedule.len(), 1, "p = 1 always fires");
            seen.insert(schedule[0].string.label());
        }
        assert_eq!(seen.len(), 15, "saw {seen:?}");
    }
}
