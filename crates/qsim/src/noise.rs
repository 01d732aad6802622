//! Analytic hardware-noise models.
//!
//! The paper's noisy study (Section 8.7, Table 2) uses Qiskit's density-matrix simulator
//! with calibration data from five IBM backends, and the large-scale study (Section 8.4)
//! inserts a 1 % depolarizing layer after each circuit repetition.  Reproducing a full
//! density-matrix simulator would dominate runtime without changing the comparison, so we
//! model the dominant effect analytically:
//!
//! * a depolarizing channel of strength `p` applied to a qubit multiplies the expectation
//!   value of any non-identity Pauli on that qubit by `(1 − p)`;
//! * readout error `r` on a measured qubit multiplies `⟨Z⟩`-type expectations by
//!   `(1 − 2r)` per measured qubit.
//!
//! The per-term attenuation therefore depends on the gate counts of the executed circuit
//! and on the weight of the measured Pauli term.  This deforms and flattens the
//! optimization landscape for TreeVQA and the baseline alike — exactly the mechanism the
//! paper identifies for the (slight) reduction of TreeVQA's advantage under noise.

use qcircuit::Circuit;
use qop::{PauliOp, Statevector, TermBasis};

/// Per-backend noise parameters (synthetic calibrations in the ballpark of the paper's
/// IBM devices).
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseModel {
    /// Human-readable backend name.
    pub name: String,
    /// Depolarizing error probability per single-qubit gate.
    pub single_qubit_error: f64,
    /// Depolarizing error probability per two-qubit gate.
    pub two_qubit_error: f64,
    /// Readout (measurement) error probability per qubit.
    pub readout_error: f64,
    /// Additional depolarizing error applied per qubit per ansatz repetition
    /// (the "noise layer after each circuit repetition" of Section 8.4); usually 0.
    pub per_layer_error: f64,
}

impl NoiseModel {
    /// A noiseless model (all error rates zero).
    pub fn noiseless() -> Self {
        NoiseModel {
            name: "noiseless".to_string(),
            single_qubit_error: 0.0,
            two_qubit_error: 0.0,
            readout_error: 0.0,
            per_layer_error: 0.0,
        }
    }

    /// The depolarizing-layer model of the large-scale study: `rate` per qubit per circuit
    /// repetition, no gate or readout errors.
    pub fn depolarizing_layer(rate: f64) -> Self {
        NoiseModel {
            name: format!("depolarizing-layer-{rate}"),
            single_qubit_error: 0.0,
            two_qubit_error: 0.0,
            readout_error: 0.0,
            per_layer_error: rate,
        }
    }

    /// Synthetic calibration tables standing in for the paper's five IBM backends.
    ///
    /// The relative ordering (Cairo/Hanoi better than Kolkata/Auckland/Mumbai) follows the
    /// publicly reported calibration ballpark for those devices; exact numbers are not
    /// reproducible without IBM's historical calibration data (the substitution the
    /// module docs describe).
    pub fn synthetic_backends() -> Vec<NoiseModel> {
        let mk = |name: &str, p1: f64, p2: f64, ro: f64| NoiseModel {
            name: name.to_string(),
            single_qubit_error: p1,
            two_qubit_error: p2,
            readout_error: ro,
            per_layer_error: 0.0,
        };
        vec![
            mk("hanoi", 2.3e-4, 6.5e-3, 1.4e-2),
            mk("cairo", 2.0e-4, 6.0e-3, 1.2e-2),
            mk("mumbai", 3.5e-4, 9.0e-3, 2.3e-2),
            mk("kolkata", 3.0e-4, 8.5e-3, 1.8e-2),
            mk("auckland", 3.2e-4, 8.0e-3, 2.0e-2),
        ]
    }

    /// Looks up a synthetic backend by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<NoiseModel> {
        Self::synthetic_backends()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// Returns `true` if every error rate is zero.
    pub fn is_noiseless(&self) -> bool {
        self.single_qubit_error == 0.0
            && self.two_qubit_error == 0.0
            && self.readout_error == 0.0
            && self.per_layer_error == 0.0
    }
}

/// Gate-count profile of a circuit, used to evaluate the analytic attenuation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CircuitNoiseProfile {
    /// Number of single-qubit gates.
    pub single_qubit_gates: usize,
    /// Number of two-or-more-qubit gates.
    pub two_qubit_gates: usize,
    /// Number of ansatz repetitions ("layers") for the per-layer depolarizing channel.
    pub layers: usize,
    /// Register size.
    pub num_qubits: usize,
}

impl CircuitNoiseProfile {
    /// Derives the gate counts from a circuit; `layers` must be supplied by the caller
    /// because the ansatz repetition count is not recoverable from the flat gate list.
    pub fn from_circuit(circuit: &Circuit, layers: usize) -> Self {
        let two = circuit.num_entangling_gates();
        CircuitNoiseProfile {
            single_qubit_gates: circuit.num_gates() - two,
            two_qubit_gates: two,
            layers,
            num_qubits: circuit.num_qubits(),
        }
    }
}

/// The attenuation factor applied to a Pauli term of weight `term_weight`.
///
/// Gate depolarization acts on the whole register, so it is charged per gate; readout and
/// per-layer depolarization act per measured/affected qubit, so they are charged per unit
/// of term weight.
pub fn attenuation_factor(
    model: &NoiseModel,
    profile: &CircuitNoiseProfile,
    term_weight: u32,
) -> f64 {
    if model.is_noiseless() || term_weight == 0 {
        return 1.0;
    }
    // Gate errors: each erroneous gate scrambles the propagated Pauli with probability ~p.
    // Distribute the damage over the register so that wider registers are (correctly) less
    // sensitive per term: effective exponent = gates * weight / n.
    let n = profile.num_qubits.max(1) as f64;
    let w = term_weight as f64;
    let single = (1.0 - model.single_qubit_error).powf(profile.single_qubit_gates as f64 * w / n);
    let double = (1.0 - model.two_qubit_error).powf(profile.two_qubit_gates as f64 * 2.0 * w / n);
    let readout = (1.0 - 2.0 * model.readout_error).max(0.0).powf(w);
    let layer = (1.0 - model.per_layer_error).powf(profile.layers as f64 * w);
    single * double * readout * layer
}

/// Attenuates one [`TermBasis`] readout in place: every string's value is multiplied
/// by the [`attenuation_factor`] of its weight (the identity has weight 0 and passes
/// through untouched).  Operators contracted from the attenuated vector are the analytic
/// noisy expectations — one `powf` set per *distinct* string, however many operators
/// share it.
pub fn attenuate_readout(
    basis: &TermBasis,
    values: &mut [f64],
    model: &NoiseModel,
    profile: &CircuitNoiseProfile,
) {
    for (value, string) in values.iter_mut().zip(basis.strings()) {
        *value *= attenuation_factor(model, profile, string.weight());
    }
}

/// Exact (shot-noise-free) expectation value of `op` under the analytic noise model.
///
/// Each term's ideal expectation is attenuated by [`attenuation_factor`]; identity terms
/// are untouched.  A thin wrapper over a transient [`TermBasis`] and
/// [`attenuate_readout`].
pub fn noisy_expectation(
    op: &PauliOp,
    state: &Statevector,
    model: &NoiseModel,
    profile: &CircuitNoiseProfile,
) -> f64 {
    if op.num_terms() == 0 {
        return 0.0;
    }
    let basis = TermBasis::new(&[op]);
    let mut values = Vec::new();
    basis.evaluate(state, &mut values);
    attenuate_readout(&basis, &mut values, model, profile);
    basis.op_value(0, &values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_model_is_identity() {
        let model = NoiseModel::noiseless();
        let profile = CircuitNoiseProfile {
            single_qubit_gates: 100,
            two_qubit_gates: 40,
            layers: 5,
            num_qubits: 4,
        };
        assert_eq!(attenuation_factor(&model, &profile, 3), 1.0);
    }

    #[test]
    fn attenuation_decreases_with_gates_and_weight() {
        let model = NoiseModel::by_name("mumbai").unwrap();
        let small = CircuitNoiseProfile {
            single_qubit_gates: 10,
            two_qubit_gates: 4,
            layers: 2,
            num_qubits: 4,
        };
        let big = CircuitNoiseProfile {
            single_qubit_gates: 100,
            two_qubit_gates: 40,
            layers: 5,
            num_qubits: 4,
        };
        let a_small = attenuation_factor(&model, &small, 2);
        let a_big = attenuation_factor(&model, &big, 2);
        assert!(a_big < a_small);
        assert!(a_small <= 1.0 && a_big > 0.0);
        assert!(attenuation_factor(&model, &small, 4) < attenuation_factor(&model, &small, 1));
    }

    #[test]
    fn noisy_expectation_shrinks_toward_identity_offset() {
        let op = PauliOp::from_labels(2, &[("II", -1.0), ("ZZ", 0.8)]);
        let psi = Statevector::zero_state(2); // <ZZ> = 1 exactly
        let model = NoiseModel::by_name("kolkata").unwrap();
        let profile = CircuitNoiseProfile {
            single_qubit_gates: 30,
            two_qubit_gates: 10,
            layers: 2,
            num_qubits: 2,
        };
        let ideal = op.expectation(&psi); // -1.0 + 0.8 = -0.2
        let noisy = noisy_expectation(&op, &psi, &model, &profile);
        assert!(
            noisy < ideal,
            "attenuating the ZZ term pulls the value toward the identity offset (-1.0)"
        );
        assert!(noisy > -1.0, "but never past the identity offset");
    }

    #[test]
    fn synthetic_backend_roster_matches_table2() {
        let names: Vec<String> = NoiseModel::synthetic_backends()
            .into_iter()
            .map(|m| m.name)
            .collect();
        for expected in ["hanoi", "cairo", "mumbai", "kolkata", "auckland"] {
            assert!(names.contains(&expected.to_string()));
        }
        assert!(NoiseModel::by_name("HANOI").is_some());
        assert!(NoiseModel::by_name("unknown").is_none());
    }

    #[test]
    fn depolarizing_layer_model_only_uses_layers() {
        let model = NoiseModel::depolarizing_layer(0.01);
        let profile = CircuitNoiseProfile {
            single_qubit_gates: 1000,
            two_qubit_gates: 1000,
            layers: 3,
            num_qubits: 10,
        };
        let a = attenuation_factor(&model, &profile, 2);
        assert!((a - 0.99f64.powi(6)).abs() < 1e-12);
    }

    #[test]
    fn profile_from_circuit_counts_gates() {
        use qcircuit::{Entanglement, HardwareEfficientAnsatz};
        let circ = HardwareEfficientAnsatz::new(4, 2, Entanglement::Circular).build();
        let p = CircuitNoiseProfile::from_circuit(&circ, 2);
        assert_eq!(p.two_qubit_gates, 8);
        assert_eq!(p.single_qubit_gates, circ.num_gates() - 8);
        assert_eq!(p.num_qubits, 4);
    }
}
