//! QAOA and multi-angle QAOA (ma-QAOA) ansatz builders.
//!
//! The cost Hamiltonian must be diagonal in the computational basis (Z/I Pauli factors
//! only), which is the case for every QUBO/MaxCut Hamiltonian.  Standard QAOA uses `2p`
//! parameters (`γ_ℓ, β_ℓ` per layer); ma-QAOA — the variant the paper adopts for finer
//! split control (Section 6) — assigns an individual angle to every cost term and every
//! mixer qubit, i.e. `(m + n)·p` parameters.

use crate::circuit::Circuit;
use crate::gate::{Angle, Gate};
use qop::{Pauli, PauliOp};

/// Which parameterization the QAOA circuit uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QaoaStyle {
    /// Standard QAOA: one `γ` and one `β` per layer (`2p` parameters).
    Standard,
    /// Multi-angle QAOA: one angle per cost term and per mixer qubit per layer
    /// (`(m + n)·p` parameters).
    MultiAngle,
}

/// QAOA ansatz specification built from a diagonal cost Hamiltonian.
///
/// # Examples
///
/// ```
/// use qcircuit::{QaoaAnsatz, QaoaStyle};
/// use qop::PauliOp;
///
/// let cost = PauliOp::from_labels(3, &[("ZZI", 0.5), ("IZZ", 0.5), ("ZIZ", 0.5)]);
/// let qaoa = QaoaAnsatz::new(&cost, 2, QaoaStyle::Standard).unwrap();
/// assert_eq!(qaoa.num_parameters(), 4);
/// let ma = QaoaAnsatz::new(&cost, 2, QaoaStyle::MultiAngle).unwrap();
/// assert_eq!(ma.num_parameters(), (3 + 3) * 2);
/// ```
#[derive(Clone, Debug)]
pub struct QaoaAnsatz {
    cost: PauliOp,
    layers: usize,
    style: QaoaStyle,
    /// Indices (into `cost.terms()`) of the non-identity cost terms used in phasing layers.
    phasing_terms: Vec<usize>,
}

/// Error returned when a cost Hamiltonian is not diagonal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonDiagonalCostError {
    /// Label of the offending term.
    pub term: String,
}

impl std::fmt::Display for NonDiagonalCostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cost Hamiltonian term {} contains X or Y factors; QAOA requires a diagonal cost operator",
            self.term
        )
    }
}

impl std::error::Error for NonDiagonalCostError {}

impl QaoaAnsatz {
    /// Creates a QAOA ansatz for `layers` repetitions of (phasing, mixing).
    ///
    /// # Errors
    ///
    /// Returns [`NonDiagonalCostError`] if any cost term contains X or Y factors.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn new(
        cost: &PauliOp,
        layers: usize,
        style: QaoaStyle,
    ) -> Result<Self, NonDiagonalCostError> {
        assert!(layers > 0, "QAOA needs at least one layer");
        let mut phasing_terms = Vec::new();
        for (idx, term) in cost.terms().iter().enumerate() {
            let diagonal = (0..term.string.num_qubits())
                .all(|q| matches!(term.string.pauli_at(q), Pauli::I | Pauli::Z));
            if !diagonal {
                return Err(NonDiagonalCostError {
                    term: term.string.label(),
                });
            }
            if !term.string.is_identity() {
                phasing_terms.push(idx);
            }
        }
        Ok(QaoaAnsatz {
            cost: cost.clone(),
            layers,
            style,
            phasing_terms,
        })
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.cost.num_qubits()
    }

    /// Number of QAOA layers `p`.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The parameterization style.
    pub fn style(&self) -> QaoaStyle {
        self.style
    }

    /// Number of non-identity cost terms (the `m` in `(m + n)·p`).
    pub fn num_cost_terms(&self) -> usize {
        self.phasing_terms.len()
    }

    /// Number of optimizer parameters.
    pub fn num_parameters(&self) -> usize {
        match self.style {
            QaoaStyle::Standard => 2 * self.layers,
            QaoaStyle::MultiAngle => (self.num_cost_terms() + self.num_qubits()) * self.layers,
        }
    }

    /// Builds the circuit, including the initial `H^{⊗n}` layer that prepares `|+…+⟩`.
    pub fn build(&self) -> Circuit {
        let n = self.num_qubits();
        let m = self.num_cost_terms();
        let mut circuit = Circuit::new(n);
        for q in 0..n {
            circuit.push(Gate::H(q));
        }
        for layer in 0..self.layers {
            // Phasing layer: exp(-i γ c_k Z…Z) per term == PauliRotation with angle 2 γ c_k.
            for (k, &term_idx) in self.phasing_terms.iter().enumerate() {
                let term = &self.cost.terms()[term_idx];
                let angle = match self.style {
                    QaoaStyle::Standard => Angle::Param {
                        index: 2 * layer,
                        multiplier: 2.0 * term.coefficient,
                    },
                    QaoaStyle::MultiAngle => Angle::Param {
                        index: layer * (m + n) + k,
                        multiplier: 2.0 * term.coefficient,
                    },
                };
                circuit.push(Gate::PauliRotation(term.string, angle));
            }
            // Mixing layer: exp(-i β X_q) == RX(2β).
            for q in 0..n {
                let angle = match self.style {
                    QaoaStyle::Standard => Angle::Param {
                        index: 2 * layer + 1,
                        multiplier: 2.0,
                    },
                    QaoaStyle::MultiAngle => Angle::Param {
                        index: layer * (m + n) + m + q,
                        multiplier: 2.0,
                    },
                };
                circuit.push(Gate::Rx(q, angle));
            }
        }
        circuit
    }

    /// The conventional linear-ramp initial parameters (γ ramps up, β ramps down), a
    /// standard warm start that works reasonably across MaxCut instances.
    pub fn ramp_parameters(&self) -> Vec<f64> {
        let p = self.layers;
        match self.style {
            QaoaStyle::Standard => {
                let mut v = Vec::with_capacity(2 * p);
                for l in 0..p {
                    let frac = (l as f64 + 0.5) / p as f64;
                    v.push(0.4 * frac); // gamma
                    v.push(0.4 * (1.0 - frac)); // beta
                }
                v
            }
            QaoaStyle::MultiAngle => {
                let m = self.num_cost_terms();
                let n = self.num_qubits();
                let mut v = Vec::with_capacity((m + n) * p);
                for l in 0..p {
                    let frac = (l as f64 + 0.5) / p as f64;
                    v.extend(std::iter::repeat(0.4 * frac).take(m));
                    v.extend(std::iter::repeat(0.4 * (1.0 - frac)).take(n));
                }
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_cost() -> PauliOp {
        PauliOp::from_labels(
            3,
            &[("ZZI", 0.5), ("IZZ", 0.5), ("ZIZ", 0.5), ("III", -1.5)],
        )
    }

    #[test]
    fn standard_parameter_count() {
        let q = QaoaAnsatz::new(&triangle_cost(), 3, QaoaStyle::Standard).unwrap();
        assert_eq!(q.num_parameters(), 6);
        assert_eq!(q.build().num_parameters(), 6);
    }

    #[test]
    fn multi_angle_parameter_count_is_m_plus_n_times_p() {
        let q = QaoaAnsatz::new(&triangle_cost(), 2, QaoaStyle::MultiAngle).unwrap();
        assert_eq!(q.num_cost_terms(), 3);
        assert_eq!(q.num_parameters(), (3 + 3) * 2);
        assert_eq!(q.build().num_parameters(), (3 + 3) * 2);
    }

    #[test]
    fn identity_terms_are_skipped_in_phasing() {
        let q = QaoaAnsatz::new(&triangle_cost(), 1, QaoaStyle::Standard).unwrap();
        let c = q.build();
        let rotations = c
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::PauliRotation(..)))
            .count();
        assert_eq!(rotations, 3);
    }

    #[test]
    fn non_diagonal_cost_is_rejected() {
        let bad = PauliOp::from_labels(2, &[("XZ", 1.0)]);
        assert!(QaoaAnsatz::new(&bad, 1, QaoaStyle::Standard).is_err());
    }

    #[test]
    fn ramp_parameters_have_correct_length() {
        let std = QaoaAnsatz::new(&triangle_cost(), 4, QaoaStyle::Standard).unwrap();
        assert_eq!(std.ramp_parameters().len(), std.num_parameters());
        let ma = QaoaAnsatz::new(&triangle_cost(), 4, QaoaStyle::MultiAngle).unwrap();
        assert_eq!(ma.ramp_parameters().len(), ma.num_parameters());
    }

    #[test]
    fn initial_layer_is_hadamards() {
        let q = QaoaAnsatz::new(&triangle_cost(), 1, QaoaStyle::Standard).unwrap();
        let c = q.build();
        for (i, g) in c.gates().iter().take(3).enumerate() {
            assert_eq!(*g, Gate::H(i));
        }
    }
}
