//! Hardware-Efficient Ansatz (HEA), the default ansatz for every VQE experiment in the
//! paper ("EfficientSU2 with two layers of circular entanglement", five layers in the
//! noisy study).

use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::gate::{Angle, Gate};

/// Entanglement pattern for the hardware-efficient ansatz.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entanglement {
    /// CX between neighbouring qubits `(0,1), (1,2), …, (n-2,n-1)`.
    Linear,
    /// Linear plus the wrap-around `(n-1, 0)` — the paper's configuration.
    Circular,
    /// CX between every pair of qubits (expensive; small systems only).
    Full,
}

/// The hardware-efficient ansatz: alternating rotation layers (RY then RZ on every qubit)
/// and CX entanglement layers, finishing with a final rotation layer.
///
/// With `reps` repetitions the circuit has `(reps + 1) · 2 · n` parameters, matching
/// Qiskit's `EfficientSU2` parameter count.
///
/// # Examples
///
/// ```
/// use qcircuit::{Entanglement, HardwareEfficientAnsatz};
///
/// let ansatz = HardwareEfficientAnsatz::new(4, 2, Entanglement::Circular);
/// let circuit = ansatz.build();
/// assert_eq!(circuit.num_parameters(), (2 + 1) * 2 * 4);
/// assert_eq!(ansatz.num_parameters(), circuit.num_parameters());
/// ```
#[derive(Clone, Debug)]
pub struct HardwareEfficientAnsatz {
    num_qubits: usize,
    reps: usize,
    entanglement: Entanglement,
}

impl HardwareEfficientAnsatz {
    /// Creates a HEA specification, validating the register size.
    pub fn try_new(
        num_qubits: usize,
        reps: usize,
        entanglement: Entanglement,
    ) -> Result<Self, CircuitError> {
        if num_qubits == 0 {
            return Err(CircuitError::EmptyRegister);
        }
        Ok(HardwareEfficientAnsatz {
            num_qubits,
            reps,
            entanglement,
        })
    }

    /// Creates a HEA specification.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0`; use [`HardwareEfficientAnsatz::try_new`] to handle
    /// that as a [`CircuitError`] instead.
    pub fn new(num_qubits: usize, reps: usize, entanglement: Entanglement) -> Self {
        match Self::try_new(num_qubits, reps, entanglement) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of repetitions (entanglement layers).
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// The number of optimizer parameters the built circuit will expose.
    pub fn num_parameters(&self) -> usize {
        (self.reps + 1) * 2 * self.num_qubits
    }

    /// Builds the parameterized circuit.
    pub fn build(&self) -> Circuit {
        let n = self.num_qubits;
        let mut circuit = Circuit::new(n);
        let mut param = 0usize;

        let rotation_layer = |circuit: &mut Circuit, param: &mut usize| {
            for q in 0..n {
                circuit.push(Gate::Ry(q, Angle::param(*param)));
                *param += 1;
            }
            for q in 0..n {
                circuit.push(Gate::Rz(q, Angle::param(*param)));
                *param += 1;
            }
        };

        rotation_layer(&mut circuit, &mut param);
        for _ in 0..self.reps {
            self.entanglement_layer(&mut circuit);
            rotation_layer(&mut circuit, &mut param);
        }
        circuit
    }

    fn entanglement_layer(&self, circuit: &mut Circuit) {
        let n = self.num_qubits;
        if n < 2 {
            return;
        }
        match self.entanglement {
            Entanglement::Linear => {
                for q in 0..n - 1 {
                    circuit.push(Gate::Cx(q, q + 1));
                }
            }
            Entanglement::Circular => {
                for q in 0..n - 1 {
                    circuit.push(Gate::Cx(q, q + 1));
                }
                if n > 2 {
                    circuit.push(Gate::Cx(n - 1, 0));
                }
            }
            Entanglement::Full => {
                for a in 0..n {
                    for b in a + 1..n {
                        circuit.push(Gate::Cx(a, b));
                    }
                }
            }
        }
    }

    /// A reasonable all-zeros initial parameter vector (the HEA then prepares whatever
    /// reference state the circuit is applied to, e.g. Hartree–Fock).
    pub fn zero_parameters(&self) -> Vec<f64> {
        vec![0.0; self.num_parameters()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_count_matches_efficient_su2() {
        for (n, reps) in [(2, 1), (4, 2), (6, 3), (8, 5)] {
            let a = HardwareEfficientAnsatz::new(n, reps, Entanglement::Circular);
            assert_eq!(a.num_parameters(), (reps + 1) * 2 * n);
            assert_eq!(a.build().num_parameters(), a.num_parameters());
        }
    }

    #[test]
    fn circular_entanglement_counts() {
        let a = HardwareEfficientAnsatz::new(5, 2, Entanglement::Circular);
        let c = a.build();
        // 2 entanglement layers of 5 CX each (4 linear + 1 wrap).
        assert_eq!(c.num_entangling_gates(), 10);
    }

    #[test]
    fn linear_and_full_entanglement_counts() {
        let lin = HardwareEfficientAnsatz::new(4, 1, Entanglement::Linear).build();
        assert_eq!(lin.num_entangling_gates(), 3);
        let full = HardwareEfficientAnsatz::new(4, 1, Entanglement::Full).build();
        assert_eq!(full.num_entangling_gates(), 6);
    }

    #[test]
    fn two_qubit_circular_has_single_cx_per_layer() {
        // Wrap-around would duplicate the only pair on 2 qubits; we omit it.
        let a = HardwareEfficientAnsatz::new(2, 3, Entanglement::Circular);
        assert_eq!(a.build().num_entangling_gates(), 3);
    }

    #[test]
    fn zero_parameters_have_correct_length() {
        let a = HardwareEfficientAnsatz::new(3, 2, Entanglement::Circular);
        assert_eq!(a.zero_parameters().len(), a.num_parameters());
    }

    #[test]
    fn deeper_ansatz_is_deeper_circuit() {
        let shallow = HardwareEfficientAnsatz::new(4, 1, Entanglement::Circular).build();
        let deep = HardwareEfficientAnsatz::new(4, 5, Entanglement::Circular).build();
        assert!(deep.depth() > shallow.depth());
    }
}
