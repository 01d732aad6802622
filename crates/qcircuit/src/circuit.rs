//! Parameterized-circuit container.

use crate::error::CircuitError;
use crate::gate::{Angle, Gate};

/// A parameterized quantum circuit: an ordered list of gates on a fixed-size register.
///
/// The circuit does not own parameter *values*; it only records which gates reference
/// which parameter indices.  Values are bound at execution time by the simulator.
///
/// # Examples
///
/// ```
/// use qcircuit::{Angle, Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H(0));
/// c.push(Gate::Cx(0, 1));
/// c.push(Gate::Rz(1, Angle::param(0)));
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.num_parameters(), 1);
/// assert_eq!(c.num_entangling_gates(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The ordered gate list.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Appends a gate, validating that it fits the register.
    ///
    /// This is the fallible form for user-supplied gates; builders whose indices are
    /// correct by construction use [`Circuit::push`].
    pub fn try_push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        for q in gate.qubits() {
            if q >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the register; use
    /// [`Circuit::try_push`] to handle that as a [`CircuitError`] instead.
    pub fn push(&mut self, gate: Gate) {
        if let Err(e) = self.try_push(gate) {
            panic!("{e}");
        }
    }

    /// Appends every gate of another circuit, validating the register sizes match.
    pub fn try_extend(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        if self.num_qubits != other.num_qubits {
            return Err(CircuitError::RegisterMismatch {
                expected: self.num_qubits,
                got: other.num_qubits,
            });
        }
        self.gates.extend_from_slice(&other.gates);
        Ok(())
    }

    /// Appends every gate of another circuit (must have the same register size).
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ; use [`Circuit::try_extend`] to handle that
    /// as a [`CircuitError`] instead.
    pub fn extend(&mut self, other: &Circuit) {
        if let Err(e) = self.try_extend(other) {
            panic!("{e}");
        }
    }

    /// The number of distinct optimizer parameters referenced by the circuit
    /// (`1 + max index`, or 0 if no gate is parameterized).
    pub fn num_parameters(&self) -> usize {
        self.gates
            .iter()
            .filter_map(|g| g.angle().and_then(Angle::param_index))
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }

    /// The number of entangling (two-or-more-qubit) gates.
    pub fn num_entangling_gates(&self) -> usize {
        self.gates.iter().filter(|g| g.is_entangling()).count()
    }

    /// The number of parameterized gates (several gates may share one parameter).
    pub fn num_parameterized_gates(&self) -> usize {
        self.gates.iter().filter(|g| g.is_parameterized()).count()
    }

    /// A simple circuit-depth estimate: the length of the longest chain of gates that
    /// share qubits (greedy per-qubit layering, the usual ASAP depth).
    pub fn depth(&self) -> usize {
        let mut qubit_depth = vec![0usize; self.num_qubits];
        let mut max_depth = 0;
        for g in &self.gates {
            let qubits = g.qubits();
            if qubits.is_empty() {
                continue;
            }
            let layer = qubits.iter().map(|&q| qubit_depth[q]).max().unwrap() + 1;
            for &q in &qubits {
                qubit_depth[q] = layer;
            }
            max_depth = max_depth.max(layer);
        }
        max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qop::PauliString;

    #[test]
    fn parameter_counting_uses_max_index() {
        let mut c = Circuit::new(3);
        c.push(Gate::Ry(0, Angle::param(4)));
        c.push(Gate::Ry(1, Angle::param(2)));
        assert_eq!(c.num_parameters(), 5);
        assert_eq!(c.num_parameterized_gates(), 2);
    }

    #[test]
    fn empty_circuit_has_zero_parameters_and_depth() {
        let c = Circuit::new(4);
        assert_eq!(c.num_parameters(), 0);
        assert_eq!(c.depth(), 0);
        assert_eq!(c.num_gates(), 0);
    }

    #[test]
    fn depth_accounts_for_qubit_sharing() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0)); // layer 1
        c.push(Gate::H(1)); // layer 1
        c.push(Gate::Cx(0, 1)); // layer 2
        c.push(Gate::H(0)); // layer 3
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.push(Gate::H(0));
        let mut b = Circuit::new(2);
        b.push(Gate::Cx(0, 1));
        a.extend(&b);
        assert_eq!(a.num_gates(), 2);
        assert_eq!(a.num_entangling_gates(), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_register_gate_panics() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(2));
    }

    #[test]
    fn pauli_rotation_counts_as_entangling_when_weight_two() {
        let mut c = Circuit::new(3);
        let zz = PauliString::from_label("ZZI").unwrap();
        c.push(Gate::PauliRotation(zz, Angle::param(0)));
        assert_eq!(c.num_entangling_gates(), 1);
        assert_eq!(c.num_parameters(), 1);
    }
}
