//! Gate set for the parameterized-circuit IR.
//!
//! The gate set is intentionally small: Clifford basics plus parameterized single-qubit
//! rotations and a generic multi-qubit Pauli rotation `exp(-i θ/2 · P)`.  The Pauli
//! rotation covers everything the paper's ansätze need — QAOA cost layers, ma-QAOA
//! per-term angles, and UCCSD-style excitation rotations — with a single code path in the
//! statevector and Pauli-propagation simulators.

use qop::PauliString;

/// How a rotation gate obtains its angle.
///
/// Angles are either fixed at circuit-construction time or bound to an optimizer
/// parameter `θ[index]`, optionally scaled by a multiplier (QAOA cost layers use the term
/// coefficient as the multiplier).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Angle {
    /// A constant angle in radians.
    Fixed(f64),
    /// `multiplier * θ[index]` where `θ` is the parameter vector bound at execution time.
    Param {
        /// Index into the parameter vector.
        index: usize,
        /// Scale factor applied to the bound parameter.
        multiplier: f64,
    },
}

impl Angle {
    /// A parameter reference with unit multiplier.
    pub fn param(index: usize) -> Self {
        Angle::Param {
            index,
            multiplier: 1.0,
        }
    }

    /// Resolves the angle against a bound parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if a parameter index is out of range.
    #[inline]
    pub fn resolve(&self, params: &[f64]) -> f64 {
        match *self {
            Angle::Fixed(v) => v,
            Angle::Param { index, multiplier } => {
                assert!(
                    index < params.len(),
                    "parameter index {index} out of range (circuit expects more parameters than supplied: {} given)",
                    params.len()
                );
                multiplier * params[index]
            }
        }
    }

    /// Returns the parameter index if this is a bound angle.
    pub fn param_index(&self) -> Option<usize> {
        match *self {
            Angle::Fixed(_) => None,
            Angle::Param { index, .. } => Some(index),
        }
    }
}

/// A quantum gate.
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard on one qubit.
    H(usize),
    /// Pauli-X on one qubit.
    X(usize),
    /// Pauli-Y on one qubit.
    Y(usize),
    /// Pauli-Z on one qubit.
    Z(usize),
    /// Phase gate S on one qubit.
    S(usize),
    /// Inverse phase gate S† on one qubit.
    Sdg(usize),
    /// Controlled-X with `(control, target)`.
    Cx(usize, usize),
    /// Controlled-Z with `(control, target)` (symmetric).
    Cz(usize, usize),
    /// Rotation about X: `exp(-i θ/2 X)`.
    Rx(usize, Angle),
    /// Rotation about Y: `exp(-i θ/2 Y)`.
    Ry(usize, Angle),
    /// Rotation about Z: `exp(-i θ/2 Z)`.
    Rz(usize, Angle),
    /// Generic Pauli rotation `exp(-i θ/2 P)` for an arbitrary Pauli string `P`.
    PauliRotation(PauliString, Angle),
}

impl Gate {
    /// The qubits this gate touches.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Gate::H(q) | Gate::X(q) | Gate::Y(q) | Gate::Z(q) | Gate::S(q) | Gate::Sdg(q) => {
                vec![*q]
            }
            Gate::Rx(q, _) | Gate::Ry(q, _) | Gate::Rz(q, _) => vec![*q],
            Gate::Cx(c, t) | Gate::Cz(c, t) => vec![*c, *t],
            Gate::PauliRotation(p, _) => p.iter_non_identity().map(|(q, _)| q).collect(),
        }
    }

    /// Returns the angle specification for parameterized gates.
    pub fn angle(&self) -> Option<&Angle> {
        match self {
            Gate::Rx(_, a) | Gate::Ry(_, a) | Gate::Rz(_, a) | Gate::PauliRotation(_, a) => Some(a),
            _ => None,
        }
    }

    /// Returns `true` if the gate acts on two or more qubits.
    pub fn is_entangling(&self) -> bool {
        match self {
            Gate::Cx(..) | Gate::Cz(..) => true,
            Gate::PauliRotation(p, _) => p.weight() >= 2,
            _ => false,
        }
    }

    /// Returns `true` if the gate's angle is bound to an optimizer parameter.
    pub fn is_parameterized(&self) -> bool {
        matches!(self.angle(), Some(Angle::Param { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn angle_resolution() {
        let params = [0.3, -1.2];
        assert_eq!(Angle::Fixed(0.5).resolve(&params), 0.5);
        assert_eq!(Angle::param(1).resolve(&params), -1.2);
        let scaled = Angle::Param {
            index: 0,
            multiplier: 2.0,
        };
        assert!((scaled.resolve(&params) - 0.6).abs() < 1e-15);
        assert_eq!(scaled.param_index(), Some(0));
        assert_eq!(Angle::Fixed(1.0).param_index(), None);
    }

    #[test]
    #[should_panic]
    fn out_of_range_parameter_panics() {
        Angle::param(3).resolve(&[0.1]);
    }

    #[test]
    fn gate_qubits_and_classification() {
        assert_eq!(Gate::H(2).qubits(), vec![2]);
        assert_eq!(Gate::Cx(0, 3).qubits(), vec![0, 3]);
        assert!(Gate::Cx(0, 1).is_entangling());
        assert!(!Gate::Rx(0, Angle::Fixed(0.1)).is_entangling());
        assert!(Gate::Ry(0, Angle::param(0)).is_parameterized());
        assert!(!Gate::Ry(0, Angle::Fixed(0.2)).is_parameterized());

        let zz = PauliString::from_label("ZZ").unwrap();
        let g = Gate::PauliRotation(zz, Angle::param(0));
        assert_eq!(g.qubits(), vec![0, 1]);
        assert!(g.is_entangling());
    }
}
