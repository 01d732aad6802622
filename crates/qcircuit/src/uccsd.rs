//! UCCSD-style ansatz (unitary coupled cluster with singles and doubles).
//!
//! The paper uses a UCCSD ansatz only for the small H₂ benchmark ("H₂ □ UCCSD").  This
//! module implements the standard first-order Trotterized UCCSD circuit under the
//! Jordan–Wigner mapping: every single excitation contributes two Pauli rotations sharing
//! one parameter, every double excitation contributes eight.  The decomposition follows
//! Romero et al. (2018); a global sign convention difference only re-labels the optimizer
//! parameter sign and does not change the variational family.

use crate::circuit::Circuit;
use crate::gate::{Angle, Gate};
use qop::{Pauli, PauliString};

/// UCCSD ansatz specification for `num_spin_orbitals` qubits (Jordan–Wigner: one qubit per
/// spin orbital) and `num_electrons` electrons occupying the lowest orbitals in the
/// Hartree–Fock reference.
#[derive(Clone, Debug)]
pub struct UccsdAnsatz {
    num_spin_orbitals: usize,
    num_electrons: usize,
}

impl UccsdAnsatz {
    /// Creates a UCCSD specification.
    ///
    /// # Panics
    ///
    /// Panics if `num_electrons >= num_spin_orbitals` or either is zero.
    pub fn new(num_spin_orbitals: usize, num_electrons: usize) -> Self {
        assert!(num_spin_orbitals > 0 && num_electrons > 0);
        assert!(
            num_electrons < num_spin_orbitals,
            "need at least one virtual orbital"
        );
        UccsdAnsatz {
            num_spin_orbitals,
            num_electrons,
        }
    }

    /// The occupied spin-orbital indices of the Hartree–Fock reference (`0..num_electrons`).
    pub fn occupied(&self) -> Vec<usize> {
        (0..self.num_electrons).collect()
    }

    /// The virtual spin-orbital indices (`num_electrons..num_spin_orbitals`).
    pub fn virtuals(&self) -> Vec<usize> {
        (self.num_electrons..self.num_spin_orbitals).collect()
    }

    /// All single excitations `(i → a)` with `i` occupied and `a` virtual.
    pub fn single_excitations(&self) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for &i in &self.occupied() {
            for &a in &self.virtuals() {
                v.push((i, a));
            }
        }
        v
    }

    /// All double excitations `(i, j → a, b)` with `i < j` occupied and `a < b` virtual.
    pub fn double_excitations(&self) -> Vec<(usize, usize, usize, usize)> {
        let occ = self.occupied();
        let vir = self.virtuals();
        let mut v = Vec::new();
        for (pi, &i) in occ.iter().enumerate() {
            for &j in &occ[pi + 1..] {
                for (pa, &a) in vir.iter().enumerate() {
                    for &b in &vir[pa + 1..] {
                        v.push((i, j, a, b));
                    }
                }
            }
        }
        v
    }

    /// Number of optimizer parameters (one per excitation).
    pub fn num_parameters(&self) -> usize {
        self.single_excitations().len() + self.double_excitations().len()
    }

    /// The Hartree–Fock reference bitstring (`1` on occupied orbitals) as a basis index.
    pub fn hartree_fock_state(&self) -> u64 {
        (0..self.num_electrons).fold(0u64, |acc, q| acc | (1u64 << q))
    }

    /// Builds the Trotterized UCCSD circuit, including the X gates that prepare the
    /// Hartree–Fock reference from `|0…0⟩`.
    pub fn build(&self) -> Circuit {
        let n = self.num_spin_orbitals;
        let mut circuit = Circuit::new(n);
        // Hartree–Fock preparation.
        for q in 0..self.num_electrons {
            circuit.push(Gate::X(q));
        }

        let mut param = 0usize;
        // Single excitations: exp(θ (a†_a a_i − h.c.)) = exp(-i θ/2 (X_i Z… Y_a − Y_i Z… X_a)).
        for (i, a) in self.single_excitations() {
            let s1 = jw_string(n, &[(i, Pauli::X), (a, Pauli::Y)], i, a);
            let s2 = jw_string(n, &[(i, Pauli::Y), (a, Pauli::X)], i, a);
            circuit.push(Gate::PauliRotation(
                s1,
                Angle::Param {
                    index: param,
                    multiplier: 1.0,
                },
            ));
            circuit.push(Gate::PauliRotation(
                s2,
                Angle::Param {
                    index: param,
                    multiplier: -1.0,
                },
            ));
            param += 1;
        }

        // Double excitations: eight Pauli rotations with coefficients ±1/4 sharing one θ.
        for (i, j, a, b) in self.double_excitations() {
            let plus: [[Pauli; 4]; 4] = [
                [Pauli::X, Pauli::X, Pauli::Y, Pauli::X],
                [Pauli::Y, Pauli::X, Pauli::Y, Pauli::Y],
                [Pauli::X, Pauli::Y, Pauli::Y, Pauli::Y],
                [Pauli::X, Pauli::X, Pauli::X, Pauli::Y],
            ];
            let minus: [[Pauli; 4]; 4] = [
                [Pauli::Y, Pauli::X, Pauli::X, Pauli::X],
                [Pauli::X, Pauli::Y, Pauli::X, Pauli::X],
                [Pauli::Y, Pauli::Y, Pauli::Y, Pauli::X],
                [Pauli::Y, Pauli::Y, Pauli::X, Pauli::Y],
            ];
            for paulis in plus {
                let s = jw_double_string(n, i, j, a, b, paulis);
                circuit.push(Gate::PauliRotation(
                    s,
                    Angle::Param {
                        index: param,
                        multiplier: 0.25,
                    },
                ));
            }
            for paulis in minus {
                let s = jw_double_string(n, i, j, a, b, paulis);
                circuit.push(Gate::PauliRotation(
                    s,
                    Angle::Param {
                        index: param,
                        multiplier: -0.25,
                    },
                ));
            }
            param += 1;
        }
        circuit
    }

    /// All-zeros initial parameters (the circuit then prepares exactly the Hartree–Fock
    /// state).
    pub fn zero_parameters(&self) -> Vec<f64> {
        vec![0.0; self.num_parameters()]
    }
}

/// Builds a Pauli string with the given endpoint Paulis and a Jordan–Wigner Z chain on all
/// qubits strictly between `lo` and `hi`.
fn jw_string(n: usize, endpoints: &[(usize, Pauli)], lo: usize, hi: usize) -> PauliString {
    let mut s = PauliString::identity(n);
    for q in (lo + 1)..hi {
        s.set_pauli(q, Pauli::Z);
    }
    for &(q, p) in endpoints {
        s.set_pauli(q, p);
    }
    s
}

/// Builds the Jordan–Wigner string for a double excitation `(i, j → a, b)`: the four
/// listed Paulis on `i, j, a, b` plus Z chains on `(i, j)` and `(a, b)` gaps.
fn jw_double_string(
    n: usize,
    i: usize,
    j: usize,
    a: usize,
    b: usize,
    paulis: [Pauli; 4],
) -> PauliString {
    let mut s = PauliString::identity(n);
    for q in (i + 1)..j {
        s.set_pauli(q, Pauli::Z);
    }
    for q in (a + 1)..b {
        s.set_pauli(q, Pauli::Z);
    }
    s.set_pauli(i, paulis[0]);
    s.set_pauli(j, paulis[1]);
    s.set_pauli(a, paulis[2]);
    s.set_pauli(b, paulis[3]);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h2_sized_ansatz_has_three_excitations() {
        // 4 spin orbitals, 2 electrons: 2·2/... singles = 2 occ × 2 vir = 4, doubles = 1.
        let a = UccsdAnsatz::new(4, 2);
        assert_eq!(a.single_excitations().len(), 4);
        assert_eq!(a.double_excitations(), vec![(0, 1, 2, 3)]);
        assert_eq!(a.num_parameters(), 5);
        assert_eq!(a.hartree_fock_state(), 0b0011);
    }

    #[test]
    fn built_circuit_parameter_count_matches() {
        let a = UccsdAnsatz::new(6, 2);
        let c = a.build();
        assert_eq!(c.num_parameters(), a.num_parameters());
        // Hartree–Fock prep: one X per electron.
        let x_count = c.gates().iter().filter(|g| matches!(g, Gate::X(_))).count();
        assert_eq!(x_count, 2);
    }

    #[test]
    fn every_rotation_string_has_odd_y_count() {
        // Odd Y parity makes each string imaginary under JW, i.e. the exponent is
        // anti-Hermitian and the rotation is a valid real-parameter unitary.
        let a = UccsdAnsatz::new(4, 2);
        for g in a.build().gates() {
            if let Gate::PauliRotation(s, _) = g {
                let y_count = s
                    .iter_non_identity()
                    .filter(|(_, p)| *p == Pauli::Y)
                    .count();
                assert_eq!(y_count % 2, 1, "string {s} has even Y count");
            }
        }
    }

    #[test]
    fn jw_chain_covers_gap() {
        let s = jw_string(6, &[(1, Pauli::X), (4, Pauli::Y)], 1, 4);
        assert_eq!(s.label(), "IXZZYI");
    }

    #[test]
    #[should_panic]
    fn no_virtual_orbitals_panics() {
        let _ = UccsdAnsatz::new(2, 2);
    }
}
