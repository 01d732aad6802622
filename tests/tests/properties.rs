//! Property-based tests over the core data structures and invariants, spanning crates.

use qcircuit::{Angle, Circuit, Entanglement, Gate, HardwareEfficientAnsatz};
use qop::{PauliOp, PauliString, Statevector};
use qsim::run_circuit;
use treevqa_tests::relational::{for_cases, Gen, Tally};

/// Cases per property.
const CASES: usize = 64;

fn pauli_label(gen: &mut Gen, num_qubits: usize) -> String {
    (0..num_qubits)
        .map(|_| ['I', 'X', 'Y', 'Z'][gen.below(4) as usize])
        .collect()
}

/// 1 to `max_terms - 1` labelled terms with coefficients in `[-1, 1)`.
fn pauli_op(gen: &mut Gen, num_qubits: usize, max_terms: u64) -> PauliOp {
    let terms: Vec<(String, f64)> = (0..1 + gen.below(max_terms - 1))
        .map(|_| (pauli_label(gen, num_qubits), gen.unit()))
        .collect();
    let refs: Vec<(&str, f64)> = terms.iter().map(|(l, c)| (l.as_str(), *c)).collect();
    PauliOp::from_labels(num_qubits, &refs)
}

/// `len` angles in `[-3.2, 3.2)`.
fn angles(gen: &mut Gen, len: usize) -> Vec<f64> {
    (0..len).map(|_| 3.2 * gen.unit()).collect()
}

/// Multiplying two Pauli strings always yields a phase in {1, i, -1, -i} and an
/// involution-compatible product (P·P = I with phase 1).
#[test]
fn pauli_string_multiplication_phases() {
    for_cases(0x1001, CASES, |_, gen| {
        let a = PauliString::from_label(&pauli_label(gen, 5)).unwrap();
        let b = PauliString::from_label(&pauli_label(gen, 5)).unwrap();
        let (_, phase) = a.mul(&b);
        assert!((phase.norm() - 1.0).abs() < 1e-12);
        let (self_product, self_phase) = a.mul(&a);
        assert!(self_product.is_identity());
        assert!((self_phase - qop::Complex64::ONE).norm() < 1e-12);
    });
}

/// Commutation is symmetric and consistent with the qubit-wise check (qubit-wise
/// commuting strings always commute globally).
#[test]
fn commutation_relations() {
    for_cases(0x1002, CASES, |_, gen| {
        let a = PauliString::from_label(&pauli_label(gen, 6)).unwrap();
        let b = PauliString::from_label(&pauli_label(gen, 6)).unwrap();
        assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
        if a.qubit_wise_commutes(&b) {
            assert!(a.commutes_with(&b));
        }
    });
}

/// The ℓ1 coefficient distance is a metric-like quantity: non-negative, symmetric,
/// zero on identical operators, and satisfies the triangle inequality.
#[test]
fn l1_distance_is_metric_like() {
    for_cases(0x1003, CASES, |_, gen| {
        let [a, b, c] = [(); 3].map(|_| pauli_op(gen, 3, 6));
        let dab = a.l1_distance(&b);
        let dba = b.l1_distance(&a);
        assert!(dab >= 0.0);
        assert!((dab - dba).abs() < 1e-9);
        assert!(a.l1_distance(&a) < 1e-12);
        let dac = a.l1_distance(&c);
        let dcb = c.l1_distance(&b);
        assert!(dab <= dac + dcb + 1e-9);
    });
}

/// The mixed Hamiltonian's expectation value equals the mean of the members'
/// expectation values on any state (linearity, paper Section 5.2.1).
#[test]
fn mixed_hamiltonian_expectation_is_the_mean() {
    for_cases(0x1004, CASES, |_, gen| {
        let a = pauli_op(gen, 3, 5);
        let b = pauli_op(gen, 3, 5);
        let mixed = PauliOp::mixed(&[&a, &b]);
        // A random product state.
        let mut circuit = Circuit::new(3);
        for q in 0..3 {
            circuit.push(Gate::Ry(q, Angle::Fixed(gen.unit() * std::f64::consts::PI)));
        }
        let state = run_circuit(&circuit, &[], &Statevector::zero_state(3));
        let mean = 0.5 * (a.expectation(&state) + b.expectation(&state));
        assert!((mixed.expectation(&state) - mean).abs() < 1e-9);
    });
}

/// Circuit simulation is unitary: norms are preserved for arbitrary parameters.
#[test]
fn simulation_preserves_norm() {
    let ansatz = HardwareEfficientAnsatz::new(4, 2, Entanglement::Circular).build();
    assert_eq!(ansatz.num_parameters(), 24);
    for_cases(0x1005, CASES, |_, gen| {
        let out = run_circuit(&ansatz, &angles(gen, 24), &Statevector::zero_state(4));
        assert!((out.norm() - 1.0).abs() < 1e-9);
    });
}

/// Expectation values always lie within the operator's ℓ1-norm bounds.
#[test]
fn expectation_bounded_by_l1_norm() {
    let ansatz = HardwareEfficientAnsatz::new(4, 1, Entanglement::Linear).build();
    for_cases(0x1006, CASES, |_, gen| {
        let op = pauli_op(gen, 4, 8);
        let out = run_circuit(&ansatz, &angles(gen, 16), &Statevector::zero_state(4));
        assert!(op.expectation(&out).abs() <= op.l1_norm() + 1e-9);
    });
}

/// Spectral bipartition always produces two non-empty groups covering all items, for
/// every item count from 3 to 8.
#[test]
fn spectral_bipartition_covers_all_items() {
    let mut tally = Tally::default();
    for_cases(0x1007, CASES, |i, gen| {
        let n = 3 + i % 6;
        tally.add(format!("{n} items"));
        let points: Vec<f64> = (0..n).map(|_| 5.0 * (gen.unit() + 1.0)).collect();
        let distances: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| (points[i] - points[j]).abs()).collect())
            .collect();
        let sim = cluster::SimilarityMatrix::from_distances(&distances);
        let labels = cluster::spectral_bipartition(&sim, gen.below(100));
        assert_eq!(labels.len(), n);
        let zeros = labels.iter().filter(|&&l| l == 0).count();
        assert!(zeros > 0 && zeros < n);
    });
    for n in 3..=8 {
        tally.require(&format!("{n} items"), 1);
    }
}

/// The shot ledger is additive: charging in pieces equals charging at once.
#[test]
fn shot_ledger_additivity() {
    for_cases(0x1008, CASES, |_, gen| {
        let terms = 1 + gen.below(499) as usize;
        let evals = 1 + gen.below(19);
        let mut piecewise = qsim::ShotLedger::new();
        for _ in 0..evals {
            piecewise.charge_evaluation(4096, terms);
        }
        assert_eq!(piecewise.total(), 4096 * terms as u64 * evals);
        assert_eq!(piecewise.evaluations(), evals);
    });
}

/// Ground-state energies from Lanczos are variational lower bounds for every state the
/// simulator can prepare.
#[test]
fn lanczos_energy_is_a_lower_bound() {
    let ham = qchem::transverse_field_ising(3, 1.0, 0.8);
    let e0 = qop::ground_energy(&ham, &qop::LanczosOptions::default());
    let ansatz = HardwareEfficientAnsatz::new(3, 1, Entanglement::Circular).build();
    for_cases(0x1009, CASES, |_, gen| {
        let out = run_circuit(&ansatz, &angles(gen, 12), &Statevector::zero_state(3));
        assert!(ham.expectation(&out) >= e0 - 1e-8);
    });
}
