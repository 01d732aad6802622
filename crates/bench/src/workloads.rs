//! Shared benchmark workload builders.
//!
//! The quick bench ([`crate::quick`]) and the end-to-end benchmark package build their
//! states, strings, Hamiltonians and ansätze here, so a record of one id in
//! `BENCH_quick.json` and every later run of that id measure the same workload.

use qcircuit::{Angle, Circuit, Gate};
use qop::{Complex64, PauliOp, PauliString, Statevector};

/// A dense normalized state with structure on every amplitude.
pub fn dense_state(num_qubits: usize) -> Statevector {
    let dim = 1usize << num_qubits;
    let mut psi = Statevector::from_amplitudes(
        (0..dim)
            .map(|i| Complex64::new((i as f64 * 0.137).sin() + 0.2, (i as f64 * 0.291).cos()))
            .collect(),
    );
    psi.normalize();
    psi
}

/// A Jordan–Wigner double-excitation string — the shape every UCCSD Pauli rotation in
/// the hot path actually has: X/Y on four spread orbital sites, Z-chains between them.
pub fn uccsd_rotation_string(num_qubits: usize) -> PauliString {
    let sites = [0, num_qubits / 3, 2 * num_qubits / 3, num_qubits - 1];
    let label: String = (0..num_qubits)
        .map(|q| {
            if q == sites[0] || q == sites[2] {
                'X'
            } else if q == sites[1] || q == sites[3] {
                'Y'
            } else {
                'Z'
            }
        })
        .collect();
    PauliString::from_label(&label).unwrap()
}

/// A weight-heavy Pauli string mixing X, Y and Z across the register, the worst case for
/// the rotation kernel (dense phase logic, maximal x-mask span — every second qubit
/// contributes to the pair permutation).
pub fn mixed_rotation_string(num_qubits: usize) -> PauliString {
    let label: String = (0..num_qubits)
        .map(|q| match q % 4 {
            0 => 'X',
            1 => 'Z',
            2 => 'Y',
            _ => 'I',
        })
        .collect();
    PauliString::from_label(&label).unwrap()
}

/// A synthetic Hamiltonian with `2n` terms spanning diagonal and off-diagonal strings.
pub fn synthetic_hamiltonian(num_qubits: usize) -> PauliOp {
    let mut op = PauliOp::zero(num_qubits);
    for q in 0..num_qubits {
        // Diagonal ZZ chain (takes the diagonal fast path).
        let mut label = vec!['I'; num_qubits];
        label[q] = 'Z';
        label[(q + 1) % num_qubits] = 'Z';
        let zz: String = label.iter().collect();
        op.add_term(PauliString::from_label(&zz).unwrap(), 1.0 - 0.01 * q as f64);
        // Off-diagonal XY pair (general pairwise path).
        let mut label = vec!['I'; num_qubits];
        label[q] = 'X';
        label[(q + 2) % num_qubits] = 'Y';
        let xy: String = label.iter().collect();
        op.add_term(PauliString::from_label(&xy).unwrap(), 0.3 + 0.01 * q as f64);
    }
    op.simplify(0.0);
    op
}

/// A Pauli-rotation-heavy ansatz: QAOA-shaped layers of diagonal ZZ-chain rotations
/// (ring + chords, the diagonal-batching target) alternating with Rx mixers, preceded by
/// a Hadamard wall.  This is the gate mix the paper's MaxCut and spin-chain workloads
/// spend their time in.
pub fn rotation_heavy_ansatz(num_qubits: usize, layers: usize) -> Circuit {
    let mut circ = Circuit::new(num_qubits);
    for q in 0..num_qubits {
        circ.push(Gate::H(q));
    }
    let mut slot = 0usize;
    for _ in 0..layers {
        // Cost layer: ZZ ring plus next-nearest chords — all diagonal, one fused pass.
        for step in [1usize, 2] {
            for q in 0..num_qubits {
                let mut label = vec!['I'; num_qubits];
                label[q] = 'Z';
                label[(q + step) % num_qubits] = 'Z';
                let string = PauliString::from_label(&label.iter().collect::<String>()).unwrap();
                circ.push(Gate::PauliRotation(string, Angle::param(slot)));
                slot += 1;
            }
        }
        // Mixer layer.
        for q in 0..num_qubits {
            circ.push(Gate::Rx(q, Angle::param(slot)));
            slot += 1;
        }
    }
    circ
}

/// The standard parameter binding used across the benches.
pub fn ansatz_params(circ: &Circuit) -> Vec<f64> {
    (0..circ.num_parameters())
        .map(|i| (i as f64 * 0.37).sin())
        .collect()
}

/// The 12-qubit TFIM-style Hamiltonian of the batched-vs-serial comparison.
pub fn tfim_hamiltonian(num_qubits: usize) -> PauliOp {
    let mut terms: Vec<(String, f64)> = Vec::new();
    for q in 0..num_qubits {
        let mut zz = vec!['I'; num_qubits];
        zz[q] = 'Z';
        zz[(q + 1) % num_qubits] = 'Z';
        terms.push((zz.iter().collect(), -1.0));
        let mut x = vec!['I'; num_qubits];
        x[q] = 'X';
        terms.push((x.iter().collect(), 0.5));
    }
    let refs: Vec<(&str, f64)> = terms.iter().map(|(l, c)| (l.as_str(), *c)).collect();
    PauliOp::from_labels(num_qubits, &refs)
}

/// The ZZ-ring cost Hamiltonian of the trajectory-noise throughput bench.
pub fn zz_ring_hamiltonian(num_qubits: usize) -> PauliOp {
    let mut terms: Vec<(String, f64)> = Vec::new();
    for q in 0..num_qubits {
        let mut zz = vec!['I'; num_qubits];
        zz[q] = 'Z';
        zz[(q + 1) % num_qubits] = 'Z';
        terms.push((zz.iter().collect(), -1.0));
    }
    let refs: Vec<(&str, f64)> = terms.iter().map(|(l, c)| (l.as_str(), *c)).collect();
    PauliOp::from_labels(num_qubits, &refs)
}

/// The per-gate Pauli noise model shared by the noise bench and quick mode.
pub fn bench_noise_model() -> qnoise::PauliNoiseModel {
    qnoise::PauliNoiseModel::ibm_like("bench-device", 5e-4, 4e-3, 1e-3, 0.01)
}

/// A cluster's operator set `[mixed, members…]` — what one TreeVQA job reads out.
fn cluster_ops(members: Vec<PauliOp>) -> Vec<PauliOp> {
    let mixed = PauliOp::mixed(&members.iter().collect::<Vec<_>>());
    std::iter::once(mixed).chain(members).collect()
}

/// The root cluster of the 12-site TFIM family (8 fields across the transition): 9
/// operators × 23 terms over 23 distinct strings.
pub fn tfim12_cluster_ops() -> Vec<PauliOp> {
    cluster_ops(
        (0..8)
            .map(|k| qchem::transverse_field_ising(12, 1.0, 0.5 + k as f64 / 7.0))
            .collect(),
    )
}

/// The root cluster of the IEEE-14 MaxCut family at 4 load scales: 5 diagonal
/// operators over the same ZZ strings, on 2^14 amplitudes.
pub fn maxcut14_cluster_ops() -> Vec<PauliOp> {
    cluster_ops(
        qgraph::Ieee14Family::new(0.9, 1.1, 4)
            .graphs()
            .iter()
            .map(qgraph::maxcut_cost_hamiltonian)
            .collect(),
    )
}

/// The multi-angle QAOA circuit with `layers` layers for the first graph of the
/// IEEE-14 MaxCut family at 4 load scales — at `layers = 1`, the circuit
/// `tree_maxcut14_noisy` runs.  Each cost layer is 20 ZZ rotations, which compile to one
/// tabulated diagonal pass with 6 terms across the split at qubit 7.
pub fn ieee14_qaoa(layers: usize) -> Circuit {
    let graph = qgraph::Ieee14Family::new(0.9, 1.1, 4).graphs().remove(0);
    qcircuit::QaoaAnsatz::new(
        &qgraph::maxcut_cost_hamiltonian(&graph),
        layers,
        qcircuit::QaoaStyle::MultiAngle,
    )
    .expect("MaxCut cost Hamiltonians are diagonal")
    .build()
}

/// One 6-qubit, 62-term LiH Hamiltonian: the single-operator request of the
/// conventional baseline.
pub fn lih6_op() -> PauliOp {
    qchem::MoleculeSpec::lih().tasks(1).remove(0).1
}
