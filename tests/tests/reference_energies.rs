//! Reference energies of non-diagonal task Hamiltonians, and the truncated
//! Pauli-propagation values of the large-scale panel, pinned bit for bit.
//!
//! Every fidelity in the evaluation divides by a task's exact ground energy, which
//! `qop::ground_energy` computes with Lanczos for any operator that carries an `X` or `Y`
//! term.  A change to the Lanczos iteration, its convergence test or the `apply` /
//! inner-product kernels underneath moves these bits, and with them every fidelity of
//! the spin and chemistry panels.  The registers run from below one 256-amplitude tile of
//! `PauliOp::apply_into` (XXZ-6, LiH) through one (TFIM-8) to 4 and 16 tiles (XXZ-10,
//! TFIM-12), so sources in another tile are pinned too.  The 16- and 25-qubit panel (fig9) has no dense state:
//! its energies are truncated `PauliPropagator` values, a pure function of (circuit,
//! params, observable, config).  All bits are identical in debug and release builds.

use qchem::{heisenberg_xxz, transverse_field_ising, MoleculeSpec, SpinChainFamily};
use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qop::{ground_energy, ground_state, LanczosOptions, PauliOp};
use qsim::{PauliPropagator, PauliPropagatorConfig};

fn assert_pinned(name: &str, op: &PauliOp, bits: u64) {
    let opts = LanczosOptions::default();
    let energy = ground_energy(op, &opts);
    assert_eq!(
        energy.to_bits(),
        bits,
        "{name}: {energy:.17} ({:#018x}) vs recorded {:.17}",
        energy.to_bits(),
        f64::from_bits(bits)
    );
    let gs = ground_state(op, &opts);
    assert_eq!(gs.energy.to_bits(), bits, "{name}: ground_state energy");
    assert!(gs.iterations > 0, "{name}: Lanczos path");
}

#[test]
fn tfim8_reference_energies_keep_their_bits() {
    for (h, bits) in [
        (0.5, 0xc01e_8ff7_7e8e_ea51),
        (1.0, 0xc023_ad07_f8dc_f261),
        (1.5, 0xc02a_61ff_d473_e2ca),
    ] {
        assert_pinned(
            &format!("TFIM-8 h={h}"),
            &transverse_field_ising(8, 1.0, h),
            bits,
        );
    }
}

#[test]
fn xxz6_reference_energy_keeps_its_bits() {
    assert_pinned(
        "XXZ-6 Δ=1",
        &heisenberg_xxz(6, 1.0, 1.0),
        0xc023_f2d8_9180_d0fb,
    );
}

/// The benchmark's `tree_tfim12` size: 4 096 amplitudes, sixteen 256-amplitude tiles of
/// `PauliOp::apply_into`, at the first and last of its eight fields.
#[test]
fn tfim12_reference_energies_keep_their_bits() {
    let tasks = SpinChainFamily {
        num_sites: 12,
        ..SpinChainFamily::tfim_benchmark()
    }
    .tasks(8);
    for ((h, op), expected_h, bits) in [
        (&tasks[0], 0.5, 0xc027_c8ba_1b07_abef),
        (&tasks[7], 1.5, 0xc033_e10d_28bf_fce3),
    ] {
        assert_eq!(*h, expected_h);
        assert_pinned(&format!("TFIM-12 h={h}"), op, bits);
    }
}

/// Ten sites: the `YY` bonds on the upper qubits flip amplitudes between tiles, with a
/// Y phase on each.
#[test]
fn xxz10_reference_energy_keeps_its_bits() {
    assert_pinned(
        "XXZ-10 Δ=1",
        &heisenberg_xxz(10, 1.0, 1.0),
        0xc031_083a_61a1_fc5d,
    );
}

#[test]
fn lih_reference_energy_keeps_its_bits() {
    let lih = MoleculeSpec::lih();
    let op = lih.hamiltonian(lih.equilibrium_bond);
    assert_eq!(op.num_qubits(), 6);
    assert_pinned("LiH at equilibrium", &op, 0xbff5_ea13_b3f6_5975);
}

/// Fig9's truncation (and the `pauli_propagation_c2h2_16q` bench's): weight 4, |c| above
/// 1e-6, at most 20 000 strings.
const FIG9_TRUNCATION: PauliPropagatorConfig = PauliPropagatorConfig {
    max_weight: 4,
    coefficient_threshold: 1e-6,
    max_terms: 20_000,
};

/// Fig9's ansatz (one linear hardware-efficient layer) at parameters `0.05·i`.
fn fig9_circuit(num_qubits: usize) -> (Circuit, Vec<f64>) {
    let circuit = HardwareEfficientAnsatz::new(num_qubits, 1, Entanglement::Linear).build();
    let params = (0..circuit.num_parameters())
        .map(|i| 0.05 * i as f64)
        .collect();
    (circuit, params)
}

fn c2h2_16q() -> (Circuit, Vec<f64>, PauliOp) {
    let (circuit, params) = fig9_circuit(16);
    (circuit, params, MoleculeSpec::c2h2().hamiltonian(1.2))
}

fn ising_25q() -> (Circuit, Vec<f64>, PauliOp) {
    let (circuit, params) = fig9_circuit(25);
    let op = SpinChainFamily::large_ising_benchmark().hamiltonian(1.0);
    (circuit, params, op)
}

#[test]
fn pauli_propagation_is_the_same_bits_on_every_instance() {
    let (circuit, params, op) = c2h2_16q();
    let first = PauliPropagator::new(FIG9_TRUNCATION).expectation(&circuit, &params, &op, 0);
    for call in 1..8 {
        let again = PauliPropagator::new(FIG9_TRUNCATION).expectation(&circuit, &params, &op, 0);
        assert_eq!(
            again.to_bits(),
            first.to_bits(),
            "instance {call}: {again:.17} vs {first:.17}"
        );
    }
}

#[test]
fn pauli_propagation_values_keep_their_bits() {
    for (name, (circuit, params, op), bits) in [
        ("C2H2 16q", c2h2_16q(), 0xbffc_2733_6d97_56f3),
        ("Ising-25", ising_25q(), 0xc02d_8748_1e08_c62c),
    ] {
        let value = PauliPropagator::new(FIG9_TRUNCATION).expectation(&circuit, &params, &op, 0);
        assert_eq!(
            value.to_bits(),
            bits,
            "{name}: {value:.17} ({:#018x}) vs recorded {:.17}",
            value.to_bits(),
            f64::from_bits(bits)
        );
    }
}
