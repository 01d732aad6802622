//! Reference energies of non-diagonal task Hamiltonians, pinned bit for bit.
//!
//! Every fidelity in the evaluation divides by a task's exact ground energy, which
//! `qop::ground_energy` computes with Lanczos for any operator that carries an `X` or `Y`
//! term.  A change to the Lanczos iteration, its convergence test or the `apply` /
//! inner-product kernels underneath moves these bits, and with them every fidelity of
//! the spin and chemistry panels.  They are identical in debug and release builds.

use qchem::{heisenberg_xxz, transverse_field_ising, MoleculeSpec};
use qop::{ground_energy, ground_state, LanczosOptions, PauliOp};

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

#[test]
fn lih_reference_energy_keeps_its_bits() {
    let lih = MoleculeSpec::lih();
    let op = lih.hamiltonian(lih.equilibrium_bond);
    assert_eq!(op.num_qubits(), 6);
    assert_pinned("LiH at equilibrium", &op, 0xbff5_ea13_b3f6_5975);
}
