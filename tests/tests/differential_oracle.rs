//! The standing differential oracle: untruncated Pauli propagation (Heisenberg picture,
//! no state), the dense driver's compiled path (product-prefix start, term-basis
//! readout, charged and free) and `qsim::reference` read by `apply_to_basis` alone
//! agree on `⟨b|U†(θ) H U(θ)|b⟩` — the `EXPECTATION_PAIRS` row of
//! `treevqa_tests::relational`, whose domain claims every `Gate` variant on 1–8 qubits.

#[test]
fn propagation_compiled_path_and_reference_agree_on_random_circuits() {
    treevqa_tests::relational::expectations(&[
        "propagation, compiled charged and compiled free ≡ oracle",
    ]);
}
