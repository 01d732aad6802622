//! The split-lane (SoA) statevector kernels held to the retained **interleaved**
//! reference: `qsim::reference` converts at entry and exit, so every row compares two
//! genuinely different memory layouts and an index or lane mix-up cannot cancel.  The
//! entry tests below run rows of `treevqa_tests::relational`'s `CIRCUIT_PAIRS` and
//! `OPERATOR_PAIRS`.

use treevqa_tests::relational::{circuits, operators, registers};

#[test]
fn soa_reductions_match_interleaved_arithmetic() {
    operators(&[
        "axpy ≡ interleaved",
        "norm and inner product ≡ interleaved",
        "probabilities ≡ |amplitude|²",
    ]);
}

#[test]
fn soa_circuits_match_interleaved_reference() {
    circuits(&["run_circuit ≡ reference"]);
}

#[test]
fn paired_insertions_cancel_bit_exactly() {
    circuits(&["paired insertions cancel"]);
}

#[test]
fn trailing_insertion_matches_interleaved_reference() {
    circuits(&["trailing insertion ≡ reference"]);
}

#[test]
fn batch_tables_match_reference_and_uncached() {
    circuits(&["batch tables ≡ unbound"]);
}

#[test]
fn soa_kernels_match_reference_at_14_qubits() {
    registers(&["run_circuit ≡ reference"]);
}
