//! Compiled (fused, diagonal-batched) execution and the `vqa` backends' batched
//! evaluation held to their sources: the entry tests below run rows of
//! `treevqa_tests::relational`'s `CIRCUIT_PAIRS` and `BATCH_PAIRS`, where each pair's
//! relation, domain and coverage claims live.

use treevqa_tests::relational::{
    batches, circuits, cx_networks, parallel_batches, registers, single_qubit_runs,
};

#[test]
fn compiled_circuits_agree_with_reference() {
    circuits(&["compiled ≡ reference"]);
    registers(&["compiled ≡ reference"]);
}

#[test]
fn compiled_rebinding_is_stateless() {
    circuits(&["rebinding is stateless"]);
}

#[test]
fn run_circuit_wrapper_and_reference_agree() {
    circuits(&["run_circuit ≡ reference"]);
}

#[test]
fn basis_start_through_the_product_prefix_is_bit_identical() {
    circuits(&["basis start ≡ prepare + execute"]);
    registers(&["basis start ≡ prepare + execute"]);
}

/// A run of CX ops applied as one index gather leaves every bit where the per-gate
/// passes leave it, with insertions inside, right after and away from the runs, and the
/// circuits around the runs still agree with the reference.
#[test]
fn cx_runs_gather_bit_identically() {
    cx_networks(&[
        "CX run gather ≡ per-gate CX",
        "compiled ≡ reference",
        "basis start ≡ prepare + execute",
        "paired insertions cancel",
        "trailing insertion ≡ reference",
        "rate-zero rollout ≡ ideal",
    ]);
    circuits(&["CX run gather ≡ per-gate CX"]);
    registers(&["CX run gather ≡ per-gate CX"]);
}

/// A run of single-qubit ops applied tile by tile leaves every bit where one op at a
/// time leaves it, with insertions inside, right after and away from the runs, and the
/// circuits around the runs still agree with the reference.
#[test]
fn tiled_single_qubit_runs_are_bit_identical() {
    single_qubit_runs(&[
        "tiled 1q runs ≡ one op at a time",
        "compiled ≡ reference",
        "basis start ≡ prepare + execute",
        "paired insertions cancel",
        "trailing insertion ≡ reference",
    ]);
    circuits(&["tiled 1q runs ≡ one op at a time"]);
    registers(&["tiled 1q runs ≡ one op at a time"]);
}

#[test]
fn batched_evaluation_equals_serial() {
    batches(&["exact batch ≡ serial"]);
}

#[test]
fn parallel_batch_path_equals_serial() {
    parallel_batches(&["exact batch ≡ serial"]);
}

#[test]
fn sampled_batch_rng_stream_is_order_stable() {
    batches(&["sampled batch ≡ serial"]);
}

/// The dense driver's sampled and attenuated stages at zero shots and zero rates read
/// the exact stage's values, charged and free.
#[test]
fn zero_shot_readouts_equal_the_exact_backend() {
    batches(&[
        "sampled at zero shots ≡ exact",
        "attenuated at rate zero ≡ exact",
    ]);
}
