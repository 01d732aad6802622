//! Compiled (fused, diagonal-batched) execution and the `vqa` backends' batched
//! evaluation held to their sources: the entry tests below run rows of
//! `treevqa_tests::relational`'s `CIRCUIT_PAIRS` and `BATCH_PAIRS`, where each pair's
//! relation, domain and coverage claims live.

use treevqa_tests::relational::{batches, circuits, parallel_batches, registers};

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
