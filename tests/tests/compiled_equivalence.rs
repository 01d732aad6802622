//! Property tests pinning compiled (fused) and batched execution to the naive
//! reference kernels.
//!
//! Companion to `kernel_equivalence.rs`: where that suite pins the per-gate kernels,
//! this one pins the two layers PR 2 added on top — [`qsim::CompiledCircuit`]'s
//! single-qubit fusion + diagonal batching, and the `vqa` backends' batched evaluation
//! over a compiled-circuit cache and scratch-state pool.  Every property demands
//! agreement with `qsim::reference` (or the serial evaluate loop) to 1e-12 on random
//! circuits that include parameterized rotations, Pauli rotations and diagonal runs.
//! The forced-parallel properties drive the across-state batch path with multiple
//! workers; batch sizes 1, 2 and 17 cover the degenerate, SPSA-pair and chunk-splitting
//! shapes.

use proptest::prelude::*;
use qcircuit::{Angle, Circuit, Gate};
use qop::{Complex64, PauliOp, PauliString, Statevector};
use qrng::SeedPolicy;
use qsim::{reference, CompiledCircuit};
use vqa::{Backend, EvalRequest, InitialState, SampledBackend, StatevectorBackend};

/// Forces multiple workers even on single-core CI machines (the vendored rayon honors
/// this like the real global-pool configuration).
fn force_parallel_workers() {
    // Honor the CI matrix's RAYON_NUM_THREADS (1 pins every kernel serial, 2/4 vary
    // the worker partitioning); default to 4 so a plain local `cargo test` still
    // drives the parallel paths on a single-core box.
    let threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .ok();
}

/// A dense, structured, normalized state: every amplitude distinct so index or phase
/// mix-ups cannot cancel.
fn dense_state(num_qubits: usize) -> Statevector {
    let dim = 1usize << num_qubits;
    let mut psi = Statevector::from_amplitudes(
        (0..dim)
            .map(|i| Complex64::new((i as f64 * 0.137).sin() + 0.3, (i as f64 * 0.291).cos()))
            .collect(),
    );
    psi.normalize();
    psi
}

fn max_amplitude_diff(a: &Statevector, b: &Statevector) -> f64 {
    a.to_amplitudes()
        .iter()
        .zip(b.to_amplitudes())
        .map(|(x, y)| (*x - y).norm())
        .fold(0.0, f64::max)
}

const NUM_PARAMS: usize = 4;

/// Strategy for one random gate on an `n`-qubit register: every gate kind, fixed and
/// parameterized angles, and Pauli rotations (whose labels make diagonal runs likely
/// enough to exercise the batching pass).
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    (
        0usize..14,
        0usize..n,
        0usize..n,
        -3.2f64..3.2,
        0usize..NUM_PARAMS,
        proptest::collection::vec(proptest::sample::select(vec!['I', 'X', 'Y', 'Z']), n),
        proptest::collection::vec(proptest::sample::select(vec!['I', 'Z']), n),
    )
        .prop_map(move |(kind, q, q2, theta, slot, label, diag_label)| {
            // Force distinct qubits for the two-qubit gates.
            let q2 = if q2 == q { (q + 1) % n } else { q2 };
            match kind {
                0 => Gate::H(q),
                1 => Gate::X(q),
                2 => Gate::Y(q),
                3 => Gate::Z(q),
                4 => Gate::S(q),
                5 => Gate::Sdg(q),
                6 => Gate::Cx(q, q2),
                7 => Gate::Cz(q, q2),
                8 => Gate::Rx(q, Angle::Fixed(theta)),
                9 => Gate::Ry(q, Angle::param(slot)),
                10 => Gate::Rz(q, Angle::param(slot)),
                11 => Gate::PauliRotation(
                    PauliString::from_label(&label.iter().collect::<String>()).unwrap(),
                    Angle::Fixed(theta),
                ),
                // Diagonal (Z/I) rotations, fixed and parameterized: the food of the
                // diagonal-batching pass.
                12 => Gate::PauliRotation(
                    PauliString::from_label(&diag_label.iter().collect::<String>()).unwrap(),
                    Angle::Fixed(theta),
                ),
                _ => Gate::PauliRotation(
                    PauliString::from_label(&diag_label.iter().collect::<String>()).unwrap(),
                    Angle::param(slot),
                ),
            }
        })
}

fn circuit_from_gates(num_qubits: usize, gates: Vec<Gate>) -> Circuit {
    let mut circuit = Circuit::new(num_qubits);
    for gate in gates {
        circuit.push(gate);
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled (fused + diagonal-batched) execution equals the naive reference on
    /// random circuits, to 1e-12 per amplitude.
    #[test]
    fn compiled_circuits_agree_with_reference(
        gates in proptest::collection::vec(arb_gate(6), 1..40),
        params in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
    ) {
        let n = 6;
        let circuit = circuit_from_gates(n, gates);
        let compiled = CompiledCircuit::compile(&circuit);
        let initial = dense_state(n);
        let mut fast = initial.clone();
        compiled.execute_in_place(&params, &mut fast);
        let naive = reference::run_circuit(&circuit, &params, &initial);
        prop_assert!(max_amplitude_diff(&fast, &naive) < 1e-12);
    }

    /// Re-binding a compiled circuit to new parameters equals compiling-and-running
    /// fresh: parameter slots must hold no stale state.
    #[test]
    fn compiled_rebinding_is_stateless(
        gates in proptest::collection::vec(arb_gate(5), 1..25),
        params_a in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
        params_b in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
    ) {
        let n = 5;
        let circuit = circuit_from_gates(n, gates);
        let compiled = CompiledCircuit::compile(&circuit);
        let initial = dense_state(n);
        let mut scratch = initial.clone();
        // Bind θ_a, then θ_b, on the same compiled object.
        compiled.execute_into(&params_a, &initial, &mut scratch);
        compiled.execute_into(&params_b, &initial, &mut scratch);
        let naive = reference::run_circuit(&circuit, &params_b, &initial);
        prop_assert!(max_amplitude_diff(&scratch, &naive) < 1e-12);
    }

    /// Batched backend evaluation equals a fresh serial backend, value for value and
    /// shot for shot, at batch sizes 1, 2 (the SPSA pair) and 17 (splits across the
    /// scratch-pool chunk size).
    #[test]
    fn batched_evaluation_equals_serial(
        gates in proptest::collection::vec(arb_gate(5), 1..20),
        params in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
    ) {
        let n = 5;
        let circuit = circuit_from_gates(n, gates);
        let charged = PauliOp::from_labels(n, &[("ZZIII", -1.0), ("IXIXI", 0.4), ("IIZZI", 0.7)]);
        let tracking = PauliOp::from_labels(n, &[("ZIIIZ", 0.9)]);
        for batch_size in [1usize, 2, 17] {
            let candidates: Vec<Vec<f64>> = (0..batch_size)
                .map(|k| params.iter().map(|p| p + 0.013 * k as f64).collect())
                .collect();
            let free_ops = [&tracking];
            let requests: Vec<EvalRequest<'_>> = candidates
                .iter()
                .map(|c| EvalRequest {
                    circuit: &circuit,
                    params: c,
                    initial: &InitialState::Basis(1),
                    charged_op: &charged,
                    free_ops: &free_ops,
                    stream: None,
                })
                .collect();
            let mut batched = StatevectorBackend::with_shots(64);
            let results = batched.evaluate_batch(&requests);
            let mut serial = StatevectorBackend::with_shots(64);
            for (candidate, result) in candidates.iter().zip(&results) {
                let (c_serial, f_serial) = serial.evaluate(
                    &circuit,
                    candidate,
                    &InitialState::Basis(1),
                    &charged,
                    &free_ops,
                );
                prop_assert!((result.charged - c_serial).abs() < 1e-12);
                prop_assert!((result.free[0] - f_serial[0]).abs() < 1e-12);
            }
            prop_assert_eq!(batched.shots_used(), serial.shots_used());
        }
    }
}

proptest! {
    // Fewer cases for the forced-parallel properties: each prepares many states.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The across-state parallel batch path (small register × many candidates, forced
    /// multi-worker) equals the serial loop exactly.
    #[test]
    fn parallel_batch_path_equals_serial(
        gates in proptest::collection::vec(arb_gate(11), 1..12),
        params in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
    ) {
        force_parallel_workers();
        // 17 candidates × 2^11 amplitudes crosses the default QSIM_PAR_THRESHOLD of
        // 2^14 while each state stays below it, which is exactly the regime where the
        // pool parallelizes across states.
        let n = 11;
        let circuit = circuit_from_gates(n, gates);
        let charged = PauliOp::from_labels(n, &[("ZZIIIIIIIII", -1.0), ("IIXIXIIIIII", 0.3)]);
        let candidates: Vec<Vec<f64>> = (0..17)
            .map(|k| params.iter().map(|p| p + 0.011 * k as f64).collect())
            .collect();
        let requests: Vec<EvalRequest<'_>> = candidates
            .iter()
            .map(|c| EvalRequest {
                circuit: &circuit,
                params: c,
                initial: &InitialState::Basis(0),
                charged_op: &charged,
                free_ops: &[],
                stream: None,
            })
            .collect();
        let mut batched = StatevectorBackend::with_shots(8);
        let results = batched.evaluate_batch(&requests);
        let mut serial = StatevectorBackend::with_shots(8);
        for (candidate, result) in candidates.iter().zip(&results) {
            let (c_serial, _) =
                serial.evaluate(&circuit, candidate, &InitialState::Basis(0), &charged, &[]);
            prop_assert!((result.charged - c_serial).abs() < 1e-12);
        }
    }

    /// The sampled backend consumes its RNG in request order regardless of batching, so
    /// batched and serial runs with the same seed produce identical noisy values.
    #[test]
    fn sampled_batch_rng_stream_is_order_stable(
        gates in proptest::collection::vec(arb_gate(5), 1..15),
        params in proptest::collection::vec(-3.2f64..3.2, NUM_PARAMS),
        seed in 0u64..1000,
    ) {
        force_parallel_workers();
        let n = 5;
        let circuit = circuit_from_gates(n, gates);
        let charged = PauliOp::from_labels(n, &[("ZZIII", -1.0), ("IXXII", 0.5)]);
        let candidates: Vec<Vec<f64>> = (0..6)
            .map(|k| params.iter().map(|p| p + 0.017 * k as f64).collect())
            .collect();
        let requests: Vec<EvalRequest<'_>> = candidates
            .iter()
            .map(|c| EvalRequest {
                circuit: &circuit,
                params: c,
                initial: &InitialState::UniformSuperposition,
                charged_op: &charged,
                free_ops: &[],
                stream: None,
            })
            .collect();
        let mut batched = SampledBackend::with_policy(128, SeedPolicy::new(seed));
        let results = batched.evaluate_batch(&requests);
        let mut serial = SampledBackend::with_policy(128, SeedPolicy::new(seed));
        for (candidate, result) in candidates.iter().zip(&results) {
            let (c_serial, _) = serial.evaluate(
                &circuit,
                candidate,
                &InitialState::UniformSuperposition,
                &charged,
                &[],
            );
            prop_assert_eq!(result.charged, c_serial);
        }
    }
}

/// A circuit whose leading single-qubit layer touches a random subset of the register in
/// random order (constant-only chains included), then a random tail of every gate kind;
/// a basis index; a parameter vector mixing the special angles `0, ±π/2, π` with
/// generic ones; and a sorted insertion schedule anywhere in the op list — all drawn
/// from `seed`.
fn prefix_case(n: usize, seed: u64) -> (Circuit, u64, Vec<f64>, Vec<qsim::PauliInsertion>) {
    use std::f64::consts::{FRAC_PI_2, PI};
    let mut counter = 0u64;
    let mut draw = |bound: u64| {
        counter += 1;
        qrng::mix(seed, counter) % bound
    };
    let mut circuit = Circuit::new(n);
    let mut qubits: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        qubits.swap(i, draw(i as u64 + 1) as usize);
    }
    qubits.truncate(draw(n as u64) as usize + 1);
    let constant_only = draw(4) == 0;
    for &q in &qubits {
        for _ in 0..=draw(3) {
            let slot = Angle::param(draw(NUM_PARAMS as u64) as usize);
            circuit.push(match draw(if constant_only { 6 } else { 9 }) {
                0 => Gate::H(q),
                1 => Gate::X(q),
                2 => Gate::Y(q),
                3 => Gate::Z(q),
                4 => Gate::S(q),
                5 => Gate::Sdg(q),
                6 => Gate::Rx(q, slot),
                7 => Gate::Ry(q, slot),
                _ => Gate::Rz(q, slot),
            });
        }
    }
    let labels = ['I', 'X', 'Y', 'Z'];
    for _ in 0..draw(12) {
        let q = draw(n as u64) as usize;
        let q2 = (q + 1 + draw(n.max(2) as u64 - 1) as usize) % n;
        circuit.push(match draw(6) {
            0 if n > 1 => Gate::Cx(q, q2),
            1 if n > 1 => Gate::Cz(q, q2),
            2 => Gate::PauliRotation(
                PauliString::from_label(
                    &(0..n).map(|_| labels[draw(4) as usize]).collect::<String>(),
                )
                .unwrap(),
                Angle::param(draw(NUM_PARAMS as u64) as usize),
            ),
            3 => Gate::H(q),
            _ => Gate::Ry(q, Angle::Fixed(0.3 + draw(100) as f64 * 0.05)),
        });
    }
    let basis = draw(1 << n);
    let params = (0..NUM_PARAMS)
        .map(|_| match draw(6) {
            0 => 0.0,
            1 => FRAC_PI_2,
            2 => -FRAC_PI_2,
            3 => PI,
            _ => draw(1000) as f64 * 0.0063 - 3.15,
        })
        .collect();
    let ops = CompiledCircuit::compile(&circuit).num_ops();
    let mut insertions: Vec<qsim::PauliInsertion> = (0..draw(4))
        .map(|_| qsim::PauliInsertion {
            after_op: draw(ops as u64) as usize,
            string: PauliString::from_masks(draw(1 << n), draw(1 << n), n),
        })
        .collect();
    insertions.sort_by_key(|p| p.after_op);
    (circuit, basis, params, insertions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Starting from a basis state through the product prefix is bit-identical, zero
    /// signs included, to preparing the basis state and executing every op — on 1–14
    /// qubits, with insertions before, inside and after the prefix, with or without
    /// batch tables, into a state whose stale contents must all be overwritten.
    #[test]
    fn basis_start_through_the_product_prefix_is_bit_identical(
        n in 1usize..15,
        seed in 0u64..u64::MAX,
    ) {
        let (circuit, basis, params, insertions) = prefix_case(n, seed);
        let compiled = CompiledCircuit::compile(&circuit);
        let tables = compiled.prepare_batch_tables(&[&params]);
        let tables = (seed & 1 == 1).then_some(&tables);
        let mut expected = Statevector::zero_state(n);
        expected.set_basis_state(basis);
        compiled.execute_in_place_with_insertions(&params, &mut expected, &insertions, tables);
        let mut got = dense_state(n);
        compiled.execute_from_basis(basis, &params, &mut got, &insertions, tables);
        for (lane, a, b) in [("re", expected.re(), got.re()), ("im", expected.im(), got.im())] {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} qubits, basis {}, amplitude {} {}: {} vs {}",
                    n, basis, i, lane, x, y
                );
            }
        }
    }
}

/// One deterministic end-to-end check that the one-shot `run_circuit` wrapper (compile +
/// execute) agrees with the reference on an ansatz with every fusion pattern.
#[test]
fn run_circuit_wrapper_and_reference_agree() {
    use qcircuit::{Entanglement, HardwareEfficientAnsatz};
    let circuit = HardwareEfficientAnsatz::new(6, 3, Entanglement::Circular).build();
    let params: Vec<f64> = (0..circuit.num_parameters())
        .map(|i| (i as f64 * 0.37).sin())
        .collect();
    let initial = dense_state(6);

    let compiled_out = qsim::run_circuit(&circuit, &params, &initial);
    let naive = reference::run_circuit(&circuit, &params, &initial);
    assert!(max_amplitude_diff(&compiled_out, &naive) < 1e-12);
}
