//! Property tests pinning the split-lane (SoA) statevector kernels to the retained
//! **interleaved** reference implementations.
//!
//! PR 4 changed the storage layout of every dense kernel from interleaved `Complex64`
//! to split re/im `f64` lanes.  The reference kernels in `qsim::reference` deliberately
//! stayed on interleaved storage (converting at entry/exit), so every property here
//! compares two genuinely different memory layouts — an index or lane mix-up cannot
//! cancel out.  All agreements are demanded to 1e-12 per amplitude.  Every kernel
//! reached here is one serial vectorized body — nothing in this suite opens a parallel
//! region (`qop::par::map_states` is the only one and sits above these entry points) —
//! so the thread count cannot matter; the 14-qubit property is the large-register
//! coverage of the 4-wide-chunked paths.

use proptest::prelude::*;
use qcircuit::{Angle, Circuit, Gate};
use qop::{Complex64, PauliString, Statevector};
use qsim::{reference, run_circuit, CompiledCircuit, PauliInsertion};

/// A dense, structured, normalized state: every amplitude distinct so index or phase
/// mix-ups cannot cancel.
fn dense_state(num_qubits: usize) -> Statevector {
    let dim = 1usize << num_qubits;
    let mut psi = Statevector::from_amplitudes(
        (0..dim)
            .map(|i| Complex64::new((i as f64 * 0.149).sin() + 0.25, (i as f64 * 0.313).cos()))
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

fn assert_bit_identical(a: &Statevector, b: &Statevector) {
    for (x, y) in a.re().iter().zip(b.re()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a.im().iter().zip(b.im()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

fn arb_pauli_label(num_qubits: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec!['I', 'X', 'Y', 'Z']),
        num_qubits,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Strategy over **every** gate kind, including multi-qubit Pauli rotations (the gate
/// kind `kernel_equivalence`'s circuit strategy leaves to a separate property).
fn arb_gate_all_kinds(n: usize) -> impl Strategy<Value = Gate> {
    (
        0usize..12,
        0usize..n,
        0usize..n,
        -3.2f64..3.2,
        arb_pauli_label(n),
    )
        .prop_map(move |(kind, q, q2, theta, label)| {
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
                9 => Gate::Ry(q, Angle::Fixed(theta)),
                10 => Gate::Rz(q, Angle::Fixed(theta)),
                _ => Gate::PauliRotation(
                    PauliString::from_label(&label).unwrap(),
                    Angle::Fixed(theta),
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

/// A QAOA-shaped circuit whose cost layer compiles into a tabulated diagonal pass
/// (≥4 phase terms on ≥8 qubits): H wall, ZZ-ring rotations sharing parameter slot 0,
/// Rx mixers on slot 1.
fn qaoa_circuit(n: usize) -> Circuit {
    let mut circ = Circuit::new(n);
    for q in 0..n {
        circ.push(Gate::H(q));
    }
    for q in 0..n {
        let mut label = vec!['I'; n];
        label[q] = 'Z';
        label[(q + 1) % n] = 'Z';
        let string = PauliString::from_label(&label.iter().collect::<String>()).unwrap();
        circ.push(Gate::PauliRotation(string, Angle::param(0)));
    }
    for q in 0..n {
        circ.push(Gate::Rx(q, Angle::param(1)));
    }
    circ
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random circuits over every gate kind: SoA kernels vs the interleaved reference.
    #[test]
    fn soa_circuits_match_interleaved_reference(
        gates in proptest::collection::vec(arb_gate_all_kinds(6), 1..32),
    ) {
        let n = 6;
        let circuit = circuit_from_gates(n, gates);
        let initial = dense_state(n);
        let fast = run_circuit(&circuit, &[], &initial);
        let naive = reference::run_circuit(&circuit, &[], &initial);
        prop_assert!(max_amplitude_diff(&fast, &naive) < 1e-12);
    }

    /// The split-lane reductions (norm, inner product, axpy, probabilities) agree with
    /// direct interleaved arithmetic on the converted amplitudes.
    #[test]
    fn soa_reductions_match_interleaved_arithmetic(
        seed_re in -1.0f64..1.0,
        seed_im in -1.0f64..1.0,
        scale_re in -1.0f64..1.0,
        scale_im in -1.0f64..1.0,
    ) {
        let n = 7;
        let dim = 1usize << n;
        let a = Statevector::from_amplitudes(
            (0..dim)
                .map(|i| Complex64::new((i as f64 * 0.31 + seed_re).sin(), (i as f64 * 0.17 + seed_im).cos()))
                .collect(),
        );
        let b = dense_state(n);
        let (ai, bi) = (a.to_amplitudes(), b.to_amplitudes());

        let norm_ref = ai.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        prop_assert!((a.norm() - norm_ref).abs() < 1e-12);

        let inner_ref: Complex64 = ai.iter().zip(&bi).map(|(x, y)| x.conj() * *y).sum();
        prop_assert!((a.inner(&b) - inner_ref).norm() < 1e-12);

        for (p, z) in a.probabilities().iter().zip(&ai) {
            prop_assert!((p - z.norm_sqr()).abs() < 1e-15);
        }

        let coeff = Complex64::new(scale_re, scale_im);
        let mut axpy = a.clone();
        axpy.axpy(coeff, &b);
        for (got, (x, y)) in axpy.to_amplitudes().iter().zip(ai.iter().zip(&bi)) {
            let want = *x + coeff * *y;
            prop_assert!((*got - want).norm() < 1e-12);
        }
    }

    /// Paired insertions cancel exactly: a schedule inserting the same Pauli twice after
    /// randomly chosen compiled ops is bit-identical to plain execution (P² = I and the
    /// split-lane application is phase-exact), which pins the insertion splice points
    /// and the apply_pauli_string kernel at arbitrary mid-circuit states.
    #[test]
    fn paired_insertions_cancel_bit_exactly(
        gates in proptest::collection::vec(arb_gate_all_kinds(5), 4..24),
        raw_sites in proptest::collection::vec((0usize..64, arb_pauli_label(5)), 1..5),
    ) {
        let n = 5;
        let circuit = circuit_from_gates(n, gates);
        let compiled = CompiledCircuit::compile(&circuit);
        let mut insertions: Vec<PauliInsertion> = Vec::new();
        let mut sites: Vec<(usize, String)> = raw_sites
            .into_iter()
            .map(|(op, label)| (op % compiled.num_ops(), label))
            .collect();
        sites.sort_by_key(|(op, _)| *op);
        for (op, label) in sites {
            let string = PauliString::from_label(&label).unwrap();
            for _ in 0..2 {
                insertions.push(PauliInsertion { after_op: op, string });
            }
        }
        let initial = dense_state(n);
        let mut plain = initial.clone();
        let mut spliced = initial.clone();
        compiled.execute_in_place(&[], &mut plain);
        compiled.execute_in_place_with_insertions(&[], &mut spliced, &insertions, None);
        assert_bit_identical(&plain, &spliced);
    }

    /// A single trailing insertion equals the interleaved reference applied to the
    /// reference-evolved state — the non-empty-schedule agreement across layouts.
    #[test]
    fn trailing_insertion_matches_interleaved_reference(
        gates in proptest::collection::vec(arb_gate_all_kinds(5), 1..16),
        label in arb_pauli_label(5),
    ) {
        let n = 5;
        let circuit = circuit_from_gates(n, gates);
        let compiled = CompiledCircuit::compile(&circuit);
        let string = PauliString::from_label(&label).unwrap();
        let insertions = [PauliInsertion {
            after_op: compiled.num_ops() - 1,
            string,
        }];
        let initial = dense_state(n);
        let mut spliced = initial.clone();
        compiled.execute_in_place_with_insertions(&[], &mut spliced, &insertions, None);
        let mut naive = reference::run_circuit(&circuit, &[], &initial);
        reference::apply_pauli_string(&mut naive, &string);
        prop_assert!(max_amplitude_diff(&spliced, &naive) < 1e-12);
    }
}

proptest! {
    // Fewer cases for the expensive properties (tabulated diagonal tables need ≥8
    // qubits; the 14-qubit circuits touch 2^14 amplitudes per gate).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Diagonal batch tables: cached execution is bit-identical to uncached and matches
    /// the interleaved reference, for batches whose diagonal angles are uniform.
    #[test]
    fn batch_tables_match_reference_and_uncached(
        gamma in -3.0f64..3.0,
        beta_a in -3.0f64..3.0,
        beta_b in -3.0f64..3.0,
    ) {
        let n = 9;
        let circ = qaoa_circuit(n);
        let compiled = CompiledCircuit::compile(&circ);
        prop_assert!(compiled.stats().diagonal_passes >= 1);
        let bindings = [[gamma, beta_a], [gamma, beta_b]];
        let params_list: Vec<&[f64]> = bindings.iter().map(|b| b.as_slice()).collect();
        let tables = compiled.prepare_batch_tables(&params_list);
        prop_assert!(tables.num_bound() >= 1);
        for params in &bindings {
            let mut cached = Statevector::zero_state(n);
            let mut fresh = Statevector::zero_state(n);
            compiled.execute_in_place_with_insertions(params, &mut cached, &[], Some(&tables));
            compiled.execute_in_place(params, &mut fresh);
            assert_bit_identical(&cached, &fresh);
            let naive = reference::run_circuit(&circ, params, &Statevector::zero_state(n));
            prop_assert!(max_amplitude_diff(&cached, &naive) < 1e-12);
        }
    }

    /// Large registers: the split-lane kernels match the interleaved reference on
    /// 14-qubit circuits.
    #[test]
    fn soa_kernels_match_reference_at_14_qubits(
        gates in proptest::collection::vec(arb_gate_all_kinds(14), 1..8),
    ) {
        let n = 14;
        let circuit = circuit_from_gates(n, gates);
        let initial = dense_state(n);
        let fast = run_circuit(&circuit, &[], &initial);
        let naive = reference::run_circuit(&circuit, &[], &initial);
        prop_assert!(max_amplitude_diff(&fast, &naive) < 1e-12);
    }
}
