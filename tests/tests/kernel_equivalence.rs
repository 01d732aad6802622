//! Property tests pinning the optimized simulation kernels to the retained naive
//! reference implementations.
//!
//! The branch-free/in-place kernels in `qsim` and `qop` must be bit-for-bit
//! *algorithmically* equivalent to the originals (up to floating-point associativity), so
//! every property here demands agreement to 1e-12 on random circuits, random Pauli
//! rotations, and random Hamiltonians.  Bodies that must keep the bits of the form they
//! replaced are held by `to_bits`: recorded digests for the low-qubit kernels, and a
//! per-amplitude gather for `PauliOp::apply_into`.  Each kernel is one serial vectorized
//! body (only `qop::par::map_states`, which nothing here reaches, spawns threads); the
//! 14-qubit properties are this suite's large-register coverage: every block size, lane
//! permutation and sign-table path a 2^14-amplitude state reaches.

use proptest::prelude::*;
use qcircuit::{Angle, Circuit, Gate};
use qop::lanes::{i_power, parity_sign};
use qop::{Complex64, PauliOp, PauliString, Statevector};
use qsim::{reference, run_circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Strategy for one random gate on an `n`-qubit register, covering every gate kind.
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    (0usize..11, 0usize..n, 0usize..n, -3.2f64..3.2).prop_map(move |(kind, q, q2, theta)| {
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
            9 => Gate::Ry(q, Angle::Fixed(theta)),
            _ => Gate::Rz(q, Angle::Fixed(theta)),
        }
    })
}

fn arb_pauli_label(num_qubits: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec!['I', 'X', 'Y', 'Z']),
        num_qubits,
    )
    .prop_map(|chars| chars.into_iter().collect())
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

    /// The fast branch-free gate kernels agree with the naive reference on random
    /// circuits over every gate kind, to 1e-12 per amplitude.
    #[test]
    fn random_circuits_agree_with_reference(
        gates in proptest::collection::vec(arb_gate(6), 1..40),
    ) {
        let n = 6;
        let circuit = circuit_from_gates(n, gates);
        let initial = dense_state(n);
        let fast = run_circuit(&circuit, &[], &initial);
        let naive = reference::run_circuit(&circuit, &[], &initial);
        prop_assert!(max_amplitude_diff(&fast, &naive) < 1e-12);
    }

    /// The in-place involution-pair Pauli-rotation kernel agrees with the naive
    /// clone-the-state construction on random strings and angles, to 1e-12.
    #[test]
    fn random_pauli_rotations_agree_with_reference(
        rotations in proptest::collection::vec((arb_pauli_label(6), -3.2f64..3.2), 1..12),
    ) {
        let n = 6;
        let mut fast = dense_state(n);
        let mut naive = fast.clone();
        for (label, theta) in rotations {
            let string = PauliString::from_label(&label).unwrap();
            qsim::apply_pauli_rotation(&mut fast, &string, theta);
            reference::apply_pauli_rotation(&mut naive, &string, theta);
        }
        prop_assert!(max_amplitude_diff(&fast, &naive) < 1e-12);
    }

    /// The optimized expectation kernel (diagonal fast path + pairwise gather) agrees
    /// with the naive scan-and-apply kernel for every term shape.
    #[test]
    fn string_expectation_matches_naive(label in arb_pauli_label(7)) {
        let psi = dense_state(7);
        let string = PauliString::from_label(&label).unwrap();
        let fast = PauliOp::string_expectation(&string, &psi);
        let naive = PauliOp::string_expectation_naive(&string, &psi);
        prop_assert!((fast - naive).abs() < 1e-12, "{fast} vs {naive} on {label}");
    }
}

proptest! {
    // Fewer cases for the 14-qubit properties: each touches 2^14 amplitudes per gate.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Gate kernels on a 14-qubit register match the naive reference.
    #[test]
    fn gate_kernels_agree_with_reference_at_14_qubits(
        gates in proptest::collection::vec(arb_gate(14), 1..10),
        rotation in arb_pauli_label(14),
        theta in -3.2f64..3.2,
    ) {
        let n = 14;
        let circuit = circuit_from_gates(n, gates);
        let initial = dense_state(n);
        let mut fast = run_circuit(&circuit, &[], &initial);
        let mut naive = reference::run_circuit(&circuit, &[], &initial);
        let string = PauliString::from_label(&rotation).unwrap();
        qsim::apply_pauli_rotation(&mut fast, &string, theta);
        reference::apply_pauli_rotation(&mut naive, &string, theta);
        prop_assert!(max_amplitude_diff(&fast, &naive) < 1e-12);
    }

    /// Hamiltonian expectation on a 14-qubit register (the term-basis readout with its
    /// per-string fast paths) equals the naive per-term sum.
    #[test]
    fn expectation_equals_naive_sum_at_14_qubits(
        terms in proptest::collection::vec((arb_pauli_label(14), -1.0f64..1.0), 2..10),
    ) {
        let psi = dense_state(14);
        let refs: Vec<(&str, f64)> = terms.iter().map(|(l, c)| (l.as_str(), *c)).collect();
        let op = PauliOp::from_labels(14, &refs);
        let fast = op.expectation(&psi);
        let naive_sum: f64 = op
            .terms()
            .iter()
            .map(|t| t.coefficient * PauliOp::string_expectation_naive(&t.string, &psi))
            .sum();
        prop_assert!((fast - naive_sum).abs() < 1e-10, "{fast} vs {naive_sum}");
        // Per-term expectations take the same path and must agree term-by-term.
        let per_term = op.term_expectations(&psi);
        for (t, e) in op.terms().iter().zip(per_term) {
            let naive = PauliOp::string_expectation_naive(&t.string, &psi);
            prop_assert!((e - naive).abs() < 1e-12);
        }
    }
}

/// Folds one 64-bit word into an FNV-1a-style digest.
fn fold(h: u64, bits: u64) -> u64 {
    (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds every amplitude's `to_bits()`, zero signs included, re lane then im lane.
fn fold_state(h: u64, psi: &Statevector) -> u64 {
    psi.re()
        .iter()
        .chain(psi.im())
        .fold(h, |h, x| fold(h, x.to_bits()))
}

/// Bit digests of the kernels whose bodies sit inside one 4-lane chunk or one 8-lane
/// window (`[1q on q ∈ {0, 1, 2}, CX on every pair with lo < 3, CZ likewise, Pauli
/// rotations and strings with pivot < 2, single-string readouts for pivots 0–7]`), each
/// on a fresh copy of [`dense_state`].
fn low_qubit_kernel_digests(n: usize) -> [u64; 5] {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let base = dense_state(n);
    let all = (1u64 << n) - 1;
    let c = Complex64::new;
    let m2 = |x: &qsim::Matrix2, y: &qsim::Matrix2| -> qsim::Matrix2 {
        let e = |r: usize, k: usize| x[r][0] * y[0][k] + x[r][1] * y[1][k];
        [[e(0, 0), e(0, 1)], [e(1, 0), e(1, 1)]]
    };
    // A generic fused chain, and Y: exact zeros and a negative entry, so products of
    // zero signs are pinned too.
    let generic = m2(
        &qsim::rz_matrix(0.3),
        &m2(&qsim::ry_matrix(1.1), &qsim::rx_matrix(-0.4)),
    );
    let y = [[c(0.0, 0.0), c(0.0, -1.0)], [c(0.0, 1.0), c(0.0, 0.0)]];
    let mut single = SEED;
    for q in 0..3.min(n) {
        for m in [&generic, &y] {
            let mut psi = base.clone();
            qsim::apply_single_qubit(&mut psi, q, m);
            single = fold_state(single, &psi);
        }
    }
    let (mut cx, mut cz) = (SEED, SEED);
    for lo in 0..3.min(n) {
        for hi in lo + 1..n {
            for (control, target) in [(lo, hi), (hi, lo)] {
                let mut psi = base.clone();
                qsim::apply_cx(&mut psi, control, target);
                cx = fold_state(cx, &psi);
                let mut psi = base.clone();
                qsim::apply_cz(&mut psi, control, target);
                cz = fold_state(cz, &psi);
            }
        }
    }
    let mut pairs = SEED;
    for x in [1u64, 2, 3] {
        for z in [0u64, 1, 2, 3, 0b101, all] {
            let string = PauliString::from_masks(x, z & all, n);
            let mut psi = base.clone();
            qsim::apply_pauli_rotation(&mut psi, &string, 0.77);
            pairs = fold_state(pairs, &psi);
            let mut psi = base.clone();
            qsim::apply_pauli_string(&mut psi, &string);
            pairs = fold_state(pairs, &psi);
        }
    }
    let mut readout = SEED;
    for pivot in 0..8.min(n) {
        let top = 1u64 << pivot;
        for xl in [0u64, 1, 2, 3, 5, top - 1] {
            for z in [0u64, 1, 0b110, 0b1011_0101, all] {
                let string = PauliString::from_masks(top | (xl & (top - 1)), z & all, n);
                let value = PauliOp::string_expectation(&string, &base);
                readout = fold(readout, value.to_bits());
            }
        }
    }
    [single, cx, cz, pairs, readout]
}

/// The low-qubit kernel bodies produce the bits their per-pair forms produced: digests
/// recorded from the per-pair kernels (identical in debug and release builds) at 3, 8,
/// 12 and 14 qubits — below and above one sign block, and the benchmark's registers.
#[test]
fn low_qubit_kernels_keep_their_recorded_bits() {
    const RECORDED: [(usize, [u64; 5]); 4] = [
        (
            3,
            [
                0xeda6_9492_ad17_f202,
                0x66a4_394c_c80e_6d7d,
                0x8f30_0481_2c27_46b1,
                0x0bf5_b590_5c52_ee25,
                0x74cf_4860_34f8_5a1f,
            ],
        ),
        (
            8,
            [
                0xdee1_72be_d525_3f70,
                0x0bb3_28b3_5446_0d51,
                0xf62c_7fc7_d42e_4bbd,
                0x37d9_3fa4_197a_e4fd,
                0x6c10_354e_826c_844d,
            ],
        ),
        (
            12,
            [
                0x73b0_3ecc_f5e8_199e,
                0x11a6_e04d_9e54_9d8d,
                0xdd4b_e8e4_e380_9fc5,
                0xc125_5c1c_1904_6629,
                0xff83_86c1_40d3_3a2d,
            ],
        ),
        (
            14,
            [
                0xfc6c_02bf_7722_942d,
                0x5a75_638e_448b_17e5,
                0x8f2a_a02e_5263_9485,
                0xdef7_7a45_f4f3_ec88,
                0x94c1_6814_671d_5e29,
            ],
        ),
    ];
    let kinds = ["1q", "cx", "cz", "pauli pivot<2", "readout pivot<8"];
    for (n, expected) in RECORDED {
        let got = low_qubit_kernel_digests(n);
        for ((kind, got), expected) in kinds.iter().zip(got).zip(expected) {
            assert_eq!(got, expected, "{kind} digest at {n} qubits: {got:#018x}");
        }
    }
}

/// `H|ψ⟩` in gather form (and its allocation-reusing variant) matches the original
/// scatter implementation, including on the Lanczos-style repeated-application path.
#[test]
fn apply_into_matches_naive_scatter() {
    let n = 8;
    let psi = dense_state(n);
    let op = PauliOp::from_labels(
        n,
        &[
            ("ZZIIZZII", 0.7),
            ("XIYIZXIY", -0.2),
            ("YYYYIIYY", 0.4),
            ("IIXXIIXX", -0.9),
            ("ZIIIIIIZ", 1.3),
        ],
    );
    // Original scatter form.
    let mut expected = psi.zeros_like();
    for term in op.terms() {
        for b in 0..psi.dim() as u64 {
            let (b2, phase) = term.string.apply_to_basis(b);
            let contribution = phase * psi.amplitude(b) * term.coefficient;
            expected.set_amplitude(b2, expected.amplitude(b2) + contribution);
        }
    }
    let got = op.apply(&psi);
    let diff = max_amplitude_diff(&expected, &got);
    assert!(diff < 1e-12, "apply mismatch: {diff}");
}

/// The bit reference of the tiled `PauliOp::apply_into`: a per-amplitude gather, each
/// output `b` the serial fold over the terms in term order of `s · cg · ψ[b ^ x]`, with
/// `cg = c · i^num_y` and the sign `s = (−1)^popcount((b ^ x) & z)` taken by `popcount`
/// per (term, amplitude).
fn apply_gather_reference(op: &PauliOp, psi: &Statevector) -> Statevector {
    let prepared: Vec<(usize, u64, Complex64)> = op
        .terms()
        .iter()
        .map(|t| {
            let (x, z) = (t.string.x_mask(), t.string.z_mask());
            let cg = i_power((x & z).count_ones()).scale(t.coefficient);
            (x as usize, z, cg)
        })
        .collect();
    let (pre, pim) = psi.lanes();
    let mut out = psi.zeros_like();
    let (ore, oim) = out.lanes_mut();
    for (b, (or, oi)) in ore.iter_mut().zip(oim.iter_mut()).enumerate() {
        let (mut acc_re, mut acc_im) = (0.0, 0.0);
        for &(x, z, cg) in &prepared {
            let src = b ^ x;
            let s = parity_sign(src as u64 & z);
            let (r, i) = (pre[src], pim[src]);
            acc_re += s * (cg.re * r - cg.im * i);
            acc_im += s * (cg.re * i + cg.im * r);
        }
        *or = acc_re;
        *oi = acc_im;
    }
    out
}

/// A random I/X/Y/Z operator on `n` qubits: random strings, one string per `x & 3` lane
/// offset with and without the top qubit in `x` (sources in another 256-amplitude tile
/// once `n > 8`), the identity, and the first string repeated with another coefficient.
fn random_tiled_operator(n: usize, rng: &mut StdRng) -> PauliOp {
    let all = (1u64 << n) - 1;
    let top = 1u64 << (n - 1);
    let mut masks: Vec<(u64, u64)> = Vec::new();
    for _ in 0..12 {
        masks.push((rng.random::<u64>() & all, rng.random::<u64>() & all));
    }
    for m in 0..4u64 {
        let high = rng.random::<u64>() & !3;
        masks.push((m & all, rng.random::<u64>() & all));
        masks.push((((high | m) & all) | top, rng.random::<u64>() & all));
    }
    masks.push((0, 0));
    masks.push(masks[0]);
    let mut op = PauliOp::zero(n);
    for (x, z) in masks {
        op.add_term(
            PauliString::from_masks(x, z, n),
            rng.random_range(-1.0..1.0),
        );
    }
    op
}

/// The tiled `apply_into` writes the gather reference's bits, zero signs included, on
/// registers below one 4-lane chunk, inside one tile and across 2–16 tiles.
#[test]
fn apply_into_keeps_the_gather_bits() {
    let mut rng = StdRng::seed_from_u64(0x7113_d5e7);
    for n in [1usize, 2, 3, 5, 8, 9, 10, 12] {
        for trial in 0..3 {
            let op = random_tiled_operator(n, &mut rng);
            let psi = if trial == 0 {
                dense_state(n)
            } else {
                let dim = 1usize << n;
                Statevector::from_lanes(
                    (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect(),
                    (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect(),
                )
            };
            let expected = apply_gather_reference(&op, &psi);
            // A stale output buffer must be overwritten, not accumulated into.
            let mut got = psi.clone();
            op.apply_into(&psi, &mut got);
            for (lane, (e, g)) in [(expected.re(), got.re()), (expected.im(), got.im())]
                .into_iter()
                .enumerate()
            {
                for (b, (e, g)) in e.iter().zip(g).enumerate() {
                    assert_eq!(
                        e.to_bits(),
                        g.to_bits(),
                        "n {n}, trial {trial}, lane {lane}, index {b}: {g:e} vs {e:e}"
                    );
                }
            }
        }
    }
}
