//! The optimized simulation kernels held to the retained naive reference
//! implementations.
//!
//! The entry tests below run rows of `treevqa_tests::relational`'s `CIRCUIT_PAIRS`,
//! `OPERATOR_PAIRS` and `GATE_PAIRS` (gate kernels, the low-qubit single-qubit bodies,
//! Pauli rotations, string and operator readouts, `PauliOp::apply` against the naive
//! forms).  Bodies that must keep the bits of the
//! form they replaced are held here by `to_bits`: recorded digests for the low-qubit
//! kernels and the tabulated diagonal pass, and a per-amplitude gather for
//! `PauliOp::apply_into`.  Each kernel is one serial vectorized body (only
//! `qop::par::map_states`, which nothing here reaches, spawns threads).

use qcircuit::{Angle, Circuit, Gate, QaoaAnsatz, QaoaStyle};
use qop::lanes::{i_power, parity_sign};
use qop::{Complex64, PauliOp, PauliString, Statevector};
use qsim::{CompiledCircuit, PauliInsertion};
use treevqa_tests::relational::{
    circuits, dense_state, operators, registers, single_qubit_gates, Gen,
};

#[test]
fn random_circuits_agree_with_reference() {
    circuits(&["gate kernels ≡ reference"]);
}

/// The full-width single-qubit bodies of qubits 0–3 give the bits of the bodies they
/// replaced, on every register size from 1 to 14 qubits.
#[test]
fn low_qubit_single_qubit_bodies_keep_the_former_bits() {
    single_qubit_gates(&["full-width 1q bodies ≡ former bodies"]);
}

/// The Rx-shaped and real single-qubit bodies, which drop the generic body's `0·v`
/// terms, give its bits — zero signs included — on every qubit below 4 and the top
/// qubit, from dense and zero-rich basis states, at the angles that zero entries.
#[test]
fn structured_single_qubit_bodies_keep_the_generic_bits() {
    single_qubit_gates(&["structured 1q bodies ≡ generic body"]);
}

#[test]
fn random_pauli_rotations_agree_with_reference() {
    operators(&["rotation kernel ≡ naive"]);
}

#[test]
fn string_expectation_matches_naive() {
    operators(&["string expectations ≡ naive"]);
}

#[test]
fn gate_kernels_agree_with_reference_at_14_qubits() {
    registers(&["gate kernels ≡ reference"]);
}

#[test]
fn expectation_equals_naive_sum_at_14_qubits() {
    operators(&["expectation ≡ naive sum", "term expectations ≡ naive"]);
}

#[test]
fn apply_into_matches_naive_scatter() {
    operators(&["apply ≡ naive scatter"]);
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

/// A cost layer between a Hadamard wall and an Rx mixer: one diagonal Z-string
/// rotation per mask (parameter slot `k` for mask `k`), so the layer compiles to one
/// tabulated diagonal pass and the wall to the product prefix.
fn diagonal_layer_circuit(n: usize, masks: &[u64]) -> Circuit {
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.push(Gate::H(q));
    }
    for (k, &mask) in masks.iter().enumerate() {
        let string = PauliString::from_masks(0, mask, n);
        circuit.push(Gate::PauliRotation(string, Angle::param(k)));
    }
    for q in 0..n {
        circuit.push(Gate::Rx(q, Angle::param(masks.len() + q)));
    }
    circuit
}

/// `layers` ring-plus-chords cost layers (ZZ on `(q, q + 1)` and `(q, q + 2)` mod `n`),
/// each followed by an Rx mixer, after a Hadamard wall.
fn ring_and_chords_circuit(n: usize, layers: usize) -> Circuit {
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.push(Gate::H(q));
    }
    let mut slot = 0;
    for _ in 0..layers {
        for step in [1, 2] {
            for q in 0..n {
                let mask = (1u64 << q) | (1u64 << ((q + step) % n));
                let string = PauliString::from_masks(0, mask, n);
                circuit.push(Gate::PauliRotation(string, Angle::param(slot)));
                slot += 1;
            }
        }
        for q in 0..n {
            circuit.push(Gate::Rx(q, Angle::param(slot)));
            slot += 1;
        }
    }
    circuit
}

/// Folds the six final states of `circuit` under `params`: `execute_in_place` from
/// [`dense_state`] and `execute_from_basis`, each without and with bound
/// `BatchTables`, and each entry point once more with one Pauli insertion right after
/// the first diagonal op.
fn diagonal_pass_digest(h: u64, circuit: &Circuit, params: &[f64]) -> u64 {
    let n = circuit.num_qubits();
    let compiled = CompiledCircuit::compile(circuit);
    assert!(
        compiled.stats().diagonal_passes >= 1,
        "{n} qubits: no diagonal pass"
    );
    let tables = compiled.prepare_batch_tables(&[params]);
    assert!(
        tables.num_bound() >= 1,
        "{n} qubits: no bound diagonal pass"
    );
    let diagonal_op = compiled
        .noise_sites()
        .iter()
        .find(|site| site.entangling)
        .expect("a cost term")
        .op_index;
    let all = (1u64 << n) - 1;
    let insertion = [PauliInsertion {
        after_op: diagonal_op,
        string: PauliString::from_masks(0b1001_0110 & all, 0b0101_0011 & all, n),
    }];
    let basis = 0x2d5 & all;
    let mut h = h;
    for (insertions, tables) in [
        (&[][..], None),
        (&[][..], Some(&tables)),
        (&insertion[..], None),
    ] {
        let mut psi = dense_state(n);
        compiled.execute_in_place_with_insertions(params, &mut psi, insertions, tables);
        h = fold_state(h, &psi);
    }
    for (insertions, tables) in [
        (&[][..], None),
        (&[][..], Some(&tables)),
        (&insertion[..], Some(&tables)),
    ] {
        let mut psi = Statevector::zero_state(n);
        compiled.execute_from_basis(basis, params, &mut psi, insertions, tables);
        h = fold_state(h, &psi);
    }
    h
}

/// A parameter vector with distinct, irregular entries.
fn spread_params(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| 0.3 + 0.7 * (i as f64 * 0.61).sin())
        .collect()
}

/// `local` with `count` split-spanning masks interleaved: weight-2 pairs across the split
/// at `s` and weight-3 terms with two bits on either side, then one mask repeated.
fn with_spanning_terms(local: &[u64], n: usize, s: usize, count: usize) -> Vec<u64> {
    let mut masks = local.to_vec();
    for k in 0..count {
        let lo = k % s;
        let hi = s + (k * 3) % (n - s);
        let mut mask = (1u64 << lo) | (1u64 << hi);
        if k % 3 == 1 {
            mask |= 1 << ((lo + 1) % s);
        } else if k % 3 == 2 {
            mask |= 1 << (s + (hi - s + 1) % (n - s));
        }
        masks.insert(2 * k % masks.len(), mask);
    }
    masks.push(masks[3]);
    masks
}

/// Digests of the tabulated diagonal pass: `[IEEE-14 multi-angle QAOA p = 1,
/// p = 2, ring-plus-chords at 8–14 qubits, synthetic layers with 0, 1, 21 and 71
/// split-spanning terms]` — 71 is past the 64 terms a pass keeps on the stack.
fn tabulated_pass_digests() -> [u64; 7] {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let graph = qgraph::ieee14_base_graph();
    let mut ieee14 = [SEED; 2];
    for (p, digest) in ieee14.iter_mut().enumerate() {
        for scale in [1.0, 1.37] {
            let cost = qgraph::maxcut_cost_hamiltonian(&graph.scaled(scale));
            let qaoa = QaoaAnsatz::new(&cost, p + 1, QaoaStyle::MultiAngle).unwrap();
            let params = spread_params(qaoa.num_parameters());
            *digest = diagonal_pass_digest(*digest, &qaoa.build(), &params);
        }
    }
    let mut ring = SEED;
    for n in 8..=14 {
        let circuit = ring_and_chords_circuit(n, 2);
        ring = diagonal_pass_digest(ring, &circuit, &spread_params(circuit.num_parameters()));
    }
    // At 10 qubits the split is s = 5, at 13 it is s = 7.
    let mut synthetic = [SEED; 4];
    for n in [10usize, 13] {
        let s = n.div_ceil(2);
        let low: Vec<u64> = (0..s - 1).map(|q| 0b11 << q).collect();
        let high: Vec<u64> = (s..n - 1).map(|q| 0b11 << q).collect();
        let local: Vec<u64> = low.iter().chain(&high).copied().collect();
        let mut one = local.clone();
        one.insert(2, (1 << (s - 1)) | (1 << s));
        let layers = [
            (0, local.clone()),
            (1, one),
            (21, with_spanning_terms(&local, n, s, 20)),
            (71, with_spanning_terms(&local, n, s, 70)),
        ];
        for (digest, (expected, masks)) in synthetic.iter_mut().zip(layers) {
            let spanning = masks
                .iter()
                .filter(|&&m| m >> s != 0 && m & ((1 << s) - 1) != 0)
                .count();
            assert_eq!(spanning, expected, "spanning terms at {n} qubits");
            let circuit = diagonal_layer_circuit(n, &masks);
            *digest =
                diagonal_pass_digest(*digest, &circuit, &spread_params(circuit.num_parameters()));
        }
    }
    [
        ieee14[0],
        ieee14[1],
        ring,
        synthetic[0],
        synthetic[1],
        synthetic[2],
        synthetic[3],
    ]
}

/// The tabulated diagonal pass keeps its recorded bits on every split-spanning shape:
/// digests recorded from the per-amplitude spanning-term loop (identical in debug and
/// release builds), over both entry points with and without bound tables and with a
/// Pauli insertion after the pass.
#[test]
fn tabulated_diagonal_pass_keeps_its_recorded_bits() {
    const RECORDED: [u64; 7] = [
        0xf61d_ba8b_1d0b_f650,
        0xb642_27b2_3572_76b8,
        0x53e3_0830_cc70_f5b5,
        0x81eb_9ef0_0cfc_fbea,
        0xe536_c032_a3d2_b751,
        0xda1f_a954_4e34_142b,
        0x3fab_ae9d_8728_a1fb,
    ];
    let kinds = [
        "ieee14 p=1",
        "ieee14 p=2",
        "ring+chords 8-14q",
        "0 spanning",
        "1 spanning",
        "21 spanning",
        "71 spanning",
    ];
    let got = tabulated_pass_digests();
    for ((kind, got), expected) in kinds.iter().zip(got).zip(RECORDED) {
        assert_eq!(got, expected, "{kind} digest: {got:#018x}");
    }
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
fn random_tiled_operator(n: usize, gen: &mut Gen) -> PauliOp {
    let all = (1u64 << n) - 1;
    let top = 1u64 << (n - 1);
    let mut masks: Vec<(u64, u64)> = Vec::new();
    for _ in 0..12 {
        masks.push((gen.next_u64() & all, gen.next_u64() & all));
    }
    for m in 0..4u64 {
        let high = gen.next_u64() & !3;
        masks.push((m & all, gen.next_u64() & all));
        masks.push((((high | m) & all) | top, gen.next_u64() & all));
    }
    masks.push((0, 0));
    masks.push(masks[0]);
    let mut op = PauliOp::zero(n);
    for (x, z) in masks {
        op.add_term(PauliString::from_masks(x, z, n), gen.unit());
    }
    op
}

/// The tiled `apply_into` writes the gather reference's bits, zero signs included, on
/// registers below one 4-lane chunk, inside one tile and across 2–16 tiles.
#[test]
fn apply_into_keeps_the_gather_bits() {
    let mut gen = Gen::new(0x7113_d5e7);
    for n in [1usize, 2, 3, 5, 8, 9, 10, 12] {
        for trial in 0..3 {
            let op = random_tiled_operator(n, &mut gen);
            let psi = if trial == 0 {
                dense_state(n)
            } else {
                let dim = 1usize << n;
                Statevector::from_lanes(
                    (0..dim).map(|_| gen.unit()).collect(),
                    (0..dim).map(|_| gen.unit()).collect(),
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
