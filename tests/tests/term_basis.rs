//! Property and differential tests of the cached term basis (`qop::TermBasis`) and of
//! the dense driver's single readout path built on it.
//!
//! Kernel level: random operator sets — fully shared, partly shared and disjoint string
//! sets; identity terms; duplicate strings inside an unsimplified operator; zero
//! coefficients; 1–14 qubits, so the sub-`SIGN_BLOCK` kernels and the `pivot < 2` tails
//! are crossed — must give per-string and per-operator values **bit-equal** to the
//! serial single-string reference fold, within 1e-12 of the naive scan-and-apply kernel,
//! and the same bits at {1, 2, 4} threads.
//! A table of golden bits recorded from the pre-basis kernels pins "bit-identical to
//! the single-string serial kernel" to the code that was replaced, not just to itself.
//!
//! Driver level: `evaluate` ≡ `evaluate_batch` ≡ `probe` bits for every readout stage of
//! the dense driver, cache hit ≡ miss ≡ `recover()`-then-rebuild, agreement with
//! `qsim::reference`, unchanged `qrng::total_draws` deltas — and a golden table of
//! the bits the per-driver code produced before the stages shared one pipeline.

use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qnoise::PauliNoiseModel;
use qop::{Complex64, PauliOp, PauliString, Statevector, TermBasis};
use qrng::{SeedPolicy, StreamId};
use std::sync::Mutex;
use treevqa_tests::relational::{for_cases, Gen, Tally};
use vqa::{
    Backend, EvalRequest, EvalResult, InitialState, NoisyBackend, NoisyStatevectorBackend,
    SampledBackend, StatevectorBackend,
};

/// Every test here either switches the process-global kernel thread count or compares
/// deltas of the process-global `qrng::total_draws` counter, so they all serialize.
static SERIAL: Mutex<()> = Mutex::new(());

fn set_kernel_threads(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("the vendored pool accepts reconfiguration");
}

/// 2–5 unsimplified operators drawn from a pool of strings: `sharing == 0` gives every
/// operator the whole pool (fully shared), `1` a random subset (partly shared), `2` a
/// private slice (disjoint).  Identity terms, in-operator duplicates and zero
/// coefficients are sprinkled in.
fn random_operator_set(gen: &mut Gen, n: usize, sharing: u64) -> Vec<PauliOp> {
    let num_ops = 2 + gen.below(4) as usize;
    let per_op = 1 + gen.below(7) as usize;
    let pool: Vec<PauliString> = (0..num_ops * per_op).map(|_| gen.string(n)).collect();
    (0..num_ops)
        .map(|k| {
            let mut op = PauliOp::zero(n);
            let picked: Vec<PauliString> = match sharing {
                0 => pool.clone(),
                1 => pool.iter().copied().filter(|_| gen.below(2) == 0).collect(),
                _ => pool[k * per_op..(k + 1) * per_op].to_vec(),
            };
            for s in picked {
                let coefficient = if gen.below(6) == 0 { 0.0 } else { gen.unit() };
                op.add_term(s, coefficient);
                if gen.below(5) == 0 {
                    // A duplicate string inside the unsimplified operator.
                    op.add_term(s, gen.unit());
                }
            }
            if gen.below(2) == 0 {
                op.add_term(PauliString::identity(n), gen.unit());
            }
            if op.num_terms() == 0 {
                op.add_term(gen.string(n), gen.unit());
            }
            op
        })
        .collect()
}

/// The serial reference: each term's string through the single-string kernel (identity
/// pinned to 1, like the basis), folded in term order.
fn reference_fold(op: &PauliOp, psi: &Statevector) -> (Vec<f64>, f64) {
    let terms: Vec<f64> = op
        .terms()
        .iter()
        .map(|t| {
            if t.string.is_identity() {
                1.0
            } else {
                PauliOp::string_expectation(&t.string, psi)
            }
        })
        .collect();
    let value = op
        .terms()
        .iter()
        .zip(&terms)
        .map(|(t, v)| t.coefficient * v)
        .sum();
    (terms, value)
}

/// Cases per property.
const CASES: usize = 96;

/// Runs `property` on [`CASES`] cases, case `i` on `n = 1 + i % 14` qubits with
/// `sharing = i / 14 % 3`, and asserts that every pair occurred.
fn for_sizes_and_sharings(seed: u64, mut property: impl FnMut(&mut Gen, usize, u64)) {
    let mut tally = Tally::default();
    for_cases(seed, CASES, |i, gen| {
        let (n, sharing) = (1 + i % 14, (i / 14 % 3) as u64);
        tally.add(format!("{n}q sharing {sharing}"));
        property(gen, n, sharing);
    });
    for n in 1..=14 {
        for sharing in 0..3 {
            tally.require(&format!("{n}q sharing {sharing}"), 1);
        }
    }
}

/// One fused readout ≡ the per-string serial reference, bit for bit, at one kernel
/// thread — per string, per operator term and per operator value.
#[test]
fn fused_readout_is_bit_identical_to_the_serial_reference() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_kernel_threads(1);
    for_sizes_and_sharings(0x7b01, |gen, n, sharing| {
        let ops = random_operator_set(gen, n, sharing);
        let refs: Vec<&PauliOp> = ops.iter().collect();
        let psi = gen.state(n);
        let basis = TermBasis::new(&refs);
        assert!(basis.is_basis_of(refs.iter().copied()));
        assert!(basis.num_strings() <= basis.num_terms());
        let mut values = Vec::new();
        basis.evaluate(&psi, &mut values);
        for (s, v) in basis.strings().iter().zip(&values) {
            let expected = if s.is_identity() {
                1.0
            } else {
                PauliOp::string_expectation(s, &psi)
            };
            assert_eq!(v.to_bits(), expected.to_bits(), "{n}q string {s}");
        }
        for (k, op) in ops.iter().enumerate() {
            let (terms, value) = reference_fold(op, &psi);
            let got: Vec<u64> = basis
                .op_term_values(k, &values)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = terms.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{n}q operator {k} terms");
            let got = basis.op_value(k, &values);
            assert_eq!(got.to_bits(), value.to_bits(), "{n}q operator {k}");
            if !op.terms().iter().any(|t| t.string.is_identity()) {
                // Without an identity term the general-purpose wrapper is the same fold.
                assert_eq!(op.expectation(&psi).to_bits(), value.to_bits());
            }
        }
    });
}

/// At every thread count the readout agrees with the naive scan-and-apply kernel,
/// and — one serial body per kernel — gives the same bits as at any other.
#[test]
fn fused_readout_matches_the_naive_kernel_at_any_thread_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for_sizes_and_sharings(0x7b02, |gen, n, sharing| {
        let ops = random_operator_set(gen, n, sharing);
        let refs: Vec<&PauliOp> = ops.iter().collect();
        let psi = gen.state(n);
        let basis = TermBasis::new(&refs);
        let naive: Vec<f64> = basis
            .strings()
            .iter()
            .map(|s| PauliOp::string_expectation_naive(s, &psi))
            .collect();
        let mut per_threads: Vec<Vec<f64>> = Vec::new();
        for threads in [1usize, 2, 4] {
            set_kernel_threads(threads);
            let mut values = Vec::new();
            basis.evaluate(&psi, &mut values);
            for ((s, v), expected) in basis.strings().iter().zip(&values).zip(&naive) {
                assert!(
                    (v - expected).abs() < 1e-12,
                    "{n}q x{threads} {s}: {v} vs {expected}"
                );
            }
            // Deterministic for a fixed thread count.
            let mut again = Vec::new();
            basis.evaluate(&psi, &mut again);
            assert_eq!(&values, &again);
            per_threads.push(values);
        }
        set_kernel_threads(1);
        assert_eq!(&per_threads[0], &per_threads[1]);
        assert_eq!(&per_threads[0], &per_threads[2]);
    });
}

/// The structured state the golden bits below were recorded on.
fn golden_state(n: usize) -> Statevector {
    let mut psi = Statevector::from_amplitudes(
        (0..1usize << n)
            .map(|i| {
                Complex64::new(
                    (i as f64 * 0.173).sin() + 0.25,
                    (i as f64 * 0.311).cos() - 0.1,
                )
            })
            .collect(),
    );
    psi.normalize();
    psi
}

/// `(qubits, x_mask, z_mask, bits of ⟨P⟩)` recorded at one kernel thread from the
/// single-string serial kernels (`diag_expectation_serial` / `pair_expectation_serial`)
/// at the commit before the term basis replaced them.
const GOLDEN_STRINGS: &[(usize, u64, u64, u64)] = &[
    (1, 0x0, 0x1, 0xbf923e50736db170),
    (1, 0x1, 0x0, 0x3fef6cc28a7b6087),
    (1, 0x1, 0x1, 0xbfc80d24c62ce0be),
    (2, 0x0, 0x3, 0xbf9943aee6b30570),
    (2, 0x1, 0x2, 0x3fa7c924f00068b0),
    (2, 0x3, 0x1, 0xbfc9d48dbec201dd),
    (2, 0x2, 0x3, 0x3fa633156bc1f43c),
    (5, 0x0, 0x16, 0x3f831962089edca0),
    (5, 0x1, 0x18, 0xbfb93a003a1ddb36),
    (5, 0x12, 0x7, 0x3f7c735f93916c50),
    (7, 0x0, 0x55, 0x3f7682604de53e43),
    (7, 0x40, 0x3f, 0x3f86a36187081985),
    (7, 0x3, 0x62, 0x3fb3cfd4be187472),
    (8, 0x0, 0xa5, 0xbf7264f4bb490c26),
    (8, 0x80, 0x7f, 0x3f8f29d11aa381cc),
    (8, 0x1, 0xfe, 0x3fa577a1fe77a636),
    (8, 0x36, 0xc3, 0xbf457b6a4d107ab8),
    (9, 0x0, 0x1ff, 0xbf8c3d30fd104c05),
    (9, 0x100, 0xaa, 0x3f84266b6a7e14a7),
    (9, 0x2, 0x155, 0xbfa196a18f82a368),
    (12, 0x0, 0x3, 0xbf0848a55104a000),
    (12, 0x0, 0xc00, 0xbf3941a46f675334),
    (12, 0x1, 0x0, 0x3fef100abd5bdbcf),
    (12, 0x800, 0x7ff, 0x3f871b3ebd282299),
    (12, 0xf0, 0xa5a, 0xbf4338c76fc2b640),
    (14, 0x0, 0x2001, 0xbec03feba8936380),
    (14, 0x2000, 0x1fff, 0x3f7223b377798ad7),
    (14, 0x3, 0x3ffc, 0xbf8e1cb41cf9b30b),
];

/// Bits of the pre-basis serial `PauliOp::expectation` fold of [`golden_operator`].
const GOLDEN_FOLD: u64 = 0x3fe5d42e480473b1;

/// An unsimplified 12-site TFIM-shaped operator (ZZ chain, then X field).
fn golden_operator() -> PauliOp {
    let n = 12;
    let mut op = PauliOp::zero(n);
    for q in 0..n - 1 {
        op.add_term(
            PauliString::from_masks(0, 0b11 << q, n),
            -1.0 + 0.01 * q as f64,
        );
    }
    for q in 0..n {
        op.add_term(PauliString::from_masks(1 << q, 0, n), 0.5 + 0.03 * q as f64);
    }
    op
}

/// The fused kernels reproduce the replaced single-string kernels bit for bit — alone
/// and fused into one basis with every other string of the same register.
#[test]
fn serial_values_match_the_replaced_kernels_bit_for_bit() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_kernel_threads(1);
    for &(n, x, z, bits) in GOLDEN_STRINGS {
        let psi = golden_state(n);
        let s = PauliString::from_masks(x, z, n);
        assert_eq!(
            PauliOp::string_expectation(&s, &psi).to_bits(),
            bits,
            "{n}q x={x:#x} z={z:#x} alone"
        );
    }
    let mut sizes: Vec<usize> = GOLDEN_STRINGS.iter().map(|g| g.0).collect();
    sizes.dedup();
    for n in sizes {
        let mut op = PauliOp::zero(n);
        for &(_, x, z, _) in GOLDEN_STRINGS.iter().filter(|g| g.0 == n) {
            op.add_term(PauliString::from_masks(x, z, n), 1.0);
        }
        let fused = op.term_expectations(&golden_state(n));
        let golden = GOLDEN_STRINGS.iter().filter(|g| g.0 == n);
        for (v, &(_, x, z, bits)) in fused.iter().zip(golden) {
            assert_eq!(v.to_bits(), bits, "{n}q x={x:#x} z={z:#x} fused");
        }
    }
    let op = golden_operator();
    let psi = golden_state(12);
    assert_eq!(op.expectation(&psi).to_bits(), GOLDEN_FOLD);
    let basis = TermBasis::new(&[&op]);
    let mut values = Vec::new();
    basis.evaluate(&psi, &mut values);
    assert_eq!(basis.op_value(0, &values).to_bits(), GOLDEN_FOLD);
}

/// A basis recognizes exactly the ordered operator set it was built from.
#[test]
fn a_basis_recognizes_only_its_own_operator_set() {
    let a = PauliOp::from_labels(3, &[("ZZI", -1.0), ("XII", 0.3)]);
    let b = PauliOp::from_labels(3, &[("ZZI", -0.8), ("IIY", 0.2)]);
    let basis = TermBasis::new(&[&a, &b]);
    assert!(basis.is_basis_of([&a, &b]));
    assert!(
        basis.is_basis_of([&a.clone(), &b.clone()]),
        "structural, not by address"
    );
    assert!(!basis.is_basis_of([&b, &a]), "order matters");
    assert!(!basis.is_basis_of([&a]), "a prefix is a different set");
    assert!(!basis.is_basis_of([&a, &b, &b]), "so is an extension");
    let mut scaled = b.clone();
    scaled.scale(2.0);
    assert!(!basis.is_basis_of([&a, &scaled]), "coefficients matter");
    let reordered = PauliOp::from_labels(3, &[("XII", 0.3), ("ZZI", -1.0)]);
    assert!(!basis.is_basis_of([&reordered, &b]), "term order matters");
    assert!(
        !basis.is_basis_of([&a.extended(4), &b.extended(4)]),
        "register size matters"
    );
}

/// `count` distinct strings, the `k`-th drawn by `draw(k)`; a repeat is drawn again.
fn distinct_strings(count: usize, mut draw: impl FnMut(usize) -> PauliString) -> Vec<PauliString> {
    let mut strings: Vec<PauliString> = Vec::with_capacity(count);
    while strings.len() < count {
        let s = draw(strings.len());
        if !s.is_identity() && !strings.contains(&s) {
            strings.push(s);
        }
    }
    strings
}

/// The readout folds up to four strings' chains side by side in one pass over the
/// register.  Every pass shape — each remainder of the pass width, diagonal passes,
/// single- and multi-string off-diagonal groups at pivots 0, 1, 2, 3, 8 and n − 1 with
/// every lane permutation, Y strings' complex `i^{n_Y}` — must give each string the
/// bits of its own single-string basis (`PauliOp::string_expectation`, which
/// `GOLDEN_STRINGS` pins to the pre-basis kernels).
#[test]
fn every_interleave_shape_matches_the_single_string_readout() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_kernel_threads(1);
    let mut gen = Gen::new(0x5eed_1e4e);
    for n in [8usize, 9, 12, 14] {
        let mask = (1u64 << n) - 1;
        // (On 8 qubits pivot 8 is off the register: n − 1 = 7 stands in for it.)
        let pivots = [0, 1, 2, 3, 8.min(n - 1), n - 1];
        // An X mask with the given pivot and random bits below it.
        let x_at =
            |gen: &mut Gen, pivot: usize| (1u64 << pivot) | (gen.next_u64() & ((1 << pivot) - 1));
        let mut sets: Vec<(String, Vec<PauliString>)> = Vec::new();
        for count in 1..=9usize {
            let diagonal = distinct_strings(count, |_| {
                PauliString::from_masks(0, gen.next_u64() & mask, n)
            });
            sets.push((format!("{count} diagonal"), diagonal));
            // Mostly one string per X mask: single-string groups at every pivot with
            // mixed lane permutations (pivots 0 and 1 have only three masks between
            // them and run as the scalar-chain pass).
            let singles = distinct_strings(count, |k| {
                let x = x_at(&mut gen, pivots[k % pivots.len()]);
                PauliString::from_masks(x, gen.next_u64() & mask, n)
            });
            sets.push((format!("{count} single-string groups"), singles));
            // `count` groups of 1, 2, 3 or 5 strings each, every group with a Y.
            let mut groups = Vec::new();
            for g in 0..count {
                let x = x_at(&mut gen, pivots[(g + count) % pivots.len()]);
                let size = [1, 2, 3, 5][g % 4];
                let group = distinct_strings(size, |k| {
                    // The first string has a Y on the pivot: i^{n_Y} is complex or −1.
                    let y = if k == 0 {
                        1 << (63 - x.leading_zeros())
                    } else {
                        0
                    };
                    PauliString::from_masks(x, (gen.next_u64() & mask) | y, n)
                });
                for s in group {
                    if !groups.contains(&s) {
                        groups.push(s);
                    }
                }
            }
            sets.push((format!("{count} mixed groups"), groups));
        }
        // Everything in one basis, as a padded cluster's operator set would be.
        let all: Vec<PauliString> = sets.iter().flat_map(|(_, set)| set.clone()).collect();
        sets.push(("every set at once".into(), all));
        let psi = gen.state(n);
        for (name, strings) in &sets {
            let mut op = PauliOp::zero(n);
            for (k, s) in strings.iter().enumerate() {
                op.add_term(*s, 0.1 + 0.01 * k as f64);
            }
            let basis = TermBasis::new(&[&op]);
            let mut values = Vec::new();
            basis.evaluate(&psi, &mut values);
            for (s, v) in basis.strings().iter().zip(&values) {
                assert_eq!(
                    v.to_bits(),
                    PauliOp::string_expectation(s, &psi).to_bits(),
                    "{n}q, {name}: {s}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver level.
// ---------------------------------------------------------------------------

fn hea(num_qubits: usize) -> Circuit {
    HardwareEfficientAnsatz::new(num_qubits, 2, Entanglement::Circular).build()
}

fn params_for(circuit: &Circuit, k: usize) -> Vec<f64> {
    (0..circuit.num_parameters())
        .map(|p| 0.05 * p as f64 + 0.017 * k as f64)
        .collect()
}

/// A TFIM family with an identity offset: shared strings, different coefficients.
fn tfim_family(num_qubits: usize, members: usize) -> Vec<PauliOp> {
    (0..members)
        .map(|k| {
            let mut op = qchem::transverse_field_ising(num_qubits, 1.0, 0.5 + 0.2 * k as f64);
            op.add_term(PauliString::identity(num_qubits), -0.25 * k as f64);
            op
        })
        .collect()
}

type BackendFactory = Box<dyn Fn() -> Box<dyn Backend>>;

/// The dense driver's four readout stages (the trajectory stage with and without shot
/// sampling), identically configured per call.
fn dense_backends() -> Vec<(&'static str, BackendFactory)> {
    let device = PauliNoiseModel::by_name("mumbai").expect("synthetic backend");
    let trajectory = PauliNoiseModel::ibm_like("term-basis", 0.02, 0.05, 0.01, 0.01);
    let plain = trajectory.clone();
    vec![
        (
            "statevector",
            Box::new(|| Box::new(StatevectorBackend::with_shots(64)) as Box<dyn Backend>),
        ),
        (
            "sampled",
            Box::new(|| {
                Box::new(SampledBackend::with_policy(256, SeedPolicy::new(42))) as Box<dyn Backend>
            }),
        ),
        (
            "noisy",
            Box::new(move || {
                Box::new(NoisyBackend::with_policy(
                    device.clone(),
                    256,
                    SeedPolicy::new(42),
                )) as Box<dyn Backend>
            }),
        ),
        (
            "noisy-trajectory",
            Box::new(move || {
                Box::new(
                    NoisyStatevectorBackend::with_policy(
                        trajectory.clone(),
                        50,
                        SeedPolicy::new(3),
                    )
                    .with_trajectories(3)
                    .with_shot_sampling(),
                ) as Box<dyn Backend>
            }),
        ),
        (
            "noisy-trajectory-plain",
            Box::new(move || {
                Box::new(
                    NoisyStatevectorBackend::with_policy(plain.clone(), 50, SeedPolicy::new(3))
                        .with_trajectories(4),
                ) as Box<dyn Backend>
            }),
        ),
    ]
}

fn bits(r: &EvalResult) -> (u64, Vec<u64>, u64) {
    (
        r.charged.to_bits(),
        r.free.iter().map(|v| v.to_bits()).collect(),
        r.shots,
    )
}

/// One word per result list: every charged bit, free bit and shot count, folded with
/// `qrng::mix` (which is not a draw).
fn digest(results: &[EvalResult]) -> u64 {
    results.iter().fold(0, |h, r| {
        let h = qrng::mix(h, r.charged.to_bits());
        let h = r.free.iter().fold(h, |h, v| qrng::mix(h, v.to_bits()));
        qrng::mix(h, r.shots)
    })
}

/// `(digest, qrng draws)` of each of the four entry points a driver's bits are pinned on.
type Golden = [(u64, u64); 4];

/// The [`Golden`] of one driver, each entry point on a fresh backend: `evaluate`; a
/// uniform `evaluate_batch` of 5 with pinned and unpinned streams mixed; a mixed-circuit
/// batch (runs of 2, 1, 1 and 2 requests, streams mixed likewise); `probe`.
fn golden_scenarios(
    make: &BackendFactory,
    circuit: &Circuit,
    sets: &[(&PauliOp, &[&PauliOp]); 3],
) -> Golden {
    let other = HardwareEfficientAnsatz::new(circuit.num_qubits(), 1, Entanglement::Linear).build();
    let initial = InitialState::Basis(1);
    let params: Vec<Vec<f64>> = (0..6)
        .flat_map(|k| [params_for(circuit, k), params_for(&other, k)])
        .collect();
    let request = |k: usize, use_other: bool| {
        let (charged_op, free_ops) = sets[k % sets.len()];
        EvalRequest {
            circuit: if use_other { &other } else { circuit },
            params: &params[2 * k + use_other as usize],
            initial: &initial,
            charged_op,
            free_ops,
            stream: (k % 3 != 1).then(|| StreamId::for_job(40 + k as u64)),
        }
    };
    let uniform: Vec<EvalRequest<'_>> = (0..5).map(|k| request(k, false)).collect();
    let mixed: Vec<EvalRequest<'_>> = [false, false, true, false, true, true]
        .into_iter()
        .enumerate()
        .map(|(k, use_other)| request(k, use_other))
        .collect();
    let measured = |run: &dyn Fn(&mut dyn Backend) -> Vec<EvalResult>| {
        let mut backend = make();
        let before = qrng::total_draws();
        let results = run(backend.as_mut());
        (digest(&results), qrng::total_draws() - before)
    };
    [
        measured(&|backend| {
            let (charged_op, free_ops) = sets[0];
            let (charged, free) =
                backend.evaluate(circuit, &params[0], &initial, charged_op, free_ops);
            let shots = backend.shots_used();
            vec![EvalResult {
                charged,
                free,
                shots,
            }]
        }),
        measured(&|backend| backend.evaluate_batch(&uniform)),
        measured(&|backend| backend.evaluate_batch(&mixed)),
        measured(&|backend| {
            let charged = backend.probe(&other, &params[3], &initial, sets[2].0);
            vec![EvalResult {
                charged,
                free: Vec::new(),
                shots: backend.shots_used(),
            }]
        }),
    ]
}

/// [`golden_scenarios`] of every [`dense_backends`] entry at 3 and 9 qubits, recorded
/// at one kernel thread on commit `4e84870` — the last one with a driver struct, an
/// `impl Backend` and a batch body per entry.  The single dense driver that replaced
/// them must not move a bit, a shot or a draw.  The result digests of the two `noisy`
/// rows (not their draws or probes) were re-recorded when the attenuating stage began
/// reading `qnoise::PauliNoiseModel`: its per-gate factors are the channels' closed forms.
/// The 12-qubit rows were recorded on commit `66a25be` (debug and release agree), before
/// CX runs became one gather: `hea(12)` carries two 12-CX rings, and its trajectory rows
/// replay insertions inside and right after them.
#[rustfmt::skip]
const GOLDEN_DRIVERS: &[(&str, usize, Golden)] = &[
    ("statevector", 3, [(0x3cd3d2b386e73239, 0), (0x7605d435e47d9f5f, 0), (0x7c0fb993dc6b91a5, 0), (0x4f3ffbf9cf1dc253, 0)]),
    ("sampled", 3, [(0x7460fc5596d692f8, 10), (0x9493c4ba97f522a4, 50), (0xda9c889f6c3d1d81, 60), (0x4f3ffbf9cf1dc253, 0)]),
    ("noisy", 3, [(0xb708e4591f9729d1, 10), (0xb3f2d4f1374d35d6, 50), (0x3328005d7751cbe1, 60), (0x4f3ffbf9cf1dc253, 0)]),
    ("noisy-trajectory", 3, [(0xb89b2d15fec19730, 172), (0xd45682e70a146281, 863), (0x7fa4b7df6f5a1897, 817), (0x4f3ffbf9cf1dc253, 0)]),
    ("noisy-trajectory-plain", 3, [(0x6384a15aa606f5db, 216), (0x45b0e42020d825d7, 1083), (0x757426c1f2421a1d, 1009), (0x4f3ffbf9cf1dc253, 0)]),
    ("statevector", 9, [(0x933de8b7dda8cf0c, 0), (0xa501a9a490d09a8d, 0), (0xaa4b4165b9d4ac50, 0), (0xa5bcf0e9f3c52cc6, 0)]),
    ("sampled", 9, [(0x1fcba2349c6ff9d8, 34), (0xb08580963ad2b8bc, 170), (0xe863e0b7bc867923, 204), (0xa5bcf0e9f3c52cc6, 0)]),
    ("noisy", 9, [(0x9f55837aa010cfdb, 34), (0x74373ac87f44c4b4, 170), (0x7f362d9b5c972e10, 204), (0xa5bcf0e9f3c52cc6, 0)]),
    ("noisy-trajectory", 9, [(0x68510f904bb7fb6c, 522), (0x9afe3cabc1ad8bc4, 2614), (0xf97ae0b9c750aaab, 2540), (0xa5bcf0e9f3c52cc6, 0)]),
    ("noisy-trajectory-plain", 9, [(0x04f3e5e42f37a3e8, 650), (0x46af424bd0757c4b, 3260), (0x7e4583e22e6f668d, 3115), (0xa5bcf0e9f3c52cc6, 0)]),
    ("statevector", 12, [(0x2734aacf3cdee167, 0), (0xa8894b3060c4425d, 0), (0xf5ad14860abd04f7, 0), (0x6db2051d64604959, 0)]),
    ("sampled", 12, [(0xd03464876cc81ce7, 46), (0x9190b384450ba474, 230), (0x6cbfe6aee7ad871d, 276), (0x6db2051d64604959, 0)]),
    ("noisy", 12, [(0xb9575d7bc6d9e940, 46), (0xe5f65424ca7ecb00, 230), (0x11bb4e4e9ad909d9, 276), (0x6db2051d64604959, 0)]),
    ("noisy-trajectory", 12, [(0x245a6e76a11e6c14, 697), (0xf1c8839fdc5124d5, 3486), (0x29b4dd317c1ed92c, 3396), (0x6db2051d64604959, 0)]),
    ("noisy-trajectory-plain", 12, [(0x861c4d920e042351, 867), (0x479153d018ca8fae, 4343), (0x00295e40af02e798, 4162), (0x6db2051d64604959, 0)]),
];

/// For every dense backend and register size on both sides of `SIGN_BLOCK` and of the CX
/// gather floor: a stream-pinned request gives the same bits through `evaluate_batch` of
/// one, inside batches of mixed operator sets, on a cache hit, after LRU eviction and
/// after `recover()`; `evaluate` matches its own batch form; probes agree across
/// backends and with the exact charged value; and none of it changes how many draws are
/// made.
#[test]
fn drivers_agree_across_entry_points_cache_states_and_recovery() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_kernel_threads(1);
    for num_qubits in [3usize, 9, 12] {
        let circuit = hea(num_qubits);
        let family = tfim_family(num_qubits, 4);
        let free: Vec<&PauliOp> = family[1..].iter().collect();
        let initial = InitialState::Basis(0);
        // Requests alternate between three operator sets so a batch holds several
        // runs: [mixed + members], [one member alone], [another member + one free].
        let sets: [(&PauliOp, &[&PauliOp]); 3] = [
            (&family[0], &free),
            (&family[1], &[]),
            (&family[2], &free[..1]),
        ];
        let candidates: Vec<Vec<f64>> = (0..7).map(|k| params_for(&circuit, k)).collect();
        let request = |k: usize| {
            let (charged_op, free_ops) = sets[(k / 2) % sets.len()];
            EvalRequest {
                circuit: &circuit,
                params: &candidates[k],
                initial: &initial,
                charged_op,
                free_ops,
                stream: Some(StreamId::named(&format!("term-basis-{k}"))),
            }
        };
        let batch: Vec<EvalRequest<'_>> = (0..candidates.len()).map(request).collect();

        let mut exact_probe = StatevectorBackend::with_shots(0);
        for (name, make) in dense_backends() {
            // Each request alone, on a fresh backend: the reference bits and draws.
            let mut alone = Vec::new();
            let mut alone_draws = Vec::new();
            for req in &batch {
                let before = qrng::total_draws();
                let result = make().evaluate_batch(std::slice::from_ref(req)).remove(0);
                alone_draws.push(qrng::total_draws() - before);
                alone.push(bits(&result));
            }
            // The whole mixed batch at once (cache misses), again (hits), after the
            // LRU has been thrashed by other operator sets, and after recover().
            let mut backend = make();
            let before = qrng::total_draws();
            let cold: Vec<_> = backend.evaluate_batch(&batch).iter().map(bits).collect();
            let batch_draws = qrng::total_draws() - before;
            assert_eq!(cold, alone, "{name} {num_qubits}q: batch vs alone");
            assert_eq!(
                batch_draws,
                alone_draws.iter().sum::<u64>(),
                "{name}: draw count"
            );
            let warm: Vec<_> = backend.evaluate_batch(&batch).iter().map(bits).collect();
            assert_eq!(warm, alone, "{name} {num_qubits}q: cache hit");
            for k in 0..2 * vqa::circuit_cache_capacity() {
                let mut other = family[0].clone();
                other.scale(1.0 + k as f64);
                backend.probe(&circuit, &candidates[0], &initial, &other);
            }
            let evicted: Vec<_> = backend.evaluate_batch(&batch).iter().map(bits).collect();
            assert_eq!(evicted, alone, "{name} {num_qubits}q: after eviction");
            backend.recover();
            let rebuilt: Vec<_> = backend.evaluate_batch(&batch).iter().map(bits).collect();
            assert_eq!(rebuilt, alone, "{name} {num_qubits}q: after recover()");

            // `evaluate` (stream-less: the instance's evaluation-order stream) matches
            // a stream-less batch of one on an identically seeded twin.
            let (charged_op, free_ops) = sets[0];
            let (charged, free_values) =
                make().evaluate(&circuit, &candidates[0], &initial, charged_op, free_ops);
            let twin = make()
                .evaluate_batch(&[EvalRequest {
                    stream: None,
                    ..request(0)
                }])
                .remove(0);
            assert_eq!(
                charged.to_bits(),
                twin.charged.to_bits(),
                "{name}: evaluate"
            );
            assert_eq!(
                free_values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                bits(&twin).1,
                "{name}: evaluate free"
            );

            // Probes report the ideal value: identical across backends.
            let probe = backend.probe(&circuit, &candidates[1], &initial, &family[3]);
            let ideal = exact_probe.probe(&circuit, &candidates[1], &initial, &family[3]);
            assert_eq!(
                probe.to_bits(),
                ideal.to_bits(),
                "{name} {num_qubits}q: probe"
            );

            // And the bits themselves are the ones the per-driver code produced.
            let golden = GOLDEN_DRIVERS
                .iter()
                .find(|(n, q, _)| (*n, *q) == (name, num_qubits))
                .map(|g| g.2);
            assert_eq!(
                Some(golden_scenarios(&make, &circuit, &sets)),
                golden,
                "{name} {num_qubits}q: [evaluate, uniform batch, mixed-circuit batch, probe] \
                 as (digest, draws)"
            );
        }

        // Exact backend: probe ≡ evaluate's charged ≡ any free slot of the same
        // operator, and all of it agrees with the naive reference simulator.
        let mut exact = StatevectorBackend::with_shots(0);
        let (charged, free_values) =
            exact.evaluate(&circuit, &candidates[2], &initial, &family[1], &free);
        let probe = exact.probe(&circuit, &candidates[2], &initial, &family[1]);
        assert_eq!(probe.to_bits(), charged.to_bits());
        assert_eq!(
            free_values[0].to_bits(),
            charged.to_bits(),
            "free[0] is family[1] too"
        );
        let state =
            qsim::reference::run_circuit(&circuit, &candidates[2], &initial.prepare(num_qubits));
        for (value, op) in std::iter::once(&charged)
            .chain(&free_values)
            .zip(std::iter::once(&family[1]).chain(family[1..].iter()))
        {
            let naive: f64 = op
                .terms()
                .iter()
                .map(|t| t.coefficient * PauliOp::string_expectation_naive(&t.string, &state))
                .sum();
            assert!(
                (value - naive).abs() < 1e-10,
                "{value} vs reference {naive}"
            );
        }
    }
}

/// The sampled drivers draw exactly two uniforms per non-identity charged term, in
/// term order, whatever the free operators are — the basis changes which strings are
/// evaluated, never which draws are made.
#[test]
fn shot_sampling_draws_depend_only_on_the_charged_operator() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_kernel_threads(1);
    let circuit = hea(4);
    let family = tfim_family(4, 3);
    let free: Vec<&PauliOp> = family[1..].iter().collect();
    let params = params_for(&circuit, 0);
    let initial = InitialState::Basis(0);
    let charged = &family[1];
    let sampled_terms = charged
        .terms()
        .iter()
        .filter(|t| !t.string.is_identity())
        .count() as u64;
    let mut values = Vec::new();
    for free_ops in [&[][..], &free[..]] {
        let mut backend = SampledBackend::with_policy(512, SeedPolicy::new(9));
        let before = qrng::total_draws();
        let result = backend
            .evaluate_batch(&[EvalRequest {
                circuit: &circuit,
                params: &params,
                initial: &initial,
                charged_op: charged,
                free_ops,
                stream: Some(StreamId::named("draws")),
            }])
            .remove(0);
        assert_eq!(qrng::total_draws() - before, 2 * sampled_terms);
        values.push(result.charged.to_bits());
    }
    assert_eq!(
        values[0], values[1],
        "free operators do not perturb the charged draw"
    );
}

/// With observability on, the observable cache and the dedup tallies move on their own
/// counters and leave the circuit-cache tallies meaning what they meant.
#[test]
fn observable_tallies_are_separate_from_circuit_cache_tallies() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let circuit = hea(3);
    let family = tfim_family(3, 3);
    let free: Vec<&PauliOp> = family[1..].iter().collect();
    let params = params_for(&circuit, 0);
    let initial = InitialState::Basis(0);
    let mut backend = StatevectorBackend::with_shots(0);
    let requests: Vec<EvalRequest<'_>> = (0..4)
        .map(|_| EvalRequest {
            circuit: &circuit,
            params: &params,
            initial: &initial,
            charged_op: &family[0],
            free_ops: &free,
            stream: None,
        })
        .collect();

    // Off: nothing is recorded.
    let was_enabled = qexec::qobs::enabled();
    qexec::qobs::set_enabled(false);
    let (obs0, dedup0, circ0) = (
        vqa::observable_cache_stats(),
        vqa::observable_dedup_stats(),
        vqa::circuit_cache_stats(),
    );
    backend.evaluate_batch(&requests);
    assert_eq!(vqa::observable_cache_stats(), obs0);
    assert_eq!(vqa::observable_dedup_stats(), dedup0);
    assert_eq!(vqa::circuit_cache_stats(), circ0);

    // On: one observable lookup for the uniform batch (a hit: the set is cached), one
    // circuit lookup, and per readout 3 operators' terms requested vs the distinct
    // strings evaluated.
    qexec::qobs::set_enabled(true);
    backend.evaluate_batch(&requests);
    qexec::qobs::set_enabled(was_enabled);
    let basis = TermBasis::new(&[&family[0], &family[1], &family[2]]);
    let (obs1, dedup1, circ1) = (
        vqa::observable_cache_stats(),
        vqa::observable_dedup_stats(),
        vqa::circuit_cache_stats(),
    );
    assert_eq!((obs1.0 - obs0.0, obs1.1 - obs0.1), (1, 0));
    assert_eq!((circ1.0 - circ0.0, circ1.1 - circ0.1), (1, 0));
    assert_eq!(dedup1.0 - dedup0.0, 4 * basis.num_terms() as u64);
    assert_eq!(dedup1.1 - dedup0.1, 4 * basis.num_strings() as u64);
    assert!(basis.num_strings() * 3 <= basis.num_terms() + 3);
}
