//! Dense statevector circuit simulator.
//!
//! This plays the role of Qiskit Aer's `StatevectorSimulator` in the paper's evaluation:
//! it executes a parameterized [`Circuit`] exactly (no shot noise) and returns the final
//! [`Statevector`].  Shot noise and hardware noise are layered on top by the estimator and
//! noise modules.
//!
//! # Kernel design
//!
//! Gate application is the hot path of every VQA optimization loop, so the kernels avoid
//! the classic costs of a naive statevector simulator:
//!
//! * **No data-dependent branches.**  A 2×2 gate on qubit `q` updates the amplitude pairs
//!   `(i0, i0 | 1<<q)`.  Instead of scanning all `2^n` indices and testing `i & bit == 0`,
//!   the kernels enumerate exactly the `2^(n-1)` pair indices with a two-level
//!   `(block, offset)` bit-insertion walk — half the iterations, and the inner loop is
//!   pure arithmetic.  Controlled gates enumerate only the quarter of indices with the
//!   control bit set.
//! * **No allocation.**  Pauli rotations `exp(-iθ/2 P)` exploit that a Pauli string acts
//!   on the computational basis as the involution `b ↔ b ^ x_mask`: each `(b, b')` pair is
//!   rotated in place by a 2×2 update, instead of cloning the full state per gate.
//!   The same holds for a whole compiled circuit: [`crate::CompiledCircuit`] executes in
//!   place on a caller-owned state, which is how the `vqa` dense driver keeps optimizer
//!   inner loops allocation-free.
//! * **Split re/im lanes (SoA).**  The statevector stores real and imaginary parts in
//!   separate `f64` arrays (see [`Statevector`]), and every serial kernel walks them in
//!   explicitly 4-wide-chunked inner loops with scalar tails.  Pauli phases are factored
//!   into a hoisted `i^num_y` constant times a `(−1)^popcount` sign served by a
//!   [`qop::lanes::SignTable`], and the `b ↔ b ^ x_mask` partner access inside an aligned
//!   4-chunk is a constant lane shuffle — so the butterfly updates are contiguous
//!   homogeneous FMA streams the compiler autovectorizes (AVX2 via the pinned
//!   `target-cpu`), instead of interleaved complex shuffles that defeat it.
//! * **Full width on the low qubits too.**  A pair whose two halves sit inside one
//!   4-lane chunk (qubits 0 and 1, an X mask below 4) or one 8-lane window (CX/CZ with
//!   `min(control, target) < 3`) would leave the generic walk one- and two-element
//!   half-blocks; those kernels get bodies that update whole chunks or windows with
//!   constant lane shuffles, evaluating each amplitude with the same expression, in the
//!   same order, as the per-pair form — the same bits, pinned by recorded digests in
//!   `tests/tests/kernel_equivalence.rs`.  Single-qubit gates on qubits 0–3 run
//!   AVX-intrinsic bodies (the `avx` module): qubits 0 and 1 combine each lane with its
//!   partner read by one constant shuffle, qubits 2 and 3 pair whole vectors of fixed
//!   8- and 16-lane windows (other targets keep the autovectorized per-chunk body,
//!   `single_qubit_in_chunk`, on qubits 0 and 1); the relational row `full-width 1q
//!   bodies ≡ former bodies` holds them to the bodies they replaced.  On qubits ≥ 4 a 1q
//!   pass is bound by the FP ports, not by memory: at 12 qubits, 2 048 pairs × 28 vector
//!   FP ops ÷ 4 lanes ÷ 2 ports ≈ 7.2k cycles, about 2 µs on the 2-vCPU reference host,
//!   and qubits 0–3 now run within ≈ 15 % of that.  Fusing 1q chains into 4×4 two-qubit
//!   ops would add arithmetic rather than remove passes; the waste was in the low-qubit
//!   bodies and in the leading product layer
//!   ([`crate::CompiledCircuit::execute_from_basis`]).
//! * **Structured bodies: no arithmetic on entries that are zero.**  The generic body
//!   spends 28 vector FP ops per four pairs on any 2×2 matrix.  Each call reads the
//!   bound matrix's zero pattern once and picks one of two shapes: **Rx-shaped** (real
//!   diagonal, imaginary off-diagonal: a lone Rx, or Y), whose outputs are
//!   `r0 = m00r·x0 + (−m01i)·y1`, `i0 = m00r·y0 + m01i·x1` and the same on the
//!   pair-set side, and **generic** for everything else.  The Rx body keeps the
//!   generic body's products and drops only its `0·v` terms: 12 FP ops per four pairs.
//!   A lone Rx is the QAOA mixer's gate.  There is no real-matrix body: the HEA
//!   circuits fuse Ry·Rz into generic matrices and H runs in the product prefix, so no
//!   workload runs a lone real rotation on a complex state.  The Rx body cannot move a
//!   bit except the sign of an exact zero output: `t − (±0)` and `t + (±0)` are `t`
//!   for any nonzero `t`, so every output whose surviving terms do not both vanish is
//!   the generic output, and `a − a` is `+0` in both.  Only an output that is zero may
//!   take another sign (`−0 + −0` against `−0 + +0`).  So the Rx body multiplies its
//!   four output vectors together, lane by lane (three multiplies and a compare), and
//!   when a lane of that product is zero — every zero output makes it zero; products
//!   of tiny amplitudes that underflow do too, which costs speed, never bits — it
//!   hands those four pairs and the rest of its call to the generic form.  A dense
//!   state almost never triggers it; a zero-rich one (a basis state's neighbourhood)
//!   runs at the generic speed.  The relational row `structured 1q bodies ≡ generic
//!   body` holds all this as `Bits` from dense and basis states at the angles that
//!   zero entries (0, ±π, 2π).  Amplitudes are finite: with an infinite input the
//!   generic body's `0·∞` is a NaN the Rx body never forms.  Only AVX builds have the
//!   Rx body; other targets run every matrix through the generic one.  At 14 qubits a
//!   lone Rx pass took 0.71–0.87× the generic body's time on each of qubits 0–4, 6, 10
//!   and 13 (medians of interleaved samples in an A/B binary, 2-vCPU host); the
//!   product prefix always runs the generic form, since it doubles out of zero copies.
//! * **One body per kernel, no threads.**  Every kernel here is a single serial,
//!   vectorized pass over its state.  The stack's parallelism is *across* states —
//!   [`qop::par::map_states`] hands whole executions (prepare → ops → readout) to the
//!   threads — so a kernel's result is the same bits at any thread count.  Splitting one
//!   kernel's index range over threads is deliberately absent: measured at 2^14–2^22
//!   amplitudes on 2 threads it lost to this serial body in every gate kernel (ROADMAP.md
//!   records the bar a within-state path must clear).
//!
//! The original straightforward kernels are retained in [`reference`] on **interleaved**
//! `Complex64` storage (converting at entry/exit), so the relational equivalence harness
//! (`tests/src/relational.rs`) pins the split-lane kernels against a genuinely
//! independent layout.

use qcircuit::{Circuit, Gate};
use qop::lanes::{i_power, parity_sign, SignTable, LANES, SIGN_BLOCK};
use qop::with_lane_perm;
use qop::{Complex64, PauliString, Statevector};

// The stack's one parallel knob (`QSIM_PAR_THRESHOLD`: amplitudes in a chunk of states
// before `qop::par::map_states` spreads it over the threads), re-exported for callers
// that reach the simulation stack through this crate.
pub use qop::parallel_threshold;

/// Executes `circuit` with bound parameter values `params`, starting from `initial`.
///
/// A one-shot convenience: it compiles the circuit through [`crate::CompiledCircuit`]
/// (the one executor) and executes the fused form on a copy of `initial`.  Hot loops
/// that bind many parameter vectors to the *same* circuit should compile once and call
/// [`crate::CompiledCircuit::execute_in_place`]/[`execute_into`](crate::CompiledCircuit::execute_into)
/// directly (the `vqa` dense driver does this through a compiled-circuit cache).
///
/// # Examples
///
/// ```
/// use qcircuit::{Circuit, Gate};
/// use qop::Statevector;
/// use qsim::run_circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::H(0));
/// bell.push(Gate::Cx(0, 1));
/// let out = run_circuit(&bell, &[], &Statevector::zero_state(2));
/// assert!((out.probability(0b00) - 0.5).abs() < 1e-12);
/// assert!((out.probability(0b11) - 0.5).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the circuit and state register sizes differ, or if a parameterized gate
/// references an index beyond `params.len()`.
pub fn run_circuit(circuit: &Circuit, params: &[f64], initial: &Statevector) -> Statevector {
    assert_eq!(
        circuit.num_qubits(),
        initial.num_qubits(),
        "circuit acts on {} qubits but the state has {}",
        circuit.num_qubits(),
        initial.num_qubits()
    );
    let mut state = initial.clone();
    crate::CompiledCircuit::compile(circuit).execute_in_place(params, &mut state);
    state
}

/// Applies a single gate in place.
pub fn apply_gate(state: &mut Statevector, gate: &Gate, params: &[f64]) {
    match gate {
        Gate::H(q) => apply_single_qubit(state, *q, &H_MATRIX),
        Gate::X(q) => apply_single_qubit(state, *q, &X_MATRIX),
        Gate::Y(q) => apply_single_qubit(state, *q, &Y_MATRIX),
        Gate::Z(q) => apply_single_qubit(state, *q, &Z_MATRIX),
        Gate::S(q) => apply_single_qubit(state, *q, &S_MATRIX),
        Gate::Sdg(q) => apply_single_qubit(state, *q, &SDG_MATRIX),
        Gate::Cx(c, t) => apply_cx(state, *c, *t),
        Gate::Cz(c, t) => apply_cz(state, *c, *t),
        Gate::Rx(q, a) => {
            let theta = a.resolve(params);
            apply_single_qubit(state, *q, &rx_matrix(theta));
        }
        Gate::Ry(q, a) => {
            let theta = a.resolve(params);
            apply_single_qubit(state, *q, &ry_matrix(theta));
        }
        Gate::Rz(q, a) => {
            let theta = a.resolve(params);
            apply_single_qubit(state, *q, &rz_matrix(theta));
        }
        Gate::PauliRotation(string, a) => {
            let theta = a.resolve(params);
            apply_pauli_rotation(state, string, theta);
        }
    }
}

/// A dense 2×2 complex matrix (row-major), the single-qubit-gate representation.
pub type Matrix2 = [[Complex64; 2]; 2];

const fn c(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

static H_MATRIX: Matrix2 = [
    [c(FRAC_1_SQRT_2, 0.0), c(FRAC_1_SQRT_2, 0.0)],
    [c(FRAC_1_SQRT_2, 0.0), c(-FRAC_1_SQRT_2, 0.0)],
];
static X_MATRIX: Matrix2 = [[c(0.0, 0.0), c(1.0, 0.0)], [c(1.0, 0.0), c(0.0, 0.0)]];
static Y_MATRIX: Matrix2 = [[c(0.0, 0.0), c(0.0, -1.0)], [c(0.0, 1.0), c(0.0, 0.0)]];
static Z_MATRIX: Matrix2 = [[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(-1.0, 0.0)]];
static S_MATRIX: Matrix2 = [[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(0.0, 1.0)]];
static SDG_MATRIX: Matrix2 = [[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(0.0, -1.0)]];

/// `RX(θ) = exp(-i θ/2 X)`.
pub fn rx_matrix(theta: f64) -> Matrix2 {
    let (s, co) = (theta / 2.0).sin_cos();
    [[c(co, 0.0), c(0.0, -s)], [c(0.0, -s), c(co, 0.0)]]
}

/// `RY(θ) = exp(-i θ/2 Y)`.
pub fn ry_matrix(theta: f64) -> Matrix2 {
    let (s, co) = (theta / 2.0).sin_cos();
    [[c(co, 0.0), c(-s, 0.0)], [c(s, 0.0), c(co, 0.0)]]
}

/// `RZ(θ) = exp(-i θ/2 Z)`.
pub fn rz_matrix(theta: f64) -> Matrix2 {
    let (s, co) = (theta / 2.0).sin_cos();
    [[c(co, -s), c(0.0, 0.0)], [c(0.0, 0.0), c(co, s)]]
}

/// Inserts a zero bit at position `pos`: maps `k`'s bits `[pos..]` up by one, leaving bit
/// `pos` clear.  Enumerating `k = 0..dim/2` through this map yields exactly the indices
/// with bit `pos` clear, in increasing order.
#[inline(always)]
fn insert_zero_bit(k: usize, pos: usize) -> usize {
    let low_mask = (1usize << pos) - 1;
    ((k & !low_mask) << 1) | (k & low_mask)
}

/// Applies an arbitrary 2×2 unitary to qubit `q`.
///
/// Branch-free two-level walk: the outer level ranges over blocks of `2^(q+1)` contiguous
/// amplitudes, the inner level over the `2^q` offsets inside a block; `i0 = block + off`
/// and `i1 = i0 | bit` form the update pair directly, so no index test is ever executed.
/// The inner loop runs 4 lanes at a time over the split re/im arrays — eight scalar
/// matrix constants against four contiguous f64 streams, which vectorizes to straight
/// FMA code.  The gate is a run of one op ([`apply_single_qubit_run`]), the one path
/// every single-qubit op of the stack takes.
pub fn apply_single_qubit(state: &mut Statevector, q: usize, m: &Matrix2) {
    apply_single_qubit_run(state, &[(q, lane_matrix(m))]);
}

/// A bound single-qubit op as the lane bodies read it: its qubit, and its matrix
/// flattened by [`lane_matrix`].
pub(crate) type LaneOp = (usize, [f64; 8]);

/// Applies the single-qubit ops of `run` in order.  When every op's qubit is below
/// [`crate::TILE_QUBITS`], the state is walked in tiles of `2^TILE_QUBITS` amplitudes
/// and the whole run is applied to one tile before the next: every pair such an op
/// updates lies inside one tile, so each amplitude sees the same ops, in the same
/// order, on the same inputs as under one full pass per op — the same bits — while the
/// tile stays in L1 across the run (see the compiled-circuit docs for the measurement).
/// Otherwise each op is one pass over the whole state.
pub(crate) fn apply_single_qubit_run(state: &mut Statevector, run: &[LaneOp]) {
    let dim = state.dim();
    for &(q, _) in run {
        assert!(
            q < usize::BITS as usize && 1usize << q < dim,
            "qubit index {q} out of range for {dim} amplitudes"
        );
    }
    let tiled = run.iter().all(|&(q, _)| q < crate::TILE_QUBITS);
    let tile = if tiled {
        dim.min(1 << crate::TILE_QUBITS)
    } else {
        dim
    };
    let (re, im) = state.lanes_mut();
    for (re, im) in re.chunks_exact_mut(tile).zip(im.chunks_exact_mut(tile)) {
        for (q, m) in run {
            let bit = 1 << q;
            match shape(m) {
                RX => single_qubit_lanes::<RX>(re, im, bit, m),
                _ => single_qubit_lanes::<GENERIC>(re, im, bit, m),
            }
        }
    }
}

/// `m` flattened to the `[m00, m01, m10, m11]` (re, im) order the lane bodies read.
pub(crate) fn lane_matrix(m: &Matrix2) -> [f64; 8] {
    [
        m[0][0].re, m[0][0].im, m[0][1].re, m[0][1].im, m[1][0].re, m[1][0].im, m[1][1].re,
        m[1][1].im,
    ]
}

/// The arithmetic a single-qubit body runs, read from its matrix's zero pattern (see
/// "Structured bodies" in the module docs): every entry, or [`RX`] — real diagonal and
/// imaginary off-diagonal entries, a lone Rx or Y.
type Shape = u8;
const GENERIC: Shape = 0;
const RX: Shape = 1;

/// The [`Shape`] of `m`.  Only the AVX bodies have an Rx form; other targets run
/// every matrix through the generic one.
fn shape(m: &[f64; 8]) -> Shape {
    let [_, m00i, m01r, _, m10r, _, _, m11i] = *m;
    if cfg!(all(target_arch = "x86_64", target_feature = "avx"))
        && m00i == 0.0
        && m11i == 0.0
        && m01r == 0.0
        && m10r == 0.0
    {
        RX
    } else {
        GENERIC
    }
}

/// Applies `m` on qubit `bit` to one sub-cube of the index space only: the amplitudes
/// `fixed | s` for every submask `s` of `mask` (`bit` is one of `mask`'s bits, `fixed`
/// shares none).  Every pair of the sub-cube is updated by the same per-pair expression
/// as [`apply_single_qubit`], so on a state whose value at an index depends only on the
/// index's `mask` bits the sub-cube comes out exactly as the full pass would leave it —
/// the building block of [`crate::CompiledCircuit`]'s product-prefix start.  Always in
/// the generic form: a prefix doubles out of zero copies and real values, where the
/// Rx form would meet exact zeros and hand over to the generic one anyway.
pub(crate) fn apply_single_qubit_subcube(
    state: &mut Statevector,
    bit: usize,
    m: &Matrix2,
    mask: usize,
    fixed: usize,
) {
    debug_assert!(mask & bit != 0 && mask & fixed == 0);
    let m = lane_matrix(m);
    let (re, im) = state.lanes_mut();
    if bit < 1 << mask.trailing_ones() {
        for_each_run(mask, fixed, |at, run| {
            single_qubit_lanes::<GENERIC>(&mut re[at..at + run], &mut im[at..at + run], bit, &m);
        });
    } else {
        for_each_run(mask & !bit, fixed, |lo, run| {
            let (r_lo, r_hi) = re[lo..lo + bit + run].split_at_mut(bit);
            let (i_lo, i_hi) = im[lo..lo + bit + run].split_at_mut(bit);
            pair_lanes(&mut r_lo[..run], &mut i_lo[..run], r_hi, i_hi, &m);
        });
    }
}

/// Calls `f(start, run)` for the contiguous runs that make up the indices `fixed | s`,
/// `s` a submask of `mask` (`fixed` shares no bit with `mask`): a run spans `mask`'s
/// lowest unbroken stretch of bits, the rest of `mask` enumerates the runs.
pub(crate) fn for_each_run(mask: usize, fixed: usize, mut f: impl FnMut(usize, usize)) {
    let run = 1usize << mask.trailing_ones();
    for s in submasks(mask & !(run - 1)) {
        f(fixed | s, run);
    }
}

/// Every submask of `mask`, in increasing order.
pub(crate) fn submasks(mask: usize) -> impl Iterator<Item = usize> {
    let mut next = Some(0usize);
    std::iter::from_fn(move || {
        let s = next?;
        next = (s != mask).then(|| s.wrapping_sub(mask) & mask);
        Some(s)
    })
}

/// Body of [`apply_single_qubit_run`] on one tile (or the whole state) in the form of
/// [`Shape`] `S`.  Out of line on purpose: taking the lanes as two `&mut [f64]`
/// **parameters** gives LLVM `noalias` guarantees between them (reborrows of two fields
/// of one struct do not), which is what lets the flat four-stream zip of [`pair_lanes`]
/// autovectorize; a zip-of-chunks formulation, or the same loop inlined against the
/// struct's lanes or into the product prefix's closure, compiles to scalar code (the
/// prefix ran 2.4× slower).
///
/// Qubits 0–3 (`bit ∈ {1, 2, 4, 8}`) leave the generic walk half-blocks of one to eight
/// elements, whose loop overhead and scalar tails cost up to 5× a high-qubit pass (on
/// qubit 0); on AVX targets they get the full-width bodies of the `avx` module instead,
/// in both shapes, and the Rx shape gets that module's vector walk on the higher
/// qubits too.  Other targets keep `single_qubit_in_chunk` on qubits 0 and 1 and the
/// walk on qubits 2 and 3.  A slice shorter than such a body's chunk or window — a
/// 1-qubit register, or a short run of the product prefix
/// ([`apply_single_qubit_subcube`]) — takes the generic walk, which is exact at any
/// length.
#[inline(never)]
fn single_qubit_lanes<const S: Shape>(re: &mut [f64], im: &mut [f64], bit: usize, m: &[f64; 8]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
    match (bit, re.len()) {
        (1, 4..) => return avx::in_chunk::<1, S>(re, im, m),
        (2, 4..) => return avx::in_chunk::<2, S>(re, im, m),
        (4, 8..) => return avx::in_window::<4, S>(re, im, m),
        (8, 16..) => return avx::in_window::<8, S>(re, im, m),
        (16.., _) if S != GENERIC => return avx::walk::<S>(re, im, bit, m),
        _ => {}
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
    match (bit, re.len()) {
        (1, LANES..) => return single_qubit_in_chunk::<1>(re, im, m),
        (2, LANES..) => return single_qubit_in_chunk::<2>(re, im, m),
        _ => {}
    }
    for (rb, ib) in re
        .chunks_exact_mut(bit << 1)
        .zip(im.chunks_exact_mut(bit << 1))
    {
        let (r_lo, r_hi) = rb.split_at_mut(bit);
        let (i_lo, i_hi) = ib.split_at_mut(bit);
        pair_lanes(r_lo, i_lo, r_hi, i_hi, m);
    }
}

/// The 2×2 update of the pairs `(lo[j], hi[j])`: four contiguous f64 streams against
/// eight scalar matrix constants, which vectorizes to straight FMA-free mul/add code
/// (Rust never contracts `a * b + c`).  This is the generic form every body's bits are
/// held to.
fn pair_lanes(
    r_lo: &mut [f64],
    i_lo: &mut [f64],
    r_hi: &mut [f64],
    i_hi: &mut [f64],
    m: &[f64; 8],
) {
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = *m;
    for (((r0, i0), r1), i1) in r_lo
        .iter_mut()
        .zip(i_lo.iter_mut())
        .zip(r_hi.iter_mut())
        .zip(i_hi.iter_mut())
    {
        let (x0, y0) = (*r0, *i0);
        let (x1, y1) = (*r1, *i1);
        *r0 = (m00r * x0 - m00i * y0) + (m01r * x1 - m01i * y1);
        *i0 = (m00r * y0 + m00i * x0) + (m01r * y1 + m01i * x1);
        *r1 = (m10r * x0 - m10i * y0) + (m11r * x1 - m11i * y1);
        *i1 = (m10r * y0 + m10i * x0) + (m11r * y1 + m11i * x1);
    }
}

/// [`single_qubit_lanes`] for `BIT ∈ {1, 2}` on targets without AVX: each 4-lane chunk
/// holds two whole pairs, so the chunk is updated at once — every lane reads its pair's
/// two inputs (a constant broadcast shuffle) and its own matrix row, and evaluates the
/// same expression, in the same order, as [`pair_lanes`] does for that lane's side of
/// the pair.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
fn single_qubit_in_chunk<const BIT: usize>(re: &mut [f64], im: &mut [f64], m: &[f64; 8]) {
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = *m;
    // Lane j is side `j & BIT` of the pair (j & !BIT, j | BIT): row 0 or row 1 of m.
    let row = |lo: f64, hi: f64| -> [f64; LANES] {
        std::array::from_fn(|j| if j & BIT == 0 { lo } else { hi })
    };
    let (ar, ai, br, bi) = (
        row(m00r, m10r),
        row(m00i, m10i),
        row(m01r, m11r),
        row(m01i, m11i),
    );
    for (rc, ic) in re.chunks_exact_mut(LANES).zip(im.chunks_exact_mut(LANES)) {
        let rc: &mut [f64; LANES] = rc.try_into().expect("exact chunk");
        let ic: &mut [f64; LANES] = ic.try_into().expect("exact chunk");
        let mut nr = [0.0; LANES];
        let mut ni = [0.0; LANES];
        for j in 0..LANES {
            let (x0, y0) = (rc[j & !BIT], ic[j & !BIT]);
            let (x1, y1) = (rc[j | BIT], ic[j | BIT]);
            nr[j] = (ar[j] * x0 - ai[j] * y0) + (br[j] * x1 - bi[j] * y1);
            ni[j] = (ar[j] * y0 + ai[j] * x0) + (br[j] * y1 + bi[j] * x1);
        }
        *rc = nr;
        *ic = ni;
    }
}

/// Single-qubit bodies on 4-lane AVX vectors: full-width bodies for qubits 0–3 in both
/// shapes, and the Rx shape's walk for qubits from 4 up.  The generic form evaluates
/// [`pair_lanes`]' expression, operation for operation, on whole vectors — `mul`,
/// `sub` and `add` round exactly as the scalar operators do, and nothing is
/// contracted into an FMA — so every amplitude gets the bits of the generic walk; the
/// Rx form gets them by the zero-sign argument of the module docs.  Written with
/// intrinsics because autovectorization does not keep these shapes: a plain-array
/// rewrite of the low-qubit bodies vectorized across windows instead and ran 1.4–2.3×
/// slower than the walk, and an iterator-zip form of the Rx body ran 1.8× slower than
/// the generic one.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
mod avx {
    use super::{Shape, GENERIC, RX};
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_permute4x64_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_setr_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _CMP_EQ_OQ,
    };

    const LANES: usize = 4;

    /// The matrix entries one side of a pair multiplies by, as lane vectors: `a + i·b`
    /// times its own amplitude, `c + i·d` times its partner's (`m00` and `m01` on the
    /// pair-clear side, `m11` and `m10` on the pair-set side), and `−d` for the Rx form.
    #[derive(Clone, Copy)]
    struct Row {
        a: __m256d,
        b: __m256d,
        c: __m256d,
        d: __m256d,
        neg_d: __m256d,
    }

    impl Row {
        /// The row whose lanes hold `a`, `b`, `c` and `d` as `lanes` spreads them.
        #[inline(always)]
        fn new([a, b, c, d]: [f64; 4], lanes: impl Fn(f64) -> __m256d) -> Row {
            Row {
                a: lanes(a),
                b: lanes(b),
                c: lanes(c),
                d: lanes(d),
                neg_d: lanes(-d),
            }
        }

        /// Both sides' rows of `m` for [`pair`] in form `S`, pair-clear side first,
        /// broadcast to every lane.
        #[inline(always)]
        fn pair<const S: Shape>(m: &[f64; 8]) -> [Row; 2] {
            let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = *m;
            // SAFETY: AVX is enabled for this compilation (the module's `cfg`);
            // broadcasts touch registers only.
            let splat = |x| unsafe { _mm256_set1_pd(x) };
            let set = match S {
                GENERIC => [m10r, m10i, m11r, m11i],
                _ => [m11r, m11i, m10r, m10i],
            };
            [
                Row::new([m00r, m00i, m01r, m01i], splat),
                Row::new(set, splat),
            ]
        }
    }

    /// One side of a pair from its own amplitude `x + i·y` and its partner's
    /// `xp + i·yp`, in form `S`.  Generic: `(a·x − b·y) + (c·xp − d·yp)` and
    /// `(a·y + b·x) + (c·yp + d·xp)`, [`pair_lanes`]' two expressions for that side
    /// (on the pair-set side with the two bracketed terms swapped, and IEEE addition
    /// is commutative).  The Rx form drops the terms its shape makes `0·v`:
    /// `a·x + (−d)·yp` and `a·y + d·xp`.
    ///
    /// [`pair_lanes`]: super::pair_lanes
    #[inline(always)]
    fn side<const S: Shape>(row: &Row, [x, y, xp, yp]: [__m256d; 4]) -> [__m256d; 2] {
        let Row { a, b, c, d, neg_d } = *row;
        // SAFETY: AVX is enabled for this compilation (the module's `cfg`), and these
        // intrinsics touch registers only.
        unsafe {
            let (mul, add, sub) = (_mm256_mul_pd, _mm256_add_pd, _mm256_sub_pd);
            match S {
                RX => [add(mul(a, x), mul(neg_d, yp)), add(mul(a, y), mul(d, xp))],
                _ => [
                    add(sub(mul(a, x), mul(b, y)), sub(mul(c, xp), mul(d, yp))),
                    add(add(mul(a, y), mul(b, x)), add(mul(c, yp), mul(d, xp))),
                ],
            }
        }
    }

    /// Whether the Rx form's outputs `v` (two or four vectors) may hold an exact
    /// zero: whether the product of all their lanes, taken lane by lane, is zero.  A
    /// zero output always makes it zero; a product that underflows from nonzero
    /// outputs (amplitudes below ≈ 2^−268) makes it zero too, which only sends those
    /// pairs through the generic form.  One multiply per further vector and one
    /// compare, where testing each output would take a compare and an `or` apiece.
    #[inline(always)]
    fn may_hold_zero<const N: usize>(v: &[__m256d; N]) -> bool {
        // SAFETY: AVX is enabled for this compilation; register-only intrinsics.
        unsafe {
            let p = match *v.as_slice() {
                [a, b] => _mm256_mul_pd(a, b),
                [a, b, c, d] => _mm256_mul_pd(_mm256_mul_pd(a, b), _mm256_mul_pd(c, d)),
                _ => unreachable!("two or four outputs"),
            };
            _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(p, _mm256_setzero_pd())) != 0
        }
    }

    /// Both sides of four pairs, `[r0, i0, r1, i1]` from `[x0, y0, x1, y1]`, in form
    /// `S`, on the rows [`Row::pair`] builds for it: the generic form evaluates the
    /// pair-set side as [`pair_lanes`] writes it (`m10` times the pair-clear amplitude
    /// first), the Rx form as the pair-set amplitude's own side.
    ///
    /// [`pair_lanes`]: super::pair_lanes
    #[inline(always)]
    fn pair<const S: Shape>(rows: &[Row; 2], [x0, y0, x1, y1]: [__m256d; 4]) -> [__m256d; 4] {
        let [r0, i0] = side::<S>(&rows[0], [x0, y0, x1, y1]);
        let [r1, i1] = match S {
            GENERIC => side::<S>(&rows[1], [x0, y0, x1, y1]),
            _ => side::<S>(&rows[1], [x1, y1, x0, y0]),
        };
        [r0, i0, r1, i1]
    }

    /// Qubits 0 and 1 (`BIT ∈ {1, 2}`): each 4-lane chunk holds two whole pairs.  Lane
    /// `j` computes its own side's term from its own value and the other side's term
    /// from its partner's, read from the chunk with the pairs' halves swapped (one
    /// in-lane `permute` for qubit 0, one `permute4x64` for qubit 1); the per-lane
    /// matrix entries are constants.  Needs a length that is a multiple of 4.
    ///
    /// Measured at 12 qubits on the 2-vCPU host (one process, min of 41 samples): the
    /// generic form 2.2 µs on qubits 0 and 1, against 2.0 µs for the generic walk on
    /// qubit 6 and 9.5 µs for the walk on qubit 0.  Reading both inputs of a pair by
    /// broadcast shuffles (four per chunk) took 2.3–2.6 µs, a de-interleave into
    /// pair-clear and pair-set vectors and back 2.5–3.4 µs.
    pub(super) fn in_chunk<const BIT: usize, const S: Shape>(
        re: &mut [f64],
        im: &mut [f64],
        m: &[f64; 8],
    ) {
        assert!(re.len() == im.len() && re.len() % LANES == 0);
        let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = *m;
        // SAFETY: AVX is enabled for this compilation (the module's `cfg`), and these
        // intrinsics touch registers only.
        let (row, swap) = unsafe {
            let lanes = |clear: f64, set: f64| match BIT {
                1 => _mm256_setr_pd(clear, set, clear, set),
                _ => _mm256_setr_pd(clear, clear, set, set),
            };
            let row = Row {
                a: lanes(m00r, m11r),
                b: lanes(m00i, m11i),
                c: lanes(m01r, m10r),
                d: lanes(m01i, m10i),
                neg_d: lanes(-m01i, -m10i),
            };
            let swap = |v: __m256d| match BIT {
                1 => _mm256_permute_pd::<0b0101>(v),
                _ => _mm256_permute4x64_pd::<0b0100_1110>(v),
            };
            (row, swap)
        };
        for k in (0..re.len()).step_by(LANES) {
            // SAFETY: `k + 4 ≤ len`, so the chunk at `k` is in both lanes; AVX is enabled.
            unsafe {
                let (r, i) = (re.as_mut_ptr().add(k), im.as_mut_ptr().add(k));
                let (a, b) = (_mm256_loadu_pd(r), _mm256_loadu_pd(i));
                let out = side::<S>(&row, [a, b, swap(a), swap(b)]);
                if S != GENERIC && may_hold_zero(&out) {
                    return chunks_generic::<BIT>(&mut re[k..], &mut im[k..], m);
                }
                _mm256_storeu_pd(r, out[0]);
                _mm256_storeu_pd(i, out[1]);
            }
        }
    }

    /// The rest of an Rx-form [`in_chunk`] call, from its first chunk that
    /// [`may_hold_zero`], in the generic form (see [`update`]).
    #[cold]
    #[inline(never)]
    fn chunks_generic<const BIT: usize>(re: &mut [f64], im: &mut [f64], m: &[f64; 8]) {
        in_chunk::<BIT, GENERIC>(re, im, m)
    }

    /// Qubits 2 and 3 (`BIT ∈ {4, 8}`): in each block of `2·BIT` amplitudes the
    /// pair-clear half and the pair-set half are whole 4-lane vectors, so the pairs are
    /// updated a vector at a time, with no shuffle, in fixed-size windows that leave no
    /// loop tail.  Needs a length that is a multiple of `2·BIT`.
    pub(super) fn in_window<const BIT: usize, const S: Shape>(
        re: &mut [f64],
        im: &mut [f64],
        m: &[f64; 8],
    ) {
        assert!(re.len() == im.len() && re.len() % (2 * BIT) == 0);
        let rows = Row::pair::<S>(m);
        let (r, i, len) = (re.as_mut_ptr(), im.as_mut_ptr(), re.len());
        for window in (0..len).step_by(2 * BIT) {
            for k in (0..BIT).step_by(LANES) {
                let lo = window + k;
                // SAFETY: `lo + BIT + 4 ≤ window + 2·BIT ≤ len`, so every access stays
                // inside both lanes; AVX is enabled.
                unsafe {
                    if !update::<S>(&rows, r, i, lo, lo + BIT) {
                        return pairs_generic(m, r, i, len, BIT, lo);
                    }
                }
            }
        }
    }

    /// The Rx form on qubits from 4 up (`bit ≥ 16`): the generic walk's blocks of
    /// `2·bit` amplitudes, each half a run of whole 4-lane vectors, with the matrix
    /// rows broadcast once per call rather than once per block.  (The generic form on
    /// these qubits is [`pair_lanes`]' autovectorized walk.)  Needs a length that is a
    /// multiple of `2·bit`.
    ///
    /// The Rx form at 14 qubits on the 2-vCPU host, against the generic walk in one
    /// A/B binary (medians of interleaved samples, two sessions): 6.2–6.8
    /// against 8.3–9.1 µs on qubit 4, 6.3–6.4 against 8.3–8.4 µs on qubit 13.
    ///
    /// [`pair_lanes`]: super::pair_lanes
    pub(super) fn walk<const S: Shape>(re: &mut [f64], im: &mut [f64], bit: usize, m: &[f64; 8]) {
        assert!(bit % LANES == 0 && re.len() == im.len() && re.len() % (2 * bit) == 0);
        let rows = Row::pair::<S>(m);
        let (r, i) = (re.as_mut_ptr(), im.as_mut_ptr());
        for block in (0..re.len()).step_by(2 * bit) {
            for lo in (block..block + bit).step_by(LANES) {
                // SAFETY: `lo + bit + 4 ≤ block + 2·bit ≤ len`, so every access stays
                // inside both lanes; AVX is enabled.
                unsafe {
                    if !update::<S>(&rows, r, i, lo, lo + bit) {
                        return pairs_generic(m, r, i, re.len(), bit, lo);
                    }
                }
            }
        }
    }

    /// The rest of an Rx-form [`in_window`] or [`walk`] call over lanes `r` and `i`
    /// of `len` values, from the four pairs at `lo` and `lo + bit` on, in the generic
    /// form (see [`update`]).
    ///
    /// # Safety
    ///
    /// `r` and `i` must be valid for reads and writes of `len` `f64`, `len` a multiple
    /// of `2·bit`, `bit` a multiple of 4, and `lo` a multiple of 4 below `len` with
    /// bit `bit` clear.
    #[cold]
    #[inline(never)]
    unsafe fn pairs_generic(
        m: &[f64; 8],
        r: *mut f64,
        i: *mut f64,
        len: usize,
        bit: usize,
        mut lo: usize,
    ) {
        let rows = Row::pair::<GENERIC>(m);
        while lo < len {
            update::<GENERIC>(&rows, r, i, lo, lo + bit);
            lo += LANES;
            // Past the end of a pair-clear half: on to the next block's.
            if lo & bit != 0 {
                lo += bit;
            }
        }
    }

    /// Loads the four pairs at `lo` and `hi` of the lanes `r` and `i`, updates them in
    /// form `S` and stores them back, or — the Rx form whose outputs
    /// [`may_hold_zero`] — stores nothing and returns `false`.  The Rx form's
    /// outputs can differ from the generic form's only in the sign of an output that is
    /// an exact zero, so the caller hands the rest of its call, these four pairs first,
    /// to the generic form: out of line, so the hot loop keeps none of the generic
    /// form's products live, and for the whole rest, so a state rich in zeros (a basis
    /// state's neighbourhood) runs at the generic form's speed instead of paying both
    /// forms per vector.
    ///
    /// # Safety
    ///
    /// `r` and `i` must be valid for reads and writes of 4 `f64` at `lo` and at `hi`.
    #[inline(always)]
    unsafe fn update<const S: Shape>(
        rows: &[Row; 2],
        r: *mut f64,
        i: *mut f64,
        lo: usize,
        hi: usize,
    ) -> bool {
        let at = [r.add(lo), i.add(lo), r.add(hi), i.add(hi)];
        let out = pair::<S>(rows, at.map(|p| _mm256_loadu_pd(p)));
        if S != GENERIC && may_hold_zero(&out) {
            return false;
        }
        for (p, v) in at.into_iter().zip(out) {
            _mm256_storeu_pd(p, v);
        }
        true
    }
}

/// Width of the windows the short-run CX/CZ bodies permute: two 4-lane chunks, so every
/// qubit below 3 is a lane position inside one window.
const WINDOW: usize = 2 * LANES;

/// Applies CX with the given control and target.
///
/// Iterates only the quarter of indices with the control bit set and the target bit clear
/// (the swap partners, enumerated by double bit-insertion), rather than scanning and
/// testing all `2^n` indices.  The swap set decomposes into contiguous runs of
/// `2^min(control, target)` indices (everything below the lower qubit bit is free), so
/// each run is one pair of `swap_nonoverlapping` lane memmoves instead of per-index
/// swaps.  Runs shorter than 8 amplitudes (`min(control, target) < 3`) would make the
/// per-run setup dominate; there a constant lane permutation moves whole 8-lane windows
/// at a time.
pub fn apply_cx(state: &mut Statevector, control: usize, target: usize) {
    assert_ne!(control, target, "CX control and target must differ");
    let dim = state.dim();
    let tbit = 1usize << target;
    assert!(
        1usize << control < dim && tbit < dim,
        "CX qubits ({control}, {target}) out of range for {dim} amplitudes"
    );
    let (re, im) = state.lanes_mut();
    let lo = control.min(target);
    let hi = control.max(target);
    let cbit = 1usize << control;
    let run = 1usize << lo;
    if run < WINDOW {
        if dim >= WINDOW {
            cx_short_runs(re, control, target);
            cx_short_runs(im, control, target);
        } else {
            // Registers of 2 qubits: per-pair lane swaps.
            for k in 0..dim / 4 {
                let i0 = insert_zero_bit(insert_zero_bit(k, lo), hi) | cbit;
                re.swap(i0, i0 | tbit);
                im.swap(i0, i0 | tbit);
            }
        }
        return;
    }
    let mut k = 0usize;
    while k < dim / 4 {
        let i0 = insert_zero_bit(insert_zero_bit(k, lo), hi) | cbit;
        // SAFETY: the `run` indices from i0 all keep the control bit set and the target
        // bit clear (their varying bits sit strictly below min(control, target)), and
        // their partners at +tbit are disjoint from them.
        unsafe {
            std::ptr::swap_nonoverlapping(
                re.as_mut_ptr().add(i0),
                re.as_mut_ptr().add(i0 | tbit),
                run,
            );
            std::ptr::swap_nonoverlapping(
                im.as_mut_ptr().add(i0),
                im.as_mut_ptr().add(i0 | tbit),
                run,
            );
        }
        k += run;
    }
}

/// CX on one lane array for `min(control, target) < 3` (at least [`WINDOW`] amplitudes):
/// the qubits below 3 are lane positions inside a window, so every case is a constant
/// lane permutation — inside each window, or between two windows `2^target` apart — over
/// a plain walk of the windows.  Moves only, so the bits are those of the per-pair swaps.
fn cx_short_runs(v: &mut [f64], control: usize, target: usize) {
    match (control, target) {
        (0, 1) => permute_windows::<1, 2>(v),
        (0, 2) => permute_windows::<1, 4>(v),
        (1, 0) => permute_windows::<2, 1>(v),
        (1, 2) => permute_windows::<2, 4>(v),
        (2, 0) => permute_windows::<4, 1>(v),
        (2, 1) => permute_windows::<4, 2>(v),
        // Control inside the window, target above it: swap the control lanes of the
        // windows in the target-clear half of each block with their partners.
        (0..=2, _) => {
            let tbit = 1usize << target;
            for block in v.chunks_exact_mut(tbit << 1) {
                let (lo, hi) = block.split_at_mut(tbit);
                match control {
                    0 => swap_window_lanes::<1>(lo, hi),
                    1 => swap_window_lanes::<2>(lo, hi),
                    _ => swap_window_lanes::<4>(lo, hi),
                }
            }
        }
        // Target inside the window, control above it: permute every window of the
        // control-set half of each block.
        _ => {
            let cbit = 1usize << control;
            for block in v.chunks_exact_mut(cbit << 1) {
                let set = &mut block[cbit..];
                match target {
                    0 => permute_windows::<0, 1>(set),
                    1 => permute_windows::<0, 2>(set),
                    _ => permute_windows::<0, 4>(set),
                }
            }
        }
    }
}

/// Within every window of `v`, swaps lane `j` with lane `j ^ T` where `j` has all of the
/// bits of `C` set (`C = 0`: every lane).
fn permute_windows<const C: usize, const T: usize>(v: &mut [f64]) {
    for w in v.chunks_exact_mut(WINDOW) {
        let w: &mut [f64; WINDOW] = w.try_into().expect("exact chunk");
        let a = *w;
        *w = std::array::from_fn(|j| if j & C == C { a[j ^ T] } else { a[j] });
    }
}

/// Swaps lane `j` of each window of `lo` with lane `j` of the matching window of `hi`,
/// for the lanes `j` with bit `C` set.
fn swap_window_lanes<const C: usize>(lo: &mut [f64], hi: &mut [f64]) {
    for (a, b) in lo.chunks_exact_mut(WINDOW).zip(hi.chunks_exact_mut(WINDOW)) {
        let a: &mut [f64; WINDOW] = a.try_into().expect("exact chunk");
        let b: &mut [f64; WINDOW] = b.try_into().expect("exact chunk");
        let (x, y) = (*a, *b);
        *a = std::array::from_fn(|j| if j & C != 0 { y[j] } else { x[j] });
        *b = std::array::from_fn(|j| if j & C != 0 { x[j] } else { y[j] });
    }
}

/// Negates lane `j` of every window of `v` where `j` has all of the bits of `M` set.
fn negate_windows<const M: usize>(v: &mut [f64]) {
    for w in v.chunks_exact_mut(WINDOW) {
        let w: &mut [f64; WINDOW] = w.try_into().expect("exact chunk");
        let a = *w;
        *w = std::array::from_fn(|j| if j & M == M { -a[j] } else { a[j] });
    }
}

/// CZ on one lane array for `min(control, target) < 3` (at least [`WINDOW`]
/// amplitudes): a constant lane-sign pattern per window — on every window when both
/// qubits are lanes, on the windows of the upper half of each `2^(hi+1)` block when only
/// the lower one is.  Negations only.
fn cz_short_runs(v: &mut [f64], lo: usize, hi: usize) {
    match (lo, hi) {
        (0, 1) => negate_windows::<3>(v),
        (0, 2) => negate_windows::<5>(v),
        (1, 2) => negate_windows::<6>(v),
        _ => {
            let hbit = 1usize << hi;
            for block in v.chunks_exact_mut(hbit << 1) {
                let set = &mut block[hbit..];
                match lo {
                    0 => negate_windows::<1>(set),
                    1 => negate_windows::<2>(set),
                    _ => negate_windows::<4>(set),
                }
            }
        }
    }
}

/// Applies CZ with the given control and target (symmetric).
///
/// Iterates only the quarter of indices with both bits set; those decompose into
/// contiguous runs of `2^min(control, target)` indices negated as straight lane sweeps
/// (8-lane windows with a constant sign pattern when the runs are shorter than that).
pub fn apply_cz(state: &mut Statevector, control: usize, target: usize) {
    assert_ne!(control, target, "CZ control and target must differ");
    let dim = state.dim();
    let tbit = 1usize << target;
    assert!(
        1usize << control < dim && tbit < dim,
        "CZ qubits ({control}, {target}) out of range for {dim} amplitudes"
    );
    let (re, im) = state.lanes_mut();
    let lo = control.min(target);
    let hi = control.max(target);
    let cbit = 1usize << control;
    let run = 1usize << lo;
    if run < WINDOW && dim >= WINDOW {
        cz_short_runs(re, lo, hi);
        cz_short_runs(im, lo, hi);
        return;
    }
    let mut k = 0usize;
    while k < dim / 4 {
        let i = (insert_zero_bit(insert_zero_bit(k, lo), hi) | cbit) | tbit;
        for r in &mut re[i..i + run] {
            *r = -*r;
        }
        for v in &mut im[i..i + run] {
            *v = -*v;
        }
        k += run;
    }
}

/// The split-lane involution-pair update shared by the Pauli-rotation and Pauli-string
/// kernels: over all pairs `(i0, i1 = i0 ^ x_mask)` (pivot bit of `x_mask` clear in
/// `i0`), applies
///
/// ```text
/// a0' = c·a0 + sgn·(g01·a1)        a1' = c·a1 + sgn·(g10·a0)
/// ```
///
/// with `sgn = (−1)^popcount(i0 & z_mask)`.  The rotation kernel passes
/// `(cos θ/2, −i·sin θ/2·conj(i^num_y), −i·sin θ/2·i^num_y)`; the plain Pauli
/// application passes `(0, conj(i^num_y), i^num_y)` — the phase table of the old
/// interleaved kernel factored into one hoisted complex constant per side and a ±1 sign
/// stream, which is what lets the inner loop vectorize.
///
/// Walks blocks of `2^(pivot+1)` amplitudes: within a block, `i0 = base + off` and
/// `i1 = base + 2^pivot + (off ^ xl)`, where `xl` is `x_mask` with its pivot bit removed
/// (the pivot is x's highest bit, so x spans only the block).  The sign of the block base
/// is hoisted; the low-bit signs stream from the table; the partner access is a constant
/// 4-lane shuffle.  The lanes arrive as `noalias` slice parameters (see
/// [`single_qubit_lanes`]).
fn pair_update(
    re: &mut [f64],
    im: &mut [f64],
    x_mask: u64,
    z_mask: u64,
    c: f64,
    g01: Complex64,
    g10: Complex64,
) {
    let dim = re.len();
    let pivot = (63 - x_mask.leading_zeros()) as usize;
    let pbit = 1usize << pivot;
    let x = x_mask as usize;
    let xl = x & (pbit - 1);
    if pbit < LANES && dim >= LANES {
        // pivot < 2: both halves of every pair sit inside one 4-lane chunk.
        match x {
            1 => pair_update_in_chunk::<1>(re, im, z_mask, c, g01, g10),
            2 => pair_update_in_chunk::<2>(re, im, z_mask, c, g01, g10),
            _ => pair_update_in_chunk::<3>(re, im, z_mask, c, g01, g10),
        }
        return;
    }
    if dim < SIGN_BLOCK {
        // Below one table block, the table fill (a 2 KiB array init) would dominate
        // the kernel's own work; update the pairs with direct parity signs.
        let mut base = 0usize;
        while base < dim {
            for off in 0..pbit {
                let i0 = base + off;
                let i1 = base + pbit + (off ^ xl);
                let s = parity_sign(i0 as u64 & z_mask);
                let (r0, v0) = (re[i0], im[i0]);
                let (r1, v1) = (re[i1], im[i1]);
                re[i0] = c * r0 + s * (g01.re * r1 - g01.im * v1);
                im[i0] = c * v0 + s * (g01.re * v1 + g01.im * r1);
                re[i1] = c * r1 + s * (g10.re * r0 - g10.im * v0);
                im[i1] = c * v1 + s * (g10.re * v0 + g10.im * r0);
            }
            base += pbit << 1;
        }
        return;
    }
    let z_low = z_mask & (pbit as u64 - 1);
    let table = SignTable::new(z_low, pbit);
    let xlh = xl & !(LANES - 1);
    let mut base = 0usize;
    while base < dim {
        let base_sign = parity_sign(base as u64 & z_mask);
        let (r_lo, r_hi) = re[base..base + (pbit << 1)].split_at_mut(pbit);
        let (i_lo, i_hi) = im[base..base + (pbit << 1)].split_at_mut(pbit);
        // Explicit 4-wide chunks: all eight streams are staged through fixed-size
        // `[f64; 4]` arrays (loads, compute, whole-array stores) so the vectorizer sees
        // straight-line 4-lane register blocks, and the `off ^ xl` partner permutation
        // is a compile-time shuffle per `with_lane_perm!` arm.  An element-indexed
        // formulation of the same loop compiles to scalar code.
        macro_rules! body {
            ($m:literal) => {{
                let mut ob = 0usize;
                while ob < pbit {
                    let oe = pbit.min(ob + SIGN_BLOCK);
                    let mid = base_sign * table.block_sign(ob as u64);
                    let mut off = ob;
                    while off < oe {
                        // off/pb are 4-aligned and < pbit (the half-slice length); lo8
                        // is 4-aligned and < 256, so every window below is in bounds
                        // and the try_into calls cannot fail.
                        let pb = off ^ xlh;
                        let lo8 = off & (SIGN_BLOCK - 1);
                        let sg: &[f64; LANES] =
                            (&table.low()[lo8..lo8 + LANES]).try_into().unwrap();
                        let rl: &mut [f64; LANES] =
                            (&mut r_lo[off..off + LANES]).try_into().unwrap();
                        let il: &mut [f64; LANES] =
                            (&mut i_lo[off..off + LANES]).try_into().unwrap();
                        let rh: &mut [f64; LANES] = (&mut r_hi[pb..pb + LANES]).try_into().unwrap();
                        let ih: &mut [f64; LANES] = (&mut i_hi[pb..pb + LANES]).try_into().unwrap();
                        let mut nrl = [0.0; LANES];
                        let mut nil = [0.0; LANES];
                        let mut nrh = [0.0; LANES];
                        let mut nih = [0.0; LANES];
                        for j in 0..LANES {
                            let s = mid * sg[j];
                            let (r0, v0) = (rl[j], il[j]);
                            let (r1, v1) = (rh[j ^ $m], ih[j ^ $m]);
                            nrl[j] = c * r0 + s * (g01.re * r1 - g01.im * v1);
                            nil[j] = c * v0 + s * (g01.re * v1 + g01.im * r1);
                            nrh[j ^ $m] = c * r1 + s * (g10.re * r0 - g10.im * v0);
                            nih[j ^ $m] = c * v1 + s * (g10.re * v0 + g10.im * r0);
                        }
                        *rl = nrl;
                        *il = nil;
                        *rh = nrh;
                        *ih = nih;
                        off += LANES;
                    }
                    ob = oe;
                }
            }};
        }
        with_lane_perm!(xl & (LANES - 1), body);
        base += pbit << 1;
    }
}

/// [`pair_update`] for the X masks `X ∈ {1, 2, 3}` (pivot < 2): each 4-lane chunk holds
/// two whole pairs, so the chunk is updated at once.  Lane `j` reads its partner `j ^ X`
/// (a constant shuffle), its side's phase (`g01` on the pivot-clear side, `g10` on the
/// other) and the sign of its pair's pivot-clear index — the chunk's hoisted high sign
/// times a constant per-lane one — and evaluates the same expression, in the same order,
/// as the per-pair form.
fn pair_update_in_chunk<const X: usize>(
    re: &mut [f64],
    im: &mut [f64],
    z_mask: u64,
    c: f64,
    g01: Complex64,
    g10: Complex64,
) {
    let pbit = if X >= 2 { 2 } else { 1 };
    let side = |j: usize, lo: f64, hi: f64| if j & pbit == 0 { lo } else { hi };
    let gr: [f64; LANES] = std::array::from_fn(|j| side(j, g01.re, g10.re));
    let gi: [f64; LANES] = std::array::from_fn(|j| side(j, g01.im, g10.im));
    let lane_sign: [f64; LANES] = std::array::from_fn(|j| {
        let i0 = if j & pbit == 0 { j } else { j ^ X };
        parity_sign(i0 as u64 & z_mask)
    });
    let z_high = z_mask & !(LANES as u64 - 1);
    for (k, (rc, ic)) in re
        .chunks_exact_mut(LANES)
        .zip(im.chunks_exact_mut(LANES))
        .enumerate()
    {
        let rc: &mut [f64; LANES] = rc.try_into().expect("exact chunk");
        let ic: &mut [f64; LANES] = ic.try_into().expect("exact chunk");
        let chunk_sign = parity_sign((k * LANES) as u64 & z_high);
        let mut nr = [0.0; LANES];
        let mut ni = [0.0; LANES];
        for j in 0..LANES {
            let s = chunk_sign * lane_sign[j];
            let (r0, v0) = (rc[j], ic[j]);
            let (r1, v1) = (rc[j ^ X], ic[j ^ X]);
            nr[j] = c * r0 + s * (gr[j] * r1 - gi[j] * v1);
            ni[j] = c * v0 + s * (gr[j] * v1 + gi[j] * r1);
        }
        *rc = nr;
        *ic = ni;
    }
}

/// Applies `exp(-i θ/2 P)` for a Pauli string `P`, in place and allocation-free.
///
/// A Pauli string maps basis states by the involution `b ↔ b ^ x_mask` (with a phase), so
/// the rotation decomposes into independent 2×2 rotations on `(b, b ^ x_mask)` pairs —
/// there is no need for the naive `cos·|ψ⟩ − i·sin·P|ψ⟩` construction's full-state clone.
/// Diagonal strings (`x_mask == 0`) reduce to a pure per-amplitude phase whose sign
/// stream comes from a [`SignTable`]; general strings go through the shared involution-pair
/// update (`pair_update`).
pub fn apply_pauli_rotation(state: &mut Statevector, string: &PauliString, theta: f64) {
    if string.is_identity() {
        // Global phase only; expectation values are unaffected, so skip it.
        return;
    }
    let (s, co) = (theta / 2.0).sin_cos();
    let x_mask = string.x_mask();
    let z_mask = string.z_mask();
    let (re, im) = state.lanes_mut();

    if x_mask == 0 {
        // Diagonal: amplitude b picks up exp(-iθ/2 · (-1)^popcount(b & z)), i.e. is
        // multiplied by (cos θ/2, −sin θ/2 · sgn_b).
        diag_phase_lanes(re, im, z_mask, co, s);
        return;
    }

    // General case: 2×2 rotation on each (b0, b0 ^ x_mask) pair.  P|b0⟩ = phase0|b1⟩
    // with phase0 = i^num_y · (-1)^popcount(b0 & z); because P² = I, the return phase is
    // conj(phase0).  The update is a0' = cos·a0 − i·sin·conj(phase0)·a1 (and mirrored),
    // which pair_update applies with the i^num_y part hoisted into its constants.
    let g = i_power((x_mask & z_mask).count_ones());
    let minus_i_sin = Complex64::new(0.0, -s);
    pair_update(
        re,
        im,
        x_mask,
        z_mask,
        co,
        minus_i_sin * g.conj(),
        minus_i_sin * g,
    );
}

/// Diagonal sign pass: multiplies amplitude `b`'s lanes by
/// `(−1)^popcount(b & z)` streamed from a [`SignTable`] (noalias slice parameters, flat
/// zip — see [`single_qubit_lanes`]).
fn diag_sign_lanes(re: &mut [f64], im: &mut [f64], z_mask: u64) {
    let dim = re.len();
    if dim < SIGN_BLOCK {
        for (b, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let s = parity_sign(b as u64 & z_mask);
            *r *= s;
            *i *= s;
        }
        return;
    }
    let table = SignTable::new(z_mask, dim);
    let mut b = 0usize;
    while b < dim {
        let end = dim.min(b + SIGN_BLOCK);
        let hs = table.block_sign(b as u64);
        let low = &table.low()[..end - b];
        for ((r, i), l) in re[b..end].iter_mut().zip(&mut im[b..end]).zip(low) {
            let s = hs * l;
            *r *= s;
            *i *= s;
        }
        b = end;
    }
}

/// Diagonal phase pass: multiplies amplitude `b` by `(co, −s·sgn_b)` with the
/// sign streamed from a [`SignTable`].  The flat three-stream zip (both lanes plus the
/// contiguous ±1 table slice) is the shape the vectorizer widens to 4 lanes.
fn diag_phase_lanes(re: &mut [f64], im: &mut [f64], z_mask: u64, co: f64, s: f64) {
    let dim = re.len();
    if dim < SIGN_BLOCK {
        for (b, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let t = s * parity_sign(b as u64 & z_mask);
            let (x, y) = (*r, *i);
            *r = co * x + t * y;
            *i = co * y - t * x;
        }
        return;
    }
    let table = SignTable::new(z_mask, dim);
    let mut b = 0usize;
    while b < dim {
        let end = dim.min(b + SIGN_BLOCK);
        let hs = table.block_sign(b as u64);
        let low = &table.low()[..end - b];
        for ((r, i), l) in re[b..end].iter_mut().zip(&mut im[b..end]).zip(low) {
            let t = s * (hs * l);
            let (x, y) = (*r, *i);
            *r = co * x + t * y;
            *i = co * y - t * x;
        }
        b = end;
    }
}

/// Applies a Pauli string `P` itself (not a rotation), in place and allocation-free —
/// the error-insertion primitive of stochastic Pauli-trajectory noise simulation
/// (`qnoise`): a sampled error is one Pauli applied between compiled operations.
///
/// The kernel is the θ-free specialization of [`apply_pauli_rotation`]: `P` maps basis
/// states by the involution `b ↔ b ^ x_mask` with a phase `i^num_y · (−1)^popcount(b & z)`
/// — so diagonal strings are one sign pass and general strings are one disjoint-pair
/// swap-with-phase pass (`pair_update` with `c = 0`).  The application is phase-exact
/// (including the `i^num_y` factor), so inserted errors compose exactly with per-gate
/// reference simulation, not just up to global phase.
pub fn apply_pauli_string(state: &mut Statevector, string: &PauliString) {
    if string.is_identity() {
        return;
    }
    let x_mask = string.x_mask();
    let z_mask = string.z_mask();
    let (re, im) = state.lanes_mut();

    if x_mask == 0 {
        // Diagonal: amplitude b picks up (−1)^popcount(b & z).  Multiplying both lanes
        // by the ±1 sign is exact and branch-free.
        diag_sign_lanes(re, im, z_mask);
        return;
    }

    // General case: P|b0⟩ = phase0|b1⟩ with b1 = b0 ^ x_mask and
    // phase0 = i^num_y · (−1)^popcount(b0 & z); since P² = I the return phase is
    // conj(phase0).  pair_update with c = 0 is exactly that swap-with-phase.
    let g = i_power((x_mask & z_mask).count_ones());
    pair_update(re, im, x_mask, z_mask, 0.0, g.conj(), g);
}

pub mod reference {
    //! The original, straightforward kernels on **interleaved** `Complex64` storage,
    //! retained as the correctness baseline.
    //!
    //! The `*_amps` functions operate directly on a raw interleaved amplitude buffer —
    //! the naive algorithms themselves, with per-index branches, and a full-state clone
    //! per Pauli rotation.  The [`Statevector`] wrappers convert out of the split-lane
    //! storage at entry and back at exit ([`Statevector::to_amplitudes`] /
    //! [`Statevector::copy_from_amplitudes`]), so the reference path never depends on
    //! the SoA layout it is pinning — the rows of the relational equivalence harness
    //! (`tests/src/relational.rs`) compare two genuinely different storage schemes.  [`run_circuit`] converts **once per circuit**.
    //! Nothing but the equivalence and property tests should call any of this.

    use super::Matrix2;
    use qop::{Complex64, PauliString, Statevector};

    /// Naive single-qubit gate on interleaved amplitudes: scans every index and tests
    /// the qubit bit.
    pub fn apply_single_qubit_amps(amps: &mut [Complex64], q: usize, m: &Matrix2) {
        let dim = amps.len();
        let bit = 1usize << q;
        let mut base = 0usize;
        while base < dim {
            if base & bit == 0 {
                let i0 = base;
                let i1 = base | bit;
                let a0 = amps[i0];
                let a1 = amps[i1];
                amps[i0] = m[0][0] * a0 + m[0][1] * a1;
                amps[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += 1;
        }
    }

    /// Naive CX on interleaved amplitudes: scans every index and tests both bits.
    pub fn apply_cx_amps(amps: &mut [Complex64], control: usize, target: usize) {
        assert_ne!(control, target, "CX control and target must differ");
        let dim = amps.len();
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        for i in 0..dim {
            if i & cbit != 0 && i & tbit == 0 {
                amps.swap(i, i | tbit);
            }
        }
    }

    /// Naive CZ on interleaved amplitudes: scans every index and tests both bits.
    pub fn apply_cz_amps(amps: &mut [Complex64], control: usize, target: usize) {
        assert_ne!(control, target, "CZ control and target must differ");
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        for (i, a) in amps.iter_mut().enumerate() {
            if i & cbit != 0 && i & tbit != 0 {
                *a = -*a;
            }
        }
    }

    /// Naive Pauli rotation via `cos(θ/2)|ψ⟩ − i·sin(θ/2)·P|ψ⟩`, cloning the buffer.
    pub fn apply_pauli_rotation_amps(amps: &mut [Complex64], string: &PauliString, theta: f64) {
        if string.is_identity() {
            return;
        }
        let (s, co) = (theta / 2.0).sin_cos();
        let old = amps.to_vec();
        for a in amps.iter_mut() {
            *a = a.scale(co);
        }
        let minus_i_sin = Complex64::new(0.0, -s);
        for (b, a) in old.iter().enumerate() {
            if *a == Complex64::ZERO {
                continue;
            }
            let (b2, phase) = string.apply_to_basis(b as u64);
            amps[b2 as usize] += minus_i_sin * phase * *a;
        }
    }

    /// Naive Pauli-string application via [`PauliString::apply_to_basis`], building a
    /// fresh output buffer (reference analogue of [`super::apply_pauli_string`]).
    pub fn apply_pauli_string_amps(amps: &mut [Complex64], string: &PauliString) {
        let old = amps.to_vec();
        for a in amps.iter_mut() {
            *a = Complex64::ZERO;
        }
        for (b, a) in old.iter().enumerate() {
            let (b2, phase) = string.apply_to_basis(b as u64);
            amps[b2 as usize] += phase * *a;
        }
    }

    /// Applies one gate to interleaved amplitudes using the naive kernels.
    pub fn apply_gate_amps(amps: &mut [Complex64], gate: &qcircuit::Gate, params: &[f64]) {
        use qcircuit::Gate;
        match gate {
            Gate::H(q) => apply_single_qubit_amps(amps, *q, &super::H_MATRIX),
            Gate::X(q) => apply_single_qubit_amps(amps, *q, &super::X_MATRIX),
            Gate::Y(q) => apply_single_qubit_amps(amps, *q, &super::Y_MATRIX),
            Gate::Z(q) => apply_single_qubit_amps(amps, *q, &super::Z_MATRIX),
            Gate::S(q) => apply_single_qubit_amps(amps, *q, &super::S_MATRIX),
            Gate::Sdg(q) => apply_single_qubit_amps(amps, *q, &super::SDG_MATRIX),
            Gate::Cx(c, t) => apply_cx_amps(amps, *c, *t),
            Gate::Cz(c, t) => apply_cz_amps(amps, *c, *t),
            Gate::Rx(q, a) => {
                apply_single_qubit_amps(amps, *q, &super::rx_matrix(a.resolve(params)))
            }
            Gate::Ry(q, a) => {
                apply_single_qubit_amps(amps, *q, &super::ry_matrix(a.resolve(params)))
            }
            Gate::Rz(q, a) => {
                apply_single_qubit_amps(amps, *q, &super::rz_matrix(a.resolve(params)))
            }
            Gate::PauliRotation(string, a) => {
                apply_pauli_rotation_amps(amps, string, a.resolve(params))
            }
        }
    }

    /// Naive single-qubit gate (statevector wrapper; converts at the boundary).
    pub fn apply_single_qubit(state: &mut Statevector, q: usize, m: &Matrix2) {
        let mut amps = state.to_amplitudes();
        apply_single_qubit_amps(&mut amps, q, m);
        state.copy_from_amplitudes(&amps);
    }

    /// Naive CX (statevector wrapper; converts at the boundary).
    pub fn apply_cx(state: &mut Statevector, control: usize, target: usize) {
        let mut amps = state.to_amplitudes();
        apply_cx_amps(&mut amps, control, target);
        state.copy_from_amplitudes(&amps);
    }

    /// Naive CZ (statevector wrapper; converts at the boundary).
    pub fn apply_cz(state: &mut Statevector, control: usize, target: usize) {
        let mut amps = state.to_amplitudes();
        apply_cz_amps(&mut amps, control, target);
        state.copy_from_amplitudes(&amps);
    }

    /// Naive Pauli rotation (statevector wrapper; converts at the boundary).
    pub fn apply_pauli_rotation(state: &mut Statevector, string: &PauliString, theta: f64) {
        let mut amps = state.to_amplitudes();
        apply_pauli_rotation_amps(&mut amps, string, theta);
        state.copy_from_amplitudes(&amps);
    }

    /// Naive Pauli-string application (statevector wrapper; converts at the boundary).
    pub fn apply_pauli_string(state: &mut Statevector, string: &PauliString) {
        let mut amps = state.to_amplitudes();
        apply_pauli_string_amps(&mut amps, string);
        state.copy_from_amplitudes(&amps);
    }

    /// Applies one gate using the naive kernels (reference analogue of
    /// [`super::apply_gate`]; converts at the boundary).
    pub fn apply_gate(state: &mut Statevector, gate: &qcircuit::Gate, params: &[f64]) {
        let mut amps = state.to_amplitudes();
        apply_gate_amps(&mut amps, gate, params);
        state.copy_from_amplitudes(&amps);
    }

    /// Runs a whole circuit through the naive kernels, converting to interleaved
    /// storage once for the whole circuit.
    pub fn run_circuit(
        circuit: &qcircuit::Circuit,
        params: &[f64],
        initial: &Statevector,
    ) -> Statevector {
        let mut amps = initial.to_amplitudes();
        for gate in circuit.gates() {
            apply_gate_amps(&mut amps, gate, params);
        }
        Statevector::from_amplitudes(amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::Angle;
    use qop::PauliOp;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn hadamard_creates_superposition() {
        let mut circ = Circuit::new(1);
        circ.push(Gate::H(0));
        let out = run_circuit(&circ, &[], &Statevector::zero_state(1));
        assert!(close(out.probability(0), 0.5));
        assert!(close(out.probability(1), 0.5));
    }

    #[test]
    fn bell_state_and_ghz() {
        let mut ghz = Circuit::new(3);
        ghz.push(Gate::H(0));
        ghz.push(Gate::Cx(0, 1));
        ghz.push(Gate::Cx(1, 2));
        let out = run_circuit(&ghz, &[], &Statevector::zero_state(3));
        assert!(close(out.probability(0b000), 0.5));
        assert!(close(out.probability(0b111), 0.5));
        assert!(close(out.norm(), 1.0));
    }

    #[test]
    fn rx_rotates_z_expectation() {
        let z = PauliOp::from_labels(1, &[("Z", 1.0)]);
        for &theta in &[0.0, 0.3, 1.2, std::f64::consts::PI] {
            let mut circ = Circuit::new(1);
            circ.push(Gate::Rx(0, Angle::param(0)));
            let out = run_circuit(&circ, &[theta], &Statevector::zero_state(1));
            assert!(
                close(z.expectation(&out), theta.cos()),
                "theta={theta}: {} vs {}",
                z.expectation(&out),
                theta.cos()
            );
        }
    }

    #[test]
    fn ry_rotates_between_basis_states() {
        let mut circ = Circuit::new(1);
        circ.push(Gate::Ry(0, Angle::param(0)));
        let out = run_circuit(&circ, &[std::f64::consts::PI], &Statevector::zero_state(1));
        assert!(close(out.probability(1), 1.0));
    }

    #[test]
    fn rz_is_diagonal_phase() {
        let mut circ = Circuit::new(1);
        circ.push(Gate::H(0));
        circ.push(Gate::Rz(0, Angle::param(0)));
        circ.push(Gate::H(0));
        // H Rz(θ) H |0> gives P(0) = cos²(θ/2).
        let theta = 0.8f64;
        let out = run_circuit(&circ, &[theta], &Statevector::zero_state(1));
        assert!(close(out.probability(0), (theta / 2.0).cos().powi(2)));
    }

    #[test]
    fn pauli_rotation_matches_dedicated_rotations() {
        // exp(-iθ/2 Z0Z1) acting on |++> must equal the textbook CX-RZ-CX construction.
        let theta = 0.9;
        let zz = PauliString::from_label("ZZ").unwrap();
        let mut a = Circuit::new(2);
        a.push(Gate::H(0));
        a.push(Gate::H(1));
        a.push(Gate::PauliRotation(zz, Angle::param(0)));

        let mut b = Circuit::new(2);
        b.push(Gate::H(0));
        b.push(Gate::H(1));
        b.push(Gate::Cx(0, 1));
        b.push(Gate::Rz(1, Angle::param(0)));
        b.push(Gate::Cx(0, 1));

        let sa = run_circuit(&a, &[theta], &Statevector::zero_state(2));
        let sb = run_circuit(&b, &[theta], &Statevector::zero_state(2));
        assert!(close(sa.overlap(&sb), 1.0));
    }

    #[test]
    fn single_qubit_rotation_gates_match_pauli_rotation_path() {
        for (gate_ctor, label) in [
            (Gate::Rx as fn(usize, Angle) -> Gate, "X"),
            (Gate::Ry as fn(usize, Angle) -> Gate, "Y"),
            (Gate::Rz as fn(usize, Angle) -> Gate, "Z"),
        ] {
            let theta = 1.1;
            let mut a = Circuit::new(1);
            a.push(Gate::H(0));
            a.push(gate_ctor(0, Angle::param(0)));
            let mut b = Circuit::new(1);
            b.push(Gate::H(0));
            b.push(Gate::PauliRotation(
                PauliString::from_label(label).unwrap(),
                Angle::param(0),
            ));
            let sa = run_circuit(&a, &[theta], &Statevector::zero_state(1));
            let sb = run_circuit(&b, &[theta], &Statevector::zero_state(1));
            assert!(close(sa.overlap(&sb), 1.0), "mismatch for R{label}");
        }
    }

    #[test]
    fn cz_phases_the_11_component() {
        let mut circ = Circuit::new(2);
        circ.push(Gate::H(0));
        circ.push(Gate::H(1));
        circ.push(Gate::Cz(0, 1));
        let out = run_circuit(&circ, &[], &Statevector::zero_state(2));
        assert!(close(out.amplitude(0b11).re, -0.5));
        assert!(close(out.amplitude(0b01).re, 0.5));
    }

    #[test]
    fn s_and_sdg_cancel() {
        let mut circ = Circuit::new(1);
        circ.push(Gate::H(0));
        circ.push(Gate::S(0));
        circ.push(Gate::Sdg(0));
        circ.push(Gate::H(0));
        let out = run_circuit(&circ, &[], &Statevector::zero_state(1));
        assert!(close(out.probability(0), 1.0));
    }

    #[test]
    fn unitarity_preserves_norm_for_random_ansatz() {
        use qcircuit::{Entanglement, HardwareEfficientAnsatz};
        let ansatz = HardwareEfficientAnsatz::new(4, 2, Entanglement::Circular);
        let circ = ansatz.build();
        let params: Vec<f64> = (0..circ.num_parameters())
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let out = run_circuit(&circ, &params, &Statevector::zero_state(4));
        assert!(close(out.norm(), 1.0));
    }

    fn max_diff(a: &Statevector, b: &Statevector) -> f64 {
        a.to_amplitudes()
            .iter()
            .zip(b.to_amplitudes())
            .map(|(x, y)| (*x - y).norm())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fast_kernels_match_reference_on_dense_states() {
        // A state with every amplitude distinct, so index mix-ups cannot cancel.
        let n = 6;
        let dim = 1usize << n;
        let raw: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
            .collect();
        let base = {
            let mut v = Statevector::from_amplitudes(raw);
            v.normalize();
            v
        };
        for q in 0..n {
            let mut fast = base.clone();
            let mut naive = base.clone();
            apply_single_qubit(&mut fast, q, &rx_matrix(0.7));
            reference::apply_single_qubit(&mut naive, q, &rx_matrix(0.7));
            assert!(close(fast.overlap(&naive), 1.0), "1q mismatch on qubit {q}");
        }
        for (cq, tq) in [(0, 1), (1, 0), (2, 5), (5, 2), (4, 3)] {
            let mut fast = base.clone();
            let mut naive = base.clone();
            apply_cx(&mut fast, cq, tq);
            reference::apply_cx(&mut naive, cq, tq);
            assert!(close(fast.overlap(&naive), 1.0), "CX mismatch {cq}->{tq}");
            let mut fast = base.clone();
            let mut naive = base.clone();
            apply_cz(&mut fast, cq, tq);
            reference::apply_cz(&mut naive, cq, tq);
            assert!(close(fast.overlap(&naive), 1.0), "CZ mismatch {cq}->{tq}");
        }
        for label in ["ZZIIZZ", "XIYIZX", "YYYYYY", "IIXXII", "ZIIIII", "IIIIIX"] {
            let string = PauliString::from_label(label).unwrap();
            let mut fast = base.clone();
            let mut naive = base.clone();
            apply_pauli_rotation(&mut fast, &string, 1.234);
            reference::apply_pauli_rotation(&mut naive, &string, 1.234);
            assert!(
                close(fast.overlap(&naive), 1.0),
                "rotation mismatch on {label}"
            );
            let mut fast = base.clone();
            let mut naive = base.clone();
            apply_pauli_string(&mut fast, &string);
            reference::apply_pauli_string(&mut naive, &string);
            let diff = max_diff(&fast, &naive);
            assert!(diff < 1e-14, "pauli-string mismatch on {label}: {diff}");
        }
    }

    #[test]
    fn pauli_string_application_is_phase_exact_involution() {
        // Applying P twice is the exact identity (P² = I), amplitude for amplitude.
        let n = 5;
        let base = {
            let dim = 1usize << n;
            let mut v = Statevector::from_amplitudes(
                (0..dim)
                    .map(|i| Complex64::new((i as f64 * 0.19).cos(), (i as f64 * 0.41).sin()))
                    .collect(),
            );
            v.normalize();
            v
        };
        for label in ["XYZIX", "IIZZI", "YIIIY", "XXXXX"] {
            let string = PauliString::from_label(label).unwrap();
            let mut twice = base.clone();
            apply_pauli_string(&mut twice, &string);
            apply_pauli_string(&mut twice, &string);
            let diff = max_diff(&twice, &base);
            assert!(diff < 1e-14, "P² ≠ I for {label}: {diff}");
        }
    }
}
