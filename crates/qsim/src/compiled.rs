//! Compiled circuits: a one-time lowering pass that turns a [`Circuit`] into a short
//! list of fused operations, so optimizer inner loops never re-walk (or re-decode) the
//! gate list when only the parameter vector changes.
//!
//! # Why compile?
//!
//! Applying a circuit gate by gate ([`crate::apply_gate`] in a loop) pays one full pass
//! over the `2^n`-amplitude state per gate.  Most ansätze are dominated by two patterns
//! that waste those passes:
//!
//! * **Runs of single-qubit gates on the same qubit** (`Ry·Rz` layers, basis-change
//!   sandwiches like `H·Rz·H`).  Any such run is itself a single 2×2 unitary, so the
//!   compiler fuses each maximal run into one [`crate::apply_single_qubit`] op —
//!   including runs that *contain parameterized rotations*, whose 2×2 product is
//!   re-formed from the bound parameters in O(1) at execution time.
//! * **Runs of diagonal gates** (`CZ`, Z-string Pauli rotations — a whole QAOA cost layer
//!   is nothing else).  Every diagonal gate multiplies amplitude `b` by
//!   `exp(i·φ·(−1)^popcount(b & mask))` for some `(mask, φ)` pairs, so a run of `k`
//!   diagonal gates collapses into **one** pass that applies all the phase terms at once
//!   instead of `k` passes over the state.  From 4 terms on 8 qubits up the pass is
//!   *tabulated*: the register splits at `s = ⌈n/2⌉`, the terms on either side fold into
//!   a low and a high phase table, and each term whose mask spans the split becomes two
//!   factor streams over the low index, one per parity of its high side.  Every `2^s`
//!   block then multiplies `high · low[j]` and its spanning terms' streams into the
//!   amplitudes with contiguous vector loops — on IEEE-14 MaxCut, 6 of the 20 terms of a
//!   cost layer span the split.
//! * **Runs of CX gates** (the entangling rings and ladders of hardware-efficient
//!   ansätze).  A CX maps basis index `b` to `b ^ (bit_c(b) << t)`, a GF(2)-linear map,
//!   so a run of them is one linear map, composed at compile time; applying it is one
//!   gather of each lane instead of one pass per gate, and it only moves values, so every
//!   bit is the per-gate passes'.  Registers below [`CX_GATHER_MIN_QUBITS`] (10) qubits
//!   keep the per-gate passes: an A/B timing of a CX ring on the 2-vCPU reference host
//!   found no gain at 8–9 qubits, and the gather at 0.35–0.46× the per-gate time from
//!   10 to 12 qubits (0.3× at 14).  A noise trajectory whose Pauli insertion fires
//!   *inside* a run applies that run gate by gate, so the insertion lands between the
//!   same two CX passes as ever.
//!
//! * **Runs of single-qubit ops on different qubits** (a QAOA mixer, a
//!   hardware-efficient rotation layer).  Fusion leaves one op per qubit, and each op
//!   was one pass over the state — at 14 qubits a 256 KiB walk out of L2 per op.  A
//!   maximal run of consecutive single-qubit ops whose qubits all lie below
//!   [`TILE_QUBITS`] (11) is applied tile by tile instead: every pair such an op
//!   updates lies inside one `2^11`-amplitude tile (32 KiB of lanes, which stays in a
//!   48 KiB L1), so each tile takes the whole run, op by op in circuit order, before
//!   the next tile.  Every amplitude sees the same ops in the same order on the same
//!   inputs as under one full pass per op, so no bit can move.  A run ends at an op
//!   on a higher qubit (which runs alone, one full pass), at any other op, and at an
//!   op after which a noise insertion fires; a lone op is a run of one, so this is the
//!   one single-qubit path.  The run's bound matrices sit in a fixed array (at most
//!   16 ops; a longer run is applied as several), so execution does not allocate.  In
//!   an A/B binary at 14 qubits on the 2-vCPU reference host (interleaved samples
//!   against one generic-body pass per op), the IEEE-14 mixer's 11 lone Rx ops on
//!   qubits 0–10 took 0.68–0.73× that time as one tiled run, and its three full
//!   passes on qubits 11–13 0.82–0.85×.
//!
//! Fusion looks *backwards* through the compiled op list and is allowed to commute a gate
//! past earlier ops that touch disjoint qubits (and, for diagonal gates, past other
//! diagonal ops), so interleaved per-qubit layers still fuse.
//!
//! Compilation also records the circuit's **product prefix**: the leading run of fused
//! single-qubit chains on pairwise-distinct qubits (the first rotation layer of a
//! hardware-efficient ansatz, the Hadamard layer of QAOA).  Applied to a basis state,
//! that run only builds a product state, so [`CompiledCircuit::execute_from_basis`]
//! writes it by doubling — each chain's gate kernel run on the sub-cube of indices the
//! chains so far have touched — in about three passes' worth of arithmetic instead of
//! one pass per chain, with every amplitude (zero signs included) the bits the full
//! passes produce.  The prefix stops at the first Pauli insertion of a noise
//! trajectory; the op loop resumes at the first op it does not cover.
//!
//! # Parameter slots
//!
//! Compilation never resolves [`Angle::Param`] references: each fused op records which
//! parameter slots it reads, and [`CompiledCircuit::execute_in_place`] resolves them
//! against the caller's parameter vector on every call.  Re-binding `θ` therefore costs a
//! handful of `sin_cos` calls and 2×2 multiplies — never a re-walk of the original gate
//! list — which is what makes one compiled circuit cheap to amortize over a whole batch
//! of parameter vectors (see `vqa`'s batched backends).

use crate::simulator::{
    apply_cx, apply_cz, apply_pauli_rotation, apply_pauli_string, apply_single_qubit_run,
    apply_single_qubit_subcube, for_each_run, lane_matrix, rx_matrix, ry_matrix, rz_matrix,
    submasks, LaneOp, Matrix2,
};
use qcircuit::{Angle, Circuit, Gate};
use qop::{Complex64, PauliString, Statevector};

const IDENTITY_2: Matrix2 = [
    [Complex64::new(1.0, 0.0), Complex64::new(0.0, 0.0)],
    [Complex64::new(0.0, 0.0), Complex64::new(1.0, 0.0)],
];

/// `a · b` for 2×2 complex matrices (so `b` is applied first).
fn matmul2(a: &Matrix2, b: &Matrix2) -> Matrix2 {
    [
        [
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ],
        [
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ],
    ]
}

/// Rotation axis of a parameterized single-qubit rotation inside a fused chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RotAxis {
    X,
    Y,
    Z,
}

impl RotAxis {
    fn matrix(self, theta: f64) -> Matrix2 {
        match self {
            RotAxis::X => rx_matrix(theta),
            RotAxis::Y => ry_matrix(theta),
            RotAxis::Z => rz_matrix(theta),
        }
    }
}

/// One element of a fused single-qubit chain, in application order.
#[derive(Clone, Debug)]
enum ChainElem {
    /// A product of constant gates, pre-multiplied at compile time.
    Const(Matrix2),
    /// A parameterized rotation whose matrix is formed at bind time.
    Rot(RotAxis, Angle),
}

/// A maximal run of single-qubit gates on one qubit, applied as one 2×2 unitary.
#[derive(Clone, Debug)]
struct Fused1Q {
    qubit: usize,
    elems: Vec<ChainElem>,
    /// Number of source gates folded into this chain (for [`CompileStats`]).
    gates: usize,
}

impl Fused1Q {
    fn push(&mut self, elem: ChainElem) {
        self.gates += 1;
        if let (Some(ChainElem::Const(last)), ChainElem::Const(m)) = (self.elems.last_mut(), &elem)
        {
            // Adjacent constants fold immediately; the chain only keeps a boundary at
            // parameterized rotations.
            *last = matmul2(m, last);
            return;
        }
        self.elems.push(elem);
    }

    fn bound_matrix(&self, params: &[f64]) -> Matrix2 {
        let mut acc = IDENTITY_2;
        for elem in &self.elems {
            let m = match elem {
                ChainElem::Const(m) => *m,
                ChainElem::Rot(axis, angle) => axis.matrix(angle.resolve(params)),
            };
            acc = matmul2(&m, &acc);
        }
        acc
    }
}

/// The phase exponent of one diagonal term, resolved at bind time.
#[derive(Clone, Debug)]
enum PhaseAngle {
    Fixed(f64),
    /// `φ = scale · angle.resolve(params)`.
    Param {
        angle: Angle,
        scale: f64,
    },
}

impl PhaseAngle {
    fn resolve(&self, params: &[f64]) -> f64 {
        match self {
            PhaseAngle::Fixed(phi) => *phi,
            PhaseAngle::Param { angle, scale } => scale * angle.resolve(params),
        }
    }
}

/// One term of a batched diagonal pass: multiplies amplitude `b` by
/// `exp(i·φ·(−1)^popcount(b & mask))`.
#[derive(Clone, Debug)]
struct PhaseTerm {
    mask: u64,
    angle: PhaseAngle,
}

/// A batched run of diagonal gates, applied as a single pass over the state.
#[derive(Clone, Debug)]
struct DiagonalPass {
    terms: Vec<PhaseTerm>,
    /// Accumulated global phase of the constituent gates (kept so compiled execution is
    /// amplitude-exact against gate-by-gate application, not just up to global phase).
    global: Complex64,
    /// Number of source gates folded into this pass.
    gates: usize,
}

/// Bound per-term data: the two phase factors indexed by the parity of `b & mask`.
type BoundPhase = (u64, [Complex64; 2]);

/// Terms per pass kept on the stack at execution time; passes beyond this spill to a
/// heap buffer (only reachable for >64-term diagonal runs).
const DIAG_STACK_TERMS: usize = 64;

/// A diagonal pass bound to concrete phase values, reusable across executions whose
/// resolved diagonal angles are identical (see [`CompiledCircuit::prepare_batch_tables`]).
#[derive(Clone, Debug)]
enum BoundDiagonal {
    /// Short term lists / tiny registers: the bound per-term phase factors.
    Direct(Vec<BoundPhase>),
    /// The factored low/high phase tables of the tabulated path.
    Tabulated(TabulatedTables),
}

/// The low/high-table factorization of a bound diagonal pass (see
/// [`DiagonalPass::build_tables`] for the math).
///
/// Tables are stored as split re/im lanes to match the statevector layout: the main
/// loop multiplies the amplitude lanes by a *contiguous* low-table phase stream with the
/// high-table phase hoisted per `2^s` block, so it autovectorizes like the gate kernels.
#[derive(Clone, Debug)]
struct TabulatedTables {
    /// Split position: low table indexes `b & (2^s − 1)`, high table indexes `b >> s`.
    s: usize,
    low_re: Vec<f64>,
    low_im: Vec<f64>,
    high_re: Vec<f64>,
    high_im: Vec<f64>,
    /// Terms whose mask spans the split, as factor streams over the low index.
    spans: SpanStreams,
}

/// The split-spanning terms of a tabulated pass, in term order, as factor streams.
///
/// Term `t`'s factor at amplitude `b = h·2^s + j` is `t.1[parity(b & t.0)]`, and that
/// parity is `parity(j & t.0) ⊕ c` with `c = parity((h << s) & t.0)` fixed per block.
/// So each term keeps two streams over `j` — one per `c` — and each block reads, per
/// term, the one its `c` selects.  Both factors of a bound term share their real part
/// (`bind_term` builds `[(cos φ, sin φ), (cos φ, −sin φ)]`), so it is kept once per
/// term and only the imaginary lane is streamed.
#[derive(Clone, Debug, Default)]
struct SpanStreams {
    /// Each term's mask above the split, shifted down by `s`: `c = parity(h & high)`.
    high: Vec<u64>,
    /// Each term's real part, shared by both of its factors.
    re: Vec<f64>,
    /// Imaginary lanes, term-major: term `t`'s stream for block parity `c` is
    /// `im[(2t + c)·2^s ..][..2^s]`.
    im: Vec<f64>,
}

impl DiagonalPass {
    fn push_term(&mut self, mask: u64, angle: PhaseAngle) {
        // Constant terms on the same mask merge by summing exponents.
        if let PhaseAngle::Fixed(phi) = angle {
            for term in &mut self.terms {
                if term.mask == mask {
                    if let PhaseAngle::Fixed(existing) = &mut term.angle {
                        *existing += phi;
                        return;
                    }
                }
            }
        }
        self.terms.push(PhaseTerm { mask, angle });
    }

    fn absorb(&mut self, atom: DiagonalAtom) {
        for term in atom.terms {
            self.push_term(term.mask, term.angle);
        }
        self.global *= atom.global;
        self.gates += 1;
    }

    fn execute(&self, params: &[f64], state: &mut Statevector) {
        let mut stack = [(0u64, [Complex64::ZERO; 2]); DIAG_STACK_TERMS];
        let mut heap: Vec<BoundPhase> = Vec::new();
        let bound: &[BoundPhase] = if self.terms.len() <= DIAG_STACK_TERMS {
            for (slot, term) in stack.iter_mut().zip(&self.terms) {
                *slot = Self::bind_term(term, params);
            }
            &stack[..self.terms.len()]
        } else {
            heap.extend(self.terms.iter().map(|t| Self::bind_term(t, params)));
            &heap
        };
        let num_qubits = state.num_qubits();
        if Self::use_tabulated(bound.len(), num_qubits) {
            let tables = self.build_tables(bound, num_qubits);
            self.apply_tables(&tables, state);
        } else {
            self.execute_direct(bound, state);
        }
    }

    /// Same path choice as [`DiagonalPass::execute`], so binding once and reusing is
    /// arithmetic-identical to binding per execution.
    fn use_tabulated(num_terms: usize, num_qubits: usize) -> bool {
        num_terms >= 4 && num_qubits >= 8
    }

    /// Binds every term (and, on the tabulated path, builds the phase tables) once, for
    /// reuse across a batch of executions that resolve the same diagonal angles.
    fn bind_full(&self, params: &[f64], num_qubits: usize) -> BoundDiagonal {
        let bound: Vec<BoundPhase> = self
            .terms
            .iter()
            .map(|t| Self::bind_term(t, params))
            .collect();
        if Self::use_tabulated(bound.len(), num_qubits) {
            BoundDiagonal::Tabulated(self.build_tables(&bound, num_qubits))
        } else {
            BoundDiagonal::Direct(bound)
        }
    }

    /// Executes from pre-bound data (the reuse counterpart of [`DiagonalPass::execute`]).
    fn execute_bound(&self, bound: &BoundDiagonal, state: &mut Statevector) {
        match bound {
            BoundDiagonal::Direct(terms) => self.execute_direct(terms, state),
            BoundDiagonal::Tabulated(tables) => self.apply_tables(tables, state),
        }
    }

    /// Direct evaluation: every amplitude multiplies through all bound terms.  Used for
    /// short term lists and tiny registers, where the tabulated path's setup would
    /// dominate.
    fn execute_direct(&self, bound: &[BoundPhase], state: &mut Statevector) {
        let global = self.global;
        let (re, im) = state.lanes_mut();
        // Four independent accumulators: a single product chain of K dependent complex
        // multiplies is latency-bound (each multiply waits on the last); interleaving
        // four chains restores instruction-level parallelism.
        let phase_of = |b: usize| -> Complex64 {
            let pick = |t: &BoundPhase| t.1[((b as u64 & t.0).count_ones() & 1) as usize];
            let mut acc0 = global;
            let mut acc1 = Complex64::ONE;
            let mut acc2 = Complex64::ONE;
            let mut acc3 = Complex64::ONE;
            let mut chunks = bound.chunks_exact(4);
            for ch in &mut chunks {
                acc0 *= pick(&ch[0]);
                acc1 *= pick(&ch[1]);
                acc2 *= pick(&ch[2]);
                acc3 *= pick(&ch[3]);
            }
            for t in chunks.remainder() {
                acc0 *= pick(t);
            }
            (acc0 * acc1) * (acc2 * acc3)
        };
        for (b, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let p = phase_of(b);
            let (x, y) = (*r, *i);
            *r = p.re * x - p.im * y;
            *i = p.re * y + p.im * x;
        }
    }

    /// Tabulated evaluation: split the register at `s = ⌈n/2⌉` and factor the phase into
    /// `low_table[b & (2^s−1)] · high_table[b >> s] · (boundary-spanning terms)`.
    ///
    /// Each table costs `O(√dim · K)` to fill — negligible against the `dim`-sized main
    /// loop — and afterwards an amplitude pays two sequential-access table loads plus one
    /// multiply per *spanning* term (a mask with bits on both sides of the split: 6 of
    /// the 20 terms of an IEEE-14 MaxCut cost layer), whose factors stream from
    /// [`SpanStreams`] built here too.  This is what makes one batched pass decisively
    /// cheaper than K well-pipelined per-gate passes.
    fn build_tables(&self, bound: &[BoundPhase], num_qubits: usize) -> TabulatedTables {
        let s = num_qubits.div_ceil(2);
        let low_mask = (1u64 << s) - 1;

        let mut low_terms: Vec<&BoundPhase> = Vec::new();
        let mut high_terms: Vec<&BoundPhase> = Vec::new();
        let mut span_terms: Vec<&BoundPhase> = Vec::new();
        for term in bound {
            if term.0 & !low_mask == 0 {
                low_terms.push(term);
            } else if term.0 & low_mask == 0 {
                high_terms.push(term);
            } else {
                span_terms.push(term);
            }
        }
        let spans = Self::span_streams(&span_terms, s);

        let product_at = |terms: &[&BoundPhase], bits: u64| -> Complex64 {
            let mut acc = Complex64::ONE;
            for t in terms {
                acc *= t.1[((bits & t.0).count_ones() & 1) as usize];
            }
            acc
        };
        let low: Vec<Complex64> = (0..1usize << s)
            .map(|v| product_at(&low_terms, v as u64))
            .collect();
        // The global phase rides on the (smaller) high table.
        let high: Vec<Complex64> = (0..1usize << (num_qubits - s))
            .map(|h| self.global * product_at(&high_terms, (h as u64) << s))
            .collect();
        TabulatedTables {
            s,
            low_re: low.iter().map(|p| p.re).collect(),
            low_im: low.iter().map(|p| p.im).collect(),
            high_re: high.iter().map(|p| p.re).collect(),
            high_im: high.iter().map(|p| p.im).collect(),
            spans,
        }
    }

    /// The factor streams of the split-spanning `terms` at split `s` (see
    /// [`SpanStreams`]).
    fn span_streams(terms: &[&BoundPhase], s: usize) -> SpanStreams {
        let block = 1usize << s;
        let mut im = vec![0.0; 2 * terms.len() * block];
        for (streams, (mask, factors)) in im.chunks_exact_mut(2 * block).zip(terms) {
            debug_assert_eq!(factors[0].re.to_bits(), factors[1].re.to_bits());
            let (even, odd) = streams.split_at_mut(block);
            for (j, (e, o)) in even.iter_mut().zip(odd).enumerate() {
                let c = ((j as u64 & mask).count_ones() & 1) as usize;
                (*e, *o) = (factors[c].im, factors[c ^ 1].im);
            }
        }
        SpanStreams {
            high: terms.iter().map(|(mask, _)| mask >> s).collect(),
            re: terms.iter().map(|(_, factors)| factors[0].re).collect(),
            im,
        }
    }

    /// Applies the tabulated phase pass: amplitude `b` is multiplied by
    /// `low[b & low_mask] · high[b >> s]` (· spanning terms).  Because `b` sweeps the
    /// low table **sequentially** within each `2^s` block, the split-lane main loop is a
    /// contiguous four-stream product — amplitude lanes × low-table lanes with the block's
    /// high phase hoisted — which vectorizes.  Spanning terms vectorize too: each block
    /// picks every term's factor stream by the block's high-side parity (see
    /// [`SpanStreams`]), and [`apply_spanning_block`] multiplies the picked streams into
    /// [`SPAN_LANES`] amplitudes' phases at a time, held in registers.
    fn apply_tables(&self, tables: &TabulatedTables, state: &mut Statevector) {
        let TabulatedTables {
            s,
            low_re,
            low_im,
            high_re,
            high_im,
            spans,
        } = tables;
        let s = *s;
        let block = 1usize << s;
        // `use_tabulated` admits 8 qubits and up, so a block holds at least 16 amplitudes.
        assert_eq!(
            block % SPAN_LANES,
            0,
            "tabulated block smaller than SPAN_LANES"
        );
        // Per block, each spanning term's stream start; on the stack up to
        // `DIAG_STACK_TERMS` spanning terms.
        let mut stack = [0usize; DIAG_STACK_TERMS];
        let mut heap: Vec<usize> = Vec::new();
        let starts: &mut [usize] = if spans.high.len() <= DIAG_STACK_TERMS {
            &mut stack[..spans.high.len()]
        } else {
            heap.resize(spans.high.len(), 0);
            &mut heap
        };
        let (re, im) = state.lanes_mut();
        // One contiguous 2^s block of amplitudes per high-table entry.
        for (h, (r_block, i_block)) in re
            .chunks_exact_mut(block)
            .zip(im.chunks_exact_mut(block))
            .enumerate()
        {
            if starts.is_empty() {
                apply_tabulated_block(r_block, i_block, low_re, low_im, high_re[h], high_im[h]);
                continue;
            }
            for (t, (start, high)) in starts.iter_mut().zip(&spans.high).enumerate() {
                let c = ((h as u64 & high).count_ones() & 1) as usize;
                *start = (2 * t + c) << s;
            }
            apply_spanning_block(
                r_block,
                i_block,
                low_re,
                low_im,
                (high_re[h], high_im[h]),
                spans,
                starts,
            );
        }
    }

    fn bind_term(term: &PhaseTerm, params: &[f64]) -> BoundPhase {
        let phi = term.angle.resolve(params);
        let (s, c) = phi.sin_cos();
        (term.mask, [Complex64::new(c, s), Complex64::new(c, -s)])
    }
}

/// One `2^s` amplitude block of the span-free tabulated diagonal pass: multiplies each
/// amplitude by `high · low[j]`.  A free function so the lane and table slices arrive
/// as `noalias` parameters and the four-stream zip autovectorizes.
fn apply_tabulated_block(
    r_block: &mut [f64],
    i_block: &mut [f64],
    low_re: &[f64],
    low_im: &[f64],
    hr: f64,
    hi: f64,
) {
    for ((r, i), (lr, li)) in r_block
        .iter_mut()
        .zip(i_block.iter_mut())
        .zip(low_re.iter().zip(low_im))
    {
        // p = high · low, then a *= p — two complex multiplies kept in the same
        // operation order as the unfactored path.
        let (pr, pi) = (lr * hr - li * hi, lr * hi + li * hr);
        let (x, y) = (*r, *i);
        *r = x * pr - y * pi;
        *i = x * pi + y * pr;
    }
}

/// Amplitudes [`apply_spanning_block`] carries through its term loop at once: their
/// running phases stay in registers while every term's factors multiply in.
const SPAN_LANES: usize = 16;

/// One `2^s` amplitude block of the tabulated pass with split-spanning terms; `starts`
/// holds this block's stream start per term (see [`SpanStreams`]).
///
/// Per run of [`SPAN_LANES`] amplitudes: `p = high · low[j]`, then `p *= f_t[j]` for
/// every spanning term in term order, then `a *= p`.  Each amplitude sees the
/// multiplies of the per-amplitude form in the same order, each written as the same
/// expression as `Complex64`'s product, so every bit is that form's; each step is a
/// fixed-width operation on split lanes, so it vectorizes.
fn apply_spanning_block(
    r_block: &mut [f64],
    i_block: &mut [f64],
    low_re: &[f64],
    low_im: &[f64],
    (hr, hi): (f64, f64),
    spans: &SpanStreams,
    starts: &[usize],
) {
    for (j, ((r, i), (lr, li))) in r_block
        .chunks_exact_mut(SPAN_LANES)
        .zip(i_block.chunks_exact_mut(SPAN_LANES))
        .zip(
            low_re
                .chunks_exact(SPAN_LANES)
                .zip(low_im.chunks_exact(SPAN_LANES)),
        )
        .enumerate()
    {
        let j = j * SPAN_LANES;
        let mut pr = [0.0f64; SPAN_LANES];
        let mut pi = [0.0f64; SPAN_LANES];
        for k in 0..SPAN_LANES {
            pr[k] = lr[k] * hr - li[k] * hi;
            pi[k] = lr[k] * hi + li[k] * hr;
        }
        for (&fr, &at) in spans.re.iter().zip(starts) {
            let fi = &spans.im[at + j..][..SPAN_LANES];
            for k in 0..SPAN_LANES {
                let (x, y) = (pr[k], pi[k]);
                pr[k] = x * fr - y * fi[k];
                pi[k] = x * fi[k] + y * fr;
            }
        }
        // a *= p, staged through arrays so it vectorizes like the steps above.
        let (mut x, mut y) = ([0.0f64; SPAN_LANES], [0.0f64; SPAN_LANES]);
        x.copy_from_slice(r);
        y.copy_from_slice(i);
        for k in 0..SPAN_LANES {
            (x[k], y[k]) = (x[k] * pr[k] - y[k] * pi[k], x[k] * pi[k] + y[k] * pr[k]);
        }
        r.copy_from_slice(&x);
        i.copy_from_slice(&y);
    }
}

/// Registers below this many qubits apply CX runs gate by gate.  Measured on the 2-vCPU
/// reference host (A/B timing of a compiled `n`-CX ring, medians of interleaved
/// samples): at 8 qubits per-gate 0.5–0.7 µs against a gather of 0.6 µs, at 9 0.8–1.2
/// against 0.7–1.4, at 10 2.1–3.6 against 0.7–1.5, at 12 13–17 against 6.0–7.7, at 14
/// 91–110 against 28–34.  A constant, like the tabulated diagonal pass's threshold, so a
/// circuit's path is a function of the circuit alone.
pub const CX_GATHER_MIN_QUBITS: usize = 10;

/// Single-qubit runs on qubits below this many are applied in tiles of
/// `2^TILE_QUBITS` amplitudes (see "Why compile?"): 2^11 amplitudes are 32 KiB of
/// lanes, which stay in a 48 KiB L1 across the run's ops.  A constant, like
/// [`CX_GATHER_MIN_QUBITS`], so a circuit's path is a function of the circuit alone;
/// registers of up to 11 qubits are one tile.
pub const TILE_QUBITS: usize = 11;

/// The most ops one tiled single-qubit run binds at once (a fixed array, so execution
/// does not allocate); a longer run is applied as several, with the same bits.
const MAX_TILED_RUN: usize = 16;

/// Amplitudes of one output line of a [`CxRun`]'s gather: one 64-byte cache line of a
/// lane.
const CX_LINE: usize = 8;

thread_local! {
    /// The executing thread's spare lanes for [`CxRun::apply`]: the gather writes into
    /// them and swaps them with the state's, so a thread holds one spare register
    /// however many states it executes (the scratch pool's slots hold none).
    static SPARE: std::cell::RefCell<Statevector> =
        std::cell::RefCell::new(Statevector::zero_state(0));
}

/// A maximal run of two or more consecutive [`CompiledOp::Cx`] ops, composed at compile
/// time into the one basis-index permutation it applies.
///
/// A CX maps index `b` to `b ^ (bit_c(b) << t)`, a GF(2)-linear map, so a run of them is
/// one invertible linear map `F`, and its output at `j` is its input at `F⁻¹(j)`.  The
/// run is applied as one gather of each lane, [`CX_LINE`] contiguous outputs at a time:
/// the outputs `L + w` of line `L` read the inputs `F⁻¹(L) ^ F⁻¹(w)`.  A permutation only
/// moves values, so the gather leaves every bit where the per-gate passes leave it.
///
/// The lines are visited in tiles, so the inputs stay in L1: with `W` the offsets inside
/// a line, each tile is one coset of `U = W + F(W)` (at most 64 amplitudes, 8 lines),
/// and its inputs — a coset of `F⁻¹(U) ⊇ W` — are at most 8 whole input lines, each read
/// by this tile only.  Visited in index order instead, the ring's gather reads each input
/// line eight times, far apart; in one A/B timing that took 5.3 µs against 4.5 tiled at
/// 12 qubits, and 23.7 µs against 16.5 at 14.
#[derive(Clone, Debug)]
struct CxRun {
    /// The run's ops, `[start, end)`.
    start: usize,
    end: usize,
    /// `(L, F⁻¹(L))` for every output line start `L`, tile by tile.
    lines: Vec<(u32, u32)>,
    /// `F⁻¹(w)` for every offset `w` inside a line.
    within: [usize; CX_LINE],
}

impl CxRun {
    /// Every maximal run of two or more CX ops in `ops`, from [`CX_GATHER_MIN_QUBITS`]
    /// qubits up.
    fn find_all(ops: &[OpEntry], num_qubits: usize) -> Vec<CxRun> {
        let mut runs = Vec::new();
        if num_qubits < CX_GATHER_MIN_QUBITS {
            return runs;
        }
        let mut start = 0;
        while start < ops.len() {
            let gates: Vec<(usize, usize)> = ops[start..]
                .iter()
                .map_while(|entry| match entry.op {
                    CompiledOp::Cx(c, t) => Some((c, t)),
                    _ => None,
                })
                .collect();
            if gates.len() >= 2 {
                runs.push(CxRun::compose(start, &gates, num_qubits));
            }
            start += gates.len().max(1);
        }
        runs
    }

    fn compose(start: usize, gates: &[(usize, usize)], num_qubits: usize) -> CxRun {
        let cx = |b: usize, &(c, t): &(usize, usize)| b ^ (((b >> c) & 1) << t);
        let forward = |b: usize| gates.iter().fold(b, cx);
        // Each CX is its own inverse, so F⁻¹ applies the gates last to first.
        let inverse = |b: usize| gates.iter().rev().fold(b, cx);
        // An echelon basis of U = W + F(W), one vector per leading bit; reducing an index
        // by it gives the canonical representative of the index's coset, its tile.
        let mut basis = [0usize; usize::BITS as usize];
        for mut v in (0..CX_LINE.trailing_zeros()).flat_map(|k| [1 << k, forward(1 << k)]) {
            while v != 0 {
                let lead = v.ilog2() as usize;
                if basis[lead] == 0 {
                    basis[lead] = v;
                    break;
                }
                v ^= basis[lead];
            }
        }
        let tile = |mut b: usize| {
            for (lead, &v) in basis.iter().enumerate().rev() {
                if v != 0 && (b >> lead) & 1 == 1 {
                    b ^= v;
                }
            }
            b
        };
        let mut lines: Vec<usize> = (0..1usize << num_qubits).step_by(CX_LINE).collect();
        lines.sort_by_key(|&line| (tile(line), line));
        CxRun {
            start,
            end: start + gates.len(),
            lines: lines
                .into_iter()
                .map(|line| {
                    let index =
                        |b| u32::try_from(b).expect("a register holds at most 2^30 amplitudes");
                    (index(line), index(inverse(line)))
                })
                .collect(),
            within: std::array::from_fn(inverse),
        }
    }

    /// Applies the run: gathers both lanes into the thread's spare lanes and swaps them
    /// in.
    fn apply(&self, state: &mut Statevector) {
        SPARE.with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.num_qubits() != state.num_qubits() {
                *spare = state.zeros_like();
            }
            let (re, im) = state.lanes();
            let (out_re, out_im) = spare.lanes_mut();
            gather_lines(re, im, out_re, out_im, &self.lines, &self.within);
            std::mem::swap(state, &mut *spare);
        });
    }
}

/// `out[L + w] = lane[F⁻¹(L) ^ within[w]]` for both lanes and every `(L, F⁻¹(L))` of
/// `lines` (see [`CxRun`]).  The index mask (every source is below the register size; the
/// mask only tells the compiler) keeps the loads free of bounds checks, and staging a
/// line's indices and values in arrays lets the compiler vectorize the index arithmetic
/// and the stores.  Timed alone on the 2-vCPU host (12-qubit ring, six runs): 4.7–6.7 µs
/// this way, 6.5–8.6 µs with the loads written straight into the output lines, and
/// 3.8–5.7 µs with AVX2 hardware gathers, which would save ≈ 1 µs per ring, ≈ 2 % of a
/// 12-qubit HEA job, for a second, unsafe body.
fn gather_lines(
    re: &[f64],
    im: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
    lines: &[(u32, u32)],
    within: &[usize; CX_LINE],
) {
    let mask = re.len() - 1;
    let im = &im[..re.len()];
    for &(at, from) in lines {
        let (at, from) = (at as usize, from as usize);
        let src: [usize; CX_LINE] = std::array::from_fn(|w| (from ^ within[w]) & mask);
        let r: [f64; CX_LINE] = std::array::from_fn(|w| re[src[w]]);
        let i: [f64; CX_LINE] = std::array::from_fn(|w| im[src[w]]);
        out_re[at..at + CX_LINE].copy_from_slice(&r);
        out_im[at..at + CX_LINE].copy_from_slice(&i);
    }
}

/// A diagonal gate lowered to phase terms, before it is merged into (or becomes) a pass.
struct DiagonalAtom {
    terms: Vec<PhaseTerm>,
    global: Complex64,
    /// The op to emit if no neighbouring diagonal work exists (dedicated kernels beat a
    /// one-gate phase pass).
    single: CompiledOp,
}

/// One compiled operation.
#[derive(Clone, Debug)]
enum CompiledOp {
    Fused1Q(Fused1Q),
    Cx(usize, usize),
    Cz(usize, usize),
    /// A (possibly non-diagonal) Pauli rotation on the dedicated involution-pair kernel.
    Rotation(PauliString, Angle),
    Diagonal(DiagonalPass),
}

impl CompiledOp {
    fn is_diagonal(&self) -> bool {
        match self {
            CompiledOp::Cz(..) | CompiledOp::Diagonal(_) => true,
            CompiledOp::Rotation(string, _) => string.x_mask() == 0,
            _ => false,
        }
    }
}

struct OpEntry {
    op: CompiledOp,
    /// Bitmask of touched qubits (used for commutation-by-disjointness during fusion).
    mask: u64,
}

/// One potential error location of a compiled circuit: a source gate, the compiled op it
/// was folded into, and the qubits it touches.
///
/// Stochastic Pauli-trajectory noise simulation (`qnoise`) attaches a per-gate error
/// channel to every site and pre-samples, per trajectory, the list of
/// [`PauliInsertion`]s to replay through
/// [`CompiledCircuit::execute_in_place_with_insertions`] — the compiled gate list itself
/// is never re-walked.  An error attached to a fused op fires when that op *completes*;
/// for gates that were commuted backwards during fusion this coarse-grains the error
/// location to the op they merged into (exact for depolarizing channels, which commute
/// with the single-qubit chain they ride on, and first-order-exact otherwise).
#[derive(Clone, Debug)]
pub struct NoiseSite {
    /// Index of the compiled op this gate was folded into; the error fires after it.
    pub op_index: usize,
    /// The qubits the source gate touches.
    pub qubits: Vec<usize>,
    /// Whether the source gate was entangling (two-or-more-qubit) — noise models charge
    /// entangling gates a different (usually much larger) error rate.
    pub entangling: bool,
}

/// One pre-sampled Pauli error of a noise trajectory: apply `string` after compiled op
/// `after_op` executes.
#[derive(Clone, Debug, PartialEq)]
pub struct PauliInsertion {
    /// Compiled-op index this error fires after (an [`NoiseSite::op_index`]).
    pub after_op: usize,
    /// The error to apply, as a full-register Pauli string.
    pub string: PauliString,
}

/// One bound diagonal pass of a [`BatchTables`], plus the resolved first-term phase it
/// was bound for (the staleness fingerprint checked on every cached execution in debug
/// builds).
#[derive(Clone, Debug)]
struct BoundTableEntry {
    bound: BoundDiagonal,
    first_phi_bits: u64,
}

/// Pre-bound diagonal-pass data shared across a batch of executions.
///
/// Built by [`CompiledCircuit::prepare_batch_tables`] when every parameter vector of a
/// batch resolves a diagonal pass to the same phase values — the common case for noise
/// trajectories (K executions of one binding) and calibration batches.  Passes whose
/// angles differ across the batch simply stay unbound and re-bind per execution.
///
/// Tables are only valid for the circuit and the parameter bindings they were prepared
/// from: executing them against a different circuit is rejected (op-count check), and
/// executing against parameters that resolve different diagonal angles is caught by a
/// per-pass fingerprint in debug builds.
#[derive(Clone, Debug, Default)]
pub struct BatchTables {
    /// One slot per compiled op; `Some` only for diagonal passes bound once.
    per_op: Vec<Option<BoundTableEntry>>,
}

impl BatchTables {
    /// Number of diagonal passes that were bound once for the whole batch.
    pub fn num_bound(&self) -> usize {
        self.per_op.iter().filter(|b| b.is_some()).count()
    }
}

/// Summary of what compilation achieved (surfaced by examples and benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileStats {
    /// Gates in the source circuit (identity rotations excluded).
    pub source_gates: usize,
    /// Compiled operations (state passes) after fusion.
    pub compiled_ops: usize,
    /// Fused single-qubit chains that absorbed at least two gates.
    pub fused_chains: usize,
    /// Batched diagonal passes.
    pub diagonal_passes: usize,
    /// Source gates folded into diagonal passes.
    pub diagonal_gates_batched: usize,
    /// Runs of two or more consecutive CX ops applied as one index gather (registers of
    /// [`CX_GATHER_MIN_QUBITS`] qubits and up; smaller registers count none).
    pub cx_runs: usize,
}

/// A circuit lowered into fused operations; see the module docs for the pass design.
///
/// # Examples
///
/// ```
/// use qcircuit::{Angle, Circuit, Gate};
/// use qop::{PauliString, Statevector};
/// use qsim::CompiledCircuit;
///
/// // H·Rz(θ)·H on one qubit compiles to a single fused 2×2 op.
/// let mut c = Circuit::new(1);
/// c.push(Gate::H(0));
/// c.push(Gate::Rz(0, Angle::param(0)));
/// c.push(Gate::H(0));
/// let compiled = CompiledCircuit::compile(&c);
/// assert_eq!(compiled.stats().compiled_ops, 1);
///
/// let mut state = Statevector::zero_state(1);
/// compiled.execute_in_place(&[0.8], &mut state);
/// // H Rz(θ) H |0⟩ has P(0) = cos²(θ/2).
/// assert!((state.probability(0) - (0.8f64 / 2.0).cos().powi(2)).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    num_qubits: usize,
    ops: Vec<OpEntry>,
    stats: CompileStats,
    /// One entry per source gate (identity rotations excluded), in source order.
    noise_sites: Vec<NoiseSite>,
    /// Length of the product prefix: the leading run of [`CompiledOp::Fused1Q`] ops on
    /// pairwise-distinct qubits, which [`CompiledCircuit::execute_from_basis`] writes
    /// by doubling instead of one pass per op.
    prefix: usize,
    /// The maximal runs of two or more consecutive [`CompiledOp::Cx`] ops, in op order,
    /// each composed into one index map (empty below [`CX_GATHER_MIN_QUBITS`] qubits).
    cx_runs: Vec<CxRun>,
}

impl Clone for OpEntry {
    fn clone(&self) -> Self {
        OpEntry {
            op: self.op.clone(),
            mask: self.mask,
        }
    }
}

impl std::fmt::Debug for OpEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.op.fmt(f)
    }
}

/// Touched-qubit mask of a gate; qubits ≥ 64 saturate to "touches everything", which
/// only disables fusion (never correctness).
fn qubit_mask(qubits: impl IntoIterator<Item = usize>) -> u64 {
    qubits.into_iter().fold(0u64, |acc, q| {
        acc | 1u64.checked_shl(q as u32).unwrap_or(u64::MAX)
    })
}

impl CompiledCircuit {
    /// Lowers `circuit` into fused operations.  Identity Pauli rotations (global phase
    /// only) are dropped, matching [`crate::apply_gate`].
    pub fn compile(circuit: &Circuit) -> Self {
        let mut ops: Vec<OpEntry> = Vec::new();
        let mut source_gates = 0usize;
        let mut noise_sites: Vec<NoiseSite> = Vec::new();
        for gate in circuit.gates() {
            let op_index = match Self::classify(gate) {
                Lowered::Skip => continue,
                Lowered::Single(q, elem, diagonal) => {
                    source_gates += 1;
                    Self::merge_single(&mut ops, q, elem, diagonal)
                }
                Lowered::Diagonal(atom) => {
                    source_gates += 1;
                    Self::merge_diagonal(&mut ops, atom)
                }
                Lowered::Other(op, mask) => {
                    source_gates += 1;
                    ops.push(OpEntry { op, mask });
                    ops.len() - 1
                }
            };
            noise_sites.push(NoiseSite {
                op_index,
                qubits: gate.qubits(),
                entangling: gate.is_entangling(),
            });
        }
        let mut stats = CompileStats {
            source_gates,
            compiled_ops: ops.len(),
            fused_chains: 0,
            diagonal_passes: 0,
            diagonal_gates_batched: 0,
            cx_runs: 0,
        };
        for entry in &ops {
            match &entry.op {
                CompiledOp::Fused1Q(f) if f.gates >= 2 => stats.fused_chains += 1,
                CompiledOp::Diagonal(d) => {
                    stats.diagonal_passes += 1;
                    stats.diagonal_gates_batched += d.gates;
                }
                _ => {}
            }
        }
        let mut touched = 0u64;
        let prefix = ops
            .iter()
            .take_while(|entry| {
                let fresh = matches!(entry.op, CompiledOp::Fused1Q(_)) && touched & entry.mask == 0;
                touched |= entry.mask;
                fresh
            })
            .count();
        let cx_runs = CxRun::find_all(&ops, circuit.num_qubits());
        stats.cx_runs = cx_runs.len();
        CompiledCircuit {
            num_qubits: circuit.num_qubits(),
            ops,
            stats,
            noise_sites,
            prefix,
            cx_runs,
        }
    }

    /// Register size of the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of compiled operations (full state passes per execution).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Compilation summary.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// This circuit with every CX run applied gate by gate, as registers below
    /// [`CX_GATHER_MIN_QUBITS`] qubits apply them: the same ops, noise sites and product
    /// prefix, with no run gathered.  It exists as the oracle the gather is held to (the
    /// `CX run gather ≡ per-gate CX` row of `tests/src/relational.rs`).
    pub fn with_per_gate_cx(&self) -> CompiledCircuit {
        CompiledCircuit {
            cx_runs: Vec::new(),
            stats: CompileStats {
                cx_runs: 0,
                ..self.stats
            },
            ..self.clone()
        }
    }

    /// Executes the compiled circuit on `state`, resolving parameter slots against
    /// `params`.  Allocation-free for circuits whose diagonal passes hold at most 64
    /// phase terms and take the direct path; a tabulated pass (4 or more terms on 8 or
    /// more qubits) builds its phase tables on every call unless
    /// [`CompiledCircuit::prepare_batch_tables`] bound them once.  A CX run (from
    /// [`CX_GATHER_MIN_QUBITS`] qubits) gathers into the executing thread's spare lanes
    /// and swaps them with `state`'s, so `state` comes back holding other buffers of the
    /// same size; the spare is allocated on the thread's first run of a register size.
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ or a parameter slot is out of range for
    /// `params`.
    pub fn execute_in_place(&self, params: &[f64], state: &mut Statevector) {
        self.execute_full(params, state, None, &[], None);
    }

    /// Executes starting from `initial`, writing into `scratch` (the zero-allocation
    /// batch building block: `scratch`'s buffers are reused when dimensions match, or
    /// swapped with the thread's spare lanes by a CX run — see
    /// [`CompiledCircuit::execute_in_place`]).
    pub fn execute_into(&self, params: &[f64], initial: &Statevector, scratch: &mut Statevector) {
        scratch.clone_from(initial);
        self.execute_in_place(params, scratch);
    }

    /// The noise sites of the source circuit, in source-gate order (see [`NoiseSite`]).
    pub fn noise_sites(&self) -> &[NoiseSite] {
        &self.noise_sites
    }

    /// Binds the diagonal passes once for a whole batch of parameter vectors.
    ///
    /// For every diagonal pass whose phase angles resolve to **bit-identical** values
    /// under all of `params_list` (always true for fixed-angle gates, for batches that
    /// only vary non-diagonal parameters, and for the K-trajectories-of-one-binding
    /// batches of noise simulation), the pass's bound terms — and on the tabulated path
    /// its `O(√dim)` low/high phase tables — are computed once here instead of once per
    /// execution.  Executing with the returned tables via
    /// [`CompiledCircuit::execute_in_place_with_insertions`] is arithmetic-identical to
    /// [`CompiledCircuit::execute_in_place`]: the same binding and table-construction
    /// code runs, just once.
    pub fn prepare_batch_tables(&self, params_list: &[&[f64]]) -> BatchTables {
        let mut per_op: Vec<Option<BoundTableEntry>> = vec![None; self.ops.len()];
        let Some((first, rest)) = params_list.split_first() else {
            return BatchTables { per_op };
        };
        for (slot, entry) in per_op.iter_mut().zip(&self.ops) {
            let CompiledOp::Diagonal(pass) = &entry.op else {
                continue;
            };
            let uniform = pass.terms.iter().all(|t| {
                let phi = t.angle.resolve(first).to_bits();
                rest.iter().all(|p| t.angle.resolve(p).to_bits() == phi)
            });
            if uniform {
                *slot = Some(BoundTableEntry {
                    bound: pass.bind_full(first, self.num_qubits),
                    first_phi_bits: pass.terms[0].angle.resolve(first).to_bits(),
                });
            }
        }
        BatchTables { per_op }
    }

    /// Executes the compiled circuit while replaying a pre-sampled Pauli error stream:
    /// each [`PauliInsertion`] is applied immediately after its `after_op` op executes.
    ///
    /// This is the noise-trajectory hot path (`qnoise`): the insertion schedule is
    /// sampled once per trajectory from the [`CompiledCircuit::noise_sites`] table, and
    /// replaying it costs one [`apply_pauli_string`] pass per *fired* error — the
    /// compiled op list is never re-walked or re-lowered.  With an empty schedule this
    /// is exactly [`CompiledCircuit::execute_in_place`] (bit-identical, same code path),
    /// which the `rate-zero rollout ≡ ideal` row of `tests/src/relational.rs` pins.
    ///
    /// # Panics
    ///
    /// Panics if `insertions` is not sorted by `after_op` or references an op index out
    /// of range, in addition to the register/parameter panics of
    /// [`CompiledCircuit::execute_in_place`].
    pub fn execute_in_place_with_insertions(
        &self,
        params: &[f64],
        state: &mut Statevector,
        insertions: &[PauliInsertion],
        tables: Option<&BatchTables>,
    ) {
        self.execute_full(params, state, tables, insertions, None);
    }

    /// Overwrites `state` with the circuit applied to the basis state `|basis⟩`,
    /// replaying `insertions` and using `tables` as
    /// [`CompiledCircuit::execute_in_place_with_insertions`] does.
    ///
    /// Bit-identical to [`Statevector::set_basis_state`] followed by that call, zero
    /// signs included, but the product prefix — the leading single-qubit chains on
    /// distinct qubits, up to the first insertion — costs about three passes over the
    /// state however many qubits it covers (see the module docs), instead of one
    /// preparation pass plus one pass per chain.
    ///
    /// # Panics
    ///
    /// Panics if `basis` is out of range for the register, and as
    /// [`CompiledCircuit::execute_in_place_with_insertions`] does.
    pub fn execute_from_basis(
        &self,
        basis: u64,
        params: &[f64],
        state: &mut Statevector,
        insertions: &[PauliInsertion],
        tables: Option<&BatchTables>,
    ) {
        self.execute_full(params, state, tables, insertions, Some(basis));
    }

    /// Writes ops `[0, len)` of the product prefix applied to `|basis⟩` into `state`,
    /// every amplitude of it.
    ///
    /// After the chains on the qubit set `S` have run on a basis state, the full passes
    /// would have left each amplitude a value that depends only on its `S` bits and on
    /// whether its other bits agree with `basis`: `v(s)` where they do, `z(s)` — a
    /// signed zero — where they do not.  So this keeps just two copies: `v(s)` at the
    /// agreeing index, and `z(s)` one qubit away from it, on the qubit of the next chain
    /// (or, after the last chain, on any qubit outside `S`).  Each chain then copies
    /// `z(s)` to where its next `z` copies belong and runs the gate kernel itself on the
    /// sub-cube those indices span ([`apply_single_qubit_subcube`]) — the very pairs
    /// the full pass would update, with the very inputs it would see — so every value,
    /// zero signs included, is the full pass's.  Sub-cubes double per chain, so the
    /// whole prefix costs about three full passes of arithmetic; when the prefix leaves
    /// qubits untouched, a final copy pass spreads `z` over the disagreeing indices.
    fn write_product_prefix(
        &self,
        basis: u64,
        len: usize,
        params: &[f64],
        state: &mut Statevector,
    ) {
        assert!((basis as usize) < state.dim(), "basis index out of range");
        if len == 0 {
            state.set_basis_state(basis);
            return;
        }
        let chain = |k: usize| match &self.ops[k].op {
            CompiledOp::Fused1Q(f) => f,
            _ => unreachable!("the product prefix holds single-qubit chains only"),
        };
        let all = state.dim() - 1;
        let b = basis as usize;
        let covered = (0..len).fold(0, |acc, k| acc | (1usize << chain(k).qubit));
        // The qubit the `z` copies sit on after the last chain.
        let spare = (covered != all).then(|| 1usize << (!covered & all).trailing_zeros());
        let (re, im) = state.lanes_mut();
        let z_at = b ^ (1usize << chain(0).qubit);
        (re[b], im[b], re[z_at], im[z_at]) = (1.0, 0.0, 0.0, 0.0);
        let mut done = 0usize;
        for k in 0..len {
            let bit = 1usize << chain(k).qubit;
            let next = (k + 1 < len)
                .then(|| 1usize << chain(k + 1).qubit)
                .or(spare);
            if let Some(next) = next {
                // z(s) sits at the agreeing index with `bit` flipped; copy it to both
                // values of `bit` with `next` flipped.
                let (re, im) = state.lanes_mut();
                for_each_run(done, b & !done, |at, run| {
                    let src = at ^ bit..(at ^ bit) + run;
                    for dst in [at ^ next, at ^ next ^ bit] {
                        re.copy_within(src.clone(), dst);
                        im.copy_within(src.clone(), dst);
                    }
                });
            }
            let cube = done | bit | next.unwrap_or(0);
            let matrix = chain(k).bound_matrix(params);
            apply_single_qubit_subcube(state, bit, &matrix, cube, b & !cube);
            done |= bit;
        }
        if let Some(spare) = spare {
            // Every index that disagrees with `basis` outside `covered` holds z(s).
            let outside = all & !covered;
            let (v_at, z_at) = (b & outside, (b & outside) ^ spare);
            let (re, im) = state.lanes_mut();
            for pattern in submasks(outside).filter(|&p| p != v_at && p != z_at) {
                for_each_run(covered, z_at, |at, run| {
                    let dst = (at & covered) | pattern;
                    re.copy_within(at..at + run, dst);
                    im.copy_within(at..at + run, dst);
                });
            }
        }
    }

    fn execute_full(
        &self,
        params: &[f64],
        state: &mut Statevector,
        tables: Option<&BatchTables>,
        insertions: &[PauliInsertion],
        basis: Option<u64>,
    ) {
        assert_eq!(
            self.num_qubits,
            state.num_qubits(),
            "compiled circuit acts on {} qubits but the state has {}",
            self.num_qubits,
            state.num_qubits()
        );
        assert!(
            insertions
                .windows(2)
                .all(|w| w[0].after_op <= w[1].after_op),
            "Pauli insertions must be sorted by after_op"
        );
        if let Some(t) = tables {
            assert_eq!(
                t.per_op.len(),
                self.ops.len(),
                "batch tables were prepared for a different compiled circuit"
            );
        }
        let start = match basis {
            Some(basis) => {
                // The prefix stops at the op after which the first insertion fires.
                let len = insertions
                    .first()
                    .map_or(self.prefix, |p| self.prefix.min(p.after_op + 1));
                self.write_product_prefix(basis, len, params, state);
                len
            }
            None => 0,
        };
        let mut cursor = 0usize;
        // Fires every insertion that fires after an op before `op`.
        let fire_before = |state: &mut Statevector, cursor: &mut usize, op: usize| {
            while *cursor < insertions.len() && insertions[*cursor].after_op < op {
                apply_pauli_string(state, &insertions[*cursor].string);
                *cursor += 1;
            }
        };
        fire_before(state, &mut cursor, start);
        // The first CX run at or after `start`, and the ops below `resume`, which a
        // gathered run applied.
        let mut next_run = self.cx_runs.partition_point(|run| run.start < start);
        let mut resume = start;
        // The bound matrices of the single-qubit run being applied.
        let mut run = [(0, [0.0; 8]); MAX_TILED_RUN];
        for (i, entry) in self.ops.iter().enumerate().skip(start) {
            if i < resume {
                continue;
            }
            let bound = tables.and_then(|t| t.per_op.get(i).and_then(Option::as_ref));
            match &entry.op {
                CompiledOp::Fused1Q(_) => {
                    let len = self.single_qubit_run(i, insertions.get(cursor), params, &mut run);
                    apply_single_qubit_run(state, &run[..len]);
                    resume = i + len;
                    fire_before(state, &mut cursor, resume);
                    continue;
                }
                CompiledOp::Cx(c, t) => {
                    if let Some(run) = self.cx_runs.get(next_run).filter(|r| r.start == i) {
                        next_run += 1;
                        // The run is one permutation unless an insertion fires strictly
                        // inside it; then its CX ops run one by one, and the insertion
                        // lands between them.
                        let inside = insertions
                            .get(cursor)
                            .is_some_and(|p| p.after_op < run.end - 1);
                        if !inside {
                            run.apply(state);
                            resume = run.end;
                            fire_before(state, &mut cursor, run.end);
                            continue;
                        }
                    }
                    apply_cx(state, *c, *t);
                }
                CompiledOp::Cz(c, t) => apply_cz(state, *c, *t),
                CompiledOp::Rotation(string, angle) => {
                    apply_pauli_rotation(state, string, angle.resolve(params));
                }
                CompiledOp::Diagonal(pass) => match bound {
                    Some(entry) => {
                        // Stale-table misuse (tables prepared for a binding whose
                        // diagonal angles differ from `params`) corrupts amplitudes
                        // silently; the fingerprint catches it in debug builds.
                        debug_assert_eq!(
                            pass.terms[0].angle.resolve(params).to_bits(),
                            entry.first_phi_bits,
                            "batch tables are stale: diagonal angles changed since \
                             prepare_batch_tables"
                        );
                        pass.execute_bound(&entry.bound, state);
                    }
                    None => pass.execute(params, state),
                },
            }
            fire_before(state, &mut cursor, i + 1);
        }
        assert_eq!(
            cursor,
            insertions.len(),
            "Pauli insertion references op index {} but the circuit has {} ops",
            insertions.get(cursor).map(|p| p.after_op).unwrap_or(0),
            self.ops.len()
        );
    }

    /// Binds the single-qubit run that starts at op `start` into `run` and returns its
    /// length: the consecutive [`CompiledOp::Fused1Q`] ops from `start` on, all on qubits
    /// below [`TILE_QUBITS`], at most [`MAX_TILED_RUN`] of them, ending early at the op
    /// after which `next_insertion` fires.  An op on a higher qubit is a run of one.
    fn single_qubit_run(
        &self,
        start: usize,
        next_insertion: Option<&PauliInsertion>,
        params: &[f64],
        run: &mut [LaneOp; MAX_TILED_RUN],
    ) -> usize {
        let mut len = 0;
        for (k, entry) in self.ops.iter().enumerate().skip(start) {
            let CompiledOp::Fused1Q(f) = &entry.op else {
                break;
            };
            if len > 0 && (f.qubit >= TILE_QUBITS || run[0].0 >= TILE_QUBITS) {
                break;
            }
            run[len] = (f.qubit, lane_matrix(&f.bound_matrix(params)));
            len += 1;
            let fires = next_insertion.is_some_and(|p| p.after_op == k);
            if fires || len == MAX_TILED_RUN {
                break;
            }
        }
        len
    }

    fn classify(gate: &Gate) -> Lowered {
        use std::f64::consts::FRAC_PI_4;
        match gate {
            Gate::H(q) => Lowered::single_const(*q, h_matrix(), false),
            Gate::X(q) => Lowered::single_const(*q, x_matrix(), false),
            Gate::Y(q) => Lowered::single_const(*q, y_matrix(), false),
            Gate::Z(q) => Lowered::single_const(*q, z_matrix(), true),
            Gate::S(q) => Lowered::single_const(*q, s_matrix(), true),
            Gate::Sdg(q) => Lowered::single_const(*q, sdg_matrix(), true),
            Gate::Rx(q, a) => Lowered::Single(*q, ChainElem::Rot(RotAxis::X, *a), false),
            Gate::Ry(q, a) => Lowered::Single(*q, ChainElem::Rot(RotAxis::Y, *a), false),
            Gate::Rz(q, a) => Lowered::Single(*q, ChainElem::Rot(RotAxis::Z, *a), true),
            Gate::Cx(c, t) => Lowered::Other(CompiledOp::Cx(*c, *t), qubit_mask([*c, *t])),
            Gate::Cz(c, t) => {
                // CZ = e^{iπ/4} · exp(−iπ/4·(−1)^{b_c}) · exp(−iπ/4·(−1)^{b_t})
                //               · exp(+iπ/4·(−1)^{b_c⊕b_t}).
                let (cm, tm) = (qubit_mask([*c]), qubit_mask([*t]));
                let (s, co) = FRAC_PI_4.sin_cos();
                Lowered::Diagonal(DiagonalAtom {
                    terms: vec![
                        PhaseTerm {
                            mask: cm,
                            angle: PhaseAngle::Fixed(-FRAC_PI_4),
                        },
                        PhaseTerm {
                            mask: tm,
                            angle: PhaseAngle::Fixed(-FRAC_PI_4),
                        },
                        PhaseTerm {
                            mask: cm | tm,
                            angle: PhaseAngle::Fixed(FRAC_PI_4),
                        },
                    ],
                    global: Complex64::new(co, s),
                    single: CompiledOp::Cz(*c, *t),
                })
            }
            Gate::PauliRotation(string, a) => {
                if string.is_identity() {
                    // Global phase only; skipped by `apply_gate` and reference alike.
                    return Lowered::Skip;
                }
                if string.x_mask() == 0 {
                    // exp(−iθ/2·(−1)^{popcount(b & z)}): one phase term, no global phase.
                    let angle = match *a {
                        Angle::Fixed(theta) => PhaseAngle::Fixed(-theta / 2.0),
                        Angle::Param { .. } => PhaseAngle::Param {
                            angle: *a,
                            scale: -0.5,
                        },
                    };
                    Lowered::Diagonal(DiagonalAtom {
                        terms: vec![PhaseTerm {
                            mask: string.z_mask(),
                            angle,
                        }],
                        global: Complex64::ONE,
                        single: CompiledOp::Rotation(*string, *a),
                    })
                } else {
                    let mask = qubit_mask(string.iter_non_identity().map(|(q, _)| q));
                    Lowered::Other(CompiledOp::Rotation(*string, *a), mask)
                }
            }
        }
    }

    /// Merges a single-qubit gate into an existing chain on the same qubit, commuting it
    /// past earlier ops on disjoint qubits (and, for diagonal gates, past diagonal ops).
    /// Returns the op index the gate landed in.
    fn merge_single(
        ops: &mut Vec<OpEntry>,
        q: usize,
        elem: ChainElem,
        elem_diagonal: bool,
    ) -> usize {
        let qmask = qubit_mask([q]);
        let mut target = None;
        let mut i = ops.len();
        while i > 0 {
            let entry = &ops[i - 1];
            if let CompiledOp::Fused1Q(f) = &entry.op {
                if f.qubit == q {
                    target = Some(i - 1);
                    break;
                }
            }
            let commutes = entry.mask & qmask == 0 || (elem_diagonal && entry.op.is_diagonal());
            if !commutes {
                break;
            }
            i -= 1;
        }
        if let Some(j) = target {
            if let CompiledOp::Fused1Q(f) = &mut ops[j].op {
                f.push(elem);
                return j;
            }
        }
        ops.push(OpEntry {
            op: CompiledOp::Fused1Q(Fused1Q {
                qubit: q,
                elems: vec![elem],
                gates: 1,
            }),
            mask: qmask,
        });
        ops.len() - 1
    }

    /// Merges a diagonal gate into an earlier diagonal op (pass, CZ, or diagonal
    /// rotation), commuting it past disjoint or diagonal ops; otherwise emits its
    /// dedicated-kernel form.  Returns the op index the gate landed in.
    fn merge_diagonal(ops: &mut Vec<OpEntry>, atom: DiagonalAtom) -> usize {
        let mask = atom.terms.iter().fold(0u64, |acc, t| acc | t.mask);
        let mut target = None;
        let mut i = ops.len();
        while i > 0 {
            let entry = &ops[i - 1];
            if entry.op.is_diagonal() {
                target = Some(i - 1);
                break;
            }
            if entry.mask & mask != 0 {
                break;
            }
            i -= 1;
        }
        if let Some(j) = target {
            let entry = &mut ops[j];
            // Convert the earlier op to a pass if needed, then absorb the new gate.
            if !matches!(entry.op, CompiledOp::Diagonal(_)) {
                let prior = std::mem::replace(&mut entry.op, CompiledOp::Cx(0, 0));
                let prior_atom = Self::reclassify_diagonal(prior)
                    .expect("every op reported diagonal lowers back to phase terms");
                let mut pass = DiagonalPass {
                    terms: Vec::new(),
                    global: Complex64::ONE,
                    gates: 0,
                };
                pass.absorb(prior_atom);
                entry.op = CompiledOp::Diagonal(pass);
            }
            if let CompiledOp::Diagonal(pass) = &mut entry.op {
                pass.absorb(atom);
            }
            entry.mask |= mask;
            return j;
        }
        ops.push(OpEntry {
            op: atom.single,
            mask,
        });
        ops.len() - 1
    }

    /// Re-lowers an already-emitted diagonal op back into phase terms so it can seed a
    /// pass once a second diagonal gate shows up.
    fn reclassify_diagonal(op: CompiledOp) -> Option<DiagonalAtom> {
        let gate = match op {
            CompiledOp::Cz(c, t) => Gate::Cz(c, t),
            CompiledOp::Rotation(string, angle) => Gate::PauliRotation(string, angle),
            _ => return None,
        };
        match Self::classify(&gate) {
            Lowered::Diagonal(atom) => Some(atom),
            _ => None,
        }
    }
}

enum Lowered {
    Skip,
    /// `(qubit, element, element is diagonal)`.
    Single(usize, ChainElem, bool),
    Diagonal(DiagonalAtom),
    Other(CompiledOp, u64),
}

impl Lowered {
    fn single_const(q: usize, m: Matrix2, diagonal: bool) -> Lowered {
        Lowered::Single(q, ChainElem::Const(m), diagonal)
    }
}

fn c(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

fn h_matrix() -> Matrix2 {
    let f = std::f64::consts::FRAC_1_SQRT_2;
    [[c(f, 0.0), c(f, 0.0)], [c(f, 0.0), c(-f, 0.0)]]
}
fn x_matrix() -> Matrix2 {
    [[c(0.0, 0.0), c(1.0, 0.0)], [c(1.0, 0.0), c(0.0, 0.0)]]
}
fn y_matrix() -> Matrix2 {
    [[c(0.0, 0.0), c(0.0, -1.0)], [c(0.0, 1.0), c(0.0, 0.0)]]
}
fn z_matrix() -> Matrix2 {
    [[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(-1.0, 0.0)]]
}
fn s_matrix() -> Matrix2 {
    [[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(0.0, 1.0)]]
}
fn sdg_matrix() -> Matrix2 {
    [[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(0.0, -1.0)]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::reference;
    use qop::PauliOp;

    fn dense_state(n: usize) -> Statevector {
        let dim = 1usize << n;
        let mut psi = Statevector::from_amplitudes(
            (0..dim)
                .map(|i| Complex64::new((i as f64 * 0.137).sin() + 0.3, (i as f64 * 0.291).cos()))
                .collect(),
        );
        psi.normalize();
        psi
    }

    fn max_diff(a: &Statevector, b: &Statevector) -> f64 {
        a.to_amplitudes()
            .iter()
            .zip(b.to_amplitudes())
            .map(|(x, y)| (*x - y).norm())
            .fold(0.0, f64::max)
    }

    /// Asserts two states are equal to the last bit, lane for lane.
    fn assert_bit_identical(a: &Statevector, b: &Statevector, context: &str) {
        for (x, y) in a.re().iter().zip(b.re()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{context} (re)");
        }
        for (x, y) in a.im().iter().zip(b.im()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{context} (im)");
        }
    }

    fn assert_compiled_matches_reference(circuit: &Circuit, params: &[f64]) {
        let initial = dense_state(circuit.num_qubits());
        let compiled = CompiledCircuit::compile(circuit);
        let mut fast = initial.clone();
        compiled.execute_in_place(params, &mut fast);
        let naive = reference::run_circuit(circuit, params, &initial);
        let diff = max_diff(&fast, &naive);
        assert!(diff < 1e-12, "compiled/reference mismatch: {diff}");
    }

    #[test]
    fn constant_single_qubit_runs_fuse_to_one_op() {
        let mut circ = Circuit::new(2);
        circ.push(Gate::H(0));
        circ.push(Gate::X(0));
        circ.push(Gate::S(0));
        circ.push(Gate::H(1));
        circ.push(Gate::Sdg(0));
        let compiled = CompiledCircuit::compile(&circ);
        // Chain on qubit 0 (4 gates, crossing the disjoint H(1)) plus the H(1) chain.
        assert_eq!(compiled.num_ops(), 2);
        assert_eq!(compiled.stats().fused_chains, 1);
        assert_compiled_matches_reference(&circ, &[]);
    }

    #[test]
    fn parameterized_rotations_fuse_into_chains() {
        let mut circ = Circuit::new(2);
        circ.push(Gate::Ry(0, Angle::param(0)));
        circ.push(Gate::Ry(1, Angle::param(1)));
        circ.push(Gate::Rz(0, Angle::param(2)));
        circ.push(Gate::Rz(1, Angle::param(3)));
        let compiled = CompiledCircuit::compile(&circ);
        // One Ry·Rz chain per qubit, interleaved in the source order.
        assert_eq!(compiled.num_ops(), 2);
        assert_compiled_matches_reference(&circ, &[0.3, -0.7, 1.1, 0.4]);
        // Re-binding executes against new parameters without recompiling.
        assert_compiled_matches_reference(&circ, &[-1.0, 0.2, 0.0, 2.2]);
    }

    #[test]
    fn cx_blocks_fusion_across_it() {
        let mut circ = Circuit::new(2);
        circ.push(Gate::H(0));
        circ.push(Gate::Cx(0, 1));
        circ.push(Gate::H(0));
        let compiled = CompiledCircuit::compile(&circ);
        assert_eq!(compiled.num_ops(), 3);
        assert_compiled_matches_reference(&circ, &[]);
    }

    #[test]
    fn qaoa_cost_layer_batches_into_one_diagonal_pass() {
        let n = 4;
        let mut circ = Circuit::new(n);
        for q in 0..n {
            circ.push(Gate::H(q));
        }
        for q in 0..n {
            let mut label = vec!['I'; n];
            label[q] = 'Z';
            label[(q + 1) % n] = 'Z';
            let string = PauliString::from_label(&label.iter().collect::<String>()).unwrap();
            circ.push(Gate::PauliRotation(string, Angle::param(q)));
        }
        circ.push(Gate::Cz(0, 2));
        let compiled = CompiledCircuit::compile(&circ);
        let stats = compiled.stats();
        assert_eq!(stats.diagonal_passes, 1);
        assert_eq!(stats.diagonal_gates_batched, n + 1);
        // n Hadamard chains + 1 diagonal pass.
        assert_eq!(compiled.num_ops(), n + 1);
        assert_compiled_matches_reference(&circ, &[0.3, 0.9, -0.4, 1.7]);
    }

    #[test]
    fn lone_diagonal_gates_stay_on_dedicated_kernels() {
        let mut circ = Circuit::new(3);
        circ.push(Gate::H(0));
        circ.push(Gate::Cz(0, 1));
        circ.push(Gate::H(1));
        let compiled = CompiledCircuit::compile(&circ);
        assert_eq!(compiled.stats().diagonal_passes, 0);
        assert_compiled_matches_reference(&circ, &[]);
    }

    #[test]
    fn diagonal_gates_commute_past_each_other_into_one_pass() {
        // CZ · Rz-rotation(ZZ) with a non-diagonal Rx in between on a disjoint qubit.
        let mut circ = Circuit::new(3);
        circ.push(Gate::Cz(0, 1));
        circ.push(Gate::Rx(2, Angle::Fixed(0.4)));
        circ.push(Gate::PauliRotation(
            PauliString::from_label("ZZI").unwrap(),
            Angle::Fixed(0.9),
        ));
        let compiled = CompiledCircuit::compile(&circ);
        assert_eq!(compiled.stats().diagonal_passes, 1);
        assert_compiled_matches_reference(&circ, &[]);
    }

    #[test]
    fn identity_rotation_is_skipped() {
        let mut circ = Circuit::new(2);
        circ.push(Gate::H(0));
        circ.push(Gate::PauliRotation(
            PauliString::identity(2),
            Angle::Fixed(1.0),
        ));
        let compiled = CompiledCircuit::compile(&circ);
        assert_eq!(compiled.num_ops(), 1);
        assert_compiled_matches_reference(&circ, &[]);
    }

    #[test]
    fn hea_ansatz_matches_reference_and_shrinks() {
        use qcircuit::{Entanglement, HardwareEfficientAnsatz};
        let circ = HardwareEfficientAnsatz::new(5, 3, Entanglement::Circular).build();
        let params: Vec<f64> = (0..circ.num_parameters())
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let compiled = CompiledCircuit::compile(&circ);
        assert!(
            compiled.num_ops() < circ.num_gates(),
            "fusion should shrink the op list: {} vs {}",
            compiled.num_ops(),
            circ.num_gates()
        );
        assert_compiled_matches_reference(&circ, &params);
    }

    #[test]
    fn execute_into_reuses_scratch() {
        let mut circ = Circuit::new(3);
        circ.push(Gate::H(0));
        circ.push(Gate::Cx(0, 1));
        circ.push(Gate::Ry(2, Angle::param(0)));
        let compiled = CompiledCircuit::compile(&circ);
        let initial = Statevector::zero_state(3);
        let mut scratch = Statevector::zero_state(3);
        let buffer = scratch.re().as_ptr();
        compiled.execute_into(&[0.7], &initial, &mut scratch);
        assert_eq!(buffer, scratch.re().as_ptr(), "scratch reallocated");
        let expected = reference::run_circuit(&circ, &[0.7], &initial);
        assert!(max_diff(&expected, &scratch) < 1e-12);
    }

    #[test]
    fn noise_sites_track_fused_gates() {
        let mut circ = Circuit::new(2);
        circ.push(Gate::H(0));
        circ.push(Gate::Rz(0, Angle::param(0)));
        circ.push(Gate::Cx(0, 1));
        circ.push(Gate::H(1));
        let compiled = CompiledCircuit::compile(&circ);
        let sites = compiled.noise_sites();
        assert_eq!(sites.len(), 4, "one site per source gate");
        // H and Rz fuse into op 0; CX is op 1; the trailing H is op 2.
        assert_eq!(sites[0].op_index, sites[1].op_index);
        assert_eq!(sites[2].qubits, vec![0, 1]);
        assert!(sites[2].entangling);
        assert!(!sites[0].entangling);
        assert!(sites.iter().all(|s| s.op_index < compiled.num_ops()));
        // Identity rotations contribute no site.
        let mut with_id = Circuit::new(2);
        with_id.push(Gate::H(0));
        with_id.push(Gate::PauliRotation(
            PauliString::identity(2),
            Angle::Fixed(0.4),
        ));
        assert_eq!(CompiledCircuit::compile(&with_id).noise_sites().len(), 1);
    }

    #[test]
    fn insertions_fire_after_their_op() {
        // X inserted after the (single) H op flips the state exactly like appending an
        // X gate to the circuit.
        let mut circ = Circuit::new(2);
        circ.push(Gate::H(0));
        let compiled = CompiledCircuit::compile(&circ);
        let mut noisy = Statevector::zero_state(2);
        let insertions = [super::PauliInsertion {
            after_op: 0,
            string: PauliString::from_label("IX").unwrap(),
        }];
        compiled.execute_in_place_with_insertions(&[], &mut noisy, &insertions, None);

        let mut with_gate = Circuit::new(2);
        with_gate.push(Gate::H(0));
        with_gate.push(Gate::X(1));
        let expected = reference::run_circuit(&with_gate, &[], &Statevector::zero_state(2));
        assert!(max_diff(&noisy, &expected) < 1e-12);
    }

    #[test]
    fn empty_insertion_schedule_is_bit_identical_to_plain_execution() {
        use qcircuit::{Entanglement, HardwareEfficientAnsatz};
        let circ = HardwareEfficientAnsatz::new(4, 2, Entanglement::Circular).build();
        let params: Vec<f64> = (0..circ.num_parameters())
            .map(|i| (i as f64 * 0.29).sin())
            .collect();
        let compiled = CompiledCircuit::compile(&circ);
        let mut plain = dense_state(4);
        let mut noisy = plain.clone();
        compiled.execute_in_place(&params, &mut plain);
        compiled.execute_in_place_with_insertions(&params, &mut noisy, &[], None);
        assert_bit_identical(&plain, &noisy, "empty insertion schedule");
    }

    #[test]
    fn batch_tables_bind_uniform_diagonal_passes_and_match_exactly() {
        // A 9-qubit QAOA-style circuit: the diagonal pass takes the tabulated path
        // (≥4 terms, ≥8 qubits), so the cached execution reuses real low/high tables.
        let n = 9;
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
        let compiled = CompiledCircuit::compile(&circ);
        assert_eq!(compiled.stats().diagonal_passes, 1);

        // Two bindings that share the diagonal parameter but vary the mixer.
        let a = [0.7, 0.3];
        let b = [0.7, -1.1];
        let tables = compiled.prepare_batch_tables(&[&a, &b]);
        assert_eq!(tables.num_bound(), 1);
        for (params, label) in [(&a, "a"), (&b, "b")] {
            let mut cached = Statevector::zero_state(n);
            let mut fresh = Statevector::zero_state(n);
            compiled.execute_in_place_with_insertions(
                params.as_slice(),
                &mut cached,
                &[],
                Some(&tables),
            );
            compiled.execute_in_place(params.as_slice(), &mut fresh);
            assert_bit_identical(&cached, &fresh, &format!("binding {label}"));
        }

        // A binding that changes the diagonal parameter disables the reuse.
        let c = [0.9, 0.3];
        let tables = compiled.prepare_batch_tables(&[&a, &c]);
        assert_eq!(tables.num_bound(), 0);
    }

    #[test]
    fn product_prefix_is_the_leading_layer_on_distinct_qubits() {
        use qcircuit::{Entanglement, HardwareEfficientAnsatz};
        // The benchmark's 12-qubit ansatz: the Ry·Rz layer, then CX ladders.
        let hea = HardwareEfficientAnsatz::new(12, 2, Entanglement::Circular).build();
        let hea = CompiledCircuit::compile(&hea);
        assert_eq!((hea.prefix, hea.num_ops()), (12, 60));
        // A chain that cannot join the layer ends it; so does a second chain on a qubit.
        let mut circ = Circuit::new(3);
        circ.push(Gate::H(0));
        circ.push(Gate::Cx(0, 1));
        circ.push(Gate::H(2));
        assert_eq!(CompiledCircuit::compile(&circ).prefix, 1);
        let mut circ = Circuit::new(3);
        circ.push(Gate::H(1));
        circ.push(Gate::Rx(2, Angle::param(0)));
        circ.push(Gate::Cx(1, 2));
        circ.push(Gate::H(1));
        assert_eq!(CompiledCircuit::compile(&circ).prefix, 2);
    }

    #[test]
    fn expectations_survive_compilation() {
        // End-to-end sanity: energy of a compiled HEA state equals the reference's.
        use qcircuit::{Entanglement, HardwareEfficientAnsatz};
        let circ = HardwareEfficientAnsatz::new(4, 2, Entanglement::Linear).build();
        let params: Vec<f64> = (0..circ.num_parameters())
            .map(|i| 0.21 * i as f64)
            .collect();
        let op = PauliOp::from_labels(4, &[("ZZII", -1.0), ("IXXI", 0.4), ("IIZZ", -0.6)]);
        let compiled = CompiledCircuit::compile(&circ);
        let mut state = Statevector::zero_state(4);
        compiled.execute_in_place(&params, &mut state);
        let expected = reference::run_circuit(&circ, &params, &Statevector::zero_state(4));
        assert!((op.expectation(&state) - op.expectation(&expected)).abs() < 1e-12);
    }
}
