//! One readout per state: a cached term basis for sets of Pauli-sum operators.
//!
//! TreeVQA evaluates many operators on one prepared state — a cluster's mixed
//! Hamiltonian plus every member Hamiltonian — and those operators are, by construction,
//! different coefficient vectors over (nearly) the same Pauli strings (the paper's *term
//! padding*, Section 5.2.1).  A [`TermBasis`] is built once from such an ordered operator
//! set: it holds the **distinct** strings, and per operator a `(string, coefficient)`
//! list in that operator's own term order.  [`TermBasis::evaluate`] then makes one
//! readout of the state — every distinct string evaluated exactly once — and
//! [`TermBasis::op_value`] / [`TermBasis::op_term_values`] contract any operator from
//! the resulting value vector.  Operators × strings is a small matrix contraction over
//! one vector of per-string values, not operators × strings passes over `2^n`
//! amplitudes.
//!
//! This module is also the workspace's only expectation kernel:
//! [`PauliOp::expectation`], [`PauliOp::term_expectations`] and
//! [`PauliOp::string_expectation`] are thin wrappers that build a transient basis.
//!
//! # Kernels
//!
//! Strings are partitioned into one **diagonal** group (`x_mask == 0`) and
//! **off-diagonal** groups of equal `x_mask`:
//!
//! * the diagonal group shares `|ψ_b|²`, and every string applies its own sign stream
//!   to it (the [`crate::lanes::SignTable`] factorization, over process-wide memoized
//!   low tables);
//! * an off-diagonal group shares the involution pairing `b ↔ b ⊕ x` and with it the
//!   pair products `d = Re(conj(ψ_{b⊕x})·ψ_b)`, `e = Im(conj(ψ_{b⊕x})·ψ_b)`; each
//!   string contributes only its own sign and `i^{n_Y}`.
//!
//! Each string's value is a chain of dependent adds into its own accumulator — four
//! lanes over 256-amplitude blocks (one lane, in pair order, when the pivot is below 2)
//! — and a lone chain runs at the latency of one add per step, not at the speed of the
//! arithmetic.  So on registers of at least 256 amplitudes the readout walks the state
//! in **passes**, each running several strings' chains side by side: up to eight
//! diagonal strings over each 4-lane chunk's `|ψ_b|²`; up to four strings of one
//! off-diagonal group over each chunk's `d`/`e`; up to four single-string groups of
//! pivot ≥ 2 with the same lane permutation, each over its own products; up to four
//! pivot < 2 strings, their scalar chains interleaved.  The off-diagonal products are
//! computed inside the pass that folds them; the diagonal strings share one buffer per
//! 256-amplitude block instead — its `|ψ_b|²`, computed once and folded by every
//! diagonal string of the pass (up to 32), eight at a time, each into the accumulators
//! it keeps across the walk.
//!
//! No bit of any per-string value can move with the pass it lands in: every string
//! keeps its own accumulators, its own block and chunk order and the expression of the
//! single-string kernels this module replaced, and Rust never contracts `a * b + c`
//! into an FMA — only the interleaving across strings differs.  (The sign multiplier
//! `hs · low[j]` — hoisted block sign times low-table sign — is read from a memoized
//! `[low, −low]` table instead of multiplied per element: a product of two ±1.0 is
//! exact, so the multiplier, and every term it scales, is the same bits.)
//!
//! Registers below one 256-amplitude block have nothing to hoist per block: each string
//! there is one scalar sum in index order, and the kernels only run a few strings' sums
//! side by side to hide the add latency.
//!
//! # Determinism contracts
//!
//! * A readout is one serial pass per group over the whole register, at any thread
//!   count: per-string values are bit-identical to the former single-string serial
//!   kernel, and [`TermBasis::op_value`] is bit-identical to the former serial
//!   `Σ_k c_k ⟨P_k⟩` fold.
//! * Contraction is always a serial left fold in term order.  Together this makes a
//!   result a function of `(operators, state)` only — not of the thread count, and not
//!   of how many other states were evaluated beside it ([`crate::par::map_states`]
//!   spreads whole states over the threads, never one state's amplitudes).

use crate::complex::Complex64;
use crate::lanes::{i_power, signed_low_tables, LANES, SIGN_BLOCK, SIGN_BLOCK_BITS};
use crate::op::PauliOp;
use crate::pauli::PauliString;
use crate::statevector::Statevector;
use crate::with_lane_perm;
use std::collections::HashMap;
use std::fmt;

/// One term of an operator expressed over a [`TermBasis`]: the index of its Pauli
/// string among the basis's distinct strings, and its coefficient.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BasisTerm {
    /// Index into [`TermBasis::strings`] (and into the value vector).
    pub string: usize,
    /// The term's real coefficient.
    pub coefficient: f64,
}

/// One string, as the kernels see it.
struct Member {
    /// Index of the string's value in the output vector.
    slot: usize,
    /// The string's X mask: `0` for a diagonal string; strings of equal `x` form a
    /// group and share one pass over the state.
    x: usize,
    /// `i^{n_Y}`, the index-independent phase (1 for diagonal strings).
    g: Complex64,
    /// The factored sign stream the kernel walks: over amplitude indices for a diagonal
    /// string; over *pair* indices for an off-diagonal one, whose pair `u` has the
    /// pivot-clear index `i0` = `u` with a zero bit inserted at the pivot, so
    /// `(−1)^popcount(i0 & z)` is the parity of `u` against `z` with its pivot bit
    /// removed ([`pair_space_mask`]).
    signs: Signs,
}

/// `z` with the pivot bit of `pbit` removed and the bits above it moved down one: the
/// mask whose parity against a pair index equals `z`'s against the pair's pivot-clear
/// amplitude index.
fn pair_space_mask(z: u64, pbit: usize) -> u64 {
    let below = pbit as u64 - 1;
    (z & below) | ((z >> 1) & !below)
}

/// `sign(j) = parity_sign(j & high_mask) · low[j & 255]`: the [`crate::lanes::SignTable`]
/// factorization over shared, memoized low tables.
struct Signs {
    /// `[low, −low]` ([`signed_low_tables`]).
    tables: [&'static [f64; SIGN_BLOCK]; 2],
    high_mask: u64,
}

impl Signs {
    fn new(mask: u64) -> Self {
        Signs {
            tables: signed_low_tables(mask as u8),
            high_mask: mask & !(SIGN_BLOCK as u64 - 1),
        }
    }

    /// The low table, `low[j] = (−1)^popcount(j & mask & 255)`.
    #[inline(always)]
    fn low(&self) -> &'static [f64; SIGN_BLOCK] {
        self.tables[0]
    }

    /// The sign stream of the block starting at `block_start`: entry `j` is exactly
    /// `hs · low[j]`, with `hs = parity_sign(block_start & high_mask)` the hoisted
    /// per-block factor (both ±1.0, so the product is exact).
    #[inline(always)]
    fn block_low(&self, block_start: usize) -> &'static [f64; SIGN_BLOCK] {
        let odd = (block_start as u64 & self.high_mask).count_ones() & 1;
        self.tables[odd as usize]
    }
}

/// The distinct Pauli strings of an ordered operator set, prepared for one fused
/// readout per state (see the module docs).
///
/// # Examples
///
/// ```
/// use qop::{PauliOp, Statevector, TermBasis};
///
/// let mixed = PauliOp::from_labels(2, &[("ZZ", -0.9), ("XI", 0.3), ("IX", 0.3)]);
/// let member = PauliOp::from_labels(2, &[("ZZ", -1.0), ("XI", 0.2), ("IX", 0.2)]);
/// let basis = TermBasis::new(&[&mixed, &member]);
/// assert_eq!(basis.num_strings(), 3); // six terms, three distinct strings
///
/// let psi = Statevector::uniform_superposition(2);
/// let mut values = Vec::new();
/// basis.evaluate(&psi, &mut values); // one readout of the state
/// assert_eq!(basis.op_value(0, &values), mixed.expectation(&psi));
/// assert_eq!(basis.op_value(1, &values), member.expectation(&psi));
/// ```
pub struct TermBasis {
    num_qubits: usize,
    strings: Vec<PauliString>,
    /// Slot of the identity string when it is pinned to exactly 1.0.
    pinned_identity: Option<usize>,
    /// Every evaluated string, in kernel-pass order: each pass is a contiguous run, and
    /// so is each group of equal `x` (the diagonal group first).
    members: Vec<Member>,
    /// The kernel passes of a register of at least [`SIGN_BLOCK`] amplitudes (none
    /// below).
    passes: Vec<Pass>,
    /// Every operator's terms, concatenated; operator `i` owns
    /// `terms[op_ends[i - 1]..op_ends[i]]`.
    terms: Vec<BasisTerm>,
    op_ends: Vec<usize>,
}

impl fmt::Debug for TermBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TermBasis")
            .field("num_qubits", &self.num_qubits)
            .field("strings", &self.strings.len())
            .field("groups", &self.groups().count())
            .field("ops", &self.op_ends.len())
            .finish()
    }
}

impl TermBasis {
    /// Builds the basis of the ordered operator set `ops` (conventionally
    /// `[charged, free…]`).
    ///
    /// Strings are keyed by `(x_mask, z_mask)` and kept in first-seen order; duplicate
    /// strings inside one (unsimplified) operator share a slot.  The identity string is
    /// **pinned to exactly 1.0** — the states measured through a basis are unit-norm
    /// simulator outputs, and `⟨ψ|I|ψ⟩ = 1` must not pick up the rounding of `Σ|ψ_b|²`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or the operators act on different register sizes.
    pub fn new(ops: &[&PauliOp]) -> Self {
        Self::build(ops, true)
    }

    /// [`TermBasis::new`] with the identity evaluated as `Σ|ψ_b|²` like any other
    /// diagonal string — what the general-purpose [`PauliOp`] wrappers need, because
    /// they accept unnormalized states.
    pub(crate) fn unpinned(ops: &[&PauliOp]) -> Self {
        Self::build(ops, false)
    }

    /// A basis over explicit strings (no operators), identity not pinned.
    pub(crate) fn of_strings(num_qubits: usize, strings: Vec<PauliString>) -> Self {
        Self::from_parts(num_qubits, strings, Vec::new(), Vec::new(), false)
    }

    fn build(ops: &[&PauliOp], pin_identity: bool) -> Self {
        let first = ops.first().expect("a term basis needs an operator");
        let num_qubits = first.num_qubits();
        let total: usize = ops.iter().map(|op| op.num_terms()).sum();
        let mut index: HashMap<(u64, u64), usize> = HashMap::with_capacity(total);
        let mut strings: Vec<PauliString> = Vec::with_capacity(total);
        let mut terms = Vec::with_capacity(total);
        let mut op_ends = Vec::with_capacity(ops.len());
        for op in ops {
            assert_eq!(op.num_qubits(), num_qubits, "register size mismatch");
            terms.extend(op.terms().iter().map(|t| {
                let key = (t.string.x_mask(), t.string.z_mask());
                let string = *index.entry(key).or_insert_with(|| {
                    strings.push(t.string);
                    strings.len() - 1
                });
                BasisTerm {
                    string,
                    coefficient: t.coefficient,
                }
            }));
            op_ends.push(terms.len());
        }
        Self::from_parts(num_qubits, strings, terms, op_ends, pin_identity)
    }

    fn from_parts(
        num_qubits: usize,
        strings: Vec<PauliString>,
        terms: Vec<BasisTerm>,
        op_ends: Vec<usize>,
        pin_identity: bool,
    ) -> Self {
        let mut pinned_identity = None;
        let mut members = Vec::with_capacity(strings.len());
        for (slot, string) in strings.iter().enumerate() {
            let (x, z) = (string.x_mask() as usize, string.z_mask());
            if pin_identity && string.is_identity() {
                pinned_identity = Some(slot);
                continue;
            }
            let walked = if x == 0 {
                z
            } else {
                pair_space_mask(z, pivot_bit(x))
            };
            members.push(Member {
                slot,
                x,
                g: i_power((string.x_mask() & z).count_ones()),
                signs: Signs::new(walked),
            });
        }
        members.sort_by_key(|m| m.x);
        // The sub-block kernels walk the groups only.
        let passes = if num_qubits >= SIGN_BLOCK_BITS {
            plan_passes(&mut members)
        } else {
            Vec::new()
        };
        TermBasis {
            num_qubits,
            strings,
            pinned_identity,
            members,
            passes,
            terms,
            op_ends,
        }
    }

    /// The kernel groups: maximal runs of members with equal `x`, diagonal first (the
    /// sub-[`SIGN_BLOCK`] kernels walk these; larger registers walk the passes).
    fn groups(&self) -> impl Iterator<Item = &[Member]> {
        self.members.chunk_by(|a, b| a.x == b.x)
    }

    /// Register size of the operators (and of the states this basis can measure).
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of distinct Pauli strings — the length of the value vector.
    #[inline]
    pub fn num_strings(&self) -> usize {
        self.strings.len()
    }

    /// The distinct strings, in first-seen order.
    #[inline]
    pub fn strings(&self) -> &[PauliString] {
        &self.strings
    }

    /// Number of operators the basis was built from.
    #[inline]
    pub fn num_ops(&self) -> usize {
        self.op_ends.len()
    }

    /// Operator `op`'s terms over the basis, in the operator's own term order.
    #[inline]
    pub fn op_terms(&self, op: usize) -> &[BasisTerm] {
        let start = if op == 0 { 0 } else { self.op_ends[op - 1] };
        &self.terms[start..self.op_ends[op]]
    }

    /// Whether this basis was built from exactly the ordered operator set `ops` (same
    /// register, same terms in the same order): a cache holding the basis needs no copy
    /// of the operators to recognize them again.
    pub fn is_basis_of<'a>(&self, ops: impl IntoIterator<Item = &'a PauliOp>) -> bool {
        let mut ops = ops.into_iter();
        let all_equal = (0..self.num_ops()).all(|own| {
            ops.next().is_some_and(|op| {
                op.num_qubits() == self.num_qubits
                    && op.num_terms() == self.op_terms(own).len()
                    && op.terms().iter().zip(self.op_terms(own)).all(|(t, b)| {
                        t.coefficient == b.coefficient && t.string == self.strings[b.string]
                    })
            })
        });
        all_equal && ops.next().is_none()
    }

    /// Total number of terms across all operators (what per-operator evaluation would
    /// have cost in string passes; [`TermBasis::num_strings`] is what the basis pays).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// One readout of `psi`: writes `⟨ψ|P_s|ψ⟩` for every distinct string into `values`
    /// (resized to [`TermBasis::num_strings`]).  See the module docs for the kernels and
    /// the determinism contracts.
    ///
    /// # Panics
    ///
    /// Panics if the statevector register size differs.
    pub fn evaluate(&self, psi: &Statevector, values: &mut Vec<f64>) {
        assert_eq!(psi.num_qubits(), self.num_qubits, "register size mismatch");
        values.clear();
        values.resize(self.strings.len(), 0.0);
        let (re, im) = psi.lanes();
        if re.len() < SIGN_BLOCK {
            // Below one table block there is nothing to hoist per block: the low
            // table alone is the whole sign, and every sum is one scalar chain.  The
            // group's shared products: |ψ_b|² (in `d`), or the pair products d/e.
            let (mut d, mut e): (Block, Block) = ([0.0; SIGN_BLOCK], [0.0; SIGN_BLOCK]);
            for group in self.groups() {
                if group[0].x == 0 {
                    diagonal_tiny(re, im, group, &mut d, values);
                } else {
                    pairs_tiny(re, im, group, (&mut d, &mut e), values);
                }
            }
        } else {
            for pass in &self.passes {
                pass.run(re, im, &self.members[pass.members.clone()], values);
            }
        }
        if let Some(slot) = self.pinned_identity {
            values[slot] = 1.0;
        }
    }

    /// `Σ_k c_k · values[s_k]` over operator `op`'s terms: a serial left fold in the
    /// operator's term order, whatever regime produced `values`.
    pub fn op_value(&self, op: usize, values: &[f64]) -> f64 {
        self.op_terms(op)
            .iter()
            .map(|t| t.coefficient * values[t.string])
            .sum()
    }

    /// Operator `op`'s per-term values, in the operator's term order (the input of the
    /// analytic shot sampler and of per-term attenuation models).
    pub fn op_term_values(&self, op: usize, values: &[f64]) -> Vec<f64> {
        self.op_terms(op).iter().map(|t| values[t.string]).collect()
    }
}

/// One block of per-amplitude (or per-pair) products.
type Block = [f64; SIGN_BLOCK];

/// The pivot bit of an off-diagonal string: the highest set bit of its X mask.  Pairs
/// are enumerated with the pivot bit clear on the `i0` side.
#[inline]
fn pivot_bit(x: usize) -> usize {
    1usize << (usize::BITS - 1 - x.leading_zeros())
}

/// Strings the tiny kernels accumulate side by side.  Each string's sum is a serial
/// dependency chain (its order is part of the bit-identity contract); running a few
/// independent chains per pass hides the add latency.
const TINY_WAYS: usize = 4;

/// Runs `term(member, step)` for `step in 0..steps` into one scalar accumulator per
/// member, [`TINY_WAYS`] members side by side, and hands each total to `store`.
#[inline(always)]
fn tiny_sums(
    group: &[Member],
    steps: usize,
    term: impl Fn(&Member, usize) -> f64,
    mut store: impl FnMut(&Member, f64),
) {
    let mut ways = group.chunks_exact(TINY_WAYS);
    for four in &mut ways {
        let four: &[Member; TINY_WAYS] = four.try_into().expect("exact chunk");
        let mut acc = [0.0f64; TINY_WAYS];
        for step in 0..steps {
            for (acc, m) in acc.iter_mut().zip(four) {
                *acc += term(m, step);
            }
        }
        for (acc, m) in acc.iter().zip(four) {
            store(m, *acc);
        }
    }
    for m in ways.remainder() {
        let mut acc = 0.0;
        for step in 0..steps {
            acc += term(m, step);
        }
        store(m, acc);
    }
}

/// Diagonal strings on a register below [`SIGN_BLOCK`] amplitudes:
/// `⟨P⟩ = Σ_b (-1)^popcount(b & z) · |ψ_b|²`, one scalar accumulator per string.
fn diagonal_tiny(re: &[f64], im: &[f64], group: &[Member], p: &mut Block, values: &mut [f64]) {
    let p = &mut p[..re.len()];
    for ((p, r), i) in p.iter_mut().zip(re).zip(im) {
        *p = r * r + i * i;
    }
    tiny_sums(
        group,
        p.len(),
        |m, b| m.signs.low()[b] * p[b],
        |m, sum| values[m.slot] = sum,
    );
}

/// Off-diagonal strings of one `x_mask` on a register below [`SIGN_BLOCK`] amplitudes.
fn pairs_tiny(
    re: &[f64],
    im: &[f64],
    group: &[Member],
    (d, e): (&mut Block, &mut Block),
    values: &mut [f64],
) {
    let x = group[0].x;
    let pbit = pivot_bit(x);
    let xl = x & (pbit - 1);
    let pairs = re.len() / 2;
    // Pair `u` is `(i0, i1)` with the pivot bit clear in `i0`.
    let i0_of = |u: usize| ((u & !(pbit - 1)) << 1) | (u & (pbit - 1));
    for u in 0..pairs {
        let i0 = i0_of(u);
        let i1 = (i0 | pbit) ^ xl;
        d[u] = re[i1] * re[i0] + im[i1] * im[i0];
        e[u] = re[i1] * im[i0] - im[i1] * re[i0];
    }
    tiny_sums(
        group,
        pairs,
        |m, u| m.signs.low()[u] * (m.g.re * d[u] - m.g.im * e[u]),
        |m, sum| values[m.slot] = 2.0 * sum,
    );
}

/// Strings whose accumulator chains one shared-product or low-pivot pass runs side by
/// side.  A lone chain waits on its own add latency at every step; four
/// interleaved chains keep the vector units busy instead.
const K: usize = 4;

/// Single-string off-diagonal groups (pivot ≥ 2) one spread pass folds side by side.
const G: usize = 4;

/// What a kernel pass folds, and so how it walks the register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// Up to [`DIAGONAL_WALK`] diagonal strings over one `|ψ_b|²` per amplitude.
    Diagonal,
    /// Up to [`K`] strings of one off-diagonal group (pivot ≥ 2) over its pair
    /// products.
    Shared,
    /// Up to [`G`] single-string off-diagonal groups (pivot ≥ 2) of equal lane
    /// permutation `x & 3`, each over its own pair products.
    Spread,
    /// Up to [`K`] strings with `x ∈ {1, 2, 3}` (pivot < 2), one scalar chain each.
    LowPivot,
}

/// One pass of the readout over a register of at least [`SIGN_BLOCK`] amplitudes: the
/// members `members` (a contiguous run of [`TermBasis`]'s member order), walked once.
struct Pass {
    kind: Kind,
    members: std::ops::Range<usize>,
}

/// Reorders `members`, sorted by `x`, into pass order and returns the passes.  Which
/// string shares a pass with which changes no bit: every string keeps its own
/// accumulators.
fn plan_passes(members: &mut Vec<Member>) -> Vec<Pass> {
    // Each member's pass kind, and the key of the run of members it may share a pass
    // with: its group for a shared pass, its lane permutation for a spread one.
    let keys: Vec<(Kind, usize)> = members
        .chunk_by(|a, b| a.x == b.x)
        .flat_map(|group| {
            let x = group[0].x;
            let key = match x {
                0 => (Kind::Diagonal, 0),
                1..=3 => (Kind::LowPivot, 0),
                _ if group.len() > 1 => (Kind::Shared, x),
                _ => (Kind::Spread, x & (LANES - 1)),
            };
            std::iter::repeat(key).take(group.len())
        })
        .collect();
    let mut keyed: Vec<((Kind, usize), Member)> = keys.into_iter().zip(members.drain(..)).collect();
    // `x` breaks ties, so equal-`x` members stay contiguous; slots are unique, so the
    // order is a function of the strings alone.
    keyed.sort_unstable_by_key(|(key, m)| (*key, m.x, m.slot));
    let mut passes = Vec::new();
    let mut start = 0;
    for run in keyed.chunk_by(|a, b| a.0 == b.0) {
        let kind = run[0].0 .0;
        let width = match kind {
            Kind::Diagonal => DIAGONAL_WALK,
            Kind::Spread => G,
            _ => K,
        };
        for chunk in run.chunks(width) {
            passes.push(Pass {
                kind,
                members: start..start + chunk.len(),
            });
            start += chunk.len();
        }
    }
    members.extend(keyed.into_iter().map(|(_, m)| m));
    passes
}

impl Pass {
    /// Runs the pass over `(re, im)`, its members `ms`, into their value slots:
    /// dispatches to the kernel monomorphized for its width and lane permutation.
    fn run(&self, re: &[f64], im: &[f64], ms: &[Member], values: &mut [f64]) {
        macro_rules! by_width {
            ($kernel:ident) => {
                match ms.len() {
                    1 => $kernel::<1>(re, im, ms, values),
                    2 => $kernel::<2>(re, im, ms, values),
                    3 => $kernel::<3>(re, im, ms, values),
                    _ => $kernel::<4>(re, im, ms, values),
                }
            };
        }
        macro_rules! pairs {
            ($m:literal) => {
                match (self.kind, ms.len()) {
                    (_, 1) => pair_pass::<1, 1, $m>(re, im, ms, values),
                    (Kind::Shared, 2) => pair_pass::<1, 2, $m>(re, im, ms, values),
                    (Kind::Shared, 3) => pair_pass::<1, 3, $m>(re, im, ms, values),
                    (Kind::Shared, _) => pair_pass::<1, 4, $m>(re, im, ms, values),
                    (_, 2) => pair_pass::<2, 1, $m>(re, im, ms, values),
                    (_, 3) => pair_pass::<3, 1, $m>(re, im, ms, values),
                    _ => pair_pass::<4, 1, $m>(re, im, ms, values),
                }
            };
        }
        match self.kind {
            Kind::Diagonal => diagonal_pass(re, im, ms, values),
            Kind::LowPivot => by_width!(low_pivot_pass),
            Kind::Shared | Kind::Spread => with_lane_perm!(ms[0].x, pairs),
        }
    }
}

/// `(acc[0] + acc[1]) + (acc[2] + acc[3])`: the one reduction every block kernel ends
/// a string's 4-lane accumulator with.
///
/// Kept out of line: inlined, its lane pairing leads the vectorizer to hold each
/// accumulator as two half-width registers of lanes (0, 2) and (1, 3), with shuffles
/// at every step of the fold (measured ≈ 2× slower on the diagonal pass).  The bits are
/// the same either way.
#[inline(never)]
fn reduce(acc: &[f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Diagonal strings one pass carries the accumulators of, so one `|ψ_b|²` per block
/// serves all of them.
const DIAGONAL_WALK: usize = 32;

/// Diagonal strings one chunk loop folds side by side: each string's chain takes one
/// dependent add per chunk, so four chains leave the loop waiting on add latency, and
/// eight keep the FP ports busy instead.
const DIAGONAL_WAYS: usize = 8;

/// Up to [`DIAGONAL_WALK`] diagonal strings over a register of at least [`SIGN_BLOCK`]
/// amplitudes.  Each 256-amplitude block's `|ψ_b|²` is computed once into a block
/// buffer, then folded by up to [`DIAGONAL_WAYS`] strings at a time
/// ([`fold_diagonal`]), each into its own accumulators.
fn diagonal_pass(re: &[f64], im: &[f64], ms: &[Member], values: &mut [f64]) {
    let mut acc = [[0.0f64; LANES]; DIAGONAL_WALK];
    let mut p: Block = [0.0; SIGN_BLOCK];
    for b in (0..re.len()).step_by(SIGN_BLOCK) {
        let (r, i) = (&re[b..b + SIGN_BLOCK], &im[b..b + SIGN_BLOCK]);
        for ((p, r), i) in p.iter_mut().zip(r).zip(i) {
            *p = r * r + i * i;
        }
        for (ms, acc) in ms.chunks(DIAGONAL_WAYS).zip(acc.chunks_mut(DIAGONAL_WAYS)) {
            match ms.len() {
                1 => fold_diagonal::<1>(&p, b, ms, acc),
                2 => fold_diagonal::<2>(&p, b, ms, acc),
                3 => fold_diagonal::<3>(&p, b, ms, acc),
                4 => fold_diagonal::<4>(&p, b, ms, acc),
                5 => fold_diagonal::<5>(&p, b, ms, acc),
                6 => fold_diagonal::<6>(&p, b, ms, acc),
                7 => fold_diagonal::<7>(&p, b, ms, acc),
                _ => fold_diagonal::<8>(&p, b, ms, acc),
            }
        }
    }
    for (m, acc) in ms.iter().zip(&acc) {
        values[m.slot] = reduce(acc);
    }
}

/// One block of `W` diagonal strings: each folds `(hs · low) · |ψ_b|²` of the block's
/// buffer `p` into its own 4-lane accumulator in `acc`, chunk by chunk, the sign
/// factored through a 256-entry low table (a contiguous multiplier stream) with the
/// high-bit sign `hs` of block `b` hoisted, its products `hs · low` read from a table
/// ([`Signs::block_low`]).
#[inline(always)]
fn fold_diagonal<const W: usize>(p: &Block, b: usize, ms: &[Member], acc: &mut [[f64; LANES]]) {
    let ms: &[Member; W] = ms.try_into().expect("W members");
    let acc: &mut [[f64; LANES]; W] = (&mut acc[..W]).try_into().expect("W accumulators");
    let low: [&[f64; SIGN_BLOCK]; W] = std::array::from_fn(|w| ms[w].signs.block_low(b));
    let mut a = *acc;
    for (l, p4) in p.chunks_exact(LANES).enumerate() {
        let l = l * LANES;
        for w in 0..W {
            let l4: &[f64; LANES] = low[w][l..l + LANES].try_into().expect("in the table");
            for j in 0..LANES {
                a[w][j] += l4[j] * p4[j];
            }
        }
    }
    *acc = a;
}

/// `S` off-diagonal groups of pivot ≥ 2 and lane permutation `M`, `P` strings each
/// (one group of up to [`K`] strings, or up to [`G`] single-string groups).
///
/// Uses the involution-pair identity: the `b` and `b ⊕ x` contributions are complex
/// conjugates, so each pair contributes `2·Re(conj(ψ_{i1}) · phase · ψ_{i0})`.  Pairs
/// are walked in blocks of 256 (fewer only on a 256-amplitude register), four at a
/// time: pair `u` is `(i0, i1)` with `i0` = `u` with a zero bit inserted at the pivot
/// and `i1 = i0 ^ x`, so four 4-aligned pairs are the contiguous chunks at `i0` and
/// `(i0 + 2^pivot) ^ (xl & !3)`, the second permuted by the constant `M = xl & 3`.  A
/// group's pair products `d = Re(conj(ψ_{i1})·ψ_{i0})`, `e = Im(…)` are computed
/// once per chunk and folded at once, with each string's pair-space sign stream and
/// `i^{n_Y}`, into that string's own 4-lane accumulator.
fn pair_pass<const S: usize, const P: usize, const M: usize>(
    re: &[f64],
    im: &[f64],
    ms: &[Member],
    values: &mut [f64],
) {
    assert_eq!(ms.len(), S * P, "a pass holds S groups of P strings");
    let strings: [[&Member; P]; S] =
        std::array::from_fn(|s| std::array::from_fn(|p| &ms[s * P + p]));
    // Per group: the pivot bit and the partner offset above the lane permutation.
    let pairing: [(usize, usize); S] = std::array::from_fn(|s| {
        let x = strings[s][0].x;
        let pbit = pivot_bit(x);
        (pbit, x & (pbit - 1) & !(LANES - 1))
    });
    let mut acc = [[[0.0f64; LANES]; P]; S];
    let pairs = re.len() / 2;
    let block = pairs.min(SIGN_BLOCK);
    for u0 in (0..pairs).step_by(block) {
        // Each string's sign stream with the sign of the pair-index bits above the block
        // folded in.
        let low: [[&[f64; SIGN_BLOCK]; P]; S] =
            std::array::from_fn(|s| std::array::from_fn(|p| strings[s][p].signs.block_low(u0)));
        for k in (0..block).step_by(LANES) {
            let u = u0 + k;
            for s in 0..S {
                let (pbit, xlh) = pairing[s];
                let i0 = u + (u & !(pbit - 1));
                let i1 = (i0 + pbit) ^ xlh;
                // Four pairs never straddle a half-block (`pbit ≥ 4`, `u` 4-aligned).
                let rl: &[f64; LANES] = re[i0..i0 + LANES].try_into().expect("in range");
                let il: &[f64; LANES] = im[i0..i0 + LANES].try_into().expect("in range");
                let rh: &[f64; LANES] = re[i1..i1 + LANES].try_into().expect("in range");
                let ih: &[f64; LANES] = im[i1..i1 + LANES].try_into().expect("in range");
                let (mut d, mut e) = ([0.0f64; LANES], [0.0f64; LANES]);
                for j in 0..LANES {
                    let (r0, v0) = (rl[j], il[j]);
                    let (r1, v1) = (rh[j ^ M], ih[j ^ M]);
                    d[j] = r1 * r0 + v1 * v0;
                    e[j] = r1 * v0 - v1 * r0;
                }
                for p in 0..P {
                    let m = strings[s][p];
                    let g = m.g;
                    let sg: &[f64; LANES] =
                        low[s][p][k..k + LANES].try_into().expect("in the table");
                    for j in 0..LANES {
                        acc[s][p][j] += sg[j] * (g.re * d[j] - g.im * e[j]);
                    }
                }
            }
        }
    }
    for (strings, acc) in strings.iter().zip(&acc) {
        for (m, acc) in strings.iter().zip(acc) {
            values[m.slot] = 2.0 * reduce(acc);
        }
    }
}

/// `W` strings with `x ∈ {1, 2, 3}` (pivot < 2): one serial chain per string in pair
/// order, the chains side by side.  Every 8-amplitude window holds four whole pairs of
/// each of these X masks ([`window_products`]); a window computes the products of the
/// masks its strings use, then each string adds its four pair terms in order.
fn low_pivot_pass<const W: usize>(re: &[f64], im: &[f64], ms: &[Member], values: &mut [f64]) {
    let ms: &[Member; W] = ms.try_into().expect("a pass holds W members");
    let used: [bool; 3] = std::array::from_fn(|k| ms.iter().any(|m| m.x == k + 1));
    // Lanes 1–3 stay zero: the reduction is the block kernels' four-lane one.
    let mut acc = [[0.0f64; LANES]; W];
    let pairs = re.len() / 2;
    let block = pairs.min(SIGN_BLOCK);
    for u0 in (0..pairs).step_by(block) {
        let low: [&[f64; SIGN_BLOCK]; W] = std::array::from_fn(|w| ms[w].signs.block_low(u0));
        let amps = 2 * u0..2 * (u0 + block);
        let (re, im) = (&re[amps.clone()], &im[amps]);
        let windows = re.chunks_exact(2 * LANES).zip(im.chunks_exact(2 * LANES));
        for (k, (r, i)) in windows.enumerate() {
            let mut de = [([0.0f64; LANES], [0.0f64; LANES]); 3];
            if used[0] {
                de[0] = window_products::<1>(r, i);
            }
            if used[1] {
                de[1] = window_products::<2>(r, i);
            }
            if used[2] {
                de[2] = window_products::<3>(r, i);
            }
            let k = k * LANES;
            for (m, (acc, low)) in ms.iter().zip(acc.iter_mut().zip(low)) {
                let (d, e) = &de[m.x - 1];
                let g = m.g;
                let sg: &[f64; LANES] = low[k..k + LANES].try_into().expect("in the table");
                let terms: [f64; LANES] =
                    std::array::from_fn(|j| sg[j] * (g.re * d[j] - g.im * e[j]));
                for t in terms {
                    acc[0] += t;
                }
            }
        }
    }
    for (m, acc) in ms.iter().zip(&acc) {
        values[m.slot] = 2.0 * reduce(acc);
    }
}

/// The pair products of the X mask `X ∈ {1, 2, 3}` (pivot < 2) in one 8-amplitude
/// window, whose four whole pairs are gathered by constant shuffles — pair `k` is
/// `(i0, i1)` with `i0` = `k` with a zero bit inserted at the pivot and `i1 = i0 ^ X`.
#[inline(always)]
fn window_products<const X: usize>(r: &[f64], i: &[f64]) -> ([f64; LANES], [f64; LANES]) {
    let pbit = if X >= 2 { 2 } else { 1 };
    let i0: [usize; LANES] = std::array::from_fn(|k| ((k & !(pbit - 1)) << 1) | (k & (pbit - 1)));
    let (mut d, mut e) = ([0.0f64; LANES], [0.0f64; LANES]);
    for k in 0..LANES {
        let (r0, v0) = (r[i0[k]], i[i0[k]]);
        let (r1, v1) = (r[i0[k] ^ X], i[i0[k] ^ X]);
        d[k] = r1 * r0 + v1 * v0;
        e[k] = r1 * v0 - v1 * r0;
    }
    (d, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_state(n: usize) -> Statevector {
        let dim = 1usize << n;
        let mut psi = Statevector::from_amplitudes(
            (0..dim)
                .map(|i| Complex64::new((i as f64 * 0.37).sin() + 0.1, (i as f64 * 0.11).cos()))
                .collect(),
        );
        psi.normalize();
        psi
    }

    #[test]
    fn shared_strings_are_evaluated_once_and_contract_per_operator() {
        let a = PauliOp::from_labels(3, &[("ZZI", -1.0), ("XII", 0.3), ("IXI", 0.3)]);
        let b = PauliOp::from_labels(3, &[("ZZI", -0.8), ("XII", 0.1), ("IIY", 0.2)]);
        let basis = TermBasis::new(&[&a, &b]);
        assert_eq!(basis.num_ops(), 2);
        assert_eq!(basis.num_terms(), 6);
        assert_eq!(basis.num_strings(), 4);
        let psi = dense_state(3);
        let mut values = Vec::new();
        basis.evaluate(&psi, &mut values);
        for (s, v) in basis.strings().iter().zip(&values) {
            let naive = PauliOp::string_expectation_naive(s, &psi);
            assert!((v - naive).abs() < 1e-12, "{s}: {v} vs {naive}");
        }
        assert_eq!(basis.op_value(0, &values), a.expectation(&psi));
        assert_eq!(basis.op_value(1, &values), b.expectation(&psi));
        assert_eq!(basis.op_term_values(1, &values), b.term_expectations(&psi));
    }

    #[test]
    fn identity_is_pinned_and_duplicates_share_a_slot() {
        let mut op = PauliOp::zero(2);
        op.add_term(PauliString::identity(2), -1.5);
        op.add_term(PauliString::from_label("ZI").unwrap(), 0.5);
        op.add_term(PauliString::from_label("ZI").unwrap(), 0.25);
        op.add_term(PauliString::from_label("XX").unwrap(), 0.0);
        let basis = TermBasis::new(&[&op]);
        assert_eq!(basis.num_strings(), 3);
        assert_eq!(basis.op_terms(0)[1].string, basis.op_terms(0)[2].string);
        // An unnormalized state: the pinned identity still reads exactly 1.
        let psi = Statevector::from_amplitudes(vec![
            Complex64::new(0.6, 0.0),
            Complex64::new(0.0, 0.3),
            Complex64::new(0.2, 0.1),
            Complex64::new(0.5, -0.4),
        ]);
        let mut values = Vec::new();
        basis.evaluate(&psi, &mut values);
        assert_eq!(values[0], 1.0);
        // The unpinned wrapper form reports the true norm.
        assert!((PauliOp::identity(2, 1.0).expectation(&psi) - psi.norm_sqr()).abs() < 1e-15);
    }

    #[test]
    fn same_x_mask_strings_share_a_group_across_table_and_tiny_paths() {
        for n in [2usize, 5, 8, 9, 10] {
            let label = |head: &str| -> String {
                let mut s = String::from(head);
                while s.len() < n {
                    s.push(if s.len() % 3 == 0 { 'Z' } else { 'I' });
                }
                s
            };
            let op = PauliOp::from_labels(
                n,
                &[
                    (label("XX").as_str(), 0.4),
                    (label("YY").as_str(), -0.3),
                    (label("XY").as_str(), 0.2),
                    (label("YX").as_str(), 0.1),
                    (label("ZI").as_str(), 0.7),
                ],
            );
            let basis = TermBasis::new(&[&op]);
            let groups: Vec<usize> = basis.groups().map(<[Member]>::len).collect();
            assert_eq!(
                groups,
                [1, 4],
                "one diagonal string, one shared x_mask group"
            );
            let psi = dense_state(n);
            let mut values = Vec::new();
            basis.evaluate(&psi, &mut values);
            for (s, v) in basis.strings().iter().zip(&values) {
                let naive = PauliOp::string_expectation_naive(s, &psi);
                assert!((v - naive).abs() < 1e-12, "{n}q {s}: {v} vs {naive}");
                // Fusing a string into a group changes no bit of its value.
                assert_eq!(
                    v.to_bits(),
                    PauliOp::string_expectation(s, &psi).to_bits(),
                    "{n}q {s}"
                );
            }
        }
    }
}
