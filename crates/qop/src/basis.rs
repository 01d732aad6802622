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
//! * the diagonal group shares `|ψ_b|²`: it is computed once per 256-amplitude block and
//!   every string's sign stream (the [`crate::lanes::SignTable`] factorization, over
//!   process-wide memoized low tables) is applied to it;
//! * an off-diagonal group shares the involution pairing `b ↔ b ⊕ x` and with it the
//!   pair products `d = Re(conj(ψ_{b⊕x})·ψ_b)`, `e = Im(conj(ψ_{b⊕x})·ψ_b)`, computed
//!   once per block of pairs; each string contributes only its own sign and `i^{n_Y}`.
//!
//! Every string keeps its own 4-lane accumulators, its own block order and the
//! expression order of the single-string kernels this module replaced, so sharing the
//! per-block products changes no bit of any per-string value (Rust never contracts
//! `a * b + c` into an FMA).  Registers below one 256-amplitude block have nothing to
//! hoist per block: each string there is one scalar sum in index order, and the kernels
//! only run a few strings' sums side by side to hide the add latency.
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
use crate::lanes::{i_power, low_sign_table, parity_sign, LANES, SIGN_BLOCK};
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
/// factorization over a shared, memoized low table.
struct Signs {
    low: &'static [f64; SIGN_BLOCK],
    high_mask: u64,
}

impl Signs {
    fn new(mask: u64) -> Self {
        Signs {
            low: low_sign_table(mask as u8),
            high_mask: mask & !(SIGN_BLOCK as u64 - 1),
        }
    }

    /// The hoisted per-block factor.
    #[inline(always)]
    fn block_sign(&self, block_start: usize) -> f64 {
        parity_sign(block_start as u64 & self.high_mask)
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
    /// Every evaluated string, sorted by `x` (the diagonal group first).
    members: Vec<Member>,
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
        TermBasis {
            num_qubits,
            strings,
            pinned_identity,
            members,
            terms,
            op_ends,
        }
    }

    /// The kernel groups: maximal runs of members with equal `x`, diagonal first.
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
        // Per-block products shared by a group's strings: |ψ_b|² of the diagonal group
        // (in `d`), the pair products d/e of an off-diagonal one.
        let (mut d, mut e): (Block, Block) = ([0.0; SIGN_BLOCK], [0.0; SIGN_BLOCK]);
        if re.len() < SIGN_BLOCK {
            // Below one table block there is nothing to hoist per block: the low
            // table alone is the whole sign, and every sum is one scalar chain.
            for group in self.groups() {
                if group[0].x == 0 {
                    diagonal_tiny(re, im, group, &mut d, values);
                } else {
                    pairs_tiny(re, im, group, (&mut d, &mut e), values);
                }
            }
        } else {
            let largest = self.groups().map(<[Member]>::len).max().unwrap_or(0);
            let mut acc = vec![[0.0f64; LANES]; largest];
            for group in self.groups() {
                let acc = &mut acc[..group.len()];
                acc.fill([0.0; LANES]);
                if group[0].x == 0 {
                    diagonal_blocks(re, im, group, &mut d, acc, values);
                } else {
                    pair_blocks(re, im, group, (&mut d, &mut e), acc, values);
                }
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
        |m, b| m.signs.low[b] * p[b],
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
        |m, u| m.signs.low[u] * (m.g.re * d[u] - m.g.im * e[u]),
        |m, sum| values[m.slot] = 2.0 * sum,
    );
}

/// The fused diagonal kernel over a register of at least [`SIGN_BLOCK`] amplitudes: one
/// `|ψ_b|²` per block, every string's sign table applied to it.  The sign factors
/// through a 256-entry low table (a contiguous multiplier stream) with the high-bit
/// sign hoisted per block.
fn diagonal_blocks(
    re: &[f64],
    im: &[f64],
    group: &[Member],
    p: &mut Block,
    acc: &mut [[f64; LANES]],
    values: &mut [f64],
) {
    for b in (0..re.len()).step_by(SIGN_BLOCK) {
        let (r, i) = (&re[b..b + SIGN_BLOCK], &im[b..b + SIGN_BLOCK]);
        for ((p, r), i) in p.iter_mut().zip(r).zip(i) {
            *p = r * r + i * i;
        }
        for (m, acc) in group.iter().zip(acc.iter_mut()) {
            let signs = &m.signs;
            let hs = signs.block_sign(b);
            for (l4, p4) in signs.low.chunks_exact(LANES).zip(p.chunks_exact(LANES)) {
                for j in 0..LANES {
                    acc[j] += hs * l4[j] * p4[j];
                }
            }
        }
    }
    for (m, acc) in group.iter().zip(acc.iter()) {
        values[m.slot] = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    }
}

/// The fused off-diagonal kernel of one `x_mask` group.
///
/// Uses the involution-pair identity: the `b` and `b ⊕ x` contributions are complex
/// conjugates, so each pair contributes `2·Re(conj(ψ_{i1}) · phase · ψ_{i0})`.  Pairs
/// are walked in blocks of 256 (fewer only on a 256-amplitude register): the pair
/// products `d`/`e` of a whole block are computed first, then every string of the group
/// folds them, with its own pair-space sign stream, into its own accumulators — four
/// lanes for pivot ≥ 2, one serial chain in pair order for pivot < 2, the fold orders of
/// the single-string kernel.  Pair `u` is `(i0, i1)` with `i0 = base + off` (pivot bit
/// clear) and `i1 = base + 2^pivot + (off ^ xl)`; within an aligned 4-chunk the partner
/// is a constant shuffle by `xl & 3` (monomorphized via [`with_lane_perm!`]), and for
/// pivot < 2 both sides of four pairs sit in one 8-amplitude window
/// ([`window_products`]).
fn pair_blocks(
    re: &[f64],
    im: &[f64],
    group: &[Member],
    (d, e): (&mut Block, &mut Block),
    acc: &mut [[f64; LANES]],
    values: &mut [f64],
) {
    let x = group[0].x;
    let pbit = pivot_bit(x);
    let pivot = pbit.trailing_zeros();
    let xl = x & (pbit - 1);
    let pairs = re.len() / 2;
    let block = pairs.min(SIGN_BLOCK);
    for u0 in (0..pairs).step_by(block) {
        if pbit >= LANES {
            // One half-block of `min(2^pivot, block)` pairs at a time.
            let half = pbit.min(block);
            for k0 in (0..block).step_by(half) {
                // Pair-space offset `u` ↦ the 2^(pivot+1)-amplitude block it lives in
                // and its offset inside that block's lower half.
                let u = u0 + k0;
                let base = (u >> pivot) << (pivot + 1);
                let ob = u & (pbit - 1);
                let (r_lo, r_hi) = re[base..base + (pbit << 1)].split_at(pbit);
                let (i_lo, i_hi) = im[base..base + (pbit << 1)].split_at(pbit);
                let (d, e) = (&mut d[k0..k0 + half], &mut e[k0..k0 + half]);
                let xlh = xl & !(LANES - 1);
                // Explicit 4-wide chunks staged through fixed-size `[f64; 4]` windows
                // (the shape the vectorizer turns into 4-lane register blocks); the
                // `off ^ xl` partner permutation is a compile-time shuffle per
                // `with_lane_perm!` arm.
                macro_rules! products {
                    ($m:literal) => {{
                        for k in (0..half).step_by(LANES) {
                            // off/pb are 4-aligned and < pbit (the half-slice length),
                            // and k < half, so every window is in bounds and the
                            // try_into calls cannot fail.
                            let off = ob + k;
                            let pb = off ^ xlh;
                            let rl: &[f64; LANES] = (&r_lo[off..off + LANES]).try_into().unwrap();
                            let il: &[f64; LANES] = (&i_lo[off..off + LANES]).try_into().unwrap();
                            let rh: &[f64; LANES] = (&r_hi[pb..pb + LANES]).try_into().unwrap();
                            let ih: &[f64; LANES] = (&i_hi[pb..pb + LANES]).try_into().unwrap();
                            let dk: &mut [f64; LANES] = (&mut d[k..k + LANES]).try_into().unwrap();
                            let ek: &mut [f64; LANES] = (&mut e[k..k + LANES]).try_into().unwrap();
                            for j in 0..LANES {
                                let (r0, i0) = (rl[j], il[j]);
                                let (r1, i1) = (rh[j ^ $m], ih[j ^ $m]);
                                dk[j] = r1 * r0 + i1 * i0;
                                ek[j] = r1 * i0 - i1 * r0;
                            }
                        }
                    }};
                }
                with_lane_perm!(xl & (LANES - 1), products);
            }
        } else {
            let amps = 2 * u0..2 * (u0 + block);
            let (re, im) = (&re[amps.clone()], &im[amps]);
            let (d, e) = (&mut d[..block], &mut e[..block]);
            match x {
                1 => window_products::<1>(re, im, d, e),
                2 => window_products::<2>(re, im, d, e),
                _ => window_products::<3>(re, im, d, e),
            }
        }
        for (m, acc) in group.iter().zip(acc.iter_mut()) {
            // The sign of the pair-index bits above the block, hoisted.
            let signs = &m.signs;
            let hs = signs.block_sign(u0);
            let g = m.g;
            if pbit >= LANES {
                for ((sg, d4), e4) in signs.low[..block]
                    .chunks_exact(LANES)
                    .zip(d.chunks_exact(LANES))
                    .zip(e.chunks_exact(LANES))
                {
                    for j in 0..LANES {
                        let s = hs * sg[j];
                        acc[j] += s * (g.re * d4[j] - g.im * e4[j]);
                    }
                }
            } else {
                for ((sg, d), e) in signs.low[..block].iter().zip(&d[..]).zip(&e[..]) {
                    let s = hs * sg;
                    acc[0] += s * (g.re * d - g.im * e);
                }
            }
        }
    }
    for (m, acc) in group.iter().zip(acc.iter()) {
        values[m.slot] = 2.0 * ((acc[0] + acc[1]) + (acc[2] + acc[3]));
    }
}

/// The pair products of the X masks `X ∈ {1, 2, 3}` (pivot < 2) over a run of
/// amplitudes: every 8-amplitude window holds four whole pairs, whose sides are gathered
/// by constant shuffles — pair `k` of a window is `(i0, i1)` with `i0` = `k` with a zero
/// bit inserted at the pivot and `i1 = i0 ^ X`.
fn window_products<const X: usize>(re: &[f64], im: &[f64], d: &mut [f64], e: &mut [f64]) {
    const W: usize = 2 * LANES;
    let pbit = if X >= 2 { 2 } else { 1 };
    let i0: [usize; LANES] = std::array::from_fn(|k| ((k & !(pbit - 1)) << 1) | (k & (pbit - 1)));
    for (((r, i), d), e) in re
        .chunks_exact(W)
        .zip(im.chunks_exact(W))
        .zip(d.chunks_exact_mut(LANES))
        .zip(e.chunks_exact_mut(LANES))
    {
        for k in 0..LANES {
            let (r0, v0) = (r[i0[k]], i[i0[k]]);
            let (r1, v1) = (r[i0[k] ^ X], i[i0[k] ^ X]);
            d[k] = r1 * r0 + v1 * v0;
            e[k] = r1 * v0 - v1 * r0;
        }
    }
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
