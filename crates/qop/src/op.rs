//! Weighted Pauli-sum operators (qubit Hamiltonians).
//!
//! [`PauliOp`] is the workspace's Hamiltonian representation: a real-weighted sum of
//! [`PauliString`]s, `H = Σ_k c_k P_k`.  All coefficients are real, which is sufficient
//! for Hermitian observables (every Hamiltonian in the paper).  Operations are
//! matrix-free: expectation values and operator application iterate over terms and basis
//! states rather than materializing the `2^n × 2^n` matrix.

use crate::basis::TermBasis;
use crate::complex::Complex64;
use crate::lanes::{i_power, parity_sign};
use crate::pauli::PauliString;
use crate::statevector::Statevector;
use std::collections::BTreeMap;
use std::fmt;

/// One term of a [`PauliOp`]: a real coefficient times a Pauli string.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PauliTerm {
    /// The Pauli string.
    pub string: PauliString,
    /// The real coefficient.
    pub coefficient: f64,
}

impl PauliTerm {
    /// Creates a new term.
    pub fn new(string: PauliString, coefficient: f64) -> Self {
        PauliTerm {
            string,
            coefficient,
        }
    }
}

/// A Hermitian operator expressed as a real-weighted sum of Pauli strings.
///
/// # Examples
///
/// Build the single-qubit Hamiltonian `H = 0.5·Z + 0.25·X` and evaluate it on `|0⟩`:
///
/// ```
/// use qop::{Pauli, PauliOp, PauliString, Statevector};
///
/// let mut h = PauliOp::zero(1);
/// h.add_term(PauliString::single(1, 0, Pauli::Z), 0.5);
/// h.add_term(PauliString::single(1, 0, Pauli::X), 0.25);
/// let psi = Statevector::zero_state(1);
/// assert!((h.expectation(&psi) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PauliOp {
    num_qubits: usize,
    terms: Vec<PauliTerm>,
}

impl PauliOp {
    /// Creates the zero operator on `num_qubits` qubits.
    pub fn zero(num_qubits: usize) -> Self {
        PauliOp {
            num_qubits,
            terms: Vec::new(),
        }
    }

    /// Creates `coefficient * Identity` on `num_qubits` qubits.
    pub fn identity(num_qubits: usize, coefficient: f64) -> Self {
        let mut op = Self::zero(num_qubits);
        op.add_term(PauliString::identity(num_qubits), coefficient);
        op
    }

    /// Creates an operator from `(label, coefficient)` pairs.
    ///
    /// Labels are dense Pauli labels with qubit 0 first, e.g. `"ZZI"`.
    ///
    /// # Panics
    ///
    /// Panics if any label fails to parse or has a length different from `num_qubits`.
    pub fn from_labels(num_qubits: usize, terms: &[(&str, f64)]) -> Self {
        let mut op = Self::zero(num_qubits);
        for (label, coeff) in terms {
            let s = PauliString::from_label(label)
                .unwrap_or_else(|| panic!("invalid Pauli label: {label}"));
            assert_eq!(
                s.num_qubits(),
                num_qubits,
                "label {label} does not match register size {num_qubits}"
            );
            op.add_term(s, *coeff);
        }
        op
    }

    /// Creates an operator from explicit terms (merging duplicates).
    pub fn from_terms(num_qubits: usize, terms: Vec<PauliTerm>) -> Self {
        let mut op = PauliOp { num_qubits, terms };
        op.simplify(0.0);
        op
    }

    /// Number of qubits this operator acts on.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of stored terms.
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Immutable view of the terms.
    #[inline]
    pub fn terms(&self) -> &[PauliTerm] {
        &self.terms
    }

    /// Adds a term (duplicates are merged lazily by [`PauliOp::simplify`]).
    ///
    /// # Panics
    ///
    /// Panics if the string's register size differs from the operator's.
    pub fn add_term(&mut self, string: PauliString, coefficient: f64) {
        assert_eq!(
            string.num_qubits(),
            self.num_qubits,
            "term register size mismatch"
        );
        self.terms.push(PauliTerm::new(string, coefficient));
    }

    /// Merges duplicate strings and removes terms with `|coefficient| <= tolerance`.
    pub fn simplify(&mut self, tolerance: f64) {
        let mut merged: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        for t in &self.terms {
            *merged
                .entry((t.string.x_mask(), t.string.z_mask()))
                .or_insert(0.0) += t.coefficient;
        }
        self.terms = merged
            .into_iter()
            .filter(|(_, c)| c.abs() > tolerance)
            .map(|((x, z), c)| PauliTerm::new(PauliString::from_masks(x, z, self.num_qubits), c))
            .collect();
    }

    /// Returns a simplified copy.
    pub fn simplified(&self, tolerance: f64) -> PauliOp {
        let mut c = self.clone();
        c.simplify(tolerance);
        c
    }

    /// The coefficient of the identity term (0.0 if absent).
    pub fn identity_coefficient(&self) -> f64 {
        self.terms
            .iter()
            .filter(|t| t.string.is_identity())
            .map(|t| t.coefficient)
            .sum()
    }

    /// The ℓ1 norm of the coefficient vector, `Σ_k |c_k|`.
    ///
    /// The paper uses this to bound the per-evaluation shot requirement
    /// (`N ≈ (Σ|c_k|)² / ε²`).
    pub fn l1_norm(&self) -> f64 {
        self.terms.iter().map(|t| t.coefficient.abs()).sum()
    }

    /// The ℓ2 norm of the coefficient vector.
    pub fn l2_norm(&self) -> f64 {
        self.terms
            .iter()
            .map(|t| t.coefficient * t.coefficient)
            .sum::<f64>()
            .sqrt()
    }

    /// The ℓ1 distance between the coefficient vectors of two operators, after aligning
    /// their term sets (missing terms count as zero coefficients).
    ///
    /// This is the Hamiltonian-similarity metric of the paper (Section 5.2.4): it upper
    /// bounds the operator-norm difference `‖H_i − H_j‖_op`.
    ///
    /// # Panics
    ///
    /// Panics if the operators act on different register sizes.
    pub fn l1_distance(&self, other: &PauliOp) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits, "register size mismatch");
        let mut coeffs: BTreeMap<(u64, u64), (f64, f64)> = BTreeMap::new();
        for t in &self.terms {
            coeffs
                .entry((t.string.x_mask(), t.string.z_mask()))
                .or_insert((0.0, 0.0))
                .0 += t.coefficient;
        }
        for t in &other.terms {
            coeffs
                .entry((t.string.x_mask(), t.string.z_mask()))
                .or_insert((0.0, 0.0))
                .1 += t.coefficient;
        }
        coeffs.values().map(|(a, b)| (a - b).abs()).sum()
    }

    /// Scales every coefficient by `s`, in place.
    pub fn scale(&mut self, s: f64) {
        for t in &mut self.terms {
            t.coefficient *= s;
        }
    }

    /// Returns `self + other` (terms merged).
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ.
    pub fn add(&self, other: &PauliOp) -> PauliOp {
        assert_eq!(self.num_qubits, other.num_qubits, "register size mismatch");
        let mut terms = self.terms.clone();
        terms.extend_from_slice(&other.terms);
        PauliOp::from_terms(self.num_qubits, terms)
    }

    /// Returns the uniform mixture `(Σ_i ops[i]) / N` of a non-empty set of operators —
    /// the paper's *mixed Hamiltonian* (Section 5.2.1).  Terms missing from individual
    /// operators are implicitly padded with zero coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or the register sizes differ.
    pub fn mixed(ops: &[&PauliOp]) -> PauliOp {
        assert!(!ops.is_empty(), "cannot mix zero Hamiltonians");
        let n = ops[0].num_qubits;
        let mut acc = PauliOp::zero(n);
        for op in ops {
            acc = acc.add(op);
        }
        acc.scale(1.0 / ops.len() as f64);
        acc.simplify(0.0);
        acc
    }

    /// Returns the superset of Pauli strings appearing in any of `ops`, in a canonical
    /// (sorted) order.  This is the *term padding* step of Section 5.2.1: every member
    /// Hamiltonian of a cluster is expressed over this superset, padding missing
    /// coefficients with zero.
    pub fn term_superset(ops: &[&PauliOp]) -> Vec<PauliString> {
        let mut set: BTreeMap<(u64, u64), PauliString> = BTreeMap::new();
        for op in ops {
            for t in &op.terms {
                set.insert((t.string.x_mask(), t.string.z_mask()), t.string);
            }
        }
        set.into_values().collect()
    }

    /// Returns this operator's coefficient vector over an explicit term ordering
    /// (typically produced by [`PauliOp::term_superset`]); missing terms give zero.
    pub fn coefficients_over(&self, superset: &[PauliString]) -> Vec<f64> {
        let mut map: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        for t in &self.terms {
            *map.entry((t.string.x_mask(), t.string.z_mask()))
                .or_insert(0.0) += t.coefficient;
        }
        superset
            .iter()
            .map(|s| *map.get(&(s.x_mask(), s.z_mask())).unwrap_or(&0.0))
            .collect()
    }

    /// Applies the operator to a statevector: returns `H|ψ⟩`.
    ///
    /// Matrix-free: cost is `O(num_terms × 2^n)`.
    ///
    /// # Panics
    ///
    /// Panics if the statevector register size differs.
    pub fn apply(&self, psi: &Statevector) -> Statevector {
        let mut out = psi.zeros_like();
        self.apply_into(psi, &mut out);
        out
    }

    /// Writes `H|ψ⟩` into `out`, reusing its allocation (any previous contents are
    /// overwritten).
    ///
    /// The kernel runs in *gather* form: `out[b] = Σ_k c_k · phase_k(b ^ x_k) · ψ[b ^ x_k]`,
    /// so every output amplitude is owned by exactly one loop iteration: the loop is
    /// branch-free and all terms are accumulated in one pass over the state, instead of
    /// one scatter pass per term.  Per-term phases are hoisted as `coeff · i^num_y`,
    /// leaving only a parity sign per (term, index) in the split-lane inner loop.
    ///
    /// # Panics
    ///
    /// Panics if either register size differs from the operator's.
    pub fn apply_into(&self, psi: &Statevector, out: &mut Statevector) {
        assert_eq!(psi.num_qubits(), self.num_qubits, "register size mismatch");
        assert_eq!(
            out.num_qubits(),
            self.num_qubits,
            "output register size mismatch"
        );
        // Per-term constants, hoisted out of the amplitude loop: `(x, z, cg)` with
        // `cg = coeff · i^num_y` (the index-independent part of the phase).
        let prepared: Vec<(usize, u64, Complex64)> = self
            .terms
            .iter()
            .map(|t| {
                let x = t.string.x_mask();
                let z = t.string.z_mask();
                let g = i_power((x & z).count_ones());
                (x as usize, z, g.scale(t.coefficient))
            })
            .collect();
        let (pre, pim) = psi.lanes();
        let gather = |b: usize| -> Complex64 {
            let mut acc_re = 0.0;
            let mut acc_im = 0.0;
            for &(x, z, cg) in &prepared {
                let src = b ^ x;
                // P|src⟩ = i^num_y · (-1)^popcount(src & z) · |b⟩.
                let s = parity_sign(src as u64 & z);
                let (r, i) = (pre[src], pim[src]);
                acc_re += s * (cg.re * r - cg.im * i);
                acc_im += s * (cg.re * i + cg.im * r);
            }
            Complex64::new(acc_re, acc_im)
        };
        let (ore, oim) = out.lanes_mut();
        for (b, (r, i)) in ore.iter_mut().zip(oim.iter_mut()).enumerate() {
            let v = gather(b);
            *r = v.re;
            *i = v.im;
        }
    }

    /// The expectation value `⟨ψ|H|ψ⟩` (exact, no shot noise).
    ///
    /// A thin wrapper over a transient [`TermBasis`]: every term's string is evaluated
    /// by the fused block kernels and the result is the serial fold `Σ_k c_k ⟨P_k⟩` in
    /// term order.
    /// Callers evaluating the same operator (or operator set) on many states should
    /// build the [`TermBasis`] once instead.
    ///
    /// # Panics
    ///
    /// Panics if the statevector register size differs.
    pub fn expectation(&self, psi: &Statevector) -> f64 {
        if self.terms.is_empty() {
            return 0.0;
        }
        let basis = TermBasis::unpinned(&[self]);
        let mut values = Vec::new();
        basis.evaluate(psi, &mut values);
        basis.op_value(0, &values)
    }

    /// The exact expectation value `⟨ψ|P|ψ⟩` of a single Pauli string (a one-string
    /// [`TermBasis`]).
    ///
    /// Two branch-free paths: diagonal strings (`x_mask == 0`) reduce to
    /// `Σ_b |ψ_b|² · (-1)^popcount(b & z_mask)`, and general strings accumulate
    /// `Re⟨ψ_{b⊕x}| i^{n_Y} (-1)^popcount(b & z) |ψ_b⟩` pairwise.
    pub fn string_expectation(string: &PauliString, psi: &Statevector) -> f64 {
        let basis = TermBasis::of_strings(string.num_qubits(), vec![*string]);
        let mut values = Vec::new();
        basis.evaluate(psi, &mut values);
        values[0]
    }

    /// The original scalar expectation kernel (scan + `apply_to_basis` + zero-amplitude
    /// test) on interleaved amplitudes, retained as the correctness baseline for property
    /// tests and benches.  Converts out of the split-lane storage at entry; benches that
    /// time the naive algorithm itself should pre-convert and call
    /// [`PauliOp::string_expectation_naive_amps`].
    pub fn string_expectation_naive(string: &PauliString, psi: &Statevector) -> f64 {
        Self::string_expectation_naive_amps(string, &psi.to_amplitudes())
    }

    /// [`PauliOp::string_expectation_naive`] on a raw interleaved amplitude buffer.
    pub fn string_expectation_naive_amps(string: &PauliString, amps: &[Complex64]) -> f64 {
        let mut acc = Complex64::ZERO;
        for b in 0..amps.len() as u64 {
            let a = amps[b as usize];
            if a == Complex64::ZERO {
                continue;
            }
            let (b2, phase) = string.apply_to_basis(b);
            acc += amps[b2 as usize].conj() * phase * a;
        }
        acc.re
    }

    /// Returns the expectation value of every term individually (used by the
    /// post-processing step, which recombines logged per-term expectations with
    /// different coefficient vectors at zero quantum cost).
    pub fn term_expectations(&self, psi: &Statevector) -> Vec<f64> {
        if self.terms.is_empty() {
            return Vec::new();
        }
        let basis = TermBasis::unpinned(&[self]);
        let mut values = Vec::new();
        basis.evaluate(psi, &mut values);
        basis.op_term_values(0, &values)
    }

    /// Builds the dense matrix of the operator (row-major, dimension `2^n`).
    ///
    /// Only intended for tests and very small systems.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 12`.
    pub fn to_dense(&self) -> Vec<Vec<Complex64>> {
        assert!(self.num_qubits <= 12, "dense matrices limited to 12 qubits");
        let dim = 1usize << self.num_qubits;
        let mut m = vec![vec![Complex64::ZERO; dim]; dim];
        for term in &self.terms {
            for col in 0..dim as u64 {
                let (row, phase) = term.string.apply_to_basis(col);
                m[row as usize][col as usize] += phase * term.coefficient;
            }
        }
        m
    }

    /// Extends the operator onto a larger register (new qubits act as identity).
    ///
    /// # Panics
    ///
    /// Panics if `new_num_qubits < num_qubits()`.
    pub fn extended(&self, new_num_qubits: usize) -> PauliOp {
        let terms = self
            .terms
            .iter()
            .map(|t| PauliTerm::new(t.string.extended(new_num_qubits), t.coefficient))
            .collect();
        PauliOp {
            num_qubits: new_num_qubits,
            terms,
        }
    }
}

impl fmt::Display for PauliOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        let parts: Vec<String> = self
            .terms
            .iter()
            .map(|t| format!("{:+.6}·{}", t.coefficient, t.string))
            .collect();
        write!(f, "{}", parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pauli::Pauli;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn expectation_of_z_on_basis_states() {
        let h = PauliOp::from_labels(1, &[("Z", 1.0)]);
        assert!(close(h.expectation(&Statevector::basis_state(1, 0)), 1.0));
        assert!(close(h.expectation(&Statevector::basis_state(1, 1)), -1.0));
    }

    #[test]
    fn expectation_of_x_on_plus_state() {
        let h = PauliOp::from_labels(1, &[("X", 1.0)]);
        let plus = Statevector::uniform_superposition(1);
        assert!(close(h.expectation(&plus), 1.0));
        let zero = Statevector::zero_state(1);
        assert!(close(h.expectation(&zero), 0.0));
    }

    #[test]
    fn simplify_merges_and_drops() {
        let mut h = PauliOp::zero(2);
        h.add_term(PauliString::from_label("ZZ").unwrap(), 0.5);
        h.add_term(PauliString::from_label("ZZ").unwrap(), 0.5);
        h.add_term(PauliString::from_label("XX").unwrap(), 1e-15);
        h.simplify(1e-12);
        assert_eq!(h.num_terms(), 1);
        assert!(close(h.terms()[0].coefficient, 1.0));
    }

    #[test]
    fn l1_distance_pads_missing_terms() {
        let a = PauliOp::from_labels(2, &[("ZZ", 1.0), ("XI", 0.5)]);
        let b = PauliOp::from_labels(2, &[("ZZ", 0.8), ("IY", 0.1)]);
        // |1.0-0.8| + |0.5-0| + |0-0.1| = 0.8
        assert!(close(a.l1_distance(&b), 0.8));
        assert!(close(a.l1_distance(&a), 0.0));
        // Symmetry
        assert!(close(a.l1_distance(&b), b.l1_distance(&a)));
    }

    #[test]
    fn mixed_hamiltonian_averages_coefficients() {
        let a = PauliOp::from_labels(1, &[("Z", 1.0)]);
        let b = PauliOp::from_labels(1, &[("Z", 0.0), ("X", 1.0)]);
        let m = PauliOp::mixed(&[&a, &b]);
        let superset = PauliOp::term_superset(&[&a, &b]);
        let coeffs = m.coefficients_over(&superset);
        // Z coefficient averages to 0.5, X to 0.5.
        assert_eq!(superset.len(), 2);
        assert!(coeffs.iter().all(|c| close(*c, 0.5)));
    }

    #[test]
    fn mixed_expectation_is_mean_of_member_expectations() {
        let a = PauliOp::from_labels(2, &[("ZI", 1.0), ("XX", 0.3)]);
        let b = PauliOp::from_labels(2, &[("ZI", 0.2), ("YY", -0.4)]);
        let m = PauliOp::mixed(&[&a, &b]);
        let psi = Statevector::uniform_superposition(2);
        let avg = 0.5 * (a.expectation(&psi) + b.expectation(&psi));
        assert!(close(m.expectation(&psi), avg));
    }

    #[test]
    fn apply_matches_expectation() {
        let h = PauliOp::from_labels(2, &[("ZZ", 0.7), ("XI", -0.2), ("YY", 0.4)]);
        let psi = Statevector::uniform_superposition(2);
        let hpsi = h.apply(&psi);
        let via_apply = psi.inner(&hpsi).re;
        assert!(close(via_apply, h.expectation(&psi)));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn dense_matrix_is_hermitian_and_matches_expectation() {
        let h = PauliOp::from_labels(2, &[("ZZ", 0.7), ("XY", -0.2), ("IX", 0.4)]);
        let m = h.to_dense();
        let dim = 4;
        for r in 0..dim {
            for c in 0..dim {
                let a = m[r][c];
                let b = m[c][r].conj();
                assert!(close(a.re, b.re) && close(a.im, b.im));
            }
        }
        // <+|H|+> from the dense matrix.
        let psi = Statevector::uniform_superposition(2);
        let mut acc = Complex64::ZERO;
        for r in 0..dim {
            for c in 0..dim {
                acc += psi.amplitude(r as u64).conj() * m[r][c] * psi.amplitude(c as u64);
            }
        }
        assert!(close(acc.re, h.expectation(&psi)));
    }

    #[test]
    fn identity_coefficient_and_norms() {
        let h = PauliOp::from_labels(2, &[("II", -1.5), ("ZZ", 0.5), ("XX", -0.5)]);
        assert!(close(h.identity_coefficient(), -1.5));
        assert!(close(h.l1_norm(), 2.5));
        assert!(close(h.l2_norm(), (1.5f64 * 1.5 + 0.25 + 0.25).sqrt()));
    }

    #[test]
    fn term_expectations_recombine() {
        let h = PauliOp::from_labels(2, &[("ZZ", 0.7), ("XX", -0.2)]);
        let psi = Statevector::uniform_superposition(2);
        let per_term = h.term_expectations(&psi);
        let recombined: f64 = h
            .terms()
            .iter()
            .zip(per_term.iter())
            .map(|(t, e)| t.coefficient * e)
            .sum();
        assert!(close(recombined, h.expectation(&psi)));
    }

    #[test]
    fn extended_operator_acts_as_identity_on_new_qubits() {
        let h = PauliOp::from_labels(1, &[("Z", 1.0)]);
        let h2 = h.extended(2);
        assert_eq!(h2.num_qubits(), 2);
        let psi = Statevector::basis_state(2, 0b10); // qubit0=0, qubit1=1
        assert!(close(h2.expectation(&psi), 1.0));
    }

    #[test]
    fn fast_expectation_matches_naive_kernel() {
        // A dense state with structure on every amplitude, so phase errors cannot hide.
        let n = 6;
        let dim = 1usize << n;
        let mut psi = Statevector::from_amplitudes(
            (0..dim)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect(),
        );
        psi.normalize();
        let h = PauliOp::from_labels(
            n,
            &[
                ("ZZIIZZ", 0.7),
                ("XIYIZX", -0.2),
                ("YYYYYY", 0.4),
                ("IIXXII", -0.9),
                ("ZIIIII", 1.3),
                ("IIIIII", -0.5),
            ],
        );
        let via_naive: f64 = h
            .terms()
            .iter()
            .map(|t| t.coefficient * PauliOp::string_expectation_naive(&t.string, &psi))
            .sum();
        assert!(close(h.expectation(&psi), via_naive));
        for t in h.terms() {
            assert!(close(
                PauliOp::string_expectation(&t.string, &psi),
                PauliOp::string_expectation_naive(&t.string, &psi)
            ));
        }
    }

    #[test]
    fn apply_into_matches_naive_scatter_and_reuses_buffer() {
        let n = 5;
        let dim = 1usize << n;
        let mut psi = Statevector::from_amplitudes(
            (0..dim)
                .map(|i| Complex64::new((i as f64 * 0.23).cos(), (i as f64 * 0.41).sin()))
                .collect(),
        );
        psi.normalize();
        let h = PauliOp::from_labels(n, &[("ZZXIY", 0.6), ("IXIXI", -0.3), ("YIZIZ", 0.9)]);
        // Naive scatter using apply_to_basis, the original implementation.
        let mut expected = psi.zeros_like();
        for term in h.terms() {
            for b in 0..dim as u64 {
                let (b2, phase) = term.string.apply_to_basis(b);
                let contribution = phase * psi.amplitude(b) * term.coefficient;
                expected.set_amplitude(b2, expected.amplitude(b2) + contribution);
            }
        }
        let mut out = psi.zeros_like();
        let buffer = out.re().as_ptr();
        h.apply_into(&psi, &mut out);
        assert_eq!(buffer, out.re().as_ptr(), "apply_into reallocated");
        for b in 0..dim as u64 {
            let d = expected.amplitude(b) - out.amplitude(b);
            assert!(d.norm() < 1e-10, "mismatch at {b}");
        }
    }

    #[test]
    fn from_labels_builds_expected_terms() {
        let h = PauliOp::from_labels(3, &[("ZIZ", 0.25)]);
        assert_eq!(h.num_terms(), 1);
        assert_eq!(h.terms()[0].string.pauli_at(0), Pauli::Z);
        assert_eq!(h.terms()[0].string.pauli_at(1), Pauli::I);
        assert_eq!(h.terms()[0].string.pauli_at(2), Pauli::Z);
    }
}
