//! Dense statevector storage and basic vector operations.
//!
//! The gate-level simulator lives in the `qsim` crate; this module only provides the
//! underlying data structure plus the linear-algebra primitives that both the simulator
//! and the Lanczos ground-state solver need (inner products, norms, overlaps, sampling
//! probabilities).
//!
//! # Storage layout: split re/im lanes (structure of arrays)
//!
//! Amplitudes are stored as two parallel `Vec<f64>` lanes — all real parts in
//! [`Statevector::re`], all imaginary parts in [`Statevector::im`] — rather than as an
//! interleaved `Vec<Complex64>`.  Every dense kernel is a butterfly or reduction over
//! f64 pairs, and with interleaved storage the compiler must shuffle re/im components
//! in and out of vector registers on every operation, which defeats autovectorization.
//! With split lanes the inner loops read and write contiguous homogeneous `f64` runs, so
//! a 4-wide AVX2 register holds four *independent* amplitudes' components and the
//! butterfly update becomes straight-line FMA code (see `qsim`'s kernels and the
//! reductions below).  The [`Complex64`]-typed accessors ([`Statevector::amplitude`],
//! [`Statevector::to_amplitudes`], [`Statevector::from_amplitudes`]) convert at the
//! boundary; the interleaved reference kernels in `qsim::reference` use exactly those to
//! stay layout-independent.

use crate::complex::Complex64;

/// A dense n-qubit statevector with `2^n` complex amplitudes in split re/im storage.
///
/// Amplitude index `b` corresponds to the computational basis state whose qubit `q` value
/// is bit `q` of `b` (little-endian qubit ordering, consistent with
/// [`crate::PauliString`]).
///
/// # Examples
///
/// ```
/// use qop::Statevector;
///
/// let psi = Statevector::basis_state(2, 0b10);
/// assert_eq!(psi.num_qubits(), 2);
/// assert!((psi.probability(0b10) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, PartialEq)]
pub struct Statevector {
    re: Vec<f64>,
    im: Vec<f64>,
    num_qubits: usize,
}

// Manual Clone so that `clone_from` forwards to `Vec::clone_from`, which reuses the
// destination's allocation when capacities match.  The optimizer inner loops in `qsim`
// and `vqa` rely on this to re-prepare states into scratch buffers allocation-free (the
// derived impl would fall back to `*self = source.clone()`, reallocating every call).
impl Clone for Statevector {
    fn clone(&self) -> Self {
        Statevector {
            re: self.re.clone(),
            im: self.im.clone(),
            num_qubits: self.num_qubits,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.re.clone_from(&source.re);
        self.im.clone_from(&source.im);
        self.num_qubits = source.num_qubits;
    }
}

impl Statevector {
    /// Creates the all-zeros state `|0...0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 30` (a dense vector that large would not fit in memory).
    pub fn zero_state(num_qubits: usize) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// Creates the computational basis state `|basis⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 30` or `basis >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, basis: u64) -> Self {
        assert!(
            num_qubits <= 30,
            "dense statevectors are limited to 30 qubits; use the Pauli-propagation backend for larger systems"
        );
        let dim = 1usize << num_qubits;
        assert!((basis as usize) < dim, "basis index out of range");
        let mut re = vec![0.0; dim];
        let im = vec![0.0; dim];
        re[basis as usize] = 1.0;
        Statevector { re, im, num_qubits }
    }

    /// Creates a statevector from raw interleaved amplitudes (converted into the split
    /// re/im storage).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(amplitudes: Vec<Complex64>) -> Self {
        let dim = amplitudes.len();
        assert!(
            dim.is_power_of_two() && dim > 0,
            "length must be a power of two"
        );
        let num_qubits = dim.trailing_zeros() as usize;
        let re = amplitudes.iter().map(|a| a.re).collect();
        let im = amplitudes.iter().map(|a| a.im).collect();
        Statevector { re, im, num_qubits }
    }

    /// Creates a statevector directly from its split re/im lanes.
    ///
    /// # Panics
    ///
    /// Panics if the lanes have different lengths or the length is not a power of two.
    pub fn from_lanes(re: Vec<f64>, im: Vec<f64>) -> Self {
        assert_eq!(re.len(), im.len(), "re/im lanes must have equal length");
        let dim = re.len();
        assert!(
            dim.is_power_of_two() && dim > 0,
            "length must be a power of two"
        );
        let num_qubits = dim.trailing_zeros() as usize;
        Statevector { re, im, num_qubits }
    }

    /// Creates the uniform superposition `H^{⊗n}|0⟩` (the standard QAOA initial state).
    pub fn uniform_superposition(num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        let amp = 1.0 / (dim as f64).sqrt();
        Statevector {
            re: vec![amp; dim],
            im: vec![0.0; dim],
            num_qubits,
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension of the Hilbert space (`2^n`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.re.len()
    }

    /// Immutable view of the real lane.
    #[inline]
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// Immutable view of the imaginary lane.
    #[inline]
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// Both lanes at once, immutably.
    ///
    /// Asserts the equal-length lane invariant: kernels size their walk from one lane
    /// and index the other with it (`qsim::apply_cx` moves runs of both through raw
    /// pointers), so any construction path that could bypass the constructors must fail
    /// loudly here rather than hand the kernels mismatched lanes.
    #[inline]
    pub fn lanes(&self) -> (&[f64], &[f64]) {
        assert_eq!(self.re.len(), self.im.len(), "re/im lanes out of sync");
        (&self.re, &self.im)
    }

    /// Both lanes at once, mutably (used by the gate kernels in `qsim`); enforces the
    /// same lane invariant as [`Statevector::lanes`].
    #[inline]
    pub fn lanes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        assert_eq!(self.re.len(), self.im.len(), "re/im lanes out of sync");
        (&mut self.re, &mut self.im)
    }

    /// The amplitude of basis state `basis`, reconstructed from the lanes.
    #[inline]
    pub fn amplitude(&self, basis: u64) -> Complex64 {
        Complex64::new(self.re[basis as usize], self.im[basis as usize])
    }

    /// Writes one amplitude (test/boundary helper; kernels write the lanes directly).
    #[inline]
    pub fn set_amplitude(&mut self, basis: u64, value: Complex64) {
        self.re[basis as usize] = value.re;
        self.im[basis as usize] = value.im;
    }

    /// The amplitudes in interleaved `Complex64` form (allocates; conversion boundary
    /// for the interleaved reference kernels and for tests).
    pub fn to_amplitudes(&self) -> Vec<Complex64> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect()
    }

    /// Overwrites this vector from interleaved amplitudes, reusing the lane allocations
    /// (the write-back half of the interleaved conversion boundary).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the current dimension.
    pub fn copy_from_amplitudes(&mut self, amplitudes: &[Complex64]) {
        assert_eq!(amplitudes.len(), self.dim(), "dimension mismatch");
        for ((r, i), a) in self.re.iter_mut().zip(&mut self.im).zip(amplitudes) {
            *r = a.re;
            *i = a.im;
        }
    }

    /// The measurement probability of basis state `basis`.
    #[inline]
    pub fn probability(&self, basis: u64) -> f64 {
        let b = basis as usize;
        self.re[b] * self.re[b] + self.im[b] * self.im[b]
    }

    /// All measurement probabilities (in basis order).
    pub fn probabilities(&self) -> Vec<f64> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| r * r + i * i)
            .collect()
    }

    /// Resets this vector to the basis state `|basis⟩` in place (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `basis >= 2^num_qubits`.
    pub fn set_basis_state(&mut self, basis: u64) {
        assert!((basis as usize) < self.dim(), "basis index out of range");
        self.re.fill(0.0);
        self.im.fill(0.0);
        self.re[basis as usize] = 1.0;
    }

    /// Resets this vector to the uniform superposition `H^{⊗n}|0⟩` in place.
    pub fn set_uniform_superposition(&mut self) {
        let amp = 1.0 / (self.dim() as f64).sqrt();
        self.re.fill(amp);
        self.im.fill(0.0);
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// Split-lane reduction with four independent accumulators per component (a single
    /// dependent accumulator chain is latency-bound; four chains let the compiler keep a
    /// 4-wide FMA pipeline full).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn inner(&self, other: &Statevector) -> Complex64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        // ⟨a|b⟩ = Σ conj(a)·b: re += ar·br + ai·bi, im += ar·bi − ai·br.
        let mut re_acc = [0.0f64; 4];
        let mut im_acc = [0.0f64; 4];
        let mut ar = self.re.chunks_exact(4);
        let mut ai = self.im.chunks_exact(4);
        let mut br = other.re.chunks_exact(4);
        let mut bi = other.im.chunks_exact(4);
        for (((ar, ai), br), bi) in (&mut ar).zip(&mut ai).zip(&mut br).zip(&mut bi) {
            for j in 0..4 {
                re_acc[j] += ar[j] * br[j] + ai[j] * bi[j];
                im_acc[j] += ar[j] * bi[j] - ai[j] * br[j];
            }
        }
        // Scalar tail (dimensions < 4; powers of two otherwise have no remainder).
        for (((ar, ai), br), bi) in ar
            .remainder()
            .iter()
            .zip(ai.remainder())
            .zip(br.remainder())
            .zip(bi.remainder())
        {
            re_acc[0] += ar * br + ai * bi;
            im_acc[0] += ar * bi - ai * br;
        }
        Complex64::new(
            (re_acc[0] + re_acc[1]) + (re_acc[2] + re_acc[3]),
            (im_acc[0] + im_acc[1]) + (im_acc[2] + im_acc[3]),
        )
    }

    /// The squared overlap `|⟨self|other⟩|²` (state fidelity for pure states).
    pub fn overlap(&self, other: &Statevector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// The squared Euclidean norm of the vector (split-lane 4-wide reduction).
    pub fn norm_sqr(&self) -> f64 {
        let mut acc = [0.0f64; 4];
        let mut r = self.re.chunks_exact(4);
        let mut i = self.im.chunks_exact(4);
        for (r, i) in (&mut r).zip(&mut i) {
            for j in 0..4 {
                acc[j] += r[j] * r[j] + i[j] * i[j];
            }
        }
        for (r, i) in r.remainder().iter().zip(i.remainder()) {
            acc[0] += r * r + i * i;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// The Euclidean norm of the vector.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Normalizes the vector in place. Returns the previous norm.
    ///
    /// If the norm is zero the vector is left unchanged and `0.0` is returned.
    pub fn normalize(&mut self) -> f64 {
        let n = self.norm();
        if n > 0.0 {
            // One division, then multiplies: f64 division is several times the latency of
            // a multiply and does not pipeline as well on this loop.
            let inv = 1.0 / n;
            self.scale(inv);
        }
        n
    }

    /// `self += coeff * other` (used by Lanczos and the Pauli-sum apply).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn axpy(&mut self, coeff: Complex64, other: &Statevector) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        axpy_lanes(
            &mut self.re,
            &mut self.im,
            &other.re,
            &other.im,
            coeff.re,
            coeff.im,
        );
    }

    /// Multiplies every amplitude by a real scalar.
    pub fn scale(&mut self, s: f64) {
        for r in &mut self.re {
            *r *= s;
        }
        for i in &mut self.im {
            *i *= s;
        }
    }

    /// Returns a zeroed vector of the same shape.
    pub fn zeros_like(&self) -> Statevector {
        Statevector {
            re: vec![0.0; self.dim()],
            im: vec![0.0; self.dim()],
            num_qubits: self.num_qubits,
        }
    }
}

/// Split-lane axpy body.  A free function on purpose: the four slices arrive as
/// `noalias` parameters, which is what lets the flat four-stream zip autovectorize
/// (reborrows of two structs' fields carry no aliasing information).
fn axpy_lanes(sre: &mut [f64], sim: &mut [f64], ore: &[f64], oim: &[f64], cr: f64, ci: f64) {
    for (((r, i), br), bi) in sre.iter_mut().zip(sim.iter_mut()).zip(ore).zip(oim) {
        *r += cr * br - ci * bi;
        *i += cr * bi + ci * br;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_state_has_unit_probability() {
        let psi = Statevector::basis_state(3, 0b101);
        assert_eq!(psi.dim(), 8);
        assert!((psi.probability(0b101) - 1.0).abs() < 1e-12);
        assert!((psi.norm() - 1.0).abs() < 1e-12);
        assert!((psi.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_superposition_is_normalized() {
        let psi = Statevector::uniform_superposition(4);
        assert!((psi.norm() - 1.0).abs() < 1e-12);
        for b in 0..16 {
            assert!((psi.probability(b) - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inner_product_and_overlap() {
        let a = Statevector::basis_state(2, 0);
        let b = Statevector::basis_state(2, 1);
        assert_eq!(a.inner(&b), Complex64::ZERO);
        assert!((a.overlap(&a) - 1.0).abs() < 1e-12);
        assert!(a.overlap(&b).abs() < 1e-12);
        let plus = Statevector::uniform_superposition(2);
        assert!((a.overlap(&plus) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn inner_product_matches_interleaved_definition_on_long_vectors() {
        // 6 qubits = 64 amplitudes: exercises the 4-wide chunks, not just the tail.
        let n = 6;
        let dim = 1usize << n;
        let mk = |phase: f64| {
            Statevector::from_amplitudes(
                (0..dim)
                    .map(|i| Complex64::new((i as f64 * phase).sin(), (i as f64 * phase).cos()))
                    .collect(),
            )
        };
        let a = mk(0.13);
        let b = mk(0.29);
        let expected: Complex64 = a
            .to_amplitudes()
            .iter()
            .zip(b.to_amplitudes().iter())
            .map(|(x, y)| x.conj() * *y)
            .sum();
        let got = a.inner(&b);
        assert!((got - expected).norm() < 1e-10);
    }

    #[test]
    fn normalize_and_axpy() {
        let mut v = Statevector::basis_state(1, 0);
        v.scale(3.0);
        assert!((v.norm() - 3.0).abs() < 1e-12);
        let prev = v.normalize();
        assert!((prev - 3.0).abs() < 1e-12);
        assert!((v.norm() - 1.0).abs() < 1e-12);

        let mut w = Statevector::zero_state(1).zeros_like();
        w.axpy(Complex64::new(0.0, 2.0), &v);
        assert!((w.amplitude(0).im - 2.0).abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_infers_qubits() {
        let v = Statevector::from_amplitudes(vec![Complex64::ONE; 8]);
        assert_eq!(v.num_qubits(), 3);
    }

    #[test]
    fn amplitude_round_trip_through_lanes() {
        let raw: Vec<Complex64> = (0..8)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let v = Statevector::from_amplitudes(raw.clone());
        assert_eq!(v.to_amplitudes(), raw);
        assert_eq!(v.amplitude(5), raw[5]);
        let w = Statevector::from_lanes(v.re().to_vec(), v.im().to_vec());
        assert_eq!(w, v);
        let mut z = v.zeros_like();
        z.copy_from_amplitudes(&raw);
        assert_eq!(z, v);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let _ = Statevector::from_amplitudes(vec![Complex64::ONE; 3]);
    }
}
