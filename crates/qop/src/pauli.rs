//! Single-qubit Pauli operators and n-qubit Pauli strings.
//!
//! A [`PauliString`] is stored in the symplectic (X-mask, Z-mask) representation, which
//! makes commutation checks, weight computation and application to computational basis
//! states O(1)/O(n) bit operations.  This representation supports up to 64 qubits, which
//! comfortably covers every benchmark in the paper (the largest is the 50-qubit
//! transverse-field Ising chain simulated through Pauli propagation).

use crate::complex::Complex64;
use std::fmt;

/// A single-qubit Pauli operator.
///
/// # Examples
///
/// ```
/// use qop::Pauli;
/// let (p, phase) = Pauli::X.mul(Pauli::Y);
/// assert_eq!(p, Pauli::Z);
/// // X·Y = iZ
/// assert_eq!(phase, 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X (bit flip).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z (phase flip).
    Z,
}

impl Pauli {
    /// All four Pauli operators, in `I, X, Y, Z` order.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// Returns the (x, z) symplectic bits of this Pauli.
    #[inline]
    pub fn xz_bits(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Builds a Pauli from its (x, z) symplectic bits.
    #[inline]
    pub fn from_xz_bits(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Multiplies two single-qubit Paulis.
    ///
    /// Returns `(product, k)` where the true product is `i^k * product` and
    /// `k ∈ {0, 1, 2, 3}` (i.e. the phase is `i^k`).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Pauli) -> (Pauli, u8) {
        use Pauli::*;
        match (self, rhs) {
            (I, p) => (p, 0),
            (p, I) => (p, 0),
            (X, X) | (Y, Y) | (Z, Z) => (I, 0),
            (X, Y) => (Z, 1),
            (Y, X) => (Z, 3),
            (Y, Z) => (X, 1),
            (Z, Y) => (X, 3),
            (Z, X) => (Y, 1),
            (X, Z) => (Y, 3),
        }
    }

    /// Returns `true` if the two Paulis commute (identical, or either is identity).
    #[inline]
    pub fn commutes_with(self, rhs: Pauli) -> bool {
        self == Pauli::I || rhs == Pauli::I || self == rhs
    }

    /// Single-character label (`I`, `X`, `Y`, `Z`).
    pub fn label(self) -> char {
        match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        }
    }

    /// Parses a single-character label.
    ///
    /// # Errors
    ///
    /// Returns `None` for any character other than `I`, `X`, `Y`, `Z` (case-insensitive).
    pub fn from_label(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            'I' => Some(Pauli::I),
            'X' => Some(Pauli::X),
            'Y' => Some(Pauli::Y),
            'Z' => Some(Pauli::Z),
            _ => None,
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// An n-qubit Pauli string (a tensor product of single-qubit Paulis), without coefficient.
///
/// Internally stored as symplectic bit masks.  Qubit `q` corresponds to bit `q` of the
/// masks, and to character position `q` in [`PauliString::label`] (little-endian text, so
/// `"XZI"` means X on qubit 0, Z on qubit 1, I on qubit 2).
///
/// # Examples
///
/// ```
/// use qop::{Pauli, PauliString};
///
/// let zz = PauliString::from_label("ZZ").unwrap();
/// assert_eq!(zz.num_qubits(), 2);
/// assert_eq!(zz.weight(), 2);
/// assert_eq!(zz.pauli_at(0), Pauli::Z);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PauliString {
    x_mask: u64,
    z_mask: u64,
    num_qubits: usize,
}

impl PauliString {
    /// Maximum number of qubits supported by the bit-mask representation.
    pub const MAX_QUBITS: usize = 64;

    /// Creates the identity string on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds [`PauliString::MAX_QUBITS`].
    pub fn identity(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= Self::MAX_QUBITS,
            "PauliString supports at most {} qubits, got {num_qubits}",
            Self::MAX_QUBITS
        );
        PauliString {
            x_mask: 0,
            z_mask: 0,
            num_qubits,
        }
    }

    /// Creates a string from raw symplectic masks.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 64 or if either mask has bits above `num_qubits`.
    pub fn from_masks(x_mask: u64, z_mask: u64, num_qubits: usize) -> Self {
        assert!(num_qubits <= Self::MAX_QUBITS);
        if num_qubits < 64 {
            let valid = (1u64 << num_qubits) - 1;
            assert!(
                x_mask & !valid == 0 && z_mask & !valid == 0,
                "mask has bits outside the {num_qubits}-qubit register"
            );
        }
        PauliString {
            x_mask,
            z_mask,
            num_qubits,
        }
    }

    /// Creates a string that applies `pauli` to qubit `qubit` and identity elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= num_qubits`.
    pub fn single(num_qubits: usize, qubit: usize, pauli: Pauli) -> Self {
        let mut s = Self::identity(num_qubits);
        s.set_pauli(qubit, pauli);
        s
    }

    /// Creates a string from a sparse list of `(qubit, Pauli)` pairs on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range.
    pub fn from_sparse(num_qubits: usize, paulis: &[(usize, Pauli)]) -> Self {
        let mut s = Self::identity(num_qubits);
        for &(q, p) in paulis {
            s.set_pauli(q, p);
        }
        s
    }

    /// Parses a label such as `"XIZY"` (character position = qubit index).
    ///
    /// Returns `None` if the label contains any character other than `IXYZ` or is longer
    /// than 64 characters.
    pub fn from_label(label: &str) -> Option<Self> {
        if label.len() > Self::MAX_QUBITS {
            return None;
        }
        let mut s = Self::identity(label.chars().count());
        for (q, c) in label.chars().enumerate() {
            s.set_pauli(q, Pauli::from_label(c)?);
        }
        Some(s)
    }

    /// The number of qubits in the register this string acts on.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The X-part symplectic mask.
    #[inline]
    pub fn x_mask(&self) -> u64 {
        self.x_mask
    }

    /// The Z-part symplectic mask.
    #[inline]
    pub fn z_mask(&self) -> u64 {
        self.z_mask
    }

    /// Returns the Pauli acting on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= num_qubits()`.
    #[inline]
    pub fn pauli_at(&self, qubit: usize) -> Pauli {
        assert!(qubit < self.num_qubits, "qubit index out of range");
        let x = (self.x_mask >> qubit) & 1 == 1;
        let z = (self.z_mask >> qubit) & 1 == 1;
        Pauli::from_xz_bits(x, z)
    }

    /// Sets the Pauli acting on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= num_qubits()`.
    #[inline]
    pub fn set_pauli(&mut self, qubit: usize, pauli: Pauli) {
        assert!(qubit < self.num_qubits, "qubit index out of range");
        let (x, z) = pauli.xz_bits();
        let bit = 1u64 << qubit;
        if x {
            self.x_mask |= bit;
        } else {
            self.x_mask &= !bit;
        }
        if z {
            self.z_mask |= bit;
        } else {
            self.z_mask &= !bit;
        }
    }

    /// Returns the Pauli weight: the number of non-identity factors.
    #[inline]
    pub fn weight(&self) -> u32 {
        (self.x_mask | self.z_mask).count_ones()
    }

    /// Returns `true` if this is the identity string.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.x_mask == 0 && self.z_mask == 0
    }

    /// Returns `true` if the two strings commute (as operators).
    ///
    /// Uses the symplectic inner product: strings commute iff the number of positions
    /// where they anticommute qubit-wise is even.
    #[inline]
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        let a = (self.x_mask & other.z_mask).count_ones();
        let b = (self.z_mask & other.x_mask).count_ones();
        (a + b) % 2 == 0
    }

    /// Returns `true` if the strings commute **qubit-wise**: on every qubit the two
    /// factors are equal or at least one is the identity.  Qubit-wise commuting terms can
    /// be measured with the same single-qubit measurement basis; the paper charges shots
    /// per term instead (Section 7.3), so no driver groups by it.
    #[inline]
    pub fn qubit_wise_commutes(&self, other: &PauliString) -> bool {
        let support_self = self.x_mask | self.z_mask;
        let support_other = other.x_mask | other.z_mask;
        let both = support_self & support_other;
        // On shared support, the Paulis must be identical.
        ((self.x_mask ^ other.x_mask) | (self.z_mask ^ other.z_mask)) & both == 0
    }

    /// Multiplies two Pauli strings.
    ///
    /// Returns `(product, phase)` such that `self * other = phase * product`, where
    /// `phase ∈ {1, i, -1, -i}` is returned as a [`Complex64`].
    ///
    /// With `P = i^|x∧z| X^x Z^z`, moving `Z^z` past `X^x'` costs `(-1)^|z∧x'|`, so the
    /// power of `i` is `|x∧z| + |x'∧z'| − |x''∧z''| + 2|z∧x'|` (mod 4) for the product
    /// masks `x'' = x ⊕ x'`, `z'' = z ⊕ z'`.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on registers of different sizes.
    pub fn mul(&self, other: &PauliString) -> (PauliString, Complex64) {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "cannot multiply Pauli strings on different register sizes"
        );
        let product = PauliString {
            x_mask: self.x_mask ^ other.x_mask,
            z_mask: self.z_mask ^ other.z_mask,
            num_qubits: self.num_qubits,
        };
        let ys = |s: &PauliString| (s.x_mask & s.z_mask).count_ones();
        let swaps = (self.z_mask & other.x_mask).count_ones();
        // Wrapping arithmetic keeps the residue mod 4 exact.
        let k = (ys(self) + ys(other) + 2 * swaps).wrapping_sub(ys(&product)) % 4;
        let phase = match k {
            0 => Complex64::ONE,
            1 => Complex64::I,
            2 => -Complex64::ONE,
            _ => -Complex64::I,
        };
        (product, phase)
    }

    /// Applies this Pauli string to a computational basis state `|b⟩`.
    ///
    /// Returns `(b', phase)` such that `P|b⟩ = phase · |b'⟩`.
    #[inline]
    pub fn apply_to_basis(&self, basis: u64) -> (u64, Complex64) {
        let new_basis = basis ^ self.x_mask;
        // Y factors contribute a global i each; Z and Y factors contribute (-1)^{bit}.
        let num_y = (self.x_mask & self.z_mask).count_ones();
        let minus_signs = (basis & self.z_mask).count_ones();
        let k = (num_y + 2 * minus_signs) % 4;
        let phase = match k {
            0 => Complex64::ONE,
            1 => Complex64::I,
            2 => -Complex64::ONE,
            _ => -Complex64::I,
        };
        (new_basis, phase)
    }

    /// Extends this string to a larger register (new qubits get identity).
    ///
    /// # Panics
    ///
    /// Panics if `new_num_qubits` is smaller than the current register or exceeds 64.
    pub fn extended(&self, new_num_qubits: usize) -> PauliString {
        assert!(new_num_qubits >= self.num_qubits && new_num_qubits <= Self::MAX_QUBITS);
        PauliString {
            x_mask: self.x_mask,
            z_mask: self.z_mask,
            num_qubits: new_num_qubits,
        }
    }

    /// Formats as a dense label, qubit 0 first (e.g. `"XIZY"`).
    pub fn label(&self) -> String {
        (0..self.num_qubits)
            .map(|q| self.pauli_at(q).label())
            .collect()
    }

    /// Iterates over `(qubit, Pauli)` pairs for the non-identity factors.
    pub fn iter_non_identity(&self) -> impl Iterator<Item = (usize, Pauli)> + '_ {
        (0..self.num_qubits).filter_map(move |q| {
            let p = self.pauli_at(q);
            if p == Pauli::I {
                None
            } else {
                Some((q, p))
            }
        })
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_qubit_multiplication_table() {
        // X·Y = iZ, Y·Z = iX, Z·X = iY and the reversed orders pick up -i.
        assert_eq!(Pauli::X.mul(Pauli::Y), (Pauli::Z, 1));
        assert_eq!(Pauli::Y.mul(Pauli::X), (Pauli::Z, 3));
        assert_eq!(Pauli::Y.mul(Pauli::Z), (Pauli::X, 1));
        assert_eq!(Pauli::Z.mul(Pauli::Y), (Pauli::X, 3));
        assert_eq!(Pauli::Z.mul(Pauli::X), (Pauli::Y, 1));
        assert_eq!(Pauli::X.mul(Pauli::Z), (Pauli::Y, 3));
        for p in Pauli::ALL {
            assert_eq!(p.mul(p).0, Pauli::I);
            assert_eq!(p.mul(Pauli::I), (p, 0));
            assert_eq!(Pauli::I.mul(p), (p, 0));
        }
    }

    #[test]
    fn label_round_trip() {
        let s = PauliString::from_label("XIZY").unwrap();
        assert_eq!(s.label(), "XIZY");
        assert_eq!(s.pauli_at(0), Pauli::X);
        assert_eq!(s.pauli_at(1), Pauli::I);
        assert_eq!(s.pauli_at(2), Pauli::Z);
        assert_eq!(s.pauli_at(3), Pauli::Y);
        assert_eq!(s.weight(), 3);
        assert!(PauliString::from_label("ABC").is_none());
    }

    #[test]
    fn commutation_rules() {
        let xx = PauliString::from_label("XX").unwrap();
        let zz = PauliString::from_label("ZZ").unwrap();
        let zi = PauliString::from_label("ZI").unwrap();
        let xi = PauliString::from_label("XI").unwrap();
        assert!(xx.commutes_with(&zz)); // anticommute on both qubits -> commute overall
        assert!(!xi.commutes_with(&zi)); // anticommute on one qubit
        assert!(zi.commutes_with(&zz));
    }

    #[test]
    fn qubit_wise_commutation_is_stricter() {
        let xx = PauliString::from_label("XX").unwrap();
        let zz = PauliString::from_label("ZZ").unwrap();
        let zi = PauliString::from_label("ZI").unwrap();
        let iz = PauliString::from_label("IZ").unwrap();
        assert!(!xx.qubit_wise_commutes(&zz));
        assert!(zi.qubit_wise_commutes(&iz));
        assert!(zi.qubit_wise_commutes(&zz));
    }

    #[test]
    fn string_multiplication_tracks_phase() {
        let x = PauliString::from_label("X").unwrap();
        let y = PauliString::from_label("Y").unwrap();
        let (p, phase) = x.mul(&y);
        assert_eq!(p.label(), "Z");
        assert_eq!(phase, Complex64::I);
        let (p2, phase2) = y.mul(&x);
        assert_eq!(p2.label(), "Z");
        assert_eq!(phase2, -Complex64::I);
    }

    /// The popcount phase equals the product of the per-qubit phases, for every pair of
    /// 3-qubit strings.
    #[test]
    fn string_multiplication_phase_is_the_product_of_qubit_phases() {
        for a in 0..64u64 {
            for b in 0..64u64 {
                let p = PauliString::from_masks(a & 7, a >> 3, 3);
                let q = PauliString::from_masks(b & 7, b >> 3, 3);
                let k: u8 = (0..3).map(|i| p.pauli_at(i).mul(q.pauli_at(i)).1).sum();
                let expected = [Complex64::ONE, Complex64::I, -Complex64::ONE, -Complex64::I];
                let (product, phase) = p.mul(&q);
                assert_eq!(phase, expected[usize::from(k % 4)], "{p} · {q}");
                assert_eq!(product.x_mask(), p.x_mask() ^ q.x_mask());
                assert_eq!(product.z_mask(), p.z_mask() ^ q.z_mask());
            }
        }
    }

    #[test]
    fn apply_to_basis_matches_definitions() {
        // X|0> = |1>
        let x = PauliString::from_label("X").unwrap();
        assert_eq!(x.apply_to_basis(0), (1, Complex64::ONE));
        // Z|1> = -|1>
        let z = PauliString::from_label("Z").unwrap();
        assert_eq!(z.apply_to_basis(1), (1, -Complex64::ONE));
        // Y|0> = i|1>, Y|1> = -i|0>
        let y = PauliString::from_label("Y").unwrap();
        assert_eq!(y.apply_to_basis(0), (1, Complex64::I));
        assert_eq!(y.apply_to_basis(1), (0, -Complex64::I));
        // ZZ|01> (qubit0=1, qubit1=0): (-1)^1 = -1 on same basis index
        let zz = PauliString::from_label("ZZ").unwrap();
        assert_eq!(zz.apply_to_basis(0b01), (0b01, -Complex64::ONE));
        assert_eq!(zz.apply_to_basis(0b11), (0b11, Complex64::ONE));
    }

    #[test]
    fn sparse_and_single_constructors() {
        let s = PauliString::from_sparse(5, &[(1, Pauli::X), (4, Pauli::Z)]);
        assert_eq!(s.label(), "IXIIZ");
        let t = PauliString::single(3, 2, Pauli::Y);
        assert_eq!(t.label(), "IIY");
        let pairs: Vec<_> = s.iter_non_identity().collect();
        assert_eq!(pairs, vec![(1, Pauli::X), (4, Pauli::Z)]);
    }

    #[test]
    fn extend_preserves_paulis() {
        let s = PauliString::from_label("XY").unwrap();
        let e = s.extended(4);
        assert_eq!(e.label(), "XYII");
    }

    #[test]
    #[should_panic]
    fn out_of_range_qubit_panics() {
        let s = PauliString::identity(2);
        let _ = s.pauli_at(2);
    }
}
