//! Minimal complex-number arithmetic used throughout the workspace.
//!
//! The workspace deliberately avoids external numerics crates, so this module provides a
//! small, well-tested `Complex64` type with exactly the operations the simulators and the
//! Lanczos solver need: arithmetic, conjugation, magnitude, and polar construction.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
///
/// # Examples
///
/// ```
/// use qop::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::new(3.0, -1.0);
/// let c = a * b;
/// assert!((c.re - 5.0).abs() < 1e-12);
/// assert!((c.im - 5.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * e^{i theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64 {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Returns the complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Returns the squared magnitude `|z|^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the magnitude `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Returns the argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Returns `e^{i theta}` (a unit-modulus phase).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        let d = rhs.norm_sqr();
        Complex64::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn addition_and_subtraction() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(0.5, 3.0);
        let s = a + b;
        assert!(close(s.re, 2.0) && close(s.im, 1.0));
        let d = a - b;
        assert!(close(d.re, 1.0) && close(d.im, -5.0));
    }

    #[test]
    fn multiplication_matches_manual_expansion() {
        let a = Complex64::new(2.0, 1.0);
        let b = Complex64::new(-1.0, 4.0);
        let p = a * b;
        // (2+i)(-1+4i) = -2 + 8i - i + 4i^2 = -6 + 7i
        assert!(close(p.re, -6.0) && close(p.im, 7.0));
    }

    #[test]
    fn division_is_inverse_of_multiplication() {
        let a = Complex64::new(3.0, -2.5);
        let b = Complex64::new(1.25, 0.75);
        let q = (a * b) / b;
        assert!(close(q.re, a.re) && close(q.im, a.im));
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex64::new(3.0, 4.0);
        assert!(close(a.norm(), 5.0));
        assert!(close(a.norm_sqr(), 25.0));
        let c = a.conj();
        assert!(close(c.re, 3.0) && close(c.im, -4.0));
        let p = a * c;
        assert!(close(p.re, 25.0) && close(p.im, 0.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!(close(z.norm(), 2.0));
        assert!(close(z.arg(), 0.7));
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..16 {
            let theta = k as f64 * 0.41;
            assert!(close(Complex64::cis(theta).norm(), 1.0));
        }
    }

    #[test]
    fn identities() {
        let z = Complex64::new(0.3, -0.9);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        let iz = z * Complex64::I;
        assert!(close(iz.re, 0.9) && close(iz.im, 0.3));
    }

    #[test]
    fn scalar_ops_and_sum() {
        let z = Complex64::new(1.0, -1.0);
        assert_eq!(z * 2.0, Complex64::new(2.0, -2.0));
        assert_eq!(2.0 * z, Complex64::new(2.0, -2.0));
        assert_eq!(z / 2.0, Complex64::new(0.5, -0.5));
        let total: Complex64 = vec![z, z, z].into_iter().sum();
        assert_eq!(total, Complex64::new(3.0, -3.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }
}
