//! Minimal complex arithmetic (kept in-repo; no external numeric crates).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f64` parts.
///
/// The layout is `#[repr(C)]` — `re` then `im`, no padding — so the
/// `crate::simd` kernels can reinterpret a `[Complex]` slice as the
/// interleaved `[re, im, re, im, ...]` `f64` lanes they vectorize over.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub(crate) const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub(crate) const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub(crate) const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// A complex number from parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{i theta}`.
    pub fn from_angle(theta: f64) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    pub(crate) fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Squared magnitude.
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub(crate) fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex { re: self.re * k, im: self.im * k }
    }

    /// Whether both parts are within `eps` of `other`'s.
    pub fn approx_eq(self, other: Complex, eps: f64) -> bool {
        (self.re - other.re).abs() < eps && (self.im - other.im).abs() < eps
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert!((a.norm_sqr() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn euler() {
        let i = Complex::from_angle(std::f64::consts::FRAC_PI_2);
        assert!(i.approx_eq(Complex::I, 1e-12));
        let minus_one = Complex::from_angle(std::f64::consts::PI);
        assert!(minus_one.approx_eq(-Complex::ONE, 1e-12));
    }
}
