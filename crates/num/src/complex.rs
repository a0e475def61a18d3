//! Double-precision complex numbers.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// This is a from-scratch replacement for the complex type PHCpack obtains
/// from Ada's `Generic_Complex_Numbers`; no external crate is used.
///
/// The type is `Copy` and 16 bytes, so it moves through the linear-algebra
/// kernels without allocation. Division uses the robust Baudin–Smith
/// algorithm (Smith's scaling plus exact power-of-two pre-scaling) to stay
/// finite and accurate for badly scaled operands, which matters once paths
/// are tracked close to infinity.
#[derive(Clone, Copy, PartialEq, Default)]
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
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a real number (zero imaginary part).
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared modulus `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus (Euclidean norm). Uses `hypot` for overflow safety.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse, using Smith's scaling to avoid overflow.
    #[inline]
    pub fn inv(self) -> Self {
        Complex64::ONE / self
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Complex64::ZERO;
        }
        let r = self.norm();
        // Branch on the sign of re for numerical stability.
        if self.re >= 0.0 {
            let t = (0.5 * (r + self.re)).sqrt();
            Complex64::new(t, 0.5 * self.im / t)
        } else {
            let t = (0.5 * (r - self.re)).sqrt();
            let sign = if self.im >= 0.0 { 1.0 } else { -1.0 };
            Complex64::new(0.5 * self.im.abs() / t, sign * t)
        }
    }

    /// Complex exponential `e^{re}·(cos im + i sin im)`.
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex64::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Integer power by repeated squaring; `z.powi(0) == 1` including `z == 0`.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Complex64::ONE;
        }
        let mut base = if n < 0 { self.inv() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Complex64::ONE;
        let mut e = n as u32;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// `|a - b|`, the modulus of the difference.
    #[inline]
    pub fn dist(self, other: Complex64) -> f64 {
        (self - other).norm()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6e}{:+.6e}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(x: f64) -> Self {
        Complex64::real(x)
    }
}

impl From<i32> for Complex64 {
    #[inline]
    fn from(x: i32) -> Self {
        Complex64::real(x as f64)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
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

// Baudin–Smith pre-scaling thresholds: components at or above
// `HALF_MAX` are halved, and components at or below `TINY` are
// multiplied by `BIG`. Both factors are powers of two, so the scaling
// is exact.
const HALF_MAX: f64 = 0.5 * f64::MAX;
const TINY: f64 = f64::MIN_POSITIVE * 2.0 / f64::EPSILON;
const BIG: f64 = 2.0 / (f64::EPSILON * f64::EPSILON);

/// The divisor-only half of a robust complex division `z / w`: Smith's
/// algorithm with the scaling and underflow refinements of Baudin &
/// Smith (*A Robust Complex Division in Scilab*, 2012).
///
/// The naive `(ac + bd)/(c² + d²)` formula overflows to `inf`/`NaN`
/// once the divisor's components approach `1e155` (their squares
/// exceed `f64::MAX`) and underflows to zero-divides for tiny ones —
/// exactly the magnitudes the tracker's divergence checks feed in as
/// paths escape to infinity. Plain Smith fixes those but still loses
/// the answer when the component ratio itself under- or overflows;
/// the pre-scaling by powers of two (exact in binary floating point)
/// and the re-associated cross terms of [`Divisor::divide`] keep every
/// representable quotient finite and accurate.
///
/// [`Divisor::new`] does everything that depends on `w` alone: its
/// power-of-two scale, the component swap that makes `|d| ≤ |c|`,
/// Smith's ratio `r = d/c` and `t = 1/(c + d·r)`. [`Divisor::divide`]
/// then costs no floating-point division for ordinary operands, so a
/// kernel that divides many numbers by one pivot builds the divisor
/// once. `z / w` is `Divisor::new(w).divide(z)`. The split keeps every
/// quotient's bits: the numerator's scale is a power of two too, so the
/// product of the two scales is exact.
#[derive(Clone, Copy, Debug)]
pub struct Divisor {
    /// Scaled divisor components, swapped so that `|d| ≤ |c|`.
    c: f64,
    d: f64,
    /// Smith's ratio `d / c`.
    r: f64,
    /// `1 / (c + d·r)`.
    t: f64,
    /// Power of two undoing the divisor's pre-scaling.
    scale: f64,
    /// The components were swapped: the quotient's imaginary part is
    /// negated.
    swapped: bool,
    /// `w == 0`: quotients follow IEEE semantics instead.
    zero: bool,
}

impl Default for Divisor {
    /// The divisor `1`.
    fn default() -> Self {
        Divisor::new(Complex64::ONE)
    }
}

impl Divisor {
    /// Precomputes the divisor-only half of `z / w` for every `z`.
    #[inline]
    pub fn new(w: Complex64) -> Self {
        if w.re == 0.0 && w.im == 0.0 {
            return Divisor {
                c: 0.0,
                d: 0.0,
                r: 0.0,
                t: 0.0,
                scale: 1.0,
                swapped: false,
                zero: true,
            };
        }
        let (mut c, mut d) = (w.re, w.im);
        let cd = c.abs().max(d.abs());
        let mut scale = 1.0;
        if cd >= HALF_MAX {
            c *= 0.5;
            d *= 0.5;
            scale = 0.5;
        }
        if cd <= TINY {
            c *= BIG;
            d *= BIG;
            scale = BIG;
        }
        let (c, d, swapped) = if d.abs() <= c.abs() {
            (c, d, false)
        } else {
            (d, c, true)
        };
        let r = d / c;
        Divisor {
            c,
            d,
            r,
            t: 1.0 / (c + d * r),
            scale,
            swapped,
            zero: false,
        }
    }

    /// The quotient `z / w`, bitwise equal to `z / w` with [`Complex64`]'s
    /// `/` operator.
    #[inline]
    pub fn divide(&self, z: Complex64) -> Complex64 {
        if self.zero {
            // IEEE semantics: finite/0 diverges, 0/0 and NaN/0 are NaN.
            return Complex64::new(z.re / 0.0, z.im / 0.0);
        }
        let (mut a, mut b) = (z.re, z.im);
        let ab = a.abs().max(b.abs());
        // Quotient = computed · s with s a product of powers of two, so
        // the rescaling is exact.
        let mut s = self.scale;
        if ab >= HALF_MAX {
            a *= 0.5;
            b *= 0.5;
            s *= 2.0;
        }
        if ab <= TINY {
            a *= BIG;
            b *= BIG;
            s /= BIG;
        }
        let (e, f) = if self.swapped {
            let (e, f) = self.smith(b, a);
            (e, -f)
        } else {
            self.smith(a, b)
        };
        Complex64::new(e * s, f * s)
    }

    /// Smith's quotient of the scaled `(a + bi)` by the scaled, swapped
    /// divisor. Whenever a ratio or a cross product (`d/c`, `b·r`, `a·r`)
    /// underflows to zero, that term is re-associated (`d·(b/c)` instead
    /// of `b·(d/c)`, `(b·t)·r` instead of `(b·r)·t`, …) so no
    /// representable contribution is silently dropped.
    #[inline]
    fn smith(&self, a: f64, b: f64) -> (f64, f64) {
        let (c, d, r, t) = (self.c, self.d, self.r, self.t);
        if r != 0.0 {
            let br = b * r;
            let e = if br != 0.0 {
                (a + br) * t
            } else {
                a * t + (b * t) * r
            };
            let ar = a * r;
            let f = if ar != 0.0 {
                (b - ar) * t
            } else {
                b * t - (a * t) * r
            };
            (e, f)
        } else {
            ((a + d * (b / c)) * t, (b - d * (a / c)) * t)
        }
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    /// Robust complex division; see [`Divisor`].
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        Divisor::new(rhs).divide(self)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, k: f64) -> Complex64 {
        self.scale(k)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, k: f64) -> Complex64 {
        Complex64::new(self.re / k, self.im / k)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, z: Complex64) -> Complex64 {
        z.scale(self)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl Product for Complex64 {
    fn product<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq_tol;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn basic_arithmetic() {
        let a = c(1.0, 2.0);
        let b = c(3.0, -1.0);
        assert_eq!(a + b, c(4.0, 1.0));
        assert_eq!(a - b, c(-2.0, 3.0));
        assert_eq!(a * b, c(5.0, 5.0));
        assert_eq!(-a, c(-1.0, -2.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = c(1.5, -2.25);
        let b = c(-0.5, 4.0);
        let q = (a * b) / b;
        assert!(approx_eq_tol(q.re, a.re, 1e-12) && approx_eq_tol(q.im, a.im, 1e-12));
    }

    #[test]
    fn division_by_zero_is_nonfinite() {
        let z = c(1.0, 1.0) / Complex64::ZERO;
        assert!(!z.is_finite());
    }

    #[test]
    fn smith_division_avoids_overflow() {
        // Naive (a*c+b*d)/(c^2+d^2) overflows because c^2 = 1e400; Smith's
        // algorithm stays finite.
        let huge = c(1e200, 1e200);
        let q = c(1e200, 0.0) / huge;
        assert!(q.is_finite(), "naive division would overflow: {q:?}");
        assert!((q.re - 0.5).abs() < 1e-12 && (q.im + 0.5).abs() < 1e-12);
    }

    #[test]
    fn division_survives_1e155_components() {
        // The tracker's divergence checks divide by values whose squares
        // exceed f64::MAX (1e155² = 1e310): the naive formula returns
        // inf/inf = NaN here.
        let z = c(1e155, 1e155);
        assert_eq!(z / z, Complex64::ONE);
        let q = c(2e155, 1e155) / c(1e155, 1e155);
        // (2+i)/(1+i) = 1.5 - 0.5i
        assert!((q.re - 1.5).abs() < 1e-12 && (q.im + 0.5).abs() < 1e-12);
    }

    #[test]
    fn division_survives_tiny_components() {
        // Naive denominators underflow to 0 (1e-155² = 1e-310 per term is
        // representable, but 1e-200² is not), turning the quotient into
        // inf; endgame iterates shrink into exactly this regime.
        let z = c(1e-155, 1e-155);
        assert_eq!(z / z, Complex64::ONE);
        let w = c(1e-200, -1e-200);
        let q = c(2e-200, 0.0) / w;
        // 2/(1-i) = 1 + i
        assert!((q.re - 1.0).abs() < 1e-12 && (q.im - 1.0).abs() < 1e-12);
    }

    #[test]
    fn division_handles_extreme_component_ratios() {
        // Baudin & Smith's hard case: the divisor's component ratio
        // d/c = 1e-410 underflows to zero, so plain Smith silently drops
        // the a·d cross term and returns im = 0 instead of ~ -1e-308.
        let q = c(1e307, 1e-307) / c(1e205, 1e-205);
        assert!((q.re / 1e102 - 1.0).abs() < 1e-12, "re: {:e}", q.re);
        assert!((q.im / -1e-308 - 1.0).abs() < 1e-6, "im: {:e}", q.im);
    }

    #[test]
    fn division_keeps_underflowing_cross_terms() {
        // b·r = 1e-170·1e-160 underflows to zero, so Smith's fast path
        // would return re = 0; the re-associated a·t + (b·t)·r recovers
        // the representable true value 1e-230 (and its mirror for im).
        let q = c(0.0, 1e-170) / c(1e-100, 1e-260);
        assert!((q.re / 1e-230 - 1.0).abs() < 1e-12, "re: {:e}", q.re);
        assert!((q.im / 1e-70 - 1.0).abs() < 1e-12, "im: {:e}", q.im);
        let q = c(1e-170, 0.0) / c(1e-100, 1e-260);
        assert!((q.re / 1e-70 - 1.0).abs() < 1e-12, "re: {:e}", q.re);
        assert!((q.im / -1e-230 - 1.0).abs() < 1e-12, "im: {:e}", q.im);
    }

    #[test]
    fn inverse_of_near_max_magnitude() {
        // Plain Smith overflows its own denominator (c + d·r = 2e308)
        // and returns 0; the power-of-two pre-scaling keeps the exact
        // subnormal answer 5e-309·(1 - i).
        let q = c(1e308, 1e308).inv();
        assert!(q.norm() > 0.0, "inverse must not flush to zero");
        assert!((q.re / 5e-309 - 1.0).abs() < 1e-9, "re: {:e}", q.re);
        assert!((q.im / -5e-309 - 1.0).abs() < 1e-9, "im: {:e}", q.im);
    }

    #[test]
    fn division_scaled_roundtrip_across_exponent_range() {
        // (x·y)/y ≈ x for operands spread across ±150 decades.
        for &(ex, ey) in &[(0, 0), (140, -140), (-140, 140), (150, 150), (-150, -150)] {
            let x = c(1.5 * 10f64.powi(ex), -0.3 * 10f64.powi(ex));
            let y = c(-0.7 * 10f64.powi(ey), 1.1 * 10f64.powi(ey));
            let q = (x * y) / y;
            assert!(
                q.dist(x) < 1e-10 * x.norm(),
                "exponents ({ex},{ey}): {q:?} vs {x:?}"
            );
        }
    }

    /// The Baudin–Smith division exactly as it was written before the
    /// divisor-only half moved into [`Divisor`]: the reference the
    /// split form must reproduce bit for bit.
    fn reference_div(z: Complex64, w: Complex64) -> Complex64 {
        fn smith_core(a: f64, b: f64, c: f64, d: f64) -> (f64, f64) {
            let r = d / c;
            let t = 1.0 / (c + d * r);
            if r != 0.0 {
                let br = b * r;
                let e = if br != 0.0 {
                    (a + br) * t
                } else {
                    a * t + (b * t) * r
                };
                let ar = a * r;
                let f = if ar != 0.0 {
                    (b - ar) * t
                } else {
                    b * t - (a * t) * r
                };
                (e, f)
            } else {
                ((a + d * (b / c)) * t, (b - d * (a / c)) * t)
            }
        }
        if w.re == 0.0 && w.im == 0.0 {
            return Complex64::new(z.re / 0.0, z.im / 0.0);
        }
        let (mut a, mut b, mut c, mut d) = (z.re, z.im, w.re, w.im);
        let ab = a.abs().max(b.abs());
        let cd = c.abs().max(d.abs());
        let mut s = 1.0f64;
        let half_max = 0.5 * f64::MAX;
        let tiny = f64::MIN_POSITIVE * 2.0 / f64::EPSILON;
        let big = 2.0 / (f64::EPSILON * f64::EPSILON);
        if ab >= half_max {
            a *= 0.5;
            b *= 0.5;
            s *= 2.0;
        }
        if cd >= half_max {
            c *= 0.5;
            d *= 0.5;
            s *= 0.5;
        }
        if ab <= tiny {
            a *= big;
            b *= big;
            s /= big;
        }
        if cd <= tiny {
            c *= big;
            d *= big;
            s *= big;
        }
        let (e, f) = if d.abs() <= c.abs() {
            smith_core(a, b, c, d)
        } else {
            let (e, f) = smith_core(b, a, d, c);
            (e, -f)
        };
        Complex64::new(e * s, f * s)
    }

    /// Bitwise equality of two quotient components; two NaNs match
    /// whatever their payloads.
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    fn assert_division_bits(z: Complex64, w: Complex64) {
        let want = reference_div(z, w);
        let divisor = Divisor::new(w);
        for (how, got) in [("/", z / w), ("Divisor", divisor.divide(z))] {
            assert!(
                same_bits(got.re, want.re) && same_bits(got.im, want.im),
                "{how}: ({:e}, {:e}) / ({:e}, {:e}) = ({:e}, {:e}), reference ({:e}, {:e})",
                z.re,
                z.im,
                w.re,
                w.im,
                got.re,
                got.im,
                want.re,
                want.im
            );
        }
    }

    #[test]
    fn division_matches_the_reference_bits_on_an_edge_grid() {
        let magnitudes = [
            0.0,
            f64::from_bits(1),
            1e-310,
            1e-300,
            1.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut grid: Vec<f64> = magnitudes.iter().flat_map(|&x| [x, -x]).collect();
        grid.push(f64::NAN);
        for &a in &grid {
            for &b in &grid {
                for &c in &grid {
                    for &d in &grid {
                        assert_division_bits(Complex64::new(a, b), Complex64::new(c, d));
                    }
                }
            }
        }
    }

    #[test]
    fn division_matches_the_reference_bits_on_random_pairs() {
        use crate::random::seeded_rng;
        use rand::{Rng, RngCore};
        let mut rng = seeded_rng(0x5eed);
        for _ in 0..100_000 {
            // Arbitrary bit patterns reach every exponent, subnormals,
            // infinities and NaNs; the log-uniform draws concentrate on
            // the finite range where the Smith branches differ.
            let component = |rng: &mut rand::rngs::StdRng| {
                if rng.next_u64() & 1 == 0 {
                    f64::from_bits(rng.next_u64())
                } else {
                    let e: f64 = rng.gen_range(-320.0..=308.0);
                    let m: f64 = rng.gen_range(-1.0..=1.0);
                    m * 10f64.powf(e)
                }
            };
            let z = Complex64::new(component(&mut rng), component(&mut rng));
            let w = Complex64::new(component(&mut rng), component(&mut rng));
            assert_division_bits(z, w);
        }
    }

    #[test]
    fn conjugate_properties() {
        let a = c(3.0, 4.0);
        assert_eq!(a.conj().conj(), a);
        assert!((a * a.conj()).im.abs() < 1e-15);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn norms() {
        let a = c(3.0, 4.0);
        assert!((a.norm() - 5.0).abs() < 1e-15);
        assert!((a.norm_sqr() - 25.0).abs() < 1e-12);
        assert!((Complex64::I.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[
            c(4.0, 0.0),
            c(-4.0, 0.0),
            c(1.0, 1.0),
            c(-3.0, -7.0),
            c(0.0, 2.0),
        ] {
            let s = z.sqrt();
            assert!(
                (s * s).dist(z) < 1e-12 * (1.0 + z.norm()),
                "sqrt({z:?})={s:?}"
            );
        }
        assert_eq!(Complex64::ZERO.sqrt(), Complex64::ZERO);
    }

    #[test]
    fn sqrt_principal_branch() {
        // Principal square root has non-negative real part.
        for &z in &[c(-1.0, 0.5), c(-2.0, -0.5), c(5.0, -3.0)] {
            assert!(z.sqrt().re >= 0.0);
        }
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = c(0.7, -0.3);
        let mut acc = Complex64::ONE;
        for k in 0..=8 {
            assert!(z.powi(k).dist(acc) < 1e-12, "k={k}");
            acc *= z;
        }
        // Negative exponents.
        assert!(z.powi(-3).dist((z * z * z).inv()) < 1e-12);
        // 0^0 == 1 by convention.
        assert_eq!(Complex64::ZERO.powi(0), Complex64::ONE);
    }

    #[test]
    fn exp_of_imaginary_is_on_unit_circle() {
        let z = Complex64::new(0.0, 1.234).exp();
        assert!((z.norm() - 1.0).abs() < 1e-14);
        assert!((z.re - 1.234f64.cos()).abs() < 1e-14);
    }

    #[test]
    fn from_polar_roundtrip() {
        let z = Complex64::from_polar(2.5, 0.9);
        assert!((z.norm() - 2.5).abs() < 1e-14);
        assert!((z.arg() - 0.9).abs() < 1e-14);
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [c(1.0, 0.0), c(0.0, 1.0), c(2.0, 2.0)];
        let s: Complex64 = xs.iter().copied().sum();
        assert_eq!(s, c(3.0, 3.0));
        let p: Complex64 = xs.iter().copied().product();
        assert_eq!(p, c(0.0, 1.0) * c(2.0, 2.0));
    }
}
