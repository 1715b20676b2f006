//! Dense vector helpers used by the SpMV kernels: the input vector `x`, the
//! output vector `y`, and utilities for generating and comparing them.

use crate::Scalar;

/// A dense vector with convenience constructors for test/benchmark inputs and
/// tolerant comparison against reference results.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVector {
    data: Vec<Scalar>,
}

impl DenseVector {
    /// A vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        DenseVector {
            data: vec![0.0; len],
        }
    }

    /// A vector of `len` ones (the paper's benchmarks multiply by arbitrary
    /// dense x; ones make hand-checking easy in tests).
    pub fn ones(len: usize) -> Self {
        DenseVector {
            data: vec![1.0; len],
        }
    }

    /// A deterministic pseudo-random vector in `[-1, 1)`, keyed by `seed`.
    /// Uses a splitmix64-style generator so the crate does not need `rand`
    /// outside of dev-dependencies.
    pub fn random(len: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            data.push((unit * 2.0 - 1.0) as Scalar);
        }
        DenseVector { data }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(data: Vec<Scalar>) -> Self {
        DenseVector { data }
    }

    /// Vector length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[Scalar] {
        &self.data
    }

    /// Mutable access to the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [Scalar] {
        &mut self.data
    }

    /// Consumes the vector, returning its buffer.
    pub fn into_vec(self) -> Vec<Scalar> {
        self.data
    }

    /// Maximum absolute difference to another vector; panics on length
    /// mismatch because that always indicates a harness bug.
    pub fn max_abs_diff(&self, other: &[Scalar]) -> Scalar {
        assert_eq!(
            self.len(),
            other.len(),
            "comparing vectors of different lengths"
        );
        self.data
            .iter()
            .zip(other)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, Scalar::max)
    }

    /// True if every element is within `tol` *relative-or-absolute* distance
    /// of the reference: [`within_tolerance`] of the two slices.
    pub fn approx_eq(&self, other: &[Scalar], tol: Scalar) -> bool {
        within_tolerance(&self.data, other, tol)
    }
}

/// True if `a` and `b` have one length and every pair is within `tol`
/// *relative-or-absolute* distance: `|a[i] - b[i]| <= tol · max(1, |a[i]|,
/// |b[i]|)`.  Floating-point reductions in a different order than the
/// reference make exact equality too strict for large matrices.
///
/// Non-finite pairs follow [`max_scaled_error`]'s rule: the same value on
/// both sides (both NaN, or equal infinities) agrees, a NaN or infinity on
/// one side only never does, whatever `tol` is.  The scale alone would get
/// both backwards — an infinite scale admits `∞` against a finite value,
/// and `∞ − ∞` is NaN.
pub fn within_tolerance(a: &[Scalar], b: &[Scalar], tol: Scalar) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&x, &y)| {
            if x.is_finite() && y.is_finite() {
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0)
            } else {
                x == y || (x.is_nan() && y.is_nan())
            }
        })
}

/// The worst relative-or-absolute error between a result and its reference:
/// `max_i |a[i] - b[i]| / max(1, |a[i]|, |b[i]|)`.  The shared floating-point
/// tolerance yardstick of the differential suites — native kernels, the
/// simulator interpreter and the baseline implementations all reduce in
/// different orders, so they are compared with `max_scaled_error(..) <= tol`
/// rather than bitwise.  Panics on length mismatch (always a harness bug).
///
/// A NaN or infinity on one side only is an **infinite** error, so no
/// tolerance admits it (a `max` fold alone would drop the NaN and report the
/// vectors equal).  The same non-finite value on both sides at one index —
/// both NaN, or equal infinities — counts as 0: the result reproduces the
/// reference.
pub fn max_scaled_error(a: &[Scalar], b: &[Scalar]) -> Scalar {
    assert_eq!(a.len(), b.len(), "comparing vectors of different lengths");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            if x.is_finite() && y.is_finite() {
                (x - y).abs() / x.abs().max(y.abs()).max(1.0)
            } else if x == y || (x.is_nan() && y.is_nan()) {
                0.0
            } else {
                Scalar::INFINITY
            }
        })
        .fold(0.0, Scalar::max)
}

impl std::ops::Index<usize> for DenseVector {
    type Output = Scalar;
    fn index(&self, index: usize) -> &Scalar {
        &self.data[index]
    }
}

impl std::ops::IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, index: usize) -> &mut Scalar {
        &mut self.data[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(DenseVector::zeros(3).as_slice(), &[0.0; 3]);
        assert_eq!(DenseVector::ones(2).as_slice(), &[1.0, 1.0]);
        assert!(DenseVector::zeros(0).is_empty());
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = DenseVector::random(100, 42);
        let b = DenseVector::random(100, 42);
        let c = DenseVector::random(100, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = DenseVector::from_vec(vec![1.0, 1000.0]);
        assert!(a.approx_eq(&[1.0 + 1e-6, 1000.0 - 1e-3], 1e-5));
        assert!(!a.approx_eq(&[1.1, 1000.0], 1e-5));
        assert!(!a.approx_eq(&[1.0], 1e-5));
    }

    #[test]
    fn within_tolerance_judges_non_finite_pairs_like_max_scaled_error() {
        let (nan, inf) = (Scalar::NAN, Scalar::INFINITY);
        for (a, b) in [
            ([inf, 1.0], [5.0, 1.0]),
            ([inf, 1.0], [-inf, 1.0]),
            ([nan, 1.0], [1.0, 1.0]),
            ([1.0, 2.0], [1.0, nan]),
            ([nan, 1.0], [inf, 1.0]),
        ] {
            assert!(!within_tolerance(&a, &b, 1e-3), "{a:?} vs {b:?}");
            assert_eq!(max_scaled_error(&a, &b), inf);
        }
        for (a, b) in [([inf, 1.0], [inf, 1.0]), ([nan, -inf], [nan, -inf])] {
            assert!(within_tolerance(&a, &b, 1e-3), "{a:?} vs {b:?}");
            assert_eq!(max_scaled_error(&a, &b), 0.0);
        }
        // A finite mismatch next to an agreeing non-finite pair still fails.
        assert!(!within_tolerance(&[nan, 0.0], &[nan, 0.5], 1e-3));
    }

    #[test]
    fn max_abs_diff() {
        let a = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.max_abs_diff(&[1.0, 2.5, 3.0]), 0.5);
    }

    #[test]
    fn max_scaled_error_is_relative_above_one_and_absolute_below() {
        assert_eq!(max_scaled_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(max_scaled_error(&[0.0], &[0.5]), 0.5);
        assert!((max_scaled_error(&[1000.0], &[1001.0]) - 1.0 / 1001.0).abs() < 1e-9);
        assert_eq!(max_scaled_error(&[], &[]), 0.0);
    }

    #[test]
    fn max_scaled_error_never_admits_a_one_sided_non_finite() {
        let (nan, inf) = (Scalar::NAN, Scalar::INFINITY);
        // NaN in the result only, in the reference only, and not in the
        // first or last position (a `max` fold drops NaN wherever it sits).
        assert_eq!(max_scaled_error(&[nan, 1.0], &[1.0, 1.0]), inf);
        assert_eq!(max_scaled_error(&[1.0, 1.0], &[1.0, nan]), inf);
        assert_eq!(max_scaled_error(&[1.0, nan, 1.0], &[1.0, 1.0, 1.0]), inf);
        assert_eq!(max_scaled_error(&[inf], &[1.0]), inf);
        assert_eq!(max_scaled_error(&[inf], &[-inf]), inf);
        assert_eq!(max_scaled_error(&[nan], &[inf]), inf);
        // The same non-finite value on both sides reproduces the reference.
        assert_eq!(max_scaled_error(&[nan, 2.0], &[nan, 2.0]), 0.0);
        assert_eq!(max_scaled_error(&[inf, -inf], &[inf, -inf]), 0.0);
        // ... and does not hide a finite mismatch next to it.
        assert_eq!(max_scaled_error(&[nan, 0.0], &[nan, 0.5]), 0.5);
    }

    #[test]
    fn indexing() {
        let mut a = DenseVector::zeros(2);
        a[1] = 5.0;
        assert_eq!(a[1], 5.0);
    }
}
