//! Small dense-vector helpers used by the solvers and the transport
//! kernels.
//!
//! These are deliberately plain free functions over `&[f64]` /
//! `&mut [f64]`: the flux and source arrays in UnSNAP are flat slices into
//! larger storage, so an owning vector type would force copies in the hot
//! path.

/// Dot product of two equally sized slices.
///
/// Panics (debug) if the lengths differ; in release the shorter length
/// wins, matching `zip` semantics.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` (BLAS `axpy`).
#[inline]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scale a slice in place: `x *= alpha`.
#[inline]
pub(crate) fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Infinity norm (maximum absolute value); 0 for an empty slice.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Maximum absolute difference between two slices.
///
/// This is the convergence measure used by the SNAP/UnSNAP iteration
/// drivers (max pointwise change in the scalar flux between iterations).
#[inline]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .fold(0.0, |m, (x, y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(2.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[1.0, -7.0, 3.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn diffs() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 2.0];
        assert_eq!(max_abs_diff(&a, &b), 1.0);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }
}
