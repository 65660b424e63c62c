//! Gauss–Legendre quadrature in 1-D and tensor-product rules on the
//! reference hexahedron `[-1, 1]³` and its faces.
//!
//! The DG weak form integrates products of degree-`p` Lagrange polynomials
//! (and, through the trilinear geometry map, a mildly varying Jacobian), so
//! an `(p + 1)`-point Gauss rule per direction integrates the mass and
//! streaming matrices of an *affine* element exactly and is the default
//! choice used by [`crate::element::ReferenceElement`].

/// A 1-D quadrature rule on `[-1, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadratureRule {
    /// Quadrature point abscissae in `[-1, 1]`.
    pub points: Vec<f64>,
    /// Quadrature weights (sum to 2, the length of the interval).
    pub weights: Vec<f64>,
}

impl QuadratureRule {
    /// Integrate a 1-D function over `[-1, 1]`.
    pub fn integrate<F: Fn(f64) -> f64>(&self, f: F) -> f64 {
        self.points
            .iter()
            .zip(self.weights.iter())
            .map(|(&x, &w)| w * f(x))
            .sum()
    }
}

/// Evaluate the Legendre polynomial `P_n` and its derivative at `x`
/// using the three-term recurrence.
fn legendre_with_derivative(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let mut p_prev = 1.0; // P_0
    let mut p = x; // P_1
    for k in 2..=n {
        let kf = k as f64;
        let p_next = ((2.0 * kf - 1.0) * x * p - (kf - 1.0) * p_prev) / kf;
        p_prev = p;
        p = p_next;
    }
    // Derivative from the standard identity (valid away from |x| = 1; the
    // Gauss nodes are strictly interior so this is safe).
    let dp = n as f64 * (x * p - p_prev) / (x * x - 1.0);
    (p, dp)
}

/// Construct the `n`-point Gauss–Legendre rule on `[-1, 1]`.
///
/// Nodes are found by Newton iteration started from the Chebyshev guess;
/// the rule integrates polynomials up to degree `2n − 1` exactly.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn gauss_legendre(n: usize) -> QuadratureRule {
    assert!(n > 0, "a quadrature rule needs at least one point");
    let mut points = vec![0.0; n];
    let mut weights = vec![0.0; n];

    let m = n.div_ceil(2);
    for i in 0..m {
        // Chebyshev initial guess for the i-th root (descending order).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        for _ in 0..100 {
            let (p, d) = legendre_with_derivative(n, x);
            let dx = p / d;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let (_, dp) = legendre_with_derivative(n, x);
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        // Roots come out in descending order from the Chebyshev guess;
        // store symmetric pairs so the final rule is ascending.
        points[i] = -x;
        points[n - 1 - i] = x;
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    if n % 2 == 1 {
        // The middle node of an odd rule is exactly zero.
        points[n / 2] = 0.0;
    }

    QuadratureRule { points, weights }
}

/// A quadrature point in the reference cube with its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VolumePoint {
    /// Reference coordinates `(ξ, η, ζ)` in `[-1, 1]³`.
    pub xi: [f64; 3],
    /// Tensor-product weight.
    pub weight: f64,
}

/// Tensor-product Gauss rule over the reference hexahedron `[-1, 1]³`
/// with `n` points per direction (so `n³` points total).
pub(crate) fn hex_rule(n: usize) -> Vec<VolumePoint> {
    let rule = gauss_legendre(n);
    let mut out = Vec::with_capacity(n * n * n);
    for (k, (&zk, &wk)) in rule.points.iter().zip(rule.weights.iter()).enumerate() {
        let _ = k;
        for (&yj, &wj) in rule.points.iter().zip(rule.weights.iter()) {
            for (&xi, &wi) in rule.points.iter().zip(rule.weights.iter()) {
                out.push(VolumePoint {
                    xi: [xi, yj, zk],
                    weight: wi * wj * wk,
                });
            }
        }
    }
    out
}

/// A quadrature point on a face of the reference hexahedron.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FacePoint {
    /// Full 3-D reference coordinates of the point (one coordinate pinned
    /// to ±1 by the face).
    pub xi: [f64; 3],
    /// The two in-face parametric coordinates `(u, v)`.
    pub uv: [f64; 2],
    /// Tensor-product weight for the 2-D rule.
    pub weight: f64,
}

/// Tensor-product Gauss rule over one face of the reference hexahedron.
///
/// `axis` is the reference axis normal to the face (0 = ξ, 1 = η, 2 = ζ)
/// and `positive` selects the `+1` or `-1` face.  The in-face coordinates
/// `(u, v)` run over the other two axes in ascending axis order.
pub(crate) fn face_rule(n: usize, axis: usize, positive: bool) -> Vec<FacePoint> {
    assert!(axis < 3, "face axis must be 0, 1 or 2");
    let rule = gauss_legendre(n);
    let pinned = if positive { 1.0 } else { -1.0 };
    let (a, b) = match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let mut out = Vec::with_capacity(n * n);
    for (&v, &wv) in rule.points.iter().zip(rule.weights.iter()) {
        for (&u, &wu) in rule.points.iter().zip(rule.weights.iter()) {
            let mut xi = [0.0; 3];
            xi[axis] = pinned;
            xi[a] = u;
            xi[b] = v;
            out.push(FacePoint {
                xi,
                uv: [u, v],
                weight: wu * wv,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_interval_length() {
        for n in 1..=12 {
            let rule = gauss_legendre(n);
            let sum: f64 = rule.weights.iter().sum();
            assert!((sum - 2.0).abs() < 1e-13, "n = {n}: sum = {sum}");
        }
    }

    #[test]
    fn points_are_sorted_and_interior() {
        for n in 1..=10 {
            let rule = gauss_legendre(n);
            for w in rule.points.windows(2) {
                assert!(w[0] < w[1], "points not ascending for n = {n}");
            }
            assert!(rule.points.iter().all(|&x| x > -1.0 && x < 1.0));
        }
    }

    #[test]
    fn exact_for_polynomials_up_to_degree_2n_minus_1() {
        // ∫_{-1}^{1} x^k dx = 0 (odd k) or 2/(k+1) (even k).
        for n in 1..=8 {
            let rule = gauss_legendre(n);
            for k in 0..(2 * n) {
                let exact = if k % 2 == 1 {
                    0.0
                } else {
                    2.0 / (k as f64 + 1.0)
                };
                let approx = rule.integrate(|x| x.powi(k as i32));
                assert!(
                    (approx - exact).abs() < 1e-12,
                    "n = {n}, degree {k}: {approx} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn known_two_point_rule() {
        let rule = gauss_legendre(2);
        let expected = 1.0 / 3.0f64.sqrt();
        assert!((rule.points[0] + expected).abs() < 1e-14);
        assert!((rule.points[1] - expected).abs() < 1e-14);
        assert!((rule.weights[0] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn known_three_point_rule() {
        let rule = gauss_legendre(3);
        assert!(rule.points[1].abs() < 1e-15);
        assert!((rule.weights[1] - 8.0 / 9.0).abs() < 1e-13);
        assert!((rule.weights[0] - 5.0 / 9.0).abs() < 1e-13);
    }

    #[test]
    #[should_panic]
    fn zero_points_panics() {
        let _ = gauss_legendre(0);
    }

    #[test]
    fn hex_rule_integrates_volume_and_polynomials() {
        let pts = hex_rule(3);
        assert_eq!(pts.len(), 27);
        let volume: f64 = pts.iter().map(|p| p.weight).sum();
        assert!((volume - 8.0).abs() < 1e-12);
        // ∫ x² y² z² over the cube = (2/3)³
        let integral: f64 = pts
            .iter()
            .map(|p| p.weight * p.xi[0].powi(2) * p.xi[1].powi(2) * p.xi[2].powi(2))
            .sum();
        assert!((integral - (2.0f64 / 3.0).powi(3)).abs() < 1e-12);
    }

    #[test]
    fn face_rule_integrates_area() {
        for axis in 0..3 {
            for positive in [false, true] {
                let pts = face_rule(2, axis, positive);
                assert_eq!(pts.len(), 4);
                let area: f64 = pts.iter().map(|p| p.weight).sum();
                assert!((area - 4.0).abs() < 1e-12);
                for p in &pts {
                    let pinned = if positive { 1.0 } else { -1.0 };
                    assert_eq!(p.xi[axis], pinned);
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn face_rule_bad_axis_panics() {
        let _ = face_rule(2, 3, true);
    }

    #[test]
    fn integrate_helper() {
        let rule = gauss_legendre(8);
        let val = rule.integrate(|x| x.cos());
        assert!((val - 2.0 * 1.0f64.sin()).abs() < 1e-12);
    }
}
