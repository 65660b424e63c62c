//! 1-D Lagrange interpolation bases on equispaced nodes.
//!
//! The UnSNAP elements are tensor products of 1-D Lagrange bases of order
//! `p` with `p + 1` equispaced nodes spanning `[-1, 1]` (the vertices of
//! the reference interval are always nodes, so the element's corner,
//! edge, face and interior nodes of Figure 1 of the paper fall out of the
//! tensor product).

/// A 1-D Lagrange basis of order `p` with `p + 1` equispaced nodes on
/// `[-1, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LagrangeBasis1d {
    order: usize,
    nodes: Vec<f64>,
    /// Barycentric weights `w_i = 1 / Π_{j≠i} (x_i - x_j)`.
    bary_weights: Vec<f64>,
}

impl LagrangeBasis1d {
    /// Create the basis of polynomial order `p` (so `p + 1` nodes).
    pub fn new(order: usize) -> Self {
        let n = order + 1;
        let nodes: Vec<f64> = if order == 0 {
            vec![0.0]
        } else {
            (0..n)
                .map(|i| -1.0 + 2.0 * i as f64 / order as f64)
                .collect()
        };
        let mut bary_weights = vec![1.0; n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    bary_weights[i] /= nodes[i] - nodes[j];
                }
            }
        }
        Self {
            order,
            nodes,
            bary_weights,
        }
    }

    /// Polynomial order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of nodes (`order + 1`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node positions on `[-1, 1]`.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Evaluate basis function `i` at `x`.
    ///
    /// `ℓ_i(x) = Π_{j≠i} (x − x_j) / (x_i − x_j)`.
    pub fn value(&self, i: usize, x: f64) -> f64 {
        let n = self.nodes.len();
        debug_assert!(i < n);
        let mut v = 1.0;
        for j in 0..n {
            if j != i {
                v *= (x - self.nodes[j]) / (self.nodes[i] - self.nodes[j]);
            }
        }
        v
    }

    /// Evaluate the derivative of basis function `i` at `x`.
    ///
    /// `ℓ_i'(x) = Σ_{k≠i} [ 1/(x_i − x_k) · Π_{j≠i,k} (x − x_j)/(x_i − x_j) ]`.
    pub fn derivative(&self, i: usize, x: f64) -> f64 {
        let n = self.nodes.len();
        debug_assert!(i < n);
        let mut acc = 0.0;
        for k in 0..n {
            if k == i {
                continue;
            }
            let mut term = 1.0 / (self.nodes[i] - self.nodes[k]);
            for j in 0..n {
                if j != i && j != k {
                    term *= (x - self.nodes[j]) / (self.nodes[i] - self.nodes[j]);
                }
            }
            acc += term;
        }
        acc
    }

    /// Evaluate all basis functions at `x` into a freshly allocated vector.
    pub fn values(&self, x: f64) -> Vec<f64> {
        (0..self.num_nodes()).map(|i| self.value(i, x)).collect()
    }

    /// Evaluate all basis derivatives at `x` into a freshly allocated
    /// vector.
    pub fn derivatives(&self, x: f64) -> Vec<f64> {
        (0..self.num_nodes())
            .map(|i| self.derivative(i, x))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_span_interval() {
        for p in 1..=5 {
            let b = LagrangeBasis1d::new(p);
            assert_eq!(b.num_nodes(), p + 1);
            assert_eq!(b.order(), p);
            assert!((b.nodes()[0] + 1.0).abs() < 1e-15);
            assert!((b.nodes()[p] - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn order_zero_is_constant_one() {
        let b = LagrangeBasis1d::new(0);
        assert_eq!(b.num_nodes(), 1);
        assert_eq!(b.value(0, 0.3), 1.0);
        assert_eq!(b.derivative(0, 0.3), 0.0);
    }

    #[test]
    fn kronecker_delta_at_nodes() {
        for p in 1..=4 {
            let b = LagrangeBasis1d::new(p);
            for i in 0..=p {
                for j in 0..=p {
                    let v = b.value(i, b.nodes()[j]);
                    let expected = if i == j { 1.0 } else { 0.0 };
                    assert!((v - expected).abs() < 1e-12, "p = {p}, l_{i}(x_{j}) = {v}");
                }
            }
        }
    }

    #[test]
    fn partition_of_unity() {
        for p in 1..=5 {
            let b = LagrangeBasis1d::new(p);
            for &x in &[-1.0, -0.7, -0.1, 0.0, 0.33, 0.9, 1.0] {
                let sum: f64 = b.values(x).iter().sum();
                assert!((sum - 1.0).abs() < 1e-11, "p = {p}, x = {x}: {sum}");
                let dsum: f64 = b.derivatives(x).iter().sum();
                assert!(
                    dsum.abs() < 1e-10,
                    "p = {p}, x = {x}: derivative sum {dsum}"
                );
            }
        }
    }

    #[test]
    fn linear_basis_matches_hat_functions() {
        let b = LagrangeBasis1d::new(1);
        assert!((b.value(0, 0.0) - 0.5).abs() < 1e-15);
        assert!((b.value(1, 0.0) - 0.5).abs() < 1e-15);
        assert!((b.derivative(0, 0.3) + 0.5).abs() < 1e-15);
        assert!((b.derivative(1, -0.9) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn reproduces_polynomials_of_matching_degree() {
        // Interpolating x^p at the nodes and evaluating elsewhere must be exact.
        for p in 1..=4 {
            let b = LagrangeBasis1d::new(p);
            let f = |x: f64| x.powi(p as i32) - 0.5 * x + 1.0;
            for &x in &[-0.63, 0.11, 0.87] {
                let interp: f64 = (0..=p).map(|i| f(b.nodes()[i]) * b.value(i, x)).sum();
                assert!((interp - f(x)).abs() < 1e-10, "p = {p}, x = {x}");
            }
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let b = LagrangeBasis1d::new(3);
        let h = 1e-6;
        for i in 0..4 {
            for &x in &[-0.5, 0.2, 0.75] {
                let fd = (b.value(i, x + h) - b.value(i, x - h)) / (2.0 * h);
                let an = b.derivative(i, x);
                assert!((fd - an).abs() < 1e-6, "i = {i}, x = {x}: {fd} vs {an}");
            }
        }
    }
}
