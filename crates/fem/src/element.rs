//! Tensor-product Lagrange reference element of arbitrary order.
//!
//! A reference element of order `p` has `(p + 1)³` nodes laid out as the
//! tensor product of the 1-D equispaced Lagrange nodes, with the ξ index
//! fastest:
//!
//! ```text
//! node(i, j, k) = i + (p + 1) · (j + (p + 1) · k)
//! ```
//!
//! The element tabulates basis values and reference-space gradients at the
//! volume quadrature points and at the quadrature points of each face, so
//! the per-element integral assembly in [`crate::integrals`] is a pure
//! accumulation loop with no polynomial evaluation in the hot path (this is
//! the "precomputed integration of basis function pairs" of §III-C of the
//! paper, split into its reference-element part here and its per-element
//! geometric part in `ElementIntegrals`).

use crate::face::{face_node_indices, Face, FACES};
use crate::geometry::{HexVertices, ShapeGradients};
use crate::lagrange::LagrangeBasis1d;
use crate::quadrature::{face_rule, hex_rule, FacePoint, VolumePoint};

/// Matrix dimension for an order-`p` element: `(p + 1)³`.
pub fn nodes_for_order(order: usize) -> usize {
    (order + 1) * (order + 1) * (order + 1)
}

/// FP64 footprint in bytes of the `n × n` local matrix for an order-`p`
/// element (the quantity tabulated in Table I of the paper).
pub fn local_matrix_footprint_bytes(order: usize) -> usize {
    let n = nodes_for_order(order);
    n * n * std::mem::size_of::<f64>()
}

/// A tensor-product Lagrange reference element with tabulated basis data.
#[derive(Debug, Clone)]
pub struct ReferenceElement {
    order: usize,
    nodes_1d: usize,
    basis_1d: LagrangeBasis1d,
    /// Reference coordinates of every node, node-major.
    node_coords: Vec<[f64; 3]>,
    /// Volume quadrature points.
    volume_points: Vec<VolumePoint>,
    /// `phi_volume[q * n + i]`: basis `i` at volume point `q`.
    phi_volume: Vec<f64>,
    /// `dphi_volume[(q * n + i) * 3 + d]`: reference-space gradient
    /// component `d` of basis `i` at volume point `q`.
    dphi_volume: Vec<f64>,
    /// Face quadrature points for each of the six faces.
    face_points: Vec<Vec<FacePoint>>,
    /// `phi_face[f][q * n + i]`: basis `i` at point `q` of face `f`.
    phi_face: Vec<Vec<f64>>,
    /// The gradients of the eight trilinear geometry shape functions at
    /// each volume point, and at each point of each face: the same for
    /// every cell.
    geometry_volume: Vec<ShapeGradients>,
    geometry_face: Vec<Vec<ShapeGradients>>,
    /// The element-local nodes of each face, in canonical order.
    face_nodes: [Vec<usize>; 6],
}

impl ReferenceElement {
    /// Build the reference element of polynomial order `p ≥ 1` with the
    /// default `(p + 1)`-point Gauss rule per direction.
    pub fn new(order: usize) -> Self {
        Self::with_quadrature(order, order + 1)
    }

    /// Build the reference element with an explicit number of quadrature
    /// points per direction (useful for over-integration tests).
    pub(crate) fn with_quadrature(order: usize, qpoints_per_dir: usize) -> Self {
        assert!(order >= 1, "UnSNAP elements are at least linear (order 1)");
        assert!(qpoints_per_dir >= 1);
        let basis_1d = LagrangeBasis1d::new(order);
        let n1 = order + 1;
        let n = nodes_for_order(order);

        // Node coordinates, ξ fastest.
        let mut node_coords = Vec::with_capacity(n);
        for k in 0..n1 {
            for j in 0..n1 {
                for i in 0..n1 {
                    node_coords.push([
                        basis_1d.nodes()[i],
                        basis_1d.nodes()[j],
                        basis_1d.nodes()[k],
                    ]);
                }
            }
        }

        let volume_points = hex_rule(qpoints_per_dir);
        let mut phi_volume = Vec::with_capacity(volume_points.len() * n);
        let mut dphi_volume = Vec::with_capacity(volume_points.len() * n * 3);
        for vp in &volume_points {
            let (vals, grads) = tabulate_at(&basis_1d, n1, vp.xi);
            phi_volume.extend_from_slice(&vals);
            dphi_volume.extend_from_slice(&grads);
        }

        let mut face_points = Vec::with_capacity(6);
        let mut phi_face = Vec::with_capacity(6);
        for &face in &FACES {
            let pts = face_rule(qpoints_per_dir, face.axis(), face.is_positive());
            let mut vals_all = Vec::with_capacity(pts.len() * n);
            for fp in &pts {
                let (vals, _) = tabulate_at(&basis_1d, n1, fp.xi);
                vals_all.extend_from_slice(&vals);
            }
            face_points.push(pts);
            phi_face.push(vals_all);
        }

        let geometry_volume = (volume_points.iter())
            .map(|p| HexVertices::shape_gradients(p.xi))
            .collect();
        let geometry_face = (face_points.iter())
            .map(|points| {
                (points.iter())
                    .map(|p| HexVertices::shape_gradients(p.xi))
                    .collect()
            })
            .collect();

        Self {
            order,
            nodes_1d: n1,
            basis_1d,
            node_coords,
            volume_points,
            phi_volume,
            dphi_volume,
            face_points,
            phi_face,
            geometry_volume,
            geometry_face,
            face_nodes: FACES.map(|f| face_node_indices(f, order)),
        }
    }

    /// Polynomial order `p`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total nodes (and local matrix dimension), `(p + 1)³`.
    pub fn nodes_per_element(&self) -> usize {
        self.node_coords.len()
    }

    /// Reference coordinates of node `i`.
    pub fn node_coordinate(&self, i: usize) -> [f64; 3] {
        self.node_coords[i]
    }

    /// Reference coordinates of all nodes, node-major.
    pub fn node_coordinates(&self) -> &[[f64; 3]] {
        &self.node_coords
    }

    /// Volume quadrature points.
    pub(crate) fn volume_points(&self) -> &[VolumePoint] {
        &self.volume_points
    }

    /// Basis values at volume quadrature point `q` (length `n` slice).
    pub(crate) fn phi_at_volume_point(&self, q: usize) -> &[f64] {
        let n = self.nodes_per_element();
        &self.phi_volume[q * n..(q + 1) * n]
    }

    /// Reference-space gradient of basis `i` at volume point `q`.
    pub(crate) fn grad_phi_at_volume_point(&self, q: usize, i: usize) -> [f64; 3] {
        let n = self.nodes_per_element();
        let base = (q * n + i) * 3;
        [
            self.dphi_volume[base],
            self.dphi_volume[base + 1],
            self.dphi_volume[base + 2],
        ]
    }

    /// Quadrature points of `face`.
    pub(crate) fn face_points(&self, face: Face) -> &[FacePoint] {
        &self.face_points[face.index()]
    }

    /// The trilinear geometry shape gradients at every volume point.
    pub(crate) fn geometry_at_volume_points(&self) -> &[ShapeGradients] {
        &self.geometry_volume
    }

    /// The trilinear geometry shape gradients at every point of `face`.
    pub(crate) fn geometry_at_face_points(&self, face: Face) -> &[ShapeGradients] {
        &self.geometry_face[face.index()]
    }

    /// The element-local nodes of each face, indexed by [`Face::index`], in
    /// canonical order ([`face_node_indices`]): the same for every element
    /// of the order.
    pub fn face_nodes(&self) -> &[Vec<usize>; 6] {
        &self.face_nodes
    }

    /// Basis values at point `q` of `face` (length `n` slice).
    pub(crate) fn phi_at_face_point(&self, face: Face, q: usize) -> &[f64] {
        let n = self.nodes_per_element();
        &self.phi_face[face.index()][q * n..(q + 1) * n]
    }

    /// Evaluate every basis function at an arbitrary reference point.
    pub fn eval_basis(&self, xi: [f64; 3]) -> Vec<f64> {
        tabulate_at(&self.basis_1d, self.nodes_1d, xi).0
    }
}

/// Evaluate all tensor-product basis values and reference gradients at a
/// reference point.  Returns `(values, gradients_flat)` where the gradient
/// buffer is `[n × 3]` row-major.
fn tabulate_at(basis: &LagrangeBasis1d, n1: usize, xi: [f64; 3]) -> (Vec<f64>, Vec<f64>) {
    let lx: Vec<f64> = (0..n1).map(|i| basis.value(i, xi[0])).collect();
    let ly: Vec<f64> = (0..n1).map(|j| basis.value(j, xi[1])).collect();
    let lz: Vec<f64> = (0..n1).map(|k| basis.value(k, xi[2])).collect();
    let dx: Vec<f64> = (0..n1).map(|i| basis.derivative(i, xi[0])).collect();
    let dy: Vec<f64> = (0..n1).map(|j| basis.derivative(j, xi[1])).collect();
    let dz: Vec<f64> = (0..n1).map(|k| basis.derivative(k, xi[2])).collect();

    let n = n1 * n1 * n1;
    let mut vals = Vec::with_capacity(n);
    let mut grads = Vec::with_capacity(n * 3);
    for k in 0..n1 {
        for j in 0..n1 {
            for i in 0..n1 {
                vals.push(lx[i] * ly[j] * lz[k]);
                grads.push(dx[i] * ly[j] * lz[k]);
                grads.push(lx[i] * dy[j] * lz[k]);
                grads.push(lx[i] * ly[j] * dz[k]);
            }
        }
    }
    (vals, grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::face::face_node_indices;

    #[test]
    fn table1_matrix_sizes_and_footprints() {
        // Table I of the paper.
        let expected = [
            (1usize, 8usize, 0.5f64),
            (2, 27, 5.7),
            (3, 64, 32.0),
            (4, 125, 122.1),
            (5, 216, 364.5),
        ];
        for (order, size, kb) in expected {
            assert_eq!(nodes_for_order(order), size);
            let footprint_kb = local_matrix_footprint_bytes(order) as f64 / 1024.0;
            assert!(
                (footprint_kb - kb).abs() < 0.06,
                "order {order}: {footprint_kb} kB vs paper {kb} kB"
            );
        }
    }

    #[test]
    fn node_count_and_coordinates() {
        for p in 1..=3 {
            let e = ReferenceElement::new(p);
            assert_eq!(e.nodes_per_element(), nodes_for_order(p));
            // First node is the (-1,-1,-1) corner, last is (1,1,1).
            assert_eq!(e.node_coordinate(0), [-1.0, -1.0, -1.0]);
            assert_eq!(
                e.node_coordinate(e.nodes_per_element() - 1),
                [1.0, 1.0, 1.0]
            );
        }
    }

    #[test]
    fn basis_is_kronecker_delta_at_nodes() {
        for p in 1..=3 {
            let e = ReferenceElement::new(p);
            for i in 0..e.nodes_per_element() {
                let vals = e.eval_basis(e.node_coordinate(i));
                for (j, v) in vals.iter().enumerate() {
                    let expected = if i == j { 1.0 } else { 0.0 };
                    assert!((v - expected).abs() < 1e-11, "p={p}, i={i}, j={j}");
                }
            }
        }
    }

    #[test]
    fn partition_of_unity_at_quadrature_points() {
        for p in 1..=4 {
            let e = ReferenceElement::new(p);
            for q in 0..e.volume_points().len() {
                let sum: f64 = e.phi_at_volume_point(q).iter().sum();
                assert!((sum - 1.0).abs() < 1e-11);
                let grad_sum: [f64; 3] = (0..e.nodes_per_element()).fold([0.0; 3], |acc, i| {
                    let g = e.grad_phi_at_volume_point(q, i);
                    [acc[0] + g[0], acc[1] + g[1], acc[2] + g[2]]
                });
                for d in 0..3 {
                    assert!(grad_sum[d].abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn face_tabulation_has_zero_for_off_face_nodes() {
        for p in 1..=3 {
            let e = ReferenceElement::new(p);
            for &face in &FACES {
                let on_face = face_node_indices(face, p);
                for q in 0..e.face_points(face).len() {
                    let vals = e.phi_at_face_point(face, q);
                    let sum: f64 = vals.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-11);
                    for (i, v) in vals.iter().enumerate() {
                        if !on_face.contains(&i) {
                            assert!(
                                v.abs() < 1e-11,
                                "p={p} face={face} node {i} should vanish, got {v}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let e = ReferenceElement::new(2);
        let xi = [0.21, -0.4, 0.67];
        // The gradients the volume tabulation stores, `n × 3` row-major.
        let grads = tabulate_at(&e.basis_1d, 3, xi).1;
        let h = 1e-6;
        for i in 0..e.nodes_per_element() {
            for d in 0..3 {
                let mut xp = xi;
                let mut xm = xi;
                xp[d] += h;
                xm[d] -= h;
                let fd = (e.eval_basis(xp)[i] - e.eval_basis(xm)[i]) / (2.0 * h);
                assert!((fd - grads[3 * i + d]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn quadrature_point_counts() {
        let e = ReferenceElement::new(2);
        assert_eq!(e.volume_points().len(), 27);
        assert_eq!(e.face_points(Face::XMinus).len(), 9);
        let e = ReferenceElement::with_quadrature(1, 3);
        assert_eq!(e.volume_points().len(), 27);
    }

    #[test]
    #[should_panic]
    fn order_zero_rejected() {
        let _ = ReferenceElement::new(0);
    }
}
