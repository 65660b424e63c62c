//! Per-element basis-pair integrals: the data the UnSNAP assembly kernel
//! reads to build each local system.
//!
//! For an element with geometry `x(ξ)` (trilinear map of the eight cell
//! vertices) and order-`p` Lagrange basis `{φ_i}`, the transport weak form
//! needs:
//!
//! * `mass_ij       = ∫_K φ_i φ_j dV`
//! * `stream[d]_ij  = ∫_K (∂φ_i/∂x_d) φ_j dV`  for `d ∈ {x, y, z}`
//! * `face[f][d]_ab = ∫_{∂K_f} φ_a φ_b n_d dS` for each face `f`, where
//!   `a, b` run over the `(p + 1)²` nodes *on that face* and `n` is the
//!   outward normal (kept as a full vector so twisted, non-planar faces are
//!   integrated exactly).
//!
//! The paper's kernel reads "13 different arrays" during assembly; the
//! three families above are the per-element members of that set (the rest
//! are quadrature cosines, cross sections and flux/source arrays owned by
//! `unsnap-core`).  [`ElementIntegrals::compute`] produces them for one
//! element; `unsnap-core` stores one instance per mesh cell (the paper's
//! pre-computed approach).

use unsnap_linalg::DenseMatrix;

use crate::element::ReferenceElement;
use crate::face::{face_node_indices, nodes_per_face, Face, FACES};
use crate::geometry::{dot3, HexVertices};

/// Integrals of one face of an element.
#[derive(Debug, Clone, PartialEq)]
pub struct FaceIntegrals {
    /// Which face of the element this belongs to.
    pub face: Face,
    /// Element-local indices of the nodes on this face, in canonical
    /// order (see [`face_node_indices`]).
    pub node_indices: Vec<usize>,
    /// `matrices[d]` is the `(p+1)² × (p+1)²` matrix of
    /// `∫ φ_a φ_b n_d dS` over the face-local node numbering.
    pub matrices: [DenseMatrix; 3],
    /// Area-weighted average outward normal (unit length unless the face
    /// is degenerate).
    pub average_normal: [f64; 3],
    /// Total face area.
    pub area: f64,
}

impl FaceIntegrals {
    /// Contract the vector-valued face matrices with a direction:
    /// returns the `(p+1)² × (p+1)²` matrix of `∫ φ_a φ_b (Ω·n) dS`.
    pub fn directed(&self, omega: [f64; 3]) -> DenseMatrix {
        let nf = self.node_indices.len();
        let mut out = DenseMatrix::zeros(nf, nf);
        for a in 0..nf {
            for b in 0..nf {
                out[(a, b)] = omega[0] * self.matrices[0][(a, b)]
                    + omega[1] * self.matrices[1][(a, b)]
                    + omega[2] * self.matrices[2][(a, b)];
            }
        }
        out
    }

    /// `Ω · n̄` with the average outward normal — used to classify the face
    /// as inflow (`< 0`) or outflow (`> 0`) for a given sweep direction.
    pub fn direction_dot_normal(&self, omega: [f64; 3]) -> f64 {
        dot3(omega, self.average_normal)
    }
}

/// All precomputed integrals of one element.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementIntegrals {
    /// Polynomial order of the element.
    pub order: usize,
    /// Mass matrix `∫ φ_i φ_j dV` (size `n × n`).
    pub mass: DenseMatrix,
    /// Streaming matrices `∫ (∂φ_i/∂x_d) φ_j dV` for `d = x, y, z`.
    pub stream: [DenseMatrix; 3],
    /// Face integrals for the six faces, indexed by [`Face::index`].
    pub faces: Vec<FaceIntegrals>,
    /// Element volume.
    pub volume: f64,
}

impl ElementIntegrals {
    /// Compute all integral families for one element.
    pub fn compute(element: &ReferenceElement, hex: &HexVertices) -> Self {
        let n = element.nodes_per_element();
        let mut mass = DenseMatrix::zeros(n, n);
        let mut stream = [
            DenseMatrix::zeros(n, n),
            DenseMatrix::zeros(n, n),
            DenseMatrix::zeros(n, n),
        ];
        let mut volume = 0.0;

        // Scratch: physical-space gradients of every basis function at the
        // current quadrature point.
        let mut grad_phys = vec![[0.0f64; 3]; n];

        for (q, vp) in element.volume_points().iter().enumerate() {
            let det = hex.jacobian_det(vp.xi);
            let jinv = hex
                .jacobian_inverse(vp.xi)
                .expect("degenerate element encountered during integration");
            let w = vp.weight * det;
            volume += w;
            let phi = element.phi_at_volume_point(q);
            for (i, g) in grad_phys.iter_mut().enumerate() {
                let gref = element.grad_phi_at_volume_point(q, i);
                // ∂φ/∂x_d = Σ_e ∂φ/∂ξ_e · ∂ξ_e/∂x_d = Σ_e J⁻¹[e][d] gref[e]
                for d in 0..3 {
                    g[d] = jinv[0][d] * gref[0] + jinv[1][d] * gref[1] + jinv[2][d] * gref[2];
                }
            }
            for i in 0..n {
                let phi_i = phi[i];
                let gi = grad_phys[i];
                let mass_row = mass.row_mut(i);
                for (j, &phi_j) in phi.iter().enumerate() {
                    mass_row[j] += w * phi_i * phi_j;
                }
                for d in 0..3 {
                    let row = stream[d].row_mut(i);
                    for (j, &phi_j) in phi.iter().enumerate() {
                        row[j] += w * gi[d] * phi_j;
                    }
                }
            }
        }

        let mut faces = Vec::with_capacity(6);
        for &face in &FACES {
            faces.push(Self::compute_face(element, hex, face));
        }

        Self {
            order: element.order(),
            mass,
            stream,
            faces,
            volume,
        }
    }

    fn compute_face(element: &ReferenceElement, hex: &HexVertices, face: Face) -> FaceIntegrals {
        let node_indices = face_node_indices(face, element.order());
        let nf = node_indices.len();
        let mut matrices = [
            DenseMatrix::zeros(nf, nf),
            DenseMatrix::zeros(nf, nf),
            DenseMatrix::zeros(nf, nf),
        ];
        let mut avg_normal = [0.0; 3];
        let mut area = 0.0;

        for (q, fp) in element.face_points(face).iter().enumerate() {
            let av = hex.face_area_vector(face, fp.xi);
            let ds = crate::geometry::norm3(av);
            area += fp.weight * ds;
            for d in 0..3 {
                avg_normal[d] += fp.weight * av[d];
            }
            let phi = element.phi_at_face_point(face, q);
            for (a, &ia) in node_indices.iter().enumerate() {
                let pa = phi[ia];
                if pa == 0.0 {
                    continue;
                }
                for (b, &ib) in node_indices.iter().enumerate() {
                    let pab = pa * phi[ib];
                    for d in 0..3 {
                        matrices[d][(a, b)] += fp.weight * pab * av[d];
                    }
                }
            }
        }

        let norm = crate::geometry::norm3(avg_normal);
        if norm > 0.0 {
            for v in avg_normal.iter_mut() {
                *v /= norm;
            }
        }

        FaceIntegrals {
            face,
            node_indices,
            matrices,
            average_normal: avg_normal,
            area,
        }
    }

    /// Matrix dimension (`(p + 1)³`).
    pub fn nodes_per_element(&self) -> usize {
        self.mass.rows()
    }

    /// Nodes per face (`(p + 1)²`).
    pub fn nodes_per_face(&self) -> usize {
        nodes_per_face(self.order)
    }

    /// Face integrals for a given face.
    pub fn face(&self, face: Face) -> &FaceIntegrals {
        &self.faces[face.index()]
    }

    /// Approximate storage footprint of the integrals in bytes.
    pub fn footprint_bytes(&self) -> usize {
        let n = self.nodes_per_element();
        let nf = self.nodes_per_face();
        (4 * n * n + 6 * 3 * nf * nf) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn twisted_cell(angle: f64) -> HexVertices {
        let mut hex = HexVertices::unit_cube();
        let (s, c) = angle.sin_cos();
        for corner in hex.corners.iter_mut().skip(4) {
            let x = corner[0] - 0.5;
            let y = corner[1] - 0.5;
            corner[0] = 0.5 + c * x - s * y;
            corner[1] = 0.5 + s * x + c * y;
        }
        hex
    }

    #[test]
    fn mass_matrix_sums_to_volume() {
        for order in 1..=3 {
            let e = ReferenceElement::new(order);
            for hex in [
                HexVertices::unit_cube(),
                HexVertices::axis_aligned([0.0; 3], [2.0, 1.0, 0.5]),
                twisted_cell(0.05),
            ] {
                let ints = ElementIntegrals::compute(&e, &hex);
                let total: f64 = ints.mass.as_slice().iter().sum();
                assert!(
                    (total - ints.volume).abs() < 1e-10,
                    "order {order}: Σ mass = {total}, volume = {}",
                    ints.volume
                );
                assert!((ints.volume - hex.volume(order + 2)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mass_matrix_is_symmetric_positive_diagonal() {
        let e = ReferenceElement::new(2);
        let ints = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        let n = ints.nodes_per_element();
        for i in 0..n {
            assert!(ints.mass[(i, i)] > 0.0);
            for j in 0..n {
                assert!((ints.mass[(i, j)] - ints.mass[(j, i)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn stream_matrix_rows_sum_to_face_flux_of_constant() {
        // For ψ ≡ 1, ∫ ∂φ_i/∂x_d dV = ∮ φ_i n_d dS (divergence theorem).
        // Summing over i: ∫ Σ_i ∂φ_i/∂x_d dV = 0 because Σφ_i = 1.
        let e = ReferenceElement::new(2);
        for hex in [HexVertices::unit_cube(), twisted_cell(0.1)] {
            let ints = ElementIntegrals::compute(&e, &hex);
            for d in 0..3 {
                let total: f64 = ints.stream[d].as_slice().iter().sum();
                assert!(total.abs() < 1e-10, "direction {d}: {total}");
            }
        }
    }

    #[test]
    fn streaming_plus_transpose_equals_surface_term() {
        // Integration by parts:
        //   ∫ (∂φ_i/∂x_d) φ_j + ∫ φ_i (∂φ_j/∂x_d) = ∮ φ_i φ_j n_d dS.
        // i.e. G[d] + G[d]^T must equal the sum over faces of the face
        // matrices (scattered to element-local indices).
        for order in [1usize, 2] {
            let e = ReferenceElement::new(order);
            for hex in [HexVertices::unit_cube(), twisted_cell(0.07)] {
                let ints = ElementIntegrals::compute(&e, &hex);
                let n = ints.nodes_per_element();
                for d in 0..3 {
                    let mut surface = DenseMatrix::zeros(n, n);
                    for f in &ints.faces {
                        for (a, &ia) in f.node_indices.iter().enumerate() {
                            for (b, &ib) in f.node_indices.iter().enumerate() {
                                surface[(ia, ib)] += f.matrices[d][(a, b)];
                            }
                        }
                    }
                    for i in 0..n {
                        for j in 0..n {
                            let lhs = ints.stream[d][(i, j)] + ints.stream[d][(j, i)];
                            assert!(
                                (lhs - surface[(i, j)]).abs() < 1e-9,
                                "order {order}, d {d}, ({i},{j}): {lhs} vs {}",
                                surface[(i, j)]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn face_areas_and_normals_for_unit_cube() {
        let e = ReferenceElement::new(1);
        let ints = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        for &face in &FACES {
            let fi = ints.face(face);
            assert!((fi.area - 1.0).abs() < 1e-12);
            let expected = face.reference_normal();
            for d in 0..3 {
                assert!((fi.average_normal[d] - expected[d]).abs() < 1e-12);
            }
            // Face mass matrix entries (dotted with the normal) sum to the
            // face area.
            let m = fi.directed(expected);
            let sum: f64 = m.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn directed_face_matrix_classifies_inflow_outflow() {
        let e = ReferenceElement::new(1);
        let ints = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        let omega = [0.6, 0.5, 0.62];
        let mut inflow = 0;
        let mut outflow = 0;
        for &face in &FACES {
            let dn = ints.face(face).direction_dot_normal(omega);
            if dn > 0.0 {
                outflow += 1;
            } else {
                inflow += 1;
            }
        }
        assert_eq!(inflow, 3);
        assert_eq!(outflow, 3);
    }

    #[test]
    fn footprint_is_positive_and_grows_with_order() {
        let e1 = ElementIntegrals::compute(&ReferenceElement::new(1), &HexVertices::unit_cube());
        let e2 = ElementIntegrals::compute(&ReferenceElement::new(2), &HexVertices::unit_cube());
        assert!(e1.footprint_bytes() > 0);
        assert!(e2.footprint_bytes() > e1.footprint_bytes());
    }

    #[test]
    fn twist_preserves_total_mass_approximately() {
        // The UnSNAP twist (≤ 0.001 rad) barely changes cell volumes.
        let e = ReferenceElement::new(1);
        let straight = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        let twisted = ElementIntegrals::compute(&e, &twisted_cell(0.001));
        assert!((straight.volume - twisted.volume).abs() < 1e-5);
    }

    #[test]
    fn face_node_index_lists_match_element_layout() {
        let e = ReferenceElement::new(2);
        let ints = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        for &face in &FACES {
            let fi = ints.face(face);
            assert_eq!(fi.node_indices.len(), ints.nodes_per_face());
            assert_eq!(fi.node_indices, face_node_indices(face, 2));
        }
    }
}
