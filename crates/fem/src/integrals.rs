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
//!
//! ## Order of work, and the summation-order contract
//!
//! One Jacobian per volume point gives `w = weight · det J` and `J⁻¹`.  Then,
//! row by row, a table of row `i`'s four coefficients over the points
//! (`w φ_i` and `w g_{i,d}`, with `g_{i,d} = Σ_e J⁻¹[e][d] ∂φ_i/∂ξ_e`) feeds
//! tiles of columns `j` of `mass` and `stream[0..3]`, accumulated in
//! registers with the point loop innermost.  The per-element scratch is
//! `nq` inverse Jacobians and `4 nq` coefficients (7 KiB at order 3), never
//! a table over all `(point, row)` pairs.
//!
//! Every output bit is fixed by these rules, which the unit tests pin:
//!
//! * `mass_ij` is the sum over the volume points, in rule order, starting
//!   from `+0.0`, of `(w φ_i) · φ_j`; `stream[d]_ij` the same sum of
//!   `(w g_{i,d}) · φ_j`; `volume` the same sum of `w`;
//! * a face entry `(a, b)` with `a ≤ b` is the sum over the face points, in
//!   rule order from `+0.0`, of `(weight · (φ_a · φ_b)) · (n dS)_d`, and
//!   entry `(b, a)` is a copy of it — exact, since IEEE multiplication
//!   commutes;
//! * no multiply and add are fused (`mul_add` moves bits).

use unsnap_linalg::DenseMatrix;

use crate::element::ReferenceElement;
use crate::face::{face_node_indices, nodes_per_face, Face, FACES};
use crate::geometry::{dot3, norm3, HexVertices};

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

/// Columns of `mass` and `stream` one tile accumulates in registers.
const TILE: usize = 8;

/// Columns of a face matrix row one tile accumulates in registers.
const FACE_TILE: usize = 4;

impl ElementIntegrals {
    /// Compute all integral families for one element.
    pub fn compute(element: &ReferenceElement, hex: &HexVertices) -> Self {
        let n = element.nodes_per_element();
        let points = element.volume_points();

        // One Jacobian per quadrature point: w = weight · det J, and J⁻¹.
        let mut volume = 0.0;
        let mut geometry = Vec::with_capacity(points.len());
        for vp in points {
            let (det, jinv) = hex
                .jacobian_det_inverse(vp.xi)
                .expect("degenerate element encountered during integration");
            let w = vp.weight * det;
            volume += w;
            geometry.push((w, jinv));
        }

        let mut mass = DenseMatrix::zeros(n, n);
        let mut stream = [
            DenseMatrix::zeros(n, n),
            DenseMatrix::zeros(n, n),
            DenseMatrix::zeros(n, n),
        ];
        // Row `i`'s coefficients over the points: `w φ_i` and `w ∂φ_i/∂x_d`.
        let mut coef = vec![[0.0f64; 4]; points.len()];
        for i in 0..n {
            for (q, (c, &(w, jinv))) in coef.iter_mut().zip(&geometry).enumerate() {
                let gref = element.grad_phi_at_volume_point(q, i);
                // ∂φ/∂x_d = Σ_e ∂φ/∂ξ_e · ∂ξ_e/∂x_d = Σ_e J⁻¹[e][d] gref[e]
                let g =
                    |d: usize| jinv[0][d] * gref[0] + jinv[1][d] * gref[1] + jinv[2][d] * gref[2];
                *c = [
                    w * element.phi_at_volume_point(q)[i],
                    w * g(0),
                    w * g(1),
                    w * g(2),
                ];
            }
            let [s0, s1, s2] = &mut stream;
            let mut rows = [mass.row_mut(i), s0.row_mut(i), s1.row_mut(i), s2.row_mut(i)];
            let mut j0 = 0;
            while j0 + TILE <= n {
                accumulate_tile::<TILE>(element, &coef, j0, &mut rows);
                j0 += TILE;
            }
            for j in j0..n {
                accumulate_tile::<1>(element, &coef, j, &mut rows);
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
        let points = element.face_points(face);

        // Per point: its weight, the area vector `n dS`, and the face nodes'
        // basis values (point-major).
        let mut avg_normal = [0.0; 3];
        let mut area = 0.0;
        let mut geometry = Vec::with_capacity(points.len());
        let mut phi = Vec::with_capacity(points.len() * nf);
        for (q, fp) in points.iter().enumerate() {
            let av = hex.face_area_vector(face, fp.xi);
            area += fp.weight * norm3(av);
            for d in 0..3 {
                avg_normal[d] += fp.weight * av[d];
            }
            let all = element.phi_at_face_point(face, q);
            phi.extend(node_indices.iter().map(|&i| all[i]));
            geometry.push((fp.weight, av));
        }

        // The upper triangle, row by row, mirrored below the diagonal.
        let mut matrices = [
            DenseMatrix::zeros(nf, nf),
            DenseMatrix::zeros(nf, nf),
            DenseMatrix::zeros(nf, nf),
        ];
        for a in 0..nf {
            let mut b0 = a;
            while b0 + FACE_TILE <= nf {
                face_tile::<FACE_TILE>(&geometry, &phi, a, b0, &mut matrices);
                b0 += FACE_TILE;
            }
            for b in b0..nf {
                face_tile::<1>(&geometry, &phi, a, b, &mut matrices);
            }
        }
        for m in &mut matrices {
            for a in 1..nf {
                for b in 0..a {
                    m[(a, b)] = m[(b, a)];
                }
            }
        }

        let norm = norm3(avg_normal);
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
}

/// Columns `j0 .. j0 + T` of row `i` of `mass` and `stream[0..3]` (`rows`),
/// from row `i`'s coefficients `coef`: `T × 4` sums held in registers, the
/// point loop innermost, each summed over the points in rule order from
/// `+0.0`.
#[inline(always)]
fn accumulate_tile<const T: usize>(
    element: &ReferenceElement,
    coef: &[[f64; 4]],
    j0: usize,
    rows: &mut [&mut [f64]; 4],
) {
    let mut acc = [[0.0f64; T]; 4];
    for (q, c) in coef.iter().enumerate() {
        let phi: &[f64; T] = element.phi_at_volume_point(q)[j0..j0 + T]
            .try_into()
            .expect("a tile lies inside the row");
        for k in 0..4 {
            for t in 0..T {
                acc[k][t] += c[k] * phi[t];
            }
        }
    }
    for (row, sums) in rows.iter_mut().zip(&acc) {
        row[j0..j0 + T].copy_from_slice(sums);
    }
}

/// Columns `b0 .. b0 + T` of row `a` of the three face matrices, from the
/// face points' `(weight, n dS)` and basis values: each entry the sum over
/// the points, in rule order from `+0.0`, of `(weight · (φ_a · φ_b)) · n_d dS`.
#[inline(always)]
fn face_tile<const T: usize>(
    geometry: &[(f64, [f64; 3])],
    phi: &[f64],
    a: usize,
    b0: usize,
    matrices: &mut [DenseMatrix; 3],
) {
    let nf = matrices[0].rows();
    let mut acc = [[0.0f64; T]; 3];
    for (&(weight, av), row) in geometry.iter().zip(phi.chunks_exact(nf)) {
        let pa = row[a];
        let pb: &[f64; T] = row[b0..b0 + T]
            .try_into()
            .expect("a tile lies inside the row");
        for t in 0..T {
            let wab = weight * (pa * pb[t]);
            for d in 0..3 {
                acc[d][t] += wab * av[d];
            }
        }
    }
    for (m, sums) in matrices.iter_mut().zip(&acc) {
        m.row_mut(a)[b0..b0 + T].copy_from_slice(sums);
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
                let quadrature_volume: f64 = crate::quadrature::hex_rule(order + 2)
                    .iter()
                    .map(|p| p.weight * hex.jacobian_det_inverse(p.xi).unwrap().0)
                    .sum();
                assert!((ints.volume - quadrature_volume).abs() < 1e-9);
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
            let mut expected = [0.0; 3];
            expected[face.axis()] = if face.is_positive() { 1.0 } else { -1.0 };
            for d in 0..3 {
                assert!((fi.average_normal[d] - expected[d]).abs() < 1e-12);
            }
            // Face mass matrix entries (dotted with the normal) sum to the
            // face area.
            let sum: f64 = (0..3)
                .map(|d| expected[d] * fi.matrices[d].as_slice().iter().sum::<f64>())
                .sum();
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
    fn twist_preserves_total_mass_approximately() {
        // The UnSNAP twist (≤ 0.001 rad) barely changes cell volumes.
        let e = ReferenceElement::new(1);
        let straight = ElementIntegrals::compute(&e, &HexVertices::unit_cube());
        let twisted = ElementIntegrals::compute(&e, &twisted_cell(0.001));
        assert!((straight.volume - twisted.volume).abs() < 1e-5);
    }

    /// FNV-1a over the `to_bits()` of every field, in declaration order.
    fn bits_hash(ints: &ElementIntegrals) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: f64| {
            for byte in x.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        ints.mass.as_slice().iter().for_each(|&x| eat(x));
        for m in &ints.stream {
            m.as_slice().iter().for_each(|&x| eat(x));
        }
        for f in &ints.faces {
            for m in &f.matrices {
                m.as_slice().iter().for_each(|&x| eat(x));
            }
            f.average_normal.iter().for_each(|&x| eat(x));
            eat(f.area);
        }
        eat(ints.volume);
        h
    }

    fn pinned_cells() -> [(&'static str, HexVertices); 4] {
        [
            ("unit cube", HexVertices::unit_cube()),
            ("box", HexVertices::axis_aligned([0.0; 3], [2.0, 1.0, 0.5])),
            ("twist 0.05", twisted_cell(0.05)),
            ("twist 0.001", twisted_cell(0.001)),
        ]
    }

    #[test]
    fn integrals_keep_their_bits() {
        // Recorded from the point-outer loop this module had before the
        // register-tiled pass; rows are orders 1–4, columns the cells of
        // `pinned_cells`.
        const PINS: [[u64; 4]; 4] = [
            [
                0xcae0_9eef_88bc_60a8,
                0xc28c_86a7_3b8a_6544,
                0x5158_ada0_7aae_50bd,
                0x2a63_7910_5632_9cc5,
            ],
            [
                0x86c3_f7dc_3450_9a53,
                0x6dd9_0965_0ab5_8a26,
                0xd3c0_8497_8253_1322,
                0xa29d_bc51_c62b_c10b,
            ],
            [
                0x4813_638d_d3ce_5a31,
                0x328f_a829_dd93_23ac,
                0x1a18_78c7_a04d_2fb8,
                0xf11a_ccf7_3680_6474,
            ],
            [
                0xa453_a958_c8ea_e1e7,
                0x3945_8373_6745_da57,
                0x70d5_da21_2c5d_de1e,
                0xabe5_9292_13c1_48f1,
            ],
        ];
        let mut seen = [[0u64; 4]; 4];
        for order in 1..=4 {
            let e = ReferenceElement::new(order);
            for (c, (_, hex)) in pinned_cells().iter().enumerate() {
                seen[order - 1][c] = bits_hash(&ElementIntegrals::compute(&e, hex));
            }
        }
        for order in 1..=4 {
            for (c, (name, _)) in pinned_cells().iter().enumerate() {
                assert_eq!(
                    seen[order - 1][c],
                    PINS[order - 1][c],
                    "order {order}, {name}: the integrals moved a bit; all hashes: {seen:#018x?}"
                );
            }
        }
    }

    #[test]
    fn face_matrices_are_bitwise_symmetric() {
        for order in 1..=4 {
            let e = ReferenceElement::new(order);
            for (name, hex) in pinned_cells() {
                let ints = ElementIntegrals::compute(&e, &hex);
                for f in &ints.faces {
                    for m in &f.matrices {
                        for a in 0..m.rows() {
                            for b in 0..a {
                                assert_eq!(
                                    m[(a, b)].to_bits(),
                                    m[(b, a)].to_bits(),
                                    "order {order}, {name}, face {}: ({a},{b})",
                                    f.face
                                );
                            }
                        }
                    }
                }
            }
        }
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
