//! Trilinear (Q1) geometric mapping from the reference cube to a physical,
//! possibly twisted, hexahedral cell.
//!
//! UnSNAP builds its unstructured mesh by constructing the original SNAP
//! structured mesh and then *twisting* it slightly along one axis so that
//! cells are no longer perfect cubes (§III of the paper).  The geometry of
//! each cell is therefore fully described by its eight corner vertices and
//! the standard trilinear map; higher-order solution nodes are placed by
//! the same map (sub-parametric elements).

use crate::face::Face;

/// The eight corner vertices of a hexahedral cell.
///
/// Vertex ordering matches the linear reference-element node ordering:
/// `c = i + 2 j + 4 k` with `i, j, k ∈ {0, 1}` along ξ, η, ζ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HexVertices {
    /// Corner coordinates, vertex-major.
    pub corners: [[f64; 3]; 8],
}

impl HexVertices {
    /// The unit cube `[0, 1]³`.
    pub fn unit_cube() -> Self {
        Self::axis_aligned([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    }

    /// An axis-aligned box from `lo` to `hi`.
    pub fn axis_aligned(lo: [f64; 3], hi: [f64; 3]) -> Self {
        let mut corners = [[0.0; 3]; 8];
        for (c, corner) in corners.iter_mut().enumerate() {
            let i = c & 1;
            let j = (c >> 1) & 1;
            let k = (c >> 2) & 1;
            corner[0] = if i == 0 { lo[0] } else { hi[0] };
            corner[1] = if j == 0 { lo[1] } else { hi[1] };
            corner[2] = if k == 0 { lo[2] } else { hi[2] };
        }
        Self { corners }
    }

    /// Trilinear shape function of corner `c` at reference point `xi`.
    #[inline]
    pub(crate) fn shape(c: usize, xi: [f64; 3]) -> f64 {
        let i = (c & 1) as f64;
        let j = ((c >> 1) & 1) as f64;
        let k = ((c >> 2) & 1) as f64;
        0.125
            * (1.0 + (2.0 * i - 1.0) * xi[0])
            * (1.0 + (2.0 * j - 1.0) * xi[1])
            * (1.0 + (2.0 * k - 1.0) * xi[2])
    }

    /// Gradient (w.r.t. reference coordinates) of the trilinear shape
    /// function of corner `c` at `xi`.
    #[inline]
    fn shape_gradient(c: usize, xi: [f64; 3]) -> [f64; 3] {
        let si = 2.0 * ((c & 1) as f64) - 1.0;
        let sj = 2.0 * (((c >> 1) & 1) as f64) - 1.0;
        let sk = 2.0 * (((c >> 2) & 1) as f64) - 1.0;
        [
            0.125 * si * (1.0 + sj * xi[1]) * (1.0 + sk * xi[2]),
            0.125 * (1.0 + si * xi[0]) * sj * (1.0 + sk * xi[2]),
            0.125 * (1.0 + si * xi[0]) * (1.0 + sj * xi[1]) * sk,
        ]
    }

    /// The gradients of the eight trilinear shape functions at `xi`,
    /// corner by corner: the same for every cell, so an integration
    /// tabulates them once per quadrature point.
    pub(crate) fn shape_gradients(xi: [f64; 3]) -> ShapeGradients {
        std::array::from_fn(|c| Self::shape_gradient(c, xi))
    }

    /// Map a reference point to physical coordinates.
    pub fn map(&self, xi: [f64; 3]) -> [f64; 3] {
        let mut x = [0.0; 3];
        for c in 0..8 {
            let n = Self::shape(c, xi);
            for d in 0..3 {
                x[d] += n * self.corners[c][d];
            }
        }
        x
    }

    /// Jacobian matrix `J[d][e] = ∂x_d / ∂ξ_e` at the reference point whose
    /// shape gradients are `grads`.
    fn jacobian(&self, grads: &ShapeGradients) -> [[f64; 3]; 3] {
        let mut j = [[0.0; 3]; 3];
        for (corner, g) in self.corners.iter().zip(grads) {
            for d in 0..3 {
                for e in 0..3 {
                    j[d][e] += corner[d] * g[e];
                }
            }
        }
        j
    }

    /// Determinant and inverse of the Jacobian at the reference point whose
    /// shape gradients are `grads`, from one evaluation of it.
    ///
    /// Returns `None` if the Jacobian is (numerically) singular, which
    /// indicates a degenerate or inverted cell.
    pub(crate) fn jacobian_det_inverse(
        &self,
        grads: &ShapeGradients,
    ) -> Option<(f64, [[f64; 3]; 3])> {
        det_inverse3(&self.jacobian(grads))
    }

    /// The (signed) area vector `n dS` of `face` at the in-face quadrature
    /// point whose shape gradients are `grads`: a vector whose direction is
    /// the outward normal and whose magnitude is the surface Jacobian (so
    /// that summing `weight · |area_vector|` over the face rule gives the
    /// face area).
    pub(crate) fn face_area_vector(&self, face: Face, grads: &ShapeGradients) -> [f64; 3] {
        let axis = face.axis();
        let (a, b) = match axis {
            0 => (1, 2),
            1 => (0, 2),
            _ => (0, 1),
        };
        // Tangent vectors along the two in-face reference axes: columns `a`
        // and `b` of the Jacobian, each entry summed over the corners in
        // the order `jacobian` sums it.
        let (mut ta, mut tb) = ([0.0; 3], [0.0; 3]);
        for (corner, g) in self.corners.iter().zip(grads) {
            for d in 0..3 {
                ta[d] += corner[d] * g[a];
                tb[d] += corner[d] * g[b];
            }
        }
        let mut n = cross(ta, tb);
        // cross(e_a, e_b) points along +axis for axes (1,2)->0 and (0,1)->2
        // but along -axis for (0,2)->1; combine with the face sign so the
        // result is always outward.
        let parity = if axis == 1 { -1.0 } else { 1.0 };
        let sign = if face.is_positive() { 1.0 } else { -1.0 } * parity;
        for v in n.iter_mut() {
            *v *= sign;
        }
        n
    }
}

/// The reference-space gradients of the eight trilinear shape functions at
/// one point, corner-major.
pub(crate) type ShapeGradients = [[f64; 3]; 8];

/// 3×3 determinant.
fn det3(m: &[[f64; 3]; 3]) -> f64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

/// 3×3 determinant (the bits of `det3`) and inverse; `None` if the
/// determinant is ~0.
pub(crate) fn det_inverse3(m: &[[f64; 3]; 3]) -> Option<(f64, [[f64; 3]; 3])> {
    let d = det3(m);
    if d.abs() < 1e-300 {
        return None;
    }
    let inv_d = 1.0 / d;
    let mut inv = [[0.0; 3]; 3];
    inv[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_d;
    inv[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_d;
    inv[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_d;
    inv[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_d;
    inv[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_d;
    inv[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_d;
    inv[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_d;
    inv[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_d;
    inv[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_d;
    Some((d, inv))
}

/// Cross product of two 3-vectors.
#[inline]
pub(crate) fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// Dot product of two 3-vectors.
#[inline]
pub(crate) fn dot3(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Euclidean norm of a 3-vector.
#[inline]
pub(crate) fn norm3(a: [f64; 3]) -> f64 {
    dot3(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::face::FACES;

    fn twisted_cell(angle: f64) -> HexVertices {
        // Rotate the top face of the unit cube by `angle` about its centre
        // (a miniature version of the UnSNAP mesh twist).
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
    fn shape_functions_sum_to_one() {
        for &xi in &[[-1.0, -1.0, -1.0], [0.0, 0.0, 0.0], [0.3, -0.8, 0.5]] {
            let sum: f64 = (0..8).map(|c| HexVertices::shape(c, xi)).sum();
            assert!((sum - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn map_hits_corners() {
        let hex = HexVertices::axis_aligned([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]);
        assert_eq!(hex.map([-1.0, -1.0, -1.0]), [1.0, 2.0, 3.0]);
        assert_eq!(hex.map([1.0, 1.0, 1.0]), [2.0, 4.0, 6.0]);
        assert_eq!(hex.map([1.0, -1.0, -1.0]), [2.0, 2.0, 3.0]);
        // Centre of the reference cube maps to the box centre.
        let c = hex.map([0.0, 0.0, 0.0]);
        assert_eq!(c, [1.5, 3.0, 4.5]);
    }

    #[test]
    fn jacobian_of_axis_aligned_box_is_diagonal() {
        let hex = HexVertices::axis_aligned([0.0; 3], [2.0, 4.0, 8.0]);
        let j = hex.jacobian(&HexVertices::shape_gradients([0.1, -0.3, 0.8]));
        for d in 0..3 {
            for e in 0..3 {
                if d == e {
                    assert!((j[d][e] - [1.0, 2.0, 4.0][d]).abs() < 1e-14);
                } else {
                    assert!(j[d][e].abs() < 1e-14);
                }
            }
        }
        assert!((det3(&hex.jacobian(&HexVertices::shape_gradients([0.0; 3]))) - 8.0).abs() < 1e-13);
    }

    #[test]
    fn shape_gradient_matches_finite_difference() {
        let h = 1e-6;
        let xi = [0.2, -0.5, 0.7];
        for c in 0..8 {
            let g = HexVertices::shape_gradient(c, xi);
            for d in 0..3 {
                let mut xp = xi;
                let mut xm = xi;
                xp[d] += h;
                xm[d] -= h;
                let fd = (HexVertices::shape(c, xp) - HexVertices::shape(c, xm)) / (2.0 * h);
                assert!((fd - g[d]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn volume_of_boxes_and_twisted_cells() {
        let hex = HexVertices::axis_aligned([0.0; 3], [2.0, 3.0, 4.0]);
        let volume = |hex: &HexVertices, points_per_dir: usize| -> f64 {
            crate::quadrature::hex_rule(points_per_dir)
                .iter()
                .map(|p| {
                    p.weight
                        * hex
                            .jacobian_det_inverse(&HexVertices::shape_gradients(p.xi))
                            .unwrap()
                            .0
                })
                .sum()
        };
        assert!((volume(&hex, 2) - 24.0).abs() < 1e-11);
        // A small twist preserves the volume to first order (shear).
        let twisted = twisted_cell(0.001);
        assert!((volume(&twisted, 3) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn jacobian_inverse_round_trip() {
        let hex = twisted_cell(0.3);
        let xi = [0.25, -0.4, 0.6];
        let grads = HexVertices::shape_gradients(xi);
        let j = hex.jacobian(&grads);
        let (det, ji) = hex.jacobian_det_inverse(&grads).unwrap();
        assert_eq!(det.to_bits(), det3(&j).to_bits());
        for d in 0..3 {
            for e in 0..3 {
                let prod: f64 = (0..3).map(|k| j[d][k] * ji[k][e]).sum();
                let expected = if d == e { 1.0 } else { 0.0 };
                assert!((prod - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn degenerate_cell_has_no_inverse() {
        // All corners collapsed onto a plane.
        let mut hex = HexVertices::unit_cube();
        for corner in hex.corners.iter_mut() {
            corner[2] = 0.0;
        }
        assert!(hex
            .jacobian_det_inverse(&HexVertices::shape_gradients([0.0; 3]))
            .is_none());
    }

    #[test]
    fn face_area_vectors_point_outward_and_sum_to_zero() {
        for hex in [
            HexVertices::unit_cube(),
            HexVertices::axis_aligned([0.0; 3], [2.0, 1.0, 3.0]),
            twisted_cell(0.2),
        ] {
            // The trilinear map takes the reference centre to the mean
            // of the eight corners.
            let centroid = hex.map([0.0; 3]);
            let mut total = [0.0; 3];
            for &face in &FACES {
                let pts = crate::quadrature::face_rule(2, face.axis(), face.is_positive());
                let mut face_vec = [0.0; 3];
                let mut face_centre = [0.0; 3];
                for p in &pts {
                    let av = hex.face_area_vector(face, &HexVertices::shape_gradients(p.xi));
                    for d in 0..3 {
                        face_vec[d] += p.weight * av[d];
                        face_centre[d] += hex.map(p.xi)[d] / pts.len() as f64;
                    }
                }
                // Outward: the area vector points away from the centroid.
                let out = [
                    face_centre[0] - centroid[0],
                    face_centre[1] - centroid[1],
                    face_centre[2] - centroid[2],
                ];
                assert!(dot3(face_vec, out) > 0.0, "face {face} normal not outward");
                for d in 0..3 {
                    total[d] += face_vec[d];
                }
            }
            // A closed surface has zero total area vector.
            assert!(norm3(total) < 1e-12);
        }
    }

    #[test]
    fn unit_cube_face_areas_are_one() {
        let hex = HexVertices::unit_cube();
        for &face in &FACES {
            let pts = crate::quadrature::face_rule(2, face.axis(), face.is_positive());
            let area: f64 = pts
                .iter()
                .map(|p| {
                    let grads = HexVertices::shape_gradients(p.xi);
                    p.weight * norm3(hex.face_area_vector(face, &grads))
                })
                .sum();
            assert!((area - 1.0).abs() < 1e-12, "face {face}: area = {area}");
        }
    }

    #[test]
    fn det_and_inverse_helpers() {
        let m = [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]];
        assert_eq!(det3(&m), 24.0);
        let (det, inv) = det_inverse3(&m).unwrap();
        assert_eq!(det, 24.0);
        assert!((inv[0][0] - 0.5).abs() < 1e-15);
        assert!((inv[2][2] - 0.25).abs() < 1e-15);
        let singular = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]];
        assert!(det_inverse3(&singular).is_none());
    }

    #[test]
    fn cross_and_dot() {
        let x = [1.0, 0.0, 0.0];
        let y = [0.0, 1.0, 0.0];
        assert_eq!(cross(x, y), [0.0, 0.0, 1.0]);
        assert_eq!(dot3(x, y), 0.0);
        assert_eq!(norm3([3.0, 4.0, 0.0]), 5.0);
    }
}
