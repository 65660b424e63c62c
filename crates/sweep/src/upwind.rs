//! The face normals the sweep's upwind classification reads.
//!
//! The sweep dependency between two cells is set by the sign of `Ω · n` on
//! their shared face, where `n` is the outward normal of the face as seen
//! from the cell being classified.  For the mildly twisted UnSNAP meshes
//! every face is planar to within the twist angle, so the classification
//! uses the average face normal computed from the four face corners
//! ([`face_outward_normal`]; the classification itself is
//! [`SweepSchedules::build`](crate::schedule::SweepSchedules::build)'s).

use unsnap_mesh::UnstructuredMesh;

/// Local corner indices (in the `c = i + 2j + 4k` ordering) of each face of
/// a hexahedron, listed as the quadrilateral `(a, b, c, d)` where `a→b` and
/// `a→c` are the two in-face edge directions.
const FACE_CORNERS: [[usize; 4]; 6] = [
    [0, 2, 4, 6], // x-
    [1, 3, 5, 7], // x+
    [0, 1, 4, 5], // y-
    [2, 3, 6, 7], // y+
    [0, 1, 2, 3], // z-
    [4, 5, 6, 7], // z+
];

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn add(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

pub(crate) fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn scale(a: [f64; 3], s: f64) -> [f64; 3] {
    [a[0] * s, a[1] * s, a[2] * s]
}

fn norm(a: [f64; 3]) -> f64 {
    dot(a, a).sqrt()
}

/// Outward unit normal of `(cell, face)` computed from the face's corner
/// vertices (the mean-tangent cross product, oriented away from the cell
/// centroid).
pub fn face_outward_normal(mesh: &UnstructuredMesh, cell: usize, face: usize) -> [f64; 3] {
    let corners = mesh.cell_corners(cell);
    let [a, b, c, d] = FACE_CORNERS[face];
    let (pa, pb, pc, pd) = (corners[a], corners[b], corners[c], corners[d]);
    // Mean tangents of the (possibly non-planar) quadrilateral patch.
    let t1 = sub(add(pb, pd), add(pa, pc));
    let t2 = sub(add(pc, pd), add(pa, pb));
    let mut n = cross(t1, t2);
    let len = norm(n);
    if len > 0.0 {
        n = scale(n, 1.0 / len);
    }
    // Orient outward: away from the cell centroid.
    let centroid = mesh.cell_centroid(cell);
    let face_centre = scale(add(add(pa, pb), add(pc, pd)), 0.25);
    if dot(n, sub(face_centre, centroid)) < 0.0 {
        n = scale(n, -1.0);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_mesh::StructuredGrid;

    fn mesh(n: usize, twist: f64) -> UnstructuredMesh {
        UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), twist)
    }

    #[test]
    fn untwisted_normals_are_axis_aligned() {
        let m = mesh(2, 0.0);
        let expected = [
            [-1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0],
        ];
        for cell in 0..m.num_cells() {
            for face in 0..6 {
                let n = face_outward_normal(&m, cell, face);
                for d in 0..3 {
                    assert!(
                        (n[d] - expected[face][d]).abs() < 1e-12,
                        "cell {cell} face {face}: {n:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn twisted_normals_remain_close_to_axes_and_unit_length() {
        let m = mesh(4, 0.001);
        for cell in 0..m.num_cells() {
            for face in 0..6 {
                let n = face_outward_normal(&m, cell, face);
                assert!((norm(n) - 1.0).abs() < 1e-12);
                let axis = face / 2;
                let sign = if face % 2 == 0 { -1.0 } else { 1.0 };
                assert!(
                    (n[axis] * sign) > 0.99,
                    "twist should barely tilt the normals"
                );
            }
        }
    }

    #[test]
    fn opposite_faces_of_adjacent_cells_have_opposite_normals() {
        let m = mesh(3, 0.001);
        for cell in 0..m.num_cells() {
            for face in 0..6 {
                if let unsnap_mesh::NeighborRef::Interior {
                    cell: other,
                    face: of,
                } = m.neighbor(cell, face)
                {
                    let n1 = face_outward_normal(&m, cell, face);
                    let n2 = face_outward_normal(&m, other, of);
                    assert!(dot(n1, n2) < -0.999, "shared face normals must oppose");
                }
            }
        }
    }
}
