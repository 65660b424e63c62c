//! The unstructured hexahedral mesh: per-cell geometry plus explicit
//! face-to-face connectivity.
//!
//! "The reliance on this data structure for resolving neighbouring element
//! connectivity is a key differentiator between the treatment of a
//! structured and unstructured grid." (§III of the paper.)  Nothing in the
//! downstream sweep or assembly code is allowed to reconstruct neighbours
//! from `(i, j, k)` arithmetic: all adjacency questions go through the
//! [`NeighborRef`] table built here.

use crate::structured::StructuredGrid;
use crate::twist::MeshTwist;

/// Number of faces of a hexahedral cell.
pub const NUM_FACES: usize = 6;

/// What lies on the other side of a cell face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborRef {
    /// Another cell of the mesh: `(cell id, that cell's face index)`.
    Interior {
        /// Neighbouring cell id.
        cell: usize,
        /// The neighbouring cell's face that is glued to this one.
        face: usize,
    },
    /// The domain boundary; the payload is the *domain* face index
    /// (0..6, same convention as cell faces) so boundary conditions can be
    /// looked up.
    Boundary {
        /// Domain face this boundary face belongs to.
        domain_face: usize,
    },
}

impl NeighborRef {
    /// `true` if the face is on the domain boundary.
    pub fn is_boundary(&self) -> bool {
        matches!(self, NeighborRef::Boundary { .. })
    }

    /// The neighbouring cell id, if interior.
    pub fn cell(&self) -> Option<usize> {
        match self {
            NeighborRef::Interior { cell, .. } => Some(*cell),
            NeighborRef::Boundary { .. } => None,
        }
    }
}

/// Summary statistics of the mesh connectivity, used by tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectivityStats {
    /// Total number of cell faces (6 × cells).
    pub total_faces: usize,
    /// Faces with an interior neighbour.
    pub interior_faces: usize,
    /// Faces on the domain boundary.
    pub boundary_faces: usize,
}

/// An unstructured mesh of hexahedral cells.
#[derive(Debug, Clone, PartialEq)]
pub struct UnstructuredMesh {
    /// Eight corner vertices per cell, corner-major
    /// (`c = i + 2j + 4k` ordering, matching `unsnap_fem::HexVertices`).
    cell_corners: Vec<[[f64; 3]; 8]>,
    /// Face connectivity: `neighbors[cell][face]`.
    neighbors: Vec<[NeighborRef; NUM_FACES]>,
    /// The structured grid this mesh was derived from (kept for the KBA
    /// decomposition and for tests; the solver never reads it).
    origin: StructuredGrid,
    /// The twist that was applied.
    twist: MeshTwist,
}

impl UnstructuredMesh {
    /// Build the unstructured mesh from a structured grid, applying a twist
    /// of `max_twist_angle` radians (0 for an untwisted mesh).
    ///
    /// The resulting mesh stores the structured grid's cells in the same
    /// order (x fastest), but all adjacency is recorded explicitly.
    pub fn from_structured(grid: &StructuredGrid, max_twist_angle: f64) -> Self {
        let twist = MeshTwist::about_domain(max_twist_angle, grid.lx, grid.ly, grid.lz);
        Self::from_structured_with_twist(grid, twist)
    }

    /// Build the unstructured mesh with an explicit twist description.
    pub fn from_structured_with_twist(grid: &StructuredGrid, twist: MeshTwist) -> Self {
        let n = grid.num_cells();
        let mut cell_corners = Vec::with_capacity(n);
        let mut neighbors = Vec::with_capacity(n);

        for id in 0..n {
            let (i, j, k) = grid.cell_ijk(id);
            let mut corners = grid.cell_corners(i, j, k);
            if !twist.is_identity() {
                for c in corners.iter_mut() {
                    *c = twist.apply(*c);
                }
            }
            cell_corners.push(corners);

            // Explicit neighbour table.  Face order: x-, x+, y-, y+, z-, z+.
            let mut nb = [NeighborRef::Boundary { domain_face: 0 }; NUM_FACES];
            let coords = [i as isize, j as isize, k as isize];
            let extents = [grid.nx as isize, grid.ny as isize, grid.nz as isize];
            for face in 0..NUM_FACES {
                let axis = face / 2;
                let dir: isize = if face % 2 == 0 { -1 } else { 1 };
                let mut c = coords;
                c[axis] += dir;
                if c[axis] < 0 || c[axis] >= extents[axis] {
                    nb[face] = NeighborRef::Boundary { domain_face: face };
                } else {
                    let ncell = grid.cell_id(c[0] as usize, c[1] as usize, c[2] as usize);
                    // The neighbour sees us through its opposite face.
                    let opposite = if face % 2 == 0 { face + 1 } else { face - 1 };
                    nb[face] = NeighborRef::Interior {
                        cell: ncell,
                        face: opposite,
                    };
                }
            }
            neighbors.push(nb);
        }

        Self {
            cell_corners,
            neighbors,
            origin: *grid,
            twist,
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cell_corners.len()
    }

    /// The eight corner vertices of cell `cell`.
    pub fn cell_corners(&self, cell: usize) -> &[[f64; 3]; 8] {
        &self.cell_corners[cell]
    }

    /// The neighbour reference for `(cell, face)`.
    pub fn neighbor(&self, cell: usize, face: usize) -> NeighborRef {
        self.neighbors[cell][face]
    }

    /// All six neighbour references of a cell.
    pub fn neighbors_of(&self, cell: usize) -> &[NeighborRef; NUM_FACES] {
        &self.neighbors[cell]
    }

    /// Centroid of a cell (average of its eight corners).
    pub fn cell_centroid(&self, cell: usize) -> [f64; 3] {
        let mut c = [0.0; 3];
        for corner in &self.cell_corners[cell] {
            for d in 0..3 {
                c[d] += corner[d] / 8.0;
            }
        }
        c
    }

    /// The structured grid the mesh was derived from.
    ///
    /// Only the partitioner and tests use this; the sweep and assembly
    /// code paths rely exclusively on the explicit connectivity.
    pub fn origin_grid(&self) -> &StructuredGrid {
        &self.origin
    }

    /// The twist applied to the mesh.
    pub fn twist(&self) -> &MeshTwist {
        &self.twist
    }

    /// Count interior and boundary faces.
    pub fn connectivity_stats(&self) -> ConnectivityStats {
        let total_faces = self.num_cells() * NUM_FACES;
        let boundary_faces = self
            .neighbors
            .iter()
            .flat_map(|nb| nb.iter())
            .filter(|n| n.is_boundary())
            .count();
        ConnectivityStats {
            total_faces,
            interior_faces: total_faces - boundary_faces,
            boundary_faces,
        }
    }

    /// Verify that the connectivity is symmetric: if cell A lists B through
    /// face f, then B must list A through the face it reported.
    /// Returns the number of inconsistent faces (0 for a valid mesh).
    pub fn validate_connectivity(&self) -> usize {
        let mut bad = 0;
        for (cell, nb) in self.neighbors.iter().enumerate() {
            for (face, n) in nb.iter().enumerate() {
                if let NeighborRef::Interior {
                    cell: other,
                    face: other_face,
                } = n
                {
                    match self.neighbors[*other][*other_face] {
                        NeighborRef::Interior {
                            cell: back,
                            face: back_face,
                        } if back == cell && back_face == face => {}
                        _ => bad += 1,
                    }
                }
            }
        }
        bad
    }

    /// Apply a cell renumbering: `permutation[new_id] = old_id`.
    ///
    /// Element numbering affects memory locality during the sweep (§IV-A of
    /// the paper discusses how the indirect element indexing interacts with
    /// data layout), so the mesh supports renumbering for layout
    /// experiments.  The permutation must be a bijection on `0..num_cells`.
    pub fn renumber(&self, permutation: &[usize]) -> UnstructuredMesh {
        assert_eq!(permutation.len(), self.num_cells());
        let n = self.num_cells();
        // old -> new mapping
        let mut new_of_old = vec![usize::MAX; n];
        for (new_id, &old_id) in permutation.iter().enumerate() {
            assert!(old_id < n, "permutation entry out of range");
            assert_eq!(
                new_of_old[old_id],
                usize::MAX,
                "permutation is not a bijection"
            );
            new_of_old[old_id] = new_id;
        }

        let mut cell_corners = Vec::with_capacity(n);
        let mut neighbors = Vec::with_capacity(n);
        for &old_id in permutation.iter() {
            cell_corners.push(self.cell_corners[old_id]);
            let mut nb = self.neighbors[old_id];
            for entry in nb.iter_mut() {
                if let NeighborRef::Interior { cell, .. } = entry {
                    *cell = new_of_old[*cell];
                }
            }
            neighbors.push(nb);
        }

        UnstructuredMesh {
            cell_corners,
            neighbors,
            origin: self.origin,
            twist: self.twist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mesh() -> UnstructuredMesh {
        UnstructuredMesh::from_structured(&StructuredGrid::cube(3, 1.0), 0.0)
    }

    #[test]
    fn cell_count_matches_grid() {
        let mesh = small_mesh();
        assert_eq!(mesh.num_cells(), 27);
    }

    #[test]
    fn connectivity_is_symmetric() {
        for n in [1usize, 2, 3, 4] {
            let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.001);
            assert_eq!(mesh.validate_connectivity(), 0, "n = {n}");
        }
        let mesh =
            UnstructuredMesh::from_structured(&StructuredGrid::new(3, 4, 5, 1.0, 2.0, 3.0), 0.0005);
        assert_eq!(mesh.validate_connectivity(), 0);
    }

    #[test]
    fn boundary_face_counts() {
        // An n³ cube has 6 n² boundary faces.
        for n in [1usize, 2, 4] {
            let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.0);
            let stats = mesh.connectivity_stats();
            assert_eq!(stats.boundary_faces, 6 * n * n);
            assert_eq!(stats.total_faces, 6 * n * n * n);
            assert_eq!(
                stats.interior_faces,
                stats.total_faces - stats.boundary_faces
            );
        }
    }

    #[test]
    fn single_cell_mesh_is_all_boundary() {
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(1, 1.0), 0.0);
        for face in 0..NUM_FACES {
            let nb = mesh.neighbor(0, face);
            assert!(nb.is_boundary());
            assert_eq!(nb.cell(), None);
            match nb {
                NeighborRef::Boundary { domain_face } => assert_eq!(domain_face, face),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn interior_neighbors_point_at_correct_cells() {
        let grid = StructuredGrid::cube(3, 3.0);
        let mesh = UnstructuredMesh::from_structured(&grid, 0.0);
        let centre = grid.cell_id(1, 1, 1);
        // The centre cell of a 3³ grid has all six neighbours interior.
        let expected = [
            grid.cell_id(0, 1, 1),
            grid.cell_id(2, 1, 1),
            grid.cell_id(1, 0, 1),
            grid.cell_id(1, 2, 1),
            grid.cell_id(1, 1, 0),
            grid.cell_id(1, 1, 2),
        ];
        for (face, &want) in expected.iter().enumerate() {
            match mesh.neighbor(centre, face) {
                NeighborRef::Interior { cell, face: nf } => {
                    assert_eq!(cell, want);
                    // The neighbour sees us through the opposite face.
                    let opposite = if face % 2 == 0 { face + 1 } else { face - 1 };
                    assert_eq!(nf, opposite);
                }
                _ => panic!("face {face} of centre cell should be interior"),
            }
        }
    }

    #[test]
    fn untwisted_cells_are_axis_aligned_cubes() {
        let mesh = small_mesh();
        let corners = mesh.cell_corners(0);
        assert_eq!(corners[0], [0.0, 0.0, 0.0]);
        let third = 1.0 / 3.0;
        assert!((corners[7][0] - third).abs() < 1e-15);
        assert!((corners[7][1] - third).abs() < 1e-15);
        assert!((corners[7][2] - third).abs() < 1e-15);
    }

    #[test]
    fn twist_deforms_upper_cells_but_not_lower() {
        let grid = StructuredGrid::cube(4, 1.0);
        let straight = UnstructuredMesh::from_structured(&grid, 0.0);
        let twisted = UnstructuredMesh::from_structured(&grid, 0.001);
        // Bottom-layer cell, bottom face corners identical (z = 0).
        let c0s = straight.cell_corners(0);
        let c0t = twisted.cell_corners(0);
        for corner in 0..4 {
            assert_eq!(c0s[corner], c0t[corner]);
        }
        // Top-layer cell corners move.
        let top = grid.cell_id(3, 3, 3);
        let cts = straight.cell_corners(top);
        let ctt = twisted.cell_corners(top);
        let moved = (0..8).any(|c| cts[c] != ctt[c]);
        assert!(moved);
        // Centroid height unchanged by the twist.
        assert!((straight.cell_centroid(top)[2] - twisted.cell_centroid(top)[2]).abs() < 1e-15);
    }

    #[test]
    fn centroids_of_untwisted_mesh_are_cell_centres() {
        let grid = StructuredGrid::cube(2, 2.0);
        let mesh = UnstructuredMesh::from_structured(&grid, 0.0);
        let c = mesh.cell_centroid(grid.cell_id(1, 0, 1));
        assert!((c[0] - 1.5).abs() < 1e-15);
        assert!((c[1] - 0.5).abs() < 1e-15);
        assert!((c[2] - 1.5).abs() < 1e-15);
    }

    #[test]
    fn renumber_preserves_connectivity_validity() {
        let mesh = small_mesh();
        // Reverse numbering.
        let perm: Vec<usize> = (0..mesh.num_cells()).rev().collect();
        let renumbered = mesh.renumber(&perm);
        assert_eq!(renumbered.num_cells(), mesh.num_cells());
        assert_eq!(renumbered.validate_connectivity(), 0);
        // Cell 0 of the renumbered mesh is the old last cell.
        assert_eq!(
            renumbered.cell_corners(0),
            mesh.cell_corners(mesh.num_cells() - 1)
        );
    }

    #[test]
    #[should_panic]
    fn renumber_rejects_non_bijection() {
        let mesh = small_mesh();
        let mut perm: Vec<usize> = (0..mesh.num_cells()).collect();
        perm[1] = 0; // duplicate
        let _ = mesh.renumber(&perm);
    }

    #[test]
    fn origin_and_twist_accessors() {
        let grid = StructuredGrid::cube(2, 1.0);
        let mesh = UnstructuredMesh::from_structured(&grid, 0.25);
        assert_eq!(mesh.origin_grid().num_cells(), 8);
        assert!((mesh.twist().max_angle - 0.25).abs() < 1e-15);
    }
}
