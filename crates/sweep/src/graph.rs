//! The per-angle dependency graph of the sweep.
//!
//! For a fixed direction `Ω`, every interior face of the mesh induces one
//! dependency edge: the cell on the upwind side must be solved before the
//! cell on the downwind side.  Boundary faces induce no edge (their data
//! comes from boundary conditions), and faces whose owner is on a different
//! rank induce no *local* edge either — under the block-Jacobi global
//! schedule (§III-A.1 of the paper) remote data is taken from the previous
//! iteration's halo, so each rank sweeps its own subdomain independently.

use unsnap_mesh::{NeighborRef, UnstructuredMesh, NUM_FACES};

use crate::upwind::{classify_face, FaceClass};

/// Dependency information for one sweep direction over (a subset of) the
/// mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct DependencyGraph {
    /// The sweep direction this graph was built for.
    pub omega: [f64; 3],
    /// For every cell: the faces through which particles enter
    /// (`Ω·n < 0`).
    pub inflow_faces: Vec<Vec<usize>>,
    /// For every cell: the faces through which particles leave.
    pub outflow_faces: Vec<Vec<usize>>,
    /// For every cell: the number of *local* upwind dependencies, i.e.
    /// inflow faces whose neighbouring cell is in the same domain.
    pub upwind_count: Vec<usize>,
    /// For every cell: list of `(downwind cell, its inflow face)` pairs fed
    /// by this cell.
    pub downwind: Vec<Vec<(usize, usize)>>,
}

impl DependencyGraph {
    /// Build the dependency graph for the whole mesh.
    pub fn build(mesh: &UnstructuredMesh, omega: [f64; 3]) -> Self {
        Self::build_masked(mesh, omega, None)
    }

    /// Build the dependency graph restricted to the cells for which
    /// `owned[cell]` is `true` (cells outside the mask contribute no local
    /// dependencies — their data arrives through the halo).  `None` means
    /// all cells are owned.
    pub fn build_masked(mesh: &UnstructuredMesh, omega: [f64; 3], owned: Option<&[bool]>) -> Self {
        let n = mesh.num_cells();
        if let Some(mask) = owned {
            assert_eq!(mask.len(), n, "ownership mask length mismatch");
        }
        let is_owned = |cell: usize| owned.is_none_or(|m| m[cell]);

        let mut inflow_faces = vec![Vec::new(); n];
        let mut outflow_faces = vec![Vec::new(); n];
        let mut upwind_count = vec![0usize; n];
        let mut downwind = vec![Vec::new(); n];

        for cell in 0..n {
            if !is_owned(cell) {
                continue;
            }
            for face in 0..NUM_FACES {
                match classify_face(mesh, cell, face, omega, 1e-12) {
                    FaceClass::Inflow => {
                        inflow_faces[cell].push(face);
                        if let NeighborRef::Interior { cell: upwind, .. } =
                            mesh.neighbor(cell, face)
                        {
                            if is_owned(upwind) {
                                upwind_count[cell] += 1;
                                downwind[upwind].push((cell, face));
                            }
                        }
                    }
                    FaceClass::Outflow => outflow_faces[cell].push(face),
                    FaceClass::Tangential => {}
                }
            }
        }

        Self {
            omega,
            inflow_faces,
            outflow_faces,
            upwind_count,
            downwind,
        }
    }

    /// Number of cells in the underlying mesh.
    pub fn num_cells(&self) -> usize {
        self.upwind_count.len()
    }

    /// Cells with no local upwind dependency (the seeds of the sweep).
    pub fn seed_cells(&self) -> Vec<usize> {
        self.upwind_count
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_mesh::StructuredGrid;

    fn mesh(n: usize) -> UnstructuredMesh {
        UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.001)
    }

    #[test]
    fn octant_direction_gives_three_in_three_out() {
        let m = mesh(3);
        let g = DependencyGraph::build(&m, [0.5, 0.6, 0.62]);
        for cell in 0..m.num_cells() {
            assert_eq!(g.inflow_faces[cell].len(), 3);
            assert_eq!(g.outflow_faces[cell].len(), 3);
        }
    }

    #[test]
    fn corner_cell_is_the_only_seed_for_diagonal_direction() {
        let m = mesh(3);
        // +++ octant: the (0,0,0) corner cell has all inflow faces on the
        // domain boundary, every other cell depends on something.
        let g = DependencyGraph::build(&m, [0.5, 0.6, 0.62]);
        assert_eq!(g.seed_cells(), vec![0]);
        // The opposite octant seeds from the far corner.
        let g = DependencyGraph::build(&m, [-0.5, -0.6, -0.62]);
        assert_eq!(g.seed_cells(), vec![m.num_cells() - 1]);
    }

    #[test]
    fn edge_count_matches_interior_inflow_faces() {
        let m = mesh(4);
        let g = DependencyGraph::build(&m, [0.3, 0.9, 0.4]);
        // Every interior face is an inflow face of exactly one of its two
        // cells, so edges = interior faces / 2.
        let stats = m.connectivity_stats();
        let edges: usize = g.downwind.iter().map(|d| d.len()).sum();
        assert_eq!(edges, stats.interior_faces / 2);
        // upwind_count totals must equal the edge count.
        let total: usize = g.upwind_count.iter().sum();
        assert_eq!(total, edges);
    }

    #[test]
    fn downwind_lists_are_consistent_with_upwind_counts() {
        let m = mesh(3);
        let g = DependencyGraph::build(&m, [0.7, 0.2, 0.8]);
        let mut counted = vec![0usize; m.num_cells()];
        for dl in &g.downwind {
            for &(cell, face) in dl {
                counted[cell] += 1;
                assert!(g.inflow_faces[cell].contains(&face));
            }
        }
        assert_eq!(counted, g.upwind_count);
    }

    #[test]
    fn masked_graph_ignores_unowned_cells() {
        let m = mesh(4);
        // Own only the x < 2 half.
        let grid = *m.origin_grid();
        let owned: Vec<bool> = (0..m.num_cells())
            .map(|id| grid.cell_ijk(id).0 < 2)
            .collect();
        let g = DependencyGraph::build_masked(&m, [0.5, 0.5, 0.7], Some(&owned));
        for cell in 0..m.num_cells() {
            if !owned[cell] {
                assert!(g.inflow_faces[cell].is_empty());
                assert!(g.outflow_faces[cell].is_empty());
                assert_eq!(g.upwind_count[cell], 0);
                assert!(g.downwind[cell].is_empty());
            }
        }
        // No edge crosses the ownership boundary.
        for (up, dl) in g.downwind.iter().enumerate() {
            for &(down, _) in dl {
                assert!(owned[up] && owned[down]);
            }
        }
    }

    #[test]
    fn single_cell_graph_has_no_edges() {
        let m = UnstructuredMesh::from_structured(&StructuredGrid::cube(1, 1.0), 0.0);
        let g = DependencyGraph::build(&m, [0.57, 0.57, 0.59]);
        assert!(g.downwind.iter().all(|d| d.is_empty()));
        assert_eq!(g.seed_cells(), vec![0]);
        assert_eq!(g.inflow_faces[0].len(), 3);
    }
}
