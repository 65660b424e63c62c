//! Bucketed wavefront sweep schedule (tlevel buckets).
//!
//! "The schedule used in our implementation calculates the tlevel of each
//! element for each angle, and places cells with the same tlevel in a
//! bucket.  The buckets represent the cells on each hyperplane/wavefront as
//! the sweep progresses across the mesh." (§III-A.2 of the paper.)
//!
//! The construction is Kahn's algorithm over the per-angle dependency
//! graph: cells whose inflow faces are all satisfied by boundary (or halo)
//! data form bucket 0; solving a cell decrements the dependency counter of
//! each downwind neighbour, and a neighbour whose counter reaches zero
//! joins the next bucket.  The paper's first UnSNAP version assumes the
//! graph is acyclic (true for the twisted-structured meshes it uses); we
//! keep the same assumption but *detect* cycles and report them as an
//! error instead of hanging.

use unsnap_mesh::{UnstructuredMesh, NUM_FACES};

use crate::graph::DependencyGraph;

/// Failure modes of schedule construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The dependency graph contains at least one cycle; the payload lists
    /// the cells that could not be scheduled.
    CyclicDependency {
        /// Cells left unscheduled when the wavefront stalled.
        unscheduled: Vec<usize>,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::CyclicDependency { unscheduled } => write!(
                f,
                "sweep dependency graph is cyclic: {} cells could not be scheduled",
                unscheduled.len()
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Summary statistics of a schedule — the quantities that control how much
/// on-node parallelism the sweep exposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleStats {
    /// Number of wavefront buckets (sweep steps).
    pub num_buckets: usize,
    /// Total cells scheduled.
    pub num_cells: usize,
    /// Smallest bucket (minimum concurrent work).
    pub min_bucket: usize,
    /// Largest bucket (maximum concurrent work).
    pub max_bucket: usize,
    /// Mean bucket size (average parallelism from the element dimension).
    pub mean_bucket: f64,
}

/// A wavefront sweep schedule for one angular direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSchedule {
    /// The direction this schedule was built for.
    pub omega: [f64; 3],
    /// Buckets of mutually independent cells, in sweep order.
    pub buckets: Vec<Vec<usize>>,
    /// tlevel of every scheduled cell (`usize::MAX` for cells outside the
    /// owned mask).
    pub tlevel: Vec<usize>,
    /// Inflow faces of every cell, one bit per face index (taken from the
    /// dependency graph so the assembly kernel does not need to
    /// re-classify faces); read through [`SweepSchedule::inflow_faces`].
    inflow_mask: Vec<u8>,
}

impl SweepSchedule {
    /// Build the schedule for the whole mesh.
    pub fn build(mesh: &UnstructuredMesh, omega: [f64; 3]) -> Result<Self, ScheduleError> {
        let graph = DependencyGraph::build(mesh, omega);
        Self::from_graph(&graph, None)
    }

    /// Build the schedule restricted to an ownership mask (per-rank
    /// subdomain sweep under the block-Jacobi global schedule).
    pub fn build_masked(
        mesh: &UnstructuredMesh,
        omega: [f64; 3],
        owned: &[bool],
    ) -> Result<Self, ScheduleError> {
        let graph = DependencyGraph::build_masked(mesh, omega, Some(owned));
        Self::from_graph(&graph, Some(owned))
    }

    /// Build the schedule from an existing dependency graph.
    pub fn from_graph(
        graph: &DependencyGraph,
        owned: Option<&[bool]>,
    ) -> Result<Self, ScheduleError> {
        let n = graph.num_cells();
        let is_owned = |cell: usize| owned.is_none_or(|m| m[cell]);
        let owned_cells = (0..n).filter(|&c| is_owned(c)).count();

        let mut remaining = graph.upwind_count.clone();
        let mut tlevel = vec![usize::MAX; n];
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        let mut scheduled = 0usize;

        // Bucket 0: owned cells with no unsatisfied local dependency.
        let mut current: Vec<usize> = (0..n)
            .filter(|&c| is_owned(c) && remaining[c] == 0)
            .collect();

        while !current.is_empty() {
            let level = buckets.len();
            let mut next = Vec::new();
            for &cell in &current {
                tlevel[cell] = level;
                scheduled += 1;
                for &(down, _) in &graph.downwind[cell] {
                    remaining[down] -= 1;
                    if remaining[down] == 0 {
                        next.push(down);
                    }
                }
            }
            buckets.push(current);
            current = next;
        }

        if scheduled != owned_cells {
            let unscheduled = (0..n)
                .filter(|&c| is_owned(c) && tlevel[c] == usize::MAX)
                .collect();
            return Err(ScheduleError::CyclicDependency { unscheduled });
        }

        Ok(Self {
            omega: graph.omega,
            buckets,
            tlevel,
            inflow_mask: graph
                .inflow_faces
                .iter()
                .map(|faces| faces.iter().fold(0, |mask, &face| mask | 1 << face))
                .collect(),
        })
    }

    /// The inflow faces of `cell`, in ascending face order (empty for a
    /// cell outside the owned mask).
    pub fn inflow_faces(&self, cell: usize) -> impl Iterator<Item = usize> {
        let mask = self.inflow_mask[cell];
        (0..NUM_FACES).filter(move |&face| mask & (1 << face) != 0)
    }

    /// Number of wavefront buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Total number of scheduled cells.
    pub fn num_cells_scheduled(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// Schedule statistics.
    pub fn stats(&self) -> ScheduleStats {
        let num_cells = self.num_cells_scheduled();
        let num_buckets = self.num_buckets();
        let min_bucket = self.buckets.iter().map(|b| b.len()).min().unwrap_or(0);
        let max_bucket = self.buckets.iter().map(|b| b.len()).max().unwrap_or(0);
        let mean_bucket = if num_buckets == 0 {
            0.0
        } else {
            num_cells as f64 / num_buckets as f64
        };
        ScheduleStats {
            num_buckets,
            num_cells,
            min_bucket,
            max_bucket,
            mean_bucket,
        }
    }

    /// Check that the schedule is a valid topological order of the
    /// dependency graph: every cell appears exactly once, and no cell is
    /// scheduled before one of its upwind dependencies.  Returns the number
    /// of violations (0 for a valid schedule).
    pub fn validate_against(&self, graph: &DependencyGraph) -> usize {
        let mut violations = 0;
        let mut seen = vec![0usize; graph.num_cells()];
        for &cell in self.buckets.iter().flatten() {
            seen[cell] += 1;
        }
        for &count in &seen {
            if count > 1 {
                violations += count - 1;
            }
        }
        for (up, downs) in graph.downwind.iter().enumerate() {
            for &(down, _) in downs {
                if self.tlevel[up] == usize::MAX || self.tlevel[down] == usize::MAX {
                    continue;
                }
                if self.tlevel[up] >= self.tlevel[down] {
                    violations += 1;
                }
            }
        }
        violations
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
    fn diagonal_sweep_has_expected_wavefront_count() {
        // On an n³ structured-derived mesh swept along the (+,+,+) diagonal
        // the number of wavefronts is 3(n-1)+1.
        for n in [2usize, 3, 4, 5] {
            let m = mesh(n);
            let s = SweepSchedule::build(&m, [0.55, 0.6, 0.58]).unwrap();
            assert_eq!(s.num_buckets(), 3 * (n - 1) + 1, "n = {n}");
            assert_eq!(s.num_cells_scheduled(), m.num_cells());
        }
    }

    #[test]
    fn all_cells_scheduled_exactly_once_for_every_octant() {
        let m = mesh(4);
        for sx in [-1.0, 1.0] {
            for sy in [-1.0, 1.0] {
                for sz in [-1.0, 1.0] {
                    let omega = [0.48 * sx, 0.62 * sy, 0.62 * sz];
                    let graph = DependencyGraph::build(&m, omega);
                    let s = SweepSchedule::from_graph(&graph, None).unwrap();
                    assert_eq!(s.num_cells_scheduled(), m.num_cells());
                    assert_eq!(s.validate_against(&graph), 0);
                }
            }
        }
    }

    #[test]
    fn tlevels_are_bucket_indices() {
        let m = mesh(3);
        let s = SweepSchedule::build(&m, [0.7, 0.5, 0.5]).unwrap();
        for (level, bucket) in s.buckets.iter().enumerate() {
            for &cell in bucket {
                assert_eq!(s.tlevel[cell], level);
            }
        }
    }

    #[test]
    fn first_bucket_contains_only_seed_cells() {
        let m = mesh(4);
        let omega = [0.5, 0.55, 0.67];
        let graph = DependencyGraph::build(&m, omega);
        let s = SweepSchedule::from_graph(&graph, None).unwrap();
        let mut seeds = graph.seed_cells();
        seeds.sort_unstable();
        let mut first = s.buckets[0].clone();
        first.sort_unstable();
        assert_eq!(first, seeds);
    }

    #[test]
    fn stats_reflect_bucket_shape() {
        let m = mesh(4);
        let s = SweepSchedule::build(&m, [0.5, 0.55, 0.67]).unwrap();
        let stats = s.stats();
        assert_eq!(stats.num_buckets, s.num_buckets());
        assert_eq!(stats.num_cells, 64);
        assert_eq!(stats.min_bucket, 1); // corner cells
        assert!(stats.max_bucket >= stats.min_bucket);
        assert!((stats.mean_bucket - 64.0 / s.num_buckets() as f64).abs() < 1e-12);
    }

    #[test]
    fn masked_schedule_covers_only_owned_cells() {
        let m = mesh(4);
        let grid = *m.origin_grid();
        let owned: Vec<bool> = (0..m.num_cells())
            .map(|id| grid.cell_ijk(id).1 >= 2)
            .collect();
        let owned_count = owned.iter().filter(|&&o| o).count();
        let s = SweepSchedule::build_masked(&m, [0.6, 0.6, 0.53], &owned).unwrap();
        assert_eq!(s.num_cells_scheduled(), owned_count);
        for &cell in s.buckets.iter().flatten() {
            assert!(owned[cell]);
        }
        // The masked sweep has fewer (or equal) wavefronts than the full one.
        let full = SweepSchedule::build(&m, [0.6, 0.6, 0.53]).unwrap();
        assert!(s.num_buckets() <= full.num_buckets());
    }

    #[test]
    fn inflow_faces_are_the_graphs_in_ascending_order() {
        let m = mesh(4);
        let grid = *m.origin_grid();
        let owned: Vec<bool> = (0..m.num_cells())
            .map(|id| grid.cell_ijk(id).1 >= 2)
            .collect();
        let omega = [0.6, -0.6, 0.53];
        let graph = DependencyGraph::build_masked(&m, omega, Some(&owned));
        let s = SweepSchedule::from_graph(&graph, Some(&owned)).unwrap();
        for cell in 0..m.num_cells() {
            let faces: Vec<usize> = s.inflow_faces(cell).collect();
            assert_eq!(faces, graph.inflow_faces[cell], "cell {cell}");
            assert!(faces.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(faces.is_empty(), !owned[cell]);
        }
    }

    #[test]
    fn masked_subdomains_start_immediately() {
        // Block Jacobi: every subdomain can begin work at once — each has a
        // non-empty first bucket regardless of the sweep direction.
        let m = mesh(4);
        let grid = *m.origin_grid();
        for half in 0..2 {
            let owned: Vec<bool> = (0..m.num_cells())
                .map(|id| (grid.cell_ijk(id).0 >= 2) == (half == 1))
                .collect();
            let s = SweepSchedule::build_masked(&m, [0.9, 0.3, 0.4], &owned).unwrap();
            assert!(!s.buckets[0].is_empty());
        }
    }

    #[test]
    fn axis_aligned_direction_sweeps_plane_by_plane() {
        // Untwisted mesh: a pure +x direction is exactly tangential to the
        // y and z faces, so wavefronts are y–z planes of 9 cells.
        let m = UnstructuredMesh::from_structured(&StructuredGrid::cube(3, 1.0), 0.0);
        let s = SweepSchedule::build(&m, [1.0, 0.0, 0.0]).unwrap();
        assert_eq!(s.num_buckets(), 3);
        for bucket in &s.buckets {
            assert_eq!(bucket.len(), 9);
        }
    }

    #[test]
    fn error_display() {
        let e = ScheduleError::CyclicDependency {
            unscheduled: vec![1, 2, 3],
        };
        assert!(e.to_string().contains("3 cells"));
    }
}
