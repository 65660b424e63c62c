//! Bucketed wavefront sweep schedules (tlevel buckets), one per upwind
//! pattern.
//!
//! "The schedule used in our implementation calculates the tlevel of each
//! element for each angle, and places cells with the same tlevel in a
//! bucket.  The buckets represent the cells on each hyperplane/wavefront as
//! the sweep progresses across the mesh." (§III-A.2 of the paper.)
//!
//! The paper calls the schedule only *potentially* unique per angle: all
//! that the dependency graph of a direction reads is its *upwind pattern*,
//! which faces of each cell particles enter through (`Ω · n < 0`).  Angles
//! with one pattern share one schedule — on the twisted-structured meshes
//! the paper uses, every angle of an octant does, which is how SNAP and
//! KBA organise the sweep.  [`SweepSchedules::build`] finds the patterns
//! instead of assuming octants: it reduces every angle to its pattern and
//! builds one schedule per distinct one, so a mesh twisted far enough to
//! split an octant gets a schedule for each side of the split.
//!
//! A schedule is Kahn's algorithm over its pattern's dependency graph.
//! Every inflow face whose neighbour is a cell of the same domain is one
//! edge, from that (upwind) neighbour to the cell; boundary faces bring
//! boundary data, and faces whose neighbour another rank owns bring the
//! previous iteration's halo under the block-Jacobi global schedule
//! (§III-A.1), so neither is an edge.  Cells with no edge into them form
//! bucket 0; solving a cell decrements the dependency counter of each
//! downwind neighbour, and a neighbour whose counter reaches zero joins the
//! next bucket.  The paper's first UnSNAP version assumes the graph is
//! acyclic (true for the twisted-structured meshes it uses); we keep the
//! same assumption but *detect* cycles and report them as an error instead
//! of hanging.

use unsnap_mesh::{NeighborRef, UnstructuredMesh, NUM_FACES};

use crate::upwind::{dot, face_outward_normal};

/// `|Ω · n|` at or below which a direction is tangential to a face, so the
/// face is not an inflow face.  The UnSNAP quadrature never produces
/// direction cosines smaller than ~1e-2, so this only matters for
/// axis-aligned synthetic directions in tests.
const TANGENT_TOLERANCE: f64 = 1e-12;

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

/// The wavefront sweep schedule of one upwind pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSchedule {
    /// Buckets of mutually independent cells, in sweep order.
    pub buckets: Vec<Vec<usize>>,
    /// tlevel of every scheduled cell (`usize::MAX` for cells outside the
    /// owned mask).
    pub tlevel: Vec<usize>,
    /// The pattern: the inflow faces of every cell, one bit per face index
    /// (no bit for a cell outside the owned mask), kept so the assembly
    /// kernel does not need to re-classify faces; read through
    /// [`SweepSchedule::inflow_faces`].
    inflow_mask: Vec<u8>,
}

impl SweepSchedule {
    /// Build the schedule of one direction for the whole mesh.
    pub fn build(mesh: &UnstructuredMesh, omega: [f64; 3]) -> Result<Self, ScheduleError> {
        let owned = vec![true; mesh.num_cells()];
        let mut one = SweepSchedules::build(mesh, [omega], &owned)?;
        Ok(one.distinct.swap_remove(0))
    }

    /// Kahn's algorithm over the dependency graph of the upwind pattern
    /// `inflow_mask`, restricted to the `owned` cells.
    fn from_pattern(
        mesh: &UnstructuredMesh,
        inflow_mask: Vec<u8>,
        owned: &[bool],
    ) -> Result<Self, ScheduleError> {
        let n = mesh.num_cells();
        let mut remaining = vec![0usize; n];
        let mut downwind = vec![Vec::new(); n];
        for cell in 0..n {
            for face in faces_of(inflow_mask[cell]) {
                if let NeighborRef::Interior { cell: upwind, .. } = mesh.neighbor(cell, face) {
                    if owned[upwind] {
                        remaining[cell] += 1;
                        downwind[upwind].push(cell);
                    }
                }
            }
        }

        let mut tlevel = vec![usize::MAX; n];
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        let mut scheduled = 0usize;
        // Bucket 0: owned cells with no unsatisfied local dependency.
        let mut current: Vec<usize> = (0..n).filter(|&c| owned[c] && remaining[c] == 0).collect();
        while !current.is_empty() {
            let level = buckets.len();
            let mut next = Vec::new();
            for &cell in &current {
                tlevel[cell] = level;
                scheduled += 1;
                for &down in &downwind[cell] {
                    remaining[down] -= 1;
                    if remaining[down] == 0 {
                        next.push(down);
                    }
                }
            }
            buckets.push(current);
            current = next;
        }

        if scheduled != owned.iter().filter(|&&o| o).count() {
            let unscheduled = (0..n)
                .filter(|&c| owned[c] && tlevel[c] == usize::MAX)
                .collect();
            return Err(ScheduleError::CyclicDependency { unscheduled });
        }
        Ok(Self {
            buckets,
            tlevel,
            inflow_mask,
        })
    }

    /// The inflow faces of `cell`, in ascending face order (empty for a
    /// cell outside the owned mask).
    pub fn inflow_faces(&self, cell: usize) -> impl Iterator<Item = usize> {
        faces_of(self.inflow_mask[cell])
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
}

/// The faces whose bits `mask` sets, in ascending order.
fn faces_of(mask: u8) -> impl Iterator<Item = usize> {
    (0..NUM_FACES).filter(move |&face| mask & (1 << face) != 0)
}

/// The schedules of a set of angles over the cells one domain owns: one
/// [`SweepSchedule`] per distinct upwind pattern, and the pattern of every
/// angle.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSchedules {
    /// One schedule per pattern, in the order of the first angle of each.
    distinct: Vec<SweepSchedule>,
    /// Index into `distinct` of every angle's schedule.
    of_angle: Vec<usize>,
}

impl SweepSchedules {
    /// The schedules of the directions `omegas`, angle after angle, masked
    /// to the cells for which `owned[cell]` is `true` (a mask owning every
    /// cell gives whole-mesh schedules).  Each owned cell's face normals
    /// are computed once, each angle is reduced to its pattern, and only a
    /// pattern not met before is sorted into buckets.
    pub fn build(
        mesh: &UnstructuredMesh,
        omegas: impl IntoIterator<Item = [f64; 3]>,
        owned: &[bool],
    ) -> Result<Self, ScheduleError> {
        assert_eq!(
            owned.len(),
            mesh.num_cells(),
            "ownership mask length mismatch"
        );
        let normals: Vec<Option<[[f64; 3]; NUM_FACES]>> = (0..mesh.num_cells())
            .map(|cell| {
                owned[cell]
                    .then(|| std::array::from_fn(|face| face_outward_normal(mesh, cell, face)))
            })
            .collect();
        let mut distinct: Vec<SweepSchedule> = Vec::new();
        let mut of_angle = Vec::new();
        let mut pattern = Vec::with_capacity(mesh.num_cells());
        for omega in omegas {
            pattern.clear();
            pattern.extend(normals.iter().map(|cell| {
                let faces = cell.iter().flatten().enumerate();
                faces.fold(0u8, |mask, (face, &normal)| {
                    if dot(normal, omega) < -TANGENT_TOLERANCE {
                        mask | 1 << face
                    } else {
                        mask
                    }
                })
            }));
            let index = match distinct.iter().position(|s| s.inflow_mask == pattern) {
                Some(index) => index,
                None => {
                    distinct.push(SweepSchedule::from_pattern(mesh, pattern.clone(), owned)?);
                    distinct.len() - 1
                }
            };
            of_angle.push(index);
        }
        Ok(Self { distinct, of_angle })
    }

    /// The schedule of `angle`.
    pub fn schedule(&self, angle: usize) -> &SweepSchedule {
        &self.distinct[self.of_angle[angle]]
    }

    /// The distinct schedules, one per upwind pattern.
    pub fn distinct(&self) -> &[SweepSchedule] {
        &self.distinct
    }

    /// Number of angles scheduled.
    pub fn num_angles(&self) -> usize {
        self.of_angle.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_mesh::StructuredGrid;

    fn mesh(n: usize) -> UnstructuredMesh {
        UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.001)
    }

    fn x_half(m: &UnstructuredMesh, upper: bool) -> Vec<bool> {
        let grid = *m.origin_grid();
        (0..m.num_cells())
            .map(|id| (grid.cell_ijk(id).0 >= grid.nx / 2) == upper)
            .collect()
    }

    /// The inflow faces of `cell` for `omega`, classified from
    /// [`face_outward_normal`] directly.
    fn oracle_inflow(m: &UnstructuredMesh, cell: usize, omega: [f64; 3]) -> Vec<usize> {
        (0..NUM_FACES)
            .filter(|&face| dot(face_outward_normal(m, cell, face), omega) < -TANGENT_TOLERANCE)
            .collect()
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
    fn every_octant_is_a_topological_order_of_its_inflow_faces() {
        let m = mesh(4);
        for sx in [-1.0, 1.0] {
            for sy in [-1.0, 1.0] {
                for sz in [-1.0, 1.0] {
                    let omega = [0.48 * sx, 0.62 * sy, 0.62 * sz];
                    let s = SweepSchedule::build(&m, omega).unwrap();
                    assert_eq!(s.num_cells_scheduled(), m.num_cells());
                    for cell in 0..m.num_cells() {
                        for face in oracle_inflow(&m, cell, omega) {
                            if let NeighborRef::Interior { cell: up, .. } = m.neighbor(cell, face) {
                                assert!(s.tlevel[up] < s.tlevel[cell], "{omega:?}: {up} → {cell}");
                            }
                        }
                    }
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
    fn the_first_bucket_is_the_cells_with_no_interior_inflow_face() {
        let m = mesh(4);
        let omega = [0.5, 0.55, 0.67];
        let s = SweepSchedule::build(&m, omega).unwrap();
        let seeds: Vec<usize> = (0..m.num_cells())
            .filter(|&cell| {
                oracle_inflow(&m, cell, omega)
                    .into_iter()
                    .all(|face| matches!(m.neighbor(cell, face), NeighborRef::Boundary { .. }))
            })
            .collect();
        // (+,+,+): only the corner cell at the origin.
        assert_eq!(seeds, vec![0]);
        assert_eq!(s.buckets[0], seeds);
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
        let owned = x_half(&m, true);
        let omega = [0.6, 0.6, 0.53];
        let masked = SweepSchedules::build(&m, [omega], &owned).unwrap();
        let s = masked.schedule(0);
        assert_eq!(s.num_cells_scheduled(), 32);
        for &cell in s.buckets.iter().flatten() {
            assert!(owned[cell]);
        }
        // The masked sweep has fewer (or equal) wavefronts than the full one.
        let full = SweepSchedule::build(&m, omega).unwrap();
        assert!(s.num_buckets() <= full.num_buckets());
    }

    #[test]
    fn inflow_faces_are_the_oracles_in_ascending_order() {
        let m = mesh(4);
        let owned = x_half(&m, false);
        let omega = [0.6, -0.6, 0.53];
        let masked = SweepSchedules::build(&m, [omega], &owned).unwrap();
        let s = masked.schedule(0);
        for cell in 0..m.num_cells() {
            let faces: Vec<usize> = s.inflow_faces(cell).collect();
            if owned[cell] {
                assert_eq!(faces, oracle_inflow(&m, cell, omega), "cell {cell}");
                assert_eq!(faces.len(), 3);
            } else {
                assert!(faces.is_empty());
            }
        }
    }

    #[test]
    fn inflow_faces_follow_the_direction_signs() {
        let m = UnstructuredMesh::from_structured(&StructuredGrid::cube(2, 1.0), 0.0);
        let faces = |omega| -> Vec<usize> {
            let s = SweepSchedule::build(&m, omega).unwrap();
            s.inflow_faces(0).collect()
        };
        assert_eq!(faces([0.7, 0.5, 0.5]), [0, 2, 4]);
        assert_eq!(faces([-0.7, -0.5, -0.5]), [1, 3, 5]);
        // A direction exactly in the y–z plane is tangential to the x
        // faces: they are neither side's inflow.
        assert_eq!(faces([0.0, 0.6, 0.8]), [2, 4]);
        assert_eq!(faces([0.0, -0.6, 0.8]), [3, 4]);
    }

    #[test]
    fn masked_subdomains_start_immediately() {
        // Block Jacobi: every subdomain can begin work at once — each has a
        // non-empty first bucket regardless of the sweep direction.
        let m = mesh(4);
        for upper in [false, true] {
            let owned = x_half(&m, upper);
            let s = SweepSchedules::build(&m, [[0.9, 0.3, 0.4]], &owned).unwrap();
            assert!(!s.schedule(0).buckets[0].is_empty());
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
    fn the_angles_of_an_octant_share_one_schedule() {
        let m = mesh(4);
        let omegas = [
            [0.5, 0.6, 0.62],
            [-0.5, 0.6, 0.62],
            [0.3, 0.2, 0.93],
            [-0.2, 0.7, 0.68],
        ];
        let s = SweepSchedules::build(&m, omegas, &vec![true; m.num_cells()]).unwrap();
        assert_eq!(s.num_angles(), 4);
        assert_eq!(s.distinct().len(), 2);
        for (angle, omega) in omegas.into_iter().enumerate() {
            assert_eq!(*s.schedule(angle), SweepSchedule::build(&m, omega).unwrap());
        }
        assert!(std::ptr::eq(s.schedule(0), s.schedule(2)));
        assert!(std::ptr::eq(s.schedule(1), s.schedule(3)));
    }

    #[test]
    fn a_mesh_twisted_far_enough_splits_an_octant() {
        // A 0.3 rad twist turns the x faces of the upper layers far out of
        // the y-z plane, towards +y: a (+,-,+) direction nearly along -y
        // enters the cells of those layers through their x+ faces, while a
        // diagonal one of the same octant still leaves through them.
        let m = UnstructuredMesh::from_structured(&StructuredGrid::cube(4, 1.0), 0.3);
        let omegas = [[0.05, -0.9, 0.43], [0.6, -0.6, 0.53]];
        let s = SweepSchedules::build(&m, omegas, &vec![true; m.num_cells()]).unwrap();
        assert_eq!(s.distinct().len(), 2);
        for (angle, omega) in omegas.into_iter().enumerate() {
            assert_eq!(*s.schedule(angle), SweepSchedule::build(&m, omega).unwrap());
        }
        // The untwisted mesh gives the two one pattern.
        let flat = UnstructuredMesh::from_structured(&StructuredGrid::cube(4, 1.0), 0.0);
        let one = SweepSchedules::build(&flat, omegas, &vec![true; flat.num_cells()]).unwrap();
        assert_eq!(one.distinct().len(), 1);
    }

    #[test]
    fn error_display() {
        let e = ScheduleError::CyclicDependency {
            unscheduled: vec![1, 2, 3],
        };
        assert!(e.to_string().contains("3 cells"));
    }
}
