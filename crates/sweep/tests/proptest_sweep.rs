//! Property-based tests of the sweep scheduler, against an oracle that
//! classifies every face with [`face_outward_normal`] directly.

use proptest::prelude::*;

use unsnap_mesh::{NeighborRef, StructuredGrid, UnstructuredMesh, NUM_FACES};
use unsnap_sweep::{face_outward_normal, SweepSchedule, SweepSchedules};

fn direction() -> impl Strategy<Value = [f64; 3]> {
    (
        prop_oneof![-1.0f64..-0.02, 0.02f64..1.0],
        prop_oneof![-1.0f64..-0.02, 0.02f64..1.0],
        prop_oneof![-1.0f64..-0.02, 0.02f64..1.0],
    )
        .prop_map(|(x, y, z)| {
            let n = (x * x + y * y + z * z).sqrt();
            [x / n, y / n, z / n]
        })
}

/// The oracle: whether particles moving along `omega` enter `cell`
/// through `face` (`Ω · n < 0` beyond the tangent tolerance).
fn is_inflow(mesh: &UnstructuredMesh, cell: usize, face: usize, omega: [f64; 3]) -> bool {
    let n = face_outward_normal(mesh, cell, face);
    n[0] * omega[0] + n[1] * omega[1] + n[2] * omega[2] < -1e-12
}

/// Every local dependency of `omega` over the `owned` cells, by the
/// oracle: (upwind cell, downwind cell, the downwind cell's inflow face).
fn oracle_edges(
    mesh: &UnstructuredMesh,
    omega: [f64; 3],
    owned: &[bool],
) -> Vec<(usize, usize, usize)> {
    let mut edges = Vec::new();
    for cell in (0..mesh.num_cells()).filter(|&c| owned[c]) {
        for face in (0..NUM_FACES).filter(|&f| is_inflow(mesh, cell, f, omega)) {
            if let NeighborRef::Interior { cell: up, .. } = mesh.neighbor(cell, face) {
                if owned[up] {
                    edges.push((up, cell, face));
                }
            }
        }
    }
    edges
}

/// The `part`-th of `parts` x slabs of `mesh`.
fn x_slab(mesh: &UnstructuredMesh, part: usize, parts: usize) -> Vec<bool> {
    let grid = *mesh.origin_grid();
    let (lo, hi) = (part * grid.nx / parts, (part + 1) * grid.nx / parts);
    (0..mesh.num_cells())
        .map(|id| (lo..hi).contains(&grid.cell_ijk(id).0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedule_is_a_complete_topological_order(
        omega in direction(),
        nx in 1usize..6,
        ny in 1usize..6,
        nz in 1usize..6,
        twist in 0.0f64..0.005,
    ) {
        let mesh = UnstructuredMesh::from_structured(
            &StructuredGrid::new(nx, ny, nz, 1.0, 1.0, 1.0),
            twist,
        );
        let schedule = SweepSchedule::build(&mesh, omega).unwrap();
        prop_assert_eq!(schedule.num_cells_scheduled(), mesh.num_cells());
        // Every cell exactly once.
        let mut seen = vec![0usize; mesh.num_cells()];
        for &cell in schedule.buckets.iter().flatten() {
            seen[cell] += 1;
        }
        prop_assert!(seen.iter().all(|&s| s == 1));
        // The tlevel strictly increases along every edge, and the schedule
        // enters each cell through exactly the oracle's faces.
        let all = vec![true; mesh.num_cells()];
        for (up, down, _) in oracle_edges(&mesh, omega, &all) {
            prop_assert!(schedule.tlevel[down] > schedule.tlevel[up]);
        }
        for cell in 0..mesh.num_cells() {
            let expected: Vec<usize> =
                (0..NUM_FACES).filter(|&f| is_inflow(&mesh, cell, f, omega)).collect();
            prop_assert_eq!(schedule.inflow_faces(cell).collect::<Vec<_>>(), expected);
        }
        // Stats consistency.
        let stats = schedule.stats();
        prop_assert_eq!(stats.num_cells, mesh.num_cells());
        prop_assert!(stats.max_bucket >= stats.min_bucket);
        prop_assert!(stats.min_bucket >= 1);
    }

    #[test]
    fn opposite_directions_reverse_the_sweep(
        omega in direction(),
        n in 2usize..5,
    ) {
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.001);
        let forward = SweepSchedule::build(&mesh, omega).unwrap();
        let backward =
            SweepSchedule::build(&mesh, [-omega[0], -omega[1], -omega[2]]).unwrap();
        prop_assert_eq!(forward.num_buckets(), backward.num_buckets());
        // The first bucket of the forward sweep is the last of the backward
        // sweep (as sets).
        let mut first: Vec<usize> = forward.buckets.first().unwrap().clone();
        let mut last: Vec<usize> = backward.buckets.last().unwrap().clone();
        first.sort_unstable();
        last.sort_unstable();
        prop_assert_eq!(first, last);
    }

    #[test]
    fn masked_schedules_partition_the_full_mesh(
        omega in direction(),
        n in 2usize..5,
        split in 1usize..4,
    ) {
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.001);
        let split = split.min(n);
        // Partition by x slab into `split` pieces; the union of the masked
        // schedules covers every cell exactly once.
        let mut covered = vec![0usize; mesh.num_cells()];
        for part in 0..split {
            let owned = x_slab(&mesh, part, split);
            let schedules = SweepSchedules::build(&mesh, [omega], &owned).unwrap();
            let schedule = schedules.schedule(0);
            for &cell in schedule.buckets.iter().flatten() {
                covered[cell] += 1;
                prop_assert!(owned[cell]);
            }
            for (up, down, _) in oracle_edges(&mesh, omega, &owned) {
                prop_assert!(schedule.tlevel[down] > schedule.tlevel[up]);
            }
            // Every non-empty subdomain can start immediately (block
            // Jacobi property).
            if owned.iter().any(|&o| o) {
                prop_assert!(!schedule.buckets.is_empty());
                prop_assert!(!schedule.buckets[0].is_empty());
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn a_shared_schedule_is_the_one_its_direction_builds_alone(
        omegas in collection::vec(direction(), 1..16),
        nx in 1usize..6,
        ny in 1usize..5,
        nz in 1usize..5,
        twist in 0.0f64..0.005,
        split in 1usize..4,
    ) {
        let mesh = UnstructuredMesh::from_structured(
            &StructuredGrid::new(nx, ny, nz, 1.0, 1.0, 1.0),
            twist,
        );
        let split = split.min(nx);
        for part in 0..split {
            let owned = x_slab(&mesh, part, split);
            let shared = SweepSchedules::build(&mesh, omegas.iter().copied(), &owned).unwrap();
            prop_assert_eq!(shared.num_angles(), omegas.len());
            prop_assert!(shared.distinct().len() <= omegas.len().min(8));
            for (angle, &omega) in omegas.iter().enumerate() {
                // Equal buckets, tlevels and inflow faces.
                let alone = if split == 1 {
                    SweepSchedule::build(&mesh, omega).unwrap()
                } else {
                    SweepSchedules::build(&mesh, [omega], &owned).unwrap().distinct()[0].clone()
                };
                prop_assert_eq!(shared.schedule(angle), &alone);
            }
        }
    }
}
