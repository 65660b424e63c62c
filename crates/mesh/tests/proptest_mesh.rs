//! Property-based tests of the mesh substrate.

use proptest::prelude::*;

use unsnap_mesh::{Decomposition2D, MeshTwist, StructuredGrid, UnstructuredMesh};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn connectivity_is_always_symmetric(
        nx in 1usize..6,
        ny in 1usize..6,
        nz in 1usize..6,
        twist in 0.0f64..0.01,
    ) {
        let grid = StructuredGrid::new(nx, ny, nz, 1.0, 2.0, 1.5);
        let mesh = UnstructuredMesh::from_structured(&grid, twist);
        prop_assert_eq!(mesh.num_cells(), nx * ny * nz);
        prop_assert_eq!(mesh.validate_connectivity(), 0);
        let stats = mesh.connectivity_stats();
        // Boundary faces of a box mesh: 2(nx·ny + ny·nz + nx·nz).
        prop_assert_eq!(stats.boundary_faces, 2 * (nx * ny + ny * nz + nx * nz));
        prop_assert_eq!(stats.total_faces, 6 * nx * ny * nz);
    }

    #[test]
    fn twist_preserves_heights_and_radii(
        z in 0.0f64..1.0,
        x in 0.0f64..1.0,
        y in 0.0f64..1.0,
        angle in 0.0f64..0.5,
    ) {
        let t = MeshTwist::about_domain(angle, 1.0, 1.0, 1.0);
        let v = [x, y, z];
        let out = t.apply(v);
        prop_assert_eq!(out[2], z);
        let r_in = ((x - 0.5).powi(2) + (y - 0.5).powi(2)).sqrt();
        let r_out = ((out[0] - 0.5).powi(2) + (out[1] - 0.5).powi(2)).sqrt();
        prop_assert!((r_in - r_out).abs() < 1e-12);
    }

    #[test]
    fn renumbering_preserves_structure(
        n in 2usize..5,
        seed in 0u64..1000,
    ) {
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(n, 1.0), 0.001);
        // Deterministic pseudo-random permutation from the seed.
        let count = mesh.num_cells();
        let mut perm: Vec<usize> = (0..count).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..count).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let renumbered = mesh.renumber(&perm);
        prop_assert_eq!(renumbered.num_cells(), count);
        prop_assert_eq!(renumbered.validate_connectivity(), 0);
        prop_assert_eq!(
            renumbered.connectivity_stats(),
            mesh.connectivity_stats()
        );
        // Geometry follows the permutation.
        for (new_id, &old_id) in perm.iter().enumerate() {
            prop_assert_eq!(renumbered.cell_corners(new_id), mesh.cell_corners(old_id));
        }
    }

    #[test]
    fn decomposition_balances_cells(
        nx in 2usize..8,
        ny in 2usize..8,
        nz in 1usize..4,
        px in 1usize..4,
        py in 1usize..4,
    ) {
        prop_assume!(px <= nx && py <= ny);
        let mesh = UnstructuredMesh::from_structured(
            &StructuredGrid::new(nx, ny, nz, 1.0, 1.0, 1.0),
            0.0,
        );
        let subdomains = Decomposition2D::new(px, py).try_decompose(&mesh).unwrap();
        let total: usize = subdomains.iter().map(|s| s.num_cells()).sum();
        prop_assert_eq!(total, mesh.num_cells());
        // Balance: the largest and smallest rank differ by at most one
        // slab in each direction.
        let max = subdomains.iter().map(|s| s.num_cells()).max().unwrap();
        let min = subdomains.iter().map(|s| s.num_cells()).min().unwrap();
        let max_imbalance = ((nx / px + 1) * (ny / py + 1) - (nx / px) * (ny / py)) * nz;
        prop_assert!(max - min <= max_imbalance);
        // Local/global maps are mutually inverse.
        for sd in &subdomains {
            for (local, &global) in sd.global_cells.iter().enumerate() {
                prop_assert_eq!(sd.local_of(global), Some(local));
                prop_assert_eq!(sd.global_of(local), global);
            }
        }
    }
}
