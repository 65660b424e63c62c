//! Workspace-wide property-based tests.
//!
//! These exercise cross-crate invariants with randomised inputs:
//!
//! * sweep schedules are valid topological orders of the dependency graph
//!   of their direction, classified face by face from the outward normals,
//!   for arbitrary directions, mesh shapes and twists;
//! * the KBA decomposition partitions any mesh completely and disjointly
//!   with symmetric halo faces;
//! * flux-storage layouts are bijective index maps and agree across
//!   orderings;
//! * the DG kernel reproduces constant solutions for random cross
//!   sections, directions and (twisted) cell geometries.

use proptest::prelude::*;

use unsnap::prelude::*;
use unsnap_core::kernel::{assemble, KernelScratch, UpwindFace, UpwindSource};
use unsnap_fem::face::FACES;
use unsnap_mesh::{NeighborRef, NUM_FACES};
use unsnap_sweep::face_outward_normal;

/// Strategy: a unit direction with no vanishing component.
fn direction() -> impl Strategy<Value = [f64; 3]> {
    (
        prop_oneof![-1.0f64..-0.05, 0.05f64..1.0],
        prop_oneof![-1.0f64..-0.05, 0.05f64..1.0],
        prop_oneof![-1.0f64..-0.05, 0.05f64..1.0],
    )
        .prop_map(|(x, y, z)| {
            let n = (x * x + y * y + z * z).sqrt();
            [x / n, y / n, z / n]
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn schedules_are_topological_orders(
        omega in direction(),
        nx in 1usize..5,
        ny in 1usize..5,
        nz in 1usize..5,
        twist in 0.0f64..0.002,
    ) {
        let mesh = UnstructuredMesh::from_structured(
            &StructuredGrid::new(nx, ny, nz, 1.0, 1.0, 1.0),
            twist,
        );
        let schedule = SweepSchedule::build(&mesh, omega).unwrap();
        prop_assert_eq!(schedule.num_cells_scheduled(), mesh.num_cells());
        let mut seen = vec![0usize; mesh.num_cells()];
        for &cell in schedule.buckets.iter().flatten() {
            seen[cell] += 1;
        }
        prop_assert!(seen.iter().all(|&s| s == 1), "a cell scheduled twice or never");
        // No cell is scheduled before an upwind neighbour: one whose shared
        // face the cell is entered through, by the sign of Ω·n.
        for cell in 0..mesh.num_cells() {
            for face in 0..NUM_FACES {
                let n = face_outward_normal(&mesh, cell, face);
                let inflow = n[0] * omega[0] + n[1] * omega[1] + n[2] * omega[2] < -1e-12;
                if let (true, NeighborRef::Interior { cell: up, .. }) =
                    (inflow, mesh.neighbor(cell, face))
                {
                    prop_assert!(schedule.tlevel[up] < schedule.tlevel[cell]);
                }
            }
        }
        // Wavefront count is bounded by the longest possible chain.
        prop_assert!(schedule.num_buckets() <= nx + ny + nz - 2 || mesh.num_cells() == 1);
    }

    #[test]
    fn decomposition_partitions_any_mesh(
        nx in 2usize..7,
        ny in 2usize..7,
        nz in 1usize..4,
        px in 1usize..3,
        py in 1usize..3,
    ) {
        prop_assume!(px <= nx && py <= ny);
        let mesh = UnstructuredMesh::from_structured(
            &StructuredGrid::new(nx, ny, nz, 1.0, 1.0, 1.0),
            0.001,
        );
        let subdomains = Decomposition2D::new(px, py).try_decompose(&mesh).unwrap();
        let mut owner = vec![None; mesh.num_cells()];
        for sd in &subdomains {
            for &cell in &sd.global_cells {
                prop_assert!(owner[cell].is_none(), "cell owned twice");
                owner[cell] = Some(sd.rank);
            }
        }
        prop_assert!(owner.iter().all(|o| o.is_some()));
        // Halo symmetry: every halo face has a mirror on the other rank.
        for sd in &subdomains {
            for h in &sd.halo_faces {
                let other = &subdomains[h.neighbor_rank];
                let mirrored = other.halo_faces.iter().any(|g| {
                    g.global_cell == h.neighbor_global_cell
                        && g.neighbor_global_cell == h.global_cell
                });
                prop_assert!(mirrored);
            }
        }
    }

    #[test]
    fn flux_layouts_are_bijective_and_consistent(
        nodes in 1usize..28,
        elements in 1usize..20,
        groups in 1usize..10,
        angles in 1usize..6,
    ) {
        for order in [LoopOrder::ElementThenGroup, LoopOrder::GroupThenElement] {
            let layout = FluxLayout::angular(nodes, elements, groups, angles, order);
            prop_assert_eq!(layout.len(), nodes * elements * groups * angles);
            // Spot-check bijectivity on the extremes.
            let first = layout.index(0, 0, 0, 0);
            let last = layout.index(
                nodes - 1,
                elements - 1,
                groups - 1,
                angles - 1,
            );
            prop_assert_eq!(first, 0);
            prop_assert_eq!(last, layout.len() - 1);
            // Strides are consistent with the definition.
            prop_assert_eq!(
                layout.index(0, 0, 0, 0) + layout.element_stride(),
                layout.index(0, 1.min(elements - 1), 0, 0).max(layout.element_stride())
            );
        }
    }

    #[test]
    fn kernel_reproduces_constant_solutions(
        omega in direction(),
        sigma_t in 0.5f64..5.0,
        value in 0.1f64..10.0,
        twist in 0.0f64..0.3,
    ) {
        let element = ReferenceElement::new(1);
        // A twisted unit cell.
        let mut hex = HexVertices::unit_cube();
        let (s, c) = twist.sin_cos();
        for corner in hex.corners.iter_mut().skip(4) {
            let x = corner[0] - 0.5;
            let y = corner[1] - 0.5;
            corner[0] = 0.5 + c * x - s * y;
            corner[1] = 0.5 + s * x + c * y;
        }
        let ints = ElementIntegrals::compute(&element, &hex);
        let n = ints.nodes_per_element();
        let source = vec![sigma_t * value; n];
        let upwind: Vec<UpwindFace<'_>> = FACES
            .iter()
            .filter(|f| ints.face(**f).direction_dot_normal(omega) < 0.0)
            .map(|f| UpwindFace {
                face: f.index(),
                source: UpwindSource::Boundary(value),
            })
            .collect();
        let mut scratch = KernelScratch::new(n);
        let solver = SolverKind::GaussianElimination.build();
        assemble(&ints, omega, sigma_t, &source, &upwind, &mut scratch);
        solver
            .solve_in_place(&mut scratch.matrix, &mut scratch.rhs)
            .expect("local DG system should be non-singular");
        for &psi in &scratch.rhs {
            prop_assert!((psi - value).abs() < 1e-8 * value.max(1.0));
        }
    }

    #[test]
    fn quadrature_weights_always_normalised(n in 1usize..40) {
        let q = AngularQuadrature::product(n);
        prop_assert!((q.directions().iter().map(|d| d.weight).sum::<f64>() - 1.0).abs() < 1e-12);
        prop_assert_eq!(q.num_angles(), 8 * n);
    }
}

/// A random paper preset.
fn preset(index: usize, order: usize) -> Problem {
    match index {
        0 => Problem::tiny(),
        1 => Problem::quickstart(),
        2 => Problem::figure3_full(),
        3 => Problem::figure3_scaled(),
        4 => Problem::figure4_full(),
        5 => Problem::figure4_scaled(),
        6 => Problem::table2_full(order, SolverKind::Mkl),
        _ => Problem::table2_scaled(order, SolverKind::GaussianElimination),
    }
}

/// The field `Problem::validate` blames, if it rejects the problem.
fn rejected_field(problem: &Problem) -> Option<&'static str> {
    problem.validate().err().and_then(|e| e.invalid_field())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_rejects_empty_mesh_axes(index in 0usize..8, axis in 0usize..3) {
        let mut problem = preset(index, 1);
        let expected = match axis {
            0 => {
                problem.nx = 0;
                "nx"
            }
            1 => {
                problem.ny = 0;
                "ny"
            }
            _ => {
                problem.nz = 0;
                "nz"
            }
        };
        prop_assert_eq!(rejected_field(&problem), Some(expected));
    }

    #[test]
    fn builder_rejects_nonpositive_extents(extent in -8.0f64..0.0, axis in 0usize..3) {
        let mut problem = Problem::tiny();
        let expected = match axis {
            0 => {
                problem.lx = extent;
                "lx"
            }
            1 => {
                problem.ly = extent;
                "ly"
            }
            _ => {
                problem.lz = extent;
                "lz"
            }
        };
        prop_assert_eq!(rejected_field(&problem), Some(expected));
        // The boundary itself (a zero extent) is rejected too.
        let flat = Problem { lx: 0.0, ..Problem::tiny() };
        prop_assert_eq!(rejected_field(&flat), Some("lx"));
    }

    #[test]
    fn builder_rejects_zero_discretisation_knobs(index in 0usize..8, knob in 0usize..5) {
        let mut problem = preset(index, 2);
        let expected = match knob {
            0 => { problem.element_order = 0; "element_order" }
            1 => { problem.angles_per_octant = 0; "angles_per_octant" }
            2 => { problem.num_groups = 0; "num_groups" }
            3 => { problem.inner_iterations = 0; "inner_iterations" }
            _ => { problem.outer_iterations = 0; "outer_iterations" }
        };
        prop_assert_eq!(rejected_field(&problem), Some(expected));
    }

    #[test]
    fn builder_rejects_out_of_range_scattering_ratio(
        c in prop_oneof![-4.0f64..0.0, 1.0001f64..5.0],
    ) {
        let problem = Problem::tiny().with_scattering_ratio(c);
        prop_assert_eq!(rejected_field(&problem), Some("scattering_ratio"));
        // The open lower boundary: exactly zero scattering is rejected.
        let problem = Problem::tiny().with_scattering_ratio(0.0);
        prop_assert_eq!(rejected_field(&problem), Some("scattering_ratio"));
    }

    #[test]
    fn builder_accepts_in_range_scattering_ratio(c in 0.0001f64..1.0) {
        let problem = Problem::tiny().with_scattering_ratio(c);
        prop_assert_eq!(rejected_field(&problem), None);
        prop_assert_eq!(problem.scattering_ratio, Some(c));
    }

    #[test]
    fn builder_rejects_out_of_range_upscatter(
        u in prop_oneof![-4.0f64..0.0, 1.0001f64..5.0],
    ) {
        // Both boundaries are open: u = 0 is "just omit it", u = 1
        // would zero the within-group diagonal entirely.
        for bad in [u, 0.0, 1.0] {
            let problem = Problem::tiny()
                .with_scattering_ratio(0.9)
                .with_upscatter_ratio(bad);
            prop_assert_eq!(rejected_field(&problem), Some("upscatter_ratio"));
        }
    }

    #[test]
    fn builder_accepts_in_range_upscatter_and_round_trips(
        c in 0.1f64..1.0,
        u in 0.001f64..0.999,
    ) {
        // Upscatter without a scattering ratio to split is dangling.
        let dangling = Problem::tiny().with_upscatter_ratio(u);
        prop_assert_eq!(rejected_field(&dangling), Some("upscatter_ratio"));

        let problem = Problem::tiny()
            .with_scattering_ratio(c)
            .with_upscatter_ratio(u);
        prop_assert_eq!(rejected_field(&problem), None);
        prop_assert_eq!(problem.upscatter_ratio, Some(u));
        // Problem → wire → Problem is the identity.
        let json = unsnap_core::wire::problem_to_json(&problem);
        prop_assert_eq!(unsnap_core::wire::problem_from_json_str(&json).unwrap(), problem);
    }

    #[test]
    fn upscatter_matrix_preserves_the_ratio_and_couples_every_group(
        groups in 2usize..7,
        c in 0.1f64..1.0,
        u in 0.001f64..0.999,
    ) {
        let xs = CrossSections::with_upscatter(groups, 1, c, u);
        for g in 0..groups {
            // Row sum is exactly the prescribed scattering ratio.
            prop_assert!((xs.scattering_ratio(0, g) - c).abs() < 1e-12);
            // Every group couples to every other group — including
            // genuinely *up* in energy (g_to < g_from) — so no group
            // ordering makes the matrix triangular.
            for gt in 0..groups {
                if gt != g {
                    prop_assert!(xs.scatter(0, g, gt) > 0.0, "{g}->{gt} vanished");
                }
            }
        }
    }

    #[test]
    fn builder_rejects_negative_twist(twist in -2.0f64..-1e-9) {
        let problem = Problem { twist, ..Problem::tiny() };
        prop_assert_eq!(rejected_field(&problem), Some("twist"));
    }

    #[test]
    fn builder_rejects_bad_tolerance(tolerance in -10.0f64..-1e-12) {
        let problem = Problem { convergence_tolerance: tolerance, ..Problem::tiny() };
        prop_assert_eq!(rejected_field(&problem), Some("convergence_tolerance"));
    }

    #[test]
    fn builder_rejects_zero_threads(index in 0usize..8) {
        let problem = preset(index, 3).with_threads(0);
        prop_assert_eq!(rejected_field(&problem), Some("num_threads"));
    }

    #[test]
    fn angle_threading_accepts_any_width_and_keeps_the_bits(
        angles in 1usize..4,
        extra in 1usize..12,
    ) {
        // More threads than angles per octant — or than angles at all —
        // is a valid request for the default scheme, and solves to the
        // bits of one thread.
        let flux_at = |threads| {
            let problem = Problem::tiny()
                .with_mesh(2)
                .with_phase_space(angles, 1)
                .with_scheme(ConcurrencyScheme::best())
                .with_threads(threads);
            let mut solver = TransportSolver::new(&problem).unwrap();
            solver.run().unwrap();
            solver.scalar_flux().as_slice().to_vec()
        };
        prop_assert_eq!(flux_at(1), flux_at(angles + extra));
    }

    #[test]
    fn random_valid_builders_produce_consistent_problems(
        n in 1usize..5,
        order in 1usize..4,
        angles in 1usize..4,
        groups in 1usize..4,
        inners in 1usize..6,
        outers in 1usize..3,
    ) {
        let problem = Problem {
            inner_iterations: inners,
            outer_iterations: outers,
            ..Problem::tiny()
        }
        .with_mesh(n)
        .with_order(order)
        .with_phase_space(angles, groups);
        prop_assert_eq!(rejected_field(&problem), None);
        prop_assert_eq!(problem.num_cells(), n * n * n);
        prop_assert_eq!(problem.nodes_per_element(), (order + 1).pow(3));
        prop_assert_eq!(problem.num_angles(), 8 * angles);
        prop_assert_eq!(
            problem.angular_flux_unknowns(),
            (order + 1).pow(3) * n * n * n * groups * 8 * angles
        );
    }
}

/// Outer convergence with genuine upscatter.  With a deliberately small
/// inner budget the pointwise convergence check spans outer boundaries,
/// so the converged flag reflects the *whole* iteration.  Pure
/// within-group scattering contracts at `c` per sweep regardless of the
/// outer structure; upscatter splits the same row sum across groups, and
/// the cross-group part is only refreshed once per outer (Jacobi over
/// groups), so the upscatter run needs more outer iterations to meet the
/// same tolerance — and must still get there within the budget.
#[test]
fn upscatter_couples_groups_and_the_outer_iteration_still_converges() {
    let base = Problem {
        inner_iterations: 8,
        outer_iterations: 60,
        convergence_tolerance: 1e-6,
        ..Problem::tiny()
    }
    .with_phase_space(2, 3)
    .with_scattering_ratio(0.8);
    let upscatter = base.clone().with_upscatter_ratio(0.3);

    let baseline = TransportSolver::new(&base).unwrap().run().unwrap();
    let coupled = TransportSolver::new(&upscatter).unwrap().run().unwrap();

    assert!(baseline.converged, "within-group-only run must converge");
    assert!(
        coupled.converged,
        "upscatter run must converge within budget"
    );
    assert!(
        coupled.outer_iterations > baseline.outer_iterations,
        "upscatter must slow the outer iteration: {} vs {} outers",
        coupled.outer_iterations,
        baseline.outer_iterations
    );
    assert!(coupled.scalar_flux_total > 0.0);
    // Same scattering-matrix row sums, different coupling: with vacuum
    // boundaries the per-group leakage differs, so the answers differ.
    let rel =
        (coupled.scalar_flux_total - baseline.scalar_flux_total).abs() / baseline.scalar_flux_total;
    assert!(rel > 1e-8, "upscatter changed nothing (rel = {rel:e})");
}
