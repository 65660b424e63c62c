//! Workspace-wide integration tests: mesh → schedule → assemble/solve →
//! iterate, across element orders, concurrency schemes, solver back ends
//! and global schedules.

use unsnap::prelude::*;
use unsnap::sweep::SweepSchedules;

/// A small base problem reused across the integration tests.
fn small_problem() -> Problem {
    let mut p = Problem::tiny();
    p.nx = 4;
    p.ny = 4;
    p.nz = 4;
    p.num_groups = 2;
    p.angles_per_octant = 2;
    p.inner_iterations = 3;
    p.outer_iterations = 1;
    p
}

#[test]
fn pipeline_runs_for_every_element_order_up_to_cubic() {
    for order in 1..=3 {
        let mut p = small_problem();
        p.element_order = order;
        // Keep the cubic case small.
        if order == 3 {
            p.nx = 3;
            p.ny = 3;
            p.nz = 3;
        }
        let mut solver = TransportSolver::new(&p).unwrap();
        let outcome = solver.run().unwrap();
        assert!(
            outcome.scalar_flux_total > 0.0,
            "order {order} produced no flux"
        );
        assert_eq!(
            outcome.kernel_invocations,
            (p.num_cells() * p.num_groups * p.num_angles() * p.inner_iterations) as u64
        );
    }
}

#[test]
fn loop_order_and_threading_do_not_change_the_answer() {
    let base = small_problem().with_threads(2);
    let mut totals = Vec::new();
    for scheme in ConcurrencyScheme::figure_schemes() {
        let p = base.clone().with_scheme(scheme);
        let mut solver = TransportSolver::new(&p).unwrap();
        let outcome = solver.run().unwrap();
        totals.push(outcome.scalar_flux_total);
    }
    for pair in totals.windows(2) {
        let rel = (pair[0] - pair[1]).abs() / pair[0];
        assert!(rel < 1e-12, "schemes disagree: {totals:?}");
    }
}

#[test]
fn solver_backends_agree_on_a_multi_group_problem() {
    let mut totals = Vec::new();
    for kind in [
        SolverKind::GaussianElimination,
        SolverKind::ReferenceLu,
        SolverKind::Mkl,
    ] {
        let p = small_problem().with_solver(kind);
        let mut solver = TransportSolver::new(&p).unwrap();
        totals.push(solver.run().unwrap().scalar_flux_total);
    }
    for pair in totals.windows(2) {
        let rel = (pair[0] - pair[1]).abs() / pair[0];
        assert!(rel < 1e-9, "backends disagree: {totals:?}");
    }
}

#[test]
fn twisted_and_untwisted_meshes_give_close_but_not_identical_results() {
    let mut straight = small_problem();
    straight.twist = 0.0;
    let mut twisted = small_problem();
    twisted.twist = 0.001;

    let a = TransportSolver::new(&straight)
        .unwrap()
        .run()
        .unwrap()
        .scalar_flux_total;
    let b = TransportSolver::new(&twisted)
        .unwrap()
        .run()
        .unwrap()
        .scalar_flux_total;
    let rel = (a - b).abs() / a;
    // The 0.001 rad twist perturbs the geometry slightly...
    assert!(rel < 1e-2, "twist changed the answer too much: {rel}");
    // ...but it genuinely changes the mesh, so results differ.
    assert!(rel > 0.0, "twist had no effect at all");
}

#[test]
fn block_jacobi_and_full_sweep_converge_to_the_same_flux() {
    let mut p = small_problem();
    p.num_groups = 1;
    p.inner_iterations = 60;
    p.convergence_tolerance = 1e-9;

    let full = TransportSolver::new(&p)
        .unwrap()
        .run()
        .unwrap()
        .scalar_flux_total;
    let jacobi = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 2))
        .unwrap()
        .run()
        .unwrap()
        .scalar_flux_total;
    let rel = (full - jacobi).abs() / full;
    assert!(rel < 1e-6, "full sweep {full} vs block Jacobi {jacobi}");
}

#[test]
fn schedules_cover_every_cell_for_every_angle_of_the_real_quadrature() {
    let p = small_problem();
    let mesh = p.build_mesh();
    let quadrature = AngularQuadrature::product(p.angles_per_octant);
    for d in quadrature.directions() {
        let schedule = SweepSchedule::build(&mesh, d.omega).unwrap();
        assert_eq!(schedule.num_cells_scheduled(), mesh.num_cells());
        // The bucket count never exceeds the number of cells, and the
        // first bucket is never empty.
        assert!(schedule.num_buckets() <= mesh.num_cells());
        assert!(!schedule.buckets[0].is_empty());
    }
}

#[test]
fn every_preset_shares_one_schedule_per_octant() {
    // The builder compares upwind patterns, never direction signs: on every
    // preset mesh the patterns it finds are the eight octants.
    for name in Problem::registry_names() {
        let p = Problem::from_name(name).unwrap();
        let mesh = p.build_mesh();
        let quadrature = AngularQuadrature::product(p.angles_per_octant);
        let omegas: Vec<[f64; 3]> = quadrature.directions().iter().map(|d| d.omega).collect();
        let all = vec![true; mesh.num_cells()];
        let schedules = SweepSchedules::build(&mesh, omegas.iter().copied(), &all).unwrap();
        assert_eq!(schedules.distinct().len(), 8, "{name}");
        let octant = |angle: usize| omegas[angle].map(|c| c > 0.0);
        for a in 0..omegas.len() {
            for b in 0..omegas.len() {
                let shared = std::ptr::eq(schedules.schedule(a), schedules.schedule(b));
                assert_eq!(shared, octant(a) == octant(b), "{name}: angles {a} and {b}");
            }
        }
    }
    // And a solver's domain holds just those.
    for name in ["tiny", "quickstart", "figure3", "figure4", "dsa-regime"] {
        let solver = TransportSolver::new(&Problem::from_name(name).unwrap()).unwrap();
        assert_eq!(solver.schedules().distinct().len(), 8, "{name}");
    }
}

#[test]
fn mesh_memory_estimates_match_layout_sizes() {
    let p = small_problem();
    let layout = FluxLayout::angular(
        p.nodes_per_element(),
        p.num_cells(),
        p.num_groups,
        p.num_angles(),
        LoopOrder::ElementThenGroup,
    );
    assert_eq!(layout.len(), p.angular_flux_unknowns());
    assert_eq!(layout.footprint_bytes(), p.angular_flux_bytes());
}

#[test]
fn coarse_high_order_solution_agrees_with_refined_linear_solution() {
    // §II-C: for a given accuracy the FEM allows coarser grids.  Check the
    // directly testable form of that claim: the volume-integrated scalar
    // flux of a *coarse cubic* solution agrees with a *refined linear*
    // reference to within a few percent, even though the coarse mesh has
    // 27x fewer cells.
    let mut coarse_cubic = small_problem();
    coarse_cubic.nx = 2;
    coarse_cubic.ny = 2;
    coarse_cubic.nz = 2;
    coarse_cubic.element_order = 3;
    coarse_cubic.num_groups = 1;
    coarse_cubic.inner_iterations = 50;
    coarse_cubic.convergence_tolerance = 1e-9;
    coarse_cubic.twist = 0.0;

    let mut fine_linear = coarse_cubic.clone();
    fine_linear.element_order = 1;
    fine_linear.nx = 6;
    fine_linear.ny = 6;
    fine_linear.nz = 6;

    // Volume-integrated scalar flux: Σ_elements Σ_ij M_ij φ_j.
    let integrated = |p: &Problem| {
        let mut s = TransportSolver::new(p).unwrap();
        s.run().unwrap();
        let mesh = p.build_mesh();
        let element = ReferenceElement::new(p.element_order);
        let mut total = 0.0;
        for cell in 0..mesh.num_cells() {
            let hex = HexVertices {
                corners: *mesh.cell_corners(cell),
            };
            let ints = ElementIntegrals::compute(&element, &hex);
            let phi = s.scalar_flux().nodes(cell, 0, 0);
            let n = ints.nodes_per_element();
            for i in 0..n {
                let row = ints.mass.row(i);
                for (j, &m) in row.iter().enumerate() {
                    total += m * phi[j];
                }
            }
        }
        total
    };

    let reference = integrated(&fine_linear);
    let cubic = integrated(&coarse_cubic);
    let rel = (cubic - reference).abs() / reference;
    assert!(
        rel < 0.05,
        "coarse cubic {cubic} vs refined linear {reference} differ by {rel:.3}"
    );
}
