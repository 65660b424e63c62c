//! Finite-difference (SNAP) versus finite-element (UnSNAP) comparison —
//! the trade-offs of §II-C of the paper.
//!
//! ```text
//! cargo run --release --example fd_vs_fem
//! ```
//!
//! Both discretisations solve the same one-group problem to convergence.
//! The example reports the memory footprint of the angular flux (the FEM
//! stores `(p+1)^3` nodal values per cell where the FD method stores one),
//! the work per cell, and the converged mean scalar flux of both methods
//! (which must agree since they solve the same physics).

use unsnap::prelude::*;

fn main() {
    let problem = Problem {
        inner_iterations: 80,
        convergence_tolerance: 1e-8,
        twist: 0.0,
        ..Problem::tiny()
    }
    .with_mesh(6)
    .with_phase_space(4, 1);

    println!("Finite difference (SNAP) vs finite element (UnSNAP)");
    println!(
        "mesh {}^3, {} angles/octant, 1 group, tolerance {:.0e}",
        problem.nx, problem.angles_per_octant, problem.convergence_tolerance
    );
    println!();

    // Finite difference baseline.
    let mut fd = DiamondDifferenceSolver::new(&problem).expect("valid problem");
    let fd_out = fd.run().expect("FD solve");
    let fd_unknowns = fd.angular_flux_unknowns();
    let fd_mean = fd_out.scalar_flux_total / problem.num_cells() as f64;

    // Finite element (linear) solution.
    let mut fem = TransportSolver::new(&problem).expect("valid problem");
    let fem_out = fem.run().expect("FEM solve");
    let fem_unknowns = problem.angular_flux_unknowns();
    let fem_mean =
        fem_out.scalar_flux_total / (problem.num_cells() * problem.nodes_per_element()) as f64;

    println!("{:<34} {:>16} {:>16}", "", "FD (SNAP)", "FEM (UnSNAP, p=1)");
    println!(
        "{:<34} {:>16} {:>16}",
        "angular-flux unknowns", fd_unknowns, fem_unknowns
    );
    println!(
        "{:<34} {:>15.1}x {:>16}",
        "memory ratio vs FD",
        1.0,
        format!("{:.1}x", fem_unknowns as f64 / fd_unknowns as f64)
    );
    println!(
        "{:<34} {:>16} {:>16}",
        "iterations to tolerance", fd_out.inner_iterations, fem_out.inner_iterations
    );
    println!(
        "{:<34} {:>16.6} {:>16.6}",
        "converged mean scalar flux", fd_mean, fem_mean
    );
    println!(
        "{:<34} {:>16.3} {:>16.3}",
        "sweep seconds", fd_out.sweep_seconds, fem_out.assemble_solve_seconds
    );
    println!();
    println!(
        "(The FEM spends far more floating-point work per cell — a small dense \
         assemble+solve instead of one multiply-add per diamond-difference relation \
         — and stores 8x the angular flux for linear elements, but delivers \
         third-order accuracy and supports genuinely unstructured, twisted meshes.)"
    );

    let rel = (fd_mean - fem_mean).abs() / fem_mean;
    println!("relative difference in mean flux: {rel:.3e}");
}
