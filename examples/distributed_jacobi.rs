//! Block-Jacobi rank study: convergence penalty versus available
//! start-up concurrency (§III-A.1 of the paper).
//!
//! ```text
//! cargo run --release --example distributed_jacobi
//! ```
//!
//! The same problem is solved to a fixed tolerance with 1, 2 and 4
//! simulated ranks under the block-Jacobi global schedule.  More Jacobi
//! blocks mean slower convergence (more inner iterations), but every rank
//! can begin sweeping immediately — unlike a KBA pipeline, which idles
//! while it fills and drains.

use unsnap::prelude::*;

fn main() {
    let problem = Problem {
        nx: 6,
        ny: 6,
        nz: 4,
        inner_iterations: 100,
        convergence_tolerance: 1e-7,
        ..Problem::tiny()
    };

    println!("Block-Jacobi rank study");
    println!(
        "mesh {}x{}x{}, {} angles/octant, {} groups, tolerance {:.0e}",
        problem.nx,
        problem.ny,
        problem.nz,
        problem.angles_per_octant,
        problem.num_groups,
        problem.convergence_tolerance
    );
    println!();
    println!(
        "{:>6} {:>12} {:>12} {:>14}",
        "ranks", "iterations", "halo faces", "scalar flux"
    );

    for decomp in [
        Decomposition2D::serial(),
        Decomposition2D::new(2, 1),
        Decomposition2D::new(2, 2),
    ] {
        let mut solver =
            BlockJacobiSolver::new(&problem, decomp).expect("decomposition should fit the mesh");
        let outcome = solver.run().expect("solve");
        let ranks = outcome.ranks.as_ref().expect("block-Jacobi outcome");
        println!(
            "{:>6} {:>12} {:>12} {:>14.5e}",
            ranks.num_ranks,
            ranks
                .iterations_to_tolerance
                .map(|i| i.to_string())
                .unwrap_or_else(|| "> max".into()),
            ranks.halo_faces,
            outcome.scalar_flux_total
        );
    }

    println!();
    println!(
        "(Block Jacobi: every rank starts immediately but needs more iterations as \
         the number of blocks grows; a KBA pipeline needs fewer but idles while \
         each octant sweep fills and drains.)"
    );

    // The same driver dispatches Krylov subdomain solves: with
    // `SweepGmres` every halo exchange buys a converged per-rank GMRES
    // solve instead of one lagged sweep, and per-rank progress streams
    // to the observer on `Lane::Rank(r)` in deterministic rank order.
    let krylov_problem = problem.clone().with_strategy(StrategyKind::SweepGmres);
    let mut solver = BlockJacobiSolver::new(&krylov_problem, Decomposition2D::new(2, 2))
        .expect("decomposition should fit the mesh");
    let mut recorder = RecordingObserver::default();
    let outcome = solver
        .run_observed(&mut recorder)
        .expect("distributed Krylov solve");
    println!();
    println!("With GMRES subdomain solves on 2x2 ranks:");
    println!("  {outcome}");
    for (rank, record) in recorder.rank_records.iter().enumerate() {
        println!(
            "  rank {rank}: {} sweeps, {} Krylov residual events, final rank residual {:.2e}",
            record.sweep_count,
            record.krylov_residual_history.len(),
            record
                .krylov_residual_history
                .last()
                .copied()
                .unwrap_or(f64::NAN),
        );
    }
}
