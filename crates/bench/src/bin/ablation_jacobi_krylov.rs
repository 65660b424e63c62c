//! Ablation: source-iteration versus sweep-preconditioned-GMRES inner
//! solves inside the block-Jacobi distributed schedule, across 1/2/4
//! ranks.
//!
//! The distributed driver dispatches each rank's within-group solve
//! through the same `IterationStrategy` machinery as the single-domain
//! path: with source iteration every halo exchange buys one relaxation
//! sweep per rank (the seed schedule); with GMRES every halo exchange
//! buys a converged subdomain solve (additive-Schwarz style).  This
//! table measures what that trade does to the halo-iteration count, the
//! total sweep count and the wall time as the number of Jacobi blocks
//! grows.
//!
//! ```text
//! cargo run --release -p unsnap-bench --bin ablation_jacobi_krylov \
//!     [-- --quick] [--json] [--csv]
//! ```
//!
//! `--quick` shrinks the problem for CI smoke runs; `--json` emits one
//! `SolveOutcome::to_json()` dump per (strategy, decomposition)
//! cell, ready for plotting tools.
//!
//! Environment knobs (parsed via `FromStr`): `UNSNAP_SOLVER`,
//! `UNSNAP_SCHEME`, and `UNSNAP_C` (within-group scattering ratio,
//! default 0.9 — scattering-dominated, where the Krylov inner solves
//! pay off).

use unsnap_bench::{
    effective_threads, emit_metrics_record, env_parse, time_it, HarnessOptions, MetricsRecord,
};
use unsnap_comm::BlockJacobiSolver;
use unsnap_core::json::{array_raw, JsonObject};
use unsnap_core::problem::Problem;
use unsnap_core::report::iteration_summary;
use unsnap_core::session::ProgressObserver;
use unsnap_core::solver::SolveOutcome;
use unsnap_core::strategy::StrategyKind;
use unsnap_mesh::Decomposition2D;

fn run_cell(problem: &Problem, decomp: Decomposition2D, progress: bool) -> (SolveOutcome, f64) {
    let mut solver = BlockJacobiSolver::new(problem, decomp).expect("decomposition fits");
    let (outcome, seconds) = if progress {
        eprintln!(
            "[unsnap] running {} on {} rank(s)",
            problem.strategy,
            decomp.num_ranks()
        );
        let mut observer = ProgressObserver::from_env();
        time_it(|| solver.run_observed(&mut observer).expect("solve"))
    } else {
        time_it(|| solver.run().expect("solve"))
    };
    (outcome, seconds)
}

fn main() {
    let opts = HarnessOptions::from_args();
    let c: f64 = env_parse("UNSNAP_C", 0.9);

    let mut problem = Problem::tiny();
    if opts.quick {
        problem.nx = 4;
        problem.ny = 4;
        problem.nz = 2;
        problem.inner_iterations = 120;
    } else {
        problem.nx = 8;
        problem.ny = 8;
        problem.nz = 4;
        problem.inner_iterations = 400;
    }
    problem.num_groups = 1;
    problem.angles_per_octant = 2;
    problem.outer_iterations = 1;
    problem.convergence_tolerance = 1e-7;
    problem.scattering_ratio = Some(c);
    problem.solver = env_parse("UNSNAP_SOLVER", problem.solver);
    problem.scheme = env_parse("UNSNAP_SCHEME", problem.scheme);

    let decompositions = [
        Decomposition2D::serial(),
        Decomposition2D::new(2, 1),
        Decomposition2D::new(2, 2),
    ];

    if !opts.csv && !opts.json {
        println!("Ablation — SI vs GMRES inner solves in the block-Jacobi schedule");
        println!(
            "mesh {}x{}x{}, {} angles/octant, {} group(s), c = {c}, tolerance {:.0e}",
            problem.nx,
            problem.ny,
            problem.nz,
            problem.angles_per_octant,
            problem.num_groups,
            problem.convergence_tolerance
        );
        println!();
        println!(
            "{:>8} {:>6} {:>10} {:>12} {:>10} {:>16} {:>9}",
            "strategy", "ranks", "halo iters", "total sweeps", "Krylov its", "scalar flux", "secs"
        );
    }
    // `--json` wins over `--csv` outright: mixing a CSV header into a
    // JSON stream would pollute both consumers.
    let csv = opts.csv && !opts.json;
    if csv {
        println!(
            "strategy,ranks,halo_iterations,converged,total_sweeps,krylov_iterations,\
             scalar_flux_total,seconds"
        );
    }

    let mut dumps = Vec::new();
    for strategy in StrategyKind::all() {
        let mut p = problem.clone();
        p.strategy = strategy;
        for decomp in decompositions {
            let (outcome, seconds) = run_cell(&p, decomp, opts.progress);
            emit_metrics_record(
                &opts,
                &MetricsRecord::from_metrics(
                    "ablation_jacobi_krylov",
                    &format!("ranks={}", decomp.num_ranks()),
                    strategy,
                    effective_threads(&p),
                    &outcome.metrics,
                ),
            );
            if opts.json {
                dumps.push(
                    JsonObject::new()
                        .field_str("strategy", strategy.label())
                        .field_f64("seconds", seconds)
                        .field_raw("outcome", &outcome.to_json())
                        .finish(),
                );
            } else if csv {
                println!(
                    "{},{},{},{},{},{},{:.6e},{:.4}",
                    strategy.label(),
                    decomp.num_ranks(),
                    outcome.inner_iterations,
                    outcome.converged,
                    outcome.sweep_count,
                    outcome.krylov_iterations,
                    outcome.scalar_flux_total,
                    seconds
                );
            } else {
                let mark = if outcome.converged { ' ' } else { '!' };
                println!(
                    "{:>8} {:>6} {:>9}{} {:>12} {:>10} {:>16.6e} {:>9.3}",
                    strategy.label(),
                    decomp.num_ranks(),
                    outcome.inner_iterations,
                    mark,
                    outcome.sweep_count,
                    outcome.krylov_iterations,
                    outcome.scalar_flux_total,
                    seconds
                );
            }
            if !csv && !opts.json && decomp.num_ranks() == 4 {
                println!("         └─ {}", iteration_summary(&outcome));
            }
        }
    }

    if opts.json {
        println!("{}", array_raw(dumps));
    } else if !csv {
        println!();
        println!(
            "Reading: with SI inner solves every halo exchange buys one lagged sweep per \
             rank, so the halo-iteration count grows with the number of Jacobi blocks.  \
             With GMRES inner solves each rank converges its subdomain per halo exchange \
             — far fewer halo iterations at the cost of more sweeps per iteration, and \
             the trade improves as scattering dominates (raise UNSNAP_C toward 1)."
        );
    }
}
