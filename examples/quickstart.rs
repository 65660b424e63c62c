//! Quickstart: take the `quickstart` [`Problem`] preset, open an
//! observable [`Session`] on it, and stream the solve's progress while
//! it runs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example exercises the whole public API surface: a problem
//! preset, mesh construction, sweep scheduling, the observable session
//! with a custom [`RunObserver`], and the reporting helpers (including
//! Table I of the paper and the JSON outcome dump).  Strategies, dense
//! back ends and concurrency schemes are compared by
//! `reproduce strategies|table2|figure3`.

use unsnap::prelude::*;

/// A tiny observer that narrates the solve as it happens.
#[derive(Default)]
struct Narrator {
    sweeps: usize,
}

impl RunObserver for Narrator {
    fn on_event(&mut self, _lane: Lane, event: &SolveEvent) {
        match *event {
            SolveEvent::OuterStart { outer } => println!("  outer {outer} started"),
            SolveEvent::InnerIteration {
                inner,
                relative_change,
            } => println!("    inner {inner:>3}: max relative change {relative_change:.3e}"),
            SolveEvent::KrylovResidual {
                iteration,
                relative_residual,
            } => println!("    krylov {iteration:>3}: relative residual {relative_residual:.3e}"),
            SolveEvent::Sweep { sweep, .. } => self.sweeps = sweep,
            SolveEvent::OuterEnd { outer, converged } => {
                println!("  outer {outer} finished (inner converged: {converged})")
            }
            _ => {}
        }
    }
}

fn main() -> Result<()> {
    // ------------------------------------------------------------------
    // 1. Describe the problem: the `quickstart` preset (6^3 cells,
    //    4 angles/octant, 4 groups, linear elements).  `Session::new`
    //    below validates it, like every solver constructor.
    // ------------------------------------------------------------------
    let problem = Problem::quickstart();
    println!("UnSNAP quickstart");
    println!("=================");
    println!(
        "mesh           : {} x {} x {} cells (twist {} rad)",
        problem.nx, problem.ny, problem.nz, problem.twist
    );
    println!(
        "phase space    : {} angles/octant x {} groups, order-{} elements",
        problem.angles_per_octant, problem.num_groups, problem.element_order
    );
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let workers = problem
        .num_threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    println!(
        "angular flux   : {} unknowns ({:.1} MiB, never stored)",
        problem.angular_flux_unknowns(),
        mib(problem.angular_flux_bytes())
    );
    println!(
        "sweep scratch  : {:.2} MiB of it at a time ({workers} workers)",
        mib(problem.sweep_scratch_bytes(workers))
    );
    println!("scheme         : {}", problem.scheme);
    println!("local solver   : {}", problem.solver);
    println!("strategy       : {}", problem.strategy);

    // ------------------------------------------------------------------
    // 2. Table I of the paper: local matrix sizes per element order.
    // ------------------------------------------------------------------
    println!();
    println!("Table I — local matrix sizes");
    print!("{}", report::table1_text(5));

    // ------------------------------------------------------------------
    // 3. Inspect the sweep schedule of one direction before solving.
    // ------------------------------------------------------------------
    let mesh = problem.build_mesh();
    let schedule = SweepSchedule::build(&mesh, [0.57, 0.57, 0.59])
        .map_err(|e| Error::schedule("quickstart demo angle", e))?;
    let stats = schedule.stats();
    println!();
    println!(
        "sweep schedule : {} wavefront buckets over {} cells \
         (mean {:.1} cells/bucket, max {})",
        stats.num_buckets, stats.num_cells, stats.mean_bucket, stats.max_bucket
    );

    // ------------------------------------------------------------------
    // 4. Solve inside a Session, streaming progress through an observer.
    // ------------------------------------------------------------------
    println!();
    println!("solving (streamed)");
    let mut session = Session::new(&problem)?;
    let mut narrator = Narrator::default();
    let outcome = session.run_observed(&mut narrator)?;

    println!();
    println!("solve summary");
    println!("-------------");
    println!(
        "iterations     : {} inner x {} outer (converged: {})",
        outcome.inner_iterations, outcome.outer_iterations, outcome.converged
    );
    println!(
        "sweeps         : {} observed live, {} reported",
        narrator.sweeps, outcome.sweep_count
    );
    println!(
        "assemble/solve : {:.3} s over {} local systems",
        outcome.assemble_solve_seconds, outcome.kernel_invocations
    );
    println!(
        "scalar flux    : total {:.4e}, max {:.4e}, min {:.4e}",
        outcome.scalar_flux_total, outcome.scalar_flux_max, outcome.scalar_flux_min
    );
    if let Some(last) = outcome.convergence_history.last() {
        println!("last change    : {last:.3e}");
    }

    // ------------------------------------------------------------------
    // 5. Machine-readable dump for external tooling.
    // ------------------------------------------------------------------
    println!();
    println!("outcome as JSON: {}", outcome.to_json());
    Ok(())
}
