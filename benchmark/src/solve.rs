//! The four solve workloads, measured end to end (tracing off).
//!
//! Every repetition is a fresh solver: `Session::run` warm-starts from
//! the flux the previous run left behind, so re-running one session would
//! neither repeat the work (`converge-dsa` would converge at once) nor
//! reproduce the flux.  Set-up is therefore timed once per repetition.

use std::time::Instant;

use unsnap_comm::{BlockJacobiOutcome, BlockJacobiSolver};
use unsnap_core::error::Result;
use unsnap_core::problem::Problem;
use unsnap_core::session::Session;
use unsnap_core::solver::SolveOutcome;
use unsnap_mesh::Decomposition2D;

use crate::probe::{Pace, Timed, BURST};
use crate::reference::Reference;
use crate::workloads::{self, Driver, Workload};

/// What one solve produced, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveFacts {
    /// Full transport sweeps (summed over ranks for block Jacobi).
    pub sweeps: usize,
    /// Local systems assembled and solved.
    pub kernel_invocations: u64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Scalar-flux sum, minimum and maximum.
    pub flux: [f64; 3],
}

/// One timed repetition.
#[derive(Debug, Clone)]
pub struct Repetition {
    /// Validated `Problem` → ready solver.
    pub setup_s: f64,
    /// One complete solve.
    pub solve_s: f64,
    /// What came out.
    pub facts: SolveFacts,
}

/// Scalar-flux sum, minimum and maximum of a flux array.
pub fn flux_facts(phi: &[f64]) -> [f64; 3] {
    let min = phi.iter().fold(f64::MAX, |m, &x| m.min(x));
    let max = phi.iter().fold(f64::MIN, |m, &x| m.max(x));
    [phi.iter().sum(), min, max]
}

/// The checked facts of a single-domain outcome.
pub fn session_facts(outcome: &SolveOutcome) -> SolveFacts {
    SolveFacts {
        sweeps: outcome.sweep_count,
        kernel_invocations: outcome.kernel_invocations,
        converged: outcome.converged,
        flux: [
            outcome.scalar_flux_total,
            outcome.scalar_flux_min,
            outcome.scalar_flux_max,
        ],
    }
}

/// The checked facts of a block-Jacobi outcome; the outcome carries no
/// flux extrema, so they are read off the solver it came from.
pub fn jacobi_facts(outcome: &BlockJacobiOutcome, solver: &BlockJacobiSolver) -> SolveFacts {
    let [_, min, max] = flux_facts(solver.scalar_flux().as_slice());
    SolveFacts {
        sweeps: outcome.sweep_count,
        kernel_invocations: outcome.metrics.cells_swept,
        converged: outcome.converged,
        flux: [outcome.scalar_flux_total, min, max],
    }
}

/// A ready solver of either driver.
enum Solver {
    Session(Box<Session>),
    Jacobi(Box<BlockJacobiSolver>),
}

impl Solver {
    fn build(driver: Driver, problem: &Problem) -> Result<Self> {
        Ok(match driver {
            Driver::Session => Solver::Session(Box::new(Session::new(problem)?)),
            Driver::Jacobi2x2 => Solver::Jacobi(Box::new(BlockJacobiSolver::new(
                problem,
                Decomposition2D::new(2, 2),
            )?)),
        })
    }

    fn run(&mut self) -> Result<SolveFacts> {
        Ok(match self {
            Solver::Session(session) => session_facts(&session.run()?),
            Solver::Jacobi(solver) => {
                let outcome = solver.run()?;
                jacobi_facts(&outcome, solver)
            }
        })
    }
}

/// Build a fresh solver for `problem` and time the set-up; the solver is
/// dropped by the caller, outside the interval.
fn timed_build(driver: Driver, problem: &Problem) -> Result<(Solver, f64)> {
    let t0 = Instant::now();
    let solver = Solver::build(driver, problem)?;
    Ok((solver, t0.elapsed().as_secs_f64()))
}

/// Build a fresh solver for `problem`, solve once, time both steps.
pub fn repetition(driver: Driver, problem: &Problem) -> Result<Repetition> {
    let (mut solver, setup_s) = timed_build(driver, problem)?;
    let t0 = Instant::now();
    let facts = solver.run()?;
    Ok(Repetition {
        setup_s,
        solve_s: t0.elapsed().as_secs_f64(),
        facts,
    })
}

/// The output checks of one solve workload: work counts from the problem
/// shape, the determinism contract against the run's first solve, and —
/// for the default seed — the committed reference.
#[derive(Debug)]
pub struct Checker {
    workload: Workload,
    tasks_per_sweep: u64,
    fixed_sweeps: Option<usize>,
    ranks: usize,
    reference: Option<Reference>,
    first: Option<SolveFacts>,
    /// Operations checked so far.
    pub attempted: u64,
    /// Operations that failed a check (or returned an error).
    pub failed: u64,
}

impl Checker {
    /// A checker for solves of `problem` by `driver` within `workload`;
    /// `reference` is the committed record when the run uses the default
    /// seed.
    pub fn new(
        workload: Workload,
        driver: Driver,
        problem: &Problem,
        reference: Option<Reference>,
    ) -> Self {
        Self {
            workload,
            tasks_per_sweep: workloads::tasks_per_sweep(problem),
            fixed_sweeps: workloads::fixed_sweeps(workload, problem),
            ranks: match driver {
                Driver::Jacobi2x2 => 4,
                Driver::Session => 1,
            },
            reference,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one operation that returned an error.
    pub fn error(&mut self, what: &str, error: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED {}: {what}: {error}", self.workload.name());
    }

    /// Check one solve; returns whether it passed.
    pub fn check(&mut self, what: &str, facts: &SolveFacts) -> bool {
        self.attempted += 1;
        let mut problems = Vec::new();
        // Every rank sweeps its quarter of the mesh once per halo
        // iteration, so rank sweeps ÷ ranks are whole-mesh sweeps.
        let mesh_sweeps = facts.sweeps / self.ranks;
        if let Some(expected) = self.fixed_sweeps {
            if facts.sweeps != expected * self.ranks {
                problems.push(format!(
                    "sweep_count {} != {}",
                    facts.sweeps,
                    expected * self.ranks
                ));
            }
        } else {
            if !facts.converged {
                problems.push("did not converge".to_string());
            }
            if let Some(reference) = &self.reference {
                if facts.sweeps > reference.sweeps + 2 {
                    problems.push(format!(
                        "{} sweeps > committed {} + 2",
                        facts.sweeps, reference.sweeps
                    ));
                }
            }
        }
        let expected_tasks = self.tasks_per_sweep * mesh_sweeps as u64;
        if facts.kernel_invocations != expected_tasks {
            problems.push(format!(
                "kernel_invocations {} != {expected_tasks}",
                facts.kernel_invocations
            ));
        }
        if let Some(reference) = &self.reference {
            for (name, (got, want)) in ["total", "min", "max"]
                .iter()
                .zip(facts.flux.iter().zip(reference.flux.iter()))
            {
                if (got - want).abs() > 1e-9 * want.abs() {
                    problems.push(format!("flux {name} {got:e} vs reference {want:e}"));
                }
            }
        }
        match &self.first {
            None => self.first = Some(facts.clone()),
            // Bit-for-bit across repetitions and thread widths.
            Some(first) => {
                if first != facts {
                    problems.push(format!(
                        "differs from the first solve: {facts:?} vs {first:?}"
                    ));
                }
            }
        }
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        eprintln!(
            "FAILED {}: {what}: {}",
            self.workload.name(),
            problems.join("; ")
        );
        false
    }

    /// The facts of the first checked solve.
    pub fn first(&self) -> Option<&SolveFacts> {
        self.first.as_ref()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Samples of one untraced run of a solve workload.
#[derive(Debug, Default)]
pub struct SolveSamples {
    /// Set-up at 1 thread (the gated `setup_s`).
    pub setup_t1: Vec<Timed>,
    /// Set-up at 2 threads (printed, not gated).
    pub setup_t2: Vec<Timed>,
    /// Solves at 1 thread.
    pub solve_t1: Vec<Timed>,
    /// Solves at 2 threads.
    pub solve_t2: Vec<Timed>,
    /// `VmHWM` when the process had set up and solved once, at 1 thread,
    /// and done nothing else.  What the repetitions after that add is
    /// what glibc keeps of the solvers the harness builds and drops and
    /// of the 2-thread pools' arenas, in steps that differ from run to run
    /// (README, `peak_rss_mb`).
    pub peak_rss_mb: f64,
}

/// How long and how often to repeat.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall seconds the whole run may take, counted from `started`.
    pub seconds: f64,
    /// Timed 1-thread/2-thread pairs to run whatever the clock says.
    pub min_pairs: usize,
    /// Pairs after which to stop whatever the clock says.
    pub max_pairs: usize,
    /// 1-thread set-ups timed without a solve, before the pairs (each
    /// pair times one more).
    pub setups: usize,
}

/// Run one solve workload: an untimed first solve at 1 thread and a
/// warm-up sweep at 2, then timed pairs with the widths alternating, until
/// the budget is used.  Every
/// timed step has the host-speed probe before and after it, on as many
/// threads as the step keeps busy.
pub fn measure(
    workload: Workload,
    seed: u64,
    budget: Budget,
    started: Instant,
    checker: &mut Checker,
) -> SolveSamples {
    let driver = workload.driver().expect("a solve workload");
    let base = workloads::solve_problem(workload, seed);
    let problems = [base.clone().with_threads(1), base.clone().with_threads(2)];
    let mut samples = SolveSamples::default();
    let mut first = usize::from(workloads::two_threads_first(seed));

    // The first thing the process does is one whole repetition at 1
    // thread, untimed.  It warms that width up, and because nothing has
    // run beside or before it, it leaves the same peak resident set in
    // every run: that is the `peak_rss_mb` of a solve workload.
    match repetition(driver, &problems[0]) {
        Ok(rep) => {
            checker.check("first solve", &rep.facts);
        }
        Err(error) => checker.error("first solve", &error),
    }
    samples.peak_rss_mb = peak_rss_mb();
    // Only now the probes, so that their arrays are not in that peak.
    let mut paces = [Pace::new(1), Pace::new(2)];
    // The 2-thread warm-up is one sweep: it touches every array and
    // every code path of the solve.
    let warm = Problem {
        inner_iterations: 1,
        outer_iterations: 1,
        ..base
    };
    paces[1].sample();
    if let Err(error) = repetition(driver, &warm.with_threads(2)) {
        checker.error("warm-up", &error);
    }

    // Set-ups without a solve: set-up is cheap beside a solve, and its
    // median should not rest on the handful of values the pairs give.
    // One probe between every two; each set-up is paced by its neighbours.
    let mut probe = paces[0].sample();
    for _ in 0..budget.setups {
        match timed_build(driver, &problems[0]) {
            Ok((_solver, seconds)) => {
                let after = paces[0].sample();
                samples
                    .setup_t1
                    .push(Timed::mixed(seconds, &[probe, after]));
                probe = after;
            }
            Err(error) => {
                checker.error("set-up", &error);
                break;
            }
        }
    }

    let mut pair_seconds: Vec<f64> = Vec::new();
    while pair_seconds.len() < budget.max_pairs
        && (pair_seconds.len() < budget.min_pairs
            || started.elapsed().as_secs_f64() + crate::stats::median(&pair_seconds)
                <= budget.seconds)
    {
        let pair_start = Instant::now();
        for width in [first, 1 - first] {
            let what = format!("solve at {} thread(s)", width + 1);
            let mut around = Vec::with_capacity(2 * BURST);
            paces[width].burst(&mut around);
            let outcome = repetition(driver, &problems[width]);
            paces[width].burst(&mut around);
            match outcome {
                Ok(rep) => {
                    if checker.check(&what, &rep.facts) {
                        let (setups, solves) = if width == 0 {
                            (&mut samples.setup_t1, &mut samples.solve_t1)
                        } else {
                            (&mut samples.setup_t2, &mut samples.solve_t2)
                        };
                        // The set-up sits right behind the first burst.
                        setups.push(Timed::mixed(rep.setup_s, &around[..BURST]));
                        solves.push(Timed::new(rep.solve_s, &around));
                    }
                }
                Err(error) => checker.error(&what, &error),
            }
        }
        pair_seconds.push(pair_start.elapsed().as_secs_f64());
        first = 1 - first;
    }

    samples
}
