//! The eight experiments behind the table in `lib.rs`.  Each builds its
//! problems at the size `--quick`/`--full` selects, runs them through the
//! one [`solve`] at every width `--threads` names, and hands back rows;
//! nothing here prints.

use unsnap_comm::BlockJacobiSolver;
use unsnap_core::layout::Precision;
use unsnap_core::problem::Problem;
use unsnap_core::report;
use unsnap_core::session::{NoopObserver, ProgressObserver, RunObserver};
use unsnap_core::solver::{SolveOutcome, TransportSolver};
use unsnap_core::strategy::StrategyKind;
use unsnap_linalg::SolverKind;
use unsnap_mesh::Decomposition2D;
use unsnap_sweep::{ConcurrencyScheme, LoopOrder, ThreadedLoops};

use crate::{Cell, HarnessOptions, Report, Row, Size};

/// Run one problem — single-domain, or block Jacobi over `ranks` — with
/// the `--progress` and `--trace-out` wiring every experiment shares.
/// Panics on an invalid problem or a failed solve: experiments construct
/// their own problems, so either is a harness bug.
fn solve(opts: &HarnessOptions, problem: &Problem, ranks: Option<Decomposition2D>) -> SolveOutcome {
    let mut progress = ProgressObserver::new();
    let mut noop = NoopObserver;
    let observer: &mut dyn RunObserver = if opts.progress {
        eprintln!(
            "[unsnap] running {} at {} thread(s)",
            problem.strategy,
            width(problem)
        );
        &mut progress
    } else {
        &mut noop
    };
    let outcome = match ranks {
        None => TransportSolver::new(problem)
            .expect("experiment problem must validate")
            .run_observed(observer),
        Some(decomposition) => BlockJacobiSolver::new(problem, decomposition)
            .expect("experiment decomposition must fit")
            .run_observed(observer),
    }
    .expect("experiment solve must run");
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, outcome.trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("--trace-out {path}: write failed: {e}"));
    }
    outcome
}

/// The width a problem asks for.  Every experiment sets it from
/// `--threads`, so the record's tag is the request, never a guess.
fn width(problem: &Problem) -> usize {
    problem
        .num_threads
        .expect("experiments set num_threads explicitly")
}

/// A row tagged from the problem that ran.
fn row(case: String, problem: &Problem, outcome: &SolveOutcome, cells: Vec<Cell>) -> Row {
    Row {
        case,
        strategy: Some(problem.strategy),
        threads: width(problem),
        cells,
        metrics: outcome.metrics.clone(),
    }
}

fn shape(problem: &Problem, size: Size) -> String {
    format!(
        "problem: {}x{}x{} cells, {} angles/octant, {} group(s), order {}, {} inner x {} outer ({})",
        problem.nx,
        problem.ny,
        problem.nz,
        problem.angles_per_octant,
        problem.num_groups,
        problem.element_order,
        problem.inner_iterations,
        problem.outer_iterations,
        match size {
            Size::Quick => "smoke size",
            Size::Scaled => "scaled down",
            Size::Full => "paper size",
        }
    )
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(1e-300)
}

pub(crate) fn table1(_: &HarnessOptions) -> Report {
    Report {
        setup: "no solve: sizes follow from the element order alone".to_string(),
        columns: vec!["matrix_size", "fp64_footprint_kb"],
        rows: report::table1(5)
            .into_iter()
            .map(|r| Row {
                case: format!("order={}", r.order),
                strategy: None,
                threads: 0,
                cells: vec![Cell::Int(r.matrix_size as u64), Cell::Real(r.footprint_kb)],
                metrics: Default::default(),
            })
            .collect(),
        note: "Paper values: 0.5, 5.7, 32.0, 122.1, 364.5 kB for orders 1-5.",
    }
}

/// Every scheme × every width on one problem: assemble/solve seconds and
/// the speed-up over the scheme's own first width.
fn scaling(
    opts: &HarnessOptions,
    base: Problem,
    schemes: &[ConcurrencyScheme],
    note: &'static str,
) -> Report {
    let widths = opts.widths(&[1, 2]);
    let mut rows = Vec::with_capacity(schemes.len() * widths.len());
    for &scheme in schemes {
        let mut first = None;
        for &t in &widths {
            let problem = base.clone().with_scheme(scheme).with_threads(t);
            let outcome = solve(opts, &problem, None);
            let seconds = outcome.assemble_solve_seconds;
            let speedup = *first.get_or_insert(seconds) / seconds;
            let cells = vec![Cell::Real(seconds), Cell::Real(speedup)];
            rows.push(row(scheme.label(), &problem, &outcome, cells));
        }
    }
    Report {
        setup: shape(&base, opts.size),
        columns: vec!["seconds", "speedup"],
        rows,
        note,
    }
}

/// The six schemes of Figures 3/4 plus the repository default, whose
/// workers share no bucket.
fn seven_schemes() -> Vec<ConcurrencyScheme> {
    let mut schemes = ConcurrencyScheme::figure_schemes();
    schemes.push(ConcurrencyScheme::best());
    schemes
}

pub(crate) fn figure3(opts: &HarnessOptions) -> Report {
    let base = match opts.size {
        Size::Quick => Problem::figure3_scaled()
            .with_mesh(3)
            .with_phase_space(2, 4),
        Size::Scaled => Problem::figure3_scaled(),
        Size::Full => Problem::figure3_full(),
    };
    scaling(
        opts,
        base,
        &seven_schemes(),
        "Paper shape: angle/element*/group* (collapsed element x group threading, group \
         index fastest in memory) is fastest at full thread counts; the group/element \
         layouts trail because adjacent elements sit one cache line apart.  Every row \
         forks once per sweep: the six element/group rows share each region of each \
         wavefront bucket among the team (the paper's subject), the angle* row gives \
         every worker angles of its own; both fold the scalar flux in ascending angle \
         order.  Every row is bit-for-bit deterministic across widths.",
    )
}

pub(crate) fn figure4(opts: &HarnessOptions) -> Report {
    let base = match opts.size {
        Size::Quick => Problem {
            inner_iterations: 2,
            ..Problem::figure4_scaled()
                .with_mesh(2)
                .with_phase_space(1, 2)
        },
        Size::Scaled => Problem::figure4_scaled(),
        Size::Full => Problem::figure4_full(),
    };
    scaling(
        opts,
        base,
        &seven_schemes(),
        "Paper shape: cubic elements carry ~8x the work per cell of linear ones; \
         angle/element*/group* stays fastest of the six, and the group/element layout is \
         penalised less than in Figure 3 because 64-node elements already put 32 kB \
         between adjacent elements.  Rows as in Figure 3.",
    )
}

pub(crate) fn threading(opts: &HarnessOptions) -> Report {
    // Few groups and many angles: small buckets, where a team's hand-off
    // per region costs the most against the work it spreads.
    let base = match opts.size {
        Size::Quick => Problem::figure3_scaled()
            .with_mesh(3)
            .with_phase_space(4, 4),
        Size::Scaled => Problem::figure3_scaled().with_phase_space(8, 8),
        Size::Full => Problem::figure3_full(),
    };
    scaling(
        opts,
        base,
        &[
            ConcurrencyScheme::angle_threaded(LoopOrder::ElementThenGroup),
            ConcurrencyScheme::new(LoopOrder::ElementThenGroup, ThreadedLoops::Collapsed),
        ],
        "Paper finding: threading over angles around an atomic (or critical) scalar-flux \
         update did not scale - the runtime rose with the thread count - so Figures 3 and \
         4 thread the element/group loops inside each bucket (the element*/group* row).  \
         Here a worker sweeps an angle into a slab of its own and the scalar flux takes \
         the slabs in ascending angle order: the angle* row waits for no region, \
         needs no atomic, and should fall with the thread count at least as fast as the \
         row below it.",
    )
}

pub(crate) fn table2(opts: &HarnessOptions) -> Report {
    let problem_for = |order, kind| match opts.size {
        Size::Quick => Problem::table2_scaled(order, kind).with_mesh(2),
        Size::Scaled => Problem::table2_scaled(order, kind),
        Size::Full => Problem::table2_full(order, kind),
    };
    let max_order = opts.max_order.unwrap_or(match opts.size {
        Size::Quick => 2,
        Size::Scaled => 3,
        Size::Full => 4,
    });
    let mut rows = Vec::new();
    for order in 1..=max_order {
        for kind in [SolverKind::GaussianElimination, SolverKind::Mkl] {
            for t in opts.widths(&[1]) {
                let problem = problem_for(order, kind)
                    .with_solve_timing(true)
                    .with_threads(t);
                let outcome = solve(opts, &problem, None);
                let cells = vec![
                    Cell::Real(outcome.assemble_solve_seconds),
                    Cell::Real(outcome.solve_fraction() * 100.0),
                ];
                let case = format!("order={order}/{}", kind.label().to_ascii_lowercase());
                rows.push(row(case, &problem, &outcome, cells));
            }
        }
    }
    Report {
        setup: shape(&problem_for(1, SolverKind::GaussianElimination), opts.size),
        columns: vec!["seconds", "pct_in_solve"],
        rows,
        note: "Paper shape (56-core Skylake node, full size, flat MPI - one serial rank per \
               core, as here): GE beats MKL for orders 1-3 (matrices up to 64x64 stay in \
               L1); MKL wins at order 4 (125x125) by ~1.7x.  % in solve grows from ~34% \
               at order 1 to ~74-87% at order 4 - at low order the assembly dominates.",
    }
}

pub(crate) fn strategies(opts: &HarnessOptions) -> Report {
    // The quickstart phase space on a diffusive domain, 12 mean free
    // paths thick: source iteration contracts at essentially `c` per
    // sweep, so the low-order correction has honest work to do.
    let (mesh, budget, ratios): (usize, usize, &[f64]) = match opts.size {
        Size::Quick => (4, 1500, &[0.9]),
        Size::Scaled | Size::Full => (6, 4000, &[0.5, 0.9, 0.99, 0.999]),
    };
    let mut rows = Vec::new();
    for &c in ratios {
        for t in opts.widths(&[1]) {
            let mut si: Option<(usize, f64)> = None;
            for strategy in StrategyKind::all() {
                let problem = Problem {
                    lx: 12.0,
                    ly: 12.0,
                    lz: 12.0,
                    convergence_tolerance: 1e-6,
                    inner_iterations: budget,
                    outer_iterations: 1,
                    ..Problem::quickstart()
                }
                .with_mesh(mesh)
                .with_phase_space(2, 1)
                .with_scattering_ratio(c)
                .with_scheme(ConcurrencyScheme::serial())
                .with_strategy(strategy)
                .with_threads(t);
                let outcome = solve(opts, &problem, None);
                // `StrategyKind::all()` leads with source iteration.
                let (si_sweeps, si_flux) =
                    *si.get_or_insert((outcome.sweep_count, outcome.scalar_flux_total));
                let cells = vec![
                    Cell::Int(outcome.sweep_count as u64),
                    Cell::Flag(outcome.converged),
                    Cell::Int(outcome.accel_cg_iterations as u64),
                    Cell::Real(si_sweeps as f64 / outcome.sweep_count.max(1) as f64),
                    Cell::Real(rel_diff(si_flux, outcome.scalar_flux_total)),
                ];
                rows.push(row(format!("c={c}"), &problem, &outcome, cells));
            }
        }
    }
    Report {
        setup: format!(
            "problem: {mesh}x{mesh}x{mesh} cells 12 mfp thick, 2 angles/octant, 1 group, \
             tolerance 1e-6, budget {budget} sweeps"
        ),
        columns: vec![
            "sweeps",
            "converged",
            "dsa_cg_iterations",
            "speedup_vs_si",
            "flux_rel_diff_vs_si",
        ],
        rows,
        note: "Sweeps are the honest unit of work: source iteration needs ~1/(1-c) of them, \
               DSA-SI and GMRES stay nearly flat as c -> 1.  DSA's CG iterations are not \
               sweeps (the low-order system has one unknown per cell x group).  `converged: \
               no` marks a strategy that exhausted its budget.",
    }
}

pub(crate) fn jacobi(opts: &HarnessOptions) -> Report {
    let mut base = Problem::tiny().with_scattering_ratio(0.9);
    (base.nx, base.ny, base.nz, base.inner_iterations) = match opts.size {
        Size::Quick => (4, 4, 2, 120),
        Size::Scaled | Size::Full => (8, 8, 4, 400),
    };
    base.num_groups = 1;
    base.convergence_tolerance = 1e-7;
    let mut rows = Vec::new();
    for strategy in StrategyKind::all() {
        for decomposition in [
            Decomposition2D::serial(),
            Decomposition2D::new(2, 1),
            Decomposition2D::new(2, 2),
        ] {
            for t in opts.widths(&[1]) {
                let problem = base.clone().with_strategy(strategy).with_threads(t);
                let outcome = solve(opts, &problem, Some(decomposition));
                let cells = vec![
                    Cell::Int(outcome.inner_iterations as u64),
                    Cell::Flag(outcome.converged),
                    Cell::Int(outcome.sweep_count as u64),
                    Cell::Int(outcome.krylov_iterations as u64),
                    Cell::Real(outcome.scalar_flux_total),
                    Cell::Real(outcome.assemble_solve_seconds),
                ];
                let case = format!("ranks={}", decomposition.num_ranks());
                rows.push(row(case, &problem, &outcome, cells));
            }
        }
    }
    Report {
        setup: format!("{}, c = 0.9, tolerance 1e-7", shape(&base, opts.size)),
        columns: vec![
            "halo_iterations",
            "converged",
            "sweeps",
            "krylov_iterations",
            "scalar_flux_total",
            "seconds",
        ],
        rows,
        note: "Paper/Garrett finding: block Jacobi needs more iterations as the number of \
               blocks grows (every block lags its neighbours by one iteration), but every \
               rank starts sweeping at once.  With SI every halo exchange buys one lagged \
               sweep per rank; with GMRES each rank converges its subdomain per exchange - \
               fewer halo iterations for more sweeps each, a trade that improves as \
               scattering dominates.",
    }
}

/// Documented accuracy contract of the mixed-precision mode: the relative
/// difference of the converged scalar-flux total against the `f64` solve
/// stays below this bound (single precision resolves ~7 digits).
const MIXED_FLUX_TOLERANCE: f64 = 1e-5;

/// Documented iteration contract of the mixed-precision mode: rounding
/// iterates to the `f32` grid may slow the tail of convergence but must
/// not change its character.
fn mixed_sweep_budget(f64_sweeps: usize) -> usize {
    2 * f64_sweeps + 4
}

pub(crate) fn precision(opts: &HarnessOptions) -> Report {
    // At c = 0.9 source iteration needs ~110 sweeps for 1e-5, a tolerance
    // well above f32 resolution so the mixed mode converges rather than
    // oscillating on the rounding grid; it may take double the budget.
    let (mesh, budget) = match opts.size {
        Size::Quick => (3, 600),
        Size::Scaled | Size::Full => (6, 1200),
    };
    let mut rows = Vec::new();
    for strategy in [
        StrategyKind::SourceIteration,
        StrategyKind::DsaSourceIteration,
    ] {
        for t in opts.widths(&[1]) {
            let mut reference: Option<(usize, f64)> = None;
            for precision in [Precision::F64, Precision::Mixed] {
                let problem = Problem {
                    lx: 12.0,
                    ly: 12.0,
                    lz: 12.0,
                    convergence_tolerance: 1e-5,
                    inner_iterations: budget,
                    outer_iterations: 1,
                    ..Problem::quickstart()
                }
                .with_mesh(mesh)
                .with_phase_space(2, 2)
                .with_scattering_ratio(0.9)
                .with_strategy(strategy)
                .with_precision(precision)
                .with_threads(t);
                let outcome = solve(opts, &problem, None);
                assert!(outcome.converged, "{strategy}/{precision}: must converge");
                let (f64_sweeps, f64_flux) =
                    *reference.get_or_insert((outcome.sweep_count, outcome.scalar_flux_total));
                let drift = rel_diff(f64_flux, outcome.scalar_flux_total);
                assert!(
                    drift <= MIXED_FLUX_TOLERANCE,
                    "{strategy}/{precision}: flux drift {drift:.3e} exceeds {MIXED_FLUX_TOLERANCE:.0e}"
                );
                assert!(
                    outcome.sweep_count <= mixed_sweep_budget(f64_sweeps),
                    "{strategy}/{precision}: {} sweeps exceeds the budget of {}",
                    outcome.sweep_count,
                    mixed_sweep_budget(f64_sweeps)
                );
                let cells = vec![
                    Cell::Int(outcome.sweep_count as u64),
                    Cell::Real(outcome.assemble_solve_seconds),
                    Cell::Real(drift),
                ];
                rows.push(row(
                    precision.label().to_string(),
                    &problem,
                    &outcome,
                    cells,
                ));
            }
        }
    }
    Report {
        setup: format!(
            "problem: {mesh}x{mesh}x{mesh} cells 12 mfp thick, 2 angles/octant, 2 groups, \
             c = 0.9, tolerance 1e-5"
        ),
        columns: vec!["sweeps", "seconds", "flux_rel_diff_vs_f64"],
        rows,
        note: "Contracts held (a violation panics): every solve converged, the mixed flux \
               total is within 1e-5 of the f64 one, and mixed needed at most 2x + 4 of the \
               f64 sweeps.",
    }
}
