//! Cross-thread-count determinism suite: the acceptance tests for the
//! real worker pool in the `rayon` stand-in.
//!
//! Making the pool genuinely multi-threaded is only safe if the physics
//! is *bit-for-bit* unchanged at any width, so for both iteration
//! strategies on both small presets this suite pins every non-timing
//! field of the [`SolveOutcome`] — fluxes, iteration counts, residual
//! histories — plus the full scalar and angular flux state and the whole
//! event stream, event by event with its seconds zeroed, to be identical
//! at 1, 2 and 4 threads.
//!
//! The guarantee rests on the stand-in's execution model — index-ordered
//! chunks, in-order reassembly, and in-order reductions (see the
//! `rayon` crate docs) — and, inside a sweep, on a local task's bits not
//! depending on the worker that solves it and on φ taking the angles in
//! ascending order: on the angle axis every angle is swept into a slab of
//! its own, however the workers finish them; on the bucket axis the team
//! is in one angle at a time.  No scheme is exempt.

use unsnap::core::solver::OuterDriver;
// Under the CI matrix `RAYON_NUM_THREADS` forces *every* team to one
// width, so the cross-width comparisons below would compare a width
// against itself.  Skip with a note in that case — the matrix's value
// is replaying the *rest* of the suite at each width; this suite does
// its real work in the unforced main job.
use unsnap::core::team::forced_width;
use unsnap::prelude::*;

/// Everything a `SolveOutcome` reports except wall-clock timing, which
/// legitimately differs between two runs.  The attached [`RunMetrics`]
/// keeps its deterministic half (sweeps, cells, phase-span counts) and
/// has its wall-clock half stripped, so the comparison below pins the
/// telemetry contract alongside the physics.
fn non_timing_fields(o: &SolveOutcome) -> SolveOutcome {
    let mut metrics = o.metrics.clone();
    metrics.zero_wallclock();
    SolveOutcome {
        assemble_solve_seconds: 0.0,
        kernel_assemble_seconds: 0.0,
        kernel_solve_seconds: 0.0,
        metrics,
        ..o.clone()
    }
}

struct Run {
    outcome: SolveOutcome,
    scalar_flux: Vec<f64>,
    angular_flux: Vec<f64>,
    /// The run's event stream with its wall-clock seconds zeroed.
    events: EventLog,
}

fn run_at(problem: &Problem, threads: usize) -> Run {
    let p = problem.clone().with_threads(threads);
    let mut solver = TransportSolver::new(&p).unwrap();
    solver.keep_angular_flux();
    let mut events = EventLog::default();
    let outcome = solver.run_observed(&mut events).unwrap();
    events.zero_wallclock();
    let angular_flux = solver.angular_flux().expect("asked to be kept");
    Run {
        outcome,
        scalar_flux: solver.scalar_flux().as_slice().to_vec(),
        angular_flux: angular_flux.as_slice().to_vec(),
        events,
    }
}

const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::SourceIteration,
    StrategyKind::DsaSourceIteration,
    StrategyKind::SweepGmres,
];

fn assert_thread_count_invariant(problem: &Problem) {
    assert_invariant_at(problem, &[2, 4]);
}

fn assert_invariant_at(problem: &Problem, widths: &[usize]) {
    if let Some(width) = forced_width() {
        eprintln!("RAYON_NUM_THREADS={width} forces every team width; cross-width check skipped");
        return;
    }
    let reference = run_at(problem, 1);
    for &threads in widths {
        let run = run_at(problem, threads);
        let context = format!(
            "{:?}/{:?} at {threads} threads vs 1",
            problem.strategy,
            (problem.nx, problem.ny, problem.nz),
        );
        assert_eq!(
            non_timing_fields(&reference.outcome),
            non_timing_fields(&run.outcome),
            "outcome diverged for {context}"
        );
        assert_eq!(
            reference.scalar_flux, run.scalar_flux,
            "scalar flux diverged for {context}"
        );
        assert_eq!(
            reference.angular_flux, run.angular_flux,
            "angular flux diverged for {context}"
        );
        // The streamed events must agree too, one by one, not just the
        // summary: sweeps and their cells, phase spans, every residual.
        assert_eq!(
            reference.events, run.events,
            "event stream diverged for {context}"
        );
    }
}

#[test]
fn source_iteration_is_thread_count_invariant_on_tiny() {
    assert_thread_count_invariant(&Problem::tiny());
}

#[test]
fn source_iteration_is_thread_count_invariant_on_quickstart() {
    assert_thread_count_invariant(&Problem::quickstart());
}

#[test]
fn sweep_gmres_is_thread_count_invariant_on_tiny() {
    assert_thread_count_invariant(&Problem::tiny().with_strategy(StrategyKind::SweepGmres));
}

#[test]
fn sweep_gmres_is_thread_count_invariant_on_quickstart() {
    assert_thread_count_invariant(&Problem::quickstart().with_strategy(StrategyKind::SweepGmres));
}

#[test]
fn dsa_source_iteration_is_thread_count_invariant_on_tiny() {
    assert_thread_count_invariant(&Problem::tiny().with_strategy(StrategyKind::DsaSourceIteration));
}

#[test]
fn dsa_source_iteration_is_thread_count_invariant_on_quickstart() {
    // The DSA correction is sequential, so only the sweeps fan out —
    // corrected fluxes, residual histories and observer streams must
    // stay bit-for-bit identical at every width.
    assert_thread_count_invariant(
        &Problem::quickstart().with_strategy(StrategyKind::DsaSourceIteration),
    );
}

#[test]
fn every_figure_scheme_is_thread_count_invariant() {
    // The six Figure 3/4 element/group schemes share every region of every
    // bucket among a team, and a task's bits do not depend on the share it
    // is in: each is bitwise reproducible — also at widths that do not
    // divide a region, and at one wider than most regions.  21 groups of an
    // order-1 element are lockstep runs of 16, 4 and 1: a share that holds
    // them, or a part of them, takes that route to the one-thread bits.
    let lockstep = Problem::tiny().with_phase_space(1, 21);
    assert_eq!(lockstep.element_order, 1);
    for scheme in ConcurrencyScheme::figure_schemes() {
        assert_invariant_at(&Problem::tiny().with_scheme(scheme), &[2, 3, 4, 8]);
        assert_invariant_at(&lockstep.clone().with_scheme(scheme), &[2, 3, 8]);
    }
}

#[test]
fn angle_threaded_scheme_is_thread_count_invariant() {
    // Every angle is swept into a slab of its own and φ takes them in
    // ascending angle order, so the default scheme is exact too — also at
    // widths that do not divide the 16 angles and at one wider than them.
    let problem = Problem::tiny().with_scheme(ConcurrencyScheme::best());
    assert_eq!(problem.num_angles(), 16);
    assert_invariant_at(&problem, &[2, 3, 4, 8, 17]);
    // Under every strategy, and where every worker claims one angle and
    // none a second: 8 angles on 8 workers, and on more.
    let one_angle_each = problem.clone().with_phase_space(1, 2);
    assert_eq!(one_angle_each.num_angles(), 8);
    for strategy in STRATEGIES {
        assert_invariant_at(&problem.clone().with_strategy(strategy), &[3, 8]);
        assert_invariant_at(&one_angle_each.clone().with_strategy(strategy), &[3, 8, 9]);
    }
}

#[test]
fn rank_fluxes_and_halo_are_thread_count_invariant_and_pinned() {
    // 2 × 2 block-Jacobi ranks: the halo is fed from what each rank's
    // sweeps fold into its export buffer.  φ and the halo are the same
    // bits at every width.  The flux totals are the ones the commit that
    // still published from a stored ψ produced; the halo totals are that
    // commit's whole-cell halo summed over the face traces alone, in trace
    // order (recorded at 6836345, the last commit with whole cells).
    let pins = [
        (
            StrategyKind::SourceIteration,
            0x40619673c9e383a5u64,
            0x408bdcf37bb5e9fau64,
        ),
        (
            StrategyKind::DsaSourceIteration,
            0x4062518d4c12a703,
            0x408c1d39cefe44ae,
        ),
        (
            StrategyKind::SweepGmres,
            0x406302857b0aff33,
            0x408e3008182e4873,
        ),
    ];
    for (strategy, flux_total, halo_total) in pins {
        let ranks = |threads| {
            let problem = Problem::tiny()
                .with_scheme(ConcurrencyScheme::best())
                .with_strategy(strategy)
                .with_threads(threads);
            let mut solver = BlockJacobiSolver::new(&problem, Decomposition2D::new(2, 2)).unwrap();
            let outcome = solver.run().unwrap();
            let halo_total: f64 = OuterDriver::flux(&solver).1.iter().sum();
            let totals = [outcome.scalar_flux_total, halo_total].map(f64::to_bits);
            (flux_bits(&solver), totals)
        };
        let (reference, totals) = ranks(1);
        assert_eq!(
            totals.map(|bits| format!("{bits:#x}")),
            [flux_total, halo_total].map(|bits| format!("{bits:#x}")),
            "{strategy:?}: flux and halo totals at width 1"
        );
        for threads in [2, 3, 8] {
            assert!(
                ranks(threads).0 == reference,
                "{strategy:?}: φ or the halo diverged at {threads} threads vs 1"
            );
        }
    }
}

/// φ and ψ of a finished run, as bit patterns.
fn flux_bits(driver: &dyn OuterDriver) -> [Vec<u64>; 2] {
    let (phi, psi) = driver.flux();
    [phi, psi].map(|flux| flux.iter().map(|v| v.to_bits()).collect())
}

#[test]
fn angle_threaded_scheme_matches_the_collapsed_scheme_to_the_bit() {
    // Same storage order, same per-entry addition order: the parallel
    // axis moves no bit — on one domain, and on 2 × 2 block-Jacobi ranks
    // that read a halo and, under GMRES, sweep with `homogeneous` on.
    let collapsed: ConcurrencyScheme = "angle/element*/group*".parse().unwrap();
    let single = |scheme| {
        let problem = Problem::tiny().with_scheme(scheme).with_threads(2);
        let mut solver = TransportSolver::new(&problem).unwrap();
        solver.run().unwrap();
        flux_bits(&solver)
    };
    assert_eq!(single(ConcurrencyScheme::best()), single(collapsed));

    let ranks = |scheme| {
        let problem = Problem::tiny()
            .with_scheme(scheme)
            .with_strategy(StrategyKind::SweepGmres)
            .with_threads(2);
        let mut solver = BlockJacobiSolver::new(&problem, Decomposition2D::new(2, 2)).unwrap();
        solver.run().unwrap();
        flux_bits(&solver)
    };
    assert_eq!(ranks(ConcurrencyScheme::best()), ranks(collapsed));
}

#[test]
fn deterministic_metrics_are_thread_count_invariant_at_1_2_and_8() {
    // The telemetry contract of PR 6: every metric in the deterministic
    // half of `RunMetrics` — sweeps, cells swept, iteration counters,
    // phase-span counts, the cells-per-sweep histogram — is bit-for-bit
    // identical at widths 1, 2 and 8 for each iteration strategy, while
    // the wall-clock half is free to differ and is stripped before the
    // comparison.
    if let Some(width) = forced_width() {
        eprintln!("RAYON_NUM_THREADS={width} forces every team width; cross-width check skipped");
        return;
    }
    for strategy in STRATEGIES {
        let problem = Problem::tiny().with_strategy(strategy);
        let reference = run_at(&problem, 1).outcome.metrics.deterministic();
        assert!(reference.sweeps > 0, "{strategy:?} recorded no sweeps");
        assert!(
            reference.cells_swept > 0,
            "{strategy:?} recorded no swept cells"
        );
        for threads in [2usize, 8] {
            let run = run_at(&problem, threads).outcome.metrics.deterministic();
            assert_eq!(
                reference, run,
                "deterministic metrics diverged for {strategy:?} at {threads} threads vs 1"
            );
        }
    }
}

#[test]
fn metrics_observer_stream_matches_the_attached_snapshot() {
    // A caller-side `RunMetrics` fed through `run_observed` sees the
    // identical event stream that builds the outcome's attached
    // snapshot, so the two must agree exactly — including wall-clock
    // fields, because both views time the same single run.
    let problem = Problem::tiny().with_strategy(StrategyKind::DsaSourceIteration);
    let mut solver = TransportSolver::new(&problem).unwrap();
    let mut streamed = RunMetrics::default();
    let outcome = solver.run_observed(&mut streamed).unwrap();
    // Kernel-section timing arrives via the outcome, not the event
    // stream, so it is the one pair the observer cannot see.
    streamed.kernel_assemble_seconds = outcome.metrics.kernel_assemble_seconds;
    streamed.kernel_solve_seconds = outcome.metrics.kernel_solve_seconds;
    assert_eq!(streamed, outcome.metrics);
}

#[test]
fn rerunning_at_the_same_width_is_bitwise_stable() {
    // Two runs at the same nontrivial width are identical — the suite's
    // baseline sanity check that nothing racy leaks into the outputs.
    let problem = Problem::quickstart().with_strategy(StrategyKind::SweepGmres);
    let a = run_at(&problem, 4);
    let b = run_at(&problem, 4);
    assert_eq!(non_timing_fields(&a.outcome), non_timing_fields(&b.outcome));
    assert_eq!(a.scalar_flux, b.scalar_flux);
    assert_eq!(a.angular_flux, b.angular_flux);
}
