//! Acceptance tests for the observable solve API.
//!
//! Observing a solve must be pure re-plumbing: a
//! `TransportSolver::run_observed` run reproduces the silent
//! `TransportSolver::run` outcome **bit for bit** (flux totals, sweep
//! counts, residual histories) for both iteration strategies on both
//! small presets, and the event stream an [`EventLog`] records
//! reconstructs the outcome's history vectors exactly.

mod support;

use support::{krylov_residuals, sweeps};
use unsnap::prelude::*;

/// Everything a `SolveOutcome` reports except wall-clock timing, which
/// legitimately differs between two runs.  The attached [`RunMetrics`]
/// keeps its deterministic half — the equivalence below therefore also
/// pins that observed and direct runs count the same sweeps, cells and
/// phase spans.
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

fn assert_observing_changes_nothing(problem: &Problem) {
    // A silent solve, run as a black box.
    let mut solver = TransportSolver::new(problem).unwrap();
    let direct = solver.run().unwrap();

    // The same solve streaming into an event log.
    let mut observed_solver = TransportSolver::new(problem).unwrap();
    let mut log = EventLog::default();
    let observed = observed_solver.run_observed(&mut log).unwrap();

    // Bit-for-bit equivalence of every non-timing field.
    assert_eq!(
        non_timing_fields(&direct),
        non_timing_fields(&observed),
        "observed run diverged from silent run for {:?}/{:?}",
        problem.strategy,
        (problem.nx, problem.ny, problem.nz),
    );

    // The event stream must reconstruct the outcome's histories exactly.
    let driver = Lane::Driver;
    let counted: Vec<usize> = (1..=observed.sweep_count).collect();
    assert_eq!(sweeps(&log, driver), counted);
    assert_eq!(
        support::inner_changes(&log, driver),
        observed.convergence_history
    );
    assert_eq!(
        krylov_residuals(&log, driver),
        observed.krylov_residual_history
    );
    let ends = support::outer_ends(&log, driver);
    assert_eq!(support::outer_starts(&log, driver), ends.len());
    assert_eq!(ends.contains(&true), observed.converged);

    // And the flux state the two paths leave behind is identical.
    let a = solver.scalar_flux().as_slice();
    let b = observed_solver.scalar_flux().as_slice();
    assert_eq!(a, b, "scalar flux state diverged");
}

#[test]
fn session_reproduces_source_iteration_on_tiny() {
    assert_observing_changes_nothing(&Problem::tiny());
}

#[test]
fn session_reproduces_source_iteration_on_quickstart() {
    assert_observing_changes_nothing(&Problem::quickstart());
}

#[test]
fn session_reproduces_sweep_gmres_on_tiny() {
    assert_observing_changes_nothing(&Problem::tiny().with_strategy(StrategyKind::SweepGmres));
}

#[test]
fn session_reproduces_sweep_gmres_on_quickstart() {
    assert_observing_changes_nothing(
        &Problem::quickstart().with_strategy(StrategyKind::SweepGmres),
    );
}

#[test]
fn builder_presets_feed_sessions_without_behaviour_change() {
    // A preset solved twice by fresh solvers gives the same answer.
    let mut first = TransportSolver::new(&Problem::quickstart()).unwrap();
    let b = first.run().unwrap();
    let mut second = TransportSolver::new(&Problem::quickstart()).unwrap();
    let p = second.run().unwrap();
    assert_eq!(b.scalar_flux_total, p.scalar_flux_total);
    assert_eq!(b.sweep_count, p.sweep_count);
}

#[test]
fn observer_sees_krylov_residuals_only_under_gmres() {
    let mut log = EventLog::default();
    TransportSolver::new(&Problem::tiny())
        .unwrap()
        .run_observed(&mut log)
        .unwrap();
    assert!(krylov_residuals(&log, Lane::Driver).is_empty());
    assert!(!sweeps(&log, Lane::Driver).is_empty());

    log.clear();
    TransportSolver::new(&Problem::tiny().with_strategy(StrategyKind::SweepGmres))
        .unwrap()
        .run_observed(&mut log)
        .unwrap();
    assert!(!krylov_residuals(&log, Lane::Driver).is_empty());
}

#[test]
fn typed_errors_surface_from_every_layer() {
    // Problem validation.
    let err = match TransportSolver::new(&Problem {
        num_groups: 0,
        ..Problem::tiny()
    }) {
        Err(e) => e,
        Ok(_) => panic!("zero groups must be rejected"),
    };
    assert_eq!(err.invalid_field(), Some("num_groups"));

    // The same rules on every construction path: a hand-built problem
    // no preset, setter or wire document produced is refused by each
    // solver constructor, naming the field.
    let tiny = Problem::tiny;
    for (field, problem) in [
        ("scattering_ratio", tiny().with_scattering_ratio(2.0)),
        (
            "convergence_tolerance",
            Problem {
                convergence_tolerance: f64::NAN,
                ..tiny()
            },
        ),
        ("element_order", tiny().with_mesh(1 << 21).with_order(7)),
        ("nx", tiny().with_mesh(1 << 22)),
        (
            "lx",
            Problem {
                lx: f64::INFINITY,
                ..tiny()
            },
        ),
        (
            "twist",
            Problem {
                twist: f64::NAN,
                ..tiny()
            },
        ),
    ] {
        let from_solver = TransportSolver::new(&problem).err();
        let from_jacobi = BlockJacobiSolver::new(&problem, Decomposition2D::serial()).err();
        for err in [from_solver, from_jacobi] {
            let err = err.unwrap_or_else(|| panic!("{field}: {problem:?} must be rejected"));
            assert_eq!(err.invalid_field(), Some(field), "{err}");
        }
    }

    // Mesh decomposition (through the distributed solver).
    let err = match BlockJacobiSolver::new(&Problem::tiny(), Decomposition2D::new(64, 1)) {
        Err(e) => e,
        Ok(_) => panic!("too-coarse decomposition must be rejected"),
    };
    assert!(matches!(err, unsnap::core::error::Error::Mesh(_)));

    // Communication layer: a wire buffer shorter than a message header.
    let err = unsnap::comm::HaloMessage::unpack([0u8; 40]).unwrap_err();
    assert!(matches!(err, CommError::TruncatedMessage { bytes: 40, .. }));
    assert!(err.to_string().contains("too short"));
}
