//! Acceptance tests for the DSA subsystem (`unsnap-accel` + the
//! `DSA-SI` strategy).
//!
//! Pinned here:
//!
//! * the ISSUE 5 acceptance criterion — on the quickstart problem
//!   scaled into the diffusive regime at c = 0.99, `DsaSourceIteration`
//!   converges to the same tolerance with **≥ 4×** fewer transport
//!   sweeps than `SourceIteration` (the same scenario `ablation_dsa`
//!   reports);
//! * the spectral property: DSA-SI never needs more sweeps than SI for
//!   any scattering ratio c ≥ 0.5;
//! * a property test: DSA-SI converges to the plain-SI flux (within the
//!   iterate-change stopping-criterion bound) on random small problems;
//! * observer/outcome consistency: the streamed DSA CG residuals equal
//!   the outcome's `accel_residual_history` entry for entry.

mod support;

use proptest::prelude::*;

use unsnap::prelude::*;

/// The quickstart phase space on a diffusive domain: 6³ cells over
/// 12 mean free paths, one energy group, scattering ratio `c`.  This is
/// the regime the DSA story is about — source iteration contracts at
/// `≈ c` per sweep and crawls as `c → 1`.
fn diffusive_quickstart(c: f64) -> Problem {
    let mut p = Problem::quickstart();
    p.num_groups = 1;
    p.lx = 12.0;
    p.ly = 12.0;
    p.lz = 12.0;
    p.scattering_ratio = Some(c);
    p.inner_iterations = 4000;
    p.outer_iterations = 1;
    p.convergence_tolerance = 1e-6;
    p
}

fn run(p: &Problem) -> SolveOutcome {
    let mut solver = TransportSolver::new(p).unwrap();
    solver.run().unwrap()
}

#[test]
fn acceptance_dsa_si_needs_four_times_fewer_sweeps_at_c_099() {
    let p = diffusive_quickstart(0.99);
    let si = run(&p.clone().with_strategy(StrategyKind::SourceIteration));
    let dsa = run(&p.clone().with_strategy(StrategyKind::DsaSourceIteration));

    assert!(si.converged, "SI must converge within the budget");
    assert!(dsa.converged, "DSA-SI must converge within the budget");
    assert!(
        dsa.sweep_count * 4 <= si.sweep_count,
        "acceptance: DSA-SI took {} sweeps, SI took {} — less than 4x",
        dsa.sweep_count,
        si.sweep_count
    );
    // The low-order work actually ran, and is accounted separately from
    // the sweeps.
    assert!(dsa.accel_cg_iterations > 0);
    assert_eq!(dsa.sweep_count, dsa.inner_iterations);

    // Same fixed point: SI stops on the iterate *change*, so its true
    // error can be tol / (1 − c) — the agreement bound carries that
    // factor.
    let bound = 1e-6 / (1.0 - 0.99) * si.scalar_flux_total.abs();
    assert!(
        (si.scalar_flux_total - dsa.scalar_flux_total).abs() < bound,
        "SI {} vs DSA-SI {}",
        si.scalar_flux_total,
        dsa.scalar_flux_total
    );
}

#[test]
fn dsa_si_never_needs_more_sweeps_than_si_for_c_at_least_half() {
    // The spectral claim behind the subsystem: the DSA iteration's
    // spectral radius is below SI's whenever scattering dominates.
    // Sweep counts are the observable (each DSA-SI inner is exactly one
    // sweep, like SI).
    for c in [0.5, 0.7, 0.9, 0.99] {
        let mut p = Problem::tiny();
        p.num_groups = 1;
        p.nx = 4;
        p.ny = 4;
        p.nz = 4;
        p.lx = 8.0;
        p.ly = 8.0;
        p.lz = 8.0;
        p.scattering_ratio = Some(c);
        p.convergence_tolerance = 1e-8;
        p.inner_iterations = 2000;
        p.outer_iterations = 1;

        let si = run(&p.clone().with_strategy(StrategyKind::SourceIteration));
        let dsa = run(&p.clone().with_strategy(StrategyKind::DsaSourceIteration));
        assert!(si.converged && dsa.converged, "c = {c}");
        assert!(
            dsa.sweep_count <= si.sweep_count,
            "c = {c}: DSA-SI took {} sweeps, SI took {}",
            dsa.sweep_count,
            si.sweep_count
        );
    }
}

#[test]
fn streamed_dsa_residuals_match_the_outcome_history() {
    let p = diffusive_quickstart(0.9).with_strategy(StrategyKind::DsaSourceIteration);
    let mut solver = TransportSolver::new(&p).unwrap();
    let mut log = EventLog::default();
    let outcome = solver.run_observed(&mut log).unwrap();
    assert!(outcome.converged);
    assert!(!outcome.accel_residual_history.is_empty());
    let driver = Lane::Driver;
    assert_eq!(
        support::accel_residuals(&log, driver),
        outcome.accel_residual_history,
        "streamed DSA residuals must reconstruct the outcome history"
    );
    assert_eq!(
        support::inner_changes(&log, driver),
        outcome.convergence_history
    );
    let counted: Vec<usize> = (1..=outcome.sweep_count).collect();
    assert_eq!(support::sweeps(&log, driver), counted);
}

/// Random small scenario: mesh shape, domain extent, groups and a
/// scattering ratio in [0.5, 0.98].
type Scenario = ((usize, usize, usize), (f64, usize, f64));

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (2usize..=4, 2usize..=4, 1usize..=3),
        (1.0f64..10.0, 1usize..=2, 0.5f64..0.98),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dsa_si_flux_matches_plain_si_on_random_small_problems(
        ((nx, ny, nz), (extent, groups, c)) in scenario()
    ) {
        let mut p = Problem::tiny();
        p.nx = nx;
        p.ny = ny;
        p.nz = nz;
        p.lx = extent;
        p.ly = extent;
        p.lz = extent * nz as f64 / nx as f64;
        p.num_groups = groups;
        p.scattering_ratio = Some(c);
        p.convergence_tolerance = 1e-8;
        p.inner_iterations = 3000;
        p.outer_iterations = 1;

        let si = run(&p.clone().with_strategy(StrategyKind::SourceIteration));
        let dsa = run(&p.clone().with_strategy(StrategyKind::DsaSourceIteration));
        prop_assert!(si.converged, "SI unconverged on {nx}x{ny}x{nz} c={c}");
        prop_assert!(dsa.converged, "DSA-SI unconverged on {nx}x{ny}x{nz} c={c}");
        // Both stop on the iterate change; the true errors are bounded
        // by tol / (1 − c) each.
        let bound = 4.0 * 1e-8 / (1.0 - c) * si.scalar_flux_total.abs();
        prop_assert!(
            (si.scalar_flux_total - dsa.scalar_flux_total).abs() < bound,
            "flux mismatch on {nx}x{ny}x{nz} extent {extent:.2} c {c:.3}: \
             SI {} vs DSA-SI {}",
            si.scalar_flux_total,
            dsa.scalar_flux_total
        );
        prop_assert!(
            dsa.sweep_count <= si.sweep_count + 2,
            "DSA-SI slower on {nx}x{ny}x{nz} c={c}: {} vs {}",
            dsa.sweep_count,
            si.sweep_count
        );
    }
}
