//! Checks against the physics rather than against our own reference
//! (ROADMAP item 2): the answers here are known in closed form, so a
//! wrong cross-section index, face normal or quadrature weight fails
//! them even when every golden, re-recorded, would still pass.

use unsnap::core::data::CrossSections;
use unsnap::mesh::boundary::DomainBoundaries;
use unsnap::prelude::*;

/// One group, unit source, every boundary face lit with ψ∞: the domain
/// is a window into an infinite medium.
fn infinite_medium(strategy: StrategyKind, twist: f64) -> (Problem, f64) {
    let xs = CrossSections::generate(1, 1);
    let psi_inf = 1.0 / (xs.total(0, 0) - xs.scatter(0, 0, 0));
    let problem = Problem {
        nx: 4,
        ny: 4,
        nz: 2,
        twist,
        num_groups: 1,
        inner_iterations: 200,
        outer_iterations: 1,
        convergence_tolerance: 1e-10,
        strategy,
        boundaries: DomainBoundaries::uniform_inflow(psi_inf),
        ..Problem::tiny()
    };
    (problem, psi_inf)
}

#[test]
fn every_strategy_and_driver_reaches_the_infinite_medium_limit() {
    // φ = q / (σ_t − σ_s) at every node, whatever iterates towards it
    // and however the mesh is cut or twisted.
    for strategy in [
        StrategyKind::SourceIteration,
        StrategyKind::DsaSourceIteration,
        StrategyKind::SweepGmres,
    ] {
        for twist in [0.0, 0.2] {
            let (problem, psi_inf) = infinite_medium(strategy, twist);
            let single = TransportSolver::new(&problem).unwrap().run().unwrap();
            let mut outcomes = vec![("one domain".to_string(), single)];
            for (npx, npy) in [(2, 1), (2, 2)] {
                let ranks = Decomposition2D::new(npx, npy);
                let outcome = BlockJacobiSolver::new(&problem, ranks)
                    .unwrap()
                    .run()
                    .unwrap();
                outcomes.push((format!("{npx} x {npy} ranks"), outcome));
            }
            for (driver, outcome) in outcomes {
                let tag = format!("{strategy:?}, twist {twist}, {driver}");
                assert!(
                    outcome.converged,
                    "{tag}: history {:?}",
                    outcome.convergence_history
                );
                for (which, flux) in [
                    ("max", outcome.scalar_flux_max),
                    ("min", outcome.scalar_flux_min),
                ] {
                    assert!(
                        (flux - psi_inf).abs() < 1e-9,
                        "{tag}: φ_{which} = {flux} vs ψ∞ = {psi_inf}"
                    );
                }
            }
        }
    }
}
