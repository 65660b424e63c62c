//! Stress tests for the block-Jacobi driver under the real worker pool:
//! repeated and randomized-partition solves with the ranks on several
//! worker threads, asserting (a) nothing deadlocks — the tests finish —
//! and (b) the converged physics is invariant across rank counts and
//! thread counts.

use proptest::prelude::*;

use unsnap_comm::jacobi::BlockJacobiSolver;
use unsnap_core::problem::Problem;
use unsnap_mesh::Decomposition2D;

fn base_problem() -> Problem {
    let mut p = Problem::tiny();
    p.nx = 4;
    p.ny = 4;
    p.nz = 2;
    p.num_groups = 1;
    p.angles_per_octant = 2;
    p.outer_iterations = 1;
    p
}

#[test]
fn repeated_block_jacobi_runs_do_not_deadlock() {
    // Back-to-back multi-rank solves on a freshly built 4-thread pool
    // each time: worker spawn/join must never wedge.
    let mut p = base_problem();
    p.inner_iterations = 3;
    p.num_threads = Some(4);
    for _ in 0..5 {
        let mut solver = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 2)).unwrap();
        let outcome = solver.run().unwrap();
        assert_eq!(outcome.inner_iterations, 3);
        assert!(outcome.scalar_flux_total > 0.0);
    }
}

#[test]
fn rank_parallel_sweeps_match_the_sequential_thread_count() {
    // The same decomposition must produce bit-for-bit identical fluxes
    // whether the ranks run on 1 worker or 4.
    let mut p = base_problem();
    p.inner_iterations = 4;
    for decomp in [Decomposition2D::new(2, 1), Decomposition2D::new(2, 2)] {
        let mut outcomes = Vec::new();
        for threads in [1usize, 4] {
            let mut q = p.clone();
            q.num_threads = Some(threads);
            let mut solver = BlockJacobiSolver::new(&q, decomp).unwrap();
            let outcome = solver.run().unwrap();
            outcomes.push((
                outcome.convergence_history.clone(),
                outcome.scalar_flux_total,
                solver.scalar_flux().as_slice().to_vec(),
            ));
        }
        assert_eq!(outcomes[0].0, outcomes[1].0, "histories diverged");
        assert_eq!(outcomes[0].1.to_bits(), outcomes[1].1.to_bits());
        assert_eq!(outcomes[0].2, outcomes[1].2, "flux state diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn converged_physics_is_invariant_across_random_partitions(
        px in 1usize..=4,
        py in 1usize..=4,
        threads in 1usize..=4,
    ) {
        // Any decomposition that fits the 4x4 x-y extent must converge to
        // the same answer as the serial reference, at any pool width.
        prop_assume!(4 % px == 0 && 4 % py == 0);
        let mut p = base_problem();
        p.inner_iterations = 80;
        p.convergence_tolerance = 1e-9;
        p.num_threads = Some(1);

        let mut reference = BlockJacobiSolver::new(&p, Decomposition2D::serial()).unwrap();
        let expected = reference.run().unwrap().scalar_flux_total;

        let mut q = p.clone();
        q.num_threads = Some(threads);
        let mut solver = BlockJacobiSolver::new(&q, Decomposition2D::new(px, py)).unwrap();
        let outcome = solver.run().unwrap();
        prop_assert!(outcome.converged, "{px}x{py} ranks did not converge");
        let rel = (outcome.scalar_flux_total - expected).abs() / expected;
        prop_assert!(
            rel < 1e-6,
            "{px}x{py} ranks on {threads} threads: rel error {rel}"
        );
    }
}
