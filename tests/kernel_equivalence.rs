//! Kernel-equivalence suite: the acceptance tests for the PR-9 kernel
//! engine (`unsnap_core::kernel::KernelEngine`).
//!
//! Property-based over random small problems, this suite pins the three
//! contracts the engine documents:
//!
//! * **Blocked `f64` is the reference physics, bit for bit.**  The
//!   SoA cache-blocked kernel caches direction-dependent geometry tiles
//!   and replays the reference operation sequence, so every non-timing
//!   outcome field and the full scalar/angular flux state must be
//!   bitwise identical — across thread widths 1/2/8 and through *both*
//!   solve paths (the single-domain [`TransportSolver`] and the
//!   distributed [`BlockJacobiSolver`]).
//! * **Groups solved in lockstep are the per-group task, bit for bit.**
//!   Order-1 elements solve their groups in runs of 16 and 4, one group
//!   per SIMD lane, and the remainder one by one; a problem that asks for
//!   Table II's per-task timing solves every group on its own.  The two
//!   must agree in every flux bit and every non-timing outcome field for
//!   every way a group count splits into runs.
//! * **Mixed precision is a bounded trade, not a different answer.**
//!   `f32` local solves inside `f64` outers must still converge, land
//!   within the documented relative flux tolerance of the full-`f64`
//!   solve, and spend at most `2 × reference + 4` sweeps — single
//!   precision may slow the tail of convergence but must not change
//!   its character.
//!
//! Case counts are deliberately small (every case is a full transport
//! solve); `reproduce precision` (`unsnap-bench`) re-asserts the
//! mixed-precision contract on a larger diffusive problem.

use proptest::prelude::*;
use unsnap::prelude::*;

/// Documented accuracy contract of the mixed-precision mode, mirrored
/// from `reproduce precision`: relative drift of the converged
/// scalar-flux total against the full-`f64` solve.
const MIXED_FLUX_TOLERANCE: f64 = 1e-5;

/// Documented iteration contract of the mixed-precision mode.
fn mixed_sweep_budget(reference_sweeps: usize) -> usize {
    2 * reference_sweeps + 4
}

/// Everything a `SolveOutcome` of either driver reports except wall-clock timing (the
/// `tests/parallel_determinism.rs` normalisation).
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
}

fn run_single_domain(problem: &Problem) -> Run {
    let mut solver = TransportSolver::new(problem).unwrap();
    solver.keep_angular_flux();
    let outcome = solver.run().unwrap();
    let angular_flux = solver.angular_flux().expect("asked to be kept");
    Run {
        outcome,
        scalar_flux: solver.scalar_flux().as_slice().to_vec(),
        angular_flux: angular_flux.as_slice().to_vec(),
    }
}

/// Under the CI matrix `RAYON_NUM_THREADS` forces *every* pool to one
/// width; kernel-vs-kernel comparisons stay valid (both runs get the
/// forced width), but sweeping widths would compare a width against
/// itself, so collapse the width list to the nominal one.
fn widths() -> Vec<usize> {
    match std::env::var("RAYON_NUM_THREADS") {
        Ok(v) if !v.trim().is_empty() => vec![1],
        _ => vec![1, 2, 3, 8],
    }
}

fn bits(flux: &[f64]) -> Vec<u64> {
    flux.iter().map(|x| x.to_bits()).collect()
}

/// Random small-but-representative problems: every mesh shape, element
/// order, group count, angle count, scattering strength and iteration
/// strategy the hot path branches on.  Tolerance 0 with a fixed
/// iteration budget keeps the f64 comparisons exact *and* cheap — the
/// bitwise contract holds converged or not.
fn small_problem() -> impl Strategy<Value = Problem> {
    (
        (2usize..=4, 2usize..=3, 2usize..=3),
        (1usize..=2, 1usize..=2, 1usize..=2),
        0.3f64..0.9,
        prop_oneof![
            Just(StrategyKind::SourceIteration),
            Just(StrategyKind::DsaSourceIteration),
        ],
    )
        .prop_map(
            |((nx, ny, nz), (order, groups, angles), scattering, strategy)| {
                let mut p = Problem::tiny().with_strategy(strategy);
                p.nx = nx;
                p.ny = ny;
                p.nz = nz;
                p.element_order = order;
                p.num_groups = groups;
                p.angles_per_octant = angles;
                p.scattering_ratio = Some(scattering);
                p.inner_iterations = 3;
                p.outer_iterations = 1;
                p.convergence_tolerance = 0.0;
                p
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 1, single-domain path: the blocked f64 kernel is
    /// bit-for-bit the reference kernel at every thread width.
    #[test]
    fn blocked_f64_matches_reference_bitwise_in_single_domain_solves(
        problem in small_problem(),
    ) {
        let reference = run_single_domain(&problem.clone().with_threads(1));
        for threads in widths() {
            let blocked = run_single_domain(
                &problem
                    .clone()
                    .with_kernel(KernelKind::Blocked)
                    .with_threads(threads),
            );
            prop_assert_eq!(
                non_timing_fields(&blocked.outcome),
                non_timing_fields(&reference.outcome),
                "outcome diverged at {} threads for {:?}/{:?}",
                threads,
                problem.strategy,
                (problem.nx, problem.ny, problem.nz)
            );
            prop_assert_eq!(
                bits(&blocked.scalar_flux),
                bits(&reference.scalar_flux),
                "scalar flux drifted at {} threads",
                threads
            );
            prop_assert_eq!(
                bits(&blocked.angular_flux),
                bits(&reference.angular_flux),
                "angular flux drifted at {} threads",
                threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 1, distributed path: the blocked f64 kernel is
    /// bit-for-bit the reference kernel through the block-Jacobi
    /// driver, at every rank grid and thread width.
    #[test]
    fn blocked_f64_matches_reference_bitwise_in_block_jacobi_solves(
        problem in small_problem(),
        px in 1usize..=2,
        py in 1usize..=2,
    ) {
        prop_assume!(px <= problem.nx && py <= problem.ny);
        let decomposition = Decomposition2D::new(px, py);
        let mut reference =
            BlockJacobiSolver::new(&problem.clone().with_threads(1), decomposition).unwrap();
        let reference_outcome = reference.run().unwrap();
        for threads in widths() {
            let blocked_problem = problem
                .clone()
                .with_kernel(KernelKind::Blocked)
                .with_threads(threads);
            let mut blocked =
                BlockJacobiSolver::new(&blocked_problem, decomposition).unwrap();
            let blocked_outcome = blocked.run().unwrap();
            prop_assert_eq!(
                non_timing_fields(&blocked_outcome),
                non_timing_fields(&reference_outcome),
                "jacobi outcome diverged at {}x{} ranks, {} threads",
                px,
                py,
                threads
            );
            prop_assert_eq!(
                bits(blocked.scalar_flux().as_slice()),
                bits(reference.scalar_flux().as_slice()),
                "jacobi scalar flux drifted at {}x{} ranks, {} threads",
                px,
                py,
                threads
            );
        }
    }
}

/// Contract 2: the default solve of an order-1 problem — groups in
/// lockstep runs — is the solve that times every task, hence solves every
/// group on its own.  Group counts cover every split: remainder only
/// (1, 3), one run (4, 16), 4 + 1, 4 + 4 + 4, 16 + 4 + 1.
#[test]
fn lockstep_groups_match_the_per_group_task_bitwise() {
    for (num_groups, strategy) in [
        (1, StrategyKind::SourceIteration),
        (3, StrategyKind::SweepGmres),
        (4, StrategyKind::DsaSourceIteration),
        (5, StrategyKind::SweepGmres),
        (12, StrategyKind::SourceIteration),
        (16, StrategyKind::SweepGmres),
        (21, StrategyKind::SourceIteration),
    ] {
        for precompute in [true, false] {
            let mut problem = Problem::tiny()
                .with_scheme(ConcurrencyScheme::best())
                .with_strategy(strategy)
                .with_scattering_ratio(0.6)
                .with_precomputed_integrals(precompute);
            (problem.nx, problem.ny, problem.nz) = (3, 2, 2);
            problem.angles_per_octant = 1;
            problem.num_groups = num_groups;
            // A prescribed inflow: boundary faces add to the right-hand
            // side (and the Krylov strategies' homogeneous sweeps drop it).
            problem.boundaries = unsnap::mesh::boundary::DomainBoundaries::uniform_inflow(0.3);
            let what = format!("{num_groups} groups, {strategy:?}, precompute {precompute}");

            let per_group = run_single_domain(&problem.clone().with_solve_timing(true));
            for threads in widths() {
                let lockstep = run_single_domain(&problem.clone().with_threads(threads));
                assert_eq!(
                    non_timing_fields(&lockstep.outcome),
                    non_timing_fields(&per_group.outcome),
                    "{what}: outcome at {threads} threads"
                );
                assert_eq!(
                    bits(&lockstep.scalar_flux),
                    bits(&per_group.scalar_flux),
                    "{what}: scalar flux at {threads} threads"
                );
                assert_eq!(
                    bits(&lockstep.angular_flux),
                    bits(&per_group.angular_flux),
                    "{what}: angular flux at {threads} threads"
                );
            }

            // Ranks read their neighbours' ψ from the halo — a run of
            // groups at a time on the lockstep route.
            let decomposition = Decomposition2D::new(2, 1);
            let timed = problem.clone().with_solve_timing(true);
            let mut per_group = BlockJacobiSolver::new(&timed, decomposition).unwrap();
            let per_group_outcome = per_group.run().unwrap();
            for threads in widths() {
                let mut lockstep =
                    BlockJacobiSolver::new(&problem.clone().with_threads(threads), decomposition)
                        .unwrap();
                let lockstep_outcome = lockstep.run().unwrap();
                assert_eq!(
                    non_timing_fields(&lockstep_outcome),
                    non_timing_fields(&per_group_outcome),
                    "{what}: jacobi outcome at {threads} threads"
                );
                assert_eq!(
                    bits(lockstep.scalar_flux().as_slice()),
                    bits(per_group.scalar_flux().as_slice()),
                    "{what}: jacobi scalar flux at {threads} threads"
                );
            }
        }
    }
}

/// The bits of an order-3 solve, recorded at PR 24 before the 64 × 64
/// elimination was rescheduled (PR 25): `scalar_flux_total`, `_min`,
/// `_max`, then the convergence history.  The goldens stop at order 2
/// and `BENCH_*.json` records counters only, so this is the one
/// committed artefact that pins what `eliminate_fixed::<64>` computes.
const ORDER_THREE_BITS: [(StrategyKind, [u64; 3], &[u64]); 2] = [
    (
        StrategyKind::SourceIteration,
        [0x409ec5a48bdd52b7, 0x3fbe08cdfecfdfa4, 0x3fe342c9997f386b],
        &[0x425af1dcf5ab7248, 0x3fcfc91a40e29e83, 0x3fa77c2978a8fc4d],
    ),
    (
        StrategyKind::DsaSourceIteration,
        [0x409f0e24189a6e12, 0x3fbe4e5a0e06a5cc, 0x3fe377e120b1d7cb],
        &[0x42603f6649baff9a, 0x3fd00b1fd54e37bb, 0x3f8645412e70b85b],
    ),
];

/// `Problem::tiny()` (27 twisted cells, 2 angles per octant) at order 3
/// with 3 groups: every local solve is a 64 × 64 elimination.
#[test]
fn order_three_solves_keep_their_bits() {
    for (strategy, flux, history) in ORDER_THREE_BITS {
        let mut problem = Problem::tiny()
            .with_strategy(strategy)
            .with_scattering_ratio(0.6);
        problem.element_order = 3;
        problem.num_groups = 3;
        problem.inner_iterations = 3;
        let o = TransportSolver::new(&problem).unwrap().run().unwrap();
        let found = [o.scalar_flux_total, o.scalar_flux_min, o.scalar_flux_max].map(f64::to_bits);
        assert_eq!(
            (found, bits(&o.convergence_history)),
            (flux, history.to_vec()),
            "{strategy:?}: total/min/max {:?}, history {:?}",
            [o.scalar_flux_total, o.scalar_flux_min, o.scalar_flux_max],
            o.convergence_history
        );
    }
}

/// Converging variant of [`small_problem`]: a real tolerance and a
/// generous budget, so the mixed-precision iteration contract has a
/// converged reference to be measured against.
fn converging_problem() -> impl Strategy<Value = Problem> {
    small_problem().prop_map(|mut p| {
        p.convergence_tolerance = 1e-5;
        p.inner_iterations = 400;
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 3: mixed precision converges to the same physics within
    /// the documented tolerance and sweep budget, under both kernels.
    #[test]
    fn mixed_precision_stays_within_tolerance_with_bounded_extra_sweeps(
        problem in converging_problem(),
        kernel in prop_oneof![Just(KernelKind::Reference), Just(KernelKind::Blocked)],
    ) {
        let reference = run_single_domain(&problem);
        prop_assert!(
            reference.outcome.converged,
            "the f64 reference must converge for the comparison to mean anything"
        );
        let mixed = run_single_domain(
            &problem
                .clone()
                .with_kernel(kernel)
                .with_precision(Precision::Mixed),
        );
        prop_assert!(
            mixed.outcome.converged,
            "mixed-precision solve failed to converge ({:?})",
            kernel
        );
        let drift = (mixed.outcome.scalar_flux_total - reference.outcome.scalar_flux_total).abs()
            / reference.outcome.scalar_flux_total.abs().max(1e-300);
        prop_assert!(
            drift <= MIXED_FLUX_TOLERANCE,
            "flux drift {:.3e} exceeds {:.0e} ({:?})",
            drift,
            MIXED_FLUX_TOLERANCE,
            kernel
        );
        prop_assert!(
            mixed.outcome.sweep_count <= mixed_sweep_budget(reference.outcome.sweep_count),
            "{} sweeps exceeds the budget of {} ({:?})",
            mixed.outcome.sweep_count,
            mixed_sweep_budget(reference.outcome.sweep_count),
            kernel
        );
        // Pointwise the solutions track each other too: every node's
        // flux agrees to within the tolerance of the problem's flux
        // scale (single precision cannot resolve more).
        let scale = reference.outcome.scalar_flux_max.abs().max(1e-300);
        let max_node_diff = reference
            .scalar_flux
            .iter()
            .zip(mixed.scalar_flux.iter())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        prop_assert!(
            max_node_diff / scale <= 1e-4,
            "pointwise flux drift {:.3e} (relative to max flux) exceeds 1e-4",
            max_node_diff / scale
        );
    }
}

#[test]
fn mixed_precision_runs_the_same_sweep_structure_at_a_fixed_budget() {
    // With tolerance 0 and a fixed iteration budget the sweep *count*
    // is precision-independent (precision changes values, never the
    // control flow of a budget-driven run), and the fluxes stay within
    // single-precision resolution of the f64 physics after two sweeps.
    for strategy in [
        StrategyKind::SourceIteration,
        StrategyKind::DsaSourceIteration,
    ] {
        let problem = Problem::tiny().with_strategy(strategy);
        let reference = run_single_domain(&problem);
        let mixed = run_single_domain(&problem.clone().with_precision(Precision::Mixed));
        assert_eq!(
            mixed.outcome.sweep_count, reference.outcome.sweep_count,
            "{strategy:?}: a budget-driven run must sweep identically in either precision"
        );
        assert_eq!(
            mixed.outcome.kernel_invocations, reference.outcome.kernel_invocations,
            "{strategy:?}: kernel invocation counts diverged"
        );
        let scale = reference.outcome.scalar_flux_max.abs().max(1e-300);
        for (i, (a, b)) in reference
            .scalar_flux
            .iter()
            .zip(mixed.scalar_flux.iter())
            .enumerate()
        {
            assert!(
                (a - b).abs() / scale <= 1e-5,
                "{strategy:?}: node {i} drifted by {:.3e} of the flux scale",
                (a - b).abs() / scale
            );
        }
    }
}
