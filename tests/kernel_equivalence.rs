//! Kernel-equivalence suite: the acceptance tests for the kernel engine
//! (`unsnap_core::kernel::KernelEngine`) as the sweeps run it.
//!
//! Property-based over random small problems, this suite pins the two
//! contracts the engine documents:
//!
//! * **The thread width moves no bit.**  The tiled kernel caches
//!   direction-dependent geometry tiles per worker and replays the
//!   reference operation sequence, so every non-timing outcome field and
//!   the full scalar/angular flux state must be bitwise identical across
//!   thread widths 1/2/3/8 and through *both* solve paths (the
//!   single-domain [`TransportSolver`] and the distributed
//!   [`BlockJacobiSolver`]).
//! * **Tasks solved in lockstep are the per-group task, bit for bit.**
//!   Order-1 sweeps cut a bucket's tasks into runs of 16 and 4 consecutive
//!   tasks, one task per SIMD lane, and the remainder one by one; a run
//!   may span several elements.  The MKL stand-in (`SolverKind::Mkl`)
//!   offers no lanes, so a problem that names it solves every task on its
//!   own, through the per-group assembly and an elimination of its own.
//!   The two must agree in every flux bit and every non-timing outcome
//!   field for every way a bucket's tasks split into runs, in both loop
//!   orders — and a problem that times its solves (Table II's split) must
//!   leave the bits of the untimed one: the clock picks no route.
//!
//! Case counts are deliberately small (every case is a full transport
//! solve).

use proptest::prelude::*;
use unsnap::prelude::*;

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

/// Under the CI matrix `RAYON_NUM_THREADS` forces *every* team to one
/// width; kernel-vs-kernel comparisons stay valid (both runs get the
/// forced width), but sweeping widths would compare a width against
/// itself, so collapse the width list to the nominal one.
fn widths() -> Vec<usize> {
    match unsnap::core::team::forced_width() {
        Some(_) => vec![1],
        None => vec![1, 2, 3, 8],
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

    /// Contract 1, single-domain path: every thread width leaves the bits
    /// of one thread.
    #[test]
    fn single_domain_solves_match_one_thread_bitwise(
        problem in small_problem(),
    ) {
        let reference = run_single_domain(&problem.clone().with_threads(1));
        for threads in widths() {
            let threaded = run_single_domain(&problem.clone().with_threads(threads));
            prop_assert_eq!(
                non_timing_fields(&threaded.outcome),
                non_timing_fields(&reference.outcome),
                "outcome diverged at {} threads for {:?}/{:?}",
                threads,
                problem.strategy,
                (problem.nx, problem.ny, problem.nz)
            );
            prop_assert_eq!(
                bits(&threaded.scalar_flux),
                bits(&reference.scalar_flux),
                "scalar flux drifted at {} threads",
                threads
            );
            prop_assert_eq!(
                bits(&threaded.angular_flux),
                bits(&reference.angular_flux),
                "angular flux drifted at {} threads",
                threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 1, distributed path: through the block-Jacobi driver, at
    /// every rank grid, every thread width leaves the bits of one thread.
    #[test]
    fn block_jacobi_solves_match_one_thread_bitwise(
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
            let threaded_problem = problem.clone().with_threads(threads);
            let mut threaded =
                BlockJacobiSolver::new(&threaded_problem, decomposition).unwrap();
            let threaded_outcome = threaded.run().unwrap();
            prop_assert_eq!(
                non_timing_fields(&threaded_outcome),
                non_timing_fields(&reference_outcome),
                "jacobi outcome diverged at {}x{} ranks, {} threads",
                px,
                py,
                threads
            );
            prop_assert_eq!(
                bits(threaded.scalar_flux().as_slice()),
                bits(reference.scalar_flux().as_slice()),
                "jacobi scalar flux drifted at {}x{} ranks, {} threads",
                px,
                py,
                threads
            );
        }
    }
}

/// Contract 2: the default solve of an order-1 problem — a bucket's tasks
/// in lockstep runs — is the solve of the same problem with the MKL
/// stand-in, which offers no lanes, hence solves every group on its own;
/// and the same problem timed (`with_solve_timing(true)`) leaves the
/// untimed bits.  On the 3 × 3 × 2 mesh the buckets hold 1 to 5
/// elements, so the group counts cut them every way: runs of 16 and of 4
/// that span elements — several elements' groups in `angle/element/group`
/// order (`best()`), one group of several elements and then the next in
/// `angle/group/element` order —, runs that start inside an element and
/// end inside another, and single tasks; and on a team that shares each
/// bucket's tasks (`angle/element*/group*`), whose shares start mid-run.
/// The two other schemes run at one and two threads: the default covers
/// the rest.
#[test]
fn lockstep_groups_match_the_per_group_task_bitwise() {
    let best = ConcurrencyScheme::best();
    let schemes = [
        (best, widths()),
        (
            ConcurrencyScheme::angle_threaded(LoopOrder::GroupThenElement),
            widths().into_iter().take(2).collect(),
        ),
        (
            "angle/element*/group*".parse().expect("a figure label"),
            widths().into_iter().take(2).collect(),
        ),
    ];
    for (num_groups, strategy) in [
        (1, StrategyKind::SourceIteration),
        (3, StrategyKind::SweepGmres),
        (4, StrategyKind::DsaSourceIteration),
        (5, StrategyKind::SweepGmres),
        (12, StrategyKind::SourceIteration),
        (16, StrategyKind::SweepGmres),
        (21, StrategyKind::SourceIteration),
    ] {
        for (scheme, widths) in &schemes {
            let mut problem = Problem::tiny()
                .with_scheme(*scheme)
                .with_strategy(strategy)
                .with_scattering_ratio(0.6);
            (problem.nx, problem.ny, problem.nz) = (3, 3, 2);
            problem.angles_per_octant = 1;
            problem.num_groups = num_groups;
            // A prescribed inflow: boundary faces add to the right-hand
            // side (and the Krylov strategies' homogeneous sweeps drop it).
            problem.boundaries = unsnap::mesh::boundary::DomainBoundaries::uniform_inflow(0.3);
            let what = format!("{num_groups} groups, {scheme}");
            let alone = Problem {
                solver: SolverKind::Mkl,
                ..problem.clone()
            };
            // The lockstep solve at every width, and the timed one: each
            // must be the per-group reference, hence the others.
            let runs = widths
                .iter()
                .map(|&threads| {
                    (
                        format!("{threads} threads"),
                        problem.clone().with_threads(threads),
                    )
                })
                .chain([("timed".to_string(), problem.clone().with_solve_timing(true))]);

            let per_group = run_single_domain(&alone);
            for (how, lockstep) in runs.clone() {
                let lockstep = run_single_domain(&lockstep);
                assert_eq!(
                    non_timing_fields(&lockstep.outcome),
                    non_timing_fields(&per_group.outcome),
                    "{what}: outcome, {how}"
                );
                assert_eq!(
                    bits(&lockstep.scalar_flux),
                    bits(&per_group.scalar_flux),
                    "{what}: scalar flux, {how}"
                );
                assert_eq!(
                    bits(&lockstep.angular_flux),
                    bits(&per_group.angular_flux),
                    "{what}: angular flux, {how}"
                );
            }

            // Ranks read their neighbours' ψ from the halo — a run of
            // groups at a time on the lockstep route.
            let decomposition = Decomposition2D::new(2, 1);
            let mut per_group = BlockJacobiSolver::new(&alone, decomposition).unwrap();
            let per_group_outcome = per_group.run().unwrap();
            for (how, lockstep) in runs {
                let mut lockstep = BlockJacobiSolver::new(&lockstep, decomposition).unwrap();
                let lockstep_outcome = lockstep.run().unwrap();
                assert_eq!(
                    non_timing_fields(&lockstep_outcome),
                    non_timing_fields(&per_group_outcome),
                    "{what}: jacobi outcome, {how}"
                );
                assert_eq!(
                    bits(lockstep.scalar_flux().as_slice()),
                    bits(per_group.scalar_flux().as_slice()),
                    "{what}: jacobi scalar flux, {how}"
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
