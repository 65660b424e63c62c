//! Acceptance tests for the distributed-Krylov path: strategy-dispatched
//! (SI / sweep-preconditioned GMRES) inner solves inside the
//! block-Jacobi multi-rank driver, with per-rank observer streaming.
//!
//! Pinned here:
//!
//! * rank-decomposed SweepGmres converges to the single-domain
//!   SweepGmres flux within the outer tolerance on the quickstart
//!   problem (the ISSUE 4 acceptance criterion);
//! * the per-rank observer streams (sweeps, Krylov residuals, inner
//!   iterates) are bit-for-bit identical at every thread count, because
//!   the driver buffers each rank's events and replays them in rank
//!   order;
//! * `RecordingObserver`'s per-rank event counts equal the per-rank
//!   counters of the block-Jacobi `SolveOutcome`, at 1 and 4 ranks, for both
//!   strategies (so streaming loses nothing relative to the summary).

use unsnap::prelude::*;

/// The quickstart problem, with the inner budget raised so the halo
/// iteration has room to converge (the preset's 4 inners are sized for
/// the single-domain demo) — everything else, including the 1e-6
/// tolerance, is the stock preset.  Both solvers under comparison use
/// this same problem.
fn quickstart_for_jacobi(strategy: StrategyKind) -> Problem {
    let mut p = Problem::quickstart();
    p.inner_iterations = 30;
    p.strategy = strategy;
    p
}

/// Under the CI matrix `RAYON_NUM_THREADS` forces every pool to one
/// width, so cross-width comparisons would compare a width against
/// itself; skip with a note in that case (the matrix replays the rest
/// of the suite at each width instead).
fn forced_width() -> Option<String> {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .filter(|v| !v.trim().is_empty())
}

/// Zero the wall-clock fields of a recording (recursively, so per-rank
/// records are covered) — timing legitimately differs between runs.
/// Phase-span *counts* stay: they are part of the deterministic stream.
fn without_timing(recorder: &RecordingObserver) -> RecordingObserver {
    let mut r = recorder.clone();
    r.sweep_seconds = 0.0;
    r.phase_seconds = vec![0.0; r.phase_seconds.len()];
    for rank in &mut r.rank_records {
        rank.sweep_seconds = 0.0;
        rank.phase_seconds = vec![0.0; rank.phase_seconds.len()];
    }
    r
}

#[test]
fn rank_decomposed_sweep_gmres_matches_single_domain_flux() {
    let problem = quickstart_for_jacobi(StrategyKind::SweepGmres);

    let mut single = TransportSolver::new(&problem).unwrap();
    let single_out = single.run().unwrap();
    assert!(single_out.converged, "single-domain GMRES must converge");

    let mut jacobi = BlockJacobiSolver::new(&problem, Decomposition2D::new(2, 1)).unwrap();
    let jacobi_out = jacobi.run().unwrap();
    assert!(
        jacobi_out.converged,
        "2-rank GMRES history: {:?}",
        jacobi_out.convergence_history
    );
    let strategy = jacobi_out.ranks.as_ref().unwrap().strategy;
    assert_eq!(strategy, StrategyKind::SweepGmres);
    assert!(jacobi_out.krylov_iterations > 0);

    // Block Jacobi changes the iteration path, not the fixed point: at a
    // shared pointwise tolerance of 1e-6 the two solutions agree to a
    // small multiple of it.
    let tol = problem.convergence_tolerance;
    let rel = (jacobi_out.scalar_flux_total - single_out.scalar_flux_total).abs()
        / single_out.scalar_flux_total.abs();
    assert!(
        rel < 20.0 * tol,
        "rank-decomposed GMRES flux off by {rel:.3e} (tolerance {tol:.0e})"
    );

    // Pointwise agreement of the full scalar flux, not just the total.
    let single_phi = single.scalar_flux().as_slice();
    let jacobi_phi = jacobi.scalar_flux().as_slice();
    let scale = single_phi.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let max_diff = single_phi
        .iter()
        .zip(jacobi_phi.iter())
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    assert!(
        max_diff < 100.0 * tol * scale,
        "pointwise flux diff {max_diff:.3e} vs scale {scale:.3e}"
    );
}

fn assert_per_rank_streams_thread_invariant(strategy: StrategyKind) {
    if let Some(width) = forced_width() {
        eprintln!("RAYON_NUM_THREADS={width} forces every pool width; cross-width check skipped");
        return;
    }
    // A 4-rank decomposition on a small scattering-dominated problem:
    // enough halo traffic and Krylov/DSA work that any interleaving
    // leak would scramble the streams.
    let mut p = Problem::tiny();
    p.nx = 4;
    p.ny = 4;
    p.nz = 2;
    p.num_groups = 1;
    p.angles_per_octant = 2;
    p.scattering_ratio = Some(0.9);
    p.inner_iterations = 40;
    p.outer_iterations = 1;
    p.convergence_tolerance = 1e-8;
    p.strategy = strategy;

    let mut reference: Option<(RecordingObserver, SolveOutcome, Vec<f64>)> = None;
    // 8 exceeds the rank count; the driver caps the pool at 4 ranks, and
    // the stream must stay identical through that cap too.
    for threads in [1usize, 2, 4, 8] {
        let mut problem = p.clone();
        problem.num_threads = Some(threads);
        let mut solver = BlockJacobiSolver::new(&problem, Decomposition2D::new(2, 2)).unwrap();
        let mut recorder = RecordingObserver::default();
        let outcome = solver.run_observed(&mut recorder).unwrap();
        let flux = solver.scalar_flux().as_slice().to_vec();
        let recorder = without_timing(&recorder);
        match &reference {
            None => reference = Some((recorder, outcome, flux)),
            Some((r_rec, r_out, r_flux)) => {
                assert_eq!(
                    r_rec, &recorder,
                    "{strategy:?} observer stream diverged at {threads} threads"
                );
                let mut a = r_out.clone();
                let mut b = outcome;
                for out in [&mut a, &mut b] {
                    out.assemble_solve_seconds = 0.0;
                    out.kernel_assemble_seconds = 0.0;
                    out.kernel_solve_seconds = 0.0;
                    out.metrics.zero_wallclock();
                }
                assert_eq!(a, b, "{strategy:?} outcome diverged at {threads} threads");
                assert_eq!(
                    r_flux, &flux,
                    "{strategy:?} flux diverged at {threads} threads"
                );
            }
        }
    }
    let (recorder, outcome, _) = reference.unwrap();
    assert_eq!(recorder.rank_records.len(), 4);
    match strategy {
        StrategyKind::SweepGmres => {
            assert!(outcome.krylov_iterations > 0);
            assert!(
                recorder
                    .rank_records
                    .iter()
                    .all(|r| !r.krylov_residual_history.is_empty()),
                "every rank must stream Krylov residuals"
            );
        }
        StrategyKind::DsaSourceIteration => {
            assert!(outcome.accel_cg_iterations > 0);
            assert!(
                recorder
                    .rank_records
                    .iter()
                    .all(|r| !r.accel_residual_history.is_empty()),
                "every rank must stream DSA CG residuals"
            );
        }
        StrategyKind::SourceIteration => {}
    }
}

#[test]
fn per_rank_observer_streams_are_identical_across_thread_counts() {
    assert_per_rank_streams_thread_invariant(StrategyKind::SweepGmres);
}

#[test]
fn per_rank_dsa_streams_are_identical_across_thread_counts() {
    assert_per_rank_streams_thread_invariant(StrategyKind::DsaSourceIteration);
}

/// Per-rank event counts must equal the per-rank outcome counters: one
/// rank-lane `Sweep` per rank sweep, one rank outer start/end per halo
/// iteration, and (under GMRES) one residual event per Krylov iteration
/// plus one initial-residual event per subdomain solve.
fn assert_rank_streams_match_counters(decomp: Decomposition2D, strategy: StrategyKind) {
    let mut p = Problem::tiny();
    p.nx = 4;
    p.ny = 4;
    p.nz = 2;
    p.num_groups = 1;
    p.angles_per_octant = 2;
    p.inner_iterations = 6;
    p.outer_iterations = 1;
    p.convergence_tolerance = 0.0;
    p.strategy = strategy;

    let mut solver = BlockJacobiSolver::new(&p, decomp).unwrap();
    let mut recorder = RecordingObserver::default();
    let outcome = solver.run_observed(&mut recorder).unwrap();

    let ranks = outcome.ranks.as_ref().unwrap();
    assert_eq!(ranks.num_ranks, decomp.num_ranks());
    assert_eq!(recorder.rank_records.len(), decomp.num_ranks());
    assert_eq!(ranks.sweep_counts.len(), decomp.num_ranks());
    assert_eq!(
        outcome.sweep_count,
        ranks.sweep_counts.iter().sum::<usize>()
    );
    assert_eq!(
        outcome.krylov_iterations,
        ranks.krylov_iterations.iter().sum::<usize>()
    );

    for (rank, record) in recorder.rank_records.iter().enumerate() {
        assert_eq!(
            record.sweep_count, ranks.sweep_counts[rank],
            "rank {rank} sweep events"
        );
        assert_eq!(
            record.outers_started, outcome.inner_iterations,
            "rank {rank} outer-start events (one per halo iteration)"
        );
        assert_eq!(record.outers_completed, outcome.inner_iterations);
        match strategy {
            StrategyKind::SourceIteration | StrategyKind::DsaSourceIteration => {
                assert!(record.krylov_residual_history.is_empty());
                // One relaxation sweep and one inner iterate per halo
                // iteration.
                assert_eq!(record.sweep_count, outcome.inner_iterations);
                assert_eq!(
                    record.convergence_history.len(),
                    outcome.inner_iterations,
                    "rank {rank} inner iterates"
                );
                if strategy == StrategyKind::DsaSourceIteration {
                    // Every halo iteration ran a low-order correction,
                    // and its CG stream reached the recorder.
                    assert!(
                        !record.accel_residual_history.is_empty(),
                        "rank {rank} streamed no DSA residuals"
                    );
                } else {
                    assert!(record.accel_residual_history.is_empty());
                }
            }
            StrategyKind::SweepGmres => {
                // GMRES emits one residual event per Krylov iteration
                // plus the initial residual of each subdomain solve (one
                // solve per halo iteration).
                assert_eq!(
                    record.krylov_residual_history.len(),
                    ranks.krylov_iterations[rank] + outcome.inner_iterations,
                    "rank {rank} Krylov residual events"
                );
            }
        }
    }
}

#[test]
fn rank_streams_match_counters_at_one_and_four_ranks() {
    for strategy in StrategyKind::all() {
        assert_rank_streams_match_counters(Decomposition2D::serial(), strategy);
        assert_rank_streams_match_counters(Decomposition2D::new(2, 2), strategy);
    }
}

/// Phase-event replay keeps the rank-order grouping contract: within
/// each halo iteration the buffered per-rank streams arrive strictly in
/// rank order, so deduplicating consecutive ranks in the arrival
/// sequence must yield `0, 1, .., N-1` repeated once per iteration.
#[test]
fn phase_events_replay_grouped_in_rank_order() {
    #[derive(Default)]
    struct PhaseTap {
        arrivals: Vec<(usize, Phase)>,
        starts: usize,
        ends: usize,
    }
    impl RunObserver for PhaseTap {
        fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
            match (lane, *event) {
                (Lane::Rank(rank), SolveEvent::PhaseStart { phase }) => {
                    self.arrivals.push((rank, phase));
                    self.starts += 1;
                }
                (Lane::Rank(_), SolveEvent::PhaseEnd { .. }) => self.ends += 1,
                _ => {}
            }
        }
    }

    let mut p = Problem::tiny();
    p.nx = 4;
    p.ny = 4;
    p.nz = 2;
    p.num_groups = 1;
    p.angles_per_octant = 2;
    p.inner_iterations = 3;
    p.outer_iterations = 1;
    p.convergence_tolerance = 0.0;
    p.strategy = StrategyKind::SweepGmres;

    let decomp = Decomposition2D::new(2, 2);
    let mut solver = BlockJacobiSolver::new(&p, decomp).unwrap();
    let mut tap = PhaseTap::default();
    let outcome = solver.run_observed(&mut tap).unwrap();

    assert_eq!(tap.starts, tap.ends, "every span must open and close");
    assert!(
        tap.arrivals.iter().any(|(_, ph)| *ph == Phase::Sweep),
        "ranks must emit sweep spans"
    );
    assert!(
        tap.arrivals.iter().any(|(_, ph)| *ph == Phase::Krylov),
        "GMRES ranks must emit Krylov spans"
    );

    let mut grouped = Vec::new();
    for (rank, _) in &tap.arrivals {
        if grouped.last() != Some(rank) {
            grouped.push(*rank);
        }
    }
    let per_iteration: Vec<usize> = (0..decomp.num_ranks()).collect();
    let expected: Vec<usize> = per_iteration
        .iter()
        .cycle()
        .take(decomp.num_ranks() * outcome.inner_iterations)
        .copied()
        .collect();
    assert_eq!(
        grouped, expected,
        "rank phase events interleaved instead of replaying rank by rank"
    );
}

/// The deterministic half of the attached metrics is reproducible at
/// both rank counts the suite exercises (1 and 4): rerunning the same
/// decomposition — at a different thread width where the pool allows —
/// changes no deterministic counter, and the per-rank event stream
/// carries the same phase-span counts the snapshot aggregates.
#[test]
fn deterministic_metrics_are_stable_at_one_and_four_ranks() {
    for decomp in [Decomposition2D::serial(), Decomposition2D::new(2, 2)] {
        let mut p = Problem::tiny();
        p.nx = 4;
        p.ny = 4;
        p.nz = 2;
        p.num_groups = 1;
        p.angles_per_octant = 2;
        p.inner_iterations = 5;
        p.outer_iterations = 1;
        p.convergence_tolerance = 0.0;
        p.strategy = StrategyKind::SweepGmres;

        let mut reference: Option<RunMetrics> = None;
        for threads in [1usize, 4] {
            let mut problem = p.clone();
            problem.num_threads = Some(threads);
            let mut solver = BlockJacobiSolver::new(&problem, decomp).unwrap();
            let mut recorder = RecordingObserver::default();
            let outcome = solver.run_observed(&mut recorder).unwrap();
            let deterministic = outcome.metrics.deterministic();

            assert_eq!(deterministic.sweeps, outcome.sweep_count);
            assert_eq!(deterministic.halo_exchanges, outcome.inner_iterations);
            assert_eq!(
                deterministic.phase_count(Phase::Sweep),
                outcome.sweep_count,
                "one sweep span per rank sweep at {} ranks",
                decomp.num_ranks()
            );
            let rank_sweep_spans: usize = recorder
                .rank_records
                .iter()
                .map(|r| r.phase_starts[Phase::Sweep.index()])
                .sum();
            assert_eq!(rank_sweep_spans, outcome.sweep_count);

            match &reference {
                None => reference = Some(deterministic),
                Some(r) => {
                    if forced_width().is_none() {
                        assert_eq!(
                            r,
                            &deterministic,
                            "deterministic metrics diverged at {} ranks, {threads} threads",
                            decomp.num_ranks()
                        );
                    }
                }
            }
        }
    }
}
