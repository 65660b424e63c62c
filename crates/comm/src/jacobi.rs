//! The parallel block-Jacobi global schedule over rank subdomains.
//!
//! Every rank sweeps its own subdomain with wavefront schedules — one per
//! upwind pattern, shared by the angles that have it — *masked* to the
//! cells it owns; an upwind face whose neighbour
//! belongs to another rank takes its angular flux from the **previous**
//! iteration (that is the content of the per-iteration halo exchange).
//! "Note that each process can begin computation on its own subdomain
//! concurrently, unlike with the KBA schedule in the SNAP mini-app where
//! processors must wait to begin work." (§III-A.1.)
//!
//! # Strategy-dispatched inner solves
//!
//! Each rank is one [`SweepDomain`] solved through a [`DomainContext`] —
//! the same sweep path, source assembly and
//! [`StrategyKind::run_inners`](unsnap_core::strategy::StrategyKind::run_inners)
//! dispatch as the single-domain `TransportSolver`, which is the
//! one-domain, no-halo case of it.  [`Problem::strategy`] selects the
//! subdomain solver:
//!
//! * **Source iteration** — one masked sweep per rank per halo
//!   iteration, reproducing the seed's lagged block-Jacobi schedule
//!   exactly;
//! * **Sweep-preconditioned GMRES** — per halo iteration each rank
//!   solves its local within-group system `(I − D L_r⁻¹ S_w) φ_r =
//!   D L_r⁻¹ q_ext,r` to tolerance with a matrix-free GMRES(m) whose
//!   Krylov space is reused across halo iterations
//!   (`unsnap_linalg::krylov::GmresWorkspace`).  The lagged
//!   halo data is *affine*
//!   right-hand-side inflow, so operator applications sweep with
//!   homogeneous boundary **and** halo inflow (the halo-aware residual
//!   assembly), and a consistency sweep with real inflow regenerates the
//!   rank's angular flux for the next halo exchange.  This is the
//!   additive-Schwarz-style scale-out of the Krylov acceleration.
//!
//! With a single rank the schedule degenerates to the full sweep and the
//! solver reproduces `unsnap_core::TransportSolver`; with more ranks the
//! converged answer is the same but the convergence *rate* degrades —
//! the trade-off `reproduce jacobi` (`unsnap-bench`) measures.
//!
//! # Observer streaming
//!
//! Ranks genuinely sweep **concurrently**, on a team of threads forked
//! every halo iteration ([`team::map`], as wide as
//! [`Problem::num_threads`], overridable with `RAYON_NUM_THREADS`): each
//! rank writes into its own domain's buffers — its slab, its φ and the
//! export buffer its folds copy the face traces its neighbours read into
//! — and reads remote cells only from the shared halo buffer
//! ([`HaloFlux`]: the previous iteration's face traces of ψ across the
//! cuts, into which every rank publishes its export buffer once all of
//! them are done), so
//! the per-iteration results are bit-for-bit identical at every thread
//! and rank-execution ordering.  Each rank's solve events are buffered
//! in an [`EventLog`] and replayed on the rank's own
//! [`Lane::Rank`] in rank order after every halo iteration — the
//! [`RunObserver`] stream is therefore also bit-for-bit identical at
//! every thread count.

use std::time::Instant;

use unsnap_core::domain::{DomainContext, HaloFlux, SharedAssets, SweepDomain};
use unsnap_core::error::Result;
use unsnap_core::layout::{FluxLayout, FluxStorage};
use unsnap_core::problem::Problem;
use unsnap_core::session::{EventLog, Lane, NoopObserver, Phase, RunObserver, SolveEvent};
use unsnap_core::solver::{
    install_resume, relative_change, run_outers, CheckpointSink, NoopSink, OuterDriver,
    ResumePoint, RunControl, RunStats, SolveOutcome,
};
use unsnap_core::strategy::StrategyKind;
use unsnap_core::team;
use unsnap_mesh::{Decomposition2D, Subdomain};

/// Block-Jacobi distributed transport solver (simulated ranks): N
/// [`SweepDomain`]s over one set of [`SharedAssets`], coupled through the
/// lagged angular flux on the faces of their cuts.
pub struct BlockJacobiSolver {
    assets: SharedAssets,
    subdomains: Vec<Subdomain>,
    /// One sweep domain per rank, indexed by rank id.  Each is handed to
    /// a member of the rank team by `&mut` every halo iteration.
    domains: Vec<SweepDomain>,
    /// Each rank's accumulated work statistics, indexed by rank id.
    rank_stats: Vec<RunStats>,
    /// The face traces of ψ across the cuts as the last halo iteration
    /// left them (the "exchanged" data the next iteration reads): with φ,
    /// all that survives an iteration boundary.  No global ψ exists.
    halo: HaloFlux,
    phi: FluxStorage,
    phi_outer: FluxStorage,
    /// How wide the team the rank solves fork into is.
    width: usize,
    /// The run protocol's state (an installed resume point).
    control: RunControl,
}

impl BlockJacobiSolver {
    /// Build the distributed solver for a problem and a 2-D decomposition.
    ///
    /// Every [`Problem`] knob flows through: the iteration strategy
    /// ([`Problem::strategy`]), the dense-solver back end, the
    /// scattering-ratio override and the thread count.
    ///
    /// Fails with [`InvalidProblem`](unsnap_core::error::Error::InvalidProblem)
    /// on a bad problem, [`Mesh`](unsnap_core::error::Error::Mesh) when the
    /// decomposition does not fit the mesh, and
    /// [`Schedule`](unsnap_core::error::Error::Schedule) when a rank's masked
    /// wavefront schedule cannot be built.
    pub fn new(problem: &Problem, decomposition: Decomposition2D) -> Result<Self> {
        problem.validate()?;
        // The parallel axis here is the rank loop (each rank sweeps
        // inline), so threads beyond the rank count could never receive
        // work — cap the width.
        let width = team::width(problem, decomposition.num_ranks());
        let assets = SharedAssets::build(problem, width);
        let subdomains = decomposition.try_decompose(&assets.mesh)?;
        let mut domains = subdomains
            .iter()
            .map(|sd| SweepDomain::new(&assets, sd.global_cells.clone()))
            .collect::<Result<Vec<_>>>()?;
        let halo = HaloFlux::new(&assets, &mut domains);

        let scalar_layout = FluxLayout::scalar(
            assets.element.nodes_per_element(),
            assets.mesh.num_cells(),
            problem.num_groups,
            problem.scheme.loop_order,
        );

        Ok(Self {
            rank_stats: vec![RunStats::default(); subdomains.len()],
            halo,
            assets,
            subdomains,
            domains,
            phi: FluxStorage::zeros(scalar_layout),
            phi_outer: FluxStorage::zeros(scalar_layout),
            width,
            control: RunControl::default(),
        })
    }

    /// Install recovered state so the next run continues from a
    /// checkpoint instead of starting cold.
    ///
    /// Validates the flux shapes and the rank count against this
    /// solver's layout (see [`install_resume`]); the point is consumed
    /// by the next `run`/`run_observed` call.  Each rank's compact local
    /// φ is regathered from the global array when the run starts and its
    /// own ψ is rewritten by its first sweep, so the point only carries
    /// φ and the halo.
    pub fn resume_from(&mut self, point: ResumePoint) -> Result<()> {
        install_resume(self, point)
    }

    /// The scalar flux after `run`.
    pub fn scalar_flux(&self) -> &FluxStorage {
        &self.phi
    }

    /// Total halo faces across all ranks.
    fn total_halo_faces(&self) -> usize {
        self.subdomains.iter().map(|s| s.halo_faces.len()).sum()
    }

    /// Run the block-Jacobi iteration silently.
    ///
    /// Equivalent to [`BlockJacobiSolver::run_observed`] with the silent
    /// observer.
    pub fn run(&mut self) -> Result<SolveOutcome> {
        self.run_observed(&mut NoopObserver)
    }

    /// Run the block-Jacobi iteration to the requested iteration counts
    /// (or until the tolerance is met), streaming per-rank progress to
    /// `observer`.
    ///
    /// Every halo iteration delivers, for each rank in rank order on
    /// that rank's [`Lane::Rank`]: `OuterStart`, the rank's buffered
    /// solve events (`Sweep`, `InnerIteration`, `KrylovResidual`, …)
    /// and `OuterEnd`; the merged global change then arrives as a
    /// driver-lane `InnerIteration`.  Because the buffered logs replay
    /// in rank order, the stream is identical at every thread count.
    pub fn run_observed(&mut self, observer: &mut dyn RunObserver) -> Result<SolveOutcome> {
        self.run_checkpointed(observer, &mut NoopSink)
    }

    /// [`BlockJacobiSolver::run_observed`] with a durability hook:
    /// `sink` is offered a
    /// [`CheckpointView`](unsnap_core::solver::CheckpointView) at every
    /// outer-iteration boundary (after the outer's `OuterEnd`
    /// event).  A sink error aborts the run, which is how the
    /// write-ahead log layer injects deterministic crashes.
    pub fn run_checkpointed(
        &mut self,
        observer: &mut dyn RunObserver,
        sink: &mut dyn CheckpointSink,
    ) -> Result<SolveOutcome> {
        // Counters and histories are per run (matching TransportSolver,
        // whose accounting starts fresh every run); the flux state and
        // the Krylov workspaces warm-start the next run as before.
        self.rank_stats.fill(RunStats::default());
        run_outers(self, observer, sink)
    }
}

/// The N-domain driver: global φ and the halo beside the rank domains,
/// checkpointed φ regathered per rank, and one outer iteration is a loop
/// of halo iterations around concurrent per-rank inner solves.  The
/// driver-level `stats` count halo iterations (`inner_iterations`), the
/// seconds of the parallel region (`sweep_seconds`) and the merged
/// per-halo-iteration change (`convergence_history`).
impl OuterDriver for BlockJacobiSolver {
    fn problem(&self) -> &Problem {
        &self.assets.problem
    }

    fn control(&mut self) -> &mut RunControl {
        &mut self.control
    }

    fn flux(&self) -> (&[f64], &[f64]) {
        (self.phi.as_slice(), self.halo.as_slice())
    }

    fn rank_stats(&self) -> &[RunStats] {
        &self.rank_stats
    }

    fn halo_faces(&self) -> usize {
        self.total_halo_faces()
    }

    /// Each rank domain's local φ is regathered from the global one: the
    /// exact inverse of the post-solve merge in `run_outer`.
    fn restore(&mut self, phi: &[f64], halo: &[f64], rank_stats: Vec<RunStats>) {
        self.phi.as_mut_slice().copy_from_slice(phi);
        self.halo.as_mut_slice().copy_from_slice(halo);
        self.rank_stats = rank_stats;
        for domain in &mut self.domains {
            domain.gather_from(&self.phi);
        }
    }

    fn run_outer(&mut self, stats: &mut RunStats, observer: &mut dyn RunObserver) -> Result<bool> {
        let problem = &self.assets.problem;
        let kind = problem.strategy;
        // Stationary relaxations — source iteration, and DSA-accelerated
        // source iteration (one sweep + one low-order correction) —
        // relax once per halo exchange, preserving the seed's lagged
        // block-Jacobi schedule.  The Krylov strategies instead solve
        // each rank's local system per halo exchange
        // (additive-Schwarz-style subdomain solves).
        //
        // The per-exchange Krylov solve is capped by the dedicated
        // `subdomain_krylov_budget` knob
        // (`Problem::with_subdomain_krylov_budget`); when unset it falls
        // back to `inner_iterations`, the historical behaviour where one
        // knob capped both the halo loop and each rank's solve.  Both
        // levels exit early at the tolerance.
        let inner_budget = match kind {
            StrategyKind::SourceIteration | StrategyKind::DsaSourceIteration => 1,
            StrategyKind::SweepGmres => problem
                .subdomain_krylov_budget
                .unwrap_or(problem.inner_iterations),
        };
        let (inner_iterations, tolerance) =
            (problem.inner_iterations, problem.convergence_tolerance);

        self.phi_outer
            .as_mut_slice()
            .copy_from_slice(self.phi.as_slice());
        for _inner in 0..inner_iterations {
            let halo_iteration = stats.inner_iterations;
            stats.inner_iterations += 1;
            let phi_old: Vec<f64> = self.phi.as_slice().to_vec();

            let t0 = Instant::now();
            // Every rank runs its strategy-dispatched inner solve
            // concurrently, on a team of threads.  Nothing a rank reads
            // is written by another rank within the same iteration:
            // own cells come from the rank's own domain, remote cells
            // from `halo`, rewritten only by the exchange below.
            // Results and event logs come back in rank order (`team::map`
            // reassembles in input order), so the outcome and the
            // observer stream are independent of the interleaving.
            let (assets, phi_outer, halo) = (&self.assets, &self.phi_outer, &self.halo);
            let ranks: Vec<_> = self.domains.iter_mut().zip(&mut self.rank_stats).collect();
            let solves = team::map(self.width, ranks, |(domain, stats)| {
                let mut log = EventLog::default();
                let mut context = DomainContext {
                    assets,
                    width: 1,
                    phi_outer,
                    halo: Some(halo),
                    domain,
                    inner_budget,
                };
                let solved = kind.run_inners(&mut context, stats, &mut log);
                solved.map(|rank_converged| (log, rank_converged))
            });
            stats.sweep_seconds += t0.elapsed().as_secs_f64();
            // Surface the earliest rank's error before touching the
            // global arrays or the observer.
            let solves = solves.into_iter().collect::<Result<Vec<_>>>()?;

            // The halo exchange: every rank publishes the traces it
            // exports, in rank order, for the next iteration to read.  The
            // observer has heard nothing since the ranks started, so its
            // driver-lane span — the publish time — and the event carrying
            // the cut-face count and the bytes published still come before
            // any rank's events.
            let phase = Phase::HaloExchange;
            observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
            let halo_t0 = self.assets.clock.now();
            for domain in &self.domains {
                domain.publish(&mut self.halo);
            }
            let seconds = self
                .assets
                .clock
                .now()
                .saturating_sub(halo_t0)
                .as_secs_f64();
            observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
            let exchange = SolveEvent::HaloExchange {
                iteration: halo_iteration,
                faces: self.total_halo_faces(),
                bytes: std::mem::size_of_val(self.halo.as_slice()) as u64,
            };
            observer.on_event(Lane::Driver, &exchange);

            // Merge the rank φ into the global array and replay the
            // buffered event streams, both in rank order.
            self.phi.fill(0.0);
            for (rank, (log, rank_converged)) in solves.into_iter().enumerate() {
                self.domains[rank].scatter_into(&mut self.phi);
                let start = SolveEvent::OuterStart {
                    outer: halo_iteration,
                };
                observer.on_event(Lane::Rank(rank), &start);
                log.replay_as_rank(rank, observer);
                let end = SolveEvent::OuterEnd {
                    outer: halo_iteration,
                    converged: rank_converged,
                };
                observer.on_event(Lane::Rank(rank), &end);
            }

            let diff = relative_change(self.phi.as_slice(), &phi_old);
            stats.convergence_history.push(diff);
            observer.on_event(
                Lane::Driver,
                &SolveEvent::InnerIteration {
                    inner: stats.inner_iterations,
                    relative_change: diff,
                },
            );
            if tolerance > 0.0 && diff < tolerance {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_core::solver::TransportSolver;
    use unsnap_sweep::ConcurrencyScheme;
    use SolveEvent::*;

    fn base_problem() -> Problem {
        let mut p = Problem::tiny();
        p.nx = 4;
        p.ny = 4;
        p.nz = 2;
        p.num_groups = 1;
        p.angles_per_octant = 2;
        p.inner_iterations = 3;
        p.outer_iterations = 1;
        p.convergence_tolerance = 0.0;
        p
    }

    /// The bit patterns of a scalar flux, visited per (cell, group) node
    /// block so the storage layout does not matter.
    fn phi_bits(phi: &FluxStorage) -> Vec<u64> {
        let layout = *phi.layout();
        (0..layout.num_elements)
            .flat_map(|cell| (0..layout.num_groups).map(move |g| (cell, g)))
            .flat_map(|(cell, g)| phi.nodes(cell, g, 0).iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn single_rank_is_bitwise_the_full_sweep_solver() {
        // One rank is literally the single-domain case: the same sweep
        // path over one all-owning domain.  (GMRES is excluded by
        // design: the block-Jacobi driver runs one subdomain GMRES per
        // halo exchange, so its sweep count differs.)
        for strategy in [
            StrategyKind::SourceIteration,
            StrategyKind::DsaSourceIteration,
        ] {
            for scheme in ConcurrencyScheme::figure_schemes() {
                let p = base_problem()
                    .with_strategy(strategy)
                    .with_scheme(scheme)
                    .with_threads(2);
                let mut jacobi = BlockJacobiSolver::new(&p, Decomposition2D::serial()).unwrap();
                let jacobi_out = jacobi.run().unwrap();
                let mut full = TransportSolver::new(&p).unwrap();
                let full_out = full.run().unwrap();

                assert_eq!(
                    phi_bits(jacobi.scalar_flux()),
                    phi_bits(full.scalar_flux()),
                    "{strategy} under {scheme}"
                );
                assert_eq!(jacobi_out.sweep_count, full_out.sweep_count);
                assert_eq!(jacobi_out.metrics.cells_swept, full_out.kernel_invocations);
                let ranks = jacobi_out.ranks.as_ref().unwrap();
                assert_eq!(ranks.halo_faces, 0);
                assert_eq!(ranks.num_ranks, 1);
                assert_eq!(ranks.strategy, strategy);
                assert_eq!(jacobi_out.sweep_count, 3);
                assert_eq!(ranks.sweep_counts, vec![3]);
                assert_eq!(jacobi_out.krylov_iterations, 0);
            }
        }
    }

    #[test]
    fn multi_rank_outcome_is_bitwise_scheme_invariant() {
        // Ranks iterate their buckets as `Problem::scheme` says; like the
        // single-domain solver, that must only change execution order.
        let mut p = base_problem();
        p.num_groups = 2;
        let mut reference = None;
        for scheme in ConcurrencyScheme::figure_schemes() {
            let p = p.clone().with_scheme(scheme).with_threads(2);
            let mut s = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 2)).unwrap();
            let out = s.run().unwrap();
            let history: Vec<u64> = out
                .convergence_history
                .iter()
                .map(|d| d.to_bits())
                .collect();
            let facts = (
                phi_bits(s.scalar_flux()),
                history,
                out.ranks.unwrap().sweep_counts,
                out.metrics.cells_swept,
            );
            match &reference {
                None => reference = Some(facts),
                Some(r) => assert_eq!(&facts, r, "scheme {scheme}"),
            }
        }
    }

    #[test]
    fn multi_rank_partition_is_complete() {
        let p = base_problem();
        let solver = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 2)).unwrap();
        let total: usize = solver.subdomains.iter().map(|s| s.num_cells()).sum();
        assert_eq!(total, p.num_cells());
        assert!(solver.total_halo_faces() > 0);
        assert_eq!(solver.domains.len(), 4);
    }

    #[test]
    fn converged_answers_agree_across_rank_counts() {
        // Block Jacobi changes the iteration path, not the fixed point.
        let mut p = base_problem();
        p.inner_iterations = 60;
        p.convergence_tolerance = 1e-9;
        let mut reference = None;
        for decomp in [
            Decomposition2D::serial(),
            Decomposition2D::new(2, 1),
            Decomposition2D::new(2, 2),
        ] {
            let mut s = BlockJacobiSolver::new(&p, decomp).unwrap();
            let out = s.run().unwrap();
            assert!(out.converged, "ranks = {}", decomp.num_ranks());
            match reference {
                None => reference = Some(out.scalar_flux_total),
                Some(r) => {
                    let rel: f64 = (out.scalar_flux_total - r).abs() / r;
                    assert!(rel < 1e-6, "ranks = {}: rel = {rel}", decomp.num_ranks());
                }
            }
        }
    }

    #[test]
    fn more_ranks_never_converge_faster() {
        // Garrett's observation (§III-A.1): block Jacobi converges more
        // slowly as the number of blocks grows.
        let mut p = base_problem();
        p.inner_iterations = 80;
        p.convergence_tolerance = 1e-8;
        let mut iterations = Vec::new();
        for decomp in [
            Decomposition2D::serial(),
            Decomposition2D::new(2, 2),
            Decomposition2D::new(4, 2),
        ] {
            let mut s = BlockJacobiSolver::new(&p, decomp).unwrap();
            let out = s.run().unwrap();
            assert!(out.converged);
            iterations.push(out.ranks.unwrap().iterations_to_tolerance.unwrap());
        }
        assert!(
            iterations[1] >= iterations[0],
            "2x2 ranks should not converge faster than serial: {iterations:?}"
        );
        assert!(
            iterations[2] >= iterations[1],
            "4x2 ranks should not converge faster than 2x2: {iterations:?}"
        );
    }

    #[test]
    fn history_length_matches_iterations() {
        let p = base_problem();
        let mut s = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
        let out = s.run().unwrap();
        assert_eq!(out.convergence_history.len(), out.inner_iterations);
        assert_eq!(out.inner_iterations, 3);
        assert!(!out.converged);
        assert!(out.assemble_solve_seconds > 0.0);
    }

    #[test]
    fn gmres_inner_solves_reach_the_same_fixed_point() {
        let mut p = base_problem();
        p.inner_iterations = 60;
        p.convergence_tolerance = 1e-9;
        let mut si = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
        let si_out = si.run().unwrap();

        p.strategy = StrategyKind::SweepGmres;
        let mut gm = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
        let gm_out = gm.run().unwrap();

        assert!(si_out.converged && gm_out.converged);
        let gm_ranks = gm_out.ranks.as_ref().unwrap();
        assert_eq!(gm_ranks.strategy, StrategyKind::SweepGmres);
        assert!(gm_out.krylov_iterations > 0);
        assert_eq!(gm_ranks.krylov_iterations.len(), 2);
        // Krylov subdomain solves converge the halo iteration in far
        // fewer halo exchanges than one-sweep relaxation.
        assert!(
            gm_out.inner_iterations <= si_out.inner_iterations,
            "GMRES {} vs SI {} halo iterations",
            gm_out.inner_iterations,
            si_out.inner_iterations
        );
        let rel = (si_out.scalar_flux_total - gm_out.scalar_flux_total).abs()
            / si_out.scalar_flux_total.abs();
        assert!(rel < 1e-6, "SI and GMRES fixed points differ: {rel}");
    }

    #[test]
    fn dsa_inner_solves_reach_the_same_fixed_point() {
        // DSA-SI per rank: one sweep + one low-order correction per halo
        // exchange, same fixed point as plain SI, never slower.
        let mut p = base_problem();
        p.inner_iterations = 60;
        p.convergence_tolerance = 1e-9;
        let mut si = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
        let si_out = si.run().unwrap();

        p.strategy = StrategyKind::DsaSourceIteration;
        let mut dsa = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
        let dsa_out = dsa.run().unwrap();

        assert!(si_out.converged && dsa_out.converged);
        let dsa_ranks = dsa_out.ranks.as_ref().unwrap();
        assert_eq!(dsa_ranks.strategy, StrategyKind::DsaSourceIteration);
        assert_eq!(si_out.accel_cg_iterations, 0);
        assert!(dsa_out.accel_cg_iterations > 0);
        assert_eq!(dsa_ranks.accel_cg_iterations.len(), 2);
        assert!(dsa_ranks.accel_cg_iterations.iter().all(|&its| its > 0));
        // Like SI, DSA-SI relaxes once per halo exchange.
        assert_eq!(dsa_out.sweep_count, 2 * dsa_out.inner_iterations);
        assert!(
            dsa_out.inner_iterations <= si_out.inner_iterations,
            "DSA-SI {} vs SI {} halo iterations",
            dsa_out.inner_iterations,
            si_out.inner_iterations
        );
        let rel = (si_out.scalar_flux_total - dsa_out.scalar_flux_total).abs()
            / si_out.scalar_flux_total.abs();
        assert!(rel < 1e-6, "SI and DSA-SI fixed points differ: {rel}");
    }

    #[test]
    fn subdomain_budget_default_is_bit_for_bit_the_legacy_behaviour() {
        // `subdomain_krylov_budget: None` must reproduce the historical
        // path (per-exchange Krylov capped by `inner_iterations`)
        // exactly; setting the knob to that same value is also
        // bit-for-bit identical.
        let mut p = base_problem();
        p.inner_iterations = 20;
        p.convergence_tolerance = 1e-8;
        p.strategy = StrategyKind::SweepGmres;

        let run = |problem: &Problem| {
            let mut s = BlockJacobiSolver::new(problem, Decomposition2D::new(2, 1)).unwrap();
            let out = s.run().unwrap();
            let flux = s.scalar_flux().as_slice().to_vec();
            (out, flux)
        };

        let (default_out, default_flux) = run(&p);
        let explicit = p.clone().with_subdomain_krylov_budget(p.inner_iterations);
        let (explicit_out, explicit_flux) = run(&explicit);
        let mut a = default_out.clone();
        let mut b = explicit_out;
        for out in [&mut a, &mut b] {
            out.assemble_solve_seconds = 0.0;
            out.kernel_assemble_seconds = 0.0;
            out.kernel_solve_seconds = 0.0;
            out.metrics.zero_wallclock();
        }
        assert_eq!(a, b, "explicit budget == inner_iterations must be a no-op");
        assert_eq!(default_flux, explicit_flux);
    }

    #[test]
    fn subdomain_budget_knob_caps_the_per_exchange_krylov_solve() {
        let mut p = base_problem();
        p.inner_iterations = 30;
        p.convergence_tolerance = 1e-8;
        p.strategy = StrategyKind::SweepGmres;

        let mut unlimited = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
        let unlimited_out = unlimited.run().unwrap();

        // One Krylov iteration per rank per halo exchange: the halo loop
        // has to do more exchanges, and each rank's Krylov total is
        // bounded by the number of exchanges.
        let capped_problem = p.clone().with_subdomain_krylov_budget(1);
        let mut capped =
            BlockJacobiSolver::new(&capped_problem, Decomposition2D::new(2, 1)).unwrap();
        let capped_out = capped.run().unwrap();

        assert!(unlimited_out.converged && capped_out.converged);
        assert!(
            capped_out.inner_iterations >= unlimited_out.inner_iterations,
            "capped {} vs unlimited {} halo iterations",
            capped_out.inner_iterations,
            unlimited_out.inner_iterations
        );
        let capped_ranks = capped_out.ranks.as_ref().unwrap();
        for (rank, &its) in capped_ranks.krylov_iterations.iter().enumerate() {
            assert!(
                its <= capped_out.inner_iterations,
                "rank {rank}: {its} Krylov iterations over {} exchanges",
                capped_out.inner_iterations
            );
        }
        let rel = (capped_out.scalar_flux_total - unlimited_out.scalar_flux_total).abs()
            / unlimited_out.scalar_flux_total.abs();
        assert!(rel < 1e-6, "fixed point moved under the budget cap: {rel}");
    }

    #[test]
    fn outcome_serialises_and_displays() {
        let p = base_problem();
        let mut s = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
        let out = s.run().unwrap();

        let json = out.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"num_ranks\":2"));
        assert!(json.contains("\"strategy\":\"SI\""));
        assert!(json.contains("\"rank_sweep_counts\":[3,3]"));
        assert!(json.contains("\"iterations_to_tolerance\":null"));

        let text = format!("{out}");
        assert!(text.contains("2 ranks (SI)"));
        assert!(text.contains("NOT converged in 6 sweeps"));
    }

    #[test]
    fn rerunning_reports_per_run_counters() {
        // Counters are per run: a second run on the same solver (which
        // warm-starts from the converged flux) must not inherit the
        // first run's sweep/Krylov work.
        let p = base_problem();
        let mut s = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
        let first = s.run().unwrap();
        let second = s.run().unwrap();
        assert_eq!(first.sweep_count, 6);
        assert_eq!(second.sweep_count, 6, "counters leaked across runs");
        assert_eq!(second.ranks.unwrap().sweep_counts, vec![3, 3]);
        assert_eq!(second.inner_iterations, 3);
    }

    #[test]
    fn metrics_capture_halo_exchanges_and_rank_sweeps() {
        let p = base_problem();
        let mut s = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
        let out = s.run().unwrap();
        let m = &out.metrics;
        assert_eq!(m.sweeps, out.sweep_count);
        assert_eq!(m.halo_exchanges, out.inner_iterations);
        let halo_faces = out.ranks.as_ref().unwrap().halo_faces;
        assert_eq!(m.halo_faces, halo_faces * out.inner_iterations);
        // One trace per face of the one cut and angle: no direction of the
        // product quadrature is parallel to the cut, so each face is inflow
        // for one of its two cells.  nf face nodes per group, every group,
        // once per exchange.
        let traces = halo_faces / 2 * p.num_angles();
        let nf = (p.element_order + 1).pow(2);
        let entries = traces * nf * p.num_groups;
        assert_eq!(m.halo_bytes, (entries * 8 * out.inner_iterations) as u64);
        assert_eq!(m.phase_count(Phase::Sweep), out.sweep_count);
        assert_eq!(m.phase_count(Phase::HaloExchange), out.inner_iterations);
        assert_eq!(m.cells_per_sweep.count() as usize, out.sweep_count);
        // Kernel timers are summed over the rank stats of this run.
        assert!(m.kernel_assemble_seconds > 0.0);
    }

    #[test]
    fn observer_counts_match_rank_counters() {
        // One run that exhausts its budgets, one that converges in the
        // first of five outers: `outer_iterations` reports what ran.
        let mut exhausts = base_problem();
        exhausts.inner_iterations = 4;
        let mut early = base_problem();
        early.inner_iterations = 60;
        early.outer_iterations = 5;
        early.convergence_tolerance = 1e-9;
        for (p, decomp) in [
            (exhausts, Decomposition2D::new(2, 2)),
            (early, Decomposition2D::new(2, 1)),
        ] {
            let mut s = BlockJacobiSolver::new(&p, decomp).unwrap();
            let mut log = EventLog::default();
            let out = s.run_observed(&mut log).unwrap();
            let starts = |lane| log.on_lane(lane, |e| matches!(e, OuterStart { .. }).then_some(()));
            let ends = |lane| {
                log.on_lane(lane, |e| match *e {
                    OuterEnd { converged, .. } => Some(converged),
                    _ => None,
                })
            };

            let rank_lanes = log.events.iter().filter_map(|(lane, _)| match lane {
                Lane::Rank(rank) => Some(*rank),
                Lane::Driver => None,
            });
            assert_eq!(rank_lanes.max(), Some(decomp.num_ranks() - 1));
            for rank in 0..decomp.num_ranks() {
                let lane = Lane::Rank(rank);
                let sweeps = log.on_lane(lane, |e| match *e {
                    Sweep { sweep, .. } => Some(sweep),
                    _ => None,
                });
                let counted = out.ranks.as_ref().unwrap().sweep_counts[rank];
                assert_eq!(sweeps, (1..=counted).collect::<Vec<_>>());
                assert_eq!(starts(lane).len(), out.inner_iterations);
                assert_eq!(ends(lane).len(), out.inner_iterations);
            }
            // The global stream reports the merged convergence history.
            let history = log.on_lane(Lane::Driver, |e| match *e {
                InnerIteration {
                    relative_change, ..
                } => Some(relative_change),
                _ => None,
            });
            assert_eq!(history, out.convergence_history);
            assert_eq!(ends(Lane::Driver).contains(&true), out.converged);
            assert_eq!(out.outer_iterations, 1);
            assert_eq!(starts(Lane::Driver).len(), out.outer_iterations);
            assert_eq!(ends(Lane::Driver).len(), out.outer_iterations);
        }
    }
}
