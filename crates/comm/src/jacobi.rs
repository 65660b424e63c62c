//! The parallel block-Jacobi global schedule over rank subdomains.
//!
//! Every rank sweeps its own subdomain with per-angle wavefront schedules
//! that are *masked* to the cells it owns; an upwind face whose neighbour
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
//! [`IterationStrategy`](unsnap_core::strategy::IterationStrategy)
//! dispatch as the single-domain `TransportSolver`, which is the
//! one-domain, no-halo case of it.  [`Problem::strategy`] (including the
//! `UNSNAP_STRATEGY` builder override) selects the subdomain solver:
//!
//! * **Source iteration** — one masked sweep per rank per halo
//!   iteration, reproducing the seed's lagged block-Jacobi schedule
//!   exactly;
//! * **Sweep-preconditioned GMRES** — per halo iteration each rank
//!   solves its local within-group system `(I − D L_r⁻¹ S_w) φ_r =
//!   D L_r⁻¹ q_ext,r` to tolerance with a matrix-free GMRES(m) whose
//!   Krylov space is reused across halo iterations
//!   ([`GmresWorkspace`](unsnap_krylov::GmresWorkspace)).  The lagged
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
//! the trade-off the `ablation_jacobi_ranks` and `ablation_jacobi_krylov`
//! benchmarks measure.
//!
//! # Observer streaming
//!
//! Ranks genuinely sweep **concurrently** on the worker pool (sized by
//! [`Problem::num_threads`], overridable with `RAYON_NUM_THREADS`): each
//! rank writes into its own domain's angular-flux buffer (indexed by
//! local cell) and reads remote cells only from the shared
//! previous-iteration array, so
//! the per-iteration results are bit-for-bit identical at every thread
//! and rank-execution ordering.  Each rank's solve events are buffered
//! in an [`EventLog`] and replayed on the rank's own
//! [`Lane::Rank`] in rank order after every halo iteration — the
//! [`RunObserver`] stream is therefore also bit-for-bit identical at
//! every thread count.

use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use unsnap_obs::clock::Clock;

use unsnap_core::domain::{worker_pool, DomainContext, SharedAssets, SweepDomain};
use unsnap_core::error::{Error, Result};
use unsnap_core::layout::{FluxLayout, FluxStorage};
use unsnap_core::metrics::RunMetrics;
use unsnap_core::problem::Problem;
use unsnap_core::report::IterationSummary;
use unsnap_core::session::{
    run_with_telemetry, EventLog, Lane, NoopObserver, Phase, RunObserver, SolveEvent,
};
use unsnap_core::solver::{relative_change, RunStats};
use unsnap_core::strategy::StrategyKind;
use unsnap_mesh::{Decomposition2D, Subdomain};
use unsnap_obs::trace::TraceTree;

/// Summary of a block-Jacobi distributed solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockJacobiOutcome {
    /// Number of ranks (Jacobi blocks).
    pub num_ranks: usize,
    /// Inner-iteration strategy the ranks dispatched to.
    pub strategy: StrategyKind,
    /// Halo (block-Jacobi) iterations executed.
    pub inner_iterations: usize,
    /// Whether the convergence tolerance was met.
    pub converged: bool,
    /// Iterations needed to reach the tolerance (if it was reached).
    pub iterations_to_tolerance: Option<usize>,
    /// Maximum relative scalar-flux change per inner iteration.
    pub convergence_history: Vec<f64>,
    /// Wall-clock seconds spent in the assemble/solve region.
    pub assemble_solve_seconds: f64,
    /// Sum of the scalar flux over all nodes/elements/groups.
    pub scalar_flux_total: f64,
    /// Total halo faces across all ranks (faces refreshed per iteration).
    pub halo_faces: usize,
    /// Subdomain sweeps executed, summed over ranks.
    pub sweep_count: usize,
    /// Krylov iterations executed, summed over ranks (zero under plain
    /// source iteration).
    pub krylov_iterations: usize,
    /// Low-order DSA CG iterations executed, summed over ranks (zero
    /// unless a DSA path ran).
    pub accel_cg_iterations: usize,
    /// Sweeps executed by each rank, indexed by rank id.
    pub rank_sweep_counts: Vec<usize>,
    /// Krylov iterations executed by each rank, indexed by rank id.
    pub rank_krylov_iterations: Vec<usize>,
    /// Low-order DSA CG iterations executed by each rank.
    pub rank_accel_cg_iterations: Vec<usize>,
    /// The run's telemetry snapshot, aggregated from the full observer
    /// event stream (driver and rank lanes) by the solver's internal
    /// [`MetricsObserver`](unsnap_core::metrics::MetricsObserver) —
    /// attached to every outcome with no caller wiring.  The
    /// deterministic half is bit-for-bit identical at
    /// every thread and rank-execution ordering; strip the wall-clock
    /// half with [`RunMetrics::zero_wallclock`] before comparisons.
    pub metrics: RunMetrics,
    /// The run's hierarchical span tree, built by the solver's internal
    /// [`unsnap_core::trace::TraceObserver`] tee: driver events on lane
    /// 0, each rank's replayed stream on lane `rank + 1`.  Structure is
    /// deterministic (rank-ordered replay); timestamps are wall-clock
    /// and ignored by `PartialEq`.  Excluded from
    /// [`BlockJacobiOutcome::to_json`] — export with
    /// [`TraceTree::to_chrome_json`] or [`TraceTree::to_collapsed`].
    pub trace: TraceTree,
}

impl BlockJacobiOutcome {
    /// Serialise the outcome as a JSON object (via the workspace's
    /// hand-rolled [`json`](unsnap_core::json) writer — the vendored
    /// `serde` is a no-op stand-in).
    pub fn to_json(&self) -> String {
        unsnap_core::json::JsonObject::new()
            .field_usize("num_ranks", self.num_ranks)
            .field_str("strategy", self.strategy.label())
            .field_usize("inner_iterations", self.inner_iterations)
            .field_bool("converged", self.converged)
            .field_raw(
                "iterations_to_tolerance",
                &self
                    .iterations_to_tolerance
                    .map_or_else(|| "null".to_string(), |i| i.to_string()),
            )
            .field_f64_array("convergence_history", &self.convergence_history)
            .field_f64("assemble_solve_seconds", self.assemble_solve_seconds)
            .field_f64("scalar_flux_total", self.scalar_flux_total)
            .field_usize("halo_faces", self.halo_faces)
            .field_usize("sweep_count", self.sweep_count)
            .field_usize("krylov_iterations", self.krylov_iterations)
            .field_usize("accel_cg_iterations", self.accel_cg_iterations)
            .field_usize_array("rank_sweep_counts", &self.rank_sweep_counts)
            .field_usize_array("rank_krylov_iterations", &self.rank_krylov_iterations)
            .field_usize_array("rank_accel_cg_iterations", &self.rank_accel_cg_iterations)
            .field_raw("metrics", &self.metrics.to_json())
            .finish()
    }
}

impl IterationSummary for BlockJacobiOutcome {
    fn summary_converged(&self) -> bool {
        self.converged
    }

    fn summary_sweeps(&self) -> usize {
        self.sweep_count
    }

    fn summary_inner_iterations(&self) -> usize {
        self.inner_iterations
    }

    fn summary_krylov_iterations(&self) -> usize {
        self.krylov_iterations
    }

    fn summary_final_krylov_residual(&self) -> Option<f64> {
        // Per-rank residual trajectories stream through the observer;
        // the outcome keeps counters only.
        None
    }
}

impl std::fmt::Display for BlockJacobiOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ranks ({}): {}, {} halo faces",
            self.num_ranks,
            self.strategy,
            unsnap_core::report::iteration_summary(self),
            self.halo_faces,
        )
    }
}

/// Block-Jacobi distributed transport solver (simulated ranks): N
/// [`SweepDomain`]s over one set of [`SharedAssets`], coupled through the
/// lagged global angular flux.
pub struct BlockJacobiSolver {
    assets: SharedAssets,
    decomposition: Decomposition2D,
    subdomains: Vec<Subdomain>,
    /// One sweep domain per rank, indexed by rank id.  Each is handed to
    /// the worker pool by `&mut` every halo iteration.
    domains: Vec<SweepDomain>,
    /// Each rank's accumulated work statistics, indexed by rank id.
    rank_stats: Vec<RunStats>,
    /// Global angular flux, rebuilt from the rank domains every halo
    /// iteration (the "exchanged" array the next iteration reads).
    psi: FluxStorage,
    psi_prev: FluxStorage,
    phi: FluxStorage,
    phi_outer: FluxStorage,
    /// Worker pool the rank solves fan out on.
    pool: rayon::ThreadPool,
    /// Recovered state installed by [`BlockJacobiSolver::resume_from`],
    /// consumed by the next run.
    resume: Option<JacobiResumePoint>,
}

/// A borrowed, consistent snapshot of the distributed solver's state at
/// an outer-iteration boundary — the block-Jacobi analogue of
/// [`unsnap_core::solver::CheckpointView`].
///
/// Only the global flux arrays and per-rank accounting are exposed:
/// `psi_prev` is republished at the start of every halo iteration,
/// `phi_outer` is recomputed at every outer start, and each rank's
/// compact local arrays are an exact gather of the global ones, so all
/// of them reconstruct from what is here.
#[derive(Debug)]
pub struct JacobiCheckpointView<'a> {
    /// The outer iteration that just completed (0-based).
    pub outer_completed: usize,
    /// Whether the tolerance was met during that outer iteration.
    pub converged: bool,
    /// Halo (block-Jacobi) iterations executed so far.
    pub inners_run: usize,
    /// Wall-clock seconds accumulated in the assemble/solve region.
    pub sweep_seconds: f64,
    /// Maximum relative scalar-flux change per halo iteration so far.
    pub convergence_history: &'a [f64],
    /// Global scalar flux φ, in storage order.
    pub phi: &'a [f64],
    /// Global angular flux ψ, in storage order.
    pub psi: &'a [f64],
    /// Each rank's accumulated accounting, indexed by rank id.
    pub rank_stats: Vec<&'a RunStats>,
}

/// A durability hook invoked at every outer-iteration boundary of an
/// observed block-Jacobi run (after `on_outer_end`).  An error return
/// aborts the solve, which is how the write-ahead log layer injects
/// deterministic crashes.
pub trait JacobiCheckpointSink {
    /// Persist (or skip) a checkpoint of the given state.
    fn on_checkpoint(&mut self, view: &JacobiCheckpointView<'_>) -> Result<()>;
}

/// The sink used when nobody is checkpointing.
#[derive(Debug, Clone, Copy, Default)]
pub struct JacobiNoopSink;

impl JacobiCheckpointSink for JacobiNoopSink {
    fn on_checkpoint(&mut self, _view: &JacobiCheckpointView<'_>) -> Result<()> {
        Ok(())
    }
}

/// Distributed solver state recovered from a run log, installed with
/// [`BlockJacobiSolver::resume_from`] before re-running.
///
/// The resume contract matches the single-domain
/// [`ResumePoint`](unsnap_core::solver::ResumePoint): the saved event
/// `prefix` replays into the observer before live iteration continues,
/// so the completed run's outcome, flux and deterministic metrics are
/// bit-for-bit identical to an uninterrupted run's.
#[derive(Debug, Clone, Default)]
pub struct JacobiResumePoint {
    /// The first outer iteration the resumed run will execute.
    pub outer_next: usize,
    /// Halo iterations executed before the checkpoint.
    pub inners_run: usize,
    /// Wall-clock assemble/solve seconds accumulated before the
    /// checkpoint.
    pub sweep_seconds: f64,
    /// Per-halo-iteration convergence history up to the checkpoint.
    pub convergence_history: Vec<f64>,
    /// Global scalar flux φ at the checkpoint, in storage order.
    pub phi: Vec<f64>,
    /// Global angular flux ψ at the checkpoint, in storage order.
    pub psi: Vec<f64>,
    /// Each rank's accounting at the checkpoint, indexed by rank id.
    pub rank_stats: Vec<RunStats>,
    /// Every observer event emitted before the checkpoint, replayed
    /// verbatim on resume.
    pub prefix: EventLog,
}

impl BlockJacobiSolver {
    /// Build the distributed solver for a problem and a 2-D decomposition.
    ///
    /// Every [`Problem`]/`ProblemBuilder` knob flows through: the
    /// iteration strategy ([`Problem::strategy`], selectable via the
    /// `UNSNAP_STRATEGY` builder override), the GMRES restart length, the
    /// dense-solver back end, the scattering-ratio override and the
    /// thread count.
    ///
    /// Fails with [`Error::InvalidProblem`] on a bad problem,
    /// [`Error::Mesh`] when the decomposition does not fit the mesh, and
    /// [`Error::Schedule`] when a rank's masked wavefront schedule cannot
    /// be built.
    pub fn new(problem: &Problem, decomposition: Decomposition2D) -> Result<Self> {
        problem.validate()?;
        // The parallel axis here is the rank loop (each rank sweeps
        // inline), so threads beyond the rank count could never receive
        // work — cap the pool width.
        let pool = worker_pool(problem, decomposition.num_ranks())?;
        let assets = SharedAssets::build(problem, &pool);
        let subdomains = decomposition.try_decompose(&assets.mesh)?;
        let domains = subdomains
            .iter()
            .map(|sd| SweepDomain::new(&assets, &pool, sd.global_cells.clone()))
            .collect::<Result<Vec<_>>>()?;

        let nodes = assets.element.nodes_per_element();
        let cells = assets.mesh.num_cells();
        let order = problem.scheme.loop_order;
        let angles = assets.quadrature.num_angles();
        let psi_layout = FluxLayout::angular(nodes, cells, problem.num_groups, angles, order);
        let scalar_layout = FluxLayout::scalar(nodes, cells, problem.num_groups, order);

        Ok(Self {
            rank_stats: vec![RunStats::default(); subdomains.len()],
            assets,
            decomposition,
            subdomains,
            domains,
            psi: FluxStorage::zeros(psi_layout),
            psi_prev: FluxStorage::zeros(psi_layout),
            phi: FluxStorage::zeros(scalar_layout),
            phi_outer: FluxStorage::zeros(scalar_layout),
            pool,
            resume: None,
        })
    }

    /// The problem this solver was built for.
    pub fn problem(&self) -> &Problem {
        &self.assets.problem
    }

    /// Install recovered state so the next run continues from a
    /// checkpoint instead of starting cold.
    ///
    /// Validates the flux shapes and the rank count against this
    /// solver's layout; the point is consumed by the next
    /// `run`/`run_observed` call.  Each rank's compact local flux
    /// arrays are regathered from the global arrays when the run
    /// starts, so the point only carries global state.
    pub fn resume_from(&mut self, point: JacobiResumePoint) -> Result<()> {
        if point.phi.len() != self.phi.as_slice().len() {
            return Err(Error::Execution {
                reason: format!(
                    "resume state has {} scalar-flux entries, solver expects {}",
                    point.phi.len(),
                    self.phi.as_slice().len()
                ),
            });
        }
        if point.psi.len() != self.psi.as_slice().len() {
            return Err(Error::Execution {
                reason: format!(
                    "resume state has {} angular-flux entries, solver expects {}",
                    point.psi.len(),
                    self.psi.as_slice().len()
                ),
            });
        }
        if point.rank_stats.len() != self.subdomains.len() {
            return Err(Error::Execution {
                reason: format!(
                    "resume state has {} rank-stat entries, solver has {} ranks",
                    point.rank_stats.len(),
                    self.subdomains.len()
                ),
            });
        }
        if point.outer_next > self.assets.problem.outer_iterations {
            return Err(Error::Execution {
                reason: format!(
                    "resume state starts at outer {} but the problem runs only {}",
                    point.outer_next, self.assets.problem.outer_iterations
                ),
            });
        }
        self.resume = Some(point);
        Ok(())
    }

    /// Replace the solver's time source (e.g. with a
    /// [`MockClock`](unsnap_obs::clock::MockClock)).  Rank solves run
    /// concurrently, so under a shared mock the per-rank span lengths
    /// depend on the interleaving — pin wall-clock exactness on the
    /// single-domain solver instead; here the mock only makes timing
    /// reproducible in the aggregate-count sense.
    pub fn set_clock(&mut self, clock: Box<dyn Clock>) {
        self.assets.clock = clock;
    }

    /// The decomposition in use.
    pub fn decomposition(&self) -> Decomposition2D {
        self.decomposition
    }

    /// The rank subdomains.
    pub fn subdomains(&self) -> &[Subdomain] {
        &self.subdomains
    }

    /// The scalar flux after `run`.
    pub fn scalar_flux(&self) -> &FluxStorage {
        &self.phi
    }

    /// Total halo faces across all ranks.
    pub fn total_halo_faces(&self) -> usize {
        self.subdomains.iter().map(|s| s.halo_faces.len()).sum()
    }

    /// Run the block-Jacobi iteration silently.
    ///
    /// Equivalent to [`BlockJacobiSolver::run_observed`] with the silent
    /// observer.
    pub fn run(&mut self) -> Result<BlockJacobiOutcome> {
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
    pub fn run_observed(&mut self, observer: &mut dyn RunObserver) -> Result<BlockJacobiOutcome> {
        self.run_observed_checkpointed(observer, &mut JacobiNoopSink)
    }

    /// [`BlockJacobiSolver::run_observed`] with a durability hook:
    /// `sink` is offered a [`JacobiCheckpointView`] at every
    /// outer-iteration boundary (after the outer's `OuterEnd`
    /// event).  A sink error aborts the run, which is how the
    /// write-ahead log layer injects deterministic crashes.
    pub fn run_observed_checkpointed(
        &mut self,
        observer: &mut dyn RunObserver,
        sink: &mut dyn JacobiCheckpointSink,
    ) -> Result<BlockJacobiOutcome> {
        let (mut outcome, metrics, trace) =
            run_with_telemetry(observer, |tee| self.run_observed_inner(tee, sink))?;
        let timings = || self.rank_stats.iter().map(|stats| stats.kernel_timing);
        outcome.metrics = RunMetrics {
            kernel_assemble_seconds: timings().map(|t| t.assemble_ns as f64 * 1e-9).sum(),
            kernel_solve_seconds: timings().map(|t| t.solve_ns as f64 * 1e-9).sum(),
            ..metrics
        };
        outcome.trace = trace;
        Ok(outcome)
    }

    fn run_observed_inner(
        &mut self,
        observer: &mut dyn RunObserver,
        sink: &mut dyn JacobiCheckpointSink,
    ) -> Result<BlockJacobiOutcome> {
        // Counters and histories are per run (matching TransportSolver,
        // which builds fresh RunStats every run); the flux state and the
        // Krylov workspaces warm-start the next run as before.
        self.rank_stats.fill(RunStats::default());
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
        // `subdomain_krylov_budget` knob (builder:
        // `subdomain_krylov_budget(..)`, env: `UNSNAP_SUBDOMAIN_ITERS`);
        // when unset it falls back to `inner_iterations`, the historical
        // behaviour where one knob capped both the halo loop and each
        // rank's solve.  Both levels exit early at the tolerance.
        let inner_budget = match kind {
            StrategyKind::SourceIteration | StrategyKind::DsaSourceIteration => 1,
            StrategyKind::SweepGmres => problem
                .subdomain_krylov_budget
                .unwrap_or(problem.inner_iterations),
        };
        let (outer_iterations, inner_iterations) =
            (problem.outer_iterations, problem.inner_iterations);
        let tolerance = problem.convergence_tolerance;

        let mut converged = false;
        let mut iterations_to_tolerance = None;

        // Consume any installed resume point: restore the global flux
        // arrays, regather each rank domain's local arrays (the exact
        // inverse of the post-solve merge below), seed the per-rank
        // accounting, and replay the saved event prefix into the
        // observer tee so the caller's stream and the internal metrics
        // aggregator both see the run's full history.
        let (mut history, mut inners_run, mut sweep_seconds, start_outer) = match self.resume.take()
        {
            Some(point) => {
                self.phi.as_mut_slice().copy_from_slice(&point.phi);
                self.psi.as_mut_slice().copy_from_slice(&point.psi);
                self.rank_stats = point.rank_stats;
                for domain in &mut self.domains {
                    domain.gather_from(&self.psi, &self.phi);
                }
                point.prefix.replay(observer);
                (
                    point.convergence_history,
                    point.inners_run,
                    point.sweep_seconds,
                    point.outer_next,
                )
            }
            None => (Vec::new(), 0usize, 0.0, 0),
        };

        for outer in start_outer..outer_iterations {
            observer.on_event(Lane::Driver, &SolveEvent::OuterStart { outer });
            self.phi_outer
                .as_mut_slice()
                .copy_from_slice(self.phi.as_slice());
            let mut outer_converged = false;
            for _inner in 0..inner_iterations {
                inners_run += 1;
                let halo_iteration = inners_run - 1;
                let phi_old: Vec<f64> = self.phi.as_slice().to_vec();

                // Halo "exchange": expose the previous iteration's angular
                // flux to cross-rank upwind reads.  A driver-lane event
                // (never inside a rank's log) carrying the cut-face
                // count and the bytes the exchange publishes.
                let phase = Phase::HaloExchange;
                observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
                let halo_t0 = self.assets.clock.now();
                self.psi_prev
                    .as_mut_slice()
                    .copy_from_slice(self.psi.as_slice());
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
                    bytes: std::mem::size_of_val(self.psi.as_slice()) as u64,
                };
                observer.on_event(Lane::Driver, &exchange);

                let t0 = Instant::now();
                // Every rank runs its strategy-dispatched inner solve
                // concurrently on the worker pool.  Nothing a rank reads
                // is written by another rank within the same iteration:
                // own cells come from the rank's own domain, remote
                // cells from the shared `psi_prev`.  Results and event
                // logs come back in rank order (the pool reassembles in
                // input order), so the outcome and the observer stream
                // are bit-for-bit independent of the interleaving.
                let (assets, phi_outer, halo) = (&self.assets, &self.phi_outer, &self.psi_prev);
                let ranks: Vec<_> = self.domains.iter_mut().zip(&mut self.rank_stats).collect();
                let solves: Result<Vec<(EventLog, bool)>> = self.pool.install(|| {
                    ranks
                        .into_par_iter()
                        .map(|(domain, stats)| {
                            let mut log = EventLog::default();
                            let mut context = DomainContext {
                                assets,
                                pool: None,
                                phi_outer,
                                halo: Some(halo),
                                domain,
                                inner_budget,
                            };
                            let solved = kind.build().run_inners(&mut context, stats, &mut log);
                            solved.map(|rank_converged| (log, rank_converged))
                        })
                        .collect()
                });
                sweep_seconds += t0.elapsed().as_secs_f64();
                // Surface the earliest rank's error before touching the
                // global arrays or the observer.
                let solves = solves?;

                // Merge the rank fluxes into the global arrays and replay
                // the buffered event streams, both in rank order.
                self.phi.fill(0.0);
                for (rank, (log, rank_converged)) in solves.into_iter().enumerate() {
                    self.domains[rank].scatter_into(&mut self.psi, &mut self.phi);
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
                history.push(diff);
                observer.on_event(
                    Lane::Driver,
                    &SolveEvent::InnerIteration {
                        inner: inners_run,
                        relative_change: diff,
                    },
                );
                if tolerance > 0.0 && diff < tolerance {
                    converged = true;
                    outer_converged = true;
                    iterations_to_tolerance = Some(inners_run);
                    break;
                }
            }
            observer.on_event(
                Lane::Driver,
                &SolveEvent::OuterEnd {
                    outer,
                    converged: outer_converged,
                },
            );
            sink.on_checkpoint(&JacobiCheckpointView {
                outer_completed: outer,
                converged: outer_converged,
                inners_run,
                sweep_seconds,
                convergence_history: &history,
                phi: self.phi.as_slice(),
                psi: self.psi.as_slice(),
                rank_stats: self.rank_stats.iter().collect(),
            })?;
            if converged {
                break;
            }
        }

        let per_rank = |counter: fn(&RunStats) -> usize| -> Vec<usize> {
            self.rank_stats.iter().map(counter).collect()
        };
        let rank_sweep_counts = per_rank(|stats| stats.sweeps);
        let rank_krylov_iterations = per_rank(|stats| stats.krylov_iterations);
        let rank_accel_cg_iterations = per_rank(|stats| stats.accel_cg_iterations);
        Ok(BlockJacobiOutcome {
            num_ranks: self.decomposition.num_ranks(),
            strategy: kind,
            inner_iterations: inners_run,
            converged,
            iterations_to_tolerance,
            convergence_history: history,
            assemble_solve_seconds: sweep_seconds,
            scalar_flux_total: self.phi.as_slice().iter().sum(),
            halo_faces: self.total_halo_faces(),
            sweep_count: rank_sweep_counts.iter().sum(),
            krylov_iterations: rank_krylov_iterations.iter().sum(),
            accel_cg_iterations: rank_accel_cg_iterations.iter().sum(),
            rank_sweep_counts,
            rank_krylov_iterations,
            rank_accel_cg_iterations,
            metrics: RunMetrics::default(),
            trace: TraceTree::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_core::session::RecordingObserver;
    use unsnap_core::solver::TransportSolver;
    use unsnap_sweep::ConcurrencyScheme;

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
                assert_eq!(jacobi_out.halo_faces, 0);
                assert_eq!(jacobi_out.num_ranks, 1);
                assert_eq!(jacobi_out.strategy, strategy);
                assert_eq!(jacobi_out.sweep_count, 3);
                assert_eq!(jacobi_out.rank_sweep_counts, vec![3]);
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
                out.rank_sweep_counts,
                out.metrics.cells_swept,
            );
            match &reference {
                None => reference = Some(facts),
                Some(r) => assert_eq!(&facts, r, "scheme {scheme}"),
            }
        }
    }

    #[test]
    fn on_the_fly_integrals_match_precomputed() {
        // The distributed path honours `Problem::precompute_integrals`
        // too, and the two settings agree bit for bit.
        let flux = |precompute: bool| {
            let p = base_problem().with_precomputed_integrals(precompute);
            let mut s = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 1)).unwrap();
            s.run().unwrap();
            phi_bits(s.scalar_flux())
        };
        assert_eq!(flux(true), flux(false));
    }

    #[test]
    fn multi_rank_partition_is_complete() {
        let p = base_problem();
        let solver = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 2)).unwrap();
        let total: usize = solver.subdomains().iter().map(|s| s.num_cells()).sum();
        assert_eq!(total, p.num_cells());
        assert!(solver.total_halo_faces() > 0);
        assert_eq!(solver.decomposition().num_ranks(), 4);
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
            iterations.push(out.iterations_to_tolerance.unwrap());
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
        assert_eq!(gm_out.strategy, StrategyKind::SweepGmres);
        assert!(gm_out.krylov_iterations > 0);
        assert_eq!(gm_out.rank_krylov_iterations.len(), 2);
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
        assert_eq!(dsa_out.strategy, StrategyKind::DsaSourceIteration);
        assert_eq!(si_out.accel_cg_iterations, 0);
        assert!(dsa_out.accel_cg_iterations > 0);
        assert_eq!(dsa_out.rank_accel_cg_iterations.len(), 2);
        assert!(dsa_out.rank_accel_cg_iterations.iter().all(|&its| its > 0));
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
        a.assemble_solve_seconds = 0.0;
        b.assemble_solve_seconds = 0.0;
        a.metrics.zero_wallclock();
        b.metrics.zero_wallclock();
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
        for (rank, &its) in capped_out.rank_krylov_iterations.iter().enumerate() {
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
        assert_eq!(second.rank_sweep_counts, vec![3, 3]);
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
        assert_eq!(m.halo_faces, out.halo_faces * out.inner_iterations);
        assert!(m.halo_bytes > 0);
        assert_eq!(m.phase_count(Phase::Sweep), out.sweep_count);
        assert_eq!(m.phase_count(Phase::HaloExchange), out.inner_iterations);
        assert_eq!(m.cells_per_sweep.count() as usize, out.sweep_count);
        // Kernel timers are summed over the rank stats of this run.
        assert!(m.kernel_assemble_seconds > 0.0);
    }

    #[test]
    fn observer_counts_match_rank_counters() {
        let mut p = base_problem();
        p.inner_iterations = 4;
        let mut s = BlockJacobiSolver::new(&p, Decomposition2D::new(2, 2)).unwrap();
        let mut recorder = RecordingObserver::default();
        let out = s.run_observed(&mut recorder).unwrap();

        assert_eq!(recorder.rank_records.len(), 4);
        for (rank, record) in recorder.rank_records.iter().enumerate() {
            assert_eq!(record.sweep_count, out.rank_sweep_counts[rank]);
            assert_eq!(record.outers_started, out.inner_iterations);
            assert_eq!(record.outers_completed, out.inner_iterations);
        }
        // The global stream reports the merged convergence history.
        assert_eq!(recorder.convergence_history, out.convergence_history);
        assert_eq!(recorder.outers_started, 1);
    }
}
