//! The run protocol — the one outer-iteration loop, checkpoint shape and
//! [`SolveOutcome`] every driver shares ([`run_outers`]) — and its
//! single-domain driver, [`TransportSolver`], around the shared sweep
//! path of [`crate::domain`].
//!
//! The solver follows SNAP's iteration structure (which UnSNAP inherits,
//! §III of the paper):
//!
//! * **outer iterations** resolve the group-to-group coupling of the
//!   scattering source with Jacobi iterations;
//! * **inner (source) iterations** lag the within-group scattering source;
//! * each inner iteration performs one full **sweep** of the solver's
//!   one [`SweepDomain`]: for every angle, the wavefront buckets of that
//!   angle's schedule are processed in order, and inside a bucket the
//!   element × group work is iterated as the selected
//!   [`ConcurrencyScheme`](unsnap_sweep::ConcurrencyScheme) says (the six
//!   variants of Figures 3/4, which fork per bucket, or the default
//!   angle-threaded scheme, which forks once per sweep).
//!
//! The assemble/solve region is timed as a whole (the quantity plotted in
//! Figures 3 and 4 and tabulated in Table II), and — when
//! `Problem::time_solve` is set — the linear-solve share is accumulated
//! separately so the "% in solve" column of Table II can be reproduced.
//!
//! The fan-out executes on a **real worker pool** sized by
//! `Problem::num_threads` (force-overridable with `RAYON_NUM_THREADS`).
//! Bucket tasks are split into index-ordered chunks whose results are
//! written back in input order, angles are swept into slabs of their own
//! and the scalar flux takes them in ascending angle order, so every scheme
//! produces bit-for-bit identical fluxes at any thread count — the
//! invariant `tests/parallel_determinism.rs` enforces.

use std::time::{Duration, Instant};

use unsnap_mesh::UnstructuredMesh;
use unsnap_obs::clock::Clock;
use unsnap_obs::trace::TraceTree;
use unsnap_sweep::{SweepSchedule, ThreadedLoops};

use crate::angular::AngularQuadrature;
use crate::cancel::CancelToken;
use crate::domain::{worker_pool, DomainContext, SharedAssets, SweepDomain};
use crate::error::{Error, Result};
use crate::kernel::KernelTiming;
use crate::layout::FluxStorage;
use crate::metrics::RunMetrics;
use crate::problem::Problem;
use crate::session::{
    run_with_telemetry, EventLog, Lane, NoopObserver, Phase, RunObserver, SolveEvent,
};
use crate::strategy::{AcceleratorKind, InnerSolveContext, StrategyKind};

/// The per-rank detail a block-Jacobi solve adds to its [`SolveOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankDetail {
    /// Number of ranks (Jacobi blocks).
    pub num_ranks: usize,
    /// Inner-iteration strategy the ranks dispatched to.
    pub strategy: StrategyKind,
    /// Total halo faces across all ranks (faces refreshed per iteration).
    pub halo_faces: usize,
    /// Halo iterations needed to reach the tolerance (if it was reached).
    pub iterations_to_tolerance: Option<usize>,
    /// Sweeps executed by each rank, indexed by rank id.
    pub sweep_counts: Vec<usize>,
    /// Krylov iterations executed by each rank, indexed by rank id.
    pub krylov_iterations: Vec<usize>,
    /// Low-order DSA CG iterations executed by each rank.
    pub accel_cg_iterations: Vec<usize>,
}

/// Summary of a completed transport solve, on one domain or many.
///
/// On a block-Jacobi solve the work counters (sweeps, Krylov and CG
/// iterations, kernel time and invocations) are sums over the ranks,
/// `inner_iterations`/`convergence_history`/`assemble_solve_seconds`
/// count halo iterations and the parallel region around them, and the
/// residual histories are empty (per-rank trajectories stream through
/// the observer).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Inner iterations actually executed (across all outers).  For
    /// source iteration every inner iteration is one sweep; for the
    /// Krylov strategies it is one Krylov step (also one sweep).
    pub inner_iterations: usize,
    /// Outer iterations executed — not the budget: a run that converges
    /// early reports fewer, and a resumed run counts the outers before
    /// its checkpoint too.
    pub outer_iterations: usize,
    /// Full transport sweeps executed, including the right-hand-side and
    /// consistency sweeps of the Krylov strategies.  This is the honest
    /// unit of work for comparing iteration strategies.
    pub sweep_count: usize,
    /// Krylov iterations executed (zero under plain source iteration).
    pub krylov_iterations: usize,
    /// Relative Krylov residual trajectory, concatenated across outer
    /// iterations (empty under plain source iteration).
    pub krylov_residual_history: Vec<f64>,
    /// Low-order DSA CG iterations executed (zero unless the `DSA-SI`
    /// strategy or DSA-preconditioned GMRES ran).  These are *not*
    /// sweeps: the low-order system is `nodes × angles` times smaller
    /// than the transport system.
    pub accel_cg_iterations: usize,
    /// Relative DSA CG residual trajectory, concatenated across
    /// correction solves (empty when DSA is off).
    pub accel_residual_history: Vec<f64>,
    /// Whether the scalar flux met the convergence tolerance.
    pub converged: bool,
    /// Maximum relative scalar-flux change after each inner iteration.
    pub convergence_history: Vec<f64>,
    /// Wall-clock seconds spent in the assemble/solve (sweep) region —
    /// the quantity reported by Figures 3/4 and Table II.
    pub assemble_solve_seconds: f64,
    /// Accumulated per-kernel assembly time in seconds (summed over all
    /// worker threads, so it can exceed the wall-clock time).
    pub kernel_assemble_seconds: f64,
    /// Accumulated per-kernel solve time in seconds (only populated when
    /// `Problem::time_solve` is enabled).
    pub kernel_solve_seconds: f64,
    /// Number of local systems assembled and solved.
    pub kernel_invocations: u64,
    /// Sum of the scalar flux over all nodes, elements and groups.
    pub scalar_flux_total: f64,
    /// Maximum scalar-flux value.
    pub scalar_flux_max: f64,
    /// Minimum scalar-flux value.
    pub scalar_flux_min: f64,
    /// The run's telemetry snapshot, aggregated from the full observer
    /// event stream by the solver's internal
    /// [`crate::metrics::MetricsObserver`] — attached
    /// to every outcome with no caller wiring.  Deterministic half is
    /// bit-for-bit thread/rank-count invariant; the wall-clock half is
    /// stripped by [`RunMetrics::zero_wallclock`] before such
    /// comparisons.
    pub metrics: RunMetrics,
    /// The run's hierarchical span tree, built by the solver's internal
    /// [`crate::trace::TraceObserver`] tee.  Structure (ids, nesting,
    /// lanes, counts) is deterministic; timestamps are wall-clock and
    /// ignored by `PartialEq`.  Excluded from [`SolveOutcome::to_json`]
    /// — export it with [`TraceTree::to_chrome_json`] or
    /// [`TraceTree::to_collapsed`] instead.
    pub trace: TraceTree,
    /// Per-rank detail; `None` on a single-domain solve.
    pub ranks: Option<RankDetail>,
}

impl SolveOutcome {
    /// Fraction of the accumulated kernel time spent in the linear solve
    /// (the "% in solve" column of Table II).  Zero when solve timing was
    /// disabled.
    pub fn solve_fraction(&self) -> f64 {
        let total = self.kernel_assemble_seconds + self.kernel_solve_seconds;
        if total == 0.0 {
            0.0
        } else {
            self.kernel_solve_seconds / total
        }
    }

    /// Sum of the scalar flux (alias kept for API clarity in examples).
    pub fn scalar_flux_total(&self) -> f64 {
        self.scalar_flux_total
    }

    /// Serialise the outcome as a JSON object (via the workspace's
    /// hand-rolled [`json`](unsnap_obs::json) writer).
    ///
    /// Doubles are written in shortest-round-trip form, so tooling that
    /// parses the dump recovers the exact values; non-finite entries
    /// become `null`.  The [`RankDetail`] keys are appended only when
    /// present, so a single-domain dump never changes shape.
    pub fn to_json(&self) -> String {
        let object = unsnap_obs::json::JsonObject::new()
            .field_usize("inner_iterations", self.inner_iterations)
            .field_usize("outer_iterations", self.outer_iterations)
            .field_usize("sweep_count", self.sweep_count)
            .field_usize("krylov_iterations", self.krylov_iterations)
            .field_f64_array("krylov_residual_history", &self.krylov_residual_history)
            .field_usize("accel_cg_iterations", self.accel_cg_iterations)
            .field_f64_array("accel_residual_history", &self.accel_residual_history)
            .field_bool("converged", self.converged)
            .field_f64_array("convergence_history", &self.convergence_history)
            .field_f64("assemble_solve_seconds", self.assemble_solve_seconds)
            .field_f64("kernel_assemble_seconds", self.kernel_assemble_seconds)
            .field_f64("kernel_solve_seconds", self.kernel_solve_seconds)
            .field_u64("kernel_invocations", self.kernel_invocations)
            .field_f64("scalar_flux_total", self.scalar_flux_total)
            .field_f64("scalar_flux_max", self.scalar_flux_max)
            .field_f64("scalar_flux_min", self.scalar_flux_min)
            .field_raw("metrics", &self.metrics.to_json());
        let Some(ranks) = &self.ranks else {
            return object.finish();
        };
        let to_tolerance = ranks.iterations_to_tolerance.map(|i| i.to_string());
        object
            .field_usize("num_ranks", ranks.num_ranks)
            .field_str("strategy", ranks.strategy.label())
            .field_raw(
                "iterations_to_tolerance",
                to_tolerance.as_deref().unwrap_or("null"),
            )
            .field_usize("halo_faces", ranks.halo_faces)
            .field_usize_array("rank_sweep_counts", &ranks.sweep_counts)
            .field_usize_array("rank_krylov_iterations", &ranks.krylov_iterations)
            .field_usize_array("rank_accel_cg_iterations", &ranks.accel_cg_iterations)
            .finish()
    }
}

impl std::fmt::Display for SolveOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let summary = crate::report::iteration_summary(self);
        match &self.ranks {
            Some(ranks) => write!(
                f,
                "{} ranks ({}): {summary}, {} halo faces",
                ranks.num_ranks, ranks.strategy, ranks.halo_faces
            ),
            None => f.write_str(&summary),
        }
    }
}

/// Work and convergence accounting shared between the solver driver and
/// the [`IterationStrategy`](crate::strategy::IterationStrategy)
/// implementations.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Inner iterations executed (SI sweeps or Krylov steps).
    pub inner_iterations: usize,
    /// Full transport sweeps executed.
    pub sweeps: usize,
    /// Wall-clock seconds spent inside the sweep region.
    pub sweep_seconds: f64,
    /// Accumulated per-kernel assemble/solve timing.
    pub kernel_timing: KernelTiming,
    /// Local systems assembled and solved.
    pub kernel_invocations: u64,
    /// Maximum relative scalar-flux change per inner iteration.
    pub convergence_history: Vec<f64>,
    /// Krylov iterations executed.
    pub krylov_iterations: usize,
    /// Relative Krylov residuals, concatenated across outer iterations.
    pub krylov_residual_history: Vec<f64>,
    /// Low-order DSA CG iterations executed.
    pub accel_cg_iterations: usize,
    /// Relative DSA CG residuals, concatenated across correction solves.
    pub accel_residual_history: Vec<f64>,
}

/// A borrowed, consistent snapshot of solver state at an outer-iteration
/// boundary — everything a durable run log needs to restart the solve
/// from this point (see [`ResumePoint`]).
///
/// Only the global φ, the halo ψ and the accumulated accounting are
/// exposed: every other piece of solver state (`phi_outer`, `phi_inner`,
/// the assembled source, Krylov and DSA scratch, a rank's compact local
/// arrays — its own ψ included, which a sweep overwrites entry by entry
/// before reading it) is overwritten or regathered before it is read on
/// the next outer iteration, so checkpointing it would be dead weight.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    /// The outer iteration that just completed (0-based).
    pub outer_completed: usize,
    /// Whether that outer iteration met the tolerance (a converged run
    /// has nothing left to resume).
    pub converged: bool,
    /// Global scalar flux φ, in storage order.
    pub phi: &'a [f64],
    /// Angular flux of the cells on a cut between ranks
    /// ([`HaloFlux`](crate::domain::HaloFlux)), in storage order; empty
    /// for a single-domain run.
    pub halo: &'a [f64],
    /// The driver's work and convergence accounting so far.  For a
    /// block-Jacobi run: halo iterations, the seconds of the parallel
    /// region around the rank solves and the per-halo-iteration history.
    pub stats: &'a RunStats,
    /// Each rank's accumulated accounting, indexed by rank id; empty for
    /// a single-domain run.
    pub rank_stats: &'a [RunStats],
}

/// A durability hook invoked at every outer-iteration boundary of an
/// observed run (after the outer's `OuterEnd` event, while the flux
/// arrays are quiescent).  An error return aborts the solve — the write-ahead log
/// layer uses this to simulate crashes deterministically.
pub trait CheckpointSink {
    /// Persist (or skip) a checkpoint of the given state.
    fn on_checkpoint(&mut self, view: &CheckpointView<'_>) -> Result<()>;
}

/// The sink used when nobody is checkpointing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl CheckpointSink for NoopSink {
    fn on_checkpoint(&mut self, _view: &CheckpointView<'_>) -> Result<()> {
        Ok(())
    }
}

/// Solver state recovered from a run log, to be installed with a
/// driver's `resume_from` before re-running.
///
/// The resume contract: a run restarted from a `ResumePoint` produces a
/// [`SolveOutcome`] (flux, deterministic counters, histories, metrics)
/// and an observer event stream bit-for-bit identical to the
/// uninterrupted run's, because the saved `prefix` is replayed into the
/// observer before live iteration continues at `outer_next`.
#[derive(Debug, Clone, Default)]
pub struct ResumePoint {
    /// The first outer iteration the resumed run will execute.
    pub outer_next: usize,
    /// The driver's accounting accumulated up to the checkpoint.
    pub stats: RunStats,
    /// Global scalar flux φ at the checkpoint, in storage order.
    pub phi: Vec<f64>,
    /// Halo angular flux at the checkpoint, in storage order; empty for a
    /// single-domain run, whose sweeps read no ψ they did not write.
    pub halo: Vec<f64>,
    /// Each rank's accounting at the checkpoint, indexed by rank id;
    /// empty for a single-domain run.
    pub rank_stats: Vec<RunStats>,
    /// Every observer event emitted before the checkpoint, replayed
    /// verbatim on resume so streams and metrics match the original run.
    pub prefix: EventLog,
}

/// The run protocol's own state, embedded in every driver: what the next
/// run consumes before its first outer iteration and polls between them.
#[derive(Debug, Default)]
pub struct RunControl {
    /// Recovered state installed by [`install_resume`].
    resume: Option<ResumePoint>,
    /// Cooperative cancellation flag (see [`crate::cancel`]); `None` =
    /// never cancellable.
    cancel: Option<CancelToken>,
    /// Seconds of construction-time set-up still to be reported as the
    /// one-shot [`Phase::Preassembly`] span (the work happened once, so
    /// only the first observed run reports it).
    preassembly_seconds: Option<f64>,
}

/// What a solver supplies to [`run_outers`]: where the flux that
/// survives an iteration lives, how checkpointed state is reinstalled,
/// and the body of one outer iteration.  Everything around those —
/// resume, cancellation, events, checkpoints, the outcome — is the
/// protocol's.
pub trait OuterDriver {
    /// The problem being solved.
    fn problem(&self) -> &Problem;

    /// The protocol state embedded in this driver.
    fn control(&mut self) -> &mut RunControl;

    /// The global scalar flux φ and the halo angular flux (empty without
    /// ranks), in storage order.
    fn flux(&self) -> (&[f64], &[f64]);

    /// Each rank's accounting for the current run, indexed by rank id;
    /// empty when the driver's own [`RunStats`] count the work.
    fn rank_stats(&self) -> &[RunStats] {
        &[]
    }

    /// Total halo faces across all ranks.
    fn halo_faces(&self) -> usize {
        0
    }

    /// Reinstall checkpointed state (shapes already validated by
    /// [`install_resume`]).
    fn restore(&mut self, phi: &[f64], halo: &[f64], rank_stats: Vec<RunStats>);

    /// Run one outer iteration, accumulating the driver-level accounting
    /// into `stats`; returns whether the tolerance was met.
    fn run_outer(&mut self, stats: &mut RunStats, observer: &mut dyn RunObserver) -> Result<bool>;
}

/// Validate `point` against `driver`'s layout and arm it for the next
/// run.  The run log's manifest hash should already have guaranteed the
/// problem matches, but a torn or foreign log must fail loudly, not
/// corrupt state.
pub fn install_resume(driver: &mut dyn OuterDriver, point: ResumePoint) -> Result<()> {
    let ((phi, halo), ranks) = (driver.flux(), driver.rank_stats());
    let shapes = [
        ("scalar-flux", point.phi.len(), phi.len()),
        ("halo-flux", point.halo.len(), halo.len()),
        ("rank-stat", point.rank_stats.len(), ranks.len()),
    ];
    for (what, found, expected) in shapes {
        if found != expected {
            return Err(Error::Execution {
                reason: format!(
                    "resume state has {found} {what} entries, solver expects {expected}"
                ),
            });
        }
    }
    let outer_iterations = driver.problem().outer_iterations;
    if point.outer_next > outer_iterations {
        return Err(Error::Execution {
            reason: format!(
                "resume state starts at outer {} but the problem runs only {outer_iterations}",
                point.outer_next
            ),
        });
    }
    driver.control().resume = Some(point);
    Ok(())
}

/// The outer-iteration protocol, written once for every driver: consume
/// an installed [`ResumePoint`], report the one-shot preassembly span,
/// then per outer iteration poll cancellation, bracket
/// [`OuterDriver::run_outer`] with `OuterStart`/`OuterEnd`, offer `sink`
/// a [`CheckpointView`] and stop at convergence; finally build the
/// [`SolveOutcome`], telemetry attached.
pub fn run_outers(
    driver: &mut dyn OuterDriver,
    observer: &mut dyn RunObserver,
    sink: &mut dyn CheckpointSink,
) -> Result<SolveOutcome> {
    let ((mut stats, converged, outers_run), metrics, trace) =
        run_with_telemetry(observer, |observer| {
            // Restore the flux state, replay the saved event prefix into the
            // observer tee (so the caller's stream and the internal metrics
            // aggregator both see the run's full history), and continue
            // from the saved outer.  The preassembly span is part of the
            // replayed prefix, so it must not be reported again.
            let control = driver.control();
            let resume = control.resume.take();
            let preassembly = control.preassembly_seconds.take();
            let (mut stats, start_outer) = match resume {
                Some(point) => {
                    driver.restore(&point.phi, &point.halo, point.rank_stats);
                    point.prefix.replay(observer);
                    (point.stats, point.outer_next)
                }
                None => {
                    if let Some(seconds) = preassembly {
                        let phase = Phase::Preassembly;
                        observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
                        observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
                    }
                    (RunStats::default(), 0)
                }
            };
            let (mut converged, mut outers_run) = (false, start_outer);
            for outer in start_outer..driver.problem().outer_iterations {
                let cancel = driver.control().cancel.as_ref();
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    return Err(Error::Cancelled { outer });
                }
                observer.on_event(Lane::Driver, &SolveEvent::OuterStart { outer });
                converged = driver.run_outer(&mut stats, observer)?;
                observer.on_event(Lane::Driver, &SolveEvent::OuterEnd { outer, converged });
                outers_run = outer + 1;
                let (phi, halo) = driver.flux();
                sink.on_checkpoint(&CheckpointView {
                    outer_completed: outer,
                    converged,
                    phi,
                    halo,
                    stats: &stats,
                    rank_stats: driver.rank_stats(),
                })?;
                if converged {
                    break;
                }
            }
            Ok((stats, converged, outers_run))
        })?;

    // The work counters live with whoever swept: where there are ranks
    // the driver's own are zero, and the totals are sums over the ranks.
    let rank_stats = driver.rank_stats();
    for rank in rank_stats {
        stats.sweeps += rank.sweeps;
        stats.krylov_iterations += rank.krylov_iterations;
        stats.accel_cg_iterations += rank.accel_cg_iterations;
        stats.kernel_invocations += rank.kernel_invocations;
        stats.kernel_timing.accumulate(rank.kernel_timing);
    }
    let per_rank = |counter: fn(&RunStats) -> usize| rank_stats.iter().map(counter).collect();
    let ranks = (!rank_stats.is_empty()).then(|| RankDetail {
        num_ranks: rank_stats.len(),
        strategy: driver.problem().strategy,
        halo_faces: driver.halo_faces(),
        iterations_to_tolerance: converged.then_some(stats.inner_iterations),
        sweep_counts: per_rank(|s| s.sweeps),
        krylov_iterations: per_rank(|s| s.krylov_iterations),
        accel_cg_iterations: per_rank(|s| s.accel_cg_iterations),
    });
    let (phi, _) = driver.flux();
    let kernel_assemble_seconds = stats.kernel_timing.assemble_ns as f64 * 1e-9;
    let kernel_solve_seconds = stats.kernel_timing.solve_ns as f64 * 1e-9;

    Ok(SolveOutcome {
        inner_iterations: stats.inner_iterations,
        outer_iterations: outers_run,
        sweep_count: stats.sweeps,
        krylov_iterations: stats.krylov_iterations,
        krylov_residual_history: stats.krylov_residual_history,
        accel_cg_iterations: stats.accel_cg_iterations,
        accel_residual_history: stats.accel_residual_history,
        converged,
        convergence_history: stats.convergence_history,
        assemble_solve_seconds: stats.sweep_seconds,
        kernel_assemble_seconds,
        kernel_solve_seconds,
        kernel_invocations: stats.kernel_invocations,
        scalar_flux_total: phi.iter().sum(),
        scalar_flux_max: phi.iter().fold(f64::MIN, |m, &x| m.max(x)),
        scalar_flux_min: phi.iter().fold(f64::MAX, |m, &x| m.min(x)),
        metrics: RunMetrics {
            kernel_assemble_seconds,
            kernel_solve_seconds,
            ..metrics
        },
        trace,
        ranks,
    })
}

/// The UnSNAP transport solver for a single (serial or threaded) domain:
/// the 1-domain case of the shared sweep path in [`crate::domain`].
pub struct TransportSolver {
    /// Mesh, element, integrals, quadrature, data, back end, clock.
    assets: SharedAssets,
    /// Worker pool the sweep fans out on, sized according to
    /// `Problem::num_threads` (a width of 1 runs inline on this thread).
    pool: rayon::ThreadPool,
    /// The one domain, owning every cell: its φ buffers *are* the global
    /// arrays.
    domain: SweepDomain,
    /// Scalar flux at the previous outer iteration.
    phi_outer: FluxStorage,
    /// Resume point, cancellation token and the wall-clock seconds spent
    /// precomputing integrals and sweep schedules in
    /// [`TransportSolver::new`].
    control: RunControl,
}

impl TransportSolver {
    /// Build a solver for the given problem.
    pub fn new(problem: &Problem) -> Result<Self> {
        problem.validate()?;
        // The angle-threaded scheme hands out whole angles: a worker
        // beyond the angle count could never be given one.
        let max_width = match problem.scheme.threaded {
            ThreadedLoops::Angles => problem.num_angles(),
            _ => usize::MAX,
        };
        let pool = worker_pool(problem, max_width)?;
        let assets = SharedAssets::build(problem, &pool);
        let t0 = Instant::now();
        let domain = SweepDomain::new(&assets, &pool, (0..assets.mesh.num_cells()).collect())?;
        let preassembly_seconds = assets.integrals_seconds + t0.elapsed().as_secs_f64();
        Ok(Self {
            phi_outer: FluxStorage::zeros(*domain.phi.layout()),
            assets,
            pool,
            domain,
            control: RunControl {
                preassembly_seconds: Some(preassembly_seconds),
                ..RunControl::default()
            },
        })
    }

    /// Install recovered state so the next run continues from a
    /// checkpoint instead of starting cold.
    ///
    /// Validates the flux shapes against this solver's layout (see
    /// [`install_resume`]).  The point is consumed by the next
    /// `run`/`run_observed` call; an untouched solver runs normally.
    pub fn resume_from(&mut self, point: ResumePoint) -> Result<()> {
        install_resume(self, point)
    }

    /// Replace the solver's time source.
    ///
    /// Tests inject a [`MockClock`](unsnap_obs::clock::MockClock) here
    /// to pin the wall-clock metrics (phase seconds, per-sweep latency)
    /// to exact values; deterministic metrics never read the clock and
    /// are unaffected.
    pub fn set_clock(&mut self, clock: Box<dyn Clock>) {
        self.assets.clock = clock;
    }

    /// The problem this solver was built for.
    pub fn problem(&self) -> &Problem {
        &self.assets.problem
    }

    /// Arm cooperative cancellation: subsequent runs poll `token` at
    /// every outer-iteration boundary and bail out with
    /// [`Error::Cancelled`] once it fires (see [`crate::cancel`]).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.control.cancel = Some(token);
    }

    /// Disarm cancellation; subsequent runs ignore any previous token.
    pub fn clear_cancel_token(&mut self) {
        self.control.cancel = None;
    }

    /// The armed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.control.cancel.as_ref()
    }

    /// The mesh the solver operates on.
    pub fn mesh(&self) -> &UnstructuredMesh {
        &self.assets.mesh
    }

    /// The angular quadrature in use.
    pub fn quadrature(&self) -> &AngularQuadrature {
        &self.assets.quadrature
    }

    /// The scalar flux after the most recent `run`.
    pub fn scalar_flux(&self) -> &FluxStorage {
        &self.domain.phi
    }

    /// Keep ψ of every angle from the next sweep on.  A solve needs none
    /// of it — a sweep holds ψ of a few angles at a time and folds each
    /// into φ — so this is cells × angles of memory
    /// ([`Problem::angular_flux_bytes`]) for callers that compare ψ.
    pub fn keep_angular_flux(&mut self) {
        self.domain.keep_angular_flux();
    }

    /// The angular flux of the most recent sweep, when
    /// [`TransportSolver::keep_angular_flux`] asked for it to be kept.
    pub fn angular_flux(&self) -> Option<&FluxStorage> {
        self.domain.kept.as_ref()
    }

    /// The per-angle sweep schedules.
    pub fn schedules(&self) -> &[SweepSchedule] {
        &self.domain.schedules
    }

    /// Run the full outer/inner iteration structure and return a summary.
    ///
    /// Equivalent to [`TransportSolver::run_observed`] with a silent
    /// observer.  Most callers should prefer a
    /// [`Session`](crate::session::Session), which owns the solver state
    /// and exposes both entry points.
    pub fn run(&mut self) -> Result<SolveOutcome> {
        self.run_observed(&mut NoopObserver)
    }

    /// Run the full outer/inner iteration structure, streaming progress
    /// events to `observer`, and return a summary.
    ///
    /// The outer (Jacobi group-coupling) loop is [`run_outers`]; each
    /// outer iteration hands the within-group solve to the
    /// [`IterationStrategy`](crate::strategy::IterationStrategy) selected
    /// by [`Problem::strategy`](crate::problem::Problem).
    pub fn run_observed(&mut self, observer: &mut dyn RunObserver) -> Result<SolveOutcome> {
        self.run_observed_checkpointed(observer, &mut NoopSink)
    }

    /// [`TransportSolver::run_observed`] with a durability hook: `sink`
    /// is offered a [`CheckpointView`] at every outer-iteration boundary
    /// (after the outer's `OuterEnd` event).  A sink error aborts
    /// the run, which is how the write-ahead log layer injects
    /// deterministic crashes.
    pub fn run_observed_checkpointed(
        &mut self,
        observer: &mut dyn RunObserver,
        sink: &mut dyn CheckpointSink,
    ) -> Result<SolveOutcome> {
        run_outers(self, observer, sink)
    }

    /// This solver as the 1-domain inner-solve context: every cell owned,
    /// no halo, sweeps forking on the solver's pool.
    fn context(&mut self) -> DomainContext<'_> {
        DomainContext {
            assets: &self.assets,
            pool: Some(&self.pool),
            phi_outer: &self.phi_outer,
            halo: None,
            domain: &mut self.domain,
            inner_budget: self.assets.problem.inner_iterations,
        }
    }
}

/// The one-domain driver: the domain's own φ is the global flux, there
/// is no cut and so no halo, and one outer iteration is one
/// strategy-dispatched inner solve.
impl OuterDriver for TransportSolver {
    fn problem(&self) -> &Problem {
        &self.assets.problem
    }

    fn control(&mut self) -> &mut RunControl {
        &mut self.control
    }

    fn flux(&self) -> (&[f64], &[f64]) {
        (self.domain.phi.as_slice(), &[])
    }

    fn restore(&mut self, phi: &[f64], _halo: &[f64], _rank_stats: Vec<RunStats>) {
        self.domain.phi.as_mut_slice().copy_from_slice(phi);
    }

    fn run_outer(&mut self, stats: &mut RunStats, observer: &mut dyn RunObserver) -> Result<bool> {
        self.phi_outer
            .as_mut_slice()
            .copy_from_slice(self.domain.phi.as_slice());
        let strategy = self.assets.problem.strategy.build();
        strategy.run_inners(&mut self.context(), stats, observer)
    }
}

/// The solver as an inner-solve context, for callers that drive a solve
/// by hand: every method forwards to the solver's [`DomainContext`], the
/// one real implementation.
impl InnerSolveContext for TransportSolver {
    fn inner_iteration_budget(&self) -> usize {
        self.assets.problem.inner_iterations
    }

    fn convergence_tolerance(&self) -> f64 {
        self.assets.problem.convergence_tolerance
    }

    fn now(&self) -> Duration {
        self.assets.clock.now()
    }

    fn gmres_restart(&self) -> usize {
        self.assets.problem.gmres_restart
    }

    fn compute_source(&mut self) {
        self.context().compute_source();
    }

    fn compute_external_source(&mut self) {
        self.context().compute_external_source();
    }

    fn set_source_to_within_group_scatter(&mut self, v: &[f64]) {
        self.context().set_source_to_within_group_scatter(v);
    }

    fn set_homogeneous_boundaries(&mut self, on: bool) {
        self.context().set_homogeneous_boundaries(on);
    }

    fn sweep_once(&mut self, stats: &mut RunStats, observer: &mut dyn RunObserver) {
        self.context().sweep_once(stats, observer);
    }

    fn save_phi_inner(&mut self) {
        self.context().save_phi_inner();
    }

    fn set_phi(&mut self, v: &[f64]) {
        self.context().set_phi(v);
    }

    fn phi_slice(&self) -> &[f64] {
        self.domain.phi.as_slice()
    }

    fn phi_inner_slice(&self) -> &[f64] {
        self.domain.phi_inner.as_slice()
    }

    fn take_krylov_workspace(&mut self) -> unsnap_krylov::GmresWorkspace {
        self.context().take_krylov_workspace()
    }

    fn put_krylov_workspace(&mut self, workspace: unsnap_krylov::GmresWorkspace) {
        self.context().put_krylov_workspace(workspace);
    }

    fn accelerator(&self) -> AcceleratorKind {
        self.assets.problem.accelerator
    }

    fn dsa_correct(
        &mut self,
        previous: &[f64],
        stats: &mut RunStats,
        observer: &mut dyn RunObserver,
    ) -> Result<()> {
        self.context().dsa_correct(previous, stats, observer)
    }
}

/// Maximum relative pointwise change between two flux arrays — the
/// convergence measure of the SNAP-style iteration drivers.
///
/// The result is always a defined, non-NaN value:
///
/// * when the reference (`old`) vector is all zeros and `new` is too —
///   including the empty-slice case — every term is `0 / 1e-12` and the
///   change is `0.0` (nothing moved);
/// * zero reference entries with nonzero new entries are measured against
///   the `1e-12` floor, yielding a large but finite change (returning 0
///   here would falsely report convergence of the very first iterate,
///   which always starts from a zero flux);
/// * a non-finite difference (NaN/∞ anywhere in the inputs) reports
///   `f64::INFINITY`, so a poisoned flux can never pass a `< tolerance`
///   convergence test.  (The previous `fold(max)` silently *ignored* NaN
///   entries.)
pub fn relative_change(new: &[f64], old: &[f64]) -> f64 {
    let floor = 1e-12;
    new.iter().zip(old.iter()).fold(0.0, |m, (a, b)| {
        let d = (a - b).abs() / b.abs().max(floor);
        if d.is_nan() {
            f64::INFINITY
        } else {
            m.max(d)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SourceOption;
    use unsnap_linalg::SolverKind;
    use unsnap_mesh::boundary::DomainBoundaries;
    use unsnap_sweep::ConcurrencyScheme;

    #[test]
    fn tiny_problem_runs_and_produces_positive_flux() {
        let mut solver = TransportSolver::new(&Problem::tiny()).unwrap();
        let outcome = solver.run().unwrap();
        assert_eq!(outcome.inner_iterations, 2);
        assert!(outcome.scalar_flux_total > 0.0);
        // Small DG undershoots near the vacuum boundary are permitted.
        assert!(outcome.scalar_flux_min > -1e-6);
        assert!(outcome.kernel_invocations > 0);
        assert!(outcome.assemble_solve_seconds > 0.0);
        // 3³ cells × 2 groups × 16 angles × 2 inners kernel calls.
        assert_eq!(outcome.kernel_invocations, 27 * 2 * 16 * 2);
    }

    #[test]
    fn all_schemes_give_identical_physics() {
        // The six figure schemes and the angle-threaded one must all
        // produce the same scalar flux (they only change execution order).
        let base = Problem::tiny().with_threads(2);
        let mut reference: Option<Vec<f64>> = None;
        let mut schemes = ConcurrencyScheme::figure_schemes();
        schemes.push(ConcurrencyScheme::best());
        for scheme in schemes {
            let p = base.clone().with_scheme(scheme);
            let mut solver = TransportSolver::new(&p).unwrap();
            solver.run().unwrap();
            // Compare in a layout-independent way.
            let nodes = p.nodes_per_element();
            let mut values = Vec::new();
            for e in 0..p.num_cells() {
                for g in 0..p.num_groups {
                    values.extend_from_slice(solver.scalar_flux().nodes(e, g, 0));
                    assert_eq!(solver.scalar_flux().nodes(e, g, 0).len(), nodes);
                }
            }
            match &reference {
                None => reference = Some(values),
                Some(r) => {
                    let max_diff = r
                        .iter()
                        .zip(values.iter())
                        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                    assert!(
                        max_diff < 1e-10,
                        "scheme {scheme} diverges from reference by {max_diff}"
                    );
                }
            }
        }
    }

    #[test]
    fn solver_backends_agree() {
        let mut fluxes = Vec::new();
        for kind in SolverKind::all() {
            let p = Problem::tiny().with_solver(kind);
            let mut solver = TransportSolver::new(&p).unwrap();
            let outcome = solver.run().unwrap();
            fluxes.push(outcome.scalar_flux_total);
        }
        for pair in fluxes.windows(2) {
            assert!((pair[0] - pair[1]).abs() < 1e-8 * pair[0].abs());
        }
    }

    #[test]
    fn vacuum_problem_flux_is_bounded_by_infinite_medium() {
        let mut p = Problem::tiny();
        p.num_groups = 1;
        p.inner_iterations = 30;
        p.convergence_tolerance = 1e-8;
        let mut solver = TransportSolver::new(&p).unwrap();
        let outcome = solver.run().unwrap();
        let xs = crate::data::CrossSections::generate(1, 1);
        let psi_inf = 1.0 / (xs.total(0, 0) - xs.scatter(0, 0, 0));
        assert!(outcome.scalar_flux_max <= psi_inf + 1e-9);
        // Small DG undershoots near the vacuum boundary are permitted.
        assert!(outcome.scalar_flux_min >= -1e-3);
        // Leakage through vacuum boundaries keeps the flux strictly below
        // the infinite-medium limit.
        assert!(outcome.scalar_flux_max < psi_inf);
    }

    #[test]
    fn convergence_history_decreases() {
        let mut p = Problem::tiny();
        p.inner_iterations = 10;
        p.convergence_tolerance = 0.0;
        let mut solver = TransportSolver::new(&p).unwrap();
        let outcome = solver.run().unwrap();
        let h = &outcome.convergence_history;
        assert_eq!(h.len(), 10);
        // Source iteration converges monotonically for this problem.
        assert!(h.last().unwrap() < &h[1]);
    }

    #[test]
    fn solve_timing_populates_split() {
        let p = Problem::tiny().with_solve_timing(true);
        let mut solver = TransportSolver::new(&p).unwrap();
        let outcome = solver.run().unwrap();
        assert!(outcome.kernel_solve_seconds > 0.0);
        assert!(outcome.kernel_assemble_seconds > 0.0);
        let f = outcome.solve_fraction();
        assert!(f > 0.0 && f < 1.0);
    }

    #[test]
    fn untimed_run_books_its_task_time_as_assembly() {
        // No per-task clock: the time inside tasks is read per run of
        // tasks and reported undivided, at any width.
        for threads in [1, 2] {
            let p = Problem::tiny().with_threads(threads);
            assert!(!p.time_solve);
            let outcome = TransportSolver::new(&p).unwrap().run().unwrap();
            assert!(outcome.kernel_assemble_seconds > 0.0);
            assert_eq!(outcome.kernel_solve_seconds, 0.0);
        }
    }

    #[test]
    fn on_the_fly_integrals_match_precomputed() {
        let flux = |precompute: bool| {
            let p = Problem::tiny().with_precomputed_integrals(precompute);
            let mut s = TransportSolver::new(&p).unwrap();
            s.run().unwrap();
            s.scalar_flux().as_slice().to_vec()
        };
        assert_eq!(flux(true), flux(false));
    }

    #[test]
    fn source_option2_concentrates_flux_in_the_centre() {
        let mut p = Problem::tiny();
        p.source = SourceOption::Option2;
        p.nx = 4;
        p.ny = 4;
        p.nz = 4;
        p.inner_iterations = 4;
        let mut solver = TransportSolver::new(&p).unwrap();
        solver.run().unwrap();
        // Mean flux of central cells exceeds mean flux of corner cells.
        let grid = p.grid();
        let phi = solver.scalar_flux();
        let mean_of = |cell: usize| -> f64 {
            let mut acc = 0.0;
            for g in 0..p.num_groups {
                acc += phi.nodes(cell, g, 0).iter().sum::<f64>();
            }
            acc
        };
        let centre = grid.cell_id(1, 1, 1);
        let corner = grid.cell_id(0, 0, 0);
        assert!(mean_of(centre) > mean_of(corner));
    }

    #[test]
    fn invalid_problem_is_rejected() {
        let mut p = Problem::tiny();
        p.num_groups = 0;
        assert!(TransportSolver::new(&p).is_err());
    }

    #[test]
    fn conservative_medium_limit_builds_a_solver() {
        // c = 1 is a valid (if slowly converging) configuration, and the
        // whole path must agree: validation, cross-section generation
        // and solver construction.
        assert!(TransportSolver::new(&Problem::tiny().with_scattering_ratio(1.0)).is_ok());
    }

    #[test]
    fn any_thread_count_solves_to_the_same_bits() {
        // The default scheme's axis is the angles of the whole sweep, and
        // a worker without an angle idles: no width is refused — not 8
        // threads on 2 angles per octant, not more threads than angles —
        // and none changes a bit.
        let flux_at = |threads| {
            let problem = Problem::tiny()
                .with_scheme(ConcurrencyScheme::best())
                .with_threads(threads);
            let mut solver = TransportSolver::new(&problem).unwrap();
            solver.run().unwrap();
            solver.scalar_flux().as_slice().to_vec()
        };
        let reference = flux_at(1);
        for threads in [2, 8, 16, 40] {
            assert_eq!(reference, flux_at(threads), "{threads} threads");
        }
    }

    #[test]
    fn sweep_gmres_agrees_with_source_iteration_on_tiny() {
        let mut p = Problem::tiny();
        p.convergence_tolerance = 1e-10;
        p.inner_iterations = 200;
        let mut totals = Vec::new();
        for strategy in crate::strategy::StrategyKind::all() {
            let mut solver = TransportSolver::new(&p.clone().with_strategy(strategy)).unwrap();
            let outcome = solver.run().unwrap();
            assert!(outcome.converged, "{strategy} failed to converge");
            totals.push(outcome.scalar_flux_total);
        }
        assert!(
            (totals[0] - totals[1]).abs() < 1e-8 * totals[0].abs(),
            "SI {} vs GMRES {}",
            totals[0],
            totals[1]
        );
    }

    /// A single-group, optically thick, scattering-dominated problem:
    /// the regime where source iteration contracts at rate `c` and
    /// crawls.
    fn high_c_problem(c: f64) -> Problem {
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
        p.inner_iterations = 1000;
        p.outer_iterations = 1;
        p
    }

    #[test]
    fn sweep_gmres_needs_fewer_sweeps_when_scattering_dominates() {
        let p = high_c_problem(0.95);
        let mut si_solver = TransportSolver::new(
            &p.clone()
                .with_strategy(crate::strategy::StrategyKind::SourceIteration),
        )
        .unwrap();
        let si = si_solver.run().unwrap();
        let mut gm_solver =
            TransportSolver::new(&p.with_strategy(crate::strategy::StrategyKind::SweepGmres))
                .unwrap();
        let gm = gm_solver.run().unwrap();

        assert!(
            si.converged,
            "SI history: {:?}",
            si.convergence_history.last()
        );
        assert!(
            gm.converged,
            "GMRES history: {:?}",
            gm.krylov_residual_history
        );
        // The acceptance criterion: strictly fewer sweeps at equal
        // tolerance.  At c = 0.95 the gap is over an order of magnitude.
        assert!(
            gm.sweep_count < si.sweep_count,
            "GMRES took {} sweeps, SI took {}",
            gm.sweep_count,
            si.sweep_count
        );
        // And both strategies agree on the physics.  SI stops on the
        // iterate *change*, which leaves a true error of up to
        // tol / (1 − c) — the agreement bound must carry that factor.
        let bound = 1e-8 / (1.0 - 0.95) * si.scalar_flux_total.abs();
        assert!(
            (si.scalar_flux_total - gm.scalar_flux_total).abs() < bound,
            "SI {} vs GMRES {}",
            si.scalar_flux_total,
            gm.scalar_flux_total
        );
    }

    #[test]
    fn dsa_source_iteration_matches_si_and_wins_when_scattering_dominates() {
        let p = high_c_problem(0.95);
        let mut si_solver = TransportSolver::new(&p).unwrap();
        let si = si_solver.run().unwrap();
        assert_eq!(si.accel_cg_iterations, 0);
        assert!(si.accel_residual_history.is_empty());

        let mut dsa_solver = TransportSolver::new(
            &p.clone()
                .with_strategy(crate::strategy::StrategyKind::DsaSourceIteration),
        )
        .unwrap();
        let dsa = dsa_solver.run().unwrap();

        assert!(si.converged && dsa.converged);
        assert!(dsa.accel_cg_iterations > 0);
        assert!(!dsa.accel_residual_history.is_empty());
        // The acceleration pays: strictly fewer transport sweeps at the
        // same tolerance (the low-order CG iterations are not sweeps).
        assert!(
            dsa.sweep_count < si.sweep_count,
            "DSA-SI took {} sweeps, SI took {}",
            dsa.sweep_count,
            si.sweep_count
        );
        // Same fixed point.  SI stops on the iterate change, leaving a
        // true error of up to tol / (1 − c).
        let bound = 1e-8 / (1.0 - 0.95) * si.scalar_flux_total.abs();
        assert!(
            (si.scalar_flux_total - dsa.scalar_flux_total).abs() < bound,
            "SI {} vs DSA-SI {}",
            si.scalar_flux_total,
            dsa.scalar_flux_total
        );
    }

    #[test]
    fn dsa_preconditioned_gmres_agrees_with_plain_gmres() {
        let p = high_c_problem(0.95).with_strategy(crate::strategy::StrategyKind::SweepGmres);
        let mut plain_solver = TransportSolver::new(&p).unwrap();
        let plain = plain_solver.run().unwrap();
        assert_eq!(plain.accel_cg_iterations, 0);

        let accelerated_problem = p.with_accelerator(crate::strategy::AcceleratorKind::Dsa);
        let mut accel_solver = TransportSolver::new(&accelerated_problem).unwrap();
        let accel = accel_solver.run().unwrap();

        assert!(plain.converged && accel.converged);
        assert!(accel.accel_cg_iterations > 0);
        // On a small problem the bare sweep operator is already easy for
        // GMRES, so the iteration counts are comparable — the spectrum
        // claim is pinned at c → 1 below.  Here: same physics.
        let rel = (plain.scalar_flux_total - accel.scalar_flux_total).abs()
            / plain.scalar_flux_total.abs();
        assert!(
            rel < 1e-6,
            "plain {} vs DSA-preconditioned {}",
            plain.scalar_flux_total,
            accel.scalar_flux_total
        );
    }

    #[test]
    fn dsa_preconditioning_tightens_the_gmres_spectrum_in_the_diffusive_regime() {
        // A genuinely diffusive problem (24 mfp thick, c = 0.99): the
        // bare fixed-point operator has near-unit eigenvalues GMRES must
        // resolve one by one, while the DSA-preconditioned map is
        // contracted to ~0.2 — strictly fewer Krylov iterations.
        let mut p = Problem::quickstart();
        p.num_groups = 1;
        p.lx = 24.0;
        p.ly = 24.0;
        p.lz = 24.0;
        p.scattering_ratio = Some(0.99);
        p.inner_iterations = 2000;
        p.outer_iterations = 1;
        p.convergence_tolerance = 1e-6;
        p.num_threads = Some(1);
        p.strategy = crate::strategy::StrategyKind::SweepGmres;

        let mut plain_solver = TransportSolver::new(&p).unwrap();
        let plain = plain_solver.run().unwrap();
        let accelerated = p.with_accelerator(crate::strategy::AcceleratorKind::Dsa);
        let mut accel_solver = TransportSolver::new(&accelerated).unwrap();
        let accel = accel_solver.run().unwrap();
        assert!(plain.converged && accel.converged);
        assert!(
            accel.krylov_iterations < plain.krylov_iterations,
            "DSA-GMRES took {} Krylov iterations, plain took {}",
            accel.krylov_iterations,
            plain.krylov_iterations
        );
    }

    #[test]
    fn sweep_gmres_handles_inflow_boundaries() {
        // Regression: boundary inflow is affine data — it must live in
        // the Krylov right-hand side only.  A sweep that re-injects it
        // during operator applications breaks linearity and produced
        // unconverged, negative fluxes.
        let mut p = Problem::tiny();
        p.num_groups = 1;
        p.convergence_tolerance = 1e-10;
        p.inner_iterations = 300;
        p.outer_iterations = 1;
        p.boundaries = DomainBoundaries::uniform_inflow(1.0);

        let mut si_solver = TransportSolver::new(&p.clone()).unwrap();
        let si = si_solver.run().unwrap();
        let mut gm_solver =
            TransportSolver::new(&p.with_strategy(crate::strategy::StrategyKind::SweepGmres))
                .unwrap();
        let gm = gm_solver.run().unwrap();
        assert!(
            si.converged && gm.converged,
            "SI {} GMRES {}",
            si.converged,
            gm.converged
        );
        assert!(
            gm.scalar_flux_min > 0.0,
            "inflow problem must have positive flux"
        );
        assert!(
            (si.scalar_flux_total - gm.scalar_flux_total).abs() < 1e-8 * si.scalar_flux_total.abs(),
            "SI {} vs GMRES {}",
            si.scalar_flux_total,
            gm.scalar_flux_total
        );
    }

    #[test]
    fn krylov_stats_are_populated_only_by_the_krylov_strategy() {
        let p = high_c_problem(0.9);
        let mut si_solver = TransportSolver::new(&p.clone()).unwrap();
        let si = si_solver.run().unwrap();
        assert_eq!(si.krylov_iterations, 0);
        assert!(si.krylov_residual_history.is_empty());
        // For SI every inner iteration is exactly one sweep.
        assert_eq!(si.sweep_count, si.inner_iterations);

        let mut gm_solver =
            TransportSolver::new(&p.with_strategy(crate::strategy::StrategyKind::SweepGmres))
                .unwrap();
        let gm = gm_solver.run().unwrap();
        assert!(gm.krylov_iterations > 0);
        assert!(!gm.krylov_residual_history.is_empty());
        // Residuals decrease overall and end below the tolerance.
        let last = *gm.krylov_residual_history.last().unwrap();
        assert!(last <= 1e-8, "final Krylov residual {last}");
        // RHS + initial-residual + consistency sweeps mean a few more
        // sweeps than Krylov iterations, never fewer.
        assert!(gm.sweep_count > gm.krylov_iterations);
    }

    #[test]
    fn metrics_are_attached_to_every_outcome() {
        let mut solver = TransportSolver::new(&Problem::tiny()).unwrap();
        let outcome = solver.run().unwrap();
        let m = &outcome.metrics;
        assert_eq!(m.sweeps, outcome.sweep_count);
        assert_eq!(m.cells_swept, outcome.kernel_invocations);
        assert_eq!(m.inner_iterations, outcome.inner_iterations);
        assert_eq!(m.phase_count(Phase::Preassembly), 1);
        assert_eq!(m.phase_count(Phase::Sweep), outcome.sweep_count);
        assert_eq!(m.sweep_latency.count() as usize, outcome.sweep_count);
        assert_eq!(m.cells_per_sweep.count() as usize, outcome.sweep_count);
        assert_eq!(m.halo_exchanges, 0, "single domain never exchanges halos");
        assert_eq!(m.kernel_assemble_seconds, outcome.kernel_assemble_seconds);
        // A second run re-aggregates from scratch but skips the one-shot
        // preassembly span (the work happened once, at construction).
        let again = solver.run().unwrap();
        assert_eq!(again.metrics.phase_count(Phase::Preassembly), 0);
        assert_eq!(again.metrics.sweeps, again.sweep_count);
    }

    #[test]
    fn mock_clock_pins_wall_clock_metrics_exactly() {
        use unsnap_obs::clock::MockClock;
        // Only the driver thread reads the clock, and every span is one
        // bracketed pair of readings, so an auto-stepping mock makes
        // each span exactly one step long.
        let step = Duration::from_millis(5);
        let mut solver = TransportSolver::new(&Problem::tiny()).unwrap();
        solver.set_clock(Box::new(MockClock::with_step(step)));
        let outcome = solver.run().unwrap();
        let m = &outcome.metrics;
        let s = step.as_secs_f64();
        assert_eq!(m.sweep_p50(), Some(s));
        assert_eq!(m.sweep_p95(), Some(s));
        assert_eq!(m.phase_time(Phase::Sweep), s * outcome.sweep_count as f64);
        assert_eq!(
            m.phase_time(Phase::SourceAssembly),
            s * m.phase_count(Phase::SourceAssembly) as f64
        );
        assert_eq!(
            outcome.assemble_solve_seconds,
            s * outcome.sweep_count as f64
        );
    }

    #[test]
    fn relative_change_helper() {
        assert_eq!(relative_change(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((relative_change(&[1.1, 2.0], &[1.0, 2.0]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_change_is_defined_for_zero_reference() {
        // All-zero reference and all-zero new: nothing moved.
        assert_eq!(relative_change(&[0.0; 4], &[0.0; 4]), 0.0);
        assert_eq!(relative_change(&[], &[]), 0.0);
        // Zero reference with nonzero new: large but finite (a zero
        // would falsely pass the convergence test on the first iterate).
        let d = relative_change(&[1.0, 0.0], &[0.0, 0.0]);
        assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    fn relative_change_never_returns_nan() {
        assert!(!relative_change(&[f64::NAN], &[1.0]).is_nan());
        assert_eq!(relative_change(&[f64::NAN], &[1.0]), f64::INFINITY);
        assert_eq!(relative_change(&[1.0], &[f64::NAN]), f64::INFINITY);
        // A NaN must not be masked by a larger finite entry elsewhere.
        assert_eq!(
            relative_change(&[5.0, f64::NAN], &[1.0, 1.0]),
            f64::INFINITY
        );
    }
}
