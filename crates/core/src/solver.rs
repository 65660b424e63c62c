//! The transport solver: sweep driver, concurrency schemes, iteration
//! structure and timing.
//!
//! The solver follows SNAP's iteration structure (which UnSNAP inherits,
//! §III of the paper):
//!
//! * **outer iterations** resolve the group-to-group coupling of the
//!   scattering source with Jacobi iterations;
//! * **inner (source) iterations** lag the within-group scattering source;
//! * each inner iteration performs one full **sweep**: for every octant,
//!   for every angle in the octant, the wavefront buckets of that angle's
//!   schedule are processed in order, and inside a bucket the
//!   element × group work is executed according to the selected
//!   [`ConcurrencyScheme`](unsnap_sweep::ConcurrencyScheme) (the six
//!   variants of Figures 3/4 plus the
//!   angle-threaded ablation of §IV-A.3).
//!
//! The assemble/solve region is timed as a whole (the quantity plotted in
//! Figures 3 and 4 and tabulated in Table II), and — when
//! `Problem::time_solve` is set — the linear-solve share is accumulated
//! separately so the "% in solve" column of Table II can be reproduced.
//!
//! The element × group (and angle-threaded) fan-out executes on a **real
//! worker pool** sized by `Problem::num_threads` (force-overridable with
//! `RAYON_NUM_THREADS`).  Bucket tasks are split into index-ordered
//! chunks whose results are written back in input order, so every scheme
//! except the deliberately-contended angle-threaded ablation produces
//! bit-for-bit identical fluxes at any thread count — the invariant
//! `tests/parallel_determinism.rs` enforces.

use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use unsnap_obs::clock::{Clock, SystemClock};
use unsnap_obs::trace::TraceTree;

use unsnap_fem::element::ReferenceElement;
use unsnap_fem::face::{face_node_indices, FACES};
use unsnap_fem::geometry::HexVertices;
use unsnap_fem::integrals::ElementIntegrals;
use unsnap_linalg::LinearSolver;
use unsnap_mesh::{NeighborRef, UnstructuredMesh};
use unsnap_sweep::{LoopOrder, SweepSchedule, ThreadedLoops};

use crate::angular::AngularQuadrature;
use crate::cancel::CancelToken;
use crate::data::ProblemData;
use crate::error::{Error, Result};
use crate::kernel::{KernelEngine, KernelScratch, KernelTiming, UpwindFace, UpwindSource};
use crate::layout::{FluxLayout, FluxStorage, Precision};
use crate::metrics::RunMetrics;
use crate::problem::Problem;
use crate::session::{
    run_with_telemetry, EventLog, Lane, NoopObserver, Phase, RunObserver, SolveEvent,
};

/// Result of one kernel task (one element × group for one angle).
struct TaskResult {
    element: usize,
    group: usize,
    psi: Vec<f64>,
    timing: KernelTiming,
}

/// Summary of a completed transport solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOutcome {
    /// Inner iterations actually executed (across all outers).  For
    /// source iteration every inner iteration is one sweep; for the
    /// Krylov strategies it is one Krylov step (also one sweep).
    pub inner_iterations: usize,
    /// Outer iterations executed.
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
    /// hand-rolled [`json`](crate::json) writer — the vendored `serde` is
    /// a no-op stand-in).
    ///
    /// Doubles are written in shortest-round-trip form, so tooling that
    /// parses the dump recovers the exact values; non-finite entries
    /// become `null`.
    pub fn to_json(&self) -> String {
        crate::json::JsonObject::new()
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
            .field_raw("metrics", &self.metrics.to_json())
            .finish()
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
/// Only φ, ψ and the accumulated [`RunStats`] are exposed: every other
/// piece of solver state (`phi_outer`, `phi_inner`, the assembled
/// source, Krylov and DSA scratch) is overwritten before it is read on
/// the next outer iteration, so checkpointing it would be dead weight.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    /// The outer iteration that just completed (0-based).
    pub outer_completed: usize,
    /// Whether that outer iteration met the tolerance (a converged run
    /// has nothing left to resume).
    pub converged: bool,
    /// Scalar flux φ, in storage order.
    pub phi: &'a [f64],
    /// Angular flux ψ, in storage order.
    pub psi: &'a [f64],
    /// Work and convergence accounting so far.
    pub stats: &'a RunStats,
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

/// Solver state recovered from a run log, to be installed with
/// [`TransportSolver::resume_from`] before re-running.
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
    /// Accounting accumulated up to the checkpoint.
    pub stats: RunStats,
    /// Scalar flux φ at the checkpoint, in storage order.
    pub phi: Vec<f64>,
    /// Angular flux ψ at the checkpoint, in storage order.
    pub psi: Vec<f64>,
    /// Every observer event emitted before the checkpoint, replayed
    /// verbatim on resume so streams and metrics match the original run.
    pub prefix: EventLog,
}

/// The UnSNAP transport solver for a single (serial or threaded) domain.
pub struct TransportSolver {
    problem: Problem,
    mesh: UnstructuredMesh,
    element: ReferenceElement,
    /// Face-local node index lists for the six faces (identical for every
    /// element of a given order).
    face_nodes: [Vec<usize>; 6],
    /// Precomputed per-element integrals (`None` = compute on the fly).
    integrals: Option<Vec<ElementIntegrals>>,
    quadrature: AngularQuadrature,
    data: ProblemData,
    /// One sweep schedule per global angle index.
    schedules: Vec<SweepSchedule>,
    /// Angular flux ψ(node, element, group, angle).
    psi: FluxStorage,
    /// Scalar flux φ(node, element, group).
    phi: FluxStorage,
    /// Scalar flux at the previous inner iteration.
    phi_inner: FluxStorage,
    /// Scalar flux at the previous outer iteration.
    phi_outer: FluxStorage,
    /// Total source (fixed + scattering), same shape as φ.
    source: FluxStorage,
    /// Dense solver back end.
    solver: Box<dyn LinearSolver>,
    /// Worker pool the sweep fans out on, sized according to
    /// `Problem::num_threads` (a width of 1 runs inline on this thread).
    pool: rayon::ThreadPool,
    /// When set, sweeps treat every domain boundary as vacuum (zero
    /// incoming flux) regardless of the problem's boundary conditions.
    /// The Krylov strategies enable this during operator applications:
    /// the boundary source is part of the affine right-hand side, and
    /// including it in `apply` would make the "linear" operator affine.
    homogeneous_boundaries: bool,
    /// Reusable Krylov scratch handed to the iteration strategies, so
    /// repeated outer iterations (and repeated session runs) reuse the
    /// Arnoldi basis allocation instead of rebuilding it per solve.
    krylov_workspace: Option<unsnap_krylov::GmresWorkspace>,
    /// Lazily-built DSA accelerator (whole-mesh low-order diffusion
    /// operator + CG scratch), shared across iterations and runs.  Only
    /// materialises when a strategy actually asks for a correction.
    dsa: Option<crate::dsa::DsaAccelerator>,
    /// Time source for phase spans and per-sweep latency.  Swappable via
    /// [`TransportSolver::set_clock`], so tests inject a mock and pin
    /// the wall-clock metrics exactly; deterministic metrics never read
    /// it.
    clock: Box<dyn Clock>,
    /// Optional cooperative cancellation flag, polled at outer-iteration
    /// boundaries (see [`crate::cancel`]).  `None` = never cancellable.
    cancel: Option<CancelToken>,
    /// Wall-clock seconds spent precomputing integrals and sweep
    /// schedules in [`TransportSolver::new`].
    preassembly_seconds: f64,
    /// Whether the one-shot [`Phase::Preassembly`] span has been
    /// reported yet (it fires on the first observed run only — the work
    /// happened once, at construction).
    preassembly_reported: bool,
    /// Recovered state installed by [`TransportSolver::resume_from`],
    /// consumed by the next run.
    resume: Option<ResumePoint>,
    /// Per-cell assemble+solve engine: kernel implementation (reference
    /// scalar vs SoA cache-blocked) × arithmetic precision, resolved
    /// once from [`Problem::kernel`]/[`Problem::precision`] at build
    /// time.  `Copy`, so sweep closures capture it by value.
    engine: KernelEngine,
}

impl TransportSolver {
    /// Build a solver for the given problem.
    pub fn new(problem: &Problem) -> Result<Self> {
        problem.validate()?;
        let mesh = problem.build_mesh();
        let element = ReferenceElement::new(problem.element_order);
        let nodes = element.nodes_per_element();

        let face_nodes: [Vec<usize>; 6] =
            std::array::from_fn(|f| face_node_indices(FACES[f], problem.element_order));

        let quadrature = AngularQuadrature::product(problem.angles_per_octant);
        let grid = problem.grid();
        let mut data = ProblemData::generate(
            mesh.num_cells(),
            |cell| mesh.cell_centroid(cell),
            [grid.lx, grid.ly, grid.lz],
            problem.num_groups,
            problem.material,
            problem.source,
        );
        if let Some(c) = problem.scattering_ratio {
            data.xs = match problem.upscatter_ratio {
                Some(u) => crate::data::CrossSections::with_upscatter(
                    problem.num_groups,
                    data.xs.num_materials(),
                    c,
                    u,
                ),
                None => crate::data::CrossSections::with_scattering_ratio(
                    problem.num_groups,
                    data.xs.num_materials(),
                    c,
                ),
            };
        }

        let num_threads = problem
            .num_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(num_threads)
            .build()
            .map_err(|e| Error::Execution {
                reason: format!("failed to build thread pool: {e}"),
            })?;

        // Per-element integrals (the paper's precomputed basis-pair
        // integrals) — built in parallel, they are embarrassingly
        // independent.
        let preassembly_start = Instant::now();
        let integrals = if problem.precompute_integrals {
            let list: Vec<ElementIntegrals> = pool.install(|| {
                (0..mesh.num_cells())
                    .into_par_iter()
                    .map(|cell| {
                        let hex = HexVertices {
                            corners: *mesh.cell_corners(cell),
                        };
                        ElementIntegrals::compute(&element, &hex)
                    })
                    .collect()
            });
            Some(list)
        } else {
            None
        };

        // One wavefront schedule per angle (§III-A.2: potentially unique
        // per direction on an unstructured mesh).
        let schedules: Vec<SweepSchedule> = pool.install(|| {
            quadrature
                .directions()
                .par_iter()
                .map(|d| {
                    SweepSchedule::build(&mesh, d.omega)
                        .map_err(|e| Error::schedule(format!("angle {:?}", d.omega), e))
                })
                .collect::<Result<Vec<_>>>()
        })?;
        let preassembly_seconds = preassembly_start.elapsed().as_secs_f64();

        let order = problem.scheme.loop_order;
        let psi = FluxStorage::zeros(FluxLayout::angular(
            nodes,
            mesh.num_cells(),
            problem.num_groups,
            quadrature.num_angles(),
            order,
        ));
        let scalar_layout = FluxLayout::scalar(nodes, mesh.num_cells(), problem.num_groups, order);
        let phi = FluxStorage::zeros(scalar_layout);
        let phi_inner = FluxStorage::zeros(scalar_layout);
        let phi_outer = FluxStorage::zeros(scalar_layout);
        let source = FluxStorage::zeros(scalar_layout);

        Ok(Self {
            problem: problem.clone(),
            mesh,
            element,
            face_nodes,
            integrals,
            quadrature,
            data,
            schedules,
            psi,
            phi,
            phi_inner,
            phi_outer,
            source,
            solver: problem.solver.build(),
            pool,
            homogeneous_boundaries: false,
            krylov_workspace: None,
            dsa: None,
            clock: Box::new(SystemClock::new()),
            cancel: None,
            preassembly_seconds,
            preassembly_reported: false,
            resume: None,
            engine: KernelEngine::new(problem.kernel, problem.precision),
        })
    }

    /// Install recovered state so the next run continues from a
    /// checkpoint instead of starting cold.
    ///
    /// Validates the flux shapes against this solver's layout (the run
    /// log's manifest hash should already have guaranteed the problem
    /// matches, but a torn or foreign log must fail loudly, not
    /// corrupt state).  The point is consumed by the next
    /// `run`/`run_observed` call; an untouched solver runs normally.
    pub fn resume_from(&mut self, point: ResumePoint) -> Result<()> {
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
        if point.outer_next > self.problem.outer_iterations {
            return Err(Error::Execution {
                reason: format!(
                    "resume state starts at outer {} but the problem runs only {}",
                    point.outer_next, self.problem.outer_iterations
                ),
            });
        }
        self.resume = Some(point);
        Ok(())
    }

    /// Replace the solver's time source.
    ///
    /// Tests inject a [`MockClock`](unsnap_obs::clock::MockClock) here
    /// to pin the wall-clock metrics (phase seconds, per-sweep latency)
    /// to exact values; deterministic metrics never read the clock and
    /// are unaffected.
    pub fn set_clock(&mut self, clock: Box<dyn Clock>) {
        self.clock = clock;
    }

    /// The problem this solver was built for.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Arm cooperative cancellation: subsequent runs poll `token` at
    /// every outer-iteration boundary and bail out with
    /// [`Error::Cancelled`] once it fires (see [`crate::cancel`]).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Disarm cancellation; subsequent runs ignore any previous token.
    pub fn clear_cancel_token(&mut self) {
        self.cancel = None;
    }

    /// The armed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The mesh the solver operates on.
    pub fn mesh(&self) -> &UnstructuredMesh {
        &self.mesh
    }

    /// The angular quadrature in use.
    pub fn quadrature(&self) -> &AngularQuadrature {
        &self.quadrature
    }

    /// The scalar flux after the most recent `run`.
    pub fn scalar_flux(&self) -> &FluxStorage {
        &self.phi
    }

    /// The angular flux after the most recent `run`.
    pub fn angular_flux(&self) -> &FluxStorage {
        &self.psi
    }

    /// The per-angle sweep schedules.
    pub fn schedules(&self) -> &[SweepSchedule] {
        &self.schedules
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
    /// The outer (Jacobi group-coupling) loop lives here; each outer
    /// iteration hands the within-group solve to the
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
        let (mut outcome, metrics, trace) =
            run_with_telemetry(observer, |tee| self.run_observed_inner(tee, sink))?;
        outcome.metrics = RunMetrics {
            kernel_assemble_seconds: outcome.kernel_assemble_seconds,
            kernel_solve_seconds: outcome.kernel_solve_seconds,
            ..metrics
        };
        outcome.trace = trace;
        Ok(outcome)
    }

    fn run_observed_inner(
        &mut self,
        observer: &mut dyn RunObserver,
        sink: &mut dyn CheckpointSink,
    ) -> Result<SolveOutcome> {
        // Consume any installed resume point: restore the flux state,
        // replay the saved event prefix into the observer tee (so the
        // caller's stream and the internal metrics aggregator both see
        // the run's full history), and continue from the saved outer.
        // The preassembly span is part of the replayed prefix, so the
        // one-shot report below must not fire again.
        let (mut stats, start_outer) = match self.resume.take() {
            Some(point) => {
                self.preassembly_reported = true;
                self.phi.as_mut_slice().copy_from_slice(&point.phi);
                self.psi.as_mut_slice().copy_from_slice(&point.psi);
                point.prefix.replay(observer);
                (point.stats, point.outer_next)
            }
            None => (RunStats::default(), 0),
        };
        if !self.preassembly_reported {
            self.preassembly_reported = true;
            let phase = Phase::Preassembly;
            observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
            let seconds = self.preassembly_seconds;
            observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
        }
        let strategy = self.problem.strategy.build();
        let mut converged = false;

        for outer in start_outer..self.problem.outer_iterations {
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Err(Error::Cancelled { outer });
                }
            }
            observer.on_event(Lane::Driver, &SolveEvent::OuterStart { outer });
            self.phi_outer
                .as_mut_slice()
                .copy_from_slice(self.phi.as_slice());
            let inner_converged = strategy.run_inners(self, &mut stats, observer)?;
            let event = SolveEvent::OuterEnd {
                outer,
                converged: inner_converged,
            };
            observer.on_event(Lane::Driver, &event);
            sink.on_checkpoint(&CheckpointView {
                outer_completed: outer,
                converged: inner_converged,
                phi: self.phi.as_slice(),
                psi: self.psi.as_slice(),
                stats: &stats,
            })?;
            if inner_converged {
                converged = true;
                break;
            }
        }

        let phi = self.phi.as_slice();
        let scalar_flux_total: f64 = phi.iter().sum();
        let scalar_flux_max = phi.iter().fold(f64::MIN, |m, &x| m.max(x));
        let scalar_flux_min = phi.iter().fold(f64::MAX, |m, &x| m.min(x));

        Ok(SolveOutcome {
            inner_iterations: stats.inner_iterations,
            outer_iterations: self.problem.outer_iterations,
            sweep_count: stats.sweeps,
            krylov_iterations: stats.krylov_iterations,
            krylov_residual_history: stats.krylov_residual_history,
            accel_cg_iterations: stats.accel_cg_iterations,
            accel_residual_history: stats.accel_residual_history,
            converged,
            convergence_history: stats.convergence_history,
            assemble_solve_seconds: stats.sweep_seconds,
            kernel_assemble_seconds: stats.kernel_timing.assemble_ns as f64 * 1e-9,
            kernel_solve_seconds: stats.kernel_timing.solve_ns as f64 * 1e-9,
            kernel_invocations: stats.kernel_invocations,
            scalar_flux_total,
            scalar_flux_max,
            scalar_flux_min,
            metrics: RunMetrics::default(),
            trace: TraceTree::default(),
        })
    }

    /// Compute the total source: fixed source plus scattering.
    ///
    /// Within-group scattering is taken from the latest scalar flux (the
    /// source-iteration lag); group-to-group transfer uses the previous
    /// outer iterate (Jacobi group coupling, as in SNAP).
    pub fn compute_source(&mut self) {
        self.assemble_source(true);
    }

    /// Compute the *external* source only: fixed source plus cross-group
    /// scattering from the previous outer iterate, with the within-group
    /// term omitted.  This is the `q_ext` of the within-group linear
    /// system `(I − D L⁻¹ S_w) φ = D L⁻¹ q_ext` the Krylov strategies
    /// solve.
    pub fn compute_external_source(&mut self) {
        self.assemble_source(false);
    }

    fn assemble_source(&mut self, include_within_group: bool) {
        let ng = self.problem.num_groups;
        let nodes = self.element.nodes_per_element();
        for element in 0..self.mesh.num_cells() {
            let mat = self.data.material(element);
            let q_fixed = self.data.fixed_source(element);
            for g in 0..ng {
                let mut acc = vec![q_fixed; nodes];
                for g_from in 0..ng {
                    if g_from == g && !include_within_group {
                        continue;
                    }
                    let sigma_s = self.data.xs.scatter(mat, g_from, g);
                    if sigma_s == 0.0 {
                        continue;
                    }
                    let phi_ref = if g_from == g {
                        self.phi.nodes(element, g_from, 0)
                    } else {
                        self.phi_outer.nodes(element, g_from, 0)
                    };
                    for (a, &p) in acc.iter_mut().zip(phi_ref.iter()) {
                        *a += sigma_s * p;
                    }
                }
                self.source.nodes_mut(element, g, 0).copy_from_slice(&acc);
            }
        }
    }

    /// Overwrite the source with the within-group scatter of an arbitrary
    /// flux-shaped vector: `q(e, g) = σ_s(g → g) · v(e, g)`.
    ///
    /// This is the `S_w v` half of the matrix-free within-group operator;
    /// the other half is one [`TransportSolver::sweep_once`].
    pub fn set_source_to_within_group_scatter(&mut self, v: &[f64]) {
        let ng = self.problem.num_groups;
        let nodes = self.element.nodes_per_element();
        let layout = *self.phi.layout();
        debug_assert_eq!(v.len(), self.phi.as_slice().len());
        for element in 0..self.mesh.num_cells() {
            let mat = self.data.material(element);
            for g in 0..ng {
                let sigma_s = self.data.xs.scatter(mat, g, g);
                let base = layout.base(element, g, 0);
                let src = self.source.nodes_mut(element, g, 0);
                for (s, &value) in src.iter_mut().zip(v[base..base + nodes].iter()) {
                    *s = sigma_s * value;
                }
            }
        }
    }

    /// Zero the scalar flux and run one full sweep of the current source
    /// (`φ ← D L⁻¹ q`), accounting the work in `stats` and notifying
    /// `observer` when the sweep completes.
    pub fn sweep_once(&mut self, stats: &mut RunStats, observer: &mut dyn RunObserver) {
        self.phi.fill(0.0);
        let phase = Phase::Sweep;
        observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
        let t0 = self.clock.now();
        let work = self.sweep_all();
        let seconds = self.clock.now().saturating_sub(t0).as_secs_f64();
        let ng = self.problem.num_groups;
        report_sweep(&self.schedules, ng, work, seconds, stats, observer);
    }

    /// Enable/disable homogeneous (zero-inflow) boundary treatment for
    /// subsequent sweeps.
    ///
    /// Matrix-free iteration strategies must sweep with homogeneous
    /// boundaries when applying the within-group operator — the
    /// prescribed incoming flux belongs to the right-hand side, and a
    /// sweep that re-injects it is affine rather than linear.  Plain
    /// source iteration never needs this.
    pub fn set_homogeneous_boundaries(&mut self, on: bool) {
        self.homogeneous_boundaries = on;
    }

    /// Snapshot the scalar flux into the previous-inner-iterate buffer.
    pub fn save_phi_inner(&mut self) {
        self.phi_inner
            .as_mut_slice()
            .copy_from_slice(self.phi.as_slice());
    }

    /// Overwrite the scalar flux with `v` (flux-shaped, current layout).
    pub fn set_phi(&mut self, v: &[f64]) {
        self.phi.as_mut_slice().copy_from_slice(v);
    }

    /// The scalar flux as a flat slice in the current layout.
    pub fn phi_slice(&self) -> &[f64] {
        self.phi.as_slice()
    }

    /// The previous inner iterate as a flat slice in the current layout.
    pub fn phi_inner_slice(&self) -> &[f64] {
        self.phi_inner.as_slice()
    }

    /// Sweep every octant and every angle, accumulating the scalar flux.
    fn sweep_all(&mut self) -> (KernelTiming, u64) {
        let mut timing = KernelTiming::default();
        let mut count = 0u64;
        match self.problem.scheme.threaded {
            ThreadedLoops::Angles => {
                for octant in 0..8 {
                    let (t, c) = self.sweep_octant_angle_threaded(octant);
                    timing.accumulate(t);
                    count += c;
                }
            }
            _ => {
                for angle in 0..self.quadrature.num_angles() {
                    let (t, c) = self.sweep_one_angle(angle);
                    timing.accumulate(t);
                    count += c;
                }
            }
        }
        (timing, count)
    }

    /// Sweep a single angle following its wavefront schedule, using the
    /// element/group threading dictated by the concurrency scheme.
    fn sweep_one_angle(&mut self, angle: usize) -> (KernelTiming, u64) {
        let direction = self.quadrature.directions()[angle];
        let omega = direction.omega;
        let weight = direction.weight;
        let ng = self.problem.num_groups;
        let nodes = self.element.nodes_per_element();
        let scheme = self.problem.scheme;
        let time_solve = self.problem.time_solve;

        let mut timing = KernelTiming::default();
        let mut count = 0u64;

        let num_buckets = self.schedules[angle].num_buckets();
        for bucket_index in 0..num_buckets {
            // Collect the results of the bucket first (immutable borrows of
            // psi/source/mesh), then write them back (mutable borrows).
            let results: Vec<TaskResult> = {
                let schedule = &self.schedules[angle];
                let bucket = &schedule.buckets[bucket_index];
                let mesh = &self.mesh;
                let element = &self.element;
                let integrals = self.integrals.as_deref();
                let data = &self.data;
                let psi = &self.psi;
                let source = &self.source;
                let face_nodes = &self.face_nodes;
                let boundaries = &self.problem.boundaries;
                let boundary_scale = if self.homogeneous_boundaries {
                    0.0
                } else {
                    1.0
                };
                let solver = self.solver.as_ref();
                let engine = self.engine;

                let run_task = |scratch: &mut KernelScratch, e: usize, g: usize| -> TaskResult {
                    let computed;
                    let ints: &ElementIntegrals = match integrals {
                        Some(list) => &list[e],
                        None => {
                            let hex = HexVertices {
                                corners: *mesh.cell_corners(e),
                            };
                            computed = ElementIntegrals::compute(element, &hex);
                            &computed
                        }
                    };
                    let sigma_t = data.xs.total(data.material(e), g);
                    let source_nodes = source.nodes(e, g, 0);
                    // Upwind faces for this element and direction.
                    let inflow = &schedule.inflow_faces[e];
                    let mut upwind: Vec<UpwindFace<'_>> = Vec::with_capacity(inflow.len());
                    for &face in inflow {
                        let src = match mesh.neighbor(e, face) {
                            NeighborRef::Boundary { domain_face } => UpwindSource::Boundary(
                                boundary_scale * boundaries.face(domain_face).incoming_flux(),
                            ),
                            NeighborRef::Interior { cell, face: nf } => UpwindSource::Interior {
                                neighbor_psi: psi.nodes(cell, g, angle),
                                neighbor_face_nodes: &face_nodes[nf],
                            },
                        };
                        upwind.push(UpwindFace { face, source: src });
                    }
                    let t = engine.assemble_solve(
                        e,
                        ints,
                        omega,
                        sigma_t,
                        source_nodes,
                        &upwind,
                        solver,
                        time_solve,
                        scratch,
                    );
                    TaskResult {
                        element: e,
                        group: g,
                        psi: scratch.rhs.clone(),
                        timing: t,
                    }
                };

                match scheme.threaded {
                    ThreadedLoops::Collapsed => {
                        // Flattened element × group iteration space, in the
                        // lexicographic order of the selected loop nest.
                        let pairs: Vec<(usize, usize)> = match scheme.loop_order {
                            LoopOrder::ElementThenGroup => bucket
                                .iter()
                                .flat_map(|&e| (0..ng).map(move |g| (e, g)))
                                .collect(),
                            LoopOrder::GroupThenElement => (0..ng)
                                .flat_map(|g| bucket.iter().map(move |&e| (e, g)))
                                .collect(),
                        };
                        // Small buckets (the narrow ends of a wavefront)
                        // are where a static split leaves workers idle
                        // behind one slow chunk — steal there.  Results
                        // land in per-index slots either way, so the
                        // outputs (and thus the physics) are identical
                        // bit for bit; the flag is purely a scheduling
                        // choice.
                        let stealing = pairs.len() < 8 * self.pool.current_num_threads();
                        self.pool.install(|| {
                            pairs
                                .par_iter()
                                .with_stealing(stealing)
                                .map_init(
                                    || KernelScratch::new(nodes),
                                    |scratch, &(e, g)| run_task(scratch, e, g),
                                )
                                .collect()
                        })
                    }
                    ThreadedLoops::OuterOnly => match scheme.loop_order {
                        LoopOrder::ElementThenGroup => self.pool.install(|| {
                            bucket
                                .par_iter()
                                .map_init(
                                    || KernelScratch::new(nodes),
                                    |scratch, &e| {
                                        (0..ng).map(|g| run_task(scratch, e, g)).collect::<Vec<_>>()
                                    },
                                )
                                .flatten()
                                .collect()
                        }),
                        LoopOrder::GroupThenElement => self.pool.install(|| {
                            (0..ng)
                                .into_par_iter()
                                .map_init(
                                    || KernelScratch::new(nodes),
                                    |scratch, g| {
                                        bucket
                                            .iter()
                                            .map(|&e| run_task(scratch, e, g))
                                            .collect::<Vec<_>>()
                                    },
                                )
                                .flatten()
                                .collect()
                        }),
                    },
                    ThreadedLoops::InnerOnly => {
                        let mut out = Vec::with_capacity(bucket.len() * ng);
                        match scheme.loop_order {
                            LoopOrder::ElementThenGroup => {
                                for &e in bucket.iter() {
                                    let inner: Vec<TaskResult> = self.pool.install(|| {
                                        (0..ng)
                                            .into_par_iter()
                                            .map_init(
                                                || KernelScratch::new(nodes),
                                                |scratch, g| run_task(scratch, e, g),
                                            )
                                            .collect()
                                    });
                                    out.extend(inner);
                                }
                            }
                            LoopOrder::GroupThenElement => {
                                for g in 0..ng {
                                    let inner: Vec<TaskResult> = self.pool.install(|| {
                                        bucket
                                            .par_iter()
                                            .map_init(
                                                || KernelScratch::new(nodes),
                                                |scratch, &e| run_task(scratch, e, g),
                                            )
                                            .collect()
                                    });
                                    out.extend(inner);
                                }
                            }
                        }
                        out
                    }
                    ThreadedLoops::Angles => unreachable!("handled by sweep_octant_angle_threaded"),
                }
            };

            // Write-back: store ψ and accumulate the scalar flux.
            for r in &results {
                self.psi
                    .nodes_mut(r.element, r.group, angle)
                    .copy_from_slice(&r.psi);
                let phi = self.phi.nodes_mut(r.element, r.group, 0);
                for (p, &v) in phi.iter_mut().zip(r.psi.iter()) {
                    *p += weight * v;
                }
                timing.accumulate(r.timing);
                count += 1;
            }
        }

        (timing, count)
    }

    /// The angle-threaded ablation (§IV-A.3): thread over the angles of an
    /// octant; every scalar-flux update contends on a single lock, which is
    /// the safe-Rust analogue of the OpenMP `atomic`/`critical` update the
    /// paper shows does not scale.  Now that the pool is real this lock is
    /// *genuinely* contended, and the scalar-flux reduction order depends
    /// on the interleaving — this is the one scheme whose flux is only
    /// reproducible to floating-point reduction accuracy, not bitwise
    /// (the angular flux, which needs no reduction, stays exact).
    fn sweep_octant_angle_threaded(&mut self, octant: usize) -> (KernelTiming, u64) {
        let ng = self.problem.num_groups;
        let nodes = self.element.nodes_per_element();
        let ne = self.mesh.num_cells();
        let time_solve = self.problem.time_solve;
        let n_angles = self.quadrature.angles_per_octant();

        // Shared scalar-flux accumulator guarded by one lock (deliberately
        // coarse to model the reduction contention).
        let phi_acc = Mutex::new(vec![0.0f64; self.phi.as_slice().len()]);
        let phi_layout = *self.phi.layout();

        let per_angle: Vec<(usize, Vec<f64>, KernelTiming, u64)> = {
            let mesh = &self.mesh;
            let element = &self.element;
            let integrals = self.integrals.as_deref();
            let data = &self.data;
            let source = &self.source;
            let face_nodes = &self.face_nodes;
            let boundaries = &self.problem.boundaries;
            let boundary_scale = if self.homogeneous_boundaries {
                0.0
            } else {
                1.0
            };
            let solver = self.solver.as_ref();
            let engine = self.engine;
            let quadrature = &self.quadrature;
            let schedules = &self.schedules;
            let phi_acc = &phi_acc;

            self.pool.install(|| {
                (0..n_angles)
                    .into_par_iter()
                    .map(|index_in_octant| {
                        let angle = quadrature.angle_index(octant, index_in_octant);
                        let direction = quadrature.directions()[angle];
                        let omega = direction.omega;
                        let weight = direction.weight;
                        let schedule = &schedules[angle];
                        // Local angular flux for this angle only
                        // (element × group × node, element-then-group order).
                        let mut psi_local = vec![0.0f64; ne * ng * nodes];
                        let psi_base = |e: usize, g: usize| (e * ng + g) * nodes;
                        let mut scratch = KernelScratch::new(nodes);
                        let mut timing = KernelTiming::default();
                        let mut count = 0u64;

                        for bucket in &schedule.buckets {
                            for &e in bucket {
                                for g in 0..ng {
                                    let computed;
                                    let ints: &ElementIntegrals = match integrals {
                                        Some(list) => &list[e],
                                        None => {
                                            let hex = HexVertices {
                                                corners: *mesh.cell_corners(e),
                                            };
                                            computed = ElementIntegrals::compute(element, &hex);
                                            &computed
                                        }
                                    };
                                    let sigma_t = data.xs.total(data.material(e), g);
                                    let source_nodes = source.nodes(e, g, 0);
                                    let inflow = &schedule.inflow_faces[e];
                                    let mut upwind: Vec<UpwindFace<'_>> =
                                        Vec::with_capacity(inflow.len());
                                    for &face in inflow {
                                        let src = match mesh.neighbor(e, face) {
                                            NeighborRef::Boundary { domain_face } => {
                                                UpwindSource::Boundary(
                                                    boundary_scale
                                                        * boundaries
                                                            .face(domain_face)
                                                            .incoming_flux(),
                                                )
                                            }
                                            NeighborRef::Interior { cell, face: nf } => {
                                                let b = psi_base(cell, g);
                                                UpwindSource::Interior {
                                                    neighbor_psi: &psi_local[b..b + nodes],
                                                    neighbor_face_nodes: &face_nodes[nf],
                                                }
                                            }
                                        };
                                        upwind.push(UpwindFace { face, source: src });
                                    }
                                    let t = engine.assemble_solve(
                                        e,
                                        ints,
                                        omega,
                                        sigma_t,
                                        source_nodes,
                                        &upwind,
                                        solver,
                                        time_solve,
                                        &mut scratch,
                                    );
                                    timing.accumulate(t);
                                    count += 1;
                                    let b = psi_base(e, g);
                                    psi_local[b..b + nodes].copy_from_slice(&scratch.rhs);
                                    // Contended scalar-flux reduction.
                                    {
                                        let mut phi = phi_acc.lock();
                                        let base = phi_layout.base(e, g, 0);
                                        for (node, &v) in scratch.rhs.iter().enumerate() {
                                            phi[base + node] += weight * v;
                                        }
                                    }
                                }
                            }
                        }
                        (angle, psi_local, timing, count)
                    })
                    .collect()
            })
        };

        // Write ψ back into the global storage and fold the accumulator
        // into the scalar flux.
        let mut timing = KernelTiming::default();
        let mut count = 0u64;
        for (angle, psi_local, t, c) in per_angle {
            for e in 0..ne {
                for g in 0..ng {
                    let b = (e * ng + g) * nodes;
                    self.psi
                        .nodes_mut(e, g, angle)
                        .copy_from_slice(&psi_local[b..b + nodes]);
                }
            }
            timing.accumulate(t);
            count += c;
        }
        let acc = phi_acc.into_inner();
        for (p, a) in self.phi.as_mut_slice().iter_mut().zip(acc.iter()) {
            *p += a;
        }
        (timing, count)
    }
}

/// The single-domain solver *is* an inner-solve context: the iteration
/// strategies drive it directly, and the distributed block-Jacobi driver
/// in `unsnap-comm` runs the very same strategy objects against its
/// per-rank subdomain contexts.  Every method delegates to the inherent
/// implementation above, so this impl changes nothing about the seed
/// iteration path.
impl crate::strategy::InnerSolveContext for TransportSolver {
    fn inner_iteration_budget(&self) -> usize {
        self.problem.inner_iterations
    }

    fn convergence_tolerance(&self) -> f64 {
        self.problem.convergence_tolerance
    }

    fn now(&self) -> Duration {
        self.clock.now()
    }

    fn gmres_restart(&self) -> usize {
        self.problem.gmres_restart
    }

    fn compute_source(&mut self) {
        TransportSolver::compute_source(self);
    }

    fn compute_external_source(&mut self) {
        TransportSolver::compute_external_source(self);
    }

    fn set_source_to_within_group_scatter(&mut self, v: &[f64]) {
        TransportSolver::set_source_to_within_group_scatter(self, v);
    }

    fn set_homogeneous_boundaries(&mut self, on: bool) {
        TransportSolver::set_homogeneous_boundaries(self, on);
    }

    fn sweep_once(&mut self, stats: &mut RunStats, observer: &mut dyn RunObserver) {
        TransportSolver::sweep_once(self, stats, observer);
    }

    fn save_phi_inner(&mut self) {
        TransportSolver::save_phi_inner(self);
    }

    fn set_phi(&mut self, v: &[f64]) {
        TransportSolver::set_phi(self, v);
    }

    fn phi_slice(&self) -> &[f64] {
        TransportSolver::phi_slice(self)
    }

    fn phi_inner_slice(&self) -> &[f64] {
        TransportSolver::phi_inner_slice(self)
    }

    fn take_krylov_workspace(&mut self) -> unsnap_krylov::GmresWorkspace {
        self.krylov_workspace.take().unwrap_or_default()
    }

    fn put_krylov_workspace(&mut self, workspace: unsnap_krylov::GmresWorkspace) {
        self.krylov_workspace = Some(workspace);
    }

    fn accelerator(&self) -> crate::strategy::AcceleratorKind {
        self.problem.accelerator
    }

    fn dsa_correct(
        &mut self,
        previous: &[f64],
        stats: &mut RunStats,
        observer: &mut dyn RunObserver,
    ) -> Result<()> {
        if self.dsa.is_none() {
            let cells: Vec<usize> = (0..self.mesh.num_cells()).collect();
            self.dsa = Some(crate::dsa::DsaAccelerator::build(
                &self.mesh,
                &cells,
                &self.element,
                self.integrals.as_deref(),
                &self.data,
                *self.phi.layout(),
                unsnap_accel::DsaConfig {
                    tolerance: self.problem.accel_cg_tolerance,
                    max_iterations: self.problem.accel_cg_iterations,
                },
            ));
        }
        let dsa = self.dsa.as_mut().expect("accelerator just built");
        let phase = Phase::AccelCg;
        observer.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
        let t0 = self.clock.now();
        let result = dsa.correct(self.phi.as_mut_slice(), previous, stats, observer);
        if result.is_ok() && self.problem.precision == Precision::Mixed {
            // Mixed mode resolves fluxes at single precision; round the
            // f64 diffusion correction onto the same grid so the next
            // sweep's convergence test sees a self-consistent state.
            for p in self.phi.as_mut_slice() {
                *p = *p as f32 as f64;
            }
        }
        let seconds = self.clock.now().saturating_sub(t0).as_secs_f64();
        observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
        result
    }
}

/// Close the [`Phase::Sweep`] span of a sweep that just ran over
/// `schedules` (one per angle) and account it: the per-bucket structure
/// events, the span's end, the `stats` totals and the sweep event.
/// Shared by the single-domain solver and the block-Jacobi rank
/// contexts, whose streams must agree event for event.
///
/// The bucket events cost no clock reads (the `MockClock` pinning
/// contract).  Every (element, group) pair of a bucket is exactly one
/// kernel task in every concurrency scheme, so the payloads are derived
/// from the schedules in (angle, bucket) order — identical at every
/// thread count by construction.
pub fn report_sweep(
    schedules: &[SweepSchedule],
    num_groups: usize,
    (timing, count): (KernelTiming, u64),
    seconds: f64,
    stats: &mut RunStats,
    observer: &mut dyn RunObserver,
) {
    let mut bucket_tasks = 0u64;
    for (angle, schedule) in schedules.iter().enumerate() {
        for (bucket, cells) in schedule.buckets.iter().enumerate() {
            let tasks = (cells.len() * num_groups) as u64;
            bucket_tasks += tasks;
            let event = SolveEvent::SweepBucket {
                angle,
                bucket,
                tasks,
            };
            observer.on_event(Lane::Driver, &event);
        }
    }
    debug_assert_eq!(bucket_tasks, count);
    let phase = Phase::Sweep;
    observer.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
    stats.sweep_seconds += seconds;
    stats.kernel_timing.accumulate(timing);
    stats.kernel_invocations += count;
    stats.sweeps += 1;
    let event = SolveEvent::Sweep {
        sweep: stats.sweeps,
        cells: count,
        seconds,
    };
    observer.on_event(Lane::Driver, &event);
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
        // The six figure schemes and the angle-threaded ablation must all
        // produce the same scalar flux (they only change execution order).
        let base = Problem::tiny().with_threads(2);
        let mut reference: Option<Vec<f64>> = None;
        let mut schemes = ConcurrencyScheme::figure_schemes();
        schemes.push(crate::problem::angle_threaded_scheme());
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
    fn infinite_medium_limit_is_approached_with_inflow_boundaries() {
        // With incoming flux equal to the infinite-medium solution
        // ψ∞ = q / (σ_t − σ_s_total), the converged scalar flux equals ψ∞
        // everywhere (the problem is effectively an infinite medium).
        let mut p = Problem::tiny();
        p.num_groups = 1;
        p.inner_iterations = 60;
        p.outer_iterations = 1;
        p.convergence_tolerance = 1e-10;
        p.twist = 0.0;
        let xs = crate::data::CrossSections::generate(1, 1);
        let sigma_t = xs.total(0, 0);
        let sigma_s = xs.scatter(0, 0, 0);
        let psi_inf = 1.0 / (sigma_t - sigma_s);
        p.boundaries = DomainBoundaries::uniform_inflow(psi_inf);
        let mut solver = TransportSolver::new(&p).unwrap();
        let outcome = solver.run().unwrap();
        assert!(
            outcome.converged,
            "history: {:?}",
            outcome.convergence_history
        );
        assert!(
            (outcome.scalar_flux_max - psi_inf).abs() < 1e-6,
            "max {} vs ψ∞ {psi_inf}",
            outcome.scalar_flux_max
        );
        assert!(
            (outcome.scalar_flux_min - psi_inf).abs() < 1e-6,
            "min {} vs ψ∞ {psi_inf}",
            outcome.scalar_flux_min
        );
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
    fn on_the_fly_integrals_match_precomputed() {
        let pre = {
            let mut s =
                TransportSolver::new(&Problem::tiny().with_precomputed_integrals(true)).unwrap();
            s.run().unwrap().scalar_flux_total
        };
        let fly = {
            let mut s =
                TransportSolver::new(&Problem::tiny().with_precomputed_integrals(false)).unwrap();
            s.run().unwrap().scalar_flux_total
        };
        assert!((pre - fly).abs() < 1e-9 * pre.abs());
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
    fn sweep_gmres_reproduces_the_infinite_medium_limit() {
        // Same setup as the SI infinite-medium test: with incoming flux
        // equal to ψ∞ the converged solution is ψ∞ everywhere.
        let mut p = Problem::tiny();
        p.num_groups = 1;
        p.inner_iterations = 100;
        p.outer_iterations = 1;
        p.convergence_tolerance = 1e-10;
        p.twist = 0.0;
        p.strategy = crate::strategy::StrategyKind::SweepGmres;
        let xs = crate::data::CrossSections::generate(1, 1);
        let psi_inf = 1.0 / (xs.total(0, 0) - xs.scatter(0, 0, 0));
        p.boundaries = DomainBoundaries::uniform_inflow(psi_inf);
        let mut solver = TransportSolver::new(&p).unwrap();
        let outcome = solver.run().unwrap();
        assert!(outcome.converged);
        assert!((outcome.scalar_flux_max - psi_inf).abs() < 1e-6);
        assert!((outcome.scalar_flux_min - psi_inf).abs() < 1e-6);
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
