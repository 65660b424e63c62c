//! The observable solve session: [`Session`], [`RunObserver`] and the
//! built-in observers.
//!
//! The seed's `TransportSolver::run()` was a black box: it emitted nothing
//! until it returned a finished [`SolveOutcome`], so drivers that wanted
//! per-iteration residuals (ablation harnesses, progress displays, the
//! planned distributed drivers) had to parse the outcome's history vectors
//! after the fact.  This module splits that monolith:
//!
//! * [`RunObserver`] is the streaming interface — one method receiving a
//!   [`SolveEvent`] at every outer iteration boundary, every inner
//!   iteration, every transport sweep and every Krylov residual.  An
//!   event carries something the receiver cannot compute from the
//!   [`Problem`] — a residual, a duration, a decision; the wavefront
//!   schedule is a function of the problem, so a sweep reports how many
//!   buckets it walked once ([`SolveEvent::Sweep`]) and never replays
//!   them one by one;
//! * [`Session`] owns the solver state across runs and drives it under an
//!   observer, so callers hold one object instead of a `Problem` plus a
//!   `TransportSolver` plus an outcome;
//! * [`RecordingObserver`] records the stream and reconstructs exactly the
//!   history vectors a [`SolveOutcome`] reports — the equivalence the
//!   integration tests pin down bit-for-bit.
//!
//! ```
//! use unsnap_core::problem::Problem;
//! use unsnap_core::session::{RecordingObserver, Session};
//!
//! let mut session = Session::new(&Problem::tiny()).unwrap();
//! let mut recorder = RecordingObserver::default();
//! let outcome = session.run_observed(&mut recorder).unwrap();
//! assert_eq!(recorder.sweep_count, outcome.sweep_count);
//! assert_eq!(recorder.convergence_history, outcome.convergence_history);
//! ```

use unsnap_obs::json::JsonObject;
use unsnap_obs::trace::TraceTree;

use crate::error::Result;
use crate::layout::FluxStorage;
use crate::metrics::{MetricsObserver, RunMetrics};
use crate::problem::Problem;
use crate::solver::{SolveOutcome, TransportSolver};
use crate::trace::TraceObserver;

/// The named phases of a transport solve, as reported through
/// [`SolveEvent::PhaseStart`]/[`SolveEvent::PhaseEnd`].
///
/// Phases are the units of the wall-clock breakdown: every span the
/// solvers time is attributed to exactly one of these.  Phase *counts*
/// are deterministic (one span per firing site per iteration); phase
/// *seconds* are wall-clock and excluded from determinism comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Element-integral precomputation and schedule construction in
    /// `TransportSolver::new` (reported once, at the start of the
    /// solver's first observed run).
    Preassembly,
    /// Building the group-coupled source (`compute_source` /
    /// `compute_external_source`) ahead of a sweep.
    SourceAssembly,
    /// A full transport sweep over all angles and cells.
    Sweep,
    /// The block-Jacobi halo exchange (publishing the previous iterate's
    /// angular flux to neighbouring subdomains).
    HaloExchange,
    /// The GMRES region of a `SweepGmres` inner solve.
    Krylov,
    /// The low-order DSA conjugate-gradient correction solve.
    AccelCg,
}

impl Phase {
    /// Every phase, in breakdown-table order.
    pub fn all() -> [Phase; 6] {
        [
            Phase::Preassembly,
            Phase::SourceAssembly,
            Phase::Sweep,
            Phase::HaloExchange,
            Phase::Krylov,
            Phase::AccelCg,
        ]
    }

    /// A stable dense index (`0..6`), usable as a table slot.
    pub fn index(self) -> usize {
        match self {
            Phase::Preassembly => 0,
            Phase::SourceAssembly => 1,
            Phase::Sweep => 2,
            Phase::HaloExchange => 3,
            Phase::Krylov => 4,
            Phase::AccelCg => 5,
        }
    }

    /// The snake_case label used in JSON output and tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Preassembly => "preassembly",
            Phase::SourceAssembly => "source_assembly",
            Phase::Sweep => "sweep",
            Phase::HaloExchange => "halo_exchange",
            Phase::Krylov => "krylov",
            Phase::AccelCg => "accel_cg",
        }
    }

    /// The phase a [`Phase::label`] names, if any.
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::all().into_iter().find(|p| p.label() == label)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which stream an event belongs to.
///
/// Single-domain solves emit everything on [`Lane::Driver`].
/// Distributed drivers (the block-Jacobi multi-rank path in
/// `unsnap-comm`) keep the outer loop, the halo exchange and the merged
/// convergence measure on the driver lane and deliver each rank's solve
/// on [`Lane::Rank`].  Ranks solve concurrently, so the driver buffers
/// each rank's stream in an [`EventLog`] and replays the logs in rank
/// order once the parallel region ends — the stream a single observer
/// sees is therefore bit-for-bit identical at every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The solve driver itself.
    Driver,
    /// One rank's subdomain solve.
    Rank(usize),
}

/// The streaming interface into a running transport solve.
///
/// Events are data: observers `match` on the [`SolveEvent`] variants
/// they care about and ignore the rest.  `on_event` is called
/// synchronously from the solver thread between numerical steps; heavy
/// work in it slows the solve but cannot corrupt it.
pub trait RunObserver {
    /// `event` happened on `lane`.
    fn on_event(&mut self, lane: Lane, event: &SolveEvent);
}

/// One solve event.
///
/// On [`Lane::Rank`] every payload is the rank's own: `outer` is the
/// global halo-iteration index, `sweep` the rank's running count,
/// `converged` whether the rank's *local* solve met the tolerance
/// (global convergence is still reported by the driver-lane
/// [`SolveEvent::InnerIteration`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveEvent {
    /// An outer (group-coupling Jacobi) iteration is starting.
    OuterStart {
        /// Outer-iteration index.
        outer: usize,
    },
    /// An outer iteration finished.
    OuterEnd {
        /// Outer-iteration index.
        outer: usize,
        /// Whether the inner solve met the problem's tolerance within
        /// this outer.
        converged: bool,
    },
    /// An inner iterate completed (one event per entry of
    /// [`SolveOutcome::convergence_history`]).
    InnerIteration {
        /// Inner-iteration count.
        inner: usize,
        /// Maximum relative scalar-flux change.
        relative_change: f64,
    },
    /// A full transport sweep completed.  The one per-sweep event: which
    /// buckets a sweep visits is fixed when the schedules are built, so
    /// the structure rides here as two counts instead of being replayed
    /// bucket by bucket.
    Sweep {
        /// Running sweep count (1-based).
        sweep: usize,
        /// Kernel invocations performed (elements × groups × angles —
        /// deterministic).
        cells: u64,
        /// Wavefront buckets walked (Σ over angles of
        /// `SweepSchedule::num_buckets` — deterministic).
        buckets: usize,
        /// Wall-clock seconds of this sweep.
        seconds: f64,
    },
    /// A Krylov iteration reported a relative residual (one event per
    /// entry of [`SolveOutcome::krylov_residual_history`]; never fires
    /// under plain source iteration).
    KrylovResidual {
        /// Krylov iterations completed.
        iteration: usize,
        /// Relative residual estimate.
        relative_residual: f64,
    },
    /// The low-order DSA correction solve reported a CG residual (one
    /// event per entry of
    /// [`SolveOutcome::accel_residual_history`](crate::solver::SolveOutcome::accel_residual_history);
    /// only fires when DSA is active — the `DSA-SI` strategy or the
    /// DSA-preconditioned GMRES path).
    AccelResidual {
        /// Low-order CG iterations completed within the current solve.
        iteration: usize,
        /// Relative CG residual.
        relative_residual: f64,
    },
    /// A timed phase span opened (see [`Phase`] for the taxonomy).
    /// Spans never nest within one phase; the matching
    /// [`SolveEvent::PhaseEnd`] carries the measured duration.
    PhaseStart {
        /// The phase being entered.
        phase: Phase,
    },
    /// A timed phase span closed.
    PhaseEnd {
        /// The phase being left.
        phase: Phase,
        /// Wall-clock seconds the span measured (by the solver's
        /// [`Clock`](unsnap_obs::clock::Clock) — exact under a mock
        /// clock).
        seconds: f64,
    },
    /// The distributed driver published the previous iterate's angular
    /// flux to its subdomains.  Fired by the driver itself (outside any
    /// rank), so it stays on [`Lane::Driver`] even under
    /// [`EventLog::replay_as_rank`].  Single-domain solves never fire
    /// it.
    HaloExchange {
        /// 0-based halo iteration.
        iteration: usize,
        /// Cut faces crossed by the exchange.
        faces: usize,
        /// Bytes of angular flux published: the size of the
        /// [`HaloFlux`](crate::domain::HaloFlux), the node blocks of
        /// every cell with a face on a cut.
        bytes: u64,
    },
}

impl SolveEvent {
    /// The one JSON encoding of an event, as one line: what
    /// [`JsonlObserver`](crate::metrics::JsonlObserver) streams and a
    /// run-log frame stores.  A [`Lane::Rank`] event carries a `rank`
    /// field; floats are written in shortest-round-trip form, non-finite
    /// ones as `null`.
    pub fn to_json(&self, lane: Lane) -> String {
        let head = |kind: &str| {
            let object = JsonObject::new().field_str("event", kind);
            match lane {
                Lane::Driver => object,
                Lane::Rank(rank) => object.field_usize("rank", rank),
            }
        };
        let object = match *self {
            SolveEvent::OuterStart { outer } => head("outer_start").field_usize("outer", outer),
            SolveEvent::OuterEnd { outer, converged } => head("outer_end")
                .field_usize("outer", outer)
                .field_bool("converged", converged),
            SolveEvent::InnerIteration {
                inner,
                relative_change,
            } => head("inner_iteration")
                .field_usize("inner", inner)
                .field_f64("relative_change", relative_change),
            SolveEvent::Sweep {
                sweep,
                cells,
                buckets,
                seconds,
            } => head("sweep")
                .field_usize("sweep", sweep)
                .field_u64("cells", cells)
                .field_usize("buckets", buckets)
                .field_f64("seconds", seconds),
            SolveEvent::KrylovResidual {
                iteration,
                relative_residual,
            } => head("krylov_residual")
                .field_usize("iteration", iteration)
                .field_f64("relative_residual", relative_residual),
            SolveEvent::AccelResidual {
                iteration,
                relative_residual,
            } => head("accel_residual")
                .field_usize("iteration", iteration)
                .field_f64("relative_residual", relative_residual),
            SolveEvent::PhaseStart { phase } => {
                head("phase_start").field_str("phase", phase.label())
            }
            SolveEvent::PhaseEnd { phase, seconds } => head("phase_end")
                .field_str("phase", phase.label())
                .field_f64("seconds", seconds),
            SolveEvent::HaloExchange {
                iteration,
                faces,
                bytes,
            } => head("halo_exchange")
                .field_usize("iteration", iteration)
                .field_usize("faces", faces)
                .field_u64("bytes", bytes),
        };
        object.finish()
    }
}

/// An observer that buffers the event stream verbatim, lanes included —
/// so one log holds a distributed driver's *full* stream and a
/// checkpoint prefix replays verbatim into a fresh observer on resume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    /// The buffered events, in emission order.
    pub events: Vec<(Lane, SolveEvent)>,
}

impl EventLog {
    /// Drop all buffered events so the log can record another solve.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Replay the buffered stream into `observer` on the recorded
    /// lanes, in emission order.
    pub fn replay(&self, observer: &mut dyn RunObserver) {
        for (lane, event) in &self.events {
            observer.on_event(*lane, event);
        }
    }

    /// Replay the buffered stream into `observer` as rank `rank`: how a
    /// distributed driver delivers the log a concurrently-solving rank
    /// filled on its private driver lane.  Entries already on a rank
    /// lane keep it, and a halo exchange belongs to the run, not the
    /// rank.
    pub fn replay_as_rank(&self, rank: usize, observer: &mut dyn RunObserver) {
        for (lane, event) in &self.events {
            let lane = match (lane, event) {
                (Lane::Driver, SolveEvent::HaloExchange { .. }) | (Lane::Rank(_), _) => *lane,
                (Lane::Driver, _) => Lane::Rank(rank),
            };
            observer.on_event(lane, event);
        }
    }
}

impl RunObserver for EventLog {
    fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
        self.events.push((lane, *event));
    }
}

/// The silent observer used when nobody is watching.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl RunObserver for NoopObserver {
    fn on_event(&mut self, _lane: Lane, _event: &SolveEvent) {}
}

/// An observer that records the event stream and reconstructs the history
/// vectors of a [`SolveOutcome`].
///
/// After a run, [`RecordingObserver::convergence_history`] and
/// [`RecordingObserver::krylov_residual_history`] equal the outcome's
/// fields element-for-element, and [`RecordingObserver::sweep_count`]
/// equals [`SolveOutcome::sweep_count`] — streaming loses nothing relative
/// to the post-hoc summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingObserver {
    /// Outer iterations started.
    pub outers_started: usize,
    /// Outer iterations completed.
    pub outers_completed: usize,
    /// Inner iterations observed (entries of `convergence_history`).
    pub convergence_history: Vec<f64>,
    /// Krylov residuals observed, concatenated across outer iterations.
    pub krylov_residual_history: Vec<f64>,
    /// Low-order DSA CG residuals observed, concatenated across
    /// correction solves (empty unless DSA is active).
    pub accel_residual_history: Vec<f64>,
    /// Transport sweeps observed.
    pub sweep_count: usize,
    /// Wavefront buckets summed over the observed sweeps (deterministic).
    pub sweep_buckets: usize,
    /// Kernel invocations summed over the observed sweeps
    /// (deterministic, unlike the seconds).
    pub cells_swept: u64,
    /// Wall-clock seconds summed over the observed sweeps.
    pub sweep_seconds: f64,
    /// Phase spans opened, per [`Phase::index`] slot (grown on demand;
    /// deterministic).
    pub phase_starts: Vec<usize>,
    /// Wall-clock seconds summed per [`Phase::index`] slot (grown on
    /// demand; zero these before cross-run comparisons).
    pub phase_seconds: Vec<f64>,
    /// Halo exchanges observed (distributed solves only).
    pub halo_exchanges: usize,
    /// Cut faces summed over the observed halo exchanges.
    pub halo_faces: usize,
    /// Bytes summed over the observed halo exchanges.
    pub halo_bytes: u64,
    /// Whether any outer iteration reported inner convergence.
    pub converged: bool,
    /// Per-rank recordings built from the [`Lane::Rank`] events (empty
    /// for single-domain solves).  Entry `r` records rank `r`'s stream
    /// with the same field semantics as the top-level recorder.
    pub rank_records: Vec<RecordingObserver>,
}

impl RecordingObserver {
    /// Reset the recording so the observer can watch another run.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// The recording of one rank's stream, if any events arrived for it.
    pub fn rank(&self, rank: usize) -> Option<&RecordingObserver> {
        self.rank_records.get(rank)
    }

    /// Mutable per-rank recording, growing the table on demand.
    fn rank_mut(&mut self, rank: usize) -> &mut RecordingObserver {
        if self.rank_records.len() <= rank {
            self.rank_records
                .resize_with(rank + 1, RecordingObserver::default);
        }
        &mut self.rank_records[rank]
    }
}

impl RunObserver for RecordingObserver {
    fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
        if let Lane::Rank(rank) = lane {
            return self.rank_mut(rank).on_event(Lane::Driver, event);
        }
        match *event {
            SolveEvent::OuterStart { .. } => self.outers_started += 1,
            SolveEvent::OuterEnd { converged, .. } => {
                self.outers_completed += 1;
                self.converged |= converged;
            }
            SolveEvent::InnerIteration {
                relative_change, ..
            } => self.convergence_history.push(relative_change),
            SolveEvent::Sweep {
                sweep,
                cells,
                buckets,
                seconds,
            } => {
                self.sweep_count = sweep;
                self.cells_swept += cells;
                self.sweep_buckets += buckets;
                self.sweep_seconds += seconds;
            }
            SolveEvent::KrylovResidual {
                relative_residual, ..
            } => self.krylov_residual_history.push(relative_residual),
            SolveEvent::AccelResidual {
                relative_residual, ..
            } => self.accel_residual_history.push(relative_residual),
            SolveEvent::PhaseStart { phase } => {
                let slot = phase.index();
                if self.phase_starts.len() <= slot {
                    self.phase_starts.resize(slot + 1, 0);
                }
                self.phase_starts[slot] += 1;
            }
            SolveEvent::PhaseEnd { phase, seconds } => {
                let slot = phase.index();
                if self.phase_seconds.len() <= slot {
                    self.phase_seconds.resize(slot + 1, 0.0);
                }
                self.phase_seconds[slot] += seconds;
            }
            SolveEvent::HaloExchange { faces, bytes, .. } => {
                self.halo_exchanges += 1;
                self.halo_faces += faces;
                self.halo_bytes += bytes;
            }
        }
    }
}

/// An observer that forwards every event to two underlying observers,
/// first `primary`, then `secondary`.
pub struct TeeObserver<'a> {
    primary: &'a mut dyn RunObserver,
    secondary: &'a mut dyn RunObserver,
}

impl<'a> TeeObserver<'a> {
    /// Tee `primary` (receives each event first) with `secondary`.
    pub fn new(primary: &'a mut dyn RunObserver, secondary: &'a mut dyn RunObserver) -> Self {
        Self { primary, secondary }
    }
}

impl RunObserver for TeeObserver<'_> {
    fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
        self.primary.on_event(lane, event);
        self.secondary.on_event(lane, event);
    }
}

/// Run `solve` under `observer` teed with a fresh
/// [`MetricsObserver`] and [`TraceObserver`], and return what they
/// collected alongside the solve's own result — how every outcome of
/// both solver paths carries its [`RunMetrics`] snapshot and span tree
/// without any caller wiring.
pub fn run_with_telemetry<T>(
    observer: &mut dyn RunObserver,
    solve: impl FnOnce(&mut dyn RunObserver) -> Result<T>,
) -> Result<(T, RunMetrics, TraceTree)> {
    let mut metrics = MetricsObserver::new();
    let mut tracer = TraceObserver::new();
    let value = {
        let mut inner_tee = TeeObserver::new(observer, &mut metrics);
        solve(&mut TeeObserver::new(&mut inner_tee, &mut tracer))?
    };
    Ok((value, metrics.metrics, tracer.into_tree()))
}

/// A rate-limited stderr progress reporter for long-running solves.
///
/// Outer-iteration boundaries always print; the high-rate events (inner
/// iterates, Krylov and DSA residuals, rank-lane updates) print at
/// most once per `min_interval`, so a bench binary can stream useful
/// progress without drowning in per-sweep output.  The rate limiter
/// never swallows convergence: a converged outer always flushes a final
/// summary line carrying the sweep count and the last residuals seen.
/// Wire it up behind the bench harness's `--progress` flag:
///
/// ```
/// use unsnap_core::problem::Problem;
/// use unsnap_core::session::{ProgressObserver, Session};
///
/// let mut session = Session::new(&Problem::tiny()).unwrap();
/// let mut progress = ProgressObserver::new();
/// session.run_observed(&mut progress).unwrap();
/// assert!(progress.lines_emitted() >= 2); // outer start + end
/// ```
///
/// Timing is wall-clock, so the *set* of rate-limited lines differs
/// between runs; the observer only writes to stderr and never feeds
/// back into the solve, which keeps the solver's determinism contract
/// intact.
#[derive(Debug)]
pub struct ProgressObserver {
    min_interval: std::time::Duration,
    last_emit: Option<std::time::Instant>,
    lines_emitted: usize,
    sweeps: usize,
    last_inner_change: Option<f64>,
    last_krylov_residual: Option<f64>,
    last_accel_residual: Option<f64>,
}

impl Default for ProgressObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressObserver {
    /// A reporter with the default 100 ms rate limit.
    pub fn new() -> Self {
        Self::with_interval(std::time::Duration::from_millis(100))
    }

    /// A reporter emitting rate-limited lines at most once per
    /// `min_interval` (zero = every event).
    fn with_interval(min_interval: std::time::Duration) -> Self {
        Self {
            min_interval,
            last_emit: None,
            lines_emitted: 0,
            sweeps: 0,
            last_inner_change: None,
            last_krylov_residual: None,
            last_accel_residual: None,
        }
    }

    /// Lines written to stderr so far.
    pub fn lines_emitted(&self) -> usize {
        self.lines_emitted
    }

    /// Print unconditionally (outer boundaries).
    fn emit(&mut self, line: std::fmt::Arguments<'_>) {
        eprintln!("{line}");
        self.lines_emitted += 1;
        self.last_emit = Some(std::time::Instant::now());
    }

    /// Print only if the rate limit allows it.
    fn emit_limited(&mut self, line: std::fmt::Arguments<'_>) {
        let due = match self.last_emit {
            None => true,
            Some(t) => t.elapsed() >= self.min_interval,
        };
        if due {
            self.emit(line);
        }
    }

    /// A driver-lane outer iteration finished: always printed.
    fn outer_end(&mut self, outer: usize, converged: bool) {
        let state = if converged {
            "converged"
        } else {
            "not converged"
        };
        let sweeps = self.sweeps;
        self.emit(format_args!(
            "[unsnap] outer {outer} finished ({state}, {sweeps} sweeps so far)"
        ));
        if converged {
            // Final summary: never rate-limited, so convergence and the
            // residuals it was declared at are always visible even when
            // every intermediate line was swallowed by the limiter.
            let mut summary = format!("[unsnap] converged after {sweeps} sweeps");
            if let Some(change) = self.last_inner_change {
                summary.push_str(&format!(", last Δφ {change:.3e}"));
            }
            if let Some(residual) = self.last_krylov_residual {
                summary.push_str(&format!(", last krylov residual {residual:.3e}"));
            }
            if let Some(residual) = self.last_accel_residual {
                summary.push_str(&format!(", last dsa cg residual {residual:.3e}"));
            }
            self.emit(format_args!("{summary}"));
        }
    }
}

impl RunObserver for ProgressObserver {
    fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
        // Rank-lane lines name their rank; driver-lane lines do not.
        let who = || match lane {
            Lane::Driver => String::new(),
            Lane::Rank(rank) => format!("rank {rank} "),
        };
        match *event {
            SolveEvent::OuterStart { outer } if lane == Lane::Driver => {
                self.emit(format_args!("[unsnap] outer {outer} started"));
            }
            SolveEvent::OuterEnd { outer, converged } => match lane {
                Lane::Driver => self.outer_end(outer, converged),
                Lane::Rank(rank) => {
                    let state = if converged { "converged" } else { "running" };
                    self.emit_limited(format_args!(
                        "[unsnap]   rank {rank} halo iteration {outer}: {state}"
                    ));
                }
            },
            SolveEvent::InnerIteration {
                inner,
                relative_change,
            } => {
                self.last_inner_change = Some(relative_change);
                self.emit_limited(format_args!(
                    "[unsnap]   {}inner {inner}: max relative change {relative_change:.3e}",
                    who()
                ));
            }
            // Distributed drivers report sweeps per rank (each with its
            // own running count); count events so the outer-boundary
            // summary reflects the total across ranks.
            SolveEvent::Sweep { sweep, .. } => match lane {
                Lane::Driver => self.sweeps = sweep,
                Lane::Rank(_) => self.sweeps += 1,
            },
            SolveEvent::KrylovResidual {
                iteration,
                relative_residual,
            } => {
                self.last_krylov_residual = Some(relative_residual);
                self.emit_limited(format_args!(
                    "[unsnap]   {}krylov {iteration}: residual {relative_residual:.3e}",
                    who()
                ));
            }
            SolveEvent::AccelResidual {
                iteration,
                relative_residual,
            } => {
                self.last_accel_residual = Some(relative_residual);
                self.emit_limited(format_args!(
                    "[unsnap]   {}dsa cg {iteration}: residual {relative_residual:.3e}",
                    who()
                ));
            }
            _ => {}
        }
    }
}

/// An owned, observable transport solve.
///
/// A `Session` wraps a [`TransportSolver`] and keeps the outcome of every
/// run, so drivers hold a single object across repeated (warm-started)
/// solves.  Running the same session twice continues from the flux state
/// the previous run left behind — the behaviour a restart/continuation
/// driver wants; build a fresh session for an independent solve.
pub struct Session {
    solver: TransportSolver,
    outcomes: Vec<SolveOutcome>,
}

impl Session {
    /// Build a session for a validated problem.
    pub fn new(problem: &Problem) -> Result<Self> {
        Ok(Self {
            solver: TransportSolver::new(problem)?,
            outcomes: Vec::new(),
        })
    }

    /// The problem this session solves.
    pub fn problem(&self) -> &Problem {
        self.solver.problem()
    }

    /// The underlying solver (schedules, quadrature, flux state).
    pub fn solver(&self) -> &TransportSolver {
        &self.solver
    }

    /// Mutable access to the underlying solver for advanced drivers.
    pub fn solver_mut(&mut self) -> &mut TransportSolver {
        &mut self.solver
    }

    /// Run the full outer/inner iteration structure silently.
    pub fn run(&mut self) -> Result<SolveOutcome> {
        self.run_observed(&mut NoopObserver)
    }

    /// Run the full outer/inner iteration structure, streaming events to
    /// `observer` as they happen.
    pub fn run_observed(&mut self, observer: &mut dyn RunObserver) -> Result<SolveOutcome> {
        let outcome = self.solver.run_observed(observer)?;
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    /// [`Session::run_observed`] with a durability hook: `sink` is
    /// offered a checkpoint of the solver state at every outer-iteration
    /// boundary (see
    /// [`TransportSolver::run_observed_checkpointed`](crate::solver::TransportSolver::run_observed_checkpointed)).
    pub fn run_checkpointed(
        &mut self,
        observer: &mut dyn RunObserver,
        sink: &mut dyn crate::solver::CheckpointSink,
    ) -> Result<SolveOutcome> {
        let outcome = self.solver.run_observed_checkpointed(observer, sink)?;
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    /// The outcome of the most recent run, if any.
    pub fn last_outcome(&self) -> Option<&SolveOutcome> {
        self.outcomes.last()
    }

    /// The outcomes of every run of this session, in order.
    pub fn outcomes(&self) -> &[SolveOutcome] {
        &self.outcomes
    }

    /// The scalar flux after the most recent run.
    pub fn scalar_flux(&self) -> &FluxStorage {
        self.solver.scalar_flux()
    }
}

#[cfg(test)]
mod tests {
    use super::Lane::*;
    use super::SolveEvent::*;
    use super::*;
    use crate::strategy::StrategyKind;

    #[test]
    fn session_runs_and_keeps_outcomes() {
        let mut session = Session::new(&Problem::tiny()).unwrap();
        assert!(session.last_outcome().is_none());
        let outcome = session.run().unwrap();
        assert!(outcome.scalar_flux_total > 0.0);
        assert_eq!(session.outcomes().len(), 1);
        assert_eq!(session.last_outcome(), Some(&outcome));
        assert_eq!(session.problem(), &Problem::tiny());
    }

    #[test]
    fn recording_observer_matches_outcome_for_source_iteration() {
        // One run that exhausts its outer budget, one that converges
        // before it: `outer_iterations` reports what ran.
        let mut early = Problem::tiny();
        early.inner_iterations = 200;
        early.outer_iterations = 5;
        early.convergence_tolerance = 1e-6;
        for (problem, outers) in [
            (Problem::tiny(), Problem::tiny().outer_iterations),
            (early, 1),
        ] {
            let mut session = Session::new(&problem).unwrap();
            let mut recorder = RecordingObserver::default();
            let outcome = session.run_observed(&mut recorder).unwrap();
            assert_eq!(recorder.sweep_count, outcome.sweep_count);
            assert_eq!(recorder.convergence_history, outcome.convergence_history);
            assert_eq!(
                recorder.krylov_residual_history,
                outcome.krylov_residual_history
            );
            assert_eq!(outcome.outer_iterations, outers);
            assert_eq!(recorder.outers_started, outcome.outer_iterations);
            assert_eq!(recorder.outers_completed, outcome.outer_iterations);
            assert_eq!(recorder.converged, outcome.converged);
        }
    }

    #[test]
    fn recording_observer_matches_outcome_for_sweep_gmres() {
        let problem = Problem::tiny().with_strategy(StrategyKind::SweepGmres);
        let mut session = Session::new(&problem).unwrap();
        let mut recorder = RecordingObserver::default();
        let outcome = session.run_observed(&mut recorder).unwrap();
        assert!(!recorder.krylov_residual_history.is_empty());
        assert_eq!(recorder.sweep_count, outcome.sweep_count);
        assert_eq!(recorder.convergence_history, outcome.convergence_history);
        assert_eq!(
            recorder.krylov_residual_history,
            outcome.krylov_residual_history
        );
    }

    #[test]
    fn rerunning_a_session_warm_starts() {
        let mut p = Problem::tiny();
        p.convergence_tolerance = 1e-12;
        p.inner_iterations = 4;
        let mut session = Session::new(&p).unwrap();
        let first = session.run().unwrap();
        let second = session.run().unwrap();
        // The second run starts from the first run's flux, so its first
        // iterate moves far less.
        assert!(second.convergence_history[0] < first.convergence_history[0]);
        assert_eq!(session.outcomes().len(), 2);
    }

    #[test]
    fn event_log_buffers_and_replays_both_ways() {
        let problem = Problem::tiny().with_strategy(StrategyKind::SweepGmres);

        // Record directly and via an EventLog replay: identical.
        let mut direct = RecordingObserver::default();
        Session::new(&problem)
            .unwrap()
            .run_observed(&mut direct)
            .unwrap();

        let mut log = EventLog::default();
        Session::new(&problem)
            .unwrap()
            .run_observed(&mut log)
            .unwrap();
        assert!(!log.events.is_empty());

        let mut replayed = RecordingObserver::default();
        log.replay(&mut replayed);
        // Wall-clock timing (sweep seconds, phase seconds) legitimately
        // differs between the two runs; every other recorded quantity —
        // including the deterministic phase-start counts — must match
        // exactly.
        fn zero_timing(r: &mut RecordingObserver) {
            r.sweep_seconds = 0.0;
            for s in &mut r.phase_seconds {
                *s = 0.0;
            }
        }
        zero_timing(&mut direct);
        let mut normalised = replayed.clone();
        zero_timing(&mut normalised);
        assert_eq!(direct, normalised);
        assert!(
            normalised.phase_starts.iter().sum::<usize>() > 0,
            "a GMRES run must open phase spans"
        );

        // Rank-tagged replay lands the same stream in a rank record.
        let mut tagged = RecordingObserver::default();
        log.replay_as_rank(2, &mut tagged);
        assert_eq!(tagged.rank_records.len(), 3);
        assert_eq!(tagged.rank(2), Some(&replayed));
        assert_eq!(tagged.rank(0), Some(&RecordingObserver::default()));
        assert_eq!(tagged.rank(3), None);
        // Driver-lane fields stay untouched by rank-lane events.
        assert_eq!(tagged.sweep_count, 0);
        assert!(tagged.convergence_history.is_empty());

        let mut cleared = log.clone();
        cleared.clear();
        assert!(cleared.events.is_empty());
    }

    #[test]
    fn progress_observer_rate_limits_high_rate_events() {
        let inner = InnerIteration {
            inner: 1,
            relative_change: 0.5,
        };
        let krylov = KrylovResidual {
            iteration: 1,
            relative_residual: 0.1,
        };
        let accel = AccelResidual {
            iteration: 0,
            relative_residual: 1.0,
        };
        // A huge interval: only the unconditional outer boundary prints.
        let mut p = ProgressObserver::with_interval(std::time::Duration::from_secs(3600));
        p.on_event(Driver, &OuterStart { outer: 0 });
        for event in [inner, krylov, accel] {
            p.on_event(Driver, &event);
        }
        p.on_event(
            Driver,
            &Sweep {
                sweep: 3,
                cells: 10,
                buckets: 2,
                seconds: 0.01,
            },
        );
        assert_eq!(p.lines_emitted(), 1);
        // A converged outer always flushes the boundary line plus the
        // final summary, no matter how recently the limiter fired.
        p.on_event(
            Driver,
            &OuterEnd {
                outer: 0,
                converged: true,
            },
        );
        assert_eq!(p.lines_emitted(), 3);

        // An unconverged outer prints the boundary line only.
        let unconverged = OuterEnd {
            outer: 0,
            converged: false,
        };
        let mut p = ProgressObserver::with_interval(std::time::Duration::from_secs(3600));
        p.on_event(Driver, &OuterStart { outer: 0 });
        p.on_event(Driver, &unconverged);
        assert_eq!(p.lines_emitted(), 2);

        // Zero interval: every rate-limited event prints too, including
        // the per-rank residual and inner-iterate streams.
        let mut p = ProgressObserver::with_interval(std::time::Duration::ZERO);
        for event in [inner, krylov, accel] {
            p.on_event(Driver, &event);
        }
        for event in [unconverged, inner, krylov, accel] {
            p.on_event(Rank(2), &event);
        }
        assert_eq!(p.lines_emitted(), 7);
    }

    #[test]
    fn replay_as_rank_re_lanes_everything_but_the_halo_exchange() {
        let stream = [
            PhaseStart {
                phase: Phase::Sweep,
            },
            PhaseEnd {
                phase: Phase::Sweep,
                seconds: 0.25,
            },
            Sweep {
                sweep: 1,
                cells: 144,
                buckets: 2,
                seconds: 0.25,
            },
            AccelResidual {
                iteration: 0,
                relative_residual: 1.0,
            },
            AccelResidual {
                iteration: 1,
                relative_residual: 0.25,
            },
            HaloExchange {
                iteration: 0,
                faces: 16,
                bytes: 1024,
            },
        ];
        let mut log = EventLog::default();
        for event in &stream {
            log.on_event(Driver, event);
        }
        // An entry already on a rank lane keeps it under either replay.
        log.on_event(Rank(0), &OuterStart { outer: 7 });
        assert_eq!(log.events.len(), 7);

        let mut direct = RecordingObserver::default();
        log.replay(&mut direct);
        assert_eq!(direct.phase_starts[Phase::Sweep.index()], 1);
        assert_eq!(direct.phase_seconds[Phase::Sweep.index()], 0.25);
        assert_eq!((direct.sweep_buckets, direct.cells_swept), (2, 144));
        assert_eq!(direct.accel_residual_history, vec![1.0, 0.25]);
        assert_eq!(direct.halo_exchanges, 1);
        assert_eq!((direct.halo_faces, direct.halo_bytes), (16, 1024));
        assert_eq!(direct.rank(0).unwrap().outers_started, 1);

        let mut tagged = RecordingObserver::default();
        log.replay_as_rank(1, &mut tagged);
        let mut expected = direct.clone();
        expected.rank_records.clear();
        expected.halo_exchanges = 0;
        expected.halo_faces = 0;
        expected.halo_bytes = 0;
        assert_eq!(tagged.rank(1), Some(&expected));
        assert_eq!(tagged.rank(0).unwrap().outers_started, 1);
        // The halo exchange stays a driver-lane event; nothing else does.
        assert_eq!(tagged.halo_exchanges, 1);
        assert_eq!(tagged.halo_bytes, 1024);
        assert!(tagged.phase_starts.is_empty());
        assert_eq!(tagged.sweep_buckets, 0);
        assert!(tagged.accel_residual_history.is_empty());
    }

    #[test]
    fn tee_observer_forwards_every_event_to_both() {
        let mut log = EventLog::default();
        for event in [
            OuterStart { outer: 0 },
            Sweep {
                sweep: 1,
                cells: 32,
                buckets: 4,
                seconds: 0.1,
            },
            HaloExchange {
                iteration: 0,
                faces: 4,
                bytes: 64,
            },
            OuterEnd {
                outer: 0,
                converged: true,
            },
        ] {
            log.on_event(Driver, &event);
        }

        let mut a = RecordingObserver::default();
        let mut b = RecordingObserver::default();
        {
            let mut tee = TeeObserver::new(&mut a, &mut b);
            log.replay(&mut tee);
            log.replay_as_rank(0, &mut tee);
        }
        assert_eq!(a, b);
        assert_eq!(a.sweep_count, 1);
        assert_eq!(a.cells_swept, 32);
        assert_eq!(a.halo_exchanges, 2);
        assert_eq!(a.rank_records.len(), 1);
        assert_eq!(a.rank_records[0].cells_swept, 32);
    }

    #[test]
    fn phase_labels_parse_back() {
        for phase in Phase::all() {
            assert_eq!(Phase::from_label(phase.label()), Some(phase));
        }
        assert_eq!(Phase::from_label("warp"), None);
    }

    #[test]
    fn recorder_clear_resets() {
        let mut r = RecordingObserver {
            sweep_count: 3,
            ..Default::default()
        };
        r.clear();
        assert_eq!(r, RecordingObserver::default());
    }
}
