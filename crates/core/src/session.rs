//! The solve-event stream and everything that folds it.
//!
//! * [`RunObserver`] is the streaming interface — one method receiving a
//!   [`SolveEvent`] at every outer iteration boundary, every inner
//!   iteration, every transport sweep and every Krylov residual.  An
//!   event carries something the receiver cannot compute from the
//!   [`Problem`](crate::problem::Problem) — a residual, a duration, a
//!   decision; the wavefront schedule is a function of the problem, so a
//!   sweep reports how many buckets it walked once
//!   ([`SolveEvent::Sweep`]) and never replays them one by one.
//! * Three folds turn the stream into what a run reports:
//!   [`RunMetrics`] counts it (the snapshot every
//!   [`SolveOutcome`](crate::solver::SolveOutcome) carries),
//!   [`SolveEvent::to_json`] encodes it one line per event —
//!   what [`JsonlObserver`] writes, a run-log frame stores, a serve job's
//!   event stream serves and `reproduce --progress` prints — and the span
//!   fold builds the outcome's [`TraceTree`].  [`run_with_telemetry`]
//!   tees the metrics and the span fold into every run of either driver.
//! * [`EventLog`] buffers the stream verbatim: a distributed driver
//!   replays its concurrently-solving ranks through one in rank order, a
//!   resume replays the checkpointed prefix from one, and two runs
//!   compare event by event once [`EventLog::zero_wallclock`] has zeroed
//!   their seconds.
//! * [`TransportSolver::run_observed`] and its block-Jacobi twin drive a
//!   solve under an observer.
//!
//! Counts, payload sizes, residuals and lanes are deterministic:
//! bit-for-bit identical at every thread and rank count.  Seconds are
//! wall-clock: [`EventLog::zero_wallclock`],
//! [`RunMetrics::zero_wallclock`] and [`TraceTree::zero_wallclock`] strip
//! them before two runs are compared.
//!
//! ```
//! use unsnap_core::problem::Problem;
//! use unsnap_core::session::{EventLog, SolveEvent};
//! use unsnap_core::solver::TransportSolver;
//!
//! let mut solver = TransportSolver::new(&Problem::tiny()).unwrap();
//! let mut log = EventLog::default();
//! let outcome = solver.run_observed(&mut log).unwrap();
//! let sweeps = log.events.iter().filter(|(_, e)| matches!(e, SolveEvent::Sweep { .. }));
//! assert_eq!(sweeps.count(), outcome.sweep_count);
//! assert_eq!(outcome.metrics.sweeps, outcome.sweep_count);
//! assert!(outcome.metrics.to_json().contains("\"cells_swept\""));
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use unsnap_obs::json::JsonObject;
use unsnap_obs::jsonl::JsonlWriter;
use unsnap_obs::metrics::Histogram;
use unsnap_obs::trace::{TraceTree, Tracer};

use crate::error::Result;
use crate::solver::TransportSolver;

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
    /// The block-Jacobi halo exchange: publishing, once a halo
    /// iteration's ranks are done, the face traces of angular flux each
    /// exports to its neighbours for the next iteration.
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
    /// [`SolveOutcome::convergence_history`](crate::solver::SolveOutcome::convergence_history)).
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
    /// entry of
    /// [`SolveOutcome::krylov_residual_history`](crate::solver::SolveOutcome::krylov_residual_history);
    /// never fires under plain source iteration).
    KrylovResidual {
        /// Krylov iterations completed.
        iteration: usize,
        /// Relative residual estimate.
        relative_residual: f64,
    },
    /// The low-order DSA correction solve reported a CG residual (one
    /// event per entry of
    /// [`SolveOutcome::accel_residual_history`](crate::solver::SolveOutcome::accel_residual_history);
    /// only fires under the `DSA-SI` strategy).
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
    /// The distributed driver published, once halo iteration `iteration`'s
    /// ranks were done, the face traces of angular flux each rank exports,
    /// for the next iteration's neighbours to read.  Delivered before that
    /// iteration's rank events, after the [`Phase::HaloExchange`] span that
    /// timed the publishing.  Fired by the driver itself (outside any
    /// rank), so it stays on [`Lane::Driver`] even under
    /// [`EventLog::replay_as_rank`].  Single-domain solves never fire
    /// it.
    HaloExchange {
        /// 0-based halo iteration.
        iteration: usize,
        /// Cut faces crossed by the exchange.
        faces: usize,
        /// Bytes of angular flux published: the size of the
        /// [`HaloFlux`](crate::domain::HaloFlux), one face trace per cut
        /// face and angle its downwind rank reads.
        bytes: u64,
    },
}

impl SolveEvent {
    /// The one JSON encoding of an event, as one line: what
    /// [`JsonlObserver`] streams and a
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

    /// What `pick` takes from the events on `lane`, in emission order.
    pub fn on_lane<T>(&self, lane: Lane, pick: impl Fn(&SolveEvent) -> Option<T>) -> Vec<T> {
        let events = self.events.iter().filter(|(l, _)| *l == lane);
        events.filter_map(|(_, event)| pick(event)).collect()
    }

    /// Zero the wall-clock payloads, [`SolveEvent::Sweep`]'s and
    /// [`SolveEvent::PhaseEnd`]'s `seconds`, and nothing else: two runs of
    /// one problem then compare equal event by event — at any thread or
    /// rank count, and across a checkpoint resume.
    pub fn zero_wallclock(&mut self) {
        for (_, event) in &mut self.events {
            if let SolveEvent::Sweep { seconds, .. } | SolveEvent::PhaseEnd { seconds, .. } = event
            {
                *seconds = 0.0;
            }
        }
    }

    /// Replay the buffered stream into `observer` on the recorded
    /// lanes, in emission order.
    pub(crate) fn replay(&self, observer: &mut dyn RunObserver) {
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

/// Run `solve` under `observer` teed with a fresh [`RunMetrics`] and span
/// fold, and return what they collected alongside the solve's own
/// result — how every outcome of both solver paths carries its metrics
/// snapshot and span tree without any caller wiring.
pub fn run_with_telemetry<T>(
    observer: &mut dyn RunObserver,
    solve: impl FnOnce(&mut dyn RunObserver) -> Result<T>,
) -> Result<(T, RunMetrics, TraceTree)> {
    let mut metrics = RunMetrics::default();
    let mut spans = SpanFold::new();
    let value = {
        let mut inner_tee = TeeObserver::new(observer, &mut metrics);
        solve(&mut TeeObserver::new(&mut inner_tee, &mut spans))?
    };
    Ok((value, metrics, spans.into_tree()))
}

/// The fixed bucket scale for the deterministic cells-per-sweep
/// histogram: powers of four from 1 to ~10⁹ kernel invocations.
fn cells_histogram() -> Histogram {
    let bounds: Vec<f64> = (0..16).map(|k| 4f64.powi(k)).collect();
    Histogram::with_bounds(&bounds)
}

/// The telemetry snapshot of one solve, attached to every outcome.
///
/// Fields up to [`RunMetrics::phase_starts`] (and the
/// [`RunMetrics::cells_per_sweep`] histogram) are **deterministic** —
/// event counts and payload sizes, identical at every thread/rank count.
/// The remaining fields are **wall-clock** and excluded from determinism
/// comparisons; [`RunMetrics::zero_wallclock`] normalises them away.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Transport sweeps performed (summed across ranks).
    pub sweeps: usize,
    /// Wavefront buckets walked, summed over all sweeps on all ranks
    /// (deterministic — the scheduling *structure*, not timing).
    pub sweep_buckets: usize,
    /// Kernel invocations (elements × groups × angles) summed over all
    /// sweeps on all ranks.
    pub cells_swept: u64,
    /// Outer (group-coupling / halo) iterations started.
    pub outers: usize,
    /// Global inner iterates reported.
    pub inner_iterations: usize,
    /// Rank-local inner iterates reported (distributed solves only).
    pub rank_inner_iterations: usize,
    /// Krylov residual events streamed (global + per-rank).
    pub krylov_residual_events: usize,
    /// DSA CG residual events streamed (global + per-rank).
    pub accel_residual_events: usize,
    /// Halo exchanges performed (distributed solves only).
    pub halo_exchanges: usize,
    /// Cut faces crossed, summed over all halo exchanges.
    pub halo_faces: usize,
    /// Bytes of angular flux published, summed over all halo exchanges.
    pub halo_bytes: u64,
    /// Phase spans opened, indexed by [`Phase::index`].
    pub phase_starts: Vec<usize>,
    /// Kernel invocations per sweep (deterministic histogram).
    pub cells_per_sweep: Histogram,
    /// Wall-clock seconds per phase, indexed by [`Phase::index`].
    pub phase_seconds: Vec<f64>,
    /// Wall-clock seconds per transport sweep (p50/p95 come from here).
    pub sweep_latency: Histogram,
    /// Wall-clock seconds in kernel matrix assembly (from the kernel's
    /// internal timers, surfaced by the solver at snapshot time).
    pub kernel_assemble_seconds: f64,
    /// Wall-clock seconds in kernel linear solves.
    pub kernel_solve_seconds: f64,
}

impl Default for RunMetrics {
    fn default() -> Self {
        Self {
            sweeps: 0,
            sweep_buckets: 0,
            cells_swept: 0,
            outers: 0,
            inner_iterations: 0,
            rank_inner_iterations: 0,
            krylov_residual_events: 0,
            accel_residual_events: 0,
            halo_exchanges: 0,
            halo_faces: 0,
            halo_bytes: 0,
            phase_starts: vec![0; Phase::all().len()],
            cells_per_sweep: cells_histogram(),
            phase_seconds: vec![0.0; Phase::all().len()],
            sweep_latency: Histogram::latency_seconds(),
            kernel_assemble_seconds: 0.0,
            kernel_solve_seconds: 0.0,
        }
    }
}

impl RunMetrics {
    /// Spans opened for `phase`.
    pub fn phase_count(&self, phase: Phase) -> usize {
        self.phase_starts[phase.index()]
    }

    /// Wall-clock seconds attributed to `phase`.
    pub fn phase_time(&self, phase: Phase) -> f64 {
        self.phase_seconds[phase.index()]
    }

    /// Median per-sweep wall-clock latency, if any sweep was timed.
    pub fn sweep_p50(&self) -> Option<f64> {
        self.sweep_latency.quantile(0.5)
    }

    /// 95th-percentile per-sweep wall-clock latency.
    pub fn sweep_p95(&self) -> Option<f64> {
        self.sweep_latency.quantile(0.95)
    }

    /// 99th-percentile per-sweep wall-clock latency (tail latency —
    /// the trajectory schema's `sweep_p99` column).
    pub fn sweep_p99(&self) -> Option<f64> {
        self.sweep_latency.quantile(0.99)
    }

    /// Zero every wall-clock field in place, leaving the deterministic
    /// counters untouched — the normalisation the determinism suites
    /// apply before comparing metrics across thread/rank counts.
    pub fn zero_wallclock(&mut self) {
        for s in &mut self.phase_seconds {
            *s = 0.0;
        }
        self.sweep_latency = Histogram::latency_seconds();
        self.kernel_assemble_seconds = 0.0;
        self.kernel_solve_seconds = 0.0;
    }

    /// A copy with the wall-clock fields zeroed.
    pub fn deterministic(&self) -> Self {
        let mut copy = self.clone();
        copy.zero_wallclock();
        copy
    }

    /// Serialise as a JSON object with `deterministic` and `wallclock`
    /// sections (phase maps keyed by [`Phase::label`]).
    pub fn to_json(&self) -> String {
        let mut phase_starts = JsonObject::new();
        let mut phase_seconds = JsonObject::new();
        for phase in Phase::all() {
            phase_starts =
                phase_starts.field_usize(phase.label(), self.phase_starts[phase.index()]);
            phase_seconds =
                phase_seconds.field_f64(phase.label(), self.phase_seconds[phase.index()]);
        }
        let deterministic = JsonObject::new()
            .field_usize("sweeps", self.sweeps)
            .field_usize("sweep_buckets", self.sweep_buckets)
            .field_u64("cells_swept", self.cells_swept)
            .field_usize("outers", self.outers)
            .field_usize("inner_iterations", self.inner_iterations)
            .field_usize("rank_inner_iterations", self.rank_inner_iterations)
            .field_usize("krylov_residual_events", self.krylov_residual_events)
            .field_usize("accel_residual_events", self.accel_residual_events)
            .field_usize("halo_exchanges", self.halo_exchanges)
            .field_usize("halo_faces", self.halo_faces)
            .field_u64("halo_bytes", self.halo_bytes)
            .field_raw("phase_starts", &phase_starts.finish())
            .field_raw("cells_per_sweep", &self.cells_per_sweep.to_json())
            .finish();
        let wallclock = JsonObject::new()
            .field_raw("phase_seconds", &phase_seconds.finish())
            .field_raw("sweep_latency_seconds", &self.sweep_latency.to_json())
            .field_f64("kernel_assemble_seconds", self.kernel_assemble_seconds)
            .field_f64("kernel_solve_seconds", self.kernel_solve_seconds)
            .finish();
        JsonObject::new()
            .field_raw("deterministic", &deterministic)
            .field_raw("wallclock", &wallclock)
            .finish()
    }
}

/// The fold every run tees in: every event, driver and rank lanes alike.
impl RunObserver for RunMetrics {
    fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
        let driver = lane == Lane::Driver;
        match *event {
            SolveEvent::OuterStart { .. } if driver => self.outers += 1,
            SolveEvent::InnerIteration { .. } if driver => self.inner_iterations += 1,
            SolveEvent::InnerIteration { .. } => self.rank_inner_iterations += 1,
            SolveEvent::Sweep {
                sweep,
                cells,
                buckets,
                seconds,
            } => {
                // Single-domain solves report a running count; ranks
                // report their own counts, so those are summed.
                self.sweeps = if driver {
                    self.sweeps.max(sweep)
                } else {
                    self.sweeps + 1
                };
                self.sweep_buckets += buckets;
                self.cells_swept += cells;
                self.cells_per_sweep.record(cells as f64);
                self.sweep_latency.record(seconds);
            }
            SolveEvent::KrylovResidual { .. } => self.krylov_residual_events += 1,
            SolveEvent::AccelResidual { .. } => self.accel_residual_events += 1,
            SolveEvent::PhaseStart { phase } => self.phase_starts[phase.index()] += 1,
            SolveEvent::PhaseEnd { phase, seconds } => self.phase_seconds[phase.index()] += seconds,
            SolveEvent::HaloExchange { faces, bytes, .. } => {
                self.halo_exchanges += 1;
                self.halo_faces += faces;
                self.halo_bytes += bytes;
            }
            SolveEvent::OuterStart { .. } | SolveEvent::OuterEnd { .. } => {}
        }
    }
}

/// An observer that streams every event to a JSONL run log, one JSON
/// document per line ([`Lane::Rank`] events carry a `rank` field).
///
/// I/O failures are latched rather than panicking mid-solve: writing
/// stops at the first error, which [`JsonlObserver::finish`] reports.
#[derive(Debug)]
pub struct JsonlObserver<W: Write> {
    writer: JsonlWriter<W>,
    error: Option<io::Error>,
    events_written: usize,
}

impl JsonlObserver<BufWriter<File>> {
    /// Stream events to a new (truncated) JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(JsonlWriter::create(path)?))
    }
}

impl<W: Write> JsonlObserver<W> {
    /// Stream events into an existing JSONL writer.
    pub fn new(writer: JsonlWriter<W>) -> Self {
        Self {
            writer,
            error: None,
            events_written: 0,
        }
    }

    /// Events successfully written so far.
    pub fn events_written(&self) -> usize {
        self.events_written
    }

    /// Flush and surface any latched I/O error.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }

    fn write(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        match self.writer.write_line(line) {
            Ok(()) => self.events_written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> RunObserver for JsonlObserver<W> {
    fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
        self.write(&event.to_json(lane));
    }
}

/// The span fold: builds the outcome's [`TraceTree`] from the event
/// stream.
///
/// [`Lane::Driver`] events land on **lane 0**; [`Lane::Rank`] events
/// land on **lane `rank + 1`**.  Within a lane the nesting is:
///
/// ```text
/// solve                              (lane 0 root, opened at tee time)
/// └── outer / rank_solve             (OuterStart .. OuterEnd)
///     └── inner                      (synthesised: first phase event of
///         │                           the iterate .. InnerIteration)
///         ├── source_assembly        (phase span)
///         ├── sweep                  (phase span; a leaf)
///         ├── krylov                 (phase span)
///         ├── accel_cg               (phase span)
///         │   └── cg_iter            (one per streamed DSA CG residual)
///         └── halo_exchange          (phase span + instant marker)
/// ```
///
/// Every span is opened and closed by an event that fired where the work
/// happened; none is synthesised after the fact.  No event arrives inside
/// a sweep, so a `sweep` span's width is the sweep's and nothing else's;
/// the wavefront buckets get no spans, because the solver reads no clock
/// per bucket.  Span *structure* derives from the deterministic half of
/// the stream alone.  Timestamps come from the fold's own clock at event
/// arrival — never from the solver's, so a mock solver clock still pins
/// phase seconds exactly — and [`TraceTree`]'s `PartialEq` ignores them.
#[derive(Debug)]
pub(crate) struct SpanFold {
    tracer: Tracer,
    /// Per lane: is an `outer`/`rank_solve` span currently open?
    outer_open: Vec<bool>,
    /// Per lane: is a synthesised `inner` span currently open?
    inner_open: Vec<bool>,
}

impl SpanFold {
    /// A fold over the system clock, with the driver-lane `solve` root
    /// already open.
    pub(crate) fn new() -> Self {
        Self::with_tracer(Tracer::new())
    }

    fn with_tracer(mut tracer: Tracer) -> Self {
        tracer.open(0, "solve", "");
        Self {
            tracer,
            outer_open: Vec::new(),
            inner_open: Vec::new(),
        }
    }

    /// Close everything still open and return the finished tree.
    pub(crate) fn into_tree(self) -> TraceTree {
        self.tracer.finish()
    }

    fn flag(v: &mut Vec<bool>, lane: usize) -> &mut bool {
        if v.len() <= lane {
            v.resize(lane + 1, false);
        }
        &mut v[lane]
    }

    fn close_inner(&mut self, lane: usize) {
        if std::mem::take(Self::flag(&mut self.inner_open, lane)) {
            self.tracer.close(lane);
        }
    }

    /// Open and immediately close a leaf span.
    fn leaf(&mut self, lane: usize, name: &str, detail: &str) {
        self.tracer.open(lane, name, detail);
        self.tracer.close(lane);
    }
}

impl RunObserver for SpanFold {
    fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
        let lane = match lane {
            Lane::Driver => 0,
            Lane::Rank(rank) => rank + 1,
        };
        match *event {
            SolveEvent::OuterStart { outer } => {
                let name = if lane == 0 { "outer" } else { "rank_solve" };
                self.tracer.open(lane, name, &format!("outer={outer}"));
                *Self::flag(&mut self.outer_open, lane) = true;
            }
            SolveEvent::OuterEnd { .. } => {
                self.close_inner(lane);
                if std::mem::take(Self::flag(&mut self.outer_open, lane)) {
                    self.tracer.close(lane);
                }
            }
            SolveEvent::PhaseStart { phase } => {
                // The iterate has no event of its own: the first phase
                // span of an outer opens the synthesised `inner`, and
                // the iterate's summary event (`InnerIteration`) closes
                // it.
                if *Self::flag(&mut self.outer_open, lane)
                    && !*Self::flag(&mut self.inner_open, lane)
                    && phase != Phase::Preassembly
                {
                    self.tracer.open(lane, "inner", "");
                    *Self::flag(&mut self.inner_open, lane) = true;
                }
                self.tracer.open(lane, phase.label(), "");
            }
            SolveEvent::PhaseEnd { .. } => self.tracer.close(lane),
            SolveEvent::InnerIteration { .. } => self.close_inner(lane),
            SolveEvent::AccelResidual { iteration, .. } => {
                self.leaf(lane, "cg_iter", &format!("iter={iteration}"))
            }
            SolveEvent::HaloExchange {
                iteration,
                faces,
                bytes,
            } => self.leaf(
                lane,
                "halo_exchange",
                &format!("iter={iteration} faces={faces} bytes={bytes}"),
            ),
            SolveEvent::Sweep { .. } | SolveEvent::KrylovResidual { .. } => {}
        }
    }
}

/// The name [`TransportSolver`] had while a wrapper forwarded every
/// method to it.  `benchmark/src/{solve,layers}.rs` compile against it
/// and `benchmark/` is frozen — delete it with the next `benchmark/` PR
/// (ROADMAP item 1), as `unsnap_comm::BlockJacobiOutcome`.
pub type Session = TransportSolver;

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use unsnap_obs::clock::MockClock;
    use unsnap_obs::trace::SpanRecord;

    use super::Lane::*;
    use super::SolveEvent::*;
    use super::*;
    use crate::problem::Problem;
    use crate::solver::SolveOutcome;
    use crate::strategy::StrategyKind;

    /// Every event variant on the driver lane and on `Rank(2)`, with
    /// the byte-exact encodings pinned at the pre-`on_event` commit.
    const PINS: &[(Lane, SolveEvent, &str)] = &include!("../tests/data/event_pins.rs");

    fn feed(observer: &mut dyn RunObserver) {
        for (lane, event, ..) in PINS {
            observer.on_event(*lane, event);
        }
    }

    fn pinned_log() -> EventLog {
        let mut log = EventLog::default();
        feed(&mut log);
        log
    }

    /// A log rendered with every float exact: the pins carry a NaN
    /// residual, which `==` never equals.
    fn render(log: &EventLog) -> String {
        format!("{:?}", log.events)
    }

    /// The driver lane of `log` reconstructs `outcome`'s sweep count,
    /// histories, outer count and convergence exactly.
    fn assert_stream_matches(log: &EventLog, outcome: &SolveOutcome) {
        let sweeps = log.on_lane(Driver, |e| match *e {
            Sweep { sweep, .. } => Some(sweep),
            _ => None,
        });
        assert_eq!(sweeps, (1..=outcome.sweep_count).collect::<Vec<_>>());
        let inner = log.on_lane(Driver, |e| match *e {
            InnerIteration {
                relative_change, ..
            } => Some(relative_change),
            _ => None,
        });
        assert_eq!(inner, outcome.convergence_history);
        let krylov = log.on_lane(Driver, |e| match *e {
            KrylovResidual {
                relative_residual, ..
            } => Some(relative_residual),
            _ => None,
        });
        assert_eq!(krylov, outcome.krylov_residual_history);
        let starts = log.on_lane(Driver, |e| matches!(e, OuterStart { .. }).then_some(()));
        assert_eq!(starts.len(), outcome.outer_iterations);
        let ends = log.on_lane(Driver, |e| match *e {
            OuterEnd { converged, .. } => Some(converged),
            _ => None,
        });
        assert_eq!(ends.len(), outcome.outer_iterations);
        assert_eq!(ends.contains(&true), outcome.converged);
    }

    #[test]
    fn session_runs() {
        let mut solver = TransportSolver::new(&Problem::tiny()).unwrap();
        let outcome = solver.run().unwrap();
        assert!(outcome.scalar_flux_total > 0.0);
    }

    #[test]
    fn event_log_matches_outcome_for_source_iteration() {
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
            let mut solver = TransportSolver::new(&problem).unwrap();
            let mut log = EventLog::default();
            let outcome = solver.run_observed(&mut log).unwrap();
            assert_eq!(outcome.outer_iterations, outers);
            assert_stream_matches(&log, &outcome);
        }
    }

    #[test]
    fn event_log_matches_outcome_for_sweep_gmres() {
        let problem = Problem::tiny().with_strategy(StrategyKind::SweepGmres);
        let mut solver = TransportSolver::new(&problem).unwrap();
        let mut log = EventLog::default();
        let outcome = solver.run_observed(&mut log).unwrap();
        assert!(!outcome.krylov_residual_history.is_empty());
        assert_stream_matches(&log, &outcome);
    }

    #[test]
    fn rerunning_a_session_warm_starts() {
        let mut p = Problem::tiny();
        p.convergence_tolerance = 1e-12;
        p.inner_iterations = 4;
        let mut solver = TransportSolver::new(&p).unwrap();
        let first = solver.run().unwrap();
        let second = solver.run().unwrap();
        // The second run starts from the first run's flux, so its first
        // iterate moves far less.
        assert!(second.convergence_history[0] < first.convergence_history[0]);
    }

    #[test]
    fn event_log_buffers_and_replays_both_ways() {
        let problem = Problem::tiny().with_strategy(StrategyKind::SweepGmres);
        let run = || {
            let mut log = EventLog::default();
            TransportSolver::new(&problem)
                .unwrap()
                .run_observed(&mut log)
                .unwrap();
            log
        };

        // Two runs differ only in their seconds: equal event by event
        // once those are zeroed, phase spans included.
        let (mut direct, log) = (run(), run());
        assert!(!log.events.is_empty());
        let mut replayed = EventLog::default();
        log.replay(&mut replayed);
        assert_eq!(replayed, log);
        direct.zero_wallclock();
        replayed.zero_wallclock();
        assert_eq!(direct, replayed);
        assert!(
            direct
                .events
                .iter()
                .any(|(_, e)| matches!(e, PhaseStart { .. })),
            "a GMRES run must open phase spans"
        );

        // Rank-tagged replay moves the same stream onto the rank's lane.
        let mut tagged = EventLog::default();
        log.replay_as_rank(2, &mut tagged);
        assert_eq!(tagged.events.len(), log.events.len());
        for ((lane, event), (_, original)) in tagged.events.iter().zip(&log.events) {
            assert_eq!((lane, event), (&Rank(2), original));
        }

        let mut cleared = log.clone();
        cleared.clear();
        assert!(cleared.events.is_empty());
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

        let mut direct = EventLog::default();
        log.replay(&mut direct);
        assert_eq!(direct, log);

        let mut tagged = EventLog::default();
        log.replay_as_rank(1, &mut tagged);
        let lanes: Vec<Lane> = tagged.events.iter().map(|(lane, _)| *lane).collect();
        // The halo exchange stays a driver-lane event; nothing else does.
        assert_eq!(
            lanes,
            [Rank(1), Rank(1), Rank(1), Rank(1), Rank(1), Driver, Rank(0)]
        );
        for ((_, event), (_, original)) in tagged.events.iter().zip(&log.events) {
            assert_eq!(event, original);
        }

        // The metrics fold counts the re-laned stream as rank work.
        let mut metrics = RunMetrics::default();
        tagged.replay(&mut metrics);
        assert_eq!(metrics.phase_count(Phase::Sweep), 1);
        assert_eq!(metrics.phase_time(Phase::Sweep), 0.25);
        assert_eq!((metrics.sweeps, metrics.sweep_buckets), (1, 2));
        assert_eq!(metrics.cells_swept, 144);
        assert_eq!(metrics.accel_residual_events, 2);
        assert_eq!((metrics.halo_faces, metrics.halo_bytes), (16, 1024));
        assert_eq!(metrics.outers, 0);
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

        let mut a = EventLog::default();
        let mut b = EventLog::default();
        {
            let mut tee = TeeObserver::new(&mut a, &mut b);
            log.replay(&mut tee);
            log.replay_as_rank(0, &mut tee);
        }
        assert_eq!(a, b);
        let lanes: Vec<Lane> = a.events.iter().map(|(lane, _)| *lane).collect();
        assert_eq!(
            lanes,
            [
                Driver,
                Driver,
                Driver,
                Driver,
                Rank(0),
                Rank(0),
                Driver,
                Rank(0)
            ]
        );
    }

    #[test]
    fn phase_labels_parse_back() {
        for phase in Phase::all() {
            assert_eq!(Phase::from_label(phase.label()), Some(phase));
        }
        assert_eq!(Phase::from_label("warp"), None);
    }

    #[test]
    fn event_log_zero_wallclock_zeroes_exactly_the_seconds() {
        let pinned = pinned_log();
        let mut zeroed = pinned.clone();
        zeroed.zero_wallclock();
        let mut timed = 0;
        for ((lane, before), (zeroed_lane, after)) in pinned.events.iter().zip(&zeroed.events) {
            assert_eq!(lane, zeroed_lane);
            let expected = match *before {
                Sweep {
                    sweep,
                    cells,
                    buckets,
                    seconds,
                } => {
                    assert!(seconds > 0.0);
                    timed += 1;
                    Sweep {
                        sweep,
                        cells,
                        buckets,
                        seconds: 0.0,
                    }
                }
                PhaseEnd { phase, seconds } => {
                    assert!(seconds > 0.0);
                    timed += 1;
                    PhaseEnd {
                        phase,
                        seconds: 0.0,
                    }
                }
                other => other,
            };
            assert_eq!(format!("{after:?}"), format!("{expected:?}"));
        }
        // A sweep and a phase end on each of the two lanes.
        assert_eq!(timed, 4);
    }

    #[test]
    fn event_log_zero_wallclock_equates_only_timing_differences() {
        let zeroed = |mut log: EventLog| {
            log.zero_wallclock();
            render(&log)
        };
        let pinned = pinned_log();

        // Other seconds on every timed event: equal once zeroed.
        let mut slower = pinned.clone();
        for (_, event) in &mut slower.events {
            if let Sweep { seconds, .. } | PhaseEnd { seconds, .. } = event {
                *seconds *= 3.0;
            }
        }
        assert_ne!(render(&slower), render(&pinned));
        assert_eq!(zeroed(slower), zeroed(pinned.clone()));

        // One residual a bit apart: still unequal.
        let mut moved = pinned.clone();
        let (_, first_inner) = moved
            .events
            .iter_mut()
            .find(|(_, e)| matches!(e, InnerIteration { .. }))
            .unwrap();
        if let InnerIteration {
            relative_change, ..
        } = first_inner
        {
            *relative_change = 0.3;
        }
        assert_ne!(zeroed(moved), zeroed(pinned.clone()));

        // One event on another lane: still unequal.
        let mut re_laned = pinned.clone();
        re_laned.events.last_mut().unwrap().0 = Rank(1);
        assert_ne!(zeroed(re_laned), zeroed(pinned));
    }

    #[test]
    fn run_metrics_fold_both_lanes() {
        let mut metrics = RunMetrics::default();
        feed(&mut metrics);
        assert_eq!(metrics.sweeps, 2); // running count 1 + one rank sweep
        assert_eq!(metrics.sweep_buckets, 2 * 132);
        assert_eq!(metrics.cells_swept, 2 << 40);
        assert_eq!(metrics.outers, 1);
        assert_eq!(metrics.inner_iterations, 1);
        assert_eq!(metrics.rank_inner_iterations, 1);
        assert_eq!(metrics.krylov_residual_events, 2);
        assert_eq!(metrics.accel_residual_events, 2);
        assert_eq!(metrics.halo_exchanges, 1);
        assert_eq!(metrics.halo_faces, 12);
        assert_eq!(metrics.halo_bytes, 9216);
        assert_eq!(metrics.phase_count(Phase::Sweep), 2);
        assert_eq!(metrics.phase_count(Phase::Krylov), 0);
        assert_eq!(metrics.phase_time(Phase::Sweep), 0.003);
        assert_eq!(metrics.cells_per_sweep.count(), 2);
        assert_eq!(metrics.sweep_latency.count(), 2);
        // Quantiles report bucket bounds clamped to [min, max].
        assert_eq!(metrics.sweep_p50(), Some(0.0015));
        assert_eq!(metrics.sweep_p95(), Some(0.0015));
    }

    #[test]
    fn zero_wallclock_strips_exactly_the_timing_half() {
        let mut metrics = RunMetrics::default();
        feed(&mut metrics);
        metrics.kernel_assemble_seconds = 1.5;
        let det = metrics.deterministic();
        assert_eq!(det.sweeps, metrics.sweeps);
        assert_eq!(det.cells_per_sweep, metrics.cells_per_sweep);
        assert_eq!(det.phase_starts, metrics.phase_starts);
        assert_eq!(det.phase_seconds, vec![0.0; Phase::all().len()]);
        assert_eq!(det.sweep_latency.count(), 0);
        assert_eq!(det.kernel_assemble_seconds, 0.0);
        // Two runs that differ only in timing agree after normalisation.
        let mut other = RunMetrics::default();
        feed(&mut other);
        other.phase_seconds[Phase::Krylov.index()] = 99.0;
        assert_ne!(other, metrics);
        assert_eq!(other.deterministic(), det);
    }

    #[test]
    fn metrics_json_renders() {
        let mut metrics = RunMetrics::default();
        feed(&mut metrics);
        let json = metrics.to_json();
        let parsed = unsnap_obs::reader::parse(&json).unwrap();
        let det = parsed.get("deterministic").unwrap();
        assert_eq!(det.get("sweeps").unwrap().as_usize(), Some(2));
        assert_eq!(
            det.get("phase_starts")
                .unwrap()
                .get("sweep")
                .unwrap()
                .as_usize(),
            Some(2)
        );
        let wall = parsed.get("wallclock").unwrap();
        assert_eq!(
            wall.get("phase_seconds")
                .unwrap()
                .get("sweep")
                .unwrap()
                .as_f64(),
            Some(0.003)
        );
        assert!(wall
            .get("sweep_latency_seconds")
            .unwrap()
            .get("p95")
            .is_some());
    }

    #[test]
    fn jsonl_lines_are_byte_exact() {
        let mut buf = Vec::new();
        let mut observer = JsonlObserver::new(JsonlWriter::new(&mut buf));
        feed(&mut observer);
        assert_eq!(observer.events_written(), PINS.len());
        observer.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let pinned: Vec<&str> = PINS.iter().map(|(_, _, line)| *line).collect();
        assert_eq!(text.lines().collect::<Vec<_>>(), pinned);
    }

    /// A span fold over a mock clock stepping `step_us` per reading, fed
    /// the preassembly span, then one outer iteration on the driver lane
    /// and one on rank 2's.
    fn folded(step_us: u64) -> TraceTree {
        let clock = MockClock::with_step(Duration::from_micros(step_us));
        let mut spans = SpanFold::with_tracer(Tracer::with_clock(Box::new(clock)));
        let phase = Phase::Preassembly;
        spans.on_event(Driver, &PhaseStart { phase });
        spans.on_event(
            Driver,
            &PhaseEnd {
                phase,
                seconds: 0.5,
            },
        );
        feed(&mut spans);
        spans.into_tree()
    }

    fn span<'t>(tree: &'t TraceTree, lane: usize, name: &str) -> &'t SpanRecord {
        let mut found = tree
            .spans
            .iter()
            .filter(|s| s.lane == lane && s.name == name);
        let span = found.next().unwrap();
        assert!(found.next().is_none(), "two {name} spans on lane {lane}");
        span
    }

    #[test]
    fn driver_stream_builds_the_documented_nesting() {
        let tree = folded(7);
        // Lane 0: solve, preassembly, outer, inner, sweep, cg_iter,
        // halo_exchange; lane 3: rank_solve, inner, sweep, cg_iter.
        assert_eq!(tree.len(), 11);
        let solve = &tree.spans[0];
        assert_eq!(
            (solve.name.as_str(), solve.lane, solve.parent),
            ("solve", 0, None)
        );
        assert_eq!(span(&tree, 0, "preassembly").parent, Some(solve.id));
        let outer = span(&tree, 0, "outer");
        assert_eq!(outer.parent, Some(solve.id));
        assert_eq!(outer.detail, "outer=3");
        let inner = span(&tree, 0, "inner");
        assert_eq!(inner.parent, Some(outer.id));
        let sweep = span(&tree, 0, "sweep");
        assert_eq!(sweep.parent, Some(inner.id));
        // A sweep is a leaf.
        assert!(tree.spans.iter().all(|s| s.parent != Some(sweep.id)));
        assert_eq!(span(&tree, 0, "cg_iter").parent, Some(inner.id));
        let halo = span(&tree, 0, "halo_exchange");
        assert_eq!(halo.parent, Some(inner.id));
        assert_eq!(halo.detail, "iter=0 faces=12 bytes=9216");
    }

    #[test]
    fn rank_events_land_on_their_own_lane() {
        let tree = folded(7);
        let rank_solve = span(&tree, 3, "rank_solve");
        assert_eq!(rank_solve.parent, None);
        let inner = span(&tree, 3, "inner");
        assert_eq!(inner.parent, Some(rank_solve.id));
        assert_eq!(span(&tree, 3, "sweep").parent, Some(inner.id));
        assert!(tree.spans.iter().all(|s| s.lane == 0 || s.lane == 3));
    }

    #[test]
    fn identical_streams_give_structurally_equal_trees() {
        // A different clock step: every timestamp differs.
        let (a, b) = (folded(7), folded(31));
        assert_eq!(a, b);
        assert_ne!(a.spans[1].start_us, b.spans[1].start_us);
    }
}
