//! Aggregation of the [`RunObserver`] event stream into run-level
//! telemetry.
//!
//! Three consumers of the same stream live here:
//!
//! * [`MetricsObserver`] folds every event (driver and rank lanes alike)
//!   into a [`RunMetrics`] snapshot.  The solvers tee one of these with
//!   the caller's observer on every `run_observed`, so each
//!   [`SolveOutcome`](crate::solver::SolveOutcome), of either driver,
//!   carries its metrics without any caller wiring.
//! * [`RunMetrics`] itself is split by the observability contract:
//!   deterministic counters/histograms (sweeps, cells, iteration and
//!   exchange counts — bit-for-bit identical at every thread and rank
//!   count) versus wall-clock fields (per-phase seconds, per-sweep
//!   latency), which [`RunMetrics::zero_wallclock`] strips before
//!   cross-run comparisons and a mock
//!   [`Clock`](unsnap_obs::clock::Clock) pins exactly.
//! * [`JsonlObserver`] streams every event verbatim to a JSONL run log
//!   (one JSON document per line) for offline analysis.
//!
//! ```
//! use unsnap_core::{Problem, Session};
//!
//! let outcome = Session::new(&Problem::tiny()).unwrap().run().unwrap();
//! assert_eq!(outcome.metrics.sweeps, outcome.sweep_count);
//! assert!(outcome.metrics.to_json().contains("\"cells_swept\""));
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use unsnap_obs::json::JsonObject;
use unsnap_obs::jsonl::JsonlWriter;
use unsnap_obs::metrics::{Determinism, Histogram, MetricsRegistry};

use crate::session::{Lane, Phase, RunObserver, SolveEvent};

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
    /// Equal to `cells_swept` by construction: both are fed by
    /// [`SolveEvent::Sweep`]'s `cells`.  Kept so the rendered JSON — and
    /// with it every golden — keeps its keys (ROADMAP item 9).
    pub bucket_tasks: u64,
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
            bucket_tasks: 0,
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

    /// Export into a tagged [`MetricsRegistry`] (the generic form
    /// tooling can merge and filter by determinism class).
    pub fn registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let det = Determinism::Deterministic;
        let wall = Determinism::WallClock;
        r.counter_add("sweeps", det, self.sweeps as u64);
        r.counter_add("sweep_buckets", det, self.sweep_buckets as u64);
        r.counter_add("bucket_tasks", det, self.bucket_tasks);
        r.counter_add("cells_swept", det, self.cells_swept);
        r.counter_add("outers", det, self.outers as u64);
        r.counter_add("inner_iterations", det, self.inner_iterations as u64);
        r.counter_add(
            "rank_inner_iterations",
            det,
            self.rank_inner_iterations as u64,
        );
        r.counter_add(
            "krylov_residual_events",
            det,
            self.krylov_residual_events as u64,
        );
        r.counter_add(
            "accel_residual_events",
            det,
            self.accel_residual_events as u64,
        );
        r.counter_add("halo_exchanges", det, self.halo_exchanges as u64);
        r.counter_add("halo_faces", det, self.halo_faces as u64);
        r.counter_add("halo_bytes", det, self.halo_bytes);
        for phase in Phase::all() {
            r.counter_add(
                &format!("phase_starts.{phase}"),
                det,
                self.phase_starts[phase.index()] as u64,
            );
            r.gauge_set(
                &format!("phase_seconds.{phase}"),
                wall,
                self.phase_seconds[phase.index()],
            );
        }
        r.histogram_insert("cells_per_sweep", det, self.cells_per_sweep.clone());
        r.histogram_insert("sweep_latency_seconds", wall, self.sweep_latency.clone());
        r.gauge_set(
            "kernel_assemble_seconds",
            wall,
            self.kernel_assemble_seconds,
        );
        r.gauge_set("kernel_solve_seconds", wall, self.kernel_solve_seconds);
        r
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
            .field_u64("bucket_tasks", self.bucket_tasks)
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

    /// Render the per-phase wall-clock breakdown as an aligned table
    /// (phase, spans, seconds, share of the phase total).
    pub fn phase_table(&self) -> String {
        let total: f64 = self.phase_seconds.iter().sum();
        let mut out = String::from("phase            spans     seconds    share\n");
        for phase in Phase::all() {
            let seconds = self.phase_seconds[phase.index()];
            let share = if total > 0.0 {
                100.0 * seconds / total
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<15} {:>6} {:>11.6} {:>7.1}%\n",
                phase.label(),
                self.phase_starts[phase.index()],
                seconds,
                share
            ));
        }
        out.push_str(&format!("{:<15} {:>6} {:>11.6}\n", "total", "", total));
        out
    }
}

/// The observer the solvers tee into every run: folds the full event
/// stream — driver and rank lanes alike — into a [`RunMetrics`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsObserver {
    /// The running totals (readable mid-run; snapshot with
    /// [`MetricsObserver::snapshot`]).
    pub metrics: RunMetrics,
}

impl MetricsObserver {
    /// A fresh observer with zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the current totals.
    pub fn snapshot(&self) -> RunMetrics {
        self.metrics.clone()
    }
}

impl RunObserver for MetricsObserver {
    fn on_event(&mut self, lane: Lane, event: &SolveEvent) {
        let m = &mut self.metrics;
        let driver = lane == Lane::Driver;
        match *event {
            SolveEvent::OuterStart { .. } if driver => m.outers += 1,
            SolveEvent::InnerIteration { .. } if driver => m.inner_iterations += 1,
            SolveEvent::InnerIteration { .. } => m.rank_inner_iterations += 1,
            SolveEvent::Sweep {
                sweep,
                cells,
                buckets,
                seconds,
            } => {
                // Single-domain solves report a running count; ranks
                // report their own counts, so those are summed.
                m.sweeps = if driver {
                    m.sweeps.max(sweep)
                } else {
                    m.sweeps + 1
                };
                m.sweep_buckets += buckets;
                m.bucket_tasks += cells;
                m.cells_swept += cells;
                m.cells_per_sweep.record(cells as f64);
                m.sweep_latency.record(seconds);
            }
            SolveEvent::KrylovResidual { .. } => m.krylov_residual_events += 1,
            SolveEvent::AccelResidual { .. } => m.accel_residual_events += 1,
            SolveEvent::PhaseStart { phase } => m.phase_starts[phase.index()] += 1,
            SolveEvent::PhaseEnd { phase, seconds } => m.phase_seconds[phase.index()] += seconds,
            SolveEvent::HaloExchange { faces, bytes, .. } => {
                m.halo_exchanges += 1;
                m.halo_faces += faces;
                m.halo_bytes += bytes;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event variant on the driver lane and on `Rank(2)`, with
    /// the byte-exact encodings pinned at the pre-`on_event` commit.
    const PINS: &[(Lane, SolveEvent, &str)] = &include!("../tests/data/event_pins.rs");

    fn feed(observer: &mut dyn RunObserver) {
        for (lane, event, ..) in PINS {
            observer.on_event(*lane, event);
        }
    }

    #[test]
    fn metrics_observer_aggregates_both_streams() {
        let mut m = MetricsObserver::new();
        feed(&mut m);
        let metrics = m.snapshot();
        assert_eq!(metrics.sweeps, 2); // running count 1 + one rank sweep
        assert_eq!(metrics.sweep_buckets, 2 * 132);
        assert_eq!(metrics.bucket_tasks, metrics.cells_swept);
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
        let mut m = MetricsObserver::new();
        feed(&mut m);
        let mut metrics = m.snapshot();
        metrics.kernel_assemble_seconds = 1.5;
        let det = metrics.deterministic();
        assert_eq!(det.sweeps, metrics.sweeps);
        assert_eq!(det.cells_per_sweep, metrics.cells_per_sweep);
        assert_eq!(det.phase_starts, metrics.phase_starts);
        assert_eq!(det.phase_seconds, vec![0.0; Phase::all().len()]);
        assert_eq!(det.sweep_latency.count(), 0);
        assert_eq!(det.kernel_assemble_seconds, 0.0);
        // Two runs that differ only in timing agree after normalisation.
        let mut again = MetricsObserver::new();
        feed(&mut again);
        let mut other = again.snapshot();
        other.phase_seconds[Phase::Krylov.index()] = 99.0;
        assert_ne!(other, metrics);
        assert_eq!(other.deterministic(), det);
    }

    #[test]
    fn registry_export_tags_the_classes() {
        let mut m = MetricsObserver::new();
        feed(&mut m);
        let registry = m.snapshot().registry();
        assert_eq!(registry.counter("sweeps"), Some(2));
        assert_eq!(registry.counter("sweep_buckets"), Some(264));
        assert_eq!(registry.counter("halo_bytes"), Some(9216));
        assert_eq!(registry.gauge("phase_seconds.sweep"), Some(0.003));
        let det = registry.deterministic_only();
        assert_eq!(det.counter("cells_swept"), Some(2 << 40));
        assert!(det.gauge("phase_seconds.sweep").is_none());
        assert!(det.histogram("cells_per_sweep").is_some());
        assert!(det.histogram("sweep_latency_seconds").is_none());
    }

    #[test]
    fn metrics_json_and_table_render() {
        let mut m = MetricsObserver::new();
        feed(&mut m);
        let metrics = m.snapshot();
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

        let table = metrics.phase_table();
        assert!(table.contains("krylov"));
        assert!(table.contains("total"));
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
}
