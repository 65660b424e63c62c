//! The [`TraceObserver`]: folds the [`RunObserver`] event stream into a
//! hierarchical [`TraceTree`] (PR 10).
//!
//! The observer is teed into every `run_observed` alongside the
//! [`MetricsObserver`](crate::metrics::MetricsObserver), so each
//! [`SolveOutcome`](crate::solver::SolveOutcome), of either driver,
//! carries a span tree with no caller wiring.
//!
//! ## Span model
//!
//! [`Lane::Driver`] events land on **lane 0**; [`Lane::Rank`] events
//! land on **lane `rank + 1`**.  Within a lane the nesting is:
//!
//! ```text
//! solve                              (lane 0 root, opened at tee time)
//! └── outer / rank_solve             (OuterStart .. OuterEnd)
//!     └── inner                      (synthesised: first phase event of
//!         │                           the iterate .. InnerIteration)
//!         ├── source_assembly        (phase span)
//!         ├── sweep                  (phase span; a leaf)
//!         ├── krylov                 (phase span)
//!         ├── accel_cg               (phase span)
//!         │   └── cg_iter            (one per streamed DSA CG residual
//!         │                           — `unsnap-accel` reports them
//!         │                           through its residual closure)
//!         └── halo_exchange          (phase span + instant marker)
//! ```
//!
//! Every span is opened and closed by an event that fired where the
//! work happened; none is synthesised after the fact.  No event arrives
//! inside a sweep, so a `sweep` span's width is the sweep's and nothing
//! else's.  The wavefront buckets of a sweep get no spans: which buckets a sweep walks is a
//! function of the schedule (`TransportSolver::schedules()`), and the
//! solver reads no clock per bucket, so a per-bucket span could only
//! carry the width of the loop that replayed it.
//!
//! ## The determinism split
//!
//! Span *structure* — ids, parents, lanes, depths, names, details,
//! counts — is derived purely from the deterministic half of the event
//! stream, so it is bit-for-bit identical at every thread and rank
//! count (and across checkpoint/resume, because the replayed prefix
//! reproduces the stream verbatim).  Timestamps come from the tracer's
//! own clock at event *arrival* time — never from the solver's clock,
//! so the `MockClock` phase-pinning contract is untouched — and are
//! wall-clock: [`TraceTree::zero_wallclock`] strips them, and
//! [`TraceTree`]'s `PartialEq` ignores them outright.

use unsnap_obs::clock::Clock;
use unsnap_obs::trace::{TraceTree, Tracer};

use crate::session::{Lane, Phase, RunObserver, SolveEvent};

/// A [`RunObserver`] that builds a [`TraceTree`] from the event stream.
///
/// See the [module docs](self) for the span model and determinism
/// contract.
#[derive(Debug)]
pub struct TraceObserver {
    tracer: Tracer,
    /// Per lane: is an `outer`/`rank_solve` span currently open?
    outer_open: Vec<bool>,
    /// Per lane: is a synthesised `inner` span currently open?
    inner_open: Vec<bool>,
}

impl Default for TraceObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceObserver {
    /// A trace observer over the system clock, with the driver-lane
    /// `solve` root already open.
    pub fn new() -> Self {
        Self::with_tracer(Tracer::new())
    }

    /// A trace observer over the given clock (tests inject a
    /// [`MockClock`](unsnap_obs::clock::MockClock) to pin timestamps).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Self::with_tracer(Tracer::with_clock(clock))
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
    pub fn into_tree(self) -> TraceTree {
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

impl RunObserver for TraceObserver {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use unsnap_obs::clock::MockClock;

    fn observer() -> TraceObserver {
        TraceObserver::with_clock(Box::new(MockClock::with_step(Duration::from_micros(7))))
    }

    const PINS: &[(Lane, SolveEvent, &str)] = &include!("../tests/data/event_pins.rs");

    /// The preassembly span, then one outer iteration on the driver
    /// lane and one on rank 2's.
    fn feed(t: &mut TraceObserver) {
        let phase = Phase::Preassembly;
        t.on_event(Lane::Driver, &SolveEvent::PhaseStart { phase });
        let seconds = 0.5;
        t.on_event(Lane::Driver, &SolveEvent::PhaseEnd { phase, seconds });
        for (lane, event, ..) in PINS {
            t.on_event(*lane, event);
        }
    }

    fn span<'t>(tree: &'t TraceTree, lane: usize, name: &str) -> &'t unsnap_obs::trace::SpanRecord {
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
        let mut t = observer();
        feed(&mut t);
        let tree = t.into_tree();
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
        let mut t = observer();
        feed(&mut t);
        let tree = t.into_tree();
        let rank_solve = span(&tree, 3, "rank_solve");
        assert_eq!(rank_solve.parent, None);
        let inner = span(&tree, 3, "inner");
        assert_eq!(inner.parent, Some(rank_solve.id));
        assert_eq!(span(&tree, 3, "sweep").parent, Some(inner.id));
        assert!(tree.spans.iter().all(|s| s.lane == 0 || s.lane == 3));
    }

    #[test]
    fn identical_streams_give_structurally_equal_trees() {
        let mut a = observer();
        feed(&mut a);
        // Different clock step — every timestamp differs.
        let mut b =
            TraceObserver::with_clock(Box::new(MockClock::with_step(Duration::from_micros(31))));
        feed(&mut b);
        let (ta, tb) = (a.into_tree(), b.into_tree());
        assert_eq!(ta, tb);
        assert_ne!(ta.spans[1].start_us, tb.spans[1].start_us);
    }
}
