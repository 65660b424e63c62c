//! Harness-side span recording for the traced pass.
//!
//! The program is not instrumented here (that is a later change): the
//! harness stamps the calls it makes into each layer's public API.
//! Stamps are kept in memory as raw open/close events — client threads
//! each fill their own [`Spans`] — and are replayed in time order into
//! one [`unsnap_obs::trace::Tracer`] when the pass ends, which gives the
//! Chrome export and the parent links self time is computed from.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use unsnap_obs::clock::MockClock;
use unsnap_obs::trace::{TraceTree, Tracer};

#[derive(Debug, Clone)]
enum Mark {
    Open { name: &'static str, detail: String },
    Close,
}

#[derive(Debug, Clone)]
struct Event {
    at: Duration,
    lane: usize,
    mark: Mark,
}

/// Raw span events of one thread.
#[derive(Debug, Clone)]
pub struct Spans {
    origin: Instant,
    events: Vec<Event>,
}

impl Spans {
    /// A recorder whose timestamps count from `origin`; recorders that
    /// are merged later must share it.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            events: Vec::new(),
        }
    }

    /// The shared origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span on `lane` (0 = the harness driver, `n` = client `n`).
    pub fn open(&mut self, lane: usize, name: &'static str, detail: impl Into<String>) {
        self.events.push(Event {
            at: self.origin.elapsed(),
            lane,
            mark: Mark::Open {
                name,
                detail: detail.into(),
            },
        });
    }

    /// Close the innermost open span on `lane`.
    pub fn close(&mut self, lane: usize) {
        self.events.push(Event {
            at: self.origin.elapsed(),
            lane,
            mark: Mark::Close,
        });
    }

    /// Run `work` inside a span on lane 0 and return its result with the
    /// seconds it took.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        detail: &str,
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.open(0, name, detail);
        let t0 = Instant::now();
        let result = work();
        let seconds = t0.elapsed().as_secs_f64();
        self.close(0);
        (result, seconds)
    }

    /// Take over another thread's events.
    pub fn absorb(&mut self, other: Spans) {
        self.events.extend(other.events);
    }

    /// Replay every event, in time order, into one tracer.
    pub fn finish(mut self) -> TraceTree {
        // Stable: events of one lane keep their recording order even
        // when two stamps read the same instant.
        self.events.sort_by_key(|e| e.at);
        let clock = MockClock::new();
        let mut tracer = Tracer::with_clock(Box::new(clock.clone()));
        for event in self.events {
            clock.set(event.at);
            match event.mark {
                Mark::Open { name, detail } => {
                    tracer.open(event.lane, name, &detail);
                }
                Mark::Close => tracer.close(event.lane),
            }
        }
        tracer.finish()
    }
}

/// Seconds of every retained span named `name`, in open order.
pub fn durations(tree: &TraceTree, name: &str) -> Vec<f64> {
    tree.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_us() as f64 * 1e-6)
        .collect()
}

/// Per span name: count, total seconds and self seconds (duration minus
/// the part covered by child spans).
pub fn self_time_table(tree: &TraceTree) -> BTreeMap<String, (usize, f64, f64)> {
    let first = tree.spans.first().map_or(0, |s| s.id);
    let mut child_us = vec![0u64; tree.spans.len()];
    for span in &tree.spans {
        if let Some(slot) = span
            .parent
            .and_then(|p| p.checked_sub(first))
            .and_then(|i| child_us.get_mut(i as usize))
        {
            *slot += span.duration_us();
        }
    }
    let mut table: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (span, children) in tree.spans.iter().zip(child_us) {
        let row = table.entry(span.name.clone()).or_insert((0, 0.0, 0.0));
        row.0 += 1;
        row.1 += span.duration_us() as f64 * 1e-6;
        row.2 += span.duration_us().saturating_sub(children) as f64 * 1e-6;
    }
    table
}

/// The table of [`self_time_table`], rendered.
pub fn render_self_times(tree: &TraceTree) -> String {
    let mut out = format!(
        "{:<28} {:>7} {:>12} {:>12}\n",
        "span", "count", "total s", "self s"
    );
    for (name, (count, total, own)) in self_time_table(tree) {
        out.push_str(&format!(
            "{name:<28} {count:>7} {total:>12.6} {own:>12.6}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_lanes_replay_in_time_order_with_parents() {
        let origin = Instant::now();
        let mut driver = Spans::new(origin);
        driver.open(0, "phase", "a");
        let mut client = Spans::new(origin);
        client.open(1, "request", "id=1");
        client.open(1, "post", "");
        client.close(1);
        client.close(1);
        driver.absorb(client);
        driver.close(0);
        let tree = driver.finish();
        assert_eq!(tree.dropped, 0);
        assert_eq!(tree.len(), 3);
        let post = tree.spans.iter().find(|s| s.name == "post").unwrap();
        let request = tree.spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(post.parent, Some(request.id));
        assert_eq!(request.parent, None, "lanes do not nest across threads");
        assert_eq!(durations(&tree, "post").len(), 1);
        let table = self_time_table(&tree);
        let (count, total, own) = table["request"];
        assert_eq!(count, 1);
        assert!(own <= total);
        // The export is what obs::reader re-parses.
        assert!(unsnap_obs::reader::parse(&tree.to_chrome_json()).is_ok());
    }

    #[test]
    fn time_returns_the_result_and_records_one_span() {
        let mut spans = Spans::new(Instant::now());
        let (value, seconds) = spans.time("work", "", || 6 * 7);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
        assert_eq!(spans.finish().count_named("work"), 1);
    }
}
