//! Hierarchical tracing: a determinism-split span tree with exportable
//! profiles.
//!
//! A [`Tracer`] records nested spans into per-lane stacks (lane 0 is the
//! driver thread; distributed drivers give each rank its own lane) and a
//! bounded ring buffer of completed records.  The PR 6 observability
//! split applies *structurally*:
//!
//! * span **structure** — ids, parent links, lane assignment, nesting
//!   depth, names and detail strings — is [`Deterministic`]: it derives
//!   only from the (replayed, rank-ordered) event stream, so it is
//!   bit-for-bit identical at every thread and rank count;
//! * span **timestamps** are [`WallClock`]: they come from the tracer's
//!   own arrival-time [`Clock`] and must be stripped with
//!   [`TraceTree::zero_wallclock`] (or compared through the structural
//!   [`PartialEq`]) before any cross-run comparison.
//!
//! Timestamps are issued strictly increasing (`ts = max(now, last + 1)`
//! in microseconds), so exported events are monotonically ordered and —
//! together with the per-lane stack discipline — strictly nested.
//!
//! Two exporters turn a finished [`TraceTree`] into standard profile
//! formats: [`TraceTree::to_chrome_json`] emits Chrome `trace_event`
//! JSON loadable in Perfetto / `chrome://tracing`, and
//! [`TraceTree::to_collapsed`] emits collapsed-stack flamegraph text
//! (`lane;frame;frame value` lines).
//!
//! ```
//! use unsnap_obs::trace::Tracer;
//!
//! let mut tracer = Tracer::new();
//! tracer.open(0, "outer", "outer=0");
//! tracer.open(0, "sweep", "");
//! tracer.close(0);
//! tracer.close(0);
//! let tree = tracer.finish();
//! assert_eq!(tree.spans.len(), 2);
//! assert_eq!(tree.spans[1].parent, Some(0));
//! assert!(tree.to_chrome_json().contains("\"traceEvents\""));
//! ```
//!
//! [`Deterministic`]: crate::metrics::Determinism::Deterministic
//! [`WallClock`]: crate::metrics::Determinism::WallClock

use std::collections::{BTreeMap, VecDeque};

use crate::clock::{Clock, SystemClock};
use crate::json::{array_raw, JsonObject};

/// Default ring-buffer bound: plenty for any bench-sized solve while
/// keeping a runaway trace at tens of megabytes, not unbounded.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// One recorded span.
///
/// `id`, `parent`, `lane`, `depth`, `name` and `detail` are
/// deterministic; `start_us`/`end_us` are wall-clock microseconds from
/// the tracer's own clock.  Equality on the record compares every field
/// (timestamps included); the containing [`TraceTree`]'s `PartialEq` is
/// the structural one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Sequential id in open order (deterministic).
    pub id: u64,
    /// The enclosing span on the same lane, if any.
    pub parent: Option<u64>,
    /// The lane (Chrome `tid`): 0 = driver, rank `r` = lane `r + 1`.
    pub lane: usize,
    /// Nesting depth within the lane (0 = lane root).
    pub depth: usize,
    /// Span name (e.g. a phase label).
    pub name: String,
    /// Deterministic payload, e.g. `"iter=0 faces=12 bytes=9216"`; empty
    /// when there is none.
    pub detail: String,
    /// Open timestamp in microseconds (wall-clock).
    pub start_us: u64,
    /// Close timestamp in microseconds (wall-clock, `>= start_us`).
    pub end_us: u64,
}

impl SpanRecord {
    /// Whether two records agree on every deterministic field
    /// (timestamps excluded).
    pub fn same_structure(&self, other: &SpanRecord) -> bool {
        self.id == other.id
            && self.parent == other.parent
            && self.lane == other.lane
            && self.depth == other.depth
            && self.name == other.name
            && self.detail == other.detail
    }

    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A finished span tree: the records in open (id) order plus the count
/// of spans the ring buffer evicted.
///
/// `PartialEq` compares **structure only** — ids, parents, lanes,
/// depths, names, details and the dropped count — so two trees of the
/// same solve at different thread counts (or a fresh run versus a
/// checkpoint-resumed one) compare equal even though their wall-clock
/// timestamps differ.  Use [`TraceTree::zero_wallclock`] when a
/// bitwise comparison of the full records is wanted instead.
#[derive(Debug, Clone, Default)]
pub struct TraceTree {
    /// The retained spans, in open order (ids are contiguous).
    pub spans: Vec<SpanRecord>,
    /// Spans evicted by the ring buffer (oldest first).
    pub dropped: u64,
}

impl PartialEq for TraceTree {
    fn eq(&self, other: &Self) -> bool {
        self.dropped == other.dropped
            && self.spans.len() == other.spans.len()
            && self
                .spans
                .iter()
                .zip(&other.spans)
                .all(|(a, b)| a.same_structure(b))
    }
}

/// The lane label used in both exporters: `driver` for lane 0, `rankN`
/// for lane `N + 1`.
pub fn lane_label(lane: usize) -> String {
    if lane == 0 {
        "driver".to_string()
    } else {
        format!("rank{}", lane - 1)
    }
}

impl TraceTree {
    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the tree holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The span with the given id, if retained.
    pub fn span(&self, id: u64) -> Option<&SpanRecord> {
        let first = self.spans.first()?.id;
        self.spans
            .get(usize::try_from(id.checked_sub(first)?).ok()?)
    }

    /// Retained spans with the given name.
    pub fn count_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The deepest nesting level in the tree (0 for an empty tree).
    pub fn max_depth(&self) -> usize {
        self.spans.iter().map(|s| s.depth).max().unwrap_or(0)
    }

    /// Zero every wall-clock timestamp, leaving only the deterministic
    /// structure — the trace analogue of
    /// [`zero_wallclock`](crate::metrics) on metric snapshots.
    pub fn zero_wallclock(&mut self) {
        for span in &mut self.spans {
            span.start_us = 0;
            span.end_us = 0;
        }
    }

    /// Export as Chrome `trace_event` JSON (the "JSON Array Format"
    /// wrapped in an object), loadable in Perfetto and
    /// `chrome://tracing`.
    ///
    /// Every span becomes one complete (`"ph":"X"`) event with `ts`/`dur`
    /// in microseconds, `pid` 0 and the lane as `tid`; span id, parent
    /// and detail ride in `args`.  One `thread_name` metadata event per
    /// lane labels the lanes (`driver`, `rank0`, …).  Events are emitted
    /// in open order, so `ts` is strictly increasing.
    pub fn to_chrome_json(&self) -> String {
        let mut lanes: Vec<usize> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let metadata = lanes.into_iter().map(|lane| {
            JsonObject::new()
                .field_str("name", "thread_name")
                .field_str("ph", "M")
                .field_usize("pid", 0)
                .field_usize("tid", lane)
                .field_raw(
                    "args",
                    &JsonObject::new()
                        .field_str("name", &lane_label(lane))
                        .finish(),
                )
                .finish()
        });
        let spans = self.spans.iter().map(|s| {
            let mut args = JsonObject::new().field_u64("id", s.id).field_raw(
                "parent",
                &s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
            );
            args = args.field_usize("depth", s.depth);
            if !s.detail.is_empty() {
                args = args.field_str("detail", &s.detail);
            }
            JsonObject::new()
                .field_str("name", &s.name)
                .field_str("cat", "unsnap")
                .field_str("ph", "X")
                .field_u64("ts", s.start_us)
                .field_u64("dur", s.duration_us())
                .field_usize("pid", 0)
                .field_usize("tid", s.lane)
                .field_raw("args", &args.finish())
                .finish()
        });
        JsonObject::new()
            .field_raw("traceEvents", &array_raw(metadata.chain(spans)))
            .field_str("displayTimeUnit", "ms")
            .field_u64("droppedSpans", self.dropped)
            .finish()
    }

    /// Export as collapsed-stack flamegraph text: one
    /// `lane;frame;...;frame value` line per distinct stack, where the
    /// value is the stack's summed *self* time in microseconds (clamped
    /// to at least 1 so structure-only trees still render).  Lines are
    /// sorted, so the output is deterministic given deterministic
    /// structure and pinned clocks.
    pub fn to_collapsed(&self) -> String {
        let index: BTreeMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        // Self time = duration minus the duration of retained children.
        let mut child_us = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent_idx) = span.parent.and_then(|p| index.get(&p)) {
                child_us[*parent_idx] += span.duration_us();
            }
        }
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut frames = vec![span.name.clone()];
            let mut cursor = span.parent;
            while let Some(parent_id) = cursor {
                match index.get(&parent_id) {
                    Some(&idx) => {
                        frames.push(self.spans[idx].name.clone());
                        cursor = self.spans[idx].parent;
                    }
                    // Parent evicted by the ring: root the stack here.
                    None => break,
                }
            }
            frames.push(lane_label(span.lane));
            frames.reverse();
            let self_us = span.duration_us().saturating_sub(child_us[i]).max(1);
            *stacks.entry(frames.join(";")).or_insert(0) += self_us;
        }
        let mut out = String::new();
        for (stack, value) in stacks {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }
}

/// The span recorder: per-lane open-span stacks over a bounded ring
/// buffer of records.
///
/// The tracer is single-threaded by design — distributed drivers replay
/// rank event logs in rank order on the driver thread, so one tracer
/// sees every lane's events in a deterministic sequence.  Timestamps
/// come from the tracer's **own** clock (arrival time), never from the
/// solver's clock, so attaching a tracer adds no solver-side clock
/// reads and cannot disturb mock-clock-pinned phase timings.
#[derive(Debug)]
pub struct Tracer {
    clock: Box<dyn Clock>,
    capacity: usize,
    spans: VecDeque<SpanRecord>,
    stacks: Vec<Vec<u64>>,
    next_id: u64,
    dropped: u64,
    last_ts: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer over the system clock with the default ring capacity.
    pub fn new() -> Self {
        Self::with_clock(Box::new(SystemClock::new()))
    }

    /// A tracer over the given clock (e.g. a
    /// [`MockClock`](crate::clock::MockClock) to pin timestamps).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Self {
            clock,
            capacity: DEFAULT_SPAN_CAPACITY,
            spans: VecDeque::new(),
            stacks: Vec::new(),
            next_id: 0,
            dropped: 0,
            last_ts: 0,
        }
    }

    /// Override the ring-buffer bound (mainly for tests).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Strictly-increasing microsecond timestamps: real time when it
    /// moves, `last + 1` when it does not — monotone ordering is a
    /// structural guarantee, not a clock property.
    fn tick(&mut self) -> u64 {
        let now = self.clock.now().as_micros() as u64;
        let ts = now.max(self.last_ts + 1);
        self.last_ts = ts;
        ts
    }

    /// Open a span on `lane`, nested under the lane's current top.
    /// Returns the new span's id.
    pub fn open(&mut self, lane: usize, name: &str, detail: &str) -> u64 {
        let ts = self.tick();
        if self.stacks.len() <= lane {
            self.stacks.resize_with(lane + 1, Vec::new);
        }
        let parent = self.stacks[lane].last().copied();
        let depth = self.stacks[lane].len();
        let id = self.next_id;
        self.next_id += 1;
        self.stacks[lane].push(id);
        if self.spans.len() >= self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(SpanRecord {
            id,
            parent,
            lane,
            depth,
            name: name.to_string(),
            detail: detail.to_string(),
            start_us: ts,
            end_us: ts,
        });
        id
    }

    /// Close the innermost open span on `lane` (a no-op if none is
    /// open, so a stray close cannot corrupt the tree).
    pub fn close(&mut self, lane: usize) {
        let ts = self.tick();
        let Some(id) = self.stacks.get_mut(lane).and_then(Vec::pop) else {
            return;
        };
        // Ids are contiguous in the deque (sequential opens, front-only
        // eviction), so the slot is a direct offset; an evicted span
        // just loses its close timestamp.
        if let Some(front) = self.spans.front().map(|s| s.id) {
            if let Some(offset) = id.checked_sub(front) {
                if let Some(span) = self.spans.get_mut(offset as usize) {
                    span.end_us = ts;
                }
            }
        }
    }

    /// The current nesting depth of `lane` (0 = nothing open).
    pub fn open_depth(&self, lane: usize) -> usize {
        self.stacks.get(lane).map_or(0, Vec::len)
    }

    /// Spans evicted by the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Close anything still open (innermost first, per lane) and return
    /// the finished tree.
    pub fn finish(mut self) -> TraceTree {
        for lane in 0..self.stacks.len() {
            while self.open_depth(lane) > 0 {
                self.close(lane);
            }
        }
        TraceTree {
            spans: self.spans.into_iter().collect(),
            dropped: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use crate::reader;
    use std::time::Duration;

    fn mock_tracer() -> Tracer {
        Tracer::with_clock(Box::new(MockClock::with_step(Duration::from_micros(10))))
    }

    #[test]
    fn spans_nest_with_sequential_ids_and_parents() {
        let mut t = mock_tracer();
        let outer = t.open(0, "outer", "outer=0");
        let sweep = t.open(0, "sweep", "");
        assert_eq!(t.open_depth(0), 2);
        t.close(0);
        let krylov = t.open(0, "krylov", "");
        t.close(0);
        t.close(0);
        let tree = t.finish();

        assert_eq!((outer, sweep, krylov), (0, 1, 2));
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.spans[0].parent, None);
        assert_eq!(tree.spans[1].parent, Some(0));
        assert_eq!(tree.spans[2].parent, Some(0));
        assert_eq!(tree.spans[0].depth, 0);
        assert_eq!(tree.spans[1].depth, 1);
        assert_eq!(tree.max_depth(), 1);
        assert_eq!(tree.count_named("sweep"), 1);
        assert_eq!(tree.span(2).unwrap().name, "krylov");
        assert!(tree.span(7).is_none());
        // Strictly increasing stamps, spans contain their children.
        assert!(tree.spans[1].start_us > tree.spans[0].start_us);
        assert!(tree.spans[1].end_us < tree.spans[0].end_us);
    }

    #[test]
    fn lanes_keep_independent_stacks() {
        let mut t = mock_tracer();
        t.open(0, "outer", "");
        t.open(2, "rank_solve", "");
        t.open(2, "sweep", "");
        t.close(2);
        t.close(2);
        t.close(0);
        let tree = t.finish();
        assert_eq!(tree.spans[1].lane, 2);
        assert_eq!(tree.spans[1].parent, None); // lane roots don't cross lanes
        assert_eq!(tree.spans[2].parent, Some(1));
        assert_eq!(lane_label(0), "driver");
        assert_eq!(lane_label(2), "rank1");
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut t = mock_tracer().with_capacity(2);
        for i in 0..4 {
            t.open(0, &format!("s{i}"), "");
            t.close(0);
        }
        let tree = t.finish();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.dropped, 2);
        assert_eq!(tree.spans[0].id, 2);
        assert_eq!(tree.span(2).unwrap().name, "s2");
        assert!(tree.span(0).is_none());
    }

    #[test]
    fn close_without_open_is_a_noop() {
        let mut t = mock_tracer();
        t.close(0);
        t.close(5);
        assert_eq!(t.finish().len(), 0);
    }

    #[test]
    fn finish_closes_leftover_spans() {
        let mut t = mock_tracer();
        t.open(0, "outer", "");
        t.open(0, "sweep", "");
        let tree = t.finish();
        assert!(tree.spans[1].end_us >= tree.spans[1].start_us);
        assert!(tree.spans[0].end_us > tree.spans[1].end_us);
    }

    #[test]
    fn structural_equality_ignores_timestamps() {
        let build = |step_us: u64| {
            let mut t = Tracer::with_clock(Box::new(MockClock::with_step(Duration::from_micros(
                step_us,
            ))));
            t.open(0, "outer", "outer=0");
            t.open(0, "sweep", "");
            t.close(0);
            t.close(0);
            t.finish()
        };
        let fast = build(1);
        let slow = build(5000);
        assert_ne!(fast.spans[1].end_us, slow.spans[1].end_us);
        assert_eq!(fast, slow);

        let mut stripped = slow.clone();
        stripped.zero_wallclock();
        assert!(stripped
            .spans
            .iter()
            .all(|s| s.start_us == 0 && s.end_us == 0));

        // Structure differences do break equality.
        let mut other = build(1);
        other.spans[1].name = "krylov".to_string();
        assert_ne!(fast, other);
    }

    #[test]
    fn chrome_export_parses_with_monotone_nested_events() {
        let mut t = mock_tracer();
        t.open(0, "outer", "outer=0");
        t.open(0, "sweep", "");
        t.open(1, "rank_solve", "");
        t.close(1);
        t.close(0);
        t.open(0, "krylov", "");
        t.close(0);
        t.close(0);
        let tree = t.finish();

        let doc = reader::parse(&tree.to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 lanes of metadata + 4 spans.
        assert_eq!(events.len(), 6);
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 4);
        let mut last_ts = 0u64;
        for event in &spans {
            let ts = event.get("ts").unwrap().as_u64().unwrap();
            assert!(ts > last_ts, "timestamps must be strictly increasing");
            last_ts = ts;
            assert!(event.get("dur").unwrap().as_u64().is_some());
            assert_eq!(event.get("pid").unwrap().as_u64(), Some(0));
        }
        // The sweep span nests strictly inside the outer span.
        let outer = &spans[0];
        let sweep = &spans[1];
        let outer_start = outer.get("ts").unwrap().as_u64().unwrap();
        let outer_end = outer_start + outer.get("dur").unwrap().as_u64().unwrap();
        let sweep_start = sweep.get("ts").unwrap().as_u64().unwrap();
        let sweep_end = sweep_start + sweep.get("dur").unwrap().as_u64().unwrap();
        assert!(outer_start < sweep_start && sweep_end < outer_end);
        // Lane metadata names both lanes.
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(names, vec!["driver".to_string(), "rank0".to_string()]);
        assert_eq!(doc.get("droppedSpans").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn collapsed_export_sums_self_time_per_stack() {
        let mut t = mock_tracer();
        t.open(0, "outer", "");
        t.open(0, "sweep", "");
        t.close(0);
        t.open(0, "sweep", "");
        t.close(0);
        t.close(0);
        let tree = t.finish();
        let collapsed = tree.to_collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.starts_with("driver;outer ")));
        let sweep_line = lines
            .iter()
            .find(|l| l.starts_with("driver;outer;sweep "))
            .expect("merged sweep stack");
        let value: u64 = sweep_line.rsplit(' ').next().unwrap().parse().unwrap();
        // Two 10 µs-step spans: each open+close brackets one step.
        assert!(value >= 2);
    }
}
