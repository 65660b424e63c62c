//! # unsnap-obs
//!
//! The observability substrate of the UnSNAP workspace: the
//! dependency-free primitives every other crate builds its telemetry on.
//! Nothing in here knows about transport physics — the crate sits at the
//! bottom of the dependency graph so the solver crates (`unsnap-core`,
//! `unsnap-comm`) and the bench harness can all share one vocabulary for
//! time, metrics and machine-readable output.
//!
//! ## Module map
//!
//! * [`clock`] — the pluggable [`Clock`] trait with a monotonic
//!   [`SystemClock`] for production and a [`MockClock`] tests drive by
//!   hand (or step automatically) to pin timer outputs exactly.
//! * [`metrics`] — fixed-bucket [`Histogram`]s with percentile queries
//!   and a [`MetricsRegistry`] of counters and histograms, each
//!   tagged with its [`Determinism`] class: *deterministic* values must
//!   be bit-for-bit identical at every thread/rank count, *wall-clock*
//!   values are excluded from those comparisons.
//! * [`json`] — the minimal hand-rolled JSON writer.
//! * [`reader`] — a small recursive-descent JSON parser producing
//!   [`JsonValue`] trees, so tooling (the `trajectory` bin, CI schema
//!   checks, round-trip tests) can consume what the writer emits.
//! * [`jsonl`] — line-oriented JSON: a [`JsonlWriter`] for streaming
//!   run logs and reader helpers that parse a file back into values.
//! * [`stream`] — [`LineChannel`]: an in-memory, multi-consumer line
//!   stream with blocking tails, the live-event transport behind
//!   `unsnap-serve`'s chunked JSONL endpoint.
//! * [`trace`] — hierarchical spans: a [`Tracer`] building a
//!   determinism-split [`TraceTree`] (structure deterministic,
//!   timestamps wall-clock) with Chrome `trace_event` and
//!   collapsed-stack flamegraph exporters.
//!
//! ## The determinism contract
//!
//! Everything this crate measures falls in one of two classes:
//!
//! | class | examples | guarantee |
//! |-------|----------|-----------|
//! | deterministic | sweep counts, cells swept, iteration counts, halo bytes | bit-for-bit identical at every thread and rank count |
//! | wall-clock | phase seconds, per-sweep latency | real time; excluded from determinism comparisons, pinned in tests via [`MockClock`] |
//!
//! The split is structural, not advisory: deterministic values come from
//! event *counts* and *payload sizes*, wall-clock values only ever from a
//! [`Clock`], so injecting a mock makes the second class exactly
//! reproducible too.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod reader;
pub mod stream;
pub mod trace;

pub use clock::{Clock, MockClock, SystemClock};
pub use jsonl::JsonlWriter;
pub use metrics::{Determinism, Histogram, MetricsRegistry};
pub use reader::JsonValue;
pub use stream::{ChannelWriter, LineChannel};
pub use trace::{SpanRecord, TraceTree, Tracer};
