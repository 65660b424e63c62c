//! Fixed-bucket histograms and the tagged metrics registry.
//!
//! Two rules make these metrics trustworthy:
//!
//! 1. every metric carries a [`Determinism`] tag — *deterministic*
//!    metrics (event counts, payload sizes) must be bit-for-bit
//!    identical at every thread and rank count, *wall-clock* metrics
//!    (anything derived from a [`Clock`](crate::clock::Clock) reading)
//!    are excluded from those comparisons and pinned separately with a
//!    mock clock;
//! 2. histograms use **fixed** bucket bounds chosen at construction, so
//!    two histograms of the same stream are comparable bucket-by-bucket
//!    and the quantile query needs no stored samples.
//!
//! ```
//! use unsnap_obs::metrics::Histogram;
//!
//! let mut h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
//! for v in [2.0, 3.0, 50.0] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 3);
//! assert_eq!(h.quantile(0.5), Some(10.0)); // upper bound of the median bucket
//! ```

use std::collections::BTreeMap;

use crate::json::JsonObject;

/// The determinism class of a metric — the heart of the observability
/// contract (see the [crate docs](crate)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Determinism {
    /// Bit-for-bit identical at every thread and rank count; enforced by
    /// the determinism suites.
    Deterministic,
    /// Derived from a clock reading; legitimately differs between runs
    /// and is pinned in tests only via a mock clock.
    WallClock,
}

impl Determinism {
    /// The JSON/section label for this class.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Determinism::Deterministic => "deterministic",
            Determinism::WallClock => "wallclock",
        }
    }
}

/// A fixed-bucket histogram with exact count/sum/min/max sidecars.
///
/// Bucket `i` counts samples `v <= bounds[i]` (first matching bucket
/// wins); one implicit overflow bucket counts everything above the last
/// bound.  Quantiles report the upper bound of the bucket in which the
/// requested rank falls, clamped into `[min, max]` so degenerate streams
/// (all samples equal) report that exact value.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds (plus the
    /// implicit overflow bucket).
    pub fn with_bounds(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The standard latency scale: powers of two from 1 µs to ~134 s.
    /// Wide enough for a single DG sweep on any mesh this mini-app runs,
    /// fine enough that p50/p95 are meaningful after clamping.
    pub fn latency_seconds() -> Self {
        let bounds: Vec<f64> = (0..28).map(|k| 1e-6 * f64::from(1u32 << k)).collect();
        Self::with_bounds(&bounds)
    }

    /// Record one sample.
    pub fn record(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The bucket upper bounds (without the implicit overflow bucket).
    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket sample counts (last entry is the overflow bucket).
    fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The upper bound of the bucket holding the `p`-quantile sample
    /// (`0.0 < p <= 1.0`), clamped into `[min, max]`; `None` while empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (slot, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                let bound = if slot < self.bounds.len() {
                    self.bounds[slot]
                } else {
                    self.max
                };
                return Some(bound.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Serialise as a JSON object (bounds, bucket counts, sidecars and
    /// the p50/p95 quantiles tooling wants most).
    pub fn to_json(&self) -> String {
        let counts: Vec<usize> = self.counts.iter().map(|&c| c as usize).collect();
        JsonObject::new()
            .field_u64("count", self.count)
            .field_f64("sum", self.sum)
            .field_f64("min", self.min().unwrap_or(0.0))
            .field_f64("max", self.max().unwrap_or(0.0))
            .field_f64("p50", self.quantile(0.5).unwrap_or(0.0))
            .field_f64("p95", self.quantile(0.95).unwrap_or(0.0))
            .field_f64_array("bounds", &self.bounds)
            .field_usize_array("bucket_counts", &counts)
            .finish()
    }
}

/// A named collection of counters and histograms, each tagged
/// with its [`Determinism`] class.
///
/// Iteration order is the `BTreeMap` key order, so serialisation is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, (Determinism, u64)>,
    histograms: BTreeMap<String, (Determinism, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter, creating it at zero on first touch.
    pub fn counter_add(&mut self, name: &str, class: Determinism, delta: u64) {
        let entry = self.counters.entry(name.to_string()).or_insert((class, 0));
        debug_assert_eq!(entry.0, class, "counter {name} re-tagged");
        entry.1 += delta;
    }

    /// Record a sample into a histogram created on first touch by
    /// `make` (e.g. `Histogram::latency_seconds`).
    pub fn histogram_record(
        &mut self,
        name: &str,
        class: Determinism,
        make: impl FnOnce() -> Histogram,
        value: f64,
    ) {
        let entry = self
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| (class, make()));
        debug_assert_eq!(entry.0, class, "histogram {name} re-tagged");
        entry.1.record(value);
    }

    /// A counter's value (`None` if never touched).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|&(_, v)| v)
    }

    /// Serialise in the Prometheus text exposition format (version
    /// 0.0.4): every counter and histogram in the registry, in
    /// deterministic (sorted) order.
    ///
    /// Registry names are sanitised to the Prometheus grammar (dots and
    /// other punctuation become `_`), and every sample carries its
    /// [`Determinism`] class as a `class` label so scrape consumers can
    /// apply the same deterministic/wall-clock split the JSON form
    /// exposes structurally.  Histograms expose the standard cumulative
    /// `_bucket{le="..."}` series (including `+Inf`) plus `_sum` and
    /// `_count`.
    pub fn to_prometheus(&self) -> String {
        fn sanitise(name: &str) -> String {
            let mut out = String::with_capacity(name.len());
            for (i, c) in name.chars().enumerate() {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    if i == 0 && c.is_ascii_digit() {
                        out.push('_');
                    }
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn render(v: f64) -> String {
            if v.is_nan() {
                "NaN".to_string()
            } else if v == f64::INFINITY {
                "+Inf".to_string()
            } else if v == f64::NEG_INFINITY {
                "-Inf".to_string()
            } else {
                format!("{v}")
            }
        }
        let mut out = String::new();
        for (name, (class, value)) in &self.counters {
            let name = sanitise(name);
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name}{{class=\"{}\"}} {value}\n", class.label()));
        }
        for (name, (class, histogram)) in &self.histograms {
            let name = sanitise(name);
            let class = class.label();
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, count) in histogram
                .bounds()
                .iter()
                .zip(histogram.bucket_counts().iter())
            {
                cumulative += count;
                out.push_str(&format!(
                    "{name}_bucket{{class=\"{class}\",le=\"{}\"}} {cumulative}\n",
                    render(*bound)
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{class=\"{class}\",le=\"+Inf\"}} {}\n",
                histogram.count()
            ));
            out.push_str(&format!(
                "{name}_sum{{class=\"{class}\"}} {}\n",
                render(histogram.sum())
            ));
            out.push_str(&format!(
                "{name}_count{{class=\"{class}\"}} {}\n",
                histogram.count()
            ));
        }
        out
    }

    /// Serialise as `{"deterministic": {...}, "wallclock": {...}}`, each
    /// class holding its `counters` and `histograms` objects.
    pub fn to_json(&self) -> String {
        let mut root = JsonObject::new();
        for class in [Determinism::Deterministic, Determinism::WallClock] {
            let mut counters = JsonObject::new();
            for (name, (c, v)) in &self.counters {
                if *c == class {
                    counters = counters.field_u64(name, *v);
                }
            }
            let mut histograms = JsonObject::new();
            for (name, (c, h)) in &self.histograms {
                if *c == class {
                    histograms = histograms.field_raw(name, &h.to_json());
                }
            }
            let section = JsonObject::new()
                .field_raw("counters", &counters.finish())
                .field_raw("histograms", &histograms.finish())
                .finish();
            root = root.field_raw(class.label(), &section);
        }
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_sidecars() {
        let mut h = Histogram::with_bounds(&[1.0, 2.0]);
        for v in [0.5, 1.5, 1.5, 5.0] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), &[1, 2, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 8.5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(5.0));
    }

    #[test]
    fn quantiles_report_clamped_bucket_bounds() {
        let mut h = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(2.0));
        // The p100 sample sits in the (2,4] bucket whose bound exceeds
        // the true max: clamped to the max.
        assert_eq!(h.quantile(1.0), Some(3.0));
        assert_eq!(Histogram::latency_seconds().quantile(0.5), None);
    }

    #[test]
    fn degenerate_stream_quantiles_are_exact() {
        let mut h = Histogram::latency_seconds();
        for _ in 0..10 {
            h.record(0.003);
        }
        assert_eq!(h.quantile(0.5), Some(0.003));
        assert_eq!(h.quantile(0.95), Some(0.003));
    }

    #[test]
    fn overflow_samples_land_in_the_implicit_bucket() {
        let mut h = Histogram::with_bounds(&[1.0, 2.0]);
        h.record(10.0);
        assert_eq!(h.bucket_counts(), &[0, 0, 1]);
        assert_eq!(h.quantile(0.5), Some(10.0));
    }

    #[test]
    fn registry_tags_the_classes() {
        let mut r = MetricsRegistry::new();
        r.counter_add("sweeps", Determinism::Deterministic, 3);
        r.counter_add("sweeps", Determinism::Deterministic, 2);
        r.histogram_record(
            "latency",
            Determinism::WallClock,
            Histogram::latency_seconds,
            0.01,
        );
        assert_eq!(r.counter("sweeps"), Some(5));
        assert_eq!(r.histograms["latency"].1.count(), 1);
    }

    #[test]
    fn registry_json_splits_classes() {
        let mut r = MetricsRegistry::new();
        r.counter_add("sweeps", Determinism::Deterministic, 5);
        let json = r.to_json();
        assert!(json.starts_with(r#"{"deterministic":"#));
        assert!(json.contains(r#""sweeps":5"#));
        assert!(json.contains(r#""wallclock":"#));
    }

    #[test]
    fn prometheus_exposition_covers_every_instrument() {
        let mut r = MetricsRegistry::new();
        r.counter_add("phase_starts.sweep", Determinism::Deterministic, 7);
        for v in [0.5, 1.5, 1.5, 5.0] {
            let bounds = || Histogram::with_bounds(&[1.0, 2.0]);
            r.histogram_record("queue_wait_seconds", Determinism::WallClock, bounds, v);
        }

        let text = r.to_prometheus();
        // Dotted names are sanitised, classes ride as labels.
        assert!(text.contains("# TYPE phase_starts_sweep counter\n"));
        assert!(text.contains("phase_starts_sweep{class=\"deterministic\"} 7\n"));
        // Histogram buckets are cumulative and end at +Inf == count.
        assert!(text.contains("# TYPE queue_wait_seconds histogram\n"));
        assert!(text.contains("queue_wait_seconds_bucket{class=\"wallclock\",le=\"1\"} 1\n"));
        assert!(text.contains("queue_wait_seconds_bucket{class=\"wallclock\",le=\"2\"} 3\n"));
        assert!(text.contains("queue_wait_seconds_bucket{class=\"wallclock\",le=\"+Inf\"} 4\n"));
        assert!(text.contains("queue_wait_seconds_sum{class=\"wallclock\"} 8.5\n"));
        assert!(text.contains("queue_wait_seconds_count{class=\"wallclock\"} 4\n"));
        // Every line is a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ") || line.contains("} "),
                "malformed exposition line: {line}"
            );
        }
    }
}
