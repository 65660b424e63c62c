//! Sample summaries: median, quartiles and the highest percentile the
//! sample supports.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; with fewer the "tail" is one or two outliers and says more
//! about the machine than about the program.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried by [`Summary::top`], highest first.
const CANDIDATES: [(f64, &str); 6] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.90, "p90"),
    (0.75, "p75"),
    (0.50, "p50"),
];

/// The highest supported percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopPercentile {
    /// `p50` … `p99.9`.
    pub label: &'static str,
    /// The sample at `rank`.
    pub value: f64,
    /// 1-based rank in the sorted sample (nearest-rank definition).
    pub rank: usize,
}

/// Median, quartiles, count and top percentile of one timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// First quartile (exclusive method, as Python's
    /// `statistics.quantiles(values, n=4)`); the median when `n < 2`.
    pub q1: f64,
    /// Third quartile, same method.
    pub q3: f64,
    /// Highest percentile with at least [`MIN_BEYOND`] samples beyond it.
    pub top: Option<TopPercentile>,
}

/// Exclusive-method quantile at `k / 4` of an ascending sample.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    let position = (n + 1) as f64 * k as f64 / 4.0;
    let lower = (position.floor() as usize).clamp(1, n - 1);
    // Not clamped: like Python, the outer quartiles of a very small
    // sample extrapolate past its ends.
    let fraction = position - lower as f64;
    sorted[lower - 1] + fraction * (sorted[lower] - sorted[lower - 1])
}

impl Summary {
    /// Summarise a non-empty sample.
    ///
    /// # Panics
    /// Panics on an empty sample: every metric the benchmark reports has
    /// at least one measurement behind it, so an empty one is a harness
    /// bug.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarise an empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        let (q1, q3) = if n < 2 {
            (median, median)
        } else {
            (quartile(&sorted, 1), quartile(&sorted, 3))
        };
        let top = CANDIDATES.iter().find_map(|&(p, label)| {
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            (n - rank >= MIN_BEYOND).then(|| TopPercentile {
                label,
                value: sorted[rank - 1],
                rank,
            })
        });
        Self {
            n,
            median,
            q1,
            q3,
            top,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    /// `median [q1, q3, spread] n=… pXX=… (#rank)` with values scaled by `scale`
    /// and printed with `unit`.
    pub fn render(&self, scale: f64, unit: &str) -> String {
        let top = match self.top {
            Some(t) => format!("{}={:.4} (#{})", t.label, t.value * scale, t.rank),
            None => format!("no percentile (<{MIN_BEYOND} beyond)"),
        };
        format!(
            "{:.4} {unit} [q1 {:.4}, q3 {:.4}, spread {:.1}%] n={} {top}",
            self.median * scale,
            self.q1 * scale,
            self.q3 * scale,
            self.spread() * 100.0,
            self.n
        )
    }
}

/// The median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert!((s.q1 - 2.75).abs() < 1e-12);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert!((s.q1 - 0.75).abs() < 1e-12);
        assert!((s.q3 - 2.25).abs() < 1e-12);
        // A single sample has no spread.
        let s = Summary::of(&[5.0]);
        assert_eq!((s.q1, s.q3), (5.0, 5.0));
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        // 19 samples: even p50 (rank 10) leaves only 9 beyond.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(Summary::of(&v).top, None);
        // 20 samples: p50 is rank 10 with exactly 10 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let top = Summary::of(&v).top.unwrap();
        assert_eq!((top.label, top.rank, top.value), ("p50", 10, 10.0));
        // 100 samples: p90 (rank 90, 10 beyond); p95 would leave 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let top = Summary::of(&v).top.unwrap();
        assert_eq!((top.label, top.rank), ("p90", 90));
        // 1000 samples: p99 (rank 990, 10 beyond).
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let top = Summary::of(&v).top.unwrap();
        assert_eq!((top.label, top.rank, top.value), ("p99", 990, 990.0));
        // 10 000 samples: p99.9 (rank 9990, 10 beyond).
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).top.unwrap().label, "p99.9");
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&values).spread() - 1.0).abs() < 1e-12);
    }
}
