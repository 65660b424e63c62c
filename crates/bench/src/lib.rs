//! # unsnap-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! UnSNAP paper, plus the ablations its text discusses.  See the
//! repository's `docs/ARCHITECTURE.md` for where each binary sits in
//! the crate stack and the README's "Reproducing the paper" matrix for
//! the exact command lines.
//!
//! | experiment | paper artefact | binary |
//! |------------|----------------|--------|
//! | Table I    | local matrix size & FP64 footprint per element order | `table1` |
//! | Figure 3   | thread scaling of six concurrency schemes, linear elements | `figure3` |
//! | Figure 4   | thread scaling of six concurrency schemes, cubic elements | `figure4` |
//! | Table II   | GE vs MKL assemble/solve time and % in solve, orders 1–4 | `table2` |
//! | §IV-A.3    | angle threading: the ordered reduction that replaces the paper's non-scaling atomic, vs per-bucket threading | `ablation_angle_atomic` |
//! | §IV-B.1    | pre-assembled/pre-factorised matrices vs on-the-fly assembly | `ablation_preassembly` |
//! | §III-A.1   | block-Jacobi convergence penalty vs rank count, KBA idle model | `ablation_jacobi_ranks` |
//! | —          | SI vs GMRES subdomain solves in the block-Jacobi schedule | `ablation_jacobi_krylov` |
//! | —          | SI vs sweep-preconditioned GMRES across scattering ratios | `ablation_krylov` |
//! | —          | SI vs DSA-SI vs GMRES as the scattering ratio approaches 1 | `ablation_dsa` |
//! | —          | worker-pool wall-clock scaling across thread counts | `scaling_threads` |
//!
//! Every binary parses the shared [`HarnessOptions`] flags: `--full`
//! runs the problem at the paper's published size (which needs a
//! large-memory node, as the original did), `--quick` shrinks it for CI
//! smoke runs, `--csv`/`--json` emit machine-readable output,
//! `--progress` streams rate-limited solve progress to stderr, and
//! `--metrics-out <path>` appends one uniform-schema JSONL
//! [`MetricsRecord`] per measured solve (bin, case, strategy, threads,
//! per-phase breakdown, per-sweep latency percentiles) for the
//! `trajectory` binary to merge into `BENCH_6.json`, and
//! `--trace-out <path>` writes the last solve's hierarchical span tree
//! as Chrome `trace_event` JSON (Perfetto-loadable); the default sizes
//! are scaled down so the whole suite completes on a laptop.  The
//! `trajectory` binary doubles as the perf-regression gate: its
//! `--compare BASE.json` mode diffs a fresh run against a committed
//! trajectory via [`compare_trajectories`] and exits nonzero on drift.  The
//! harness helpers — [`run_scaling_experiment`],
//! [`run_solver_comparison`], [`scaling_table`]/[`scaling_csv`],
//! [`print_header`] and [`time_it`] — are exported so new experiment
//! binaries compose the same pieces.  Criterion micro benchmarks of the
//! underlying kernels live in `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Instant;

use unsnap_core::builder::ProblemBuilder;
use unsnap_core::metrics::RunMetrics;
use unsnap_core::problem::Problem;
use unsnap_core::report::MachineInfo;
use unsnap_core::session::{NoopObserver, Phase, ProgressObserver, RunObserver};
use unsnap_core::solver::{SolveOutcome, TransportSolver};
use unsnap_core::strategy::StrategyKind;
use unsnap_linalg::SolverKind;
use unsnap_obs::jsonl::JsonlWriter;
use unsnap_sweep::ConcurrencyScheme;

/// Command-line options shared by all benchmark binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Run the paper-size problem instead of the scaled-down default.
    pub full: bool,
    /// Emit CSV instead of a human-readable table.
    pub csv: bool,
    /// Emit JSON instead of a human-readable table (`--json`).
    pub json: bool,
    /// Shrink the problem for CI smoke runs (`--quick`).
    pub quick: bool,
    /// Stream rate-limited progress to stderr while solves run
    /// (`--progress`), via [`ProgressObserver`].
    pub progress: bool,
    /// Thread counts to sweep (`--threads 1,2,4`).
    pub threads: Option<Vec<usize>>,
    /// Maximum element order for the solver comparison (`--max-order 4`).
    pub max_order: Option<usize>,
    /// Append one [`MetricsRecord`] per measured solve to this JSONL
    /// file (`--metrics-out <path>`); the `trajectory` binary merges
    /// such files into the repo-level `BENCH_6.json`.
    pub metrics_out: Option<String>,
    /// Write the Chrome `trace_event` profile of the last measured
    /// solve to this path (`--trace-out <path>`) — loadable in
    /// Perfetto / `chrome://tracing`.  Each emission overwrites the
    /// file, so the profile on disk is always the final solve's.
    pub trace_out: Option<String>,
}

impl HarnessOptions {
    /// Parse the options from `std::env::args`.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = Self {
            full: false,
            csv: false,
            json: false,
            quick: false,
            progress: false,
            threads: None,
            max_order: None,
            metrics_out: None,
            trace_out: None,
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--csv" => opts.csv = true,
                "--json" => opts.json = true,
                "--quick" => opts.quick = true,
                "--progress" => opts.progress = true,
                "--threads" => {
                    if let Some(list) = iter.next() {
                        let parsed: Vec<usize> =
                            list.split(',').filter_map(|t| t.parse().ok()).collect();
                        if !parsed.is_empty() {
                            opts.threads = Some(parsed);
                        }
                    }
                }
                "--max-order" => {
                    opts.max_order = iter.next().and_then(|s| s.parse().ok());
                }
                "--metrics-out" => {
                    opts.metrics_out = iter.next().filter(|p| !p.trim().is_empty());
                }
                "--trace-out" => {
                    opts.trace_out = iter.next().filter(|p| !p.trim().is_empty());
                }
                _ => {}
            }
        }
        opts
    }

    /// The thread counts to sweep: explicit list, or the machine default.
    pub fn thread_sweep(&self) -> Vec<usize> {
        self.threads
            .clone()
            .unwrap_or_else(|| MachineInfo::detect().thread_sweep())
    }
}

/// Parse an environment knob via `FromStr`, falling back to `default`
/// (with a note on stderr) when the variable is set but unparsable.
/// Shared by the benchmark binaries for their `UNSNAP_*` knobs.
pub fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match std::env::var(name) {
        Ok(raw) => match raw.parse() {
            Ok(value) => value,
            Err(e) => {
                eprintln!("ignoring {name}={raw}: {e}");
                default
            }
        },
        Err(_) => default,
    }
}

/// Solve `base` under `strategy`, streaming rate-limited progress to
/// stderr when `progress` is set (the shared `--progress` flag).  The
/// progress cadence honours `UNSNAP_PROGRESS_MS` via
/// [`ProgressObserver::from_env`].
///
/// Shared by the strategy-ablation binaries (`ablation_krylov`,
/// `ablation_dsa`) so the observer wiring cannot drift between them.
/// Panics on an invalid problem or a failed solve — ablation harnesses
/// construct their own problems, so both indicate a harness bug.
pub fn run_strategy(base: &ProblemBuilder, strategy: StrategyKind, progress: bool) -> SolveOutcome {
    let mut session = base
        .clone()
        .strategy(strategy)
        .session()
        .expect("ablation problem must validate");
    let mut progress_observer = ProgressObserver::from_env();
    let mut noop = NoopObserver;
    let observer: &mut dyn RunObserver = if progress {
        eprintln!("[unsnap] running {strategy}");
        &mut progress_observer
    } else {
        &mut noop
    };
    session
        .run_observed(observer)
        .expect("ablation solve must run")
}

/// One uniform-schema perf-trajectory record: a single measured solve,
/// tagged with where it came from, carrying the per-phase breakdown and
/// per-sweep latency percentiles of its [`RunMetrics`] snapshot.
///
/// Every benchmark binary emits the same shape under `--metrics-out`,
/// so the `trajectory` binary can merge records from any mix of bins
/// into one `BENCH_6.json` without per-bin parsing rules.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecord {
    /// Emitting binary (`ablation_dsa`, `figure3`, ...).
    pub bin: String,
    /// Experiment point within the binary — a scheme label, scattering
    /// ratio, element order, ... (the binary's x-axis).
    pub case: String,
    /// Iteration strategy label (`si`, `gmres`, `dsa-si`).
    pub strategy: String,
    /// Worker threads the solve ran with.
    pub threads: usize,
    /// The metrics snapshot the solve attached to its outcome.
    pub metrics: RunMetrics,
}

impl MetricsRecord {
    /// Build a record from an outcome's attached snapshot.
    pub fn from_metrics(
        bin: &str,
        case: &str,
        strategy: StrategyKind,
        threads: usize,
        metrics: &RunMetrics,
    ) -> Self {
        Self {
            bin: bin.to_string(),
            case: case.to_string(),
            // Lower-cased so the tag round-trips through the
            // workspace's `FromStr` labels (`si`, `gmres`, `dsa-si`).
            strategy: strategy.to_string().to_ascii_lowercase(),
            threads,
            metrics: metrics.clone(),
        }
    }

    /// Serialise as one JSON object (one JSONL line under
    /// `--metrics-out`): identity tags, deterministic totals, a
    /// `phases` object of `{spans, seconds}` per phase, and the
    /// per-sweep latency percentiles (`null` when no sweeps ran).
    pub fn to_json(&self) -> String {
        let phases = Phase::all()
            .iter()
            .fold(unsnap_core::json::JsonObject::new(), |obj, phase| {
                obj.field_raw(
                    phase.label(),
                    &unsnap_core::json::JsonObject::new()
                        .field_usize("spans", self.metrics.phase_count(*phase))
                        .field_f64("seconds", self.metrics.phase_time(*phase))
                        .finish(),
                )
            })
            .finish();
        unsnap_core::json::JsonObject::new()
            .field_str("bin", &self.bin)
            .field_str("case", &self.case)
            .field_str("strategy", &self.strategy)
            .field_usize("threads", self.threads)
            .field_usize("sweeps", self.metrics.sweeps)
            .field_u64("cells_swept", self.metrics.cells_swept)
            .field_usize("inner_iterations", self.metrics.inner_iterations)
            .field_usize("halo_exchanges", self.metrics.halo_exchanges)
            .field_raw("phases", &phases)
            .field_f64("sweep_p50", self.metrics.sweep_p50().unwrap_or(f64::NAN))
            .field_f64("sweep_p95", self.metrics.sweep_p95().unwrap_or(f64::NAN))
            .field_f64("sweep_p99", self.metrics.sweep_p99().unwrap_or(f64::NAN))
            .finish()
    }
}

/// The thread count a problem's solves actually run with: the explicit
/// request, or the machine's logical CPU count when the pool is left to
/// size itself.  Benchmark bins tag their [`MetricsRecord`]s with this.
pub fn effective_threads(problem: &Problem) -> usize {
    problem
        .num_threads
        .unwrap_or_else(|| MachineInfo::detect().logical_cpus)
}

/// The keys every trajectory record must carry — the `trajectory`
/// binary rejects lines missing any of them, so schema drift between
/// the emitting bins and the merger fails loudly.
pub const METRICS_RECORD_KEYS: [&str; 11] = [
    "bin",
    "case",
    "strategy",
    "threads",
    "sweeps",
    "cells_swept",
    "inner_iterations",
    "halo_exchanges",
    "phases",
    "sweep_p50",
    "sweep_p99",
];

/// The trajectory-record fields that must be a JSON number or an
/// explicit `null` (the per-sweep latency percentiles: `null` means the
/// solve recorded no sweep latency samples — anything else in these
/// slots is schema drift the merger must reject).
pub const METRICS_RECORD_NUMBER_OR_NULL_KEYS: [&str; 3] = ["sweep_p50", "sweep_p95", "sweep_p99"];

/// Validate that `doc[key]` is a JSON number or an explicit `null`.
///
/// Used by the `trajectory` binary on the keys in
/// [`METRICS_RECORD_NUMBER_OR_NULL_KEYS`] so a record carrying, say, a
/// stringified percentile fails the merge loudly instead of producing a
/// trajectory downstream plots choke on.
pub fn validate_number_or_null(
    doc: &unsnap_obs::reader::JsonValue,
    key: &str,
) -> Result<(), String> {
    match doc.get(key) {
        None => Err(format!("missing `{key}`")),
        Some(value) if value.is_null() || value.as_f64().is_some() => Ok(()),
        Some(value) => Err(format!("`{key}` must be a number or null, got {value}")),
    }
}

/// Append `record` to `opts.metrics_out` if the flag was given; a no-op
/// otherwise.  Appending (rather than truncating) lets one shell loop
/// collect many bins into a single file for `trajectory`.  Panics on an
/// unwritable path — the flag names a file the caller asked for.
pub fn emit_metrics_record(opts: &HarnessOptions, record: &MetricsRecord) {
    let Some(path) = &opts.metrics_out else {
        return;
    };
    let mut writer = JsonlWriter::append(path)
        .unwrap_or_else(|e| panic!("--metrics-out {path}: cannot open: {e}"));
    writer
        .write_line(&record.to_json())
        .and_then(|()| writer.flush())
        .unwrap_or_else(|e| panic!("--metrics-out {path}: write failed: {e}"));
}

/// Write `trace` as Chrome `trace_event` JSON to `opts.trace_out` if
/// the flag was given; a no-op otherwise.  Overwrites (last solve
/// wins), unlike the appending `--metrics-out` — a profile is a
/// self-contained document, not a record stream.  Panics on an
/// unwritable path — the flag names a file the caller asked for.
pub fn emit_trace(opts: &HarnessOptions, trace: &unsnap_obs::trace::TraceTree) {
    let Some(path) = &opts.trace_out else {
        return;
    };
    std::fs::write(path, trace.to_chrome_json())
        .unwrap_or_else(|e| panic!("--trace-out {path}: write failed: {e}"));
}

/// Default wall-clock tolerance of [`compare_trajectories`]: a phase
/// fails the gate only when it runs more than this many times slower
/// than the baseline.  Generous on purpose — CI machines are noisy and
/// the quick-run phases are tiny; the gate is for order-of-magnitude
/// regressions, while the deterministic counters catch algorithmic
/// drift exactly.
pub const WALLCLOCK_TOLERANCE_RATIO: f64 = 25.0;

/// Wall-clock comparisons never fail a phase whose current time is
/// under this floor (seconds): below it, scheduler noise dominates and
/// a ratio test is meaningless.
pub const WALLCLOCK_FLOOR_SECONDS: f64 = 0.05;

/// The outcome of [`compare_trajectories`]: hard failures (deterministic
/// counter drift, wall-clock blow-ups, records missing from a covered
/// bin) and soft warnings (bins absent from one side — new experiments
/// appear and CI matrices shrink without that being a regression).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TrajectoryComparison {
    /// Regressions: the gate must exit nonzero when any are present.
    pub failures: Vec<String>,
    /// Coverage drift worth printing but not failing on.
    pub warnings: Vec<String>,
    /// How many record pairs were actually diffed.
    pub compared: usize,
}

/// The identity key records are matched on across the two trajectories.
fn record_key(doc: &unsnap_obs::reader::JsonValue) -> Option<(String, String, String, u64)> {
    Some((
        doc.get("bin")?.as_str()?.to_string(),
        doc.get("case")?.as_str()?.to_string(),
        doc.get("strategy")?.as_str()?.to_string(),
        doc.get("threads")?.as_u64()?,
    ))
}

/// Diff two `unsnap-perf-trajectory/v1` documents: the perf-regression
/// gate behind `trajectory --compare`.
///
/// Records are matched on `(bin, case, strategy, threads)`.  For every
/// matched pair the deterministic counters (`sweeps`, `cells_swept`,
/// `inner_iterations`, `halo_exchanges`, and per-phase `spans`) must be
/// **exactly** equal — they are bit-for-bit reproducible, so any drift
/// is an algorithmic change, not noise.  Per-phase wall-clock `seconds`
/// may regress up to `tolerance`× the baseline before failing, and a
/// phase whose current time is under [`WALLCLOCK_FLOOR_SECONDS`] is
/// never failed on time.  Bins present on only one side produce
/// warnings, not failures, so the gate tolerates experiment-matrix
/// drift; a record missing from a bin both sides cover is a failure.
pub fn compare_trajectories(
    base: &unsnap_obs::reader::JsonValue,
    current: &unsnap_obs::reader::JsonValue,
    tolerance: f64,
) -> Result<TrajectoryComparison, String> {
    let records = |doc: &unsnap_obs::reader::JsonValue, side: &str| {
        doc.get("records")
            .and_then(|r| r.as_array())
            .map(|r| r.to_vec())
            .ok_or_else(|| format!("{side} trajectory has no `records` array"))
    };
    let base_records = records(base, "base")?;
    let current_records = records(current, "current")?;

    let mut current_by_key = std::collections::BTreeMap::new();
    let mut current_bins = std::collections::BTreeSet::new();
    for doc in &current_records {
        let key = record_key(doc).ok_or("current record missing identity keys")?;
        current_bins.insert(key.0.clone());
        current_by_key.insert(key, doc);
    }

    let mut report = TrajectoryComparison::default();
    let mut base_bins = std::collections::BTreeSet::new();
    let mut warned_bins = std::collections::BTreeSet::new();
    for doc in &base_records {
        let key = record_key(doc).ok_or("base record missing identity keys")?;
        base_bins.insert(key.0.clone());
        let label = format!("{}/{}/{}/t{}", key.0, key.1, key.2, key.3);
        let Some(current_doc) = current_by_key.get(&key) else {
            if !current_bins.contains(&key.0) {
                if warned_bins.insert(key.0.clone()) {
                    report.warnings.push(format!(
                        "bin `{}` absent from the current run; skipped",
                        key.0
                    ));
                }
            } else {
                report
                    .failures
                    .push(format!("{label}: record missing from the current run"));
            }
            continue;
        };
        compare_record(&label, doc, current_doc, tolerance, &mut report);
        report.compared += 1;
    }
    for bin in current_bins.difference(&base_bins) {
        report.warnings.push(format!(
            "bin `{bin}` is new (no baseline to compare against)"
        ));
    }
    Ok(report)
}

/// Diff one matched record pair into `report` (see
/// [`compare_trajectories`] for the rules).
fn compare_record(
    label: &str,
    base: &unsnap_obs::reader::JsonValue,
    current: &unsnap_obs::reader::JsonValue,
    tolerance: f64,
    report: &mut TrajectoryComparison,
) {
    for counter in [
        "sweeps",
        "cells_swept",
        "inner_iterations",
        "halo_exchanges",
    ] {
        let read = |doc: &unsnap_obs::reader::JsonValue| doc.get(counter).and_then(|v| v.as_u64());
        let (was, now) = (read(base), read(current));
        if was != now {
            report.failures.push(format!(
                "{label}: deterministic counter `{counter}` drifted: {} -> {}",
                was.map_or("missing".into(), |v| v.to_string()),
                now.map_or("missing".into(), |v| v.to_string()),
            ));
        }
    }
    let Some(base_phases) = base.get("phases").and_then(|p| p.as_object()) else {
        report
            .failures
            .push(format!("{label}: base record has no phases object"));
        return;
    };
    for (phase, base_phase) in base_phases {
        let current_phase = current.get("phases").and_then(|p| p.get(phase));
        let spans = |doc: Option<&unsnap_obs::reader::JsonValue>| {
            doc.and_then(|p| p.get("spans")).and_then(|v| v.as_u64())
        };
        let (was, now) = (spans(Some(base_phase)), spans(current_phase));
        if was != now {
            report.failures.push(format!(
                "{label}: phase `{phase}` span count drifted: {} -> {}",
                was.map_or("missing".into(), |v| v.to_string()),
                now.map_or("missing".into(), |v| v.to_string()),
            ));
        }
        let seconds = |doc: Option<&unsnap_obs::reader::JsonValue>| {
            doc.and_then(|p| p.get("seconds")).and_then(|v| v.as_f64())
        };
        if let (Some(was), Some(now)) = (seconds(Some(base_phase)), seconds(current_phase)) {
            if now > WALLCLOCK_FLOOR_SECONDS && now > was * tolerance {
                report.failures.push(format!(
                    "{label}: phase `{phase}` wall clock regressed {:.1}x \
                     ({was:.3}s -> {now:.3}s, tolerance {tolerance}x)",
                    now / was,
                ));
            }
        }
    }
}

/// One measured point of a thread-scaling experiment (Figures 3/4).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Concurrency scheme label (figure legend entry).
    pub scheme: String,
    /// Thread count.
    pub threads: usize,
    /// Assemble/solve wall time in seconds.
    pub seconds: f64,
    /// The metrics snapshot the solve attached to its outcome, for
    /// `--metrics-out` emission alongside the figure tables.
    pub metrics: RunMetrics,
}

/// Run the Figure-3/4 style experiment: every scheme × every thread count.
///
/// `base` should be `Problem::figure3_*` or `Problem::figure4_*`; the
/// scheme and thread count are overridden per point.
pub fn run_scaling_experiment(
    base: &Problem,
    threads: &[usize],
    schemes: &[ConcurrencyScheme],
) -> Vec<ScalingPoint> {
    let mut points = Vec::with_capacity(threads.len() * schemes.len());
    for &scheme in schemes {
        for &t in threads {
            let problem = base.clone().with_scheme(scheme).with_threads(t);
            let mut solver = TransportSolver::new(&problem).expect("valid problem");
            let outcome = solver.run().expect("solve");
            points.push(ScalingPoint {
                scheme: scheme.label(),
                threads: t,
                seconds: outcome.assemble_solve_seconds,
                metrics: outcome.metrics,
            });
        }
    }
    points
}

/// Emit one [`MetricsRecord`] per scaling point under `--metrics-out`
/// (a no-op without the flag): the scheme label becomes the case tag,
/// the point's thread count the threads tag.  Shared by the
/// figure/scaling binaries so their trajectory schema cannot drift.
pub fn emit_scaling_metrics(
    opts: &HarnessOptions,
    bin: &str,
    strategy: StrategyKind,
    points: &[ScalingPoint],
) {
    for p in points {
        emit_metrics_record(
            opts,
            &MetricsRecord::from_metrics(bin, &p.scheme, strategy, p.threads, &p.metrics),
        );
    }
}

/// Render scaling points as a text table (rows = schemes, columns =
/// thread counts), mirroring the layout of Figures 3 and 4.
pub fn scaling_table(points: &[ScalingPoint], threads: &[usize]) -> String {
    let mut schemes: Vec<String> = points.iter().map(|p| p.scheme.clone()).collect();
    schemes.dedup();
    let mut out = format!("{:<28}", "scheme \\ threads");
    for t in threads {
        out.push_str(&format!(" {t:>10}"));
    }
    out.push('\n');
    for scheme in &schemes {
        out.push_str(&format!("{scheme:<28}"));
        for &t in threads {
            let p = points
                .iter()
                .find(|p| &p.scheme == scheme && p.threads == t)
                .expect("point exists");
            out.push_str(&format!(" {:>10.3}", p.seconds));
        }
        out.push('\n');
    }
    out
}

/// Render scaling points as CSV (`scheme,threads,seconds`).
pub fn scaling_csv(points: &[ScalingPoint]) -> String {
    let mut out = String::from("scheme,threads,assemble_solve_seconds\n");
    for p in points {
        out.push_str(&format!("{},{},{:.6}\n", p.scheme, p.threads, p.seconds));
    }
    out
}

/// One row of the Table-II style solver comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverComparisonRow {
    /// Element order.
    pub order: usize,
    /// Assemble/solve seconds with the hand-written Gaussian elimination.
    pub ge_seconds: f64,
    /// Fraction of GE kernel time spent in the solve.
    pub ge_solve_fraction: f64,
    /// Assemble/solve seconds with the blocked-LU MKL stand-in.
    pub mkl_seconds: f64,
    /// Fraction of MKL kernel time spent in the solve.
    pub mkl_solve_fraction: f64,
    /// Metrics snapshot of the GE solve, for `--metrics-out` emission.
    pub ge_metrics: RunMetrics,
    /// Metrics snapshot of the MKL solve, for `--metrics-out` emission.
    pub mkl_metrics: RunMetrics,
}

/// Run the Table-II experiment for orders `1..=max_order`.
///
/// `problem_for` maps `(order, solver)` to the problem to run, so callers
/// choose between the paper-size and scaled-down configurations.
pub fn run_solver_comparison<F>(max_order: usize, problem_for: F) -> Vec<SolverComparisonRow>
where
    F: Fn(usize, SolverKind) -> Problem,
{
    let mut rows = Vec::with_capacity(max_order);
    for order in 1..=max_order {
        let mut seconds = [0.0f64; 2];
        let mut fractions = [0.0f64; 2];
        let mut metrics = [RunMetrics::default(), RunMetrics::default()];
        for (slot, kind) in [SolverKind::GaussianElimination, SolverKind::Mkl]
            .into_iter()
            .enumerate()
        {
            let problem = problem_for(order, kind).with_solve_timing(true);
            let mut solver = TransportSolver::new(&problem).expect("valid problem");
            let outcome = solver.run().expect("solve");
            seconds[slot] = outcome.assemble_solve_seconds;
            fractions[slot] = outcome.solve_fraction();
            metrics[slot] = outcome.metrics;
        }
        let [ge_metrics, mkl_metrics] = metrics;
        rows.push(SolverComparisonRow {
            order,
            ge_seconds: seconds[0],
            ge_solve_fraction: fractions[0],
            mkl_seconds: seconds[1],
            mkl_solve_fraction: fractions[1],
            ge_metrics,
            mkl_metrics,
        });
    }
    rows
}

/// Render the solver comparison as a text table shaped like Table II.
pub fn solver_comparison_table(rows: &[SolverComparisonRow]) -> String {
    let mut out = format!(
        "{:>5}  {:>12} {:>11}   {:>12} {:>11}\n",
        "Order", "GE (s)", "% in solve", "MKL (s)", "% in solve"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5}  {:>12.2} {:>10.0}%   {:>12.2} {:>10.0}%\n",
            r.order,
            r.ge_seconds,
            r.ge_solve_fraction * 100.0,
            r.mkl_seconds,
            r.mkl_solve_fraction * 100.0
        ));
    }
    out
}

/// Render the solver comparison as CSV.
pub fn solver_comparison_csv(rows: &[SolverComparisonRow]) -> String {
    let mut out =
        String::from("order,ge_seconds,ge_solve_fraction,mkl_seconds,mkl_solve_fraction\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.6},{:.4},{:.6},{:.4}\n",
            r.order, r.ge_seconds, r.ge_solve_fraction, r.mkl_seconds, r.mkl_solve_fraction
        ));
    }
    out
}

/// Render the solver comparison as a JSON array (via the workspace's
/// hand-rolled writer — the vendored `serde` is a no-op stand-in).
pub fn solver_comparison_json(rows: &[SolverComparisonRow]) -> String {
    unsnap_core::json::array_raw(rows.iter().map(|r| {
        unsnap_core::json::JsonObject::new()
            .field_usize("order", r.order)
            .field_f64("ge_seconds", r.ge_seconds)
            .field_f64("ge_solve_fraction", r.ge_solve_fraction)
            .field_f64("mkl_seconds", r.mkl_seconds)
            .field_f64("mkl_solve_fraction", r.mkl_solve_fraction)
            .finish()
    }))
}

/// Print a standard experiment header (machine info, problem shape).
pub fn print_header(title: &str, problem: &Problem, full: bool) {
    let machine = MachineInfo::detect();
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
    println!(
        "machine: {} logical CPUs, {} / {}",
        machine.logical_cpus, machine.os, machine.arch
    );
    println!(
        "problem: {}x{}x{} cells, {} angles/octant, {} groups, order {}, twist {} ({})",
        problem.nx,
        problem.ny,
        problem.nz,
        problem.angles_per_octant,
        problem.num_groups,
        problem.element_order,
        problem.twist,
        if full { "paper size" } else { "scaled down" }
    );
    println!(
        "iterations: {} inner x {} outer",
        problem.inner_iterations, problem.outer_iterations
    );
    println!();
}

/// Time a closure, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_sweep::{LoopOrder, ThreadedLoops};

    #[test]
    fn option_parsing() {
        let o = HarnessOptions::parse(
            ["--full", "--csv", "--threads", "1,2,4", "--max-order", "3"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(o.full);
        assert!(o.csv);
        assert!(!o.json);
        assert!(!o.quick);
        assert!(
            HarnessOptions::parse(["--json".to_string()].into_iter()).json,
            "--json must parse"
        );
        assert!(
            HarnessOptions::parse(["--quick".to_string()].into_iter()).quick,
            "--quick must parse"
        );
        assert!(
            HarnessOptions::parse(["--progress".to_string()].into_iter()).progress,
            "--progress must parse"
        );
        assert!(!o.progress);
        assert_eq!(o.threads, Some(vec![1, 2, 4]));
        assert_eq!(o.max_order, Some(3));
        assert_eq!(o.thread_sweep(), vec![1, 2, 4]);
        assert!(o.metrics_out.is_none());
        assert_eq!(
            HarnessOptions::parse(["--metrics-out", "run.jsonl"].iter().map(|s| s.to_string()))
                .metrics_out,
            Some("run.jsonl".to_string()),
            "--metrics-out must capture its path"
        );

        assert_eq!(
            HarnessOptions::parse(["--trace-out", "t.json"].iter().map(|s| s.to_string()))
                .trace_out,
            Some("t.json".to_string()),
            "--trace-out must capture its path"
        );

        let d = HarnessOptions::parse(std::iter::empty());
        assert!(!d.full);
        assert!(!d.csv);
        assert!(d.threads.is_none());
        assert!(!d.thread_sweep().is_empty());
        assert!(d.metrics_out.is_none());
        assert!(d.trace_out.is_none());
    }

    #[test]
    fn metrics_record_serialises_the_uniform_schema() {
        let base = ProblemBuilder::tiny();
        let outcome = run_strategy(&base, StrategyKind::SweepGmres, false);
        let record = MetricsRecord::from_metrics(
            "test_bin",
            "c=0.5",
            StrategyKind::SweepGmres,
            2,
            &outcome.metrics,
        );
        let doc = unsnap_obs::reader::parse(&record.to_json()).unwrap();
        for key in METRICS_RECORD_KEYS {
            assert!(doc.get(key).is_some(), "record must carry `{key}`");
        }
        assert_eq!(doc.get("bin").unwrap().as_str(), Some("test_bin"));
        assert_eq!(doc.get("strategy").unwrap().as_str(), Some("gmres"));
        assert_eq!(
            doc.get("sweeps").and_then(|v| v.as_usize()),
            Some(outcome.sweep_count)
        );
        let sweep_phase = doc.get("phases").and_then(|p| p.get("sweep")).unwrap();
        assert_eq!(
            sweep_phase.get("spans").and_then(|v| v.as_usize()),
            Some(outcome.sweep_count)
        );
        assert!(
            doc.get("sweep_p50").and_then(|v| v.as_f64()).unwrap() > 0.0,
            "latency percentile must come from the recorded histogram"
        );
    }

    #[test]
    fn latency_percentiles_validate_as_number_or_null() {
        // Both shapes an emitting bin can legitimately produce.
        let with_samples =
            unsnap_obs::reader::parse(r#"{"sweep_p50":0.012,"sweep_p95":0.5,"sweep_p99":0.9}"#)
                .unwrap();
        let without =
            unsnap_obs::reader::parse(r#"{"sweep_p50":null,"sweep_p95":null,"sweep_p99":null}"#)
                .unwrap();
        for key in METRICS_RECORD_NUMBER_OR_NULL_KEYS {
            assert_eq!(validate_number_or_null(&with_samples, key), Ok(()));
            assert_eq!(validate_number_or_null(&without, key), Ok(()));
        }

        // Everything else is schema drift.
        let stringified = unsnap_obs::reader::parse(r#"{"sweep_p50":"0.012"}"#).unwrap();
        assert!(validate_number_or_null(&stringified, "sweep_p50")
            .unwrap_err()
            .contains("number or null"));
        let missing = unsnap_obs::reader::parse("{}").unwrap();
        assert!(validate_number_or_null(&missing, "sweep_p50")
            .unwrap_err()
            .contains("missing"));

        // A freshly-built record passes for every guarded key: NaN
        // percentiles (no sweeps) serialise as null, real samples as
        // numbers.
        let record = MetricsRecord::from_metrics(
            "bin",
            "case",
            StrategyKind::SourceIteration,
            1,
            &RunMetrics::default(),
        );
        let doc = unsnap_obs::reader::parse(&record.to_json()).unwrap();
        for key in METRICS_RECORD_NUMBER_OR_NULL_KEYS {
            assert_eq!(validate_number_or_null(&doc, key), Ok(()));
            assert!(doc.get(key).unwrap().is_null());
        }
    }

    #[test]
    fn emit_metrics_record_appends_jsonl_lines() {
        let path = std::env::temp_dir().join("unsnap_bench_metrics_test.jsonl");
        std::fs::remove_file(&path).ok();
        let opts = HarnessOptions {
            metrics_out: Some(path.to_string_lossy().into_owned()),
            ..HarnessOptions::parse(std::iter::empty())
        };
        let record = MetricsRecord::from_metrics(
            "test_bin",
            "case",
            StrategyKind::SourceIteration,
            1,
            &RunMetrics::default(),
        );
        emit_metrics_record(&opts, &record);
        emit_metrics_record(&opts, &record);
        let docs = unsnap_obs::jsonl::read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(docs.len(), 2, "append mode must accumulate records");
        assert_eq!(docs[1].get("strategy").unwrap().as_str(), Some("si"));
        assert!(
            docs[0].get("sweep_p50").unwrap().is_null(),
            "no sweeps recorded must serialise as null"
        );

        // Without the flag the emitter is a no-op.
        emit_metrics_record(&HarnessOptions::parse(std::iter::empty()), &record);
        assert!(!path.exists());
    }

    /// A minimal trajectory document for the compare-gate tests.
    fn trajectory_doc(records: &[&str]) -> unsnap_obs::reader::JsonValue {
        let text = format!(
            r#"{{"schema":"unsnap-perf-trajectory/v1","records":[{}]}}"#,
            records.join(",")
        );
        unsnap_obs::reader::parse(&text).unwrap()
    }

    fn record(bin: &str, sweeps: usize, sweep_seconds: f64) -> String {
        format!(
            r#"{{"bin":"{bin}","case":"c=0.9","strategy":"si","threads":1,
               "sweeps":{sweeps},"cells_swept":1000,"inner_iterations":{sweeps},
               "halo_exchanges":0,
               "phases":{{"sweep":{{"spans":{sweeps},"seconds":{sweep_seconds}}}}},
               "sweep_p50":null,"sweep_p99":null}}"#
        )
        .replace('\n', "")
    }

    #[test]
    fn compare_passes_identical_trajectories_and_warns_on_bin_drift() {
        let base = trajectory_doc(&[&record("a", 10, 0.2), &record("gone", 5, 0.1)]);
        let current = trajectory_doc(&[&record("a", 10, 0.21), &record("new", 7, 0.1)]);
        let report = compare_trajectories(&base, &current, WALLCLOCK_TOLERANCE_RATIO).unwrap();
        assert_eq!(report.failures, Vec::<String>::new());
        assert_eq!(report.compared, 1);
        assert_eq!(
            report.warnings.len(),
            2,
            "absent + new bin: {:?}",
            report.warnings
        );
        assert!(report.warnings.iter().any(|w| w.contains("`gone` absent")));
        assert!(report.warnings.iter().any(|w| w.contains("`new` is new")));
    }

    #[test]
    fn compare_fails_on_deterministic_counter_drift() {
        let base = trajectory_doc(&[&record("a", 10, 0.2)]);
        let current = trajectory_doc(&[&record("a", 11, 0.2)]);
        let report = compare_trajectories(&base, &current, WALLCLOCK_TOLERANCE_RATIO).unwrap();
        // sweeps, inner_iterations and the sweep-phase span count all
        // track the injected drift.
        assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("`sweeps` drifted: 10 -> 11")));
    }

    #[test]
    fn compare_fails_on_wallclock_blowup_but_tolerates_noise() {
        let base = trajectory_doc(&[&record("a", 10, 0.2)]);
        let noisy = trajectory_doc(&[&record("a", 10, 0.2 * 20.0)]);
        let report = compare_trajectories(&base, &noisy, WALLCLOCK_TOLERANCE_RATIO).unwrap();
        assert!(report.failures.is_empty(), "20x is inside the 25x budget");

        let blown = trajectory_doc(&[&record("a", 10, 0.2 * 30.0)]);
        let report = compare_trajectories(&base, &blown, WALLCLOCK_TOLERANCE_RATIO).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("wall clock regressed"));

        // Sub-floor current times never fail, whatever the ratio says.
        let tiny_base = trajectory_doc(&[&record("a", 10, 0.0001)]);
        let tiny_now = trajectory_doc(&[&record("a", 10, 0.01)]);
        let report =
            compare_trajectories(&tiny_base, &tiny_now, WALLCLOCK_TOLERANCE_RATIO).unwrap();
        assert!(report.failures.is_empty(), "sub-floor noise must pass");
    }

    #[test]
    fn compare_fails_on_a_missing_record_in_a_covered_bin() {
        let two = trajectory_doc(&[&record("a", 10, 0.2), &{
            record("a", 5, 0.1).replace("c=0.9", "c=0.99")
        }]);
        let one = trajectory_doc(&[&record("a", 10, 0.2)]);
        let report = compare_trajectories(&two, &one, WALLCLOCK_TOLERANCE_RATIO).unwrap();
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("record missing"));
    }

    #[test]
    fn scaling_experiment_produces_a_point_per_combination() {
        let mut base = Problem::tiny();
        base.inner_iterations = 1;
        let schemes = [
            ConcurrencyScheme::new(LoopOrder::ElementThenGroup, ThreadedLoops::Collapsed),
            ConcurrencyScheme::new(LoopOrder::GroupThenElement, ThreadedLoops::OuterOnly),
        ];
        let threads = [1usize, 2];
        let points = run_scaling_experiment(&base, &threads, &schemes);
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.seconds > 0.0));

        let table = scaling_table(&points, &threads);
        assert!(table.contains("angle/element*/group*"));
        assert_eq!(table.lines().count(), 3);

        let csv = scaling_csv(&points);
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("scheme,threads"));
    }

    #[test]
    fn solver_comparison_produces_rows_in_order() {
        let rows = run_solver_comparison(2, |order, kind| {
            let mut p = Problem::table2_scaled(order, kind);
            p.nx = 2;
            p.ny = 2;
            p.nz = 2;
            p.inner_iterations = 1;
            p
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].order, 1);
        assert_eq!(rows[1].order, 2);
        for r in &rows {
            assert!(r.ge_seconds > 0.0 && r.mkl_seconds > 0.0);
            assert!(r.ge_solve_fraction > 0.0 && r.ge_solve_fraction < 1.0);
            assert!(r.mkl_solve_fraction > 0.0 && r.mkl_solve_fraction < 1.0);
        }
        let table = solver_comparison_table(&rows);
        assert!(table.contains("% in solve"));
        let csv = solver_comparison_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
        let json = solver_comparison_json(&rows);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"order\":1"));
        assert!(json.contains("\"mkl_solve_fraction\":"));
    }

    #[test]
    fn time_it_measures_something() {
        let (value, secs) = time_it(|| (0..1000).sum::<usize>());
        assert_eq!(value, 499500);
        assert!(secs >= 0.0);
    }
}
