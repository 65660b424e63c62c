//! # unsnap-bench
//!
//! The paper harness: one binary, `reproduce <experiment>… [flags]`,
//! over one table of experiments ([`EXPERIMENTS`]).  Each entry is a
//! name, the paper artefact it regenerates and a function from
//! [`HarnessOptions`] to a [`Report`] — a column list, rows of
//! `(case, strategy, threads, cells, RunMetrics)` and a closing note —
//! so the text table, `--csv`, `--json` and the committed
//! `BENCH_<pr>.json` record are each rendered once, here, from the same
//! rows.  `reproduce` with no experiment prints the table.
//!
//! The harness is not a stopwatch.  Wall-clock fields are written into
//! every record (`seconds`, per-phase seconds, latency percentiles,
//! `cells_per_sec`) because the paper's figures are timings, but nothing
//! here gates on them: `--compare BASE.json` ([`compare`]) diffs only
//! what is exact — the deterministic counters and per-phase span counts
//! of records matched on `(experiment, case, strategy, threads)`.
//! Timing regressions are the job of the repository benchmark in
//! `benchmark/`.
//!
//! A record's `threads` is the width the solve was asked to run at:
//! every experiment sets `num_threads` explicitly from `--threads`
//! (default `1,2` for the scaling family, `1` for the rest), so a
//! document recorded on one machine compares on another.  The harness
//! reads no `UNSNAP_*` variable, and refuses to record or compare while
//! `RAYON_NUM_THREADS` is set — that override resizes every pool and
//! would make every tag false.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod experiments;

use std::collections::{BTreeMap, BTreeSet};

use unsnap_core::metrics::RunMetrics;
use unsnap_core::session::Phase;
use unsnap_core::strategy::StrategyKind;
use unsnap_obs::json::{array_raw, number, JsonObject};
use unsnap_obs::reader::{self, JsonValue};

/// The `schema` tag of the document `--out` writes and `--compare` reads.
pub const SCHEMA: &str = "unsnap-reproduce/v1";

/// One entry of the experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `reproduce` takes on its command line.
    pub name: &'static str,
    /// The paper artefact (or section) the experiment regenerates.
    pub paper: &'static str,
    /// What it measures, in one line.
    pub about: &'static str,
    /// Run it at the size and widths `opts` selects.
    pub run: fn(&HarnessOptions) -> Report,
}

/// Every experiment `reproduce` can run, in the order the table prints.
pub const EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        name: "table1",
        paper: "Table I",
        about: "local matrix size and FP64 footprint per element order",
        run: experiments::table1,
    },
    Experiment {
        name: "figure3",
        paper: "Figure 3",
        about: "thread scaling of the six loop-order/threading schemes \
                (+ the angle* default), linear elements",
        run: experiments::figure3,
    },
    Experiment {
        name: "figure4",
        paper: "Figure 4",
        about: "thread scaling of the six loop-order/threading schemes \
                (+ the angle* default), cubic elements",
        run: experiments::figure4,
    },
    Experiment {
        name: "table2",
        paper: "Table II",
        about: "GE vs the MKL stand-in: assemble/solve seconds and % in solve per order",
        run: experiments::table2,
    },
    Experiment {
        name: "threading",
        paper: "§IV-A.3",
        about: "angle threading (ordered reduction, no atomic) vs per-bucket threading",
        run: experiments::threading,
    },
    Experiment {
        name: "strategies",
        paper: "extension",
        about: "SI vs DSA-SI vs sweep-preconditioned GMRES as the scattering ratio nears 1",
        run: experiments::strategies,
    },
    Experiment {
        name: "jacobi",
        paper: "§III-A.1",
        about: "block-Jacobi schedule: iteration strategy × rank count",
        run: experiments::jacobi,
    },
    Experiment {
        name: "precision",
        paper: "extension",
        about: "f64 vs mixed-precision local solves per strategy, with the accuracy contract",
        run: experiments::precision,
    },
];

/// Look an experiment up by its command-line name.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The experiment table as `reproduce` prints it when given no name.
pub fn experiment_table() -> String {
    let mut out = format!("{:<11} {:<9} measures\n", "experiment", "paper");
    for e in &EXPERIMENTS {
        out.push_str(&format!("{:<11} {:<9} {}\n", e.name, e.paper, e.about));
    }
    out
}

/// The usage text printed (to stderr, exit 2) on any command-line error.
pub const USAGE: &str = "\
usage: reproduce <experiment>... [flags]     (no experiment: print the table)
  --quick | --full     smoke size | the paper's published size (default: scaled down)
  --threads 1,2,4      widths to run at (default 1,2 for figure3/figure4/threading, else 1)
  --max-order N        highest element order of table2 (default 3, 4 with --full)
  --csv | --json       machine-readable stdout instead of text tables
  --out FILE           also write the schema-versioned record document
  --compare FILE       diff deterministic counters against a recorded document (exit 1 on drift)
  --progress           stream solve progress to stderr
  --trace-out FILE     write the last solve's Chrome trace_event profile";

/// Problem size an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `--quick`: the smallest problem that exercises every code path.
    Quick,
    /// The scaled-down default that completes on a laptop.
    Scaled,
    /// `--full`: the paper's published size (needs a large-memory node).
    Full,
}

/// What `reproduce` prints on stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable tables.
    Text,
    /// `--csv`: one header + rows block per experiment.
    Csv,
    /// `--json`: the same document `--out` writes.
    Json,
}

/// The parsed `reproduce` command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Experiments to run, in command-line order.
    pub experiments: Vec<&'static Experiment>,
    /// Problem size (`--quick` / `--full`).
    pub size: Size,
    /// Stdout format (`--csv` / `--json`).
    pub format: Format,
    /// Thread widths to run at (`--threads 1,2,4`), each ≥ 1.
    pub threads: Option<Vec<usize>>,
    /// Highest element order of `table2` (`--max-order 4`).
    pub max_order: Option<usize>,
    /// Stream rate-limited solve progress to stderr (`--progress`).
    pub progress: bool,
    /// Write the last solve's Chrome `trace_event` profile here
    /// (`--trace-out <path>`); each solve overwrites the file.
    pub trace_out: Option<String>,
    /// Write the record document here (`--out <path>`).
    pub out: Option<String>,
    /// Diff the fresh records against this document (`--compare <path>`).
    pub compare: Option<String>,
}

impl HarnessOptions {
    /// Parse a command line.  Anything the harness does not understand —
    /// an unknown experiment or flag, a missing or unparsable value, two
    /// flags that contradict each other — is an error, never a silently
    /// different experiment.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = Self {
            experiments: Vec::new(),
            size: Size::Scaled,
            format: Format::Text,
            threads: None,
            max_order: None,
            progress: false,
            trace_out: None,
            out: None,
            compare: None,
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut value = || {
                iter.next()
                    .filter(|v| !v.is_empty() && !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a value"))
            };
            match arg.as_str() {
                "--quick" | "--full" => {
                    if opts.size != Size::Scaled {
                        return Err("--quick and --full given together or twice".into());
                    }
                    opts.size = if arg == "--quick" {
                        Size::Quick
                    } else {
                        Size::Full
                    };
                }
                "--csv" | "--json" => {
                    if opts.format != Format::Text {
                        return Err("--csv and --json given together or twice".into());
                    }
                    opts.format = if arg == "--csv" {
                        Format::Csv
                    } else {
                        Format::Json
                    };
                }
                "--progress" => opts.progress = true,
                "--threads" => {
                    let widths = value()?
                        .split(',')
                        .map(|t| t.parse().ok().filter(|&t: &usize| t >= 1))
                        .collect::<Option<Vec<usize>>>()
                        .ok_or("--threads takes a comma-separated list of widths >= 1")?;
                    opts.threads = Some(widths);
                }
                "--max-order" => {
                    let order = value()?.parse().ok().filter(|&n: &usize| n >= 1);
                    opts.max_order = Some(order.ok_or("--max-order takes an integer >= 1")?);
                }
                "--trace-out" => opts.trace_out = Some(value()?),
                "--out" => opts.out = Some(value()?),
                "--compare" => opts.compare = Some(value()?),
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                name => match experiment(name) {
                    Some(e) => opts.experiments.push(e),
                    None => return Err(format!("unknown experiment `{name}`")),
                },
            }
        }
        Ok(opts)
    }

    /// The widths an experiment runs at: `--threads`, or its own
    /// machine-independent default.
    pub fn widths(&self, default: &[usize]) -> Vec<usize> {
        self.threads.clone().unwrap_or_else(|| default.to_vec())
    }
}

/// One value of a report row, under the column of the same index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A deterministic count (sweeps, iterations, matrix size, …).
    Int(u64),
    /// A measured or computed real (seconds, speed-up, flux difference, …).
    Real(f64),
    /// A yes/no outcome (converged, …).
    Flag(bool),
}

impl Cell {
    /// Fixed-precision rendering for the text table.
    fn text(&self) -> String {
        match *self {
            Cell::Int(v) => v.to_string(),
            Cell::Flag(v) => if v { "yes" } else { "no" }.to_string(),
            Cell::Real(v) if v == 0.0 || (1e-3..1e6).contains(&v.abs()) => format!("{v:.4}"),
            Cell::Real(v) => format!("{v:.3e}"),
        }
    }

    /// Full-precision rendering shared by CSV and JSON.
    fn json(&self) -> String {
        match *self {
            Cell::Int(v) => v.to_string(),
            Cell::Flag(v) => v.to_string(),
            Cell::Real(v) => number(v),
        }
    }
}

/// One measured point of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The experiment's x-axis value: a scheme label, `c=0.9`, `order=2/ge`, …
    pub case: String,
    /// The iteration strategy that ran (`None`: no solve, as in Table I).
    pub strategy: Option<StrategyKind>,
    /// The width the solve was asked to run at (0: no solve).
    pub threads: usize,
    /// One value per [`Report::columns`] entry.
    pub cells: Vec<Cell>,
    /// The telemetry snapshot the solve attached to its outcome.
    pub metrics: RunMetrics,
}

impl Row {
    /// Lower-case strategy tag (`si`, `dsa-si`, `gmres`; `-` for no solve),
    /// matching the workspace's `FromStr` labels.
    fn strategy_tag(&self) -> String {
        self.strategy
            .map_or("-".to_string(), |s| s.label().to_ascii_lowercase())
    }

    /// Identity tags then cells, rendered by `cell`.
    fn fields(&self, cell: fn(&Cell) -> String) -> Vec<String> {
        let mut out = vec![
            self.case.clone(),
            self.strategy_tag(),
            self.threads.to_string(),
        ];
        out.extend(self.cells.iter().map(cell));
        out
    }
}

/// What one experiment produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The problem that ran, in one line.
    pub setup: String,
    /// Names of the per-row cells (the keys of a record's `cells` object).
    pub columns: Vec<&'static str>,
    /// The measured points.
    pub rows: Vec<Row>,
    /// How to read the table against the paper.
    pub note: &'static str,
}

impl Report {
    fn header(&self) -> Vec<String> {
        ["case", "strategy", "threads"]
            .iter()
            .chain(&self.columns)
            .map(|c| c.to_string())
            .collect()
    }

    /// The human-readable table: title, set-up line, aligned rows, note.
    pub fn text(&self, experiment: &Experiment) -> String {
        let mut lines = vec![self.header()];
        lines.extend(self.rows.iter().map(|r| r.fields(Cell::text)));
        let widths: Vec<usize> = (0..lines[0].len())
            .map(|c| {
                lines
                    .iter()
                    .map(|l| l[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!(
            "{} — {}\n{}\n\n",
            experiment.paper, experiment.about, self.setup
        );
        for line in &lines {
            // The case column reads left-aligned; everything else is a number.
            out.push_str(&format!("{:<w$}", line[0], w = widths[0]));
            for (field, w) in line.iter().zip(&widths).skip(1) {
                out.push_str(&format!("  {field:>w$}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("\n{}\n", self.note));
        out
    }

    /// One CSV block: `experiment,case,strategy,threads,<columns>`.
    pub fn csv(&self, experiment: &Experiment) -> String {
        let mut out = format!("experiment,{}\n", self.header().join(","));
        for row in &self.rows {
            out.push_str(&format!(
                "{},{}\n",
                experiment.name,
                row.fields(Cell::json).join(",")
            ));
        }
        out
    }
}

/// Kernel invocations per second of sweep phase — the paper's unit of
/// throughput.  `NaN` (serialised as `null`) when no sweep ran.
fn cells_per_sec(metrics: &RunMetrics) -> f64 {
    let seconds = metrics.phase_time(Phase::Sweep);
    if metrics.sweeps == 0 || seconds <= 0.0 {
        f64::NAN
    } else {
        metrics.cells_swept as f64 / seconds
    }
}

/// One record of the document: identity tags, deterministic counters, a
/// `phases` object of `{spans, seconds}` per phase, wall-clock summaries
/// (`null` when no sweep ran) and the row's cells by column name.
fn record_json(experiment: &Experiment, columns: &[&'static str], row: &Row) -> String {
    let m = &row.metrics;
    let phases = Phase::all()
        .iter()
        .fold(JsonObject::new(), |obj, phase| {
            obj.field_raw(
                phase.label(),
                &JsonObject::new()
                    .field_usize("spans", m.phase_count(*phase))
                    .field_f64("seconds", m.phase_time(*phase))
                    .finish(),
            )
        })
        .finish();
    let cells = columns
        .iter()
        .zip(&row.cells)
        .fold(JsonObject::new(), |obj, (column, cell)| {
            obj.field_raw(column, &cell.json())
        })
        .finish();
    JsonObject::new()
        .field_str("experiment", experiment.name)
        .field_str("case", &row.case)
        .field_str("strategy", &row.strategy_tag())
        .field_usize("threads", row.threads)
        .field_usize("sweeps", m.sweeps)
        .field_u64("cells_swept", m.cells_swept)
        .field_usize("inner_iterations", m.inner_iterations)
        .field_usize("halo_exchanges", m.halo_exchanges)
        .field_raw("phases", &phases)
        .field_f64("sweep_p50", m.sweep_p50().unwrap_or(f64::NAN))
        .field_f64("sweep_p95", m.sweep_p95().unwrap_or(f64::NAN))
        .field_f64("sweep_p99", m.sweep_p99().unwrap_or(f64::NAN))
        .field_f64("cells_per_sec", cells_per_sec(m))
        .field_raw("cells", &cells)
        .finish()
}

/// The schema-versioned document of a run: what `--json` prints, `--out`
/// writes and `--compare` reads.  One record per report row, one per
/// line so a committed document diffs readably.
pub fn document(reports: &[(&Experiment, Report)]) -> String {
    let records: Vec<String> = reports
        .iter()
        .flat_map(|(e, report)| {
            report
                .rows
                .iter()
                .map(move |row| format!("\n{}", record_json(e, &report.columns, row)))
        })
        .collect();
    let doc = JsonObject::new()
        .field_str("schema", SCHEMA)
        .field_raw(
            "experiments",
            &array_raw(reports.iter().map(|(e, _)| format!("\"{}\"", e.name))),
        )
        .field_raw("records", &array_raw(records))
        .finish();
    format!("{doc}\n")
}

/// The outcome of [`compare`]: hard failures (counter or span-count
/// drift, a record missing from an experiment both sides ran) and soft
/// warnings (an experiment on one side only).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// Drift: the gate exits 1 when any are present.
    pub failures: Vec<String>,
    /// Coverage differences worth printing but not failing on.
    pub warnings: Vec<String>,
    /// How many record pairs were diffed.
    pub compared: usize,
}

impl Comparison {
    /// The process exit status the gate reports.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.failures.is_empty())
    }
}

type RecordKey = (String, String, String, u64);

/// The records of a parsed document, keyed by identity.
fn keyed_records<'a>(
    doc: &'a JsonValue,
    side: &str,
) -> Result<Vec<(RecordKey, &'a JsonValue)>, String> {
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(SCHEMA) => {}
        other => {
            return Err(format!(
                "{side} document has schema {other:?}, not `{SCHEMA}`"
            ))
        }
    }
    let records = doc
        .get("records")
        .and_then(|r| r.as_array())
        .ok_or_else(|| format!("{side} document has no `records` array"))?;
    records
        .iter()
        .map(|record| {
            let tag = |key: &str| record.get(key)?.as_str().map(str::to_string);
            let threads = record.get("threads").and_then(|t| t.as_u64());
            match (tag("experiment"), tag("case"), tag("strategy"), threads) {
                (Some(experiment), Some(case), Some(strategy), Some(threads)) => {
                    Ok(((experiment, case, strategy, threads), record))
                }
                _ => Err(format!("a {side} record lacks its identity tags")),
            }
        })
        .collect()
}

/// Diff two documents: the gate behind `reproduce --compare`.
///
/// Records are matched on `(experiment, case, strategy, threads)`.  For
/// every matched pair `sweeps`, `cells_swept`, `inner_iterations`,
/// `halo_exchanges` and each phase's `spans` must be **exactly** equal —
/// they are bit-for-bit reproducible at every width, so any drift is an
/// algorithmic change.  No wall-clock field is read.  An experiment on
/// one side only is a warning (matrices grow and shrink); a base record
/// missing from an experiment the current run covers is a failure.
pub fn compare(base: &JsonValue, current: &JsonValue) -> Result<Comparison, String> {
    let base_records = keyed_records(base, "base")?;
    let current_records: BTreeMap<_, _> = keyed_records(current, "current")?.into_iter().collect();
    let base_ran: BTreeSet<&str> = base_records.iter().map(|(key, _)| key.0.as_str()).collect();
    let current_ran: BTreeSet<&str> = current_records.keys().map(|key| key.0.as_str()).collect();

    let mut out = Comparison::default();
    for name in base_ran.difference(&current_ran) {
        out.warnings
            .push(format!("experiment `{name}` absent from this run; skipped"));
    }
    for name in current_ran.difference(&base_ran) {
        out.warnings.push(format!(
            "experiment `{name}` has no baseline to compare against"
        ));
    }
    for (key, was) in &base_records {
        if !current_ran.contains(key.0.as_str()) {
            continue;
        }
        let label = format!("{}/{}/{}/t{}", key.0, key.1, key.2, key.3);
        let Some(now) = current_records.get(key) else {
            out.failures
                .push(format!("{label}: record missing from this run"));
            continue;
        };
        let mut exact = |what: String, was: Option<u64>, now: Option<u64>| {
            if was != now {
                let show = |v: Option<u64>| v.map_or("missing".to_string(), |v| v.to_string());
                out.failures.push(format!(
                    "{label}: {what} drifted: {} -> {}",
                    show(was),
                    show(now)
                ));
            }
        };
        for counter in [
            "sweeps",
            "cells_swept",
            "inner_iterations",
            "halo_exchanges",
        ] {
            let read = |doc: &JsonValue| doc.get(counter).and_then(|v| v.as_u64());
            exact(format!("counter `{counter}`"), read(was), read(now));
        }
        for phase in Phase::all() {
            let spans = |doc: &JsonValue| {
                doc.get("phases")?
                    .get(phase.label())?
                    .get("spans")?
                    .as_u64()
            };
            exact(
                format!("phase `{}` span count", phase.label()),
                spans(was),
                spans(now),
            );
        }
        out.compared += 1;
    }
    Ok(out)
}

/// Everything `reproduce` does after parsing; returns the exit status
/// (0 clean, 1 on drift against `--compare`, 2 on a refused run or I/O).
pub fn run(opts: &HarnessOptions) -> i32 {
    if opts.experiments.is_empty() {
        print!("{}", experiment_table());
        return 0;
    }
    if (opts.out.is_some() || opts.compare.is_some())
        && std::env::var_os("RAYON_NUM_THREADS").is_some()
    {
        eprintln!(
            "reproduce: RAYON_NUM_THREADS is set: it resizes every pool, so no record's \
             `threads` tag would be true; unset it to use --out/--compare"
        );
        return 2;
    }
    // Read the baseline first: a bad path should not cost a full run.
    let base = match opts.compare.as_deref().map(read_document).transpose() {
        Ok(base) => base,
        Err(reason) => {
            eprintln!("reproduce: {reason}");
            return 2;
        }
    };

    let mut reports = Vec::with_capacity(opts.experiments.len());
    for &e in &opts.experiments {
        let report = (e.run)(opts);
        match opts.format {
            Format::Text => println!("{}", report.text(e)),
            Format::Csv => println!("{}", report.csv(e)),
            Format::Json => {}
        }
        reports.push((e, report));
    }
    let doc = document(&reports);
    if opts.format == Format::Json {
        print!("{doc}");
    }
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("reproduce: --out {path}: {e}");
            return 2;
        }
        let records: usize = reports.iter().map(|(_, report)| report.rows.len()).sum();
        eprintln!("reproduce: wrote {records} record(s) to {path}");
    }
    let (Some(base), Some(path)) = (base, &opts.compare) else {
        return 0;
    };
    let current = reader::parse(&doc).expect("the document renderer emits JSON");
    match compare(&base, &current) {
        Ok(outcome) => {
            for warning in &outcome.warnings {
                eprintln!("compare: warning: {warning}");
            }
            for failure in &outcome.failures {
                eprintln!("compare: FAIL: {failure}");
            }
            eprintln!(
                "compare: {} record pair(s) diffed against {path}: {} failure(s), {} warning(s)",
                outcome.compared,
                outcome.failures.len(),
                outcome.warnings.len()
            );
            outcome.exit_code()
        }
        Err(reason) => {
            eprintln!("reproduce: --compare {path}: {reason}");
            2
        }
    }
}

fn read_document(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--compare {path}: {e}"))?;
    reader::parse(&text).map_err(|e| format!("--compare {path}: invalid JSON: {e}"))
}

#[cfg(test)]
mod tests;
