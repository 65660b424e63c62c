//! The repository benchmark: five workloads, end-to-end metrics with
//! regression bounds, and a traced pass that attributes time to layers.
//! See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload sweep-linear --seed 1 --seconds 20 --trace 0
//! benchmark --workload serve-mix --trace 1      # per-layer numbers
//! benchmark                                     # all five workloads
//! benchmark --aa                                # two sets, same build
//! benchmark --list
//! ```

#![forbid(unsafe_code)]

mod catalogue;
mod layers;
mod probe;
mod reference;
mod serve;
mod solve;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use unsnap_obs::json::{self, JsonObject};

use catalogue::Better;
use stats::Summary;
use workloads::{Workload, DEFAULT_SEED};

/// Parsed command line.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    list: bool,
    aa: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--out DIR] [--list] [--aa]";

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        list: false,
        aa: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                options.workload = match name.as_str() {
                    "all" => None,
                    name => Some(Workload::from_name(name).ok_or_else(|| {
                        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload '{name}'; known: {}", known.join(", "))
                    })?),
                };
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                options.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                };
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--quick" => options.quick = true,
            "--list" => options.list = true,
            "--aa" => options.aa = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if options.aa && options.trace {
        // The traced pass has no bounds to hold two sets against.
        return Err("--aa compares end-to-end metrics; it cannot run with --trace 1".to_string());
    }
    Ok(options)
}

/// Variables that silently change the workloads: `RAYON_NUM_THREADS`
/// overrides every pool width, and the `UNSNAP_*` family reconfigures
/// the problem builder and the server.
fn polluting_variables(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut found: Vec<String> = vars
        .filter(|name| name == "RAYON_NUM_THREADS" || name.starts_with("UNSNAP_"))
        .collect();
    found.sort();
    found
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, compiler, commit and seed, as one JSON object.
fn environment_json(options: &Options) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    JsonObject::new()
        .field_usize(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field_str("cpu", &cpu)
        .field_str("rustc", &command_line("rustc", &["-V"]))
        .field_str("commit", &command_line("git", &["rev-parse", "HEAD"]))
        .field_u64("seed", options.seed)
        .field_f64("seconds", options.seconds)
        .field_bool("quick", options.quick)
        .finish()
}

/// The values of one run, keyed by contract metric name.
type Values = Vec<(&'static str, &'static str, f64)>;

/// The contract's result line.
fn result_line(attempted: u64, failed: u64, values: &Values) -> String {
    let mut metrics = JsonObject::new();
    for (name, unit, value) in values {
        metrics = metrics.field_raw(
            name,
            &JsonObject::new()
                .field_f64("value", *value)
                .field_str("unit", unit)
                .finish(),
        );
    }
    JsonObject::new()
        .field_bool("correct", failed == 0)
        .field_u64("attempted", attempted.max(1))
        .field_u64("failed", failed)
        .field_raw("metrics", &metrics.finish())
        .finish()
}

/// Run one workload in this process and print its report and result line.
fn run_one(workload: Workload, options: &Options, started: Instant) -> ExitCode {
    println!("# environment {}", environment_json(options));
    if options.quick {
        println!("# --quick: tiny repetitions, numbers are NOT comparable with a full run");
    }
    let (attempted, failed, values) = if options.trace {
        layers::run(workload, options.seed, options.quick, &options.out)
    } else {
        run_untraced(workload, options, started)
    };
    let bad: Vec<&str> = values
        .iter()
        .filter(|(_, _, v)| !v.is_finite())
        .map(|(name, _, _)| *name)
        .collect();
    if failed > 0 || !bad.is_empty() || values.is_empty() {
        // No result line: the run is not a measurement.
        eprintln!(
            "benchmark: {} on {}: {failed} of {attempted} operations failed{}",
            if options.trace { "traced pass" } else { "run" },
            workload.name(),
            if bad.is_empty() {
                String::new()
            } else {
                format!("; not finite: {}", bad.join(", "))
            }
        );
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(attempted, failed, &values));
    ExitCode::SUCCESS
}

/// Marks the report line of one end-to-end metric; `--aa` and the
/// all-workloads summary read these lines back from the child processes.
const RESULT_MARK: &str = ": result ";

/// One untraced run: the report, one `result` line per end-to-end metric
/// of the workload, and the values of the contract's slots.
fn run_untraced(workload: Workload, options: &Options, started: Instant) -> (u64, u64, Values) {
    let name = workload.name();
    // (issue metric, median of the run)
    let mut medians: Vec<(&str, f64)> = Vec::new();
    let mut rss_after_first_solve = None;
    let paced = |s: &[probe::Timed]| s.iter().map(|t| t.paced).collect::<Vec<f64>>();
    let wall = |s: &[probe::Timed]| s.iter().map(|t| t.wall).collect::<Vec<f64>>();
    let (attempted, failed) = if workload == Workload::ServeMix {
        let sizes = if options.quick {
            serve::Sizes::quick()
        } else {
            serve::Sizes::for_seconds(options.seconds)
        };
        let report = serve::measure(options.seed, sizes, started, options.seconds, None);
        println!("{name}: plan: {}", report.plan_line);
        for (label, samples) in [
            ("setup_s", &report.setup),
            ("miss_s", &report.miss),
            ("hit_s (phase B)", &report.hit),
            ("hit_s (phase A, informational)", &report.hit_a),
        ] {
            if !samples.is_empty() {
                println!(
                    "{name}: {label:<31} {}",
                    Summary::of(&paced(samples)).render(1e3, "ms")
                );
                println!(
                    "{name}:   as wall seconds                {}",
                    Summary::of(&wall(samples)).render(1e3, "ms")
                );
            }
        }
        println!(
            "{name}: req_per_s                       {:.3} 1/s (phase A, {} clients / mean paced \
             latency, median over windows of {} completions; {} requests in {:.3} wall s, {:.3} s \
             of them in the clients' probes = {:.3} 1/s; phase B took {:.3} s)",
            report.req_per_s,
            serve::CLIENTS,
            serve::RATE_WINDOW,
            report.phase_a_requests,
            report.phase_a_wall_s,
            report.phase_a_probe_s / serve::CLIENTS as f64,
            report.req_per_s_mean,
            report.phase_b_wall_s
        );
        if report.failed == 0 {
            medians = vec![
                ("setup_s", stats::median(&paced(&report.setup))),
                ("miss_s", stats::median(&paced(&report.miss))),
                ("hit_s", stats::median(&paced(&report.hit))),
                ("req_per_s", report.req_per_s),
            ];
        }
        (report.attempted, report.failed)
    } else {
        let problem = workloads::solve_problem(workload, options.seed);
        let driver = workload.driver().expect("a solve workload");
        let reference = reference::reference_for(workload, driver, options.seed);
        let mut checker = solve::Checker::new(workload, driver, &problem, reference);
        let budget = if options.quick {
            solve::Budget {
                seconds: 0.0,
                min_pairs: 1,
                max_pairs: 1,
                setups: 2,
            }
        } else {
            solve::Budget {
                seconds: options.seconds,
                min_pairs: 2,
                max_pairs: 200,
                setups: 40,
            }
        };
        let samples = solve::measure(workload, options.seed, budget, started, &mut checker);
        rss_after_first_solve = Some(samples.peak_rss_mb);
        for (label, s) in [
            ("setup_s", &samples.setup_t1),
            ("setup_s at 2 threads (info)", &samples.setup_t2),
            ("solve_s", &samples.solve_t1),
            ("solve_t2_s", &samples.solve_t2),
        ] {
            if !s.is_empty() {
                println!(
                    "{name}: {label:<31} {}",
                    Summary::of(&paced(s)).render(1.0, "s")
                );
                println!(
                    "{name}:   as wall seconds                {}",
                    Summary::of(&wall(s)).render(1.0, "s")
                );
            }
        }
        if let Some(first) = checker.first().filter(|_| checker.failed == 0) {
            println!(
                "{name}: facts: sweeps={} kernel_invocations={} converged={} flux total/min/max = \
                 {:e} {:e} {:e}",
                first.sweeps,
                first.kernel_invocations,
                first.converged,
                first.flux[0],
                first.flux[1],
                first.flux[2]
            );
            let (solve, solve_t2) = (
                stats::median(&paced(&samples.solve_t1)),
                stats::median(&paced(&samples.solve_t2)),
            );
            println!(
                "{name}: speed-up at 2 threads           {:.3} (solve_s / solve_t2_s); {:.0} and \
                 {:.0} local solves per second",
                solve / solve_t2,
                first.kernel_invocations as f64 / solve,
                first.kernel_invocations as f64 / solve_t2
            );
            medians = vec![
                ("setup_s", stats::median(&paced(&samples.setup_t1))),
                ("solve_s", solve),
                ("solve_t2_s", solve_t2),
            ];
        }
        (checker.attempted, checker.failed)
    };
    // A solve workload's peak is read after its first solve; what the
    // repetitions add to it is the allocator's, not the program's.
    let at_exit = solve::peak_rss_mb();
    let rss = rss_after_first_solve.unwrap_or(at_exit);
    println!("{name}: VmHWM at exit (info)            {at_exit} MiB");
    println!(
        "{name}: fail_share                      {failed}/{attempted} = {}",
        failed as f64 / attempted.max(1) as f64
    );
    if medians.is_empty() {
        return (attempted, failed, Values::new());
    }
    medians.push(("peak_rss_mb", rss));
    let mut values = Values::new();
    for m in catalogue::end_to_end_on(workload) {
        let (_, value) = medians
            .iter()
            .find(|(metric, _)| *metric == m.name)
            .expect("every end-to-end metric of the workload was measured");
        println!(
            "{name}{RESULT_MARK}{} = {} {}",
            m.name,
            json::number(*value),
            m.unit
        );
        if let Some(slot) = m.slot {
            values.push((slot, m.unit, *value));
        }
    }
    (attempted, failed, values)
}

/// The `(metric, value)` pairs of a child's `result` lines.
fn parse_results(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let (_, rest) = line.split_once(RESULT_MARK)?;
            let (name, rest) = rest.split_once(" = ")?;
            let value = rest.split_whitespace().next()?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// Run `workload` in a child process (one process per workload, so that
/// `peak_rss_mb` is per workload); returns its end-to-end metrics (none
/// for the traced pass).
fn run_child(workload: Workload, options: &Options) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("--workload")
        .arg(workload.name())
        .arg("--seed")
        .arg(options.seed.to_string())
        .arg("--seconds")
        .arg(options.seconds.to_string())
        .arg("--trace")
        .arg(if options.trace { "1" } else { "0" })
        .arg("--out")
        .arg(&options.out)
        .stdin(Stdio::null());
    if options.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        println!("{line}");
    }
    std::io::Write::write_all(&mut std::io::stderr(), &output.stderr).ok();
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let results = parse_results(&stdout);
    let expected = catalogue::end_to_end_on(workload).count();
    if !options.trace && results.len() != expected {
        return Err(format!(
            "{} printed {} end-to-end metrics, expected {expected}",
            workload.name(),
            results.len()
        ));
    }
    Ok(results)
}

/// All five workloads, one child each.
fn run_all(options: &Options) -> ExitCode {
    let mut failures = 0;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        match run_child(workload, options) {
            Ok(values) => rows.push((workload, values)),
            Err(error) => {
                eprintln!("benchmark: {error}");
                failures += 1;
            }
        }
    }
    if !options.trace {
        println!("\nsummary:");
        for (workload, values) in &rows {
            for (name, value) in values {
                println!(
                    "  {:<13} {:<12} {:>14.6} {}",
                    workload.name(),
                    name,
                    value,
                    catalogue::end_to_end(name).unit
                );
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A/A: two sets of runs of the same build must agree within the bounds.
/// The two runs of a workload follow each other, so that both see the
/// same state of a shared host as far as that can be arranged.
fn run_aa(options: &Options) -> ExitCode {
    let targets: Vec<Workload> = match options.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut pairs = Vec::new();
    for workload in &targets {
        let mut sets = Vec::new();
        for set in ["A", "B"] {
            println!("# A/A set {set} of {}", workload.name());
            match run_child(*workload, options) {
                Ok(values) => sets.push(values),
                Err(error) => {
                    eprintln!("benchmark --aa: {error}");
                    return ExitCode::FAILURE;
                }
            }
        }
        pairs.push((*workload, sets));
    }
    println!(
        "\nA/A: set B against set A, same build, seed {}, {} s per run",
        options.seed, options.seconds
    );
    println!(
        "  {:<13} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "differ by", "bound"
    );
    let mut exceeded = 0;
    for (workload, sets) in &pairs {
        for ((name, a), (_, b)) in sets[0].iter().zip(&sets[1]) {
            let m = catalogue::end_to_end(name);
            // Either direction counts: A and B are the same build.
            let diff = worsening(m.better, *a, *b).abs();
            let verdict = if diff > m.bound {
                exceeded += 1;
                "EXCEEDED"
            } else {
                "ok"
            };
            println!(
                "  {:<13} {:<12} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}% {verdict}",
                workload.name(),
                m.name,
                a,
                b,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    if exceeded == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark --aa: {exceeded} (metric, workload) pairs differ by more than their bound"
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if options.list {
        print!("{}", catalogue::list());
        return ExitCode::SUCCESS;
    }
    let polluting =
        polluting_variables(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if !polluting.is_empty() {
        eprintln!(
            "benchmark: refusing to run with {} set: RAYON_NUM_THREADS overrides every pool \
             width and UNSNAP_* reconfigures problems and the server, so the workloads would \
             silently change; unset them",
            polluting.join(", ")
        );
        return ExitCode::from(2);
    }
    if options.aa {
        return run_aa(&options);
    }
    match options.workload {
        Some(workload) => run_one(workload, &options, started),
        None => run_all(&options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_obs::reader;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let o = parse_options(&args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload, Some(Workload::ServeMix));
        assert_eq!((o.seed, o.seconds, o.trace), (42, 20.0, true));
        assert!(parse_options(&args(&["--workload", "nope"])).is_err());
        assert!(parse_options(&args(&["--trace", "2"])).is_err());
        assert!(parse_options(&args(&["--seconds", "0"])).is_err());
        assert!(parse_options(&args(&["--bogus"])).is_err());
        assert!(parse_options(&args(&["--aa", "--seed", "7"])).unwrap().aa);
        assert!(parse_options(&args(&["--aa", "--trace", "1"])).is_err());
        assert!(parse_options(&args(&["--trace", "1", "--aa"])).is_err());
        let defaults = parse_options(&[]).unwrap();
        assert_eq!(defaults.seed, DEFAULT_SEED);
        assert_eq!(defaults.workload, None);
    }

    #[test]
    fn overrides_that_change_the_workloads_are_refused() {
        let vars = [
            "PATH",
            "UNSNAP_SOLVER",
            "RAYON_NUM_THREADS",
            "HOME",
            "UNSNAPX",
        ];
        assert_eq!(
            polluting_variables(vars.iter().map(|s| s.to_string())),
            vec!["RAYON_NUM_THREADS".to_string(), "UNSNAP_SOLVER".to_string()]
        );
        assert!(polluting_variables(["PATH".to_string()].into_iter()).is_empty());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: Values = vec![("setup_s", "s", 0.25), ("op_s", "s", 1.5)];
        let doc = reader::parse(&result_line(7, 0, &values)).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(7));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn result_lines_are_read_back_by_name() {
        let stdout = "# environment {}\nserve-mix: miss_s   78.1 ms [q1 ...]\n\
                      serve-mix: result miss_s = 0.078125 s\n\
                      serve-mix: result req_per_s = 49.5 1/s\n{\"correct\":true}\n";
        assert_eq!(
            parse_results(stdout),
            vec![
                ("miss_s".to_string(), 0.078125),
                ("req_per_s".to_string(), 49.5)
            ]
        );
        assert!(parse_results("no results here\n").is_empty());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
    }
}
