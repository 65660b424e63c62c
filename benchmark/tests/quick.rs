//! The binary end to end in `--quick` mode: every workload, untraced and
//! traced, must exit 0 and end in a result line that carries exactly the
//! metrics `BENCHMARK.json` lists.  Run with `--release` (about a minute);
//! a debug build takes several times as long.

use std::path::Path;
use std::process::{Command, Output};

use unsnap_obs::reader::{self, JsonValue};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .env_remove("RAYON_NUM_THREADS")
        .output()
        .expect("the benchmark binary starts")
}

fn spec() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    reader::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// The `(name, unit)` pairs of one list of `BENCHMARK.json`.
fn listed(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    let text = |entry: &JsonValue, key: &str| entry.get(key).unwrap().as_str().unwrap().to_string();
    spec.get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|entry| (text(entry, "name"), text(entry, "unit")))
        .collect()
}

fn listed_names(spec: &JsonValue) -> Vec<String> {
    spec.get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_runs_quick_and_prints_the_contract_result_line() {
    let spec = spec();
    let workloads = listed_names(&spec);
    assert_eq!(workloads.len(), 5);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = listed(&spec, key);
        for workload in &workloads {
            let what = format!("{workload} --trace {trace}");
            let output = benchmark(&[
                "--quick",
                "--workload",
                workload,
                "--seed",
                "3",
                "--trace",
                trace,
                "--out",
                env!("CARGO_TARGET_TMPDIR"),
            ]);
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{what}: {}\n{stdout}\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            let line = reader::parse(stdout.lines().last().unwrap()).unwrap();
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(line.get("correct").unwrap().as_bool(), Some(true), "{what}");
            assert_eq!(line.get("failed").unwrap().as_u64(), Some(0), "{what}");
            assert!(line.get("attempted").unwrap().as_u64().unwrap() >= 1);
            let metrics = line.get("metrics").unwrap().as_object().unwrap();
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, entry)| {
                    let value = entry.get("value").unwrap().as_f64().unwrap();
                    assert!(value.is_finite(), "{what}: {name} = {value}");
                    if trace == "0" {
                        assert!(value > 0.0, "{what}: {name} = {value}");
                    }
                    let unit = entry.get("unit").unwrap().as_str().unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, expected, "{what}");
        }
    }
}

#[test]
fn modes_that_cannot_measure_exit_with_a_usage_error() {
    // The traced pass has no bounds: A/A refuses it instead of panicking.
    let output = benchmark(&["--aa", "--trace", "1"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--aa"));
    // An override that would silently change the workloads.
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--quick", "--workload", "converge-dsa"])
        .env("UNSNAP_SOLVER", "lu")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("UNSNAP_SOLVER"));
    assert!(output.stdout.is_empty(), "no result line");
    assert!(benchmark(&["--list"]).status.success());
}
