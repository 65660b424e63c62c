use super::*;

fn parse(args: &[&str]) -> Result<HarnessOptions, String> {
    HarnessOptions::parse(args.iter().map(|s| s.to_string()))
}

#[test]
fn parse_reads_every_flag() {
    let o = parse(&[
        "figure3",
        "table1",
        "--full",
        "--csv",
        "--threads",
        "1,2,4",
        "--max-order",
        "3",
        "--progress",
        "--trace-out",
        "t.json",
        "--out",
        "o.json",
        "--compare",
        "b.json",
    ])
    .unwrap();
    let names: Vec<&str> = o.experiments.iter().map(|e| e.name).collect();
    assert_eq!(names, ["figure3", "table1"]);
    assert_eq!((o.size, o.format), (Size::Full, Format::Csv));
    assert_eq!(o.threads, Some(vec![1, 2, 4]));
    assert_eq!(o.widths(&[1]), [1, 2, 4]);
    assert_eq!(o.max_order, Some(3));
    assert!(o.progress);
    assert_eq!(o.trace_out.as_deref(), Some("t.json"));
    assert_eq!(o.out.as_deref(), Some("o.json"));
    assert_eq!(o.compare.as_deref(), Some("b.json"));

    let d = parse(&[]).unwrap();
    assert!(d.experiments.is_empty());
    assert_eq!((d.size, d.format), (Size::Scaled, Format::Text));
    assert_eq!(
        d.widths(&[1, 2]),
        [1, 2],
        "the default is the experiment's, not the machine's"
    );
    assert_eq!(parse(&["--quick", "--json"]).unwrap().size, Size::Quick);
}

#[test]
fn parse_refuses_what_it_does_not_understand() {
    for (args, needle) in [
        (&["figure5"][..], "unknown experiment `figure5`"),
        (&["figure3", "--thread", "1,2"], "unknown flag `--thread`"),
        (&["--list"], "unknown flag `--list`"),
        (&["--threads"], "--threads needs a value"),
        (&["--threads", "--csv"], "--threads needs a value"),
        (&["--threads", "1,x"], "--threads takes"),
        (&["--threads", "0"], "--threads takes"),
        (&["--threads", "1,,2"], "--threads takes"),
        (&["--max-order"], "--max-order needs a value"),
        (&["--max-order", "four"], "--max-order takes"),
        (&["--max-order", "0"], "--max-order takes"),
        (&["--out"], "--out needs a value"),
        (&["--compare"], "--compare needs a value"),
        (&["--trace-out", ""], "--trace-out needs a value"),
        (&["--quick", "--full"], "--quick and --full"),
        (&["--csv", "--json"], "--csv and --json"),
    ] {
        let err = parse(args).expect_err(&format!("{args:?} must be refused"));
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}

/// Run `names` at the smallest size and one width.
fn smoke(names: &[&str]) -> Vec<(&'static Experiment, Report)> {
    let opts = parse(&["--quick", "--threads", "1"]).unwrap();
    names
        .iter()
        .map(|name| {
            let e = experiment(name).unwrap();
            (e, (e.run)(&opts))
        })
        .collect()
}

#[test]
fn every_experiment_renders_through_the_shared_renderer() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let reports = smoke(&names);
    let mut rows_total = 0;
    for (e, report) in &reports {
        assert!(!report.rows.is_empty(), "{}: no rows", e.name);
        for row in &report.rows {
            assert_eq!(row.cells.len(), report.columns.len(), "{}", e.name);
            // Table I solves nothing; everything else ran at the one
            // width asked for and says so.
            assert_eq!(row.threads, usize::from(e.name != "table1"), "{}", e.name);
            assert_eq!(row.metrics.sweeps > 0, e.name != "table1", "{}", e.name);
        }
        rows_total += report.rows.len();

        let text = report.text(e);
        assert!(text.starts_with(e.paper) && text.contains(report.note));
        assert_eq!(text.lines().count(), report.rows.len() + 6, "{text}");
        let csv = report.csv(e);
        assert_eq!(csv.lines().count(), report.rows.len() + 1);
        let header = format!(
            "experiment,case,strategy,threads,{}",
            report.columns.join(",")
        );
        assert_eq!(csv.lines().next(), Some(header.as_str()));
        let fields = report.columns.len() + 4;
        assert!(csv.lines().all(|l| l.split(',').count() == fields), "{csv}");
    }

    // `--json` prints and `--out` writes this one document.
    let doc = reader::parse(&document(&reports)).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
    assert_eq!(doc.get("experiments").unwrap().as_array().unwrap().len(), 8);
    let records = doc.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len(), rows_total);
    let mut rows = reports
        .iter()
        .flat_map(|(e, r)| r.rows.iter().map(move |row| (*e, r, row)));
    for record in records {
        let (e, report, row) = rows.next().unwrap();
        assert_eq!(record.get("experiment").unwrap().as_str(), Some(e.name));
        assert_eq!(
            record.get("case").unwrap().as_str(),
            Some(row.case.as_str())
        );
        assert_eq!(record.get("threads").unwrap().as_usize(), Some(row.threads));
        assert_eq!(
            record.get("sweeps").unwrap().as_usize(),
            Some(row.metrics.sweeps)
        );
        let sweep_spans = record.get("phases").unwrap().get("sweep").unwrap();
        assert_eq!(
            sweep_spans.get("spans").unwrap().as_usize(),
            Some(row.metrics.sweeps)
        );
        let cells = record.get("cells").unwrap().as_object().unwrap();
        let keys: Vec<&str> = cells.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, report.columns);
        // The paper's unit: present with the latency percentiles when a
        // sweep ran, an explicit null otherwise.
        for key in ["cells_per_sec", "sweep_p50", "sweep_p95", "sweep_p99"] {
            let value = record.get(key).unwrap();
            if row.metrics.sweeps > 0 {
                assert!(value.as_f64().unwrap() > 0.0, "{}: {key}", e.name);
            } else {
                assert!(value.is_null(), "{}: {key}", e.name);
            }
        }
    }

    // A document compares clean against itself, every pair diffed.
    let outcome = compare(&doc, &doc).unwrap();
    assert_eq!(outcome.failures, Vec::<String>::new());
    assert_eq!(outcome.compared, rows_total);
    assert_eq!(outcome.exit_code(), 0);
}

/// A hand-written document for the gate tests.
fn doc(records: &[String]) -> JsonValue {
    let text = format!(
        r#"{{"schema":"{SCHEMA}","records":[{}]}}"#,
        records.join(",")
    );
    reader::parse(&text).unwrap()
}

fn record(experiment: &str, case: &str, sweeps: usize, sweep_seconds: f64) -> String {
    format!(
        r#"{{"experiment":"{experiment}","case":"{case}","strategy":"si","threads":1,
           "sweeps":{sweeps},"cells_swept":1000,"inner_iterations":{sweeps},"halo_exchanges":0,
           "phases":{{"sweep":{{"spans":{sweeps},"seconds":{sweep_seconds}}},
                      "krylov":{{"spans":0,"seconds":0}}}},
           "sweep_p50":{sweep_seconds},"cells_per_sec":{}}}"#,
        1000.0 / sweep_seconds
    )
}

#[test]
fn compare_ignores_wall_clock_and_warns_on_one_sided_experiments() {
    let base = doc(&[record("a", "c=0.9", 10, 0.2), record("gone", "x", 5, 0.1)]);
    let current = doc(&[record("a", "c=0.9", 10, 200.0), record("new", "x", 7, 0.1)]);
    let outcome = compare(&base, &current).unwrap();
    assert_eq!(
        outcome.failures,
        Vec::<String>::new(),
        "1000x slower passes"
    );
    assert_eq!((outcome.compared, outcome.exit_code()), (1, 0));
    assert_eq!(outcome.warnings.len(), 2, "{:?}", outcome.warnings);
    assert!(outcome.warnings.iter().any(|w| w.contains("`gone` absent")));
    assert!(outcome
        .warnings
        .iter()
        .any(|w| w.contains("`new` has no baseline")));
}

#[test]
fn compare_fails_on_counter_and_span_count_drift() {
    let base = doc(&[record("a", "c=0.9", 10, 0.2)]);
    let outcome = compare(&base, &doc(&[record("a", "c=0.9", 11, 0.2)])).unwrap();
    // sweeps, inner_iterations and the sweep-phase span count all track
    // the injected drift.
    assert_eq!(outcome.failures.len(), 3, "{:?}", outcome.failures);
    assert!(outcome
        .failures
        .iter()
        .any(|f| f.contains("a/c=0.9/si/t1: counter `sweeps` drifted: 10 -> 11")));
    assert_eq!(outcome.exit_code(), 1);

    let spans_only =
        record("a", "c=0.9", 10, 0.2).replace(r#""krylov":{"spans":0"#, r#""krylov":{"spans":4"#);
    let outcome = compare(&base, &doc(&[spans_only])).unwrap();
    assert_eq!(
        outcome.failures,
        ["a/c=0.9/si/t1: phase `krylov` span count drifted: 0 -> 4"]
    );
}

#[test]
fn compare_fails_on_a_record_missing_from_a_covered_experiment() {
    let two = doc(&[record("a", "c=0.9", 10, 0.2), record("a", "c=0.99", 5, 0.1)]);
    let one = doc(&[record("a", "c=0.9", 10, 0.2)]);
    let outcome = compare(&two, &one).unwrap();
    assert_eq!(
        outcome.failures,
        ["a/c=0.99/si/t1: record missing from this run"]
    );
    assert_eq!(outcome.exit_code(), 1);
    // The other way round the extra record is new coverage, not drift.
    assert_eq!(compare(&one, &two).unwrap().exit_code(), 0);
}

#[test]
fn compare_refuses_documents_it_cannot_key() {
    let good = doc(&[record("a", "x", 1, 0.1)]);
    let old = reader::parse(r#"{"schema":"unsnap-perf-trajectory/v1","records":[]}"#).unwrap();
    assert!(compare(&old, &good)
        .unwrap_err()
        .contains("base document has schema"));
    let untagged = doc(&[r#"{"experiment":"a","case":"x"}"#.to_string()]);
    assert!(compare(&good, &untagged)
        .unwrap_err()
        .contains("current record lacks its identity tags"));
}

#[test]
fn a_perturbed_counter_in_a_real_document_exits_1() {
    let text = document(&smoke(&["threading"]));
    let base = reader::parse(&text).unwrap();
    let cells_swept = base.get("records").unwrap().as_array().unwrap()[0]
        .get("cells_swept")
        .unwrap()
        .as_u64()
        .unwrap();
    let perturbed = text.replacen(
        &format!("\"cells_swept\":{cells_swept}"),
        &format!("\"cells_swept\":{}", cells_swept + 1),
        1,
    );
    let outcome = compare(&base, &reader::parse(&perturbed).unwrap()).unwrap();
    assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
    assert!(outcome.failures[0].contains("counter `cells_swept` drifted"));
    assert_eq!(outcome.exit_code(), 1);
}

#[test]
fn the_table_printed_without_arguments_lists_every_experiment() {
    let table = experiment_table();
    assert_eq!(table.lines().count(), EXPERIMENTS.len() + 1);
    for e in &EXPERIMENTS {
        assert!(table.contains(e.name) && table.contains(e.paper));
        assert_eq!(experiment(e.name).map(|found| found.name), Some(e.name));
    }
    assert_eq!(run(&parse(&[]).unwrap()), 0);
}
