//! Acceptance tests for the PR 6 observability subsystem as seen from
//! the umbrella crate: the JSONL run log round-trips through the
//! `unsnap-obs` reader, the metrics snapshot attached to every outcome
//! serialises to parseable JSON with the deterministic/wall-clock split
//! intact.

mod support;

use unsnap::obs::jsonl;
use unsnap::obs::reader;
use unsnap::prelude::*;

/// A scratch file under the target directory (kept inside the repo so
/// sandboxed runs need no extra permissions), removed at the end of the
/// test that owns it.
fn scratch_path(name: &str) -> std::path::PathBuf {
    let mut p = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(name);
    p
}

#[test]
fn jsonl_run_log_round_trips_through_the_reader() {
    let path = scratch_path("run_log_roundtrip.jsonl");
    let problem = Problem::tiny().with_strategy(StrategyKind::DsaSourceIteration);
    let mut solver = TransportSolver::new(&problem).unwrap();

    let mut file = JsonlObserver::create(&path).unwrap();
    let mut log = EventLog::default();
    let outcome = {
        let mut tee = TeeObserver::new(&mut file, &mut log);
        solver.run_observed(&mut tee).unwrap()
    };
    let written = file.events_written();
    file.finish().unwrap();

    let docs = jsonl::read_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(docs.len(), written, "one parsed document per event");

    // Every line is an object with an `event` discriminator, and the
    // file carries exactly the events the log recorded.
    let mut sweeps = 0usize;
    let mut outers = 0usize;
    let mut accel_residuals = 0usize;
    for doc in &docs {
        let event = doc
            .get("event")
            .and_then(|v| v.as_str())
            .expect("every line names its event");
        match event {
            "sweep" => {
                sweeps += 1;
                assert!(doc.get("cells").and_then(|v| v.as_u64()).unwrap() > 0);
            }
            "outer_start" => outers += 1,
            "accel_residual" => accel_residuals += 1,
            _ => {}
        }
    }
    assert_eq!(docs.len(), log.events.len());
    assert_eq!(sweeps, support::sweeps(&log, Lane::Driver).len());
    assert_eq!(outers, support::outer_starts(&log, Lane::Driver));
    assert_eq!(
        accel_residuals,
        support::accel_residuals(&log, Lane::Driver).len()
    );
    assert_eq!(sweeps, outcome.sweep_count);
    assert!(outcome.converged || outcome.sweep_count > 0);
}

#[test]
fn outcome_metrics_json_parses_with_the_split_intact() {
    let problem = Problem::tiny().with_strategy(StrategyKind::SweepGmres);
    let mut solver = TransportSolver::new(&problem).unwrap();
    let outcome = solver.run().unwrap();

    let doc = reader::parse(&outcome.metrics.to_json()).unwrap();
    let det = doc.get("deterministic").expect("deterministic half");
    let wall = doc.get("wallclock").expect("wall-clock half");

    assert_eq!(
        det.get("sweeps").and_then(|v| v.as_usize()).unwrap(),
        outcome.sweep_count
    );
    assert_eq!(
        det.get("cells_swept").and_then(|v| v.as_u64()).unwrap(),
        outcome.metrics.cells_swept
    );
    assert!(
        det.get("phase_starts")
            .and_then(|v| v.get("krylov"))
            .and_then(|v| v.as_usize())
            .unwrap()
            > 0,
        "GMRES run must record Krylov spans"
    );
    assert!(
        wall.get("sweep_latency_seconds")
            .and_then(|v| v.get("count"))
            .and_then(|v| v.as_usize())
            .unwrap()
            > 0
    );

    // The full outcome JSON embeds the same metrics object.
    let full = reader::parse(&outcome.to_json()).unwrap();
    let embedded = full.get("metrics").expect("outcome embeds metrics");
    assert_eq!(
        embedded
            .get("deterministic")
            .and_then(|v| v.get("sweeps"))
            .and_then(|v| v.as_usize()),
        Some(outcome.sweep_count)
    );
}

#[test]
fn a_sweep_reports_its_buckets_once_not_one_event_each() {
    // The shape of one `serve-mix` request of the repo benchmark,
    // spelled out because `benchmark/` is not a dependency.
    let problem = Problem {
        nx: 5,
        ny: 5,
        nz: 5,
        element_order: 1,
        angles_per_octant: 2,
        num_groups: 4,
        inner_iterations: 6,
        outer_iterations: 1,
        convergence_tolerance: 0.0,
        strategy: StrategyKind::SourceIteration,
        scattering_ratio: Some(0.5),
        num_threads: Some(1),
        ..Problem::tiny()
    };
    let mut log = EventLog::default();
    let outcome = TransportSolver::new(&problem)
        .unwrap()
        .run_observed(&mut log)
        .unwrap();

    // 16 angles × 13 wavefronts × 6 sweeps: the structure still reaches
    // the metrics, through the six `Sweep` events that measured a sweep.
    assert_eq!(outcome.sweep_count, 6);
    assert_eq!(outcome.metrics.sweep_buckets, 1248);
    let per_sweep_tasks = problem.num_cells() as u64 * 4 * 16;
    assert_eq!(outcome.metrics.cells_swept, 6 * per_sweep_tasks);
    let per_sweep: Vec<usize> = log
        .events
        .iter()
        .filter_map(|(_, event)| match event {
            SolveEvent::Sweep { buckets, .. } => Some(*buckets),
            _ => None,
        })
        .collect();
    assert_eq!(per_sweep, vec![208; 6]);

    // What a `/events` client and a `/trace` reader are sent per job.
    assert!(log.events.len() <= 50, "{} events", log.events.len());
    assert!(outcome.trace.len() <= 30, "{} spans", outcome.trace.len());
}
