//! Acceptance tests for the PR 10 hierarchical tracing layer as seen
//! from the umbrella crate: the span tree attached to every outcome is
//! bitwise thread-count-invariant once wall-clock timestamps are
//! stripped (at 1 and at 4 block-Jacobi ranks alike), and the Chrome
//! `trace_event` export re-parses with the `unsnap-obs` reader as a
//! valid, strictly nested, monotonically timestamped profile.

// Under the CI matrix `RAYON_NUM_THREADS` forces every team to one
// width, so cross-width comparisons would compare a width against
// itself; skip with a note in that case (the matrix replays the rest
// of the suite at each width instead).
use unsnap::core::team::forced_width;
use unsnap::obs::reader::{self, JsonValue};
use unsnap::obs::trace::TraceTree;
use unsnap::prelude::*;

/// The trace with its wall-clock half zeroed: after this, `spans`
/// compares bitwise (every `SpanRecord` field), not just structurally.
fn stripped(trace: &TraceTree) -> TraceTree {
    let mut t = trace.clone();
    t.zero_wallclock();
    t
}

fn trace_at(problem: &Problem, threads: usize) -> TraceTree {
    let p = problem.clone().with_threads(threads);
    let mut solver = TransportSolver::new(&p).unwrap();
    solver.run().unwrap().trace
}

#[test]
fn span_tree_is_bitwise_invariant_at_1_2_and_8_threads() {
    if let Some(width) = forced_width() {
        eprintln!("RAYON_NUM_THREADS={width} forces every team width; cross-width check skipped");
        return;
    }
    for strategy in [
        StrategyKind::SourceIteration,
        StrategyKind::DsaSourceIteration,
        StrategyKind::SweepGmres,
    ] {
        let problem = Problem::tiny().with_strategy(strategy);
        let reference = trace_at(&problem, 1);
        // A sweep span is a leaf: the schedule is not replayed into the
        // trace, so nothing hangs below the one span the solver timed.
        let sweeps: Vec<u64> = reference
            .spans
            .iter()
            .filter(|s| s.name == "sweep")
            .map(|s| s.id)
            .collect();
        assert!(!sweeps.is_empty(), "{strategy:?}: sweeps must be traced");
        assert!(
            reference
                .spans
                .iter()
                .all(|s| s.parent.is_none_or(|p| !sweeps.contains(&p))),
            "{strategy:?}: a sweep span must have no children"
        );
        for threads in [2usize, 8] {
            let run = trace_at(&problem, threads);
            // Structural equality first (the cheap, intended comparison)…
            assert_eq!(
                reference, run,
                "span structure diverged for {strategy:?} at {threads} threads vs 1"
            );
            // …then the bitwise form of the claim: after stripping the
            // wall-clock half, every remaining bit of every record is
            // identical.
            assert_eq!(
                stripped(&reference).spans,
                stripped(&run).spans,
                "stripped span records diverged for {strategy:?} at {threads} threads vs 1"
            );
        }
    }
}

fn jacobi_trace(ranks: &Decomposition2D, threads: usize) -> TraceTree {
    let problem = {
        let mut p = Problem::quickstart();
        p.inner_iterations = 8;
        p.with_threads(threads)
    };
    let mut solver = BlockJacobiSolver::new(&problem, *ranks).unwrap();
    solver.run().unwrap().trace
}

#[test]
fn rank_decomposed_span_trees_are_bitwise_invariant_across_widths() {
    if let Some(width) = forced_width() {
        eprintln!("RAYON_NUM_THREADS={width} forces every team width; cross-width check skipped");
        return;
    }
    // At 1 and at 4 block-Jacobi ranks the replayed, rank-ordered event
    // stream must build the identical tree at every pool width.  The
    // two decompositions themselves legitimately differ (4 ranks means
    // 4 rank lanes plus halo-exchange spans), which is asserted below.
    for decomp in [Decomposition2D::new(1, 1), Decomposition2D::new(2, 2)] {
        let reference = jacobi_trace(&decomp, 1);
        for threads in [2usize, 8] {
            let run = jacobi_trace(&decomp, threads);
            assert_eq!(
                reference,
                run,
                "span structure diverged for {} rank(s) at {threads} threads vs 1",
                decomp.num_ranks()
            );
            assert_eq!(
                stripped(&reference).spans,
                stripped(&run).spans,
                "stripped span records diverged for {} rank(s) at {threads} threads vs 1",
                decomp.num_ranks()
            );
        }
    }

    let four = jacobi_trace(&Decomposition2D::new(2, 2), 1);
    let lanes: std::collections::BTreeSet<usize> = four.spans.iter().map(|s| s.lane).collect();
    assert_eq!(
        lanes.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4],
        "4 ranks trace to the driver lane plus one lane per rank"
    );
    assert_eq!(
        four.spans
            .iter()
            .filter(|s| s.name == "rank_solve")
            .map(|s| s.lane)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        4,
        "every rank opens rank_solve spans on its own lane"
    );
    assert!(
        four.count_named("halo_exchange") > 0,
        "a 4-rank solve must trace halo exchanges"
    );
}

/// The `"ph":"X"` complete events of a Chrome export, in emission
/// order, keyed by span id for the containment check.
fn complete_events(doc: &JsonValue) -> Vec<JsonValue> {
    doc.get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .cloned()
        .collect()
}

#[test]
fn chrome_export_reparses_as_a_strictly_nested_monotone_profile() {
    let problem = Problem::tiny().with_strategy(StrategyKind::DsaSourceIteration);
    let mut solver = TransportSolver::new(&problem).unwrap();
    let trace = solver.run().unwrap().trace;

    let doc = reader::parse(&trace.to_chrome_json()).expect("Chrome export is valid JSON");
    assert_eq!(
        doc.get("droppedSpans").and_then(|v| v.as_u64()),
        Some(trace.dropped)
    );
    let events = complete_events(&doc);
    assert_eq!(events.len(), trace.len(), "one complete event per span");

    // Timestamps are strictly increasing in emission (open) order.
    let mut last_ts = 0u64;
    let mut by_id: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
    for event in &events {
        let ts = event.get("ts").and_then(|v| v.as_u64()).expect("ts");
        let dur = event.get("dur").and_then(|v| v.as_u64()).expect("dur");
        assert!(ts > last_ts, "timestamps must be strictly increasing");
        last_ts = ts;
        let id = event
            .get("args")
            .and_then(|a| a.get("id"))
            .and_then(|v| v.as_u64())
            .expect("span id in args");
        by_id.insert(id, (ts, ts + dur));
    }

    // Strict nesting: every child interval sits strictly inside its
    // parent's (the tracer's tick discipline guarantees strictness).
    let mut nested = 0usize;
    for event in &events {
        let args = event.get("args").expect("args");
        let id = args.get("id").and_then(|v| v.as_u64()).unwrap();
        let Some(parent) = args.get("parent").and_then(|v| v.as_u64()) else {
            continue;
        };
        let (child_start, child_end) = by_id[&id];
        let (parent_start, parent_end) = by_id[&parent];
        assert!(
            parent_start < child_start && child_end < parent_end,
            "span {id} [{child_start},{child_end}] must nest strictly inside \
             its parent {parent} [{parent_start},{parent_end}]"
        );
        nested += 1;
    }
    assert!(nested > 0, "a real solve trace has nested spans");

    // Lane metadata labels the driver lane.
    let metadata_names: Vec<String> = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
                .map(String::from)
        })
        .collect();
    assert_eq!(metadata_names, vec!["driver".to_string()]);

    // The flamegraph exporter agrees on the stack roots.
    let collapsed = trace.to_collapsed();
    assert!(
        collapsed
            .lines()
            .all(|l| l.starts_with("driver;") || l == "driver" || l.starts_with("driver ")),
        "single-domain stacks all root at the driver lane"
    );
    assert!(
        collapsed.lines().any(|l| l.contains(";solve;")),
        "stacks pass through the solve root"
    );
}
