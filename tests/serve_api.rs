//! End-to-end tests of the `unsnap-serve` HTTP surface: real sockets,
//! real worker threads, real solves.
//!
//! The acceptance properties pinned here:
//!
//! * two identical `POST /v1/solve` requests produce **bit-for-bit
//!   identical** outcome JSON, with the second answered from the
//!   content-addressed cache (hit counter moves, the solver does not);
//! * two *different* problems submitted concurrently both complete;
//! * `DELETE` on a running job cancels it at an outer-iteration
//!   boundary and the worker survives to take the next job;
//! * the event stream replays a finished job's history as JSONL and
//!   terminates with the `job_done` line;
//! * protocol errors (bad body, unknown path, wrong method, unknown
//!   job) map to 400/404/405 with JSON bodies naming the field;
//! * `GET /v1/metrics?format=prometheus` exposes the registry as text
//!   exposition whose counter values round-trip against the JSON view,
//!   even while jobs are in flight;
//! * a finished job's Chrome trace downloads from
//!   `GET /v1/jobs/{id}/trace`; cache-served jobs answer 409 and
//!   unknown jobs 404.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use unsnap_obs::reader::{self, JsonValue};
use unsnap_serve::{http, ServeConfig, Server};

fn start(workers: usize) -> Server {
    Server::start(&ServeConfig {
        port: 0,
        workers,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn post_solve(addr: SocketAddr, body: &str) -> JsonValue {
    let response = http::request(addr, "POST", "/v1/solve", Some(body)).expect("POST");
    assert_eq!(response.status, 202, "{}", response.body);
    reader::parse(&response.body).expect("receipt JSON")
}

fn job_id(receipt: &JsonValue) -> u64 {
    receipt
        .get("job_id")
        .and_then(|v| v.as_u64())
        .expect("job_id")
}

fn wait_terminal(addr: SocketAddr, id: u64) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let response =
            http::request(addr, "GET", &format!("/v1/jobs/{id}"), None).expect("GET job");
        assert_eq!(response.status, 200);
        let doc = reader::parse(&response.body).expect("status JSON");
        let state = doc.get("status").and_then(|v| v.as_str()).expect("status");
        if matches!(state, "done" | "failed" | "cancelled") {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in '{state}'");
        std::thread::sleep(Duration::from_millis(15));
    }
}

fn counter(addr: SocketAddr, name: &str) -> u64 {
    let response = http::request(addr, "GET", "/v1/metrics", None).expect("GET metrics");
    assert_eq!(response.status, 200);
    reader::parse(&response.body)
        .expect("metrics JSON")
        .get("deterministic")
        .and_then(|d| d.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

/// A problem slow enough to still be running when we cancel it: many
/// unconverging outer iterations on the tiny grid.  Keep the *inner*
/// count small — cancellation is only observed at outer-iteration
/// boundaries, so the worst-case cancel latency is one outer's worth
/// of inner sweeps and must stay well under the poll deadline even in
/// a debug build on a loaded machine.
const SLOW_BODY: &str = r#"{"problem": {"iteration": {"inner_iterations": 50, "outer_iterations": 5000, "convergence_tolerance": 0}}}"#;

#[test]
fn identical_posts_replay_bit_for_bit_from_the_cache() {
    let server = start(1);
    let addr = server.addr();

    let first = post_solve(addr, r#"{"problem": "tiny"}"#);
    assert_eq!(first.get("cache").and_then(|v| v.as_str()), Some("miss"));
    let first_status = wait_terminal(addr, job_id(&first));
    assert_eq!(
        first_status.get("status").and_then(|v| v.as_str()),
        Some("done")
    );
    let sweeps_after_first = counter(addr, "serve_sweeps_total");
    assert!(sweeps_after_first > 0, "the first solve swept");

    let second = post_solve(addr, r#"{"problem": "tiny"}"#);
    assert_eq!(second.get("cache").and_then(|v| v.as_str()), Some("hit"));
    assert_eq!(
        first.get("problem_hash").and_then(|v| v.as_str()),
        second.get("problem_hash").and_then(|v| v.as_str()),
        "same problem, same content address"
    );
    let second_status = wait_terminal(addr, job_id(&second));
    assert_eq!(
        second_status.get("cached").and_then(|v| v.as_bool()),
        Some(true)
    );

    // Bit-for-bit: compare the raw outcome text on the wire by cutting
    // the shared prefix off both bodies up to the outcome member.
    let raw = |doc: &JsonValue| -> String {
        // Re-serialising a parse would hide byte differences, so assert
        // on the parsed trees AND the wall-clock fields, which only a
        // genuine replay reproduces exactly.
        let outcome = doc.get("outcome").expect("outcome").clone();
        format!("{outcome:?}")
    };
    assert_eq!(
        raw(&first_status),
        raw(&second_status),
        "cached replay must be the identical outcome document"
    );
    assert_eq!(
        first_status
            .get("outcome")
            .and_then(|o| o.get("assemble_solve_seconds"))
            .and_then(|v| v.as_f64()),
        second_status
            .get("outcome")
            .and_then(|o| o.get("assemble_solve_seconds"))
            .and_then(|v| v.as_f64()),
        "even wall-clock fields replay verbatim from the cache"
    );

    assert_eq!(counter(addr, "serve_cache_hits"), 1);
    assert_eq!(
        counter(addr, "serve_sweeps_total"),
        sweeps_after_first,
        "a cache hit must not run the solver"
    );
    server.shutdown();
}

#[test]
fn concurrent_distinct_problems_both_complete() {
    let server = start(2);
    let addr = server.addr();

    let a = post_solve(addr, r#"{"problem": "tiny"}"#);
    let b = post_solve(addr, r#"{"problem": {"grid": {"nx": 4}}}"#);
    assert_ne!(
        a.get("problem_hash").and_then(|v| v.as_str()),
        b.get("problem_hash").and_then(|v| v.as_str()),
        "different problems, different content addresses"
    );
    for receipt in [&a, &b] {
        let status = wait_terminal(addr, job_id(receipt));
        assert_eq!(status.get("status").and_then(|v| v.as_str()), Some("done"));
        assert!(status.get("outcome").is_some_and(|o| !o.is_null()));
    }
    assert_eq!(counter(addr, "serve_jobs_completed"), 2);
    server.shutdown();
}

#[test]
fn delete_cancels_a_running_job_and_the_worker_survives() {
    let server = start(1);
    let addr = server.addr();

    let receipt = post_solve(addr, SLOW_BODY);
    let id = job_id(&receipt);
    // Wait for the single worker to pick it up.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let response =
            http::request(addr, "GET", &format!("/v1/jobs/{id}"), None).expect("GET job");
        let doc = reader::parse(&response.body).unwrap();
        if doc.get("status").and_then(|v| v.as_str()) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(10));
    }

    let response = http::request(addr, "DELETE", &format!("/v1/jobs/{id}"), None).expect("DELETE");
    assert_eq!(response.status, 200);
    let doc = reader::parse(&response.body).unwrap();
    assert_eq!(
        doc.get("disposition").and_then(|v| v.as_str()),
        Some("cancel-requested"),
        "a running job is cancelled cooperatively, not killed"
    );

    let status = wait_terminal(addr, id);
    assert_eq!(
        status.get("status").and_then(|v| v.as_str()),
        Some("cancelled")
    );
    assert!(
        status
            .get("error")
            .and_then(|v| v.as_str())
            .is_some_and(|e| e.contains("outer-iteration boundary")),
        "the error names the cooperative boundary"
    );

    // The same (sole) worker must take and finish the next job.
    let next = post_solve(addr, r#"{"problem": "tiny"}"#);
    let next_status = wait_terminal(addr, job_id(&next));
    assert_eq!(
        next_status.get("status").and_then(|v| v.as_str()),
        Some("done")
    );

    // Cancelling a terminal job is a no-op with its own disposition.
    let again =
        http::request(addr, "DELETE", &format!("/v1/jobs/{id}"), None).expect("DELETE again");
    let doc = reader::parse(&again.body).unwrap();
    assert_eq!(
        doc.get("disposition").and_then(|v| v.as_str()),
        Some("already-terminal")
    );
    server.shutdown();
}

#[test]
fn event_stream_replays_history_and_terminates() {
    let server = start(1);
    let addr = server.addr();

    let receipt = post_solve(addr, r#"{"problem": "tiny"}"#);
    let id = job_id(&receipt);
    wait_terminal(addr, id);

    // Attach after the fact: the stream replays everything, then ends.
    let response =
        http::request(addr, "GET", &format!("/v1/jobs/{id}/events"), None).expect("GET events");
    assert_eq!(response.status, 200);
    let lines: Vec<&str> = response.body.lines().collect();
    assert!(lines.len() >= 3, "expected a real event history");
    for line in &lines {
        let doc = reader::parse(line).expect("every line is a JSON event");
        assert!(doc.get("event").is_some(), "events are tagged: {line}");
    }
    let events: Vec<String> = lines
        .iter()
        .filter_map(|l| reader::parse(l).ok())
        .filter_map(|d| d.get("event").and_then(|v| v.as_str()).map(String::from))
        .collect();
    for expected in ["outer_start", "inner_iteration", "sweep"] {
        assert!(
            events.iter().any(|e| e == expected),
            "history must contain '{expected}', got {events:?}"
        );
    }
    let last = reader::parse(lines.last().unwrap()).unwrap();
    assert_eq!(last.get("event").and_then(|v| v.as_str()), Some("job_done"));
    assert_eq!(last.get("status").and_then(|v| v.as_str()), Some("done"));
    server.shutdown();
}

#[test]
fn protocol_errors_map_to_typed_statuses() {
    let server = start(1);
    let addr = server.addr();

    // Unparsable problem: 400 naming the field.
    let response =
        http::request(addr, "POST", "/v1/solve", Some(r#"{"problem": "no-such"}"#)).expect("POST");
    assert_eq!(response.status, 400);
    let doc = reader::parse(&response.body).unwrap();
    assert_eq!(doc.get("field").and_then(|v| v.as_str()), Some("problem"));

    // Invalid configuration: `Problem::validate`, still 400.
    let response = http::request(
        addr,
        "POST",
        "/v1/solve",
        Some(r#"{"problem": {"grid": {"nx": 0}}}"#),
    )
    .expect("POST");
    assert_eq!(response.status, 400);
    let doc = reader::parse(&response.body).unwrap();
    assert_eq!(doc.get("field").and_then(|v| v.as_str()), Some("nx"));

    // Unknown wire field: rejected, not silently ignored.
    let response = http::request(
        addr,
        "POST",
        "/v1/solve",
        Some(r#"{"problem": {"grid": {"nx": 3, "bogus": 1}}}"#),
    )
    .expect("POST");
    assert_eq!(response.status, 400);

    // Unknown job and unknown path: 404.
    let response = http::request(addr, "GET", "/v1/jobs/999", None).expect("GET");
    assert_eq!(response.status, 404);
    let response = http::request(addr, "GET", "/v1/nothing", None).expect("GET");
    assert_eq!(response.status, 404);

    // Known path, wrong method: 405.
    let response = http::request(addr, "DELETE", "/v1/solve", None).expect("DELETE");
    assert_eq!(response.status, 405);
    let response = http::request(addr, "POST", "/v1/jobs/1", None).expect("POST");
    assert_eq!(response.status, 405);

    // None of that touched the solver.
    assert_eq!(counter(addr, "serve_jobs_submitted"), 0);
    server.shutdown();
}

/// Parse one Prometheus sample line (`name{labels} value` or
/// `name value`) into its metric name (labels included) and value.
fn prometheus_sample(line: &str) -> (String, f64) {
    let (name, value) = line.rsplit_once(' ').expect("sample line");
    (
        name.to_string(),
        value
            .parse()
            .unwrap_or_else(|_| panic!("bad sample: {line}")),
    )
}

#[test]
fn prometheus_exposition_round_trips_under_concurrent_jobs() {
    let server = start(2);
    let addr = server.addr();

    // Keep one worker busy so the scrape genuinely races an in-flight
    // job, and complete a second job so the latency histograms and the
    // completion counters have samples.
    let slow = post_solve(addr, SLOW_BODY);
    let done = post_solve(addr, r#"{"problem": "tiny"}"#);
    wait_terminal(addr, job_id(&done));

    let response =
        http::request(addr, "GET", "/v1/metrics?format=prometheus", None).expect("GET metrics");
    assert_eq!(response.status, 200);
    let text = response.body;

    // Well-formed exposition: every line is a comment or a parseable
    // sample, and the named families are present with TYPE headers.
    let mut samples = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = prometheus_sample(line);
        samples.insert(name, value);
    }
    for family in [
        "serve_queue_wait_seconds",
        "serve_time_to_first_event_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} histogram")),
            "exposition must type {family} as a histogram"
        );
        let count = samples
            .iter()
            .find(|(name, _)| name.starts_with(&format!("{family}_count")))
            .map(|(_, &v)| v)
            .unwrap_or_else(|| panic!("missing {family}_count"));
        assert!(count >= 1.0, "{family} has at least the finished job");
        let inf_bucket = samples
            .iter()
            .find(|(name, _)| {
                name.starts_with(&format!("{family}_bucket")) && name.contains("+Inf")
            })
            .map(|(_, &v)| v)
            .unwrap_or_else(|| panic!("missing {family} +Inf bucket"));
        assert_eq!(
            inf_bucket, count,
            "+Inf bucket is cumulative over all samples"
        );
    }

    // Round-trip: the counter samples agree with the JSON exposition of
    // the same registry, scraped while the slow job is still in flight.
    for name in [
        "serve_jobs_submitted",
        "serve_jobs_completed",
        "serve_sweeps_total",
    ] {
        let json_value = counter(addr, name) as f64;
        let text_value = samples
            .iter()
            .find(|(sample, _)| sample.starts_with(name))
            .map(|(_, &v)| v)
            .unwrap_or_else(|| panic!("missing counter {name}"));
        assert_eq!(
            text_value, json_value,
            "counter {name} disagrees between the two expositions"
        );
    }
    // An unknown format falls back to the JSON exposition.
    let fallback =
        http::request(addr, "GET", "/v1/metrics?format=yaml", None).expect("GET metrics");
    assert_eq!(fallback.status, 200);
    assert!(reader::parse(&fallback.body).is_ok(), "fallback is JSON");

    // Clean up the in-flight job so shutdown is prompt.
    http::request(addr, "DELETE", &format!("/v1/jobs/{}", job_id(&slow)), None).expect("DELETE");
    wait_terminal(addr, job_id(&slow));
    server.shutdown();
}

#[test]
fn finished_jobs_serve_their_chrome_trace_and_cache_hits_answer_409() {
    let server = start(1);
    let addr = server.addr();

    let first = post_solve(addr, r#"{"problem": "tiny"}"#);
    wait_terminal(addr, job_id(&first));
    let response = http::request(
        addr,
        "GET",
        &format!("/v1/jobs/{}/trace", job_id(&first)),
        None,
    )
    .expect("GET trace");
    assert_eq!(response.status, 200);
    let doc = reader::parse(&response.body).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("Chrome trace_event document");
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("name").and_then(|n| n.as_str()) == Some("solve")),
        "the trace contains the solve root span"
    );

    // The identical problem replays from the cache, which stores the
    // outcome but not a trace: the route answers 409, not a stale copy.
    let second = post_solve(addr, r#"{"problem": "tiny"}"#);
    assert_eq!(second.get("cache").and_then(|v| v.as_str()), Some("hit"));
    wait_terminal(addr, job_id(&second));
    let cached = http::request(
        addr,
        "GET",
        &format!("/v1/jobs/{}/trace", job_id(&second)),
        None,
    )
    .expect("GET trace");
    assert_eq!(cached.status, 409);
    let doc = reader::parse(&cached.body).expect("error JSON");
    assert!(
        doc.get("error")
            .and_then(|v| v.as_str())
            .is_some_and(|e| e.contains("cache")),
        "the 409 names the cache as the reason"
    );

    // Unknown job: 404, same as the other job routes.
    let missing = http::request(addr, "GET", "/v1/jobs/999/trace", None).expect("GET trace");
    assert_eq!(missing.status, 404);
    server.shutdown();
}
