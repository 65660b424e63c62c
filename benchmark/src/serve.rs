//! `serve-mix`: an in-process `Server`, two closed-loop clients over
//! real HTTP.
//!
//! Closed loop, because a caller of this service waits for its reply
//! before it sends the next problem; with 2 clients on 2 workers the
//! queue stays empty and a miss costs about set-up + solve + render.
//!
//! * Set-up: `Server::start` → one cold request fully served, repeated
//!   on throwaway servers for a median.
//! * Phase A: the clients share the plan's distinct problems; whoever is
//!   free takes the next one, submits it (a miss) and at once resubmits
//!   it (a hit) — exactly half misses.  Sharing one list keeps global
//!   submission order equal to plan order, so the last [`HOT_SET`]
//!   problems are the most recently cached whatever the thread timing.
//! * Phase B: hit-only replay of that hot set.
//!
//! Completion is read from `GET /v1/jobs/{id}/events` (the stream ends
//! with the job), never polled.
//!
//! Every client runs the host-speed probe (`probe.rs`) between its
//! requests — after each miss/hit pair of phase A and after every
//! [`HIT_BLOCK`] hits of phase B — and each timing is reported at the
//! probe's reference speed.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use unsnap_obs::reader::{self, JsonValue};
use unsnap_serve::{http, ServeConfig, Server};

use crate::probe::{Pace, Timed};
use crate::spans::Spans;
use crate::workloads::{PlannedRequest, ServePlan, HOT_SET};

/// Client threads (and server workers): the container has 2 CPUs.
pub const CLIENTS: usize = 2;

/// Completions per throughput window of phase A.
pub const RATE_WINDOW: usize = 32;

/// Phase-B hits a client serves between two probes.
const HIT_BLOCK: usize = 16;

/// The share of a run after which phase A hands out no more problems
/// (phase B is planned to take about an eighth of the run).
const PHASE_A_SHARE: f64 = 0.85;

/// Requests per second over consecutive windows of [`RATE_WINDOW`]
/// completions, the whole phase as one window when it is shorter.  In a
/// closed loop the rate is clients over mean latency; the latencies are
/// the paced ones, so the rate is at the probe's reference speed too and
/// does not count the clients' probe time.
fn window_rates(mut done: Vec<(Instant, f64)>) -> Vec<f64> {
    done.sort_by_key(|a| a.0);
    let rate = |window: &[(Instant, f64)]| {
        (CLIENTS * window.len()) as f64 / window.iter().map(|(_, s)| s).sum::<f64>()
    };
    let mut rates: Vec<f64> = done.chunks_exact(RATE_WINDOW).map(rate).collect();
    if rates.is_empty() && !done.is_empty() {
        rates.push(rate(&done));
    }
    rates
}

/// How much work one run plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Distinct problems of phase A.
    pub distinct: usize,
    /// Replays of the hot set in phase B.
    pub hot_rounds: usize,
    /// Timed set-ups (throwaway servers, plus the one that is kept).
    pub setups: usize,
}

impl Sizes {
    /// The plan for a run of `seconds`.  The counts are fixed per run
    /// length, not cut off by a clock: the server keeps every finished
    /// job (about half a MiB per distinct problem), so `peak_rss_mb` is
    /// only comparable between runs that served the same requests.  Sized
    /// on the 2-CPU container at the parent commit for the slower of the
    /// host's two speeds (≈ 14 distinct problems/s in phase A, ≈ 1 300
    /// hits/s in phase B, the clients' probes included; 23 and 1 800 at
    /// the faster), so that the whole plan is served within `seconds` at
    /// either.
    pub fn for_seconds(seconds: f64) -> Self {
        Self {
            distinct: ((seconds * 10.0) as usize).max(HOT_SET),
            hot_rounds: ((seconds * 6.0) as usize).max(1),
            setups: 15,
        }
    }

    /// `--quick`: the same code paths on the smallest plan.
    pub fn quick() -> Self {
        Self {
            distinct: HOT_SET,
            hot_rounds: 1,
            setups: 2,
        }
    }

    /// The fixed plan of the traced pass.
    pub fn traced() -> Self {
        Self {
            distinct: 2 * HOT_SET,
            hot_rounds: 4,
            setups: 3,
        }
    }
}

/// One completed request as a client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// POST → last event → outcome fetched.
    pub total_s: f64,
    /// The POST alone.
    pub post_s: f64,
    /// The event stream, open to close.
    pub events_s: f64,
    /// The outcome fetch alone.
    pub fetch_s: f64,
    /// `total_s` at the probe's reference speed; set by the client loop
    /// once the probe after the request has run.
    pub paced_s: f64,
    /// Whether the receipt said `cache: hit`.
    pub hit: bool,
    /// The `outcome` member of the job document, verbatim.
    pub outcome: String,
}

/// The verbatim `outcome` member of a `GET /v1/jobs/{id}` body.  The
/// writer puts it between `"outcome":` and the final `,"error":`.
fn outcome_member(body: &str) -> Option<&str> {
    let start = body.find("\"outcome\":")? + "\"outcome\":".len();
    let end = body.rfind(",\"error\":")?;
    (start <= end).then(|| &body[start..end])
}

/// Drive one request to its outcome.  Any transport error, non-2xx
/// answer, unfinished job or malformed document is an `Err`.
pub fn exchange(
    addr: SocketAddr,
    body: &str,
    lane: usize,
    spans: Option<&mut Spans>,
) -> Result<Exchange, String> {
    let mut spans = spans;
    let mut mark = |open: Option<(&'static str, String)>| {
        if let Some(spans) = spans.as_deref_mut() {
            match open {
                Some((name, detail)) => spans.open(lane, name, detail),
                None => spans.close(lane),
            }
        }
    };
    let t0 = Instant::now();
    mark(Some(("serve.request", String::new())));
    mark(Some(("serve.http.post", String::new())));
    let post = http::request(addr, "POST", "/v1/solve", Some(body));
    mark(None);
    let post_s = t0.elapsed().as_secs_f64();
    let result = (|| {
        let post = post.map_err(|e| format!("POST failed: {e}"))?;
        if post.status != 202 {
            return Err(format!("POST answered {}: {}", post.status, post.body));
        }
        let receipt = reader::parse(&post.body).map_err(|e| format!("bad receipt: {e}"))?;
        let id = receipt
            .get("job_id")
            .and_then(JsonValue::as_u64)
            .ok_or("receipt without job_id")?;
        let hit = receipt.get("cache").and_then(JsonValue::as_str) == Some("hit");

        let t1 = Instant::now();
        mark(Some(("serve.events", format!("job={id}"))));
        let events = http::request(addr, "GET", &format!("/v1/jobs/{id}/events"), None);
        mark(None);
        let events_s = t1.elapsed().as_secs_f64();
        let events = events.map_err(|e| format!("event stream failed: {e}"))?;
        if events.status != 200 {
            return Err(format!("event stream answered {}", events.status));
        }
        let last = events.body.lines().last().unwrap_or("");
        if !(last.contains("\"job_done\"") && last.contains("\"done\"")) {
            return Err(format!("job {id} did not end done: {last}"));
        }

        let t2 = Instant::now();
        mark(Some(("serve.outcome.fetch", format!("job={id}"))));
        let status = http::request(addr, "GET", &format!("/v1/jobs/{id}"), None);
        mark(None);
        let fetch_s = t2.elapsed().as_secs_f64();
        let status = status.map_err(|e| format!("outcome fetch failed: {e}"))?;
        if status.status != 200 {
            return Err(format!("outcome fetch answered {}", status.status));
        }
        let outcome = outcome_member(&status.body)
            .filter(|o| o.starts_with('{'))
            .ok_or_else(|| format!("job {id} has no outcome: {}", status.body))?
            .to_string();
        Ok(Exchange {
            total_s: t0.elapsed().as_secs_f64(),
            paced_s: f64::NAN,
            post_s,
            events_s,
            fetch_s,
            hit,
            outcome,
        })
    })();
    mark(None);
    result
}

/// What one client thread brings back.
#[derive(Debug, Default)]
struct ClientLog {
    miss: Vec<Exchange>,
    /// Plan index of each entry of `miss`.
    miss_index: Vec<usize>,
    hit_a: Vec<Exchange>,
    hit_b: Vec<Exchange>,
    attempted: u64,
    failures: Vec<String>,
    spans: Option<Spans>,
    /// When each phase-A request completed, and its paced seconds.
    done_at: Vec<(Instant, f64)>,
    /// Seconds this client spent in the probe during phase A.
    probe_a_s: f64,
}

/// Pace `exchanges` by the probe samples taken before and after them: a
/// miss is a solve, a hit is not (`MIXED_SENSITIVITY`).
fn pace_all(exchanges: &mut [Exchange], around: [f64; 2]) {
    for exchange in exchanges {
        let timed = if exchange.hit {
            Timed::mixed(exchange.total_s, &around)
        } else {
            Timed::new(exchange.total_s, &around)
        };
        exchange.paced_s = timed.paced;
    }
}

impl ClientLog {
    fn run(
        &mut self,
        addr: SocketAddr,
        lane: usize,
        request: &PlannedRequest,
        expect_hit: bool,
    ) -> Option<Exchange> {
        self.attempted += 1;
        match exchange(addr, &request.body, lane, self.spans.as_mut()) {
            Ok(done) if done.hit == expect_hit => Some(done),
            Ok(done) => {
                self.failures.push(format!(
                    "planned a cache {}, the server answered {}",
                    if expect_hit { "hit" } else { "miss" },
                    if done.hit { "hit" } else { "miss" }
                ));
                None
            }
            Err(error) => {
                self.failures.push(error);
                None
            }
        }
    }
}

/// The result of one `serve-mix` run.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests (and set-ups) attempted.
    pub attempted: u64,
    /// Those that failed a check.
    pub failed: u64,
    /// `Server::start` → first cold request served.
    pub setup: Vec<Timed>,
    /// Phase-A misses.
    pub miss: Vec<Timed>,
    /// Phase-B hits (the gated `hit_s`).
    pub hit: Vec<Timed>,
    /// Phase-A hits (beside running solves; informational).
    pub hit_a: Vec<Timed>,
    /// Phase-A requests per second at the probe's reference speed: the
    /// median over consecutive windows of [`RATE_WINDOW`] completions
    /// (the gated `req_per_s`).
    pub req_per_s: f64,
    /// Phase-A requests over its wall seconds, the clients' probe time
    /// included (printed beside it).
    pub req_per_s_mean: f64,
    /// Requests completed in phase A.
    pub phase_a_requests: u64,
    /// Wall seconds of phase A.
    pub phase_a_wall_s: f64,
    /// Seconds the clients spent in the probe during phase A, summed.
    pub phase_a_probe_s: f64,
    /// Wall seconds of phase B.
    pub phase_b_wall_s: f64,
    /// One line describing the plan.
    pub plan_line: String,
    /// Every exchange of the kept server, for the traced pass.
    pub exchanges: Vec<Exchange>,
    /// The server's `/v1/metrics` JSON, read before shutdown.
    pub server_metrics: String,
    /// Client spans (traced pass only).
    pub spans: Option<Spans>,
}

fn start_server() -> Result<Server, String> {
    let config = ServeConfig {
        port: 0,
        ..ServeConfig::default()
    };
    assert_eq!(config.workers, CLIENTS, "load is sized for 2 workers");
    Server::start(&config).map_err(|e| format!("Server::start failed: {e}"))
}

/// Run the whole workload.  `spans` switches client-side span recording
/// on (the traced pass); end-to-end numbers are taken with `None`.
/// `seconds` is a safety valve for a machine much slower than the one
/// the plan was sized on: phase A stops handing out problems once the
/// run has used [`PHASE_A_SHARE`] of it, which leaves phase B its time.
pub fn measure(
    seed: u64,
    sizes: Sizes,
    started: Instant,
    seconds: f64,
    mut spans: Option<Spans>,
) -> Report {
    let deadline_s = seconds * PHASE_A_SHARE;
    let plan = ServePlan::generate(seed, sizes.distinct, sizes.hot_rounds);
    let mut report = Report {
        plan_line: format!(
            "{} distinct problems -> {} misses + {} hits in phase A, {} hits in phase B \
             ({} x {HOT_SET}), {CLIENTS} clients, closed loop",
            plan.distinct.len(),
            plan.distinct.len(),
            plan.distinct.len(),
            plan.hot_rounds * HOT_SET,
            plan.hot_rounds
        ),
        ..Report::default()
    };
    let fail = |report: &mut Report, what: String| {
        report.failed += 1;
        eprintln!("FAILED serve-mix: {what}");
    };

    // Set-up, several times: start → first cold request fully served.
    let mut kept = None;
    let mut pace = Pace::new(1);
    let mut probe = pace.sample();
    for index in 0..sizes.setups {
        report.attempted += 1;
        if let Some(spans) = spans.as_mut() {
            spans.open(0, "serve.setup", format!("rep={index}"));
        }
        let t0 = Instant::now();
        let served = start_server().and_then(|server| {
            exchange(server.addr(), &plan.cold.body, 0, None).map(|done| (server, done))
        });
        let seconds = t0.elapsed().as_secs_f64();
        if let Some(spans) = spans.as_mut() {
            spans.close(0);
        }
        let after = pace.sample();
        let around = [probe, after];
        probe = after;
        match served {
            Ok((server, done)) if !done.hit => {
                // Mostly the cold request's solve, so paced in full.
                report.setup.push(Timed::new(seconds, &around));
                if index + 1 == sizes.setups {
                    kept = Some(server);
                } else {
                    server.shutdown();
                }
            }
            Ok((server, _)) => {
                server.shutdown();
                fail(&mut report, "the cold request was a cache hit".to_string());
            }
            Err(error) => fail(&mut report, format!("set-up: {error}")),
        }
    }
    let Some(server) = kept else {
        fail(&mut report, "no server survived set-up".to_string());
        return report;
    };
    let addr = server.addr();
    let origin = spans.as_ref().map(Spans::origin);

    // Phase A.
    let next = AtomicUsize::new(0);
    let phase_a_start = Instant::now();
    if let Some(spans) = spans.as_mut() {
        spans.open(0, "serve.phase_a", "");
    }
    let mut logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (plan, next) = (&plan, &next);
                scope.spawn(move || {
                    let lane = client + 1;
                    let mut log = ClientLog {
                        spans: origin.map(Spans::new),
                        ..ClientLog::default()
                    };
                    let mut pace = Pace::new(1);
                    let mut probe = pace.sample();
                    log.probe_a_s += probe;
                    loop {
                        if started.elapsed().as_secs_f64() > deadline_s {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(request) = plan.distinct.get(index) else {
                            break;
                        };
                        let Some(mut miss) = log.run(addr, lane, request, false) else {
                            continue;
                        };
                        let miss_done = Instant::now();
                        let hit = log.run(addr, lane, request, true);
                        let hit_done = Instant::now();
                        let after = pace.sample();
                        log.probe_a_s += after;
                        let around = [probe, after];
                        probe = after;
                        pace_all(std::slice::from_mut(&mut miss), around);
                        log.done_at.push((miss_done, miss.paced_s));
                        if let Some(mut hit) = hit {
                            if hit.outcome == miss.outcome {
                                pace_all(std::slice::from_mut(&mut hit), around);
                                log.done_at.push((hit_done, hit.paced_s));
                                log.hit_a.push(hit);
                            } else {
                                log.failures.push(format!(
                                    "problem {index}: the hit's outcome bytes differ from the miss's"
                                ));
                            }
                        }
                        log.miss.push(miss);
                        log.miss_index.push(index);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    report.phase_a_wall_s = phase_a_start.elapsed().as_secs_f64();
    if let Some(spans) = spans.as_mut() {
        spans.close(0);
    }
    let handed_out = next.load(Ordering::SeqCst).min(plan.distinct.len());
    if handed_out < plan.distinct.len() {
        eprintln!(
            "serve-mix: phase A stopped at {handed_out} of {} problems: the run passed \
             {deadline_s:.1} s (a much slower machine than the plan was sized on)",
            plan.distinct.len()
        );
    }

    // Phase B: the hot set is the last HOT_SET problems handed out.
    let hot_from = handed_out.saturating_sub(HOT_SET);
    let hot: &[PlannedRequest] = &plan.distinct[hot_from..handed_out];
    let hot_total = hot.len() * plan.hot_rounds;
    // What each hot problem's miss answered: every replayed hit must
    // return the same bytes.
    let mut hot_outcomes = vec![""; hot.len()];
    for log in &logs {
        for (index, miss) in log.miss_index.iter().zip(&log.miss) {
            if let Some(slot) = index.checked_sub(hot_from) {
                hot_outcomes[slot] = &miss.outcome;
            }
        }
    }
    let hot_outcomes: Vec<String> = hot_outcomes.into_iter().map(str::to_string).collect();
    let next = AtomicUsize::new(0);
    let phase_b_start = Instant::now();
    if let Some(spans) = spans.as_mut() {
        spans.open(0, "serve.phase_b", "");
    }
    logs = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .into_iter()
            .enumerate()
            .map(|(client, mut log)| {
                let (next, hot_outcomes) = (&next, &hot_outcomes);
                scope.spawn(move || {
                    let mut pace = Pace::new(1);
                    let mut probe = pace.sample();
                    // Hits served since the last probe.
                    let mut block = 0;
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let last = index >= hot_total;
                        if !last {
                            let slot = index % hot.len();
                            match log.run(addr, client + 1, &hot[slot], true) {
                                Some(hit) if hit.outcome == hot_outcomes[slot] => {
                                    log.hit_b.push(hit);
                                    block += 1;
                                }
                                Some(_) => log.failures.push(format!(
                                    "problem {}: the replayed hit's outcome bytes differ from the \
                                     miss's",
                                    hot_from + slot
                                )),
                                None => {}
                            }
                        }
                        if block == HIT_BLOCK || (last && block > 0) {
                            let after = pace.sample();
                            let from = log.hit_b.len() - block;
                            pace_all(&mut log.hit_b[from..], [probe, after]);
                            probe = after;
                            block = 0;
                        }
                        if last {
                            break;
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    report.phase_b_wall_s = phase_b_start.elapsed().as_secs_f64();
    if let Some(spans) = spans.as_mut() {
        spans.close(0);
    }

    // The server's own view, before it goes away.
    let counter = |name: &str| server.queue().counter(name).unwrap_or(0);
    let (hits, misses, rejected) = (
        counter("serve_cache_hits"),
        counter("serve_cache_misses"),
        counter("serve_queue_rejections"),
    );
    report.server_metrics = server.queue().metrics_json();
    server.shutdown();

    for log in &mut logs {
        report.attempted += log.attempted;
        for failure in log.failures.drain(..) {
            fail(&mut report, failure);
        }
        if let (Some(all), Some(own)) = (spans.as_mut(), log.spans.take()) {
            all.absorb(own);
        }
    }
    let done_a: usize = logs.iter().map(|l| l.miss.len() + l.hit_a.len()).sum();
    let done_b: usize = logs.iter().map(|l| l.hit_b.len()).sum();
    // Observed hits and misses equal the plan exactly (the cold request
    // of the kept server is its one extra miss).
    let planned = (handed_out as u64 + hot_total as u64, handed_out as u64 + 1);
    report.attempted += 1;
    if (hits, misses) != planned || rejected != 0 {
        fail(
            &mut report,
            format!(
                "server counted {hits} hits / {misses} misses / {rejected} rejections, the plan \
                 has {} / {} / 0",
                planned.0, planned.1
            ),
        );
    }
    report.phase_a_requests = done_a as u64;
    report.req_per_s_mean = done_a as f64 / report.phase_a_wall_s;
    report.phase_a_probe_s = logs.iter().map(|l| l.probe_a_s).sum();
    let done_at: Vec<(Instant, f64)> = logs
        .iter()
        .flat_map(|l| l.done_at.iter().copied())
        .collect();
    let rates = window_rates(done_at);
    report.req_per_s = if rates.is_empty() {
        f64::NAN
    } else {
        crate::stats::median(&rates)
    };
    for log in logs {
        let timed = |e: &Exchange| Timed {
            wall: e.total_s,
            paced: e.paced_s,
        };
        report.miss.extend(log.miss.iter().map(timed));
        report.hit_a.extend(log.hit_a.iter().map(timed));
        report.hit.extend(log.hit_b.iter().map(timed));
        report.exchanges.extend(log.miss);
        report.exchanges.extend(log.hit_a);
        report.exchanges.extend(log.hit_b);
    }
    if report.failed == 0 && (done_a != 2 * handed_out || done_b != hot_total) {
        fail(
            &mut report,
            format!(
                "completed {done_a} + {done_b} requests, planned {} + {hot_total}",
                2 * handed_out
            ),
        );
    }
    report.spans = spans;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_member_is_cut_out_verbatim() {
        let body = r#"{"job_id":3,"status":"done","cached":true,"problem_hash":"00","outcome":{"a":[1,2],"error":"x"},"error":null}"#;
        assert_eq!(outcome_member(body), Some(r#"{"a":[1,2],"error":"x"}"#));
        assert_eq!(
            outcome_member(r#"{"outcome":null,"error":"boom"}"#),
            Some("null")
        );
        assert_eq!(outcome_member("{}"), None);
    }

    #[test]
    fn throughput_is_clients_over_mean_latency_per_window_of_completions() {
        let start = Instant::now();
        let at = |ms: u64| start + std::time::Duration::from_millis(ms);
        // 64 completions: the first 32 took 1/16 s each, the next 32 1/8 s.
        let mut done: Vec<(Instant, f64)> = (1..=32).map(|i| (at(i), 1.0 / 16.0)).collect();
        done.extend((33..=64).map(|i| (at(i), 1.0 / 8.0)));
        done.reverse(); // order of arrival does not matter
        let rates = window_rates(done);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 32.0).abs() < 1e-9 && (rates[1] - 16.0).abs() < 1e-9);
        // Fewer completions than one window: the phase is the window.
        let rates = window_rates(vec![(at(500), 0.5), (at(1000), 0.5)]);
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - 4.0).abs() < 1e-9);
        assert!(window_rates(Vec::new()).is_empty());
    }

    #[test]
    fn plans_scale_with_the_run_length_and_always_fill_the_hot_set() {
        let twenty = Sizes::for_seconds(20.0);
        assert!(twenty.distinct > Sizes::for_seconds(10.0).distinct);
        assert_eq!(twenty, Sizes::for_seconds(20.0));
        for sizes in [Sizes::quick(), Sizes::traced(), Sizes::for_seconds(1.0)] {
            assert!(sizes.distinct >= HOT_SET);
            assert!(sizes.hot_rounds >= 1 && sizes.setups >= 1);
        }
    }

    /// The smallest plan, end to end over real HTTP.
    #[test]
    fn quick_plan_serves_every_request_as_planned() {
        let report = measure(3, Sizes::quick(), Instant::now(), 600.0, None);
        assert_eq!(report.failed, 0);
        assert_eq!(report.miss.len(), HOT_SET);
        assert_eq!(report.hit_a.len(), HOT_SET);
        assert_eq!(report.hit.len(), HOT_SET);
        assert_eq!(report.setup.len(), 2);
        assert!(report.req_per_s > 0.0);
        for timed in report.miss.iter().chain(&report.hit).chain(&report.hit_a) {
            assert!(timed.wall > 0.0 && timed.paced > 0.0, "{timed:?}");
        }
    }
}
