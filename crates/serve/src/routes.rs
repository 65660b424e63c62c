//! The route table: HTTP requests → queue operations.
//!
//! | method | path                  | does                                      | success |
//! |--------|-----------------------|-------------------------------------------|---------|
//! | POST   | `/v1/solve`           | parse + validate a problem, enqueue (or cache-hit) | 202 |
//! | GET    | `/v1/jobs`            | list every known job (incl. `resumable`)  | 200 |
//! | GET    | `/v1/jobs/{id}`       | job status + outcome JSON when done       | 200 |
//! | GET    | `/v1/jobs/{id}/events`| chunked live JSONL solve-event stream     | 200 |
//! | GET    | `/v1/jobs/{id}/trace` | finished job's Chrome `trace_event` JSON  | 200 |
//! | POST   | `/v1/jobs/{id}/resume`| re-queue a `resumable` (interrupted) job  | 202 |
//! | DELETE | `/v1/jobs/{id}`       | cooperative cancel                        | 200 |
//! | GET    | `/v1/metrics`         | the server's metrics-registry snapshot    | 200 |
//!
//! `/v1/metrics` defaults to the JSON registry snapshot;
//! `?format=prometheus` switches to the Prometheus text exposition
//! (`text/plain`).  Any other `format` value falls back to JSON.
//!
//! Failures use the typed-error mapping of [`crate::wire::status_for`]:
//! validation problems are 400s with the offending field named in the
//! body, an over-full queue is a 503, unknown paths and job IDs are
//! 404s, and a known path with the wrong method is a 405.
//!
//! The event stream replays a job's full history before tailing, so a
//! client attaching after convergence still sees every residual; the
//! response ends (chunked terminator, connection close) when the job's
//! channel closes with its final `job_done` line.  A line is one
//! `SolveEvent`: a sweep is its `phase_start`/`phase_end` pair and one
//! `sweep` line carrying `cells`, `buckets` and `seconds` — never a line
//! per wavefront bucket — and the `/trace` body holds one `sweep` span
//! per sweep with nothing below it, so both scale with iterations, not
//! with the mesh.  Lines are buffered and sent whenever the stream
//! would otherwise wait for the next one: a finished job's history
//! leaves in one write, a running job's lines as they come.  A stream
//! with nothing to send checks on every poll whether its client has
//! hung up, and ends if so, so that a tail nobody reads does not hold
//! its connection handler until the job ends (or, for a `resumable`
//! job, until the server stops).

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use unsnap_core::error::Error;
use unsnap_obs::json::JsonObject;
use unsnap_obs::stream::LineChannel;

use crate::cancel::CancelDisposition;
use crate::http::{self, ChunkedWriter, Request};
use crate::queue::{JobQueue, JobStatus};
use crate::wire;

/// How long one `wait_at` poll of a job's event channel blocks before
/// re-checking (bounds how late the chunked stream notices a close).
const EVENT_POLL: Duration = Duration::from_millis(250);

/// How long a request may take to arrive, and a response to be taken
/// in, before the connection is given up.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn error_body(error: &Error) -> String {
    let obj = JsonObject::new().field_str("error", &error.to_string());
    match error.invalid_field() {
        Some(field) => obj.field_str("field", field),
        None => obj.field_raw("field", "null"),
    }
    .finish()
}

fn not_found(what: &str) -> (u16, String) {
    (
        404,
        JsonObject::new()
            .field_str("error", &format!("{what} not found"))
            .field_raw("field", "null")
            .finish(),
    )
}

fn status_body(status: &JobStatus) -> String {
    let obj = JsonObject::new()
        .field_u64("job_id", status.id)
        .field_str("status", status.state.label())
        .field_bool("cached", status.cached)
        .field_str("problem_hash", &format!("{:016x}", status.hash));
    let obj = match &status.outcome_json {
        Some(outcome) => obj.field_raw("outcome", outcome),
        None => obj.field_raw("outcome", "null"),
    };
    match &status.error {
        Some(error) => obj.field_str("error", error),
        None => obj.field_raw("error", "null"),
    }
    .finish()
}

/// What a `/v1/jobs/{id}…` path addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobRoute {
    /// `/v1/jobs/{id}` — status (GET) or cancel (DELETE).
    Status,
    /// `/v1/jobs/{id}/events` — the chunked JSONL stream.
    Events,
    /// `/v1/jobs/{id}/trace` — the Chrome `trace_event` profile.
    Trace,
    /// `/v1/jobs/{id}/resume` — re-queue an interrupted job.
    Resume,
}

/// Parse `/v1/jobs/{id}`, `/v1/jobs/{id}/events`,
/// `/v1/jobs/{id}/trace` and `/v1/jobs/{id}/resume` paths.
fn job_path(path: &str) -> Option<(u64, JobRoute)> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    if let Some(id_text) = rest.strip_suffix("/events") {
        Some((id_text.parse().ok()?, JobRoute::Events))
    } else if let Some(id_text) = rest.strip_suffix("/trace") {
        Some((id_text.parse().ok()?, JobRoute::Trace))
    } else if let Some(id_text) = rest.strip_suffix("/resume") {
        Some((id_text.parse().ok()?, JobRoute::Resume))
    } else {
        Some((rest.parse().ok()?, JobRoute::Status))
    }
}

fn post_solve(queue: &JobQueue, request: &Request) -> (u16, String) {
    let body = String::from_utf8_lossy(&request.body);
    let problem = match wire::parse_solve_request(&body) {
        Ok(problem) => problem,
        Err(error) => return (wire::status_for(&error), error_body(&error)),
    };
    match queue.submit(problem) {
        Ok(receipt) => (
            202,
            JsonObject::new()
                .field_u64("job_id", receipt.id)
                .field_str("status", receipt.state.label())
                .field_str("cache", if receipt.cached { "hit" } else { "miss" })
                .field_str("problem_hash", &format!("{:016x}", receipt.hash))
                .finish(),
        ),
        Err(error) => (wire::status_for(&error), error_body(&error)),
    }
}

fn get_job(queue: &JobQueue, id: u64) -> (u16, String) {
    match queue.status(id) {
        Some(status) => (200, status_body(&status)),
        None => not_found(&format!("job {id}")),
    }
}

/// `GET /v1/jobs/{id}/trace`: the Chrome `trace_event` profile of a
/// finished solve.  404 for an unknown ID; 409 when the job exists but
/// has no trace (still queued/running, failed, or a cache hit that
/// replayed no work).
fn get_trace(queue: &JobQueue, id: u64) -> (u16, String) {
    match queue.trace_json(id) {
        Some(Some(trace)) => (200, trace),
        Some(None) => (
            409,
            JsonObject::new()
                .field_str(
                    "error",
                    &format!("job {id} has no trace (not finished, or served from cache)"),
                )
                .field_raw("field", "null")
                .finish(),
        ),
        None => not_found(&format!("job {id}")),
    }
}

fn list_jobs(queue: &JobQueue) -> (u16, String) {
    let bodies: Vec<String> = queue.list().iter().map(status_body).collect();
    (
        200,
        JsonObject::new()
            .field_raw("jobs", &unsnap_obs::json::array_raw(bodies))
            .finish(),
    )
}

fn resume_job(queue: &JobQueue, id: u64) -> (u16, String) {
    use crate::queue::JobState;
    match queue.resume(id) {
        Some((JobState::Resumable, after)) => (
            202,
            JsonObject::new()
                .field_u64("job_id", id)
                .field_str("status", after.label())
                .finish(),
        ),
        Some((before, _)) => (
            409,
            JsonObject::new()
                .field_str(
                    "error",
                    &format!("job {id} is {}, not resumable", before.label()),
                )
                .field_raw("field", "null")
                .finish(),
        ),
        None => not_found(&format!("job {id}")),
    }
}

fn delete_job(queue: &JobQueue, id: u64) -> (u16, String) {
    match queue.cancel(id) {
        Some((before, after)) => {
            let disposition = CancelDisposition::from_prior_state(before);
            (
                200,
                JsonObject::new()
                    .field_u64("job_id", id)
                    .field_bool("cancel_requested", true)
                    .field_str("disposition", disposition.label())
                    .field_str("status", after.label())
                    .finish(),
            )
        }
        None => not_found(&format!("job {id}")),
    }
}

/// Stream a job's events as chunked JSONL until its channel closes, or
/// until the client hangs up.
fn stream_events(queue: &JobQueue, id: u64, stream: &TcpStream) -> std::io::Result<()> {
    let Some(events) = queue.events(id) else {
        let (status, body) = not_found(&format!("job {id}"));
        return http::write_response(&mut &*stream, status, &body);
    };
    stream_lines(&events, stream, || client_gone(stream))
}

/// Write `events` as a chunked JSONL response until the channel closes,
/// flushing whenever the next wait would block.  An idle stream writes
/// nothing, so it cannot see a hang-up by a failed write: after each
/// [`EVENT_POLL`] that brings no line it asks `gone` instead, and ends
/// (without the terminator) when the client has left.
fn stream_lines<W: Write>(
    events: &LineChannel,
    writer: W,
    mut gone: impl FnMut() -> bool,
) -> std::io::Result<()> {
    let mut chunked = ChunkedWriter::begin(writer, 200, "application/jsonl")?;
    let mut from = 0;
    loop {
        let (mut lines, mut closed) = events.wait_at(from, Duration::ZERO);
        if lines.is_empty() && !closed {
            chunked.flush()?;
            (lines, closed) = events.wait_at(from, EVENT_POLL);
            if lines.is_empty() && !closed && gone() {
                return Ok(());
            }
        }
        for line in &lines {
            chunked.write_chunk(&format!("{line}\n"))?;
        }
        from += lines.len();
        if closed && from >= events.len() {
            break;
        }
    }
    chunked.finish()
}

/// Whether the client of an idle event stream has hung up: one
/// non-blocking read finds the end of what it sends, or an error.  A
/// client that only half-closes (shuts down its sending side and keeps
/// reading) counts as gone too.  Bytes sent after the request are
/// discarded; a one-request connection has no use for them.
fn client_gone(mut stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let gone = match stream.read(&mut [0_u8; 512]) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
    };
    stream.set_nonblocking(false).is_err() || gone
}

/// Answer a connection the server has no handler for: `503` with the
/// typed JSON error body, and the end of the response.  The request is
/// never read; the caller keeps the connection open a while so that
/// closing it over the unread request is not a reset.
pub(crate) fn refuse_connection(mut stream: &TcpStream, cap: usize) {
    let error = Error::Execution {
        reason: format!("all {cap} connection handlers are busy; retry later"),
    };
    if http::write_response(&mut stream, wire::status_for(&error), &error_body(&error)).is_ok() {
        let _ = stream.shutdown(Shutdown::Write);
    }
}

/// Serve one connection: read a request, dispatch it, write the
/// response.  I/O errors (including a client hanging up mid-stream) are
/// swallowed — the connection is this function's whole world.
pub(crate) fn handle_connection(stream: &TcpStream, queue: &JobQueue) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    // A client that stops reading holds its handler no longer than this.
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // A live event stream flushes small writes; do not let Nagle's
    // algorithm hold one back until the previous is acknowledged.
    let _ = stream.set_nodelay(true);
    let request = {
        let mut reader = BufReader::new(stream);
        match http::read_request(&mut reader) {
            Ok(request) => request,
            Err(_) => {
                let body = JsonObject::new()
                    .field_str("error", "malformed HTTP request")
                    .field_raw("field", "null")
                    .finish();
                let _ = http::write_response(&mut &*stream, 400, &body);
                return;
            }
        }
    };
    queue.record_request();

    // The event stream writes its own (chunked) response.
    if let Some((id, JobRoute::Events)) = job_path(&request.path) {
        if request.method == "GET" {
            let _ = stream_events(queue, id, stream);
            return;
        }
    }

    // The metrics endpoint picks its content type from the query
    // string, so it writes its own (fixed-length) response too.
    if request.method == "GET" && request.path == "/v1/metrics" {
        let (content_type, body) = match request.query.as_deref() {
            Some("format=prometheus") => ("text/plain; version=0.0.4", queue.metrics_prometheus()),
            _ => ("application/json", queue.metrics_json()),
        };
        let _ = http::write_response_typed(&mut &*stream, 200, content_type, &body);
        return;
    }

    let (status, body) = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/solve") => post_solve(queue, &request),
        ("GET", "/v1/jobs") => list_jobs(queue),
        (method, path) => match job_path(path) {
            Some((id, JobRoute::Status)) if method == "GET" => get_job(queue, id),
            Some((id, JobRoute::Status)) if method == "DELETE" => delete_job(queue, id),
            Some((id, JobRoute::Trace)) if method == "GET" => get_trace(queue, id),
            Some((id, JobRoute::Resume)) if method == "POST" => resume_job(queue, id),
            Some(_) => (
                405,
                JsonObject::new()
                    .field_str("error", "method not allowed on this path")
                    .field_raw("field", "null")
                    .finish(),
            ),
            None if path == "/v1/solve" || path == "/v1/metrics" || path == "/v1/jobs" => (
                405,
                JsonObject::new()
                    .field_str("error", "method not allowed on this path")
                    .field_raw("field", "null")
                    .finish(),
            ),
            None => not_found(&format!("path '{path}'")),
        },
    };
    let _ = http::write_response(&mut &*stream, status, &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_paths_parse() {
        assert_eq!(job_path("/v1/jobs/7"), Some((7, JobRoute::Status)));
        assert_eq!(job_path("/v1/jobs/7/events"), Some((7, JobRoute::Events)));
        assert_eq!(job_path("/v1/jobs/7/trace"), Some((7, JobRoute::Trace)));
        assert_eq!(job_path("/v1/jobs/7/resume"), Some((7, JobRoute::Resume)));
        assert_eq!(job_path("/v1/jobs/"), None);
        assert_eq!(job_path("/v1/jobs/x"), None);
        assert_eq!(job_path("/v1/jobs/x/resume"), None);
        assert_eq!(job_path("/v1/solve"), None);
        assert_eq!(job_path("/v1/jobs/7/extra"), None);
    }

    /// Hands every `write` call to the test thread as it happens.
    struct SentWrites(std::sync::mpsc::Sender<Vec<u8>>);

    impl Write for SentWrites {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_live_line_reaches_the_reader_before_the_channel_closes() {
        let events = LineChannel::new();
        let (sender, received) = std::sync::mpsc::channel();
        let streamer = {
            let events = events.clone();
            std::thread::spawn(move || stream_lines(&events, SentWrites(sender), || false))
        };
        let mut seen = Vec::new();
        let mut read_until = |needle: &str| {
            while !String::from_utf8_lossy(&seen).contains(needle) {
                let bytes = received
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("'{needle}' never reached the reader"));
                seen.extend(bytes);
            }
        };
        events.push(r#"{"event":"outer_start","outer":0}"#);
        read_until("\"outer_start\"");
        assert!(!events.is_closed(), "the line arrived while the job ran");
        events.push(r#"{"event":"job_done","status":"done"}"#);
        events.close();
        read_until("0\r\n\r\n");
        streamer.join().unwrap().unwrap();
        let text = String::from_utf8(seen).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("\"job_done\""));
    }

    #[test]
    fn a_finished_stream_is_one_write() {
        let events = LineChannel::new();
        for outer in 0..20 {
            events.push(format!("{{\"event\":\"outer_start\",\"outer\":{outer}}}"));
        }
        events.close();
        let (sender, received) = std::sync::mpsc::channel();
        stream_lines(&events, SentWrites(sender), || false).unwrap();
        let writes: Vec<Vec<u8>> = received.try_iter().collect();
        assert_eq!(writes.len(), 1);
        assert!(String::from_utf8_lossy(&writes[0]).ends_with("0\r\n\r\n"));
    }

    #[test]
    fn an_idle_stream_ends_when_its_client_is_gone() {
        let events = LineChannel::new();
        events.push(r#"{"event":"outer_start","outer":0}"#);
        let (sender, received) = std::sync::mpsc::channel();
        let mut asked = 0;
        let ended = stream_lines(&events, SentWrites(sender), || {
            asked += 1;
            asked == 2
        });
        ended.unwrap();
        assert_eq!(asked, 2, "asked once per idle poll, and only when idle");
        assert!(
            !events.is_closed(),
            "the job's channel is not the stream's to close"
        );
        let sent: Vec<u8> = received.try_iter().flatten().collect();
        let text = String::from_utf8(sent).unwrap();
        assert!(text.contains("\"outer_start\""));
        assert!(
            !text.ends_with("0\r\n\r\n"),
            "no terminator for a departed client"
        );
    }

    #[test]
    fn error_bodies_carry_the_field() {
        let body = error_body(&Error::invalid_problem("nx", "zero"));
        assert!(body.contains("\"field\":\"nx\""));
        let body = error_body(&Error::Cancelled { outer: 1 });
        assert!(body.contains("\"field\":null"));
    }
}
