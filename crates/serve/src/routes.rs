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
//! with the mesh.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

use unsnap_core::error::Error;
use unsnap_obs::json::JsonObject;

use crate::cancel::CancelDisposition;
use crate::http::{self, ChunkedWriter, Request};
use crate::queue::{JobQueue, JobStatus};
use crate::wire;

/// How long one `wait_at` poll of a job's event channel blocks before
/// re-checking (bounds how late the chunked stream notices a close).
const EVENT_POLL: Duration = Duration::from_millis(250);

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

/// Stream a job's events as chunked JSONL until its channel closes.
fn stream_events(queue: &JobQueue, id: u64, stream: &TcpStream) -> std::io::Result<()> {
    let Some(events) = queue.events(id) else {
        let (status, body) = not_found(&format!("job {id}"));
        return http::write_response(&mut &*stream, status, &body);
    };
    let mut chunked = ChunkedWriter::begin(stream, 200, "application/jsonl")?;
    let mut from = 0;
    loop {
        let (lines, closed) = events.wait_at(from, EVENT_POLL);
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

/// Serve one connection: read a request, dispatch it, write the
/// response.  I/O errors (including a client hanging up mid-stream) are
/// swallowed — the connection is this function's whole world.
pub fn handle_connection(stream: TcpStream, queue: &JobQueue) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = {
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => return,
        });
        match http::read_request(&mut reader) {
            Ok(request) => request,
            Err(_) => {
                let body = JsonObject::new()
                    .field_str("error", "malformed HTTP request")
                    .field_raw("field", "null")
                    .finish();
                let _ = http::write_response(&mut &stream, 400, &body);
                return;
            }
        }
    };
    queue.record_request();

    // The event stream writes its own (chunked) response.
    if let Some((id, JobRoute::Events)) = job_path(&request.path) {
        if request.method == "GET" {
            let _ = stream_events(queue, id, &stream);
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
        let _ = http::write_response_typed(&mut &stream, 200, content_type, &body);
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
    let _ = http::write_response(&mut &stream, status, &body);
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

    #[test]
    fn error_bodies_carry_the_field() {
        let body = error_body(&Error::invalid_problem("nx", "zero"));
        assert!(body.contains("\"field\":\"nx\""));
        let body = error_body(&Error::Cancelled { outer: 1 });
        assert!(body.contains("\"field\":null"));
    }
}
