//! Request-body parsing and the error → HTTP status mapping.
//!
//! The solve endpoint accepts one JSON shape:
//!
//! ```json
//! {"problem": "quickstart"}
//! {"problem": {"grid": {"nx": 5}, "iteration": {"strategy": "gmres"}}}
//! ```
//!
//! — either a name from [`Problem::registry_names`] or an inline
//! document in the canonical wire format of [`unsnap_core::wire`].  Both
//! paths funnel into the same validated [`Problem`], so a request can
//! never enqueue a configuration [`Problem::validate`] rejects.
//!
//! The status mapping turns the workspace's typed
//! [`Error`] into the HTTP vocabulary:
//! client-caused validation failures are 400s, cancellation surfaces as
//! 409 (the job is in a conflicting state, not broken), an over-full
//! queue is 503 (try again), and everything else — solver-internal
//! breakdowns a well-formed request can still trigger — is a 500.

use unsnap_core::error::Error;
use unsnap_core::problem::Problem;
use unsnap_core::wire as core_wire;
use unsnap_obs::reader::{self, JsonValue};

/// Parse a `POST /v1/solve` body into a validated [`Problem`].
pub fn parse_solve_request(body: &str) -> Result<Problem, Error> {
    let value = reader::parse(body)
        .map_err(|e| Error::invalid_problem("problem", format!("malformed JSON: {e}")))?;
    let Some(fields) = value.as_object() else {
        return Err(Error::invalid_problem(
            "problem",
            "the request body must be a JSON object with a 'problem' member",
        ));
    };
    let mut problem_value: Option<&JsonValue> = None;
    for (key, v) in fields {
        match key.as_str() {
            "problem" => problem_value = Some(v),
            other => {
                return Err(Error::invalid_problem(
                    "problem",
                    format!("unknown request member '{other}'; expected only 'problem'"),
                ));
            }
        }
    }
    let Some(problem_value) = problem_value else {
        return Err(Error::invalid_problem(
            "problem",
            "the request body has no 'problem' member",
        ));
    };
    match problem_value {
        JsonValue::String(name) => Problem::from_name(name),
        JsonValue::Object(_) => core_wire::problem_from_json(problem_value),
        other => Err(Error::invalid_problem(
            "problem",
            format!(
                "'problem' must be a registry name or a configuration object, got {}",
                match other {
                    JsonValue::Null => "null",
                    JsonValue::Bool(_) => "a boolean",
                    JsonValue::Number(_) => "a number",
                    JsonValue::Array(_) => "an array",
                    _ => "something else",
                }
            ),
        )),
    }
}

/// The HTTP status code a typed [`Error`] maps to (see the
/// [module docs](self)).
pub fn status_for(error: &Error) -> u16 {
    match error {
        Error::InvalidProblem { .. } => 400,
        Error::Cancelled { .. } => 409,
        Error::Execution { .. } => 503,
        _ => 500,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_problems_resolve_through_the_registry() {
        let problem = parse_solve_request(r#"{"problem": "quickstart"}"#).unwrap();
        assert_eq!(problem, Problem::quickstart());
        let err = parse_solve_request(r#"{"problem": "nonsense"}"#).unwrap_err();
        assert_eq!(err.invalid_field(), Some("problem"));
        assert_eq!(status_for(&err), 400);
    }

    #[test]
    fn inline_documents_parse_and_validate() {
        let problem = parse_solve_request(r#"{"problem": {"grid": {"nx": 5}}}"#).unwrap();
        assert_eq!(
            problem,
            Problem {
                nx: 5,
                ..Problem::tiny()
            }
        );
        // `Problem::validate` runs: nx = 0 is a 400, not an enqueued job
        // (`tests/wire_format.rs` has the table of rejected documents).
        let err = parse_solve_request(r#"{"problem": {"grid": {"nx": 0}}}"#).unwrap_err();
        assert_eq!(status_for(&err), 400);
    }

    #[test]
    fn malformed_bodies_are_client_errors() {
        for body in [
            "",
            "not json",
            "[]",
            "{}",
            r#"{"problem": 7}"#,
            r#"{"problem": "tiny", "extra": 1}"#,
        ] {
            let err = parse_solve_request(body).unwrap_err();
            assert_eq!(status_for(&err), 400, "body {body:?} must map to 400");
        }
    }

    #[test]
    fn status_mapping_covers_the_error_domains() {
        assert_eq!(status_for(&Error::Cancelled { outer: 2 }), 409);
        assert_eq!(
            status_for(&Error::Execution {
                reason: "queue full".into()
            }),
            503
        );
        assert_eq!(
            status_for(&Error::Singular {
                column: 0,
                pivot: 0.0
            }),
            500
        );
        assert_eq!(
            status_for(&Error::Comm {
                reason: "halo".into()
            }),
            500
        );
    }
}
