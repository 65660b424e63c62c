//! The workspace-wide error type.
//!
//! Every fallible path in the UnSNAP workspace — problem validation, mesh
//! decomposition, dense factorisation and Krylov solves, sweep
//! scheduling, the simulated communication layer — funnels into one
//! structured [`enum@Error`], with a variant per failure domain and
//! `From` conversions from each crate's local error type.  Callers match on
//! variants (and their payloads: offending field, pivot magnitude,
//! iteration number) instead of parsing strings; `?` works across crate
//! boundaries because the conversions are lossless wrappers.
//!
//! The convention mirrors production Rust services: leaf crates own small
//! domain-specific error enums (`LinalgError` for the dense and the Krylov
//! solvers alike, `ScheduleError`, `MeshError`, `CommError`), and the
//! crate that owns the public API surface (`unsnap-core`) owns the
//! aggregate.  Two `LinalgError`s are lifted to variants of their own,
//! because callers match on them: a singular local system
//! ([`Error::Singular`]) and a Krylov breakdown
//! ([`Error::KrylovBreakdown`]).  The `comm`
//! crate sits *above* core in the dependency graph, so its conversion into
//! [`Error::Comm`] lives in `unsnap-comm` rather than here.

use std::fmt;

use unsnap_linalg::LinalgError;
use unsnap_mesh::MeshError;
use unsnap_sweep::ScheduleError;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// A structured error covering every failure domain of the workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A [`Problem`](crate::problem::Problem) field (or a combination of
    /// fields) failed validation.
    InvalidProblem {
        /// The offending field, named as in the `Problem` struct (for a
        /// cross-field invariant, the field whose change would most
        /// naturally fix it).
        field: &'static str,
        /// Human-readable explanation of the constraint that failed.
        reason: String,
    },
    /// Mesh construction or domain decomposition failed.
    Mesh(MeshError),
    /// A local dense system was numerically singular.
    Singular {
        /// Column at which the factorisation broke down (0-based).
        column: usize,
        /// Magnitude of the best available pivot.
        pivot: f64,
    },
    /// Any other linear-algebra failure (dimension mismatches, lockstep
    /// pivot divergence, Krylov configuration problems, loss of positive
    /// definiteness in CG).
    Linalg(LinalgError),
    /// A Krylov solve broke down before reaching its tolerance.
    KrylovBreakdown {
        /// Iteration at which the breakdown occurred.
        iteration: usize,
        /// Relative residual estimate at the point of breakdown.
        residual: f64,
    },
    /// Sweep-schedule construction failed (cyclic dependency graph).
    Schedule {
        /// What was being scheduled (e.g. `"angle [0.5, 0.6, 0.6]"` or
        /// `"rank 3"`); empty when no context was attached.
        context: String,
        /// The underlying schedule failure.
        source: ScheduleError,
    },
    /// The (simulated) communication layer failed.
    Comm {
        /// Human-readable description of the communication failure.
        reason: String,
    },
    /// The execution environment could not be set up (e.g. a directory
    /// or a socket the process needs could not be opened).
    Execution {
        /// Human-readable description of the environment failure.
        reason: String,
    },
    /// The solve was cooperatively cancelled via a
    /// [`CancelToken`](crate::cancel::CancelToken) before it completed.
    /// Cancellation is observed at outer-iteration boundaries only, so
    /// the flux state is a consistent snapshot as of outer `outer`.
    Cancelled {
        /// The outer iteration at whose boundary the cancellation was
        /// observed (0 = cancelled before the first outer ran).
        outer: usize,
    },
}

impl Error {
    /// Shorthand for an [`Error::InvalidProblem`] with a formatted reason.
    pub fn invalid_problem(field: &'static str, reason: impl Into<String>) -> Self {
        Error::InvalidProblem {
            field,
            reason: reason.into(),
        }
    }

    /// Attach scheduling context (which angle, which rank) to a
    /// [`ScheduleError`].
    pub fn schedule(context: impl Into<String>, source: ScheduleError) -> Self {
        Error::Schedule {
            context: context.into(),
            source,
        }
    }

    /// The `Problem` field an [`Error::InvalidProblem`] refers to, if any.
    pub fn invalid_field(&self) -> Option<&'static str> {
        match self {
            Error::InvalidProblem { field, .. } => Some(field),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidProblem { field, reason } => {
                write!(f, "invalid problem: {field}: {reason}")
            }
            Error::Mesh(e) => write!(f, "mesh error: {e}"),
            Error::Singular { column, pivot } => write!(
                f,
                "local system is numerically singular at column {column} (|pivot| = {pivot:.3e})"
            ),
            Error::Linalg(e) => write!(f, "linear algebra error: {e}"),
            Error::KrylovBreakdown {
                iteration,
                residual,
            } => write!(
                f,
                "Krylov solve broke down at iteration {iteration} \
                 (relative residual {residual:.3e})"
            ),
            Error::Schedule { context, source } => {
                if context.is_empty() {
                    write!(f, "schedule error: {source}")
                } else {
                    write!(f, "schedule error ({context}): {source}")
                }
            }
            Error::Comm { reason } => write!(f, "communication error: {reason}"),
            Error::Execution { reason } => write!(f, "execution environment error: {reason}"),
            Error::Cancelled { outer } => {
                write!(f, "solve cancelled at outer-iteration boundary {outer}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Mesh(e) => Some(e),
            Error::Linalg(e) => Some(e),
            Error::Schedule { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<MeshError> for Error {
    fn from(e: MeshError) -> Self {
        Error::Mesh(e)
    }
}

impl From<LinalgError> for Error {
    fn from(e: LinalgError) -> Self {
        match e {
            LinalgError::Singular { column, pivot } => Error::Singular { column, pivot },
            LinalgError::Breakdown {
                at_iteration,
                residual,
            } => Error::KrylovBreakdown {
                iteration: at_iteration,
                residual,
            },
            other => Error::Linalg(other),
        }
    }
}

impl From<ScheduleError> for Error {
    fn from(source: ScheduleError) -> Self {
        Error::Schedule {
            context: String::new(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singular_linalg_errors_flatten() {
        let e: Error = LinalgError::Singular {
            column: 4,
            pivot: 1e-18,
        }
        .into();
        assert!(matches!(e, Error::Singular { column: 4, .. }));
        assert!(e.to_string().contains("column 4"));
    }

    #[test]
    fn other_linalg_errors_wrap() {
        let e: Error = LinalgError::NotSquare { rows: 2, cols: 3 }.into();
        assert!(matches!(e, Error::Linalg(_)));
        assert!(e.to_string().contains("not square"));
    }

    #[test]
    fn krylov_breakdown_flattens() {
        let e: Error = LinalgError::Breakdown {
            at_iteration: 7,
            residual: 0.25,
        }
        .into();
        assert_eq!(
            e,
            Error::KrylovBreakdown {
                iteration: 7,
                residual: 0.25
            }
        );
    }

    #[test]
    fn schedule_errors_carry_context() {
        let source = ScheduleError::CyclicDependency {
            unscheduled: vec![1, 2],
        };
        let e = Error::schedule("angle [1, 0, 0]", source.clone());
        assert!(e.to_string().contains("angle [1, 0, 0]"));
        let bare: Error = source.into();
        assert!(matches!(bare, Error::Schedule { ref context, .. } if context.is_empty()));
    }

    #[test]
    fn mesh_errors_wrap() {
        let e: Error = MeshError::EmptyDecomposition { npx: 0, npy: 2 }.into();
        assert!(matches!(e, Error::Mesh(_)));
        assert!(e.to_string().starts_with("mesh error"));
    }

    #[test]
    fn cancelled_names_the_boundary() {
        let e = Error::Cancelled { outer: 3 };
        assert!(e.to_string().contains("boundary 3"));
        assert_eq!(e.invalid_field(), None);
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn invalid_problem_helpers() {
        let e = Error::invalid_problem("nx", "must be positive");
        assert_eq!(e.invalid_field(), Some("nx"));
        assert!(e.to_string().contains("nx"));
        assert_eq!(Error::Comm { reason: "x".into() }.invalid_field(), None);
    }

    #[test]
    fn error_is_std_error_with_sources() {
        let e: Error = LinalgError::NotSquare { rows: 1, cols: 2 }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::invalid_problem("ny", "zero");
        assert!(std::error::Error::source(&e).is_none());
    }
}
