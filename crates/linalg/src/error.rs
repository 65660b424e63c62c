//! Error type shared by all solvers in the crate, dense and Krylov.

use std::fmt;

/// Errors produced by the dense linear-algebra kernels and the Krylov
/// solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix is not square but the operation requires a square matrix.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// Two operands have incompatible dimensions.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension that was actually supplied.
        found: usize,
        /// Human-readable description of which operand mismatched.
        what: &'static str,
    },
    /// The matrix is (numerically) singular: no pivot larger than the
    /// breakdown tolerance could be found in column `column`.
    Singular {
        /// Column at which factorisation broke down (0-based).
        column: usize,
        /// Magnitude of the best available pivot.
        pivot: f64,
    },
    /// Systems eliminated in lockstep chose different pivot rows: they
    /// cannot share one row permutation from `column` on.
    Diverged {
        /// Column whose pivot search disagreed across lanes (0-based).
        column: usize,
    },
    /// A Krylov configuration value is unusable (e.g. zero restart
    /// length).
    InvalidConfig(&'static str),
    /// The GMRES Hessenberg solve hit an exactly singular pivot.
    Breakdown {
        /// Iteration at which the breakdown occurred.
        at_iteration: usize,
        /// Relative residual estimate at the point of breakdown.
        residual: f64,
    },
    /// CG observed a direction of non-positive curvature: the operator is
    /// not symmetric positive definite.
    NotPositiveDefinite {
        /// Iteration at which the curvature test failed.
        at_iteration: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
            LinalgError::DimensionMismatch {
                expected,
                found,
                what,
            } => write!(
                f,
                "dimension mismatch for {what}: expected {expected}, found {found}"
            ),
            LinalgError::Singular { column, pivot } => write!(
                f,
                "matrix is numerically singular at column {column} (|pivot| = {pivot:.3e})"
            ),
            LinalgError::Diverged { column } => {
                write!(
                    f,
                    "lockstep lanes chose different pivot rows at column {column}"
                )
            }
            LinalgError::InvalidConfig(message) => f.write_str(message),
            LinalgError::Breakdown {
                at_iteration,
                residual,
            } => write!(
                f,
                "Krylov breakdown at iteration {at_iteration} \
                 (relative residual {residual:.3e})"
            ),
            LinalgError::NotPositiveDefinite { at_iteration } => write!(
                f,
                "operator is not positive definite (detected at CG iteration {at_iteration})"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_not_square() {
        let e = LinalgError::NotSquare { rows: 3, cols: 4 };
        assert_eq!(e.to_string(), "matrix is not square (3x4)");
    }

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch {
            expected: 8,
            found: 9,
            what: "right-hand side",
        };
        assert!(e.to_string().contains("right-hand side"));
        assert!(e.to_string().contains("expected 8"));
    }

    #[test]
    fn display_singular() {
        let e = LinalgError::Singular {
            column: 2,
            pivot: 1.0e-20,
        };
        assert!(e.to_string().contains("column 2"));
    }

    #[test]
    fn display_diverged() {
        let e = LinalgError::Diverged { column: 5 };
        assert!(e.to_string().contains("column 5"));
    }

    #[test]
    fn display_krylov_failures() {
        assert!(LinalgError::Breakdown {
            at_iteration: 3,
            residual: 0.5
        }
        .to_string()
        .contains('3'));
        assert!(LinalgError::NotPositiveDefinite { at_iteration: 2 }
            .to_string()
            .contains("positive definite"));
        assert_eq!(LinalgError::InvalidConfig("bad").to_string(), "bad");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<LinalgError>();
    }
}
