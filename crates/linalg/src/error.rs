//! Error type shared by all solvers in the crate.

use std::fmt;

/// Errors produced by the dense linear-algebra kernels.
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
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<LinalgError>();
    }
}
