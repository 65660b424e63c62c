//! Matrix-free Krylov-subspace solvers: restarted GMRES(m) and conjugate
//! gradients over an abstract [`LinearOperator`].
//!
//! The transport solver's inner ("source") iteration is a fixed point
//!
//! ```text
//! φ ← D L⁻¹ (S φ + q)
//! ```
//!
//! whose error contracts by the scattering ratio `c = σ_s/σ_t` per sweep.
//! For the paper's artificial data (`c ≈ 0.5–0.7`) that is tolerable; for
//! scattering-dominated media (`c ≥ 0.9`) source iteration needs hundreds
//! of sweeps and effectively stalls as `c → 1`.  The standard cure —
//! used by SNAP itself and by production codes — is to treat one sweep as
//! a preconditioner and hand the within-group equation
//!
//! ```text
//! (I − D L⁻¹ S) φ = D L⁻¹ q
//! ```
//!
//! to a Krylov method that only needs the operator's *action*, i.e. one
//! transport sweep per iteration.  This module supplies those methods; the
//! sweep stays in `unsnap-core` behind the [`LinearOperator`] trait.  The
//! crate docs say which method to reach for.
//!
//! Each method has one entry, `solve(workspace, operator, b, x)`: the
//! caller owns the scratch ([`GmresWorkspace`], [`CgWorkspace`]), so a
//! driver that solves one same-shaped system per subdomain per outer
//! iteration allocates it once, and every residual-history entry is
//! streamed to [`LinearOperator::on_residual`] as it is produced.
//!
//! ```
//! use unsnap_linalg::krylov::{Gmres, GmresConfig, GmresWorkspace, MatrixOperator};
//! use unsnap_linalg::DenseMatrix;
//!
//! let a = DenseMatrix::from_fn(8, 8, |i, j| if i == j { 5.0 } else { 0.3 });
//! let b = vec![1.0; 8];
//! let mut op = MatrixOperator::new(a);
//! let mut x = vec![0.0; 8];
//! let outcome = Gmres::new(GmresConfig::default())
//!     .solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x)
//!     .unwrap();
//! assert!(outcome.converged);
//! assert!(outcome.final_residual < 1e-10);
//! ```

mod cg;
mod gmres;

pub use cg::{CgConfig, CgWorkspace, ConjugateGradient};
pub use gmres::{Gmres, GmresConfig, GmresWorkspace};

use crate::{DenseMatrix, LinalgError, Result};

/// A linear map `y = A x` on flat `f64` vectors, touched only through
/// its action — exactly what a transport sweep provides: one sweep
/// applies `L⁻¹` (the streaming-collision inverse) without `L` ever
/// being formed.  `apply` takes `&mut self` so implementations may keep
/// scratch state (sweep buffers, flux storage) without interior
/// mutability.
///
/// `apply` must be *linear* in `x` for the Krylov solvers built on top of
/// it to converge; nothing checks this at run time.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Compute `y = A x`.  Both slices have length [`LinearOperator::dim`].
    fn apply(&mut self, x: &[f64], y: &mut [f64]);

    /// Called after every residual-history entry, so an operator whose
    /// application is expensive (a transport sweep per matvec) can stream
    /// per-iteration residuals to a logger or an observer.  `iteration`
    /// is the number of Krylov iterations completed (0 for the
    /// initial-guess residual) and `relative_residual` the entry itself;
    /// the notifications mirror [`KrylovOutcome::residual_history`]
    /// entry for entry.  The default ignores them.
    fn on_residual(&mut self, iteration: usize, relative_residual: f64) {
        let _ = (iteration, relative_residual);
    }
}

/// A dense matrix viewed as a [`LinearOperator`] (used by tests and by
/// callers that assemble small systems explicitly).
pub struct MatrixOperator {
    matrix: DenseMatrix,
}

impl MatrixOperator {
    /// Wrap a square dense matrix.
    ///
    /// # Panics
    /// If the matrix is not square.
    pub fn new(matrix: DenseMatrix) -> Self {
        assert!(matrix.is_square(), "MatrixOperator needs a square matrix");
        Self { matrix }
    }

    /// Borrow the wrapped matrix.
    pub fn matrix(&self) -> &DenseMatrix {
        &self.matrix
    }
}

impl LinearOperator for MatrixOperator {
    fn dim(&self) -> usize {
        self.matrix.rows()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.matrix
            .matvec_into(x, y)
            .expect("MatrixOperator dimension mismatch");
    }
}

/// What a Krylov solve did: iteration counts and the residual trajectory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KrylovOutcome {
    /// Whether the relative-residual tolerance was met.
    pub converged: bool,
    /// Krylov iterations executed (Arnoldi/CG steps; excludes residual
    /// recomputations).
    pub iterations: usize,
    /// Total operator applications, including residual recomputations —
    /// for a sweep-preconditioned transport solve this is the sweep count.
    pub matvecs: usize,
    /// Relative residual after the initial guess and after every
    /// iteration.
    pub residual_history: Vec<f64>,
    /// Final relative residual `‖b − A x‖₂ / ‖b‖₂`.
    pub final_residual: f64,
}

impl KrylovOutcome {
    /// Outcome for a trivially solved system (zero right-hand side).
    fn trivial() -> Self {
        Self {
            converged: true,
            ..Self::default()
        }
    }
}

/// Check that `b` and `x` both have the operator's dimension `n`.
fn check_dimensions(n: usize, b: &[f64], x: &[f64]) -> Result<()> {
    for (what, found) in [("right-hand side", b.len()), ("initial guess", x.len())] {
        if found != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found,
                what,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_trivial_is_converged_and_free() {
        let o = KrylovOutcome::trivial();
        assert!(o.converged);
        assert_eq!(o.iterations, 0);
        assert_eq!(o.matvecs, 0);
        assert!(o.residual_history.is_empty());
    }

    #[test]
    fn matrix_operator_applies_matvec() {
        let m = DenseMatrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 3.0]).unwrap();
        let mut op = MatrixOperator::new(m);
        assert_eq!(op.dim(), 2);
        let mut y = [0.0; 2];
        op.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, [2.0, 3.0]);
        assert_eq!(op.matrix().rows(), 2);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_matrix_rejected() {
        let _ = MatrixOperator::new(DenseMatrix::zeros(2, 3));
    }

    #[test]
    fn mismatched_operands_name_themselves() {
        let err = check_dimensions(4, &[0.0; 3], &[0.0; 4]).unwrap_err();
        assert!(err.to_string().contains("right-hand side"));
        let err = check_dimensions(4, &[0.0; 4], &[0.0; 2]).unwrap_err();
        assert!(err.to_string().contains("initial guess"));
        assert!(check_dimensions(4, &[0.0; 4], &[0.0; 4]).is_ok());
    }
}
