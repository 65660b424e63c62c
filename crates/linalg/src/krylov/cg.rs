//! Conjugate gradients over a matrix-free [`LinearOperator`].
//!
//! CG is the method of choice when the operator is symmetric positive
//! definite: it needs only three working vectors (GMRES stores the whole
//! Krylov basis) and one matrix–vector product per iteration.  The
//! transport within-group operator `I − L⁻¹S` is *not* symmetric, so the
//! sweep-preconditioned solver uses GMRES — CG is provided for the
//! symmetric systems that appear elsewhere (diffusion synthetic
//! acceleration, mass-matrix solves) and as an independent cross-check in
//! the property tests.

use super::{check_dimensions, KrylovOutcome, LinearOperator};
use crate::vector::{axpy, dot, norm2};
use crate::{LinalgError, Result};

/// Tuning knobs for [`ConjugateGradient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgConfig {
    /// Hard cap on iterations (one matvec each).
    pub max_iterations: usize,
    /// Relative residual target: converged when
    /// `‖b − A x‖₂ ≤ tolerance · ‖b‖₂`.
    pub tolerance: f64,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            max_iterations: 500,
            tolerance: 1e-10,
        }
    }
}

/// Reusable scratch for [`ConjugateGradient`] solves: the residual,
/// search-direction and operator-product vectors.
///
/// CG needs three working vectors of the operator dimension; drivers
/// that solve many same-shaped systems — one low-order DSA correction
/// per transport sweep in `unsnap-accel` — hold one workspace and pass
/// it to every [`ConjugateGradient::solve`] so the buffers are
/// allocated once and reused.  Every entry is overwritten before it
/// is read, so a reused workspace produces bit-for-bit the same
/// iterates, residual stream and outcome as a fresh one (including
/// across dimension changes) — only the allocator traffic differs.
#[derive(Debug, Clone, Default)]
pub struct CgWorkspace {
    /// Residual vector `r = b − A x`.
    r: Vec<f64>,
    /// Search direction `p`.
    p: Vec<f64>,
    /// Operator product `A p`.
    ap: Vec<f64>,
}

impl CgWorkspace {
    /// An empty workspace; buffers are sized lazily by the first solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every buffer for dimension `n`, reusing allocations when the
    /// shape is unchanged.
    fn prepare(&mut self, n: usize) {
        self.r.clear();
        self.r.resize(n, 0.0);
        self.p.clear();
        self.p.resize(n, 0.0);
        self.ap.clear();
        self.ap.resize(n, 0.0);
    }
}

/// Conjugate-gradient solver for symmetric positive definite operators.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConjugateGradient {
    config: CgConfig,
}

impl ConjugateGradient {
    /// Create a solver with the given configuration.
    pub fn new(config: CgConfig) -> Self {
        Self { config }
    }

    /// Solve `A x = b` for SPD `A`, using `x` as the initial guess and
    /// leaving the solution in it, while streaming every residual-history
    /// entry to [`LinearOperator::on_residual`] (the initial-guess
    /// residual fires with iteration 0).
    ///
    /// The three working vectors live in `ws` and are reused across
    /// calls; the numerical behaviour is identical to a fresh workspace,
    /// including across dimension changes.
    pub fn solve(
        &self,
        ws: &mut CgWorkspace,
        op: &mut dyn LinearOperator,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<KrylovOutcome> {
        let n = op.dim();
        check_dimensions(n, b, x)?;
        let b_norm = norm2(b);
        if b_norm == 0.0 {
            x.fill(0.0);
            return Ok(KrylovOutcome::trivial());
        }
        let target = self.config.tolerance * b_norm;

        let mut outcome = KrylovOutcome::default();
        ws.prepare(n);
        op.apply(x, &mut ws.r);
        outcome.matvecs += 1;
        for (ri, bi) in ws.r.iter_mut().zip(b.iter()) {
            *ri = bi - *ri;
        }
        ws.p.copy_from_slice(&ws.r);
        let mut rho = dot(&ws.r, &ws.r);
        let mut res_norm = rho.sqrt();
        outcome.residual_history.push(res_norm / b_norm);
        op.on_residual(outcome.iterations, res_norm / b_norm);

        while res_norm > target && outcome.iterations < self.config.max_iterations {
            op.apply(&ws.p, &mut ws.ap);
            outcome.iterations += 1;
            outcome.matvecs += 1;
            let p_ap = dot(&ws.p, &ws.ap);
            if p_ap <= 0.0 {
                // A direction of non-positive curvature: the operator is
                // not SPD (or rounding has destroyed it).
                return Err(LinalgError::NotPositiveDefinite {
                    at_iteration: outcome.iterations,
                });
            }
            let alpha = rho / p_ap;
            axpy(alpha, &ws.p, x);
            axpy(-alpha, &ws.ap, &mut ws.r);
            let rho_next = dot(&ws.r, &ws.r);
            let beta = rho_next / rho;
            for (pi, &ri) in ws.p.iter_mut().zip(ws.r.iter()) {
                *pi = ri + beta * *pi;
            }
            rho = rho_next;
            res_norm = rho.sqrt();
            outcome.residual_history.push(res_norm / b_norm);
            op.on_residual(outcome.iterations, res_norm / b_norm);
        }

        outcome.converged = res_norm <= target;
        outcome.final_residual = res_norm / b_norm;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::MatrixOperator;
    use crate::vector::max_abs_diff;
    use crate::{DenseMatrix, LinearSolver, LuSolver};

    /// A symmetric positive definite matrix: Bᵀ B + n·I.
    fn spd(n: usize) -> DenseMatrix {
        let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 7) as f64 / 7.0 - 0.4);
        let mut a = b.transpose().matmul(&b).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn matches_lu_on_spd_system() {
        let n = 20;
        let a = spd(n);
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let reference = LuSolver::new().solve(&a, &b).unwrap();
        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; n];
        let outcome = ConjugateGradient::new(CgConfig {
            max_iterations: 200,
            tolerance: 1e-12,
        })
        .solve(&mut CgWorkspace::new(), &mut op, &b, &mut x)
        .unwrap();
        assert!(outcome.converged);
        assert!(max_abs_diff(&x, &reference) < 1e-8);
    }

    #[test]
    fn converges_within_n_iterations_on_identity() {
        let mut op = MatrixOperator::new(DenseMatrix::identity(8));
        let b = vec![3.0; 8];
        let mut x = vec![0.0; 8];
        let outcome = ConjugateGradient::default()
            .solve(&mut CgWorkspace::new(), &mut op, &b, &mut x)
            .unwrap();
        assert!(outcome.converged);
        assert!(outcome.iterations <= 1);
        assert!(max_abs_diff(&x, &b) < 1e-12);
    }

    #[test]
    fn rejects_indefinite_operator() {
        // diag(1, -1) has a negative-curvature direction.
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, -1.0]).unwrap();
        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; 2];
        let result = ConjugateGradient::default().solve(
            &mut CgWorkspace::new(),
            &mut op,
            &[0.0, 1.0],
            &mut x,
        );
        assert!(matches!(
            result,
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn reused_workspace_is_bit_for_bit_identical_to_fresh() {
        // One workspace driven through several solves (including
        // dimension changes) must reproduce the fresh-workspace outcome
        // exactly — iterates, history, counters.
        let solver = ConjugateGradient::new(CgConfig {
            max_iterations: 300,
            tolerance: 1e-12,
        });
        let mut ws = CgWorkspace::new();
        for n in [16usize, 16, 9, 16] {
            let a = spd(n);
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();

            let mut fresh_op = MatrixOperator::new(a.clone());
            let mut fresh_x = vec![0.0; n];
            let fresh = solver
                .solve(&mut CgWorkspace::new(), &mut fresh_op, &b, &mut fresh_x)
                .unwrap();

            let mut op = MatrixOperator::new(a);
            let mut x = vec![0.0; n];
            let reused = solver.solve(&mut ws, &mut op, &b, &mut x).unwrap();

            assert_eq!(fresh, reused, "outcome diverged at n = {n}");
            assert_eq!(fresh_x, x, "iterate diverged at n = {n}");
        }
    }

    #[test]
    fn observed_solve_streams_the_residual_history() {
        struct Watched {
            op: MatrixOperator,
            seen: Vec<(usize, f64)>,
        }
        impl LinearOperator for Watched {
            fn dim(&self) -> usize {
                self.op.dim()
            }
            fn apply(&mut self, x: &[f64], y: &mut [f64]) {
                self.op.apply(x, y)
            }
            fn on_residual(&mut self, iteration: usize, relative_residual: f64) {
                self.seen.push((iteration, relative_residual));
            }
        }

        let n = 12;
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut watched = Watched {
            op: MatrixOperator::new(spd(n)),
            seen: Vec::new(),
        };
        let outcome = ConjugateGradient::default()
            .solve(&mut CgWorkspace::new(), &mut watched, &b, &mut x)
            .unwrap();
        assert!(outcome.converged);
        // One notification per residual-history entry, starting with the
        // iteration-0 initial residual.
        let streamed: Vec<f64> = watched.seen.iter().map(|&(_, r)| r).collect();
        assert_eq!(streamed, outcome.residual_history);
        assert_eq!(watched.seen[0].0, 0);
        assert_eq!(watched.seen.last().unwrap().0, outcome.iterations);
    }

    #[test]
    fn zero_rhs_is_trivial() {
        let mut op = MatrixOperator::new(spd(4));
        let mut x = vec![1.0; 4];
        let outcome = ConjugateGradient::default()
            .solve(&mut CgWorkspace::new(), &mut op, &[0.0; 4], &mut x)
            .unwrap();
        assert!(outcome.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut op = MatrixOperator::new(spd(4));
        let mut x = vec![0.0; 4];
        assert!(ConjugateGradient::default()
            .solve(&mut CgWorkspace::new(), &mut op, &[1.0; 5], &mut x)
            .is_err());
    }

    #[test]
    fn iteration_cap_reports_unconverged() {
        let n = 30;
        let mut op = MatrixOperator::new(spd(n));
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let outcome = ConjugateGradient::new(CgConfig {
            max_iterations: 2,
            tolerance: 1e-15,
        })
        .solve(&mut CgWorkspace::new(), &mut op, &b, &mut x)
        .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.iterations, 2);
    }
}
