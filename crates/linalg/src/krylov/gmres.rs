//! Restarted GMRES(m) over a matrix-free [`LinearOperator`].
//!
//! The implementation is the textbook Saad–Schultz method: an Arnoldi
//! process with modified Gram–Schmidt builds an orthonormal Krylov basis
//! `V` and an upper-Hessenberg projection `H`; Givens rotations maintain
//! the QR factorisation of `H` incrementally, so the least-squares residual
//! is available after every matrix–vector product without solving
//! anything.  When the basis reaches the restart length `m` (or the
//! residual estimate passes the tolerance), the minimiser is recovered by
//! one small back-substitution and the outer loop restarts from the true
//! residual.
//!
//! The Hessenberg matrix lives in a [`DenseMatrix`] and all vector
//! arithmetic uses the crate's `vector` kernels, keeping the hot inner
//! products on the same stride-1 primitives as the rest of the
//! workspace.

use super::{check_dimensions, KrylovOutcome, LinearOperator};
use crate::matrix::DenseMatrix;
use crate::vector::{axpy, dot, norm2, scale};
use crate::{LinalgError, Result};

/// Tuning knobs for [`Gmres`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresConfig {
    /// Restart length `m`: the Krylov basis is rebuilt after this many
    /// matrix–vector products.  Memory grows as `m` basis vectors.
    pub restart: usize,
    /// Hard cap on matrix–vector products across all restart cycles.
    pub max_iterations: usize,
    /// Relative residual target: convergence is declared when
    /// `‖b − A x‖₂ ≤ tolerance · ‖b‖₂`.
    pub tolerance: f64,
}

impl Default for GmresConfig {
    fn default() -> Self {
        Self {
            restart: 30,
            max_iterations: 500,
            tolerance: 1e-10,
        }
    }
}

/// Reusable scratch for [`Gmres`] solves: the Arnoldi basis, the
/// Hessenberg projection and the small rotation, residual and
/// back-substitution vectors.
///
/// A GMRES(m) solve allocates `m + 1` basis vectors of the operator
/// dimension; drivers that solve many same-shaped systems (one per
/// subdomain per outer iteration in the distributed block-Jacobi path)
/// hold one workspace per system and pass it to every [`Gmres::solve`]
/// so the Krylov space is allocated once and reused.  Every entry is
/// overwritten before it is read, so a reused workspace produces
/// bit-for-bit the same iterates, residual stream and outcome as a fresh
/// one — only the allocator traffic changes.
#[derive(Debug, Clone)]
pub struct GmresWorkspace {
    /// Arnoldi basis vectors, grown on demand up to `m + 1` slots.
    basis: Vec<Vec<f64>>,
    /// Hessenberg projection, `(m + 1) × m`.
    hess: DenseMatrix,
    /// Givens cosines.
    cs: Vec<f64>,
    /// Givens sines.
    sn: Vec<f64>,
    /// Rotated residual vector.
    g: Vec<f64>,
    /// True-residual scratch.
    residual: Vec<f64>,
    /// Arnoldi candidate vector.
    w: Vec<f64>,
    /// Back-substitution solution `R y = g` of a restart cycle.
    y: Vec<f64>,
}

impl Default for GmresWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl GmresWorkspace {
    /// An empty workspace; buffers are sized lazily by the first solve.
    pub fn new() -> Self {
        Self {
            basis: Vec::new(),
            hess: DenseMatrix::zeros(1, 1),
            cs: Vec::new(),
            sn: Vec::new(),
            g: Vec::new(),
            residual: Vec::new(),
            w: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Size every buffer for a restart length `m` and dimension `n`,
    /// reusing allocations when the shape is unchanged.
    fn prepare(&mut self, m: usize, n: usize) {
        if self.hess.rows() != m + 1 || self.hess.cols() != m {
            self.hess = DenseMatrix::zeros(m + 1, m);
        } else {
            self.hess.clear();
        }
        self.cs.clear();
        self.cs.resize(m, 0.0);
        self.sn.clear();
        self.sn.resize(m, 0.0);
        self.g.clear();
        self.g.resize(m + 1, 0.0);
        self.residual.clear();
        self.residual.resize(n, 0.0);
        self.w.clear();
        self.w.resize(n, 0.0);
        self.y.clear();
        self.y.resize(m, 0.0);
        self.basis.retain(|v| v.len() == n);
        self.basis.truncate(m + 1);
    }

    /// Ensure basis slot `i` exists (length `n`) and return it.
    fn basis_slot(&mut self, i: usize, n: usize) -> &mut Vec<f64> {
        while self.basis.len() <= i {
            self.basis.push(vec![0.0; n]);
        }
        &mut self.basis[i]
    }
}

/// Restarted GMRES(m) solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gmres {
    config: GmresConfig,
}

impl Gmres {
    /// Create a solver with the given configuration.
    pub fn new(config: GmresConfig) -> Self {
        Self { config }
    }

    /// Solve `A x = b`, using `x` as the initial guess and leaving the
    /// solution in it, while streaming every residual-history entry to
    /// [`LinearOperator::on_residual`].
    ///
    /// The Krylov basis and projection buffers live in `ws` and are
    /// reused across calls; the numerical behaviour is identical to a
    /// fresh workspace.
    pub fn solve(
        &self,
        ws: &mut GmresWorkspace,
        op: &mut dyn LinearOperator,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<KrylovOutcome> {
        let n = op.dim();
        check_dimensions(n, b, x)?;
        if self.config.restart == 0 {
            return Err(LinalgError::InvalidConfig(
                "GMRES restart length must be at least 1",
            ));
        }
        let m = self.config.restart.min(n.max(1));
        let b_norm = norm2(b);
        let target = if b_norm == 0.0 {
            // A zero right-hand side has the zero solution.
            x.fill(0.0);
            return Ok(KrylovOutcome::trivial());
        } else {
            self.config.tolerance * b_norm
        };

        let mut outcome = KrylovOutcome::default();
        ws.prepare(m, n);

        // True residual r = b − A x for the current iterate.
        let true_residual = |x: &mut [f64],
                             residual: &mut [f64],
                             op: &mut dyn LinearOperator,
                             outcome: &mut KrylovOutcome| {
            op.apply(x, residual);
            outcome.matvecs += 1;
            for (r, bi) in residual.iter_mut().zip(b.iter()) {
                *r = bi - *r;
            }
            norm2(residual)
        };

        let mut beta = true_residual(x, &mut ws.residual, op, &mut outcome);
        outcome.residual_history.push(beta / b_norm);
        op.on_residual(outcome.iterations, beta / b_norm);
        if beta <= target {
            outcome.converged = true;
            outcome.final_residual = beta / b_norm;
            return Ok(outcome);
        }

        while outcome.iterations < self.config.max_iterations {
            // Start a cycle from the normalised true residual.  Basis
            // slots are overwritten before they are read, so a reused
            // workspace behaves exactly like a fresh one.
            ws.basis_slot(0, n);
            ws.basis[0].copy_from_slice(&ws.residual);
            scale(1.0 / beta, &mut ws.basis[0]);
            ws.hess.clear();
            ws.g.fill(0.0);
            ws.g[0] = beta;

            let mut k = 0; // columns of H filled this cycle
            while k < m && outcome.iterations < self.config.max_iterations {
                // Arnoldi step: w = A v_k, orthogonalise against the basis.
                op.apply(&ws.basis[k], &mut ws.w);
                outcome.iterations += 1;
                outcome.matvecs += 1;
                let w_norm = norm2(&ws.w);
                for i in 0..=k {
                    let h = dot(&ws.w, &ws.basis[i]);
                    ws.hess[(i, k)] = h;
                    axpy(-h, &ws.basis[i], &mut ws.w);
                }
                let h_next = norm2(&ws.w);
                ws.hess[(k + 1, k)] = h_next;

                // Apply the accumulated Givens rotations to the new column,
                // then generate the rotation that annihilates h_next.
                for i in 0..k {
                    let (hi, hj) = (ws.hess[(i, k)], ws.hess[(i + 1, k)]);
                    ws.hess[(i, k)] = ws.cs[i] * hi + ws.sn[i] * hj;
                    ws.hess[(i + 1, k)] = -ws.sn[i] * hi + ws.cs[i] * hj;
                }
                let (c, s) = givens(ws.hess[(k, k)], ws.hess[(k + 1, k)]);
                ws.cs[k] = c;
                ws.sn[k] = s;
                ws.hess[(k, k)] = c * ws.hess[(k, k)] + s * ws.hess[(k + 1, k)];
                ws.hess[(k + 1, k)] = 0.0;
                ws.g[k + 1] = -s * ws.g[k];
                ws.g[k] *= c;

                let est = ws.g[k + 1].abs();
                outcome.residual_history.push(est / b_norm);
                op.on_residual(outcome.iterations, est / b_norm);
                k += 1;

                // Happy breakdown: A v_k lay (numerically) inside the
                // span of the basis.  The test is scaled by ‖A v_k‖ —
                // the basis is orthonormal, so that is the only scale
                // the subdiagonal can be compared against.
                if est <= target || h_next <= f64::EPSILON * w_norm.max(f64::MIN_POSITIVE) {
                    // Converged (or happy breakdown: the Krylov space is
                    // invariant and the projected solution is exact).
                    break;
                }
                ws.basis_slot(k, n);
                ws.basis[k].copy_from_slice(&ws.w);
                scale(1.0 / h_next, &mut ws.basis[k]);
            }

            // Back-substitute R y = g and expand x += V y.
            let y = &mut ws.y[..k];
            for i in (0..k).rev() {
                let mut acc = ws.g[i];
                for j in (i + 1)..k {
                    acc -= ws.hess[(i, j)] * y[j];
                }
                let diag = ws.hess[(i, i)];
                if diag.abs() <= f64::MIN_POSITIVE {
                    return Err(LinalgError::Breakdown {
                        at_iteration: outcome.iterations,
                        residual: outcome.residual_history.last().copied().unwrap_or(1.0),
                    });
                }
                y[i] = acc / diag;
            }
            for (j, &yj) in y.iter().enumerate() {
                axpy(yj, &ws.basis[j], x);
            }

            // Restart from the true residual (guards against drift in the
            // incremental estimate).
            beta = true_residual(x, &mut ws.residual, op, &mut outcome);
            if beta <= target {
                outcome.converged = true;
                break;
            }
        }

        // `residual_history` keeps the incremental estimates exactly as
        // they were streamed to `on_residual`; the *true* relative
        // residual of the returned iterate is reported separately here.
        outcome.final_residual = beta / b_norm;
        Ok(outcome)
    }
}

/// Stable Givens rotation annihilating `b` against `a`:
/// returns `(c, s)` with `c·a + s·b = r`, `−s·a + c·b = 0`.
fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() > b.abs() {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c.copysign(a.signum()), c * t * a.signum())
    } else {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t * b.signum(), s.copysign(b.signum()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::MatrixOperator;
    use crate::vector::max_abs_diff;
    use crate::{LinearSolver, LuSolver};

    fn dominant(n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + (i % 3) as f64
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        })
    }

    #[test]
    fn givens_annihilates() {
        for (a, b) in [
            (3.0, 4.0),
            (-2.0, 1.0),
            (5.0, 0.0),
            (0.0, 2.0),
            (-1.0, -7.0),
        ] {
            let (c, s) = givens(a, b);
            assert!((-s * a + c * b).abs() < 1e-12, "({a}, {b})");
            assert!((c * c + s * s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn solves_small_dominant_system_to_lu_accuracy() {
        let n = 12;
        let a = dominant(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let reference = LuSolver::new().solve(&a, &b).unwrap();

        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; n];
        let outcome = Gmres::new(GmresConfig {
            restart: n,
            max_iterations: 100,
            tolerance: 1e-12,
        })
        .solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x)
        .unwrap();
        assert!(outcome.converged, "history {:?}", outcome.residual_history);
        assert!(max_abs_diff(&x, &reference) < 1e-9);
        assert!(outcome.iterations <= n + 1);
    }

    #[test]
    fn full_memory_gmres_is_exact_in_n_steps() {
        // Unrestarted GMRES on an n-dimensional system converges in at
        // most n matvecs (exact arithmetic); allow slack for rounding.
        let n = 6;
        let a = dominant(n);
        let b = vec![1.0; n];
        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; n];
        let outcome = Gmres::new(GmresConfig {
            restart: n,
            max_iterations: 4 * n,
            tolerance: 1e-11,
        })
        .solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x)
        .unwrap();
        assert!(outcome.converged);
        assert!(outcome.iterations <= n + 1);
    }

    #[test]
    fn restarting_still_converges() {
        let n = 24;
        let a = dominant(n);
        let b = vec![1.0; n];
        let reference = LuSolver::new().solve(&a, &b).unwrap();
        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; n];
        let outcome = Gmres::new(GmresConfig {
            restart: 4,
            max_iterations: 400,
            tolerance: 1e-11,
        })
        .solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x)
        .unwrap();
        assert!(outcome.converged);
        assert!(max_abs_diff(&x, &reference) < 1e-8);
    }

    #[test]
    fn warm_start_reduces_work() {
        let n = 16;
        let a = dominant(n);
        let b = vec![2.0; n];
        let solver = Gmres::new(GmresConfig::default());

        let mut op = MatrixOperator::new(a);
        let mut cold = vec![0.0; n];
        let cold_out = solver
            .solve(&mut GmresWorkspace::new(), &mut op, &b, &mut cold)
            .unwrap();

        // Start from the converged answer: zero additional iterations.
        let mut warm = cold.clone();
        let warm_out = solver
            .solve(&mut GmresWorkspace::new(), &mut op, &b, &mut warm)
            .unwrap();
        assert!(warm_out.converged);
        assert_eq!(warm_out.iterations, 0);
        assert!(cold_out.iterations > 0);
    }

    #[test]
    fn huge_rhs_norm_does_not_trigger_false_breakdown() {
        // Regression: the happy-breakdown test was scaled by ‖b‖, so a
        // large right-hand side on a well-scaled operator collapsed
        // every cycle after one iteration.  The test must scale with
        // ‖A v‖ instead.
        let n = 24;
        let a = dominant(n);
        let b: Vec<f64> = (0..n).map(|i| 1e16 * (1.0 + (i % 3) as f64)).collect();
        let reference = LuSolver::new().solve(&a, &b).unwrap();
        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; n];
        let outcome = Gmres::new(GmresConfig {
            restart: 8,
            max_iterations: 200,
            tolerance: 1e-11,
        })
        .solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x)
        .unwrap();
        assert!(outcome.converged, "history {:?}", outcome.residual_history);
        let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max_abs_diff(&x, &reference) < 1e-8 * scale);
    }

    #[test]
    fn reused_workspace_is_bit_for_bit_identical_to_fresh() {
        // One workspace driven through several solves (including a
        // dimension change) must reproduce the fresh-workspace outcome
        // exactly — iterates, history, counters.
        let solver = Gmres::new(GmresConfig {
            restart: 5,
            max_iterations: 200,
            tolerance: 1e-11,
        });
        let mut ws = GmresWorkspace::new();
        for n in [12usize, 12, 7, 12] {
            let a = dominant(n);
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();

            let mut fresh_op = MatrixOperator::new(a.clone());
            let mut fresh_x = vec![0.0; n];
            let fresh = solver
                .solve(&mut GmresWorkspace::new(), &mut fresh_op, &b, &mut fresh_x)
                .unwrap();

            let mut op = MatrixOperator::new(a);
            let mut x = vec![0.0; n];
            let reused = solver.solve(&mut ws, &mut op, &b, &mut x).unwrap();

            assert_eq!(fresh, reused, "outcome diverged at n = {n}");
            assert_eq!(fresh_x, x, "iterate diverged at n = {n}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let mut op = MatrixOperator::new(dominant(5));
        let mut x = vec![3.0; 5];
        let outcome = Gmres::default()
            .solve(&mut GmresWorkspace::new(), &mut op, &[0.0; 5], &mut x)
            .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn residual_history_is_monotone_within_a_cycle() {
        let n = 10;
        let mut op = MatrixOperator::new(dominant(n));
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let outcome = Gmres::new(GmresConfig {
            restart: n,
            max_iterations: 50,
            tolerance: 1e-12,
        })
        .solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x)
        .unwrap();
        // GMRES minimises the residual over a growing space: within the
        // (single) cycle the estimates never increase.
        for pair in outcome.residual_history.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-14,
                "history {:?}",
                outcome.residual_history
            );
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut op = MatrixOperator::new(dominant(4));
        let mut x = vec![0.0; 4];
        let err = Gmres::default().solve(&mut GmresWorkspace::new(), &mut op, &[1.0; 3], &mut x);
        assert!(matches!(err, Err(LinalgError::DimensionMismatch { .. })));
        let mut x_bad = vec![0.0; 2];
        assert!(Gmres::default()
            .solve(&mut GmresWorkspace::new(), &mut op, &[1.0; 4], &mut x_bad)
            .is_err());
    }

    #[test]
    fn zero_restart_is_rejected() {
        let mut op = MatrixOperator::new(dominant(4));
        let mut x = vec![0.0; 4];
        let cfg = GmresConfig {
            restart: 0,
            ..GmresConfig::default()
        };
        assert!(matches!(
            Gmres::new(cfg).solve(&mut GmresWorkspace::new(), &mut op, &[1.0; 4], &mut x),
            Err(LinalgError::InvalidConfig(_))
        ));
    }

    #[test]
    fn iteration_cap_reports_unconverged() {
        let n = 32;
        let mut op = MatrixOperator::new(dominant(n));
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let outcome = Gmres::new(GmresConfig {
            restart: 2,
            max_iterations: 2,
            tolerance: 1e-14,
        })
        .solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x)
        .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.iterations, 2);
        assert!(outcome.final_residual > 0.0);
    }
}
