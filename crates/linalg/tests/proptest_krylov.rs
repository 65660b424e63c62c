//! Property-based tests for the Krylov solvers.
//!
//! Strategy: generate random well-conditioned systems (strictly
//! diagonally dominant for GMRES; `BᵀB + shift·I` for CG) and check the
//! Krylov solutions against the dense LU factorisation, plus the invariants every iterative solver must
//! satisfy (small residuals, linearity in the right-hand side, honest
//! convergence reporting).

use proptest::prelude::*;

use unsnap_linalg::krylov::{
    CgConfig, CgWorkspace, ConjugateGradient, Gmres, GmresConfig, GmresWorkspace, MatrixOperator,
};
use unsnap_linalg::vector::{max_abs_diff, norm2, norm_inf};
use unsnap_linalg::{DenseMatrix, LinearSolver, LuSolver};

/// Strategy: a strictly diagonally dominant n×n matrix plus an RHS.
fn dominant_system(max_n: usize) -> impl Strategy<Value = (DenseMatrix, Vec<f64>)> {
    (2usize..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0f64..1.0, n * n),
            proptest::collection::vec(-10.0f64..10.0, n),
        )
            .prop_map(move |(entries, rhs)| {
                let mut a = DenseMatrix::from_vec(n, n, entries).unwrap();
                for i in 0..n {
                    let off: f64 = a
                        .row(i)
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, v)| v.abs())
                        .sum();
                    a[(i, i)] = off + 1.0 + i as f64 * 0.1;
                }
                (a, rhs)
            })
    })
}

/// Strategy: an SPD system `(BᵀB + n·I) x = b`.
fn spd_system(max_n: usize) -> impl Strategy<Value = (DenseMatrix, Vec<f64>)> {
    (2usize..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0f64..1.0, n * n),
            proptest::collection::vec(-5.0f64..5.0, n),
        )
            .prop_map(move |(entries, rhs)| {
                let b = DenseMatrix::from_vec(n, n, entries).unwrap();
                let mut a = b.transpose().matmul(&b).unwrap();
                for i in 0..n {
                    a[(i, i)] += n as f64;
                }
                (a, rhs)
            })
    })
}

fn tight_gmres(restart: usize) -> Gmres {
    Gmres::new(GmresConfig {
        restart,
        max_iterations: 600,
        tolerance: 1e-12,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gmres_matches_dense_lu((a, b) in dominant_system(20)) {
        let reference = LuSolver::new().solve(&a, &b).unwrap();
        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; b.len()];
        let outcome = tight_gmres(b.len()).solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x).unwrap();
        prop_assert!(outcome.converged, "history {:?}", outcome.residual_history);
        let scale = norm_inf(&reference).max(1.0);
        prop_assert!(max_abs_diff(&x, &reference) < 1e-8 * scale);
    }

    #[test]
    fn restarted_gmres_matches_dense_lu((a, b) in dominant_system(16), restart in 2usize..6) {
        let reference = LuSolver::new().solve(&a, &b).unwrap();
        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; b.len()];
        let outcome = tight_gmres(restart).solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x).unwrap();
        prop_assert!(outcome.converged);
        let scale = norm_inf(&reference).max(1.0);
        prop_assert!(max_abs_diff(&x, &reference) < 1e-7 * scale);
    }

    #[test]
    fn cg_matches_dense_lu((a, b) in spd_system(16)) {
        let reference = LuSolver::new().solve(&a, &b).unwrap();
        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; b.len()];
        let outcome = ConjugateGradient::new(CgConfig {
            max_iterations: 400,
            tolerance: 1e-12,
        })
        .solve(&mut CgWorkspace::new(), &mut op, &b, &mut x)
        .unwrap();
        prop_assert!(outcome.converged, "history {:?}", outcome.residual_history);
        let scale = norm_inf(&reference).max(1.0);
        prop_assert!(max_abs_diff(&x, &reference) < 1e-8 * scale);
    }

    #[test]
    fn gmres_residual_report_is_honest((a, b) in dominant_system(14)) {
        // The reported final residual must match an independently computed
        // ‖b − A x‖ / ‖b‖.
        let mut op = MatrixOperator::new(a);
        let mut x = vec![0.0; b.len()];
        let outcome = tight_gmres(8).solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x).unwrap();
        let ax = op.matrix().matvec(&x).unwrap();
        let r: Vec<f64> = ax.iter().zip(b.iter()).map(|(axi, bi)| bi - axi).collect();
        let b_norm = norm2(&b);
        prop_assume!(b_norm > 1e-9);
        let actual = norm2(&r) / b_norm;
        prop_assert!((actual - outcome.final_residual).abs() < 1e-9,
            "reported {} vs actual {actual}", outcome.final_residual);
    }

    #[test]
    fn gmres_is_linear_in_the_rhs((a, b) in dominant_system(12), alpha in 0.5f64..4.0) {
        let mut op = MatrixOperator::new(a);
        let mut x1 = vec![0.0; b.len()];
        tight_gmres(b.len()).solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x1).unwrap();
        let scaled: Vec<f64> = b.iter().map(|v| alpha * v).collect();
        let mut x2 = vec![0.0; b.len()];
        tight_gmres(b.len()).solve(&mut GmresWorkspace::new(), &mut op, &scaled, &mut x2).unwrap();
        let x1_scaled: Vec<f64> = x1.iter().map(|v| alpha * v).collect();
        let scale = norm_inf(&x1_scaled).max(1.0);
        prop_assert!(max_abs_diff(&x1_scaled, &x2) < 1e-7 * scale);
    }

    #[test]
    fn identity_needs_at_most_one_iteration(b in proptest::collection::vec(-100.0f64..100.0, 2..24)) {
        let n = b.len();
        let mut op = MatrixOperator::new(DenseMatrix::identity(n));
        let mut x = vec![0.0; n];
        let outcome = tight_gmres(n).solve(&mut GmresWorkspace::new(), &mut op, &b, &mut x).unwrap();
        prop_assert!(outcome.converged);
        prop_assert!(outcome.iterations <= 1);
        prop_assert!(max_abs_diff(&x, &b) < 1e-9 * norm_inf(&b).max(1.0));
    }
}
