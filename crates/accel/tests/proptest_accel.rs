//! Property-based tests for the low-order diffusion operator and the
//! DSA correction solver.
//!
//! Strategy: generate random small meshes (cell counts, twist) and
//! random admissible physics (σ_t per group, scattering ratio), then
//! check the invariants the acceleration scheme rests on: the operator
//! is symmetric positive definite, the CG correction matches the dense
//! LU solution of the explicitly assembled matrix, and the correction
//! scales linearly with the residual.

use proptest::prelude::*;

use unsnap_accel::{DiffusionOperator, DiffusionTopology, DsaConfig, DsaSolver};
use unsnap_linalg::krylov::LinearOperator;
use unsnap_linalg::{DenseMatrix, LinearSolver, LuSolver};
use unsnap_mesh::{StructuredGrid, UnstructuredMesh};

/// A random small problem: mesh shape + twist, and per-group totals
/// plus a scattering ratio in (0, 1); the c = 1 edge is pinned by the
/// operator unit tests.
type Scenario = ((usize, usize, usize, f64), (usize, f64, f64));

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (1usize..=3, 1usize..=3, 1usize..=2, 0.0f64..0.001),
        (1usize..=2, 0.5f64..2.0, 0.1f64..1.0),
    )
}

fn build(
    nx: usize,
    ny: usize,
    nz: usize,
    twist: f64,
    ng: usize,
    sigma_t: f64,
    c: f64,
) -> DiffusionOperator {
    let grid = StructuredGrid::new(nx, ny, nz, 1.0, 1.0, 1.0);
    let mesh = UnstructuredMesh::from_structured(&grid, twist);
    let topo = DiffusionTopology::from_mesh(&mesh);
    let cells = topo.num_cells;
    let mut d = vec![0.0; cells * ng];
    let mut r = vec![0.0; cells * ng];
    for cell in 0..cells {
        for g in 0..ng {
            let st = sigma_t + 0.01 * g as f64;
            d[cell * ng + g] = 1.0 / (3.0 * st);
            r[cell * ng + g] = (1.0 - c) * st;
        }
    }
    DiffusionOperator::assemble(&topo, ng, &d, &r)
}

fn densify(op: &mut DiffusionOperator) -> DenseMatrix {
    let n = op.dim();
    let mut a = DenseMatrix::zeros(n, n);
    let mut x = vec![0.0; n];
    let mut y = vec![0.0; n];
    for j in 0..n {
        x[j] = 1.0;
        op.apply(&x, &mut y);
        for (i, &v) in y.iter().enumerate() {
            a[(i, j)] = v;
        }
        x[j] = 0.0;
    }
    a
}

proptest! {
    #[test]
    fn operator_is_symmetric_positive_definite(
        ((nx, ny, nz, twist), (ng, sigma_t, c)) in scenario()
    ) {
        let mut op = build(nx, ny, nz, twist, ng, sigma_t, c);
        let a = densify(&mut op);
        let n = a.rows();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-13);
            }
        }
        // Positive definiteness via a handful of deterministic probes.
        let mut y = vec![0.0; n];
        for seed in 0..4usize {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 13 + seed * 7) % 11) as f64 / 11.0 - 0.45)
                .collect();
            op.apply(&x, &mut y);
            let xtax: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
            let norm: f64 = x.iter().map(|v| v * v).sum();
            if norm > 0.0 {
                prop_assert!(xtax > 0.0, "xᵀAx = {xtax}");
            }
        }
    }

    #[test]
    fn cg_correction_matches_dense_lu(
        ((nx, ny, nz, twist), (ng, sigma_t, c)) in scenario(),
        rhs_seed in 0usize..100
    ) {
        let mut op = build(nx, ny, nz, twist, ng, sigma_t, c);
        let a = densify(&mut op);
        let n = a.rows();
        let rhs: Vec<f64> = (0..n)
            .map(|i| ((i * 17 + rhs_seed) % 9) as f64 / 9.0 - 0.3)
            .collect();
        let reference = LuSolver::new().solve(&a, &rhs).unwrap();

        let mut solver = DsaSolver::new(op, DsaConfig {
            tolerance: 1e-12,
            max_iterations: 10 * n.max(10),
        });
        let (correction, outcome) = solver.solve(&rhs, |_, _| {}).unwrap();
        prop_assert!(outcome.converged, "history {:?}", outcome.residual_history);
        let scale = reference.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        for (e, r) in correction.iter().zip(reference.iter()) {
            prop_assert!((e - r).abs() < 1e-8 * scale, "{e} vs {r}");
        }
    }

    #[test]
    fn correction_is_linear_in_the_residual(
        ((nx, ny, nz, twist), (ng, sigma_t, c)) in scenario(),
        alpha in 0.25f64..4.0
    ) {
        let op = build(nx, ny, nz, twist, ng, sigma_t, c);
        let n = op.dim();
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 5) % 7) as f64 / 7.0 + 0.1).collect();
        let scaled: Vec<f64> = rhs.iter().map(|v| alpha * v).collect();

        let mut solver = DsaSolver::new(op, DsaConfig {
            tolerance: 1e-13,
            max_iterations: 10 * n.max(10),
        });
        let base = solver.solve(&rhs, |_, _| {}).unwrap().0.to_vec();
        let scaled_out = solver.solve(&scaled, |_, _| {}).unwrap().0.to_vec();
        let scale = base.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        for (s, b) in scaled_out.iter().zip(base.iter()) {
            prop_assert!((s - alpha * b).abs() < 1e-6 * alpha * scale);
        }
    }
}
