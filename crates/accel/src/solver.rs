//! The DSA correction solver: one CG solve of the low-order error
//! equation per transport sweep, with buffer reuse and residual
//! streaming.
//!
//! The residual closure is this crate's tracing surface: `unsnap-core`
//! forwards each `(iteration, relative_residual)` pair to its
//! `RunObserver` as an accel-residual event, which the span fold of
//! every run renders as one `cg_iter` span per CG iteration nested
//! inside the `accel_cg` phase span — so the low-order solve
//! shows up in exported profiles with per-iteration resolution without
//! this crate depending on the observability stack.

use unsnap_linalg::krylov::{
    CgConfig, CgWorkspace, ConjugateGradient, KrylovOutcome, LinearOperator,
};
use unsnap_linalg::LinalgError;

use crate::operator::DiffusionOperator;

/// Tuning knobs for the low-order CG solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsaConfig {
    /// Relative residual target of the correction solve.  The low-order
    /// system is tiny next to a sweep, so a tight default is cheap.
    pub tolerance: f64,
    /// Hard cap on CG iterations per correction.
    pub max_iterations: usize,
}

impl Default for DsaConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-8,
            max_iterations: 200,
        }
    }
}

/// Adapter streaming the CG residual notifications into a caller
/// closure, so `unsnap-core` can forward them to its `RunObserver`
/// without this crate depending on it.
struct Streamed<'a, F: FnMut(usize, f64)> {
    op: &'a mut DiffusionOperator,
    on_residual: F,
}

impl<F: FnMut(usize, f64)> LinearOperator for Streamed<'_, F> {
    fn dim(&self) -> usize {
        self.op.dim()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.op.apply(x, y)
    }

    fn on_residual(&mut self, iteration: usize, relative_residual: f64) {
        (self.on_residual)(iteration, relative_residual);
    }
}

/// Owns one assembled [`DiffusionOperator`] plus the reusable CG scratch
/// and the correction vector, and solves one error equation per call.
///
/// Every solve starts from a zero initial guess, so repeated solves are
/// independent and bit-for-bit reproducible; the buffers (CG workspace
/// and correction vector) are allocated once and reused.
#[derive(Debug, Clone)]
pub struct DsaSolver {
    operator: DiffusionOperator,
    cg: ConjugateGradient,
    workspace: CgWorkspace,
    correction: Vec<f64>,
}

impl DsaSolver {
    /// Wrap an assembled operator with a configured CG solver.
    pub fn new(operator: DiffusionOperator, config: DsaConfig) -> Self {
        let dim = operator.dim();
        Self {
            operator,
            cg: ConjugateGradient::new(CgConfig {
                max_iterations: config.max_iterations,
                tolerance: config.tolerance,
            }),
            workspace: CgWorkspace::new(),
            correction: vec![0.0; dim],
        }
    }

    /// Solve `A e = rhs` from a zero guess, streaming every CG residual
    /// (iteration index, relative residual) through `on_residual`, and
    /// return the correction alongside the CG outcome.
    ///
    /// The correction slice is owned by the solver and valid until the
    /// next call.
    pub fn solve(
        &mut self,
        rhs: &[f64],
        on_residual: impl FnMut(usize, f64),
    ) -> Result<(&[f64], KrylovOutcome), LinalgError> {
        self.correction.fill(0.0);
        let outcome = self.cg.solve(
            &mut self.workspace,
            &mut Streamed {
                op: &mut self.operator,
                on_residual,
            },
            rhs,
            &mut self.correction,
        )?;
        Ok((&self.correction, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::DiffusionTopology;
    use unsnap_mesh::{StructuredGrid, UnstructuredMesh};

    fn solver(c: f64) -> DsaSolver {
        let mesh = UnstructuredMesh::from_structured(&StructuredGrid::cube(3, 1.0), 0.001);
        let topo = DiffusionTopology::from_mesh(&mesh);
        let n = topo.num_cells;
        let d = vec![1.0 / 3.0; n];
        let r = vec![1.0 - c; n];
        DsaSolver::new(
            DiffusionOperator::assemble(&topo, 1, &d, &r),
            DsaConfig::default(),
        )
    }

    #[test]
    fn solves_and_streams_every_residual() {
        let mut s = solver(0.9);
        let rhs = vec![1.0; s.operator.dim()];
        let mut streamed = Vec::new();
        let (correction, outcome) = s.solve(&rhs, |_, r| streamed.push(r)).unwrap();
        assert!(outcome.converged);
        assert!(correction.iter().all(|&e| e > 0.0));
        assert_eq!(streamed, outcome.residual_history);
    }

    #[test]
    fn repeated_solves_are_bitwise_stable() {
        let mut s = solver(0.99);
        let rhs: Vec<f64> = (0..s.operator.dim())
            .map(|i| ((i * 7) % 5) as f64 - 1.0)
            .collect();
        let (first, first_out) = {
            let (e, o) = s.solve(&rhs, |_, _| {}).unwrap();
            (e.to_vec(), o)
        };
        let (second, second_out) = s.solve(&rhs, |_, _| {}).unwrap();
        assert_eq!(first, second.to_vec());
        assert_eq!(first_out, second_out);
    }

    #[test]
    fn zero_rhs_is_a_zero_correction() {
        let mut s = solver(0.5);
        let rhs = vec![0.0; s.operator.dim()];
        let (correction, outcome) = s.solve(&rhs, |_, _| {}).unwrap();
        assert!(outcome.converged);
        assert!(correction.iter().all(|&e| e == 0.0));
    }
}
