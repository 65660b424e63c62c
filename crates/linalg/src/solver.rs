//! The [`LinearSolver`] abstraction and solver selection.
//!
//! The transport kernel assembles `A ψ = b` and then calls whichever solver
//! the run configuration selected.  The paper compares two back ends
//! (hand-written Gaussian elimination and MKL `dgesv`); this crate adds a
//! third (an unblocked reference LU) so the blocked "library" path can be
//! validated against a simpler implementation.

use crate::error::LinalgError;
use crate::gauss::GaussSolver;
use crate::lu::{BlockedLuSolver, LuSolver};
use crate::matrix::DenseMatrix;
use crate::Result;

/// A direct solver for small dense systems `A x = b`.
///
/// Implementations are allowed to overwrite the matrix and right-hand side
/// in the `*_in_place` variant — the transport kernel reassembles both for
/// every element/angle/group triple, so destroying them is free.
pub trait LinearSolver: Send + Sync {
    /// Solve `A x = b`, returning a freshly allocated solution vector.
    ///
    /// The default implementation copies `a` and `b` and defers to
    /// [`LinearSolver::solve_in_place`].
    fn solve(&self, a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>> {
        let mut a = a.clone();
        let mut x = b.to_vec();
        self.solve_in_place(&mut a, &mut x)?;
        Ok(x)
    }

    /// Solve `A x = b` in place: on exit `b` holds the solution and `a` may
    /// hold factorisation data.
    fn solve_in_place(&self, a: &mut DenseMatrix, b: &mut [f64]) -> Result<()>;

    /// How many `n × n` systems this solver can eliminate in lockstep
    /// ([`LinearSolver::solve_lanes_in_place`]), widest first; empty — the
    /// default — when it has no lockstep routine for that size.
    fn lane_widths(&self, _n: usize) -> &'static [usize] {
        &[]
    }

    /// Solve `lanes` independent `n × n` systems in lockstep, in place:
    /// entry `(i, j)` of system `l` is `a[(i * n + j) * lanes + l]`, its
    /// right-hand side `b[i * lanes + l]`, and on `Ok` `b` holds the
    /// solutions — each bit for bit what [`LinearSolver::solve_in_place`]
    /// gives that system alone.
    ///
    /// The systems share one row permutation, so
    /// [`LinalgError::Diverged`] is returned — with `a` and `b` partly
    /// eliminated — when they would pivot on different rows; the caller
    /// then solves them one by one.  Only `lanes` listed by
    /// [`LinearSolver::lane_widths`] are accepted.
    fn solve_lanes_in_place(
        &self,
        _n: usize,
        lanes: usize,
        _a: &mut [f64],
        _b: &mut [f64],
    ) -> Result<()> {
        Err(no_lockstep_routine(lanes))
    }

    /// Short human-readable name used in benchmark reports.
    fn name(&self) -> &'static str;
}

/// The error of [`LinearSolver::solve_lanes_in_place`] for a lane count
/// the solver does not list in [`LinearSolver::lane_widths`].
pub(crate) fn no_lockstep_routine(lanes: usize) -> LinalgError {
    LinalgError::DimensionMismatch {
        expected: 0,
        found: lanes,
        what: "lane count (no lockstep routine for it)",
    }
}

/// Which local dense solver the transport kernel should use.
///
/// This mirrors the paper's Table II comparison: `GaussianElimination` is
/// the hand-written routine, `Mkl` is the blocked LU standing in for Intel
/// MKL's `dgesv`, and `ReferenceLu` is an unblocked LAPACK-style LU kept as
/// a correctness baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Hand-written Gaussian elimination with partial pivoting
    /// (the paper's "GE" column).
    #[default]
    GaussianElimination,
    /// Unblocked, partially pivoted LU (LAPACK reference style).
    ReferenceLu,
    /// Panel-blocked, partially pivoted LU — the MKL `dgesv` stand-in
    /// (the paper's "MKL" column).
    Mkl,
}

impl SolverKind {
    /// Instantiate the corresponding solver object.
    pub fn build(self) -> Box<dyn LinearSolver> {
        match self {
            SolverKind::GaussianElimination => Box::new(GaussSolver::new()),
            SolverKind::ReferenceLu => Box::new(LuSolver::new()),
            SolverKind::Mkl => Box::new(BlockedLuSolver::default()),
        }
    }

    /// All selectable kinds, in report order.
    pub fn all() -> [SolverKind; 3] {
        [
            SolverKind::GaussianElimination,
            SolverKind::ReferenceLu,
            SolverKind::Mkl,
        ]
    }

    /// Name used in tables (matches the paper's column headers where
    /// applicable).
    pub fn label(&self) -> &'static str {
        match self {
            SolverKind::GaussianElimination => "GE",
            SolverKind::ReferenceLu => "LU",
            SolverKind::Mkl => "MKL",
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ge" | "gauss" | "gaussian" => Ok(SolverKind::GaussianElimination),
            "lu" | "reference" => Ok(SolverKind::ReferenceLu),
            "mkl" | "blocked" | "dgesv" => Ok(SolverKind::Mkl),
            other => Err(format!("unknown solver kind '{other}'")),
        }
    }
}

/// Estimated floating-point operation count for a dense `n × n` solve.
///
/// The paper quotes LAPACK's `dgesv` cost as `0.67 N³` operations (§II-C);
/// we use the standard `2/3 n³ + 2 n²` estimate (factorisation plus the two
/// triangular solves).
pub fn solve_flops(n: usize) -> f64 {
    let n = n as f64;
    (2.0 / 3.0) * n * n * n + 2.0 * n * n
}

/// Estimated floating-point operation count for assembling the `n × n`
/// DG system (reads of precomputed basis-pair integrals dominate; the
/// arithmetic is `O(n²)` multiply–adds over the matrix plus `O(n · faces)`
/// for the upwind face terms).
pub fn assembly_flops(n: usize, faces: usize) -> f64 {
    let n = n as f64;
    2.0 * n * n + 2.0 * n * faces as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_distinct_solvers() {
        for kind in SolverKind::all() {
            let s = kind.build();
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn labels_and_parse_round_trip() {
        for kind in SolverKind::all() {
            let parsed: SolverKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nonsense".parse::<SolverKind>().is_err());
        assert_eq!("dgesv".parse::<SolverKind>().unwrap(), SolverKind::Mkl);
    }

    #[test]
    fn default_is_gauss() {
        assert_eq!(SolverKind::default(), SolverKind::GaussianElimination);
    }

    #[test]
    fn flops_match_paper_example() {
        // §II-C: "in 3D where N = 8 this is over 300 FLOPS".
        let n8 = solve_flops(8);
        assert!(
            n8 > 300.0,
            "dgesv flops for N=8 should exceed 300, got {n8}"
        );
        // Cubic growth: doubling n should roughly multiply by 8 for large n.
        let r = solve_flops(256) / solve_flops(128);
        assert!((r - 8.0).abs() < 0.2);
    }

    #[test]
    fn assembly_flops_quadratic() {
        let r = assembly_flops(200, 6) / assembly_flops(100, 6);
        assert!((r - 4.0).abs() < 0.2);
    }

    #[test]
    fn all_kinds_solve_identity() {
        let a = DenseMatrix::identity(5);
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        for kind in SolverKind::all() {
            let x = kind.build().solve(&a, &b).unwrap();
            assert_eq!(x, b);
        }
    }

    #[test]
    fn display_uses_label() {
        assert_eq!(format!("{}", SolverKind::Mkl), "MKL");
    }
}
