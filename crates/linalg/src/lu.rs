//! LAPACK-style LU factorisations: an unblocked reference (`dgetf2`-like)
//! and a panel-blocked right-looking variant (`dgetrf`-like) that stands in
//! for Intel MKL's `dgesv` in the paper's Table II comparison.
//!
//! Both factorise `P A = L U` with partial (row) pivoting, then solve by
//! applying the permutation, forward substitution with unit-lower `L` and
//! back substitution with upper `U`.
//!
//! The blocked variant factorises `nb`-column panels with the unblocked
//! kernel, then updates the trailing matrix with a triangular solve and a
//! GEMM — exactly the structure a vendor library uses, and the reason the
//! library wins once the matrix is larger than L1 cache (order ≥ 4 in the
//! paper) while losing to the hand-written Gaussian elimination below that.

use crate::blas::{apply_row_pivots, gemm_sub_block, trsm_lower_unit_left};
use crate::error::LinalgError;
use crate::gauss::SINGULARITY_TOLERANCE;
use crate::matrix::DenseMatrix;
use crate::solver::LinearSolver;
use crate::Result;

/// The result of an LU factorisation: `P A = L U` packed LAPACK-style.
///
/// `L` (unit lower) and `U` (upper) share the storage of the factored
/// matrix; `ipiv[k] = p` records that row `k` was swapped with row `p` at
/// step `k`.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Packed L\U factors (row-major, same shape as the input matrix).
    pub lu: DenseMatrix,
    /// Pivot rows in LAPACK `IPIV` convention (0-based).
    pub ipiv: Vec<usize>,
    /// Number of row swaps actually performed (parity of the permutation).
    pub swaps: usize,
}

impl LuFactors {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A x = b` using the stored factors; `b` is overwritten with
    /// the solution.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<()> {
        let n = self.n();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: b.len(),
                what: "right-hand side",
            });
        }
        apply_row_pivots(&self.ipiv, b);
        // Forward substitution with unit-lower L.
        for i in 0..n {
            let row = self.lu.row(i);
            let mut acc = b[i];
            for j in 0..i {
                acc -= row[j] * b[j];
            }
            b[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= row[j] * b[j];
            }
            b[i] = acc / row[i];
        }
        Ok(())
    }

    /// Solve for a freshly allocated solution vector.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Determinant of the original matrix, computed from the factors.
    pub fn determinant(&self) -> f64 {
        let n = self.n();
        let mut det = if self.swaps.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        for i in 0..n {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Cheap condition estimate: `max |u_ii| / min |u_ii|`.
    ///
    /// Not a true condition number, but a useful smoke test that the DG
    /// matrices stay well conditioned across element orders.
    pub fn diagonal_condition_estimate(&self) -> f64 {
        let n = self.n();
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for i in 0..n {
            let d = self.lu[(i, i)].abs();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        if lo == 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }
}

/// Factorise in place with the unblocked (`dgetf2`-style) kernel over the
/// square sub-block starting at `(off, off)` with size `m`.
fn factor_unblocked_panel(
    a: &mut DenseMatrix,
    off: usize,
    m: usize,
    panel_cols: usize,
    ipiv: &mut [usize],
    swaps: &mut usize,
) -> Result<()> {
    let n_total = a.cols();
    for k in 0..panel_cols {
        let col = off + k;
        // Pivot search within the panel's rows.
        let mut piv_row = col;
        let mut piv_val = a[(col, col)].abs();
        for i in (col + 1)..(off + m) {
            let v = a[(i, col)].abs();
            if v > piv_val {
                piv_val = v;
                piv_row = i;
            }
        }
        ipiv[col] = piv_row;
        if piv_row != col {
            // Swap the *entire* rows so previously factored columns and the
            // trailing matrix are permuted consistently (LAPACK behaviour).
            a.swap_rows(col, piv_row);
            *swaps += 1;
        }
        let pivot = a[(col, col)];
        if pivot.abs() < SINGULARITY_TOLERANCE {
            return Err(LinalgError::Singular {
                column: col,
                pivot: pivot.abs(),
            });
        }
        let inv_pivot = 1.0 / pivot;
        // Compute multipliers and update the remaining panel columns.
        for i in (col + 1)..(off + m) {
            let mult = a[(i, col)] * inv_pivot;
            a[(i, col)] = mult;
            if mult == 0.0 {
                continue;
            }
            // Only update within the panel here; the trailing matrix is
            // updated by the caller (blocked) or implicitly when
            // panel_cols == full width (unblocked).
            let update_end = (off + panel_cols).min(n_total);
            let (row_k, row_i) = a.two_rows_mut(col, i);
            for j in (col + 1)..update_end {
                row_i[j] -= mult * row_k[j];
            }
        }
    }
    Ok(())
}

/// Unblocked LU factorisation with partial pivoting (reference
/// implementation, LAPACK `dgetf2` analogue).
pub fn factor_unblocked(a: &DenseMatrix) -> Result<LuFactors> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let mut lu = a.clone();
    let mut ipiv = vec![0usize; n];
    let mut swaps = 0usize;
    factor_unblocked_panel(&mut lu, 0, n, n, &mut ipiv, &mut swaps)?;
    Ok(LuFactors { lu, ipiv, swaps })
}

/// Blocked LU factorisation with partial pivoting (LAPACK `dgetrf`
/// analogue, right-looking variant) with panel width `nb`.
pub fn factor_blocked(a: &DenseMatrix, nb: usize) -> Result<LuFactors> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let nb = nb.max(1);
    if n <= nb {
        return factor_unblocked(a);
    }
    let mut lu = a.clone();
    let mut ipiv = vec![0usize; n];
    let mut swaps = 0usize;

    let mut col = 0usize;
    while col < n {
        let jb = nb.min(n - col);
        let rows_below = n - col;
        // Factor the current panel (columns col .. col+jb) over all rows
        // below the diagonal.
        factor_unblocked_panel(&mut lu, col, rows_below, jb, &mut ipiv, &mut swaps)?;

        let trailing = n - col - jb;
        if trailing > 0 {
            // Copy the small L11 (jb x jb) and L21 (trailing x jb) panels out
            // so the in-place updates below need no full-matrix clone.
            let l11 = DenseMatrix::from_fn(jb, jb, |i, j| lu[(col + i, col + j)]);
            // Triangular solve: U12 <- L11^{-1} A12.
            trsm_lower_unit_left(jb, trailing, &l11, 0, 0, &mut lu, col, col + jb);
            let l21 = DenseMatrix::from_fn(trailing, jb, |i, j| lu[(col + jb + i, col + j)]);
            let u12 = DenseMatrix::from_fn(jb, trailing, |i, j| lu[(col + i, col + jb + j)]);
            // Trailing update: A22 <- A22 - L21 * U12.
            gemm_sub_block(
                trailing,
                trailing,
                jb,
                &l21,
                0,
                0,
                &u12,
                0,
                0,
                &mut lu,
                col + jb,
                col + jb,
            );
        }
        col += jb;
    }

    Ok(LuFactors { lu, ipiv, swaps })
}

/// Unblocked LU solver (reference LAPACK style).
#[derive(Debug, Clone, Copy, Default)]
pub struct LuSolver;

impl LuSolver {
    /// Create a new reference LU solver.
    pub fn new() -> Self {
        Self
    }

    /// Factorise `a`, retaining the factors for repeated solves.
    pub fn factor(&self, a: &DenseMatrix) -> Result<LuFactors> {
        factor_unblocked(a)
    }
}

impl LinearSolver for LuSolver {
    fn solve_in_place(&self, a: &mut DenseMatrix, b: &mut [f64]) -> Result<()> {
        let factors = factor_unblocked(a)?;
        factors.solve_in_place(b)
    }

    fn name(&self) -> &'static str {
        "reference-lu"
    }
}

/// Panel-blocked LU solver — the MKL `dgesv` stand-in.
///
/// The default panel width of 32 keeps a panel of a 216×216 (order-5)
/// matrix within L1 cache on typical CPUs, mirroring the cache-blocking
/// rationale the paper gives for MKL's advantage at high element orders.
#[derive(Debug, Clone, Copy)]
pub struct BlockedLuSolver {
    /// Panel width (number of columns factored per block step).
    pub panel_width: usize,
}

impl Default for BlockedLuSolver {
    fn default() -> Self {
        Self { panel_width: 32 }
    }
}

impl BlockedLuSolver {
    /// Create a solver with an explicit panel width.
    pub fn with_panel_width(panel_width: usize) -> Self {
        Self {
            panel_width: panel_width.max(1),
        }
    }

    /// Factorise `a`, retaining the factors for repeated solves.
    pub fn factor(&self, a: &DenseMatrix) -> Result<LuFactors> {
        factor_blocked(a, self.panel_width)
    }
}

impl LinearSolver for BlockedLuSolver {
    fn solve_in_place(&self, a: &mut DenseMatrix, b: &mut [f64]) -> Result<()> {
        let factors = factor_blocked(a, self.panel_width)?;
        factors.solve_in_place(b)
    }

    fn name(&self) -> &'static str {
        "blocked-lu (mkl stand-in)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss::GaussSolver;
    use crate::vector::max_abs_diff;

    fn test_matrix(n: usize, seed: u64) -> DenseMatrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = DenseMatrix::from_fn(n, n, |_, _| next());
        for i in 0..n {
            a[(i, i)] += n as f64; // dominance
        }
        a
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect()
    }

    #[test]
    fn unblocked_matches_gauss() {
        for n in [1usize, 2, 5, 8, 27] {
            let a = test_matrix(n, 42 + n as u64);
            let b = rhs(n);
            let x_lu = LuSolver::new().solve(&a, &b).unwrap();
            let x_ge = GaussSolver::new().solve(&a, &b).unwrap();
            assert!(max_abs_diff(&x_lu, &x_ge) < 1e-9, "mismatch at n = {n}");
        }
    }

    #[test]
    fn blocked_matches_unblocked_across_panel_widths() {
        for n in [8usize, 16, 27, 64, 65] {
            let a = test_matrix(n, 7 + n as u64);
            let b = rhs(n);
            let reference = LuSolver::new().solve(&a, &b).unwrap();
            for nb in [1usize, 4, 8, 16, 32, 100] {
                let x = BlockedLuSolver::with_panel_width(nb).solve(&a, &b).unwrap();
                assert!(
                    max_abs_diff(&x, &reference) < 1e-8,
                    "mismatch n = {n}, nb = {nb}"
                );
            }
        }
    }

    #[test]
    fn residual_is_small_for_order_sizes() {
        // Matrix sizes of Table I: 8, 27, 64, 125.
        for n in [8usize, 27, 64, 125] {
            let a = test_matrix(n, 1000 + n as u64);
            let b = rhs(n);
            let x = BlockedLuSolver::default().solve(&a, &b).unwrap();
            let ax = a.matvec(&x).unwrap();
            assert!(max_abs_diff(&ax, &b) < 1e-8, "residual too large for n={n}");
        }
    }

    #[test]
    fn factors_reusable_for_multiple_rhs() {
        let n = 16;
        let a = test_matrix(n, 99);
        let factors = BlockedLuSolver::default().factor(&a).unwrap();
        for trial in 0..4 {
            let b: Vec<f64> = (0..n).map(|i| (i + trial) as f64).collect();
            let x = factors.solve(&b).unwrap();
            let ax = a.matvec(&x).unwrap();
            assert!(max_abs_diff(&ax, &b) < 1e-9);
        }
    }

    #[test]
    fn determinant_of_identity_and_permutation() {
        let i = DenseMatrix::identity(4);
        let f = factor_unblocked(&i).unwrap();
        assert!((f.determinant() - 1.0).abs() < 1e-15);

        // A permutation matrix with one swap has determinant -1.
        let mut p = DenseMatrix::identity(3);
        p.swap_rows(0, 1);
        let f = factor_unblocked(&p).unwrap();
        assert!((f.determinant() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn determinant_known_2x2() {
        let a = DenseMatrix::from_vec(2, 2, vec![3.0, 1.0, 4.0, 2.0]).unwrap();
        let f = factor_unblocked(&a).unwrap();
        assert!((f.determinant() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(matches!(
            factor_unblocked(&a),
            Err(LinalgError::Singular { .. })
        ));
        assert!(matches!(
            factor_blocked(&a, 1),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            factor_unblocked(&a),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            factor_blocked(&a, 4),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rhs_length_mismatch_rejected() {
        let a = DenseMatrix::identity(3);
        let f = factor_unblocked(&a).unwrap();
        assert!(f.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a =
            DenseMatrix::from_vec(3, 3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = LuSolver::new().solve(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!(max_abs_diff(&ax, &b) < 1e-12);
        let xb = BlockedLuSolver::with_panel_width(2).solve(&a, &b).unwrap();
        assert!(max_abs_diff(&x, &xb) < 1e-12);
    }

    #[test]
    fn condition_estimate_is_finite_for_dominant_matrices() {
        let a = test_matrix(27, 5);
        let f = factor_unblocked(&a).unwrap();
        let c = f.diagonal_condition_estimate();
        assert!(c.is_finite());
        assert!(c >= 1.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(LuSolver::new().name(), "reference-lu");
        assert_eq!(
            BlockedLuSolver::default().name(),
            "blocked-lu (mkl stand-in)"
        );
    }

    #[test]
    fn one_by_one_system() {
        let a = DenseMatrix::from_vec(1, 1, vec![4.0]).unwrap();
        let x = BlockedLuSolver::default().solve(&a, &[8.0]).unwrap();
        assert_eq!(x, vec![2.0]);
    }
}
