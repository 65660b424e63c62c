//! Minimal BLAS-like building blocks used by the blocked LU factorisation.
//!
//! The MKL `dgesv` path the paper benchmarks is, internally, a blocked
//! right-looking LU built on Level-3 BLAS (`dtrsm` + `dgemm` on the
//! trailing matrix).  To stand in for it faithfully we implement the same
//! structure: the routines below operate on rectangular sub-blocks of a
//! row-major [`DenseMatrix`] addressed by row/column offsets, so the
//! factorisation in [`crate::lu::BlockedLuSolver`] reads exactly like the
//! textbook blocked algorithm.

use crate::matrix::DenseMatrix;

/// `C[c0.., d0..] -= A[a_rows, k] * B[k, b_cols]` — a GEMM update on a
/// trailing sub-block.
///
/// * `a` supplies the `m × kk` left factor starting at `(ar, ac)`,
/// * `b` supplies the `kk × n` right factor starting at `(br, bc)`,
/// * the product is subtracted from the `m × n` block of `c` starting at
///   `(cr, cc)`.
///
/// All three may alias the *same* matrix as long as the blocks do not
/// overlap; the blocked LU always updates the trailing matrix with panels
/// that are disjoint from it, which we enforce by copying the two panels
/// into scratch buffers first (the panels are small — `nb` columns — so the
/// copy is cheap and keeps the code safe without `unsafe`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_sub_block(
    m: usize,
    n: usize,
    kk: usize,
    a: &DenseMatrix,
    ar: usize,
    ac: usize,
    b: &DenseMatrix,
    br: usize,
    bc: usize,
    c: &mut DenseMatrix,
    cr: usize,
    cc: usize,
) {
    if m == 0 || n == 0 || kk == 0 {
        return;
    }
    // Copy panels out so we can mutate `c` freely even when it aliases.
    let mut a_panel = vec![0.0; m * kk];
    for i in 0..m {
        for k in 0..kk {
            a_panel[i * kk + k] = a[(ar + i, ac + k)];
        }
    }
    let mut b_panel = vec![0.0; kk * n];
    for k in 0..kk {
        for j in 0..n {
            b_panel[k * n + j] = b[(br + k, bc + j)];
        }
    }
    // i-k-j ordering: innermost loop is stride-1 over a row of C and a row
    // of the B panel.
    for i in 0..m {
        let crow = &mut c.row_mut(cr + i)[cc..cc + n];
        for k in 0..kk {
            let aik = a_panel[i * kk + k];
            if aik == 0.0 {
                continue;
            }
            let brow = &b_panel[k * n..k * n + n];
            for (cij, bkj) in crow.iter_mut().zip(brow.iter()) {
                *cij -= aik * bkj;
            }
        }
    }
}

/// Triangular solve with a unit-lower-triangular panel:
/// `B[r0.., c0..] <- L^{-1} B` where `L` is the `kk × kk` unit lower
/// triangle stored in `a` starting at `(lr, lc)` and `B` is the `kk × n`
/// block of `b` starting at `(br, bc)`.
///
/// This is the `dtrsm('L', 'L', 'N', 'U', ...)` call of the blocked LU.
#[allow(clippy::too_many_arguments)]
pub(crate) fn trsm_lower_unit_left(
    kk: usize,
    n: usize,
    a: &DenseMatrix,
    lr: usize,
    lc: usize,
    b: &mut DenseMatrix,
    br: usize,
    bc: usize,
) {
    if kk == 0 || n == 0 {
        return;
    }
    // Forward substitution, one block row at a time.  L is unit diagonal.
    for i in 0..kk {
        // Copy multipliers for row i of L (columns 0..i) to avoid aliasing
        // issues when a and b are the same matrix.
        let lrow: Vec<f64> = (0..i).map(|k| a[(lr + i, lc + k)]).collect();
        for k in 0..i {
            let lik = lrow[k];
            if lik == 0.0 {
                continue;
            }
            let bk: Vec<f64> = b.row(br + k)[bc..bc + n].to_vec();
            let bi = &mut b.row_mut(br + i)[bc..bc + n];
            for (bij, bkj) in bi.iter_mut().zip(bk.iter()) {
                *bij -= lik * bkj;
            }
        }
    }
}

/// Apply a row-permutation vector to a right-hand-side slice in place.
///
/// `ipiv[k] = p` means "at step k, row k was swapped with row p", i.e. the
/// LAPACK `IPIV` convention (0-based here).
pub(crate) fn apply_row_pivots(ipiv: &[usize], b: &mut [f64]) {
    for (k, &p) in ipiv.iter().enumerate() {
        if p != k {
            b.swap(k, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_sub_block_full_matrices() {
        // C -= A * B on full extents equals matmul.
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let mut c = DenseMatrix::zeros(2, 2);
        gemm_sub_block(2, 2, 2, &a, 0, 0, &b, 0, 0, &mut c, 0, 0);
        // c = -(a*b)
        assert_eq!(c.as_slice(), &[-19.0, -22.0, -43.0, -50.0]);
    }

    #[test]
    fn gemm_sub_block_offsets() {
        // Embed the same product in the lower-right 2x2 corner of a 3x3.
        let big = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 + 1.0);
        let mut c = DenseMatrix::zeros(3, 3);
        gemm_sub_block(2, 2, 1, &big, 1, 0, &big, 0, 1, &mut c, 1, 1);
        // A panel = rows 1..3, col 0 = [4, 7]; B panel = row 0, cols 1..3 = [2, 3]
        assert_eq!(c[(1, 1)], -8.0);
        assert_eq!(c[(1, 2)], -12.0);
        assert_eq!(c[(2, 1)], -14.0);
        assert_eq!(c[(2, 2)], -21.0);
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    fn gemm_degenerate_dims_are_noops() {
        let a = DenseMatrix::identity(2);
        let mut c = DenseMatrix::zeros(2, 2);
        gemm_sub_block(0, 2, 2, &a, 0, 0, &a, 0, 0, &mut c, 0, 0);
        gemm_sub_block(2, 0, 2, &a, 0, 0, &a, 0, 0, &mut c, 0, 0);
        gemm_sub_block(2, 2, 0, &a, 0, 0, &a, 0, 0, &mut c, 0, 0);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn trsm_solves_unit_lower_system() {
        // L = [[1,0],[2,1]]; B = L * X where X = [[1,2],[3,4]]
        // => B = [[1,2],[5,8]]; trsm should recover X.
        let mut combined = DenseMatrix::zeros(2, 4);
        combined[(0, 0)] = 1.0;
        combined[(1, 0)] = 2.0;
        combined[(1, 1)] = 1.0;
        combined[(0, 2)] = 1.0;
        combined[(0, 3)] = 2.0;
        combined[(1, 2)] = 5.0;
        combined[(1, 3)] = 8.0;
        let l = combined.clone();
        trsm_lower_unit_left(2, 2, &l, 0, 0, &mut combined, 0, 2);
        assert_eq!(combined[(0, 2)], 1.0);
        assert_eq!(combined[(0, 3)], 2.0);
        assert_eq!(combined[(1, 2)], 3.0);
        assert_eq!(combined[(1, 3)], 4.0);
    }

    #[test]
    fn pivots_apply_like_lapack() {
        // Swapping (0<->2) then (1<->1) then (2<->2).
        let ipiv = vec![2, 1, 2];
        let mut b = vec![10.0, 20.0, 30.0];
        apply_row_pivots(&ipiv, &mut b);
        assert_eq!(b, vec![30.0, 20.0, 10.0]);
    }
}
