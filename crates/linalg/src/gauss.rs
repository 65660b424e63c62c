//! Hand-written Gaussian-elimination solver.
//!
//! This is the Rust analogue of the paper's hand-written, vectorised
//! Gaussian-elimination routine (§IV-B): forward elimination with partial
//! pivoting followed by back substitution, with the elimination update
//! written as a tight loop over the contiguous tail of each row so the
//! compiler can auto-vectorise it (the original used OpenMP `simd`
//! constructs for the same effect).
//!
//! For the small, strongly diagonally dominant systems produced by the DG
//! transport assembly, this simple routine beats a general library
//! factorisation up to moderate matrix sizes because it has no blocking
//! overhead and the whole matrix stays in L1 cache; see Table II of the
//! paper and `unsnap-bench`'s `reproduce table2`.

use crate::error::LinalgError;
use crate::matrix::DenseMatrix;
use crate::solver::LinearSolver;
use crate::Result;

/// Pivot breakdown tolerance: a pivot smaller than this (in absolute value)
/// is treated as numerically singular.
pub const SINGULARITY_TOLERANCE: f64 = 1.0e-300;

/// Hand-written Gaussian elimination with partial pivoting.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussSolver {
    /// If `true`, skip the pivot search and eliminate in natural order.
    ///
    /// The DG transport matrices are diagonally dominant, so pivoting is
    /// not needed for stability; the paper's hand-written solver does not
    /// pivot.  Pivoting remains on by default here for general-purpose
    /// robustness, and the no-pivot path is selectable for a faithful
    /// reproduction of the original kernel.
    pub no_pivoting: bool,
}

impl GaussSolver {
    /// Create a solver with partial pivoting enabled.
    pub fn new() -> Self {
        Self { no_pivoting: false }
    }

    /// Create a solver that eliminates in natural order without pivoting,
    /// matching the paper's hand-written routine.
    pub fn without_pivoting() -> Self {
        Self { no_pivoting: true }
    }

    /// Forward elimination + back substitution on `(a, b)` in place.
    ///
    /// The element orders the sweep runs (1–3: n = 8, 27, 64) go to
    /// [`eliminate_fixed`], every other size to [`eliminate_dynamic`]; the
    /// two execute the same floating-point operations in the same order.
    fn eliminate(&self, a: &mut DenseMatrix, b: &mut [f64]) -> Result<()> {
        let n = a.rows();
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: b.len(),
                what: "right-hand side",
            });
        }
        match n {
            8 => eliminate_fixed::<8>(self.no_pivoting, a.as_mut_slice(), b),
            27 => eliminate_fixed::<27>(self.no_pivoting, a.as_mut_slice(), b),
            64 => eliminate_fixed::<64>(self.no_pivoting, a.as_mut_slice(), b),
            _ => eliminate_dynamic(self.no_pivoting, a, b),
        }
    }
}

/// The elimination for a run-time size: `a` is square and `b` as long.
fn eliminate_dynamic(no_pivoting: bool, a: &mut DenseMatrix, b: &mut [f64]) -> Result<()> {
    let n = a.rows();
    for k in 0..n {
        // Partial pivoting: find the largest entry in column k at or
        // below the diagonal and swap its row up.
        if !no_pivoting {
            let mut piv_row = k;
            let mut piv_val = a[(k, k)].abs();
            for i in (k + 1)..n {
                let v = a[(i, k)].abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = i;
                }
            }
            if piv_row != k {
                a.swap_rows(k, piv_row);
                b.swap(k, piv_row);
            }
        }

        let pivot = a[(k, k)];
        if pivot.abs() < SINGULARITY_TOLERANCE {
            return Err(LinalgError::Singular {
                column: k,
                pivot: pivot.abs(),
            });
        }
        let inv_pivot = 1.0 / pivot;

        // Eliminate column k from all rows below.  The inner loop runs
        // over the contiguous tail of each row (stride-1), which is the
        // loop the paper vectorises with `omp simd`.
        for i in (k + 1)..n {
            let factor = a[(i, k)] * inv_pivot;
            if factor == 0.0 {
                continue;
            }
            a[(i, k)] = 0.0;
            let (row_k, row_i) = a.two_rows_mut(k, i);
            for (aij, akj) in row_i[(k + 1)..].iter_mut().zip(row_k[(k + 1)..].iter()) {
                *aij -= factor * akj;
            }
            b[i] -= factor * b[k];
        }
    }

    // Back substitution, again with a stride-1 inner loop.
    for i in (0..n).rev() {
        let mut acc = b[i];
        let row = a.row(i);
        for (j, aij) in row.iter().enumerate().skip(i + 1) {
            acc -= aij * b[j];
        }
        b[i] = acc / a[(i, i)];
    }

    Ok(())
}

/// [`eliminate_dynamic`] for a size known at compile time: `a` holds the
/// `N × N` row-major matrix and `b` has `N` entries.
///
/// The pivot search, the row swap, the `factor == 0` skip, the singularity
/// test and the update order are those of the dynamic routine, statement
/// for statement, so the two agree bit for bit; what changes is that every
/// row is a `[f64; N]`, so no index is bounds-checked and every trip count
/// is a constant the compiler can unroll and vectorise against.
fn eliminate_fixed<const N: usize>(no_pivoting: bool, a: &mut [f64], b: &mut [f64]) -> Result<()> {
    let (rows, _) = a.as_chunks_mut::<N>();
    let rows: &mut [[f64; N]; N] = rows.try_into().expect("the matrix is N × N");
    let b: &mut [f64; N] = b.try_into().expect("the right-hand side has N entries");

    for k in 0..N {
        if !no_pivoting {
            let mut piv_row = k;
            let mut piv_val = rows[k][k].abs();
            for i in (k + 1)..N {
                let v = rows[i][k].abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = i;
                }
            }
            if piv_row != k {
                rows.swap(k, piv_row);
                b.swap(k, piv_row);
            }
        }

        let pivot = rows[k][k];
        if pivot.abs() < SINGULARITY_TOLERANCE {
            return Err(LinalgError::Singular {
                column: k,
                pivot: pivot.abs(),
            });
        }
        let inv_pivot = 1.0 / pivot;

        let (head, below) = rows.split_at_mut(k + 1);
        let row_k = &head[k];
        let b_k = b[k];
        for (row_i, b_i) in below.iter_mut().zip(&mut b[(k + 1)..]) {
            let factor = row_i[k] * inv_pivot;
            if factor == 0.0 {
                continue;
            }
            row_i[k] = 0.0;
            for j in (k + 1)..N {
                row_i[j] -= factor * row_k[j];
            }
            *b_i -= factor * b_k;
        }
    }

    for i in (0..N).rev() {
        let mut acc = b[i];
        for j in (i + 1)..N {
            acc -= rows[i][j] * b[j];
        }
        b[i] = acc / rows[i][i];
    }

    Ok(())
}

impl LinearSolver for GaussSolver {
    fn solve_in_place(&self, a: &mut DenseMatrix, b: &mut [f64]) -> Result<()> {
        self.eliminate(a, b)
    }

    fn name(&self) -> &'static str {
        "gaussian-elimination"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::max_abs_diff;
    use proptest::prelude::*;

    fn residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x).unwrap();
        max_abs_diff(&ax, b)
    }

    #[test]
    fn solves_identity() {
        let a = DenseMatrix::identity(6);
        let b: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let x = GaussSolver::new().solve(&a, &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solves_known_2x2() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = DenseMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let b = vec![5.0, 10.0];
        let x = GaussSolver::new().solve(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn solves_with_pivoting_needed() {
        // Leading zero forces a row swap.
        let a = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let b = vec![2.0, 3.0];
        let x = GaussSolver::new().solve(&a, &b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn no_pivot_variant_handles_dominant_systems() {
        let n = 16;
        let a = DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                20.0 + i as f64
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
        let x = GaussSolver::without_pivoting().solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn no_pivot_fails_on_zero_leading_pivot() {
        let a = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let b = vec![2.0, 3.0];
        let err = GaussSolver::without_pivoting().solve(&a, &b).unwrap_err();
        matches!(err, LinalgError::Singular { .. });
    }

    #[test]
    fn detects_singular_matrix() {
        let a =
            DenseMatrix::from_vec(3, 3, vec![1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 1.0, 0.0, 1.0]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let err = GaussSolver::new().solve(&a, &b).unwrap_err();
        assert!(matches!(err, LinalgError::Singular { .. }));
    }

    #[test]
    fn rejects_non_square() {
        let mut a = DenseMatrix::zeros(2, 3);
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            GaussSolver::new().solve_in_place(&mut a, &mut b),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_rhs_length_mismatch() {
        let mut a = DenseMatrix::identity(3);
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            GaussSolver::new().solve_in_place(&mut a, &mut b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn random_dominant_systems_have_small_residual() {
        // Deterministic pseudo-random fill (no rand dependency needed here).
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [4usize, 8, 16, 27, 64] {
            let mut a = DenseMatrix::from_fn(n, n, |_, _| 0.2 * next());
            for i in 0..n {
                a[(i, i)] = n as f64; // ensure dominance
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = GaussSolver::new().solve(&a, &b).unwrap();
            assert!(
                residual(&a, &x, &b) < 1e-9,
                "residual too large for n = {n}"
            );
        }
    }

    #[test]
    fn solve_does_not_mutate_inputs() {
        let a = DenseMatrix::from_vec(2, 2, vec![4.0, 1.0, 2.0, 3.0]).unwrap();
        let b = vec![1.0, 2.0];
        let a_before = a.clone();
        let b_before = b.clone();
        let _ = GaussSolver::new().solve(&a, &b).unwrap();
        assert_eq!(a, a_before);
        assert_eq!(b, b_before);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(GaussSolver::new().name(), "gaussian-elimination");
    }

    /// Run the first `N × N` entries of `entries` through the fixed-size
    /// and the dynamic elimination and require the same result, bit for
    /// bit — or the same error.
    fn fixed_matches_dynamic<const N: usize>(entries: &[f64], rhs: &[f64], no_pivoting: bool) {
        let a = DenseMatrix::from_vec(N, N, entries[..N * N].to_vec()).unwrap();
        let (mut a_dynamic, mut b_dynamic) = (a.clone(), rhs[..N].to_vec());
        let (mut a_fixed, mut b_fixed) = (a, rhs[..N].to_vec());
        let dynamic = eliminate_dynamic(no_pivoting, &mut a_dynamic, &mut b_dynamic);
        let fixed = eliminate_fixed::<N>(no_pivoting, a_fixed.as_mut_slice(), &mut b_fixed);
        match (dynamic, fixed) {
            (Ok(()), Ok(())) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&b_dynamic), bits(&b_fixed), "n = {N}: solution");
            }
            (
                Err(LinalgError::Singular { column, pivot }),
                Err(LinalgError::Singular {
                    column: fixed_column,
                    pivot: fixed_pivot,
                }),
            ) => {
                assert_eq!(column, fixed_column, "n = {N}: singular column");
                assert_eq!(pivot.to_bits(), fixed_pivot.to_bits(), "n = {N}: pivot");
            }
            (dynamic, fixed) => panic!("n = {N}: dynamic {dynamic:?}, fixed {fixed:?}"),
        }
    }

    /// Entries without diagonal dominance, three in ten of them exactly
    /// zero: pivoting swaps rows at most columns and many factors vanish.
    fn sparse_entries(len: usize) -> impl Strategy<Value = Vec<f64>> {
        let entry = (-1.0f64..1.0).prop_map(|v| if v.abs() < 0.3 { 0.0 } else { v });
        proptest::collection::vec(entry, len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fixed_size_elimination_is_the_dynamic_one_bit_for_bit(
            entries in sparse_entries(64 * 64),
            rhs in proptest::collection::vec(-10.0f64..10.0, 64),
            no_pivoting in 0usize..2,
        ) {
            let mut entries = entries;
            // Whatever the draw: a zero leading entry forces a row swap in
            // column 0, and a zero below it a skipped factor.
            entries[0] = 0.0;
            for n in [8, 27, 64] {
                entries[n] = 0.0;
            }
            let no_pivoting = no_pivoting == 1;
            fixed_matches_dynamic::<8>(&entries, &rhs, no_pivoting);
            fixed_matches_dynamic::<27>(&entries, &rhs, no_pivoting);
            fixed_matches_dynamic::<64>(&entries, &rhs, no_pivoting);
        }

        #[test]
        fn fixed_size_elimination_reports_the_same_singular_column(
            entries in sparse_entries(64 * 64),
            rhs in proptest::collection::vec(-10.0f64..10.0, 64),
            column in 0usize..8,
        ) {
            // A zero column stays zero under every row operation, so the
            // elimination must stop there (or earlier) with a zero pivot.
            fn check<const N: usize>(entries: &[f64], rhs: &[f64], column: usize) {
                let mut entries = entries[..N * N].to_vec();
                entries.iter_mut().skip(column).step_by(N).for_each(|v| *v = 0.0);
                let mut a = DenseMatrix::from_vec(N, N, entries.clone()).unwrap();
                let mut b = rhs[..N].to_vec();
                match GaussSolver::new().solve_in_place(&mut a, &mut b) {
                    Err(LinalgError::Singular { column: found, .. }) => assert!(found <= column),
                    other => panic!("n = {N}: expected a singular pivot, got {other:?}"),
                }
                fixed_matches_dynamic::<N>(&entries, rhs, false);
            }
            check::<8>(&entries, &rhs, column);
            check::<27>(&entries, &rhs, column);
            check::<64>(&entries, &rhs, column);
        }
    }

    #[test]
    fn fixed_size_dispatch_falls_back_for_every_other_size() {
        // 7 and 28 sit beside two monomorphised sizes; they, like every
        // other size, must go through (and agree with) the dynamic routine.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [7usize, 28] {
            let a = DenseMatrix::from_fn(n, n, |_, _| next());
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let (mut a_dynamic, mut b_dynamic) = (a.clone(), b.clone());
            eliminate_dynamic(false, &mut a_dynamic, &mut b_dynamic).unwrap();
            let x = GaussSolver::new().solve(&a, &b).unwrap();
            assert_eq!(x, b_dynamic, "n = {n}");
            assert!(residual(&a, &x, &b) < 1e-9, "n = {n}");
        }
    }
}
