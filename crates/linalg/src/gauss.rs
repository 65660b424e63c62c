//! Hand-written Gaussian-elimination solver.
//!
//! This is the Rust analogue of the paper's hand-written, vectorised
//! Gaussian-elimination routine (§IV-B): forward elimination with partial
//! pivoting followed by back substitution, with the elimination update
//! written as a tight loop over the contiguous tail of each row so the
//! compiler can auto-vectorise it (the original used OpenMP `simd`
//! constructs for the same effect; on x86_64 the workspace builds for
//! x86-64-v3, so those loops run four f64 per AVX2 register).
//!
//! At the sizes the sweep runs (n = 8, 27, 64) the elimination takes two
//! pivot steps per pass over the trailing rows, and searches each pivot
//! column in the pass that last writes it (`eliminate_fixed`): every
//! entry of the matrix and the right-hand side still receives the
//! subtractions of the one-step routine (`eliminate_dynamic`) in the same
//! order, so the two agree bit for bit, but a trailing entry is loaded and
//! stored once per two steps and no column is re-read just to search it.
//!
//! For the small, strongly diagonally dominant systems produced by the DG
//! transport assembly, this simple routine beats a general library
//! factorisation up to moderate matrix sizes because it has no blocking
//! overhead and the whole matrix stays in L1 cache; see Table II of the
//! paper and `unsnap-bench`'s `reproduce table2`.

use crate::error::LinalgError;
use crate::matrix::DenseMatrix;
use crate::solver::{no_lockstep_routine, LinearSolver};
use crate::Result;

/// Pivot breakdown tolerance: a pivot smaller than this (in absolute value)
/// is treated as numerically singular.
pub(crate) const SINGULARITY_TOLERANCE: f64 = 1.0e-300;

/// Hand-written Gaussian elimination with partial pivoting.
///
/// The paper's routine does not pivot, the DG transport matrices being
/// diagonally dominant; this one always searches the pivot column, so it
/// is safe on any other matrix too.  The matrix size alone picks which of
/// the eliminations below runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussSolver;

impl GaussSolver {
    /// Create the solver.
    pub fn new() -> Self {
        Self
    }

    /// Forward elimination + back substitution on `(a, b)` in place.
    ///
    /// The element orders the sweep runs (1–3: n = 8, 27, 64) go to
    /// [`eliminate_fixed`], every other size to [`eliminate_dynamic`]; the
    /// two execute the same floating-point operations on every entry in the
    /// same order.
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
            8 => eliminate_fixed::<8>(a.as_mut_slice(), b),
            27 => eliminate_fixed::<27>(a.as_mut_slice(), b),
            64 => eliminate_fixed::<64>(a.as_mut_slice(), b),
            _ => eliminate_dynamic(a, b),
        }
    }
}

/// The elimination for a run-time size: `a` is square and `b` as long.
fn eliminate_dynamic(a: &mut DenseMatrix, b: &mut [f64]) -> Result<()> {
    let n = a.rows();
    for k in 0..n {
        // Partial pivoting: find the largest entry in column k at or
        // below the diagonal and swap its row up.
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

/// [`eliminate_dynamic`] for a size known at compile time, two pivot
/// steps per pass: `a` holds the `N × N` row-major matrix and `b` has `N`
/// entries.
///
/// For each pair of columns `k, k + 1`:
///
/// 1. *step k* — row `k` takes the pivot found for column `k`; every row
///    below computes its step-k factor but updates only column `k + 1`
///    and `b`, and the pivot of column `k + 1` is searched in that pass;
/// 2. row `k + 1` takes that pivot (its pending factor moves with it) and
///    then its own step-k update;
/// 3. every trailing row takes both updates in one pass over the row,
///    `a_ij = (a_ij − f_k·a_kj) − f_{k+1}·a_{k+1,j}`, and offers its new
///    entry of column `k + 2` to that column's pivot search.
///
/// An entry receives the subtractions of the dynamic routine in the same
/// order — a row's update reads only itself and the pivot rows, so
/// deferring it past the next swap changes no operand — and a zero factor
/// skips its term as the dynamic routine skips the row, so the two agree
/// bit for bit, in `b` and in every entry of `a`; so do the pivot rows
/// (the same first-maximum search, fed each column's final entries top to
/// bottom) and the `Singular` column and pivot.  An odd `N` ends with one
/// plain step.  A trailing entry is loaded and stored once per two steps
/// instead of twice, and no pass re-reads a column just to search it.
fn eliminate_fixed<const N: usize>(a: &mut [f64], b: &mut [f64]) -> Result<()> {
    let (rows, _) = a.as_chunks_mut::<N>();
    let rows: &mut [[f64; N]; N] = rows.try_into().expect("the matrix is N × N");
    let b: &mut [f64; N] = b.try_into().expect("the right-hand side has N entries");
    // Row i's step-k factor, pending until the trailing pass applies it.
    let mut factor = [0.0; N];
    let pivot_row = |k: usize, best: Option<(usize, f64)>| best.map_or(k, |(row, _)| row);

    // Column 0's pivot; every later column's is searched in the pass that
    // last writes it.
    let mut best = None;
    for (i, row_i) in rows.iter().enumerate() {
        offer_pivot(&mut best, i, row_i[0]);
    }
    let mut next = pivot_row(0, best);

    for k in (0..N - 1).step_by(2) {
        // Step k: the factors, column k + 1 and `b`; column k + 1's pivot.
        let inv_k = take_pivot(rows, b, &mut factor, k, next)?;
        let (a_k_k1, b_k) = (rows[k][k + 1], b[k]);
        let mut best = None;
        for (i, (row_i, b_i)) in rows.iter_mut().zip(b.iter_mut()).enumerate().skip(k + 1) {
            let f = row_i[k] * inv_k;
            factor[i] = f;
            if f != 0.0 {
                row_i[k] = 0.0;
                row_i[k + 1] -= f * a_k_k1;
                *b_i -= f * b_k;
            }
            offer_pivot(&mut best, i, row_i[k + 1]);
        }

        // Step k + 1: its pivot row takes the pending step-k update, then
        // every trailing row both, and column k + 2's pivot is searched.
        let inv_k1 = take_pivot(rows, b, &mut factor, k + 1, pivot_row(k + 1, best))?;
        let (upper, lower) = rows.split_at_mut(k + 1);
        if factor[k + 1] != 0.0 {
            subtract(
                &mut lower[0][(k + 2)..],
                factor[k + 1],
                &upper[k][(k + 2)..],
            );
        }
        let (head, below) = rows.split_at_mut(k + 2);
        let (row_k, row_k1) = (&head[k][(k + 2)..], &head[k + 1][(k + 2)..]);
        let b_k1 = b[k + 1];
        let mut best = None;
        for (i, ((row_i, b_i), &f_k)) in below
            .iter_mut()
            .zip(&mut b[(k + 2)..])
            .zip(&factor[(k + 2)..])
            .enumerate()
        {
            let f_k1 = row_i[k + 1] * inv_k1;
            if f_k1 != 0.0 {
                row_i[k + 1] = 0.0;
                *b_i -= f_k1 * b_k1;
            }
            let tail = &mut row_i[(k + 2)..];
            match (f_k != 0.0, f_k1 != 0.0) {
                (true, true) => {
                    for ((aij, akj), ak1j) in tail.iter_mut().zip(row_k).zip(row_k1) {
                        *aij = (*aij - f_k * akj) - f_k1 * ak1j;
                    }
                }
                (true, false) => subtract(tail, f_k, row_k),
                (false, true) => subtract(tail, f_k1, row_k1),
                (false, false) => {}
            }
            offer_pivot(&mut best, k + 2 + i, row_i[k + 2]);
        }
        next = pivot_row(k + 2, best);
    }
    if N % 2 == 1 {
        take_pivot(rows, b, &mut factor, N - 1, next)?;
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

/// Feed a column's pivot search one entry, top to bottom: `best` keeps
/// the first row holding the largest `|a|` — strict `>`, as in
/// [`eliminate_dynamic`], so a tie keeps the upper row and nothing
/// displaces a NaN.
fn offer_pivot(best: &mut Option<(usize, f64)>, row: usize, entry: f64) {
    let v = entry.abs();
    if best.is_none_or(|(_, max)| v > max) {
        *best = Some((row, v));
    }
}

/// Swap row `k` with pivot row `p` — its right-hand side and pending
/// factor with it — and return `1 / pivot`, or column `k`'s
/// [`LinalgError::Singular`].
fn take_pivot<const N: usize>(
    rows: &mut [[f64; N]; N],
    b: &mut [f64; N],
    factor: &mut [f64; N],
    k: usize,
    p: usize,
) -> Result<f64> {
    if p != k {
        rows.swap(k, p);
        b.swap(k, p);
        factor.swap(k, p);
    }
    let pivot = rows[k][k];
    if pivot.abs() < SINGULARITY_TOLERANCE {
        return Err(LinalgError::Singular {
            column: k,
            pivot: pivot.abs(),
        });
    }
    Ok(1.0 / pivot)
}

/// `row −= f · pivot_row`, entry by entry.
fn subtract(row: &mut [f64], f: f64, pivot_row: &[f64]) {
    for (aij, akj) in row.iter_mut().zip(pivot_row) {
        *aij -= f * akj;
    }
}

/// [`eliminate_fixed`] on `L` systems at once, one per SIMD lane: entry
/// `(i, j)` of system `l` is `a[(i * N + j) * L + l]`, its right-hand side
/// `b[i * L + l]`.
///
/// This is the batch §IV-B of the paper describes — "the elements of a
/// bucket × energy groups form a natural batch" — and could not use under
/// flat MPI, where a rank builds and solves one matrix at a time.  An
/// 8 × 8 system alone is too small for a vectorised row update to pay
/// (trip counts 7…1, a pivot search, a remainder loop); `L` consecutive
/// tasks of a bucket — the groups of one element, or of several, or one
/// group of several elements — are assembled side by side, and here every
/// loop of the elimination runs across them, so its trip count is `L`
/// whatever the column.
///
/// Each lane executes the scalar routine's floating-point operations in
/// the scalar routine's order, so its solution has the scalar routine's
/// bits.  Two things keep that true where the lanes could part:
///
/// * a row in which some lane's factor is zero takes a per-lane masked
///   update — the scalar routine skips that lane's row, and `x − 0·y` is
///   not always `x` (it turns `−0` into `+0` when `0·y` is `−0`, and any
///   `x` into NaN when `y` is not finite);
/// * the lanes share one row permutation, so when their pivot searches
///   name different rows the routine returns [`LinalgError::Diverged`]
///   before the swap, leaving `a` and `b` partly eliminated: the caller
///   re-assembles those systems and solves them one by one.
///
/// A pivot below the tolerance in any lane is that column's
/// [`LinalgError::Singular`], as it is for that system alone.
fn eliminate_lanes<const N: usize, const L: usize>(a: &mut [f64], b: &mut [f64]) -> Result<()> {
    let (entries, _) = a.as_chunks_mut::<L>();
    let (rows, _) = entries.as_chunks_mut::<N>();
    let rows: &mut [[[f64; L]; N]; N] = rows.try_into().expect("N × N entries of L lanes");
    let (b, _) = b.as_chunks_mut::<L>();
    let b: &mut [[f64; L]; N] = b.try_into().expect("N right-hand sides of L lanes");

    for k in 0..N {
        let mut piv_row = [k; L];
        let mut piv_val = rows[k][k].map(f64::abs);
        for (i, row_i) in rows.iter().enumerate().skip(k + 1) {
            for l in 0..L {
                let v = row_i[k][l].abs();
                if v > piv_val[l] {
                    piv_val[l] = v;
                    piv_row[l] = i;
                }
            }
        }
        let row = piv_row[0];
        if piv_row.iter().any(|&other| other != row) {
            return Err(LinalgError::Diverged { column: k });
        }
        if row != k {
            rows.swap(k, row);
            b.swap(k, row);
        }

        let pivot = rows[k][k];
        if let Some(p) = pivot.iter().find(|p| p.abs() < SINGULARITY_TOLERANCE) {
            return Err(LinalgError::Singular {
                column: k,
                pivot: p.abs(),
            });
        }
        let inv_pivot = pivot.map(|p| 1.0 / p);

        let (head, below) = rows.split_at_mut(k + 1);
        let row_k = &head[k];
        let b_k = b[k];
        for (row_i, b_i) in below.iter_mut().zip(&mut b[(k + 1)..]) {
            let mut factor = [0.0; L];
            let mut every_lane_updates = true;
            for l in 0..L {
                factor[l] = row_i[k][l] * inv_pivot[l];
                every_lane_updates &= factor[l] != 0.0;
            }
            if every_lane_updates {
                for j in (k + 1)..N {
                    // The pivot row's entry by value: the compiler then
                    // knows no store to `row_i` changes it, and runs the
                    // lanes as vectors.
                    let (pivot_row, row) = (row_k[j], &mut row_i[j]);
                    for l in 0..L {
                        row[l] -= factor[l] * pivot_row[l];
                    }
                }
                for l in 0..L {
                    b_i[l] -= factor[l] * b_k[l];
                }
            } else {
                for l in (0..L).filter(|&l| factor[l] != 0.0) {
                    for j in (k + 1)..N {
                        row_i[j][l] -= factor[l] * row_k[j][l];
                    }
                    b_i[l] -= factor[l] * b_k[l];
                }
            }
        }
    }

    for i in (0..N).rev() {
        let mut acc = b[i];
        for j in (i + 1)..N {
            for l in 0..L {
                acc[l] -= rows[i][j][l] * b[j][l];
            }
        }
        for l in 0..L {
            b[i][l] = acc[l] / rows[i][i][l];
        }
    }

    Ok(())
}

impl LinearSolver for GaussSolver {
    fn solve_in_place(&self, a: &mut DenseMatrix, b: &mut [f64]) -> Result<()> {
        self.eliminate(a, b)
    }

    /// Order-1 elements (8 nodes) only: at n = 27 and 64 lockstep does
    /// not pay, and one run of four groups in forty pivots differently
    /// across its groups on real matrices (none does at n = 8).  On an
    /// SSE2 build, against the one-step elimination this module had
    /// before `eliminate_fixed` took two pivot steps per pass, lanes
    /// gained under 1.3× per system there.  Against the two-step routine
    /// on the x86-64-v3 build they lose: 0.73–0.90× at n = 27 and
    /// 0.45–0.48× at n = 64, whose 4-lane matrix (128 KiB) spills the
    /// L1d a single 32 KiB system fits in; at n = 8 they gain 1.8–2.3×
    /// (cache-hot, 4 and 16 lanes, a 2-vCPU Xeon guest with a 48 KiB
    /// L1d).  16 and 4 are run lengths, not group counts: the sweep cuts a
    /// bucket's tasks into runs of 16, then of 4, then single tasks, and a
    /// run spans elements when an element has fewer groups (4 elements × 4
    /// groups on `converge-dsa`, 16 elements of one group in the
    /// group-outer orders).  A third width would only shorten the tail of
    /// single tasks a bucket leaves, so there is none.
    fn lane_widths(&self, n: usize) -> &'static [usize] {
        match n {
            8 => &[16, 4],
            _ => &[],
        }
    }

    fn solve_lanes_in_place(
        &self,
        n: usize,
        lanes: usize,
        a: &mut [f64],
        b: &mut [f64],
    ) -> Result<()> {
        for (len, expected, what) in [
            (a.len(), n * n * lanes, "lane matrix"),
            (b.len(), n * lanes, "lane right-hand side"),
        ] {
            if len != expected {
                return Err(LinalgError::DimensionMismatch {
                    expected,
                    found: len,
                    what,
                });
            }
        }
        match (n, lanes) {
            (8, 16) => eliminate_lanes::<8, 16>(a, b),
            (8, 4) => eliminate_lanes::<8, 4>(a, b),
            _ => Err(no_lockstep_routine(lanes)),
        }
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
        let mut next = stream(0x12345678);
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
    /// bit — solution and eliminated matrix — or the same error; returns
    /// the singular column both stopped at, if they did.
    fn fixed_matches_dynamic<const N: usize>(entries: &[f64], rhs: &[f64]) -> Option<usize> {
        let a = DenseMatrix::from_vec(N, N, entries[..N * N].to_vec()).unwrap();
        let (mut a_dynamic, mut b_dynamic) = (a.clone(), rhs[..N].to_vec());
        let (mut a_fixed, mut b_fixed) = (a, rhs[..N].to_vec());
        let dynamic = eliminate_dynamic(&mut a_dynamic, &mut b_dynamic);
        let fixed = eliminate_fixed::<N>(a_fixed.as_mut_slice(), &mut b_fixed);
        match (dynamic, fixed) {
            (Ok(()), Ok(())) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&b_dynamic), bits(&b_fixed), "n = {N}: solution");
                assert_eq!(
                    bits(a_dynamic.as_slice()),
                    bits(a_fixed.as_slice()),
                    "n = {N}: eliminated matrix"
                );
                None
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
                Some(column)
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
        ) {
            let mut entries = entries;
            // Whatever the draw: a zero leading entry forces a row swap in
            // column 0, and a zero below it a skipped factor.
            entries[0] = 0.0;
            for n in [8, 27, 64] {
                entries[n] = 0.0;
            }
            fixed_matches_dynamic::<8>(&entries, &rhs);
            fixed_matches_dynamic::<27>(&entries, &rhs);
            fixed_matches_dynamic::<64>(&entries, &rhs);
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
                fixed_matches_dynamic::<N>(&entries, rhs);
            }
            check::<8>(&entries, &rhs, column);
            check::<27>(&entries, &rhs, column);
            check::<64>(&entries, &rhs, column);
        }
    }

    /// A deterministic stream of values in `[-1, 1)`.
    fn stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    /// An `n × n` strictly column-dominant matrix (row-major): the pivot
    /// search picks the diagonal at every column, so its rows come back
    /// in order whatever order they are given in.
    fn dominant(n: usize, seed: u64) -> Vec<f64> {
        let mut next = stream(seed);
        (0..n * n)
            .map(|e| {
                if e % (n + 1) == 0 {
                    n as f64 + next()
                } else {
                    0.5 * next()
                }
            })
            .collect()
    }

    /// [`fixed_matches_dynamic`] at n = 8, 27 and 64 on what `case(n)`
    /// builds; the singular columns found.
    fn fixed_matches_dynamic_everywhere(
        case: impl Fn(usize) -> (Vec<f64>, Vec<f64>),
    ) -> [Option<usize>; 3] {
        let (a, b) = case(8);
        let at_8 = fixed_matches_dynamic::<8>(&a, &b);
        let (a, b) = case(27);
        let at_27 = fixed_matches_dynamic::<27>(&a, &b);
        let (a, b) = case(64);
        [at_8, at_27, fixed_matches_dynamic::<64>(&a, &b)]
    }

    /// The right-hand side of an `n × n` case.
    fn rhs(n: usize) -> Vec<f64> {
        let mut next = stream(n as u64 + 7);
        (0..n).map(|_| 10.0 * next()).collect()
    }

    /// Columns of both parities — the first and the second step of a
    /// pair — at the top and the bottom of an `n × n` matrix, each with
    /// `below` rows under it.
    fn columns(n: usize, below: usize) -> [usize; 6] {
        [0, 1, 2, 3, n - 2 - below, n - 1 - below]
    }

    #[test]
    fn fixed_size_pivot_ties_pick_the_first_row() {
        // Entries of ±1 and ±2: equal magnitudes in every column's
        // search, before the first update and (exactly) after it.
        fixed_matches_dynamic_everywhere(|n| {
            let mut next = stream(n as u64);
            let a = (0..n * n)
                .map(|_| next().signum() * if next() < 0.0 { 1.0 } else { 2.0 })
                .collect();
            (a, rhs(n))
        });
        // An exact tie under a small diagonal: rows c + 1 and c + 2 hold
        // ∓3 at column c and nothing left of it, so no earlier step
        // touches them; the search must take row c + 1.
        for which in 0..6 {
            fixed_matches_dynamic_everywhere(|n| {
                let c = columns(n, 2)[which];
                let mut a = dominant(n, 3);
                for i in c..c + 3 {
                    a[i * n..i * n + c].fill(0.0);
                }
                a[c * n + c] = 1.0;
                a[(c + 1) * n + c] = -3.0;
                a[(c + 2) * n + c] = 3.0;
                (a, rhs(n))
            });
        }
    }

    #[test]
    fn fixed_size_non_finite_entries_match_the_dynamic_elimination() {
        // NaN never wins a search and, on the diagonal, is never displaced;
        // ±∞ always wins and then zeroes every factor but its own NaN ones.
        let below = [(1, f64::NAN), (2, f64::INFINITY), (3, f64::NEG_INFINITY)];
        for (offset, value) in below.into_iter().chain([(0, f64::NAN)]) {
            for which in 0..6 {
                fixed_matches_dynamic_everywhere(|n| {
                    let c = columns(n, 3)[which];
                    let mut a = dominant(n, 5);
                    a[(c + offset) * n + c] = value;
                    (a, rhs(n))
                });
            }
        }
    }

    #[test]
    fn fixed_size_row_swap_at_an_odd_column() {
        // A dominant matrix with rows c and c + 2 exchanged swaps them back
        // at column c alone; with c − 1 and c + 1 exchanged too, both steps
        // of the pair swap, and the second carries a pending factor.
        for which in 0..3 {
            for distance in [2, 1] {
                for both in [false, true] {
                    fixed_matches_dynamic_everywhere(|n| {
                        let c = [1, 3, (n - 4) | 1][which];
                        let mut rows: Vec<Vec<f64>> =
                            dominant(n, 11).chunks(n).map(<[f64]>::to_vec).collect();
                        rows.swap(c, c + distance);
                        if both {
                            rows.swap(c - 1, c + 1);
                        }
                        (rows.concat(), rhs(n))
                    });
                }
            }
        }
    }

    #[test]
    fn fixed_size_zero_factor_in_one_step_of_a_pair() {
        // Diagonal 4 and a one at (k, k + 1) make every factor exact.  Below
        // the pair k, k + 1 the rows cycle through (f_k, f_k+1) =
        // (≠ 0, ≠ 0), (≠ 0, 0) — step k cancels column k + 1 exactly —,
        // (0, ≠ 0) and (0, 0); row k + 1 itself has f_k ≠ 0 or 0.  Their
        // tails are −0 where one pivot row holds 0 and the other −1, so a
        // skipped term taken anyway, −0 − (+0)·(−1) = +0, shows.
        let patterns = [(1.0, 1.0), (1.0, 0.25), (0.0, 1.0), (0.0, 0.0)];
        for pivot_row_factor in [0.0, 1.0] {
            for pair in [0, 2, 4] {
                fixed_matches_dynamic_everywhere(|n| {
                    let k = if pair == 4 { (n - 6) & !1 } else { pair };
                    let mut a: Vec<f64> = (0..n * n)
                        .map(|e| if e % (n + 1) == 0 { 4.0 } else { 0.0 })
                        .collect();
                    a[k * n + k + 1] = 1.0;
                    a[(k + 1) * n + k] = pivot_row_factor;
                    for j in k + 2..n {
                        let (at_k, at_k1) = [(-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)][j % 3];
                        a[k * n + j] = at_k;
                        a[(k + 1) * n + j] = at_k1;
                    }
                    for i in k + 2..n {
                        let (at_k, at_k1) = patterns[(i - k) % 4];
                        a[i * n + k] = at_k;
                        a[i * n + k + 1] = at_k1;
                        for j in (k + 2..n).filter(|&j| j != i) {
                            a[i * n + j] = if (i + j) % 5 == 0 { 0.5 } else { -0.0 };
                        }
                    }
                    (a, rhs(n))
                });
            }
        }
    }

    #[test]
    fn fixed_size_signed_zero_right_hand_sides() {
        // A skipped row keeps −0 and an updated one need not: −0 − (+0)
        // is −0 but −0 − (−0) is +0.  Three in four entries are zeros of
        // either sign, so most factors vanish and the sign of a zero in `b`
        // reaches the solution; a right-hand side of zeros alone has a
        // solution of zeros whose every sign is an operation's.
        for seed in 0..4 {
            fixed_matches_dynamic_everywhere(|n| {
                let mut a = dominant(n, seed);
                let mut next = stream(seed + 100);
                a.iter_mut()
                    .filter(|_| next() < 0.5)
                    .for_each(|v| *v = v.signum() * 0.0);
                for i in 0..n {
                    a[i * n + i] = n as f64;
                }
                let b = (0..n)
                    .map(|i| match (i + seed as usize) % 3 {
                        0 => -0.0,
                        1 => 0.0,
                        _ if seed < 2 => next(),
                        _ => -0.0,
                    })
                    .collect();
                (a, b)
            });
        }
    }

    #[test]
    fn fixed_size_singular_pivot_at_an_even_and_an_odd_column() {
        // A zero column of a dominant matrix stays zero, and a tiny
        // diagonal over it stays tiny: the elimination stops there.
        for which in 0..6 {
            for diagonal in [0.0, -0.0, 1.0e-301] {
                let stops = fixed_matches_dynamic_everywhere(|n| {
                    let c = columns(n, 0)[which];
                    let mut a = dominant(n, 13);
                    a.iter_mut().skip(c).step_by(n).for_each(|v| *v = 0.0);
                    a[c * n + c] = diagonal;
                    (a, rhs(n))
                });
                let expected = [8, 27, 64].map(|n| Some(columns(n, 0)[which]));
                assert_eq!(stops, expected, "column {which} of 6, diagonal {diagonal}");
            }
        }
    }

    /// `L` systems of 8 unknowns in lane layout.
    fn interleave<const L: usize>(systems: &[(Vec<f64>, Vec<f64>)]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(systems.len(), L);
        let mut a = vec![0.0; 64 * L];
        let mut b = vec![0.0; 8 * L];
        for (l, (matrix, rhs)) in systems.iter().enumerate() {
            (0..64).for_each(|entry| a[entry * L + l] = matrix[entry]);
            (0..8).for_each(|i| b[i * L + l] = rhs[i]);
        }
        (a, b)
    }

    /// Eliminate `systems` in lockstep and one by one: every lane's
    /// solution must have the scalar routine's bits, and a singular lane
    /// must stop the batch at the scalar routine's column and pivot.
    fn lanes_match_fixed<const L: usize>(systems: &[(Vec<f64>, Vec<f64>)]) {
        let (mut a, mut b) = interleave::<L>(systems);
        let lanes = eliminate_lanes::<8, L>(&mut a, &mut b);
        let alone: Vec<_> = systems
            .iter()
            .map(|(matrix, rhs)| {
                let (mut matrix, mut rhs) = (matrix.clone(), rhs.clone());
                eliminate_fixed::<8>(&mut matrix, &mut rhs).map(|()| rhs)
            })
            .collect();
        match lanes {
            Ok(()) => {
                for (l, alone) in alone.iter().enumerate() {
                    let alone = alone.as_ref().expect("a lane the batch solved");
                    for (i, x) in alone.iter().enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            b[i * L + l].to_bits(),
                            "L = {L}: lane {l}, x[{i}]"
                        );
                    }
                }
            }
            Err(LinalgError::Singular { column, pivot }) => {
                let first = alone
                    .iter()
                    .filter_map(|alone| match alone {
                        Err(LinalgError::Singular { column, pivot }) => {
                            Some((*column, pivot.to_bits()))
                        }
                        _ => None,
                    })
                    .min()
                    .expect("a singular lane");
                assert_eq!(first.0, column, "L = {L}: singular column");
                assert!(alone.contains(&Err(LinalgError::Singular { column, pivot })));
            }
            Err(other) => panic!("L = {L}: {other:?}"),
        }
    }

    /// `lanes` systems that pivot alike whatever their entries: a strictly
    /// column-dominant matrix (elimination keeps it so, and the dominant
    /// entry of column k is the pivot search's choice) whose rows every
    /// lane shuffles the same way (`shuffle` 56 leaves them in place).
    /// Off-diagonal entries and right-hand sides come from `entries` and
    /// `rhs` — three in ten exactly zero —, every other zero negative.
    fn dominant_shuffled(
        entries: &[f64],
        rhs: &[f64],
        lanes: usize,
        shuffle: usize,
    ) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut order: Vec<usize> = (0..8).collect();
        order.rotate_left(shuffle % 8);
        order.swap(shuffle / 8, 7);
        (0..lanes)
            .map(|l| {
                let entries = &entries[64 * l..64 * (l + 1)];
                let mut matrix = vec![0.0; 64];
                for (row, &from) in order.iter().enumerate() {
                    for j in 0..8 {
                        let v = entries[from * 8 + j];
                        matrix[row * 8 + j] = match (from == j, v == 0.0) {
                            (true, _) => 9.0 + v,
                            (false, true) if (from + j) % 2 == 0 => -0.0,
                            (false, _) => v,
                        };
                    }
                }
                let rhs = rhs[8 * l..8 * (l + 1)].iter().enumerate();
                let rhs = rhs.map(|(i, &v)| if v == 0.0 && i % 2 == 0 { -0.0 } else { v });
                (matrix, rhs.collect())
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn lanes_elimination_is_the_fixed_size_one_bit_for_bit(
            entries in sparse_entries(64 * 16),
            mass in proptest::collection::vec(0.01f64..0.02, 64),
            sigma in proptest::collection::vec(1.0f64..20.0, 16),
            rhs in proptest::collection::vec(-10.0f64..10.0, 8 * 16),
            sparse_rhs in sparse_entries(8 * 16),
            shuffle in 0usize..64,
        ) {
            // The sweep's systems: σ_l·M − S with one M and S for every
            // lane (no row ever swaps) ...
            let transport: Vec<_> = (0..16)
                .map(|l| {
                    let matrix = (0..64)
                        .map(|e| sigma[l] * (mass[e] + f64::from(e % 9 == 0)) - 0.1 * entries[e])
                        .collect();
                    (matrix, rhs[8 * l..8 * (l + 1)].to_vec())
                })
                .collect();
            // ... and unrelated ones that share nothing but their swaps.
            let unrelated = dominant_shuffled(&entries, &sparse_rhs, 16, shuffle);
            for systems in [&transport, &unrelated] {
                lanes_match_fixed::<4>(&systems[..4]);
                lanes_match_fixed::<8>(&systems[..8]);
                lanes_match_fixed::<16>(systems);
            }
        }

        #[test]
        fn lanes_elimination_reports_a_singular_lane_at_its_column(
            entries in sparse_entries(64 * 16),
            rhs in proptest::collection::vec(-10.0f64..10.0, 8 * 16),
            column in 0usize..8,
            lane in 0usize..4,
        ) {
            // A zero column stays zero and never wins a pivot search, so
            // the lanes agree on every row until that lane's pivot is 0.
            let mut systems = dominant_shuffled(&entries, &rhs, 16, 7 * 8);
            systems[lane].0.iter_mut().skip(column).step_by(8).for_each(|v| *v = 0.0);
            let (mut a, mut b) = interleave::<4>(&systems[..4]);
            let singular = LinalgError::Singular { column, pivot: 0.0 };
            prop_assert_eq!(eliminate_lanes::<8, 4>(&mut a, &mut b), Err(singular));
            lanes_match_fixed::<4>(&systems[..4]);
            lanes_match_fixed::<16>(&systems);
        }
    }

    #[test]
    fn lanes_that_pivot_on_different_rows_diverge_at_that_column() {
        // Every lane is 10·I, so column k pivots on row k — but for one
        // lane, whose row k + 1 holds a larger entry there.  (The last
        // column has one candidate row: no two lanes can disagree on it.)
        for k in 0..7 {
            let identity: Vec<f64> = (0..64)
                .map(|e| if e % 9 == 0 { 10.0 } else { 0.0 })
                .collect();
            let mut systems = vec![(identity, vec![1.0; 8]); 16];
            systems[2].0[(k + 1) * 8 + k] = 20.0;
            let (mut a, mut b) = interleave::<16>(&systems);
            let diverged = Err(LinalgError::Diverged { column: k });
            assert_eq!(eliminate_lanes::<8, 16>(&mut a, &mut b), diverged);
            let (mut a, mut b) = interleave::<4>(&systems[..4]);
            assert_eq!(
                GaussSolver::new().solve_lanes_in_place(8, 4, &mut a, &mut b),
                diverged
            );
        }
    }

    #[test]
    fn lanes_keep_the_sign_of_a_zero_where_one_lane_skips_a_row() {
        // Row 1 of every lane but one has a zero factor at column 0, and a
        // right-hand side of −0: `−0 − (+0)·(−1)` would be +0, and +0 / 2
        // is not the −0 the scalar routine — which skips the row — returns.
        let diagonal: Vec<f64> = (0..64).map(|e| f64::from(e % 9 == 0) * 2.0).collect();
        let rhs = vec![-1.0, -0.0, 3.0, 1.0, 2.0, 1.0, 4.0, 5.0];
        let mut systems = vec![(diagonal, rhs); 16];
        systems[1].0[8] = 0.5;
        systems[1].0[8 + 5] = -0.0;
        let (mut a, mut b) = interleave::<16>(&systems);
        eliminate_lanes::<8, 16>(&mut a, &mut b).unwrap();
        assert_eq!(b[16].to_bits(), (-0.0f64).to_bits());
        assert_eq!(b[16 + 1], 0.125);
        lanes_match_fixed::<16>(&systems);
    }

    #[test]
    fn lanes_entry_accepts_exactly_its_widths() {
        let solver = GaussSolver::new();
        assert!(solver.lane_widths(27).is_empty() && solver.lane_widths(64).is_empty());
        let identity: Vec<f64> = (0..64)
            .map(|e| if e % 9 == 0 { 2.0 } else { 0.0 })
            .collect();
        for &lanes in solver.lane_widths(8) {
            let mut a: Vec<f64> = identity.iter().flat_map(|&v| vec![v; lanes]).collect();
            let mut b = vec![1.0; 8 * lanes];
            solver
                .solve_lanes_in_place(8, lanes, &mut a, &mut b)
                .unwrap();
            assert!(b.iter().all(|&x| x == 0.5));
            let short = solver.solve_lanes_in_place(8, lanes, &mut a[1..], &mut b);
            assert!(matches!(short, Err(LinalgError::DimensionMismatch { .. })));
        }
        let (mut a, mut b) = (vec![0.0; 64 * 8], vec![0.0; 8 * 8]);
        let unknown = solver.solve_lanes_in_place(8, 8, &mut a, &mut b);
        assert!(matches!(
            unknown,
            Err(LinalgError::DimensionMismatch { found: 8, .. })
        ));
        let lu = crate::LuSolver::new();
        assert!(lu.lane_widths(8).is_empty());
        assert!(lu
            .solve_lanes_in_place(8, 4, &mut a[..256], &mut b[..32])
            .is_err());
    }

    #[test]
    fn fixed_size_dispatch_falls_back_for_every_other_size() {
        // 7 and 28 sit beside two monomorphised sizes; they, like every
        // other size, must go through (and agree with) the dynamic routine.
        let mut next = stream(0x9E3779B97F4A7C15);
        for n in [7usize, 28] {
            let a = DenseMatrix::from_fn(n, n, |_, _| next());
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let (mut a_dynamic, mut b_dynamic) = (a.clone(), b.clone());
            eliminate_dynamic(&mut a_dynamic, &mut b_dynamic).unwrap();
            let x = GaussSolver::new().solve(&a, &b).unwrap();
            assert_eq!(x, b_dynamic, "n = {n}");
            assert!(residual(&a, &x, &b) < 1e-9, "n = {n}");
        }
    }
}
