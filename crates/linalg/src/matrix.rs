//! Row-major dense matrix used for the per-element DG systems.
//!
//! The matrices handled by UnSNAP are small (8×8 up to a few hundred
//! square), are assembled afresh for every element/angle/group triple, and
//! live entirely in cache.  A simple contiguous row-major `Vec<f64>` is the
//! right representation: rows are the unit of the inner loops in both the
//! assembly and the Gaussian-elimination solve, so row-contiguity gives the
//! stride-1 access the paper relies on for vectorisation.

use crate::error::LinalgError;
use crate::Result;

/// A dense, row-major, `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a generator function `f(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Create a matrix taking ownership of an existing row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: rows * cols,
                found: data.len(),
                what: "matrix buffer length",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable views of two *distinct* rows simultaneously.
    ///
    /// Used by pivoting factorisations to swap / update rows without
    /// cloning.  Panics if `a == b`.
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert!(a != b, "two_rows_mut requires distinct rows");
        let c = self.cols;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * c);
            (&mut lo[a * c..a * c + c], &mut hi[..c])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * c);
            let (rb, ra) = (&mut lo[b * c..b * c + c], &mut hi[..c]);
            (ra, rb)
        }
    }

    /// Swap rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let c = self.cols;
        let (ra, rb) = self.two_rows_mut(a, b);
        for k in 0..c {
            std::mem::swap(&mut ra[k], &mut rb[k]);
        }
    }

    /// Fill the whole matrix with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Reset to all zeros, keeping the allocation.
    pub fn clear(&mut self) {
        self.fill(0.0);
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// Returns an error if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
                what: "matvec operand",
            });
        }
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// Matrix–vector product into a caller-provided buffer (no allocation).
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
                what: "matvec operand",
            });
        }
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.rows,
                found: y.len(),
                what: "matvec output",
            });
        }
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi = acc;
        }
        Ok(())
    }

    /// Dense matrix–matrix product `C = A B`.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: other.rows,
                what: "matmul inner dimension",
            });
        }
        let mut c = DenseMatrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the innermost loop streaming over
        // contiguous rows of both B and C.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let crow = c.row_mut(i);
                for (cij, bkj) in crow.iter_mut().zip(brow.iter()) {
                    *cij += aik * bkj;
                }
            }
        }
        Ok(c)
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// `A += alpha * B` (element-wise).
    pub fn axpy(&mut self, alpha: f64, other: &DenseMatrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.rows * self.cols,
                found: other.rows * other.cols,
                what: "axpy operand",
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Frobenius norm `sqrt(sum a_ij^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// `true` if the matrix is strictly diagonally dominant by rows.
    ///
    /// The DG streaming-collision matrices assembled by UnSNAP are strongly
    /// diagonally dominant for physically sensible cross sections, which is
    /// why a solver without pivoting is viable in the original mini-app; we
    /// expose the predicate so tests and callers can check the assumption.
    pub fn is_diagonally_dominant(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            let diag = self[(i, i)].abs();
            let off: f64 = self
                .row(i)
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, v)| v.abs())
                .sum();
            if diag <= off {
                return false;
            }
        }
        true
    }

    /// Memory footprint of the matrix entries in bytes (FP64).
    ///
    /// This is the quantity reported in Table I of the paper.
    pub fn footprint_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = DenseMatrix::identity(3);
        assert!(i.is_square());
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn row_access_is_contiguous() {
        let m = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = DenseMatrix::from_fn(3, 2, |i, _| i as f64);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[2.0, 2.0]);
        assert_eq!(m.row(2), &[0.0, 0.0]);
        // swapping a row with itself is a no-op
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn two_rows_mut_both_orders() {
        let mut m = DenseMatrix::from_fn(4, 2, |i, _| i as f64);
        {
            let (a, b) = m.two_rows_mut(1, 3);
            assert_eq!(a, &[1.0, 1.0]);
            assert_eq!(b, &[3.0, 3.0]);
        }
        {
            let (a, b) = m.two_rows_mut(3, 1);
            assert_eq!(a, &[3.0, 3.0]);
            assert_eq!(b, &[1.0, 1.0]);
        }
    }

    #[test]
    #[should_panic]
    fn two_rows_mut_same_row_panics() {
        let mut m = DenseMatrix::zeros(2, 2);
        let _ = m.two_rows_mut(1, 1);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = m.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![6.0, 15.0]);
        assert!(m.matvec(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| (i + j) as f64 + 0.5);
        let i = DenseMatrix::identity(3);
        let prod = a.matmul(&i).unwrap();
        assert_eq!(prod, a);
        let prod2 = i.matmul(&a).unwrap();
        assert_eq!(prod2, a);
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = DenseMatrix::from_fn(2, 4, |i, j| (10 * i + j) as f64);
        let t = a.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), a);
        assert_eq!(t[(3, 1)], a[(1, 3)]);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-14);
        assert_eq!(a.inf_norm(), 4.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn diagonal_dominance() {
        let dom = DenseMatrix::from_fn(3, 3, |i, j| if i == j { 5.0 } else { 1.0 });
        assert!(dom.is_diagonally_dominant());
        let not = DenseMatrix::from_fn(3, 3, |_, _| 1.0);
        assert!(!not.is_diagonally_dominant());
        assert!(!DenseMatrix::zeros(2, 3).is_diagonally_dominant());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = DenseMatrix::identity(2);
        let b = DenseMatrix::from_fn(2, 2, |_, _| 1.0);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.as_slice(), &[3.0, 2.0, 2.0, 3.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 1.0, 1.0, 1.5]);
        let c = DenseMatrix::zeros(3, 3);
        assert!(a.axpy(1.0, &c).is_err());
    }

    #[test]
    fn footprint_matches_table1() {
        // Table I of the paper: order 1 => 8x8 => 0.5 kB; order 3 => 64x64 => 32 kB.
        assert_eq!(DenseMatrix::zeros(8, 8).footprint_bytes(), 512);
        assert_eq!(DenseMatrix::zeros(64, 64).footprint_bytes(), 32 * 1024);
    }

    #[test]
    fn fill_and_clear() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.fill(3.0);
        assert!(m.as_slice().iter().all(|&x| x == 3.0));
        m.clear();
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn display_does_not_panic() {
        let m = DenseMatrix::identity(2);
        let s = format!("{m}");
        assert!(s.contains("1.00000e0"));
    }
}
