//! Dense GF(2) matrices and Gaussian elimination.

use crate::{BitVec, DimensionMismatch};
use std::fmt;

/// A dense matrix over GF(2), stored as one [`BitVec`] per row.
///
/// Suited to elimination-heavy workloads (rank, solving, null spaces) on
/// matrices with up to a few thousand rows and columns — e.g. the
/// 1022×8176 CCSDS C2 parity-check matrix.
///
/// # Example
///
/// ```
/// use gf2::DenseMatrix;
///
/// let a = DenseMatrix::identity(4);
/// assert_eq!(a.rank(), 4);
/// assert_eq!(a.mul(&a), a);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<BitVec>,
}

/// Result of reducing a matrix to reduced row-echelon form.
///
/// Returned by [`DenseMatrix::rref`] and
/// [`DenseMatrix::rref_with_column_order`].
#[derive(Clone, Debug)]
pub struct Rref {
    /// The matrix in reduced row-echelon form (zero rows at the bottom).
    pub matrix: DenseMatrix,
    /// Pivot column of each non-zero row, in row order.
    pub pivot_cols: Vec<usize>,
}

impl Rref {
    /// Rank of the original matrix.
    pub fn rank(&self) -> usize {
        self.pivot_cols.len()
    }

    /// Columns that contain no pivot, in ascending order.
    pub fn free_cols(&self) -> Vec<usize> {
        let mut is_pivot = vec![false; self.matrix.cols()];
        for &c in &self.pivot_cols {
            is_pivot[c] = true;
        }
        (0..self.matrix.cols()).filter(|&c| !is_pivot[c]).collect()
    }
}

impl DenseMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: (0..rows).map(|_| BitVec::zeros(cols)).collect(),
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix where entry `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Builds a matrix from owned rows.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] if rows have unequal lengths.
    pub fn try_from_rows(rows: Vec<BitVec>) -> Result<Self, DimensionMismatch> {
        let cols = rows.first().map_or(0, BitVec::len);
        for r in &rows {
            if r.len() != cols {
                return Err(DimensionMismatch {
                    expected: cols,
                    actual: r.len(),
                    context: "DenseMatrix rows",
                });
            }
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data: rows,
        })
    }

    /// Builds a matrix from owned rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        Self::try_from_rows(rows).expect("DenseMatrix::from_rows: unequal row lengths")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.data[r].get(c)
    }

    /// Sets entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.data[r].set(c, value);
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.data[r]
    }

    /// Iterates over the rows.
    pub fn iter_rows(&self) -> std::slice::Iter<'_, BitVec> {
        self.data.iter()
    }

    /// Total number of one entries.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(BitVec::count_ones).sum()
    }

    /// Returns `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(BitVec::is_zero)
    }

    /// Matrix–vector product `A·x` (x as a column vector).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &BitVec) -> BitVec {
        assert_eq!(
            x.len(),
            self.cols,
            "DenseMatrix::mul_vec dimension mismatch"
        );
        let mut y = BitVec::zeros(self.rows);
        for (r, row) in self.data.iter().enumerate() {
            if row.dot(x) {
                y.set(r, true);
            }
        }
        y
    }

    /// Row-vector–matrix product `xᵀ·A`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn vec_mul(&self, x: &BitVec) -> BitVec {
        assert_eq!(
            x.len(),
            self.rows,
            "DenseMatrix::vec_mul dimension mismatch"
        );
        let mut y = BitVec::zeros(self.cols);
        for r in x.iter_ones() {
            y.xor_assign(&self.data[r]);
        }
        y
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "DenseMatrix::mul dimension mismatch");
        let data = self
            .data
            .iter()
            .map(|row| {
                let mut out = BitVec::zeros(other.cols);
                for c in row.iter_ones() {
                    out.xor_assign(&other.data[c]);
                }
                out
            })
            .collect();
        Self {
            rows: self.rows,
            cols: other.cols,
            data,
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for (r, row) in self.data.iter().enumerate() {
            for c in row.iter_ones() {
                t.set(c, r, true);
            }
        }
        t
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows, "DenseMatrix::hstack row mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.concat(b))
            .collect();
        Self {
            rows: self.rows,
            cols: self.cols + other.cols,
            data,
        }
    }

    /// Vertical concatenation.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "DenseMatrix::vstack col mismatch");
        let mut data = self.data.clone();
        data.extend(other.data.iter().cloned());
        Self {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Reduces to reduced row-echelon form, processing columns left-to-right.
    pub fn rref(&self) -> Rref {
        let order: Vec<usize> = (0..self.cols).collect();
        self.rref_with_column_order(&order)
    }

    /// Reduced row-echelon form with a caller-chosen pivot column priority.
    ///
    /// Columns are considered as pivot candidates in the order given by
    /// `col_order`; this lets an encoder prefer pivots in the parity region
    /// of a parity-check matrix. `col_order` must be a permutation of
    /// `0..cols`.
    ///
    /// # Panics
    ///
    /// Panics if `col_order` is not a permutation of the column indices.
    pub fn rref_with_column_order(&self, col_order: &[usize]) -> Rref {
        assert_eq!(
            col_order.len(),
            self.cols,
            "col_order must cover all columns"
        );
        let mut seen = vec![false; self.cols];
        for &c in col_order {
            assert!(c < self.cols && !seen[c], "col_order must be a permutation");
            seen[c] = true;
        }

        let mut m = self.clone();
        let mut pivot_cols = Vec::new();
        let mut next_row = 0usize;
        for &col in col_order {
            if next_row >= m.rows {
                break;
            }
            // Find a row at or below next_row with a one in this column.
            let Some(pr) = (next_row..m.rows).find(|&r| m.data[r].get(col)) else {
                continue;
            };
            m.data.swap(next_row, pr);
            // Eliminate the column everywhere else (full reduction).
            let pivot_row = m.data[next_row].clone();
            for r in 0..m.rows {
                if r != next_row && m.data[r].get(col) {
                    m.data[r].xor_assign(&pivot_row);
                }
            }
            pivot_cols.push(col);
            next_row += 1;
        }
        Rref {
            matrix: m,
            pivot_cols,
        }
    }

    /// Rank of the matrix, by forward elimination on one copy of the
    /// rows: each pivot clears its column from the rows below it only, and
    /// only over the words from its own word on, since every row at or
    /// below the pivot row is zero in the columns before it.
    pub fn rank(&self) -> usize {
        let mut rows = self.data.clone();
        let mut rank = 0;
        for col in 0..self.cols {
            let Some(pr) = (rank..rows.len()).find(|&r| rows[r].get(col)) else {
                continue;
            };
            rows.swap(rank, pr);
            let (pivot, below) = rows[rank..].split_first_mut().expect("pivot row");
            for row in below.iter_mut().filter(|row| row.get(col)) {
                row.xor_words_from(pivot, col / 64);
            }
            rank += 1;
        }
        rank
    }

    /// A basis of the right null space `{x : A·x = 0}`.
    ///
    /// The returned vectors are linearly independent and there are
    /// `cols − rank` of them.
    pub fn nullspace_basis(&self) -> Vec<BitVec> {
        let rref = self.rref();
        let free = rref.free_cols();
        let mut basis = Vec::with_capacity(free.len());
        for &fc in &free {
            let mut v = BitVec::zeros(self.cols);
            v.set(fc, true);
            // Each pivot row reads: x[pivot] + sum(x[non-pivot in row]) = 0.
            for (row_idx, &pc) in rref.pivot_cols.iter().enumerate() {
                if rref.matrix.data[row_idx].get(fc) {
                    v.set(pc, true);
                }
            }
            basis.push(v);
        }
        basis
    }

    /// Solves `A·x = b`, returning one solution if the system is consistent.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub fn solve(&self, b: &BitVec) -> Option<BitVec> {
        assert_eq!(b.len(), self.rows, "DenseMatrix::solve dimension mismatch");
        // Eliminate on the augmented matrix [A | b].
        let mut aug = Vec::with_capacity(self.rows);
        for (r, row) in self.data.iter().enumerate() {
            let mut v = row.clone();
            let mut tail = BitVec::zeros(1);
            tail.set(0, b.get(r));
            v = v.concat(&tail);
            aug.push(v);
        }
        let aug = Self::from_rows(aug);
        let rref = aug.rref();
        let mut x = BitVec::zeros(self.cols);
        for (row_idx, &pc) in rref.pivot_cols.iter().enumerate() {
            if pc == self.cols {
                // Pivot in the augmented column: inconsistent system.
                return None;
            }
            if rref.matrix.data[row_idx].get(self.cols) {
                x.set(pc, true);
            }
        }
        Some(x)
    }

    /// Inverse of a square matrix, if it exists.
    pub fn inverse(&self) -> Option<Self> {
        if self.rows != self.cols {
            return None;
        }
        let aug = self.hstack(&Self::identity(self.rows));
        let rref = aug.rref();
        if rref.rank() < self.rows || rref.pivot_cols.iter().any(|&c| c >= self.cols) {
            return None;
        }
        let data = rref
            .matrix
            .data
            .iter()
            .take(self.rows)
            .map(|row| row.slice(self.cols, self.cols))
            .collect();
        Some(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for row in self.data.iter().take(16) {
            writeln!(f, "  {row}")?;
        }
        if self.rows > 16 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> DenseMatrix {
        // [1 1 0 1]
        // [0 1 1 1]
        // [1 0 1 0]   (row3 = row1 + row2)
        DenseMatrix::from_rows(vec![
            BitVec::from_bits(&[1, 1, 0, 1]),
            BitVec::from_bits(&[0, 1, 1, 1]),
            BitVec::from_bits(&[1, 0, 1, 0]),
        ])
    }

    #[test]
    fn identity_properties() {
        let i = DenseMatrix::identity(5);
        assert_eq!(i.rank(), 5);
        assert_eq!(i.count_ones(), 5);
        assert_eq!(i.inverse().unwrap(), i);
    }

    #[test]
    fn rank_detects_dependent_row() {
        assert_eq!(example().rank(), 2);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = example();
        let x = BitVec::from_bits(&[1, 0, 1, 1]);
        let y = a.mul_vec(&x);
        assert_eq!(y.to_bits(), vec![0, 0, 0]); // x is in the null space
        let x2 = BitVec::from_bits(&[1, 0, 0, 0]);
        assert_eq!(a.mul_vec(&x2).to_bits(), vec![1, 0, 1]);
    }

    #[test]
    fn vec_mul_is_transpose_mul_vec() {
        let a = example();
        let x = BitVec::from_bits(&[1, 1, 0]);
        assert_eq!(a.vec_mul(&x), a.transpose().mul_vec(&x));
    }

    #[test]
    fn transpose_involution() {
        let a = example();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn mul_identity_is_noop() {
        let a = example();
        assert_eq!(a.mul(&DenseMatrix::identity(4)), a);
        assert_eq!(DenseMatrix::identity(3).mul(&a), a);
    }

    #[test]
    fn nullspace_vectors_are_in_kernel() {
        let a = example();
        let basis = a.nullspace_basis();
        assert_eq!(basis.len(), 4 - a.rank());
        for v in &basis {
            assert!(a.mul_vec(v).is_zero(), "basis vector not in kernel");
            assert!(!v.is_zero());
        }
    }

    #[test]
    fn solve_finds_solution() {
        let a = example();
        let x = BitVec::from_bits(&[0, 1, 1, 0]);
        let b = a.mul_vec(&x);
        let sol = a.solve(&b).expect("system should be consistent");
        assert_eq!(a.mul_vec(&sol), b);
    }

    #[test]
    fn solve_detects_inconsistency() {
        // rows: [1 0], [1 0] ; b = [1, 0] is inconsistent.
        let a =
            DenseMatrix::from_rows(vec![BitVec::from_bits(&[1, 0]), BitVec::from_bits(&[1, 0])]);
        let b = BitVec::from_bits(&[1, 0]);
        assert!(a.solve(&b).is_none());
    }

    #[test]
    fn inverse_roundtrip() {
        // A 3x3 invertible matrix.
        let a = DenseMatrix::from_rows(vec![
            BitVec::from_bits(&[1, 1, 0]),
            BitVec::from_bits(&[0, 1, 1]),
            BitVec::from_bits(&[0, 0, 1]),
        ]);
        let inv = a.inverse().expect("matrix is invertible");
        assert_eq!(a.mul(&inv), DenseMatrix::identity(3));
        assert_eq!(inv.mul(&a), DenseMatrix::identity(3));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        assert!(example().transpose().inverse().is_none());
        let sq = DenseMatrix::zeros(3, 3);
        assert!(sq.inverse().is_none());
    }

    #[test]
    fn rref_with_reversed_order_prefers_late_columns() {
        let a = example();
        let order: Vec<usize> = (0..4).rev().collect();
        let rref = a.rref_with_column_order(&order);
        assert_eq!(rref.rank(), 2);
        // With reversed priority the pivots land in the rightmost columns.
        assert!(rref.pivot_cols.iter().all(|&c| c >= 2));
        // Free + pivot columns partition all columns.
        let mut all: Vec<usize> = rref.free_cols();
        all.extend_from_slice(&rref.pivot_cols);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rref_rejects_bad_order() {
        example().rref_with_column_order(&[0, 0, 1, 2]);
    }

    #[test]
    fn hstack_vstack_shapes() {
        let a = example();
        let h = a.hstack(&a);
        assert_eq!((h.rows(), h.cols()), (3, 8));
        let v = a.vstack(&a);
        assert_eq!((v.rows(), v.cols()), (6, 4));
        assert_eq!(v.rank(), a.rank());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DenseMatrix::try_from_rows(vec![BitVec::zeros(3), BitVec::zeros(4)]);
        assert!(err.is_err());
    }
}
