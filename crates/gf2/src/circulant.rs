//! Circulant matrices over GF(2).

use crate::{BitVec, DenseMatrix};
use std::fmt;

/// A square circulant matrix, fully determined by its first row.
///
/// Row `i` is the first row cyclically shifted right by `i` positions:
/// if the first row has a one at column `p`, row `i` has a one at column
/// `(p + i) mod size`. This is the building block of quasi-cyclic LDPC
/// codes — the CCSDS C2 parity-check matrix is a 2×16 array of 511×511
/// circulants, each of row weight two.
///
/// # Example
///
/// ```
/// use gf2::Circulant;
///
/// let c = Circulant::new(5, &[0, 2]);
/// assert_eq!(c.row_ones(0), vec![0, 2]);
/// assert_eq!(c.row_ones(1), vec![1, 3]);
/// assert_eq!(c.row_ones(4), vec![1, 4]); // wraps: (0+4, 2+4 mod 5)
/// assert_eq!(c.weight(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Circulant {
    size: usize,
    first_row: Vec<u32>,
}

impl Circulant {
    /// Creates a circulant of dimension `size` with ones of the first row at
    /// `positions`.
    ///
    /// Positions are deduplicated and sorted.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or any position is `>= size`.
    pub fn new(size: usize, positions: &[u32]) -> Self {
        assert!(size > 0, "circulant size must be positive");
        let mut first_row: Vec<u32> = positions.to_vec();
        first_row.sort_unstable();
        first_row.dedup();
        if let Some(&max) = first_row.last() {
            assert!(
                (max as usize) < size,
                "position {max} out of range for size {size}"
            );
        }
        Self { size, first_row }
    }

    /// The identity circulant (single one at position 0).
    pub fn identity(size: usize) -> Self {
        Self::new(size, &[0])
    }

    /// The zero circulant (empty first row).
    pub fn zero(size: usize) -> Self {
        Self::new(size, &[])
    }

    /// Dimension of the (square) matrix.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Row (and column) weight — the number of ones in the first row.
    pub fn weight(&self) -> usize {
        self.first_row.len()
    }

    /// One positions of the first row, sorted ascending.
    pub fn first_row(&self) -> &[u32] {
        &self.first_row
    }

    /// One positions of row `i`, sorted ascending.
    ///
    /// Allocates a fresh `Vec` per call — hot paths should prefer the
    /// allocation-free [`row_ones_iter`](Self::row_ones_iter).
    ///
    /// # Panics
    ///
    /// Panics if `i >= size`.
    pub fn row_ones(&self, i: usize) -> Vec<u32> {
        let mut ones: Vec<u32> = self.row_ones_iter(i).collect();
        ones.sort_unstable();
        ones
    }

    /// One positions of row `i`, allocation-free, in first-row (tap)
    /// order — **not** sorted: a position that wraps past `size` comes
    /// out where its tap sits, not in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= size`.
    pub fn row_ones_iter(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        assert!(i < self.size, "row {i} out of range");
        let size = self.size;
        self.first_row
            .iter()
            .map(move |&p| ((p as usize + i) % size) as u32)
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.size, self.size);
        for r in 0..self.size {
            for c in self.row_ones(r) {
                m.set(r, c as usize, true);
            }
        }
        m
    }

    /// Product of two circulants of the same size (also a circulant).
    ///
    /// Computed as polynomial multiplication modulo `x^size − 1`; terms with
    /// even multiplicity cancel over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn mul(&self, other: &Self) -> Self {
        assert_eq!(self.size, other.size, "circulant size mismatch");
        let mut counts = vec![0u32; self.size];
        for &a in &self.first_row {
            for &b in &other.first_row {
                counts[(a as usize + b as usize) % self.size] += 1;
            }
        }
        let positions: Vec<u32> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c % 2 == 1)
            .map(|(i, _)| i as u32)
            .collect();
        Self::new(self.size, &positions)
    }

    /// Sum (XOR) of two circulants of the same size.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.size, other.size, "circulant size mismatch");
        let a = BitVec::from_indices(
            self.size,
            &self
                .first_row
                .iter()
                .map(|&p| p as usize)
                .collect::<Vec<_>>(),
        );
        let b = BitVec::from_indices(
            self.size,
            &other
                .first_row
                .iter()
                .map(|&p| p as usize)
                .collect::<Vec<_>>(),
        );
        let sum = &a ^ &b;
        let positions: Vec<u32> = sum.iter_ones().map(|p| p as u32).collect();
        Self::new(self.size, &positions)
    }

    /// Transpose (also a circulant: positions negate modulo size).
    pub fn transpose(&self) -> Self {
        let positions: Vec<u32> = self
            .first_row
            .iter()
            .map(|&p| ((self.size - p as usize) % self.size) as u32)
            .collect();
        Self::new(self.size, &positions)
    }
}

impl fmt::Debug for Circulant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Circulant({}; {:?})", self.size, self.first_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_cyclic_shifts() {
        let c = Circulant::new(7, &[1, 3]);
        assert_eq!(c.row_ones(0), vec![1, 3]);
        assert_eq!(c.row_ones(4), vec![0, 5]); // (1+4, 3+4 mod 7)
        let d = c.to_dense();
        // Every row and column has the circulant weight.
        for r in 0..7 {
            assert_eq!(d.row(r).count_ones(), 2);
        }
        let t = d.transpose();
        for r in 0..7 {
            assert_eq!(t.row(r).count_ones(), 2);
        }
    }

    #[test]
    fn identity_acts_as_identity() {
        let i = Circulant::identity(6);
        let c = Circulant::new(6, &[2, 5]);
        assert_eq!(i.mul(&c), c);
        assert_eq!(c.mul(&i), c);
        assert_eq!(i.to_dense(), DenseMatrix::identity(6));
    }

    #[test]
    fn mul_matches_dense_mul() {
        let a = Circulant::new(5, &[0, 2]);
        let b = Circulant::new(5, &[1, 4]);
        let prod = a.mul(&b);
        assert_eq!(prod.to_dense(), a.to_dense().mul(&b.to_dense()));
    }

    #[test]
    fn mul_cancels_even_terms() {
        // (1 + x)(1 + x) = 1 + 2x + x^2 = 1 + x^2 over GF(2).
        let a = Circulant::new(8, &[0, 1]);
        let sq = a.mul(&a);
        assert_eq!(sq.first_row(), &[0, 2]);
    }

    #[test]
    fn add_matches_xor() {
        let a = Circulant::new(5, &[0, 2]);
        let b = Circulant::new(5, &[2, 3]);
        assert_eq!(a.add(&b).first_row(), &[0, 3]);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = Circulant::new(9, &[0, 2, 5]);
        assert_eq!(a.transpose().to_dense(), a.to_dense().transpose());
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn duplicate_positions_dedup() {
        let c = Circulant::new(4, &[1, 1, 3]);
        assert_eq!(c.first_row(), &[1, 3]);
        assert_eq!(c.weight(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_position_panics() {
        Circulant::new(4, &[4]);
    }
}
