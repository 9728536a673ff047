//! Linear algebra over the two-element field GF(2).
//!
//! This crate is the low-level substrate of the `ccsds-ldpc` workspace. It
//! provides the bit-level containers and algorithms that the LDPC code
//! construction, encoding, and verification layers are built on:
//!
//! * [`BitVec`] — a packed, fixed-length vector of bits with word-parallel
//!   XOR/AND operations and parity (dot-product) computation.
//! * [`DenseMatrix`] — a dense GF(2) matrix stored as one [`BitVec`] per row,
//!   with multiplication, transposition, Gaussian elimination ([`Rref`]),
//!   rank, inverse, solving, and null-space extraction.
//! * [`SparseMatrix`] — a row-major sparse binary matrix used for
//!   parity-check matrices (thousands of columns, row weight ≪ columns).
//! * [`Circulant`] — a square circulant matrix described by the positions of
//!   the ones in its first row, as used by quasi-cyclic LDPC codes.
//! * [`BitSlices`] — the frame-major ⇄ word-sliced (bit-plane) transpose
//!   used by bit-sliced decoding: 64 frames per `u64` lane word.
//! * [`ByteSlices`] — the same transpose at byte granularity: 8 frames of
//!   `i8` values per `u64` word, in the lane order of the packed soft
//!   datapath's frame-lane words.
//!
//! # Example
//!
//! ```
//! use gf2::{BitVec, DenseMatrix};
//!
//! // Build the parity-check matrix of the (3,1) repetition code.
//! let h = DenseMatrix::from_fn(2, 3, |r, c| (r == 0 && c < 2) || (r == 1 && c > 0));
//! assert_eq!(h.rank(), 2);
//!
//! // The all-ones word is the only non-zero codeword.
//! let cw = BitVec::from_bools(&[true, true, true]);
//! assert!(h.mul_vec(&cw).is_zero());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod circulant;
mod dense;
pub mod lanes;
mod slices;
mod sparse;

pub use bitvec::BitVec;
pub use circulant::Circulant;
pub use dense::{DenseMatrix, Rref};
pub use lanes::{ByteSlices, BYTE_LANES};
pub use slices::{BitSlices, WORD_LANES};
pub use sparse::SparseMatrix;

use std::error::Error;
use std::fmt;

/// Error returned when two operands have incompatible dimensions.
///
/// Produced by the checked (`try_*`) operations of [`BitVec`] and
/// [`DenseMatrix`]; the panicking variants document the same conditions in
/// their `# Panics` sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// Dimension expected by the receiver.
    pub expected: usize,
    /// Dimension actually supplied.
    pub actual: usize,
    /// Human-readable description of which dimension disagreed.
    pub context: &'static str,
}

impl fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimension mismatch in {}: expected {}, got {}",
            self.context, self.expected, self.actual
        )
    }
}

impl Error for DimensionMismatch {}
