//! Property-based tests for the GF(2) substrate.

use gf2::{BitSlices, BitVec, Circulant, DenseMatrix, SparseMatrix};
use proptest::prelude::*;

fn arb_bitvec(len: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), len).prop_map(|b| BitVec::from_bools(&b))
}

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    prop::collection::vec(arb_bitvec(cols), rows).prop_map(DenseMatrix::from_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_bits` packs a word at a time, yet every bit still follows
    /// the per-bit definition, "any non-zero byte is a one bit": on
    /// arbitrary byte values (zeros drawn often) and on lengths off the 8-
    /// and 64-byte grids, with a canonical zero tail.
    #[test]
    fn from_bits_matches_the_per_bit_definition(
        bytes in prop::collection::vec(
            (any::<bool>(), any::<u8>()).prop_map(|(zero, b)| if zero { 0 } else { b }),
            0..300,
        ),
    ) {
        let v = BitVec::from_bits(&bytes);
        prop_assert_eq!(v.len(), bytes.len());
        for (i, &b) in bytes.iter().enumerate() {
            prop_assert_eq!(v.get(i), b != 0, "bit {} of {}", i, bytes.len());
        }
        let flags: Vec<bool> = bytes.iter().map(|&b| b != 0).collect();
        prop_assert_eq!(&v, &BitVec::from_bools(&flags));
        prop_assert_eq!(&v, &BitVec::from_words(bytes.len(), v.words().to_vec()));
    }

    #[test]
    fn xor_commutes(a in arb_bitvec(97), b in arb_bitvec(97)) {
        prop_assert_eq!(&a ^ &b, &b ^ &a);
    }

    #[test]
    fn xor_self_is_zero(a in arb_bitvec(97)) {
        prop_assert!((&a ^ &a).is_zero());
    }

    #[test]
    fn dot_is_bilinear(a in arb_bitvec(64), b in arb_bitvec(64), c in arb_bitvec(64)) {
        // <a + b, c> = <a, c> + <b, c>
        let lhs = (&a ^ &b).dot(&c);
        let rhs = a.dot(&c) ^ b.dot(&c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn rotate_preserves_weight(a in arb_bitvec(31), k in 0usize..100) {
        prop_assert_eq!(a.rotate_right(k).count_ones(), a.count_ones());
    }

    #[test]
    fn rotate_composes(a in arb_bitvec(31), j in 0usize..31, k in 0usize..31) {
        prop_assert_eq!(a.rotate_right(j).rotate_right(k), a.rotate_right(j + k));
    }

    #[test]
    fn rank_bounded_and_transpose_invariant(m in arb_matrix(8, 12)) {
        let r = m.rank();
        prop_assert!(r <= 8);
        prop_assert_eq!(r, m.transpose().rank());
    }

    /// Forward-elimination rank equals the reduced echelon form's pivot
    /// count: on random matrices up to four words wide, with rows that are
    /// sums of other rows appended (rank-deficient), and with no rows.
    #[test]
    fn rank_matches_rref_rank(
        rows in 0usize..10,
        cols in 1usize..250,
        bits in prop::collection::vec(any::<u64>(), 40),
        sums in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
    ) {
        let bit = |i: usize| bits[i / 64 % bits.len()] >> (i % 64) & 1 == 1;
        let mut data: Vec<BitVec> = (0..rows)
            .map(|r| BitVec::from_bools(&(0..cols).map(|c| bit(r * cols + c)).collect::<Vec<_>>()))
            .collect();
        for (a, b) in sums.into_iter().filter(|_| rows > 0) {
            let sum = &data[a % rows] ^ &data[b % rows];
            data.push(sum);
        }
        let m = if data.is_empty() {
            DenseMatrix::zeros(0, cols)
        } else {
            DenseMatrix::from_rows(data)
        };
        prop_assert_eq!(m.rank(), m.rref().rank());
        prop_assert!(m.rank() <= rows.min(cols));
    }

    #[test]
    fn nullspace_dimension_is_cols_minus_rank(m in arb_matrix(7, 10)) {
        let basis = m.nullspace_basis();
        prop_assert_eq!(basis.len(), 10 - m.rank());
        for v in &basis {
            prop_assert!(m.mul_vec(v).is_zero());
        }
    }

    #[test]
    fn matmul_associative(
        a in arb_matrix(5, 6),
        b in arb_matrix(6, 4),
        c in arb_matrix(4, 7),
    ) {
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn matmul_transpose_contravariant(a in arb_matrix(5, 6), b in arb_matrix(6, 4)) {
        prop_assert_eq!(a.mul(&b).transpose(), b.transpose().mul(&a.transpose()));
    }

    #[test]
    fn mul_vec_distributes(a in arb_matrix(6, 9), x in arb_bitvec(9), y in arb_bitvec(9)) {
        let lhs = a.mul_vec(&(&x ^ &y));
        let rhs = &a.mul_vec(&x) ^ &a.mul_vec(&y);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn solve_consistent_systems(a in arb_matrix(6, 8), x in arb_bitvec(8)) {
        let b = a.mul_vec(&x);
        let sol = a.solve(&b);
        prop_assert!(sol.is_some());
        prop_assert_eq!(a.mul_vec(&sol.unwrap()), b);
    }

    #[test]
    fn sparse_dense_agree(m in arb_matrix(6, 20), x in arb_bitvec(20)) {
        let s = SparseMatrix::from_dense(&m);
        prop_assert_eq!(s.mul_vec(&x), m.mul_vec(&x));
        prop_assert_eq!(s.nnz(), m.count_ones());
        prop_assert_eq!(s.to_dense(), m);
    }

    #[test]
    fn circulant_algebra_matches_dense(
        size in 2usize..12,
        p1 in prop::collection::vec(0u32..12, 0..4),
        p2 in prop::collection::vec(0u32..12, 0..4),
    ) {
        let p1: Vec<u32> = p1.into_iter().map(|p| p % size as u32).collect();
        let p2: Vec<u32> = p2.into_iter().map(|p| p % size as u32).collect();
        let a = Circulant::new(size, &p1);
        let b = Circulant::new(size, &p2);
        prop_assert_eq!(a.mul(&b).to_dense(), a.to_dense().mul(&b.to_dense()));
        prop_assert_eq!(a.add(&b).to_dense(), {
            let mut rows = Vec::new();
            for r in 0..size {
                rows.push(a.to_dense().row(r) ^ b.to_dense().row(r));
            }
            DenseMatrix::from_rows(rows)
        });
    }

    #[test]
    fn circulant_mul_commutes(
        size in 2usize..12,
        p1 in prop::collection::vec(0u32..12, 0..4),
        p2 in prop::collection::vec(0u32..12, 0..4),
    ) {
        let p1: Vec<u32> = p1.into_iter().map(|p| p % size as u32).collect();
        let p2: Vec<u32> = p2.into_iter().map(|p| p % size as u32).collect();
        let a = Circulant::new(size, &p1);
        let b = Circulant::new(size, &p2);
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn inverse_when_it_exists(m in arb_matrix(5, 5)) {
        if let Some(inv) = m.inverse() {
            prop_assert_eq!(m.mul(&inv), DenseMatrix::identity(5));
            prop_assert_eq!(inv.mul(&m), DenseMatrix::identity(5));
        } else {
            prop_assert!(m.rank() < 5);
        }
    }

    /// Frame-major → word-sliced → frame-major is the identity for
    /// arbitrary frame counts (including non-multiples of 64) and lengths.
    #[test]
    fn bitslice_transpose_roundtrips(
        n_frames in 0usize..150,
        bits in 0usize..70,
        seed in any::<u64>(),
    ) {
        // Deterministic per-case bit content (xorshift keeps the input
        // independent of the strategy's shrinking order).
        let mut state = seed | 1;
        let frames: Vec<BitVec> = (0..n_frames)
            .map(|_| {
                (0..bits)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state & 1 == 1
                    })
                    .collect()
            })
            .collect();
        let slices = BitSlices::from_frames(&frames);
        prop_assert_eq!(slices.frames(), n_frames);
        prop_assert_eq!(slices.words_per_plane(), n_frames.div_ceil(64));
        // Canonical form: no lane beyond `frames` is ever set.
        for b in 0..slices.bits() {
            for (w, &word) in slices.plane(b).iter().enumerate() {
                prop_assert_eq!(word & !slices.lane_mask(w), 0);
            }
        }
        prop_assert_eq!(slices.to_frames(), frames);
    }

    /// Element access agrees with the frame-major view of the same data.
    #[test]
    fn bitslice_get_matches_frames(
        n_frames in 1usize..70,
        ones in prop::collection::vec((0usize..70, 0usize..9), 0..20),
    ) {
        let bits = 9;
        let mut frames = vec![BitVec::zeros(bits); n_frames];
        for &(f, b) in &ones {
            frames[f % n_frames].set(b, true);
        }
        let slices = BitSlices::from_frames(&frames);
        for (f, frame) in frames.iter().enumerate() {
            for b in 0..bits {
                prop_assert_eq!(slices.get(f, b), frame.get(b));
            }
        }
    }
}
