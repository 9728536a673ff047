//! Packed bit vectors over GF(2).

use crate::DimensionMismatch;
use std::fmt;
use std::ops::{BitAnd, BitXor, BitXorAssign};

const WORD_BITS: usize = 64;

/// Packs 64 bytes into one word: bit `j` is set where byte `j` is not
/// zero. The bytes are first tested lane by lane, which the compiler
/// vectorizes; then each 8 of the resulting 0/1 bytes gather into one
/// byte with a multiply. Byte `f` of a group holds its flag at bit `8f`,
/// and the multiplier's ones sit at bits `56 − 7i` (`i` = 0..8), so the
/// product carries flag `f` to bit `56 + f` (at `i = f`). The 64 partial
/// products are distinct bits, so nothing carries, and every other one
/// lands below bit 56 or past bit 63.
fn pack_word(bytes: &[u8; WORD_BITS]) -> u64 {
    let mut flags = [0u8; WORD_BITS];
    for (f, &b) in flags.iter_mut().zip(bytes) {
        *f = u8::from(b != 0);
    }
    let (groups, _) = flags.as_chunks::<8>();
    groups.iter().rev().fold(0, |w, group| {
        w << 8 | u64::from_le_bytes(*group).wrapping_mul(0x0102_0408_1020_4080) >> 56
    })
}

/// A fixed-length vector of bits packed into `u64` words.
///
/// Arithmetic follows GF(2) conventions: addition is XOR and the dot product
/// is the parity of the bitwise AND. All bits beyond `len` in the last word
/// are kept at zero (the *canonical form* invariant), so word-parallel
/// operations never leak stray bits.
///
/// # Example
///
/// ```
/// use gf2::BitVec;
///
/// let a = BitVec::from_indices(8, &[0, 3, 5]);
/// let b = BitVec::from_indices(8, &[3, 4]);
/// let sum = &a ^ &b;
/// assert_eq!(sum.iter_ones().collect::<Vec<_>>(), vec![0, 4, 5]);
/// assert!(a.dot(&b)); // overlap at bit 3 -> odd parity
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    ///
    /// ```
    /// use gf2::BitVec;
    /// let v = BitVec::zeros(100);
    /// assert_eq!(v.len(), 100);
    /// assert!(v.is_zero());
    /// ```
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.canonicalize();
        v
    }

    /// Builds a vector from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let words = bits
            .chunks(WORD_BITS)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (j, &b)| w | (u64::from(b) << j))
            })
            .collect();
        Self {
            len: bits.len(),
            words,
        }
    }

    /// Builds a vector from 0/1 bytes.
    ///
    /// Any non-zero byte is treated as a one bit. The bytes pack 64 at a
    /// time into a word; a last partial word is padded with zero bytes,
    /// so its tail stays zero and the result is canonical.
    pub fn from_bits(bits: &[u8]) -> Self {
        let (chunks, tail) = bits.as_chunks::<WORD_BITS>();
        let mut words = Vec::with_capacity(bits.len().div_ceil(WORD_BITS));
        words.extend(chunks.iter().map(pack_word));
        if !tail.is_empty() {
            let mut last = [0; WORD_BITS];
            last[..tail.len()].copy_from_slice(tail);
            words.push(pack_word(&last));
        }
        Self {
            len: bits.len(),
            words,
        }
    }

    /// Builds a `len`-bit vector directly from packed little-endian words
    /// (the storage format [`words`](Self::words) exposes). Bits at
    /// positions `>= len` in the last word are cleared to restore the
    /// canonical form.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from `len.div_ceil(64)`.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count mismatch for length {len}"
        );
        let mut v = Self { len, words };
        v.canonicalize();
        v
    }

    /// Builds a `len`-bit vector with ones at the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, ones: &[usize]) -> Self {
        let mut v = Self::zeros(len);
        for &i in ones {
            v.set(i, true);
        }
        v
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Flips bit `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
        self.get(i)
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// XORs `other` into `self` (GF(2) addition).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ; see [`BitVec::try_xor_assign`] for the
    /// checked variant.
    pub fn xor_assign(&mut self, other: &Self) {
        self.try_xor_assign(other)
            .expect("BitVec::xor_assign length mismatch");
    }

    /// Checked XOR-assign.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] if the lengths differ.
    pub fn try_xor_assign(&mut self, other: &Self) -> Result<(), DimensionMismatch> {
        if self.len != other.len {
            return Err(DimensionMismatch {
                expected: self.len,
                actual: other.len,
                context: "BitVec xor",
            });
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
        Ok(())
    }

    /// XORs `other`'s words from word `from` on into `self`: the row
    /// addition of a forward elimination, whose rows are zero below the
    /// pivot's word.
    pub(crate) fn xor_words_from(&mut self, other: &Self, from: usize) {
        debug_assert_eq!(self.len, other.len, "BitVec xor length mismatch");
        for (a, b) in self.words[from..].iter_mut().zip(&other.words[from..]) {
            *a ^= *b;
        }
    }

    /// GF(2) dot product: parity of the bitwise AND of the two vectors.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "BitVec::dot length mismatch");
        let mut acc = 0u32;
        for (a, b) in self.words.iter().zip(&other.words) {
            acc ^= (a & b).count_ones() & 1;
        }
        acc & 1 == 1
    }

    /// Iterator over the indices of one bits, in ascending order.
    ///
    /// ```
    /// use gf2::BitVec;
    /// let v = BitVec::from_indices(70, &[1, 64, 69]);
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1, 64, 69]);
    /// ```
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            vec: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Converts to a `Vec` of 0/1 bytes.
    pub fn to_bits(&self) -> Vec<u8> {
        (0..self.len).map(|i| u8::from(self.get(i))).collect()
    }

    /// Converts to a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Cyclic right shift by `k` positions (bit `i` moves to `(i + k) % len`).
    ///
    /// This matches the row-to-row relationship inside a circulant matrix.
    pub fn rotate_right(&self, k: usize) -> Self {
        if self.len == 0 {
            return self.clone();
        }
        let k = k % self.len;
        let mut out = Self::zeros(self.len);
        for i in self.iter_ones() {
            out.set((i + k) % self.len, true);
        }
        out
    }

    /// Extracts bits `[start, start + len)` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len, "BitVec::slice out of range");
        let mut out = Self::zeros(len);
        for i in 0..len {
            if self.get(start + i) {
                out.set(i, true);
            }
        }
        out
    }

    /// Concatenates `self` with `other`.
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.len + other.len);
        for i in self.iter_ones() {
            out.set(i, true);
        }
        for i in other.iter_ones() {
            out.set(self.len + i, true);
        }
        out
    }

    /// Raw word storage (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Index of the first one bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Clears any bits at positions `>= len` in the last word.
    fn canonicalize(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Iterator over the positions of one bits of a [`BitVec`].
///
/// Created by [`BitVec::iter_ones`].
pub struct IterOnes<'a> {
    vec: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_idx];
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign(rhs);
    }
}

impl BitXor for &BitVec {
    type Output = BitVec;

    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(rhs);
        out
    }
}

impl BitAnd for &BitVec {
    type Output = BitVec;

    fn bitand(self, rhs: &BitVec) -> BitVec {
        assert_eq!(self.len, rhs.len, "BitVec & length mismatch");
        let mut out = self.clone();
        for (a, b) in out.words.iter_mut().zip(&rhs.words) {
            *a &= *b;
        }
        out
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bools)
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len.min(128) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 128 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_zero() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(v.is_zero());
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn ones_has_canonical_tail() {
        let v = BitVec::ones(70);
        assert_eq!(v.count_ones(), 70);
        // Bits beyond len must stay zero in the raw words.
        assert_eq!(v.words()[1] >> 6, 0);
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut v = BitVec::zeros(100);
        v.set(63, true);
        v.set(64, true);
        assert!(v.get(63));
        assert!(v.get(64));
        assert!(!v.get(62));
        assert!(!v.flip(63));
        assert!(!v.get(63));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVec::zeros(10);
        v.get(10);
    }

    #[test]
    fn xor_is_gf2_addition() {
        let a = BitVec::from_indices(10, &[1, 2, 3]);
        let b = BitVec::from_indices(10, &[3, 4]);
        let c = &a ^ &b;
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![1, 2, 4]);
        // x + x = 0
        assert!((&a ^ &a).is_zero());
    }

    #[test]
    fn try_xor_assign_rejects_mismatch() {
        let mut a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        let err = a.try_xor_assign(&b).unwrap_err();
        assert_eq!(err.expected, 10);
        assert_eq!(err.actual, 11);
    }

    #[test]
    fn dot_is_parity_of_overlap() {
        let a = BitVec::from_indices(128, &[0, 64, 100]);
        let b = BitVec::from_indices(128, &[64, 100, 101]);
        assert!(!a.dot(&b)); // two overlaps -> even
        let c = BitVec::from_indices(128, &[64]);
        assert!(a.dot(&c));
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let idx = vec![0, 1, 63, 64, 65, 127, 128];
        let v = BitVec::from_indices(130, &idx);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn rotate_right_matches_definition() {
        let v = BitVec::from_indices(7, &[0, 5, 6]);
        let r = v.rotate_right(2);
        assert_eq!(r.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        // Rotation by len is identity.
        assert_eq!(v.rotate_right(7), v);
    }

    #[test]
    fn slice_and_concat_roundtrip() {
        let v = BitVec::from_indices(100, &[3, 50, 99]);
        let left = v.slice(0, 40);
        let right = v.slice(40, 60);
        assert_eq!(left.concat(&right), v);
        assert_eq!(right.iter_ones().collect::<Vec<_>>(), vec![10, 59]);
    }

    #[test]
    fn first_one_finds_lowest() {
        assert_eq!(BitVec::zeros(10).first_one(), None);
        assert_eq!(
            BitVec::from_indices(200, &[130, 131]).first_one(),
            Some(130)
        );
    }

    #[test]
    fn from_bits_and_to_bits_roundtrip() {
        let bits = [1u8, 0, 0, 1, 1, 0, 1];
        let v = BitVec::from_bits(&bits);
        assert_eq!(v.to_bits(), bits);
        // Word boundaries, a canonical tail, and non-0/1 bytes as ones.
        for len in [0usize, 1, 63, 64, 65, 8176] {
            let bytes: Vec<u8> = (0..len).map(|i| ((i * 7 + i / 3) % 5) as u8).collect();
            let want: Vec<u8> = bytes.iter().map(|&b| u8::from(b != 0)).collect();
            let v = BitVec::from_bits(&bytes);
            assert_eq!(v.len(), len);
            assert_eq!(v.to_bits(), want, "len {len}");
            assert_eq!(v, BitVec::from_words(len, v.words().to_vec()), "len {len}");
            let bools: Vec<bool> = want.iter().map(|&b| b == 1).collect();
            assert_eq!(BitVec::from_bools(&bools), v, "len {len}");
            assert_eq!(v.to_bools(), bools, "len {len}");
        }
    }

    #[test]
    fn from_words_roundtrips_and_canonicalizes() {
        let v = BitVec::from_indices(100, &[0, 63, 64, 99]);
        assert_eq!(BitVec::from_words(100, v.words().to_vec()), v);
        // Stray tail bits are cleared.
        let w = BitVec::from_words(70, vec![0, u64::MAX]);
        assert_eq!(w.count_ones(), 6);
        assert_eq!(w.words()[1] >> 6, 0);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn from_words_rejects_wrong_count() {
        BitVec::from_words(65, vec![0]);
    }

    #[test]
    fn display_formats_bits() {
        let v = BitVec::from_indices(4, &[0, 3]);
        assert_eq!(v.to_string(), "1001");
        assert!(!format!("{v:?}").is_empty());
    }

    #[test]
    fn from_iterator_collects_bools() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }
}
