//! Byte-lane ("lane-plane") frame storage: the transpose between
//! frame-major `i8` value vectors and per-position lane words.
//!
//! This is [`BitSlices`](crate::BitSlices) one rung up the precision
//! ladder: instead of one *bit* per frame per plane word, each `u64`
//! word carries one **byte** per frame — 8 frames in lockstep, the
//! frames-per-word packing of the paper's high-speed variant applied to
//! soft messages (6-bit saturating fixed point fits an `i8` lane with
//! headroom). One word op then advances all 8 frames at once; the SWAR
//! kernels in `ldpc-core` use the same lane order (`splat`,
//! `pack_lanes` and `unpack_lanes` build and check their words).
//!
//! Lane order is little-endian: frame `f`'s value of position `p` lives
//! in byte `f` of word `p`, so [`splat`] / [`lane`] / [`pack_lanes`] /
//! [`unpack_lanes`] agree with `u64::to_le_bytes`.

/// Lanes per word: the frames carried by one `u64` of byte lanes.
pub const BYTE_LANES: usize = 8;

/// Packs 8 lane values into a word (lane `f` → byte `f`, little-endian).
#[inline]
pub fn pack_lanes(lanes: [i8; BYTE_LANES]) -> u64 {
    u64::from_le_bytes(lanes.map(|x| x as u8))
}

/// Unpacks a word into its 8 lane values (inverse of [`pack_lanes`]).
#[inline]
pub fn unpack_lanes(word: u64) -> [i8; BYTE_LANES] {
    word.to_le_bytes().map(|b| b as i8)
}

/// A word with the same value in every lane.
#[inline]
pub fn splat(x: i8) -> u64 {
    u64::from_le_bytes([x as u8; BYTE_LANES])
}

/// Lane `f` of a word.
///
/// # Panics
///
/// Panics if `f >= BYTE_LANES`.
#[inline]
pub fn lane(word: u64, f: usize) -> i8 {
    assert!(f < BYTE_LANES, "lane index {f} out of range");
    (word >> (8 * f)) as i8
}

/// The word with lane `f` replaced by `value`.
///
/// # Panics
///
/// Panics if `f >= BYTE_LANES`.
#[inline]
pub fn with_lane(word: u64, f: usize, value: i8) -> u64 {
    assert!(f < BYTE_LANES, "lane index {f} out of range");
    let shift = 8 * f;
    (word & !(0xFFu64 << shift)) | (u64::from(value as u8) << shift)
}

/// A block of up to 8 equal-length `i8` frames stored as one lane word
/// per value position — the byte-lane analogue of
/// [`BitSlices`](crate::BitSlices).
///
/// Word `p` holds position `p` of every frame: frame `f`'s value in byte
/// `f`. Lanes at positions `>= frames` are kept at zero (canonical form),
/// so word-parallel operations never leak stray lanes.
///
/// # Example
///
/// ```
/// use gf2::ByteSlices;
///
/// // Two frames of three values each, frame-major.
/// let slices = ByteSlices::from_frames(&[1, -2, 3, 4, 5, -6], 3);
/// assert_eq!(slices.frames(), 2);
/// // Position 1 packs frame 0's -2 in byte 0 and frame 1's 5 in byte 1.
/// assert_eq!(slices.word(1), u64::from_le_bytes([0xFE, 5, 0, 0, 0, 0, 0, 0]));
/// assert_eq!(slices.to_frames(), vec![1, -2, 3, 4, 5, -6]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ByteSlices {
    frames: usize,
    values: usize,
    words: Vec<u64>,
}

impl ByteSlices {
    /// Creates an all-zero block for `frames` frames of `values` values.
    ///
    /// # Panics
    ///
    /// Panics if `frames > BYTE_LANES`.
    pub fn zeros(frames: usize, values: usize) -> Self {
        assert!(
            frames <= BYTE_LANES,
            "{frames} frames exceed the {BYTE_LANES} lanes of one word"
        );
        Self {
            frames,
            values,
            words: vec![0; values],
        }
    }

    /// Transposes frame-major values (frame `f` occupies
    /// `data[f*values .. (f+1)*values]`) into lane words.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `values`, or if the
    /// frame count exceeds [`BYTE_LANES`].
    pub fn from_frames(data: &[i8], values: usize) -> Self {
        assert!(
            values > 0 && data.len().is_multiple_of(values),
            "data length must be a multiple of the frame length"
        );
        let frames = data.len() / values;
        let mut out = Self::zeros(frames, values);
        for (f, frame) in data.chunks_exact(values).enumerate() {
            for (p, &v) in frame.iter().enumerate() {
                out.words[p] |= u64::from(v as u8) << (8 * f);
            }
        }
        out
    }

    /// Transposes back to frame-major values (the inverse of
    /// [`from_frames`](Self::from_frames)).
    pub fn to_frames(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.frames * self.values];
        for (p, &word) in self.words.iter().enumerate() {
            for f in 0..self.frames {
                out[f * self.values + p] = (word >> (8 * f)) as i8;
            }
        }
        out
    }

    /// Number of frames packed into the words.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Values per frame (the word count).
    pub fn values(&self) -> usize {
        self.values
    }

    /// The lane word of position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= values`.
    #[inline]
    pub fn word(&self, p: usize) -> u64 {
        self.words[p]
    }

    /// All lane words, one per position.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Frame `f`'s value at position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= frames` or `p >= values`.
    #[inline]
    pub fn get(&self, f: usize, p: usize) -> i8 {
        assert!(f < self.frames, "frame index {f} out of range");
        lane(self.words[p], f)
    }

    /// Sets frame `f`'s value at position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= frames` or `p >= values`.
    #[inline]
    pub fn set(&mut self, f: usize, p: usize, value: i8) {
        assert!(f < self.frames, "frame index {f} out of range");
        self.words[p] = with_lane(self.words[p], f, value);
    }

    /// Mask with `0xFF` in every valid lane and zero elsewhere: all ones
    /// for a full block of 8 frames, the low `8*frames` bits otherwise.
    pub fn lane_mask(&self) -> u64 {
        if self.frames == BYTE_LANES {
            u64::MAX
        } else {
            (1u64 << (8 * self.frames)) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let lanes = [1i8, -1, 127, -128, 0, 31, -31, 64];
        assert_eq!(unpack_lanes(pack_lanes(lanes)), lanes);
    }

    #[test]
    fn splat_fills_every_lane() {
        assert_eq!(unpack_lanes(splat(-31)), [-31i8; 8]);
        assert_eq!(splat(0), 0);
        assert_eq!(splat(-1), u64::MAX);
    }

    #[test]
    fn lane_extracts_and_with_lane_replaces() {
        let w = pack_lanes([0, 1, 2, 3, -4, 5, 6, 7]);
        assert_eq!(lane(w, 4), -4);
        let w2 = with_lane(w, 4, 100);
        assert_eq!(lane(w2, 4), 100);
        assert_eq!(lane(w2, 3), 3);
        assert_eq!(lane(w2, 5), 5);
    }

    #[test]
    fn from_frames_transposes() {
        let slices = ByteSlices::from_frames(&[1, -2, 3, 4, 5, -6], 3);
        assert_eq!(slices.frames(), 2);
        assert_eq!(slices.values(), 3);
        assert_eq!(slices.get(0, 1), -2);
        assert_eq!(slices.get(1, 2), -6);
        assert_eq!(slices.to_frames(), vec![1, -2, 3, 4, 5, -6]);
    }

    #[test]
    fn full_eight_frame_block_roundtrips() {
        let data: Vec<i8> = (0..8 * 5).map(|i| (i as i8).wrapping_mul(13)).collect();
        let slices = ByteSlices::from_frames(&data, 5);
        assert_eq!(slices.frames(), 8);
        assert_eq!(slices.lane_mask(), u64::MAX);
        assert_eq!(slices.to_frames(), data);
    }

    #[test]
    fn unused_lanes_stay_zero() {
        let slices = ByteSlices::from_frames(&[-1, -1, -1, -1], 2);
        assert_eq!(slices.frames(), 2);
        assert_eq!(slices.word(0) & !slices.lane_mask(), 0);
        assert_eq!(slices.lane_mask(), 0xFFFF);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut slices = ByteSlices::zeros(3, 4);
        slices.set(2, 3, -77);
        assert_eq!(slices.get(2, 3), -77);
        assert_eq!(slices.get(1, 3), 0);
        slices.set(2, 3, 0);
        assert_eq!(slices.word(3), 0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_frames_rejected() {
        ByteSlices::from_frames(&[0; 9], 1);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn ragged_data_rejected() {
        ByteSlices::from_frames(&[0; 5], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_index_out_of_range_panics() {
        lane(0, 8);
    }
}
