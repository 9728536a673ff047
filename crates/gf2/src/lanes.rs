//! Byte-lane words: one `u64` carrying eight `i8` lanes.
//!
//! This is [`BitSlices`](crate::BitSlices) one rung up the precision
//! ladder: instead of one *bit* per frame per plane word, each word
//! carries one **byte** per frame — 8 frames in lockstep, the
//! frames-per-word packing of the paper's high-speed variant applied to
//! soft messages (6-bit saturating fixed point fits an `i8` lane with
//! headroom). The SWAR kernels in `ldpc-core` work on such words;
//! [`splat`], [`pack_lanes`] and [`unpack_lanes`] build and check them.
//!
//! Lane order is little-endian: lane `f` is byte `f`, so [`splat`] /
//! [`pack_lanes`] / [`unpack_lanes`] agree with `u64::to_le_bytes`.

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
}
