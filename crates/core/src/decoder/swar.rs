//! SWAR (SIMD-within-a-register) kernels: lane-wise fixed-point
//! arithmetic on `u64` words of 8 × `i8` lanes (and 2 × `u64` words of
//! 8 × `u16` lanes for the wide bit-node accumulator).
//!
//! These are the word-parallel mirrors of the scalar kernels in
//! [`kernels`](crate::decoder::kernels): one call advances 8 messages at
//! once — in the packed decoder, 8 adjacent checks or bits of one frame.
//! The packed decoder ([`PackedFixedDecoder`](crate::PackedFixedDecoder))
//! composes them into check-node and bit-node phases that are
//! **bit-exact** against [`FixedDecoder`](crate::FixedDecoder); the
//! kernel-level contract (every primitive equals an 8-iteration scalar
//! loop) is pinned by `swar_proptests`.
//!
//! Lane order is little-endian, matching [`gf2::lanes`]: lane `f` is
//! byte `f` (`u64::to_le_bytes`). Two primitive tiers:
//!
//! * **General** primitives ([`add_wrap8`], [`abs_i8`], [`ltu_mask`],
//!   [`sign_mask8`], [`bit_gather8`], …) are defined for arbitrary `i8`
//!   lane patterns — the proptested public contract.
//! * **Bounded** fast paths ([`ltu7_mask`], [`eq7_mask`],
//!   [`scale_mag8`], the `u16` helpers) document a lane-domain
//!   precondition (values already saturated below the `0x80` carry
//!   boundary) that the decoder's quantized messages guarantee, and
//!   spend fewer ops by letting the sign bit absorb borrows.
//!
//! On a CPU with AVX2 the packed decoder runs a `core::arch` mirror of
//! the composed phases instead (detected at run time, same results bit
//! for bit); these portable kernels remain the reference and the path of
//! every other CPU.

use crate::decoder::kernels::Scaling;

/// Lanes per word (messages advanced per word op).
pub const LANES: usize = 8;

/// High (sign) bit of every i8 lane.
const H8: u64 = 0x8080_8080_8080_8080;
/// Low bit of every i8 lane.
const L8: u64 = 0x0101_0101_0101_0101;
/// High bit of every u16 lane.
const H16: u64 = 0x8000_8000_8000_8000;
/// Low byte of every u16 lane (byte widening mask).
const M16: u64 = 0x00FF_00FF_00FF_00FF;

/// A word with `x` in every lane (re-export of [`gf2::lanes::splat`]).
#[inline(always)]
pub fn splat8(x: i8) -> u64 {
    gf2::lanes::splat(x)
}

/// Lane-wise wrapping add: lane `f` of the result is
/// `a[f].wrapping_add(b[f])` — carries never cross lane boundaries.
#[inline(always)]
pub fn add_wrap8(a: u64, b: u64) -> u64 {
    // Add the low 7 bits of every lane (carries stop below the masked-off
    // sign bits), then restore the sign bits as a carry-less XOR.
    ((a & !H8).wrapping_add(b & !H8)) ^ ((a ^ b) & H8)
}

/// Lane-wise mask of the negative lanes: `0xFF` where `a[f] < 0`.
#[inline(always)]
pub fn sign_mask8(a: u64) -> u64 {
    ((a & H8) >> 7).wrapping_mul(0xFF)
}

/// Bit `b` of every byte lane, gathered into one byte: bit `f` of the
/// result is bit `b` of lane `f`. Over eight hard-decision bytes (bit 0
/// set where a bit decides 1) it packs eight bits' decisions into one
/// byte.
///
/// # Panics
///
/// Panics in debug builds if `b > 7`.
#[inline(always)]
pub fn bit_gather8(a: u64, b: u32) -> u8 {
    debug_assert!(b < 8, "bit {b} is not inside a byte lane");
    // (a >> b) & L8 holds lane f's bit at bit 8f. The multiplier's ones
    // sit at bits 56 − 7j (j = 0..8), so bit 8f lands on 56 + f at
    // j = f; the 64 partial products are distinct bits (no carries), and
    // every other one falls below bit 56 or past bit 63.
    (((a >> b) & L8).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// Lane-wise select: lane `f` of the result is `a[f]` where `mask`'s
/// lane is `0xFF` and `b[f]` where it is `0x00`.
///
/// `mask` must hold only `0x00` / `0xFF` lanes (as produced by the
/// `*_mask` primitives).
#[inline(always)]
pub fn select8(mask: u64, a: u64, b: u64) -> u64 {
    b ^ ((a ^ b) & mask)
}

/// Lane-wise wrapping absolute value: lane `f` is
/// `a[f].wrapping_abs()` (so `-128` stays `-128`, as in scalar `i8`).
#[inline(always)]
pub fn abs_i8(a: u64) -> u64 {
    let m = sign_mask8(a);
    // (a ^ m) + (m & 1) per lane: complement-and-increment the negative
    // lanes only.
    add_wrap8(a ^ m, m & L8)
}

/// Lane-wise unsigned `<` over full-range lanes: `0xFF` where
/// `(a[f] as u8) < (b[f] as u8)`.
#[inline(always)]
pub fn ltu_mask(a: u64, b: u64) -> u64 {
    // Borrow out of the low 7 bits of each lane's a - b.
    let d = (a | H8).wrapping_sub(b & !H8);
    // Unsigned a < b at bit 7: either a's top bit is 0 and b's is 1, or
    // the top bits agree and the low bits borrowed.
    let lt = ((!a & b) | (!(a ^ b) & !d)) & H8;
    (lt >> 7).wrapping_mul(0xFF)
}

/// Applies a sign mask to non-negative magnitudes: lane `f` is
/// `-mag[f]` where the mask lane is `0xFF` and `mag[f]` otherwise.
///
/// `mask` must hold only `0x00` / `0xFF` lanes.
#[inline(always)]
pub fn apply_sign8(mag: u64, mask: u64) -> u64 {
    // Conditional two's-complement negate: (mag ^ mask) + (mask & 1).
    add_wrap8(mag ^ mask, mask & L8)
}

// ---------------------------------------------------------------------
// Bounded fast paths: lanes already saturated below the 0x80 boundary.
// ---------------------------------------------------------------------

/// Lane-wise unsigned `<` for lanes in `0..=127`: `0xFF` where
/// `a[f] < b[f]`.
///
/// Cheaper than [`ltu_mask`] because with both operands below `0x80` the
/// borrow of `a - b` lands exactly on the spare sign bit.
///
/// # Panics
///
/// Panics in debug builds if any lane has its top bit set.
#[inline(always)]
pub fn ltu7_mask(a: u64, b: u64) -> u64 {
    debug_assert_eq!(a & H8, 0, "ltu7_mask lane out of 0..=127");
    debug_assert_eq!(b & H8, 0, "ltu7_mask lane out of 0..=127");
    // Per lane: 0x80 + a - b keeps bit 7 set iff a >= b; no lane ever
    // reaches zero, so borrows cannot cross lanes.
    let d = (a | H8).wrapping_sub(b);
    ((!d & H8) >> 7).wrapping_mul(0xFF)
}

/// Lane-wise equality for lanes in `0..=127`: `0xFF` where
/// `a[f] == b[f]`.
///
/// # Panics
///
/// Panics in debug builds if any lane has its top bit set.
#[inline(always)]
pub fn eq7_mask(a: u64, b: u64) -> u64 {
    debug_assert_eq!(a & H8, 0, "eq7_mask lane out of 0..=127");
    debug_assert_eq!(b & H8, 0, "eq7_mask lane out of 0..=127");
    let x = a ^ b; // per lane in 0..=127
                   // 0x80 - x has bit 7 set iff x == 0; x < 0x80 means no lane borrows.
    let z = H8.wrapping_sub(x);
    ((z & H8) >> 7).wrapping_mul(0xFF)
}

/// Lane-wise [`Scaling::apply`] on non-negative magnitudes in `0..=127`:
/// the shift-add normalization `x - (x >> k)` of the paper's §5, 8 lanes
/// per op.
///
/// # Panics
///
/// Panics in debug builds if any lane has its top bit set.
#[inline(always)]
pub fn scale_mag8(mag: u64, scaling: Scaling) -> u64 {
    debug_assert_eq!(mag & H8, 0, "scale_mag8 lane out of 0..=127");
    // Per-lane x >> k: shift the word and mask off bits shifted in from
    // the lane above. x >= x >> k per lane, so the subtraction borrows
    // nowhere and plain word arithmetic is exact.
    match scaling {
        Scaling::Unity => mag,
        Scaling::SevenEighths => mag.wrapping_sub((mag >> 3) & splat8(0x0F)),
        Scaling::ThreeQuarters => mag.wrapping_sub((mag >> 2) & splat8(0x1F)),
        Scaling::Half => (mag >> 1) & splat8(0x3F),
    }
}

// ---------------------------------------------------------------------
// u16-lane helpers: the wide bit-node accumulator (two words of 8 x u16
// lanes per 8-frame quantity, lo lanes = frames 0..4, hi = frames 4..8).
// ---------------------------------------------------------------------

/// Widens the even byte lanes (frames 0, 2, 4, 6) of a byte word into
/// u16 lanes.
#[inline(always)]
pub fn widen_even(bytes: u64) -> u64 {
    bytes & M16
}

/// Widens the odd byte lanes (frames 1, 3, 5, 7) of a byte word into
/// u16 lanes.
#[inline(always)]
pub fn widen_odd(bytes: u64) -> u64 {
    (bytes >> 8) & M16
}

/// Narrows two u16-lane words (even / odd frames, as produced by
/// [`widen_even`] / [`widen_odd`]) back to one byte word. Lane values
/// must fit a byte.
///
/// # Panics
///
/// Panics in debug builds if any u16 lane exceeds `0xFF`.
#[inline(always)]
pub fn narrow_bytes(even: u64, odd: u64) -> u64 {
    debug_assert_eq!(even & !M16, 0, "narrow_bytes even lane exceeds a byte");
    debug_assert_eq!(odd & !M16, 0, "narrow_bytes odd lane exceeds a byte");
    even | (odd << 8)
}

/// u16-lane unsigned `<` for lanes in `0..=0x7FFF`: `0xFFFF` where
/// `a[f] < b[f]`.
///
/// # Panics
///
/// Panics in debug builds if any lane has its top bit set.
#[inline(always)]
pub fn ltu15_mask16(a: u64, b: u64) -> u64 {
    debug_assert_eq!(a & H16, 0, "ltu15_mask16 lane out of 0..=0x7FFF");
    debug_assert_eq!(b & H16, 0, "ltu15_mask16 lane out of 0..=0x7FFF");
    let d = (a | H16).wrapping_sub(b);
    ((!d & H16) >> 15).wrapping_mul(0xFFFF)
}

/// u16-lane unsigned minimum for lanes in `0..=0x7FFF`.
///
/// # Panics
///
/// Panics in debug builds if any lane has its top bit set.
#[inline(always)]
pub fn min_u16(a: u64, b: u64) -> u64 {
    select8(ltu15_mask16(a, b), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::lanes::{pack_lanes, unpack_lanes};

    /// A handful of adversarial lane patterns: rails, extremes, mixed
    /// signs, and carry-boundary neighbours in adjacent lanes.
    fn corpus() -> Vec<[i8; 8]> {
        vec![
            [0; 8],
            [31, -31, 31, -31, 31, -31, 31, -31],
            [127, -128, 1, -1, 0, 127, -128, 64],
            [-1, -1, -1, -1, 1, 1, 1, 1],
            [15, -15, 31, -31, 127, -128, 0, -1],
            [100, -100, 27, -27, 90, -90, 63, -64],
            [1, 2, 3, 4, 5, 6, 7, 8],
            [-128, -128, 127, 127, -128, 127, 0, 0],
        ]
    }

    #[test]
    fn wrapping_add_sub_match_scalar_lanes() {
        for a in corpus() {
            for b in corpus() {
                let (wa, wb) = (pack_lanes(a), pack_lanes(b));
                let sum = unpack_lanes(add_wrap8(wa, wb));
                // Subtraction as the add of a two's-complement negation,
                // the conditional negate of `abs_i8` and `apply_sign8`.
                let diff = unpack_lanes(add_wrap8(wa, add_wrap8(!wb, splat8(1))));
                for f in 0..8 {
                    assert_eq!(sum[f], a[f].wrapping_add(b[f]), "add lane {f}");
                    assert_eq!(diff[f], a[f].wrapping_sub(b[f]), "sub lane {f}");
                }
            }
        }
    }

    #[test]
    fn abs_and_sign_match_scalar_lanes() {
        for a in corpus() {
            let w = pack_lanes(a);
            let abs = unpack_lanes(abs_i8(w));
            let sign = unpack_lanes(sign_mask8(w));
            for f in 0..8 {
                assert_eq!(abs[f], a[f].wrapping_abs(), "abs lane {f}");
                assert_eq!(sign[f], if a[f] < 0 { -1 } else { 0 }, "sign lane {f}");
            }
        }
    }

    #[test]
    fn bit_gather_matches_scalar_lanes() {
        for a in corpus() {
            let w = pack_lanes(a);
            for (f, &x) in a.iter().enumerate() {
                for b in 0..8 {
                    let got = bit_gather8(w, b) >> f & 1;
                    assert_eq!(got, (x as u8) >> b & 1, "bit {b} of lane {f}");
                }
            }
        }
    }

    #[test]
    fn unsigned_compare_matches_scalar_lanes() {
        for a in corpus() {
            for b in corpus() {
                let got = unpack_lanes(ltu_mask(pack_lanes(a), pack_lanes(b)));
                for f in 0..8 {
                    let want = (a[f] as u8) < (b[f] as u8);
                    assert_eq!(got[f] as u8, if want { 0xFF } else { 0 }, "lane {f}");
                }
            }
        }
    }

    #[test]
    fn bounded_compare_and_equality_match_scalar() {
        let bounded: Vec<[i8; 8]> = vec![
            [0, 1, 31, 127, 64, 100, 5, 99],
            [31; 8],
            [127, 0, 127, 0, 1, 1, 2, 2],
        ];
        for a in &bounded {
            for b in &bounded {
                let lt = unpack_lanes(ltu7_mask(pack_lanes(*a), pack_lanes(*b)));
                let eq = unpack_lanes(eq7_mask(pack_lanes(*a), pack_lanes(*b)));
                for f in 0..8 {
                    assert_eq!(lt[f] as u8, if a[f] < b[f] { 0xFF } else { 0 }, "lt {f}");
                    assert_eq!(eq[f] as u8, if a[f] == b[f] { 0xFF } else { 0 }, "eq {f}");
                }
            }
        }
    }

    #[test]
    fn scaling_matches_scalar_kernel() {
        for mags in [[0i8, 1, 2, 3, 12, 13, 31, 127], [127; 8], [31; 8]] {
            for s in [
                Scaling::Unity,
                Scaling::SevenEighths,
                Scaling::ThreeQuarters,
                Scaling::Half,
            ] {
                let got = unpack_lanes(scale_mag8(pack_lanes(mags), s));
                for f in 0..8 {
                    assert_eq!(got[f] as i16, s.apply(mags[f] as i16), "lane {f} {s:?}");
                }
            }
        }
    }

    #[test]
    fn sign_product_and_apply_sign_compose() {
        let a = pack_lanes([1, -1, 2, -2, 0, 5, -5, 127]);
        let b = pack_lanes([1, 1, -2, -2, -3, 5, 5, -127]);
        // The check node's sign product: the sign bits of the XOR.
        let lane = |w: u64, f: usize| (w >> (8 * f)) as i8;
        let sp = unpack_lanes(sign_mask8(a ^ b));
        for (f, &s) in sp.iter().enumerate() {
            let want = (lane(a, f) < 0) != (lane(b, f) < 0);
            assert_eq!(s, if want { -1 } else { 0 }, "lane {f}");
        }
        let mags = pack_lanes([3, 3, 3, 3, 3, 3, 3, 3]);
        let signed = unpack_lanes(apply_sign8(mags, sign_mask8(a ^ b)));
        for (f, &v) in signed.iter().enumerate() {
            let want = (lane(a, f) < 0) != (lane(b, f) < 0);
            assert_eq!(v, if want { -3 } else { 3 }, "lane {f}");
        }
    }

    #[test]
    fn widen_narrow_roundtrip() {
        let w = pack_lanes([1, -1, 31, -31, 0, 127, -128, 64]);
        // Widening treats lanes as unsigned bytes.
        let even = widen_even(w);
        let odd = widen_odd(w);
        assert_eq!(narrow_bytes(even, odd), w);
        for f in 0..4 {
            assert_eq!(
                (even >> (16 * f)) & 0xFFFF,
                (w >> (16 * f)) & 0xFF,
                "even lane {f}"
            );
            assert_eq!(
                (odd >> (16 * f)) & 0xFFFF,
                (w >> (16 * f + 8)) & 0xFF,
                "odd lane {f}"
            );
        }
    }

    #[test]
    fn u16_compare_and_min_match_scalar() {
        let words: Vec<[u16; 4]> = vec![
            [0, 1, 0x7FFF, 500],
            [500, 500, 500, 500],
            [1, 0x7FFF, 2, 499],
        ];
        let pack = |l: [u16; 4]| -> u64 {
            l.iter()
                .enumerate()
                .map(|(i, &v)| u64::from(v) << (16 * i))
                .sum()
        };
        for a in &words {
            for b in &words {
                let lt = ltu15_mask16(pack(*a), pack(*b));
                let mn = min_u16(pack(*a), pack(*b));
                for f in 0..4 {
                    let got_lt = (lt >> (16 * f)) & 0xFFFF;
                    assert_eq!(got_lt, if a[f] < b[f] { 0xFFFF } else { 0 }, "lt lane {f}");
                    let got_mn = (mn >> (16 * f)) & 0xFFFF;
                    assert_eq!(got_mn, u64::from(a[f].min(b[f])), "min lane {f}");
                }
            }
        }
    }
}
