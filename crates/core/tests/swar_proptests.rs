//! Kernel-level SWAR contract: every primitive in
//! `ldpc_core::decoder::swar` equals an 8-iteration scalar loop over its
//! lanes, for arbitrary `i8` lane patterns — including the quantizer
//! rails (±31), the type extremes (±127, −128), and mixed-sign words
//! that stress carry/borrow isolation at every lane boundary.
//!
//! These are the proofs the packed decoder's bit-exactness rests on: the
//! composed phases are exercised end-to-end elsewhere (unit tests,
//! conformance, golden vectors); here each word op is pinned to its
//! per-lane scalar meaning in isolation. The case count honours the
//! `PROPTEST_CASES` environment variable (default 96), which CI raises
//! for a deeper lane-pattern shake on every push.

use gf2::lanes::{pack_lanes, unpack_lanes};
use ldpc_core::decoder::kernels::Scaling;
use ldpc_core::decoder::swar::{
    abs_i8, add_wrap8, apply_sign8, bit_gather8, eq7_mask, ltu15_mask16, ltu7_mask, ltu_mask,
    min_u16, narrow_bytes, scale_mag8, select8, sign_mask8, splat8, widen_even, widen_odd,
};
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` env override, else a default high enough
/// to hit every rail pairing in every lane position.
fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96);
    ProptestConfig::with_cases(cases)
}

/// An i8 lane biased toward the decoder's interesting values: the ±31
/// quantizer rails, the saturation rails ±127, the wrap-hazard −128,
/// zero and ±1 (carry-boundary neighbours) — with arbitrary values mixed
/// in so the full range stays covered.
fn lane() -> impl Strategy<Value = i8> {
    (0u8..12, any::<i8>()).prop_map(|(sel, r)| match sel {
        0 => 31,
        1 => -31,
        2 => 127,
        3 => -128,
        4 => 0,
        5 => 1,
        6 => -1,
        _ => r,
    })
}

/// An 8-lane word of independently drawn biased lanes.
fn word() -> impl Strategy<Value = [i8; 8]> {
    (
        lane(),
        lane(),
        lane(),
        lane(),
        lane(),
        lane(),
        lane(),
        lane(),
    )
        .prop_map(|(a, b, c, d, e, f, g, h)| [a, b, c, d, e, f, g, h])
}

/// A lane already saturated into the bounded-primitive domain `0..=127`.
fn lane7() -> impl Strategy<Value = i8> {
    (0u8..8, 0i8..=127).prop_map(|(sel, r)| match sel {
        0 => 0,
        1 => 31,
        2 => 127,
        _ => r,
    })
}

fn word7() -> impl Strategy<Value = [i8; 8]> {
    (
        lane7(),
        lane7(),
        lane7(),
        lane7(),
        lane7(),
        lane7(),
        lane7(),
        lane7(),
    )
        .prop_map(|(a, b, c, d, e, f, g, h)| [a, b, c, d, e, f, g, h])
}

/// A u16 lane in the bounded `0..=0x7FFF` accumulator domain, biased
/// toward the byte boundary and the domain rails.
fn lane15() -> impl Strategy<Value = u16> {
    (0u8..8, 0u16..=0x7FFF).prop_map(|(sel, r)| match sel {
        0 => 0,
        1 => 0x7FFF,
        2 => 0xFF,
        3 => 0x100,
        _ => r,
    })
}

fn word16() -> impl Strategy<Value = [u16; 4]> {
    (lane15(), lane15(), lane15(), lane15()).prop_map(|(a, b, c, d)| [a, b, c, d])
}

fn pack16(l: [u16; 4]) -> u64 {
    l.iter()
        .enumerate()
        .map(|(i, &v)| u64::from(v) << (16 * i))
        .sum()
}

fn unpack16(w: u64) -> [u16; 4] {
    std::array::from_fn(|i| ((w >> (16 * i)) & 0xFFFF) as u16)
}

proptest! {
    #![proptest_config(cases())]

    /// Wrapping add, and subtract as the add of a two's-complement
    /// negation (the conditional negate of `abs_i8` and `apply_sign8`):
    /// carries never cross lanes.
    #[test]
    fn wrapping_arithmetic_matches_scalar(a in word(), b in word()) {
        let (wa, wb) = (pack_lanes(a), pack_lanes(b));
        let sum = unpack_lanes(add_wrap8(wa, wb));
        let diff = unpack_lanes(add_wrap8(wa, add_wrap8(!wb, splat8(1))));
        for f in 0..8 {
            prop_assert_eq!(sum[f], a[f].wrapping_add(b[f]), "add lane {}", f);
            prop_assert_eq!(diff[f], a[f].wrapping_sub(b[f]), "sub lane {}", f);
        }
    }

    /// Absolute value and sign mask, including the −128 wrap case.
    #[test]
    fn abs_and_sign_match_scalar(a in word()) {
        let w = pack_lanes(a);
        let abs = unpack_lanes(abs_i8(w));
        let sign = unpack_lanes(sign_mask8(w));
        for f in 0..8 {
            prop_assert_eq!(abs[f], a[f].wrapping_abs(), "abs lane {}", f);
            prop_assert_eq!(sign[f], if a[f] < 0 { -1 } else { 0 }, "sign lane {}", f);
        }
    }

    /// Sign product (the sign bits of the XOR, as the check node
    /// accumulates it) and re-signing of non-negative magnitudes.
    #[test]
    fn sign_product_and_apply_match_scalar(a in word(), b in word(), mags in word7()) {
        let (wa, wb) = (pack_lanes(a), pack_lanes(b));
        let sp = sign_mask8(wa ^ wb);
        let sp_lanes = unpack_lanes(sp);
        let signed = unpack_lanes(apply_sign8(pack_lanes(mags), sp));
        for f in 0..8 {
            let neg = (a[f] < 0) != (b[f] < 0);
            prop_assert_eq!(sp_lanes[f], if neg { -1 } else { 0 }, "sign lane {}", f);
            let want = if neg { -mags[f] } else { mags[f] };
            prop_assert_eq!(signed[f], want, "apply lane {}", f);
        }
    }

    /// Bit gather: bit `f` of the byte is bit `b` of lane `f`, for every
    /// bit position of arbitrary lane patterns.
    #[test]
    fn bit_gather_matches_scalar(a in word(), b in 0u32..8) {
        let got = bit_gather8(pack_lanes(a), b);
        for (f, &x) in a.iter().enumerate() {
            prop_assert_eq!(got >> f & 1, (x as u8) >> b & 1, "lane {} bit {}", f, b);
        }
    }

    /// Lane select steered by a mask built from arbitrary predicates.
    #[test]
    fn select_matches_scalar(a in word(), b in word(), c in word()) {
        let mask = sign_mask8(pack_lanes(c));
        let got = unpack_lanes(select8(mask, pack_lanes(a), pack_lanes(b)));
        for f in 0..8 {
            prop_assert_eq!(got[f], if c[f] < 0 { a[f] } else { b[f] }, "lane {}", f);
        }
    }

    /// Full-range unsigned compare over arbitrary bit patterns.
    #[test]
    fn unsigned_compare_matches_scalar(a in word(), b in word()) {
        let got = unpack_lanes(ltu_mask(pack_lanes(a), pack_lanes(b)));
        for f in 0..8 {
            let want = (a[f] as u8) < (b[f] as u8);
            prop_assert_eq!(got[f] as u8, if want { 0xFF } else { 0 }, "lane {}", f);
        }
    }

    /// Bounded-domain compare and equality (`0..=127` lanes).
    #[test]
    fn bounded_compare_matches_scalar(a in word7(), b in word7()) {
        let (wa, wb) = (pack_lanes(a), pack_lanes(b));
        let lt = unpack_lanes(ltu7_mask(wa, wb));
        let eq = unpack_lanes(eq7_mask(wa, wb));
        for f in 0..8 {
            prop_assert_eq!(lt[f] as u8, if a[f] < b[f] { 0xFF } else { 0 }, "lt lane {}", f);
            prop_assert_eq!(eq[f] as u8, if a[f] == b[f] { 0xFF } else { 0 }, "eq lane {}", f);
        }
    }

    /// Shift-add normalization equals `Scaling::apply` on every lane.
    #[test]
    fn scaling_matches_scalar_kernel(
        mags in word7(),
        s in prop::sample::select(vec![
            Scaling::Unity,
            Scaling::SevenEighths,
            Scaling::ThreeQuarters,
            Scaling::Half,
        ]),
    ) {
        let got = unpack_lanes(scale_mag8(pack_lanes(mags), s));
        for f in 0..8 {
            prop_assert_eq!(got[f] as i16, s.apply(mags[f] as i16), "lane {} {:?}", f, s);
        }
    }

    /// splat8 puts the value in all 8 lanes.
    #[test]
    fn splat_fills_every_lane(x in any::<i8>()) {
        prop_assert_eq!(unpack_lanes(splat8(x)), [x; 8]);
    }

    /// Byte→u16 widening and narrowing round trip, and the u16 lanes hold
    /// the unsigned byte values.
    #[test]
    fn widen_narrow_roundtrip(a in word()) {
        let w = pack_lanes(a);
        let (even, odd) = (widen_even(w), widen_odd(w));
        prop_assert_eq!(narrow_bytes(even, odd), w);
        let (le, lo) = (unpack16(even), unpack16(odd));
        for f in 0..4 {
            prop_assert_eq!(le[f], u16::from(a[2 * f] as u8), "even lane {}", f);
            prop_assert_eq!(lo[f], u16::from(a[2 * f + 1] as u8), "odd lane {}", f);
        }
    }

    /// u16-lane compare and minimum over the bounded accumulator domain.
    #[test]
    fn u16_compare_and_min_match_scalar(a in word16(), b in word16()) {
        let (wa, wb) = (pack16(a), pack16(b));
        let lt = unpack16(ltu15_mask16(wa, wb));
        let mn = unpack16(min_u16(wa, wb));
        for f in 0..4 {
            prop_assert_eq!(lt[f], if a[f] < b[f] { 0xFFFF } else { 0 }, "lt lane {}", f);
            prop_assert_eq!(mn[f], a[f].min(b[f]), "min lane {}", f);
        }
    }
}
