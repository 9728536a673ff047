//! AVX2 mirror of the packed phases and of the channel load, compiled
//! into every build.
//!
//! Same slot-major byte planes, same blocks, same arithmetic, same
//! results bit for bit as the portable lane loops — but on explicit
//! 256-bit vectors. The check-node scan covers **32 adjacent checks per
//! op**: a slot row holds slot `k` of every check side by side, so one
//! load brings slot `k` of 32 adjacent checks, and native byte-lane ops
//! (`vpabsb`/`vpminub`/`vpmaxub`/`vpblendvb`) run the two-minimum scan.
//! The bit-node phase covers **16 bits of a run per op** (8 in a run of
//! 8 to 15 bits): adjacent bits of a run own adjacent positions in every
//! row, so one 128-bit load sign-extends (`vpmovsxbw`) sixteen bits'
//! bytes into sixteen i16 lanes, and `vpacksswb` + `vpermq` narrow them
//! back for one 128-bit store; the hard decisions leave as one byte per
//! bit. The channel load is the portable branch-free quantizer loop,
//! which the x86-64 baseline leaves scalar, compiled for AVX2.
//! Selected at runtime via `is_x86_feature_detected!`: a CPU without
//! AVX2, or a target other than x86-64, runs the portable lane loops.
//! Compiled under `#[target_feature(enable = "avx2")]`, those plain loops
//! ran slower than this mirror (DESIGN.md §4.4), so it stays.
//!
//! This is the one module in the crate allowed to contain `unsafe`: the
//! entry points below run the `#[target_feature]` code only after the
//! runtime feature check, and every unchecked load or store is covered by
//! a bound [`SlotLayout::new`](super::SlotLayout) asserts at construction.

#![allow(unsafe_code)]

use super::PackedFixedDecoder;
use crate::LlrQuantizer;

/// Whether the running CPU supports the mirror's instruction set.
pub(super) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl PackedFixedDecoder {
    /// Runs the check-node phase on the AVX2 path. Returns `false`
    /// (having done nothing) when the CPU lacks AVX2, so the caller falls
    /// back to the portable lane loops.
    pub(super) fn cn_phase_simd(&mut self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if available() {
            // SAFETY: `available()` just confirmed AVX2 on the running
            // CPU, which is exactly what the callee's `#[target_feature]`
            // requires.
            unsafe { self.cn_phase_avx2() };
            return true;
        }
        false
    }

    /// Runs the bit-node words on the AVX2 path (the runs shorter than
    /// a word stay with the caller); `false` (having done nothing)
    /// without AVX2.
    pub(super) fn bn_words_simd(&mut self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if available() {
            // SAFETY: as in `cn_phase_simd`.
            unsafe { self.bn_words_avx2() };
            return true;
        }
        false
    }
}

/// Quantizes `llrs` into `out` on the AVX2 path, byte for byte what
/// [`quantize_into`](super::quantize_into) writes; `false` (having done
/// nothing) without AVX2.
pub(super) fn quantize_simd(quantizer: &LlrQuantizer, llrs: &[f32], out: &mut [u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: as in `cn_phase_simd`.
        unsafe { x86::quantize_avx2(quantizer, llrs, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (quantizer, llrs, out);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::{quantize_into, MAX_BN_DEGREE, PACK_LANES};
    use super::*;
    use crate::decoder::kernels::Scaling;
    use std::arch::x86_64::*;

    /// Narrows sixteen i16 lanes already inside `-127..=127` to sixteen
    /// bytes in lane order: `vpacksswb` packs within each 128-bit half,
    /// and `vpermq` gathers the two useful quadwords into the low half.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn narrow(v: __m256i) -> __m128i {
        _mm256_castsi256_si128(_mm256_permute4x64_epi64(_mm256_packs_epi16(v, v), 0b10_00))
    }

    /// Loads `W` consecutive words (`W` = 1 or 2) from byte `src` and
    /// sign-extends their bytes to i16 lanes: word 0 in the low half,
    /// word 1 (or zeros) in the high half.
    ///
    /// # Safety
    ///
    /// `src .. src + 8·W` must be readable bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_widened<const W: usize>(src: *const u8) -> __m256i {
        // SAFETY: the caller guarantees 8·W readable bytes at `src`; the
        // unaligned loads read exactly those.
        let bytes = unsafe {
            if W == 2 {
                _mm_loadu_si128(src.cast())
            } else {
                _mm_loadl_epi64(src.cast())
            }
        };
        _mm256_cvtepi8_epi16(bytes)
    }

    /// Stores the first `W` words of a narrowed vector at byte `dst`.
    ///
    /// # Safety
    ///
    /// `dst .. dst + 8·W` must be writable bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_words<const W: usize>(dst: *mut u8, v: __m128i) {
        // SAFETY: the caller guarantees 8·W writable bytes at `dst`; the
        // unaligned stores write exactly those.
        unsafe {
            if W == 2 {
                _mm_storeu_si128(dst.cast(), v);
            } else {
                _mm_storel_epi64(dst.cast(), v);
            }
        }
    }

    /// The portable channel load compiled for AVX2, which vectorizes it
    /// eight LLRs per op.
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize_avx2(quantizer: &LlrQuantizer, llrs: &[f32], out: &mut [u8]) {
        quantize_into(quantizer, llrs, out);
    }

    impl PackedFixedDecoder {
        /// Check-node phase, four word columns per op: sign product as
        /// the XOR of the raw signed words (sign bits XOR in place),
        /// two-minimum scan as `min1' = pminub(min1, mag)`,
        /// `min2' = pminub(min2, pmaxub(min1, mag))` — value-identical to
        /// the strict-`<` scalar recurrence (ties keep the earlier slot
        /// via the strict `pcmpgtb` blend).
        ///
        /// Every column scans all slot rows: unused slots hold `0x7F`
        /// lanes, which never beat the `127` seed under the strict
        /// compare and carry sign bit 0, so they change no state. Their
        /// outputs (and those of the padding checks past the real ones)
        /// land in positions no bit node reads.
        #[target_feature(enable = "avx2")]
        pub(in crate::decoder::packed) fn cn_phase_avx2(&mut self) {
            let (row, slots) = (self.row_words(), self.layout.slots);
            let bytes = PACK_LANES * slots * row;
            assert!(
                row.is_multiple_of(4)
                    && self.planes.bc.len() == bytes
                    && self.planes.cb.len() == bytes,
                "slot-major message memory out of shape"
            );
            let scaling = self.config.scaling;
            let seed = _mm256_set1_epi8(0x7F);
            let zero = _mm256_setzero_si256();
            let bc = self.planes.bc.as_ptr();
            let cb = self.planes.cb.as_mut_ptr();
            for m in (0..row).step_by(4) {
                let mut sp = zero;
                let mut min1 = seed;
                let mut min2 = seed;
                let mut argmin = zero;
                for k in 0..slots {
                    // SAFETY: k < slots and m + 4 <= row (row is a
                    // multiple of 4), so words k·row + m .. +4 lie inside
                    // the slots·row words asserted above.
                    let v =
                        unsafe { _mm256_loadu_si256(bc.add(PACK_LANES * (k * row + m)).cast()) };
                    sp = _mm256_xor_si256(sp, v);
                    let mag = _mm256_abs_epi8(v);
                    // Strict mag < min1; signed compare is safe because
                    // every lane is in 0..=127.
                    let lt1 = _mm256_cmpgt_epi8(min1, mag);
                    min2 = _mm256_min_epu8(min2, _mm256_max_epu8(min1, mag));
                    min1 = _mm256_min_epu8(min1, mag);
                    argmin = _mm256_blendv_epi8(argmin, _mm256_set1_epi8(k as i8), lt1);
                }
                let s1 = scale(min1, scaling);
                let s2 = scale(min2, scaling);
                for k in 0..slots {
                    let at = PACK_LANES * (k * row + m);
                    // SAFETY: the same in-bounds four words as the scan.
                    let v = unsafe { _mm256_loadu_si256(bc.add(at).cast()) };
                    let eq = _mm256_cmpeq_epi8(argmin, _mm256_set1_epi8(k as i8));
                    let mag = _mm256_blendv_epi8(s1, s2, eq);
                    // Output sign mask = sign bits of (sign product XOR
                    // own sign); re-sign by conditional two's complement.
                    let neg = _mm256_cmpgt_epi8(zero, _mm256_xor_si256(sp, v));
                    let out = _mm256_sub_epi8(_mm256_xor_si256(mag, neg), neg);
                    // SAFETY: cb has the same length as bc.
                    unsafe { _mm256_storeu_si256(cb.add(at).cast(), out) };
                }
            }
        }

        /// Bit-node words, sixteen bits of a run per op, in plain i16
        /// lanes: `|ch + Σ messages| ≤ 127 + 64·127` fits i16, so no bias
        /// is needed. Each edge's contribution is cached widened, the
        /// exclude-self output is one `vpsubw`, clamped to the message
        /// range, and the hard decision is the sign of the total, one
        /// byte per bit. The runs shorter than a word are the caller's.
        #[target_feature(enable = "avx2")]
        pub(in crate::decoder::packed) fn bn_words_avx2(&mut self) {
            let step = PACK_LANES;
            let bytes = self.layout.words();
            assert!(
                self.planes.bc.len() == bytes
                    && self.planes.cb.len() == bytes
                    && self.planes.ch.len() == self.code.n()
                    && self.planes.hard.len() >= self.code.n(),
                "slot-major message memory out of shape"
            );
            let planes = Pointers {
                ch: self.planes.ch.as_ptr(),
                cb: self.planes.cb.as_ptr(),
                bc: self.planes.bc.as_mut_ptr(),
                hard: self.planes.hard.as_mut_ptr(),
                hi: _mm256_set1_epi16(self.config.msg_max()),
                lo: _mm256_set1_epi16(-self.config.msg_max()),
            };
            let mut contrib = [_mm256_setzero_si256(); MAX_BN_DEGREE];
            for run in self.layout.runs.iter().filter(|run| run.len >= step) {
                let pos = &self.layout.run_pos[run.pos.clone()];
                // Double words while they fit, then one double or single
                // word moved back onto the run's last bit; an overlap is
                // recomputed to the same values. Every update covers bits
                // j .. j + W·step with j + W·step <= run.len.
                let mut j = 0;
                while j + 2 * step <= run.len {
                    // SAFETY: j + 2·step <= run.len, and `SlotLayout::new`
                    // asserted run.bit + run.len <= n, p + run.len <=
                    // words for every p, and pos.len() <= MAX_BN_DEGREE;
                    // the plane lengths are checked above.
                    unsafe { planes.update::<2>(run.bit + j, pos, j, &mut contrib) };
                    j += 2 * step;
                }
                if j < run.len && run.len >= 2 * step {
                    let j = run.len - 2 * step;
                    // SAFETY: j + 2·step = run.len; the same bounds.
                    unsafe { planes.update::<2>(run.bit + j, pos, j, &mut contrib) };
                } else if j < run.len {
                    // SAFETY: step <= run.len; the same bounds.
                    unsafe { planes.update::<1>(run.bit, pos, 0, &mut contrib) };
                    if run.len > step {
                        let j = run.len - step;
                        // SAFETY: j + step = run.len; the same bounds.
                        unsafe { planes.update::<1>(run.bit + j, pos, j, &mut contrib) };
                    }
                }
            }
        }
    }

    /// The bit-node words' view of the decoder's byte planes, in which
    /// every position and every bit owns one byte (every access is
    /// unaligned).
    struct Pointers {
        ch: *const u8,
        cb: *const u8,
        bc: *mut u8,
        hard: *mut u8,
        /// `msg_max` in every i16 lane.
        hi: __m256i,
        /// `-msg_max` in every i16 lane.
        lo: __m256i,
    }

    impl Pointers {
        /// Updates the `8·W` bits from bit `b` of one run, whose edges sit
        /// at positions `p + j ..` for each `p` in `pos`.
        ///
        /// # Safety
        ///
        /// `b + 8·W` must not exceed the channel and hard planes, `p + j +
        /// 8·W` must not exceed the message planes for every `p` in
        /// `pos`, and `pos.len() <= MAX_BN_DEGREE`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn update<const W: usize>(
            &self,
            b: usize,
            pos: &[u32],
            j: usize,
            contrib: &mut [__m256i; MAX_BN_DEGREE],
        ) {
            // SAFETY: b + 8·W is within the channel plane, and j <= p + j
            // for any p, within the message planes (caller).
            let (mut t, cb, bc) = unsafe {
                (
                    load_widened::<W>(self.ch.add(b)),
                    self.cb.add(j),
                    self.bc.add(j),
                )
            };
            for (c, &p) in contrib.iter_mut().zip(pos) {
                // SAFETY: p + j + 8·W is within cb (caller).
                *c = unsafe { load_widened::<W>(cb.add(p as usize)) };
                t = _mm256_add_epi16(t, *c);
            }
            for (c, &p) in contrib.iter().zip(pos) {
                let v = _mm256_sub_epi16(t, *c);
                let clamped = _mm256_max_epi16(_mm256_min_epi16(v, self.hi), self.lo);
                // SAFETY: p + j + 8·W is within bc (caller).
                unsafe { store_words::<W>(bc.add(p as usize), narrow(clamped)) };
            }
            // Hard decision: posterior < 0, bit 0 of each bit's byte.
            let hard = narrow(_mm256_cmpgt_epi16(_mm256_setzero_si256(), t));
            let bits = _mm_and_si128(hard, _mm_set1_epi8(1));
            // SAFETY: b + 8·W is within the hard plane (caller).
            unsafe { store_words::<W>(self.hard.add(b), bits) };
        }
    }

    /// [`Scaling::apply`] on byte lanes in `0..=127`: shift the 16-bit
    /// lanes and mask off the bits dragged across byte boundaries.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn scale(mag: __m256i, scaling: Scaling) -> __m256i {
        match scaling {
            Scaling::Unity => mag,
            Scaling::SevenEighths => _mm256_sub_epi8(
                mag,
                _mm256_and_si256(_mm256_srli_epi16(mag, 3), _mm256_set1_epi8(0x1F)),
            ),
            Scaling::ThreeQuarters => _mm256_sub_epi8(
                mag,
                _mm256_and_si256(_mm256_srli_epi16(mag, 2), _mm256_set1_epi8(0x3F)),
            ),
            Scaling::Half => _mm256_and_si256(_mm256_srli_epi16(mag, 1), _mm256_set1_epi8(0x7F)),
        }
    }
}
