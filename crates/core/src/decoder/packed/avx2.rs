//! The AVX2 compile of the packed datapath: the check-node phase, the
//! bit-node blocks and the channel load.
//!
//! There is one source of each: the portable loops in `packed.rs`,
//! marked `#[inline(always)]` and compiled a second time here, inside
//! `#[target_feature(enable = "avx2")]` entries, where they vectorize on
//! 256-bit registers. The results are identical bit for bit. Selected at
//! run time via `is_x86_feature_detected!`: a CPU without AVX2, or a
//! target other than x86-64, runs the same loops compiled for the
//! target's baseline.
//!
//! This is the one module in the crate allowed to contain `unsafe`: the
//! entry calls below, each made only after the runtime feature check.

#![allow(unsafe_code)]

use super::PackedFixedDecoder;
use crate::LlrQuantizer;

/// Whether the running CPU supports AVX2.
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
    /// Runs the check-node phase compiled for AVX2. Returns `false`
    /// (having done nothing) when the CPU lacks AVX2, so the caller runs
    /// the baseline compile.
    pub(super) fn cn_phase_simd(&mut self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if available() {
            // SAFETY: `available()` just confirmed AVX2 on the running
            // CPU, which is exactly what the callee's `#[target_feature]`
            // requires.
            unsafe { x86::cn_phase(self) };
            return true;
        }
        false
    }

    /// Runs the bit-node blocks compiled for AVX2 (the runs too short
    /// for a block stay with the caller); `false` (having done nothing)
    /// without AVX2.
    pub(super) fn bn_blocks_simd(&mut self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if available() {
            // SAFETY: as in `cn_phase_simd`.
            unsafe { x86::bn_blocks(self) };
            return true;
        }
        false
    }
}

/// Quantizes `llrs` into `out` with the channel load compiled for AVX2,
/// byte for byte what [`quantize_into`](super::quantize_into) writes;
/// `false` (having done nothing) without AVX2.
pub(super) fn quantize_simd(quantizer: &LlrQuantizer, llrs: &[f32], out: &mut [u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: as in `cn_phase_simd`.
        unsafe { x86::quantize(quantizer, llrs, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (quantizer, llrs, out);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::quantize_into;
    use super::*;

    #[target_feature(enable = "avx2")]
    pub(super) fn cn_phase(dec: &mut PackedFixedDecoder) {
        dec.cn_phase();
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn bn_blocks(dec: &mut PackedFixedDecoder) {
        dec.bn_blocks();
    }

    /// The x86-64 baseline leaves this loop scalar; AVX2 vectorizes it
    /// eight LLRs per op.
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize(quantizer: &LlrQuantizer, llrs: &[f32], out: &mut [u8]) {
        quantize_into(quantizer, llrs, out);
    }
}
