//! The one decoder trait every family implements.
//!
//! [`BlockDecoder`] decodes a contiguous run of LLR frames. The paper's
//! decoder is one generic datapath whose frames-per-word count is a
//! parameter (one frame in flight in the low-cost instance, eight in the
//! high-speed one), and the trait mirrors that: per-frame families keep
//! the default [`block_frames`](BlockDecoder::block_frames) of 1, while
//! the batched, packed and bit-sliced families report their word width
//! and split longer inputs themselves. Hard-decision decoders take the
//! same LLR input — their sign front end (`llr < 0` ⇒ bit 1) is built
//! into their decoding — so they are no separate universe.
//!
//! The Monte-Carlo engine in `ldpc-sim`, the decode service, the
//! conformance suite, and the throughput benches all consume this trait;
//! a decoder registered in [`DecoderSpec`](crate::DecoderSpec) is
//! automatically usable by all of them.

use crate::decoder::DecodeResult;

/// A decoder driven block-of-frames at a time.
///
/// `decode_block` accepts any positive number of back-to-back frames
/// (frame `f` occupies `llrs[f*n .. (f+1)*n]`) and returns one
/// [`DecodeResult`] per frame in input order. Each frame runs at most
/// `max_iterations` iterations, stopping early once its syndrome is zero
/// unless the decoder is configured for fixed latency. Decoders are
/// stateful only for workspace reuse: results are deterministic in the
/// inputs.
///
/// [`block_frames`](BlockDecoder::block_frames) is the *preferred* claim
/// granularity — how many frames a driver should hand over per call to
/// hit the decoder's fast path — but callers may pass more or fewer.
///
/// LLR sign convention: positive = bit 0, negative = bit 1.
///
/// The trait is object safe: registries and services hold
/// `Box<dyn BlockDecoder>` without knowing the family.
pub trait BlockDecoder {
    /// Decodes `llrs.len() / n()` back-to-back frames.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a positive multiple of [`n`](Self::n).
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult>;

    /// Preferred frames per `decode_block` call: 1 for per-frame
    /// decoders, the word width for the batched, packed and bit-sliced
    /// ones.
    fn block_frames(&self) -> usize {
        1
    }

    /// Code length n expected for each frame.
    fn n(&self) -> usize;

    /// Human-readable name for reports, including the parameters that
    /// distinguish one configuration from another ("normalized min-sum
    /// (alpha=1.25)", …) — so a report never conflates `nms:1.25` with
    /// `nms:1.0`.
    fn name(&self) -> String;
}

impl BlockDecoder for Box<dyn BlockDecoder> {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        (**self).decode_block(llrs, max_iterations)
    }

    fn block_frames(&self) -> usize {
        (**self).block_frames()
    }

    fn n(&self) -> usize {
        (**self).n()
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

/// Checks that `llrs` holds a positive whole number of `n`-bit frames
/// and splits it into runs of at most `frames` frames — the input
/// contract and chunking every `decode_block` shares.
pub(crate) fn runs(llrs: &[f32], n: usize, frames: usize) -> std::slice::Chunks<'_, f32> {
    assert!(
        !llrs.is_empty() && llrs.len().is_multiple_of(n),
        "LLR length must be a positive multiple of the code length"
    );
    llrs.chunks(frames * n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::{
        BatchMinSumDecoder, BitsliceGallagerBDecoder, GallagerBDecoder, MinSumConfig, MinSumDecoder,
    };

    #[test]
    fn per_frame_adapter_matches_direct_decoding() {
        // A per-frame decoder is its own block adapter: decode_block is
        // the frame-by-frame loop over decode.
        let code = demo_code();
        let llrs: Vec<f32> = (0..3 * code.n())
            .map(|i| if i % 17 == 0 { -1.5 } else { 2.5 })
            .collect();
        let mut block = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
        assert_eq!(block.block_frames(), 1);
        let got = block.decode_block(&llrs, 20);
        let mut single = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
        let want: Vec<DecodeResult> = llrs
            .chunks_exact(code.n())
            .map(|frame| single.decode(frame, 20))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn batch_decoders_chunk_oversized_inputs() {
        let code = demo_code();
        // 10 frames through a capacity-4 decoder: chunks of 4, 4, 2.
        let llrs: Vec<f32> = (0..10 * code.n())
            .map(|i| if i % 13 == 0 { -1.0 } else { 3.0 })
            .collect();
        let mut per_frame = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
        let want = per_frame.decode_block(&llrs, 20);
        let mut batched = BatchMinSumDecoder::new(code, MinSumConfig::normalized(1.25), 4);
        assert_eq!(batched.block_frames(), 4);
        assert_eq!(batched.decode_block(&llrs, 20), want);
    }

    #[test]
    fn hard_decision_decoders_share_the_llr_front_door() {
        // Gallager-B consumes the same LLR frames as the soft decoders:
        // the sign front end is inside the decoder, not a separate API.
        let code = demo_code();
        let mut llrs = vec![3.0_f32; 2 * code.n()];
        llrs[17] = -3.0;
        let mut scalar: Box<dyn BlockDecoder> = Box::new(GallagerBDecoder::new(code.clone(), 3));
        let mut sliced: Box<dyn BlockDecoder> = Box::new(BitsliceGallagerBDecoder::new(code, 3));
        let want = scalar.decode_block(&llrs, 20);
        assert!(want.iter().all(|r| r.converged));
        assert_eq!(sliced.block_frames(), 64);
        assert_eq!(sliced.decode_block(&llrs, 20), want);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn batched_adapter_rejects_ragged_input() {
        // A batch decoder's decode_block checks the input contract itself.
        let code = demo_code();
        let mut dec = BatchMinSumDecoder::new(code, MinSumConfig::plain(), 4);
        dec.decode_block(&[0.0; 5], 1);
    }
}
