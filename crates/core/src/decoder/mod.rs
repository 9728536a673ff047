//! The decoder family: message-passing decoders over the Tanner graph.
//!
//! All decoders implement [`BlockDecoder`] and share the same
//! edge-indexed message layout defined by
//! [`TannerGraph`](crate::TannerGraph). The
//! classical flooding iteration follows the paper's §2.1: bit nodes send
//! messages to check nodes, check nodes process (eq. 1–2), send back, and
//! bit nodes update (eq. 3).
//!
//! | Decoder | Arithmetic | CN rule | Paper role |
//! |---------|-----------|---------|------------|
//! | [`SumProductDecoder`] | `f32` | tanh product | reference ("BP") |
//! | [`MinSumDecoder`] | `f32` | sign·min with normalization/offset | eq. (2) |
//! | [`FixedDecoder`] | saturating integer, one edge at a time | sign·min, shift-add scaling | the FPGA datapath; the per-edge reference |
//! | [`LayeredMinSumDecoder`] | `f32` | sign·min, serial schedule | ablation (A3) |
//! | [`QcLayeredDecoder`] | `f32` | sign·min, block-layered over rotate-indexed circulant planes | the banked-memory datapath (Fig. 3) |
//! | [`BatchMinSumDecoder`] | `f32`, ×F frames | lockstep over interleaved memory | frames-per-word packing (Table 3) |
//! | [`PackedFixedDecoder`] | i8 lanes: 1 frame × 32 adjacent checks or 16 adjacent bits per block | sign·min on byte lanes, plain lane loops the compiler vectorizes (AVX2 mirror where the CPU has it) | the paper's low-cost instance at register width: `fixed` (and its aliases `fixed@pack=8`, `fixed@batch=N`) |
//! | [`BitsliceGallagerBDecoder`] | boolean planes, ×64 frames | majority vote via carry-save counters | frames-per-word at the hard-decision limit |
//! | [`PeelingDecoder`] | GF(2) | degree-1 erasure peeling + dense inactivation solve | fountain-code baseline for the packet-loss workload |
//!
//! Per-frame families (the packed one included) also offer an inherent
//! `decode` of one frame; the batched ones an inherent `decode_batch` of
//! up to one word. Every
//! family is reachable declaratively too: [`DecoderSpec`] parses a spec
//! string (`nms:1.25@batch=8`, `gallager-b@bitslice`, …) and builds the
//! decoder as a `Box<dyn BlockDecoder>` — the registry the simulator,
//! CLI, conformance suite, and benches all drive.

mod alpha;
mod batch;
mod bitflip;
mod bitslice;
mod block;
mod fixed;
pub mod kernels;
mod layered;
mod minsum;
mod packed;
mod peeling;
mod qc_layered;
mod selfcorrect;
mod spa;
mod spec;

pub use alpha::{fine_alpha_schedule, mean_matching_alpha, nearest_hardware_scaling};
pub use batch::BatchMinSumDecoder;
pub use bitflip::{GallagerBDecoder, WeightedBitFlipDecoder};
pub use bitslice::BitsliceGallagerBDecoder;
pub use block::BlockDecoder;
pub use fixed::{DecodeTrace, FixedConfig, FixedDecoder, IterationStats};
pub use kernels::Scaling;
pub use layered::LayeredMinSumDecoder;
pub use minsum::{MinSumConfig, MinSumDecoder, MinSumVariant};
pub use packed::{PackedFixedDecoder, PACK_LANES};
pub use peeling::{PeelingDecoder, PEELING_ERASURE_FRACTION};
pub use qc_layered::QcLayeredDecoder;
pub use selfcorrect::SelfCorrectedMinSumDecoder;
pub use spa::SumProductDecoder;
pub use spec::{
    DecoderFamily, DecoderSpec, SpecError, DEFAULT_ALPHA, DEFAULT_BATCH, DEFAULT_BETA,
    DEFAULT_GALLAGER_THRESHOLD,
};

use gf2::BitVec;

/// The iteration-0 state of a float soft decoder: `hard` set to the
/// channel signs (`llr < 0` ⇒ bit 1), and whether that word satisfies
/// every check — what a zero iteration budget reports.
pub(crate) fn sign_decision(graph: &crate::TannerGraph, llrs: &[f32], hard: &mut [u8]) -> bool {
    for (h, &llr) in hard.iter_mut().zip(llrs) {
        *h = u8::from(llr < 0.0);
    }
    graph.syndrome_ok(hard)
}

/// Outcome of a decoding attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeResult {
    /// Hard decision on every code bit after the final iteration.
    pub hard_decision: BitVec,
    /// Number of iterations actually performed.
    pub iterations: u32,
    /// `true` if the hard decision satisfies every parity check
    /// (zero syndrome).
    pub converged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::Encoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// Builds one of each decoder over the demo code.
    fn all_decoders() -> Vec<Box<dyn BlockDecoder>> {
        let code = demo_code();
        vec![
            Box::new(SumProductDecoder::new(code.clone())),
            Box::new(MinSumDecoder::new(code.clone(), MinSumConfig::plain())),
            Box::new(MinSumDecoder::new(
                code.clone(),
                MinSumConfig::normalized(1.25),
            )),
            Box::new(MinSumDecoder::new(code.clone(), MinSumConfig::offset(0.15))),
            Box::new(FixedDecoder::new(code.clone(), FixedConfig::default())),
            Box::new(LayeredMinSumDecoder::new(code.clone(), 1.25)),
        ]
    }

    #[test]
    fn all_decoders_accept_noiseless_zero_codeword() {
        let code = demo_code();
        let llrs = vec![4.0_f32; code.n()];
        for mut dec in all_decoders() {
            let out = dec.decode_block(&llrs, 20).remove(0);
            assert!(out.converged, "{} failed to converge", dec.name());
            assert!(out.hard_decision.is_zero(), "{} wrong output", dec.name());
            assert!(
                out.iterations <= 2,
                "{} took {} iterations",
                dec.name(),
                out.iterations
            );
        }
    }

    #[test]
    fn all_decoders_recover_noiseless_random_codeword() {
        let code = demo_code();
        let enc = Encoder::new(&code).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let msg: Vec<u8> = (0..enc.dimension())
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let cw = enc.encode_bits(&msg).unwrap();
        let llrs: Vec<f32> = (0..code.n())
            .map(|i| if cw.get(i) { -4.0 } else { 4.0 })
            .collect();
        for mut dec in all_decoders() {
            let out = dec.decode_block(&llrs, 20).remove(0);
            assert!(out.converged, "{}", dec.name());
            assert_eq!(out.hard_decision, cw, "{}", dec.name());
        }
    }

    #[test]
    fn all_decoders_correct_a_few_flipped_bits() {
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(12);
        // All-zero codeword with 4 bits pushed toward 1 and mild noise.
        let mut llrs: Vec<f32> = (0..code.n()).map(|_| 2.0 + rng.gen::<f32>()).collect();
        for &i in &[5usize, 60, 130, 200] {
            llrs[i] = -1.5;
        }
        for mut dec in all_decoders() {
            let out = dec.decode_block(&llrs, 50).remove(0);
            assert!(out.converged, "{} did not converge", dec.name());
            assert!(
                out.hard_decision.is_zero(),
                "{} failed to correct",
                dec.name()
            );
        }
    }

    #[test]
    fn unconverged_result_reports_honestly() {
        let code = demo_code();
        // Adversarial garbage: strong wrong beliefs everywhere.
        let mut rng = StdRng::seed_from_u64(13);
        let llrs: Vec<f32> = (0..code.n())
            .map(|_| if rng.gen_bool(0.5) { -6.0 } else { 6.0 })
            .collect();
        let mut dec = MinSumDecoder::new(code, MinSumConfig::plain());
        let out = dec.decode(&llrs, 3);
        if !out.converged {
            assert_eq!(out.iterations, 3);
        }
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_llr_length_panics() {
        let mut dec = SumProductDecoder::new(demo_code());
        dec.decode(&[0.0; 5], 1);
    }

    #[test]
    fn decoders_are_send() {
        fn assert_send<T: Send>(_t: &T) {}
        let code: Arc<_> = demo_code();
        let dec = SumProductDecoder::new(code);
        assert_send(&dec);
    }
}
