//! Robustness integration: the decoder stack across channel models,
//! shortening, and erasures — conditions a flight decoder IP must survive.

use ccsds_ldpc::channel::{AwgnChannel, BscChannel, ErasureChannel, RayleighChannel};
use ccsds_ldpc::core::codes::small::demo_code;
use ccsds_ldpc::core::{
    Encoder, FixedConfig, FixedDecoder, MinSumConfig, MinSumDecoder, PeelingDecoder, ShortenedCode,
    SumProductDecoder,
};
use ccsds_ldpc::gf2::BitVec;

#[test]
fn decoders_work_on_bsc_input() {
    // Hard-decision input with the exact BSC LLR magnitude.
    let code = demo_code();
    let mut ch = BscChannel::new(0.01, 3);
    let mut fixed = FixedDecoder::new(code.clone(), FixedConfig::default());
    let mut spa = SumProductDecoder::new(code.clone());
    let mut decoded = 0;
    let trials = 30;
    for _ in 0..trials {
        let llrs = ch.transmit_codeword(&BitVec::zeros(code.n()));
        let a = fixed.decode(&llrs, 30);
        let b = spa.decode(&llrs, 30);
        if a.converged && a.hard_decision.is_zero() && b.converged && b.hard_decision.is_zero() {
            decoded += 1;
        }
    }
    assert!(
        decoded >= trials - 2,
        "only {decoded}/{trials} BSC frames decoded"
    );
}

#[test]
fn decoders_survive_rayleigh_fading() {
    let code = demo_code();
    let mut ch = RayleighChannel::new(0.35, 4);
    let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(4.0 / 3.0));
    let mut decoded = 0;
    let trials = 30;
    for _ in 0..trials {
        let llrs = ch.transmit_codeword(&BitVec::zeros(code.n()));
        let out = dec.decode(&llrs, 40);
        if out.converged && out.hard_decision.is_zero() {
            decoded += 1;
        }
    }
    assert!(
        decoded >= trials * 2 / 3,
        "only {decoded}/{trials} faded frames decoded"
    );
}

#[test]
fn shortened_code_over_awgn_channel() {
    // Full chain: shortened encode -> AWGN on transmitted bits -> expand
    // with known-bit certainty -> decode -> extract info.
    let code = demo_code();
    let enc = std::sync::Arc::new(Encoder::new(&code).unwrap());
    let short = ShortenedCode::new(code.clone(), enc, 50).unwrap();
    let info: Vec<u8> = (0..short.info_len()).map(|i| (i % 2) as u8).collect();
    let cw = short.encode(&info).unwrap();
    // Transmit the unpinned positions.
    let pinned: std::collections::HashSet<u32> = short.pinned_positions().into_iter().collect();
    let tx_bits: BitVec = (0..code.n())
        .filter(|i| !pinned.contains(&(*i as u32)))
        .map(|i| cw.get(i))
        .collect();
    let mut ch = AwgnChannel::from_ebn0(5.5, short.rate(), 77);
    let received = ch.transmit_codeword(&tx_bits);
    let llrs = short.expand_llrs(&received);
    let mut dec = MinSumDecoder::new(code, MinSumConfig::normalized(1.25));
    let out = dec.decode(&llrs, 40);
    assert!(out.converged);
    assert_eq!(short.extract_info(&out.hard_decision).to_bits(), info);
}

#[test]
fn mixed_erasures_and_noise() {
    // A burst of erasures (zero LLRs) on top of Gaussian noise.
    let code = demo_code();
    let mut ch = AwgnChannel::from_ebn0(6.0, code.rate(), 9);
    let mut llrs = ch.transmit_codeword(&BitVec::zeros(code.n()));
    for llr in llrs.iter_mut().skip(100).take(12) {
        *llr = 0.0; // erased burst
    }
    let mut dec = SumProductDecoder::new(code.clone());
    let out = dec.decode(&llrs, 40);
    assert!(out.converged, "erasure burst should be recoverable at 6 dB");
    assert!(out.hard_decision.is_zero());
}

#[test]
fn peeling_and_soft_decoders_agree_on_the_erasure_channel() {
    // The registered erasure channel against both decoding styles: the
    // erasure-native peeling solver and the soft fixed-point datapath
    // must each recover every frame at 8% losses on the demo code
    // (erasure limit m/n ≈ 0.24), and the erased-count bookkeeping of
    // the channel must match what the decoders saw.
    let code = demo_code();
    let mut ch = ErasureChannel::new(0.08, 11);
    let mut peeling = PeelingDecoder::new(code.clone());
    let mut fixed = FixedDecoder::new(code.clone(), FixedConfig::default());
    for _ in 0..30 {
        let llrs = ch.transmit_codeword(&BitVec::zeros(code.n()));
        let erased = llrs.iter().filter(|&&l| l == 0.0).count();
        assert!(erased < code.n() / 5, "improbable erasure count {erased}");
        let a = peeling.decode(&llrs, 30);
        let b = fixed.decode(&llrs, 30);
        assert!(a.converged && a.hard_decision.is_zero());
        assert!(b.converged && b.hard_decision.is_zero());
    }
}

#[test]
fn saturated_input_does_not_break_fixed_datapath() {
    // All-rails input (every LLR at the quantizer limit) with a few
    // adversarial wrong-signed rails.
    let code = demo_code();
    let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
    let mut ch = vec![15i16; code.n()];
    ch[0] = -15;
    ch[13] = -15;
    let out = dec.decode_quantized(&ch, 30);
    assert!(out.converged);
    assert!(out.hard_decision.is_zero());
}
