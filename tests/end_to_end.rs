//! End-to-end integration: encoder → BPSK/AWGN channel → every decoder,
//! on both the real CCSDS C2 code and the structurally identical demo code.

use ccsds_ldpc::channel::AwgnChannel;
use ccsds_ldpc::core::codes::{ccsds_c2, small::demo_code};
use ccsds_ldpc::core::{
    BlockDecoder, Encoder, FixedConfig, FixedDecoder, LayeredMinSumDecoder, MinSumConfig,
    MinSumDecoder, SumProductDecoder,
};
use ccsds_ldpc::gf2::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn decoders(code: std::sync::Arc<ccsds_ldpc::core::LdpcCode>) -> Vec<Box<dyn BlockDecoder>> {
    vec![
        Box::new(SumProductDecoder::new(code.clone())),
        Box::new(MinSumDecoder::new(code.clone(), MinSumConfig::plain())),
        Box::new(MinSumDecoder::new(
            code.clone(),
            MinSumConfig::normalized(4.0 / 3.0),
        )),
        Box::new(MinSumDecoder::new(code.clone(), MinSumConfig::offset(0.2))),
        Box::new(FixedDecoder::new(code.clone(), FixedConfig::default())),
        Box::new(LayeredMinSumDecoder::new(code.clone(), 4.0 / 3.0)),
    ]
}

#[test]
fn c2_frame_roundtrip_through_clean_channel() {
    let code = ccsds_c2::code();
    let mut rng = StdRng::seed_from_u64(1);
    let info: Vec<u8> = (0..ccsds_c2::K_INFO)
        .map(|_| rng.gen_range(0..2u8))
        .collect();
    let cw = ccsds_c2::encode_frame(&info).unwrap();
    let llrs: Vec<f32> = (0..code.n())
        .map(|i| if cw.get(i) { -5.0 } else { 5.0 })
        .collect();
    for mut dec in decoders(code.clone()) {
        let out = dec.decode_block(&llrs, 10).remove(0);
        assert!(out.converged, "{}", dec.name());
        assert_eq!(out.hard_decision, cw, "{}", dec.name());
    }
}

#[test]
fn c2_survives_waterfall_noise_at_4_2_db() {
    let code = ccsds_c2::code();
    let mut rng = StdRng::seed_from_u64(2);
    let info: Vec<u8> = (0..ccsds_c2::K_INFO)
        .map(|_| rng.gen_range(0..2u8))
        .collect();
    let cw = ccsds_c2::encode_frame(&info).unwrap();
    let mut channel = AwgnChannel::from_ebn0(4.2, code.rate(), 1234);
    let llrs = channel.transmit_codeword(&cw);
    // The fixed-point hardware datapath at the paper's 18 iterations.
    let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
    let out = dec.decode(&llrs, 18);
    assert!(out.converged);
    assert_eq!(out.hard_decision, cw);
}

#[test]
fn c2_decoder_flags_hopeless_frames() {
    let code = ccsds_c2::code();
    // Garbage input: random strong LLRs cannot satisfy 1022 checks.
    let mut rng = StdRng::seed_from_u64(3);
    let llrs: Vec<f32> = (0..code.n())
        .map(|_| if rng.gen_bool(0.5) { 8.0 } else { -8.0 })
        .collect();
    let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
    let out = dec.decode(&llrs, 5);
    assert!(!out.converged, "garbage should not satisfy the syndrome");
    assert_eq!(out.iterations, 5);
}

#[test]
fn demo_code_random_traffic_all_decoders() {
    let code = demo_code();
    let enc = Encoder::new(&code).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let mut channel = AwgnChannel::from_ebn0(6.5, code.rate(), 88);
    for trial in 0..10 {
        let msg: BitVec = (0..enc.dimension()).map(|_| rng.gen_bool(0.5)).collect();
        let cw = enc.encode(&msg).unwrap();
        let llrs = channel.transmit_codeword(&cw);
        for mut dec in decoders(code.clone()) {
            let out = dec.decode_block(&llrs, 40).remove(0);
            assert!(out.converged, "trial {trial}: {}", dec.name());
            assert_eq!(
                enc.extract_message(&out.hard_decision),
                msg,
                "trial {trial}: {}",
                dec.name()
            );
        }
    }
}

#[test]
fn erased_parity_bits_are_recovered() {
    // Zero-LLR (erased) positions carry no information; the code should
    // fill a few of them from parity structure alone.
    let code = demo_code();
    let mut llrs = vec![4.0f32; code.n()];
    for &i in &[10usize, 75, 140, 230] {
        llrs[i] = 0.0;
    }
    let mut dec = SumProductDecoder::new(code.clone());
    let out = dec.decode(&llrs, 30);
    assert!(out.converged);
    assert!(out.hard_decision.is_zero());
}

#[test]
fn fixed_point_matches_float_reference_at_moderate_noise() {
    // The 6-bit datapath should agree with the float NMS on the vast
    // majority of moderately noisy frames (quantization rarely matters).
    let code = demo_code();
    let mut channel = AwgnChannel::from_ebn0(5.0, code.rate(), 55);
    let mut fixed = FixedDecoder::new(code.clone(), FixedConfig::default());
    let mut float = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(4.0 / 3.0));
    let mut agree = 0;
    let trials = 30;
    for _ in 0..trials {
        let llrs = channel.transmit_codeword(&BitVec::zeros(code.n()));
        let a = fixed.decode(&llrs, 25);
        let b = float.decode(&llrs, 25);
        if a.hard_decision == b.hard_decision {
            agree += 1;
        }
    }
    assert!(agree >= trials - 2, "only {agree}/{trials} agreed");
}

#[test]
fn c2_code_and_encoder_are_shared_instances() {
    // The cached constructors hand out the same Arc, so heavy Gaussian
    // elimination happens once per process.
    let a = ccsds_c2::code();
    let b = ccsds_c2::code();
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    let ea = ccsds_c2::encoder();
    let eb = ccsds_c2::encoder();
    assert!(std::sync::Arc::ptr_eq(&ea, &eb));
}
