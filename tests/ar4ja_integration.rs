//! Integration of the AR4JA future-work extension with the decoder stack
//! and Monte-Carlo engine: punctured deep-space codes decode end to end.

use ccsds_ldpc::channel::{bpsk_modulate, AwgnChannel};
use ccsds_ldpc::core::codes::ar4ja::{Ar4jaCode, Ar4jaRate};
use ccsds_ldpc::core::{Encoder, MinSumConfig, MinSumDecoder, SumProductDecoder};
use ccsds_ldpc::gf2::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Full chain on a punctured AR4JA code: encode, transmit only the
/// unpunctured bits over AWGN, decode with erased puncture positions.
fn roundtrip(rate: Ar4jaRate, m: usize, ebn0_db: f64, trials: usize, seed: u64) -> usize {
    let ar4ja = Ar4jaCode::build(rate, m, seed);
    let code = ar4ja.code().clone();
    let enc = Encoder::new(&code).unwrap();
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let mut channel = AwgnChannel::from_ebn0(ebn0_db, ar4ja.rate(), seed + 2);
    let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
    let mut successes = 0;
    for _ in 0..trials {
        let msg: BitVec = (0..enc.dimension()).map(|_| rng.gen_bool(0.5)).collect();
        let cw = enc.encode(&msg).unwrap();
        let tx = ar4ja.puncture(&cw);
        let symbols = bpsk_modulate(&tx);
        let tx_llrs = channel.llrs(&symbols);
        let llrs = ar4ja.expand_llrs(&tx_llrs);
        let out = dec.decode(&llrs, 60);
        if out.converged && out.hard_decision == cw {
            successes += 1;
        }
    }
    successes
}

#[test]
fn rate_half_decodes_at_high_snr() {
    // Rate 1/2 with M=64: comfortable at 6 dB.
    let ok = roundtrip(Ar4jaRate::Half, 64, 6.0, 10, 42);
    assert!(ok >= 9, "only {ok}/10 frames decoded");
}

#[test]
fn rate_two_thirds_decodes_at_high_snr() {
    let ok = roundtrip(Ar4jaRate::TwoThirds, 64, 7.0, 10, 43);
    assert!(ok >= 9, "only {ok}/10 frames decoded");
}

#[test]
fn rate_four_fifths_decodes_at_high_snr() {
    let ok = roundtrip(Ar4jaRate::FourFifths, 64, 8.0, 10, 44);
    assert!(ok >= 9, "only {ok}/10 frames decoded");
}

#[test]
fn puncturing_costs_signal_but_code_still_works() {
    // Decoding with the punctured bits *transmitted* (genie) can only be
    // easier than with them erased; both should succeed at high SNR.
    let ar4ja = Ar4jaCode::build(Ar4jaRate::Half, 64, 5);
    let code = ar4ja.code().clone();
    let enc = Encoder::new(&code).unwrap();
    let msg: BitVec = (0..enc.dimension()).map(|i| i % 2 == 0).collect();
    let cw = enc.encode(&msg).unwrap();
    let full_llrs: Vec<f32> = (0..code.n())
        .map(|i| if cw.get(i) { -4.0 } else { 4.0 })
        .collect();
    let mut erased = full_llrs.clone();
    for llr in erased.iter_mut().skip(ar4ja.transmitted_len()) {
        *llr = 0.0;
    }
    let mut dec = SumProductDecoder::new(code.clone());
    let genie = dec.decode(&full_llrs, 40);
    let punct = dec.decode(&erased, 40);
    assert!(genie.converged && genie.hard_decision == cw);
    assert!(punct.converged && punct.hard_decision == cw);
    assert!(genie.iterations <= punct.iterations);
}

#[test]
fn deep_space_rates_ordered_by_robustness() {
    // At a fixed, moderate Eb/N0 the lower-rate code must decode more
    // frames than the higher-rate one (the reason deep space uses rate
    // 1/2). 3 dB is where the ordering is decisive: over 2000 frames at
    // M = 32, rate 1/2 decodes about 95% and rate 4/5 about 66%, so with
    // 200 frames each the expected gap of about 57 frames sits some 5σ
    // above the 20-frame margin.
    const FRAMES: usize = 200;
    const MARGIN: usize = FRAMES / 10;
    let half = roundtrip(Ar4jaRate::Half, 32, 3.0, FRAMES, 7);
    let four_fifths = roundtrip(Ar4jaRate::FourFifths, 32, 3.0, FRAMES, 7);
    assert!(
        half >= four_fifths + MARGIN,
        "rate 1/2 {half}/{FRAMES} vs rate 4/5 {four_fifths}/{FRAMES}"
    );
}
