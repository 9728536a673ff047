//! A6 — Ablation: decoder robustness across channel models and the
//! hard-decision baselines.
//!
//! Quantifies (a) how much of the soft-decision gain survives on a BSC
//! and a Rayleigh-faded link, and (b) how far the classical bit-flipping
//! baselines trail the paper's min-sum datapath at equal iterations.

use criterion::{criterion_group, criterion_main, Criterion};
use gf2::BitVec;
use ldpc_bench::announce;
use ldpc_channel::{AwgnChannel, BscChannel, RayleighChannel};
use ldpc_core::codes::small::demo_code;
use ldpc_core::{
    BlockDecoder, FixedConfig, FixedDecoder, GallagerBDecoder, MinSumConfig, MinSumDecoder,
    SelfCorrectedMinSumDecoder, WeightedBitFlipDecoder,
};

/// Boxed per-frame channel realization, keyed by frame index.
type ChannelFn = Box<dyn FnMut(u64) -> Vec<f32>>;

/// Frame error count of `decoder` over `frames` all-zero transmissions
/// drawn by `make_llrs`.
fn fer(
    decoder: &mut dyn BlockDecoder,
    mut make_llrs: impl FnMut(u64) -> Vec<f32>,
    frames: u64,
    iters: u32,
) -> f64 {
    let mut errors = 0u64;
    for f in 0..frames {
        let llrs = make_llrs(f);
        let out = decoder.decode_block(&llrs, iters);
        if !out[0].hard_decision.is_zero() {
            errors += 1;
        }
    }
    errors as f64 / frames as f64
}

fn regenerate_a6() {
    announce("A6", "channel-model and baseline-decoder robustness matrix");
    let code = demo_code();
    let n = code.n();
    let frames = 400u64;
    let iters = 25;

    let channels: Vec<(&str, ChannelFn)> = vec![
        ("AWGN 4.0 dB", {
            let code = code.clone();
            let mut ch = AwgnChannel::from_ebn0(4.0, code.rate(), 11);
            Box::new(move |_| ch.transmit_codeword(&BitVec::zeros(n)))
        }),
        ("BSC p=0.02", {
            let mut ch = BscChannel::new(0.02, 12);
            Box::new(move |_| ch.transmit_codeword(&BitVec::zeros(n)))
        }),
        ("Rayleigh s=0.42", {
            let mut ch = RayleighChannel::new(0.42, 13);
            Box::new(move |_| ch.transmit_codeword(&BitVec::zeros(n)))
        }),
    ];

    println!("frame error rates, {frames} frames, {iters} iterations:");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "channel", "fixed NMS", "self-corr", "gallager-b", "wbf"
    );
    for (name, mut make) in channels {
        let mut fixed = FixedDecoder::new(code.clone(), FixedConfig::default());
        let mut sc = SelfCorrectedMinSumDecoder::new(code.clone(), 4.0 / 3.0);
        let mut gb = GallagerBDecoder::new(code.clone(), 3);
        let mut wbf = WeightedBitFlipDecoder::new(code.clone());
        let f1 = fer(&mut fixed, &mut make, frames, iters);
        let f2 = fer(&mut sc, &mut make, frames, iters);
        let f3 = fer(&mut gb, &mut make, frames, iters);
        let f4 = fer(&mut wbf, &mut make, frames, iters);
        println!("{name:<18} {f1:>12.3e} {f2:>12.3e} {f3:>12.3e} {f4:>12.3e}");
    }
    println!("expected shape: message passing dominates bit flipping on every channel");
}

fn bench(c: &mut Criterion) {
    regenerate_a6();
    let code = demo_code();
    let mut ch = AwgnChannel::from_ebn0(4.0, code.rate(), 20);
    let llrs = ch.transmit_codeword(&BitVec::zeros(code.n()));
    let mut group = c.benchmark_group("a6");
    group.sample_size(30);
    group.bench_function("gallager_b_decode", |b| {
        let mut dec = GallagerBDecoder::new(code.clone(), 3);
        b.iter(|| dec.decode(std::hint::black_box(&llrs), 25))
    });
    group.bench_function("self_corrected_decode", |b| {
        let mut dec = SelfCorrectedMinSumDecoder::new(code.clone(), 4.0 / 3.0);
        b.iter(|| dec.decode(std::hint::black_box(&llrs), 25))
    });
    group.bench_function("nms_decode", |b| {
        let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(4.0 / 3.0));
        b.iter(|| dec.decode(std::hint::black_box(&llrs), 25))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
