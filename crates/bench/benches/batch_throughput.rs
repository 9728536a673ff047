//! A5 — Frame-batched decoding throughput: per-frame decoding vs the
//! lockstep batch decoders that mirror the architecture's frames-per-word
//! packing (Table 3 packs 8 frames per message-memory word).
//!
//! Regenerates a frames/sec comparison at batch size 8 on the small code
//! and the full CCSDS C2 code, in fixed-latency mode (no early
//! termination — how the hardware runs), asserting along the way that the
//! batched output is bit-identical to per-frame decoding. The acceptance
//! bar is >= 1.5x frames/sec at batch 8 on the small code.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_bench::{announce, frames_per_sec, noisy_frames};
use ldpc_core::codes::{ccsds_c2, small::demo_code};
use ldpc_core::{
    BatchFixedDecoder, BatchMinSumDecoder, BlockDecoder, FixedConfig, FixedDecoder, MinSumConfig,
    MinSumDecoder,
};

const ITERS: u32 = 10;

fn regenerate_a5() {
    announce(
        "A5",
        "per-frame vs frame-batched decoding throughput (batch 8, fixed latency)",
    );
    // Small code, float min-sum.
    let code = demo_code();
    let total = 512;
    let llrs = noisy_frames(&code, total, 4.0, 11);
    let cfg = MinSumConfig::normalized(4.0 / 3.0).with_early_stop(false);
    let mut per_frame = MinSumDecoder::new(code.clone(), cfg.clone());
    let reference = per_frame.decode_block(&llrs, ITERS);
    let base = frames_per_sec(total, || {
        let _ = per_frame.decode_block(&llrs, ITERS);
    });
    let mut batched = BatchMinSumDecoder::new(code.clone(), cfg, 8);
    let mut out = Vec::new();
    let fps = frames_per_sec(total, || {
        out = batched.decode_block(&llrs, ITERS);
    });
    assert_eq!(out, reference, "batched output diverged from per-frame");
    println!("  demo code, min-sum   : per-frame {base:>8.0} fr/s, batch 8 {fps:>8.0} fr/s = {:.2}x (bit-identical)", fps / base);

    // Full C2 code, fixed-point datapath.
    let c2 = ccsds_c2::code();
    let total = 16;
    let llrs = noisy_frames(&c2, total, 4.0, 12);
    let fcfg = FixedConfig::default().with_early_stop(false);
    let mut per_frame = FixedDecoder::new(c2.clone(), fcfg);
    let reference = per_frame.decode_block(&llrs, ITERS);
    let base = frames_per_sec(total, || {
        let _ = per_frame.decode_block(&llrs, ITERS);
    });
    let mut batched = BatchFixedDecoder::new(c2.clone(), fcfg, 8);
    let mut out = Vec::new();
    let fps = frames_per_sec(total, || {
        out = batched.decode_block(&llrs, ITERS);
    });
    assert_eq!(out, reference, "batched output diverged from per-frame");
    println!("  CCSDS C2, fixed-point: per-frame {base:>8.1} fr/s, batch 8 {fps:>8.1} fr/s = {:.2}x (bit-identical)", fps / base);
}

fn bench(c: &mut Criterion) {
    regenerate_a5();

    let code = demo_code();
    let llrs8 = noisy_frames(&code, 8, 4.0, 21);
    let cfg = MinSumConfig::normalized(4.0 / 3.0).with_early_stop(false);
    let mut group = c.benchmark_group("a5_batch_throughput_demo");
    group.sample_size(20);
    group.throughput(Throughput::Elements(8));
    group.bench_function("per_frame_minsum_8x", |b| {
        let mut dec = MinSumDecoder::new(code.clone(), cfg.clone());
        b.iter(|| dec.decode_block(std::hint::black_box(&llrs8), ITERS))
    });
    group.bench_function("batch8_minsum", |b| {
        let mut dec = BatchMinSumDecoder::new(code.clone(), cfg.clone(), 8);
        b.iter(|| dec.decode_batch(std::hint::black_box(&llrs8), ITERS))
    });
    group.finish();

    let c2 = ccsds_c2::code();
    let llrs8 = noisy_frames(&c2, 8, 4.0, 22);
    let fcfg = FixedConfig::default().with_early_stop(false);
    let mut group = c.benchmark_group("a5_batch_throughput_c2");
    group.sample_size(10);
    group.throughput(Throughput::Elements(8));
    group.bench_function("per_frame_fixed_8x", |b| {
        let mut dec = FixedDecoder::new(c2.clone(), fcfg);
        b.iter(|| dec.decode_block(std::hint::black_box(&llrs8), ITERS))
    });
    group.bench_function("batch8_fixed", |b| {
        let mut dec = BatchFixedDecoder::new(c2.clone(), fcfg, 8);
        b.iter(|| dec.decode_batch(std::hint::black_box(&llrs8), ITERS))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
