//! A6 — Bit-sliced hard-decision decoding throughput: scalar Gallager-B
//! vs 64 frames per `u64` word.
//!
//! The paper's high-speed variant packs 8 soft frames per message-memory
//! word (Table 3); at the hard-decision limit a frame contributes exactly
//! one bit per variable node, so a single machine word carries 64 frames
//! and every boolean operation advances all of them in lockstep.
//! Regenerates a frames/sec comparison on the demo code and the full
//! CCSDS C2 code, asserting along the way that the bit-sliced output is
//! bit-identical to scalar Gallager-B lane by lane. The acceptance bar is
//! >= 5x frames/sec on the demo code.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_bench::{announce, frames_per_sec, noisy_frames};
use ldpc_core::codes::{ccsds_c2, small::demo_code};
use ldpc_core::{BitsliceGallagerBDecoder, BlockDecoder, GallagerBDecoder, LdpcCode};
use std::sync::Arc;

const ITERS: u32 = 10;
const THRESHOLD: usize = 3;

fn compare(label: &str, code: &Arc<LdpcCode>, total: usize, ebn0: f64, seed: u64) -> f64 {
    let llrs = noisy_frames(code, total, ebn0, seed);
    let mut scalar = GallagerBDecoder::new(code.clone(), THRESHOLD);
    let reference = scalar.decode_block(&llrs, ITERS);
    let base = frames_per_sec(total, || {
        let _ = scalar.decode_block(&llrs, ITERS);
    });
    let mut sliced = BitsliceGallagerBDecoder::new(code.clone(), THRESHOLD);
    let mut out = Vec::new();
    let fps = frames_per_sec(total, || {
        out = sliced.decode_block(&llrs, ITERS);
    });
    assert_eq!(out, reference, "bit-sliced output diverged from scalar");
    let speedup = fps / base;
    println!(
        "  {label}: scalar {base:>9.0} fr/s, bitslice 64 {fps:>9.0} fr/s = {speedup:.1}x (bit-identical)"
    );
    speedup
}

fn regenerate_a6() {
    announce(
        "A6",
        "scalar vs bit-sliced Gallager-B throughput (64 frames per u64 word)",
    );
    compare("demo code ", &demo_code(), 4096, 6.0, 31);
    compare("CCSDS C2  ", &ccsds_c2::code(), 128, 6.0, 32);
}

fn bench(c: &mut Criterion) {
    regenerate_a6();

    let code = demo_code();
    let llrs64 = noisy_frames(&code, 64, 6.0, 41);
    let mut group = c.benchmark_group("a6_bitslice_throughput_demo");
    group.sample_size(20);
    group.throughput(Throughput::Elements(64));
    group.bench_function("scalar_gallager_b_64x", |b| {
        let mut dec = GallagerBDecoder::new(code.clone(), THRESHOLD);
        b.iter(|| dec.decode_block(std::hint::black_box(&llrs64), ITERS))
    });
    group.bench_function("bitslice_word_64", |b| {
        let mut dec = BitsliceGallagerBDecoder::new(code.clone(), THRESHOLD);
        b.iter(|| dec.decode_batch(std::hint::black_box(&llrs64), ITERS))
    });
    group.finish();

    let c2 = ccsds_c2::code();
    let llrs64 = noisy_frames(&c2, 64, 6.0, 42);
    let mut group = c.benchmark_group("a6_bitslice_throughput_c2");
    group.sample_size(10);
    group.throughput(Throughput::Elements(64));
    group.bench_function("scalar_gallager_b_64x", |b| {
        let mut dec = GallagerBDecoder::new(c2.clone(), THRESHOLD);
        b.iter(|| dec.decode_block(std::hint::black_box(&llrs64), ITERS))
    });
    group.bench_function("bitslice_word_64", |b| {
        let mut dec = BitsliceGallagerBDecoder::new(c2.clone(), THRESHOLD);
        b.iter(|| dec.decode_batch(std::hint::black_box(&llrs64), ITERS))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
