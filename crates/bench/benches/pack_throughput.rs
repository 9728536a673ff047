//! A10 — SWAR `@pack=8` packed soft datapath throughput: 8 frames per
//! `u64` message word against the scalar fixed-point decoder and the
//! batch-interleaved variant on the full CCSDS C2 code.
//!
//! Regenerates a single-core frames/sec comparison at 18 iterations in
//! fixed-latency mode (no early termination), asserts the packed lanes
//! are bit-exact against scalar `fixed` frame by frame before timing
//! anything, and writes the measured numbers to `BENCH_A10.json` at the
//! workspace root. The acceptance bar is >= 8x frames/sec over scalar
//! `fixed`; run with `--features simd` to measure the AVX2 mirror
//! (reported in the JSON's `simd` flag).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_bench::{announce, frames_per_sec, noisy_frames};
use ldpc_core::codes::{ccsds_c2, small::demo_code};
use ldpc_core::{
    BatchFixedDecoder, BlockDecoder, FixedConfig, FixedDecoder, PackedFixedDecoder, PACK_LANES,
};

const ITERS: u32 = 18;

struct A10Numbers {
    frames: usize,
    fixed_fps: f64,
    batch_fps: f64,
    packed_fps: f64,
}

fn regenerate_a10() -> A10Numbers {
    announce(
        "A10",
        "SWAR pack=8 vs scalar fixed vs batch=8 on C2 (18 iterations, fixed latency)",
    );
    let c2 = ccsds_c2::code();
    let total = 48;
    let llrs = noisy_frames(&c2, total, 4.0, 9);
    let cfg = FixedConfig::default().with_early_stop(false);

    let mut fixed = FixedDecoder::new(c2.clone(), cfg);
    let mut batch = BatchFixedDecoder::new(c2.clone(), cfg, PACK_LANES);
    let mut packed = PackedFixedDecoder::new(c2.clone(), cfg);

    // Correctness gate before any timing: every packed lane must be
    // bit-exact against the scalar decoder run frame by frame.
    let reference = fixed.decode_block(&llrs, ITERS);
    let n = c2.n();
    for (chunk_idx, chunk) in llrs.chunks(PACK_LANES * n).enumerate() {
        for (f, out) in packed.decode_batch(chunk, ITERS).iter().enumerate() {
            let frame = chunk_idx * PACK_LANES + f;
            assert_eq!(
                out, &reference[frame],
                "packed lane diverged from scalar fixed on frame {frame}"
            );
        }
    }

    let fixed_fps = frames_per_sec(total, || {
        let _ = fixed.decode_block(&llrs, ITERS);
    });
    let batch_fps = frames_per_sec(total, || {
        let _ = batch.decode_block(&llrs, ITERS);
    });
    let packed_fps = frames_per_sec(total, || {
        let _ = packed.decode_block(&llrs, ITERS);
    });

    println!(
        "  simd mirror: {}",
        if PackedFixedDecoder::simd_active() {
            "active (AVX2)"
        } else {
            "off (portable SWAR)"
        }
    );
    println!("  fixed (scalar)     : {fixed_fps:>8.1} fr/s");
    println!(
        "  fixed@batch=8      : {batch_fps:>8.1} fr/s = {:.2}x fixed",
        batch_fps / fixed_fps
    );
    println!(
        "  fixed@pack=8 (SWAR): {packed_fps:>8.1} fr/s = {:.2}x fixed, {:.2}x batch (all {total} frames bit-exact)",
        packed_fps / fixed_fps,
        packed_fps / batch_fps,
    );

    A10Numbers {
        frames: total,
        fixed_fps,
        batch_fps,
        packed_fps,
    }
}

/// Writes the measured numbers to `BENCH_A10.json` at the workspace root
/// (hand-rolled JSON — the workspace vendors no serializer).
fn write_json(n: &A10Numbers) {
    let json = format!(
        "{{\n  \"experiment\": \"A10\",\n  \"code\": \"c2\",\n  \"channel\": \"awgn\",\n  \"ebn0_db\": 4.0,\n  \"iterations\": {iters},\n  \"frames\": {frames},\n  \"lanes\": {lanes},\n  \"simd\": {simd},\n  \"frames_per_sec\": {{\"fixed\": {fixed:.1}, \"fixed@batch=8\": {batch:.1}, \"fixed@pack=8\": {packed:.1}}},\n  \"speedup\": {{\"vs_fixed\": {su_f:.2}, \"vs_batch\": {su_b:.2}}},\n  \"bit_exact_frames\": {frames}\n}}\n",
        iters = ITERS,
        frames = n.frames,
        lanes = PACK_LANES,
        simd = PackedFixedDecoder::simd_active(),
        fixed = n.fixed_fps,
        batch = n.batch_fps,
        packed = n.packed_fps,
        su_f = n.packed_fps / n.fixed_fps,
        su_b = n.packed_fps / n.batch_fps,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_A10.json");
    std::fs::write(path, json).expect("write BENCH_A10.json");
    println!("  wrote {path}");
}

fn bench(c: &mut Criterion) {
    let numbers = regenerate_a10();
    write_json(&numbers);

    // Criterion timing on the demo code keeps the measured group fast.
    let code = demo_code();
    let llrs8 = noisy_frames(&code, PACK_LANES, 4.0, 23);
    let cfg = FixedConfig::default().with_early_stop(false);
    let mut group = c.benchmark_group("a10_pack_throughput_demo");
    group.sample_size(20);
    group.throughput(Throughput::Elements(PACK_LANES as u64));
    group.bench_function("fixed_scalar_8x", |b| {
        let mut dec = FixedDecoder::new(code.clone(), cfg);
        b.iter(|| dec.decode_block(std::hint::black_box(&llrs8), ITERS))
    });
    group.bench_function("fixed_pack8_8x", |b| {
        let mut dec = PackedFixedDecoder::new(code.clone(), cfg);
        b.iter(|| dec.decode_batch(std::hint::black_box(&llrs8), ITERS))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
