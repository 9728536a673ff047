//! A9 — Circulant-aware QC datapath throughput: the rotate-indexed
//! block-layered decoder against the serial layered schedule and the
//! fixed-point flooding datapath on the full CCSDS C2 code.
//!
//! Regenerates a single-core frames/sec comparison at 18 iterations in
//! fixed-latency mode (no early termination), prints the per-bank memory
//! traffic table from `ldpc-hwsim` (QC vs generic schedule — the banking
//! argument the kernel's layout mirrors in software), and writes the
//! measured numbers to `BENCH_A9.json` at the workspace root so CI and
//! EXPERIMENTS.md can consume them machine-readably. The acceptance bar
//! is >= 3x frames/sec over both `layered` and `fixed`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_bench::{announce, frames_per_sec, noisy_frames};
use ldpc_core::codes::{ccsds_c2, small::demo_code};
use ldpc_core::{BlockDecoder, FixedConfig, FixedDecoder, LayeredMinSumDecoder, QcLayeredDecoder};
use ldpc_hwsim::MessageBankLayout;

const ITERS: u32 = 18;
const ALPHA: f32 = 4.0 / 3.0;

struct A9Numbers {
    frames: usize,
    layered_fps: f64,
    fixed_fps: f64,
    qc_fps: f64,
}

fn regenerate_a9() -> A9Numbers {
    announce(
        "A9",
        "QC block-layered vs serial layered vs fixed flooding on C2 (18 iterations, fixed latency)",
    );
    let c2 = ccsds_c2::code();
    let total = 48;
    let llrs = noisy_frames(&c2, total, 4.0, 9);

    let mut layered = LayeredMinSumDecoder::new(c2.clone(), ALPHA).with_early_stop(false);
    let mut fixed = FixedDecoder::new(c2.clone(), FixedConfig::default().with_early_stop(false));
    let mut qc = QcLayeredDecoder::new(c2.clone(), ALPHA).with_early_stop(false);

    // One warm-up decode per datapath; the QC and serial schedules must
    // land on the same codewords wherever both report convergence.
    let reference = layered.decode_block(&llrs, ITERS);
    let _ = fixed.decode_block(&llrs, ITERS);
    let qc_out = qc.decode_block(&llrs, ITERS);
    let mut agreements = 0usize;
    for (f, (a, b)) in qc_out.iter().zip(&reference).enumerate() {
        if a.converged && b.converged {
            assert_eq!(
                a.hard_decision, b.hard_decision,
                "schedules disagree on converged frame {f}"
            );
            agreements += 1;
        }
    }
    assert!(agreements > 0, "no frame converged under both schedules");

    let layered_fps = frames_per_sec(total, || {
        let _ = layered.decode_block(&llrs, ITERS);
    });
    let fixed_fps = frames_per_sec(total, || {
        let _ = fixed.decode_block(&llrs, ITERS);
    });
    let qc_fps = frames_per_sec(total, || {
        let _ = qc.decode_block(&llrs, ITERS);
    });

    println!("  layered    (serial)  : {layered_fps:>8.1} fr/s");
    println!("  fixed      (flooding): {fixed_fps:>8.1} fr/s");
    println!(
        "  qc-layered (blockrow): {qc_fps:>8.1} fr/s = {:.2}x layered, {:.2}x fixed ({agreements}/{total} frames agree with layered)",
        qc_fps / layered_fps,
        qc_fps / fixed_fps,
    );

    let traffic = MessageBankLayout::new(&ccsds_c2::spec()).traffic_per_iteration();
    println!("\n{}", traffic.render());

    A9Numbers {
        frames: total,
        layered_fps,
        fixed_fps,
        qc_fps,
    }
}

/// Writes the measured numbers and the analytic traffic model to
/// `BENCH_A9.json` at the workspace root (hand-rolled JSON — the
/// workspace vendors no serializer).
fn write_json(n: &A9Numbers) {
    let traffic = MessageBankLayout::new(&ccsds_c2::spec()).traffic_per_iteration();
    let (qc_words, generic_words) = traffic.total_words();
    let (qc_bursts, generic_bursts) = traffic.total_bursts();
    let bank = |side: &[ldpc_hwsim::BankTraffic]| {
        side.iter()
            .map(|b| {
                format!(
                    "{{\"bank\": {}, \"word_reads\": {}, \"word_writes\": {}, \"bursts\": {}}}",
                    b.bank, b.word_reads, b.word_writes, b.bursts
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"experiment\": \"A9\",\n  \"code\": \"c2\",\n  \"channel\": \"awgn\",\n  \"ebn0_db\": 4.0,\n  \"iterations\": {iters},\n  \"frames\": {frames},\n  \"frames_per_sec\": {{\"layered\": {layered:.1}, \"fixed\": {fixed:.1}, \"qc-layered\": {qc:.1}}},\n  \"speedup\": {{\"vs_layered\": {su_l:.2}, \"vs_fixed\": {su_f:.2}}},\n  \"traffic_per_iteration\": {{\n    \"qc\": [{qc_banks}],\n    \"generic\": [{generic_banks}],\n    \"total_words\": {{\"qc\": {qc_words}, \"generic\": {generic_words}}},\n    \"total_bursts\": {{\"qc\": {qc_bursts}, \"generic\": {generic_bursts}}}\n  }}\n}}\n",
        iters = ITERS,
        frames = n.frames,
        layered = n.layered_fps,
        fixed = n.fixed_fps,
        qc = n.qc_fps,
        su_l = n.qc_fps / n.layered_fps,
        su_f = n.qc_fps / n.fixed_fps,
        qc_banks = bank(&traffic.qc),
        generic_banks = bank(&traffic.generic),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_A9.json");
    std::fs::write(path, json).expect("write BENCH_A9.json");
    println!("  wrote {path}");
}

fn bench(c: &mut Criterion) {
    let numbers = regenerate_a9();
    write_json(&numbers);

    // Criterion timing on the demo code (same 2x16-style circulant shape
    // at 1/33 scale) keeps the measured group fast.
    let code = demo_code();
    let llrs8 = noisy_frames(&code, 8, 4.0, 23);
    let mut group = c.benchmark_group("a9_qc_throughput_demo");
    group.sample_size(20);
    group.throughput(Throughput::Elements(8));
    group.bench_function("layered_serial_8x", |b| {
        let mut dec = LayeredMinSumDecoder::new(code.clone(), ALPHA).with_early_stop(false);
        b.iter(|| dec.decode_block(std::hint::black_box(&llrs8), ITERS))
    });
    group.bench_function("qc_layered_8x", |b| {
        let mut dec = QcLayeredDecoder::new(code.clone(), ALPHA).with_early_stop(false);
        b.iter(|| dec.decode_block(std::hint::black_box(&llrs8), ITERS))
    });
    group.finish();

    let c2 = ccsds_c2::code();
    let llrs4 = noisy_frames(&c2, 4, 4.0, 24);
    let mut group = c.benchmark_group("a9_qc_throughput_c2");
    group.sample_size(10);
    group.throughput(Throughput::Elements(4));
    group.bench_function("qc_layered_4x", |b| {
        let mut dec = QcLayeredDecoder::new(c2.clone(), ALPHA).with_early_stop(false);
        b.iter(|| dec.decode_block(std::hint::black_box(&llrs4), ITERS))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
