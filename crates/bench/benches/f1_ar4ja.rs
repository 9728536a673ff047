//! F1 — Paper §6 future work: AR4JA deep-space codes on the same decoder
//! stack, demonstrating the genericity claim across CCSDS recommendations.

use criterion::{criterion_group, criterion_main, Criterion};
use ldpc_bench::announce;
use ldpc_channel::{bpsk_modulate, AwgnChannel};
use ldpc_core::codes::ar4ja::{Ar4jaCode, Ar4jaRate};
use ldpc_core::{MinSumConfig, MinSumDecoder};
use ldpc_hwsim::{render_table, ArchConfig, CodeDims, ResourceEstimate, ThroughputModel};

fn frame_error_rate(rate: Ar4jaRate, m: usize, ebn0_db: f64, frames: usize) -> (f64, f64) {
    let ar4ja = Ar4jaCode::build(rate, m, 11);
    let code = ar4ja.code().clone();
    let mut channel = AwgnChannel::from_ebn0(ebn0_db, ar4ja.rate(), 0xF1);
    let zero = gf2::BitVec::zeros(ar4ja.transmitted_len());
    let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
    let mut errors = 0usize;
    let mut iters = 0u64;
    for _ in 0..frames {
        let tx_llrs = channel.llrs(&bpsk_modulate(&zero));
        let llrs = ar4ja.expand_llrs(&tx_llrs);
        let out = dec.decode(&llrs, 50);
        iters += u64::from(out.iterations);
        if !out.hard_decision.is_zero() {
            errors += 1;
        }
    }
    (errors as f64 / frames as f64, iters as f64 / frames as f64)
}

fn regenerate_f1() {
    announce(
        "F1",
        "section 6 future work (AR4JA deep-space codes, punctured decoding)",
    );
    let mut rows = Vec::new();
    for (rate, label, ebn0) in [
        (Ar4jaRate::Half, "1/2", 2.5),
        (Ar4jaRate::TwoThirds, "2/3", 3.5),
        (Ar4jaRate::FourFifths, "4/5", 4.5),
    ] {
        let (fer, avg_iters) = frame_error_rate(rate, 128, ebn0, 120);
        let ar4ja = Ar4jaCode::build(rate, 128, 11);
        rows.push(vec![
            label.to_string(),
            format!("k={}", ar4ja.info_len()),
            format!("n_tx={}", ar4ja.transmitted_len()),
            format!("{ebn0:.1}"),
            format!("{fer:.2e}"),
            format!("{avg_iters:.1}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            "F1 — AR4JA family (M=128) decoded by the same stack",
            &[
                "rate",
                "info",
                "transmitted",
                "Eb/N0 dB",
                "FER",
                "avg iters"
            ],
            &rows,
        )
    );

    // The generic architecture retargeted at an AR4JA code: throughput and
    // resources from the same models.
    let ar4ja = Ar4jaCode::build(Ar4jaRate::Half, 128, 11);
    let dims = CodeDims::from_code(ar4ja.code(), ar4ja.info_len());
    let cfg = ArchConfig::low_cost().with_name("low-cost/AR4JA");
    let model = ThroughputModel::new(cfg.clone(), dims);
    let est = ResourceEstimate::new(&cfg, &dims);
    println!(
        "generic architecture on AR4JA r=1/2 M=128: {:.1} Mbps info at 18 iterations, {est}",
        model.info_throughput_mbps(18)
    );
}

fn bench(c: &mut Criterion) {
    regenerate_f1();
    let ar4ja = Ar4jaCode::build(Ar4jaRate::Half, 128, 11);
    let code = ar4ja.code().clone();
    let zero = gf2::BitVec::zeros(ar4ja.transmitted_len());
    let mut channel = AwgnChannel::from_ebn0(3.0, ar4ja.rate(), 9);
    let llrs = ar4ja.expand_llrs(&channel.llrs(&bpsk_modulate(&zero)));
    let mut group = c.benchmark_group("f1");
    group.sample_size(20);
    group.bench_function("decode_ar4ja_half_m128", |b| {
        let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
        b.iter(|| dec.decode(std::hint::black_box(&llrs), 20))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
