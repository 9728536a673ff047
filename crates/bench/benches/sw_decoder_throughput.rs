//! A4 — Context: software decoding throughput of every decoder on the
//! real 8176-bit C2 code, in info-Mbps, next to the hardware model's
//! numbers. (The paper's point is precisely that hardware is needed for
//! near-earth rates; this quantifies the gap.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gf2::BitVec;
use ldpc_bench::announce;
use ldpc_channel::AwgnChannel;
use ldpc_core::codes::ccsds_c2;
use ldpc_core::{
    BlockDecoder, FixedConfig, FixedDecoder, LayeredMinSumDecoder, MinSumConfig, MinSumDecoder,
    SumProductDecoder,
};

fn noisy_llrs(seed: u64) -> Vec<f32> {
    let code = ccsds_c2::code();
    let mut ch = AwgnChannel::from_ebn0(4.0, code.rate(), seed);
    ch.transmit_codeword(&BitVec::zeros(code.n()))
}

fn regenerate_a4() {
    announce(
        "A4",
        "software decoder throughput on CCSDS C2 (18 iterations, one core)",
    );
    let code = ccsds_c2::code();
    let llrs = noisy_llrs(3);
    let mut decoders: Vec<Box<dyn BlockDecoder>> = vec![
        Box::new(SumProductDecoder::new(code.clone()).with_early_stop(false)),
        Box::new(MinSumDecoder::new(
            code.clone(),
            MinSumConfig::normalized(4.0 / 3.0).with_early_stop(false),
        )),
        Box::new(FixedDecoder::new(
            code.clone(),
            FixedConfig::default().with_early_stop(false),
        )),
        Box::new(LayeredMinSumDecoder::new(code.clone(), 4.0 / 3.0).with_early_stop(false)),
    ];
    for dec in &mut decoders {
        let start = std::time::Instant::now();
        let reps = 5;
        for _ in 0..reps {
            let _ = dec.decode_block(&llrs, 18);
        }
        let secs = start.elapsed().as_secs_f64() / reps as f64;
        let mbps = ccsds_c2::K_INFO as f64 / secs / 1e6;
        println!(
            "  {:<32} {:>8.2} ms/frame = {:>6.2} Mbps info",
            dec.name(),
            secs * 1e3,
            mbps
        );
    }
    println!("  (paper hardware at 18 iterations: low-cost 70 Mbps, high-speed 560 Mbps)");
}

fn bench(c: &mut Criterion) {
    regenerate_a4();
    let code = ccsds_c2::code();
    let llrs = noisy_llrs(5);
    let mut group = c.benchmark_group("a4_sw_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ccsds_c2::K_INFO as u64));
    group.bench_function("fixed_point_c2_18it", |b| {
        let mut dec =
            FixedDecoder::new(code.clone(), FixedConfig::default().with_early_stop(false));
        b.iter(|| dec.decode(std::hint::black_box(&llrs), 18))
    });
    group.bench_function("normalized_minsum_c2_18it", |b| {
        let mut dec = MinSumDecoder::new(
            code.clone(),
            MinSumConfig::normalized(4.0 / 3.0).with_early_stop(false),
        );
        b.iter(|| dec.decode(std::hint::black_box(&llrs), 18))
    });
    group.bench_function("sum_product_c2_18it", |b| {
        let mut dec = SumProductDecoder::new(code.clone()).with_early_stop(false);
        b.iter(|| dec.decode(std::hint::black_box(&llrs), 18))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
