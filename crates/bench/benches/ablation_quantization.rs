//! A1 — Ablation: message quantization width of the fixed-point datapath.
//!
//! The architecture stores every edge message in `q_msg` bits; memory (and
//! the paper's Table 2/3 budgets) scale linearly with it while error-rate
//! performance saturates. This ablation locates the knee.

use criterion::{criterion_group, criterion_main, Criterion};
use ldpc_bench::{announce, bench_mc_config};
use ldpc_core::codes::small::demo_code;
use ldpc_core::{FixedConfig, FixedDecoder};
use ldpc_hwsim::{render_table, ArchConfig, CodeDims, MemoryPlan};
use ldpc_sim::run_point_blocks;

fn regenerate_a1() {
    announce(
        "A1",
        "quantization-width ablation (BER/PER and memory vs q_msg)",
    );
    let code = demo_code();
    let dims = CodeDims::ccsds_c2();
    let rows: Vec<Vec<String>> = [4u32, 5, 6, 7, 8]
        .iter()
        .map(|&q| {
            let fixed = FixedConfig::default().with_q_msg(q).with_q_ch(q.min(5));
            // A custom quantization width is outside the spec grammar, so
            // this drives the engine's explicit-factory door directly.
            let point = run_point_blocks(&code, None, &bench_mc_config(3.5, 18), move || {
                FixedDecoder::new(demo_code(), fixed)
            });
            // Memory cost of this width on the real C2 low-cost decoder.
            let plan = MemoryPlan::new(
                &ArchConfig::low_cost()
                    .with_fixed(FixedConfig::default().with_q_msg(q).with_q_ch(q.min(5))),
                &dims,
            );
            vec![
                q.to_string(),
                format!("{:.2e}", point.ber()),
                format!("{:.2e}", point.per()),
                format!("{}k", plan.total_bits() / 1000),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "A1 — demo-code error rates (3.5 dB, 18 it) and C2 memory budget vs q_msg",
            &["q_msg", "BER", "PER", "C2 memory"],
            &rows,
        )
    );
    println!(
        "expected shape: large loss below 5 bits, saturation at 6 bits (the paper's design point)"
    );
}

fn bench(c: &mut Criterion) {
    regenerate_a1();
    let code = demo_code();
    let mut group = c.benchmark_group("a1");
    group.sample_size(20);
    for q in [4u32, 6, 8] {
        group.bench_function(format!("decode_demo_q{q}"), |b| {
            let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default().with_q_msg(q));
            let llrs = vec![1.5f32; code.n()];
            b.iter(|| dec.decode(std::hint::black_box(&llrs), 18))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
