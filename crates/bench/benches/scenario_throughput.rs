//! A8 — Registry-driven scenario throughput: the code × channel ×
//! decoder grid through the one Monte-Carlo engine.
//!
//! Where A7 sweeps the decoder registry over a fixed AWGN workload, this
//! target sweeps *scenarios*: every registered channel model
//! ([`ChannelSpec::all_channels`]) crossed with a representative decoder
//! spread, end to end through [`run_point_scenario_with`] — frame generation,
//! channel transit, LLR expansion, and decoding included. Registering a
//! new channel model adds a column here automatically.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_bench::{announce, frames_per_sec};
use ldpc_channel::ChannelSpec;
use ldpc_sim::{run_point_scenario_with, MonteCarloConfig, Scenario, Transmission};

const ITERS: u32 = 10;
const FRAMES: u64 = 512;
const DECODERS: &[&str] = &["nms:1.25", "fixed@batch=8", "gallager-b@bitslice"];

fn mc_config() -> MonteCarloConfig {
    MonteCarloConfig {
        ebn0_db: 4.0,
        max_frames: FRAMES,
        target_frame_errors: 0,
        max_iterations: ITERS,
        seed: 0xA8A8,
        threads: 1,
        transmission: Transmission::AllZero,
    }
}

fn regenerate_a8() {
    announce(
        "A8",
        "scenario-grid throughput (demo code, one engine, single worker)",
    );
    println!(
        "  {:<14} {:<22} {:>12} {:>8}",
        "channel", "decoder", "frames/sec", "per"
    );
    for channel in ChannelSpec::all_channels() {
        for decoder in DECODERS {
            let scenario = Scenario::parse(&format!("demo / {channel} / {decoder}"))
                .unwrap_or_else(|e| panic!("demo / {channel} / {decoder}: {e}"));
            let handle = scenario.build_code().expect("code builds");
            let mut per = 0.0;
            let fps = frames_per_sec(FRAMES as usize, || {
                let point = run_point_scenario_with(&handle, &scenario, &mc_config());
                assert_eq!(point.frames, FRAMES, "{scenario}: dropped frames");
                per = point.per();
            });
            println!(
                "  {:<14} {:<22} {fps:>12.0} {per:>8.4}",
                channel.to_string(),
                decoder
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    regenerate_a8();

    // Criterion timing for one scenario per channel model at a fixed
    // decoder, so channel-model cost is directly comparable.
    let mut group = c.benchmark_group("a8_scenario_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(64));
    for channel in ChannelSpec::all_channels() {
        let scenario = Scenario::parse(&format!("demo / {channel} / fixed")).unwrap();
        let handle = scenario.build_code().unwrap();
        let cfg = MonteCarloConfig {
            max_frames: 64,
            ..mc_config()
        };
        group.bench_function(channel.to_string(), |b| {
            b.iter(|| run_point_scenario_with(&handle, std::hint::black_box(&scenario), &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
