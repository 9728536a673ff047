//! The fine scaled correction factor (paper §5).
//!
//! 1. Computes the mean-matching normalization factor α for the C2 check
//!    degree across operating points (Chen–Fossorier style) and the
//!    per-iteration "fine" schedule.
//! 2. Shows the paper's headline: normalized min-sum at 18 iterations
//!    reaches the reliability of plain sign-min at 50 iterations.
//!
//! Run with `cargo run --release --example correction_factor`.

use ccsds_ldpc::channel::ebn0_to_mean_llr;
use ccsds_ldpc::core::codes::small::demo_code;
use ccsds_ldpc::core::decoder::{
    fine_alpha_schedule, mean_matching_alpha, nearest_hardware_scaling,
};
use ccsds_ldpc::core::DecoderSpec;
use ccsds_ldpc::sim::{run_point_blocks, MonteCarloConfig, Transmission};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);

    // --- One-shot matched factors across message means (dc = 32). ---
    println!("mean-matching correction factor, CCSDS C2 check degree 32:");
    for mean in [6.0, 9.0, 12.0, 16.0, 24.0] {
        let alpha = mean_matching_alpha(32, mean, 30_000, &mut rng);
        println!(
            "  message mean {mean:4.1} LLR: alpha = {alpha:.3} -> hardware scaling {:?}",
            nearest_hardware_scaling(alpha)
        );
    }

    // --- Fine (per-iteration) schedule at a 4 dB operating point. ---
    let channel_mean = ebn0_to_mean_llr(4.0, 7154.0 / 8176.0);
    let schedule = fine_alpha_schedule(32, 4, channel_mean, 8, 20_000, &mut rng);
    println!("\nfine alpha schedule at Eb/N0 = 4 dB (channel mean {channel_mean:.1} LLR):");
    println!(
        "  {:?}",
        schedule
            .iter()
            .map(|a| (a * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // --- 18 iterations with the factor vs 50 without (paper §5). ---
    let code = demo_code();
    let base = MonteCarloConfig {
        ebn0_db: 3.0,
        max_frames: 30_000,
        target_frame_errors: 150,
        seed: 0x5CA1E,
        threads: 0,
        transmission: Transmission::AllZero,
        ..MonteCarloConfig::default()
    };
    let mut plain_cfg = base.clone();
    plain_cfg.max_iterations = 50;
    let (ms, nms) = (
        DecoderSpec::parse("ms").unwrap(),
        DecoderSpec::parse("nms").unwrap(),
    );
    let plain = run_point_blocks(&code, None, &plain_cfg, || ms.build(&code));
    let mut scaled_cfg = base.clone();
    scaled_cfg.max_iterations = 18;
    let scaled = run_point_blocks(&code, None, &scaled_cfg, || nms.build(&code));
    println!("\nat Eb/N0 = {} dB on the demo code:", base.ebn0_db);
    println!(
        "  plain sign-min,   50 iterations: BER {:.3e}, PER {:.3e} ({} frames)",
        plain.ber(),
        plain.per(),
        plain.frames
    );
    println!(
        "  scaled (α = 4/3), 18 iterations: BER {:.3e}, PER {:.3e} ({} frames)",
        scaled.ber(),
        scaled.per(),
        scaled.frames
    );
    if scaled.per() <= plain.per() * 1.3 {
        println!(
            "  -> 18 scaled iterations match (or beat) 50 plain iterations, as the paper reports"
        );
    } else {
        println!("  -> statistics too thin at this depth; the bench harness (e5) runs deeper");
    }
}
