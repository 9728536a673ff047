//! E5 + A2 — Paper §5: the fine scaled correction factor.
//!
//! * α ablation: PER vs normalization factor at a fixed operating point
//!   (why the hardware implements ×0.75, i.e. α = 4/3);
//! * the headline equivalence: scaled min-sum at 18 iterations matches
//!   plain sign-min at 50 iterations;
//! * the matched-α profile from the density-evolution optimizer.

use ldpc_bench::{announce, bench_mc_config};
use ldpc_core::codes::small::demo_code;
use ldpc_core::decoder::{fine_alpha_schedule, mean_matching_alpha, nearest_hardware_scaling};
use ldpc_core::DecoderSpec;
use ldpc_hwsim::render_table;
use ldpc_sim::run_point_blocks;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn regenerate_e5() {
    announce("E5/A2", "section 5 (fine scaled correction factor)");
    let code = demo_code();

    // --- A2: alpha grid at 3.0 dB, 18 iterations. ---
    let alphas = [1.0f32, 8.0 / 7.0, 4.0 / 3.0, 1.5, 2.0];
    let rows: Vec<Vec<String>> = alphas
        .iter()
        .map(|&alpha| {
            let spec = if alpha == 1.0 {
                DecoderSpec::parse("ms").unwrap()
            } else {
                DecoderSpec::parse(&format!("nms:{alpha}")).unwrap()
            };
            let point =
                run_point_blocks(&code, None, &bench_mc_config(3.0, 18), || spec.build(&code));
            vec![
                format!("{alpha:.3}"),
                format!("{:.2e}", point.ber()),
                format!("{:.2e}", point.per()),
                point.frames.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "A2 — PER vs normalization factor (3.0 dB, 18 iterations)",
            &["alpha", "BER", "PER", "frames"],
            &rows,
        )
    );

    // --- E5: 18 scaled iterations vs 50 plain iterations. ---
    let (ms, nms) = (
        DecoderSpec::parse("ms").unwrap(),
        DecoderSpec::parse("nms").unwrap(),
    );
    let plain = run_point_blocks(&code, None, &bench_mc_config(3.0, 50), || ms.build(&code));
    let scaled = run_point_blocks(&code, None, &bench_mc_config(3.0, 18), || nms.build(&code));
    println!(
        "{}",
        render_table(
            "E5 — iterations trade-off (3.0 dB)",
            &["decoder", "iterations", "BER", "PER"],
            &[
                vec![
                    "plain sign-min".into(),
                    "50".into(),
                    format!("{:.2e}", plain.ber()),
                    format!("{:.2e}", plain.per()),
                ],
                vec![
                    "scaled (α=4/3)".into(),
                    "18".into(),
                    format!("{:.2e}", scaled.ber()),
                    format!("{:.2e}", scaled.per()),
                ],
            ],
        )
    );

    // --- Matched alpha from the optimizer. ---
    let mut rng = StdRng::seed_from_u64(0xA1FA);
    let schedule = fine_alpha_schedule(32, 4, 8.8, 6, 20_000, &mut rng);
    println!("fine alpha schedule (C2 degrees, 4 dB): {schedule:?}");
    let a = mean_matching_alpha(32, 11.0, 30_000, &mut rng);
    println!(
        "matched alpha at the waterfall operating point: {a:.3} -> {:?}",
        nearest_hardware_scaling(a)
    );
}

fn main() {
    regenerate_e5();
}
