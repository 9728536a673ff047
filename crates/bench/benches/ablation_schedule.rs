//! A3 — Ablation: flooding vs serial ("layered") message-passing schedule.
//!
//! The paper's architecture floods (all CNs, then all BNs) to exploit the
//! QC code's parallelism. The serial schedule converges in fewer
//! iterations but serializes the hardware; this ablation quantifies the
//! iteration gap the architecture trades away.

use ldpc_bench::{announce, bench_mc_config};
use ldpc_core::codes::small::demo_code;
use ldpc_core::DecoderSpec;
use ldpc_hwsim::render_table;
use ldpc_sim::run_point_blocks;

fn regenerate_a3() {
    announce("A3", "schedule ablation (flooding vs serial)");
    let code = demo_code();
    let nms = DecoderSpec::parse("nms").unwrap();
    let serial = DecoderSpec::parse("layered").unwrap();
    let rows: Vec<Vec<String>> = [2.5f64, 3.5, 4.5]
        .iter()
        .map(|&ebn0| {
            let cfg = bench_mc_config(ebn0, 50);
            let flood = run_point_blocks(&code, None, &cfg, || nms.build(&code));
            let layered = run_point_blocks(&code, None, &cfg, || serial.build(&code));
            vec![
                format!("{ebn0:.1}"),
                format!("{:.1}", flood.avg_iterations()),
                format!("{:.1}", layered.avg_iterations()),
                format!("{:.2e}", flood.per()),
                format!("{:.2e}", layered.per()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "A3 — average iterations to converge and PER (50-iteration cap)",
            &[
                "Eb/N0 dB",
                "flood iters",
                "serial iters",
                "flood PER",
                "serial PER"
            ],
            &rows,
        )
    );
    println!("expected shape: serial needs ~half the iterations at equal reliability");
}

fn main() {
    regenerate_a3();
}
