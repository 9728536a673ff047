//! BER/PER waterfall (paper Figure 4), in two speeds:
//!
//! * a quick sweep on the C2-shaped demo code (default);
//! * `--c2` for a short sweep on the real 8176-bit CCSDS C2 code.
//!
//! Prints a CSV (`ebn0_db,frames,ber,per,avg_iterations,undetected`) that
//! plots directly. Run with
//! `cargo run --release --example ber_waterfall [--c2]`.

use ccsds_ldpc::sim::{run_sweep, sweep_grid, to_csv, PointResult, Scenario, SweepConfig};

/// The waterfall of `scenario` over `points`: one whole-budget chunk of
/// `frames` frames per point, no error target, points spread over all
/// cores.
fn curve(scenario: &str, points: &[f64], frames: u64) -> Vec<PointResult> {
    let units = sweep_grid(&[Scenario::parse(scenario).unwrap()], points, 0xF164);
    let cfg = SweepConfig {
        max_frames: frames,
        target_frame_errors: 0,
        chunk_frames: frames,
        max_iterations: 18,
        threads: 0,
        cache_dir: None,
        progress_frames: None,
    };
    let results = run_sweep(&units, &cfg).expect("registry code builds");
    results.iter().map(|r| r.point).collect()
}

fn main() {
    let results = if std::env::args().any(|a| a == "--c2") {
        // Short sweep near the waterfall; Monte-Carlo depth kept modest so
        // the example finishes in seconds (the bench harness goes deeper).
        eprintln!("sweeping CCSDS C2 (8176,7156), 18-iteration fixed-point decoder…");
        curve("c2 / awgn / fixed", &[3.4, 3.7, 4.0, 4.3], 60)
    } else {
        eprintln!("sweeping the (248) demo code (same 2xB weight-2 QC structure as C2)…");
        eprintln!("pass --c2 for the full 8176-bit code");
        curve(
            "demo / awgn / fixed",
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            4_000,
        )
    };
    print!("{}", to_csv(&results));
}
