//! Shared helpers for the reproduction targets.
//!
//! Each bench target under `benches/` is a plain `harness = false` main
//! that regenerates one table or figure of the paper (see DESIGN.md §10
//! for the experiment index), asserts its claims, and prints the rows to
//! stdout, so `cargo bench -p ldpc-bench` output is the reproduction
//! record collected in EXPERIMENTS.md. Throughput is measured by the
//! separate `perfbench` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ldpc_sim::{MonteCarloConfig, Transmission};

/// A Monte-Carlo configuration sized for benchmark runs: statistically
/// meaningful on the demo code yet fast enough to keep `cargo bench`
/// under a few minutes.
pub fn bench_mc_config(ebn0_db: f64, max_iterations: u32) -> MonteCarloConfig {
    MonteCarloConfig {
        ebn0_db,
        max_frames: 3_000,
        target_frame_errors: 60,
        max_iterations,
        seed: 0xBE7C4,
        threads: 0,
        transmission: Transmission::AllZero,
    }
}

/// A very short Monte-Carlo configuration for the full 8176-bit C2 code.
pub fn c2_mc_config(ebn0_db: f64, max_iterations: u32) -> MonteCarloConfig {
    MonteCarloConfig {
        ebn0_db,
        max_frames: 40,
        target_frame_errors: 15,
        max_iterations,
        seed: 0xC2BE,
        threads: 0,
        transmission: Transmission::AllZero,
    }
}

/// Header line announcing which paper artifact a bench regenerates.
pub fn announce(experiment: &str, artifact: &str) {
    println!("\n=== {experiment}: regenerating {artifact} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_fast_but_nontrivial() {
        let c = bench_mc_config(3.0, 18);
        assert!(c.max_frames >= 1_000);
        let c2 = c2_mc_config(4.0, 18);
        assert!(c2.max_frames <= 100);
    }
}
