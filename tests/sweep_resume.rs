//! Facade-level pins of the sweep orchestrator's determinism contract
//! (ISSUE 8 acceptance criteria): a resumed run's merged counts are
//! bit-identical to a single cold run at the combined budget, a curve
//! (target 0, one chunk per point) reproduces single-threaded point runs
//! exactly, and the merged result does not depend on the worker-thread
//! count.

use ccsds_ldpc::sim::{
    run_point_scenario_with, run_sweep, sweep_grid, MonteCarloConfig, Scenario, SweepConfig,
    Transmission,
};
use std::path::PathBuf;

fn scenario() -> Scenario {
    Scenario::parse("demo / awgn / nms:1.25").expect("valid scenario")
}

fn sweep_cfg(max_frames: u64, chunk_frames: u64) -> SweepConfig {
    SweepConfig {
        max_frames,
        target_frame_errors: 0,
        chunk_frames,
        max_iterations: 12,
        threads: 1,
        cache_dir: None,
        progress_frames: None,
    }
}

fn temp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldpc-resume-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A curve through the orchestrator (target 0, one chunk per point, two
/// workers) is bit-reproducible against single-threaded point runs
/// seeded the way `sweep_grid` seeds them: point `i` at
/// `base + i · 0x5151_5151`.
#[test]
fn orchestrator_reproduces_run_point_scenario_with_bit_for_bit() {
    let ebn0s = [2.0, 4.0];
    let base_seed = 0xC11u64;
    let units = sweep_grid(&[scenario()], &ebn0s, base_seed);
    let cfg = SweepConfig {
        threads: 2,
        ..sweep_cfg(80, 80)
    };
    let results = run_sweep(&units, &cfg).expect("sweep runs");
    let handle = scenario().build_code().expect("code builds");
    assert_eq!(results.len(), ebn0s.len());
    for (i, (result, &ebn0_db)) in results.iter().zip(&ebn0s).enumerate() {
        let point_cfg = MonteCarloConfig {
            ebn0_db,
            max_frames: 80,
            target_frame_errors: 0,
            max_iterations: 12,
            seed: base_seed.wrapping_add(i as u64 * 0x5151_5151),
            threads: 1,
            transmission: Transmission::AllZero,
        };
        assert_eq!(
            result.point,
            run_point_scenario_with(&handle, &scenario(), &point_cfg)
        );
    }
}

/// A run cached at a small budget then resumed at a doubled budget
/// merges counts exactly additively: bit-identical to one cold run at
/// the combined budget (threads = 1), with only the extension simulated.
#[test]
fn resumed_counts_match_a_single_cold_run_at_the_combined_budget() {
    let dir = temp_cache("combined");
    let units = sweep_grid(&[scenario()], &[1.5], 42);

    let mut small = sweep_cfg(90, 30);
    small.cache_dir = Some(dir.clone());
    let first = &run_sweep(&units, &small).expect("first run")[0];
    assert_eq!(first.frames_simulated, 90);

    let mut doubled = sweep_cfg(180, 30);
    doubled.cache_dir = Some(dir.clone());
    let resumed = &run_sweep(&units, &doubled).expect("resumed run")[0];
    assert_eq!(resumed.frames_from_cache, 90, "first half adopted");
    assert_eq!(resumed.frames_simulated, 90, "only the extension simulated");

    let cold = &run_sweep(&units, &sweep_cfg(180, 30)).expect("cold run")[0];
    assert_eq!(resumed.point, cold.point, "merge must be exactly additive");

    // Counts are additive field by field: first-run totals plus the
    // simulated extension equal the combined result.
    assert_eq!(resumed.point.frames, 180);
    assert!(resumed.point.bit_errors >= first.point.bit_errors);
    assert!(resumed.point.frame_errors >= first.point.frame_errors);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The merged point is a pure function of the unit: worker count only
/// changes wall time and speculation, never the result.
#[test]
fn merged_counts_are_thread_count_invariant() {
    let units = sweep_grid(&[scenario()], &[0.0, 2.0], 7);
    let mut adaptive = sweep_cfg(160, 40);
    adaptive.target_frame_errors = 4;
    let serial = run_sweep(&units, &adaptive).expect("serial");
    adaptive.threads = 4;
    let parallel = run_sweep(&units, &adaptive).expect("parallel");
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.hit_target, b.hit_target);
        assert_eq!(a.chunks_merged, b.chunks_merged);
    }
}
