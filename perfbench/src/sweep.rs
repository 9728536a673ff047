//! `sweep-c2-fixed`: an adaptive, cached sweep of the paper's scalar
//! fixed-point datapath, `c2 / awgn / fixed`, over two waterfall points
//! with a frame-error target, a frame cap, chunking and two workers.
//!
//! Why: scalar decoding costs milliseconds per frame, so the decoder does
//! almost all of the work and a change to the loop around it should show
//! no change here. The workload also covers the worker pool, speculative
//! chunks and cache writes (cold runs) beside cache reads (warm reruns).
//! The points are chosen so that every seed does nearly the same work:
//! at 3.3 dB (PER ≈ 0.995) the error target fires on the first chunk,
//! whose speculative successor is always in flight by then, and 3.7 dB
//! (PER ≈ 0.2) always runs to the frame cap. A point whose stop chunk
//! depends on the seed, or whose speculative chunk is a race, spreads
//! the timings by more than their bounds. Frames that fail to converge
//! (about 40 %) stay a minority, so the median frame latency falls among
//! the converging frames' finely spread iteration counts.

use crate::mc::{engine_rep, replica, replica_metrics, ReplicaCounts, WORKER_SEED_STRIDE};
use crate::stats::{median, MIN_LATENCY_SAMPLES};
use crate::trace::Tracer;
use crate::{build_c2, derive_seed, out_path, Measured, RunArgs, SETUPS};
use ldpc_core::CodeHandle;
use ldpc_sim::{
    run_point_scenario_with, run_sweep, sweep_grid, MonteCarloConfig, PointResult, Scenario,
    SweepConfig, SweepUnit, SweepUnitResult, Transmission,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SCENARIO: &str = "c2 / awgn / fixed";
const POINTS_DB: [f64; 2] = [3.3, 3.7];
const TARGET_FRAME_ERRORS: u64 = 60;
const CHUNK_FRAMES: u64 = 64;
const MAX_FRAMES: u64 = 192;
const THREADS: usize = 2;
const MAX_ITERATIONS: u32 = 18;
/// Warm reruns after each cold run (each one checked).
const WARM_PER_COLD: usize = 10;
/// Warm reruns timed in a traced run.
const WARM_TRACED: usize = 100;

struct Setup {
    scenario: Scenario,
    handle: Arc<dyn CodeHandle>,
    units: Vec<SweepUnit>,
    cache_root: PathBuf,
    /// Whether the warm-up sweep's warm rerun simulated nothing and
    /// merged the cold counts.
    warm_up_ok: bool,
}

/// Builds the code, a decoder and the sweep units, then warms the sweep
/// path up with a small cold sweep and a warm rerun over its cache (which
/// is also the cache gate).
fn setup(seed: u64) -> Result<Setup, String> {
    let scenario = Scenario::parse(SCENARIO).map_err(|e| e.to_string())?;
    let handle = build_c2(&scenario)?;
    std::hint::black_box(scenario.decoder.build(handle.code()));
    let units = sweep_grid(
        std::slice::from_ref(&scenario),
        &POINTS_DB,
        derive_seed(seed, 2),
    );
    let cache_root = out_path(&format!("sweep-cache-{}", std::process::id()));
    let dir = cache_root.join("warm-up");
    let warm_up = sweep_grid(
        std::slice::from_ref(&scenario),
        &POINTS_DB[..1],
        derive_seed(seed, 3),
    );
    let cfg = sweep_cfg(&dir, 16, 4, 8);
    let cold = run_sweep(&warm_up, &cfg).map_err(|e| e.to_string())?;
    let warm = run_sweep(&warm_up, &cfg).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    let warm_up_ok =
        simulated(&warm) == 0 && points(&warm) == points(&cold) && simulated(&cold) > 0;
    Ok(Setup {
        scenario,
        handle,
        units,
        cache_root,
        warm_up_ok,
    })
}

fn sweep_cfg(cache: &Path, max_frames: u64, target: u64, chunk: u64) -> SweepConfig {
    SweepConfig {
        max_frames,
        target_frame_errors: target,
        chunk_frames: chunk,
        max_iterations: MAX_ITERATIONS,
        threads: THREADS,
        cache_dir: Some(cache.to_path_buf()),
        progress_frames: None,
    }
}

fn points(results: &[SweepUnitResult]) -> Vec<PointResult> {
    results.iter().map(|r| r.point).collect()
}

fn simulated(results: &[SweepUnitResult]) -> u64 {
    results.iter().map(|r| r.frames_simulated).sum()
}

/// A cold sweep and the warm reruns over its cache.
struct ColdWarm {
    cold: Vec<SweepUnitResult>,
    cold_s: f64,
    warm_s: Vec<f64>,
    /// Frames the last warm rerun adopted from the cache.
    warm_from_cache: u64,
    failed: u64,
}

/// One cold sweep into a fresh cache directory, followed by `warm`
/// reruns over it. Each rerun must simulate 0 frames and merge the cold
/// run's counts; each cold run must merge `reference` (merged counts do
/// not depend on scheduling).
fn cold_and_warm(
    s: &Setup,
    dir: &Path,
    warm: usize,
    reference: Option<&[PointResult]>,
) -> Result<ColdWarm, String> {
    let cfg = sweep_cfg(dir, MAX_FRAMES, TARGET_FRAME_ERRORS, CHUNK_FRAMES);
    let t0 = Instant::now();
    let cold = run_sweep(&s.units, &cfg).map_err(|e| e.to_string())?;
    let cold_s = t0.elapsed().as_secs_f64();
    let merged = points(&cold);
    let mut failed = u64::from(reference.is_some_and(|r| r != merged.as_slice()));
    let mut warm_s = Vec::with_capacity(warm);
    let mut warm_from_cache = 0;
    for _ in 0..warm {
        let t0 = Instant::now();
        let again = run_sweep(&s.units, &cfg).map_err(|e| e.to_string())?;
        warm_s.push(t0.elapsed().as_secs_f64());
        failed += u64::from(simulated(&again) != 0 || points(&again) != merged);
        warm_from_cache = again.iter().map(|r| r.frames_from_cache).sum();
    }
    let _ = std::fs::remove_dir_all(dir);
    if failed > 0 {
        eprintln!("check: {failed} sweep run(s) simulated frames when warm or merged other counts");
    }
    Ok(ColdWarm {
        cold,
        cold_s,
        warm_s,
        warm_from_cache,
        failed,
    })
}

/// Engine configuration of chunk `c` of `unit`: what the orchestrator
/// runs for that chunk (chunk `c` of a unit seeded `s` runs the engine
/// with seed `s + c · stride`).
fn chunk_cfg(unit: &SweepUnit, c: u64) -> MonteCarloConfig {
    MonteCarloConfig {
        ebn0_db: unit.ebn0_db,
        max_frames: CHUNK_FRAMES,
        target_frame_errors: 0,
        max_iterations: MAX_ITERATIONS,
        seed: unit.seed.wrapping_add(WORKER_SEED_STRIDE.wrapping_mul(c)),
        threads: 1,
        transmission: Transmission::AllZero,
    }
}

/// The merged chunks of a cold sweep, as (unit index, chunk index).
fn merged_chunks(cold: &[SweepUnitResult]) -> Vec<(usize, u64)> {
    cold.iter()
        .enumerate()
        .flat_map(|(u, r)| (0..r.chunks_merged).map(move |c| (u, c)))
        .collect()
}

pub fn run(args: &RunArgs) -> Result<Measured, String> {
    let mut setup_times = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        s = Some(setup(args.seed)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let mut m = Measured::default();
    let result = measure(&s, args, &mut m, &setup_times);
    let _ = std::fs::remove_dir_all(&s.cache_root);
    result.map(|()| m)
}

fn measure(s: &Setup, args: &RunArgs, m: &mut Measured, setup_times: &[f64]) -> Result<(), String> {
    m.attempted += 1;
    if !s.warm_up_ok {
        m.failed += 1;
        return Err(
            "gate: the warm-up sweep's warm rerun simulated frames or merged other counts".into(),
        );
    }
    if args.trace {
        return traced(s, args, m);
    }
    let start = Instant::now();
    let code = s.handle.code();
    let frame_clock = Mutex::new(Vec::new());
    let mut reference: Option<Vec<PointResult>> = None;
    let (mut cold_s, mut rates) = (Vec::new(), Vec::new());
    while start.elapsed() < args.seconds
        || cold_s.len() < 3
        || frame_clock.lock().expect("frame clock").len() < MIN_LATENCY_SAMPLES
    {
        let dir = s.cache_root.join(format!("cold-{}", cold_s.len()));
        let run = cold_and_warm(s, &dir, WARM_PER_COLD, reference.as_deref())?;
        m.attempted += 1 + run.warm_s.len() as u64;
        m.failed += run.failed;
        rates.push(simulated(&run.cold) as f64 / run.cold_s);
        cold_s.push(run.cold_s);
        let merged = reference.get_or_insert_with(|| points(&run.cold)).clone();

        // Frame latency: the merged chunks again on one engine thread,
        // timed at the decoder boundary; their counts must re-merge to
        // the sweep's.
        {
            let counts =
                |p: &PointResult| [p.frames, p.frame_errors, p.bit_errors, p.total_iterations];
            let mut sums = vec![[0u64; 4]; merged.len()];
            for (u, c) in merged_chunks(&run.cold) {
                let cfg = chunk_cfg(&s.units[u], c);
                let p = engine_rep(code, &s.scenario.decoder, &cfg, &frame_clock);
                m.attempted += p.frames;
                for (sum, v) in sums[u].iter_mut().zip(counts(&p)) {
                    *sum += v;
                }
            }
            for (sum, want) in sums.iter().zip(&merged) {
                m.failed += u64::from(*sum != counts(want));
            }
        }
    }
    let merged = reference.expect("at least one cold run");
    let frames: u64 = merged.iter().map(|p| p.frames).sum();
    let errors: u64 = merged.iter().map(|p| p.frame_errors).sum();
    let frame_ms = frame_clock.into_inner().expect("frame clock");
    m.set_median("setup_s", setup_times);
    m.set_median("frames_per_s", &rates);
    m.set_latency(&frame_ms)?;
    m.set_median("time_to_target_s", &cold_s);
    m.set("per", errors as f64 / frames as f64);
    Ok(())
}

/// The traced run: one cold sweep and its warm reruns (orchestrator
/// counts and timing), then, until the time is up, each merged chunk on
/// one untraced engine thread alternating with the traced replica.
fn traced(s: &Setup, args: &RunArgs, m: &mut Measured) -> Result<(), String> {
    let start = Instant::now();
    let run = cold_and_warm(s, &s.cache_root.join("traced"), WARM_TRACED, None)?;
    m.attempted += 1 + run.warm_s.len() as u64;
    m.failed += run.failed;
    let chunks = merged_chunks(&run.cold);

    let mut tracer = Tracer::new(Instant::now());
    let mut counts = ReplicaCounts::default();
    let (mut engine_s, mut engine_frames) = (0.0, 0u64);
    let mut pass = 0u64;
    while pass == 0 || start.elapsed() < args.seconds {
        let mut merged = vec![ReplicaCounts::default(); s.units.len()];
        for (i, &(u, c)) in chunks.iter().enumerate() {
            let cfg = chunk_cfg(&s.units[u], c);
            let t0 = Instant::now();
            let point = run_point_scenario_with(&s.handle, &s.scenario, &cfg);
            engine_s += t0.elapsed().as_secs_f64();
            engine_frames += point.frames;
            let request = pass * chunks.len() as u64 + i as u64;
            let got = replica(&s.handle, &s.scenario, &cfg, &mut tracer, request);
            m.attempted += point.frames + got.frames;
            m.failed += u64::from(!got.matches(&point));
            merged[u].add(&got);
            counts.add(&got);
        }
        for (r, got) in run.cold.iter().zip(&merged) {
            m.failed += u64::from(!got.matches(&r.point));
        }
        pass += 1;
    }
    let spans = tracer.spans().to_vec();
    let replica_s_per_frame = replica_metrics(
        m,
        &spans,
        &counts,
        engine_s / engine_frames as f64,
        s.handle.code().graph().n_edges(),
    );
    let sim = simulated(&run.cold);
    let merged_frames: u64 = run.cold.iter().map(|r| r.point.frames).sum();
    m.set("orchestrator.frames_simulated", sim as f64);
    m.set("orchestrator.frames_from_cache", run.warm_from_cache as f64);
    m.set(
        "orchestrator.useful_frac",
        merged_frames as f64 / sim as f64,
    );
    m.set(
        "orchestrator.parallel_efficiency",
        sim as f64 * replica_s_per_frame / (THREADS as f64 * run.cold_s),
    );
    m.set("orchestrator.warm_rerun_s", median(&run.warm_s));
    m.spans = spans;
    Ok(())
}
