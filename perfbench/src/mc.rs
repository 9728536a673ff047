//! `mc-c2-packed`: one Monte Carlo operating point of the paper's
//! high-speed datapath, `c2 / awgn / fixed@pack=8`, on one engine thread.
//!
//! Why: at packed rates the decoder is only part of the per-frame time,
//! so this workload shows changes to the loop around the decoder (noise
//! synthesis, LLR expansion, error counting) as well as to the SWAR
//! kernels. Each repetition simulates a fixed frame budget with no
//! error-target stop. 3.8 dB rather than 4.0 dB: at 4.0 dB the packet
//! error rate is about 5e-4, so a ten-second run sees a handful of frame
//! errors and `per` would read 0 on some seeds; at 3.8 dB (PER ≈ 4 %) it
//! is a steady quality guard.

use crate::stats::MIN_LATENCY_SAMPLES;
use crate::trace::{self, SpanId, Tracer};
use crate::{build_c2, decoder_work, derive_seed, Measured, RunArgs, SETUPS};
use gf2::BitVec;
use ldpc_core::{BlockDecoder, CodeHandle, DecodeResult, DecoderSpec, LdpcCode};
use ldpc_sim::{
    run_point_blocks, run_point_scenario_with, MonteCarloConfig, PointResult, Scenario,
    Transmission,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SCENARIO: &str = "c2 / awgn / fixed@pack=8";
const EBN0_DB: f64 = 3.8;
const MAX_ITERATIONS: u32 = 18;
/// Frames per engine call (a whole number of 8-frame words).
const REP_FRAMES: u64 = 1024;
/// Frames in the packed-vs-scalar gate set.
const GATE_FRAMES: usize = 64;
/// Seed offset of the engine's first worker (`ldpc-sim`'s worker-seed
/// stride); the traced replica draws the same noise stream as the engine.
pub const WORKER_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

struct Setup {
    scenario: Scenario,
    handle: Arc<dyn CodeHandle>,
    packed: Box<dyn BlockDecoder>,
    gate_llrs: Vec<f32>,
}

/// Builds the code handle, the decoder and the gate frames.
fn setup(seed: u64) -> Result<Setup, String> {
    let scenario = Scenario::parse(SCENARIO).map_err(|e| e.to_string())?;
    let handle = build_c2(&scenario)?;
    let packed = scenario.decoder.build(handle.code());
    let mut channel = scenario
        .channel
        .build(EBN0_DB, handle.rate(), derive_seed(seed, 1));
    let zero = BitVec::zeros(handle.transmitted_len());
    let mut gate_llrs = Vec::with_capacity(GATE_FRAMES * handle.code().n());
    for _ in 0..GATE_FRAMES {
        handle.expand_llrs_into(&channel.transmit_codeword(&zero), &mut gate_llrs);
    }
    Ok(Setup {
        scenario,
        handle,
        packed,
        gate_llrs,
    })
}

/// Engine configuration of repetition `rep`.
fn rep_cfg(seed: u64, rep: u64, frames: u64) -> MonteCarloConfig {
    MonteCarloConfig {
        ebn0_db: EBN0_DB,
        max_frames: frames,
        target_frame_errors: 0,
        max_iterations: MAX_ITERATIONS,
        seed: derive_seed(seed, 100 + rep),
        threads: 1,
        transmission: Transmission::AllZero,
    }
}

/// Wraps the engine's decoder to time each word's trip through the
/// engine loop: from one `decode_block` return to the next, i.e. noise
/// synthesis, expansion, decoding and counting of one 8-frame word. One
/// clock read per word; samples are handed over when the engine drops it.
struct WordClock<'a> {
    inner: Box<dyn BlockDecoder>,
    last: Instant,
    samples: Vec<f64>,
    sink: &'a Mutex<Vec<f64>>,
}

impl BlockDecoder for WordClock<'_> {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        let out = self.inner.decode_block(llrs, max_iterations);
        let now = Instant::now();
        self.samples
            .push(now.duration_since(self.last).as_secs_f64() * 1e3);
        self.last = now;
        out
    }

    fn block_frames(&self) -> usize {
        self.inner.block_frames()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl Drop for WordClock<'_> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.samples);
        }
    }
}

/// One engine call through the explicit-factory door, with word timing.
pub fn engine_rep(
    code: &Arc<LdpcCode>,
    spec: &DecoderSpec,
    cfg: &MonteCarloConfig,
    words: &Mutex<Vec<f64>>,
) -> PointResult {
    run_point_blocks(code, None, cfg, || WordClock {
        inner: spec.build(code),
        last: Instant::now(),
        samples: Vec::new(),
        sink: words,
    })
}

/// Correctness gates: the packed decoder is bit-exact per lane against
/// scalar `fixed` on the gate frames, and the timed door (explicit
/// factory with word timing) counts exactly what the scenario door does.
/// Returns (checks attempted, checks failed).
fn gates(s: &mut Setup, seed: u64) -> (u64, u64) {
    let code = s.handle.code();
    let mut scalar = DecoderSpec::parse("fixed")
        .expect("fixed is a registered family")
        .build(code);
    let got = s.packed.decode_block(&s.gate_llrs, MAX_ITERATIONS);
    let want = scalar.decode_block(&s.gate_llrs, MAX_ITERATIONS);
    let mut failed = got.iter().zip(&want).filter(|(g, w)| g != w).count() as u64;
    failed += (got.len() as u64).abs_diff(GATE_FRAMES as u64);
    if failed > 0 {
        eprintln!("gate: {failed} packed frame(s) differ from scalar fixed");
    }
    let cfg = rep_cfg(seed, u64::MAX, GATE_FRAMES as u64);
    let via_scenario = run_point_scenario_with(&s.handle, &s.scenario, &cfg);
    let via_factory = engine_rep(code, &s.scenario.decoder, &cfg, &Mutex::new(Vec::new()));
    if via_scenario != via_factory {
        eprintln!("gate: engine doors disagree: {via_scenario:?} vs {via_factory:?}");
        failed += 1;
    }
    (GATE_FRAMES as u64 + 1, failed)
}

/// Untraced repetitions until `budget` has passed (and at least
/// `min_words` word latencies and 3 repetitions are in).
struct Reps {
    points: Vec<PointResult>,
    seconds: Vec<f64>,
    words: Vec<f64>,
}

fn run_reps(s: &Setup, seed: u64, budget: Duration, min_words: usize) -> Reps {
    let code = s.handle.code();
    let words = Mutex::new(Vec::new());
    let (mut points, mut seconds) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget
        || points.len() < 3
        || words.lock().expect("word sink").len() < min_words
    {
        let cfg = rep_cfg(seed, points.len() as u64, REP_FRAMES);
        let t0 = Instant::now();
        let point = engine_rep(code, &s.scenario.decoder, &cfg, &words);
        seconds.push(t0.elapsed().as_secs_f64());
        points.push(point);
    }
    Reps {
        points,
        seconds,
        words: words.into_inner().expect("word sink"),
    }
}

pub fn run(args: &RunArgs) -> Result<Measured, String> {
    let mut setup_times = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        s = Some(setup(args.seed)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut s = s.expect("at least one set-up");
    let mut m = Measured::default();
    let (attempted, failed) = gates(&mut s, args.seed);
    m.attempted += attempted;
    m.failed += failed;
    if failed > 0 {
        return Err(format!("{failed} correctness gate check(s) failed"));
    }

    if args.trace {
        traced(&s, args, &mut m);
        return Ok(m);
    }
    let reps = run_reps(&s, args.seed, args.seconds, MIN_LATENCY_SAMPLES);
    let frames: u64 = reps.points.iter().map(|p| p.frames).sum();
    let errors: u64 = reps.points.iter().map(|p| p.frame_errors).sum();
    m.attempted += frames;
    m.set_median("setup_s", &setup_times);
    let rates: Vec<f64> = reps
        .points
        .iter()
        .zip(&reps.seconds)
        .map(|(p, t)| p.frames as f64 / t)
        .collect();
    m.set_median("frames_per_s", &rates);
    m.set_latency(&reps.words)?;
    m.set_median("time_to_target_s", &reps.seconds);
    m.set("per", errors as f64 / frames as f64);
    Ok(m)
}

/// Counts of the traced replica.
#[derive(Default, Clone)]
pub struct ReplicaCounts {
    pub frames: u64,
    pub words: u64,
    pub bit_errors: u64,
    pub frame_errors: u64,
    pub iterations: u64,
    pub converged: u64,
}

impl ReplicaCounts {
    /// Whether the engine counted the same frames, errors and iterations.
    pub fn matches(&self, p: &PointResult) -> bool {
        (
            self.frames,
            self.bit_errors,
            self.frame_errors,
            self.iterations,
        ) == (p.frames, p.bit_errors, p.frame_errors, p.total_iterations)
    }

    pub fn add(&mut self, o: &ReplicaCounts) {
        self.frames += o.frames;
        self.words += o.words;
        self.bit_errors += o.bit_errors;
        self.frame_errors += o.frame_errors;
        self.iterations += o.iterations;
        self.converged += o.converged;
    }
}

/// The benchmark's replica of the engine's single-worker frame loop for
/// an all-zero scenario run, with a span around every call into a
/// layer: `ChannelSpec::build`, then per frame `transmit_codeword` and
/// `expand_llrs_into`, per word `decode_block`. Error counting stays
/// outside any layer span, as in the engine. Draws the engine's noise
/// stream, so its counts equal the engine's for the same configuration.
/// Runs on a worker thread of its own, like the engine's worker.
pub fn replica(
    handle: &Arc<dyn CodeHandle>,
    scenario: &Scenario,
    cfg: &MonteCarloConfig,
    tracer: &mut Tracer,
    request: u64,
) -> ReplicaCounts {
    std::thread::scope(|s| {
        s.spawn(|| replica_loop(handle, scenario, cfg, tracer, request))
            .join()
            .expect("replica worker")
    })
}

fn replica_loop(
    handle: &Arc<dyn CodeHandle>,
    scenario: &Scenario,
    cfg: &MonteCarloConfig,
    tracer: &mut Tracer,
    request: u64,
) -> ReplicaCounts {
    let root: SpanId = tracer.open("rep", None, request);
    let mut decoder = tracer.span("decoder.build", Some(root), request, || {
        scenario.decoder.build(handle.code())
    });
    let worker_seed = cfg.seed.wrapping_add(WORKER_SEED_STRIDE);
    let mut channel = tracer.span("channel.build", Some(root), request, || {
        scenario
            .channel
            .build(cfg.ebn0_db, handle.rate(), worker_seed)
    });
    let zero = BitVec::zeros(handle.transmitted_len());
    let positions = handle.transmitted_positions();
    let block = decoder.block_frames() as u64;
    let mut llrs = Vec::with_capacity(block as usize * handle.code().n());
    let mut c = ReplicaCounts::default();
    while c.frames < cfg.max_frames {
        let count = block.min(cfg.max_frames - c.frames);
        llrs.clear();
        for f in 0..count {
            let id = c.frames + f;
            let received = tracer.span("channel", Some(root), id, || {
                channel.transmit_codeword(&zero)
            });
            tracer.span("codespec.expand", Some(root), id, || {
                handle.expand_llrs_into(&received, &mut llrs)
            });
        }
        let results = tracer.span("decoder", Some(root), c.words, || {
            decoder.decode_block(&llrs, cfg.max_iterations)
        });
        for out in &results {
            let errors = positions
                .iter()
                .filter(|&&p| out.hard_decision.get(p as usize))
                .count() as u64;
            c.bit_errors += errors;
            c.frame_errors += u64::from(errors > 0);
            c.iterations += u64::from(out.iterations);
            c.converged += u64::from(out.converged);
        }
        c.frames += count;
        c.words += 1;
    }
    tracer.close(root);
    c
}

/// Layer metrics common to the Monte Carlo replicas (mc and sweep):
/// per-frame self times of the layer spans, decoder work, the residual
/// engine time, the uncovered share and the tracing overhead. Returns the
/// replica's wall time per frame.
pub fn replica_metrics(
    m: &mut Measured,
    spans: &[trace::Span],
    counts: &ReplicaCounts,
    engine_s_per_frame: f64,
    edges: usize,
) -> f64 {
    let totals = trace::totals_by_name(spans);
    let per_frame_us = |name: &str| {
        totals.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e3) / counts.frames as f64
    };
    let channel = per_frame_us("channel");
    let expand = per_frame_us("codespec.expand");
    let decoder = per_frame_us("decoder");
    m.set("channel.us_per_frame", channel);
    m.set("codespec.expand_us_per_frame", expand);
    m.set("decoder.us_per_frame", decoder);
    m.set(
        "decoder.word_ms",
        decoder * counts.frames as f64 / counts.words as f64 / 1e3,
    );
    m.set(
        "decoder.converged_frac",
        counts.converged as f64 / counts.frames as f64,
    );
    decoder_work(m, counts.iterations as f64 / counts.frames as f64, edges);
    m.set(
        "engine.other_us_per_frame",
        engine_s_per_frame * 1e6 - (channel + expand + decoder),
    );
    let replica_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum();
    let replica_s_per_frame = replica_ns as f64 / 1e9 / counts.frames as f64;
    m.set("trace.uncovered_frac", trace::uncovered_frac(spans));
    m.set(
        "trace.overhead_frac",
        replica_s_per_frame / engine_s_per_frame - 1.0,
    );
    replica_s_per_frame
}

/// The traced run: untraced engine repetitions alternate with the traced
/// replica over the same repetition configurations, so both see the same
/// machine conditions, until the time is up.
fn traced(s: &Setup, args: &RunArgs, m: &mut Measured) {
    let code = s.handle.code();
    let words = Mutex::new(Vec::new());
    let mut tracer = Tracer::new(Instant::now());
    let mut counts = ReplicaCounts::default();
    let (mut engine_s, mut engine_frames) = (0.0, 0u64);
    let start = Instant::now();
    let mut rep = 0;
    while rep < 2 || start.elapsed() < args.seconds {
        let cfg = rep_cfg(args.seed, rep, REP_FRAMES);
        let t0 = Instant::now();
        let point = engine_rep(code, &s.scenario.decoder, &cfg, &words);
        engine_s += t0.elapsed().as_secs_f64();
        engine_frames += point.frames;
        let c = replica(&s.handle, &s.scenario, &cfg, &mut tracer, rep);
        m.attempted += point.frames + c.frames;
        if !c.matches(&point) {
            eprintln!("check: replica repetition {rep} counts differ from the engine's");
            m.failed += 1;
        }
        counts.add(&c);
        rep += 1;
    }
    let spans = tracer.spans().to_vec();
    replica_metrics(
        m,
        &spans,
        &counts,
        engine_s / engine_frames as f64,
        code.graph().n_edges(),
    );
    m.spans = spans;
}
