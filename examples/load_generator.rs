//! Load generator for the decode service — the driver of experiment
//! A12 (EXPERIMENTS.md): the throughput/latency/batch-fill curve of
//! coalescing, 1 connection vs many.
//!
//! With a decoder whose word holds several frames (`nms:1.25@batch=8`
//! decodes 8 in lockstep) one connection degrades to batch-of-1 words
//! (the latency-budget fallback), and with ≥ 64 concurrent in-flight
//! frames the per-(code, decoder) queues fill whole 8-frame words, so
//! frames/sec scales with fill — the serving mirror of the paper's
//! 8-frames-in-flight datapath. Every `fixed` spec decodes one frame per
//! word, which ships as soon as a worker is free.
//!
//! ```text
//! cargo run --release --example load_generator -- \
//!     --spec "demo / nms:1.25@batch=8" --frames 256 --connections 1,64 --stats
//! ```
//!
//! Without `--addr` an in-process server is started on a free port (and
//! shut down gracefully at the end); with `--addr HOST:PORT` an
//! external `ldpc-tool serve` is driven instead (add `--shutdown` to
//! drain it when done — the CI smoke test does exactly that).

use ccsds_ldpc::channel::AwgnChannel;
use ccsds_ldpc::gf2::BitVec;
use ccsds_ldpc::served::{protocol, Client, Encoding, ServeConfig, Server};
use ccsds_ldpc::sim::Scenario;
use std::time::{Duration, Instant};

struct Options {
    spec: String,
    frames: usize,
    connections: Vec<usize>,
    ebn0: f64,
    seed: u64,
    addr: Option<String>,
    max_wait_us: u64,
    workers: usize,
    iters: u32,
    stats: bool,
    shutdown: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        spec: "demo / nms:1.25@batch=8".to_string(),
        frames: 256,
        connections: vec![1, 64],
        ebn0: 4.0,
        seed: 1,
        addr: None,
        max_wait_us: 500,
        workers: 0,
        iters: 18,
        stats: false,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("--{name} expects a value"));
        match arg.as_str() {
            "--spec" => opts.spec = value("spec")?,
            "--frames" => {
                opts.frames = value("frames")?
                    .parse()
                    .map_err(|e| format!("--frames: {e}"))?;
            }
            "--connections" => {
                opts.connections = value("connections")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--connections: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--ebn0" => opts.ebn0 = value("ebn0")?.parse().map_err(|e| format!("--ebn0: {e}"))?,
            "--seed" => opts.seed = value("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--addr" => opts.addr = Some(value("addr")?),
            "--max-wait-us" => {
                opts.max_wait_us = value("max-wait-us")?
                    .parse()
                    .map_err(|e| format!("--max-wait-us: {e}"))?;
            }
            "--workers" => {
                opts.workers = value("workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--iters" => {
                opts.iters = value("iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--stats" => opts.stats = true,
            "--shutdown" => opts.shutdown = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.frames == 0 || opts.connections.contains(&0) {
        return Err("--frames and every --connections entry must be positive".into());
    }
    Ok(opts)
}

/// Quantized noisy all-zero frames at `ebn0` dB — the same workload the
/// bench helpers generate, on the wire's signed-byte LLR scale.
fn workload(scenario: &Scenario, opts: &Options) -> Result<Vec<Vec<i8>>, String> {
    let handle = scenario.build_code().map_err(|e| e.to_string())?;
    let code = handle.code();
    let mut channel = AwgnChannel::from_ebn0(opts.ebn0, code.rate(), opts.seed);
    let zero = BitVec::zeros(code.n());
    Ok((0..opts.frames)
        .map(|_| {
            channel
                .transmit_codeword(&zero)
                .into_iter()
                .map(protocol::quantize_llr)
                .collect()
        })
        .collect())
}

struct RunPoint {
    connections: usize,
    wall: Duration,
    latencies_us: Vec<u64>,
    converged: usize,
}

/// Decodes the whole workload over `connections` concurrent
/// connections, each sending its share sequentially.
fn run_point(
    addr: &str,
    spec: &str,
    frames: &[Vec<i8>],
    connections: usize,
) -> Result<RunPoint, String> {
    let start = Instant::now();
    let shares: Vec<&[Vec<i8>]> = chunk_evenly(frames, connections);
    let results: Vec<(Vec<u64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                s.spawn(move || -> Result<(Vec<u64>, usize), String> {
                    let mut client = Client::connect_retrying(addr, Duration::from_secs(10))
                        .map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut latencies = Vec::with_capacity(share.len());
                    let mut converged = 0;
                    for llrs in share {
                        let sent = Instant::now();
                        let frame = client
                            .decode_llr8(spec, llrs, Encoding::Hex)
                            .map_err(|e| e.to_string())?;
                        latencies
                            .push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                        converged += usize::from(frame.converged);
                    }
                    Ok((latencies, converged))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    let wall = start.elapsed();
    let mut latencies_us = Vec::with_capacity(frames.len());
    let mut converged = 0;
    for (lat, conv) in results {
        latencies_us.extend(lat);
        converged += conv;
    }
    latencies_us.sort_unstable();
    Ok(RunPoint {
        connections,
        wall,
        latencies_us,
        converged,
    })
}

/// Splits `frames` into up to `parts` contiguous, near-equal shares
/// (never more shares than frames).
fn chunk_evenly(frames: &[Vec<i8>], parts: usize) -> Vec<&[Vec<i8>]> {
    let parts = parts.min(frames.len());
    let base = frames.len() / parts;
    let extra = frames.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(&frames[start..start + len]);
        start += len;
    }
    out
}

fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64 * q).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64 / 1e3
}

fn main() -> Result<(), String> {
    let opts = parse_options()?;
    let scenario: Scenario = opts.spec.parse().map_err(|e| format!("--spec: {e}"))?;
    let frames = workload(&scenario, &opts)?;

    // Either drive an external server or bring one up in-process.
    let mut in_process = None;
    let addr = match &opts.addr {
        Some(addr) => addr.clone(),
        None => {
            let server = Server::bind(ServeConfig {
                max_wait: Duration::from_micros(opts.max_wait_us),
                workers: opts.workers,
                max_iterations: opts.iters,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("bind: {e}"))?;
            let handle = server.handle();
            in_process = Some((handle.clone(), std::thread::spawn(move || server.run())));
            handle.addr().to_string()
        }
    };

    println!(
        "load_generator: spec \"{}\" -> key \"{} / {}\", {} frames at {} dB, server {addr}",
        opts.spec, scenario.code, scenario.decoder, opts.frames, opts.ebn0
    );
    println!(
        "{:>11}  {:>6}  {:>7}  {:>8}  {:>7}  {:>7}  {:>9}  {:>7}",
        "connections", "frames", "wall_s", "fps", "p50_ms", "p99_ms", "converged", "speedup"
    );
    let mut baseline_fps = None;
    for &m in &opts.connections {
        let point = run_point(&addr, &opts.spec, &frames, m)?;
        let fps = frames.len() as f64 / point.wall.as_secs_f64();
        let baseline = *baseline_fps.get_or_insert(fps);
        println!(
            "{:>11}  {:>6}  {:>7.2}  {:>8.1}  {:>7.1}  {:>7.1}  {:>4}/{:<4}  {:>6.2}x",
            point.connections,
            frames.len(),
            point.wall.as_secs_f64(),
            fps,
            percentile(&point.latencies_us, 0.50),
            percentile(&point.latencies_us, 0.99),
            point.converged,
            frames.len(),
            fps / baseline,
        );
    }

    if opts.stats {
        let mut client = Client::connect_retrying(addr.as_str(), Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        println!("--- server STATS ---");
        println!("{}", client.stats().map_err(|e| e.to_string())?);
    }
    if opts.shutdown && opts.addr.is_some() {
        let mut client = Client::connect_retrying(addr.as_str(), Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        client.shutdown_server().map_err(|e| e.to_string())?;
        println!("external server acknowledged shutdown");
    }
    if let Some((handle, join)) = in_process {
        handle.shutdown();
        let summary = join.join().expect("server thread panicked");
        println!("in-process server drained: {summary}");
    }
    Ok(())
}
