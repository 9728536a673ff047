//! `served-c2-2conn`: an in-process decode server on loopback under a
//! closed loop of two client connections, each sending pre-quantized C2
//! frames (`c2 / fixed@pack=8`, llr8 base64, 3 dB) one at a time, back
//! to back.
//!
//! Why: no channel runs in the served path. Wire codecs, connection
//! threads and the coalescer's partial-word deadline carry the latency,
//! which is the regime of the legacy single-connection served latency.
//! Load stays at two connections, one per core of a two-core machine; a
//! 64-connection full-word point would measure CPU oversubscription there.
//! For the same reason the server runs one decode worker: with a second
//! one, two single-lane words decode at once while the connection and
//! client threads compete for the same two cores, and the p99 latency
//! of a run settled at either about 8 or about 15 ms.

use crate::stats::{median, percentile, MIN_LATENCY_SAMPLES};
use crate::trace::{self, Tracer};
use crate::{build_c2, decoder_work, derive_seed, Measured, RunArgs, SETUPS};
use gf2::BitVec;
use ldpc_core::{BlockDecoder, CodeHandle, DecodeResult, DecoderSpec, PACK_LANES};
use ldpc_served::protocol::{self, DecodedFrame};
use ldpc_served::{
    Client, Encoding, Payload, Request, Response, ServeConfig, ServeSummary, Server, ServerHandle,
};
use ldpc_sim::Scenario;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SPEC: &str = "c2 / fixed@pack=8";
const EBN0_DB: f64 = 3.0;
const MAX_ITERATIONS: u32 = 18;
/// Distinct frames the clients cycle through.
const POOL: usize = 64;
const CONNECTIONS: usize = 2;
/// Frames each connection sends per round (`time_to_target_s` is the
/// round time).
const ROUND: usize = 16;
/// The coalescer's latency budget (the server default).
const MAX_WAIT: Duration = Duration::from_micros(500);
/// PING round trips timed in a traced run.
const PINGS: usize = 200;
/// Words decoded directly in a traced run to time a word of the observed
/// fill.
const DECODE_WORDS: usize = 16;

/// A running server.
struct Running {
    handle: ServerHandle,
    join: JoinHandle<ServeSummary>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.join
            .join()
            .map(drop)
            .map_err(|_| "server thread panicked".to_string())
    }
}

struct Setup {
    server: Running,
    clients: Vec<Client>,
    code_handle: Arc<dyn CodeHandle>,
    pool: Vec<Vec<i8>>,
}

/// Starts a server, connects the clients, builds the server's key (code
/// handle and decoder) with one warm-up request, and generates the frame
/// pool through the channel, traced when a tracer is given.
fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Result<Setup, String> {
    let server = Server::bind(ServeConfig {
        max_wait: MAX_WAIT,
        max_iterations: MAX_ITERATIONS,
        workers: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("binding the server: {e}"))?;
    let handle = server.handle();
    let server = Running {
        handle: handle.clone(),
        join: std::thread::spawn(move || server.run()),
    };
    let scenario = Scenario::parse(SPEC).map_err(|e| e.to_string())?;
    let code_handle = build_c2(&scenario)?;
    let pool = frame_pool(&scenario, &code_handle, derive_seed(seed, 4), tracer);
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        clients.push(Client::connect(handle.addr()).map_err(|e| format!("connecting: {e}"))?);
    }
    match clients[0].decode_llr8_once(SPEC, &pool[0], Encoding::Base64) {
        Ok(Response::Decoded(_)) => {}
        other => return Err(format!("warm-up request failed: {other:?}")),
    }
    Ok(Setup {
        server,
        clients,
        code_handle,
        pool,
    })
}

/// Noisy all-zero C2 frames on the wire's signed-byte scale.
fn frame_pool(
    scenario: &Scenario,
    handle: &Arc<dyn CodeHandle>,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Vec<i8>> {
    let mut channel = scenario.channel.build(EBN0_DB, handle.rate(), seed);
    let zero = BitVec::zeros(handle.transmitted_len());
    let root = tracer.as_mut().map(|t| t.open("pool", None, 0));
    let mut timed = |name, request, f: &mut dyn FnMut()| match tracer.as_mut() {
        Some(t) => t.span(name, root, request, f),
        None => f(),
    };
    let pool = (0..POOL as u64)
        .map(|i| {
            let mut received = Vec::new();
            timed("channel", i, &mut || {
                received = channel.transmit_codeword(&zero)
            });
            let mut llrs = Vec::new();
            timed("codespec.expand", i, &mut || {
                handle.expand_llrs_into(&received, &mut llrs)
            });
            llrs.into_iter().map(protocol::quantize_llr).collect()
        })
        .collect();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    pool
}

/// What a served frame must be: the direct scalar library decode of the
/// same dequantized LLRs.
struct Expected {
    result: DecodeResult,
    bits: Vec<u8>,
}

fn expected(s: &Setup) -> Vec<Expected> {
    let n = s.code_handle.code().n();
    let mut scalar = DecoderSpec::parse("fixed")
        .expect("fixed is a registered family")
        .build(s.code_handle.code());
    s.pool
        .iter()
        .map(|q| {
            let result = scalar
                .decode_block(&protocol::llr8_to_f32(q), MAX_ITERATIONS)
                .remove(0);
            let bits = protocol::pack_bits((0..n).map(|i| result.hard_decision.get(i)));
            Expected { result, bits }
        })
        .collect()
}

fn same_frame(got: &DecodedFrame, want: &Expected) -> bool {
    got.bits == want.bits
        && got.iterations == want.result.iterations
        && got.converged == want.result.converged
}

/// Gate: every pool frame, sent once, comes back equal to the direct
/// library decode. Returns (checks, failures).
fn gate(s: &mut Setup, want: &[Expected]) -> (u64, u64) {
    let mut failed = 0;
    for (q, w) in s.pool.iter().zip(want) {
        match s.clients[0].decode_llr8_once(SPEC, q, Encoding::Base64) {
            Ok(Response::Decoded(f)) if same_frame(&f, w) => {}
            other => {
                eprintln!("gate: served frame differs from the library decode: {other:?}");
                failed += 1;
            }
        }
    }
    (POOL as u64, failed)
}

/// Outcome of a closed-loop phase.
#[derive(Default)]
struct LoopStats {
    latencies_ms: Vec<f64>,
    round_s: Vec<f64>,
    wall_s: f64,
    ok: u64,
    failed: u64,
    frame_errors: u64,
    iterations: u64,
    converged: u64,
    /// Pool index of every request, in order per connection.
    sent: Vec<usize>,
}

impl LoopStats {
    fn absorb(&mut self, o: LoopStats) {
        self.latencies_ms.extend(o.latencies_ms);
        self.ok += o.ok;
        self.failed += o.failed;
        self.frame_errors += o.frame_errors;
        self.iterations += o.iterations;
        self.converged += o.converged;
        self.sent.extend(o.sent);
    }
}

/// Closed loop in step: every connection sends one frame, and its next
/// one once every connection has its reply, so the frames of a step meet
/// in the coalescer and ship together on the partial-word deadline. Left
/// to drift apart, the two loops sometimes queue one frame behind the
/// other's decode, which made the p99 latency swing with machine load.
/// Every [`ROUND`] steps the leader decides whether to stop (at least
/// `budget` elapsed and [`MIN_LATENCY_SAMPLES`] answered, or at least
/// `budget` elapsed when `min_requests` is false). With tracers, every
/// request is a span under its connection's root span.
fn closed_loop(
    s: &mut Setup,
    want: &[Expected],
    budget: Duration,
    min_requests: bool,
    tracers: Option<&mut [Tracer]>,
) -> LoopStats {
    let barrier = Barrier::new(CONNECTIONS);
    let stop = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    let pool = &s.pool;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut tracer_slots: Vec<Option<&mut Tracer>> = match tracers {
            Some(ts) => ts.iter_mut().map(Some).collect(),
            None => (0..CONNECTIONS).map(|_| None).collect(),
        };
        let workers: Vec<_> = s
            .clients
            .iter_mut()
            .zip(tracer_slots.iter_mut())
            .enumerate()
            .map(|(c, (client, tracer))| {
                let (barrier, stop, answered) = (&barrier, &stop, &answered);
                let mut tracer = tracer.take();
                scope.spawn(move || {
                    let mut st = LoopStats::default();
                    let mut rounds = Vec::new();
                    let root = tracer.as_mut().map(|t| t.open("conn", None, c as u64));
                    for k in 0.. {
                        if barrier.wait().is_leader() && k % ROUND == 0 {
                            rounds.push(Instant::now());
                            let done = start.elapsed() >= budget
                                && (!min_requests
                                    || answered.load(Ordering::Relaxed)
                                        >= MIN_LATENCY_SAMPLES as u64);
                            stop.store(done, Ordering::Relaxed);
                        }
                        barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let id = k * CONNECTIONS + c;
                        let idx = id % POOL;
                        let id = id as u64;
                        let span = tracer.as_mut().map(|t| t.open("request", root, id));
                        let sent = Instant::now();
                        let resp = client.decode_llr8_once(SPEC, &pool[idx], Encoding::Base64);
                        let latency = sent.elapsed();
                        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                            t.close(span);
                        }
                        st.latencies_ms.push(latency.as_secs_f64() * 1e3);
                        st.sent.push(idx);
                        match resp {
                            Ok(Response::Decoded(f)) if same_frame(&f, &want[idx]) => {
                                st.ok += 1;
                                st.frame_errors += u64::from(f.bits.iter().any(|&b| b != 0));
                                st.iterations += u64::from(f.iterations);
                                st.converged += u64::from(f.converged);
                                answered.fetch_add(1, Ordering::Relaxed);
                            }
                            other => {
                                eprintln!("check: request {id} failed: {other:?}");
                                st.failed += 1;
                            }
                        }
                    }
                    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
                        t.close(root);
                    }
                    (st, rounds)
                })
            })
            .collect();
        let mut out = LoopStats::default();
        // The leader of each meeting, whichever connection it was, noted
        // the time: together the notes delimit every round.
        let mut rounds = Vec::new();
        for w in workers {
            let (st, r) = w.join().expect("client thread");
            rounds.extend(r);
            out.absorb(st);
        }
        rounds.sort();
        out.round_s = rounds
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect();
        out.wall_s = rounds[rounds.len() - 1]
            .duration_since(rounds[0])
            .as_secs_f64();
        out
    })
}

pub fn run(args: &RunArgs) -> Result<Measured, String> {
    let mut setup_times = Vec::new();
    let mut s: Option<Setup> = None;
    let mut pool_tracer = Tracer::new(Instant::now());
    for i in 0..SETUPS {
        if let Some(old) = s.take() {
            drop(old.clients);
            old.server.stop()?;
        }
        let tracer = (args.trace && i + 1 == SETUPS).then_some(&mut pool_tracer);
        let t0 = Instant::now();
        s = Some(setup(args.seed, tracer)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut s = s.expect("at least one set-up");
    let mut m = Measured::default();
    let result = measure(&mut s, args, &mut m, &setup_times, pool_tracer);
    drop(s.clients);
    s.server.stop()?;
    result.map(|()| m)
}

fn measure(
    s: &mut Setup,
    args: &RunArgs,
    m: &mut Measured,
    setup_times: &[f64],
    pool_tracer: Tracer,
) -> Result<(), String> {
    let want = expected(s);
    let (attempted, failed) = gate(s, &want);
    m.attempted += attempted;
    m.failed += failed;
    if failed > 0 {
        return Err(format!("{failed} correctness gate check(s) failed"));
    }
    if args.trace {
        return traced(s, &want, args, m, pool_tracer);
    }
    let st = closed_loop(s, &want, args.seconds, true, None);
    m.attempted += st.ok + st.failed;
    m.failed += st.failed;
    m.set_median("setup_s", setup_times);
    m.set("frames_per_s", st.ok as f64 / st.wall_s);
    m.set_latency(&st.latencies_ms)?;
    m.set_median("time_to_target_s", &st.round_s);
    m.set("per", st.frame_errors as f64 / st.ok.max(1) as f64);
    Ok(())
}

/// Counters parsed out of a `STATS` body.
#[derive(Default)]
struct Stats {
    /// Batches per live-lane count.
    fill: Vec<(usize, u64)>,
    rejected: u64,
    p50_us: f64,
    p99_us: f64,
}

fn scrape(client: &mut Client) -> Result<Stats, String> {
    let body = client.stats().map_err(|e| format!("STATS: {e}"))?;
    let mut st = Stats::default();
    for line in body.lines() {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Some(lanes) = key
            .strip_prefix("ldpc_served_batch_fill{lanes=\"")
            .and_then(|r| r.strip_suffix("\"}"))
        {
            if let (Ok(lanes), Ok(count)) = (lanes.parse(), value.parse()) {
                st.fill.push((lanes, count));
            }
        }
        match key {
            "ldpc_served_frames_rejected_total" => st.rejected = value.parse().unwrap_or(0),
            "ldpc_served_latency_us{quantile=\"0.5\"}" => st.p50_us = value.parse().unwrap_or(0.0),
            "ldpc_served_latency_us{quantile=\"0.99\"}" => st.p99_us = value.parse().unwrap_or(0.0),
            _ => {}
        }
    }
    Ok(st)
}

/// Mean live lanes per dispatched word between two snapshots.
fn mean_fill(before: &Stats, after: &Stats) -> f64 {
    let count = |st: &Stats, lanes: usize| {
        st.fill
            .iter()
            .find(|&&(l, _)| l == lanes)
            .map_or(0, |&(_, c)| c)
    };
    let (mut words, mut lanes) = (0u64, 0u64);
    for &(l, _) in &after.fill {
        let d = count(after, l) - count(before, l);
        words += d;
        lanes += d * l as u64;
    }
    if words == 0 {
        return 0.0;
    }
    lanes as f64 / words as f64
}

/// The traced run: an untraced closed loop and a traced one of half the
/// time each, `STATS` around the traced loop, PING round trips, then the
/// protocol functions and a direct decode of words of the observed fill,
/// timed on the traced loop's payloads.
fn traced(
    s: &mut Setup,
    want: &[Expected],
    args: &RunArgs,
    m: &mut Measured,
    pool_tracer: Tracer,
) -> Result<(), String> {
    let half = args.seconds / 2;
    let untraced = closed_loop(s, want, half, false, None);
    let before = scrape(&mut s.clients[0])?;
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CONNECTIONS).map(|_| Tracer::new(origin)).collect();
    let st = closed_loop(s, want, half, false, Some(&mut tracers));
    let after = scrape(&mut s.clients[0])?;
    for run in [&untraced, &st] {
        m.attempted += run.ok + run.failed;
        m.failed += run.failed;
    }
    let loop_spans = trace::merge(&tracers);
    m.set("trace.uncovered_frac", trace::uncovered_frac(&loop_spans));
    m.set(
        "trace.overhead_frac",
        (untraced.ok as f64 / untraced.wall_s) / (st.ok as f64 / st.wall_s) - 1.0,
    );

    // Everything below replays work on the traced loop's payloads.
    let mut replay = Tracer::new(origin);
    for i in 0..PINGS as u64 {
        replay
            .span("socket.ping", None, i, || s.clients[0].ping())
            .map_err(|e| format!("PING: {e}"))?;
    }
    let n = s.code_handle.code().n();
    for (id, &idx) in st.sent.iter().enumerate() {
        let id = id as u64;
        let line = replay.span("protocol.encode", None, id, || {
            protocol::render_request(&Request::Decode {
                spec: SPEC.to_string(),
                payload: Payload::Llr8(s.pool[idx].clone()),
                encoding: Encoding::Base64,
            })
        });
        let llrs = replay.span(
            "protocol.parse",
            None,
            id,
            || match protocol::parse_request(&line) {
                Ok(Request::Decode {
                    payload: Payload::Llr8(q),
                    ..
                }) => protocol::llr8_to_f32(&q),
                _ => Vec::new(),
            },
        );
        let hard = &want[idx].result;
        let back = replay.span("protocol.reply", None, id, || {
            let frame = DecodedFrame {
                bits: protocol::pack_bits((0..n).map(|i| hard.hard_decision.get(i))),
                bit_len: n,
                iterations: hard.iterations,
                converged: hard.converged,
            };
            protocol::parse_response(&protocol::render_response(&Response::Decoded(frame)))
        });
        let round_trips = match back {
            Ok(Response::Decoded(f)) => same_frame(&f, &want[idx]),
            _ => false,
        };
        if llrs.len() != n || !round_trips {
            return Err("a replayed request or reply does not parse back".to_string());
        }
    }
    let totals = trace::totals_by_name(replay.spans());
    let requests = st.sent.len().max(1) as f64;
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e3) / requests;
    let (encode_us, parse_us, reply_us) = (
        mean_us("protocol.encode"),
        mean_us("protocol.parse"),
        mean_us("protocol.reply"),
    );

    let fill = mean_fill(&before, &after);
    let lanes = (fill.round() as usize).clamp(1, PACK_LANES);
    let mut packed = Scenario::parse(SPEC)
        .map_err(|e| e.to_string())?
        .decoder
        .build(s.code_handle.code());
    for w in 0..DECODE_WORDS {
        let llrs: Vec<f32> = (0..lanes)
            .flat_map(|j| protocol::llr8_to_f32(&s.pool[(w * lanes + j) % POOL]))
            .collect();
        replay.span("decoder", None, w as u64, || {
            std::hint::black_box(packed.decode_block(&llrs, MAX_ITERATIONS))
        });
    }
    let word_ms = median(&trace::durations_ms(replay.spans(), "decoder"));

    let pool_totals = trace::totals_by_name(pool_tracer.spans());
    let per_pool_frame_us = |name: &str| {
        pool_totals
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e3)
            / POOL as f64
    };
    m.set("channel.us_per_frame", per_pool_frame_us("channel"));
    m.set(
        "codespec.expand_us_per_frame",
        per_pool_frame_us("codespec.expand"),
    );
    m.set("decoder.us_per_frame", word_ms * 1e3 / lanes as f64);
    m.set("decoder.word_ms", word_ms);
    let answered = st.ok.max(1) as f64;
    m.set("decoder.converged_frac", st.converged as f64 / answered);
    decoder_work(
        m,
        st.iterations as f64 / answered,
        s.code_handle.code().graph().n_edges(),
    );
    m.set("protocol.encode_us_per_frame", encode_us);
    m.set("protocol.parse_us_per_frame", parse_us);
    m.set("protocol.reply_us_per_frame", reply_us);

    // Split of the client's median latency by layer: socket and
    // connection thread (PING round trip), protocol codecs, decode of a
    // word of the observed fill, and what remains — the coalescer's wait
    // for word-mates and a worker. STATS quantiles are histogram bucket
    // bounds (e.g. 10 ms for anything in 5–10 ms), so they are reported
    // but not subtracted.
    let client_p50 = percentile(&st.latencies_ms, 50.0);
    let socket_ms = median(&trace::durations_ms(replay.spans(), "socket.ping"));
    let protocol_ms = (encode_us + parse_us + reply_us) / 1e3;
    let wait_ms = client_p50 - socket_ms - protocol_ms - word_ms;
    m.set("coalesce.lane_fill", fill / PACK_LANES as f64);
    m.set("coalesce.server_p50_ms", after.p50_us / 1e3);
    m.set("coalesce.server_p99_ms", after.p99_us / 1e3);
    m.set("coalesce.socket_ms", socket_ms);
    m.set("coalesce.wait_ms", wait_ms);
    m.set("coalesce.client_overhead_ms", socket_ms + protocol_ms);
    m.set(
        "coalesce.rejected",
        (after.rejected - before.rejected) as f64,
    );
    eprintln!(
        "split of client p50 {client_p50:.3} ms: socket {socket_ms:.3} + protocol \
         {protocol_ms:.3} + decode of a {lanes}-lane word {word_ms:.3} + coalescer wait {wait_ms:.3}"
    );

    let mut all = vec![pool_tracer];
    all.extend(tracers);
    all.push(replay);
    m.spans = trace::merge(&all);
    Ok(())
}
