//! Subcommand implementations for `ldpc-tool`.
//!
//! Each command returns its output as a `String` so the logic is unit
//! testable; `main` only does I/O.

use crate::args::{ArgError, ParsedArgs};
use ldpc_channel::{ebn0_to_sigma, ChannelSpec};
use ldpc_core::codes::ccsds_c2;
use ldpc_core::{CodeSpec, DecoderSpec};
use ldpc_hwsim::{
    devices, plan, render_table, ArchConfig, CodeDims, PlannerRequest, ResourceEstimate,
    ThroughputModel,
};
use ldpc_sim::{
    run_point_scenario_with, run_sweep, split_spec_list, sweep_grid, MonteCarloConfig, Scenario,
    SweepConfig, SweepUnitResult, Transmission,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::path::PathBuf;

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns an error string suitable for printing to stderr.
pub fn run(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    // `simulate --help` must print usage, not run a simulation.
    if args.flag("help") {
        return Ok(help_text());
    }
    match args.command.as_str() {
        "help" => Ok(help_text()),
        "info" => cmd_info(args),
        "encode" => cmd_encode(args),
        "simulate" => cmd_simulate(args),
        "sweep" => cmd_sweep(args),
        "serve" => cmd_serve(args),
        "plan" => cmd_plan(args),
        "tables" => Ok(cmd_tables()),
        other => Err(ArgError::UnknownCommand(other.to_owned()).into()),
    }
}

/// The help text.
pub fn help_text() -> String {
    format!(
        "\
ldpc-tool — CCSDS near-earth LDPC decoder toolbox

USAGE: ldpc-tool <COMMAND> [OPTIONS]

COMMANDS:
  info                      print the C2 code parameters
  encode [--random|--zeros] [--seed N]
                            encode one 7154-bit frame; prints codeword bits
  simulate [--code SPEC|--demo|--c2] [--channel SPEC] [--decoder SPEC]
           [--ebn0 DB] [--frames N] [--iters N] [--threads N] [--seed N]
                            Monte-Carlo one scenario at one operating
                            point; prints CSV (--threads 0 = all cores)
  sweep --decoders SPEC,SPEC,... [--codes SPEC,...] [--channels SPEC,...]
        [--demo|--c2] [--ebn0s DB,DB,...] [--frames N] [--iters N]
        [--threads N] [--seed N]
                            grid sweep: one long-format CSV over every
                            code x channel x decoder x Eb/N0 combination,
                            all through the one Monte-Carlo engine; grid
                            points run in parallel (one worker each), so
                            the CSV does not depend on --threads
  sweep ... --adaptive [--target-errors K] [--chunk-frames N]
        [--resume] [--cache-dir DIR] [--json PATH]
                            adaptive sweep: chunks of every grid point are
                            work-stolen across all cores, and each point
                            runs until K frame errors (default 100; 0 =
                            run to the --frames cap, rounded up to whole
                            chunks). --resume caches finished chunks under
                            --cache-dir (default .ldpc-sweep-cache), so a
                            re-run simulates nothing and a larger budget
                            simulates only the extension; merged counts
                            are independent of --threads and of resuming.
                            --json PATH also writes machine-readable
                            results
  serve [--port N | --addr HOST:PORT] [--max-wait-us N] [--workers N]
        [--iters N] [--queue-frames N]
                            decode-as-a-service: newline-delimited TCP
                            protocol (see docs/scenarios.md recipe 12)
                            coalescing concurrent clients' frames into
                            full @pack/@batch/@bitslice words; a frame
                            waits at most --max-wait-us (default 500)
                            for word-mates. Drains gracefully on ctrl-c
                            / SIGTERM / a SHUTDOWN request. Default
                            127.0.0.1:7878
  plan --mbps X [--iters N] [--clock MHZ]
                            pick the cheapest architecture meeting a rate
  tables                    print the paper's Tables 1-3 from the models
  help                      this text

CODE SPECS (simulate --code / sweep --codes; default c2):
  families: {codes}
  examples: demo | c2 | ar4ja:r=1/2,k=1024 | shortened:c2,k=4096

CHANNEL SPECS (simulate --channel / sweep --channels; default awgn):
  families: {channels} — modifier @quant=B (B-bit LLR quantization)
  examples: awgn | bsc:0.02 | rayleigh | awgn@quant=5
            erasure:0.05 | burst:0.01,0.3,0.05 (Gilbert-Elliott
            good/bad crossover + switch probability; pair the loss
            channels with the peeling decoder)

DECODER SPECS (simulate --decoder / sweep --decoders):
  family[:param][@modifier...] — families: {families}
  examples: spa | nms:1.25 | oms:0.15 | fixed | layered:1.25
            gallager-b:t=2 | nms:1.25@batch=8 | gallager-b@bitslice
  modifiers: @batch=N (lockstep frame batching: ms, nms, oms, fixed)
             @bitslice (64 frames per u64 word: gallager-b)
             @pack=8 (the paper's 8 frames per memory word, as SWAR
             i8 lanes: fixed)

The full grammar and copy-pasteable recipes live in docs/scenarios.md.
",
        codes = CodeSpec::family_names().join(", "),
        channels = ChannelSpec::family_names().join(", "),
        families = DecoderSpec::family_names().join(", ")
    )
}

/// Resolves the single code spec of `simulate` from `--code SPEC` or the
/// `--demo` / `--c2` shorthand flags (default: the paper's C2 code).
fn resolve_code_spec(args: &ParsedArgs) -> Result<CodeSpec, Box<dyn Error>> {
    match args.get("code") {
        Some(raw) => {
            if args.flag("demo") || args.flag("c2") {
                return Err("--code conflicts with --demo/--c2; give just one".into());
            }
            Ok(raw.parse::<CodeSpec>()?)
        }
        None if args.flag("demo") => Ok(CodeSpec::Demo),
        None => Ok(CodeSpec::C2),
    }
}

fn cmd_info(_args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let code = ccsds_c2::code();
    let mut out = String::new();
    out.push_str(&format!("name        : {}\n", code.name()));
    out.push_str(&format!("n           : {}\n", code.n()));
    out.push_str(&format!(
        "checks      : {} (rank {})\n",
        code.n_checks(),
        code.rank()
    ));
    out.push_str(&format!("dimension   : {}\n", code.dimension()));
    out.push_str(&format!("info bits   : {}\n", ccsds_c2::K_INFO));
    out.push_str(&format!("rate        : {:.4}\n", code.rate()));
    out.push_str(&format!("edges       : {}\n", code.graph().n_edges()));
    out.push_str(&format!(
        "structure   : {}x{} circulants of {}, row weight 32, column weight 4\n",
        ccsds_c2::BLOCK_ROWS,
        ccsds_c2::BLOCK_COLS,
        ccsds_c2::CIRCULANT_SIZE
    ));
    Ok(out)
}

fn cmd_encode(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let seed: u64 = args.get_or("seed", 1u64)?;
    let info: Vec<u8> = if args.flag("zeros") {
        vec![0u8; ccsds_c2::K_INFO]
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..ccsds_c2::K_INFO)
            .map(|_| rng.gen_range(0..2u8))
            .collect()
    };
    let cw = ccsds_c2::encode_frame(&info)?;
    let mut out = String::with_capacity(cw.len() + 1);
    for i in 0..cw.len() {
        out.push(if cw.get(i) { '1' } else { '0' });
    }
    out.push('\n');
    Ok(out)
}

/// The shared Monte-Carlo configuration of `simulate` and `sweep`,
/// parsed from the common flags (`--frames/--iters/--seed/--threads`).
/// One definition, so a sweep row always reproduces a single-threaded
/// simulate run with the same flags at point index 0. `ebn0_db` is left
/// at 0.0 — the caller sets it (simulate) or the sweep grid derives it
/// per point (sweep). The frame default is sized to the smallest code in
/// play: 2000 frames for demo-only runs, 50 once a full-scale code is
/// involved.
fn mc_config_from_args(
    args: &ParsedArgs,
    codes: &[CodeSpec],
) -> Result<MonteCarloConfig, Box<dyn Error>> {
    let all_demo = codes.iter().all(|c| {
        matches!(
            c,
            CodeSpec::Demo
                | CodeSpec::Shortened {
                    base: ldpc_core::ShortenedBase::Demo,
                    ..
                }
        )
    });
    let default_frames = if all_demo { 2_000 } else { 50 };
    let frames: u64 = args.get_or("frames", default_frames)?;
    if frames == 0 {
        return Err(Box::new(ArgError::InvalidValue {
            option: "frames".into(),
            value: "0".into(),
        }));
    }
    Ok(MonteCarloConfig {
        ebn0_db: 0.0,
        max_frames: frames,
        target_frame_errors: 0,
        max_iterations: args.get_or("iters", 18u32)?,
        seed: args.get_or("seed", 0xC11u64)?,
        threads: args.get_or("threads", 0usize)?,
        transmission: Transmission::AllZero,
    })
}

fn cmd_simulate(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let channel = match args.get("channel") {
        Some(raw) => raw.parse::<ChannelSpec>()?,
        None => ChannelSpec::awgn(),
    };
    let scenario = Scenario {
        code: resolve_code_spec(args)?,
        channel,
        decoder: DecoderSpec::parse(args.get("decoder").unwrap_or("fixed"))?,
    };
    let cfg = MonteCarloConfig {
        ebn0_db: args.get_or("ebn0", 4.0)?,
        ..mc_config_from_args(args, std::slice::from_ref(&scenario.code))?
    };
    let code = scenario.build_code()?;
    check_ebn0(
        "ebn0",
        args.get("ebn0").unwrap_or("4.0"),
        cfg.ebn0_db,
        code.rate(),
    )?;
    let point = run_point_scenario_with(&code, &scenario, &cfg);
    Ok(format!(
        "{CSV_HEADER}\n{}\n",
        scenario_csv_row(&scenario, &point)
    ))
}

/// Rejects an Eb/N0 the channel cannot turn into a noise level, naming
/// the option and its raw value: a non-finite value (`nan`, `inf`), or
/// one whose σ at the code's rate is not finite (`-1e300` dB).
fn check_ebn0(option: &str, raw: &str, ebn0: f64, rate: f64) -> Result<(), String> {
    if !ebn0.is_finite() {
        return Err(format!(
            "invalid value {raw:?} for --{option}: Eb/N0 must be a finite number of dB"
        ));
    }
    if !ebn0_to_sigma(ebn0, rate).is_finite() {
        return Err(format!(
            "invalid value {raw:?} for --{option}: the channel noise level overflows \
             at code rate {rate:.4}"
        ));
    }
    Ok(())
}

/// `sweep`: every code × channel × decoder × Eb/N0 point through the
/// orchestrator (`ldpc_sim::run_sweep`), which runs grid points in
/// parallel and merges each point's counts independently of the thread
/// count.
///
/// Without `--adaptive` each point is one chunk of `--frames` frames
/// with no error target — the same engine call, seed included, as a
/// single-threaded `simulate` at that point — and the CSV has the 8
/// shared columns. `--adaptive` chunks every point, stops each at
/// `--target-errors`, and with `--resume` / `--cache-dir` keeps a
/// content-addressed chunk cache that makes re-runs incremental; its
/// rows extend the 8 columns (identical prefix, pinned by tests) with
/// the error count, the Wilson 95 % PER interval, and the stop rule.
/// `--json PATH` additionally writes the machine-readable result set.
fn cmd_sweep(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let decoders: Vec<DecoderSpec> = split_spec_list(
        args.get("decoders")
            .ok_or("sweep requires --decoders <spec,spec,...> (try `ldpc-tool help`)")?,
    )
    .iter()
    .map(|s| DecoderSpec::parse(s).map_err(Box::<dyn Error>::from))
    .collect::<Result<_, _>>()?;
    let codes: Vec<CodeSpec> = match args.get("codes") {
        Some(list) => {
            if args.flag("demo") || args.flag("c2") {
                return Err("--codes conflicts with --demo/--c2; give just one".into());
            }
            split_spec_list(list)
                .iter()
                .map(|s| s.parse().map_err(Box::<dyn Error>::from))
                .collect::<Result<_, _>>()?
        }
        None => vec![resolve_code_spec(args)?],
    };
    let channels: Vec<ChannelSpec> = match args.get("channels") {
        Some(list) => split_spec_list(list)
            .iter()
            .map(|s| s.parse().map_err(Box::<dyn Error>::from))
            .collect::<Result<_, _>>()?,
        None => vec![ChannelSpec::awgn()],
    };
    let (ebn0_option, ebn0_raw): (&str, Vec<&str>) = match args.get("ebn0s") {
        Some(list) => ("ebn0s", list.split(',').collect()),
        None => ("ebn0", vec![args.get("ebn0").unwrap_or("4.0")]),
    };
    let ebn0s: Vec<f64> = ebn0_raw
        .iter()
        .map(|v| {
            v.trim().parse().map_err(|_| ArgError::InvalidValue {
                option: ebn0_option.into(),
                value: (*v).into(),
            })
        })
        .collect::<Result<_, _>>()?;
    // Every point is checked before any worker starts: a worker that
    // panics on a bad noise level would leave the others waiting.
    for code in &codes {
        let rate = code.build()?.rate();
        for (raw, &ebn0) in ebn0_raw.iter().zip(&ebn0s) {
            check_ebn0(ebn0_option, raw, ebn0, rate)?;
        }
    }
    let base = mc_config_from_args(args, &codes)?;
    let adaptive = args.flag("adaptive") || args.flag("resume");
    if !adaptive {
        for opt in ["target-errors", "chunk-frames", "cache-dir", "json"] {
            if args.get(opt).is_some() {
                return Err(format!(
                    "--{opt} applies to the adaptive sweep; add --adaptive (or --resume)"
                )
                .into());
            }
        }
    }
    // Without --adaptive every point is one chunk of --frames frames with
    // no error target.
    let (default_target, default_chunk) = if adaptive {
        (100, 1_000)
    } else {
        (0, base.max_frames)
    };
    let chunk_frames: u64 = args.get_or("chunk-frames", default_chunk)?;
    if chunk_frames == 0 {
        return Err(Box::new(ArgError::InvalidValue {
            option: "chunk-frames".into(),
            value: "0".into(),
        }));
    }
    let cfg = SweepConfig {
        max_frames: base.max_frames,
        target_frame_errors: args.get_or("target-errors", default_target)?,
        chunk_frames,
        max_iterations: base.max_iterations,
        threads: base.threads,
        cache_dir: match args.get("cache-dir") {
            Some(path) => Some(PathBuf::from(path)),
            None if args.flag("resume") => Some(PathBuf::from(".ldpc-sweep-cache")),
            None => None,
        },
        progress_frames: None,
    };
    let mut scenarios = Vec::with_capacity(codes.len() * channels.len() * decoders.len());
    for code in &codes {
        for channel in &channels {
            for decoder in &decoders {
                scenarios.push(Scenario {
                    code: *code,
                    channel: *channel,
                    decoder: decoder.clone(),
                });
            }
        }
    }
    let units = sweep_grid(&scenarios, &ebn0s, base.seed);
    let started = std::time::Instant::now();
    let results = run_sweep(&units, &cfg)?;
    let mut out = format!(
        "{}\n",
        if adaptive {
            ADAPTIVE_CSV_HEADER
        } else {
            CSV_HEADER
        }
    );
    for result in &results {
        if adaptive {
            out.push_str(&adaptive_csv_row(result));
        } else {
            out.push_str(&scenario_csv_row(&result.scenario, &result.point));
        }
        out.push('\n');
    }
    if let Some(path) = args.get("json") {
        std::fs::write(path, sweep_json(&results, &cfg))
            .map_err(|e| format!("writing --json {path}: {e}"))?;
    }
    let simulated: u64 = results.iter().map(|r| r.frames_simulated).sum();
    let cached: u64 = results.iter().map(|r| r.frames_from_cache).sum();
    // Progress/accounting goes to stderr so stdout stays exactly the CSV
    // (and a warm re-run stays byte-identical to the cold one).
    eprintln!(
        "sweep: {} point(s), {simulated} frame(s) simulated, {cached} from cache, {:.2}s",
        results.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(out)
}

/// The CSV header shared by `simulate` and `sweep`.
const CSV_HEADER: &str = "code,channel,decoder,ebn0_db,frames,ber,per,avg_iterations";

/// Renders one CSV field, quoting per RFC 4180 when the value contains
/// a comma (a `shortened:c2,k=4096` code spec), a quote, or a CR/LF —
/// an embedded line break would otherwise split one record in two — so
/// every row keeps exactly the header's field count under any standard
/// CSV reader.
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\r', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// One CSV data row shared by `simulate` and `sweep`: the code, channel,
/// and decoder columns are canonical spec strings, so `nms:1.25` and
/// `nms:1.0` (or `bsc:0.02` and `bsc:0.1`) never collapse into the same
/// label, and any row can be re-run by pasting its first three columns
/// (unquoted) into `simulate --code/--channel/--decoder`.
fn scenario_csv_row(scenario: &Scenario, point: &ldpc_sim::PointResult) -> String {
    format!(
        "{},{},{},{:.3},{},{:.6e},{:.6e},{:.2}",
        csv_field(&scenario.code.to_string()),
        csv_field(&scenario.channel.to_string()),
        csv_field(&scenario.decoder.to_string()),
        point.ebn0_db,
        point.frames,
        point.ber(),
        point.per(),
        point.avg_iterations()
    )
}

/// The adaptive sweep's CSV header: the shared 8 columns (same order,
/// same formats) extended with the raw error count, the Wilson 95 % PER
/// interval, and which rule stopped the point. Every column is a
/// function of the *merged* counts — invariant under thread count and
/// under cold/warm/resumed execution — so a warm re-run's CSV is
/// byte-identical to the cold one. The per-run resume accounting
/// (frames simulated vs adopted from cache) is provenance, not result:
/// it goes to the `--json` file and the stderr summary instead.
const ADAPTIVE_CSV_HEADER: &str = "code,channel,decoder,ebn0_db,frames,ber,per,avg_iterations,\
                                   frame_errors,per_lo,per_hi,stopped_by";

/// One adaptive-sweep CSV row. Built on [`scenario_csv_row`], so the
/// first eight columns are byte-identical to what the non-adaptive
/// sweep prints for the same merged counts (pinned by tests).
fn adaptive_csv_row(result: &SweepUnitResult) -> String {
    let (per_lo, per_hi) = result.point.per_confidence();
    format!(
        "{},{},{per_lo:.6e},{per_hi:.6e},{}",
        scenario_csv_row(&result.scenario, &result.point),
        result.point.frame_errors,
        if result.hit_target { "target" } else { "cap" }
    )
}

/// Escapes a string for a JSON literal (spec strings are plain ASCII,
/// but the writer must not be the component that trusts that).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a rate for JSON: a finite value in exponent notation, `null`
/// when undefined (a zero-frame point).
fn json_rate(x: f64) -> String {
    if x.is_nan() {
        "null".to_string()
    } else {
        format!("{x:.6e}")
    }
}

/// The machine-readable result set written by `sweep --json PATH`.
/// Deliberately excludes wall time so that a warm re-run produces
/// byte-identical JSON except for the resume accounting —
/// `total_frames_simulated` is the field CI greps to assert a warm cache
/// simulated nothing.
fn sweep_json(results: &[SweepUnitResult], cfg: &SweepConfig) -> String {
    let mut json = String::from("{\n  \"tool\": \"ldpc-tool sweep\",\n  \"adaptive\": true,\n");
    json.push_str(&format!(
        "  \"target_frame_errors\": {},\n  \"chunk_frames\": {},\n  \"max_frames\": {},\n",
        cfg.target_frame_errors, cfg.chunk_frames, cfg.max_frames
    ));
    let simulated: u64 = results.iter().map(|r| r.frames_simulated).sum();
    let cached: u64 = results.iter().map(|r| r.frames_from_cache).sum();
    json.push_str(&format!(
        "  \"total_frames_simulated\": {simulated},\n  \"total_frames_from_cache\": {cached},\n"
    ));
    json.push_str("  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let (per_lo, per_hi) = r.point.per_confidence();
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"ebn0_db\": {:?}, \"frames\": {}, \
             \"bit_errors\": {}, \"frame_errors\": {}, \"undetected_frame_errors\": {}, \
             \"total_iterations\": {}, \"ber\": {}, \"per\": {}, \
             \"per_lo\": {per_lo:.6e}, \"per_hi\": {per_hi:.6e}, \
             \"frames_simulated\": {}, \"frames_from_cache\": {}, \"chunks_merged\": {}, \
             \"effective_max_frames\": {}, \"hit_target\": {}}}{}\n",
            json_escape(&r.scenario.to_string()),
            r.ebn0_db,
            r.point.frames,
            r.point.bit_errors,
            r.point.frame_errors,
            r.point.undetected_frame_errors,
            r.point.total_iterations,
            json_rate(r.point.ber()),
            json_rate(r.point.per()),
            r.frames_simulated,
            r.frames_from_cache,
            r.chunks_merged,
            r.effective_max_frames,
            r.hit_target,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn cmd_plan(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let mbps: f64 = args
        .get("mbps")
        .ok_or("plan requires --mbps")?
        .parse()
        .map_err(|_| "invalid --mbps value")?;
    let iters: u32 = args.get_or("iters", 18u32)?;
    let clock: f64 = args.get_or("clock", 200.0)?;
    let request = PlannerRequest {
        min_info_mbps: mbps,
        iterations: iters,
        clock_mhz: clock,
    };
    match plan(&request, &CodeDims::ccsds_c2()) {
        None => Ok(format!(
            "no swept configuration reaches {mbps} Mbps at {iters} iterations / {clock} MHz\n"
        )),
        Some(choice) => Ok(format!(
            "config : {}\nrate   : {:.1} Mbps info at {iters} iterations\ndevice : {} {} ({})\n",
            choice.config,
            choice.info_mbps,
            choice.device.family,
            choice.device.name,
            choice.device.utilization(&choice.estimate),
        )),
    }
}

/// `serve`: run the decode-as-a-service front end until a shutdown
/// signal (SIGINT/SIGTERM), a client `SHUTDOWN` request, or a fatal
/// bind error. Returns the run summary once the drain completes.
fn cmd_serve(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let addr = match args.get("addr") {
        Some(a) => {
            if args.get("port").is_some() {
                return Err("--addr conflicts with --port; give just one".into());
            }
            a.to_string()
        }
        None => format!("127.0.0.1:{}", args.get_or("port", 7878u16)?),
    };
    let cfg = ldpc_served::ServeConfig {
        addr: addr.clone(),
        max_wait: std::time::Duration::from_micros(args.get_or("max-wait-us", 500u64)?),
        workers: args.get_or("workers", 0usize)?,
        max_iterations: args.get_or("iters", 18u32)?,
        queue_frames: args.get_or("queue-frames", 1024usize)?,
    };
    // A clean one-line error — an occupied port must not panic.
    let server = ldpc_served::Server::bind(cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let handle = server.handle();
    eprintln!(
        "ldpc-tool serve: listening on {} (ctrl-c, SIGTERM, or a SHUTDOWN request drains and exits)",
        handle.addr()
    );

    // SIGINT/SIGTERM handlers only set a flag; this watcher turns the
    // flag into a graceful drain (a blocked accept() is not interrupted
    // by the signal — see ldpc_served::signals).
    let flag = ldpc_served::shutdown_flag();
    let watcher_handle = handle.clone();
    let watcher = std::thread::spawn(move || {
        while !watcher_handle.stopped() {
            if flag.load(std::sync::atomic::Ordering::SeqCst) {
                watcher_handle.shutdown();
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    });
    let summary = server.run();
    let _ = watcher.join();
    Ok(format!("{summary}\n"))
}

fn cmd_tables() -> String {
    let dims = CodeDims::ccsds_c2();
    let mut out = String::new();
    let lc = ThroughputModel::new(ArchConfig::low_cost(), dims);
    let hs = ThroughputModel::new(ArchConfig::high_speed(), dims);
    let rows: Vec<Vec<String>> = [10u32, 18, 50]
        .iter()
        .map(|&it| {
            vec![
                it.to_string(),
                format!("{:.0} Mbps", lc.info_throughput_mbps(it)),
                format!("{:.0} Mbps", hs.info_throughput_mbps(it)),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Table 1 — output throughput at 200 MHz",
        &["iterations", "low-cost", "high-speed"],
        &rows,
    ));
    for cfg in [ArchConfig::low_cost(), ArchConfig::high_speed()] {
        let est = ResourceEstimate::new(&cfg, &dims);
        out.push_str(&format!("\n{} decoder: {est}\n", cfg.name));
        for dev in devices() {
            if dev.fits(&est) {
                out.push_str(&format!(
                    "  fits {} {} ({})\n",
                    dev.family,
                    dev.name,
                    dev.utilization(&est)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(words: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    /// Parses and runs a command line that must fail, returning the
    /// message of whichever stage rejects it.
    fn error_of(words: &[&str]) -> String {
        match ParsedArgs::parse(words.iter().map(|s| s.to_string())) {
            Err(e) => e.to_string(),
            Ok(args) => run(&args).unwrap_err().to_string(),
        }
    }

    #[test]
    fn help_lists_all_commands() {
        let h = help_text();
        for cmd in [
            "info", "encode", "simulate", "sweep", "serve", "plan", "tables",
        ] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
        // The spec grammar is part of the contract: every family and
        // every modifier shows up.
        for family in DecoderSpec::family_names() {
            assert!(h.contains(family), "help missing family {family}");
        }
        for modifier in ["@batch=N", "@bitslice", "@pack=8"] {
            assert!(h.contains(modifier), "help missing modifier {modifier}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(error_of(&["frobnicate"]).contains("unknown command"));
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        // A typo or a retired flag must fail, never fall back to a
        // default (`--ebno 3` would otherwise run the default 4 dB point).
        for command in [
            &["simulate", "--demo"][..],
            &["sweep", "--demo", "--decoders", "fixed"],
        ] {
            for extra in [&["--ebno", "3"][..], &["--batch", "8"], &["--hard"]] {
                let words = [command, extra].concat();
                let err = error_of(&words);
                assert!(
                    err.contains(&format!("unknown option {}", extra[0])),
                    "{words:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn simulate_threshold_requires_hard() {
        // A forgotten --hard must not silently run the soft decoder: the
        // retired --threshold fails, pointing at --decoder, where the
        // threshold now lives (gallager-b:t=N).
        let err = error_of(&["simulate", "--demo", "--threshold", "5"]);
        assert!(err.contains("unknown option --threshold"), "{err}");
        assert!(err.contains("--decoder"), "{err}");
    }

    #[test]
    fn simulate_hard_rejects_decoder_and_batch() {
        // Neither combination may silently drop one of the two requests.
        for words in [
            &["simulate", "--demo", "--hard", "--decoder", "nms"][..],
            &["simulate", "--demo", "--hard", "--batch", "8"],
        ] {
            let err = error_of(words);
            assert!(err.contains("unknown option --hard"), "{words:?}: {err}");
        }
        let err = error_of(&["simulate", "--demo", "--decoder", "nms", "--batch", "8"]);
        assert!(err.contains("unknown option --batch"), "{err}");
    }

    #[test]
    fn sweep_rejects_legacy_decoder_flags() {
        // sweep must not silently ignore a decoder flag and run a
        // different decoder than asked; every message points at
        // --decoders.
        for extra in [
            &["--hard"][..],
            &["--bitslice"],
            &["--threshold", "2"],
            &["--batch", "8"],
            &["--decoder", "nms:1.25"],
        ] {
            let words = [&["sweep", "--demo", "--decoders", "gallager-b"][..], extra].concat();
            let err = error_of(&words);
            assert!(
                err.contains(&format!("unknown option {}", extra[0])),
                "{extra:?}: {err}"
            );
            assert!(err.contains("--decoders"), "{extra:?}: {err}");
        }
    }

    #[test]
    fn serve_bind_failure_is_a_clean_error_not_a_panic() {
        // Hold the port open so the serve bind must fail.
        let occupied = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = occupied.local_addr().unwrap().port().to_string();
        let err = run(&parsed(&["serve", "--port", &port])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cannot bind"), "{msg}");
        assert!(msg.contains(&port), "{msg}");
    }

    #[test]
    fn serve_option_errors_are_clean() {
        let err = run(&parsed(&[
            "serve",
            "--addr",
            "127.0.0.1:1",
            "--port",
            "7878",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("conflicts"), "{err}");
        let err = run(&parsed(&["serve", "--max-wait-us", "soon"])).unwrap_err();
        assert!(err.to_string().contains("invalid value"), "{err}");
        let err = run(&parsed(&["serve", "--port", "notaport"])).unwrap_err();
        assert!(err.to_string().contains("invalid value"), "{err}");
    }

    #[test]
    fn info_reports_c2_parameters() {
        let out = run(&parsed(&["info"])).unwrap();
        assert!(out.contains("8176"));
        assert!(out.contains("7156"));
        assert!(out.contains("7154"));
    }

    #[test]
    fn encode_zeros_gives_zero_codeword() {
        let out = run(&parsed(&["encode", "--zeros"])).unwrap();
        let line = out.trim();
        assert_eq!(line.len(), 8176);
        assert!(line.chars().all(|c| c == '0'));
    }

    #[test]
    fn encode_random_is_seeded_and_valid() {
        let a = run(&parsed(&["encode", "--seed", "5"])).unwrap();
        let b = run(&parsed(&["encode", "--seed", "5"])).unwrap();
        let c = run(&parsed(&["encode", "--seed", "6"])).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bits: Vec<u8> = a.trim().bytes().map(|b| b - b'0').collect();
        let cw = gf2::BitVec::from_bits(&bits);
        assert!(ccsds_c2::code().is_codeword(&cw));
    }

    #[test]
    fn simulate_demo_produces_csv() {
        let out = run(&parsed(&[
            "simulate", "--demo", "--ebn0", "6.0", "--frames", "100", "--iters", "10",
        ]))
        .unwrap();
        assert!(out.starts_with("code,channel,decoder"));
        let data = out.lines().nth(1).unwrap();
        assert!(data.starts_with("demo,awgn,fixed,6.000,100,"));
    }

    #[test]
    fn simulate_batched_matches_per_frame_counts() {
        // One worker so the per-frame and batched runs draw identical
        // noise; bit-exact batched decoding then makes the whole CSV
        // byte-identical up to the decoder label.
        let simulate = |decoder: &str| {
            run(&parsed(&[
                "simulate",
                "--demo",
                "--decoder",
                decoder,
                "--ebn0",
                "3.0",
                "--frames",
                "64",
                "--iters",
                "12",
                "--seed",
                "9",
                "--threads",
                "1",
            ]))
            .unwrap()
        };
        let per_frame = simulate("fixed");
        let batched = simulate("fixed@batch=8");
        assert!(batched
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("demo,awgn,fixed@batch=8,3.000,64,"));
        assert_eq!(per_frame.replace(",fixed,", ",fixed@batch=8,"), batched);
    }

    #[test]
    fn simulate_batched_nms_works() {
        let out = run(&parsed(&[
            "simulate",
            "--demo",
            "--decoder",
            "nms@batch=4",
            "--frames",
            "32",
            "--ebn0",
            "5.0",
        ]))
        .unwrap();
        assert!(out
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("demo,awgn,nms@batch=4,5.000,32,"));
    }

    #[test]
    fn simulate_hard_bitslice_matches_scalar_hard_counts() {
        // One worker: scalar Gallager-B and the 64-wide bit-sliced run
        // draw identical noise and decode bit-exactly per lane, so the
        // CSV differs only in the decoder column.
        let simulate = |decoder: &str| {
            run(&parsed(&[
                "simulate",
                "--demo",
                "--decoder",
                decoder,
                "--ebn0",
                "5.0",
                "--frames",
                "96",
                "--iters",
                "20",
                "--seed",
                "4",
                "--threads",
                "1",
            ]))
            .unwrap()
        };
        let scalar = simulate("gallager-b:t=3");
        let sliced = simulate("gallager-b:t=3@bitslice");
        assert!(scalar
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("demo,awgn,gallager-b,5.000,96,"));
        assert_eq!(
            scalar.replace(",gallager-b,", ",gallager-b@bitslice,"),
            sliced,
            "bit-sliced counts diverged from scalar Gallager-B"
        );
    }

    #[test]
    fn simulate_bitslice_requires_hard() {
        // @bitslice packs the hard-decision family only.
        let err = error_of(&["simulate", "--demo", "--decoder", "nms@bitslice"]);
        assert!(err.contains("gallager-b"), "{err}");
    }

    #[test]
    fn simulate_hard_rejects_zero_threshold() {
        let err = error_of(&["simulate", "--demo", "--decoder", "gallager-b:t=0"]);
        assert!(err.contains("threshold"), "{err}");
    }

    #[test]
    fn simulate_rejects_zero_batch() {
        let err = error_of(&["simulate", "--demo", "--decoder", "fixed@batch=0"]);
        assert!(err.contains("batch"), "{err}");
    }

    #[test]
    fn simulate_rejects_batched_spa() {
        let err = error_of(&["simulate", "--demo", "--decoder", "spa@batch=8"]);
        assert!(err.contains("spa"), "{err}");
    }

    #[test]
    fn simulate_rejects_unknown_decoder() {
        let err = run(&parsed(&["simulate", "--demo", "--decoder", "magic"])).unwrap_err();
        assert!(err.to_string().contains("decoder"));
    }

    #[test]
    fn simulate_accepts_every_registered_family() {
        for spec in DecoderSpec::all_families() {
            let out = run(&parsed(&[
                "simulate",
                "--demo",
                "--decoder",
                &spec.to_string(),
                "--frames",
                "8",
                "--ebn0",
                "6.0",
                "--iters",
                "5",
            ]))
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(
                out.lines()
                    .nth(1)
                    .unwrap()
                    .starts_with(&format!("demo,awgn,{spec},6.000,8,")),
                "{spec}: {out}"
            );
        }
    }

    #[test]
    fn simulate_decoder_label_keeps_parameters() {
        // nms:1.25 and nms:1.0 must not collapse into the same CSV label.
        let out = run(&parsed(&[
            "simulate",
            "--demo",
            "--decoder",
            "nms:1.25",
            "--frames",
            "8",
            "--iters",
            "5",
        ]))
        .unwrap();
        assert!(out
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("demo,awgn,nms:1.25,"));
    }

    #[test]
    fn sweep_emits_one_csv_across_families_and_points() {
        let out = run(&parsed(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25,fixed@batch=8,gallager-b@bitslice",
            "--ebn0s",
            "4.0,6.0",
            "--frames",
            "16",
            "--iters",
            "5",
            "--threads",
            "1",
        ]))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "code,channel,decoder,ebn0_db,frames,ber,per,avg_iterations"
        );
        assert_eq!(lines.len(), 1 + 3 * 2, "one row per (decoder, ebn0)");
        assert!(lines[1].starts_with("demo,awgn,nms:1.25,4.000,16,"));
        assert!(lines[2].starts_with("demo,awgn,nms:1.25,6.000,16,"));
        assert!(lines[3].starts_with("demo,awgn,fixed@batch=8,4.000,16,"));
        assert!(lines[5].starts_with("demo,awgn,gallager-b@bitslice,4.000,16,"));
    }

    #[test]
    fn sweep_first_point_matches_simulate_counts() {
        // Same seed derivation at point index 0: sweep rows reproduce a
        // plain simulate run exactly.
        let shared = [
            "--demo",
            "--frames",
            "32",
            "--iters",
            "8",
            "--seed",
            "5",
            "--threads",
            "1",
        ];
        let mut sim_args = vec!["simulate", "--decoder", "nms:1.25"];
        sim_args.extend(shared);
        let mut sweep_args = vec!["sweep", "--decoders", "nms:1.25"];
        sweep_args.extend(shared);
        assert_eq!(
            run(&parsed(&sim_args)).unwrap(),
            run(&parsed(&sweep_args)).unwrap()
        );
    }

    #[test]
    fn simulate_and_sweep_reject_zero_frames() {
        for cmd in [
            vec!["simulate", "--demo", "--frames", "0"],
            vec!["sweep", "--demo", "--decoders", "spa", "--frames", "0"],
        ] {
            let err = run(&parsed(&cmd)).unwrap_err();
            assert!(err.to_string().contains("frames"), "{err}");
        }
    }

    #[test]
    fn sweep_csv_is_independent_of_thread_count() {
        // Grid points run in parallel, each as one single-threaded
        // engine call, so the CSV cannot depend on --threads.
        let sweep = |threads: &str| {
            run(&parsed(&[
                "sweep",
                "--demo",
                "--channels",
                "awgn,bsc:0.03",
                "--decoders",
                "nms:1.25,fixed",
                "--ebn0s",
                "2,3",
                "--frames",
                "60",
                "--iters",
                "8",
                "--threads",
                threads,
            ]))
            .unwrap()
        };
        assert_eq!(sweep("1"), sweep("3"));
    }

    #[test]
    fn sweep_requires_decoders() {
        let err = run(&parsed(&["sweep", "--demo"])).unwrap_err();
        assert!(err.to_string().contains("--decoders"));
    }

    #[test]
    fn sweep_rejects_bad_spec_with_actionable_message() {
        let err = run(&parsed(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25,magic",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("known families"), "{err}");
    }

    #[test]
    fn spec_lists_reattach_parameter_continuations() {
        assert_eq!(
            split_spec_list("demo,ar4ja:r=2/3,k=1024,shortened:c2,k=4096"),
            vec!["demo", "ar4ja:r=2/3,k=1024", "shortened:c2,k=4096"]
        );
        assert_eq!(
            split_spec_list("nms:1.25,gallager-b:t=2@bitslice,fixed@batch=8"),
            vec!["nms:1.25", "gallager-b:t=2@bitslice", "fixed@batch=8"]
        );
        assert_eq!(
            split_spec_list("awgn@quant=5,bsc:0.02"),
            vec!["awgn@quant=5", "bsc:0.02"]
        );
    }

    #[test]
    fn sweep_grid_emits_one_row_per_combination() {
        // The acceptance-criterion grid, demo-sized: codes x channels x
        // decoders x points, canonical spec strings in the first three
        // columns.
        let out = run(&parsed(&[
            "sweep",
            "--codes",
            "demo,shortened:demo,k=120",
            "--channels",
            "awgn,bsc:0.02",
            "--decoders",
            "ms,nms:1.25",
            "--ebn0s",
            "3,4",
            "--frames",
            "16",
            "--iters",
            "5",
            "--threads",
            "1",
        ]))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "code,channel,decoder,ebn0_db,frames,ber,per,avg_iterations"
        );
        assert_eq!(
            lines.len(),
            1 + 2 * 2 * 2 * 2,
            "2 codes x 2 channels x 2 decoders x 2 points"
        );
        assert!(lines[1].starts_with("demo,awgn,ms,3.000,16,"));
        assert!(lines[2].starts_with("demo,awgn,ms,4.000,16,"));
        assert!(lines[3].starts_with("demo,awgn,nms:1.25,3.000,16,"));
        assert!(lines[5].starts_with("demo,bsc:0.02,ms,3.000,16,"));
        // A comma-containing code spec is RFC 4180-quoted, so the row
        // keeps the header's field count.
        assert!(lines[9].starts_with("\"shortened:demo,k=120\",awgn,ms,3.000,16,"));
        // Every data row's first columns are canonical: re-parsing and
        // re-rendering them is the identity.
        for line in &lines[1..] {
            let (code_str, rest) = if let Some(quoted) = line.strip_prefix('"') {
                let (code_str, rest) = quoted.split_once('"').expect("closing quote");
                (code_str, rest.strip_prefix(',').expect("field separator"))
            } else {
                line.split_once(',').unwrap()
            };
            let fields: Vec<&str> = rest.split(',').collect();
            assert_eq!(fields.len(), 7, "{line}: field count after code");
            assert_eq!(
                CodeSpec::parse(code_str).unwrap().to_string(),
                code_str,
                "{line}"
            );
            assert_eq!(
                ChannelSpec::parse(fields[0]).unwrap().to_string(),
                fields[0],
                "{line}"
            );
            assert_eq!(
                DecoderSpec::parse(fields[1]).unwrap().to_string(),
                fields[1],
                "{line}"
            );
        }
    }

    #[test]
    fn sweep_rejects_codes_with_demo_flag() {
        let err = run(&parsed(&[
            "sweep",
            "--demo",
            "--codes",
            "c2",
            "--decoders",
            "ms",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--demo"), "{err}");
    }

    #[test]
    fn sweep_row_reproduces_simulate_with_matching_flags() {
        let shared = [
            "--frames",
            "24",
            "--iters",
            "6",
            "--seed",
            "5",
            "--threads",
            "1",
        ];
        let mut sim = vec![
            "simulate",
            "--demo",
            "--channel",
            "bsc:0.02",
            "--decoder",
            "nms:1.25",
        ];
        sim.extend(shared);
        let mut sweep = vec![
            "sweep",
            "--demo",
            "--channels",
            "bsc:0.02",
            "--decoders",
            "nms:1.25",
        ];
        sweep.extend(shared);
        assert_eq!(run(&parsed(&sim)).unwrap(), run(&parsed(&sweep)).unwrap());
    }

    #[test]
    fn simulate_channel_column_defaults_to_awgn_and_tracks_spec() {
        let out = run(&parsed(&[
            "simulate",
            "--demo",
            "--channel",
            "rayleigh",
            "--frames",
            "8",
            "--iters",
            "5",
        ]))
        .unwrap();
        assert!(out.lines().nth(1).unwrap().starts_with("demo,rayleigh,"));
    }

    #[test]
    fn simulate_rejects_conflicting_code_selectors() {
        let err = error_of(&["simulate", "--demo", "--code", "c2"]);
        assert!(err.contains("--demo"), "{err}");
        let err = error_of(&["simulate", "--codes", "demo"]);
        assert!(err.contains("sweep"), "{err}");
        let err = error_of(&["sweep", "--decoders", "ms", "--channel", "bsc:0.02"]);
        assert!(err.contains("--channels"), "{err}");
    }

    #[test]
    fn simulate_rejects_unknown_code_and_channel_specs() {
        let err = run(&parsed(&["simulate", "--code", "zeta"])).unwrap_err();
        assert!(err.to_string().contains("known families"), "{err}");
        let err = run(&parsed(&["simulate", "--demo", "--channel", "zeta"])).unwrap_err();
        assert!(err.to_string().contains("known models"), "{err}");
    }

    #[test]
    fn csv_field_quotes_commas_quotes_and_line_breaks() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
        // RFC 4180: an unquoted CR or LF would split one record in two.
        assert_eq!(csv_field("a\nb"), "\"a\nb\"");
        assert_eq!(csv_field("a\r\nb"), "\"a\r\nb\"");
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ldpc-cli-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn adaptive_sweep_extends_the_legacy_rows_exactly() {
        // With the target disabled and a whole-budget chunk, the adaptive
        // path runs the very same engine calls as the plain sweep: its
        // rows must be the plain rows plus the new columns.
        let shared = [
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25,fixed",
            "--ebn0s",
            "4.0,6.0",
            "--frames",
            "24",
            "--iters",
            "6",
            "--threads",
            "1",
            "--seed",
            "5",
        ];
        let legacy = run(&parsed(&shared)).unwrap();
        let mut adaptive_args = shared.to_vec();
        adaptive_args.extend(["--adaptive", "--target-errors", "0", "--chunk-frames", "24"]);
        let adaptive = run(&parsed(&adaptive_args)).unwrap();
        let legacy_lines: Vec<&str> = legacy.lines().collect();
        let adaptive_lines: Vec<&str> = adaptive.lines().collect();
        assert_eq!(adaptive_lines[0], ADAPTIVE_CSV_HEADER);
        assert!(ADAPTIVE_CSV_HEADER.starts_with(CSV_HEADER));
        assert_eq!(legacy_lines.len(), adaptive_lines.len());
        for (legacy_row, adaptive_row) in legacy_lines.iter().zip(&adaptive_lines).skip(1) {
            assert!(
                adaptive_row.starts_with(*legacy_row),
                "adaptive row {adaptive_row:?} does not extend {legacy_row:?}"
            );
            assert!(adaptive_row.ends_with(",cap"), "{adaptive_row}");
        }
        // Determinism: the adaptive path is as reproducible as the engine.
        assert_eq!(adaptive, run(&parsed(&adaptive_args)).unwrap());
    }

    #[test]
    fn adaptive_sweep_stops_on_target() {
        // At -4 dB every demo frame errors, so one 20-frame chunk covers
        // a target of 3.
        let out = run(&parsed(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25",
            "--ebn0s",
            "-4.0",
            "--frames",
            "200",
            "--chunk-frames",
            "20",
            "--target-errors",
            "3",
            "--iters",
            "6",
            "--threads",
            "1",
            "--adaptive",
        ]))
        .unwrap();
        let row = out.lines().nth(1).unwrap();
        assert!(row.starts_with("demo,awgn,nms:1.25,-4.000,20,"), "{row}");
        assert!(row.ends_with(",target"), "{row}");
    }

    #[test]
    fn adaptive_resume_rerun_is_byte_identical_with_zero_frames_simulated() {
        let cache = temp_path("resume-cache");
        let json = temp_path("resume.json");
        let _ = std::fs::remove_dir_all(&cache);
        let cache_s = cache.to_str().unwrap().to_owned();
        let json_s = json.to_str().unwrap().to_owned();
        let args = [
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25",
            "--ebn0s",
            "2.0,4.0",
            "--frames",
            "60",
            "--chunk-frames",
            "30",
            "--target-errors",
            "0",
            "--iters",
            "6",
            "--threads",
            "1",
            "--resume",
            "--cache-dir",
            &cache_s,
            "--json",
            &json_s,
        ];
        let cold = run(&parsed(&args)).unwrap();
        let cold_json = std::fs::read_to_string(&json).unwrap();
        assert!(
            cold_json.contains("\"total_frames_simulated\": 120"),
            "{cold_json}"
        );
        let warm = run(&parsed(&args)).unwrap();
        let warm_json = std::fs::read_to_string(&json).unwrap();
        assert_eq!(cold, warm, "warm CSV must be byte-identical");
        assert!(
            warm_json.contains("\"total_frames_simulated\": 0"),
            "{warm_json}"
        );
        assert!(
            warm_json.contains("\"total_frames_from_cache\": 120"),
            "{warm_json}"
        );
        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_file(&json);
    }

    #[test]
    fn adaptive_flags_require_adaptive_mode() {
        for (opt, value) in [
            ("--target-errors", "50"),
            ("--chunk-frames", "100"),
            ("--cache-dir", "/tmp/x"),
            ("--json", "/tmp/x.json"),
        ] {
            let err = run(&parsed(&[
                "sweep",
                "--demo",
                "--decoders",
                "nms",
                opt,
                value,
            ]))
            .unwrap_err();
            assert!(err.to_string().contains("--adaptive"), "{opt}: {err}");
        }
    }

    #[test]
    fn adaptive_sweep_rejects_zero_chunk_frames() {
        let err = run(&parsed(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms",
            "--adaptive",
            "--chunk-frames",
            "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("chunk-frames"), "{err}");
    }

    #[test]
    fn unusable_ebn0_is_rejected_before_any_worker_starts() {
        // Non-finite values, and -1e300 dB, whose noise sigma overflows.
        for bad in ["nan", "inf", "-inf", "-1e300"] {
            let err = error_of(&["simulate", "--demo", "--ebn0", bad, "--frames", "8"]);
            assert!(err.contains("--ebn0") && err.contains(bad), "{bad}: {err}");
            let list = format!("3,{bad}");
            let err = error_of(&[
                "sweep",
                "--demo",
                "--decoders",
                "fixed",
                "--ebn0s",
                &list,
                "--frames",
                "8",
                "--threads",
                "2",
            ]);
            assert!(err.contains("--ebn0s") && err.contains(bad), "{bad}: {err}");
            let err = error_of(&["sweep", "--demo", "--decoders", "fixed", "--ebn0", bad]);
            assert!(err.contains("--ebn0:") && err.contains(bad), "{bad}: {err}");
        }
        // A huge finite Eb/N0 is a noiseless channel: it still runs.
        let out = run(&parsed(&[
            "simulate",
            "--demo",
            "--ebn0",
            "1e300",
            "--frames",
            "8",
            "--threads",
            "1",
        ]))
        .unwrap();
        assert!(out.lines().nth(1).unwrap().contains(",8,"), "{out}");
    }

    #[test]
    fn plan_reports_a_device_for_the_paper_rates() {
        let out = run(&parsed(&["plan", "--mbps", "70"])).unwrap();
        assert!(out.contains("device"));
        let out = run(&parsed(&["plan", "--mbps", "560"])).unwrap();
        assert!(out.contains("Mbps info"));
    }

    #[test]
    fn plan_requires_mbps() {
        let err = run(&parsed(&["plan"])).unwrap_err();
        assert!(err.to_string().contains("--mbps"));
    }

    #[test]
    fn tables_include_paper_numbers() {
        let out = cmd_tables();
        assert!(out.contains("Table 1"));
        assert!(out.contains("130 Mbps"));
    }
}
