//! End-to-end and per-layer benchmark of the CCSDS LDPC decoder system.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mc-c2-packed|sweep-c2-fixed|served-c2-2conn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is the separate traced run that
//! splits the work into the program's layers. Correctness gates run
//! before any timing. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the same result plus an
//! environment stamp goes to `.perfbench/<workload>-trace<t>.json`, and a
//! traced run also writes its spans to `.perfbench/<workload>-spans.tsv`.
//! See `perfbench/README.md` for the workloads and metrics.

mod mc;
mod report;
mod served;
mod stats;
mod sweep;
mod trace;

use ldpc_core::codes::ccsds_c2;
use ldpc_core::{CodeHandle, CodeSpec, LdpcCode, PlainCode};
use report::{EnvStamp, Results};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["mc-c2-packed", "sweep-c2-fixed", "served-c2-2conn"];

/// Directory (relative to the working directory) for results, spans and
/// scratch files such as sweep caches.
pub const OUT_DIR: &str = ".perfbench";

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// What one run was asked to do.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What a workload measured: metric values plus operation accounting.
#[derive(Default)]
pub struct Measured {
    pub metrics: BTreeMap<String, f64>,
    /// In-run spread of the samples behind each median metric.
    pub spreads: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Spans of a traced run, written out after the run.
    pub spans: Vec<trace::Span>,
}

impl Measured {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets `name` to the median of repeated `samples`, recording their
    /// in-run spread.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, stats::median(samples));
        self.spreads
            .insert(name.to_string(), stats::spread(samples));
    }

    /// Sets `latency_p50_ms` from latency samples (in the order they were
    /// taken) and prints their p99 and count. The p99 is not a bounded
    /// metric: from run to run it swings with machine load by more than
    /// any bound the benchmark may set.
    pub fn set_latency(&mut self, samples_ms: &[f64]) -> Result<(), String> {
        self.set("latency_p50_ms", stats::percentile(samples_ms, 50.0));
        println!(
            "latency p99 {:.4} ms over {} samples (median of block p99s)",
            stats::p99(samples_ms)?,
            samples_ms.len()
        );
        Ok(())
    }

    /// Fills every per-layer metric this workload does not exercise with 0.
    pub fn zero_unused_layers(&mut self) {
        for (name, _) in report::PER_LAYER {
            self.metrics.entry(name.to_string()).or_insert(0.0);
        }
    }
}

/// Builds the C2 code from its quasi-cyclic spec, as `CodeSpec::build`
/// does on its first call. `CodeSpec::build` then caches the code for the
/// process, which would hide code construction from every set-up after
/// the first; set-up builds it afresh each time instead.
pub fn build_c2(scenario: &ldpc_sim::Scenario) -> Result<Arc<dyn CodeHandle>, String> {
    if scenario.code != CodeSpec::C2 {
        return Err(format!("{scenario}: the benchmark's workloads run on c2"));
    }
    let code = LdpcCode::from_qc_spec("CCSDS C2 (8176,7156)", ccsds_c2::spec())
        .map_err(|e| e.to_string())?;
    Ok(Arc::new(PlainCode::new(code)))
}

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed, so one `--seed` fixes every input of a run.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Computed decoder work per frame: every edge is updated once by its
/// check node and once by its bit node per iteration, and each update
/// reads and writes one 1-byte message.
pub fn decoder_work(m: &mut Measured, iterations_per_frame: f64, edges: usize) {
    m.set("decoder.iterations_per_frame", iterations_per_frame);
    m.set(
        "decoder.edge_updates_per_frame",
        iterations_per_frame * edges as f64 * 2.0,
    );
    m.set(
        "decoder.bytes_moved_per_frame",
        iterations_per_frame * edges as f64 * 4.0,
    );
    m.set("hwsim.table1_mbps", table1_mbps(iterations_per_frame));
}

/// The paper's high-speed (8 frames per word) architecture's information
/// throughput at a mean iteration count. With overlapped I/O a frame
/// costs iterations × iteration cycles, so throughput scales as 1/iterations
/// and a fractional mean is exact.
fn table1_mbps(iterations: f64) -> f64 {
    use ldpc_hwsim::{ArchConfig, CodeDims, ThroughputModel};
    let config = ArchConfig::high_speed();
    assert!(
        config.io_overlap,
        "the 1/iterations scaling needs overlapped I/O"
    );
    ThroughputModel::new(config, CodeDims::ccsds_c2()).info_throughput_mbps(1) / iterations
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        fields.insert(key, value);
    }
    let get = |k: &str| {
        fields
            .get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer".to_string())?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a positive integer".to_string())?;
    if seconds == 0 {
        return Err("--seconds takes a positive integer".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok(RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn run(args: &RunArgs) -> Result<Results, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let mut measured = match args.workload.as_str() {
        "mc-c2-packed" => mc::run(args)?,
        "sweep-c2-fixed" => sweep::run(args)?,
        "served-c2-2conn" => served::run(args)?,
        other => unreachable!("workload {other} validated by parse_args"),
    };
    if args.trace {
        measured.zero_unused_layers();
        let path = out_path(&format!("{}-spans.tsv", args.workload));
        std::fs::write(&path, trace::render_tsv(&measured.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        measured.set("peak_rss_mb", report::peak_rss_mb());
    }
    let results = Results {
        workload: args.workload.clone(),
        trace: args.trace,
        env: EnvStamp::collect(args.seed),
        correct: measured.failed == 0,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: measured.metrics,
        spreads: measured.spreads,
    };
    let bad = results.missing_or_extra();
    if !bad.is_empty() {
        return Err(format!("incomplete metrics: {}", bad.join(", ")));
    }
    Ok(results)
}

/// A path inside [`OUT_DIR`].
pub fn out_path(name: &str) -> PathBuf {
    Path::new(OUT_DIR).join(name)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let results = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let env = &results.env;
    println!(
        "env nproc={} simd_built={} sse41_detected={} simd_active={} rev={} profile={} rustc=\"{}\" seed={}",
        env.nproc,
        env.simd_built,
        env.sse41_detected,
        env.simd_active,
        env.source_rev,
        env.profile,
        env.rustc,
        env.seed
    );
    for (name, unit) in results.table() {
        let spread = results
            .spreads
            .get(*name)
            .map_or(String::new(), |s| format!("  (in-run spread {s:.4})"));
        println!("{name:<36} {:>16.6} {unit}{spread}", results.metrics[*name]);
    }
    println!(
        "{} correct={} attempted={} failed={}",
        results.workload, results.correct, results.attempted, results.failed
    );
    let path = out_path(&format!(
        "{}-trace{}.json",
        results.workload,
        u8::from(results.trace)
    ));
    if let Err(e) = std::fs::write(&path, results.to_json().render() + "\n") {
        eprintln!("perfbench: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", results.result_line());
    if results.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} operation(s) failed", results.failed);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(&[
            "--workload",
            "served-c2-2conn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, "served-c2-2conn");
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (7, 10, true));
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "mc-c2-packed",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "mc-c2-packed",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "mc-c2-packed",
                "--seed",
                "1",
                "--seconds",
                "1",
            ],
            &["--bogus"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn derived_seeds_differ_and_repeat() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn table1_model_matches_the_paper_at_integer_iterations() {
        // Paper Table 1, high-speed decoder: 1040 Mbps at 10 iterations.
        assert!((table1_mbps(10.0) - 1040.0).abs() < 15.0);
        assert!((table1_mbps(5.0) / table1_mbps(10.0) - 2.0).abs() < 1e-12);
    }
}
