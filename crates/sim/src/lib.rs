//! Deterministic Monte-Carlo BER/PER evaluation (paper §5, Figure 4).
//!
//! The paper evaluates its decoder by simulating frames over a BPSK/AWGN
//! channel and counting bit and packet (frame) errors versus Eb/N0. This
//! crate is that harness — **one engine** behind four doors:
//!
//! * [`run_point_scenario_with`] — one operating point of a [`Scenario`]:
//!   one string names the code, the channel, and the decoder
//!   (`"c2 / awgn / nms:1.25"`, `"ar4ja:r=2/3 / bsc:0.02 / fixed"`);
//! * [`run_point_blocks`] — the explicit-factory door: any
//!   [`BlockDecoder`] factory over an explicit code on AWGN, for
//!   configurations the spec grammar does not cover (alpha schedules,
//!   custom quantization), and the only door that takes an [`Encoder`]
//!   for [`Transmission::Random`];
//! * [`run_point_packets`] — the packet-loss workload: frames leave as
//!   fixed-size packets, the scenario's `erasure`/`burst` channel drops
//!   whole packets, and survivors reassemble into zero-LLR-filled
//!   decoder input (dropping nothing reproduces the plain path bit for
//!   bit);
//! * [`run_sweep`] — a grid of (scenario, Eb/N0) units ([`sweep_grid`])
//!   chunked over a work-stealing worker pool with adaptive per-point
//!   stopping (run to a frame-error target or a cap) and a
//!   content-addressed on-disk cache ([`SweepConfig`]). A curve is a
//!   sweep with `target_frame_errors: 0` and one chunk of the frame
//!   budget per point; one point chunked finely is how a single point
//!   uses several cores.
//!
//! [`MonteCarloConfig`] describes one operating point; [`PointResult`]
//! holds its error counts with BER/PER accessors and Wilson confidence
//! intervals, and [`to_csv`] renders a curve for plotting.
//!
//! Every door funnels into the same engine loop, which is generic over
//! the code's transmission profile ([`CodeHandle`]) and the channel
//! model ([`ChannelSpec`]) — AWGN is the default, not a hardcode. The
//! loop is one worker on the caller's thread: one channel, one decoder,
//! one noise stream, and no shared counter, so a point's counts depend
//! only on its configuration. The three single-point doors therefore
//! give the same counts whatever [`MonteCarloConfig::threads`] says
//! (the field is ignored), and `run_sweep`'s pool — every chunk a
//! seeded engine run — is the crate's only parallelism.
//!
//! # Example
//!
//! ```
//! use ldpc_core::codes::small::demo_code;
//! use ldpc_core::DecoderSpec;
//! use ldpc_sim::{run_point_blocks, MonteCarloConfig, Transmission};
//!
//! let code = demo_code();
//! let cfg = MonteCarloConfig {
//!     ebn0_db: 7.0,
//!     max_frames: 200,
//!     target_frame_errors: 10,
//!     max_iterations: 20,
//!     seed: 1,
//!     threads: 1,
//!     transmission: Transmission::AllZero,
//! };
//! let spec = DecoderSpec::parse("nms:1.25@batch=8")?;
//! let point = run_point_blocks(&code, None, &cfg, || spec.build(&code));
//! assert!(point.frames > 0);
//! assert!(point.ber() <= 1.0);
//! # Ok::<(), ldpc_core::SpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod orchestrator;
mod packet;
mod scenario;

pub use orchestrator::{
    chunk_key, run_sweep, sha256_hex, sweep_grid, SweepConfig, SweepError, SweepUnit,
    SweepUnitResult,
};
pub use packet::{run_point_packets, PacketChannel, PacketDropModel, PacketLossReport};
pub use scenario::{run_point_scenario_with, split_spec_list, Scenario, ScenarioError};

use gf2::BitVec;
use ldpc_channel::{Channel, ChannelSpec};
use ldpc_core::{BlockDecoder, CodeHandle, Encoder, LdpcCode, PlainCode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What is transmitted in each simulated frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmission {
    /// The all-zero codeword (valid for any linear code; standard practice
    /// for symmetric channels and much faster — no encoder needed).
    AllZero,
    /// A fresh uniformly random message, encoded per frame. Requires an
    /// [`Encoder`] and additionally verifies the encoder/decoder pair
    /// end to end.
    Random,
}

/// Configuration of one Monte-Carlo operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloConfig {
    /// Channel Eb/N0 in dB (converted with the code's actual rate).
    pub ebn0_db: f64,
    /// Hard cap on simulated frames.
    pub max_frames: u64,
    /// Stop once this many frame errors are observed (0 = never stop
    /// early; statistical accuracy is then governed by `max_frames`).
    pub target_frame_errors: u64,
    /// Decoder iteration budget per frame.
    pub max_iterations: u32,
    /// Base seed; the engine's noise stream is derived from it.
    pub seed: u64,
    /// Ignored. A point runs as one worker on the caller's thread,
    /// whatever this says; to spread one point over cores, chunk it with
    /// [`run_sweep`] ([`SweepConfig::chunk_frames`],
    /// [`SweepConfig::threads`]). The field stays until the benchmark
    /// package stops setting it.
    pub threads: usize,
    /// Frame content.
    pub transmission: Transmission,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self {
            ebn0_db: 4.0,
            max_frames: 1_000,
            target_frame_errors: 50,
            max_iterations: 18,
            seed: 0xCC5D5,
            threads: 0,
            transmission: Transmission::AllZero,
        }
    }
}

/// Accumulated statistics of one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointResult {
    /// Eb/N0 of the point in dB.
    pub ebn0_db: f64,
    /// Frames simulated.
    pub frames: u64,
    /// Information-bit errors.
    pub bit_errors: u64,
    /// Frames with at least one information-bit error.
    pub frame_errors: u64,
    /// Frames the decoder *converged* on (zero syndrome) that were still
    /// wrong — undetected errors, relevant to the paper's error-floor
    /// discussion.
    pub undetected_frame_errors: u64,
    /// Total decoder iterations across all frames.
    pub total_iterations: u64,
    /// Information bits counted per frame.
    pub info_bits_per_frame: u64,
}

impl PointResult {
    /// Information bit-error rate.
    ///
    /// [`f64::NAN`] when no frame was simulated — a never-run point must
    /// not masquerade as a genuinely error-free one (`0/N` and `0/0` are
    /// different claims; [`to_csv`] renders the latter as an empty field).
    pub fn ber(&self) -> f64 {
        if self.frames == 0 {
            return f64::NAN;
        }
        self.bit_errors as f64 / (self.frames * self.info_bits_per_frame) as f64
    }

    /// Packet (frame) error rate — the paper's PER.
    ///
    /// [`f64::NAN`] when no frame was simulated (see [`ber`](Self::ber)).
    pub fn per(&self) -> f64 {
        if self.frames == 0 {
            return f64::NAN;
        }
        self.frame_errors as f64 / self.frames as f64
    }

    /// Mean decoder iterations per frame.
    ///
    /// [`f64::NAN`] when no frame was simulated (see [`ber`](Self::ber)).
    pub fn avg_iterations(&self) -> f64 {
        if self.frames == 0 {
            return f64::NAN;
        }
        self.total_iterations as f64 / self.frames as f64
    }

    /// 95 % Wilson confidence interval on the frame-error rate.
    pub fn per_confidence(&self) -> (f64, f64) {
        wilson_interval(self.frame_errors, self.frames, 1.96)
    }

    /// 95 % Wilson confidence interval on the bit-error rate.
    pub fn ber_confidence(&self) -> (f64, f64) {
        wilson_interval(
            self.bit_errors,
            self.frames * self.info_bits_per_frame,
            1.96,
        )
    }
}

/// Wilson score interval for a binomial proportion.
///
/// Returns `(low, high)`; for zero trials returns `(0, 1)`.
///
/// ```
/// let (lo, hi) = ldpc_sim::wilson_interval(5, 100, 1.96);
/// assert!(lo > 0.0 && lo < 0.05 && hi > 0.05 && hi < 0.2);
/// ```
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

/// The explicit-factory door: one AWGN operating point of an explicit
/// code, decoded by the [`BlockDecoder`] that `factory` builds — any
/// concrete decoder type, or a
/// [`DecoderSpec::build`](ldpc_core::DecoderSpec::build) result. It is
/// for configurations the spec grammar does not cover (alpha schedules,
/// custom quantization), and the only door that takes an [`Encoder`].
///
/// The point runs on the caller's thread as one worker of the one
/// engine loop, so its counts depend only on `cfg` (`cfg.threads` is
/// ignored). The scenario and packet doors — with their non-AWGN
/// channels and punctured/shortened codes — run the same loop, so seed
/// derivation and error counting are identical by construction across
/// all of them.
///
/// For [`Transmission::Random`] an encoder is required; with
/// [`Transmission::AllZero`] pass `None`. Information-bit errors are
/// counted over the encoder's systematic information positions when an
/// encoder is given, or over all code bits otherwise.
///
/// # Panics
///
/// Panics if `max_frames == 0`, if `Transmission::Random` is requested
/// without an encoder, or if `cfg.ebn0_db` gives no finite noise level
/// (`nan`, `±inf`, `-1e300`): the AWGN channel rejects it.
pub fn run_point_blocks<F, B>(
    code: &Arc<LdpcCode>,
    encoder: Option<&Arc<Encoder>>,
    cfg: &MonteCarloConfig,
    factory: F,
) -> PointResult
where
    F: FnOnce() -> B,
    B: BlockDecoder,
{
    let handle = PlainCode::new(Arc::clone(code));
    // Error counting positions: systematic info bits if we know them.
    let info_positions: Vec<u32> = match encoder {
        Some(enc) => enc.info_positions().to_vec(),
        None => (0..code.n() as u32).collect(),
    };
    let mut decoder = factory();
    let mut channel = ChannelSpec::awgn().build(cfg.ebn0_db, handle.rate(), engine_seed(cfg.seed));
    run_point_engine(
        &handle,
        encoder.map(|enc| &**enc),
        &info_positions,
        channel.as_mut(),
        &mut decoder,
        cfg,
    )
}

/// Seed offset of the engine's noise stream: a point seeded `s` draws
/// from `s + WORKER_SEED_STRIDE`. The orchestrator reuses the stride for
/// its chunk seeds (chunk `c` of a unit seeded `s` runs the engine at
/// `s + c · WORKER_SEED_STRIDE`), so chunk 0 is the plain point run.
pub(crate) const WORKER_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed the engine's channel is built from for a point seeded `seed`.
pub(crate) fn engine_seed(seed: u64) -> u64 {
    seed.wrapping_add(WORKER_SEED_STRIDE)
}

/// The one Monte-Carlo engine behind every door: one worker loop on the
/// caller's thread, over one built channel and one decoder.
///
/// Frames go in blocks of the decoder's
/// [`block_frames`](BlockDecoder::block_frames); the final block may be
/// partial. Each frame's transmitted bits go through `channel`; the
/// received LLRs are expanded back to full-length decoder input by the
/// handle (identity for plain codes, known-bit certainty for shortened
/// positions, erasures for punctured ones). Errors are counted over
/// `count_positions`, which must be distinct, a word at a time. The loop
/// reuses its buffers, so it allocates nothing per frame outside the
/// decoder and the random-message encoder (DESIGN.md §6.2). The
/// frame-error target is checked between blocks, so a point stops at
/// most one block past it.
///
/// The loop spawns no thread and shares no counter, so the counts
/// depend only on the channel's seed, the decoder and `cfg`.
/// Parallelism lives one level up, in [`run_sweep`]'s chunk pool.
pub(crate) fn run_point_engine(
    handle: &dyn CodeHandle,
    encoder: Option<&Encoder>,
    count_positions: &[u32],
    channel: &mut dyn Channel,
    decoder: &mut dyn BlockDecoder,
    cfg: &MonteCarloConfig,
) -> PointResult {
    assert!(cfg.max_frames > 0, "max_frames must be positive");
    let n = handle.code().n();
    let tx_len = handle.transmitted_len();
    let encoder = match cfg.transmission {
        Transmission::AllZero => None,
        Transmission::Random => {
            let enc = encoder.expect("random transmission requires an encoder");
            assert_eq!(
                tx_len, n,
                "random transmission requires a code that transmits every position \
                 (punctured/shortened scenarios simulate the all-zero codeword)"
            );
            Some(enc)
        }
    };
    let block = decoder.block_frames() as u64;
    assert!(block > 0, "decoder claims zero frames per block");
    let count_mask = count_mask(n, count_positions);
    let mut msg_rng = StdRng::seed_from_u64(engine_seed(cfg.seed) ^ 0xABCD_EF01);
    // An all-zero run borrows these for every frame: with a partial
    // transmission profile only the all-zero codeword is simulated
    // (asserted above), so the transmitted bits are all zero too.
    let zero = BitVec::zeros(n);
    let zero_tx = BitVec::zeros(tx_len);
    // Buffers reused by every block: the loop allocates nothing per
    // frame outside the decoder (and the encoder of a random-message
    // run).
    let mut received: Vec<f32> = Vec::with_capacity(tx_len);
    let mut llrs: Vec<f32> = Vec::with_capacity(block as usize * n);
    let mut codewords: Vec<BitVec> = Vec::new();
    let mut point = PointResult {
        ebn0_db: cfg.ebn0_db,
        frames: 0,
        bit_errors: 0,
        frame_errors: 0,
        undetected_frame_errors: 0,
        total_iterations: 0,
        info_bits_per_frame: count_positions.len() as u64,
    };
    while point.frames < cfg.max_frames
        && (cfg.target_frame_errors == 0 || point.frame_errors < cfg.target_frame_errors)
    {
        let count = block.min(cfg.max_frames - point.frames);
        llrs.clear();
        codewords.clear();
        for _ in 0..count {
            let sent = match encoder {
                None => &zero_tx,
                Some(enc) => {
                    let msg: BitVec = (0..enc.dimension())
                        .map(|_| msg_rng.gen_bool(0.5))
                        .collect();
                    codewords.push(enc.encode(&msg).expect("message length matches dimension"));
                    codewords.last().expect("just pushed")
                }
            };
            received.clear();
            channel.transmit_into(sent, &mut received);
            handle.expand_llrs_into(&received, &mut llrs);
        }
        let results = decoder.decode_block(&llrs, cfg.max_iterations);
        assert_eq!(results.len() as u64, count, "one decoder result per frame");
        for (f, out) in results.iter().enumerate() {
            let codeword = codewords.get(f).unwrap_or(&zero);
            let errors = count_errors(&out.hard_decision, codeword, &count_mask);
            point.frames += 1;
            point.total_iterations += u64::from(out.iterations);
            if errors > 0 {
                point.bit_errors += errors;
                point.frame_errors += 1;
                point.undetected_frame_errors += u64::from(out.converged);
            }
        }
    }
    point
}

/// The error-count positions as a mask over the code's `n` bits.
///
/// # Panics
///
/// Panics if a position is `>= n` or given twice (a repeat would count
/// twice per position but once per mask bit).
fn count_mask(n: usize, positions: &[u32]) -> BitVec {
    let mut mask = BitVec::zeros(n);
    for &pos in positions {
        mask.set(pos as usize, true);
    }
    assert_eq!(
        mask.count_ones(),
        positions.len(),
        "error-count positions must be distinct"
    );
    mask
}

/// Positions where `hard` and `sent` differ among those set in `mask`:
/// `popcount((hard ^ sent) & mask)`, a word at a time.
fn count_errors(hard: &BitVec, sent: &BitVec, mask: &BitVec) -> u64 {
    assert_eq!(hard.len(), mask.len(), "hard decision length");
    hard.words()
        .iter()
        .zip(sent.words())
        .zip(mask.words())
        .map(|((h, s), m)| u64::from(((h ^ s) & m).count_ones()))
        .sum()
}

/// Renders a curve as CSV with header
/// `ebn0_db,frames,ber,per,avg_iterations,undetected`.
///
/// Statistics that are undefined because a point simulated zero frames
/// (NaN from [`PointResult::ber`] and friends) render as *empty* fields —
/// distinguishable from a genuine `0.000000e0` under any CSV reader.
pub fn to_csv(points: &[PointResult]) -> String {
    let rate = |x: f64| {
        if x.is_nan() {
            String::new()
        } else {
            format!("{x:.6e}")
        }
    };
    let mut out = String::from("ebn0_db,frames,ber,per,avg_iterations,undetected\n");
    for p in points {
        let iters = if p.avg_iterations().is_nan() {
            String::new()
        } else {
            format!("{:.2}", p.avg_iterations())
        };
        out.push_str(&format!(
            "{:.3},{},{},{},{},{}\n",
            p.ebn0_db,
            p.frames,
            rate(p.ber()),
            rate(p.per()),
            iters,
            p.undetected_frame_errors
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_core::codes::small::demo_code;
    use ldpc_core::{
        CodeSpec, DecoderSpec, FixedConfig, FixedDecoder, MinSumConfig, MinSumDecoder,
    };
    use proptest::prelude::*;

    /// The reference count: one `get` per position.
    fn per_position_errors(hard: &BitVec, sent: &BitVec, positions: &[u32]) -> u64 {
        positions
            .iter()
            .filter(|&&p| hard.get(p as usize) != sent.get(p as usize))
            .count() as u64
    }

    fn random_bits(len: usize, density: f64, rng: &mut StdRng) -> BitVec {
        (0..len).map(|_| rng.gen_bool(density)).collect()
    }

    /// Checks the word-wise count against the per-position one on random
    /// hard decisions and codewords of length `n`, over `positions` as
    /// given and shuffled.
    fn assert_counts_agree(n: usize, mut positions: Vec<u32>, rng: &mut StdRng) {
        for density in [0.0, 0.01, 0.5, 1.0] {
            let hard = random_bits(n, density, rng);
            let sent = random_bits(n, rng.gen::<f64>(), rng);
            for round in 0..2 {
                let want = per_position_errors(&hard, &sent, &positions);
                let got = count_errors(&hard, &sent, &count_mask(n, &positions));
                assert_eq!(got, want, "n={n} density={density} round={round}");
                // Unsorted: a Fisher-Yates shuffle of the same set.
                for i in (1..positions.len()).rev() {
                    positions.swap(i, rng.gen_range(0..=i));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn word_wise_error_count_matches_per_position_count(
            n in 1usize..=300,
            keep in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let positions: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(keep)).collect();
            assert_counts_agree(n, positions, &mut rng);
        }
    }

    #[test]
    fn word_wise_error_count_matches_on_c2_and_transmitted_sets() {
        let mut rng = StdRng::seed_from_u64(0xC0_0E7);
        let all: Vec<u32> = (0..8176).collect();
        assert_counts_agree(8176, all, &mut rng);
        let sparse: Vec<u32> = (0..8176).filter(|_| rng.gen_bool(0.3)).collect();
        assert_counts_agree(8176, sparse, &mut rng);
        for spec in [
            "shortened:c2,k=4096",
            "shortened:demo,k=120",
            "ar4ja:r=1/2,k=1024",
        ] {
            let handle = CodeSpec::parse(spec).unwrap().build().unwrap();
            let positions = handle.transmitted_positions();
            assert!(positions.len() < handle.code().n(), "{spec}");
            assert_counts_agree(handle.code().n(), positions, &mut rng);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn repeated_count_positions_are_rejected() {
        count_mask(10, &[1, 4, 1]);
    }

    fn quick_cfg(ebn0_db: f64) -> MonteCarloConfig {
        MonteCarloConfig {
            ebn0_db,
            max_frames: 300,
            target_frame_errors: 0,
            max_iterations: 25,
            seed: 7,
            threads: 2,
            transmission: Transmission::AllZero,
        }
    }

    fn spec(s: &str) -> DecoderSpec {
        DecoderSpec::parse(s).unwrap()
    }

    /// One point through the explicit-factory door with a registry-built
    /// decoder per worker.
    fn run_spec(
        code: &Arc<LdpcCode>,
        encoder: Option<&Arc<Encoder>>,
        cfg: &MonteCarloConfig,
        spec: &DecoderSpec,
    ) -> PointResult {
        run_point_blocks(code, encoder, cfg, || spec.build(code))
    }

    #[test]
    fn high_snr_is_nearly_error_free() {
        let code = demo_code();
        let point = run_spec(&code, None, &quick_cfg(10.0), &spec("nms:1.25"));
        assert_eq!(point.frames, 300);
        assert_eq!(point.frame_errors, 0, "per={}", point.per());
    }

    #[test]
    fn low_snr_produces_errors() {
        let code = demo_code();
        let point = run_spec(&code, None, &quick_cfg(-2.0), &spec("nms:1.25"));
        assert!(point.frame_errors > 0);
        assert!(point.ber() > 0.0);
        assert!(point.per() >= point.ber());
    }

    #[test]
    fn ber_decreases_with_snr() {
        let code = demo_code();
        let points: Vec<PointResult> = [0.0, 3.0, 6.0]
            .iter()
            .map(|&ebn0| run_spec(&code, None, &quick_cfg(ebn0), &spec("nms:1.25")))
            .collect();
        assert_eq!(points.len(), 3);
        assert!(
            points[0].ber() > points[2].ber(),
            "ber(0dB)={} vs ber(6dB)={}",
            points[0].ber(),
            points[2].ber()
        );
    }

    #[test]
    fn target_frame_errors_stops_early() {
        let code = demo_code();
        let cfg = MonteCarloConfig {
            max_frames: 100_000,
            target_frame_errors: 5,
            ..quick_cfg(-3.0)
        };
        let point = run_spec(&code, None, &cfg, &spec("nms:1.25"));
        assert!(point.frame_errors >= 5);
        assert!(point.frames < 100_000);
    }

    #[test]
    fn random_transmission_matches_all_zero_statistics() {
        let code = demo_code();
        let enc = Arc::new(Encoder::new(&code).unwrap());
        let mut cfg = quick_cfg(2.5);
        cfg.max_frames = 400;
        let zero = run_spec(&code, Some(&enc), &cfg, &spec("fixed"));
        cfg.transmission = Transmission::Random;
        let random = run_spec(&code, Some(&enc), &cfg, &spec("fixed"));
        // Linear code + symmetric channel: the two BERs agree statistically.
        let (lo, hi) = zero.per_confidence();
        let margin = 0.12;
        assert!(
            random.per() >= (lo - margin).max(0.0) && random.per() <= (hi + margin).min(1.0),
            "all-zero per={} ({lo}..{hi}), random per={}",
            zero.per(),
            random.per()
        );
    }

    #[test]
    fn results_are_reproducible_for_fixed_seed_single_thread() {
        let code = demo_code();
        let cfg = MonteCarloConfig {
            threads: 1,
            ..quick_cfg(1.0)
        };
        let a = run_spec(&code, None, &cfg, &spec("nms:1.25"));
        let b = run_spec(&code, None, &cfg, &spec("nms:1.25"));
        assert_eq!(a, b);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let code = demo_code();
        let points = [run_spec(&code, None, &quick_cfg(5.0), &spec("nms:1.25"))];
        let csv = to_csv(&points);
        assert!(csv.starts_with("ebn0_db,frames"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn zero_frame_point_statistics_are_nan_not_zero() {
        // A never-run (or cache-miss) point must not masquerade as a
        // genuinely error-free one: 0/0 is NaN, and the CSV renders it
        // as an empty field rather than 0.0e0.
        let empty = PointResult {
            ebn0_db: 4.0,
            frames: 0,
            bit_errors: 0,
            frame_errors: 0,
            undetected_frame_errors: 0,
            total_iterations: 0,
            info_bits_per_frame: 100,
        };
        assert!(empty.ber().is_nan());
        assert!(empty.per().is_nan());
        assert!(empty.avg_iterations().is_nan());
        assert_eq!(empty.per_confidence(), (0.0, 1.0));
        let csv = to_csv(&[empty]);
        assert_eq!(
            csv.lines().nth(1).unwrap(),
            "4.000,0,,,,0",
            "NaN statistics must render as empty CSV fields"
        );
        // A genuinely error-free point still renders explicit zeros.
        let clean = PointResult {
            frames: 10,
            total_iterations: 10,
            ..empty
        };
        assert_eq!(clean.ber(), 0.0);
        assert_eq!(clean.per(), 0.0);
        assert!(to_csv(&[clean])
            .lines()
            .nth(1)
            .unwrap()
            .contains("0.000000e0"));
    }

    /// `run_sweep`'s progress gauge counts each chunk's frames once, when
    /// the chunk finishes: however many workers race over a tiny budget,
    /// the gauge ends at exactly `max_frames`.
    #[test]
    fn claim_counter_never_overshoots_max_frames() {
        let units = sweep_grid(
            &[Scenario::parse("demo / awgn / nms:1.25@batch=8").unwrap()],
            &[4.0],
            7,
        );
        for _ in 0..5 {
            let progress = Arc::new(std::sync::atomic::AtomicU64::new(0));
            // 8 workers over a 10-frame budget in 1-frame chunks:
            // maximal contention.
            let cfg = SweepConfig {
                max_frames: 10,
                target_frame_errors: 0,
                chunk_frames: 1,
                max_iterations: 25,
                threads: 8,
                cache_dir: None,
                progress_frames: Some(Arc::clone(&progress)),
            };
            let result = &run_sweep(&units, &cfg).unwrap()[0];
            assert_eq!(result.point.frames, 10);
            assert_eq!(
                progress.load(std::sync::atomic::Ordering::Relaxed),
                10,
                "the progress gauge overshot the cap"
            );
        }
    }

    /// Every single-point door runs one worker on the caller's thread,
    /// so `threads` cannot change a count: every registry family on
    /// every registry channel, through the scenario and packet doors,
    /// and the explicit-factory door.
    #[test]
    fn every_single_point_door_is_thread_count_invariant() {
        let code = demo_code();
        let cfg = |threads| MonteCarloConfig {
            max_frames: 16,
            max_iterations: 5,
            threads,
            ..quick_cfg(2.0)
        };
        let handle: Arc<dyn CodeHandle> = Arc::new(PlainCode::new(Arc::clone(&code)));
        for decoder in DecoderSpec::all_families() {
            for channel in ldpc_channel::ChannelSpec::all_channels() {
                let scenario = Scenario {
                    code: CodeSpec::Demo,
                    channel,
                    decoder: decoder.clone(),
                };
                let point = run_point_scenario_with(&handle, &scenario, &cfg(1));
                let packets = run_point_packets(&scenario, 32, &cfg(1)).unwrap();
                for threads in [2, 3, 8] {
                    let again = run_point_scenario_with(&handle, &scenario, &cfg(threads));
                    assert_eq!(again, point, "{scenario} threads={threads}");
                    let again = run_point_packets(&scenario, 32, &cfg(threads)).unwrap();
                    assert_eq!(again, packets, "{scenario} packets threads={threads}");
                }
            }
        }
        let blocks = run_spec(&code, None, &cfg(1), &spec("nms:1.25"));
        for threads in [2, 3, 8] {
            assert_eq!(
                run_spec(&code, None, &cfg(threads), &spec("nms:1.25")),
                blocks,
                "threads={threads}"
            );
        }
    }

    /// With a frame-error target, each worker can have at most one block
    /// in flight past the stop: at an SNR where every frame errors, the
    /// total simulated frames are bounded by the target's own stop point
    /// plus `threads × block`.
    #[test]
    fn target_stop_overshoot_is_bounded() {
        let code = demo_code();
        let decoder = spec("nms:1.25@batch=8");
        let block = decoder.build(&code).block_frames() as u64;
        assert!(block > 1, "the bound needs a multi-frame block");
        let threads = 4u64;
        let target = 5u64;
        let cfg = MonteCarloConfig {
            max_frames: 100_000,
            target_frame_errors: target,
            threads: threads as usize,
            ..quick_cfg(-10.0) // every frame is a frame error down here
        };
        let point = run_spec(&code, None, &cfg, &decoder);
        assert_eq!(
            point.frame_errors, point.frames,
            "the bound below assumes every frame errors at -10 dB"
        );
        assert!(point.frames <= cfg.max_frames);
        let stop = target.div_ceil(block) * block; // frames a lone worker needs
        assert!(
            point.frames <= stop + threads * block,
            "frames={} > stop {stop} + threads×block {}",
            point.frames,
            threads * block
        );
    }

    #[test]
    fn wilson_interval_basics() {
        let (lo, hi) = wilson_interval(0, 0, 1.96);
        assert_eq!((lo, hi), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi < 0.05);
        let (lo, hi) = wilson_interval(100, 100, 1.96);
        assert!(lo > 0.95);
        assert!(hi > 0.999);
        // Interval shrinks with more trials.
        let (_, hi_small) = wilson_interval(10, 100, 1.96);
        let (_, hi_large) = wilson_interval(100, 1000, 1.96);
        assert!(hi_large < hi_small);
    }

    #[test]
    fn batched_point_matches_per_frame_exactly_single_thread() {
        // The engine claims block_frames() frames per step; bit-exact
        // batched decoding then makes counts independent of the packing.
        let code = demo_code();
        let cfg = MonteCarloConfig {
            threads: 1,
            ..quick_cfg(2.0)
        };
        // Default alpha is the hardware's 4/3.
        let per_frame = run_spec(&code, None, &cfg, &spec("nms"));
        for batch in [1usize, 4, 8] {
            let batched = run_spec(&code, None, &cfg, &spec("nms").with_batch(batch).unwrap());
            assert_eq!(batched, per_frame, "batch={batch}");
        }
    }

    /// `fixed@batch=8` is an alias of the packed `fixed` datapath, which
    /// decodes one frame per block; its point must equal the scalar
    /// per-edge `FixedDecoder`'s.
    #[test]
    fn batched_fixed_point_matches_per_frame_exactly_single_thread() {
        let code = demo_code();
        let cfg = MonteCarloConfig {
            threads: 1,
            ..quick_cfg(2.5)
        };
        let per_frame = run_point_blocks(&code, None, &cfg, || {
            FixedDecoder::new(code.clone(), FixedConfig::default())
        });
        let batched = run_spec(&code, None, &cfg, &spec("fixed@batch=8"));
        assert_eq!(batched, per_frame);
    }

    #[test]
    fn batched_partial_final_block_counts_all_frames() {
        let code = demo_code();
        // 10 frames with a capacity-4 decoder: blocks of 4, 4, 2.
        let cfg = MonteCarloConfig {
            max_frames: 10,
            threads: 1,
            ..quick_cfg(6.0)
        };
        let point = run_spec(&code, None, &cfg, &spec("nms:1.25@batch=4"));
        assert_eq!(point.frames, 10);
    }

    #[test]
    fn batched_multi_thread_respects_max_frames() {
        let code = demo_code();
        let cfg = MonteCarloConfig {
            max_frames: 100,
            threads: 3,
            ..quick_cfg(3.0)
        };
        let point = run_spec(&code, None, &cfg, &spec("nms:1.25@batch=8"));
        assert_eq!(point.frames, 100);
    }

    #[test]
    fn batched_target_frame_errors_stops_early() {
        let code = demo_code();
        let cfg = MonteCarloConfig {
            max_frames: 100_000,
            target_frame_errors: 5,
            ..quick_cfg(-3.0)
        };
        let point = run_spec(&code, None, &cfg, &spec("nms:1.25@batch=8"));
        assert!(point.frame_errors >= 5);
        assert!(point.frames < 100_000);
    }

    #[test]
    fn batched_random_transmission_works() {
        let code = demo_code();
        let enc = Arc::new(Encoder::new(&code).unwrap());
        let mut cfg = quick_cfg(2.5);
        cfg.transmission = Transmission::Random;
        cfg.threads = 1;
        let batched = run_spec(&code, Some(&enc), &cfg, &spec("nms:1.25@batch=8"));
        let per_frame = run_spec(&code, Some(&enc), &cfg, &spec("nms:1.25"));
        assert_eq!(batched, per_frame);
    }

    #[test]
    fn bitsliced_point_matches_scalar_gallager_b_single_thread() {
        // The hard-decision mirror of the batched equality: 64 frames per
        // word, same noise stream, bit-exact lanes, identical counts.
        let code = demo_code();
        for ebn0 in [3.0, 6.0] {
            let cfg = MonteCarloConfig {
                threads: 1,
                ..quick_cfg(ebn0)
            };
            let scalar = run_spec(&code, None, &cfg, &spec("gallager-b:t=3"));
            let sliced = run_spec(&code, None, &cfg, &spec("gallager-b:t=3@bitslice"));
            assert_eq!(sliced, scalar, "ebn0={ebn0}");
        }
    }

    #[test]
    fn bitsliced_partial_final_word_counts_all_frames() {
        // 100 frames with 64-lane words: blocks of 64 and 36.
        let code = demo_code();
        let cfg = MonteCarloConfig {
            max_frames: 100,
            threads: 1,
            ..quick_cfg(7.0)
        };
        let point = run_spec(&code, None, &cfg, &spec("gallager-b@bitslice"));
        assert_eq!(point.frames, 100);
    }

    #[test]
    fn bitsliced_multi_thread_respects_max_frames() {
        let code = demo_code();
        let cfg = MonteCarloConfig {
            max_frames: 200,
            threads: 3,
            ..quick_cfg(5.0)
        };
        let point = run_spec(&code, None, &cfg, &spec("gallager-b@bitslice"));
        assert_eq!(point.frames, 200);
    }

    #[test]
    fn avg_iterations_reported() {
        let code = demo_code();
        let point = run_spec(&code, None, &quick_cfg(8.0), &spec("nms:1.25"));
        // Clean channel: early termination keeps iterations near 1.
        assert!(point.avg_iterations() >= 1.0);
        assert!(point.avg_iterations() < 3.0);
    }

    #[test]
    fn blocks_engine_accepts_custom_configurations() {
        // Configurations outside the spec grammar (here: an alpha
        // schedule) drive the same engine through run_point_blocks.
        let code = demo_code();
        let cfg = MonteCarloConfig {
            threads: 1,
            ..quick_cfg(3.0)
        };
        let scheduled = run_point_blocks(&code, None, &cfg, || {
            MinSumDecoder::new(
                demo_code(),
                MinSumConfig::normalized(4.0 / 3.0).with_alpha_schedule(vec![1.0, 4.0 / 3.0]),
            )
        });
        assert_eq!(scheduled.frames, 300);
        // And a plain config through run_point_blocks equals the spec run.
        let manual = run_point_blocks(&code, None, &cfg, || {
            MinSumDecoder::new(demo_code(), MinSumConfig::normalized(4.0 / 3.0))
        });
        assert_eq!(manual, run_spec(&code, None, &cfg, &spec("nms")));
    }

    /// Every registered family runs end to end through the spec door.
    #[test]
    fn every_registered_family_simulates() {
        let code = demo_code();
        let cfg = MonteCarloConfig {
            max_frames: 80,
            threads: 2,
            ..quick_cfg(6.0)
        };
        for family in DecoderSpec::all_families() {
            let point = run_spec(&code, None, &cfg, &family);
            assert_eq!(point.frames, 80, "{family}");
            assert!(point.ber() <= 1.0, "{family}");
        }
    }
}
