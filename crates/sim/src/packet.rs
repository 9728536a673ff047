//! The packet-loss workload: frames split into fixed-size packets,
//! packets dropped by the scenario's erasure/burst process, survivors
//! reassembled into zero-LLR-filled decoder input.
//!
//! Deep-space telemetry is framed: a codeword leaves the spacecraft as a
//! sequence of link-layer packets, and a fade or a synchronization loss
//! takes out *whole packets*, not individual symbols. This module models
//! that regime on top of the one Monte-Carlo engine:
//!
//! 1. the codeword is transmitted through an inner symbol channel
//!    (intact delivery for the loss-only channels, the spec-built
//!    channel otherwise);
//! 2. the LLR stream is split into packets of `packet_symbols` symbols
//!    (the final packet may be shorter when the length does not divide);
//! 3. a packet-granular drop process — derived from the scenario's
//!    channel spec by [`PacketDropModel::from_spec`] — erases whole
//!    packets by zeroing their LLRs;
//! 4. the surviving symbols go to the decoder unchanged.
//!
//! A zero-LLR symbol is exactly the erasure convention of
//! [`ErasureChannel`](ldpc_channel::ErasureChannel), so every decoder in
//! the registry accepts the reassembled input, and the peeling decoder
//! (`peeling`) treats dropped packets as the erasures they are.
//!
//! The workload is a *wrapper*, not a second engine:
//! [`run_point_packets`] drives the same engine loop, seed derivation,
//! and error counting as
//! [`run_point_scenario_with`](crate::run_point_scenario_with). A drop model of
//! [`PacketDropModel::Never`] consumes no randomness at all, so a
//! packet-level run that drops nothing is bit-identical to the plain
//! channel path (pinned by tests here and in the golden-vector suite).

use crate::{
    engine_seed, run_point_engine, MonteCarloConfig, PointResult, Scenario, ScenarioError,
};
use gf2::BitVec;
use ldpc_channel::{Channel, ChannelKind, ERASURE_KNOWN_LLR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed perturbation separating the packet-drop stream from the inner
/// channel's noise stream, so adding the wrapper never disturbs the
/// symbols the survivors carry.
const DROP_SEED_XOR: u64 = 0x9ACC_E77E_D00D_5EED;

/// How the packet-drop process decides each packet's fate.
///
/// Derived from a scenario's channel spec by [`Self::from_spec`]: the
/// loss-only channel families become packet-granular drop processes,
/// every other family keeps its symbol-level noise and drops nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketDropModel {
    /// No packet is ever dropped (and no randomness is consumed), so the
    /// packet path reproduces the plain channel path bit for bit.
    Never,
    /// Each packet is dropped independently with probability `p` — the
    /// packet-granular reading of `erasure:p`.
    Iid {
        /// Per-packet drop probability in (0, 1).
        p: f64,
    },
    /// A two-state Gilbert-Elliott process at packet granularity — the
    /// packet-granular reading of `burst:p_good,p_bad,p_switch`. The
    /// state toggles with probability `p_switch` per packet and the
    /// current state's probability decides the drop, so losses cluster.
    Burst {
        /// Drop probability while in the good state.
        p_good: f64,
        /// Drop probability while in the bad state.
        p_bad: f64,
        /// Per-packet probability of toggling between the states.
        p_switch: f64,
    },
}

impl PacketDropModel {
    /// Maps a channel spec to its packet-granular drop process:
    /// `erasure:p` → [`Iid`](Self::Iid), `burst:…` →
    /// [`Burst`](Self::Burst), anything else →
    /// [`Never`](Self::Never).
    pub fn from_spec(spec: &ldpc_channel::ChannelSpec) -> Self {
        match spec.kind {
            ChannelKind::Erasure { p } => Self::Iid { p },
            ChannelKind::Burst {
                p_good,
                p_bad,
                p_switch,
            } => Self::Burst {
                p_good,
                p_bad,
                p_switch,
            },
            _ => Self::Never,
        }
    }
}

/// Packet accounting of one packet-level run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketLossReport {
    /// Packets transmitted (every packet of every frame).
    pub packets: u64,
    /// Packets dropped by the loss process.
    pub dropped: u64,
}

impl PacketLossReport {
    /// Fraction of packets lost; [`f64::NAN`] when nothing was sent (a
    /// never-run workload must not masquerade as a lossless one).
    pub fn loss_rate(&self) -> f64 {
        if self.packets == 0 {
            return f64::NAN;
        }
        self.dropped as f64 / self.packets as f64
    }
}

/// Intact symbol delivery: every surviving symbol arrives with the full
/// known-symbol confidence [`ERASURE_KNOWN_LLR`], signed by the
/// transmitted bit. The loss-only channel families use this as the
/// inner channel so the packet drop process is the *only* impairment.
struct IntactChannel;

impl Channel for IntactChannel {
    fn transmit_into(&mut self, codeword: &BitVec, out: &mut Vec<f32>) {
        out.extend((0..codeword.len()).map(|i| {
            if codeword.get(i) {
                -ERASURE_KNOWN_LLR
            } else {
                ERASURE_KNOWN_LLR
            }
        }));
    }
}

/// A [`Channel`] adapter that transmits through an inner channel, then
/// erases whole packets of the LLR stream according to a
/// [`PacketDropModel`].
///
/// The drop process draws from its own seeded stream, disjoint from the
/// inner channel's, and [`PacketDropModel::Never`] draws nothing — so
/// the wrapper composes with any inner channel without perturbing its
/// output. Markov drop state persists across frames, like the
/// symbol-level [`GilbertElliottChannel`](ldpc_channel::GilbertElliottChannel).
pub struct PacketChannel {
    inner: Box<dyn Channel>,
    packet_symbols: usize,
    drop: PacketDropModel,
    in_bad_state: bool,
    rng: StdRng,
    report: PacketLossReport,
}

impl PacketChannel {
    /// Wraps `inner`, splitting each transmission into packets of
    /// `packet_symbols` symbols and dropping them per `drop`.
    ///
    /// # Panics
    ///
    /// Panics if `packet_symbols` is zero.
    pub fn new(
        inner: Box<dyn Channel>,
        packet_symbols: usize,
        drop: PacketDropModel,
        seed: u64,
    ) -> Self {
        assert!(packet_symbols > 0, "packet size must be positive");
        Self {
            inner,
            packet_symbols,
            drop,
            in_bad_state: false,
            rng: StdRng::seed_from_u64(seed ^ DROP_SEED_XOR),
            report: PacketLossReport::default(),
        }
    }

    /// Packets sent and dropped so far.
    pub fn report(&self) -> PacketLossReport {
        self.report
    }
}

impl Channel for PacketChannel {
    fn transmit_into(&mut self, codeword: &BitVec, out: &mut Vec<f32>) {
        let start = out.len();
        self.inner.transmit_into(codeword, out);
        for packet in out[start..].chunks_mut(self.packet_symbols) {
            self.report.packets += 1;
            let lost = match self.drop {
                PacketDropModel::Never => false,
                PacketDropModel::Iid { p } => self.rng.gen_bool(p),
                PacketDropModel::Burst {
                    p_good,
                    p_bad,
                    p_switch,
                } => {
                    if self.rng.gen_bool(p_switch) {
                        self.in_bad_state = !self.in_bad_state;
                    }
                    self.rng
                        .gen_bool(if self.in_bad_state { p_bad } else { p_good })
                }
            };
            if lost {
                self.report.dropped += 1;
                packet.fill(0.0);
            }
        }
    }
}

/// Simulates one operating point of a [`Scenario`] under the
/// packet-loss workload, returning the error counts alongside the
/// packet accounting.
///
/// The scenario's channel spec plays a double role: it derives the
/// packet drop process ([`PacketDropModel::from_spec`]), and for the
/// families that are *not* loss processes (`awgn`, `bsc`, `rayleigh`,
/// quantized or not) it still builds the inner symbol channel — so a
/// packetized `awgn` run drops nothing and reproduces
/// [`run_point_scenario_with`](crate::run_point_scenario_with) bit for bit, while
/// `erasure:p` / `burst:…` runs deliver survivors intact and lose whole
/// packets.
///
/// Seeding and error counting are those of the one engine, on the
/// caller's thread (`cfg.threads` is ignored); the packet wrapper's drop
/// stream is seeded disjointly from the symbol stream.
///
/// # Errors
///
/// Returns [`ScenarioError::Code`] if the code spec cannot be built.
///
/// # Panics
///
/// Panics if `packet_symbols` is zero, `cfg.max_frames` is zero,
/// `cfg.transmission` is [`Transmission::Random`](crate::Transmission::Random)
/// for a code that does not transmit every position, or a symbol-noise
/// Gaussian channel gets no finite noise level from `cfg.ebn0_db`
/// (`nan`, `±inf`, `-1e300`).
pub fn run_point_packets(
    scenario: &Scenario,
    packet_symbols: usize,
    cfg: &MonteCarloConfig,
) -> Result<(PointResult, PacketLossReport), ScenarioError> {
    assert!(packet_symbols > 0, "packet size must be positive");
    let handle = scenario.build_code()?;
    let drop = PacketDropModel::from_spec(&scenario.channel);
    let seed = engine_seed(cfg.seed);
    let inner: Box<dyn Channel> = match drop {
        // Loss-only families: the drop process is the channel; survivors
        // arrive intact.
        PacketDropModel::Iid { .. } | PacketDropModel::Burst { .. } => Box::new(IntactChannel),
        // Symbol-noise families keep their spec-built channel on the same
        // seed as the plain path.
        PacketDropModel::Never => scenario.channel.build(cfg.ebn0_db, handle.rate(), seed),
    };
    let mut channel = PacketChannel::new(inner, packet_symbols, drop, seed);
    let mut decoder = scenario.decoder.build(handle.code());
    let point = run_point_engine(
        handle.as_ref(),
        None,
        &handle.transmitted_positions(),
        &mut channel,
        decoder.as_mut(),
        cfg,
    );
    Ok((point, channel.report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_point_scenario_with, Transmission};

    fn quick_cfg(threads: usize) -> MonteCarloConfig {
        MonteCarloConfig {
            ebn0_db: 3.0,
            max_frames: 150,
            target_frame_errors: 0,
            max_iterations: 30,
            seed: 21,
            threads,
            transmission: Transmission::AllZero,
        }
    }

    #[test]
    fn zero_drop_packet_path_is_bit_identical_to_the_plain_path() {
        // The load-bearing pin: a symbol-noise channel drops no packets,
        // so the packet door must reproduce the scenario door exactly.
        for s in ["demo / awgn / nms:1.25", "demo / bsc:0.03 / fixed"] {
            let sc = Scenario::parse(s).unwrap();
            let cfg = quick_cfg(1);
            let plain = run_point_scenario_with(&sc.build_code().unwrap(), &sc, &cfg);
            let (packetized, report) = run_point_packets(&sc, 32, &cfg).unwrap();
            assert_eq!(packetized, plain, "{s}");
            assert_eq!(report.dropped, 0, "{s}");
            // demo n=248 → 8 packets of ≤32 symbols per frame.
            assert_eq!(report.packets, 150 * 8, "{s}");
        }
    }

    #[test]
    fn zero_drop_packet_path_holds_its_invariants_multithreaded() {
        // `threads` is ignored — the door runs one worker at any value —
        // so a two-thread config still reproduces the plain path exactly.
        let sc = Scenario::parse("demo / bsc:0.03 / fixed").unwrap();
        let plain = run_point_scenario_with(&sc.build_code().unwrap(), &sc, &quick_cfg(1));
        let (point, report) = run_point_packets(&sc, 32, &quick_cfg(2)).unwrap();
        assert_eq!(point, plain);
        assert_eq!(point.frames, 150);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.packets, 150 * 8);
    }

    #[test]
    fn erasure_workload_drops_packets_at_the_specified_rate() {
        let sc = Scenario::parse("demo / erasure:0.1 / peeling").unwrap();
        let (_, report) = run_point_packets(&sc, 31, &quick_cfg(1)).unwrap();
        assert!(report.packets > 0);
        let rate = report.loss_rate();
        assert!(
            (rate - 0.1).abs() < 0.03,
            "loss rate {rate} far from erasure:0.1"
        );
    }

    #[test]
    fn peeling_recovers_frames_below_the_erasure_threshold() {
        // demo code: rate 0.75, so up to ~25% erasures are information-
        // theoretically recoverable; 5% packet loss sits well below the
        // peeling threshold and every frame must come back.
        let sc = Scenario::parse("demo / erasure:0.05 / peeling").unwrap();
        let (point, report) = run_point_packets(&sc, 8, &quick_cfg(2)).unwrap();
        assert!(report.dropped > 0, "workload dropped nothing");
        assert_eq!(point.frames, 150);
        assert_eq!(point.frame_errors, 0, "per={}", point.per());
    }

    #[test]
    fn burst_workload_clusters_losses_and_state_persists_across_frames() {
        // Slow chain, harsh bad state: losses must arrive far more
        // bursty than an iid process of the same average rate would.
        let sc = Scenario::parse("demo / burst:0.001,0.45,0.02 / peeling").unwrap();
        let cfg = MonteCarloConfig {
            max_frames: 400,
            ..quick_cfg(1)
        };
        let (_, report) = run_point_packets(&sc, 8, &cfg).unwrap();
        let rate = report.loss_rate();
        // Stationary mean (0.001 + 0.45)/2 ≈ 0.23, generously bracketed:
        // a 400-frame run sees only ~250 sojourns of the slow chain.
        assert!(
            (0.1..0.36).contains(&rate),
            "loss rate {rate} incompatible with the burst process"
        );
    }

    #[test]
    fn partial_final_packet_is_handled() {
        // demo n=248 = 3×80 + 8: the final packet of each frame is short.
        let sc = Scenario::parse("demo / erasure:0.1 / peeling").unwrap();
        let cfg = MonteCarloConfig {
            max_frames: 50,
            ..quick_cfg(1)
        };
        let (point, report) = run_point_packets(&sc, 80, &cfg).unwrap();
        assert_eq!(point.frames, 50);
        assert_eq!(report.packets, 50 * 4);
    }

    #[test]
    fn packet_runs_are_reproducible() {
        for s in [
            "demo / erasure:0.08 / peeling",
            "demo / burst:0.01,0.3,0.05 / nms:1.25",
        ] {
            let sc = Scenario::parse(s).unwrap();
            let cfg = quick_cfg(1);
            let (a, ra) = run_point_packets(&sc, 16, &cfg).unwrap();
            let (b, rb) = run_point_packets(&sc, 16, &cfg).unwrap();
            assert_eq!(a, b, "{s}");
            assert_eq!(ra, rb, "{s}");
        }
    }

    #[test]
    fn loss_report_of_an_empty_run_is_nan_not_zero() {
        let report = PacketLossReport {
            packets: 0,
            dropped: 0,
        };
        assert!(report.loss_rate().is_nan());
    }

    #[test]
    #[should_panic(expected = "packet size")]
    fn zero_packet_size_panics() {
        let sc = Scenario::parse("demo / erasure:0.1 / peeling").unwrap();
        let _ = run_point_packets(&sc, 0, &quick_cfg(1));
    }
}
