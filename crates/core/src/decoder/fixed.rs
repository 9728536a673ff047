//! Bit-accurate fixed-point normalized min-sum decoder — the software
//! reference of the paper's FPGA datapath.

use crate::decoder::block::runs;
use crate::decoder::kernels::{bn_output, bn_posterior, cn_scan, Scaling};
use crate::decoder::{BlockDecoder, DecodeResult};
use crate::{LdpcCode, LlrQuantizer};
use gf2::BitVec;
use std::sync::Arc;

/// Quantization and scaling parameters of the fixed-point datapath.
///
/// Defaults match the architecture sized in DESIGN.md §9.4: 6-bit
/// edge messages, 5-bit channel LLRs at 0.5 LLR per level, and the ×0.75
/// shift-add normalization (α = 4/3) of the paper's §5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedConfig {
    /// Edge-message width in bits (including sign).
    pub q_msg: u32,
    /// Channel-LLR width in bits (including sign).
    pub q_ch: u32,
    /// Channel quantizer step (LLR per least-significant bit).
    pub ch_step: f32,
    /// Check-node magnitude normalization (shift-add factor).
    pub scaling: Scaling,
    /// Stop at zero syndrome (software); disable for fixed-latency
    /// hardware emulation.
    pub early_stop: bool,
}

impl Default for FixedConfig {
    fn default() -> Self {
        Self {
            q_msg: 6,
            q_ch: 5,
            ch_step: 0.5,
            scaling: Scaling::ThreeQuarters,
            early_stop: true,
        }
    }
}

impl FixedConfig {
    /// Config with a different message width.
    ///
    /// # Panics
    ///
    /// Panics if `q_msg` is outside `2..=15`.
    pub fn with_q_msg(mut self, q_msg: u32) -> Self {
        assert!((2..=15).contains(&q_msg), "message width must be in 2..=15");
        self.q_msg = q_msg;
        self
    }

    /// Config with a different channel width.
    ///
    /// # Panics
    ///
    /// Panics if `q_ch` is outside `2..=15`.
    pub fn with_q_ch(mut self, q_ch: u32) -> Self {
        assert!((2..=15).contains(&q_ch), "channel width must be in 2..=15");
        self.q_ch = q_ch;
        self
    }

    /// Config with a different scaling factor.
    pub fn with_scaling(mut self, scaling: Scaling) -> Self {
        self.scaling = scaling;
        self
    }

    /// Config with early termination enabled or disabled.
    pub fn with_early_stop(mut self, early_stop: bool) -> Self {
        self.early_stop = early_stop;
        self
    }

    /// Largest representable message magnitude.
    pub fn msg_max(&self) -> i16 {
        ((1i32 << (self.q_msg - 1)) - 1) as i16
    }

    /// The channel quantizer implied by this configuration.
    pub fn channel_quantizer(&self) -> LlrQuantizer {
        LlrQuantizer::new(self.q_ch, self.ch_step)
    }
}

/// Per-iteration observability record of a traced fixed-point decode.
///
/// These are the quantities a hardware validation bench would tap:
/// syndrome weight (unsatisfied checks), decision churn, and datapath
/// saturation pressure, per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Number of unsatisfied parity checks after this iteration.
    pub unsatisfied_checks: usize,
    /// Hard-decision bits that changed relative to the previous iteration.
    pub bit_flips: usize,
    /// Fraction of bit-to-check messages pinned at the saturation rails.
    pub saturated_fraction: f64,
}

/// Full trace of a fixed-point decode (see
/// [`FixedDecoder::decode_quantized_traced`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecodeTrace {
    /// One entry per executed iteration.
    pub iterations: Vec<IterationStats>,
}

impl DecodeTrace {
    /// Iteration index (1-based) at which the syndrome first became zero,
    /// if it ever did.
    pub fn first_zero_syndrome(&self) -> Option<usize> {
        self.iterations
            .iter()
            .position(|s| s.unsatisfied_checks == 0)
            .map(|i| i + 1)
    }

    /// `true` if the syndrome weight never increased from one iteration to
    /// the next (monotone convergence).
    pub fn syndrome_monotone(&self) -> bool {
        self.iterations
            .windows(2)
            .all(|w| w[1].unsatisfied_checks <= w[0].unsatisfied_checks)
    }

    /// Largest observed saturation fraction.
    pub fn peak_saturation(&self) -> f64 {
        self.iterations
            .iter()
            .map(|s| s.saturated_fraction)
            .fold(0.0, f64::max)
    }
}

/// Fixed-point normalized min-sum decoder.
///
/// Every arithmetic operation goes through the shared kernels in
/// [`crate::decoder::kernels`], which the `ldpc-hwsim` architecture
/// simulator also drives cycle by cycle — the two produce **bit-identical**
/// message streams and hard decisions (verified by integration tests).
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{FixedConfig, FixedDecoder};
///
/// let code = demo_code();
/// let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
/// let out = dec.decode(&vec![3.0; code.n()], 18);
/// assert!(out.converged);
/// ```
pub struct FixedDecoder {
    code: Arc<LdpcCode>,
    config: FixedConfig,
    quantizer: LlrQuantizer,
    /// Bit→check messages (edge-indexed, check-grouped).
    bc: Vec<i16>,
    /// Check→bit messages.
    cb: Vec<i16>,
    /// Quantized channel LLRs of the current frame.
    channel: Vec<i16>,
    hard: Vec<u8>,
}

impl FixedDecoder {
    /// Creates a decoder for the given code and datapath configuration.
    pub fn new(code: Arc<LdpcCode>, config: FixedConfig) -> Self {
        let edges = code.graph().n_edges();
        let n = code.n();
        Self {
            quantizer: config.channel_quantizer(),
            code,
            config,
            bc: vec![0; edges],
            cb: vec![0; edges],
            channel: vec![0; n],
            hard: vec![0; n],
        }
    }

    /// The datapath configuration.
    pub fn config(&self) -> &FixedConfig {
        &self.config
    }

    /// The code this decoder operates on.
    pub fn code(&self) -> &Arc<LdpcCode> {
        &self.code
    }

    /// Decodes a frame of already-quantized channel LLRs (hardware input).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the code length, or if any value
    /// exceeds the channel quantizer range.
    pub fn decode_quantized(&mut self, channel: &[i16], max_iterations: u32) -> DecodeResult {
        let code = self.code.clone();
        let graph = code.graph();
        assert_eq!(channel.len(), graph.n_bits(), "channel length mismatch");
        let ch_max = self.quantizer.max_level();
        assert!(
            channel.iter().all(|&c| (-ch_max..=ch_max).contains(&c)),
            "channel value outside quantizer range"
        );
        self.channel.copy_from_slice(channel);
        let msg_max = self.config.msg_max();
        // Initial bit→check messages = channel values, saturated to the
        // message width.
        for e in 0..graph.n_edges() {
            self.bc[e] = crate::decoder::kernels::saturate(
                i32::from(self.channel[graph.edge_bit(e)]),
                msg_max,
            );
        }
        // Iteration 0 decides on the channel signs.
        for (h, &c) in self.hard.iter_mut().zip(channel) {
            *h = u8::from(c < 0);
        }
        let mut iterations = 0;
        let mut converged = max_iterations == 0 && graph.syndrome_ok(&self.hard);
        for _ in 0..max_iterations {
            self.cn_phase();
            self.bn_phase();
            iterations += 1;
            if graph.syndrome_ok(&self.hard) {
                converged = true;
                if self.config.early_stop {
                    break;
                }
            } else {
                converged = false;
            }
        }
        DecodeResult {
            hard_decision: BitVec::from_bits(&self.hard),
            iterations,
            converged,
        }
    }

    /// Like [`decode_quantized`](Self::decode_quantized) but additionally
    /// records per-iteration observability statistics. The decode result
    /// is identical to the untraced path (the trace is pure observation).
    ///
    /// Tracing disables early termination so the full trajectory is
    /// visible; `converged` still reports the final syndrome state.
    ///
    /// # Panics
    ///
    /// Same conditions as [`decode_quantized`](Self::decode_quantized).
    pub fn decode_quantized_traced(
        &mut self,
        channel: &[i16],
        max_iterations: u32,
    ) -> (DecodeResult, DecodeTrace) {
        let code = self.code.clone();
        let graph = code.graph();
        assert_eq!(channel.len(), graph.n_bits(), "channel length mismatch");
        let ch_max = self.quantizer.max_level();
        assert!(
            channel.iter().all(|&c| (-ch_max..=ch_max).contains(&c)),
            "channel value outside quantizer range"
        );
        self.channel.copy_from_slice(channel);
        let msg_max = self.config.msg_max();
        for e in 0..graph.n_edges() {
            self.bc[e] = crate::decoder::kernels::saturate(
                i32::from(self.channel[graph.edge_bit(e)]),
                msg_max,
            );
        }
        for (h, &c) in self.hard.iter_mut().zip(channel) {
            *h = u8::from(c < 0);
        }
        let mut trace = DecodeTrace::default();
        let mut prev_hard = vec![0u8; graph.n_bits()];
        let mut iterations = 0;
        for _ in 0..max_iterations {
            self.cn_phase();
            self.bn_phase();
            iterations += 1;
            let unsatisfied_checks = (0..graph.n_checks())
                .filter(|&m| {
                    let mut parity = 0u8;
                    for &bn in graph.cn_bits(m) {
                        parity ^= self.hard[bn as usize];
                    }
                    parity != 0
                })
                .count();
            let bit_flips = self
                .hard
                .iter()
                .zip(&prev_hard)
                .filter(|(a, b)| a != b)
                .count();
            prev_hard.copy_from_slice(&self.hard);
            let saturated = self
                .bc
                .iter()
                .filter(|&&m| m == msg_max || m == -msg_max)
                .count();
            trace.iterations.push(IterationStats {
                unsatisfied_checks,
                bit_flips,
                saturated_fraction: saturated as f64 / self.bc.len() as f64,
            });
        }
        let converged = graph.syndrome_ok(&self.hard);
        (
            DecodeResult {
                hard_decision: BitVec::from_bits(&self.hard),
                iterations,
                converged,
            },
            trace,
        )
    }

    fn cn_phase(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            let state = cn_scan(&self.bc[range.clone()]);
            for (idx, e) in range.enumerate() {
                self.cb[e] = state.output(idx as u32, self.config.scaling);
            }
        }
    }

    fn bn_phase(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let msg_max = self.config.msg_max();
        for n in 0..graph.n_bits() {
            let edges = graph.bn_edge_ids(n);
            let mut total: i32 = 0;
            for &e in edges {
                total += i32::from(self.cb[e as usize]);
            }
            let ch = self.channel[n];
            for &e in edges {
                self.bc[e as usize] = bn_output(ch, total, self.cb[e as usize], msg_max);
            }
            let posterior = bn_posterior(ch, total, i16::MAX);
            self.hard[n] = u8::from(posterior < 0);
        }
    }

    /// Decodes one frame of channel LLRs — the per-frame form of
    /// [`BlockDecoder::decode_block`].
    ///
    /// # Panics
    ///
    /// Panics if `channel_llrs.len()` differs from the code length.
    pub fn decode(&mut self, channel_llrs: &[f32], max_iterations: u32) -> DecodeResult {
        assert_eq!(
            channel_llrs.len(),
            self.code.n(),
            "channel LLR length mismatch"
        );
        let quantized = self.quantizer.quantize_slice(channel_llrs);
        self.decode_quantized(&quantized, max_iterations)
    }
}

impl BlockDecoder for FixedDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), 1)
            .map(|frame| self.decode(frame, max_iterations))
            .collect()
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        format!(
            "fixed-point normalized min-sum ({}b msg, {}b ch, x{})",
            self.config.q_msg,
            self.config.q_ch,
            self.config.scaling.factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::{MinSumConfig, MinSumDecoder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn default_config_matches_design_doc() {
        let cfg = FixedConfig::default();
        assert_eq!(cfg.q_msg, 6);
        assert_eq!(cfg.q_ch, 5);
        assert_eq!(cfg.msg_max(), 31);
        assert_eq!(cfg.channel_quantizer().max_level(), 15);
        assert_eq!(cfg.scaling, Scaling::ThreeQuarters);
    }

    #[test]
    fn decode_quantized_accepts_hardware_range() {
        let code = demo_code();
        let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
        let out = dec.decode_quantized(&vec![10i16; code.n()], 10);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    #[should_panic(expected = "quantizer range")]
    fn decode_quantized_rejects_out_of_range() {
        let code = demo_code();
        let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
        let mut ch = vec![0i16; code.n()];
        ch[0] = 16; // 5-bit max is 15
        let _ = dec.decode_quantized(&ch, 1);
    }

    #[test]
    fn float_decode_path_quantizes_first() {
        let code = demo_code();
        let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
        // 100.0 saturates at level 15 — must behave like decode_quantized.
        let a = dec.decode(&vec![100.0; code.n()], 5);
        let b = dec.decode_quantized(&vec![15i16; code.n()], 5);
        assert_eq!(a, b);
    }

    #[test]
    fn corrects_noisy_frame_like_float_reference() {
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(20);
        // Moderate noise around an all-zero codeword.
        let llrs: Vec<f32> = (0..code.n())
            .map(|_| 2.0 + rng.gen_range(-1.2f32..1.2))
            .collect();
        let mut fixed = FixedDecoder::new(code.clone(), FixedConfig::default());
        let mut float = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(4.0 / 3.0));
        let out_fixed = fixed.decode(&llrs, 30);
        let out_float = float.decode(&llrs, 30);
        assert!(out_fixed.converged);
        assert!(out_float.converged);
        assert_eq!(out_fixed.hard_decision, out_float.hard_decision);
    }

    #[test]
    fn narrower_quantization_still_decodes_clean_frames() {
        let code = demo_code();
        let cfg = FixedConfig::default().with_q_msg(4).with_q_ch(3);
        let mut dec = FixedDecoder::new(code.clone(), cfg);
        let out = dec.decode(&vec![4.0; code.n()], 10);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn saturation_keeps_messages_in_range() {
        let code = demo_code();
        let cfg = FixedConfig::default();
        let mut dec = FixedDecoder::new(code.clone(), cfg.with_early_stop(false));
        let mut rng = StdRng::seed_from_u64(21);
        let llrs: Vec<f32> = (0..code.n()).map(|_| rng.gen_range(-20.0..20.0)).collect();
        let _ = dec.decode(&llrs, 8);
        let max = cfg.msg_max();
        assert!(dec.bc.iter().all(|&m| (-max..=max).contains(&m)));
        assert!(dec.cb.iter().all(|&m| (-max..=max).contains(&m)));
    }

    #[test]
    fn deterministic_across_calls() {
        let code = demo_code();
        let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
        let mut rng = StdRng::seed_from_u64(22);
        let llrs: Vec<f32> = (0..code.n()).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let a = dec.decode(&llrs, 12);
        let b = dec.decode(&llrs, 12);
        assert_eq!(a, b);
    }
    #[test]
    fn traced_decode_matches_untraced_result() {
        let code = demo_code();
        let cfg = FixedConfig::default().with_early_stop(false);
        let mut dec = FixedDecoder::new(code.clone(), cfg);
        let mut rng = StdRng::seed_from_u64(23);
        let ch: Vec<i16> = (0..code.n()).map(|_| rng.gen_range(-15i16..=15)).collect();
        let plain = dec.decode_quantized(&ch, 10);
        let (traced, trace) = dec.decode_quantized_traced(&ch, 10);
        assert_eq!(plain, traced);
        assert_eq!(trace.iterations.len(), 10);
    }

    #[test]
    fn trace_shows_convergence_on_noisy_frame() {
        let code = demo_code();
        let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
        let mut ch = vec![6i16; code.n()];
        ch[10] = -6;
        ch[120] = -6;
        let (out, trace) = dec.decode_quantized_traced(&ch, 12);
        assert!(out.converged);
        let first = trace.first_zero_syndrome().expect("should converge");
        assert!(first <= 12);
        // Once converged, syndrome stays at zero.
        for s in &trace.iterations[first - 1..] {
            assert_eq!(s.unsatisfied_checks, 0);
        }
        assert!(trace.peak_saturation() <= 1.0);
    }

    #[test]
    fn trace_reports_saturation_under_strong_input() {
        let code = demo_code();
        let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
        let ch = vec![15i16; code.n()]; // rail-to-rail channel input
        let (_, trace) = dec.decode_quantized_traced(&ch, 3);
        // Messages quickly saturate at the rails under unanimous input.
        assert!(
            trace.peak_saturation() > 0.5,
            "peak {}",
            trace.peak_saturation()
        );
        assert!(trace.syndrome_monotone());
    }
}
