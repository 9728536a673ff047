//! Floating-point min-sum decoders (plain, normalized, offset).

use crate::decoder::block::runs;
use crate::decoder::{sign_decision, BlockDecoder, DecodeResult};
use crate::LdpcCode;
use gf2::BitVec;
use std::sync::Arc;

/// Check-node approximation variant (paper eq. 2 and its reference \[4\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinSumVariant {
    /// Plain sign-min (α = 1). Overestimates magnitudes.
    Plain,
    /// Normalized min-sum: magnitudes divided by `alpha` (> 1). This is the
    /// paper's eq. (2) with its normalization factor α.
    Normalized {
        /// Normalization constant α > 1.
        alpha: f32,
    },
    /// Offset min-sum: magnitudes reduced by `beta`, floored at zero.
    Offset {
        /// Subtractive offset β ≥ 0.
        beta: f32,
    },
}

/// Configuration of a [`MinSumDecoder`].
#[derive(Debug, Clone, PartialEq)]
pub struct MinSumConfig {
    /// Check-node rule.
    pub variant: MinSumVariant,
    /// Optional per-iteration α override ("fine scaled correction factor",
    /// paper §5): iteration `i` uses `alpha_schedule[min(i, len-1)]`.
    /// Only meaningful with [`MinSumVariant::Normalized`].
    pub alpha_schedule: Option<Vec<f32>>,
    /// Stop as soon as the syndrome is zero (software behaviour); disable
    /// to emulate the fixed-latency hardware.
    pub early_stop: bool,
}

impl MinSumConfig {
    /// Plain sign-min configuration.
    pub fn plain() -> Self {
        Self {
            variant: MinSumVariant::Plain,
            alpha_schedule: None,
            early_stop: true,
        }
    }

    /// Normalized min-sum with a constant α.
    ///
    /// # Panics
    ///
    /// Panics if `alpha < 1.0`.
    pub fn normalized(alpha: f32) -> Self {
        assert!(alpha >= 1.0, "normalization factor must be >= 1");
        Self {
            variant: MinSumVariant::Normalized { alpha },
            alpha_schedule: None,
            early_stop: true,
        }
    }

    /// Offset min-sum with offset β.
    ///
    /// # Panics
    ///
    /// Panics if `beta < 0.0`.
    pub fn offset(beta: f32) -> Self {
        assert!(beta >= 0.0, "offset must be non-negative");
        Self {
            variant: MinSumVariant::Offset { beta },
            alpha_schedule: None,
            early_stop: true,
        }
    }

    /// Sets a per-iteration α schedule (fine scaling).
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty or contains values below 1.
    pub fn with_alpha_schedule(mut self, schedule: Vec<f32>) -> Self {
        assert!(!schedule.is_empty(), "alpha schedule cannot be empty");
        assert!(
            schedule.iter().all(|&a| a >= 1.0),
            "all schedule values must be >= 1"
        );
        self.alpha_schedule = Some(schedule);
        self
    }

    /// Disables or enables early termination.
    pub fn with_early_stop(mut self, early_stop: bool) -> Self {
        self.early_stop = early_stop;
        self
    }
}

/// Report name of a min-sum configuration, parameters included — shared
/// by [`MinSumDecoder`] and [`BatchMinSumDecoder`](crate::BatchMinSumDecoder)
/// so the per-frame and batched mirrors agree on what they are called.
pub(crate) fn variant_name(config: &MinSumConfig) -> String {
    match config.variant {
        MinSumVariant::Plain => "min-sum".to_owned(),
        MinSumVariant::Normalized { alpha } => match &config.alpha_schedule {
            Some(schedule) => format!(
                "normalized min-sum (scheduled alpha, {} steps)",
                schedule.len()
            ),
            None => format!("normalized min-sum (alpha={alpha})"),
        },
        MinSumVariant::Offset { beta } => format!("offset min-sum (beta={beta})"),
    }
}

/// Effective α of `config` for a 0-based iteration index: the schedule
/// entry (last value holding past the end) or the constant α. The single
/// definition shared by [`MinSumDecoder`] and
/// [`BatchMinSumDecoder`](crate::BatchMinSumDecoder).
pub(crate) fn alpha_for_iteration(config: &MinSumConfig, iter: usize) -> Option<f32> {
    match (&config.alpha_schedule, config.variant) {
        (Some(schedule), MinSumVariant::Normalized { .. }) => {
            Some(schedule[iter.min(schedule.len() - 1)])
        }
        (None, MinSumVariant::Normalized { alpha }) => Some(alpha),
        _ => None,
    }
}

/// Applies the check-node correction (paper eq. 2) to a min magnitude.
/// The single definition shared by the per-frame and batched min-sum
/// decoders, so their bit-exactness holds by construction.
#[inline]
pub(crate) fn apply_correction(variant: MinSumVariant, alpha: Option<f32>, mag: f32) -> f32 {
    match (variant, alpha) {
        (MinSumVariant::Plain, _) => mag,
        (MinSumVariant::Normalized { .. }, Some(a)) => mag / a,
        (MinSumVariant::Normalized { alpha }, None) => mag / alpha,
        (MinSumVariant::Offset { beta }, _) => (mag - beta).max(0.0),
    }
}

/// Serial two-minimum check-node scan in `f32` — the floating-point
/// analog of [`CnState`](crate::decoder::kernels::CnState), and the
/// single scan definition shared by [`MinSumDecoder`] and the batched
/// decoder's lane-masked path (the lockstep path uses a select-based
/// formulation that is value-identical; proptests pin the equality).
pub(crate) struct CnScanF32 {
    min1: f32,
    min2: f32,
    argmin: usize,
    /// XOR of all absorbed sign bits (`true` = negative product).
    pub sign_product: bool,
}

impl CnScanF32 {
    /// Initial state; `first_edge` seeds the argmin like the hardware
    /// scan (any absorbed edge replaces it on the first strict minimum).
    pub fn new(first_edge: usize) -> Self {
        Self {
            min1: f32::INFINITY,
            min2: f32::INFINITY,
            argmin: first_edge,
            sign_product: false,
        }
    }

    /// Absorbs the message of edge `e`.
    #[inline]
    pub fn absorb(&mut self, e: usize, x: f32) {
        let mag = x.abs();
        if x < 0.0 {
            self.sign_product = !self.sign_product;
        }
        if mag < self.min1 {
            self.min2 = self.min1;
            self.min1 = mag;
            self.argmin = e;
        } else if mag < self.min2 {
            self.min2 = mag;
        }
    }

    /// Output magnitude toward edge `e`: the minimum excluding `e`'s own
    /// input.
    #[inline]
    pub fn magnitude(&self, e: usize) -> f32 {
        if e == self.argmin {
            self.min2
        } else {
            self.min1
        }
    }
}

/// Min-sum decoder with optional normalization ("sign-min" of the paper)
/// or offset correction, in `f32` arithmetic.
///
/// The normalized variant with α = 4/3 is the floating-point reference of
/// the hardware datapath implemented by
/// [`FixedDecoder`](crate::FixedDecoder).
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{MinSumConfig, MinSumDecoder};
///
/// let code = demo_code();
/// let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(4.0 / 3.0));
/// let out = dec.decode(&vec![2.5; code.n()], 10);
/// assert!(out.converged);
/// ```
pub struct MinSumDecoder {
    code: Arc<LdpcCode>,
    config: MinSumConfig,
    bc: Vec<f32>,
    cb: Vec<f32>,
    hard: Vec<u8>,
}

impl MinSumDecoder {
    /// Creates a decoder with the given configuration.
    pub fn new(code: Arc<LdpcCode>, config: MinSumConfig) -> Self {
        let edges = code.graph().n_edges();
        let n = code.n();
        Self {
            code,
            config,
            bc: vec![0.0; edges],
            cb: vec![0.0; edges],
            hard: vec![0; n],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MinSumConfig {
        &self.config
    }

    /// The code this decoder operates on.
    pub fn code(&self) -> &Arc<LdpcCode> {
        &self.code
    }

    /// Effective α for a given 0-based iteration index.
    fn alpha_for_iteration(&self, iter: usize) -> Option<f32> {
        alpha_for_iteration(&self.config, iter)
    }

    fn cn_phase(&mut self, iter: usize) {
        let code = self.code.clone();
        let graph = code.graph();
        let alpha = self.alpha_for_iteration(iter);
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            let mut scan = CnScanF32::new(range.start);
            for e in range.clone() {
                scan.absorb(e, self.bc[e]);
            }
            for e in range {
                let mag = apply_correction(self.config.variant, alpha, scan.magnitude(e));
                let negative = scan.sign_product ^ (self.bc[e] < 0.0);
                self.cb[e] = if negative { -mag } else { mag };
            }
        }
    }

    #[allow(clippy::needless_range_loop)] // n indexes llrs, hard, and the graph in lockstep
    fn bn_phase(&mut self, llrs: &[f32]) {
        let code = self.code.clone();
        let graph = code.graph();
        for n in 0..graph.n_bits() {
            let edges = graph.bn_edge_ids(n);
            let mut total = llrs[n];
            for &e in edges {
                total += self.cb[e as usize];
            }
            for &e in edges {
                self.bc[e as usize] = total - self.cb[e as usize];
            }
            self.hard[n] = u8::from(total < 0.0);
        }
    }

    /// Decodes one frame of channel LLRs — the per-frame form of
    /// [`BlockDecoder::decode_block`].
    ///
    /// # Panics
    ///
    /// Panics if `channel_llrs.len()` differs from the code length.
    pub fn decode(&mut self, channel_llrs: &[f32], max_iterations: u32) -> DecodeResult {
        let code = self.code.clone();
        let graph = code.graph();
        assert_eq!(
            channel_llrs.len(),
            graph.n_bits(),
            "channel LLR length mismatch"
        );
        for e in 0..graph.n_edges() {
            self.bc[e] = channel_llrs[graph.edge_bit(e)];
        }
        let mut iterations = 0;
        let mut converged =
            max_iterations == 0 && sign_decision(graph, channel_llrs, &mut self.hard);
        for iter in 0..max_iterations {
            self.cn_phase(iter as usize);
            self.bn_phase(channel_llrs);
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
}

impl BlockDecoder for MinSumDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), 1)
            .map(|frame| self.decode(frame, max_iterations))
            .collect()
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        variant_name(&self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;

    #[test]
    fn names_reflect_variant() {
        let code = demo_code();
        assert_eq!(
            MinSumDecoder::new(code.clone(), MinSumConfig::plain()).name(),
            "min-sum"
        );
        // Parameters are part of the name, so reports never conflate two
        // configurations of the same variant.
        assert_eq!(
            MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.5)).name(),
            "normalized min-sum (alpha=1.5)"
        );
        assert_eq!(
            MinSumDecoder::new(code, MinSumConfig::offset(0.1)).name(),
            "offset min-sum (beta=0.1)"
        );
    }

    #[test]
    fn normalized_shrinks_magnitudes_vs_plain() {
        let code = demo_code();
        let llrs: Vec<f32> = (0..code.n())
            .map(|i| if i % 7 == 0 { -1.0 } else { 2.0 })
            .collect();
        let mut plain =
            MinSumDecoder::new(code.clone(), MinSumConfig::plain().with_early_stop(false));
        let mut norm = MinSumDecoder::new(
            code.clone(),
            MinSumConfig::normalized(2.0).with_early_stop(false),
        );
        let _ = plain.decode(&llrs, 1);
        let _ = norm.decode(&llrs, 1);
        // After one iteration the normalized messages are exactly half.
        for (p, n) in plain.cb.iter().zip(&norm.cb) {
            assert!((n - p / 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn offset_never_flips_sign() {
        let code = demo_code();
        let llrs: Vec<f32> = (0..code.n()).map(|i| (i % 5) as f32 - 2.0).collect();
        let mut dec = MinSumDecoder::new(code, MinSumConfig::offset(10.0).with_early_stop(false));
        let _ = dec.decode(&llrs, 2);
        // A huge offset can zero magnitudes but never produce the wrong sign.
        for &m in &dec.cb {
            assert_eq!(m, 0.0);
        }
    }

    #[test]
    fn alpha_schedule_is_applied_per_iteration() {
        let code = demo_code();
        let cfg = MinSumConfig::normalized(1.0)
            .with_alpha_schedule(vec![1.0, 2.0])
            .with_early_stop(false);
        let dec = MinSumDecoder::new(code, cfg);
        assert_eq!(dec.alpha_for_iteration(0), Some(1.0));
        assert_eq!(dec.alpha_for_iteration(1), Some(2.0));
        // Past the end the last value holds.
        assert_eq!(dec.alpha_for_iteration(9), Some(2.0));
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn normalized_rejects_alpha_below_one() {
        MinSumConfig::normalized(0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn offset_rejects_negative_beta() {
        MinSumConfig::offset(-0.1);
    }

    #[test]
    fn corrects_single_error_burst() {
        let code = demo_code();
        let mut llrs = vec![3.0_f32; code.n()];
        llrs[100] = -2.0;
        llrs[101] = -2.0;
        for cfg in [
            MinSumConfig::plain(),
            MinSumConfig::normalized(4.0 / 3.0),
            MinSumConfig::offset(0.3),
        ] {
            let mut dec = MinSumDecoder::new(code.clone(), cfg);
            let out = dec.decode(&llrs, 30);
            assert!(out.converged, "{}", dec.name());
            assert!(out.hard_decision.is_zero(), "{}", dec.name());
        }
    }
}
