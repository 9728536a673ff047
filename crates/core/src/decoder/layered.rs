//! Serial-schedule ("layered") normalized min-sum decoder.

use crate::decoder::block::runs;
use crate::decoder::{sign_decision, BlockDecoder, DecodeResult};
use crate::LdpcCode;
use gf2::BitVec;
use std::sync::Arc;

/// Normalized min-sum with a serial check-node schedule.
///
/// Instead of the flooding schedule of the paper's base architecture
/// (all checks, then all bits), check nodes are processed one after the
/// other and the a-posteriori values are updated immediately. The serial
/// schedule typically converges in roughly half the iterations of flooding
/// — this decoder exists to quantify that trade-off (ablation A3 in
/// DESIGN.md), since the paper's architecture deliberately chooses flooding
/// to exploit the QC code's parallelism.
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{LayeredMinSumDecoder};
///
/// let code = demo_code();
/// let mut dec = LayeredMinSumDecoder::new(code.clone(), 4.0 / 3.0);
/// let out = dec.decode(&vec![3.0; code.n()], 10);
/// assert!(out.converged);
/// ```
pub struct LayeredMinSumDecoder {
    code: Arc<LdpcCode>,
    alpha: f32,
    /// A-posteriori LLR of each bit.
    app: Vec<f32>,
    /// Stored check→bit message of each edge.
    cb: Vec<f32>,
    /// Scratch: bit→check messages of the check being processed.
    scratch: Vec<f32>,
    hard: Vec<u8>,
    early_stop: bool,
}

impl LayeredMinSumDecoder {
    /// Creates a serial-schedule decoder with normalization factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha < 1.0`.
    pub fn new(code: Arc<LdpcCode>, alpha: f32) -> Self {
        assert!(alpha >= 1.0, "normalization factor must be >= 1");
        let n = code.n();
        let edges = code.graph().n_edges();
        let max_deg = code.graph().max_cn_degree();
        Self {
            code,
            alpha,
            app: vec![0.0; n],
            cb: vec![0.0; edges],
            scratch: vec![0.0; max_deg],
            hard: vec![0; n],
            early_stop: true,
        }
    }

    /// Disables or enables early termination.
    pub fn with_early_stop(mut self, early_stop: bool) -> Self {
        self.early_stop = early_stop;
        self
    }

    /// The normalization factor α.
    pub fn alpha(&self) -> f32 {
        self.alpha
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
        self.app.copy_from_slice(channel_llrs);
        self.cb.iter_mut().for_each(|m| *m = 0.0);
        let mut iterations = 0;
        let mut converged =
            max_iterations == 0 && sign_decision(graph, channel_llrs, &mut self.hard);
        for _ in 0..max_iterations {
            for m in 0..graph.n_checks() {
                let range = graph.cn_edge_range(m);
                let deg = range.len();
                // Reconstruct bit→check messages from APP minus stored cb.
                for (i, e) in range.clone().enumerate() {
                    let bn = graph.edge_bit(e);
                    self.scratch[i] = self.app[bn] - self.cb[e];
                }
                // Two-minimum min-sum over the scratch messages.
                let mut min1 = f32::INFINITY;
                let mut min2 = f32::INFINITY;
                let mut argmin = 0usize;
                let mut sign_product = false;
                for (i, &x) in self.scratch[..deg].iter().enumerate() {
                    let mag = x.abs();
                    if x < 0.0 {
                        sign_product = !sign_product;
                    }
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        argmin = i;
                    } else if mag < min2 {
                        min2 = mag;
                    }
                }
                // Write back new messages and update APP in place.
                for (i, e) in range.enumerate() {
                    let mag = if i == argmin { min2 } else { min1 } / self.alpha;
                    let negative = sign_product ^ (self.scratch[i] < 0.0);
                    let new_cb = if negative { -mag } else { mag };
                    let bn = graph.edge_bit(e);
                    self.app[bn] = self.scratch[i] + new_cb;
                    self.cb[e] = new_cb;
                }
            }
            for n in 0..graph.n_bits() {
                self.hard[n] = u8::from(self.app[n] < 0.0);
            }
            iterations += 1;
            if graph.syndrome_ok(&self.hard) {
                converged = true;
                if self.early_stop {
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

impl BlockDecoder for LayeredMinSumDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), 1)
            .map(|frame| self.decode(frame, max_iterations))
            .collect()
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        format!("layered normalized min-sum (alpha={})", self.alpha)
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
    fn converges_on_clean_frames() {
        let code = demo_code();
        let mut dec = LayeredMinSumDecoder::new(code.clone(), 4.0 / 3.0);
        let out = dec.decode(&vec![5.0; code.n()], 10);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn converges_at_least_as_fast_as_flooding_on_average() {
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(30);
        let mut layered_total = 0u32;
        let mut flooding_total = 0u32;
        let mut compared = 0u32;
        for _ in 0..40 {
            // Mild background noise plus a handful of confidently wrong bits.
            let mut llrs: Vec<f32> = (0..code.n())
                .map(|_| 2.5 + rng.gen_range(-0.8f32..0.8))
                .collect();
            for _ in 0..6 {
                llrs[rng.gen_range(0..code.n())] = -2.0;
            }
            let mut layered = LayeredMinSumDecoder::new(code.clone(), 4.0 / 3.0);
            let mut flooding =
                MinSumDecoder::new(code.clone(), MinSumConfig::normalized(4.0 / 3.0));
            let a = layered.decode(&llrs, 50);
            let b = flooding.decode(&llrs, 50);
            if a.converged && b.converged {
                layered_total += a.iterations;
                flooding_total += b.iterations;
                compared += 1;
            }
        }
        assert!(compared >= 10, "too few converging frames to compare");
        assert!(
            layered_total <= flooding_total,
            "layered {layered_total} iters vs flooding {flooding_total}"
        );
    }

    #[test]
    fn state_resets_between_frames() {
        let code = demo_code();
        let mut dec = LayeredMinSumDecoder::new(code.clone(), 1.25);
        let mut rng = StdRng::seed_from_u64(31);
        let noisy: Vec<f32> = (0..code.n()).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let _ = dec.decode(&noisy, 5);
        let out = dec.decode(&vec![5.0; code.n()], 5);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn rejects_alpha_below_one() {
        LayeredMinSumDecoder::new(demo_code(), 0.9);
    }
}
