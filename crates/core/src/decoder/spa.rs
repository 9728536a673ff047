//! Floating-point sum-product (belief propagation) decoder.

use crate::decoder::block::runs;
use crate::decoder::{sign_decision, BlockDecoder, DecodeResult};
use crate::LdpcCode;
use gf2::BitVec;
use std::sync::Arc;

/// Magnitude clamp applied to messages before the tanh transform, keeping
/// `atanh` away from its singularities.
const LLR_CLAMP: f32 = 25.0;
/// Clamp on tanh products before `atanh`.
const TANH_CLAMP: f32 = 1.0 - 1e-7;

/// The reference sum-product ("belief propagation") decoder of the paper's
/// §2.1, with the exact tanh check-node rule.
///
/// This is the error-rate reference that the min-sum approximations are
/// normalized against (§5). It is the slowest but most accurate decoder.
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{SumProductDecoder};
///
/// let code = demo_code();
/// let mut dec = SumProductDecoder::new(code.clone());
/// let out = dec.decode(&vec![3.0; code.n()], 10);
/// assert!(out.converged);
/// ```
pub struct SumProductDecoder {
    code: Arc<LdpcCode>,
    /// Bit→check messages, edge-indexed (check-grouped order).
    bc: Vec<f32>,
    /// Check→bit messages, edge-indexed.
    cb: Vec<f32>,
    /// Per-check scratch: tanh of incoming messages.
    tanh_buf: Vec<f32>,
    /// Per-check scratch: suffix products.
    suffix_buf: Vec<f32>,
    hard: Vec<u8>,
    early_stop: bool,
}

impl SumProductDecoder {
    /// Creates a decoder for the given code with early termination enabled.
    pub fn new(code: Arc<LdpcCode>) -> Self {
        let edges = code.graph().n_edges();
        let max_deg = code.graph().max_cn_degree();
        let n = code.n();
        Self {
            code,
            bc: vec![0.0; edges],
            cb: vec![0.0; edges],
            tanh_buf: vec![0.0; max_deg],
            suffix_buf: vec![0.0; max_deg + 1],
            hard: vec![0; n],
            early_stop: true,
        }
    }

    /// Disables (or re-enables) the zero-syndrome early stop, forcing the
    /// full iteration count as fixed-latency hardware would.
    pub fn with_early_stop(mut self, early_stop: bool) -> Self {
        self.early_stop = early_stop;
        self
    }

    /// The code this decoder operates on.
    pub fn code(&self) -> &Arc<LdpcCode> {
        &self.code
    }

    fn cn_phase(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            let deg = range.len();
            // tanh of each incoming message (clamped for stability).
            for (i, e) in range.clone().enumerate() {
                let x = self.bc[e].clamp(-LLR_CLAMP, LLR_CLAMP);
                self.tanh_buf[i] = (x * 0.5).tanh();
            }
            // Suffix products: suffix[i] = prod_{j >= i} tanh[j].
            self.suffix_buf[deg] = 1.0;
            for i in (0..deg).rev() {
                self.suffix_buf[i] = self.suffix_buf[i + 1] * self.tanh_buf[i];
            }
            // Forward sweep with running prefix.
            let mut prefix = 1.0f32;
            for (i, e) in range.enumerate() {
                let prod = (prefix * self.suffix_buf[i + 1]).clamp(-TANH_CLAMP, TANH_CLAMP);
                self.cb[e] = 2.0 * atanh(prod);
                prefix *= self.tanh_buf[i];
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
                self.bc[e as usize] = (total - self.cb[e as usize]).clamp(-LLR_CLAMP, LLR_CLAMP);
            }
            self.hard[n] = u8::from(total < 0.0);
        }
    }
}

/// Numerically-guarded inverse hyperbolic tangent.
fn atanh(x: f32) -> f32 {
    0.5 * ((1.0 + x) / (1.0 - x)).ln()
}

impl SumProductDecoder {
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
        // Initial bit→check messages carry the channel values.
        for e in 0..graph.n_edges() {
            self.bc[e] = channel_llrs[graph.edge_bit(e)].clamp(-LLR_CLAMP, LLR_CLAMP);
        }
        let mut iterations = 0;
        let mut converged =
            max_iterations == 0 && sign_decision(graph, channel_llrs, &mut self.hard);
        for _ in 0..max_iterations {
            self.cn_phase();
            self.bn_phase(channel_llrs);
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

impl BlockDecoder for SumProductDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), 1)
            .map(|frame| self.decode(frame, max_iterations))
            .collect()
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        "sum-product".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;

    #[test]
    fn atanh_inverts_tanh() {
        for x in [-3.0f32, -0.5, 0.0, 0.5, 3.0] {
            assert!((atanh(x.tanh()) - x).abs() < 1e-4, "x = {x}");
        }
    }

    #[test]
    fn strong_llrs_converge_in_one_iteration() {
        let code = demo_code();
        let mut dec = SumProductDecoder::new(code.clone());
        let out = dec.decode(&vec![8.0; code.n()], 5);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn without_early_stop_runs_all_iterations() {
        let code = demo_code();
        let mut dec = SumProductDecoder::new(code.clone()).with_early_stop(false);
        let out = dec.decode(&vec![8.0; code.n()], 7);
        assert_eq!(out.iterations, 7);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn repeated_decoding_reuses_state_correctly() {
        let code = demo_code();
        let mut dec = SumProductDecoder::new(code.clone());
        let llrs_bad: Vec<f32> = (0..code.n())
            .map(|i| if i % 3 == 0 { -1.0 } else { 2.0 })
            .collect();
        let _ = dec.decode(&llrs_bad, 3);
        // A clean frame right after must decode perfectly (no state leak).
        let out = dec.decode(&vec![6.0; code.n()], 5);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn extreme_llrs_do_not_produce_nan() {
        let code = demo_code();
        let mut dec = SumProductDecoder::new(code.clone());
        let llrs: Vec<f32> = (0..code.n())
            .map(|i| if i % 2 == 0 { 1e9 } else { -1e9 })
            .collect();
        let out = dec.decode(&llrs, 5);
        // Whatever the outcome, the decoder must remain finite/deterministic.
        assert_eq!(out.hard_decision.len(), code.n());
    }
}
