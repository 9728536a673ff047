//! Hard-decision baselines: Gallager-B and weighted bit-flipping.
//!
//! These are the classical low-complexity alternatives that hardware
//! papers (including this one's references) compare message-passing
//! decoders against. They operate on hard decisions only, so they need a
//! fraction of the logic of a min-sum datapath but give up a substantial
//! part of the coding gain — the benchmark harness quantifies exactly how
//! much on the C2 code structure.

use crate::decoder::block::runs;
use crate::decoder::{BlockDecoder, DecodeResult, DecodeTrace, IterationStats};
use crate::LdpcCode;
use gf2::BitVec;
use std::sync::Arc;

/// Number of unsatisfied parity checks of a hard-decision word.
fn unsatisfied_count(graph: &crate::TannerGraph, hard: &[u8]) -> usize {
    (0..graph.n_checks())
        .filter(|&m| {
            let mut parity = 0u8;
            for &bn in graph.cn_bits(m) {
                parity ^= hard[bn as usize];
            }
            parity != 0
        })
        .count()
}

/// Gallager-B hard-decision decoder.
///
/// Each iteration computes every parity check on the current hard
/// decisions and flips the bits that participate in at least
/// `flip_threshold` unsatisfied checks. With the C2 column weight of 4,
/// a threshold of 3 is the classical majority rule.
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::decoder::{GallagerBDecoder};
///
/// let code = demo_code();
/// let mut dec = GallagerBDecoder::new(code.clone(), 3);
/// let out = dec.decode(&vec![2.0; code.n()], 10);
/// assert!(out.converged);
/// ```
pub struct GallagerBDecoder {
    code: Arc<LdpcCode>,
    flip_threshold: usize,
    hard: Vec<u8>,
    unsatisfied: Vec<u8>,
}

impl GallagerBDecoder {
    /// Creates a decoder flipping bits with ≥ `flip_threshold` failing
    /// checks.
    ///
    /// # Panics
    ///
    /// Panics if `flip_threshold` is zero.
    pub fn new(code: Arc<LdpcCode>, flip_threshold: usize) -> Self {
        assert!(flip_threshold > 0, "flip threshold must be positive");
        let n = code.n();
        let m = code.n_checks();
        Self {
            code,
            flip_threshold,
            hard: vec![0; n],
            unsatisfied: vec![0; m],
        }
    }

    /// The flip threshold.
    pub fn flip_threshold(&self) -> usize {
        self.flip_threshold
    }

    /// Decodes one frame while recording per-iteration statistics in the
    /// same [`IterationStats`] format the soft decoders report (see
    /// [`FixedDecoder::decode_quantized_traced`](crate::FixedDecoder::decode_quantized_traced)):
    /// unsatisfied checks after the iteration and hard-decision flips per
    /// iteration. Hard-decision decoding has no saturating datapath, so
    /// `saturated_fraction` is always `0.0`.
    ///
    /// The [`DecodeResult`] is identical to [`decode`](Self::decode)'s.
    ///
    /// # Panics
    ///
    /// Panics if `channel_llrs.len()` differs from the code length.
    pub fn decode_traced(
        &mut self,
        channel_llrs: &[f32],
        max_iterations: u32,
    ) -> (DecodeResult, DecodeTrace) {
        let mut trace = DecodeTrace::default();
        let result = self.decode_impl(channel_llrs, max_iterations, Some(&mut trace));
        (result, trace)
    }

    fn decode_impl(
        &mut self,
        channel_llrs: &[f32],
        max_iterations: u32,
        mut trace: Option<&mut DecodeTrace>,
    ) -> DecodeResult {
        let code = self.code.clone();
        let graph = code.graph();
        assert_eq!(
            channel_llrs.len(),
            graph.n_bits(),
            "channel LLR length mismatch"
        );
        for (h, &llr) in self.hard.iter_mut().zip(channel_llrs) {
            *h = u8::from(llr < 0.0);
        }
        let mut iterations = 0;
        let mut converged = graph.syndrome_ok(&self.hard);
        while iterations < max_iterations && !converged {
            // Evaluate all checks.
            let mut any_unsatisfied = false;
            for m in 0..graph.n_checks() {
                let mut parity = 0u8;
                for &bn in graph.cn_bits(m) {
                    parity ^= self.hard[bn as usize];
                }
                self.unsatisfied[m] = parity;
                any_unsatisfied |= parity != 0;
            }
            if !any_unsatisfied {
                converged = true;
                break;
            }
            // Flip bits with enough failing checks.
            let mut flips = 0usize;
            for n in 0..graph.n_bits() {
                let fails = graph
                    .bn_checks(n)
                    .iter()
                    .filter(|&&m| self.unsatisfied[m as usize] != 0)
                    .count();
                if fails >= self.flip_threshold {
                    self.hard[n] ^= 1;
                    flips += 1;
                }
            }
            iterations += 1;
            match trace.as_deref_mut() {
                Some(t) => {
                    let unsat = unsatisfied_count(graph, &self.hard);
                    converged = unsat == 0;
                    t.iterations.push(IterationStats {
                        unsatisfied_checks: unsat,
                        bit_flips: flips,
                        saturated_fraction: 0.0,
                    });
                }
                None => converged = graph.syndrome_ok(&self.hard),
            }
            if flips == 0 {
                break; // stalled: no bit met the threshold
            }
        }
        DecodeResult {
            hard_decision: BitVec::from_bits(&self.hard),
            iterations,
            converged,
        }
    }

    /// Decodes one frame of channel LLRs — the per-frame form of
    /// [`BlockDecoder::decode_block`].
    ///
    /// # Panics
    ///
    /// Panics if `channel_llrs.len()` differs from the code length.
    pub fn decode(&mut self, channel_llrs: &[f32], max_iterations: u32) -> DecodeResult {
        self.decode_impl(channel_llrs, max_iterations, None)
    }
}

impl BlockDecoder for GallagerBDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), 1)
            .map(|frame| self.decode(frame, max_iterations))
            .collect()
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        format!("gallager-b (t={})", self.flip_threshold)
    }
}

/// Weighted bit-flipping decoder.
///
/// Each bit accumulates a flip metric combining the number of failing
/// checks it touches with the (magnitude of the) channel LLR holding it in
/// place; per iteration the single worst bit is flipped. Slower to
/// converge than Gallager-B but noticeably better at equal hardware cost,
/// since it reuses the channel reliabilities.
pub struct WeightedBitFlipDecoder {
    code: Arc<LdpcCode>,
    hard: Vec<u8>,
    unsatisfied: Vec<u8>,
}

impl WeightedBitFlipDecoder {
    /// Creates a weighted bit-flipping decoder.
    pub fn new(code: Arc<LdpcCode>) -> Self {
        let n = code.n();
        let m = code.n_checks();
        Self {
            code,
            hard: vec![0; n],
            unsatisfied: vec![0; m],
        }
    }
}

impl WeightedBitFlipDecoder {
    /// Decodes one frame while recording per-iteration statistics in the
    /// shared [`IterationStats`] format (see
    /// [`GallagerBDecoder::decode_traced`]); `saturated_fraction` is
    /// always `0.0` for hard-decision decoding.
    ///
    /// # Panics
    ///
    /// Panics if `channel_llrs.len()` differs from the code length.
    pub fn decode_traced(
        &mut self,
        channel_llrs: &[f32],
        max_iterations: u32,
    ) -> (DecodeResult, DecodeTrace) {
        let mut trace = DecodeTrace::default();
        let result = self.decode_impl(channel_llrs, max_iterations, Some(&mut trace));
        (result, trace)
    }

    fn decode_impl(
        &mut self,
        channel_llrs: &[f32],
        max_iterations: u32,
        mut trace: Option<&mut DecodeTrace>,
    ) -> DecodeResult {
        let code = self.code.clone();
        let graph = code.graph();
        assert_eq!(
            channel_llrs.len(),
            graph.n_bits(),
            "channel LLR length mismatch"
        );
        for (h, &llr) in self.hard.iter_mut().zip(channel_llrs) {
            *h = u8::from(llr < 0.0);
        }
        let mut iterations = 0;
        let mut converged = graph.syndrome_ok(&self.hard);
        while iterations < max_iterations && !converged {
            for m in 0..graph.n_checks() {
                let mut parity = 0u8;
                for &bn in graph.cn_bits(m) {
                    parity ^= self.hard[bn as usize];
                }
                self.unsatisfied[m] = parity;
            }
            // Flip metric: failing checks minus a reliability penalty.
            let mut best_bit = None;
            let mut best_metric = f32::NEG_INFINITY;
            #[allow(clippy::needless_range_loop)] // n indexes llrs and the graph
            for n in 0..graph.n_bits() {
                let fails = graph
                    .bn_checks(n)
                    .iter()
                    .filter(|&&m| self.unsatisfied[m as usize] != 0)
                    .count() as f32;
                let metric = fails - channel_llrs[n].abs() * 0.5;
                if metric > best_metric {
                    best_metric = metric;
                    best_bit = Some(n);
                }
            }
            if let Some(bit) = best_bit {
                self.hard[bit] ^= 1;
            }
            iterations += 1;
            match trace.as_deref_mut() {
                Some(t) => {
                    let unsat = unsatisfied_count(graph, &self.hard);
                    converged = unsat == 0;
                    t.iterations.push(IterationStats {
                        unsatisfied_checks: unsat,
                        bit_flips: usize::from(best_bit.is_some()),
                        saturated_fraction: 0.0,
                    });
                }
                None => converged = graph.syndrome_ok(&self.hard),
            }
        }
        DecodeResult {
            hard_decision: BitVec::from_bits(&self.hard),
            iterations,
            converged,
        }
    }

    /// Decodes one frame of channel LLRs — the per-frame form of
    /// [`BlockDecoder::decode_block`].
    ///
    /// # Panics
    ///
    /// Panics if `channel_llrs.len()` differs from the code length.
    pub fn decode(&mut self, channel_llrs: &[f32], max_iterations: u32) -> DecodeResult {
        self.decode_impl(channel_llrs, max_iterations, None)
    }
}

impl BlockDecoder for WeightedBitFlipDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), 1)
            .map(|frame| self.decode(frame, max_iterations))
            .collect()
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        "weighted bit-flip".to_owned()
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
    fn clean_frames_pass_through_unchanged() {
        let code = demo_code();
        let llrs = vec![3.0f32; code.n()];
        let mut gb = GallagerBDecoder::new(code.clone(), 3);
        let out = gb.decode(&llrs, 10);
        assert!(out.converged);
        assert_eq!(out.iterations, 0, "no iteration needed on a codeword");
        assert!(out.hard_decision.is_zero());
        let mut wbf = WeightedBitFlipDecoder::new(code.clone());
        let out = wbf.decode(&llrs, 10);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn gallager_b_corrects_isolated_errors() {
        let code = demo_code();
        let mut llrs = vec![3.0f32; code.n()];
        llrs[17] = -3.0; // one hard error
        let mut dec = GallagerBDecoder::new(code.clone(), 3);
        let out = dec.decode(&llrs, 20);
        assert!(out.converged, "single error should be majority-corrected");
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn weighted_bit_flip_corrects_small_bursts() {
        let code = demo_code();
        let mut llrs = vec![3.0f32; code.n()];
        llrs[17] = -1.0;
        llrs[90] = -1.0;
        let mut dec = WeightedBitFlipDecoder::new(code.clone());
        let out = dec.decode(&llrs, 50);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn message_passing_beats_bit_flipping() {
        // The reason the paper builds a min-sum datapath: at moderate
        // noise, min-sum succeeds on frames that defeat Gallager-B.
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(33);
        let mut gb_fail = 0;
        let mut ms_fail = 0;
        for _ in 0..60 {
            let mut llrs: Vec<f32> = (0..code.n())
                .map(|_| 2.0 + rng.gen_range(-0.5f32..0.5))
                .collect();
            for _ in 0..7 {
                llrs[rng.gen_range(0..code.n())] = rng.gen_range(-2.0f32..-0.5);
            }
            let mut gb = GallagerBDecoder::new(code.clone(), 3);
            if !gb.decode(&llrs, 30).converged {
                gb_fail += 1;
            }
            let mut ms = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(4.0 / 3.0));
            if !ms.decode(&llrs, 30).converged {
                ms_fail += 1;
            }
        }
        assert!(
            ms_fail <= gb_fail,
            "min-sum failed {ms_fail} vs gallager-b {gb_fail}"
        );
    }

    #[test]
    fn gallager_b_reports_stall_honestly() {
        // Random garbage: the decoder must terminate (stall or budget) and
        // report non-convergence rather than loop forever.
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(34);
        let llrs: Vec<f32> = (0..code.n())
            .map(|_| if rng.gen_bool(0.5) { 4.0 } else { -4.0 })
            .collect();
        let mut dec = GallagerBDecoder::new(code.clone(), 3);
        let out = dec.decode(&llrs, 50);
        assert!(!out.converged);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        GallagerBDecoder::new(demo_code(), 0);
    }

    #[test]
    fn gallager_b_traced_matches_untraced_and_reports_stats() {
        let code = demo_code();
        let mut llrs = vec![3.0f32; code.n()];
        llrs[17] = -3.0; // one hard error: corrected after >= 1 iteration
        let mut plain = GallagerBDecoder::new(code.clone(), 3);
        let want = plain.decode(&llrs, 20);
        let mut traced = GallagerBDecoder::new(code.clone(), 3);
        let (got, trace) = traced.decode_traced(&llrs, 20);
        assert_eq!(got, want, "tracing must not change the decode");
        // Same reporting contract as the soft decoders: one stats entry
        // per executed iteration, zero syndrome exactly at convergence,
        // and no saturation in a hard-decision datapath.
        assert_eq!(trace.iterations.len() as u32, got.iterations);
        assert!(got.converged);
        assert_eq!(trace.first_zero_syndrome(), Some(got.iterations as usize));
        assert!(trace.iterations[0].bit_flips > 0);
        assert!(trace.iterations.iter().all(|s| s.saturated_fraction == 0.0));
    }

    #[test]
    fn gallager_b_traced_reports_stall_iterations() {
        // Garbage input: the trace must cover every executed iteration and
        // end with a non-zero unsatisfied count.
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(35);
        let llrs: Vec<f32> = (0..code.n())
            .map(|_| if rng.gen_bool(0.5) { 4.0 } else { -4.0 })
            .collect();
        let mut dec = GallagerBDecoder::new(code.clone(), 3);
        let (out, trace) = dec.decode_traced(&llrs, 50);
        assert!(!out.converged);
        assert_eq!(trace.iterations.len() as u32, out.iterations);
        assert!(trace.iterations.last().unwrap().unsatisfied_checks > 0);
        assert_eq!(trace.first_zero_syndrome(), None);
    }

    #[test]
    fn weighted_bit_flip_traced_flips_one_bit_per_iteration() {
        let code = demo_code();
        let mut llrs = vec![3.0f32; code.n()];
        llrs[17] = -1.0;
        llrs[90] = -1.0;
        let mut plain = WeightedBitFlipDecoder::new(code.clone());
        let want = plain.decode(&llrs, 50);
        let mut traced = WeightedBitFlipDecoder::new(code.clone());
        let (got, trace) = traced.decode_traced(&llrs, 50);
        assert_eq!(got, want);
        assert_eq!(trace.iterations.len() as u32, got.iterations);
        assert!(trace.iterations.iter().all(|s| s.bit_flips == 1));
        assert!(trace.iterations.iter().all(|s| s.saturated_fraction == 0.0));
    }
}
