//! Erasure peeling with inactivation fallback — the fountain-code-style
//! decoder for packet-loss workloads.
//!
//! RaptorQ-class codes recover lost packets with *peeling*: any parity
//! check with exactly one erased neighbor determines that neighbor as the
//! XOR of its known ones, and each recovery can unlock further checks.
//! When peeling stalls (no degree-1 check remains), production solvers
//! "inactivate" the residual unknowns and finish with dense Gaussian
//! elimination over GF(2). [`PeelingDecoder`] brings that algorithm to
//! the workspace's LDPC codes so the C2/AR4JA soft-decision machinery can
//! be compared head-to-head against a pure erasure solver on the same
//! erasure and burst channels.
//!
//! Soft input is mapped to the erasure domain by an adaptive threshold:
//! a symbol is *erased* when its LLR magnitude falls below
//! [`PEELING_ERASURE_FRACTION`] of the frame's mean magnitude (an exact
//! zero is always an erasure), and *known* with the sign's hard decision
//! otherwise. On a true erasure channel — zero LLRs for lost symbols,
//! full-confidence values elsewhere — this classifies every symbol
//! exactly. Known symbols are never revised, so the decoder reports
//! convergence only when the final word satisfies every parity check:
//! success always means a valid codeword, even under channels that flip
//! bits instead of erasing them.

use crate::decoder::block::runs;
use crate::decoder::{BlockDecoder, DecodeResult};
use crate::LdpcCode;
use gf2::BitVec;
use std::sync::Arc;

/// Fraction of the frame's mean LLR magnitude below which a symbol is
/// treated as erased by [`PeelingDecoder`].
pub const PEELING_ERASURE_FRACTION: f32 = 0.3;

/// Degree-1 erasure peeling with dense GF(2) inactivation fallback.
///
/// Each peeling sweep over the checks counts as one iteration; the
/// fallback elimination, when it runs, counts as one more. The decoder
/// is deterministic and, like every other family, reports `converged`
/// only for words with a zero syndrome.
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::decoder::{PeelingDecoder};
///
/// let code = demo_code();
/// let mut dec = PeelingDecoder::new(code.clone());
/// // A handful of erasures (zero LLR) in an otherwise certain frame.
/// let mut llrs = vec![8.0; code.n()];
/// for i in [3, 40, 77, 200] {
///     llrs[i] = 0.0;
/// }
/// let out = dec.decode(&llrs, 10);
/// assert!(out.converged);
/// assert!(out.hard_decision.is_zero());
/// ```
pub struct PeelingDecoder {
    code: Arc<LdpcCode>,
    hard: Vec<u8>,
    erased: Vec<bool>,
}

impl PeelingDecoder {
    /// Creates a peeling decoder for `code`.
    pub fn new(code: Arc<LdpcCode>) -> Self {
        let n = code.n();
        Self {
            code,
            hard: vec![0; n],
            erased: vec![false; n],
        }
    }

    /// Resolves the remaining erasures by dense Gaussian elimination over
    /// GF(2): one row per check touching an erased bit (unknowns = the
    /// erased positions, right-hand side = the XOR of the check's known
    /// neighbors), free variables set to zero. The subsequent syndrome
    /// check validates whatever assignment comes out, so an inconsistent
    /// or underdetermined system can never masquerade as success.
    fn solve_inactivated(&mut self, graph: &crate::TannerGraph) {
        let unknowns: Vec<usize> = (0..graph.n_bits()).filter(|&i| self.erased[i]).collect();
        if unknowns.is_empty() {
            return;
        }
        let mut column_of = vec![usize::MAX; graph.n_bits()];
        for (col, &bit) in unknowns.iter().enumerate() {
            column_of[bit] = col;
        }
        let words = unknowns.len().div_ceil(64);
        // Row layout: `words` mask words then one RHS bit in the LSB of
        // an extra word.
        let mut rows: Vec<Vec<u64>> = Vec::new();
        for m in 0..graph.n_checks() {
            let mut row = vec![0u64; words + 1];
            let mut touches = false;
            let mut rhs = 0u64;
            for &bn in graph.cn_bits(m) {
                let bit = bn as usize;
                let col = column_of[bit];
                if col != usize::MAX {
                    row[col / 64] ^= 1u64 << (col % 64);
                    touches = true;
                } else {
                    rhs ^= u64::from(self.hard[bit]);
                }
            }
            if touches {
                row[words] = rhs;
                rows.push(row);
            }
        }
        // Forward elimination to row echelon form, pivoting per column.
        let mut solution = vec![0u8; unknowns.len()];
        let mut pivot_row = 0usize;
        let mut pivots: Vec<(usize, usize)> = Vec::new(); // (row, col)
        for col in 0..unknowns.len() {
            let (w, b) = (col / 64, 1u64 << (col % 64));
            let Some(r) = (pivot_row..rows.len()).find(|&r| rows[r][w] & b != 0) else {
                continue; // free variable: stays zero
            };
            rows.swap(pivot_row, r);
            let pivot = rows[pivot_row].clone();
            for row in rows.iter_mut().skip(pivot_row + 1) {
                if row[w] & b != 0 {
                    for (dst, src) in row.iter_mut().zip(&pivot) {
                        *dst ^= src;
                    }
                }
            }
            pivots.push((pivot_row, col));
            pivot_row += 1;
            if pivot_row == rows.len() {
                break;
            }
        }
        // Back substitution in reverse pivot order.
        for &(r, col) in pivots.iter().rev() {
            let mut value = rows[r][words] & 1;
            for c in col + 1..unknowns.len() {
                if rows[r][c / 64] & (1u64 << (c % 64)) != 0 {
                    value ^= u64::from(solution[c]);
                }
            }
            solution[col] = value as u8;
        }
        for (col, &bit) in unknowns.iter().enumerate() {
            self.hard[bit] = solution[col];
            self.erased[bit] = false;
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
        let mean_magnitude =
            channel_llrs.iter().map(|l| l.abs()).sum::<f32>() / channel_llrs.len() as f32;
        let threshold = PEELING_ERASURE_FRACTION * mean_magnitude;
        let mut remaining = 0usize;
        for (i, &llr) in channel_llrs.iter().enumerate() {
            self.hard[i] = u8::from(llr < 0.0);
            self.erased[i] = llr == 0.0 || llr.abs() < threshold;
            remaining += usize::from(self.erased[i]);
        }
        let mut iterations = 0u32;
        // Phase 1: degree-1 peeling. Each sweep resolves every check with
        // exactly one erased neighbor; resolutions cascade within the
        // sweep because counts are recomputed per check.
        while remaining > 0 && iterations < max_iterations {
            let mut progressed = false;
            for m in 0..graph.n_checks() {
                let mut erased_neighbor = None;
                let mut parity = 0u8;
                let mut erased_count = 0u32;
                for &bn in graph.cn_bits(m) {
                    let bit = bn as usize;
                    if self.erased[bit] {
                        erased_count += 1;
                        erased_neighbor = Some(bit);
                    } else {
                        parity ^= self.hard[bit];
                    }
                }
                if erased_count == 1 {
                    let bit = erased_neighbor.expect("count == 1 implies a neighbor");
                    self.hard[bit] = parity;
                    self.erased[bit] = false;
                    remaining -= 1;
                    progressed = true;
                }
            }
            iterations += 1;
            if !progressed {
                break;
            }
        }
        // Phase 2: inactivation fallback for whatever peeling left.
        if remaining > 0 && iterations < max_iterations {
            self.solve_inactivated(graph);
            remaining = 0;
            iterations += 1;
        }
        let converged = remaining == 0 && graph.syndrome_ok(&self.hard);
        DecodeResult {
            hard_decision: BitVec::from_bits(&self.hard),
            iterations,
            converged,
        }
    }
}

impl BlockDecoder for PeelingDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), 1)
            .map(|frame| self.decode(frame, max_iterations))
            .collect()
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        "peeling".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::Encoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn clean_frame_passes_through() {
        let code = demo_code();
        let mut dec = PeelingDecoder::new(code.clone());
        let out = dec.decode(&vec![4.0; code.n()], 10);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn peels_scattered_erasures() {
        let code = demo_code();
        let mut llrs = vec![6.0f32; code.n()];
        for i in (0..code.n()).step_by(17) {
            llrs[i] = 0.0;
        }
        let mut dec = PeelingDecoder::new(code.clone());
        let out = dec.decode(&llrs, 20);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
        assert!(out.iterations >= 1);
    }

    #[test]
    fn recovers_erased_random_codeword() {
        let code = demo_code();
        let enc = Encoder::new(&code).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let msg: Vec<u8> = (0..enc.dimension())
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let cw = enc.encode_bits(&msg).unwrap();
        let mut llrs: Vec<f32> = (0..code.n())
            .map(|i| if cw.get(i) { -6.0 } else { 6.0 })
            .collect();
        // 10% random erasures.
        for _ in 0..code.n() / 10 {
            let i = rng.gen_range(0..code.n());
            llrs[i] = 0.0;
        }
        let mut dec = PeelingDecoder::new(code.clone());
        let out = dec.decode(&llrs, 20);
        assert!(out.converged);
        assert_eq!(out.hard_decision, cw);
    }

    #[test]
    fn inactivation_solves_what_peeling_cannot() {
        // Erase every neighbor of a few checks so no degree-1 check
        // exists among them; dense heavy erasure patterns exercise the
        // GF(2) fallback. At 35% erasures peeling alone stalls with high
        // probability on a column-weight-4 code.
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(5);
        let mut llrs = vec![6.0f32; code.n()];
        let mut erased = 0;
        for llr in llrs.iter_mut() {
            if rng.gen_bool(0.35) {
                *llr = 0.0;
                erased += 1;
            }
        }
        assert!(erased > 60, "pattern not dense enough to be interesting");
        let mut dec = PeelingDecoder::new(code.clone());
        let out = dec.decode(&llrs, 30);
        assert!(out.converged, "inactivation failed at {erased} erasures");
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn flipped_known_bits_fail_honestly() {
        // Peeling trusts known symbols; a high-confidence flip must
        // surface as non-convergence, never as a "successful" wrong word.
        let code = demo_code();
        let mut llrs = vec![6.0f32; code.n()];
        llrs[42] = -6.0;
        let mut dec = PeelingDecoder::new(code.clone());
        let out = dec.decode(&llrs, 20);
        assert!(!out.converged);
    }

    #[test]
    fn soft_awgn_like_input_erases_the_weak_symbols() {
        // Mild noise around ±4 with a couple of near-zero symbols: the
        // adaptive threshold must erase exactly the weak ones and the
        // decoder recovers them.
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(8);
        let mut llrs: Vec<f32> = (0..code.n())
            .map(|_| 4.0 + rng.gen_range(-1.0f32..1.0))
            .collect();
        llrs[10] = 0.3;
        llrs[99] = -0.2;
        let mut dec = PeelingDecoder::new(code.clone());
        let out = dec.decode(&llrs, 20);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn zero_iteration_budget_reports_unconverged_on_erasures() {
        let code = demo_code();
        let mut llrs = vec![5.0f32; code.n()];
        llrs[0] = 0.0;
        let mut dec = PeelingDecoder::new(code.clone());
        let out = dec.decode(&llrs, 0);
        assert!(!out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn decode_is_deterministic() {
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(30);
        let llrs: Vec<f32> = (0..code.n())
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(1.0f32..8.0)
                }
            })
            .collect();
        let a = PeelingDecoder::new(code.clone()).decode(&llrs, 20);
        let b = PeelingDecoder::new(code.clone()).decode(&llrs, 20);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_length_panics() {
        PeelingDecoder::new(demo_code()).decode(&[0.0; 3], 5);
    }
}
