//! Bit-sliced hard-decision decoding: 64 frames per `u64` word.
//!
//! The paper's high-speed architecture packs several frames into every
//! message-memory word so one access feeds one datapath step of each
//! in-flight frame (Table 3). For *hard-decision* decoding that idea
//! reaches its logical extreme: a frame contributes exactly one bit per
//! variable node, so a `u64` word carries **64 frames in lockstep** and
//! every boolean operation advances all of them at once.
//!
//! [`BitsliceGallagerBDecoder`] runs the classical Gallager-B bit-flipping
//! iteration entirely in this word-sliced domain:
//!
//! * **parity planes** — check `m`'s unsatisfied mask is the XOR of the
//!   hard-decision planes of its neighbourhood, one word op per edge;
//! * **majority vote** — the number of failing checks around a bit is
//!   accumulated in saturating carry-save counter planes (`at_least[j]` =
//!   lanes with ≥ j+1 failures), whose top plane is directly the
//!   word-parallel flip mask;
//! * **per-lane convergence mask** — lanes whose syndrome reaches zero,
//!   stall, or exhaust the budget are removed from the active mask, so
//!   finished frames freeze while the rest keep iterating.
//!
//! Every lane follows exactly the trajectory of the scalar
//! [`GallagerBDecoder`](crate::GallagerBDecoder) on that frame alone —
//! same flips, same iteration count, same convergence flag — which the
//! unit tests, proptests, and the `decoder_conformance` suite pin down.
//! The word width is a constant of the machine, not the algorithm: the
//! same plane walk widens to `u128` or SIMD registers.

use crate::decoder::block::runs;
use crate::decoder::{BlockDecoder, DecodeResult};
use crate::LdpcCode;
use gf2::{BitSlices, BitVec, WORD_LANES};
use std::sync::Arc;

/// Bit-sliced Gallager-B hard-decision decoder: up to 64 frames per call,
/// one `u64` lane word per bit position.
///
/// Per lane the decoder is **bit-exact** against the scalar
/// [`GallagerBDecoder`](crate::GallagerBDecoder) with the same flip
/// threshold — it differs only in doing the work of the whole word at
/// once. Partial words (fewer than 64 frames) are handled by masking the
/// unused lanes out of every vote.
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::BitsliceGallagerBDecoder;
///
/// let code = demo_code();
/// let mut dec = BitsliceGallagerBDecoder::new(code.clone(), 3);
/// // Ten noiseless all-zero frames share one lane word.
/// let llrs = vec![2.0_f32; 10 * code.n()];
/// let out = dec.decode_batch(&llrs, 10);
/// assert_eq!(out.len(), 10);
/// assert!(out.iter().all(|r| r.converged && r.iterations == 0));
/// ```
pub struct BitsliceGallagerBDecoder {
    code: Arc<LdpcCode>,
    flip_threshold: usize,
    /// Hard-decision planes: `hard[b]` lane `f` = frame `f`'s bit `b`.
    hard: Vec<u64>,
    /// Unsatisfied-check planes, one word per check node.
    unsat: Vec<u64>,
    /// Saturating carry-save counter planes: `at_least[j]` accumulates
    /// the lanes with ≥ `j + 1` failing checks around the current bit.
    at_least: Vec<u64>,
}

impl BitsliceGallagerBDecoder {
    /// Creates a bit-sliced decoder flipping bits with ≥ `flip_threshold`
    /// failing checks (same rule as the scalar decoder).
    ///
    /// # Panics
    ///
    /// Panics if `flip_threshold` is zero.
    pub fn new(code: Arc<LdpcCode>, flip_threshold: usize) -> Self {
        assert!(flip_threshold > 0, "flip threshold must be positive");
        let n = code.n();
        let m = code.n_checks();
        // The counter saturates at the threshold: counts beyond it flip
        // just the same. A threshold above every bit degree can never
        // flip, so the counter is not needed at all then.
        let deg = code.graph().max_bn_degree();
        Self {
            code,
            flip_threshold,
            hard: vec![0; n],
            unsat: vec![0; m],
            at_least: vec![0; flip_threshold.min(deg + 1)],
        }
    }

    /// The flip threshold.
    pub fn flip_threshold(&self) -> usize {
        self.flip_threshold
    }

    /// The code this decoder operates on.
    pub fn code(&self) -> &Arc<LdpcCode> {
        &self.code
    }

    /// Decodes up to 64 word-sliced hard-decision frames.
    ///
    /// `slices` holds the channel hard decisions (1 = received bit 1) in
    /// plane form — see [`BitSlices::from_frames`]. Returns one
    /// [`DecodeResult`] per frame, in lane order, each identical to what
    /// the scalar Gallager-B decoder produces on that frame alone.
    ///
    /// # Panics
    ///
    /// Panics if `slices.bits()` differs from the code length or if the
    /// frame count is zero or exceeds 64.
    pub fn decode_hard_slices(
        &mut self,
        slices: &BitSlices,
        max_iterations: u32,
    ) -> Vec<DecodeResult> {
        let n = self.code.n();
        assert_eq!(slices.bits(), n, "sliced frame length mismatch");
        let frames = slices.frames();
        assert!(
            (1..=WORD_LANES).contains(&frames),
            "bitslice decodes 1..=64 frames per word, got {frames}"
        );
        for b in 0..n {
            self.hard[b] = slices.plane(b)[0];
        }
        self.decode_planes(frames, max_iterations)
    }

    /// The lockstep Gallager-B iteration over the already-loaded planes.
    fn decode_planes(&mut self, frames: usize, max_iterations: u32) -> Vec<DecodeResult> {
        let code = self.code.clone();
        let graph = code.graph();
        let full: u64 = if frames == WORD_LANES {
            u64::MAX
        } else {
            (1u64 << frames) - 1
        };
        let mut active = full;
        let mut converged = 0u64;
        let mut retire_iter = vec![0u32; frames];
        let mut iter = 0u32;
        loop {
            // Parity planes: check m's unsatisfied lanes in one XOR chain.
            let mut unsat_any = 0u64;
            for m in 0..graph.n_checks() {
                let mut parity = 0u64;
                for &bn in graph.cn_bits(m) {
                    parity ^= self.hard[bn as usize];
                }
                self.unsat[m] = parity;
                unsat_any |= parity;
            }
            // Lanes with a clean syndrome converge (scalar: bottom-of-loop
            // syndrome check / the pre-loop check when iter == 0).
            let newly = active & !unsat_any;
            if newly != 0 {
                converged |= newly;
                active &= !newly;
                record_retirement(&mut retire_iter, newly, iter);
            }
            if active == 0 || iter == max_iterations {
                record_retirement(&mut retire_iter, active, iter);
                break;
            }
            // Majority vote: a saturating carry-save counter network per
            // bit. `at_least[j]` accumulates the lanes where ≥ j+1 of
            // the neighbourhood checks fail — branchless word ops only —
            // and the top plane *is* the flip mask, no comparator needed.
            // Flips are masked to active lanes, so finished frames stay
            // frozen. Common thresholds get a fully unrolled counter in
            // registers; a threshold above every bit degree can never
            // flip, so all active lanes stall after this flipless pass.
            let flipped_any = if self.flip_threshold <= graph.max_bn_degree() {
                match self.flip_threshold {
                    1 => self.flip_phase::<1>(active),
                    2 => self.flip_phase::<2>(active),
                    3 => self.flip_phase::<3>(active),
                    4 => self.flip_phase::<4>(active),
                    5 => self.flip_phase::<5>(active),
                    6 => self.flip_phase::<6>(active),
                    _ => self.flip_phase_generic(active),
                }
            } else {
                0
            };
            iter += 1;
            // Lanes where no bit met the threshold have stalled: the
            // scalar decoder breaks after this iteration, unconverged
            // (its syndrome is unchanged, hence still non-zero).
            let stalled = active & !flipped_any;
            if stalled != 0 {
                active &= !stalled;
                record_retirement(&mut retire_iter, stalled, iter);
                if active == 0 {
                    break; // skip the now-pointless loop-top parity sweep
                }
            }
        }
        // Transpose the final planes back to per-frame hard decisions,
        // one 64×64 block at a time, straight into packed words.
        let n = self.code.n();
        let words_per_frame = n.div_ceil(WORD_LANES);
        let mut frame_words = vec![vec![0u64; words_per_frame]; frames];
        let mut block = [0u64; WORD_LANES];
        for w in 0..words_per_frame {
            let lo = w * WORD_LANES;
            let hi = (lo + WORD_LANES).min(n);
            block[..hi - lo].copy_from_slice(&self.hard[lo..hi]);
            block[hi - lo..].fill(0);
            transpose64(&mut block);
            for (f, words) in frame_words.iter_mut().enumerate() {
                words[w] = block[f];
            }
        }
        frame_words
            .into_iter()
            .enumerate()
            .map(|(f, words)| DecodeResult {
                hard_decision: BitVec::from_words(n, words),
                iterations: retire_iter[f],
                converged: (converged >> f) & 1 == 1,
            })
            .collect()
    }

    /// Flip phase with the counter depth `T` known at compile time: the
    /// `at_least` planes live in registers and the update unrolls fully.
    fn flip_phase<const T: usize>(&mut self, active: u64) -> u64 {
        let code = self.code.clone();
        let graph = code.graph();
        let mut flipped_any = 0u64;
        for b in 0..graph.n_bits() {
            let mut acc = [0u64; T];
            for &m in graph.bn_checks(b) {
                let x = self.unsat[m as usize];
                for j in (1..T).rev() {
                    acc[j] |= acc[j - 1] & x;
                }
                acc[0] |= x;
            }
            let flip = acc[T - 1] & active;
            self.hard[b] ^= flip;
            flipped_any |= flip;
        }
        flipped_any
    }

    /// Flip phase for uncommon (large) thresholds: same counter network
    /// with the planes in the reusable `at_least` buffer.
    fn flip_phase_generic(&mut self, active: u64) -> u64 {
        let code = self.code.clone();
        let graph = code.graph();
        let t = self.flip_threshold;
        let mut flipped_any = 0u64;
        for b in 0..graph.n_bits() {
            self.at_least[..t].fill(0);
            for &m in graph.bn_checks(b) {
                let x = self.unsat[m as usize];
                for j in (1..t).rev() {
                    self.at_least[j] |= self.at_least[j - 1] & x;
                }
                self.at_least[0] |= x;
            }
            let flip = self.at_least[t - 1] & active;
            self.hard[b] ^= flip;
            flipped_any |= flip;
        }
        flipped_any
    }
}

/// In-place transpose of a 64×64 bit matrix stored as one `u64` per row
/// (LSB-first columns): afterwards row `f` bit `i` holds the old row `i`
/// bit `f`. The classic recursive block-swap (Hacker's Delight §7-3),
/// with the off-diagonal exchange oriented for LSB-first columns.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            // Swap the high-column half of row k with the low-column
            // half of row k+j (both halves land transposed).
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Stamps the retirement iteration of every lane in `mask`.
fn record_retirement(retire_iter: &mut [u32], mask: u64, iter: u32) {
    let mut m = mask;
    while m != 0 {
        let f = m.trailing_zeros() as usize;
        m &= m - 1;
        retire_iter[f] = iter;
    }
}

impl BitsliceGallagerBDecoder {
    /// Decodes between 1 and 64 frames stored back to back (frame `f`
    /// occupies `llrs[f*n .. (f+1)*n]`) as one lane word.
    ///
    /// Returns one [`DecodeResult`] per frame, in input order, each
    /// bit-identical to [`GallagerBDecoder`](crate::GallagerBDecoder) on
    /// that frame alone. [`BlockDecoder::decode_block`] takes any number
    /// of frames and splits them into words.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a positive multiple of the code
    /// length, or if the frame count exceeds 64.
    pub fn decode_batch(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        let n = self.code.n();
        assert!(
            !llrs.is_empty() && llrs.len().is_multiple_of(n),
            "LLR length must be a positive multiple of the code length"
        );
        let frames = llrs.len() / n;
        assert!(
            frames <= WORD_LANES,
            "batch of {frames} frames exceeds capacity {WORD_LANES}"
        );
        // Hard decisions straight into plane form: the same `llr < 0`
        // slicing rule as the scalar decoder, one lane bit per frame
        // (branchless — noisy-bit branches would mispredict).
        self.hard.fill(0);
        for (f, frame) in llrs.chunks_exact(n).enumerate() {
            for (h, &llr) in self.hard.iter_mut().zip(frame) {
                *h |= u64::from(llr < 0.0) << f;
            }
        }
        self.decode_planes(frames, max_iterations)
    }
}

impl BlockDecoder for BitsliceGallagerBDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), WORD_LANES)
            .flat_map(|run| self.decode_batch(run, max_iterations))
            .collect()
    }

    fn block_frames(&self) -> usize {
        WORD_LANES
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        format!("bitsliced gallager-b (t={})", self.flip_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::decoder::GallagerBDecoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Mixed-quality LLR frames: clean, single-error, bursty, garbage.
    fn mixed_frames(frames: usize, seed: u64) -> Vec<f32> {
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut llrs = Vec::with_capacity(frames * code.n());
        for f in 0..frames {
            for b in 0..code.n() {
                let v = match f % 4 {
                    0 => 3.0,
                    1 => {
                        if b == (f * 13) % code.n() {
                            -2.0
                        } else {
                            3.0
                        }
                    }
                    2 => 2.0 + rng.gen_range(-2.5f32..0.5),
                    _ => rng.gen_range(-3.0f32..3.0),
                };
                llrs.push(v);
            }
        }
        llrs
    }

    #[test]
    fn transpose64_is_the_bit_transpose() {
        // Deterministic pseudo-random matrix: verify a[f] bit i == old
        // a[i] bit f for every (i, f), and that it is an involution.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut a = [0u64; 64];
        for row in a.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *row = state;
        }
        let orig = a;
        transpose64(&mut a);
        for (i, &orig_row) in orig.iter().enumerate() {
            for (f, &row) in a.iter().enumerate() {
                assert_eq!((row >> i) & 1, (orig_row >> f) & 1, "({i},{f})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn threshold_above_degree_stalls_like_scalar() {
        // No bit can ever reach the threshold: both decoders must run
        // exactly one (flipless) iteration and report the stall.
        let code = demo_code();
        let deg = code.graph().max_bn_degree();
        let llrs = mixed_frames(5, 77);
        let mut sliced = BitsliceGallagerBDecoder::new(code.clone(), deg + 1);
        let mut scalar = GallagerBDecoder::new(code.clone(), deg + 1);
        let got = sliced.decode_batch(&llrs, 10);
        let want = scalar.decode_block(&llrs, 10);
        assert_eq!(got, want);
        assert!(got.iter().any(|r| !r.converged && r.iterations == 1));
    }

    #[test]
    fn clean_word_converges_in_zero_iterations() {
        let code = demo_code();
        let mut dec = BitsliceGallagerBDecoder::new(code.clone(), 3);
        let out = dec.decode_batch(&vec![3.0_f32; 64 * code.n()], 10);
        assert_eq!(out.len(), 64);
        for r in out {
            assert!(r.converged);
            assert_eq!(r.iterations, 0);
            assert!(r.hard_decision.is_zero());
        }
    }

    #[test]
    fn bit_exact_against_scalar_over_mixed_word() {
        let code = demo_code();
        for (frames, seed) in [(64usize, 1u64), (17, 2), (1, 3)] {
            let llrs = mixed_frames(frames, seed);
            let mut sliced = BitsliceGallagerBDecoder::new(code.clone(), 3);
            let mut scalar = GallagerBDecoder::new(code.clone(), 3);
            let got = sliced.decode_batch(&llrs, 20);
            let want = scalar.decode_block(&llrs, 20);
            assert_eq!(got, want, "frames={frames} seed={seed}");
        }
    }

    #[test]
    fn decode_hard_slices_matches_decode_batch() {
        let code = demo_code();
        let llrs = mixed_frames(9, 5);
        let frames: Vec<BitVec> = llrs
            .chunks_exact(code.n())
            .map(|frame| frame.iter().map(|&l| l < 0.0).collect())
            .collect();
        let slices = BitSlices::from_frames(&frames);
        let mut a = BitsliceGallagerBDecoder::new(code.clone(), 3);
        let mut b = BitsliceGallagerBDecoder::new(code.clone(), 3);
        assert_eq!(a.decode_hard_slices(&slices, 15), b.decode_batch(&llrs, 15));
    }

    #[test]
    fn finished_lanes_freeze_while_others_iterate() {
        let code = demo_code();
        // Lane 0 clean, lane 1 garbage: lane 0 must retire at iteration 0
        // with its decision untouched by lane 1's ongoing flips.
        let mut llrs = vec![4.0_f32; 2 * code.n()];
        let mut rng = StdRng::seed_from_u64(8);
        for v in llrs[code.n()..].iter_mut() {
            *v = if rng.gen_bool(0.5) { 4.0 } else { -4.0 };
        }
        let mut dec = BitsliceGallagerBDecoder::new(code.clone(), 3);
        let out = dec.decode_batch(&llrs, 30);
        assert!(out[0].converged);
        assert_eq!(out[0].iterations, 0);
        assert!(out[0].hard_decision.is_zero());
        if !out[1].converged {
            assert!(out[1].iterations >= 1);
        }
    }

    #[test]
    fn stall_reported_per_lane_like_scalar() {
        let code = demo_code();
        let llrs = mixed_frames(32, 44);
        let mut sliced = BitsliceGallagerBDecoder::new(code.clone(), 3);
        let got = sliced.decode_batch(&llrs, 50);
        let mut scalar = GallagerBDecoder::new(code.clone(), 3);
        for (f, r) in got.iter().enumerate() {
            let want = scalar.decode(&llrs[f * code.n()..(f + 1) * code.n()], 50);
            assert_eq!(r.iterations, want.iterations, "lane {f}");
            assert_eq!(r.converged, want.converged, "lane {f}");
        }
        // The mixed corpus must actually exercise a stall (early
        // unconverged retirement) for this test to mean anything.
        assert!(got.iter().any(|r| !r.converged && r.iterations < 50));
    }

    #[test]
    fn results_stable_across_reuse() {
        let code = demo_code();
        let llrs = mixed_frames(20, 6);
        let mut dec = BitsliceGallagerBDecoder::new(code.clone(), 3);
        let a = dec.decode_batch(&llrs, 12);
        let b = dec.decode_batch(&llrs, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_iteration_budget_matches_scalar() {
        let code = demo_code();
        let llrs = mixed_frames(7, 9);
        let mut sliced = BitsliceGallagerBDecoder::new(code.clone(), 3);
        let mut scalar = GallagerBDecoder::new(code.clone(), 3);
        assert_eq!(sliced.decode_batch(&llrs, 0), scalar.decode_block(&llrs, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_word_panics() {
        let code = demo_code();
        let mut dec = BitsliceGallagerBDecoder::new(code.clone(), 3);
        let _ = dec.decode_batch(&vec![1.0_f32; 65 * code.n()], 1);
    }

    #[test]
    #[should_panic(expected = "multiple of the code length")]
    fn ragged_word_panics() {
        let code = demo_code();
        let mut dec = BitsliceGallagerBDecoder::new(code.clone(), 3);
        let _ = dec.decode_batch(&vec![1.0_f32; code.n() + 1], 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        BitsliceGallagerBDecoder::new(demo_code(), 0);
    }
}
