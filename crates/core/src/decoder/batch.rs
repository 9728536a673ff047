//! Frame batching: `F` frames decoded in lockstep, and the iteration
//! driver every batched decoder shares.
//!
//! The paper's high-speed architecture gets its throughput from packing
//! several frames into each message-memory word (Table 3 packs 8 frames
//! per 42-bit word), so that one memory access feeds one datapath step of
//! every in-flight frame. [`drive_batch`] is the frame-level half of that
//! idea: it runs a decoder's lockstep phases and retires each frame the
//! moment its syndrome is zero, as the hardware retires a finished frame
//! from its share of the packed word. Two decoders plug into it: the
//! fixed-point datapath's [`PackedFixedDecoder`](crate::PackedFixedDecoder)
//! (8 frames' i8 messages per `u64`) and, for the float min-sum
//! variants, [`BatchMinSumDecoder`], whose edge messages live in a single
//! frame-major array laid out
//!
//! ```text
//!            edge 0                edge 1                edge 2
//!        ┌─────────────────┬─────────────────┬─────────────────┬──
//!   bc = │ f0 f1 f2 ... fF │ f0 f1 f2 ... fF │ f0 f1 f2 ... fF │ ...
//!        └─────────────────┴─────────────────┴─────────────────┴──
//!          bc[e·F + f] = bit→check message of frame f on edge e
//! ```
//!
//! so each graph index (edge id, check range, bit adjacency) is loaded
//! once and amortized over the whole batch, and the per-frame inner loops
//! run over contiguous memory. Batched decoding is **bit-exact** against
//! the per-frame [`MinSumDecoder`](crate::MinSumDecoder): the same
//! kernels and the same operation order are applied to every frame, so
//! the only difference is the memory layout. Frames that converge are
//! masked out of the message updates (per-frame early termination).

use crate::decoder::block::runs;
use crate::decoder::minsum::{alpha_for_iteration, apply_correction, CnScanF32};
use crate::decoder::{BlockDecoder, DecodeResult, MinSumConfig};
use crate::LdpcCode;
use gf2::BitVec;
use std::sync::Arc;

/// Per-batch bookkeeping shared by the batched decoders: which frames are
/// still active. Each decoder owns one and the driver re-arms it per
/// batch, so its buffers are reused from batch to batch.
#[derive(Default)]
pub(super) struct BatchState {
    active: Vec<bool>,
    /// Indices of the still-active lanes, so masked phases do work
    /// proportional to the number of unfinished frames.
    pub(super) lanes: Vec<u32>,
}

impl BatchState {
    /// Marks all of `frames` frames active.
    fn reset(&mut self, frames: usize) {
        self.active.clear();
        self.active.resize(frames, true);
        self.lanes.clear();
        self.lanes.extend(0..frames as u32);
    }

    fn n_active(&self) -> usize {
        self.lanes.len()
    }

    /// Marks frame `f` as finished (early-terminated out of the batch).
    fn retire(&mut self, f: usize) {
        if self.active[f] {
            self.active[f] = false;
            self.lanes.retain(|&l| l as usize != f);
        }
    }
}

/// The decoder-specific hooks the shared batch iteration driver needs:
/// run one iteration's phases, expose per-frame hard decisions, and say
/// whether early termination is on.
pub(super) trait BatchPhases {
    /// Runs one check-node + bit-node iteration over the active lanes.
    fn run_phases(&mut self, iter: u32, frames: usize, state: &BatchState);

    /// Hard decision of frame `f` after the last iteration, built only
    /// when the frame's result is taken.
    fn hard_decision(&self, f: usize) -> BitVec;

    /// Whether the hard decision of frame `f` satisfies every check.
    fn syndrome_ok_frame(&self, f: usize) -> bool;

    /// Whether converged frames retire from the batch.
    fn early_stop(&self) -> bool;

    /// The decoder's batch bookkeeping, lent to the driver per batch.
    fn batch_state(&mut self) -> &mut BatchState;
}

/// Iteration / early-termination / result-snapshot state machine shared
/// by the batched decoders: runs phases until every frame converged (or
/// the budget is spent), retiring each frame the moment its syndrome
/// becomes zero — exactly the per-frame decoders' semantics, frame by
/// frame.
pub(super) fn drive_batch<E: BatchPhases>(
    engine: &mut E,
    frames: usize,
    max_iterations: u32,
) -> Vec<DecodeResult> {
    // Borrow the engine's state for the batch (the phases read it while
    // the engine is borrowed mutably) and hand it back at the end.
    let mut state = std::mem::take(engine.batch_state());
    state.reset(frames);
    let unfinished = DecodeResult {
        hard_decision: BitVec::default(),
        iterations: 0,
        converged: false,
    };
    let mut results = vec![unfinished; frames];
    for iter in 0..max_iterations {
        if state.n_active() == 0 {
            break;
        }
        engine.run_phases(iter, frames, &state);
        for (f, result) in results.iter_mut().enumerate() {
            if !state.active[f] {
                continue;
            }
            result.iterations += 1;
            result.converged = engine.syndrome_ok_frame(f);
            if result.converged && engine.early_stop() {
                result.hard_decision = engine.hard_decision(f);
                state.retire(f);
            }
        }
    }
    // Frames that never retired take their decision from the last
    // iteration.
    for (f, result) in results.iter_mut().enumerate() {
        if state.active[f] {
            result.hard_decision = engine.hard_decision(f);
        }
    }
    *engine.batch_state() = state;
    results
}

/// Frame-batched floating-point min-sum decoder, bit-exact against
/// [`MinSumDecoder`](crate::MinSumDecoder) run frame by frame with the same [`MinSumConfig`].
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{BatchMinSumDecoder, MinSumConfig};
///
/// let code = demo_code();
/// let mut dec = BatchMinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25), 4);
/// // Four noiseless all-zero frames, stored back to back.
/// let llrs = vec![3.0_f32; 4 * code.n()];
/// let out = dec.decode_batch(&llrs, 10);
/// assert_eq!(out.len(), 4);
/// assert!(out.iter().all(|r| r.converged));
/// ```
pub struct BatchMinSumDecoder {
    code: Arc<LdpcCode>,
    config: MinSumConfig,
    capacity: usize,
    /// Bit→check messages, interleaved `bc[e*frames + f]`.
    bc: Vec<f32>,
    /// Check→bit messages, same layout.
    cb: Vec<f32>,
    /// Channel LLRs, interleaved `ch[n*frames + f]`.
    ch: Vec<f32>,
    /// Hard decisions, frame-contiguous `hard[f*n + b]`.
    hard: Vec<u8>,
    state: BatchState,
}

impl BatchMinSumDecoder {
    /// Creates a batched decoder with room for `capacity` frames per call.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(code: Arc<LdpcCode>, config: MinSumConfig, capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be positive");
        let edges = code.graph().n_edges();
        let n = code.n();
        Self {
            code,
            config,
            capacity,
            bc: vec![0.0; edges * capacity],
            cb: vec![0.0; edges * capacity],
            ch: vec![0.0; n * capacity],
            hard: vec![0; n * capacity],
            state: BatchState::default(),
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

    /// Effective α for a 0-based iteration (shared with `MinSumDecoder`).
    fn alpha_for_iteration(&self, iter: usize) -> Option<f32> {
        alpha_for_iteration(&self.config, iter)
    }

    /// Check-node phase with every one of the `F` lanes active: the scan
    /// state lives in stack arrays and the select-based two-minimum update
    /// is branchless, so the frame-inner loops compile to straight-line
    /// vector code. The update is value-identical to the if/else chain of
    /// `MinSumDecoder::cn_phase` (ties keep the earlier argmin in both).
    fn cn_phase_full_lanes<const F: usize>(&mut self, iter: usize) {
        let code = self.code.clone();
        let graph = code.graph();
        let alpha = self.alpha_for_iteration(iter);
        let variant = self.config.variant;
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            let mut min1 = [f32::INFINITY; F];
            let mut min2 = [f32::INFINITY; F];
            let mut argmin = [range.start as u32; F];
            let mut sign = [0u32; F];
            for e in range.clone() {
                let row: [f32; F] = self.bc[e * F..e * F + F].try_into().expect("row is F wide");
                for f in 0..F {
                    let x = row[f];
                    let mag = x.abs();
                    sign[f] ^= u32::from(x < 0.0);
                    let is_new = mag < min1[f];
                    min2[f] = if is_new { min1[f] } else { min2[f].min(mag) };
                    min1[f] = if is_new { mag } else { min1[f] };
                    argmin[f] = if is_new { e as u32 } else { argmin[f] };
                }
            }
            for e in range {
                let base = e * F;
                let bc_row: [f32; F] = self.bc[base..base + F].try_into().expect("row is F wide");
                let cb_row: &mut [f32; F] = (&mut self.cb[base..base + F])
                    .try_into()
                    .expect("row is F wide");
                for f in 0..F {
                    let mag = if e as u32 == argmin[f] {
                        min2[f]
                    } else {
                        min1[f]
                    };
                    let mag = apply_correction(variant, alpha, mag);
                    let negative = (sign[f] ^ u32::from(bc_row[f] < 0.0)) != 0;
                    cb_row[f] = if negative { -mag } else { mag };
                }
            }
        }
    }

    /// Check-node phase over the still-active lanes only (work scales with
    /// the number of unfinished frames). Each lane runs the exact scalar
    /// scan of `MinSumDecoder::cn_phase`, just with strided addressing.
    fn cn_phase_masked(&mut self, iter: usize, frames: usize, lanes: &[u32]) {
        let code = self.code.clone();
        let graph = code.graph();
        let alpha = self.alpha_for_iteration(iter);
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            for &lane in lanes {
                let f = lane as usize;
                let mut scan = CnScanF32::new(range.start);
                for e in range.clone() {
                    scan.absorb(e, self.bc[e * frames + f]);
                }
                for e in range.clone() {
                    let mag = apply_correction(self.config.variant, alpha, scan.magnitude(e));
                    let negative = scan.sign_product ^ (self.bc[e * frames + f] < 0.0);
                    self.cb[e * frames + f] = if negative { -mag } else { mag };
                }
            }
        }
    }

    /// Bit-node phase with every one of the `F` lanes active.
    fn bn_phase_full_lanes<const F: usize>(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let n_bits = graph.n_bits();
        for n in 0..n_bits {
            let edges = graph.bn_edge_ids(n);
            let mut total: [f32; F] = self.ch[n * F..n * F + F].try_into().expect("row is F wide");
            for &e in edges {
                let base = e as usize * F;
                let row: [f32; F] = self.cb[base..base + F].try_into().expect("row is F wide");
                for f in 0..F {
                    total[f] += row[f];
                }
            }
            for &e in edges {
                let base = e as usize * F;
                let cb_row: [f32; F] = self.cb[base..base + F].try_into().expect("row is F wide");
                let bc_row: &mut [f32; F] = (&mut self.bc[base..base + F])
                    .try_into()
                    .expect("row is F wide");
                for f in 0..F {
                    bc_row[f] = total[f] - cb_row[f];
                }
            }
            for (f, &t) in total.iter().enumerate() {
                self.hard[f * n_bits + n] = u8::from(t < 0.0);
            }
        }
    }

    /// Bit-node phase over the still-active lanes only.
    fn bn_phase_masked(&mut self, frames: usize, lanes: &[u32]) {
        let code = self.code.clone();
        let graph = code.graph();
        let n_bits = graph.n_bits();
        for n in 0..n_bits {
            let edges = graph.bn_edge_ids(n);
            for &lane in lanes {
                let f = lane as usize;
                let mut total = self.ch[n * frames + f];
                for &e in edges {
                    total += self.cb[e as usize * frames + f];
                }
                for &e in edges {
                    let base = e as usize * frames;
                    self.bc[base + f] = total - self.cb[base + f];
                }
                self.hard[f * n_bits + n] = u8::from(total < 0.0);
            }
        }
    }

    /// One lockstep iteration with every lane active.
    fn phases_full<const F: usize>(&mut self, iter: u32) {
        self.cn_phase_full_lanes::<F>(iter as usize);
        self.bn_phase_full_lanes::<F>();
    }

    /// One iteration over the still-active lanes only.
    fn phases_masked(&mut self, iter: u32, frames: usize, lanes: &[u32]) {
        self.cn_phase_masked(iter as usize, frames, lanes);
        self.bn_phase_masked(frames, lanes);
    }

    /// Hard-decision bytes of frame `f` after the last iteration.
    fn hard_frame(&self, f: usize) -> &[u8] {
        let n = self.code.n();
        &self.hard[f * n..(f + 1) * n]
    }
}

impl BatchPhases for BatchMinSumDecoder {
    fn run_phases(&mut self, iter: u32, frames: usize, state: &BatchState) {
        // Lockstep fast path for common batch widths; lane-masked
        // fallback for odd widths and once frames start retiring.
        match frames {
            _ if state.n_active() < frames => self.phases_masked(iter, frames, &state.lanes),
            2 => self.phases_full::<2>(iter),
            4 => self.phases_full::<4>(iter),
            8 => self.phases_full::<8>(iter),
            16 => self.phases_full::<16>(iter),
            32 => self.phases_full::<32>(iter),
            _ => self.phases_masked(iter, frames, &state.lanes),
        }
    }

    fn hard_decision(&self, f: usize) -> BitVec {
        BitVec::from_bits(self.hard_frame(f))
    }

    fn syndrome_ok_frame(&self, f: usize) -> bool {
        self.code.graph().syndrome_ok(self.hard_frame(f))
    }

    fn early_stop(&self) -> bool {
        self.config.early_stop
    }

    fn batch_state(&mut self) -> &mut BatchState {
        &mut self.state
    }
}

impl BatchMinSumDecoder {
    /// Decodes between 1 and the capacity frames stored back to back
    /// (frame `f` occupies `llrs[f*n .. (f+1)*n]`) in one lockstep batch.
    ///
    /// Returns one [`DecodeResult`] per frame, in input order, each
    /// bit-identical to what the per-frame decoder would produce on that
    /// frame alone. [`BlockDecoder::decode_block`] takes any number of
    /// frames and splits them into batches of this size.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a positive multiple of the code
    /// length, or if the frame count exceeds the capacity.
    pub fn decode_batch(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        let code = self.code.clone();
        let graph = code.graph();
        let n = graph.n_bits();
        assert!(
            !llrs.is_empty() && llrs.len().is_multiple_of(n),
            "LLR length must be a positive multiple of the code length"
        );
        let frames = llrs.len() / n;
        assert!(
            frames <= self.capacity,
            "batch of {frames} frames exceeds capacity {}",
            self.capacity
        );
        // Interleave channel LLRs and initial bit→check messages.
        for (f, frame) in llrs.chunks_exact(n).enumerate() {
            for (b, &llr) in frame.iter().enumerate() {
                self.ch[b * frames + f] = llr;
            }
        }
        for e in 0..graph.n_edges() {
            let b = graph.edge_bit(e);
            self.bc[e * frames..e * frames + frames]
                .copy_from_slice(&self.ch[b * frames..b * frames + frames]);
        }
        drive_batch(self, frames, max_iterations)
    }
}

impl BlockDecoder for BatchMinSumDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), self.capacity)
            .flat_map(|run| self.decode_batch(run, max_iterations))
            .collect()
    }

    fn block_frames(&self) -> usize {
        self.capacity
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        format!(
            "batched {} (batch {})",
            crate::decoder::minsum::variant_name(&self.config),
            self.capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::{FixedConfig, FixedDecoder, MinSumDecoder, PackedFixedDecoder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A mixed-quality batch: clean frames, mildly noisy frames, and
    /// garbage frames, so convergence times differ within the batch.
    fn mixed_batch(frames: usize, seed: u64) -> Vec<f32> {
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut llrs = Vec::with_capacity(frames * code.n());
        for f in 0..frames {
            for _ in 0..code.n() {
                let v = match f % 3 {
                    0 => 4.0 + rng.gen_range(-0.5f32..0.5),
                    1 => 1.5 + rng.gen_range(-2.0f32..2.0),
                    _ => rng.gen_range(-3.0f32..3.0),
                };
                llrs.push(v);
            }
        }
        llrs
    }

    #[test]
    fn minsum_batch_matches_per_frame_bit_exactly() {
        let code = demo_code();
        for cfg in [
            MinSumConfig::plain(),
            MinSumConfig::normalized(4.0 / 3.0),
            MinSumConfig::offset(0.25),
            MinSumConfig::normalized(1.5).with_alpha_schedule(vec![2.0, 1.5, 1.25]),
            MinSumConfig::normalized(4.0 / 3.0).with_early_stop(false),
        ] {
            let llrs = mixed_batch(6, 99);
            let mut batched = BatchMinSumDecoder::new(code.clone(), cfg.clone(), 6);
            let mut single = MinSumDecoder::new(code.clone(), cfg);
            let got = batched.decode_batch(&llrs, 25);
            let want = single.decode_block(&llrs, 25);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn fixed_batch_matches_per_frame_bit_exactly() {
        let code = demo_code();
        for cfg in [
            FixedConfig::default(),
            FixedConfig::default().with_q_msg(4).with_q_ch(3),
            FixedConfig::default().with_early_stop(false),
        ] {
            let llrs = mixed_batch(5, 17);
            let mut batched = PackedFixedDecoder::new(code.clone(), cfg);
            let mut single = FixedDecoder::new(code.clone(), cfg);
            let got = batched.decode_batch(&llrs, 20);
            let want = single.decode_block(&llrs, 20);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn fixed_quantized_batch_matches_per_frame() {
        let code = demo_code();
        let mut rng = StdRng::seed_from_u64(5);
        let frames = 4;
        let channel: Vec<i16> = (0..frames * code.n())
            .map(|_| rng.gen_range(-15i16..=15))
            .collect();
        let mut batched = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let mut single = FixedDecoder::new(code.clone(), FixedConfig::default());
        let got = batched.decode_quantized_batch(&channel, 15);
        for (f, got_f) in got.iter().enumerate() {
            let want = single.decode_quantized(&channel[f * code.n()..(f + 1) * code.n()], 15);
            assert_eq!(*got_f, want, "frame {f}");
        }
    }

    #[test]
    fn early_termination_retires_frames_individually() {
        let code = demo_code();
        // Frame 0 is clean (converges immediately); frame 1 is garbage.
        let mut llrs = vec![5.0_f32; 2 * code.n()];
        let mut rng = StdRng::seed_from_u64(3);
        for v in llrs[code.n()..].iter_mut() {
            *v = if rng.gen_bool(0.5) { -6.0 } else { 6.0 };
        }
        let mut dec = BatchMinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25), 2);
        let out = dec.decode_batch(&llrs, 8);
        assert!(out[0].converged);
        assert_eq!(out[0].iterations, 1);
        assert!(out[0].hard_decision.is_zero());
        // The garbage frame ran the full budget (unless it got lucky).
        if !out[1].converged {
            assert_eq!(out[1].iterations, 8);
        }
    }

    #[test]
    fn all_converged_batch_stops_iterating() {
        let code = demo_code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let out = dec.decode_batch(&vec![4.0_f32; 3 * code.n()], 50);
        for r in out {
            assert!(r.converged);
            assert_eq!(r.iterations, 1);
        }
    }

    #[test]
    fn partial_batches_are_accepted() {
        let code = demo_code();
        let mut dec = BatchMinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25), 8);
        for frames in [1usize, 3, 8] {
            let out = dec.decode_batch(&vec![2.5_f32; frames * code.n()], 10);
            assert_eq!(out.len(), frames);
            assert!(out.iter().all(|r| r.converged));
        }
    }

    #[test]
    fn results_stable_across_reuse() {
        let code = demo_code();
        let llrs = mixed_batch(4, 7);
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let a = dec.decode_batch(&llrs, 12);
        let b = dec.decode_batch(&llrs, 12);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_batch_panics() {
        let code = demo_code();
        let mut dec = BatchMinSumDecoder::new(code.clone(), MinSumConfig::plain(), 2);
        let _ = dec.decode_batch(&vec![1.0_f32; 3 * code.n()], 1);
    }

    #[test]
    #[should_panic(expected = "multiple of the code length")]
    fn ragged_batch_panics() {
        let code = demo_code();
        let mut dec = BatchMinSumDecoder::new(code.clone(), MinSumConfig::plain(), 2);
        let _ = dec.decode_batch(&vec![1.0_f32; code.n() + 1], 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BatchMinSumDecoder::new(demo_code(), MinSumConfig::plain(), 0);
    }

    #[test]
    fn decode_frames_helper_matches_loop() {
        // A per-frame decoder's decode_block decodes a mixed run of
        // frames exactly as one decode call per frame.
        let code = demo_code();
        let llrs = mixed_batch(3, 21);
        let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
        let all = dec.decode_block(&llrs, 10);
        assert_eq!(all.len(), 3);
        let mut again = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
        for (f, r) in all.iter().enumerate() {
            let one = again.decode(&llrs[f * code.n()..(f + 1) * code.n()], 10);
            assert_eq!(*r, one);
        }
    }
}
