//! SWAR-packed fixed-point decoder: 8 frames per `u64` word, one word op
//! per edge visit — the soft-decision realization of the paper's
//! frames-per-word packing (Table 3), bit-exact lane by lane against
//! [`FixedDecoder`](crate::decoder::FixedDecoder).

use crate::decoder::batch::{drive_batch, BatchPhases, BatchState};
use crate::decoder::block::runs;
use crate::decoder::swar::{
    self, abs_i8, apply_sign8, clamp_i8, eq7_mask, ltu15_mask16, ltu7_mask, min_u16, narrow_bytes,
    scale_mag8, select8, sign_mask8, splat8, widen_even, widen_odd,
};
use crate::decoder::{BlockDecoder, DecodeResult, FixedConfig};
use crate::{LdpcCode, LlrQuantizer, TannerGraph};
use gf2::BitVec;
use std::ops::Range;
use std::sync::Arc;

#[cfg(feature = "simd")]
mod avx2;

/// Lanes (frames) packed into each message word.
pub const PACK_LANES: usize = swar::LANES;

/// Low byte of every u16 lane.
const M16: u64 = 0x00FF_00FF_00FF_00FF;

/// Largest bit-node degree the stack-resident per-edge caches cover.
const MAX_BN_DEGREE: usize = 64;

/// A word with `x` in all four u16 lanes.
#[inline(always)]
fn splat16(x: u16) -> u64 {
    u64::from(x) * 0x0001_0001_0001_0001
}

/// Splits signed byte lanes into non-negative magnitude planes: `(pos,
/// neg)` with `pos[f] = max(v[f], 0)` and `neg[f] = max(-v[f], 0)`, for
/// lanes in `-127..=127`.
#[inline(always)]
fn split_signed(v: u64) -> (u64, u64) {
    let s = sign_mask8(v);
    let mag = abs_i8(v);
    (mag & !s, mag & s)
}

/// Words per slot row for a code with `checks` check nodes: `checks`
/// rounded up to a multiple of 8, plus 8 more when that is an even
/// number of 8-word blocks. An odd block count keeps the slot rows from
/// landing a multiple of 128 words apart, where they would alias in L1.
fn slot_stride(checks: usize) -> usize {
    let stride = checks.next_multiple_of(8);
    if (stride / 8).is_multiple_of(2) {
        stride + 8
    } else {
        stride
    }
}

/// A maximal stretch of consecutive bits whose message words all advance
/// by one word per bit: bit `bit + j` reads and writes word `p + j` for
/// each edge position `p` of the run.
struct BitRun {
    /// First bit of the run.
    bit: usize,
    /// Bits in the run.
    len: usize,
    /// The first bit's edge positions, as a range of
    /// [`SlotLayout::run_pos`].
    pos: Range<usize>,
}

/// Slot-major placement of the edge messages, the software form of the
/// paper's banked message memory: edge `e`, the `k`-th edge of check
/// `m`, lives at word `k·stride + m`, so row `k` holds input slot `k` of
/// every check.
struct SlotLayout {
    /// Words per slot row (`M′`).
    stride: usize,
    /// Slot rows: the largest check degree.
    slots: usize,
    /// Every bit, grouped into runs, in bit order.
    runs: Vec<BitRun>,
    /// Edge positions of each run's first bit.
    run_pos: Vec<u32>,
}

impl SlotLayout {
    fn new(graph: &TannerGraph) -> Self {
        let stride = slot_stride(graph.n_checks());
        let slots = graph.max_cn_degree();
        let words = slots * stride;
        // Word position of every edge, in the graph's check-grouped order.
        let mut edge_pos = vec![0u32; graph.n_edges()];
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            for (k, e) in range.enumerate() {
                edge_pos[e] = u32::try_from(k * stride + m).expect("message memory fits u32");
            }
        }
        let mut runs: Vec<BitRun> = Vec::new();
        let mut run_pos = Vec::new();
        let (mut pos, mut prev) = (Vec::new(), Vec::new());
        for n in 0..graph.n_bits() {
            pos.clear();
            pos.extend(graph.bn_edge_ids(n).iter().map(|&e| edge_pos[e as usize]));
            let extends = !runs.is_empty()
                && pos.len() == prev.len()
                && pos.iter().zip(&prev).all(|(&p, &q)| p == q + 1);
            if extends {
                runs.last_mut().expect("checked non-empty").len += 1;
            } else {
                let start = run_pos.len();
                run_pos.extend_from_slice(&pos);
                runs.push(BitRun {
                    bit: n,
                    len: 1,
                    pos: start..run_pos.len(),
                });
            }
            std::mem::swap(&mut pos, &mut prev);
        }
        // The vector mirror reads and writes whole runs without index
        // checks; these bounds are its safety argument.
        for run in &runs {
            assert!(
                run.bit + run.len <= graph.n_bits(),
                "bit run past the code length"
            );
            assert!(
                run.pos.len() <= MAX_BN_DEGREE,
                "bit run wider than the edge cache"
            );
            for &p in &run_pos[run.pos.clone()] {
                assert!(
                    p as usize + run.len <= words,
                    "bit run past the message memory"
                );
            }
        }
        Self {
            stride,
            slots,
            runs,
            run_pos,
        }
    }

    /// Message words per direction.
    fn words(&self) -> usize {
        self.slots * self.stride
    }
}

/// Frame-packed fixed-point normalized min-sum decoder.
///
/// Eight frames' messages share each `u64`: an edge's word carries frame
/// `f`'s message in byte lane `f` (the [`gf2::ByteSlices`] transpose), and
/// every check-node and bit-node update is a handful of SWAR word ops from
/// [`swar`](crate::decoder::swar) that advance all 8 lanes at once. Each
/// direction keeps **one** signed-byte word per edge (not separate sign
/// and magnitude planes), so an iteration streams exactly two words per
/// edge visit — the check node splits sign from magnitude on the fly
/// (the sign product is the XOR of the raw words: sign bits XOR in
/// place) and the bit node re-signs on the way out.
///
/// The words are stored **slot-major**, like the paper's banked message
/// memory: the `k`-th edge of check `m` lives at word `k·M′ + m`, so each
/// check-input slot is one row of `M′` words (`M′` ≥ the check count, see
/// DESIGN.md §4.4). A check scan reads the same address in every row, and
/// the bit nodes of a circulant walk each row one word per bit. Slots of
/// checks with fewer edges than the widest check hold neutral `0x7F`
/// lanes.
///
/// The portable bit-node sum runs in biased u16 lanes (bias `B = ch_max +
/// max_bn_degree · msg_max`), which keeps every partial sum non-negative
/// in any accumulation order; the sum therefore never wraps a lane and
/// matches the scalar datapath's widen-accumulate-then-clamp exactly.
///
/// The result is **bit-exact per lane** against [`FixedDecoder`](crate::decoder::FixedDecoder) with the
/// same [`FixedConfig`] — same messages, same hard decisions, same
/// iteration counts — which the conformance and golden suites pin.
///
/// With the `simd` cargo feature enabled (and AVX2 present at runtime)
/// the same phases run on 256-bit vector instructions; the results are
/// identical bit for bit.
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{FixedConfig, PackedFixedDecoder};
///
/// let code = demo_code();
/// let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
/// // Eight noiseless all-zero frames, stored back to back.
/// let llrs = vec![3.0_f32; 8 * code.n()];
/// let out = dec.decode_batch(&llrs, 10);
/// assert!(out.iter().all(|r| r.converged));
/// ```
pub struct PackedFixedDecoder {
    code: Arc<LdpcCode>,
    config: FixedConfig,
    quantizer: LlrQuantizer,
    /// Bit-node bias of the portable path: u16 accumulator lanes hold
    /// `bias + value`.
    bias: u16,
    layout: SlotLayout,
    /// Bit→check messages: one signed-byte lane word per slot-major
    /// position; positions no edge owns hold `0x7F` lanes.
    bc: Vec<u64>,
    /// Check→bit messages, same layout.
    cb: Vec<u64>,
    /// Quantized channel LLRs as signed bytes, one little-endian word
    /// per bit (frame `f` in byte `f`).
    ch: Vec<[u8; 8]>,
    /// Hard-decision masks: `0xFF` in lane `f` where frame `f` decides 1.
    hard_mask: Vec<u64>,
    /// Per-lane unsatisfied-check mask: byte `f` is zero iff frame `f`'s
    /// syndrome is zero after the last iteration.
    unsat: u64,
    state: BatchState,
}

impl PackedFixedDecoder {
    /// Creates a packed decoder for the given code and datapath
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured widths do not fit the packed datapath
    /// (`q_msg` or `q_ch` above 8 bits, or a bias that overflows the u16
    /// bit-node lanes), if any check node has degree outside `2..=127`
    /// (the two-minimum lane scan needs at least two absorbs to mirror
    /// the scalar kernel, and slot indices must fit a lane), or if any
    /// bit node has degree above 64 (the per-edge contribution caches
    /// are stack-sized).
    pub fn new(code: Arc<LdpcCode>, config: FixedConfig) -> Self {
        assert!(
            config.q_msg <= 8,
            "packed datapath requires q_msg <= 8 (i8 lanes), got {}",
            config.q_msg
        );
        assert!(
            config.q_ch <= 8,
            "packed datapath requires q_ch <= 8 (i8 lanes), got {}",
            config.q_ch
        );
        let quantizer = config.channel_quantizer();
        let graph = code.graph();
        for m in 0..graph.n_checks() {
            let deg = graph.cn_degree(m);
            assert!(
                (2..=127).contains(&deg),
                "packed datapath requires check degrees in 2..=127, check {m} has {deg}"
            );
        }
        assert!(
            graph.max_bn_degree() <= MAX_BN_DEGREE,
            "packed datapath requires bit degrees <= {MAX_BN_DEGREE}, got {}",
            graph.max_bn_degree()
        );
        let ch_max = quantizer.max_level() as u32;
        let msg_max = config.msg_max() as u32;
        let bias = ch_max + graph.max_bn_degree() as u32 * msg_max;
        assert!(
            2 * bias <= 0x7FFF,
            "bit-node bias {bias} overflows the u16 accumulator lanes"
        );
        let layout = SlotLayout::new(graph);
        let words = layout.words();
        let n = code.n();
        Self {
            quantizer,
            config,
            bias: bias as u16,
            layout,
            bc: vec![splat8(0x7F); words],
            cb: vec![0; words],
            ch: vec![[0; 8]; n],
            hard_mask: vec![0; n],
            unsat: 0,
            state: BatchState::default(),
            code,
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

    /// Whether the 256-bit AVX2 mirror is compiled in (`simd` feature)
    /// **and** supported by the running CPU. When `false` the portable
    /// SWAR kernels run on the same slot-major layout; the results are
    /// identical either way.
    pub fn simd_active() -> bool {
        #[cfg(feature = "simd")]
        {
            avx2::available()
        }
        #[cfg(not(feature = "simd"))]
        {
            false
        }
    }

    /// Decodes a batch of already-quantized frames stored back to back
    /// (frame `f` occupies `channel[f*n .. (f+1)*n]`), the hardware input
    /// format. See [`decode_batch`](Self::decode_batch) for the result contract.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len()` is not a positive multiple of the code
    /// length, if the frame count exceeds [`PACK_LANES`], or if any value
    /// exceeds the channel quantizer range.
    pub fn decode_quantized_batch(
        &mut self,
        channel: &[i16],
        max_iterations: u32,
    ) -> Vec<DecodeResult> {
        let ch_max = self.quantizer.max_level();
        assert!(
            channel.iter().all(|&c| (-ch_max..=ch_max).contains(&c)),
            "channel value outside quantizer range"
        );
        let frames = self.load_channel(channel, |c| c);
        self.decode_loaded(frames, max_iterations)
    }

    /// Decodes between 1 and [`PACK_LANES`] frames stored back to back
    /// (frame `f` occupies `llrs[f*n .. (f+1)*n]`) as one packed word.
    ///
    /// Returns one [`DecodeResult`] per frame, in input order, each
    /// bit-identical to [`FixedDecoder`](crate::decoder::FixedDecoder) on
    /// that frame alone. [`BlockDecoder::decode_block`] takes any number
    /// of frames and splits them into words.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a positive multiple of the code
    /// length, or if the frame count exceeds [`PACK_LANES`].
    pub fn decode_batch(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        let quantizer = self.quantizer;
        let frames = self.load_channel(llrs, |llr| quantizer.quantize(llr));
        self.decode_loaded(frames, max_iterations)
    }

    /// Transposes frame-major inputs into the channel plane, frame `f`'s
    /// level in byte lane `f`, and returns the frame count. Unused lanes
    /// hold channel 0, which keeps every lane inside the proven value
    /// ranges.
    fn load_channel<T: Copy>(&mut self, input: &[T], level: impl Fn(T) -> i16) -> usize {
        let n = self.code.n();
        assert!(
            !input.is_empty() && input.len().is_multiple_of(n),
            "input length must be a positive multiple of the code length"
        );
        let frames = input.len() / n;
        assert!(
            frames <= PACK_LANES,
            "batch of {frames} frames exceeds the {PACK_LANES} lanes of one word"
        );
        self.ch.fill([0; 8]);
        for (f, frame) in input.chunks_exact(n).enumerate() {
            for (lanes, &x) in self.ch.iter_mut().zip(frame) {
                lanes[f] = level(x) as u8;
            }
        }
        frames
    }

    /// Seeds every edge's bit→check message with its bit's channel value
    /// saturated to the message width, then runs the iterations.
    fn decode_loaded(&mut self, frames: usize, max_iterations: u32) -> Vec<DecodeResult> {
        let msg_max = self.config.msg_max() as i8;
        for run in &self.layout.runs {
            let pos = &self.layout.run_pos[run.pos.clone()];
            for (j, &c) in self.ch[run.bit..run.bit + run.len].iter().enumerate() {
                let sat = clamp_i8(u64::from_le_bytes(c), msg_max);
                for &p in pos {
                    self.bc[p as usize + j] = sat;
                }
            }
        }
        drive_batch(self, frames, max_iterations)
    }

    /// Check-node phase, all 8 lanes per word op: sign product by XOR of
    /// the raw message words (sign bits XOR in place; the low bits are
    /// masked off at output), two-minimum magnitude scan via lane
    /// compares — the word form of
    /// [`cn_scan`](crate::decoder::kernels::cn_scan) +
    /// [`CnState::output`](crate::decoder::kernels::CnState::output).
    ///
    /// The scan seeds `min1 = min2 = 127`, which coincides with the
    /// scalar kernel's `i16::MAX` seed for degrees >= 2 because lane
    /// magnitudes never exceed 127: the first two absorbs pull both
    /// minima down to real message values either way, through the same
    /// strict-`<` first-wins tie rule. The argmin is the slot index,
    /// which is the edge's rank within its check.
    fn cn_phase(&mut self) {
        let graph = self.code.graph();
        let stride = self.layout.stride;
        let scaling = self.config.scaling;
        for m in 0..graph.n_checks() {
            let deg = graph.cn_degree(m);
            let mut sp = 0u64;
            let mut min1 = splat8(0x7F);
            let mut min2 = splat8(0x7F);
            let mut argmin = 0u64;
            for k in 0..deg {
                let v = self.bc[k * stride + m];
                sp ^= v;
                let mag = abs_i8(v);
                let lt1 = ltu7_mask(mag, min1);
                let lt2 = ltu7_mask(mag, min2);
                min2 = select8(lt1, min1, select8(lt2, mag, min2));
                min1 = select8(lt1, mag, min1);
                argmin = select8(lt1, splat8(k as i8), argmin);
            }
            // Scaling commutes with the excluded-self select, so scale the
            // two minima once per check instead of once per edge.
            let s1 = scale_mag8(min1, scaling);
            let s2 = scale_mag8(min2, scaling);
            for k in 0..deg {
                let p = k * stride + m;
                let eq = eq7_mask(argmin, splat8(k as i8));
                let smag = select8(eq, s2, s1);
                // Output sign = sign product excluding self = sign bits
                // of the XOR accumulator XOR this edge's own sign.
                let sign = sign_mask8(sp ^ self.bc[p]);
                self.cb[p] = apply_sign8(smag, sign);
            }
        }
    }

    /// Bit-node phase, all 8 lanes per word op, in biased u16 lanes.
    ///
    /// Lane values stay in `[0, 2·bias]` through every partial sum (the
    /// channel magnitude is at most `ch_max`, each check→bit magnitude is
    /// at most `msg_max`, and at most `max_bn_degree` of them are
    /// subtracted), so the plain `u64` add/sub never borrows across lanes
    /// and the accumulator is exact — the packed equivalent of the scalar
    /// datapath's i32 widening. The per-edge output `bias + ch + total −
    /// own` then saturates to `msg_max` exactly like
    /// [`bn_output`](crate::decoder::kernels::bn_output), and the hard
    /// decision `t < bias` is [`bn_posterior`](crate::decoder::kernels::bn_posterior)` < 0`.
    fn bn_phase(&mut self) {
        let b16 = splat16(self.bias);
        let m16 = splat16(self.config.msg_max() as u16);
        let mut pms = [0u64; MAX_BN_DEGREE];
        let mut nms = [0u64; MAX_BN_DEGREE];
        for run in &self.layout.runs {
            let pos = &self.layout.run_pos[run.pos.clone()];
            for j in 0..run.len {
                let b = run.bit + j;
                let (cp, cn) = split_signed(u64::from_le_bytes(self.ch[b]));
                let mut te = b16
                    .wrapping_add(widen_even(cp))
                    .wrapping_sub(widen_even(cn));
                let mut to = b16.wrapping_add(widen_odd(cp)).wrapping_sub(widen_odd(cn));
                for (i, &p) in pos.iter().enumerate() {
                    let (pm, nm) = split_signed(self.cb[p as usize + j]);
                    pms[i] = pm;
                    nms[i] = nm;
                    te = te.wrapping_add(widen_even(pm)).wrapping_sub(widen_even(nm));
                    to = to.wrapping_add(widen_odd(pm)).wrapping_sub(widen_odd(nm));
                }
                for (i, &p) in pos.iter().enumerate() {
                    let (pm, nm) = (pms[i], nms[i]);
                    let ue = te.wrapping_sub(widen_even(pm)).wrapping_add(widen_even(nm));
                    let uo = to.wrapping_sub(widen_odd(pm)).wrapping_add(widen_odd(nm));
                    // Sign: the extrinsic sum is negative iff u < bias.
                    let lte = ltu15_mask16(ue, b16);
                    let lto = ltu15_mask16(uo, b16);
                    // Magnitude: |u - bias| via max/min (xor recovers the
                    // other of the pair), saturated to the message width.
                    let mxe = select8(lte, b16, ue);
                    let mage = min_u16(mxe.wrapping_sub(ue ^ b16 ^ mxe), m16);
                    let mxo = select8(lto, b16, uo);
                    let mago = min_u16(mxo.wrapping_sub(uo ^ b16 ^ mxo), m16);
                    let sign = narrow_bytes(lte & M16, lto & M16);
                    let mag = narrow_bytes(mage, mago);
                    self.bc[p as usize + j] = apply_sign8(mag, sign);
                }
                // Hard decision: posterior < 0 iff the biased total < bias.
                let he = ltu15_mask16(te, b16);
                let ho = ltu15_mask16(to, b16);
                self.hard_mask[b] = narrow_bytes(he & M16, ho & M16);
            }
        }
    }

    /// Word-parallel syndrome: XOR the hard masks of each check's bits —
    /// lane `f` of `unsat` becomes non-zero iff frame `f` leaves some
    /// check unsatisfied.
    fn syndrome_pass(&mut self) {
        let graph = self.code.graph();
        let mut unsat = 0u64;
        for m in 0..graph.n_checks() {
            let mut parity = 0u64;
            for &bn in graph.cn_bits(m) {
                parity ^= self.hard_mask[bn as usize];
            }
            unsat |= parity;
        }
        self.unsat = unsat;
    }

    /// One check-node + bit-node iteration: the AVX2 mirror when it is
    /// compiled in and the CPU has it, the portable SWAR kernels
    /// otherwise.
    fn phases(&mut self) {
        #[cfg(feature = "simd")]
        if self.cn_phase_simd() && self.bn_phase_simd() {
            return;
        }
        self.cn_phase();
        self.bn_phase();
    }
}

impl BatchPhases for PackedFixedDecoder {
    fn run_phases(&mut self, _iter: u32, _frames: usize, _state: &BatchState) {
        // All 8 lanes always advance — a retired lane's results were
        // snapshotted by the driver, so its lanes idling along is free
        // (that is the whole point of the packing: no masking, ever).
        self.phases();
        self.syndrome_pass();
    }

    fn hard_decision(&self, f: usize) -> BitVec {
        // Mask lanes are all-ones or all-zeros, so bit j of lane f of the
        // j-th mask of a group of 8 is that bit's decision: AND-OR eight
        // masks into one byte of the output word.
        let pick: [u64; 8] = std::array::from_fn(|j| 1 << (8 * f + j));
        let words = self
            .hard_mask
            .chunks(64)
            .map(|masks| {
                masks.chunks(8).enumerate().fold(0u64, |word, (g, group)| {
                    let lane = group.iter().zip(&pick).fold(0, |b, (&m, &p)| b | (m & p));
                    word | (lane >> (8 * f)) << (8 * g)
                })
            })
            .collect();
        BitVec::from_words(self.code.n(), words)
    }

    fn syndrome_ok_frame(&self, f: usize) -> bool {
        (self.unsat >> (8 * f)) & 0xFF == 0
    }

    fn early_stop(&self) -> bool {
        self.config.early_stop
    }

    fn batch_state(&mut self) -> &mut BatchState {
        &mut self.state
    }
}

impl BlockDecoder for PackedFixedDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), PACK_LANES)
            .flat_map(|run| self.decode_batch(run, max_iterations))
            .collect()
    }

    fn block_frames(&self) -> usize {
        PACK_LANES
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        format!(
            "packed fixed-point normalized min-sum ({} frames/word, {}b msg)",
            PACK_LANES, self.config.q_msg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::decoder::kernels::Scaling;
    use crate::FixedDecoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A batch of frames spanning the convergence spectrum: clean frames
    /// that converge immediately, noisy ones that take several
    /// iterations, and garbage that stalls — so lanes retire at
    /// different iterations.
    fn mixed_batch(code: &Arc<LdpcCode>, frames: usize, seed: u64) -> Vec<i16> {
        let n = code.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(frames * n);
        for f in 0..frames {
            match f % 3 {
                0 => out.extend(std::iter::repeat_n(10i16, n)),
                1 => out.extend((0..n).map(|_| {
                    let v: i16 = rng.gen_range(1..=8);
                    if rng.gen_bool(0.12) {
                        -v
                    } else {
                        v
                    }
                })),
                _ => out.extend((0..n).map(|_| rng.gen_range(-15i16..=15))),
            }
        }
        out
    }

    fn assert_lanes_match_scalar(config: FixedConfig, frames: usize, seed: u64, iters: u32) {
        let code = demo_code();
        let ch = mixed_batch(&code, frames, seed);
        let n = code.n();
        let mut packed = PackedFixedDecoder::new(code.clone(), config);
        let mut scalar = FixedDecoder::new(code.clone(), config);
        let got = packed.decode_quantized_batch(&ch, iters);
        assert_eq!(got.len(), frames);
        for (f, out) in got.iter().enumerate() {
            let want = scalar.decode_quantized(&ch[f * n..(f + 1) * n], iters);
            assert_eq!(out, &want, "lane {f} diverged from scalar fixed");
        }
    }

    #[test]
    fn full_word_matches_scalar_lane_by_lane() {
        assert_lanes_match_scalar(FixedConfig::default(), 8, 40, 25);
    }

    #[test]
    fn partial_words_match_scalar_lane_by_lane() {
        for frames in 1..8 {
            assert_lanes_match_scalar(FixedConfig::default(), frames, 41 + frames as u64, 20);
        }
    }

    #[test]
    fn fixed_latency_mode_matches_scalar() {
        assert_lanes_match_scalar(FixedConfig::default().with_early_stop(false), 8, 42, 12);
    }

    #[test]
    fn every_scaling_matches_scalar() {
        for s in [
            Scaling::Unity,
            Scaling::SevenEighths,
            Scaling::ThreeQuarters,
            Scaling::Half,
        ] {
            assert_lanes_match_scalar(FixedConfig::default().with_scaling(s), 8, 43, 15);
        }
    }

    #[test]
    fn narrow_quantization_matches_scalar() {
        let cfg = FixedConfig::default().with_q_msg(4).with_q_ch(3);
        let code = demo_code();
        let n = code.n();
        // Regenerate the batch within the narrow channel range.
        let mut rng = StdRng::seed_from_u64(44);
        let ch: Vec<i16> = (0..8 * n).map(|_| rng.gen_range(-3i16..=3)).collect();
        let mut packed = PackedFixedDecoder::new(code.clone(), cfg);
        let mut scalar = FixedDecoder::new(code.clone(), cfg);
        for (f, out) in packed.decode_quantized_batch(&ch, 20).iter().enumerate() {
            let want = scalar.decode_quantized(&ch[f * n..(f + 1) * n], 20);
            assert_eq!(out, &want, "lane {f}");
        }
    }

    #[test]
    fn wide_eight_bit_quantization_matches_scalar() {
        // q_msg = q_ch = 8: magnitudes up to 127 exercise the lane-scan
        // seed coincidence at the i8 boundary.
        let cfg = FixedConfig::default().with_q_msg(8).with_q_ch(8);
        let code = demo_code();
        let n = code.n();
        let mut rng = StdRng::seed_from_u64(45);
        let ch: Vec<i16> = (0..8 * n).map(|_| rng.gen_range(-127i16..=127)).collect();
        let mut packed = PackedFixedDecoder::new(code.clone(), cfg);
        let mut scalar = FixedDecoder::new(code.clone(), cfg);
        for (f, out) in packed.decode_quantized_batch(&ch, 15).iter().enumerate() {
            let want = scalar.decode_quantized(&ch[f * n..(f + 1) * n], 15);
            assert_eq!(out, &want, "lane {f}");
        }
    }

    #[test]
    fn float_entry_point_quantizes_like_scalar() {
        let code = demo_code();
        let n = code.n();
        let mut rng = StdRng::seed_from_u64(46);
        let llrs: Vec<f32> = (0..8 * n).map(|_| rng.gen_range(-6.0..6.0)).collect();
        let mut packed = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let mut scalar = FixedDecoder::new(code.clone(), FixedConfig::default());
        for (f, out) in packed.decode_batch(&llrs, 18).iter().enumerate() {
            let want = scalar.decode(&llrs[f * n..(f + 1) * n], 18);
            assert_eq!(out, &want, "lane {f}");
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let code = demo_code();
        let ch = mixed_batch(&code, 8, 47);
        let mut dec = PackedFixedDecoder::new(code, FixedConfig::default());
        let a = dec.decode_quantized_batch(&ch, 18);
        let b = dec.decode_quantized_batch(&ch, 18);
        assert_eq!(a, b);
    }

    #[test]
    fn slot_stride_pads_to_an_odd_block_count() {
        assert_eq!(slot_stride(1022), 1032); // C2: 1024 is 128 blocks
        assert_eq!(slot_stride(1020), 1032);
        assert_eq!(slot_stride(1016), 1016); // 127 blocks
        assert_eq!(slot_stride(3), 8);
        for m in 1..600 {
            let s = slot_stride(m);
            assert!(
                s >= m && s.is_multiple_of(8) && !(s / 8).is_multiple_of(2),
                "m {m}: stride {s}"
            );
        }
    }

    #[test]
    fn runs_cover_every_edge_once() {
        for code in [demo_code(), crate::codes::ccsds_c2::code()] {
            let graph = code.graph();
            let layout = SlotLayout::new(graph);
            let mut seen = vec![false; layout.words()];
            let mut next_bit = 0;
            for run in &layout.runs {
                assert_eq!(run.bit, next_bit, "runs must tile the bits in order");
                next_bit += run.len;
                for j in 0..run.len {
                    let b = run.bit + j;
                    let pos = &layout.run_pos[run.pos.clone()];
                    assert_eq!(pos.len(), graph.bn_degree(b));
                    for (&p, &m) in pos.iter().zip(graph.bn_checks(b)) {
                        let p = p as usize + j;
                        assert_eq!(
                            p % layout.stride,
                            m as usize,
                            "word row column is the check"
                        );
                        assert!(!seen[p], "word {p} owned twice");
                        seen[p] = true;
                    }
                }
            }
            assert_eq!(next_bit, graph.n_bits());
            assert_eq!(seen.iter().filter(|&&s| s).count(), graph.n_edges());
        }
    }

    #[test]
    #[ignore = "manual profiling aid: run with --release --nocapture"]
    fn profile_phase_split() {
        let code = crate::codes::ccsds_c2::code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let ch = mixed_batch(&code, 8, 99);
        let llrs: Vec<f32> = ch.iter().map(|&c| f32::from(c) * 0.5).collect();
        let _ = dec.decode_quantized_batch(&ch, 2); // warm buffers
        let reps = 200u32;
        let time = |label: &str, f: &mut dyn FnMut()| {
            let start = std::time::Instant::now();
            for _ in 0..reps {
                f();
            }
            println!("  {label}: {:?}/iter", start.elapsed() / reps);
        };
        println!(
            "C2 8-frame word, {} runs, stride {} words, {} slots, vector path {}",
            dec.layout.runs.len(),
            dec.layout.stride,
            dec.layout.slots,
            if PackedFixedDecoder::simd_active() {
                "AVX2"
            } else {
                "inactive"
            }
        );
        time("word fixed cost (0 it)", &mut || {
            let _ = dec.decode_batch(&llrs, 0);
        });
        time("full decode (18 it)   ", &mut || {
            let _ = dec.decode_quantized_batch(&ch, 18);
        });
        time("phases, selected path ", &mut || dec.phases());
        #[cfg(feature = "simd")]
        if PackedFixedDecoder::simd_active() {
            time("cn (avx2)             ", &mut || {
                assert!(dec.cn_phase_simd())
            });
            time("bn (avx2)             ", &mut || {
                assert!(dec.bn_phase_simd())
            });
        }
        time("cn (swar)             ", &mut || dec.cn_phase());
        time("bn (swar)             ", &mut || dec.bn_phase());
        time("syndrome              ", &mut || dec.syndrome_pass());
        time("hard decisions (8 fr) ", &mut || {
            for f in 0..8 {
                let _ = dec.hard_decision(f);
            }
        });
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn nine_frames_rejected() {
        let code = demo_code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let _ = dec.decode_quantized_batch(&vec![0i16; 9 * code.n()], 1);
    }

    #[test]
    #[should_panic(expected = "q_msg <= 8")]
    fn too_wide_messages_rejected() {
        let _ = PackedFixedDecoder::new(demo_code(), FixedConfig::default().with_q_msg(9));
    }

    #[test]
    #[should_panic(expected = "quantizer range")]
    fn out_of_range_channel_rejected() {
        let code = demo_code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let mut ch = vec![0i16; code.n()];
        ch[0] = 16;
        let _ = dec.decode_quantized_batch(&ch, 1);
    }
}
