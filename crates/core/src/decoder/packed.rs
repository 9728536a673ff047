//! SWAR-packed fixed-point decoder: eight byte lanes per `u64` word, one
//! word op per edge visit, in either of the paper's two instances of its
//! datapath — eight frames per word (high speed, Table 3) or one frame
//! whose adjacent nodes share a word (low cost). Bit-exact lane by lane
//! against [`FixedDecoder`](crate::decoder::FixedDecoder).

use crate::decoder::batch::{drive_batch, BatchPhases, BatchState};
use crate::decoder::block::runs;
use crate::decoder::kernels::{bn_output, bn_posterior};
use crate::decoder::swar::{
    self, abs_i8, apply_sign8, bit_gather8, eq7_mask, ltu15_mask16, ltu7_mask, min_u16,
    narrow_bytes, scale_mag8, select8, sign_mask8, sign_pack8, splat8, widen_even, widen_odd,
};
use crate::decoder::{BlockDecoder, DecodeResult, FixedConfig};
use crate::{LdpcCode, LlrQuantizer, TannerGraph};
use gf2::BitVec;
use std::ops::Range;
use std::sync::Arc;

mod avx2;

/// Lanes (frames) packed into each message word.
pub const PACK_LANES: usize = swar::LANES;

/// Low byte of every u16 lane.
const M16: u64 = 0x00FF_00FF_00FF_00FF;

/// Largest bit-node degree the stack-resident per-edge caches cover.
const MAX_BN_DEGREE: usize = 64;

/// Bytes per cache line: slot rows are padded to an odd number of lines.
const LINE_BYTES: usize = 64;

/// Checks the syndrome's settle gather tries before it gives way to the
/// full run-wise pass (see [`PackedFixedDecoder::syndrome_pass`]).
const SETTLE_CHECKS: usize = 32;

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

/// The little-endian word at byte `at` of a plane.
#[inline(always)]
fn word(plane: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(plane[at..at + 8].try_into().expect("eight bytes"))
}

/// Stores `w` at byte `at` of a plane.
#[inline(always)]
fn set_word(plane: &mut [u8], at: usize, w: u64) {
    plane[at..at + 8].copy_from_slice(&w.to_le_bytes());
}

/// Positions per slot row for a code with `checks` check nodes, when
/// `per_line` positions fill a cache line: `checks` rounded up to whole
/// lines, plus one line more when that is an even number of lines. An
/// odd line count keeps the slot rows from landing a multiple of the L1
/// way size apart, where they would alias.
fn slot_stride(checks: usize, per_line: usize) -> usize {
    let stride = checks.next_multiple_of(per_line);
    if (stride / per_line).is_multiple_of(2) {
        stride + per_line
    } else {
        stride
    }
}

/// How the eight byte lanes of a word map onto the decoding problem —
/// the paper's two instances of one datapath, fixed at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lanes {
    /// High speed: lane `f` is frame `f`, and every message position
    /// owns a whole word.
    Frames,
    /// Low cost: one frame, and every message position owns one byte, so
    /// a word holds eight adjacent positions.
    Nodes,
}

impl Lanes {
    /// Frames per word, which is also the bytes each position (an edge
    /// slot or a bit) owns in a plane.
    fn frames(self) -> usize {
        match self {
            Self::Frames => PACK_LANES,
            Self::Nodes => 1,
        }
    }

    /// Adjacent bits one bit-node word covers.
    fn bits_per_word(self) -> usize {
        PACK_LANES / self.frames()
    }
}

/// A maximal stretch of consecutive bits whose message positions all
/// advance by one per bit inside one slot row: bit `bit + j` reads and
/// writes position `p + j` for each edge position `p` of the run, which
/// is slot `p / M′` of check `p % M′ + j`.
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
/// `m`, lives at position `k·stride + m`, so row `k` holds input slot
/// `k` of every check.
struct SlotLayout {
    /// Positions per slot row (`M′`).
    stride: usize,
    /// Slot rows: the largest check degree.
    slots: usize,
    /// Every bit, grouped into runs, in bit order.
    runs: Vec<BitRun>,
    /// Edge positions of each run's first bit.
    run_pos: Vec<u32>,
    /// Slot column of each entry of `run_pos` (`p % stride`): the
    /// edge's check.
    run_col: Vec<u32>,
}

impl SlotLayout {
    fn new(graph: &TannerGraph, lanes: Lanes) -> Self {
        let stride = slot_stride(graph.n_checks(), LINE_BYTES / lanes.frames());
        let slots = graph.max_cn_degree();
        let words = slots * stride;
        // Position of every edge, in the graph's check-grouped order.
        let mut edge_pos = vec![0u32; graph.n_edges()];
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            for (k, e) in range.enumerate() {
                edge_pos[e] = u32::try_from(k * stride + m).expect("message memory fits u32");
            }
        }
        let mut runs: Vec<BitRun> = Vec::new();
        let (mut run_pos, mut run_col) = (Vec::new(), Vec::new());
        let (mut pos, mut prev) = (Vec::new(), Vec::new());
        for n in 0..graph.n_bits() {
            pos.clear();
            pos.extend(graph.bn_edge_ids(n).iter().map(|&e| edge_pos[e as usize]));
            // An edge's slot column is its check. A run ends at a row
            // boundary: with M′ = M, the position after check M − 1 of one
            // row is check 0 of the next.
            let checks = graph.bn_checks(n);
            let extends = !runs.is_empty()
                && pos.len() == prev.len()
                && (pos.iter().zip(&prev).zip(checks)).all(|((&p, &q), &m)| p == q + 1 && m != 0);
            if extends {
                runs.last_mut().expect("checked non-empty").len += 1;
            } else {
                let start = run_pos.len();
                run_pos.extend_from_slice(&pos);
                run_col.extend_from_slice(checks);
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
            for &c in &run_col[run.pos.clone()] {
                assert!(
                    c as usize + run.len <= graph.n_checks(),
                    "bit run leaves its slot row"
                );
            }
        }
        Self {
            stride,
            slots,
            runs,
            run_pos,
            run_col,
        }
    }

    /// Message positions per direction.
    fn words(&self) -> usize {
        self.slots * self.stride
    }

    /// Calls `f(pos, bit, j)` for steps of `step` bits that cover every
    /// run at least `step` bits long: step `j` is bits `bit + j .. bit +
    /// j + step` of the run starting at `bit`, whose first bit has edge
    /// positions `pos`. A run that does not end on a step boundary ends
    /// with a step moved back onto its last bit, overlapping the one
    /// before; the overlap is recomputed to the same values, because a
    /// bit-node update reads only the channel and check→bit planes.
    fn for_each_step(&self, step: usize, mut f: impl FnMut(&[u32], usize, usize)) {
        for run in self.runs.iter().filter(|run| run.len >= step) {
            let pos = &self.run_pos[run.pos.clone()];
            let mut j = 0;
            while j + step <= run.len {
                f(pos, run.bit, j);
                j += step;
            }
            if j < run.len {
                f(pos, run.bit, run.len - step);
            }
        }
    }

    /// Calls `f(pos, bit, j)` for every bit of the runs shorter than
    /// `step` bits, which no step covers (see
    /// [`for_each_step`](Self::for_each_step)).
    fn for_each_tail(&self, step: usize, mut f: impl FnMut(&[u32], usize, usize)) {
        for run in self.runs.iter().filter(|run| run.len < step) {
            let pos = &self.run_pos[run.pos.clone()];
            for j in 0..run.len {
                f(pos, run.bit, j);
            }
        }
    }
}

/// The decoder's byte planes. In the message and channel planes a
/// position (an edge slot of the message memory, or a bit) owns
/// [`Lanes::frames`] bytes: position `p` of frame `f` is byte
/// `p·frames + f`. The hard and parity planes hold one lane-mask byte
/// per bit or check in both mappings: bit `f` is frame `f` (node lanes
/// use bit 0 only), the plane form of `gallager-b@bitslice`.
struct Planes {
    /// Bit→check messages, signed bytes in slot-major order; positions
    /// no edge owns hold `0x7F`.
    bc: Vec<u8>,
    /// Check→bit messages, same layout.
    cb: Vec<u8>,
    /// Quantized channel LLRs as signed bytes, one position per bit.
    ch: Vec<u8>,
    /// Hard decisions, one lane mask per bit: bit `f` set where frame
    /// `f` decides 1. Zero bytes pad it to whole groups of eight bits.
    hard: Vec<u8>,
    /// The syndrome's check-major parity row, one lane mask per check:
    /// bit `f` set where frame `f` fails the check.
    parity: Vec<u8>,
}

/// Per-edge contribution cache of one bit-node word: the positive and
/// negative magnitude planes of each edge's check→bit word.
type EdgeCache = [(u64, u64); MAX_BN_DEGREE];

impl Planes {
    /// Bit-node update of one word's eight lanes — eight frames of one
    /// bit, or eight adjacent bits of one frame; the arithmetic is the
    /// same. The channel lanes are the word at byte `ch_at`; the edge
    /// lanes are the words at bytes `at(p)` for `p` in `pos`. Returns
    /// the hard decisions: `0xFF` in each lane that decides 1.
    ///
    /// The sum runs in biased u16 lanes (bias `B = ch_max +
    /// max_bn_degree · msg_max`). Lane values stay in `[0, 2·bias]`
    /// through every partial sum (the channel magnitude is at most
    /// `ch_max`, each check→bit magnitude is at most `msg_max`, and at
    /// most `max_bn_degree` of them are subtracted), so the plain `u64`
    /// add/sub never borrows across lanes and the accumulator is exact —
    /// the packed equivalent of the scalar datapath's i32 widening. The
    /// per-edge output `bias + ch + total − own` then saturates to
    /// `msg_max` exactly like
    /// [`bn_output`](crate::decoder::kernels::bn_output), and the hard
    /// decision `t < bias` is
    /// [`bn_posterior`](crate::decoder::kernels::bn_posterior)` < 0`.
    #[inline(always)]
    fn bn_word(
        &mut self,
        ch_at: usize,
        pos: &[u32],
        at: impl Fn(u32) -> usize,
        bias: u16,
        msg_max: i16,
        cache: &mut EdgeCache,
    ) -> u64 {
        let b16 = splat16(bias);
        let m16 = splat16(msg_max as u16);
        let (cp, cn) = split_signed(word(&self.ch, ch_at));
        let mut te = b16
            .wrapping_add(widen_even(cp))
            .wrapping_sub(widen_even(cn));
        let mut to = b16.wrapping_add(widen_odd(cp)).wrapping_sub(widen_odd(cn));
        for (c, &p) in cache.iter_mut().zip(pos) {
            let (pm, nm) = split_signed(word(&self.cb, at(p)));
            *c = (pm, nm);
            te = te.wrapping_add(widen_even(pm)).wrapping_sub(widen_even(nm));
            to = to.wrapping_add(widen_odd(pm)).wrapping_sub(widen_odd(nm));
        }
        for (&(pm, nm), &p) in cache.iter().zip(pos) {
            let ue = te.wrapping_sub(widen_even(pm)).wrapping_add(widen_even(nm));
            let uo = to.wrapping_sub(widen_odd(pm)).wrapping_add(widen_odd(nm));
            // Sign: the extrinsic sum is negative iff u < bias.
            let lte = ltu15_mask16(ue, b16);
            let lto = ltu15_mask16(uo, b16);
            // Magnitude: |u - bias| via max/min (xor recovers the other
            // of the pair), saturated to the message width.
            let mxe = select8(lte, b16, ue);
            let mage = min_u16(mxe.wrapping_sub(ue ^ b16 ^ mxe), m16);
            let mxo = select8(lto, b16, uo);
            let mago = min_u16(mxo.wrapping_sub(uo ^ b16 ^ mxo), m16);
            let sign = narrow_bytes(lte & M16, lto & M16);
            let mag = narrow_bytes(mage, mago);
            set_word(&mut self.bc, at(p), apply_sign8(mag, sign));
        }
        // Hard decision: posterior < 0 iff the biased total < bias.
        let he = ltu15_mask16(te, b16);
        let ho = ltu15_mask16(to, b16);
        narrow_bytes(he & M16, ho & M16)
    }

    /// Bit-node update of one node-lane bit through the scalar kernels,
    /// for a run shorter than a word, where a whole word would store past
    /// the run. The channel byte is `b`; the edge bytes are `p + j` for
    /// `p` in `pos`.
    fn bn_bit(&mut self, b: usize, pos: &[u32], j: usize, msg_max: i16) {
        let level = |plane: &[u8], at: usize| i16::from(plane[at] as i8);
        let ch = level(&self.ch, b);
        let total: i32 = pos
            .iter()
            .map(|&p| i32::from(level(&self.cb, p as usize + j)))
            .sum();
        for &p in pos {
            let at = p as usize + j;
            self.bc[at] = bn_output(ch, total, level(&self.cb, at), msg_max) as u8;
        }
        self.hard[b] = u8::from(bn_posterior(ch, total, i16::MAX) < 0);
    }
}

/// Packed fixed-point normalized min-sum decoder.
///
/// Every check-node and bit-node update is a handful of SWAR word ops
/// from [`swar`](crate::decoder::swar) that advance eight signed-byte
/// lanes at once. What a lane holds is fixed at construction, and the
/// two choices are the paper's two instances of its generic datapath:
///
/// * **Frame lanes** ([`new`](Self::new); `fixed@pack=8`,
///   `fixed@batch=N`) — the high-speed instance, eight frames in flight.
///   Lane `f` of every word is frame `f`, so one word op updates one
///   edge in eight frames.
/// * **Node lanes** ([`node_lanes`](Self::node_lanes); plain `fixed`) —
///   the low-cost instance, one frame in flight. Each message position
///   owns one byte, so a word holds eight adjacent positions: eight
///   adjacent checks of one slot row in the check-node phase, eight
///   adjacent bits of one bit run in the bit-node phase.
///
/// Both mappings run the same check-node routine and the same per-word
/// bit-node routine. Each direction keeps **one** signed byte per edge
/// and frame (not separate sign and magnitude planes), so an iteration
/// streams exactly two bytes per edge visit — the check node splits sign
/// from magnitude on the fly (the sign product is the XOR of the raw
/// words: sign bits XOR in place) and the bit node re-signs on the way
/// out.
///
/// The messages are stored **slot-major**, like the paper's banked
/// message memory: the `k`-th edge of check `m` lives at position
/// `k·M′ + m`, so each check-input slot is one row of `M′` positions
/// (`M′` ≥ the check count, see DESIGN.md §4.4). A check scan reads the
/// same column of every row, and the bit nodes of a circulant walk each
/// row one position per bit. Slots of checks with fewer edges than the
/// widest check hold neutral `0x7F` lanes. With node lanes, a run that
/// does not end on a word boundary ends with a word moved back onto its
/// last bit, and a run shorter than a word takes the per-bit path of
/// [`kernels`](crate::decoder::kernels), so no store ever leaves the
/// run.
///
/// Hard decisions are one lane-mask byte per bit in both mappings (bit
/// `f` is frame `f`'s decision), written by the bit-node phases. The
/// syndrome checks only the frames still decoding: a gather over the
/// first checks when each of them already fails one there, otherwise
/// one pass in which every run XORs its hard slice into a check-major
/// parity row once per edge. Message seeding walks the same runs.
///
/// The result is **bit-exact per lane** against [`FixedDecoder`](crate::decoder::FixedDecoder) with the
/// same [`FixedConfig`] — same messages, same hard decisions, same
/// iteration counts — which the conformance and golden suites pin.
///
/// On a CPU with AVX2 the same phases run on 256-bit vector
/// instructions; the results are identical bit for bit.
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
///
/// // One frame across the lanes of each word.
/// let mut one = PackedFixedDecoder::node_lanes(code.clone(), FixedConfig::default());
/// assert_eq!(one.decode_batch(&llrs[..code.n()], 10), out[..1]);
/// ```
pub struct PackedFixedDecoder {
    code: Arc<LdpcCode>,
    config: FixedConfig,
    quantizer: LlrQuantizer,
    lanes: Lanes,
    /// Bit-node bias of the portable path: u16 accumulator lanes hold
    /// `bias + value`.
    bias: u16,
    layout: SlotLayout,
    planes: Planes,
    /// Lanes failing some check after the last syndrome pass: bit `f` is
    /// clear iff frame `f`'s syndrome is zero, for the frames that pass
    /// checked.
    unsat: u8,
    /// Whether the last iteration ran on the AVX2 mirror.
    ran_simd: bool,
    state: BatchState,
}

impl PackedFixedDecoder {
    /// Creates a frame-lane decoder, eight frames per word, for the
    /// given code and datapath configuration.
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
        Self::with_lanes(code, config, Lanes::Frames)
    }

    /// Creates a node-lane decoder: one frame per word, adjacent checks
    /// and bits in its lanes. It decodes one frame per call, bit-exact
    /// against [`FixedDecoder`](crate::decoder::FixedDecoder).
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn node_lanes(code: Arc<LdpcCode>, config: FixedConfig) -> Self {
        Self::with_lanes(code, config, Lanes::Nodes)
    }

    fn with_lanes(code: Arc<LdpcCode>, config: FixedConfig, lanes: Lanes) -> Self {
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
        let layout = SlotLayout::new(graph, lanes);
        let bytes = layout.words() * lanes.frames();
        Self {
            quantizer,
            config,
            lanes,
            bias: bias as u16,
            layout,
            planes: Planes {
                bc: vec![0x7F; bytes],
                cb: vec![0; bytes],
                ch: vec![0; code.n() * lanes.frames()],
                hard: vec![0; code.n().next_multiple_of(8)],
                parity: vec![0; graph.n_checks()],
            },
            unsat: 0,
            ran_simd: false,
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

    /// Whether the running CPU supports the 256-bit AVX2 mirror, which
    /// every build compiles in on x86-64. When `false` the portable SWAR
    /// kernels run on the same slot-major layout; the results are
    /// identical either way.
    pub fn simd_active() -> bool {
        avx2::available()
    }

    /// Whether this decoder's last iteration ran on the AVX2 mirror —
    /// what [`simd_active`](Self::simd_active) promises for every lane
    /// mapping. `false` before the first iteration.
    pub fn ran_simd(&self) -> bool {
        self.ran_simd
    }

    /// Decodes a batch of already-quantized frames stored back to back
    /// (frame `f` occupies `channel[f*n .. (f+1)*n]`), the hardware input
    /// format. See [`decode_batch`](Self::decode_batch) for the result contract.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len()` is not a positive multiple of the code
    /// length, if the frame count exceeds the frames of one word
    /// ([`PACK_LANES`] with frame lanes, 1 with node lanes), or if any
    /// value exceeds the channel quantizer range.
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

    /// Decodes the frames of one word stored back to back (frame `f`
    /// occupies `llrs[f*n .. (f+1)*n]`): between 1 and [`PACK_LANES`]
    /// with frame lanes, exactly 1 with node lanes.
    ///
    /// Returns one [`DecodeResult`] per frame, in input order, each
    /// bit-identical to [`FixedDecoder`](crate::decoder::FixedDecoder) on
    /// that frame alone. [`BlockDecoder::decode_block`] takes any number
    /// of frames and splits them into words.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a positive multiple of the code
    /// length, or if the frame count exceeds the frames of one word.
    pub fn decode_batch(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        let quantizer = self.quantizer;
        let frames = self.load_channel(llrs, |llr| quantizer.quantize(llr));
        self.decode_loaded(frames, max_iterations)
    }

    /// Quantizes frame-major inputs straight into the channel plane,
    /// frame `f`'s level of bit `b` at byte `b·frames + f`, and returns
    /// the frame count. Unused frame lanes hold channel 0, which keeps
    /// every lane inside the proven value ranges.
    fn load_channel<T: Copy>(&mut self, input: &[T], level: impl Fn(T) -> i16) -> usize {
        let n = self.code.n();
        assert!(
            !input.is_empty() && input.len().is_multiple_of(n),
            "input length must be a positive multiple of the code length"
        );
        let frames = input.len() / n;
        let capacity = self.lanes.frames();
        assert!(
            frames <= capacity,
            "batch of {frames} frames exceeds the {capacity} frame(s) of one word"
        );
        if frames < capacity {
            self.planes.ch.fill(0);
        }
        for (f, frame) in input.chunks_exact(n).enumerate() {
            for (lanes, &x) in self.planes.ch.chunks_exact_mut(capacity).zip(frame) {
                lanes[f] = level(x) as u8;
            }
        }
        frames
    }

    /// Seeds the messages and runs the iterations.
    fn decode_loaded(&mut self, frames: usize, max_iterations: u32) -> Vec<DecodeResult> {
        self.seed_messages();
        drive_batch(self, frames, max_iterations)
    }

    /// Seeds every edge's bit→check message with its bit's channel value
    /// saturated to the message width, run by run: the run's channel
    /// slice is clamped once into its first edge's positions and copied
    /// to each other edge's.
    fn seed_messages(&mut self) {
        let max = self.config.msg_max() as i8;
        let frames = self.lanes.frames();
        let Planes { bc, ch, .. } = &mut self.planes;
        for run in &self.layout.runs {
            let len = frames * run.len;
            let (&first, rest) = self.layout.run_pos[run.pos.clone()]
                .split_first()
                .expect("every bit has an edge");
            let seeded = frames * first as usize..frames * first as usize + len;
            let channel = &ch[frames * run.bit..][..len];
            for (m, &c) in bc[seeded.clone()].iter_mut().zip(channel) {
                *m = (c as i8).clamp(-max, max) as u8;
            }
            for &p in rest {
                bc.copy_within(seeded.clone(), frames * p as usize);
            }
        }
    }

    /// Words per slot row.
    fn row_words(&self) -> usize {
        self.layout.stride * self.lanes.frames() / PACK_LANES
    }

    /// Check-node phase, eight lanes per word op, one column of words at
    /// a time: sign product by XOR of the raw message words (sign bits
    /// XOR in place; the low bits are masked off at output), two-minimum
    /// magnitude scan via lane compares — the word form of
    /// [`cn_scan`](crate::decoder::kernels::cn_scan) +
    /// [`CnState::output`](crate::decoder::kernels::CnState::output).
    /// A word column is one check in eight frames, or eight adjacent
    /// checks of one frame; either way it is a row of words.
    ///
    /// The scan seeds `min1 = min2 = 127`, which coincides with the
    /// scalar kernel's `i16::MAX` seed for degrees >= 2 because lane
    /// magnitudes never exceed 127: the first two absorbs pull both
    /// minima down to real message values either way, through the same
    /// strict-`<` first-wins tie rule. The argmin is the slot index,
    /// which is the edge's rank within its check. Every column scans all
    /// slot rows: unused slots hold `0x7F` lanes, which never beat the
    /// seed under the strict compare and carry sign bit 0, so they change
    /// no state. Their outputs (and those of the padding checks past the
    /// real ones) land in positions no bit node reads.
    fn cn_phase(&mut self) {
        let row = self.row_words();
        let slots = self.layout.slots;
        let scaling = self.config.scaling;
        let Planes { bc, cb, .. } = &mut self.planes;
        for col in 0..row {
            let mut sp = 0u64;
            let mut min1 = splat8(0x7F);
            let mut min2 = splat8(0x7F);
            let mut argmin = 0u64;
            for k in 0..slots {
                let v = word(bc, PACK_LANES * (k * row + col));
                sp ^= v;
                let mag = abs_i8(v);
                let lt1 = ltu7_mask(mag, min1);
                let lt2 = ltu7_mask(mag, min2);
                min2 = select8(lt1, min1, select8(lt2, mag, min2));
                min1 = select8(lt1, mag, min1);
                argmin = select8(lt1, splat8(k as i8), argmin);
            }
            // Scaling commutes with the excluded-self select, so scale the
            // two minima once per column instead of once per edge.
            let s1 = scale_mag8(min1, scaling);
            let s2 = scale_mag8(min2, scaling);
            for k in 0..slots {
                let at = PACK_LANES * (k * row + col);
                let eq = eq7_mask(argmin, splat8(k as i8));
                let smag = select8(eq, s2, s1);
                // Output sign = sign product excluding self = sign bits
                // of the XOR accumulator XOR this edge's own sign.
                let sign = sign_mask8(sp ^ word(bc, at));
                set_word(cb, at, apply_sign8(smag, sign));
            }
        }
    }

    /// Bit-node phase over the word steps of every run, eight lanes per
    /// word op (see [`Planes::bn_word`]), storing the hard decisions as
    /// lane masks: a bit's eight frames pack into its byte, and each of
    /// eight node-lane bits keeps its own. With node lanes the runs
    /// shorter than a word are left to [`bn_tails`](Self::bn_tails).
    fn bn_words(&mut self) {
        let lanes = self.lanes;
        let frames = lanes.frames();
        let (bias, msg_max) = (self.bias, self.config.msg_max());
        let mut cache = [(0, 0); MAX_BN_DEGREE];
        let planes = &mut self.planes;
        self.layout
            .for_each_step(lanes.bits_per_word(), |pos, bit, j| {
                let (b, at) = (bit + j, |p: u32| frames * (p as usize + j));
                let hard = planes.bn_word(frames * b, pos, at, bias, msg_max, &mut cache);
                match lanes {
                    Lanes::Frames => planes.hard[b] = sign_pack8(hard),
                    Lanes::Nodes => set_word(&mut planes.hard, b, hard & splat8(1)),
                }
            });
    }

    /// Bit-node update of the node-lane runs shorter than a word, one bit
    /// at a time through the scalar kernels. Frame lanes have none.
    fn bn_tails(&mut self) {
        let msg_max = self.config.msg_max();
        let planes = &mut self.planes;
        self.layout
            .for_each_tail(self.lanes.bits_per_word(), |pos, bit, j| {
                planes.bn_bit(bit + j, pos, j, msg_max);
            });
    }

    /// Syndrome of the frames in `live` (bit `f` for frame `f`): leaves
    /// in `unsat` a lane mask in which every live frame's bit is set iff
    /// that frame fails some check. The [`settle`](Self::settle) gather
    /// decides it when every live frame already fails one of the first
    /// checks, as a word still decoding and an unconverged node-lane
    /// frame do; otherwise the [`parity_pass`](Self::parity_pass) checks
    /// every check.
    fn syndrome_pass(&mut self, live: u8) {
        self.unsat = match self.settle(live) {
            Some(failing) => failing,
            None => self.parity_pass(),
        };
    }

    /// The lanes failing one of the first [`SETTLE_CHECKS`] checks, each
    /// check's parity gathered from its bits' lane masks — if that is
    /// every lane of `live`, or if those are all the checks.
    fn settle(&self, live: u8) -> Option<u8> {
        let graph = self.code.graph();
        let hard = &self.planes.hard;
        let checks = graph.n_checks().min(SETTLE_CHECKS);
        let mut failing = 0;
        for m in 0..checks {
            failing |= graph
                .cn_bits(m)
                .iter()
                .fold(0, |p, &b| p ^ hard[b as usize]);
            if failing & live == live {
                return Some(failing);
            }
        }
        (checks == graph.n_checks()).then_some(failing)
    }

    /// The lanes failing some check. Each run XORs its slice of the hard
    /// plane into the check-major parity row once per edge: the `k`-th
    /// edges of a run's consecutive bits are consecutive checks of slot
    /// row `k`, so the run's bits land on a slice of the row.
    fn parity_pass(&mut self) -> u8 {
        let Planes { hard, parity, .. } = &mut self.planes;
        parity.fill(0);
        for run in &self.layout.runs {
            let bits = &hard[run.bit..run.bit + run.len];
            for &c in &self.layout.run_col[run.pos.clone()] {
                for (p, &h) in parity[c as usize..][..run.len].iter_mut().zip(bits) {
                    *p ^= h;
                }
            }
        }
        parity.iter().fold(0, |unsat, &p| unsat | p)
    }

    /// One check-node + bit-node iteration: the AVX2 mirror when the CPU
    /// has it, the portable SWAR kernels otherwise.
    fn phases(&mut self) {
        if self.cn_phase_simd() && self.bn_words_simd() {
            self.bn_tails();
            self.ran_simd = true;
            return;
        }
        self.ran_simd = false;
        self.cn_phase();
        self.bn_words();
        self.bn_tails();
    }
}

impl BatchPhases for PackedFixedDecoder {
    fn run_phases(&mut self, _iter: u32, _frames: usize, state: &BatchState) {
        // All 8 lanes always advance — a retired lane's results were
        // snapshotted by the driver, so its lanes idling along is free
        // (that is the whole point of the packing: no masking, ever). Only
        // the syndrome skips them.
        self.phases();
        self.syndrome_pass(state.lanes.iter().fold(0, |live, &f| live | 1 << f));
    }

    fn channel_decision(&mut self, frames: usize) {
        let Planes { ch, hard, .. } = &mut self.planes;
        for (h, lanes) in hard.iter_mut().zip(ch.chunks_exact(self.lanes.frames())) {
            *h = lanes.iter().rev().fold(0, |mask, &c| mask << 1 | c >> 7);
        }
        self.syndrome_pass(((1u16 << frames) - 1) as u8);
    }

    fn hard_decision(&self, f: usize) -> BitVec {
        // Bit f of a group of eight lane masks is one byte of the frame's
        // decisions, and eight groups are one word.
        let (groups, _) = self.planes.hard.as_chunks::<8>();
        let words = groups
            .chunks(8)
            .map(|word| {
                word.iter().rev().fold(0, |w, group| {
                    w << 8 | u64::from(bit_gather8(u64::from_le_bytes(*group), f as u32))
                })
            })
            .collect();
        BitVec::from_words(self.code.n(), words)
    }

    fn syndrome_ok_frame(&self, f: usize) -> bool {
        self.unsat >> f & 1 == 0
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
        runs(llrs, self.n(), self.lanes.frames())
            .flat_map(|run| self.decode_batch(run, max_iterations))
            .collect()
    }

    fn block_frames(&self) -> usize {
        self.lanes.frames()
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        let lanes = match self.lanes {
            Lanes::Frames => "8 frames/word",
            Lanes::Nodes => "1 frame, 8 nodes/word",
        };
        format!(
            "packed fixed-point normalized min-sum ({lanes}, {}b msg)",
            self.config.q_msg
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
    use std::time::{Duration, Instant};

    /// A batch of frames spanning the convergence spectrum: clean frames
    /// that converge immediately, noisy ones that take several
    /// iterations, and garbage that stalls — so lanes retire at
    /// different iterations.
    fn mixed_batch(code: &Arc<LdpcCode>, frames: usize, seed: u64) -> Vec<i16> {
        mixed_levels(code, frames, 15, seed)
    }

    /// [`mixed_batch`] for a channel quantizer whose largest level is
    /// `ch_max`.
    fn mixed_levels(code: &Arc<LdpcCode>, frames: usize, ch_max: i16, seed: u64) -> Vec<i16> {
        let n = code.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(frames * n);
        for f in 0..frames {
            match f % 3 {
                0 => out.extend(std::iter::repeat_n(2 * ch_max / 3, n)),
                1 => out.extend((0..n).map(|_| {
                    let v: i16 = rng.gen_range(1..=(ch_max + 1) / 2);
                    if rng.gen_bool(0.12) {
                        -v
                    } else {
                        v
                    }
                })),
                _ => out.extend((0..n).map(|_| rng.gen_range(-ch_max..=ch_max))),
            }
        }
        out
    }

    /// Both lane mappings of one configuration: frame lanes, then node
    /// lanes.
    fn both_mappings(code: &Arc<LdpcCode>, config: FixedConfig) -> [PackedFixedDecoder; 2] {
        [
            PackedFixedDecoder::new(code.clone(), config),
            PackedFixedDecoder::node_lanes(code.clone(), config),
        ]
    }

    /// Decodes quantized frames a word at a time, however many frames
    /// the decoder's word holds.
    fn decode_words(dec: &mut PackedFixedDecoder, ch: &[i16], iters: u32) -> Vec<DecodeResult> {
        let per_word = dec.block_frames() * dec.n();
        ch.chunks(per_word)
            .flat_map(|w| dec.decode_quantized_batch(w, iters))
            .collect()
    }

    /// Every frame of `ch` decoded by both lane mappings matches the
    /// scalar reference, on the demo code.
    fn assert_matches_scalar(config: FixedConfig, ch: &[i16], iters: u32) {
        assert_matches_scalar_on(&demo_code(), config, ch, iters);
    }

    /// [`assert_matches_scalar`] on any code.
    fn assert_matches_scalar_on(code: &Arc<LdpcCode>, config: FixedConfig, ch: &[i16], iters: u32) {
        let n = code.n();
        let mut scalar = FixedDecoder::new(code.clone(), config);
        let want: Vec<DecodeResult> = ch
            .chunks(n)
            .map(|frame| scalar.decode_quantized(frame, iters))
            .collect();
        for mut packed in both_mappings(code, config) {
            let got = decode_words(&mut packed, ch, iters);
            assert_eq!(got.len(), want.len());
            for (f, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g,
                    w,
                    "{}: frame {f} diverged from FixedDecoder",
                    packed.name()
                );
            }
        }
    }

    fn assert_lanes_match_scalar(config: FixedConfig, frames: usize, seed: u64, iters: u32) {
        let ch = mixed_batch(&demo_code(), frames, seed);
        assert_matches_scalar(config, &ch, iters);
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
        // Regenerate the batch within the narrow channel range.
        let mut rng = StdRng::seed_from_u64(44);
        let ch: Vec<i16> = (0..8 * demo_code().n())
            .map(|_| rng.gen_range(-3i16..=3))
            .collect();
        assert_matches_scalar(cfg, &ch, 20);
    }

    #[test]
    fn wide_eight_bit_quantization_matches_scalar() {
        // q_msg = q_ch = 8: magnitudes up to 127 exercise the lane-scan
        // seed coincidence at the i8 boundary.
        let cfg = FixedConfig::default().with_q_msg(8).with_q_ch(8);
        let mut rng = StdRng::seed_from_u64(45);
        let ch: Vec<i16> = (0..8 * demo_code().n())
            .map(|_| rng.gen_range(-127i16..=127))
            .collect();
        assert_matches_scalar(cfg, &ch, 15);
    }

    #[test]
    fn float_entry_point_quantizes_like_scalar() {
        let code = demo_code();
        let n = code.n();
        let mut rng = StdRng::seed_from_u64(46);
        let llrs: Vec<f32> = (0..8 * n).map(|_| rng.gen_range(-6.0..6.0)).collect();
        let mut scalar = FixedDecoder::new(code.clone(), FixedConfig::default());
        for mut packed in both_mappings(&code, FixedConfig::default()) {
            for (f, out) in packed.decode_block(&llrs, 18).iter().enumerate() {
                let want = scalar.decode(&llrs[f * n..(f + 1) * n], 18);
                assert_eq!(out, &want, "{}: frame {f}", packed.name());
            }
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let code = demo_code();
        let ch = mixed_batch(&code, 8, 47);
        for mut dec in both_mappings(&code, FixedConfig::default()) {
            let a = decode_words(&mut dec, &ch, 18);
            let b = decode_words(&mut dec, &ch, 18);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn slot_stride_pads_to_an_odd_block_count() {
        // Frame lanes: 8 word positions per 64-byte line.
        assert_eq!(slot_stride(1022, 8), 1032); // C2: 1024 is 128 lines
        assert_eq!(slot_stride(1020, 8), 1032);
        assert_eq!(slot_stride(1016, 8), 1016); // 127 lines
        assert_eq!(slot_stride(3, 8), 8);
        // Node lanes: 64 byte positions per line.
        assert_eq!(slot_stride(1022, 64), 1088); // C2: 1024 is 16 lines
        assert_eq!(slot_stride(3, 64), 64);
        for per_line in [8, 64] {
            for m in 1..600 {
                let s = slot_stride(m, per_line);
                assert!(
                    s >= m && s.is_multiple_of(per_line) && !(s / per_line).is_multiple_of(2),
                    "m {m}: stride {s}"
                );
            }
        }
    }

    #[test]
    fn runs_cover_every_edge_once() {
        for lanes in [Lanes::Frames, Lanes::Nodes] {
            for code in [demo_code(), crate::codes::ccsds_c2::code()] {
                let graph = code.graph();
                let layout = SlotLayout::new(graph, lanes);
                // A slot row is a whole number of 4-word AVX2 vectors.
                assert!((layout.stride * lanes.frames()).is_multiple_of(32));
                let mut seen = vec![false; layout.words()];
                let mut next_bit = 0;
                for run in &layout.runs {
                    assert_eq!(run.bit, next_bit, "runs must tile the bits in order");
                    next_bit += run.len;
                    for (&p, &c) in layout.run_pos[run.pos.clone()]
                        .iter()
                        .zip(&layout.run_col[run.pos.clone()])
                    {
                        assert_eq!(c as usize, p as usize % layout.stride, "slot column");
                    }
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
                // Steps and tails cover every bit, and steps stay inside
                // their runs.
                let step = lanes.bits_per_word();
                let mut covered = vec![false; graph.n_bits()];
                layout.for_each_step(step, |_, bit, j| {
                    let run = layout.runs.iter().find(|r| r.bit == bit).unwrap();
                    assert!(j + step <= run.len, "step past its run");
                    covered[bit + j..bit + j + step].fill(true);
                });
                layout.for_each_tail(step, |_, bit, j| covered[bit + j] = true);
                assert!(covered.iter().all(|&c| c), "a bit no step covers");
            }
        }
    }

    #[test]
    fn slot_padding_stays_neutral_in_both_mappings() {
        // AR4JA pads the slots of its low-degree checks, and every code
        // pads the checks past its real ones. No store may reach either.
        let ar4ja = crate::CodeSpec::parse("ar4ja:r=1/2,k=1024")
            .unwrap()
            .build()
            .unwrap()
            .code()
            .clone();
        for code in [ar4ja, demo_code()] {
            for mut dec in both_mappings(&code, FixedConfig::default()) {
                let ch = mixed_batch(&code, dec.block_frames(), 48);
                let _ = dec.decode_quantized_batch(&ch, 6);
                let frames = dec.lanes.frames();
                let mut owned = vec![false; dec.layout.words()];
                dec.layout.for_each_step(1, |pos, _, j| {
                    for &p in pos {
                        owned[p as usize + j] = true;
                    }
                });
                for (p, _) in owned.iter().enumerate().filter(|(_, &o)| !o) {
                    let lanes = &dec.planes.bc[frames * p..frames * (p + 1)];
                    assert!(lanes.iter().all(|&b| b == 0x7F), "padding position {p}");
                }
            }
        }
    }

    /// A code whose `m` checks make a slot row exactly `m` positions wide
    /// in one mapping (`m` = 8·odd for frame lanes, 64·odd for node
    /// lanes), with two degree-1 bits in adjacent positions of two rows:
    /// bit `m + 1` is slot 2 of check `m − 1`, bit `m + 2` slot 3 of
    /// check 0.
    fn row_crossing_code(m: usize) -> Arc<LdpcCode> {
        let mut cols: Vec<Vec<usize>> = (0..m).map(|j| vec![j, (j + 1) % m]).collect();
        cols.push(vec![0, 5]);
        cols.push(vec![m - 1]);
        cols.push(vec![0]);
        let entries: Vec<(usize, usize)> = cols
            .iter()
            .enumerate()
            .flat_map(|(b, checks)| checks.iter().map(move |&c| (c, b)))
            .collect();
        let h = gf2::SparseMatrix::from_entries(m, cols.len(), &entries);
        LdpcCode::from_parity_check(format!("row crossing, {m} checks"), h).expect("valid code")
    }

    #[test]
    fn runs_end_at_slot_row_boundaries() {
        for (m, crossing) in [(24, Lanes::Frames), (64, Lanes::Nodes)] {
            let code = row_crossing_code(m);
            for lanes in [Lanes::Frames, Lanes::Nodes] {
                let layout = SlotLayout::new(code.graph(), lanes);
                assert_eq!(
                    layout.stride == m,
                    lanes == crossing,
                    "{m} checks, {lanes:?}"
                );
                let mut starts = vec![false; code.n()];
                for run in &layout.runs {
                    starts[run.bit] = true;
                    for &p in &layout.run_pos[run.pos.clone()] {
                        let row = p as usize / layout.stride;
                        let last = (p as usize + run.len - 1) / layout.stride;
                        assert_eq!(row, last, "{m} checks, {lanes:?}: run at bit {}", run.bit);
                    }
                }
                assert!(
                    starts[m + 2],
                    "{m} checks, {lanes:?}: bit {} starts a run",
                    m + 2
                );
            }
            assert_matches_scalar_on(
                &code,
                FixedConfig::default(),
                &mixed_batch(&code, 16, 51),
                20,
            );
        }
    }

    /// Sets the hard plane to the lane masks of `lanes` (one bit vector
    /// per frame lane of the decoder's word).
    fn set_hard_plane(dec: &mut PackedFixedDecoder, lanes: &[Vec<u8>]) {
        let n = dec.n();
        for (b, h) in dec.planes.hard[..n].iter_mut().enumerate() {
            *h = lanes.iter().rev().fold(0, |mask, lane| mask << 1 | lane[b]);
        }
    }

    /// Every live lane's syndrome verdict equals `TannerGraph::syndrome_ok`
    /// on that lane's bits, on every registry code in both mappings: over
    /// random words (the settle gather decides), words in which lanes are
    /// codewords, codewords with one bit flipped or all-zero (the full
    /// pass decides), every partial word and random live-lane subsets.
    /// Non-live lanes hold random bits that must not matter.
    #[test]
    fn syndrome_pass_matches_the_graph() {
        let mut rng = StdRng::seed_from_u64(50);
        for spec in crate::CodeSpec::all_codes() {
            let code = spec.build().expect("registry code builds").code().clone();
            let (graph, n) = (code.graph(), code.n());
            let encoder = if Arc::ptr_eq(&code, &crate::codes::ccsds_c2::code()) {
                crate::codes::ccsds_c2::encoder()
            } else {
                Arc::new(crate::Encoder::new(&code).expect("positive dimension"))
            };
            let lane = |kind: usize, rng: &mut StdRng| -> Vec<u8> {
                if kind == 0 {
                    return (0..n).map(|_| rng.gen_range(0..2)).collect();
                }
                let message: Vec<u8> = (0..encoder.dimension())
                    .map(|_| u8::from(kind != 3 && rng.gen_bool(0.5)))
                    .collect();
                let mut bits = encoder.encode_bits(&message).expect("encodes").to_bits();
                if kind == 2 {
                    bits[rng.gen_range(0..n)] ^= 1;
                }
                bits
            };
            for mut dec in both_mappings(&code, FixedConfig::default()) {
                let frames = dec.block_frames();
                let full = ((1u16 << frames) - 1) as u8;
                let (mut settled, mut passes) = (0, 0);
                for word in 0..16 {
                    // Word 0 is random; in word 1 only lane 0 is a codeword.
                    let lanes: Vec<Vec<u8>> = (0..frames)
                        .map(|f| match word {
                            0 => lane(0, &mut rng),
                            1 => lane(usize::from(f == 0), &mut rng),
                            _ => lane(rng.gen_range(0..4), &mut rng),
                        })
                        .collect();
                    set_hard_plane(&mut dec, &lanes);
                    let mut masks: Vec<u8> =
                        (1..=frames).map(|k| ((1u16 << k) - 1) as u8).collect();
                    masks.extend((0..4).map(|_| rng.gen::<u8>() & full | 1));
                    for live in masks {
                        match dec.settle(live) {
                            Some(_) => settled += 1,
                            None => passes += 1,
                        }
                        dec.syndrome_pass(live);
                        for (f, bits) in
                            lanes.iter().enumerate().filter(|(f, _)| live >> f & 1 == 1)
                        {
                            assert_eq!(
                                dec.syndrome_ok_frame(f),
                                graph.syndrome_ok(bits),
                                "{spec} / {}: word {word}, live {live:#04x}, lane {f}",
                                dec.name()
                            );
                        }
                    }
                }
                assert!(
                    settled > 0 && passes > 0,
                    "{spec} / {}: both paths ran",
                    dec.name()
                );
            }
        }
    }

    /// The AVX2 mirror and the portable SWAR kernels, run from the same
    /// planes, write the same planes: the check-node phase its check→bit
    /// plane, the bit-node words their bit→check and hard planes. The
    /// decoder takes the AVX2 path wherever the CPU has it, so this keeps
    /// the portable path pinned on those machines, phase by phase.
    #[test]
    fn portable_and_avx2_phases_write_identical_planes() {
        if !avx2::available() {
            assert!(!PackedFixedDecoder::simd_active());
            return;
        }
        let base = FixedConfig::default();
        let mut cases: Vec<(String, Arc<LdpcCode>, FixedConfig)> = crate::CodeSpec::all_codes()
            .into_iter()
            .map(|spec| {
                let code = spec.build().expect("registry code builds").code().clone();
                (spec.to_string(), code, base)
            })
            .collect();
        let scalings = [
            Scaling::Unity,
            Scaling::SevenEighths,
            Scaling::ThreeQuarters,
            Scaling::Half,
        ];
        for config in scalings.map(|s| base.with_scaling(s)).into_iter().chain([
            base.with_q_msg(4).with_q_ch(3),
            base.with_q_msg(8).with_q_ch(8),
        ]) {
            cases.push(("demo".into(), demo_code(), config));
        }
        for (spec, code, config) in cases {
            let n = code.n();
            for mut dec in both_mappings(&code, config) {
                // Frame lanes take a word whose lanes converge at different
                // iterations; node lanes take its noisy frame.
                let ch = mixed_levels(&code, 8, dec.quantizer.max_level(), 49);
                let word = if dec.block_frames() == 1 {
                    &ch[n..2 * n]
                } else {
                    &ch[..]
                };
                dec.load_channel(word, |c| c);
                dec.seed_messages();
                for iter in 0..8 {
                    let label = format!("{spec} / {} / {config:?}, iteration {iter}", dec.name());
                    let cb = dec.planes.cb.clone();
                    dec.cn_phase();
                    let portable = std::mem::replace(&mut dec.planes.cb, cb);
                    assert!(dec.cn_phase_simd());
                    assert!(dec.planes.cb == portable, "check-node phase: {label}");
                    let (bc, hard) = (dec.planes.bc.clone(), dec.planes.hard.clone());
                    dec.bn_words();
                    let portable_bc = std::mem::replace(&mut dec.planes.bc, bc);
                    let portable_hard = std::mem::replace(&mut dec.planes.hard, hard);
                    assert!(dec.bn_words_simd());
                    assert!(dec.planes.bc == portable_bc, "bit-node messages: {label}");
                    assert!(dec.planes.hard == portable_hard, "hard decisions: {label}");
                    dec.bn_tails();
                }
            }
        }
    }

    /// AWGN observations of the all-zero codeword at `ebn0_db`, as channel
    /// LLRs `2y/σ²` (Box–Muller noise).
    fn awgn_llrs(n: usize, rate: f64, ebn0_db: f64, frames: usize, seed: u64) -> Vec<f32> {
        let sigma = (1.0 / (2.0 * rate * 10f64.powf(ebn0_db / 10.0))).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..frames * n)
            .map(|_| {
                let (u, v): (f64, f64) = (1.0 - rng.gen::<f64>(), rng.gen());
                let z = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
                (2.0 * (1.0 + sigma * z) / (sigma * sigma)) as f32
            })
            .collect()
    }

    /// Time spent in each stage of [`traced_decode`]s, and what ran.
    #[derive(Default)]
    struct StageSplit {
        load: Duration,
        seed: Duration,
        phases: Duration,
        settle: Duration,
        full_pass: Duration,
        hard: Duration,
        iterations: u32,
        full_passes: u32,
    }

    fn timed<T>(stage: &mut Duration, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *stage += start.elapsed();
        out
    }

    /// Decodes one word the way `drive_batch` does (early stop on),
    /// adding each stage's time to `split`.
    fn traced_decode(
        dec: &mut PackedFixedDecoder,
        llrs: &[f32],
        iters: u32,
        split: &mut StageSplit,
    ) {
        let quantizer = dec.quantizer;
        let frames = timed(&mut split.load, || {
            dec.load_channel(llrs, |llr| quantizer.quantize(llr))
        });
        timed(&mut split.seed, || dec.seed_messages());
        let mut live = ((1u16 << frames) - 1) as u8;
        for _ in 0..iters {
            if live == 0 {
                break;
            }
            timed(&mut split.phases, || dec.phases());
            split.iterations += 1;
            dec.unsat = match timed(&mut split.settle, || dec.settle(live)) {
                Some(failing) => failing,
                None => {
                    split.full_passes += 1;
                    timed(&mut split.full_pass, || dec.parity_pass())
                }
            };
            for f in 0..frames {
                if live >> f & 1 == 1 && dec.syndrome_ok_frame(f) {
                    timed(&mut split.hard, || dec.hard_decision(f));
                    live &= !(1 << f);
                }
            }
        }
        for f in (0..frames).filter(|f| live >> f & 1 == 1) {
            timed(&mut split.hard, || dec.hard_decision(f));
        }
    }

    /// Prints the per-iteration phases of both paths on a mixed C2 word,
    /// then every stage of a decode per word at the benchmark's operating
    /// points: 3.8 dB in frame lanes, 3.3 and 3.7 dB in node lanes.
    #[test]
    #[ignore = "manual profiling aid: run with --release --nocapture"]
    fn profile_phase_split() {
        let handle = crate::CodeSpec::C2.build().expect("C2 builds");
        let (code, rate) = (handle.code().clone(), handle.rate());
        let n = code.n();
        let ch = mixed_batch(&code, 8, 99);
        let reps = 200u32;
        let time = |label: &str, f: &mut dyn FnMut()| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            println!("  {label}: {:?}/iter", start.elapsed() / reps);
        };
        println!(
            "vector path {}",
            if PackedFixedDecoder::simd_active() {
                "AVX2"
            } else {
                "inactive"
            }
        );
        for mut dec in both_mappings(&code, FixedConfig::default()) {
            let frames = dec.block_frames();
            // The 8-frame word mixes all three kinds of frame; node lanes
            // time one frame that never converges.
            let word = if frames == 1 { 2 * n..3 * n } else { 0..8 * n };
            let _ = dec.decode_quantized_batch(&ch[word], 2); // warm buffers
            let mut tails = 0;
            dec.layout
                .for_each_tail(dec.lanes.bits_per_word(), |_, _, _| tails += 1);
            println!(
                "C2, {frames} frame(s)/word: {} runs, {tails} of {n} bits in runs shorter than a word, stride {} positions, {} slots",
                dec.layout.runs.len(),
                dec.layout.stride,
                dec.layout.slots,
            );
            time("phases, selected path ", &mut || dec.phases());
            if PackedFixedDecoder::simd_active() {
                time("cn (avx2)             ", &mut || {
                    assert!(dec.cn_phase_simd())
                });
                time("bn words (avx2)       ", &mut || {
                    assert!(dec.bn_words_simd())
                });
            }
            time("cn (swar)             ", &mut || dec.cn_phase());
            time("bn words (swar)       ", &mut || dec.bn_words());
            time("bn tails (kernels)    ", &mut || dec.bn_tails());
        }
        for (lanes, ebn0) in [
            (Lanes::Frames, 3.8),
            (Lanes::Nodes, 3.3),
            (Lanes::Nodes, 3.7),
        ] {
            let mut dec =
                PackedFixedDecoder::with_lanes(code.clone(), FixedConfig::default(), lanes);
            let per_word = dec.block_frames() * n;
            let llrs = awgn_llrs(n, rate, ebn0, 1024, 7);
            let mut split = StageSplit::default();
            for word in llrs.chunks(per_word) {
                traced_decode(&mut dec, word, 18, &mut split);
            }
            let start = Instant::now();
            for word in llrs.chunks(per_word) {
                let _ = dec.decode_batch(word, 18);
            }
            let untraced = start.elapsed();
            let words = (llrs.len() / per_word) as u32;
            let us = |d: Duration| d.as_secs_f64() * 1e6 / f64::from(words);
            println!(
                "C2 at {ebn0} dB, {} frame(s)/word, {words} words: {:.2} iterations and {:.2} full parity passes a word",
                dec.block_frames(),
                f64::from(split.iterations) / f64::from(words),
                f64::from(split.full_passes) / f64::from(words),
            );
            let traced = split.load
                + split.seed
                + split.phases
                + split.settle
                + split.full_pass
                + split.hard;
            for (label, d) in [
                ("load (quantize)       ", split.load),
                ("message seeding       ", split.seed),
                ("phases                ", split.phases),
                ("syndrome settle gather", split.settle),
                ("syndrome parity pass  ", split.full_pass),
                ("hard decisions        ", split.hard),
                ("traced decode, total  ", traced),
                ("untraced decode_batch ", untraced),
            ] {
                println!("  {label}: {:.1} us/word", us(d));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn nine_frames_rejected() {
        let code = demo_code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let _ = dec.decode_quantized_batch(&vec![0i16; 9 * code.n()], 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn node_lanes_take_one_frame_per_word() {
        let code = demo_code();
        let mut dec = PackedFixedDecoder::node_lanes(code.clone(), FixedConfig::default());
        let _ = dec.decode_quantized_batch(&vec![0i16; 2 * code.n()], 1);
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
