//! SWAR-packed fixed-point decoder: one frame across the eight byte
//! lanes of each `u64` word, so one word op updates eight adjacent checks
//! or bits — the paper's low-cost instance of its datapath at register
//! width. Bit-exact against [`FixedDecoder`](crate::decoder::FixedDecoder).

use crate::decoder::block::runs;
use crate::decoder::kernels::{bn_output, bn_posterior};
use crate::decoder::swar::{
    self, abs_i8, apply_sign8, bit_gather8, eq7_mask, ltu15_mask16, ltu7_mask, min_u16,
    narrow_bytes, scale_mag8, select8, sign_mask8, splat8, widen_even, widen_odd,
};
use crate::decoder::{BlockDecoder, DecodeResult, FixedConfig};
use crate::{LdpcCode, LlrQuantizer, TannerGraph};
use gf2::BitVec;
use std::ops::Range;
use std::sync::Arc;

mod avx2;

/// Byte lanes per packed word: the adjacent checks or bits one word op
/// updates.
pub const PACK_LANES: usize = swar::LANES;

/// Low byte of every u16 lane.
const M16: u64 = 0x00FF_00FF_00FF_00FF;

/// Largest bit-node degree the stack-resident per-edge caches cover.
const MAX_BN_DEGREE: usize = 64;

/// Bytes per cache line: slot rows are padded to an odd number of lines.
const LINE_BYTES: usize = 64;

/// Checks the syndrome's settle gather tries before it gives way to the
/// full run-wise pass (see [`PackedFixedDecoder::syndrome_fails`]).
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

/// Quantizes LLRs into signed channel bytes, the portable channel load.
/// The AVX2 mirror compiles this same loop for its instruction set.
#[inline(always)]
fn quantize_into(quantizer: &LlrQuantizer, llrs: &[f32], out: &mut [u8]) {
    for (c, &llr) in out.iter_mut().zip(llrs) {
        *c = quantizer.quantize(llr) as u8;
    }
}

/// Positions per slot row for a code with `checks` check nodes: `checks`
/// rounded up to whole cache lines of one-byte positions, plus one line
/// more when that is an even number of lines. An odd line count keeps
/// the slot rows from landing a multiple of the L1 way size apart, where
/// they would alias.
fn slot_stride(checks: usize) -> usize {
    let stride = checks.next_multiple_of(LINE_BYTES);
    if (stride / LINE_BYTES).is_multiple_of(2) {
        stride + LINE_BYTES
    } else {
        stride
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
    fn new(graph: &TannerGraph) -> Self {
        let stride = slot_stride(graph.n_checks());
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

/// The decoder's byte planes. Every position — an edge slot of the
/// message memory, a bit, a check — owns one byte, so a word holds eight
/// adjacent positions.
struct Planes {
    /// Bit→check messages, signed bytes in slot-major order; positions
    /// no edge owns hold `0x7F`.
    bc: Vec<u8>,
    /// Check→bit messages, same layout.
    cb: Vec<u8>,
    /// Quantized channel LLRs as signed bytes, one position per bit.
    ch: Vec<u8>,
    /// Hard decisions, one byte per bit: 1 where the frame decides 1.
    /// Zero bytes pad it to whole groups of eight bits.
    hard: Vec<u8>,
    /// The syndrome's check-major parity row, one byte per check: 1
    /// where the check fails.
    parity: Vec<u8>,
}

/// Per-edge contribution cache of one bit-node word: the positive and
/// negative magnitude planes of each edge's check→bit word.
type EdgeCache = [(u64, u64); MAX_BN_DEGREE];

impl Planes {
    /// Bit-node update of the eight adjacent bits from bit `b` of a run,
    /// whose edges sit at bytes `p + j ..` for each `p` in `pos`: stores
    /// their bit→check messages and hard decisions.
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
        b: usize,
        pos: &[u32],
        j: usize,
        bias: u16,
        msg_max: i16,
        cache: &mut EdgeCache,
    ) {
        let b16 = splat16(bias);
        let m16 = splat16(msg_max as u16);
        let (cp, cn) = split_signed(word(&self.ch, b));
        let mut te = b16
            .wrapping_add(widen_even(cp))
            .wrapping_sub(widen_even(cn));
        let mut to = b16.wrapping_add(widen_odd(cp)).wrapping_sub(widen_odd(cn));
        for (c, &p) in cache.iter_mut().zip(pos) {
            let (pm, nm) = split_signed(word(&self.cb, p as usize + j));
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
            set_word(&mut self.bc, p as usize + j, apply_sign8(mag, sign));
        }
        // Hard decision: posterior < 0 iff the biased total < bias.
        let he = ltu15_mask16(te, b16);
        let ho = ltu15_mask16(to, b16);
        let hard = narrow_bytes(he & M16, ho & M16) & splat8(1);
        set_word(&mut self.hard, b, hard);
    }

    /// Bit-node update of one bit through the scalar kernels, for a run
    /// shorter than a word, where a whole word would store past the run.
    /// The channel byte is `b`; the edge bytes are `p + j` for `p` in
    /// `pos`.
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
/// One frame is in flight, and every message position owns one signed
/// byte, so a `u64` word holds eight adjacent positions: eight adjacent
/// checks of one slot row in the check-node phase, eight adjacent bits
/// of one bit run in the bit-node phase. Every update is a handful of
/// SWAR word ops from [`swar`](crate::decoder::swar) that advance the
/// eight byte lanes at once. This is the paper's low-cost instance of its
/// generic datapath; its high-speed instance, eight frames per memory
/// word, lives on only in the `ldpc-hwsim` model (DESIGN.md §4.4 says
/// why).
///
/// Each direction keeps **one** signed byte per edge (not separate sign
/// and magnitude planes), so an iteration streams exactly two bytes per
/// edge visit — the check node splits sign from magnitude on the fly
/// (the sign product is the XOR of the raw words: sign bits XOR in
/// place) and the bit node re-signs on the way out.
///
/// The messages are stored **slot-major**, like the paper's banked
/// message memory: the `k`-th edge of check `m` lives at position
/// `k·M′ + m`, so each check-input slot is one row of `M′` positions
/// (`M′` ≥ the check count, see DESIGN.md §4.4). A check scan reads the
/// same column of every row, and the bit nodes of a circulant walk each
/// row one position per bit. Slots of checks with fewer edges than the
/// widest check hold neutral `0x7F` lanes. A run that does not end on a
/// word boundary ends with a word moved back onto its last bit, and a
/// run shorter than a word takes the per-bit path of
/// [`kernels`](crate::decoder::kernels), so no store ever leaves the
/// run.
///
/// Hard decisions are one byte per bit, written by the bit-node phases.
/// The syndrome is a gather over the first checks, which a frame still
/// decoding usually fails, and otherwise one pass in which every run
/// XORs its hard slice into a check-major parity row once per edge.
/// Message seeding walks the same runs.
///
/// The result is **bit-exact** against [`FixedDecoder`](crate::decoder::FixedDecoder) with the
/// same [`FixedConfig`] — same messages, same hard decisions, same
/// iteration counts — which the conformance and golden suites pin.
///
/// On a CPU with AVX2 the channel load and the phases run on 256-bit
/// vector instructions; the results are identical bit for bit.
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{BlockDecoder, FixedConfig, PackedFixedDecoder};
///
/// let code = demo_code();
/// let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
/// // A noiseless all-zero frame.
/// let out = dec.decode(&vec![3.0_f32; code.n()], 10);
/// assert!(out.converged && out.hard_decision.is_zero());
///
/// // Any number of frames through the block front door, one per call.
/// assert_eq!(dec.block_frames(), 1);
/// let block = dec.decode_block(&vec![3.0_f32; 3 * code.n()], 10);
/// assert_eq!(block, vec![out; 3]);
/// ```
pub struct PackedFixedDecoder {
    code: Arc<LdpcCode>,
    config: FixedConfig,
    quantizer: LlrQuantizer,
    /// Bit-node bias of the portable path: u16 accumulator lanes hold
    /// `bias + value`.
    bias: u16,
    layout: SlotLayout,
    planes: Planes,
    /// Whether the last iteration ran on the AVX2 mirror.
    ran_simd: bool,
}

impl PackedFixedDecoder {
    /// Creates a decoder for the given code and datapath configuration.
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
        Self {
            quantizer,
            config,
            bias: bias as u16,
            layout,
            planes: Planes {
                bc: vec![0x7F; words],
                cb: vec![0; words],
                ch: vec![0; code.n()],
                hard: vec![0; code.n().next_multiple_of(8)],
                parity: vec![0; graph.n_checks()],
            },
            ran_simd: false,
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
    /// what [`simd_active`](Self::simd_active) promises. `false` before
    /// the first iteration.
    pub fn ran_simd(&self) -> bool {
        self.ran_simd
    }

    /// Decodes one frame of already-quantized channel values, the
    /// hardware input format, bit-identically to
    /// [`FixedDecoder::decode_quantized`](crate::decoder::FixedDecoder::decode_quantized).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the code length, or if any value
    /// exceeds the channel quantizer range.
    pub fn decode_quantized(&mut self, channel: &[i16], max_iterations: u32) -> DecodeResult {
        assert_eq!(channel.len(), self.code.n(), "channel length mismatch");
        let ch_max = self.quantizer.max_level();
        assert!(
            channel.iter().all(|&c| (-ch_max..=ch_max).contains(&c)),
            "channel value outside quantizer range"
        );
        self.load_levels(channel);
        self.decode_loaded(max_iterations)
    }

    /// Decodes one frame of channel LLRs, bit-identically to
    /// [`FixedDecoder::decode`](crate::decoder::FixedDecoder::decode) — the
    /// per-frame form of [`BlockDecoder::decode_block`].
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` differs from the code length.
    pub fn decode(&mut self, llrs: &[f32], max_iterations: u32) -> DecodeResult {
        assert_eq!(llrs.len(), self.code.n(), "channel LLR length mismatch");
        self.load_channel(llrs);
        self.decode_loaded(max_iterations)
    }

    /// Quantizes one frame of LLRs into the channel plane: the AVX2 loop
    /// when the CPU has it, the portable one otherwise.
    fn load_channel(&mut self, llrs: &[f32]) {
        if !avx2::quantize_simd(&self.quantizer, llrs, &mut self.planes.ch) {
            quantize_into(&self.quantizer, llrs, &mut self.planes.ch);
        }
    }

    /// Copies one frame of quantized levels into the channel plane.
    fn load_levels(&mut self, levels: &[i16]) {
        for (c, &level) in self.planes.ch.iter_mut().zip(levels) {
            *c = level as u8;
        }
    }

    /// Decodes the frame in the channel plane: seeds the messages, then
    /// runs check-node and bit-node phases, each followed by the
    /// syndrome, until the frame converges (with early stopping) or the
    /// budget is spent. A zero budget reports the channel decision.
    fn decode_loaded(&mut self, max_iterations: u32) -> DecodeResult {
        let mut iterations = 0;
        let converged = if max_iterations == 0 {
            let Planes { ch, hard, .. } = &mut self.planes;
            for (h, &c) in hard.iter_mut().zip(ch.iter()) {
                *h = c >> 7;
            }
            !self.syndrome_fails()
        } else {
            self.seed_messages();
            loop {
                self.phases();
                iterations += 1;
                if iterations == max_iterations {
                    break !self.syndrome_fails();
                }
                if self.config.early_stop && !self.syndrome_fails() {
                    break true;
                }
            }
        };
        DecodeResult {
            hard_decision: self.hard_decision(),
            iterations,
            converged,
        }
    }

    /// Seeds every edge's bit→check message with its bit's channel value
    /// saturated to the message width, run by run: the run's channel
    /// slice is clamped once into its first edge's positions and copied
    /// to each other edge's.
    fn seed_messages(&mut self) {
        let max = self.config.msg_max() as i8;
        let Planes { bc, ch, .. } = &mut self.planes;
        for run in &self.layout.runs {
            let (&first, rest) = self.layout.run_pos[run.pos.clone()]
                .split_first()
                .expect("every bit has an edge");
            let seeded = first as usize..first as usize + run.len;
            let channel = &ch[run.bit..run.bit + run.len];
            for (m, &c) in bc[seeded.clone()].iter_mut().zip(channel) {
                *m = (c as i8).clamp(-max, max) as u8;
            }
            for &p in rest {
                bc.copy_within(seeded.clone(), p as usize);
            }
        }
    }

    /// Words per slot row.
    fn row_words(&self) -> usize {
        self.layout.stride / PACK_LANES
    }

    /// Check-node phase, eight adjacent checks per word op, one column of
    /// words at a time: sign product by XOR of the raw message words
    /// (sign bits XOR in place; the low bits are masked off at output),
    /// two-minimum magnitude scan via lane compares — the word form of
    /// [`cn_scan`](crate::decoder::kernels::cn_scan) +
    /// [`CnState::output`](crate::decoder::kernels::CnState::output).
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

    /// Bit-node phase over the word steps of every run, eight adjacent
    /// bits per word op (see [`Planes::bn_word`]). The runs shorter than
    /// a word are left to [`bn_tails`](Self::bn_tails).
    fn bn_words(&mut self) {
        let (bias, msg_max) = (self.bias, self.config.msg_max());
        let mut cache = [(0, 0); MAX_BN_DEGREE];
        let planes = &mut self.planes;
        self.layout.for_each_step(PACK_LANES, |pos, bit, j| {
            planes.bn_word(bit + j, pos, j, bias, msg_max, &mut cache);
        });
    }

    /// Bit-node update of the runs shorter than a word, one bit at a
    /// time through the scalar kernels.
    fn bn_tails(&mut self) {
        let msg_max = self.config.msg_max();
        let planes = &mut self.planes;
        self.layout.for_each_tail(PACK_LANES, |pos, bit, j| {
            planes.bn_bit(bit + j, pos, j, msg_max);
        });
    }

    /// Whether the hard decisions fail some check. The
    /// [`settle`](Self::settle) gather decides it when one of the first
    /// checks fails, as it usually does while the frame is still
    /// decoding; otherwise the [`parity_pass`](Self::parity_pass) checks
    /// every check.
    fn syndrome_fails(&mut self) -> bool {
        self.settle() || self.parity_pass()
    }

    /// Whether one of the first [`SETTLE_CHECKS`] checks fails, each
    /// check's parity gathered from its bits' hard bytes.
    fn settle(&self) -> bool {
        let graph = self.code.graph();
        let hard = &self.planes.hard;
        (0..graph.n_checks().min(SETTLE_CHECKS)).any(|m| {
            let parity = graph
                .cn_bits(m)
                .iter()
                .fold(0, |p, &b| p ^ hard[b as usize]);
            parity != 0
        })
    }

    /// Whether some check fails. Each run XORs its slice of the hard
    /// plane into the check-major parity row once per edge: the `k`-th
    /// edges of a run's consecutive bits are consecutive checks of slot
    /// row `k`, so the run's bits land on a slice of the row.
    fn parity_pass(&mut self) -> bool {
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
        parity.iter().fold(0, |unsat, &p| unsat | p) != 0
    }

    /// The hard-decision plane as a bit vector: bit 0 of eight
    /// consecutive bytes gathers into one output byte, and eight bytes
    /// make a word.
    fn hard_decision(&self) -> BitVec {
        let (groups, _) = self.planes.hard.as_chunks::<8>();
        let words = groups
            .chunks(8)
            .map(|word| {
                word.iter().rev().fold(0, |w, group| {
                    w << 8 | u64::from(bit_gather8(u64::from_le_bytes(*group), 0))
                })
            })
            .collect();
        BitVec::from_words(self.code.n(), words)
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

impl BlockDecoder for PackedFixedDecoder {
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
            "packed fixed-point normalized min-sum (1 frame, 8 nodes/word, {}b msg)",
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

    /// Frames spanning the convergence spectrum: clean frames that
    /// converge immediately, noisy ones that take several iterations, and
    /// garbage that stalls.
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

    /// Decodes quantized frames one per call.
    fn decode_frames(dec: &mut PackedFixedDecoder, ch: &[i16], iters: u32) -> Vec<DecodeResult> {
        ch.chunks(dec.n())
            .map(|frame| dec.decode_quantized(frame, iters))
            .collect()
    }

    /// Every frame of `ch` matches the scalar reference, on the demo
    /// code.
    fn assert_matches_scalar(config: FixedConfig, ch: &[i16], iters: u32) {
        assert_matches_scalar_on(&demo_code(), config, ch, iters);
    }

    /// [`assert_matches_scalar`] on any code.
    fn assert_matches_scalar_on(code: &Arc<LdpcCode>, config: FixedConfig, ch: &[i16], iters: u32) {
        let mut scalar = FixedDecoder::new(code.clone(), config);
        let mut packed = PackedFixedDecoder::new(code.clone(), config);
        let got = decode_frames(&mut packed, ch, iters);
        assert_eq!(got.len(), ch.len() / code.n());
        for (f, (g, frame)) in got.iter().zip(ch.chunks(code.n())).enumerate() {
            let want = scalar.decode_quantized(frame, iters);
            assert_eq!(g, &want, "frame {f} diverged from FixedDecoder");
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
        // Regenerate the frames within the narrow channel range.
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
        let mut packed = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        for (f, out) in packed.decode_block(&llrs, 18).iter().enumerate() {
            let want = scalar.decode(&llrs[f * n..(f + 1) * n], 18);
            assert_eq!(out, &want, "frame {f}");
        }
    }

    /// The AVX2 channel load writes the same bytes as the portable loop,
    /// on quantizer ties ±(k + ½)·step and their float neighbours, ±0,
    /// NaN, ±∞, subnormals, values past the rails and the `i32` range,
    /// and random values, for every channel width the datapath takes.
    #[test]
    fn avx2_channel_load_matches_the_portable_loop() {
        if !avx2::available() {
            let q = FixedConfig::default().channel_quantizer();
            assert!(!avx2::quantize_simd(&q, &[0.0], &mut [0]));
            return;
        }
        let cases = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MAX,
            f32::MIN,
            3.0e9,
            -3.0e9,
        ];
        let mut rng = StdRng::seed_from_u64(52);
        for (bits, step) in [(5, 0.5f32), (6, 0.25), (8, 1.0 / 16.0), (3, 1.0), (2, 0.75)] {
            let q = LlrQuantizer::new(bits, step);
            let mut llrs = cases.to_vec();
            for k in 0..=q.max_level() + 2 {
                let tie = (f32::from(k) + 0.5) * step;
                for x in [tie, tie.next_down(), tie.next_up()] {
                    llrs.extend([x, -x]);
                }
            }
            let span = f32::from(q.max_level() + 2) * step;
            llrs.extend((0..1000).map(|_| rng.gen_range(-span..span)));
            // Odd lengths leave a tail past the last whole vector.
            assert!(!llrs.len().is_multiple_of(2));
            for len in [llrs.len(), 7, 1] {
                let (mut portable, mut vector) = (vec![0xAA; len], vec![0x55; len]);
                quantize_into(&q, &llrs[..len], &mut portable);
                assert!(avx2::quantize_simd(&q, &llrs[..len], &mut vector));
                assert_eq!(vector, portable, "{bits} bits, step {step}, {len} LLRs");
            }
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let code = demo_code();
        let ch = mixed_batch(&code, 8, 47);
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let a = decode_frames(&mut dec, &ch, 18);
        let b = decode_frames(&mut dec, &ch, 18);
        assert_eq!(a, b);
    }

    #[test]
    fn slot_stride_pads_to_an_odd_block_count() {
        // 64 byte positions per 64-byte line.
        assert_eq!(slot_stride(1022), 1088); // C2: 1024 is 16 lines
        assert_eq!(slot_stride(1020), 1088);
        assert_eq!(slot_stride(960), 960); // 15 lines
        assert_eq!(slot_stride(3), 64);
        for m in 1..3000 {
            let s = slot_stride(m);
            assert!(
                s >= m && s.is_multiple_of(LINE_BYTES) && !(s / LINE_BYTES).is_multiple_of(2),
                "m {m}: stride {s}"
            );
        }
    }

    #[test]
    fn runs_cover_every_edge_once() {
        for code in [demo_code(), crate::codes::ccsds_c2::code()] {
            let graph = code.graph();
            let layout = SlotLayout::new(graph);
            // A slot row is a whole number of 32-byte AVX2 vectors.
            assert!(layout.stride.is_multiple_of(32));
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
                        assert_eq!(p % layout.stride, m as usize, "row column is the check");
                        assert!(!seen[p], "position {p} owned twice");
                        seen[p] = true;
                    }
                }
            }
            assert_eq!(next_bit, graph.n_bits());
            assert_eq!(seen.iter().filter(|&&s| s).count(), graph.n_edges());
            // Steps and tails cover every bit, and steps stay inside
            // their runs.
            let step = PACK_LANES;
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
            let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
            let ch = mixed_batch(&code, 2, 48);
            let _ = decode_frames(&mut dec, &ch, 6);
            let mut owned = vec![false; dec.layout.words()];
            dec.layout.for_each_step(1, |pos, _, j| {
                for &p in pos {
                    owned[p as usize + j] = true;
                }
            });
            for (p, _) in owned.iter().enumerate().filter(|(_, &o)| !o) {
                assert_eq!(dec.planes.bc[p], 0x7F, "padding position {p}");
            }
        }
    }

    /// A code whose `m` checks make a slot row exactly `m` positions wide
    /// when `m` is 64·odd, with two degree-1 bits in adjacent positions
    /// of two rows: bit `m + 1` is slot 2 of check `m − 1`, bit `m + 2`
    /// slot 3 of check 0.
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
        for m in [24, 64] {
            let code = row_crossing_code(m);
            let layout = SlotLayout::new(code.graph());
            assert_eq!(layout.stride == m, m == 64, "{m} checks");
            let mut starts = vec![false; code.n()];
            for run in &layout.runs {
                starts[run.bit] = true;
                for &p in &layout.run_pos[run.pos.clone()] {
                    let row = p as usize / layout.stride;
                    let last = (p as usize + run.len - 1) / layout.stride;
                    assert_eq!(row, last, "{m} checks: run at bit {}", run.bit);
                }
            }
            assert!(starts[m + 2], "{m} checks: bit {} starts a run", m + 2);
            assert_matches_scalar_on(
                &code,
                FixedConfig::default(),
                &mixed_batch(&code, 16, 51),
                20,
            );
        }
    }

    /// The syndrome verdict equals `TannerGraph::syndrome_ok`, on every
    /// registry code: over random frames (the settle gather decides),
    /// codewords, codewords with one bit flipped, and the all-zero word
    /// (the full pass decides).
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
            let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
            let (mut settled, mut passes) = (0, 0);
            for frame in 0..48 {
                let kind = if frame < 4 {
                    frame
                } else {
                    rng.gen_range(0..4)
                };
                let bits: Vec<u8> = if kind == 0 {
                    (0..n).map(|_| rng.gen_range(0..2)).collect()
                } else {
                    let message: Vec<u8> = (0..encoder.dimension())
                        .map(|_| u8::from(kind != 3 && rng.gen_bool(0.5)))
                        .collect();
                    let mut bits = encoder.encode_bits(&message).expect("encodes").to_bits();
                    if kind == 2 {
                        bits[rng.gen_range(0..n)] ^= 1;
                    }
                    bits
                };
                dec.planes.hard[..n].copy_from_slice(&bits);
                if dec.settle() {
                    settled += 1;
                } else {
                    passes += 1;
                }
                assert_eq!(
                    !dec.syndrome_fails(),
                    graph.syndrome_ok(&bits),
                    "{spec}: frame {frame} of kind {kind}"
                );
            }
            assert!(settled > 0 && passes > 0, "{spec}: both paths ran");
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
            let mut dec = PackedFixedDecoder::new(code.clone(), config);
            // A noisy frame, which converges over several iterations.
            let ch = mixed_levels(&code, 2, dec.quantizer.max_level(), 49);
            dec.load_levels(&ch[n..]);
            dec.seed_messages();
            for iter in 0..8 {
                let label = format!("{spec} / {config:?}, iteration {iter}");
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

    /// Decodes one frame the way [`PackedFixedDecoder::decode`] does
    /// (early stop on), adding each stage's time to `split`.
    fn traced_decode(
        dec: &mut PackedFixedDecoder,
        llrs: &[f32],
        iters: u32,
        split: &mut StageSplit,
    ) {
        timed(&mut split.load, || dec.load_channel(llrs));
        timed(&mut split.seed, || dec.seed_messages());
        for _ in 0..iters {
            timed(&mut split.phases, || dec.phases());
            split.iterations += 1;
            if !timed(&mut split.settle, || dec.settle()) {
                split.full_passes += 1;
                if !timed(&mut split.full_pass, || dec.parity_pass()) {
                    break;
                }
            }
        }
        timed(&mut split.hard, || dec.hard_decision());
    }

    /// Prints C2's rank time, the per-iteration phases of both paths on a
    /// noisy C2 frame, then every stage of a decode per frame at the
    /// benchmark's operating points: 3.3 and 3.7 dB (sweep-c2-fixed) and
    /// 3.8 dB (mc-c2-packed).
    #[test]
    #[ignore = "manual profiling aid: run with --release --nocapture"]
    fn profile_phase_split() {
        let handle = crate::CodeSpec::C2.build().expect("C2 builds");
        let (code, rate) = (handle.code().clone(), handle.rate());
        let n = code.n();
        let dense = code.h().to_dense();
        let start = Instant::now();
        let rank = dense.rank();
        println!("C2 rank {rank}: {:?}", start.elapsed());
        let ch = mixed_batch(&code, 3, 99);
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
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        // A frame that never converges.
        let _ = dec.decode_quantized(&ch[2 * n..], 2); // warm buffers
        let mut tails = 0;
        dec.layout.for_each_tail(PACK_LANES, |_, _, _| tails += 1);
        println!(
            "C2: {} runs, {tails} of {n} bits in runs shorter than a word, stride {} positions, {} slots",
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
        // Each frame is copied into one buffer before its decode, so that
        // the load reads it from cache, as it does in the engine, where
        // the channel has just written it.
        let mut buffer = vec![0.0; n];
        for ebn0 in [3.3, 3.7, 3.8] {
            let llrs = awgn_llrs(n, rate, ebn0, 1024, 7);
            let mut split = StageSplit::default();
            for frame in llrs.chunks(n) {
                buffer.copy_from_slice(frame);
                traced_decode(&mut dec, &buffer, 18, &mut split);
            }
            let mut untraced = Duration::ZERO;
            for frame in llrs.chunks(n) {
                buffer.copy_from_slice(frame);
                let _ = timed(&mut untraced, || dec.decode(&buffer, 18));
            }
            let frames = (llrs.len() / n) as u32;
            let us = |d: Duration| d.as_secs_f64() * 1e6 / f64::from(frames);
            println!(
                "C2 at {ebn0} dB, {frames} frames: {:.2} iterations and {:.2} full parity passes a frame",
                f64::from(split.iterations) / f64::from(frames),
                f64::from(split.full_passes) / f64::from(frames),
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
                ("hard decision         ", split.hard),
                ("traced decode, total  ", traced),
                ("untraced decode       ", untraced),
            ] {
                println!("  {label}: {:.1} us/frame", us(d));
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn node_lanes_take_one_frame_per_word() {
        let code = demo_code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let _ = dec.decode_quantized(&vec![0i16; 2 * code.n()], 1);
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
        let _ = dec.decode_quantized(&ch, 1);
    }
}
