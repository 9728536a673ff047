//! Packed fixed-point decoder: one frame in flight and one signed byte
//! per message position, so a block of lanes updates adjacent checks or
//! adjacent bits of one frame side by side — the paper's low-cost
//! instance of its datapath at register width. Bit-exact against
//! [`FixedDecoder`](crate::decoder::FixedDecoder).

use crate::decoder::block::runs;
use crate::decoder::kernels::{bn_output, bn_posterior, Scaling};
use crate::decoder::{BlockDecoder, DecodeResult, FixedConfig};
use crate::{LdpcCode, LlrQuantizer, TannerGraph};
use gf2::BitVec;
use std::ops::Range;
use std::sync::Arc;

mod avx2;

/// Adjacent bits of a bit-node block in a run of 8 to 15 bits, and the
/// shortest run the blocks cover: shorter runs take the per-bit kernels.
/// It is also the `@pack` modifier's only value.
pub const PACK_LANES: usize = 8;

/// Adjacent bits of a bit-node block in a run of at least 16 bits.
const BN_BLOCK: usize = 2 * PACK_LANES;

/// Adjacent checks of a check-node block: one 256-bit vector of bytes.
const CN_BLOCK: usize = 32;

/// Largest bit-node degree the stack-resident per-edge caches cover.
const MAX_BN_DEGREE: usize = 64;

/// Bytes per cache line: slot rows are padded to an odd number of lines.
const LINE_BYTES: usize = 64;

/// Checks the syndrome's settle gather tries before it gives way to the
/// full run-wise pass (see [`PackedFixedDecoder::syndrome_fails`]).
const SETTLE_CHECKS: usize = 32;

/// Start offsets of the `step`-bit blocks that cover a run of `len >=
/// step` bits: whole steps, then, when `len` is not a multiple of `step`,
/// one step moved back onto the last bit, overlapping the one before.
/// The overlap is recomputed to the same values, because a bit-node
/// update reads only the channel and check→bit planes.
fn steps(len: usize, step: usize) -> impl Iterator<Item = usize> {
    let whole = len / step * step;
    (0..whole)
        .step_by(step)
        .chain((whole < len).then(|| len - step))
}

/// [`Scaling::apply`] on a block of magnitudes in `0..=127`.
#[inline(always)]
fn scale(mut mags: [u8; CN_BLOCK], scaling: Scaling) -> [u8; CN_BLOCK] {
    match scaling {
        Scaling::Unity => {}
        Scaling::SevenEighths => mags.iter_mut().for_each(|m| *m -= *m >> 3),
        Scaling::ThreeQuarters => mags.iter_mut().for_each(|m| *m -= *m >> 2),
        Scaling::Half => mags.iter_mut().for_each(|m| *m >>= 1),
    }
    mags
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

    /// Calls `f(pos, bit, j)` for the [`steps`] of `step` bits that cover
    /// every run at least `step` bits long: step `j` is bits `bit + j ..
    /// bit + j + step` of the run starting at `bit`, whose first bit has
    /// edge positions `pos`. The tests walk the blocks' coverage and the
    /// owned positions with it.
    #[cfg(test)]
    fn for_each_step(&self, step: usize, mut f: impl FnMut(&[u32], usize, usize)) {
        for run in self.runs.iter().filter(|run| run.len >= step) {
            let pos = &self.run_pos[run.pos.clone()];
            for j in steps(run.len, step) {
                f(pos, run.bit, j);
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
/// message memory, a bit, a check — owns one byte, so a block of lanes
/// holds adjacent positions.
struct Planes {
    /// Bit→check messages, signed bytes in slot-major order; positions
    /// no edge owns hold `0x7F`.
    bc: Vec<u8>,
    /// Check→bit messages, same layout.
    cb: Vec<u8>,
    /// Quantized channel LLRs as signed bytes, one position per bit.
    ch: Vec<u8>,
    /// Hard decisions, one byte per bit: 1 where the frame decides 1.
    hard: Vec<u8>,
    /// The syndrome's check-major parity row, one byte per check: 1
    /// where the check fails.
    parity: Vec<u8>,
}

/// The `W` bytes of a plane from position `at`, as signed i16 lanes.
#[inline(always)]
fn widened<const W: usize>(plane: &[u8], at: usize) -> [i16; W] {
    let bytes: &[u8; W] = plane[at..].first_chunk().expect("block inside its plane");
    let mut lanes = [0; W];
    for (l, &x) in lanes.iter_mut().zip(bytes) {
        *l = i16::from(x as i8);
    }
    lanes
}

impl Planes {
    /// Bit-node update of the `W` adjacent bits from bit `b` of a run,
    /// whose edges sit at positions `p + j ..` for each `p` in `pos`:
    /// stores their bit→check messages and hard decisions. `cache` keeps
    /// each edge's widened check→bit lanes between the sum and the
    /// outputs.
    ///
    /// The sum runs in i16 lanes and is exact: `|ch + Σ messages| ≤ 127
    /// + 64·127`. Each output `total − own` saturates to `msg_max`
    /// exactly like [`bn_output`](crate::decoder::kernels::bn_output),
    /// and the hard decision `total < 0` is
    /// [`bn_posterior`](crate::decoder::kernels::bn_posterior)` < 0`.
    #[inline(always)]
    fn bn_block<const W: usize>(
        &mut self,
        b: usize,
        pos: &[u32],
        j: usize,
        msg_max: i16,
        cache: &mut [[i16; W]; MAX_BN_DEGREE],
    ) {
        let mut total = widened::<W>(&self.ch, b);
        for (own, &p) in cache.iter_mut().zip(pos) {
            *own = widened(&self.cb, p as usize + j);
            for (t, &m) in total.iter_mut().zip(&*own) {
                *t += m;
            }
        }
        for (own, &p) in cache.iter().zip(pos) {
            let out: &mut [u8; W] = self.bc[p as usize + j..]
                .first_chunk_mut()
                .expect("block inside its plane");
            for ((o, &t), &m) in out.iter_mut().zip(&total).zip(own) {
                *o = (t - m).clamp(-msg_max, msg_max) as u8;
            }
        }
        let hard: &mut [u8; W] = self.hard[b..]
            .first_chunk_mut()
            .expect("block inside its plane");
        for (h, &t) in hard.iter_mut().zip(&total) {
            *h = u8::from(t < 0);
        }
    }

    /// Bit-node update of one bit through the scalar kernels, for a run
    /// shorter than a block, where a whole block would store past the
    /// run. The channel byte is `b`; the edge bytes are `p + j` for `p`
    /// in `pos`.
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
/// byte, so one block of lanes holds adjacent positions: 32 adjacent
/// checks of one slot row in the check-node phase, 16 adjacent bits of
/// one bit run in the bit-node phase (8 in a run of 8 to 15 bits). Each
/// phase is a plain loop over the lanes of a block, which the compiler
/// vectorizes. This is the paper's low-cost instance of its generic
/// datapath; its high-speed instance, eight frames per memory word,
/// lives on only in the `ldpc-hwsim` model (DESIGN.md §4.4 says why).
///
/// Each direction keeps **one** signed byte per edge (not separate sign
/// and magnitude planes), so an iteration streams exactly two bytes per
/// edge visit — the check node splits sign from magnitude on the fly
/// (the sign product is the XOR of the raw bytes: sign bits XOR in
/// place) and the bit node re-signs on the way out.
///
/// The messages are stored **slot-major**, like the paper's banked
/// message memory: the `k`-th edge of check `m` lives at position
/// `k·M′ + m`, so each check-input slot is one row of `M′` positions
/// (`M′` ≥ the check count, see DESIGN.md §4.4). A check scan reads the
/// same column of every row, and the bit nodes of a circulant walk each
/// row one position per bit. Slots of checks with fewer edges than the
/// widest check hold neutral `0x7F` lanes. A run that does not end on a
/// block boundary ends with a block moved back onto its last bit, and a
/// run shorter than 8 bits takes the per-bit path of
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
/// vector instructions instead (`packed/avx2.rs`); the results are
/// identical bit for bit.
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
    /// (`q_msg` or `q_ch` above 8 bits), if any check node has degree
    /// outside `2..=127` (the two-minimum lane scan needs at least two
    /// absorbs to mirror the scalar kernel, and slot indices must fit a
    /// lane), or if any bit node has degree above 64 (the per-edge
    /// contribution caches are stack-sized).
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
        let layout = SlotLayout::new(graph);
        let words = layout.words();
        Self {
            quantizer,
            config,
            layout,
            planes: Planes {
                bc: vec![0x7F; words],
                cb: vec![0; words],
                ch: vec![0; code.n()],
                hard: vec![0; code.n()],
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
    /// every build compiles in on x86-64. When `false` the portable lane
    /// loops run on the same slot-major layout; the results are identical
    /// either way.
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

    /// Words of [`PACK_LANES`] positions per slot row.
    fn row_words(&self) -> usize {
        self.layout.stride / PACK_LANES
    }

    /// Check-node phase, [`CN_BLOCK`] adjacent checks per block of byte
    /// lanes: each block scans every slot row for its sign product (the
    /// XOR of the raw message bytes, whose sign bits XOR in place) and
    /// its two smallest magnitudes, then writes every row's outputs — the
    /// lane form of [`cn_scan`](crate::decoder::kernels::cn_scan) +
    /// [`CnState::output`](crate::decoder::kernels::CnState::output).
    ///
    /// The scan seeds `min1 = min2 = 127`, which coincides with the
    /// scalar kernel's `i16::MAX` seed for degrees >= 2 because lane
    /// magnitudes never exceed 127: the first two absorbs pull both
    /// minima down to real message values either way, through the same
    /// strict-`<` first-wins tie rule. The argmin is the slot index,
    /// which is the edge's rank within its check. Every block scans all
    /// slot rows: unused slots hold `0x7F` lanes, which never beat the
    /// seed under the strict compare and carry sign bit 0, so they change
    /// no state. Their outputs (and those of the padding checks past the
    /// real ones) land in positions no bit node reads.
    fn cn_phase(&mut self) {
        let stride = self.layout.stride;
        let scaling = self.config.scaling;
        let Planes { bc, cb, .. } = &mut self.planes;
        for block in 0..stride / CN_BLOCK {
            let mut sp = [0u8; CN_BLOCK];
            let mut min1 = [0x7F; CN_BLOCK];
            let mut min2 = [0x7F; CN_BLOCK];
            let mut argmin = [0u8; CN_BLOCK];
            for (k, row) in bc.chunks_exact(stride).enumerate() {
                let k = k as u8;
                for (i, &v) in row.as_chunks::<CN_BLOCK>().0[block].iter().enumerate() {
                    let mag = (v as i8).unsigned_abs();
                    sp[i] ^= v;
                    argmin[i] = if mag < min1[i] { k } else { argmin[i] };
                    min2[i] = min2[i].min(min1[i].max(mag));
                    min1[i] = min1[i].min(mag);
                }
            }
            // Scaling commutes with the excluded-self select, so scale the
            // two minima once per block instead of once per edge.
            let s1 = scale(min1, scaling);
            let s2 = scale(min2, scaling);
            let rows = bc.chunks_exact(stride).zip(cb.chunks_exact_mut(stride));
            for (k, (row, out)) in rows.enumerate() {
                let k = k as u8;
                let row = &row.as_chunks::<CN_BLOCK>().0[block];
                let out = &mut out.as_chunks_mut::<CN_BLOCK>().0[block];
                for (i, (o, &v)) in out.iter_mut().zip(row).enumerate() {
                    // Both magnitudes are read before the pick: picking
                    // between `s1[i]` and `s2[i]` compiles to a pointer
                    // select and a scalar load per lane, which keeps the
                    // loop from vectorizing.
                    let (m1, m2) = (s1[i], s2[i]);
                    let mag = if argmin[i] == k { m2 } else { m1 };
                    // Output sign = sign product excluding self = sign bit
                    // of the XOR accumulator XOR this edge's own sign.
                    *o = if ((sp[i] ^ v) as i8) < 0 {
                        mag.wrapping_neg()
                    } else {
                        mag
                    };
                }
            }
        }
    }

    /// Bit-node phase over the runs of at least [`PACK_LANES`] bits, in
    /// blocks of [`BN_BLOCK`] adjacent bits ([`PACK_LANES`] in a run
    /// shorter than [`BN_BLOCK`]; see [`Planes::bn_block`]). The shorter
    /// runs are left to [`bn_tails`](Self::bn_tails).
    fn bn_blocks(&mut self) {
        let msg_max = self.config.msg_max();
        let mut wide = [[0; BN_BLOCK]; MAX_BN_DEGREE];
        let mut narrow = [[0; PACK_LANES]; MAX_BN_DEGREE];
        let planes = &mut self.planes;
        for run in self.layout.runs.iter().filter(|run| run.len >= PACK_LANES) {
            let pos = &self.layout.run_pos[run.pos.clone()];
            if run.len >= BN_BLOCK {
                for j in steps(run.len, BN_BLOCK) {
                    planes.bn_block(run.bit + j, pos, j, msg_max, &mut wide);
                }
            } else {
                for j in steps(run.len, PACK_LANES) {
                    planes.bn_block(run.bit + j, pos, j, msg_max, &mut narrow);
                }
            }
        }
    }

    /// Bit-node update of the runs shorter than [`PACK_LANES`] bits, one
    /// bit at a time through the scalar kernels.
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

    /// The hard-decision plane as a bit vector.
    fn hard_decision(&self) -> BitVec {
        BitVec::from_bits(&self.planes.hard)
    }

    /// One check-node + bit-node iteration: the AVX2 mirror when the CPU
    /// has it, the portable lane loops otherwise.
    fn phases(&mut self) {
        if self.cn_phase_simd() && self.bn_words_simd() {
            self.bn_tails();
            self.ran_simd = true;
            return;
        }
        self.ran_simd = false;
        self.cn_phase();
        self.bn_blocks();
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;
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
    fn slot_padding_stays_neutral() {
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

    /// Case count of the phase proptest: the `PROPTEST_CASES`
    /// environment variable, else 64.
    fn phase_cases() -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig::with_cases(cases)
    }

    /// Every registry code with its spec, built once.
    fn registry_codes() -> &'static [(String, Arc<LdpcCode>)] {
        static CODES: OnceLock<Vec<(String, Arc<LdpcCode>)>> = OnceLock::new();
        CODES.get_or_init(|| {
            crate::CodeSpec::all_codes()
                .into_iter()
                .map(|spec| {
                    let code = spec.build().expect("registry code builds").code().clone();
                    (spec.to_string(), code)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(phase_cases())]

        /// The AVX2 mirror and the portable lane loops, run from the same
        /// planes, write the same planes: the check-node phase its
        /// check→bit plane, the bit-node blocks their bit→check and hard
        /// planes. The decoder takes the AVX2 path wherever the CPU has
        /// it, so this keeps the portable path pinned on those machines,
        /// phase by phase, for 8 iterations of a random frame on a random
        /// registry code under random datapath widths and scaling.
        #[test]
        fn portable_and_avx2_phases_write_identical_planes(
            code in 0..registry_codes().len(),
            q_msg in 2u32..=8,
            q_ch in 2u32..=8,
            scaling in prop::sample::select(vec![
                Scaling::Unity,
                Scaling::SevenEighths,
                Scaling::ThreeQuarters,
                Scaling::Half,
            ]),
            flips in 0.0..0.5f64,
            seed in any::<u64>(),
        ) {
            if !avx2::available() {
                prop_assert!(!PackedFixedDecoder::simd_active());
                return;
            }
            let (spec, code) = &registry_codes()[code];
            let config = FixedConfig::default()
                .with_q_msg(q_msg)
                .with_q_ch(q_ch)
                .with_scaling(scaling);
            let mut dec = PackedFixedDecoder::new(code.clone(), config);
            // A noisy all-zero codeword: each level points the wrong way
            // with probability `flips`.
            let ch_max = dec.quantizer.max_level();
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<i16> = (0..code.n())
                .map(|_| {
                    let v = rng.gen_range(0..=ch_max);
                    if rng.gen_bool(flips) {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            dec.load_levels(&levels);
            dec.seed_messages();
            for iter in 0..8 {
                let label = format!("{spec} / {config:?}, flips {flips}, seed {seed}, iteration {iter}");
                let cb = dec.planes.cb.clone();
                dec.cn_phase();
                let portable = std::mem::replace(&mut dec.planes.cb, cb);
                prop_assert!(dec.cn_phase_simd());
                prop_assert!(dec.planes.cb == portable, "check-node phase: {label}");
                let (bc, hard) = (dec.planes.bc.clone(), dec.planes.hard.clone());
                dec.bn_blocks();
                let portable_bc = std::mem::replace(&mut dec.planes.bc, bc);
                let portable_hard = std::mem::replace(&mut dec.planes.hard, hard);
                prop_assert!(dec.bn_words_simd());
                prop_assert!(dec.planes.bc == portable_bc, "bit-node messages: {label}");
                prop_assert!(dec.planes.hard == portable_hard, "hard decisions: {label}");
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
            "C2: {} runs, {tails} of {n} bits in runs shorter than {PACK_LANES}, stride {} positions, {} slots",
            dec.layout.runs.len(),
            dec.layout.stride,
            dec.layout.slots,
        );
        time("phases, selected path ", &mut || dec.phases());
        if PackedFixedDecoder::simd_active() {
            time("cn (avx2)             ", &mut || {
                assert!(dec.cn_phase_simd())
            });
            time("bn blocks (avx2)      ", &mut || {
                assert!(dec.bn_words_simd())
            });
        }
        time("cn (portable)         ", &mut || dec.cn_phase());
        time("bn blocks (portable)  ", &mut || dec.bn_blocks());
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
