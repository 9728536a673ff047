//! SWAR-packed fixed-point decoder: 8 frames per `u64` word, one word op
//! per edge visit — the soft-decision realization of the paper's
//! frames-per-word packing (Table 3), bit-exact lane by lane against
//! [`FixedDecoder`](crate::decoder::FixedDecoder).

use crate::decoder::batch::{drive_batch, BatchPhases, BatchState};
use crate::decoder::block::runs;
use crate::decoder::swar::{
    self, abs_i8, add_wrap8, apply_sign8, clamp_i8, eq7_mask, ltu15_mask16, ltu7_mask, min_u16,
    narrow_bytes, scale_mag8, select8, sign_mask8, splat8, widen_even, widen_odd,
};
use crate::decoder::{BlockDecoder, DecodeResult, FixedConfig};
use crate::{LdpcCode, LlrQuantizer};
use std::sync::Arc;

#[cfg(feature = "simd")]
mod sse;

/// Lanes (frames) packed into each message word.
pub const PACK_LANES: usize = swar::LANES;

/// Low byte of every u16 lane.
const M16: u64 = 0x00FF_00FF_00FF_00FF;

/// Low bit of every i8 lane.
const L8: u64 = 0x0101_0101_0101_0101;

/// Largest bit-node degree the stack-resident per-edge caches cover.
const MAX_BN_DEGREE: usize = 64;

/// A word with `x` in all four u16 lanes.
#[inline(always)]
fn splat16(x: u16) -> u64 {
    u64::from(x) * 0x0001_0001_0001_0001
}

/// Frame-packed fixed-point normalized min-sum decoder.
///
/// Eight frames' messages share each `u64`: edge `e`'s word carries frame
/// `f`'s message in byte lane `f` (the [`gf2::ByteSlices`] transpose), and
/// every check-node and bit-node update is a handful of SWAR word ops from
/// [`swar`](crate::decoder::swar) that advance all 8 lanes at once. Each
/// direction keeps **one** signed-byte word per edge (not separate sign
/// and magnitude planes), so an iteration streams exactly two words per
/// edge visit — the check node splits sign from magnitude on the fly
/// (the sign product is the XOR of the raw words: sign bits XOR in
/// place) and the bit node re-signs on the way out. The bit-node sum
/// runs in biased u16 lanes (bias `B = ch_max + max_bn_degree ·
/// msg_max`), which keeps every partial sum non-negative in any
/// accumulation order; the sum therefore never wraps a lane and matches
/// the scalar datapath's widen-accumulate-then-clamp exactly.
///
/// The result is **bit-exact per lane** against [`FixedDecoder`](crate::decoder::FixedDecoder) with the
/// same [`FixedConfig`] — same messages, same hard decisions, same
/// iteration counts — which the conformance and golden suites pin.
///
/// With the `simd` cargo feature enabled (and SSE4.1 present at runtime)
/// the same phases run on 128-bit vector instructions; the results are
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
    /// Bit-node bias: u16 accumulator lanes hold `bias + value`.
    bias: u16,
    /// Bit→check messages: one signed-byte lane word per edge.
    bc: Vec<u64>,
    /// Check→bit messages: one signed-byte lane word per edge.
    cb: Vec<u64>,
    /// Channel LLRs saturated to the message width, one word per bit
    /// (the initial bit→check message of every adjacent edge).
    ch_sat: Vec<u64>,
    /// Biased channel LLRs, u16 lanes, even frames (0, 2, 4, 6).
    chb_even: Vec<u64>,
    /// Biased channel LLRs, u16 lanes, odd frames (1, 3, 5, 7).
    chb_odd: Vec<u64>,
    /// Hard-decision masks: `0xFF` in lane `f` where frame `f` decides 1.
    hard_mask: Vec<u64>,
    /// Frame-major hard-decision bytes (frame `f` at `f*n..(f+1)*n`),
    /// materialized per frame on demand from `hard_mask`.
    hard: Vec<u8>,
    /// Per-lane unsatisfied-check mask: byte `f` is zero iff frame `f`'s
    /// syndrome is zero after the last iteration.
    unsat: u64,
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
    /// the scalar kernel, and edge indices must fit a lane), or if any
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
        let edges = graph.n_edges();
        let n = code.n();
        Self {
            quantizer,
            config,
            bias: bias as u16,
            bc: vec![0; edges],
            cb: vec![0; edges],
            ch_sat: vec![0; n],
            chb_even: vec![0; n],
            chb_odd: vec![0; n],
            hard_mask: vec![0; n],
            hard: vec![0; n * PACK_LANES],
            unsat: 0,
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

    /// Whether the 128-bit SSE4.1 mirror is compiled in (`simd` feature)
    /// **and** supported by the running CPU. When `false` the portable
    /// SWAR kernels run; the results are identical either way.
    pub fn simd_active() -> bool {
        #[cfg(feature = "simd")]
        {
            sse::available()
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
        let code = self.code.clone();
        let graph = code.graph();
        let n = graph.n_bits();
        assert!(
            !channel.is_empty() && channel.len().is_multiple_of(n),
            "channel length must be a positive multiple of the code length"
        );
        let frames = channel.len() / n;
        assert!(
            frames <= PACK_LANES,
            "batch of {frames} frames exceeds the {PACK_LANES} lanes of one word"
        );
        let ch_max = self.quantizer.max_level();
        assert!(
            channel.iter().all(|&c| (-ch_max..=ch_max).contains(&c)),
            "channel value outside quantizer range"
        );

        // Transpose the channel into lane words: saturated signed bytes
        // for message initialization, biased u16 lanes for the bit-node
        // accumulator. Unused lanes stay at channel 0 (bias B), which
        // keeps every lane inside the proven value ranges.
        let bias = u64::from(self.bias);
        let msg_max = self.config.msg_max() as u8 as i8;
        for b in 0..n {
            let mut sat = 0u64;
            let mut even = 0u64;
            let mut odd = 0u64;
            for f in 0..PACK_LANES {
                // Unused lanes stay at channel 0 (bias B in the u16
                // plane), keeping every lane inside the proven ranges.
                let c = if f < frames { channel[f * n + b] } else { 0 };
                sat |= u64::from(c as i8 as u8) << (8 * f);
                let biased = bias.wrapping_add(c as u64) & 0xFFFF;
                if f % 2 == 0 {
                    even |= biased << (8 * f);
                } else {
                    odd |= biased << (8 * (f - 1));
                }
            }
            self.ch_sat[b] = clamp_i8(sat, msg_max);
            self.chb_even[b] = even;
            self.chb_odd[b] = odd;
        }
        // Initial bit→check messages: the saturated channel value of the
        // edge's bit, in every lane at once.
        for e in 0..graph.n_edges() {
            self.bc[e] = self.ch_sat[graph.edge_bit(e)];
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
    /// strict-`<` first-wins tie rule.
    fn cn_phase(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let scaling = self.config.scaling;
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            let mut sp = 0u64;
            let mut min1 = splat8(0x7F);
            let mut min2 = splat8(0x7F);
            let mut argmin = 0u64;
            for (idx, e) in range.clone().enumerate() {
                let v = self.bc[e];
                sp ^= v;
                let mag = abs_i8(v);
                let lt1 = ltu7_mask(mag, min1);
                let lt2 = ltu7_mask(mag, min2);
                min2 = select8(lt1, min1, select8(lt2, mag, min2));
                min1 = select8(lt1, mag, min1);
                argmin = select8(lt1, splat8(idx as i8), argmin);
            }
            // Scaling commutes with the excluded-self select, so scale the
            // two minima once per check instead of once per edge.
            let s1 = scale_mag8(min1, scaling);
            let s2 = scale_mag8(min2, scaling);
            for (idx, e) in range.enumerate() {
                let eq = eq7_mask(argmin, splat8(idx as i8));
                let smag = select8(eq, s2, s1);
                // Output sign = sign product excluding self = sign bits
                // of the XOR accumulator XOR this edge's own sign.
                let sign = sign_mask8(sp ^ self.bc[e]);
                self.cb[e] = apply_sign8(smag, sign);
            }
        }
    }

    /// Bit-node phase, all 8 lanes per word op, in biased u16 lanes.
    ///
    /// Lane values stay in `[0, 2·bias]` through every partial sum (each
    /// check→bit magnitude is at most `msg_max` and at most
    /// `max_bn_degree` of them are subtracted), so the plain `u64`
    /// add/sub never borrows across lanes and the accumulator is exact —
    /// the packed equivalent of the scalar datapath's i32 widening. The
    /// per-edge output `bias + ch + total − own` then saturates to
    /// `msg_max` exactly like
    /// [`bn_output`](crate::decoder::kernels::bn_output), and the hard
    /// decision `t < bias` is [`bn_posterior`](crate::decoder::kernels::bn_posterior)` < 0`.
    fn bn_phase(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let b16 = splat16(self.bias);
        let m16 = splat16(self.config.msg_max() as u16);
        let mut pms = [0u64; MAX_BN_DEGREE];
        let mut nms = [0u64; MAX_BN_DEGREE];
        for n in 0..graph.n_bits() {
            let edges = graph.bn_edge_ids(n);
            let mut te = self.chb_even[n];
            let mut to = self.chb_odd[n];
            for (i, &e) in edges.iter().enumerate() {
                let v = self.cb[e as usize];
                // Split the signed lanes into positive / negative
                // magnitude planes: conditional two's-complement via the
                // shared sign mask, then mask each half.
                let s = sign_mask8(v);
                let mag = add_wrap8(v ^ s, s & L8);
                let pm = mag & !s;
                let nm = mag & s;
                pms[i] = pm;
                nms[i] = nm;
                te = te.wrapping_add(widen_even(pm)).wrapping_sub(widen_even(nm));
                to = to.wrapping_add(widen_odd(pm)).wrapping_sub(widen_odd(nm));
            }
            for (i, &e) in edges.iter().enumerate() {
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
                self.bc[e as usize] = apply_sign8(mag, sign);
            }
            // Hard decision: posterior < 0 iff the biased total < bias.
            let he = ltu15_mask16(te, b16);
            let ho = ltu15_mask16(to, b16);
            self.hard_mask[n] = narrow_bytes(he & M16, ho & M16);
        }
    }

    /// Word-parallel syndrome: XOR the hard masks of each check's bits —
    /// lane `f` of `unsat` becomes non-zero iff frame `f` leaves some
    /// check unsatisfied.
    fn syndrome_pass(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
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
}

impl BatchPhases for PackedFixedDecoder {
    fn run_phases(&mut self, _iter: u32, _frames: usize, _state: &BatchState) {
        // All 8 lanes always advance — a retired lane's results were
        // snapshotted by the driver, so its lanes idling along is free
        // (that is the whole point of the packing: no masking, ever).
        #[cfg(feature = "simd")]
        if self.simd_phases() {
            self.syndrome_pass();
            return;
        }
        self.cn_phase();
        self.bn_phase();
        self.syndrome_pass();
    }

    fn materialize_hard(&mut self, f: usize) {
        // Transpose frame f's lane out of the hard-decision masks, on
        // demand — once per frame per decode instead of every iteration.
        let n = self.code.n();
        for (b, &mask) in self.hard_mask.iter().enumerate() {
            self.hard[f * n + b] = ((mask >> (8 * f)) & 1) as u8;
        }
    }

    fn hard_frame(&self, f: usize) -> &[u8] {
        let n = self.code.n();
        &self.hard[f * n..(f + 1) * n]
    }

    fn syndrome_ok_frame(&self, f: usize) -> bool {
        (self.unsat >> (8 * f)) & 0xFF == 0
    }

    fn early_stop(&self) -> bool {
        self.config.early_stop
    }
}

impl PackedFixedDecoder {
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
        let n = self.code.n();
        assert!(
            !llrs.is_empty() && llrs.len().is_multiple_of(n),
            "LLR length must be a positive multiple of the code length"
        );
        let quantized = self.quantizer.quantize_slice(llrs);
        self.decode_quantized_batch(&quantized, max_iterations)
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
    #[ignore = "manual profiling aid: run with --release --nocapture"]
    fn profile_phase_split() {
        let code = crate::codes::ccsds_c2::code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let ch = mixed_batch(&code, 8, 99);
        let _ = dec.decode_quantized_batch(&ch, 2); // warm buffers
        let reps = 200u32;
        let time = |label: &str, f: &mut dyn FnMut()| {
            let start = std::time::Instant::now();
            for _ in 0..reps {
                f();
            }
            println!("  {label}: {:?}/iter", start.elapsed() / reps);
        };
        time("full decode ", &mut || {
            let _ = dec.decode_quantized_batch(&ch, 18);
        });
        time("decode 1 it ", &mut || {
            let _ = dec.decode_quantized_batch(&ch, 1);
        });
        #[cfg(feature = "simd")]
        time("simd phases ", &mut || {
            let _ = dec.simd_phases();
        });
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        #[allow(unsafe_code)]
        if PackedFixedDecoder::simd_active() {
            // SAFETY: feature presence checked on the line above.
            time("cn (sse)    ", &mut || unsafe { dec.cn_phase_sse() });
            time("bn (sse)    ", &mut || unsafe { dec.bn_phase_sse() });
        }
        time("cn (swar)   ", &mut || dec.cn_phase());
        time("bn (swar)   ", &mut || dec.bn_phase());
        time("syndrome    ", &mut || dec.syndrome_pass());
        time("materialize ", &mut || {
            for f in 0..8 {
                dec.materialize_hard(f);
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
