//! Log-likelihood-ratio quantization.
//!
//! The decoders follow the usual sign convention: a **positive** LLR is
//! evidence for bit value 0 and a **negative** LLR for bit value 1.

/// A uniform, saturating quantizer mapping floating-point LLRs to the
/// two's-complement fixed-point levels of the hardware datapath.
///
/// A `bits`-bit quantizer produces symmetric levels in
/// `[-(2^(bits-1) - 1), 2^(bits-1) - 1]` (the most negative code is unused,
/// as is common in decoder datapaths so that magnitudes stay symmetric),
/// spaced `step` apart in LLR units.
///
/// # Example
///
/// ```
/// use ldpc_core::LlrQuantizer;
///
/// let q = LlrQuantizer::new(5, 0.5); // 5-bit channel LLRs, 0.5 LLR / LSB
/// assert_eq!(q.max_level(), 15);
/// assert_eq!(q.quantize(1.3), 3);    // round(1.3 / 0.5)
/// assert_eq!(q.quantize(-100.0), -15); // saturates
/// assert!((q.dequantize(3) - 1.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlrQuantizer {
    bits: u32,
    step: f32,
    max: i16,
}

impl LlrQuantizer {
    /// Creates a quantizer with the given width and LLR step per level.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=15` or `step` is not positive.
    pub fn new(bits: u32, step: f32) -> Self {
        assert!(
            (2..=15).contains(&bits),
            "quantizer width must be in 2..=15 bits"
        );
        assert!(step > 0.0, "quantizer step must be positive");
        Self {
            bits,
            step,
            max: ((1i32 << (bits - 1)) - 1) as i16,
        }
    }

    /// Width in bits (including the sign).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// LLR value of one least-significant bit.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Largest representable magnitude.
    pub fn max_level(&self) -> i16 {
        self.max
    }

    /// Quantizes one LLR, rounding to the nearest level (ties away from
    /// zero) and saturating; NaN maps to 0.
    ///
    /// Branch-free, and with no [`f32::round`] (the x86-64 baseline has
    /// no instruction for it, so it is a libm call per LLR) and no
    /// saturating float-to-int cast (which the compiler scalarizes):
    /// adding `1.5·2²³` rounds the clamped value to the nearest integer,
    /// ties to even, and leaves it in the low mantissa bits; the
    /// remainder then moves ties away from zero.
    #[inline]
    pub fn quantize(&self, llr: f32) -> i16 {
        const MAGIC: f32 = 12_582_912.0;
        let max = f32::from(self.max);
        let x = llr / self.step;
        // The rails are integers, so clamping before rounding is exact.
        let y = if x < -max {
            -max
        } else if x > max {
            max
        } else {
            x
        };
        let even = (y + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32;
        let rem = y - ((y + MAGIC) - MAGIC);
        let away = i32::from(rem == 0.5 && y > 0.0) - i32::from(rem == -0.5 && y < 0.0);
        if x.is_nan() {
            0
        } else {
            (even + away) as i16
        }
    }

    /// Quantizes a slice of LLRs.
    pub fn quantize_slice(&self, llrs: &[f32]) -> Vec<i16> {
        llrs.iter().map(|&l| self.quantize(l)).collect()
    }

    /// Maps a level back to its LLR value.
    pub fn dequantize(&self, level: i16) -> f32 {
        f32::from(level) * self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_range() {
        let q = LlrQuantizer::new(6, 0.25);
        assert_eq!(q.max_level(), 31);
        assert_eq!(q.quantize(1e9), 31);
        assert_eq!(q.quantize(-1e9), -31);
    }

    #[test]
    fn zero_maps_to_zero() {
        let q = LlrQuantizer::new(4, 1.0);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.quantize(-0.0), 0);
    }

    #[test]
    fn rounding_to_nearest() {
        let q = LlrQuantizer::new(6, 1.0);
        assert_eq!(q.quantize(1.4), 1);
        assert_eq!(q.quantize(1.6), 2);
        assert_eq!(q.quantize(-1.6), -2);
    }

    #[test]
    fn sign_preserved() {
        let q = LlrQuantizer::new(5, 0.5);
        for llr in [-7.3, -0.6, 0.6, 7.3] {
            let lv = q.quantize(llr);
            assert_eq!(lv.signum() as f32, llr.signum(), "llr {llr}");
        }
    }

    #[test]
    fn dequantize_inverts_on_grid() {
        let q = LlrQuantizer::new(5, 0.5);
        for level in -15i16..=15 {
            assert_eq!(q.quantize(q.dequantize(level)), level);
        }
    }

    #[test]
    fn quantize_slice_matches_scalar() {
        let q = LlrQuantizer::new(5, 0.5);
        let xs = [0.1, -3.0, 99.0];
        let got = q.quantize_slice(&xs);
        let want: Vec<i16> = xs.iter().map(|&x| q.quantize(x)).collect();
        assert_eq!(got, want);
    }

    /// The textbook formula the branch-free [`LlrQuantizer::quantize`]
    /// must reproduce bit for bit.
    fn oracle(q: &LlrQuantizer, llr: f32) -> i16 {
        let max = f32::from(q.max_level());
        (llr / q.step()).round().clamp(-max, max) as i16
    }

    #[test]
    fn branch_free_rounding_matches_round_clamp() {
        let mut cases = vec![
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF), // largest subnormal
            f32::MAX,
            f32::MIN,
            3.0e9, // beyond the i32 range
            -3.0e9,
            1.0e20,
            0.499_999_97, // largest float below one half
            -0.499_999_97,
            0.500_000_06,
        ];
        for k in 0..40 {
            // Exact ties ±(k + ½)·step and their float neighbours.
            let tie = k as f32 + 0.5;
            for x in [tie, tie.next_down(), tie.next_up()] {
                cases.push(x);
                cases.push(-x);
            }
        }
        for (bits, step) in [(5, 0.5f32), (6, 0.25), (8, 1.0 / 16.0), (4, 1.0), (15, 0.1)] {
            let q = LlrQuantizer::new(bits, step);
            for &c in &cases {
                for llr in [c, c * step] {
                    assert_eq!(
                        q.quantize(llr),
                        oracle(&q, llr),
                        "bits {bits} step {step} llr {llr:e}"
                    );
                }
            }
            // A dense sweep across the range and past both rails.
            let span = f32::from(q.max_level() + 2) * step;
            for i in -20_000..=20_000 {
                let llr = span * i as f32 / 20_000.0;
                assert_eq!(q.quantize(llr), oracle(&q, llr), "bits {bits} llr {llr:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_one_bit() {
        LlrQuantizer::new(1, 0.5);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn rejects_nonpositive_step() {
        LlrQuantizer::new(5, 0.0);
    }
}
