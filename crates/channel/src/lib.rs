//! Channel substrate: BPSK over AWGN with LLR demapping.
//!
//! The paper evaluates its decoder on the classical BPSK/AWGN near-earth
//! link model. This crate provides that substrate for the Monte-Carlo
//! engine (`ldpc-sim`):
//!
//! * [`bpsk_modulate`] — bits to antipodal symbols (0 → +1, 1 → −1);
//! * [`AwgnChannel`] — additive white Gaussian noise with a deterministic,
//!   seedable noise stream;
//! * [`llr_from_symbol`] / [`AwgnChannel::llrs`] — exact channel LLRs
//!   `2y/σ²` with the positive-means-zero sign convention used by the
//!   decoders;
//! * [`ebn0_to_sigma`] and friends — Eb/N0 ⇄ noise-level conversions that
//!   account for the code rate;
//! * [`ChannelSpec`] — the declarative front door: `"awgn"`, `"bsc:0.02"`,
//!   `"rayleigh"`, `"erasure:0.05"` (symbol erasures to zero LLR), and
//!   `"burst:0.01,0.3,0.05"` (two-state Gilbert-Elliott bursts), each
//!   with an optional `@quant=B` LLR-quantization modifier, building any
//!   registered model behind the object-safe [`Channel`] trait (see the
//!   [`spec`] module docs for the grammar).
//!
//! # Example
//!
//! ```
//! use gf2::BitVec;
//! use ldpc_channel::{bpsk_modulate, ebn0_to_sigma, AwgnChannel};
//!
//! let cw = BitVec::from_bits(&[0, 1, 1, 0]);
//! let sigma = ebn0_to_sigma(4.0, 0.875);
//! let mut channel = AwgnChannel::new(sigma, 42);
//! let symbols = bpsk_modulate(&cw);
//! let llrs = channel.llrs(&symbols);
//! assert_eq!(llrs.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod spec;
mod variants;
mod ziggurat;

pub use spec::{
    Channel, ChannelKind, ChannelSpec, ChannelSpecError, QuantizedChannel, DEFAULT_BSC_P,
    DEFAULT_BURST_P_BAD, DEFAULT_BURST_P_GOOD, DEFAULT_BURST_P_SWITCH, DEFAULT_ERASURE_P,
    QUANT_LLR_STEP,
};
pub use variants::{
    BscChannel, ErasureChannel, GilbertElliottChannel, RayleighChannel, ERASURE_KNOWN_LLR,
};

use gf2::BitVec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Converts Eb/N0 (dB) to the AWGN noise standard deviation σ for BPSK
/// with unit symbol energy and the given code rate.
///
/// `σ² = 1 / (2 · rate · 10^(EbN0/10))`.
///
/// # Panics
///
/// Panics if `rate` is not in `(0, 1]`.
///
/// ```
/// let sigma = ldpc_channel::ebn0_to_sigma(4.0, 0.5);
/// assert!((sigma - 0.6309573).abs() < 1e-5);
/// ```
pub fn ebn0_to_sigma(ebn0_db: f64, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate <= 1.0, "code rate must be in (0, 1]");
    let ebn0 = 10f64.powf(ebn0_db / 10.0);
    (1.0 / (2.0 * rate * ebn0)).sqrt()
}

/// Inverse of [`ebn0_to_sigma`]: the Eb/N0 (dB) corresponding to σ.
///
/// # Panics
///
/// Panics if `sigma <= 0` or `rate` is not in `(0, 1]`.
pub fn sigma_to_ebn0(sigma: f64, rate: f64) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    assert!(rate > 0.0 && rate <= 1.0, "code rate must be in (0, 1]");
    let ebn0 = 1.0 / (2.0 * rate * sigma * sigma);
    10.0 * ebn0.log10()
}

/// Mean magnitude of the channel LLR `2/σ²` at a given Eb/N0 and rate —
/// the operating point fed to the correction-factor optimizer.
pub fn ebn0_to_mean_llr(ebn0_db: f64, rate: f64) -> f64 {
    let sigma = ebn0_to_sigma(ebn0_db, rate);
    2.0 / (sigma * sigma)
}

/// BPSK-modulates a codeword: bit 0 → +1.0, bit 1 → −1.0.
pub fn bpsk_modulate(codeword: &BitVec) -> Vec<f64> {
    (0..codeword.len())
        .map(|i| if codeword.get(i) { -1.0 } else { 1.0 })
        .collect()
}

/// Exact BPSK/AWGN channel LLR of one received value: `2y/σ²`.
///
/// Positive LLR favours bit 0, matching the decoder convention.
pub fn llr_from_symbol(y: f64, sigma: f64) -> f32 {
    (2.0 * y / (sigma * sigma)) as f32
}

/// A BPSK hard decision on a received symbol (`y < 0` → bit 1).
pub fn hard_decision(y: f64) -> u8 {
    u8::from(y < 0.0)
}

/// LLR magnitude of the noiseless (σ = 0) AWGN demapper: a certainty
/// large enough to pin any soft decoder's belief.
const NOISELESS_LLR: f32 = 1e4;

/// An additive white Gaussian noise channel with a deterministic,
/// per-instance random stream.
///
/// The noise generator is `StdRng` seeded explicitly, so simulations are
/// reproducible and parallel workers can use disjoint seeds. Each noise
/// sample is one standard normal deviate from a 256-layer ziggurat
/// (Marsaglia–Tsang) scaled by σ; DESIGN.md §6.2 defines the stream.
#[derive(Debug, Clone)]
pub struct AwgnChannel {
    sigma: f64,
    /// `2/σ²`: the LLR per unit of received amplitude.
    llr_scale: f64,
    rng: StdRng,
}

impl AwgnChannel {
    /// Creates a channel with noise standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or not finite.
    pub fn new(sigma: f64, seed: u64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and non-negative"
        );
        Self {
            sigma,
            llr_scale: 2.0 / (sigma * sigma),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Channel configured from an Eb/N0 operating point and code rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]`.
    pub fn from_ebn0(ebn0_db: f64, rate: f64, seed: u64) -> Self {
        Self::new(ebn0_to_sigma(ebn0_db, rate), seed)
    }

    /// The noise standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Transmits one symbol, returning the noisy observation.
    pub fn transmit(&mut self, symbol: f64) -> f64 {
        symbol + self.sigma * ziggurat::standard_normal(&mut self.rng)
    }

    /// Transmits a symbol block.
    pub fn transmit_block(&mut self, symbols: &[f64]) -> Vec<f64> {
        symbols.iter().map(|&s| self.transmit(s)).collect()
    }

    /// Transmits one symbol and demaps it to its channel LLR `2y/σ²`.
    ///
    /// For the degenerate noiseless case (σ = 0) the LLR is
    /// ±[`NOISELESS_LLR`] by the symbol sign, and no noise is drawn.
    fn llr(&mut self, symbol: f64) -> f32 {
        if self.sigma == 0.0 {
            return if symbol < 0.0 {
                -NOISELESS_LLR
            } else {
                NOISELESS_LLR
            };
        }
        (self.transmit(symbol) * self.llr_scale) as f32
    }

    /// Transmits a symbol block and demaps directly to channel LLRs.
    ///
    /// For the degenerate noiseless case (σ = 0) LLRs are ±`1e4` according
    /// to the symbol sign.
    pub fn llrs(&mut self, symbols: &[f64]) -> Vec<f32> {
        symbols.iter().map(|&s| self.llr(s)).collect()
    }

    /// Modulates a codeword, transmits it, and demaps to LLRs in one step
    /// ([`Channel::transmit_codeword`]).
    pub fn transmit_codeword(&mut self, codeword: &BitVec) -> Vec<f32> {
        Channel::transmit_codeword(self, codeword)
    }
}

impl Channel for AwgnChannel {
    /// BPSK symbols come straight from the codeword's words; the output
    /// grows once and is written in place.
    fn transmit_into(&mut self, codeword: &BitVec, out: &mut Vec<f32>) {
        let start = out.len();
        out.resize(start + codeword.len(), 0.0);
        for (llrs, &word) in out[start..].chunks_mut(64).zip(codeword.words()) {
            for (j, llr) in llrs.iter_mut().enumerate() {
                *llr = self.llr(if (word >> j) & 1 == 1 { -1.0 } else { 1.0 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_roundtrips_through_ebn0() {
        for ebn0 in [-1.0, 0.0, 2.5, 4.0, 10.0] {
            for rate in [0.5, 0.875, 7154.0 / 8176.0] {
                let sigma = ebn0_to_sigma(ebn0, rate);
                assert!((sigma_to_ebn0(sigma, rate) - ebn0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn higher_ebn0_means_less_noise() {
        assert!(ebn0_to_sigma(6.0, 0.5) < ebn0_to_sigma(2.0, 0.5));
    }

    #[test]
    fn higher_rate_needs_cleaner_channel() {
        // At equal Eb/N0, higher code rate gives lower sigma (more energy
        // per symbol).
        assert!(ebn0_to_sigma(4.0, 0.9) < ebn0_to_sigma(4.0, 0.5));
    }

    #[test]
    fn mean_llr_is_two_over_sigma_squared() {
        let sigma = ebn0_to_sigma(4.0, 0.875);
        assert!((ebn0_to_mean_llr(4.0, 0.875) - 2.0 / (sigma * sigma)).abs() < 1e-9);
    }

    #[test]
    fn bpsk_mapping_convention() {
        let cw = BitVec::from_bits(&[0, 1]);
        assert_eq!(bpsk_modulate(&cw), vec![1.0, -1.0]);
        assert_eq!(hard_decision(0.3), 0);
        assert_eq!(hard_decision(-0.3), 1);
    }

    #[test]
    fn llr_sign_follows_symbol() {
        assert!(llr_from_symbol(0.8, 0.5) > 0.0);
        assert!(llr_from_symbol(-0.8, 0.5) < 0.0);
        // Exact value: 2 * 0.8 / 0.25 = 6.4
        assert!((llr_from_symbol(0.8, 0.5) - 6.4).abs() < 1e-5);
    }

    #[test]
    fn channel_is_reproducible_per_seed() {
        let symbols = vec![1.0; 64];
        let a = AwgnChannel::new(0.7, 9).transmit_block(&symbols);
        let b = AwgnChannel::new(0.7, 9).transmit_block(&symbols);
        let c = AwgnChannel::new(0.7, 10).transmit_block(&symbols);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_statistics_match_sigma() {
        let n = 100_000;
        let mut ch = AwgnChannel::new(0.8, 123);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let y = ch.transmit(0.0);
            sum += y;
            sum_sq += y * y;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.8).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn noiseless_channel_gives_huge_llrs() {
        let cw = BitVec::from_bits(&[0, 1, 0]);
        let mut ch = AwgnChannel::new(0.0, 0);
        let llrs = ch.transmit_codeword(&cw);
        assert!(llrs[0] > 1e3);
        assert!(llrs[1] < -1e3);
        assert!(llrs[2] > 1e3);
    }

    #[test]
    fn transmit_codeword_length_matches() {
        let cw = BitVec::zeros(100);
        let mut ch = AwgnChannel::from_ebn0(4.0, 0.875, 7);
        assert_eq!(ch.transmit_codeword(&cw).len(), 100);
    }

    #[test]
    fn raw_ber_tracks_q_function() {
        // P(bit error) for BPSK = Q(1/sigma); at sigma = 0.6, Q(1.667) ~ 4.8%.
        let mut ch = AwgnChannel::new(0.6, 77);
        let n = 200_000;
        let mut errors = 0u32;
        for _ in 0..n {
            if hard_decision(ch.transmit(1.0)) == 1 {
                errors += 1;
            }
        }
        let ber = f64::from(errors) / n as f64;
        assert!((ber - 0.0478).abs() < 0.004, "raw BER {ber}");
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn rejects_zero_rate() {
        ebn0_to_sigma(4.0, 0.0);
    }
}
