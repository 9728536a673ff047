//! Additional channel models beyond AWGN.
//!
//! The near-earth link of the paper is BPSK/AWGN, but a production decoder
//! IP is qualified against harsher models too. These variants exercise the
//! same decoder interface:
//!
//! * [`BscChannel`] — binary symmetric channel (hard-decision input),
//!   modelling a demodulator that only delivers sliced bits;
//! * [`RayleighChannel`] — flat Rayleigh fading with perfect CSI,
//!   modelling a scintillating link;
//! * [`ErasureChannel`] — symbol erasures to zero LLR, modelling links
//!   that lose symbols outright (content distribution, deep interleaver
//!   failures) rather than flipping them;
//! * [`GilbertElliottChannel`] — a two-state Markov burst channel with
//!   per-state crossover probability, the classical model of bursty
//!   interference.

use crate::{AwgnChannel, Channel};
use gf2::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// LLR magnitude assigned to a *known* (non-erased) symbol by the
/// erasure channel — the same "certainty" value the noiseless AWGN
/// demapper emits, large enough to pin any soft decoder's belief.
pub const ERASURE_KNOWN_LLR: f32 = 1e4;

/// Binary symmetric channel with crossover probability `p`.
///
/// Outputs ±LLR of fixed magnitude `ln((1−p)/p)`, the exact LLR of a BSC
/// observation.
///
/// # Example
///
/// ```
/// use gf2::BitVec;
/// use ldpc_channel::BscChannel;
///
/// let mut ch = BscChannel::new(0.05, 1);
/// let llrs = ch.transmit_codeword(&BitVec::zeros(100));
/// assert_eq!(llrs.len(), 100);
/// // All magnitudes equal the BSC LLR.
/// let mag = (0.95f32 / 0.05).ln();
/// assert!(llrs.iter().all(|l| (l.abs() - mag).abs() < 1e-5));
/// ```
#[derive(Debug, Clone)]
pub struct BscChannel {
    p: f64,
    llr_magnitude: f32,
    rng: StdRng,
}

impl BscChannel {
    /// Creates a BSC with crossover probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 0.5)`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            p > 0.0 && p < 0.5,
            "crossover probability must be in (0, 0.5)"
        );
        Self {
            p,
            llr_magnitude: ((1.0 - p) / p).ln() as f32,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The crossover probability.
    pub fn crossover(&self) -> f64 {
        self.p
    }

    /// Transmits a codeword, returning BSC channel LLRs
    /// ([`Channel::transmit_codeword`]).
    pub fn transmit_codeword(&mut self, codeword: &BitVec) -> Vec<f32> {
        Channel::transmit_codeword(self, codeword)
    }
}

impl Channel for BscChannel {
    fn transmit_into(&mut self, codeword: &BitVec, out: &mut Vec<f32>) {
        out.extend((0..codeword.len()).map(|i| {
            let mut bit = codeword.get(i);
            if self.rng.gen_bool(self.p) {
                bit = !bit;
            }
            if bit {
                -self.llr_magnitude
            } else {
                self.llr_magnitude
            }
        }));
    }
}

/// Flat Rayleigh fading channel with AWGN and perfect channel state
/// information at the receiver.
///
/// Each symbol is scaled by an independent Rayleigh amplitude `a` (unit
/// mean square) before the Gaussian noise; the receiver demaps with
/// `llr = 2·a·y/σ²`.
///
/// # Example
///
/// ```
/// use gf2::BitVec;
/// use ldpc_channel::{ebn0_to_sigma, RayleighChannel};
///
/// let sigma = ebn0_to_sigma(6.0, 0.875);
/// let mut ch = RayleighChannel::new(sigma, 7);
/// let llrs = ch.transmit_codeword(&BitVec::zeros(200));
/// assert_eq!(llrs.len(), 200);
/// // Deep fades shrink LLR magnitudes but the all-zero codeword still
/// // leans positive overall.
/// assert!(llrs.iter().filter(|&&l| l > 0.0).count() > 150);
/// ```
#[derive(Debug, Clone)]
pub struct RayleighChannel {
    sigma: f64,
    awgn: AwgnChannel,
    fade_rng: StdRng,
}

impl RayleighChannel {
    /// Creates a Rayleigh channel with noise level `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive and finite.
    pub fn new(sigma: f64, seed: u64) -> Self {
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
        Self {
            sigma,
            awgn: AwgnChannel::new(sigma, seed),
            fade_rng: StdRng::seed_from_u64(seed ^ 0xFADE_u64),
        }
    }

    /// One Rayleigh amplitude with E[a²] = 1.
    fn amplitude(&mut self) -> f64 {
        // Sum of two squared N(0, 1/2) deviates -> exponential with mean 1.
        let u: f64 = self.fade_rng.gen::<f64>().max(f64::MIN_POSITIVE);
        (-u.ln()).sqrt()
    }

    /// Transmits a codeword, returning CSI-aware channel LLRs
    /// ([`Channel::transmit_codeword`]).
    pub fn transmit_codeword(&mut self, codeword: &BitVec) -> Vec<f32> {
        Channel::transmit_codeword(self, codeword)
    }
}

impl Channel for RayleighChannel {
    fn transmit_into(&mut self, codeword: &BitVec, out: &mut Vec<f32>) {
        out.extend((0..codeword.len()).map(|i| {
            let s = if codeword.get(i) { -1.0 } else { 1.0 };
            let a = self.amplitude();
            let y = self.awgn.transmit(a * s);
            (2.0 * a * y / (self.sigma * self.sigma)) as f32
        }));
    }
}

/// Binary erasure channel: each symbol is independently erased with
/// probability `p`.
///
/// Erased positions yield an LLR of exactly `0.0` (no information);
/// surviving positions yield ±[`ERASURE_KNOWN_LLR`] according to the
/// transmitted bit — an erasure never *flips* a symbol, it removes it.
/// This is the symbol-level version of the packet-loss regime that
/// fountain codes target, and it reuses the same zero-LLR convention as
/// the AR4JA puncturing machinery in `ldpc-core`.
///
/// # Example
///
/// ```
/// use gf2::BitVec;
/// use ldpc_channel::{ErasureChannel, ERASURE_KNOWN_LLR};
///
/// let mut ch = ErasureChannel::new(0.1, 1);
/// let llrs = ch.transmit_codeword(&BitVec::zeros(100));
/// // Every LLR is either an exact erasure or an exact certainty.
/// assert!(llrs.iter().all(|&l| l == 0.0 || l == ERASURE_KNOWN_LLR));
/// ```
#[derive(Debug, Clone)]
pub struct ErasureChannel {
    p: f64,
    rng: StdRng,
}

impl ErasureChannel {
    /// Creates an erasure channel with symbol-erasure probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p < 1.0, "erasure probability must be in (0, 1)");
        Self {
            p,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The symbol-erasure probability.
    pub fn erasure_probability(&self) -> f64 {
        self.p
    }

    /// Transmits a codeword, returning zero LLRs at erased positions and
    /// ±[`ERASURE_KNOWN_LLR`] elsewhere ([`Channel::transmit_codeword`]).
    pub fn transmit_codeword(&mut self, codeword: &BitVec) -> Vec<f32> {
        Channel::transmit_codeword(self, codeword)
    }
}

impl Channel for ErasureChannel {
    fn transmit_into(&mut self, codeword: &BitVec, out: &mut Vec<f32>) {
        out.extend((0..codeword.len()).map(|i| {
            if self.rng.gen_bool(self.p) {
                0.0
            } else if codeword.get(i) {
                -ERASURE_KNOWN_LLR
            } else {
                ERASURE_KNOWN_LLR
            }
        }));
    }
}

/// Two-state Gilbert-Elliott burst channel.
///
/// The channel is a symmetric two-state Markov chain: before every
/// symbol it flips between its *good* and *bad* states with probability
/// `p_switch`, then passes the symbol through a BSC whose crossover is
/// the current state's (`p_good` in the good state, `p_bad` in the bad
/// one). Mean sojourn in either state is `1/p_switch` symbols, so the
/// stationary occupancy is exactly ½/½ and the average crossover is
/// `(p_good + p_bad) / 2` — but the errors arrive in bursts of mean
/// length `1/p_switch`, the regime where interleaving and erasure
/// filling matter.
///
/// The receiver has perfect state information (the same perfect-CSI
/// convention as [`RayleighChannel`]): each LLR's magnitude is the BSC
/// log-likelihood `ln((1−p_state)/p_state)` of the state the symbol was
/// transmitted in, so a decoder can discount burst symbols.
///
/// # Example
///
/// ```
/// use gf2::BitVec;
/// use ldpc_channel::GilbertElliottChannel;
///
/// let mut ch = GilbertElliottChannel::new(0.01, 0.3, 0.05, 1);
/// let llrs = ch.transmit_codeword(&BitVec::zeros(100));
/// // Exactly two magnitudes appear: the good-state and bad-state LLRs.
/// let good = (0.99f32 / 0.01).ln();
/// let bad = (0.7f32 / 0.3).ln();
/// assert!(llrs
///     .iter()
///     .all(|l| (l.abs() - good).abs() < 1e-5 || (l.abs() - bad).abs() < 1e-5));
/// ```
#[derive(Debug, Clone)]
pub struct GilbertElliottChannel {
    p_good: f64,
    p_bad: f64,
    p_switch: f64,
    llr_good: f32,
    llr_bad: f32,
    in_bad_state: bool,
    rng: StdRng,
}

impl GilbertElliottChannel {
    /// Creates a Gilbert-Elliott channel starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics if `p_good` or `p_bad` is outside `(0, 0.5)` or `p_switch`
    /// is outside `(0, 1]`.
    pub fn new(p_good: f64, p_bad: f64, p_switch: f64, seed: u64) -> Self {
        assert!(
            p_good > 0.0 && p_good < 0.5,
            "good-state crossover must be in (0, 0.5)"
        );
        assert!(
            p_bad > 0.0 && p_bad < 0.5,
            "bad-state crossover must be in (0, 0.5)"
        );
        assert!(
            p_switch > 0.0 && p_switch <= 1.0,
            "state-switch probability must be in (0, 1]"
        );
        Self {
            p_good,
            p_bad,
            p_switch,
            llr_good: ((1.0 - p_good) / p_good).ln() as f32,
            llr_bad: ((1.0 - p_bad) / p_bad).ln() as f32,
            in_bad_state: false,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The `(p_good, p_bad, p_switch)` parameters.
    pub fn parameters(&self) -> (f64, f64, f64) {
        (self.p_good, self.p_bad, self.p_switch)
    }

    /// Transmits a codeword, returning per-state CSI-aware LLRs
    /// ([`Channel::transmit_codeword`]). The Markov state persists across
    /// calls, so consecutive frames see one continuous burst process.
    pub fn transmit_codeword(&mut self, codeword: &BitVec) -> Vec<f32> {
        Channel::transmit_codeword(self, codeword)
    }
}

impl Channel for GilbertElliottChannel {
    fn transmit_into(&mut self, codeword: &BitVec, out: &mut Vec<f32>) {
        out.extend((0..codeword.len()).map(|i| {
            if self.rng.gen_bool(self.p_switch) {
                self.in_bad_state = !self.in_bad_state;
            }
            let (p, magnitude) = if self.in_bad_state {
                (self.p_bad, self.llr_bad)
            } else {
                (self.p_good, self.llr_good)
            };
            let mut bit = codeword.get(i);
            if self.rng.gen_bool(p) {
                bit = !bit;
            }
            if bit {
                -magnitude
            } else {
                magnitude
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsc_flip_rate_matches_p() {
        let mut ch = BscChannel::new(0.1, 3);
        let n = 50_000;
        let llrs = ch.transmit_codeword(&BitVec::zeros(n));
        let flips = llrs.iter().filter(|&&l| l < 0.0).count();
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "flip rate {rate}");
        assert_eq!(ch.crossover(), 0.1);
    }

    #[test]
    fn bsc_llr_magnitude_is_log_likelihood() {
        let ch = BscChannel::new(0.2, 0);
        assert!((ch.llr_magnitude - (0.8f32 / 0.2).ln()).abs() < 1e-6);
    }

    #[test]
    fn rayleigh_reduces_to_positive_llrs_mostly_at_low_noise() {
        let mut ch = RayleighChannel::new(0.2, 5);
        let llrs = ch.transmit_codeword(&BitVec::zeros(10_000));
        let wrong = llrs.iter().filter(|&&l| l < 0.0).count();
        // Fading causes occasional deep fades but most symbols survive.
        assert!(wrong < 1_000, "wrong {wrong}");
    }

    #[test]
    fn rayleigh_is_reproducible() {
        let cw = BitVec::zeros(64);
        let a = RayleighChannel::new(0.5, 9).transmit_codeword(&cw);
        let b = RayleighChannel::new(0.5, 9).transmit_codeword(&cw);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "crossover")]
    fn bsc_rejects_half() {
        BscChannel::new(0.5, 0);
    }

    #[test]
    fn erasure_rate_matches_p() {
        let mut ch = ErasureChannel::new(0.2, 4);
        let n = 50_000;
        let llrs = ch.transmit_codeword(&BitVec::zeros(n));
        let erased = llrs.iter().filter(|&&l| l == 0.0).count();
        let rate = erased as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "erasure rate {rate}");
        assert_eq!(ch.erasure_probability(), 0.2);
        // Surviving symbols are never flipped, only certain.
        assert!(llrs.iter().all(|&l| l == 0.0 || l == ERASURE_KNOWN_LLR));
    }

    #[test]
    fn erasure_keeps_transmitted_signs() {
        let mut cw = BitVec::zeros(1000);
        for i in (0..1000).step_by(2) {
            cw.set(i, true);
        }
        let mut ch = ErasureChannel::new(0.1, 8);
        let llrs = ch.transmit_codeword(&cw);
        for (i, &l) in llrs.iter().enumerate() {
            if l != 0.0 {
                assert_eq!(l < 0.0, cw.get(i), "sign flipped at {i}");
            }
        }
    }

    #[test]
    fn erasure_is_reproducible() {
        let cw = BitVec::zeros(64);
        let a = ErasureChannel::new(0.3, 9).transmit_codeword(&cw);
        let b = ErasureChannel::new(0.3, 9).transmit_codeword(&cw);
        let c = ErasureChannel::new(0.3, 10).transmit_codeword(&cw);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "erasure probability")]
    fn erasure_rejects_one() {
        ErasureChannel::new(1.0, 0);
    }

    #[test]
    fn gilbert_elliott_average_flip_rate_is_state_mean() {
        // Symmetric switching: ½/½ occupancy, so the long-run crossover
        // is the mean of the two per-state probabilities.
        let mut ch = GilbertElliottChannel::new(0.01, 0.3, 0.05, 6);
        let n = 100_000;
        let llrs = ch.transmit_codeword(&BitVec::zeros(n));
        let flips = llrs.iter().filter(|&&l| l < 0.0).count();
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.155).abs() < 0.01, "flip rate {rate}");
    }

    #[test]
    fn gilbert_elliott_errors_cluster_in_bad_state() {
        let mut ch = GilbertElliottChannel::new(0.01, 0.3, 0.05, 7);
        let llrs = ch.transmit_codeword(&BitVec::zeros(100_000));
        let bad_magnitude = (0.7f32 / 0.3).ln();
        let (mut bad_flips, mut good_flips, mut bad_syms) = (0u64, 0u64, 0u64);
        for &l in &llrs {
            let in_bad = (l.abs() - bad_magnitude).abs() < 1e-4;
            if in_bad {
                bad_syms += 1;
            }
            if l < 0.0 {
                if in_bad {
                    bad_flips += 1;
                } else {
                    good_flips += 1;
                }
            }
        }
        // Bad state holds ~half the symbols but nearly all the errors.
        assert!(
            bad_syms > 45_000 && bad_syms < 55_000,
            "occupancy {bad_syms}"
        );
        assert!(bad_flips > 20 * good_flips, "{bad_flips} vs {good_flips}");
    }

    #[test]
    fn gilbert_elliott_burst_lengths_follow_p_switch() {
        // Mean sojourn in a state is 1/p_switch symbols; count state runs
        // via the per-state LLR magnitude.
        let mut ch = GilbertElliottChannel::new(0.01, 0.3, 0.02, 11);
        let llrs = ch.transmit_codeword(&BitVec::zeros(200_000));
        let bad_magnitude = (0.7f32 / 0.3).ln();
        let mut runs = 0u64;
        let mut prev_bad = false;
        for &l in &llrs {
            let in_bad = (l.abs() - bad_magnitude).abs() < 1e-4;
            if in_bad != prev_bad {
                runs += 1;
                prev_bad = in_bad;
            }
        }
        let mean_run = llrs.len() as f64 / runs as f64;
        assert!((mean_run - 50.0).abs() < 5.0, "mean sojourn {mean_run}");
    }

    #[test]
    fn gilbert_elliott_state_persists_across_frames() {
        // One long transmission must equal two back-to-back halves: the
        // Markov chain is not reset between codewords.
        let mut long = GilbertElliottChannel::new(0.05, 0.4, 0.1, 13);
        let whole = long.transmit_codeword(&BitVec::zeros(256));
        let mut split = GilbertElliottChannel::new(0.05, 0.4, 0.1, 13);
        let mut halves = split.transmit_codeword(&BitVec::zeros(128));
        halves.extend(split.transmit_codeword(&BitVec::zeros(128)));
        assert_eq!(whole, halves);
    }

    #[test]
    fn gilbert_elliott_is_reproducible() {
        let cw = BitVec::zeros(64);
        let a = GilbertElliottChannel::new(0.01, 0.3, 0.05, 9).transmit_codeword(&cw);
        let b = GilbertElliottChannel::new(0.01, 0.3, 0.05, 9).transmit_codeword(&cw);
        let c = GilbertElliottChannel::new(0.01, 0.3, 0.05, 10).transmit_codeword(&cw);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "state-switch")]
    fn gilbert_elliott_rejects_zero_switch() {
        GilbertElliottChannel::new(0.01, 0.3, 0.0, 0);
    }
}
