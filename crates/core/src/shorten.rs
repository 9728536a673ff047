//! Code shortening: deriving lower-rate sub-codes from a mother code.
//!
//! The CCSDS C2 code is itself "a shortened code based on a (8176, 7156)
//! LDPC code" (paper §2.2) — the transmission profile pins two degrees of
//! freedom. This module generalizes the mechanism: a [`ShortenedCode`]
//! pins a chosen set of information positions to zero, which lowers the
//! rate while keeping the mother code's parity-check matrix, decoder, and
//! hardware untouched (shortened positions simply enter the decoder as
//! perfectly known bits with a large LLR).

use crate::{EncodeError, Encoder, LdpcCode};
use gf2::BitVec;
use std::sync::Arc;

/// LLR magnitude injected for a known (shortened) position.
const KNOWN_BIT_LLR: f32 = 64.0;

/// A shortened view of a mother code: the first `shortened` information
/// positions are pinned to zero and not transmitted.
///
/// Shortened codes are also registered in the [`CodeSpec`](crate::CodeSpec)
/// grammar (`shortened:c2,k=4096` names the C2 code shortened to 4096
/// information bits) and implement [`CodeHandle`](crate::CodeHandle), so the
/// Monte-Carlo scenario engine drives them like any other code.
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{Encoder, ShortenedCode};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), ldpc_core::EncodeError> {
/// let code = demo_code();
/// let enc = Arc::new(Encoder::new(&code)?);
/// let k = enc.dimension();
/// let short = ShortenedCode::new(code, enc, 40)?;
/// assert_eq!(short.info_len(), k - 40);
/// assert!(short.rate() < short.mother_rate());
/// # Ok(())
/// # }
/// ```
pub struct ShortenedCode {
    code: Arc<LdpcCode>,
    encoder: Arc<Encoder>,
    shortened: usize,
    /// `pinned[b]` = codeword position `b` is pinned to zero — computed
    /// once so the per-frame LLR expansion in the Monte-Carlo hot loop
    /// stays allocation-free.
    pinned: Vec<bool>,
}

impl ShortenedCode {
    /// Creates a shortened code pinning the first `shortened` message
    /// coordinates of `encoder` to zero.
    ///
    /// The encoder is shared (`Arc`), so expensive encoders — the C2
    /// code's Gaussian elimination — are built once and reused across
    /// shortened views.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::MessageLength`] if `shortened` is not
    /// smaller than the code dimension.
    pub fn new(
        code: Arc<LdpcCode>,
        encoder: Arc<Encoder>,
        shortened: usize,
    ) -> Result<Self, EncodeError> {
        if shortened >= encoder.dimension() {
            return Err(EncodeError::MessageLength {
                expected: encoder.dimension(),
                actual: shortened,
            });
        }
        let mut pinned = vec![false; code.n()];
        for &p in &encoder.info_positions()[..shortened] {
            pinned[p as usize] = true;
        }
        Ok(Self {
            code,
            encoder,
            shortened,
            pinned,
        })
    }

    /// The mother code.
    pub fn code(&self) -> &Arc<LdpcCode> {
        &self.code
    }

    /// Number of pinned information positions.
    pub fn shortened(&self) -> usize {
        self.shortened
    }

    /// Transmittable information bits per frame.
    pub fn info_len(&self) -> usize {
        self.encoder.dimension() - self.shortened
    }

    /// Transmitted codeword length (shortened positions are withheld).
    pub fn transmitted_len(&self) -> usize {
        self.code.n() - self.shortened
    }

    /// Rate of the shortened code.
    pub fn rate(&self) -> f64 {
        self.info_len() as f64 / self.transmitted_len() as f64
    }

    /// Rate of the mother code.
    pub fn mother_rate(&self) -> f64 {
        self.code.rate()
    }

    /// Codeword positions that are pinned (known zero, not transmitted).
    pub fn pinned_positions(&self) -> Vec<u32> {
        self.encoder.info_positions()[..self.shortened].to_vec()
    }

    /// The precomputed per-position pinned mask (`mask[b]` = position
    /// `b` is pinned) — the single source the LLR expansion and the
    /// `CodeHandle` transmission profile both read.
    pub(crate) fn pinned_mask(&self) -> &[bool] {
        &self.pinned
    }

    /// Encodes `info` (length [`info_len`](Self::info_len)) into a full
    /// mother-code codeword whose pinned positions are zero.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::MessageLength`] on length mismatch.
    pub fn encode(&self, info: &[u8]) -> Result<BitVec, EncodeError> {
        if info.len() != self.info_len() {
            return Err(EncodeError::MessageLength {
                expected: self.info_len(),
                actual: info.len(),
            });
        }
        let mut message = vec![0u8; self.encoder.dimension()];
        message[self.shortened..].copy_from_slice(info);
        self.encoder.encode_bits(&message)
    }

    /// Expands received LLRs of the transmitted positions into full-length
    /// LLRs, injecting the known-zero certainty at pinned positions.
    ///
    /// Transmitted positions are all codeword positions except the pinned
    /// ones, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != self.transmitted_len()`.
    pub fn expand_llrs(&self, received: &[f32]) -> Vec<f32> {
        let mut full = Vec::with_capacity(self.code.n());
        self.expand_llrs_into(received, &mut full);
        full
    }

    /// [`expand_llrs`](Self::expand_llrs), appending to `out` instead of
    /// allocating — the form the Monte-Carlo engine uses to fill one
    /// frame block without per-frame allocation.
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != self.transmitted_len()`.
    pub fn expand_llrs_into(&self, received: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            received.len(),
            self.transmitted_len(),
            "received LLR length mismatch"
        );
        out.reserve(self.code.n());
        let mut it = received.iter();
        for &is_pinned in &self.pinned {
            if is_pinned {
                out.push(KNOWN_BIT_LLR);
            } else {
                out.push(*it.next().expect("length checked"));
            }
        }
    }

    /// Extracts the transmittable information bits from a decoded
    /// mother-code codeword.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len()` differs from the mother code length.
    pub fn extract_info(&self, codeword: &BitVec) -> BitVec {
        let msg = self.encoder.extract_message(codeword);
        msg.slice(self.shortened, self.info_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::{MinSumConfig, MinSumDecoder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn shortened(by: usize) -> ShortenedCode {
        let code = demo_code();
        let enc = Arc::new(Encoder::new(&code).unwrap());
        ShortenedCode::new(code, enc, by).unwrap()
    }

    #[test]
    fn dimensions_and_rate_shrink() {
        let s = shortened(40);
        assert_eq!(s.shortened(), 40);
        assert_eq!(
            s.info_len() + 40,
            Encoder::new(&demo_code()).unwrap().dimension()
        );
        assert_eq!(s.transmitted_len(), demo_code().n() - 40);
        assert!(s.rate() < s.mother_rate());
        assert_eq!(s.pinned_positions().len(), 40);
    }

    #[test]
    fn encoded_frames_have_zero_pinned_positions() {
        let s = shortened(30);
        let mut rng = StdRng::seed_from_u64(50);
        let info: Vec<u8> = (0..s.info_len()).map(|_| rng.gen_range(0..2u8)).collect();
        let cw = s.encode(&info).unwrap();
        assert!(s.code().is_codeword(&cw));
        for p in s.pinned_positions() {
            assert!(!cw.get(p as usize), "pinned position {p} not zero");
        }
        assert_eq!(s.extract_info(&cw).to_bits(), info);
    }

    #[test]
    fn shortened_roundtrip_through_noisy_channel() {
        let s = shortened(40);
        let mut rng = StdRng::seed_from_u64(51);
        let info: Vec<u8> = (0..s.info_len()).map(|_| rng.gen_range(0..2u8)).collect();
        let cw = s.encode(&info).unwrap();
        // Transmit only the unpinned positions with mild noise.
        let pinned: std::collections::HashSet<u32> = s.pinned_positions().into_iter().collect();
        let received: Vec<f32> = (0..s.code().n())
            .filter(|i| !pinned.contains(&(*i as u32)))
            .map(|i| {
                let sign = if cw.get(i) { -1.0f32 } else { 1.0 };
                sign * (2.0 + rng.gen_range(-0.8f32..0.8))
            })
            .collect();
        let llrs = s.expand_llrs(&received);
        let mut dec = MinSumDecoder::new(s.code().clone(), MinSumConfig::normalized(1.25));
        let out = dec.decode(&llrs, 40);
        assert!(out.converged);
        assert_eq!(s.extract_info(&out.hard_decision).to_bits(), info);
    }

    #[test]
    fn shortening_improves_robustness() {
        // At equal channel noise, the shortened (lower-rate, with known
        // bits) code should fail no more often than the mother code.
        let mother = demo_code();
        let s = shortened(60);
        let mut rng = StdRng::seed_from_u64(52);
        let mut mother_fails = 0;
        let mut short_fails = 0;
        for _ in 0..40 {
            let noise: Vec<f32> = (0..mother.n())
                .map(|_| 1.2 + rng.gen_range(-1.6f32..1.0))
                .collect();
            let mut dec = MinSumDecoder::new(mother.clone(), MinSumConfig::normalized(1.25));
            if !dec.decode(&noise, 30).converged {
                mother_fails += 1;
            }
            // Same noise on the transmitted positions, certainty on pinned.
            let pinned: std::collections::HashSet<u32> = s.pinned_positions().into_iter().collect();
            let received: Vec<f32> = (0..mother.n())
                .filter(|i| !pinned.contains(&(*i as u32)))
                .map(|i| noise[i])
                .collect();
            let llrs = s.expand_llrs(&received);
            let mut dec = MinSumDecoder::new(mother.clone(), MinSumConfig::normalized(1.25));
            if !dec.decode(&llrs, 30).converged {
                short_fails += 1;
            }
        }
        assert!(
            short_fails <= mother_fails,
            "shortened failed {short_fails} vs mother {mother_fails}"
        );
    }

    #[test]
    fn over_shortening_rejected() {
        let code = demo_code();
        let enc = Arc::new(Encoder::new(&code).unwrap());
        let k = enc.dimension();
        assert!(ShortenedCode::new(code, enc, k).is_err());
    }

    #[test]
    fn wrong_info_length_rejected() {
        let s = shortened(10);
        assert!(s.encode(&[0u8; 3]).is_err());
    }
}
