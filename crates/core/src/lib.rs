//! Quasi-cyclic LDPC codes and decoders for CCSDS near-earth applications.
//!
//! This crate is the primary contribution layer of the `ccsds-ldpc`
//! workspace, reproducing the code and decoding algorithms of
//! *"A Generic Architecture of CCSDS Low Density Parity Check Decoder for
//! Near-Earth Applications"* (Demangel et al., DATE 2009):
//!
//! * [`QcLdpcSpec`] — quasi-cyclic parity-check matrices described as block
//!   arrays of circulants, expanded into sparse matrices.
//! * [`codes::ccsds_c2`] — the CCSDS 131.1-O-2 near-earth (8176, 7156) code
//!   built from a 2×16 array of 511×511 circulants of row weight two.
//! * [`TannerGraph`] — the bipartite bit-node / check-node graph with the
//!   edge-indexed message layout used by every decoder.
//! * [`Encoder`] — systematic encoding via reduced row-echelon form of H.
//! * [`decoder`] — the decoder family: floating-point sum-product
//!   ([`SumProductDecoder`]), normalized/offset min-sum ([`MinSumDecoder`]),
//!   the bit-accurate fixed-point datapath of the paper's FPGA architecture
//!   ([`FixedDecoder`]), and a serial-schedule variant
//!   ([`LayeredMinSumDecoder`]).
//! * [`PackedFixedDecoder`] — the same fixed-point datapath on one frame,
//!   adjacent nodes in byte lanes, as the paper's low-cost instance packs
//!   nodes: plain lane loops the compiler vectorizes, or their AVX2
//!   mirror on CPUs that have AVX2 (picked at run time, bit-identical).
//!
//! # Quickstart
//!
//! ```
//! use ldpc_core::codes::small::demo_code;
//! use ldpc_core::decoder::{MinSumDecoder, MinSumConfig};
//!
//! let code = demo_code();
//! let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
//! // A noiseless all-zero codeword: every LLR votes for bit 0.
//! let llrs = vec![5.0_f32; code.n()];
//! let out = dec.decode(&llrs, 10);
//! assert!(out.converged);
//! assert!(out.hard_decision.is_zero());
//! ```

// The crate is `unsafe`-free except for the AVX2 mirror of the packed
// datapath, whose intrinsics module carries the one scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codes;
mod codespec;
pub mod decoder;
mod encoder;
mod error;
mod llr;
mod qc;
mod shorten;
mod tanner;

mod code;

pub use code::LdpcCode;
pub use codespec::{
    CodeHandle, CodeSpec, CodeSpecError, PlainCode, ShortenedBase, AR4JA_LIFT_SEED, DEFAULT_AR4JA_K,
};
pub use decoder::{
    BatchMinSumDecoder, BitsliceGallagerBDecoder, BlockDecoder, DecodeResult, DecodeTrace,
    DecoderFamily, DecoderSpec, FixedConfig, FixedDecoder, GallagerBDecoder, IterationStats,
    LayeredMinSumDecoder, MinSumConfig, MinSumDecoder, MinSumVariant, PackedFixedDecoder,
    PeelingDecoder, QcLayeredDecoder, Scaling, SelfCorrectedMinSumDecoder, SpecError,
    SumProductDecoder, WeightedBitFlipDecoder, PACK_LANES, PEELING_ERASURE_FRACTION,
};
pub use encoder::Encoder;
pub use error::{CodeError, EncodeError};
pub use llr::LlrQuantizer;
pub use qc::QcLdpcSpec;
pub use shorten::ShortenedCode;
pub use tanner::TannerGraph;
