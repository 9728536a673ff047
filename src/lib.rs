//! # ccsds-ldpc
//!
//! A CCSDS near-earth LDPC decoder system in Rust — a full reproduction of
//! *"A Generic Architecture of CCSDS Low Density Parity Check Decoder for
//! Near-Earth Applications"* (Demangel, Fau, Drabik, Charot, Wolinski;
//! DATE 2009).
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`gf2`] — GF(2) linear algebra (bit vectors, matrices, circulants);
//! * [`core`] — the CCSDS C2 (8176, 7156) quasi-cyclic code, the AR4JA
//!   deep-space codes (the paper's stated future work), systematic
//!   encoder, and the decoder family (sum-product, normalized min-sum,
//!   bit-accurate fixed point, layered), plus the frame-batched decoders
//!   that mirror the architecture's frames-per-word packing;
//! * [`channel`] — BPSK modulation, the AWGN/BSC/Rayleigh channel
//!   models plus the erasure and Gilbert-Elliott burst channels
//!   behind the object-safe `Channel` trait, and LLR demapping;
//! * [`hwsim`] — the paper's generic parallel architecture: cycle-accurate
//!   simulator, throughput model (Table 1), and FPGA resource model
//!   (Tables 2–3);
//! * [`sim`] — Monte-Carlo BER/PER engine (Figure 4), one worker per
//!   point, with a chunked sweep pool for grids;
//! * [`served`] — decode-as-a-service: a TCP server coalescing many
//!   clients' frames into full `@pack`/`@batch`/`@bitslice` words under
//!   a latency budget (the serving mirror of the paper's
//!   8-frames-in-flight datapath).
//!
//! # Quickstart
//!
//! Every decoder family is reachable through one declarative front
//! door: a [`DecoderSpec`](core::DecoderSpec) string names the family,
//! its parameters, and how it runs (`"nms:1.25@batch=8"`,
//! `"gallager-b@bitslice"`, …), and builds the decoder behind the
//! object-safe [`BlockDecoder`](core::BlockDecoder) trait:
//!
//! ```
//! use ccsds_ldpc::core::codes::small::demo_code;
//! use ccsds_ldpc::core::DecoderSpec;
//! use ccsds_ldpc::channel::AwgnChannel;
//! use ccsds_ldpc::gf2::BitVec;
//!
//! // Transmit the all-zero codeword at 5 dB over AWGN.
//! let code = demo_code();
//! let mut channel = AwgnChannel::from_ebn0(5.0, code.rate(), 42);
//! let llrs = channel.transmit_codeword(&BitVec::zeros(code.n()));
//!
//! // Decode with the paper's fixed-point datapath at 18 iterations —
//! // swap the spec string to try any other family.
//! let mut decoder = DecoderSpec::parse("fixed")?.build(&code);
//! let out = decoder.decode_block(&llrs, 18);
//! assert!(out[0].converged);
//! # Ok::<(), ccsds_ldpc::core::SpecError>(())
//! ```
//!
//! Concrete decoder types (`FixedDecoder`, `MinSumDecoder`, …) remain
//! available for configurations outside the spec grammar; each one
//! implements the same trait directly.
//!
//! Codes and channels have the same declarative grammar
//! ([`CodeSpec`](core::CodeSpec), [`ChannelSpec`](channel::ChannelSpec)),
//! and one string composes all three into a complete experiment — a
//! [`Scenario`](sim::Scenario) like `"c2 / awgn / nms:1.25"` — driven
//! end to end by [`run_point_scenario_with`](sim::run_point_scenario_with). The
//! grammar and a recipe book live in `docs/scenarios.md`.
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gf2;

/// Codes, encoders and decoders (re-export of `ldpc-core`).
pub use ldpc_core as core;

/// BPSK/AWGN channel substrate (re-export of `ldpc-channel`).
pub use ldpc_channel as channel;

/// Hardware architecture models (re-export of `ldpc-hwsim`).
pub use ldpc_hwsim as hwsim;

/// Monte-Carlo evaluation engine (re-export of `ldpc-sim`).
pub use ldpc_sim as sim;

/// Decode-as-a-service TCP server (re-export of `ldpc-served`).
pub use ldpc_served as served;
