//! Bit-sliced hard-decision decoding throughput: 64 frames per `u64` word.
//!
//! The paper's high-speed architecture packs 8 soft frames into every
//! message-memory word (Table 3). Hard-decision decoding takes that idea
//! to its limit: one frame contributes exactly one bit per variable node,
//! so a single `u64` carries 64 frames and every boolean/popcount word
//! operation advances all of them in lockstep. This example measures
//! frames/sec of the scalar `GallagerBDecoder` against the bit-sliced
//! `BitsliceGallagerBDecoder` on the demo code and the full CCSDS C2
//! code, verifying along the way that every lane is bit-identical to the
//! scalar decode of that frame alone.
//!
//! Run with `cargo run --release --example bitslice_throughput`.

use ccsds_ldpc::channel::AwgnChannel;
use ccsds_ldpc::core::codes::{ccsds_c2, small::demo_code};
use ccsds_ldpc::core::{BitsliceGallagerBDecoder, BlockDecoder, GallagerBDecoder, LdpcCode};
use ccsds_ldpc::gf2::BitVec;
use std::sync::Arc;
use std::time::Instant;

const ITERS: u32 = 10;
const THRESHOLD: usize = 3;

/// Noisy all-zero frames at `ebn0` dB, stored back to back.
fn frames(code: &Arc<LdpcCode>, count: usize, ebn0: f64, seed: u64) -> Vec<f32> {
    let mut channel = AwgnChannel::from_ebn0(ebn0, code.rate(), seed);
    let zero = BitVec::zeros(code.n());
    let mut llrs = Vec::with_capacity(count * code.n());
    for _ in 0..count {
        llrs.extend(channel.transmit_codeword(&zero));
    }
    llrs
}

/// Measures scalar Gallager-B against the 64-wide bit-sliced decoder.
fn compare(label: &str, code: &Arc<LdpcCode>, total: usize, ebn0: f64, seed: u64) {
    let llrs = frames(code, total, ebn0, seed);
    let mut scalar = GallagerBDecoder::new(code.clone(), THRESHOLD);
    let reference = scalar.decode_block(&llrs, ITERS);
    let start = Instant::now();
    let _ = scalar.decode_block(&llrs, ITERS);
    let base = total as f64 / start.elapsed().as_secs_f64();
    let mut sliced = BitsliceGallagerBDecoder::new(code.clone(), THRESHOLD);
    let start = Instant::now();
    let out = sliced.decode_block(&llrs, ITERS);
    let fps = total as f64 / start.elapsed().as_secs_f64();
    assert_eq!(out, reference, "{label}: bit-sliced lanes diverged");
    let converged = out.iter().filter(|r| r.converged).count();
    println!(
        "{label} ({} bits, {total} frames, {converged} converged)",
        code.n()
    );
    println!("  scalar gallager-b : {base:>10.0} frames/sec (1.00x)");
    println!(
        "  bitslice 64/word  : {fps:>10.0} frames/sec ({:.1}x, bit-identical per lane)",
        fps / base
    );
}

fn main() {
    println!(
        "== bit-sliced hard-decision decoding, threshold {THRESHOLD}, {ITERS} iterations ==\n"
    );
    compare("demo code", &demo_code(), 4096, 6.0, 31);
    println!();
    compare("CCSDS C2", &ccsds_c2::code(), 128, 6.0, 32);
    println!(
        "\n(soft decoding trades this speed for ~2 dB of coding gain; the\n\
         bit-sliced path serves the high-SNR regime where flipping suffices)"
    );
}
