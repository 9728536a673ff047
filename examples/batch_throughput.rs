//! Frame-batched decoding throughput: per-frame vs lockstep batches.
//!
//! The paper's high-speed architecture packs 8 frames per message-memory
//! word (Table 3); `BatchMinSumDecoder` / `BatchFixedDecoder` are the
//! software mirror of that packing. This example measures frames/sec of
//! the per-frame decoders against batches of 4, 8, and 16 frames on the
//! demo code, and batch 8 on the full CCSDS C2 code, verifying along the
//! way that the batched hard decisions are bit-identical. Both modes are
//! shown: fixed-latency (no early termination — how the hardware runs)
//! and early-stop (how the Monte-Carlo engine runs).
//!
//! Run with `cargo run --release --example batch_throughput`.

use ccsds_ldpc::channel::AwgnChannel;
use ccsds_ldpc::core::codes::{ccsds_c2, small::demo_code};
use ccsds_ldpc::core::{
    BatchFixedDecoder, BatchMinSumDecoder, BlockDecoder, FixedConfig, FixedDecoder, LdpcCode,
    MinSumConfig, MinSumDecoder,
};
use ccsds_ldpc::gf2::BitVec;
use std::sync::Arc;
use std::time::Instant;

const ITERS: u32 = 10;

/// Noisy all-zero frames at 4 dB, stored back to back.
fn frames(code: &Arc<LdpcCode>, count: usize, seed: u64) -> Vec<f32> {
    let mut channel = AwgnChannel::from_ebn0(4.0, code.rate(), seed);
    let zero = BitVec::zeros(code.n());
    let mut llrs = Vec::with_capacity(count * code.n());
    for _ in 0..count {
        llrs.extend(channel.transmit_codeword(&zero));
    }
    llrs
}

/// Measures one per-frame baseline and a set of batch widths against it.
fn compare<D, B>(
    label: &str,
    llrs: &[f32],
    batches: &[usize],
    mut per_frame: D,
    mut make_batched: impl FnMut(usize) -> B,
) where
    D: BlockDecoder,
    B: BlockDecoder,
{
    let n = per_frame.n();
    let total = llrs.len() / n;
    let reference = per_frame.decode_block(llrs, ITERS);
    let start = Instant::now();
    let _ = per_frame.decode_block(llrs, ITERS);
    let base = total as f64 / start.elapsed().as_secs_f64();
    println!("{label}");
    println!("  per-frame : {base:>9.0} frames/sec (1.00x)");
    for &batch in batches {
        let mut dec = make_batched(batch);
        let start = Instant::now();
        let out = dec.decode_block(llrs, ITERS);
        let fps = total as f64 / start.elapsed().as_secs_f64();
        assert_eq!(out, reference, "batch={batch} diverged from per-frame");
        println!(
            "  batch {batch:>2}  : {fps:>9.0} frames/sec ({:.2}x, bit-identical)",
            fps / base
        );
    }
}

fn main() {
    let code = demo_code();
    let llrs = frames(&code, 512, 1);
    for early_stop in [false, true] {
        let mode = if early_stop {
            "early-stop"
        } else {
            "fixed-latency"
        };
        println!(
            "== demo code (248 bits), normalized min-sum a=4/3, {ITERS} iterations, {mode} =="
        );
        let cfg = MinSumConfig::normalized(4.0 / 3.0).with_early_stop(early_stop);
        compare(
            "float min-sum",
            &llrs,
            &[4, 8, 16],
            MinSumDecoder::new(code.clone(), cfg.clone()),
            |b| BatchMinSumDecoder::new(code.clone(), cfg.clone(), b),
        );
        let fcfg = FixedConfig::default().with_early_stop(early_stop);
        compare(
            "fixed-point datapath",
            &llrs,
            &[8],
            FixedDecoder::new(code.clone(), fcfg),
            |b| BatchFixedDecoder::new(code.clone(), fcfg, b),
        );
        println!();
    }

    let c2 = ccsds_c2::code();
    let llrs = frames(&c2, 16, 2);
    println!("== CCSDS C2 (8176 bits), {ITERS} iterations, fixed-latency ==");
    let fcfg = FixedConfig::default().with_early_stop(false);
    compare(
        "fixed-point datapath",
        &llrs,
        &[8],
        FixedDecoder::new(c2.clone(), fcfg),
        |b| BatchFixedDecoder::new(c2.clone(), fcfg, b),
    );
    println!("\n(paper hardware at 18 iterations: low-cost 70 Mbps, high-speed 560 Mbps)");
}
