//! Near-earth telemetry downlink scenario: a stream of CCSDS C2 frames is
//! decoded at a given link quality, and the achievable data rate is read
//! off the hardware throughput model.
//!
//! This is the workload the paper's introduction motivates: very high data
//! rates with high reliability. Run with
//! `cargo run --release --example near_earth_downlink [ebn0_db] [frames]`.

use ccsds_ldpc::channel::AwgnChannel;
use ccsds_ldpc::core::codes::ccsds_c2;
use ccsds_ldpc::core::{FixedConfig, FixedDecoder};
use ccsds_ldpc::hwsim::{ArchConfig, CodeDims, ThroughputModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut args = std::env::args().skip(1);
    let ebn0_db: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(4.0);
    let frames: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let iterations = 18; // the paper's best speed/reliability trade-off

    let code = ccsds_c2::code();
    let mut rng = StdRng::seed_from_u64(7);
    let mut channel = AwgnChannel::from_ebn0(ebn0_db, code.rate(), 99);
    let mut decoder = FixedDecoder::new(code.clone(), FixedConfig::default());

    println!("downlink: {frames} frames of {} info bits at Eb/N0 = {ebn0_db} dB, {iterations} iterations\n", ccsds_c2::K_INFO);

    let mut frame_errors = 0usize;
    let mut bit_errors = 0u64;
    let mut total_iters = 0u64;
    for f in 0..frames {
        let info: Vec<u8> = (0..ccsds_c2::K_INFO)
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let codeword = ccsds_c2::encode_frame(&info).expect("valid frame length");
        let llrs = channel.transmit_codeword(&codeword);
        let out = decoder.decode(&llrs, iterations);
        total_iters += u64::from(out.iterations);
        let errs = (0..ccsds_c2::K_INFO)
            .filter(|&i| out.hard_decision.get(i) != codeword.get(i))
            .count() as u64;
        if errs > 0 {
            frame_errors += 1;
            bit_errors += errs;
            println!(
                "frame {f:3}: FAILED ({errs} info-bit errors, converged={})",
                out.converged
            );
        }
    }
    let total_bits = (frames * ccsds_c2::K_INFO) as f64;
    println!(
        "link quality : BER = {:.2e}, FER = {}/{}",
        bit_errors as f64 / total_bits,
        frame_errors,
        frames
    );
    println!(
        "avg iterations (with early stop): {:.1}\n",
        total_iters as f64 / frames as f64
    );

    // What data rate would the paper's hardware sustain on this stream?
    let dims = CodeDims::ccsds_c2();
    for cfg in [ArchConfig::low_cost(), ArchConfig::high_speed()] {
        let model = ThroughputModel::new(cfg, dims);
        println!(
            "{:>10} decoder @ {:.0} MHz, {iterations} iterations: {:>7.1} Mbps info ({:.1} Mbps coded)",
            model.config().name,
            model.config().clock_mhz,
            model.info_throughput_mbps(iterations),
            model.coded_throughput_mbps(iterations),
        );
    }
}
