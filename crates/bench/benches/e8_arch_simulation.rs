//! E8 — Paper Figure 3 / §3: the generic parallel architecture, validated
//! by cycle-driven simulation on the real C2 code.

use gf2::BitVec;
use ldpc_bench::announce;
use ldpc_channel::AwgnChannel;
use ldpc_core::codes::ccsds_c2;
use ldpc_core::FixedDecoder;
use ldpc_hwsim::{render_table, ArchConfig, ArchSimulator, CodeDims, ThroughputModel};

fn quantized_frame(seed: u64) -> Vec<i16> {
    let code = ccsds_c2::code();
    let q = ArchConfig::low_cost().fixed.channel_quantizer();
    let mut ch = AwgnChannel::from_ebn0(4.0, code.rate(), seed);
    q.quantize_slice(&ch.transmit_codeword(&BitVec::zeros(code.n())))
}

fn regenerate_e8() {
    announce(
        "E8",
        "Figure 3 / section 3 (cycle-accurate architecture simulation)",
    );
    let code = ccsds_c2::code();
    let frame = quantized_frame(7);
    let mut rows = Vec::new();
    for cfg in [ArchConfig::low_cost(), ArchConfig::high_speed()] {
        let sim = ArchSimulator::new(cfg.clone(), code.clone());
        let model = ThroughputModel::new(cfg.clone(), CodeDims::ccsds_c2());
        let out = sim.decode(std::slice::from_ref(&frame), 18);
        let mut reference = FixedDecoder::new(code.clone(), cfg.fixed);
        let ref_out = reference.decode_quantized(&frame, 18);
        let exact = out.results[0] == ref_out;
        rows.push(vec![
            cfg.name.clone(),
            out.cycles.to_string(),
            model.frame_cycles(18).to_string(),
            format!("{}", exact),
            format!("{:.1}", model.info_throughput_mbps(18)),
        ]);
        assert!(
            exact,
            "simulator must be bit-exact with the reference decoder"
        );
        assert_eq!(out.cycles, model.frame_cycles(18));
    }
    println!(
        "{}",
        render_table(
            "E8 — simulated vs modeled cycles (18 iterations), bit-exactness",
            &["config", "sim cycles", "model cycles", "bit-exact", "Mbps"],
            &rows,
        )
    );
}

fn main() {
    regenerate_e8();
}
