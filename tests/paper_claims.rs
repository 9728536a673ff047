//! The paper's quantitative claims, asserted end to end: Table 1 (data
//! rates), Tables 2–3 (resources), §4.2 (8x for ~4x), §5 (correction
//! factor), and the Figure 2 structure.

use ccsds_ldpc::core::codes::{ccsds_c2, small::demo_code};
use ccsds_ldpc::core::DecoderSpec;
use ccsds_ldpc::hwsim::{
    ArchConfig, CodeDims, ResourceEstimate, ThroughputModel, CYCLONE_II_EP2C50, STRATIX_II_EP2S180,
};
use ccsds_ldpc::sim::{run_point_blocks, MonteCarloConfig, Transmission};

#[test]
fn table_1_throughputs() {
    let dims = CodeDims::ccsds_c2();
    let lc = ThroughputModel::new(ArchConfig::low_cost(), dims);
    let hs = ThroughputModel::new(ArchConfig::high_speed(), dims);
    // Paper values (Mbps): rounding tolerance of a few percent.
    let expect = [(10u32, 130.0, 1040.0), (18, 70.0, 560.0), (50, 25.0, 200.0)];
    for (iters, want_lc, want_hs) in expect {
        let got_lc = lc.info_throughput_mbps(iters);
        let got_hs = hs.info_throughput_mbps(iters);
        assert!(
            (got_lc - want_lc).abs() / want_lc < 0.05,
            "low-cost {iters} it: got {got_lc}, paper {want_lc}"
        );
        assert!(
            (got_hs - want_hs).abs() / want_hs < 0.05,
            "high-speed {iters} it: got {got_hs}, paper {want_hs}"
        );
    }
}

#[test]
fn table_2_low_cost_resources() {
    let est = ResourceEstimate::new(&ArchConfig::low_cost(), &CodeDims::ccsds_c2());
    // Paper: 8k ALUTs (16%), 6k registers (12%), 290k bits (50%).
    assert!(
        (est.aluts as f64 - 8_000.0).abs() / 8_000.0 < 0.05,
        "{}",
        est.aluts
    );
    assert!(
        (est.registers as f64 - 6_000.0).abs() / 6_000.0 < 0.05,
        "{}",
        est.registers
    );
    assert!(
        (est.memory_bits as f64 - 290_000.0).abs() / 290_000.0 < 0.05,
        "{}",
        est.memory_bits
    );
    let u = CYCLONE_II_EP2C50.utilization(&est);
    assert!(u.fits());
    assert!((u.logic_pct - 16.0).abs() < 2.0);
    assert!((u.memory_pct - 50.0).abs() < 3.0);
}

#[test]
fn table_3_high_speed_resources() {
    let est = ResourceEstimate::new(&ArchConfig::high_speed(), &CodeDims::ccsds_c2());
    // Paper: 38k ALUTs (27%), 30k registers (20%), 1300kb.
    assert!(
        (est.aluts as f64 - 38_000.0).abs() / 38_000.0 < 0.05,
        "{}",
        est.aluts
    );
    assert!(
        (est.registers as f64 - 30_000.0).abs() / 30_000.0 < 0.05,
        "{}",
        est.registers
    );
    assert!(
        (est.memory_bits as f64 - 1_300_000.0).abs() / 1_300_000.0 < 0.02,
        "{}",
        est.memory_bits
    );
    assert!(STRATIX_II_EP2S180.fits(&est));
}

#[test]
fn section_4_2_eight_x_rate_for_four_x_resources() {
    let dims = CodeDims::ccsds_c2();
    let lc_est = ResourceEstimate::new(&ArchConfig::low_cost(), &dims);
    let hs_est = ResourceEstimate::new(&ArchConfig::high_speed(), &dims);
    let lc_tp = ThroughputModel::new(ArchConfig::low_cost(), dims).info_throughput_mbps(18);
    let hs_tp = ThroughputModel::new(ArchConfig::high_speed(), dims).info_throughput_mbps(18);
    assert!(
        (hs_tp / lc_tp - 8.0).abs() < 1e-9,
        "throughput x{}",
        hs_tp / lc_tp
    );
    let logic_ratio = hs_est.aluts as f64 / lc_est.aluts as f64;
    assert!((4.0..5.5).contains(&logic_ratio), "logic x{logic_ratio}");
    let mem_ratio = hs_est.memory_bits as f64 / lc_est.memory_bits as f64;
    assert!(
        mem_ratio < 5.0,
        "memory x{mem_ratio} — should be well below x8"
    );
}

#[test]
fn figure_2_structure_of_h() {
    let code = ccsds_c2::code();
    let h = code.h();
    assert_eq!((h.rows(), h.cols()), (1022, 8176));
    assert_eq!(h.nnz(), 32_704);
    assert!(h.iter_entries().all(|(r, c)| r < 1022 && c < 8176));
    // The scatter plot's block structure: entries in block row 0 lie in
    // rows 0..511, block row 1 in 511..1022, and every 511-column band
    // holds exactly 2 ones per row.
    for r in [0usize, 510, 511, 1021] {
        for band in 0..16 {
            let in_band = h
                .row(r)
                .iter()
                .filter(|&&c| (c as usize) / 511 == band)
                .count();
            assert_eq!(in_band, 2, "row {r} band {band}");
        }
    }
}

#[test]
fn section_5_correction_factor_beats_plain_min_sum() {
    // Relative reproduction of the §5 claim on the structurally identical
    // demo code: the fine scaled factor at 18 iterations performs at least
    // as well as plain sign-min at 50 iterations.
    let code = demo_code();
    let base = MonteCarloConfig {
        ebn0_db: 3.5,
        max_frames: 6_000,
        target_frame_errors: 80,
        seed: 0xE5,
        threads: 0,
        transmission: Transmission::AllZero,
        ..MonteCarloConfig::default()
    };
    let mut plain_cfg = base.clone();
    plain_cfg.max_iterations = 50;
    let (ms, nms) = (
        DecoderSpec::parse("ms").unwrap(),
        DecoderSpec::parse("nms").unwrap(),
    );
    let plain = run_point_blocks(&code, None, &plain_cfg, || ms.build(&code));
    let mut scaled_cfg = base;
    scaled_cfg.max_iterations = 18;
    let scaled = run_point_blocks(&code, None, &scaled_cfg, || nms.build(&code));
    assert!(
        scaled.per() <= plain.per() * 1.25,
        "scaled 18-iter PER {} vs plain 50-iter PER {}",
        scaled.per(),
        plain.per()
    );
}

#[test]
fn iterations_trade_reliability_for_speed() {
    // The Table 1 / Figure 4 trade-off in one assertion: more iterations,
    // lower error rate; fewer iterations, higher throughput.
    let code = demo_code();
    let base = MonteCarloConfig {
        ebn0_db: 2.8,
        max_frames: 3_000,
        target_frame_errors: 0,
        seed: 0x7AB1E,
        threads: 0,
        transmission: Transmission::AllZero,
        ..MonteCarloConfig::default()
    };
    let mut cfg10 = base.clone();
    cfg10.max_iterations = 4;
    let mut cfg50 = base;
    cfg50.max_iterations = 50;
    let nms = DecoderSpec::parse("nms").unwrap();
    let few = run_point_blocks(&code, None, &cfg10, || nms.build(&code));
    let many = run_point_blocks(&code, None, &cfg50, || nms.build(&code));
    assert!(
        many.per() < few.per(),
        "50-iter PER {} should beat 4-iter PER {}",
        many.per(),
        few.per()
    );
}
