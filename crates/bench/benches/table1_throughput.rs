//! E1 — Paper Table 1: number of iterations vs output data rate of the
//! low-cost and high-speed decoders at a 200 MHz system clock.

use ldpc_bench::announce;
use ldpc_hwsim::{render_table, ArchConfig, CodeDims, ThroughputModel};

fn regenerate_table1() {
    announce("E1", "Table 1 (iterations vs output throughput, 200 MHz)");
    let dims = CodeDims::ccsds_c2();
    let lc = ThroughputModel::new(ArchConfig::low_cost(), dims);
    let hs = ThroughputModel::new(ArchConfig::high_speed(), dims);
    let paper = [
        (10u32, 130.0, 1040.0),
        (18u32, 70.0, 560.0),
        (50u32, 25.0, 200.0),
    ];
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(iters, p_lc, p_hs)| {
            vec![
                iters.to_string(),
                format!("{:.0}", lc.info_throughput_mbps(iters)),
                format!("{p_lc:.0}"),
                format!("{:.0}", hs.info_throughput_mbps(iters)),
                format!("{p_hs:.0}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Table 1 (measured vs paper, Mbps)",
            &["iterations", "low-cost", "paper", "high-speed", "paper"],
            &rows,
        )
    );
    println!(
        "cycles per iteration: {} (both presets)",
        lc.iteration_cycles()
    );
}

fn main() {
    regenerate_table1();
}
