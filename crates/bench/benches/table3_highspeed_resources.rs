//! E3 — Paper Table 3: implementation results of the high-speed decoder
//! on an Altera Stratix II EP2S180, plus the §4.2 scaling claim.

use ldpc_bench::announce;
use ldpc_hwsim::{
    render_table, ArchConfig, CodeDims, MemoryPlan, ResourceEstimate, STRATIX_II_EP2S180,
};

fn regenerate_table3() {
    announce("E3", "Table 3 (high-speed decoder on Stratix II EP2S180)");
    let dims = CodeDims::ccsds_c2();
    let cfg = ArchConfig::high_speed();
    let est = ResourceEstimate::new(&cfg, &dims);
    let u = STRATIX_II_EP2S180.utilization(&est);
    let rows = vec![
        vec![
            format!("{}k ({:.0}%)", est.aluts / 1000, u.logic_pct),
            format!("{}k ({:.0}%)", est.registers / 1000, u.register_pct),
            format!("{}kb ({:.0}%)", est.memory_bits / 1000, u.memory_pct),
        ],
        vec![
            "38k (27%)".to_owned(),
            "30k (20%)".to_owned(),
            "1300kb (20%)".to_owned(),
        ],
    ];
    println!(
        "{}",
        render_table(
            "Table 3 (row 1 = measured, row 2 = paper; memory % differs by \
             device-capacity denominator, see EXPERIMENTS.md)",
            &["ALUTs", "Registers", "Total Memory Bits"],
            &rows,
        )
    );
    println!("{}", MemoryPlan::new(&cfg, &dims));
    let lc = ResourceEstimate::new(&ArchConfig::low_cost(), &dims);
    println!(
        "\nsection 4.2 scaling: throughput x8.0, logic x{:.1}, registers x{:.1}, memory x{:.1}",
        est.aluts as f64 / lc.aluts as f64,
        est.registers as f64 / lc.registers as f64,
        est.memory_bits as f64 / lc.memory_bits as f64,
    );
}

fn main() {
    regenerate_table3();
}
