//! E2 — Paper Table 2: implementation results of the low-cost decoder on
//! an Altera Cyclone II EP2C50F.

use ldpc_bench::announce;
use ldpc_hwsim::{
    render_table, ArchConfig, CodeDims, MemoryPlan, ResourceEstimate, CYCLONE_II_EP2C50,
};

fn regenerate_table2() {
    announce("E2", "Table 2 (low-cost decoder on Cyclone II EP2C50F)");
    let dims = CodeDims::ccsds_c2();
    let cfg = ArchConfig::low_cost();
    let est = ResourceEstimate::new(&cfg, &dims);
    let u = CYCLONE_II_EP2C50.utilization(&est);
    let rows = vec![
        vec![
            format!("{}k ({:.0}%)", est.aluts / 1000, u.logic_pct),
            format!("{}k ({:.0}%)", est.registers / 1000, u.register_pct),
            format!("{}k ({:.0}%)", est.memory_bits / 1000, u.memory_pct),
        ],
        vec![
            "8k (16%)".to_owned(),
            "6k (12%)".to_owned(),
            "290k (50%)".to_owned(),
        ],
    ];
    println!(
        "{}",
        render_table(
            "Table 2 (row 1 = measured, row 2 = paper)",
            &["ALUTs", "Registers", "Total Memory Bits"],
            &rows,
        )
    );
    println!("{}", MemoryPlan::new(&cfg, &dims));
}

fn main() {
    regenerate_table2();
}
