//! A5 — Ablation: power/energy trends and design-space exploration.
//!
//! Extends the paper's resource story with an order-of-magnitude power
//! model and shows the planner rediscovering the paper's two design
//! points from throughput requirements alone.

use ldpc_bench::announce;
use ldpc_core::codes::ccsds_c2;
use ldpc_hwsim::{
    estimate_power_via_simulation, plan, render_table, ArchConfig, ArchSimulator, CodeDims,
    PlannerRequest, ThroughputModel,
};

fn regenerate_a5() {
    announce("A5", "power trends and planner design points");
    let code = ccsds_c2::code();
    let info = ccsds_c2::K_INFO;
    let mut rows = Vec::new();
    for cfg in [ArchConfig::low_cost(), ArchConfig::high_speed()] {
        let sim = ArchSimulator::new(cfg.clone(), code.clone());
        let power = estimate_power_via_simulation(&sim, 18, info);
        let tp = ThroughputModel::new(cfg.clone(), CodeDims::ccsds_c2()).info_throughput_mbps(18);
        rows.push(vec![
            cfg.name.clone(),
            format!("{:.0} mW", power.total_mw()),
            format!("{:.0} mW", power.memory_dynamic_mw),
            format!("{:.2} nJ/bit", power.nj_per_info_bit(tp)),
            format!(
                "{:.1} us",
                ThroughputModel::new(cfg.clone(), CodeDims::ccsds_c2()).frame_latency_us(18)
            ),
        ]);
    }
    println!(
        "{}",
        render_table(
            "A5 — indicative power/energy/latency at 18 iterations (90 nm-era model)",
            &[
                "config",
                "total power",
                "memory power",
                "energy/bit",
                "frame latency"
            ],
            &rows,
        )
    );

    // Planner: the paper's two operating points as pure requirements.
    for (mbps, label) in [(70.0, "paper low-cost"), (560.0, "paper high-speed")] {
        let choice = plan(
            &PlannerRequest {
                min_info_mbps: mbps,
                iterations: 18,
                clock_mhz: 200.0,
            },
            &CodeDims::ccsds_c2(),
        )
        .expect("paper operating points must be plannable");
        println!(
            "planner for {label} ({mbps} Mbps): {} -> {} {} at {:.0} Mbps",
            choice.config.name, choice.device.family, choice.device.name, choice.info_mbps
        );
    }
}

fn main() {
    regenerate_a5();
}
