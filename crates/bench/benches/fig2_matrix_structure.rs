//! E6/E7 — Paper Figures 1 and 2: the Tanner graph and the scatter
//! structure of the CCSDS C2 parity-check matrix.

use ldpc_bench::announce;
use ldpc_core::codes::ccsds_c2;
use ldpc_hwsim::render_table;

fn regenerate_fig2() {
    announce(
        "E6/E7",
        "Figures 1-2 (parity-check matrix and Tanner graph structure)",
    );
    let code = ccsds_c2::code();
    let h = code.h();
    let graph = code.graph();
    let col_w = h.col_weights();
    let rows = vec![
        vec![
            "size".into(),
            format!("{} x {}", h.rows(), h.cols()),
            "1022 x 8176".into(),
        ],
        vec![
            "ones (edges)".into(),
            h.nnz().to_string(),
            "32704 (2x16x511x2)".into(),
        ],
        vec![
            "row weight".into(),
            format!("{} (all rows)", h.row_weight(0)),
            "32".into(),
        ],
        vec![
            "column weight".into(),
            format!("{} (all cols)", col_w[0]),
            "4".into(),
        ],
        vec![
            "rank(H)".into(),
            code.rank().to_string(),
            "1020 -> (8176,7156)".into(),
        ],
        vec![
            "girth (sampled)".into(),
            format!("{:?}", graph.girth_from(&[0, 511, 1022, 4088, 8175])),
            ">= 6 (no 4-cycles)".into(),
        ],
    ];
    println!(
        "{}",
        render_table(
            "Figure 2 structure (measured vs paper section 2.2)",
            &["property", "measured", "paper"],
            &rows,
        )
    );
    // A small corner of the scatter chart: the first rows of each block row.
    println!("scatter sample (row: column positions of ones)");
    for r in [0usize, 1, 511, 512] {
        let cols: Vec<u32> = h.row(r).to_vec();
        println!("  row {r:4}: {cols:?}");
    }
}

fn main() {
    regenerate_fig2();
}
