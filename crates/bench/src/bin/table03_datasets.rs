//! Table III: dataset statistics (N, M, density S, bin-count CV).
//!
//! Verifies that the synthetic generators reproduce the statistical shape of
//! the paper's datasets. `N` differs by the documented laptop-scale factor;
//! `S` and `CV` should land near the paper's values. The last three columns
//! time set-up on each shape: pass 1 (cut search), pass 2 (quantization and
//! layout selection), and their sum per present cell.

use harp_bench::{ExpArgs, Table};
use harp_binning::{BinningConfig, LayoutOptions, QuantizedMatrix};
use harp_data::{DatasetKind, SynthConfig};

fn main() {
    let args = ExpArgs::parse();
    let mut table = Table::new(
        "Table III: dataset statistics (measured vs paper)",
        &[
            "dataset",
            "N",
            "M",
            "S",
            "S(paper)",
            "CV",
            "CV(paper)",
            "storage",
            "cut_s",
            "quantize_s",
            "ns/cell",
        ],
    );
    for kind in DatasetKind::ALL {
        let scale = args.data_scale(1.0, 4.0);
        let d = SynthConfig::new(kind, args.seed).with_scale(scale).generate();
        let (qm, setup) = QuantizedMatrix::from_matrix_timed(
            &d.features,
            BinningConfig::default(),
            LayoutOptions::default(),
        );
        let mapper = qm.mapper();
        let cells = d.features.n_present().max(1) as f64;
        let paper = kind.paper_stats();
        table.row(vec![
            kind.name().to_string(),
            d.n_rows().to_string(),
            d.n_features().to_string(),
            format!("{:.2}", d.features.density()),
            format!("{:.2}", paper.s),
            format!("{:.2}", mapper.bin_cv()),
            format!("{:.2}", paper.cv),
            if kind.is_sparse() { "sparse".into() } else { "dense".into() },
            format!("{:.4}", setup.cut_secs),
            format!("{:.4}", setup.quantize_secs),
            format!("{:.1}", (setup.cut_secs + setup.quantize_secs) * 1e9 / cells),
        ]);
    }
    table.note(format!(
        "paper sizes: HIGGS 10M, AIRLINE 100M, CRITEO 50M, YFCC 1M rows; \
         this run uses scale={} of the laptop defaults (DESIGN.md §4); \
         set-up ran on {} thread(s), ns/cell = (cut_s + quantize_s) / present cells",
        args.scale,
        harp_parallel::current_num_threads_hint()
    ));
    table.print();
    if let Some(path) = &args.out {
        Table::write_json(&[&table], path).expect("write json");
    }
}
