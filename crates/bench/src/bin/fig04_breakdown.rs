//! Fig. 4: trend of training-time breakdown over tree size (baselines).
//!
//! Per-tree time of the three core functions — BuildHist, FindSplit,
//! ApplySplit — for XGB-Depth, XGB-Leaf and LightGBM, normalized over the
//! smallest tree size. The paper's finding: BuildHist grows ~O(2^D) in the
//! baselines although the serial algorithm predicts O(D) for depthwise —
//! the gap is parallelization overhead from leaf-by-leaf scheduling.

use harp_baselines::Baseline;
use harp_bench::{prepared, ExpArgs, Table};
use harp_data::DatasetKind;
use harpgbdt::GbdtTrainer;

fn main() {
    let args = ExpArgs::parse();
    let data = prepared(DatasetKind::HiggsLike, args.data_scale(1.0, 10.0), args.seed);
    let n_trees = args.n_trees(5, 100);
    let sizes: &[u32] = if args.full { &[8, 10, 12] } else { &[6, 8, 10] };

    let mut table = Table::new(
        "Fig. 4: per-tree time breakdown over tree size (normalized to the smallest D)",
        &[
            "trainer",
            "D",
            "BuildHist ms",
            "FindSplit ms",
            "ApplySplit ms",
            "BH norm",
            "FS norm",
            "AS norm",
        ],
    );

    for baseline in Baseline::ALL {
        let mut base: Option<(f64, f64, f64)> = None;
        for &d in sizes {
            let mut params = baseline.params(d, args.threads);
            params.n_trees = n_trees;
            // The scaled-down dataset needs gamma=0 for trees to actually
            // reach 2^D leaves (the paper's 10M-row HIGGS provides enough
            // gain mass at gamma=1).
            params.gamma = 0.0;
            let out = GbdtTrainer::new(params).expect("valid preset").train_store(
                &data.quantized,
                &data.train.labels,
                None,
            );
            let bd = &out.diagnostics.breakdown;
            let per_tree = |secs: f64| secs / n_trees as f64;
            let (bh, fs, asp) = (
                per_tree(bd.build_hist_secs),
                per_tree(bd.find_split_secs),
                per_tree(bd.apply_split_secs),
            );
            let (b0, f0, a0) = *base.get_or_insert((bh, fs, asp));
            table.row(vec![
                baseline.name().to_string(),
                format!("D{d}"),
                format!("{:.2}", bh * 1e3),
                format!("{:.2}", fs * 1e3),
                format!("{:.2}", asp * 1e3),
                format!("{:.2}", bh / b0),
                format!("{:.2}", fs / f0),
                format!("{:.2}", asp / a0),
            ]);
        }
    }
    table.note("paper shape: BuildHist norm grows ~4x per +2 tree-size steps (O(2^D)) for all three baselines");
    table.note("paper shape: FindSplit is exponential in D by complexity (O(MB*2^D))");
    table.print();
    if let Some(path) = &args.out {
        Table::write_json(&[&table], path).expect("write json");
    }
}
