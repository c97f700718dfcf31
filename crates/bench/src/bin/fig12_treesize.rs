//! Fig. 12: trend of training time over tree size on HIGGS-like data —
//! the three systems plus HarpGBDT. Paper shape: HarpGBDT's per-tree time
//! grows far more slowly with D than the leaf-by-leaf baselines.

use harp_baselines::Baseline;
use harp_bench::{harp_params, prepared, run_config, ExpArgs, Table};
use harp_data::DatasetKind;

fn main() {
    let args = ExpArgs::parse();
    let data = prepared(DatasetKind::HiggsLike, args.data_scale(1.0, 10.0), args.seed);
    let n_trees = args.n_trees(5, 100);
    harp_bench::warmup(&data, args.threads);
    let sizes: &[u32] = if args.full { &[8, 10, 12, 14] } else { &[6, 8, 10] };

    let mut table = Table::new(
        "Fig. 12: training time (ms/tree) over tree size",
        &["system", "D", "ms/tree", "leaves/tree", "growth vs first D"],
    );
    let mut harp_rows: Vec<(u32, f64)> = Vec::new();
    let mut base_rows: Vec<(String, u32, f64)> = Vec::new();

    for &d in sizes {
        for baseline in Baseline::ALL {
            let mut params = baseline.params(d, args.threads);
            params.n_trees = n_trees;
            params.gamma = 0.0;
            let res = run_config(&data, &data.quantized, params, false);
            base_rows.push((baseline.name().to_string(), d, res.tree_secs));
            push_row(
                &mut table,
                baseline.name(),
                d,
                &res,
                base_rows
                    .iter()
                    .find(|(n, dd, _)| n == baseline.name() && *dd == sizes[0])
                    .map(|r| r.2),
            );
        }
        let mut params = harp_params(d, args.threads);
        params.n_trees = n_trees;
        params.gamma = 0.0;
        let res = run_config(&data, &data.quantized, params, false);
        let first = harp_rows.first().map(|r| r.1);
        harp_rows.push((d, res.tree_secs));
        push_row(&mut table, "HarpGBDT", d, &res, first);
    }
    table.note("paper shape: baselines grow ~O(2^D); HarpGBDT grows sub-exponentially and wins by up to 27x at large D");
    table.print();
    if let Some(path) = &args.out {
        Table::write_json(&[&table], path).expect("write json");
    }
}

fn push_row(
    table: &mut harp_bench::Table,
    name: &str,
    d: u32,
    res: &harp_bench::RunResult,
    first: Option<f64>,
) {
    let shapes = &res.output.diagnostics.tree_shapes;
    let avg_leaves: f64 =
        shapes.iter().map(|s| s.n_leaves as f64).sum::<f64>() / shapes.len().max(1) as f64;
    table.row(vec![
        name.to_string(),
        format!("D{d}"),
        format!("{:.2}", res.tree_secs * 1e3),
        format!("{avg_leaves:.0}"),
        first.map_or("1.00x".into(), |f| format!("{:.2}x", res.tree_secs / f)),
    ]);
}
