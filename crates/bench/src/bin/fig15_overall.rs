//! Fig. 15 + §V-F: overall training-time and convergence speedup of
//! HarpGBDT over the XGBoost and LightGBM baselines on all four datasets.
//!
//! Paper headline: on average HarpGBDT is 8.7x faster in training time and
//! 8.5x in convergence than XGBoost, 3x / 2.6x than LightGBM; >10x over
//! XGBoost on the fat YFCC matrix; CRITEO's response-encoded feature makes
//! leafwise trees very deep.

use harp_baselines::Baseline;
use harp_bench::{harp_params_for, prepared, run_config, ExpArgs, RunResult, Table};
use harp_data::DatasetKind;

fn main() {
    let args = ExpArgs::parse();
    let n_trees = args.n_trees(12, 100);
    let sizes: &[u32] = if args.full { &[8, 12, 16] } else { &[4, 6, 8] };
    let kinds = [
        DatasetKind::HiggsLike,
        DatasetKind::AirlineLike,
        DatasetKind::CriteoLike,
        DatasetKind::YfccLike,
    ];

    let mut time_table = Table::new(
        "Fig. 15: training-time speedup of HarpGBDT",
        &["dataset", "D", "Harp ms/tree", "vs XGB", "vs LightGBM", "sync reduction"],
    );
    let mut conv_table = Table::new(
        "S V-F: convergence speedup of HarpGBDT (time to the shared best AUC)",
        &["dataset", "D", "Harp best AUC", "conv vs XGB", "conv vs LightGBM"],
    );

    let mut time_ratios: Vec<(f64, f64)> = Vec::new();
    let mut conv_ratios: Vec<(f64, f64)> = Vec::new();

    for kind in kinds {
        let data = prepared(kind, args.data_scale(1.0, 5.0), args.seed);
        harp_bench::warmup(&data, args.threads);
        for &d in sizes {
            let run = |mut params: harpgbdt::TrainParams| -> RunResult {
                params.n_trees = n_trees;
                run_config(&data, &data.quantized, params, true)
            };
            let xgb = run(Baseline::XgbLeaf.params(d, args.threads));
            let lgbm = run(Baseline::LightGbm.params(d, args.threads));
            let harp = run(harp_params_for(&data, d, args.threads));

            let t_xgb = xgb.tree_secs / harp.tree_secs;
            let t_lgb = lgbm.tree_secs / harp.tree_secs;
            time_ratios.push((t_xgb, t_lgb));
            // Fork/join regions per run: the core-count-independent driver
            // of the paper's speedups (barriers eliminated by TopK+blocks).
            let sync_ratio = xgb.output.diagnostics.profile.regions as f64
                / harp.output.diagnostics.profile.regions.max(1) as f64;
            time_table.row(vec![
                kind.name().to_string(),
                format!("D{d}"),
                format!("{:.2}", harp.tree_secs * 1e3),
                format!("{t_xgb:.2}x"),
                format!("{t_lgb:.2}x"),
                format!("{sync_ratio:.0}x"),
            ]);

            let harp_trace = harp.output.diagnostics.trace.as_ref().expect("trace");
            let conv = |other: &RunResult| -> Option<f64> {
                other
                    .output
                    .diagnostics
                    .trace
                    .as_ref()
                    .and_then(|t| t.convergence_speedup_vs(harp_trace))
            };
            let c_xgb = conv(&xgb);
            let c_lgb = conv(&lgbm);
            if let (Some(a), Some(b)) = (c_xgb, c_lgb) {
                conv_ratios.push((a, b));
            }
            conv_table.row(vec![
                kind.name().to_string(),
                format!("D{d}"),
                format!("{:.4}", harp_trace.best().unwrap_or(0.5)),
                c_xgb.map_or("-".into(), |x| format!("{x:.2}x")),
                c_lgb.map_or("-".into(), |x| format!("{x:.2}x")),
            ]);
        }
    }

    let geo = |v: &[f64]| -> f64 {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len().max(1) as f64).exp()
    };
    let tx: Vec<f64> = time_ratios.iter().map(|r| r.0).collect();
    let tl: Vec<f64> = time_ratios.iter().map(|r| r.1).collect();
    time_table.note(format!(
        "geometric mean speedup: {:.2}x vs XGB, {:.2}x vs LightGBM (paper: 8.7x / 3x on 36 cores)",
        geo(&tx),
        geo(&tl)
    ));
    time_table.note(
        "on hosts with few cores the wall-clock ratios converge to ~1x by construction; \
         the `sync reduction` column (barriers eliminated) is the portable evidence",
    );
    time_table.print();
    let cx: Vec<f64> = conv_ratios.iter().map(|r| r.0).collect();
    let cl: Vec<f64> = conv_ratios.iter().map(|r| r.1).collect();
    conv_table.note(format!(
        "geometric mean convergence speedup: {:.2}x vs XGB, {:.2}x vs LightGBM (paper: 8.5x / 2.6x)",
        geo(&cx),
        geo(&cl)
    ));
    conv_table.print();
    if let Some(path) = &args.out {
        Table::write_json(&[&time_table, &conv_table], path).expect("write json");
    }
}
