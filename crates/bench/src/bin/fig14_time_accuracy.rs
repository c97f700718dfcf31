//! Fig. 14: accuracy (test AUC) versus wall-clock training time on
//! HIGGS-like data, at a small and a large tree size.
//!
//! Paper shape: at D8 LightGBM is ~2x slower per tree than HarpGBDT but
//! finishes with lower accuracy at roughly the same time; at D12 HarpGBDT
//! both converges and finishes much faster.

use harp_baselines::Baseline;
use harp_bench::{harp_params, prepared, run_config, ExpArgs, Table};
use harp_data::DatasetKind;

fn main() {
    let args = ExpArgs::parse();
    let data = prepared(DatasetKind::HiggsLike, args.data_scale(1.0, 10.0), args.seed);
    let n_trees = args.n_trees(40, 1000);
    let sizes: &[u32] = if args.full { &[8, 12] } else { &[6, 9] };

    let mut tables = Vec::new();
    for &d in sizes {
        let mut table = Table::new(
            format!("Fig. 14: AUC vs training time, D{d}"),
            &["system", "trees", "time (s)", "test AUC"],
        );
        let mut runs = vec![
            ("XGB-Leaf", Baseline::XgbLeaf.params(d, args.threads)),
            ("LightGBM", Baseline::LightGbm.params(d, args.threads)),
            ("HarpGBDT", harp_params(d, args.threads)),
        ];
        let mut summary = Vec::new();
        for (name, params) in &mut runs {
            params.n_trees = n_trees;
            let res = run_config(&data, &data.quantized, params.clone(), true);
            let trace = res.output.diagnostics.trace.as_ref().expect("trace");
            let mut next = 1usize;
            for p in trace.points() {
                if p.iteration >= next || p.iteration == n_trees {
                    table.row(vec![
                        name.to_string(),
                        p.iteration.to_string(),
                        format!("{:.3}", p.elapsed_secs),
                        format!("{:.4}", p.metric),
                    ]);
                    next = (next * 2).max(p.iteration + 1);
                }
            }
            summary.push(format!(
                "{name}: best AUC {:.4} in {:.2}s total",
                trace.best().unwrap_or(0.5),
                trace.total_time()
            ));
        }
        table.note(summary.join(" | "));
        table.print();
        tables.push(table);
    }
    if let Some(path) = &args.out {
        let refs: Vec<&Table> = tables.iter().collect();
        Table::write_json(&refs, path).expect("write json");
    }
}
