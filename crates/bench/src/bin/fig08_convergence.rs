//! Fig. 8: convergence rate of the leafwise trainers on HIGGS-like and
//! AIRLINE-like data (test AUC vs number of trees).
//!
//! The paper's finding: the TopK method "starts from a lower accuracy but
//! soon catches up and even gets better accuracy on both HIGGS and AIRLINE".

use harp_baselines::Baseline;
use harp_bench::{harp_params, prepared, run_config, ExpArgs, Table};
use harp_data::DatasetKind;

fn main() {
    let args = ExpArgs::parse();
    let n_trees = args.n_trees(60, 1000);
    let mut tables = Vec::new();
    for kind in [DatasetKind::HiggsLike, DatasetKind::AirlineLike] {
        let data = prepared(kind, args.data_scale(1.0, 5.0), args.seed);
        let mut table = Table::new(
            format!("Fig. 8: AUC vs trees on {} (leafwise, D8)", kind.name()),
            &["trainer", "trees", "test AUC"],
        );
        let mut finals = Vec::new();
        let mut runs: Vec<(&str, harpgbdt::TrainParams)> = vec![
            ("XGB-Leaf", Baseline::XgbLeaf.params(8, args.threads)),
            ("LightGBM", Baseline::LightGbm.params(8, args.threads)),
            ("HarpGBDT-TopK32", harp_params(8, args.threads)),
        ];
        for (name, params) in &mut runs {
            params.n_trees = n_trees;
            let res = run_config(&data, &data.quantized, params.clone(), true);
            let trace = res.output.diagnostics.trace.as_ref().expect("trace");
            // Report a geometric subsample of iterations.
            let mut next = 1usize;
            for p in trace.points() {
                if p.iteration >= next || p.iteration == n_trees {
                    table.row(vec![
                        name.to_string(),
                        p.iteration.to_string(),
                        format!("{:.4}", p.metric),
                    ]);
                    next = (next * 2).max(p.iteration + 1);
                }
            }
            finals.push(format!("{name}: best AUC {:.4}", trace.best().unwrap_or(0.5)));
        }
        table.note(finals.join(" | "));
        table.note("paper shape: TopK starts lower, catches up within tens of trees, and matches or beats top-1 leafwise");
        table.print();
        tables.push(table);
    }
    if let Some(path) = &args.out {
        let refs: Vec<&Table> = tables.iter().collect();
        Table::write_json(&refs, path).expect("write json");
    }
}
