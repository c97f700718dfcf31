//! Table I: profiling of the baseline trainers (XGB-Depth, XGB-Leaf,
//! LightGBM) on the HIGGS-like dataset.
//!
//! Software substitutes for the paper's VTune counters (DESIGN.md §4):
//! CPU utilization and barrier overhead come from the instrumented pool;
//! mean task latency replaces "average load latency"; FLOP/byte and the
//! write working set stand in for the memory-bound percentage.

use harp_baselines::Baseline;
use harp_bench::{prepared, ExpArgs, Table};
use harp_data::DatasetKind;
use harpgbdt::GbdtTrainer;

fn main() {
    let args = ExpArgs::parse();
    let data = prepared(DatasetKind::HiggsLike, args.data_scale(1.0, 10.0), args.seed);
    let n_trees = args.n_trees(5, 100);

    let mut table = Table::new(
        "Table I: profiling of XGBoost and LightGBM style baselines (D8)",
        &[
            "trainer",
            "cpu util",
            "barrier ovh",
            "regions",
            "avg task us",
            "flop/byte",
            "write ws (B)",
        ],
    );
    for baseline in Baseline::ALL {
        let mut params = baseline.params(8, args.threads);
        params.n_trees = n_trees;
        params.gamma = 0.0;
        let out = GbdtTrainer::new(params).expect("valid preset").train_store(
            &data.quantized,
            &data.train.labels,
            None,
        );
        let p = &out.diagnostics.profile;
        table.row(vec![
            baseline.name().to_string(),
            format!("{:.1}%", p.cpu_utilization * 100.0),
            format!("{:.1}%", p.barrier_overhead * 100.0),
            p.regions.to_string(),
            format!("{:.1}", p.avg_task_us),
            format!("{:.4}", p.flops_per_byte),
            format!("{:.0}", p.avg_write_working_set),
        ]);
    }
    table.note("paper (36-core Xeon, 32 threads): XGB util 13.9% / barrier 42%; LightGBM util 19.2% / barrier 23%");
    table.note("paper derives 0.0625 FLOP/byte for BuildHist; memory-bound >50% follows from it");
    table.note(format!("this run: {} threads on this host — relative ordering, not absolute values, is the reproduced shape", args.threads));
    table.print();
    if let Some(path) = &args.out {
        Table::write_json(&[&table], path).expect("write json");
    }
}
