//! Fig. 11: performance of the four parallelism modes over tree size
//! (SYNSET), under two row-block settings.
//!
//! Paper shape: DP wins at D8 and degrades as trees grow (replica
//! reduction scales with node count); MP scales better; SYNC beats both;
//! ASYNC scales best. At the stress size every mode except MP suffers from
//! too many tiny tasks, and enlarging row_blk_size recovers ~50% for DP
//! and ASYNC.

use harp_bench::{prepared, run_config, ExpArgs, Table};
use harp_data::DatasetKind;
use harpgbdt::{BlockConfig, GrowthMethod, ParallelMode, TrainParams};

fn main() {
    let args = ExpArgs::parse();
    let data = prepared(DatasetKind::Synset, args.data_scale(0.5, 4.0), args.seed);
    let n_trees = args.n_trees(3, 20);
    harp_bench::warmup(&data, args.threads);
    let sizes: &[u32] = if args.full { &[8, 10, 12, 14] } else { &[6, 8, 10] };
    let n_rows = data.quantized.n_rows();

    let modes = [
        (ParallelMode::DataParallel, "DP"),
        (ParallelMode::ModelParallel, "MP"),
        (ParallelMode::Sync, "SYNC"),
        (ParallelMode::Async, "ASYNC"),
    ];

    let mut tables = Vec::new();
    for (row_blk_label, row_blk) in
        [("N/T", (n_rows / args.threads).max(1)), ("4N/T", (4 * n_rows / args.threads).max(1))]
    {
        let mut table = Table::new(
            format!("Fig. 11: parallel modes over tree size (row_blk = {row_blk_label})"),
            &["mode", "D", "ms/tree", "vs DP@first"],
        );
        let mut reference: Option<f64> = None;
        for (mode, label) in modes {
            for &d in sizes {
                // Paper settings: DP uses (feature=32, node=4); others (4, 32).
                let (f_blk, n_blk) =
                    if mode == ParallelMode::DataParallel { (32, 4) } else { (4, 32) };
                let params = TrainParams {
                    mode,
                    growth: GrowthMethod::Leafwise,
                    k: 32,
                    tree_size: d,
                    n_trees,
                    n_threads: args.threads,
                    gamma: 0.0,
                    blocks: BlockConfig {
                        row_blk_size: row_blk,
                        node_blk_size: n_blk,
                        feature_blk_size: f_blk,
                        bin_blk_size: 0,
                    },
                    ..TrainParams::default()
                };
                let res = run_config(&data, &data.quantized, params, false);
                let reference = *reference.get_or_insert(res.tree_secs);
                table.row(vec![
                    label.to_string(),
                    format!("D{d}"),
                    format!("{:.2}", res.tree_secs * 1e3),
                    format!("{:.2}x", reference / res.tree_secs),
                ]);
            }
        }
        table.note("paper shape: DP best at small D then degrades; MP scales; SYNC > DP,MP; ASYNC scales best; larger row_blk recovers DP/ASYNC at the stress size");
        table.print();
        tables.push(table);
    }
    if let Some(path) = &args.out {
        let refs: Vec<&Table> = tables.iter().collect();
        Table::write_json(&refs, path).expect("write json");
    }
}
