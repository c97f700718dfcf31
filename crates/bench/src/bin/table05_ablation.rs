//! Table V: performance gain of itemized optimizations (SYNSET).
//!
//! Starting from standard Model Parallelism (feature_blk=1, K=1) and
//! standard Data Parallelism (feature_blk=all, K=1), four optimizations are
//! added incrementally — +Block, +MemBuf, +K32 (with node blocks), +MixMode
//! — and the per-step training-time gain is reported, like the paper's
//! Table V. The paper's headline observation: "+Block" alone can *lose*
//! performance for DP at D8 and is recovered by "+MemBuf" — single
//! optimizations do not guarantee gains; they compose.

use harp_bench::{prepared, run_config, ExpArgs, Table};
use harp_data::DatasetKind;
use harpgbdt::{BlockConfig, GrowthMethod, ParallelMode, TrainParams};

fn main() {
    let args = ExpArgs::parse();
    let data = prepared(DatasetKind::Synset, args.data_scale(0.5, 4.0), args.seed);
    let n_trees = args.n_trees(3, 20);
    harp_bench::warmup(&data, args.threads);
    let sizes: &[u32] = if args.full { &[8, 12] } else { &[6, 9] };
    let n_rows = data.quantized.n_rows();

    let mut table = Table::new(
        "Table V: incremental optimization gains over the standard modes",
        &["mode", "D", "step", "ms/tree", "step gain"],
    );

    for (mode, label) in [(ParallelMode::ModelParallel, "MP"), (ParallelMode::DataParallel, "DP")] {
        for &d in sizes {
            let base_blocks = |f_blk: usize, n_blk: usize| BlockConfig {
                row_blk_size: (n_rows / args.threads).max(1),
                node_blk_size: n_blk,
                feature_blk_size: f_blk,
                bin_blk_size: 0,
            };
            let standard_f = if mode == ParallelMode::ModelParallel { 1 } else { 0 };
            let tuned_f = if mode == ParallelMode::ModelParallel { 4 } else { 32 };
            let mut params = TrainParams {
                mode,
                growth: GrowthMethod::Leafwise,
                k: 1,
                tree_size: d,
                n_trees,
                n_threads: args.threads,
                gamma: 0.0,
                use_membuf: false,
                blocks: base_blocks(standard_f, 1),
                ..TrainParams::default()
            };
            // Each step mutates the previous configuration, like the paper.
            type Step = Box<dyn Fn(&mut TrainParams)>;
            let steps: Vec<(&str, Step)> = vec![
                ("baseline", Box::new(|_| {})),
                ("+Block", Box::new(move |p| p.blocks.feature_blk_size = tuned_f)),
                ("+MemBuf", Box::new(|p| p.use_membuf = true)),
                (
                    "+K32",
                    Box::new(move |p| {
                        p.k = 32;
                        p.blocks.node_blk_size =
                            if p.mode == ParallelMode::ModelParallel { 32 } else { 4 };
                    }),
                ),
                (
                    "+MixMode",
                    Box::new(move |p| {
                        p.mode = if d <= 8 { ParallelMode::Sync } else { ParallelMode::Async };
                    }),
                ),
            ];
            let mut prev: Option<f64> = None;
            for (name, apply) in steps {
                apply(&mut params);
                let res = run_config(&data, &data.quantized, params.clone(), false);
                let gain = prev.map_or("-".to_string(), |p: f64| {
                    format!("{:+.0}%", (p / res.tree_secs - 1.0) * 100.0)
                });
                prev = Some(res.tree_secs);
                table.row(vec![
                    label.to_string(),
                    format!("D{d}"),
                    name.to_string(),
                    format!("{:.2}", res.tree_secs * 1e3),
                    gain,
                ]);
            }
        }
    }
    table.note("paper (36-core): MP D8 +104/+14/+60/+8%; MP D12 +146/+22/+51/+48%; DP D8 -13/+16/+77/+4%; DP D12 +170/+2/+28/+96%");
    table.note("the reproduced shape is the composition effect, not the absolute percentages (different core count)");
    table.print();
    if let Some(path) = &args.out {
        Table::write_json(&[&table], path).expect("write json");
    }
}
