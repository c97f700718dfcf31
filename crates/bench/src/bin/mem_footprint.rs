//! Per-mode training memory footprint from the run-ledger memory gauges.
//!
//! Reproduces the paper's Table V argument in byte terms: MemBuf trades a
//! fixed second gradient plane for contiguous BuildHist reads, and the DP replica
//! arena — not MemBuf — is what scales with thread count and tree size.
//! Trains each parallel mode with MemBuf on and off at a small scale (D8,
//! plus one D10 run per mode, where the histogram pool is what grows), then
//! reads the high-water marks off the final ledger record. A second,
//! criteo-like data set at D10/K32 is TopK's other regime — a thousand
//! leaves of a few dozen rows — where pool and arena follow the rows of a
//! node, not the histogram width (DESIGN.md §11, §18). A third, yfcc-like
//! set (4 096 CSR features) is the width-bound regime: under MP and SYNC's
//! Exclusive batches a full-width histogram exists only where a subtraction
//! will read it, everything else lives in a per-worker tile pair, while DP
//! still holds one buffer per job of a batch.
//!
//! Regenerate `results/mem_footprint.txt` with:
//! `cargo run --release -p harp-bench --bin mem_footprint > results/mem_footprint.txt`

use harp_bench::{prepared, ExpArgs, Table};
use harp_data::DatasetKind;
use harp_metrics::{gauges, MemGaugeRecord};
use harpgbdt::trainer::GbdtTrainer;
use harpgbdt::{
    BinningConfig, BlockConfig, GrowthMethod, LedgerConfig, ParallelMode, QuantizedMatrix,
    TrainParams,
};

fn kb(mem: &[MemGaugeRecord], name: &str) -> f64 {
    mem.iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.high_water_bytes as f64 / 1024.0)
}

fn main() {
    let args = ExpArgs::parse();
    let n_trees = args.n_trees(5, 20);
    let modes = [
        (ParallelMode::DataParallel, "DP"),
        (ParallelMode::ModelParallel, "MP"),
        (ParallelMode::Sync, "SYNC"),
        (ParallelMode::Async, "ASYNC"),
    ];
    // The MP blocks of the paper's fat-matrix runs (§IV-C): with
    // `feature_blk = 0` a tile would be the whole histogram.
    let fat = BlockConfig { node_blk_size: 8, feature_blk_size: 32, ..BlockConfig::default() };
    // (data, scale, (D, membuf) runs, modes, blocks, bins per feature).
    let datasets = [
        (
            DatasetKind::HiggsLike,
            args.data_scale(2.0, 8.0),
            &[(8, true), (8, false), (10, true)][..],
            &modes[..],
            BlockConfig::default(),
            None,
        ),
        (
            DatasetKind::CriteoLike,
            args.data_scale(1.5, 4.0),
            &[(10, true)][..],
            &modes[..],
            BlockConfig::default(),
            None,
        ),
        // 32 bins keep a node histogram at 2 MB (it is 16 MB at the default
        // 255): DP's D6 batches hold some fifty of them.
        (
            DatasetKind::YfccLike,
            args.data_scale(1.0, 3.0),
            &[(4, true), (6, true)][..],
            &modes[..3],
            fat,
            Some(32),
        ),
    ];
    let mut table = Table::new(
        format!("Training memory high-water by mode ({} threads, KB)", args.threads),
        &[
            "data",
            "rows",
            "mode",
            "D",
            "membuf",
            "leaves",
            "declined",
            "quant store",
            "hist pool",
            "hist cache",
            "replicas",
            "membuf buf",
            "partition",
            "total",
        ],
    );
    for (kind, scale, runs, modes, blocks, max_bins) in datasets {
        let mut data = prepared(kind, scale, args.seed);
        if let Some(max_bins) = max_bins {
            data.quantized = QuantizedMatrix::from_matrix(
                &data.train.features,
                BinningConfig::with_max_bins(max_bins),
            );
        }
        harp_bench::warmup(&data, args.threads);
        for &(mode, label) in modes {
            for &(tree_size, use_membuf) in runs {
                let params = TrainParams {
                    mode,
                    growth: GrowthMethod::Leafwise,
                    k: 32,
                    tree_size,
                    n_trees,
                    n_threads: args.threads,
                    use_membuf,
                    // Scaled-down data: let every positive gain split, so trees
                    // grow towards their leaf budget.
                    gamma: 0.0,
                    ledger: LedgerConfig::enabled(),
                    blocks,
                    ..TrainParams::default()
                };
                let trainer = GbdtTrainer::new(params).expect("valid params");
                let out = trainer.train_store(&data.quantized, &data.train.labels, None);
                let shapes = &out.diagnostics.tree_shapes;
                let mean_leaves =
                    shapes.iter().map(|s| f64::from(s.n_leaves)).sum::<f64>() / shapes.len() as f64;
                let profile = &out.diagnostics.profile;
                let pops = profile.hist_cache_hits + profile.hist_cache_declined;
                let ledger = out.diagnostics.ledger.expect("ledger enabled");
                let mem = &ledger.records().last().expect("rounds ran").mem;
                let total: f64 = mem.iter().map(|m| m.high_water_bytes as f64 / 1024.0).sum();
                table.row(vec![
                    kind.name().to_string(),
                    data.quantized.n_rows().to_string(),
                    label.to_string(),
                    tree_size.to_string(),
                    if use_membuf { "on" } else { "off" }.to_string(),
                    format!("{mean_leaves:.0}"),
                    format!(
                        "{:.0}%",
                        100.0 * profile.hist_cache_declined as f64 / pops.max(1) as f64
                    ),
                    format!("{:.0}", kb(mem, gauges::QUANT_STORE)),
                    format!("{:.0}", kb(mem, gauges::HIST_POOL)),
                    format!("{:.0}", kb(mem, gauges::HIST_CACHE)),
                    format!("{:.0}", kb(mem, gauges::SCRATCH_ARENA)),
                    format!("{:.0}", kb(mem, gauges::MEMBUF)),
                    format!("{:.0}", kb(mem, gauges::PARTITION)),
                    format!("{:.0}", total),
                ]);
            }
        }
    }
    table.note(
        "high-water bytes from the run-ledger memory gauges (final round record); \
         membuf buf = the gradient halves of the partition's two planes, 2 x n_rows x 8 B, \
         constant across modes; partition = their row-id halves (2 x 4 B), the routing mask \
         (1 B) and, with MemBuf off, the one row-ordered gradient array (8 B) per row, plus \
         the span and batch-task tables — there is no other gradient copy",
    );
    table.note(
        "quant store = the quantized matrix itself (row/col/u4/bundled/CSC storage), \
         the dominant allocation; under --external-memory the chunk_resident gauge \
         replaces it with the budget-capped resident-chunk high-water",
    );
    table.note(
        "hist pool = every histogram buffer the trainer ever allocated (cached + in flight + \
         free); the cache keeps at most min(splittable leaves, leaves left to spend) of them, \
         and only of nodes with rows x stored cells per row > total bins — declined = the \
         share of splits whose node was below that and had both children scanned instead \
         (DESIGN.md §18)",
    );
    table.note(
        "replicas also counts the tile pairs of the Exclusive executor (MP, SYNC's middle \
         phase): one per worker, 2 x the widest feature block's lanes — the whole histogram \
         under the default feature_blk = 0, 2 x 32 features on the yfcc-like rows (node_blk 8, \
         feature_blk 32, 32 bins per feature) — where every child that cannot be filed is \
         built, searched and dropped (DESIGN.md §11)",
    );
    table.note(
        "paper Table V: the replica arena is the mode-dependent cost, but it holds lanes only \
         for the jobs of a batch that span several row blocks — fewer than there are threads — \
         so it no longer grows with K or with tree size (DESIGN.md §11); MemBuf's copy is flat \
         and predictable",
    );
    table.print();
    if let Some(path) = &args.out {
        Table::write_json(&[&table], path).expect("write json");
    }
}
