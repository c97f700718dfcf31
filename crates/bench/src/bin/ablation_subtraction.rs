//! Extra ablation (DESIGN.md §3): the parent−sibling histogram subtraction
//! trick and the candidate-histogram cache budget.
//!
//! Not a paper table — it quantifies a design decision both this
//! implementation and the original systems make: caching candidate
//! histograms lets a child histogram be derived by subtraction at the cost
//! of memory; a zero budget forces two fresh scans per split.
//!
//! Two data sets: SYNSET at D8, where nodes are large and every split
//! subtracts, and criteo-like at D10/K32, where most nodes scan fewer cells
//! than their histogram has bins and the pool declines to cache them
//! (DESIGN.md §18) — there "on" keeps most of its speed-up for a fraction
//! of the pool.
//!
//! The configs are timed interleaved, best of [`REPS`] passes: run once each
//! in sequence, host drift between the first and the last config was larger
//! than the differences the table is about. Everything but `ms/tree` is a
//! count and repeats exactly.
//!
//! Regenerate `results/ablation_subtraction.txt` with:
//! `cargo run --release -p harp-bench --bin ablation_subtraction > results/ablation_subtraction.txt`

use harp_bench::{harp_params, prepared, run_config, ExpArgs, Table};
use harp_data::DatasetKind;
use harp_metrics::gauges;
use harpgbdt::LedgerConfig;

/// Interleaved passes over the configs.
const REPS: usize = 5;

fn main() {
    let args = ExpArgs::parse();
    let n_trees = args.n_trees(3, 20);
    let datasets = [
        (DatasetKind::Synset, args.data_scale(0.5, 4.0), if args.full { 10 } else { 8 }),
        (DatasetKind::CriteoLike, args.data_scale(1.5, 4.0), 10),
    ];
    let configs = [
        ("subtraction off", false, 512usize << 20),
        ("subtraction on, 512MB cache", true, 512 << 20),
        ("subtraction on, 8MB cache", true, 8 << 20),
        ("subtraction on, no cache", true, 0),
    ];

    let mut table = Table::new(
        "Ablation: histogram subtraction and cache budget",
        &[
            "data",
            "D",
            "config",
            "ms/tree",
            "bytes read",
            "pool MB",
            "cache MB",
            "arena MB",
            "declined",
            "misses",
            "evicted",
            "speedup vs off",
        ],
    );
    for (kind, scale, d) in datasets {
        let data = prepared(kind, scale, args.seed);
        harp_bench::warmup(&data, args.threads);
        // Fastest pass of each config; its counters are the same in every pass.
        let mut best: Vec<Option<harp_bench::RunResult>> = configs.iter().map(|_| None).collect();
        for _ in 0..if args.test { 1 } else { REPS } {
            for (slot, &(_, subtraction, cache_bytes)) in best.iter_mut().zip(&configs) {
                let mut params = harp_params(d, args.threads);
                params.n_trees = n_trees;
                params.gamma = 0.0;
                params.hist_subtraction = subtraction;
                params.hist_cache_bytes = cache_bytes;
                params.ledger = LedgerConfig::enabled();
                let res = run_config(&data, &data.quantized, params, false);
                if slot.as_ref().is_none_or(|b| res.tree_secs < b.tree_secs) {
                    *slot = Some(res);
                }
            }
        }

        let base = best[0].as_ref().expect("every config ran").tree_secs;
        for (&(name, _, _), res) in configs.iter().zip(&best) {
            let res = res.as_ref().expect("every config ran");
            let profile = &res.output.diagnostics.profile;
            let ledger = res.output.diagnostics.ledger.as_ref().expect("ledger enabled");
            let mem = &ledger.records().last().expect("rounds ran").mem;
            let high_water_mb = |gauge: &str| {
                let bytes = mem.iter().find(|m| m.name == gauge).map_or(0, |m| m.high_water_bytes);
                format!("{:.1}", bytes as f64 / (1 << 20) as f64)
            };
            table.row(vec![
                kind.name().to_string(),
                d.to_string(),
                name.to_string(),
                format!("{:.2}", res.tree_secs * 1e3),
                profile.bytes_read.to_string(),
                high_water_mb(gauges::HIST_POOL),
                high_water_mb(gauges::HIST_CACHE),
                high_water_mb(gauges::SCRATCH_ARENA),
                profile.hist_cache_declined.to_string(),
                profile.hist_cache_misses.to_string(),
                profile.hist_cache_evictions.to_string(),
                format!("{:.2}x", base / res.tree_secs),
            ]);
        }
    }
    table.note("expected shape: subtraction with a sufficient cache roughly halves BuildHist byte traffic where nodes are large (synset); a zero budget degenerates to the off case (same bytes; every lookup of a node big enough to cache is a miss)");
    table.note("declined = splits of nodes with rows x columns <= total bins: never cached, not looked up, both children scanned (same in every config: the rule looks at the node, not at the budget). On criteo-like D10 they are most splits, so \"on\" reads more bytes than half of \"off\" and needs a pool several times smaller than one buffer per splittable leaf");
    table.note(format!(
        "ms/tree is the best of {REPS} interleaved passes over the four configs of a data set; the other columns are counts and gauges that repeat exactly (criteo-like D10 runs ASYNC, whose counts move by a few splits between runs)"
    ));
    table.print();
    if let Some(path) = &args.out {
        Table::write_json(&[&table], path).expect("write json");
    }
}
