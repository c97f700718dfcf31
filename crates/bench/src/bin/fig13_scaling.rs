//! Fig. 13: strong and weak scaling parallel efficiency on HIGGS-like data.
//!
//! Strong scaling: efficiency = T1 / (n · Tn). Weak scaling: the dataset is
//! duplicated proportionally to the thread count (the paper's protocol) and
//! efficiency = T1 / Tn. Paper shape: nobody strong-scales well on the
//! smallish HIGGS, HarpGBDT degrades slowest; weak scaling separates
//! HarpGBDT clearly.
//!
//! NOTE: on a single-core host these curves measure scheduling overhead
//! only; the barrier/region counts in the other tables are the
//! core-count-independent evidence.

use harp_baselines::Baseline;
use harp_bench::{harp_params, prepared, run_config, ExpArgs, PreparedData, Table};
use harp_data::DatasetKind;
use harpgbdt::TrainParams;

fn main() {
    let args = ExpArgs::parse();
    let n_trees = args.n_trees(3, 20);
    let threads: Vec<usize> = if args.full { vec![1, 2, 4, 8, 16, 32] } else { vec![1, 2, 4] };
    let data = prepared(DatasetKind::HiggsLike, args.data_scale(1.0, 10.0), args.seed);
    harp_bench::warmup(&data, 1);

    type ParamsFor = Box<dyn Fn(usize) -> TrainParams>;
    let systems: Vec<(&str, ParamsFor)> = vec![
        ("XGB-Leaf", Box::new(|t| Baseline::XgbLeaf.params(8, t))),
        ("LightGBM", Box::new(|t| Baseline::LightGbm.params(8, t))),
        ("HarpGBDT", Box::new(|t| harp_params(8, t))),
    ];

    // Strong scaling.
    let mut strong = Table::new(
        "Fig. 13a: strong scaling efficiency (D8)",
        &["system", "threads", "ms/tree", "efficiency"],
    );
    for (name, mk) in &systems {
        let mut t1: Option<f64> = None;
        for &t in &threads {
            let mut params = mk(t);
            params.n_trees = n_trees;
            params.gamma = 0.0;
            let res = run_config(&data, &data.quantized, params, false);
            let base = *t1.get_or_insert(res.tree_secs);
            strong.row(vec![
                name.to_string(),
                t.to_string(),
                format!("{:.2}", res.tree_secs * 1e3),
                format!("{:.1}%", base / (t as f64 * res.tree_secs) * 100.0),
            ]);
        }
    }
    strong.note("paper shape: all systems below 50% at 32 threads; HarpGBDT highest");
    strong.print();

    // Weak scaling: duplicate the dataset with the thread count.
    let mut weak = Table::new(
        "Fig. 13b: weak scaling efficiency (dataset duplicated with threads)",
        &["system", "threads", "rows", "ms/tree", "efficiency"],
    );
    for (name, mk) in &systems {
        let mut t1: Option<f64> = None;
        for &t in &threads {
            let grown = data.train.duplicated(t);
            let quantized = harp_bench::quantize_default(&grown.features);
            let grown_data =
                PreparedData { kind: data.kind, train: grown, test: data.test.clone(), quantized };
            let mut params = mk(t);
            params.n_trees = n_trees;
            params.gamma = 0.0;
            let res = run_config(&grown_data, &grown_data.quantized, params, false);
            let base = *t1.get_or_insert(res.tree_secs);
            weak.row(vec![
                name.to_string(),
                t.to_string(),
                grown_data.quantized.n_rows().to_string(),
                format!("{:.2}", res.tree_secs * 1e3),
                format!("{:.1}%", base / res.tree_secs * 100.0),
            ]);
        }
    }
    weak.note("paper shape: HarpGBDT shows significantly better weak-scaling efficiency than both baselines");
    weak.print();
    if let Some(path) = &args.out {
        Table::write_json(&[&strong, &weak], path).expect("write json");
    }
}
