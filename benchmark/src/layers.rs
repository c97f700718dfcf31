//! The traced pass: per-layer metrics, measured from outside.
//!
//! Every layer is timed through its public functions. The first three
//! metrics are the times a user of the trainer sees — ms per tree, training
//! rows per second, scoring rows per second — which the shared reference
//! host cannot hold steady enough to bound (`e2e`). Two more kinds of number:
//! *probes* replay one function on the workload's own root node until
//! [`PROBE_SECONDS`] have passed and report the median call; *reported*
//! numbers are read from the trainer's public `Diagnostics` (phase
//! breakdown, pool profile, run ledger). Each call is also a span, written
//! to `out/trace_<workload>.json` when the pass ends.

use crate::e2e::{check_rounds, head_rows, scoring_sample, PREDICT_ROWS};
use crate::host::{triad, Fingerprint};
use crate::report::{Metric, Ops};
use crate::spans::{chrome_trace, self_times_ns, Recorder};
use crate::stats::{median, percentile};
use crate::workloads::{Prepared, RawData, Workload};
use harp_baselines::Baseline;
use harp_binning::{QuantStore, MISSING_BIN};
use harp_metrics::gauges;
use harp_parallel::{SpinMutex, ThreadPool, WorkQueue};
use harpgbdt::hist::{hist_width_for, reduce_into, subtract, zero};
use harpgbdt::kernels::{row_scan_root_store, row_scan_store, GradSource, BYTES_PER_CELL};
use harpgbdt::loss::GradPair;
use harpgbdt::partition::RowPartition;
use harpgbdt::split::{find_split_range, SplitSettings};
use harpgbdt::{
    Accumulation, BatchShape, BlockPlan, GbdtModel, GbdtTrainer, NodeStats, ObjectiveSpec,
    ParallelMode, Predictor, ScanLayout, TrainOutput, TrainParams,
};
use std::time::Instant;

/// Least wall time one probe replays its function for.
const PROBE_SECONDS: f64 = 0.2;
/// Raw rows the serial scoring probe covers per call.
const PREDICT_PROBE_ROWS: usize = 50_000;
/// Untraced training calls the timing metrics are reduced from. Interference
/// on a shared host only ever adds time and comes in bursts, so a boosting
/// round counts at the best of its repetitions, and many short calls beat
/// one long one: what matters is that every round meets one quiet moment.
const TIMED_CALLS: usize = 6;

/// Every per-layer metric the pass emits: `(name, unit, better)`, in output
/// order. `BENCHMARK.json` lists the same names.
pub const METRICS: &[(&str, &str, &str)] = &[
    ("train_ms_per_tree_p50", "ms", "lower"),
    ("train_rows_per_s", "rows/s", "higher"),
    ("predict_rows_per_s", "rows/s", "higher"),
    ("data.generate_s", "s", "lower"),
    ("data.split_s", "s", "lower"),
    ("data.generate_rows_per_s", "rows/s", "higher"),
    ("binning.quantize_s", "s", "lower"),
    ("binning.quantize_rows_per_s", "rows/s", "higher"),
    ("binning.total_bins", "count", "lower"),
    ("binning.storage_mb", "MB", "lower"),
    ("binning.cache_write_s", "s", "lower"),
    ("binning.cache_open_s", "s", "lower"),
    ("binning.chunk_pin_miss_us", "us", "lower"),
    ("binning.chunk_pin_hit_ns", "ns", "lower"),
    ("binning.chunk_loads_per_tree", "count", "lower"),
    ("binning.chunk_evictions_per_tree", "count", "lower"),
    ("binning.chunk_prefetch_hit_ratio", "ratio", "higher"),
    ("parallel.region_ns", "ns", "lower"),
    ("parallel.region_ns_oversub4x", "ns", "lower"),
    ("parallel.queue_push_pop_ns", "ns", "lower"),
    ("parallel.spin_lock_ns", "ns", "lower"),
    ("parallel.barrier_wait_share", "ratio", "lower"),
    ("parallel.regions_per_tree", "count", "lower"),
    ("parallel.tasks_per_tree", "count", "lower"),
    ("parallel.speedup_vs_1t", "ratio", "higher"),
    ("parallel.oversub4x_slowdown", "ratio", "lower"),
    ("core.objective.gradients_ns_per_row", "ns/row", "lower"),
    ("core.kernels.row_scan_root_ns_per_cell", "ns/cell", "lower"),
    ("core.kernels.row_scan_node_ns_per_cell", "ns/cell", "lower"),
    ("core.kernels.row_scan_gbps", "GB/s", "higher"),
    ("core.kernels.simd_tier", "tier", "higher"),
    ("core.hist.zero_gbps", "GB/s", "higher"),
    ("core.hist.reduce_gbps", "GB/s", "higher"),
    ("core.hist.subtract_gbps", "GB/s", "higher"),
    ("core.hist.width_mb", "MB", "lower"),
    ("core.hist.cache_hit_ratio", "ratio", "higher"),
    ("core.hist.pool_high_water_mb", "MB", "lower"),
    ("core.split.find_split_ns_per_bin", "ns/bin", "lower"),
    ("core.split.find_split_root_us", "us", "lower"),
    ("core.partition.apply_split_ns_per_row", "ns/row", "lower"),
    ("core.partition.apply_split_par_ns_per_row", "ns/row", "lower"),
    ("core.plan.rebuild_ns_per_task", "ns/task", "lower"),
    ("core.plan.tasks_per_tree", "count", "lower"),
    ("core.trainer.build_hist_share", "ratio", "lower"),
    ("core.trainer.find_split_share", "ratio", "lower"),
    ("core.trainer.apply_split_share", "ratio", "lower"),
    ("core.trainer.other_share", "ratio", "lower"),
    ("core.trainer.unattributed_share", "ratio", "lower"),
    ("core.trainer.phase_sum_over_wall", "ratio", "lower"),
    ("core.trainer.ms_per_tree_p90", "ms", "lower"),
    ("core.trainer.first_tree_ms", "ms", "lower"),
    ("core.trainer.leaves_per_tree", "count", "higher"),
    ("core.trainer.bytes_read_per_row", "B/row", "lower"),
    ("core.trainer.flops_per_row", "flop/row", "lower"),
    ("core.trainer.trace_overhead", "ratio", "lower"),
    ("core.predict.compile_ms", "ms", "lower"),
    ("core.predict.ns_per_row_tree", "ns", "lower"),
    ("core.predict.binned_ns_per_row_tree", "ns", "lower"),
    ("metrics.auc_ns_per_row", "ns/row", "lower"),
    ("baselines.xgb_leaf_ms_per_tree", "ms", "lower"),
    ("baselines.lightgbm_ms_per_tree", "ms", "lower"),
    ("baselines.harp_speedup_vs_xgb", "ratio", "higher"),
    ("baselines.harp_speedup_vs_lightgbm", "ratio", "higher"),
    ("host.nproc", "cores", "higher"),
    ("host.threads", "count", "higher"),
    ("host.cpu_quota", "cores", "higher"),
    ("host.triad_gbps", "GB/s", "higher"),
];

fn secs_of(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

const MIB: f64 = (1u64 << 20) as f64;

/// Quiet-host ms per tree over the first `rounds` rounds of a run: the
/// 10th percentile. Two runs are compared over the same rounds, so this
/// compares the same trees at their least disturbed; on a shared host a
/// median moves with the neighbours between one run and the next.
fn ms_per_tree(out: &TrainOutput, rounds: usize) -> f64 {
    let secs = &out.diagnostics.per_tree_secs;
    percentile(&secs[..rounds.min(secs.len())], 0.1) * 1e3
}

/// The full-length training runs of the pass.
struct Runs {
    /// The last of the [`TIMED_CALLS`]: tracing and ledger off.
    plain: TrainOutput,
    /// Wall seconds of `plain`'s whole `train_store` call.
    plain_wall: f64,
    /// Seconds of each round at the best of its [`TIMED_CALLS`] repetitions.
    best_round_secs: Vec<f64>,
    /// `TrainParams::{trace, ledger}` on.
    traced: TrainOutput,
}

/// One traced pass: the span recorder plus the values and ops it collects.
struct Pass<'a> {
    w: &'a Workload,
    fp: &'a Fingerprint,
    /// Rounds of a full-length training call.
    rounds: usize,
    rec: Recorder,
    /// `(name, value)` pairs; emitted in [`METRICS`] order.
    values: Vec<(&'static str, f64)>,
    ops: Ops,
}

pub fn run(w: &Workload, fp: &Fingerprint, seconds: u64) -> (Vec<Metric>, Ops) {
    let mut pass = Pass {
        w,
        fp,
        rounds: w.rounds_for(seconds),
        rec: Recorder::new(true),
        values: Vec::new(),
        ops: Ops::default(),
    };
    pass.measure();
    let Pass { rec, values, mut ops, .. } = pass;

    let self_ns = self_times_ns(rec.spans());
    println!("# spans (self time = span minus its children):");
    for (s, self_ns) in rec.spans().iter().zip(&self_ns) {
        let depth = std::iter::successors(s.parent, |&p| rec.spans()[p].parent).count();
        let total_ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        let self_ms = *self_ns as f64 / 1e6;
        println!(
            "#   {:indent$}{} {total_ms:.1} ms (self {self_ms:.1} ms)",
            "",
            s.name,
            indent = 2 * depth
        );
    }
    let path = crate::out_dir().join(format!("trace_{}.json", w.name));
    match std::fs::write(&path, chrome_trace(rec.spans(), w.name, &fp.pairs())) {
        Ok(()) => println!("# trace: {}", path.display()),
        Err(e) => ops.check(false, || format!("cannot write {}: {e}", path.display())),
    }

    // A metric that was never set comes out NaN and fails the run.
    let value = |name| values.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v);
    let metrics = METRICS
        .iter()
        .map(|&(name, unit, _)| Metric::single(name, unit, value(name)))
        .collect();
    (metrics, ops)
}

impl Pass<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|m| m.0 == name), "{name} is not a declared metric");
        self.values.push((name, value));
    }

    /// Replays `sample` — which returns the seconds it measured, so a caller
    /// can keep per-iteration set-up out of the timing — for at least
    /// [`PROBE_SECONDS`] and three calls; returns the median.
    fn probe(&mut self, span: &str, mut sample: impl FnMut() -> f64) -> f64 {
        self.rec
            .timed(span, || {
                let t0 = Instant::now();
                let mut samples = Vec::new();
                while samples.len() < 3 || t0.elapsed().as_secs_f64() < PROBE_SECONDS {
                    samples.push(sample());
                }
                median(&samples)
            })
            .0
    }

    /// [`probe`](Self::probe) for calls too short to time singly: each
    /// sample runs `batch` calls; returns median seconds per call.
    fn probe_batched(&mut self, span: &str, batch: usize, mut call: impl FnMut()) -> f64 {
        self.probe(span, || secs_of(|| (0..batch).for_each(|_| call()))) / batch as f64
    }

    /// One training run as a span; returns the output and the call's wall.
    fn train(
        &mut self,
        span: &str,
        params: TrainParams,
        store: &dyn QuantStore,
        labels: &[f32],
    ) -> (TrainOutput, f64) {
        let trainer = GbdtTrainer::new(params).expect("valid training params");
        self.rec.timed(span, || trainer.train_store(store, labels, None))
    }

    fn measure(&mut self) {
        let (w, fp) = (self.w, self.fp);
        let start = Instant::now();
        let root = self.rec.open(w.name);
        let raw = w.generate(fp.seed, &mut self.rec);
        let prepared = Prepared::build(w, &raw.train.features, &mut self.rec);
        let store = prepared.store();
        let n = store.n_rows();

        self.set("data.generate_s", raw.generate_secs);
        self.set("data.split_s", raw.split_secs);
        self.set("data.generate_rows_per_s", raw.n_generated as f64 / raw.generate_secs);
        self.set("binning.quantize_s", prepared.quantize_secs);
        self.set("binning.quantize_rows_per_s", n as f64 / prepared.quantize_secs);
        self.set("binning.total_bins", f64::from(store.mapper().total_bins()));
        self.set("binning.storage_mb", store.storage_bytes() as f64 / MIB);
        self.set("binning.cache_write_s", prepared.cache_write_secs);
        self.set("binning.cache_open_s", prepared.cache_open_secs);

        let runs = self.training_runs(store, &raw.train.labels);
        self.reported(&runs, n);
        let pool = ThreadPool::new(fp.threads);
        self.root_node_probes(store, &raw.train.labels, &pool);
        self.primitive_probes(&pool, &prepared);
        self.scoring_probes(&runs.plain.model, &raw, store);

        // The ceiling every *_gbps above is read against.
        let (t, _) = self.rec.timed("host.triad", || triad(fp.threads));
        println!(
            "# triad: {:.2} GB/s over three {} MiB arrays (last-level cache {} MiB)",
            t.gbps,
            t.array_bytes >> 20,
            t.llc_bytes >> 20
        );
        self.set("host.nproc", fp.nproc as f64);
        self.set("host.threads", fp.threads as f64);
        self.set("host.cpu_quota", fp.cpu_quota.unwrap_or(0.0));
        self.set("host.triad_gbps", t.gbps);
        self.rec.close(root);
        println!("# wall: process {:.2} s", start.elapsed().as_secs_f64());
    }

    /// The same problem untraced [`TIMED_CALLS`] times and traced once at
    /// full length, then for fewer rounds at 1 and 4T threads and under the
    /// two baseline schedulers.
    fn training_runs(&mut self, store: &dyn QuantStore, labels: &[f32]) -> Runs {
        let (w, threads, rounds) = (self.w, self.fp.threads, self.rounds);
        let stage = self.rec.open("training_runs");
        let side = w.side_rounds.min(rounds);
        // Round `i` builds the same tree in every call (ASYNC: a
        // near-identical one), so its cost is the best of its repetitions.
        let mut best_round_secs = vec![f64::INFINITY; rounds];
        let mut best_call_secs = f64::INFINITY;
        let mut last = None;
        for _ in 0..TIMED_CALLS {
            let (out, wall) =
                self.train("core.trainer.train_untraced", w.params(rounds, threads), store, labels);
            check_rounds(&out.model, &mut self.ops);
            for (best, secs) in best_round_secs.iter_mut().zip(&out.diagnostics.per_tree_secs) {
                *best = best.min(*secs);
            }
            best_call_secs = best_call_secs.min(wall);
            last = Some((out, wall));
        }
        let (plain, plain_wall) = last.expect("at least one timed call");
        self.set("train_ms_per_tree_p50", median(&best_round_secs) * 1e3);
        self.set("train_rows_per_s", (store.n_rows() * rounds) as f64 / best_call_secs);
        let traced_params = TrainParams {
            trace: harpgbdt::TraceConfig::enabled(),
            ledger: harpgbdt::LedgerConfig::enabled(),
            ..w.params(rounds, threads)
        };
        let (traced, _) = self.train("core.trainer.train_traced", traced_params, store, labels);
        check_rounds(&traced.model, &mut self.ops);
        let (one_thread, _) = self.train("parallel.train_1t", w.params(side, 1), store, labels);
        let (oversub, _) =
            self.train("parallel.train_oversub4x", w.params(side, 4 * threads), store, labels);
        let baseline = |b: Baseline| TrainParams {
            n_trees: side,
            gamma: 0.0,
            ..b.params(w.tree_size, threads)
        };
        let (xgb, _) = self.train("baselines.xgb_leaf", baseline(Baseline::XgbLeaf), store, labels);
        let (lgbm, _) =
            self.train("baselines.lightgbm", baseline(Baseline::LightGbm), store, labels);
        self.rec.close(stage);

        let harp_ms = ms_per_tree(&plain, side);
        let speedup = ms_per_tree(&one_thread, side) / harp_ms;
        let (xgb_ms, lgbm_ms) = (ms_per_tree(&xgb, side), ms_per_tree(&lgbm, side));
        self.set("parallel.speedup_vs_1t", speedup);
        self.set("parallel.oversub4x_slowdown", ms_per_tree(&oversub, side) / harp_ms);
        self.set("baselines.xgb_leaf_ms_per_tree", xgb_ms);
        self.set("baselines.lightgbm_ms_per_tree", lgbm_ms);
        self.set("baselines.harp_speedup_vs_xgb", xgb_ms / harp_ms);
        self.set("baselines.harp_speedup_vs_lightgbm", lgbm_ms / harp_ms);
        self.set(
            "core.trainer.trace_overhead",
            ms_per_tree(&traced, rounds) / ms_per_tree(&plain, rounds),
        );
        if self.fp.efficiency_is_meaningful(threads) {
            println!("# parallel efficiency at {threads} threads: {:.2}", speedup / threads as f64);
        } else {
            println!(
                "# parallel efficiency: not printed, {threads} threads exceed {:.2} cores",
                self.fp.cores()
            );
        }
        Runs { plain, plain_wall, best_round_secs, traced }
    }

    /// Numbers read from the trainer's own `Diagnostics`: the untraced run's
    /// phase breakdown and pool profile, the traced run's ledger.
    fn reported(&mut self, runs: &Runs, n_rows: usize) {
        let rounds = self.rounds as f64;
        let wall = runs.plain_wall;
        let diag = &runs.plain.diagnostics;
        let bd = &diag.breakdown;
        let phases = [bd.build_hist_secs, bd.find_split_secs, bd.apply_split_secs, bd.other_secs];
        let phase_sum: f64 = phases.iter().sum();
        // Barrier modes time phases on the coordinator, so they partition the
        // wall; ASYNC sums them over worker threads, so they are shares of
        // the phase total and no residual is defined.
        let barrier_mode = self.w.mode != ParallelMode::Async;
        let denominator = if barrier_mode { wall } else { phase_sum };
        let names = [
            "core.trainer.build_hist_share",
            "core.trainer.find_split_share",
            "core.trainer.apply_split_share",
            "core.trainer.other_share",
        ];
        for (name, secs) in names.into_iter().zip(phases) {
            self.set(name, secs / denominator);
        }
        self.set(
            "core.trainer.unattributed_share",
            if barrier_mode { (wall - phase_sum) / wall } else { 0.0 },
        );
        self.set("core.trainer.phase_sum_over_wall", phase_sum / wall);
        let tree_ms: Vec<f64> = runs.best_round_secs.iter().map(|s| s * 1e3).collect();
        self.set("core.trainer.ms_per_tree_p90", percentile(&tree_ms, 0.9));
        self.set("core.trainer.first_tree_ms", tree_ms[0]);
        self.set(
            "core.trainer.leaves_per_tree",
            diag.tree_shapes.iter().map(|s| f64::from(s.n_leaves)).sum::<f64>() / rounds,
        );
        let profile = &diag.profile;
        self.set(
            "core.trainer.bytes_read_per_row",
            profile.bytes_read as f64 / n_rows as f64 / rounds,
        );
        self.set("core.trainer.flops_per_row", profile.flops as f64 / n_rows as f64 / rounds);
        self.set("parallel.barrier_wait_share", profile.barrier_overhead);
        self.set("parallel.regions_per_tree", profile.regions as f64 / rounds);
        self.set("parallel.tasks_per_tree", profile.tasks as f64 / rounds);
        self.set("core.kernels.simd_tier", profile.simd_tier as f64);
        let lookups = profile.hist_cache_hits + profile.hist_cache_misses;
        self.set(
            "core.hist.cache_hit_ratio",
            profile.hist_cache_hits as f64 / lookups.max(1) as f64,
        );
        self.set("binning.chunk_loads_per_tree", profile.chunk_loads as f64 / rounds);
        self.set("binning.chunk_evictions_per_tree", profile.chunk_evictions as f64 / rounds);
        self.set(
            "binning.chunk_prefetch_hit_ratio",
            profile.chunk_prefetch_hits as f64 / profile.chunk_loads.max(1) as f64,
        );

        let ledger = runs.traced.diagnostics.ledger.as_ref().expect("ledger was enabled");
        let pool_high_water = ledger
            .records()
            .iter()
            .flat_map(|r| &r.mem)
            .filter(|g| g.name == gauges::HIST_POOL)
            .map(|g| g.high_water_bytes)
            .max()
            .unwrap_or(0);
        self.set("core.hist.pool_high_water_mb", pool_high_water as f64 / MIB);
        let plan_tasks: u64 = ledger.records().iter().map(|r| r.plan.tasks).sum();
        self.set("core.plan.tasks_per_tree", plan_tasks as f64 / rounds);
    }

    /// Probes of `core` on the workload's own root node: gradients of the
    /// base-score predictions, the root histogram, its best split, that
    /// split applied, and the left child's histogram.
    fn root_node_probes(&mut self, store: &dyn QuantStore, labels: &[f32], pool: &ThreadPool) {
        let (n, m) = (store.n_rows(), store.n_features());
        let mapper = store.mapper();
        let stage = self.rec.open("root_node_probes");
        let objective = ObjectiveSpec::Logistic;
        let preds = vec![objective.base_scores(labels)[0]; n];
        let mut grads: Vec<GradPair> = vec![[0.0; 2]; n];
        let secs = self.probe("core.objective.compute_gradients", || {
            secs_of(|| objective.compute_gradients(pool, &preds, labels, &mut grads))
        });
        self.set("core.objective.gradients_ns_per_row", secs * 1e9 / n as f64);

        let width = hist_width_for(store);
        self.set("core.hist.width_mb", (width * 8) as f64 / MIB);
        let mut hist = vec![0.0f64; width];
        let mut root_cells = 0u64;
        let secs = self.probe("core.kernels.row_scan_root_store", || {
            zero(&mut hist);
            secs_of(|| {
                root_cells =
                    row_scan_root_store(store, 0..n, GradSource::Global(&grads), 0..m, &mut hist)
            })
        });
        self.set("core.kernels.row_scan_root_ns_per_cell", secs * 1e9 / root_cells as f64);
        self.set("core.kernels.row_scan_gbps", (root_cells * BYTES_PER_CELL) as f64 / secs / 1e9);

        let root =
            grads
                .iter()
                .fold(NodeStats { g: 0.0, h: 0.0, count: n as u32 }, |s, g| NodeStats {
                    g: s.g + f64::from(g[0]),
                    h: s.h + f64::from(g[1]),
                    ..s
                });
        let settings = SplitSettings { lambda: 1.0, gamma: 0.0, min_child_weight: 1.0 };
        let mut best = None;
        let secs = self.probe("core.split.find_split_range", || {
            secs_of(|| best = find_split_range(&hist, &root, mapper, 0..m, &settings))
        });
        self.set("core.split.find_split_root_us", secs * 1e6);
        self.set("core.split.find_split_ns_per_bin", secs * 1e9 / f64::from(mapper.total_bins()));
        self.ops.check(best.is_some(), || "the root histogram admits no split".into());

        // ApplySplit with the root's best split. The routing bins are
        // gathered once up front (the trainer's out-of-core route), so the
        // probe times the stable partition itself on every storage layout.
        if let Some(split) = best.map(|b| b.split) {
            let mut partition = RowPartition::new(n, 4, true);
            let all_rows: Vec<u32> = (0..n as u32).collect();
            let mut bins = Vec::with_capacity(n);
            store.gather_route_bins(split.feature as usize, &all_rows, &mut bins);
            let goes_left = |pos: usize, _row: u32| match bins[pos] {
                MISSING_BIN => split.default_left,
                b => b <= split.bin,
            };
            for (name, span, pool) in [
                ("core.partition.apply_split_ns_per_row", "core.partition.apply_split", None),
                (
                    "core.partition.apply_split_par_ns_per_row",
                    "core.partition.apply_split_par",
                    Some(pool),
                ),
            ] {
                let secs = self.probe(span, || {
                    partition.reset(&grads);
                    secs_of(|| {
                        partition.apply_split(0, 1, 2, &goes_left, pool);
                    })
                });
                self.set(name, secs * 1e9 / n as f64);
            }
            let mut node_cells = 0u64;
            let secs = self.probe("core.kernels.row_scan_store", || {
                zero(&mut hist);
                let node_grads = GradSource::MemBuf(partition.grads(1));
                secs_of(|| {
                    node_cells =
                        row_scan_store(store, partition.rows(1), node_grads, 0..m, &mut hist, false)
                })
            });
            self.set(
                "core.kernels.row_scan_node_ns_per_cell",
                secs * 1e9 / node_cells.max(1) as f64,
            );
        }

        // Histogram buffer traffic; bytes are computed from the buffer width
        // (one stream written for zero, two read and one written otherwise).
        let batch = ((1 << 20) / width).max(1);
        let other = vec![1.0f64; width];
        let mut third = vec![0.0f64; width];
        let gbps = |streams: usize, secs: f64| (streams * width * 8) as f64 / secs / 1e9;
        let secs =
            self.probe_batched("core.hist.zero", batch, || zero(std::hint::black_box(&mut hist)));
        self.set("core.hist.zero_gbps", gbps(1, secs));
        let secs = self.probe_batched("core.hist.reduce_into", batch, || {
            reduce_into(std::hint::black_box(&mut hist), &other)
        });
        self.set("core.hist.reduce_gbps", gbps(3, secs));
        let secs = self.probe_batched("core.hist.subtract", batch, || {
            subtract(&hist, &other, std::hint::black_box(&mut third))
        });
        self.set("core.hist.subtract_gbps", gbps(3, secs));

        // A frontier batch as the drivers plan it: K = 32 nodes sharing the rows.
        let shape = BatchShape {
            n_features: m,
            layout: ScanLayout::of(store),
            max_bins: usize::from(mapper.max_bins_used()),
            total_bins: mapper.total_bins() as usize,
            n_threads: self.fp.threads,
        };
        let job_lens = vec![n / 32; 32];
        let accumulation = if self.w.mode == ParallelMode::ModelParallel {
            Accumulation::Exclusive
        } else {
            Accumulation::Replicated
        };
        let blocks = self.w.params(1, self.fp.threads).blocks;
        let mut plan = BlockPlan::new();
        let secs = self.probe_batched("core.plan.rebuild", 64, || {
            plan.rebuild(&blocks, &shape, &job_lens, accumulation)
        });
        self.set("core.plan.rebuild_ns_per_task", secs * 1e9 / plan.tasks().len().max(1) as f64);
        self.rec.close(stage);
    }

    /// Probes of the `parallel` primitives and of chunk pins.
    fn primitive_probes(&mut self, pool: &ThreadPool, prepared: &Prepared) {
        let threads = self.fp.threads;
        let stage = self.rec.open("primitive_probes");
        let secs =
            self.probe_batched("parallel.region", 100, || pool.parallel_for(threads, |_, _| {}));
        self.set("parallel.region_ns", secs * 1e9);
        {
            let wide = ThreadPool::new(4 * threads);
            let secs = self.probe_batched("parallel.region_oversub4x", 100, || {
                wide.parallel_for(4 * threads, |_, _| {})
            });
            self.set("parallel.region_ns_oversub4x", secs * 1e9);
        }
        let queue = WorkQueue::<u64>::new();
        let mut next = 0u64;
        let secs = self.probe_batched("parallel.queue_push_pop", 1000, || {
            queue.push(next);
            next += 1;
            std::hint::black_box(queue.pop());
            queue.complete();
        });
        self.set("parallel.queue_push_pop_ns", secs * 1e9);
        let lock = SpinMutex::new(0u64);
        let secs = self.probe_batched("parallel.spin_lock", 10_000, || *lock.lock() += 1);
        self.set("parallel.spin_lock_ns", secs * 1e9);

        // A hit re-pins a resident chunk; a miss cycles a second handle
        // whose budget holds two chunks, so every pin decodes.
        let store = prepared.store();
        let secs = self.probe_batched("binning.chunk_pin_hit", 1000, || {
            std::hint::black_box(&*store.pin(0));
        });
        self.set("binning.chunk_pin_hit_ns", secs * 1e9);
        let two_chunks = 2 * store.storage_bytes().div_ceil(store.n_chunks()) as u64;
        let miss_us = prepared.reopen_chunked(two_chunks).map_or(0.0, |cold| {
            let chunks = cold.n_chunks();
            let mut c = 0;
            let secs = self.probe("binning.chunk_pin_miss", || {
                c = (c + 1) % chunks;
                secs_of(|| {
                    std::hint::black_box(&*cold.pin(c));
                })
            });
            secs * 1e6
        });
        self.set("binning.chunk_pin_miss_us", miss_us);
        self.rec.close(stage);
    }

    /// Probes of scoring (serial, so per-row-tree costs are not divided by
    /// a thread count) and of evaluation.
    fn scoring_probes(&mut self, model: &GbdtModel, raw: &RawData, store: &dyn QuantStore) {
        let trees = model.n_trees();
        let stage = self.rec.open("scoring_probes");
        let mut forest = model.compile();
        let secs = self.probe("core.predict.compile", || secs_of(|| forest = model.compile()));
        self.set("core.predict.compile_ms", secs * 1e3);
        let sample = head_rows(&raw.train.features, PREDICT_PROBE_ROWS);
        let predictor = Predictor::new(&forest);
        let secs = self.probe("core.predict.predict_raw", || {
            secs_of(|| {
                std::hint::black_box(predictor.predict_raw(&sample));
            })
        });
        self.set("core.predict.ns_per_row_tree", secs * 1e9 / (sample.n_rows() * trees) as f64);
        let secs = self.probe("core.predict.predict_raw_store", || {
            secs_of(|| {
                std::hint::black_box(predictor.predict_raw_store(store));
            })
        });
        self.set(
            "core.predict.binned_ns_per_row_tree",
            secs * 1e9 / (store.n_rows() * trees) as f64,
        );
        // What a caller scoring a batch sees: the pool-parallel predictor
        // over at least `PREDICT_ROWS` rows per sample.
        let batch = scoring_sample(raw);
        let loops = PREDICT_ROWS.div_ceil(batch.n_rows());
        let pool = ThreadPool::new(self.fp.threads);
        let parallel = Predictor::new(&forest).with_pool(&pool);
        let secs = self.probe("core.predict.predict_raw_pool", || {
            secs_of(|| {
                for _ in 0..loops {
                    std::hint::black_box(parallel.predict_raw(&batch));
                }
            })
        });
        self.set("predict_rows_per_s", (loops * batch.n_rows()) as f64 / secs);
        let test_scores = predictor.predict(&raw.test.features);
        self.ops.check(test_scores.iter().all(|s| s.is_finite()), || {
            "held-out scores are not finite".into()
        });
        let secs = self.probe("metrics.auc", || {
            secs_of(|| {
                std::hint::black_box(harp_metrics::auc(&raw.test.labels, &test_scores));
            })
        });
        self.set("metrics.auc_ns_per_row", secs * 1e9 / raw.test.n_rows() as f64);
        self.rec.close(stage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(METRICS.len() <= 128);
        for (i, &(name, unit, better)) in METRICS.iter().enumerate() {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{name}: unit {unit}");
            assert!(better == "lower" || better == "higher", "{name}");
            assert!(METRICS[i + 1..].iter().all(|m| m.0 != name), "{name} is listed twice");
        }
    }

    #[test]
    fn probe_reports_the_median_sample_per_call() {
        let fp = Fingerprint::collect(0);
        let mut pass = Pass {
            w: &crate::workloads::WORKLOADS[0],
            fp: &fp,
            rounds: 4,
            rec: Recorder::new(true),
            values: Vec::new(),
            ops: Ops::default(),
        };
        let mut calls = 0u32;
        let per_call = pass.probe_batched("p", 10, || calls += 1);
        assert!(calls >= 30 && calls.is_multiple_of(10));
        assert!((0.0..PROBE_SECONDS).contains(&per_call));
        assert_eq!(pass.rec.spans().len(), 1);
    }
}
