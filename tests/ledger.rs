//! End-to-end run-ledger tests: train with the ledger on, check one record
//! per round with sensible deltas and non-zero memory high-water marks, and
//! round-trip the ledger through the JSON-lines file format.

use harp_bench::{harp_params, prepared};
use harp_data::DatasetKind;
use harp_metrics::{gauges, DiffOptions, DiffReport, LedgerRecord, RunLedger};
use harp_parallel::{TracePhase, TraceSnapshot};
use harpgbdt::trainer::{EvalMetric, EvalOptions};
use harpgbdt::{
    write_cache, ChunkedStore, GbdtTrainer, GrowthMethod, LedgerConfig, LossKind, ParallelMode,
    QuantStore, TraceConfig, TrainParams,
};

fn ledger_run(mut params: TrainParams, with_eval: bool) -> (RunLedger, usize) {
    let data = prepared(DatasetKind::HiggsLike, 0.03, 7);
    params.ledger = LedgerConfig::enabled();
    let trainer = GbdtTrainer::new(params).expect("valid params");
    let eval = with_eval.then_some(EvalOptions {
        data: &data.test,
        metric: EvalMetric::Auc,
        every: 1,
        early_stopping_rounds: None,
    });
    let out = trainer.train_store(&data.quantized, &data.train.labels, eval);
    let n_trees = out.model.n_trees();
    (out.diagnostics.ledger.expect("ledger enabled"), n_trees)
}

fn small_params() -> TrainParams {
    let mut p = harp_params(5, 2);
    p.n_trees = 6;
    p
}

/// Counter `name` of record `r`.
fn counter(r: &LedgerRecord, name: &str) -> u64 {
    r.counters.iter().find(|(n, _)| n == name).expect("counter present").1
}

#[test]
fn one_record_per_round_with_phase_and_counter_deltas() {
    let (ledger, n_trees) = ledger_run(small_params(), true);
    assert_eq!(ledger.len(), 6, "one record per boosting round");
    assert_eq!(n_trees, 6);
    let mut prev_elapsed = 0.0;
    for (i, r) in ledger.records().iter().enumerate() {
        assert_eq!(r.round, i as u64 + 1);
        assert!(r.round_secs > 0.0, "round {} took no time?", r.round);
        assert!(r.elapsed_secs > prev_elapsed, "elapsed must be cumulative");
        prev_elapsed = r.elapsed_secs;
        // Every round builds histograms; its phase delta must be non-zero.
        let build = r
            .phase_secs
            .iter()
            .find(|(n, _)| n == "build_hist")
            .map(|(_, v)| *v)
            .expect("build_hist phase present");
        assert!(build > 0.0, "round {} has no BuildHist time", r.round);
        // Counter deltas are per-round: regions are created every round, so
        // a whole-run (double-counted) read would grow with the round index.
        let regions = r.counters.iter().find(|(n, _)| n == "regions").map(|(_, v)| *v).unwrap_or(0);
        assert!(regions > 0, "round {} shows no parallel regions", r.round);
        assert!(r.eval_metric.is_some(), "eval ran every round");
        assert!(r.n_leaves >= 2);
        assert!(r.mean_k_per_pop >= 1.0, "effective K below 1 in round {}", r.round);
    }
    // Per-round region counts must be roughly flat, not cumulative.
    let first = ledger.records()[0].counters.iter().find(|(n, _)| n == "regions").unwrap().1 as f64;
    let last = ledger.records()[5].counters.iter().find(|(n, _)| n == "regions").unwrap().1 as f64;
    assert!(last < first * 3.0, "per-round counter looks cumulative: first {first}, last {last}");
}

#[test]
fn memory_gauges_report_nonzero_high_water() {
    let (ledger, _) = ledger_run(small_params(), true);
    let last = ledger.records().last().expect("records");
    let hw = |name: &str| {
        last.mem
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
            .high_water_bytes
    };
    assert!(hw(gauges::HIST_POOL) > 0, "hist pool allocated nothing?");
    assert!(hw(gauges::SCRATCH_ARENA) > 0, "DP replica arena allocated nothing?");
    assert!(hw(gauges::MEMBUF) > 0, "membuf on but gauge zero");
    assert!(hw(gauges::PARTITION) > 0);
    assert!(hw(gauges::FLAT_FOREST) > 0, "eval compiles a flat tree every round");
    // MemBuf holds two GradPair replicas per row.
    let data = prepared(DatasetKind::HiggsLike, 0.03, 7);
    assert_eq!(hw(gauges::MEMBUF), 2 * data.train.n_rows() as u64 * 8);
}

#[test]
fn membuf_off_zeroes_the_membuf_gauge() {
    let mut p = small_params();
    p.use_membuf = false;
    let (ledger, _) = ledger_run(p, false);
    let last = ledger.records().last().expect("records");
    let membuf = last.mem.iter().find(|m| m.name == gauges::MEMBUF).expect("gauge");
    assert_eq!(membuf.high_water_bytes, 0);
    assert!(last.eval_metric.is_none(), "no eval set attached");
}

/// Per round of a traced run: the claims the barrier batches took (the
/// coordinator's ApplySplit spans carry their batch's claim count) and the
/// node tasks' intervals on the worker lanes, each from its ApplySplit
/// span's start to the end of its last span. A node task holds its claim
/// from before the first to after the last, so overlapping intervals are a
/// lower bound on the claims in flight.
fn async_rounds(trace: &TraceSnapshot, rounds: usize) -> Vec<(u64, Vec<(u64, u64)>)> {
    let (workers, [coordinator]) = trace.lanes.split_at(trace.lanes.len() - 1) else {
        unreachable!("a sink always has the coordinator's lane")
    };
    let phase = |s: &harp_parallel::Span| TracePhase::from_u8(s.phase).expect("a known phase");
    // Per round: barrier claims, and the node tasks' window — from the end
    // of the last barrier batch to the round's closing `Other` span.
    let mut barrier = vec![(0u64, 0u64, u64::MAX); rounds];
    let mut round = 0;
    for s in &coordinator.spans {
        if phase(s) == TracePhase::Gradients {
            round = s.block as usize;
        }
        let b = &mut barrier[round];
        match phase(s) {
            TracePhase::ApplySplit | TracePhase::BuildHist | TracePhase::FindSplit => {
                b.1 = b.1.max(s.t_end_ns);
            }
            TracePhase::Other => b.2 = s.t_start_ns,
            _ => {}
        }
        if phase(s) == TracePhase::ApplySplit {
            b.0 += u64::from(s.block);
        }
    }
    barrier
        .into_iter()
        .map(|(claims, from, to)| {
            let mut tasks = Vec::new();
            for lane in workers {
                let mut open: Option<(u64, u64)> = None;
                for s in lane.spans.iter().filter(|s| s.t_start_ns >= from && s.t_end_ns <= to) {
                    match phase(s) {
                        TracePhase::QueueSpin | TracePhase::BarrierWait => continue,
                        TracePhase::ApplySplit => tasks.extend(open.replace((s.t_start_ns, 0))),
                        _ => {}
                    }
                    let task = open.as_mut().expect("a node task opens with its ApplySplit span");
                    task.1 = task.1.max(s.t_end_ns);
                }
                tasks.extend(open);
            }
            (claims, tasks)
        })
        .collect()
}

/// The most of `intervals` that overlap at one instant.
fn max_overlap(intervals: &[(u64, u64)]) -> usize {
    let mut edges: Vec<(u64, i32)> =
        intervals.iter().flat_map(|&(start, end)| [(start, 1), (end, -1)]).collect();
    // An interval that ends where another starts does not overlap it.
    edges.sort_unstable();
    let mut depth = 0i32;
    edges
        .iter()
        .map(|&(_, d)| {
            depth += d;
            depth as usize
        })
        .max()
        .unwrap_or(0)
}

/// A traced ASYNC run's records carry skew rows and its queue counts, and
/// the spans check those counts: ASYNC's node tasks claim off the frontier
/// and nothing else, so in every round the pool pops exactly the splits
/// the node tasks make — the tree's splits less the claims of the begin
/// phase's barrier batches — and no more than K tasks hold a claim at
/// once. At K 1, 4 and 32, at T = 1, 2 and 4 (on a 2-core host, more
/// threads than cores, which must still drain), in core and through the
/// chunk cache.
#[test]
fn trace_enriches_records_with_skew_and_queue_counters() {
    let data = prepared(DatasetKind::HiggsLike, 0.03, 7);
    let qm = &data.quantized;
    let path = std::env::temp_dir().join(format!("harp_ledger_async_{}.qsc", std::process::id()));
    write_cache(qm, (qm.n_rows() / 8).max(16), &path).expect("write cache");
    let chunked = ChunkedStore::open(&path, qm.storage_bytes() as u64 / 4).expect("open cache");
    let stores: [(&str, &dyn QuantStore); 2] = [("in core", qm), ("chunked", &chunked)];
    for (store_name, store) in stores {
        for threads in [1, 2, 4] {
            for k in [1, 4, 32] {
                let params = TrainParams {
                    n_trees: 4,
                    k,
                    mode: ParallelMode::Async,
                    trace: TraceConfig::enabled(),
                    ledger: LedgerConfig::enabled(),
                    ..harp_params(5, threads)
                };
                let label = format!("{store_name}, T = {threads}, K = {k}");
                let trainer = GbdtTrainer::new(params).expect("valid params");
                let diag = trainer.train_store(store, &data.train.labels, None).diagnostics;
                let (ledger, trace) =
                    (diag.ledger.expect("ledger"), diag.span_trace.expect("trace"));
                assert!(
                    trace.lanes.iter().all(|l| l.spans_dropped == 0),
                    "{label}: a span dropped"
                );
                let rounds = async_rounds(&trace, ledger.len());
                for (r, (barrier_claims, tasks)) in ledger.records().iter().zip(rounds) {
                    let splits = u64::from(r.n_leaves) - 1;
                    let pops = counter(r, "queue_pops");
                    assert!(pops > 0, "{label}, round {}: no node task ran", r.round);
                    assert!(!r.skew.is_empty(), "{label}, round {}: no skew rows", r.round);
                    assert_eq!(
                        pops,
                        splits - barrier_claims,
                        "{label}, round {}: {splits} splits, {barrier_claims} in barrier batches",
                        r.round
                    );
                    assert_eq!(tasks.len() as u64, pops, "{label}, round {}", r.round);
                    let overlap = max_overlap(&tasks);
                    assert!(overlap <= k, "{label}, round {}: {overlap} tasks at once", r.round);
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The queue's counts are the profile's, so an untraced ASYNC run carries
/// them too, and at one thread a traced run counts the same pops; skew
/// rows come from the span sink and appear only when tracing.
#[test]
fn an_untraced_async_run_counts_queue_pops_and_records_no_skew() {
    let mut p = small_params();
    p.mode = ParallelMode::Async;
    let (ledger, _) = ledger_run(p.clone(), false);
    for r in ledger.records() {
        assert!(counter(r, "queue_pops") > 0, "round {}: no pop counted", r.round);
        assert!(r.counters.iter().any(|(n, _)| n == "queue_spin_ns"), "round {}", r.round);
        assert!(r.skew.is_empty(), "round {}: skew rows without a trace", r.round);
    }

    p.n_threads = 1;
    let pops = |traced: bool| {
        let mut p = p.clone();
        if traced {
            p.trace = TraceConfig::enabled();
        }
        let (ledger, _) = ledger_run(p, false);
        assert_eq!(ledger.records().iter().all(|r| !r.skew.is_empty()), traced);
        ledger.records().iter().map(|r| counter(r, "queue_pops")).collect::<Vec<_>>()
    };
    assert_eq!(pops(false), pops(true), "T = 1: tracing changed the pop count");
}

/// What one traced, ledgered SYNC run records, as exact counts: one ledger
/// round per tree, some spans, and the same number of spans when the run is
/// repeated — a change of that count is a change of work, not noise.
#[test]
fn a_traced_ledgered_sync_run_records_a_round_per_tree_and_a_repeatable_span_count() {
    let data = prepared(DatasetKind::HiggsLike, 0.1, 42);
    let params = TrainParams {
        n_trees: 10,
        n_threads: 2,
        mode: ParallelMode::Sync,
        trace: TraceConfig::enabled(),
        ledger: LedgerConfig::enabled(),
        ..TrainParams::default()
    };
    let spans_and_rounds = || {
        let out = GbdtTrainer::new(params.clone()).expect("valid params").train_store(
            &data.quantized,
            &data.train.labels,
            None,
        );
        let diagnostics = out.diagnostics;
        let spans = diagnostics.span_trace.expect("trace enabled").n_spans();
        (spans, diagnostics.ledger.expect("ledger enabled").len())
    };
    let (spans, rounds) = spans_and_rounds();
    assert_eq!(rounds, 10, "one ledger round per tree");
    assert!(spans > 0, "a traced run must record spans");
    assert_eq!(spans_and_rounds(), (spans, rounds), "an identical run recorded other counts");
}

/// The contract dashboards and `report --diff` read: a renamed, dropped or
/// reordered metric must fail here, not there. The lists are the parent
/// commit's round-1 output of a 1-thread traced run, copied literally.
/// A change here re-records `results/ledger_sample.jsonl`, from the repo
/// root: `harpgbdt synth --kind higgs --out train.csv --rows 9000 --seed 42
/// && harpgbdt train --data train.csv --model model.json --trees 10 --mode
/// sync --threads 2 --trace-out trace.json --ledger-out
/// results/ledger_sample.jsonl`.
#[test]
fn round_one_metric_names_and_order_are_the_recorded_contract() {
    const PHASES: [&str; 5] = ["build_hist", "find_split", "apply_split", "predict", "other"];
    const COUNTERS: [&str; 31] = [
        "busy_ns",
        "barrier_wait_ns",
        "lock_wait_ns",
        "regions",
        "tasks",
        "bytes_read",
        "bytes_written",
        "flops",
        "region_write_ws_bytes",
        "region_write_ws_samples",
        "wall_ns",
        "scratch_allocs",
        "scratch_reuses",
        "partition_scratch_allocs",
        "partition_scratch_reuses",
        "hist_cache_hits",
        "hist_cache_misses",
        "hist_cache_declined",
        "hist_cache_evictions",
        "hist_cache_trimmed",
        "hist_builds_skipped",
        "plan_batches",
        "plan_tasks_replicated",
        "plan_tasks_exclusive",
        "plan_batches_auto",
        "simd_tier",
        "chunk_loads",
        "chunk_evictions",
        "chunk_prefetch_hits",
        "queue_pops",
        "queue_spin_ns",
    ];
    const GAUGES: [&str; 7] = [
        "hist_pool",
        "hist_cache",
        "scratch_arena",
        "membuf",
        "partition",
        "flat_forest",
        "quant_store",
    ];

    let data = prepared(DatasetKind::HiggsLike, 0.03, 7);
    let mut params = harp_params(5, 1);
    params.n_trees = 2;
    params.trace = TraceConfig::enabled();
    params.ledger = LedgerConfig::enabled();
    let trainer = GbdtTrainer::new(params.clone()).expect("valid params");
    let round_one = |store: &dyn harpgbdt::QuantStore| {
        let diag = trainer.train_store(store, &data.train.labels, None).diagnostics;
        let records = diag.ledger.expect("ledger enabled").records().to_vec();
        // The run's report and the rounds are views of the same totals: a
        // chunk loads only on the thread that pins it, so none lands after
        // the last round is filed.
        for name in ["regions", "flops", "chunk_loads"] {
            let run = diag.profile.named().iter().find(|(n, _)| *n == name).expect("counter").1;
            let rounds = records.iter().map(|r| counter(r, name)).sum::<u64>();
            assert_eq!(run, rounds, "{name}");
        }
        records[0].clone()
    };
    let names = |r: &harp_metrics::LedgerRecord| {
        (
            r.phase_secs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            r.counters.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            r.mem.iter().map(|m| m.name.clone()).collect::<Vec<_>>(),
        )
    };

    let incore = round_one(&data.quantized);
    let (phases, counters, mem) = names(&incore);
    assert_eq!(phases, PHASES);
    assert_eq!(counters, COUNTERS);
    assert_eq!(mem, GAUGES);

    // Tracing adds skew rows and no counter: an untraced run records the
    // same names.
    assert!(!incore.skew.is_empty());
    params.trace = TraceConfig::default();
    let untraced = GbdtTrainer::new(params).expect("valid params").train_store(
        &data.quantized,
        &data.train.labels,
        None,
    );
    let untraced = untraced.diagnostics.ledger.expect("ledger enabled").records()[0].clone();
    assert_eq!(names(&untraced), (phases, counters, mem));
    assert!(untraced.skew.is_empty());

    // A chunked store reports the same names plus its resident-slab gauge,
    // and the same values wherever chunk traffic is not what is counted.
    let path = std::env::temp_dir().join(format!("harp_ledger_names_{}.qsc", std::process::id()));
    harpgbdt::write_cache(&data.quantized, 64, &path).expect("write cache");
    let store = harpgbdt::ChunkedStore::open(&path, 1 << 30).expect("open cache");
    let chunked = round_one(&store);
    drop(store);
    std::fs::remove_file(&path).ok();
    let (phases, counters, mem) = names(&chunked);
    assert_eq!(phases, PHASES);
    assert_eq!(counters, COUNTERS);
    assert_eq!(mem[..7], GAUGES);
    assert_eq!(mem[7..], [gauges::CHUNK_RESIDENT]);
    assert!(counter(&chunked, "chunk_loads") > 0, "the chunked run decoded chunks");
    assert_eq!(counter(&incore, "chunk_loads"), 0);
    for name in
        ["regions", "tasks", "flops", "hist_cache_hits", "plan_tasks_exclusive", "simd_tier"]
    {
        assert_eq!(counter(&incore, name), counter(&chunked, name), "{name}");
    }
}

#[test]
fn ledger_file_roundtrip_and_self_diff() {
    let (ledger, _) = ledger_run(small_params(), true);
    let path = std::env::temp_dir().join("harp_e2e_ledger.jsonl");
    ledger.write_jsonl(&path).expect("write");
    let text = std::fs::read_to_string(&path).expect("read back");
    assert_eq!(text.lines().count(), ledger.len(), "one JSON line per round");
    let back = RunLedger::read_jsonl(&path).expect("parse");
    std::fs::remove_file(&path).ok();
    assert_eq!(back, ledger);
    // A run diffed against itself passes at zero tolerance.
    let diff = DiffReport::between(&ledger.summary(), &back.summary(), &DiffOptions::default());
    assert!(!diff.failed());
    assert!(!diff.warned());
}

#[test]
fn records_carry_plan_stats() {
    let (ledger, _) = ledger_run(small_params(), false);
    for r in ledger.records() {
        assert!(r.plan.batches > 0, "round {} planned no batches", r.round);
        assert!(r.plan.tasks > 0, "round {} planned no tasks", r.round);
        assert!(r.plan.tasks >= r.plan.batches, "every batch has at least one task");
        assert_eq!(counter(r, "plan_batches_auto"), 0, "explicit config must not be flagged auto");
    }
    // The plan/ metric family lands in the summary for report --diff gating.
    let summary = ledger.summary();
    let get = |name: &str| {
        summary
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    };
    assert!(get("plan/tasks") > 0.0);
    assert!(get("plan/batches") > 0.0);
}

/// Plan counts have one source: every planned batch, an ASYNC node task's
/// batch of one slot included, adds to the pool's profile, and a round's
/// `plan` counts are that profile's deltas, so they sum to the run's totals.
#[test]
fn async_plan_stats_sum_to_the_profile_plan_counters() {
    for blocks in [small_params().blocks, harpgbdt::BlockConfig::Auto] {
        let mut params = small_params();
        (params.mode, params.blocks) = (ParallelMode::Async, blocks);
        let data = prepared(DatasetKind::HiggsLike, 0.03, 7);
        params.ledger = LedgerConfig::enabled();
        let trainer = GbdtTrainer::new(params).expect("valid params");
        let diag = trainer.train_store(&data.quantized, &data.train.labels, None).diagnostics;
        let ledger = diag.ledger.expect("ledger enabled");
        for r in ledger.records() {
            // The root's batch and one per split whose children were built:
            // every split but those that found the leaf budget spent, at
            // most one per worker of the two.
            let (batches, leaves) = (r.plan.batches, u64::from(r.n_leaves));
            assert!(batches + 2 >= leaves, "round {}: {batches} batches, {leaves} leaves", r.round);
        }
        let p = diag.profile.counters;
        let batches: u64 = ledger.records().iter().map(|r| r.plan.batches).sum();
        let tasks: u64 = ledger.records().iter().map(|r| r.plan.tasks).sum();
        assert_eq!(batches, p.plan_batches, "{blocks:?}");
        assert_eq!(tasks, p.plan_tasks_replicated + p.plan_tasks_exclusive, "{blocks:?}");
    }
}

#[test]
fn auto_blocks_train_comparably_and_mark_the_ledger() {
    // BlockConfig::Auto must flag every round's plan stats and train to the
    // same quality as the default config (the cost model only re-blocks the
    // same arithmetic; accuracy is untouched up to K-batch ordering).
    let mut auto = small_params();
    auto.blocks = harpgbdt::BlockConfig::Auto;
    let (ledger, _) = ledger_run(auto, true);
    for r in ledger.records() {
        let auto = counter(r, "plan_batches_auto");
        assert_eq!(
            auto,
            counter(r, "plan_batches"),
            "round {}: a batch lost the auto flag",
            r.round
        );
        assert!(r.plan.batches > 0 && r.plan.tasks > 0);
    }
    let auc_of = |l: &RunLedger| l.records().last().unwrap().eval_metric.expect("eval ran");
    let (default_ledger, _) = ledger_run(small_params(), true);
    let (a, d) = (auc_of(&ledger), auc_of(&default_ledger));
    assert!((a - d).abs() < 0.02, "auto blocks changed eval quality: auto {a} vs default {d}");
}

#[test]
fn identical_seeds_produce_identical_deterministic_metrics() {
    let (a, _) = ledger_run(small_params(), true);
    let (b, _) = ledger_run(small_params(), true);
    // Timing differs run to run; the deterministic metric families must not.
    let diff = DiffReport::between(&a.summary(), &b.summary(), &DiffOptions::default());
    for row in diff.rows.iter().filter(|r| {
        r.metric.starts_with("counter/") && !r.metric.ends_with("_ns") && !r.metric.contains("wall")
            || r.metric.starts_with("tree/")
            || r.metric.starts_with("eval/")
            || r.metric.starts_with("plan/")
    }) {
        assert!(
            row.rel_delta == 0.0,
            "deterministic metric {} drifted: {} vs {}",
            row.metric,
            row.a,
            row.b
        );
    }
}

// ---------------------------------------------------------------------------
// Histogram lifecycle under the leaf budget (DESIGN.md §18): machine-
// independent evidence that only histograms a future split can still read
// are built and kept.

/// One leafwise TopK run on the lifecycle data set with the ledger on.
fn lifecycle_run(
    data: &harp_bench::PreparedData,
    labels: &[f32],
    mode: ParallelMode,
    tree_size: u32,
    k: usize,
    tweak: impl FnOnce(&mut TrainParams),
) -> harpgbdt::TrainOutput {
    let mut params = TrainParams {
        mode,
        growth: GrowthMethod::Leafwise,
        k,
        tree_size,
        n_trees: 3,
        n_threads: 4,
        gamma: 0.0,
        ledger: LedgerConfig::enabled(),
        ..TrainParams::default()
    };
    tweak(&mut params);
    GbdtTrainer::new(params)
        .expect("valid params")
        .train_store(&data.quantized, labels, None)
}

/// The assertions every lifecycle run must meet, whatever its mode.
fn assert_budget_aware_lifecycle(
    out: &harpgbdt::TrainOutput,
    data: &harp_bench::PreparedData,
    tree_size: u32,
    k: usize,
    what: &str,
) {
    let max_leaves = 1usize << tree_size;
    for s in &out.diagnostics.tree_shapes {
        assert_eq!(s.n_leaves as usize, max_leaves, "{what}: a tree stopped short of its budget");
    }
    let summary = out.diagnostics.ledger.as_ref().expect("ledger enabled").summary();
    let get = |name: &str| summary.get(name).unwrap_or_else(|| panic!("{what}: no {name}"));
    let splits = (out.model.n_trees() * (max_leaves - 1)) as f64;
    assert_eq!(
        get("counter/hist_cache_hits") + get("counter/hist_cache_declined"),
        splits,
        "{what}: every split finds its histogram, or was never meant to"
    );
    assert_eq!(get("counter/hist_cache_misses"), 0.0, "{what}: a dropped histogram was needed");
    assert_eq!(get("counter/hist_cache_evictions"), 0.0, "{what}: the byte budget never pressed");
    assert!(
        get("counter/hist_builds_skipped") > 0.0,
        "{what}: the budget-spending splits' children still got histograms"
    );
    // Cached <= min(splittable leaves, leaves left) <= max_leaves / 2, and
    // no more than there are disjoint nodes big enough to be cached at all;
    // plus the two buffers per split of the batch (or of the K tasks) in
    // flight.
    let width = harpgbdt::hist::hist_width_for(&data.quantized);
    let big_nodes = data
        .quantized
        .n_rows()
        .checked_div(harpgbdt::hist::min_cached_rows(&data.quantized))
        .unwrap_or(usize::MAX);
    let bound = ((max_leaves / 2).min(big_nodes) + 2 * k + 2) * width * 8;
    let pool = get("mem/hist_pool/high_water_bytes");
    assert!(
        pool <= bound as f64,
        "{what}: pool grew to {} buffers, bound {}",
        pool / (width * 8) as f64,
        bound / (width * 8)
    );
}

#[test]
fn histograms_are_built_and_kept_only_within_the_leaf_budget() {
    let data = prepared(DatasetKind::HiggsLike, 0.2, 7);
    let labels = &data.train.labels;
    for (tree_size, k) in [(8, 32), (6, 1), (6, 4)] {
        let mut barrier_preds: Vec<Vec<f32>> = Vec::new();
        for mode in [
            ParallelMode::DataParallel,
            ParallelMode::ModelParallel,
            ParallelMode::Sync,
            ParallelMode::Async,
        ] {
            let what = format!("{mode:?} D{tree_size} K{k}");
            let out = lifecycle_run(&data, labels, mode, tree_size, k, |_| {});
            assert_budget_aware_lifecycle(&out, &data, tree_size, k, &what);
            if mode == ParallelMode::Async {
                continue;
            }
            // Every pop but the budget-spending one plans a BuildHist batch,
            // and the root's makes up for it: one batch per pop.
            for r in out.diagnostics.ledger.as_ref().unwrap().records() {
                let pops = (f64::from(r.n_leaves - 1) / r.mean_k_per_pop).round();
                assert_eq!(r.plan.batches as f64, pops, "{what}: round {} batches", r.round);
            }
            barrier_preds.push(out.model.predict_raw(&data.test.features));
        }
        assert!(
            barrier_preds.windows(2).all(|w| w[0] == w[1]),
            "D{tree_size} K{k}: DP, MP and SYNC models differ"
        );
    }
}

#[test]
fn leaf_budget_lifecycle_covers_softmax_and_subtraction_off() {
    let data = prepared(DatasetKind::HiggsLike, 0.2, 7);
    // One tree per class per round shares the pool across the classes.
    let classes: Vec<f32> = (0..data.train.n_rows()).map(|i| (i % 3) as f32).collect();
    let out = lifecycle_run(&data, &classes, ParallelMode::DataParallel, 6, 4, |p| {
        p.loss = LossKind::Softmax { n_classes: 3 };
    });
    assert_eq!(out.model.n_trees(), 9);
    assert_budget_aware_lifecycle(&out, &data, 6, 4, "softmax DP D6 K4");
    // With subtraction off no split reads a cached histogram, so none is
    // cached: every lookup misses by design, and the pool is the batch in
    // flight.
    let out = lifecycle_run(&data, &data.train.labels, ParallelMode::Sync, 6, 4, |p| {
        p.hist_subtraction = false;
    });
    assert!(out.diagnostics.tree_shapes.iter().all(|s| s.n_leaves == 64));
    let summary = out.diagnostics.ledger.as_ref().expect("ledger enabled").summary();
    let get = |name: &str| summary.get(name).unwrap_or_else(|| panic!("no {name}"));
    assert_eq!(get("counter/hist_cache_hits"), 0.0);
    assert_eq!(get("mem/hist_cache/high_water_bytes"), 0.0);
    assert!(get("counter/hist_builds_skipped") > 0.0);
    let entry = (harpgbdt::hist::hist_width_for(&data.quantized) * 8) as f64;
    assert!(get("mem/hist_pool/high_water_bytes") <= (2.0 * 4.0 + 2.0) * entry);
}

/// Criteo-like at D10/K32 is TopK's other regime: a thousand leaves of a few
/// dozen rows each, whose scans touch far fewer cells than their histogram
/// has bins. What such a node costs must follow its rows: no cached
/// histogram where scanning beats subtracting, no replica lanes for a job
/// that is one row block.
#[test]
fn deep_trees_of_small_nodes_size_the_pool_and_the_arena_by_rows() {
    let data = prepared(DatasetKind::CriteoLike, 1.0, 7);
    let (tree_size, k, threads) = (10, 32, 4);
    let width = harpgbdt::hist::hist_width_for(&data.quantized);
    let mut barrier_preds: Vec<Vec<f32>> = Vec::new();
    for mode in [
        ParallelMode::DataParallel,
        ParallelMode::ModelParallel,
        ParallelMode::Sync,
        ParallelMode::Async,
    ] {
        let what = format!("{mode:?} criteo-like D{tree_size} K{k}");
        let out = lifecycle_run(&data, &data.train.labels, mode, tree_size, k, |p| {
            p.n_trees = 2;
            p.n_threads = threads;
        });
        assert_budget_aware_lifecycle(&out, &data, tree_size, k, &what);
        let summary = out.diagnostics.ledger.as_ref().expect("ledger enabled").summary();
        let get = |name: &str| summary.get(name).unwrap_or_else(|| panic!("{what}: no {name}"));
        assert!(
            get("counter/hist_cache_declined") > get("counter/hist_cache_hits"),
            "{what}: most splits are of nodes too small to cache"
        );
        let (replicated, exclusive) =
            (get("counter/plan_tasks_replicated"), get("counter/plan_tasks_exclusive"));
        assert_eq!(replicated + exclusive, get("plan/tasks"), "{what}: every task has one policy");
        // ASYNC plans only its first few, wide batches; MP replicates none.
        if matches!(mode, ParallelMode::DataParallel | ParallelMode::Sync) {
            assert!(exclusive > replicated, "{what}: most DP jobs are one row block");
        }
        // Jobs longer than batch_rows / threads number fewer than threads,
        // and only they have replica lanes (the arena rounds a grown replica
        // up to a power of two).
        let arena = ((threads - 1) * width).next_power_of_two() * threads * 8;
        assert!(
            get("mem/scratch_arena/high_water_bytes") <= arena as f64,
            "{what}: the replica arena grew to {} histograms",
            get("mem/scratch_arena/high_water_bytes") / (width * 8) as f64
        );
        if mode != ParallelMode::Async {
            barrier_preds.push(out.model.predict_raw(&data.test.features));
        }
    }
    assert!(barrier_preds.windows(2).all(|w| w[0] == w[1]), "DP, MP and SYNC models differ");
}

/// A wide sparse store — 4 096 CSR features, a node histogram some thousand
/// times a small node's entries — through the fused Exclusive executor
/// (DESIGN.md §11): a child gets a full-width buffer only if its histogram
/// can be filed, so the pool follows how many disjoint nodes are big enough
/// to cache (plus the root's buffer and one in flight), not how many
/// children a K = 32 batch has. At the parent commit MP gave every child of
/// the batch a buffer and cached them all.
#[test]
fn wide_sparse_histograms_exist_only_where_a_subtraction_reads_them() {
    let mut data = prepared(DatasetKind::YfccLike, 1.0, 7);
    // 16 bins keep a buffer near 1 MB: DP and SYNC's Replicated batches
    // still hold one per job.
    data.quantized = harpgbdt::QuantizedMatrix::from_matrix(
        &data.train.features,
        harpgbdt::BinningConfig::with_max_bins(16),
    );
    let width = harpgbdt::hist::hist_width_for(&data.quantized);
    let min_rows = harpgbdt::hist::min_cached_rows(&data.quantized);
    let big_nodes = data.quantized.n_rows() / min_rows;
    assert!(big_nodes >= 2, "some nodes must be cached for the subtraction to be exercised");
    let k = 32;
    for tree_size in [4, 6] {
        let mut barrier_preds: Vec<Vec<f32>> = Vec::new();
        for mode in [ParallelMode::DataParallel, ParallelMode::ModelParallel, ParallelMode::Sync] {
            let what = format!("{mode:?} yfcc-like D{tree_size} K{k}");
            let out = lifecycle_run(&data, &data.train.labels, mode, tree_size, k, |p| {
                // The MP blocks of the paper's fat-matrix runs (§IV-C); two
                // threads let SYNC's wide batches of big nodes go Exclusive.
                p.blocks = harpgbdt::BlockConfig {
                    node_blk_size: 8,
                    feature_blk_size: 32,
                    ..harpgbdt::BlockConfig::default()
                };
                p.n_threads = 2;
            });
            let ledger = out.diagnostics.ledger.as_ref().expect("ledger enabled");
            let summary = ledger.summary();
            let get = |name: &str| summary.get(name).unwrap_or_else(|| panic!("{what}: no {name}"));
            let splits: u32 = out.diagnostics.tree_shapes.iter().map(|s| s.n_leaves - 1).sum();
            assert_eq!(
                get("counter/hist_cache_hits") + get("counter/hist_cache_declined"),
                f64::from(splits),
                "{what}: every split finds its histogram, or was never meant to"
            );
            assert!(
                get("counter/hist_cache_hits") > 0.0 && get("counter/hist_cache_declined") > 0.0
            );
            assert_eq!(
                get("counter/hist_cache_misses"),
                0.0,
                "{what}: a dropped histogram was needed"
            );
            for r in ledger.records() {
                assert_eq!(r.n_leaves, 1 << tree_size, "{what}: round {} stopped short", r.round);
                let pops = (f64::from(r.n_leaves - 1) / r.mean_k_per_pop).round();
                assert_eq!(r.plan.batches as f64, pops, "{what}: round {} batches", r.round);
            }
            if mode == ParallelMode::ModelParallel {
                let pool = get("mem/hist_pool/high_water_bytes") / (width * 8) as f64;
                assert!(
                    pool <= (big_nodes + 2) as f64,
                    "{what}: pool grew to {pool} buffers with {big_nodes} cacheable nodes"
                );
                // Everything else lived in a tile pair per worker: a tile is
                // 32 features of 16 bins and a sink cell, two lanes each.
                let tile_pair = (2 * 32 * (16 + 1) * 2 * 8) as f64;
                assert!(get("mem/scratch_arena/high_water_bytes") <= 2.0 * tile_pair, "{what}");
            }
            barrier_preds.push(out.model.predict_raw(&data.test.features));
        }
        assert!(
            barrier_preds.windows(2).all(|w| w[0] == w[1]),
            "yfcc-like D{tree_size} K{k}: DP, MP and SYNC models differ"
        );
    }
}
