//! BlockPlan coverage properties.
//!
//! The plan layer is only correct if its task enumeration *partitions* the
//! ⟨row, node, feature, bin⟩ cube: every cell of one BuildHist batch must be
//! written by exactly one task (exclusive/MP) or touched exactly once per
//! replica pass (replicated/DP — each task accumulates privately, so "once"
//! means once across the whole enumeration; the reduction merges replicas).
//! These properties drive random shapes and block configs — including the
//! `0 = unlimited` sentinel, the sparse whole-feature special case, zero-row
//! jobs, and `BlockConfig::Auto` — through the shared enumerator.

use harpgbdt::plan::feature_blocks;
use harpgbdt::{Accumulation, BatchShape, BlockConfig, BlockPlan, BlockTask, ScanLayout};
use proptest::prelude::*;

/// An extent as users write it: 0 = unlimited, small explicit values, and a
/// value larger than any dimension in these cases.
const EXTENTS: [usize; 8] = [0, 1, 2, 3, 5, 7, 16, 1000];

/// Random explicit configs plus the Auto sentinel (drawn when the first
/// index hits the out-of-range value).
fn config() -> impl Strategy<Value = BlockConfig> {
    (0usize..9, 0usize..8, 0usize..8, 0usize..8).prop_map(|(r, n, f, b)| {
        if r == 8 {
            BlockConfig::Auto
        } else {
            BlockConfig {
                row_blk_size: EXTENTS[r],
                node_blk_size: EXTENTS[n],
                feature_blk_size: EXTENTS[f],
                bin_blk_size: EXTENTS[b].min(256),
            }
        }
    })
}

fn shape_and_jobs() -> impl Strategy<Value = (BatchShape, Vec<usize>)> {
    (1usize..12, any::<bool>(), 1usize..32, 1usize..8, prop::collection::vec(0usize..60, 1..6))
        .prop_map(|(m, dense, max_bins, threads, jobs)| {
            let layout = if dense { ScanLayout::DenseU8 } else { ScanLayout::Sparse };
            (
                BatchShape {
                    n_features: m,
                    layout,
                    max_bins,
                    total_bins: m * max_bins,
                    n_threads: threads,
                },
                jobs,
            )
        })
}

/// Every live ⟨job, feature, row⟩ cell exactly once; zero-row jobs skipped
/// entirely (their replica lanes would only add zeroes).
fn check_replicated(plan: &BlockPlan, shape: &BatchShape, job_lens: &[usize]) {
    let m = shape.n_features;
    let mut seen = vec![0u32; job_lens.len() * m * 60];
    for task in plan.tasks() {
        assert_eq!(task.jobs.len(), 1, "DP tasks are single-job");
        let j = task.jobs.start;
        assert!(job_lens[j] > 0, "zero-row job {j} must be skipped");
        assert!(task.bins.is_none(), "DP never bin-blocks");
        if !shape.layout.feature_sliceable() {
            assert_eq!(task.features, 0..m, "unsliceable rows are scanned whole");
        }
        let rows = task.row_range_for(job_lens[j]);
        assert_eq!(rows, task.rows, "DP row ranges are explicit, already clamped");
        for f in task.features.clone() {
            for r in rows.clone() {
                seen[(j * m + f) * 60 + r] += 1;
            }
        }
    }
    for (j, &len) in job_lens.iter().enumerate() {
        for f in 0..m {
            for r in 0..60 {
                let want = u32::from(r < len);
                assert_eq!(
                    seen[(j * m + f) * 60 + r],
                    want,
                    "cell (job {j}, feature {f}, row {r}) covered wrong number of times"
                );
            }
        }
    }
}

/// Every ⟨job, feature, bin⟩ cell exactly once — including zero-row jobs
/// (MP owns the write region; an empty scan still zeroes its lanes).
fn check_exclusive(plan: &BlockPlan, shape: &BatchShape, job_lens: &[usize]) {
    let m = shape.n_features;
    let b = shape.max_bins;
    let mut seen = vec![0u32; job_lens.len() * m * b];
    for task in plan.tasks() {
        assert_eq!(task.rows, BlockTask::ALL_ROWS, "MP tasks scan whole nodes");
        let bins = task.bins.map_or(0..b, |(lo, hi)| lo..hi.min(b));
        for j in task.jobs.clone() {
            for f in task.features.clone() {
                for bin in bins.clone() {
                    seen[(j * m + f) * b + bin] += 1;
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&c| c == 1),
        "exclusive plan must cover every (job, feature, bin) cell exactly once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replicated_plans_partition_the_cube(
        (shape, job_lens) in shape_and_jobs(),
        cfg in config(),
    ) {
        let mut plan = BlockPlan::new();
        plan.rebuild(&cfg, &shape, &job_lens, Accumulation::Replicated);
        prop_assert_eq!(plan.accumulation(), Some(Accumulation::Replicated));
        prop_assert_eq!(plan.extents().auto, cfg.is_auto());
        check_replicated(&plan, &shape, &job_lens);
    }

    #[test]
    fn exclusive_plans_partition_the_cube(
        (shape, job_lens) in shape_and_jobs(),
        cfg in config(),
    ) {
        let mut plan = BlockPlan::new();
        plan.rebuild(&cfg, &shape, &job_lens, Accumulation::Exclusive);
        prop_assert_eq!(plan.accumulation(), Some(Accumulation::Exclusive));
        check_exclusive(&plan, &shape, &job_lens);
    }

    #[test]
    fn feature_blocks_partition_features(m in 1usize..40, f_blk in 0usize..50) {
        let mut next = 0usize;
        for r in feature_blocks(m, f_blk) {
            // Blocks must be contiguous, non-empty, and cover 0..m.
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end > r.start, "blocks are non-empty");
            next = r.end;
        }
        prop_assert_eq!(next, m);
    }

    #[test]
    fn round_stats_accumulate_and_reset(
        (shape, job_lens) in shape_and_jobs(),
        cfg in config(),
    ) {
        let mut plan = BlockPlan::new();
        plan.rebuild(&cfg, &shape, &job_lens, Accumulation::Exclusive);
        let n1 = plan.tasks().len() as u64;
        plan.rebuild(&cfg, &shape, &job_lens, Accumulation::Exclusive);
        let (batches, tasks, ext) = plan.take_round_stats();
        prop_assert_eq!(batches, 2);
        prop_assert_eq!(tasks, 2 * n1);
        prop_assert_eq!(ext, plan.extents());
        // Take must reset the round counters.
        let (batches, tasks, _) = plan.take_round_stats();
        prop_assert_eq!((batches, tasks), (0, 0));
    }
}
