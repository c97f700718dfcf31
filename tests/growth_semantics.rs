//! Growth-policy semantics across the stack: TopK vs classic methods,
//! budgets, depth limits, and the synchronization-count claims.
//!
//! The TopK boundary battery pins Algorithm 1's corner cases: K=1
//! degenerates to classic best-first leafwise, K at or above the level
//! width degenerates depthwise to whole-level expansion, and intermediate K
//! never passes over a higher-gain candidate that sits in the same pop.
//!
//! The leaf-budget battery at the bottom drives a `GrowthQueue` and a
//! `HistPool` the way the trainer does and checks the invariants behind the
//! two ways a histogram is not held (DESIGN.md §18): one dropped with its
//! candidate, which ranked beyond the remaining leaf budget, is never asked
//! for, and one declined because its node is too small for the subtraction
//! to pay is declined again — not looked up — when the node splits. After
//! every pop and every push the queue holds no more candidates than leaves
//! are left, and no more histograms than candidates or the byte budget.

use harp_bench::prepared;
use harp_data::DatasetKind;
use harpgbdt::growth::{Candidate, GrowthQueue};
use harpgbdt::hist::HistPool;
use harpgbdt::split::SplitCandidate;
use harpgbdt::{GbdtTrainer, GrowthMethod, NodeStats, ParallelMode, SplitData, TrainParams};
use proptest::prelude::*;
use std::sync::Arc;

fn base() -> TrainParams {
    TrainParams {
        n_trees: 3,
        n_threads: 2,
        gamma: 0.0,
        hist_subtraction: false,
        ..Default::default()
    }
}

#[test]
fn leafwise_topk_k1_equals_classic_leafwise_tree_shapes() {
    let data = prepared(DatasetKind::HiggsLike, 0.03, 1);
    // k=1 IS classic leafwise; verify against an independent construction
    // path (depth-unlimited, budget-limited) by checking budget adherence
    // and that shapes match across two identical configs.
    let mk = || TrainParams { growth: GrowthMethod::Leafwise, k: 1, tree_size: 5, ..base() };
    let a = GbdtTrainer::new(mk())
        .unwrap()
        .train_store(&data.quantized, &data.train.labels, None);
    let b = GbdtTrainer::new(mk())
        .unwrap()
        .train_store(&data.quantized, &data.train.labels, None);
    for (sa, sb) in a.diagnostics.tree_shapes.iter().zip(&b.diagnostics.tree_shapes) {
        assert_eq!(sa.n_leaves, sb.n_leaves);
        assert_eq!(sa.max_depth, sb.max_depth);
        assert!(sa.n_leaves <= 32);
    }
}

#[test]
fn topk_leaf_budget_is_exact_when_gain_allows() {
    // With gamma=0 on a rich dataset, trees should grow to exactly 2^D
    // leaves for every K.
    let data = prepared(DatasetKind::Synset, 0.05, 2);
    for k in [1usize, 7, 32] {
        let params = TrainParams { growth: GrowthMethod::Leafwise, k, tree_size: 4, ..base() };
        let out = GbdtTrainer::new(params).unwrap().train_store(
            &data.quantized,
            &data.train.labels,
            None,
        );
        for s in &out.diagnostics.tree_shapes {
            assert_eq!(s.n_leaves, 16, "K={k}: expected a full 16-leaf tree");
        }
    }
}

#[test]
fn depthwise_k_variants_build_identical_trees() {
    // Fig. 6(a): depthwise TopK selects level subsets, same final tree.
    let data = prepared(DatasetKind::AirlineLike, 0.008, 3);
    let mk = |k: usize| TrainParams {
        growth: GrowthMethod::Depthwise,
        k,
        tree_size: 4,
        n_threads: 1,
        ..base()
    };
    let full =
        GbdtTrainer::new(mk(0))
            .unwrap()
            .train_store(&data.quantized, &data.train.labels, None);
    for k in [1usize, 3, 5] {
        let sub =
            GbdtTrainer::new(mk(k))
                .unwrap()
                .train_store(&data.quantized, &data.train.labels, None);
        assert_eq!(
            full.model.predict_raw(&data.test.features),
            sub.model.predict_raw(&data.test.features),
            "depthwise K={k} built a different tree"
        );
    }
}

#[test]
fn larger_k_means_fewer_synchronizations() {
    // The enabling claim of TopK (§IV-D): node_blk_size H cuts the for-loop
    // count from L to L/H; K batches similarly cut growth rounds.
    let data = prepared(DatasetKind::Synset, 0.05, 4);
    let regions = |k: usize| {
        let params = TrainParams {
            growth: GrowthMethod::Leafwise,
            k,
            tree_size: 6,
            mode: ParallelMode::DataParallel,
            ..base()
        };
        GbdtTrainer::new(params)
            .unwrap()
            .train_store(&data.quantized, &data.train.labels, None)
            .diagnostics
            .profile
            .regions
    };
    let r1 = regions(1);
    let r32 = regions(32);
    assert!(r32 * 4 < r1, "K=32 should slash synchronization counts: K1={r1} vs K32={r32}");
}

#[test]
fn async_mode_trades_barriers_for_lock_traffic() {
    let data = prepared(DatasetKind::Synset, 0.05, 5);
    let run = |mode| {
        let params = TrainParams {
            growth: GrowthMethod::Leafwise,
            k: 32,
            tree_size: 7,
            mode,
            n_threads: 4,
            ..base()
        };
        GbdtTrainer::new(params)
            .unwrap()
            .train_store(&data.quantized, &data.train.labels, None)
    };
    let dp = run(ParallelMode::DataParallel);
    let asy = run(ParallelMode::Async);
    assert!(
        asy.diagnostics.profile.regions < dp.diagnostics.profile.regions,
        "ASYNC must use fewer fork/join regions: {} vs {}",
        asy.diagnostics.profile.regions,
        dp.diagnostics.profile.regions
    );
    // And it must still build full trees.
    for s in &asy.diagnostics.tree_shapes {
        assert!(s.n_leaves > 64, "ASYNC tree stunted: {} leaves", s.n_leaves);
    }
}

#[test]
fn min_child_weight_prunes_thin_leaves() {
    let data = prepared(DatasetKind::CriteoLike, 0.04, 6);
    let leaves = |mcw: f64| {
        let params = TrainParams {
            growth: GrowthMethod::Leafwise,
            k: 1,
            tree_size: 7,
            min_child_weight: mcw,
            ..base()
        };
        let out = GbdtTrainer::new(params).unwrap().train_store(
            &data.quantized,
            &data.train.labels,
            None,
        );
        out.diagnostics.tree_shapes.iter().map(|s| s.n_leaves as usize).sum::<usize>()
    };
    let loose = leaves(1.0);
    let strict = leaves(50.0);
    assert!(strict < loose, "min_child_weight=50 should shrink trees: {strict} vs {loose}");
}

// ---------------------------------------------------------------------------
// TopK boundary battery.

fn split_cand(gain: f64) -> SplitCandidate {
    SplitCandidate {
        split: SplitData { feature: 0, bin: 0, threshold: 0.0, default_left: false, gain },
        left: NodeStats::default(),
        right: NodeStats::default(),
    }
}

/// Queues `node` with no histogram and no leaf budget.
fn push(q: &mut GrowthQueue, node: u32, depth: u32, gain: f64) {
    let pool = &mut HistPool::new(0, 0, 0, 0, Arc::default(), Arc::default());
    q.push(Candidate { node, depth, cand: split_cand(gain), hist: None }, usize::MAX, pool);
}

/// Random candidate pool with deliberately coarse gains (so ties are common)
/// and shallow depths (so depthwise levels hold several nodes).
fn candidate_pool() -> impl Strategy<Value = Vec<(f64, u32)>> {
    proptest::collection::vec((0u8..8, 0u32..4), 1..40)
        .prop_map(|v| v.into_iter().map(|(g, d)| (f64::from(g) * 0.5, d)).collect())
}

#[test]
fn leafwise_huge_k_matches_depthwise_when_gain_limits_growth() {
    // K >= 2^depth boundary: once every queued candidate fits in one pop,
    // leafwise TopK expands whole frontiers exactly like depthwise. With
    // growth stopped by gain (never by the leaf budget or the depthwise
    // depth limit), the two methods must build the same trees.
    let data = prepared(DatasetKind::HiggsLike, 0.02, 9);
    let mk = |growth, k| TrainParams {
        growth,
        k,
        tree_size: 10, // depthwise depth limit; gain must stop growth first
        gamma: 1.0,
        n_trees: 3,
        n_threads: 2,
        hist_subtraction: false,
        ..Default::default()
    };
    let leaf = GbdtTrainer::new(mk(GrowthMethod::Leafwise, 1 << 10)).unwrap().train_store(
        &data.quantized,
        &data.train.labels,
        None,
    );
    let depth = GbdtTrainer::new(mk(GrowthMethod::Depthwise, 0)).unwrap().train_store(
        &data.quantized,
        &data.train.labels,
        None,
    );
    for s in &leaf.diagnostics.tree_shapes {
        assert!(
            s.max_depth < 10,
            "precondition broken: gain did not stop growth before the depth limit"
        );
    }
    assert_eq!(
        leaf.model.predict_raw(&data.test.features),
        depth.model.predict_raw(&data.test.features),
        "leafwise K >= 2^depth must degenerate to depthwise growth"
    );
}

#[test]
fn depthwise_k_at_level_width_equals_unbounded_k() {
    // The other side of the boundary, checked at the model level: K = 2^D
    // can never truncate a level (levels hold at most 2^D nodes), so it must
    // match K = 0 (pop whole levels) exactly.
    let data = prepared(DatasetKind::AirlineLike, 0.008, 10);
    let mk = |k| TrainParams {
        growth: GrowthMethod::Depthwise,
        k,
        tree_size: 4,
        n_trees: 3,
        n_threads: 2,
        gamma: 0.0,
        hist_subtraction: false,
        ..Default::default()
    };
    let bounded = GbdtTrainer::new(mk(1 << 4)).unwrap().train_store(
        &data.quantized,
        &data.train.labels,
        None,
    );
    let unbounded =
        GbdtTrainer::new(mk(0))
            .unwrap()
            .train_store(&data.quantized, &data.train.labels, None);
    assert_eq!(
        bounded.model.predict_raw(&data.test.features),
        unbounded.model.predict_raw(&data.test.features),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// K=1 boundary: draining a leafwise queue one pop at a time is classic
    /// best-first growth — gains come out non-increasing, and equal gains
    /// come out in push (FIFO) order.
    #[test]
    fn leafwise_k1_drains_best_first_with_fifo_ties(pool in candidate_pool()) {
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        for (i, &(gain, depth)) in pool.iter().enumerate() {
            push(&mut q, i as u32, depth, gain);
        }
        let mut popped: Vec<Candidate> = Vec::new();
        loop {
            let batch = q.pop_batch(1);
            prop_assert!(batch.len() <= 1);
            match batch.into_iter().next() {
                Some(c) => popped.push(c),
                None => break,
            }
        }
        prop_assert_eq!(popped.len(), pool.len());
        for w in popped.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            prop_assert!(
                a.cand.split.gain >= b.cand.split.gain,
                "gain order violated: {} before {}", a.cand.split.gain, b.cand.split.gain
            );
            if a.cand.split.gain == b.cand.split.gain {
                // Node id doubles as push order above.
                prop_assert!(a.node < b.node, "FIFO tie-break violated: {} before {}", a.node, b.node);
            }
        }
    }

    /// K >= level width boundary at the queue level: a depthwise pop sized
    /// to the shallowest level returns exactly that level, best gain first.
    #[test]
    fn depthwise_pop_at_level_width_takes_whole_shallowest_level(pool in candidate_pool()) {
        let mut q = GrowthQueue::new(GrowthMethod::Depthwise);
        for (i, &(gain, depth)) in pool.iter().enumerate() {
            push(&mut q, i as u32, depth, gain);
        }
        let min_depth = pool.iter().map(|&(_, d)| d).min().unwrap();
        let width = pool.iter().filter(|&&(_, d)| d == min_depth).count();
        let batch = q.pop_batch(width);
        prop_assert_eq!(batch.len(), width);
        for c in &batch {
            prop_assert!(
                c.depth == min_depth,
                "pop sized to the level width must not reach into depth {}", c.depth
            );
        }
        for rest in q.pop_batch(usize::MAX) {
            prop_assert!(rest.depth > min_depth, "left a depth-{} node behind", rest.depth);
        }
    }

    /// Intermediate K never passes over a better sibling: every candidate
    /// left in the queue with the same depth key ranks at or below the worst
    /// member of the pop (gain, with FIFO ties).
    #[test]
    fn intermediate_k_never_skips_a_higher_gain_candidate(
        pool in candidate_pool(),
        k in 1usize..8,
        depthwise in any::<bool>(),
    ) {
        let method = if depthwise { GrowthMethod::Depthwise } else { GrowthMethod::Leafwise };
        let mut q = GrowthQueue::new(method);
        for (i, &(gain, depth)) in pool.iter().enumerate() {
            push(&mut q, i as u32, depth, gain);
        }
        let batch = q.pop_batch(k);
        prop_assert_eq!(batch.len(), k.min(pool.len()));
        // The frontier the pop was competing against: leafwise ranks the
        // whole queue together; depthwise ranks within a level.
        let same_level = |c: &Candidate, d: u32| !depthwise || c.depth == d;
        let deepest_popped = batch.iter().map(|c| c.depth).max().unwrap_or(0);
        let worst = batch
            .iter()
            .filter(|c| same_level(c, deepest_popped))
            .map(|c| (c.cand.split.gain, c.node))
            .fold((f64::INFINITY, 0u32), |(g, n), (cg, cn)| if cg < g { (cg, cn) } else { (g, n) });
        for rest in q.pop_batch(usize::MAX) {
            if depthwise {
                // Nothing shallower than the deepest popped node may remain.
                prop_assert!(
                    rest.depth >= deepest_popped,
                    "unexpanded depth-{} node outranks the depth-{} pop", rest.depth, deepest_popped
                );
            }
            if same_level(&rest, deepest_popped) {
                prop_assert!(
                    rest.cand.split.gain <= worst.0,
                    "left gain {} queued while the pop kept gain {}", rest.cand.split.gain, worst.0
                );
                if rest.cand.split.gain == worst.0 {
                    prop_assert!(
                        rest.node > worst.1,
                        "FIFO tie-break: queued node {} outranks popped node {}", rest.node, worst.1
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Leaf-budget battery: the histogram lifecycle under `R = max_leaves − leaves`.

/// One tree's growth state as the trainer's frontier carries it — the
/// queue, the histogram pool and the leaf count — with node ids and depths
/// handed out as `Tree::apply_split` does, FindSplit replaced by a scripted
/// outcome per child and ApplySplit by a scripted share of the parent's rows.
struct Growth {
    queue: GrowthQueue,
    pool: HistPool,
    profile: Arc<harp_parallel::Profile>,
    max_leaves: usize,
    leaves: usize,
    /// How many histograms the pool's byte budget holds.
    byte_cap: usize,
    /// How many claims a budget read may lag behind: the queue may hold that
    /// many candidates beyond the leaves left.
    lag: usize,
    /// Row count per node id; the next node's id is its length.
    rows: Vec<usize>,
    /// Whether the pool said it caches the node when its histogram was filed.
    filed: Vec<bool>,
    /// Children at this depth are ineligible (the depthwise limit).
    depth_limit: u32,
    /// FindSplit results in arrival order, cycled: a gain, or no split.
    outcomes: Vec<Option<f64>>,
    /// The left child's eighths of its parent's rows, cycled.
    shares: Vec<usize>,
    drawn: usize,
    pops: u64,
}

/// The pool's shape: 64 bins over 4 dense columns.
const POOL_BINS: u32 = 64;
const POOL_COLS: usize = 4;

/// The pool caches a node from this many rows up. The pool is given its
/// threshold rather than priced from a store (`hist::min_cached_rows`):
/// these checks are about what a threshold does to filing and lookups, not
/// where it sits.
const POOL_MIN_ROWS: usize = 17;

/// Bytes of one such histogram: each bin and each feature's sink cell, two
/// `f64` lanes each.
const HIST_BYTES: usize = (POOL_BINS as usize + POOL_COLS) * 16;

impl Growth {
    fn new(
        depthwise: bool,
        max_leaves: usize,
        root_rows: usize,
        (byte_cap, lag): (usize, usize),
        outcomes: Vec<Option<f64>>,
        shares: Vec<usize>,
    ) -> Self {
        let method = if depthwise { GrowthMethod::Depthwise } else { GrowthMethod::Leafwise };
        let profile = Arc::new(harp_parallel::Profile::new());
        let budget = byte_cap.saturating_mul(HIST_BYTES);
        let mut g = Self {
            queue: GrowthQueue::new(method),
            pool: HistPool::new(
                POOL_BINS,
                POOL_COLS,
                POOL_MIN_ROWS,
                budget,
                Arc::clone(&profile),
                Arc::default(),
            ),
            profile,
            max_leaves,
            leaves: 1,
            byte_cap,
            lag,
            rows: vec![root_rows],
            filed: vec![false],
            depth_limit: if depthwise {
                max_leaves.next_power_of_two().trailing_zeros()
            } else {
                u32::MAX
            },
            outcomes,
            shares,
            drawn: 0,
            pops: 0,
        };
        g.file(0, 0, 1.0, max_leaves - 1).expect("the root is filed");
        g
    }

    /// The unspent leaf budget R.
    fn remaining(&self) -> usize {
        self.max_leaves - self.leaves
    }

    /// The bounds after every pop and every push: no more candidates queued
    /// than leaves are left (give or take the lag), and no more histograms
    /// held than candidates queued or the byte budget holds.
    fn check_bounds(&self) -> Result<(), TestCaseError> {
        let (queued, held, remaining) = (self.queue.len(), self.queue.held(), self.remaining());
        prop_assert!(
            queued <= remaining + self.lag,
            "{queued} candidates queued with {remaining} leaves left and a lag of {}",
            self.lag
        );
        prop_assert!(
            held <= queued.min(self.byte_cap),
            "{held} histograms held by {queued} candidates, {} fit",
            self.byte_cap
        );
        Ok(())
    }

    /// Queues `node` as a candidate with its histogram, if the pool keeps
    /// it: a node the pool declines holds none.
    fn file(
        &mut self,
        node: u32,
        depth: u32,
        gain: f64,
        remaining_seen: usize,
    ) -> Result<(), TestCaseError> {
        let rows = self.rows[node as usize];
        self.filed[node as usize] = self.pool.caches(rows);
        let buf = self.pool.alloc().zeroed();
        let hist = self.pool.keep(buf, rows);
        prop_assert_eq!(hist.is_some(), self.filed[node as usize]);
        let cand = split_cand(gain);
        self.queue
            .push(Candidate { node, depth, cand, hist }, remaining_seen, &mut self.pool);
        self.check_bounds()
    }

    /// Pops up to `k` candidates — never more than the leaves left, which a
    /// lagging read may have let the queue outnumber — and splits them: each
    /// spends a leaf and asks the pool for its histogram, which must still
    /// be there unless the byte budget evicted one — or the pool declined it
    /// when it was filed, and then it declines again.
    fn pop(&mut self, k: usize) -> Result<Vec<Candidate>, TestCaseError> {
        let mut batch = self.queue.pop_batch(k.min(self.remaining()));
        for c in &mut batch {
            self.leaves += 1;
            self.pops += 1;
            let filed = self.filed[c.node as usize];
            let hist = self.pool.lookup(c.hist.take(), self.rows[c.node as usize]);
            let evicted = self.profile.snapshot().hist_cache_evictions > 0;
            prop_assert!(
                hist.is_some() == filed || (evicted && filed),
                "node {} ({} rows, gain {}, depth {}) popped with {} leaves left: filed {}, found {}",
                c.node, self.rows[c.node as usize], c.cand.split.gain, c.depth,
                self.remaining() + 1, filed, hist.is_some()
            );
            if let Some(hist) = hist {
                self.pool.release(hist);
            }
        }
        self.check_bounds()?;
        Ok(batch)
    }

    /// Builds, searches and queues `parent`'s two children under the leaf
    /// budget the caller read.
    fn publish_children(
        &mut self,
        parent: &Candidate,
        remaining_seen: usize,
    ) -> Result<(), TestCaseError> {
        let parent_rows = self.rows[parent.node as usize];
        let left_rows = parent_rows * self.shares[self.drawn % self.shares.len()] / 8;
        for rows in [left_rows, parent_rows - left_rows] {
            let node = self.rows.len() as u32;
            self.rows.push(rows);
            self.filed.push(false);
            let outcome = self.outcomes[self.drawn % self.outcomes.len()];
            self.drawn += 1;
            let depth = parent.depth + 1;
            if let Some(gain) = outcome.filter(|_| depth < self.depth_limit && rows >= 2) {
                self.file(node, depth, gain, remaining_seen)?;
            }
        }
        Ok(())
    }

    /// Every pop either hit, was declined or missed a histogram the byte
    /// budget evicted; without byte pressure none missed.
    fn check_counters(&self) -> Result<(), TestCaseError> {
        let c = self.profile.snapshot();
        prop_assert!(c.hist_cache_misses <= c.hist_cache_evictions);
        prop_assert_eq!(c.hist_cache_hits + c.hist_cache_misses + c.hist_cache_declined, self.pops);
        Ok(())
    }
}

/// Scripted FindSplit outcomes: coarse gains (heavy ties) and one child in
/// eight without a split.
fn outcome_stream() -> impl Strategy<Value = Vec<Option<f64>>> {
    proptest::collection::vec(0u8..8, 1..200)
        .prop_map(|v| v.into_iter().map(|g| (g > 0).then(|| f64::from(g) * 0.5)).collect())
}

/// Left-child shares of a parent's rows, in eighths.
fn share_stream() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..8, 1..32)
}

/// How many histograms the byte budget holds: mostly more than any tree
/// here needs, sometimes one to three, so that it presses.
fn byte_cap() -> impl Strategy<Value = usize> {
    (0usize..7).prop_map(|i| i.checked_sub(3).filter(|&cap| cap > 0).unwrap_or(usize::MAX))
}

/// Root sizes from under the pool's 17-row caching threshold to some 35x of
/// it, so trees mix cached and declined nodes at every depth.
const ROOT_ROWS: std::ops::Range<usize> = 2..600;

const K_CHOICES: [usize; 4] = [1, 4, 32, usize::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Barrier order (`TreeEngine::step` on K claims): pop K, spend K leaves, publish the
    /// children under what is left. No pop misses a histogram but one the
    /// byte budget evicted, a node too small to cache is declined when filed
    /// and when popped alike, the queue never holds more candidates than
    /// leaves are left nor more histograms than candidates or the byte
    /// budget, and once the budget is spent it holds nothing.
    #[test]
    fn trimming_to_the_leaf_budget_never_drops_a_needed_histogram(
        outcomes in outcome_stream(),
        shares in share_stream(),
        root_rows in ROOT_ROWS,
        depthwise in any::<bool>(),
        k_idx in 0usize..4,
        max_leaves in 2usize..65,
        byte_cap in byte_cap(),
    ) {
        let mut g = Growth::new(depthwise, max_leaves, root_rows, (byte_cap, 0), outcomes, shares);
        loop {
            let batch = g.pop(K_CHOICES[k_idx])?;
            if batch.is_empty() {
                break;
            }
            let remaining = g.remaining();
            for c in &batch {
                g.publish_children(c, remaining)?;
            }
            // At R = 0 nothing is queued (the trainer builds none of these
            // histograms: nothing can read them).
            if remaining == 0 {
                prop_assert!(g.queue.is_empty());
            }
        }
        g.check_counters()?;
    }

    /// ASYNC order (`async_mode`): up to T node tasks in flight, each
    /// popping one candidate (with its leaf and its histogram) when it
    /// starts and publishing its children whenever it finishes, under a
    /// budget read that may lag by up to T claims — a lag only loosens the
    /// cap, since the leaf count never falls. Same guarantees.
    #[test]
    fn async_interleaving_never_drops_a_needed_histogram(
        outcomes in outcome_stream(),
        shares in share_stream(),
        root_rows in ROOT_ROWS,
        depthwise in any::<bool>(),
        max_leaves in 2usize..65,
        t in 1usize..5,
        byte_cap in byte_cap(),
        schedule in proptest::collection::vec((any::<bool>(), 0usize..8, 0usize..5), 1..64),
    ) {
        let mut g = Growth::new(depthwise, max_leaves, root_rows, (byte_cap, t), outcomes, shares);
        let mut in_flight: Vec<Candidate> = Vec::new();
        for step in 0.. {
            let (start, pick, lag) = schedule[step % schedule.len()];
            if start && in_flight.len() < t {
                if let Some(c) = g.pop(1)?.pop() {
                    in_flight.push(c);
                    continue;
                }
            }
            if in_flight.is_empty() {
                if g.pop(1)?.pop().map(|c| in_flight.push(c)).is_none() {
                    break;
                }
                continue;
            }
            let task = in_flight.swap_remove(pick % in_flight.len());
            let remaining = g.remaining();
            if remaining > 0 {
                g.publish_children(&task, remaining + lag.min(t))?;
            }
        }
        prop_assert!(g.remaining() == 0 || g.queue.is_empty());
        g.check_counters()?;
    }
}
