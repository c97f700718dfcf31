//! One tree's growth state, and the three steps every mode takes on it.
//!
//! [`Frontier`] owns the tree being grown, the growth queue, the histogram
//! pool and the leaf count. The barrier loop calls it directly, ASYNC's node
//! tasks under a spin lock (`async_mode`); either way the split step
//! (`TreeEngine::step`) takes a split through
//!
//! 1. [`claim`](Frontier::claim) — popped with the histogram its queue
//!    entry holds, its leaf spent and the split applied to the tree in one
//!    step, so node ids are given out in claim order, and the queue, which
//!    never holds more candidates than leaves are left, needs no trim;
//! 2. [`children`](Frontier::children) — the children's row counts written
//!    and their histograms planned: which child is scanned and which
//!    derived as `parent − small`; a parent nothing will read is released,
//!    and nothing is planned once the budget is spent;
//! 3. [`file`](Frontier::file) — the expanded children are queued
//!    small-first, each with its full-width histogram where the pool keeps
//!    it for the next subtraction; the queue drops what the budgets leave
//!    no room for.
//!
//! ASYNC's node tasks work off the same queue and nothing else:
//! [`claim_task`](Frontier::claim_task) is `claim(1)` under the cap of K
//! claims in flight, and answers whether the phase is drained — nothing
//! can be claimed and no task holds a claim, so no task can file more.
//!
//! Nothing width-sized runs in here: [`equip`](Frontier::equip) pops a
//! buffer off the free list and the caller zero-fills it, outside any lock.
//! [`finish`](Frontier::finish) hands the grown tree back.

use super::drivers::{DerivedSibling, TileJob};
use crate::growth::{Candidate, GrowthQueue};
use crate::hist::{HistPool, StaleHist};
use crate::params::TrainParams;
use crate::partition::RowPartition;
use crate::split::SplitCandidate;
use crate::tree::{NodeId, NodeStats, SplitData, Tree};
use harp_parallel::{Profile, QueueOutcome};

/// A split [`claim`](Frontier::claim)ed off the queue and applied to the
/// tree.
pub(super) struct Claim {
    /// The split node.
    pub node: NodeId,
    pub split: SplitData,
    /// The ids its two children were given.
    pub kids: [NodeId; 2],
    /// The node's histogram, if its queue entry held one.
    pub parent: Option<Vec<f64>>,
}

/// A batch's planned children: the job list the fills take, plus what the
/// queue needs and a [`TileJob`] does not carry.
#[derive(Default)]
pub(super) struct Children {
    pub jobs: Vec<TileJob>,
    /// Per job: its depth, and whether it is the larger child of a split
    /// whose smaller child is scanned too.
    placed: Vec<(u32, bool)>,
}

impl Children {
    fn push(
        &mut self,
        (node, stats): (NodeId, NodeStats),
        sibling: Option<DerivedSibling>,
        depth: u32,
        second: bool,
    ) {
        self.jobs.push(TileJob { node, stats, buf: None, sibling });
        self.placed.push((depth, second));
    }
}

/// See the module docs.
pub(super) struct Frontier<'a> {
    tree: Tree,
    queue: GrowthQueue,
    pub hists: HistPool,
    leaves: usize,
    /// ASYNC node tasks holding a claim whose children are not filed yet.
    in_flight: usize,
    params: &'a TrainParams,
    profile: &'a Profile,
}

impl<'a> Frontier<'a> {
    pub fn new(params: &'a TrainParams, profile: &'a Profile, hists: HistPool) -> Self {
        let tree = Tree::new_root(NodeStats::default());
        let queue = GrowthQueue::new(params.growth);
        Self { tree, queue, hists, leaves: 1, in_flight: 0, params, profile }
    }

    /// Starts a tree at a root holding `stats`: the root's histogram is the
    /// one job planned.
    pub fn root(&mut self, stats: NodeStats) -> Children {
        self.tree = Tree::new_root(stats);
        let mut root = Children::default();
        root.push((0, stats), None, 0, false);
        root
    }

    /// Ends a tree and hands it back: the candidates left in the queue stay
    /// leaves and their histograms are recycled.
    pub fn finish(&mut self) -> Tree {
        debug_assert_eq!(self.in_flight, 0, "a tree finished under a node task");
        self.queue.clear(&mut self.hists);
        self.leaves = 1;
        std::mem::replace(&mut self.tree, Tree::new_root(NodeStats::default()))
    }

    /// The unspent leaf budget.
    pub fn remaining(&self) -> usize {
        self.params.max_leaves() - self.leaves
    }

    /// How many candidates wait to be split — never more than
    /// [`remaining`](Self::remaining).
    pub fn width(&self) -> usize {
        self.queue.len()
    }

    /// Whether a [`claim`](Self::claim) would return anything.
    pub fn open(&self) -> bool {
        self.remaining() > 0 && !self.queue.is_empty()
    }

    /// Whether a node at `depth` holding `count` rows may be split further.
    fn eligible(&self, depth: u32, count: u32) -> bool {
        depth < self.params.max_depth() && count >= 2
    }

    /// Pops up to `k` of the best candidates — the queue holds none the
    /// budget cannot pay for — and applies each split to the tree, in pop
    /// order, taking the histogram its entry holds.
    pub fn claim(&mut self, k: usize, partition: &RowPartition) -> Vec<Claim> {
        debug_assert!(self.queue.len() <= self.remaining());
        let batch = self.queue.pop_batch(k);
        batch
            .into_iter()
            .map(|Candidate { node, cand, hist, .. }| {
                self.leaves += 1;
                let parent = self.hists.lookup(hist, partition.node_len(node));
                let (l, r) = self.tree.apply_split(node, cand.split, cand.left, cand.right);
                Claim { node, split: cand.split, kids: [l, r], parent }
            })
            .collect()
    }

    /// Claims the best candidate for an ASYNC node task, as `claim(1)`,
    /// unless `k` tasks already hold a claim. [`Retry`](QueueOutcome::Retry)
    /// while nothing can be claimed but a task in flight may still file
    /// children, [`Drained`](QueueOutcome::Drained) once none is in flight.
    /// A task holds its claim until [`task_done`](Self::task_done).
    pub fn claim_task(&mut self, k: usize, partition: &RowPartition) -> QueueOutcome<Vec<Claim>> {
        if self.in_flight < k && self.open() {
            self.in_flight += 1;
            QueueOutcome::Task(self.claim(1, partition))
        } else if self.in_flight > 0 {
            QueueOutcome::Retry
        } else {
            QueueOutcome::Drained
        }
    }

    /// Ends a node task's claim once its children are filed.
    pub fn task_done(&mut self) {
        debug_assert!(self.in_flight > 0, "task_done without a claim_task");
        self.in_flight -= 1;
    }

    /// Writes the row counts of a claimed split's two children into the tree
    /// and plans their histograms into `into`: the smaller child scanned and the
    /// larger derived from `parent` where that histogram is at hand and both
    /// may split, every eligible child scanned otherwise — a parent too
    /// small to have been cached (`hist::min_cached_rows`) comes back `None`
    /// like an evicted one. Smaller child first either way: the queue's FIFO
    /// order breaks gain ties and so shapes the tree, and must not depend on
    /// the cache. Once the budget is spent no child can ever split, and none
    /// gets a histogram.
    pub fn children(
        &mut self,
        parent: Option<Vec<f64>>,
        counts: [(NodeId, u32); 2],
        into: &mut Children,
    ) {
        let [l, r] = counts.map(|(node, count)| {
            let stats = &mut self.tree.node_mut(node).stats;
            stats.count = count;
            (node, *stats)
        });
        let depth = self.tree.node(l.0).depth;
        let [small, large] = if l.1.count <= r.1.count { [l, r] } else { [r, l] };
        let eligible = [small, large].map(|(_, stats)| self.eligible(depth, stats.count));
        let spent = self.remaining() == 0;
        match parent {
            Some(parent) if eligible == [true; 2] && !spent => {
                let (node, stats) = large;
                let sibling = DerivedSibling { node, stats, parent, in_place: true };
                into.push(small, Some(sibling), depth, false);
            }
            unused => {
                if let Some(parent) = unused {
                    self.hists.release(parent);
                }
                if spent {
                    let skipped = eligible.iter().filter(|&&e| e).count();
                    self.profile.add_hist_builds_skipped(skipped as u64);
                    return;
                }
                let second = [false, eligible[0]];
                for ((child, eligible), second) in
                    [small, large].into_iter().zip(eligible).zip(second)
                {
                    if eligible {
                        into.push(child, None, depth, second);
                    }
                }
            }
        }
    }

    /// Hands `job` its buffers: a stale full-width buffer off the free list
    /// (the caller zero-fills it, outside any lock) and, for a derived
    /// sibling, whether it takes over the parent's. A `fused` batch — in
    /// core, Exclusive — holds a full-width buffer only for a histogram that
    /// can be filed, and only the parent's own for a sibling that can; every
    /// other batch gives every job one.
    pub fn equip(
        &mut self,
        job: &mut TileJob,
        fused: bool,
        partition: &RowPartition,
    ) -> Option<StaleHist> {
        let remaining = self.remaining();
        let full = |node| !fused || self.hists.files(partition.node_len(node), remaining);
        if let Some(sibling) = &mut job.sibling {
            sibling.in_place = full(sibling.node);
        }
        full(job.node).then(|| self.hists.alloc())
    }

    /// Queues the expanded children (`found[j]`: the best split of job `j`'s
    /// node and of its derived sibling), each with its full-width histogram
    /// where the pool keeps it: the smaller (or only) child of every split
    /// in batch order, then the larger children in batch order — whether
    /// derived or scanned, so the caching rule moves cost, never a tie. A
    /// child with no admissible split stays a leaf and its buffer is
    /// recycled.
    pub fn file(&mut self, children: Children, found: Vec<[Option<SplitCandidate>; 2]>) {
        let mut built = Vec::with_capacity(2 * found.len());
        let expanded = children.jobs.into_iter().zip(children.placed).zip(found);
        for ((job, (depth, second)), [cand, sibling_cand]) in expanded {
            built.push((second, depth, job.node, job.stats, job.buf, cand));
            if let Some(DerivedSibling { node, stats, parent, in_place }) = job.sibling {
                // In place, the parent's buffer became the sibling's histogram.
                let buf = if in_place {
                    Some(parent)
                } else {
                    self.hists.release(parent);
                    None
                };
                built.push((true, depth, node, stats, buf, sibling_cand));
            }
        }
        built.sort_by_key(|&(second, ..)| second);
        for (_, depth, node, stats, buf, cand) in built {
            let Some(cand) = cand else {
                if let Some(buf) = buf {
                    self.hists.release(buf);
                }
                continue;
            };
            let hist = buf.and_then(|buf| self.hists.keep(buf, stats.count as usize));
            let candidate = Candidate { node, depth, cand, hist };
            self.queue.push(candidate, self.remaining(), &mut self.hists);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_metrics::MemTable;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// The fewest rows of a node the test pool caches.
    const MIN_CACHED_ROWS: usize = 2;

    /// A pool of four-feature, four-bin histograms counting into `profile`
    /// and `mem` that caches nodes of [`MIN_CACHED_ROWS`] rows or more.
    fn pool(profile: &Arc<Profile>, mem: &Arc<MemTable>) -> HistPool {
        HistPool::new(4, 4, MIN_CACHED_ROWS, usize::MAX, Arc::clone(profile), Arc::clone(mem))
    }

    fn params(tree_size: u32) -> TrainParams {
        TrainParams { tree_size, ..Default::default() }
    }

    fn stats(count: u32) -> NodeStats {
        NodeStats { g: 0.0, h: f64::from(count), count }
    }

    fn split(gain: f64) -> SplitData {
        SplitData { feature: 0, bin: 0, threshold: 0.0, default_left: false, gain }
    }

    fn cand(gain: f64) -> Option<SplitCandidate> {
        Some(SplitCandidate { split: split(gain), left: stats(0), right: stats(0) })
    }

    /// Splits each of `parents` in `frontier`'s tree, in order.
    fn grow(frontier: &mut Frontier<'_>, parents: &[NodeId]) {
        for &parent in parents {
            frontier.tree.apply_split(parent, split(0.0), stats(0), stats(0));
        }
    }

    /// Gives every planned job a full-width buffer, as a Replicated batch
    /// does.
    fn equip(frontier: &mut Frontier<'_>, children: &mut Children) {
        for job in &mut children.jobs {
            job.buf = Some(frontier.hists.alloc().zeroed());
        }
    }

    /// 32 rows cut into the leaves 1 (1 row), 3, 5, 7 (10 rows each) and 8
    /// (1 row), in the partition and in `frontier`'s tree.
    fn five_leaves(frontier: &mut Frontier<'_>) -> RowPartition {
        let mut partition = RowPartition::new(32, 16, false);
        partition.reset(&[[0.0, 1.0]; 32]);
        for (parent, last_left) in [(0, 0), (2, 10), (4, 20), (6, 30)] {
            partition.apply_split(parent, parent + 1, parent + 2, &|_, r| r <= last_left, None);
        }
        grow(frontier, &[0, 2, 4, 6]);
        partition
    }

    /// Files the leaves of [`five_leaves`] at the given gains.
    fn file_five_leaves(frontier: &mut Frontier<'_>, partition: &RowPartition, gains: [f64; 5]) {
        frontier.leaves = 5;
        let mut leaves = Children::default();
        for node in [1, 3, 5, 7, 8] {
            leaves.push((node, stats(partition.node_len(node) as u32)), None, 3, false);
        }
        equip(frontier, &mut leaves);
        let found = gains.map(|gain| [cand(gain), None]).to_vec();
        frontier.file(leaves, found);
    }

    #[test]
    fn claim_keeps_the_cache_within_the_budget_each_pop_leaves() {
        let (params, profile) = (params(3), Arc::new(Profile::new()));
        let mut frontier = Frontier::new(&params, &profile, pool(&profile, &Arc::default()));
        let partition = five_leaves(&mut frontier);
        // Five leaves of eight, every one a candidate, the best and the worst
        // too small to be cached — R = 3. Nodes 7 and 8 rank beyond R: they
        // can never pop, and are dropped on sight, node 7's histogram with
        // it. Nodes 3 and 5 hold theirs.
        file_five_leaves(&mut frontier, &partition, [9.0, 7.0, 5.0, 3.0, 1.0]);
        assert_eq!((frontier.width(), frontier.queue.held()), (3, 2));
        let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(count(&profile.hist_cache_trimmed), 1);

        // The first pop takes nothing out, the second node 3's histogram;
        // node 5 keeps its own with R = 1, and nothing is trimmed at a pop.
        let batch = frontier.claim(2, &partition);
        let nodes: Vec<_> = batch.iter().map(|c| (c.node, c.parent.is_some())).collect();
        assert_eq!(nodes, [(1, false), (3, true)]);
        assert_eq!((frontier.remaining(), frontier.queue.held()), (1, 1));
        assert_eq!(count(&profile.hist_cache_trimmed), 1);
        assert_eq!(count(&profile.hist_cache_misses), 0);
        // One pop at a time, the invariant is visible after each.
        while frontier.open() {
            frontier.claim(1, &partition);
            assert!(frontier.queue.held() <= frontier.width());
            assert!(frontier.width() <= frontier.remaining());
        }
        assert_eq!(count(&profile.hist_cache_misses), 0);
    }

    #[test]
    fn node_tasks_claim_under_k_and_drain_once_none_holds_a_claim() {
        let (params, profile) = (params(3), Arc::new(Profile::new()));
        let mut frontier = Frontier::new(&params, &profile, pool(&profile, &Arc::default()));
        let partition = five_leaves(&mut frontier);
        // Three candidates the budget pays for, in the order 5, 3, 7.
        file_five_leaves(&mut frontier, &partition, [1.0, 5.0, 9.0, 3.0, 2.0]);
        let task = |frontier: &mut Frontier<'_>, k| match frontier.claim_task(k, &partition) {
            QueueOutcome::Task(claims) => Some(claims[0].node),
            QueueOutcome::Retry => None,
            QueueOutcome::Drained => panic!("drained with {} in flight", frontier.in_flight),
        };
        // K = 2: a third claim waits for a task to finish, though a
        // candidate is there.
        assert_eq!([task(&mut frontier, 2), task(&mut frontier, 2)], [Some(5), Some(3)]);
        assert_eq!((task(&mut frontier, 2), frontier.width()), (None, 1));
        frontier.task_done();
        assert_eq!(task(&mut frontier, 2), Some(7));
        // The budget is spent; two tasks hold claims and could still file,
        // so the phase is not drained until both are done.
        assert!(!frontier.open());
        assert_eq!(task(&mut frontier, 2), None);
        frontier.task_done();
        assert_eq!(task(&mut frontier, 2), None);
        frontier.task_done();
        assert!(matches!(frontier.claim_task(2, &partition), QueueOutcome::Drained));
    }

    #[test]
    fn claim_numbers_the_children_in_pop_order_and_children_writes_their_counts() {
        let (params, profile) = (params(3), Arc::new(Profile::new()));
        let mut frontier = Frontier::new(&params, &profile, pool(&profile, &Arc::default()));
        let partition = five_leaves(&mut frontier);
        // Pop order 5, 8, 1, 7, 3: not the order of the node ids.
        file_five_leaves(&mut frontier, &partition, [5.0, 1.0, 9.0, 3.0, 7.0]);
        let claims = frontier.claim(2, &partition);
        let given: Vec<_> = claims.iter().map(|c| (c.node, c.kids)).collect();
        assert_eq!(given, [(5, [9, 10]), (8, [11, 12])]);
        for c in &claims {
            let depth = frontier.tree.node(c.node).depth + 1;
            for kid in c.kids {
                let node = frontier.tree.node(kid);
                assert_eq!((node.parent, node.depth), (c.node, depth));
            }
        }

        let splits: Vec<_> = claims.iter().map(|c| (c.node, c.kids[0], c.kids[1])).collect();
        // Node 5 holds rows 11..=20, node 8 row 31.
        partition.apply_splits(&splits, &|i, _, row| i == 0 && row <= 13, None);
        let mut children = Children::default();
        for Claim { parent, kids, .. } in claims {
            let counts = kids.map(|node| (node, partition.node_len(node) as u32));
            frontier.children(parent, counts, &mut children);
        }
        let counts: Vec<_> = (9..13).map(|kid| frontier.tree.node(kid).stats.count).collect();
        assert_eq!(counts, [3, 7, 0, 1]);
        // Node 5's children are planned, the larger derived from its cached
        // histogram; node 8's hold a row between them.
        let planned: Vec<_> = children
            .jobs
            .iter()
            .map(|j| (j.node, j.stats.count, j.sibling.as_ref().map(|s| (s.node, s.stats.count))))
            .collect();
        assert_eq!(planned, [(9, 3, Some((10, 7)))]);
    }

    #[test]
    fn finish_hands_back_the_grown_tree_and_the_next_root_starts_afresh() {
        let (params, profile) = (params(3), Arc::new(Profile::new()));
        let mut frontier = Frontier::new(&params, &profile, pool(&profile, &Arc::default()));
        let mut partition = RowPartition::new(8, 16, false);
        partition.reset(&[[0.0, 1.0]; 8]);
        let mut root = frontier.root(stats(8));
        let planned: Vec<_> = root.jobs.iter().map(|j| (j.node, j.stats.count)).collect();
        assert_eq!(planned, [(0, 8)]);
        equip(&mut frontier, &mut root);
        frontier.file(root, vec![[cand(1.0), None]]);
        assert_eq!(frontier.width(), 1);
        let claims = frontier.claim(1, &partition);
        assert_eq!(claims[0].kids, [1, 2]);

        let tree = frontier.finish();
        assert_eq!((tree.n_nodes(), tree.n_leaves()), (3, 2));
        assert_eq!((frontier.width(), frontier.remaining()), (0, params.max_leaves() - 1));
        frontier.root(stats(5));
        assert_eq!(frontier.tree.n_nodes(), 1);
        assert_eq!(frontier.tree.node(0).stats.count, 5);
    }

    #[test]
    fn children_are_queued_small_first_whether_the_larger_is_derived_or_scanned() {
        let (params, profile) = (params(4), Arc::new(Profile::new()));
        // Two splits at one gain throughout, so only the FIFO order ranks
        // them: of nodes (3, 4) with 20 and 12 rows, of (5, 6) with 5 and 9.
        for cached in [[true, false], [false, true], [true, true], [false, false]] {
            let mut frontier = Frontier::new(&params, &profile, pool(&profile, &Arc::default()));
            grow(&mut frontier, &[0, 1, 2]);
            frontier.leaves = 3;
            let mut children = Children::default();
            for (cached, kids) in cached.into_iter().zip([[(3, 20), (4, 12)], [(5, 5), (6, 9)]]) {
                let parent = cached.then(|| frontier.hists.alloc().zeroed());
                frontier.children(parent, kids, &mut children);
            }
            let derived = children.jobs.iter().filter(|j| j.sibling.is_some()).count();
            assert_eq!(derived, cached.iter().filter(|&&c| c).count());
            equip(&mut frontier, &mut children);
            let found = vec![[cand(1.0), cand(1.0)]; children.jobs.len()];
            frontier.file(children, found);
            assert_eq!(frontier.width(), 4);
            let order: Vec<NodeId> = frontier.queue.pop_batch(4).iter().map(|c| c.node).collect();
            assert_eq!(order, [4, 5, 3, 6], "parents cached: {cached:?}");
        }
    }

    #[test]
    fn a_spent_budget_releases_the_parent_and_counts_the_builds_it_skips() {
        let (params, profile) = (params(2), Arc::new(Profile::new()));
        let mem = Arc::new(MemTable::default());
        let mut frontier = Frontier::new(&params, &profile, pool(&profile, &mem));
        grow(&mut frontier, &[0]);
        let allocated = &mem.hist_pool;
        frontier.leaves = params.max_leaves();
        let parent = frontier.hists.alloc().zeroed();
        let one_buffer = allocated.current();

        let mut children = Children::default();
        // One child could have split, the other holds a single row.
        frontier.children(Some(parent), [(1, 20), (2, 1)], &mut children);
        assert!(children.jobs.is_empty(), "no child of a spent budget gets a histogram");
        assert_eq!(profile.hist_builds_skipped.load(Ordering::Relaxed), 1);
        // The parent's buffer is the next one handed out.
        let _reused = frontier.hists.alloc().zeroed();
        assert_eq!(allocated.current(), one_buffer);
    }
}
