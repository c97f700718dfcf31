//! Tree growth policies: depthwise, leafwise, and TopK (§IV-B).
//!
//! Algorithm 1 unifies growth methods behind a priority queue with a
//! dedicated comparison function; [`GrowthQueue`] is that queue. Splittable
//! nodes are pushed with their best split's gain; each growth step pops up
//! to `K` candidates:
//!
//! * depthwise: ordered by (depth, −gain) — `K = ∞` pops whole levels,
//!   finite `K` pops level subsets but builds the same tree (Fig. 6a/b);
//! * leafwise: ordered by −gain — `K = 1` is classic leafwise, larger `K`
//!   is the paper's TopK method (Fig. 6c/d).
//!
//! The queue is also the one owner of each candidate's histogram, kept for
//! the subtraction that derives the larger child when the candidate is
//! split. Two budgets bound what it holds, both in its own order:
//!
//! * the leaf budget: every pop takes the top and spends a leaf, and every
//!   push only lowers other ranks, so a candidate ranked `remaining`-th or
//!   beyond can never pop. The queue drops it on sight and recycles its
//!   histogram (`hist_cache_trimmed`): `len ≤ remaining` always holds;
//! * the byte budget of [`HistPool`]: past it, the lowest-ranked histogram
//!   held goes (an eviction — its candidate may still pop, and will miss),
//!   the newcomer's if that ranks lowest.
//!
//! ASYNC mode shares this very queue between its node tasks, behind the
//! frontier's spin lock.

use crate::hist::HistPool;
use crate::params::GrowthMethod;
use crate::split::SplitCandidate;
use crate::tree::NodeId;
use std::collections::BTreeMap;

/// The growth order of one candidate. "Greater" = pops first: shallower
/// depth key, then larger gain, then earlier push.
#[derive(Debug, Clone, Copy)]
struct RankKey {
    /// Depth priority: depthwise orders by depth first; leafwise ignores it
    /// (stored as 0).
    depth_key: u32,
    gain: f64,
    /// Push sequence number: ties broken FIFO for determinism.
    seq: u64,
}

impl PartialEq for RankKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for RankKey {}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .depth_key
            .cmp(&self.depth_key)
            .then_with(|| self.gain.total_cmp(&other.gain))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A splittable node waiting in the growth queue.
#[derive(Debug)]
pub struct Candidate {
    /// Node to split.
    pub node: NodeId,
    /// Depth of that node.
    pub depth: u32,
    /// Its best split and child statistics.
    pub cand: SplitCandidate,
    /// Its histogram, if the pool keeps it ([`HistPool::keep`]) and neither
    /// budget has taken it since.
    pub hist: Option<Vec<f64>>,
}

/// The growth priority queue.
#[derive(Debug)]
pub struct GrowthQueue {
    method: GrowthMethod,
    /// The candidates in growth order: the last pops first.
    entries: BTreeMap<RankKey, Candidate>,
    next_seq: u64,
}

impl GrowthQueue {
    /// Creates an empty queue for `method`.
    pub fn new(method: GrowthMethod) -> Self {
        Self { method, entries: BTreeMap::new(), next_seq: 0 }
    }

    /// Queues `candidate` with `remaining` leaves left to spend, then drops
    /// every candidate ranked `remaining`-th or beyond — none can ever pop.
    /// If the newcomer stays and brings a histogram while `pool`'s byte
    /// budget is full, the lowest-ranked histogram held goes, the
    /// newcomer's if it ranks lowest. What goes is recycled into `pool`.
    pub fn push(&mut self, mut candidate: Candidate, remaining: usize, pool: &mut HistPool) {
        let depth_key = match self.method {
            GrowthMethod::Depthwise => candidate.depth,
            GrowthMethod::Leafwise => 0,
        };
        let key = RankKey { depth_key, gain: candidate.cand.split.gain, seq: self.next_seq };
        self.next_seq += 1;
        let hist = candidate.hist.take();
        self.entries.insert(key, candidate);
        while self.entries.len() > remaining {
            let (_, dead) = self.entries.pop_first().expect("the queue is not empty");
            if let Some(held) = dead.hist {
                pool.unhold();
                pool.trim(held);
            }
        }
        let Some(hist) = hist else { return };
        if !self.entries.contains_key(&key) {
            return pool.trim(hist);
        }
        if !pool.has_room() {
            let lowest = self.entries.range_mut(..key).find_map(|(_, c)| c.hist.take());
            let Some(lowest) = lowest else { return pool.evict(hist) };
            pool.unhold();
            pool.evict(lowest);
        }
        pool.hold();
        self.entries.get_mut(&key).expect("the newcomer is queued").hist = Some(hist);
    }

    /// Pops up to `k` candidates, best first, each with its histogram.
    pub fn pop_batch(&mut self, k: usize) -> Vec<Candidate> {
        std::iter::from_fn(|| self.entries.pop_last().map(|(_, c)| c)).take(k).collect()
    }

    /// Number of queued candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many queued candidates hold a histogram.
    pub fn held(&self) -> usize {
        self.entries.values().filter(|c| c.hist.is_some()).count()
    }

    /// Empties the queue (tree finished: the candidates left stay leaves)
    /// and recycles their histograms into `pool`.
    pub(crate) fn clear(&mut self, pool: &mut HistPool) {
        for hist in std::mem::take(&mut self.entries).into_values().filter_map(|c| c.hist) {
            pool.unhold();
            pool.release(hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{NodeStats, SplitData};

    fn cand(gain: f64) -> SplitCandidate {
        SplitCandidate {
            split: SplitData { feature: 0, bin: 0, threshold: 0.0, default_left: false, gain },
            left: NodeStats::default(),
            right: NodeStats::default(),
        }
    }

    /// Queues `node` at `depth` and `gain` with no histogram and no leaf
    /// budget.
    fn push(q: &mut GrowthQueue, node: NodeId, depth: u32, gain: f64) {
        let pool = &mut HistPool::new(0, 0, 0, 0, Default::default(), Default::default());
        q.push(Candidate { node, depth, cand: cand(gain), hist: None }, usize::MAX, pool);
    }

    fn nodes(batch: &[Candidate]) -> Vec<NodeId> {
        batch.iter().map(|c| c.node).collect()
    }

    #[test]
    fn leafwise_pops_by_gain() {
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        push(&mut q, 1, 3, 1.0);
        push(&mut q, 2, 1, 5.0);
        push(&mut q, 3, 2, 3.0);
        assert_eq!(nodes(&q.pop_batch(2)), vec![2, 3]);
    }

    #[test]
    fn depthwise_pops_shallow_first() {
        let mut q = GrowthQueue::new(GrowthMethod::Depthwise);
        push(&mut q, 5, 2, 100.0);
        push(&mut q, 1, 1, 0.5);
        push(&mut q, 2, 1, 2.0);
        // Depth-1 nodes first (higher gain among equals), then depth 2.
        assert_eq!(nodes(&q.pop_batch(3)), vec![2, 1, 5]);
    }

    #[test]
    fn budget_limits_batch() {
        // Two leaves left: of five candidates only the best two can ever
        // pop, and only they stay queued.
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        let pool = &mut HistPool::new(0, 0, 0, 0, Default::default(), Default::default());
        for i in 0..5 {
            q.push(Candidate { node: i, depth: 0, cand: cand(f64::from(i)), hist: None }, 2, pool);
        }
        assert_eq!(q.len(), 2);
        assert_eq!(nodes(&q.pop_batch(10)), vec![4, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        push(&mut q, 7, 0, 1.0);
        push(&mut q, 8, 0, 1.0);
        push(&mut q, 9, 0, 1.0);
        assert_eq!(nodes(&q.pop_batch(3)), vec![7, 8, 9]);
    }

    #[test]
    fn drain_empties_queue() {
        // An unbounded pop drains the queue, best first.
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        push(&mut q, 1, 0, 1.0);
        push(&mut q, 2, 0, 2.0);
        assert_eq!(nodes(&q.pop_batch(usize::MAX)), vec![2, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn empty_pop_returns_empty() {
        let mut q = GrowthQueue::new(GrowthMethod::Depthwise);
        assert!(q.pop_batch(4).is_empty());
    }

    #[test]
    fn ranked_ordering_is_total_and_consistent() {
        let key = |gain, seq| RankKey { depth_key: 0, gain, seq };
        let (a, b) = (key(2.0, 0), key(1.0, 1));
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        // NaN gains order too (`total_cmp`), and the push order breaks ties.
        assert!(key(f64::NAN, 2) > a);
        assert!(key(1.0, 3) < b);
    }
}
