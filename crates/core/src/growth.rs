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
//! ASYNC mode shares this very queue between its node tasks (behind the
//! histogram pool's spin lock), and [`RankKey`] — the queue's order — is
//! also the order in which [`crate::hist::HistPool`] gives up histograms.

use crate::params::GrowthMethod;
use crate::split::SplitCandidate;
use crate::tree::NodeId;
use std::collections::BinaryHeap;

/// The growth order of one candidate: what [`GrowthQueue`] pops by and what
/// [`crate::hist::HistPool`] trims by. One key for both, because the pool may
/// only drop a histogram the queue will never pop. "Greater" = pops first:
/// shallower depth key, then larger gain, then earlier push.
#[derive(Debug, Clone, Copy)]
pub struct RankKey {
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
#[derive(Debug, Clone, Copy)]
pub struct RankedCandidate {
    /// Node to split.
    pub node: NodeId,
    /// Depth of that node.
    pub depth: u32,
    /// Its best split and child statistics.
    pub cand: SplitCandidate,
    key: RankKey,
}

impl PartialEq for RankedCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for RankedCandidate {}

impl PartialOrd for RankedCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedCandidate {
    /// "Greater" = pop first; see [`RankKey`].
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The growth priority queue.
#[derive(Debug)]
pub struct GrowthQueue {
    method: GrowthMethod,
    heap: BinaryHeap<RankedCandidate>,
    next_seq: u64,
}

impl GrowthQueue {
    /// Creates an empty queue for `method`.
    pub fn new(method: GrowthMethod) -> Self {
        Self { method, heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Wraps a candidate with this queue's next priority key.
    fn rank(&mut self, node: NodeId, depth: u32, cand: SplitCandidate) -> RankedCandidate {
        let seq = self.next_seq;
        self.next_seq += 1;
        let depth_key = match self.method {
            GrowthMethod::Depthwise => depth,
            GrowthMethod::Leafwise => 0,
        };
        RankedCandidate {
            node,
            depth,
            cand,
            key: RankKey { depth_key, gain: cand.split.gain, seq },
        }
    }

    /// Pushes a splittable node and returns the key it will pop by — the
    /// key its cached histogram must be filed under.
    pub fn push(&mut self, node: NodeId, depth: u32, cand: SplitCandidate) -> RankKey {
        let ranked = self.rank(node, depth, cand);
        self.heap.push(ranked);
        ranked.key
    }

    /// Pops up to `k` candidates, but never more than `budget` (remaining
    /// leaf allowance: each split adds one leaf).
    pub fn pop_batch(&mut self, k: usize, budget: usize) -> Vec<RankedCandidate> {
        let take = k.min(budget);
        let mut out = Vec::with_capacity(take.min(self.heap.len()));
        while out.len() < take {
            match self.heap.pop() {
                Some(c) => out.push(c),
                None => break,
            }
        }
        out
    }

    /// Number of queued candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains the queue (tree finished: remaining candidates become leaves).
    pub fn drain(&mut self) -> Vec<RankedCandidate> {
        std::mem::take(&mut self.heap).into_sorted_vec()
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

    #[test]
    fn leafwise_pops_by_gain() {
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        q.push(1, 3, cand(1.0));
        q.push(2, 1, cand(5.0));
        q.push(3, 2, cand(3.0));
        let batch = q.pop_batch(2, usize::MAX);
        assert_eq!(batch.iter().map(|c| c.node).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn depthwise_pops_shallow_first() {
        let mut q = GrowthQueue::new(GrowthMethod::Depthwise);
        q.push(5, 2, cand(100.0));
        q.push(1, 1, cand(0.5));
        q.push(2, 1, cand(2.0));
        let batch = q.pop_batch(3, usize::MAX);
        // Depth-1 nodes first (higher gain among equals), then depth 2.
        assert_eq!(batch.iter().map(|c| c.node).collect::<Vec<_>>(), vec![2, 1, 5]);
    }

    #[test]
    fn budget_limits_batch() {
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        for i in 0..5 {
            q.push(i, 0, cand(i as f64));
        }
        let batch = q.pop_batch(10, 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        q.push(7, 0, cand(1.0));
        q.push(8, 0, cand(1.0));
        q.push(9, 0, cand(1.0));
        let batch = q.pop_batch(3, usize::MAX);
        assert_eq!(batch.iter().map(|c| c.node).collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn drain_empties_queue() {
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        q.push(1, 0, cand(1.0));
        q.push(2, 0, cand(2.0));
        let rest = q.drain();
        assert_eq!(rest.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn empty_pop_returns_empty() {
        let mut q = GrowthQueue::new(GrowthMethod::Depthwise);
        assert!(q.pop_batch(4, usize::MAX).is_empty());
    }

    #[test]
    fn ranked_ordering_is_total_and_consistent() {
        let mut q = GrowthQueue::new(GrowthMethod::Leafwise);
        let a = q.rank(1, 0, cand(2.0));
        let b = q.rank(2, 0, cand(1.0));
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
