//! Shared priority work queue for ASYNC (node-level) parallelism.
//!
//! In ASYNC mode the paper schedules "all the computation involved within one
//! tree node as a single task": workers repeatedly pop the most promising
//! node from a shared priority queue, split it, and push its children. The
//! queue and the in-flight counter live behind one [`SpinMutex`] so the
//! drain condition — empty heap *and* zero tasks in flight — is checked
//! atomically: new tasks can only be pushed by in-flight tasks, so once the
//! condition holds under the lock it holds forever.

use crate::spin::SpinMutex;
use std::collections::BinaryHeap;
use std::sync::atomic::AtomicU64;

/// Result of a [`WorkQueue::pop`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum QueueOutcome<T> {
    /// A task was claimed; the caller must invoke [`WorkQueue::complete`]
    /// when it (and any pushes it performs) are finished.
    Task(T),
    /// The heap is empty but tasks are in flight and may push more — retry.
    Retry,
    /// The heap is empty and nothing is in flight — the phase is over.
    Drained,
}

struct State<T> {
    heap: BinaryHeap<T>,
    in_flight: usize,
}

/// A max-priority work queue guarded by a spin mutex.
///
/// `T: Ord` defines the priority; for TopK tree growth the task type orders
/// by split gain so workers always pick the best available candidate
/// ("let K threads select the top candidate as best as they can" — the
/// loosely-coupled TopK of §IV-C). [`WorkQueue::bounded`] caps the number of
/// tasks in flight, which is how ASYNC mode limits node-level concurrency
/// to `K`.
pub struct WorkQueue<T> {
    state: SpinMutex<State<T>>,
    max_in_flight: usize,
}

impl<T: Ord> WorkQueue<T> {
    /// Creates an empty queue with unlimited concurrency.
    pub fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// Creates an empty queue allowing at most `max_in_flight` claimed
    /// tasks at a time; further pops return [`QueueOutcome::Retry`] until a
    /// task completes.
    ///
    /// # Panics
    /// Panics if `max_in_flight == 0` (every pop would spin forever).
    pub fn bounded(max_in_flight: usize) -> Self {
        assert!(max_in_flight > 0, "in-flight limit must be positive");
        Self {
            state: SpinMutex::new(State { heap: BinaryHeap::new(), in_flight: 0 }),
            max_in_flight,
        }
    }

    /// Pushes a task.
    pub fn push(&self, task: T) {
        self.state.lock().heap.push(task);
    }

    /// Pushes several tasks under one lock acquisition.
    pub fn push_all(&self, tasks: impl IntoIterator<Item = T>) {
        let mut s = self.state.lock();
        s.heap.extend(tasks);
    }

    /// Claims the highest-priority task, marking it in flight.
    pub fn pop(&self) -> QueueOutcome<T> {
        self.pop_inner(None)
    }

    /// Like [`pop`](Self::pop), recording contended lock wait into `wait_ns`.
    pub fn pop_timed(&self, wait_ns: &AtomicU64) -> QueueOutcome<T> {
        self.pop_inner(Some(wait_ns))
    }

    fn pop_inner(&self, wait_ns: Option<&AtomicU64>) -> QueueOutcome<T> {
        let mut s = match wait_ns {
            Some(w) => self.state.lock_timed(w),
            None => self.state.lock(),
        };
        if s.in_flight >= self.max_in_flight {
            return QueueOutcome::Retry;
        }
        match s.heap.pop() {
            Some(task) => {
                s.in_flight += 1;
                QueueOutcome::Task(task)
            }
            None if s.in_flight > 0 => QueueOutcome::Retry,
            None => QueueOutcome::Drained,
        }
    }

    /// Marks one previously claimed task finished.
    pub fn complete(&self) {
        let mut s = self.state.lock();
        debug_assert!(s.in_flight > 0, "complete() without matching pop()");
        s.in_flight -= 1;
    }

    /// Number of queued (not in-flight) tasks. Snapshot only.
    pub fn len(&self) -> usize {
        self.state.lock().heap.len()
    }

    /// Whether the heap is currently empty. Snapshot only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Ord> Default for WorkQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_returns_highest_priority() {
        let q = WorkQueue::new();
        q.push_all([3, 1, 4, 1, 5]);
        assert_eq!(q.pop(), QueueOutcome::Task(5));
        assert_eq!(q.pop(), QueueOutcome::Task(4));
    }

    #[test]
    fn empty_queue_is_drained() {
        let q: WorkQueue<i32> = WorkQueue::new();
        assert_eq!(q.pop(), QueueOutcome::Drained);
    }

    #[test]
    fn in_flight_task_forces_retry() {
        let q = WorkQueue::new();
        q.push(1);
        assert_eq!(q.pop(), QueueOutcome::Task(1));
        // Heap empty but the task may still push children.
        assert_eq!(q.pop(), QueueOutcome::Retry);
        q.complete();
        assert_eq!(q.pop(), QueueOutcome::Drained);
    }

    #[test]
    fn in_flight_push_becomes_visible() {
        let q = WorkQueue::new();
        q.push(10);
        let QueueOutcome::Task(t) = q.pop() else { panic!() };
        assert_eq!(t, 10);
        q.push(20);
        q.complete();
        assert_eq!(q.pop(), QueueOutcome::Task(20));
    }

    #[test]
    fn bounded_queue_caps_in_flight() {
        let q = WorkQueue::bounded(2);
        q.push_all([1, 2, 3]);
        let QueueOutcome::Task(_) = q.pop() else { panic!() };
        let QueueOutcome::Task(_) = q.pop() else { panic!() };
        // Third pop must wait despite a queued task.
        assert_eq!(q.pop(), QueueOutcome::Retry);
        q.complete();
        assert_eq!(q.pop(), QueueOutcome::Task(1));
    }

    #[test]
    #[should_panic(expected = "in-flight limit must be positive")]
    fn zero_bound_rejected() {
        let _: WorkQueue<u32> = WorkQueue::bounded(0);
    }

    #[test]
    fn len_reports_queued_only() {
        let q = WorkQueue::new();
        q.push_all([1, 2, 3]);
        assert_eq!(q.len(), 3);
        let _ = q.pop();
        assert_eq!(q.len(), 2);
    }
}
