//! A priority work queue with an in-flight count, and the outcome of
//! polling any work source.
//!
//! ASYNC training polls its growth frontier directly
//! ([`ThreadPool::run_queue`](crate::ThreadPool::run_queue) takes the poll
//! as a closure), so nothing in training builds a [`WorkQueue`]. It stays
//! for the end-to-end benchmark's push/pop probe. The heap and the
//! in-flight counter live behind one [`SpinMutex`] so the drain condition —
//! empty heap *and* zero tasks in flight — is checked atomically: new tasks
//! can only be pushed by in-flight tasks, so once the condition holds under
//! the lock it holds forever.

use crate::spin::SpinMutex;
use std::collections::BinaryHeap;

/// The result of polling a work source: [`WorkQueue::pop`], or the poll
/// closure [`ThreadPool::run_queue`](crate::ThreadPool::run_queue) drives.
#[derive(Debug, PartialEq, Eq)]
pub enum QueueOutcome<T> {
    /// A task was claimed and is in flight until the source is told it
    /// finished ([`WorkQueue::complete`]).
    Task(T),
    /// Nothing can be claimed now, but tasks are in flight and may add
    /// more — retry.
    Retry,
    /// Nothing can be claimed and nothing is in flight — the phase is over.
    Drained,
}

struct State<T> {
    heap: BinaryHeap<T>,
    in_flight: usize,
}

/// A max-priority work queue guarded by a spin mutex; `T: Ord` defines the
/// priority.
pub struct WorkQueue<T> {
    state: SpinMutex<State<T>>,
}

impl<T: Ord> WorkQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self { state: SpinMutex::new(State { heap: BinaryHeap::new(), in_flight: 0 }) }
    }

    /// Pushes a task.
    pub fn push(&self, task: T) {
        self.state.lock().heap.push(task);
    }

    /// Claims the highest-priority task, marking it in flight.
    pub fn pop(&self) -> QueueOutcome<T> {
        let mut s = self.state.lock();
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
        for v in [3, 1, 4, 1, 5] {
            q.push(v);
        }
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
}
