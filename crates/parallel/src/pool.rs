//! Persistent fork/join thread pool with OpenMP-style accounting.
//!
//! A [`ThreadPool`] owns `T` worker threads. [`ThreadPool::parallel_for`]
//! opens a *region* of `T` shares: each share dynamically claims task
//! indices one at a time (OpenMP `schedule(dynamic)`), and the caller blocks
//! until every share is drained — the implicit end-of-loop barrier.
//! For each region the pool records into its [`Profile`]:
//!
//! * per-task busy time,
//! * per-worker *barrier wait*: the time between a worker finishing its share
//!   and the last worker finishing (what an OpenMP spin barrier burns),
//! * one region (= one synchronization) and the task count.
//!
//! A region goes out once: the pool publishes it in one slot under a mutex
//! and wakes every worker. It carries `T` *shares*; a woken worker takes
//! shares until none are left and runs the region's claiming loop for each,
//! so a worker that wakes late finds nothing to take and one worker may run
//! several shares. `run_queue` runs ASYNC's node tasks on a region whose
//! closure runs once per share: each share polls the caller's work source
//! until it drains.

use crate::profile::Profile;
use crate::queue::QueueOutcome;
use crate::trace::{TracePhase, TraceSink};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Returns a reasonable default thread count for this host.
pub fn current_num_threads_hint() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How worker busy time is accounted for a region.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BusyAccounting {
    /// The pool times every task invocation (used by `parallel_for`).
    PerTask,
    /// The closure reports busy time itself (used by `run_queue`, whose
    /// worker loop interleaves useful work with queue polling).
    Manual,
}

/// One fork/join region. Shared between the caller and all workers.
struct Region {
    /// Shares not yet taken by a worker; `T` at dispatch.
    shares: AtomicUsize,
    /// Type-erased pointer to the caller's closure (`&F`).
    func: *const (),
    /// Invokes the erased closure with `(task_idx, worker_idx)`.
    call: unsafe fn(*const (), usize, usize),
    /// Next unclaimed task index.
    next: AtomicUsize,
    n_tasks: usize,
    /// Shares not yet finished.
    active: AtomicUsize,
    /// Per-worker finish timestamp, ns relative to `start`.
    finish_ns: Vec<AtomicU64>,
    start: Instant,
    accounting: BusyAccounting,
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
    profile: Arc<Profile>,
    /// Span ledger, when tracing is enabled on the owning pool.
    trace: Option<Arc<TraceSink>>,
    /// `TraceSink::now_ns` at region start (timestamps in `finish_ns` are
    /// relative to `start`; adding this rebases them onto the sink epoch).
    trace_start_ns: u64,
    /// Region ordinal, used as the `block` field of barrier-wait spans.
    region_idx: u32,
}

// SAFETY: `func` points to a closure that the caller keeps alive until the
// region completes (the caller blocks in `wait`), and the closure is required
// to be `Sync` by the public API before erasure. A completed region may stay
// in the pool's slot until the next one replaces it, but it has no share
// left, so `func` is never called again.
unsafe impl Send for Region {}
// SAFETY: as for `Send`: a shared `Region` only calls `func`, a `Sync`
// closure, and claims shares through atomics.
unsafe impl Sync for Region {}

impl Region {
    /// Worker body: claim task indices one at a time until exhausted, then
    /// check out of the region; the last worker to finish settles the barrier
    /// accounting and wakes the caller.
    fn work(&self, worker: usize) {
        let mut busy_ns = 0u64;
        let mut tasks_done = 0u64;
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.n_tasks {
                break;
            }
            let t0 = Instant::now();
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: `func`/`call` were erased from a `&F` that the
                // blocked caller keeps alive; `F: Sync` allows shared
                // invocation from many workers.
                unsafe { (self.call)(self.func, idx, worker) }
            }));
            if res.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
                // Prevent further tasks from running; the region still
                // joins cleanly and the caller re-raises.
                self.next.store(self.n_tasks, Ordering::Relaxed);
            }
            busy_ns += t0.elapsed().as_nanos() as u64;
            tasks_done += 1;
        }
        if self.accounting == BusyAccounting::PerTask {
            self.profile.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            self.profile.tasks.fetch_add(tasks_done, Ordering::Relaxed);
        }
        self.finish(worker);
    }

    fn finish(&self, worker: usize) {
        let now = self.start.elapsed().as_nanos() as u64;
        self.finish_ns[worker].store(now, Ordering::Relaxed);
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last worker out: settle barrier waits for the whole team.
            let last =
                self.finish_ns.iter().map(|t| t.load(Ordering::Relaxed)).max().unwrap_or(now);
            let wait: u64 = self
                .finish_ns
                .iter()
                .map(|t| last.saturating_sub(t.load(Ordering::Relaxed)))
                .sum();
            self.profile.barrier_wait_ns.fetch_add(wait, Ordering::Relaxed);
            self.profile.regions.fetch_add(1, Ordering::Relaxed);
            if let Some(sink) = &self.trace {
                // Per-worker barrier waits are only knowable once the last
                // worker finishes, so the settler writes every lane.
                for (w, t) in self.finish_ns.iter().enumerate() {
                    let fin = t.load(Ordering::Relaxed);
                    if fin < last {
                        sink.record(
                            w,
                            TracePhase::BarrierWait,
                            0,
                            self.region_idx,
                            self.trace_start_ns + fin,
                            self.trace_start_ns + last,
                        );
                    }
                }
            }
            *self.done.lock().expect("region mutex poisoned") = true;
            self.done_cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("region mutex poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("region mutex poisoned");
        }
    }
}

/// Takes one share of a region. The decrement stops at zero: a plain
/// `fetch_sub` would wrap and hand a late worker a share of a finished
/// region. The region itself reaches the worker through the slot's mutex,
/// and its completion through `active`; the claim needs only to be atomic.
fn claim_share(shares: &AtomicUsize) -> bool {
    let take = |n: usize| n.checked_sub(1);
    shares.fetch_update(Ordering::AcqRel, Ordering::Acquire, take).is_ok()
}

/// The slot a region is published in. `region` is `None` once the pool
/// shuts down.
struct Published {
    generation: u64,
    region: Option<Arc<Region>>,
}

struct Shared {
    slot: Mutex<Published>,
    published: Condvar,
    profile: Arc<Profile>,
    n_threads: usize,
}

impl Shared {
    /// Publishes `region` (or the shutdown) and wakes every worker.
    fn publish(&self, region: Option<Arc<Region>>) {
        let mut slot = self.slot.lock().expect("pool mutex poisoned");
        slot.generation += 1;
        slot.region = region;
        drop(slot);
        self.published.notify_all();
    }

    /// Worker loop: wait for a region newer than the last one seen, then
    /// take its shares until none are left.
    fn serve(&self, worker: usize) {
        let mut seen = 0;
        loop {
            let mut slot = self.slot.lock().expect("pool mutex poisoned");
            while slot.generation == seen {
                slot = self.published.wait(slot).expect("pool mutex poisoned");
            }
            seen = slot.generation;
            let Some(region) = slot.region.clone() else {
                return;
            };
            drop(slot);
            // A worker calls `work` only after claiming a share, and every
            // share is gone before `wait` returns, so no worker ever calls
            // a finished region's closure.
            while claim_share(&region.shares) {
                region.work(worker);
            }
        }
    }
}

/// A persistent pool of worker threads with profiling instrumentation.
///
/// The pool is the execution substrate for every parallel mode in HarpGBDT:
/// DP and MP schedule blocks through [`parallel_for`](Self::parallel_for);
/// ASYNC's node tasks claim off the growth frontier through
/// [`run_queue`](Self::run_queue).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    trace: Option<Arc<TraceSink>>,
}

impl ThreadPool {
    /// Creates a pool with `n_threads` workers and a fresh [`Profile`].
    ///
    /// # Panics
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        Self::with_profile(n_threads, Arc::new(Profile::new()))
    }

    /// Creates a pool recording into an externally owned [`Profile`].
    pub fn with_profile(n_threads: usize, profile: Arc<Profile>) -> Self {
        assert!(n_threads > 0, "thread pool requires at least one worker");
        let shared = Arc::new(Shared {
            slot: Mutex::new(Published { generation: 0, region: None }),
            published: Condvar::new(),
            profile,
            n_threads,
        });
        let handles = (0..n_threads)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("harp-worker-{worker}"))
                    .spawn(move || shared.serve(worker))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, handles, trace: None }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.shared.n_threads
    }

    /// The profile this pool records into.
    pub fn profile(&self) -> &Arc<Profile> {
        &self.shared.profile
    }

    /// Attaches a span ledger. Regions then record per-worker barrier-wait
    /// spans and [`run_queue`](Self::run_queue) records queue-spin spans;
    /// trainer kernels find the sink via [`trace`](Self::trace).
    pub fn install_trace(&mut self, sink: Arc<TraceSink>) {
        self.trace = Some(sink);
    }

    /// The installed span ledger, if tracing is enabled.
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// Runs `f(task_idx, worker_idx)` for every `task_idx in 0..n_tasks`
    /// across all workers, blocking until the implicit end barrier. Tasks are
    /// claimed dynamically one at a time.
    pub fn parallel_for<F>(&self, n_tasks: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        self.dispatch(n_tasks, BusyAccounting::PerTask, &f);
    }

    /// Parallel *for-each-mut*: runs `f(i, &mut items[i], worker_idx)` for
    /// every element as one region, so tasks can write their own slot
    /// without a hand-rolled pointer wrapper at the call site.
    pub fn parallel_for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T, usize) + Sync,
    {
        struct Base<T>(*mut T);
        // SAFETY: the pointer is only ever dereferenced at distinct indices
        // (see below), so sharing `&Base` shares no element; `T: Send` lets
        // the worker that claims an index hold its `&mut T`.
        unsafe impl<T: Send> Sync for Base<T> {}
        impl<T> Base<T> {
            fn at(&self, i: usize) -> *mut T {
                // In bounds: callers pass `i < items.len()`.
                self.0.wrapping_add(i)
            }
        }
        let base = Base(items.as_mut_ptr());
        self.parallel_for(items.len(), |i, worker| {
            // SAFETY: a region hands each index in `0..items.len()` to
            // exactly one invocation (`Region::work` claims indices with a
            // `fetch_add`), so this is the only live reference to element
            // `i`; `items` stays mutably borrowed by this call until the
            // region's end barrier, so nothing else can touch it meanwhile.
            let item = unsafe { &mut *base.at(i) };
            f(i, item, worker);
        });
    }

    /// Runs `f(worker_idx)` once per share (`T` times, on whichever workers
    /// take the shares), with barrier accounting but no automatic busy-time
    /// accounting — the closure is expected to report busy time to the
    /// profile itself.
    fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let g = |_task: usize, worker: usize| f(worker);
        self.dispatch(self.shared.n_threads, BusyAccounting::Manual, &g);
    }

    /// ASYNC-mode driver: every worker loops calling `poll`, which claims
    /// the next task off the caller's work source, and runs each task it
    /// gets as `run(task, worker_idx)`, until a poll answers
    /// [`Drained`](QueueOutcome::Drained). The source keeps its own
    /// in-flight count, and `run` tells it when the task is done (a task
    /// may add work before that): a poll answers
    /// [`Retry`](QueueOutcome::Retry) while nothing can be claimed but a
    /// task is in flight. A poll that claims nothing should return at once:
    /// idle workers call it in a loop, yielding between calls.
    ///
    /// Busy time is recorded per task, and every task claimed is counted
    /// in `queue_pops`; time spent polling a source that is empty but not
    /// yet drained goes to `queue_spin_ns` and is charged to barrier wait
    /// too, since it is end-of-phase load imbalance just like a barrier
    /// spin.
    ///
    /// A panic in `poll` or `run` stops every worker's polling (the claim
    /// it held never completes, so the source would answer `Retry`
    /// forever) and is re-raised to the caller, as `parallel_for`'s is.
    pub fn run_queue<T, P, F>(&self, poll: P, run: F)
    where
        P: Fn() -> QueueOutcome<T> + Sync,
        F: Fn(T, usize) + Sync,
    {
        /// Raises the flag when dropped by an unwinding share.
        struct OnUnwind<'a>(&'a AtomicBool);
        impl Drop for OnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }
        let unwound = AtomicBool::new(false);
        let profile = Arc::clone(&self.shared.profile);
        let trace = self.trace.as_deref();
        self.broadcast(|worker| {
            let _unwinding = OnUnwind(&unwound);
            // (wall-clock origin, sink-relative ns) of the current idle run.
            let mut idle_since: Option<(Instant, u64)> = None;
            let close_idle = |idle_since: &mut Option<(Instant, u64)>| {
                if let Some((t0, start_ns)) = idle_since.take() {
                    let ns = t0.elapsed().as_nanos() as u64;
                    profile.barrier_wait_ns.fetch_add(ns, Ordering::Relaxed);
                    profile.queue_spin_ns.fetch_add(ns, Ordering::Relaxed);
                    if let Some(sink) = trace {
                        sink.record(worker, TracePhase::QueueSpin, 0, 0, start_ns, start_ns + ns);
                    }
                }
            };
            while !unwound.load(Ordering::Relaxed) {
                match poll() {
                    QueueOutcome::Task(task) => {
                        close_idle(&mut idle_since);
                        profile.queue_pops.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        run(task, worker);
                        profile
                            .busy_ns
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        profile.tasks.fetch_add(1, Ordering::Relaxed);
                    }
                    QueueOutcome::Retry => {
                        if idle_since.is_none() {
                            let start_ns = trace.map(|s| s.now_ns()).unwrap_or(0);
                            idle_since = Some((Instant::now(), start_ns));
                        }
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                    QueueOutcome::Drained => break,
                }
            }
            close_idle(&mut idle_since);
        });
    }

    fn dispatch<F>(&self, n_tasks: usize, accounting: BusyAccounting, f: &F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n_tasks == 0 {
            return;
        }
        unsafe fn call_erased<F: Fn(usize, usize) + Sync>(
            ptr: *const (),
            task: usize,
            worker: usize,
        ) {
            // SAFETY: `ptr` was produced from `&F` in `dispatch` below and the
            // caller blocks until the region completes.
            let f = unsafe { &*(ptr as *const F) };
            f(task, worker);
        }
        let n_threads = self.shared.n_threads;
        let region = Arc::new(Region {
            shares: AtomicUsize::new(n_threads),
            func: f as *const F as *const (),
            call: call_erased::<F>,
            next: AtomicUsize::new(0),
            n_tasks,
            active: AtomicUsize::new(n_threads),
            finish_ns: (0..n_threads).map(|_| AtomicU64::new(0)).collect(),
            start: Instant::now(),
            accounting,
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            profile: Arc::clone(&self.shared.profile),
            trace: self.trace.clone(),
            trace_start_ns: self.trace.as_ref().map(|s| s.now_ns()).unwrap_or(0),
            region_idx: self.shared.profile.regions.load(Ordering::Relaxed) as u32,
        });
        self.shared.publish(Some(Arc::clone(&region)));
        region.wait();
        if region.panicked.load(Ordering::Relaxed) {
            panic!("a task in a harp-parallel region panicked");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.publish(None);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("n_threads", &self.shared.n_threads).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpinMutex;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(1000, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_and_for_each_mut_write_every_slot_exactly_once_in_index_order() {
        for threads in 1..=4usize {
            let pool = ThreadPool::new(threads);
            for n in [0, 1, threads - 1, threads + 1, 10 * threads] {
                // (index the slot was handed with, times it was written).
                let mut slots = vec![(usize::MAX, 0u32); n];
                pool.parallel_for_each_mut(&mut slots, |i, slot, w| {
                    assert!(w < threads);
                    slot.0 = i;
                    slot.1 += 1;
                });
                let want: Vec<_> = (0..n).map(|i| (i, 1)).collect();
                assert_eq!(slots, want, "T={threads} n={n}");
            }
        }
    }

    #[test]
    fn empty_region_is_a_noop() {
        let pool = ThreadPool::new(2);
        pool.parallel_for(0, |_, _| panic!("should not run"));
        assert_eq!(pool.profile().regions.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn worker_indices_are_in_range() {
        let pool = ThreadPool::new(5);
        pool.parallel_for(200, |_, w| assert!(w < 5));
    }

    #[test]
    fn regions_and_tasks_are_counted() {
        let pool = ThreadPool::new(2);
        pool.parallel_for(10, |_, _| {});
        pool.parallel_for(7, |_, _| {});
        let p = pool.profile();
        assert_eq!(p.regions.load(Ordering::Relaxed), 2);
        assert_eq!(p.tasks.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn broadcast_runs_once_per_share() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        pool.broadcast(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_share_claim_stops_at_zero() {
        for threads in [1usize, 2, 8] {
            let shares = AtomicUsize::new(threads);
            assert!((0..threads).all(|_| claim_share(&shares)), "T={threads}");
            for _ in 0..4 {
                assert!(!claim_share(&shares), "T={threads}: a claim past the last share");
                assert_eq!(shares.load(Ordering::Relaxed), 0, "T={threads}: the counter wrapped");
            }
        }
    }

    #[test]
    fn churned_regions_run_every_task_once_and_drop_cleanly() {
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let (mut regions, mut tasks) = (0u64, 0u64);
            for round in 0..5_000usize {
                let n = [0, 1, threads, 4 * threads][round % 4];
                if round % 97 == 0 {
                    // A `run_queue` phase: 16 fans out to 31 tasks.
                    assert_eq!(fan_out(&pool, Some(16), || {}), 31, "T={threads} round {round}");
                    (regions, tasks) = (regions + 1, tasks + 31);
                    continue;
                }
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.parallel_for(n, |i, _| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "T={threads}");
                regions += u64::from(n > 0);
                tasks += n as u64;
            }
            let p = pool.profile();
            assert_eq!(p.regions.load(Ordering::Relaxed), regions, "T={threads}");
            assert_eq!(p.tasks.load(Ordering::Relaxed), tasks, "T={threads}");
            drop(pool);
        }
    }

    #[test]
    fn sequential_regions_reuse_workers() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.parallel_for(20, |_, _| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn barrier_wait_accumulates_under_imbalance() {
        let pool = ThreadPool::new(4);
        // One long task + three trivial ones: three workers wait for one.
        pool.parallel_for(4, |i, _| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        let wait = pool.profile().barrier_wait_ns.load(Ordering::Relaxed);
        assert!(wait > 10_000_000, "expected measurable barrier wait, got {wait}ns");
    }

    #[test]
    #[should_panic(expected = "harp-parallel region panicked")]
    fn task_panic_propagates_to_caller() {
        let pool = ThreadPool::new(2);
        pool.parallel_for(8, |i, _| {
            if i == 3 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicked_region() {
        let pool = ThreadPool::new(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(4, |_, _| panic!("boom"));
        }));
        assert!(res.is_err());
        // Pool should still work afterwards.
        let n = AtomicUsize::new(0);
        pool.parallel_for(10, |_, _| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 10);
    }

    /// Runs a fan-out through `run_queue`: a task of value `v > 1` files two
    /// of `v / 2`, then runs `work`. The source is a stack and an in-flight
    /// count under one lock — the shape of ASYNC's frontier. Returns how
    /// many tasks ran.
    fn fan_out(pool: &ThreadPool, seed: Option<u32>, work: impl Fn() + Sync) -> usize {
        let source = SpinMutex::new((Vec::from_iter(seed), 0usize));
        let ran = AtomicUsize::new(0);
        pool.run_queue(
            || {
                let mut s = source.lock();
                match s.0.pop() {
                    Some(v) => {
                        s.1 += 1;
                        QueueOutcome::Task(v)
                    }
                    None if s.1 > 0 => QueueOutcome::Retry,
                    None => QueueOutcome::Drained,
                }
            },
            |v, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if v > 1 {
                    source.lock().0.extend([v / 2, v / 2]);
                }
                work();
                source.lock().1 -= 1;
            },
        );
        ran.into_inner()
    }

    #[test]
    fn run_queue_processes_all_seeded_and_spawned_tasks() {
        let pool = ThreadPool::new(4);
        // 16 spawns 2x8, 4x4, 8x2, 16x1 => 1+2+4+8+16 = 31 tasks.
        assert_eq!(fan_out(&pool, Some(16), || {}), 31);
    }

    #[test]
    fn run_queue_on_empty_queue_returns() {
        let pool = ThreadPool::new(2);
        assert_eq!(fan_out(&pool, None, || panic!("no tasks expected")), 0);
    }

    /// A task that panics at T = 2 reaches the caller: its claim never
    /// completes, so without the stop flag the other share would poll
    /// `Retry` forever. The region runs on a thread of its own under a
    /// watchdog, so a hang fails the test instead of stalling the suite.
    #[test]
    fn a_run_queue_task_panic_reaches_the_caller() {
        let (done, outcome) = std::sync::mpsc::channel();
        let region = std::thread::spawn(move || {
            let pool = ThreadPool::new(2);
            // (next task of four, claims in flight)
            let source = SpinMutex::new((0u32, 0u32));
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_queue(
                    || {
                        let mut s = source.lock();
                        if s.0 < 4 {
                            s.0 += 1;
                            s.1 += 1;
                            QueueOutcome::Task(s.0 - 1)
                        } else if s.1 > 0 {
                            QueueOutcome::Retry
                        } else {
                            QueueOutcome::Drained
                        }
                    },
                    |task, _| {
                        assert_ne!(task, 2, "the third task fails");
                        source.lock().1 -= 1;
                    },
                );
            }));
            let _ = done.send(res.is_err());
        });
        let panicked = outcome
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("watchdog: run_queue still running 30 s after a task panicked");
        region.join().expect("the region's thread caught the panic");
        assert!(panicked, "the task's panic must reach the caller");
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..100_000).collect();
        let partial: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let chunk = 1000;
        let n_chunks = data.len() / chunk;
        pool.parallel_for(n_chunks, |c, w| {
            let s: u64 = data[c * chunk..(c + 1) * chunk].iter().sum();
            partial[w].fetch_add(s, Ordering::Relaxed);
        });
        let total: u64 = partial.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn trace_records_barrier_waits_per_worker() {
        let mut pool = ThreadPool::new(4);
        let sink = TraceSink::new(4);
        pool.install_trace(Arc::clone(&sink));
        // One long task: three workers must log barrier wait.
        pool.parallel_for(4, |i, _| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        let snap = sink.snapshot();
        let (workers, coordinator) = snap.lanes.split_at(4);
        let waits: Vec<u64> = workers.iter().map(|l| l.busy_ns[TracePhase::BarrierWait]).collect();
        let waiting = waits.iter().filter(|&&w| w > 5_000_000).count();
        assert!(waiting >= 3, "expected 3 waiting workers, waits = {waits:?}");
        let spans = workers
            .iter()
            .flat_map(|l| &l.spans)
            .filter(|s| s.phase == TracePhase::BarrierWait as u8)
            .count();
        assert!(spans >= 3, "one barrier-wait span per waiting worker, got {spans}");
        assert_eq!(coordinator[0].busy_ns[TracePhase::BarrierWait], 0);
    }

    #[test]
    fn run_queue_counts_pops_and_spin_with_or_without_a_sink() {
        for traced in [false, true] {
            let mut pool = ThreadPool::new(4);
            let sink = TraceSink::new(4);
            if traced {
                pool.install_trace(Arc::clone(&sink));
            }
            let work = || std::thread::sleep(std::time::Duration::from_micros(200));
            assert_eq!(fan_out(&pool, Some(16), work), 31, "traced={traced}");
            let p = pool.profile().snapshot();
            assert_eq!(p.queue_pops, 31, "traced={traced}: 16 fans out to 31 tasks");
            // Workers that found the queue momentarily empty log spin time,
            // which is barrier wait as well.
            assert!(p.queue_spin_ns > 0, "traced={traced}: 4 workers on a serial frontier");
            assert!(p.barrier_wait_ns >= p.queue_spin_ns, "traced={traced}");
            // The sink gets the same idle stretches as spans, and no count.
            let snap = sink.snapshot();
            let spin: u64 = snap.lanes.iter().map(|l| l.busy_ns[TracePhase::QueueSpin]).sum();
            assert_eq!(spin, if traced { p.queue_spin_ns } else { 0 }, "traced={traced}");
        }
    }
}
