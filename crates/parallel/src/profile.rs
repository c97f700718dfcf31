//! Software profiling counters — the substitute for Intel VTune.
//!
//! Tables I and VI of the HarpGBDT paper compare four hardware-derived
//! metrics between the baselines and HarpGBDT: average CPU utilization,
//! OpenMP barrier overhead, average load latency and memory-bound share.
//! Without hardware event counters we reproduce the first two exactly from
//! the pool's own clocks and approximate the memory-related ones from the
//! byte traffic the trainer reports per region:
//!
//! * **CPU utilization** = Σ worker busy time / (threads × wall time).
//! * **Barrier overhead** = Σ end-of-region idle / (busy + idle inside
//!   regions) — the share of in-region thread time spent waiting for the
//!   slowest worker, which is what the OpenMP spin barrier burns.
//! * **Bytes / FLOP** and **working-set size** are reported by the trainer via
//!   [`Profile::add_bytes`] / [`Profile::observe_region_bytes`] and stand in
//!   for the memory-bound percentage: the paper's §III-B derives the 0.0625
//!   compute-per-byte ratio analytically, and the same arithmetic is what we
//!   surface.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic nanosecond stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Elapsed nanoseconds since start.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Elapsed seconds since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Shared, thread-safe profiling accumulator.
///
/// One `Profile` is attached to a [`crate::ThreadPool`]; the trainer resets it
/// at measurement boundaries and renders a [`ProfileReport`] afterwards. All
/// counters are relaxed atomics — they are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Profile {
    /// Nanoseconds workers spent executing tasks.
    pub busy_ns: AtomicU64,
    /// Nanoseconds workers spent idle inside a fork/join region after
    /// finishing their share (the barrier wait).
    pub barrier_wait_ns: AtomicU64,
    /// Nanoseconds spent waiting to acquire contended spin locks.
    pub lock_wait_ns: AtomicU64,
    /// Number of fork/join regions executed (== number of implicit barriers).
    pub regions: AtomicU64,
    /// Number of individual tasks executed across all regions and queues.
    pub tasks: AtomicU64,
    /// Bytes read by trainer kernels (reported by the trainer, not measured).
    pub bytes_read: AtomicU64,
    /// Bytes written by trainer kernels.
    pub bytes_written: AtomicU64,
    /// Floating point operations reported by trainer kernels.
    pub flops: AtomicU64,
    /// Sum over regions of the written working-set size (bytes) — the size of
    /// the GHSum region a task writes into, which §IV-E ties to cache misses.
    pub region_write_ws_bytes: AtomicU64,
    /// Number of working-set observations (for averaging).
    pub region_write_ws_samples: AtomicU64,
    /// Wall-clock nanoseconds covered by this profile (set by `stop`).
    pub wall_ns: AtomicU64,
    /// Scratch (histogram replica) buffers freshly allocated or grown by the
    /// drivers. Steady-state training must not increment this.
    pub scratch_allocs: AtomicU64,
    /// Scratch buffers reused from the pool without allocation.
    pub scratch_reuses: AtomicU64,
    /// Parallel-partition scratch (per-chunk counters and prefix bases)
    /// allocations or growths. Steady-state training must not increment this.
    pub partition_scratch_allocs: AtomicU64,
    /// Parallel-partition scratch reuses (no allocation).
    pub partition_scratch_reuses: AtomicU64,
    /// Histogram-pool candidate-cache hits (parent histogram found, enabling
    /// the parent − sibling subtraction trick).
    pub hist_cache_hits: AtomicU64,
    /// Histogram-pool candidate-cache misses (parent absent or evicted; both
    /// children need a fresh BuildHist).
    pub hist_cache_misses: AtomicU64,
    /// Splits whose node was never cached because scanning its larger child
    /// is cheaper than deriving it by subtraction: no lookup, both children
    /// are built from rows. Not a miss.
    pub hist_cache_declined: AtomicU64,
    /// Histogram-pool cache evictions under the byte budget.
    pub hist_cache_evictions: AtomicU64,
    /// Cached histograms recycled (or refused on insert) because their
    /// candidate ranked beyond the tree's remaining leaf budget and can no
    /// longer be split. Never causes a miss.
    pub hist_cache_trimmed: AtomicU64,
    /// Child histograms never built because the split that made the child
    /// spent the last of the leaf budget.
    pub hist_builds_skipped: AtomicU64,
    /// Block-plan tasks that accumulate into replica lanes and are reduced
    /// afterwards: the row blocks of a DP batch's multi-block jobs.
    pub plan_tasks_replicated: AtomicU64,
    /// Block-plan tasks that write their job's own buffer: every task of an
    /// MP batch, and the tasks of a DP batch's one-row-block jobs.
    pub plan_tasks_exclusive: AtomicU64,
    /// BuildHist batches whose block extents came from the auto-tuner cost
    /// model rather than an explicit config.
    pub plan_batches_auto: AtomicU64,
    /// Feature columns stored nibble-packed (u4) by the compressed-layout
    /// selector.
    pub cols_u4: AtomicU64,
    /// Original feature columns fused into bundled synthetic columns.
    pub cols_bundled: AtomicU64,
    /// Cell conflicts dropped by the bundle planner (non-zero only with a
    /// positive conflict budget).
    pub bundle_conflicts: AtomicU64,
    /// Kernel SIMD tier dispatched (0 scalar, 1 sse2, 2 avx2); a level, not
    /// a count.
    pub simd_tier: AtomicU64,
    /// Out-of-core chunks decoded from the cache file (zero when training
    /// in-core).
    pub chunk_loads: AtomicU64,
    /// Out-of-core chunks evicted under the resident-byte budget.
    pub chunk_evictions: AtomicU64,
    /// Chunk pins satisfied by the background prefetch worker.
    pub chunk_prefetch_hits: AtomicU64,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every counter.
    pub fn reset(&self) {
        for c in [
            &self.busy_ns,
            &self.barrier_wait_ns,
            &self.lock_wait_ns,
            &self.regions,
            &self.tasks,
            &self.bytes_read,
            &self.bytes_written,
            &self.flops,
            &self.region_write_ws_bytes,
            &self.region_write_ws_samples,
            &self.wall_ns,
            &self.scratch_allocs,
            &self.scratch_reuses,
            &self.partition_scratch_allocs,
            &self.partition_scratch_reuses,
            &self.hist_cache_hits,
            &self.hist_cache_misses,
            &self.hist_cache_declined,
            &self.hist_cache_evictions,
            &self.hist_cache_trimmed,
            &self.hist_builds_skipped,
            &self.plan_tasks_replicated,
            &self.plan_tasks_exclusive,
            &self.plan_batches_auto,
            &self.cols_u4,
            &self.cols_bundled,
            &self.bundle_conflicts,
            &self.simd_tier,
            &self.chunk_loads,
            &self.chunk_evictions,
            &self.chunk_prefetch_hits,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Adds kernel byte traffic and FLOPs (trainer-reported).
    pub fn add_bytes(&self, read: u64, written: u64, flops: u64) {
        self.bytes_read.fetch_add(read, Ordering::Relaxed);
        self.bytes_written.fetch_add(written, Ordering::Relaxed);
        self.flops.fetch_add(flops, Ordering::Relaxed);
    }

    /// Records scratch-buffer traffic: `allocs` fresh allocations (or pool
    /// growths) and `reuses` pool hits.
    pub fn add_scratch_events(&self, allocs: u64, reuses: u64) {
        self.scratch_allocs.fetch_add(allocs, Ordering::Relaxed);
        self.scratch_reuses.fetch_add(reuses, Ordering::Relaxed);
    }

    /// Records one parallel-partition invocation: `allocated` is whether the
    /// per-chunk scratch had to be allocated or grown.
    pub fn add_partition_scratch_event(&self, allocated: bool) {
        if allocated {
            self.partition_scratch_allocs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.partition_scratch_reuses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one histogram-pool cache lookup (`hit` = parent found) for
    /// the subtraction trick.
    pub fn add_hist_cache_lookup(&self, hit: bool) {
        if hit {
            self.hist_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hist_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one split of a node the pool declined to cache (scanning its
    /// children is the cheaper side).
    pub fn add_hist_cache_declined(&self) {
        self.hist_cache_declined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records histogram-pool cache evictions under the byte budget.
    pub fn add_hist_cache_evictions(&self, n: u64) {
        self.hist_cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records cached histograms recycled because their candidates ranked
    /// beyond the remaining leaf budget.
    pub fn add_hist_cache_trimmed(&self, n: u64) {
        self.hist_cache_trimmed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records child histograms skipped because the leaf budget was spent.
    pub fn add_hist_builds_skipped(&self, n: u64) {
        self.hist_builds_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one planned BuildHist batch: how many of its tasks accumulate
    /// into replicas and how many write exclusively, and whether the
    /// auto-tuner sized it.
    pub fn add_plan_events(&self, replicated_tasks: u64, exclusive_tasks: u64, auto_batches: u64) {
        self.plan_tasks_replicated.fetch_add(replicated_tasks, Ordering::Relaxed);
        self.plan_tasks_exclusive.fetch_add(exclusive_tasks, Ordering::Relaxed);
        self.plan_batches_auto.fetch_add(auto_batches, Ordering::Relaxed);
    }

    /// Records the compressed-layout decisions of one quantized matrix
    /// (counts of u4-packed and bundled columns plus planner conflicts) and
    /// the kernel SIMD tier dispatched (stored as a level, not added).
    pub fn add_layout_events(
        &self,
        cols_u4: u64,
        cols_bundled: u64,
        bundle_conflicts: u64,
        simd_tier: u64,
    ) {
        self.cols_u4.fetch_add(cols_u4, Ordering::Relaxed);
        self.cols_bundled.fetch_add(cols_bundled, Ordering::Relaxed);
        self.bundle_conflicts.fetch_add(bundle_conflicts, Ordering::Relaxed);
        self.simd_tier.store(simd_tier, Ordering::Relaxed);
    }

    /// Records out-of-core chunk-I/O traffic: decodes from the cache file,
    /// budget evictions, and pins the prefetch worker satisfied. The trainer
    /// feeds per-round deltas of the store's cumulative counters.
    pub fn add_chunk_io_events(&self, loads: u64, evictions: u64, prefetch_hits: u64) {
        self.chunk_loads.fetch_add(loads, Ordering::Relaxed);
        self.chunk_evictions.fetch_add(evictions, Ordering::Relaxed);
        self.chunk_prefetch_hits.fetch_add(prefetch_hits, Ordering::Relaxed);
    }

    /// Records the write working-set size of one scheduled task.
    pub fn observe_region_bytes(&self, write_working_set: u64) {
        self.region_write_ws_bytes.fetch_add(write_working_set, Ordering::Relaxed);
        self.region_write_ws_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to the wall-clock time covered by this profile.
    pub fn add_wall_ns(&self, ns: u64) {
        self.wall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copies every raw counter into a plain [`ProfileCounters`] value.
    ///
    /// Mirrors `BreakdownReport::since` in harp-metrics: take one snapshot at
    /// an interval boundary, another later, and
    /// [`ProfileCounters::delta`] yields the interval's traffic — the API
    /// per-round consumers (the run ledger) use instead of re-reading
    /// whole-run totals every round and double-counting.
    pub fn snapshot(&self) -> ProfileCounters {
        ProfileCounters {
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            barrier_wait_ns: self.barrier_wait_ns.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            regions: self.regions.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            flops: self.flops.load(Ordering::Relaxed),
            region_write_ws_bytes: self.region_write_ws_bytes.load(Ordering::Relaxed),
            region_write_ws_samples: self.region_write_ws_samples.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
            scratch_allocs: self.scratch_allocs.load(Ordering::Relaxed),
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
            partition_scratch_allocs: self.partition_scratch_allocs.load(Ordering::Relaxed),
            partition_scratch_reuses: self.partition_scratch_reuses.load(Ordering::Relaxed),
            hist_cache_hits: self.hist_cache_hits.load(Ordering::Relaxed),
            hist_cache_misses: self.hist_cache_misses.load(Ordering::Relaxed),
            hist_cache_declined: self.hist_cache_declined.load(Ordering::Relaxed),
            hist_cache_evictions: self.hist_cache_evictions.load(Ordering::Relaxed),
            hist_cache_trimmed: self.hist_cache_trimmed.load(Ordering::Relaxed),
            hist_builds_skipped: self.hist_builds_skipped.load(Ordering::Relaxed),
            plan_tasks_replicated: self.plan_tasks_replicated.load(Ordering::Relaxed),
            plan_tasks_exclusive: self.plan_tasks_exclusive.load(Ordering::Relaxed),
            plan_batches_auto: self.plan_batches_auto.load(Ordering::Relaxed),
            cols_u4: self.cols_u4.load(Ordering::Relaxed),
            cols_bundled: self.cols_bundled.load(Ordering::Relaxed),
            bundle_conflicts: self.bundle_conflicts.load(Ordering::Relaxed),
            simd_tier: self.simd_tier.load(Ordering::Relaxed),
            chunk_loads: self.chunk_loads.load(Ordering::Relaxed),
            chunk_evictions: self.chunk_evictions.load(Ordering::Relaxed),
            chunk_prefetch_hits: self.chunk_prefetch_hits.load(Ordering::Relaxed),
        }
    }

    /// Renders the counters into a report, given the number of pool threads.
    pub fn report(&self, threads: usize) -> ProfileReport {
        let busy = self.busy_ns.load(Ordering::Relaxed);
        let barrier = self.barrier_wait_ns.load(Ordering::Relaxed);
        let lock = self.lock_wait_ns.load(Ordering::Relaxed);
        let wall = self.wall_ns.load(Ordering::Relaxed);
        let tasks = self.tasks.load(Ordering::Relaxed);
        let regions = self.regions.load(Ordering::Relaxed);
        let read = self.bytes_read.load(Ordering::Relaxed);
        let written = self.bytes_written.load(Ordering::Relaxed);
        let flops = self.flops.load(Ordering::Relaxed);
        let ws_bytes = self.region_write_ws_bytes.load(Ordering::Relaxed);
        let ws_samples = self.region_write_ws_samples.load(Ordering::Relaxed);
        let scratch_allocs = self.scratch_allocs.load(Ordering::Relaxed);
        let scratch_reuses = self.scratch_reuses.load(Ordering::Relaxed);
        let partition_scratch_allocs = self.partition_scratch_allocs.load(Ordering::Relaxed);
        let partition_scratch_reuses = self.partition_scratch_reuses.load(Ordering::Relaxed);
        let hist_cache_hits = self.hist_cache_hits.load(Ordering::Relaxed);
        let hist_cache_misses = self.hist_cache_misses.load(Ordering::Relaxed);
        let hist_cache_declined = self.hist_cache_declined.load(Ordering::Relaxed);
        let hist_cache_evictions = self.hist_cache_evictions.load(Ordering::Relaxed);
        let hist_cache_trimmed = self.hist_cache_trimmed.load(Ordering::Relaxed);
        let hist_builds_skipped = self.hist_builds_skipped.load(Ordering::Relaxed);
        let cols_u4 = self.cols_u4.load(Ordering::Relaxed);
        let cols_bundled = self.cols_bundled.load(Ordering::Relaxed);
        let bundle_conflicts = self.bundle_conflicts.load(Ordering::Relaxed);
        let simd_tier = self.simd_tier.load(Ordering::Relaxed);
        let chunk_loads = self.chunk_loads.load(Ordering::Relaxed);
        let chunk_evictions = self.chunk_evictions.load(Ordering::Relaxed);
        let chunk_prefetch_hits = self.chunk_prefetch_hits.load(Ordering::Relaxed);

        let thread_time = (threads as u64).saturating_mul(wall);
        let in_region = busy + barrier;
        ProfileReport {
            threads,
            wall_secs: wall as f64 / 1e9,
            cpu_utilization: ratio(busy, thread_time),
            barrier_overhead: ratio(barrier, in_region),
            lock_wait_share: ratio(lock, in_region.max(1)),
            regions,
            tasks,
            avg_task_us: if tasks == 0 { 0.0 } else { busy as f64 / tasks as f64 / 1e3 },
            bytes_read: read,
            bytes_written: written,
            flops,
            flops_per_byte: ratio(flops, read + written),
            avg_write_working_set: if ws_samples == 0 {
                0.0
            } else {
                ws_bytes as f64 / ws_samples as f64
            },
            scratch_allocs,
            scratch_reuses,
            partition_scratch_allocs,
            partition_scratch_reuses,
            hist_cache_hits,
            hist_cache_misses,
            hist_cache_declined,
            hist_cache_evictions,
            hist_cache_trimmed,
            hist_builds_skipped,
            cols_u4,
            cols_bundled,
            bundle_conflicts,
            simd_tier,
            chunk_loads,
            chunk_evictions,
            chunk_prefetch_hits,
        }
    }
}

/// Raw counter values of a [`Profile`] at one instant — the snapshot half of
/// the snapshot/delta pair. Unlike [`ProfileReport`] (whole-run ratios),
/// these are plain monotone totals, so two snapshots subtract cleanly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileCounters {
    /// Worker busy nanoseconds.
    pub busy_ns: u64,
    /// End-of-region barrier-wait nanoseconds.
    pub barrier_wait_ns: u64,
    /// Contended spin-lock wait nanoseconds.
    pub lock_wait_ns: u64,
    /// Fork/join regions executed.
    pub regions: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Trainer-reported bytes read.
    pub bytes_read: u64,
    /// Trainer-reported bytes written.
    pub bytes_written: u64,
    /// Trainer-reported FLOPs.
    pub flops: u64,
    /// Summed write working-set bytes.
    pub region_write_ws_bytes: u64,
    /// Write working-set observations.
    pub region_write_ws_samples: u64,
    /// Wall nanoseconds covered.
    pub wall_ns: u64,
    /// Replica-arena allocations or growths.
    pub scratch_allocs: u64,
    /// Replica-arena pool hits.
    pub scratch_reuses: u64,
    /// Partition-scratch allocations or growths.
    pub partition_scratch_allocs: u64,
    /// Partition-scratch reuses.
    pub partition_scratch_reuses: u64,
    /// Histogram-cache hits.
    pub hist_cache_hits: u64,
    /// Histogram-cache misses.
    pub hist_cache_misses: u64,
    /// Splits of nodes the cache declined (children cheaper to scan).
    pub hist_cache_declined: u64,
    /// Histogram-cache evictions.
    pub hist_cache_evictions: u64,
    /// Cached histograms recycled beyond the remaining leaf budget.
    pub hist_cache_trimmed: u64,
    /// Child histograms never built because the leaf budget was spent.
    pub hist_builds_skipped: u64,
    /// Block-plan tasks accumulated into replica lanes and reduced.
    pub plan_tasks_replicated: u64,
    /// Block-plan tasks writing their job's own buffer.
    pub plan_tasks_exclusive: u64,
    /// Auto-tuned BuildHist batches.
    pub plan_batches_auto: u64,
    /// Feature columns stored nibble-packed (u4).
    pub cols_u4: u64,
    /// Original feature columns fused into bundles.
    pub cols_bundled: u64,
    /// Cell conflicts dropped by the bundle planner.
    pub bundle_conflicts: u64,
    /// Kernel SIMD tier (0 scalar, 1 sse2, 2 avx2).
    pub simd_tier: u64,
    /// Out-of-core chunks decoded.
    pub chunk_loads: u64,
    /// Out-of-core chunks evicted under the resident budget.
    pub chunk_evictions: u64,
    /// Chunk pins satisfied by the prefetch worker.
    pub chunk_prefetch_hits: u64,
}

impl ProfileCounters {
    /// Element-wise difference `self - earlier` (saturating, so a reset
    /// between snapshots yields zeros rather than wrapping).
    pub fn delta(&self, earlier: &ProfileCounters) -> ProfileCounters {
        let mut out = ProfileCounters::default();
        for ((_, d), ((_, a), (_, b))) in
            out.named_mut().into_iter().zip(self.named().into_iter().zip(earlier.named()))
        {
            *d = a.saturating_sub(b);
        }
        out
    }

    /// `(name, value)` view in a stable order — the generic form ledger
    /// records and diff tables consume.
    pub fn named(&self) -> [(&'static str, u64); 31] {
        [
            ("busy_ns", self.busy_ns),
            ("barrier_wait_ns", self.barrier_wait_ns),
            ("lock_wait_ns", self.lock_wait_ns),
            ("regions", self.regions),
            ("tasks", self.tasks),
            ("bytes_read", self.bytes_read),
            ("bytes_written", self.bytes_written),
            ("flops", self.flops),
            ("region_write_ws_bytes", self.region_write_ws_bytes),
            ("region_write_ws_samples", self.region_write_ws_samples),
            ("wall_ns", self.wall_ns),
            ("scratch_allocs", self.scratch_allocs),
            ("scratch_reuses", self.scratch_reuses),
            ("partition_scratch_allocs", self.partition_scratch_allocs),
            ("partition_scratch_reuses", self.partition_scratch_reuses),
            ("hist_cache_hits", self.hist_cache_hits),
            ("hist_cache_misses", self.hist_cache_misses),
            ("hist_cache_declined", self.hist_cache_declined),
            ("hist_cache_evictions", self.hist_cache_evictions),
            ("hist_cache_trimmed", self.hist_cache_trimmed),
            ("hist_builds_skipped", self.hist_builds_skipped),
            ("plan_tasks_replicated", self.plan_tasks_replicated),
            ("plan_tasks_exclusive", self.plan_tasks_exclusive),
            ("plan_batches_auto", self.plan_batches_auto),
            ("cols_u4", self.cols_u4),
            ("cols_bundled", self.cols_bundled),
            ("bundle_conflicts", self.bundle_conflicts),
            ("simd_tier", self.simd_tier),
            ("chunk_loads", self.chunk_loads),
            ("chunk_evictions", self.chunk_evictions),
            ("chunk_prefetch_hits", self.chunk_prefetch_hits),
        ]
    }

    fn named_mut(&mut self) -> [(&'static str, &mut u64); 31] {
        [
            ("busy_ns", &mut self.busy_ns),
            ("barrier_wait_ns", &mut self.barrier_wait_ns),
            ("lock_wait_ns", &mut self.lock_wait_ns),
            ("regions", &mut self.regions),
            ("tasks", &mut self.tasks),
            ("bytes_read", &mut self.bytes_read),
            ("bytes_written", &mut self.bytes_written),
            ("flops", &mut self.flops),
            ("region_write_ws_bytes", &mut self.region_write_ws_bytes),
            ("region_write_ws_samples", &mut self.region_write_ws_samples),
            ("wall_ns", &mut self.wall_ns),
            ("scratch_allocs", &mut self.scratch_allocs),
            ("scratch_reuses", &mut self.scratch_reuses),
            ("partition_scratch_allocs", &mut self.partition_scratch_allocs),
            ("partition_scratch_reuses", &mut self.partition_scratch_reuses),
            ("hist_cache_hits", &mut self.hist_cache_hits),
            ("hist_cache_misses", &mut self.hist_cache_misses),
            ("hist_cache_declined", &mut self.hist_cache_declined),
            ("hist_cache_evictions", &mut self.hist_cache_evictions),
            ("hist_cache_trimmed", &mut self.hist_cache_trimmed),
            ("hist_builds_skipped", &mut self.hist_builds_skipped),
            ("plan_tasks_replicated", &mut self.plan_tasks_replicated),
            ("plan_tasks_exclusive", &mut self.plan_tasks_exclusive),
            ("plan_batches_auto", &mut self.plan_batches_auto),
            ("cols_u4", &mut self.cols_u4),
            ("cols_bundled", &mut self.cols_bundled),
            ("bundle_conflicts", &mut self.bundle_conflicts),
            ("simd_tier", &mut self.simd_tier),
            ("chunk_loads", &mut self.chunk_loads),
            ("chunk_evictions", &mut self.chunk_evictions),
            ("chunk_prefetch_hits", &mut self.chunk_prefetch_hits),
        ]
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A rendered snapshot of a [`Profile`] — the rows of Tables I / VI.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// Pool size the report was rendered against.
    pub threads: usize,
    /// Wall-clock seconds covered.
    pub wall_secs: f64,
    /// Fraction of total thread-time spent executing tasks (paper: "Average
    /// CPU Utilization").
    pub cpu_utilization: f64,
    /// Fraction of in-region thread-time spent waiting at the end-of-region
    /// barrier (paper: "OpenMP Barrier Overhead").
    pub barrier_overhead: f64,
    /// Fraction of in-region thread-time spent spinning on contended locks
    /// (relevant for ASYNC mode).
    pub lock_wait_share: f64,
    /// Number of fork/join regions (== thread synchronizations).
    pub regions: u64,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Mean task duration in microseconds (paper's "Average Latency" analog;
    /// cycles are unavailable without PMCs).
    pub avg_task_us: f64,
    /// Trainer-reported bytes read.
    pub bytes_read: u64,
    /// Trainer-reported bytes written.
    pub bytes_written: u64,
    /// Trainer-reported floating point operations.
    pub flops: u64,
    /// Compute intensity; the paper derives 0.0625 FLOP/byte for BuildHist
    /// and uses it to explain the >50% memory-bound share.
    pub flops_per_byte: f64,
    /// Mean write working-set (bytes) of a scheduled task; §IV-E's
    /// `16 × bin_blk × feature_blk × node_blk` quantity.
    pub avg_write_working_set: f64,
    /// Scratch replica allocations (or growths). Zero after the first
    /// frontier in steady-state training.
    pub scratch_allocs: u64,
    /// Scratch replica pool hits.
    pub scratch_reuses: u64,
    /// Parallel-partition scratch allocations or growths.
    pub partition_scratch_allocs: u64,
    /// Parallel-partition scratch reuses.
    pub partition_scratch_reuses: u64,
    /// Histogram-cache hits (subtraction trick applicable).
    pub hist_cache_hits: u64,
    /// Histogram-cache misses.
    pub hist_cache_misses: u64,
    /// Splits of nodes the cache declined (children cheaper to scan).
    pub hist_cache_declined: u64,
    /// Histogram-cache budget evictions.
    pub hist_cache_evictions: u64,
    /// Cached histograms recycled beyond the remaining leaf budget.
    pub hist_cache_trimmed: u64,
    /// Child histograms never built because the leaf budget was spent.
    pub hist_builds_skipped: u64,
    /// Feature columns stored nibble-packed (u4).
    pub cols_u4: u64,
    /// Original feature columns fused into bundles.
    pub cols_bundled: u64,
    /// Cell conflicts dropped by the bundle planner.
    pub bundle_conflicts: u64,
    /// Kernel SIMD tier dispatched (0 scalar, 1 sse2, 2 avx2).
    pub simd_tier: u64,
    /// Out-of-core chunks decoded (zero in-core).
    pub chunk_loads: u64,
    /// Out-of-core chunks evicted under the resident budget.
    pub chunk_evictions: u64,
    /// Chunk pins satisfied by the prefetch worker.
    pub chunk_prefetch_hits: u64,
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "threads                 {:>12}", self.threads)?;
        writeln!(f, "wall time               {:>12.3} s", self.wall_secs)?;
        writeln!(f, "CPU utilization         {:>11.1}%", self.cpu_utilization * 100.0)?;
        writeln!(f, "barrier overhead        {:>11.1}%", self.barrier_overhead * 100.0)?;
        writeln!(f, "lock wait share         {:>11.2}%", self.lock_wait_share * 100.0)?;
        writeln!(f, "regions (barriers)      {:>12}", self.regions)?;
        writeln!(f, "tasks                   {:>12}", self.tasks)?;
        writeln!(f, "avg task latency        {:>12.2} us", self.avg_task_us)?;
        writeln!(f, "FLOP / byte             {:>12.4}", self.flops_per_byte)?;
        writeln!(f, "avg write working set   {:>12.0} B", self.avg_write_working_set)?;
        writeln!(
            f,
            "scratch alloc / reuse   {:>6} / {:<6}",
            self.scratch_allocs, self.scratch_reuses
        )?;
        writeln!(
            f,
            "partition alloc / reuse {:>6} / {:<6}",
            self.partition_scratch_allocs, self.partition_scratch_reuses
        )?;
        writeln!(
            f,
            "hist cache hit/miss/evict {:>4} / {} / {}",
            self.hist_cache_hits, self.hist_cache_misses, self.hist_cache_evictions
        )?;
        writeln!(
            f,
            "hist declined / trimmed / skipped {:>4} / {} / {}",
            self.hist_cache_declined, self.hist_cache_trimmed, self.hist_builds_skipped
        )?;
        let tier = match self.simd_tier {
            0 => "scalar",
            1 => "sse2",
            _ => "avx2",
        };
        writeln!(
            f,
            "layout u4/bundled/conflicts {:>2} / {} / {} (simd {})",
            self.cols_u4, self.cols_bundled, self.bundle_conflicts, tier
        )?;
        write!(
            f,
            "chunk load/evict/prefetch {:>4} / {} / {}",
            self.chunk_loads, self.chunk_evictions, self.chunk_prefetch_hits
        )
    }
}

/// RAII helper that adds its lifetime to a named duration counter on drop.
/// Used by trainers to attribute wall time to BuildHist / FindSplit /
/// ApplySplit without sprinkling explicit timer calls.
pub struct ScopedPhase<'a> {
    counter: &'a AtomicU64,
    start: Instant,
}

impl<'a> ScopedPhase<'a> {
    /// Starts timing; the elapsed nanoseconds are added to `counter` on drop.
    pub fn new(counter: &'a AtomicU64) -> Self {
        Self { counter, start: Instant::now() }
    }
}

impl Drop for ScopedPhase<'_> {
    fn drop(&mut self) {
        self.counter
            .fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_on_empty_profile_is_zeroed() {
        let p = Profile::new();
        let r = p.report(4);
        assert_eq!(r.cpu_utilization, 0.0);
        assert_eq!(r.barrier_overhead, 0.0);
        assert_eq!(r.tasks, 0);
    }

    #[test]
    fn utilization_and_barrier_math() {
        let p = Profile::new();
        p.busy_ns.store(600, Ordering::Relaxed);
        p.barrier_wait_ns.store(200, Ordering::Relaxed);
        p.wall_ns.store(200, Ordering::Relaxed);
        let r = p.report(4); // thread time = 800
        assert!((r.cpu_utilization - 0.75).abs() < 1e-12);
        assert!((r.barrier_overhead - 0.25).abs() < 1e-12);
    }

    #[test]
    fn flops_per_byte_matches_paper_example() {
        // §III-B: one read + one write of a 16-byte GHSum cell per FLOP
        // gives 1/16 = 0.0625... the paper counts one 16-byte access total.
        let p = Profile::new();
        p.add_bytes(16, 0, 1);
        let r = p.report(1);
        assert!((r.flops_per_byte - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let p = Profile::new();
        p.add_bytes(1, 2, 3);
        p.tasks.store(9, Ordering::Relaxed);
        p.reset();
        let r = p.report(2);
        assert_eq!(r.bytes_read, 0);
        assert_eq!(r.tasks, 0);
    }

    #[test]
    fn scoped_phase_accumulates() {
        let c = AtomicU64::new(0);
        {
            let _p = ScopedPhase::new(&c);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(c.load(Ordering::Relaxed) >= 4_000_000);
    }

    #[test]
    fn working_set_average() {
        let p = Profile::new();
        p.observe_region_bytes(100);
        p.observe_region_bytes(300);
        let r = p.report(1);
        assert!((r.avg_write_working_set - 200.0).abs() < 1e-9);
    }

    #[test]
    fn report_displays_all_rows() {
        let p = Profile::new();
        let r = p.report(2);
        let text = format!("{r}");
        for needle in ["CPU utilization", "barrier overhead", "avg task latency", "hist cache"] {
            assert!(text.contains(needle), "missing row {needle}");
        }
    }

    #[test]
    fn snapshot_delta_isolates_an_interval() {
        let p = Profile::new();
        p.add_bytes(100, 50, 10);
        p.add_scratch_events(2, 3);
        let before = p.snapshot();
        p.add_bytes(7, 1, 2);
        p.add_hist_cache_lookup(true);
        p.add_hist_cache_lookup(false);
        p.add_hist_cache_declined();
        p.add_hist_cache_evictions(4);
        p.add_hist_cache_trimmed(3);
        p.add_hist_builds_skipped(2);
        p.add_plan_events(12, 5, 1);
        let d = p.snapshot().delta(&before);
        assert_eq!(d.bytes_read, 7);
        assert_eq!(d.bytes_written, 1);
        assert_eq!(d.flops, 2);
        assert_eq!(d.scratch_allocs, 0, "pre-snapshot traffic excluded");
        assert_eq!(d.hist_cache_hits, 1);
        assert_eq!(d.hist_cache_misses, 1);
        assert_eq!(d.hist_cache_declined, 1);
        assert_eq!(d.hist_cache_evictions, 4);
        assert_eq!(d.hist_cache_trimmed, 3);
        assert_eq!(d.hist_builds_skipped, 2);
        assert_eq!(d.plan_tasks_replicated, 12);
        assert_eq!(d.plan_tasks_exclusive, 5);
        assert_eq!(d.plan_batches_auto, 1);
    }

    #[test]
    fn delta_saturates_after_reset() {
        let p = Profile::new();
        p.add_bytes(100, 0, 0);
        let before = p.snapshot();
        p.reset();
        let d = p.snapshot().delta(&before);
        assert_eq!(d.bytes_read, 0, "reset between snapshots must not wrap");
    }

    #[test]
    fn counter_delta_under_concurrent_increments() {
        // Interval deltas must equal exactly the traffic added between the
        // two snapshots even while other threads hammer the counters, since
        // every counter is a monotone relaxed atomic.
        let p = std::sync::Arc::new(Profile::new());
        let before = p.snapshot();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let p = std::sync::Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        p.add_bytes(1, 2, 3);
                        p.add_hist_cache_lookup(true);
                        p.add_partition_scratch_event(false);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let d = p.snapshot().delta(&before);
        assert_eq!(d.bytes_read, 40_000);
        assert_eq!(d.bytes_written, 80_000);
        assert_eq!(d.flops, 120_000);
        assert_eq!(d.hist_cache_hits, 40_000);
        assert_eq!(d.partition_scratch_reuses, 40_000);
        // The named view covers every field (a new counter must be added to
        // `named()` or this count drifts).
        assert_eq!(d.named().len(), 31);
    }

    #[test]
    fn chunk_io_events_accumulate_and_delta() {
        let p = Profile::new();
        p.add_chunk_io_events(5, 2, 1);
        let before = p.snapshot();
        p.add_chunk_io_events(3, 1, 0);
        let d = p.snapshot().delta(&before);
        assert_eq!(d.chunk_loads, 3);
        assert_eq!(d.chunk_evictions, 1);
        assert_eq!(d.chunk_prefetch_hits, 0);
        assert_eq!(p.snapshot().chunk_loads, 8);
    }

    #[test]
    fn counters_serde_roundtrip() {
        let p = Profile::new();
        p.add_bytes(5, 6, 7);
        p.add_hist_cache_evictions(9);
        let snap = p.snapshot();
        let v = serde::Serialize::to_value(&snap);
        let back = <ProfileCounters as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, snap);
    }
}
