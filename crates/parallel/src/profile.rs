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

use serde::Serialize;
use std::sync::atomic::Ordering;

/// Declares a table of monotone `u64` counters **once**: each entry's name
/// and doc become a `pub AtomicU64` field of the `atomics` struct and a
/// `pub u64` field of the `Copy` `snapshot` struct, and `reset` / `snapshot`
/// / `delta` / `plus` / `named` / `HELP` follow from the same list — a new
/// counter is one line of its table (plus whatever feeds and prints it).
/// [`Profile`] is one table; the serve crate's counters are another. The
/// caller needs `serde` as a dependency.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$atomics_meta:meta])* atomics $Atomics:ident;
        $(#[$snapshot_meta:meta])* snapshot $Snapshot:ident;
        $( $(#[doc = $doc:literal])* $name:ident, )*
    ) => {
        $(#[$atomics_meta])*
        #[derive(Debug, Default)]
        pub struct $Atomics {
            $( $(#[doc = $doc])* pub $name: ::std::sync::atomic::AtomicU64, )*
        }

        impl $Atomics {
            /// The atomics in declaration order.
            fn cells(&self) -> [&::std::sync::atomic::AtomicU64; $Snapshot::LEN] {
                [$( &self.$name, )*]
            }

            /// Clears every counter.
            pub fn reset(&self) {
                for cell in self.cells() {
                    cell.store(0, ::std::sync::atomic::Ordering::Relaxed);
                }
            }

            /// Copies every counter into a plain snapshot value. Take one at
            /// an interval boundary, another later, and `delta` yields the
            /// interval's traffic.
            pub fn snapshot(&self) -> $Snapshot {
                $Snapshot {
                    $( $name: self.$name.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }

        $(#[$snapshot_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
        pub struct $Snapshot {
            $( $(#[doc = $doc])* pub $name: u64, )*
        }

        impl $Snapshot {
            /// Number of entries in the table.
            pub const LEN: usize = [$( stringify!($name), )*].len();

            /// Each entry's doc as one line, in declaration order (the
            /// `/metrics` HELP text of a served counter).
            pub const HELP: [&'static str; Self::LEN] =
                [$( concat!($($doc),*).trim_ascii_start(), )*];

            /// Element-wise difference `self - earlier` (saturating, so a
            /// reset between snapshots yields zeros rather than wrapping).
            pub fn delta(&self, earlier: &Self) -> Self {
                Self { $( $name: self.$name.saturating_sub(earlier.$name), )* }
            }

            /// Element-wise sum, for totals across several tables.
            pub fn plus(&self, other: &Self) -> Self {
                Self { $( $name: self.$name + other.$name, )* }
            }

            /// `(name, value)` view in declaration order — the generic form
            /// ledger records and diff tables consume.
            pub fn named(&self) -> [(&'static str, u64); Self::LEN] {
                [$( (stringify!($name), self.$name), )*]
            }
        }
    };
}
counter_table! {
    /// Shared, thread-safe profiling accumulator.
    ///
    /// One `Profile` is attached to a [`crate::ThreadPool`]; the trainer
    /// snapshots it at measurement boundaries and renders a [`ProfileReport`]
    /// afterwards. All counters are relaxed atomics — they are statistics,
    /// not synchronization.
    atomics Profile;
    /// Raw counter values of a [`Profile`] at one instant. Unlike
    /// [`ProfileReport`]'s ratios these are plain monotone totals, so two
    /// snapshots subtract cleanly.
    snapshot ProfileCounters;

    /// Nanoseconds workers spent executing tasks.
    busy_ns,
    /// Nanoseconds workers spent idle inside a fork/join region after
    /// finishing their share (the barrier wait).
    barrier_wait_ns,
    /// Nanoseconds spent waiting to acquire contended spin locks.
    lock_wait_ns,
    /// Number of fork/join regions executed (== number of implicit barriers).
    regions,
    /// Number of individual tasks executed: the shares and indices of every
    /// region, and every ASYNC node task.
    tasks,
    /// Bytes read by trainer kernels (reported by the trainer, not measured).
    bytes_read,
    /// Bytes written by trainer kernels.
    bytes_written,
    /// Floating point operations reported by trainer kernels.
    flops,
    /// Sum over regions of the written working-set size (bytes) — the size of
    /// the GHSum region a task writes into, which §IV-E ties to cache misses.
    region_write_ws_bytes,
    /// Number of working-set observations (for averaging).
    region_write_ws_samples,
    /// Wall-clock nanoseconds covered by this profile.
    wall_ns,
    /// Scratch (histogram replica) buffers freshly allocated or grown by the
    /// drivers. Steady-state training must not increment this.
    scratch_allocs,
    /// Scratch buffers reused from the pool without allocation.
    scratch_reuses,
    /// Parallel-partition scratch (per-chunk counters and prefix bases)
    /// allocations or growths. Steady-state training must not increment this.
    partition_scratch_allocs,
    /// Parallel-partition scratch reuses (no allocation).
    partition_scratch_reuses,
    /// Histogram-pool candidate-cache hits (parent histogram found, enabling
    /// the parent − sibling subtraction trick).
    hist_cache_hits,
    /// Histogram-pool candidate-cache misses (parent absent or evicted; both
    /// children need a fresh BuildHist).
    hist_cache_misses,
    /// Splits whose node was never cached because scanning its larger child
    /// is cheaper than deriving it by subtraction: no lookup, both children
    /// are built from rows. Not a miss.
    hist_cache_declined,
    /// Candidate histograms given up under the histogram pool's byte
    /// budget (the lowest-ranked held, or a newcomer ranked lower still).
    hist_cache_evictions,
    /// Candidate histograms recycled because their candidate ranked beyond
    /// the tree's remaining leaf budget, which drops it from the growth
    /// queue: it can no longer be split. Never causes a miss.
    hist_cache_trimmed,
    /// Child histograms never built because the split that made the child
    /// spent the last of the leaf budget.
    hist_builds_skipped,
    /// BuildHist batches planned: every barrier batch and every ASYNC node
    /// task's batch of one slot.
    plan_batches,
    /// Block-plan tasks that accumulate into replica lanes and are reduced
    /// afterwards: the row blocks of a DP batch's multi-block jobs.
    plan_tasks_replicated,
    /// Block-plan tasks that write their job's own buffer: every task of an
    /// MP batch, and the tasks of a DP batch's one-row-block jobs.
    plan_tasks_exclusive,
    /// BuildHist batches whose block extents came from the auto-tuner cost
    /// model rather than an explicit config.
    plan_batches_auto,
    /// The CPU's vector tier (0 scalar, 2 avx2; `kernels::simd_tier`), which
    /// picks set-up's run kernel body and no BuildHist body; a level, not a
    /// count.
    simd_tier,
    /// Out-of-core chunks decoded from the cache file (zero when training
    /// in-core). The store keeps the chunk totals itself; the trainer reads
    /// them into each snapshot it takes.
    chunk_loads,
    /// Out-of-core chunks evicted under the resident-byte budget.
    chunk_evictions,
    /// Always 0: chunks are decoded by the thread that pins them, so no pin
    /// finds a chunk another thread loaded ahead of it. Kept because the
    /// end-to-end benchmark's `binning.chunk_prefetch_hit_ratio` reads it.
    chunk_prefetch_hits,
    /// ASYNC node tasks run: one per candidate a task claimed off the
    /// growth frontier, so one per split made outside the barrier batches.
    queue_pops,
    /// Nanoseconds ASYNC workers idled on a frontier with nothing to claim
    /// (or K claims in flight) that was not yet drained; also charged to
    /// `barrier_wait_ns`.
    queue_spin_ns,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
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
    pub fn add_plan_batch(&self, replicated_tasks: u64, exclusive_tasks: u64, auto: bool) {
        self.plan_batches.fetch_add(1, Ordering::Relaxed);
        self.plan_tasks_replicated.fetch_add(replicated_tasks, Ordering::Relaxed);
        self.plan_tasks_exclusive.fetch_add(exclusive_tasks, Ordering::Relaxed);
        self.plan_batches_auto.fetch_add(u64::from(auto), Ordering::Relaxed);
    }

    /// Records the CPU's vector tier (stored as a level, not added).
    pub fn set_simd_tier(&self, simd_tier: u64) {
        self.simd_tier.store(simd_tier, Ordering::Relaxed);
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

    /// Renders the current counters into a report, given the number of pool
    /// threads.
    pub fn report(&self, threads: usize) -> ProfileReport {
        self.snapshot().report(threads)
    }
}

impl ProfileCounters {
    /// Derives the Tables I / VI ratios from these totals, given the number
    /// of pool threads.
    pub fn report(&self, threads: usize) -> ProfileReport {
        let busy = self.busy_ns;
        let in_region = busy + self.barrier_wait_ns;
        let per = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        ProfileReport {
            threads,
            wall_secs: self.wall_ns as f64 / 1e9,
            cpu_utilization: per(busy, (threads as u64).saturating_mul(self.wall_ns)),
            barrier_overhead: per(self.barrier_wait_ns, in_region),
            lock_wait_share: per(self.lock_wait_ns, in_region.max(1)),
            avg_task_us: per(busy, self.tasks) / 1e3,
            flops_per_byte: per(self.flops, self.bytes_read + self.bytes_written),
            avg_write_working_set: per(self.region_write_ws_bytes, self.region_write_ws_samples),
            counters: *self,
        }
    }
}

/// The rows of Tables I / VI: ratios derived from one [`ProfileCounters`]
/// snapshot, which is kept alongside and read through `Deref`
/// (`report.regions`, `report.hist_cache_hits`, ...).
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
    /// Mean task duration in microseconds (paper's "Average Latency" analog;
    /// cycles are unavailable without PMCs).
    pub avg_task_us: f64,
    /// Compute intensity; the paper derives 0.0625 FLOP/byte for BuildHist
    /// and uses it to explain the >50% memory-bound share.
    pub flops_per_byte: f64,
    /// Mean write working-set (bytes) of a scheduled task; §IV-E's
    /// `16 × bin_blk × feature_blk × node_blk` quantity.
    pub avg_write_working_set: f64,
    /// The totals the ratios were derived from.
    pub counters: ProfileCounters,
}

impl std::ops::Deref for ProfileReport {
    type Target = ProfileCounters;

    fn deref(&self) -> &ProfileCounters {
        &self.counters
    }
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
        let tier = if self.simd_tier == 0 { "scalar" } else { "avx2" };
        writeln!(f, "simd tier               {tier:>12}")?;
        write!(f, "chunk load/evict        {:>4} / {}", self.chunk_loads, self.chunk_evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        p.add_hist_cache_trimmed(7);
        let r = p.report(2);
        let text = format!("{r}");
        for needle in ["CPU utilization", "barrier overhead", "avg task latency", "hist cache"] {
            assert!(text.contains(needle), "missing row {needle}");
        }
        assert_eq!(text.lines().count(), 16);
        assert!(text.contains("hist declined / trimmed / skipped    0 / 7 / 0"), "{text}");
    }

    /// The `add_*` helpers are hand-written, so which field each one feeds
    /// is checked by hand; the table itself is covered by the proptest.
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
        p.add_plan_batch(12, 5, true);
        p.add_plan_batch(0, 3, false);
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
        assert_eq!(d.plan_batches, 2);
        assert_eq!(d.plan_tasks_replicated, 12);
        assert_eq!(d.plan_tasks_exclusive, 8);
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
    }

    #[test]
    fn help_is_each_entry_doc_on_one_line() {
        assert_eq!(ProfileCounters::HELP[0], "Nanoseconds workers spent executing tasks.");
        assert_eq!(
            ProfileCounters::HELP[1],
            "Nanoseconds workers spent idle inside a fork/join region after finishing their \
             share (the barrier wait)."
        );
    }

    #[test]
    fn counters_serde_roundtrip() {
        let p = Profile::new();
        p.add_bytes(5, 6, 7);
        p.add_hist_cache_evictions(9);
        let snap = p.snapshot();
        let v = serde::Serialize::to_value(&snap);
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, snap.named().map(|(name, _)| name), "JSON keys are the table, in order");
        let back = <ProfileCounters as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, snap);
    }

    proptest! {
        /// The whole table mechanism on its real instance: bump random
        /// entries by random amounts and every generated view — `snapshot`,
        /// `delta` against an earlier snapshot, `named`, `reset` — must
        /// agree with a plain array kept alongside.
        #[test]
        fn prop_table_views_agree_with_a_plain_array(
            early in prop::collection::vec((0usize..ProfileCounters::LEN, 0u64..1 << 40), 0..40),
            late in prop::collection::vec((0usize..ProfileCounters::LEN, 0u64..1 << 40), 0..40),
        ) {
            let p = Profile::new();
            let cells = p.cells();
            let bump = |bumps: &[(usize, u64)], totals: &mut [u64]| {
                for &(i, by) in bumps {
                    cells[i].fetch_add(by, Ordering::Relaxed);
                    totals[i] += by;
                }
            };
            let values = |c: &ProfileCounters| c.named().map(|(_, v)| v).to_vec();

            let mut totals = vec![0u64; ProfileCounters::LEN];
            bump(&early, &mut totals);
            let before = p.snapshot();
            prop_assert_eq!(values(&before), totals.clone());
            let mut interval = vec![0u64; ProfileCounters::LEN];
            bump(&late, &mut interval);
            let after = p.snapshot();
            // Entry i of `named` is entry i of the atomics: a bump lands in
            // its own slot of both views and nowhere else.
            prop_assert_eq!(values(&after.delta(&before)), interval.clone());
            prop_assert_eq!(values(&before.delta(&after)), vec![0u64; ProfileCounters::LEN]);
            prop_assert_eq!(before.plus(&after.delta(&before)), after);

            let names = after.named().map(|(name, _)| name);
            prop_assert_eq!(names.len(), ProfileCounters::LEN);
            prop_assert_eq!((names[0], names[ProfileCounters::LEN - 1]), ("busy_ns", "queue_spin_ns"));
            let unique: std::collections::HashSet<_> = names.iter().collect();
            prop_assert_eq!(unique.len(), names.len());

            p.reset();
            prop_assert_eq!(p.snapshot(), ProfileCounters::default());
        }
    }
}
