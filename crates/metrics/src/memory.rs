//! Byte-level memory accounting: [`MemGauge`] and the per-run registry.
//!
//! Table V of the HarpGBDT paper argues the MemBuf design from its memory
//! footprint; reproducing that argument requires knowing, per boosting
//! round, how many bytes each pool actually holds. A [`MemGauge`] is a
//! `(current, high-water)` byte pair kept by one component — the histogram
//! pool, the DP replica arena, the MemBuf gradient replicas, the partition
//! scratch, the flat inference forest. Components update their gauge at
//! allocation/release sites; the run ledger reads every gauge once per
//! round.
//!
//! Semantics:
//! * [`add`](MemGauge::add) / [`sub`](MemGauge::sub) track ownership
//!   transfer — `current` moves, `high_water` only ratchets up. A pool that
//!   shrinks or evicts calls `sub`; its high-water mark keeps the peak.
//! * [`observe`](MemGauge::observe) sets `current` outright (and ratchets
//!   the high-water mark) — for components whose footprint is recomputed
//!   from their state rather than tracked incrementally (fixed-size buffers,
//!   transient objects).
//!
//! All updates are relaxed atomics: gauges are statistics, not
//! synchronization, and an update is one `fetch_add`/`fetch_max` pair — cheap
//! enough to leave enabled unconditionally.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Current/high-water byte accounting for one memory pool.
#[derive(Debug, Default)]
pub struct MemGauge {
    current: AtomicU64,
    high_water: AtomicU64,
}

impl MemGauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `bytes` to the current footprint, ratcheting the high-water
    /// mark.
    pub fn add(&self, bytes: u64) {
        let prev = self.current.fetch_add(bytes, Ordering::Relaxed);
        self.high_water.fetch_max(prev + bytes, Ordering::Relaxed);
    }

    /// Subtracts `bytes` from the current footprint (saturating at zero
    /// under racy release ordering). The high-water mark is untouched.
    pub fn sub(&self, bytes: u64) {
        // fetch_update to saturate: a plain fetch_sub could wrap if releases
        // race ahead of the adds that cover them.
        let _ = self.current.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_sub(bytes))
        });
    }

    /// Sets the current footprint to `bytes` and ratchets the high-water
    /// mark — for recomputed (non-incremental) footprints.
    pub fn observe(&self, bytes: u64) {
        self.current.store(bytes, Ordering::Relaxed);
        self.high_water.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Ratchets the high-water mark only, leaving `current` untouched — for
    /// components that track their own peak internally (e.g. a chunk cache
    /// whose momentary peaks fall between ledger snapshots).
    pub fn observe_peak(&self, bytes: u64) {
        self.high_water.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Current bytes held.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Peak bytes ever held.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// One gauge's values at a snapshot instant — the serialized form embedded
/// in ledger records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemGaugeRecord {
    /// Registry name (e.g. `hist_pool`, `membuf`).
    pub name: String,
    /// Bytes held when the snapshot was taken.
    pub current_bytes: u64,
    /// Peak bytes up to the snapshot.
    pub high_water_bytes: u64,
}

/// Well-known gauge names wired by the trainer, so ledgers from different
/// runs diff by name without string drift.
pub mod gauges {
    /// Total bytes owned by the histogram pool (free list + cache +
    /// outstanding buffers).
    pub const HIST_POOL: &str = "hist_pool";
    /// Bytes held by the candidate-histogram cache specifically (shrinks on
    /// trim, eviction and take).
    pub const HIST_CACHE: &str = "hist_cache";
    /// DP replica arena (whole-batch histogram replicas).
    pub const SCRATCH_ARENA: &str = "scratch_arena";
    /// MemBuf: the gradient halves of the row partition's two planes, zero
    /// when `use_membuf` is off.
    pub const MEMBUF: &str = "membuf";
    /// The rest of the row partition: the row-id halves of the two planes,
    /// the routing mask, the span and batch-task tables and — with MemBuf
    /// off — the row-ordered gradient array.
    pub const PARTITION: &str = "partition";
    /// Flat inference forest compiled for incremental evaluation.
    pub const FLAT_FOREST: &str = "flat_forest";
    /// Quantized bin storage (both majors, dense or sparse) when training
    /// in-core — the dominant allocation of a training run.
    pub const QUANT_STORE: &str = "quant_store";
    /// Decoded chunk slabs resident in the out-of-core store; the high-water
    /// mark proves a `--mem-budget` run stayed under its budget.
    pub const CHUNK_RESIDENT: &str = "chunk_resident";
}

/// A named set of shared gauges for one training run.
#[derive(Debug, Default)]
pub struct MemRegistry {
    entries: Vec<(String, Arc<MemGauge>)>,
}

impl MemRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&mut self, name: &str) -> Arc<MemGauge> {
        if let Some((_, g)) = self.entries.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(MemGauge::new());
        self.entries.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// Reads every gauge, in registration order.
    pub fn snapshot(&self) -> Vec<MemGaugeRecord> {
        self.entries
            .iter()
            .map(|(name, g)| MemGaugeRecord {
                name: name.clone(),
                current_bytes: g.current(),
                high_water_bytes: g.high_water(),
            })
            .collect()
    }

    /// Number of registered gauges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no gauge is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_tracks_current_and_high_water() {
        let g = MemGauge::new();
        g.add(100);
        g.add(50);
        assert_eq!(g.current(), 150);
        assert_eq!(g.high_water(), 150);
        g.sub(120);
        assert_eq!(g.current(), 30, "shrink lowers current");
        assert_eq!(g.high_water(), 150, "high water keeps the peak");
        g.add(40);
        assert_eq!(g.current(), 70);
        assert_eq!(g.high_water(), 150, "peak not re-reached");
        g.add(200);
        assert_eq!(g.high_water(), 270, "new peak ratchets");
    }

    #[test]
    fn sub_saturates_at_zero() {
        let g = MemGauge::new();
        g.add(10);
        g.sub(25);
        assert_eq!(g.current(), 0);
        assert_eq!(g.high_water(), 10);
    }

    #[test]
    fn observe_sets_and_ratchets() {
        let g = MemGauge::new();
        g.observe(500);
        g.observe(200);
        assert_eq!(g.current(), 200);
        assert_eq!(g.high_water(), 500);
    }

    #[test]
    fn observe_peak_ratchets_without_touching_current() {
        let g = MemGauge::new();
        g.observe(100);
        g.observe_peak(700);
        assert_eq!(g.current(), 100, "current untouched");
        assert_eq!(g.high_water(), 700);
        g.observe_peak(300);
        assert_eq!(g.high_water(), 700, "peak never lowers");
    }

    #[test]
    fn concurrent_adds_land_exactly() {
        let g = Arc::new(MemGauge::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        g.add(3);
                        g.sub(1);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(g.current(), 80_000);
        assert!(g.high_water() >= g.current());
        assert!(g.high_water() <= 120_000);
    }

    #[test]
    fn registry_reuses_by_name_and_snapshots_in_order() {
        let mut r = MemRegistry::new();
        let a = r.gauge("alpha");
        let b = r.gauge("beta");
        let a2 = r.gauge("alpha");
        assert_eq!(r.len(), 2);
        a.add(10);
        a2.add(5);
        b.observe(99);
        let snap = r.snapshot();
        assert_eq!(snap[0].name, "alpha");
        assert_eq!(snap[0].current_bytes, 15, "same gauge behind both handles");
        assert_eq!(snap[1].name, "beta");
        assert_eq!(snap[1].high_water_bytes, 99);
    }

    #[test]
    fn record_serde_roundtrip() {
        let rec =
            MemGaugeRecord { name: "membuf".into(), current_bytes: 4096, high_water_bytes: 8192 };
        let v = serde::Serialize::to_value(&rec);
        let back = <MemGaugeRecord as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, rec);
    }
}
