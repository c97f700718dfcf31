//! Byte-level memory accounting: [`MemGauge`] and the run's [`MemTable`].
//!
//! Table V of the HarpGBDT paper argues the MemBuf design from its memory
//! footprint; reproducing that argument requires knowing, per boosting
//! round, how many bytes each pool actually holds. A [`MemGauge`] is a
//! `(current, high-water)` byte pair kept by one component — the histogram
//! pool, the DP replica arena, the MemBuf gradient replicas, the partition
//! scratch, the flat inference forest. A training run holds one fixed
//! [`MemTable`] of them; components update their gauge at allocation and
//! release sites, and the run ledger reads the table once per round.
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
    /// Gauge name (one of [`gauges`]).
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
    /// The rest of the row partition: the row-id halves of the two planes
    /// (a split's routing answers ride in their bit 31), the span and
    /// batch-task tables and — with MemBuf off — the row-ordered gradient
    /// array.
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

/// The run's byte gauges: one per [`gauges`] name, written by their
/// components whether or not a ledger reads them.
#[derive(Debug, Default)]
pub struct MemTable {
    /// [`gauges::HIST_POOL`].
    pub hist_pool: MemGauge,
    /// [`gauges::HIST_CACHE`].
    pub hist_cache: MemGauge,
    /// [`gauges::SCRATCH_ARENA`].
    pub scratch_arena: MemGauge,
    /// [`gauges::MEMBUF`].
    pub membuf: MemGauge,
    /// [`gauges::PARTITION`].
    pub partition: MemGauge,
    /// [`gauges::FLAT_FOREST`].
    pub flat_forest: MemGauge,
    /// [`gauges::QUANT_STORE`].
    pub quant_store: MemGauge,
    /// [`gauges::CHUNK_RESIDENT`].
    pub chunk_resident: MemGauge,
}

impl MemTable {
    /// Reads every gauge in the order of a ledger record's `mem`;
    /// `chunk_resident` only for a `chunked` store.
    pub fn records(&self, chunked: bool) -> Vec<MemGaugeRecord> {
        let table = [
            (gauges::HIST_POOL, &self.hist_pool),
            (gauges::HIST_CACHE, &self.hist_cache),
            (gauges::SCRATCH_ARENA, &self.scratch_arena),
            (gauges::MEMBUF, &self.membuf),
            (gauges::PARTITION, &self.partition),
            (gauges::FLAT_FOREST, &self.flat_forest),
            (gauges::QUANT_STORE, &self.quant_store),
            (gauges::CHUNK_RESIDENT, &self.chunk_resident),
        ];
        table[..table.len() - usize::from(!chunked)]
            .iter()
            .map(|&(name, g)| MemGaugeRecord {
                name: name.to_string(),
                current_bytes: g.current(),
                high_water_bytes: g.high_water(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
    fn table_records_in_ledger_order() {
        let t = MemTable::default();
        t.hist_pool.add(15);
        t.chunk_resident.observe(99);
        let names =
            |recs: Vec<MemGaugeRecord>| recs.into_iter().map(|r| r.name).collect::<Vec<_>>();
        let in_core = [
            gauges::HIST_POOL,
            gauges::HIST_CACHE,
            gauges::SCRATCH_ARENA,
            gauges::MEMBUF,
            gauges::PARTITION,
            gauges::FLAT_FOREST,
            gauges::QUANT_STORE,
        ];
        assert_eq!(names(t.records(false)), in_core);
        let chunked = t.records(true);
        assert_eq!(chunked[0].current_bytes, 15);
        assert_eq!(chunked[7].name, gauges::CHUNK_RESIDENT, "chunk_resident comes last");
        assert_eq!(chunked[7].high_water_bytes, 99);
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
