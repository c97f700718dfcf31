//! Exclusive feature bundling (EFB) — fusing mutually-exclusive sparse
//! features into dense synthetic storage columns.
//!
//! High-cardinality sparse matrices (one-hot encodings, hashed categoricals)
//! rarely have two of their indicator features present in the same row. A
//! greedy first-fit pass groups such mutually-exclusive features into
//! *bundles*; each bundle becomes one dense `u8` storage column whose bin
//! space is the concatenation of its members' bin ranges. Bundled workloads
//! then take the dense scan kernels — sequential byte reads instead of the
//! merge/gallop sparse path — while the histogram, split search, and model
//! stay entirely in original-feature coordinates:
//!
//! * The [`BinMapper`](crate::BinMapper) keeps original cuts and bin
//!   offsets; the bundle map is storage metadata only.
//! * Scan kernels translate a stored bin to its original histogram lane
//!   through a per-column lookup table ([`BundleMap::cell_lut`]), so
//!   BuildHist output is bitwise identical to the unbundled sparse scan
//!   (same rows, same per-cell accumulation order).
//! * `FindSplit` therefore needs no translation at all — it already sees
//!   per-original-feature histogram ranges and reports original feature ids.
//!
//! Bundles are exclusive by construction: no row holds two members of one
//! bundle, so every stored cell has exactly one owner and no information is
//! dropped.

use serde::{Deserialize, Serialize};

/// `cell_lut` sentinel for stored bins that map to no histogram lane
/// (missing bytes and out-of-range values). Larger than any real lane.
pub const NO_LANE: u32 = u32::MAX;

/// Each feature probes at most this many existing bundles before opening a
/// new one (bounds the planning pass at `O(nnz · probes)`).
const MAX_PROBES: usize = 32;

/// One original feature inside a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BundleMember {
    /// Original feature id.
    pub feature: u32,
    /// Bin offset of this member inside the storage column.
    pub offset: u16,
    /// The member's bin count.
    pub width: u16,
}

/// Where an original feature lives in bundled storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BundleSlot {
    /// Storage column index.
    pub col: u32,
    /// Bin offset inside that column.
    pub offset: u16,
    /// The feature's bin count (0 for never-present features, which store
    /// nothing).
    pub width: u16,
}

/// The complete storage map produced by the bundling pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleMap {
    /// Members of each storage column, in bin-offset order.
    members: Vec<Vec<BundleMember>>,
    /// Per original feature: its storage slot. Length = original feature
    /// count.
    locate: Vec<BundleSlot>,
    /// Used bins of each storage column (sum of member widths, ≤ 254).
    col_widths: Vec<u16>,
    /// Flattened per-column stored-bin → histogram-lane tables:
    /// `cell_lut[col * 256 + stored_bin]` is the original flattened
    /// histogram lane (NOT doubled), or [`NO_LANE`] for missing/invalid
    /// bins. Scan kernels index this directly.
    cell_lut: Vec<u32>,
}

impl BundleMap {
    /// Number of storage columns.
    pub fn n_cols(&self) -> usize {
        self.col_widths.len()
    }

    /// Members of storage column `c`, in bin-offset order.
    pub fn members(&self, c: usize) -> &[BundleMember] {
        &self.members[c]
    }

    /// Storage slot of original feature `f`.
    pub fn slot(&self, f: usize) -> BundleSlot {
        self.locate[f]
    }

    /// The stored-bin → histogram-lane table of column `c` (256 entries;
    /// [`NO_LANE`] marks missing/invalid stored bins).
    pub fn cell_lut(&self, c: usize) -> &[u32] {
        &self.cell_lut[c * 256..(c + 1) * 256]
    }

    /// The full stored-bin → lane table, all columns flattened: entry
    /// `(c << 8) | stored_bin`. Kernel hot loops index this directly.
    pub fn cell_lut_flat(&self) -> &[u32] {
        &self.cell_lut
    }

    /// Translates a stored `(col, stored_bin)` back to
    /// `(original feature, bin)`, or `None` for missing/invalid bins.
    pub fn translate(&self, col: usize, stored_bin: u8) -> Option<(u32, u8)> {
        let m = &self.members[col];
        let i = m.partition_point(|mem| mem.offset <= u16::from(stored_bin));
        let mem = m.get(i.checked_sub(1)?)?;
        let local = u16::from(stored_bin) - mem.offset;
        (local < mem.width).then_some((mem.feature, local as u8))
    }
}

/// Whether [`plan_bundles`] can only decline, known from the longest row
/// alone. No two features present in one row share a bundle, so a row's
/// `longest_row` present features (those with a bin) need as many bundles,
/// and a plan of more than `n_features / 4` bundles is never profitable.
/// Exact: it answers `true` only where planning would return `None`.
pub(crate) fn too_long_a_row_to_bundle(longest_row: usize, n_features: usize) -> bool {
    longest_row * 4 > n_features
}

/// Greedy first-fit bundle planning over quantized CSC columns: a feature
/// joins the first of the first [`MAX_PROBES`] bundles none of whose members
/// is present in any of its rows.
///
/// `col_rows(f)` yields the ascending row ids where feature `f` is present;
/// `widths[f]` its used-bin count; `bin_offsets` the mapper's original
/// flattened-histogram offsets (length `m + 1`). Returns `None` when the
/// result is not profitable: fewer than 4× column compression, or dense
/// bundled storage (`2 · n_rows · n_cols` bytes for both majors) exceeding
/// ~2× the sparse footprint.
pub fn plan_bundles<'a>(
    n_rows: usize,
    widths: &[u16],
    bin_offsets: &[u32],
    col_rows: impl Fn(usize) -> &'a [u32],
) -> Option<BundleMap> {
    let m = widths.len();
    if m < 8 || n_rows == 0 {
        return None;
    }

    // Features by descending support, ties by id — deterministic order.
    let mut order: Vec<usize> = (0..m).filter(|&f| widths[f] > 0).collect();
    order.sort_by_key(|&f| (usize::MAX - col_rows(f).len(), f));

    struct Bundle {
        occupancy: Vec<u64>,
        members: Vec<usize>,
        width: u32,
    }
    let words = n_rows.div_ceil(64);
    let mut bundles: Vec<Bundle> = Vec::new();
    for &f in &order {
        let rows = col_rows(f);
        let w = u32::from(widths[f]);
        let mut placed = false;
        for b in bundles.iter_mut().take(MAX_PROBES) {
            if b.width + w > 254 {
                continue;
            }
            if rows.iter().all(|&r| (b.occupancy[r as usize / 64] >> (r % 64)) & 1 == 0) {
                for &r in rows {
                    b.occupancy[r as usize / 64] |= 1 << (r % 64);
                }
                b.members.push(f);
                b.width += w;
                placed = true;
                break;
            }
        }
        if !placed {
            let mut occupancy = vec![0u64; words];
            for &r in rows {
                occupancy[r as usize / 64] |= 1 << (r % 64);
            }
            bundles.push(Bundle { occupancy, members: vec![f], width: w });
        }
    }
    if bundles.is_empty() {
        return None;
    }

    // Profitability: real compression AND a bounded dense-storage bill.
    let n_cols = bundles.len();
    let nnz: usize = (0..m).map(|f| col_rows(f).len()).sum();
    let sparse_bytes = nnz * 10; // ~ (4B row id + 1B bin) × CSR+CSC
    if n_cols * 4 > m || 2 * n_rows * n_cols > 2 * sparse_bytes {
        return None;
    }

    // Assemble the map. Width-0 features ride along in column 0 with an
    // empty slot so `locate` covers every original feature.
    let mut members = Vec::with_capacity(n_cols);
    let mut col_widths = Vec::with_capacity(n_cols);
    let mut locate = vec![BundleSlot { col: 0, offset: 0, width: 0 }; m];
    let mut cell_lut = vec![NO_LANE; n_cols * 256];
    for (c, b) in bundles.iter().enumerate() {
        let mut offset = 0u16;
        let mut ms = Vec::with_capacity(b.members.len());
        for &f in &b.members {
            let w = widths[f];
            ms.push(BundleMember { feature: f as u32, offset, width: w });
            locate[f] = BundleSlot { col: c as u32, offset, width: w };
            for local in 0..w {
                cell_lut[c * 256 + usize::from(offset + local)] = bin_offsets[f] + u32::from(local);
            }
            offset += w;
        }
        members.push(ms);
        col_widths.push(offset);
    }
    Some(BundleMap { members, locate, col_widths, cell_lut })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// 3 one-hot groups of 4 features over 12 rows: row r has feature
    /// `g*4 + (r % 4)` present for each group g.
    fn one_hot_cols() -> Vec<Vec<u32>> {
        let (n, groups, k) = (12usize, 3usize, 4usize);
        let mut cols = vec![Vec::new(); groups * k];
        for r in 0..n {
            for g in 0..groups {
                cols[g * k + r % k].push(r as u32);
            }
        }
        cols
    }

    fn offsets(widths: &[u16]) -> Vec<u32> {
        let mut o = vec![0u32];
        for &w in widths {
            o.push(o.last().unwrap() + u32::from(w));
        }
        o
    }

    #[test]
    fn one_hot_groups_bundle_to_few_columns() {
        let cols = one_hot_cols();
        let widths = vec![1u16; cols.len()];
        let off = offsets(&widths);
        let map =
            plan_bundles(12, &widths, &off, |f| &cols[f]).expect("one-hot groups are profitable");
        assert_eq!(map.n_cols(), 3, "4 disjoint features per bundle");
        assert_eq!(map.locate.len(), 12);
        // Every feature has a slot consistent with its column's members.
        for f in 0..12 {
            let s = map.slot(f);
            let mem = map
                .members(s.col as usize)
                .iter()
                .find(|m| m.feature == f as u32)
                .expect("feature listed in its column");
            assert_eq!((mem.offset, mem.width), (s.offset, s.width));
        }
    }

    #[test]
    fn translate_round_trips_every_member_bin() {
        let cols = one_hot_cols();
        let widths = vec![1u16; cols.len()];
        let off = offsets(&widths);
        let map = plan_bundles(12, &widths, &off, |f| &cols[f]).unwrap();
        for f in 0..12u32 {
            let s = map.slot(f as usize);
            for local in 0..s.width {
                let stored = (s.offset + local) as u8;
                assert_eq!(map.translate(s.col as usize, stored), Some((f, local as u8)));
                let lane = map.cell_lut(s.col as usize)[stored as usize];
                assert_eq!(lane, off[f as usize] + u32::from(local));
            }
        }
        // Out-of-range stored bins have no lane.
        for c in 0..map.n_cols() {
            let w = map.col_widths[c] as usize;
            assert!(map.cell_lut(c)[w..].iter().all(|&l| l == NO_LANE));
            assert_eq!(map.translate(c, 255), None);
        }
    }

    #[test]
    fn zero_budget_refuses_conflicting_features() {
        // 16 features, all present in row 0 -> nothing can bundle.
        let cols: Vec<Vec<u32>> = (0..16).map(|_| vec![0u32]).collect();
        let widths = vec![1u16; 16];
        let off = offsets(&widths);
        assert!(
            plan_bundles(4, &widths, &off, |f| &cols[f]).is_none(),
            "16 singleton bundles compress nothing"
        );
    }

    /// Present-row lists of an `n × m` pattern — `kind` 0: one-hot groups of
    /// `k` features (a row holds one member of each group); 1: every cell
    /// present with probability `density`; 2: the first half of the features
    /// one-hot, the rest uniformly dense — and the longest row.
    fn pattern(
        seed: u64,
        n: usize,
        m: usize,
        kind: u8,
        k: usize,
        density: f64,
    ) -> (Vec<Vec<u32>>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let one_hot = match kind {
            0 => m,
            1 => 0,
            _ => m / 2,
        };
        let mut cols = vec![Vec::new(); m];
        let mut longest = 0;
        for r in 0..n {
            let mut present = 0;
            for group in (0..one_hot).step_by(k) {
                let member = group + rng.gen_range(0..k.min(one_hot - group));
                cols[member].push(r as u32);
                present += 1;
            }
            for col in &mut cols[one_hot..] {
                if rng.gen_bool(density) {
                    col.push(r as u32);
                    present += 1;
                }
            }
            longest = longest.max(present);
        }
        (cols, longest)
    }

    #[test]
    fn row_length_precheck_declines_dense_rows_and_plans_one_hot_ones() {
        // 16 groups of 4: rows of 16 features out of 64 — plannable.
        assert!(!too_long_a_row_to_bundle(16, 64));
        assert!(too_long_a_row_to_bundle(17, 64));
        // The benchmark's sparse shape: rows of ≈ 1 270 features out of 4 096.
        assert!(too_long_a_row_to_bundle(1_270, 4_096));
        assert!(!too_long_a_row_to_bundle(0, 0));
    }

    proptest! {
        /// The precheck is exact: wherever it declines, the full plan
        /// declines too — over one-hot, uniformly dense and mixed patterns
        /// and bin widths up to the 254-bin column cap. And every planned
        /// bundle is exclusive: its members are present in pairwise-disjoint
        /// rows.
        #[test]
        fn prop_precheck_declines_only_what_planning_declines(
            seed in any::<u64>(),
            n in 1usize..48,
            m in 8usize..72,
            kind in 0u8..3,
            k in 1usize..9,
            density in 0.0f64..1.0,
            max_width in 1u16..80,
        ) {
            let (cols, longest) = pattern(seed, n, m, kind, k, density);
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            // As a mapper gives them: no bin for a never-present feature.
            let widths: Vec<u16> = cols
                .iter()
                .map(|c| if c.is_empty() { 0 } else { rng.gen_range(1..max_width + 1) })
                .collect();
            let off = offsets(&widths);
            let plan = plan_bundles(n, &widths, &off, |f| &cols[f]);
            if too_long_a_row_to_bundle(longest, m) {
                prop_assert!(plan.is_none(), "declined a plan of {} columns", plan.unwrap().n_cols());
            }
            if let Some(plan) = plan {
                prop_assert!(plan.n_cols() >= longest, "a row of {longest} in {} bundles", plan.n_cols());
                for c in 0..plan.n_cols() {
                    let mut owner = vec![None; n];
                    for mem in plan.members(c) {
                        for &r in &cols[mem.feature as usize] {
                            let prev = owner[r as usize].replace(mem.feature);
                            prop_assert!(
                                prev.is_none(),
                                "row {r} holds features {prev:?} and {} of bundle {c}",
                                mem.feature
                            );
                        }
                    }
                }
            }
        }
    }
}
