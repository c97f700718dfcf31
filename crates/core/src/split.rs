//! FindSplit: enumerate split candidates in a node's histogram.
//!
//! For every feature, scan bins left to right accumulating `(G_L, H_L)` and
//! score each boundary with Eq. 3:
//!
//! ```text
//! S(L, R) = 1/2 [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − (G_L+G_R)²/(H_L+H_R+λ) ] − γ
//! ```
//!
//! Rows with a missing feature value are not present in any bin; their
//! aggregate `(g, h)` is recovered as `node_total − Σ bins` and the scan is
//! performed twice — once sending missing left, once right — learning a
//! per-split default direction (the standard sparsity-aware refinement of
//! XGBoost that both baselines share).

use crate::tree::{NodeStats, SplitData};
use harp_binning::BinMapper;
use std::ops::Range;

/// A fully-specified candidate: the split plus both children's gradient
/// statistics (`count` is filled in by ApplySplit, which observes the real
/// partition sizes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    /// The split point.
    pub split: SplitData,
    /// Left child `(G, H)`.
    pub left: NodeStats,
    /// Right child `(G, H)`.
    pub right: NodeStats,
}

/// Regularization inputs to the gain formula.
#[derive(Debug, Clone, Copy)]
pub struct SplitSettings {
    /// L2 weight regularizer λ.
    pub lambda: f64,
    /// Minimum gain γ.
    pub gamma: f64,
    /// Minimum child hessian sum.
    pub min_child_weight: f64,
}

/// Scans features `f_range` of one node's histogram and returns the best
/// positive-gain candidate, or `None` if no admissible split exists.
///
/// Deterministic: features ascending, bins ascending, missing-right evaluated
/// before missing-left, later candidates must beat the incumbent strictly.
pub fn find_split_range(
    hist: &[f64],
    node: &NodeStats,
    mapper: &BinMapper,
    f_range: Range<usize>,
    settings: &SplitSettings,
) -> Option<SplitCandidate> {
    find_split_tile(hist, 0, node, mapper, f_range, settings, None)
}

/// [`find_split_range`] over a *tile*, skipping features whose `mask` entry
/// is `false` (per-tree column subsampling; `None` allows every feature):
/// `tile[0]` is lane `lane_offset` of the node's full-width histogram, so
/// the tile need only hold the lanes of `f_range` — the feature block a
/// fused Exclusive task has just built and still has in cache.
// `!(gain > 0.0)` is the point: a NaN gain must not pass.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn find_split_tile(
    tile: &[f64],
    lane_offset: usize,
    node: &NodeStats,
    mapper: &BinMapper,
    f_range: Range<usize>,
    settings: &SplitSettings,
    mask: Option<&[bool]>,
) -> Option<SplitCandidate> {
    let mut best: Option<SplitCandidate> = None;
    let parent_score = node.score(settings.lambda);
    for f in f_range {
        if let Some(mask) = mask {
            if !mask[f] {
                continue;
            }
        }
        let n_bins = mapper.n_bins(f) as usize;
        if n_bins < 2 {
            continue;
        }
        let base = mapper.bin_offset(f) as usize * 2 - lane_offset;
        let cells = &tile[base..base + n_bins * 2];
        // Present totals; missing = node − present.
        let mut pg = 0.0f64;
        let mut ph = 0.0f64;
        for b in 0..n_bins {
            pg += cells[b * 2];
            ph += cells[b * 2 + 1];
        }
        let miss_g = node.g - pg;
        let miss_h = node.h - ph;
        // Scan boundaries: split after bin b (left = bins 0..=b).
        let mut acc_g = 0.0f64;
        let mut acc_h = 0.0f64;
        for b in 0..n_bins - 1 {
            acc_g += cells[b * 2];
            acc_h += cells[b * 2 + 1];
            for default_left in [false, true] {
                let (lg, lh) =
                    if default_left { (acc_g + miss_g, acc_h + miss_h) } else { (acc_g, acc_h) };
                let (rg, rh) = (node.g - lg, node.h - lh);
                if lh < settings.min_child_weight || rh < settings.min_child_weight {
                    continue;
                }
                let left = NodeStats { g: lg, h: lh, count: 0 };
                let right = NodeStats { g: rg, h: rh, count: 0 };
                let gain = 0.5
                    * (left.score(settings.lambda) + right.score(settings.lambda) - parent_score)
                    - settings.gamma;
                // An empty side at `lambda = 0` scores 0 / 0: the NaN gain
                // compares false both ways, so `gain <= 0.0` would keep it
                // and no later real split could beat it.
                if !(gain > 0.0) {
                    continue;
                }
                if best.is_none_or(|b| gain > b.split.gain) {
                    best = Some(SplitCandidate {
                        split: SplitData {
                            feature: f as u32,
                            bin: b as u8,
                            threshold: mapper.cuts(f).upper(b as u8),
                            default_left,
                            gain,
                        },
                        left,
                        right,
                    });
                }
            }
        }
    }
    best
}

/// Merges partial bests from disjoint feature ranges, preferring higher gain
/// and, on exact ties, the lower feature id (scan-order determinism).
pub fn better_of(a: Option<SplitCandidate>, b: Option<SplitCandidate>) -> Option<SplitCandidate> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => {
            if y.split.gain > x.split.gain
                || (y.split.gain == x.split.gain && y.split.feature < x.split.feature)
            {
                Some(y)
            } else {
                Some(x)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_binning::{BinMapper, FeatureCuts};

    fn mapper(bins_per_feature: &[usize]) -> BinMapper {
        BinMapper::from_cuts(
            bins_per_feature
                .iter()
                .map(|&n| FeatureCuts { cuts: (0..n).map(|i| i as f32).collect() })
                .collect(),
        )
    }

    fn settings() -> SplitSettings {
        SplitSettings { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 }
    }

    /// Builds a histogram for one feature from per-bin (g, h) pairs.
    fn hist_of(pairs: &[(f64, f64)]) -> Vec<f64> {
        let mut h = Vec::with_capacity(pairs.len() * 2);
        for &(g, hh) in pairs {
            h.push(g);
            h.push(hh);
        }
        h
    }

    fn stats_of(pairs: &[(f64, f64)]) -> NodeStats {
        NodeStats {
            g: pairs.iter().map(|p| p.0).sum(),
            h: pairs.iter().map(|p| p.1).sum(),
            count: pairs.len() as u32,
        }
    }

    #[test]
    fn obvious_split_is_found() {
        // Bin 0 wants positive weight (g < 0), bin 1 negative: split at 0.
        let pairs = [(-10.0, 5.0), (10.0, 5.0)];
        let hist = hist_of(&pairs);
        let node = stats_of(&pairs);
        let c = find_split_range(&hist, &node, &mapper(&[2]), 0..1, &settings()).unwrap();
        assert_eq!(c.split.feature, 0);
        assert_eq!(c.split.bin, 0);
        assert!(c.split.gain > 0.0);
        assert_eq!(c.left.g, -10.0);
        assert_eq!(c.right.g, 10.0);
    }

    #[test]
    fn gain_matches_formula() {
        let pairs = [(-3.0, 2.0), (1.0, 1.0), (4.0, 2.0)];
        let hist = hist_of(&pairs);
        let node = stats_of(&pairs);
        let c = find_split_range(&hist, &node, &mapper(&[3]), 0..1, &settings()).unwrap();
        let lambda = 1.0;
        let expect = 0.5
            * (c.left.g * c.left.g / (c.left.h + lambda)
                + c.right.g * c.right.g / (c.right.h + lambda)
                - node.g * node.g / (node.h + lambda));
        assert!((c.split.gain - expect).abs() < 1e-12);
    }

    #[test]
    fn best_split_beats_brute_force() {
        // Three features with different structure; check the winner has the
        // maximal gain among all enumerated boundaries.
        let f0 = [(-5.0, 2.0), (2.0, 1.0), (3.0, 1.0)];
        let f1 = [(-1.0, 1.0), (1.0, 1.0)];
        let f2 = [(0.5, 1.0), (0.5, 1.0), (-1.0, 1.0), (0.0, 1.0)];
        let mut hist = hist_of(&f0);
        hist.extend(hist_of(&f1));
        hist.extend(hist_of(&f2));
        let node = NodeStats {
            g: f0.iter().map(|p| p.0).sum::<f64>(),
            h: f0.iter().map(|p| p.1).sum::<f64>(),
            count: 0,
        };
        // All features hold the same rows, so per-feature totals must match
        // the node; craft f1/f2 to sum to the same totals.
        // f0: g=0, h=4. f1: g=0, h=2 -> pad missing (0, 2) implicitly.
        let m = mapper(&[3, 2, 4]);
        let best = find_split_range(&hist, &node, &m, 0..3, &settings());
        let mut brute = None;
        for f in 0..3 {
            brute = better_of(brute, find_split_range(&hist, &node, &m, f..f + 1, &settings()));
        }
        assert_eq!(best.unwrap().split.gain, brute.unwrap().split.gain);
    }

    #[test]
    fn min_child_weight_blocks_thin_children() {
        let pairs = [(-10.0, 0.5), (10.0, 5.0)];
        let hist = hist_of(&pairs);
        let node = stats_of(&pairs);
        let s = SplitSettings { lambda: 1.0, gamma: 0.0, min_child_weight: 1.0 };
        assert!(find_split_range(&hist, &node, &mapper(&[2]), 0..1, &s).is_none());
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let pairs = [(-0.1, 1.0), (0.1, 1.0)];
        let hist = hist_of(&pairs);
        let node = stats_of(&pairs);
        let s = SplitSettings { lambda: 1.0, gamma: 10.0, min_child_weight: 0.0 };
        assert!(find_split_range(&hist, &node, &mapper(&[2]), 0..1, &s).is_none());
    }

    #[test]
    fn missing_rows_get_best_direction() {
        // Present rows: bin0 g=-4, bin1 g=+4. Missing rows: g=-6,h=3
        // (node totals include them). Sending missing left joins them with
        // the negative side for a larger |G_L|.
        let pairs = [(-4.0, 2.0), (4.0, 2.0)];
        let hist = hist_of(&pairs);
        let node = NodeStats { g: -6.0, h: 7.0, count: 0 }; // -4+4-6, 2+2+3
        let c = find_split_range(&hist, &node, &mapper(&[2]), 0..1, &settings()).unwrap();
        assert!(c.split.default_left);
        assert_eq!(c.left.g, -10.0);
        assert_eq!(c.right.g, 4.0);
    }

    #[test]
    fn no_missing_prefers_right_default() {
        // With zero missing mass both directions tie; scan order must pick
        // missing-right deterministically.
        let pairs = [(-10.0, 5.0), (10.0, 5.0)];
        let hist = hist_of(&pairs);
        let node = stats_of(&pairs);
        let c = find_split_range(&hist, &node, &mapper(&[2]), 0..1, &settings()).unwrap();
        assert!(!c.split.default_left);
    }

    #[test]
    fn single_bin_feature_cannot_split() {
        let hist = hist_of(&[(1.0, 1.0)]);
        let node = stats_of(&[(1.0, 1.0)]);
        assert!(find_split_range(&hist, &node, &mapper(&[1]), 0..1, &settings()).is_none());
    }

    #[test]
    fn nan_gain_of_an_empty_side_is_not_a_split() {
        // Bin 0 is empty in this node, the common case on a sparse tile:
        // with `lambda = 0` the left child `(0, 0)` scores 0 / 0.
        let pairs = [(0.0, 0.0), (-10.0, 5.0), (10.0, 5.0), (1.0, 1.0)];
        let hist = hist_of(&pairs);
        let node = stats_of(&pairs);
        let s = SplitSettings { lambda: 0.0, gamma: 0.0, min_child_weight: 0.0 };
        let c = find_split_range(&hist, &node, &mapper(&[4]), 0..1, &s).unwrap();
        assert!(c.split.gain.is_finite() && c.split.gain > 0.0, "gain {}", c.split.gain);
        assert_eq!(c.split.bin, 1, "the real split, after bins 0..=1");
        assert_eq!((c.left.g, c.left.h), (-10.0, 5.0));
    }

    #[test]
    fn tile_relative_scan_equals_the_full_width_scan() {
        let f0 = [(-5.0, 2.0), (2.0, 1.0), (3.0, 1.0)];
        let f1 = [(-1.0, 1.0), (1.0, 1.0)];
        let f2 = [(0.5, 1.0), (0.5, 1.0), (-1.0, 1.0), (0.0, 1.0)];
        let hist: Vec<f64> = [&f0[..], &f1, &f2].iter().flat_map(|f| hist_of(f)).collect();
        let node = stats_of(&f0);
        let m = mapper(&[3, 2, 4]);
        // Features 1..3 start at lane 6; the mask drops feature 1.
        for mask in [None, Some(&[true, false, true][..])] {
            let full = find_split_tile(&hist, 0, &node, &m, 1..3, &settings(), mask);
            let tile = find_split_tile(&hist[6..], 6, &node, &m, 1..3, &settings(), mask);
            assert!(full.is_some());
            assert_eq!(full, tile);
        }
    }

    #[test]
    fn better_of_prefers_gain_then_feature() {
        let mk = |gain: f64, feature: u32| SplitCandidate {
            split: SplitData { feature, bin: 0, threshold: 0.0, default_left: false, gain },
            left: NodeStats::default(),
            right: NodeStats::default(),
        };
        assert_eq!(better_of(Some(mk(1.0, 0)), Some(mk(2.0, 5))).unwrap().split.feature, 5);
        assert_eq!(better_of(Some(mk(2.0, 5)), Some(mk(2.0, 1))).unwrap().split.feature, 1);
        assert_eq!(better_of(None, Some(mk(1.0, 3))).unwrap().split.feature, 3);
        assert!(better_of(None, None).is_none());
    }

    #[test]
    fn threshold_matches_bin_upper_bound() {
        let pairs = [(-10.0, 5.0), (10.0, 5.0)];
        let hist = hist_of(&pairs);
        let node = stats_of(&pairs);
        let m = mapper(&[2]); // cuts = [0.0, 1.0]
        let c = find_split_range(&hist, &node, &m, 0..1, &settings()).unwrap();
        assert_eq!(c.split.threshold, 0.0);
    }
}
