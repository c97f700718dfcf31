//! Seeded synthetic generators reproducing the *shapes* of the paper's
//! evaluation datasets (Table III).
//!
//! What matters for the paper's conclusions is not the bytes of HIGGS or
//! CRITEO but their statistical silhouettes: instance count vs feature count
//! (thin AIRLINE vs fat YFCC), density `S`, and the dispersion `CV` of the
//! per-feature bin counts (which drives load imbalance in feature-parallel
//! schedulers). Each [`DatasetKind`] encodes a per-feature *cardinality
//! profile* hand-tuned so that quantile binning recovers approximately the
//! paper's CV, a density, and a label teacher:
//!
//! * Feature values are uniform in rank space, quantized to the feature's
//!   cardinality. Tree learners and quantile binning are invariant to
//!   monotone transforms, so rank-space values lose no generality.
//! * Labels come from a random ensemble of stumps and pairwise interactions
//!   ([`teacher::Teacher`]) passed through a noisy sigmoid, giving learnable
//!   tasks with a non-trivial Bayes error — the convergence experiments
//!   (Figs. 8, 9, 14) need AUC curves that rise and then flatten, like the
//!   real datasets.
//! * The CRITEO stand-in plants a response-correlated feature (the paper
//!   blames "response variable replacement encoding" for leafwise trees
//!   deeper than 150); the YFCC stand-in is sparse CSR with only ~31% of
//!   entries present.

pub mod teacher;
pub mod workloads;

use crate::dataset::Dataset;
use crate::matrix::{CsrMatrix, DenseMatrix, FeatureMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use teacher::Teacher;

/// Which paper dataset to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DatasetKind {
    /// SYNSET: dense, even bins (CV=0), balanced trees — the tuning workload.
    Synset,
    /// HIGGS-like: 28 mostly-continuous physics features, mild skew.
    HiggsLike,
    /// AIRLINE-like: thin matrix (8 features) with wildly uneven cardinality.
    AirlineLike,
    /// CRITEO-like: 65 CTR features, one response-correlated (deep leafwise
    /// trees), 4% missing.
    CriteoLike,
    /// YFCC-like: fat matrix (4096 deep features), sparse (S=0.31), even bins.
    YfccLike,
}

impl DatasetKind {
    /// All five kinds, in Table III order.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::HiggsLike,
        DatasetKind::AirlineLike,
        DatasetKind::CriteoLike,
        DatasetKind::YfccLike,
        DatasetKind::Synset,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Synset => "synset",
            Self::HiggsLike => "higgs-like",
            Self::AirlineLike => "airline-like",
            Self::CriteoLike => "criteo-like",
            Self::YfccLike => "yfcc-like",
        }
    }

    /// Parses a kind from its short name (both `higgs` and `higgs-like`
    /// style accepted).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim_end_matches("-like") {
            "synset" => Some(Self::Synset),
            "higgs" => Some(Self::HiggsLike),
            "airline" => Some(Self::AirlineLike),
            "criteo" => Some(Self::CriteoLike),
            "yfcc" => Some(Self::YfccLike),
            _ => None,
        }
    }

    /// The statistics of the original dataset as reported in Table III.
    pub fn paper_stats(self) -> PaperStats {
        match self {
            Self::HiggsLike => PaperStats { n: 10_000_000, m: 28, s: 0.92, cv: 0.40 },
            Self::AirlineLike => PaperStats { n: 100_000_000, m: 8, s: 1.0, cv: 0.89 },
            Self::CriteoLike => PaperStats { n: 50_000_000, m: 65, s: 0.96, cv: 0.58 },
            Self::YfccLike => PaperStats { n: 1_000_000, m: 4096, s: 0.31, cv: 0.06 },
            Self::Synset => PaperStats { n: 10_000_000, m: 128, s: 1.0, cv: 0.0 },
        }
    }

    /// Default row count at `scale = 1.0` (chosen so every experiment runs
    /// on a laptop; the paper-to-default ratio is recorded in DESIGN.md §4).
    pub fn base_rows(self) -> usize {
        match self {
            Self::Synset => 20_000,
            Self::HiggsLike => 20_000,
            Self::AirlineLike => 80_000,
            Self::CriteoLike => 20_000,
            Self::YfccLike => 2_000,
        }
    }

    /// Number of features (same as the paper).
    pub fn n_features(self) -> usize {
        self.paper_stats().m
    }

    /// Fraction of present entries.
    fn density(self) -> f64 {
        self.paper_stats().s
    }

    /// Per-feature cardinality profile; `0` means continuous (unquantized).
    /// Hand-tuned so the post-binning bin-count CV lands near Table III.
    fn cardinalities(self) -> Vec<u32> {
        let m = self.n_features();
        match self {
            Self::Synset | Self::YfccLike => vec![0; m],
            Self::HiggsLike => {
                // 19 continuous + 9 quantized of 28 features => CV ~ 0.4.
                let profile = [0u32, 0, 0, 0, 192, 96, 48, 0];
                (0..m).map(|j| profile[j % profile.len()]).collect()
            }
            Self::AirlineLike => vec![12, 24, 31, 60, 96, 128, 200, 0],
            Self::CriteoLike => {
                // 25x cont., 20x128, 15x64, 5x32 => CV ~ 0.55.
                let mut c = Vec::with_capacity(m);
                for j in 0..m {
                    c.push(match j % 13 {
                        0..=4 => 0,
                        5..=8 => 128,
                        9..=11 => 64,
                        _ => 32,
                    });
                }
                c
            }
        }
    }

    /// Whether the generated matrix uses sparse (CSR) storage.
    pub fn is_sparse(self) -> bool {
        matches!(self, Self::YfccLike)
    }
}

/// Table III's row for the original dataset.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PaperStats {
    /// Instances.
    pub n: usize,
    /// Features.
    pub m: usize,
    /// Density.
    pub s: f64,
    /// Bin-count coefficient of variation.
    pub cv: f64,
}

/// Configuration for synthesizing one dataset.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Which dataset shape to produce.
    pub kind: DatasetKind,
    /// Multiplier on [`DatasetKind::base_rows`].
    pub scale: f64,
    /// RNG seed; equal configs generate identical datasets.
    pub seed: u64,
}

impl SynthConfig {
    /// Convenience constructor with `scale = 1.0`.
    pub fn new(kind: DatasetKind, seed: u64) -> Self {
        Self { kind, scale: 1.0, seed }
    }

    /// Scales the row count.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Number of rows this config will generate.
    pub fn n_rows(&self) -> usize {
        ((self.kind.base_rows() as f64 * self.scale) as usize).max(16)
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let kind = self.kind;
        let n = self.n_rows();
        let m = kind.n_features();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let cards = kind.cardinalities();
        let teacher = Teacher::generate(m, &mut rng);
        let density = kind.density();

        // Pass 1: draw quantized rank-space values and raw teacher scores.
        // Scores are computed over the pre-missing values: labels should not
        // become noisier just because an entry was later dropped (missing at
        // random), except for the sparse YFCC where absent means zero.
        let mut scores = Vec::with_capacity(n);
        if kind.is_sparse() {
            let mut rows: Vec<Vec<(u32, f32)>> = Vec::with_capacity(n);
            for _ in 0..n {
                let mut row: Vec<(u32, f32)> = Vec::new();
                for j in 0..m {
                    if rng.gen::<f64>() < density {
                        // ReLU-style activations: positive continuous values.
                        row.push((j as u32, rng.gen::<f32>()));
                    }
                }
                scores.push(teacher.score_sparse(&row));
                rows.push(row);
            }
            let labels = draw_labels(&scores, &mut rng);
            let matrix = FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows));
            Dataset::new(kind.name(), matrix, labels)
        } else {
            let mut values = vec![0.0f32; n * m];
            let mut row_buf = vec![0.0f32; m];
            for r in 0..n {
                for (j, slot) in row_buf.iter_mut().enumerate() {
                    let u: f32 = rng.gen();
                    *slot = quantize(u, cards[j]);
                }
                scores.push(teacher.score_dense(&row_buf));
                values[r * m..(r + 1) * m].copy_from_slice(&row_buf);
            }
            if kind == DatasetKind::CriteoLike {
                plant_response_feature(&mut values, m, &scores, &mut rng);
            }
            if density < 1.0 {
                for v in values.iter_mut() {
                    if rng.gen::<f64>() >= density {
                        *v = f32::NAN;
                    }
                }
            }
            let labels = draw_labels(&scores, &mut rng);
            let matrix = FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values));
            Dataset::new(kind.name(), matrix, labels)
        }
    }
}

/// Quantizes a rank-space value to `card` levels (`0` = continuous).
fn quantize(u: f32, card: u32) -> f32 {
    if card == 0 {
        u
    } else {
        let level = (u * card as f32) as u32;
        let level = level.min(card - 1);
        if card == 1 {
            0.0
        } else {
            level as f32 / (card - 1) as f32
        }
    }
}

/// Standardizes scores and draws Bernoulli labels through a sigmoid.
/// `SHARPNESS` sets the Bayes AUC of the task (~0.85 at 2.0, roughly the
/// asymptote the paper's HIGGS curves reach).
fn draw_labels(scores: &[f32], rng: &mut SmallRng) -> Vec<f32> {
    const SHARPNESS: f32 = 2.0;
    let n = scores.len().max(1) as f32;
    let mean: f32 = scores.iter().sum::<f32>() / n;
    let var: f32 = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f32>() / n;
    let std = var.sqrt().max(1e-6);
    scores
        .iter()
        .map(|&s| {
            let p = sigmoid(SHARPNESS * (s - mean) / std);
            if rng.gen::<f32>() < p {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// Overwrites feature 0 with a noisy monotone function of the teacher score,
/// imitating CTR response-variable encoding. A leafwise learner will keep
/// re-splitting on this feature, producing the very deep trees the paper
/// reports on CRITEO.
fn plant_response_feature(values: &mut [f32], m: usize, scores: &[f32], rng: &mut SmallRng) {
    let n = scores.len().max(1) as f32;
    let mean: f32 = scores.iter().sum::<f32>() / n;
    let var: f32 = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f32>() / n;
    let std = var.sqrt().max(1e-6);
    for (r, &s) in scores.iter().enumerate() {
        let noisy = (s - mean) / std * 2.0 + rng.gen::<f32>() - 0.5;
        values[r * m] = sigmoid(noisy);
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::new(DatasetKind::HiggsLike, 3).with_scale(0.05);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.labels, b.labels);
        // NaN-encoded missing values defeat PartialEq; compare bit patterns.
        for r in 0..a.n_rows() {
            for c in 0..a.n_features() {
                let av = a.features.get(r, c).map(f32::to_bits);
                let bv = b.features.get(r, c).map(f32::to_bits);
                assert_eq!(av, bv, "cell ({r}, {c}) differs across identical configs");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthConfig::new(DatasetKind::Synset, 1).with_scale(0.02).generate();
        let b = SynthConfig::new(DatasetKind::Synset, 2).with_scale(0.02).generate();
        assert_ne!(a.labels, b.labels);
    }

    #[test]
    fn shapes_match_table_iii() {
        for kind in DatasetKind::ALL {
            let cfg = SynthConfig::new(kind, 0).with_scale(0.02);
            let d = cfg.generate();
            assert_eq!(d.n_features(), kind.paper_stats().m, "{kind:?} feature count");
            assert_eq!(d.n_rows(), cfg.n_rows(), "{kind:?} row count");
        }
    }

    #[test]
    fn density_tracks_table_iii() {
        for kind in DatasetKind::ALL {
            let d = SynthConfig::new(kind, 7).with_scale(0.05).generate();
            let target = kind.paper_stats().s;
            let got = d.features.density();
            assert!((got - target).abs() < 0.03, "{kind:?}: density {got:.3} vs paper {target:.3}");
        }
    }

    #[test]
    fn yfcc_is_sparse_others_dense() {
        for kind in DatasetKind::ALL {
            let d = SynthConfig::new(kind, 0).with_scale(0.01).generate();
            match (kind.is_sparse(), &d.features) {
                (true, FeatureMatrix::Sparse(_)) | (false, FeatureMatrix::Dense(_)) => {}
                _ => panic!("{kind:?}: wrong storage layout"),
            }
        }
    }

    #[test]
    fn labels_are_binary_and_balanced() {
        for kind in DatasetKind::ALL {
            let d = SynthConfig::new(kind, 11).with_scale(0.05).generate();
            assert!(d.labels.iter().all(|&y| y == 0.0 || y == 1.0));
            let pos = d.stats().positive_rate;
            assert!((0.2..=0.8).contains(&pos), "{kind:?}: positive rate {pos}");
        }
    }

    #[test]
    fn labels_are_learnable_by_a_single_stump() {
        // A dataset whose best single-feature threshold beats chance proves
        // the teacher signal survives generation.
        let d = SynthConfig::new(DatasetKind::HiggsLike, 5).with_scale(0.1).generate();
        let n = d.n_rows();
        let mut best_acc: f64 = 0.5;
        for j in 0..d.n_features() {
            for thr in [0.25f32, 0.5, 0.75] {
                let mut correct = 0usize;
                for r in 0..n {
                    let v = d.features.get(r, j).unwrap_or(0.0);
                    let pred = if v > thr { 1.0 } else { 0.0 };
                    if pred == d.labels[r] {
                        correct += 1;
                    }
                }
                let acc = (correct as f64 / n as f64).max(1.0 - correct as f64 / n as f64);
                best_acc = best_acc.max(acc);
            }
        }
        assert!(best_acc > 0.54, "no single informative feature found: {best_acc}");
    }

    #[test]
    fn criteo_feature0_correlates_with_label() {
        let d = SynthConfig::new(DatasetKind::CriteoLike, 9).with_scale(0.1).generate();
        let n = d.n_rows();
        let mut sum_pos = 0.0f64;
        let mut n_pos = 0usize;
        let mut sum_neg = 0.0f64;
        let mut n_neg = 0usize;
        for r in 0..n {
            if let Some(v) = d.features.get(r, 0) {
                if d.labels[r] > 0.5 {
                    sum_pos += v as f64;
                    n_pos += 1;
                } else {
                    sum_neg += v as f64;
                    n_neg += 1;
                }
            }
        }
        let gap = sum_pos / n_pos as f64 - sum_neg / n_neg as f64;
        assert!(gap > 0.15, "response feature too weak: gap {gap}");
    }

    #[test]
    fn cardinality_profile_bounds_distinct_values() {
        let d = SynthConfig::new(DatasetKind::AirlineLike, 4).with_scale(0.1).generate();
        // Feature 0 has cardinality 12 in the airline profile.
        let mut distinct = std::collections::BTreeSet::new();
        for r in 0..d.n_rows() {
            if let Some(v) = d.features.get(r, 0) {
                distinct.insert(v.to_bits());
            }
        }
        assert!(distinct.len() <= 12, "expected <=12 levels, got {}", distinct.len());
        assert!(distinct.len() >= 10, "profile underpopulated: {}", distinct.len());
    }

    #[test]
    fn kind_parse_roundtrip() {
        for kind in DatasetKind::ALL {
            assert_eq!(DatasetKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(DatasetKind::parse("higgs"), Some(DatasetKind::HiggsLike));
        assert_eq!(DatasetKind::parse("nope"), None);
    }

    #[test]
    fn scale_controls_rows_with_floor() {
        let cfg = SynthConfig::new(DatasetKind::Synset, 0).with_scale(1e-9);
        assert_eq!(cfg.n_rows(), 16);
        let cfg = SynthConfig::new(DatasetKind::Synset, 0).with_scale(2.0);
        assert_eq!(cfg.n_rows(), 40_000);
    }
}
