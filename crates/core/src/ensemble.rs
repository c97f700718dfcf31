//! The trained ensemble: prediction, persistence, feature importance.

use crate::params::LossKind;
use crate::predict::FlatForest;
use crate::tree::Tree;
use harp_data::FeatureMatrix;
use serde::{Deserialize, Serialize};

/// A trained gradient-boosted tree ensemble.
///
/// Trees route on *raw* feature values (each split stores the raw threshold
/// equivalent to its bin), so prediction needs no quantization step.
///
/// For multiclass (softmax) models, trees are interleaved by class: tree `t`
/// belongs to group `t % n_groups`, and raw scores are row-major
/// `n_rows × n_groups`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbdtModel {
    trees: Vec<Tree>,
    base_scores: Vec<f32>,
    loss: LossKind,
    n_features: usize,
}

/// Importance of one feature across the ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FeatureImportance {
    /// Total split gain attributed to the feature.
    pub gain: f64,
    /// Number of splits using the feature.
    pub splits: u64,
}

impl GbdtModel {
    /// Assembles a model (used by the trainer).
    ///
    /// # Panics
    /// Panics if `base_scores.len() != loss.n_groups()` or the tree count is
    /// not a multiple of the group count.
    pub fn new(trees: Vec<Tree>, base_scores: Vec<f32>, loss: LossKind, n_features: usize) -> Self {
        assert_eq!(base_scores.len(), loss.n_groups(), "one base score per group");
        assert_eq!(trees.len() % loss.n_groups(), 0, "trees must fill whole rounds");
        Self { trees, base_scores, loss, n_features }
    }

    /// Number of model groups (1 for scalar losses, classes for softmax).
    pub fn n_groups(&self) -> usize {
        self.loss.n_groups()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Per-group constant initial scores.
    pub fn base_scores(&self) -> &[f32] {
        &self.base_scores
    }

    /// The trees.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// The training loss (decides the prediction transform).
    pub fn loss(&self) -> LossKind {
        self.loss
    }

    /// A copy truncated to the first `n_rounds` boosting rounds (e.g. the
    /// best early-stopping iteration). One round is `n_groups` trees.
    pub fn truncated(&self, n_rounds: usize) -> Self {
        let keep = (n_rounds * self.n_groups()).min(self.trees.len());
        Self { trees: self.trees[..keep].to_vec(), ..self.clone() }
    }

    /// Compiles the ensemble into the flat struct-of-arrays layout for
    /// batch scoring. Compile once and reuse the [`FlatForest`] when
    /// predicting repeatedly; the `predict*` methods below compile per
    /// call for convenience.
    pub fn compile(&self) -> FlatForest {
        FlatForest::from_trees(&self.trees, self.base_scores.clone(), self.loss, self.n_features)
    }

    /// Raw (margin) score of one row; `value(f)` returns the raw feature
    /// value or `None` when missing.
    ///
    /// # Panics
    /// Panics for multiclass models — use
    /// [`predict_raw_groups_row`](Self::predict_raw_groups_row).
    pub fn predict_raw_row(&self, value: impl Fn(u32) -> Option<f32> + Copy) -> f32 {
        assert_eq!(self.n_groups(), 1, "scalar prediction on a multiclass model");
        let mut s = self.base_scores[0];
        for tree in &self.trees {
            s += tree.predict(value);
        }
        s
    }

    /// Per-group raw scores of one row.
    pub fn predict_raw_groups_row(&self, value: impl Fn(u32) -> Option<f32> + Copy) -> Vec<f32> {
        let g = self.n_groups();
        let mut scores = self.base_scores.clone();
        for (t, tree) in self.trees.iter().enumerate() {
            scores[t % g] += tree.predict(value);
        }
        scores
    }

    /// Raw scores for every row of a matrix: length `n_rows` for scalar
    /// losses, row-major `n_rows × n_groups` for multiclass. Scores
    /// through the flat blocked engine; see [`compile`](Self::compile) to
    /// amortize compilation over many calls, and
    /// [`FlatForest::predict_raw_parallel`] to score row blocks on a pool.
    /// The per-row reference it is bitwise equal to is
    /// [`predict_raw_groups_row`](Self::predict_raw_groups_row) over the rows
    /// (`tests/predict_equivalence.rs`).
    pub fn predict_raw(&self, features: &FeatureMatrix) -> Vec<f32> {
        self.compile().predict_raw(features)
    }

    /// Response-scale predictions: probabilities for logistic, identity for
    /// squared error, per-row softmax probabilities (row-major
    /// `n_rows × n_classes`) for multiclass.
    pub fn predict(&self, features: &FeatureMatrix) -> Vec<f32> {
        self.loss.transform_scores(&self.predict_raw(features))
    }

    /// Argmax class id per row (multiclass models; for scalar losses this is
    /// the 0.5-thresholded binary decision).
    pub fn predict_class(&self, features: &FeatureMatrix) -> Vec<u32> {
        self.compile().predict_class(features)
    }

    /// The leaf index every tree routes one row to — useful as an embedding
    /// (the classic GBDT+LR feature transform) and for debugging.
    pub fn predict_leaf_row(
        &self,
        value: impl Fn(u32) -> Option<f32> + Copy,
    ) -> Vec<crate::tree::NodeId> {
        self.trees.iter().map(|t| t.route(value)).collect()
    }

    /// Per-feature gain/split-count importance.
    pub fn feature_importance(&self) -> Vec<FeatureImportance> {
        let mut gain = vec![0.0f64; self.n_features];
        let mut count = vec![0u64; self.n_features];
        for tree in &self.trees {
            tree.accumulate_importance(&mut gain, &mut count);
        }
        gain.into_iter()
            .zip(count)
            .map(|(g, c)| FeatureImportance { gain: g, splits: c })
            .collect()
    }

    /// Human-readable multi-line dump of the ensemble (XGBoost-style).
    pub fn dump_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "GbdtModel: {} trees, {} groups, base {:?}",
            self.trees.len(),
            self.n_groups(),
            self.base_scores
        );
        for (t, tree) in self.trees.iter().enumerate() {
            let _ = writeln!(out, "tree {t} (group {}):", t % self.n_groups());
            dump_node(&mut out, tree, 0, 1);
        }
        out
    }

    /// Serializes the model as JSON.
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes a model from JSON.
    ///
    /// # Errors
    /// Propagates parse failures.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the model to a file as JSON.
    ///
    /// # Errors
    /// Propagates I/O and serialization failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a model from a JSON file.
    ///
    /// # Errors
    /// Propagates I/O and parse failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(std::io::Error::other)
    }
}

fn dump_node(out: &mut String, tree: &Tree, id: crate::tree::NodeId, indent: usize) {
    use std::fmt::Write;
    let node = tree.node(id);
    let pad = "  ".repeat(indent);
    match &node.split {
        Some(s) => {
            let _ = writeln!(
                out,
                "{pad}{id}: [f{} <= {:.6}] gain={:.4} default={}",
                s.feature,
                s.threshold,
                s.gain,
                if s.default_left { "left" } else { "right" }
            );
            dump_node(out, tree, node.left, indent + 1);
            dump_node(out, tree, node.right, indent + 1);
        }
        None => {
            let _ = writeln!(out, "{pad}{id}: leaf={:.6} (n={})", node.weight, node.stats.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{NodeStats, SplitData};
    use harp_data::DenseMatrix;

    fn model_with_one_split() -> GbdtModel {
        let mut t = Tree::new_root(NodeStats { g: 0.0, h: 4.0, count: 4 });
        let (l, r) = t.apply_split(
            0,
            SplitData { feature: 0, bin: 0, threshold: 0.5, default_left: false, gain: 2.0 },
            NodeStats { g: -1.0, h: 2.0, count: 2 },
            NodeStats { g: 1.0, h: 2.0, count: 2 },
        );
        t.node_mut(l).weight = 1.0;
        t.node_mut(r).weight = -1.0;
        GbdtModel::new(vec![t], vec![0.5], LossKind::Logistic, 2)
    }

    #[test]
    fn predict_raw_adds_base_and_trees() {
        let m = model_with_one_split();
        assert_eq!(m.predict_raw_row(|_| Some(0.0)), 1.5);
        assert_eq!(m.predict_raw_row(|_| Some(1.0)), -0.5);
    }

    #[test]
    fn predict_applies_sigmoid_for_logistic() {
        let m = model_with_one_split();
        let features = FeatureMatrix::Dense(DenseMatrix::from_vec(1, 2, vec![0.0, 0.0]));
        let p = m.predict(&features)[0];
        assert!((p - crate::loss::sigmoid(1.5)).abs() < 1e-6);
    }

    #[test]
    fn missing_uses_default_direction() {
        let m = model_with_one_split();
        // default_left = false -> right leaf.
        assert_eq!(m.predict_raw_row(|_| None), -0.5);
    }

    #[test]
    fn truncated_drops_trees() {
        let mut m = model_with_one_split();
        m.trees.push(m.trees[0].clone());
        assert_eq!(m.n_trees(), 2);
        let t1 = m.truncated(1);
        assert_eq!(t1.n_trees(), 1);
        assert_eq!(t1.base_scores(), m.base_scores());
    }

    #[test]
    fn importance_counts_splits() {
        let m = model_with_one_split();
        let imp = m.feature_importance();
        assert_eq!(imp.len(), 2);
        assert_eq!(imp[0].splits, 1);
        assert!((imp[0].gain - 2.0).abs() < 1e-12);
        assert_eq!(imp[1].splits, 0);
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let m = model_with_one_split();
        let json = m.to_json().unwrap();
        let back = GbdtModel::from_json(&json).unwrap();
        for v in [-1.0f32, 0.0, 0.3, 0.7, 2.0] {
            assert_eq!(m.predict_raw_row(|_| Some(v)), back.predict_raw_row(|_| Some(v)));
        }
    }

    #[test]
    fn flat_engine_matches_recursive_reference() {
        let m = model_with_one_split();
        let n = 100;
        let values: Vec<f32> = (0..n * 2)
            .map(|i| if i % 9 == 0 { f32::NAN } else { (i % 13) as f32 / 6.0 })
            .collect();
        let features = FeatureMatrix::Dense(DenseMatrix::from_vec(n, 2, values));
        let per_row: Vec<f32> = (0..n)
            .flat_map(|r| m.predict_raw_groups_row(|f| features.get(r, f as usize)))
            .collect();
        assert_eq!(m.predict_raw(&features), per_row);
    }

    #[test]
    fn save_load_roundtrip() {
        let m = model_with_one_split();
        let dir = std::env::temp_dir().join("harpgbdt-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        m.save(&path).unwrap();
        let back = GbdtModel::load(&path).unwrap();
        assert_eq!(back.n_trees(), 1);
        assert_eq!(back.base_scores(), [0.5]);
        std::fs::remove_file(&path).ok();
    }
}
