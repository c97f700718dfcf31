//! Random ground-truth models ("teachers") for label generation.
//!
//! A teacher is a small random ensemble of axis-aligned stumps, pairwise
//! interaction terms and linear terms over rank-space feature values in
//! `[0, 1]`. Stumps are exactly the hypothesis class GBDT learns, so the
//! synthetic tasks are learnable; interactions require depth ≥ 2, so deeper
//! trees keep improving AUC — mirroring the convergence behaviour of the
//! paper's real datasets.

use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// One additive term of the teacher.
#[derive(Debug, Clone)]
enum Term {
    /// `val` if `x[f] > thr` else `-val`.
    Stump { f: usize, thr: f32, val: f32 },
    /// `val` if `x[f1] > thr1 && x[f2] > thr2` else `0`.
    Pair { f1: usize, thr1: f32, f2: usize, thr2: f32, val: f32 },
    /// `w * x[f]`.
    Linear { f: usize, w: f32 },
}

/// A random additive ground-truth scoring function.
#[derive(Debug, Clone)]
pub struct Teacher {
    terms: Vec<Term>,
}

impl Teacher {
    /// Samples a teacher over `m` features. Only the first
    /// `min(m, 32)` features are informative — wide matrices like the
    /// YFCC stand-in keep plenty of uninformative columns, as real deep
    /// features do.
    pub fn generate(m: usize, rng: &mut SmallRng) -> Self {
        let informative = m.min(32);
        let normal = Normal::new(0.0f32, 1.0).expect("valid normal");
        let n_stumps = (informative * 2).clamp(4, 48);
        let n_pairs = informative.clamp(2, 24);
        let n_linear = (informative / 2).clamp(1, 8);
        let mut terms = Vec::with_capacity(n_stumps + n_pairs + n_linear);
        for _ in 0..n_stumps {
            terms.push(Term::Stump {
                f: rng.gen_range(0..informative),
                thr: rng.gen_range(0.1..0.9),
                val: normal.sample(rng),
            });
        }
        for _ in 0..n_pairs {
            terms.push(Term::Pair {
                f1: rng.gen_range(0..informative),
                thr1: rng.gen_range(0.2..0.8),
                f2: rng.gen_range(0..informative),
                thr2: rng.gen_range(0.2..0.8),
                val: 1.5 * normal.sample(rng),
            });
        }
        for _ in 0..n_linear {
            terms.push(Term::Linear { f: rng.gen_range(0..informative), w: normal.sample(rng) });
        }
        Self { terms }
    }

    /// Scores a dense row of feature values.
    pub fn score_dense(&self, row: &[f32]) -> f32 {
        self.score_with(|f| row.get(f).copied().unwrap_or(0.0))
    }

    /// Scores a sparse row of `(col, value)` pairs sorted by column;
    /// absent features read as `0`.
    pub fn score_sparse(&self, row: &[(u32, f32)]) -> f32 {
        self.score_with(|f| {
            row.binary_search_by_key(&(f as u32), |&(c, _)| c)
                .map(|i| row[i].1)
                .unwrap_or(0.0)
        })
    }

    fn score_with(&self, get: impl Fn(usize) -> f32) -> f32 {
        let mut s = 0.0f32;
        for term in &self.terms {
            s += match *term {
                Term::Stump { f, thr, val } => {
                    if get(f) > thr {
                        val
                    } else {
                        -val
                    }
                }
                Term::Pair { f1, thr1, f2, thr2, val } => {
                    if get(f1) > thr1 && get(f2) > thr2 {
                        val
                    } else {
                        0.0
                    }
                }
                Term::Linear { f, w } => w * get(f),
            };
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn teacher_is_deterministic_per_rng_state() {
        let a = Teacher::generate(16, &mut rng(1));
        let b = Teacher::generate(16, &mut rng(1));
        let row: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        assert_eq!(a.score_dense(&row), b.score_dense(&row));
    }

    #[test]
    fn score_depends_on_input() {
        let t = Teacher::generate(8, &mut rng(2));
        let low = vec![0.0f32; 8];
        let high = vec![1.0f32; 8];
        assert_ne!(t.score_dense(&low), t.score_dense(&high));
    }

    #[test]
    fn sparse_and_dense_scores_agree() {
        let t = Teacher::generate(10, &mut rng(3));
        let dense = vec![0.0, 0.7, 0.0, 0.3, 0.0, 0.0, 0.9, 0.0, 0.0, 0.1];
        let sparse: Vec<(u32, f32)> = vec![(1, 0.7), (3, 0.3), (6, 0.9), (9, 0.1)];
        assert_eq!(t.score_dense(&dense), t.score_sparse(&sparse));
    }

    #[test]
    fn informative_features_capped_at_32() {
        let t = Teacher::generate(4096, &mut rng(4));
        // All terms reference features below 32.
        let mut high = vec![0.0f32; 4096];
        for v in high.iter_mut().take(32) {
            *v = 0.5;
        }
        let mut noise = high.clone();
        for v in noise.iter_mut().skip(32) {
            *v = 0.99;
        }
        assert_eq!(t.score_dense(&high), t.score_dense(&noise));
    }

    #[test]
    fn term_counts_scale_with_m() {
        let small = Teacher::generate(2, &mut rng(5));
        let large = Teacher::generate(32, &mut rng(5));
        assert!(small.terms.len() < large.terms.len());
    }
}
