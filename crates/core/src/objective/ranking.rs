//! LambdaMART ranking: pairwise lambda gradients weighted by |ΔNDCG@k|,
//! computed per query group — the one loss whose pairs couple rows, so the
//! gradient driver hands it the whole buffer.

use crate::loss::GradPair;

/// Fills `out` (one raw pair per row) with LambdaMART gradients: for every
/// in-query document pair with different relevance, add the RankNet
/// gradient `ρ = 1/(1 + exp(s_hi - s_lo))` scaled by the NDCG@k swap delta
/// `|Δ| = |gain_hi - gain_lo| · |disc(p_hi) - disc(p_lo)| / IDCG`.
/// Gains are `2^rel - 1`, discounts `1/log2(pos + 2)` truncated at `k`.
/// Queries with `IDCG = 0` (no relevant documents) contribute nothing.
/// Rows are grouped consecutively per `query_groups`.
///
/// Pair enumeration is O(n²) per query — fine at the few-dozen documents
/// per query of real ranking data and of the synthetic generator.
pub(super) fn lambdarank_grads(
    k: usize,
    preds: &[f32],
    all_labels: &[f32],
    query_groups: &[u32],
    out: &mut [GradPair],
) {
    // Truncated DCG discount of rank position `pos` (0-based).
    let discount = |pos: usize| if pos < k { 1.0 / ((pos + 2) as f64).log2() } else { 0.0 };
    out.fill([0.0, 0.0]);
    let mut start = 0usize;
    for &sz in query_groups {
        let sz = sz as usize;
        let scores = &preds[start..start + sz];
        let labels = &all_labels[start..start + sz];

        // Rank documents by score descending; ties break by index
        // ascending for determinism.
        let mut order: Vec<usize> = (0..sz).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        // rank[doc] = position of doc in the current ranking.
        let mut rank = vec![0usize; sz];
        for (pos, &doc) in order.iter().enumerate() {
            rank[doc] = pos;
        }

        // Ideal DCG: gains sorted descending against the discounts.
        let gains: Vec<f64> = labels.iter().map(|&y| 2f64.powf(y as f64) - 1.0).collect();
        let mut ideal = gains.clone();
        ideal.sort_by(|a, b| b.total_cmp(a));
        let idcg: f64 = ideal.iter().enumerate().map(|(pos, g)| g * discount(pos)).sum();
        if idcg <= 0.0 {
            start += sz;
            continue;
        }
        for i in 0..sz {
            for j in 0..sz {
                if labels[i] <= labels[j] {
                    continue;
                }
                // i is the more relevant document of the pair.
                let delta = (gains[i] - gains[j]).abs()
                    * (discount(rank[i]) - discount(rank[j])).abs()
                    / idcg;
                if delta == 0.0 {
                    continue;
                }
                let rho = 1.0 / (1.0 + ((scores[i] - scores[j]) as f64).exp());
                let lambda = (rho * delta) as f32;
                let weight = (rho * (1.0 - rho) * delta) as f32;
                out[start + i][0] -= lambda;
                out[start + j][0] += lambda;
                out[start + i][1] += weight;
                out[start + j][1] += weight;
            }
        }
        start += sz;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grads_of(scores: &[f32], labels: &[f32], groups: &[u32], k: u32) -> Vec<GradPair> {
        let mut out = vec![[0.0f32; 2]; labels.len()];
        lambdarank_grads(k as usize, scores, labels, groups, &mut out);
        out
    }

    #[test]
    fn per_query_gradients_sum_to_zero() {
        let scores = [0.3f32, -0.1, 0.8, 0.2, 0.9, -0.4];
        let labels = [2.0f32, 0.0, 1.0, 3.0, 0.0, 1.0];
        let out = grads_of(&scores, &labels, &[3, 3], 10);
        for (lo, hi) in [(0, 3), (3, 6)] {
            let g: f32 = out[lo..hi].iter().map(|p| p[0]).sum();
            assert!(g.abs() < 1e-6, "query [{lo},{hi}) gradient sum {g}");
            assert!(out[lo..hi].iter().all(|p| p[1] >= 0.0), "hessians non-negative");
        }
    }

    #[test]
    fn misranked_pair_gets_pulled_toward_order() {
        // Relevant doc scored below an irrelevant one: the relevant doc's
        // gradient must be negative (raw scores move opposite to g).
        let out = grads_of(&[-1.0, 1.0], &[1.0, 0.0], &[2], 10);
        assert!(out[0][0] < 0.0, "relevant doc pulled up");
        assert!(out[1][0] > 0.0, "irrelevant doc pushed down");
        assert!(out[0][1] > 0.0 && out[1][1] > 0.0);
    }

    #[test]
    fn all_zero_relevance_query_is_skipped() {
        let out = grads_of(&[0.5, -0.5], &[0.0, 0.0], &[2], 10);
        assert_eq!(out, vec![[0.0, 0.0]; 2]);
    }

    #[test]
    fn truncation_zeroes_pairs_below_k() {
        // Doc 0 is the most relevant and correctly ranked first by a huge
        // margin, so its pairs carry ρ ≈ σ(-8) ≈ 0. The remaining
        // (doc2, doc1) pair is misordered at positions 1–2: entirely below
        // the k=1 cutoff its |ΔNDCG| is exactly 0, so every k=1 gradient is
        // vanishingly small, while k=3 sees the swap and pulls hard.
        let scores = [10.0f32, 2.0, 1.0];
        let labels = [3.0f32, 1.0, 2.0];
        let out_k1 = grads_of(&scores, &labels, &[3], 1);
        let out_k3 = grads_of(&scores, &labels, &[3], 3);
        assert!(out_k1[1][0].abs() < 1e-3, "below-cutoff pair must not couple: {out_k1:?}");
        assert!(out_k1[2][0].abs() < 1e-3, "below-cutoff pair must not couple: {out_k1:?}");
        assert!(out_k3[2][0].abs() > 1e-2, "k=3 must see the misordered pair: {out_k3:?}");
        assert!(out_k3[2][0] < 0.0, "the more relevant doc is pulled up");
    }
}
