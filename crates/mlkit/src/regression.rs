//! Variance-reduction regression tree — the latency predictor inside the
//! reconfiguration engine (§3.3).
//!
//! The engine must estimate the expected latency of the predicted design
//! from matrix features before deciding whether a bitstream switch pays
//! for itself. The paper reports MAE 0.344 and R² 0.978 for this
//! predictor (Figure 9); `misam-core` trains it on log-latency, where
//! those residual scales are meaningful.
//!
//! Like the classifier, induction is sort-once over a columnar
//! [`FeatureMatrix`]: every feature is argsorted once for the whole
//! training set and split choices stably partition the pre-sorted index
//! rows, so no node ever re-sorts. The original per-node-sorting
//! algorithm survives in [`crate::reference`] for equivalence tests.
//! The fitted tree is the same packed [`Arena`] the classifier uses, with
//! the predicted value in each leaf's threshold slot.

use crate::arena::{Arena, NodeRecord};
use crate::error::ModelDecodeError;
use crate::matrix::FeatureMatrix;
use crate::simd;
use serde::{Deserialize, Serialize};

/// Hyperparameters for regression-tree induction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegParams {
    /// Maximum depth of the tree.
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum variance reduction (weighted) to keep a split.
    pub min_gain: f64,
}

impl Default for RegParams {
    fn default() -> Self {
        RegParams { max_depth: 14, min_samples_leaf: 2, min_gain: 1e-12 }
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    arena: Arena,
}

impl RegressionTree {
    /// Fits a tree to feature rows `x` and real-valued targets `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, lengths disagree, rows are ragged, or any
    /// target is not finite.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &RegParams) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree to an empty dataset");
        let n_features = x[0].len();
        assert!(x.iter().all(|r| r.len() == n_features), "ragged feature rows");
        Self::fit_matrix(&FeatureMatrix::from_rows(x), y, params)
    }

    /// Fits a tree to columnar features — skips the transposition the
    /// row-slice [`RegressionTree::fit`] front door performs.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or any target is not finite.
    pub fn fit_matrix(m: &FeatureMatrix, y: &[f64], params: &RegParams) -> Self {
        assert_eq!(m.n_rows(), y.len(), "feature and target counts differ");
        assert!(y.iter().all(|v| v.is_finite()), "targets must be finite");

        let n = m.n_rows();
        let nf = m.n_features();
        let mut order = vec![0u32; (nf + 1) * n];
        for f in 0..nf {
            let col = m.col(f);
            let seg = &mut order[f * n..(f + 1) * n];
            for (k, v) in seg.iter_mut().enumerate() {
                *v = k as u32;
            }
            seg.sort_unstable_by(|&a, &b| {
                col[a as usize].partial_cmp(&col[b as usize]).expect("features must not be NaN")
            });
        }
        for (k, v) in order[nf * n..].iter_mut().enumerate() {
            *v = k as u32;
        }

        let mut b = RegBuilder {
            m,
            y,
            params,
            nodes: Vec::new(),
            order,
            scratch: vec![0u32; n],
            goes_left: vec![false; n],
        };
        b.grow(0, n, 0);
        RegressionTree { arena: Arena { nodes: b.nodes, n_features: nf } }
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features`.
    #[inline]
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.arena.leaf(features).threshold
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|f| self.predict(f)).collect()
    }

    /// Predicts every row of a columnar matrix with the frontier walk;
    /// bit-identical to [`RegressionTree::predict`] row for row.
    ///
    /// # Panics
    ///
    /// Panics if `m.n_features() != n_features`.
    pub fn predict_batch_matrix(&self, m: &FeatureMatrix) -> Vec<f64> {
        let mut out = vec![0.0f64; m.n_rows()];
        self.arena.walk_batch(m, simd::partition_segment, |leaf, rows| {
            for &r in rows {
                out[r as usize] = leaf.threshold;
            }
        });
        out
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.arena.nodes.len()
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.arena.n_features
    }

    /// Checks that the tree is safe to walk: every child link points
    /// forward and in range and every split feature is `< n_features`.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn validate(&self) -> Result<(), ModelDecodeError> {
        self.arena.validate(None)
    }

    /// Re-indexes a tree fitted on a projected matrix onto the full
    /// input (crate-internal: forest fits; see
    /// [`crate::tree::DecisionTree::with_feature_map`]).
    pub(crate) fn with_feature_map(mut self, map: &[usize], n_features: usize) -> Self {
        self.arena.bake(map, n_features);
        self
    }

    /// Assembles a tree from pre-order node records (crate-internal: the
    /// reference implementation's conversion).
    pub(crate) fn from_parts(nodes: Vec<NodeRecord>, n_features: usize) -> Self {
        RegressionTree { arena: Arena { nodes, n_features } }
    }
}

/// Sort-once induction state; see [`crate::tree`] for the buffer layout
/// (here the membership row drives the node mean / SSE accumulation).
struct RegBuilder<'a> {
    m: &'a FeatureMatrix,
    y: &'a [f64],
    params: &'a RegParams,
    nodes: Vec<NodeRecord>,
    order: Vec<u32>,
    scratch: Vec<u32>,
    goes_left: Vec<bool>,
}

impl RegBuilder<'_> {
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let nrows = self.m.n_rows();
        let nf = self.m.n_features();
        let n = (hi - lo) as f64;
        let members = &self.order[nf * nrows + lo..nf * nrows + hi];
        let mean = members.iter().map(|&i| self.y[i as usize]).sum::<f64>() / n;
        let sse: f64 = members.iter().map(|&i| (self.y[i as usize] - mean).powi(2)).sum();

        let leaf = |nodes: &mut Vec<NodeRecord>| {
            nodes.push(NodeRecord::value_leaf(mean));
            (nodes.len() - 1) as u32
        };

        if depth >= self.params.max_depth
            || hi - lo < 2 * self.params.min_samples_leaf
            || sse <= 0.0
        {
            return leaf(&mut self.nodes);
        }

        let Some((feature, threshold)) = self.best_split(lo, hi, sse) else {
            return leaf(&mut self.nodes);
        };

        let me = self.nodes.len();
        self.nodes.push(NodeRecord::value_leaf(mean)); // placeholder

        {
            let col = self.m.col(feature);
            for pos in lo..hi {
                let i = self.order[nf * nrows + pos] as usize;
                self.goes_left[i] = col[i] <= threshold;
            }
        }
        let mut n_left = 0usize;
        for row in 0..=nf {
            let base = row * nrows;
            let mut k = 0usize;
            let mut s = 0usize;
            for pos in lo..hi {
                let v = self.order[base + pos];
                if self.goes_left[v as usize] {
                    self.order[base + lo + k] = v;
                    k += 1;
                } else {
                    self.scratch[s] = v;
                    s += 1;
                }
            }
            self.order[base + lo + k..base + hi].copy_from_slice(&self.scratch[..s]);
            n_left = k;
        }

        let left = self.grow(lo, lo + n_left, depth + 1);
        let right = self.grow(lo + n_left, hi, depth + 1);
        self.nodes[me] = NodeRecord::split(feature as u16, threshold, left, right);
        me as u32
    }

    /// Best split by SSE reduction: one linear scan per feature over the
    /// node's pre-sorted index row, running sums replicating the
    /// reference algorithm's accumulation order.
    fn best_split(&self, lo: usize, hi: usize, sse: f64) -> Option<(usize, f64)> {
        let nrows = self.m.n_rows();
        let seg_len = hi - lo;
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        for f in 0..self.m.n_features() {
            let col = self.m.col(f);
            let seg = &self.order[f * nrows + lo..f * nrows + hi];
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            // The reference computes the totals over the node in sorted
            // order, per feature; replicate for identical rounding.
            let total_sum: f64 = seg.iter().map(|&i| self.y[i as usize]).sum();
            let total_sq: f64 = seg.iter().map(|&i| self.y[i as usize] * self.y[i as usize]).sum();
            for k in 0..seg_len - 1 {
                let yi = self.y[seg[k] as usize];
                lsum += yi;
                lsq += yi * yi;
                let v = col[seg[k] as usize];
                let v_next = col[seg[k + 1] as usize];
                if v == v_next {
                    continue;
                }
                let ln = (k + 1) as f64;
                let rn = (seg_len - k - 1) as f64;
                if (ln as usize) < self.params.min_samples_leaf
                    || (rn as usize) < self.params.min_samples_leaf
                {
                    continue;
                }
                let l_sse = lsq - lsum * lsum / ln;
                let rsum = total_sum - lsum;
                let r_sse = (total_sq - lsq) - rsum * rsum / rn;
                let gain = sse - l_sse - r_sse;
                if gain > self.params.min_gain && best.is_none_or(|b| gain > b.2) {
                    best = Some((f, 0.5 * (v + v_next), gain));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_a_step_function_exactly() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| if i < 25 { 1.0 } else { 5.0 }).collect();
        let t = RegressionTree::fit(&x, &y, &RegParams::default());
        assert!((t.predict(&[3.0]) - 1.0).abs() < 1e-12);
        assert!((t.predict(&[40.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn approximates_a_smooth_function() {
        let x: Vec<Vec<f64>> = (0..400).map(|i| vec![i as f64 / 100.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[0]).collect();
        let t = RegressionTree::fit(&x, &y, &RegParams::default());
        let mut worst: f64 = 0.0;
        for (xi, yi) in x.iter().zip(&y) {
            worst = worst.max((t.predict(xi) - yi).abs());
        }
        assert!(worst < 0.2, "worst absolute error {worst}");
    }

    #[test]
    fn fit_matrix_matches_fit() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 23) as f64, (i % 5) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 3.0 - r[1]).collect();
        let a = RegressionTree::fit(&x, &y, &RegParams::default());
        let b =
            RegressionTree::fit_matrix(&FeatureMatrix::from_rows(&x), &y, &RegParams::default());
        assert_eq!(a, b);
        assert_eq!(a.predict_batch(&x), b.predict_batch_matrix(&FeatureMatrix::from_rows(&x)));
    }

    #[test]
    fn constant_target_is_a_single_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![7.0, 7.0, 7.0];
        let t = RegressionTree::fit(&x, &y, &RegParams::default());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[-100.0]), 7.0);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let params = RegParams { min_samples_leaf: 5, ..RegParams::default() };
        let t = RegressionTree::fit(&x, &y, &params);
        // Only the 5/5 split is allowed.
        assert!(t.node_count() <= 3);
    }

    #[test]
    fn multi_feature_selection_picks_informative_axis() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let informative = (i % 20) as f64;
            let noise = ((i * 7) % 13) as f64;
            x.push(vec![noise, informative]);
            y.push(informative * 10.0);
        }
        let t = RegressionTree::fit(&x, &y, &RegParams::default());
        let pred = t.predict(&[0.0, 10.0]);
        assert!((pred - 100.0).abs() < 10.0);
    }

    #[test]
    #[should_panic(expected = "targets must be finite")]
    fn rejects_nan_targets() {
        RegressionTree::fit(&[vec![1.0]], &[f64::NAN], &RegParams::default());
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn predict_checks_arity() {
        let t = RegressionTree::fit(&[vec![1.0, 2.0]], &[1.0], &RegParams::default());
        t.predict(&[1.0, 2.0, 3.0]);
    }
}
