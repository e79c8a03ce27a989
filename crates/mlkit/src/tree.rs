//! CART decision-tree classifier.
//!
//! Greedy top-down induction with gini impurity, optional per-class
//! sample weights (the paper weights classes inversely to frequency to
//! counter label imbalance, §3.1), and three pruning controls: maximum
//! depth, minimum leaf size, and minimum impurity gain. The fitted tree
//! is an `Arena` of packed node records — inference walks it with no
//! pointer chasing, the Rust analogue of the paper's "unrolled decision
//! logic" (§5.5) — and serializes to a compact 16-byte-per-node binary
//! format to substantiate the 6 KB model-footprint claim.
//!
//! # Induction is sort-once
//!
//! The split search never sorts inside a node. Each feature is argsorted
//! **once** over the whole training set (into a feature-major index
//! buffer with one extra row holding the node membership in ascending
//! sample order); choosing a split then stably partitions every row of
//! the buffer in place, so each child inherits per-feature orderings that
//! are already sorted. Induction costs
//! O(features · n log n + Σ_nodes features · |node|) instead of the
//! seed's O(Σ_nodes features · |node| log |node|), and every scan reads a
//! contiguous [`FeatureMatrix`] column instead of pointer-chasing
//! `Vec<Vec<f64>>` rows. Candidate evaluation order, accumulation order,
//! and tie-breaking replicate the seed algorithm (preserved in
//! [`crate::reference`]) operation for operation, so the trees are
//! bit-identical on tie-free features and prediction-identical in
//! general — property-tested in `tests/flat_equivalence.rs`.

use crate::arena::{Arena, NodeRecord, Partition};
use crate::error::ModelDecodeError;
use crate::matrix::FeatureMatrix;
use crate::simd;
use serde::{Deserialize, Serialize};

/// Hyperparameters for tree induction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth of the tree (root = depth 0).
    pub max_depth: usize,
    /// Minimum weighted samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum weighted gini decrease for a split to be kept.
    pub min_gain: f64,
    /// Optional per-class weights (index = class label). `None` weights
    /// all classes equally.
    pub class_weights: Option<Vec<f64>>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_leaf: 1,
            min_samples_split: 2,
            min_gain: 1e-9,
            class_weights: None,
        }
    }
}

/// A fitted CART classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    arena: Arena,
    n_classes: usize,
    importances: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree to feature rows `x` and labels `y` over `n_classes`
    /// classes.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, rows have inconsistent lengths, any label
    /// is `>= n_classes`, or a provided class-weight vector is shorter
    /// than `n_classes`.
    pub fn fit(x: &[Vec<f64>], y: &[usize], n_classes: usize, params: &TreeParams) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree to an empty dataset");
        Self::fit_matrix(&FeatureMatrix::from_rows(x), y, n_classes, params)
    }

    /// Fits a tree to a columnar [`FeatureMatrix`] — the allocation the
    /// row-slice [`DecisionTree::fit`] front door performs internally,
    /// skipped when the caller already holds columnar features (forest
    /// bootstraps, cross-validation folds, `misam-core` training).
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree, any label is `>= n_classes`, a
    /// provided class-weight vector is shorter than `n_classes`, or the
    /// feature count exceeds the compact node format's `u16` range.
    pub fn fit_matrix(
        m: &FeatureMatrix,
        y: &[usize],
        n_classes: usize,
        params: &TreeParams,
    ) -> Self {
        assert_eq!(m.n_rows(), y.len(), "feature and label counts differ");
        assert!(y.iter().all(|&l| l < n_classes), "label out of range");
        assert!(m.n_features() <= u16::MAX as usize, "too many features for the node format");
        if let Some(w) = &params.class_weights {
            assert!(w.len() >= n_classes, "class-weight vector too short");
        }

        let n = m.n_rows();
        let nf = m.n_features();
        let weights: Vec<f64> =
            y.iter().map(|&l| params.class_weights.as_ref().map_or(1.0, |w| w[l])).collect();

        // Sort-once: argsort every feature over the full training set,
        // plus one membership row in ascending sample order (the order
        // the reference algorithm accumulates node statistics in).
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

        let mut b = Builder {
            m,
            y,
            weights,
            n_classes,
            params,
            nodes: Vec::new(),
            importance_raw: vec![0.0; nf],
            order,
            scratch: vec![0u32; n],
            goes_left: vec![false; n],
            left_counts: vec![0.0; n_classes],
        };
        b.grow(0, n, 0);

        let total: f64 = b.importance_raw.iter().sum();
        let importances = if total > 0.0 {
            b.importance_raw.iter().map(|v| v / total).collect()
        } else {
            vec![0.0; nf]
        };
        DecisionTree { arena: Arena { nodes: b.nodes, n_features: nf }, n_classes, importances }
    }

    /// Predicts the class of one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features`.
    pub fn predict(&self, features: &[f64]) -> usize {
        self.predict_with_purity(features).0
    }

    /// Predicts the class and the training purity of the reached leaf.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features`.
    pub fn predict_with_purity(&self, features: &[f64]) -> (usize, f64) {
        let leaf = self.arena.leaf(features);
        (leaf.class(), leaf.threshold)
    }

    /// Predicts a batch of feature vectors.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|f| self.predict(f)).collect()
    }

    /// Predicts every row of a columnar matrix with the frontier walk:
    /// all rows descend together, each split costing one sequential
    /// pass over one feature column. Results match [`DecisionTree::predict`]
    /// row for row.
    ///
    /// # Panics
    ///
    /// Panics if `m.n_features() != n_features`.
    pub fn predict_batch_matrix(&self, m: &FeatureMatrix) -> Vec<usize> {
        self.classes(m, simd::partition_segment)
    }

    /// [`DecisionTree::predict_batch_matrix`] pinned to the scalar
    /// (branchy) partition — the kernel bench baseline. Bit-identical
    /// output.
    #[doc(hidden)]
    pub fn predict_batch_matrix_scalar(&self, m: &FeatureMatrix) -> Vec<usize> {
        self.classes(m, simd::partition_segment_scalar)
    }

    fn classes(&self, m: &FeatureMatrix, partition: impl Partition) -> Vec<usize> {
        let mut out = vec![0usize; m.n_rows()];
        self.walk_batch(m, partition, |class, rows| {
            for &r in rows {
                out[r as usize] = class;
            }
        });
        out
    }

    /// Frontier walk reporting each reached leaf's class with its rows
    /// (crate-internal: forest voting).
    pub(crate) fn walk_batch(
        &self,
        m: &FeatureMatrix,
        partition: impl Partition,
        mut emit: impl FnMut(usize, &[u32]),
    ) {
        self.arena.walk_batch(m, partition, |leaf, rows| emit(leaf.class(), rows));
    }

    /// Normalized gini feature importances (sum to 1 when any split
    /// exists) — the quantity plotted in the paper's Figure 4.
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.arena.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.arena.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum root-to-leaf depth.
    pub fn depth(&self) -> usize {
        // Pre-order with forward-only links: walking the nodes backwards
        // sees both children of a split before the split itself.
        let nodes = &self.arena.nodes;
        let mut depth = vec![0usize; nodes.len()];
        for i in (0..nodes.len()).rev() {
            if !nodes[i].is_leaf() {
                let [l, r] = nodes[i].children;
                depth[i] = 1 + depth[l as usize].max(depth[r as usize]);
            }
        }
        depth.first().copied().unwrap_or(0)
    }

    /// Number of classes the tree was trained over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.arena.n_features
    }

    /// Assembles a tree from pre-order node records (crate-internal: the
    /// reference implementation's conversion).
    pub(crate) fn from_parts(
        nodes: Vec<NodeRecord>,
        n_features: usize,
        n_classes: usize,
        importances: Vec<f64>,
    ) -> Self {
        DecisionTree { arena: Arena { nodes, n_features }, n_classes, importances }
    }

    /// Re-indexes a tree fitted on a projected matrix (its feature `j`
    /// is input feature `map[j]`) onto the full `n_features`-wide input:
    /// split indices and importances move to the input's feature
    /// numbering, so prediction takes unprojected vectors directly and
    /// is bit-identical to projecting first. This is how forests and
    /// feature-subset selectors bake their maps in at fit time.
    ///
    /// # Panics
    ///
    /// Panics if `map.len()` differs from the fitted arity, any entry is
    /// `>= n_features`, or `n_features` does not fit the node format.
    pub fn with_feature_map(mut self, map: &[usize], n_features: usize) -> Self {
        self.arena.bake(map, n_features);
        let mut importances = vec![0.0; n_features];
        for (&f, &v) in map.iter().zip(&self.importances) {
            importances[f] = v;
        }
        self.importances = importances;
        self
    }

    /// Checks that the tree is safe to walk: every child link points
    /// forward and in range, every split feature is `< n_features`,
    /// every leaf class is `< n_classes`, and there is one importance
    /// per feature. Every decoder of an untrusted tree calls this.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn validate(&self) -> Result<(), ModelDecodeError> {
        if self.importances.len() != self.n_features() {
            return Err(ModelDecodeError::Shape {
                what: "importance count",
                expected: self.n_features(),
                found: self.importances.len(),
            });
        }
        self.arena.validate(Some(self.n_classes))
    }

    /// Serializes to the compact on-device format: a 16-byte header plus
    /// 16 bytes per node. This is the footprint behind the paper's "6 KB
    /// model" figure.
    pub fn to_bytes(&self) -> Vec<u8> {
        let nodes = &self.arena.nodes;
        let mut out = Vec::with_capacity(16 + 16 * nodes.len());
        out.extend_from_slice(b"MSDT");
        out.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_features() as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_classes as u32).to_le_bytes());
        for n in nodes {
            if n.is_leaf() {
                out.extend_from_slice(&(n.class() as u16).to_le_bytes());
                out.extend_from_slice(&[1u8, 0u8]); // leaf marker
                out.extend_from_slice(&(n.threshold as f32).to_le_bytes());
                out.extend_from_slice(&[0u8; 8]);
            } else {
                out.extend_from_slice(&n.feature.to_le_bytes());
                out.extend_from_slice(&[0u8, 0u8]); // split marker
                out.extend_from_slice(&(n.threshold as f32).to_le_bytes());
                out.extend_from_slice(&n.children[0].to_le_bytes());
                out.extend_from_slice(&n.children[1].to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a tree written by [`DecisionTree::to_bytes`].
    ///
    /// Importances are not stored on-device; the decoded tree reports
    /// zeros.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelDecodeError`] pinpointing the first structural
    /// problem (offset + context); convert to `String` where a plain
    /// description is enough.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ModelDecodeError> {
        if data.len() < 16 || &data[0..4] != b"MSDT" {
            if data.len() < 4 || &data[0..4] != b"MSDT" {
                let mut found = [0u8; 4];
                let take = data.len().min(4);
                found[..take].copy_from_slice(&data[..take]);
                return Err(ModelDecodeError::BadMagic { expected: *b"MSDT", found });
            }
            return Err(ModelDecodeError::Truncated { expected: 16, found: data.len(), offset: 0 });
        }
        let word = |o: usize| u32::from_le_bytes(data[o..o + 4].try_into().expect("sliced"));
        let (count, n_features, n_classes) =
            (word(4) as usize, word(8) as usize, word(12) as usize);
        if n_features > u16::MAX as usize {
            return Err(ModelDecodeError::Shape {
                what: "feature arity",
                expected: u16::MAX as usize,
                found: n_features,
            });
        }
        if data.len() != 16 + 16 * count {
            return Err(ModelDecodeError::Truncated {
                expected: 16 + 16 * count,
                found: data.len(),
                offset: 16,
            });
        }
        let mut nodes = Vec::with_capacity(count);
        for i in 0..count {
            let o = 16 + 16 * i;
            let id = u16::from_le_bytes(data[o..o + 2].try_into().expect("sliced"));
            let value = f32::from_le_bytes(data[o + 4..o + 8].try_into().expect("sliced"));
            nodes.push(match data[o + 2] {
                0 => NodeRecord::split(id, value as f64, word(o + 8), word(o + 12)),
                1 => NodeRecord::class_leaf(id, value),
                tag => return Err(ModelDecodeError::UnknownTag { tag, node: i, offset: o }),
            });
        }
        let tree = DecisionTree::from_parts(nodes, n_features, n_classes, vec![0.0; n_features]);
        tree.validate()?;
        Ok(tree)
    }

    /// Size in bytes of the compact serialization.
    pub fn serialized_size(&self) -> usize {
        16 + 16 * self.node_count()
    }

    /// Reduced-error pruning: repeatedly collapses any split whose
    /// removal does not reduce accuracy on `(x_val, y_val)`, until no
    /// collapse helps. This is the post-pruning pass behind the paper's
    /// "pruned … lightweight and efficient decision tree" (§3.1);
    /// returns the number of splits removed.
    ///
    /// # Panics
    ///
    /// Panics if the validation set is empty or mismatched.
    pub fn prune_with_validation(&mut self, x_val: &[Vec<f64>], y_val: &[usize]) -> usize {
        assert!(!x_val.is_empty(), "pruning needs a non-empty validation set");
        self.prune_with_validation_matrix(&FeatureMatrix::from_rows(x_val), y_val)
    }

    /// [`DecisionTree::prune_with_validation`] over columnar validation
    /// features: each candidate prune is scored with **one** columnar
    /// batch predict instead of a `predict` call per validation row, and
    /// the baseline hit count is carried incrementally instead of being
    /// recomputed before every candidate.
    ///
    /// # Panics
    ///
    /// Panics if the validation set is mismatched.
    pub fn prune_with_validation_matrix(&mut self, m: &FeatureMatrix, y_val: &[usize]) -> usize {
        assert!(m.n_rows() > 0, "pruning needs a non-empty validation set");
        assert_eq!(m.n_rows(), y_val.len(), "validation features/labels mismatch");

        let hits = |tree: &DecisionTree| -> usize {
            tree.predict_batch_matrix(m).iter().zip(y_val).filter(|(p, y)| p == y).count()
        };
        let mut baseline = hits(self);
        let mut removed = 0usize;
        loop {
            let mut changed = false;
            // Every collapsible split (both children leaves) is a
            // candidate; collapse those that don't hurt validation.
            let nodes = &self.arena.nodes;
            let candidates: Vec<(usize, NodeRecord)> = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| !n.is_leaf())
                .filter_map(|(i, n)| {
                    let (l, r) = (nodes[n.children[0] as usize], nodes[n.children[1] as usize]);
                    // Majority of the purer child stands in for the
                    // merged leaf (purity rides in the threshold slot).
                    (l.is_leaf() && r.is_leaf())
                        .then_some((i, if l.threshold >= r.threshold { l } else { r }))
                })
                .collect();
            for (i, leaf) in candidates {
                let saved = std::mem::replace(&mut self.arena.nodes[i], leaf);
                let pruned_hits = hits(self);
                if pruned_hits >= baseline {
                    baseline = pruned_hits;
                    removed += 1;
                    changed = true;
                } else {
                    self.arena.nodes[i] = saved;
                }
            }
            if !changed {
                break;
            }
        }
        if removed > 0 {
            self.compact();
        }
        removed
    }

    /// Non-consuming twin of [`DecisionTree::prune_with_validation_matrix`]
    /// for incremental refresh loops (the online learner): returns a
    /// pruned copy plus the number of splits removed, leaving `self` —
    /// typically the currently *serving* tree — untouched. When nothing
    /// prunes, the copy is structurally identical to the original, so
    /// callers can skip publishing it.
    ///
    /// # Panics
    ///
    /// Panics if the validation set is empty or mismatched.
    pub fn refreshed_with_validation_matrix(
        &self,
        m: &FeatureMatrix,
        y_val: &[usize],
    ) -> (DecisionTree, usize) {
        let mut refreshed = self.clone();
        let removed = refreshed.prune_with_validation_matrix(m, y_val);
        (refreshed, removed)
    }

    /// Drops unreachable nodes (after pruning) and renumbers links.
    /// Keeping survivors in their original order preserves pre-order,
    /// so links still point forward.
    fn compact(&mut self) {
        let nodes = &self.arena.nodes;
        let mut keep = vec![false; nodes.len()];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if keep[i] {
                continue;
            }
            keep[i] = true;
            if !nodes[i].is_leaf() {
                stack.extend(nodes[i].children.map(|c| c as usize));
            }
        }
        let mut remap = vec![u32::MAX; nodes.len()];
        let mut out = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
        for (i, n) in nodes.iter().enumerate() {
            if keep[i] {
                remap[i] = out.len() as u32;
                out.push(*n);
            }
        }
        for n in out.iter_mut().filter(|n| !n.is_leaf()) {
            n.children = n.children.map(|c| remap[c as usize]);
        }
        self.arena.nodes = out;
    }
}

/// Sort-once induction state. `order` is a `(n_features + 1) × n`
/// feature-major index buffer: row `f < n_features` keeps the node's
/// samples sorted by feature `f`; the final row keeps them in ascending
/// sample order (node membership). Growing a node partitions every row
/// stably in place, so children never re-sort.
struct Builder<'a> {
    m: &'a FeatureMatrix,
    y: &'a [usize],
    weights: Vec<f64>,
    n_classes: usize,
    params: &'a TreeParams,
    nodes: Vec<NodeRecord>,
    importance_raw: Vec<f64>,
    order: Vec<u32>,
    scratch: Vec<u32>,
    goes_left: Vec<bool>,
    left_counts: Vec<f64>,
}

impl Builder<'_> {
    /// Recursively grows the subtree over buffer span `[lo, hi)`,
    /// returning its node index.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let n = self.m.n_rows();
        let nf = self.m.n_features();

        // Node statistics, accumulated in ascending sample order — the
        // exact order (and therefore the exact floating-point sums) the
        // reference per-node algorithm produces.
        let mut counts = vec![0.0; self.n_classes];
        let mut total_w = 0.0;
        for &i in &self.order[nf * n + lo..nf * n + hi] {
            let w = self.weights[i as usize];
            counts[self.y[i as usize]] += w;
            total_w += w;
        }
        let node_gini = gini(&counts, total_w);
        let majority = argmax(&counts);

        let make_leaf = |nodes: &mut Vec<NodeRecord>| {
            let purity = if total_w > 0.0 { (counts[majority] / total_w) as f32 } else { 1.0 };
            nodes.push(NodeRecord::class_leaf(majority as u16, purity));
            (nodes.len() - 1) as u32
        };

        if depth >= self.params.max_depth
            || hi - lo < self.params.min_samples_split
            || node_gini <= 0.0
        {
            return make_leaf(&mut self.nodes);
        }

        let Some(split) = self.best_split(lo, hi, &counts, total_w, node_gini) else {
            return make_leaf(&mut self.nodes);
        };

        // Materialize the split node first so children indices are known
        // relative to a stable slot.
        let me = self.nodes.len();
        self.nodes.push(NodeRecord::class_leaf(0, 0.0)); // placeholder
        self.importance_raw[split.feature] += split.gain;

        // Stable in-place partition of every buffer row: left block then
        // right block, each still sorted by its row's feature (and the
        // membership row still ascending).
        {
            let col = self.m.col(split.feature);
            for pos in lo..hi {
                let i = self.order[nf * n + pos] as usize;
                self.goes_left[i] = col[i] <= split.threshold;
            }
        }
        let mut n_left = 0usize;
        for row in 0..=nf {
            let base = row * n;
            let mut k = 0usize;
            let mut s = 0usize;
            for pos in lo..hi {
                let v = self.order[base + pos];
                if self.goes_left[v as usize] {
                    // k <= pos - lo, so this write never outruns the read.
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
        self.nodes[me] = NodeRecord::split(split.feature as u16, split.threshold, left, right);
        me as u32
    }

    /// One O(n) scan per feature over the node's pre-sorted index rows.
    /// Candidate order, accumulation order, and the strict-improvement
    /// tie-break match the reference algorithm exactly.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        parent_counts: &[f64],
        total_w: f64,
        parent_gini: f64,
    ) -> Option<SplitChoice> {
        let n = self.m.n_rows();
        let seg_len = hi - lo;
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<SplitChoice> = None;
        for f in 0..self.m.n_features() {
            let col = self.m.col(f);
            let seg = &self.order[f * n + lo..f * n + hi];
            self.left_counts.fill(0.0);
            let mut left_w = 0.0;
            let mut left_n = 0usize;
            for pair in 0..seg_len.saturating_sub(1) {
                let i = seg[pair] as usize;
                let w = self.weights[i];
                self.left_counts[self.y[i]] += w;
                left_w += w;
                left_n += 1;
                let v = col[i];
                let v_next = col[seg[pair + 1] as usize];
                if v == v_next {
                    continue; // can't split between equal values
                }
                let right_n = seg_len - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let right_w = total_w - left_w;
                let g_left = gini(&self.left_counts, left_w);
                let g_right = gini_complement(parent_counts, &self.left_counts, right_w);
                let child = (left_w * g_left + right_w * g_right) / total_w;
                let gain = (parent_gini - child) * total_w;
                if gain > self.params.min_gain && best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(SplitChoice { feature: f, threshold: 0.5 * (v + v_next), gain });
                }
            }
        }
        best
    }
}

#[derive(Debug, Clone, Copy)]
struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain: f64,
}

pub(crate) fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|c| (c / total) * (c / total)).sum::<f64>()
}

/// Gini of `parent - left` without materializing the complement vector;
/// the per-element subtraction and the sum run in the same order as the
/// reference algorithm's `right_counts` allocation, so the result is
/// bit-identical — minus one heap allocation per split candidate.
fn gini_complement(parent: &[f64], left: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for (p, l) in parent.iter().zip(left) {
        let c = p - l;
        acc += (c / total) * (c / total);
    }
    1.0 - acc
}

pub(crate) fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            x.push(vec![a + (i as f64) * 1e-4, b]);
            y.push((a as usize) ^ (b as usize));
        }
        (x, y)
    }

    #[test]
    fn learns_xor_exactly() {
        let (x, y) = xor_data();
        let t = DecisionTree::fit(&x, &y, 2, &TreeParams::default());
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(t.predict(xi), yi);
        }
        assert!(t.depth() >= 2);
    }

    #[test]
    fn fit_matrix_matches_fit() {
        let (x, y) = xor_data();
        let a = DecisionTree::fit(&x, &y, 2, &TreeParams::default());
        let b =
            DecisionTree::fit_matrix(&FeatureMatrix::from_rows(&x), &y, 2, &TreeParams::default());
        assert_eq!(a, b);
        assert_eq!(a.predict_batch(&x), b.predict_batch_matrix(&FeatureMatrix::from_rows(&x)));
    }

    #[test]
    fn pure_node_becomes_leaf_immediately() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let t = DecisionTree::fit(&x, &y, 2, &TreeParams::default());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[999.0]), 1);
        let (_, purity) = t.predict_with_purity(&[0.0]);
        assert_eq!(purity, 1.0);
    }

    #[test]
    fn max_depth_zero_yields_majority_stump() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0, 0, 0, 1];
        let params = TreeParams { max_depth: 0, ..TreeParams::default() };
        let t = DecisionTree::fit(&x, &y, 2, &params);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[3.0]), 0);
    }

    #[test]
    fn class_weights_flip_the_majority() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2], vec![0.3]];
        let y = vec![0, 0, 0, 1];
        let params = TreeParams {
            max_depth: 0,
            class_weights: Some(vec![1.0, 10.0]),
            ..TreeParams::default()
        };
        let t = DecisionTree::fit(&x, &y, 2, &params);
        assert_eq!(t.predict(&[0.0]), 1, "weighted minority should dominate the stump");
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0, 0, 0, 1];
        let params = TreeParams { min_samples_leaf: 2, ..TreeParams::default() };
        let t = DecisionTree::fit(&x, &y, 2, &params);
        // The only useful split isolates one sample; it is forbidden, so
        // either a 2/2 split at 1.5 (still mixed on the right) or a stump.
        for leaf_size_violation in t.predict_batch(&x) {
            let _ = leaf_size_violation; // predictions exist for all rows
        }
        assert!(t.leaf_count() <= 2);
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        // Feature 1 is pure noise; feature 0 separates classes.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            x.push(vec![if i < 50 { 0.0 } else { 1.0 }, (i % 7) as f64]);
            y.push(usize::from(i >= 50));
        }
        let t = DecisionTree::fit(&x, &y, 2, &TreeParams::default());
        let imp = t.feature_importances();
        assert!(imp[0] > 0.99);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn baked_feature_map_predicts_like_projection() {
        // Fit on columns (2, 0) of a 3-wide input, bake, and compare
        // against walking the unbaked tree on projected rows.
        let (x, y) = xor_data();
        let wide: Vec<Vec<f64>> = x.iter().map(|r| vec![r[1], 7.0, r[0]]).collect();
        let map = [2usize, 0];
        let projected: Vec<Vec<f64>> =
            wide.iter().map(|r| map.iter().map(|&f| r[f]).collect()).collect();
        let local = DecisionTree::fit(&projected, &y, 2, &TreeParams::default());
        let baked = local.clone().with_feature_map(&map, 3);
        assert_eq!(baked.n_features(), 3);
        assert_eq!(baked.validate(), Ok(()));
        for (w, p) in wide.iter().zip(&projected) {
            assert_eq!(baked.predict_with_purity(w), local.predict_with_purity(p));
        }
        let imp = baked.feature_importances();
        assert_eq!(
            (imp[2], imp[0], imp[1]),
            (local.feature_importances()[0], local.feature_importances()[1], 0.0)
        );
    }

    #[test]
    fn bytes_roundtrip_preserves_predictions() {
        let (x, y) = xor_data();
        let t = DecisionTree::fit(&x, &y, 2, &TreeParams::default());
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), t.serialized_size());
        let back = DecisionTree::from_bytes(&bytes).unwrap();
        for xi in &x {
            assert_eq!(t.predict(xi), back.predict(xi));
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(matches!(
            DecisionTree::from_bytes(b"nope"),
            Err(ModelDecodeError::BadMagic { .. })
        ));
        assert!(DecisionTree::from_bytes(&[0u8; 40]).is_err());
        let (x, y) = xor_data();
        let mut bytes = DecisionTree::fit(&x, &y, 2, &TreeParams::default()).to_bytes();
        bytes.truncate(bytes.len() - 1);
        match DecisionTree::from_bytes(&bytes) {
            Err(ModelDecodeError::Truncated { found, offset, .. }) => {
                assert_eq!(found, bytes.len());
                assert_eq!(offset, 16);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn decode_errors_pinpoint_corruption() {
        let (x, y) = xor_data();
        let t = DecisionTree::fit(&x, &y, 2, &TreeParams::default());
        let good = t.to_bytes();

        // Corrupt the tag byte of node 1.
        let mut bad_tag = good.clone();
        bad_tag[16 + 16 + 2] = 9;
        match DecisionTree::from_bytes(&bad_tag) {
            Err(ModelDecodeError::UnknownTag { tag: 9, node: 1, offset }) => {
                assert_eq!(offset, 32);
            }
            other => panic!("expected UnknownTag, got {other:?}"),
        }

        // Point node 0's left child out of range.
        let mut bad_link = good.clone();
        bad_link[16 + 8..16 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        match DecisionTree::from_bytes(&bad_link) {
            Err(ModelDecodeError::LinkOutOfRange { node: 0, link, .. }) => {
                assert_eq!(link, u32::MAX);
            }
            other => panic!("expected LinkOutOfRange, got {other:?}"),
        }

        // Point node 0's right child back at itself: a cycle the walk
        // would never leave.
        let mut self_loop = good.clone();
        self_loop[16 + 12..16 + 16].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            DecisionTree::from_bytes(&self_loop),
            Err(ModelDecodeError::LinkOutOfRange { node: 0, link: 0, .. })
        ));

        // Split on a feature the header does not declare.
        let mut bad_feature = good.clone();
        bad_feature[16..18].copy_from_slice(&7u16.to_le_bytes());
        assert!(matches!(
            DecisionTree::from_bytes(&bad_feature),
            Err(ModelDecodeError::FeatureOutOfRange { node: 0, feature: 7, n_features: 2 })
        ));

        // A leaf predicting a class the header does not declare.
        let leaf = (0..t.node_count()).find(|&i| good[16 + 16 * i + 2] == 1).unwrap();
        let mut bad_class = good.clone();
        bad_class[16 + 16 * leaf..16 + 16 * leaf + 2].copy_from_slice(&5u16.to_le_bytes());
        match DecisionTree::from_bytes(&bad_class) {
            Err(ModelDecodeError::ClassOutOfRange { node, class: 5, n_classes: 2 }) => {
                assert_eq!(node, leaf);
            }
            other => panic!("expected ClassOutOfRange, got {other:?}"),
        }

        // An empty node array and an absurd arity.
        let mut empty = good[..16].to_vec();
        empty[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(DecisionTree::from_bytes(&empty), Err(ModelDecodeError::Empty)));
        let mut wide = good.clone();
        wide[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(DecisionTree::from_bytes(&wide), Err(ModelDecodeError::Shape { .. })));

        // Legacy callers still get a String via From.
        let msg: String = DecisionTree::from_bytes(b"junk!").unwrap_err().into();
        assert!(msg.contains("MSDT"), "{msg}");
    }

    #[test]
    fn compact_model_is_kilobytes_not_megabytes() {
        // A realistically sized tree stays in the single-digit-KB range
        // the paper reports (6 KB).
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..2000 {
            let f = (i % 97) as f64;
            x.push(vec![f, (i % 13) as f64, (i % 29) as f64]);
            y.push(usize::from(f > 48.0) + usize::from(i % 13 > 6));
        }
        let params = TreeParams { max_depth: 8, min_samples_leaf: 5, ..TreeParams::default() };
        let t = DecisionTree::fit(&x, &y, 3, &params);
        assert!(t.serialized_size() < 10 * 1024, "model is {} bytes", t.serialized_size());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        DecisionTree::fit(&[], &[], 2, &TreeParams::default());
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn predict_checks_arity() {
        let t = DecisionTree::fit(&[vec![1.0, 2.0]], &[0], 1, &TreeParams::default());
        t.predict(&[1.0]);
    }

    #[test]
    fn pruning_shrinks_an_overfit_tree_without_losing_validation_accuracy() {
        // Noisy labels: a deep tree memorizes noise; reduced-error
        // pruning against a clean validation set must shrink it.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let f = (i % 100) as f64;
            x.push(vec![f, (i * 7 % 13) as f64]);
            // True rule: f > 50, with deterministic pseudo-noise.
            let noisy = (i * 31) % 10 == 0;
            y.push(usize::from(f > 50.0) ^ usize::from(noisy));
        }
        let xv: Vec<Vec<f64>> = (0..80).map(|i| vec![(i % 100) as f64, 0.0]).collect();
        let yv: Vec<usize> = xv.iter().map(|r| usize::from(r[0] > 50.0)).collect();

        let mut tree = DecisionTree::fit(
            &x,
            &y,
            2,
            &TreeParams { max_depth: 20, min_gain: 0.0, ..TreeParams::default() },
        );
        let before_nodes = tree.node_count();
        let before_acc = xv.iter().zip(&yv).filter(|(xi, &yi)| tree.predict(xi) == yi).count();
        let removed = tree.prune_with_validation(&xv, &yv);
        let after_acc = xv.iter().zip(&yv).filter(|(xi, &yi)| tree.predict(xi) == yi).count();
        assert!(removed > 0, "overfit tree should have prunable splits");
        assert!(tree.node_count() < before_nodes);
        assert!(after_acc >= before_acc, "pruning must not lose validation accuracy");
        // Compaction keeps the serialization consistent.
        let back = DecisionTree::from_bytes(&tree.to_bytes()).unwrap();
        for xi in &xv {
            assert_eq!(tree.predict(xi), back.predict(xi));
        }
    }

    #[test]
    fn refreshed_prune_leaves_the_serving_tree_untouched() {
        // Same overfit setup as above, but through the non-consuming
        // refresh entry the online learner uses: the original (serving)
        // tree must not change, and the refreshed copy must agree with
        // an in-place prune node for node.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let f = (i % 100) as f64;
            x.push(vec![f, (i * 7 % 13) as f64]);
            let noisy = (i * 31) % 10 == 0;
            y.push(usize::from(f > 50.0) ^ usize::from(noisy));
        }
        let xv: Vec<Vec<f64>> = (0..80).map(|i| vec![(i % 100) as f64, 0.0]).collect();
        let yv: Vec<usize> = xv.iter().map(|r| usize::from(r[0] > 50.0)).collect();
        let tree = DecisionTree::fit(
            &x,
            &y,
            2,
            &TreeParams { max_depth: 20, min_gain: 0.0, ..TreeParams::default() },
        );
        let serving = tree.clone();
        let m = FeatureMatrix::from_rows(&xv);
        let (refreshed, removed) = tree.refreshed_with_validation_matrix(&m, &yv);
        assert!(removed > 0);
        assert_eq!(tree, serving, "refresh must not mutate the serving tree");
        let mut in_place = tree.clone();
        assert_eq!(in_place.prune_with_validation_matrix(&m, &yv), removed);
        assert_eq!(in_place, refreshed, "refresh is the same prune, off to the side");
    }

    #[test]
    fn pruning_a_stump_is_a_no_op() {
        let x = vec![vec![1.0], vec![2.0]];
        let y = vec![0, 0];
        let mut tree = DecisionTree::fit(&x, &y, 2, &TreeParams::default());
        assert_eq!(tree.prune_with_validation(&x, &y), 0);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty validation set")]
    fn pruning_requires_validation_data() {
        let mut tree = DecisionTree::fit(&[vec![1.0]], &[0], 1, &TreeParams::default());
        tree.prune_with_validation(&[], &[]);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = vec![vec![5.0]; 10];
        let y = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        let t = DecisionTree::fit(&x, &y, 2, &TreeParams::default());
        assert_eq!(t.node_count(), 1, "no split possible between equal values");
    }
}
