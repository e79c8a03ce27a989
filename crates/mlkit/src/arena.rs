//! The one tree layout every model in this crate fits into and walks.
//!
//! A fitted tree is an [`Arena`]: a vector of [`NodeRecord`]s in the
//! pre-order the sort-once builders emit (a split, then its whole left
//! subtree, then its right subtree), plus the feature arity its splits
//! index into. Each record holds the threshold, both children and the
//! split feature, so a visited node costs one cache line and the descent
//! is a branch-light `i = children[x[f] > t]` loop — the Rust analogue of
//! the paper's "unrolled decision logic" (§5.5).
//!
//! Classifier trees, regression trees, both forests (whose per-tree
//! feature maps are baked into the split indices at fit time), the
//! selector, the latency predictor and the surrogate all share the two
//! walks here: [`Arena::leaf`] (one row) and [`Arena::walk_batch`] (a
//! whole [`FeatureMatrix`], frontier by frontier). A third,
//! [`lockstep_leaves`] (one row down many trees at once), serves the
//! regression forest behind the surrogate gate.

use crate::error::ModelDecodeError;
use crate::matrix::FeatureMatrix;
use serde::{DeError, Deserialize, Reader, Serialize, Writer};

/// `feature` value marking a leaf. [`Arena::validate`] rejects any split
/// feature at or above the arity, and arities stay below `u16::MAX`, so
/// the sentinel never collides with a real feature.
const LEAF: u16 = u16::MAX;

/// One tree node.
///
/// - Split: descend to `children[0]` when `x[feature] <= threshold`,
///   else to `children[1]` (so NaN goes right).
/// - Classifier leaf: `feature` is the leaf sentinel, `children[0]` the
///   class, `threshold` the purity (an `f32` widened exactly).
/// - Regression leaf: `feature` is the leaf sentinel, `threshold` the
///   predicted value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NodeRecord {
    pub(crate) threshold: f64,
    pub(crate) children: [u32; 2],
    pub(crate) feature: u16,
}

impl NodeRecord {
    pub(crate) fn split(feature: u16, threshold: f64, left: u32, right: u32) -> Self {
        NodeRecord { threshold, children: [left, right], feature }
    }

    pub(crate) fn class_leaf(class: u16, purity: f32) -> Self {
        NodeRecord { threshold: purity as f64, children: [class as u32, 0], feature: LEAF }
    }

    pub(crate) fn value_leaf(value: f64) -> Self {
        NodeRecord { threshold: value, children: [0, 0], feature: LEAF }
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.feature == LEAF
    }

    /// Class of a classifier leaf.
    pub(crate) fn class(&self) -> usize {
        self.children[0] as usize
    }
}

/// A record serializes as the bare array `[threshold, left, right,
/// feature]`: surrogate bundles hold ~10⁵ nodes, and per-node field names
/// would more than double their compact JSON.
impl Serialize for NodeRecord {
    fn write(&self, w: &mut Writer) {
        let [left, right] = self.children;
        w.begin_seq();
        w.elem();
        w.f64(self.threshold);
        for v in [left, right, self.feature.into()] {
            w.elem();
            w.u64(v.into());
        }
        w.end_seq();
    }
}

impl Deserialize for NodeRecord {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        // Each of the four fields must be present, and nothing after.
        fn field<T: Deserialize>(r: &mut Reader<'_>) -> Result<T, DeError> {
            if r.next_elem()? {
                T::deserialize(r)
            } else {
                Err(r.error("expected [threshold, left, right, feature] for NodeRecord"))
            }
        }
        r.begin_seq()?;
        let threshold = field(r)?;
        let children = [field(r)?, field(r)?];
        let feature = field(r)?;
        if r.next_elem()? {
            return Err(r.error("expected [threshold, left, right, feature] for NodeRecord"));
        }
        Ok(NodeRecord { threshold, children, feature })
    }
}

/// The stable segment partition the frontier walk runs at every split
/// ([`crate::simd::partition_segment`] or its scalar twin). A trait, not
/// a function pointer, so each walk is monomorphized around its
/// partition and can inline it.
pub(crate) trait Partition:
    Fn(&[f64], f64, &mut [u32], &mut [u32], usize, usize) -> usize + Copy
{
}

impl<F: Fn(&[f64], f64, &mut [u32], &mut [u32], usize, usize) -> usize + Copy> Partition for F {}

/// Trees [`lockstep_leaves`] descends together: the surrogate's
/// forests have 16, so one block holds a whole forest.
const LOCKSTEP: usize = 16;

/// The lock-step walk: the leaf `x` lands on in each tree of `trees`,
/// passed to `emit` in tree order. [`Arena::leaf`] waits on one node
/// load per level and walks one tree after another; here every tree of
/// a block of [`LOCKSTEP`] descends one level per sweep, so the loads of
/// different trees are independent and overlap. A tree that reaches
/// its leaf stays there, and sweeps stop once no tree moves. Each
/// split goes right on `!(x <= t)`, NaN included, exactly like
/// [`Arena::leaf`], so every tree lands on the same leaf either way.
///
/// # Panics
///
/// Panics if some tree's arity differs from `x.len()`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub(crate) fn lockstep_leaves<'a, T>(
    trees: &'a [T],
    arena: impl Fn(&'a T) -> &'a Arena,
    x: &[f64],
    mut emit: impl FnMut(&'a NodeRecord),
) {
    for block in trees.chunks(LOCKSTEP) {
        let mut at = [0u32; LOCKSTEP];
        let at = &mut at[..block.len()];
        for t in block {
            assert_eq!(x.len(), arena(t).n_features, "feature vector has wrong arity");
        }
        loop {
            let mut moved = false;
            for (i, t) in at.iter_mut().zip(block) {
                let n = &arena(t).nodes[*i as usize];
                if !n.is_leaf() {
                    let right = !(x[n.feature as usize] <= n.threshold);
                    *i = n.children[usize::from(right)];
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        for (&i, t) in at.iter().zip(block) {
            emit(&arena(t).nodes[i as usize]);
        }
    }
}

/// A fitted tree: pre-order node records over `n_features` inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<NodeRecord>,
    pub(crate) n_features: usize,
}

impl Arena {
    /// The per-row walk: the leaf `x` lands on.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_features`.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn leaf(&self, x: &[f64]) -> &NodeRecord {
        assert_eq!(x.len(), self.n_features, "feature vector has wrong arity");
        let mut n = &self.nodes[0];
        while !n.is_leaf() {
            // `!(x <= t)` (not `x > t`) so NaN descends right, exactly
            // like the seed walk's `if x <= t { left } else { right }`.
            let right = !(x[n.feature as usize] <= n.threshold);
            n = &self.nodes[n.children[usize::from(right)] as usize];
        }
        n
    }

    /// The frontier walk: instead of descending row by row (one
    /// scattered column read per node visit), all rows of `m` descend
    /// together. A stack of `(node, lo, hi)` segments over one shared
    /// row-index buffer is processed node by node; at each split the
    /// segment is stably partitioned in place by `partition` — one
    /// sequential pass over one feature column against one threshold.
    /// The stable partition keeps each segment's rows ascending, so
    /// column reads stay prefetch-friendly at every depth. `emit(leaf,
    /// rows)` is called once per reached leaf with the rows that landed
    /// on it. The partition's `!(x <= t)` test sends NaN right, exactly
    /// like [`Arena::leaf`].
    ///
    /// # Panics
    ///
    /// Panics if `m.n_features() != n_features`.
    pub(crate) fn walk_batch(
        &self,
        m: &FeatureMatrix,
        partition: impl Partition,
        mut emit: impl FnMut(&NodeRecord, &[u32]),
    ) {
        assert_eq!(m.n_features(), self.n_features, "feature matrix has wrong arity");
        let n = m.n_rows();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut scratch: Vec<u32> = vec![0; n];
        let mut stack: Vec<(u32, u32, u32)> = vec![(0, 0, n as u32)];
        while let Some((node, lo, hi)) = stack.pop() {
            let (rec, lo, hi) = (&self.nodes[node as usize], lo as usize, hi as usize);
            if rec.is_leaf() {
                emit(rec, &idx[lo..hi]);
                continue;
            }
            let col = m.col(rec.feature as usize);
            let nl = partition(col, rec.threshold, &mut idx, &mut scratch, lo, hi);
            idx[nl..hi].copy_from_slice(&scratch[..hi - nl]);
            if hi > nl {
                stack.push((rec.children[1], nl as u32, hi as u32));
            }
            if nl > lo {
                stack.push((rec.children[0], lo as u32, nl as u32));
            }
        }
    }

    /// Checks that both walks terminate in bounds: the arena is
    /// non-empty, every child index is greater than its parent's and
    /// less than the node count (so every path is finite), every split
    /// feature is `< n_features`, and — for classifiers — every leaf
    /// class is `< n_classes`. The builders' pre-order emission (kept by
    /// pruning's compaction) always passes; decoders call this on every
    /// untrusted tree.
    ///
    /// # Errors
    ///
    /// The first violation, by node index.
    pub(crate) fn validate(&self, n_classes: Option<usize>) -> Result<(), ModelDecodeError> {
        let count = self.nodes.len();
        if count == 0 {
            return Err(ModelDecodeError::Empty);
        }
        for (node, n) in self.nodes.iter().enumerate() {
            if n.is_leaf() {
                match n_classes {
                    Some(n_classes) if n.class() >= n_classes => {
                        return Err(ModelDecodeError::ClassOutOfRange {
                            node,
                            class: n.children[0],
                            n_classes,
                        });
                    }
                    _ => continue,
                }
            }
            if n.feature as usize >= self.n_features {
                return Err(ModelDecodeError::FeatureOutOfRange {
                    node,
                    feature: n.feature,
                    n_features: self.n_features,
                });
            }
            if let Some(&link) =
                n.children.iter().find(|&&c| c as usize <= node || c as usize >= count)
            {
                return Err(ModelDecodeError::LinkOutOfRange { node, link, count });
            }
        }
        Ok(())
    }

    /// Re-indexes the splits of a tree fitted on a projected matrix
    /// (local feature `j` = input feature `map[j]`) onto the full
    /// `n_features`-wide input, so predict paths never project.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not cover the fitted arity, an entry is out
    /// of range, or `n_features` does not fit the node format.
    pub(crate) fn bake(&mut self, map: &[usize], n_features: usize) {
        assert_eq!(map.len(), self.n_features, "feature map has wrong arity");
        assert!(n_features < LEAF as usize, "too many features for the node format");
        assert!(map.iter().all(|&f| f < n_features), "feature map entry out of range");
        for n in self.nodes.iter_mut().filter(|n| !n.is_leaf()) {
            n.feature = map[n.feature as usize] as u16;
        }
        self.n_features = n_features;
    }
}
