//! Columnar (structure-of-arrays) feature storage.
//!
//! Tree induction scans one feature at a time across every sample, so
//! the natural layout is one contiguous `f64` run per feature — the
//! opposite of the row-major `Vec<Vec<f64>>` the extraction pipeline
//! produces. [`FeatureMatrix`] is built once per training set and
//! shared by the classifier, the regression tree, the forest, the
//! cross-validation driver, and `misam-core`'s training entry points;
//! every split-search pass then reads sequential memory instead of
//! pointer-chasing a row per sample.

/// A dense feature matrix stored feature-major: column `f` occupies the
/// contiguous slice `data[f * n_rows .. (f + 1) * n_rows]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    n_rows: usize,
    n_features: usize,
}

impl FeatureMatrix {
    /// Builds a matrix from row-major feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "feature matrix needs at least one row");
        let n_features = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == n_features),
            "feature rows have inconsistent lengths"
        );
        let n_rows = rows.len();
        let mut data = vec![0.0; n_rows * n_features];
        // Blocked transpose: a block of rows stays cache-resident while
        // every one of its columns is written, so neither the row reads
        // nor the strided column writes thrash.
        const BLOCK: usize = 128;
        let mut base = 0;
        for block in rows.chunks(BLOCK) {
            for f in 0..n_features {
                let col = &mut data[f * n_rows + base..f * n_rows + base + block.len()];
                for (dst, row) in col.iter_mut().zip(block) {
                    *dst = row[f];
                }
            }
            base += block.len();
        }
        FeatureMatrix { data, n_rows, n_features }
    }

    /// Builds a matrix from already-columnar data (each inner vector is
    /// one feature across all rows).
    ///
    /// # Panics
    ///
    /// Panics if `cols` is empty, any column is empty, or the columns
    /// have inconsistent lengths.
    pub fn from_columns(cols: Vec<Vec<f64>>) -> Self {
        assert!(!cols.is_empty(), "feature matrix needs at least one column");
        let n_rows = cols[0].len();
        assert!(n_rows > 0, "feature matrix needs at least one row");
        assert!(cols.iter().all(|c| c.len() == n_rows), "columns have inconsistent lengths");
        let n_features = cols.len();
        let mut data = Vec::with_capacity(n_rows * n_features);
        for c in cols {
            data.extend_from_slice(&c);
        }
        FeatureMatrix { data, n_rows, n_features }
    }

    /// Number of rows (samples).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features (columns).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The contiguous values of feature `f` across all rows.
    ///
    /// # Panics
    ///
    /// Panics if `f >= n_features`.
    pub fn col(&self, f: usize) -> &[f64] {
        &self.data[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// The value of feature `f` for row `r`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, r: usize, f: usize) -> f64 {
        assert!(r < self.n_rows, "row out of range");
        self.data[f * self.n_rows + r]
    }

    /// Copies row `r` into `buf` (resized to `n_features`).
    pub fn row_into(&self, r: usize, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend((0..self.n_features).map(|f| self.data[f * self.n_rows + r]));
    }

    /// Row `r` as an owned vector.
    pub fn row(&self, r: usize) -> Vec<f64> {
        let mut buf = Vec::with_capacity(self.n_features);
        self.row_into(r, &mut buf);
        buf
    }

    /// Gathers the rows named by `idx` (in order, duplicates allowed)
    /// into a new matrix — the columnar analogue of [`crate::cv::gather`],
    /// one sequential pass per feature.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty or any index is out of range.
    pub fn gather(&self, idx: &[usize]) -> FeatureMatrix {
        self.gather_project(idx, None)
    }

    /// Gathers rows `idx` restricted to the feature subset `map` (when
    /// present): output feature `j` is input feature `map[j]`. This is
    /// the bootstrap + feature-subsample step of forest induction done
    /// column-at-a-time.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty or any row/feature index is out of range.
    pub fn gather_project(&self, idx: &[usize], map: Option<&[usize]>) -> FeatureMatrix {
        assert!(!idx.is_empty(), "cannot gather zero rows");
        assert!(idx.iter().all(|&r| r < self.n_rows), "row index out of range");
        let feats: Vec<usize> = match map {
            Some(m) => {
                assert!(m.iter().all(|&f| f < self.n_features), "feature index out of range");
                m.to_vec()
            }
            None => (0..self.n_features).collect(),
        };
        let n_rows = idx.len();
        let mut data = Vec::with_capacity(n_rows * feats.len());
        for &f in &feats {
            let col = self.col(f);
            data.extend(idx.iter().map(|&r| col[r]));
        }
        FeatureMatrix { data, n_rows, n_features: feats.len() }
    }

    /// Restricts the matrix to the feature subset `map` (all rows kept):
    /// output feature `j` is input feature `map[j]`. One contiguous copy
    /// per selected column — the columnar analogue of projecting each
    /// row vector before inference.
    ///
    /// # Panics
    ///
    /// Panics if any feature index is out of range.
    pub fn project(&self, map: &[usize]) -> FeatureMatrix {
        assert!(map.iter().all(|&f| f < self.n_features), "feature index out of range");
        let mut data = Vec::with_capacity(self.n_rows * map.len());
        for &f in map {
            data.extend_from_slice(self.col(f));
        }
        FeatureMatrix { data, n_rows: self.n_rows, n_features: map.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<f64>> {
        vec![vec![1.0, 10.0, 100.0], vec![2.0, 20.0, 200.0], vec![3.0, 30.0, 300.0]]
    }

    #[test]
    fn from_rows_transposes() {
        let m = FeatureMatrix::from_rows(&rows());
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_features(), 3);
        assert_eq!(m.col(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(2), &[100.0, 200.0, 300.0]);
        assert_eq!(m.value(1, 1), 20.0);
        assert_eq!(m.row(2), vec![3.0, 30.0, 300.0]);
    }

    #[test]
    fn from_columns_matches_from_rows() {
        let a = FeatureMatrix::from_rows(&rows());
        let b = FeatureMatrix::from_columns(vec![
            vec![1.0, 2.0, 3.0],
            vec![10.0, 20.0, 30.0],
            vec![100.0, 200.0, 300.0],
        ]);
        assert_eq!(a, b);
    }

    #[test]
    fn gather_reorders_and_duplicates() {
        let m = FeatureMatrix::from_rows(&rows());
        let g = m.gather(&[2, 0, 2]);
        assert_eq!(g.n_rows(), 3);
        assert_eq!(g.col(0), &[3.0, 1.0, 3.0]);
        assert_eq!(g.row(1), vec![1.0, 10.0, 100.0]);
    }

    #[test]
    fn gather_project_restricts_features() {
        let m = FeatureMatrix::from_rows(&rows());
        let g = m.gather_project(&[1, 0], Some(&[2, 0]));
        assert_eq!(g.n_features(), 2);
        assert_eq!(g.col(0), &[200.0, 100.0]);
        assert_eq!(g.col(1), &[2.0, 1.0]);
    }

    #[test]
    fn project_keeps_all_rows() {
        let m = FeatureMatrix::from_rows(&rows());
        let p = m.project(&[2, 0]);
        assert_eq!(p.n_rows(), 3);
        assert_eq!(p.n_features(), 2);
        assert_eq!(p.col(0), &[100.0, 200.0, 300.0]);
        assert_eq!(p.col(1), &[1.0, 2.0, 3.0]);
        assert_eq!(p.row(1), vec![200.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent lengths")]
    fn ragged_rows_rejected() {
        FeatureMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_rejected() {
        FeatureMatrix::from_rows(&[]);
    }
}
