//! Matrix feature extraction for Misam's ML-based dataflow predictor
//! (paper §3.1).
//!
//! The decision tree is only as good as the features describing the
//! operands, so this crate computes the paper's full candidate set: the
//! sparsity of A and B, the mean and variance of nonzeros per row and
//! column of both operands, tile density and tile counts under 1-D and
//! architecture-aware 2-D tiling of B, and the load-imbalance ratio
//! (longest row or column over the average length). Everything is derived
//! from CSR/CSC pointer offsets alone — no value inspection — exactly as
//! the paper describes, which keeps preprocessing around 2% of end-to-end
//! time (§5.5).
//!
//! # Example
//!
//! ```
//! use misam_features::{PairFeatures, TileConfig};
//! use misam_sparse::gen;
//!
//! let a = gen::power_law(256, 256, 6.0, 1.5, 1);
//! let b = gen::pruned_dnn(256, 512, 0.2, 2);
//! let f = PairFeatures::extract(&a, &b, &TileConfig::default());
//! assert!(f.a.load_imbalance_row >= 1.0);
//! assert_eq!(f.to_vector().len(), misam_features::FEATURE_NAMES.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use misam_sparse::{CsrMatrix, CsrRef, LazyMatrix, MatrixProfile, Structure};

/// Names of the entries of [`PairFeatures::to_vector`], in order. These
/// match the labels of the paper's Figure 4 where applicable.
pub const FEATURE_NAMES: &[&str] = &[
    "A_sparsity",
    "B_sparsity",
    "A_rows",
    "A_cols",
    "row_B",
    "B_cols",
    "A_nonzeroes",
    "B_nonzeroes",
    "A_avg_nnz_row",
    "A_var_nnz_row",
    "A_avg_nnz_col",
    "A_var_nnz_col",
    "B_avg_nnz_row",
    "B_var_nnz_row",
    "B_avg_nnz_col",
    "B_var_nnz_col",
    "A_load_imbalance_row",
    "A_load_imbalance_col",
    "B_load_imbalance_row",
    "B_load_imbalance_col",
    "Tile_1D_Density",
    "Tile_2D_Density",
    "Tile_1D_Count",
    "Tile_2D_Count",
];

/// Index of a named feature in the extracted vector.
///
/// # Panics
///
/// Panics if `name` is not in [`FEATURE_NAMES`].
pub fn feature_index(name: &str) -> usize {
    FEATURE_NAMES
        .iter()
        .position(|&n| n == name)
        .unwrap_or_else(|| panic!("unknown feature name '{name}'"))
}

/// Tiling geometry the 1-D / 2-D tile-density features are computed
/// under. Defaults mirror Design 1's buffer provisioning: B row tiles
/// bounded by the 4096-entry BRAM depth and column tiles bounded by the
/// PEG count (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Rows of B per 1-D tile.
    pub tile_rows: usize,
    /// Columns of B per tile in the 2-D scheme.
    pub tile_cols: usize,
}

impl Default for TileConfig {
    fn default() -> Self {
        // 4096 BRAM entries / 16 FP32 per word = 256 rows per tile;
        // 16 PEGs x 4 PEs = 64 column lanes.
        TileConfig { tile_rows: 256, tile_cols: 64 }
    }
}

/// Per-matrix structural statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MatrixStats {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// `1 - nnz / (rows * cols)`.
    pub sparsity: f64,
    /// Mean nonzeros per row.
    pub avg_nnz_row: f64,
    /// Population variance of nonzeros per row.
    pub var_nnz_row: f64,
    /// Mean nonzeros per column.
    pub avg_nnz_col: f64,
    /// Population variance of nonzeros per column.
    pub var_nnz_col: f64,
    /// Longest row over average row length (≥ 1 when any nonzero exists).
    pub load_imbalance_row: f64,
    /// Longest column over average column length.
    pub load_imbalance_col: f64,
}

impl MatrixStats {
    /// Computes the statistics of one matrix from its CSR structure
    /// (one structural pass, via a throwaway [`MatrixProfile`]).
    pub fn extract(m: &CsrMatrix) -> Self {
        Self::extract_ref(m.as_ref())
    }

    /// View-based form of [`MatrixStats::extract`]: the same structural
    /// pass over any storage producing a [`CsrRef`] (owned or
    /// mmap-backed), bit-identical across producers.
    pub fn extract_ref(m: CsrRef<'_>) -> Self {
        Self::from_profile(&MatrixProfile::build_ref(m))
    }

    /// Reads the statistics off a precomputed profile — no CSR
    /// traversal, and bit-identical to [`MatrixStats::extract`] on the
    /// profiled matrix. This is how the oracle layer shares one
    /// structural pass between feature extraction and simulation.
    pub fn from_profile(p: &MatrixProfile) -> Self {
        let rows = p.rows();
        let cols = p.cols();
        let nnz = p.nnz();
        let total = rows as f64 * cols as f64;
        let sparsity = if total > 0.0 { 1.0 - nnz as f64 / total } else { 1.0 };
        let rs = p.row_summary();
        let cs = p.col_summary();
        MatrixStats {
            rows,
            cols,
            nnz,
            sparsity,
            avg_nnz_row: rs.mean,
            var_nnz_row: rs.var,
            avg_nnz_col: cs.mean,
            var_nnz_col: cs.var,
            load_imbalance_row: rs.imbalance(),
            load_imbalance_col: cs.imbalance(),
        }
    }

    /// Matrix density (`1 - sparsity`).
    pub fn density(&self) -> f64 {
        1.0 - self.sparsity
    }

    /// Statistics of a fully dense `rows x cols` matrix, synthesized
    /// without materializing it (dense operands are shape-only in the
    /// execution model).
    pub fn dense(rows: usize, cols: usize) -> Self {
        MatrixStats {
            rows,
            cols,
            nnz: rows * cols,
            sparsity: 0.0,
            avg_nnz_row: cols as f64,
            var_nnz_row: 0.0,
            avg_nnz_col: rows as f64,
            var_nnz_col: 0.0,
            load_imbalance_row: 1.0,
            load_imbalance_col: 1.0,
        }
    }
}

/// Tile-occupancy statistics of matrix B under a [`TileConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TileStats {
    /// Mean density of *occupied* 1-D (row-strip) tiles.
    pub density_1d: f64,
    /// Mean density of occupied 2-D tiles.
    pub density_2d: f64,
    /// Total number of 1-D tiles the matrix partitions into.
    pub count_1d: usize,
    /// Total number of 2-D tiles the matrix partitions into.
    pub count_2d: usize,
}

impl TileStats {
    /// Computes tile occupancy of `m` under `cfg`.
    ///
    /// Density is averaged over occupied tiles only, so clustered
    /// structure reads as high tile density even when overall density is
    /// low — the property that makes `Tile_1D_Density` the most important
    /// feature in the paper's Figure 4.
    pub fn extract(m: &CsrMatrix, cfg: &TileConfig) -> Self {
        Self::extract_ref(m.as_ref(), cfg)
    }

    /// View-based form of [`TileStats::extract`], bit-identical across
    /// storage producers.
    pub fn extract_ref(m: CsrRef<'_>, cfg: &TileConfig) -> Self {
        let tr = cfg.tile_rows.max(1);
        let tc = cfg.tile_cols.max(1);
        let tiles_down = m.rows().div_ceil(tr);
        let tiles_across = m.cols().div_ceil(tc);
        if m.rows() == 0 || m.cols() == 0 {
            return TileStats {
                density_1d: 0.0,
                density_2d: 0.0,
                count_1d: tiles_down,
                count_2d: tiles_down * tiles_across,
            };
        }

        let mut nnz_1d = vec![0usize; tiles_down];
        let mut nnz_2d = vec![0usize; tiles_down * tiles_across];
        for (r, c, _) in m.iter() {
            let ti = r / tr;
            nnz_1d[ti] += 1;
            nnz_2d[ti * tiles_across + c / tc] += 1;
        }
        Self::aggregate(m.rows(), m.cols(), tr, tc, &nnz_1d, &nnz_2d)
    }

    /// Computes tile occupancy from a [`Structure`] without
    /// materializing the matrix, bit-identical to
    /// [`TileStats::extract`] on the materialized CSR. Run structures
    /// tally whole column-tile segments at a time
    /// (O(nnz / tile_cols + rows)); mesh structures walk their ≤ 7
    /// stencil columns per row.
    pub fn from_structure(s: &Structure, cfg: &TileConfig) -> Self {
        let tr = cfg.tile_rows.max(1);
        let tc = cfg.tile_cols.max(1);
        let rows = s.rows();
        let cols = s.cols();
        let tiles_down = rows.div_ceil(tr);
        let tiles_across = cols.div_ceil(tc);
        if rows == 0 || cols == 0 {
            return TileStats {
                density_1d: 0.0,
                density_2d: 0.0,
                count_1d: tiles_down,
                count_2d: tiles_down * tiles_across,
            };
        }

        let mut nnz_1d = vec![0usize; tiles_down];
        let mut nnz_2d = vec![0usize; tiles_down * tiles_across];
        match s {
            Structure::Runs(rr) => {
                for r in 0..rows {
                    let ti = r / tr;
                    nnz_1d[ti] += rr.lens()[r] as usize;
                    for (lo, hi) in rr.row_intervals(r) {
                        let mut c = lo;
                        while c < hi {
                            let tj = c / tc;
                            let seg_end = hi.min((tj + 1) * tc);
                            nnz_2d[ti * tiles_across + tj] += seg_end - c;
                            c = seg_end;
                        }
                    }
                }
            }
            Structure::Mesh2d { .. } | Structure::Mesh3d { .. } => {
                let mut buf = [0u32; 7];
                for r in 0..rows {
                    let ti = r / tr;
                    let n = s.mesh_row_cols(r, &mut buf);
                    nnz_1d[ti] += n;
                    for &c in &buf[..n] {
                        nnz_2d[ti * tiles_across + c as usize / tc] += 1;
                    }
                }
            }
        }
        Self::aggregate(rows, cols, tr, tc, &nnz_1d, &nnz_2d)
    }

    /// Shared occupied-tile averaging over exact per-tile nonzero
    /// counts; both entry points end here, so their float sums run in
    /// the same tile order.
    fn aggregate(
        rows: usize,
        cols: usize,
        tr: usize,
        tc: usize,
        nnz_1d: &[usize],
        nnz_2d: &[usize],
    ) -> Self {
        let tiles_down = nnz_1d.len();
        let tiles_across = nnz_2d.len().checked_div(tiles_down).unwrap_or(0);
        let area_1d = |ti: usize| {
            let h = (rows - ti * tr).min(tr);
            (h * cols) as f64
        };
        let area_2d = |ti: usize, tj: usize| {
            let h = (rows - ti * tr).min(tr);
            let w = (cols - tj * tc).min(tc);
            (h * w) as f64
        };

        let mut d1 = 0.0;
        let mut n1 = 0usize;
        for (ti, &nz) in nnz_1d.iter().enumerate() {
            if nz > 0 {
                d1 += nz as f64 / area_1d(ti);
                n1 += 1;
            }
        }
        let mut d2 = 0.0;
        let mut n2 = 0usize;
        for ti in 0..tiles_down {
            for tj in 0..tiles_across {
                let nz = nnz_2d[ti * tiles_across + tj];
                if nz > 0 {
                    d2 += nz as f64 / area_2d(ti, tj);
                    n2 += 1;
                }
            }
        }
        TileStats {
            density_1d: if n1 > 0 { d1 / n1 as f64 } else { 0.0 },
            density_2d: if n2 > 0 { d2 / n2 as f64 } else { 0.0 },
            count_1d: tiles_down,
            count_2d: tiles_down * tiles_across,
        }
    }
}

/// The full feature record for an `(A, B)` operand pair — the input to
/// Misam's design classifier and latency predictor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PairFeatures {
    /// Statistics of the left operand A.
    pub a: MatrixStats,
    /// Statistics of the right operand B.
    pub b: MatrixStats,
    /// Tile occupancy of B (the scheduled, buffered operand).
    pub tiles_b: TileStats,
}

impl PairFeatures {
    /// Extracts features from an operand pair.
    pub fn extract(a: &CsrMatrix, b: &CsrMatrix, cfg: &TileConfig) -> Self {
        Self::extract_ref(a.as_ref(), b.as_ref(), cfg)
    }

    /// View-based form of [`PairFeatures::extract`], bit-identical
    /// across storage producers — how slab-backed operands reach the
    /// classifier without materializing.
    pub fn extract_ref(a: CsrRef<'_>, b: CsrRef<'_>, cfg: &TileConfig) -> Self {
        Self::from_profiles_ref(&MatrixProfile::build_ref(a), &MatrixProfile::build_ref(b), b, cfg)
    }

    /// Extracts features from precomputed operand profiles, walking B
    /// only for its tile-occupancy statistics. Bit-identical to
    /// [`PairFeatures::extract`]; callers holding cached profiles (the
    /// oracle layer, the streaming executor) avoid re-deriving the
    /// row/column distributions per call.
    pub fn from_profiles(
        ap: &MatrixProfile,
        bp: &MatrixProfile,
        b: &CsrMatrix,
        cfg: &TileConfig,
    ) -> Self {
        Self::from_profiles_ref(ap, bp, b.as_ref(), cfg)
    }

    /// View-based form of [`PairFeatures::from_profiles`].
    pub fn from_profiles_ref(
        ap: &MatrixProfile,
        bp: &MatrixProfile,
        b: CsrRef<'_>,
        cfg: &TileConfig,
    ) -> Self {
        PairFeatures {
            a: MatrixStats::from_profile(ap),
            b: MatrixStats::from_profile(bp),
            tiles_b: TileStats::extract_ref(b, cfg),
        }
    }

    /// Extracts features from precomputed profiles and B's
    /// [`Structure`], never touching element arrays — the fully
    /// structural path of the streaming corpus pipeline. Bit-identical
    /// to [`PairFeatures::extract`] on the materialized pair.
    pub fn from_profiles_structural(
        ap: &MatrixProfile,
        bp: &MatrixProfile,
        b: &Structure,
        cfg: &TileConfig,
    ) -> Self {
        PairFeatures {
            a: MatrixStats::from_profile(ap),
            b: MatrixStats::from_profile(bp),
            tiles_b: TileStats::from_structure(b, cfg),
        }
    }

    /// Extracts features for a lazily generated sparse A against a dense
    /// `b_rows x b_cols` right-hand side, synthesizing B's statistics
    /// from its shape. Structure-first: A's profile is synthesized from
    /// its structure stage in O(rows + cols) and A is never materialized,
    /// bit-identical to [`PairFeatures::from_profile_dense_b`] of
    /// [`MatrixProfile::build`] on the materialized matrix. A caller
    /// holding a CSR calls that pair directly.
    pub fn extract_dense_b(a: &LazyMatrix, b_rows: usize, b_cols: usize, cfg: &TileConfig) -> Self {
        Self::from_profile_dense_b(
            &MatrixProfile::synthesize(a.structure(), &[], &[]),
            b_rows,
            b_cols,
            cfg,
        )
    }

    /// Features for a sparse A, given by its profile, against a dense
    /// `b_rows x b_cols` right-hand side.
    pub fn from_profile_dense_b(
        ap: &MatrixProfile,
        b_rows: usize,
        b_cols: usize,
        cfg: &TileConfig,
    ) -> Self {
        let count_1d = b_rows.div_ceil(cfg.tile_rows.max(1));
        let count_2d = count_1d * b_cols.div_ceil(cfg.tile_cols.max(1));
        let occupied = b_rows > 0 && b_cols > 0;
        PairFeatures {
            a: MatrixStats::from_profile(ap),
            b: MatrixStats::dense(b_rows, b_cols),
            tiles_b: TileStats {
                density_1d: if occupied { 1.0 } else { 0.0 },
                density_2d: if occupied { 1.0 } else { 0.0 },
                count_1d,
                count_2d,
            },
        }
    }

    /// Flattens the record into the vector layout described by
    /// [`FEATURE_NAMES`].
    pub fn to_vector(&self) -> Vec<f64> {
        vec![
            self.a.sparsity,
            self.b.sparsity,
            self.a.rows as f64,
            self.a.cols as f64,
            self.b.rows as f64,
            self.b.cols as f64,
            self.a.nnz as f64,
            self.b.nnz as f64,
            self.a.avg_nnz_row,
            self.a.var_nnz_row,
            self.a.avg_nnz_col,
            self.a.var_nnz_col,
            self.b.avg_nnz_row,
            self.b.var_nnz_row,
            self.b.avg_nnz_col,
            self.b.var_nnz_col,
            self.a.load_imbalance_row,
            self.a.load_imbalance_col,
            self.b.load_imbalance_row,
            self.b.load_imbalance_col,
            self.tiles_b.density_1d,
            self.tiles_b.density_2d,
            self.tiles_b.count_1d as f64,
            self.tiles_b.count_2d as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misam_sparse::gen;

    #[test]
    fn feature_names_match_vector_length() {
        let a = gen::uniform_random(32, 32, 0.1, 1);
        let f = PairFeatures::extract(&a, &a, &TileConfig::default());
        assert_eq!(f.to_vector().len(), FEATURE_NAMES.len());
    }

    #[test]
    fn feature_index_finds_paper_top_features() {
        assert_eq!(FEATURE_NAMES[feature_index("Tile_1D_Density")], "Tile_1D_Density");
        assert_eq!(FEATURE_NAMES[feature_index("row_B")], "row_B");
        assert_eq!(FEATURE_NAMES[feature_index("A_load_imbalance_row")], "A_load_imbalance_row");
        assert_eq!(FEATURE_NAMES[feature_index("A_rows")], "A_rows");
    }

    #[test]
    #[should_panic(expected = "unknown feature name")]
    fn feature_index_panics_on_unknown() {
        feature_index("bogus");
    }

    #[test]
    fn stats_of_known_matrix() {
        // [1 0 2]
        // [0 0 0]
        // [3 4 5]
        let m = misam_sparse::CsrMatrix::from_dense(
            3,
            3,
            &[1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0, 5.0],
        );
        let s = MatrixStats::extract(&m);
        assert_eq!(s.nnz, 5);
        assert!((s.sparsity - (1.0 - 5.0 / 9.0)).abs() < 1e-12);
        assert!((s.avg_nnz_row - 5.0 / 3.0).abs() < 1e-12);
        // Row counts 2,0,3 -> mean 5/3, var = (4+0+9)/3 - 25/9 = 14/9
        assert!((s.var_nnz_row - 14.0 / 9.0).abs() < 1e-9);
        assert!((s.load_imbalance_row - 3.0 / (5.0 / 3.0)).abs() < 1e-9);
        // Col counts 2,1,2 -> max 2, mean 5/3.
        assert!((s.load_imbalance_col - 2.0 / (5.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_stats_are_finite() {
        let m = misam_sparse::CsrMatrix::zeros(4, 4);
        let s = MatrixStats::extract(&m);
        assert_eq!(s.sparsity, 1.0);
        assert_eq!(s.load_imbalance_row, 1.0);
        assert_eq!(s.var_nnz_col, 0.0);
        let zero = misam_sparse::CsrMatrix::zeros(0, 0);
        let s0 = MatrixStats::extract(&zero);
        assert!(s0.sparsity.is_finite());
    }

    #[test]
    fn dense_matrix_tile_density_is_one() {
        let m = gen::dense(64, 64, 3);
        let t = TileStats::extract(&m, &TileConfig { tile_rows: 16, tile_cols: 16 });
        assert!((t.density_1d - 1.0).abs() < 1e-12);
        assert!((t.density_2d - 1.0).abs() < 1e-12);
        assert_eq!(t.count_1d, 4);
        assert_eq!(t.count_2d, 16);
    }

    #[test]
    fn clustered_matrix_has_higher_tile_density_than_overall() {
        // All nonzeros in the top-left 16x16 corner of a 256x256 matrix.
        let mut coo = misam_sparse::CooMatrix::new(256, 256);
        for r in 0..16 {
            for c in 0..16 {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        let m = coo.to_csr();
        let overall = m.density();
        let t = TileStats::extract(&m, &TileConfig { tile_rows: 16, tile_cols: 16 });
        assert!(t.density_2d > 10.0 * overall, "2D tile density should expose clustering");
        assert!((t.density_2d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tile_counts_use_ceiling_division() {
        let m = gen::uniform_random(100, 70, 0.2, 5);
        let t = TileStats::extract(&m, &TileConfig { tile_rows: 30, tile_cols: 32 });
        assert_eq!(t.count_1d, 4);
        assert_eq!(t.count_2d, 4 * 3);
    }

    #[test]
    fn ragged_edge_tiles_use_true_area() {
        // Single full column strip in a matrix whose last tile is ragged.
        let mut coo = misam_sparse::CooMatrix::new(10, 10);
        for r in 0..10 {
            coo.push(r, 0, 1.0).unwrap();
        }
        let m = coo.to_csr();
        let t = TileStats::extract(&m, &TileConfig { tile_rows: 8, tile_cols: 8 });
        // Tile (0,0): 8 nnz / 64 area; tile (1,0): 2 nnz / 16 area.
        let expect = (8.0 / 64.0 + 2.0 / 16.0) / 2.0;
        assert!((t.density_2d - expect).abs() < 1e-12);
    }

    #[test]
    fn imbalanced_generator_yields_high_imbalance_feature() {
        let a = gen::imbalanced_rows(200, 1000, 0.05, 300, 4, 7);
        let s = MatrixStats::extract(&a);
        assert!(s.load_imbalance_row > 5.0);
        let u = gen::regular_degree(200, 1000, 16, 8);
        let su = MatrixStats::extract(&u);
        assert!((su.load_imbalance_row - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_backed_features_are_bit_identical() {
        let a = gen::power_law(300, 200, 5.0, 1.4, 17);
        let b = gen::imbalanced_rows(200, 400, 0.05, 150, 2, 18);
        let cfg = TileConfig::default();
        let direct = PairFeatures::extract(&a, &b, &cfg);
        let (ap, bp) = (MatrixProfile::build(&a), MatrixProfile::build(&b));
        let via_profile = PairFeatures::from_profiles(&ap, &bp, &b, &cfg);
        assert_eq!(direct, via_profile);
        assert_eq!(direct.to_vector(), via_profile.to_vector());
    }

    #[test]
    fn structure_first_dense_b_features_are_bit_identical() {
        let lazy = gen::power_law_lazy(300, 200, 5.0, 1.4, 17);
        let cfg = TileConfig::default();
        let structural = PairFeatures::extract_dense_b(&lazy, 200, 64, &cfg);
        assert!(!lazy.is_materialized());
        let built = MatrixProfile::build(lazy.materialize());
        assert_eq!(structural, PairFeatures::from_profile_dense_b(&built, 200, 64, &cfg));
    }

    #[test]
    fn structural_tile_stats_match_element_walk() {
        let lazies = [
            gen::uniform_random_lazy(300, 280, 0.05, 70),
            gen::power_law_lazy(250, 250, 6.0, 1.4, 71),
            gen::banded_lazy(200, 200, 9, 0.7, 72),
            gen::pruned_dnn_lazy(128, 300, 0.3, 73),
            gen::imbalanced_rows_lazy(150, 400, 0.05, 120, 2, 74),
            gen::mesh2d_lazy(19, 13),
            gen::mesh3d_lazy(6, 5, 4),
        ];
        let cfgs = [
            TileConfig::default(),
            TileConfig { tile_rows: 17, tile_cols: 13 },
            TileConfig { tile_rows: 1, tile_cols: 1 },
        ];
        for lazy in &lazies {
            for cfg in &cfgs {
                let walked = TileStats::extract(lazy.materialize(), cfg);
                let structural = TileStats::from_structure(lazy.structure(), cfg);
                assert_eq!(walked, structural, "tile cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn fully_structural_pair_features_are_bit_identical() {
        let a = gen::power_law_lazy(300, 200, 5.0, 1.4, 75);
        let b = gen::imbalanced_rows_lazy(200, 400, 0.05, 150, 2, 76);
        let cfg = TileConfig::default();
        let ap = MatrixProfile::synthesize(a.structure(), &[], &[]);
        let bp = MatrixProfile::synthesize(b.structure(), &[], &[]);
        let structural = PairFeatures::from_profiles_structural(&ap, &bp, b.structure(), &cfg);
        let direct = PairFeatures::extract(a.materialize(), b.materialize(), &cfg);
        assert_eq!(structural, direct);
    }

    #[test]
    fn pair_features_use_b_for_tiles() {
        let a = gen::uniform_random(64, 64, 0.5, 1);
        let b = misam_sparse::CsrMatrix::zeros(64, 64);
        let f = PairFeatures::extract(&a, &b, &TileConfig::default());
        assert_eq!(f.tiles_b.density_1d, 0.0);
        assert!(f.a.density() > 0.3);
    }
}
