//! Closed-form latency estimation from summary features.
//!
//! The reconfiguration engine "estimates the expected latency for the
//! predicted design based on the matrix features and the current FPGA
//! configuration" (§3.3). The trained regression tree does this with
//! high accuracy *inside* its training distribution (Figure 9); this
//! module is the scale-robust analytic companion: it evaluates the same
//! cost structure as [`crate::engine`] — HBM streams, pass/tile
//! structure, schedule bounds — but from a [`PairFeatures`] record
//! alone, so it extrapolates to arbitrarily large matrices (the Figure 8
//! streaming workloads) where a leaf-value tree cannot.

use crate::design::{BFormat, DesignConfig, DesignId, Traversal};
use crate::hbm;
use misam_features::PairFeatures;

/// Output-accumulator width per pass (matches `engine::PASS_WIDTH_COLS`).
const PASS_WIDTH_COLS: f64 = 512.0;
/// Launch-overhead constants (match `engine`).
const LAUNCH_BASE_CYCLES: f64 = 1500.0;
const LAUNCH_PER_PEG_CYCLES: f64 = 180.0;

/// Estimates the execution time in seconds of one multiplication on a
/// design, from features alone.
pub fn estimate_time_s(f: &PairFeatures, id: DesignId) -> f64 {
    estimate_time_s_with_config(f, &DesignConfig::of(id))
}

/// Estimate against an explicit configuration.
pub fn estimate_time_s_with_config(f: &PairFeatures, cfg: &DesignConfig) -> f64 {
    let m = f.a.rows as f64;
    let k = f.b.rows as f64;
    let n = f.b.cols as f64;
    let nnz_a = f.a.nnz as f64;
    let nnz_b = f.b.nnz as f64;
    let pes = cfg.total_pes() as f64;
    // Longest row of A, reconstructed from the imbalance ratio.
    let max_row_a = f.a.load_imbalance_row * f.a.avg_nnz_row;

    let (compute, passes, tiles, b_read, c_write) = match cfg.format_b {
        BFormat::Uncompressed => {
            let passes = (n / PASS_WIDTH_COLS).ceil().max(1.0);
            let w = (n.min(PASS_WIDTH_COLS) / 8.0).ceil().max(1.0);
            let work = nnz_a * w / pes;
            let span = match cfg.scheduler_a {
                Traversal::Col => max_row_a * w,
                Traversal::Row => (max_row_a / pes).ceil() * w,
            };
            let compute = passes * work.max(span);
            let tiles = (k / cfg.bram_entries as f64).ceil().max(1.0);
            let b_read = k * n / hbm::B_DENSE_PER_WORD as f64 / cfg.ch_b as f64;
            let c_write = m * n / hbm::C_DENSE_PER_WORD as f64 / cfg.ch_c as f64;
            (compute, passes, tiles, b_read, c_write)
        }
        BFormat::Compressed => {
            let avg_occ = f.b.avg_nnz_row;
            let w = (cfg.gather_factor * avg_occ / 8.0).ceil().max(1.0) + cfg.meta_lookup as f64;
            let work = nnz_a * w / pes;
            let span = match cfg.scheduler_a {
                Traversal::Col => max_row_a * w,
                Traversal::Row => (max_row_a / pes).ceil() * w,
            };
            let compute = work.max(span);
            let cap = (cfg.bram_entries as u64 * hbm::B_SPARSE_PER_WORD) as f64;
            let tiles = (nnz_b / cap).ceil().max(1.0);
            let b_read = nnz_b / hbm::B_SPARSE_PER_WORD as f64 / cfg.ch_b as f64;
            // Output estimate via the shared balls-in-bins model.
            let flops = nnz_a * avg_occ;
            let cells = m * n;
            let out = if cells > 0.0 { cells * (1.0 - (-flops / cells).exp()) } else { 0.0 };
            let c_write = out / hbm::C_SPARSE_PER_WORD as f64 / cfg.ch_c as f64;
            (compute, 1.0, tiles, b_read, c_write)
        }
    };

    let a_read = nnz_a / hbm::A_ENTRIES_PER_WORD as f64 / cfg.ch_a as f64 * passes;
    let overhead = LAUNCH_BASE_CYCLES
        + LAUNCH_PER_PEG_CYCLES * cfg.pegs as f64
        + tiles * passes * cfg.pipeline_fill as f64;

    let cycles = a_read.max(b_read).max(c_write).max(compute) + overhead;
    cycles / (cfg.freq_mhz * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, Operand};
    use misam_features::TileConfig;
    use misam_sparse::gen;

    /// The analytic estimate must track the event-level simulator within
    /// a small factor across regimes and designs.
    #[test]
    fn analytic_tracks_simulator() {
        let cases: Vec<(misam_sparse::CsrMatrix, Option<misam_sparse::CsrMatrix>, usize)> = vec![
            (gen::uniform_random(1024, 1024, 0.01, 1), None, 512),
            (gen::power_law(2048, 2048, 8.0, 1.5, 2), None, 256),
            (gen::pruned_dnn(512, 1024, 0.2, 3), None, 512),
            (
                gen::power_law(1500, 1500, 5.0, 1.4, 4),
                Some(gen::power_law(1500, 1500, 5.0, 1.4, 5)),
                0,
            ),
            (
                gen::uniform_random(900, 900, 0.02, 6),
                Some(gen::uniform_random(900, 512, 0.3, 7)),
                0,
            ),
        ];
        let cfg = TileConfig::default();
        let mut checked = 0;
        for (a, b, cols) in &cases {
            let (op, feats) = match b {
                Some(bm) => (Operand::Sparse(bm), PairFeatures::extract(a, bm, &cfg)),
                None => (
                    Operand::Dense { rows: a.cols(), cols: *cols },
                    PairFeatures::from_profile_dense_b(
                        &misam_sparse::MatrixProfile::build(a),
                        a.cols(),
                        *cols,
                        &cfg,
                    ),
                ),
            };
            for d in DesignId::ALL {
                let truth = simulate(a, op, d).time_s;
                let est = estimate_time_s(&feats, d);
                let ratio = est / truth;
                assert!(
                    (0.3..3.5).contains(&ratio),
                    "design {d}: analytic {est:.3e} vs sim {truth:.3e} (ratio {ratio:.2})"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 20);
    }

    /// The property the Figure 8 engine relies on: estimates scale with
    /// matrix size far outside any training corpus.
    #[test]
    fn analytic_extrapolates_with_size() {
        let cfg = TileConfig::default();
        let small = gen::regular_degree(2000, 2000, 8, 1);
        let big = gen::regular_degree(64_000, 64_000, 8, 2);
        let fs = PairFeatures::extract(&small, &small, &cfg);
        let fb = PairFeatures::extract(&big, &big, &cfg);
        // Design 1 treats sparse B as dense: time grows ~quadratically.
        let ratio = estimate_time_s(&fb, DesignId::D1) / estimate_time_s(&fs, DesignId::D1);
        assert!(ratio > 100.0, "dense-format B read must dominate at scale: {ratio:.0}");
        // Design 4 reads only nonzeros: roughly linear growth.
        let ratio4 = estimate_time_s(&fb, DesignId::D4) / estimate_time_s(&fs, DesignId::D4);
        assert!(ratio4 < ratio / 5.0, "compressed B must scale better: {ratio4:.0} vs {ratio:.0}");
    }

    #[test]
    fn analytic_ranks_designs_like_the_simulator_on_extremes() {
        let cfg = TileConfig::default();
        // HSxHS: D4 must be the analytic winner too.
        let a = gen::power_law(3000, 3000, 4.0, 1.4, 8);
        let f = PairFeatures::extract(&a, &a, &cfg);
        let best = DesignId::ALL
            .iter()
            .min_by(|&&x, &&y| {
                estimate_time_s(&f, x).partial_cmp(&estimate_time_s(&f, y)).expect("finite")
            })
            .copied()
            .expect("four designs");
        assert_eq!(best, DesignId::D4);
    }
}
