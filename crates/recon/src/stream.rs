//! Streaming tile execution (paper §3.3).
//!
//! Large matrices are divided into independent row tiles of A — sized
//! randomly within a configured range (10k–50k rows in the paper, to
//! avoid dimension bias in the models) — and streamed through the
//! predict → decide → execute pipeline one tile at a time. B is shared by
//! every tile (row-wise partitioning keeps tiles independent, so no
//! host-side reduction is needed). Reconfiguration granularity is the
//! tile: the engine may switch designs between tiles when the projected
//! gain justifies it.

use crate::engine::ReconfigEngine;
use misam_features::{PairFeatures, TileConfig};
use misam_oracle::Executor;
use misam_sim::{DesignId, Operand, SimReport};
use misam_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the streaming executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Minimum tile height in rows.
    pub tile_min_rows: usize,
    /// Maximum tile height in rows (inclusive).
    pub tile_max_rows: usize,
    /// Seed for the random tile heights.
    pub seed: u64,
    /// Tiling geometry used for per-tile feature extraction.
    pub features: TileConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            tile_min_rows: 10_000,
            tile_max_rows: 50_000,
            seed: 0,
            features: TileConfig::default(),
        }
    }
}

/// Outcome of one tile's trip through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileOutcome {
    /// First row of the tile in A.
    pub row_start: usize,
    /// One past the last row of the tile.
    pub row_end: usize,
    /// Design the classifier asked for.
    pub predicted: DesignId,
    /// Design the tile actually executed on.
    pub executed_on: DesignId,
    /// Whether a reconfiguration preceded this tile.
    pub reconfigured: bool,
    /// Reconfiguration seconds charged before this tile.
    pub reconfig_time_s: f64,
    /// Simulated execution report of the tile.
    pub sim: SimReport,
}

/// Aggregate of a whole streamed matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Per-tile outcomes in stream order.
    pub tiles: Vec<TileOutcome>,
    /// Total execution seconds (sum of tile sim times).
    pub execute_time_s: f64,
    /// Total reconfiguration seconds.
    pub reconfig_time_s: f64,
    /// Number of reconfigurations triggered.
    pub reconfig_count: usize,
    /// Total energy over all tiles, joules.
    pub energy_j: f64,
}

impl StreamOutcome {
    /// End-to-end seconds: execution plus reconfiguration.
    pub fn total_time_s(&self) -> f64 {
        self.execute_time_s + self.reconfig_time_s
    }
}

/// Streams `a x b` tile by tile through `engine`. For each tile,
/// `predict` maps the tile's features to the design the classifier
/// nominates and every design's predicted latency in seconds (indexed
/// by `DesignId::index`). Tile execution is delegated to `executor`
/// (target index = `DesignId::index`), so callers choose between the
/// raw cycle simulator and a memoizing oracle like
/// [`misam_oracle::global`].
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`, the tile range is empty or reversed,
/// or `a` has no rows.
pub fn run<E, P>(
    a: &CsrMatrix,
    b: Operand<'_>,
    cfg: &StreamConfig,
    executor: &E,
    engine: &mut ReconfigEngine,
    mut predict: P,
) -> StreamOutcome
where
    E: Executor<Report = SimReport>,
    P: FnMut(&PairFeatures) -> (DesignId, [f64; 4]),
{
    assert_eq!(a.cols(), b.rows(), "inner dimensions disagree");
    assert!(a.rows() > 0, "cannot stream an empty matrix");
    assert!(
        0 < cfg.tile_min_rows && cfg.tile_min_rows <= cfg.tile_max_rows,
        "tile row range is empty or reversed"
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x711e_5eed);
    let mut tiles = Vec::new();
    let mut execute_time_s = 0.0;
    let mut reconfig_time_s = 0.0;
    let mut reconfig_count = 0usize;
    let mut energy_j = 0.0;

    let mut start = 0usize;
    while start < a.rows() {
        let height = rng.gen_range(cfg.tile_min_rows..=cfg.tile_max_rows);
        let end = (start + height).min(a.rows());
        let tile = a.row_slice(start..end);

        // Features come from the shared profile store, so the tile's
        // structural pass (and B's) is reused by the simulating
        // executor instead of being redone per call site.
        let features = misam_oracle::profiles::global().pair_features(&tile, b, &cfg.features);

        let (predicted, latency_s) = predict(&features);
        // A switch amortizes over every remaining tile of this matrix
        // (the paper's "net latency benefit" rule, §3.3): estimate how
        // many tiles of the current character are still to come.
        let mean_tile = (cfg.tile_min_rows + cfg.tile_max_rows) as f64 / 2.0;
        let remaining_tiles = ((a.rows() - start) as f64 / mean_tile).max(1.0);
        let decision = engine.decide(&latency_s, predicted, remaining_tiles);
        let sim = executor.execute(&tile, b, decision.execute_on.index());

        execute_time_s += sim.time_s;
        energy_j += sim.energy_j;
        reconfig_time_s += decision.reconfig_time_s;
        reconfig_count += usize::from(decision.reconfigured);
        tiles.push(TileOutcome {
            row_start: start,
            row_end: end,
            predicted,
            executed_on: decision.execute_on,
            reconfigured: decision.reconfigured,
            reconfig_time_s: decision.reconfig_time_s,
            sim,
        });
        start = end;
    }

    StreamOutcome { tiles, execute_time_s, reconfig_time_s, reconfig_count, energy_j }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ReconfigCost;
    use misam_oracle::FpgaSim;
    use misam_sparse::gen;

    fn tiny_cfg(seed: u64) -> StreamConfig {
        StreamConfig { tile_min_rows: 100, tile_max_rows: 300, seed, ..Default::default() }
    }

    /// Nominates `design` on every tile with a flat latency table.
    fn always(design: DesignId) -> impl FnMut(&PairFeatures) -> (DesignId, [f64; 4]) {
        move |_| (design, [1.0; 4])
    }

    #[test]
    fn tiles_cover_the_matrix_exactly() {
        let a = gen::uniform_random(1000, 512, 0.01, 1);
        let b = Operand::Dense { rows: 512, cols: 64 };
        let mut engine = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
        engine.force_load(DesignId::D1);
        let out = run(&a, b, &tiny_cfg(3), &FpgaSim, &mut engine, always(DesignId::D1));
        assert_eq!(out.tiles.first().unwrap().row_start, 0);
        assert_eq!(out.tiles.last().unwrap().row_end, 1000);
        for w in out.tiles.windows(2) {
            assert_eq!(w[0].row_end, w[1].row_start);
        }
        assert!(out.tiles.iter().all(|t| t.executed_on == DesignId::D1));
        assert_eq!(out.reconfig_count, 0);
    }

    #[test]
    fn tile_heights_respect_the_range() {
        let a = gen::uniform_random(2000, 256, 0.01, 2);
        let b = Operand::Dense { rows: 256, cols: 32 };
        let mut engine = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
        engine.force_load(DesignId::D2);
        let out = run(&a, b, &tiny_cfg(7), &FpgaSim, &mut engine, always(DesignId::D2));
        for t in &out.tiles[..out.tiles.len() - 1] {
            let h = t.row_end - t.row_start;
            assert!((100..=300).contains(&h), "tile height {h} out of range");
        }
    }

    #[test]
    fn selector_switch_mid_stream_reconfigures_once() {
        let a = gen::uniform_random(600, 256, 0.02, 3);
        let b = Operand::Dense { rows: 256, cols: 32 };
        // Gain is enormous relative to a free switch.
        let latency_s = [1.0, 10.0, 10.0, 10.0];
        let mut engine = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
        engine.force_load(DesignId::D2);
        let mut first = true;
        let out = run(&a, b, &tiny_cfg(4), &FpgaSim, &mut engine, move |_| {
            let predicted = if std::mem::take(&mut first) { DesignId::D2 } else { DesignId::D1 };
            (predicted, latency_s)
        });
        assert_eq!(out.reconfig_count, 1);
        assert_eq!(out.tiles[0].executed_on, DesignId::D2);
        assert!(out.tiles[1..].iter().all(|t| t.executed_on == DesignId::D1));
    }

    #[test]
    fn expensive_reconfig_is_refused_and_time_accounted() {
        let a = gen::uniform_random(600, 256, 0.02, 5);
        let b = Operand::Dense { rows: 256, cols: 32 };
        // Gains are microseconds; full reconfig is seconds: never switch.
        let latency_s = [1e-6, 2e-6, 2e-6, 2e-6];
        let mut engine = ReconfigEngine::new(ReconfigCost::default(), 0.2);
        engine.force_load(DesignId::D2);
        let out = run(&a, b, &tiny_cfg(6), &FpgaSim, &mut engine, |_| (DesignId::D1, latency_s));
        assert_eq!(out.reconfig_count, 0);
        assert_eq!(out.reconfig_time_s, 0.0);
        assert!(out.tiles.iter().all(|t| t.executed_on == DesignId::D2));
        assert!(out.total_time_s() > 0.0);
    }

    #[test]
    fn sparse_b_flows_through_the_pipeline() {
        let a = gen::power_law(800, 800, 5.0, 1.4, 8);
        let bm = gen::power_law(800, 800, 5.0, 1.4, 9);
        let mut engine = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
        engine.force_load(DesignId::D4);
        let out = run(
            &a,
            Operand::Sparse(&bm),
            &tiny_cfg(10),
            &FpgaSim,
            &mut engine,
            always(DesignId::D4),
        );
        assert!(out.energy_j > 0.0);
        assert!(out.execute_time_s > 0.0);
    }

    #[test]
    fn dense_feature_synthesis_matches_real_dense_extraction() {
        // The synthesized dense-B features must match extracting from an
        // actual all-nonzero CSR.
        let a = gen::uniform_random(200, 64, 0.1, 11);
        let dense_b = gen::dense(64, 48, 12);
        let cfg = tiny_cfg(13);
        let real = PairFeatures::extract(&a.row_slice(0..200), &dense_b, &cfg.features);

        let mut engine = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
        engine.force_load(DesignId::D1);
        let mut captured = None;
        run(
            &a,
            Operand::Dense { rows: 64, cols: 48 },
            &StreamConfig { tile_min_rows: 200, tile_max_rows: 200, ..cfg },
            &FpgaSim,
            &mut engine,
            |f| {
                captured = Some(*f);
                (DesignId::D1, [1.0; 4])
            },
        );
        let synth = captured.unwrap();
        assert_eq!(synth.b.nnz, real.b.nnz);
        assert_eq!(synth.b.sparsity, real.b.sparsity);
        assert_eq!(synth.tiles_b.count_1d, real.tiles_b.count_1d);
        assert_eq!(synth.tiles_b.count_2d, real.tiles_b.count_2d);
        assert!((synth.tiles_b.density_1d - real.tiles_b.density_1d).abs() < 1e-12);
        assert!((synth.b.avg_nnz_row - real.b.avg_nnz_row).abs() < 1e-12);
    }

    #[test]
    fn tiered_oracle_without_a_bundle_matches_the_sim_oracle() {
        // The tiered surrogate oracle drops into the same executor seam
        // as the memoized cycle sim; with no bundle installed every tile
        // must fall through to the sim, tile for tile, bit for bit.
        let a = gen::uniform_random(900, 384, 0.01, 21);
        let b = Operand::Dense { rows: 384, cols: 48 };
        let tiered = misam_oracle::TieredOracle::new();

        let mut e1 = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
        e1.force_load(DesignId::D2);
        let via_sim =
            run(&a, b, &tiny_cfg(5), misam_oracle::global(), &mut e1, always(DesignId::D2));

        let mut e2 = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
        e2.force_load(DesignId::D2);
        let via_tiered = run(&a, b, &tiny_cfg(5), &tiered, &mut e2, always(DesignId::D2));

        assert_eq!(via_sim, via_tiered);
        let stats = tiered.stats();
        assert_eq!(stats.unmodeled_pairs as usize, via_tiered.tiles.len());
        assert_eq!(stats.surrogate_pairs, 0);
    }

    #[test]
    #[should_panic(expected = "tile row range")]
    fn reversed_tile_range_panics() {
        let a = gen::uniform_random(100, 100, 0.1, 14);
        let mut engine = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
        run(
            &a,
            Operand::Dense { rows: 100, cols: 8 },
            &StreamConfig { tile_min_rows: 50, tile_max_rows: 10, seed: 0, ..Default::default() },
            &FpgaSim,
            &mut engine,
            always(DesignId::D1),
        );
    }
}
