//! Measures the lane/SIMD kernels against their always-compiled scalar
//! references and writes `BENCH_kernels.json`.
//!
//! Four kernel groups, mirroring the hot loops they came from:
//!
//! * **profile fold** — the stamp-packed fragment fold + fused column
//!   occupancy (`simd::frag_fold_lanes`) vs the per-row histogram
//!   reference (`frag_fold_scalar`), at the paper's PE widths and at a
//!   prime width that forces the generic-residue remainder path.
//! * **residue folds** — the per-PE length/count tallies, chunked lane
//!   sweep vs the wrapping scalar counter.
//! * **frontier walk** — tree batch inference with the
//!   branchless/AVX2 segment partition vs the original branchy
//!   partition (`predict_batch_matrix` vs its `_scalar` twin), on a
//!   deep grid-label tree whose splits the branch predictor cannot
//!   learn.
//! * **spgemm / spmm / schedule** — the workspace SPA vs the bool-array
//!   SPA, the register-blocked SpMM vs the one-element axpy (including
//!   a lane-remainder B width), and the closed-form uniform schedule
//!   vs the O(nnz) element walk.
//!
//! Every pair is checked bit-identical before it is timed; the JSON
//! records a per-kernel `identical` flag and a top-level conjunction.

use misam_mlkit::matrix::FeatureMatrix;
use misam_mlkit::tree::{DecisionTree, TreeParams};
use misam_sim::schedule::{schedule_uniform_lanes, schedule_uniform_walk};
use misam_sim::{DesignConfig, DesignId};
use misam_sparse::kernels::{
    spmm_lanes, spmm_scalar, try_spgemm_rowwise_scalar, try_spgemm_rowwise_tiled,
    try_spgemm_rowwise_with, SpaWorkspace, SPA_TILE_COLS, SPA_WIDE_COLS,
};
use misam_sparse::{gen, simd, CsrMatrix};
use serde::Serialize;
use std::time::Instant;

const REPS: usize = 7;

#[derive(Serialize)]
struct Kernel {
    shape: String,
    scalar_ns: f64,
    vectorized_ns: f64,
    speedup: f64,
    /// Outputs of the two forms compared bit-for-bit before timing.
    identical: bool,
}

#[derive(Serialize)]
struct Doc {
    bench: String,
    reps: usize,
    host_cpus: usize,
    avx2: bool,
    /// Conjunction of every per-kernel `identical` flag.
    all_identical: bool,
    profile_fold: Kernel,
    profile_fold_prime_pes: Kernel,
    residue_len_fold: Kernel,
    frontier_walk: Kernel,
    spgemm_rowwise: Kernel,
    /// Column-tiled SPA at a B wide enough that the untiled scratch
    /// row blows past L1: one-tile (untiled) walk vs `SPA_TILE_COLS`.
    spgemm_rowwise_wide_tiled: Kernel,
    spmm: Kernel,
    spmm_remainder: Kernel,
    schedule_uniform_col: Kernel,
    schedule_uniform_row: Kernel,
    /// Row-traversal fold on many short rows — the shape where the
    /// residue-major multi-row batch amortizes the lane sweeps.
    schedule_uniform_row_short_rows: Kernel,
}

/// Minimum over `reps` timed runs (after one warmup) — the estimator
/// least sensitive to scheduler noise on a shared host.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn report(name: &str, k: &Kernel) {
    println!(
        "{name:<24} {:<28} scalar {:>9.0} us   lanes {:>9.0} us   {:>5.2}x   identical={}",
        k.shape,
        k.scalar_ns / 1e3,
        k.vectorized_ns / 1e3,
        k.speedup,
        k.identical
    );
}

fn frag_fold_kernel(a: &CsrMatrix, pes: usize) -> Kernel {
    let cols = a.cols();
    let run_scalar = || {
        let mut out = vec![0u32; pes];
        let mut counts = vec![0u32; cols];
        simd::frag_fold_scalar(
            a.rows(),
            a.row_ptr(),
            a.col_idx(),
            pes,
            &mut out,
            Some(&mut counts),
        );
        (out, counts)
    };
    let run_lanes = || {
        let mut out = vec![0u32; pes];
        let mut counts = vec![0u32; cols];
        simd::frag_fold_lanes(
            a.rows(),
            cols,
            a.row_ptr(),
            a.col_idx(),
            pes,
            &mut out,
            Some(&mut counts),
        );
        (out, counts)
    };
    let identical = run_scalar() == run_lanes();
    // Triple reps here: this pair gates the >= 2x assert, and the min
    // estimator needs more draws on a noisy shared host to converge.
    let scalar_ns = time_ns(REPS * 3, || {
        std::hint::black_box(run_scalar());
    });
    let vectorized_ns = time_ns(REPS * 3, || {
        std::hint::black_box(run_lanes());
    });
    Kernel {
        shape: format!("{}x{} nnz={} pes={pes}", a.rows(), a.cols(), a.nnz()),
        scalar_ns,
        vectorized_ns,
        speedup: scalar_ns / vectorized_ns,
        identical,
    }
}

fn spmm_kernel(a: &CsrMatrix, b_cols: usize) -> Kernel {
    let k = a.cols();
    let b: Vec<f32> = (0..k * b_cols).map(|i| ((i * 13 + 5) % 17) as f32 - 8.0).collect();
    let s = spmm_scalar(a, &b, k, b_cols).unwrap();
    let l = spmm_lanes(a, &b, k, b_cols).unwrap();
    let identical = s.len() == l.len() && s.iter().zip(&l).all(|(x, y)| x.to_bits() == y.to_bits());
    let scalar_ns = time_ns(REPS, || {
        std::hint::black_box(spmm_scalar(a, &b, k, b_cols).unwrap());
    });
    let vectorized_ns = time_ns(REPS, || {
        std::hint::black_box(spmm_lanes(a, &b, k, b_cols).unwrap());
    });
    Kernel {
        shape: format!("{}x{} nnz={} B={k}x{b_cols}", a.rows(), a.cols(), a.nnz()),
        scalar_ns,
        vectorized_ns,
        speedup: scalar_ns / vectorized_ns,
        identical,
    }
}

fn schedule_kernel(a: &CsrMatrix, id: DesignId, w: u64) -> Kernel {
    let cfg = DesignConfig::of(id);
    let identical =
        schedule_uniform_walk(a.as_ref(), &cfg, w) == schedule_uniform_lanes(a.as_ref(), &cfg, w);
    let scalar_ns = time_ns(REPS, || {
        std::hint::black_box(schedule_uniform_walk(a.as_ref(), &cfg, w));
    });
    let vectorized_ns = time_ns(REPS, || {
        std::hint::black_box(schedule_uniform_lanes(a.as_ref(), &cfg, w));
    });
    Kernel {
        shape: format!("{}x{} nnz={} {id} w={w}", a.rows(), a.cols(), a.nnz()),
        scalar_ns,
        vectorized_ns,
        speedup: scalar_ns / vectorized_ns,
        identical,
    }
}

fn main() {
    // --- profile fold -----------------------------------------------
    // Dense-enough rows that the fragment scratch, not the row loop,
    // dominates: the shape the streaming profiler sees per chunk.
    let pf = gen::uniform_random(8192, 8192, 0.01, 11);
    let profile_fold = frag_fold_kernel(&pf, 64);
    report("profile_fold", &profile_fold);
    // Prime PE count: the generic residue-table path plus maximal lane
    // remainders everywhere.
    let profile_fold_prime_pes = frag_fold_kernel(&pf, 97);
    report("profile_fold_prime", &profile_fold_prime_pes);

    // --- residue folds ----------------------------------------------
    // Remainder-heavy: 100_003 row lengths over 96 PEs leaves a 67-
    // element tail every sweep.
    let lens: Vec<u32> = (0..100_003u32).map(|i| i.wrapping_mul(2654435761) % 513).collect();
    let pes = 96usize;
    let residue_len_fold = {
        let run = |lanes: bool| {
            let mut sum = vec![0u64; pes];
            let mut max = vec![0u32; pes];
            if lanes {
                simd::residue_len_fold_lanes(pes, &lens, &mut sum, &mut max);
            } else {
                simd::residue_len_fold_scalar(pes, &lens, &mut sum, &mut max);
            }
            (sum, max)
        };
        let identical = run(false) == run(true);
        let scalar_ns = time_ns(REPS * 4, || {
            std::hint::black_box(run(false));
        });
        let vectorized_ns = time_ns(REPS * 4, || {
            std::hint::black_box(run(true));
        });
        Kernel {
            shape: format!("len={} pes={pes}", lens.len()),
            scalar_ns,
            vectorized_ns,
            speedup: scalar_ns / vectorized_ns,
            identical,
        }
    };
    report("residue_len_fold", &residue_len_fold);

    // --- frontier walk ----------------------------------------------
    // A grid-structured label over four well-mixed random features
    // forces a deep tree of balanced splits (peeling noise labels would
    // only grow a chain), and random prediction rows give every split a
    // ~50/50 outcome no branch predictor can learn — the shape where
    // the branchy partition pays a misprediction per row per level.
    let n_rows = 65_536usize;
    let features = 24usize;
    let mix = |z: u64| {
        let z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        let z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        z ^ (z >> 33)
    };
    let rand_f = move |i: usize, j: usize| {
        let h = mix(((i as u64) << 32) | j as u64);
        (h >> 11) as f64 / (1u64 << 53) as f64 * 100.0
    };
    let (tx, ty): (Vec<Vec<f64>>, Vec<usize>) = (0..8192)
        .map(|i| {
            let f: Vec<f64> = (0..features).map(|j| rand_f(i, j)).collect();
            let label = (0..4).map(|j| (f[j] / 12.5) as usize).sum::<usize>() % 4;
            (f, label)
        })
        .unzip();
    let params = TreeParams { max_depth: 16, min_gain: 0.0, ..TreeParams::default() };
    let tree = DecisionTree::fit(&tx, &ty, 4, &params);
    let rows: Vec<Vec<f64>> =
        (0..n_rows).map(|i| (0..features).map(|j| rand_f(i + 1_000_000, j)).collect()).collect();
    let m = FeatureMatrix::from_rows(&rows);
    let frontier_walk = {
        let identical = tree.predict_batch_matrix(&m) == tree.predict_batch_matrix_scalar(&m);
        let scalar_ns = time_ns(REPS, || {
            std::hint::black_box(tree.predict_batch_matrix_scalar(&m));
        });
        let vectorized_ns = time_ns(REPS, || {
            std::hint::black_box(tree.predict_batch_matrix(&m));
        });
        Kernel {
            shape: format!("{n_rows} rows x {features} feats, {} nodes", tree.node_count()),
            scalar_ns,
            vectorized_ns,
            speedup: scalar_ns / vectorized_ns,
            identical,
        }
    };
    report("frontier_walk", &frontier_walk);

    // --- spgemm -----------------------------------------------------
    let sa = gen::uniform_random(2048, 2048, 0.01, 21);
    let sb = gen::uniform_random(2048, 2048, 0.01, 22);
    let spgemm_rowwise = {
        let reference = try_spgemm_rowwise_scalar(&sa, &sb).unwrap();
        let mut ws = SpaWorkspace::new();
        let with_ws = try_spgemm_rowwise_with(&sa, &sb, &mut ws).unwrap();
        let identical = reference.row_ptr() == with_ws.row_ptr()
            && reference.col_idx() == with_ws.col_idx()
            && reference
                .values()
                .iter()
                .zip(with_ws.values())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        let scalar_ns = time_ns(REPS, || {
            std::hint::black_box(try_spgemm_rowwise_scalar(&sa, &sb).unwrap());
        });
        let vectorized_ns = time_ns(REPS, || {
            std::hint::black_box(try_spgemm_rowwise_with(&sa, &sb, &mut ws).unwrap());
        });
        Kernel {
            shape: format!("{}x{} * {}x{}", sa.rows(), sa.cols(), sb.rows(), sb.cols()),
            scalar_ns,
            vectorized_ns,
            speedup: scalar_ns / vectorized_ns,
            identical,
        }
    };
    report("spgemm_rowwise", &spgemm_rowwise);

    // --- spgemm, wide B ---------------------------------------------
    // B past the SPA_WIDE_COLS threshold: the untiled scratch row is
    // 128 KiB of f32 accumulator alone, so every SPA touch misses L1.
    // Baseline is the same cursor walk run as a single full-width tile
    // (untiled behaviour); contender is the production tile width.
    let wa = gen::uniform_random(2048, 2048, 0.01, 23);
    let wb = gen::uniform_random(2048, 2 * SPA_WIDE_COLS, 0.004, 24);
    let spgemm_rowwise_wide_tiled = {
        let mut ws = SpaWorkspace::new();
        let n = wb.cols();
        let reference = try_spgemm_rowwise_scalar(&wa, &wb).unwrap();
        let untiled = try_spgemm_rowwise_tiled(&wa, &wb, &mut ws, n).unwrap();
        let tiled = try_spgemm_rowwise_tiled(&wa, &wb, &mut ws, SPA_TILE_COLS).unwrap();
        let bits_eq = |x: &misam_sparse::CsrMatrix| {
            reference.row_ptr() == x.row_ptr()
                && reference.col_idx() == x.col_idx()
                && reference
                    .values()
                    .iter()
                    .zip(x.values())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        };
        let identical = bits_eq(&untiled) && bits_eq(&tiled);
        let scalar_ns = time_ns(REPS, || {
            std::hint::black_box(try_spgemm_rowwise_tiled(&wa, &wb, &mut ws, n).unwrap());
        });
        let vectorized_ns = time_ns(REPS, || {
            std::hint::black_box(
                try_spgemm_rowwise_tiled(&wa, &wb, &mut ws, SPA_TILE_COLS).unwrap(),
            );
        });
        Kernel {
            shape: format!(
                "{}x{} * {}x{} tile={SPA_TILE_COLS}",
                wa.rows(),
                wa.cols(),
                wb.rows(),
                wb.cols()
            ),
            scalar_ns,
            vectorized_ns,
            speedup: scalar_ns / vectorized_ns,
            identical,
        }
    };
    report("spgemm_wide_tiled", &spgemm_rowwise_wide_tiled);

    // --- spmm -------------------------------------------------------
    let spmm = spmm_kernel(&sa, 32);
    report("spmm", &spmm);
    // Lane remainder on every vector width, odd element count per row.
    let spmm_remainder = spmm_kernel(&sa, 33);
    report("spmm_remainder", &spmm_remainder);

    // --- schedule ---------------------------------------------------
    let sched = gen::uniform_random(4099, 4096, 0.01, 31);
    let schedule_uniform_col = schedule_kernel(&sched, DesignId::D1, 4);
    report("schedule_uniform_col", &schedule_uniform_col);
    let schedule_uniform_row = schedule_kernel(&sched, DesignId::D3, 4);
    report("schedule_uniform_row", &schedule_uniform_row);
    // Many short rows: per-row lane sweeps are all remainder, so the
    // residue-major batch (concatenated rows through one lane map)
    // carries the fold. Same bit-identity gate as the uniform shape.
    let short = gen::uniform_random(262_144, 4096, 0.0015, 33);
    let schedule_uniform_row_short_rows = schedule_kernel(&short, DesignId::D3, 4);
    report("schedule_row_short", &schedule_uniform_row_short_rows);

    let all_identical = [
        &profile_fold,
        &profile_fold_prime_pes,
        &residue_len_fold,
        &frontier_walk,
        &spgemm_rowwise,
        &spgemm_rowwise_wide_tiled,
        &spmm,
        &spmm_remainder,
        &schedule_uniform_col,
        &schedule_uniform_row,
        &schedule_uniform_row_short_rows,
    ]
    .iter()
    .all(|k| k.identical);
    assert!(all_identical, "every vectorized kernel must be bit-identical to its scalar form");
    assert!(
        profile_fold.speedup >= 2.0,
        "profile fold must be >= 2x its scalar reference (got {:.2}x)",
        profile_fold.speedup
    );
    assert!(
        frontier_walk.speedup >= 2.0,
        "frontier walk must be >= 2x the branchy partition (got {:.2}x)",
        frontier_walk.speedup
    );

    let doc = Doc {
        bench: "bench_kernels".into(),
        reps: REPS,
        host_cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
        avx2: cfg!(target_arch = "x86_64") && std::arch::is_x86_feature_detected!("avx2"),
        all_identical,
        profile_fold,
        profile_fold_prime_pes,
        residue_len_fold,
        frontier_walk,
        spgemm_rowwise,
        spgemm_rowwise_wide_tiled,
        spmm,
        spmm_remainder,
        schedule_uniform_col,
        schedule_uniform_row,
        schedule_uniform_row_short_rows,
    };
    let out = serde_json::to_string_pretty(&doc).unwrap();
    std::fs::write("BENCH_kernels.json", &out).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}
