//! Seeded synthetic matrix generators covering the sparsity regimes of the
//! paper's Figure 1.
//!
//! Every generator takes an explicit `seed` and is deterministic, so the
//! datasets, workload suites and experiments built on top of them are
//! reproducible bit-for-bit. The structural classes mirror the application
//! domains the paper draws workloads from:
//!
//! - [`uniform_random`] — Erdős–Rényi style, the unstructured baseline;
//! - [`power_law`] — scale-free graph adjacency (social / web / p2p
//!   networks), heavy row-length skew;
//! - [`banded`] — FEM / CFD stencils (e.g. `sme3Db`, `msc10848`);
//! - [`circuit`] — near-diagonal with a few dense coupling rows
//!   (e.g. `scircuit`);
//! - [`regular_degree`] — near-constant row degree (e.g. `cage12`
//!   DNA-electrophoresis chains);
//! - [`pruned_dnn`] — structured-pruned DNN weight layers at a target
//!   density (the paper's MS regime, STR pruning at 0.1 / 0.2);
//! - [`dense`] — fully dense operands (activations / multiple right-hand
//!   sides);
//! - [`imbalanced_rows`] — explicit load-imbalance stressor used to
//!   exercise Design 3's row-wise scheduler.
//!
//! # Two-stage generation
//!
//! Every family runs in two deterministic stages sharing one seeded RNG
//! discipline:
//!
//! 1. **Structure stage** — `StdRng::seed_from_u64(seed ^ FAMILY_SALT)`
//!    samples only row placements (a start and a length per row) and
//!    emits a [`Structure`] in O(rows). No element arrays are allocated.
//!    Each row's columns form one contiguous — possibly cyclically
//!    wrapping — run, which preserves each family's defining statistics
//!    (density, row-length skew, bandedness, block alignment, degree
//!    regularity, imbalance) while making profile synthesis
//!    ([`crate::MatrixProfile::synthesize`]) and compressed-dataflow
//!    cost scheduling closed-form.
//! 2. **Fill stage** — `StdRng::seed_from_u64(seed ^ FAMILY_SALT ^
//!    VALUE_SALT)` draws element values row by row in ascending column
//!    order, but only when a consumer materializes the
//!    [`LazyMatrix`]. Labeling pipelines that read structure alone never
//!    run it.
//!
//! Each `*_lazy` function returns the un-materialized form; the classic
//! CSR-returning names delegate to it and materialize immediately, so
//! `family(args) == family_lazy(args).into_csr()` bit-for-bit.
//! [`FAMILIES`] names six of them for callers that pick a family by
//! string and shape it by a target density (the server's generator
//! requests and the `misam gen` subcommand).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::structure::Structure;
use crate::{CsrMatrix, LazyMatrix};

/// XOR-folded into a family's salt to derive its independent fill-stage
/// value stream from the same user seed.
const VALUE_SALT: u64 = 0xf111_b175_0000_0001;

/// Coarse sparsity regime labels used throughout the paper (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SparsityRegime {
    /// Density below 2% — SuiteSparse-class scientific/graph matrices.
    HighlySparse,
    /// Density in `[2%, 50%)` — pruned DNN weights and similar.
    ModeratelySparse,
    /// Density of 50% or more.
    Dense,
}

impl SparsityRegime {
    /// Classifies a density value into a regime.
    ///
    /// ```
    /// use misam_sparse::gen::SparsityRegime;
    /// assert_eq!(SparsityRegime::classify(1e-4), SparsityRegime::HighlySparse);
    /// assert_eq!(SparsityRegime::classify(0.15), SparsityRegime::ModeratelySparse);
    /// assert_eq!(SparsityRegime::classify(0.9), SparsityRegime::Dense);
    /// ```
    pub fn classify(density: f64) -> Self {
        if density >= 0.5 {
            SparsityRegime::Dense
        } else if density >= 0.02 {
            SparsityRegime::ModeratelySparse
        } else {
            SparsityRegime::HighlySparse
        }
    }

    /// The two-letter abbreviation the paper uses (HS / MS / D).
    pub fn abbrev(self) -> &'static str {
        match self {
            SparsityRegime::HighlySparse => "HS",
            SparsityRegime::ModeratelySparse => "MS",
            SparsityRegime::Dense => "D",
        }
    }
}

impl std::fmt::Display for SparsityRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

fn value(rng: &mut StdRng) -> f32 {
    crate::structure::fill_value(rng)
}

/// Capacity of the precomputed CDF table in [`Binomial::Table`]. With
/// the half-mean capped at 32 (σ ≤ √32 ≈ 5.7), index 127 sits ~16σ past
/// the mean, so the truncated tail mass is far below the 1e-12 cutoff.
const BINOMIAL_TABLE_CAP: usize = 128;

/// Precomputed binomial sampler `Binomial(n, p)` for the structure
/// stage. Construction does the per-distribution work (a CDF table in
/// the small-mean regime, moment constants otherwise) so generators
/// that draw thousands of rows from one distribution pay it once and
/// each row costs O(1) RNG draws plus a table lookup.
///
/// RNG-stream contract — the number of uniforms consumed per draw is
/// part of the seeded output format, so the regimes below are frozen
/// (changing them changes every downstream structure stream):
///
/// - degenerate (`n == 0`, `p <= 0`, `p >= 1`): zero draws;
/// - `n * min(p, 1 - p) <= 32`: exactly one uniform per draw, inverted
///   against the CDF table (exact distribution up to a 1e-12 tail
///   truncation; `p > 1/2` is drawn as `n - Binomial(n, 1 - p)`);
/// - otherwise: exactly two uniforms per draw (Box–Muller normal
///   approximation, matching the legacy large-`n` regime).
enum Binomial {
    /// Degenerate distribution: always this value, zero draws.
    Const(usize),
    /// Small-mean regime: CDF inversion. `cdf[k] = P(X <= k)` for the
    /// half distribution; `flip` maps a draw `k` to `n - k`. Boxed: the
    /// table dwarfs the other variants, and samplers are built once per
    /// distribution, so the indirection is off the per-row path.
    Table { cdf: Box<[f64; BINOMIAL_TABLE_CAP]>, len: usize, n: usize, flip: bool },
    /// Large-mean regime: Box–Muller normal approximation.
    Normal { n: usize, mean: f64, sd: f64 },
}

impl Binomial {
    fn new(n: usize, p: f64) -> Binomial {
        if n == 0 || p <= 0.0 {
            return Binomial::Const(0);
        }
        if p >= 1.0 {
            return Binomial::Const(n);
        }
        // Work with the half of the distribution whose success
        // probability is <= 1/2 so pmf(0) = q^n never underflows.
        let (ph, flip) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
        if n as f64 * ph <= 32.0 {
            let q = 1.0 - ph;
            let s = ph / q;
            let mut pmf = (n as f64 * q.ln()).exp();
            let mut cdf = Box::new([0.0f64; BINOMIAL_TABLE_CAP]);
            let mut acc = 0.0;
            let mut len = 0usize;
            loop {
                acc += pmf;
                cdf[len] = acc;
                let k = len;
                len += 1;
                if acc >= 1.0 - 1e-12 || k >= n || len == BINOMIAL_TABLE_CAP {
                    break;
                }
                // pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/q.
                pmf *= (n - k) as f64 / (k + 1) as f64 * s;
            }
            Binomial::Table { cdf, len, n, flip }
        } else {
            let mean = n as f64 * p;
            Binomial::Normal { n, mean, sd: (mean * (1.0 - p)).sqrt() }
        }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        match self {
            Binomial::Const(k) => *k,
            Binomial::Table { cdf, len, n, flip } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                let k = cdf[..*len].partition_point(|&c| c <= u).min(len - 1);
                if *flip {
                    n - k
                } else {
                    k
                }
            }
            Binomial::Normal { n, mean, sd } => {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (mean + sd * z).round().clamp(0.0, *n as f64) as usize
            }
        }
    }
}

/// One-shot `Binomial(n, p)` draw (see [`Binomial`] for the RNG-stream
/// contract). Generators with a fixed per-row distribution should hoist
/// a [`Binomial`] out of the row loop instead; the streams are
/// identical either way — the small-mean arm below accumulates the CDF
/// on the fly against the same uniform, mirroring the table's
/// termination rules, instead of materializing the table per call.
fn binomial_fast(rng: &mut StdRng, n: usize, p: f64) -> usize {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let (ph, flip) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
    if n as f64 * ph <= 32.0 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let q = 1.0 - ph;
        let s = ph / q;
        let mut pmf = (n as f64 * q.ln()).exp();
        let mut acc = pmf;
        let mut k = 0usize;
        while acc <= u && acc < 1.0 - 1e-12 && k < n && k + 1 < BINOMIAL_TABLE_CAP {
            pmf *= (n - k) as f64 / (k + 1) as f64 * s;
            k += 1;
            acc += pmf;
        }
        if flip {
            n - k
        } else {
            k
        }
    } else {
        Binomial::new(n, p).draw(rng)
    }
}

/// Uniform run placement helper: a cyclic start for a non-empty row.
#[inline]
fn uniform_start(rng: &mut StdRng, cols: usize, k: usize) -> u32 {
    if k > 0 {
        rng.gen_range(0..cols) as u32
    } else {
        0
    }
}

/// Structure stage of [`uniform_random`]: each row carries a
/// `Binomial(cols, density)`-sized run at a uniform cyclic start, so the
/// matrix hits the target density with independent per-row counts.
///
/// # Panics
///
/// Panics if `density` is outside `[0, 1]`.
pub fn uniform_random_lazy(rows: usize, cols: usize, density: f64, seed: u64) -> LazyMatrix {
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
    let bin = Binomial::new(cols, density);
    let mut starts = Vec::with_capacity(rows);
    let mut lens = Vec::with_capacity(rows);
    for _ in 0..rows {
        let k = bin.draw(&mut rng);
        starts.push(uniform_start(&mut rng, cols, k));
        lens.push(k as u32);
    }
    LazyMatrix::new(Structure::runs(rows, cols, starts, lens), seed ^ 0x5eed_0001 ^ VALUE_SALT)
}

/// Generates an Erdős–Rényi style random matrix at the target `density`.
///
/// # Panics
///
/// Panics if `density` is outside `[0, 1]`.
pub fn uniform_random(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    uniform_random_lazy(rows, cols, density, seed).into_csr()
}

/// Structure stage of [`power_law`]: Zipf row lengths (shuffled so hubs
/// land on random row indices) with hub-biased run starts — `u²`
/// concentrates run starts on low columns, giving the column-occupancy
/// skew of scale-free adjacency.
///
/// # Panics
///
/// Panics if `alpha <= 0`.
pub fn power_law_lazy(rows: usize, cols: usize, avg_nnz: f64, alpha: f64, seed: u64) -> LazyMatrix {
    assert!(alpha > 0.0, "alpha must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0002);
    let vseed = seed ^ 0x5eed_0002 ^ VALUE_SALT;
    if rows == 0 || cols == 0 {
        return LazyMatrix::new(Structure::empty(rows, cols), vseed);
    }
    // Zipf row weights, shuffled so hubs land on random row indices.
    let mut weights: Vec<f64> = (0..rows).map(|i| 1.0 / ((i + 1) as f64).powf(alpha)).collect();
    let wsum: f64 = weights.iter().sum();
    let total = avg_nnz * rows as f64;
    for w in &mut weights {
        *w = *w / wsum * total;
    }
    for i in (1..rows).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }
    let mut starts = Vec::with_capacity(rows);
    let mut lens = Vec::with_capacity(rows);
    for &w in &weights {
        let k = (w.round().max(0.0) as usize).min(cols);
        let u: f64 = rng.gen_range(0.0..1.0);
        starts.push((((u * u) * cols as f64) as usize % cols) as u32);
        lens.push(k as u32);
    }
    LazyMatrix::new(Structure::runs(rows, cols, starts, lens), vseed)
}

/// Generates a scale-free (power-law) adjacency-like matrix with `avg_nnz`
/// nonzeros per row on average and row-degree exponent `alpha` (larger
/// `alpha` ⇒ heavier skew). Columns are hub-biased, mimicking social /
/// p2p / co-authorship graphs.
///
/// # Panics
///
/// Panics if `alpha <= 0`.
pub fn power_law(rows: usize, cols: usize, avg_nnz: f64, alpha: f64, seed: u64) -> CsrMatrix {
    power_law_lazy(rows, cols, avg_nnz, alpha, seed).into_csr()
}

/// Structure stage of [`rmat`]: the edge budget is split across rows by
/// a recursive binomial descent with top-half probability `a + b` (the
/// R-MAT row marginal), then each non-empty row anchors its run with a
/// column-wise quadrant descent using the left-half marginal `a + c`.
/// Skew and community bias match the element-wise descent while using
/// O(rows) draws instead of O(nnz).
///
/// # Panics
///
/// Panics if the probabilities are not positive or do not sum to ~1.
pub fn rmat_lazy(
    rows: usize,
    cols: usize,
    nnz_target: usize,
    probs: (f64, f64, f64, f64),
    seed: u64,
) -> LazyMatrix {
    let (a, b, c, d) = probs;
    assert!(a > 0.0 && b > 0.0 && c > 0.0 && d > 0.0, "quadrant probabilities must be positive");
    assert!(((a + b + c + d) - 1.0).abs() < 1e-6, "quadrant probabilities must sum to 1");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_000a);
    let vseed = seed ^ 0x5eed_000a ^ VALUE_SALT;
    if rows == 0 || cols == 0 {
        return LazyMatrix::new(Structure::empty(rows, cols), vseed);
    }
    // Row marginal: recursively split the budget between the top and
    // bottom halves (depth-first, top-first, so the draw order is a
    // deterministic function of the dimensions alone).
    let p_top = a + b;
    let mut counts = vec![0usize; rows];
    let mut stack = vec![(0usize, rows, nnz_target)];
    while let Some((lo, hi, n)) = stack.pop() {
        if n == 0 {
            continue;
        }
        if hi - lo == 1 {
            counts[lo] = n;
            continue;
        }
        let mid = lo + ((hi - lo) / 2).max(1);
        let top = binomial_fast(&mut rng, n, p_top);
        stack.push((mid, hi, n - top));
        stack.push((lo, mid, top));
    }
    // Column marginal: each non-empty row anchors its run at the cell a
    // left/right quadrant descent lands on.
    let p_left = a + c;
    let mut starts = Vec::with_capacity(rows);
    let mut lens = Vec::with_capacity(rows);
    for &count in &counts {
        let k = count.min(cols);
        if k == 0 {
            starts.push(0);
            lens.push(0);
            continue;
        }
        let (mut c_lo, mut c_hi) = (0usize, cols);
        while c_hi - c_lo > 1 {
            let mid = c_lo + ((c_hi - c_lo) / 2).max(1);
            if rng.gen_bool(p_left) {
                c_hi = mid;
            } else {
                c_lo = mid;
            }
        }
        starts.push(c_lo as u32);
        lens.push(k as u32);
    }
    LazyMatrix::new(Structure::runs(rows, cols, starts, lens), vseed)
}

/// Generates an R-MAT (recursive-matrix) graph adjacency in the style of
/// Graph500: the `nnz_target` edge budget is distributed by descending
/// the adjacency quadtree with quadrant probabilities `(a, b, c, d)`.
/// The classic skewed setting `(0.57, 0.19, 0.19, 0.05)` yields
/// heavy-tailed degree distributions with community structure — a
/// sharper model of web/social graphs than [`power_law`].
///
/// Rows whose share of the budget exceeds the column count are clamped,
/// so the resulting nnz can be slightly below `nnz_target` (more so at
/// high skew).
///
/// # Panics
///
/// Panics if the probabilities are not positive or do not sum to ~1.
pub fn rmat(
    rows: usize,
    cols: usize,
    nnz_target: usize,
    probs: (f64, f64, f64, f64),
    seed: u64,
) -> CsrMatrix {
    rmat_lazy(rows, cols, nnz_target, probs, seed).into_csr()
}

/// Structure stage of [`banded`]: each row places one
/// diagonal-containing run of `1 + Binomial(band_width - 1, fill)`
/// columns uniformly inside its band window, so every element stays in
/// the band and the diagonal is always present.
///
/// # Panics
///
/// Panics if `fill` is outside `[0, 1]`.
pub fn banded_lazy(rows: usize, cols: usize, bandwidth: usize, fill: f64, seed: u64) -> LazyMatrix {
    assert!((0.0..=1.0).contains(&fill), "fill must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0003);
    // Interior rows (band fully inside the matrix) share one window
    // width; only the first/last `bandwidth` rows differ.
    let interior = Binomial::new(2 * bandwidth, fill);
    let mut starts = Vec::with_capacity(rows);
    let mut lens = Vec::with_capacity(rows);
    for r in 0..rows {
        let lo = r.saturating_sub(bandwidth);
        let hi = (r + bandwidth + 1).min(cols);
        if lo >= hi {
            starts.push(0);
            lens.push(0);
            continue;
        }
        let diag = r.min(cols - 1);
        let window = hi - lo - 1;
        let k = 1 + if window == 2 * bandwidth {
            interior.draw(&mut rng)
        } else {
            binomial_fast(&mut rng, window, fill)
        };
        let s_lo = lo.max((diag + 1).saturating_sub(k));
        let s_hi = diag.min(hi - k);
        let start = if s_hi > s_lo { rng.gen_range(s_lo..=s_hi) } else { s_lo };
        starts.push(start as u32);
        lens.push(k as u32);
    }
    LazyMatrix::new(Structure::runs(rows, cols, starts, lens), seed ^ 0x5eed_0003 ^ VALUE_SALT)
}

/// Generates a banded FEM/CFD-style matrix: full diagonal, dense band of
/// half-width `bandwidth` with fill probability `fill`.
///
/// # Panics
///
/// Panics if `fill` is outside `[0, 1]`.
pub fn banded(rows: usize, cols: usize, bandwidth: usize, fill: f64, seed: u64) -> CsrMatrix {
    banded_lazy(rows, cols, bandwidth, fill, seed).into_csr()
}

/// Structure stage of [`mesh2d`]: fully determined by the grid, no RNG.
pub fn mesh2d_lazy(nx: usize, ny: usize) -> LazyMatrix {
    LazyMatrix::new(Structure::Mesh2d { nx, ny }, 0)
}

/// Generates the 5-point finite-difference stencil over an `nx x ny`
/// grid: the classic 2-D Poisson/Laplace system matrix
/// (`(nx*ny) x (nx*ny)`, ≤ 5 nonzeros per row, strictly banded).
pub fn mesh2d(nx: usize, ny: usize) -> CsrMatrix {
    mesh2d_lazy(nx, ny).into_csr()
}

/// Structure stage of [`mesh3d`]: fully determined by the grid, no RNG.
pub fn mesh3d_lazy(nx: usize, ny: usize, nz: usize) -> LazyMatrix {
    LazyMatrix::new(Structure::Mesh3d { nx, ny, nz }, 0)
}

/// Generates the 7-point stencil over an `nx x ny x nz` grid — the 3-D
/// Poisson system (`poisson3Da`-class structure from Table 3).
pub fn mesh3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    mesh3d_lazy(nx, ny, nz).into_csr()
}

/// Structure stage of [`circuit`]: regular rows carry a short
/// diagonal-containing run of `1 + Binomial(cols - 1, avg_off_diag /
/// cols)` columns; supply-rail rows (at the same deterministic positions
/// as ever) carry a `max(cols/10, 8)`-column run instead.
pub fn circuit_lazy(
    rows: usize,
    cols: usize,
    avg_off_diag: f64,
    dense_rows: usize,
    seed: u64,
) -> LazyMatrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0004);
    let vseed = seed ^ 0x5eed_0004 ^ VALUE_SALT;
    if cols == 0 {
        return LazyMatrix::new(Structure::empty(rows, cols), vseed);
    }
    let n_dense = dense_rows.min(rows);
    let mut rail = vec![false; rows];
    for d in 0..n_dense {
        rail[(d * rows / n_dense.max(1) + 7) % rows] = true;
    }
    let rail_k = (cols / 10).max(8).min(cols);
    let p = (avg_off_diag / cols as f64).clamp(0.0, 1.0);
    let bin = Binomial::new(cols - 1, p);
    let mut starts = Vec::with_capacity(rows);
    let mut lens = Vec::with_capacity(rows);
    for (r, &is_rail) in rail.iter().enumerate() {
        let k = if is_rail {
            rail_k
        } else {
            let off = bin.draw(&mut rng);
            if r < cols {
                1 + off
            } else {
                off
            }
        };
        if k == 0 {
            starts.push(0);
            lens.push(0);
            continue;
        }
        let start = if r < cols {
            // Diagonal-containing placement within [0, cols).
            let s_lo = (r + 1).saturating_sub(k);
            let s_hi = r.min(cols - k);
            if s_hi > s_lo {
                rng.gen_range(s_lo..=s_hi)
            } else {
                s_lo
            }
        } else {
            rng.gen_range(0..cols)
        };
        starts.push(start as u32);
        lens.push(k as u32);
    }
    LazyMatrix::new(Structure::runs(rows, cols, starts, lens), vseed)
}

/// Generates a circuit-simulation-style matrix: diagonal plus sparse
/// couplings, plus `dense_rows` rows (supply rails) that touch a large
/// share of columns.
pub fn circuit(
    rows: usize,
    cols: usize,
    avg_off_diag: f64,
    dense_rows: usize,
    seed: u64,
) -> CsrMatrix {
    circuit_lazy(rows, cols, avg_off_diag, dense_rows, seed).into_csr()
}

/// Structure stage of [`regular_degree`]: every row carries exactly
/// `deg` columns in one run jittered around the scaled diagonal,
/// mirroring the locally clustered constant-degree structure of
/// cage-class matrices.
pub fn regular_degree_lazy(rows: usize, cols: usize, deg: usize, seed: u64) -> LazyMatrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0005);
    let vseed = seed ^ 0x5eed_0005 ^ VALUE_SALT;
    if cols == 0 {
        return LazyMatrix::new(Structure::empty(rows, cols), vseed);
    }
    let k = deg.min(cols);
    let span = (cols / 64).max(4).min(cols);
    let mut starts = Vec::with_capacity(rows);
    let mut lens = Vec::with_capacity(rows);
    for r in 0..rows {
        let center = (r as f64 / rows.max(1) as f64 * cols as f64) as usize;
        let off = rng.gen_range(0..span * 2 + 1) as i64 - span as i64;
        let start = (center as i64 + off - (k / 2) as i64).rem_euclid(cols as i64) as usize;
        starts.push(start as u32);
        lens.push(k as u32);
    }
    LazyMatrix::new(Structure::runs(rows, cols, starts, lens), vseed)
}

/// Generates a matrix with constant row degree `deg` and locally
/// clustered columns, like diffusion/cage matrices.
pub fn regular_degree(rows: usize, cols: usize, deg: usize, seed: u64) -> CsrMatrix {
    regular_degree_lazy(rows, cols, deg, seed).into_csr()
}

/// Structure stage of [`pruned_dnn`]: each row keeps `round(blocks *
/// density)` *consecutive* 4-wide blocks starting at a uniform block
/// offset (cyclically wrapping), so per-row nnz stays uniform and every
/// kept chunk is block-aligned.
///
/// # Panics
///
/// Panics if `density` is outside `[0, 1]`.
pub fn pruned_dnn_lazy(rows: usize, cols: usize, density: f64, seed: u64) -> LazyMatrix {
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0006);
    let vseed = seed ^ 0x5eed_0006 ^ VALUE_SALT;
    const BLOCK: usize = 4;
    if cols == 0 {
        return LazyMatrix::new(Structure::empty(rows, cols), vseed);
    }
    let blocks = cols.div_ceil(BLOCK);
    let keep = ((blocks as f64 * density).round() as usize).min(blocks);
    // The last block may be narrower than BLOCK on ragged widths.
    let last_width = cols - BLOCK * (blocks - 1);
    let mut starts = Vec::with_capacity(rows);
    let mut lens = Vec::with_capacity(rows);
    for _ in 0..rows {
        if keep == 0 {
            starts.push(0);
            lens.push(0);
            continue;
        }
        let sb = rng.gen_range(0..blocks);
        let covers_last = sb + keep >= blocks;
        let len = keep * BLOCK - if covers_last { BLOCK - last_width } else { 0 };
        starts.push((sb * BLOCK) as u32);
        lens.push(len as u32);
    }
    LazyMatrix::new(Structure::runs(rows, cols, starts, lens), vseed)
}

/// Generates a structured-pruned DNN weight matrix at the given `density`,
/// using block pruning with 4-wide column blocks (the STR-style structured
/// regime of the paper's MS workloads): each row keeps a uniform-offset
/// subset of blocks so per-row nnz is uniform.
///
/// # Panics
///
/// Panics if `density` is outside `[0, 1]`.
pub fn pruned_dnn(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    pruned_dnn_lazy(rows, cols, density, seed).into_csr()
}

/// Structure stage of [`dense`]: every row is a full run, no RNG.
pub fn dense_lazy(rows: usize, cols: usize, seed: u64) -> LazyMatrix {
    LazyMatrix::new(
        Structure::runs(rows, cols, vec![0; rows], vec![cols as u32; rows]),
        seed ^ 0x5eed_0007 ^ VALUE_SALT,
    )
}

/// Generates a fully dense matrix as CSR (every entry stored).
pub fn dense(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    dense_lazy(rows, cols, seed).into_csr()
}

/// Generates a dense row-major buffer (for SpMM right-hand sides).
pub fn dense_buffer(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0008);
    (0..rows * cols).map(|_| value(&mut rng)).collect()
}

/// Structure stage of [`imbalanced_rows`]: heavy rows are scattered at
/// the same deterministic stride positions as ever; every row then
/// carries its fixed count in a run at a uniform cyclic start.
pub fn imbalanced_rows_lazy(
    rows: usize,
    cols: usize,
    heavy_frac: f64,
    heavy_nnz: usize,
    light_nnz: usize,
    seed: u64,
) -> LazyMatrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0009);
    let n_heavy = ((rows as f64 * heavy_frac).round() as usize).min(rows);
    // Scatter heavy rows across the index space deterministically.
    let mut heavy = vec![false; rows];
    if n_heavy > 0 {
        let stride = rows.max(1) / n_heavy.max(1);
        let mut r = stride / 2;
        for _ in 0..n_heavy {
            heavy[r.min(rows - 1)] = true;
            r += stride.max(1);
            if r >= rows {
                r = rng.gen_range(0..rows);
            }
        }
    }
    let mut starts = Vec::with_capacity(rows);
    let mut lens = Vec::with_capacity(rows);
    for &h in &heavy {
        let k = if h { heavy_nnz.min(cols) } else { light_nnz.min(cols) };
        starts.push(uniform_start(&mut rng, cols, k));
        lens.push(k as u32);
    }
    LazyMatrix::new(Structure::runs(rows, cols, starts, lens), seed ^ 0x5eed_0009 ^ VALUE_SALT)
}

/// Generates a matrix with deliberate row-length imbalance: a fraction
/// `heavy_frac` of rows carry `heavy_nnz` nonzeros each while the rest
/// carry `light_nnz`. This is the structural signal behind the paper's
/// `A_load_imbalance_row` feature and Design 3's advantage (§3.2.3).
pub fn imbalanced_rows(
    rows: usize,
    cols: usize,
    heavy_frac: f64,
    heavy_nnz: usize,
    light_nnz: usize,
    seed: u64,
) -> CsrMatrix {
    imbalanced_rows_lazy(rows, cols, heavy_frac, heavy_nnz, light_nnz, seed).into_csr()
}

/// A named family's structure stage at `(rows, cols, density, seed)`.
pub type FamilyFn = fn(usize, usize, f64, u64) -> LazyMatrix;

/// The generator families reachable by name — the one mapping from a
/// family name and a target density to each family's own parameters,
/// shared by the server's `GenSpec` and the `misam gen` subcommand.
/// Every entry returns the lazy (structure-first) form; callers that
/// need elements materialize it.
pub const FAMILIES: [(&str, FamilyFn); 6] = [
    ("uniform", uniform_random_lazy),
    ("power-law", |rows, cols, density, seed| {
        power_law_lazy(rows, cols, (density * cols as f64).max(1.0), 1.5, seed)
    }),
    ("banded", |rows, cols, density, seed| {
        let bw = ((density * cols as f64 / 1.4).ceil() as usize).max(1);
        banded_lazy(rows, cols, bw, 0.7, seed)
    }),
    ("pruned-dnn", pruned_dnn_lazy),
    ("regular", |rows, cols, density, seed| {
        regular_degree_lazy(rows, cols, ((density * cols as f64).round() as usize).max(1), seed)
    }),
    ("circuit", |rows, cols, density, seed| {
        circuit_lazy(rows, cols, density * cols as f64, (rows / 256).max(1), seed)
    }),
];

/// Looks `kind` up in [`FAMILIES`] and runs its structure stage; `None`
/// for an unknown name.
///
/// # Panics
///
/// Panics where the family's own generator does (a `density` outside
/// `[0, 1]` for `uniform` and `pruned-dnn`).
pub fn family_lazy(
    kind: &str,
    rows: usize,
    cols: usize,
    density: f64,
    seed: u64,
) -> Option<LazyMatrix> {
    let (_, build) = FAMILIES.iter().find(|(name, _)| *name == kind)?;
    Some(build(rows, cols, density, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_classification_boundaries() {
        assert_eq!(SparsityRegime::classify(0.0), SparsityRegime::HighlySparse);
        assert_eq!(SparsityRegime::classify(0.019), SparsityRegime::HighlySparse);
        assert_eq!(SparsityRegime::classify(0.02), SparsityRegime::ModeratelySparse);
        assert_eq!(SparsityRegime::classify(0.499), SparsityRegime::ModeratelySparse);
        assert_eq!(SparsityRegime::classify(0.5), SparsityRegime::Dense);
        assert_eq!(SparsityRegime::classify(1.0), SparsityRegime::Dense);
        assert_eq!(SparsityRegime::HighlySparse.to_string(), "HS");
    }

    #[test]
    fn uniform_random_hits_target_density() {
        let m = uniform_random(200, 200, 0.1, 42);
        let d = m.density();
        assert!((d - 0.1).abs() < 0.02, "density {d} too far from 0.1");
    }

    #[test]
    fn generators_are_deterministic() {
        let a = power_law(100, 100, 5.0, 1.5, 9);
        let b = power_law(100, 100, 5.0, 1.5, 9);
        assert_eq!(a, b);
        let c = power_law(100, 100, 5.0, 1.5, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn lazy_and_eager_forms_agree() {
        let eager = uniform_random(96, 128, 0.07, 21);
        let lazy = uniform_random_lazy(96, 128, 0.07, 21);
        assert_eq!(lazy.nnz(), eager.nnz());
        assert_eq!(*lazy.materialize(), eager);

        let eager = power_law(80, 80, 5.0, 1.4, 3);
        assert_eq!(power_law_lazy(80, 80, 5.0, 1.4, 3).into_csr(), eager);
    }

    #[test]
    fn power_law_is_skewed() {
        let m = power_law(500, 500, 8.0, 1.4, 3);
        let max_row = (0..500).map(|r| m.row_nnz(r)).max().unwrap();
        let avg = m.nnz() as f64 / 500.0;
        assert!(max_row as f64 > 3.0 * avg, "max {max_row} vs avg {avg} not skewed");
    }

    #[test]
    fn rmat_produces_skewed_connected_structure() {
        let m = rmat(1024, 1024, 16_000, (0.57, 0.19, 0.19, 0.05), 7);
        // Hub rows clamp at the column count, so nnz is close to but
        // at most the target.
        assert!(m.nnz() > 8_000 && m.nnz() <= 16_000, "nnz {}", m.nnz());
        let max_row = (0..1024).map(|r| m.row_nnz(r)).max().unwrap();
        let avg = m.nnz() as f64 / 1024.0;
        assert!(max_row as f64 > 4.0 * avg, "R-MAT should be heavy-tailed");
        // Deterministic per seed.
        assert_eq!(m, rmat(1024, 1024, 16_000, (0.57, 0.19, 0.19, 0.05), 7));
    }

    #[test]
    fn rmat_uniform_probs_are_near_uniform() {
        let m = rmat(256, 256, 6000, (0.25, 0.25, 0.25, 0.25), 8);
        let max_row = (0..256).map(|r| m.row_nnz(r)).max().unwrap();
        let avg = m.nnz() as f64 / 256.0;
        assert!(
            (max_row as f64) < 4.0 * avg,
            "uniform quadrants should not concentrate: max {max_row} avg {avg:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_rejects_bad_probabilities() {
        rmat(16, 16, 10, (0.5, 0.5, 0.5, 0.5), 1);
    }

    #[test]
    fn banded_stays_in_band() {
        let m = banded(64, 64, 3, 0.8, 5);
        for (r, c, _) in m.iter() {
            assert!((r as i64 - c as i64).unsigned_abs() as usize <= 3);
        }
        // Diagonal always present.
        for r in 0..64 {
            assert!(m.get(r, r).is_some(), "missing diagonal at {r}");
        }
    }

    #[test]
    fn banded_handles_wide_matrices() {
        let m = banded(8, 64, 2, 0.5, 11);
        for (r, c, _) in m.iter() {
            assert!((r as i64 - c as i64).unsigned_abs() as usize <= 2);
        }
        for r in 0..8 {
            assert!(m.get(r, r).is_some());
        }
    }

    #[test]
    fn mesh2d_is_the_classic_poisson_stencil() {
        let m = mesh2d(4, 3);
        assert_eq!(m.rows(), 12);
        // Interior point (1,1) = index 5 has all 5 stencil entries.
        assert_eq!(m.row_nnz(5), 5);
        assert_eq!(m.get(5, 5), Some(4.0));
        assert_eq!(m.get(5, 4), Some(-1.0)); // west
        assert_eq!(m.get(5, 6), Some(-1.0)); // east
        assert_eq!(m.get(5, 1), Some(-1.0)); // south
        assert_eq!(m.get(5, 9), Some(-1.0)); // north
                                             // Corner has only 3 entries; matrix is symmetric.
        assert_eq!(m.row_nnz(0), 3);
        let mt = m.transpose();
        assert_eq!(m, mt);
        // nnz = 5n - 2*(nx + ny) boundary corrections.
        assert_eq!(m.nnz(), 5 * 12 - 2 * 4 - 2 * 3);
    }

    #[test]
    fn mesh3d_matches_seven_point_structure() {
        let m = mesh3d(3, 3, 3);
        assert_eq!(m.rows(), 27);
        // Center of the cube — (x, y, z) = (1, 1, 1) — has the full
        // 7-point stencil.
        let center = 13;
        assert_eq!(m.row_nnz(center), 7);
        assert_eq!(m.get(center, center), Some(6.0));
        assert_eq!(m, m.transpose());
        // Row sums: interior rows sum to 6 - 6 = 0 (discrete Laplacian).
        let sums: f32 = m.row(center).values().iter().sum();
        assert_eq!(sums, 0.0);
    }

    #[test]
    fn circuit_has_dense_rail_rows() {
        let m = circuit(200, 200, 3.0, 4, 6);
        let max_row = (0..200).map(|r| m.row_nnz(r)).max().unwrap();
        assert!(max_row >= 20, "rail rows should be much denser, max {max_row}");
        // Regular rows keep the diagonal.
        let mut diag_present = 0;
        for r in 0..200 {
            if m.get(r, r).is_some() {
                diag_present += 1;
            }
        }
        assert!(diag_present >= 196, "diagonal present on non-rail rows");
    }

    #[test]
    fn regular_degree_rows_are_uniform() {
        let m = regular_degree(128, 256, 8, 2);
        for r in 0..128 {
            assert_eq!(m.row_nnz(r), 8);
        }
    }

    #[test]
    fn pruned_dnn_is_block_structured_and_balanced() {
        let m = pruned_dnn(64, 256, 0.2, 8);
        let first = m.row_nnz(0);
        for r in 0..64 {
            assert_eq!(m.row_nnz(r), first, "structured pruning keeps rows balanced");
        }
        assert!((m.density() - 0.2).abs() < 0.05);
        // Entries come in 4-wide blocks.
        for r in 0..64 {
            let cols: Vec<usize> = m.row(r).iter().map(|(c, _)| c).collect();
            for chunk in cols.chunks(4) {
                assert_eq!(chunk.len(), 4);
                assert_eq!(chunk[0] % 4, 0, "block starts aligned");
                assert_eq!(chunk[3], chunk[0] + 3, "block contiguous");
            }
        }
    }

    #[test]
    fn dense_generator_is_full() {
        let m = dense(8, 8, 1);
        assert_eq!(m.nnz(), 64);
        assert_eq!(SparsityRegime::classify(m.density()), SparsityRegime::Dense);
    }

    #[test]
    fn imbalanced_rows_creates_imbalance() {
        let m = imbalanced_rows(100, 1000, 0.05, 200, 5, 4);
        let max_row = (0..100).map(|r| m.row_nnz(r)).max().unwrap();
        let avg = m.nnz() as f64 / 100.0;
        assert_eq!(max_row, 200);
        assert!(max_row as f64 / avg > 5.0);
    }

    #[test]
    fn zero_sized_generators_are_safe() {
        assert_eq!(uniform_random(0, 10, 0.5, 1).nnz(), 0);
        assert_eq!(power_law(0, 0, 3.0, 1.2, 1).nnz(), 0);
        assert_eq!(pruned_dnn(4, 0, 0.5, 1).nnz(), 0);
        assert_eq!(rmat_lazy(0, 8, 100, (0.25, 0.25, 0.25, 0.25), 1).nnz(), 0);
        assert_eq!(circuit(4, 0, 2.0, 1, 1).nnz(), 0);
        assert_eq!(regular_degree(4, 0, 3, 1).nnz(), 0);
    }

    #[test]
    fn binomial_fast_mean_is_reasonable_in_every_regime() {
        let mut rng = StdRng::seed_from_u64(78);
        // Bernoulli regime (n <= 16).
        let total: usize = (0..2000).map(|_| binomial_fast(&mut rng, 12, 0.25)).sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 3.0).abs() < 0.2, "small-n mean {mean} off");
        // Geometric-skip regime (small expected count).
        let total: usize = (0..2000).map(|_| binomial_fast(&mut rng, 10_000, 0.002)).sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 20.0).abs() < 1.0, "geometric mean {mean} off");
        // Normal regime (large expected count).
        let total: usize = (0..2000).map(|_| binomial_fast(&mut rng, 10_000, 0.3)).sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 3000.0).abs() < 20.0, "normal mean {mean} off");
    }

    #[test]
    fn binomial_fast_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(79);
        for _ in 0..500 {
            let k = binomial_fast(&mut rng, 50, 0.49);
            assert!(k <= 50);
        }
        assert_eq!(binomial_fast(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial_fast(&mut rng, 9, 0.0), 0);
        assert_eq!(binomial_fast(&mut rng, 9, 1.0), 9);
    }
}
