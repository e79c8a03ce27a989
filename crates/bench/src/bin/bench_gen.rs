//! Measures the two-stage generators and writes `BENCH_gen.json`.
//!
//! Three tables:
//!
//! - `families`: each family's structure stage (O(rows + cols), what
//!   the streaming corpus pipeline runs) against full materialization
//!   (structure + O(nnz) fill) at one fixed shape;
//! - `serve_mix`: the structure stage and the profile synthesis of a
//!   served `PredictGen` at the request mix of perfbench's `serve_gen`
//!   (square A, 1k–8k rows and density 1e-3–3e-2, both log-uniform in
//!   10 × 10 strata), per named family and over all six. Unlike the
//!   fixed shapes, this mix reaches the normal-approximation regime of
//!   the binomial sampler;
//! - `label_mix`: the stages of a labeled sample at the corpus mix of
//!   `random_pair_lazy`, per A family and over all pairs: the structure
//!   stage of A and B, A's left-hand synthesis at the design PE counts
//!   with and without the row side, and a sparse B's right-hand
//!   synthesis.
//!
//! Every time is a per-call (or per-spec) figure from `reps` timed
//! repetitions, reported as the median with the 10th and 90th
//! percentiles, beside the host's CPU model and count. Families are
//! timed round-robin — each repetition visits every family (and the
//! serve and label mixes every family per pass) — so drift on a shared
//! host lands on all families alike instead of on whichever one's block
//! it hits.
//!
//! Run with `make bench-gen` (`cargo run --release -p misam-bench --bin
//! bench_gen`) from the repository root.

use misam::dataset::{random_pair_lazy, LazyOperandSpec};
use misam_sim::{design_pe_counts, design_row_pe_counts};
use misam_sparse::{gen, LazyMatrix, MatrixProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per fixed-shape family (distinct seeds).
const REPS: usize = 101;
/// Timed passes over the whole serve mix.
const MIX_PASSES: usize = 21;
/// Row and density strata of the serve mix (one spec per cell and
/// family).
const STRATA: usize = 10;
/// Pairs in the label mix, drawn once; every pass redraws the same
/// pairs from saved generator states.
const LABEL_PAIRS: usize = 3000;
/// Timed passes over the whole label mix.
const LABEL_PASSES: usize = 11;

#[derive(Serialize)]
struct Spread {
    p50: f64,
    p10: f64,
    p90: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Spread { p50: at(0.5), p10: at(0.1), p90: at(0.9) }
    }
}

#[derive(Serialize)]
struct FamilyRow {
    family: String,
    rows: usize,
    cols: usize,
    nnz: usize,
    structure_ns: Spread,
    materialize_ns: Spread,
    /// Median materialization over median structure stage.
    speedup: f64,
}

#[derive(Serialize)]
struct MixRow {
    family: String,
    specs: usize,
    /// Mean structure stage per spec, one sample per pass.
    structure_ns: Spread,
    /// Mean `MatrixProfile::synthesize` per spec, one sample per pass.
    synthesize_ns: Spread,
}

#[derive(Serialize)]
struct LabelRow {
    family: String,
    pairs: usize,
    /// Pairs whose B is sparse (the ones with a B synthesis).
    sparse_b: usize,
    /// Mean `random_pair_lazy` call per pair (A's and B's structure
    /// stages), one sample per pass.
    structure_ns: Spread,
    /// Mean left-hand synthesis of A per pair at the design PE counts,
    /// row side included.
    lhs_ns: Spread,
    /// The same without the row side (column-side tallies only).
    lhs_col_only_ns: Spread,
    /// Mean right-hand synthesis of B per sparse-B pair.
    rhs_ns: Spread,
}

#[derive(Serialize)]
struct Doc {
    bench: String,
    host: String,
    host_cpus: usize,
    reps: usize,
    mix_passes: usize,
    label_passes: usize,
    families: Vec<FamilyRow>,
    serve_mix: Vec<MixRow>,
    label_mix: Vec<LabelRow>,
}

/// Wall time of one call of `f`, in nanoseconds.
fn time_call<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64
}

/// The CPU model named in `/proc/cpuinfo`, or `unknown` off Linux.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A served request's `(rows, density, seed)`; A is square.
type Spec = (usize, f64, u64);

/// One spec per cell of a `STRATA` × `STRATA` grid, log-uniform within
/// each cell.
fn mix_specs(rng: &mut StdRng) -> Vec<Spec> {
    let log_stratum = |rng: &mut StdRng, (lo, hi): (f64, f64), s: usize| {
        let u = (s as f64 + rng.gen::<f64>()) / STRATA as f64;
        (lo.ln() + u * (hi / lo).ln()).exp()
    };
    (0..STRATA * STRATA)
        .map(|cell| {
            let rows = log_stratum(rng, (1000.0, 8000.0), cell / STRATA).round() as usize;
            (rows, log_stratum(rng, (1e-3, 3e-2), cell % STRATA), rng.gen())
        })
        .collect()
}

fn serve_mix() -> Vec<MixRow> {
    let mut rng = StdRng::seed_from_u64(5);
    let specs: Vec<(&str, gen::FamilyFn, Vec<Spec>)> =
        gen::FAMILIES.iter().map(|&(name, build)| (name, build, mix_specs(&mut rng))).collect();
    let mut gen_ns = vec![Vec::new(); specs.len()];
    let mut synth_ns = vec![Vec::new(); specs.len()];
    for _ in 0..MIX_PASSES {
        for (f, (_, build, cells)) in specs.iter().enumerate() {
            let (mut g, mut s) = (0u128, 0u128);
            for &(rows, density, seed) in cells {
                let t = Instant::now();
                let lazy = build(rows, rows, density, seed);
                g += t.elapsed().as_nanos();
                let t = Instant::now();
                black_box(MatrixProfile::synthesize(lazy.structure(), &[], &[]));
                s += t.elapsed().as_nanos();
            }
            gen_ns[f].push(g as f64 / cells.len() as f64);
            synth_ns[f].push(s as f64 / cells.len() as f64);
        }
    }
    let mean_over =
        |per: &[Vec<f64>], pass: usize| per.iter().map(|v| v[pass]).sum::<f64>() / per.len() as f64;
    let all_gen = (0..MIX_PASSES).map(|p| mean_over(&gen_ns, p)).collect();
    let all_synth = (0..MIX_PASSES).map(|p| mean_over(&synth_ns, p)).collect();
    let mut out: Vec<MixRow> = specs
        .iter()
        .zip(gen_ns.into_iter().zip(synth_ns))
        .map(|((name, _, cells), (g, s))| MixRow {
            family: (*name).into(),
            specs: cells.len(),
            structure_ns: Spread::of(g),
            synthesize_ns: Spread::of(s),
        })
        .collect();
    out.push(MixRow {
        family: "all".into(),
        specs: specs.iter().map(|s| s.2.len()).sum(),
        structure_ns: Spread::of(all_gen),
        synthesize_ns: Spread::of(all_synth),
    });
    out
}

/// Stage times of one pass over the label mix, summed per family.
#[derive(Clone, Copy, Default)]
struct LabelSums {
    structure: u128,
    lhs: u128,
    lhs_col_only: u128,
    rhs: u128,
}

fn label_mix() -> Vec<LabelRow> {
    let (col_pes, row_pes) = (design_pe_counts(), design_row_pe_counts());
    let mut rng = StdRng::seed_from_u64(5);
    // The generator state before each pair, its A family and whether B
    // is sparse; families are listed in order of first appearance.
    let mut draws = Vec::with_capacity(LABEL_PAIRS);
    let mut names: Vec<String> = Vec::new();
    for _ in 0..LABEL_PAIRS {
        let state = rng.clone();
        let (_, spec, kind) = random_pair_lazy(&mut rng);
        let f = names.iter().position(|n| *n == kind).unwrap_or_else(|| {
            names.push(kind);
            names.len() - 1
        });
        draws.push((state, f, matches!(spec, LazyOperandSpec::Sparse(_))));
    }
    let pairs: Vec<usize> =
        (0..names.len()).map(|f| draws.iter().filter(|d| d.1 == f).count()).collect();
    let sparse_b: Vec<usize> =
        (0..names.len()).map(|f| draws.iter().filter(|d| d.1 == f && d.2).count()).collect();
    // Pairs are visited in draw order, so every pass interleaves the
    // families as the corpus does.
    let mut passes: Vec<Vec<LabelSums>> = Vec::with_capacity(LABEL_PASSES);
    for _ in 0..LABEL_PASSES {
        let mut sums = vec![LabelSums::default(); names.len()];
        for (state, f, _) in &draws {
            let sum = &mut sums[*f];
            let t = Instant::now();
            let (a, spec, _) = random_pair_lazy(&mut state.clone());
            sum.structure += t.elapsed().as_nanos();
            let t = Instant::now();
            black_box(MatrixProfile::synthesize(a.structure(), &col_pes, &row_pes));
            sum.lhs += t.elapsed().as_nanos();
            let t = Instant::now();
            black_box(MatrixProfile::synthesize(a.structure(), &col_pes, &[]));
            sum.lhs_col_only += t.elapsed().as_nanos();
            if let LazyOperandSpec::Sparse(b) = &spec {
                let t = Instant::now();
                black_box(MatrixProfile::synthesize(b.structure(), &[], &[]));
                sum.rhs += t.elapsed().as_nanos();
            }
        }
        let all = sums.iter().fold(LabelSums::default(), |acc, s| LabelSums {
            structure: acc.structure + s.structure,
            lhs: acc.lhs + s.lhs,
            lhs_col_only: acc.lhs_col_only + s.lhs_col_only,
            rhs: acc.rhs + s.rhs,
        });
        sums.push(all);
        passes.push(sums);
    }
    names.push("all".into());
    let counts = |per: &[usize]| -> usize { per.iter().sum() };
    let (all_pairs, all_sparse_b) = (counts(&pairs), counts(&sparse_b));
    names
        .into_iter()
        .enumerate()
        .map(|(f, family)| {
            let (n, nb) = pairs
                .get(f)
                .zip(sparse_b.get(f))
                .map_or((all_pairs, all_sparse_b), |(&n, &nb)| (n, nb));
            let spread = |stage: fn(&LabelSums) -> u128, per: usize| {
                Spread::of(passes.iter().map(|p| stage(&p[f]) as f64 / per.max(1) as f64).collect())
            };
            LabelRow {
                family,
                pairs: n,
                sparse_b: nb,
                structure_ns: spread(|s| s.structure, n),
                lhs_ns: spread(|s| s.lhs, n),
                lhs_col_only_ns: spread(|s| s.lhs_col_only, n),
                rhs_ns: spread(|s| s.rhs, nb),
            }
        })
        .collect()
}

fn main() {
    type GenFn = Box<dyn Fn(u64) -> LazyMatrix>;
    let families: Vec<(&str, GenFn)> = vec![
        ("uniform", Box::new(|s| gen::uniform_random_lazy(4096, 4096, 0.004, s))),
        ("power_law", Box::new(|s| gen::power_law_lazy(4096, 4096, 14.0, 1.5, s))),
        ("rmat", Box::new(|s| gen::rmat_lazy(4096, 4096, 60_000, (0.57, 0.19, 0.19, 0.05), s))),
        ("banded", Box::new(|s| gen::banded_lazy(4096, 4096, 48, 0.7, s))),
        ("circuit", Box::new(|s| gen::circuit_lazy(4096, 4096, 4.0, 16, s))),
        ("regular", Box::new(|s| gen::regular_degree_lazy(4096, 4096, 16, s))),
        ("pruned_dnn", Box::new(|s| gen::pruned_dnn_lazy(1024, 1024, 0.2, s))),
        ("imbalanced", Box::new(|s| gen::imbalanced_rows_lazy(4096, 4096, 0.04, 512, 4, s))),
        ("mesh2d", Box::new(|_| gen::mesh2d_lazy(64, 64))),
        ("mesh3d", Box::new(|_| gen::mesh3d_lazy(16, 16, 16))),
    ];

    let host = cpu_model();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{host}, host_cpus {host_cpus}, {REPS} reps per family, {MIX_PASSES} serve-mix passes, \
         {LABEL_PASSES} label-mix passes"
    );
    // Repetition-major: one structure stage and one materialization of
    // every family per repetition, each at that repetition's seed.
    let mut structure = vec![Vec::with_capacity(REPS); families.len()];
    let mut materialize = vec![Vec::with_capacity(REPS); families.len()];
    for rep in 0..REPS as u64 {
        for (i, (_, f)) in families.iter().enumerate() {
            structure[i].push(time_call(|| f(rep)));
            materialize[i].push(time_call(|| f(rep).into_csr()));
        }
    }
    let mut rows = Vec::new();
    for (((name, f), structure), materialize) in families.iter().zip(structure).zip(materialize) {
        let sample = f(1);
        let (r, c, n) = (sample.rows(), sample.cols(), sample.nnz());
        let structure_ns = Spread::of(structure);
        let materialize_ns = Spread::of(materialize);
        let speedup = materialize_ns.p50 / structure_ns.p50;
        println!(
            "{name:<12} {r}x{c} nnz {n:>8}: structure {:>10.0} ns [{:.0}, {:.0}]   \
             full {:>12.0} ns   {speedup:>6.1}x",
            structure_ns.p50, structure_ns.p10, structure_ns.p90, materialize_ns.p50,
        );
        rows.push(FamilyRow {
            family: (*name).into(),
            rows: r,
            cols: c,
            nnz: n,
            structure_ns,
            materialize_ns,
            speedup,
        });
    }

    let mix = serve_mix();
    for m in &mix {
        println!(
            "serve_mix {:<10} {:>4} specs: structure {:>8.0} ns [{:.0}, {:.0}]   \
             synthesize {:>8.0} ns [{:.0}, {:.0}]",
            m.family,
            m.specs,
            m.structure_ns.p50,
            m.structure_ns.p10,
            m.structure_ns.p90,
            m.synthesize_ns.p50,
            m.synthesize_ns.p10,
            m.synthesize_ns.p90,
        );
    }

    let label = label_mix();
    for m in &label {
        println!(
            "label_mix {:<10} {:>4} pairs: structure {:>8.0} ns [{:.0}, {:.0}]   \
             lhs {:>8.0} ns [{:.0}, {:.0}]   lhs w/o rows {:>8.0} ns   rhs {:>8.0} ns",
            m.family,
            m.pairs,
            m.structure_ns.p50,
            m.structure_ns.p10,
            m.structure_ns.p90,
            m.lhs_ns.p50,
            m.lhs_ns.p10,
            m.lhs_ns.p90,
            m.lhs_col_only_ns.p50,
            m.rhs_ns.p50,
        );
    }

    let doc = Doc {
        bench: "bench_gen".into(),
        host,
        host_cpus,
        reps: REPS,
        mix_passes: MIX_PASSES,
        label_passes: LABEL_PASSES,
        families: rows,
        serve_mix: mix,
        label_mix: label,
    };
    std::fs::write("BENCH_gen.json", serde_json::to_string_pretty(&doc).unwrap())
        .expect("write BENCH_gen.json");
    println!("wrote BENCH_gen.json");
}
