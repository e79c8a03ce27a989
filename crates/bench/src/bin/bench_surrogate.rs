//! Headline benchmark of the tiered surrogate oracle: labeling
//! throughput and end-to-end selection agreement against the cycle sim
//! on the standard corpus mix. Writes `BENCH_surrogate.json`.
//!
//! Protocol: train a surrogate bundle on one corpus, then label a
//! disjoint evaluation stream three ways — a fresh `SimOracle` (the
//! baseline every corpus used before the tier existed), the gated
//! `TieredOracle`, and the ungated surrogate (band dropped to −∞, so
//! every pair is forest-served: the pure surrogate labeling rate).
//! Pair features are pre-extracted for every pair, exactly as the
//! corpus pipeline does before labeling, and handed to the tiered runs
//! via `label_all_lazy_with_features`; the sim run labels the same
//! operands, whose profile memos are warm by then, and runs last, so
//! warming favours the baseline.
//!
//! Gates (asserted):
//! * surrogate labeling throughput ≥ 10× the cycle sim — the per-pair
//!   rate the gate unlocks on confident pairs;
//! * tiered end-to-end selection agreement ≥ 99% (latency *and* energy
//!   argmins both match the sim on the same pairs).
//!
//! The gated stream's wall-clock speedup is fallback-bound and reported
//! (`tiered_speedup`, `fallback_rate`) rather than gated: the corpus
//! mix keeps half its pairs inside a 1.2× top-2 margin (see
//! `true_margin_log10` quantiles), where no surrogate can rank reliably
//! and the band correctly routes to the sim.

use misam::dataset::{random_pair_lazy, Dataset};
use misam::training;
use misam_features::TileConfig;
use misam_oracle::{LazyLabeler, SimOracle, SurrogateTrainParams, TieredOracle};
use misam_sim::{DesignId, SimReport};
use misam_sparse::LazyMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const TRAIN_SAMPLES: usize = 4000;
const TRAIN_SEED: u64 = 2025;
const EVAL_PAIRS: usize = 400;
const EVAL_SEED: u64 = 0xe7a1;

#[derive(Serialize)]
struct PerDesign {
    design: String,
    /// Eval pairs whose sim-best (latency) design is this one.
    support: usize,
    /// Of those, pairs where the tiered argmin matched on both objectives.
    agree: usize,
    /// Tiered pairs the gate answered from the surrogate, bucketed by
    /// the predicted-best design.
    surrogate_pairs: u64,
    /// Tiered pairs the gate sent to the cycle sim.
    fallback_pairs: u64,
}

#[derive(Serialize)]
struct Doc {
    bench: String,
    host_cpus: usize,
    train_samples: usize,
    eval_pairs: usize,
    /// Calibrated confidence band (log₁₀ top-2 margin).
    tau_log10: f64,
    /// Holdout stats the band was calibrated on (from the bundle).
    calibration_holdout: usize,
    calibration_gated_agreement: f64,
    calibration_fallback_rate: f64,
    /// Labeling rates measured on the eval stream.
    sim_pairs_per_s: f64,
    tiered_pairs_per_s: f64,
    surrogate_pairs_per_s: f64,
    /// Pure surrogate labeling rate over the sim's — the headline.
    surrogate_speedup: f64,
    /// Gated mixed-stream wall-clock over the sim's (fallback-bound).
    tiered_speedup: f64,
    fallback_rate: f64,
    /// Gated tiered stream vs sim, exact argmin match.
    latency_agreement: f64,
    energy_agreement: f64,
    /// Both argmins match — the gated headline.
    end_to_end_agreement: f64,
    /// Same measure for the ungated surrogate (context, not a gate).
    ungated_agreement: f64,
    /// Quantiles of the true min(latency, energy) top-2 margin — the
    /// corpus property that bounds how many pairs any band can serve.
    true_margin_log10: Vec<(String, f64)>,
    per_design: Vec<PerDesign>,
}

fn argmin(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in xs.iter().enumerate() {
        if *v < xs[best] {
            best = i;
        }
    }
    best
}

type EvalPair = (LazyMatrix, misam::dataset::LazyOperandSpec, Vec<f64>);

fn label_with_features<L: LazyLabeler>(
    labeler: &L,
    pairs: &[EvalPair],
    tile: &TileConfig,
) -> (Vec<Vec<SimReport>>, f64) {
    let t = Instant::now();
    let reports: Vec<Vec<SimReport>> = pairs
        .iter()
        .map(|(a, spec, f)| labeler.label_all_lazy_with_features(a, spec.lazy_operand(), f, tile))
        .collect();
    (reports, t.elapsed().as_secs_f64())
}

fn agreement(reference: &[Vec<SimReport>], got: &[Vec<SimReport>]) -> (usize, usize, usize) {
    let (mut lat, mut energy, mut both) = (0, 0, 0);
    for (s, t) in reference.iter().zip(got) {
        let st: Vec<f64> = s.iter().map(|r| r.time_s).collect();
        let se: Vec<f64> = s.iter().map(|r| r.energy_j).collect();
        let tt: Vec<f64> = t.iter().map(|r| r.time_s).collect();
        let te: Vec<f64> = t.iter().map(|r| r.energy_j).collect();
        let lat_ok = argmin(&st) == argmin(&tt);
        let energy_ok = argmin(&se) == argmin(&te);
        lat += usize::from(lat_ok);
        energy += usize::from(energy_ok);
        both += usize::from(lat_ok && energy_ok);
    }
    (lat, energy, both)
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("training corpus: {TRAIN_SAMPLES} samples ({cpus} host CPUs)…");
    let base = Dataset::generate(TRAIN_SAMPLES, TRAIN_SEED);
    let params = SurrogateTrainParams {
        forest: misam_oracle::RegForestParams {
            n_trees: 16,
            tree: misam_mlkit::regression::RegParams { max_depth: 10, ..Default::default() },
            ..Default::default()
        },
        ..Default::default()
    };
    let bundle = training::train_surrogate(&base, &params);
    let cal = bundle.calibration.clone();
    eprintln!(
        "calibrated band tau={:.4} (holdout {}, gated agreement {:.3}, fallback {:.3})",
        cal.tau_log10, cal.holdout, cal.gated_agreement, cal.fallback_rate
    );
    let model = Arc::new(bundle.into_model());

    // Disjoint eval stream with features pre-extracted, exactly as the
    // corpus pipeline does for every sample before labeling.
    let tile = TileConfig::default();
    let pairs: Vec<EvalPair> = (0..EVAL_PAIRS as u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(EVAL_SEED ^ (i.wrapping_mul(0x9e37_79b9)));
            let (a, spec, _kind) = random_pair_lazy(&mut rng);
            let features = spec.features(&a, &tile).to_vector();
            (a, spec, features)
        })
        .collect();

    eprintln!("labeling {EVAL_PAIRS} pairs via the gated tiered oracle…");
    let tiered = TieredOracle::new();
    tiered.install(model.clone());
    let (tiered_reports, tiered_s) = label_with_features(&tiered, &pairs, &tile);
    let stats = tiered.stats();

    eprintln!("labeling {EVAL_PAIRS} pairs via the ungated surrogate…");
    let ungated = TieredOracle::new();
    ungated.install(Arc::new(model.with_tau(f64::NEG_INFINITY)));
    let (surrogate_reports, surrogate_s) = label_with_features(&ungated, &pairs, &tile);
    assert_eq!(ungated.stats().fallback_pairs, 0, "ungated run must never fall back");

    eprintln!("labeling {EVAL_PAIRS} pairs via a fresh cycle-sim oracle…");
    let sim = SimOracle::new(misam_oracle::FpgaSim);
    let (sim_reports, sim_s) = label_with_features(&sim, &pairs, &tile);

    let n = pairs.len() as f64;
    let (lat_agree, energy_agree, both_agree) = agreement(&sim_reports, &tiered_reports);
    let (_, _, ungated_both) = agreement(&sim_reports, &surrogate_reports);
    let end_to_end = both_agree as f64 / n;
    let surrogate_speedup = sim_s / surrogate_s;
    let tiered_speedup = sim_s / tiered_s;

    let mut support = [0usize; 4];
    let mut agree_by_design = [0usize; 4];
    for (s, t) in sim_reports.iter().zip(&tiered_reports) {
        let st: Vec<f64> = s.iter().map(|r| r.time_s).collect();
        let best = argmin(&st);
        support[best] += 1;
        let tt: Vec<f64> = t.iter().map(|r| r.time_s).collect();
        let se: Vec<f64> = s.iter().map(|r| r.energy_j).collect();
        let te: Vec<f64> = t.iter().map(|r| r.energy_j).collect();
        agree_by_design[best] +=
            usize::from(argmin(&st) == argmin(&tt) && argmin(&se) == argmin(&te));
    }
    let per_design: Vec<PerDesign> = DesignId::ALL
        .iter()
        .map(|d| PerDesign {
            design: d.to_string(),
            support: support[d.index()],
            agree: agree_by_design[d.index()],
            surrogate_pairs: stats.per_design_surrogate[d.index()],
            fallback_pairs: stats.per_design_fallback[d.index()],
        })
        .collect();

    let mut margins: Vec<f64> = sim_reports
        .iter()
        .map(|s| {
            let mut ts: Vec<f64> = s.iter().map(|r| r.time_s.log10()).collect();
            let mut es: Vec<f64> = s.iter().map(|r| r.energy_j.log10()).collect();
            ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
            es.sort_by(|a, b| a.partial_cmp(b).unwrap());
            (ts[1] - ts[0]).min(es[1] - es[0])
        })
        .collect();
    margins.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let true_margin_log10: Vec<(String, f64)> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|q| (format!("p{}", (q * 100.0) as u32), margins[(q * (n - 1.0)) as usize]))
        .collect();

    eprintln!(
        "sim {:.0} pairs/s | tiered {:.0} pairs/s ({tiered_speedup:.2}x, fallback {:.3}) | \
         surrogate {:.0} pairs/s ({surrogate_speedup:.1}x)",
        n / sim_s,
        n / tiered_s,
        stats.fallback_rate(),
        n / surrogate_s,
    );
    eprintln!(
        "agreement: lat {:.4} energy {:.4} e2e {end_to_end:.4} (ungated {:.4})",
        lat_agree as f64 / n,
        energy_agree as f64 / n,
        ungated_both as f64 / n,
    );
    for p in &per_design {
        eprintln!(
            "  {}: support {:>4}  agree {:>4}  surrogate {:>4}  fallback {:>4}",
            p.design, p.support, p.agree, p.surrogate_pairs, p.fallback_pairs
        );
    }

    assert_eq!(
        stats.surrogate_pairs + stats.fallback_pairs,
        EVAL_PAIRS as u64,
        "every eval pair must be gate-decided (no unmodeled pairs)"
    );
    assert!(
        surrogate_speedup >= 10.0,
        "surrogate labeling must be >= 10x the cycle sim (got {surrogate_speedup:.2}x)"
    );
    assert!(
        end_to_end >= 0.99,
        "end-to-end selection agreement must be >= 0.99 (got {end_to_end:.4})"
    );

    let doc = Doc {
        bench: "surrogate".into(),
        host_cpus: cpus,
        train_samples: TRAIN_SAMPLES,
        eval_pairs: EVAL_PAIRS,
        tau_log10: cal.tau_log10,
        calibration_holdout: cal.holdout,
        calibration_gated_agreement: cal.gated_agreement,
        calibration_fallback_rate: cal.fallback_rate,
        sim_pairs_per_s: n / sim_s,
        tiered_pairs_per_s: n / tiered_s,
        surrogate_pairs_per_s: n / surrogate_s,
        surrogate_speedup,
        tiered_speedup,
        fallback_rate: stats.fallback_rate(),
        latency_agreement: lat_agree as f64 / n,
        energy_agreement: energy_agree as f64 / n,
        end_to_end_agreement: end_to_end,
        ungated_agreement: ungated_both as f64 / n,
        true_margin_log10,
        per_design,
    };
    let json = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write("BENCH_surrogate.json", &json).expect("write BENCH_surrogate.json");
    eprintln!("wrote BENCH_surrogate.json");
}
