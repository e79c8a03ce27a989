//! `label_train`: the offline model build — the work of
//! `misam dataset --oracle tiered` followed by `misam train`.
//!
//! Set-up fits a surrogate on a sim-labeled corpus. Each timed round
//! then labels a fresh, disjoint corpus through the gated
//! [`TieredOracle`] and fits the selector, the latency predictor and a
//! new surrogate on it, [`PASSES`] times over with cold caches. After
//! each round, untimed, the same corpus is labeled again by a fresh
//! cycle sim to check the tiered labels.

use crate::stats::{self, Samples};
use crate::sys::{self, mix, Fnv};
use crate::{Args, Run, PASSES, RECONCILE_FRACTION};
use misam::dataset::{random_pair_lazy, Dataset};
use misam::{training, Objective};
use misam_features::TileConfig;
use misam_oracle::{
    CacheStats, FpgaSim, LazyLabeler, SimOracle, SurrogateModel, SurrogateTrainParams,
    TieredOracle, TieredStats,
};
use misam_sim::SimReport;
use misam_sparse::{LazyMatrix, LazyOperand};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Sim-labeled corpus the set-up surrogate is fitted on.
const SURROGATE_SAMPLES: usize = 3000;
/// Samples labeled (and fitted on) per timed round.
const ROUND_SAMPLES: usize = 2000;
/// Fewest tiered labels that must match the sim's argmin on both
/// objectives; the surrogate's band is calibrated for 0.995.
const AGREEMENT_FLOOR: f64 = 0.97;
/// Salt `Dataset::generate_with_threads_via` folds into the corpus seed
/// before deriving per-sample seeds; the traced replay re-derives the
/// same samples with it, and checks that their features match.
const CORPUS_SEED_SALT: u64 = 0x0da7_a5e7;

/// Labeling threads: `min(2, host CPUs)`.
pub fn pool_threads() -> usize {
    sys::host_cpus().min(2)
}

/// One stamped label call: worker, sample key (a digest of its
/// features), entry time (traced passes only), return time.
type Stamp = (ThreadId, u64, Option<Instant>, Instant);

/// A [`LazyLabeler`] that forwards to the tiered oracle and stamps each
/// call: the return time always (it bounds one worker's per-sample
/// time), the entry time too when traced (splitting labeling from
/// sample generation).
struct Stamped<'a> {
    inner: &'a TieredOracle,
    stamps: Mutex<Vec<Stamp>>,
    traced: bool,
}

impl LazyLabeler for Stamped<'_> {
    fn label_all_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>) -> Vec<SimReport> {
        let entry = self.traced.then(Instant::now);
        let out = self.inner.label_all_lazy(a, b);
        self.record(0, entry);
        out
    }

    fn label_all_lazy_with_features(
        &self,
        a: &LazyMatrix,
        b: LazyOperand<'_>,
        features: &[f64],
        tile: &TileConfig,
    ) -> Vec<SimReport> {
        let entry = self.traced.then(Instant::now);
        let out = self.inner.label_all_lazy_with_features(a, b, features, tile);
        let mut key = Fnv::default();
        key.write_f64s(features);
        self.record(key.finish(), entry);
        out
    }
}

impl Stamped<'_> {
    fn record(&self, key: u64, entry: Option<Instant>) {
        let exit = Instant::now();
        let id = std::thread::current().id();
        self.stamps.lock().expect("stamp lock poisoned").push((id, key, entry, exit));
    }
}

/// Per-sample worker time recovered from one pass's stamps.
#[derive(Debug, Default)]
struct Split {
    /// Return-to-return time per sample key, ms: what one worker spent
    /// generating, featurizing and labeling that sample.
    latency_ms: HashMap<u64, f64>,
    /// Summed label-call time (traced passes).
    label: Duration,
    /// Summed time between calls: sample generation and pool hand-off.
    gap: Duration,
    /// Worker threads seen.
    workers: usize,
}

fn split(stamps: Vec<Stamp>, start: Instant) -> Split {
    let mut by_worker: HashMap<ThreadId, Vec<(u64, Option<Instant>, Instant)>> = HashMap::new();
    for (id, key, entry, exit) in stamps {
        by_worker.entry(id).or_default().push((key, entry, exit));
    }
    let mut out = Split { workers: by_worker.len(), ..Split::default() };
    for calls in by_worker.values_mut() {
        calls.sort_by_key(|&(_, _, exit)| exit);
        let mut prev = start;
        for &(key, entry, exit) in calls.iter() {
            let ms = (exit - prev).as_secs_f64() * 1e3;
            out.latency_ms.entry(key).and_modify(|v| *v = v.min(ms)).or_insert(ms);
            if let Some(entry) = entry {
                out.label += exit - entry;
                out.gap += entry - prev;
            }
            prev = exit;
        }
    }
    out
}

/// The surrogate set-up: label a corpus through the sim and fit.
fn setup(seed: u64, threads: usize) -> (Arc<SurrogateModel>, String, f64) {
    misam_oracle::global().clear();
    misam_oracle::profiles::global().clear();
    let t0 = Instant::now();
    let ds = Dataset::generate_with_threads(SURROGATE_SAMPLES, mix(seed, 11), threads);
    let bundle = training::train_surrogate(&ds, &surrogate_params(seed));
    let json = bundle.to_json().expect("surrogate bundles serialize");
    let model = Arc::new(bundle.into_model());
    (model, json, t0.elapsed().as_secs_f64())
}

fn surrogate_params(seed: u64) -> SurrogateTrainParams {
    let mut params = SurrogateTrainParams::default();
    params.forest.seed = mix(seed, 12);
    params
}

/// One labeling of a round's corpus, from a cold profile store and a
/// fresh tier (so its sim cache is cold too).
struct Pass {
    ds: Dataset,
    wall: Duration,
    cpu: Duration,
    split: Split,
    stats: TieredStats,
    profile: CacheStats,
}

fn label_pass(corpus_seed: u64, model: &Arc<SurrogateModel>, traced: bool) -> Pass {
    misam_oracle::profiles::global().clear();
    let oracle = TieredOracle::new();
    oracle.install(Arc::clone(model));
    let labeler = Stamped { inner: &oracle, stamps: Mutex::new(Vec::new()), traced };
    let cpu0 = sys::process_cpu_time();
    let t0 = Instant::now();
    let ds =
        Dataset::generate_with_threads_via(ROUND_SAMPLES, corpus_seed, pool_threads(), &labeler);
    let wall = t0.elapsed();
    let cpu = sys::process_cpu_time() - cpu0;
    let stamps = labeler.stamps.into_inner().expect("stamp lock poisoned");
    Pass {
        ds,
        wall,
        cpu,
        split: split(stamps, t0),
        stats: oracle.stats(),
        profile: misam_oracle::profiles::global().stats(),
    }
}

fn digest(ds: &Dataset) -> u64 {
    let mut d = Fnv::default();
    for s in &ds.samples {
        d.write_f64s(&s.features);
        d.write_f64s(&s.times_s);
        d.write_f64s(&s.energies_j);
    }
    d.finish()
}

/// The three fits `misam train` and `misam train-surrogate` run, timed
/// one by one: (selector, latency predictor, surrogate) seconds and the
/// selector's holdout accuracy.
fn fit_all(ds: &Dataset, seed: u64) -> ([f64; 3], f64) {
    let t0 = Instant::now();
    let sel = training::train_selector(ds, Objective::Latency, seed);
    let t1 = Instant::now();
    let lat = training::train_latency_predictor(ds, seed);
    let t2 = Instant::now();
    let sur = training::train_surrogate(ds, &surrogate_params(seed));
    let t3 = Instant::now();
    std::hint::black_box((&lat.predictor, &sur.calibration));
    let secs = [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), (t3 - t2).as_secs_f64()];
    (secs, sel.accuracy)
}

/// What one timed round measured, each timing the best of its passes.
#[derive(Default)]
struct Round {
    /// Best-of-passes worker time per sample, ms.
    latency_ms: HashMap<u64, f64>,
    workers: usize,
    raw_rates: Vec<f64>,
    untraced_wall: Duration,
    /// Best total of the three fits, and each fit's best.
    fit_s: f64,
    fits: [f64; 3],
    accuracy: f64,
    timed_s: f64,
    digest: u64,
    passes_identical: bool,
    stats: TieredStats,
    /// Fastest traced pass (traced runs only).
    traced: Option<Pass>,
}

fn timed_round(
    corpus_seed: u64,
    model: &Arc<SurrogateModel>,
    fit_seed: u64,
    trace: bool,
) -> (Round, Dataset) {
    let mut round = Round {
        fit_s: f64::INFINITY,
        fits: [f64::INFINITY; 3],
        untraced_wall: Duration::MAX,
        passes_identical: true,
        ..Round::default()
    };
    let mut first: Option<Dataset> = None;
    for _ in 0..PASSES {
        let pass = label_pass(corpus_seed, model, false);
        let (fits, accuracy) = fit_all(&pass.ds, fit_seed);
        round.timed_s += pass.wall.as_secs_f64() + fits.iter().sum::<f64>();
        round.fit_s = round.fit_s.min(fits.iter().sum());
        for (best, f) in round.fits.iter_mut().zip(fits) {
            *best = best.min(f);
        }
        round.accuracy = accuracy;
        round.untraced_wall = round.untraced_wall.min(pass.wall);
        round.raw_rates.push(ROUND_SAMPLES as f64 / pass.wall.as_secs_f64());
        round.workers = round.workers.max(pass.split.workers);
        for (key, ms) in pass.split.latency_ms {
            round.latency_ms.entry(key).and_modify(|v| *v = v.min(ms)).or_insert(ms);
        }
        round.stats = pass.stats;
        match &first {
            None => {
                round.digest = digest(&pass.ds);
                first = Some(pass.ds);
            }
            Some(_) => round.passes_identical &= digest(&pass.ds) == round.digest,
        }
        if trace {
            let t = label_pass(corpus_seed, model, true);
            if round.traced.as_ref().is_none_or(|best| t.wall < best.wall) {
                round.traced = Some(t);
            }
        }
    }
    (round, first.expect("at least one pass"))
}

/// Untimed check of one round's corpus against a fresh cycle sim:
/// regenerates the identical samples, labels them all by simulation,
/// and returns (features all equal, argmins agreeing on both objectives,
/// labels bit-identical to the sim's).
fn check_round(ds: &Dataset, corpus_seed: u64) -> (bool, usize, usize) {
    let sim = SimOracle::new(FpgaSim);
    let truth = Dataset::generate_with_threads_via(ds.len(), corpus_seed, pool_threads(), &sim);
    let mut features_match = true;
    let (mut agree, mut exact) = (0, 0);
    for (s, t) in ds.samples.iter().zip(&truth.samples) {
        features_match &= s.features == t.features;
        let objectives = [Objective::Latency, Objective::Energy];
        agree += usize::from(objectives.iter().all(|o| s.label(*o) == t.label(*o)));
        let bits = |v: &[f64; 4]| v.map(f64::to_bits);
        exact += usize::from(
            bits(&s.times_s) == bits(&t.times_s) && bits(&s.energies_j) == bits(&t.energies_j),
        );
    }
    (features_match, agree, exact)
}

/// Sequential replay of a round's samples timing each stage: structure
/// generation, profile synthesis + features (cold store), the surrogate
/// gate, and the sim on the pairs the gate sends to fallback.
#[derive(Debug, Default)]
struct Replay {
    samples: usize,
    structure: Duration,
    profile: Duration,
    gate: Duration,
    fallback: Duration,
    fallback_pairs: usize,
    features_match: bool,
}

fn replay(r: &mut Replay, ds: &Dataset, corpus_seed: u64, model: &SurrogateModel) {
    misam_oracle::profiles::global().clear();
    let sim = SimOracle::new(FpgaSim);
    let tile = TileConfig::default();
    let base = corpus_seed ^ CORPUS_SEED_SALT;
    for (i, sample) in ds.samples.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(mix(base, i as u64));
        let t = Instant::now();
        let (a, spec, _) = random_pair_lazy(&mut rng);
        let t_structure = Instant::now();
        let features = spec.features(&a, &tile).to_vector();
        let t_profile = Instant::now();
        let pred = model.prediction(&features);
        let t_gate = Instant::now();
        r.structure += t_structure - t;
        r.profile += t_profile - t_structure;
        r.gate += t_gate - t_profile;
        r.features_match &= features == sample.features;
        r.samples += 1;
        if !model.confident(pred.margin_log10) {
            let t = Instant::now();
            std::hint::black_box(sim.execute_all_lazy(&a, spec.lazy_operand()));
            r.fallback += t.elapsed();
            r.fallback_pairs += 1;
        }
    }
}

/// Runs `label_train`.
pub fn run(args: &Args) -> Result<Run, String> {
    let threads = pool_threads();
    let mut run = Run::default();
    run.shape("loop", "closed: rounds until --seconds of label + fit time");
    run.shape("passes", PASSES);
    run.shape("surrogate_samples", SURROGATE_SAMPLES);
    run.shape("round_samples", ROUND_SAMPLES);
    run.shape("setup_repeats", SETUP_REPEATS);
    run.shape("corpus", "misam::dataset::random_pair_lazy mix");

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut bundles = Vec::with_capacity(SETUP_REPEATS);
    let mut model = None;
    for _ in 0..SETUP_REPEATS {
        let (m, json, secs) = setup(args.seed, threads);
        setup_s.push(secs);
        bundles.push(json);
        model = Some(m);
    }
    let model = model.expect("at least one set-up");
    let same = bundles.windows(2).all(|w| w[0] == w[1]);
    run.check("setup repeats fit byte-identical surrogates", same);
    drop(bundles);
    run.note(format!("setup_s samples {setup_s:.4?} (median of {SETUP_REPEATS})"));

    let mut rounds = Vec::new();
    let mut replayed = Replay { features_match: true, ..Replay::default() };
    let (mut agree, mut exact_ok, mut features_ok) = (0usize, true, true);
    let mut timed = 0.0;
    while timed < args.seconds as f64 {
        let corpus_seed = mix(args.seed, 100 + rounds.len() as u64);
        let (round, ds) = timed_round(corpus_seed, &model, mix(args.seed, 13), args.trace);
        timed += round.timed_s;
        if args.trace {
            replay(&mut replayed, &ds, corpus_seed, &model);
        }
        let (features_match, round_agree, exact) = check_round(&ds, corpus_seed);
        features_ok &= features_match;
        agree += round_agree;
        exact_ok &= exact as u64 == round.stats.fallback_pairs;
        run.note(format!(
            "round {}: corpus digest {:016x}, {} surrogate / {} fallback pairs, {exact} exact \
             sim labels; raw items/s per pass {:.1?}",
            rounds.len(),
            round.digest,
            round.stats.surrogate_pairs,
            round.stats.fallback_pairs,
            round.raw_rates
        ));
        rounds.push(round);
    }

    let n = rounds.len() * ROUND_SAMPLES;
    run.attempted = (n * PASSES) as u64;
    run.ok = run.attempted;
    let agreement = agree as f64 / n as f64;
    run.check(
        "every pass labels a byte-identical corpus",
        rounds.iter().all(|r| r.passes_identical),
    );
    run.check("tiered corpus regenerates with identical features", features_ok);
    run.check(
        "every pair answered once (surrogate + fallback = samples)",
        rounds.iter().all(|r| {
            r.stats.surrogate_pairs + r.stats.fallback_pairs == ROUND_SAMPLES as u64
                && r.stats.unmodeled_pairs == 0
        }),
    );
    run.check("fallback labels equal the cycle sim bit for bit", exact_ok);
    run.check(
        format!(
            "tiered argmins agree with the sim on both objectives \
             ({agreement:.4} >= {AGREEMENT_FLOOR})"
        ),
        agreement >= AGREEMENT_FLOOR,
    );

    let fit_sel: Vec<f64> = rounds.iter().map(|r| r.fits[0]).collect();
    let fit_lat: Vec<f64> = rounds.iter().map(|r| r.fits[1]).collect();
    let fit_sur: Vec<f64> = rounds.iter().map(|r| r.fits[2]).collect();
    if !args.trace {
        let best: Vec<f64> = rounds.iter().flat_map(|r| r.latency_ms.values().copied()).collect();
        let workers = rounds.iter().map(|r| r.workers).max().unwrap_or(1);
        let busy_s: f64 = best.iter().sum::<f64>() / 1e3;
        let items = best.len();
        let latency = Samples::new(best);
        let p50 = latency.median().ok_or("no sample labeled")?;
        let p99 = latency.supported_tail(99.0).ok_or("too few samples for a tail percentile")?;
        run.note(format!(
            "best-of-{PASSES} per-sample worker time p50 {:.4} ms (n={}, {} beyond); \
             p{} {:.4} ms (n={}, {} beyond); {workers} workers",
            p50.value, p50.n, p50.beyond, p99.pct, p99.value, p99.n, p99.beyond
        ));
        let fit: Vec<f64> = rounds.iter().map(|r| r.fit_s).collect();
        let accuracy: Vec<f64> = rounds.iter().map(|r| r.accuracy).collect();
        run.set("setup_s", stats::median(&setup_s));
        run.set("items_per_s", items as f64 * workers as f64 / busy_s);
        run.set("latency_p50_ms", p50.value);
        run.set("latency_p99_ms", p99.value);
        run.set("fit_s", stats::median(&fit));
        run.set("agreement", agreement);
        run.set("accuracy", stats::median(&accuracy));
        return Ok(run);
    }

    // Ledger over each round's fastest traced pass.
    let (mut wall, mut untraced_wall, mut label, mut gap, mut cpu) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut workers, mut samples, mut hits, mut lookups) = (1usize, 0usize, 0u64, 0u64);
    let mut tiered = TieredStats::default();
    for r in &rounds {
        let t = r.traced.as_ref().expect("traced runs keep a traced pass");
        wall += t.wall;
        untraced_wall += r.untraced_wall;
        label += t.split.label;
        gap += t.split.gap;
        cpu += t.cpu;
        workers = workers.max(t.split.workers);
        samples += t.ds.len();
        hits += t.profile.hits;
        lookups += t.profile.lookups();
        tiered.surrogate_pairs += t.stats.surrogate_pairs;
        tiered.fallback_pairs += t.stats.fallback_pairs;
    }
    let per_sample = |d: Duration| d.as_secs_f64() * 1e6 / samples.max(1) as f64;
    let per_replayed = |d: Duration| d.as_secs_f64() * 1e6 / replayed.samples.max(1) as f64;
    let thread_time = wall.as_secs_f64() * workers as f64;
    let unattributed = 1.0 - (label + gap).as_secs_f64() / thread_time;
    run.set("sparse.structure_us", per_replayed(replayed.structure));
    run.set("features.profile_us", per_replayed(replayed.profile));
    run.set("oracle.label_us", per_sample(label));
    run.set("oracle.gate_us", per_replayed(replayed.gate));
    run.set(
        "sim.fallback_us",
        replayed.fallback.as_secs_f64() * 1e6 / replayed.fallback_pairs.max(1) as f64,
    );
    let modeled = tiered.surrogate_pairs + tiered.fallback_pairs;
    run.set("oracle.fallback_frac", tiered.fallback_pairs as f64 / modeled.max(1) as f64);
    run.set("oracle.profile_hit_frac", hits as f64 / lookups.max(1) as f64);
    run.set("pool.busy_frac", cpu.as_secs_f64() / thread_time);
    run.set("mlkit.fit_selector_s", stats::median(&fit_sel));
    run.set("mlkit.fit_latency_s", stats::median(&fit_lat));
    run.set("mlkit.fit_surrogate_s", stats::median(&fit_sur));
    run.set("trace.overhead_frac", wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0);
    run.set("ledger.unattributed_frac", unattributed);
    run.note(format!(
        "ledger per sample (worker time, fastest traced pass per round): generation {:.2} us + \
         label {:.2} us over {workers} workers x {:.4} s wall ({:.4} s untraced); sequential \
         split: structure+profile {:.2} us, gate+fallback {:.2} us",
        per_sample(gap),
        per_sample(label),
        wall.as_secs_f64(),
        untraced_wall.as_secs_f64(),
        per_replayed(replayed.structure + replayed.profile),
        per_replayed(replayed.gate + replayed.fallback),
    ));
    run.check("sequential replay regenerates the corpus samples", replayed.features_match);
    run.check(
        format!(
            "generation + label cover worker time within {RECONCILE_FRACTION} \
             ({unattributed:+.4})"
        ),
        unattributed.abs() <= RECONCILE_FRACTION,
    );
    run.idle_layers = IDLE_LAYERS;
    Ok(run)
}

/// Per-layer metrics off the labeling path: the serving stack.
const IDLE_LAYERS: &[&str] = &[
    "protocol.decode_us",
    "protocol.encode_us",
    "serve.transport_us",
    "sparse.gen_us",
    "features.extract_us",
    "mlkit.predict_us",
    "recon.decide_us",
    "recon.switch_frac",
    "serve.batch_items_mean",
];
