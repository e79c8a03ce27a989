//! `serve_gen` and `serve_batch`: the per-matrix decision path.
//!
//! One client thread drives one connection in a closed loop against a
//! server with one reactor and one pool worker. `serve_gen` sends
//! `PredictGen` (the server synthesizes A, extracts features, predicts
//! and decides); `serve_batch` sends `Batch` requests of real feature
//! vectors from a held-out corpus, so the same server does many light
//! items instead of one heavy one. Every reply is checked bit for bit
//! against an in-process replay of the identical request stream, which
//! with `--trace 1` also times each layer's public call.

use crate::stats::{self, Samples};
use crate::sys::mix;
use crate::{label, Args, Run, PASSES, RECONCILE_FRACTION};
use misam::dataset::Dataset;
use misam::persist::ModelBundle;
use misam::{training, Objective};
use misam_features::{PairFeatures, TileConfig};
use misam_oracle::Executor;
use misam_recon::cost::ReconfigCost;
use misam_serve::protocol::{
    BatchReply, BatchRequest, GenSpec, PredictReply, PredictRequest, Request, RequestEnvelope,
    Response, ResponseEnvelope, StatsReply, PROTOCOL_VERSION,
};
use misam_serve::state::{predict_batch, predict_vector, PreparedBundle, Session};
use misam_serve::{Client, ServeConfig, Server};
use misam_sim::{DesignId, Operand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Client threads (each owns one connection).
pub const CLIENT_THREADS: usize = 1;
/// Server reactor shards.
pub const SERVER_REACTORS: usize = 1;
/// Server worker-pool threads (`PredictGen` jobs run here).
pub const SERVER_POOL_THREADS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Corpus the served models are fitted on.
const TRAIN_SAMPLES: usize = 2000;
/// Seed of that corpus and its fits: the served bundle is fixed
/// configuration, like a deployed model, so `--seed` varies the traffic
/// and not the model that answers it.
const TRAIN_SEED: u64 = 2025;
/// Held-out corpus whose feature vectors `serve_batch` sends.
const HOLDOUT_SAMPLES: usize = 1024;
/// Feature vectors per `Batch` request.
const BATCH_ITEMS: usize = 64;
/// Reconfiguration switch threshold of the served bundle (the CLI default).
const SWITCH_THRESHOLD: f64 = 0.2;
/// Refits of the served models before each pass (they take ~40 ms, so
/// a few more samples cost little and steady `fit_s`).
const FIT_REPEATS: usize = 3;
/// `serve_gen` requests whose decisions are checked against the sim.
const AGREEMENT_REQUESTS: usize = 600;

/// Generator families a `PredictGen` request may name.
const KINDS: [&str; 6] = ["uniform", "power-law", "banded", "pruned-dnn", "regular", "circuit"];
/// Dense-B widths a `PredictGen` request may ask for.
const DENSE_COLS: [usize; 5] = [64, 128, 256, 512, 1024];
/// Square-A row range, drawn log-uniform.
const ROWS: (f64, f64) = (1000.0, 8000.0);
/// Density range of A, drawn log-uniform.
const DENSITY: (f64, f64) = (1e-3, 3e-2);
/// Equal-probability strata of the row and of the density range. A
/// block of `STRATA`² requests holds one draw from every (rows, density)
/// cell, in random order, with families and `dense_cols` dealt evenly
/// over it: the cost mix of a run, its heavy tail included, then barely
/// depends on the seed.
const STRATA: usize = 10;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `PredictGen` requests.
    Gen,
    /// `Batch` requests of held-out feature vectors.
    Batch,
}

/// One request of the stream, in replayable form.
#[derive(Debug, Clone)]
enum Item {
    Gen(GenSpec),
    /// Indices into the held-out corpus.
    Batch(Vec<usize>),
}

impl Item {
    fn request(&self, holdout: &Dataset) -> Request {
        match self {
            Item::Gen(spec) => Request::PredictGen(spec.clone()),
            Item::Batch(idx) => Request::Batch(BatchRequest {
                items: idx
                    .iter()
                    .map(|&i| PredictRequest { features: holdout.samples[i].features.clone() })
                    .collect(),
            }),
        }
    }
}

/// The seeded request stream.
struct Stream {
    kind: Kind,
    rng: StdRng,
    pending: Vec<GenSpec>,
    holdout_len: usize,
}

impl Stream {
    fn new(kind: Kind, seed: u64, holdout_len: usize) -> Self {
        Stream { kind, rng: StdRng::seed_from_u64(mix(seed, 3)), pending: Vec::new(), holdout_len }
    }

    fn next_item(&mut self) -> Item {
        match self.kind {
            Kind::Batch => Item::Batch(
                (0..BATCH_ITEMS).map(|_| self.rng.gen_range(0..self.holdout_len)).collect(),
            ),
            Kind::Gen => {
                if self.pending.is_empty() {
                    self.refill();
                }
                Item::Gen(self.pending.pop().expect("refilled"))
            }
        }
    }

    fn refill(&mut self) {
        let cells = permutation(&mut self.rng, STRATA * STRATA);
        let mut block: Vec<GenSpec> = cells
            .iter()
            .enumerate()
            .map(|(k, &cell)| {
                let (r, d) = (cell / STRATA, cell % STRATA);
                let rows = log_stratum(&mut self.rng, ROWS, r).round() as usize;
                GenSpec {
                    kind: KINDS[k % KINDS.len()].to_string(),
                    rows,
                    cols: rows,
                    density: log_stratum(&mut self.rng, DENSITY, d),
                    seed: self.rng.gen(),
                    dense_cols: DENSE_COLS[k % DENSE_COLS.len()],
                }
            })
            .collect();
        block.reverse(); // popped from the back: serve in block order
        self.pending = block;
    }
}

fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// A log-uniform draw from stratum `s` of `STRATA` equal-probability
/// strata of `[lo, hi]`.
fn log_stratum(rng: &mut StdRng, (lo, hi): (f64, f64), s: usize) -> f64 {
    let u = (s as f64 + rng.gen::<f64>()) / STRATA as f64;
    (lo.ln() + u * (hi / lo).ln()).exp()
}

/// A fitted, started server plus what its set-up measured.
struct Setup {
    server: Server,
    train: Dataset,
    holdout: Dataset,
    bundle_json: String,
    secs: f64,
    accuracy: f64,
}

/// Fits the served selector and latency predictor: the bundle, the
/// selector's holdout accuracy, and each fit's seconds.
fn fit_bundle(train: &Dataset) -> (ModelBundle, f64, [f64; 2]) {
    let t0 = Instant::now();
    let sel = training::train_selector(train, Objective::Latency, TRAIN_SEED);
    let t1 = Instant::now();
    let lat = training::train_latency_predictor(train, TRAIN_SEED);
    let t2 = Instant::now();
    let bundle = ModelBundle::new(
        sel.selector,
        lat.predictor,
        SWITCH_THRESHOLD,
        ReconfigCost::default(),
        TileConfig::default(),
    );
    (bundle, sel.accuracy, [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()])
}

/// Labels the training corpus through the cycle sim, fits the selector
/// and latency predictor, and starts the server. Caches are cleared
/// first so every repeat does the same work.
fn setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    misam_oracle::global().clear();
    misam_oracle::profiles::global().clear();
    let threads = label::pool_threads();
    let t0 = Instant::now();
    let train = Dataset::generate_with_threads(TRAIN_SAMPLES, TRAIN_SEED, threads);
    let holdout = match kind {
        Kind::Batch => Dataset::generate_with_threads(HOLDOUT_SAMPLES, mix(seed, 2), threads),
        Kind::Gen => Dataset::default(),
    };
    let (bundle, accuracy, _) = fit_bundle(&train);
    let bundle_json = bundle.to_json().map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        threads: SERVER_POOL_THREADS,
        reactors: SERVER_REACTORS,
        ..ServeConfig::default()
    };
    let server = Server::start(bundle, cfg).map_err(|e| format!("server start: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(Setup { server, train, holdout, bundle_json, secs, accuracy })
}

/// What the server answered to one request.
enum Outcome {
    Ok(Vec<PredictReply>),
    Shed,
    Error(String),
}

/// The timed passes: the request stream, and per pass each request's
/// client latency and answer.
struct Served {
    items: Vec<Item>,
    latency_ms: Vec<Vec<f64>>,
    outcomes: Vec<Vec<Outcome>>,
    pass_wall_s: Vec<f64>,
    stats: StatsReply,
    /// The set-up's two fits, refitted alone [`FIT_REPEATS`] times
    /// before each pass: best seconds of each.
    fits: [f64; 2],
}

fn send(client: &mut Client, item: &Item, holdout: &Dataset) -> (f64, Outcome) {
    let req = item.request(holdout);
    let t = Instant::now();
    let resp = client.call(req);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = match resp {
        Ok(Response::Predict(r)) => Outcome::Ok(vec![r]),
        Ok(Response::Batch(b)) => Outcome::Ok(b.items),
        Ok(Response::Overloaded(_)) => Outcome::Shed,
        Ok(other) => Outcome::Error(format!("unexpected reply {other:?}")),
        Err(e) => Outcome::Error(format!("I/O: {e}")),
    };
    (ms, outcome)
}

/// Pass 0 draws requests from the stream until its share of the
/// budget is spent; every later pass resends the same requests on a
/// fresh connection (a fresh session, so identical replies). Before
/// each pass, with the server idle, the set-up's fits run again.
fn serve_passes(kind: Kind, seed: u64, seconds: u64, setup: &Setup) -> Result<Served, String> {
    let (server, holdout) = (&setup.server, &setup.holdout);
    let share = Duration::from_secs_f64(seconds as f64 / PASSES as f64);
    let mut fits = [f64::INFINITY; 2];
    let mut stream = Stream::new(kind, seed, holdout.len());
    let mut items: Vec<Item> = Vec::new();
    let (mut latency_ms, mut outcomes, mut pass_wall_s) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0..PASSES {
        for _ in 0..FIT_REPEATS {
            let (_, _, secs) = fit_bundle(&setup.train);
            for (best, s) in fits.iter_mut().zip(secs) {
                *best = best.min(s);
            }
        }
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let (mut latency, mut answers) = (Vec::new(), Vec::new());
        let start = Instant::now();
        loop {
            let i = latency.len();
            if pass == 0 {
                if start.elapsed() >= share {
                    break;
                }
                items.push(stream.next_item());
            } else if i == items.len() {
                break;
            }
            let (ms, outcome) = send(&mut client, &items[i], holdout);
            if matches!(&outcome, Outcome::Error(m) if m.starts_with("I/O")) {
                return Err(format!("connection lost in pass {pass} at request {i}"));
            }
            latency.push(ms);
            answers.push(outcome);
        }
        pass_wall_s.push(start.elapsed().as_secs_f64());
        latency_ms.push(latency);
        outcomes.push(answers);
    }
    Ok(Served { items, latency_ms, outcomes, pass_wall_s, stats: server.stats(), fits })
}

/// Ledger stages of the in-process replay, in chain order.
const STAGES: [&str; 6] = [
    "protocol.decode_us",
    "sparse.gen_us",
    "features.extract_us",
    "mlkit.predict_us",
    "recon.decide_us",
    "protocol.encode_us",
];
const DECODE: usize = 0;
const GEN: usize = 1;
const FEATURES: usize = 2;
const PREDICT: usize = 3;
const DECIDE: usize = 4;
const ENCODE: usize = 5;

/// Per-stage timers that cost one predictable branch when off.
struct Clock {
    on: bool,
    ns: [u64; STAGES.len()],
}

impl Clock {
    fn time<T>(&mut self, stage: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.ns[stage] += t.elapsed().as_nanos() as u64;
        out
    }
}

/// An in-process replay: per request, the replies, the time inside the
/// server-side chain (decoded line to encoded reply) and, when traced,
/// each stage's share of it.
struct Replay {
    replies: Vec<Vec<PredictReply>>,
    chain_ns: Vec<u64>,
    stage_ns: Vec<[u64; STAGES.len()]>,
}

/// Replays `items` through the public calls the server makes for them,
/// in order, on one fresh session.
fn replay(items: &[Item], holdout: &Dataset, prepared: &PreparedBundle, traced: bool) -> Replay {
    let mut session = Session::new(&prepared.bundle);
    let tile = prepared.bundle.tile_config();
    let mut out = Replay {
        replies: Vec::with_capacity(items.len()),
        chain_ns: Vec::with_capacity(items.len()),
        stage_ns: Vec::with_capacity(items.len()),
    };
    for (i, item) in items.iter().enumerate() {
        let mut clock = Clock { on: traced, ns: [0; STAGES.len()] };
        let id = i as u64 + 1;
        let env = RequestEnvelope { v: PROTOCOL_VERSION, id, req: item.request(holdout) };
        let line = serde_json::to_string(&env).expect("requests serialize");
        drop(env);
        let t0 = Instant::now();
        let env: RequestEnvelope = clock
            .time(DECODE, || serde_json::from_str(&line))
            .expect("a request line the client would send decodes");
        let resp = match env.req {
            Request::PredictGen(spec) => {
                let a = clock.time(GEN, || spec.build()).expect("stream specs are valid");
                let v = clock.time(FEATURES, || {
                    PairFeatures::extract_dense_b(&a, a.cols(), spec.dense_cols, &tile).to_vector()
                });
                let out = clock.time(PREDICT, || predict_vector(prepared, &v));
                Response::Predict(clock.time(DECIDE, || session.decide(&out)))
            }
            Request::Batch(b) => {
                let vectors: Vec<Vec<f64>> = b.items.into_iter().map(|p| p.features).collect();
                let outs = clock.time(PREDICT, || predict_batch(prepared, &vectors));
                let items = clock.time(DECIDE, || outs.iter().map(|o| session.decide(o)).collect());
                Response::Batch(BatchReply { items })
            }
            other => unreachable!("the stream sends no {other:?}"),
        };
        let env = ResponseEnvelope { v: PROTOCOL_VERSION, id, resp };
        let text = clock.time(ENCODE, || serde_json::to_string(&env)).expect("replies serialize");
        out.chain_ns.push(t0.elapsed().as_nanos() as u64);
        out.stage_ns.push(clock.ns);
        std::hint::black_box(text.len());
        out.replies.push(match env.resp {
            Response::Predict(r) => vec![r],
            Response::Batch(b) => b.items,
            _ => unreachable!("built above"),
        });
    }
    out
}

fn same_reply(a: &PredictReply, b: &PredictReply) -> bool {
    a.predicted == b.predicted
        && a.execute_on == b.execute_on
        && a.reconfigured == b.reconfigured
        && a.reconfig_time_s.to_bits() == b.reconfig_time_s.to_bits()
        && a.predicted_latency_s.to_bits() == b.predicted_latency_s.to_bits()
}

fn same_replies(a: &[PredictReply], b: &[PredictReply]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_reply(x, y))
}

/// Answers, over every pass, that differ from the replay (failed
/// requests count).
fn mismatches(served: &Served, replies: &[Vec<PredictReply>]) -> usize {
    served
        .outcomes
        .iter()
        .flat_map(|pass| pass.iter().zip(replies))
        .filter(|(o, r)| !matches!(o, Outcome::Ok(s) if same_replies(s, r)))
        .count()
}

/// Share of served decisions whose nominated design is the cycle sim's
/// latency-optimal one: the held-out labels for `serve_batch`, a fresh
/// sim pass over the first requests for `serve_gen`.
fn agreement(
    kind: Kind,
    items: &[Item],
    replies: &[Vec<PredictReply>],
    holdout: &Dataset,
) -> (f64, usize) {
    let mut agree = 0usize;
    let mut total = 0usize;
    let take = if kind == Kind::Gen { AGREEMENT_REQUESTS } else { usize::MAX };
    for (item, replies) in items.iter().zip(replies).take(take) {
        match item {
            Item::Batch(idx) => {
                for (&i, r) in idx.iter().zip(replies) {
                    let label = holdout.samples[i].label(Objective::Latency);
                    agree += usize::from(r.predicted == DesignId::ALL[label]);
                    total += 1;
                }
            }
            Item::Gen(spec) => {
                let a = spec.build().expect("stream specs are valid");
                let b = Operand::Dense { rows: a.cols(), cols: spec.dense_cols };
                let reports = misam_oracle::global().execute_all(&a, b);
                let mut times = [0.0; 4];
                let mut energies = [0.0; 4];
                for (d, r) in DesignId::ALL.iter().zip(&reports) {
                    times[d.index()] = r.time_s;
                    energies[d.index()] = r.energy_j;
                }
                let best = Objective::Latency.best_design(&times, &energies);
                agree += usize::from(replies[0].predicted == DesignId::ALL[best]);
                total += 1;
            }
        }
    }
    (agree as f64 / total.max(1) as f64, total)
}

/// Runs `serve_gen` or `serve_batch`.
pub fn run(kind: Kind, args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    run.shape("clients", CLIENT_THREADS);
    run.shape("loop", "closed");
    run.shape("passes", PASSES);
    run.shape("train_samples", TRAIN_SAMPLES);
    run.shape("setup_repeats", SETUP_REPEATS);
    match kind {
        Kind::Gen => {
            run.shape("request", "PredictGen");
            run.shape("families", KINDS.join(","));
            run.shape("rows", format!("{}..{} log-uniform, square A", ROWS.0, ROWS.1));
            run.shape("density", format!("{}..{} log-uniform", DENSITY.0, DENSITY.1));
            run.shape("dense_cols", format!("{DENSE_COLS:?}"));
            run.shape("strata_per_range", STRATA);
        }
        Kind::Batch => {
            run.shape("request", "Batch");
            run.shape("batch_items", BATCH_ITEMS);
            run.shape("holdout_samples", HOLDOUT_SAMPLES);
        }
    }

    // Set up several times; keep the last server, stop the others.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        setups.push(setup(kind, args.seed)?);
    }
    let secs: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    let deterministic = setups.windows(2).all(|w| w[0].bundle_json == w[1].bundle_json);
    run.check("setup repeats fit byte-identical bundles", deterministic);
    let last = setups.pop().expect("at least one set-up");
    for s in setups {
        s.server.shutdown();
    }
    run.note(format!("setup_s samples {secs:.4?} (median of {SETUP_REPEATS})"));

    let served = serve_passes(kind, args.seed, args.seconds, &last)?;
    let fits = served.fits;
    let prepared = last.server.shared_model().snapshot();
    last.server.shutdown();
    let n = served.items.len();

    // Accounting over every pass.
    for o in served.outcomes.iter().flatten() {
        run.attempted += 1;
        match o {
            Outcome::Ok(_) => run.ok += 1,
            Outcome::Shed => run.shed += 1,
            Outcome::Error(m) => {
                if run.errors == 0 {
                    run.note(format!("first error: {m}"));
                }
                run.errors += 1;
            }
        }
    }
    run.check("no request shed or failed", run.shed + run.errors == 0);

    // Each request's best client latency over the passes.
    let best_ms: Vec<f64> = (0..n)
        .map(|i| served.latency_ms.iter().map(|pass| pass[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let latency = Samples::new(best_ms.clone());
    let per_request = match kind {
        Kind::Gen => 1,
        Kind::Batch => BATCH_ITEMS,
    };
    let raw_rates: Vec<f64> =
        served.pass_wall_s.iter().map(|w| (n * per_request) as f64 / w).collect();
    run.note(format!("{n} requests x {PASSES} passes; raw per-pass items/s {raw_rates:.1?}"));

    // Correctness: every served reply equals the in-process replay.
    let untraced = replay(&served.items, &last.holdout, &prepared, false);
    let bad = mismatches(&served, &untraced.replies);
    run.check(format!("served replies equal the in-process replay ({bad} differ)"), bad == 0);

    if !args.trace {
        let p50 = latency.median().ok_or("no request completed")?;
        let p99 = latency.supported_tail(99.0).ok_or("too few requests for a tail percentile")?;
        run.note(format!(
            "best-of-{PASSES} latency p50 {:.4} ms (n={}, {} beyond); p{} {:.4} ms (n={}, {} beyond)",
            p50.value, p50.n, p50.beyond, p99.pct, p99.value, p99.n, p99.beyond
        ));
        let (agree, agree_n) = agreement(kind, &served.items, &untraced.replies, &last.holdout);
        run.note(format!("agreement {agree:.4} over {agree_n} served decisions"));
        let best_s: f64 = best_ms.iter().sum::<f64>() / 1e3;
        run.set("setup_s", stats::median(&secs));
        run.set("items_per_s", (n * per_request) as f64 / best_s);
        run.set("latency_p50_ms", p50.value);
        run.set("latency_p99_ms", p99.value);
        run.set("fit_s", fits[0] + fits[1]);
        run.set("agreement", agree);
        run.set("accuracy", last.accuracy);
        return Ok(run);
    }

    // Traced ledger: untraced and traced replays alternate pass by pass;
    // per request the fastest untraced chain, and the stages of the
    // fastest traced chain, are kept.
    let mut untraced_ns = untraced.chain_ns;
    let mut traced_ns = vec![u64::MAX; n];
    let mut stage_ns = vec![[0u64; STAGES.len()]; n];
    let mut replays_equal = true;
    for pass in 0..PASSES {
        if pass > 0 {
            let u = replay(&served.items, &last.holdout, &prepared, false);
            for (best, ns) in untraced_ns.iter_mut().zip(u.chain_ns) {
                *best = (*best).min(ns);
            }
        }
        let t = replay(&served.items, &last.holdout, &prepared, true);
        replays_equal &= t.replies.iter().zip(&untraced.replies).all(|(a, b)| same_replies(a, b));
        for i in 0..n {
            if t.chain_ns[i] < traced_ns[i] {
                traced_ns[i] = t.chain_ns[i];
                stage_ns[i] = t.stage_ns[i];
            }
        }
    }
    run.check("traced replays equal the untraced replay", replays_equal);
    let per = |ns: u64| ns as f64 / n.max(1) as f64 / 1e3;
    let mut stage_total = [0u64; STAGES.len()];
    for s in &stage_ns {
        for (t, v) in stage_total.iter_mut().zip(s) {
            *t += v;
        }
    }
    for (name, ns) in STAGES.iter().zip(stage_total) {
        run.set(name, per(ns));
    }
    let stage_sum: u64 = stage_total.iter().sum();
    let traced_chain: u64 = traced_ns.iter().sum();
    let untraced_chain: u64 = untraced_ns.iter().sum();
    let client_us = latency.mean() * 1e3;
    let transport_us = client_us - per(stage_sum);
    run.set("serve.transport_us", transport_us);
    let replies: Vec<&PredictReply> = untraced.replies.iter().flatten().collect();
    let switches = replies.iter().filter(|r| r.reconfigured).count();
    run.set("recon.switch_frac", switches as f64 / replies.len().max(1) as f64);
    let flushed = served.stats.batches_flushed;
    run.set(
        "serve.batch_items_mean",
        if flushed == 0 { 0.0 } else { served.stats.batched_items as f64 / flushed as f64 },
    );
    run.set("mlkit.fit_selector_s", fits[0]);
    run.set("mlkit.fit_latency_s", fits[1]);
    let overhead = traced_chain as f64 / untraced_chain.max(1) as f64 - 1.0;
    run.set("trace.overhead_frac", overhead);
    let unattributed = 1.0 - stage_sum as f64 / traced_chain.max(1) as f64;
    run.set("ledger.unattributed_frac", unattributed);
    run.note(format!(
        "ledger per request (best of {PASSES}): client {client_us:.2} us = stages {:.2} us + \
         transport {transport_us:.2} us; in-process chain {:.2} us traced vs {:.2} us untraced",
        per(stage_sum),
        per(traced_chain),
        per(untraced_chain)
    ));
    run.check(
        format!(
            "stages cover the in-process chain within {RECONCILE_FRACTION} ({unattributed:+.4})"
        ),
        unattributed.abs() <= RECONCILE_FRACTION,
    );
    run.check("in-process stages fit inside the client latency", transport_us >= 0.0);
    run.idle_layers = IDLE_LAYERS;
    Ok(run)
}

/// Per-layer metrics off the serving path: labeling and surrogate fits.
const IDLE_LAYERS: &[&str] = &[
    "sparse.structure_us",
    "features.profile_us",
    "oracle.label_us",
    "oracle.gate_us",
    "sim.fallback_us",
    "oracle.fallback_frac",
    "oracle.profile_hit_frac",
    "pool.busy_frac",
    "mlkit.fit_surrogate_s",
];
