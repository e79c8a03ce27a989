//! Subcommand implementations.

use crate::args::Flags;
use misam::persist::ModelBundle;
use misam::pipeline::Misam;
use misam_features::{PairFeatures, TileConfig, FEATURE_NAMES};
use misam_recon::cost::ReconfigCost;
use misam_serve::protocol::GenSpec;
use misam_serve::{Client, GenTraffic, LoadGen, Response, ServeConfig, Server};
use misam_sim::{simulate, simulate_ref, DesignConfig, DesignId, Operand};
use misam_sparse::slab::{self, SlabMatrix};
use misam_sparse::{gen, io, CsrMatrix, MatrixProfile};

const HELP: &str = "\
misam — ML-assisted dataflow selection for SpGEMM accelerators

USAGE:
  misam train    --out models.json [--samples N] [--latency N] [--seed S]
                 [--objective latency|energy] [--threshold T]
  misam predict  --models models.json --a A.mtx (--b B.mtx | --dense-cols N)
  misam simulate (--a A.mtx | --matrix A.msab) (--b B.mtx | --dense-cols N)
                 [--design 1|2|3|4]
  misam features --a A.mtx (--b B.mtx | --dense-cols N)
  misam gen      --kind uniform|power-law|banded|pruned-dnn|regular|circuit
                 --rows N [--cols N] [--density D] [--seed S] --out M.mtx
  misam ingest   --in A.mtx [--out A.msab] [--budget ENTRIES]
  misam dataset  --out corpus.csv [--samples N] [--seed S] [--format csv|json]
                 [--oracle sim|surrogate|tiered] [--surrogate bundle.json]
  misam train-surrogate --out surrogate.json [--samples N] [--seed S]
                 [--trees N] [--holdout-every N] [--target-agreement A]
  misam suite    [--scale S] [--seed N]
  misam corpus   [--scale 1..10000] [--seed N] [--ingest DIR]
  misam serve    --models models.json [--addr 127.0.0.1:7171] [--threads N]
                 [--reactors N] [--batch-max N] [--queue-cap N]
                 [--learn on|off] [--learn-sample N] [--learn-window N]
                 [--learn-min-window N] [--learn-cadence-ms N]
                 [--learn-drift D] [--learn-objective latency|energy]
                 [--label-via sim|tiered] [--surrogate bundle.json]
  misam client   --addr HOST:PORT --op stats|drift|shutdown|reload|predict-gen|simulate|load
                 [--path models.json] [--design 1|2|3|4] [--matrix A.msab]
                 [--kind K --rows N --cols N --density D --seed S --dense-cols N]
                 [--connections N --requests N --batch N]
                 [--open-loop RPS] [--idle-conns N]
                 [--gen-kind K [--gen-rows N --gen-density D --gen-dense-cols N]
                  [--shift-at N --gen-kind-after K --gen-density-after D]]
                 [--expect-retrain true]
  misam designs
  misam help
";

/// Dispatches one CLI invocation.
///
/// # Errors
///
/// Returns a human-readable message for any usage or I/O problem.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        print!("{HELP}");
        return Ok(());
    };
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "train" => train(&flags),
        "train-surrogate" => train_surrogate_cmd(&flags),
        "predict" => predict(&flags),
        "simulate" => sim_cmd(&flags),
        "features" => features(&flags),
        "gen" => generate(&flags),
        "ingest" => ingest_cmd(&flags),
        "designs" => {
            designs();
            Ok(())
        }
        "dataset" => dataset_cmd(&flags),
        "suite" => suite_cmd(&flags),
        "corpus" => corpus_cmd(&flags),
        "serve" => serve_cmd(&flags),
        "client" => client_cmd(&flags),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn train(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["out", "samples", "latency", "seed", "objective", "threshold"])?;
    let out = flags.require("out")?;
    let samples: usize = flags.get_or("samples", 1500)?;
    let latency: usize = flags.get_or("latency", 2500)?;
    let seed: u64 = flags.get_or("seed", 42u64)?;
    let threshold: f64 = flags.get_or("threshold", 0.2)?;
    let objective = match flags.get("objective").unwrap_or("latency") {
        "latency" => misam::Objective::Latency,
        "energy" => misam::Objective::Energy,
        other => return Err(format!("unknown objective '{other}'")),
    };

    eprintln!("training on {samples}-sample classifier / {latency}-sample latency corpora…");
    let (_, sel, lat) = Misam::builder()
        .classifier_samples(samples)
        .latency_samples(latency)
        .seed(seed)
        .objective(objective)
        .threshold(threshold)
        .train_with_reports();
    eprintln!(
        "selector accuracy {:.1}% ({} bytes); latency predictor MAE {:.3} / R2 {:.3}",
        sel.accuracy * 100.0,
        sel.model_bytes,
        lat.mae,
        lat.r2
    );
    let bundle = ModelBundle::new(
        sel.selector,
        lat.predictor,
        threshold,
        ReconfigCost::default(),
        TileConfig::default(),
    );
    bundle.save(out)?;
    eprintln!("models written to {out}");
    Ok(())
}

fn train_surrogate_cmd(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["out", "samples", "seed", "trees", "holdout-every", "target-agreement"])?;
    let out = flags.require("out")?;
    let samples: usize = flags.get_or("samples", 800)?;
    let seed: u64 = flags.get_or("seed", 2025u64)?;
    let mut params = misam_oracle::SurrogateTrainParams::default();
    params.forest.seed = seed;
    params.forest.n_trees = flags.get_or("trees", params.forest.n_trees)?;
    params.holdout_every = flags.get_or("holdout-every", params.holdout_every)?;
    params.target_agreement = flags.get_or("target-agreement", params.target_agreement)?;
    if params.holdout_every < 2 {
        return Err("--holdout-every must be at least 2".into());
    }

    eprintln!("labeling a {samples}-sample corpus through the cycle sim…");
    let ds = misam::dataset::Dataset::generate(samples, seed);
    eprintln!("fitting {} forest(s) of {} tree(s)…", DesignId::ALL.len(), params.forest.n_trees);
    let bundle = misam::training::train_surrogate(&ds, &params);
    let cal = &bundle.calibration;
    eprintln!(
        "calibration on {} held-out pair(s): band tau 10^{:.3}, {} gated \
         ({:.1}% agreement inside the band), overall agreement {:.1}%, \
         fallback rate {:.1}%",
        cal.holdout,
        cal.tau_log10,
        cal.gated,
        cal.gated_agreement * 100.0,
        cal.overall_agreement * 100.0,
        cal.fallback_rate * 100.0,
    );
    for (d, per) in DesignId::ALL.iter().zip(&cal.per_design) {
        eprintln!(
            "  {d}: {} holdout pair(s), {} fallback(s), gated agreement {:.1}%",
            per.support,
            per.fallbacks,
            per.gated_agreement * 100.0
        );
    }
    bundle.save(out).map_err(String::from)?;
    eprintln!("surrogate bundle written to {out}");
    Ok(())
}

/// Loads A and (sparse or dense-shape) B from the flag set.
fn load_operands(flags: &Flags) -> Result<(CsrMatrix, Option<CsrMatrix>, usize), String> {
    let a = io::read_matrix_market_file(flags.require("a")?).map_err(|e| e.to_string())?;
    match (flags.get("b"), flags.get("dense-cols")) {
        (Some(path), None) => {
            let b = io::read_matrix_market_file(path).map_err(|e| e.to_string())?;
            if a.cols() != b.rows() {
                return Err(format!(
                    "A is {}x{} but B is {}x{}",
                    a.rows(),
                    a.cols(),
                    b.rows(),
                    b.cols()
                ));
            }
            Ok((a, Some(b), 0))
        }
        (None, Some(n)) => {
            let cols: usize = n.parse().map_err(|_| format!("bad --dense-cols '{n}'"))?;
            Ok((a, None, cols))
        }
        _ => Err("give exactly one of --b M.mtx or --dense-cols N".into()),
    }
}

fn operand<'m>(b: &'m Option<CsrMatrix>, a: &CsrMatrix, dense_cols: usize) -> Operand<'m> {
    match b {
        Some(m) => Operand::Sparse(m),
        None => Operand::Dense { rows: a.cols(), cols: dense_cols },
    }
}

fn predict(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["models", "a", "b", "dense-cols"])?;
    let bundle = ModelBundle::load(flags.require("models")?)?;
    let (a, b, dense_cols) = load_operands(flags)?;
    let mut system = bundle.into_system();
    let report = system.execute(&a, operand(&b, &a, dense_cols));
    println!("predicted design : {}", report.predicted);
    println!("executed on      : {}", report.decision.execute_on);
    println!("reconfigured     : {}", report.decision.reconfigured);
    println!("predicted latency: {:.3} ms", report.decision.predicted_latency_s * 1e3);
    println!("simulated latency: {:.3} ms", report.sim.time_s * 1e3);
    println!("energy           : {:.3} mJ", report.sim.energy_j * 1e3);
    Ok(())
}

fn parse_designs(flags: &Flags) -> Result<Vec<DesignId>, String> {
    match flags.get("design") {
        None => Ok(DesignId::ALL.to_vec()),
        Some(n) => {
            let idx: usize = n.parse().map_err(|_| format!("bad --design '{n}'"))?;
            if !(1..=4).contains(&idx) {
                return Err("--design must be 1..4".into());
            }
            Ok(vec![DesignId::from_index(idx - 1)])
        }
    }
}

fn sim_cmd(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["a", "matrix", "b", "dense-cols", "design"])?;
    let designs = parse_designs(flags)?;
    // Load and simulate before printing anything, so a load error
    // leaves stdout empty rather than under a half-printed table.
    let reports: Vec<misam_sim::SimReport> = match (flags.get("a"), flags.get("matrix")) {
        (Some(_), None) => {
            let (a, b, dense_cols) = load_operands(flags)?;
            let op = operand(&b, &a, dense_cols);
            designs.iter().map(|&d| simulate(&a, op, d)).collect()
        }
        (None, Some(path)) => {
            // Out-of-core path: A stays an mmapped slab view end to end.
            let a = SlabMatrix::open(path).map_err(|e| e.to_string())?;
            let b = match (flags.get("b"), flags.get("dense-cols")) {
                (Some(bp), None) => {
                    let b = io::read_matrix_market_file(bp).map_err(|e| e.to_string())?;
                    if a.cols() != b.rows() {
                        return Err(format!(
                            "A is {}x{} but B is {}x{}",
                            a.rows(),
                            a.cols(),
                            b.rows(),
                            b.cols()
                        ));
                    }
                    Some(b)
                }
                (None, Some(n)) => {
                    let _: usize = n.parse().map_err(|_| format!("bad --dense-cols '{n}'"))?;
                    None
                }
                _ => return Err("give exactly one of --b M.mtx or --dense-cols N".into()),
            };
            let op = match &b {
                Some(m) => Operand::Sparse(m),
                None => {
                    Operand::Dense { rows: a.cols(), cols: flags.get_or("dense-cols", 512usize)? }
                }
            };
            designs.iter().map(|&d| simulate_ref(a.as_ref(), op, d)).collect()
        }
        _ => return Err("give exactly one of --a A.mtx or --matrix A.msab".into()),
    };
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>8} {:>8}",
        "design", "cycles", "time", "energy", "util", "tiles"
    );
    for (d, r) in designs.iter().zip(reports) {
        println!(
            "{:<10} {:>12} {:>10.3}ms {:>8.3}mJ {:>7.1}% {:>8}",
            d.to_string(),
            r.cycles,
            r.time_s * 1e3,
            r.energy_j * 1e3,
            r.pe_utilization * 100.0,
            r.tiles
        );
    }
    Ok(())
}

fn ingest_cmd(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["in", "out", "budget"])?;
    let input = flags.require("in")?;
    let default_out = std::path::Path::new(input).with_extension("msab");
    let out = match flags.get("out") {
        Some(o) => o.to_string(),
        None => default_out.to_string_lossy().into_owned(),
    };
    let budget: usize = flags.get_or("budget", slab::DEFAULT_INGEST_BUDGET)?;
    if budget == 0 {
        return Err("--budget must be positive".into());
    }
    let report =
        slab::ingest_matrix_market_with_budget(input, &out, budget).map_err(|e| e.to_string())?;
    eprintln!(
        "ingested {input} -> {out}: {}x{} with {} nnz in {} chunk(s), \
         {} -> {} bytes, digest {:#018x}",
        report.rows,
        report.cols,
        report.nnz,
        report.chunks,
        report.mtx_bytes,
        report.slab_bytes,
        report.content_digest
    );
    Ok(())
}

fn corpus_cmd(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["scale", "seed", "ingest"])?;
    let scale: u32 = flags.get_or("scale", 100u32)?;
    let seed: u64 = flags.get_or("seed", 2025u64)?;
    if !(1..=10_000).contains(&scale) {
        return Err("--scale must be in 1..=10000".into());
    }
    let tiers = misam::workloads::corpus_tiers(scale);
    let ws = misam::workloads::real_matrix_corpus(scale, seed);
    println!("{:<16} {:>6} {:>9} {:>12} {:>10}", "matrix", "tier", "rows", "nnz", "density");
    for w in &ws {
        println!(
            "{:<16} {:>6} {:>9} {:>12} {:>10.2e}",
            w.name,
            w.name.rsplit('@').next().unwrap_or("?"),
            w.a.rows(),
            w.a.nnz(),
            w.a.density()
        );
    }
    println!("\n{} matrices across tiers {tiers:?} (scale {scale}/10000)", ws.len());
    if let Some(dir) = flags.get("ingest") {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        for w in &ws {
            let path = std::path::Path::new(dir).join(format!("{}.msab", w.name));
            slab::write_slab(&path, &w.a).map_err(|e| e.to_string())?;
        }
        eprintln!("wrote {} slabs to {dir}", ws.len());
    }
    Ok(())
}

fn features(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["a", "b", "dense-cols"])?;
    let (a, b, dense_cols) = load_operands(flags)?;
    let cfg = TileConfig::default();
    let f = match &b {
        Some(bm) => PairFeatures::extract(&a, bm, &cfg),
        None => PairFeatures::from_profile_dense_b(
            &MatrixProfile::build(&a),
            a.cols(),
            dense_cols,
            &cfg,
        ),
    };
    for (name, value) in FEATURE_NAMES.iter().zip(f.to_vector()) {
        println!("{name:<24} {value}");
    }
    Ok(())
}

fn generate(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["kind", "rows", "cols", "density", "seed", "out"])?;
    let kind = flags.require("kind")?;
    let rows: usize = flags.require("rows")?.parse().map_err(|_| "bad --rows")?;
    let cols: usize = flags.get_or("cols", rows)?;
    let density: f64 = flags.get_or("density", 0.01)?;
    let seed: u64 = flags.get_or("seed", 1u64)?;
    let out = flags.require("out")?;

    let m = gen::family_lazy(kind, rows, cols, density, seed)
        .ok_or_else(|| format!("unknown generator kind '{kind}'"))?
        .into_csr();
    io::write_matrix_market_file(out, &m).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {out}: {}x{} with {} nnz (density {:.3e})",
        m.rows(),
        m.cols(),
        m.nnz(),
        m.density()
    );
    Ok(())
}

fn dataset_cmd(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["out", "samples", "seed", "format", "oracle", "surrogate"])?;
    let out = flags.require("out")?;
    let samples: usize = flags.get_or("samples", 1000)?;
    let seed: u64 = flags.get_or("seed", 2025u64)?;
    let format = flags.get("format").unwrap_or("csv");
    let oracle = flags.get("oracle").unwrap_or("sim");
    eprintln!("generating {samples}-sample corpus (4 designs per sample, {oracle} oracle)…");
    let ds = match oracle {
        "sim" => misam::dataset::Dataset::generate(samples, seed),
        "surrogate" | "tiered" => {
            // A private tier (not the process global) so the labeling
            // stats below describe exactly this corpus.
            let tiered = misam_oracle::TieredOracle::new();
            if let Some(path) = flags.get("surrogate") {
                tiered.load_bundle(path).map_err(String::from)?;
            } else if oracle == "surrogate" {
                return Err("--oracle surrogate needs a --surrogate bundle.json".into());
            }
            if oracle == "surrogate" {
                // Ungated: trust every surrogate answer, never fall back.
                let model = tiered.model().expect("bundle installed above");
                tiered.install(std::sync::Arc::new(model.with_tau(f64::NEG_INFINITY)));
            }
            let ds = misam::dataset::Dataset::generate_with_threads_via(
                samples,
                seed,
                misam_oracle::pool::default_threads(),
                &tiered,
            );
            let stats = tiered.stats();
            eprintln!(
                "labeled {} pair(s) from the surrogate, {} by cycle-sim fallback, {} unmodeled",
                stats.surrogate_pairs, stats.fallback_pairs, stats.unmodeled_pairs
            );
            ds
        }
        other => return Err(format!("unknown oracle '{other}' (sim|surrogate|tiered)")),
    };
    let body = match format {
        "csv" => ds.to_csv(),
        "json" => ds.to_json().map_err(|e| e.to_string())?,
        other => return Err(format!("unknown format '{other}' (csv|json)")),
    };
    std::fs::write(out, body).map_err(|e| e.to_string())?;
    let hist = ds.label_histogram(misam::Objective::Latency);
    eprintln!(
        "wrote {out}: labels D1 {} / D2 {} / D3 {} / D4 {}",
        hist[0], hist[1], hist[2], hist[3]
    );
    Ok(())
}

fn suite_cmd(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&["scale", "seed"])?;
    let scale: f64 = flags.get_or("scale", 0.05)?;
    let seed: u64 = flags.get_or("seed", 2025u64)?;
    if scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    let ws = misam::workloads::suite(scale, seed);
    println!(
        "{:<26} {:<6} {:>9} {:>12} {:>10} {:>8}",
        "workload", "cat", "A rows", "A nnz", "dens(A)", "B"
    );
    for w in &ws {
        let b = match &w.b {
            misam::workloads::WorkloadB::Dense { rows, cols } => format!("{rows}x{cols} D"),
            misam::workloads::WorkloadB::Sparse(m) => format!("{}x{} S", m.rows(), m.cols()),
        };
        println!(
            "{:<26} {:<6} {:>9} {:>12} {:>10.2e} {:>8}",
            w.name,
            w.category.label(),
            w.a.rows(),
            w.a.nnz(),
            w.a.density(),
            b
        );
    }
    println!(
        "
{} workloads at HS scale {scale}",
        ws.len()
    );
    Ok(())
}

fn serve_cmd(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&[
        "models",
        "addr",
        "threads",
        "reactors",
        "batch-max",
        "queue-cap",
        "learn",
        "learn-sample",
        "learn-queue-cap",
        "learn-window",
        "learn-min-window",
        "learn-cadence-ms",
        "learn-drift",
        "learn-min-new",
        "learn-objective",
        "learn-seed",
        "label-via",
        "surrogate",
    ])?;
    let bundle = ModelBundle::load(flags.require("models")?)?;
    let learn = match flags.get("learn").unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => return Err(format!("bad --learn '{other}' (on|off)")),
    };
    let cfg = ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7171").to_string(),
        threads: flags.get_or("threads", 0usize)?,
        reactors: flags.get_or("reactors", 0usize)?,
        batch_max: flags.get_or("batch-max", 64usize)?,
        queue_cap: flags.get_or("queue-cap", 4096usize)?,
        learn_sample_every: if learn { flags.get_or("learn-sample", 1u64)? } else { 0 },
        learn_queue_cap: flags.get_or("learn-queue-cap", 1024usize)?,
    };
    if cfg.batch_max == 0 || cfg.queue_cap == 0 {
        return Err("--batch-max and --queue-cap must be positive".into());
    }
    if learn && cfg.learn_sample_every == 0 {
        return Err("--learn-sample must be positive when --learn on".into());
    }
    let label_via = match flags.get("label-via").unwrap_or("sim") {
        "sim" => misam_learn::LabelVia::Sim,
        "tiered" => misam_learn::LabelVia::Tiered,
        other => return Err(format!("bad --label-via '{other}' (sim|tiered)")),
    };
    if let Some(path) = flags.get("surrogate") {
        // Install the bundle into the process-global tier the learner
        // labels through; --label-via tiered without a bundle still
        // works (sim-only until one is installed).
        misam_oracle::tiered_global().load_bundle(path).map_err(String::from)?;
        eprintln!("surrogate bundle {path} installed for tiered labeling");
    }
    let learn_cfg = if learn {
        let defaults = misam_learn::LearnConfig::default();
        Some(misam_learn::LearnConfig {
            objective: match flags.get("learn-objective").unwrap_or("latency") {
                "latency" => misam::dataset::Objective::Latency,
                "energy" => misam::dataset::Objective::Energy,
                other => return Err(format!("bad --learn-objective '{other}' (latency|energy)")),
            },
            window: flags.get_or("learn-window", defaults.window)?,
            min_window: flags.get_or("learn-min-window", defaults.min_window)?,
            cadence: std::time::Duration::from_millis(flags.get_or("learn-cadence-ms", 500u64)?),
            drift_threshold: flags.get_or("learn-drift", defaults.drift_threshold)?,
            min_new_labels: flags.get_or("learn-min-new", defaults.min_new_labels)?,
            seed: flags.get_or("learn-seed", defaults.seed)?,
            label_via,
            ..defaults
        })
    } else {
        None
    };

    let sigint = misam_serve::sigint_flag();
    let server = Server::start(bundle, cfg).map_err(|e| format!("cannot bind: {e}"))?;
    // The learner rides on the server's shared model and tap: sampled
    // traffic is oracle-labeled in the background and retrains are
    // hot-published without a restart or an on-disk bundle.
    let learner = learn_cfg.map(|cfg| {
        let tap = server.learn_tap().expect("tap installed when --learn on");
        misam_learn::Learner::spawn(server.shared_model(), tap, cfg)
    });
    let learning = if learner.is_some() { ", online learning on" } else { "" };
    eprintln!(
        "misam-serve listening on {} [{} reactor shard(s){learning}] \
         (Ctrl-C or a Shutdown request stops it)",
        server.addr(),
        server.shards()
    );
    // Condvar-backed wait: wakes immediately on a Shutdown request; the
    // short timeout only bounds how stale a Ctrl-C can get.
    while !server.wait_stopping(std::time::Duration::from_millis(200))
        && !sigint.load(std::sync::atomic::Ordering::SeqCst)
    {}
    eprintln!("draining…");
    if let Some(learner) = learner {
        learner.stop();
    }
    let stats = server.shutdown();
    let dump = serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?;
    println!("{dump}");
    Ok(())
}

/// Builds a [`GenSpec`] from client flags (shared by the predict-gen and
/// simulate operations).
fn gen_spec(flags: &Flags) -> Result<GenSpec, String> {
    Ok(GenSpec {
        kind: flags.get("kind").unwrap_or("uniform").to_string(),
        rows: flags.get_or("rows", 1024usize)?,
        cols: flags.get_or("cols", flags.get_or("rows", 1024usize)?)?,
        density: flags.get_or("density", 0.01f64)?,
        seed: flags.get_or("seed", 1u64)?,
        dense_cols: flags.get_or("dense-cols", 64usize)?,
    })
}

fn print_response(resp: &Response) -> Result<(), String> {
    let text = serde_json::to_string_pretty(resp).map_err(|e| e.to_string())?;
    println!("{text}");
    match resp {
        Response::Error(e) => Err(format!("server error ({:?}): {}", e.code, e.message)),
        Response::Overloaded(o) => {
            Err(format!("server overloaded, retry after {} ms", o.retry_after_ms))
        }
        _ => Ok(()),
    }
}

fn client_cmd(flags: &Flags) -> Result<(), String> {
    flags.expect_only(&[
        "addr",
        "op",
        "path",
        "design",
        "matrix",
        "kind",
        "rows",
        "cols",
        "density",
        "seed",
        "dense-cols",
        "connections",
        "requests",
        "batch",
        "open-loop",
        "idle-conns",
        "gen-kind",
        "gen-rows",
        "gen-density",
        "gen-dense-cols",
        "shift-at",
        "gen-kind-after",
        "gen-density-after",
        "expect-retrain",
    ])?;
    let addr = flags.require("addr")?;
    let op = flags.require("op")?;
    if op == "load" {
        let open_loop_rps = match flags.get("open-loop") {
            None => None,
            Some(s) => {
                let rps: f64 = s.parse().map_err(|_| format!("bad --open-loop '{s}'"))?;
                if rps <= 0.0 {
                    return Err("--open-loop must be a positive arrival rate".into());
                }
                Some(rps)
            }
        };
        // --gen-kind switches the run to generator-driven PredictGen
        // traffic (labelable by the online-learning tap); --shift-at
        // flips the family/density mid-run to manufacture drift.
        let gen = match flags.get("gen-kind") {
            None => None,
            Some(kind) => {
                let defaults = GenTraffic::default();
                let shift_at = match flags.get("shift-at") {
                    None => None,
                    Some(s) => Some(s.parse().map_err(|_| format!("bad --shift-at '{s}'"))?),
                };
                Some(GenTraffic {
                    kind: kind.to_string(),
                    rows: flags.get_or("gen-rows", defaults.rows)?,
                    density: flags.get_or("gen-density", defaults.density)?,
                    dense_cols: flags.get_or("gen-dense-cols", defaults.dense_cols)?,
                    shift_at,
                    kind_after: flags
                        .get("gen-kind-after")
                        .unwrap_or(&defaults.kind_after)
                        .to_string(),
                    density_after: flags.get_or(
                        "gen-density-after",
                        flags.get_or("gen-density", defaults.density)?,
                    )?,
                })
            }
        };
        let load = LoadGen {
            connections: flags.get_or("connections", 4usize)?,
            requests_per_conn: flags.get_or("requests", 1000usize)?,
            batch_size: flags.get_or("batch", 16usize)?,
            seed: flags.get_or("seed", 7u64)?,
            open_loop_rps,
            idle_conns: flags.get_or("idle-conns", 0usize)?,
            gen,
        };
        let report = load.run(addr).map_err(|e| format!("load run failed: {e}"))?;
        let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        println!("{text}");
        return Ok(());
    }
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if op == "drift" {
        // Focused view of the Stats reply: the online-learning loop and
        // per-shard admission counters. --expect-retrain true makes the
        // exit status assert at least one published retrain (smoke-test
        // hook).
        let resp = client.stats().map_err(|e| format!("request failed: {e}"))?;
        let Response::Stats(stats) = resp else {
            return Err(format!("unexpected stats reply: {resp:?}"));
        };
        #[derive(serde::Serialize)]
        struct DriftView {
            learn: misam_serve::LearnStatsReply,
            batch_shards: Vec<misam_serve::protocol::BatchShardStats>,
        }
        let publishes = stats.learn.publishes;
        let view = DriftView { learn: stats.learn, batch_shards: stats.batch_shards };
        let text = serde_json::to_string_pretty(&view).map_err(|e| e.to_string())?;
        println!("{text}");
        if flags.get_or("expect-retrain", false)? && publishes == 0 {
            return Err("expected at least one published retrain, saw none".into());
        }
        return Ok(());
    }
    let resp = match op {
        "stats" => client.stats(),
        "shutdown" => client.shutdown(),
        "reload" => client.reload(flags.require("path")?),
        "predict-gen" => client.predict_gen(gen_spec(flags)?),
        // --matrix names an ingested slab on the server host; otherwise
        // the generator-spec flags describe a synthetic workload.
        "simulate" => match flags.get("matrix") {
            Some(path) => {
                let dense_cols = match flags.get("dense-cols") {
                    None => None,
                    Some(n) => Some(n.parse().map_err(|_| format!("bad --dense-cols '{n}'"))?),
                };
                client.simulate_matrix(path, dense_cols, flags.get_or("design", 1usize)?)
            }
            None => client.simulate(gen_spec(flags)?, flags.get_or("design", 1usize)?),
        },
        other => return Err(format!("unknown --op '{other}'")),
    }
    .map_err(|e| format!("request failed: {e}"))?;
    print_response(&resp)
}

fn designs() {
    println!(
        "{:<10} {:>5} {:>5} {:>5} {:>5} {:>11} {:>9} {:>12}",
        "design", "ch_A", "ch_B", "ch_C", "PEGs", "scheduler", "format B", "freq"
    );
    for d in DesignId::ALL {
        let c = DesignConfig::of(d);
        println!(
            "{:<10} {:>5} {:>5} {:>5} {:>5} {:>11} {:>9} {:>9.1}MHz",
            d.to_string(),
            c.ch_a,
            c.ch_b,
            c.ch_c,
            c.pegs,
            format!("{:?}", c.scheduler_a),
            format!("{:?}", c.format_b),
            c.freq_mhz
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    /// A fresh directory per call: tests run in parallel and each one
    /// removes its directory when done.
    fn tmp() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("misam_cli_test_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&argv(&["help"])).is_ok());
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn designs_prints() {
        assert!(dispatch(&argv(&["designs"])).is_ok());
    }

    #[test]
    fn dataset_exports_csv_and_json() {
        let dir = tmp();
        let csv = dir.join("c.csv");
        let json = dir.join("c.json");
        dispatch(&argv(&[
            "dataset",
            "--out",
            csv.to_str().unwrap(),
            "--samples",
            "6",
            "--seed",
            "3",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "dataset",
            "--out",
            json.to_str().unwrap(),
            "--samples",
            "6",
            "--seed",
            "3",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(std::fs::read_to_string(&csv).unwrap().lines().count() == 7);
        assert!(std::fs::read_to_string(&json).unwrap().starts_with('{'));
        assert!(dispatch(&argv(&["dataset", "--out", csv.to_str().unwrap(), "--format", "xml",]))
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suite_lists_workloads() {
        assert!(dispatch(&argv(&["suite", "--scale", "0.01"])).is_ok());
        assert!(dispatch(&argv(&["suite", "--scale", "-1"])).is_err());
    }

    #[test]
    fn gen_simulate_features_roundtrip() {
        let dir = tmp();
        let a = dir.join("a.mtx");
        let a_s = a.to_str().unwrap();
        dispatch(&argv(&[
            "gen",
            "--kind",
            "power-law",
            "--rows",
            "200",
            "--density",
            "0.02",
            "--seed",
            "3",
            "--out",
            a_s,
        ]))
        .unwrap();
        dispatch(&argv(&["simulate", "--a", a_s, "--dense-cols", "64"])).unwrap();
        dispatch(&argv(&["simulate", "--a", a_s, "--dense-cols", "64", "--design", "2"])).unwrap();
        dispatch(&argv(&["features", "--a", a_s, "--dense-cols", "64"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_then_simulate_out_of_core() {
        let dir = tmp();
        let a = dir.join("oc.mtx");
        let a_s = a.to_str().unwrap();
        dispatch(&argv(&[
            "gen",
            "--kind",
            "power-law",
            "--rows",
            "180",
            "--density",
            "0.03",
            "--seed",
            "9",
            "--out",
            a_s,
        ]))
        .unwrap();
        // Default output path swaps the extension; a small budget forces
        // multi-chunk streaming.
        dispatch(&argv(&["ingest", "--in", a_s, "--budget", "64"])).unwrap();
        let slab_path = dir.join("oc.msab");
        assert!(slab_path.exists());
        let slab = SlabMatrix::open(&slab_path).unwrap();
        let owned = io::read_matrix_market_file(a_s).unwrap();
        assert_eq!(slab.to_matrix(), owned);

        dispatch(&argv(&[
            "simulate",
            "--matrix",
            slab_path.to_str().unwrap(),
            "--dense-cols",
            "64",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "simulate",
            "--matrix",
            slab_path.to_str().unwrap(),
            "--dense-cols",
            "64",
            "--design",
            "3",
        ]))
        .unwrap();

        // Flag validation: --a and --matrix are mutually exclusive, and
        // a missing slab is a readable error.
        let err = dispatch(&argv(&[
            "simulate",
            "--a",
            a_s,
            "--matrix",
            slab_path.to_str().unwrap(),
            "--dense-cols",
            "8",
        ]))
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        assert!(dispatch(&argv(&["ingest", "--in", a_s, "--budget", "0"])).is_err());
        assert!(dispatch(&argv(&[
            "simulate",
            "--matrix",
            dir.join("nope.msab").to_str().unwrap(),
            "--dense-cols",
            "8",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corpus_lists_tiers_and_ingests_slabs() {
        let dir = tmp();
        let slabs = dir.join("corpus_slabs");
        dispatch(&argv(&[
            "corpus",
            "--scale",
            "2",
            "--seed",
            "4",
            "--ingest",
            slabs.to_str().unwrap(),
        ]))
        .unwrap();
        // Tiers [1, 2] x 12 catalog matrices, one slab each.
        let count = std::fs::read_dir(&slabs).unwrap().count();
        assert_eq!(count, 24);
        let one = SlabMatrix::open(slabs.join("p2p@2.msab")).unwrap();
        assert!(one.nnz() > 0);
        assert!(dispatch(&argv(&["corpus", "--scale", "0"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparse_b_path_checks_dimensions() {
        let dir = tmp();
        let a = dir.join("a2.mtx");
        let b = dir.join("b2.mtx");
        dispatch(&argv(&[
            "gen",
            "--kind",
            "uniform",
            "--rows",
            "50",
            "--out",
            a.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "gen",
            "--kind",
            "uniform",
            "--rows",
            "60",
            "--out",
            b.to_str().unwrap(),
        ]))
        .unwrap();
        let err =
            dispatch(&argv(&["simulate", "--a", a.to_str().unwrap(), "--b", b.to_str().unwrap()]))
                .unwrap_err();
        assert!(err.contains("50x50"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_then_predict_via_bundle() {
        let dir = tmp();
        let models = dir.join("models.json");
        let a = dir.join("a3.mtx");
        dispatch(&argv(&[
            "train",
            "--out",
            models.to_str().unwrap(),
            "--samples",
            "120",
            "--latency",
            "150",
            "--seed",
            "5",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "gen",
            "--kind",
            "uniform",
            "--rows",
            "150",
            "--density",
            "0.05",
            "--out",
            a.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "predict",
            "--models",
            models.to_str().unwrap(),
            "--a",
            a.to_str().unwrap(),
            "--dense-cols",
            "64",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_subcommand_round_trips_against_a_live_server() {
        let dir = tmp();
        let models = dir.join("serve_models.json");
        dispatch(&argv(&[
            "train",
            "--out",
            models.to_str().unwrap(),
            "--samples",
            "120",
            "--latency",
            "150",
            "--seed",
            "5",
        ]))
        .unwrap();
        let bundle = ModelBundle::load(models.to_str().unwrap()).unwrap();
        let server = Server::start(bundle, ServeConfig::default()).unwrap();
        let addr = server.addr().to_string();

        dispatch(&argv(&["client", "--addr", &addr, "--op", "stats"])).unwrap();
        dispatch(&argv(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "predict-gen",
            "--kind",
            "power-law",
            "--rows",
            "256",
            "--density",
            "0.02",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "client", "--addr", &addr, "--op", "simulate", "--rows", "128", "--design", "2",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "load",
            "--connections",
            "2",
            "--requests",
            "5",
            "--batch",
            "4",
        ]))
        .unwrap();
        // Open-loop pacing plus an idle-connection flood ride the same
        // subcommand.
        dispatch(&argv(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "load",
            "--connections",
            "1",
            "--requests",
            "5",
            "--batch",
            "1",
            "--open-loop",
            "500",
            "--idle-conns",
            "8",
        ]))
        .unwrap();
        // Server-reported errors must surface as CLI errors.
        let err =
            dispatch(&argv(&["client", "--addr", &addr, "--op", "simulate", "--design", "9"]))
                .unwrap_err();
        assert!(err.contains("BadGenSpec"), "{err}");

        dispatch(&argv(&["client", "--addr", &addr, "--op", "shutdown"])).unwrap();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_and_serve_flag_validation() {
        assert!(dispatch(&argv(&["client", "--op", "stats"])).is_err(), "addr is required");
        assert!(dispatch(&argv(&["client", "--addr", "x", "--op", "nope"])).is_err());
        assert!(dispatch(&argv(&["serve", "--addr", "127.0.0.1:0"])).is_err(), "models required");
        let err = dispatch(&argv(&["serve", "--models", "/nonexistent.json"])).unwrap_err();
        assert!(err.contains("nonexistent") || err.contains("No such file"), "{err}");
        let err = dispatch(&argv(&["client", "--addr", "x", "--op", "load", "--open-loop", "-3"]))
            .unwrap_err();
        assert!(err.contains("open-loop"), "{err}");
    }

    #[test]
    fn drift_op_reports_the_learning_loop_against_a_live_server() {
        let dir = tmp();
        let models = dir.join("learn_models.json");
        dispatch(&argv(&[
            "train",
            "--out",
            models.to_str().unwrap(),
            "--samples",
            "80",
            "--latency",
            "100",
            "--seed",
            "5",
        ]))
        .unwrap();
        let bundle = ModelBundle::load(models.to_str().unwrap()).unwrap();
        // Mirrors `misam serve --learn on`: tap in the server, learner on
        // the shared model (the command itself blocks until shutdown, so
        // the test assembles the same pieces directly).
        let server =
            Server::start(bundle, ServeConfig { learn_sample_every: 1, ..ServeConfig::default() })
                .unwrap();
        let learner = misam_learn::Learner::spawn(
            server.shared_model(),
            server.learn_tap().expect("tap installed"),
            misam_learn::LearnConfig {
                window: 24,
                min_window: 8,
                cadence: std::time::Duration::from_millis(20),
                drift_threshold: -1.0,
                min_new_labels: 4,
                ..misam_learn::LearnConfig::default()
            },
        );
        let addr = server.addr().to_string();

        // Gen-driven load with a mid-run distribution shift: the first
        // half draws uniform matrices, the second half banded.
        dispatch(&argv(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "load",
            "--connections",
            "2",
            "--requests",
            "8",
            "--gen-kind",
            "uniform",
            "--gen-rows",
            "80",
            "--gen-density",
            "0.05",
            "--gen-dense-cols",
            "24",
            "--shift-at",
            "8",
            "--gen-kind-after",
            "banded",
        ]))
        .unwrap();

        // Poll the drift view until the forced-refit learner publishes.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            let result = dispatch(&argv(&[
                "client",
                "--addr",
                &addr,
                "--op",
                "drift",
                "--expect-retrain",
                "true",
            ]));
            if result.is_ok() {
                break;
            }
            if std::time::Instant::now() >= deadline {
                result.expect("learner never published a retrain");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        dispatch(&argv(&["client", "--addr", &addr, "--op", "shutdown"])).unwrap();
        learner.stop();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn operand_flags_are_mutually_exclusive() {
        let dir = tmp();
        let a = dir.join("a4.mtx");
        dispatch(&argv(&[
            "gen",
            "--kind",
            "uniform",
            "--rows",
            "40",
            "--out",
            a.to_str().unwrap(),
        ]))
        .unwrap();
        let err = dispatch(&argv(&["simulate", "--a", a.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
