//! One benchmark command for Misam's two user-facing paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_gen|serve_batch|label_train --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is closed-loop and in-process, built from `--seed`,
//! and checks its outputs. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` the same inputs are also run
//! through a ledger that times each layer's public calls from outside,
//! and the last line carries the per-layer metrics. See `README.md` in
//! this directory for the workloads, the metric map and what is left
//! unmeasured.

mod label;
mod serve;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("fit_s", "s"),
    ("agreement", "frac"),
    ("accuracy", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("serve.transport_us", "us"),
    ("sparse.gen_us", "us"),
    ("features.extract_us", "us"),
    ("mlkit.predict_us", "us"),
    ("recon.decide_us", "us"),
    ("recon.switch_frac", "frac"),
    ("serve.batch_items_mean", "count"),
    ("sparse.structure_us", "us"),
    ("features.profile_us", "us"),
    ("oracle.label_us", "us"),
    ("oracle.gate_us", "us"),
    ("sim.fallback_us", "us"),
    ("oracle.fallback_frac", "frac"),
    ("oracle.profile_hit_frac", "frac"),
    ("pool.busy_frac", "frac"),
    ("mlkit.fit_selector_s", "s"),
    ("mlkit.fit_latency_s", "s"),
    ("mlkit.fit_surrogate_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("ledger.unattributed_frac", "frac"),
];

/// Timed passes over the same inputs. Co-tenants of a shared host slow
/// execution in bursts; interference only adds time, so each item's
/// fastest pass is what the timing metrics report.
pub const PASSES: usize = 5;

/// Largest share of a ledger's end-to-end time its stages may leave
/// unattributed (or over-attribute) before the traced run fails.
pub const RECONCILE_FRACTION: f64 = 0.10;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (requests or samples).
    pub attempted: u64,
    /// Operations answered.
    pub ok: u64,
    /// Operations shed by admission control (counted as failed).
    pub shed: u64,
    /// Operations answered with an error or not at all (failed).
    pub errors: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload's path never calls: reported as
    /// 0 (no work per item) rather than left out.
    pub idle_layers: &'static [&'static str],
    /// Human-readable detail lines (sample counts, ledgers, digests).
    pub notes: Vec<String>,
    /// Workload shape parameters for the metadata line.
    pub shape: Vec<(&'static str, Json)>,
}

impl Run {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Adds a detail line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds a workload shape parameter to the metadata.
    pub fn shape(&mut self, key: &'static str, value: impl Into<Json>) {
        self.shape.push((key, value.into()));
    }

    fn failed(&self) -> u64 {
        self.shed + self.errors
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether to run the per-layer ledger.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{key} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_gen|serve_batch|label_train \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve_gen" => serve::run(serve::Kind::Gen, &args),
        "serve_batch" => serve::run(serve::Kind::Batch, &args),
        "label_train" => label::run(&args),
        other => Err(format!("unknown workload '{other}'")),
    };
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        run.set("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0));
    }
    report(&args, &run)
}

fn report(args: &Args, run: &Run) -> ExitCode {
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let threads = obj(vec![
        ("client", serve::CLIENT_THREADS.into()),
        ("server_reactors", serve::SERVER_REACTORS.into()),
        ("server_pool", serve::SERVER_POOL_THREADS.into()),
        ("label_pool", label::pool_threads().into()),
    ]);
    let shape = Json::Obj(run.shape.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect());
    let meta = obj(vec![
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("host_cpus", sys::host_cpus().into()),
        ("avx2", sys::avx2().into()),
        ("git_rev", sys::git_rev().into()),
        ("threads", threads),
        ("shape", shape),
    ]);
    println!("meta {}", meta.to_line());
    for line in &run.notes {
        println!("{line}");
    }
    for (name, ok) in &run.checks {
        println!("check {name}: {}", if *ok { "pass" } else { "FAIL" });
    }
    println!(
        "ops attempted {} ok {} shed {} failed {}",
        run.attempted,
        run.ok,
        run.shed,
        run.failed()
    );

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match run.metrics.get(name) {
            Some(v) => *v,
            None if run.idle_layers.contains(name) => 0.0,
            None => panic!("workload {} did not set metric {name}", args.workload),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("metric {name} = {value} {unit}");
        metrics.push((*name, obj(vec![("value", value.into()), ("unit", (*unit).into())])));
    }
    let correct = run.checks.iter().all(|(_, ok)| *ok) && !run.checks.is_empty();
    let line = obj(vec![
        ("correct", correct.into()),
        ("attempted", run.attempted.max(1).into()),
        ("failed", run.failed().into()),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", line.to_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON value for the metadata and result lines, printed through the
/// vendored `serde_json` writer (which has no dynamic value type).
#[derive(Debug, Clone)]
pub enum Json {
    /// A float.
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn to_line(&self) -> String {
        serde_json::to_string(self).expect("JSON values always serialize")
    }
}

impl serde::Serialize for Json {
    fn serialize(&self) -> serde::Content {
        match self {
            Json::Num(v) => serde::Content::F64(*v),
            Json::Int(v) => serde::Content::U64(*v),
            Json::Bool(v) => serde::Content::Bool(*v),
            Json::Str(v) => serde::Content::Str(v.clone()),
            Json::Obj(fields) => serde::Content::Map(
                fields.iter().map(|(k, v)| (k.clone(), v.serialize())).collect(),
            ),
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as u64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
