//! End-to-end load benchmark of misam-serve's epoll reactor over real
//! TCP: batched and single-predict throughput/latency under N concurrent
//! connections, an idle-connection flood, open-loop pacing, and an
//! overload scenario that proves admission control bounds the queue
//! (sheds instead of growing). Writes `BENCH_serve.json` with the host
//! CPU count and the shard/worker configuration of every scenario, so
//! numbers from different hosts are comparable.

use misam::dataset::{Dataset, Objective};
use misam::persist::ModelBundle;
use misam::training;
use misam_features::TileConfig;
use misam_recon::cost::ReconfigCost;
use misam_serve::{LoadGen, LoadReport, ServeConfig, Server};
use serde::Serialize;

#[derive(Serialize)]
struct Scenario {
    name: String,
    /// Reactor shards serving the scenario.
    reactor_shards: usize,
    /// Worker threads in the shared simulation/synthesis pool.
    pool_workers: usize,
    connections: usize,
    requests_per_conn: usize,
    batch_size: usize,
    /// Dormant connections held open for the whole run.
    idle_conns: usize,
    /// Open-loop arrival rate, when the scenario paces arrivals.
    target_rps: Option<f64>,
    ok: u64,
    shed: u64,
    errors: u64,
    items_per_s: f64,
    req_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    shed_rate: f64,
    /// Peak batch-queue depth the server reported after the run; must
    /// stay within the configured cap.
    server_queue_cap: usize,
    server_batch_queue_depth: u64,
    server_max_batch: u64,
}

#[derive(Serialize)]
struct Doc {
    bench: String,
    /// Logical CPUs on the machine that produced these numbers —
    /// throughput scales with cores, so cross-host comparisons must
    /// normalize by this.
    host_cpus: usize,
    /// Shared worker-pool size used by every scenario.
    pool_workers: usize,
    scenarios: Vec<Scenario>,
}

fn bundle() -> ModelBundle {
    let ds = Dataset::generate(200, 55);
    let sel = training::train_selector(&ds, Objective::Latency, 1);
    let lat = training::train_latency_predictor(&ds, 1);
    ModelBundle::new(
        sel.selector,
        lat.predictor,
        0.2,
        ReconfigCost::default(),
        TileConfig::default(),
    )
}

fn run_scenario(name: &str, cfg: ServeConfig, load: LoadGen, bundle: ModelBundle) -> Scenario {
    let queue_cap = cfg.queue_cap;
    let server = Server::start(bundle, cfg).expect("bind ephemeral port");
    let shards = server.shards();
    let report: LoadReport = load.run(server.addr()).expect("load run");
    let stats = server.shutdown();
    let attempted = report.ok + report.shed + report.errors;
    println!(
        "{name:<24} [x{shards}] {:>9.0} items/s  {:>8.0} req/s  p50 {:>7.1}us  \
         p99 {:>8.1}us  shed {:>5.1}%  errors {}",
        report.items_per_s,
        report.req_per_s,
        report.p50_us,
        report.p99_us,
        100.0 * report.shed as f64 / attempted.max(1) as f64,
        report.errors,
    );
    Scenario {
        name: name.into(),
        reactor_shards: shards,
        pool_workers: misam_oracle::pool::default_threads(),
        connections: load.connections,
        requests_per_conn: load.requests_per_conn,
        batch_size: load.batch_size,
        idle_conns: report.idle_conns,
        target_rps: report.target_rps,
        ok: report.ok,
        shed: report.shed,
        errors: report.errors,
        items_per_s: report.items_per_s,
        req_per_s: report.req_per_s,
        p50_us: report.p50_us,
        p95_us: report.p95_us,
        p99_us: report.p99_us,
        shed_rate: report.shed as f64 / attempted.max(1) as f64,
        server_queue_cap: queue_cap,
        server_batch_queue_depth: stats.batch_queue_depth,
        server_max_batch: stats.max_batch,
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let cpus = host_cpus();
    let pool_workers = misam_oracle::pool::default_threads();
    eprintln!("training the serving bundle… ({cpus} host CPUs, {pool_workers} pool workers)");
    let b = bundle();
    // Shard count for the explicit multi-shard scenarios: at least two
    // so SO_REUSEPORT sharding is actually exercised even on 1-CPU
    // hosts, one per core beyond that.
    let shards = cpus.max(2);
    let sharded = |reactors| ServeConfig { reactors, ..Default::default() };
    let gen = |connections, requests_per_conn, batch_size, seed| LoadGen {
        connections,
        requests_per_conn,
        batch_size,
        seed,
        ..Default::default()
    };

    let scenarios = vec![
        // The headline paths: single and batched predicts.
        run_scenario("event_single_conns8", sharded(shards), gen(8, 500, 1, 3), b.clone()),
        run_scenario("event_batch16_conns8", sharded(shards), gen(8, 500, 16, 1), b.clone()),
        run_scenario("event_batch64_conns4", sharded(shards), gen(4, 300, 64, 2), b.clone()),
        // Many-connection fan-in: the reactor keeps 256 closed-loop
        // connections as slab entries across its shards, not threads.
        run_scenario("event_single_conns256", sharded(shards), gen(256, 30, 1, 6), b.clone()),
        // 2000 dormant connections plus a hot pair — the idle flood
        // must not tax the hot path.
        run_scenario(
            "event_idle2000_hot2",
            sharded(shards),
            LoadGen { idle_conns: 2000, ..gen(2, 400, 1, 11) },
            b.clone(),
        ),
        // Open-loop arrivals at a fixed rate: latency is measured from
        // the scheduled send time, so queueing delay is not hidden by
        // coordinated omission.
        run_scenario(
            "event_openloop_2k_rps",
            sharded(shards),
            LoadGen { open_loop_rps: Some(2_000.0), ..gen(8, 250, 1, 9) },
            b.clone(),
        ),
        // Overload: a queue capped far below the offered load. The
        // point is the bound — the server must shed (Overloaded
        // replies) while the reported queue depth never exceeds the
        // cap, i.e. memory stays bounded no matter how hard clients
        // push.
        run_scenario(
            "event_overload_cap32",
            ServeConfig { queue_cap: 32, batch_max: 8, reactors: shards, ..ServeConfig::default() },
            gen(12, 200, 16, 4),
            b.clone(),
        ),
    ];

    let overload = scenarios.last().unwrap();
    assert!(
        overload.server_batch_queue_depth <= overload.server_queue_cap as u64,
        "queue depth must respect the cap"
    );
    for s in &scenarios {
        assert_eq!(s.errors, 0, "{}: protocol errors under load", s.name);
    }

    let doc = Doc { bench: "bench_serve".into(), host_cpus: cpus, pool_workers, scenarios };
    std::fs::write("BENCH_serve.json", serde_json::to_string_pretty(&doc).unwrap())
        .expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
