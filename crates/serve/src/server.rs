//! The TCP server: startup, shared dispatch helpers, and graceful
//! shutdown.
//!
//! The engine is a set of epoll reactor threads (Linux), each with its
//! own `SO_REUSEPORT` listener, epoll instance, micro-batcher shard and
//! metrics shard (`crate::reactor`). Connections are non-blocking state
//! machines; an idle connection costs kilobytes, not a thread, so tens
//! of thousands of mostly-idle clients are cheap. Other platforms have
//! no engine: [`Server::start`] returns [`std::io::ErrorKind::Unsupported`].
//!
//! Reactor code never computes: predictions go through the sharded
//! micro-batcher, heavy jobs through a fixed
//! [`misam_oracle::pool::WorkerPool`], and both queues sit behind one
//! admission bound, so overload produces `Overloaded` replies instead
//! of memory growth.
//!
//! Shutdown (a `Shutdown` request, [`Server::shutdown`], or a SIGINT
//! flag wired by the CLI) is a drain, not an abort: listeners close,
//! every admitted request is answered and flushed, the batcher shards
//! and pool then drain, and the final folded metrics snapshot is
//! returned to the caller. [`Server::join`] parks on a condvar until
//! that drain is triggered — no polling.

use crate::batch::{BatchConfig, ShardedBatcher};
use crate::metrics::{Gauges, MetricsShards};
use crate::protocol::{
    self, ErrorCode, ErrorReply, LearnStatsReply, Response, SimulateReply, StatsReply,
};
use crate::state::{predict_vector, PredictOutcome, PreparedBundle, SharedModel};
use crate::tap::LearnTap;
use misam::persist::ModelBundle;
use misam_features::FEATURE_NAMES;
use misam_oracle::pool::WorkerPool;
use misam_sim::Operand;
use misam_sparse::LazyOperand;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads for simulation/generation jobs (0 = all cores via
    /// `misam_oracle::pool::default_threads`).
    pub threads: usize,
    /// Micro-batch flush size.
    pub batch_max: usize,
    /// Admission bound for both the batch queue (feature vectors) and
    /// the worker-pool queue (jobs), shared across all shards.
    pub queue_cap: usize,
    /// Reactor shards (0 = one per core); each shard is an accept
    /// queue + epoll loop + batcher shard + metrics shard.
    pub reactors: usize,
    /// Install the online-learning tap, sampling 1 in N served
    /// predictions for background oracle labeling (0 = no tap). The
    /// learner thread itself is spawned by the caller
    /// ([`Server::learn_tap`] exposes the queue).
    pub learn_sample_every: u64,
    /// Bound of the learner tap's sample queue; a full queue sheds
    /// samples (counted) instead of blocking the serving path.
    pub learn_queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            batch_max: 64,
            queue_cap: 4096,
            reactors: 0,
            learn_sample_every: 0,
            learn_queue_cap: 1024,
        }
    }
}

/// Everything the dispatch path shares.
pub(crate) struct ServerState {
    pub(crate) model: Arc<SharedModel>,
    pub(crate) metrics: MetricsShards,
    pub(crate) batcher: ShardedBatcher,
    pub(crate) pool: WorkerPool,
    /// The online-learning sample tap, when `--learn` is on.
    pub(crate) tap: Option<Arc<LearnTap>>,
    pub(crate) stopping: AtomicBool,
    pub(crate) addr: SocketAddr,
    pub(crate) cfg: ServeConfig,
    /// Condvar pair behind [`Server::join`] / [`Server::wait_stopping`]:
    /// flipped exactly once, by the first shutdown trigger.
    stop_lock: Mutex<bool>,
    stop_cv: Condvar,
    /// One wakeup closure per reactor mailbox, registered at start.
    wakers: parking_lot::Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl ServerState {
    pub(crate) fn retry_after_ms(&self) -> u64 {
        // Backoff hint scaled to how much queued work is ahead of the
        // client: 1 ms, plus 1 ms per full batch already queued.
        let depth = self.batcher.queue_depth() + self.pool.queue_depth();
        1 + depth as u64 / self.cfg.batch_max.max(1) as u64
    }

    pub(crate) fn stats(&self) -> StatsReply {
        let (batches, items, max_batch) = self.batcher.folded_counters();
        let learn = match &self.tap {
            Some(tap) => tap.stats_reply(self.model.generation()),
            None => {
                LearnStatsReply { model_generation: self.model.generation(), ..Default::default() }
            }
        };
        self.metrics.fold_snapshot(Gauges {
            batch_queue_depth: self.batcher.queue_depth() as u64,
            pool_queue_depth: self.pool.queue_depth() as u64,
            pool_panics: self.pool.panics() as u64,
            batches_flushed: batches,
            batched_items: items,
            max_batch,
            batch_shards: self.batcher.shard_counters(),
            learn,
        })
    }

    /// Flips the stopping flag once, wakes [`Server::join`] waiters,
    /// and nudges every reactor through its mailbox.
    pub(crate) fn begin_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.stop_lock.lock().expect("stop lock poisoned") = true;
        self.stop_cv.notify_all();
        for wake in self.wakers.lock().iter() {
            wake();
        }
    }
}

/// A running server; dropping it without calling [`Server::shutdown`]
/// aborts less gracefully (threads are detached), so prefer an explicit
/// shutdown.
pub struct Server {
    state: Arc<ServerState>,
    /// One thread per reactor shard.
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.state.addr)
            .field("shards", &self.workers.len())
            .finish()
    }
}

impl Server {
    /// Binds `cfg.addr` and starts serving `bundle`: `cfg.reactors`
    /// reactor shards, each with a `SO_REUSEPORT` listener so the kernel
    /// distributes accepts across them.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or [`std::io::ErrorKind::Unsupported`]
    /// off Linux, where there is no epoll backend.
    #[cfg(target_os = "linux")]
    pub fn start(bundle: ModelBundle, cfg: ServeConfig) -> std::io::Result<Server> {
        use std::net::ToSocketAddrs;
        let shards = if cfg.reactors == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.reactors
        };
        let want = cfg.addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable listen address")
        })?;
        let first = crate::poll::bind_reuseport(want)?;
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..shards {
            listeners.push(crate::poll::bind_reuseport(addr)?);
        }
        let state = Self::build_state(bundle, cfg, addr, shards);
        let mut workers = Vec::with_capacity(shards);
        for (i, listener) in listeners.into_iter().enumerate() {
            let mailbox = Arc::new(crate::reactor::Mailbox::new()?);
            {
                let mailbox = Arc::clone(&mailbox);
                state.wakers.lock().push(Box::new(move || mailbox.wake()));
            }
            workers.push(crate::reactor::spawn(i, listener, Arc::clone(&state), mailbox)?);
        }
        Ok(Server { state, workers })
    }

    /// Off Linux there is no serving engine.
    ///
    /// # Errors
    ///
    /// Always [`std::io::ErrorKind::Unsupported`].
    #[cfg(not(target_os = "linux"))]
    pub fn start(_bundle: ModelBundle, _cfg: ServeConfig) -> std::io::Result<Server> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "misam-serve requires epoll (linux)",
        ))
    }

    fn build_state(
        bundle: ModelBundle,
        cfg: ServeConfig,
        addr: SocketAddr,
        shards: usize,
    ) -> Arc<ServerState> {
        let threads =
            if cfg.threads == 0 { misam_oracle::pool::default_threads() } else { cfg.threads };
        let model = Arc::new(SharedModel::new(bundle));
        let tap = (cfg.learn_sample_every > 0)
            .then(|| Arc::new(LearnTap::new(cfg.learn_sample_every, cfg.learn_queue_cap)));
        let batcher = ShardedBatcher::with_tap(
            &model,
            BatchConfig { batch_max: cfg.batch_max, queue_cap: cfg.queue_cap },
            shards,
            tap.clone(),
        );
        Arc::new(ServerState {
            model,
            metrics: MetricsShards::new(shards),
            batcher,
            tap,
            pool: WorkerPool::new(threads, cfg.queue_cap),
            stopping: AtomicBool::new(false),
            addr,
            cfg,
            stop_lock: Mutex::new(false),
            stop_cv: Condvar::new(),
            wakers: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Number of reactor shards serving.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Whether shutdown has been initiated (locally or by a client's
    /// `Shutdown` request).
    pub fn is_stopping(&self) -> bool {
        self.state.stopping.load(Ordering::SeqCst)
    }

    /// A live metrics snapshot, folded across shards.
    pub fn stats(&self) -> StatsReply {
        self.state.stats()
    }

    /// The hot-reload point the server predicts through — the learner
    /// publishes retrained bundles here.
    pub fn shared_model(&self) -> Arc<SharedModel> {
        Arc::clone(&self.state.model)
    }

    /// The learner tap, when the server was started with a sampling
    /// rate (`learn_sample_every > 0`); the learner thread drains it.
    pub fn learn_tap(&self) -> Option<Arc<LearnTap>> {
        self.state.tap.clone()
    }

    /// Initiates shutdown without waiting; pair with [`Server::join`].
    pub fn begin_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Parks until shutdown is triggered or `timeout` elapses; returns
    /// whether the server is stopping. Lets a supervisor (the CLI's
    /// SIGINT loop) wait efficiently while still polling its own flag.
    pub fn wait_stopping(&self, timeout: Duration) -> bool {
        let guard = self.state.stop_lock.lock().expect("stop lock poisoned");
        let (guard, _) = self
            .state
            .stop_cv
            .wait_timeout_while(guard, timeout, |stopped| !*stopped)
            .expect("stop lock poisoned");
        *guard
    }

    /// Initiates (if needed) and completes a graceful shutdown: drains
    /// in-flight and admitted work, joins every thread, and returns the
    /// final metrics snapshot.
    pub fn shutdown(mut self) -> StatsReply {
        self.state.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Every serving thread has exited; nobody can submit anymore.
        // Drain the batcher shards (queues empty before their threads
        // exit), then the pool drains the same way on drop.
        self.state.batcher.shutdown();
        self.state.stats()
    }

    /// Blocks on the shutdown condvar until a client's `Shutdown`
    /// request (or a prior [`Server::begin_shutdown`]) stops the
    /// server, then completes the drain and returns the final metrics
    /// snapshot.
    pub fn join(self) -> StatsReply {
        let mut stopped = self.state.stop_lock.lock().expect("stop lock poisoned");
        while !*stopped {
            stopped = self.state.stop_cv.wait(stopped).expect("stop lock poisoned");
        }
        drop(stopped);
        self.shutdown()
    }
}

/// Arity/finiteness validation of a `Predict` or `Batch` group; `Err`
/// carries the ready-made failure response.
#[allow(clippy::result_large_err)] // Err is a ready-made Response (see the allow on Response)
pub(crate) fn validate_group(vectors: &[Vec<f64>]) -> Result<(), Response> {
    let arity = FEATURE_NAMES.len();
    for (i, v) in vectors.iter().enumerate() {
        if v.len() != arity {
            return Err(Response::Error(ErrorReply {
                code: ErrorCode::BadFeatures,
                message: format!("item {i}: expected {arity} features, got {}", v.len()),
                retryable: false,
            }));
        }
        if v.iter().any(|x| !x.is_finite()) {
            return Err(Response::Error(ErrorReply {
                code: ErrorCode::BadFeatures,
                message: format!("item {i}: non-finite feature value"),
                retryable: false,
            }));
        }
    }
    Ok(())
}

/// Shape validation of a `Simulate` request; `Some` carries the
/// ready-made failure response.
pub(crate) fn validate_simulate(req: &protocol::SimulateRequest) -> Option<Response> {
    if !(1..=4).contains(&req.design) {
        return Some(Response::Error(ErrorReply {
            code: ErrorCode::BadGenSpec,
            message: format!("design {} outside 1..=4", req.design),
            retryable: false,
        }));
    }
    if req.spec.is_some() == req.matrix.is_some() {
        return Some(Response::Error(ErrorReply {
            code: ErrorCode::BadGenSpec,
            message: "exactly one of spec and matrix must be given".into(),
            retryable: false,
        }));
    }
    None
}

/// Runs a pool job body and hands its outcome to `answer` as a typed
/// reply: a spec or operand the job rejected is
/// [`ErrorCode::BadGenSpec`], a panic is [`ErrorCode::Internal`], so the
/// requester always gets an answer. A panic then continues to the pool
/// worker, which contains it and counts it (the `pool_panics` of
/// [`StatsReply`]), and the worker lives on.
pub(crate) fn run_job<T>(
    job: impl FnOnce() -> Result<T, String>,
    answer: impl FnOnce(Result<T, ErrorReply>),
) {
    // The job owns or only reads what it touches, and the shared caches
    // it reaches (oracle memo cells, profile store) stay consistent
    // across an unwind, so nothing half-updated is observed after it.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
        Ok(Ok(value)) => answer(Ok(value)),
        Ok(Err(message)) => {
            answer(Err(ErrorReply { code: ErrorCode::BadGenSpec, message, retryable: false }))
        }
        Err(payload) => {
            answer(Err(ErrorReply {
                code: ErrorCode::Internal,
                message: "the request's job panicked on the worker pool".into(),
                retryable: false,
            }));
            std::panic::resume_unwind(payload);
        }
    }
}

/// The `PredictGen` pool job body: run the
/// workload's structure stage, extract features from it (A is never
/// materialized, see [`misam_features::PairFeatures::extract_dense_b`]),
/// predict against `prepared`. With a
/// `tap`, the prediction is offered to the learner's sampler *with its
/// generator spec* — these are the samples the trainer can oracle-label
/// (the spec rebuilds the operand deterministically).
pub(crate) fn run_predict_gen(
    prepared: &PreparedBundle,
    spec: &protocol::GenSpec,
    tap: Option<&LearnTap>,
) -> Result<PredictOutcome, String> {
    let a = spec.build()?;
    let features = misam_features::PairFeatures::extract_dense_b(
        &a,
        a.cols(),
        spec.dense_cols,
        &prepared.bundle.tile_config(),
    );
    let v = features.to_vector();
    let out = predict_vector(prepared, &v);
    if let Some(tap) = tap {
        tap.offer(&v, out.predicted, Some(spec));
    }
    Ok(out)
}

/// The `Simulate` pool job body: run the cycle
/// simulator through the process-global memoizing oracle, so repeated
/// (workload, design) queries across connections are simulated once. A
/// spec is simulated structure-first through the oracle's lazy entry,
/// which never materializes A for the paper's designs. A
/// request naming an on-disk `.msab` matrix is simulated through the
/// mmapped view — the operand is never loaded into an owned matrix, and
/// its O(1) header digest keys the same oracle entries the owned twin
/// would. Assumes [`validate_simulate`] passed.
pub(crate) fn run_simulate(req: &protocol::SimulateRequest) -> Result<SimulateReply, String> {
    let design = req.design - 1;
    let to_reply = |r: misam_sim::SimReport| SimulateReply {
        design: r.design,
        cycles: r.cycles,
        time_s: r.time_s,
        energy_j: r.energy_j,
        pe_utilization: r.pe_utilization,
        tiles: r.tiles,
    };
    match (&req.spec, &req.matrix) {
        (Some(spec), None) => spec.build().map(|a| {
            let b = LazyOperand::Dense { rows: a.cols(), cols: spec.dense_cols };
            to_reply(misam_oracle::global().execute_lazy(&a, b, design))
        }),
        (None, Some(path)) => misam_sparse::slab::SlabMatrix::open(path)
            .map_err(|e| format!("cannot open slab '{path}': {e}"))
            .map(|slab| {
                let cols = req.dense_cols.unwrap_or(protocol::DEFAULT_DENSE_COLS);
                let b = Operand::Dense { rows: slab.cols(), cols };
                to_reply(misam_oracle::global().execute_slab(&slab, b, design))
            }),
        _ => unreachable!("validated by validate_simulate"),
    }
}

/// Installs a process-wide SIGINT handler that only flips a flag, and
/// returns that flag; the CLI polls it to turn Ctrl-C into the same
/// graceful drain a `Shutdown` request triggers. Safe to call more than
/// once (the same flag is returned).
///
/// Non-Unix builds get the flag without a handler (Ctrl-C falls back to
/// process termination).
pub fn sigint_flag() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    #[cfg(unix)]
    {
        use std::sync::Once;
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            extern "C" fn on_sigint(_sig: i32) {
                FLAG.store(true, Ordering::SeqCst);
            }
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGINT: i32 = 2;
            // SAFETY: the handler only performs an atomic store, which
            // is async-signal-safe; `signal` is the libc std already
            // links against.
            unsafe {
                signal(SIGINT, on_sigint as extern "C" fn(i32) as *const () as usize);
            }
        });
    }
    &FLAG
}

#[cfg(test)]
mod tests {
    use super::*;
    use misam_features::{PairFeatures, TileConfig};
    use misam_oracle::{Executor, FpgaSim};
    use misam_sparse::{gen, MatrixProfile};
    use proptest::prelude::*;
    use std::time::Instant;

    /// Checks one spec's structure-first serving answers against the
    /// eager path on the materialized matrix: the `PredictGen` feature
    /// vector bit for bit, and the `Simulate` reply of every design.
    fn assert_structure_first_matches_eager(spec: &protocol::GenSpec) {
        let tile = TileConfig::default();
        let a = spec.build().expect("valid spec");
        let served = PairFeatures::extract_dense_b(&a, a.cols(), spec.dense_cols, &tile);
        let csr = a.into_csr();
        let eager = PairFeatures::from_profile_dense_b(
            &MatrixProfile::build(&csr),
            csr.cols(),
            spec.dense_cols,
            &tile,
        );
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(served.to_vector()), bits(eager.to_vector()), "features of {spec:?}");

        let b = Operand::Dense { rows: csr.cols(), cols: spec.dense_cols };
        for design in 1..=4 {
            let req = protocol::SimulateRequest {
                spec: Some(spec.clone()),
                matrix: None,
                dense_cols: None,
                design,
            };
            let reply = run_simulate(&req).expect("valid spec");
            let r = FpgaSim.execute(&csr, b, design - 1);
            let got = (reply.design, reply.cycles, reply.tiles);
            assert_eq!(got, (r.design, r.cycles, r.tiles), "design {design} of {spec:?}");
            let floats = |x: [f64; 3]| x.map(f64::to_bits);
            assert_eq!(
                floats([reply.time_s, reply.energy_j, reply.pe_utilization]),
                floats([r.time_s, r.energy_j, r.pe_utilization]),
                "design {design} of {spec:?}"
            );
        }
    }

    fn spec(
        kind: &str,
        rows: usize,
        cols: usize,
        density: f64,
        dense_cols: usize,
    ) -> protocol::GenSpec {
        protocol::GenSpec { kind: kind.into(), rows, cols, density, seed: 7, dense_cols }
    }

    #[test]
    fn every_family_matches_eager_on_edge_shapes() {
        let edges = [
            (1, 1, 0.5, 64),
            (1, 1, 1.0, 1),
            (37, 211, 0.05, 64),
            (96, 80, 1.0, 32),
            (150, 150, 0.02, 1),
        ];
        for (kind, _) in gen::FAMILIES {
            for (rows, cols, density, dense_cols) in edges {
                assert_structure_first_matches_eager(&spec(kind, rows, cols, density, dense_cols));
            }
        }
    }

    #[test]
    fn a_panicking_job_is_answered_as_internal() {
        let ds = misam::Dataset::generate(40, 3);
        let bundle = misam::persist::ModelBundle::new(
            misam::training::train_selector(&ds, misam::Objective::Latency, 1).selector,
            misam::training::train_latency_predictor(&ds, 1).predictor,
            0.2,
            misam_recon::cost::ReconfigCost::default(),
            TileConfig::default(),
        );
        let server = Server::start(bundle, ServeConfig::default()).unwrap();
        type Job = Box<dyn FnOnce() -> Result<u8, String> + Send>;
        let jobs: [Job; 3] = [
            Box::new(|| panic!("a bad job")),
            Box::new(|| Err("bad spec".into())),
            Box::new(|| Ok(3)),
        ];
        let replies: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let (tx, rx) = crossbeam::channel::unbounded();
                let submitted =
                    server.state.pool.try_submit(move || run_job(job, |out| drop(tx.send(out))));
                submitted.unwrap();
                rx.recv().unwrap()
            })
            .collect();
        let reply = replies[0].clone().unwrap_err();
        assert_eq!((reply.code, reply.retryable), (ErrorCode::Internal, false));
        let reply = replies[1].clone().unwrap_err();
        assert_eq!((reply.code, reply.message.as_str()), (ErrorCode::BadGenSpec, "bad spec"));
        assert_eq!(replies[2], Ok(3));
        // The panic reaches the pool after the answer; Stats shows it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().pool_panics == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(server.stats().pool_panics, 1);
        server.shutdown();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn served_spec_answers_match_eager(
            family in 0usize..6,
            rows in 1usize..400,
            cols in 1usize..400,
            density in 0.0005f64..1.0,
            dense_cols in 1usize..600,
            seed in 0u64..1_000_000,
        ) {
            let kind = gen::FAMILIES[family].0.to_string();
            let spec = protocol::GenSpec { kind, rows, cols, density, seed, dense_cols };
            assert_structure_first_matches_eager(&spec);
        }
    }
}
