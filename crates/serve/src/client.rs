//! Blocking NDJSON client and a multi-connection load generator.
//!
//! The client speaks the same framing as the server: one JSON envelope
//! per line, responses arriving in request order on each connection.
//! [`LoadGen`] drives N concurrent connections through closed-loop or
//! paced open-loop request streams — optionally alongside a flood of
//! held-open idle connections, the load shape the event-driven server
//! exists for — and aggregates client-observed latency percentiles. It
//! is what `misam client --load` and `bench_serve` are built on.
//!
//! Open-loop latency is measured from each request's *scheduled* send
//! time, not the actual send, so a stalled server inflates the tail
//! instead of silently slowing the arrival rate (the coordinated
//! omission correction).

use crate::metrics::Histogram;
use crate::protocol::{
    self, BatchRequest, GenSpec, Line, PredictRequest, ReloadRequest, Request, RequestEnvelope,
    Response, ResponseEnvelope, SimulateRequest, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A blocking connection to a misam-serve instance.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    acc: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Returns connection/socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Client { reader: BufReader::new(stream), writer, acc: Vec::new(), next_id: 0 })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Returns I/O errors; a closed connection or unparsable reply
    /// surfaces as `UnexpectedEof` / `InvalidData`.
    pub fn call(&mut self, req: Request) -> std::io::Result<Response> {
        self.next_id += 1;
        let id = self.next_id;
        protocol::write_line(&mut self.writer, &RequestEnvelope { v: PROTOCOL_VERSION, id, req })?;
        self.writer.flush()?;
        loop {
            match protocol::read_line(&mut self.reader, &mut self.acc, MAX_LINE_BYTES)? {
                Line::Eof => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Line::Oversized => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "oversized response line",
                    ))
                }
                Line::Complete(text) => {
                    let env: ResponseEnvelope = serde_json::from_str(&text).map_err(|e| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("unparsable response: {e}"),
                        )
                    })?;
                    // Responses are in-order per connection; ids other
                    // than ours (e.g. an error reply to a frame the
                    // server could not attribute) are skipped.
                    if env.id == id || env.id == 0 {
                        return Ok(env.resp);
                    }
                }
            }
        }
    }

    /// Predicts from one full feature vector.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::call`] errors.
    pub fn predict(&mut self, features: Vec<f64>) -> std::io::Result<Response> {
        self.call(Request::Predict(PredictRequest { features }))
    }

    /// Predicts for every feature vector in one micro-batchable request.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::call`] errors.
    pub fn batch(&mut self, vectors: Vec<Vec<f64>>) -> std::io::Result<Response> {
        let items = vectors.into_iter().map(|features| PredictRequest { features }).collect();
        self.call(Request::Batch(BatchRequest { items }))
    }

    /// Predicts for a generator-described workload.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::call`] errors.
    pub fn predict_gen(&mut self, spec: GenSpec) -> std::io::Result<Response> {
        self.call(Request::PredictGen(spec))
    }

    /// Runs the cycle simulator for a generator-described workload.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::call`] errors.
    pub fn simulate(&mut self, spec: GenSpec, design: usize) -> std::io::Result<Response> {
        self.call(Request::Simulate(SimulateRequest {
            spec: Some(spec),
            matrix: None,
            dense_cols: None,
            design,
        }))
    }

    /// Runs the cycle simulator on an ingested `.msab` matrix on the
    /// server host (the operand never rides the wire), against a dense
    /// B with `dense_cols` columns (`None` = the server default).
    ///
    /// # Errors
    ///
    /// Propagates [`Client::call`] errors.
    pub fn simulate_matrix(
        &mut self,
        path: &str,
        dense_cols: Option<usize>,
        design: usize,
    ) -> std::io::Result<Response> {
        self.call(Request::Simulate(SimulateRequest {
            spec: None,
            matrix: Some(path.to_string()),
            dense_cols,
            design,
        }))
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::call`] errors.
    pub fn stats(&mut self) -> std::io::Result<Response> {
        self.call(Request::Stats)
    }

    /// Asks the server to hot-reload its bundle from `path` (a path on
    /// the server's filesystem).
    ///
    /// # Errors
    ///
    /// Propagates [`Client::call`] errors.
    pub fn reload(&mut self, path: impl Into<String>) -> std::io::Result<Response> {
        self.call(Request::Reload(ReloadRequest { path: path.into() }))
    }

    /// Requests a graceful server shutdown.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::call`] errors.
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.call(Request::Shutdown)
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGen {
    /// Concurrent active connections.
    pub connections: usize,
    /// Requests sent per connection (closed loop: each waits for its
    /// reply before the next send).
    pub requests_per_conn: usize,
    /// Feature vectors per request: 1 sends `Predict`, >1 sends `Batch`.
    pub batch_size: usize,
    /// Seed that makes the generated feature vectors reproducible.
    pub seed: u64,
    /// Total target arrival rate in requests/second across all
    /// connections (`None` = closed loop). Sends are scheduled on a
    /// fixed cadence and latency is measured from the scheduled time,
    /// so falling behind shows up as tail latency, not a lower rate.
    pub open_loop_rps: Option<f64>,
    /// Extra connections opened before the run and held idle (no
    /// traffic) until it ends — the many-dormant-clients shape, which
    /// costs the reactor kilobytes per connection, not a thread.
    pub idle_conns: usize,
    /// Generator-driven traffic: when set, each request is a
    /// `PredictGen` for a fresh matrix from this family instead of a
    /// synthetic `Predict`/`Batch` vector. Gen traffic carries
    /// provenance, so it is the shape the online-learning tap can
    /// oracle-label — and [`GenTraffic::shift_at`] flips the family
    /// mid-run to manufacture drift on demand.
    pub gen: Option<GenTraffic>,
}

/// Generator-driven load shape: which family the run draws from, and an
/// optional mid-run distribution shift.
#[derive(Debug, Clone)]
pub struct GenTraffic {
    /// Generator family before the shift (`uniform`, `power-law`,
    /// `banded`, `pruned-dnn`, `regular`, `circuit`).
    pub kind: String,
    /// Rows and columns of each generated A (square).
    pub rows: usize,
    /// Density of each generated A before the shift.
    pub density: f64,
    /// Columns of the dense B operand.
    pub dense_cols: usize,
    /// Request index (counted across all connections) at which the
    /// generator flips to `kind_after`/`density_after`. `None` = no
    /// shift.
    pub shift_at: Option<usize>,
    /// Family after the shift (defaults to `kind` when equal).
    pub kind_after: String,
    /// Density after the shift.
    pub density_after: f64,
}

impl Default for GenTraffic {
    fn default() -> Self {
        GenTraffic {
            kind: "uniform".into(),
            rows: 96,
            density: 0.05,
            dense_cols: 32,
            shift_at: None,
            kind_after: "banded".into(),
            density_after: 0.05,
        }
    }
}

impl GenTraffic {
    /// The spec for global request index `i`: pre-shift parameters
    /// before `shift_at`, post-shift after, always a fresh seed so each
    /// request is a distinct matrix.
    pub fn spec_for(&self, i: usize, seed: u64) -> GenSpec {
        let shifted = self.shift_at.is_some_and(|at| i >= at);
        let (kind, density) = if shifted {
            (&self.kind_after, self.density_after)
        } else {
            (&self.kind, self.density)
        };
        GenSpec {
            kind: kind.clone(),
            rows: self.rows,
            cols: self.rows,
            density,
            seed,
            dense_cols: self.dense_cols,
        }
    }
}

impl Default for LoadGen {
    fn default() -> Self {
        LoadGen {
            connections: 4,
            requests_per_conn: 1000,
            batch_size: 16,
            seed: 7,
            open_loop_rps: None,
            idle_conns: 0,
            gen: None,
        }
    }
}

/// Aggregated result of one load-generation run; latencies are
/// client-observed (send to reply), per request.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadReport {
    /// Active connections driven.
    pub connections: usize,
    /// Idle connections held open for the duration of the run.
    pub idle_conns: usize,
    /// Target open-loop arrival rate (requests/second), `None` for a
    /// closed-loop run.
    pub target_rps: Option<f64>,
    /// Requests answered with a prediction.
    pub ok: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Error replies or transport failures.
    pub errors: u64,
    /// Feature vectors predicted (ok × batch size).
    pub items: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_s: f64,
    /// Answered requests per second.
    pub req_per_s: f64,
    /// Predicted feature vectors per second.
    pub items_per_s: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 95th percentile request latency, microseconds.
    pub p95_us: f64,
    /// 99th percentile request latency, microseconds.
    pub p99_us: f64,
    /// Mean request latency, microseconds.
    pub mean_us: f64,
}

/// A tiny splitmix64 so the load generator needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A plausible feature vector: values in ranges the extractors produce,
/// deterministic in `seed`.
pub fn synthetic_vector(seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37).wrapping_add(0x5DEE_CE66);
    (0..misam_features::FEATURE_NAMES.len())
        .map(|_| {
            let u = splitmix64(&mut s) as f64 / u64::MAX as f64;
            u * 4.0 - 2.0
        })
        .collect()
}

impl LoadGen {
    /// Runs the load against `addr` and aggregates the result across
    /// connections: closed loop by default, paced open loop when
    /// `open_loop_rps` is set, with `idle_conns` dormant connections
    /// held open for the duration either way.
    ///
    /// # Errors
    ///
    /// Returns the first connection error (including an idle-flood
    /// connection the server refused); failures mid-stream are counted
    /// in `errors` instead of aborting the run.
    pub fn run(&self, addr: impl ToSocketAddrs) -> std::io::Result<LoadReport> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        // The idle flood connects first and the streams are simply held
        // until the run completes — each one is an open socket the
        // server must keep cheap while answering the hot connections.
        let mut idle: Vec<TcpStream> = Vec::with_capacity(self.idle_conns);
        for _ in 0..self.idle_conns {
            idle.push(TcpStream::connect(addr)?);
        }
        // Per-connection send cadence of the open loop: the total rate
        // split evenly, connection starts staggered across one period.
        let interval = self
            .open_loop_rps
            .filter(|rps| *rps > 0.0)
            .map(|rps| Duration::from_secs_f64(self.connections.max(1) as f64 / rps));
        let hist = Histogram::default();
        let ok = std::sync::atomic::AtomicU64::new(0);
        let shed = std::sync::atomic::AtomicU64::new(0);
        let errors = std::sync::atomic::AtomicU64::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| -> std::io::Result<()> {
            let mut handles = Vec::new();
            for conn in 0..self.connections {
                let (hist, ok, shed, errors) = (&hist, &ok, &shed, &errors);
                let cfg = self.clone();
                handles.push(scope.spawn(move || {
                    let Ok(mut client) = Client::connect(addr) else {
                        errors.fetch_add(
                            cfg.requests_per_conn as u64,
                            std::sync::atomic::Ordering::Relaxed,
                        );
                        return;
                    };
                    let offset = interval
                        .map(|iv| iv.mul_f64(conn as f64 / cfg.connections.max(1) as f64))
                        .unwrap_or_default();
                    for i in 0..cfg.requests_per_conn {
                        let global = conn * cfg.requests_per_conn + i;
                        let base = cfg.seed.wrapping_add(global as u64);
                        // Open loop: wait for the scheduled arrival and
                        // time from it, so queueing delay lands in the
                        // latency tail instead of slowing the arrivals.
                        let reference = match interval {
                            Some(iv) => {
                                let scheduled = started + offset + iv * i as u32;
                                if let Some(wait) = scheduled.checked_duration_since(Instant::now())
                                {
                                    std::thread::sleep(wait);
                                }
                                scheduled
                            }
                            None => Instant::now(),
                        };
                        let resp = if let Some(gen) = &cfg.gen {
                            client.predict_gen(gen.spec_for(global, base))
                        } else if cfg.batch_size <= 1 {
                            client.predict(synthetic_vector(base))
                        } else {
                            client.batch(
                                (0..cfg.batch_size)
                                    .map(|j| synthetic_vector(base.wrapping_add(j as u64 * 977)))
                                    .collect(),
                            )
                        };
                        let ns = reference.elapsed().as_nanos() as u64;
                        match resp {
                            Ok(Response::Predict(_)) | Ok(Response::Batch(_)) => {
                                hist.record(ns);
                                ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Ok(Response::Overloaded(_)) => {
                                shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            _ => {
                                errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                        }
                    }
                }));
            }
            for h in handles {
                h.join().expect("load connection panicked");
            }
            Ok(())
        })?;
        drop(idle);
        let wall_s = started.elapsed().as_secs_f64().max(1e-9);
        let ok = ok.into_inner();
        let items = ok * self.batch_size.max(1) as u64;
        Ok(LoadReport {
            connections: self.connections,
            idle_conns: self.idle_conns,
            target_rps: self.open_loop_rps,
            ok,
            shed: shed.into_inner(),
            errors: errors.into_inner(),
            items,
            wall_s,
            req_per_s: ok as f64 / wall_s,
            items_per_s: items as f64 / wall_s,
            p50_us: hist.quantile_us(0.50),
            p95_us: hist.quantile_us(0.95),
            p99_us: hist.quantile_us(0.99),
            mean_us: hist.mean_us(),
        })
    }
}
