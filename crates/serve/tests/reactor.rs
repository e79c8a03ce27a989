//! Socket-level tests of the reactor's own shapes: idle-connection
//! floods, per-connection backpressure, multi-shard drain, open-loop
//! load, and hostile frames.
//!
//! Linux-only, like the server itself: the reactor rides epoll. The
//! protocol suite lives in `tests/server.rs`.

#![cfg(target_os = "linux")]

use misam::dataset::{Dataset, Objective};
use misam::persist::ModelBundle;
use misam::training;
use misam_features::TileConfig;
use misam_recon::cost::ReconfigCost;
use misam_serve::client::synthetic_vector;
use misam_serve::protocol::{
    BatchRequest, ErrorCode, PredictRequest, Request, RequestEnvelope, ResponseEnvelope,
};
use misam_serve::{Client, LoadGen, Response, ServeConfig, Server, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn bundle() -> ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE
        .get_or_init(|| {
            let ds = Dataset::generate(120, 55);
            let sel = training::train_selector(&ds, Objective::Latency, 1);
            let lat = training::train_latency_predictor(&ds, 1);
            ModelBundle::new(
                sel.selector,
                lat.predictor,
                0.2,
                ReconfigCost::default(),
                TileConfig::default(),
            )
        })
        .clone()
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(bundle(), cfg).expect("bind ephemeral port")
}

#[test]
fn auto_mode_runs_the_event_engine_on_linux() {
    // The default config runs one reactor shard per core.
    let server = start(ServeConfig::default());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(server.shards(), cores);
    server.shutdown();
}

#[test]
fn forced_event_mode_with_two_shards_serves_and_drains() {
    let server = start(ServeConfig { reactors: 2, ..Default::default() });
    assert_eq!(server.shards(), 2, "explicit reactor count is honored");

    // Several connections land across the SO_REUSEPORT accept queues;
    // every one must get in-order answers.
    let mut clients: Vec<Client> =
        (0..6).map(|_| Client::connect(server.addr()).unwrap()).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        match c.predict(synthetic_vector(9000 + i as u64)).unwrap() {
            Response::Predict(r) => assert!(r.predicted_latency_s > 0.0),
            other => panic!("expected Predict, got {other:?}"),
        }
    }
    // A client-initiated drain: Bye arrives, then the final snapshot
    // accounts for every request answered above.
    match clients[0].shutdown().unwrap() {
        Response::Bye => {}
        other => panic!("expected Bye, got {other:?}"),
    }
    let stats = server.join();
    let predicts = &stats.endpoints[0];
    assert_eq!(predicts.endpoint, "predict");
    assert_eq!(predicts.requests, 6);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.batch_queue_depth, 0, "drain must empty the batcher");
}

#[test]
fn idle_connection_flood_leaves_the_hot_path_fast() {
    let server = start(ServeConfig { reactors: 2, ..Default::default() });
    // 1000 dormant connections held open for the whole run — the
    // reactor keeps them as slab entries, not parked threads. Two hot
    // connections must still see bounded tails.
    let report = LoadGen {
        connections: 2,
        requests_per_conn: 200,
        batch_size: 1,
        seed: 11,
        open_loop_rps: None,
        idle_conns: 1000,
        gen: None,
    }
    .run(server.addr())
    .expect("flood run");
    assert_eq!(report.idle_conns, 1000);
    assert_eq!(report.ok, 400, "every hot request answered: {report:?}");
    assert_eq!(report.errors, 0);
    assert!(
        report.p99_us < 250_000.0,
        "hot-path p99 must stay bounded under the flood: {report:?}"
    );
    let stats = server.stats();
    assert!(stats.connections_total >= 1002, "flood accounted: {stats:?}");
    // The flood disconnected when the run ended; the server noticed.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.stats().connections_open == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "idle connections must be reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn slow_reader_backpressure_does_not_stall_other_connections() {
    let server = start(ServeConfig { reactors: 1, ..Default::default() });

    // A connection that fires thousands of requests and never reads:
    // its responses pile into its own write buffer until the reactor
    // stops reading from it (TCP backpressure), while everyone else
    // proceeds. One line is reused; ids don't matter to the server.
    let env = RequestEnvelope {
        v: PROTOCOL_VERSION,
        id: 1,
        req: Request::Predict(PredictRequest { features: synthetic_vector(77) }),
    };
    let line = serde_json::to_string(&env).unwrap() + "\n";
    let slow = TcpStream::connect(server.addr()).unwrap();
    slow.set_nonblocking(true).unwrap();
    let mut slow_w = &slow;
    let mut sent = 0usize;
    let mut wedged = false;
    for _ in 0..200_000 {
        match slow_w.write(line.as_bytes()) {
            Ok(0) => break,
            Ok(_) => sent += 1,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // The kernel send buffer is full because the server
                // paused reading from us: backpressure reached here.
                wedged = true;
                break;
            }
            Err(e) => panic!("slow writer failed: {e}"),
        }
    }
    assert!(sent > 0);

    // A well-behaved client on the same (single) reactor shard must be
    // completely unaffected while the slow connection is wedged.
    let mut hot = Client::connect(server.addr()).unwrap();
    let started = Instant::now();
    for i in 0..100 {
        match hot.predict(synthetic_vector(500 + i)).unwrap() {
            Response::Predict(_) | Response::Batch(_) => {}
            Response::Overloaded(_) => {}
            other => panic!("expected Predict, got {other:?}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "hot connection stalled behind a slow reader"
    );

    // The slow connection is still alive and its responses flow as
    // soon as it finally reads.
    let mut slow_r = &slow;
    let mut buf = [0u8; 64 << 10];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut drained = 0usize;
    while !buf[..drained].contains(&b'\n') {
        match slow_r.read(&mut buf[drained..]) {
            Ok(n) => drained += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(Instant::now() < deadline, "no responses despite reading again");
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("slow reader failed: {e}"),
        }
    }
    assert!(drained > 0, "backpressured responses must flow once the peer reads");
    // And they answer the request, not the framing.
    let first = buf[..drained].split(|&b| b == b'\n').next().unwrap();
    let reply: ResponseEnvelope =
        serde_json::from_str(std::str::from_utf8(first).unwrap()).unwrap();
    assert!(
        matches!(reply.resp, Response::Predict(_) | Response::Overloaded(_)),
        "{:?}",
        reply.resp
    );
    let _ = wedged; // whether we wedged depends on kernel buffer sizes
    drop(slow);
    server.shutdown();
}

/// Writes `frame` plus a newline and reads back one decoded reply.
fn exchange(
    raw: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    frame: &str,
) -> ResponseEnvelope {
    raw.write_all(frame.as_bytes()).unwrap();
    raw.write_all(b"\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    serde_json::from_str(line.trim_end()).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn one_shard() -> Server {
    start(ServeConfig { reactors: 1, ..Default::default() })
}

fn batch_frame(id: u64) -> String {
    let items = (0..4).map(|i| PredictRequest { features: synthetic_vector(900 + i) }).collect();
    let req = Request::Batch(BatchRequest { items });
    serde_json::to_string(&RequestEnvelope { v: PROTOCOL_VERSION, id, req }).unwrap()
}

#[test]
fn v1_decimal_frames_get_bad_version_on_both_engines() {
    // A v1 client's Batch: decimal feature arrays the v2 decoder cannot
    // read. The version decides the answer, not the body.
    let decimal: Vec<String> = (0..3).map(|i| format!("{:?}", synthetic_vector(40 + i))).collect();
    let items: Vec<String> = decimal.iter().map(|f| format!("{{\"features\":{f}}}")).collect();
    let v1 =
        format!("{{\"v\":1,\"id\":5,\"req\":{{\"Batch\":{{\"items\":[{}]}}}}}}", items.join(","));
    let server = one_shard();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let reply = exchange(&mut raw, &mut reader, &v1);
    assert_eq!(reply.id, 5);
    match reply.resp {
        Response::Error(e) => assert_eq!((e.code, e.retryable), (ErrorCode::BadVersion, false)),
        other => panic!("expected BadVersion, got {other:?}"),
    }
    // The same connection still serves v2.
    assert!(matches!(exchange(&mut raw, &mut reader, &batch_frame(6)).resp, Response::Batch(_)));
    server.shutdown();
}

#[test]
fn a_deeply_nested_frame_is_refused_and_the_server_keeps_serving() {
    // ~100 kB of `[` once overflowed the reactor thread's stack and
    // aborted the process; the nesting cap answers it as BadRequest.
    let deep = "[".repeat(100_000);
    let server = one_shard();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    for v in [1, PROTOCOL_VERSION] {
        let frame = format!("{{\"v\":{v},\"id\":1,\"req\":{deep}");
        match exchange(&mut raw, &mut reader, &frame).resp {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest, "{}", e.message),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
    let reply = exchange(&mut raw, &mut reader, &batch_frame(2));
    assert_eq!(reply.id, 2);
    assert!(matches!(reply.resp, Response::Batch(b) if b.items.len() == 4));
    server.shutdown();
}

#[test]
fn open_loop_load_paces_arrivals() {
    let server = start(ServeConfig::default());
    let report = LoadGen {
        connections: 2,
        requests_per_conn: 100,
        batch_size: 1,
        seed: 5,
        open_loop_rps: Some(500.0),
        idle_conns: 0,
        gen: None,
    }
    .run(server.addr())
    .expect("open-loop run");
    assert_eq!(report.ok, 200, "{report:?}");
    assert_eq!(report.target_rps, Some(500.0));
    // 200 requests at 500/s is at least 0.4s of scheduled arrivals; an
    // unpaced closed loop would finish this load in a few milliseconds.
    assert!(report.wall_s >= 0.3, "arrivals were not paced: {report:?}");
    assert!(report.req_per_s <= 650.0, "rate overshoot: {report:?}");
    server.shutdown();
}
