//! End-to-end tests of the serving stack over real TCP sockets.
//!
//! Every test binds an ephemeral port (`127.0.0.1:0`), so tests run in
//! parallel without colliding, and exercises the server exactly the way
//! a remote client would: bytes on a socket, nothing in-process.

use misam::dataset::{Dataset, Objective};
use misam::persist::{ModelBundle, BUNDLE_VERSION};
use misam::training;
use misam_features::{TileConfig, FEATURE_NAMES};
use misam_recon::cost::ReconfigCost;
use misam_serve::client::synthetic_vector;
use misam_serve::protocol::{ErrorCode, GenSpec, PredictRequest, Request};
use misam_serve::{Client, LoadGen, Response, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

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

fn default_server() -> Server {
    start(ServeConfig::default())
}

fn vector() -> Vec<f64> {
    synthetic_vector(42)
}

fn spec(seed: u64) -> GenSpec {
    GenSpec { kind: "power-law".into(), rows: 256, cols: 256, density: 0.02, seed, dense_cols: 32 }
}

#[test]
fn predict_round_trip_and_session_state() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();

    let first = match client.predict(vector()).unwrap() {
        Response::Predict(r) => r,
        other => panic!("expected Predict, got {other:?}"),
    };
    assert!(first.reconfigured, "cold session must load a bitstream");
    assert!(first.predicted_latency_s > 0.0);

    // The same vector again on the same connection: the session already
    // holds a suitable bitstream, so no reconfiguration happens.
    let second = match client.predict(vector()).unwrap() {
        Response::Predict(r) => r,
        other => panic!("expected Predict, got {other:?}"),
    };
    assert_eq!(second.predicted, first.predicted);
    assert!(!second.reconfigured);
    assert_eq!(second.reconfig_time_s, 0.0);

    // A fresh connection is a fresh session: cold start again.
    let mut other = Client::connect(server.addr()).unwrap();
    let fresh = match other.predict(vector()).unwrap() {
        Response::Predict(r) => r,
        other => panic!("expected Predict, got {other:?}"),
    };
    assert!(fresh.reconfigured, "sessions must not leak across connections");

    server.shutdown();
}

#[test]
fn batch_matches_sequential_predicts_and_preserves_order() {
    let server = default_server();
    let vectors: Vec<Vec<f64>> = (0..9).map(|i| synthetic_vector(1000 + i)).collect();

    // One connection predicts one-by-one, another sends the same
    // vectors as a single batch; the nominated designs must agree
    // item-for-item (reconfig decisions also agree because both
    // sessions start cold and see the same sequence).
    let mut seq = Client::connect(server.addr()).unwrap();
    let mut singles = Vec::new();
    for v in &vectors {
        match seq.predict(v.clone()).unwrap() {
            Response::Predict(r) => singles.push(r),
            other => panic!("expected Predict, got {other:?}"),
        }
    }
    let mut batched = Client::connect(server.addr()).unwrap();
    let replies = match batched.batch(vectors).unwrap() {
        Response::Batch(b) => b.items,
        other => panic!("expected Batch, got {other:?}"),
    };
    assert_eq!(replies.len(), singles.len());
    for (b, s) in replies.iter().zip(&singles) {
        assert_eq!(b.predicted, s.predicted);
        assert_eq!(b.execute_on, s.execute_on);
        assert_eq!(b.reconfigured, s.reconfigured);
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_all_get_answers() {
    let server = default_server();
    let addr = server.addr();
    std::thread::scope(|scope| {
        for t in 0..8 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..20 {
                    let resp = if i % 3 == 0 {
                        client.batch(vec![synthetic_vector(t * 100 + i), synthetic_vector(i)])
                    } else {
                        client.predict(synthetic_vector(t * 1000 + i))
                    };
                    assert!(
                        matches!(resp.unwrap(), Response::Predict(_) | Response::Batch(_)),
                        "thread {t} request {i}"
                    );
                }
            });
        }
    });
    let stats = server.shutdown();
    assert!(stats.connections_total >= 8);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.pool_panics, 0);
    let answered: u64 = stats.endpoints.iter().map(|e| e.requests).sum();
    assert_eq!(answered, 8 * 20);
}

#[test]
fn malformed_and_oversized_lines_get_typed_errors_without_killing_the_connection() {
    let server = default_server();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();

    // Malformed JSON: typed BadRequest, connection stays usable.
    raw.write_all(b"this is not json\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("BadRequest"), "got: {line}");

    // An oversized line (no newline until past the cap) is discarded
    // and answered with Oversized once the terminator arrives.
    let big = vec![b'x'; misam_serve::protocol::MAX_LINE_BYTES + 64];
    raw.write_all(&big).unwrap();
    raw.write_all(b"\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Oversized"), "got: {line}");

    // The stream resynchronized: a well-formed request still works.
    let env = format!(
        "{}\n",
        serde_json::to_string(&misam_serve::protocol::RequestEnvelope {
            v: misam_serve::PROTOCOL_VERSION,
            id: 7,
            req: Request::Predict(PredictRequest { features: vector() }),
        })
        .unwrap()
    );
    raw.write_all(env.as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Predict"), "got: {line}");
    assert!(line.contains("\"id\": 7") || line.contains("\"id\":7"), "got: {line}");

    server.shutdown();
}

#[test]
fn wrong_version_and_bad_arity_are_rejected() {
    let server = default_server();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();

    let env = serde_json::to_string(&misam_serve::protocol::RequestEnvelope {
        v: 99,
        id: 1,
        req: Request::Stats,
    })
    .unwrap();
    raw.write_all(format!("{env}\n").as_bytes()).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("BadVersion"), "got: {line}");

    let mut client = Client::connect(server.addr()).unwrap();
    match client.predict(vec![1.0, 2.0]).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadFeatures);
            assert!(!e.retryable);
            assert!(e.message.contains(&FEATURE_NAMES.len().to_string()));
        }
        other => panic!("expected BadFeatures, got {other:?}"),
    }
    // Hex features carry NaN and inf exactly, so they reach the
    // finiteness check and get BadFeatures.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut v = vector();
        v[3] = bad;
        match client.predict(v).unwrap() {
            Response::Error(e) => {
                assert_eq!((e.code, e.retryable), (ErrorCode::BadFeatures, false), "{bad}");
                assert!(e.message.contains("non-finite"), "{}", e.message);
            }
            other => panic!("expected BadFeatures for {bad}, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn tiny_queue_cap_sheds_instead_of_growing() {
    let server = start(ServeConfig { queue_cap: 2, ..ServeConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();

    // A group larger than the whole queue can never be admitted.
    let resp = client.batch((0..5).map(synthetic_vector).collect()).unwrap();
    let Response::Overloaded(o) = resp else { panic!("expected Overloaded, got {resp:?}") };
    assert!(o.retry_after_ms >= 1, "a backoff hint must be given");

    // Small requests still fit: the cap bounds memory, not service.
    assert!(matches!(client.predict(vector()).unwrap(), Response::Predict(_)));

    let stats = server.shutdown();
    assert_eq!(stats.shed, 1);
    assert!(stats.batch_queue_depth <= 2);
}

#[test]
fn simulate_is_deterministic_and_memoized_across_connections() {
    let server = default_server();

    let mut a = Client::connect(server.addr()).unwrap();
    let first = match a.simulate(spec(3), 2).unwrap() {
        Response::Simulate(r) => r,
        other => panic!("expected Simulate, got {other:?}"),
    };
    assert!(first.cycles > 0 && first.time_s > 0.0);

    // Same spec from a different connection: identical answer (the
    // process-global oracle memoizes by content).
    let mut b = Client::connect(server.addr()).unwrap();
    let second = match b.simulate(spec(3), 2).unwrap() {
        Response::Simulate(r) => r,
        other => panic!("expected Simulate, got {other:?}"),
    };
    assert_eq!(first, second);

    // Out-of-range design and an invalid spec: typed errors.
    match a.simulate(spec(3), 9).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadGenSpec),
        other => panic!("expected BadGenSpec, got {other:?}"),
    }
    match a.simulate(GenSpec { density: 3.0, ..spec(3) }, 1).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadGenSpec),
        other => panic!("expected BadGenSpec, got {other:?}"),
    }
    assert_eq!(server.shutdown().pool_panics, 0, "rejected jobs are answers, not panics");
}

#[test]
fn simulate_named_on_disk_matrix_without_loading_it() {
    use misam_serve::protocol::SimulateRequest;

    // Ingest a matrix to a slab on the "server host".
    let dir = std::env::temp_dir().join(format!("misam_serve_slab_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = misam_sparse::gen::power_law(192, 192, 4.0, 1.4, 17);
    let path = dir.join("a.msab");
    misam_sparse::slab::write_slab(&path, &a).unwrap();

    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();

    let from_disk = match client.simulate_matrix(path.to_str().unwrap(), Some(64), 2).unwrap() {
        Response::Simulate(r) => r,
        other => panic!("expected Simulate, got {other:?}"),
    };
    assert!(from_disk.cycles > 0 && from_disk.time_s > 0.0);

    // Bit-identical to simulating the owned matrix in-process.
    use misam_oracle::Executor as _;
    let direct = misam_oracle::global().execute(
        &a,
        misam_sim::Operand::Dense { rows: a.cols(), cols: 64 },
        1,
    );
    assert_eq!(from_disk.cycles, direct.cycles);
    assert_eq!(from_disk.time_s, direct.time_s);

    // A missing file and an over-specified request: typed errors.
    match client.simulate_matrix(dir.join("absent.msab").to_str().unwrap(), None, 1).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadGenSpec);
            assert!(e.message.contains("cannot open slab"), "{}", e.message);
        }
        other => panic!("expected error, got {other:?}"),
    }
    match client
        .call(Request::Simulate(SimulateRequest {
            spec: Some(spec(3)),
            matrix: Some(path.to_str().unwrap().into()),
            dense_cols: None,
            design: 1,
        }))
        .unwrap()
    {
        Response::Error(e) => {
            assert!(e.message.contains("exactly one"), "{}", e.message);
        }
        other => panic!("expected error, got {other:?}"),
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_slab_gets_a_typed_error_and_the_server_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("misam_serve_tampered_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = misam_sparse::gen::power_law(96, 96, 4.0, 1.4, 23);
    let path = dir.join("tampered.msab");
    misam_sparse::slab::write_slab(&path, &a).unwrap();
    // Point the first column index far past `cols`. The header checksum
    // covers only the header, so nothing but the column scan notices.
    let mut bytes = std::fs::read(&path).unwrap();
    let col_off = 64 + 8 * (a.rows() + 1);
    bytes[col_off..col_off + 4].copy_from_slice(&0x00FF_FFFFu32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    // One pool worker: had the bad job killed it, nothing would be left
    // to run the PredictGen below.
    let server = start(ServeConfig { threads: 1, ..ServeConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();
    match client.simulate_matrix(path.to_str().unwrap(), Some(64), 1).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadGenSpec);
            assert!(e.message.contains("column index"), "{}", e.message);
        }
        other => panic!("expected BadGenSpec, got {other:?}"),
    }
    match client.predict_gen(spec(5)).unwrap() {
        Response::Predict(r) => assert!(r.predicted_latency_s > 0.0),
        other => panic!("expected Predict, got {other:?}"),
    }
    assert_eq!(server.shutdown().pool_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_gen_is_deterministic_per_seed() {
    let server = default_server();
    let reply = |seed: u64| {
        let mut c = Client::connect(server.addr()).unwrap();
        match c.predict_gen(spec(seed)).unwrap() {
            Response::Predict(r) => r,
            other => panic!("expected Predict, got {other:?}"),
        }
    };
    let (x, y) = (reply(11), reply(11));
    assert_eq!(x, y, "same seed, fresh sessions: identical replies");
    server.shutdown();
}

#[test]
fn reload_distinguishes_retryable_from_fatal() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();

    let dir = std::env::temp_dir().join(format!("misam_serve_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Retryable: the path does not exist (yet).
    let missing = dir.join("missing.json");
    match client.reload(missing.to_str().unwrap()).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::ReloadFailed);
            assert!(e.retryable, "I/O failures are retryable");
        }
        other => panic!("expected ReloadFailed, got {other:?}"),
    }

    // Fatal: a bundle from an incompatible format version.
    let stale = dir.join("stale.json");
    let json = bundle().to_json().unwrap().replacen(
        &format!("\"version\": {BUNDLE_VERSION}"),
        "\"version\": 999999",
        1,
    );
    assert!(json.contains("999999"), "fixture must actually change the version");
    std::fs::write(&stale, json).unwrap();
    match client.reload(stale.to_str().unwrap()).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::ReloadFailed);
            assert!(!e.retryable, "version mismatch will never fix itself");
        }
        other => panic!("expected ReloadFailed, got {other:?}"),
    }

    // Success: a good bundle with a different threshold swaps in.
    let good = dir.join("good.json");
    let mut altered = bundle();
    altered.threshold = 0.45;
    altered.save(&good).unwrap();
    match client.reload(good.to_str().unwrap()).unwrap() {
        Response::Reloaded(r) => {
            assert_eq!(r.version, BUNDLE_VERSION);
            assert_eq!(r.reloads, 1);
        }
        other => panic!("expected Reloaded, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.errors, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_reload_is_refused_and_the_previous_generation_keeps_serving() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let vectors: Vec<Vec<f64>> = (0..12).map(|i| synthetic_vector(900 + i)).collect();
    let predict_all = |addr| {
        let mut c = Client::connect(addr).unwrap();
        match c.batch(vectors.clone()).unwrap() {
            Response::Batch(b) => b.items,
            other => panic!("expected Batch, got {other:?}"),
        }
    };
    let before = predict_all(server.addr());

    // Point the selector's root at a node that does not exist, and in a
    // second file back at itself: either tree would crash or hang a
    // worker if it were ever walked.
    let dir =
        std::env::temp_dir().join(format!("misam_serve_tampered_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The selector serializes first; its root record is
    // `[threshold, left, right, feature]` with left child 1.
    let json = serde_json::to_string(&bundle()).unwrap();
    let root = json.find(r#""nodes":[["#).unwrap() + r#""nodes":[["#.len();
    let (head, tail) = json.split_at(root);
    let left = tail.find(',').unwrap() + 1;
    assert!(tail[left..].starts_with("1,"), "selector root must split");
    for (name, link) in [("far.json", "99999"), ("cycle.json", "0")] {
        let path = dir.join(name);
        std::fs::write(&path, format!("{head}{}{link}{}", &tail[..left], &tail[left + 1..]))
            .unwrap();
        match client.reload(path.to_str().unwrap()).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::ReloadFailed);
                assert!(!e.retryable, "a corrupt model never heals on retry");
                assert!(e.message.contains("malformed"), "{}", e.message);
            }
            other => panic!("expected ReloadFailed, got {other:?}"),
        }
    }

    // Still generation 1, still answering exactly as before.
    match client.stats().unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.learn.model_generation, 1);
            assert_eq!(s.reloads, 0);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    assert_eq!(predict_all(server.addr()), before);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predictions_survive_hot_reload_of_the_same_bundle() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // Predictions before the reload, on fresh sessions so every reply
    // is a cold-start decision with no cross-request state.
    let vectors: Vec<Vec<f64>> = (0..12).map(|i| synthetic_vector(700 + i)).collect();
    let predict_all = |addr| {
        let mut c = Client::connect(addr).unwrap();
        match c.batch(vectors.clone()).unwrap() {
            Response::Batch(b) => b.items,
            other => panic!("expected Batch, got {other:?}"),
        }
    };
    let before = predict_all(server.addr());

    // Hot-reload the byte-identical bundle: the server re-parses and
    // re-validates it from scratch.
    let dir = std::env::temp_dir().join(format!("misam_serve_samebundle_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("same.json");
    bundle().save(&path).unwrap();
    match client.reload(path.to_str().unwrap()).unwrap() {
        Response::Reloaded(r) => assert_eq!(r.reloads, 1),
        other => panic!("expected Reloaded, got {other:?}"),
    }

    // Reloading the same bundle must not move a single prediction:
    // the re-decoded trees are bit-identical to the first ones.
    let after = predict_all(server.addr());
    assert_eq!(before, after, "same bundle through reload must predict identically");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_request_drains_and_reports_final_stats() {
    let server = start(ServeConfig::default());
    let addr = server.addr();

    // Traffic first, so the final dump has something to show.
    let mut client = Client::connect(addr).unwrap();
    for i in 0..10 {
        assert!(matches!(client.predict(synthetic_vector(i)).unwrap(), Response::Predict(_)));
    }
    match client.shutdown().unwrap() {
        Response::Bye => {}
        other => panic!("expected Bye, got {other:?}"),
    }

    // join() observes the client-initiated shutdown and completes the
    // drain; every answered request is in the final snapshot.
    let stats = server.join();
    assert_eq!(stats.endpoints.iter().find(|e| e.endpoint == "predict").unwrap().requests, 10);
    assert_eq!(stats.endpoints.iter().find(|e| e.endpoint == "shutdown").unwrap().requests, 1);

    // The listener is really gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A connect may still succeed briefly on some platforms while
            // the socket drains; a subsequent request must fail.
            let mut c = Client::connect(addr).unwrap();
            c.stats().is_err()
        }
    );
}

#[test]
fn load_generator_round_trip() {
    let server = default_server();
    let report = LoadGen {
        connections: 4,
        requests_per_conn: 50,
        batch_size: 8,
        seed: 3,
        ..Default::default()
    }
    .run(server.addr())
    .unwrap();
    assert_eq!(report.ok, 4 * 50);
    assert_eq!(report.errors, 0);
    assert_eq!(report.items, 4 * 50 * 8);
    assert!(report.req_per_s > 0.0);
    assert!(report.p99_us >= report.p50_us);
    let stats = server.shutdown();
    assert_eq!(stats.endpoints.iter().find(|e| e.endpoint == "batch").unwrap().requests, 200);
}
