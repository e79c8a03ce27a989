//! Property suite for NDJSON frames, the server's trust boundary.
//!
//! Every `Request` and `Response` variant round-trips bit for bit,
//! including f64 edge values (NaN payloads, signed zeros, subnormals,
//! infinities and `f64::MAX` wherever the wire form can hold them), and
//! mutated valid frames — truncated, byte-flipped, mistyped, with bad
//! hex, duplicate or unknown keys — decode to a value or an error,
//! never a panic.

use misam_serve::protocol::{
    decode_request, BatchReply, BatchRequest, BatchShardStats, EndpointStats, ErrorCode,
    ErrorReply, GenSpec, OverloadedReply, PredictReply, PredictRequest, ReloadRequest,
    ReloadedReply, RequestEnvelope, ResponseEnvelope, SimulateReply, SimulateRequest,
};
use misam_serve::{LearnStatsReply, Request, Response, StatsReply, PROTOCOL_VERSION};
use misam_sim::DesignId;
use proptest::prelude::*;

/// SplitMix64: one seed drives a whole random frame.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Bit patterns decimal JSON mishandles or that sit at the edges of
/// the format.
const EDGE_BITS: [u64; 14] = [
    0x7ff8_0000_0000_0000, // quiet NaN
    0x7ff8_dead_beef_0001, // NaN with a payload
    0x7ff0_0000_0000_0001, // signalling NaN
    0xfff8_0000_0000_0000, // negative NaN
    0x0000_0000_0000_0000, // +0
    0x8000_0000_0000_0000, // -0
    0x0000_0000_0000_0001, // smallest subnormal
    0x800f_ffff_ffff_ffff, // largest negative subnormal
    0x0010_0000_0000_0000, // MIN_POSITIVE
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x7fef_ffff_ffff_ffff, // MAX
    0xffef_ffff_ffff_ffff, // MIN
    0x3ff0_0000_0000_0000, // 1.0
];

fn any_f64(rng: &mut Rng) -> f64 {
    if rng.coin() {
        f64::from_bits(EDGE_BITS[rng.below(EDGE_BITS.len())])
    } else {
        f64::from_bits(rng.next())
    }
}

/// Decimal JSON carries only finite floats (non-finite prints `null`).
fn finite_f64(rng: &mut Rng) -> f64 {
    loop {
        let v = any_f64(rng);
        if v.is_finite() {
            return v;
        }
    }
}

fn any_string(rng: &mut Rng) -> String {
    const PIECES: [&str; 10] =
        ["uniform", "a\"b", "back\\slash", "line\nbreak", "\t", "é", "😀", "\u{1}", "\u{7f}", "/"];
    (0..rng.below(4)).map(|_| PIECES[rng.below(PIECES.len())]).collect()
}

fn features(rng: &mut Rng) -> Vec<f64> {
    (0..rng.below(30)).map(|_| any_f64(rng)).collect()
}

fn design(rng: &mut Rng) -> DesignId {
    DesignId::ALL[rng.below(4)]
}

fn spec(rng: &mut Rng) -> GenSpec {
    GenSpec {
        kind: any_string(rng),
        rows: rng.next() as usize,
        cols: rng.below(1 << 20),
        density: finite_f64(rng),
        seed: rng.next(),
        dense_cols: rng.below(4096),
    }
}

fn request(rng: &mut Rng, variant: usize) -> Request {
    match variant % 8 {
        0 => Request::Predict(PredictRequest { features: features(rng) }),
        1 => Request::PredictGen(spec(rng)),
        2 => Request::Batch(BatchRequest {
            items: (0..rng.below(5)).map(|_| PredictRequest { features: features(rng) }).collect(),
        }),
        3 => Request::Simulate(SimulateRequest {
            spec: Some(spec(rng)),
            matrix: None,
            dense_cols: None,
            design: rng.below(6),
        }),
        4 => Request::Simulate(SimulateRequest {
            spec: None,
            matrix: Some(any_string(rng)),
            dense_cols: rng.coin().then(|| rng.below(1 << 16)),
            design: rng.below(6),
        }),
        5 => Request::Stats,
        6 => Request::Reload(ReloadRequest { path: any_string(rng) }),
        _ => Request::Shutdown,
    }
}

fn reply(rng: &mut Rng) -> PredictReply {
    PredictReply {
        predicted: design(rng),
        execute_on: design(rng),
        reconfigured: rng.coin(),
        reconfig_time_s: finite_f64(rng),
        predicted_latency_s: finite_f64(rng),
    }
}

fn stats(rng: &mut Rng) -> StatsReply {
    StatsReply {
        uptime_s: finite_f64(rng),
        connections_total: rng.next(),
        connections_open: rng.next(),
        shed: rng.next(),
        errors: rng.next(),
        reloads: rng.next(),
        batch_queue_depth: rng.next(),
        pool_queue_depth: rng.next(),
        batches_flushed: rng.next(),
        batched_items: rng.next(),
        max_batch: rng.next(),
        batch_shards: (0..rng.below(3))
            .map(|shard| BatchShardStats { shard, shed: rng.next(), ..Default::default() })
            .collect(),
        learn: LearnStatsReply {
            enabled: rng.coin(),
            agreement: finite_f64(rng),
            confusion: (0..rng.below(17)).map(|_| rng.next()).collect(),
            ..Default::default()
        },
        endpoints: vec![EndpointStats {
            endpoint: any_string(rng),
            requests: rng.next(),
            mean_us: finite_f64(rng),
            p50_us: finite_f64(rng),
            p95_us: finite_f64(rng),
            p99_us: finite_f64(rng),
        }],
        pool_panics: rng.next(),
    }
}

const CODES: [ErrorCode; 7] = [
    ErrorCode::BadRequest,
    ErrorCode::BadVersion,
    ErrorCode::BadFeatures,
    ErrorCode::BadGenSpec,
    ErrorCode::ReloadFailed,
    ErrorCode::Oversized,
    ErrorCode::Internal,
];

fn response(rng: &mut Rng, variant: usize) -> Response {
    match variant % 8 {
        0 => Response::Predict(reply(rng)),
        1 => Response::Batch(BatchReply { items: (0..rng.below(5)).map(|_| reply(rng)).collect() }),
        2 => Response::Simulate(SimulateReply {
            design: design(rng),
            cycles: rng.next(),
            time_s: finite_f64(rng),
            energy_j: finite_f64(rng),
            pe_utilization: finite_f64(rng),
            tiles: rng.next() as usize,
        }),
        3 => Response::Stats(stats(rng)),
        4 => Response::Reloaded(ReloadedReply { version: rng.next() as u32, reloads: rng.next() }),
        5 => Response::Overloaded(OverloadedReply { retry_after_ms: rng.next() }),
        6 => Response::Error(ErrorReply {
            code: CODES[rng.below(CODES.len())],
            message: any_string(rng),
            retryable: rng.coin(),
        }),
        _ => Response::Bye,
    }
}

fn frame(rng: &mut Rng, variant: usize) -> String {
    let env = RequestEnvelope { v: PROTOCOL_VERSION, id: rng.next(), req: request(rng, variant) };
    serde_json::to_string(&env).unwrap()
}

fn feature_bits(req: &Request) -> Vec<Vec<u64>> {
    let bits = |p: &PredictRequest| p.features.iter().map(|v| v.to_bits()).collect();
    match req {
        Request::Predict(p) => vec![bits(p)],
        Request::Batch(b) => b.items.iter().map(bits).collect(),
        _ => Vec::new(),
    }
}

/// Decodes a frame the way the server does: through lossy UTF-8 (as
/// the framing layer hands lines over), then version-first.
fn decode(bytes: &[u8]) -> Result<RequestEnvelope, (u64, ErrorReply)> {
    decode_request(&String::from_utf8_lossy(bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_variant_roundtrips_bit_for_bit(seed in 0u64..u64::MAX, variant in 0usize..8) {
        let mut rng = Rng(seed);
        let text = frame(&mut rng, variant);
        prop_assert!(!text.contains('\n'), "a frame is one line: {}", text);
        let back = decode(text.as_bytes()).map_err(|(_, e)| TestCaseError::fail(e.message))?;
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text.clone());
        let sent: RequestEnvelope = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(feature_bits(&back.req), feature_bits(&sent.req));
    }

    #[test]
    fn every_response_variant_roundtrips_bit_for_bit(seed in 0u64..u64::MAX, variant in 0usize..8) {
        let mut rng = Rng(seed);
        let env = ResponseEnvelope { v: PROTOCOL_VERSION, id: rng.next(), resp: response(&mut rng, variant) };
        let text = serde_json::to_string(&env).unwrap();
        prop_assert!(!text.contains('\n'), "a frame is one line: {}", text);
        let back: ResponseEnvelope = serde_json::from_str(&text).unwrap();
        // Only finite floats ride in decimal, so equality is exact.
        prop_assert_eq!(&back, &env);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn truncated_frames_are_errors(seed in 0u64..u64::MAX, variant in 0usize..8) {
        let mut rng = Rng(seed);
        let text = frame(&mut rng, variant);
        for cut in 0..text.len() {
            prop_assert!(decode(&text.as_bytes()[..cut]).is_err(), "prefix {} of {}", cut, text);
        }
    }

    #[test]
    fn byte_flipped_frames_never_panic(seed in 0u64..u64::MAX, variant in 0usize..8) {
        let mut rng = Rng(seed);
        let text = frame(&mut rng, variant);
        let response = serde_json::to_string(&ResponseEnvelope {
            v: PROTOCOL_VERSION,
            id: 1,
            resp: response(&mut rng, variant),
        })
        .unwrap();
        for _ in 0..64 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] = rng.next() as u8;
            }
            let _ = decode(&bytes);
            let mut bytes = response.clone().into_bytes();
            let at = rng.below(bytes.len());
            bytes[at] = rng.next() as u8;
            let _ = serde_json::from_str::<ResponseEnvelope>(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn unknown_keys_are_skipped_and_the_first_duplicate_wins(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let first = features(&mut rng);
        let hex = |v: &[f64]| serde_json::to_string(&PredictRequest { features: v.to_vec() }).unwrap();
        // {"features":"<first>"} with a second `features` and junk keys.
        let body = hex(&first);
        let body = format!(
            r#"{{"zz":[{{"a":[null,true,-1.5e3]}}],{},"features":[1,2],"x\"y":"{}"}}"#,
            &body[1..body.len() - 1],
            "00".repeat(rng.below(9)),
        );
        let text = format!(r#"{{"junk":{{}},"v":{PROTOCOL_VERSION},"req":{{"Predict":{body}}},"id":4}}"#);
        let env = decode(text.as_bytes()).map_err(|(_, e)| TestCaseError::fail(e.message))?;
        prop_assert_eq!(env.id, 4);
        let Request::Predict(p) = env.req else { return Err(TestCaseError::fail("not Predict")) };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&p.features), bits(&first));
    }
}

fn bad_request(frame: &str) {
    match decode(frame.as_bytes()) {
        Err((_, e)) => assert_eq!(e.code, ErrorCode::BadRequest, "{frame}: {}", e.message),
        Ok(env) => panic!("{frame} decoded to {env:?}"),
    }
}

fn predict_frame(features_json: &str) -> String {
    format!(
        r#"{{"v":{PROTOCOL_VERSION},"id":1,"req":{{"Predict":{{"features":{features_json}}}}}}}"#
    )
}

#[test]
fn malformed_hex_features_are_bad_requests() {
    let one = "000000000000f03f"; // 1.0
    for features in [
        format!("\"{}\"", &one[..15]),                // odd length
        format!("\"{one}{}\"", &one[..8]),            // not a multiple of 16
        format!("\"{}\"", one.replace('f', "F")),     // uppercase: one spelling only
        format!("\"{}\"", one.replace('0', "g")),     // not hex
        format!("\"{}\"", one.replacen('0', " ", 1)), // whitespace inside
        "[1.0,2.0]".to_owned(),                       // v1 decimal array
        "1.5".to_owned(),                             // wrong JSON types
        "null".to_owned(),
        "{}".to_owned(),
        "true".to_owned(),
    ] {
        bad_request(&predict_frame(&features));
    }
    // The good frame decodes, so the rejections above are about hex.
    assert!(decode(predict_frame(&format!("\"{one}\"")).as_bytes()).is_ok());
}

#[test]
fn mistyped_envelopes_are_bad_requests() {
    let ok = frame(&mut Rng(7), 5);
    assert!(decode(ok.as_bytes()).is_ok(), "{ok}");
    for frame in [
        format!(r#"{{"v":"{PROTOCOL_VERSION}","id":1,"req":"Stats"}}"#),
        format!(r#"{{"v":{PROTOCOL_VERSION},"id":-1,"req":"Stats"}}"#),
        format!(r#"{{"v":{PROTOCOL_VERSION},"id":1.5,"req":"Stats"}}"#),
        format!(r#"{{"v":{PROTOCOL_VERSION},"id":1,"req":"Nope"}}"#),
        format!(r#"{{"v":{PROTOCOL_VERSION},"id":1,"req":{{"Stats":null}}}}"#),
        format!(r#"{{"v":{PROTOCOL_VERSION},"id":1,"req":{{"Batch":{{"items":{{}}}}}}}}"#),
        format!(r#"{{"v":{PROTOCOL_VERSION},"id":1,"req":{{"Predict":{{}},"Batch":{{}}}}}}"#),
        format!(r#"{{"v":{PROTOCOL_VERSION},"id":1}}"#),
        format!(r#"[{PROTOCOL_VERSION},1,"Stats"]"#),
        format!(r#"{{"v":{PROTOCOL_VERSION},"id":1,"req":"Stats"}} trailing"#),
        "{\"v\":".to_owned() + &"[".repeat(100_000),
    ] {
        bad_request(&frame);
    }
}
