//! Persisted and wire bytes, pinned.
//!
//! FNV-1a digests of every JSON/CSV artifact the workspace writes to
//! disk, plus the compact encoding of one response of each variant. The
//! digests were recorded with the value-tree writer the JSON layer used
//! before it wrote straight into the output buffer, so any drift in
//! float, integer, string or layout formatting shows here.

use misam::dataset::{Dataset, Objective};
use misam::persist::ModelBundle;
use misam::training;
use misam_features::TileConfig;
use misam_oracle::{RegForestParams, SurrogateBundle, SurrogateTrainParams};
use misam_recon::cost::ReconfigCost;
use misam_serve::protocol::{
    BatchReply, BatchShardStats, EndpointStats, ErrorCode, ErrorReply, OverloadedReply,
    PredictReply, ReloadedReply, SimulateReply,
};
use misam_serve::{LearnStatsReply, Response, StatsReply};
use misam_sim::DesignId;
use std::sync::OnceLock;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Deepest container nesting in JSON `text` (brackets inside strings
/// do not count).
fn nesting(text: &str) -> usize {
    let (mut depth, mut max, mut in_str, mut escaped) = (0usize, 0, false, false);
    for b in text.bytes() {
        match (in_str, b) {
            (true, _) if escaped => escaped = false,
            (true, b'\\') => escaped = true,
            (true, b'"') | (false, b'"') => in_str = !in_str,
            (false, b'[' | b'{') => {
                depth += 1;
                max = max.max(depth);
            }
            (false, b']' | b'}') => depth -= 1,
            _ => {}
        }
    }
    max
}

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Dataset::generate(60, 21))
}

#[track_caller]
fn pinned(what: &str, text: &str, len: usize, digest: u64) {
    let got = fnv1a(text.as_bytes());
    assert_eq!(
        (text.len(), got),
        (len, digest),
        "{what} bytes moved: ({}, {got:#018x})",
        text.len()
    );
}

#[test]
fn model_bundle_json_is_pinned() {
    let ds = dataset();
    let sel = training::train_selector(ds, Objective::Latency, 1);
    let lat = training::train_latency_predictor(ds, 1);
    let bundle = ModelBundle::new(
        sel.selector,
        lat.predictor,
        0.2,
        ReconfigCost::default(),
        TileConfig::default(),
    );
    let json = bundle.to_json().unwrap();
    assert!(nesting(&json) <= 8, "{}", nesting(&json));
    pinned("ModelBundle::to_json", &json, 18539, 0xb398_94fb_8f8e_bdbf);
}

#[test]
fn surrogate_bundle_json_is_pinned() {
    let ds = dataset();
    let xs: Vec<Vec<f64>> = ds.samples.iter().map(|s| s.features.clone()).collect();
    let ts: Vec<[f64; 4]> = ds.samples.iter().map(|s| s.times_s).collect();
    let params = SurrogateTrainParams {
        forest: RegForestParams { n_trees: 4, ..Default::default() },
        holdout_every: 4,
        target_agreement: 0.9,
    };
    let bundle = SurrogateBundle::fit(&xs, &ts, &params);
    let json = bundle.to_json().unwrap();
    // The deepest persisted artifact stays far inside the reader's
    // nesting cap.
    assert_eq!(nesting(&json), 8);
    assert!(8 * nesting(&json) <= serde::MAX_DEPTH);
    pinned("SurrogateBundle::to_json", &json, 58389, 0x3336_0f86_3973_1d86);
}

#[test]
fn dataset_json_and_csv_are_pinned() {
    let ds = dataset();
    let json = ds.to_json().unwrap();
    assert!(nesting(&json) <= 8, "{}", nesting(&json));
    pinned("Dataset::to_json", &json, 31503, 0x87c4_ad04_13f8_ec41);
    pinned("Dataset::to_csv", &ds.to_csv(), 26722, 0xb581_e1ec_4124_8c27);
}

fn reply(k: u64) -> PredictReply {
    PredictReply {
        predicted: DesignId::D2,
        execute_on: if k.is_multiple_of(2) { DesignId::D2 } else { DesignId::D4 },
        reconfigured: k.is_multiple_of(3),
        reconfig_time_s: 0.125 * k as f64,
        predicted_latency_s: 1.0e-3 / (k as f64 + 3.0),
    }
}

fn stats() -> StatsReply {
    StatsReply {
        uptime_s: 12.5,
        connections_total: 3,
        connections_open: 1,
        shed: 0,
        errors: 2,
        reloads: 1,
        batch_queue_depth: 0,
        pool_queue_depth: 4,
        batches_flushed: 17,
        batched_items: 1088,
        max_batch: 64,
        batch_shards: vec![BatchShardStats {
            shard: 0,
            batches: 17,
            items: 1088,
            ..Default::default()
        }],
        learn: LearnStatsReply {
            confusion: vec![1, 0, 2, 3],
            agreement: 0.75,
            ..Default::default()
        },
        endpoints: vec![EndpointStats {
            endpoint: "batch \"hot\"\n".into(),
            requests: 17,
            mean_us: 812.25,
            p50_us: 800.0,
            p95_us: 1e-7,
            p99_us: 123_456_789.0,
        }],
        pool_panics: 0,
    }
}

/// `text` without the `pool_panics` member [`StatsReply`] gained after
/// the digests were recorded (its last field, so nothing else moves).
fn without_pool_panics(text: &str, member: &str) -> String {
    assert_eq!(text.matches(member).count(), 1, "{text}");
    text.replacen(member, "", 1)
}

/// `text` with `member` put back before `anchor`: the mirror of
/// [`without_pool_panics`], for a member a type has lost since the
/// digests were recorded.
fn with_member(text: &str, anchor: &str, member: &str) -> String {
    assert_eq!(text.matches(anchor).count(), 1, "{text}");
    text.replacen(anchor, &format!("{member}{anchor}"), 1)
}

#[test]
fn responses_of_every_variant_are_pinned() {
    let cases: Vec<(Response, usize, u64)> = vec![
        (Response::Predict(reply(1)), 123, 0x455e_e925_42ac_3ed0),
        (
            Response::Batch(BatchReply { items: (0..5).map(reply).collect() }),
            617,
            0x219e_60f9_7318_0991,
        ),
        (
            Response::Simulate(SimulateReply {
                design: DesignId::D3,
                cycles: 1 << 40,
                time_s: 3.0,
                energy_j: -0.0,
                pe_utilization: f64::NAN,
                tiles: 9,
            }),
            112,
            0x5ede_568c_700f_d11d,
        ),
        (Response::Stats(stats()), 734, 0x2264_9d45_f055_88f0),
        (Response::Reloaded(ReloadedReply { version: 7, reloads: 2 }), 38, 0x46ac_b2f8_2650_85b8),
        (Response::Overloaded(OverloadedReply { retry_after_ms: 5 }), 35, 0x90ce_06e6_2792_e5b7),
        (
            Response::Error(ErrorReply {
                code: ErrorCode::BadFeatures,
                message: "item 3: tab\t \\ é \u{1}".into(),
                retryable: false,
            }),
            89,
            0x45ee_7b70_278c_ad95,
        ),
        (Response::Bye, 5, 0x5a42_1fd9_6793_bff3),
    ];
    for (resp, len, digest) in cases {
        let mut text = serde_json::to_string(&resp).unwrap();
        if matches!(resp, Response::Stats(_)) {
            text = without_pool_panics(&text, r#","pool_panics":0"#);
            // `BatchShardStats` dropped its deadline-flush counter with the
            // batching deadline; it sat just before the shard's
            // `max_batch`.
            text = with_member(&text, r#""max_batch":0}"#, r#""deadline_flushes":0,"#);
        }
        pinned(&format!("{resp:?}"), &text, len, digest);
    }
}

#[test]
fn pretty_stats_are_pinned() {
    let s = StatsReply { batch_shards: vec![], ..stats() };
    let pretty = serde_json::to_string_pretty(&s).unwrap();
    let text = without_pool_panics(&pretty, ",\n  \"pool_panics\": 0");
    pinned("pretty StatsReply", &text, 880, 0x1204_52a3_f220_8fa6);
}

#[test]
fn derived_types_write_directly_and_have_no_tree_form() {
    // Derived impls override `Serialize::write`; the `Content` tree is
    // only the default for hand-written impls, so asking a derived type
    // for one panics instead of silently building it.
    let tree = std::panic::catch_unwind(|| serde::Serialize::serialize(&Response::Bye));
    assert!(tree.is_err());
    assert_eq!(serde_json::to_string(&Response::Bye).unwrap(), r#""Bye""#);
}
