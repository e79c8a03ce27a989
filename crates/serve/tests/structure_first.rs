//! Structure-first serving over a real socket: `PredictGen` and
//! `Simulate { spec }` answer every generator family from its structure
//! stage, never fill a CSR, and reply exactly what the eager path on the
//! materialized matrix replies.
//!
//! This binary holds a single test: `lazy::materialization_stats` is
//! process-wide, and a sibling test generating eagerly in parallel
//! would move it.

use misam::dataset::{Dataset, Objective};
use misam::persist::ModelBundle;
use misam::training;
use misam_features::{PairFeatures, TileConfig};
use misam_oracle::{Executor, FpgaSim};
use misam_recon::cost::ReconfigCost;
use misam_serve::protocol::{PredictReply, SimulateReply};
use misam_serve::{Client, GenSpec, Response, ServeConfig, Server};
use misam_sim::Operand;
use misam_sparse::{gen, lazy, MatrixProfile};

fn predict(resp: Response) -> PredictReply {
    match resp {
        Response::Predict(r) => r,
        other => panic!("expected Predict, got {other:?}"),
    }
}

fn simulated(resp: Response) -> SimulateReply {
    match resp {
        Response::Simulate(r) => r,
        other => panic!("expected Simulate, got {other:?}"),
    }
}

#[test]
fn served_specs_never_materialize_and_match_the_eager_path() {
    let ds = Dataset::generate(120, 55);
    let sel = training::train_selector(&ds, Objective::Latency, 1);
    let lat = training::train_latency_predictor(&ds, 1);
    let tile = TileConfig::default();
    let bundle = ModelBundle::new(sel.selector, lat.predictor, 0.2, ReconfigCost::default(), tile);
    let server = Server::start(bundle, ServeConfig::default()).expect("bind ephemeral port");

    let specs: Vec<GenSpec> = gen::FAMILIES
        .iter()
        .zip(0u64..)
        .map(|((kind, _), i)| GenSpec {
            kind: kind.to_string(),
            rows: 600 + 50 * i as usize,
            cols: 450,
            density: 0.02,
            seed: 40 + i,
            dense_cols: 128,
        })
        .collect();

    let before = lazy::materialization_stats();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut gen_replies = Vec::new();
    let mut sim_replies = Vec::new();
    for spec in &specs {
        gen_replies.push(predict(client.predict_gen(spec.clone()).unwrap()));
        for design in 1..=4 {
            sim_replies.push(simulated(client.simulate(spec.clone(), design).unwrap()));
        }
    }
    let after = lazy::materialization_stats();
    assert_eq!(after.materialized, before.materialized, "serving filled a CSR");
    assert!(after.created >= before.created + 5 * specs.len() as u64, "specs were built lazily");

    // The eager path on the materialized matrices, for comparison: the
    // same feature vectors sent as plain `Predict`s, in the same order,
    // on a fresh session, and the cycle sim on the owned CSR.
    let mut eager_client = Client::connect(server.addr()).unwrap();
    let mut sims = sim_replies.iter();
    for (spec, served) in specs.iter().zip(&gen_replies) {
        let a = spec.build().unwrap().into_csr();
        let ap = MatrixProfile::build(&a);
        let features = PairFeatures::from_profile_dense_b(&ap, a.cols(), spec.dense_cols, &tile);
        let eager = predict(eager_client.predict(features.to_vector()).unwrap());
        assert_eq!(served.predicted, eager.predicted, "{spec:?}");
        assert_eq!(served.execute_on, eager.execute_on, "{spec:?}");
        assert_eq!(served.reconfigured, eager.reconfigured, "{spec:?}");
        assert_eq!(served.reconfig_time_s.to_bits(), eager.reconfig_time_s.to_bits());
        assert_eq!(served.predicted_latency_s.to_bits(), eager.predicted_latency_s.to_bits());

        let b = Operand::Dense { rows: a.cols(), cols: spec.dense_cols };
        for design in 0..4 {
            let served = sims.next().unwrap();
            let r = FpgaSim.execute(&a, b, design);
            assert_eq!((served.design, served.cycles, served.tiles), (r.design, r.cycles, r.tiles));
            assert_eq!(served.time_s.to_bits(), r.time_s.to_bits(), "{spec:?} design {design}");
            assert_eq!(served.energy_j.to_bits(), r.energy_j.to_bits());
            assert_eq!(served.pe_utilization.to_bits(), r.pe_utilization.to_bits());
        }
    }
    server.shutdown();
}
