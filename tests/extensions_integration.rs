//! Integration of the extension modules across crates: model
//! persistence, heterogeneous routing, partial reconfiguration, the
//! analytic latency model, and multi-tenant co-scheduling.

use misam::persist::ModelBundle;
use misam_features::{PairFeatures, TileConfig};
use misam_recon::cost::ReconfigCost;
use misam_recon::engine::{AnalyticLatencyModel, ReconfigEngine};
use misam_sim::tenancy::{self, Tenant};
use misam_sim::{simulate, DesignId, Operand};
use misam_sparse::{gen, MatrixProfile};

#[test]
fn saved_bundle_drives_the_cli_grade_flow() {
    // Train tiny models, save, reload, and run a workload through the
    // restored system — the `misam train` / `misam predict` path.
    let (_, sel, lat) = misam::Misam::builder()
        .classifier_samples(150)
        .latency_samples(180)
        .seed(31)
        .train_with_reports();
    let bundle = ModelBundle::new(
        sel.selector,
        lat.predictor,
        0.2,
        ReconfigCost::default(),
        TileConfig::default(),
    );
    let dir = std::env::temp_dir().join(format!("misam_ext_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("models.json");
    bundle.save(&path).unwrap();

    let mut system = ModelBundle::load(&path).unwrap().into_system();
    let a = gen::power_law(700, 700, 6.0, 1.5, 1);
    let r = system.execute(&a, Operand::Dense { rows: 700, cols: 128 });
    assert!(r.sim.time_s > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analytic_engine_matches_oracle_on_a_character_change() {
    // Stream a dense-B phase then a sparse-B phase through an analytic
    // engine with free switching: it must end on Design 4.
    let mut engine = ReconfigEngine::new(AnalyticLatencyModel, ReconfigCost::zero(), 0.2);
    engine.force_load(DesignId::D2);
    let tile_cfg = TileConfig::default();

    let a = gen::regular_degree(2000, 2000, 8, 2);
    let dense_f =
        PairFeatures::from_profile_dense_b(&MatrixProfile::build(&a), 2000, 512, &tile_cfg);
    let d1 = engine.decide(&dense_f, DesignId::D2);
    assert_eq!(d1.execute_on, DesignId::D2);

    let b = gen::regular_degree(2000, 2000, 8, 3);
    let sparse_f = PairFeatures::extract(&a, &b, &tile_cfg);
    let d2 = engine.decide(&sparse_f, DesignId::D4);
    assert_eq!(d2.execute_on, DesignId::D4, "free switching must chase the sparse oracle");

    // The analytic model agrees with the simulator about that oracle.
    let t2 = simulate(&a, Operand::Sparse(&b), DesignId::D2).time_s;
    let t4 = simulate(&a, Operand::Sparse(&b), DesignId::D4).time_s;
    assert!(t4 < t2);
}

#[test]
fn partial_reconfiguration_changes_the_verdict() {
    // The same marginal workload: full reconfiguration declines, a small
    // dynamic region accepts (§6.1's promise).
    let model = |_: &PairFeatures, d: DesignId| {
        if d == DesignId::D4 {
            0.5
        } else {
            3.0
        }
    };
    let feats = PairFeatures::default();

    let mut full = ReconfigEngine::new(model, ReconfigCost::default(), 0.2);
    full.force_load(DesignId::D1);
    assert!(!full.decide(&feats, DesignId::D4).reconfigured);

    let mut partial =
        ReconfigEngine::new(model, ReconfigCost::default(), 0.2).with_partial_region(0.05);
    partial.force_load(DesignId::D1);
    assert!(partial.decide(&feats, DesignId::D4).reconfigured);
}

#[test]
fn router_and_tenancy_compose() {
    // Route two workloads; when both land on the FPGA, co-schedule them.
    let routing = misam::hetero::train_router(250, 17);
    let tile_cfg = TileConfig::default();

    let a1 = gen::power_law(1500, 1500, 5.0, 1.4, 4);
    let b1 = gen::power_law(1500, 1500, 5.0, 1.4, 5);
    let f1 = PairFeatures::extract(&a1, &b1, &tile_cfg);
    let dev1 = routing.router.route(&f1.to_vector());

    let a2 = gen::power_law(1200, 1200, 4.0, 1.5, 6);
    let b2 = gen::power_law(1200, 1200, 4.0, 1.5, 7);

    if dev1 == misam::hetero::Device::MisamFpga {
        let r = tenancy::co_schedule(&[
            Tenant { a: &a1, b: Operand::Sparse(&b1), design: DesignId::D4 },
            Tenant { a: &a2, b: Operand::Sparse(&b2), design: DesignId::D4 },
        ])
        .unwrap();
        assert!(r.speedup() >= 1.0);
    }
    // Either way the router produced a valid device.
    assert!(misam::hetero::Device::ALL.contains(&dev1));
}

#[test]
fn feature_pruned_selector_flows_through_the_pipeline() {
    use misam::dataset::{Dataset, Objective};
    use misam::training;

    let ds = Dataset::generate(200, 41);
    let full = training::train_selector(&ds, Objective::Latency, 1);
    let top4: Vec<usize> = full
        .selector
        .ranked_importances()
        .iter()
        .take(4)
        .map(|(n, _)| misam_features::feature_index(n))
        .collect();
    let pruned = training::train_selector_on_features(&ds, Objective::Latency, 1, &top4);

    // The pruned selector accepts *full* feature vectors and projects
    // internally — drop-in compatible with the pipeline.
    let a = gen::uniform_random_lazy(600, 600, 0.02, 9);
    let f = PairFeatures::extract_dense_b(&a, 600, 256, &TileConfig::default());
    let d = pruned.selector.select(&f);
    assert!(DesignId::ALL.contains(&d));
    assert_eq!(pruned.selector.feature_names().len(), 4);
    // And the accuracy story of §5.5 holds.
    assert!(pruned.accuracy > full.accuracy - 0.12);
}
