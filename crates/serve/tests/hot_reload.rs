//! Hot-publish torn-generation test: a batcher snapshots the shared
//! model exactly once per flush, so a `publish` racing an in-flight
//! batch must never mix two bundle generations *within one flushed
//! group*. We flip-flop between two bundles whose selectors disagree
//! on at least one probe vector while hammering the batcher, and
//! assert every group's outcomes match one bundle entirely.

use misam::dataset::{Dataset, Objective};
use misam::persist::ModelBundle;
use misam::training::{train_latency_predictor, train_selector};
use misam_features::TileConfig;
use misam_recon::cost::ReconfigCost;
use misam_serve::batch::{BatchConfig, MicroBatcher, QueueFull};
use misam_serve::client::synthetic_vector;
use misam_serve::state::PredictOutcome;
use misam_serve::SharedModel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

type Outcomes = crossbeam::channel::Receiver<Vec<PredictOutcome>>;

fn bundle(seed: u64) -> ModelBundle {
    let dataset = Dataset::generate(60, seed);
    let sel = train_selector(&dataset, Objective::Latency, seed);
    let lat = train_latency_predictor(&dataset, seed);
    ModelBundle::new(
        sel.selector,
        lat.predictor,
        0.08,
        ReconfigCost::default(),
        TileConfig::default(),
    )
}

/// Submits `vectors` with a callback that forwards the outcomes to the
/// returned channel.
fn submit(batcher: &MicroBatcher, vectors: Vec<Vec<f64>>) -> Result<Outcomes, QueueFull> {
    let (tx, rx) = crossbeam::channel::unbounded();
    batcher.try_submit_callback(vectors, Box::new(move |outs| drop(tx.send(outs))))?;
    Ok(rx)
}

/// Outcomes for `vectors` under a model that never changes.
fn expected(bundle: ModelBundle, vectors: &[Vec<f64>]) -> Vec<PredictOutcome> {
    let model = Arc::new(SharedModel::new(bundle));
    let batcher = MicroBatcher::new(model, BatchConfig::default());
    let rx = submit(&batcher, vectors.to_vec()).expect("submit");
    let outs = rx.recv().expect("reply");
    batcher.shutdown();
    outs
}

#[test]
fn publish_mid_batch_never_mixes_generations_within_a_flush() {
    // Probe set: distinct synthetic vectors, plus two bundles trained on
    // different data. The test is only meaningful if they disagree
    // somewhere on the probes, so assert that first.
    let vectors: Vec<Vec<f64>> = (0..8).map(synthetic_vector).collect();
    let bundle_a = bundle(101);
    let bundle_b = bundle(202);
    let expect_a = expected(bundle_a.clone(), &vectors);
    let expect_b = expected(bundle_b.clone(), &vectors);
    assert_ne!(
        expect_a.iter().map(|o| o.predicted).collect::<Vec<_>>(),
        expect_b.iter().map(|o| o.predicted).collect::<Vec<_>>(),
        "seed choice no longer produces disagreeing selectors; pick new seeds"
    );

    let model = Arc::new(SharedModel::new(bundle_a.clone()));
    let batcher = Arc::new(MicroBatcher::new(
        Arc::clone(&model),
        BatchConfig { batch_max: vectors.len(), queue_cap: 4096 },
    ));

    // Publisher thread: flip-flops the serving bundle as fast as it can
    // while the main thread pushes groups through the batcher.
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let model = Arc::clone(&model);
        let stop = Arc::clone(&stop);
        let (a, b) = (bundle_a, bundle_b);
        std::thread::spawn(move || {
            let mut flip = false;
            while !stop.load(Ordering::Relaxed) {
                model.publish(if flip { a.clone() } else { b.clone() });
                flip = !flip;
            }
        })
    };

    let matches = |outs: &[PredictOutcome], want: &[PredictOutcome]| {
        outs.iter().zip(want).all(|(o, w)| o.predicted == w.predicted && o.latency_s == w.latency_s)
    };
    for round in 0..300 {
        let rx = match submit(&batcher, vectors.clone()) {
            Ok(rx) => rx,
            Err(_) => continue, // shed under load is fine; torn output is not
        };
        let outs = rx.recv().expect("reply");
        assert_eq!(outs.len(), vectors.len());
        assert!(
            matches(&outs, &expect_a) || matches(&outs, &expect_b),
            "round {round}: flush mixed generations: {outs:?}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    publisher.join().expect("publisher join");
    assert!(model.generation() > 1, "publisher never bumped the generation");

    // Scheduling can starve the racing publisher of observable swaps, so
    // pin each generation in turn and check the batcher serves exactly
    // that bundle's outcomes — both generations are reachable, whole.
    for (pinned, want) in [(bundle(101), &expect_a), (bundle(202), &expect_b)] {
        model.publish(pinned);
        let rx = submit(&batcher, vectors.clone()).expect("submit pinned");
        let outs = rx.recv().expect("reply pinned");
        assert!(matches(&outs, want), "pinned generation served wrong outcomes");
    }
    batcher.shutdown();
}
