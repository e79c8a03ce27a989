//! Heterogeneous device routing (paper §6.3).
//!
//! "Misam is also extensible to heterogeneous environments involving
//! CPUs, GPUs, FPGAs … the model can route workloads to the most
//! suitable device; for instance, it correctly routes workloads to the
//! GPU when it consistently offers better performance." This module
//! implements that extension: a three-class selector over
//! {Misam-FPGA, CPU, GPU}, trained on the same feature vector, with the
//! baselines' analytical models supplying the ground truth.

use crate::dataset;
use misam_features::TileConfig;
use misam_mlkit::cv;
use misam_mlkit::metrics::{self, ConfusionMatrix};
use misam_mlkit::tree::{DecisionTree, TreeParams};
use misam_oracle::{pool, CpuExecutor, Executor, GpuExecutor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A routing target in the heterogeneous deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Device {
    /// The Misam FPGA system (oracle-best of its four designs).
    MisamFpga,
    /// The MKL-class CPU.
    Cpu,
    /// The cuSPARSE-class GPU.
    Gpu,
}

impl Device {
    /// All devices, in label order.
    pub const ALL: [Device; 3] = [Device::MisamFpga, Device::Cpu, Device::Gpu];

    /// Zero-based class label.
    pub fn index(self) -> usize {
        match self {
            Device::MisamFpga => 0,
            Device::Cpu => 1,
            Device::Gpu => 2,
        }
    }

    /// Inverse of [`Device::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 3`.
    pub fn from_index(idx: usize) -> Self {
        Self::ALL[idx]
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Device::MisamFpga => "misam-fpga",
            Device::Cpu => "cpu",
            Device::Gpu => "gpu",
        })
    }
}

/// The trained device router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRouter {
    tree: DecisionTree,
}

impl DeviceRouter {
    /// Routes a feature vector to a device.
    pub fn route(&self, features: &[f64]) -> Device {
        Device::from_index(self.tree.predict(features))
    }

    /// The underlying tree.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }
}

/// Training outcome of the device router.
#[derive(Debug, Clone)]
pub struct RouterTraining {
    /// The fitted router.
    pub router: DeviceRouter,
    /// Held-out routing accuracy.
    pub accuracy: f64,
    /// Held-out confusion matrix (predicted × actual device).
    pub confusion: ConfusionMatrix,
    /// Geomean of `t_routed / t_best` on the held-out set (1.0 = always
    /// optimal; the cost of routing mistakes).
    pub routed_over_best: f64,
    /// Held-out label histogram.
    pub label_histogram: [usize; 3],
}

/// Generates a routing corpus of `n` random operand pairs and trains the
/// device router on 70% of it.
///
/// # Panics
///
/// Panics if `n < 10`.
pub fn train_router(n: usize, seed: u64) -> RouterTraining {
    assert!(n >= 10, "router corpus too small");
    let tile_cfg = TileConfig::default();
    let cpu = CpuExecutor::default();
    let gpu = GpuExecutor::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0004_e7e0);

    // Serial draws, then every device is priced in parallel; the FPGA
    // side shares the process-wide memoized oracle.
    let pairs: Vec<(misam_sparse::CsrMatrix, dataset::OperandSpec)> = (0..n)
        .map(|_| {
            let (a, spec, _) = dataset::random_pair(&mut rng);
            (a, spec)
        })
        .collect();
    let priced = pool::par_map(&pairs, |(a, spec)| {
        let t_fpga = misam_oracle::global()
            .execute_all(a, spec.operand())
            .iter()
            .map(|r| r.time_s)
            .fold(f64::INFINITY, f64::min);
        let t_cpu = cpu.execute(a, spec.operand(), 0).time_s;
        let t_gpu = gpu.execute(a, spec.operand(), 0).time_s;
        (spec.features(a, &tile_cfg).to_vector(), [t_fpga, t_cpu, t_gpu])
    });
    let mut x = Vec::with_capacity(n);
    let mut times: Vec<[f64; 3]> = Vec::with_capacity(n);
    for (f, t) in priced {
        x.push(f);
        times.push(t);
    }
    let y: Vec<usize> = times
        .iter()
        .map(|t| {
            (0..3).min_by(|&i, &j| t[i].partial_cmp(&t[j]).expect("finite")).expect("three devices")
        })
        .collect();

    let m = misam_mlkit::matrix::FeatureMatrix::from_rows(&x);
    let split = cv::train_test_split(n, 0.7, seed);
    let xt = m.gather(&split.train);
    let yt = cv::gather(&y, &split.train);
    let params = TreeParams {
        max_depth: 10,
        min_samples_leaf: 3,
        min_samples_split: 6,
        min_gain: 1e-6,
        class_weights: Some(metrics::inverse_frequency_weights(&yt, 3)),
    };
    let tree = DecisionTree::fit_matrix(&xt, &yt, 3, &params);

    let xv = m.gather(&split.validation);
    let yv = cv::gather(&y, &split.validation);
    let pred = tree.predict_batch_matrix(&xv);
    let accuracy = metrics::accuracy(&pred, &yv);
    let confusion = ConfusionMatrix::new(&pred, &yv, 3);

    let ratios: Vec<f64> = split
        .validation
        .iter()
        .zip(&pred)
        .map(|(&i, &p)| {
            let t = times[i];
            let best = t.iter().cloned().fold(f64::INFINITY, f64::min);
            t[p] / best
        })
        .collect();
    let routed_over_best = metrics::geomean(&ratios);

    let mut label_histogram = [0usize; 3];
    for &l in &yv {
        label_histogram[l] += 1;
    }

    RouterTraining {
        router: DeviceRouter { tree },
        accuracy,
        confusion,
        routed_over_best,
        label_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_beats_any_fixed_device_policy() {
        let t = train_router(400, 7);
        // Routing accuracy must beat the majority-class baseline implied
        // by its own histogram.
        let total: usize = t.label_histogram.iter().sum();
        let majority = *t.label_histogram.iter().max().unwrap() as f64 / total as f64;
        assert!(
            t.accuracy > majority - 0.02,
            "accuracy {:.2} vs majority {:.2}",
            t.accuracy,
            majority
        );
        // Misrouting cost stays small: near-oracle end-to-end.
        assert!(
            t.routed_over_best < 2.0,
            "routed/best geomean {:.2} too lossy",
            t.routed_over_best
        );
        assert!(t.routed_over_best >= 1.0 - 1e-9);
    }

    #[test]
    fn corpus_contains_multiple_devices() {
        let t = train_router(400, 8);
        let present = t.label_histogram.iter().filter(|&&c| c > 0).count();
        assert!(present >= 2, "expected device diversity, got {:?}", t.label_histogram);
    }

    #[test]
    fn device_index_roundtrips() {
        for d in Device::ALL {
            assert_eq!(Device::from_index(d.index()), d);
        }
        assert_eq!(Device::Gpu.to_string(), "gpu");
    }

    #[test]
    fn router_routes_real_features() {
        use misam_features::PairFeatures;
        use misam_sparse::gen;
        let t = train_router(300, 9);
        let a = gen::power_law_lazy(800, 800, 5.0, 1.4, 1);
        let f = PairFeatures::extract_dense_b(&a, 800, 512, &TileConfig::default());
        let _device = t.router.route(&f.to_vector());
    }
}
