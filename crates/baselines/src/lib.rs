//! Baseline performance and energy models: Intel MKL-class CPU,
//! cuSPARSE-class GPU, and the Trapezoid ASIC's three fixed dataflows.
//!
//! The paper evaluates Misam against MKL on an i9-11980HK, cuSPARSE on an
//! RTX A6000, and Trapezoid's cycle-accurate simulator (§4). We have none
//! of that hardware, so each baseline is an analytical roofline model
//! with irregularity penalties, calibrated so the published *shape* holds
//! (who wins per sparsity category and by roughly what factor — see
//! `EXPERIMENTS.md`). Absolute times are estimates; every comparison in
//! the experiments is a ratio.
//!
//! # Example
//!
//! ```
//! use misam_baselines::{cpu::CpuModel, gpu::GpuModel};
//! use misam_sparse::gen;
//!
//! let a = gen::power_law(1024, 1024, 4.0, 1.4, 1);
//! let b = gen::power_law(1024, 1024, 4.0, 1.4, 2);
//! let cpu = CpuModel::default().spgemm(&a, &b);
//! let gpu = GpuModel::default().spgemm(&a, &b);
//! assert!(cpu.time_s > 0.0 && gpu.time_s > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cpu;
pub mod gpu;
pub mod trapezoid;

/// Result of running a baseline model on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineReport {
    /// Modeled wall-clock seconds.
    pub time_s: f64,
    /// Modeled average power in watts.
    pub power_w: f64,
    /// Modeled energy in joules.
    pub energy_j: f64,
    /// Effectual multiply count of the workload.
    pub flops: u64,
}

impl BaselineReport {
    pub(crate) fn new(time_s: f64, power_w: f64, flops: u64) -> Self {
        BaselineReport { time_s, power_w, energy_j: time_s * power_w, flops }
    }
}
