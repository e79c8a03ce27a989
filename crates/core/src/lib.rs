//! # Misam — ML-assisted dataflow selection for sparse matrix
//! multiplication accelerators
//!
//! A reproduction of *"Misam: Machine Learning Assisted Dataflow Selection
//! in Accelerators for Sparse Matrix Multiplication"* (MICRO 2025). Misam
//! pairs a lightweight decision-tree classifier that predicts the best
//! hardware design for an operand pair with an intelligent reconfiguration
//! engine that switches FPGA bitstreams only when the projected gain
//! justifies the multi-second switch cost.
//!
//! This crate is the framework facade tying the substrates together:
//!
//! - [`dataset`] — synthetic training corpora: operand pairs simulated on
//!   all four designs, labeled with the objective-optimal design;
//! - [`training`] — fits the design selector (decision tree) and the
//!   latency predictor (regression tree) and evaluates them;
//! - [`pipeline`] — the end-to-end [`pipeline::Misam`] system: extract
//!   features → predict design → reconfiguration decision → execute, with
//!   the preprocessing/inference timing hooks behind the paper's
//!   Figure 12;
//! - [`workloads`] — the 113-workload evaluation suite (15 MS×D, 38
//!   MS×MS, 12 HS×D, 36 HS×MS, 12 HS×HS);
//! - [`experiments`] — one entry point per table/figure of the paper's
//!   evaluation, consumed by the `misam-bench` binaries;
//! - [`hetero`] — the §6.3 extension: routing workloads across
//!   CPU / GPU / Misam-FPGA with the same classifier machinery;
//! - [`ablation`] — sensitivity studies of the design choices DESIGN.md
//!   calls out (feature pruning, tree-vs-forest, switch threshold,
//!   reconfiguration cost, simulator mechanisms).
//!
//! # Quickstart
//!
//! ```
//! use misam::pipeline::Misam;
//! use misam_sim::Operand;
//! use misam_sparse::gen;
//!
//! // Train a small system (larger corpora => paper-scale accuracy).
//! let mut misam = Misam::builder()
//!     .classifier_samples(300)
//!     .latency_samples(400)
//!     .seed(7)
//!     .train();
//!
//! let a = gen::power_law(1024, 1024, 5.0, 1.4, 1);
//! let report = misam.execute(&a, Operand::Dense { rows: 1024, cols: 256 });
//! println!("ran on {} in {:.3} ms", report.decision.execute_on,
//!          report.sim.time_s * 1e3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod dataset;
pub mod experiments;
pub mod hetero;
pub mod persist;
pub mod pipeline;
pub mod training;
pub mod workloads;

pub use dataset::{Dataset, DatasetError, Objective, Sample};
pub use pipeline::{ExecutionReport, Misam, MisamBuilder};
pub use training::{LatencyPredictor, TrainedSelector};
