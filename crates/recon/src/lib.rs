//! Misam's intelligent reconfiguration engine (paper §3.3).
//!
//! Selecting the best design is not enough: loading a different bitstream
//! onto the U55C costs seconds (§6.1), so the system must weigh the
//! predicted performance gain of the better design against the switch
//! overhead. This crate provides:
//!
//! - [`cost::ReconfigCost`] — the bitstream-switch cost model (PCIe
//!   transfer + fabric programming, 3–4 s full reconfiguration; partial
//!   reconfiguration and zero-cost overrides included);
//! - [`engine::ReconfigEngine`] — the decision procedure: given the
//!   classifier's predicted design and a latency model, reconfigure only
//!   when the overhead is under a user threshold (default 20%) of the
//!   expected gain;
//! - [`stream::run`] — the tile-streaming execution model:
//!   matrices are cut into independent row tiles (10k–50k rows in the
//!   paper), each tile re-enters the predict→decide→execute pipeline, and
//!   reconfiguration is amortized across tiles.
//!
//! # Example
//!
//! ```
//! use misam_recon::cost::ReconfigCost;
//! use misam_recon::engine::{LatencyModel, ReconfigEngine};
//! use misam_features::PairFeatures;
//! use misam_sim::DesignId;
//!
//! // A toy latency model: Design 4 is always 10x faster.
//! struct Toy;
//! impl LatencyModel for Toy {
//!     fn predict_seconds(&self, _: &PairFeatures, d: DesignId) -> f64 {
//!         if d == DesignId::D4 { 1.0 } else { 10.0 }
//!     }
//! }
//!
//! // At the default 20% threshold a ~3 s switch needs a >15 s gain, so
//! // the engine stays on Design 1 for a 9 s gain…
//! let mut engine = ReconfigEngine::new(Toy, ReconfigCost::default(), 0.2);
//! engine.force_load(DesignId::D1);
//! let d = engine.decide(&PairFeatures::default(), DesignId::D4);
//! assert!(!d.reconfigured);
//! assert_eq!(d.execute_on, DesignId::D1);
//!
//! // …but with reconfiguration modeled as free it always switches.
//! let mut free = ReconfigEngine::new(Toy, ReconfigCost::zero(), 0.2);
//! free.force_load(DesignId::D1);
//! assert!(free.decide(&PairFeatures::default(), DesignId::D4).reconfigured);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod engine;
pub mod stream;
