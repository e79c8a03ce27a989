//! Misam's intelligent reconfiguration engine (paper §3.3).
//!
//! Selecting the best design is not enough: loading a different bitstream
//! onto the U55C costs seconds (§6.1), so the system must weigh the
//! predicted performance gain of the better design against the switch
//! overhead. This crate provides:
//!
//! - [`cost::ReconfigCost`] — the bitstream-switch cost model (PCIe
//!   transfer + fabric programming, 3–4 s full reconfiguration; cheaper
//!   regimes such as partial reconfiguration or free switching are other
//!   constants);
//! - [`engine::decide`] — the §3.3 rule as a pure function: given every
//!   design's predicted latency, the loaded design and the classifier's
//!   predicted one, reconfigure only when the switch time is under a
//!   user threshold (default 20%) of the expected gain, amortized over
//!   the work that shares the switch; D2↔D3 switches are free.
//!   [`engine::ReconfigEngine`] carries the loaded design and the switch
//!   counters from one decision to the next;
//! - [`stream::run`] — the tile-streaming execution model:
//!   matrices are cut into independent row tiles (10k–50k rows in the
//!   paper), each tile re-enters the predict→decide→execute pipeline, and
//!   reconfiguration is amortized across tiles.
//!
//! # Example
//!
//! ```
//! use misam_recon::cost::ReconfigCost;
//! use misam_recon::engine::decide;
//! use misam_sim::DesignId;
//!
//! // Predicted seconds per design: Design 4 is 10x faster.
//! let latency_s = [10.0, 10.0, 10.0, 1.0];
//! let loaded = Some(DesignId::D1);
//!
//! // At the default 20% threshold a ~3 s switch needs a >15 s gain, so
//! // the rule stays on Design 1 for a 9 s gain…
//! let d = decide(&latency_s, loaded, DesignId::D4, &ReconfigCost::default(), 0.2, 1.0);
//! assert!(!d.reconfigured);
//! assert_eq!(d.execute_on, DesignId::D1);
//!
//! // …switches once the gain is shared by two or more workloads…
//! let d = decide(&latency_s, loaded, DesignId::D4, &ReconfigCost::default(), 0.2, 2.0);
//! assert!(d.reconfigured);
//!
//! // …and with reconfiguration modeled as free it always switches.
//! assert!(decide(&latency_s, loaded, DesignId::D4, &ReconfigCost::zero(), 0.2, 1.0).reconfigured);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod engine;
pub mod stream;
