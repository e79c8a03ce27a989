//! Cycle-level simulator of Misam's four FPGA dataflow designs.
//!
//! The paper trains its models on "a simulator for each design" built from
//! profiling runs and HLS reports (§4); this crate is that simulator. It
//! models the microarchitecture of §3.2 mechanistically:
//!
//! - **HBM channels** ([`hbm`]) — per-design channel counts from Table 1,
//!   with the paper's coalescing factors (8 A entries per 64-bit read,
//!   16 FP32 B values per dense read, 8 coalesced entries per compressed
//!   read).
//! - **PE scheduling** ([`schedule`]) — rows of A distributed round-robin
//!   across PEs (column scheduler, Designs 1/2) or elements assigned by
//!   `column % PE` (row scheduler, Design 3), with the 2-cycle same-row
//!   load/store dependency of Figure 6 and bubble filling by interleaving
//!   rows.
//! - **Tiling** ([`tiling`]) — BRAM-capacity row tiling of B, column
//!   passes bounded by PEG fan-out, and Design 4's sparsity-aware packing.
//! - **Execution** ([`engine`]) — combines the above into a latency,
//!   energy and utilization report per design.
//! - **Resources** ([`resources`]) — Table 2 utilization/frequency/power
//!   and the multi-tenant packing estimate of §6.2.
//! - **Toy mode** ([`toy`]) — the exact, event-level small-scale model of
//!   Figure 6 that prints per-PE timelines.
//! - **Analytic estimation** ([`analytic`]) — the closed-form,
//!   feature-only version of the cost model that the reconfiguration
//!   engine uses to extrapolate beyond its training corpus.
//!
//! # Example
//!
//! ```
//! use misam_sim::{simulate, DesignId, Operand};
//! use misam_sparse::gen;
//!
//! let a = gen::power_law(512, 512, 8.0, 1.5, 1);
//! let report = simulate(&a, Operand::Dense { rows: 512, cols: 256 }, DesignId::D1);
//! assert!(report.cycles > 0);
//! assert!(report.time_s > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analytic;
mod design;
pub mod engine;
pub mod hbm;
pub mod resources;
pub mod schedule;
pub mod tenancy;
pub mod tiling;
pub mod toy;

pub use design::{
    design_pe_counts, design_row_pe_counts, BFormat, BitstreamId, DesignConfig, DesignId, Traversal,
};
pub use engine::{
    simulate, simulate_profiled, simulate_profiled_ref, simulate_ref, simulate_structural,
    simulate_structural_with_config, simulate_with_config, simulate_with_config_profiled,
    simulate_with_config_profiled_ref, simulate_with_config_ref, CycleBreakdown, Operand,
    SimReport, StructuralOperand,
};
