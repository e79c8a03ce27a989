//! Bitstream reconfiguration cost model (paper §6.1).
//!
//! Full reconfiguration on the U55C takes 3–4 seconds for a 50–80 MB
//! bitstream over PCIe Gen4 x8 (6.4 GB/s): the transfer itself is ~10 ms,
//! and the fabric programming phase dominates — the paper verified this
//! across Vivado, OpenCL and XRT paths. Other regimes are other constants:
//! a small partial-reconfiguration region that programs in hundreds of
//! milliseconds, a CGRA-class microsecond switch, or [`ReconfigCost::zero`]
//! (see `misam::ablation::cost_regimes`).

use misam_sim::BitstreamId;
use serde::{Deserialize, Serialize};

/// Reconfiguration timing constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReconfigCost {
    /// PCIe bandwidth for bitstream transfer, GB/s.
    pub pcie_gbs: f64,
    /// Fixed fabric-programming setup time, seconds.
    pub program_base_s: f64,
    /// Fabric programming time per MiB of bitstream, seconds.
    pub program_per_mib_s: f64,
}

impl Default for ReconfigCost {
    fn default() -> Self {
        ReconfigCost { pcie_gbs: 6.4, program_base_s: 1.0, program_per_mib_s: 0.035 }
    }
}

impl ReconfigCost {
    /// A model in which switching is free — the §5.2 override that lets
    /// the engine always chase the optimal design.
    pub fn zero() -> Self {
        ReconfigCost { pcie_gbs: f64::INFINITY, program_base_s: 0.0, program_per_mib_s: 0.0 }
    }

    /// Seconds to fully reconfigure onto `bitstream`.
    pub fn full_time_s(&self, bitstream: BitstreamId) -> f64 {
        let mib = bitstream.size_mib();
        let transfer = mib * 1024.0 * 1024.0 / (self.pcie_gbs * 1e9);
        transfer + self.program_base_s + self.program_per_mib_s * mib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_reconfig_lands_in_the_3_to_4_second_band() {
        let c = ReconfigCost::default();
        for b in [BitstreamId::B1, BitstreamId::B23, BitstreamId::B4] {
            let t = c.full_time_s(b);
            assert!((2.5..=4.5).contains(&t), "{b:?} reconfig {t:.2}s outside paper band");
        }
    }

    #[test]
    fn programming_dominates_transfer() {
        let c = ReconfigCost::default();
        let mib = BitstreamId::B23.size_mib();
        let transfer = mib * 1024.0 * 1024.0 / (c.pcie_gbs * 1e9);
        assert!(transfer < 0.05, "PCIe transfer should be ~10ms, got {transfer}");
        assert!(c.full_time_s(BitstreamId::B23) > 20.0 * transfer);
    }

    #[test]
    fn zero_cost_model_is_actually_zero() {
        let c = ReconfigCost::zero();
        assert_eq!(c.full_time_s(BitstreamId::B1), 0.0);
    }
}
