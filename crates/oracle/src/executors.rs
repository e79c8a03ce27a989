//! [`Executor`] implementations for every cost model in the workspace.

use crate::{profiles, Executor};
use misam_baselines::cpu::CpuModel;
use misam_baselines::gpu::GpuModel;
use misam_baselines::trapezoid::{Dataflow, TrapezoidSim};
use misam_baselines::BaselineReport;
use misam_features::TileConfig;
use misam_sim::{
    simulate_profiled, simulate_profiled_ref, simulate_structural, simulate_with_config_profiled,
    DesignConfig, DesignId, Operand, SimReport, StructuralOperand,
};
use misam_sparse::slab::SlabMatrix;
use misam_sparse::{CsrMatrix, LazyMatrix, LazyOperand};

/// The FPGA cycle-level simulator over the four paper designs.
/// Target `i` is `DesignId::ALL[i]`.
///
/// Evaluation goes through the shared [`profiles`] store: each operand
/// is structurally profiled once while resident, after which every design
/// and pass width schedules as a closed-form fold (bit-identical to
/// `misam_sim::simulate`).
#[derive(Debug, Clone, Copy, Default)]
pub struct FpgaSim;

impl Executor for FpgaSim {
    type Report = SimReport;

    fn targets(&self) -> usize {
        DesignId::ALL.len()
    }

    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> SimReport {
        let store = profiles::global();
        let ap = store.of_matrix(a);
        let bp = store.of_operand(b);
        simulate_profiled(a, &ap, b, bp.as_deref(), DesignId::ALL[target])
    }
}

impl FpgaSim {
    /// Evaluates a lazy operand pair on `DesignId::ALL[target]` through
    /// the **structural** simulation path: profiles are synthesized in
    /// O(rows + cols) from the structure stage and, for the standard
    /// designs, no CSR is ever materialized. When a pass has no closed
    /// form (custom tallies, gapped cost tables) the operands fall back
    /// to materialization — counted by
    /// `misam_sparse::lazy::materialization_stats` — so the report is
    /// always produced, bit-identical to [`Executor::execute`] on the
    /// materialized pair.
    ///
    /// # Panics
    ///
    /// Panics if `target >= 4` or operand shapes disagree.
    pub fn execute_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>, target: usize) -> SimReport {
        let id = DesignId::ALL[target];
        let store = profiles::global();
        let ap = store.of_lazy(a);
        match b {
            LazyOperand::Dense { rows, cols } => {
                simulate_structural(a.structure(), &ap, StructuralOperand::Dense { rows, cols }, id)
                    .unwrap_or_else(|| {
                        simulate_profiled(
                            a.materialize(),
                            &ap,
                            Operand::Dense { rows, cols },
                            None,
                            id,
                        )
                    })
            }
            LazyOperand::Sparse(bm) => {
                let bp = store.of_lazy(bm);
                simulate_structural(a.structure(), &ap, StructuralOperand::Sparse(&bp), id)
                    .unwrap_or_else(|| {
                        simulate_profiled(
                            a.materialize(),
                            &ap,
                            Operand::Sparse(bm.materialize()),
                            Some(&bp),
                            id,
                        )
                    })
            }
        }
    }

    /// [`FpgaSim::execute_lazy`] across all four designs, in order.
    pub fn execute_all_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>) -> Vec<SimReport> {
        (0..self.targets()).map(|t| self.execute_lazy(a, b, t)).collect()
    }

    /// Evaluates an mmap-backed slab matrix on `DesignId::ALL[target]`
    /// without ever copying it into an owned [`CsrMatrix`]: the profile
    /// comes from the store keyed by the slab's O(1) header digest, and
    /// the simulation walks the mapped view directly. Bit-identical to
    /// [`Executor::execute`] on the owned twin.
    ///
    /// # Panics
    ///
    /// Panics if `target >= 4` or operand shapes disagree.
    pub fn execute_slab(&self, a: &SlabMatrix, b: Operand<'_>, target: usize) -> SimReport {
        let store = profiles::global();
        let ap = store.of_slab(a);
        let bp = store.of_operand(b);
        simulate_profiled_ref(a.as_ref(), &ap, b, bp.as_deref(), DesignId::ALL[target])
    }
}

/// The closed-form analytic latency estimator (`misam_sim::analytic`)
/// over the four paper designs; reports estimated seconds.
#[derive(Debug, Clone, Default)]
pub struct AnalyticFpga {
    /// Tiling geometry used for feature extraction.
    pub tile: TileConfig,
}

impl Executor for AnalyticFpga {
    type Report = f64;

    fn targets(&self) -> usize {
        DesignId::ALL.len()
    }

    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> f64 {
        let features = profiles::global().pair_features(a, b, &self.tile);
        misam_sim::analytic::estimate_time_s(&features, DesignId::ALL[target])
    }
}

/// The cycle-level simulator over an explicit set of design
/// configurations — the ablation harness's mechanism-knockout sweeps.
#[derive(Debug, Clone)]
pub struct CustomFpga {
    /// One target per configuration, in order.
    pub configs: Vec<DesignConfig>,
}

impl CustomFpga {
    /// An executor over the given configurations.
    pub fn new(configs: Vec<DesignConfig>) -> Self {
        CustomFpga { configs }
    }
}

impl Executor for CustomFpga {
    type Report = SimReport;

    fn targets(&self) -> usize {
        self.configs.len()
    }

    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> SimReport {
        let store = profiles::global();
        let ap = store.of_matrix(a);
        let bp = store.of_operand(b);
        simulate_with_config_profiled(a, &ap, b, bp.as_deref(), &self.configs[target])
    }
}

/// The MKL-class CPU baseline (single target).
#[derive(Debug, Clone, Default)]
pub struct CpuExecutor {
    /// Roofline parameters of the modeled CPU.
    pub model: CpuModel,
}

impl Executor for CpuExecutor {
    type Report = BaselineReport;

    fn targets(&self) -> usize {
        1
    }

    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> BaselineReport {
        assert_eq!(target, 0, "CPU baseline has a single target");
        match b {
            Operand::Sparse(bm) => self.model.spgemm(a, bm),
            Operand::Dense { rows, cols } => self.model.spmm(a, rows, cols),
        }
    }
}

/// The cuSPARSE-class GPU baseline (single target).
#[derive(Debug, Clone, Default)]
pub struct GpuExecutor {
    /// Roofline parameters of the modeled GPU.
    pub model: GpuModel,
}

impl Executor for GpuExecutor {
    type Report = BaselineReport;

    fn targets(&self) -> usize {
        1
    }

    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> BaselineReport {
        assert_eq!(target, 0, "GPU baseline has a single target");
        match b {
            Operand::Sparse(bm) => self.model.spgemm(a, bm),
            Operand::Dense { rows, cols } => self.model.spmm(a, rows, cols),
        }
    }
}

/// The Trapezoid ASIC's three fixed dataflows.
/// Target `i` is `Dataflow::ALL[i]`.
#[derive(Debug, Clone, Default)]
pub struct TrapezoidExecutor {
    /// The modeled ASIC.
    pub sim: TrapezoidSim,
}

impl Executor for TrapezoidExecutor {
    type Report = BaselineReport;

    fn targets(&self) -> usize {
        Dataflow::ALL.len()
    }

    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> BaselineReport {
        let dataflow = Dataflow::ALL[target];
        match b {
            Operand::Sparse(bm) => self.sim.run(a, bm, dataflow),
            Operand::Dense { rows, cols } => self.sim.run_dense_b(a, rows, cols, dataflow),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misam_sim::simulate;
    use misam_sparse::gen;

    fn pair() -> (CsrMatrix, CsrMatrix) {
        (gen::power_law(256, 256, 4.0, 1.4, 1), gen::power_law(256, 128, 4.0, 1.4, 2))
    }

    #[test]
    fn fpga_executor_matches_direct_simulate() {
        let (a, b) = pair();
        let ex = FpgaSim;
        for (i, id) in DesignId::ALL.iter().enumerate() {
            let via_trait = ex.execute(&a, Operand::Sparse(&b), i);
            let direct = simulate(&a, Operand::Sparse(&b), *id);
            assert_eq!(via_trait, direct);
        }
        assert_eq!(ex.execute_all(&a, Operand::Sparse(&b)).len(), 4);
    }

    #[test]
    fn analytic_executor_estimates_all_designs() {
        let (a, b) = pair();
        let ex = AnalyticFpga::default();
        for t in 0..ex.targets() {
            let est = ex.execute(&a, Operand::Sparse(&b), t);
            assert!(est > 0.0 && est.is_finite());
        }
    }

    #[test]
    fn custom_fpga_follows_its_config_list() {
        let (a, b) = pair();
        let ex = CustomFpga::new(vec![DesignConfig::of(DesignId::D2)]);
        assert_eq!(ex.targets(), 1);
        let got = ex.execute(&a, Operand::Sparse(&b), 0);
        assert_eq!(got, simulate(&a, Operand::Sparse(&b), DesignId::D2));
    }

    #[test]
    fn baselines_handle_both_operand_kinds() {
        let (a, b) = pair();
        for report in [
            CpuExecutor::default().execute(&a, Operand::Sparse(&b), 0),
            CpuExecutor::default().execute(&a, Operand::Dense { rows: 256, cols: 64 }, 0),
            GpuExecutor::default().execute(&a, Operand::Sparse(&b), 0),
            GpuExecutor::default().execute(&a, Operand::Dense { rows: 256, cols: 64 }, 0),
        ] {
            assert!(report.time_s > 0.0 && report.energy_j > 0.0);
        }
    }

    #[test]
    fn trapezoid_covers_its_three_dataflows() {
        let (a, b) = pair();
        let ex = TrapezoidExecutor::default();
        let all = ex.execute_all(&a, Operand::Sparse(&b));
        assert_eq!(all.len(), 3);
        for (i, df) in Dataflow::ALL.iter().enumerate() {
            assert_eq!(all[i], ex.sim.run(&a, &b, *df));
        }
    }
}
