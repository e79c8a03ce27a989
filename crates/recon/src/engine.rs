//! The reconfiguration decision procedure (paper §3.3, Figure 7).
//!
//! The host extracts features, the classifier predicts the optimal
//! design, and the latency model estimates every design's latency. The
//! rule in [`decide`] then weighs switching to the predicted design: it
//! charges the bitstream reconfiguration cost when the target design
//! lives in a different bitstream, and switches only when that overhead
//! is below a user threshold (20% in the paper's experiments) of the
//! expected gain. Designs 2 and 3 share a bitstream, so switching between
//! them is always free. [`ReconfigEngine`] applies the rule to a stream
//! of workloads, carrying the loaded design from one to the next.

use crate::cost::ReconfigCost;
use misam_sim::DesignId;

/// Outcome of one engine decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The design the workload should execute on.
    pub execute_on: DesignId,
    /// Whether a bitstream reconfiguration was triggered.
    pub reconfigured: bool,
    /// Reconfiguration time charged (0 when not reconfiguring or when the
    /// designs share a bitstream).
    pub reconfig_time_s: f64,
    /// Predicted latency of the design that will execute.
    pub predicted_latency_s: f64,
    /// Predicted latency of the previously loaded design (equals
    /// `predicted_latency_s` when no alternative existed).
    pub predicted_current_latency_s: f64,
}

/// The §3.3 rule: whether to move from the loaded `current` design to
/// the classifier's `predicted` one, given every design's predicted
/// latency in seconds (`latency_s`, indexed by `DesignId::index`).
///
/// - Cold start (nothing loaded) adopts `predicted` and charges its
///   load time.
/// - A D2↔D3 move shares the bitstream: it is free and always taken.
/// - Otherwise the switch is taken only when its time is below
///   `threshold × (lat_cur − lat_new) × amortization`, where
///   `amortization` counts the upcoming units of this workload character
///   that share the switch — the paper's tile-streaming rule that
///   reconfiguration must "yield a net latency benefit" across the
///   remaining tiles of the matrix, which is how cg15's 10.76x
///   materializes despite a multi-second switch. A non-positive
///   threshold therefore never switches bitstreams.
///
/// # Panics
///
/// Panics if `amortization` is not positive.
pub fn decide(
    latency_s: &[f64; 4],
    current: Option<DesignId>,
    predicted: DesignId,
    cost: &ReconfigCost,
    threshold: f64,
    amortization: f64,
) -> Decision {
    assert!(amortization > 0.0, "amortization factor must be positive");
    let lat_new = latency_s[predicted.index()];
    let on_predicted = |reconfigured, reconfig_time_s, lat_cur| Decision {
        execute_on: predicted,
        reconfigured,
        reconfig_time_s,
        predicted_latency_s: lat_new,
        predicted_current_latency_s: lat_cur,
    };

    let Some(current) = current else {
        return on_predicted(true, cost.full_time_s(predicted.bitstream()), lat_new);
    };
    if predicted == current {
        return on_predicted(false, 0.0, lat_new);
    }
    let lat_cur = latency_s[current.index()];
    if predicted.bitstream() == current.bitstream() {
        return on_predicted(false, 0.0, lat_cur);
    }

    let switch_time = cost.full_time_s(predicted.bitstream());
    let gain = (lat_cur - lat_new) * amortization;
    if gain > 0.0 && switch_time < threshold * gain {
        on_predicted(true, switch_time, lat_cur)
    } else {
        Decision {
            execute_on: current,
            reconfigured: false,
            reconfig_time_s: 0.0,
            predicted_latency_s: lat_cur,
            predicted_current_latency_s: lat_cur,
        }
    }
}

/// The reconfiguration engine: cost model + switch threshold +
/// loaded-bitstream state, applying [`decide`] workload after workload.
#[derive(Debug)]
pub struct ReconfigEngine {
    cost: ReconfigCost,
    threshold: f64,
    current: Option<DesignId>,
    reconfig_count: u64,
    reconfig_time_total_s: f64,
}

impl ReconfigEngine {
    /// Creates a cold engine with the given cost model and switch
    /// threshold (the paper uses 0.2: switch only when overhead is under
    /// 20% of the expected gain).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive.
    pub fn new(cost: ReconfigCost, threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        ReconfigEngine {
            cost,
            threshold,
            current: None,
            reconfig_count: 0,
            reconfig_time_total_s: 0.0,
        }
    }

    /// The currently loaded design, if any.
    pub fn current(&self) -> Option<DesignId> {
        self.current
    }

    /// Number of bitstream reconfigurations performed.
    pub fn reconfig_count(&self) -> u64 {
        self.reconfig_count
    }

    /// Total seconds spent reconfiguring.
    pub fn reconfig_time_total_s(&self) -> f64 {
        self.reconfig_time_total_s
    }

    /// The switch threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Loads a design unconditionally without charging time — models the
    /// initial configuration present before the workload stream starts.
    pub fn force_load(&mut self, design: DesignId) {
        self.current = Some(design);
    }

    /// Applies [`decide`] to the next workload — `predicted` is the
    /// classifier's choice, `latency_s` every design's predicted latency
    /// and `amortization` the units of work the switch is weighed over
    /// (1 for a single workload) — and adopts the result.
    ///
    /// # Panics
    ///
    /// Panics if `amortization` is not positive.
    pub fn decide(
        &mut self,
        latency_s: &[f64; 4],
        predicted: DesignId,
        amortization: f64,
    ) -> Decision {
        let d =
            decide(latency_s, self.current, predicted, &self.cost, self.threshold, amortization);
        self.current = Some(d.execute_on);
        if d.reconfigured {
            self.reconfig_count += 1;
            self.reconfig_time_total_s += d.reconfig_time_s;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Latency table where D4 takes `fast` seconds and everything else
    /// `slow`.
    fn table(fast: f64, slow: f64) -> [f64; 4] {
        [slow, slow, slow, fast]
    }

    fn engine(cost: ReconfigCost, threshold: f64, load: DesignId) -> ReconfigEngine {
        let mut e = ReconfigEngine::new(cost, threshold);
        e.force_load(load);
        e
    }

    #[test]
    fn cold_start_adopts_predicted_design() {
        let mut e = ReconfigEngine::new(ReconfigCost::default(), 0.2);
        let d = e.decide(&table(1.0, 2.0), DesignId::D2, 1.0);
        assert_eq!(d.execute_on, DesignId::D2);
        assert!(d.reconfigured);
        assert!(d.reconfig_time_s > 0.0);
        assert_eq!(e.current(), Some(DesignId::D2));
    }

    #[test]
    fn same_design_is_a_no_op() {
        let mut e = engine(ReconfigCost::default(), 0.2, DesignId::D1);
        let d = e.decide(&table(1.0, 2.0), DesignId::D1, 1.0);
        assert!(!d.reconfigured);
        assert_eq!(d.reconfig_time_s, 0.0);
        assert_eq!(e.reconfig_count(), 0);
    }

    #[test]
    fn d2_to_d3_switch_is_free() {
        let mut e = engine(ReconfigCost::default(), 0.2, DesignId::D2);
        let d = e.decide(&table(1.0, 2.0), DesignId::D3, 1.0);
        assert_eq!(d.execute_on, DesignId::D3);
        assert!(!d.reconfigured);
        assert_eq!(d.reconfig_time_s, 0.0);
        assert_eq!(e.current(), Some(DesignId::D3));
    }

    #[test]
    fn small_gain_does_not_justify_switching() {
        // Gain 1 s, switch ~2.8 s, threshold 20%: stay.
        let mut e = engine(ReconfigCost::default(), 0.2, DesignId::D1);
        let d = e.decide(&table(1.0, 2.0), DesignId::D4, 1.0);
        assert_eq!(d.execute_on, DesignId::D1);
        assert!(!d.reconfigured);
        assert_eq!(e.current(), Some(DesignId::D1));
    }

    #[test]
    fn large_gain_triggers_reconfiguration() {
        // Gain 99 s >> switch/0.2: switch.
        let mut e = engine(ReconfigCost::default(), 0.2, DesignId::D1);
        let d = e.decide(&table(1.0, 100.0), DesignId::D4, 1.0);
        assert_eq!(d.execute_on, DesignId::D4);
        assert!(d.reconfigured);
        assert!((e.reconfig_time_total_s() - d.reconfig_time_s).abs() < 1e-12);
        assert_eq!(e.reconfig_count(), 1);
    }

    #[test]
    fn threshold_tunes_aggressiveness() {
        // Gain 20 s, switch ~2.8 s: 0.1 threshold refuses (needs < 2 s),
        // 0.2 accepts (needs < 4 s).
        let cost = ReconfigCost::default();
        let t = table(1.0, 21.0);
        assert!(!decide(&t, Some(DesignId::D1), DesignId::D4, &cost, 0.1, 1.0).reconfigured);
        assert!(decide(&t, Some(DesignId::D1), DesignId::D4, &cost, 0.2, 1.0).reconfigured);
    }

    #[test]
    fn zero_cost_always_chases_the_best_design() {
        let mut e = engine(ReconfigCost::zero(), 0.2, DesignId::D1);
        assert!(e.decide(&table(1.0, 1.001), DesignId::D4, 1.0).reconfigured);
    }

    #[test]
    fn negative_gain_never_switches() {
        // Predicted design is *slower* than current (a misprediction the
        // secondary model catches, §5.1).
        let mut e = engine(ReconfigCost::zero(), 0.2, DesignId::D1);
        let d = e.decide(&table(5.0, 1.0), DesignId::D4, 1.0);
        assert_eq!(d.execute_on, DesignId::D1);
        assert!(!d.reconfigured);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_is_rejected() {
        ReconfigEngine::new(ReconfigCost::default(), 0.0);
    }

    #[test]
    fn amortization_unlocks_switches_single_units_cannot_justify() {
        // Per-tile gain 1 s: a ~2.8 s switch at threshold 0.2 needs a
        // 14 s aggregate gain, i.e. at least 15 remaining tiles.
        let mut e = engine(ReconfigCost::default(), 0.2, DesignId::D1);
        assert!(!e.decide(&table(1.0, 2.0), DesignId::D4, 10.0).reconfigured);
        assert!(e.decide(&table(1.0, 2.0), DesignId::D4, 20.0).reconfigured);
    }

    #[test]
    fn partial_region_unlocks_cheap_switches() {
        // Gain 1 s: full reconfig (~2.8 s) fails the 20% rule, but a
        // small dynamic region (~0.2 s, §6.1) passes it.
        let partial =
            ReconfigCost { program_base_s: 0.05, program_per_mib_s: 0.002, ..Default::default() };
        let t = table(1.0, 2.0);
        let full = decide(&t, Some(DesignId::D1), DesignId::D4, &ReconfigCost::default(), 0.2, 1.0);
        assert!(!full.reconfigured);
        let d = decide(&t, Some(DesignId::D1), DesignId::D4, &partial, 0.2, 1.0);
        assert!(d.reconfigured);
        assert!(d.reconfig_time_s < 0.5, "partial switch cost {:.3}s", d.reconfig_time_s);
    }

    #[test]
    #[should_panic(expected = "amortization factor must be positive")]
    fn zero_amortization_is_rejected() {
        let mut e = ReconfigEngine::new(ReconfigCost::default(), 0.2);
        e.decide(&table(1.0, 2.0), DesignId::D1, 0.0);
    }
}
