//! Exact order statistics over stored raw samples.
//!
//! Every rate and percentile the benchmark prints is computed here from
//! the samples themselves — never from log-bucketed histograms, whose
//! bucket width puts up to 25% error on a quantile, and never from an
//! offered input rate.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read from a sorted sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported (e.g. 99.0).
    pub pct: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples ranked strictly after the reported one.
    pub beyond: usize,
}

/// Stored samples with exact nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes ownership of raw samples and sorts them.
    ///
    /// # Panics
    ///
    /// Panics on a NaN sample: a timing is never NaN, so one is a bug.
    pub fn new(mut raw: Vec<f64>) -> Self {
        assert!(raw.iter().all(|x| !x.is_nan()), "NaN sample");
        raw.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Samples { sorted: raw }
    }

    /// Arithmetic mean (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `pct`% of the set at or below it. `None` for an empty set.
    pub fn percentile(&self, pct: f64) -> Option<Percentile> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        // Multiply before dividing: `pct * n` is exact for whole percentiles,
        // so the rank never picks up a rounding ulp.
        let rank = ((pct * n as f64 / 100.0).ceil() as usize).clamp(1, n);
        Some(Percentile { pct, value: self.sorted[rank - 1], n, beyond: n - rank })
    }

    /// The median (p50), whatever its support.
    pub fn median(&self) -> Option<Percentile> {
        self.percentile(50.0)
    }

    /// `pct` when at least [`MIN_BEYOND`] samples lie beyond it;
    /// otherwise the highest whole percentile below `pct` that has that
    /// support. `None` when not even the median has it.
    pub fn supported_tail(&self, pct: f64) -> Option<Percentile> {
        let mut p = pct;
        while p >= 50.0 {
            match self.percentile(p) {
                Some(q) if q.beyond >= MIN_BEYOND => return Some(q),
                _ => p = p.ceil() - 1.0,
            }
        }
        None
    }
}

/// Median of a small set of values (e.g. one per repeated set-up).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().expect("median of an empty set").value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        // Shuffled on purpose: the constructor must sort.
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let s = one_to(1000);
        assert_eq!(s.percentile(50.0).unwrap().value, 500.0);
        assert_eq!(s.percentile(99.0).unwrap().value, 990.0);
        assert_eq!(s.percentile(100.0).unwrap().value, 1000.0);
        assert_eq!(s.percentile(0.0).unwrap().value, 1.0);
        let p99 = s.percentile(99.0).unwrap();
        assert_eq!((p99.n, p99.beyond), (1000, 10));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let s = one_to(1000);
        assert_eq!(s.supported_tail(99.0).unwrap().pct, 99.0);
        // 500 samples: p99 has 5 beyond, p98 has 10.
        let t = one_to(500).supported_tail(99.0).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (98.0, 490.0, 10));
        // 100 samples: the highest supported percentile is p90.
        let t = one_to(100).supported_tail(99.0).unwrap();
        assert_eq!((t.pct, t.beyond), (90.0, 10));
    }

    #[test]
    fn tiny_sets_have_no_supported_tail() {
        assert!(one_to(15).supported_tail(99.0).is_none());
        assert!(Samples::new(Vec::new()).supported_tail(99.0).is_none());
        assert!(Samples::new(Vec::new()).median().is_none());
        assert_eq!(one_to(20).supported_tail(99.0).unwrap().pct, 50.0);
    }

    #[test]
    fn mean_and_small_median() {
        assert_eq!(one_to(4).mean(), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(Samples::new(Vec::new()).mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_is_rejected() {
        Samples::new(vec![1.0, f64::NAN]);
    }
}
