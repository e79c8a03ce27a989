//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation.
//!
//! Each experiment has a thin binary in `src/bin/` (e.g.
//! `cargo run -p misam-bench --release --bin fig08_reconfig`) that calls
//! the corresponding renderer in [`render`]; `reproduce_all` runs the
//! whole set and writes the outputs into `results/`. Criterion benches
//! for the hot kernels live in `benches/`.
//!
//! Scale is controlled by the `MISAM_SCALE` environment variable:
//! `quick` (test scale), `mid` (default — minutes for the full set), or
//! `paper` (the published corpus sizes; substantially longer).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod render;

use misam::experiments::ExperimentScale;

/// Reads the experiment scale from `MISAM_SCALE` (`quick`, `mid`,
/// `paper`; default `mid`).
pub fn scale_from_env() -> ExperimentScale {
    match std::env::var("MISAM_SCALE").as_deref() {
        Ok("paper") => ExperimentScale::paper(),
        Ok("quick") => ExperimentScale::quick(),
        _ => mid_scale(),
    }
}

/// The default reproduction scale: large enough for stable statistics,
/// small enough to regenerate everything in minutes.
pub fn mid_scale() -> ExperimentScale {
    ExperimentScale {
        classifier_samples: 2500,
        latency_samples: 5000,
        trapezoid_samples: 1500,
        hs_scale: 0.08,
        kfold: 10,
        seed: 2025,
    }
}

/// Prints a banner and returns the rendered experiment, also writing it
/// to `results/<id>.txt` when the directory exists.
pub fn emit(id: &str, body: &str) {
    println!("==== {id} ====");
    println!("{body}");
    let dir = std::path::Path::new("results");
    if dir.is_dir() {
        let _ = std::fs::write(dir.join(format!("{id}.txt")), body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_mid() {
        // (Environment-dependent branches are covered by the explicit
        // constructors.)
        let m = mid_scale();
        assert!(m.classifier_samples > ExperimentScale::quick().classifier_samples);
        assert!(m.classifier_samples < ExperimentScale::paper().classifier_samples);
    }
}
