//! Regenerates Figure 9 (latency-predictor residuals).
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "fig09_latency_predictor",
        &misam_bench::render::fig09(&misam::experiments::Corpora::new(s)),
    );
}
