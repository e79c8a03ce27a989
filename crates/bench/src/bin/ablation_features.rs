//! Regenerates the `ablation_features` extension/ablation artifact.
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "ablation_features",
        &misam_bench::render::ablation_features(&misam::experiments::Corpora::new(s)),
    );
}
