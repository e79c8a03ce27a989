//! Regenerates the `ablation_models` extension/ablation artifact.
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "ablation_models",
        &misam_bench::render::ablation_models(&misam::experiments::Corpora::new(s)),
    );
}
