//! Regenerates Figure 12 (end-to-end breakdown).
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "fig12_breakdown",
        &misam_bench::render::fig12(&misam::experiments::Corpora::new(s)),
    );
}
