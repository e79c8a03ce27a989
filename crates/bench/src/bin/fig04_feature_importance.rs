//! Regenerates Figure 4 (feature importance) and Table 5 (confusion).
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "fig04_tab05_selector",
        &misam_bench::render::fig04_tab05(&misam::experiments::Corpora::new(s)),
    );
}
