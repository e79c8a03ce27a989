//! Regenerates Table 5 (confusion matrix; shared with Figure 4 renderer).
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "tab05_confusion",
        &misam_bench::render::fig04_tab05(&misam::experiments::Corpora::new(s)),
    );
}
