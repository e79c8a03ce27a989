//! Regenerates Figures 10 and 11 (performance & energy vs baselines).
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "fig10_fig11_gains",
        &misam_bench::render::fig10_fig11(&misam::experiments::Corpora::new(s)),
    );
}
