//! Regenerates Figure 11 (energy; shared renderer with Figure 10).
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "fig11_energy",
        &misam_bench::render::fig10_fig11(&misam::experiments::Corpora::new(s)),
    );
}
