//! Regenerates the objective-blend ablation (§3.1's tunable knob).
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "ablation_objectives",
        &misam_bench::render::ablation_objectives(&misam::experiments::Corpora::new(s)),
    );
}
