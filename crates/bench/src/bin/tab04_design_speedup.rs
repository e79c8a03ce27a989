//! Regenerates Table 4 (geomean speedup of the optimal design).
fn main() {
    let s = misam_bench::scale_from_env();
    misam_bench::emit(
        "tab04_design_speedup",
        &misam_bench::render::tab04(&misam::experiments::Corpora::new(s)),
    );
}
