//! Regenerates every table and figure into `results/`.
//!
//! ```sh
//! MISAM_SCALE=mid cargo run -p misam-bench --release --bin reproduce_all
//! ```
use std::time::Instant;

fn main() {
    std::fs::create_dir_all("results").expect("create results dir");
    let s = misam_bench::scale_from_env();
    println!("scale: {s:?}");
    println!("suite: {}", misam_bench::render::suite_summary(&s));
    // Every corpus-driven step shares one generation of each corpus.
    let c = &misam::experiments::Corpora::new(s);

    type Step<'a> = (&'static str, Box<dyn Fn() -> String + 'a>);
    let steps: Vec<Step> = vec![
        ("tab01_design_params", Box::new(misam_bench::render::tab01)),
        ("tab02_resources", Box::new(misam_bench::render::tab02)),
        ("tab03_hs_matrices", Box::new(misam_bench::render::tab03)),
        ("fig06_toy_timeline", Box::new(misam_bench::render::fig06)),
        ("d62_multitenant", Box::new(misam_bench::render::d62)),
        ("fig01_sparsity_space", Box::new(move || misam_bench::render::fig01(&s))),
        ("fig03_design_suite", Box::new(move || misam_bench::render::fig03(&s))),
        ("fig04_tab05_selector", Box::new(move || misam_bench::render::fig04_tab05(c))),
        ("tab04_design_speedup", Box::new(move || misam_bench::render::tab04(c))),
        ("fig09_latency_predictor", Box::new(move || misam_bench::render::fig09(c))),
        ("fig08_reconfig", Box::new(move || misam_bench::render::fig08(&s))),
        ("fig10_fig11_gains", Box::new(move || misam_bench::render::fig10_fig11(c))),
        ("fig12_breakdown", Box::new(move || misam_bench::render::fig12(c))),
        ("fig13_trapezoid", Box::new(move || misam_bench::render::fig13(&s))),
        ("d63_hetero", Box::new(move || misam_bench::render::d63_hetero(&s))),
        ("ablation_features", Box::new(move || misam_bench::render::ablation_features(c))),
        ("ablation_models", Box::new(move || misam_bench::render::ablation_models(c))),
        ("ablation_policy", Box::new(move || misam_bench::render::ablation_policy(&s))),
        ("ablation_mechanisms", Box::new(move || misam_bench::render::ablation_mechanisms(&s))),
        ("ablation_objectives", Box::new(move || misam_bench::render::ablation_objectives(c))),
    ];

    for (id, f) in steps {
        let t0 = Instant::now();
        let body = f();
        misam_bench::emit(id, &body);
        eprintln!("[{id}] done in {:.1}s", t0.elapsed().as_secs_f64());
    }
    println!("\nall artifacts written to results/");
}
