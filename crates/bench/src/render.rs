//! Text renderers for every table and figure, one function per artifact.

use misam::experiments::{self, Corpora, ExperimentScale};
use misam::workloads::Category;
use misam_sim::resources;
use misam_sim::toy::{self, ToyConfig};
use misam_sim::{DesignConfig, DesignId};
use misam_sparse::suitesparse;
use std::fmt::Write as _;

/// Figure 1: workloads across the sparsity space.
pub fn fig01(scale: &ExperimentScale) -> String {
    let pts = experiments::fig01_sparsity_space(scale);
    let mut out = String::from(
        "Figure 1 — sparsity-space map of the evaluation workloads\n\
         (density of A vs density of B; HS < 2e-2 <= MS < 0.5 <= D)\n\n",
    );
    let _ = writeln!(out, "{:<24} {:<6} {:>12} {:>12}", "workload", "cat", "dens(A)", "dens(B)");
    for p in &pts {
        let _ = writeln!(
            out,
            "{:<24} {:<6} {:>12.3e} {:>12.3e}",
            p.name,
            p.category.label(),
            p.a_density,
            p.b_density
        );
    }
    let _ = writeln!(out, "\n{} workloads total", pts.len());
    out
}

/// Figure 3: D1/D2/D3 normalized performance across app workloads.
pub fn fig03(scale: &ExperimentScale) -> String {
    let rows = experiments::fig03_design_suite(scale);
    let mut out = String::from(
        "Figure 3 — Misam design suite (D1, D2, D3) across workloads,\n\
         normalized to the best design (1.00 = best)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<28} {:<6} {:>8} {:>8} {:>8}  winner",
        "workload", "cat", "D1", "D2", "D3"
    );
    let mut wins = [0usize; 3];
    for r in &rows {
        let w = r
            .normalized
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("three designs");
        wins[w] += 1;
        let _ = writeln!(
            out,
            "{:<28} {:<6} {:>8.2} {:>8.2} {:>8.2}  D{}",
            r.name,
            r.category.label(),
            r.normalized[0],
            r.normalized[1],
            r.normalized[2],
            w + 1
        );
    }
    let _ = writeln!(
        out,
        "\nwins: D1 {} / D2 {} / D3 {} — no single design dominates",
        wins[0], wins[1], wins[2]
    );
    out
}

/// Figure 4 + Table 5 + §3.1 claims: selector training.
pub fn fig04_tab05(corpora: &Corpora) -> String {
    let e = experiments::selector_experiment(corpora);
    let mut out = String::from("Figure 4 — decision-tree feature importance\n\n");
    for (name, imp) in e.training.selector.ranked_importances().iter().take(10) {
        let bar = "#".repeat((imp * 60.0).round() as usize);
        let _ = writeln!(out, "  {name:<22} {:>6.2}%  {bar}", imp * 100.0);
    }
    let _ = writeln!(out, "\nTable 5 — confusion matrix (validation split)\n");
    out.push_str(&e.training.confusion.render(&["Design 1", "Design 2", "Design 3", "Design 4"]));
    let kmean = e.kfold_accuracies.iter().sum::<f64>() / e.kfold_accuracies.len() as f64;
    let _ = writeln!(
        out,
        "\nvalidation accuracy: {:.1}%   (paper: 90%)\n\
         {}-fold CV accuracy : {:.1}%\n\
         model size         : {} bytes ({:.1} KB; paper: 6 KB)\n\
         corpus labels      : D1 {} / D2 {} / D3 {} / D4 {}",
        e.training.accuracy * 100.0,
        e.kfold_accuracies.len(),
        kmean * 100.0,
        e.training.model_bytes,
        e.training.model_bytes as f64 / 1024.0,
        e.label_histogram[0],
        e.label_histogram[1],
        e.label_histogram[2],
        e.label_histogram[3],
    );
    out
}

/// Figure 6: the toy timelines.
pub fn fig06() -> String {
    let mut out = String::from(
        "Figure 6 — toy timelines: three designs on three matrices\n\
         (2-cycle load/store dependency, 3-cycle B read, 1-cycle broadcast)\n",
    );
    for (a, expected) in toy::demo_matrices() {
        let _ = writeln!(
            out,
            "\nmatrix ({}x{}, {} nnz, density {:.2}) — expected winner: Design {}",
            a.rows(),
            a.cols(),
            a.nnz(),
            a.density(),
            expected
        );
        for d in 1..=3u8 {
            let t = toy::run(&a, &ToyConfig::figure6(d));
            let marker = if d == expected { "  <= fastest" } else { "" };
            let _ = writeln!(out, "--- Design {d}{marker}");
            out.push_str(&toy::render(&t));
        }
    }
    out
}

/// Table 1: design parameter configurations.
pub fn tab01() -> String {
    let mut out = String::from("Table 1 — parameter configurations\n\n");
    let cfgs: Vec<DesignConfig> = DesignId::ALL.iter().map(|&d| DesignConfig::of(d)).collect();
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>9} {:>9}",
        "Parameter", "Design 1", "Design 2", "Design 3", "Design 4"
    );
    let row = |name: &str, f: &dyn Fn(&DesignConfig) -> String| {
        let mut s = format!("{name:<12}");
        for c in &cfgs {
            let _ = write!(s, " {:>9}", f(c));
        }
        s
    };
    let _ = writeln!(out, "{}", row("ch_A", &|c| c.ch_a.to_string()));
    let _ = writeln!(out, "{}", row("ch_B", &|c| c.ch_b.to_string()));
    let _ = writeln!(out, "{}", row("ch_C", &|c| c.ch_c.to_string()));
    let _ = writeln!(out, "{}", row("PEG", &|c| c.pegs.to_string()));
    let _ = writeln!(out, "{}", row("ACCG", &|c| c.accgs.to_string()));
    let _ = writeln!(out, "{}", row("Scheduler A", &|c| format!("{:?}", c.scheduler_a)));
    let _ = writeln!(out, "{}", row("Format B", &|c| format!("{:?}", c.format_b)));
    out
}

/// Table 2: resource estimation.
pub fn tab02() -> String {
    let mut out = String::from("Table 2 — resource estimation for Xilinx U55C\n\n");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "Design", "LUT", "FF", "BRAM", "URAM", "DSP", "Freq(MHz)", "Power(W)"
    );
    for (name, id) in
        [("Design 1", DesignId::D1), ("Design 2 & 3", DesignId::D2), ("Design 4", DesignId::D4)]
    {
        let u = resources::utilization(id);
        let _ = writeln!(
            out,
            "{:<14} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>10.2} {:>8.1}",
            name,
            u.lut * 100.0,
            u.ff * 100.0,
            u.bram * 100.0,
            u.uram * 100.0,
            u.dsp * 100.0,
            resources::frequency_mhz(id),
            resources::power_w(id)
        );
    }
    out
}

/// Table 3: the HS matrix catalog.
pub fn tab03() -> String {
    let mut out = String::from("Table 3 — highly sparse matrices (synthetic stand-ins)\n\n");
    let _ = writeln!(
        out,
        "{:<18} {:<6} {:>9} {:>9} {:>10} {:<14}",
        "Name", "ID", "Density", "Rows", "NNZ", "Class"
    );
    for r in suitesparse::catalog() {
        let _ = writeln!(
            out,
            "{:<18} {:<6} {:>9.1e} {:>9} {:>10} {:<14}",
            r.name,
            r.id,
            r.density,
            r.rows,
            r.nnz,
            format!("{:?}", r.class)
        );
    }
    out
}

/// Table 4: geomean speedups between the SpMM designs.
pub fn tab04(corpora: &Corpora) -> String {
    let t = experiments::tab04_design_speedups(corpora);
    let mut out = String::from(
        "Table 4 — geometric-mean speedup of the optimal design over the\n\
         others, across workloads where that design is optimal\n\
         (paper diagonal of competitors: 1.28-1.81)\n\n",
    );
    let _ =
        writeln!(out, "{:<10} {:>9} {:>9} {:>9}", "Speedup", "Design 1", "Design 2", "Design 3");
    for (i, row) in t.iter().enumerate() {
        let mut line = format!("Design {:<3}", i + 1);
        for v in row {
            if v.is_nan() {
                let _ = write!(line, " {:>9}", "-");
            } else {
                let _ = write!(line, " {v:>9.2}");
            }
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Figure 8: reconfiguration overhead analysis.
pub fn fig08(scale: &ExperimentScale) -> String {
    let r = experiments::fig08_reconfig(scale);
    let mut out = String::from(
        "Figure 8 — reconfiguration overhead analysis (lower is better)\n\
         current = stay on incumbent design; engine = cost-aware choice\n\n",
    );
    let _ = writeln!(
        out,
        "{:<8} {:>5} {:>5} {:>12} {:>12} {:>12} {:>7} {:>9} {:>9}",
        "wl", "cur", "best", "t_cur(s)", "t_best(s)", "t_engine(s)", "switch", "spd_cur", "vs_best"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>7} {:>8.2}x {:>8.2}x",
            row.name,
            format!("D{}", row.current.index() + 1),
            format!("D{}", row.best.index() + 1),
            row.t_current_s,
            row.t_best_s,
            row.t_engine_s,
            if row.reconfigured { "yes*" } else { "no" },
            row.speedup_vs_current,
            row.slowdown_vs_best
        );
    }
    let _ = writeln!(
        out,
        "\ngeomean speedup where reconfigured : {:.2}x  (paper: 2.74x, cg15 up to 10.76x)\n\
         geomean slowdown where declined    : {:.2}x  (paper: 1.02x)",
        r.geomean_speedup_reconfigured, r.geomean_slowdown_stayed
    );
    out
}

/// Figure 9: latency-predictor residuals.
pub fn fig09(corpora: &Corpora) -> String {
    let t = experiments::fig09_latency_predictor(corpora);
    let mut out = String::from("Figure 9 — reconfiguration-engine latency predictor\n\n");
    let _ = writeln!(
        out,
        "held-out MAE (log10 latency): {:.3}   (paper: 0.344)\n\
         held-out R^2               : {:.3}   (paper: 0.978)\n",
        t.mae, t.r2
    );
    // Residual histogram.
    let mut bins = [0usize; 11];
    for r in &t.residuals {
        let idx = (((r + 0.55) / 0.1).floor() as isize).clamp(0, 10) as usize;
        bins[idx] += 1;
    }
    let _ = writeln!(out, "residual histogram (log10 predicted - actual):");
    for (i, count) in bins.iter().enumerate() {
        let lo = -0.55 + 0.1 * i as f64;
        let bar = "#".repeat((count * 60 / t.residuals.len().max(1)).min(60));
        let _ = writeln!(out, "  [{:>5.2},{:>5.2}) {:>6}  {bar}", lo, lo + 0.1, count);
    }
    out
}

/// Figures 10 & 11: performance and energy gains over the baselines.
pub fn fig10_fig11(corpora: &Corpora) -> String {
    let gains = experiments::fig10_fig11_gains(corpora);
    let mut out = String::from(
        "Figure 10 — geomean speedup of Misam over CPU (MKL-class), GPU\n\
         (cuSPARSE-class) and Trapezoid fixed dataflows, per category\n\n",
    );
    let _ =
        writeln!(out, "{:<8} {:>10} {:>10} {:>12}", "category", "vs CPU", "vs GPU", "vs Trapezoid");
    for g in &gains {
        let _ = writeln!(
            out,
            "{:<8} {:>9.2}x {:>9.2}x {:>11.2}x",
            g.category.label(),
            g.speedup_vs_cpu,
            g.speedup_vs_gpu,
            g.speedup_vs_trapezoid
        );
    }
    let _ = writeln!(
        out,
        "\npaper anchors: 15.33x vs MKL and 4.48x vs cuSPARSE on HSxMS;\n\
         20.27x vs MKL and 11.26x vs cuSPARSE on MSxMS; 5.50x/1.37x on HSxHS;\n\
         3.23x vs Trapezoid on HSxMS, 1.01x on MSxMS, 5.84x on HSxD\n"
    );
    out.push_str("Figure 11 — geomean energy-efficiency gain over CPU and GPU\n\n");
    let _ = writeln!(out, "{:<8} {:>10} {:>10}", "category", "vs CPU", "vs GPU");
    for g in &gains {
        let _ = writeln!(
            out,
            "{:<8} {:>9.2}x {:>9.2}x",
            g.category.label(),
            g.energy_vs_cpu,
            g.energy_vs_gpu
        );
    }
    out.push_str(
        "\npaper anchors: vs CPU 14.94x (HSxHS) … 47.24x (MSxMS); vs GPU\n\
         8.21x (HSxHS), 43.07x (MSxMS), 39.86x (HSxMS); GPU wins dense\n\
         categories (0.47x HSxD, 0.27x MSxD)\n",
    );
    out
}

/// Figure 12: end-to-end breakdown.
pub fn fig12(corpora: &Corpora) -> String {
    let rows = experiments::fig12_breakdown(corpora);
    let mut out = String::from(
        "Figure 12 — end-to-end breakdown on representative workloads\n\
         (paper: inference ~0.1%, preprocessing ~2% of total)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<26} {:<6} {:>12} {:>12} {:>12} {:>8}",
        "workload", "cat", "preprocess", "inference", "execute", "host%"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<26} {:<6} {:>10.1}us {:>10.1}us {:>10.1}us {:>7.2}%",
            r.name,
            r.category.label(),
            r.preprocess_s * 1e6,
            r.inference_s * 1e6,
            r.execute_s * 1e6,
            r.host_fraction() * 100.0
        );
    }
    out
}

/// Figure 13: Misam's selector on Trapezoid's dataflows.
pub fn fig13(scale: &ExperimentScale) -> String {
    let r = experiments::fig13_trapezoid(scale);
    let names = experiments::dataflow_names();
    let mut out = String::from(
        "Figure 13 — Trapezoid dataflows normalized to the best, plus the\n\
         Misam selector retargeted to Trapezoid (§6.3)\n\n",
    );
    let _ = writeln!(out, "{:<26} {:>10} {:>14} {:>14}", "workload", names[0], names[1], names[2]);
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:<26} {:>10.2} {:>14.2} {:>14.2}",
            row.name, row.normalized[0], row.normalized[1], row.normalized[2]
        );
    }
    let _ = writeln!(
        out,
        "\nselector accuracy  : {:.1}%  (paper: 92%)\n\
         max oracle speedup : {:.1}x  (paper: up to 15.8x)\n\nconfusion:\n{}",
        r.accuracy * 100.0,
        r.max_speedup,
        r.confusion.render(&["row-wise", "inner-prod", "outer-prod"])
    );
    out
}

/// §6.2: multi-tenant packing estimate.
pub fn d62() -> String {
    let mut out = String::from("§6.2 — multi-tenant packing on one U55C (fabric resources)\n\n");
    let _ = writeln!(out, "{:<14} {:>14} {:>12}", "Design", "max instances", "paper says");
    for (name, id, paper) in [
        ("Design 1", DesignId::D1, "1"),
        ("Design 2 / 3", DesignId::D2, "2"),
        ("Design 4", DesignId::D4, "2"),
    ] {
        let _ = writeln!(out, "{:<14} {:>14} {:>12}", name, resources::max_instances(id), paper);
    }
    out.push_str("\nmixed packings:\n");
    for combo in [
        vec![DesignId::D1, DesignId::D4],
        vec![DesignId::D2, DesignId::D2],
        vec![DesignId::D2, DesignId::D4],
        vec![DesignId::D1, DesignId::D2],
        vec![DesignId::D1, DesignId::D1],
    ] {
        let labels: Vec<String> = combo.iter().map(|d| format!("D{}", d.index() + 1)).collect();
        let _ =
            writeln!(out, "  {:<12} fits: {}", labels.join("+"), resources::packing_fits(&combo));
    }

    // Co-scheduling demo: two Design 4 tenants sharing the device.
    use misam_sim::tenancy::{self, Tenant};
    use misam_sim::Operand;
    use misam_sparse::gen;
    let a1 = gen::power_law(20_000, 20_000, 6.0, 1.4, 1);
    let b1 = gen::power_law(20_000, 20_000, 6.0, 1.4, 2);
    let a2 = gen::power_law(15_000, 15_000, 5.0, 1.5, 3);
    let b2 = gen::power_law(15_000, 15_000, 5.0, 1.5, 4);
    if let Ok(r) = tenancy::co_schedule(&[
        Tenant { a: &a1, b: Operand::Sparse(&b1), design: DesignId::D4 },
        Tenant { a: &a2, b: Operand::Sparse(&b2), design: DesignId::D4 },
    ]) {
        let _ = writeln!(
            out,
            "\nco-scheduling two D4 tenants (graph x graph workloads):\n  \
             sequential {:.3} ms, concurrent {:.3} ms -> {:.2}x throughput\n  \
             per-tenant HBM contention factors: {:?}",
            r.sequential_s * 1e3,
            r.concurrent_s * 1e3,
            r.speedup(),
            r.contention.iter().map(|c| (c * 100.0).round() / 100.0).collect::<Vec<_>>()
        );
    }
    out
}

/// Convenience: per-category counts of the suite (sanity header used by
/// several binaries).
pub fn suite_summary(scale: &ExperimentScale) -> String {
    let pts = experiments::fig01_sparsity_space(scale);
    let mut counts = std::collections::BTreeMap::new();
    for p in &pts {
        *counts.entry(p.category).or_insert(0usize) += 1;
    }
    let mut out = String::new();
    for c in Category::ALL {
        let _ = write!(out, "{}:{} ", c.label(), counts.get(&c).copied().unwrap_or(0));
    }
    out
}

/// §6.3 heterogeneous routing: Misam's selector retargeted to
/// CPU / GPU / FPGA device choice.
pub fn d63_hetero(scale: &ExperimentScale) -> String {
    let t = misam::hetero::train_router(scale.classifier_samples.max(200), scale.seed);
    let mut out = String::from("§6.3 — heterogeneous device routing (Misam / CPU / GPU)\n\n");
    let _ = writeln!(
        out,
        "routing accuracy      : {:.1}%\n\
         routed vs oracle time : {:.2}x (geomean; 1.0 = always optimal)\n\
         validation labels     : fpga {} / cpu {} / gpu {}\n\nconfusion:\n{}",
        t.accuracy * 100.0,
        t.routed_over_best,
        t.label_histogram[0],
        t.label_histogram[1],
        t.label_histogram[2],
        t.confusion.render(&["misam-fpga", "cpu", "gpu"])
    );
    out
}

/// Ablation: feature pruning (§5.5's four-feature deployed model).
pub fn ablation_features(corpora: &Corpora) -> String {
    let (ds, seed) = (corpora.classifier(), corpora.scale.seed);
    let rows = misam::ablation::feature_pruning(ds, seed);
    let mut out = String::from(
        "Ablation — selector accuracy vs feature-set size\n\
         (paper: the deployed model keeps only the top four features)\n\n",
    );
    let _ = writeln!(out, "{:<4} {:>10} {:>12}  kept features", "k", "accuracy", "model");
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<4} {:>9.1}% {:>10} B  {}",
            r.k,
            r.accuracy * 100.0,
            r.model_bytes,
            r.names.iter().take(4).copied().collect::<Vec<_>>().join(", ")
        );
    }
    out
}

/// Ablation: single tree vs random forest (§3.1's footprint argument).
pub fn ablation_models(corpora: &Corpora) -> String {
    let (ds, seed) = (corpora.classifier(), corpora.scale.seed);
    let m = misam::ablation::model_choice(ds, seed);
    let mut out = String::from("Ablation — decision tree vs random forest (the §3.1 trade)\n\n");
    let _ =
        writeln!(out, "{:<10} {:>10} {:>12} {:>14}", "model", "accuracy", "footprint", "inference");
    let _ = writeln!(
        out,
        "{:<10} {:>9.1}% {:>10} B {:>11.0} ns",
        "tree",
        m.tree_accuracy * 100.0,
        m.tree_bytes,
        m.tree_ns_per_inference
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9.1}% {:>10} B {:>11.0} ns",
        "forest",
        m.forest_accuracy * 100.0,
        m.forest_bytes,
        m.forest_ns_per_inference
    );
    let _ = writeln!(
        out,
        "\nfootprint ratio {:.0}x, inference ratio {:.0}x, accuracy delta {:+.1} pts",
        m.forest_bytes as f64 / m.tree_bytes as f64,
        m.forest_ns_per_inference / m.tree_ns_per_inference.max(1.0),
        (m.forest_accuracy - m.tree_accuracy) * 100.0
    );
    out
}

/// Ablation: switch-threshold sweep and reconfiguration-cost regimes
/// (§3.3, §6.1).
pub fn ablation_policy(scale: &ExperimentScale) -> String {
    let rows = ((3_000_000.0 * scale.hs_scale) as usize).max(2000);
    let mut out = String::from("Ablation — reconfiguration policy\n\n");
    out.push_str("switch-threshold sweep (U55C cost model):\n");
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>14} {:>10}",
        "policy", "switches", "total time", "vs oracle"
    );
    for o in misam::ablation::threshold_sweep(rows, scale.seed, &[0.05, 0.1, 0.2, 0.5, 1.0, 2.0]) {
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>12.3}s {:>9.2}x",
            o.label, o.reconfig_count, o.total_time_s, o.vs_oracle
        );
    }
    out.push_str("\ncost regimes at threshold 0.2 (§6.1 directions):\n");
    let _ = writeln!(
        out,
        "{:<26} {:>9} {:>14} {:>10}",
        "regime", "switches", "total time", "vs oracle"
    );
    for o in misam::ablation::cost_regimes(rows, scale.seed) {
        let _ = writeln!(
            out,
            "{:<26} {:>9} {:>12.3}s {:>9.2}x",
            o.label, o.reconfig_count, o.total_time_s, o.vs_oracle
        );
    }
    out
}

/// Ablation: the §3.1 latency/energy objective sweep.
pub fn ablation_objectives(corpora: &Corpora) -> String {
    let (ds, seed) = (corpora.classifier(), corpora.scale.seed);
    let rows = misam::ablation::objective_sweep(ds, seed, &[0.0, 0.25, 0.5, 0.75, 1.0]);
    let mut out =
        String::from("Ablation — objective blend (w = latency weight; 1.0 = pure speed)\n\n");
    let _ = writeln!(
        out,
        "{:<6} {:>26} {:>9} {:>10} {:>12}",
        "w", "labels D1/D2/D3/D4", "accuracy", "time cost", "energy save"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<6} {:>26} {:>8.1}% {:>9.2}x {:>11.2}x",
            r.latency_weight,
            format!("{}/{}/{}/{}", r.histogram[0], r.histogram[1], r.histogram[2], r.histogram[3]),
            r.accuracy * 100.0,
            r.time_cost,
            r.energy_saving
        );
    }
    out
}

/// Ablation: which simulator mechanism creates each design's niche.
pub fn ablation_mechanisms(scale: &ExperimentScale) -> String {
    let rows = misam::ablation::simulator_mechanisms(scale.classifier_samples.min(600), scale.seed);
    let mut out = String::from("Ablation — optimal-design histogram under modified simulators\n\n");
    let _ = writeln!(out, "{:<28} {:>6} {:>6} {:>6} {:>6}", "variant", "D1", "D2", "D3", "D4");
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>6} {:>6} {:>6}",
            r.label, r.histogram[0], r.histogram[1], r.histogram[2], r.histogram[3]
        );
    }
    out
}
