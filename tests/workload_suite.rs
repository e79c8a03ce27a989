//! The 116-workload evaluation suite end to end: category structure,
//! baseline comparisons (Figures 10/11 at reduced scale), and the
//! headline competitive shape of the paper's §5.3/§5.4.

use misam::experiments::{self, ExperimentScale};
use misam::workloads::{self, Category};

fn quick() -> ExperimentScale {
    ExperimentScale::quick()
}

#[test]
fn suite_composition_matches_table() {
    let ws = workloads::suite(0.01, 1);
    // 15 + 38 + 12 + 36 + 12 = 113 (the paper's text says 116, but its
    // per-category counts sum to 113; we follow the explicit counts).
    assert_eq!(ws.len(), 113);
    let count = |c: Category| ws.iter().filter(|w| w.category == c).count();
    assert_eq!(
        [
            count(Category::MsD),
            count(Category::MsMs),
            count(Category::HsD),
            count(Category::HsMs),
            count(Category::HsHs)
        ],
        [15, 38, 12, 36, 12]
    );
}

#[test]
fn fig10_fig11_shape_holds_at_small_scale() {
    let gains = experiments::fig10_fig11_gains(&experiments::Corpora::new(quick()));
    assert_eq!(gains.len(), 5);

    let get = |c: Category| gains.iter().find(|g| g.category == c).unwrap();

    // Paper §5.3 shape: Misam clearly beats the CPU on sparse-operand
    // categories (5.5x-20x at full scale).
    for c in [Category::HsHs, Category::HsMs, Category::MsMs] {
        let g = get(c);
        assert!(
            g.speedup_vs_cpu > 1.5,
            "{}: vs CPU {:.2} — Misam should win sparse categories",
            c,
            g.speedup_vs_cpu
        );
    }

    // GPUs excel at dense: the MSxD gap must be far smaller than the
    // CPU gap (the paper reports GPU wins there on energy).
    let msd = get(Category::MsD);
    assert!(msd.speedup_vs_gpu < msd.speedup_vs_cpu, "GPU should be the stronger dense baseline");

    // Energy (Figure 11): on HS categories Misam's FPGA power advantage
    // compounds the speedup against the 260 W GPU.
    for c in [Category::HsHs, Category::HsMs] {
        let g = get(c);
        assert!(
            g.energy_vs_gpu > g.speedup_vs_gpu,
            "{}: energy gain {:.2} should exceed speed gain {:.2} vs GPU",
            c,
            g.energy_vs_gpu,
            g.speedup_vs_gpu
        );
    }

    // Everything is a positive, finite ratio.
    for g in &gains {
        for v in [
            g.speedup_vs_cpu,
            g.speedup_vs_gpu,
            g.speedup_vs_trapezoid,
            g.energy_vs_cpu,
            g.energy_vs_gpu,
        ] {
            assert!(v.is_finite() && v > 0.0, "{}: bad ratio {v}", g.category);
        }
    }
}

#[test]
fn misam_is_competitive_with_trapezoid_where_it_matters() {
    let gains = experiments::fig10_fig11_gains(&experiments::Corpora::new(quick()));
    let hsms = gains.iter().find(|g| g.category == Category::HsMs).unwrap();
    let msms = gains.iter().find(|g| g.category == Category::MsMs).unwrap();
    // Paper: 3.23x on HSxMS, 1.01x on MSxMS — i.e., a clear win where
    // dataflow choice matters, parity where it doesn't. At reduced scale
    // we assert the ordering and competitiveness.
    assert!(hsms.speedup_vs_trapezoid > 0.8, "HSxMS vs Trapezoid {:.2}", hsms.speedup_vs_trapezoid);
    assert!(msms.speedup_vs_trapezoid > 0.3, "MSxMS vs Trapezoid {:.2}", msms.speedup_vs_trapezoid);
}

#[test]
fn fig01_matches_category_regions() {
    let pts = experiments::fig01_sparsity_space(&quick());
    for p in &pts {
        match p.category {
            Category::MsD => {
                assert!(p.b_density == 1.0 && p.a_density < 0.5, "{}", p.name)
            }
            Category::HsD => assert!(p.b_density == 1.0, "{}", p.name),
            Category::HsHs => {
                assert!(p.b_density < 0.5, "{}: b density {}", p.name, p.b_density)
            }
            _ => {}
        }
    }
}

#[test]
fn fig13_selector_ports_to_trapezoid() {
    let r = experiments::fig13_trapezoid(&quick());
    assert!(
        r.accuracy > 0.7,
        "Trapezoid dataflow selector accuracy {:.2} (paper: 0.92)",
        r.accuracy
    );
    assert!(r.max_speedup > 2.0, "max oracle speedup {:.2} (paper: up to 15.8x)", r.max_speedup);
    for row in &r.rows {
        let best = row.normalized.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((best - 1.0).abs() < 1e-9);
    }
}
