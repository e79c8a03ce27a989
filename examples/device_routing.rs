//! Heterogeneous device routing (paper §6.3): the same classifier
//! machinery, retargeted to choose between the Misam FPGA system, an
//! MKL-class CPU, and a cuSPARSE-class GPU — "it correctly routes
//! workloads to the GPU when it consistently offers better performance."
//!
//! ```sh
//! cargo run --release --example device_routing
//! ```

use misam::hetero::{self, Device};
use misam_features::{PairFeatures, TileConfig};
use misam_sparse::gen;

fn main() {
    println!("training the device router on 1,500 random operand pairs…");
    let t = hetero::train_router(1500, 3);
    println!(
        "routing accuracy {:.1}%, routed-vs-oracle {:.2}x\n",
        t.accuracy * 100.0,
        t.routed_over_best
    );
    print!("{}", t.confusion.render(&["misam-fpga", "cpu", "gpu"]));

    // Route some characteristic workloads.
    let cfg = TileConfig::default();
    println!("\nrouting characteristic workloads:");

    let cases: Vec<(&str, PairFeatures)> = vec![
        ("hypersparse graph x graph (HSxHS)", {
            let a = gen::power_law(4000, 4000, 4.0, 1.4, 1);
            let b = gen::power_law(4000, 4000, 4.0, 1.4, 2);
            PairFeatures::extract(&a, &b, &cfg)
        }),
        ("dense x dense block (D-heavy)", {
            let a = gen::dense_lazy(512, 512, 3);
            PairFeatures::extract_dense_b(&a, 512, 512, &cfg)
        }),
        ("pruned weights x activations (MSxD)", {
            let a = gen::pruned_dnn_lazy(512, 1024, 0.15, 4);
            PairFeatures::extract_dense_b(&a, 1024, 512, &cfg)
        }),
    ];

    for (name, f) in cases {
        let device = t.router.route(&f.to_vector());
        println!("  {name:<38} -> {device}");
    }

    println!(
        "\n(labels seen in validation: fpga {} / cpu {} / gpu {})",
        t.label_histogram[Device::MisamFpga.index()],
        t.label_histogram[Device::Cpu.index()],
        t.label_histogram[Device::Gpu.index()]
    );
}
