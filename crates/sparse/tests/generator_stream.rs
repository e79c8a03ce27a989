//! Pins the seeded output of every structure stage: FNV-1a digests of
//! each `*_lazy` family's run starts, run lengths and value seed, over
//! shapes that reach every `Binomial` regime (constant, CDF table,
//! flipped table, normal approximation and the flipped normal), the
//! edge rows of `banded`, the `rmat` descent, `imbalanced_rows`' stride
//! wrap, `power_law` at three exponents on both sides of its 2^16-row
//! weight table, and the named `FAMILIES` at the served shape mix.
//!
//! `structure_equivalence.rs` checks that a structure and its
//! materialization agree; it stays green when the draws themselves
//! move. This file does not: any change to how many uniforms a stage
//! consumes, or to what it makes of them, changes a digest here. The
//! expected values were recorded from the generators as they stood
//! before their fast paths landed, and must never be regenerated to
//! make a change pass.

use misam_sparse::gen;
use misam_sparse::structure::Structure;
use misam_sparse::LazyMatrix;

/// Seeds every case is drawn at; folded into one digest per case.
const SEEDS: [u64; 3] = [0, 7, 0xdead_beef_cafe_f00d];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn absorb(h: &mut Fnv, lazy: &LazyMatrix) {
    h.u64(lazy.rows() as u64);
    h.u64(lazy.cols() as u64);
    match lazy.structure() {
        Structure::Runs(rr) => {
            for &s in rr.starts() {
                h.bytes(&s.to_le_bytes());
            }
            for &l in rr.lens() {
                h.bytes(&l.to_le_bytes());
            }
        }
        mesh => h.u64(mesh.nnz() as u64),
    }
    h.u64(lazy.value_seed());
}

/// One digest per case, folded over [`SEEDS`].
fn digest(build: impl Fn(u64) -> LazyMatrix) -> u64 {
    let mut h = Fnv::new();
    for seed in SEEDS {
        absorb(&mut h, &build(seed));
    }
    h.0
}

fn actual() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    let mut case = |name: String, d: u64| out.push((name, d));

    // (rows, cols, density): Table, Table at the n·p = 32 edge, Normal,
    // flipped Table, flipped Normal, and both constants.
    for (r, c, d) in [
        (1000, 1000, 0.001),
        (3000, 3000, 0.01),
        (4000, 4000, 0.008),
        (8000, 8000, 0.03),
        (2000, 40, 0.9),
        (1500, 1000, 0.7),
        (50, 64, 0.0),
        (50, 64, 1.0),
    ] {
        case(format!("uniform {r}x{c} d={d}"), digest(|s| gen::uniform_random_lazy(r, c, d, s)));
    }

    // Both sides of the 2^16-row Zipf table, at the served exponent and
    // two others.
    for alpha in [1.2, 1.5, 1.8] {
        for (r, c, avg) in [
            (1000, 1000, 1.0),
            (4096, 4096, 14.0),
            (8000, 8000, 240.0),
            (65_536, 2000, 3.0),
            (65_537, 2000, 3.0),
            (70_000, 5000, 2.5),
        ] {
            case(
                format!("power_law {r}x{c} avg={avg} alpha={alpha}"),
                digest(|s| gen::power_law_lazy(r, c, avg, alpha, s)),
            );
        }
    }

    for (r, c, nnz, probs) in [
        (1024, 1024, 16_000, (0.57, 0.19, 0.19, 0.05)),
        (4096, 4096, 60_000, (0.57, 0.19, 0.19, 0.05)),
        (2048, 2048, 6000, (0.25, 0.25, 0.25, 0.25)),
        (300, 5000, 200_000, (0.45, 0.15, 0.3, 0.1)),
    ] {
        case(format!("rmat {r}x{c} nnz={nnz}"), digest(|s| gen::rmat_lazy(r, c, nnz, probs, s)));
    }

    // Interior window in the Table and the Normal regime; edge rows
    // through the one-shot sampler in both.
    for (r, c, bw, fill) in [
        (4096, 4096, 48, 0.7),
        (4096, 4096, 120, 0.7),
        (2000, 2000, 40, 0.2),
        (64, 64, 3, 0.8),
        (8, 64, 2, 0.5),
    ] {
        case(
            format!("banded {r}x{c} bw={bw} fill={fill}"),
            digest(|s| gen::banded_lazy(r, c, bw, fill, s)),
        );
    }

    for (r, c, off, dense) in
        [(4096, 4096, 4.0, 16), (8000, 8000, 240.0, 31), (200, 200, 3.0, 4), (300, 100, 2.0, 2)]
    {
        case(
            format!("circuit {r}x{c} off={off} rails={dense}"),
            digest(|s| gen::circuit_lazy(r, c, off, dense, s)),
        );
    }

    for (r, c, deg) in [(4096, 4096, 16), (1000, 1000, 1), (8000, 8000, 240), (10, 3, 2), (5, 4, 4)]
    {
        case(
            format!("regular {r}x{c} deg={deg}"),
            digest(|s| gen::regular_degree_lazy(r, c, deg, s)),
        );
    }

    for (r, c, d) in [(1024, 1024, 0.2), (1000, 1001, 0.03), (4000, 4000, 0.001), (64, 6, 0.5)] {
        case(format!("pruned_dnn {r}x{c} d={d}"), digest(|s| gen::pruned_dnn_lazy(r, c, d, s)));
    }

    case("dense 8x8".into(), digest(|s| gen::dense_lazy(8, 8, s)));

    for (r, c, frac, heavy, light) in
        [(4096, 4096, 0.04, 512, 4), (100, 1000, 0.05, 200, 5), (1000, 1000, 0.3, 50, 2)]
    {
        case(
            format!("imbalanced {r}x{c} frac={frac}"),
            digest(|s| gen::imbalanced_rows_lazy(r, c, frac, heavy, light, s)),
        );
    }

    case("mesh2d 64x48".into(), digest(|_| gen::mesh2d_lazy(64, 48)));
    case("mesh3d 9x8x7".into(), digest(|_| gen::mesh3d_lazy(9, 8, 7)));

    // The named families at the corners and middle of the served mix.
    for (name, build) in gen::FAMILIES {
        for rows in [1000, 2900, 8000] {
            for density in [1e-3, 5e-3, 3e-2] {
                case(
                    format!("family {name} {rows} d={density}"),
                    digest(|s| build(rows, rows, density, s)),
                );
            }
        }
    }
    out
}

const EXPECTED: &[(&str, u64)] = &[
    ("uniform 1000x1000 d=0.001", 0xe59f51a183c62731),
    ("uniform 3000x3000 d=0.01", 0x52c911588a51e54d),
    ("uniform 4000x4000 d=0.008", 0xe5b77d259ce2c4a2),
    ("uniform 8000x8000 d=0.03", 0x0cda857334cb85fa),
    ("uniform 2000x40 d=0.9", 0x2966498972b79b66),
    ("uniform 1500x1000 d=0.7", 0xe27d65e1eeda1adf),
    ("uniform 50x64 d=0", 0x6e577a0cccae3d3c),
    ("uniform 50x64 d=1", 0xb983883bba075726),
    ("power_law 1000x1000 avg=1 alpha=1.2", 0xede7a599d588b76b),
    ("power_law 4096x4096 avg=14 alpha=1.2", 0x34415e881de1a2ba),
    ("power_law 8000x8000 avg=240 alpha=1.2", 0x75d59e2bbe7377f9),
    ("power_law 65536x2000 avg=3 alpha=1.2", 0x1ef01c0b2a4b7a45),
    ("power_law 65537x2000 avg=3 alpha=1.2", 0x96384be62023db8d),
    ("power_law 70000x5000 avg=2.5 alpha=1.2", 0xf34a54b3eae508bb),
    ("power_law 1000x1000 avg=1 alpha=1.5", 0xf2e1f1599f5f8d10),
    ("power_law 4096x4096 avg=14 alpha=1.5", 0x694b5ae9d102ffa6),
    ("power_law 8000x8000 avg=240 alpha=1.5", 0x0dca2dff5d0959a9),
    ("power_law 65536x2000 avg=3 alpha=1.5", 0x778dcedc6769ad1f),
    ("power_law 65537x2000 avg=3 alpha=1.5", 0x20475394b69aafc8),
    ("power_law 70000x5000 avg=2.5 alpha=1.5", 0xa481aa228a39de35),
    ("power_law 1000x1000 avg=1 alpha=1.8", 0xe172ad39f63e0fc7),
    ("power_law 4096x4096 avg=14 alpha=1.8", 0x2ef45e529d92bf73),
    ("power_law 8000x8000 avg=240 alpha=1.8", 0xf7afdc4528e7e4ee),
    ("power_law 65536x2000 avg=3 alpha=1.8", 0x07276ba4f0fe7793),
    ("power_law 65537x2000 avg=3 alpha=1.8", 0x1ba0b43f3e852c28),
    ("power_law 70000x5000 avg=2.5 alpha=1.8", 0xc2437425c9f2959b),
    ("rmat 1024x1024 nnz=16000", 0xdfb2635e837bdf2c),
    ("rmat 4096x4096 nnz=60000", 0x9afc39d237810525),
    ("rmat 2048x2048 nnz=6000", 0xc51213fddeff4e56),
    ("rmat 300x5000 nnz=200000", 0xd9fa01f9f8a4af30),
    ("banded 4096x4096 bw=48 fill=0.7", 0x5a9263a82990a01a),
    ("banded 4096x4096 bw=120 fill=0.7", 0xd7f86dd36a417ab7),
    ("banded 2000x2000 bw=40 fill=0.2", 0x8b9b361895590a55),
    ("banded 64x64 bw=3 fill=0.8", 0xce0fad46e27ba258),
    ("banded 8x64 bw=2 fill=0.5", 0xbea5d533f3c46f03),
    ("circuit 4096x4096 off=4 rails=16", 0x349aad672f18931b),
    ("circuit 8000x8000 off=240 rails=31", 0x242b24035e106ce4),
    ("circuit 200x200 off=3 rails=4", 0xe3f23cd90cad8fbb),
    ("circuit 300x100 off=2 rails=2", 0x4bab5be5551f3068),
    ("regular 4096x4096 deg=16", 0x41ddc9d6a77fef8c),
    ("regular 1000x1000 deg=1", 0xbf4248667635abe8),
    ("regular 8000x8000 deg=240", 0x99cc53e2ca4cd9d8),
    ("regular 10x3 deg=2", 0xa82012a9ef1cc0b0),
    ("regular 5x4 deg=4", 0xcd2bc0d75b152d88),
    ("pruned_dnn 1024x1024 d=0.2", 0xa65dd53e26f50aee),
    ("pruned_dnn 1000x1001 d=0.03", 0x28708b46db61ff96),
    ("pruned_dnn 4000x4000 d=0.001", 0x59a0be38aff56a4f),
    ("pruned_dnn 64x6 d=0.5", 0xecb2f3fc57fd8671),
    ("dense 8x8", 0xcbd2a7b912d34978),
    ("imbalanced 4096x4096 frac=0.04", 0x43248dc152eec59a),
    ("imbalanced 100x1000 frac=0.05", 0xb1d0fddb76071cac),
    ("imbalanced 1000x1000 frac=0.3", 0x758165093b540cec),
    ("mesh2d 64x48", 0x033c7c7e4a54d9ec),
    ("mesh3d 9x8x7", 0x6735c7ed931c585b),
    ("family uniform 1000 d=0.001", 0xe59f51a183c62731),
    ("family uniform 1000 d=0.005", 0xe2f74ca8fb4ee98c),
    ("family uniform 1000 d=0.03", 0x3ff9f4acdd849ea8),
    ("family uniform 2900 d=0.001", 0x33c09a8b8b7b5b8d),
    ("family uniform 2900 d=0.005", 0x50ef53bafda6a14c),
    ("family uniform 2900 d=0.03", 0x22cdb35f2ab03780),
    ("family uniform 8000 d=0.001", 0x114f2850c38bd5be),
    ("family uniform 8000 d=0.005", 0x8233a2577768eb73),
    ("family uniform 8000 d=0.03", 0x0cda857334cb85fa),
    ("family power-law 1000 d=0.001", 0xf2e1f1599f5f8d10),
    ("family power-law 1000 d=0.005", 0xb63be39f373f166e),
    ("family power-law 1000 d=0.03", 0xa453d3b32b368c1e),
    ("family power-law 2900 d=0.001", 0x5b1ce79bd6ac40e0),
    ("family power-law 2900 d=0.005", 0x4046dfa7c4d92de6),
    ("family power-law 2900 d=0.03", 0xea698dd347c11962),
    ("family power-law 8000 d=0.001", 0xa246f02b2421ab5b),
    ("family power-law 8000 d=0.005", 0x451aaa87ae391daa),
    ("family power-law 8000 d=0.03", 0x0dca2dff5d0959a9),
    ("family banded 1000 d=0.001", 0x2e3b44652eacd79a),
    ("family banded 1000 d=0.005", 0xc6485652b8ad013a),
    ("family banded 1000 d=0.03", 0x961867ef09e694c8),
    ("family banded 2900 d=0.001", 0xf8b36e8b01de30b6),
    ("family banded 2900 d=0.005", 0x885361f7de497444),
    ("family banded 2900 d=0.03", 0xaef3fa07c8daf98b),
    ("family banded 8000 d=0.001", 0xd5da625b4540b4b7),
    ("family banded 8000 d=0.005", 0x72c4a266ecd358dc),
    ("family banded 8000 d=0.03", 0x48e682b3d5550b45),
    ("family pruned-dnn 1000 d=0.001", 0xa88e585cf4569c4d),
    ("family pruned-dnn 1000 d=0.005", 0x917e213087c95e33),
    ("family pruned-dnn 1000 d=0.03", 0xb6e6a81496df7e33),
    ("family pruned-dnn 2900 d=0.001", 0xf3c648a1e048922b),
    ("family pruned-dnn 2900 d=0.005", 0xb38472d48c2b1feb),
    ("family pruned-dnn 2900 d=0.03", 0x4fb7acd465d589eb),
    ("family pruned-dnn 8000 d=0.001", 0xe7af620f310f9fd9),
    ("family pruned-dnn 8000 d=0.005", 0xc928890494386fd9),
    ("family pruned-dnn 8000 d=0.03", 0x4f6894763c2af3d9),
    ("family regular 1000 d=0.001", 0xbf4248667635abe8),
    ("family regular 1000 d=0.005", 0x28767489f69621eb),
    ("family regular 1000 d=0.03", 0xb5d112d00651ab41),
    ("family regular 2900 d=0.001", 0xa8df6f1f6b35d15f),
    ("family regular 2900 d=0.005", 0xeedd86b64901cf77),
    ("family regular 2900 d=0.03", 0x96c0a828c25d54e4),
    ("family regular 8000 d=0.001", 0xa37b1827a5e5a15e),
    ("family regular 8000 d=0.005", 0xd2774c2464e682be),
    ("family regular 8000 d=0.03", 0x99cc53e2ca4cd9d8),
    ("family circuit 1000 d=0.001", 0x2c803f40282efda9),
    ("family circuit 1000 d=0.005", 0xb3476b31c0a99e1a),
    ("family circuit 1000 d=0.03", 0xd3b9ee2d0f1f7af2),
    ("family circuit 2900 d=0.001", 0x9f182543e75fe485),
    ("family circuit 2900 d=0.005", 0xc48c957677dd206c),
    ("family circuit 2900 d=0.03", 0x46564d54dbbef251),
    ("family circuit 8000 d=0.001", 0xc7524d3e517a3de8),
    ("family circuit 8000 d=0.005", 0x97953df9846b0533),
    ("family circuit 8000 d=0.03", 0x242b24035e106ce4),
];

#[test]
fn structure_stage_streams_are_pinned() {
    let got = actual();
    let listing: String = got.iter().map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n")).collect();
    assert_eq!(got.len(), EXPECTED.len(), "case list changed; actual digests:\n{listing}");
    let moved: Vec<String> = got
        .iter()
        .zip(EXPECTED)
        .filter(|((n, d), (en, ed))| n != en || d != ed)
        .map(|((n, d), (en, ed))| format!("{n}: {d:#018x}, pinned {en}: {ed:#018x}"))
        .collect();
    assert!(moved.is_empty(), "generator streams moved:\n{}", moved.join("\n"));
}
