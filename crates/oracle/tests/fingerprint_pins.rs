//! Pins the values of the structural cache keys: `of_structure`,
//! `of_lazy` and `of_lazy_pair` (with a dense and with a sparse B) for
//! every named generator family, `rmat`, both meshes and a structure
//! with empty rows, at fixed seeds.
//!
//! These keys index the profile store and the oracle's report cache,
//! and persisted corpora carry labels computed under them. A change to
//! how a key is computed (where the digest lives, whether it is
//! memoized, how it is folded) must leave every value here unchanged.
//! The expected values were recorded before the lazy digest memo
//! landed, and must never be regenerated to make a change pass.

use misam_oracle::Fingerprint;
use misam_sparse::structure::Structure;
use misam_sparse::{gen, LazyMatrix, LazyOperand};

/// The four key values pinned for one operand `a`: its structure, the
/// lazy matrix, a pair with a dense B and a pair with a sparse B (a
/// fresh draw of the same family at the next seed).
fn keys(a: &LazyMatrix, b: &LazyMatrix) -> [u64; 4] {
    [
        Fingerprint::of_structure(a.structure()).0,
        Fingerprint::of_lazy(a).0,
        Fingerprint::of_lazy_pair(a, LazyOperand::Dense { rows: a.cols(), cols: 64 }).0,
        Fingerprint::of_lazy_pair(a, LazyOperand::Sparse(b)).0,
    ]
}

fn actual() -> Vec<(String, [u64; 4])> {
    let mut out = Vec::new();
    for (name, build) in gen::FAMILIES {
        for (rows, density, seed) in [(1000, 5e-3, 3), (2900, 1e-3, 11), (700, 3e-2, 0xfeed)] {
            let a = build(rows, rows, density, seed);
            let b = build(rows, rows / 2 + 1, density, seed + 1);
            out.push((format!("family {name} {rows} d={density} s={seed}"), keys(&a, &b)));
        }
    }
    let probs = (0.57, 0.19, 0.19, 0.05);
    let a = gen::rmat_lazy(1024, 1024, 16_000, probs, 7);
    let b = gen::rmat_lazy(1024, 512, 6000, probs, 8);
    out.push(("rmat 1024x1024 nnz=16000".into(), keys(&a, &b)));
    let a = gen::mesh2d_lazy(64, 48);
    let b = gen::mesh2d_lazy(48, 64);
    out.push(("mesh2d 64x48".into(), keys(&a, &b)));
    let a = gen::mesh3d_lazy(9, 8, 7);
    let b = gen::mesh3d_lazy(7, 8, 9);
    out.push(("mesh3d 9x8x7".into(), keys(&a, &b)));
    // Rows 1, 3 and 4 are empty; row 2 wraps past the last column.
    let runs = Structure::runs(5, 8, vec![1, 0, 6, 0, 0], vec![3, 0, 4, 0, 0]);
    let a = LazyMatrix::new(runs, 0x1234);
    let b = LazyMatrix::new(Structure::empty(8, 3), 0x5678);
    out.push(("runs 5x8 with empty rows".into(), keys(&a, &b)));
    out
}

const EXPECTED: &[(&str, [u64; 4])] = &[
    (
        "family uniform 1000 d=0.005 s=3",
        [0x14b8680e7f502771, 0x485b3ffb30214212, 0xbc541045bfd0fbc6, 0x1a9c1ed41bdd3513],
    ),
    (
        "family uniform 2900 d=0.001 s=11",
        [0xe8f038e40c234227, 0xe0a45a56c9663347, 0x49f622a607edc2d1, 0x73a4093f1dd89ae8],
    ),
    (
        "family uniform 700 d=0.03 s=65261",
        [0x87a8ca8ca8c41cd6, 0xdbad73f5e8616724, 0x4328e55735c269ba, 0x7aabd23d2a4590ad],
    ),
    (
        "family power-law 1000 d=0.005 s=3",
        [0x532465d80a3618b3, 0x202a0c7e3f93d12b, 0x49c72af4c9338b58, 0xa821fb4de9aa5b7e],
    ),
    (
        "family power-law 2900 d=0.001 s=11",
        [0x145c76f49b3e59c2, 0xec1fe5de57654d0a, 0xc3d6e52422f886a5, 0x31850c437b8f468c],
    ),
    (
        "family power-law 700 d=0.03 s=65261",
        [0xf6b0f8f9ef1fd021, 0xfc41dec43d2ac622, 0x1685ec27e25f7618, 0x1c459f4ffefcbf7a],
    ),
    (
        "family banded 1000 d=0.005 s=3",
        [0x4dc2a90092f330bc, 0xf59dccbf93d6c668, 0xc3905724b981b17a, 0xc946133027ff7b37],
    ),
    (
        "family banded 2900 d=0.001 s=11",
        [0x06b53ff7f99628e0, 0x4b4fbcfe918ded17, 0x253ac30da6124720, 0x6c6838fe6e3db094],
    ),
    (
        "family banded 700 d=0.03 s=65261",
        [0x788902b0657350b1, 0x91b7f9e334bc00f9, 0xc93a4227edae9d33, 0x23eaac1ad6a7baf3],
    ),
    (
        "family pruned-dnn 1000 d=0.005 s=3",
        [0x51c5a0a1e1fb5a03, 0x8b80c3dde7720bbc, 0x043052ee545f72bd, 0x243600d636977a53],
    ),
    (
        "family pruned-dnn 2900 d=0.001 s=11",
        [0x2154339d44b26113, 0x0824014321645037, 0xa3fe62d17430f922, 0xcecbfa893d36206d],
    ),
    (
        "family pruned-dnn 700 d=0.03 s=65261",
        [0xc13caf5bb55cdc15, 0xc3c19cdca039dc91, 0x02316c8715ebb2ce, 0xc6b0ad397814d6b0],
    ),
    (
        "family regular 1000 d=0.005 s=3",
        [0x0e920a45bcf80c1d, 0xf6aba1b461212fa7, 0xb3b208050e741878, 0xf9d6c32049b9bba1],
    ),
    (
        "family regular 2900 d=0.001 s=11",
        [0xcefd0f525fe9589c, 0x2bdc00dc1b93d2c1, 0x5579ab75f2bf1cda, 0x106ef69a1e9a50c3],
    ),
    (
        "family regular 700 d=0.03 s=65261",
        [0x8f122bb0e1dab5e2, 0x3489a58378ef76e7, 0x9f1bee23e2c1ee65, 0x67ab08e5f95761a5],
    ),
    (
        "family circuit 1000 d=0.005 s=3",
        [0x0edfa0e2237333a9, 0xfa840c18c0f415c1, 0x31ae73be49d87e96, 0x2bd49292c37012af],
    ),
    (
        "family circuit 2900 d=0.001 s=11",
        [0x5845a824bb09a56d, 0x240587dddd9b96ff, 0x8a961d2d19af5afe, 0x72bc5faf16bf2dc1],
    ),
    (
        "family circuit 700 d=0.03 s=65261",
        [0x36d18aba86b86efe, 0x6799581706681819, 0x6526eed9925321fa, 0x7f4e0117c6b62849],
    ),
    (
        "rmat 1024x1024 nnz=16000",
        [0x4100feef8e8ecafe, 0x1e8d953010638a54, 0x7d75ad165a9a5721, 0x9f792b31370bb245],
    ),
    (
        "mesh2d 64x48",
        [0x0d89c7f7e3c020f1, 0xf4d86a397e9bb8d1, 0xf41c79bb87a48a08, 0xf74009ca1fd2d21b],
    ),
    (
        "mesh3d 9x8x7",
        [0x84722ee218c52c76, 0xca131f55ed036d84, 0x70041ee8ff3628d8, 0x7cd98e37bcc2ba97],
    ),
    (
        "runs 5x8 with empty rows",
        [0xc8db76c0dc23beef, 0x824f205fc1257660, 0xd34498484118b82d, 0x9feb2a97a0b7211f],
    ),
];

#[test]
fn structural_cache_keys_are_pinned() {
    let got = actual();
    let listing: String = got
        .iter()
        .map(|(n, k)| {
            format!(
                "    (\"{n}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                k[0], k[1], k[2], k[3]
            )
        })
        .collect();
    assert_eq!(got.len(), EXPECTED.len(), "case list changed; actual keys:\n{listing}");
    let moved: Vec<String> = got
        .iter()
        .zip(EXPECTED)
        .filter(|((n, k), (en, ek))| n != en || k != ek)
        .map(|((n, k), (en, ek))| format!("{n}: {k:x?}, pinned {en}: {ek:x?}"))
        .collect();
    assert!(moved.is_empty(), "fingerprint keys moved:\n{}", moved.join("\n"));
}
