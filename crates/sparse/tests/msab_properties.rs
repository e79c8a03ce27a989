//! Property suite over random and mutated `.msab` bytes: whatever the
//! file holds, `SlabMatrix::open` — or, for what open leaves to it, the
//! first validating use (`SlabMatrix::verify`) — returns a typed
//! `SparseError`, never a panic. Three sources of bytes:
//!
//! - whole-file noise of any length;
//! - noise bodies of the exact length a valid, re-stamped header
//!   declares, with a consistent `row_ptr` half the time, so cases get
//!   past the length and pointer checks into the column checks;
//! - one byte of a valid slab flipped, with the header checksum
//!   re-stamped so the header parses. A flip in a byte the content
//!   digest covers must be refused by open or verify (FNV-1a absorbs
//!   the byte, and a one-byte change always moves it); a flip in the
//!   reserved header bytes or the column padding must open, verify and
//!   read back the original matrix.
//!
//! Slabs that open and verify are read back in full (`to_matrix` and
//! the digest), so the views they hand out are exercised too.

use misam_sparse::fnv::Fnv;
use misam_sparse::slab::{digest_of_view, write_slab, SlabMatrix};
use misam_sparse::{gen, CsrMatrix, SparseError};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const HEADER_LEN: usize = 64;

fn tmp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("misam_msab_prop_{tag}_{}.msab", std::process::id()))
}

/// Rewrites the header checksum (bytes 40..48) over bytes 0..40.
fn restamp(bytes: &mut [u8]) {
    let mut sum = Fnv::new();
    sum.write_bytes(&bytes[0..40]);
    bytes[40..48].copy_from_slice(&sum.finish().to_le_bytes());
}

/// A version-1 header for the given shape with a correct checksum.
fn header(rows: u64, cols: u64, nnz: u64, digest: u64) -> Vec<u8> {
    let mut h = vec![0u8; HEADER_LEN];
    h[0..4].copy_from_slice(b"MSAB");
    h[4..8].copy_from_slice(&1u32.to_le_bytes());
    h[8..16].copy_from_slice(&rows.to_le_bytes());
    h[16..24].copy_from_slice(&cols.to_le_bytes());
    h[24..32].copy_from_slice(&nnz.to_le_bytes());
    h[32..40].copy_from_slice(&digest.to_le_bytes());
    restamp(&mut h);
    h
}

/// Opens `bytes` as a slab and, if that succeeds, verifies it and reads
/// it back. Every refusal must be one of the slab's typed errors.
fn open_and_use(path: &Path, bytes: &[u8]) -> Result<CsrMatrix, SparseError> {
    std::fs::write(path, bytes).unwrap();
    let outcome = SlabMatrix::open(path).and_then(|slab| {
        slab.verify()?;
        assert_eq!(digest_of_view(slab.as_ref()), slab.content_digest());
        Ok(slab.to_matrix())
    });
    std::fs::remove_file(path).unwrap();
    if let Err(e) = &outcome {
        assert!(
            matches!(
                e,
                SparseError::Parse(_)
                    | SparseError::MalformedPointers(_)
                    | SparseError::MalformedIndices(_)
            ),
            "untyped refusal: {e:?}"
        );
    }
    outcome
}

/// A small valid slab image, drawn from `seed`: its matrix and bytes.
fn valid_slab(seed: u64, path: &Path) -> (CsrMatrix, Vec<u8>) {
    let rows = 1 + (seed % 23) as usize;
    let cols = 1 + ((seed >> 8) % 29) as usize;
    let density = [0.0, 0.05, 0.2, 0.6][((seed >> 16) % 4) as usize];
    let m = gen::uniform_random(rows, cols, density, seed);
    write_slab(path, &m).unwrap();
    (m, std::fs::read(path).unwrap())
}

/// Byte ranges a content-digest check cannot see: the reserved header
/// tail and the column section's zero padding.
fn unchecked(m: &CsrMatrix, pos: usize) -> bool {
    let col_off = HEADER_LEN + 8 * (m.rows() + 1);
    let pad = col_off + 4 * m.nnz()..col_off + (4 * m.nnz()).div_ceil(8) * 8;
    (48..HEADER_LEN).contains(&pos) || pad.contains(&pos)
}

#[test]
fn row_ptr_ending_off_nnz_is_a_pointer_error() {
    // Open once built its view before checking this invariant, and the
    // view's constructor asserts it: the flip below panicked in `open`.
    let path = tmp_file("row_ptr_end");
    let (m, mut bytes) = valid_slab(0x2_0b0b, &path);
    assert!(m.nnz() > 0);
    let last = HEADER_LEN + 8 * m.rows();
    bytes[last] ^= 1;
    match open_and_use(&path, &bytes) {
        Err(SparseError::MalformedPointers(msg)) => assert!(msg.contains("ends at"), "{msg}"),
        other => panic!("expected a pointer error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn noise_files_are_refused(bytes in proptest::collection::vec(0u8..=255, 0..600)) {
        let path = tmp_file("noise");
        prop_assert!(open_and_use(&path, &bytes).is_err());
    }

    #[test]
    fn noise_bodies_under_valid_headers_fail_typed(
        rows in 0usize..12,
        cols in 0usize..12,
        lens in proptest::collection::vec(0usize..5, 12),
        cols_in_range in 0u8..2,
        pointers_valid in 0u8..2,
        digest in 0u64..=u64::MAX,
        noise in proptest::collection::vec(0u8..=255, 0..1200),
    ) {
        let path = tmp_file("noise_body");
        let (cols_in_range, pointers_valid) = (cols_in_range == 1, pointers_valid == 1);
        let nnz: usize = lens[..rows].iter().sum();
        let mut bytes = header(rows as u64, cols as u64, nnz as u64, digest);
        let mut noise = noise.into_iter().cycle();
        let mut byte = || noise.next().unwrap_or(0);
        let mut at = 0usize;
        for r in 0..=rows {
            let word = if pointers_valid {
                let ptr = at as u64;
                at += lens.get(r).copied().unwrap_or(0);
                ptr
            } else {
                u64::from_le_bytes(std::array::from_fn(|_| byte()))
            };
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        for _ in 0..nnz {
            let c = u32::from_le_bytes(std::array::from_fn(|_| byte()));
            let c = if cols_in_range { c % (cols as u32).max(1) } else { c };
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        bytes.resize(bytes.len().div_ceil(8) * 8, 0);
        for _ in 0..nnz {
            bytes.extend_from_slice(&std::array::from_fn::<u8, 4, _>(|_| byte()));
        }
        // Typed or accepted; accepted only when the pointers were valid.
        if let Ok(m) = open_and_use(&path, &bytes) {
            prop_assert!(pointers_valid);
            prop_assert_eq!((m.rows(), m.cols(), m.nnz()), (rows, cols, nnz));
        }
    }

    #[test]
    fn single_byte_flips_are_caught_or_harmless(
        seed in 0u64..=u64::MAX,
        pos in 0usize..usize::MAX,
        flip in 1u8..=255,
    ) {
        let path = tmp_file("flip");
        let (m, good) = valid_slab(seed, &path);
        let pos = pos % good.len();
        let mut bytes = good.clone();
        bytes[pos] ^= flip;
        if !(40..48).contains(&pos) {
            restamp(&mut bytes);
        }
        match open_and_use(&path, &bytes) {
            Ok(back) => {
                prop_assert!(unchecked(&m, pos), "flip at byte {pos} of {} went unnoticed", good.len());
                prop_assert_eq!(back, m);
            }
            Err(e) => prop_assert!(!unchecked(&m, pos), "harmless flip at {pos} refused: {e}"),
        }
    }
}
