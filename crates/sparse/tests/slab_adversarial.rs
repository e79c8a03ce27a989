//! Hostile `.msab` files: every malformed slab must come back from
//! `SlabMatrix::open` as a typed error, never a panic, an overflow or
//! an out-of-bounds view. Covers the zero-length file, a file cut at
//! every section boundary (and one byte either side), and headers with
//! a valid checksum whose declared sections run past the end of the
//! file, including sizes that overflow the offset arithmetic, and a
//! row whose columns are out of order.
//!
//! Tests build in debug by default, where integer overflow panics, so
//! a header that could wrap the layout arithmetic fails loudly here.

use misam_sparse::fnv::Fnv;
use misam_sparse::slab::{write_slab, SlabMatrix};
use misam_sparse::{gen, SparseError};
use std::path::{Path, PathBuf};

const HEADER_LEN: usize = 64;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("misam_slab_adv_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A version-1 header with the given fields and a correct checksum,
/// laid out as documented in `misam_sparse::slab`.
fn header(rows: u64, cols: u64, nnz: u64, digest: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(b"MSAB");
    h[4..8].copy_from_slice(&1u32.to_le_bytes());
    h[8..16].copy_from_slice(&rows.to_le_bytes());
    h[16..24].copy_from_slice(&cols.to_le_bytes());
    h[24..32].copy_from_slice(&nnz.to_le_bytes());
    h[32..40].copy_from_slice(&digest.to_le_bytes());
    let mut sum = Fnv::new();
    sum.write_bytes(&h[0..40]);
    h[40..48].copy_from_slice(&sum.finish().to_le_bytes());
    h
}

fn open_bytes(path: &Path, bytes: &[u8]) -> Result<SlabMatrix, SparseError> {
    std::fs::write(path, bytes).unwrap();
    SlabMatrix::open(path)
}

fn assert_parse_error(path: &Path, bytes: &[u8], ctx: &str) {
    match open_bytes(path, bytes) {
        Err(SparseError::Parse(_)) => {}
        Err(other) => panic!("{ctx}: expected a parse error, got {other:?}"),
        Ok(_) => panic!("{ctx}: opened a malformed slab"),
    }
}

#[test]
fn zero_length_file_is_a_parse_error() {
    let dir = tmp_dir("empty");
    assert_parse_error(&dir.join("z.msab"), &[], "zero-length file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_every_section_boundary_is_a_parse_error() {
    let dir = tmp_dir("truncated");
    let path = dir.join("t.msab");
    // nnz odd, so the column section carries 4 bytes of padding.
    let m = gen::uniform_random(9, 11, 0.3, 5);
    assert_eq!(m.nnz() % 2, 1, "want a padded column section");
    write_slab(&path, &m).unwrap();
    let good = std::fs::read(&path).unwrap();

    let (rows, nnz) = (m.rows(), m.nnz());
    let col_off = HEADER_LEN + 8 * (rows + 1);
    let val_off = col_off + (4 * nnz).div_ceil(8) * 8;
    assert_eq!(good.len(), val_off + 4 * nnz, "layout as documented");
    let mut cuts = vec![0, 1, 4, 8, 40, 48];
    for boundary in [HEADER_LEN, col_off, col_off + 4 * nnz, val_off, good.len()] {
        cuts.extend([boundary - 1, boundary]);
    }
    cuts.retain(|&c| c < good.len());
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        assert_parse_error(&path, &good[..cut], &format!("cut at byte {cut}"));
    }
    // One byte too many is rejected as well.
    let mut long = good.clone();
    long.push(0);
    assert_parse_error(&path, &long, "trailing byte");
    // And the untouched file still opens.
    assert!(open_bytes(&path, &good).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn headers_declaring_sections_past_eof_are_parse_errors() {
    let dir = tmp_dir("past_eof");
    let path = dir.join("h.msab");
    let m = gen::uniform_random(6, 6, 0.4, 2);
    write_slab(&path, &m).unwrap();
    let good = std::fs::read(&path).unwrap();
    let body = &good[HEADER_LEN..];
    let (rows, cols, nnz) = (m.rows() as u64, m.cols() as u64, m.nnz() as u64);

    let cases: [(&str, u64, u64); 10] = [
        ("one more row", rows + 1, nnz),
        ("one more nonzero", rows, nnz + 1),
        ("a million rows", 1 << 20, nnz),
        ("rows + 1 overflows", u64::MAX, nnz),
        ("8 * (rows + 1) overflows", u64::MAX / 8, nnz),
        ("row section ends past usize", u64::MAX / 8 - 8, nnz),
        ("4 * nnz overflows", rows, u64::MAX / 2),
        ("padding overflows", rows, u64::MAX / 4),
        ("value section ends past usize", rows, u64::MAX / 8),
        ("both huge", u64::MAX / 16, u64::MAX / 16),
    ];
    for (ctx, r, n) in cases {
        let mut bytes = header(r, cols, n, 0).to_vec();
        bytes.extend_from_slice(body);
        assert_parse_error(&path, &bytes, ctx);
    }
    // A bare header declaring a non-empty matrix.
    assert_parse_error(&path, &header(3, 3, 2, 0), "header only");
    // The crafted header is accepted when it tells the truth, so the
    // cases above fail on their sizes, not on the checksum.
    let digest = open_bytes(&path, &good).unwrap().content_digest();
    let mut honest = header(rows, cols, nnz, digest).to_vec();
    honest.extend_from_slice(body);
    let reopened = open_bytes(&path, &honest).expect("honest header opens");
    reopened.verify().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn columns_out_of_order_are_refused_at_open() {
    let dir = tmp_dir("order");
    let path = dir.join("o.msab");
    // A hand-built 2x4 slab whose row 0 holds columns 3, 1 and row 1
    // nothing: every column is in bounds, so only the order check can
    // refuse it (a view over it would not be a CSR matrix).
    let mut bytes = header(2, 4, 2, 0).to_vec();
    for p in [0u64, 2, 2] {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    for c in [3u32, 1] {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    for v in [1.0f32, 2.0] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    match open_bytes(&path, &bytes) {
        Err(SparseError::MalformedIndices(msg)) => assert!(msg.contains("row 0"), "{msg}"),
        Err(other) => panic!("expected an index error, got {other:?}"),
        Ok(_) => panic!("opened a slab with columns out of order"),
    }
    // In order, the same bytes open and read back.
    bytes[HEADER_LEN + 24..HEADER_LEN + 32].copy_from_slice(&[1, 0, 0, 0, 3, 0, 0, 0]);
    let slab = open_bytes(&path, &bytes).expect("ordered columns open");
    assert_eq!(slab.to_matrix().col_idx(), &[1, 3]);
    std::fs::remove_dir_all(&dir).ok();
}
