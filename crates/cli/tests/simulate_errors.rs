//! `misam simulate` loads its operands before it prints: an operand that
//! fails to load — a missing file, or a `.mtx` whose size line declares
//! more than `u32::MAX` rows — leaves stdout empty, exits 1, and reports
//! the reader's typed `SparseError` on stderr, on both the `--a` and the
//! `--matrix` branch. A slab whose row holds columns out of order is
//! refused at open the same way.

use misam_sparse::io::{read_matrix_market_file, write_matrix_market_file};
use misam_sparse::slab::{write_slab, SlabMatrix};
use misam_sparse::{gen, CsrMatrix, SparseError};
use std::path::{Path, PathBuf};
use std::process::Command;

const OVER_U32: &str = "%%MatrixMarket matrix coordinate real general\n4294967296 1 0\n";

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("misam_cli_sim_err_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `misam simulate ARGS` and checks it failed before printing: exit
/// code 1, nothing on stdout, and `expected` as the reported error.
fn assert_fails_before_printing(args: &[&Path], flags: &[&str], expected: &SparseError) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_misam"));
    cmd.arg("simulate");
    for (flag, path) in flags.iter().zip(args) {
        cmd.arg(flag).arg(path);
    }
    cmd.args(&flags[args.len()..]);
    let out = cmd.output().expect("run misam");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{flags:?} printed: {}", String::from_utf8_lossy(&out.stdout));
    let first = stderr.lines().next().unwrap_or_default();
    assert_eq!(first, format!("error: {expected}"), "{flags:?}");
}

#[test]
fn unloadable_operands_leave_stdout_empty() {
    let dir = tmp_dir();
    let (good_mtx, good_slab) = (dir.join("a.mtx"), dir.join("a.msab"));
    let a = gen::uniform_random(40, 40, 0.1, 3);
    write_matrix_market_file(&good_mtx, &a).unwrap();
    write_slab(&good_slab, &a).unwrap();
    let missing = dir.join("missing.mtx");
    let over = dir.join("over.mtx");
    std::fs::write(&over, OVER_U32).unwrap();

    let missing_err = read_matrix_market_file(&missing).unwrap_err();
    assert!(matches!(missing_err, SparseError::Io(_)));
    let over_err = read_matrix_market_file(&over).unwrap_err();
    assert!(matches!(over_err, SparseError::Parse(_)), "{over_err:?}");

    // The `--a` branch: a bad A, then a good A with a bad B.
    for (bad, err) in [(&missing, &missing_err), (&over, &over_err)] {
        assert_fails_before_printing(&[bad], &["--a", "--dense-cols", "8"], err);
        assert_fails_before_printing(&[&good_mtx, bad], &["--a", "--b"], err);
        // The `--matrix` branch with a bad B.
        assert_fails_before_printing(&[&good_slab, bad], &["--matrix", "--b"], err);
    }

    // The `--matrix` branch with a bad slab.
    let missing_slab = dir.join("missing.msab");
    let slab_err = SlabMatrix::open(&missing_slab).unwrap_err();
    assert_fails_before_printing(&[&missing_slab], &["--matrix", "--dense-cols", "8"], &slab_err);
    let not_a_slab = SlabMatrix::open(&over).unwrap_err();
    assert_fails_before_printing(&[&over], &["--matrix", "--dense-cols", "8"], &not_a_slab);

    // A slab whose row 0 holds columns 3, 1: the good 2x4 matrix with
    // its two column indices swapped (the column section follows the
    // 64-byte header and the three row pointers).
    let m = CsrMatrix::from_raw_parts(2, 4, vec![0, 2, 2], vec![1, 3], vec![1.0, 2.0]).unwrap();
    let unordered = dir.join("unordered.msab");
    write_slab(&unordered, &m).unwrap();
    let mut bytes = std::fs::read(&unordered).unwrap();
    bytes[88..96].copy_from_slice(&[3, 0, 0, 0, 1, 0, 0, 0]);
    std::fs::write(&unordered, &bytes).unwrap();
    let order_err = SlabMatrix::open(&unordered).unwrap_err();
    assert!(matches!(order_err, SparseError::MalformedIndices(_)), "{order_err:?}");
    assert_fails_before_printing(&[&unordered], &["--matrix", "--dense-cols", "8"], &order_err);

    // And the good operands print the table.
    let out = Command::new(env!("CARGO_BIN_EXE_misam"))
        .args(["simulate", "--matrix"])
        .arg(&good_slab)
        .args(["--dense-cols", "8"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 5, "header + 4 designs");
    std::fs::remove_dir_all(&dir).ok();
}
