//! Hostile `.mtx` files: whatever the bytes, `read_matrix_market` and
//! the slab ingester (`ingest_matrix_market_with_budget`) return a
//! valid matrix or a typed `SparseError`, never a panic.
//!
//! Valid files are drawn from a seed (every value type and symmetry,
//! comments, blank lines, shapes up to 4096 × 4096), then mutated:
//! truncated at a line or a byte, a token deleted, swapped or replaced
//! by a hostile one (zero, negative, out-of-range and over-`u32`
//! indices, non-numbers), a bad banner or symmetry word, a wrong entry
//! count, a duplicated entry. When both readers accept a file they must
//! agree bit for bit; the only file the owned reader accepts and the
//! ingester may refuse is one with a duplicate coordinate, which the
//! first sums and the second rejects.
//!
//! Sizes declared above `u32::MAX` are fixed cases: they must fail on
//! the size line, before either reader allocates anything.

use misam_sparse::io::read_matrix_market;
use misam_sparse::slab::{ingest_matrix_market_with_budget, SlabMatrix};
use misam_sparse::{CsrMatrix, SparseError};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// SplitMix64: one seed drives a whole file and its mutation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const VALUE_TYPES: [&str; 4] = ["real", "integer", "pattern", "complex"];
const SYMMETRIES: [&str; 3] = ["general", "symmetric", "skew-symmetric"];

/// Tokens that break an index, a count or a value in every way the
/// grammar has to reject or tolerate.
const HOSTILE_TOKENS: [&str; 18] = [
    "0",
    "-1",
    "1",
    "4096",
    "4097",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "nan",
    "-inf",
    "1e400",
    "1.5",
    "+3",
    "0x10",
    "x",
    "%",
    "",
];

const BAD_BANNERS: [&str; 10] = [
    "",
    "%%MatrixMarket",
    "%%MatrixMarket matrix coordinate",
    "%%MatrixMarket matrix array real general",
    "%%MatrixMarket tensor coordinate real general",
    "%MatrixMarket matrix coordinate real general",
    "%%MatrixMarket matrix coordinate double general",
    "%%MatrixMarket matrix coordinate real hermitian",
    "%%MatrixMarket matrix coordinate pattern skew-symmetric",
    "%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL",
];

/// A well-formed file: banner, optional comments, size line, distinct
/// coordinates (the lower triangle for symmetric kinds).
fn valid_file(rng: &mut Rng) -> Vec<String> {
    let value_type = rng.pick(&VALUE_TYPES);
    let mut symmetry = rng.pick(&SYMMETRIES);
    if value_type == "pattern" && symmetry == "skew-symmetric" {
        symmetry = "symmetric";
    }
    let side = |rng: &mut Rng| if rng.below(8) == 0 { rng.below(4097) } else { rng.below(24) };
    let rows = side(rng);
    let cols = if symmetry == "general" { side(rng) } else { rows };

    let mut coords = Vec::new();
    if rows > 0 && cols > 0 {
        for _ in 0..rng.below(40) {
            let (r, c) = (rng.below(rows), rng.below(cols));
            let (r, c) = if symmetry == "general" { (r, c) } else { (r.max(c), r.min(c)) };
            if !coords.contains(&(r, c)) {
                coords.push((r, c));
            }
        }
    }

    let mut lines = vec![format!("%%MatrixMarket matrix coordinate {value_type} {symmetry}")];
    for _ in 0..rng.below(3) {
        lines.push(rng.pick(&["% a comment", "%", "", "   "]).to_string());
    }
    lines.push(format!("{rows} {cols} {}", coords.len()));
    for (r, c) in coords {
        let value = match value_type {
            "real" => format!(" {}", (rng.below(2001) as f64 - 1000.0) / 8.0),
            "integer" => format!(" {}", rng.below(200) as i64 - 100),
            "complex" => format!(" {} {}", rng.below(9) as f64 - 4.0, rng.below(9) as f64 / 2.0),
            _ => String::new(),
        };
        lines.push(format!("{} {}{value}", r + 1, c + 1));
    }
    lines
}

/// Index of the size line: the first line after the banner that is not
/// blank or a comment.
fn size_line(lines: &[String]) -> usize {
    (1..lines.len())
        .find(|&i| {
            let t = lines[i].trim();
            !t.is_empty() && !t.starts_with('%')
        })
        .expect("a valid file has a size line")
}

fn tokens(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

/// Applies mutation `kind` to a valid file.
fn mutate(rng: &mut Rng, mut lines: Vec<String>, kind: usize) -> String {
    let size = size_line(&lines);
    let any_line = |rng: &mut Rng, lines: &[String]| rng.below(lines.len());
    match kind {
        // Untouched.
        0 => {}
        // Truncated after a line.
        1 => lines.truncate(rng.below(lines.len() + 1)),
        // Truncated at a byte, possibly mid-token.
        2 => {
            let mut text = lines.join("\n");
            text.truncate(rng.below(text.len() + 1));
            return text;
        }
        // A token deleted.
        3 => {
            let i = any_line(rng, &lines);
            let mut t = tokens(&lines[i]);
            if !t.is_empty() {
                t.remove(rng.below(t.len()));
            }
            lines[i] = t.join(" ");
        }
        // Two tokens swapped, within a line or across lines.
        4 => {
            let (i, j) = (any_line(rng, &lines), any_line(rng, &lines));
            let (mut ti, mut tj) = (tokens(&lines[i]), tokens(&lines[j]));
            if !ti.is_empty() && !tj.is_empty() {
                let (a, b) = (rng.below(ti.len()), rng.below(tj.len()));
                if i == j {
                    ti.swap(a, b);
                    lines[i] = ti.join(" ");
                } else {
                    std::mem::swap(&mut ti[a], &mut tj[b]);
                    lines[i] = ti.join(" ");
                    lines[j] = tj.join(" ");
                }
            }
        }
        // A token replaced by a hostile one (indices, counts, values).
        5 => {
            let i = size + rng.below(lines.len() - size);
            // The size line never declares a shape a reader would really
            // have to allocate for: at most 4097, or past `u32::MAX`,
            // which fails before allocating.
            let token = loop {
                let t = rng.pick(&HOSTILE_TOKENS);
                let huge = t.parse::<u64>().is_ok_and(|v| v > 4097 && v <= u64::from(u32::MAX));
                if i != size || !huge {
                    break t;
                }
            };
            let mut t = tokens(&lines[i]);
            if !t.is_empty() {
                let k = rng.below(t.len());
                t[k] = token.to_string();
            }
            lines[i] = t.join(" ");
        }
        // A bad banner.
        6 => lines[0] = rng.pick(&BAD_BANNERS).to_string(),
        // A different symmetry word: symmetric on a non-square shape,
        // skew-symmetric pattern, or general on a triangle.
        7 => {
            let mut t = tokens(&lines[0]);
            t[4] = rng.pick(&SYMMETRIES).to_string();
            lines[0] = t.join(" ");
            if rng.below(2) == 0 {
                let mut s = tokens(&lines[size]);
                s[1] = (s[1].parse::<usize>().unwrap() + 1 + rng.below(3)).to_string();
                lines[size] = s.join(" ");
            }
        }
        // An entry count that disagrees with the stream.
        8 => {
            let mut s = tokens(&lines[size]);
            let n: usize = s[2].parse().unwrap();
            s[2] = match rng.below(3) {
                0 => (n + 1 + rng.below(3)).to_string(),
                1 => n.saturating_sub(1 + rng.below(3)).to_string(),
                _ => usize::MAX.to_string(),
            };
            lines[size] = s.join(" ");
        }
        // An index at zero, just past the shape, or far past it.
        9 => {
            if size + 1 < lines.len() {
                let i = size + 1 + rng.below(lines.len() - size - 1);
                let s = tokens(&lines[size]);
                let mut t = tokens(&lines[i]);
                let k = rng.below(2);
                let bound: usize = s[k].parse().unwrap();
                t[k] = match rng.below(3) {
                    0 => "0".to_string(),
                    1 => (bound + 1).to_string(),
                    _ => (bound + 1 + rng.below(1 << 20)).to_string(),
                };
                lines[i] = t.join(" ");
            }
        }
        // An entry repeated, with the count raised to match.
        _ => {
            if size + 1 < lines.len() {
                let i = size + 1 + rng.below(lines.len() - size - 1);
                lines.push(lines[i].clone());
                let mut s = tokens(&lines[size]);
                s[2] = (s[2].parse::<usize>().unwrap() + 1).to_string();
                lines[size] = s.join(" ");
            }
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// Checks the structure of an accepted matrix by rebuilding it through
/// the validating constructor.
fn assert_valid(m: &CsrMatrix, ctx: &str) {
    CsrMatrix::from_raw_parts(
        m.rows(),
        m.cols(),
        m.row_ptr().to_vec(),
        m.col_idx().to_vec(),
        m.values().to_vec(),
    )
    .unwrap_or_else(|e| panic!("{ctx}: accepted an invalid matrix: {e:?}"));
}

fn same_bits(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.row_ptr() == b.row_ptr()
        && a.col_idx() == b.col_idx()
        && a.values().iter().map(|v| v.to_bits()).eq(b.values().iter().map(|v| v.to_bits()))
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("misam_mtx_adv_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Feeds `text` to both readers and checks the contract between them.
fn check_both(text: &str, src: &Path, dst: &Path, budget: usize) {
    let owned = read_matrix_market(text.as_bytes());
    if let Ok(m) = &owned {
        assert_valid(m, "read_matrix_market");
    }
    std::fs::write(src, text).unwrap();
    match (ingest_matrix_market_with_budget(src, dst, budget), &owned) {
        (Ok(report), Ok(m)) => {
            let slab = SlabMatrix::open(dst).expect("an ingested slab opens");
            slab.verify().expect("an ingested slab verifies");
            assert_eq!((report.rows, report.cols, report.nnz), (m.rows(), m.cols(), m.nnz()));
            assert!(same_bits(&slab.to_matrix(), m), "readers disagree on:\n{text}");
        }
        (Ok(_), Err(e)) => {
            panic!("ingest accepted what read_matrix_market rejects ({e:?}):\n{text}")
        }
        (Err(SparseError::Parse(msg)), Ok(_)) => {
            assert!(msg.contains("duplicate"), "ingest alone rejects ({msg}):\n{text}")
        }
        (Err(e), Ok(_)) => panic!("ingest alone rejects ({e:?}):\n{text}"),
        (Err(_), Err(_)) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_files_parse_or_fail_typed(seed in 0u64..u64::MAX, kind in 0usize..11) {
        let dir = Scratch::new(&format!("prop_{seed:x}"));
        let mut rng = Rng(seed);
        let lines = valid_file(&mut rng);
        let text = mutate(&mut rng, lines, kind);
        let budget = 1 + rng.below(16);
        check_both(&text, &dir.path("a.mtx"), &dir.path("a.msab"), budget);
    }
}

#[test]
fn valid_files_read_identically_through_both_readers() {
    let dir = Scratch::new("valid");
    for seed in 0..64 {
        let mut rng = Rng(seed);
        let lines = valid_file(&mut rng);
        let text = mutate(&mut rng, lines, 0);
        read_matrix_market(text.as_bytes()).unwrap_or_else(|e| panic!("{e:?}:\n{text}"));
        check_both(&text, &dir.path("v.mtx"), &dir.path("v.msab"), 3);
    }
}

#[test]
fn truncation_at_every_line_and_byte_never_panics() {
    let dir = Scratch::new("trunc");
    let text = "%%MatrixMarket matrix coordinate complex skew-symmetric\n\
                % comment\n\
                4 4 4\n\
                2 1 1.5 -2\n\
                3 1 0 1\n\
                4 2 -3 0.5\n\
                4 3 2 2\n";
    for cut in 0..=text.len() {
        check_both(&text[..cut], &dir.path("t.mtx"), &dir.path("t.msab"), 2);
    }
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..=lines.len() {
        check_both(&lines[..keep].join("\n"), &dir.path("t.mtx"), &dir.path("t.msab"), 2);
    }
}

#[test]
fn symmetric_entries_mirrored_past_a_non_square_shape_fail_typed() {
    // Entry (1, 4) of a 2 × 5 symmetric file mirrors to row 3, past the
    // two declared rows.
    let dir = Scratch::new("mirror");
    let text = "%%MatrixMarket matrix coordinate real symmetric\n2 5 1\n1 4 1.0\n";
    assert!(matches!(
        read_matrix_market(text.as_bytes()),
        Err(SparseError::IndexOutOfBounds { row: 3, col: 0, rows: 2, cols: 5 })
    ));
    std::fs::write(dir.path("m.mtx"), text).unwrap();
    assert!(matches!(
        ingest_matrix_market_with_budget(dir.path("m.mtx"), dir.path("m.msab"), 4),
        Err(SparseError::IndexOutOfBounds { row: 3, col: 0, rows: 2, cols: 5 })
    ));
}

#[test]
fn dimensions_past_u32_are_a_parse_error_in_both_readers() {
    let dir = Scratch::new("u32");
    let max = u32::MAX as u64;
    for (rows, cols) in [(max + 1, 1), (1, max + 1), (u64::MAX, u64::MAX), (max + 1, max + 1)] {
        let text = format!("%%MatrixMarket matrix coordinate real general\n{rows} {cols} 0\n");
        let owned = read_matrix_market(text.as_bytes());
        assert!(matches!(owned, Err(SparseError::Parse(_))), "{rows}x{cols}: {owned:?}");
        std::fs::write(dir.path("big.mtx"), &text).unwrap();
        let ingested = ingest_matrix_market_with_budget(dir.path("big.mtx"), dir.path("b.msab"), 4);
        assert!(matches!(ingested, Err(SparseError::Parse(_))), "{rows}x{cols}: {ingested:?}");
    }
    // The largest representable shape is accepted on the size line; the
    // entry past it is what fails.
    let text =
        format!("%%MatrixMarket matrix coordinate pattern general\n{max} {max} 1\n{} 1\n", max + 1);
    assert!(matches!(
        read_matrix_market(text.as_bytes()),
        Err(SparseError::IndexOutOfBounds { .. })
    ));
}
