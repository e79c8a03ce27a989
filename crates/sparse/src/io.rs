//! Matrix Market (`.mtx`) coordinate-format I/O.
//!
//! Supports the subset of the format the SuiteSparse collection uses:
//! `matrix coordinate {real|integer|pattern|complex}
//! {general|symmetric|skew-symmetric}`. Pattern entries read as value
//! `1.0`; complex entries read as their magnitude; symmetric and
//! skew-symmetric files are expanded to their full (general) form on
//! load (the skew mirror negates the value).
//!
//! Parsing is factored into the streaming `MtxScanner` so the
//! in-memory reader here and the out-of-core slab ingester
//! ([`crate::slab::ingest_matrix_market`]) share one header/entry
//! grammar — any format extension lands in both paths at once.

use std::io::{BufRead, BufReader, Lines, Read, Write};
use std::path::Path;

use crate::{CooMatrix, CsrMatrix, Result, SparseError};

/// Value field grammar of a Matrix Market file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MtxValueType {
    /// One real token per entry.
    Real,
    /// One integer token per entry.
    Integer,
    /// No value token; entries read as `1.0`.
    Pattern,
    /// Two tokens (re, im) per entry; read as the magnitude.
    Complex,
}

/// Symmetry declaration of a Matrix Market file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MtxSymmetry {
    /// Entries are stored verbatim.
    General,
    /// Off-diagonal entries mirror as `(c, r, v)`.
    Symmetric,
    /// Off-diagonal entries mirror as `(c, r, -v)`.
    SkewSymmetric,
}

/// Parsed header + size line of a Matrix Market stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MtxMeta {
    pub rows: usize,
    pub cols: usize,
    /// Entry count declared by the size line (pre-expansion).
    pub declared_entries: usize,
    pub value_type: MtxValueType,
    pub symmetry: MtxSymmetry,
}

impl MtxMeta {
    /// The mirrored entry implied by the symmetry declaration, if any.
    pub fn mirror(&self, r: usize, c: usize, v: f32) -> Option<(usize, usize, f32)> {
        match self.symmetry {
            MtxSymmetry::General => None,
            MtxSymmetry::Symmetric if r != c => Some((c, r, v)),
            MtxSymmetry::SkewSymmetric if r != c => Some((c, r, -v)),
            _ => None,
        }
    }
}

/// Streaming Matrix Market reader: parses the header eagerly, then
/// yields stored entries one at a time (0-based, mirrors *not*
/// applied — callers expand via [`MtxMeta::mirror`]). Holds O(1)
/// state, so the slab ingester can re-scan a file per chunk pass
/// without ever owning the entry list.
pub(crate) struct MtxScanner<R: Read> {
    lines: Lines<BufReader<R>>,
    meta: MtxMeta,
    seen: usize,
}

impl<R: Read> MtxScanner<R> {
    /// Parses the header and size line, leaving the scanner at the
    /// first entry.
    pub fn new(reader: R) -> Result<Self> {
        let mut lines = BufReader::new(reader).lines();

        let header = loop {
            match lines.next() {
                Some(line) => {
                    let line = line?;
                    if !line.trim().is_empty() {
                        break line;
                    }
                }
                None => return Err(SparseError::Parse("empty stream".into())),
            }
        };
        let header = header.trim().to_ascii_lowercase();
        let fields: Vec<&str> = header.split_whitespace().collect();
        if fields.len() < 4 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
            return Err(SparseError::Parse(format!("bad header line: {header}")));
        }
        if fields[2] != "coordinate" {
            return Err(SparseError::Parse(format!(
                "unsupported storage '{}', only coordinate is supported",
                fields[2]
            )));
        }
        let value_type = match fields[3] {
            "real" => MtxValueType::Real,
            "integer" => MtxValueType::Integer,
            "pattern" => MtxValueType::Pattern,
            "complex" => MtxValueType::Complex,
            other => return Err(SparseError::Parse(format!("unsupported value type '{other}'"))),
        };
        let symmetry = match fields.get(4).copied().unwrap_or("general") {
            "general" => MtxSymmetry::General,
            "symmetric" => MtxSymmetry::Symmetric,
            "skew-symmetric" => MtxSymmetry::SkewSymmetric,
            other => return Err(SparseError::Parse(format!("unsupported symmetry '{other}'"))),
        };
        if value_type == MtxValueType::Pattern && symmetry == MtxSymmetry::SkewSymmetric {
            return Err(SparseError::Parse("pattern matrices cannot be skew-symmetric".into()));
        }

        // Size line: first non-comment line.
        let size_line = loop {
            match lines.next() {
                Some(line) => {
                    let line = line?;
                    let t = line.trim().to_string();
                    if t.is_empty() || t.starts_with('%') {
                        continue;
                    }
                    break t;
                }
                None => return Err(SparseError::Parse("missing size line".into())),
            }
        };
        let dims: Vec<usize> = size_line
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| SparseError::Parse(format!("bad size token '{t}'"))))
            .collect::<Result<_>>()?;
        if dims.len() != 3 {
            return Err(SparseError::Parse(format!("size line needs 3 fields: {size_line}")));
        }
        let meta = MtxMeta {
            rows: dims[0],
            cols: dims[1],
            declared_entries: dims[2],
            value_type,
            symmetry,
        };
        Ok(MtxScanner { lines, meta, seen: 0 })
    }

    /// The parsed header.
    pub fn meta(&self) -> &MtxMeta {
        &self.meta
    }

    /// The next stored entry as `(row, col, value)` — 0-based, mirror
    /// not applied — or `None` at a well-formed end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Parse`] for a malformed entry, or at end
    /// of stream when the entry count disagrees with the size line.
    pub fn next_entry(&mut self) -> Result<Option<(usize, usize, f32)>> {
        for line in self.lines.by_ref() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let r: usize = it
                .next()
                .ok_or_else(|| SparseError::Parse(format!("truncated entry: {t}")))?
                .parse()
                .map_err(|_| SparseError::Parse(format!("bad row in entry: {t}")))?;
            let c: usize = it
                .next()
                .ok_or_else(|| SparseError::Parse(format!("truncated entry: {t}")))?
                .parse()
                .map_err(|_| SparseError::Parse(format!("bad col in entry: {t}")))?;
            let v: f32 = match self.meta.value_type {
                MtxValueType::Pattern => 1.0,
                MtxValueType::Real | MtxValueType::Integer => it
                    .next()
                    .ok_or_else(|| SparseError::Parse(format!("missing value in entry: {t}")))?
                    .parse()
                    .map_err(|_| SparseError::Parse(format!("bad value in entry: {t}")))?,
                MtxValueType::Complex => {
                    let mut part = || -> Result<f64> {
                        it.next()
                            .ok_or_else(|| {
                                SparseError::Parse(format!("missing complex part in entry: {t}"))
                            })?
                            .parse()
                            .map_err(|_| {
                                SparseError::Parse(format!("bad complex part in entry: {t}"))
                            })
                    };
                    let (re, im) = (part()?, part()?);
                    (re * re + im * im).sqrt() as f32
                }
            };
            if r == 0 || c == 0 {
                return Err(SparseError::Parse("matrix market indices are 1-based".into()));
            }
            self.seen += 1;
            return Ok(Some((r - 1, c - 1, v)));
        }
        if self.seen != self.meta.declared_entries {
            return Err(SparseError::Parse(format!(
                "header declares {} entries but stream holds {}",
                self.meta.declared_entries, self.seen
            )));
        }
        Ok(None)
    }
}

/// Parses a Matrix Market stream into a CSR matrix.
///
/// A mutable reference is a valid `Read`, so callers can pass `&mut file`
/// to keep using the file afterwards.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] for malformed headers or entries and
/// [`SparseError::Io`] for stream failures.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix> {
    let mut scanner = MtxScanner::new(reader)?;
    let meta = *scanner.meta();
    let mut coo = CooMatrix::new(meta.rows, meta.cols);
    while let Some((r, c, v)) = scanner.next_entry()? {
        coo.push(r, c, v)?;
        if let Some((mr, mc, mv)) = meta.mirror(r, c, v) {
            coo.push(mr, mc, mv)?;
        }
    }
    Ok(coo.to_csr())
}

/// Reads a `.mtx` file from disk.
///
/// # Errors
///
/// Propagates parse and I/O failures as [`SparseError`].
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<CsrMatrix> {
    let file = std::fs::File::open(path)?;
    read_matrix_market(file)
}

/// Writes a matrix as `matrix coordinate real general`.
///
/// A mutable reference is a valid `Write`, so callers can pass
/// `&mut buffer`.
///
/// # Errors
///
/// Returns [`SparseError::Io`] on write failure.
pub fn write_matrix_market<W: Write>(mut writer: W, m: &CsrMatrix) -> Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by misam-sparse")?;
    writeln!(writer, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Writes a matrix to a `.mtx` file on disk.
///
/// # Errors
///
/// Propagates I/O failures as [`SparseError`].
pub fn write_matrix_market_file(path: impl AsRef<Path>, m: &CsrMatrix) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_matrix_market(std::io::BufWriter::new(file), m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn roundtrip_preserves_matrix() {
        let m = gen::uniform_random(20, 30, 0.1, 5);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back.rows(), m.rows());
        assert_eq!(back.cols(), m.cols());
        assert_eq!(back.nnz(), m.nnz());
        for (r, c, v) in m.iter() {
            let got = back.get(r, c).unwrap();
            assert!((got - v).abs() < 1e-5);
        }
    }

    #[test]
    fn pattern_entries_read_as_one() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(1, 1), Some(1.0));
    }

    #[test]
    fn symmetric_expands_mirror_entries() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 7.0\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), Some(5.0));
        assert_eq!(m.get(0, 1), Some(5.0));
        assert_eq!(m.get(2, 2), Some(7.0));
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn skew_symmetric_mirrors_negated() {
        let src =
            "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 5.0\n3 1 -2.5\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), Some(5.0));
        assert_eq!(m.get(0, 1), Some(-5.0));
        assert_eq!(m.get(2, 0), Some(-2.5));
        assert_eq!(m.get(0, 2), Some(2.5));
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn complex_entries_read_as_magnitude() {
        let src =
            "%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 3.0 4.0\n2 2 0 -2\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 0), Some(5.0));
        assert_eq!(m.get(1, 1), Some(2.0));
    }

    #[test]
    fn complex_symmetric_expands_magnitudes() {
        let src = "%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n2 1 3.0 -4.0\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), Some(5.0));
        assert_eq!(m.get(0, 1), Some(5.0));
    }

    #[test]
    fn complex_entries_require_both_parts() {
        let src = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 3.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn pattern_skew_symmetric_is_rejected() {
        let src = "%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 1\n2 1\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(read_matrix_market("not a header\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market("%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes())
            .is_err());
        assert!(read_matrix_market("".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_zero_based_indices() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let src = "\n%%MatrixMarket matrix coordinate real general\n% comment\n\n2 2 1\n% more\n2 2 4.5\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(1, 1), Some(4.5));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("misam_sparse_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        let m = gen::banded(16, 16, 2, 0.9, 7);
        write_matrix_market_file(&path, &m).unwrap();
        let back = read_matrix_market_file(&path).unwrap();
        assert_eq!(back.nnz(), m.nnz());
        std::fs::remove_dir_all(&dir).ok();
    }
}
