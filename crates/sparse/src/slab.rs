//! Out-of-core CSR storage: the `.msab` slab format.
//!
//! A slab is a versioned on-disk CSR image designed to be mapped, not
//! parsed: after a 64-byte checksummed header come the three CSR
//! arrays in their in-memory layout (little-endian, 8-byte aligned
//! sections), so [`SlabMatrix::open`] memory-maps the file and serves
//! [`CsrRef`] views straight from the page cache — no allocation
//! proportional to the matrix. The header carries a content digest
//! computed with the oracle's fingerprint recipe, letting file-backed
//! matrices join the profile/label caches in O(1) without re-hashing
//! their nonzeros.
//!
//! Slabs are produced two ways:
//!
//! - [`write_slab`] serialises an owned, already-resident
//!   [`CsrMatrix`] — the path tests use to build slab twins.
//! - [`ingest_matrix_market`] streams a `.mtx` file into a slab
//!   without ever holding the matrix in memory: pass 1 counts row
//!   lengths, then bounded row-range chunks are re-scanned, sorted,
//!   and appended, keeping peak residency at
//!   `O(rows + chunk_budget)` entries.
//!
//! # Layout (version 1, all little-endian)
//!
//! | offset | bytes | field |
//! |-------:|------:|-------|
//! | 0      | 4     | magic `"MSAB"` |
//! | 4      | 4     | version (`1`) |
//! | 8      | 8     | rows |
//! | 16     | 8     | cols |
//! | 24     | 8     | nnz |
//! | 32     | 8     | content digest (fingerprint recipe) |
//! | 40     | 8     | FNV-1a checksum of bytes `[0, 40)` |
//! | 48     | 16    | reserved (zero) |
//! | 64     | 8·(rows+1) | `row_ptr` as `u64` |
//! | —      | 4·nnz, zero-padded to 8 | `col_idx` as `u32` |
//! | —      | 4·nnz | `values` as `f32` bit patterns |

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::io::MtxScanner;
use crate::view::CsrRef;
use crate::{CsrMatrix, Result, SparseError};

const MAGIC: [u8; 4] = *b"MSAB";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 64;

/// Default per-chunk residency budget for [`ingest_matrix_market`],
/// in matrix entries (8 bytes each while chunk-resident).
pub const DEFAULT_INGEST_BUDGET: usize = 8 << 20;

// The content digest reproduces `misam_oracle`'s `Fingerprint::of_matrix`
// byte-for-byte (pinned by a cross-crate test there) so a slab header
// digest and an owned-matrix fingerprint share one cache key space.
// The recipe lives here too because oracle depends on sparse, not the
// reverse.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, v: u64) {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            self.0 = (self.0 ^ ((v >> shift) & 0xff)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn pad8(n: usize) -> usize {
    (n + 7) & !7
}

/// Byte offsets of the slab sections for a given shape.
#[derive(Debug, Clone, Copy)]
struct Layout {
    row_ptr_off: usize,
    col_off: usize,
    val_off: usize,
    file_len: usize,
}

impl Layout {
    fn of(rows: usize, nnz: usize) -> Layout {
        let row_ptr_off = HEADER_LEN;
        let col_off = row_ptr_off + 8 * (rows + 1);
        let val_off = col_off + pad8(4 * nnz);
        Layout { row_ptr_off, col_off, val_off, file_len: val_off + 4 * nnz }
    }
}

fn encode_header(rows: usize, cols: usize, nnz: usize, digest: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&(rows as u64).to_le_bytes());
    h[16..24].copy_from_slice(&(cols as u64).to_le_bytes());
    h[24..32].copy_from_slice(&(nnz as u64).to_le_bytes());
    h[32..40].copy_from_slice(&digest.to_le_bytes());
    let mut sum = Fnv::new();
    sum.write_bytes(&h[0..40]);
    h[40..48].copy_from_slice(&sum.finish().to_le_bytes());
    h
}

fn read_u64_le(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte window"))
}

fn parse_header(bytes: &[u8]) -> Result<(usize, usize, usize, u64)> {
    if bytes.len() < HEADER_LEN {
        return Err(SparseError::Parse("slab: file shorter than header".into()));
    }
    if bytes[0..4] != MAGIC {
        return Err(SparseError::Parse("slab: bad magic (not an .msab file)".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte window"));
    if version != VERSION {
        return Err(SparseError::Parse(format!("slab: unsupported version {version}")));
    }
    let mut sum = Fnv::new();
    sum.write_bytes(&bytes[0..40]);
    if sum.finish() != read_u64_le(bytes, 40) {
        return Err(SparseError::Parse("slab: header checksum mismatch".into()));
    }
    let to_usize = |v: u64, what: &str| -> Result<usize> {
        usize::try_from(v).map_err(|_| SparseError::Parse(format!("slab: {what} exceeds usize")))
    };
    let rows = to_usize(read_u64_le(bytes, 8), "rows")?;
    let cols = to_usize(read_u64_le(bytes, 16), "cols")?;
    let nnz = to_usize(read_u64_le(bytes, 24), "nnz")?;
    Ok((rows, cols, nnz, read_u64_le(bytes, 32)))
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod mm {
    //! Minimal read-only `mmap` wrapper against the libc that `std`
    //! already links (same pattern as the `signal` binding in
    //! `misam-serve`), so no new dependency is needed.

    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    pub struct MmapRegion {
        ptr: *const u8,
        len: usize,
    }

    // Read-only private mapping: shared references to its bytes are
    // safe from any thread.
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        pub fn map(file: &File, len: usize) -> std::io::Result<Self> {
            assert!(len > 0, "cannot map an empty file");
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                Err(std::io::Error::last_os_error())
            } else {
                Ok(MmapRegion { ptr, len })
            }
        }

        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr as *mut u8, self.len);
            }
        }
    }
}

/// File bytes, mapped when the platform allows it and read into an
/// 8-aligned buffer otherwise, so section slices stay aligned either
/// way.
#[cfg(all(target_endian = "little", target_pointer_width = "64"))]
enum Backing {
    #[cfg(unix)]
    Mapped(mm::MmapRegion),
    Owned(Vec<u64>, usize),
}

#[cfg(all(target_endian = "little", target_pointer_width = "64"))]
impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(region) => region.bytes(),
            Backing::Owned(words, len) => unsafe {
                std::slice::from_raw_parts(words.as_ptr() as *const u8, *len)
            },
        }
    }
}

#[cfg(all(target_endian = "little", target_pointer_width = "64"))]
fn read_aligned(file: &mut File, len: usize) -> std::io::Result<Backing> {
    let mut words = vec![0u64; len.div_ceil(8)];
    let buf = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(buf)?;
    Ok(Backing::Owned(words, len))
}

enum Store {
    /// Zero-copy: views reinterpret the file bytes in place. Only
    /// valid where the on-disk layout matches the in-memory one.
    #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
    Raw(Backing),
    /// Portable fallback: arrays decoded at open time.
    #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
    Decoded { row_ptr: Vec<usize>, col_idx: Vec<u32>, values: Vec<f32> },
}

/// A matrix backed by an on-disk `.msab` slab.
///
/// Opening validates the header, the exact file length, the `row_ptr`
/// invariants (O(rows)) and that every column index is below `cols`
/// (one O(nnz) scan), so no index read through a view can land out of
/// bounds; the per-row ordering check and the digest recompute are
/// available separately via [`SlabMatrix::verify`]. The nonzero
/// arrays are not copied on platforms where the slab layout matches
/// memory — [`SlabMatrix::as_ref`] hands out [`CsrRef`] views
/// directly over the mapping.
pub struct SlabMatrix {
    rows: usize,
    cols: usize,
    nnz: usize,
    digest: u64,
    store: Store,
}

impl std::fmt::Debug for SlabMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("nnz", &self.nnz)
            .field("content_digest", &self.digest)
            .finish()
    }
}

impl SlabMatrix {
    /// Opens and validates a slab file.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Parse`] for a malformed or truncated
    /// slab, [`SparseError::MalformedPointers`] for an inconsistent
    /// `row_ptr` section, [`SparseError::MalformedIndices`] for a
    /// column index `>= cols`, and [`SparseError::Io`] for filesystem
    /// failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| SparseError::Parse("slab: file too large for this platform".into()))?;
        if len < HEADER_LEN {
            return Err(SparseError::Parse("slab: file shorter than header".into()));
        }

        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        let store = {
            #[cfg(unix)]
            let backing = match mm::MmapRegion::map(&file, len) {
                Ok(region) => Backing::Mapped(region),
                // Some filesystems refuse mmap; fall back to reading.
                Err(_) => read_aligned(&mut file, len)?,
            };
            #[cfg(not(unix))]
            let backing = read_aligned(&mut file, len)?;
            Store::Raw(backing)
        };
        #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
        let store = {
            let mut bytes = vec![0u8; len];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut bytes)?;
            decode_store(&bytes)?
        };

        let slab = {
            let bytes = store_bytes_for_header(&store);
            let (rows, cols, nnz, digest) = parse_header(bytes)?;
            let layout = Layout::of(rows, nnz);
            if len != layout.file_len {
                return Err(SparseError::Parse(format!(
                    "slab: file is {len} bytes, layout for {rows}x{cols} nnz={nnz} needs {}",
                    layout.file_len
                )));
            }
            SlabMatrix { rows, cols, nnz, digest, store }
        };

        let row_ptr = slab.as_ref().row_ptr();
        if row_ptr[0] != 0 {
            return Err(SparseError::MalformedPointers("slab: row_ptr must start at 0".into()));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::MalformedPointers(
                "slab: row_ptr must be non-decreasing".into(),
            ));
        }
        if row_ptr[slab.rows] != slab.nnz {
            return Err(SparseError::MalformedPointers(format!(
                "slab: row_ptr ends at {} but header declares nnz={}",
                row_ptr[slab.rows], slab.nnz
            )));
        }
        if let Some(&max) = slab.as_ref().col_idx().iter().max() {
            if max as usize >= slab.cols {
                return Err(SparseError::MalformedIndices(format!(
                    "slab: column index {max} >= cols {}",
                    slab.cols
                )));
            }
        }
        Ok(slab)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of entries that are stored; 0 for an empty shape.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The header's content digest — equal to the oracle's
    /// `Fingerprint::of_matrix` of the owned twin, read in O(1).
    pub fn content_digest(&self) -> u64 {
        self.digest
    }

    /// The storage-generic view over the slab's arrays (zero-copy on
    /// little-endian 64-bit platforms).
    pub fn as_ref(&self) -> CsrRef<'_> {
        match &self.store {
            #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
            Store::Raw(backing) => {
                let layout = Layout::of(self.rows, self.nnz);
                let bytes = backing.bytes();
                // Alignment: the mapping is page-aligned (the owned
                // fallback is u64-aligned) and every section offset is
                // a multiple of 8, so these reinterpretations hold.
                let row_ptr = unsafe {
                    std::slice::from_raw_parts(
                        bytes[layout.row_ptr_off..].as_ptr() as *const usize,
                        self.rows + 1,
                    )
                };
                let col_idx = unsafe {
                    std::slice::from_raw_parts(
                        bytes[layout.col_off..].as_ptr() as *const u32,
                        self.nnz,
                    )
                };
                let values = unsafe {
                    std::slice::from_raw_parts(
                        bytes[layout.val_off..].as_ptr() as *const f32,
                        self.nnz,
                    )
                };
                CsrRef::from_raw_parts(self.rows, self.cols, row_ptr, col_idx, values)
            }
            #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
            Store::Decoded { row_ptr, col_idx, values } => {
                CsrRef::from_raw_parts(self.rows, self.cols, row_ptr, col_idx, values)
            }
        }
    }

    /// Deep-validates the column indices (strictly increasing within
    /// each row, in bounds) and recomputes the content digest. O(nnz).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::MalformedIndices`] for invalid columns
    /// and [`SparseError::Parse`] if the recomputed digest disagrees
    /// with the header.
    pub fn verify(&self) -> Result<()> {
        let view = self.as_ref();
        let (row_ptr, col_idx) = (view.row_ptr(), view.col_idx());
        for r in 0..self.rows {
            let seg = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            if seg.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SparseError::MalformedIndices(format!(
                    "slab: columns of row {r} are not strictly increasing"
                )));
            }
            if let Some(&last) = seg.last() {
                if last as usize >= self.cols {
                    return Err(SparseError::MalformedIndices(format!(
                        "slab: row {r} holds column {last} >= cols {}",
                        self.cols
                    )));
                }
            }
        }
        let recomputed = digest_of_view(view);
        if recomputed != self.digest {
            return Err(SparseError::Parse(format!(
                "slab: content digest mismatch (header {:#x}, data {:#x})",
                self.digest, recomputed
            )));
        }
        Ok(())
    }

    /// Copies the slab into an owned [`CsrMatrix`].
    pub fn to_matrix(&self) -> CsrMatrix {
        self.as_ref().to_matrix()
    }
}

fn store_bytes_for_header(store: &Store) -> &[u8] {
    match store {
        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        Store::Raw(backing) => backing.bytes(),
        #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
        Store::Decoded { .. } => unreachable!("decoded stores are built after header parsing"),
    }
}

#[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
fn decode_store(bytes: &[u8]) -> Result<Store> {
    let (rows, _cols, nnz, _digest) = parse_header(bytes)?;
    let layout = Layout::of(rows, nnz);
    if bytes.len() != layout.file_len {
        return Err(SparseError::Parse("slab: truncated file".into()));
    }
    let mut row_ptr = Vec::with_capacity(rows + 1);
    for i in 0..=rows {
        let v = read_u64_le(bytes, layout.row_ptr_off + 8 * i);
        row_ptr.push(
            usize::try_from(v)
                .map_err(|_| SparseError::Parse("slab: row_ptr exceeds usize".into()))?,
        );
    }
    let mut col_idx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for i in 0..nnz {
        let c = layout.col_off + 4 * i;
        col_idx.push(u32::from_le_bytes(bytes[c..c + 4].try_into().expect("4-byte window")));
        let v = layout.val_off + 4 * i;
        values.push(f32::from_bits(u32::from_le_bytes(
            bytes[v..v + 4].try_into().expect("4-byte window"),
        )));
    }
    Ok(Store::Decoded { row_ptr, col_idx, values })
}

/// The content digest of a CSR view, computed with the oracle's
/// fingerprint recipe (rows, cols, nnz, row pointers, column indices,
/// value bit patterns — in that order).
pub fn digest_of_view(view: CsrRef<'_>) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(view.rows() as u64);
    h.write_u64(view.cols() as u64);
    h.write_u64(view.nnz() as u64);
    for &p in view.row_ptr() {
        h.write_u64(p as u64);
    }
    for &c in view.col_idx() {
        h.write_u64(u64::from(c));
    }
    for &v in view.values() {
        h.write_u64(u64::from(v.to_bits()));
    }
    h.finish()
}

/// Serialises an owned matrix as a slab file.
///
/// # Errors
///
/// Returns [`SparseError::Io`] on filesystem failure.
pub fn write_slab(path: impl AsRef<Path>, m: &CsrMatrix) -> Result<()> {
    let digest = digest_of_view(m.as_ref());
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&encode_header(m.rows(), m.cols(), m.nnz(), digest))?;
    for &p in m.row_ptr() {
        w.write_all(&(p as u64).to_le_bytes())?;
    }
    for &c in m.col_idx() {
        w.write_all(&c.to_le_bytes())?;
    }
    w.write_all(&vec![0u8; pad8(4 * m.nnz()) - 4 * m.nnz()])?;
    for &v in m.values() {
        w.write_all(&v.to_bits().to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// What [`ingest_matrix_market`] did, for logs and benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct IngestReport {
    /// Matrix rows after symmetry expansion.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Stored nonzeros after symmetry expansion.
    pub nnz: usize,
    /// Row-range chunks the entry stream was split into.
    pub chunks: usize,
    /// Size of the source `.mtx` file in bytes.
    pub mtx_bytes: u64,
    /// Size of the produced slab in bytes.
    pub slab_bytes: u64,
    /// Content digest recorded in the slab header.
    pub content_digest: u64,
}

/// Streams a `.mtx` file into a slab with the default residency
/// budget ([`DEFAULT_INGEST_BUDGET`] entries per chunk).
///
/// # Errors
///
/// See [`ingest_matrix_market_with_budget`].
pub fn ingest_matrix_market(src: impl AsRef<Path>, dst: impl AsRef<Path>) -> Result<IngestReport> {
    ingest_matrix_market_with_budget(src, dst, DEFAULT_INGEST_BUDGET)
}

/// Streams a `.mtx` file into a slab without ever holding the whole
/// matrix in memory.
///
/// Pass 1 scans the file once to count per-row entries (O(rows)
/// resident). The row range is then split into chunks of at most
/// `max_resident_entries` nonzeros (always at least one row), and each
/// chunk re-scans the source, gathers its rows, sorts them by column,
/// and appends the column/value sections sequentially. Peak residency
/// is `O(rows + max_resident_entries)` regardless of matrix size. The
/// content digest is finalised by re-reading the written values
/// section, then the header is stamped last — a crashed ingest leaves
/// a file that fails [`SlabMatrix::open`]'s checksum.
///
/// Unlike [`read_matrix_market`](crate::io::read_matrix_market),
/// which sums duplicate coordinates, ingest rejects them: streaming
/// cannot re-count rows after merging, and well-formed SuiteSparse
/// files never contain duplicates.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] for malformed input or duplicate
/// coordinates, [`SparseError::IndexOutOfBounds`] for entries outside
/// the declared shape, and [`SparseError::Io`] for stream failures.
pub fn ingest_matrix_market_with_budget(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    max_resident_entries: usize,
) -> Result<IngestReport> {
    let src = src.as_ref();
    let dst = dst.as_ref();
    let budget = max_resident_entries.max(1);

    // Pass 1: per-row entry counts after symmetry expansion.
    let mut scanner = MtxScanner::new(File::open(src)?)?;
    let meta = *scanner.meta();
    let (rows, cols) = (meta.rows, meta.cols);
    let mut row_lens = vec![0u64; rows];
    while let Some((r, c, v)) = scanner.next_entry()? {
        if r >= rows || c >= cols {
            return Err(SparseError::IndexOutOfBounds { row: r, col: c, rows, cols });
        }
        row_lens[r] += 1;
        if let Some((mr, _, _)) = meta.mirror(r, c, v) {
            row_lens[mr] += 1;
        }
    }
    let mut row_ptr = vec![0u64; rows + 1];
    for r in 0..rows {
        row_ptr[r + 1] = row_ptr[r] + row_lens[r];
    }
    drop(row_lens);
    let nnz = usize::try_from(row_ptr[rows]).expect("entry count fits usize by construction");
    let layout = Layout::of(rows, nnz);

    // Lay the file out up front, then write the row_ptr section; the
    // header is stamped only once the digest is complete.
    let out = File::create(dst)?;
    out.set_len(layout.file_len as u64)?;
    drop(out);
    let mut digest = Fnv::new();
    digest.write_u64(rows as u64);
    digest.write_u64(cols as u64);
    digest.write_u64(nnz as u64);
    {
        let mut f = File::options().write(true).open(dst)?;
        f.seek(SeekFrom::Start(layout.row_ptr_off as u64))?;
        let mut w = BufWriter::new(f);
        for &p in &row_ptr {
            digest.write_u64(p);
            w.write_all(&p.to_le_bytes())?;
        }
        w.flush()?;
    }

    // Greedy row-range chunks bounded by the residency budget.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut r0 = 0;
    while r0 < rows {
        let mut r1 = r0;
        let mut resident = 0usize;
        while r1 < rows {
            let len = (row_ptr[r1 + 1] - row_ptr[r1]) as usize;
            if r1 > r0 && resident + len > budget {
                break;
            }
            resident += len;
            r1 += 1;
        }
        ranges.push((r0, r1));
        r0 = r1;
    }

    // Independent handles so the column and value sections both
    // advance sequentially.
    let mut col_w = {
        let mut f = File::options().write(true).open(dst)?;
        f.seek(SeekFrom::Start(layout.col_off as u64))?;
        BufWriter::new(f)
    };
    let mut val_w = {
        let mut f = File::options().write(true).open(dst)?;
        f.seek(SeekFrom::Start(layout.val_off as u64))?;
        BufWriter::new(f)
    };

    for &(r0, r1) in &ranges {
        let base = row_ptr[r0] as usize;
        let count = row_ptr[r1] as usize - base;
        let mut chunk: Vec<(u32, f32)> = vec![(0, 0.0); count];
        let mut cursor: Vec<usize> = (r0..r1).map(|r| row_ptr[r] as usize - base).collect();

        let mut place = |r: usize, c: usize, v: f32| -> Result<()> {
            let end = row_ptr[r + 1] as usize - base;
            let slot = &mut cursor[r - r0];
            if *slot >= end {
                return Err(SparseError::Parse(
                    "slab ingest: source changed between scan passes".into(),
                ));
            }
            chunk[*slot] = (c as u32, v);
            *slot += 1;
            Ok(())
        };
        let mut scanner = MtxScanner::new(File::open(src)?)?;
        while let Some((r, c, v)) = scanner.next_entry()? {
            if (r0..r1).contains(&r) {
                place(r, c, v)?;
            }
            if let Some((mr, mc, mv)) = meta.mirror(r, c, v) {
                if (r0..r1).contains(&mr) {
                    place(mr, mc, mv)?;
                }
            }
        }

        for r in r0..r1 {
            let (lo, hi) = (row_ptr[r] as usize - base, row_ptr[r + 1] as usize - base);
            let seg = &mut chunk[lo..hi];
            seg.sort_unstable_by_key(|&(c, _)| c);
            if let Some(w) = seg.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(SparseError::Parse(format!(
                    "slab ingest: duplicate entry at ({r}, {}); \
                     read_matrix_market + write_slab handles duplicate-summing files",
                    w[0].0
                )));
            }
        }

        for &(c, v) in &chunk {
            digest.write_u64(u64::from(c));
            col_w.write_all(&c.to_le_bytes())?;
            val_w.write_all(&v.to_bits().to_le_bytes())?;
        }
    }
    col_w.write_all(&vec![0u8; pad8(4 * nnz) - 4 * nnz])?;
    col_w.flush()?;
    val_w.flush()?;
    drop((col_w, val_w));

    // FNV is sequential and values hash after all columns, so finish
    // the digest by re-reading the values section we just wrote.
    {
        let mut f = File::open(dst)?;
        f.seek(SeekFrom::Start(layout.val_off as u64))?;
        let mut r = BufReader::new(f);
        let mut buf = [0u8; 4];
        for _ in 0..nnz {
            r.read_exact(&mut buf)?;
            digest.write_u64(u64::from(u32::from_le_bytes(buf)));
        }
    }
    let content_digest = digest.finish();
    {
        let mut f = File::options().write(true).open(dst)?;
        f.write_all(&encode_header(rows, cols, nnz, content_digest))?;
        f.sync_all()?;
    }

    Ok(IngestReport {
        rows,
        cols,
        nnz,
        chunks: ranges.len(),
        mtx_bytes: std::fs::metadata(src)?.len(),
        slab_bytes: layout.file_len as u64,
        content_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, io};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("misam_slab_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_view_eq(slab: &SlabMatrix, owned: &CsrMatrix) {
        let v = slab.as_ref();
        assert_eq!(v.rows(), owned.rows());
        assert_eq!(v.cols(), owned.cols());
        assert_eq!(v.row_ptr(), owned.row_ptr());
        assert_eq!(v.col_idx(), owned.col_idx());
        // Bit-level equality, not approximate.
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(v.values()), bits(owned.values()));
    }

    #[test]
    fn write_open_roundtrip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let m = gen::power_law(200, 150, 6.0, 1.3, 11);
        let path = dir.join("m.msab");
        write_slab(&path, &m).unwrap();
        let slab = SlabMatrix::open(&path).unwrap();
        assert_view_eq(&slab, &m);
        assert_eq!(slab.content_digest(), digest_of_view(m.as_ref()));
        slab.verify().unwrap();
        assert_eq!(slab.to_matrix(), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let dir = tmp_dir("empty");
        let m = CsrMatrix::zeros(0, 0);
        let path = dir.join("empty.msab");
        write_slab(&path, &m).unwrap();
        let slab = SlabMatrix::open(&path).unwrap();
        assert_eq!(slab.rows(), 0);
        assert_eq!(slab.nnz(), 0);
        assert_eq!(slab.density(), 0.0);
        slab.verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_matches_in_memory_reader() {
        let dir = tmp_dir("ingest");
        let m = gen::uniform_random(64, 48, 0.08, 3);
        let mtx = dir.join("m.mtx");
        io::write_matrix_market_file(&mtx, &m).unwrap();
        let slab_path = dir.join("m.msab");
        let report = ingest_matrix_market(&mtx, &slab_path).unwrap();
        assert_eq!(report.nnz, m.nnz());
        assert_eq!(report.chunks, 1);
        let slab = SlabMatrix::open(&slab_path).unwrap();
        let owned = io::read_matrix_market_file(&mtx).unwrap();
        assert_view_eq(&slab, &owned);
        assert_eq!(report.content_digest, digest_of_view(owned.as_ref()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_ingest_is_identical_to_single_pass() {
        let dir = tmp_dir("chunks");
        let m = gen::power_law(120, 90, 5.0, 1.5, 7);
        let mtx = dir.join("m.mtx");
        io::write_matrix_market_file(&mtx, &m).unwrap();
        let owned = io::read_matrix_market_file(&mtx).unwrap();
        for budget in [1, 7, 64, usize::MAX] {
            let slab_path = dir.join(format!("m_{budget}.msab"));
            let report = ingest_matrix_market_with_budget(&mtx, &slab_path, budget).unwrap();
            if budget == 1 {
                // One row per chunk once any row exceeds the budget.
                assert!(report.chunks >= m.rows() / 2);
            }
            let slab = SlabMatrix::open(&slab_path).unwrap();
            assert_view_eq(&slab, &owned);
            slab.verify().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_expands_symmetry_like_the_reader() {
        let dir = tmp_dir("sym");
        for (tag, body) in [
            ("sym", "%%MatrixMarket matrix coordinate real symmetric\n4 4 3\n2 1 5.0\n3 3 7.0\n4 2 -1.5\n"),
            ("skew", "%%MatrixMarket matrix coordinate real skew-symmetric\n4 4 2\n2 1 5.0\n4 3 2.0\n"),
            ("cplx", "%%MatrixMarket matrix coordinate complex general\n3 3 2\n1 1 3.0 4.0\n2 3 0.0 1.0\n"),
        ] {
            let mtx = dir.join(format!("{tag}.mtx"));
            std::fs::write(&mtx, body).unwrap();
            let slab_path = dir.join(format!("{tag}.msab"));
            ingest_matrix_market_with_budget(&mtx, &slab_path, 2).unwrap();
            let slab = SlabMatrix::open(&slab_path).unwrap();
            let owned = io::read_matrix_market_file(&mtx).unwrap();
            assert_view_eq(&slab, &owned);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_rejects_duplicates() {
        let dir = tmp_dir("dup");
        let mtx = dir.join("dup.mtx");
        std::fs::write(
            &mtx,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n",
        )
        .unwrap();
        let err = ingest_matrix_market(&mtx, dir.join("dup.msab")).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_corruption() {
        let dir = tmp_dir("corrupt");
        let m = gen::uniform_random(10, 10, 0.3, 1);
        let path = dir.join("m.msab");
        write_slab(&path, &m).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(SlabMatrix::open(&path).is_err());

        // Flipped header byte breaks the checksum.
        let mut bad = good.clone();
        bad[9] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(SlabMatrix::open(&path).is_err());

        // Truncation breaks the exact-length check.
        std::fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert!(SlabMatrix::open(&path).is_err());

        // A flipped value byte passes open (cheap checks) but fails
        // verify's digest recomputation.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let slab = SlabMatrix::open(&path).unwrap();
        assert!(slab.verify().is_err());

        // An out-of-range column index is rejected at open, before any
        // consumer can index with it.
        let mut bad = good.clone();
        let col_off = Layout::of(m.rows(), m.nnz()).col_off;
        bad[col_off..col_off + 4].copy_from_slice(&0x00FF_FFFFu32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let err = SlabMatrix::open(&path).unwrap_err();
        assert!(matches!(err, SparseError::MalformedIndices(_)), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
