//! Structural descriptions of generated matrices — the output of the
//! generators' *structure stage*.
//!
//! Every synthetic family in [`crate::gen`] decides **where** its
//! nonzeros go before it decides what values they carry. This module
//! captures that placement in O(rows) storage instead of O(nnz)
//! element arrays:
//!
//! - [`RowRuns`] — one contiguous (possibly cyclically wrapping) run of
//!   columns per row, described by a start and a length. Every random
//!   family (uniform, power-law, R-MAT, banded, circuit, regular,
//!   pruned-DNN, dense, imbalanced) places its rows this way, which is
//!   what makes profile synthesis and compressed-B cost scheduling
//!   closed-form.
//! - Mesh stencils ([`Structure::Mesh2d`] / [`Structure::Mesh3d`]) —
//!   fully determined by their grid dimensions; rows are enumerated
//!   on demand with no per-element state at all.
//!
//! A [`Structure`] can be materialized into a [`CsrMatrix`] (the *fill
//! stage* — see [`crate::lazy::LazyMatrix`]), and profiled without
//! materialization via [`crate::MatrixProfile::synthesize`], which is
//! guaranteed bit-identical to building the profile from the
//! materialized CSR.

use crate::fnv::Fnv;
use crate::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a fill value: uniform in `[-1, 1]` excluding exact zero, so
/// materialized nnz counts always match the structure's nnz.
pub(crate) fn fill_value(rng: &mut StdRng) -> f32 {
    loop {
        let v: f32 = rng.gen_range(-1.0..1.0);
        if v != 0.0 {
            return v;
        }
    }
}

/// Per-row contiguous column runs: row `r` holds the `lens[r]` columns
/// `(starts[r] + j) % cols` for `j in 0..lens[r]`, i.e. one run that may
/// wrap cyclically past the last column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRuns {
    rows: usize,
    cols: usize,
    nnz: usize,
    starts: Vec<u32>,
    lens: Vec<u32>,
}

impl RowRuns {
    /// Builds a run table.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are not `rows` long, a length exceeds
    /// `cols`, or a start of a non-empty row is out of bounds.
    pub fn new(rows: usize, cols: usize, starts: Vec<u32>, lens: Vec<u32>) -> Self {
        assert_eq!(starts.len(), rows, "one start per row");
        assert_eq!(lens.len(), rows, "one length per row");
        let mut nnz = 0usize;
        for (r, (&s, &l)) in starts.iter().zip(&lens).enumerate() {
            assert!(l as usize <= cols, "row {r} run length {l} exceeds cols {cols}");
            assert!(l == 0 || (s as usize) < cols, "row {r} run start {s} out of bounds");
            nnz += l as usize;
        }
        RowRuns { rows, cols, nnz, starts, lens }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total run length (the nnz of the materialized matrix).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Run starts, one per row.
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Run lengths, one per row (the materialized row-length vector).
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// Row `r` as at most two ascending half-open column intervals:
    /// the wrapped prefix `[0, wrap)` (empty unless the run crosses the
    /// last column) and the body `[start, end)`.
    #[inline]
    pub fn row_intervals(&self, r: usize) -> [(usize, usize); 2] {
        let s = self.starts[r] as usize;
        let l = self.lens[r] as usize;
        if l == 0 {
            return [(0, 0), (0, 0)];
        }
        let end = s + l;
        if end <= self.cols {
            [(0, 0), (s, end)]
        } else {
            [(0, end - self.cols), (s, self.cols)]
        }
    }
}

/// The structural description of one generated matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Structure {
    /// One cyclic column run per row.
    Runs(RowRuns),
    /// The 5-point stencil over an `nx x ny` grid (see
    /// [`crate::gen::mesh2d`]).
    Mesh2d {
        /// Grid width.
        nx: usize,
        /// Grid height.
        ny: usize,
    },
    /// The 7-point stencil over an `nx x ny x nz` grid (see
    /// [`crate::gen::mesh3d`]).
    Mesh3d {
        /// Grid width.
        nx: usize,
        /// Grid height.
        ny: usize,
        /// Grid depth.
        nz: usize,
    },
}

impl Structure {
    /// A run structure (the common case for the random families).
    pub fn runs(rows: usize, cols: usize, starts: Vec<u32>, lens: Vec<u32>) -> Self {
        Structure::Runs(RowRuns::new(rows, cols, starts, lens))
    }

    /// A run structure with every row empty.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Structure::runs(rows, cols, vec![0; rows], vec![0; rows])
    }

    /// Number of rows of the described matrix.
    pub fn rows(&self) -> usize {
        match self {
            Structure::Runs(rr) => rr.rows(),
            Structure::Mesh2d { nx, ny } => nx * ny,
            Structure::Mesh3d { nx, ny, nz } => nx * ny * nz,
        }
    }

    /// Number of columns (meshes are square).
    pub fn cols(&self) -> usize {
        match self {
            Structure::Runs(rr) => rr.cols(),
            _ => self.rows(),
        }
    }

    /// Nonzeros of the described matrix, in O(1).
    pub fn nnz(&self) -> usize {
        match self {
            Structure::Runs(rr) => rr.nnz(),
            Structure::Mesh2d { nx, ny } => {
                let n = nx * ny;
                if n == 0 {
                    0
                } else {
                    5 * n - 2 * nx - 2 * ny
                }
            }
            Structure::Mesh3d { nx, ny, nz } => {
                let n = nx * ny * nz;
                if n == 0 {
                    0
                } else {
                    7 * n - 2 * (nx * ny) - 2 * (ny * nz) - 2 * (nx * nz)
                }
            }
        }
    }

    /// A value-blind 64-bit FNV-1a digest of the structure, `O(rows)`
    /// for runs and `O(1)` for meshes.
    ///
    /// This is the structural half of every lazy report-cache key: the
    /// oracle folds it with the value seed into lazy operand
    /// fingerprints. A variant sentinel keeps the key space disjoint
    /// from CSR content digests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(0x57a6_c000_0000_0001);
        h.write_u64(self.rows() as u64);
        h.write_u64(self.cols() as u64);
        match self {
            Structure::Runs(rr) => {
                h.write_u64(1);
                for (&s, &l) in rr.starts().iter().zip(rr.lens()) {
                    h.write_u64(u64::from(s));
                    h.write_u64(u64::from(l));
                }
            }
            Structure::Mesh2d { nx, ny } => {
                h.write_u64(2);
                h.write_u64(*nx as u64);
                h.write_u64(*ny as u64);
            }
            Structure::Mesh3d { nx, ny, nz } => {
                h.write_u64(3);
                h.write_u64(*nx as u64);
                h.write_u64(*ny as u64);
                h.write_u64(*nz as u64);
            }
        }
        h.finish()
    }

    /// The run table, when this is a run structure.
    pub fn as_runs(&self) -> Option<&RowRuns> {
        match self {
            Structure::Runs(rr) => Some(rr),
            _ => None,
        }
    }

    /// Length of row `r` without enumerating its columns.
    pub fn row_len(&self, r: usize) -> usize {
        match self {
            Structure::Runs(rr) => rr.lens()[r] as usize,
            Structure::Mesh2d { .. } | Structure::Mesh3d { .. } => {
                let mut buf = [0u32; 7];
                self.mesh_row_cols(r, &mut buf)
            }
        }
    }

    /// Writes the ascending column indices of mesh row `r` into `buf`,
    /// returning how many there are (≤ 5 for 2-D, ≤ 7 for 3-D).
    ///
    /// # Panics
    ///
    /// Panics if called on a [`Structure::Runs`] value.
    #[inline]
    pub fn mesh_row_cols(&self, r: usize, buf: &mut [u32; 7]) -> usize {
        match *self {
            Structure::Mesh2d { nx, ny } => {
                let (x, y) = (r % nx, r / nx);
                let mut n = 0;
                if y > 0 {
                    buf[n] = (r - nx) as u32;
                    n += 1;
                }
                if x > 0 {
                    buf[n] = (r - 1) as u32;
                    n += 1;
                }
                buf[n] = r as u32;
                n += 1;
                if x + 1 < nx {
                    buf[n] = (r + 1) as u32;
                    n += 1;
                }
                if y + 1 < ny {
                    buf[n] = (r + nx) as u32;
                    n += 1;
                }
                n
            }
            Structure::Mesh3d { nx, ny, nz } => {
                let plane = nx * ny;
                let z = r / plane;
                let rem = r % plane;
                let (x, y) = (rem % nx, rem / nx);
                let mut n = 0;
                if z > 0 {
                    buf[n] = (r - plane) as u32;
                    n += 1;
                }
                if y > 0 {
                    buf[n] = (r - nx) as u32;
                    n += 1;
                }
                if x > 0 {
                    buf[n] = (r - 1) as u32;
                    n += 1;
                }
                buf[n] = r as u32;
                n += 1;
                if x + 1 < nx {
                    buf[n] = (r + 1) as u32;
                    n += 1;
                }
                if y + 1 < ny {
                    buf[n] = (r + nx) as u32;
                    n += 1;
                }
                if z + 1 < nz {
                    buf[n] = (r + plane) as u32;
                    n += 1;
                }
                n
            }
            Structure::Runs(_) => panic!("mesh_row_cols called on a run structure"),
        }
    }

    /// Materializes the structure into a CSR matrix (the *fill stage*).
    ///
    /// Values for run structures are drawn from
    /// `StdRng::seed_from_u64(value_seed)` row by row in ascending
    /// column order; mesh stencils carry their fixed Poisson values
    /// (`4`/`6` on the diagonal, `-1` off it) and ignore the seed. The
    /// fill is a pure function of `(self, value_seed)`, which is what
    /// lets fingerprints and caches key on the structure alone.
    pub fn materialize(&self, value_seed: u64) -> CsrMatrix {
        let rows = self.rows();
        let nnz = self.nnz();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(nnz);
        let mut values: Vec<f32> = Vec::with_capacity(nnz);
        row_ptr.push(0);
        match self {
            Structure::Runs(rr) => {
                let mut rng = StdRng::seed_from_u64(value_seed);
                for r in 0..rows {
                    for (a, b) in rr.row_intervals(r) {
                        for c in a..b {
                            col_idx.push(c as u32);
                            values.push(fill_value(&mut rng));
                        }
                    }
                    row_ptr.push(col_idx.len());
                }
            }
            Structure::Mesh2d { .. } | Structure::Mesh3d { .. } => {
                let diag = if matches!(self, Structure::Mesh2d { .. }) { 4.0 } else { 6.0 };
                let mut buf = [0u32; 7];
                for r in 0..rows {
                    let n = self.mesh_row_cols(r, &mut buf);
                    for &c in &buf[..n] {
                        col_idx.push(c);
                        values.push(if c as usize == r { diag } else { -1.0 });
                    }
                    row_ptr.push(col_idx.len());
                }
            }
        }
        CsrMatrix::from_raw_parts(rows, self.cols(), row_ptr, col_idx, values)
            .expect("structure materializes to sorted in-bounds columns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_intervals_split_wrapping_runs() {
        let rr = RowRuns::new(3, 10, vec![2, 8, 0], vec![4, 5, 0]);
        assert_eq!(rr.row_intervals(0), [(0, 0), (2, 6)]);
        assert_eq!(rr.row_intervals(1), [(0, 3), (8, 10)]);
        assert_eq!(rr.row_intervals(2), [(0, 0), (0, 0)]);
        assert_eq!(rr.nnz(), 9);
    }

    #[test]
    fn materialized_runs_are_sorted_and_counted() {
        let s = Structure::runs(3, 10, vec![2, 8, 0], vec![4, 5, 10]);
        let m = s.materialize(42);
        assert_eq!(m.nnz(), s.nnz());
        assert_eq!(m.row_nnz(0), 4);
        assert_eq!(m.row_nnz(1), 5);
        let cols: Vec<usize> = m.row(1).iter().map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 1, 2, 8, 9]);
        // Deterministic in the value seed, distinct across seeds.
        assert_eq!(m, s.materialize(42));
        assert_ne!(m, s.materialize(43));
    }

    #[test]
    fn mesh_nnz_matches_materialization() {
        for s in [
            Structure::Mesh2d { nx: 4, ny: 3 },
            Structure::Mesh2d { nx: 1, ny: 5 },
            Structure::Mesh3d { nx: 3, ny: 3, nz: 3 },
            Structure::Mesh3d { nx: 1, ny: 1, nz: 1 },
        ] {
            let m = s.materialize(0);
            assert_eq!(m.nnz(), s.nnz(), "{s:?}");
            assert_eq!(m.rows(), s.rows());
            for r in 0..s.rows() {
                assert_eq!(m.row_nnz(r), s.row_len(r), "{s:?} row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds cols")]
    fn oversized_run_is_rejected() {
        RowRuns::new(1, 4, vec![0], vec![5]);
    }
}
