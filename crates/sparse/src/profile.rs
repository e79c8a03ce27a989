//! Precomputed structural profiles of a sparse matrix.
//!
//! Every consumer of a matrix's *structure* — the cycle-level scheduler,
//! the feature extractor, the execution oracle — used to re-walk the CSR
//! arrays on each query: one walk per design per pass width for
//! scheduling, one walk per call for column statistics. A
//! [`MatrixProfile`] folds all of that into a single pass over the
//! matrix, after which:
//!
//! - uniform-cost PE scheduling is a closed-form O(PEs) fold over the
//!   per-residue tallies (see `misam_sim::schedule`), because under a
//!   uniform element cost `w` a row's dependency span is
//!   `n·w + (n−1)·max(0, d−w)` — strictly increasing in `n` — so each
//!   PE's critical span is determined by the *largest* chunk assigned to
//!   it, not by the chunk contents;
//! - row/column mean, variance, maximum and load imbalance (the
//!   `misam_features` statistics) read straight from the stored
//!   distribution summaries;
//! - per-column cost tables for compressed-B scheduling derive from the
//!   row-length vector of the B-side profile without touching B again.
//!
//! Profiles are immutable once built, so they can sit behind an `Arc` in
//! a process-wide cache and be shared by every layer that fingerprints
//! the same matrix.

use crate::simd;
use crate::structure::{RowRuns, Structure};
use crate::view::CsrRef;
use crate::CsrMatrix;

/// Mean / population-variance / maximum summary of a count
/// distribution (rows-per-length or columns-per-occupancy).
///
/// Accumulated in the exact iteration order and float operations of the
/// historical feature extractor, so statistics derived from a profile
/// are bit-identical to a fresh CSR scan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DistSummary {
    /// Number of observations (rows or columns).
    pub n: usize,
    /// Mean count.
    pub mean: f64,
    /// Population variance of the counts.
    pub var: f64,
    /// Largest count.
    pub max: usize,
}

impl DistSummary {
    /// The summary of `counts`, bit-identical to [`DistSummary::fold`].
    ///
    /// The sums are taken in integers, which vectorize and carry no
    /// float latency chain. While every partial sum stays below 2^53,
    /// each step of the f64 fold is exact, so its result is the integer
    /// total converted once. `n·max²` bounds both totals; when it
    /// reaches 2^53 (and the integer sums might not be exact in f64, or
    /// might wrap) the f64 fold runs instead.
    fn of(counts: &[u32]) -> Self {
        let (mut sum, mut sumsq, mut max) = (0u64, 0u64, 0u32);
        for &c in counts {
            let c64 = c as u64;
            sum = sum.wrapping_add(c64);
            sumsq = sumsq.wrapping_add(c64 * c64);
            max = max.max(c);
        }
        let n = counts.len();
        if n as u128 * (max as u128 * max as u128) >= 1 << 53 {
            return Self::fold(counts.iter().map(|&c| c as usize));
        }
        Self::finish(n, sum as f64, sumsq as f64, max as usize)
    }

    /// The sequential f64 fold the feature extractor has always used.
    fn fold(counts: impl Iterator<Item = usize>) -> Self {
        let mut n = 0usize;
        let mut sum = 0f64;
        let mut sumsq = 0f64;
        let mut max = 0usize;
        for c in counts {
            n += 1;
            sum += c as f64;
            sumsq += (c * c) as f64;
            max = max.max(c);
        }
        Self::finish(n, sum, sumsq, max)
    }

    fn finish(n: usize, sum: f64, sumsq: f64, max: usize) -> Self {
        if n == 0 {
            return DistSummary::default();
        }
        let mean = sum / n as f64;
        let var = (sumsq / n as f64 - mean * mean).max(0.0);
        DistSummary { n, mean, var, max }
    }

    /// Largest count over the mean (≥ 1 when any count is positive;
    /// 1 for an empty distribution) — the load-imbalance ratio.
    pub fn imbalance(&self) -> f64 {
        if self.mean > 0.0 {
            self.max as f64 / self.mean
        } else {
            1.0
        }
    }
}

/// Per-PE-residue aggregates for one PE count.
///
/// The two assignment policies of the paper's Table 1 are both residue
/// classes: the column scheduler sends whole row `r` to PE `r % pes`,
/// the row scheduler sends each element to PE `col % pes`. Under a
/// uniform element cost the schedule of a PE therefore depends only on
/// (a) how many elements land on it and (b) the largest
/// single-dependency-chain chunk it receives — both computed here once.
#[derive(Debug, Clone, PartialEq)]
pub struct PeResidueTally {
    pes: usize,
    row_side: bool,
    /// Column scheduler: total elements of rows `r ≡ p (mod pes)`.
    pub row_len_sum: Vec<u64>,
    /// Column scheduler: longest row assigned to PE `p`.
    pub row_len_max: Vec<u32>,
    /// Row scheduler: total elements with `col ≡ p (mod pes)`.
    pub col_count_sum: Vec<u64>,
    /// Row scheduler: largest per-row fragment landing on PE `p` (the
    /// longest same-row dependency chain it must serialize). Empty
    /// unless the tally was built with the row side (see
    /// [`PeResidueTally::has_row_side`]).
    pub row_frag_max: Vec<u32>,
}

impl PeResidueTally {
    /// The PE count these tallies are folded for.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// True when [`PeResidueTally::row_frag_max`] was computed. The
    /// fragment maxima need an O(nnz) element pass, so
    /// [`MatrixProfile::build_with_scheduler_pes`] only folds them for
    /// PE counts a row scheduler actually uses; consumers scheduling a
    /// row traversal must fall back to the element walk when this is
    /// false.
    pub fn has_row_side(&self) -> bool {
        self.row_side
    }
}

/// The precomputed structural profile of one CSR matrix.
///
/// Built in a single traversal of the CSR arrays; see the module docs
/// for what each consumer reads from it.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixProfile {
    rows: usize,
    cols: usize,
    nnz: usize,
    row_lens: Vec<u32>,
    col_counts: Vec<u32>,
    row_summary: DistSummary,
    col_summary: DistSummary,
    tallies: Vec<PeResidueTally>,
}

impl MatrixProfile {
    /// Profiles `m` without PE tallies (sufficient for feature
    /// extraction; scheduling falls back to the element walk).
    pub fn build(m: &CsrMatrix) -> Self {
        Self::build_with_pes(m, &[])
    }

    /// Profiles `m` and folds per-residue tallies for every PE count in
    /// `pe_counts` (zero and duplicate entries are ignored), with both
    /// scheduler sides computed for every count.
    pub fn build_with_pes(m: &CsrMatrix, pe_counts: &[usize]) -> Self {
        Self::build_with_scheduler_pes(m, pe_counts, pe_counts)
    }

    /// Profiles `m` with column-scheduler tallies for every PE count in
    /// `col_pes ∪ row_pes` but row-scheduler fragment maxima — the only
    /// aggregate needing an O(nnz) element pass per PE count — folded
    /// just for the counts in `row_pes`. Tallies without the row side
    /// report [`PeResidueTally::has_row_side`] `== false` and row-
    /// traversal consumers must fall back to the element walk for them.
    pub fn build_with_scheduler_pes(m: &CsrMatrix, col_pes: &[usize], row_pes: &[usize]) -> Self {
        Self::build_with_scheduler_pes_ref(m.as_ref(), col_pes, row_pes)
    }

    /// View-based form of [`MatrixProfile::build`], serving mmap-backed
    /// storage the same way as owned matrices.
    pub fn build_ref(m: CsrRef<'_>) -> Self {
        Self::build_with_scheduler_pes_ref(m, &[], &[])
    }

    /// View-based form of [`MatrixProfile::build_with_scheduler_pes`] —
    /// the implementation the owned entry points delegate to.
    pub fn build_with_scheduler_pes_ref(
        m: CsrRef<'_>,
        col_pes: &[usize],
        row_pes: &[usize],
    ) -> Self {
        Self::build_chunked(m, usize::MAX, col_pes, row_pes)
    }

    /// Profiles `m` by folding row ranges of at most `chunk_rows` rows
    /// at a time, **bit-identical** to
    /// [`MatrixProfile::build_with_scheduler_pes_ref`] of the same view
    /// at any chunk size (the equivalence proptests in
    /// `tests/slab_equivalence.rs` pin this). Over an mmap-backed slab
    /// this bounds the resident element window to one chunk of rows, so
    /// matrices far larger than memory profile within a fixed budget.
    pub fn build_streaming(
        m: CsrRef<'_>,
        chunk_rows: usize,
        col_pes: &[usize],
        row_pes: &[usize],
    ) -> Self {
        Self::build_chunked(m, chunk_rows.max(1), col_pes, row_pes)
    }

    fn build_chunked(
        m: CsrRef<'_>,
        chunk_rows: usize,
        col_pes: &[usize],
        row_pes: &[usize],
    ) -> Self {
        let rows = m.rows();
        let cols = m.cols();
        let nnz = m.nnz();

        let row_ptr = m.row_ptr();
        let mut row_lens: Vec<u32> = Vec::with_capacity(rows);
        let mut tallies = make_tallies(col_pes, row_pes);
        let mut col_counts = vec![0u32; cols];

        // Fold one row range at a time. Fragments never span rows, the
        // column occupancy is an order-independent integer sum, and the
        // residue folds below run over the assembled length vectors —
        // so the chunk boundaries cannot show up in any field.
        let mut r0 = 0usize;
        while r0 < rows {
            let r1 = rows.min(r0.saturating_add(chunk_rows));
            for r in r0..r1 {
                row_lens.push((row_ptr[r + 1] - row_ptr[r]) as u32);
            }
            // Row-scheduler fragment maxima need the per-row column
            // sets: one O(chunk nnz) element pass per row-side PE
            // count. The column occupancy ride-shares the first pass
            // (it visits exactly the same elements); without a
            // row-side tally it gets its own loop.
            let mut counted = false;
            if nnz > 0 {
                for t in tallies.iter_mut().filter(|t| t.row_side) {
                    let counts = if counted { None } else { Some(&mut col_counts[..]) };
                    simd::frag_fold(
                        r1 - r0,
                        cols,
                        &row_ptr[r0..=r1],
                        m.col_idx(),
                        t.pes,
                        &mut t.row_frag_max,
                        counts,
                    );
                    counted = true;
                }
            }
            if !counted {
                for &c in &m.col_idx()[row_ptr[r0]..row_ptr[r1]] {
                    col_counts[c as usize] += 1;
                }
            }
            r0 = r1;
        }

        let row_summary = DistSummary::of(&row_lens);
        let col_summary = DistSummary::of(&col_counts);

        fold_residues(&mut tallies, &row_lens, &col_counts);
        // The fragment fold only records fragments of length >= 2;
        // every populated residue trivially has a fragment of 1.
        for t in &mut tallies {
            if t.row_side {
                for p in 0..t.pes {
                    if t.row_frag_max[p] == 0 && t.col_count_sum[p] > 0 {
                        t.row_frag_max[p] = 1;
                    }
                }
            }
        }

        MatrixProfile { rows, cols, nnz, row_lens, col_counts, row_summary, col_summary, tallies }
    }

    /// Number of rows of the profiled matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the profiled matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros of the profiled matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Nonzeros per row, in row order.
    pub fn row_lens(&self) -> &[u32] {
        &self.row_lens
    }

    /// Nonzeros per column, in column order.
    pub fn col_counts(&self) -> &[u32] {
        &self.col_counts
    }

    /// Distribution summary of nonzeros per row.
    pub fn row_summary(&self) -> &DistSummary {
        &self.row_summary
    }

    /// Distribution summary of nonzeros per column.
    pub fn col_summary(&self) -> &DistSummary {
        &self.col_summary
    }

    /// The residue tally folded for `pes`, if one was requested at
    /// build time.
    pub fn tally(&self, pes: usize) -> Option<&PeResidueTally> {
        self.tallies.iter().find(|t| t.pes == pes)
    }

    /// PE counts this profile holds tallies for.
    pub fn tally_pes(&self) -> impl Iterator<Item = usize> + '_ {
        self.tallies.iter().map(|t| t.pes)
    }

    /// Cheap shape guard: true when `m` has the dimensions and nonzero
    /// count this profile was built from. Used by consumers to assert a
    /// profile is being applied to the matrix it describes.
    pub fn describes(&self, m: &CsrMatrix) -> bool {
        self.rows == m.rows() && self.cols == m.cols() && self.nnz == m.nnz()
    }

    /// Shape guard for a storage-generic view (see
    /// [`MatrixProfile::describes`]).
    pub fn describes_view(&self, m: CsrRef<'_>) -> bool {
        self.rows == m.rows() && self.cols == m.cols() && self.nnz == m.nnz()
    }

    /// Shape guard against a structural description (see
    /// [`MatrixProfile::synthesize`]).
    pub fn describes_structure(&self, s: &Structure) -> bool {
        self.rows == s.rows() && self.cols == s.cols() && self.nnz == s.nnz()
    }

    /// Synthesizes the profile of a [`Structure`] in O(rows + cols +
    /// PEs) without materializing any element arrays, **bit-identical**
    /// to [`MatrixProfile::build_with_scheduler_pes`] of the
    /// materialized matrix.
    ///
    /// Identity holds field by field: row lengths read straight off the
    /// run table (or stencil arity), column occupancies come from a
    /// cyclic difference array, the summaries come from the same
    /// [`DistSummary`] computation as the build path, and the residue tallies
    /// reuse the exact wrapping-counter folds of the build path. The
    /// only derivation that differs is `row_frag_max`: instead of the
    /// per-element fold (plus the populated-residue lift), synthesis
    /// computes the true per-residue fragment maximum directly — a run
    /// of `L` consecutive columns drops `⌊L/P⌋` elements on every
    /// residue plus one more on a cyclic window of `L mod P` residues,
    /// so the maximum over rows is the upper envelope of at most two
    /// such windows per row, swept in O(rows log rows + PEs). The two
    /// derivations are provably equal (the fold records every fragment
    /// of length ≥ 2 and the lift covers exactly the residues whose
    /// true maximum is 1), and the equivalence proptests in
    /// `tests/structure_equivalence.rs` pin it for every generator
    /// family.
    pub fn synthesize(s: &Structure, col_pes: &[usize], row_pes: &[usize]) -> Self {
        let rows = s.rows();
        let cols = s.cols();
        let nnz = s.nnz();

        let row_lens: Vec<u32> = match s {
            Structure::Runs(rr) => rr.lens().to_vec(),
            mesh => (0..rows).map(|r| mesh.row_len(r) as u32).collect(),
        };

        let col_counts = match s {
            Structure::Runs(rr) => run_col_counts(rr),
            // Stencils are structurally symmetric: column c is hit by
            // exactly the neighbors of point c, i.e. row c's length.
            Structure::Mesh2d { .. } | Structure::Mesh3d { .. } => row_lens.clone(),
        };

        let mut tallies = make_tallies(col_pes, row_pes);

        if nnz > 0 {
            for t in tallies.iter_mut().filter(|t| t.row_side) {
                match s {
                    Structure::Runs(rr) => frag_synth_runs(rr, t.pes, &mut t.row_frag_max),
                    mesh => frag_synth_mesh(mesh, rows, t.pes, &mut t.row_frag_max),
                }
            }
        }

        let row_summary = DistSummary::of(&row_lens);
        let col_summary = DistSummary::of(&col_counts);

        // Identical wrapping-counter folds to the build path. No
        // populated-residue lift is needed: the synthesized fragment
        // maxima above are already the true per-residue values.
        fold_residues(&mut tallies, &row_lens, &col_counts);

        MatrixProfile { rows, cols, nnz, row_lens, col_counts, row_summary, col_summary, tallies }
    }
}

/// Column occupancy of a run structure from a cyclic difference array,
/// built in place in the output (one slot past the last column absorbs
/// the ends of runs that stop there). A run `[s, s + l)` adds one at
/// `s` and takes one off where it ends, `s + l` or, when it wraps past
/// the last column, `s + l − cols`; a wrapping run also covers column
/// 0 onward, so it adds one at 0 (summed in `wraps`). Counts are kept
/// in wrapping `u32`, exactly the truncation of the true counts.
fn run_col_counts(rr: &RowRuns) -> Vec<u32> {
    let cols = rr.cols();
    let mut counts = vec![0u32; cols + 1];
    let mut wraps = 0u32;
    for (&s, &l) in rr.starts().iter().zip(rr.lens()) {
        // An empty row may carry any start; clamped, it adds and takes
        // one at the same slot.
        let s = (s as usize).min(cols);
        let e = s + l as usize;
        let wrap = e > cols;
        let end = if wrap { e - cols } else { e };
        counts[s] = counts[s].wrapping_add(1);
        counts[end] = counts[end].wrapping_sub(1);
        wraps = wraps.wrapping_add(wrap as u32);
    }
    counts[0] = counts[0].wrapping_add(wraps);
    let mut acc = 0u32;
    for c in &mut counts {
        acc = acc.wrapping_add(*c);
        *c = acc;
    }
    counts.truncate(cols);
    counts
}

/// Zeroed tallies for `col_pes ∪ row_pes` (zero and duplicate entries
/// ignored), with the row side enabled for counts in `row_pes`.
fn make_tallies(col_pes: &[usize], row_pes: &[usize]) -> Vec<PeResidueTally> {
    let mut pes_set: Vec<usize> =
        col_pes.iter().chain(row_pes).copied().filter(|&p| p > 0).collect();
    pes_set.sort_unstable();
    pes_set.dedup();
    pes_set
        .iter()
        .map(|&pes| {
            let row_side = row_pes.contains(&pes);
            PeResidueTally {
                pes,
                row_side,
                row_len_sum: vec![0u64; pes],
                row_len_max: vec![0u32; pes],
                col_count_sum: vec![0u64; pes],
                row_frag_max: if row_side { vec![0u32; pes] } else { Vec::new() },
            }
        })
        .collect()
}

/// Column-scheduler aggregates and row-scheduler totals from the length
/// vectors alone: residues cycle 0..pes in index order, so the fold is
/// a `pes`-wide independent-output tally — see
/// [`simd::residue_len_fold`] / [`simd::residue_count_fold`] for the
/// lane kernels and their scalar wrapping-counter reference.
fn fold_residues(tallies: &mut [PeResidueTally], row_lens: &[u32], col_counts: &[u32]) {
    for t in tallies {
        simd::residue_len_fold(t.pes, row_lens, &mut t.row_len_sum, &mut t.row_len_max);
        simd::residue_count_fold(t.pes, col_counts, &mut t.col_count_sum);
    }
}

/// True per-residue fragment maxima for a run structure: the upper
/// envelope over rows of `q_i + [p ∈ W_i1] + [p ∈ W_i2]`, where
/// `q_i = Σ ⌊len/P⌋` over the row's ≤ 2 column intervals and the `W`
/// are their residue windows.
///
/// With `base = max q_i`, only rows with `q_i ≥ base − 1` can lift a
/// residue above `base`, and by at most two, so three residue masks
/// decide every entry: `hi1` (union of windows of rows at `base`),
/// `hi2` (window intersections of rows at `base`) and `lo2` (window
/// intersections of rows at `base − 1`). Then `f[p]` is `base + 2` on
/// `hi2`, `base + 1` on `hi1 ∪ lo2`, and `base` elsewhere. A row that
/// raises `base` by one demotes `hi2` to `lo2`; by more, it clears all
/// three.
///
/// `hi1` saturates: once it holds all `pes` residues, painting it is a
/// no-op until `base` rises, and `lo2` (which only lifts residues
/// outside `hi1`) is moot. `hi2` and `lo2` never fill, since a wrapped
/// prefix `[0, wrap)` leaves the window `[0, wrap mod P)`, which never
/// holds residue `P − 1`. So the rows that can still change a mask are
/// those with `q ≥ base − 1`, `q ≥ base` once `hi1` is full, and for a
/// row that does not wrap (one window: it can only paint `hi1` or raise
/// `base`) `q ≥ base`, `q ≥ base + 1` once `hi1` is full. As
/// `q ≤ ⌊len/P⌋`, every row shorter than `P` times its bound is skipped
/// on its length alone, before any division; a row shorter than `P`
/// has `q = 0` without dividing.
fn frag_synth_runs(rr: &RowRuns, pes: usize, out: &mut [u32]) {
    let words = pes.div_ceil(64);
    let (mut hi1, mut hi2, mut lo2) = (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
    let mut hi1_full = false;
    let mut base = 0usize;
    // The shortest wrapping and flat row that can change a mask (both
    // at least 1, so empty rows are always skipped).
    let (mut need, mut need_flat) = (1usize, 1usize);
    let cols = rr.cols();
    for (&s, &len) in rr.starts().iter().zip(rr.lens()) {
        let (s, len) = (s as usize, len as usize);
        let wraps = s + len > cols;
        if len < if wraps { need } else { need_flat } {
            continue;
        }
        // The run's body `[s, s + body)` and its wrapped prefix
        // `[0, wrap)`.
        let (body, wrap) = if wraps { (cols - s, s + len - cols) } else { (len, 0) };
        let (q_body, q_wrap) = if len < pes { (0, 0) } else { (body / pes, wrap / pes) };
        let q = q_body + q_wrap;
        if q > base {
            if q == base + 1 {
                std::mem::swap(&mut lo2, &mut hi2);
            } else {
                lo2.fill(0);
            }
            hi1.fill(0);
            hi2.fill(0);
            hi1_full = false;
            base = q;
        } else if q + 1 < base {
            continue;
        }
        let (body_len, wrap_len) = (body - q_body * pes, wrap - q_wrap * pes);
        let top = q == base;
        let paint_hi1 = top && !hi1_full;
        let paint_both = body_len > 0 && wrap_len > 0 && (top || !hi1_full);
        if !(paint_hi1 || paint_both) {
            continue;
        }
        let body_res = if s < pes { s } else { s % pes };
        if paint_hi1 {
            paint_window(&mut hi1, pes, body_res, body_len);
            paint_range(&mut hi1, 0, wrap_len);
            hi1_full = is_full(&hi1, pes);
        }
        if paint_both {
            // The body's window meets the wrapped prefix `[0, wrap_len)`
            // in its part below `pes` and in the part that wraps to 0.
            let both = if top { &mut hi2 } else { &mut lo2 };
            let end = body_res + body_len;
            paint_range(both, body_res, end.min(pes).min(wrap_len));
            if end > pes {
                paint_range(both, 0, (end - pes).min(wrap_len));
            }
        }
        need = (base.saturating_sub(usize::from(!hi1_full)) * pes).max(1);
        need_flat = ((base + usize::from(hi1_full)) * pes).max(1);
    }
    for (p, f) in out[..pes].iter_mut().enumerate() {
        let (w, bit) = (p / 64, 1u64 << (p % 64));
        let lift = if hi2[w] & bit != 0 {
            2
        } else if (hi1[w] | lo2[w]) & bit != 0 {
            1
        } else {
            0
        };
        *f = (base + lift) as u32;
    }
}

/// Whether a multiword mask holds all of residues `0..pes`.
fn is_full(mask: &[u64], pes: usize) -> bool {
    let (last, rest) = mask.split_last().expect("pes > 0");
    let tail = pes % 64;
    rest.iter().all(|&w| w == u64::MAX)
        && *last == if tail == 0 { u64::MAX } else { (1u64 << tail) - 1 }
}

/// Sets the cyclic residue window `[s, s + len)` (mod `pes`, `len <
/// pes`) in a multiword mask.
fn paint_window(mask: &mut [u64], pes: usize, s: usize, len: usize) {
    let e = s + len;
    if e <= pes {
        paint_range(mask, s, e);
    } else {
        paint_range(mask, s, pes);
        paint_range(mask, 0, e - pes);
    }
}

/// Sets bits `[lo, hi)` of a multiword mask.
fn paint_range(mask: &mut [u64], lo: usize, hi: usize) {
    let mut i = lo;
    while i < hi {
        let n = (hi - i).min(64 - i % 64);
        mask[i / 64] |= (u64::MAX >> (64 - n)) << (i % 64);
        i += n;
    }
}

/// True per-residue fragment maxima for a mesh stencil: each row holds
/// at most 7 columns, counted into a tiny residue histogram.
fn frag_synth_mesh(s: &Structure, rows: usize, pes: usize, out: &mut [u32]) {
    let mut buf = [0u32; 7];
    for r in 0..rows {
        let n = s.mesh_row_cols(r, &mut buf);
        let mut res = [(0usize, 0u32); 7];
        let mut m = 0usize;
        for &c in &buf[..n] {
            let p = c as usize % pes;
            if let Some(e) = res[..m].iter_mut().find(|e| e.0 == p) {
                e.1 += 1;
            } else {
                res[m] = (p, 1);
                m += 1;
            }
        }
        for &(p, f) in &res[..m] {
            if f > out[p] {
                out[p] = f;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, CooMatrix};

    #[test]
    fn lengths_and_counts_match_csr() {
        let m = gen::power_law(128, 96, 5.0, 1.4, 3);
        let p = MatrixProfile::build(&m);
        assert!(p.describes(&m));
        assert_eq!(p.row_lens().len(), 128);
        assert_eq!(p.col_counts().len(), 96);
        for r in 0..m.rows() {
            assert_eq!(p.row_lens()[r] as usize, m.row_nnz(r));
        }
        let total: u64 = p.col_counts().iter().map(|&c| c as u64).sum();
        assert_eq!(total, m.nnz() as u64);
    }

    #[test]
    fn summaries_match_direct_computation() {
        let m = gen::imbalanced_rows(200, 300, 0.05, 120, 2, 9);
        let p = MatrixProfile::build(&m);
        let rs = DistSummary::fold((0..m.rows()).map(|r| m.row_nnz(r)));
        assert_eq!(*p.row_summary(), rs);
        assert!(p.row_summary().imbalance() > 1.0);
        assert_eq!(p.col_summary().n, 300);
    }

    #[test]
    fn integer_summaries_equal_the_f64_fold() {
        let big = u32::MAX;
        // 2^53 / 4 = 2^51 = (2^25.5)²: the last row is at, then past, the
        // point where the integer path hands over to the fold.
        let edge = 1u32 << 25;
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0, 0, 0],
            vec![1, 2, 3, 4, 5],
            vec![7; 1000],
            vec![edge; 7],
            vec![edge; 8],
            vec![edge; 9],
            vec![edge + 1, 3, edge - 1, 0],
            vec![big, 1],
            vec![big; 3],
            (0..5000u32).map(|i| i.wrapping_mul(2_654_435_761) >> 12).collect(),
        ];
        for counts in &cases {
            let fold = DistSummary::fold(counts.iter().map(|&c| c as usize));
            let got = DistSummary::of(counts);
            assert_eq!(got.n, fold.n);
            assert_eq!(got.max, fold.max);
            assert_eq!(
                got.mean.to_bits(),
                fold.mean.to_bits(),
                "{:?}",
                &counts[..counts.len().min(4)]
            );
            assert_eq!(
                got.var.to_bits(),
                fold.var.to_bits(),
                "{:?}",
                &counts[..counts.len().min(4)]
            );
        }
    }

    #[test]
    fn run_col_counts_match_the_interval_walk() {
        let rr = RowRuns::new(5, 10, vec![2, 8, u32::MAX, 0, 9], vec![4, 5, 0, 10, 1]);
        let mut walk = vec![0u32; 10];
        for r in 0..rr.rows() {
            for (a, b) in rr.row_intervals(r) {
                walk[a..b].iter_mut().for_each(|c| *c += 1);
            }
        }
        assert_eq!(run_col_counts(&rr), walk);
        assert_eq!(
            run_col_counts(&RowRuns::new(3, 0, vec![0, 7, 0], vec![0; 3])),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn residue_tallies_agree_with_explicit_fold() {
        let m = gen::uniform_random(97, 131, 0.08, 5);
        let pes = 8usize;
        let p = MatrixProfile::build_with_pes(&m, &[pes, pes, 0]);
        assert_eq!(p.tally_pes().collect::<Vec<_>>(), vec![pes]);
        let t = p.tally(pes).expect("tally built");

        let mut len_sum = vec![0u64; pes];
        let mut len_max = vec![0u32; pes];
        for r in 0..m.rows() {
            len_sum[r % pes] += m.row_nnz(r) as u64;
            len_max[r % pes] = len_max[r % pes].max(m.row_nnz(r) as u32);
        }
        assert_eq!(t.row_len_sum, len_sum);
        assert_eq!(t.row_len_max, len_max);

        let mut count = vec![0u64; pes];
        let mut frag_max = vec![0u32; pes];
        for r in 0..m.rows() {
            let mut frag = vec![0u32; pes];
            for (c, _) in m.row(r).iter() {
                frag[c % pes] += 1;
                count[c % pes] += 1;
            }
            for pe in 0..pes {
                frag_max[pe] = frag_max[pe].max(frag[pe]);
            }
        }
        assert_eq!(t.col_count_sum, count);
        assert_eq!(t.row_frag_max, frag_max);
    }

    #[test]
    fn scheduler_split_gates_the_row_side() {
        let m = gen::uniform_random(64, 64, 0.1, 11);
        let p = MatrixProfile::build_with_scheduler_pes(&m, &[4, 6], &[6]);
        assert_eq!(p.tally_pes().collect::<Vec<_>>(), vec![4, 6]);
        let col_only = p.tally(4).unwrap();
        assert!(!col_only.has_row_side());
        assert!(col_only.row_frag_max.is_empty());
        assert!(col_only.row_len_sum.iter().sum::<u64>() > 0);
        let both = p.tally(6).unwrap();
        assert!(both.has_row_side());
        // The row-side aggregates match a full build.
        let full = MatrixProfile::build_with_pes(&m, &[6]);
        assert_eq!(both.row_frag_max, full.tally(6).unwrap().row_frag_max);
        assert_eq!(both.col_count_sum, full.tally(6).unwrap().col_count_sum);
    }

    #[test]
    fn empty_matrix_profiles_cleanly() {
        let m = CsrMatrix::zeros(16, 16);
        let p = MatrixProfile::build_with_pes(&m, &[4]);
        assert_eq!(p.nnz(), 0);
        assert_eq!(p.row_summary().mean, 0.0);
        assert_eq!(p.row_summary().imbalance(), 1.0);
        let t = p.tally(4).unwrap();
        assert!(t.row_len_sum.iter().all(|&s| s == 0));
        assert!(t.row_frag_max.iter().all(|&s| s == 0));

        let zero = CsrMatrix::zeros(0, 0);
        let pz = MatrixProfile::build(&zero);
        assert_eq!(pz.row_summary().n, 0);
    }

    #[test]
    fn synthesized_profile_is_bit_identical_to_built() {
        // Hand-picked structures exercising wraps, full rows, empties,
        // and both mesh stencils, across awkward PE counts.
        let structures = vec![
            Structure::runs(5, 13, vec![0, 11, 6, 0, 12], vec![3, 5, 13, 0, 2]),
            Structure::runs(1, 7, vec![5], vec![6]),
            Structure::empty(4, 9),
            Structure::runs(0, 0, vec![], vec![]),
            Structure::Mesh2d { nx: 4, ny: 3 },
            Structure::Mesh3d { nx: 3, ny: 2, nz: 2 },
        ];
        for s in structures {
            let m = s.materialize(17);
            for (col_pes, row_pes) in
                [(vec![4, 7], vec![7]), (vec![64, 96], vec![96]), (vec![3], vec![3, 5])]
            {
                let built = MatrixProfile::build_with_scheduler_pes(&m, &col_pes, &row_pes);
                let synth = MatrixProfile::synthesize(&s, &col_pes, &row_pes);
                assert_eq!(built, synth, "{s:?} col={col_pes:?} row={row_pes:?}");
                assert!(synth.describes_structure(&s));
            }
        }
    }

    #[test]
    fn single_row_fragments_split_by_residue() {
        // Row 0 holds columns 0..6; with 4 PEs the fragments are
        // {0,4}, {1,5}, {2}, {3} -> frag_max = [2, 2, 1, 1].
        let mut coo = CooMatrix::new(2, 8);
        for c in 0..6 {
            coo.push(0, c, 1.0).unwrap();
        }
        let m = coo.to_csr();
        let p = MatrixProfile::build_with_pes(&m, &[4]);
        let t = p.tally(4).unwrap();
        assert_eq!(t.row_frag_max, vec![2, 2, 1, 1]);
        assert_eq!(t.col_count_sum, vec![2, 2, 1, 1]);
        assert_eq!(t.row_len_sum, vec![6, 0, 0, 0]);
        assert_eq!(t.row_len_max, vec![6, 0, 0, 0]);
    }
}
