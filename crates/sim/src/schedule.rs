//! PE scheduling model with the 2-cycle same-row load/store dependency of
//! Figure 6.
//!
//! The host pre-generates per-PEG pointer lists that assign work to PEs
//! (§3.2.1). Two assignment policies exist (Table 1, "Scheduler A"):
//!
//! - **Column scheduler** (Designs 1/2): whole rows of A are distributed
//!   round-robin across PEs (`row % PE`), so a row's accumulation chain
//!   stays local to one PE and bubbles are filled by interleaving that
//!   PE's other rows.
//! - **Row scheduler** (Design 3): each element goes to PE
//!   `column % PE`, spreading a heavy row's dependency chain across the
//!   whole array.
//!
//! A PE issues one A element per cycle into an 8-lane vector unit; an
//! element occupies `w = ceil(chunk_width / 8)` cycles, where the chunk is
//! the slice of the B row processed this pass. Two issues that accumulate
//! into the same C row must be `dep_distance` cycles apart; when `w`
//! already covers the distance no bubble occurs (dense B hides the
//! latency — §3.2.2's observation that denser workloads schedule better).
//!
//! The minimal schedule length per PE is the classic
//! scheduling-with-cooldown bound: `L = max(total_work, max_row_span)`
//! with `span(row) = sum(w_i) + sum(gaps) - largest_gap`.
//!
//! Two equivalent computations exist:
//!
//! - [`schedule_uniform`] / [`schedule_with_cost`] — the element-walk
//!   **reference**: one O(nnz) traversal of the CSR per call. This is
//!   the ground truth the profiled path is property-tested against.
//! - [`schedule_uniform_profiled`] — the closed-form fold over a
//!   [`MatrixProfile`] residue tally. Under a uniform cost `w` every
//!   gap equals `max(0, d − w)`, so a chunk of `n` same-row elements
//!   spans exactly `n·w + (n−1)·gap` — strictly increasing in `n` —
//!   and a PE's schedule is determined by its element total and its
//!   largest chunk alone. Both are precomputed per PE residue, making
//!   the fold O(PEs) with **zero** CSR traversal.

use crate::design::{DesignConfig, Traversal};
use misam_sparse::simd;
use misam_sparse::{CsrMatrix, CsrRef, MatrixProfile, Structure};

/// Element target per residue-major batch of the Row-traversal fold:
/// rows are grouped until their combined nonzeros reach this, so the
/// lane-mapped residue stream runs over full tiles even when individual
/// rows are short.
const ROW_BATCH_ELEMS: usize = 1 << 12;

/// Per-PE accumulation state while building a schedule.
#[derive(Debug, Clone, Copy, Default)]
struct PeAcc {
    /// Total busy cycles of useful work.
    work: u64,
    /// Largest single-row dependency span seen on this PE.
    max_span: u64,
    /// Number of elements assigned.
    elements: u64,
}

/// Result of scheduling one pass of matrix A across the PE array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleReport {
    /// Makespan in cycles, including the PEG broadcast-chain start skew.
    pub makespan: u64,
    /// Sum of useful-work cycles across all PEs.
    pub total_work: u64,
    /// Total elements scheduled.
    pub elements: u64,
    /// Useful work over `total_pes * makespan` (0 when idle).
    pub utilization: f64,
}

impl ScheduleReport {
    fn from_accs(accs: &[PeAcc], cfg: &DesignConfig) -> Self {
        let pes_per_peg = cfg.pes_per_peg.max(1);
        let mut makespan = 0u64;
        let mut total_work = 0u64;
        let mut elements = 0u64;
        for (p, acc) in accs.iter().enumerate() {
            let peg = (p / pes_per_peg) as u64;
            let len = acc.work.max(acc.max_span);
            // Idle PEGs never enter the broadcast chain's critical path.
            if len > 0 {
                makespan = makespan.max(peg * cfg.broadcast_hop + len);
            }
            total_work += acc.work;
            elements += acc.elements;
        }
        let denom = accs.len() as f64 * makespan as f64;
        let utilization = if denom > 0.0 { total_work as f64 / denom } else { 0.0 };
        ScheduleReport { makespan, total_work, elements, utilization }
    }
}

/// Dependency span of a row whose elements cost `costs` cycles each, with
/// gap `max(0, d - w)` after every issue but the last (the scheduler
/// orders the smallest-cost element last to minimize the trailing gap).
fn row_span(cost_sum: u64, gap_sum: u64, gap_max: u64, count: u64) -> u64 {
    if count == 0 {
        0
    } else {
        cost_sum + gap_sum - gap_max
    }
}

/// Schedules one pass of `a` with a uniform per-element cost `w` (the
/// dense-B case: every element processes the same `ceil(chunk/8)`-cycle
/// vector slice).
///
/// # Panics
///
/// Panics if the design has zero PEs or `w == 0`.
pub fn schedule_uniform(a: &CsrMatrix, cfg: &DesignConfig, w: u64) -> ScheduleReport {
    schedule_uniform_ref(a.as_ref(), cfg, w)
}

/// View-based form of [`schedule_uniform`], bit-identical across
/// storage producers (owned or mmap-backed).
///
/// # Panics
///
/// Panics if the design has zero PEs or `w == 0`.
pub fn schedule_uniform_ref(a: CsrRef<'_>, cfg: &DesignConfig, w: u64) -> ScheduleReport {
    if simd::VECTORIZED {
        schedule_uniform_lanes(a, cfg, w)
    } else {
        schedule_uniform_walk(a, cfg, w)
    }
}

/// Scalar reference for [`schedule_uniform_ref`]: the full element walk
/// through [`schedule_with_cost_ref`]. Always compiled; the `force-scalar`
/// build and the kernel bench use it as the bit-identity oracle.
#[doc(hidden)]
pub fn schedule_uniform_walk(a: CsrRef<'_>, cfg: &DesignConfig, w: u64) -> ScheduleReport {
    assert!(w > 0, "element cost must be positive");
    schedule_with_cost_ref(a, cfg, |_k| w)
}

/// Uniform-cost fast path: under a single cost `w` every gap equals
/// `g = max(0, d − w)`, so a chunk of `n` same-row elements on one PE
/// spans exactly `n·w + (n−1)·g` — the per-element walk collapses to
/// integer folds over row lengths (Col) or per-row residue histograms
/// (Row). Integer sums and maxima are evaluation-order-free, so both
/// folds are bit-identical to [`schedule_uniform_walk`].
#[doc(hidden)]
pub fn schedule_uniform_lanes(a: CsrRef<'_>, cfg: &DesignConfig, w: u64) -> ScheduleReport {
    assert!(w > 0, "element cost must be positive");
    let pes = cfg.total_pes();
    assert!(pes > 0, "design has no PEs");
    let g = cfg.dep_distance.saturating_sub(w);
    let mut accs = vec![PeAcc::default(); pes];

    match cfg.scheduler_a {
        Traversal::Col => {
            // Rows r..r+pes land on PEs 0..pes in order, so cutting the
            // row-length vector into `pes`-wide chunks makes lane `j` of
            // every chunk accumulate into PE `j`: an independent-output
            // fold over `row_ptr` diffs, O(rows) with no CSR element
            // traversal at all.
            let row_ptr = a.row_ptr();
            let rows = a.rows();
            let mut r = 0usize;
            while r + pes <= rows {
                for (j, acc) in accs.iter_mut().enumerate() {
                    let len = (row_ptr[r + j + 1] - row_ptr[r + j]) as u64;
                    // Branchless: len = 0 contributes span 0 either way.
                    let span = len * w + (len.max(1) - 1) * g;
                    acc.work += len * w;
                    acc.elements += len;
                    if span > acc.max_span {
                        acc.max_span = span;
                    }
                }
                r += pes;
            }
            for j in 0..rows - r {
                let len = (row_ptr[r + j + 1] - row_ptr[r + j]) as u64;
                let span = len * w + (len.max(1) - 1) * g;
                let acc = &mut accs[j];
                acc.work += len * w;
                acc.elements += len;
                if span > acc.max_span {
                    acc.max_span = span;
                }
            }
        }
        Traversal::Row => {
            // Residue-major multi-row batching: `col % pes` depends only
            // on the column, so the u32 lane map of
            // [`misam_sparse::simd`] runs over many rows' concatenated
            // elements in one stream — short rows no longer waste
            // partial residue tiles — and the histogram fold below walks
            // per-row segments of the shared residue buffer. The scatter
            // visits elements in exactly the row-at-a-time order and the
            // fold is integer sums/maxima (evaluation-order-free), so
            // the report stays bit-identical to the per-row walk.
            let row_ptr = a.row_ptr();
            let col_idx = a.col_idx();
            let mut count = vec![0u64; pes];
            let mut touched: Vec<usize> = Vec::with_capacity(pes);
            let mut tile = [0u32; simd::RESIDUE_TILE];
            let mut residues: Vec<u32> = Vec::new();
            let mut r = 0usize;
            while r < a.rows() {
                // Whole rows, grown until the batch holds enough
                // elements to keep every residue tile full.
                let base = row_ptr[r];
                let mut r_end = r + 1;
                while r_end < a.rows() && row_ptr[r_end + 1] - base < ROW_BATCH_ELEMS {
                    r_end += 1;
                }
                let batch = &col_idx[base..row_ptr[r_end]];
                residues.clear();
                residues.reserve(batch.len());
                for chunk in batch.chunks(simd::RESIDUE_TILE) {
                    simd::fill_residues(chunk, pes, &mut tile);
                    residues.extend_from_slice(&tile[..chunk.len()]);
                }
                for rr in r..r_end {
                    for &p in &residues[row_ptr[rr] - base..row_ptr[rr + 1] - base] {
                        let p = p as usize;
                        if count[p] == 0 {
                            touched.push(p);
                        }
                        count[p] += 1;
                    }
                    for &p in &touched {
                        let c = count[p];
                        let acc = &mut accs[p];
                        acc.work += c * w;
                        acc.elements += c;
                        let span = c * w + (c - 1) * g;
                        if span > acc.max_span {
                            acc.max_span = span;
                        }
                        count[p] = 0;
                    }
                    touched.clear();
                }
                r = r_end;
            }
        }
    }

    ScheduleReport::from_accs(&accs, cfg)
}

/// Schedules one pass of `a` where the cost of an element in column `k`
/// is `cost(k)` cycles (the compressed-B case: cost tracks the occupancy
/// of B row `k`).
///
/// # Panics
///
/// Panics if the design has zero PEs or any cost is zero.
pub fn schedule_with_cost(
    a: &CsrMatrix,
    cfg: &DesignConfig,
    cost: impl Fn(usize) -> u64,
) -> ScheduleReport {
    schedule_with_cost_ref(a.as_ref(), cfg, cost)
}

/// View-based form of [`schedule_with_cost`] — the element-walk
/// implementation the owned entry point delegates to.
///
/// # Panics
///
/// Panics if the design has zero PEs or any cost is zero.
pub fn schedule_with_cost_ref(
    a: CsrRef<'_>,
    cfg: &DesignConfig,
    cost: impl Fn(usize) -> u64,
) -> ScheduleReport {
    let pes = cfg.total_pes();
    assert!(pes > 0, "design has no PEs");
    let d = cfg.dep_distance;
    let mut accs = vec![PeAcc::default(); pes];

    match cfg.scheduler_a {
        Traversal::Col => {
            // Whole rows round-robin across PEs: all of a row's elements
            // share one PE, so its span is computed in one sweep.
            for r in 0..a.rows() {
                let pe = r % pes;
                let mut cost_sum = 0u64;
                let mut gap_sum = 0u64;
                let mut gap_max = 0u64;
                let mut count = 0u64;
                for (k, _) in a.row(r).iter() {
                    let w = cost(k).max(1);
                    let gap = d.saturating_sub(w);
                    cost_sum += w;
                    gap_sum += gap;
                    gap_max = gap_max.max(gap);
                    count += 1;
                }
                let acc = &mut accs[pe];
                acc.work += cost_sum;
                acc.elements += count;
                acc.max_span = acc.max_span.max(row_span(cost_sum, gap_sum, gap_max, count));
            }
        }
        Traversal::Row => {
            // Elements scatter to PE `col % pes`; a row's chain fragments
            // across PEs, so spans are tracked per (PE, row) with a
            // scratch table reset per row.
            let mut cost_sum = vec![0u64; pes];
            let mut gap_sum = vec![0u64; pes];
            let mut gap_max = vec![0u64; pes];
            let mut count = vec![0u64; pes];
            let mut touched: Vec<usize> = Vec::with_capacity(pes);
            for r in 0..a.rows() {
                for (k, _) in a.row(r).iter() {
                    let pe = k % pes;
                    let w = cost(k).max(1);
                    let gap = d.saturating_sub(w);
                    if count[pe] == 0 {
                        touched.push(pe);
                    }
                    cost_sum[pe] += w;
                    gap_sum[pe] += gap;
                    gap_max[pe] = gap_max[pe].max(gap);
                    count[pe] += 1;
                }
                for &pe in &touched {
                    let acc = &mut accs[pe];
                    acc.work += cost_sum[pe];
                    acc.elements += count[pe];
                    acc.max_span = acc.max_span.max(row_span(
                        cost_sum[pe],
                        gap_sum[pe],
                        gap_max[pe],
                        count[pe],
                    ));
                    cost_sum[pe] = 0;
                    gap_sum[pe] = 0;
                    gap_max[pe] = 0;
                    count[pe] = 0;
                }
                touched.clear();
            }
        }
    }

    ScheduleReport::from_accs(&accs, cfg)
}

/// Closed-form uniform-cost schedule from a profile's residue tally:
/// an O(PEs) fold, bit-identical to [`schedule_uniform`] on the
/// profiled matrix. Returns `None` when the profile holds no tally for
/// the design's PE count — or, for a row traversal, a tally without
/// the row-side fragment maxima — and callers fall back to the element
/// walk.
///
/// # Panics
///
/// Panics if the design has zero PEs or `w == 0`.
pub fn schedule_uniform_profiled(
    profile: &MatrixProfile,
    cfg: &DesignConfig,
    w: u64,
) -> Option<ScheduleReport> {
    assert!(w > 0, "element cost must be positive");
    let pes = cfg.total_pes();
    assert!(pes > 0, "design has no PEs");
    let tally = profile.tally(pes)?;
    let gap = cfg.dep_distance.saturating_sub(w);
    // Span of the PE's largest chunk; spans grow strictly with chunk
    // size (w >= 1), so no smaller chunk can dominate.
    let span = |count: u64| if count == 0 { 0 } else { count * w + (count - 1) * gap };

    let mut accs = vec![PeAcc::default(); pes];
    match cfg.scheduler_a {
        Traversal::Col => {
            for (p, acc) in accs.iter_mut().enumerate() {
                let elems = tally.row_len_sum[p];
                acc.work = elems * w;
                acc.elements = elems;
                acc.max_span = span(tally.row_len_max[p] as u64);
            }
        }
        Traversal::Row => {
            if !tally.has_row_side() {
                return None;
            }
            for (p, acc) in accs.iter_mut().enumerate() {
                let elems = tally.col_count_sum[p];
                acc.work = elems * w;
                acc.elements = elems;
                acc.max_span = span(tally.row_frag_max[p] as u64);
            }
        }
    }
    Some(ScheduleReport::from_accs(&accs, cfg))
}

/// Per-column-cost schedule computed from a [`Structure`] without
/// materializing the matrix — the compressed-B (Design 4) counterpart
/// of [`schedule_uniform_profiled`]. Bit-identical to
/// [`schedule_with_cost`] on the materialized matrix with
/// `cost = |k| table[k]`.
///
/// Closed forms exist only where the dependency gap vanishes: when
/// every clamped column cost is at least `dep_distance`, a row's span
/// is exactly its cost sum, which a prefix-sum table answers in O(1)
/// per run. That always holds for the standard Design 4 configuration
/// (`meta_lookup = 1` puts every cost at ≥ 2 = `dep_distance`).
/// Returns `None` — callers fall back to the element walk — when:
///
/// - the traversal is row-wise (no compressed design schedules rows),
/// - some column cost is below `dep_distance` (gaps would appear).
///
/// Mesh structures are walked virtually (≤ 7 stencil columns per row)
/// with full gap handling, so they never decline for cost reasons.
///
/// # Panics
///
/// Panics if the design has zero PEs or `table.len() < s.cols()`.
pub fn schedule_with_cost_structural(
    s: &Structure,
    cfg: &DesignConfig,
    table: &[u64],
) -> Option<ScheduleReport> {
    let pes = cfg.total_pes();
    assert!(pes > 0, "design has no PEs");
    assert!(table.len() >= s.cols(), "cost table shorter than the column space");
    if cfg.scheduler_a == Traversal::Row {
        return None;
    }
    let d = cfg.dep_distance;
    let mut accs = vec![PeAcc::default(); pes];

    match s {
        Structure::Runs(rr) => {
            // Gap-zero requirement: with every cost >= d the span of a
            // row equals its cost sum, making runs prefix-summable.
            if table[..s.cols()].iter().any(|&c| c.max(1) < d) {
                return None;
            }
            let mut prefix = Vec::with_capacity(s.cols() + 1);
            let mut acc = 0u64;
            prefix.push(0u64);
            for &c in &table[..s.cols()] {
                acc += c.max(1);
                prefix.push(acc);
            }
            // Row `r` runs on PE `r % pes`, counted instead of divided.
            let mut pe = 0;
            for r in 0..rr.rows() {
                let mut cost_sum = 0u64;
                for (lo, hi) in rr.row_intervals(r) {
                    cost_sum += prefix[hi] - prefix[lo];
                }
                let count = rr.lens()[r] as u64;
                let acc = &mut accs[pe];
                acc.work += cost_sum;
                acc.elements += count;
                // Zero gaps: row_span(cost_sum, 0, 0, count) = cost_sum.
                acc.max_span = acc.max_span.max(row_span(cost_sum, 0, 0, count));
                pe = if pe + 1 == pes { 0 } else { pe + 1 };
            }
        }
        Structure::Mesh2d { .. } | Structure::Mesh3d { .. } => {
            let mut buf = [0u32; 7];
            let mut pe = 0;
            for r in 0..s.rows() {
                let n = s.mesh_row_cols(r, &mut buf);
                let mut cost_sum = 0u64;
                let mut gap_sum = 0u64;
                let mut gap_max = 0u64;
                for &k in &buf[..n] {
                    let w = table[k as usize].max(1);
                    let gap = d.saturating_sub(w);
                    cost_sum += w;
                    gap_sum += gap;
                    gap_max = gap_max.max(gap);
                }
                let acc = &mut accs[pe];
                acc.work += cost_sum;
                acc.elements += n as u64;
                acc.max_span = acc.max_span.max(row_span(cost_sum, gap_sum, gap_max, n as u64));
                pe = if pe + 1 == pes { 0 } else { pe + 1 };
            }
        }
    }

    Some(ScheduleReport::from_accs(&accs, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignId;
    use misam_sparse::{gen, CooMatrix};

    fn cfg(id: DesignId) -> DesignConfig {
        DesignConfig::of(id)
    }

    /// Single row with n elements on one PE at cost 1 must respect the
    /// 2-cycle dependency: span = n + (n-1)*(d-1) = 2n - 1.
    #[test]
    fn single_row_dependency_chain_serializes() {
        let mut coo = CooMatrix::new(1, 100);
        for c in 0..10 {
            coo.push(0, c, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let r = schedule_uniform(&a, &cfg(DesignId::D1), 1);
        assert_eq!(r.makespan, 2 * 10 - 1);
        assert_eq!(r.total_work, 10);
    }

    #[test]
    fn wide_elements_hide_dependency_gaps() {
        let mut coo = CooMatrix::new(1, 100);
        for c in 0..10 {
            coo.push(0, c, 1.0).unwrap();
        }
        let a = coo.to_csr();
        // w = 2 >= dep_distance, so no bubbles: span = 20.
        let r = schedule_uniform(&a, &cfg(DesignId::D1), 2);
        assert_eq!(r.makespan, 20);
    }

    #[test]
    fn row_scheduler_spreads_a_heavy_row() {
        // One heavy row of 96 elements: column scheduler pins it to a
        // single PE (span 191); row scheduler spreads it across 96 PEs.
        let mut coo = CooMatrix::new(1, 96);
        for c in 0..96 {
            coo.push(0, c, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let col = schedule_uniform(&a, &cfg(DesignId::D2), 1);
        let row = schedule_uniform(&a, &cfg(DesignId::D3), 1);
        assert_eq!(col.makespan, 2 * 96 - 1);
        // Row scheduler: 1 element per PE, plus broadcast skew of the
        // last PEG: (24-1)*4 + 1.
        assert_eq!(row.makespan, 23 * 4 + 1);
        assert!(row.makespan < col.makespan);
    }

    #[test]
    fn interleaving_rows_fills_bubbles() {
        // Two rows of 8 elements each mapping to the same PE of D1
        // (rows 0 and 64 with 64 PEs): work 16 >= span 15 -> no bubbles.
        let mut coo = CooMatrix::new(65, 100);
        for c in 0..8 {
            coo.push(0, c, 1.0).unwrap();
            coo.push(64, c, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let r = schedule_uniform(&a, &cfg(DesignId::D1), 1);
        assert_eq!(r.makespan, 16);
    }

    #[test]
    fn makespan_includes_broadcast_skew() {
        // Element on the last PE of D1 (row 63 -> PE 63 -> PEG 15).
        let mut coo = CooMatrix::new(64, 4);
        coo.push(63, 0, 1.0).unwrap();
        let a = coo.to_csr();
        let r = schedule_uniform(&a, &cfg(DesignId::D1), 1);
        assert_eq!(r.makespan, 15 * 4 + 1);
    }

    #[test]
    fn empty_matrix_schedules_to_zero() {
        let a = CsrMatrix::zeros(32, 32);
        let r = schedule_uniform(&a, &cfg(DesignId::D2), 4);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.utilization, 0.0);
    }

    #[test]
    fn utilization_is_work_over_capacity() {
        let a = gen::uniform_random(256, 256, 0.1, 1);
        let r = schedule_uniform(&a, &cfg(DesignId::D1), 4);
        let expect = r.total_work as f64 / (64.0 * r.makespan as f64);
        assert!((r.utilization - expect).abs() < 1e-12);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
    }

    #[test]
    fn per_column_costs_apply_to_cost_schedule() {
        // Two elements in row 0, columns 0 and 5; column 5 costs 7.
        let mut coo = CooMatrix::new(1, 8);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 5, 1.0).unwrap();
        let a = coo.to_csr();
        let r = schedule_with_cost(&a, &cfg(DesignId::D1), |k| if k == 5 { 7 } else { 1 });
        // Costs 1 and 7: order the cheap one last -> span = 7 + 1 + gap
        // after the 7-cost issue (0) = 8; work = 8.
        assert_eq!(r.makespan, 8);
        assert_eq!(r.total_work, 8);
    }

    #[test]
    fn more_pes_shorten_throughput_bound_schedules() {
        let a = gen::uniform_random(1024, 1024, 0.05, 2);
        let d1 = schedule_uniform(&a, &cfg(DesignId::D1), 8);
        let d2 = schedule_uniform(&a, &cfg(DesignId::D2), 8);
        assert!(d2.makespan < d1.makespan, "96 PEs should beat 64 when throughput-bound");
    }

    #[test]
    fn profiled_fold_matches_element_walk() {
        let mats = [
            gen::uniform_random(512, 512, 0.03, 21),
            gen::power_law(400, 300, 6.0, 1.4, 22),
            gen::imbalanced_rows(256, 1024, 0.03, 500, 2, 23),
            CsrMatrix::zeros(64, 64),
        ];
        for a in &mats {
            let p = MatrixProfile::build_with_pes(a, &crate::design::design_pe_counts());
            for id in DesignId::ALL {
                let c = cfg(id);
                for w in [1, 2, 7, 64] {
                    let walk = schedule_uniform(a, &c, w);
                    let fold = schedule_uniform_profiled(&p, &c, w).expect("tally present");
                    assert_eq!(walk, fold, "design {id}, w={w}");
                }
            }
        }
    }

    #[test]
    fn profiled_without_tally_returns_none() {
        let a = gen::uniform_random(32, 32, 0.1, 3);
        let p = MatrixProfile::build(&a);
        assert!(schedule_uniform_profiled(&p, &cfg(DesignId::D1), 4).is_none());
    }

    #[test]
    fn row_traversal_without_row_side_returns_none() {
        // A col-side-only tally must not silently schedule a row
        // traversal with missing fragment maxima.
        let a = gen::uniform_random(32, 32, 0.1, 3);
        let d3 = cfg(DesignId::D3);
        let p = MatrixProfile::build_with_scheduler_pes(&a, &[d3.total_pes()], &[]);
        assert!(schedule_uniform_profiled(&p, &d3, 4).is_none());
        assert!(schedule_uniform_profiled(&p, &cfg(DesignId::D2), 4).is_some());
    }

    #[test]
    fn structural_cost_schedule_matches_element_walk() {
        // Gap-free tables (every cost >= dep_distance = 2), as Design 4
        // produces: the structural run-based schedule must be
        // bit-identical to walking the materialized matrix.
        let lazies = [
            gen::uniform_random_lazy(300, 280, 0.05, 41),
            gen::power_law_lazy(250, 250, 6.0, 1.4, 42),
            gen::banded_lazy(200, 200, 9, 0.7, 43),
            gen::imbalanced_rows_lazy(150, 400, 0.05, 120, 2, 44),
            gen::mesh2d_lazy(13, 11),
            gen::mesh3d_lazy(5, 4, 3),
        ];
        let c4 = cfg(DesignId::D4);
        for lazy in &lazies {
            let cols = lazy.cols();
            let table: Vec<u64> = (0..cols).map(|k| 2 + (k as u64 * 7) % 9).collect();
            let walk = schedule_with_cost(lazy.materialize(), &c4, |k| table[k]);
            let fold = schedule_with_cost_structural(lazy.structure(), &c4, &table)
                .expect("gap-free table must fold");
            assert_eq!(walk, fold);
        }
    }

    #[test]
    fn structural_cost_schedule_declines_gapped_tables_and_row_traversal() {
        let lazy = gen::uniform_random_lazy(64, 64, 0.1, 45);
        let gapped: Vec<u64> = vec![1; 64]; // cost 1 < dep_distance 2
        assert!(
            schedule_with_cost_structural(lazy.structure(), &cfg(DesignId::D4), &gapped).is_none()
        );
        let flat: Vec<u64> = vec![4; 64];
        assert!(
            schedule_with_cost_structural(lazy.structure(), &cfg(DesignId::D3), &flat).is_none()
        );
        // Mesh structures keep full gap handling, so gapped tables fold.
        let mesh = gen::mesh2d_lazy(8, 8);
        let mesh_table: Vec<u64> = vec![1; 64];
        let walk = schedule_with_cost(mesh.materialize(), &cfg(DesignId::D4), |_| 1);
        let fold = schedule_with_cost_structural(mesh.structure(), &cfg(DesignId::D4), &mesh_table)
            .expect("mesh folds regardless of gaps");
        assert_eq!(walk, fold);
    }

    /// The uniform fast path (closed-form Col fold, residue-histogram
    /// Row fold) must be bit-identical to the element walk on every
    /// design, including empty matrices and row counts that are not a
    /// multiple of the PE count.
    #[test]
    #[cfg(not(feature = "force-scalar"))]
    fn uniform_lanes_match_element_walk() {
        let mats = [
            gen::uniform_random(513, 512, 0.03, 31),
            gen::power_law(97, 300, 6.0, 1.4, 32),
            gen::imbalanced_rows(255, 1024, 0.03, 500, 2, 33),
            CsrMatrix::zeros(64, 64),
            gen::uniform_random(63, 64, 0.2, 34),
        ];
        for a in &mats {
            for id in DesignId::ALL {
                let c = cfg(id);
                for w in [1, 2, 7, 64] {
                    let walk = schedule_uniform_walk(a.as_ref(), &c, w);
                    let lanes = schedule_uniform_lanes(a.as_ref(), &c, w);
                    assert_eq!(walk, lanes, "design {id}, w={w}");
                }
            }
        }
    }

    #[test]
    fn imbalanced_matrix_prefers_row_scheduler() {
        let a = gen::imbalanced_rows(512, 2048, 0.02, 800, 3, 11);
        let col = schedule_uniform(&a, &cfg(DesignId::D2), 1);
        let row = schedule_uniform(&a, &cfg(DesignId::D3), 1);
        assert!(
            row.makespan < col.makespan,
            "row scheduler {row:?} should beat column {col:?} under imbalance"
        );
    }
}
