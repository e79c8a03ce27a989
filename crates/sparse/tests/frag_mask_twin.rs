//! Twin test for the row-side fragment maxima of
//! `MatrixProfile::synthesize`: the coverage-mask derivation in the
//! library must equal the arc-sweep derivation it replaced (kept here
//! verbatim as the reference), at every PE count, including 1 and
//! counts past 128 where the reference switches to its event sweep.
//!
//! `structure_equivalence.rs` checks synthesis against a profile built
//! from the materialized matrix at the design PE counts; this file
//! covers arbitrary run tables and PE counts cheaply, with no
//! materialization.

use misam_sparse::gen;
use misam_sparse::structure::{RowRuns, Structure};
use misam_sparse::MatrixProfile;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// PE counts compared on every case: 1, small and odd counts, the
/// design counts, counts either side of a mask word's end (63, 65, 127,
/// 129: the last word partial), the 128 edge of the reference's mask
/// path and wider.
const PES: &[usize] = &[1, 2, 3, 7, 63, 64, 65, 96, 127, 128, 129, 200, 256];

/// PE counts the saturation cases are built for.
const SATURATION_PES: &[usize] = &[63, 64, 65, 96, 127, 128, 129];

/// The arc-sweep derivation of the per-residue fragment maxima: the upper
/// envelope over rows of `⌊L_i/P⌋ + [p ∈ W_i1] + [p ∈ W_i2]`, where the
/// `W` are the residue windows of the row's ≤ 2 column intervals.
fn frag_max_by_arcs(rr: &RowRuns, pes: usize, out: &mut [u32]) {
    let mut base = 0u64;
    // `arcs1` carries each row's floor value over the union of its
    // windows (+1 layer); `arcs2` carries it over their intersection
    // (+2 layer). A max-sweep tolerates overlapping arcs from one row,
    // so the union needs no explicit arc arithmetic.
    let mut arcs1: Vec<(usize, usize, u64)> = Vec::new();
    let mut arcs2: Vec<(usize, usize, u64)> = Vec::new();
    for r in 0..rr.rows() {
        let [i0, i1] = rr.row_intervals(r);
        let (l0, l1) = (i0.1 - i0.0, i1.1 - i1.0);
        if l0 + l1 == 0 {
            continue;
        }
        let q = (l0 / pes + l1 / pes) as u64;
        if q > base {
            base = q;
        }
        let w0 = (i0.0 % pes, l0 % pes);
        let w1 = (i1.0 % pes, l1 % pes);
        for &(ws, wl) in &[w0, w1] {
            if wl > 0 {
                arcs1.push((ws, wl, q));
            }
        }
        if w0.1 > 0 && w1.1 > 0 {
            cyclic_intersect(w0, w1, pes, |s, l| arcs2.push((s, l, q)));
        }
    }
    let g1 = arc_max(pes, &arcs1);
    let g2 = arc_max(pes, &arcs2);
    for p in 0..pes {
        let mut f = base;
        if let Some(v) = g1[p] {
            f = f.max(v + 1);
        }
        if let Some(v) = g2[p] {
            f = f.max(v + 2);
        }
        out[p] = f as u32;
    }
}

/// Intersection of two cyclic residue windows (`len < pes`), emitted as
/// up to two arcs via the unrolled line `[0, 2·pes)`.
fn cyclic_intersect(
    w1: (usize, usize),
    w2: (usize, usize),
    pes: usize,
    mut push: impl FnMut(usize, usize),
) {
    let (a1, b1) = (w1.0 as i64, (w1.0 + w1.1) as i64);
    let (a2, b2) = (w2.0 as i64, (w2.0 + w2.1) as i64);
    let p = pes as i64;
    for k in [-1i64, 0, 1] {
        let lo = a1.max(a2 + k * p);
        let hi = b1.min(b2 + k * p);
        if hi > lo {
            push((lo % p) as usize, (hi - lo) as usize);
        }
    }
}

/// Per-residue maximum value over a set of cyclic arcs (`None` where no
/// arc covers the residue).
///
/// For `pes <= 128` (every design in the paper) residues fit in a
/// `u128` coverage mask, so arcs are painted in descending value order:
/// the first arc to touch a residue fixes its maximum, and the whole
/// pass stops as soon as every residue is covered. Values cluster
/// heavily (sparse rows all carry floor value 0), so the descending
/// order comes from tiny per-value buckets — or a single direct pass
/// when only one value occurs. Wider arrays fall back to the event
/// sweep in [`arc_max_sweep`].
fn arc_max(pes: usize, arcs: &[(usize, usize, u64)]) -> Vec<Option<u64>> {
    if pes > 128 {
        return arc_max_sweep(pes, arcs);
    }
    let mut out = vec![None; pes];
    if arcs.is_empty() {
        return out;
    }
    let ones = |x: usize| -> u128 {
        if x >= 128 {
            !0
        } else {
            (1u128 << x) - 1
        }
    };
    let mut uncovered = ones(pes);
    let paint = |s: usize, l: usize, v: u64, uncovered: &mut u128, out: &mut [Option<u64>]| {
        debug_assert!(s < pes && l > 0 && l < pes);
        let e = s + l;
        let m = if e <= pes { ones(l) << s } else { ones(e - pes) | (ones(pes - s) << s) };
        let mut new = m & *uncovered;
        *uncovered &= !new;
        while new != 0 {
            out[new.trailing_zeros() as usize] = Some(v);
            new &= new - 1;
        }
    };
    let vmax = arcs.iter().map(|a| a.2).max().unwrap();
    let vmin = arcs.iter().map(|a| a.2).min().unwrap();
    if vmin == vmax {
        // Single value: any cover order works.
        for &(s, l, _) in arcs {
            paint(s, l, vmax, &mut uncovered, &mut out);
            if uncovered == 0 {
                break;
            }
        }
        return out;
    }
    if vmax - vmin >= 4096 {
        // Pathologically wide value range: bucketing would allocate
        // more than the sweep costs.
        return arc_max_sweep(pes, arcs);
    }
    // Bucket by value (s and l fit in a byte since pes <= 128), then
    // paint high to low.
    let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); (vmax - vmin) as usize + 1];
    for &(s, l, v) in arcs {
        buckets[(v - vmin) as usize].push((s as u16) | ((l as u16) << 8));
    }
    'outer: for (i, bucket) in buckets.iter().enumerate().rev() {
        let v = vmin + i as u64;
        for &packed in bucket {
            paint((packed & 0xff) as usize, (packed >> 8) as usize, v, &mut uncovered, &mut out);
            if uncovered == 0 {
                break 'outer;
            }
        }
    }
    out
}

/// Event-sweep fallback for [`arc_max`] on arrays wider than 128 PEs:
/// add/remove events per residue against a value multiset.
fn arc_max_sweep(pes: usize, arcs: &[(usize, usize, u64)]) -> Vec<Option<u64>> {
    let mut add: Vec<Vec<u64>> = vec![Vec::new(); pes];
    let mut rem: Vec<Vec<u64>> = vec![Vec::new(); pes];
    for &(s, l, v) in arcs {
        debug_assert!(s < pes && l > 0 && l < pes);
        let e = s + l;
        if e <= pes {
            add[s].push(v);
            if e < pes {
                rem[e].push(v);
            }
        } else {
            // Wrapping arc: tail [s, pes) stays active to the end of
            // the sweep; head [0, e-pes) is active from the start.
            add[s].push(v);
            add[0].push(v);
            rem[e - pes].push(v);
        }
    }
    let mut ms: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out = vec![None; pes];
    for p in 0..pes {
        for &v in &rem[p] {
            match ms.get_mut(&v) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    ms.remove(&v);
                }
            }
        }
        for &v in &add[p] {
            *ms.entry(v).or_insert(0) += 1;
        }
        out[p] = ms.keys().next_back().copied();
    }
    out
}

fn assert_twin(s: &Structure, ctx: &str) {
    let rr = s.as_runs().expect("run structure");
    let profile = MatrixProfile::synthesize(s, &[], PES);
    for &pes in PES {
        let mut want = vec![0u32; pes];
        if rr.nnz() > 0 {
            frag_max_by_arcs(rr, pes, &mut want);
        }
        let got = &profile.tally(pes).expect("row-side tally").row_frag_max;
        assert_eq!(got, &want, "{ctx}: fragment maxima differ at {pes} PEs");
    }
}

/// A run table from raw draws: starts reduced mod `cols`, lengths mod
/// `cols + 1`, so empty, full and wrapping rows all occur.
fn runs(cols: usize, draws: &[(u32, u32, u32)], long: u32) -> Structure {
    let c = cols as u32;
    let (starts, lens): (Vec<u32>, Vec<u32>) = draws
        .iter()
        .map(|&(s, l, kind)| {
            // A third of the rows draw short lengths, so many rows share
            // a floor value and window unions and intersections matter.
            let len = if kind == 0 { l % (long + 1) } else { l % (c + 1) };
            (s % c, len.min(c))
        })
        .unzip();
    Structure::runs(draws.len(), cols, starts, lens)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mask_derivation_matches_the_arc_sweep_on_raw_runs(
        cols in 1usize..700,
        draws in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 0u32..3), 0..120),
        long in 0u32..300,
    ) {
        assert_twin(&runs(cols, &draws, long), "raw runs");
    }

    #[test]
    fn mask_derivation_matches_the_arc_sweep_on_families(
        family in 0usize..6,
        rows in 1usize..400,
        cols in 1usize..600,
        density in 0.0f64..0.6,
        seed in 0u64..1_000_000,
    ) {
        let (name, build) = gen::FAMILIES[family];
        assert_twin(build(rows, cols, density, seed).structure(), name);
    }
}

#[test]
fn floor_values_far_apart_match_the_reference() {
    // Floor values 4096 apart send the reference's mask path to its
    // event sweep; rows below base − 1 must not lift anything.
    let s = Structure::runs(4, 10_000, vec![3, 9000, 17, 9999], vec![1, 9001, 3, 9000]);
    assert_twin(&s, "wide floor range");
    // Raising base by exactly one demotes the top intersections.
    let s = Structure::runs(3, 20, vec![15, 18, 0], vec![9, 10, 1]);
    assert_twin(&s, "base raised by one");
    assert_twin(&Structure::empty(6, 9), "all rows empty");
}

/// Runs added one at a time, each a `(start, len)` pair.
struct Rows {
    cols: usize,
    runs: Vec<(u32, u32)>,
}

impl Rows {
    fn new(cols: usize) -> Self {
        Rows { cols, runs: Vec::new() }
    }

    /// A run that does not wrap.
    fn flat(&mut self, s: usize, len: usize) -> &mut Self {
        assert!(s + len <= self.cols);
        self.runs.push((s as u32, len as u32));
        self
    }

    /// A run with `body` columns before the last one and `wrap` after
    /// it, wrapped to column 0.
    fn wrapped(&mut self, body: usize, wrap: usize) -> &mut Self {
        assert!(body > 0 && wrap > 0 && body + wrap <= self.cols);
        self.runs.push(((self.cols - body) as u32, (body + wrap) as u32));
        self
    }

    /// Two flat runs at floor value `q` whose windows `[0, P − 1)` and
    /// `[1, P)` cover every residue, filling `hi1`.
    fn fill_hi1(&mut self, pes: usize, q: usize) -> &mut Self {
        self.flat(0, q * pes + pes - 1).flat(1, q * pes + pes - 1)
    }

    fn structure(&self, rows: usize) -> Structure {
        let (starts, lens) = self.runs[..rows].iter().copied().unzip();
        Structure::runs(rows, self.cols, starts, lens)
    }

    /// The twin check on every prefix of the rows, so each state the
    /// sweep passes through is compared.
    fn assert_every_prefix(&self, ctx: &str) {
        for rows in 1..=self.runs.len() {
            assert_twin(&self.structure(rows), &format!("{ctx}, first {rows} rows"));
        }
    }

    /// The reference maxima at `pes` PEs over the first `rows` rows.
    fn reference(&self, rows: usize, pes: usize) -> Vec<u32> {
        let s = self.structure(rows);
        let mut f = vec![0u32; pes];
        frag_max_by_arcs(s.as_runs().unwrap(), pes, &mut f);
        f
    }
}

/// Rows that fill `hi1` at floor value 0, then wrapped rows (which only
/// the intersection masks take) and short rows after it is full.
fn filled_at_zero(pes: usize) -> Rows {
    let mut r = Rows::new(4 * pes + 8);
    r.fill_hi1(pes, 0);
    // Every residue reads base + 1: `hi1` is full.
    assert_eq!(r.reference(2, pes), vec![1; pes], "hi1 full at {pes} PEs");
    r.wrapped(5, 7).wrapped(3, 2).flat(10, 3).flat(20, pes - 1).wrapped(pes - 2, 1);
    r
}

#[test]
fn a_full_mask_then_base_raised_by_one() {
    for &pes in SATURATION_PES {
        let mut r = filled_at_zero(pes);
        // Floor value 1: `hi2` of the zero rows is demoted to `lo2`.
        r.flat(0, pes + 3);
        // A zero row paints `lo2` while `hi1` is not yet full.
        r.wrapped(4, 9);
        let n = r.runs.len();
        r.fill_hi1(pes, 1);
        assert!(r.reference(n + 2, pes).iter().all(|&f| f >= 2), "hi1 full at 1, {pes} PEs");
        // Zero rows after that change nothing; rows at 1 still lift
        // their intersections to 3.
        r.wrapped(6, 10).wrapped(7, pes + 5).wrapped(pes - 1, pes + pes / 2);
        r.assert_every_prefix(&format!("base raised by one, {pes} PEs"));
    }
}

#[test]
fn a_full_mask_then_base_raised_by_two() {
    for &pes in SATURATION_PES {
        let mut r = filled_at_zero(pes);
        // Floor value 2 clears all three masks.
        r.flat(0, 2 * pes + 1);
        // Rows at 1 paint `lo2`; rows at 0 are below base − 1.
        r.wrapped(5, pes + 3).wrapped(9, 4).flat(3, pes + 1);
        let n = r.runs.len();
        r.fill_hi1(pes, 2);
        assert!(r.reference(n + 2, pes).iter().all(|&f| f >= 3), "hi1 full at 2, {pes} PEs");
        r.wrapped(5, pes + 6).wrapped(11, 2 * pes + 3).flat(7, 2 * pes);
        r.assert_every_prefix(&format!("base raised by two, {pes} PEs"));
    }
}

#[test]
fn wrapped_rows_after_a_full_mask() {
    for &pes in SATURATION_PES {
        let mut r = filled_at_zero(pes);
        // Many wrapped rows at base and below it, arriving while `hi1`
        // stays full: every body length and a spread of wraps.
        for body in 1..pes {
            r.wrapped(body, 1 + (body * 7) % (pes - 1));
        }
        r.assert_every_prefix(&format!("wrapped after full, {pes} PEs"));
    }
}
