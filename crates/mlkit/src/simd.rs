//! Lane-oriented kernels for the frontier tree walk.
//!
//! Every kernel exists in two always-compiled forms following the same
//! convention as `misam_sparse::simd`:
//!
//! - `foo_scalar` — the portable reference, preserved exactly as the
//!   pre-vectorization code wrote it. It is the proptest oracle and the
//!   only form the `force-scalar` build dispatches to.
//! - `foo_lanes` — a branchless fixed-width rewrite the autovectorizer
//!   can lower, with an explicit AVX2 path (runtime-detected) where the
//!   data movement cannot be expressed branchlessly in safe scalar code
//!   (the packed partition compaction). `partition_avx2` is the crate's
//!   only `unsafe` code.
//!
//! All outputs are bit-identical between forms: the kernels here move
//! and compare values — they never reassociate a floating-point
//! accumulation. The partition keeps the exact `!(x <= t)` NaN-descends-
//! right semantics of the per-row tree walks (`_CMP_LE_OQ` under AVX2).

/// True when the lane kernels are dispatched; `false` under the
/// `force-scalar` feature, which pins every entry point to the scalar
/// reference forms.
pub const VECTORIZED: bool = cfg!(not(feature = "force-scalar"));

/// Stably partitions `idx[lo..hi]` by `col[r] <= t`: rows answering
/// "left" are compacted in place to `idx[lo..nl]`, rows answering
/// "right" (including NaN) are written in order to `scratch[..hi - nl]`.
/// Returns `nl`. Relative order is preserved on both sides — the
/// invariant the frontier walk's prefetch-friendly descent relies on.
///
/// # Panics
///
/// Panics if `hi > idx.len()`, `scratch.len() < hi - lo`, or any row in
/// `idx[lo..hi]` is out of range for `col`.
#[inline]
pub fn partition_segment(
    col: &[f64],
    t: f64,
    idx: &mut [u32],
    scratch: &mut [u32],
    lo: usize,
    hi: usize,
) -> usize {
    if VECTORIZED {
        partition_segment_lanes(col, t, idx, scratch, lo, hi)
    } else {
        partition_segment_scalar(col, t, idx, scratch, lo, hi)
    }
}

/// Scalar reference for [`partition_segment`]: the original branchy
/// stable partition. Always compiled; the kernel bench uses it as the
/// frontier-walk baseline, so it stays out of line: inlined into the
/// generic walk it compiled measurably slower, which would flatter the
/// lane form.
#[inline(never)]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn partition_segment_scalar(
    col: &[f64],
    t: f64,
    idx: &mut [u32],
    scratch: &mut [u32],
    lo: usize,
    hi: usize,
) -> usize {
    let mut nl = lo;
    let mut nr = 0usize;
    for k in lo..hi {
        let r = idx[k];
        if !(col[r as usize] <= t) {
            scratch[nr] = r;
            nr += 1;
        } else {
            // In-place compaction is safe: the write index never
            // passes the read index (`nl <= k`).
            idx[nl] = r;
            nl += 1;
        }
    }
    nl
}

/// Lane form of [`partition_segment`]: an AVX2 gather/compare/compact
/// body when the CPU has it, otherwise a branchless scalar loop whose
/// unconditional stores with conditional cursor advances remove the
/// split-direction branch the predictor cannot learn.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn partition_segment_lanes(
    col: &[f64],
    t: f64,
    idx: &mut [u32],
    scratch: &mut [u32],
    lo: usize,
    hi: usize,
) -> usize {
    assert!(hi <= idx.len() && scratch.len() >= hi - lo, "partition buffers too short");
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        // The gather takes signed 32-bit indices, so columns past
        // `i32::MAX` rows (and empty ones) stay on the portable path.
        let gatherable = !col.is_empty() && col.len() <= i32::MAX as usize;
        if hi - lo >= 8 && gatherable && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected, `lo <= hi <= idx.len()` and
            // `scratch.len() >= hi - lo` were asserted on entry, and
            // `1 <= col.len() <= i32::MAX` was checked above — all of
            // `partition_avx2`'s preconditions.
            return unsafe { x86::partition_avx2(col, t, idx, scratch, lo, hi) };
        }
    }
    partition_branchless(col, t, idx, scratch, lo, hi, lo)
}

/// Branchless partition body shared by the portable lane path and the
/// AVX2 tail: both sides store unconditionally and advance their cursor
/// by the comparison bit. The in-place store is safe for the same
/// reason as the branchy form — `nl <= k` always.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn partition_branchless(
    col: &[f64],
    t: f64,
    idx: &mut [u32],
    scratch: &mut [u32],
    k0: usize,
    hi: usize,
    nl0: usize,
) -> usize {
    let mut nl = nl0;
    let mut nr = k0 - nl0;
    for k in k0..hi {
        let r = idx[k];
        let right = !(col[r as usize] <= t);
        idx[nl] = r;
        scratch[nr] = r;
        nl += usize::from(!right);
        nr += usize::from(right);
    }
    nl
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod x86 {
    use core::arch::x86_64::*;

    /// Shuffle controls packing the set lanes of a 4-bit mask (as four
    /// u32s) to the front, in ascending lane order; unused bytes zero
    /// the slot (`0x80`), which the cursor advance masks out.
    const PACK: [[u8; 16]; 16] = {
        let mut t = [[0x80u8; 16]; 16];
        let mut m = 0;
        while m < 16 {
            let mut dst = 0;
            let mut lane = 0;
            while lane < 4 {
                if m & (1 << lane) != 0 {
                    let mut b = 0;
                    while b < 4 {
                        t[m][dst * 4 + b] = (lane * 4 + b) as u8;
                        b += 1;
                    }
                    dst += 1;
                }
                lane += 1;
            }
            m += 1;
        }
        t
    };

    /// Four rows per iteration: gather their column values, compare
    /// against the broadcast threshold (`_CMP_LE_OQ` — NaN compares
    /// false and goes right, matching `!(x <= t)`), then byte-shuffle
    /// the row quads into packed left/right stores.
    ///
    /// The hardware gather has no bounds check, so every row is clamped
    /// to the column's last index before it is gathered (a no-op for a
    /// valid row) while the largest row seen is tracked; an out-of-range
    /// row therefore never reads outside `col`, and the function panics
    /// before returning, like the scalar forms. Both cost one vector op
    /// per quad instead of a separate pass over the segment.
    ///
    /// The packed stores write a full 16 bytes while the cursors advance
    /// only by the popcount. That never clobbers unread input: the left
    /// store lands at `nl <= k` (over-written bytes sit below the next
    /// read at `k + 4`), and both stores stay in bounds because
    /// `nl + 4 <= k + 4 <= hi <= idx.len()` and
    /// `nr + 4 <= (k - lo) + 4 <= hi - lo <= scratch.len()`.
    ///
    /// # Safety
    ///
    /// The caller must ensure:
    ///
    /// - the CPU supports AVX2;
    /// - `lo <= hi <= idx.len()`, so every quad load from `idx` is in
    ///   bounds;
    /// - `scratch.len() >= hi - lo`, so every packed right-side store is
    ///   in bounds;
    /// - `1 <= col.len() <= i32::MAX`, so every clamped row is a
    ///   non-negative signed gather index inside `col`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn partition_avx2(
        col: &[f64],
        t: f64,
        idx: &mut [u32],
        scratch: &mut [u32],
        lo: usize,
        hi: usize,
    ) -> usize {
        let tv = _mm256_set1_pd(t);
        let last = _mm_set1_epi32((col.len() - 1) as i32);
        let mut seen = _mm_setzero_si128();
        let mut nl = lo;
        let mut nr = 0usize;
        let mut k = lo;
        while k + 4 <= hi {
            // SAFETY: `k + 4 <= hi <= idx.len()`, so the 16-byte load
            // reads four in-bounds row indices.
            let rows = unsafe { _mm_loadu_si128(idx.as_ptr().add(k) as *const __m128i) };
            seen = _mm_max_epu32(seen, rows);
            let clamped = _mm_min_epu32(rows, last);
            // SAFETY: every clamped row is in `0..col.len()` (the
            // `col.len()` precondition), and scale 8 matches the `f64`
            // element width.
            let vals = unsafe { _mm256_i32gather_pd::<8>(col.as_ptr(), clamped) };
            let left = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(vals, tv)) as usize & 0xF;
            // SAFETY: `PACK` rows are 16 bytes, exactly one load.
            let lmask = unsafe { _mm_loadu_si128(PACK[left].as_ptr() as *const _) };
            // SAFETY: as above.
            let rmask = unsafe { _mm_loadu_si128(PACK[!left & 0xF].as_ptr() as *const _) };
            let lpack = _mm_shuffle_epi8(rows, lmask);
            let rpack = _mm_shuffle_epi8(rows, rmask);
            // SAFETY: `nl + 4 <= k + 4 <= idx.len()` (see above), and the
            // store only overwrites rows this loop has already read.
            unsafe { _mm_storeu_si128(idx.as_mut_ptr().add(nl) as *mut __m128i, lpack) };
            // SAFETY: `nr + 4 <= (k - lo) + 4 <= hi - lo <= scratch.len()`.
            unsafe { _mm_storeu_si128(scratch.as_mut_ptr().add(nr) as *mut __m128i, rpack) };
            let lefts = left.count_ones() as usize;
            nl += lefts;
            nr += 4 - lefts;
            k += 4;
        }
        let mut seen_rows = [0u32; 4];
        // SAFETY: `seen_rows` is exactly 16 writable bytes.
        unsafe { _mm_storeu_si128(seen_rows.as_mut_ptr() as *mut __m128i, seen) };
        assert!(seen_rows.iter().all(|&r| (r as usize) < col.len()), "partition row out of range");
        super::partition_branchless(col, t, idx, scratch, k, hi, nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_partition(
        vals: &[f64],
        t: f64,
        f: impl Fn(&[f64], f64, &mut [u32], &mut [u32], usize, usize) -> usize,
    ) -> (Vec<u32>, usize) {
        let mut idx: Vec<u32> = (0..vals.len() as u32).collect();
        let mut scratch = vec![0u32; vals.len()];
        let nl = f(vals, t, &mut idx, &mut scratch, 0, vals.len());
        let nr = vals.len() - nl;
        idx[nl..].copy_from_slice(&scratch[..nr]);
        (idx, nl)
    }

    #[test]
    fn partition_forms_agree_across_lengths() {
        // Lengths straddling the 4-lane width and the AVX2 engage
        // threshold, including 0 and 1.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 257] {
            let vals: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
            let (a, nla) = run_partition(&vals, 0.5, partition_segment_scalar);
            let (b, nlb) = run_partition(&vals, 0.5, partition_segment_lanes);
            assert_eq!(nla, nlb, "n={n}");
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn partition_sends_nan_right_and_keeps_order() {
        let vals = [1.0, f64::NAN, 2.0, -1.0, f64::NAN, 0.0, 3.0, 1.5, 0.25];
        let (s, nls) = run_partition(&vals, 1.0, partition_segment_scalar);
        let (l, nll) = run_partition(&vals, 1.0, partition_segment_lanes);
        assert_eq!(s, l);
        assert_eq!(nls, nll);
        // NaN rows (1 and 4) must be on the right side.
        assert!(s[nls..].contains(&1) && s[nls..].contains(&4));
        // Both sides preserve relative input order.
        assert!(s[..nls].windows(2).all(|w| w[0] < w[1]));
        assert!(s[nls..].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic]
    fn partition_rejects_rows_outside_the_column() {
        // Long enough for the AVX2 body, whose gather has no bounds
        // check of its own: the dispatcher must refuse row 40.
        let col = vec![0.0; 16];
        let mut idx: Vec<u32> = (0..16).collect();
        idx[9] = 40;
        let mut scratch = vec![0u32; 16];
        partition_segment_lanes(&col, 0.5, &mut idx, &mut scratch, 0, 16);
    }
}
