//! Kernel-facing scheduling: the static shuffle mapping (§4.2) and the
//! fused kernels' prefetch-pointer construction (Fig. 9 + §4.3).
//!
//! These are the pure index computations the fused dot-product kernels in
//! [`crate::simd`] weave into their inner loop. They live in the GF crate —
//! below every consumer — so the real-bytes kernels, the timed simulator
//! pipeline (`dialga-pipeline` re-exports [`shuffle_row`]) and the
//! functional operator all share one definition.
//!
//! The prefetch-pointer rules, matching the paper exactly:
//!
//! * **§4.2, distance `d`**: while executing step `n = row·k + j` the kernel
//!   prefetches step `n + d`. With `q = d / k`, `r = d % k` the whole row's
//!   pointers split into two groups — `j < k − r` targets `(block j + r,
//!   row + q)`, the rest wrap to `(block j + r − k, row + q + 1)` — the
//!   paper's branchless two-group construction. Targets past the stripe get
//!   no pointer (tail steps revert to the plain kernel).
//! * **§4.3, XPLine-aware split**: with a long distance `d_long` active,
//!   cachelines that *start* a 256 B XPLine (row index divisible by
//!   [`LINES_PER_XPLINE`]) are prefetched at `n + d_long`, all others at
//!   `n + d`; each future step is covered exactly once. The split only
//!   applies when the shuffle is off (shuffled row order defeats the
//!   XPLine-locality reasoning behind it).

/// Shuffle window: 64 rows of 64 B cachelines = one 4 KiB page. The static
/// shuffle permutes within windows so no in-page access follows its
/// predecessor at delta +1 (the L2 stream detector's trigger).
pub const SHUFFLE_WINDOW: u64 = 64;

/// Cachelines per 256 B XPLine (the PM media access unit): the §4.3 long
/// distance targets rows at multiples of this.
pub const LINES_PER_XPLINE: u64 = 4;

/// Greatest common divisor.
const fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Stride for the shuffle permutation within a window of `w` rows: coprime
/// to `w`, avoiding +1/−1 deltas where possible.
const fn pick_stride(w: u64) -> u64 {
    if w <= 2 {
        return 1;
    }
    let mut s = 3;
    while s < w {
        if gcd(s, w) == 1 && s != w - 1 {
            return s;
        }
        s += 2;
    }
    w - 1
}

/// [`pick_stride`] of every window length a pass can meet, so no row pays
/// for the search.
const STRIDES: [u8; SHUFFLE_WINDOW as usize + 1] = {
    let mut t = [0u8; SHUFFLE_WINDOW as usize + 1];
    let mut w = 0;
    while w < t.len() {
        t[w] = pick_stride(w as u64) as u8;
        w += 1;
    }
    t
};

/// The mapping inside a full [`SHUFFLE_WINDOW`]: constant divisors only.
#[inline(always)]
fn full_window_row(r: u64) -> u64 {
    let x = r % SHUFFLE_WINDOW;
    r - x + x * STRIDES[SHUFFLE_WINDOW as usize] as u64 % SHUFFLE_WINDOW
}

/// The static shuffle mapping: a bijection on row indices, applied within
/// windows of at most [`SHUFFLE_WINDOW`] rows (one 4 KiB page) so no
/// in-page access ever follows its predecessor at delta +1.
pub fn shuffle_row(r: u64, rows: u64) -> u64 {
    let tail_base = rows / SHUFFLE_WINDOW * SHUFFLE_WINDOW;
    if r < tail_base {
        return full_window_row(r);
    }
    // The last window may be short; permute within its actual size.
    let wlen = rows - tail_base;
    if wlen <= 1 {
        return r;
    }
    tail_base + (r - tail_base) * STRIDES[wlen as usize] as u64 % wlen
}

/// [`shuffle_row`] for one `rows`, with the short last window tabulated:
/// a pass maps every row and every prefetch target, and must not divide by
/// the window length each time.
struct RowMap {
    tail_base: u64,
    tail: [u8; SHUFFLE_WINDOW as usize],
}

impl RowMap {
    fn new(rows: u64) -> Self {
        let tail_base = rows / SHUFFLE_WINDOW * SHUFFLE_WINDOW;
        let wlen = (rows - tail_base) as usize;
        let mut tail = [0u8; SHUFFLE_WINDOW as usize];
        // x * stride % wlen, one step at a time (stride < wlen, or both 1).
        let (stride, mut at) = (STRIDES[wlen] as usize, 0);
        for slot in &mut tail[..wlen] {
            *slot = at as u8;
            at += stride;
            if at >= wlen {
                at -= wlen;
            }
        }
        RowMap { tail_base, tail }
    }

    #[inline(always)]
    fn row(&self, r: u64) -> u64 {
        if r < self.tail_base {
            full_window_row(r)
        } else {
            self.tail_base + self.tail[(r - self.tail_base) as usize] as u64
        }
    }
}

/// Scheduling inputs of one fused dot-product pass: everything DIALGA's
/// coordinator retunes at runtime, and nothing that changes the bytes
/// produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedSched {
    /// Pipelined software prefetch distance `d`, in row-major cacheline
    /// steps (`None` = no software prefetching).
    pub d: Option<u32>,
    /// §4.3 long distance for XPLine-first cachelines (`bf_first_distance`;
    /// paper initial value `k + 4`). Only applied when `d` is set and
    /// `shuffle` is off.
    pub d_long: Option<u32>,
    /// Apply the static shuffle mapping to the row order.
    pub shuffle: bool,
}

impl FusedSched {
    /// Plain ISA-L behaviour: no prefetching, natural row order.
    pub fn plain() -> Self {
        Self::default()
    }

    /// Short-distance-only schedule (the common pool path before the
    /// coordinator enables the §4.3 split).
    pub fn distance(d: u32) -> Self {
        FusedSched {
            d: Some(d),
            d_long: None,
            shuffle: false,
        }
    }
}

/// One pass's schedule with everything that depends only on `(k, rows,
/// sched)` worked out once: the shuffle's tail window and each distance as
/// `(rows ahead, blocks ahead)`. The row loop then adds and compares.
pub(crate) struct PassSched {
    k: usize,
    rows: u64,
    map: Option<RowMap>,
    /// `(d / k, d % k)`; `None` = no prefetching.
    short: Option<(u64, usize)>,
    /// The same split of `d_long`, when the §4.3 arm is live.
    long: Option<(u64, usize)>,
}

impl PassSched {
    pub(crate) fn new(k: usize, rows: u64, sched: &FusedSched) -> Self {
        let split = |d: u32| (d as u64 / k as u64, d as usize % k);
        let live = k > 0 && rows > 0;
        PassSched {
            k,
            rows,
            map: sched.shuffle.then(|| RowMap::new(rows)),
            short: sched.d.filter(|_| live).map(split),
            // BF split only applies without shuffle (see module docs).
            long: sched.d_long.filter(|_| live && !sched.shuffle).map(split),
        }
    }

    /// Rows (cachelines per block) of the pass.
    #[inline(always)]
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// The physical row the pass works on at visual row `vr`.
    #[inline(always)]
    pub(crate) fn row(&self, vr: u64) -> u64 {
        match &self.map {
            Some(map) => map.row(vr),
            None => vr,
        }
    }

    /// [`for_each_prefetch_target`] for visual row `vr` of this pass.
    #[inline(always)]
    pub(crate) fn for_each_target(&self, vr: u64, mut visit: impl FnMut(usize, u64)) {
        let Some((q, r)) = self.short else { return };
        let (k, rows) = (self.k, self.rows);
        match self.long {
            None => {
                // §4.2: two-group branchless construction. Step n + d lands
                // on block (j + r) mod k, row vr + q (+1 when j + r wraps):
                // one bounds test and one row mapping per group.
                let tr = vr + q;
                if tr < rows {
                    let prow = self.row(tr);
                    (r..k).for_each(|block| visit(block, prow));
                }
                if tr + 1 < rows {
                    let prow = self.row(tr + 1);
                    (0..r).for_each(|block| visit(block, prow));
                }
            }
            Some((ql, rl)) => {
                // §4.3: each future step covered exactly once — by the long
                // distance when it starts an XPLine, by the short one
                // otherwise. Source j's short target is followed by its long
                // one; each distance's targets wrap into the next row at its
                // own cut, so between cuts both rows (and whether they are
                // issued at all) are fixed and only the blocks advance.
                let issued = |t: u64, long: bool| {
                    (t < rows && t.is_multiple_of(LINES_PER_XPLINE) == long).then_some(t)
                };
                let short_rows = [issued(vr + q, false), issued(vr + q + 1, false)];
                let long_rows = [issued(vr + ql, true), issued(vr + ql + 1, true)];
                let (cut_s, cut_l) = (k - r, k - rl);
                let mut j = 0;
                for end in [cut_s.min(cut_l), cut_s.max(cut_l), k] {
                    let (wrap_s, wrap_l) = (j >= cut_s, j >= cut_l);
                    let (ts, tl) = (short_rows[wrap_s as usize], long_rows[wrap_l as usize]);
                    let bs = if wrap_s { j - cut_s } else { j + r };
                    let bl = if wrap_l { j - cut_l } else { j + rl };
                    for i in 0..end - j {
                        if let Some(t) = ts {
                            visit(bs + i, t);
                        }
                        if let Some(t) = tl {
                            visit(bl + i, t);
                        }
                    }
                    j = end;
                }
            }
        }
    }
}

/// Visit every prefetch target `(block, physical_row)` the fused kernel
/// issues while executing visual row `vr` of a `rows × k` stripe.
///
/// Implements the §4.2 two-group construction and the §4.3 long/short
/// split described in the module docs; targets past the stripe are
/// skipped (the plain-kernel tail). Rows are *physical*: the shuffle
/// mapping is already applied. A caller that walks many rows of one pass
/// builds the crate's `PassSched` once instead.
#[inline]
pub fn for_each_prefetch_target(
    vr: u64,
    k: usize,
    rows: u64,
    sched: &FusedSched,
    visit: impl FnMut(usize, u64),
) {
    PassSched::new(k, rows, sched).for_each_target(vr, visit);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definitional shuffle mapping, stride search and all.
    fn shuffle_row_reference(r: u64, rows: u64) -> u64 {
        let w = rows.clamp(1, SHUFFLE_WINDOW);
        let window = r / w;
        let x = r % w;
        let base = window * w;
        // The last window may be short; permute within its actual size.
        let wlen = w.min(rows - base);
        if wlen <= 1 {
            return r;
        }
        base + (x % wlen) * pick_stride(wlen) % wlen
    }

    /// The definitional targets: `n + d` decomposed per source.
    fn targets_reference(vr: u64, k: usize, rows: u64, sched: &FusedSched) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let Some(d) = sched.d else { return out };
        if k == 0 || rows == 0 {
            return out;
        }
        let k64 = k as u64;
        let d = d as u64;
        let df = if sched.shuffle {
            None
        } else {
            sched.d_long.map(u64::from)
        };
        match df {
            None => {
                let (q, r) = (d / k64, d % k64);
                for j in 0..k64 {
                    let (tj, tr) = if j + r < k64 {
                        (j + r, vr + q)
                    } else {
                        (j + r - k64, vr + q + 1)
                    };
                    if tr < rows {
                        let prow = if sched.shuffle {
                            shuffle_row_reference(tr, rows)
                        } else {
                            tr
                        };
                        out.push((tj as usize, prow));
                    }
                }
            }
            Some(df) => {
                let total = rows * k64;
                let n0 = vr * k64;
                for j in 0..k64 {
                    let n = n0 + j;
                    let t1 = n + d;
                    if t1 < total && !(t1 / k64).is_multiple_of(LINES_PER_XPLINE) {
                        out.push(((t1 % k64) as usize, t1 / k64));
                    }
                    let t2 = n + df;
                    if t2 < total && (t2 / k64).is_multiple_of(LINES_PER_XPLINE) {
                        out.push(((t2 % k64) as usize, t2 / k64));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn hoisted_schedule_equals_the_definitional_one() {
        for rows in [0u64, 1, 2, 63, 64, 65, 130, 4096] {
            for vr in 0..rows {
                assert_eq!(shuffle_row(vr, rows), shuffle_row_reference(vr, rows));
            }
            for k in [1usize, 3, 4, 6, 10, 12, 28] {
                for d in [1u32, 2, 5, 7, 12, 40, 1000] {
                    for d_long in [None, Some(13), Some(34)] {
                        for shuffle in [false, true] {
                            let sched = FusedSched {
                                d: Some(d),
                                d_long,
                                shuffle,
                            };
                            let pass = PassSched::new(k, rows, &sched);
                            for vr in 0..rows {
                                let mut got = Vec::new();
                                pass.for_each_target(vr, |b, r| got.push((b, r)));
                                assert_eq!(
                                    got,
                                    targets_reference(vr, k, rows, &sched),
                                    "k={k} rows={rows} vr={vr} {sched:?}"
                                );
                                assert_eq!(pass.row(vr), {
                                    if shuffle {
                                        shuffle_row_reference(vr, rows)
                                    } else {
                                        vr
                                    }
                                });
                            }
                        }
                    }
                }
            }
        }
        // No distance, or an empty stripe: no targets, and no division by k.
        let mut none = Vec::new();
        for_each_prefetch_target(0, 4, 8, &FusedSched::plain(), |b, r| none.push((b, r)));
        for_each_prefetch_target(0, 0, 8, &FusedSched::distance(3), |b, r| none.push((b, r)));
        assert!(none.is_empty());
    }

    fn targets(vr: u64, k: usize, rows: u64, sched: &FusedSched) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for_each_prefetch_target(vr, k, rows, sched, |b, r| out.push((b, r)));
        out
    }

    #[test]
    fn two_group_matches_direct_step_arithmetic() {
        // The branchless (q, r) construction must equal the definitional
        // t = n + d decomposition for every (d, k, row).
        for k in [1usize, 3, 4, 6, 10] {
            let rows = 32u64;
            for d in [1u32, 2, 5, 7, 12, 40, 1000] {
                for vr in 0..rows {
                    let got = targets(vr, k, rows, &FusedSched::distance(d));
                    let mut want = Vec::new();
                    for j in 0..k as u64 {
                        let t = vr * k as u64 + j + d as u64;
                        if t < rows * k as u64 {
                            want.push(((t % k as u64) as usize, t / k as u64));
                        }
                    }
                    assert_eq!(got, want, "k={k} d={d} vr={vr}");
                }
            }
        }
    }

    #[test]
    fn bf_split_covers_each_step_exactly_once() {
        let (k, rows) = (4usize, 16u64);
        let sched = FusedSched {
            d: Some(6),
            d_long: Some(10),
            shuffle: false,
        };
        let mut seen = std::collections::HashSet::new();
        for vr in 0..rows {
            for t in targets(vr, k, rows, &sched) {
                assert!(seen.insert(t), "duplicate prefetch target {t:?}");
            }
        }
        // Every covered row index at an XPLine boundary came from d_long,
        // the rest from d; together they reach every step past the warm-up.
        for (block, row) in &seen {
            assert!(*block < k && *row < rows);
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn shuffle_disables_bf_split_and_remaps_rows() {
        let (k, rows) = (4usize, 32u64);
        let plain = targets(
            3,
            k,
            rows,
            &FusedSched {
                d: Some(8),
                d_long: Some(20),
                shuffle: false,
            },
        );
        let shuf = targets(
            3,
            k,
            rows,
            &FusedSched {
                d: Some(8),
                d_long: Some(20),
                shuffle: true,
            },
        );
        // Under shuffle only the short distance applies, and target rows go
        // through the same bijection the kernel walks.
        assert_eq!(shuf.len(), k);
        for (j, (b, r)) in shuf.iter().enumerate() {
            assert_eq!(*b, j, "d multiple of k keeps block alignment");
            assert_eq!(*r, shuffle_row(3 + 2, rows));
        }
        // The unshuffled variant used the split (d_long pulled some targets
        // to XPLine starts), so the two differ.
        assert_ne!(plain, shuf);
    }

    #[test]
    fn tail_rows_have_no_targets() {
        let got = targets(15, 4, 16, &FusedSched::distance(4));
        assert!(got.is_empty());
    }

    #[test]
    fn shuffle_row_stays_bijective_after_move() {
        for rows in [1u64, 2, 5, 64, 65, 160] {
            let mut seen = vec![false; rows as usize];
            for r in 0..rows {
                let s = shuffle_row(r, rows);
                assert!(s < rows && !seen[s as usize], "rows={rows} r={r}");
                seen[s as usize] = true;
            }
        }
    }
}
