//! The lightweight operator (§4.2): fine-grained hardware-prefetcher
//! control via static shuffle mapping, and branchless pipelined software
//! prefetch pointers.
//!
//! The *timed* side of these mechanisms is
//! [`IsalSource`](crate::isal::IsalSource), whose rows [`shuffle_row`]
//! remaps. The real-bytes encoder never materializes the pointer array: the
//! fused kernels ([`dialga_gf::simd::dot_prod_fused`]) issue the same targets
//! arithmetically from inside their row loop via
//! [`dialga_gf::sched::for_each_prefetch_target`]. This module keeps
//! [`build_prefetch_ptrs`] as the executable Fig. 9 *specification* —
//! tests verify it directly (fixed offset, two-group construction when
//! `d % k != 0`, order preserved under shuffle) and cross-check the fused
//! scheduler against it.

use crate::isal::shuffle_row;

/// One entry of the prefetch-pointer array: which (block, row) to prefetch
/// while executing a given step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchPtr {
    /// Data block index.
    pub block: usize,
    /// Cacheline row within the block.
    pub row: u64,
}

/// Build the Fig. 9 prefetch-pointer array for one row of the encode loop.
///
/// While the kernel processes step `n = row * k + j` (reading row `row` of
/// block `j`), it prefetches step `n + d`. Because the mapping from step to
/// (block, row) is fixed, the whole row's pointers can be constructed
/// branchlessly in advance: block `(n + d) % k`, row `(n + d) / k`. When
/// `d % k != 0` the construction naturally splits into two groups with
/// different row offsets — exactly the paper's two-group vectorized build.
/// Steps whose target falls past the stripe (`>= rows * k`) get no pointer:
/// tail tasks revert to the standard kernel.
pub fn build_prefetch_ptrs(
    row: u64,
    k: usize,
    rows: u64,
    d: u32,
    shuffled: bool,
) -> Vec<Option<PrefetchPtr>> {
    let total = rows * k as u64;
    (0..k as u64)
        .map(|j| {
            let t = row * k as u64 + j + d as u64;
            if t >= total {
                return None;
            }
            let vrow = t / k as u64;
            let target_row = if shuffled {
                shuffle_row(vrow, rows)
            } else {
                vrow
            };
            Some(PrefetchPtr {
                block: (t % k as u64) as usize,
                row: target_row,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_offset_when_d_is_multiple_of_k() {
        // d = 2k: every pointer is "same block, two rows ahead".
        let k = 4;
        let ptrs = build_prefetch_ptrs(3, k, 16, 8, false);
        for (j, p) in ptrs.iter().enumerate() {
            let p = p.expect("within stripe");
            assert_eq!(p.block, j);
            assert_eq!(p.row, 5);
        }
    }

    #[test]
    fn two_group_construction_when_d_not_multiple_of_k() {
        // d = 6, k = 4: group one (j < 2) targets row+1 shifted blocks,
        // group two wraps to row+2 — two distinct row offsets, as in §4.2.
        let k = 4;
        let ptrs = build_prefetch_ptrs(0, k, 16, 6, false);
        let rows: Vec<u64> = ptrs.iter().map(|p| p.unwrap().row).collect();
        let blocks: Vec<usize> = ptrs.iter().map(|p| p.unwrap().block).collect();
        assert_eq!(rows, vec![1, 1, 2, 2]);
        assert_eq!(blocks, vec![2, 3, 0, 1]);
        let distinct: std::collections::HashSet<u64> = rows.into_iter().collect();
        assert_eq!(distinct.len(), 2, "exactly two groups");
    }

    #[test]
    fn tail_steps_have_no_pointer() {
        let k = 4;
        let rows = 16;
        // Last row with d = k: every target is past the stripe.
        let ptrs = build_prefetch_ptrs(rows - 1, k, rows, 4, false);
        assert!(ptrs.iter().all(|p| p.is_none()));
        // Second-to-last row with d = 6: half in, half out.
        let ptrs = build_prefetch_ptrs(rows - 2, k, rows, 6, false);
        let some = ptrs.iter().filter(|p| p.is_some()).count();
        assert_eq!(some, 2);
    }

    #[test]
    fn shuffle_preserves_pointer_order() {
        // §4.2: "externally constructed prefetch pointers retain their
        // order even after shuffling" — the pointer array for a row is
        // still indexed by j in order; only the target row is remapped
        // bijectively.
        let k = 6;
        let rows = 32;
        let plain = build_prefetch_ptrs(5, k, rows, 12, false);
        let shuf = build_prefetch_ptrs(5, k, rows, 12, true);
        for (a, b) in plain.iter().zip(&shuf) {
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!(a.block, b.block, "block order must be preserved");
            assert_eq!(
                b.row,
                shuffle_row(a.row, rows),
                "row remapped by the static map"
            );
        }
    }

    #[test]
    fn fused_scheduler_matches_fig9_spec() {
        // The fused kernels compute prefetch targets arithmetically
        // (dialga_gf::sched); this array is the Fig. 9 specification. The
        // two must agree for every (k, d, shuffle, row).
        use dialga_gf::sched::{for_each_prefetch_target, FusedSched};
        for k in [1usize, 3, 4, 6, 10] {
            let rows = 24u64;
            for d in [1u32, 4, 6, 13, 100] {
                for shuffle in [false, true] {
                    let sched = FusedSched {
                        d: Some(d),
                        d_long: None,
                        shuffle,
                    };
                    for vr in 0..rows {
                        let spec: Vec<(usize, u64)> = build_prefetch_ptrs(vr, k, rows, d, shuffle)
                            .into_iter()
                            .flatten()
                            .map(|p| (p.block, p.row))
                            .collect();
                        let mut fused = Vec::new();
                        for_each_prefetch_target(vr, k, rows, &sched, |b, r| fused.push((b, r)));
                        assert_eq!(fused, spec, "k={k} d={d} shuffle={shuffle} vr={vr}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_step_prefetched_exactly_once() {
        // Union of pointers over all rows covers each (block,row) once —
        // no duplicate or missing prefetches (modulo the d-step warm-up).
        let k = 4;
        let rows = 16;
        let d = 7;
        let mut seen = std::collections::HashSet::new();
        for row in 0..rows {
            for p in build_prefetch_ptrs(row, k, rows, d, false)
                .into_iter()
                .flatten()
            {
                assert!(seen.insert((p.block, p.row)), "duplicate {p:?}");
            }
        }
        assert_eq!(seen.len(), (rows * k as u64 - d as u64) as usize);
    }
}
