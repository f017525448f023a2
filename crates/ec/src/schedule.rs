//! XOR schedules for bitmatrix codes, plus the matrix-search optimizers of
//! the two XOR baselines the paper compares against.
//!
//! A *schedule* is the explicit list of packet-XOR operations that encodes a
//! stripe under a bitmatrix code. The schedule's length (and its repeated
//! source reads) is exactly what distinguishes the XOR baselines from ISA-L
//! in the paper: Zerasure/Cerasure minimize XOR count at the price of a
//! scattered, re-reading memory access pattern.

use crate::{EcError, GfMatrix};
use dialga_gf::bitmatrix::{BitMatrix, W};
use dialga_gf::Gf8;
use dialga_testkit::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Source operand of a XOR op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Src {
    /// Data packet, addressed by bit-column index (`block*8 + packet`).
    Data(usize),
    /// Already-finished parity packet, addressed by bit-row index.
    Parity(usize),
    /// Intermediate (common-subexpression) buffer.
    Temp(usize),
}

/// Destination operand of a XOR op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dst {
    /// Parity packet, addressed by bit-row index.
    Parity(usize),
    /// Intermediate buffer.
    Temp(usize),
}

/// One packet-granularity operation: `dst = src` (when `init`) or
/// `dst ^= src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorOp {
    /// Where the result goes.
    pub dst: Dst,
    /// What is read.
    pub src: Src,
    /// `true` for the first write to `dst` (a copy, not an accumulate).
    pub init: bool,
}

/// An executable XOR schedule for a (k, m) bitmatrix code.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Data blocks.
    pub k: usize,
    /// Parity blocks.
    pub m: usize,
    /// Number of intermediate buffers the ops reference.
    pub n_temps: usize,
    /// Operations in execution order.
    pub ops: Vec<XorOp>,
}

impl Schedule {
    /// Naive schedule straight off a bitmatrix: each parity bit-row is the
    /// XOR of its set columns, no reuse. This is what plain Jerasure does.
    pub fn from_bitmatrix(bm: &BitMatrix, k: usize, m: usize) -> Self {
        assert_eq!(bm.rows(), m * W, "bitmatrix row count");
        assert_eq!(bm.cols(), k * W, "bitmatrix col count");
        let mut ops = Vec::new();
        for r in 0..m * W {
            let mut first = true;
            for c in bm.row_indices(r) {
                ops.push(XorOp {
                    dst: Dst::Parity(r),
                    src: Src::Data(c),
                    init: first,
                });
                first = false;
            }
            // A bitmatrix row can be empty only for a degenerate (non-MDS)
            // matrix; keep the parity packet defined anyway.
            if first {
                ops.push(XorOp {
                    dst: Dst::Parity(r),
                    src: Src::Data(0),
                    init: true,
                });
                ops.push(XorOp {
                    dst: Dst::Parity(r),
                    src: Src::Data(0),
                    init: false,
                });
            }
        }
        let s = Schedule {
            k,
            m,
            n_temps: 0,
            ops,
        };
        assert!(
            s.validate().is_ok(),
            "from_bitmatrix built invalid schedule"
        );
        s
    }

    /// Smart schedule: greedy common-subexpression elimination. Repeatedly
    /// finds the pair of operands that co-occurs in the most outputs,
    /// hoists it into a temp, and rewrites. This is the scheduling family
    /// used by Zerasure ("scheduling optimization") and the SLP approach of
    /// Uezato [SC'21], in its classic pairwise greedy form.
    pub fn smart_from_bitmatrix(bm: &BitMatrix, k: usize, m: usize) -> Self {
        assert_eq!(bm.rows(), m * W);
        assert_eq!(bm.cols(), k * W);
        // Working form: each output row is a set of operands.
        let mut rows: Vec<Vec<Src>> = (0..m * W)
            .map(|r| bm.row_indices(r).into_iter().map(Src::Data).collect())
            .collect();
        let temp_defs = cse_rows(&mut rows);
        let s = emit_schedule(k, m, &rows, &temp_defs);
        assert!(
            s.validate().is_ok(),
            "smart_from_bitmatrix built invalid schedule"
        );
        s
    }

    /// Number of XOR/copy packet operations (the XOR baselines' compute
    /// cost).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of *data-packet* reads, counting repeats — the memory-traffic
    /// disadvantage of XOR codes on PM (§2.2: "requires repeatedly reading
    /// data blocks from different locations").
    pub fn data_reads(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op.src, Src::Data(_)))
            .count()
    }

    /// Check the schedule is well-formed: every operand in range, every
    /// `Temp`/`Parity` read strictly after its `init` write, every
    /// accumulate (`init == false`) preceded by an `init` to the same
    /// destination, and every parity packet written by the end. A malformed
    /// schedule would otherwise silently produce garbage at execution time.
    pub fn validate(&self) -> Result<(), EcError> {
        let nd = self.k * W;
        let np = self.m * W;
        let mut temp_init = vec![false; self.n_temps];
        let mut par_init = vec![false; np];
        for op in &self.ops {
            match op.src {
                Src::Data(c) => {
                    if c >= nd {
                        return Err(EcError::Internal {
                            what: "schedule reads out-of-range data column",
                        });
                    }
                }
                Src::Parity(r) => {
                    if r >= np {
                        return Err(EcError::Internal {
                            what: "schedule reads out-of-range parity row",
                        });
                    }
                    if !par_init[r] {
                        return Err(EcError::Internal {
                            what: "schedule reads parity before its init write",
                        });
                    }
                }
                Src::Temp(t) => {
                    if t >= self.n_temps {
                        return Err(EcError::Internal {
                            what: "schedule reads temp beyond n_temps",
                        });
                    }
                    if !temp_init[t] {
                        return Err(EcError::Internal {
                            what: "schedule reads temp before its init write",
                        });
                    }
                }
            }
            match op.dst {
                Dst::Parity(r) => {
                    if r >= np {
                        return Err(EcError::Internal {
                            what: "schedule writes out-of-range parity row",
                        });
                    }
                    if op.init {
                        par_init[r] = true;
                    } else if !par_init[r] {
                        return Err(EcError::Internal {
                            what: "schedule accumulates into uninitialized parity",
                        });
                    }
                }
                Dst::Temp(t) => {
                    if t >= self.n_temps {
                        return Err(EcError::Internal {
                            what: "schedule writes temp beyond n_temps",
                        });
                    }
                    if op.init {
                        temp_init[t] = true;
                    } else if !temp_init[t] {
                        return Err(EcError::Internal {
                            what: "schedule accumulates into uninitialized temp",
                        });
                    }
                }
            }
        }
        if !par_init.iter().all(|&i| i) {
            return Err(EcError::Internal {
                what: "schedule leaves a parity packet unwritten",
            });
        }
        Ok(())
    }
}

/// Greedy pairwise common-subexpression elimination over operand rows (the
/// scheduling family of Zerasure and Uezato [SC'21] in its classic form):
/// repeatedly hoist the operand pair that co-occurs in the most rows (ties
/// to the smallest pair) into a fresh temp and rewrite. Rows hold distinct
/// `Data` / `Parity` operands and are mutated in place; returns the hoisted
/// pair definitions (temp `i` = `defs[i].0 ^ defs[i].1`).
///
/// Pair counts are kept across hoists rather than recounted: hoisting
/// `(a, b)` into `t` changes only the rows holding both, where the pairs
/// with `a` and with `b` lose one and the pairs with `t` gain one. Operands
/// get dense ids in `Src` order (temps after every initial operand, in
/// definition order), so the count table is a triangle of plain arrays and
/// the ties break exactly as on `Src`.
fn cse_rows(rows: &mut [Vec<Src>]) -> Vec<(Src, Src)> {
    let mut srcs: Vec<Src> = rows.iter().flatten().copied().collect();
    srcs.sort_unstable();
    srcs.dedup();
    debug_assert!(!srcs.iter().any(|s| matches!(s, Src::Temp(_))));
    // Every operand was collected into `srcs`, so the search finds it.
    let id_of = |s: &Src| match srcs.binary_search(s) {
        Ok(i) | Err(i) => i as u32,
    };
    let mut id_rows: Vec<Vec<u32>> = rows.iter().map(|r| r.iter().map(id_of).collect()).collect();

    // counts[hi][lo]: rows holding both operands, `lo < hi`.
    let mut counts: Vec<Vec<u32>> = (0..srcs.len()).map(|hi| vec![0; hi]).collect();
    let key = |x: u32, y: u32| if x < y { (x, y) } else { (y, x) };
    for row in &id_rows {
        for (i, &x) in row.iter().enumerate() {
            for &y in &row[i + 1..] {
                let (lo, hi) = key(x, y);
                counts[hi as usize][lo as usize] += 1;
            }
        }
    }
    // Max-heap of (count, smallest pair first); an entry whose count is no
    // longer the pair's is stale and skipped. Only counts >= 2 are pushed:
    // a pair below that can never be hoisted.
    let mut heap: BinaryHeap<(u32, Reverse<(u32, u32)>)> = BinaryHeap::new();
    for (hi, row) in counts.iter().enumerate() {
        for (lo, &c) in row.iter().enumerate() {
            if c >= 2 {
                heap.push((c, Reverse((lo as u32, hi as u32))));
            }
        }
    }

    let mut temp_defs: Vec<(Src, Src)> = Vec::new();
    let mut changed: Vec<(u32, u32)> = Vec::new();
    while let Some((c, Reverse((a, b)))) = heap.pop() {
        if counts[b as usize][a as usize] != c {
            continue;
        }
        // Hoist (a, b) into a new temp and rewrite the rows using it.
        let t = srcs.len() as u32;
        srcs.push(Src::Temp(temp_defs.len()));
        temp_defs.push((srcs[a as usize], srcs[b as usize]));
        counts.push(vec![0; t as usize]);
        changed.clear();
        for row in &mut id_rows {
            if !(row.contains(&a) && row.contains(&b)) {
                continue;
            }
            row.retain(|&s| s != a && s != b);
            counts[b as usize][a as usize] -= 1;
            for &x in row.iter() {
                for y in [a, b] {
                    let (lo, hi) = key(x, y);
                    counts[hi as usize][lo as usize] -= 1;
                    changed.push((lo, hi));
                }
                counts[t as usize][x as usize] += 1;
                changed.push((x, t));
            }
            row.push(t);
        }
        changed.sort_unstable();
        changed.dedup();
        for &(lo, hi) in &changed {
            let c = counts[hi as usize][lo as usize];
            if c >= 2 {
                heap.push((c, Reverse((lo, hi))));
            }
        }
    }
    for (row, ids) in rows.iter_mut().zip(&id_rows) {
        *row = ids.iter().map(|&i| srcs[i as usize]).collect();
    }
    temp_defs
}

/// Emit a schedule from CSE'd rows: temp definitions first (in definition
/// order — later temps may reference earlier ones), then each parity row.
fn emit_schedule(k: usize, m: usize, rows: &[Vec<Src>], temp_defs: &[(Src, Src)]) -> Schedule {
    let mut ops = Vec::new();
    for (i, &(a, b)) in temp_defs.iter().enumerate() {
        ops.push(XorOp {
            dst: Dst::Temp(i),
            src: a,
            init: true,
        });
        ops.push(XorOp {
            dst: Dst::Temp(i),
            src: b,
            init: false,
        });
    }
    for (r, row) in rows.iter().enumerate() {
        let mut first = true;
        for &s in row {
            ops.push(XorOp {
                dst: Dst::Parity(r),
                src: s,
                init: first,
            });
            first = false;
        }
        if first {
            // Degenerate empty row (see from_bitmatrix).
            ops.push(XorOp {
                dst: Dst::Parity(r),
                src: Src::Data(0),
                init: true,
            });
            ops.push(XorOp {
                dst: Dst::Parity(r),
                src: Src::Data(0),
                init: false,
            });
        }
    }
    Schedule {
        k,
        m,
        n_temps: temp_defs.len(),
        ops,
    }
}

/// Ones count of each GF(2^8) element's 8x8 companion bitmatrix —
/// the per-element XOR cost table both matrix searches optimize over.
#[allow(clippy::needless_range_loop)] // e is the element value, not just an index
fn element_ones_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    for e in 0..256usize {
        let bm = BitMatrix::from_gf_matrix(&[vec![Gf8(e as u8)]]);
        t[e] = bm.ones() as u32;
    }
    t
}

fn cauchy_ones(xs: &[u8], ys: &[u8], ones: &[u32; 256]) -> u64 {
    let mut total = 0u64;
    for &x in xs {
        for &y in ys {
            let e = (Gf8(x) + Gf8(y)).inv().0;
            total += ones[e as usize] as u64;
        }
    }
    total
}

/// Result of a matrix search: the chosen Cauchy X/Y sets and the parity
/// matrix they induce.
#[derive(Debug, Clone)]
pub struct MatrixSearchResult {
    /// Chosen X elements (one per parity row).
    pub xs: Vec<u8>,
    /// Chosen Y elements (one per data column).
    pub ys: Vec<u8>,
    /// Resulting m x k parity matrix (row-normalized).
    pub parity: GfMatrix,
    /// Bitmatrix ones before normalization, for reporting.
    pub ones: u64,
}

/// Row-normalize a Cauchy parity matrix: scale each row so its first entry
/// is 1 (scaling a parity output by a nonzero constant preserves the MDS
/// property). This is Zerasure's "bitmatrix normalization".
pub fn normalize_rows(p: &GfMatrix) -> GfMatrix {
    let mut rows = p.to_rows();
    for row in &mut rows {
        if let Some(&first) = row.iter().find(|&&e| e != Gf8::ZERO) {
            let inv = first.inv();
            for e in row.iter_mut() {
                *e *= inv;
            }
        }
    }
    GfMatrix::from_rows(rows)
}

/// Zerasure-style matrix search: simulated annealing over the Cauchy X/Y
/// element choice, minimizing total companion-bitmatrix ones, followed by
/// row normalization. Deterministic for a given seed.
pub fn anneal_xy(
    k: usize,
    m: usize,
    iterations: usize,
    seed: u64,
) -> Result<MatrixSearchResult, EcError> {
    search_xy(k, m, SearchKind::Anneal { iterations }, seed)
}

/// Cerasure-style matrix search: greedy element-by-element selection of the
/// Y set (then X set) minimizing incremental ones.
pub fn greedy_xy(k: usize, m: usize) -> Result<MatrixSearchResult, EcError> {
    search_xy(k, m, SearchKind::Greedy, 0)
}

enum SearchKind {
    Anneal { iterations: usize },
    Greedy,
}

fn search_xy(
    k: usize,
    m: usize,
    kind: SearchKind,
    seed: u64,
) -> Result<MatrixSearchResult, EcError> {
    if k == 0 || m == 0 || k + m > 255 {
        return Err(EcError::InvalidParams {
            k,
            m,
            reason: "Cauchy X/Y sets need k+m <= 255 distinct elements",
        });
    }
    let ones = element_ones_table();

    let (xs, ys) = match kind {
        SearchKind::Greedy => {
            // Greedily grow Y, then X, from all 256 candidates.
            let mut ys: Vec<u8> = Vec::with_capacity(k);
            let mut xs: Vec<u8> = Vec::with_capacity(m);
            // Seed with the canonical sets' first elements to anchor search.
            let mut used = [false; 256];
            // Pick X first (small), pairing cost against a provisional Y
            // probe set keeps the greedy stable.
            for _ in 0..m {
                let mut best = None;
                for cand in 0u16..=255 {
                    let c = cand as u8;
                    if used[c as usize] {
                        continue;
                    }
                    // Cost of candidate x against currently chosen ys, or
                    // against y=0 probe when none chosen yet.
                    let probe: &[u8] = if ys.is_empty() { &[0] } else { ys.as_slice() };
                    if probe.contains(&c) {
                        continue;
                    }
                    let cost = cauchy_ones(&[c], probe, &ones);
                    if best.is_none_or(|(bc, _)| cost < bc) {
                        best = Some((cost, c));
                    }
                }
                let (_, c) = best.ok_or(EcError::SingularMatrix)?;
                used[c as usize] = true;
                xs.push(c);
            }
            for _ in 0..k {
                let mut best = None;
                for cand in 0u16..=255 {
                    let c = cand as u8;
                    if used[c as usize] || xs.contains(&c) {
                        continue;
                    }
                    let cost = cauchy_ones(&xs, &[c], &ones);
                    if best.is_none_or(|(bc, _)| cost < bc) {
                        best = Some((cost, c));
                    }
                }
                let (_, c) = best.ok_or(EcError::SingularMatrix)?;
                used[c as usize] = true;
                ys.push(c);
            }
            (xs, ys)
        }
        SearchKind::Anneal { iterations } => {
            let mut rng = Rng::new(seed);
            let mut xs: Vec<u8> = (0..m).map(|i| (i + k) as u8).collect();
            let mut ys: Vec<u8> = (0..k).map(|j| j as u8).collect();
            let mut cost = cauchy_ones(&xs, &ys, &ones);
            let mut best = (xs.clone(), ys.clone(), cost);
            let mut temp = cost as f64 * 0.05 + 1.0;
            for it in 0..iterations {
                // Propose: replace one element of X or Y with an unused one.
                let replace_x = rng.bool_with(m as f64 / (k + m) as f64);
                let mut nxs = xs.clone();
                let mut nys = ys.clone();
                let cand = loop {
                    let c: u8 = rng.u8();
                    if !nxs.contains(&c) && !nys.contains(&c) {
                        break c;
                    }
                };
                if replace_x {
                    let i = rng.range(0, m);
                    nxs[i] = cand;
                } else {
                    let j = rng.range(0, k);
                    nys[j] = cand;
                }
                let ncost = cauchy_ones(&nxs, &nys, &ones);
                let accept = ncost <= cost || {
                    let d = (ncost - cost) as f64;
                    rng.bool_with((-d / temp).exp().clamp(0.0, 1.0))
                };
                if accept {
                    xs = nxs;
                    ys = nys;
                    cost = ncost;
                    if cost < best.2 {
                        best = (xs.clone(), ys.clone(), cost);
                    }
                }
                // Geometric cooling.
                if it % 64 == 63 {
                    temp *= 0.95;
                }
            }
            (best.0, best.1)
        }
    };

    let raw = GfMatrix::cauchy_parity_xy(&xs, &ys);
    let ones_total = cauchy_ones(&xs, &ys, &ones);
    let parity = normalize_rows(&raw);
    Ok(MatrixSearchResult {
        xs,
        ys,
        parity,
        ones: ones_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_gf::bitmatrix::BitMatrix;
    use std::collections::HashMap;

    /// Greedy CSE by full recount: rebuilds every row's pair counts on
    /// every hoist. The oracle for [`cse_rows`]' result.
    fn cse_rows_recount(rows: &mut [Vec<Src>]) -> Vec<(Src, Src)> {
        let mut temp_defs: Vec<(Src, Src)> = Vec::new();
        loop {
            // Count co-occurring operand pairs across rows.
            let mut pair_count: HashMap<(Src, Src), usize> = HashMap::new();
            for row in rows.iter() {
                for i in 0..row.len() {
                    for j in (i + 1)..row.len() {
                        let key = if row[i] <= row[j] {
                            (row[i], row[j])
                        } else {
                            (row[j], row[i])
                        };
                        *pair_count.entry(key).or_insert(0) += 1;
                    }
                }
            }
            let best = pair_count
                .into_iter()
                .max_by_key(|&(p, c)| (c, std::cmp::Reverse(p)));
            let Some(((a, b), count)) = best else { break };
            if count < 2 {
                break;
            }
            // Hoist (a, b) into a new temp and rewrite the rows using it.
            let t = Src::Temp(temp_defs.len());
            temp_defs.push((a, b));
            for row in rows.iter_mut() {
                let has_a = row.contains(&a);
                let has_b = row.contains(&b);
                if has_a && has_b {
                    row.retain(|&s| s != a && s != b);
                    row.push(t);
                }
            }
        }
        temp_defs
    }

    #[test]
    fn incremental_cse_matches_the_full_recount() {
        dialga_testkit::run_cases(96, |rng| {
            let (n_rows, n_cols) = (rng.range(1, 24), rng.range(1, 48));
            let density = rng.range_f64(0.05, 0.9);
            let mut rows: Vec<Vec<Src>> = (0..n_rows)
                .map(|_| {
                    let mut row: Vec<Src> = (0..n_cols)
                        .filter(|_| rng.bool_with(density))
                        .map(Src::Data)
                        .collect();
                    // Bitmatrix rows arrive ascending; the CSE must not
                    // depend on it.
                    if rng.bool() {
                        rng.shuffle(&mut row);
                    }
                    row
                })
                .collect();
            let mut oracle_rows = rows.clone();
            let defs = cse_rows(&mut rows);
            let oracle_defs = cse_rows_recount(&mut oracle_rows);
            assert_eq!(defs, oracle_defs);
            assert_eq!(rows, oracle_rows);
        });
    }

    fn bm_for(k: usize, m: usize) -> BitMatrix {
        let p = GfMatrix::cauchy_parity(k, m);
        BitMatrix::from_gf_matrix(&p.to_rows())
    }

    #[test]
    fn naive_schedule_op_count_matches_ones() {
        let bm = bm_for(4, 2);
        let s = Schedule::from_bitmatrix(&bm, 4, 2);
        assert_eq!(s.op_count(), bm.ones());
        assert_eq!(s.data_reads(), bm.ones());
        assert_eq!(s.n_temps, 0);
    }

    #[test]
    fn smart_schedule_is_never_worse() {
        for (k, m) in [(4, 2), (6, 3), (8, 4)] {
            let bm = bm_for(k, m);
            let naive = Schedule::from_bitmatrix(&bm, k, m);
            let smart = Schedule::smart_from_bitmatrix(&bm, k, m);
            assert!(
                smart.op_count() <= naive.op_count(),
                "k={k} m={m}: smart {} > naive {}",
                smart.op_count(),
                naive.op_count()
            );
        }
    }

    #[test]
    fn smart_schedule_reduces_ops_for_dense_matrix() {
        // Dense Cauchy bitmatrices have many shared pairs; CSE must fire.
        let bm = bm_for(8, 4);
        let naive = Schedule::from_bitmatrix(&bm, 8, 4);
        let smart = Schedule::smart_from_bitmatrix(&bm, 8, 4);
        assert!(smart.n_temps > 0, "no temps hoisted");
        assert!(smart.op_count() < naive.op_count());
    }

    #[test]
    fn anneal_improves_over_canonical() {
        let ones = element_ones_table();
        let k = 6;
        let m = 3;
        let base_xs: Vec<u8> = (0..m).map(|i| (i + k) as u8).collect();
        let base_ys: Vec<u8> = (0..k).map(|j| j as u8).collect();
        let base = cauchy_ones(&base_xs, &base_ys, &ones);
        let r = anneal_xy(k, m, 2000, 42).unwrap();
        assert!(r.ones <= base, "anneal {} > canonical {}", r.ones, base);
        // Sets stay disjoint and the matrix valid.
        for x in &r.xs {
            assert!(!r.ys.contains(x));
        }
    }

    #[test]
    fn greedy_produces_valid_disjoint_sets() {
        let r = greedy_xy(8, 4).unwrap();
        assert_eq!(r.xs.len(), 4);
        assert_eq!(r.ys.len(), 8);
        for x in &r.xs {
            assert!(!r.ys.contains(x));
        }
        // All distinct.
        let mut all: Vec<u8> = r.xs.iter().chain(r.ys.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn normalize_rows_sets_leading_one() {
        let p = GfMatrix::cauchy_parity(5, 3);
        let n = normalize_rows(&p);
        for r in 0..3 {
            assert_eq!(n[(r, 0)], Gf8::ONE);
        }
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let a = anneal_xy(5, 3, 500, 7).unwrap();
        let b = anneal_xy(5, 3, 500, 7).unwrap();
        assert_eq!(a.xs, b.xs);
        assert_eq!(a.ys, b.ys);
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        // Read-before-init temp.
        let s = Schedule {
            k: 1,
            m: 1,
            n_temps: 1,
            ops: (0..W)
                .map(|r| XorOp {
                    dst: Dst::Parity(r),
                    src: Src::Temp(0),
                    init: true,
                })
                .collect(),
        };
        assert!(s.validate().is_err(), "uninitialized temp read accepted");

        // Out-of-range data column.
        let s = Schedule {
            k: 1,
            m: 1,
            n_temps: 0,
            ops: (0..W)
                .map(|r| XorOp {
                    dst: Dst::Parity(r),
                    src: Src::Data(W + r),
                    init: true,
                })
                .collect(),
        };
        assert!(s.validate().is_err(), "out-of-range column accepted");

        // Accumulate into a parity packet that was never initialized.
        let s = Schedule {
            k: 1,
            m: 1,
            n_temps: 0,
            ops: (0..W)
                .map(|r| XorOp {
                    dst: Dst::Parity(r),
                    src: Src::Data(0),
                    init: false,
                })
                .collect(),
        };
        assert!(s.validate().is_err(), "accumulate-before-init accepted");

        // A parity packet left unwritten.
        let mut ops: Vec<XorOp> = (0..W - 1)
            .map(|r| XorOp {
                dst: Dst::Parity(r),
                src: Src::Data(0),
                init: true,
            })
            .collect();
        ops.push(XorOp {
            dst: Dst::Temp(0),
            src: Src::Data(0),
            init: true,
        });
        let s = Schedule {
            k: 1,
            m: 1,
            n_temps: 1,
            ops,
        };
        assert!(s.validate().is_err(), "unwritten parity accepted");
    }
}
