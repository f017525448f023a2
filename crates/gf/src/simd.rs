//! SIMD GF(2^8) kernels: the `pshufb` split-nibble technique of
//! ISA-L/Plank [FAST'13] and ISA-L's `vgf2p8affineqb` form, runtime-
//! dispatched, plus the fused multi-output dot-product kernels the paper's
//! prefetch scheduling lives in.
//!
//! A GF multiply by a constant `c` is two 16-entry table lookups (low and
//! high nibble) and an XOR — `pshufb`/`vpshufb` perform 16/32 such lookups
//! per instruction — or one 8x8 bit-matrix product per byte, which
//! `vgf2p8affineqb` does for a whole 64 B cacheline at once. Every tier is
//! one impl of the private `Lanes` trait, and the fused row loop is written
//! once over it: it is the only vector path.
//!
//! ## Fused kernels
//!
//! [`dot_prod_fused`] is the ISA-L `gf_{1..6}vect_dot_prod` shape: each
//! 64 B source cacheline is loaded **once** and accumulated into up to
//! [`FUSED_GROUP`] output rows held in registers; wider output sets split
//! into groups of at most [`FUSED_GROUP`], each group re-streaming the
//! sources once. The §4.2 prefetch-pointer array (two-group construction,
//! plain-kernel tail) and the §4.3 XPLine-aware long/short distances are
//! issued from inside the row loop — see [`crate::sched`] for the index
//! rules. The partial last line of a pass takes the portable table kernel.
//!
//! [`dot_prod_verify`] and [`dot_prod_syndromes`] check stored parity with
//! the same row loop and end it differently: each accumulator starts from
//! the stored parity line instead of zero, so the fold is the syndrome,
//! and it is tested for zero in registers instead of stored. The stored
//! rows ride the prefetch-pointer array beside the sources.
//!
//! Feature detection runs once per process ([`detected_kernel`] caches in
//! a `OnceLock`); [`set_kernel_override`] can force an equal-or-*lower*
//! tier so every lower path stays coverable on the widest host.
//!
//! The portable kernels in [`crate::slice`] remain the reference, and share
//! no code with the vector tiers; the fused paths are verified byte-for-byte
//! against them on every tier.

use crate::sched::{FusedSched, PassSched};
use crate::slice::prefetch_read;
use crate::tables::NibbleTables;
use crate::CACHELINE;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel the dispatcher selected (exposed for tests/telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar/autovectorized path.
    Portable,
    /// 16-byte `pshufb` path.
    Ssse3,
    /// 32-byte `vpshufb` path.
    Avx2,
    /// 64-byte `vgf2p8affineqb` path (AVX-512F + GFNI).
    Avx512Gfni,
}

impl Kernel {
    /// Every tier, lowest first: a tier's rank is its index here.
    pub const ALL: [Kernel; 4] = [
        Kernel::Portable,
        Kernel::Ssse3,
        Kernel::Avx2,
        Kernel::Avx512Gfni,
    ];

    fn tier(self) -> u8 {
        Kernel::ALL.iter().position(|&k| k == self).unwrap_or(0) as u8
    }
}

/// Cached CPU feature detection — computed on first use, then free.
static DETECTED: OnceLock<Kernel> = OnceLock::new();

/// Test/bench downgrade request: 0 = none, otherwise the tier's rank + 1.
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The best kernel available on this CPU. Feature detection runs once per
/// process; every later call is a cached load.
pub fn detected_kernel() -> Kernel {
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("gfni")
            {
                return Kernel::Avx512Gfni;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                return Kernel::Ssse3;
            }
        }
        Kernel::Portable
    })
}

/// Force the dispatchers onto `k` (or back to auto with `None`).
///
/// Test/bench hook: requests are clamped to the *detected* tier, so a
/// lower tier (e.g. `Avx2` on a GFNI host) is always honoured and a higher
/// one selects the detected tier, never instructions the CPU lacks. Affects
/// the whole process; tests that sweep tiers should do so from a single
/// test body rather than racing overrides across threads.
pub fn set_kernel_override(k: Option<Kernel>) {
    let v = k.map_or(0, |k| k.tier() + 1);
    KERNEL_OVERRIDE.store(v, Ordering::Release);
}

/// The kernel the dispatchers will actually use: the detected tier, capped
/// by any [`set_kernel_override`] request.
pub fn selected_kernel() -> Kernel {
    let detected = detected_kernel();
    match KERNEL_OVERRIDE.load(Ordering::Acquire) {
        0 => detected,
        v => Kernel::ALL[(v - 1).min(detected.tier()) as usize],
    }
}

/// Outputs per register-blocked fused pass: six parity accumulators is the
/// classic ISA-L `gf_6vect_dot_prod` register budget (accumulators, source,
/// nibble masks and table registers fit the 16 ymm/xmm architectural
/// registers). Wider output sets split into groups of this size on every
/// tier: it is the pass count the simulator prices.
pub const FUSED_GROUP: usize = 6;

/// Fused multi-output GF(2^8) dot product:
/// `outputs[i] = sum_j tables[i*k + j] · sources[j]`, overwriting outputs
/// (a thin caller of [`dot_prod_fused_into`], which never reads them).
///
/// One pass over each 64 B source cacheline accumulates into up to
/// [`FUSED_GROUP`] outputs held in registers; more outputs split into
/// groups, each group streaming the sources once. The schedule's prefetch
/// pointers (§4.2 two-group construction, §4.3 long/short split, shuffle
/// row order) are issued from inside the row loop of the *first* group —
/// later groups re-read source lines that are already cache-resident.
/// Scheduling never changes the bytes produced.
///
/// The final `len % 64` bytes take the plain per-slice kernel (the paper's
/// tail tasks "revert to the standard kernel").
///
/// # Panics
/// Panics when `tables.len() != sources.len() * outputs.len()` or any
/// source/output length differs from the first output's.
pub fn dot_prod_fused(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [u8]],
    sched: FusedSched,
) {
    let mut outs: Vec<&mut [MaybeUninit<u8>]> = outputs.iter_mut().map(|o| write_only(o)).collect();
    fused_on(tables, sources, &mut outs, sched, &mut ());
}

/// [`dot_prod_fused`] into write-only outputs: every output byte is
/// stored exactly as the result and never read first, so the outputs may
/// be memory nothing has written yet (a [`FreshBlock`], or a pool chunk's
/// span of one). On return every byte of every output is written.
///
/// # Panics
/// As [`dot_prod_fused`].
pub fn dot_prod_fused_into(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [MaybeUninit<u8>]],
    sched: FusedSched,
) {
    fused_on(tables, sources, outputs, sched, &mut ());
}

/// [`dot_prod_fused`] into `n_out` fresh blocks of `len` bytes, allocated
/// unwritten and filled by the one pass: no block is zero-filled first.
///
/// # Panics
/// As [`dot_prod_fused`], with `len` the length every source must have.
pub fn dot_prod_fused_vec(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    n_out: usize,
    len: usize,
    sched: FusedSched,
) -> Vec<Vec<u8>> {
    let mut fresh: Vec<FreshBlock> = (0..n_out).map(|_| FreshBlock::new(len)).collect();
    let mut outs: Vec<&mut [MaybeUninit<u8>]> =
        fresh.iter_mut().map(FreshBlock::as_uninit).collect();
    fused_on(tables, sources, &mut outs, sched, &mut ());
    fresh
        .into_iter()
        // SAFETY: `fused_on` returned, so it stored every byte of every
        // output: through the `Store` end, the vector tiers and the
        // portable pass each store whole rows `pass.row(0..rows)`, a
        // bijection on `0..rows`, of every group's outputs (with `k == 0`
        // the zero seed); the tail writes `[rows * CACHELINE, len)` (zeros,
        // then accumulates). The gf proptest
        // `fused_matches_reference_for_all_tiers_and_tail_shapes` holds
        // this path to the reference on every tier and tail shape.
        .map(|b| unsafe { b.assume_written() })
        .collect()
}

/// A fresh output block the fused kernel fills without reading: a
/// `Vec<u8>` with capacity for `len` bytes and length 0 until a caller that
/// knows every byte was stored says so ([`FreshBlock::assume_written`]).
/// Dropped unwritten it frees its allocation at length 0; no `&mut [u8]`
/// is ever formed over its unwritten bytes.
#[derive(Debug)]
pub struct FreshBlock {
    buf: Vec<u8>,
    len: usize,
}

impl FreshBlock {
    /// Capacity for `len` bytes, none of them written.
    pub fn new(len: usize) -> Self {
        FreshBlock {
            buf: Vec::with_capacity(len),
            len,
        }
    }

    /// The block's `len` bytes as write-only memory.
    pub fn as_uninit(&mut self) -> &mut [MaybeUninit<u8>] {
        &mut self.buf.spare_capacity_mut()[..self.len]
    }

    /// The written block.
    ///
    /// # Safety
    /// Every one of the block's `len` bytes has been stored since
    /// [`FreshBlock::new`], through [`FreshBlock::as_uninit`] or a pointer
    /// derived from it.
    pub unsafe fn assume_written(mut self) -> Vec<u8> {
        // SAFETY: `len <= capacity` (`Vec::with_capacity(len)`), and the
        // caller vouches that every byte below `len` was written.
        unsafe { self.buf.set_len(self.len) };
        self.buf
    }
}

/// `out` as write-only memory, for the kernel entry. Private: the kernel
/// only ever stores initialized bytes through it, which is what keeps `out`
/// initialized for its owner.
fn write_only(out: &mut [u8]) -> &mut [MaybeUninit<u8>] {
    // SAFETY: `MaybeUninit<u8>` has `u8`'s layout, and the view borrows
    // `out` exclusively for its lifetime; every caller hands it straight to
    // `fused_on`, which stores only initialized bytes, so `out` is still
    // initialized when the borrow ends.
    unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast(), out.len()) }
}

/// Write zeros over `dst` and hand it back as the initialized bytes it now
/// is.
fn zeroed(dst: &mut [MaybeUninit<u8>]) -> &mut [u8] {
    dst.fill(MaybeUninit::new(0));
    // SAFETY: every byte of `dst` was written on the line above.
    unsafe { dst.assume_init_mut() }
}

/// One access of the fused row walk: a prefetch or load of source `.0`'s
/// line, or the store of output `.0`'s, at physical row `.1`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Prefetch(usize, u64),
    Load(usize, u64),
    Store(usize, u64),
}

/// Where the portable row walk reports its accesses: nowhere in production
/// (`()`), into a trace under test — which pins the pass to that tier.
trait AccessSink {
    const TIER: Option<Kernel> = None;
    #[inline(always)]
    fn on(&mut self, _: Access) {}
}

impl AccessSink for () {}

impl AccessSink for Vec<Access> {
    const TIER: Option<Kernel> = Some(Kernel::Portable);
    fn on(&mut self, access: Access) {
        self.push(access);
    }
}

/// [`dot_prod_fused`] on the portable tier, returning the row walk it
/// executed: `dialga-pipeline`'s differential test holds that sequence
/// against the simulator's `RowTask` stream.
#[doc(hidden)]
pub fn dot_prod_fused_traced(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [u8]],
    sched: FusedSched,
) -> Vec<Access> {
    let mut trace = Vec::new();
    let mut outs: Vec<&mut [MaybeUninit<u8>]> = outputs.iter_mut().map(|o| write_only(o)).collect();
    fused_on(tables, sources, &mut outs, sched, &mut trace);
    trace
}

/// The common length of a pass's rows, asserting the pass's geometry
/// (`entry` names the public entry in the panic); `None` when there are
/// no output rows, so nothing to do.
fn pass_len(
    entry: &str,
    tables: &[NibbleTables],
    sources: &[&[u8]],
    mut rows: impl ExactSizeIterator<Item = usize>,
) -> Option<usize> {
    assert_eq!(
        tables.len(),
        sources.len() * rows.len(),
        "{entry} table geometry mismatch"
    );
    let len = rows.next()?;
    for l in rows.chain(sources.iter().map(|s| s.len())) {
        assert_eq!(l, len, "{entry} length mismatch");
    }
    Some(len)
}

/// The one fused encode every entry runs: writes each output byte once,
/// never reading it.
fn fused_on<S: AccessSink>(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [MaybeUninit<u8>]],
    sched: FusedSched,
    sink: &mut S,
) {
    let lens = outputs.iter().map(|o| o.len());
    let Some(len) = pass_len("dot_prod_fused", tables, sources, lens) else {
        return;
    };
    let rows = len / CACHELINE;
    groups_on(
        tables,
        sources,
        outputs.len(),
        rows,
        sched,
        &mut Store(outputs),
        sink,
    );

    // Tail: the partial final cacheline reverts to the standard kernel.
    let tail = rows * CACHELINE;
    if tail < len {
        let k = sources.len();
        for (i, out) in outputs.iter_mut().enumerate() {
            let dst = zeroed(&mut out[tail..]);
            for (j, src) in sources.iter().enumerate() {
                crate::slice::mul_add_slice_tab(&tables[i * k + j], &src[tail..], dst);
            }
        }
    }
}

/// The group loop of the fused pass over the `rows` whole 64 B rows:
/// outputs in groups of at most [`FUSED_GROUP`], each group one row loop
/// on the selected tier that streams every source once, `end` deciding
/// where each group's accumulators start and what becomes of them.
fn groups_on<E: PassEnd, S: AccessSink>(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    n_out: usize,
    rows: usize,
    sched: FusedSched,
    end: &mut E,
    sink: &mut S,
) {
    let k = sources.len();
    let kern = S::TIER.unwrap_or_else(selected_kernel);
    let pass = PassSched::new(k, rows as u64, &sched);
    for first in (0..n_out).step_by(FUSED_GROUP) {
        let group = first..n_out.min(first + FUSED_GROUP);
        let tabs = &tables[group.start * k..group.end * k];
        // Prefetches ride the first group's pass only: later groups re-walk
        // lines the first pass already pulled in.
        let prefetch = first == 0 && sched.d.is_some();
        match kern {
            // SAFETY: `selected_kernel` returns a tier only when runtime
            // detection confirmed every feature its entry point enables
            // (overrides only lower it); `group` is 1..=FUSED_GROUP of
            // `end`'s rows, `tabs` holds their `k` tables each, and the
            // caller asserted (`pass_len`) that every source and every row
            // of `end` holds the pass's `rows * CACHELINE` bytes.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Gfni => unsafe {
                x86::fused_gfni(tabs, sources, end, group, &pass, prefetch)
            },
            // SAFETY: as for the GFNI arm.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { x86::fused_avx2(tabs, sources, end, group, &pass, prefetch) },
            // SAFETY: as for the GFNI arm.
            #[cfg(target_arch = "x86_64")]
            Kernel::Ssse3 => unsafe {
                x86::fused_ssse3(tabs, sources, end, group, &pass, prefetch)
            },
            _ => group_pass_portable(tabs, sources, end, group, &pass, prefetch, sink),
        }
    }
}

/// The two ends of the one fused row loop: where each output line's
/// accumulators start, and what becomes of the folded line.
///
/// [`Store`] (every encode) seeds zero and stores the line. [`Check`]
/// seeds the *stored* parity line, so the fold is the syndrome and a
/// consistent line folds to zero; it is tested for zero in registers and
/// nothing is stored. Output indices are over all the pass's rows, not
/// one group's. This is the portable tier's side; the vector tiers'
/// is `x86::LaneEnd`.
trait RowEnd {
    /// Prefetch what rides beside source `block`'s line at `row` in the
    /// §4.2 pointer array of a `k`-source pass.
    fn prefetch_beside(&self, k: usize, block: usize, row: u64);
    /// Output `i`'s accumulator seed for the 64 B `line`.
    fn seed_line(&self, i: usize, line: Range<usize>) -> [u8; CACHELINE];
    /// Takes output `i`'s folded `line`.
    fn end_line(&mut self, i: usize, line: Range<usize>, acc: &[u8; CACHELINE]);
}

/// The bound [`groups_on`] puts on an end: every tier's side of it.
#[cfg(target_arch = "x86_64")]
use x86::LaneEnd as PassEnd;
#[cfg(not(target_arch = "x86_64"))]
use RowEnd as PassEnd;

/// The encode pass's end: each output line is stored, never read.
struct Store<'a, 'b>(&'a mut [&'b mut [MaybeUninit<u8>]]);

impl RowEnd for Store<'_, '_> {
    #[inline(always)]
    fn prefetch_beside(&self, _: usize, _: usize, _: u64) {}
    #[inline(always)]
    fn seed_line(&self, _: usize, _: Range<usize>) -> [u8; CACHELINE] {
        [0; CACHELINE]
    }
    #[inline(always)]
    fn end_line(&mut self, i: usize, line: Range<usize>, acc: &[u8; CACHELINE]) {
        self.0[i][line].write_copy_of_slice(acc);
    }
}

/// The check pass's end: each accumulator starts from the stored parity
/// line, and a line whose syndrome is not zero goes to `dirty(row, line
/// start)`, the cold path. The stored rows ride the prefetch-pointer array
/// beside the sources: row `i`'s line with source `i mod k`'s, so each is
/// prefetched once, as far ahead as a source line.
struct Check<'a, 'b> {
    stored: &'a [&'b [u8]],
    dirty: &'a mut dyn FnMut(usize, usize),
}

impl RowEnd for Check<'_, '_> {
    #[inline(always)]
    fn prefetch_beside(&self, k: usize, block: usize, row: u64) {
        let mut i = block;
        while i < self.stored.len() {
            // A hint cannot fault: no bounds check on the hot path.
            prefetch_read(
                self.stored[i]
                    .as_ptr()
                    .wrapping_add(row as usize * CACHELINE),
            );
            i += k;
        }
    }
    #[inline(always)]
    fn seed_line(&self, i: usize, line: Range<usize>) -> [u8; CACHELINE] {
        let mut seed = [0; CACHELINE];
        seed.copy_from_slice(&self.stored[i][line]);
        seed
    }
    #[inline(always)]
    fn end_line(&mut self, i: usize, line: Range<usize>, acc: &[u8; CACHELINE]) {
        if acc.iter().any(|&s| s != 0) {
            (self.dirty)(i, line.start);
        }
    }
}

/// The check behind [`dot_prod_verify`] and [`dot_prod_syndromes`]: one
/// fused pass with the [`Check`] end, then the partial tail line by the
/// table kernel ([`line_syndrome`]). Calls `dirty(i, line)` for every row
/// `i` whose syndrome is non-zero somewhere in the line starting at byte
/// `line`: whole lines in the pass's order and maybe more than once
/// (once per vector of the line), the tail last.
fn check_on(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    expected: &[&[u8]],
    sched: FusedSched,
    dirty: &mut dyn FnMut(usize, usize),
) {
    let lens = expected.iter().map(|e| e.len());
    let Some(len) = pass_len("dot_prod_verify", tables, sources, lens) else {
        return;
    };
    let rows = len / CACHELINE;
    let mut end = Check {
        stored: expected,
        dirty: &mut *dirty,
    };
    groups_on(
        tables,
        sources,
        expected.len(),
        rows,
        sched,
        &mut end,
        &mut (),
    );
    let tail = rows * CACHELINE;
    if tail < len {
        let mut syndrome = [0; CACHELINE];
        for i in 0..expected.len() {
            let s = line_syndrome(tables, sources, expected, i, tail, &mut syndrome);
            if s.iter().any(|&s| s != 0) {
                dirty(i, tail);
            }
        }
    }
}

/// Row `i`'s syndrome `expected[i] ^ sum_j tables[i*k + j] · sources[j]`
/// over the line starting at byte `at` (64 bytes, or fewer at the end), by
/// the table kernel into the front of `out`.
fn line_syndrome<'o>(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    expected: &[&[u8]],
    i: usize,
    at: usize,
    out: &'o mut [u8; CACHELINE],
) -> &'o [u8] {
    let k = sources.len();
    let line = at..expected[i].len().min(at + CACHELINE);
    let out = &mut out[..line.len()];
    out.copy_from_slice(&expected[i][line.clone()]);
    for (j, src) in sources.iter().enumerate() {
        crate::slice::mul_add_slice_tab(&tables[i * k + j], &src[line.clone()], out);
    }
    out
}

/// Syndrome check on the fused path: which rows `i` have `expected[i] !=
/// sum_j tables[i*k + j] · sources[j]`, sorted ascending (empty = clean).
///
/// This is the integrity primitive behind `Dialga::verify`/`scrub`:
/// `sources` are the data shards, `expected` the stored parity rows, and
/// a returned index is a *syndrome* — evidence that some shard feeding
/// that parity row (or the row itself) is corrupt. Scheduling never
/// changes the verdict.
///
/// One fused pass, as [`dot_prod_fused`] but storing nothing: each
/// accumulator starts from the stored parity line, the sources fold in as
/// in the encode, and the result — the syndrome — is tested for zero in
/// registers. The stored rows ride the prefetch-pointer array beside the
/// sources. The partial tail line takes the table kernel. Nothing is
/// allocated but the result, and nothing at all for a clean stripe; the
/// pass always runs to the end.
///
/// # Panics
/// Panics when `tables.len() != sources.len() * expected.len()` or any
/// source/expected length differs from the first expected row's.
pub fn dot_prod_verify(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    expected: &[&[u8]],
    sched: FusedSched,
) -> Vec<usize> {
    let mut bad = Vec::new();
    check_on(tables, sources, expected, sched, &mut |i, _| {
        if !bad.contains(&i) {
            bad.push(i);
        }
    });
    bad.sort_unstable();
    bad
}

/// Where a stripe's syndromes are non-zero, and what they are there: the
/// result of [`dot_prod_syndromes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Support {
    /// Byte positions at which some row's syndrome is non-zero, ascending.
    pub positions: Vec<usize>,
    /// The `expected.len()` syndrome bytes at each position, row order
    /// within a position, positions in the order of `positions`.
    pub syndromes: Vec<u8>,
}

/// The collecting form of [`dot_prod_verify`]: the *support* of the
/// syndromes `S_i = expected[i] ^ sum_j tables[i*k + j] · sources[j]` —
/// every byte position where some `S_i` is non-zero — and all
/// `expected.len()` syndrome bytes at each. An empty support is a clean
/// stripe; a torn cacheline is at most 64 columns.
///
/// The same fused pass as [`dot_prod_verify`] finds the dirty 64 B lines;
/// only those are recomputed, byte by byte, by the table kernel that the
/// partial tail line takes. The support is all a locator needs: which
/// shards are corrupt, and by what, is decided on these small columns
/// instead of on the payload.
///
/// # Panics
/// As [`dot_prod_verify`].
pub fn dot_prod_syndromes(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    expected: &[&[u8]],
    sched: FusedSched,
) -> Support {
    let mut lines = Vec::new();
    check_on(tables, sources, expected, sched, &mut |_, line| {
        if lines.last() != Some(&line) {
            lines.push(line);
        }
    });
    lines.sort_unstable();
    lines.dedup();
    let mut support = Support::default();
    let mut rows = vec![[0; CACHELINE]; if lines.is_empty() { 0 } else { expected.len() }];
    for line in lines {
        let mut width = 0;
        for (i, row) in rows.iter_mut().enumerate() {
            width = line_syndrome(tables, sources, expected, i, line, row).len();
        }
        for at in 0..width {
            let column = rows.iter().map(|row| row[at]);
            if column.clone().any(|s| s != 0) {
                support.positions.push(line + at);
                support.syndromes.extend(column);
            }
        }
    }
    support
}

/// The vector tiers: one [`Lanes`] impl each, the two loop bodies written
/// over the trait, and the `#[target_feature]` frames they inline into.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        prefetch_read, Check, NibbleTables, PassSched, RowEnd, Store, CACHELINE, FUSED_GROUP,
    };
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// One register width of the constant-coefficient GF(2^8) multiply; the
    /// implementing type is the register, and all-zero bytes are a valid one.
    ///
    /// # Safety
    /// Every method compiles to its tier's instructions: call them only
    /// from (code inlined into) that tier's `#[target_feature]` entry point.
    pub(super) trait Lanes: Copy {
        /// Reads `WIDTH` bytes at `p`.
        ///
        /// # Safety
        /// The tier's features are on, and the `WIDTH` bytes at `p` lie
        /// inside a live allocation; no alignment is required.
        unsafe fn load(p: *const u8) -> Self;
        /// Writes `WIDTH` bytes at `p`.
        ///
        /// # Safety
        /// As for `load`, and the bytes are writable.
        unsafe fn store(self, p: *mut u8);
        /// The loaded source vector in the form `mul_acc` consumes.
        ///
        /// # Safety
        /// The tier's features are on.
        unsafe fn split(self) -> Self::Src;
        /// `self ^ c · s` bytewise, `c` the coefficient `t` was prepared for.
        ///
        /// # Safety
        /// The tier's features are on.
        unsafe fn mul_acc(self, t: &NibbleTables, s: Self::Src) -> Self;
        /// `self | other` bytewise.
        ///
        /// # Safety
        /// The tier's features are on.
        unsafe fn or(self, other: Self) -> Self;
        /// Whether every byte is zero.
        ///
        /// # Safety
        /// The tier's features are on.
        unsafe fn is_zero(self) -> bool;
        /// Bytes per vector; divides `CACHELINE`.
        const WIDTH: usize;
        /// A source vector in the form the multiply consumes, so work shared
        /// by a group's outputs (the nibble split) is done once per load.
        type Src: Copy;
    }

    /// 16-byte `pshufb` lanes (SSSE3; the rest is baseline SSE2).
    impl Lanes for __m128i {
        const WIDTH: usize = CACHELINE / 4;
        type Src = (__m128i, __m128i);
        #[inline(always)]
        unsafe fn load(p: *const u8) -> Self {
            // SAFETY: 16 accessible bytes at `p` (trait contract).
            unsafe { _mm_loadu_si128(p as *const __m128i) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut u8) {
            // SAFETY: 16 writable bytes at `p` (trait contract).
            unsafe { _mm_storeu_si128(p as *mut __m128i, self) }
        }
        #[inline(always)]
        unsafe fn split(self) -> Self::Src {
            // SAFETY: SSE2 is baseline x86_64; register-only.
            unsafe {
                let mask = _mm_set1_epi8(0x0F);
                let hi = _mm_and_si128(_mm_srli_epi64(self, 4), mask);
                (_mm_and_si128(self, mask), hi)
            }
        }
        #[inline(always)]
        unsafe fn mul_acc(self, t: &NibbleTables, (lo, hi): Self::Src) -> Self {
            // SAFETY: SSSE3 is on (trait contract); both nibble tables are
            // 16-byte arrays, read exactly.
            unsafe {
                let lo = _mm_shuffle_epi8(Self::load(t.low.as_ptr()), lo);
                let hi = _mm_shuffle_epi8(Self::load(t.high.as_ptr()), hi);
                _mm_xor_si128(self, _mm_xor_si128(lo, hi))
            }
        }
        #[inline(always)]
        unsafe fn or(self, other: Self) -> Self {
            // SAFETY: SSE2 is baseline x86_64; register-only.
            unsafe { _mm_or_si128(self, other) }
        }
        #[inline(always)]
        unsafe fn is_zero(self) -> bool {
            // SAFETY: SSE2 is baseline x86_64; register-only. (`ptest` is
            // SSE4.1, above this tier.)
            unsafe { _mm_movemask_epi8(_mm_cmpeq_epi8(self, _mm_setzero_si128())) == 0xFFFF }
        }
    }

    /// 32-byte `vpshufb` lanes: the 16-entry tables broadcast to both
    /// 128-bit halves.
    impl Lanes for __m256i {
        const WIDTH: usize = CACHELINE / 2;
        type Src = (__m256i, __m256i);
        #[inline(always)]
        unsafe fn load(p: *const u8) -> Self {
            // SAFETY: 32 accessible bytes at `p` (trait contract).
            unsafe { _mm256_loadu_si256(p as *const __m256i) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut u8) {
            // SAFETY: 32 writable bytes at `p` (trait contract).
            unsafe { _mm256_storeu_si256(p as *mut __m256i, self) }
        }
        #[inline(always)]
        unsafe fn split(self) -> Self::Src {
            // SAFETY: AVX2 is on (trait contract); register-only.
            unsafe {
                let mask = _mm256_set1_epi8(0x0F);
                let hi = _mm256_and_si256(_mm256_srli_epi64(self, 4), mask);
                (_mm256_and_si256(self, mask), hi)
            }
        }
        #[inline(always)]
        unsafe fn mul_acc(self, t: &NibbleTables, (lo, hi): Self::Src) -> Self {
            // SAFETY: AVX2 is on (trait contract); both nibble tables are
            // 16-byte arrays, read exactly.
            unsafe {
                let lo_tab = _mm256_broadcastsi128_si256(__m128i::load(t.low.as_ptr()));
                let hi_tab = _mm256_broadcastsi128_si256(__m128i::load(t.high.as_ptr()));
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tab, lo),
                    _mm256_shuffle_epi8(hi_tab, hi),
                );
                _mm256_xor_si256(self, prod)
            }
        }
        #[inline(always)]
        unsafe fn or(self, other: Self) -> Self {
            // SAFETY: AVX2 is on (trait contract); register-only.
            unsafe { _mm256_or_si256(self, other) }
        }
        #[inline(always)]
        unsafe fn is_zero(self) -> bool {
            // SAFETY: AVX2 (so AVX) is on (trait contract); register-only.
            unsafe { _mm256_testz_si256(self, self) != 0 }
        }
    }

    /// 64-byte `vgf2p8affineqb` lanes (AVX-512F + GFNI): a whole cacheline
    /// per multiply, the coefficient one broadcast qword, the source used
    /// as loaded.
    impl Lanes for __m512i {
        const WIDTH: usize = CACHELINE;
        type Src = __m512i;
        #[inline(always)]
        unsafe fn load(p: *const u8) -> Self {
            // SAFETY: 64 accessible bytes at `p` (trait contract).
            unsafe { _mm512_loadu_si512(p as *const __m512i) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut u8) {
            // SAFETY: 64 writable bytes at `p` (trait contract).
            unsafe { _mm512_storeu_si512(p as *mut __m512i, self) }
        }
        #[inline(always)]
        unsafe fn split(self) -> Self {
            self
        }
        #[inline(always)]
        unsafe fn mul_acc(self, t: &NibbleTables, s: Self) -> Self {
            // SAFETY: AVX-512F and GFNI are on (trait contract); register-only.
            unsafe {
                let matrix = _mm512_set1_epi64(t.affine as i64);
                _mm512_xor_si512(self, _mm512_gf2p8affine_epi64_epi8::<0>(s, matrix))
            }
        }
        #[inline(always)]
        unsafe fn or(self, other: Self) -> Self {
            // SAFETY: AVX-512F is on (trait contract); register-only.
            unsafe { _mm512_or_si512(self, other) }
        }
        #[inline(always)]
        unsafe fn is_zero(self) -> bool {
            // SAFETY: AVX-512F is on (trait contract); register-only.
            unsafe { _mm512_test_epi64_mask(self, self) == 0 }
        }
    }

    /// The vector tiers' side of a [`RowEnd`]: each accumulator's seed, and
    /// what becomes of a group's folded vectors.
    pub(super) trait LaneEnd: RowEnd {
        /// Where a row's vectors are read or written: its first byte.
        type Base: Copy;
        /// Row `i`'s base. A group pass takes its rows' bases once, so the
        /// row loop keeps them in registers instead of reloading them
        /// around every store or call.
        fn base(&mut self, i: usize) -> Self::Base;
        /// The accumulator seed for the vector at byte `at` of the row at
        /// `base`.
        ///
        /// # Safety
        /// [`Lanes`] contract for `L`; `base` is one of the end's rows,
        /// and `at + L::WIDTH` is within it.
        unsafe fn seed<L: Lanes>(base: Self::Base, at: usize) -> L;
        /// Takes the folded vectors at byte `at` of the group's rows
        /// (`bases`, outputs `first..first + N`), in the 64 B line starting
        /// at byte `line`.
        ///
        /// # Safety
        /// As for `seed`, for each of those rows.
        unsafe fn end<L: Lanes, const N: usize>(
            &mut self,
            bases: &[Self::Base; N],
            first: usize,
            at: usize,
            acc: &[L; N],
            line: usize,
        );
    }

    impl LaneEnd for Store<'_, '_> {
        type Base = *mut u8;
        #[inline(always)]
        fn base(&mut self, i: usize) -> *mut u8 {
            self.0[i].as_mut_ptr().cast()
        }
        #[inline(always)]
        unsafe fn seed<L: Lanes>(_: *mut u8, _: usize) -> L {
            // SAFETY: all-zero is a valid `L` (trait contract).
            unsafe { std::mem::zeroed() }
        }
        #[inline(always)]
        unsafe fn end<L: Lanes, const N: usize>(
            &mut self,
            bases: &[*mut u8; N],
            _: usize,
            at: usize,
            acc: &[L; N],
            _: usize,
        ) {
            for (base, a) in bases.iter().zip(acc) {
                // SAFETY: `at + WIDTH` is within the output at `base`
                // (method contract), which the kernel may write.
                unsafe { a.store(base.add(at)) }
            }
        }
    }

    impl LaneEnd for Check<'_, '_> {
        type Base = *const u8;
        #[inline(always)]
        fn base(&mut self, i: usize) -> *const u8 {
            self.stored[i].as_ptr()
        }
        #[inline(always)]
        unsafe fn seed<L: Lanes>(base: *const u8, at: usize) -> L {
            // SAFETY: `at + WIDTH` is within the stored row at `base`
            // (method contract).
            unsafe { L::load(base.add(at)) }
        }
        #[inline(always)]
        unsafe fn end<L: Lanes, const N: usize>(
            &mut self,
            _: &[*const u8; N],
            first: usize,
            _: usize,
            acc: &[L; N],
            line: usize,
        ) {
            // SAFETY: the tier's features are on (method contract);
            // register-only.
            unsafe {
                let any = acc.iter().fold(acc[0], |any, &a| any.or(a));
                if any.is_zero() {
                    return;
                }
                for (i, a) in acc.iter().enumerate() {
                    if !a.is_zero() {
                        (self.dirty)(first + i, line);
                    }
                }
            }
        }
    }

    /// Fused `N`-output pass over the whole 64 B rows of the buffers: each
    /// source line is loaded (and split) once per group and folded into `N`
    /// register accumulators seeded by `end`, which then takes each
    /// group's folded vectors: the row loop of the encode and of the check.
    ///
    /// # Safety
    /// [`Lanes`] contract for `L`; `tables.len() == N * sources.len()`,
    /// `end` has rows `first..first + N`, and every source and each of
    /// those rows holds at least `pass.rows() * CACHELINE` bytes.
    #[inline(always)]
    unsafe fn group_pass<L: Lanes, const N: usize, E: LaneEnd>(
        tables: &[NibbleTables],
        sources: &[&[u8]],
        end: &mut E,
        first: usize,
        pass: &PassSched,
        prefetch: bool,
    ) {
        let (k, rows) = (sources.len(), pass.rows());
        let bases: [E::Base; N] = std::array::from_fn(|i| end.base(first + i));
        for vr in 0..rows {
            let off = pass.row(vr) as usize * CACHELINE;
            if prefetch {
                // §4.2/§4.3 pointers: a hint cannot fault, the slicing checks.
                pass.for_each_target(vr, |b, r| {
                    prefetch_read(sources[b][r as usize * CACHELINE..].as_ptr());
                    end.prefetch_beside(k, b, r);
                });
            }
            for lane in 0..CACHELINE / L::WIDTH {
                let at = off + lane * L::WIDTH;
                // SAFETY: `pass.row` is a bijection on `0..rows`, so `at +
                // WIDTH <= off + CACHELINE <= rows * CACHELINE`, within every
                // source and every row of `end` the pass touches (caller
                // contract): each vector access stays inside its slice. `i <
                // N` and `j < k`, so `i * k + j < N * k == tables.len()`
                // (caller contract): unchecked, because the bounds tests'
                // registers cost the inner loop a spill. CPU features: the
                // caller's. All-zero is a valid `L` (trait contract).
                unsafe {
                    let mut acc = [std::mem::zeroed::<L>(); N];
                    for (acc, &base) in acc.iter_mut().zip(&bases) {
                        *acc = E::seed(base, at);
                    }
                    for (j, src) in sources.iter().enumerate() {
                        let s = L::load(src.as_ptr().add(at)).split();
                        for (i, acc) in acc.iter_mut().enumerate() {
                            *acc = acc.mul_acc(tables.get_unchecked(i * k + j), s);
                        }
                    }
                    end.end(&bases, first, at, &acc, off);
                }
            }
        }
    }

    /// The one `#[target_feature]` frame of a tier — the only place its
    /// instructions are enabled, and what the generic body inlines into:
    /// `$fused` monomorphizes [`group_pass`] over the runtime group width.
    macro_rules! tier_entries {
        ($lanes:ty, $features:literal, $fused:ident) => {
            /// # Safety
            /// This tier's CPU features; `group` is 1 to `FUSED_GROUP` rows
            /// of `end`, and the rest of [`group_pass`]'s contract for
            /// `first = group.start`, `N = group.len()`.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $fused<E: LaneEnd>(
                tabs: &[NibbleTables],
                srcs: &[&[u8]],
                end: &mut E,
                group: Range<usize>,
                pass: &PassSched,
                pf: bool,
            ) {
                debug_assert!((1..=FUSED_GROUP).contains(&group.len()));
                let first = group.start;
                // SAFETY: this function's contract, `N` the matched width.
                unsafe {
                    match group.len() {
                        1 => group_pass::<$lanes, 1, E>(tabs, srcs, end, first, pass, pf),
                        2 => group_pass::<$lanes, 2, E>(tabs, srcs, end, first, pass, pf),
                        3 => group_pass::<$lanes, 3, E>(tabs, srcs, end, first, pass, pf),
                        4 => group_pass::<$lanes, 4, E>(tabs, srcs, end, first, pass, pf),
                        5 => group_pass::<$lanes, 5, E>(tabs, srcs, end, first, pass, pf),
                        _ => group_pass::<$lanes, 6, E>(tabs, srcs, end, first, pass, pf),
                    }
                }
            }
        };
    }
    tier_entries!(__m128i, "ssse3", fused_ssse3);
    tier_entries!(__m256i, "avx2", fused_avx2);
    tier_entries!(__m512i, "avx512f,gfni", fused_gfni);
}

/// Portable fused pass: same row walk, shuffle and prefetch schedule as the
/// vector passes (so scheduling is exercised on every tier) and the same
/// shape — each source line folded once into the group's accumulators,
/// which `end` seeds and then takes — the per-line multiply done by the
/// table kernel. `group` is the outputs of this pass.
fn group_pass_portable(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    end: &mut impl RowEnd,
    group: Range<usize>,
    pass: &PassSched,
    prefetch: bool,
    sink: &mut impl AccessSink,
) {
    let (k, rows) = (sources.len(), pass.rows());
    let (first, n) = (group.start, group.len());
    for vr in 0..rows {
        let row = pass.row(vr);
        let line = row as usize * CACHELINE..(row as usize + 1) * CACHELINE;
        if prefetch {
            pass.for_each_target(vr, |b, r| {
                sink.on(Access::Prefetch(b, r));
                prefetch_read(sources[b][r as usize * CACHELINE..].as_ptr());
                end.prefetch_beside(k, b, r);
            });
        }
        let mut acc = [[0u8; CACHELINE]; FUSED_GROUP];
        for (i, acc) in acc[..n].iter_mut().enumerate() {
            *acc = end.seed_line(first + i, line.clone());
        }
        for (j, src) in sources.iter().enumerate() {
            sink.on(Access::Load(j, row));
            for (i, acc) in acc[..n].iter_mut().enumerate() {
                crate::slice::mul_add_slice_tab(&tables[i * k + j], &src[line.clone()], acc);
            }
        }
        for (i, acc) in acc[..n].iter().enumerate() {
            sink.on(Access::Store(first + i, row));
            end.end_line(first + i, line.clone(), acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::mul_add_slice_tab;

    /// Restores auto selection when a test leaves, by return or by panic:
    /// the override is process-global and the other tests share it.
    struct AutoOnDrop;
    impl Drop for AutoOnDrop {
        fn drop(&mut self) {
            set_kernel_override(None);
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn kernel_detection_is_stable() {
        assert_eq!(detected_kernel(), detected_kernel());
    }

    #[test]
    fn override_clamps_to_detected_tier() {
        // Requesting tier T selects min(T, detected): never above the CPU,
        // and a request above it lands on the detected tier, not below.
        let _auto = AutoOnDrop;
        let detected = detected_kernel();
        for want in Kernel::ALL {
            set_kernel_override(Some(want));
            let expect = if want.tier() <= detected.tier() {
                want
            } else {
                detected
            };
            assert_eq!(selected_kernel(), expect, "requested {want:?}");
        }
        set_kernel_override(None);
        assert_eq!(selected_kernel(), detected);
    }

    fn reference_dot(tables: &[NibbleTables], sources: &[&[u8]], outputs: &mut [&mut [u8]]) {
        let k = sources.len();
        for (i, out) in outputs.iter_mut().enumerate() {
            out.fill(0);
            for (j, src) in sources.iter().enumerate() {
                mul_add_slice_tab(&tables[i * k + j], src, out);
            }
        }
    }

    #[test]
    fn fused_matches_reference_across_group_boundary() {
        // n_out 1..=8 crosses the FUSED_GROUP=6 register-blocking split.
        let k = 5;
        let len = 256 + 32; // 4 full rows + tail
        let data: Vec<Vec<u8>> = (0..k).map(|j| pattern(len, j as u8 + 1)).collect();
        let sources: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        for n_out in 1..=8usize {
            let tables: Vec<NibbleTables> = (0..n_out * k)
                .map(|i| NibbleTables::new((i as u8).wrapping_mul(29).wrapping_add(3)))
                .collect();
            let mut want = vec![vec![0u8; len]; n_out];
            let mut want_refs: Vec<&mut [u8]> = want.iter_mut().map(|o| o.as_mut_slice()).collect();
            reference_dot(&tables, &sources, &mut want_refs);
            let mut got = vec![vec![0xAAu8; len]; n_out];
            let mut got_refs: Vec<&mut [u8]> = got.iter_mut().map(|o| o.as_mut_slice()).collect();
            dot_prod_fused(
                &tables,
                &sources,
                &mut got_refs,
                FusedSched {
                    d: Some(7),
                    d_long: Some(13),
                    shuffle: false,
                },
            );
            assert_eq!(got, want, "n_out={n_out}");
        }
    }

    #[test]
    fn fused_zero_sources_zeroes_outputs() {
        let mut out = vec![0x55u8; 96];
        let mut outs: Vec<&mut [u8]> = vec![out.as_mut_slice()];
        dot_prod_fused(&[], &[], &mut outs, FusedSched::plain());
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "table geometry")]
    fn fused_table_geometry_mismatch_panics() {
        let t = vec![NibbleTables::new(2); 3];
        let a = [0u8; 64];
        let mut o = [0u8; 64];
        let mut outs: Vec<&mut [u8]> = vec![&mut o];
        dot_prod_fused(&t, &[&a, &a], &mut outs, FusedSched::plain());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        // The vector tiers index without bounds checks: a short source must
        // stop at the entry.
        let t = vec![NibbleTables::new(3); 2];
        let (a, b) = ([0u8; 128], [0u8; 127]);
        let mut o = [0u8; 128];
        let mut outs: Vec<&mut [u8]> = vec![&mut o];
        dot_prod_fused(&t, &[&a, &b], &mut outs, FusedSched::plain());
    }

    #[test]
    fn verify_accepts_clean_rows_and_localizes_flipped_ones() {
        // One ragged line, whole lines only, and many lines with a ragged
        // tail.
        let k = 4;
        let n_out = 3;
        for len in [96usize, 16_384, 32_968] {
            let data: Vec<Vec<u8>> = (0..k).map(|j| pattern(len, j as u8 + 11)).collect();
            let sources: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let tables: Vec<NibbleTables> = (0..n_out * k)
                .map(|i| NibbleTables::new((i as u8).wrapping_mul(31).wrapping_add(7)))
                .collect();
            let mut rows = vec![vec![0u8; len]; n_out];
            let mut row_refs: Vec<&mut [u8]> = rows.iter_mut().map(|o| o.as_mut_slice()).collect();
            reference_dot(&tables, &sources, &mut row_refs);
            let sched = FusedSched {
                d: Some(7),
                d_long: Some(13),
                shuffle: false,
            };
            let clean: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
            assert_eq!(
                dot_prod_verify(&tables, &sources, &clean, sched),
                Vec::<usize>::new()
            );
            // Flip one byte in row 1, in the last byte of the pass.
            let mut dirty = rows.clone();
            dirty[1][len - 1] ^= 0x40;
            let exp: Vec<&[u8]> = dirty.iter().map(|r| r.as_slice()).collect();
            assert_eq!(
                dot_prod_verify(&tables, &sources, &exp, sched),
                vec![1],
                "len={len}"
            );
            // Corrupt every row: all condemned.
            let mut all = rows.clone();
            for r in all.iter_mut() {
                r[0] ^= 1;
            }
            let exp: Vec<&[u8]> = all.iter().map(|r| r.as_slice()).collect();
            assert_eq!(
                dot_prod_verify(&tables, &sources, &exp, sched),
                vec![0, 1, 2]
            );
        }
    }

    #[test]
    fn syndromes_collect_exactly_the_nonzero_columns() {
        // A ragged length of many lines; damage in the first line and the
        // tail, in a row and in a source, plus one position hit twice — and
        // one source byte whose syndromes the row flips cancel back to
        // zero, which must not appear.
        let k = 4;
        let n_out = 3;
        let len = 32_968;
        let data: Vec<Vec<u8>> = (0..k).map(|j| pattern(len, j as u8 + 11)).collect();
        let tables: Vec<NibbleTables> = (0..n_out * k)
            .map(|i| NibbleTables::new((i as u8).wrapping_mul(31).wrapping_add(7)))
            .collect();
        let mut rows = vec![vec![0u8; len]; n_out];
        {
            let sources: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let mut row_refs: Vec<&mut [u8]> = rows.iter_mut().map(|o| o.as_mut_slice()).collect();
            reference_dot(&tables, &sources, &mut row_refs);
        }
        let sched = FusedSched {
            d: Some(7),
            d_long: Some(13),
            shuffle: true,
        };
        let clean_src: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let clean_rows: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        assert_eq!(
            dot_prod_syndromes(&tables, &clean_src, &clean_rows, sched),
            Support::default()
        );

        let mut bad_data = data.clone();
        let mut bad_rows = rows.clone();
        bad_rows[1][5] ^= 0x40;
        bad_data[2][5] ^= 0x03;
        bad_data[0][len - 1] ^= 0x80;
        // Cancelled: every row absorbs what the source flip adds to it.
        let at = 16_393;
        bad_data[3][at] ^= 0x55;
        for (i, row) in bad_rows.iter_mut().enumerate() {
            row[at] ^= tables[i * k + 3].mul(0x55);
        }
        let sources: Vec<&[u8]> = bad_data.iter().map(|d| d.as_slice()).collect();
        let expected: Vec<&[u8]> = bad_rows.iter().map(|r| r.as_slice()).collect();
        let got = dot_prod_syndromes(&tables, &sources, &expected, sched);
        assert_eq!(got.positions, vec![5, len - 1]);
        let t = &tables;
        let column = |src: usize, flip: u8| (0..n_out).map(move |i| t[i * k + src].mul(flip));
        let mut want: Vec<u8> = column(2, 0x03).collect();
        want[1] ^= 0x40;
        want.extend(column(0, 0x80));
        assert_eq!(got.syndromes, want);
        // Same rows condemned as the verdict form, on any schedule.
        assert_eq!(
            dot_prod_verify(&tables, &sources, &expected, sched),
            vec![0, 1, 2]
        );
        assert_eq!(
            dot_prod_syndromes(&tables, &sources, &expected, FusedSched::plain()),
            got
        );
    }

    #[test]
    fn verify_verdict_is_schedule_independent() {
        let k = 3;
        let len = 640;
        let data: Vec<Vec<u8>> = (0..k).map(|j| pattern(len, j as u8 + 2)).collect();
        let sources: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let tables: Vec<NibbleTables> = (0..2 * k)
            .map(|i| NibbleTables::new((i as u8).wrapping_mul(23).wrapping_add(5)))
            .collect();
        let mut rows = vec![vec![0u8; len]; 2];
        let mut row_refs: Vec<&mut [u8]> = rows.iter_mut().map(|o| o.as_mut_slice()).collect();
        reference_dot(&tables, &sources, &mut row_refs);
        rows[0][17] ^= 0x0F;
        let exp: Vec<&[u8]> = rows.iter().map(|r| r.as_slice()).collect();
        let scheds = [
            FusedSched::plain(),
            FusedSched {
                d: Some(4),
                d_long: Some(16),
                shuffle: true,
            },
        ];
        for sched in scheds {
            assert_eq!(dot_prod_verify(&tables, &sources, &exp, sched), vec![0]);
        }
    }
}
