//! SIMD GF(2^8) kernels: the real `pshufb` split-nibble technique of
//! ISA-L/Plank [FAST'13], runtime-dispatched, plus the fused multi-output
//! dot-product kernels the paper's prefetch scheduling lives in.
//!
//! A GF multiply by a constant `c` is two 16-entry table lookups (low and
//! high nibble) and an XOR. `pshufb`/`vpshufb` perform 16/32 such lookups
//! per instruction, so one 64 B cacheline takes a handful of vector ops —
//! the exact kernel shape the paper's compute-cost model charges 2 cycles
//! per line for.
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
//! rules. The per-row path (`mul_add_slice_simd` per (output, source)
//! pair) remains as the reference and as the tail kernel.
//!
//! Feature detection runs once per process ([`detected_kernel`] caches in
//! a `OnceLock`); [`set_kernel_override`] can force an equal-or-*lower*
//! tier so portable paths stay coverable on AVX2 hosts.
//!
//! The portable kernels in [`crate::slice`] remain the reference; these
//! accelerated paths are verified byte-for-byte against them.

use crate::sched::{for_each_prefetch_target, shuffle_row, FusedSched};
use crate::slice::prefetch_read;
use crate::tables::NibbleTables;
use crate::CACHELINE;
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
}

impl Kernel {
    fn tier(self) -> u8 {
        match self {
            Kernel::Portable => 0,
            Kernel::Ssse3 => 1,
            Kernel::Avx2 => 2,
        }
    }

    fn from_tier(t: u8) -> Kernel {
        match t {
            0 => Kernel::Portable,
            1 => Kernel::Ssse3,
            _ => Kernel::Avx2,
        }
    }
}

/// Cached CPU feature detection — computed on first use, then free.
static DETECTED: OnceLock<Kernel> = OnceLock::new();

/// Test/bench downgrade request: 0 = none, otherwise `tier + 1`.
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The best kernel available on this CPU. Feature detection runs once per
/// process; every later call is a cached load.
pub fn detected_kernel() -> Kernel {
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
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
/// lower tier (e.g. `Portable` on an AVX2 host) is always honoured and a
/// higher one can never select instructions the CPU lacks. Affects the
/// whole process; tests that sweep tiers should do so from a single test
/// body rather than racing overrides across threads.
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
        v => Kernel::from_tier((v - 1).min(detected.tier())),
    }
}

/// `dst[i] ^= c_table(src[i])` with the fastest available kernel.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn mul_add_slice_simd(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_add_slice_simd length mismatch");
    match selected_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `selected_kernel` returns `Avx2` only when detection (run
        // via `is_x86_feature_detected!("avx2")`) confirmed the CPU supports
        // the instructions the callee compiles to — overrides can only lower
        // the tier; slice lengths were asserted equal above.
        Kernel::Avx2 => unsafe { mul_add_avx2(t, src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — `Ssse3` is selected only when
        // `is_x86_feature_detected!("ssse3")` held on this CPU.
        Kernel::Ssse3 => unsafe { mul_add_ssse3(t, src, dst) },
        _ => crate::slice::mul_add_slice_tab(t, src, dst),
    }
}

/// 16-byte `pshufb` kernel.
///
/// # Safety
/// The CPU must support SSSE3 (callers establish this via
/// `is_x86_feature_detected!("ssse3")`), and `src.len() == dst.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn mul_add_ssse3(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = src.len() / 16 * 16;
    let mut i = 0;
    // SAFETY: the nibble tables are 16-byte arrays, so the unaligned table
    // loads read exactly 16 in-bounds bytes. The loop reads/writes 16-byte
    // windows at `i < n <= len - 15`, all inside the live `src`/`dst`
    // slices (equal length per the caller contract); unaligned load/store
    // intrinsics impose no alignment requirement.
    unsafe {
        let lo_tab = _mm_loadu_si128(t.low.as_ptr() as *const __m128i);
        let hi_tab = _mm_loadu_si128(t.high.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        while i < n {
            let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            let lo = _mm_and_si128(s, mask);
            let hi = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
            let prod = _mm_xor_si128(_mm_shuffle_epi8(lo_tab, lo), _mm_shuffle_epi8(hi_tab, hi));
            let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
            _mm_storeu_si128(
                dst.as_mut_ptr().add(i) as *mut __m128i,
                _mm_xor_si128(d, prod),
            );
            i += 16;
        }
    }
    if n < src.len() {
        crate::slice::mul_add_slice_tab(t, &src[n..], &mut dst[n..]);
    }
}

/// 32-byte `vpshufb` kernel.
///
/// # Safety
/// The CPU must support AVX2 (callers establish this via
/// `is_x86_feature_detected!("avx2")`), and `src.len() == dst.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_add_avx2(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = src.len() / 32 * 32;
    let mut i = 0;
    // SAFETY: the nibble tables are 16-byte arrays, so the unaligned table
    // loads read exactly 16 in-bounds bytes before broadcasting. The loop
    // reads/writes 32-byte windows at `i < n <= len - 31`, all inside the
    // live `src`/`dst` slices (equal length per the caller contract);
    // unaligned load/store intrinsics impose no alignment requirement.
    unsafe {
        // Broadcast the 16-entry tables into both 128-bit lanes.
        let lo128 = _mm_loadu_si128(t.low.as_ptr() as *const __m128i);
        let hi128 = _mm_loadu_si128(t.high.as_ptr() as *const __m128i);
        let lo_tab = _mm256_broadcastsi128_si256(lo128);
        let hi_tab = _mm256_broadcastsi128_si256(hi128);
        let mask = _mm256_set1_epi8(0x0F);
        while i < n {
            let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            let lo = _mm256_and_si256(s, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
            let prod = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo_tab, lo),
                _mm256_shuffle_epi8(hi_tab, hi),
            );
            let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_xor_si256(d, prod),
            );
            i += 32;
        }
    }
    if n < src.len() {
        crate::slice::mul_add_slice_tab(t, &src[n..], &mut dst[n..]);
    }
}

/// Outputs per register-blocked fused pass: six parity accumulators is the
/// classic ISA-L `gf_6vect_dot_prod` register budget (accumulators, source,
/// nibble masks and table registers fit the 16 ymm/xmm architectural
/// registers). Wider output sets split into groups of this size.
pub const FUSED_GROUP: usize = 6;

/// Fused multi-output GF(2^8) dot product:
/// `outputs[i] = sum_j tables[i*k + j] · sources[j]`, overwriting outputs.
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
    let k = sources.len();
    let n_out = outputs.len();
    assert_eq!(
        tables.len(),
        k * n_out,
        "dot_prod_fused table geometry mismatch"
    );
    if n_out == 0 {
        return;
    }
    let len = outputs[0].len();
    for o in outputs.iter() {
        assert_eq!(o.len(), len, "dot_prod_fused length mismatch");
    }
    if k == 0 {
        for o in outputs.iter_mut() {
            o.fill(0);
        }
        return;
    }
    for s in sources {
        assert_eq!(s.len(), len, "dot_prod_fused length mismatch");
    }

    let rows = (len / CACHELINE) as u64;
    let kern = selected_kernel();
    for (g, outs) in outputs.chunks_mut(FUSED_GROUP).enumerate() {
        let base = g * FUSED_GROUP * k;
        let tabs = &tables[base..base + outs.len() * k];
        // Prefetches ride the first group's pass only: later groups re-walk
        // lines the first pass already pulled in.
        let prefetch = g == 0 && sched.d.is_some();
        match kern {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `selected_kernel` returns `Avx2` only when runtime
            // detection confirmed AVX2 on this CPU (overrides only lower
            // the tier); every source/output was asserted to hold at least
            // `rows * CACHELINE` bytes above.
            Kernel::Avx2 => unsafe {
                dispatch_group!(group_pass_avx2, tabs, sources, outs, rows, sched, prefetch)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above — `Ssse3` is selected only when runtime
            // detection confirmed SSSE3 on this CPU.
            Kernel::Ssse3 => unsafe {
                dispatch_group!(group_pass_ssse3, tabs, sources, outs, rows, sched, prefetch)
            },
            _ => group_pass_portable(tabs, sources, outs, rows, sched, prefetch),
        }
    }

    // Tail: the partial final cacheline reverts to the standard kernel.
    let tail = rows as usize * CACHELINE;
    if tail < len {
        for (i, out) in outputs.iter_mut().enumerate() {
            let dst = &mut out[tail..];
            dst.fill(0);
            for (j, src) in sources.iter().enumerate() {
                crate::slice::mul_add_slice_tab(&tables[i * k + j], &src[tail..], dst);
            }
        }
    }
}

/// Scratch window for [`dot_prod_verify`]: 256 cachelines (16 KiB) per
/// output row — large enough that the fused kernels run at full stride
/// with the §4.2/§4.3 prefetch schedule live, small enough that the
/// scratch stays cache-resident instead of re-materializing whole parity
/// rows.
pub const VERIFY_WINDOW: usize = 256 * CACHELINE;

/// The window loop behind [`dot_prod_verify`] and [`dot_prod_syndromes`]:
/// recompute `sum_j tables[i*k + j] · sources[j]` one [`VERIFY_WINDOW`] at
/// a time through [`dot_prod_fused`] and hand `visit` each window's start
/// offset and recomputed rows; `visit` returns `false` to stop the scan.
///
/// # Panics
/// Panics when `tables.len() != sources.len() * expected.len()` or any
/// source/expected length differs from the first expected row's.
fn for_each_verify_window(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    expected: &[&[u8]],
    sched: FusedSched,
    mut visit: impl FnMut(usize, &[&mut [u8]]) -> bool,
) {
    let k = sources.len();
    let n_out = expected.len();
    assert_eq!(
        tables.len(),
        k * n_out,
        "dot_prod_verify table geometry mismatch"
    );
    if n_out == 0 {
        return;
    }
    let len = expected[0].len();
    for e in expected.iter() {
        assert_eq!(e.len(), len, "dot_prod_verify length mismatch");
    }
    for s in sources {
        assert_eq!(s.len(), len, "dot_prod_verify length mismatch");
    }

    let window = VERIFY_WINDOW.min(len).max(1);
    let mut scratch: Vec<Vec<u8>> = (0..n_out).map(|_| vec![0u8; window]).collect();
    let mut start = 0usize;
    while start < len {
        let end = (start + window).min(len);
        let srcs: Vec<&[u8]> = sources.iter().map(|s| &s[start..end]).collect();
        let mut outs: Vec<&mut [u8]> = scratch.iter_mut().map(|b| &mut b[..end - start]).collect();
        dot_prod_fused(tables, &srcs, &mut outs, sched);
        if !visit(start, &outs) {
            return;
        }
        start = end;
    }
}

/// Syndrome check on the fused path: recompute
/// `sum_j tables[i*k + j] · sources[j]` window-by-window through
/// [`dot_prod_fused`] and compare against `expected[i]`, returning the
/// indices of the rows that mismatch (sorted ascending; empty = clean).
///
/// This is the integrity primitive behind `Dialga::verify`/`scrub`:
/// `sources` are the data shards, `expected` the stored parity rows, and
/// a returned index is a *syndrome* — evidence that some shard feeding
/// that parity row (or the row itself) is corrupt. Scheduling never
/// changes the bytes produced, so any `sched` gives the same verdict.
///
/// A row already known corrupt is still recomputed (the window loop needs
/// its group pass anyway) but compared no further; once every row has
/// mismatched the scan stops early.
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
    let mut bad = vec![false; expected.len()];
    for_each_verify_window(tables, sources, expected, sched, |start, outs| {
        for (i, out) in outs.iter().enumerate() {
            if !bad[i] && out[..] != expected[i][start..start + out.len()] {
                bad[i] = true;
            }
        }
        !bad.iter().all(|&b| b)
    });
    bad.iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i))
        .collect()
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

/// The collecting form of [`dot_prod_verify`]: the same kernel over the
/// same windows with no early exit, returning the *support* of the
/// syndromes `S_i = expected[i] ^ sum_j tables[i*k + j] · sources[j]` —
/// every byte position where some `S_i` is non-zero — and all
/// `expected.len()` syndrome bytes at each. An empty support is a clean
/// stripe; a torn cacheline is at most 64 columns.
///
/// The support is all a locator needs: which shards are corrupt, and by
/// what, is decided on these small columns instead of on the payload.
///
/// # Panics
/// As [`dot_prod_verify`].
pub fn dot_prod_syndromes(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    expected: &[&[u8]],
    sched: FusedSched,
) -> Support {
    let mut support = Support::default();
    for_each_verify_window(tables, sources, expected, sched, |start, outs| {
        let end = start + outs[0].len();
        let differs = |from: usize, to: usize| {
            outs.iter()
                .zip(expected)
                .any(|(out, exp)| out[from - start..to - start] != exp[from..to])
        };
        if !differs(start, end) {
            return true;
        }
        // Narrow a dirty window to its dirty cachelines before going byte
        // by byte: a tear dirties one line of the 256.
        for line in (start..end).step_by(CACHELINE) {
            let line_end = (line + CACHELINE).min(end);
            if !differs(line, line_end) {
                continue;
            }
            for at in line..line_end {
                let column = outs
                    .iter()
                    .zip(expected)
                    .map(|(o, e)| o[at - start] ^ e[at]);
                if column.clone().any(|s| s != 0) {
                    support.positions.push(at);
                    support.syndromes.extend(column);
                }
            }
        }
        true
    });
    support
}

/// Monomorphize a group pass over the runtime group width (1..=6 by
/// construction of `chunks_mut(FUSED_GROUP)`).
#[cfg(target_arch = "x86_64")]
macro_rules! dispatch_group {
    ($pass:ident, $tabs:expr, $sources:expr, $outs:expr, $rows:expr, $sched:expr, $pf:expr) => {
        match $outs.len() {
            1 => $pass::<1>($tabs, $sources, $outs, $rows, $sched, $pf),
            2 => $pass::<2>($tabs, $sources, $outs, $rows, $sched, $pf),
            3 => $pass::<3>($tabs, $sources, $outs, $rows, $sched, $pf),
            4 => $pass::<4>($tabs, $sources, $outs, $rows, $sched, $pf),
            5 => $pass::<5>($tabs, $sources, $outs, $rows, $sched, $pf),
            _ => $pass::<6>($tabs, $sources, $outs, $rows, $sched, $pf),
        }
    };
}
#[cfg(target_arch = "x86_64")]
use dispatch_group;

/// Issue the §4.2/§4.3 prefetch pointers for visual row `vr` (safe: the
/// prefetch hint cannot fault and every target row is `< rows`).
#[inline(always)]
fn issue_row_prefetches(vr: u64, k: usize, rows: u64, sched: &FusedSched, sources: &[&[u8]]) {
    for_each_prefetch_target(vr, k, rows, sched, |block, prow| {
        prefetch_read(sources[block][prow as usize * CACHELINE..].as_ptr());
    });
}

/// Fused `N`-output pass over the whole 64 B rows of the buffers (AVX2,
/// 32-byte halves): each source line is loaded once per group and folded
/// into `N` register accumulators.
///
/// # Safety
/// The CPU must support AVX2; `outputs.len() == N`, `tables.len() ==
/// N * sources.len()`, and every source/output holds at least
/// `rows * CACHELINE` bytes (callers validate all of this).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn group_pass_avx2<const N: usize>(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [u8]],
    rows: u64,
    sched: FusedSched,
    prefetch: bool,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(outputs.len(), N);
    let k = sources.len();
    // SAFETY: nibble tables are 16-byte arrays, so table loads read exactly
    // 16 in-bounds bytes before broadcasting. Row offsets satisfy
    // `off + CACHELINE <= rows * CACHELINE <= len` for every source and
    // output (caller contract; `row < rows` because `shuffle_row` is a
    // bijection on `0..rows`), so each 32-byte load/store stays inside the
    // live slices; unaligned intrinsics impose no alignment requirement.
    unsafe {
        let mask = _mm256_set1_epi8(0x0F);
        for vr in 0..rows {
            let row = if sched.shuffle {
                shuffle_row(vr, rows)
            } else {
                vr
            } as usize;
            if prefetch {
                issue_row_prefetches(vr, k, rows, &sched, sources);
            }
            let off = row * CACHELINE;
            let mut half = 0;
            while half < CACHELINE {
                let at = off + half;
                let mut acc = [_mm256_setzero_si256(); N];
                for (j, src) in sources.iter().enumerate() {
                    let s = _mm256_loadu_si256(src.as_ptr().add(at) as *const __m256i);
                    let lo = _mm256_and_si256(s, mask);
                    let hi = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
                    for i in 0..N {
                        let t = &tables[i * k + j];
                        let lo_tab = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                            t.low.as_ptr() as *const __m128i
                        ));
                        let hi_tab = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                            t.high.as_ptr() as *const __m128i
                        ));
                        acc[i] = _mm256_xor_si256(
                            acc[i],
                            _mm256_xor_si256(
                                _mm256_shuffle_epi8(lo_tab, lo),
                                _mm256_shuffle_epi8(hi_tab, hi),
                            ),
                        );
                    }
                }
                for i in 0..N {
                    _mm256_storeu_si256(outputs[i].as_mut_ptr().add(at) as *mut __m256i, acc[i]);
                }
                half += 32;
            }
        }
    }
}

/// Fused `N`-output pass (SSSE3, 16-byte quarters). Same contract as
/// [`group_pass_avx2`].
///
/// # Safety
/// The CPU must support SSSE3; geometry/length contract as for
/// [`group_pass_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn group_pass_ssse3<const N: usize>(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [u8]],
    rows: u64,
    sched: FusedSched,
    prefetch: bool,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(outputs.len(), N);
    let k = sources.len();
    // SAFETY: same argument as `group_pass_avx2`, with 16-byte windows:
    // `at + 16 <= off + CACHELINE <= len` for every slice touched.
    unsafe {
        let mask = _mm_set1_epi8(0x0F);
        for vr in 0..rows {
            let row = if sched.shuffle {
                shuffle_row(vr, rows)
            } else {
                vr
            } as usize;
            if prefetch {
                issue_row_prefetches(vr, k, rows, &sched, sources);
            }
            let off = row * CACHELINE;
            let mut quarter = 0;
            while quarter < CACHELINE {
                let at = off + quarter;
                let mut acc = [_mm_setzero_si128(); N];
                for (j, src) in sources.iter().enumerate() {
                    let s = _mm_loadu_si128(src.as_ptr().add(at) as *const __m128i);
                    let lo = _mm_and_si128(s, mask);
                    let hi = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
                    for i in 0..N {
                        let t = &tables[i * k + j];
                        let lo_tab = _mm_loadu_si128(t.low.as_ptr() as *const __m128i);
                        let hi_tab = _mm_loadu_si128(t.high.as_ptr() as *const __m128i);
                        acc[i] = _mm_xor_si128(
                            acc[i],
                            _mm_xor_si128(
                                _mm_shuffle_epi8(lo_tab, lo),
                                _mm_shuffle_epi8(hi_tab, hi),
                            ),
                        );
                    }
                }
                for i in 0..N {
                    _mm_storeu_si128(outputs[i].as_mut_ptr().add(at) as *mut __m128i, acc[i]);
                }
                quarter += 16;
            }
        }
    }
}

/// Portable fused pass: same row walk, shuffle and prefetch schedule as the
/// vector passes (so scheduling is exercised on every tier), with the
/// per-line accumulation done by the table kernel. Sources stay L1-resident
/// across the group's outputs, preserving the single-streaming shape.
fn group_pass_portable(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [u8]],
    rows: u64,
    sched: FusedSched,
    prefetch: bool,
) {
    let k = sources.len();
    for vr in 0..rows {
        let row = if sched.shuffle {
            shuffle_row(vr, rows)
        } else {
            vr
        } as usize;
        if prefetch {
            issue_row_prefetches(vr, k, rows, &sched, sources);
        }
        let off = row * CACHELINE;
        for (i, out) in outputs.iter_mut().enumerate() {
            let dst = &mut out[off..off + CACHELINE];
            dst.fill(0);
            for (j, src) in sources.iter().enumerate() {
                crate::slice::mul_add_slice_tab(
                    &tables[i * k + j],
                    &src[off..off + CACHELINE],
                    dst,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::mul_add_slice_tab;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn simd_matches_portable_all_coefficients() {
        // Every coefficient, a length that exercises vector body + tail.
        let src = pattern(129, 5);
        for c in 0..=255u8 {
            let t = NibbleTables::new(c);
            let mut a = pattern(129, 9);
            let mut b = a.clone();
            mul_add_slice_tab(&t, &src, &mut a);
            mul_add_slice_simd(&t, &src, &mut b);
            assert_eq!(a, b, "c={c}");
        }
    }

    #[test]
    fn simd_handles_odd_lengths() {
        let t = NibbleTables::new(0x8E);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255] {
            let src = pattern(len, 3);
            let mut a = pattern(len, 7);
            let mut b = a.clone();
            mul_add_slice_tab(&t, &src, &mut a);
            mul_add_slice_simd(&t, &src, &mut b);
            assert_eq!(a, b, "len={len}");
        }
    }

    #[test]
    fn kernel_detection_is_stable() {
        assert_eq!(detected_kernel(), detected_kernel());
    }

    #[test]
    fn override_clamps_to_detected_tier() {
        // Requesting above the detected tier must not escalate; requesting
        // Portable always lands. Restore auto selection afterwards.
        set_kernel_override(Some(Kernel::Avx2));
        assert!(selected_kernel().tier() <= detected_kernel().tier());
        set_kernel_override(Some(Kernel::Portable));
        assert_eq!(selected_kernel(), Kernel::Portable);
        set_kernel_override(None);
        assert_eq!(selected_kernel(), detected_kernel());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let t = NibbleTables::new(3);
        let src = [0u8; 8];
        let mut dst = [0u8; 9];
        mul_add_slice_simd(&t, &src, &mut dst);
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
    fn verify_accepts_clean_rows_and_localizes_flipped_ones() {
        // Lengths straddle one window, several windows, and a ragged tail.
        let k = 4;
        let n_out = 3;
        for len in [96usize, VERIFY_WINDOW, 2 * VERIFY_WINDOW + 200] {
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
            // Flip one byte in row 1 — deep in the last window, so the
            // early-out must not skip it.
            let mut dirty = rows.clone();
            dirty[1][len - 1] ^= 0x40;
            let exp: Vec<&[u8]> = dirty.iter().map(|r| r.as_slice()).collect();
            assert_eq!(
                dot_prod_verify(&tables, &sources, &exp, sched),
                vec![1],
                "len={len}"
            );
            // Corrupt every row: all condemned, scan may stop early.
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
        // A ragged length spanning three windows; damage in the first and
        // the last window, in a row and in a source, plus one position hit
        // twice — and one source byte whose syndromes the row flips cancel
        // back to zero, which must not appear.
        let k = 4;
        let n_out = 3;
        let len = 2 * VERIFY_WINDOW + 200;
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
        let at = VERIFY_WINDOW + 9;
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
        // Same rows condemned as the early-exit form, on any schedule.
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
