//! SIMD GF(2^8) kernels: the `pshufb` split-nibble technique of
//! ISA-L/Plank [FAST'13] and ISA-L's `vgf2p8affineqb` form, runtime-
//! dispatched, plus the fused multi-output dot-product kernels the paper's
//! prefetch scheduling lives in.
//!
//! A GF multiply by a constant `c` is two 16-entry table lookups (low and
//! high nibble) and an XOR — `pshufb`/`vpshufb` perform 16/32 such lookups
//! per instruction — or one 8x8 bit-matrix product per byte, which
//! `vgf2p8affineqb` does for a whole 64 B cacheline at once. Every tier is
//! one impl of the private `Lanes` trait; the multiply-accumulate and the
//! fused group pass are each written once over it.
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
//! tier so every lower path stays coverable on the widest host.
//!
//! The portable kernels in [`crate::slice`] remain the reference; these
//! accelerated paths are verified byte-for-byte against them.

use crate::sched::{FusedSched, PassSched};
use crate::slice::prefetch_read;
use crate::tables::NibbleTables;
use crate::CACHELINE;
use std::mem::MaybeUninit;
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

/// `dst[i] ^= c_table(src[i])` with the fastest available kernel.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn mul_add_slice_simd(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_add_slice_simd length mismatch");
    match selected_kernel() {
        // SAFETY: `selected_kernel` returns a tier only when
        // `is_x86_feature_detected!` confirmed every feature its entry point
        // enables (overrides only lower it); lengths were asserted equal.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512Gfni => unsafe { x86::mul_add_gfni(t, src, dst) },
        // SAFETY: as for the GFNI arm.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { x86::mul_add_avx2(t, src, dst) },
        // SAFETY: as for the GFNI arm.
        #[cfg(target_arch = "x86_64")]
        Kernel::Ssse3 => unsafe { x86::mul_add_ssse3(t, src, dst) },
        _ => crate::slice::mul_add_slice_tab(t, src, dst),
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
        // output: the vector tiers and the portable pass each store whole
        // rows `pass.row(0..rows)`, a bijection on `0..rows`; the tail
        // writes `[rows * CACHELINE, len)` (zeros, then accumulates); `k ==
        // 0` writes zeros. The gf proptest
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

/// The one fused pass every entry runs: writes each output byte once,
/// never reading it.
fn fused_on<S: AccessSink>(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [MaybeUninit<u8>]],
    sched: FusedSched,
    sink: &mut S,
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
            zeroed(o);
        }
        return;
    }
    for s in sources {
        assert_eq!(s.len(), len, "dot_prod_fused length mismatch");
    }

    let rows = len / CACHELINE;
    let kern = S::TIER.unwrap_or_else(selected_kernel);
    let pass = PassSched::new(k, rows as u64, &sched);
    for (g, outs) in outputs.chunks_mut(FUSED_GROUP).enumerate() {
        let base = g * FUSED_GROUP * k;
        let tabs = &tables[base..base + outs.len() * k];
        // Prefetches ride the first group's pass only: later groups re-walk
        // lines the first pass already pulled in.
        let prefetch = g == 0 && sched.d.is_some();
        match kern {
            // SAFETY: `selected_kernel` returns a tier only when runtime
            // detection confirmed every feature its entry point enables
            // (overrides only lower it); `tabs` holds `outs.len() * k`
            // tables, `outs.len() <= FUSED_GROUP`, and every source/output
            // was asserted to hold the pass's `rows * CACHELINE` bytes above.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Gfni => unsafe { x86::fused_gfni(tabs, sources, outs, &pass, prefetch) },
            // SAFETY: as for the GFNI arm.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { x86::fused_avx2(tabs, sources, outs, &pass, prefetch) },
            // SAFETY: as for the GFNI arm.
            #[cfg(target_arch = "x86_64")]
            Kernel::Ssse3 => unsafe { x86::fused_ssse3(tabs, sources, outs, &pass, prefetch) },
            _ => group_pass_portable(tabs, sources, outs, g * FUSED_GROUP, &pass, prefetch, sink),
        }
    }

    // Tail: the partial final cacheline reverts to the standard kernel.
    let tail = rows * CACHELINE;
    if tail < len {
        for (i, out) in outputs.iter_mut().enumerate() {
            let dst = zeroed(&mut out[tail..]);
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
    let mut scratch: Vec<Vec<u8>> = Vec::new();
    let mut start = 0usize;
    while start < len {
        let end = (start + window).min(len);
        let srcs: Vec<&[u8]> = sources.iter().map(|s| &s[start..end]).collect();
        // The first window is the widest: it fills fresh scratch, and every
        // later one overwrites a prefix of it.
        let first = scratch.is_empty();
        if first {
            scratch = dot_prod_fused_vec(tables, &srcs, n_out, end - start, sched);
        }
        let mut outs: Vec<&mut [u8]> = scratch.iter_mut().map(|b| &mut b[..end - start]).collect();
        if !first {
            dot_prod_fused(tables, &srcs, &mut outs, sched);
        }
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

/// The vector tiers: one [`Lanes`] impl each, the two loop bodies written
/// over the trait, and the `#[target_feature]` frames they inline into.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{prefetch_read, NibbleTables, PassSched, CACHELINE, FUSED_GROUP};
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// One register width of the constant-coefficient GF(2^8) multiply; the
    /// implementing type is the register, and all-zero bytes are a valid one.
    ///
    /// # Safety
    /// Every method compiles to its tier's instructions: call them only
    /// from (code inlined into) that tier's `#[target_feature]` entry point.
    trait Lanes: Copy {
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
    }

    /// `dst[i] ^= c · src[i]`: whole vectors through `L`, the rest through
    /// the table kernel.
    ///
    /// # Safety
    /// [`Lanes`] contract for `L`, and `src.len() == dst.len()`.
    #[inline(always)]
    unsafe fn mul_add<L: Lanes>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
        let n = src.len() / L::WIDTH * L::WIDTH;
        for i in (0..n).step_by(L::WIDTH) {
            // SAFETY: `i + WIDTH <= n <= len` of both slices (equal per the
            // caller contract), so every vector access is in bounds; the CPU
            // features are the caller's contract.
            unsafe {
                let s = L::load(src.as_ptr().add(i)).split();
                let d = L::load(dst.as_ptr().add(i));
                d.mul_acc(t, s).store(dst.as_mut_ptr().add(i));
            }
        }
        crate::slice::mul_add_slice_tab(t, &src[n..], &mut dst[n..]);
    }

    /// Fused `N`-output pass over the whole 64 B rows of the buffers: each
    /// source line is loaded (and split) once per group and folded into `N`
    /// register accumulators, and each output vector is stored once, never
    /// loaded.
    ///
    /// # Safety
    /// [`Lanes`] contract for `L`; `outputs.len() == N`, `tables.len() ==
    /// N * sources.len()`, and every source/output holds at least
    /// `pass.rows() * CACHELINE` bytes.
    #[inline(always)]
    unsafe fn group_pass<L: Lanes, const N: usize>(
        tables: &[NibbleTables],
        sources: &[&[u8]],
        outputs: &mut [&mut [MaybeUninit<u8>]],
        pass: &PassSched,
        prefetch: bool,
    ) {
        debug_assert_eq!(outputs.len(), N);
        let (k, rows) = (sources.len(), pass.rows());
        for vr in 0..rows {
            let off = pass.row(vr) as usize * CACHELINE;
            if prefetch {
                // §4.2/§4.3 pointers: a hint cannot fault, the slicing checks.
                pass.for_each_target(vr, |b, r| {
                    prefetch_read(sources[b][r as usize * CACHELINE..].as_ptr())
                });
            }
            for lane in 0..CACHELINE / L::WIDTH {
                let at = off + lane * L::WIDTH;
                // SAFETY: `pass.row` is a bijection on `0..rows`, so `at +
                // WIDTH <= off + CACHELINE <= rows * CACHELINE <= len` of
                // every source and output (caller contract): each vector
                // access stays inside its slice. CPU features: the caller's.
                // All-zero is a valid `L` (trait contract).
                unsafe {
                    let mut acc = [std::mem::zeroed::<L>(); N];
                    for (j, src) in sources.iter().enumerate() {
                        let s = L::load(src.as_ptr().add(at)).split();
                        for i in 0..N {
                            acc[i] = acc[i].mul_acc(&tables[i * k + j], s);
                        }
                    }
                    for i in 0..N {
                        acc[i].store(outputs[i].as_mut_ptr().cast::<u8>().add(at));
                    }
                }
            }
        }
    }

    /// The two `#[target_feature]` frames of one tier — the only place its
    /// instructions are enabled, and what the generic bodies inline into.
    /// `$fused` monomorphizes [`group_pass`] over the runtime group width.
    macro_rules! tier_entries {
        ($lanes:ty, $features:literal, $mul_add:ident, $fused:ident) => {
            /// # Safety
            /// This tier's CPU features (callers establish them via
            /// `detected_kernel`), and `src.len() == dst.len()`.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $mul_add(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
                // SAFETY: this function's contract is the callee's.
                unsafe { mul_add::<$lanes>(t, src, dst) }
            }

            /// # Safety
            /// This tier's CPU features; `outs.len() <= FUSED_GROUP`, and
            /// the rest of [`group_pass`]'s contract for `N = outs.len()`.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $fused(
                tabs: &[NibbleTables],
                srcs: &[&[u8]],
                outs: &mut [&mut [MaybeUninit<u8>]],
                pass: &PassSched,
                pf: bool,
            ) {
                debug_assert!(outs.len() <= FUSED_GROUP);
                // SAFETY: this function's contract, `N` the matched length.
                unsafe {
                    match outs.len() {
                        1 => group_pass::<$lanes, 1>(tabs, srcs, outs, pass, pf),
                        2 => group_pass::<$lanes, 2>(tabs, srcs, outs, pass, pf),
                        3 => group_pass::<$lanes, 3>(tabs, srcs, outs, pass, pf),
                        4 => group_pass::<$lanes, 4>(tabs, srcs, outs, pass, pf),
                        5 => group_pass::<$lanes, 5>(tabs, srcs, outs, pass, pf),
                        _ => group_pass::<$lanes, 6>(tabs, srcs, outs, pass, pf),
                    }
                }
            }
        };
    }
    tier_entries!(__m128i, "ssse3", mul_add_ssse3, fused_ssse3);
    tier_entries!(__m256i, "avx2", mul_add_avx2, fused_avx2);
    tier_entries!(__m512i, "avx512f,gfni", mul_add_gfni, fused_gfni);
}

/// Portable fused pass: same row walk, shuffle and prefetch schedule as the
/// vector passes (so scheduling is exercised on every tier) and the same
/// shape — each source line folded once into the group's accumulators, each
/// output line stored once — the per-line multiply done by the table
/// kernel. `out0` is the group's first output, for the sink.
fn group_pass_portable(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [MaybeUninit<u8>]],
    out0: usize,
    pass: &PassSched,
    prefetch: bool,
    sink: &mut impl AccessSink,
) {
    let (k, rows) = (sources.len(), pass.rows());
    for vr in 0..rows {
        let row = pass.row(vr);
        let line = row as usize * CACHELINE..(row as usize + 1) * CACHELINE;
        if prefetch {
            pass.for_each_target(vr, |b, r| {
                sink.on(Access::Prefetch(b, r));
                prefetch_read(sources[b][r as usize * CACHELINE..].as_ptr())
            });
        }
        let mut acc = [[0u8; CACHELINE]; FUSED_GROUP];
        for (j, src) in sources.iter().enumerate() {
            sink.on(Access::Load(j, row));
            for (i, acc) in acc[..outputs.len()].iter_mut().enumerate() {
                crate::slice::mul_add_slice_tab(&tables[i * k + j], &src[line.clone()], acc);
            }
        }
        for (i, out) in outputs.iter_mut().enumerate() {
            sink.on(Access::Store(out0 + i, row));
            out[line.clone()].write_copy_of_slice(&acc[i]);
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
