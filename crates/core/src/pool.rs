//! Persistent worker-pool encoding engine: one `Plan → run_jobs` pipeline
//! whose first executor is the calling thread.
//!
//! The paper encodes with up to 18 threads (§5) and runs its "lightweight
//! operator" (§4.2) on the calling thread at no per-call cost. Both need
//! long-lived executors: at the paper's 4 KiB blocks a thread spawn — or
//! even a queue hand-off — costs as much as the encode itself.
//!
//! * **Plans.** Every public operation (encode, decode, repair, LRC local
//!   repair, verify; `_vec` / `_batch` are thin adapters) validates its
//!   input and reduces to `RawJob`s: apply these nibble tables to these
//!   sources, into these outputs. Nothing else differs between them.
//! * **One submit path.** `EncodePool::run_jobs` owns everything after
//!   that: [`split_ranges`] chunking, the detached spans, dealing, the
//!   completion latch, the watchdog, healing and bounded retry.
//! * **Executor 0 is the caller.** A pool of `n` executors owns `n − 1`
//!   worker threads. Chunks are dealt round-robin over the `n` executors;
//!   the submitting thread sends the workers their shares, runs its own
//!   through the same `run_chunk` body, and only then waits. A batch of
//!   one chunk — and every batch on a pool of 1 — is a direct kernel
//!   call: nothing queued, no latch allocated, no thread woken.
//! * **The coder's schedule.** Every chunk runs the [`FusedSched`] its
//!   job's coder carries (`Dialga::sched()`); the pool has no schedule of
//!   its own. The paper's coordinator (§4.1) retunes that schedule from PMU
//!   counters on PM; the host has neither, so the coordinator
//!   ([`dialga_pipeline::coordinator`]) runs on the simulator
//!   ([`dialga_pipeline::source::DialgaSource`]).
//!
//! Results are bit-exact with serial encoding/decoding for every executor
//! count: Reed–Solomon is independent per row, so any horizontal split is
//! exact, and scheduling knobs never change the bytes produced.

use crate::encoder::{DecodePlan, Dialga, DEFAULT_BATCH_RETRIES};
use dialga_ec::{EcError, Lrc};
#[cfg(feature = "fault-injection")]
use dialga_faultkit::{ChunkFault, FaultCell, FaultPlan};
use dialga_gf::sched::FusedSched;
use dialga_gf::simd::{dot_prod_fused_into, FreshBlock};
use dialga_gf::tables::NibbleTables;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Chunk boundaries are multiples of this (keeps rows and XPLines intact).
pub const CHUNK_ALIGN: usize = 256;

/// Split `[0, len)` into at most `parts` ranges whose boundaries are
/// multiples of [`CHUNK_ALIGN`], sized as evenly as the alignment allows:
/// every range length differs from every other by at most `CHUNK_ALIGN`
/// bytes. The surplus alignment units go to the *last* ranges, so the
/// sub-unit tail shortfall offsets one of them instead of compounding the
/// imbalance (rounding `len / parts` up instead leaves executors idle).
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let units = len.div_ceil(CHUNK_ALIGN);
    let n = parts.min(units);
    let base = units / n;
    let extra = units % n;
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0usize;
    for i in 0..n {
        // The last `extra` ranges carry one surplus unit each.
        let units_here = base + usize::from(i >= n - extra);
        let end = (start + units_here * CHUNK_ALIGN).min(len);
        ranges.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// One stripe of a batch submission: `k` data blocks in, `m` parity blocks
/// out. Lengths are validated against the coder on submission.
pub struct StripeJob<'d, 'p> {
    /// The k data blocks (equal lengths).
    pub data: &'d [&'d [u8]],
    /// The m parity blocks (overwritten; same length as the data blocks).
    pub parity: &'d mut [&'p mut [u8]],
}

/// One stripe of a decode batch: `k + m` shards with `None` marking
/// erasures, repaired in place (the [`Dialga::decode`] contract).
pub struct DecodeJob<'a> {
    /// The stripe's shards; every entry is `Some` on success.
    pub shards: &'a mut [Option<Vec<u8>>],
}

/// Live counters the pool accumulates (what [`PoolStats`] snapshots).
/// Pure monotonic tallies — no reader derives control flow from their
/// relative order — so all `Relaxed`.
#[derive(Default)]
struct PoolCounters {
    loads: AtomicU64,
    busy_ns: AtomicU64,
    chunks: AtomicU64,
    stripes: AtomicU64,
    dispatches: AtomicU64,
    worker_deaths: AtomicU64,
    worker_respawns: AtomicU64,
    batch_retries: AtomicU64,
}

/// Read-only snapshot of pool activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Row-major 64 B steps encoded (one "load" per source row read).
    pub loads: u64,
    /// Nanoseconds executors spent inside encode kernels.
    pub busy_ns: u64,
    /// Always 0: the pool measures no memory stall (it has no PMU). The
    /// field stays only because the benchmark still reads it; ROADMAP.md
    /// item 1e deletes that read, and then this field.
    pub stall_ns: u64,
    /// Chunks executed (by workers and by submitting threads alike).
    pub chunks: u64,
    /// Stripes submitted.
    pub stripes: u64,
    /// Batch submissions.
    pub dispatches: u64,
    /// Always 0: every chunk runs its coder's schedule, so no executor
    /// ever switches knobs mid-run. The field stays only because the
    /// benchmark still reads it; ROADMAP.md item 1e deletes that read, and
    /// then this field.
    pub knob_switches: u64,
    /// Workers observed dead during healing (a worker that dies and is
    /// respawned counts once here and once in `worker_respawns`).
    pub worker_deaths: u64,
    /// Workers respawned after a death.
    pub worker_respawns: u64,
    /// Batches re-submitted after a worker death/panic (bounded by
    /// [`crate::encoder::DialgaOptions::max_batch_retries`]).
    pub batch_retries: u64,
    /// Executors alive: the submitting thread plus every live worker
    /// (== [`EncodePool::threads`] unless a dead worker awaits its respawn).
    pub workers_alive: usize,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    stats: PoolCounters,
    /// Deterministic fault-injection cell, disarmed unless a test arms it
    /// ([`EncodePool::arm_faults`]); a disarmed hook is one `Acquire` load.
    #[cfg(feature = "fault-injection")]
    fault: Arc<FaultCell>,
}

/// `Send`-able read-only view of a borrowed `&[T]`: one source block (or a
/// chunk of it), or the nibble tables every chunk of a job shares.
///
/// The submission protocol is what makes the detached lifetime sound:
/// [`EncodePool::run_jobs_once`] neither returns nor unwinds between
/// handing a chunk to a worker and the latch reporting every such chunk
/// accounted for, so the slice a span was built from (borrowed by, or owned
/// by a frame of, the public operation) outlives every worker dereference;
/// the submitting thread's own chunks are dereferenced inside that frame.
#[derive(Clone, Copy)]
struct ReadSpan<T> {
    ptr: NonNull<T>,
    len: usize,
}

type SrcSpan = ReadSpan<u8>;
type TabSpan = ReadSpan<NibbleTables>;

// SAFETY: a read-only view (workers only ever build `&[T]` from it, hence
// `T: Sync`); the referent outlives all dereferences per the submission
// protocol documented on the type.
unsafe impl<T: Sync> Send for ReadSpan<T> {}

impl<T> ReadSpan<T> {
    fn new(slice: &[T]) -> Self {
        // SAFETY: slice pointers are never null (empty slices use a
        // dangling, still non-null pointer).
        let ptr = unsafe { NonNull::new_unchecked(slice.as_ptr().cast_mut()) };
        let len = slice.len();
        ReadSpan { ptr, len }
    }

    /// The part of this span at `r`.
    ///
    /// # Safety
    /// `r.start <= r.end <= self.len` (the chunker passes a
    /// [`split_ranges`] range over the job's common block length).
    unsafe fn sub(self, r: &Range<usize>) -> Self {
        debug_assert!(r.start <= r.end && r.end <= self.len);
        // SAFETY: in-bounds offset within the span's allocation per the
        // caller contract.
        let ptr = unsafe { NonNull::new_unchecked(self.ptr.as_ptr().add(r.start)) };
        ReadSpan { ptr, len: r.len() }
    }

    /// Rebuild the slice on the executor.
    ///
    /// # Safety
    /// The slice passed to [`ReadSpan::new`] must still be live, i.e. the
    /// submitting thread still inside [`EncodePool::run_jobs_once`].
    unsafe fn as_slice<'a>(&self) -> &'a [T] {
        // SAFETY: caller upholds liveness; `ptr`/`len` came from a real
        // slice (or an in-bounds part of one), and executors only read.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

/// `Send`-able write-only view of one output block (or a chunk of it):
/// the caller's bytes, or a [`FreshBlock`] nothing has written yet. The
/// kernel only stores through it, so either kind is sound to hand out.
/// Exclusivity is structural: [`split_ranges`] yields non-overlapping
/// ranges, and the chunker hands each range, as is, to exactly one chunk's
/// `sub` calls — so no two chunks (hence no two executors) ever hold spans
/// over the same bytes, and the submitting thread touches the output
/// borrows only through the chunks it runs itself.
#[derive(Clone, Copy)]
struct OutSpan {
    ptr: NonNull<MaybeUninit<u8>>,
    len: usize,
}

// SAFETY: liveness per the submission protocol (see [`ReadSpan`]) and
// write-exclusivity per the disjoint-range construction documented on the
// type: each span's byte range is owned by exactly one chunk.
unsafe impl Send for OutSpan {}

impl OutSpan {
    /// Over the caller's bytes, which the kernel overwrites.
    fn new(block: &mut [u8]) -> Self {
        let len = block.len();
        OutSpan {
            ptr: NonNull::from(block).cast(),
            len,
        }
    }

    /// Over a fresh block's unwritten bytes.
    fn fresh(block: &mut FreshBlock) -> Self {
        let block = block.as_uninit();
        let len = block.len();
        OutSpan {
            ptr: NonNull::from(block).cast(),
            len,
        }
    }

    /// The part of this span at `r`.
    ///
    /// # Safety
    /// `r.start <= r.end <= self.len`, and the caller must hand each
    /// resulting sub-span to at most one chunk (disjointness comes from
    /// passing [`split_ranges`] output, one range per chunk, as the only
    /// ranges).
    unsafe fn sub(self, r: &Range<usize>) -> Self {
        debug_assert!(r.start <= r.end && r.end <= self.len);
        // SAFETY: in-bounds offset within the span's allocation per the
        // caller contract.
        let ptr = unsafe { NonNull::new_unchecked(self.ptr.as_ptr().add(r.start)) };
        OutSpan { ptr, len: r.len() }
    }

    /// Rebuild the write-only output slice on the executor (never a
    /// `&mut [u8]`: a fresh block's bytes are unwritten until the kernel
    /// stores them).
    ///
    /// # Safety
    /// The block must still be live (submitting thread inside
    /// [`EncodePool::run_jobs_once`]) and this span's range disjoint from
    /// every other chunk's, per the construction contract above.
    unsafe fn as_uninit<'a>(self) -> &'a mut [MaybeUninit<u8>] {
        // SAFETY: caller upholds liveness and exclusive ownership of the
        // range; bounds per construction; `MaybeUninit<u8>` views any bytes,
        // written or not, and the kernel stores only initialized ones.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// The work of one job, or of one chunk of it:
/// `outputs[i] = sum_j tables[i * sources.len() + j] * sources[j]`.
/// `Send` because the spans are (they carry the safety argument).
struct Work {
    tables: TabSpan,
    sources: Vec<SrcSpan>,
    outputs: Vec<OutSpan>,
    /// The coder's schedule, which every chunk of the job runs.
    sched: FusedSched,
}

/// One job over full-length blocks, before chunking. Encode, both decode
/// stages, single-block repair, LRC local repair and verify all reduce to
/// this shape, which is why the pool has exactly one submission path.
struct RawJob {
    work: Work,
    /// Common length of every source and output (checked by [`RawJob::new`]).
    len: usize,
}

impl RawJob {
    /// The one constructor the plan builders use. Checks the fact every
    /// `.sub` in [`EncodePool::run_jobs_once`] relies on — all sources and
    /// outputs span exactly `len` bytes — so no entry point can forget it.
    fn new(
        tables: &[NibbleTables],
        sources: Vec<SrcSpan>,
        outputs: Vec<OutSpan>,
        sched: FusedSched,
    ) -> Result<Self, EcError> {
        let len = sources.first().map_or(0, |s| s.len);
        let lens = sources.iter().map(|s| s.len);
        if let Some(got) = lens
            .chain(outputs.iter().map(|o| o.len))
            .find(|&l| l != len)
        {
            return Err(EcError::BlockLength { expected: len, got });
        }
        let work = Work {
            tables: TabSpan::new(tables),
            sources,
            outputs,
            sched,
        };
        Ok(RawJob { work, len })
    }

    /// Plan: parity of one stripe from its data, into the caller's
    /// blocks or fresh ones.
    fn encode(coder: &Dialga, data: &[&[u8]], parity: Vec<OutSpan>) -> Result<Self, EcError> {
        let params = coder.params();
        check_count(params.k, data.len())?;
        check_count(params.m, parity.len())?;
        RawJob::new(
            coder.tables(),
            data.iter().map(|d| SrcSpan::new(d)).collect(),
            parity,
            coder.sched(),
        )
    }

    /// Plan: the shards at `outputs` from the shards at `sources` (one
    /// decode stage, or a single-block repair into `spare`).
    fn from_shards(
        coder: &Dialga,
        tables: &[NibbleTables],
        shards: &[Option<Vec<u8>>],
        sources: &[usize],
        outputs: Vec<OutSpan>,
    ) -> Result<Self, EcError> {
        let sources = sources
            .iter()
            .map(|&i| dialga_ec::present_shard(shards, i, "plan source shard absent"))
            .map(|v| v.map(|v| SrcSpan::new(v)))
            .collect::<Result<_, _>>()?;
        RawJob::new(tables, sources, outputs, coder.sched())
    }
}

fn check_count(expected: usize, got: usize) -> Result<(), EcError> {
    let counts = EcError::BlockCount { expected, got };
    (expected == got).then_some(()).ok_or(counts)
}

/// `shards` must be a full stripe and `target` one of its indices.
fn check_target(coder: &Dialga, shards: usize, target: usize) -> Result<(), EcError> {
    let expected = coder.params().k + coder.params().m;
    check_count(expected, shards)?;
    let out_of_stripe = EcError::BlockCount {
        expected,
        got: target,
    };
    (target < expected).then_some(()).ok_or(out_of_stripe)
}

/// The one block of a single-output operation.
fn one_block(mut blocks: Vec<Vec<u8>>) -> Result<Vec<u8>, EcError> {
    blocks.pop().ok_or(EcError::Internal {
        what: "single-output pool operation returned no block",
    })
}

/// The holes decode stage `stage` fills: lost data, then lost parity.
fn stage_holes(plan: &DecodePlan, stage: usize) -> &[usize] {
    match stage {
        0 => plan.lost_data(),
        _ => plan.lost_parity(),
    }
}

/// `n` fresh blocks of `len` bytes.
fn fresh_blocks(n: usize, len: usize) -> Vec<FreshBlock> {
    (0..n).map(|_| FreshBlock::new(len)).collect()
}

/// A batch's fresh outputs, once it ended `wait`: written and given their
/// lengths when it ran clean, dropped at length 0 when it failed, and
/// leaked when it timed out ([`BatchWait::TimedOut`]: a lost chunk may
/// still hold a span into them, so they are never freed).
fn written(wait: BatchWait, fresh: Vec<FreshBlock>) -> Result<Vec<Vec<u8>>, EcError> {
    if let Err(e) = wait.check() {
        if let BatchWait::TimedOut = wait {
            std::mem::forget(fresh);
        }
        return Err(e);
    }
    let written = fresh.into_iter().map(|block| {
        // SAFETY: `Clean` (what `check` passed) means every chunk of the
        // batch, on its last attempt, ran its kernel call to the end. The
        // chunks of a job cover `[0, len)` of each of its outputs exactly
        // (`split_ranges` ranges are disjoint and tile `[0, len)`), and each
        // call stores its whole sub-span on every tier
        // (`fused_matches_reference_for_all_tiers_and_tail_shapes`;
        // `every_pool_operation_is_bit_exact_on_every_executor_count` runs
        // it through the pool on ragged chunks). So every byte of every
        // fresh block was written.
        unsafe { block.assume_written() }
    });
    Ok(written.collect())
}

/// One unit of *worker* work: a [`Work`] plus its seat on the batch latch
/// (the submitting thread's own chunks stay plain [`Work`]s; their result
/// is a local of [`EncodePool::run_jobs_once`]).
///
/// A chunk reports to its latch in one place, its `Drop`, and a value is
/// dropped exactly once — so every chunk completes its seat exactly once,
/// on every path: a clean run, a kernel panic (caught in [`run_chunk`]), a
/// scripted exit, a failed send, a queue torn down by an exiting worker.
/// Only a clean run on a worker sets `ok`.
struct Chunk {
    work: Work,
    batch: Arc<BatchState>,
    ok: bool,
}

impl Drop for Chunk {
    fn drop(&mut self) {
        self.batch.complete(self.ok);
    }
}

/// Completion latch for the worker-run chunks of one submitted batch.
struct BatchState {
    inner: Mutex<BatchInner>,
    done: Condvar,
}

struct BatchInner {
    remaining: usize,
    failed: bool,
}

impl BatchState {
    fn new(chunks: usize) -> Arc<Self> {
        Arc::new(BatchState {
            inner: Mutex::new(BatchInner {
                remaining: chunks,
                failed: false,
            }),
            done: Condvar::new(),
        })
    }

    fn complete(&self, ok: bool) {
        // Poisoning carries no information here: the latch state is a
        // counter plus a flag, both updated atomically under the lock, so
        // recover the guard — a stuck latch would deadlock the submitter.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.failed |= !ok;
        inner.remaining -= 1;
        if inner.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every chunk has reported in, or until `watchdog`
    /// elapses ([`BatchWait::TimedOut`]).
    ///
    /// On `Clean`/`Failed` the batch is fully quiesced: every chunk
    /// reported through its `Drop`, so the caller's borrows are safe to
    /// release (and `Failed` batches safe to retry — the kernel overwrites
    /// outputs). `TimedOut` means a chunk was *lost* — never dropped —
    /// which the Drop-only completion rules out on every known path; the
    /// watchdog turns a regression there into an error
    /// instead of a hang. A stuck worker could then still hold spans, so
    /// the caller must surface the error and must NOT retry.
    fn wait_with_deadline(&self, watchdog: Option<Duration>) -> BatchWait {
        let start = Instant::now();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while inner.remaining > 0 {
            // Without a watchdog: wake hourly, find work outstanding, wait on.
            let left = watchdog.map_or(Duration::from_secs(3600), |limit| {
                limit.saturating_sub(start.elapsed())
            });
            if left.is_zero() {
                return BatchWait::TimedOut;
            }
            let woken = self.done.wait_timeout(inner, left);
            inner = woken.unwrap_or_else(PoisonError::into_inner).0;
        }
        if inner.failed {
            BatchWait::Failed
        } else {
            BatchWait::Clean
        }
    }
}

/// How a batch ended (see [`BatchState::wait_with_deadline`]).
#[derive(Clone, Copy)]
enum BatchWait {
    /// Every chunk completed cleanly.
    Clean,
    /// Every chunk is accounted for, but at least one failed (kernel
    /// panic, dead worker, dropped send). Safe to retry.
    Failed,
    /// The watchdog expired with chunks unaccounted for — a lost-completion
    /// bug. NOT safe to retry (spans may still be referenced).
    TimedOut,
}

impl BatchWait {
    /// `Ok` for a clean batch, else its typed error.
    fn check(self) -> Result<(), EcError> {
        let what = match self {
            BatchWait::Clean => return Ok(()),
            BatchWait::Failed => "encode pool worker panicked or exited mid-batch",
            BatchWait::TimedOut => "encode pool batch watchdog expired (lost chunk completion)",
        };
        Err(EcError::Internal { what })
    }
}

enum Msg {
    Run(Chunk),
    /// Liveness probe from healing: a send to a worker that dropped its
    /// receiver but is still winding down fails at once. Workers ignore it.
    Ping,
}

/// One worker: its queue's send half plus the thread handle, kept
/// together so healing can replace both atomically under the slot lock.
struct WorkerSlot {
    sender: Sender<Msg>,
    handle: JoinHandle<()>,
}

/// A persistent pool of `n` encoding executors — the submitting thread
/// plus `n − 1` workers with per-worker task queues.
///
/// # Examples
///
/// ```
/// use dialga::encoder::Dialga;
/// use dialga::pool::EncodePool;
///
/// let coder = Dialga::new(6, 2).unwrap();
/// let pool = EncodePool::new(4);
/// let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 8192]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
/// let parity = pool.encode_vec(&coder, &refs).unwrap();
/// assert_eq!(parity, coder.encode_vec(&refs).unwrap());
/// ```
pub struct EncodePool {
    shared: Arc<PoolShared>,
    /// The `threads − 1` worker slots; slot `i` is executor `i + 1`.
    /// Submission clones the senders out under this lock; healing replaces
    /// dead slots in place under it (executor indices survive respawns).
    slots: Mutex<Vec<WorkerSlot>>,
    /// Executor count: the submitting thread plus the worker slots.
    threads: usize,
    /// Round-robin cursor so consecutive multi-chunk submissions start on
    /// different workers.
    next_worker: AtomicU64,
    /// Watchdog deadline for one batch wait, in nanoseconds (so that
    /// sub-millisecond deadlines stay exact); 0 disables the watchdog.
    /// Not a counter: read/written with Acquire/Release.
    watchdog_ns: AtomicU64,
}

/// Default batch watchdog: a batch is chunks of at most a few MiB each, so
/// half a minute only elapses if completions were *lost*, not merely slow.
const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// Spawn the worker thread for `executor` (≥ 1). A respawned worker reuses
/// the index (stable identity for fault plans).
fn spawn_worker(executor: usize, shared: Arc<PoolShared>) -> std::io::Result<WorkerSlot> {
    let (tx, rx) = channel::<Msg>();
    let handle = std::thread::Builder::new()
        .name(format!("dialga-enc-{executor}"))
        .spawn(move || worker_loop(executor, rx, shared))?;
    Ok(WorkerSlot { sender: tx, handle })
}

impl EncodePool {
    /// A pool of `threads` executors (at least one): the submitting thread
    /// plus `threads − 1` persistent workers. `new(1)` spawns nothing and
    /// every operation on it is a direct kernel call.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            stats: PoolCounters::default(),
            #[cfg(feature = "fault-injection")]
            fault: Arc::new(FaultCell::new()),
        });
        let slots = (1..threads)
            .map(|executor| {
                spawn_worker(executor, Arc::clone(&shared))
                    // A host that cannot spawn threads cannot make progress
                    // anyway; submission tolerates dead workers (`run_jobs`).
                    // lint:allow(panic-path): no Result channel at construction
                    .expect("spawn encode worker")
            })
            .collect();
        EncodePool {
            shared,
            slots: Mutex::new(slots),
            threads,
            next_worker: AtomicU64::new(0),
            watchdog_ns: AtomicU64::new(DEFAULT_WATCHDOG.as_nanos() as u64),
        }
    }

    /// Number of executors a batch is split over: the submitting thread
    /// plus the worker slots (for liveness see [`PoolStats::workers_alive`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn lock_slots(&self) -> std::sync::MutexGuard<'_, Vec<WorkerSlot>> {
        // Slot state stays consistent under panic (plain Vec of handles),
        // so recover a poisoned guard rather than propagate.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Set the per-batch watchdog deadline (`None` disables it; a zero
    /// deadline clamps to 1 ns rather than reading as "disabled"). The
    /// default, `DEFAULT_WATCHDOG`, is far above any real batch, so it
    /// only ever fires on a lost-completion bug.
    pub fn set_watchdog(&self, deadline: Option<Duration>) {
        let ns = deadline.map_or(0, |d| {
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1)
        });
        self.watchdog_ns.store(ns, Ordering::Release);
    }

    fn watchdog(&self) -> Option<Duration> {
        let ns = self.watchdog_ns.load(Ordering::Acquire);
        (ns != 0).then(|| Duration::from_nanos(ns))
    }

    /// Arm a deterministic fault plan against this pool, replacing any
    /// armed plan; scripted faults fire on the matching hook crossings
    /// until [`Self::disarm_faults`]. Worker indices in the plan are executor
    /// indices, stable across respawns. Index 0 is the submitting thread:
    /// a scripted panic there is caught like a worker's, a scripted exit
    /// skips the chunk (failing the batch) without killing anything.
    #[cfg(feature = "fault-injection")]
    pub fn arm_faults(&self, plan: &FaultPlan) {
        self.shared.fault.arm(plan, self.threads);
    }

    /// Disarm any armed fault plan; hooks revert to a single relaxed
    /// load of a zero word.
    #[cfg(feature = "fault-injection")]
    pub fn disarm_faults(&self) {
        self.shared.fault.disarm();
    }

    /// Total scripted faults injected since construction (across all
    /// armed plans).
    #[cfg(feature = "fault-injection")]
    pub fn faults_injected(&self) -> u64 {
        self.shared.fault.injected()
    }

    /// Snapshot of pool activity counters.
    pub fn stats(&self) -> PoolStats {
        let workers = self.lock_slots();
        let live = workers.iter().filter(|s| !s.handle.is_finished()).count();
        drop(workers);
        let s = &self.shared.stats;
        PoolStats {
            loads: s.loads.load(Ordering::Relaxed),
            busy_ns: s.busy_ns.load(Ordering::Relaxed),
            chunks: s.chunks.load(Ordering::Relaxed),
            stripes: s.stripes.load(Ordering::Relaxed),
            dispatches: s.dispatches.load(Ordering::Relaxed),
            worker_deaths: s.worker_deaths.load(Ordering::Relaxed),
            worker_respawns: s.worker_respawns.load(Ordering::Relaxed),
            batch_retries: s.batch_retries.load(Ordering::Relaxed),
            workers_alive: 1 + live,
            ..PoolStats::default()
        }
    }

    /// Encode one stripe across the pool. Blocks until the stripe is done;
    /// bit-exact with [`Dialga::encode`].
    pub fn encode(
        &self,
        coder: &Dialga,
        data: &[&[u8]],
        parity: &mut [&mut [u8]],
    ) -> Result<(), EcError> {
        self.encode_batch(coder, &mut [StripeJob { data, parity }])
    }

    /// Encode a batch of stripes across the pool in one submission.
    ///
    /// All stripes are validated up front (nothing runs when any stripe is
    /// malformed), then chunked with [`split_ranges`] and dealt round-robin
    /// over the executors. Blocks until the whole batch completes.
    pub fn encode_batch(
        &self,
        coder: &Dialga,
        stripes: &mut [StripeJob<'_, '_>],
    ) -> Result<(), EcError> {
        let jobs: Vec<RawJob> = stripes
            .iter_mut()
            .map(|s| {
                RawJob::encode(
                    coder,
                    s.data,
                    s.parity.iter_mut().map(|p| OutSpan::new(p)).collect(),
                )
            })
            .collect::<Result<_, _>>()?;
        self.count_dispatch(stripes.len());
        self.run_jobs(&jobs, coder.max_batch_retries()).check()
    }

    /// [`Self::encode_batch`] into parity the pool allocates: one
    /// submission, stripe `i`'s `m` parity blocks at index `i`. The blocks
    /// are allocated unwritten and get their length only once the batch
    /// ran clean — the kernel writes each byte once, nothing zero-fills.
    pub fn encode_batch_vec(
        &self,
        coder: &Dialga,
        stripes: &[&[&[u8]]],
    ) -> Result<Vec<Vec<Vec<u8>>>, EcError> {
        let m = coder.params().m;
        let mut fresh: Vec<FreshBlock> = stripes
            .iter()
            .flat_map(|data| fresh_blocks(m, data.first().map_or(0, |d| d.len())))
            .collect();
        let jobs: Vec<RawJob> = stripes
            .iter()
            .zip(fresh.chunks_mut(m))
            .map(|(data, parity)| {
                RawJob::encode(coder, data, parity.iter_mut().map(OutSpan::fresh).collect())
            })
            .collect::<Result<_, _>>()?;
        self.count_dispatch(stripes.len());
        let wait = self.run_jobs(&jobs, coder.max_batch_retries());
        let mut parity = written(wait, fresh)?.into_iter();
        Ok(stripes
            .iter()
            .map(|_| parity.by_ref().take(m).collect())
            .collect())
    }

    /// One stripe of [`Self::encode_batch_vec`].
    pub fn encode_vec(&self, coder: &Dialga, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError> {
        let parity = self.encode_batch_vec(coder, &[data])?;
        Ok(parity.into_iter().flatten().collect())
    }

    /// Reconstruct missing shards in place across the pool. Blocks until
    /// the stripe is repaired; bit-exact with [`Dialga::decode`].
    ///
    /// A hole (`None`) is filled only once the stage that rebuilds it ran
    /// clean: after `Err`, every hole the caller passed is still `None`.
    pub fn decode(&self, coder: &Dialga, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        self.decode_batch(coder, &mut [DecodeJob { shards }])
    }

    /// Decode a batch of stripes across the pool in one submission.
    ///
    /// All stripes are planned and validated up front (survivor selection,
    /// per-present-shard length checks, decode-matrix inversion — nothing
    /// runs or is mutated when any stripe is malformed), then the two
    /// reconstruction stages run chunked over the executors: lost data
    /// from survivors, then lost parity rows from the completed data.
    /// Each stage writes fresh, unwritten blocks, which go into their holes
    /// only after the stage ran clean (stage 1's before stage 2 reads them).
    /// After `Err`, every hole of every stripe is still `None`.
    pub fn decode_batch(
        &self,
        coder: &Dialga,
        stripes: &mut [DecodeJob<'_>],
    ) -> Result<(), EcError> {
        let plans: Vec<DecodePlan> = stripes
            .iter()
            .map(|s| coder.decode_plan(s.shards))
            .collect::<Result<_, _>>()?;
        self.count_dispatch(stripes.len());
        // Stage 1 rebuilds lost data from the k survivors; stage 2 lost
        // parity rows from the (now complete) data blocks — the stage-1
        // wait orders the reconstructed data before the stage-2 reads.
        let data_idx: Vec<usize> = (0..coder.params().k).collect();
        for stage in 0..2 {
            let lost = |plan: &DecodePlan| stage_holes(plan, stage).len();
            let mut fresh: Vec<FreshBlock> = plans
                .iter()
                .flat_map(|plan| fresh_blocks(lost(plan), plan.shard_len()))
                .collect();
            let mut blocks = fresh.iter_mut();
            let jobs: Result<Vec<RawJob>, EcError> = stripes
                .iter()
                .zip(&plans)
                .filter(|(_, plan)| lost(plan) > 0)
                .map(|(s, plan)| {
                    let (tables, sources) = match stage {
                        0 => (plan.data_tables(), plan.survivors()),
                        _ => (plan.parity_tables(), &data_idx[..]),
                    };
                    let outputs = blocks.by_ref().take(lost(plan)).map(OutSpan::fresh);
                    RawJob::from_shards(coder, tables, s.shards, sources, outputs.collect())
                })
                .collect();
            let wait = match &jobs {
                Ok(jobs) => self.run_jobs(jobs, coder.max_batch_retries()),
                Err(_) => BatchWait::Failed,
            };
            let mut rebuilt = match jobs.and_then(|_| written(wait, fresh)) {
                Ok(rebuilt) => rebuilt.into_iter(),
                Err(e) => {
                    // Stage 1's data goes back out of its holes. On a
                    // timeout a lost stage-2 chunk may still read it, so it
                    // is leaked like the stage's own outputs.
                    for (s, plan) in stripes.iter_mut().zip(&plans).filter(|_| stage > 0) {
                        for &l in plan.lost_data() {
                            let data = s.shards[l].take();
                            if let BatchWait::TimedOut = wait {
                                std::mem::forget(data);
                            }
                        }
                    }
                    return Err(e);
                }
            };
            for (s, plan) in stripes.iter_mut().zip(&plans) {
                for (&l, block) in stage_holes(plan, stage).iter().zip(rebuilt.by_ref()) {
                    s.shards[l] = Some(block);
                }
            }
        }
        Ok(())
    }

    /// Single-block repair fast path (degraded read): reconstruct shard
    /// `target` from k survivors without mutating `shards` or decoding the
    /// rest of the stripe — one composed-coefficient kernel pass, chunked
    /// across the executors, into a fresh block.
    pub fn repair(
        &self,
        coder: &Dialga,
        shards: &[Option<Vec<u8>>],
        target: usize,
    ) -> Result<Vec<u8>, EcError> {
        check_target(coder, shards.len(), target)?;
        let params = coder.params();
        let (k, m) = (params.k, params.m);
        let survivors: Vec<usize> = (0..k + m)
            .filter(|&i| i != target && shards[i].is_some())
            .take(k)
            .collect();
        if survivors.len() < k {
            let lost = shards.iter().filter(|s| s.is_none()).count().max(1);
            return Err(EcError::TooManyErasures { lost, tolerance: m });
        }
        // Every present shard must agree on length, not just the survivors.
        let len = shards.iter().flatten().next().map_or(0, Vec::len);
        if let Some(bad) = shards.iter().flatten().find(|s| s.len() != len) {
            return Err(EcError::BlockLength {
                expected: len,
                got: bad.len(),
            });
        }
        let plan = coder.repair_plan(&survivors, target)?;
        let mut out = fresh_blocks(1, len);
        let spare = out.iter_mut().map(OutSpan::fresh).collect();
        let job = RawJob::from_shards(coder, plan.tables(), shards, &survivors, spare)?;
        self.count_dispatch(1);
        let wait = self.run_jobs(&[job], coder.max_batch_retries());
        one_block(written(wait, out)?)
    }

    /// LRC local-group repair across the pool: rebuild a single lost data
    /// block from its `k/l − 1` surviving peers plus the group's local
    /// parity (an XOR — identity-coefficient tables through the same
    /// kernel), into a fresh block. Bit-exact with [`Lrc::repair_local`].
    pub fn repair_local(
        &self,
        lrc: &Lrc,
        lost: usize,
        group_data: &[&[u8]],
        local_parity: &[u8],
    ) -> Result<Vec<u8>, EcError> {
        let gs = lrc.group_size();
        if lost >= lrc.params().k {
            return Err(EcError::BlockCount {
                expected: lrc.params().k,
                got: lost,
            });
        }
        check_count(gs - 1, group_data.len())?;
        // XOR is GF multiply by 1: one identity coefficient per source.
        // The local parity leads so its length is the one peers are held to.
        let tables = vec![NibbleTables::new(1); gs];
        let mut out = fresh_blocks(1, local_parity.len());
        let sources = std::iter::once(local_parity).chain(group_data.iter().copied());
        let job = RawJob::new(
            &tables,
            sources.map(SrcSpan::new).collect(),
            out.iter_mut().map(OutSpan::fresh).collect(),
            FusedSched::distance(gs as u32),
        )?;
        self.count_dispatch(1);
        let wait = self.run_jobs(&[job], DEFAULT_BATCH_RETRIES);
        one_block(written(wait, out)?)
    }

    /// Verify stripe integrity on the executors: recompute all m parity
    /// rows from `data` (chunked across the pool like an encode) and
    /// compare against the stored `parity`. On mismatch returns
    /// [`EcError::Corrupt`] naming the disagreeing parity rows (indices
    /// `k..k+m`) — evidence of inconsistency, not a localization (a
    /// corrupt data shard trips every row; see [`Dialga::scrub`]).
    pub fn verify(&self, coder: &Dialga, data: &[&[u8]], parity: &[&[u8]]) -> Result<(), EcError> {
        let k = coder.params().k;
        check_count(k, data.len())?;
        check_count(coder.params().m, parity.len())?;
        let len = data.first().map_or(0, |d| d.len());
        if let Some(bad) = data.iter().chain(parity).find(|b| b.len() != len) {
            return Err(EcError::BlockLength {
                expected: len,
                got: bad.len(),
            });
        }
        let recomputed = self.encode_vec(coder, data)?;
        let bad: Vec<usize> = recomputed
            .iter()
            .zip(parity)
            .enumerate()
            .filter(|(_, (got, want))| got.as_slice() != **want)
            .map(|(r, _)| k + r)
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(EcError::Corrupt { shards: bad })
        }
    }

    /// [`Self::decode`] plus an integrity check of the completed stripe.
    /// A corrupted *survivor* silently poisons a plain decode (the decode
    /// matrix trusts every present byte); here [`Dialga::locate`] checks
    /// the full stripe after reconstruction, the rebuilt shards as forced
    /// erasures, and corrupt survivors are rejected with
    /// [`EcError::Corrupt`] naming them (up to `m - 1 - lost`; the
    /// mismatching parity rows as evidence beyond that). On `Err`,
    /// reconstructed shard contents are unspecified (they were derived
    /// from corrupt input).
    pub fn decode_verified(
        &self,
        coder: &Dialga,
        shards: &mut [Option<Vec<u8>>],
    ) -> Result<(), EcError> {
        let lost: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        self.decode(coder, shards)?;
        let full: Vec<&[u8]> = (0..shards.len())
            .map(|i| dialga_ec::present_shard(shards, i, "shard absent after decode"))
            .map(|v| v.map(Vec::as_slice))
            .collect::<Result<_, _>>()?;
        match coder.locate(&full, &lost)? {
            bad if bad.is_empty() => Ok(()),
            bad => Err(EcError::Corrupt { shards: bad }),
        }
    }

    /// [`Self::repair`] plus an integrity check: reconstruct shard
    /// `target` *and* verify the stripe it came from, rejecting corrupt
    /// survivors with [`EcError::Corrupt`] (a plain repair would fold one
    /// straight into the rebuilt shard). Decodes the whole stripe to make
    /// the cross-check possible: integrity in exchange for the fast path.
    pub fn repair_verified(
        &self,
        coder: &Dialga,
        shards: &[Option<Vec<u8>>],
        target: usize,
    ) -> Result<Vec<u8>, EcError> {
        check_target(coder, shards.len(), target)?;
        let mut trial: Vec<Option<Vec<u8>>> = shards.to_vec();
        // Erasing a present target re-derives (and thus verifies) it too.
        trial[target] = None;
        self.decode_verified(coder, &mut trial)?;
        trial[target].take().ok_or(EcError::Internal {
            what: "repair_verified target absent after verified decode",
        })
    }

    /// Count one submission of `stripes` stripes (however many stages).
    fn count_dispatch(&self, stripes: usize) {
        let s = &self.shared.stats;
        s.stripes.fetch_add(stripes as u64, Ordering::Relaxed);
        s.dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Run a batch with healing and bounded retry: when
    /// [`Self::run_jobs_once`] fails (worker death, kernel panic, dropped
    /// send), respawn any dead workers and — up to `retries` times —
    /// resubmit the whole batch. Resubmission is idempotent: the kernel
    /// *overwrites* its outputs and the failed attempt was fully quiesced,
    /// so no byte of it can land after (or interleave with) the retry.
    /// Watchdog timeouts are never retried ([`BatchWait::TimedOut`]).
    /// Healing runs even when `retries` is 0 or exhausted, so the pool is
    /// back at full capacity for the *next* submission either way. Returns
    /// how the last attempt ended: callers turn it into a result with
    /// [`BatchWait::check`], or with [`written`] when they own fresh
    /// outputs.
    fn run_jobs(&self, jobs: &[RawJob], retries: u32) -> BatchWait {
        let mut attempt = 0u32;
        loop {
            let wait = self.run_jobs_once(jobs);
            if let BatchWait::Failed = wait {
                self.heal_workers();
                if attempt < retries {
                    attempt += 1;
                    let stats = &self.shared.stats;
                    stats.batch_retries.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            return wait;
        }
    }

    /// Respawn every dead worker slot in place (fresh queue, same executor
    /// index). A slot whose respawn fails (thread spawn error) stays dead
    /// and is retried on the next heal.
    fn heal_workers(&self) {
        let mut slots = self.lock_slots();
        for (i, slot) in slots.iter_mut().enumerate() {
            // `is_finished` covers a fully-exited thread, the ping probe a
            // receiver already dropped by a thread still tearing down.
            // Probe-and-replace must be atomic per slot (a dispatch in
            // between would clone a dead sender) and the unbounded channel
            // never blocks a send, so holding `slots` here is deliberate:
            // lint:allow(lock-order): non-blocking ping probe; the slot swap must be atomic with it
            let dead = slot.handle.is_finished() || slot.sender.send(Msg::Ping).is_err();
            if !dead {
                continue;
            }
            let stats = &self.shared.stats;
            stats.worker_deaths.fetch_add(1, Ordering::Relaxed);
            let Ok(fresh) = spawn_worker(i + 1, Arc::clone(&self.shared)) else {
                continue;
            };
            let old = std::mem::replace(slot, fresh);
            // The dead worker's receiver is gone (or going); joining reaps
            // the thread, and cannot block: its loop has already returned.
            drop(old.sender);
            let _ = old.handle.join();
            stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Chunk every job with [`split_ranges`], deal chunk `i` of the batch
    /// to executor `i % threads` (0 being this thread), send the workers'
    /// shares, run this thread's share, and block until the workers' are
    /// complete or the watchdog expires. Zero-length jobs yield no chunks.
    ///
    /// From the first send to the end of the latch wait this function MUST
    /// NOT return or unwind: sent chunks carry detached spans into the
    /// caller's borrows, and a worker may be executing one at any point in
    /// that window (the watchdog path, see [`BatchWait::TimedOut`], is the
    /// one exception). So
    ///
    /// * a failed send (worker died, receiver dropped) does not bail out —
    ///   the unsent chunk's `Drop` fails it on the latch and sending goes on;
    /// * this thread's own chunks run under [`run_chunk`]'s `catch_unwind`
    ///   and their failure (kernel panic, scripted fault) is only
    ///   *recorded*, to be folded into the result after the wait.
    ///
    /// A batch whose chunks all land on executor 0 — any one-chunk batch,
    /// anything on a pool of 1 — never reaches the send half: no latch, no
    /// sender clone, no worker index.
    fn run_jobs_once(&self, jobs: &[RawJob]) -> BatchWait {
        let mut mine: Vec<Work> = Vec::new();
        let mut theirs: Vec<Work> = Vec::new();
        for job in jobs {
            for r in split_ranges(job.len, self.threads) {
                let (whole, dealt) = (&job.work, mine.len() + theirs.len());
                // SAFETY: `r` came from `split_ranges(job.len, _)`, so it
                // lies within `[0, job.len)`; every source and output of a
                // job spans `job.len` bytes (checked by `RawJob::new`); and
                // `split_ranges` ranges are pairwise disjoint, each passed
                // unchanged to exactly one chunk, which gives every output
                // sub-span exactly one owner.
                let part = unsafe {
                    Work {
                        sources: whole.sources.iter().map(|s| s.sub(&r)).collect(),
                        outputs: whole.outputs.iter().map(|o| o.sub(&r)).collect(),
                        ..*whole
                    }
                };
                if dealt.is_multiple_of(self.threads) {
                    mine.push(part);
                } else {
                    theirs.push(part);
                }
            }
        }
        let latch = (!theirs.is_empty()).then(|| BatchState::new(theirs.len()));
        if let Some(latch) = &latch {
            // Senders are cloned out so the slot lock is not held across
            // the batch (healing and other submitters stay unblocked). A
            // concurrent heal can invalidate a clone; that send then fails
            // like any other, and the retry loop recovers.
            let senders: Vec<Sender<Msg>> =
                self.lock_slots().iter().map(|s| s.sender.clone()).collect();
            let start = self.next_worker.fetch_add(1, Ordering::Relaxed) as usize;
            for (i, work) in theirs.into_iter().enumerate() {
                let chunk = Chunk {
                    work,
                    batch: Arc::clone(latch),
                    ok: false,
                };
                // Scripted fault: drop this send as if the queue were gone.
                #[cfg(feature = "fault-injection")]
                if self.shared.fault.on_send() {
                    continue;
                }
                // A failed send means the worker is gone and its queue will
                // never drain; dropping the returned chunk marks it failed
                // on the latch so it still closes.
                let _ = senders[(start + i) % senders.len()].send(Msg::Run(chunk));
            }
        }
        let mut failed = false;
        for work in &mine {
            failed |= run_chunk(&self.shared, 0, work).is_err();
        }
        match latch.map_or(BatchWait::Clean, |l| l.wait_with_deadline(self.watchdog())) {
            BatchWait::Clean if failed => BatchWait::Failed,
            waited => waited,
        }
    }
}

impl Drop for EncodePool {
    fn drop(&mut self) {
        // `&mut self`: no submitter holds a cloned sender, so dropping a
        // slot's sender closes its queue and the worker's `recv` loop ends.
        // Joining outside the lock keeps R8 clean (no blocking under `slots`).
        let slots: Vec<WorkerSlot> = self.lock_slots().drain(..).collect();
        for slot in slots {
            drop(slot.sender);
            let _ = slot.handle.join();
        }
    }
}

/// Why [`run_chunk`] did not produce its chunk's bytes.
enum ChunkFailed {
    /// The kernel (or a scripted fault standing in for it) panicked; the
    /// panic was caught and the executor lives on.
    Panicked,
    /// Scripted: exit instead of running the chunk (a worker leaves its
    /// loop, the submitting thread just moves on).
    #[cfg(feature = "fault-injection")]
    Exit,
}

/// The chunk body every executor runs — workers from [`worker_loop`], the
/// submitting thread from [`EncodePool::run_jobs_once`]: fault hook, the
/// kernel under `catch_unwind` with the job's schedule, loads/busy
/// accounting. Never unwinds.
fn run_chunk(shared: &PoolShared, executor: usize, work: &Work) -> Result<(), ChunkFailed> {
    #[cfg(not(feature = "fault-injection"))]
    let _ = executor;
    #[cfg(feature = "fault-injection")]
    let scripted_panic = match shared.fault.on_worker_chunk(executor) {
        ChunkFault::None => false,
        ChunkFault::Panic => true,
        ChunkFault::Exit => return Err(ChunkFailed::Exit),
    };

    let started = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Scripted fault: die exactly where a kernel bug would, inside
        // the catch_unwind that guards real kernel panics.
        #[cfg(feature = "fault-injection")]
        if scripted_panic {
            // lint:allow(panic-path): deliberate scripted executor fault
            panic!("injected executor panic (executor {executor})");
        }
        // SAFETY: the submitting thread stays inside `run_jobs_once`
        // until this chunk (and its whole batch) completes, so all spans
        // are live; output sub-spans of distinct chunks never alias (see
        // `OutSpan`).
        let sources: Vec<&[u8]> = work
            .sources
            .iter()
            .map(|s| unsafe { s.as_slice() })
            .collect();
        // SAFETY: as above, plus range-exclusivity per `OutSpan`.
        let mut outputs: Vec<&mut [MaybeUninit<u8>]> = work
            .outputs
            .iter()
            .map(|o| unsafe { o.as_uninit() })
            .collect();
        // SAFETY: tables outlive the batch (see `ReadSpan`).
        let tables: &[NibbleTables] = unsafe { work.tables.as_slice() };
        dot_prod_fused_into(tables, &sources, &mut outputs, work.sched);
    }));

    let len = work.sources.first().map_or(0, |s| s.len);
    // `div_ceil`: a ragged tail still touches a full cache line.
    let rows = len.div_ceil(dialga_gf::CACHELINE) as u64 * work.sources.len() as u64;
    let s = &shared.stats;
    s.loads.fetch_add(rows, Ordering::Relaxed);
    s.busy_ns
        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    s.chunks.fetch_add(1, Ordering::Relaxed);
    result.map_err(|_| ChunkFailed::Panicked)
}

/// Worker body for `executor` (≥ 1). A respawned worker runs the same loop
/// with the same index, so scripted faults keyed on it keep matching (their
/// per-executor counters live in the shared [`FaultCell`], not here).
fn worker_loop(executor: usize, rx: Receiver<Msg>, shared: Arc<PoolShared>) {
    while let Ok(msg) = rx.recv() {
        let mut chunk = match msg {
            Msg::Run(chunk) => chunk,
            // Liveness probe from `heal_workers`; nothing to do.
            Msg::Ping => continue,
        };
        let result = run_chunk(&shared, executor, &chunk.work);
        // Leaving without running the chunk drops it (and everything still
        // queued) with `ok` unset, which fails the latch — exactly like a
        // worker that died between recv and run.
        #[cfg(feature = "fault-injection")]
        if matches!(result, Err(ChunkFailed::Exit)) {
            return;
        }
        // The chunk completes its latch seat as it drops, here.
        chunk.ok = result.is_ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| ((i * 37 + j * 11) % 256) as u8).collect())
            .collect()
    }

    /// Kill worker slot `slot`: closing its queue ends its loop, and the
    /// receiver-less sender left in the slot fails every later send.
    fn kill_worker(pool: &EncodePool, slot: usize) {
        pool.lock_slots()[slot].sender = channel().0;
    }

    #[test]
    fn pool_of_n_owns_n_minus_one_threads() {
        for n in [0usize, 1, 2, 5] {
            let pool = EncodePool::new(n);
            assert_eq!(pool.threads(), n.max(1));
            assert_eq!(pool.lock_slots().len(), n.max(1) - 1);
            assert_eq!(pool.stats().workers_alive, pool.threads());
        }
    }

    #[test]
    fn one_chunk_job_never_touches_a_worker_queue() {
        // Every worker of an 8-executor pool is dead, so anything queued
        // would fail its send, fail the batch and show up as a retry and
        // as healed deaths. A one-chunk job must not notice.
        let coder = Dialga::new(4, 2).unwrap();
        let pool = EncodePool::new(8);
        for slot in 0..7 {
            kill_worker(&pool, slot);
        }
        let data = make_data(4, CHUNK_ALIGN);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(
            pool.encode_vec(&coder, &refs).unwrap(),
            coder.encode_vec(&refs).unwrap()
        );
        let stats = pool.stats();
        assert_eq!((stats.chunks, stats.batch_retries), (1, 0));
        assert_eq!((stats.worker_deaths, stats.worker_respawns), (0, 0));
    }

    #[test]
    fn chunks_dealt_to_dead_workers_fail_the_batch_before_the_watchdog() {
        // Both workers of a 3-executor pool are dead, so the sends of the
        // two chunks dealt to them fail. Each returned chunk's `Drop` must
        // complete its latch seat as a failure: a lost seat would leave the
        // wait to the watchdog, and a different error.
        let pool = EncodePool::new(3);
        kill_worker(&pool, 0);
        kill_worker(&pool, 1);
        let watchdog = Duration::from_secs(2);
        pool.set_watchdog(Some(watchdog));
        let coder = Dialga::new(4, 2).unwrap();
        let len = 3 * CHUNK_ALIGN;
        let data = make_data(4, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![vec![0u8; len]; 2];
        let outs = parity.iter_mut().map(|p| OutSpan::new(p)).collect();
        let job = RawJob::encode(&coder, &refs, outs).unwrap();
        assert_eq!(split_ranges(job.len, pool.threads()).len(), 3);
        let started = Instant::now();
        let got = pool.run_jobs(&[job], 0).check();
        assert!(started.elapsed() < watchdog / 4, "{:?}", started.elapsed());
        match got {
            Err(EcError::Internal { what }) => assert!(what.contains("exited mid-batch"), "{what}"),
            other => panic!("expected the mid-batch failure, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_keeps_submillisecond_deadlines() {
        // The deadline is stored in nanoseconds: whole-millisecond storage
        // silently rounded sub- and fractional-millisecond deadlines.
        let pool = EncodePool::new(1);
        pool.set_watchdog(Some(Duration::from_micros(500)));
        assert_eq!(pool.watchdog(), Some(Duration::from_micros(500)));
        pool.set_watchdog(Some(Duration::from_micros(2500)));
        assert_eq!(pool.watchdog(), Some(Duration::from_micros(2500)));
        pool.set_watchdog(None);
        assert_eq!(pool.watchdog(), None);
        // A zero-length deadline clamps to 1 ns: armed, not "disabled".
        pool.set_watchdog(Some(Duration::ZERO));
        assert_eq!(pool.watchdog(), Some(Duration::from_nanos(1)));
    }

    #[test]
    fn kernel_panic_on_any_executor_surfaces_as_internal_error() {
        // A malformed job (no tables for one output × one source) makes
        // the kernel panic in both chunks, the submitting thread's and
        // the worker's. The pool must report `EcError::Internal` — not
        // hang, not unwind the submitter — and keep serving. (The panic is
        // deterministic, so retries cannot mask it: retries = 0.)
        let pool = EncodePool::new(2);
        let src = vec![0u8; 1024];
        let mut out = vec![0u8; 1024];
        let job = RawJob::new(
            &[],
            vec![SrcSpan::new(&src)],
            vec![OutSpan::new(&mut out)],
            FusedSched::distance(4),
        )
        .unwrap();
        assert!(matches!(
            pool.run_jobs(&[job], 0).check(),
            Err(EcError::Internal { .. })
        ));
        assert_eq!(pool.stats().chunks, 2, "both executors ran their chunk");
        let coder = Dialga::new(4, 2).unwrap();
        let data = make_data(4, 4096);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(
            pool.encode_vec(&coder, &refs).unwrap(),
            coder.encode_vec(&refs).unwrap(),
            "pool must survive a kernel panic"
        );
        // The panics were caught where they happened, so no thread died.
        let stats = pool.stats();
        assert_eq!(stats.workers_alive, pool.threads());
        assert_eq!(stats.worker_deaths, 0);
    }
}
