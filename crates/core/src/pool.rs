//! Persistent worker-pool encoding engine: one `Plan → run_jobs` pipeline
//! whose first executor is the calling thread.
//!
//! The paper encodes with up to 18 threads (§5) and runs its "lightweight
//! operator" (§4.2) on the calling thread at no per-call cost. Both need
//! long-lived executors: at the paper's 4 KiB blocks a thread spawn — or
//! even a queue hand-off — costs as much as the encode itself.
//!
//! * **Plans.** Every public operation (encode, decode, repair, verify;
//!   `_vec` / `_batch` are thin adapters) validates its input and reduces
//!   to `RawJob`s: apply these nibble tables to these sources, into these
//!   outputs (or, for a verify, checked against these stored rows).
//!   Nothing else differs between them.
//! * **One submit path.** `EncodePool::run_jobs` owns everything after
//!   that: [`split_ranges`] chunking, the detached spans, dealing, the
//!   completion latch, the watchdog, healing and bounded retry.
//! * **Executor 0 is the caller.** A pool of `n` executors owns `n − 1`
//!   worker threads. Chunks are dealt round-robin over the `n` executors;
//!   the submitting thread sends the workers their shares, runs its own
//!   through the same `run_chunk` body, and only then waits. A batch of
//!   one chunk — and every batch on a pool of 1 — is a direct kernel
//!   call: nothing queued, no latch, no thread woken, nothing allocated
//!   but the operation's fresh outputs and its plan (a decode or repair
//!   inverts a parity minor): the spans live in storage the pool keeps,
//!   and a chunk gathers its slices on the stack.
//! * **The coder's schedule.** Every chunk runs the [`FusedSched`] its
//!   job's coder carries (`Dialga::sched()`); the pool has no schedule of
//!   its own. The paper's coordinator (§4.1) retunes that schedule from PMU
//!   counters on PM; the host has neither, so the coordinator
//!   ([`dialga_pipeline::coordinator`]) runs on the simulator
//!   ([`dialga_pipeline::source::DialgaSource`]).
//!
//! Results are bit-exact with serial encoding/decoding for every executor
//! count: Reed–Solomon is independent per row, so any horizontal split is
//! exact, and the schedule never changes the bytes produced.

use crate::encoder::{DecodePlan, Dialga};
use dialga_ec::EcError;
#[cfg(feature = "fault-injection")]
use dialga_faultkit::{ChunkFault, FaultCell, FaultPlan};
use dialga_gf::sched::FusedSched;
use dialga_gf::simd::{dot_prod_fused_into, dot_prod_verify, FreshBlock};
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

/// How many times the pool *retries* a batch that failed because a worker
/// died or panicked mid-run, after healing the dead workers. Retries are
/// safe: the fused kernel overwrites its outputs, so re-running a batch is
/// idempotent, and the batch latch quiesces every chunk before a retry
/// starts.
pub const BATCH_RETRIES: u32 = 2;

/// Most blocks one side of a job has: a GF(2^8) stripe has at most 255.
const MAX_BLOCKS: usize = 255;

/// Split `[0, len)` into at most `parts` ranges whose boundaries are
/// multiples of [`CHUNK_ALIGN`], sized as evenly as the alignment allows:
/// every range length differs from every other by at most `CHUNK_ALIGN`
/// bytes. The surplus alignment units go to the *last* ranges, so the
/// sub-unit tail shortfall offsets one of them instead of compounding the
/// imbalance (rounding `len / parts` up instead leaves executors idle).
pub fn split_ranges(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> + Clone {
    let units = len.div_ceil(CHUNK_ALIGN);
    let n = parts.min(units);
    let (base, extra) = (units / n.max(1), units % n.max(1));
    (0..n).scan(0usize, move |start, i| {
        // The last `extra` ranges carry one surplus unit each.
        let units_here = base + usize::from(i >= n - extra);
        let end = (*start + units_here * CHUNK_ALIGN).min(len);
        Some(std::mem::replace(start, end)..end)
    })
}

/// One stripe of a batch submission: `k` data blocks in, `m` parity blocks
/// out. Lengths are validated against the coder on submission.
pub struct StripeJob<'d, 'p> {
    /// The k data blocks (equal lengths).
    pub data: &'d [&'d [u8]],
    /// The m parity blocks (overwritten; same length as the data blocks).
    pub parity: &'d mut [&'p mut [u8]],
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
    /// Batches re-submitted after a worker death/panic (at most
    /// [`BATCH_RETRIES`] per submission).
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

/// `Send`-able view of a borrowed `&[T]`, detached from its lifetime: one
/// source block, the nibble tables every chunk of a job shares, a
/// submission's [`Spans`] — or, as an [`OutSpan`], an output block the
/// kernel only stores into: the caller's bytes, or a [`FreshBlock`] nothing
/// has written yet, so either kind is sound to hand out.
///
/// The submission protocol is what makes the detached lifetime sound:
/// [`EncodePool::run_jobs_once`] neither returns nor unwinds between
/// handing a chunk to a worker and the latch reporting every such chunk
/// accounted for, so the slice a span was built from (borrowed by, or owned
/// by a frame of, the public operation) outlives every worker dereference;
/// the submitting thread's own chunks are dereferenced inside that frame.
/// Write exclusivity is structural: [`split_ranges`] yields
/// non-overlapping ranges, each chunk of a job `sub`s every output at its
/// own range only, and no output span is in two jobs — so no two chunks
/// (hence no two executors) ever write the same bytes.
#[derive(Clone, Copy)]
struct Span<T> {
    ptr: NonNull<T>,
    len: usize,
}

type SrcSpan = Span<u8>;
type TabSpan = Span<NibbleTables>;
type OutSpan = Span<MaybeUninit<u8>>;

// SAFETY: executors build only `&[T]` from a span (hence `T: Sync`), or,
// from an `OutSpan`, the write-only slice of a range no other chunk has;
// the referent outlives every dereference per the protocol on the type. A
// shared `&Span` reaches the bytes only through the same `unsafe` methods.
unsafe impl<T: Sync> Send for Span<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Sync> Sync for Span<T> {}

impl<T> Span<T> {
    fn new(slice: &[T]) -> Self {
        // SAFETY: slice pointers are never null (empty slices use a
        // dangling, still non-null pointer).
        let ptr = unsafe { NonNull::new_unchecked(slice.as_ptr().cast_mut()) };
        let len = slice.len();
        Span { ptr, len }
    }

    /// The part of this span at `r`.
    ///
    /// # Safety
    /// `r.start <= r.end <= self.len`; for an output, the caller hands the
    /// result to one chunk only (a chunk passes its own [`split_ranges`]
    /// range over the job's common block length).
    unsafe fn sub(self, r: &Range<usize>) -> Self {
        debug_assert!(r.start <= r.end && r.end <= self.len);
        // SAFETY: in-bounds offset within the span's allocation per the
        // caller contract.
        let ptr = unsafe { NonNull::new_unchecked(self.ptr.as_ptr().add(r.start)) };
        Span { ptr, len: r.len() }
    }

    /// Rebuild the slice on the executor.
    ///
    /// # Safety
    /// The slice passed to [`Span::new`] must still be live, i.e. the
    /// submitting thread still inside [`EncodePool::run_jobs_once`].
    unsafe fn as_slice<'a>(&self) -> &'a [T] {
        // SAFETY: caller upholds liveness; `ptr`/`len` came from a real
        // slice (or an in-bounds part of one), and executors only read.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl OutSpan {
    /// Over the caller's bytes, which the kernel overwrites.
    fn over(block: &mut [u8]) -> Self {
        let len = block.len();
        let ptr = NonNull::from(block).cast();
        Span { ptr, len }
    }

    /// Over a fresh block's unwritten bytes.
    fn fresh(block: &mut FreshBlock) -> Self {
        let block = block.as_uninit();
        let len = block.len();
        let ptr = NonNull::from(block).cast();
        Span { ptr, len }
    }

    /// Rebuild the write-only output slice on the executor (never a
    /// `&mut [u8]`: a fresh block's bytes are unwritten until the kernel
    /// stores them).
    ///
    /// # Safety
    /// The block must still be live (submitting thread inside
    /// [`EncodePool::run_jobs_once`]) and this span's range disjoint from
    /// every other chunk's, per the construction contract on [`Span`].
    unsafe fn as_uninit<'a>(self) -> &'a mut [MaybeUninit<u8>] {
        // SAFETY: caller upholds liveness and exclusive ownership of the
        // range; bounds per construction; `MaybeUninit<u8>` views any bytes,
        // written or not, and the kernel stores only initialized ones.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// Where a job's folded lines go.
enum Outputs {
    /// Stored into these of the submission's output spans.
    Write(Range<usize>),
    /// Checked against the stored rows at these of its source spans; the
    /// rows that differ anywhere go into the submission's dirty set.
    Check(Range<usize>),
}

/// One job over full-length blocks, before chunking:
/// `outputs[i] = sum_j tables[i * sources.len() + j] * sources[j]`, its
/// blocks given as positions in the submission's [`Spans`]. Encode,
/// decode, single-block repair and verify all reduce to this shape, which
/// is why the pool has exactly one submission path.
struct RawJob {
    tables: TabSpan,
    sources: Range<usize>,
    outputs: Outputs,
    /// The coder's schedule, which every chunk of the job runs.
    sched: FusedSched,
    /// Common length of every source and output (checked by [`Spans::job`]).
    len: usize,
}

/// A submission's spans, jobs and fresh outputs. The pool keeps one, boxed,
/// between submissions ([`EncodePool::spans`] / [`EncodePool::finish`]),
/// emptied but not freed, so a warm pool plans without allocating; a chunk
/// points into the box, never into a submitter's frame.
#[derive(Default)]
struct Spans {
    sources: Vec<SrcSpan>,
    outputs: Vec<OutSpan>,
    jobs: Vec<RawJob>,
    /// The blocks behind the fresh outputs, in planning order.
    fresh: Vec<FreshBlock>,
    /// The rows a check found differing (a retried chunk adds its again);
    /// the verify takes them.
    dirty: Mutex<Vec<usize>>,
}

impl Spans {
    /// The one job constructor the plans use: `tables` over the sources at
    /// `sources`. Checks the fact every `sub` in [`run_chunk`] relies on —
    /// all of the job's spans cover one length — so no plan can forget it.
    fn job(
        &mut self,
        tables: &[NibbleTables],
        sources: Range<usize>,
        outputs: Outputs,
        sched: FusedSched,
    ) -> Result<(), EcError> {
        let (outs, stored) = match &outputs {
            Outputs::Write(o) => (&self.outputs[o.clone()], &[][..]),
            Outputs::Check(s) => (&[][..], &self.sources[s.clone()]),
        };
        let srcs = &self.sources[sources.clone()];
        let len = srcs.first().map_or(0, |s| s.len);
        let lens = srcs.iter().chain(stored).map(|s| s.len);
        if let Some(got) = lens.chain(outs.iter().map(|o| o.len)).find(|&l| l != len) {
            return Err(EcError::BlockLength { expected: len, got });
        }
        self.jobs.push(RawJob {
            tables: TabSpan::new(tables),
            sources,
            outputs,
            sched,
            len,
        });
        Ok(())
    }

    /// Push `blocks` as sources; their positions.
    fn sources<'b>(&mut self, blocks: impl IntoIterator<Item = &'b [u8]>) -> Range<usize> {
        pushed(&mut self.sources, blocks.into_iter().map(SrcSpan::new))
    }

    /// Push `n` fresh blocks of `len` bytes as outputs.
    fn fresh(&mut self, n: usize, len: usize) -> Outputs {
        let first = self.fresh.len();
        self.fresh.extend((0..n).map(|_| FreshBlock::new(len)));
        let blocks = self.fresh[first..].iter_mut().map(OutSpan::fresh);
        Outputs::Write(pushed(&mut self.outputs, blocks))
    }

    /// Plan: parity of one stripe from its data, into the caller's
    /// blocks or (`None`) fresh ones.
    fn encode<D: AsRef<[u8]>>(
        &mut self,
        coder: &Dialga,
        data: &[D],
        parity: Option<&mut [&mut [u8]]>,
    ) -> Result<(), EcError> {
        let outputs = match parity {
            Some(parity) => {
                coder.stripe_len(data, parity)?;
                let blocks = parity.iter_mut().map(|p| OutSpan::over(p));
                Outputs::Write(pushed(&mut self.outputs, blocks))
            }
            None => {
                let len = dialga_ec::check_blocks(data, coder.params().k, None)?;
                self.fresh(coder.params().m, len)
            }
        };
        let sources = self.sources(data.iter().map(AsRef::as_ref));
        self.job(coder.tables(), sources, outputs, coder.sched())
    }

    /// Plan: `plan`'s lost shards, as fresh blocks of `len` bytes, from
    /// its survivors in `shards` (a decode or a single-block repair).
    fn rebuild(
        &mut self,
        coder: &Dialga,
        plan: &DecodePlan,
        shards: &[Option<Vec<u8>>],
        len: usize,
    ) -> Result<(), EcError> {
        let outputs = self.fresh(plan.lost().len(), len);
        // The plan named present shards; were one absent, its empty span
        // would fail the job's length check.
        let blocks = plan
            .survivors()
            .iter()
            .map(|&i| shards[i].as_deref().unwrap_or_default());
        let sources = self.sources(blocks);
        self.job(plan.tables(), sources, outputs, coder.sched())
    }

    /// The fresh outputs, in planning order, once their batch ran clean
    /// (`wait`). After anything else they stay here, to be dropped at
    /// length 0 or, on a timeout, leaked ([`EncodePool::finish`]).
    fn written(&mut self, wait: BatchWait) -> Result<impl Iterator<Item = Vec<u8>> + '_, EcError> {
        wait.check()?;
        Ok(self.fresh.drain(..).map(|block| {
            // SAFETY: `Clean` (what `check` passed) means every chunk of the
            // batch, on its last attempt, ran its kernel call to the end. The
            // chunks of a job cover `[0, len)` of each of its outputs exactly
            // (`split_ranges` ranges are disjoint and tile `[0, len)`), and
            // each call stores its whole sub-span on every tier
            // (`fused_matches_reference_for_all_tiers_and_tail_shapes`;
            // `every_pool_operation_is_bit_exact_on_every_executor_count`
            // runs it through the pool on ragged chunks). So every byte of
            // every fresh block was written.
            unsafe { block.assume_written() }
        }))
    }
}

/// Push `items` onto `list`; their positions.
fn pushed<T>(list: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Range<usize> {
    let start = list.len();
    list.extend(items);
    start..list.len()
}

/// One chunk: the blocks of job `job` of a submission over `range`, and a
/// worker's seat on the batch latch (executor 0's chunks have none). `Send`
/// because the spans are.
///
/// A chunk reports to its latch in one place, its `Drop`, and a value is
/// dropped exactly once — so every worker chunk completes its seat exactly
/// once, on every path: a clean run, a kernel panic (caught in
/// [`run_chunk`]), a scripted exit, a failed send, a queue torn down by an
/// exiting worker. Only a clean run on a worker sets `ok`.
struct Chunk {
    spans: Span<Spans>,
    job: usize,
    range: Range<usize>,
    batch: Option<Arc<BatchState>>,
    ok: bool,
}

impl Drop for Chunk {
    fn drop(&mut self) {
        if let Some(batch) = &self.batch {
            batch.complete(self.ok);
        }
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
    fn wait_with_deadline(&self, watchdog: Duration) -> BatchWait {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let waited = self
            .done
            .wait_timeout_while(inner, watchdog, |b| b.remaining > 0);
        match &*waited.unwrap_or_else(PoisonError::into_inner).0 {
            BatchInner { remaining: 1.., .. } => BatchWait::TimedOut,
            BatchInner { failed: true, .. } => BatchWait::Failed,
            BatchInner { failed: false, .. } => BatchWait::Clean,
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
    /// Span storage a submission plans into, kept between submissions.
    spans: Mutex<Option<Box<Spans>>>,
    /// Executor count: the submitting thread plus the worker slots.
    threads: usize,
    /// Round-robin cursor so consecutive multi-chunk submissions start on
    /// different workers.
    next_worker: AtomicU64,
    /// Deadline for one batch wait ([`DEFAULT_WATCHDOG`] outside this
    /// module's tests).
    watchdog: Duration,
}

/// Batch watchdog: a batch is chunks of at most a few MiB each, so half a
/// minute only elapses if completions were *lost*, not merely slow.
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
        Self::with_watchdog(threads, DEFAULT_WATCHDOG)
    }

    /// [`Self::new`] with another batch watchdog deadline.
    fn with_watchdog(threads: usize, watchdog: Duration) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            stats: PoolCounters::default(),
            #[cfg(feature = "fault-injection")]
            fault: Arc::new(FaultCell::new()),
        });
        // A host that cannot spawn threads cannot make progress anyway;
        // submission tolerates dead workers (`run_jobs`).
        #[allow(clippy::expect_used, reason = "no Result channel at construction")]
        let slots = (1..threads)
            .map(|executor| {
                spawn_worker(executor, Arc::clone(&shared)).expect("spawn encode worker")
            })
            .collect();
        EncodePool {
            shared,
            slots: Mutex::new(slots),
            spans: Mutex::default(),
            threads,
            next_worker: AtomicU64::new(0),
            watchdog,
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

    /// The pool's span storage, empty, for one submission to plan into (a
    /// concurrent submission finds it taken and plans into new storage).
    fn spans(&self) -> Box<Spans> {
        let mut kept = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        kept.take().unwrap_or_default()
    }

    /// Run a planned submission, take what `done` makes of how it ended,
    /// and keep its storage: emptied — fresh outputs nobody took drop at
    /// length 0 — or, after a timeout, leaked whole, since a lost chunk may
    /// still read its spans or write a fresh block ([`BatchWait::TimedOut`]).
    fn finish<R>(&self, mut spans: Box<Spans>, done: impl FnOnce(&mut Spans, BatchWait) -> R) -> R {
        let wait = self.run_jobs(&spans);
        let out = done(&mut spans, wait);
        if let BatchWait::TimedOut = wait {
            std::mem::forget(spans);
            return out;
        }
        spans.sources.clear();
        spans.outputs.clear();
        spans.jobs.clear();
        spans.fresh.clear();
        *self.spans.lock().unwrap_or_else(PoisonError::into_inner) = Some(spans);
        out
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
        let mut spans = self.spans();
        for s in stripes.iter_mut() {
            spans.encode(coder, s.data, Some(&mut *s.parity))?;
        }
        self.count_dispatch(stripes.len());
        self.finish(spans, |_, wait| wait.check())
    }

    /// [`Self::encode_batch`] into parity the pool allocates: one
    /// submission, stripe `i`'s `m` parity blocks at index `i`. The blocks
    /// are allocated unwritten and get their length only once the batch
    /// ran clean — the kernel writes each byte once, nothing zero-fills.
    pub fn encode_batch_vec<'a, D: AsRef<[u8]> + 'a>(
        &self,
        coder: &Dialga,
        stripes: impl IntoIterator<Item = &'a [D]>,
    ) -> Result<Vec<Vec<Vec<u8>>>, EcError> {
        let mut spans = self.spans();
        for data in stripes {
            spans.encode(coder, data, None)?;
        }
        let (n, m) = (spans.jobs.len(), coder.params().m);
        self.count_dispatch(n);
        self.finish(spans, |spans, wait| {
            let mut blocks = spans.written(wait)?;
            Ok((0..n).map(|_| blocks.by_ref().take(m).collect()).collect())
        })
    }

    /// One stripe of [`Self::encode_batch_vec`].
    pub fn encode_vec<D: AsRef<[u8]>>(
        &self,
        coder: &Dialga,
        data: &[D],
    ) -> Result<Vec<Vec<u8>>, EcError> {
        let mut parity = self.encode_batch_vec(coder, [data])?;
        Ok(parity.pop().unwrap_or_default())
    }

    /// Reconstruct missing shards in place across the pool. Blocks until
    /// the stripe is repaired; bit-exact with [`Dialga::decode`].
    ///
    /// A hole (`None`) is filled only once the pass that rebuilds it ran
    /// clean: after `Err`, every hole the caller passed is still `None`.
    pub fn decode(&self, coder: &Dialga, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        self.decode_batch(coder, &mut [shards])
    }

    /// Decode a batch of stripes across the pool in one submission: each
    /// stripe is its `k + m` shards with `None` marking erasures, repaired in
    /// place (the [`Dialga::decode`] contract).
    ///
    /// All stripes are planned and validated up front (survivor selection,
    /// per-present-shard length checks, the parity minor's inversion — nothing
    /// runs or is mutated when any stripe is malformed). Each plan rebuilds
    /// every lost shard of its stripe, data and parity, from its k
    /// survivors, so the batch is one submission chunked over the executors.
    /// The rebuilt blocks are fresh and unwritten, and go into their holes
    /// only after the batch ran clean: after `Err`, every hole of every
    /// stripe is still `None`.
    pub fn decode_batch(
        &self,
        coder: &Dialga,
        stripes: &mut [impl AsMut<[Option<Vec<u8>>]>],
    ) -> Result<(), EcError> {
        let plans: Vec<(DecodePlan, usize)> = stripes
            .iter_mut()
            .map(|s| coder.stripe_plan(s.as_mut(), None))
            .collect::<Result<_, _>>()?;
        let mut spans = self.spans();
        for (s, (plan, len)) in stripes.iter_mut().zip(&plans) {
            if !plan.lost().is_empty() {
                spans.rebuild(coder, plan, s.as_mut(), *len)?;
            }
        }
        self.count_dispatch(stripes.len());
        self.finish(spans, |spans, wait| {
            let mut rebuilt = spans.written(wait)?;
            for (s, (plan, _)) in stripes.iter_mut().zip(&plans) {
                for (&l, block) in plan.lost().iter().zip(rebuilt.by_ref()) {
                    s.as_mut()[l] = Some(block);
                }
            }
            Ok(())
        })
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
        let (plan, len) = coder.stripe_plan(shards, Some(target))?;
        let mut spans = self.spans();
        spans.rebuild(coder, &plan, shards, len)?;
        self.count_dispatch(1);
        self.finish(spans, |spans, wait| {
            Ok(spans.written(wait)?.next().unwrap_or_default())
        })
    }

    /// Verify stripe integrity on the executors: fold `data` onto the
    /// stored `parity` in one fused check pass per chunk (chunked across
    /// the pool like an encode, nothing stored, nothing allocated for a
    /// clean stripe; [`dot_prod_verify`]). On mismatch returns
    /// [`EcError::Corrupt`] naming the disagreeing parity rows (indices
    /// `k..k+m`) — evidence of inconsistency, not a localization (a
    /// corrupt data shard trips every row; see [`Dialga::scrub`]).
    pub fn verify<D: AsRef<[u8]>, P: AsRef<[u8]>>(
        &self,
        coder: &Dialga,
        data: &[D],
        parity: &[P],
    ) -> Result<(), EcError> {
        coder.stripe_len(data, parity)?;
        let mut spans = self.spans();
        let sources = spans.sources(data.iter().map(AsRef::as_ref));
        let stored = spans.sources(parity.iter().map(AsRef::as_ref));
        let check = Outputs::Check(stored);
        spans.job(coder.tables(), sources, check, coder.sched())?;
        self.count_dispatch(1);
        self.finish(spans, |spans, wait| {
            // Taken before the verdict, so no row outlives its submission.
            let mut dirty =
                std::mem::take(spans.dirty.get_mut().unwrap_or_else(|p| p.into_inner()));
            wait.check()?;
            if dirty.is_empty() {
                return Ok(());
            }
            dirty.sort_unstable();
            dirty.dedup();
            let k = coder.params().k;
            let shards = dirty.into_iter().map(|r| k + r).collect();
            Err(EcError::Corrupt { shards })
        })
    }

    /// Count one submission of `stripes` stripes.
    fn count_dispatch(&self, stripes: usize) {
        let s = &self.shared.stats;
        s.stripes.fetch_add(stripes as u64, Ordering::Relaxed);
        s.dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Run a batch with healing and bounded retry: when
    /// [`Self::run_jobs_once`] fails (worker death, kernel panic, dropped
    /// send), respawn any dead workers and — up to [`BATCH_RETRIES`] times
    /// — resubmit the whole batch. Resubmission is idempotent: the kernel
    /// *overwrites* its outputs and the failed attempt was fully quiesced,
    /// so no byte of it can land after (or interleave with) the retry.
    /// Watchdog timeouts are never retried ([`BatchWait::TimedOut`]).
    /// Healing runs even when the retries are exhausted, so the pool is
    /// back at full capacity for the *next* submission either way. Returns
    /// how the last attempt ended: callers turn it into a result with
    /// [`BatchWait::check`], or with [`Spans::written`] when they own fresh
    /// outputs.
    fn run_jobs(&self, spans: &Spans) -> BatchWait {
        let mut attempt = 0u32;
        loop {
            let wait = self.run_jobs_once(spans);
            if let BatchWait::Failed = wait {
                self.heal_workers();
                if attempt < BATCH_RETRIES {
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
    fn run_jobs_once(&self, spans: &Spans) -> BatchWait {
        let threads = self.threads;
        let chunks =
            spans.jobs.iter().enumerate().flat_map(|(job, raw)| {
                split_ranges(raw.len, threads).map(move |range| (job, range))
            });
        let chunk = |(job, range), batch| Chunk {
            spans: Span::new(std::slice::from_ref(spans)),
            job,
            range,
            batch,
            ok: false,
        };
        // Chunk `i` of the batch is executor 0's when `i % threads == 0`.
        let dealt = |mine| move |(i, _): &(usize, _)| usize::is_multiple_of(*i, threads) == mine;
        let theirs = chunks.clone().enumerate().filter(dealt(false));
        let n = theirs.clone().count();
        let latch = (n > 0).then(|| BatchState::new(n));
        if let Some(latch) = &latch {
            // Senders are cloned out so the slot lock is not held across
            // the batch (healing and other submitters stay unblocked). A
            // concurrent heal can invalidate a clone; that send then fails
            // like any other, and the retry loop recovers.
            let senders: Vec<Sender<Msg>> =
                self.lock_slots().iter().map(|s| s.sender.clone()).collect();
            let start = self.next_worker.fetch_add(1, Ordering::Relaxed) as usize;
            for (i, (_, part)) in theirs.enumerate() {
                let chunk = chunk(part, Some(Arc::clone(latch)));
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
        for (_, part) in chunks.enumerate().filter(dealt(true)) {
            failed |= run_chunk(&self.shared, 0, &chunk(part, None)).is_err();
        }
        match latch.map_or(BatchWait::Clean, |l| l.wait_with_deadline(self.watchdog)) {
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

/// `f` over the views `view` makes of `spans`, gathered on the stack: a
/// chunk's slices of slices cost no allocation. A job has at most
/// [`MAX_BLOCKS`] blocks a side; a longer list is cut there, and the
/// kernel's table-geometry check then fails the chunk.
fn gather<S, T, R>(spans: &[S], view: impl Fn(&S) -> T, f: impl FnOnce(&mut [T]) -> R) -> R {
    let mut buf = [const { MaybeUninit::<T>::uninit() }; MAX_BLOCKS];
    let n = spans.len().min(MAX_BLOCKS);
    for (slot, span) in buf.iter_mut().zip(spans) {
        slot.write(view(span));
    }
    // SAFETY: the first `n` slots were written above (the zip stops at the
    // shorter side); what they hold is never dropped, and the views here
    // are references, which need no drop.
    f(unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<T>(), n) })
}

/// The chunk body every executor runs — workers from [`worker_loop`], the
/// submitting thread from [`EncodePool::run_jobs_once`]: fault hook, the
/// kernel (or the check) under `catch_unwind` with the job's schedule,
/// loads/busy accounting. Never unwinds.
fn run_chunk(shared: &PoolShared, executor: usize, chunk: &Chunk) -> Result<(), ChunkFailed> {
    #[cfg(not(feature = "fault-injection"))]
    let _ = executor;
    #[cfg(feature = "fault-injection")]
    let scripted_panic = match shared.fault.on_worker_chunk(executor) {
        ChunkFault::None => false,
        ChunkFault::Panic => true,
        ChunkFault::Exit => return Err(ChunkFailed::Exit),
    };

    // SAFETY: the submitting thread stays inside `run_jobs_once` until this
    // chunk (and its whole batch) completes, so the submission's spans, the
    // tables and every block they view are live.
    let spans = unsafe { &chunk.spans.as_slice()[0] };
    let (job, r) = (&spans.jobs[chunk.job], &chunk.range);
    let started = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Scripted fault: die exactly where a kernel bug would, inside
        // the catch_unwind that guards real kernel panics.
        #[cfg(feature = "fault-injection")]
        #[allow(clippy::panic, reason = "deliberate scripted executor fault")]
        if scripted_panic {
            panic!("injected executor panic (executor {executor})");
        }
        // SAFETY: live as above.
        let tables = unsafe { job.tables.as_slice() };
        let (srcs, outs) = (&spans.sources, &spans.outputs);
        // SAFETY: (every `sub` here) `r` is a `split_ranges(job.len, _)`
        // range, so it lies within `[0, job.len)`, and every span of a job
        // covers `job.len` bytes (`Spans::job` checked it); the chunk passes
        // its own range, which no other chunk of the job has, so each
        // output sub-span has exactly one owner (see `OutSpan`).
        let read = |s: &SrcSpan| unsafe { s.sub(r).as_slice() };
        gather(&srcs[job.sources.clone()], read, |sources| {
            match &job.outputs {
                Outputs::Write(o) => gather(
                    &outs[o.clone()],
                    // SAFETY: as above, plus range-exclusivity per `OutSpan`.
                    |o| unsafe { o.sub(r).as_uninit() },
                    |outputs| dot_prod_fused_into(tables, sources, outputs, job.sched),
                ),
                Outputs::Check(s) => gather(&srcs[s.clone()], read, |stored| {
                    let bad = dot_prod_verify(tables, sources, stored, job.sched);
                    if !bad.is_empty() {
                        let dirty = spans.dirty.lock();
                        dirty.unwrap_or_else(PoisonError::into_inner).extend(bad);
                    }
                }),
            }
        });
    }));

    // `div_ceil`: a ragged tail still touches a full cache line.
    let rows = r.len().div_ceil(dialga_gf::CACHELINE) as u64 * job.sources.len() as u64;
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
        let result = run_chunk(&shared, executor, &chunk);
        // Leaving without running the chunk drops it (and everything still
        // queued) with `ok` unset, which fails the latch — exactly like a
        // worker that died between recv and run. The queue closes first, so
        // the heal the failed latch wakes cannot find this worker alive.
        #[cfg(feature = "fault-injection")]
        if matches!(result, Err(ChunkFailed::Exit)) {
            drop(rx);
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
        // complete its latch seat as a failure, so the attempt fails at
        // once, both workers are healed and the retry runs clean: a lost
        // seat would leave the wait to the watchdog, which is never
        // retried.
        let watchdog = Duration::from_secs(2);
        let pool = EncodePool::with_watchdog(3, watchdog);
        kill_worker(&pool, 0);
        kill_worker(&pool, 1);
        let coder = Dialga::new(4, 2).unwrap();
        let len = 3 * CHUNK_ALIGN;
        let data = make_data(4, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![vec![0u8; len]; 2];
        let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        let mut spans = Spans::default();
        spans.encode(&coder, &refs, Some(&mut outs)).unwrap();
        assert_eq!(split_ranges(len, pool.threads()).count(), 3);
        let started = Instant::now();
        pool.run_jobs(&spans).check().unwrap();
        assert!(started.elapsed() < watchdog / 4, "{:?}", started.elapsed());
        drop(outs);
        assert_eq!(parity, coder.encode_vec(&refs).unwrap());
        let stats = pool.stats();
        assert_eq!(stats.batch_retries, 1);
        assert_eq!((stats.worker_deaths, stats.worker_respawns), (2, 2));
    }

    #[test]
    fn watchdog_keeps_submillisecond_deadlines() {
        // Sub- and fractional-millisecond deadlines must not round.
        for deadline in [Duration::from_micros(500), Duration::from_micros(2500)] {
            assert_eq!(EncodePool::with_watchdog(1, deadline).watchdog, deadline);
        }
        assert_eq!(EncodePool::new(1).watchdog, DEFAULT_WATCHDOG);
    }

    #[test]
    fn kernel_panic_on_any_executor_surfaces_as_internal_error() {
        // A malformed job (no tables for one output × one source) makes
        // the kernel panic in both chunks, the submitting thread's and
        // the worker's. The pool must report `EcError::Internal` — not
        // hang, not unwind the submitter — and keep serving. (The panic is
        // deterministic, so every retry panics too.)
        let pool = EncodePool::new(2);
        let src = vec![0u8; 1024];
        let mut out = vec![0u8; 1024];
        let mut spans = Spans::default();
        let sources = spans.sources([&src[..]]);
        spans.outputs.push(OutSpan::over(&mut out));
        let outputs = Outputs::Write(0..1);
        spans
            .job(&[], sources, outputs, FusedSched::distance(4))
            .unwrap();
        assert!(matches!(
            pool.run_jobs(&spans).check(),
            Err(EcError::Internal { .. })
        ));
        let attempts = u64::from(BATCH_RETRIES) + 1;
        let stats = pool.stats();
        assert_eq!(stats.chunks, 2 * attempts, "both executors ran every chunk");
        assert_eq!(stats.batch_retries, attempts - 1);
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
