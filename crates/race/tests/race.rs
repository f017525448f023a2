//! Interleaving-explored models of DIALGA's concurrency protocols.
//!
//! Each *real* model mirrors a protocol that ships in `crates/core` /
//! `crates/service` (the pool batch latch, `heal_workers` respawn, the
//! shard DRR admission queue with its submitter/master dispatch hand-off,
//! and the stats-vs-admit lock order) and must
//! stay clean across the full seeded sweep (`RACE_SCHEDULES`, default
//! 1000). Each *bug* model re-introduces one of the three PR 3 pool bugs
//! (or, since, a protocol's load-bearing step left out) and must be caught by the explorer under a fixed seed within a bounded
//! schedule budget — these are the proof the harness has teeth.
//!
//! Run the full sweep with `just race`; `scripts/lint.sh` runs the same
//! tests with a small `RACE_SCHEDULES` budget as the `race --smoke`
//! stage.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dialga_race::{
    channel, spawn, AtomicBool, AtomicU64, Condvar, Explorer, Mutex, Sender, ViolationKind,
};

/// Full-sweep schedule budget; `scripts/lint.sh --smoke` lowers it.
fn budget() -> usize {
    std::env::var("RACE_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000)
}

// ---------------------------------------------------------------------------
// Shared model vocabulary: the pool batch latch (pool.rs `BatchState` /
// `Chunk`), shrunk to its synchronization skeleton.
// ---------------------------------------------------------------------------

struct BatchInner {
    remaining: usize,
    failed: bool,
}

struct Batch {
    inner: Mutex<BatchInner>,
    cv: Condvar,
}

impl Batch {
    fn new(participants: usize) -> Arc<Batch> {
        Arc::new(Batch {
            inner: Mutex::named(
                "batch.inner",
                BatchInner {
                    remaining: participants,
                    failed: false,
                },
            ),
            cv: Condvar::new(),
        })
    }

    /// One participant completes (mirrors `BatchState::complete`).
    fn complete(&self, ok: bool) {
        let mut g = self.inner.lock();
        if !ok {
            g.failed = true;
        }
        g.remaining -= 1;
        let done = g.remaining == 0;
        drop(g);
        if done {
            self.cv.notify_all();
        }
    }

    /// Block until every participant completed; `true` iff all succeeded
    /// (mirrors `BatchState::wait_with_deadline`'s Clean/Failed split).
    fn wait(&self) -> bool {
        let mut g = self.inner.lock();
        while g.remaining > 0 {
            g = self.cv.wait(g);
        }
        !g.failed
    }

    /// The PR 3 panic-escalation bug: the old wait asserted the batch
    /// never fails instead of reporting `Failed` to the caller.
    fn wait_panicky(&self) {
        let mut g = self.inner.lock();
        while g.remaining > 0 {
            g = self.cv.wait(g);
        }
        assert!(!g.failed, "batch failed under panicky wait");
    }
}

/// One unit of latched work (mirrors pool.rs `Chunk`): completes exactly
/// once because it completes only in its `Drop`, which the type runs once
/// on every path; a worker sets `ok` after a clean run.
struct Chunk {
    batch: Arc<Batch>,
    ok: bool,
}

impl Chunk {
    fn new(batch: &Arc<Batch>) -> Chunk {
        Chunk {
            batch: Arc::clone(batch),
            ok: false,
        }
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        self.batch.complete(self.ok);
    }
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk").field("ok", &self.ok).finish()
    }
}

// ---------------------------------------------------------------------------
// Real model 1: pool-latch quiesce.
//
// A submitter — executor 0 of a 3-executor pool — fans the other two
// chunks of a batch out to two workers; one worker's channel is already
// dead (worker death), so that send fails and the returned chunk's Drop
// closes its latch slot. Between "send" and "wait" the submitter runs its
// own chunk, whose result is a local, not a latch seat: the latch protocol
// is the one from before the submitter did any work, with one more
// schedule point inside the window. The submitter must wait for the latch
// before releasing the shared frame — whatever its own chunk did — and the
// live worker asserts the frame is still alive when it touches it.
// ---------------------------------------------------------------------------

fn pool_latch_model(wait_before_free: bool) {
    let frame = Arc::new(AtomicBool::new(true));
    let batch = Batch::new(2);

    let (tx_a, rx_a) = channel::<Chunk>();
    let (tx_b, rx_b) = channel::<Chunk>();
    drop(rx_b); // worker B died before dispatch

    let frame_a = Arc::clone(&frame);
    let worker_a = spawn(move || {
        let mut chunk = rx_a.recv().expect("worker A receives its chunk");
        assert!(
            frame_a.load(Ordering::Acquire),
            "worker touched freed frame"
        );
        chunk.ok = true;
    });

    if let Err(dead) = tx_b.send(Chunk::new(&batch)) {
        drop(dead); // SendError carries the chunk back; Drop closes the latch
    }
    tx_a.send(Chunk::new(&batch)).expect("worker A is alive");
    // Executor 0's own chunk reads the frame it is about to wait on.
    assert!(frame.load(Ordering::Acquire), "submitter owns the frame");

    if wait_before_free {
        let clean = batch.wait();
        assert!(!clean, "worker B's chunk must report failure");
    }
    // Quiesced (or not, in the bug variant): release the frame.
    frame.store(false, Ordering::Release);

    drop(tx_a);
    worker_a.join().expect("worker A exits cleanly");
}

#[test]
fn pool_latch_model_clean() {
    Explorer::pct(0xD1A7_0001, budget())
        .run(|| pool_latch_model(true))
        .assert_clean();
}

/// PR 3 bug model 1: the submitter frees the frame without waiting for
/// the latch after a failed send — the use-after-free class. Caught as a
/// panic on the live worker's frame assertion.
#[test]
fn bug_model_use_after_free_is_caught() {
    let report = Explorer::pct(0xBAD_0001, 500).run(|| pool_latch_model(false));
    let v = report
        .violation
        .expect("explorer must catch the use-after-free model");
    assert_eq!(v.kind, ViolationKind::Panic);
    assert!(v.message.contains("freed frame"), "{}", v.message);
}

/// PR 3 bug model 2: a chunk whose failure path never completes the
/// latch (the missing-`Drop` class). The submitter waits forever — the
/// explorer reports the hang as a deadlock.
#[test]
fn bug_model_lost_completion_deadlocks() {
    let report = Explorer::pct(0xBAD_0002, 500).run(|| {
        let batch = Batch::new(2);
        let (tx_a, rx_a) = channel::<Chunk>();
        let (tx_b, rx_b) = channel::<Chunk>();
        drop(rx_b);

        let worker_a = spawn(move || {
            let mut chunk = rx_a.recv().expect("worker A receives its chunk");
            chunk.ok = true;
        });

        if let Err(dead) = tx_b.send(Chunk::new(&batch)) {
            // The bug: leak the chunk instead of letting Drop complete it.
            std::mem::forget(dead.0);
        }
        tx_a.send(Chunk::new(&batch)).expect("worker A is alive");

        batch.wait(); // hangs: remaining never reaches 0
        drop(tx_a);
        worker_a.join().unwrap();
    });
    let v = report
        .violation
        .expect("explorer must catch the lost-completion model");
    assert_eq!(v.kind, ViolationKind::Deadlock);
}

/// PR 3 bug model 3: the old wait escalated a failed batch to a panic in
/// the submitter instead of returning `Failed`.
#[test]
fn bug_model_panic_escalation_is_caught() {
    let report = Explorer::pct(0xBAD_0003, 500).run(|| {
        let batch = Batch::new(1);
        let (tx, rx) = channel::<Chunk>();
        let worker = spawn(move || {
            // Worker hits a decode error: drops the chunk with `ok` unset.
            drop(rx.recv().expect("worker receives its chunk"));
        });
        tx.send(Chunk::new(&batch)).expect("worker is alive");
        batch.wait_panicky();
        drop(tx);
        worker.join().unwrap();
    });
    let v = report
        .violation
        .expect("explorer must catch the panic-escalation model");
    assert_eq!(v.kind, ViolationKind::Panic);
    assert!(v.message.contains("panicky"), "{}", v.message);
}

// ---------------------------------------------------------------------------
// Real model 2: heal_workers respawn.
//
// A single-slot pool whose worker is dead. A healer probes the slot
// (send under the slots lock — the pool.rs `lint:allow(lock-order)`
// site: probe + replace must be atomic per slot, and the shim channel,
// like std's, is unbounded so the send never blocks) and respawns the
// worker in place. The submitter's first batch may fail; after the heal
// completes, a bounded retry must succeed.
// ---------------------------------------------------------------------------

enum Msg {
    Ping,
    Work(Chunk),
}

fn try_batch(slot: &Arc<Mutex<Option<Sender<Msg>>>>) -> bool {
    let batch = Batch::new(1);
    let tx = {
        let g = slot.lock();
        g.as_ref().expect("slot populated").clone()
    };
    if let Err(dead) = tx.send(Msg::Work(Chunk::new(&batch))) {
        drop(dead); // chunk Drop closes the latch with failure
    }
    batch.wait()
}

#[test]
fn heal_respawn_model_clean() {
    let report = Explorer::pct(0xD1A7_0002, budget()).run(|| {
        let (dead_tx, dead_rx) = channel::<Msg>();
        drop(dead_rx); // the worker died some time ago
        let slot = Arc::new(Mutex::named("slots", Some(dead_tx)));

        let slot_h = Arc::clone(&slot);
        let healer = spawn(move || {
            let mut g = slot_h.lock();
            let probe_failed = match g.as_ref() {
                Some(tx) => tx.send(Msg::Ping).is_err(),
                None => true,
            };
            if probe_failed {
                let (tx, rx) = channel::<Msg>();
                let worker = spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Msg::Ping => {}
                            Msg::Work(mut chunk) => chunk.ok = true,
                        }
                    }
                });
                *g = Some(tx); // respawn in place, still under the slot lock
                drop(g);
                Some(worker)
            } else {
                None
            }
        });

        let first = try_batch(&slot);
        // Bounded idempotent retry: once the healer has run, a single
        // retry must succeed.
        let worker = healer.join().expect("healer exits cleanly");
        let healed = if first { true } else { try_batch(&slot) };
        assert!(healed, "retry after heal must succeed");

        slot.lock().take(); // close the channel so the worker exits
        if let Some(w) = worker {
            w.join().expect("respawned worker exits cleanly");
        }
    });
    report.assert_clean();
}

// ---------------------------------------------------------------------------
// Real model 3: DRR admission accounting and the dispatch hand-off.
//
// Two submitters (one tenant each, two jobs each) meet a shard queue. A
// submitter that finds the shard idle — queue empty, not paused, nothing
// in flight — takes `active` under the queue lock and dispatches its job
// itself (`Shard::claim_idle`); otherwise it queues (occupancy bumped
// under the lock, like `Shard::admit`) and the master, which bumps
// `active` on pick (`Shard::next_batch`), dispatches it. A third thread
// toggles pause. Invariants: every job is dispatched exactly once, no
// dispatch *starts* while paused, at most one submitter-run dispatch at a
// time, no job overtakes an earlier job of its tenant, and at quiesce
// occupancy and `active` are zero.
// ---------------------------------------------------------------------------

const TENANTS: u64 = 2;
const JOBS_PER_TENANT: u64 = 2;

struct QueueState {
    q: VecDeque<u64>,
    active: u64,
    paused: bool,
    closed: bool,
}

impl QueueState {
    fn idle(&self) -> bool {
        self.q.is_empty() && self.active == 0 && !self.paused && !self.closed
    }
}

struct ShardModel {
    queue: Mutex<QueueState>,
    cv: Condvar,
    occupancy: AtomicU64,
    /// Submitter-run dispatches in flight.
    inline_running: AtomicU64,
    /// Dispatch count per job id (`tenant * JOBS_PER_TENANT + j`).
    dispatched: Vec<AtomicU64>,
}

impl ShardModel {
    /// Begin dispatching `job`; the caller holds `queue` (this is the pick
    /// / claim point) and has already bumped `active`.
    fn begin(&self, g: &QueueState, job: u64) {
        assert!(!g.paused || g.closed, "dispatch started while paused");
        let earlier = (job - job % JOBS_PER_TENANT)..job;
        for e in earlier {
            let seen = self.dispatched[e as usize].load(Ordering::Relaxed);
            assert_eq!(seen, 1, "job {job} overtook its tenant's job {e}");
        }
        let before = self.dispatched[job as usize].fetch_add(1, Ordering::Relaxed);
        assert_eq!(before, 0, "job {job} dispatched twice");
    }

    /// `Drop for ActiveGuard`: one dispatch is no longer in flight.
    fn release(&self) {
        self.queue.lock().active -= 1;
    }

    /// `StripeService::submit` for one job. `test_under_lock = false`
    /// re-introduces the bug: the idle test is made before the lock is
    /// taken and trusted after.
    fn submit(&self, job: u64, test_under_lock: bool) {
        let stale = (!test_under_lock).then(|| self.queue.lock().idle());
        let mut g = self.queue.lock();
        if stale.unwrap_or_else(|| g.idle()) {
            g.active += 1;
            self.begin(&g, job);
            drop(g);
            let others = self.inline_running.fetch_add(1, Ordering::Relaxed);
            assert_eq!(others, 0, "two submitter-run dispatches at once");
            self.inline_running.fetch_sub(1, Ordering::Relaxed);
            self.release();
        } else {
            g.q.push_back(job);
            self.occupancy.fetch_add(1, Ordering::Relaxed);
            drop(g);
            self.cv.notify_one();
        }
    }

    /// `master_loop`: pick while unpaused (or closing), dispatch, release.
    fn master(&self) {
        loop {
            let mut g = self.queue.lock();
            let job = loop {
                if !g.paused || g.closed {
                    if let Some(job) = g.q.pop_front() {
                        break job;
                    }
                }
                if g.closed {
                    return;
                }
                g = self.cv.wait(g);
            };
            // Occupancy and `active` mutate under the queue lock, as in
            // Shard::next_batch.
            self.occupancy.fetch_sub(1, Ordering::Relaxed);
            g.active += 1;
            self.begin(&g, job);
            drop(g);
            self.release();
        }
    }

    fn set_paused(&self, paused: bool) {
        self.queue.lock().paused = paused;
        self.cv.notify_all();
    }
}

fn handoff_model(test_under_lock: bool) {
    let shard = Arc::new(ShardModel {
        queue: Mutex::named(
            "queue",
            QueueState {
                q: VecDeque::new(),
                active: 0,
                paused: false,
                closed: false,
            },
        ),
        cv: Condvar::new(),
        occupancy: AtomicU64::new(0),
        inline_running: AtomicU64::new(0),
        dispatched: (0..TENANTS * JOBS_PER_TENANT)
            .map(|_| AtomicU64::new(0))
            .collect(),
    });

    let master = {
        let shard = Arc::clone(&shard);
        spawn(move || shard.master())
    };
    let pauser = {
        let shard = Arc::clone(&shard);
        spawn(move || {
            shard.set_paused(true);
            shard.set_paused(false);
        })
    };
    let submitters: Vec<_> = (0..TENANTS)
        .map(|tenant| {
            let shard = Arc::clone(&shard);
            spawn(move || {
                for j in 0..JOBS_PER_TENANT {
                    shard.submit(tenant * JOBS_PER_TENANT + j, test_under_lock);
                }
            })
        })
        .collect();

    for s in submitters {
        s.join().expect("submitter exits cleanly");
    }
    pauser.join().expect("pauser exits cleanly");
    shard.queue.lock().closed = true;
    shard.cv.notify_all();
    master.join().expect("master exits cleanly");

    assert_eq!(shard.occupancy.load(Ordering::Relaxed), 0, "occupancy leak");
    assert_eq!(shard.queue.lock().active, 0, "shard never idle again");
    for (job, n) in shard.dispatched.iter().enumerate() {
        assert_eq!(n.load(Ordering::Relaxed), 1, "job {job} lost or doubled");
    }
}

#[test]
fn drr_admission_model_clean() {
    Explorer::pct(0xD1A7_0003, budget())
        .run(|| handoff_model(true))
        .assert_clean();
}

/// The hand-off bug the queue lock excludes: the idle test made outside
/// the lock. Two submitters both see an idle shard and both dispatch
/// (or one starts under a pause that landed in between).
#[test]
fn bug_model_idle_test_outside_lock_is_caught() {
    let report = Explorer::pct(0xBAD_0006, 500).run(|| handoff_model(false));
    let v = report
        .violation
        .expect("explorer must catch the unlocked idle test");
    assert_eq!(v.kind, ViolationKind::Panic);
    assert!(
        v.message.contains("at once") || v.message.contains("while paused"),
        "{}",
        v.message
    );
}

// ---------------------------------------------------------------------------
// Real model 4 (lock-order pin, satellite of R8): StripeService::stats
// takes the pool's slots lock and each shard's queue lock sequentially —
// never nested — while admit takes queue then (after dropping it)
// slots. This model pins that protocol: no interleaving deadlocks.
// The inverted variant below shows what R8 prevents.
// ---------------------------------------------------------------------------

#[test]
fn stats_vs_admit_lock_order_clean() {
    let report = Explorer::pct(0xD1A7_0004, budget()).run(|| {
        let queue = Arc::new(Mutex::named("queue", 0u64));
        let slots = Arc::new(Mutex::named("slots", 0u64));

        let admit = {
            let (queue, slots) = (Arc::clone(&queue), Arc::clone(&slots));
            spawn(move || {
                for _ in 0..2 {
                    // Shard::admit: queue lock released before dispatch
                    // touches the pool.
                    *queue.lock() += 1;
                    *slots.lock() += 1;
                }
            })
        };
        // StripeService::stats: pool stats, then shard snapshot —
        // sequential acquisitions, never held together.
        for _ in 0..2 {
            let busy = *slots.lock();
            let depth = *queue.lock();
            // Reads are advisory snapshots: each is bounded by the
            // admit loop's total, but no joint invariant is implied.
            assert!(busy <= 2 && depth <= 2);
        }
        admit.join().expect("admit exits cleanly");
    });
    report.assert_clean();
}

/// The protocol violation R8 exists to prevent: stats holding `slots`
/// while taking `queue`, racing admit holding `queue` while taking
/// `slots`. The explorer finds the AB/BA deadlock.
#[test]
fn inverted_lock_order_deadlocks() {
    let report = Explorer::pct(0xBAD_0004, 500).run(|| {
        let queue = Arc::new(Mutex::named("queue", 0u64));
        let slots = Arc::new(Mutex::named("slots", 0u64));
        let admit = {
            let (queue, slots) = (Arc::clone(&queue), Arc::clone(&slots));
            spawn(move || {
                let _q = queue.lock();
                let _s = slots.lock();
            })
        };
        {
            let _s = slots.lock();
            let _q = queue.lock();
        }
        let _ = admit.join();
    });
    let v = report
        .violation
        .expect("explorer must find the AB/BA deadlock");
    assert_eq!(v.kind, ViolationKind::Deadlock);
}

// ---------------------------------------------------------------------------
// Real model 5 (PR 10 tentpole): the stripe store's shadow-slot
// commit-record protocol (store.rs `write_stripe` + `commit` vs
// `recover`). The writer seals a shadow slot — payload first, then the
// footer that binds it — and only then publishes the 8-byte commit
// word; anything that trusts a commit word must find the named slot
// fully sealed. In the shipped store the "reader" is post-crash
// recovery, so the ordering is enforced by persist boundaries rather
// than acquire/release — the model collapses both to the same
// publication skeleton and proves the order is the load-bearing part.
// The commit word carries the R9 `flag` role (single releasing writer,
// acquiring readers), same as the service's `recovering` gate.
// ---------------------------------------------------------------------------

struct CommitProto {
    /// Slot payloads (stand-ins for the shard bytes of each shadow slot).
    payload: [AtomicU64; 2],
    /// Slot footers: the seq whose hash seals the payload above.
    footer: [AtomicU64; 2],
    /// The 8-byte commit record: `(slot << 32) | seq`, zero = none.
    commit_word: AtomicU64,
}

fn pack_commit(slot: u64, seq: u64) -> u64 {
    (slot << 32) | seq
}

/// Two write cycles through alternating shadow slots, raced against a
/// recovery-shaped observer. `commit_first` re-introduces the bug the
/// protocol exists to exclude: publishing the commit word before the
/// slot is sealed.
fn commit_protocol_model(commit_first: bool) {
    let p = Arc::new(CommitProto {
        payload: [AtomicU64::new(0), AtomicU64::new(0)],
        footer: [AtomicU64::new(0), AtomicU64::new(0)],
        commit_word: AtomicU64::new(0),
    });

    let writer = {
        let p = Arc::clone(&p);
        spawn(move || {
            for seq in 1u64..=2 {
                // First write lands in slot 1's mirror image of the real
                // store's A/B alternation; each slot is written once, so
                // the observer's equality checks below are exact.
                let slot = (seq % 2) as usize;
                if commit_first {
                    p.commit_word
                        .store(pack_commit(slot as u64, seq), Ordering::Release);
                    p.payload[slot].store(seq * 1000, Ordering::Relaxed);
                    p.footer[slot].store(seq, Ordering::Relaxed);
                } else {
                    p.payload[slot].store(seq * 1000, Ordering::Relaxed);
                    p.footer[slot].store(seq, Ordering::Relaxed);
                    p.commit_word
                        .store(pack_commit(slot as u64, seq), Ordering::Release);
                }
            }
        })
    };

    // Recovery-shaped observer: every probe that trusts the commit word
    // must find the named slot sealed — footer seq in place and the
    // payload it binds intact.
    for _ in 0..2 {
        let word = p.commit_word.load(Ordering::Acquire);
        let (slot, seq) = ((word >> 32) as usize, word & 0xFFFF_FFFF);
        if seq == 0 {
            continue;
        }
        let footer = p.footer[slot].load(Ordering::Acquire);
        let payload = p.payload[slot].load(Ordering::Acquire);
        assert_eq!(footer, seq, "commit word names an unsealed slot");
        assert_eq!(payload, seq * 1000, "committed slot payload torn");
    }
    writer.join().expect("writer exits cleanly");
}

#[test]
fn commit_record_protocol_clean() {
    Explorer::pct(0xD1A7_0005, budget())
        .run(|| commit_protocol_model(false))
        .assert_clean();
}

/// The ordering bug the commit record excludes: commit word published
/// before the slot it names is sealed. Some interleaving has the
/// observer trust the word and read a stale slot — the explorer must
/// find it.
#[test]
fn bug_model_commit_before_seal_is_caught() {
    let report = Explorer::pct(0xBAD_0005, 500).run(|| commit_protocol_model(true));
    let v = report
        .violation
        .expect("explorer must catch the early commit");
    assert_eq!(v.kind, ViolationKind::Panic);
    assert!(
        v.message.contains("unsealed") || v.message.contains("torn"),
        "{}",
        v.message
    );
}

// ---------------------------------------------------------------------------
// Harness self-checks at the integration level.
// ---------------------------------------------------------------------------

/// Bounded exhaustive mode fully covers the single-worker latch model
/// (2 threads) and agrees with PCT that it is clean.
#[test]
fn exhaustive_covers_single_worker_latch() {
    let report = Explorer::exhaustive(50_000).run(|| {
        let batch = Batch::new(1);
        let (tx, rx) = channel::<Chunk>();
        let worker = spawn(move || {
            let mut chunk = rx.recv().expect("worker receives its chunk");
            chunk.ok = true;
        });
        tx.send(Chunk::new(&batch)).expect("worker is alive");
        assert!(batch.wait(), "single clean chunk");
        drop(tx);
        worker.join().expect("worker exits cleanly");
    });
    report.assert_clean();
    assert!(report.complete, "2-thread latch model must be exhaustible");
    assert!(report.schedules > 1, "more than one interleaving explored");
}

/// A fixed seed reproduces the same failing schedule, trace and all —
/// the property that makes `Violation::schedule` a usable replay handle.
#[test]
fn bug_models_reproduce_deterministically() {
    let r1 = Explorer::pct(0xBAD_0001, 500).run(|| pool_latch_model(false));
    let r2 = Explorer::pct(0xBAD_0001, 500).run(|| pool_latch_model(false));
    let (v1, v2) = (
        r1.violation.expect("first run catches the bug"),
        r2.violation.expect("second run catches the bug"),
    );
    assert_eq!(v1.schedule, v2.schedule);
    assert_eq!(v1.trace, v2.trace);
}
