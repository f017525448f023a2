//! One shard: bounded per-tenant admission queues, a deficit-round-robin
//! master that coalesces requests into fused pool batches, and a fixed
//! trace ring of recent dispatches.
//!
//! The control shape mirrors AIFM's `Prefetcher` (SNIPPETS.md §1): the
//! shard master is the task-generating master thread, the shard's
//! [`EncodePool`] workers are the bounded slave pool, and [`TraceRing`]
//! plays the role of the 256-entry `traces_` ring.

use crate::{ServiceCounters, ServiceError};
use dialga::encoder::Dialga;
use dialga::pool::{DecodeJob, EncodePool, PoolStats};
use dialga_ec::EcError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use dialga_faultkit::FaultPlan;

/// Capacity of the per-shard dispatch trace ring.
const TRACE_CAP: usize = 256;

/// Largest request (payload bytes) a submitter serves itself on an idle
/// shard: `gen.wake_rtt_us` (≈ 4 µs, the hop it saves) × `gf.fused_gibs`
/// (13–22 GiB/s) ≈ 64 KiB, the payload whose compute equals one wake.
/// Above it the queue hands `submit` back before the work is done, so a
/// client that submits several large requests before waiting on any
/// overlaps them across shards. DESIGN §7.
const INLINE_MAX_BYTES: usize = 64 * 1024;

/// What a request resolves to.
pub(crate) type Reply = Result<Vec<Vec<u8>>, ServiceError>;

/// Where a request's reply goes.
pub(crate) enum Done {
    /// Queued request: the ticket's channel.
    Queued(mpsc::Sender<Reply>),
    /// Request served by its submitter, which reads the slot back as soon
    /// as its own `dispatch` returns — no channel is built.
    Inline(Arc<OnceLock<Reply>>),
}

impl Done {
    fn send(&self, reply: Reply) {
        // A ticket dropped before its reply arrives is not an error.
        let _delivered = match self {
            Done::Queued(tx) => tx.send(reply).is_ok(),
            Done::Inline(slot) => slot.set(reply).is_ok(),
        };
    }
}

/// Which operation a request (or trace entry) carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Stripe encode (k data blocks → m parity blocks).
    Encode,
    /// Full-stripe decode (restore the holes in a k+m shard vector).
    Decode,
    /// Single-shard repair (degraded read).
    Repair,
    /// Integrity scrub (syndrome verification of a full k+m stripe).
    Scrub,
}

impl OpKind {
    /// All operation classes, in the stable per-class reporting order.
    pub const ALL: [OpKind; 4] = [
        OpKind::Encode,
        OpKind::Decode,
        OpKind::Repair,
        OpKind::Scrub,
    ];

    /// Stable index of this class in per-class counter arrays.
    pub fn index(self) -> usize {
        match self {
            OpKind::Encode => 0,
            OpKind::Decode => 1,
            OpKind::Repair => 2,
            OpKind::Scrub => 3,
        }
    }

    /// Lowercase class name, as used in reports and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Encode => "encode",
            OpKind::Decode => "decode",
            OpKind::Repair => "repair",
            OpKind::Scrub => "scrub",
        }
    }
}

/// One entry of a shard's dispatch trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Service-wide submission sequence number.
    pub seq: u64,
    /// Submitting tenant.
    pub tenant: u32,
    /// Shard that dispatched the request.
    pub shard: usize,
    /// Operation kind.
    pub op: OpKind,
    /// Payload cost in bytes (DRR accounting unit).
    pub bytes: usize,
    /// Nanoseconds the request sat queued before dispatch.
    pub queued_ns: u64,
}

/// Owned request payload.
pub(crate) enum OpPayload {
    /// The stripe's k data blocks.
    Encode {
        /// Data blocks.
        data: Vec<Vec<u8>>,
    },
    /// The stripe's k+m shards with `None` holes.
    Decode {
        /// Shard vector.
        shards: Vec<Option<Vec<u8>>>,
    },
    /// Survivors plus the index to rebuild.
    Repair {
        /// Shard vector (holes allowed).
        shards: Vec<Option<Vec<u8>>>,
        /// Index to rebuild.
        target: usize,
    },
    /// The full `k + m` stripe to syndrome-verify.
    Scrub {
        /// All shards, data first then parity.
        shards: Vec<Vec<u8>>,
    },
}

impl OpPayload {
    pub(crate) fn kind(&self) -> OpKind {
        match self {
            OpPayload::Encode { .. } => OpKind::Encode,
            OpPayload::Decode { .. } => OpKind::Decode,
            OpPayload::Repair { .. } => OpKind::Repair,
            OpPayload::Scrub { .. } => OpKind::Scrub,
        }
    }

    /// Bytes of payload the request carries — the DRR cost unit.
    pub(crate) fn cost_bytes(&self) -> usize {
        match self {
            OpPayload::Encode { data } => data.iter().map(Vec::len).sum(),
            OpPayload::Decode { shards } | OpPayload::Repair { shards, .. } => {
                shards.iter().flatten().map(Vec::len).sum()
            }
            OpPayload::Scrub { shards } => shards.iter().map(Vec::len).sum(),
        }
    }
}

/// One admitted, not-yet-dispatched request.
pub(crate) struct Pending {
    pub(crate) seq: u64,
    pub(crate) tenant: u32,
    /// Payload bytes (precomputed, ≥ 1 so zero-byte requests still drain).
    pub(crate) cost: usize,
    pub(crate) op: OpPayload,
    pub(crate) submitted: Instant,
    pub(crate) deadline: Option<Duration>,
    pub(crate) done: Done,
}

/// Per-tenant FIFO plus its deficit-round-robin credit.
struct TenantQueue {
    tenant: u32,
    deficit: usize,
    pending: VecDeque<Pending>,
}

/// Queue state guarded by the shard lock. Invariant: every entry of
/// `tenants` has a non-empty `pending` (empty tenants are removed, which
/// also forfeits their deficit — classic DRR).
#[derive(Default)]
struct QueueState {
    tenants: Vec<TenantQueue>,
    rr_cursor: usize,
    /// Dispatches in flight: the master's batch, a submitter-run request.
    active: usize,
    /// Requests claimed by their submitter so far.
    inline: u64,
    paused: bool,
    shutdown: bool,
}

/// Fixed-capacity dispatch trace (oldest overwritten first).
struct TraceRing {
    slots: Vec<TraceEntry>,
    head: usize,
}

impl TraceRing {
    fn record(&mut self, entry: TraceEntry) {
        if self.slots.len() < TRACE_CAP {
            self.slots.push(entry);
            self.head = self.slots.len() % TRACE_CAP;
        } else {
            self.slots[self.head] = entry;
            self.head = (self.head + 1) % TRACE_CAP;
        }
    }

    /// Entries oldest → newest. When the ring has wrapped, `head` points
    /// at the oldest entry.
    fn snapshot(&self) -> Vec<TraceEntry> {
        if self.slots.len() < TRACE_CAP {
            self.slots.clone()
        } else {
            let (newest, oldest) = self.slots.split_at(self.head);
            let mut out = Vec::with_capacity(TRACE_CAP);
            out.extend_from_slice(oldest);
            out.extend_from_slice(newest);
            out
        }
    }
}

/// One shard: its pool, its bounded queue, and its trace ring.
pub(crate) struct Shard {
    index: usize,
    pool: EncodePool,
    queue: Mutex<QueueState>,
    cv: Condvar,
    /// Queued-request count, readable without the lock (shard selection
    /// and spill decisions poll it from other threads).
    occupancy: AtomicU64,
    /// High-water mark of `occupancy` since construction (the benchmark's
    /// `service.queue_peak`; advisory, `Relaxed`).
    occupancy_peak: AtomicU64,
    queue_depth: usize,
    counters: Arc<ServiceCounters>,
    traces: Mutex<TraceRing>,
}

impl Shard {
    pub(crate) fn new(
        index: usize,
        pool: EncodePool,
        queue_depth: usize,
        counters: Arc<ServiceCounters>,
    ) -> Shard {
        Shard {
            index,
            pool,
            queue: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            occupancy: AtomicU64::new(0),
            occupancy_peak: AtomicU64::new(0),
            queue_depth,
            counters,
            traces: Mutex::new(TraceRing {
                slots: Vec::new(),
                head: 0,
            }),
        }
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueState> {
        // Queue state stays structurally consistent under panic (plain
        // collections), so recover a poisoned guard rather than propagate.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current queued-request count (submitter-run requests never queue).
    pub(crate) fn occupancy(&self) -> usize {
        self.occupancy.load(Ordering::Relaxed) as usize
    }

    /// Requests served by their submitter since construction.
    pub(crate) fn inline(&self) -> u64 {
        self.lock_queue().inline
    }

    /// Deepest the admission queue has been since construction.
    pub(crate) fn queue_peak(&self) -> usize {
        self.occupancy_peak.load(Ordering::Relaxed) as usize
    }

    /// Claim an idle shard — not paused, not shutting down, nothing queued,
    /// nothing in flight — for one small request the calling thread will
    /// `dispatch` itself. Test and claim are one critical section: a second
    /// submitter arriving during the run sees a busy shard and queues.
    pub(crate) fn claim_idle(&self, cost: usize) -> Option<ActiveGuard<'_>> {
        if cost > INLINE_MAX_BYTES {
            return None;
        }
        let mut q = self.lock_queue();
        if q.paused || q.shutdown || q.active > 0 || !q.tenants.is_empty() {
            return None;
        }
        q.active += 1;
        q.inline += 1;
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        Some(ActiveGuard(self))
    }

    /// Admit one request, or return the observed depth when full (the
    /// caller converts that into [`ServiceError::Rejected`]).
    pub(crate) fn admit(&self, pending: Pending) -> Result<(), usize> {
        let mut q = self.lock_queue();
        if q.shutdown {
            return Err(self.queue_depth);
        }
        let occ = self.occupancy.load(Ordering::Relaxed) as usize;
        if occ >= self.queue_depth {
            return Err(occ);
        }
        match q.tenants.iter_mut().find(|t| t.tenant == pending.tenant) {
            Some(t) => t.pending.push_back(pending),
            None => {
                let mut fifo = VecDeque::new();
                let tenant = pending.tenant;
                fifo.push_back(pending);
                q.tenants.push(TenantQueue {
                    tenant,
                    deficit: 0,
                    pending: fifo,
                });
            }
        }
        // Counted where admission is decided: never after the completion.
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let now = self.occupancy.fetch_add(1, Ordering::Relaxed) + 1;
        self.occupancy_peak.fetch_max(now, Ordering::Relaxed);
        self.cv.notify_one();
        Ok(())
    }

    pub(crate) fn set_paused(&self, paused: bool) {
        let mut q = self.lock_queue();
        q.paused = paused;
        drop(q);
        self.cv.notify_all();
    }

    pub(crate) fn begin_shutdown(&self) {
        let mut q = self.lock_queue();
        q.shutdown = true;
        drop(q);
        self.cv.notify_all();
    }

    pub(crate) fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    pub(crate) fn traces(&self) -> Vec<TraceEntry> {
        self.traces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot()
    }

    #[cfg(feature = "fault-injection")]
    pub(crate) fn arm_faults(&self, plan: &FaultPlan) {
        self.pool.arm_faults(plan);
    }

    #[cfg(feature = "fault-injection")]
    pub(crate) fn disarm_faults(&self) {
        self.pool.disarm_faults();
    }

    /// Block until a batch is available (or `None` on shutdown with an
    /// empty queue — shutdown drains what was admitted first). While
    /// paused, nothing is picked unless the shard is also shutting down.
    /// A picked batch counts as in flight until its guard drops.
    fn next_batch(&self, limit: usize, quantum: usize) -> Option<(Vec<Pending>, ActiveGuard<'_>)> {
        let mut q = self.lock_queue();
        loop {
            if !q.paused || q.shutdown {
                let batch = drr_pick(&mut q, limit, quantum);
                if !batch.is_empty() {
                    self.occupancy
                        .fetch_sub(batch.len() as u64, Ordering::Relaxed);
                    q.active += 1;
                    return Some((batch, ActiveGuard(self)));
                }
            }
            if q.shutdown {
                return None;
            }
            q = self.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn record_trace(&self, pending: &Pending, waited: Duration) {
        let entry = TraceEntry {
            seq: pending.seq,
            tenant: pending.tenant,
            shard: self.index,
            op: pending.op.kind(),
            bytes: pending.cost,
            queued_ns: waited.as_nanos() as u64,
        };
        self.traces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(entry);
    }

    /// Complete one request: record its per-class service latency
    /// (submit → response) in the shared histogram, bump the completion
    /// tally, and deliver the result.
    fn complete(&self, class: OpKind, submitted: Instant, done: &Done, result: Reply) {
        self.counters.completed.fetch_add(1, Ordering::Release);
        self.counters
            .class(class)
            .record(submitted.elapsed().as_nanos() as u64);
        done.send(result);
    }

    /// Expire, trace, partition by operation, and dispatch one batch — on
    /// the master, or (a batch of one) on a submitter that holds
    /// [`Shard::claim_idle`]'s guard. Never with `queue` held (lint R8).
    pub(crate) fn dispatch(&self, coder: &Dialga, batch: Vec<Pending>) {
        let mut live = Vec::with_capacity(batch.len());
        for pending in batch {
            let waited = pending.submitted.elapsed();
            if pending.deadline.is_some_and(|d| waited > d) {
                self.counters.expired.fetch_add(1, Ordering::Release);
                pending.done.send(Err(ServiceError::Expired { waited }));
                continue;
            }
            self.record_trace(&pending, waited);
            live.push(pending);
        }
        if live.is_empty() {
            return;
        }
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .coalesced
            .fetch_add(live.len() as u64, Ordering::Relaxed);
        let mut encodes = Vec::new();
        let mut decodes = Vec::new();
        let mut repairs = Vec::new();
        let mut scrubs = Vec::new();
        for pending in live {
            match pending.op.kind() {
                OpKind::Encode => encodes.push(pending),
                OpKind::Decode => decodes.push(pending),
                OpKind::Repair => repairs.push(pending),
                OpKind::Scrub => scrubs.push(pending),
            }
        }
        self.dispatch_encodes(coder, encodes);
        self.dispatch_decodes(coder, decodes);
        self.dispatch_repairs(coder, repairs);
        self.dispatch_scrubs(coder, scrubs);
    }

    /// Fused encode dispatch; on batch failure, fall back to per-request
    /// submission so one bad stripe cannot poison its batch neighbours.
    fn dispatch_encodes(&self, coder: &Dialga, reqs: Vec<Pending>) {
        if reqs.is_empty() {
            return;
        }
        let mut dones = Vec::with_capacity(reqs.len());
        let mut datas: Vec<Vec<Vec<u8>>> = Vec::with_capacity(reqs.len());
        for pending in reqs {
            let Pending {
                op,
                done,
                submitted,
                ..
            } = pending;
            if let OpPayload::Encode { data } = op {
                datas.push(data);
                dones.push((done, submitted));
            }
        }
        let fused = {
            let data_refs: Vec<Vec<&[u8]>> = datas
                .iter()
                .map(|d| d.iter().map(Vec::as_slice).collect())
                .collect();
            let stripes: Vec<&[&[u8]]> = data_refs.iter().map(Vec::as_slice).collect();
            self.pool.encode_batch_vec(coder, &stripes)
        };
        if let Ok(parities) = fused {
            for ((done, submitted), parity) in dones.into_iter().zip(parities) {
                self.complete(OpKind::Encode, submitted, &done, Ok(parity));
            }
        } else {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            for ((done, submitted), data) in dones.into_iter().zip(datas) {
                let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                let result = self
                    .pool
                    .encode_vec(coder, &refs)
                    .map_err(ServiceError::Coding);
                self.complete(OpKind::Encode, submitted, &done, result);
            }
        }
    }

    /// Fused decode dispatch with the same per-request fallback.
    fn dispatch_decodes(&self, coder: &Dialga, reqs: Vec<Pending>) {
        if reqs.is_empty() {
            return;
        }
        let mut dones = Vec::with_capacity(reqs.len());
        let mut vecs: Vec<Vec<Option<Vec<u8>>>> = Vec::with_capacity(reqs.len());
        for pending in reqs {
            let Pending {
                op,
                done,
                submitted,
                ..
            } = pending;
            if let OpPayload::Decode { shards } = op {
                vecs.push(shards);
                dones.push((done, submitted));
            }
        }
        let fused_ok = {
            let mut jobs: Vec<DecodeJob<'_>> = vecs
                .iter_mut()
                .map(|s| DecodeJob {
                    shards: s.as_mut_slice(),
                })
                .collect();
            self.pool.decode_batch(coder, &mut jobs).is_ok()
        };
        if fused_ok {
            for ((done, submitted), restored) in dones.into_iter().zip(vecs) {
                let full: Vec<Vec<u8>> = restored
                    .into_iter()
                    .map(Option::unwrap_or_default)
                    .collect();
                self.complete(OpKind::Decode, submitted, &done, Ok(full));
            }
        } else {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            for ((done, submitted), mut shards) in dones.into_iter().zip(vecs) {
                let result = self
                    .pool
                    .decode(coder, &mut shards)
                    .map(|()| {
                        shards
                            .into_iter()
                            .map(Option::unwrap_or_default)
                            .collect::<Vec<Vec<u8>>>()
                    })
                    .map_err(ServiceError::Coding);
                self.complete(OpKind::Decode, submitted, &done, result);
            }
        }
    }

    /// Repairs run per-request (the composed-coefficient fast path is
    /// already a single fused kernel pass per stripe).
    fn dispatch_repairs(&self, coder: &Dialga, reqs: Vec<Pending>) {
        for pending in reqs {
            let Pending {
                op,
                done,
                submitted,
                ..
            } = pending;
            if let OpPayload::Repair { shards, target } = op {
                let result = self
                    .pool
                    .repair(coder, &shards, target)
                    .map(|rebuilt| vec![rebuilt])
                    .map_err(ServiceError::Coding);
                self.complete(OpKind::Repair, submitted, &done, result);
            }
        }
    }

    /// Scrubs run per-request as a pool verify (the parity re-encoded
    /// across the executors, then compared). A clean stripe resolves to an
    /// empty payload; on a mismatch [`Dialga::scrub`] localizes, and the
    /// request resolves to [`ServiceError::Coding`] wrapping
    /// `EcError::Corrupt` naming the corrupt shards (the mismatching
    /// parity rows when the corruption is beyond localizing).
    fn dispatch_scrubs(&self, coder: &Dialga, reqs: Vec<Pending>) {
        let k = coder.params().k;
        for pending in reqs {
            let Pending {
                op,
                done,
                submitted,
                ..
            } = pending;
            if let OpPayload::Scrub { shards } = op {
                let refs: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
                let (data, parity) = refs.split_at(k.min(refs.len()));
                let result = match self.pool.verify(coder, data, parity) {
                    Ok(()) => Ok(Vec::new()),
                    Err(EcError::Corrupt { .. }) => match coder.scrub(&refs) {
                        Ok(shards) => Err(EcError::Corrupt { shards }),
                        Err(e) => Err(e),
                    },
                    Err(e) => Err(e),
                }
                .map_err(ServiceError::Coding);
                self.complete(OpKind::Scrub, submitted, &done, result);
            }
        }
    }
}

/// One deficit-round-robin pick: sweep tenants from the persistent
/// cursor, crediting `quantum` bytes per visit and draining each tenant's
/// FIFO while its head fits the deficit, until `limit` requests are
/// gathered. If a full sweep yields nothing (every head larger than its
/// tenant's deficit), sweep again — deficits grow by `quantum` per pass,
/// so progress is guaranteed while any tenant has pending work.
fn drr_pick(q: &mut QueueState, limit: usize, quantum: usize) -> Vec<Pending> {
    let mut out = Vec::new();
    while out.is_empty() && !q.tenants.is_empty() {
        let mut visits = q.tenants.len();
        while visits > 0 && out.len() < limit && !q.tenants.is_empty() {
            if q.rr_cursor >= q.tenants.len() {
                q.rr_cursor = 0;
            }
            let t = &mut q.tenants[q.rr_cursor];
            t.deficit = t.deficit.saturating_add(quantum);
            while out.len() < limit {
                let fits = t.pending.front().is_some_and(|p| p.cost <= t.deficit);
                if !fits {
                    break;
                }
                if let Some(p) = t.pending.pop_front() {
                    t.deficit = t.deficit.saturating_sub(p.cost);
                    out.push(p);
                }
            }
            if t.pending.is_empty() {
                // Forfeit the deficit with the slot (classic DRR).
                q.tenants.remove(q.rr_cursor);
            } else {
                q.rr_cursor += 1;
            }
            visits -= 1;
        }
        if out.len() >= limit {
            break;
        }
    }
    out
}

/// The shard master: the AIFM-style task-generating loop. Blocks for
/// work, picks a DRR batch, dispatches it fused, repeats; exits when the
/// shard shuts down and its queue has drained.
pub(crate) fn master_loop(shard: Arc<Shard>, coder: Arc<Dialga>, limit: usize, quantum: usize) {
    while let Some((batch, _active)) = shard.next_batch(limit, quantum) {
        shard.dispatch(&coder, batch);
    }
}

/// One in-flight dispatch on a shard. Released on drop, so a panic inside
/// `dispatch` cannot leave the shard "never idle again".
pub(crate) struct ActiveGuard<'a>(&'a Shard);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.lock_queue().active -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(tenant: u32, seq: u64, cost: usize) -> Pending {
        // The receiver drops immediately; DRR tests never complete
        // requests, so nothing is ever sent on `tx`.
        let (tx, _rx) = mpsc::channel();
        let done = Done::Queued(tx);
        Pending {
            seq,
            tenant,
            cost,
            op: OpPayload::Encode {
                data: vec![vec![0u8; cost]],
            },
            submitted: Instant::now(),
            deadline: None,
            done,
        }
    }

    fn queue_of(entries: &[(u32, u64, usize)]) -> QueueState {
        let mut q = QueueState::default();
        for &(tenant, seq, cost) in entries {
            match q.tenants.iter_mut().find(|t| t.tenant == tenant) {
                Some(t) => t.pending.push_back(pending(tenant, seq, cost)),
                None => {
                    let mut fifo = VecDeque::new();
                    fifo.push_back(pending(tenant, seq, cost));
                    q.tenants.push(TenantQueue {
                        tenant,
                        deficit: 0,
                        pending: fifo,
                    });
                }
            }
        }
        q
    }

    #[test]
    fn drr_interleaves_equal_cost_tenants() {
        // 6 requests each for tenants 1 and 2, all cost 100; quantum 100
        // admits exactly one per visit, so picks alternate tenants.
        let mut entries = Vec::new();
        for i in 0..6u64 {
            entries.push((1u32, i, 100usize));
            entries.push((2u32, 100 + i, 100usize));
        }
        let mut q = queue_of(&entries);
        let mut order = Vec::new();
        loop {
            let batch = drr_pick(&mut q, 4, 100);
            if batch.is_empty() {
                break;
            }
            order.extend(batch.iter().map(|p| p.tenant));
        }
        assert_eq!(order.len(), 12);
        for pair in order.chunks(2) {
            assert_ne!(
                pair[0] == 1,
                pair[1] == 1,
                "each DRR round serves both tenants once: {order:?}"
            );
        }
    }

    #[test]
    fn drr_drains_head_larger_than_quantum() {
        // A request 10x the quantum must still drain (deficit accumulates
        // across sweeps) rather than wedging the shard.
        let mut q = queue_of(&[(7, 0, 1000)]);
        let batch = drr_pick(&mut q, 4, 100);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].tenant, 7);
        assert!(q.tenants.is_empty());
    }

    #[test]
    fn drr_favours_light_tenant_over_saturator() {
        // Tenant 1 queues 8 MiB-scale requests, tenant 2 one small one;
        // tenant 2's request leaves within the first DRR round instead of
        // waiting behind the saturator's whole backlog.
        let mut entries: Vec<(u32, u64, usize)> = (0..8u64).map(|i| (1u32, i, 1 << 20)).collect();
        entries.push((2, 99, 4096));
        let mut q = queue_of(&entries);
        let first = drr_pick(&mut q, 16, 1 << 20);
        let pos_small = first.iter().position(|p| p.tenant == 2);
        assert!(
            pos_small.is_some_and(|pos| pos <= 1),
            "light tenant must be served in the first round"
        );
    }

    /// Record `n` sequential entries into a fresh ring and check the
    /// snapshot invariant: the last `min(n, TRACE_CAP)` entries, oldest →
    /// newest. Exercised at every fill regime (empty, partial, exact
    /// fill, one-past, multiple wraps) — the exact-fill boundary is where
    /// `head` bookkeeping (`slots.len() % TRACE_CAP` → 0) would go wrong.
    fn check_ring_order(n: u64) {
        let mut ring = TraceRing {
            slots: Vec::new(),
            head: 0,
        };
        for seq in 0..n {
            ring.record(TraceEntry {
                seq,
                tenant: (seq % 7) as u32,
                shard: 0,
                op: OpKind::ALL[(seq % 4) as usize],
                bytes: 1,
                queued_ns: seq,
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), (n as usize).min(TRACE_CAP), "n={n}");
        let oldest = n.saturating_sub(TRACE_CAP as u64);
        for (i, entry) in snap.iter().enumerate() {
            assert_eq!(entry.seq, oldest + i as u64, "n={n} position {i}");
        }
    }

    #[test]
    fn trace_ring_snapshot_order_across_fill_boundaries() {
        let cap = TRACE_CAP as u64;
        // The exact boundaries the satellite audit names, then random fill
        // counts across all three regimes.
        for n in [0, 1, cap - 1, cap, cap + 1, 2 * cap, 2 * cap + 7] {
            check_ring_order(n);
        }
        dialga_testkit::run_cases(32, |rng| {
            check_ring_order(rng.below(3 * cap));
        });
    }

    #[test]
    fn trace_ring_wraps_keeping_newest() {
        let mut ring = TraceRing {
            slots: Vec::new(),
            head: 0,
        };
        for seq in 0..(TRACE_CAP as u64 + 50) {
            ring.record(TraceEntry {
                seq,
                tenant: 0,
                shard: 0,
                op: OpKind::Encode,
                bytes: 1,
                queued_ns: 0,
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), TRACE_CAP);
        assert_eq!(snap[0].seq, 50, "oldest surviving entry");
        assert_eq!(snap[TRACE_CAP - 1].seq, TRACE_CAP as u64 + 49);
        for w in snap.windows(2) {
            assert_eq!(w[0].seq + 1, w[1].seq, "snapshot is oldest -> newest");
        }
    }
}
