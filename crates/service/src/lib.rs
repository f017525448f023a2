#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! `dialga-service` — a sharded stripe-service front end over the DIALGA
//! encode pool.
//!
//! This crate is the serving layer that turns many independent clients'
//! stripe traffic into pool submissions. The dispatcher follows the master/slave `Prefetcher` organisation of AIFM
//! (SNIPPETS.md §1): per shard, one **master** thread turns queued client
//! requests into fused batch tasks, and the shard's [`EncodePool`] workers
//! are the bounded **slave** pool that executes them. A fixed 256-entry
//! trace ring per shard (AIFM's `traces_[256]`) records recent dispatches
//! for observability.
//!
//! Architecture, per shard:
//!
//! * its **own** [`EncodePool`] — the NUMA-style worker partitioning of the
//!   paper's multi-instance deployments; every chunk runs the service
//!   coder's schedule;
//! * a **bounded admission queue** ([`ServiceConfig::queue_depth`]) of
//!   per-tenant FIFOs; [`StripeService::submit_encode`] and friends return
//!   [`ServiceError::Rejected`] when the shard is full instead of blocking
//!   unboundedly, and requests that outlive their deadline complete with
//!   [`ServiceError::Expired`];
//! * **deficit round-robin** over tenants (quantum
//!   [`ServiceConfig::quantum_bytes`]), so a tenant saturating the queue
//!   cannot starve a light tenant sharing its shard;
//! * **coalescing**: the master drains up to
//!   [`ServiceConfig::batch_limit`] requests per sweep and dispatches them
//!   as *fused* pool batches (`encode_batch_vec`/`decode_batch`), amortising
//!   dispatch overhead exactly where small stripes lose it;
//! * **who dispatches**: a request of at most 64 KiB admitted to an *idle*
//!   shard (unpaused, nothing queued or in flight) is dispatched by the
//!   thread that submitted it — same code, no thread hop, a ticket that is
//!   already complete. It runs the master's dispatch over a batch of one on
//!   its own stack, and the reply comes back in the request itself, so the
//!   op allocates its reply (and a decode's or repair's plan) and nothing
//!   else. Everything else is the master's.
//!
//! Shard selection hashes `(tenant, seq)`; when the hashed shard's queue
//! occupancy crosses three quarters of [`ServiceConfig::queue_depth`], the
//! request spills to the neighbouring shard if it is less loaded
//! (load-aware admission in the spirit of DSPatch's bandwidth-aware dual
//! policies).

mod shard;

pub use shard::{OpKind, TraceEntry};

use dialga::encoder::Dialga;
use dialga::pool::{EncodePool, PoolStats};
use dialga_ec::EcError;
use dialga_store::{PmImage, RecoveryReport, StoreError, StripeStore};
use shard::{Done, OpPayload, Pending, Reply, Shard};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use dialga_faultkit::FaultPlan;

/// Configuration for a [`StripeService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards (each with its own pool); at least 1.
    pub shards: usize,
    /// Encode-pool workers per shard; at least 1.
    pub threads_per_shard: usize,
    /// Data blocks per stripe.
    pub k: usize,
    /// Parity blocks per stripe.
    pub m: usize,
    /// Read by nothing: requests carry their own block size. The field
    /// stays only because the benchmark still sets it; ROADMAP.md item 1e
    /// deletes that write, and then this field.
    pub block_bytes: u64,
    /// Maximum queued requests per shard; admission beyond this returns
    /// [`ServiceError::Rejected`].
    pub queue_depth: usize,
    /// Maximum requests coalesced into one fused pool dispatch.
    pub batch_limit: usize,
    /// Deficit-round-robin quantum in bytes added per tenant visit.
    pub quantum_bytes: usize,
}

/// Queue-occupancy fraction of [`ServiceConfig::queue_depth`] above which
/// shard selection spills to the (less-loaded) neighbour shard.
const SPILL_OCCUPANCY: f64 = 0.75;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            threads_per_shard: 2,
            k: 8,
            m: 2,
            block_bytes: 64 * 1024,
            queue_depth: 256,
            batch_limit: 16,
            quantum_bytes: 1 << 20,
        }
    }
}

/// Errors surfaced by the service, either at submission or through a
/// [`Ticket`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The target shard's admission queue was full at submit time.
    Rejected {
        /// Shard whose queue was full.
        shard: usize,
        /// Its queue depth at the time.
        depth: usize,
    },
    /// The request sat queued past its deadline and was dropped at
    /// dispatch time.
    Expired {
        /// How long the request had been queued when it was dropped.
        waited: Duration,
    },
    /// The service is still recovering its stripe store after a crash;
    /// retry once [`StripeService::wait_recovered`] reports ready. Pure
    /// backpressure — recovery never blocks a submitting client.
    Recovering,
    /// The coding layer rejected or failed the request.
    Coding(EcError),
    /// The service shut down before the request completed.
    Disconnected,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Rejected { shard, depth } => {
                write!(f, "shard {shard} admission queue full ({depth} queued)")
            }
            ServiceError::Expired { waited } => {
                write!(f, "request expired after {} µs queued", waited.as_micros())
            }
            ServiceError::Recovering => {
                write!(f, "service is recovering its stripe store; retry shortly")
            }
            ServiceError::Coding(e) => write!(f, "coding error: {e}"),
            ServiceError::Disconnected => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EcError> for ServiceError {
    fn from(e: EcError) -> Self {
        ServiceError::Coding(e)
    }
}

/// Handle to one submitted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    reply: TicketReply,
    seq: u64,
    shard: usize,
}

/// Where a ticket finds its result (handed out exactly once either way).
#[derive(Debug)]
enum TicketReply {
    /// Served by the submitter: complete before `submit_*` returned.
    Ready(RefCell<Option<Reply>>),
    Queued(mpsc::Receiver<Reply>),
}

impl Ticket {
    /// Block until the request completes. Payload by operation:
    /// encode → the `m` parity blocks; decode → all `k + m` restored
    /// shards; repair → the single rebuilt shard; scrub → an empty vector
    /// when the stripe is clean.
    pub fn wait(self) -> Result<Vec<Vec<u8>>, ServiceError> {
        match self.reply {
            TicketReply::Ready(cell) => cell.into_inner(),
            TicketReply::Queued(rx) => rx.recv().ok(),
        }
        .unwrap_or(Err(ServiceError::Disconnected))
    }

    /// Like [`Ticket::wait`] with a timeout; `None` if still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<Vec<u8>>, ServiceError>> {
        match &self.reply {
            TicketReply::Ready(cell) => {
                Some(cell.take().unwrap_or(Err(ServiceError::Disconnected)))
            }
            TicketReply::Queued(rx) => match rx.recv_timeout(timeout) {
                Ok(r) => Some(r),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::Disconnected)),
            },
        }
    }

    /// Service-wide submission sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Shard the request was admitted to (after any spill).
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// Number of latency-histogram buckets: two per power-of-two octave over
/// the u64 nanosecond range (`2 * 63 + 1 = 127` reachable indices).
const LAT_BUCKETS: usize = 128;

/// Lock-free log-scale latency histogram: two buckets per octave, pure
/// `Relaxed` tallies by the same protocol as the pool counters (lint R9's
/// `counter` role).
/// Quantiles resolve to the *upper bound* of the crossing bucket, so a
/// reported p99 over-estimates by at most one half-octave (≤ 50 %) —
/// ample resolution for the per-class quantiles [`StripeService::stats`]
/// reports, at zero cost on the completion path.
pub(crate) struct LatencyHist {
    bucket: [AtomicU64; LAT_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            bucket: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHist {
    /// Bucket index for a latency sample.
    fn index(ns: u64) -> usize {
        if ns < 2 {
            return 0;
        }
        let log = 63 - ns.leading_zeros() as usize;
        let half = ((ns >> (log - 1)) & 1) as usize;
        (2 * log + half - 1).min(LAT_BUCKETS - 1)
    }

    /// Exclusive upper bound (ns) of a bucket — what quantiles resolve to.
    fn upper_ns(idx: usize) -> u64 {
        if idx == 0 {
            return 2;
        }
        let log = idx.div_ceil(2);
        let half = ((idx + 1) & 1) as u64;
        (3 + half) << (log - 1)
    }

    pub(crate) fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.bucket[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Quantile in nanoseconds; 0.0 when no samples were recorded. The
    /// racy sweep may see `count` ahead of the buckets — the max-latency
    /// fallback keeps the answer sane in that window.
    fn quantile_ns(&self, q: f64) -> f64 {
        let n = self.count.load(Ordering::Relaxed);
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, bucket) in self.bucket.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::upper_ns(i) as f64;
            }
        }
        self.max_ns.load(Ordering::Relaxed) as f64
    }

    fn snapshot(&self, op: &'static str) -> OpClassStats {
        let count = self.count.load(Ordering::Relaxed);
        let total_ns = self.total_ns.load(Ordering::Relaxed);
        let to_us = |ns: f64| ns / 1_000.0;
        OpClassStats {
            op,
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                to_us(total_ns as f64 / count as f64)
            },
            p50_us: to_us(self.quantile_ns(0.50)),
            p99_us: to_us(self.quantile_ns(0.99)),
            p999_us: to_us(self.quantile_ns(0.999)),
            max_us: to_us(self.max_ns.load(Ordering::Relaxed) as f64),
        }
    }
}

/// Per-operation-class service-latency summary (submit → response,
/// including queueing). Microsecond floats straight from the log-scale
/// histogram: quantiles are bucket upper bounds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpClassStats {
    /// Class name (`"encode"`, `"decode"`, `"repair"`, `"scrub"`).
    pub op: &'static str,
    /// Completions recorded for this class.
    pub count: u64,
    /// Mean service latency, µs.
    pub mean_us: f64,
    /// Median, µs (bucket upper bound).
    pub p50_us: f64,
    /// 99th percentile, µs (bucket upper bound).
    pub p99_us: f64,
    /// 99.9th percentile, µs (bucket upper bound).
    pub p999_us: f64,
    /// Largest single sample, µs (exact).
    pub max_us: f64,
}

/// Service-wide counters. Pure monotonic tallies: `Relaxed` by the same
/// protocol as the pool's [`PoolStats`] counters (lint R9) — except the
/// retirement tallies `completed` / `expired`: `Release` / `Acquire` (R9's
/// latch shape), so `stats()` never shows a request retired but not submitted.
#[derive(Default)]
pub(crate) struct ServiceCounters {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) spilled: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) coalesced: AtomicU64,
    pub(crate) fallbacks: AtomicU64,
    /// One latency histogram per [`OpKind`], indexed by [`OpKind::index`].
    pub(crate) classes: [LatencyHist; 4],
}

impl ServiceCounters {
    pub(crate) fn class(&self, kind: OpKind) -> &LatencyHist {
        &self.classes[kind.index()]
    }
}

/// Read-only snapshot of service activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests admitted (excludes rejections).
    pub submitted: u64,
    /// Responses delivered (success or coding error; excludes expiries).
    pub completed: u64,
    /// Submissions refused because the shard queue was full.
    pub rejected: u64,
    /// Requests dropped at dispatch because their deadline had passed.
    pub expired: u64,
    /// Requests admitted to the neighbour shard by load-aware spill.
    pub spilled: u64,
    /// Fused batches dispatched to shard pools (an inline run is one).
    pub batches: u64,
    /// Requests carried by those batches (coalescing ratio =
    /// `coalesced / batches`).
    pub coalesced: u64,
    /// Batches that failed as a unit and were re-run request-by-request
    /// to isolate the failing stripe.
    pub fallbacks: u64,
    /// Requests dispatched by the thread that submitted them (idle shard,
    /// small payload), each a batch of one unless it expired on the spot.
    pub inline: u64,
    /// Current queued requests per shard.
    pub shard_occupancy: Vec<usize>,
    /// High-water mark of *queued* requests per shard (inline runs never queue).
    pub shard_queue_peak: Vec<usize>,
    /// Per-op-class completion latency (submit → response), one entry per
    /// [`OpKind`] in [`OpKind::ALL`] order.
    pub classes: Vec<OpClassStats>,
}

/// A [`StripeStore`] over any boxed backing image — what
/// [`StripeService::with_store`] recovers and owns.
pub type BoxedStore = StripeStore<Box<dyn PmImage + Send>>;

/// The construction-time recovery hand-off between the recovery thread
/// and [`StripeService::wait_recovered`].
struct Recovery {
    /// The recovered store (or the recovery failure). The recovery thread
    /// publishes it and clears the service's `recovering` flag under this
    /// lock, then notifies `ready`.
    recovered: Mutex<Option<Result<BoxedStore, StoreError>>>,
    ready: Condvar,
}

/// The sharded stripe-service front end. See the crate docs for the
/// architecture; construct with [`StripeService::new`], submit with
/// [`StripeService::submit_encode`] /
/// [`StripeService::submit_decode`] / [`StripeService::submit_repair`].
pub struct StripeService {
    cfg: ServiceConfig,
    shards: Vec<Arc<Shard>>,
    masters: Vec<JoinHandle<()>>,
    coder: Arc<Dialga>,
    seq: AtomicU64,
    counters: Arc<ServiceCounters>,
    /// True while the construction-time store recovery is still running.
    /// Store-`Release` by the recovery thread after the result is
    /// published, load-`Acquire` on the submit path (a `flag` in lint R9's
    /// role table): a submitter that observes `false` also observes the
    /// recovered store behind `recovery`.
    recovering: Arc<AtomicBool>,
    recovery: Arc<Recovery>,
}

impl StripeService {
    /// Build the service: `cfg.shards` shards, each with its own
    /// [`EncodePool`], plus one master thread per shard running admission →
    /// DRR → fused dispatch.
    pub fn new(cfg: ServiceConfig) -> Result<StripeService, EcError> {
        let mut cfg = cfg;
        cfg.shards = cfg.shards.max(1);
        cfg.threads_per_shard = cfg.threads_per_shard.max(1);
        cfg.queue_depth = cfg.queue_depth.max(1);
        cfg.batch_limit = cfg.batch_limit.max(1);
        cfg.quantum_bytes = cfg.quantum_bytes.max(1);
        let coder = Arc::new(Dialga::new(cfg.k, cfg.m)?);
        let counters = Arc::new(ServiceCounters::default());
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut masters = Vec::with_capacity(cfg.shards);
        for index in 0..cfg.shards {
            let pool = EncodePool::new(cfg.threads_per_shard);
            let shard = Arc::new(Shard::new(
                index,
                pool,
                cfg.queue_depth,
                Arc::clone(&counters),
            ));
            let master_shard = Arc::clone(&shard);
            let master_coder = Arc::clone(&coder);
            let (batch_limit, quantum) = (cfg.batch_limit, cfg.quantum_bytes);
            // Mirrors pool construction: a host that cannot spawn a thread
            // cannot serve anyway, and there is no Result channel at
            // construction.
            #[allow(clippy::expect_used, reason = "unrecoverable at service build")]
            let handle = std::thread::Builder::new()
                .name(format!("dialga-svc-{index}"))
                .spawn(move || shard::master_loop(master_shard, master_coder, batch_limit, quantum))
                .expect("spawn shard master");
            shards.push(shard);
            masters.push(handle);
        }
        Ok(StripeService {
            cfg,
            shards,
            masters,
            coder,
            seq: AtomicU64::new(0),
            counters,
            recovering: Arc::new(AtomicBool::new(false)),
            recovery: Arc::new(Recovery {
                recovered: Mutex::new(None),
                ready: Condvar::new(),
            }),
        })
    }

    /// Build the service *over a dirty stripe store*: the shards come up
    /// immediately, a dedicated thread runs [`StripeStore::open`]
    /// (rollback/forward + boot scrub) on `image`, and until it finishes
    /// every submission is refused with [`ServiceError::Recovering`] —
    /// backpressure, never blocking. Wait with
    /// [`wait_recovered`](Self::wait_recovered); inspect the outcome with
    /// [`recovery_report`](Self::recovery_report) and reach the store
    /// through [`with_store_mut`](Self::with_store_mut).
    pub fn with_store(
        cfg: ServiceConfig,
        image: Box<dyn PmImage + Send>,
    ) -> Result<StripeService, EcError> {
        let mut svc = StripeService::new(cfg)?;
        svc.recovering.store(true, Ordering::Release);
        let recovering = Arc::clone(&svc.recovering);
        let recovery = Arc::clone(&svc.recovery);
        // Mirrors the shard-master spawn below: no thread, no service.
        #[allow(clippy::expect_used, reason = "unrecoverable at service build")]
        let handle = std::thread::Builder::new()
            .name("dialga-svc-recover".to_string())
            .spawn(move || {
                let result = StripeStore::open(image);
                let mut recovered = recovery
                    .recovered
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                *recovered = Some(result);
                // Release-publish *after* the store is visible behind the
                // mutex, so a submitter seeing `false` finds it there; and
                // while holding it, so a waiter that checked the flag under
                // the lock is already waiting when `ready` is notified.
                recovering.store(false, Ordering::Release);
                drop(recovered);
                recovery.ready.notify_all();
            })
            .expect("spawn recovery thread");
        svc.masters.push(handle);
        Ok(svc)
    }

    /// True while construction-time store recovery is still running.
    pub fn recovering(&self) -> bool {
        self.recovering.load(Ordering::Acquire)
    }

    /// Block until recovery finishes or `timeout` elapses; returns `true`
    /// once the service is out of the recovering state. A plain
    /// [`StripeService::new`] service is never recovering.
    pub fn wait_recovered(&self, timeout: Duration) -> bool {
        let recovered = self
            .recovery
            .recovered
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let waited = self
            .recovery
            .ready
            .wait_timeout_while(recovered, timeout, |_| self.recovering());
        !waited.unwrap_or_else(PoisonError::into_inner).1.timed_out()
    }

    /// What recovery found and did — `None` while still recovering, if
    /// the service has no store, or if recovery failed (see
    /// [`recovery_error`](Self::recovery_error)).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        if self.recovering() {
            return None;
        }
        let guard = self
            .recovery
            .recovered
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(Ok(store)) => Some(store.recovery_report().clone()),
            _ => None,
        }
    }

    /// The recovery failure, rendered — `None` while recovering, when
    /// there is no store, or when recovery succeeded.
    pub fn recovery_error(&self) -> Option<String> {
        if self.recovering() {
            return None;
        }
        let guard = self
            .recovery
            .recovered
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(Err(e)) => Some(e.to_string()),
            _ => None,
        }
    }

    /// Run `f` over the recovered store. `None` while recovering, when
    /// the service has no store, or when recovery failed.
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut BoxedStore) -> R) -> Option<R> {
        if self.recovering() {
            return None;
        }
        let mut guard = self
            .recovery
            .recovered
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match guard.as_mut() {
            Some(Ok(store)) => Some(f(store)),
            _ => None,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The service configuration (normalised: minimums applied).
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Submit a stripe encode: `data` is the stripe's `k` equal-length
    /// data blocks; the ticket resolves to the `m` parity blocks.
    ///
    /// Like every `submit_*`: a small request on an idle shard runs on the
    /// calling thread before this returns (crate docs, "who dispatches");
    /// the call never waits for *other* requests.
    pub fn submit_encode(
        &self,
        tenant: u32,
        data: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        if data.len() != self.cfg.k {
            return Err(ServiceError::Coding(EcError::BlockCount {
                expected: self.cfg.k,
                got: data.len(),
            }));
        }
        self.submit(tenant, OpPayload::Encode { data }, deadline)
    }

    /// Submit a stripe decode: `shards` is the full `k + m` shard vector
    /// with `None` holes; the ticket resolves to all `k + m` restored
    /// shards.
    pub fn submit_decode(
        &self,
        tenant: u32,
        shards: Vec<Option<Vec<u8>>>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        let want = self.cfg.k + self.cfg.m;
        if shards.len() != want {
            return Err(ServiceError::Coding(EcError::BlockCount {
                expected: want,
                got: shards.len(),
            }));
        }
        self.submit(tenant, OpPayload::Decode { shards }, deadline)
    }

    /// Submit a single-shard repair (degraded read): rebuild shard
    /// `target` from the survivors in `shards`; the ticket resolves to a
    /// one-element vector holding the rebuilt shard.
    pub fn submit_repair(
        &self,
        tenant: u32,
        shards: Vec<Option<Vec<u8>>>,
        target: usize,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        let want = self.cfg.k + self.cfg.m;
        let counts = |got| {
            ServiceError::Coding(EcError::BlockCount {
                expected: want,
                got,
            })
        };
        // The count first, then the target: each error names its own number.
        if shards.len() != want {
            return Err(counts(shards.len()));
        }
        if target >= want {
            return Err(counts(target));
        }
        self.submit(tenant, OpPayload::Repair { shards, target }, deadline)
    }

    /// Submit an integrity scrub: `shards` is the full `k + m` stripe
    /// (data first, then parity). A clean stripe resolves to an empty
    /// vector; corruption resolves to
    /// [`ServiceError::Coding`]`(`[`EcError::Corrupt`]`)` naming the
    /// corrupt shards as `Dialga::scrub` localizes them (the mismatching
    /// parity rows when the corruption is beyond localizing).
    pub fn submit_scrub(
        &self,
        tenant: u32,
        shards: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        let want = self.cfg.k + self.cfg.m;
        if shards.len() != want {
            return Err(ServiceError::Coding(EcError::BlockCount {
                expected: want,
                got: shards.len(),
            }));
        }
        self.submit(tenant, OpPayload::Scrub { shards }, deadline)
    }

    fn submit(
        &self,
        tenant: u32,
        op: OpPayload,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        if self.recovering.load(Ordering::Acquire) {
            return Err(ServiceError::Recovering);
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let (shard_idx, spilled) = self.pick_shard(tenant, seq);
        let shard = &self.shards[shard_idx];
        let cost = op.cost_bytes().max(1);
        let submitted = Instant::now();
        let pending = |done| Pending {
            seq,
            tenant,
            cost,
            op,
            submitted,
            deadline,
            done,
        };
        let reply = if let Some(_active) = shard.claim_idle(cost) {
            // This thread is the dispatcher: the master's own body, a batch
            // of one on this stack; `_active` releases the shard even if it
            // unwinds. The reply comes back in the request itself.
            let mut one = [pending(Done::Inline(None))];
            shard.dispatch(&self.coder, &mut one);
            let [Pending { done, .. }] = one;
            let reply = match done {
                Done::Inline(reply) => reply,
                Done::Queued(_) => None,
            };
            TicketReply::Ready(RefCell::new(reply))
        } else {
            let (tx, rx) = mpsc::channel();
            if let Err(depth) = shard.admit(pending(Done::Queued(tx))) {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Rejected {
                    shard: shard_idx,
                    depth,
                });
            }
            TicketReply::Queued(rx)
        };
        if spilled {
            self.counters.spilled.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Ticket {
            reply,
            seq,
            shard: shard_idx,
        })
    }

    /// Hash `(tenant, seq)` to a shard; spill to the neighbour when the
    /// hashed shard is above the occupancy threshold and the neighbour is
    /// strictly less loaded.
    fn pick_shard(&self, tenant: u32, seq: u64) -> (usize, bool) {
        let n = self.shards.len();
        let primary = (mix64(((tenant as u64) << 32) ^ seq) % n as u64) as usize;
        if n == 1 {
            return (primary, false);
        }
        let threshold = ((self.cfg.queue_depth as f64) * SPILL_OCCUPANCY) as usize;
        let occ = self.shards[primary].occupancy();
        if occ > threshold {
            let neighbour = (primary + 1) % n;
            if self.shards[neighbour].occupancy() < occ {
                return (neighbour, true);
            }
        }
        (primary, false)
    }

    /// Pause or resume dispatch on every shard master. While paused,
    /// admission still runs (the queue fills and then rejects), but no
    /// batch leaves the queues — the deterministic substrate for the
    /// backpressure and fairness tests.
    pub fn set_paused(&self, paused: bool) {
        for shard in &self.shards {
            shard.set_paused(paused);
        }
    }

    /// Snapshot of service-wide counters and per-shard queue occupancy.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        // Retirements first (`Acquire`; bumped `Release` after the admission
        // they retire): no snapshot has `completed + expired > submitted`.
        let (completed, expired) = (
            c.completed.load(Ordering::Acquire),
            c.expired.load(Ordering::Acquire),
        );
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed,
            rejected: c.rejected.load(Ordering::Relaxed),
            expired,
            spilled: c.spilled.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            fallbacks: c.fallbacks.load(Ordering::Relaxed),
            inline: self.shards.iter().map(|s| s.inline()).sum(),
            shard_occupancy: self.shards.iter().map(|s| s.occupancy()).collect(),
            shard_queue_peak: self.shards.iter().map(|s| s.queue_peak()).collect(),
            classes: OpKind::ALL
                .iter()
                .map(|k| c.class(*k).snapshot(k.name()))
                .collect(),
        }
    }

    /// Pool stats of one shard (`None` if out of range).
    pub fn shard_pool_stats(&self, shard: usize) -> Option<PoolStats> {
        self.shards.get(shard).map(|s| s.pool_stats())
    }

    /// Recent dispatches from one shard's trace ring, oldest first
    /// (`None` if out of range).
    pub fn shard_traces(&self, shard: usize) -> Option<Vec<TraceEntry>> {
        self.shards.get(shard).map(|s| s.traces())
    }

    /// Always `None`: no shard runs a coordinator (its pools run the
    /// coder's schedule). The method stays only because the benchmark
    /// still calls it; ROADMAP.md item 1e deletes that call, and then this
    /// method.
    pub fn shard_coordinator(&self, _shard: usize) -> Option<dialga::CoordinatorSnapshot> {
        None
    }

    /// Arm a deterministic fault plan inside one shard's pool; other
    /// shards are untouched. Returns `false` if out of range.
    #[cfg(feature = "fault-injection")]
    pub fn arm_shard_faults(&self, shard: usize, plan: &FaultPlan) -> bool {
        match self.shards.get(shard) {
            Some(s) => {
                s.arm_faults(plan);
                true
            }
            None => false,
        }
    }

    /// Disarm any fault plan on one shard's pool. Returns `false` if out
    /// of range.
    #[cfg(feature = "fault-injection")]
    pub fn disarm_shard_faults(&self, shard: usize) -> bool {
        match self.shards.get(shard) {
            Some(s) => {
                s.disarm_faults();
                true
            }
            None => false,
        }
    }
}

impl Drop for StripeService {
    /// Graceful shutdown: masters drain what is already queued (expiring
    /// what must expire), then exit; their pools stop with them.
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.begin_shutdown();
        }
        for handle in self.masters.drain(..) {
            let _ = handle.join();
        }
    }
}

/// SplitMix64 finaliser — a cheap, well-mixed stateless hash for shard
/// selection (std-only; no external hasher dependency).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_stripe(k: usize, len: usize, salt: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 37 + j * 11 + salt * 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            shards: 2,
            threads_per_shard: 1,
            k: 4,
            m: 2,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn encode_roundtrip_matches_direct_coder() {
        let svc = StripeService::new(small_cfg()).unwrap();
        let coder = Dialga::new(4, 2).unwrap();
        let data = make_stripe(4, 4096, 0);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let expected = coder.encode_vec(&refs).unwrap();
        let ticket = svc.submit_encode(1, data, None).unwrap();
        assert_eq!(ticket.wait().unwrap(), expected);
        let stats = svc.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn decode_and_repair_roundtrip() {
        let svc = StripeService::new(small_cfg()).unwrap();
        let coder = Dialga::new(4, 2).unwrap();
        let data = make_stripe(4, 2048, 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = coder.encode_vec(&refs).unwrap();
        let full: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();

        // Decode with two holes.
        let mut holes: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        holes[1] = None;
        holes[4] = None;
        let restored = svc.submit_decode(2, holes, None).unwrap().wait().unwrap();
        assert_eq!(restored, full);

        // Repair a single shard.
        let mut survivors: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        survivors[2] = None;
        let rebuilt = svc
            .submit_repair(2, survivors, 2, None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(rebuilt, vec![full[2].clone()]);
    }

    #[test]
    fn scrub_names_the_corrupt_data_shard() {
        let svc = StripeService::new(small_cfg()).unwrap();
        let coder = Dialga::new(4, 2).unwrap();
        let data = make_stripe(4, 1024, 5);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = coder.encode_vec(&refs).unwrap();
        let mut full: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
        let clean = svc.submit_scrub(1, full.clone(), None).unwrap().wait();
        assert_eq!(clean, Ok(Vec::new()));
        // A corrupt data shard trips both parity rows; the reply names
        // the shard, not the rows.
        let victim = 2;
        full[victim][300] ^= 0x10;
        let reply = svc.submit_scrub(1, full, None).unwrap().wait();
        assert_eq!(
            reply,
            Err(ServiceError::Coding(EcError::Corrupt {
                shards: vec![victim]
            }))
        );
    }

    #[test]
    fn geometry_is_rejected_at_submit() {
        let svc = StripeService::new(small_cfg()).unwrap();
        let bad = make_stripe(3, 1024, 0); // wrong k
        assert!(matches!(
            svc.submit_encode(1, bad, None),
            Err(ServiceError::Coding(EcError::BlockCount { .. }))
        ));
        assert!(matches!(
            svc.submit_decode(1, vec![None; 5], None),
            Err(ServiceError::Coding(EcError::BlockCount { .. }))
        ));
        assert_eq!(svc.stats().submitted, 0);
    }

    #[test]
    fn repair_geometry_errors_name_the_wrong_number() {
        let svc = StripeService::new(small_cfg()).unwrap();
        let counts = |got| {
            Err(ServiceError::Coding(EcError::BlockCount {
                expected: 6,
                got,
            }))
        };
        // Wrong count, in-range target: the count is what is wrong.
        let reply = svc.submit_repair(1, vec![None; 3], 2, None).map(|_| ());
        assert_eq!(reply, counts(3));
        // Wrong count *and* out-of-range target: still the count.
        let reply = svc.submit_repair(1, vec![None; 3], 9, None).map(|_| ());
        assert_eq!(reply, counts(3));
        // Right count, out-of-range target: the target.
        let reply = svc.submit_repair(1, vec![None; 6], 9, None).map(|_| ());
        assert_eq!(reply, counts(9));
        assert_eq!(svc.stats().submitted, 0);
    }

    #[test]
    fn a_crowded_hashed_shard_spills_to_its_less_loaded_neighbour() {
        let svc = StripeService::new(ServiceConfig {
            queue_depth: 8,
            ..small_cfg()
        })
        .unwrap();
        svc.set_paused(true);
        let tenant = 7u32;
        // Advance the service's sequence to the next number whose
        // `(tenant, seq)` hashes to shard 0.
        let hashed = |seq: u64| mix64((u64::from(tenant) << 32) ^ seq) % 2;
        let next_on_shard_0 = || {
            while hashed(svc.seq.load(Ordering::Relaxed)) != 0 {
                svc.seq.fetch_add(1, Ordering::Relaxed);
            }
        };
        // Fill shard 0 past 75 % of its queue (6 of 8) with one tenant.
        let mut tickets = Vec::new();
        for salt in 0..7 {
            next_on_shard_0();
            let ticket = svc.submit_encode(tenant, make_stripe(4, 1024, salt), None);
            tickets.push(ticket.unwrap());
        }
        assert!(tickets.iter().all(|t| t.shard() == 0));
        let stats = svc.stats();
        assert_eq!((stats.shard_occupancy, stats.spilled), (vec![7, 0], 0));
        // The next request hashed to shard 0 lands on its neighbour.
        next_on_shard_0();
        let spilled = svc.submit_encode(tenant, make_stripe(4, 1024, 7), None);
        tickets.push(spilled.unwrap());
        assert_eq!(tickets[7].shard(), 1);
        let stats = svc.stats();
        assert_eq!((stats.shard_occupancy, stats.spilled), (vec![7, 1], 1));
        svc.set_paused(false);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn paused_service_fills_then_rejects() {
        let cfg = ServiceConfig {
            shards: 1,
            queue_depth: 3,
            ..small_cfg()
        };
        let svc = StripeService::new(cfg).unwrap();
        svc.set_paused(true);
        let mut tickets = Vec::new();
        let mut rejected = 0;
        for i in 0..5 {
            match svc.submit_encode(1, make_stripe(4, 1024, i), None) {
                Ok(t) => tickets.push(t),
                Err(ServiceError::Rejected { shard: 0, depth }) => {
                    assert!(depth >= 3);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(tickets.len(), 3, "queue_depth bounds admission");
        assert_eq!(rejected, 2);
        svc.set_paused(false);
        for t in tickets {
            assert!(t.wait().is_ok(), "resume drains the queue");
        }
    }

    /// One shard, so every request meets the same queue.
    fn one_shard() -> StripeService {
        StripeService::new(ServiceConfig {
            shards: 1,
            ..small_cfg()
        })
        .unwrap()
    }

    #[test]
    fn idle_small_request_is_served_by_its_submitter() {
        let svc = one_shard();
        let coder = Dialga::new(4, 2).unwrap();
        // Each round is one request of every class, in `OpKind::ALL` order.
        for salt in 0..5 {
            let data = make_stripe(4, 1024, salt);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = coder.encode_vec(&refs).unwrap();
            let full: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();
            let mut holed: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            holed[1] = None;
            let requests = [
                (svc.submit_encode(1, data, None), parity),
                (svc.submit_decode(1, holed.clone(), None), full.clone()),
                (svc.submit_repair(1, holed, 1, None), vec![full[1].clone()]),
                (svc.submit_scrub(1, full, None), Vec::new()),
            ];
            for (ticket, expected) in requests {
                let ticket = ticket.unwrap();
                // Complete before `submit_*` returned: no waiting at all.
                assert_eq!(ticket.wait_timeout(Duration::ZERO), Some(Ok(expected)));
                // …and handed out exactly once.
                assert_eq!(
                    ticket.wait_timeout(Duration::ZERO),
                    Some(Err(ServiceError::Disconnected))
                );
            }
        }
        let stats = svc.stats();
        assert_eq!(
            (stats.submitted, stats.completed, stats.inline),
            (20, 20, 20)
        );
        assert_eq!(stats.batches, stats.inline, "the master dispatched nothing");
        assert_eq!(stats.coalesced, 20, "an inline run is a batch of one");
        assert_eq!(stats.shard_queue_peak, vec![0], "nothing was ever queued");
        for class in &stats.classes {
            assert_eq!(class.count, 5, "{} completions in its histogram", class.op);
        }
        let traced: Vec<OpKind> = svc.shard_traces(0).unwrap().iter().map(|t| t.op).collect();
        assert_eq!(
            traced,
            OpKind::ALL.repeat(5),
            "inline runs are traced, in order"
        );
    }

    #[test]
    fn ticket_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Ticket>();
    }

    #[test]
    fn busy_over_cap_and_paused_requests_take_the_queue() {
        let svc = one_shard();
        // Busy: another dispatch holds the shard, so a small request queues
        // behind it (and the master, which needs no claim, serves it).
        let held = svc.shards[0].claim_idle(1).expect("a new shard is idle");
        let small = svc.submit_encode(1, make_stripe(4, 1024, 1), None).unwrap();
        assert!(small.wait().is_ok());
        drop(held);
        let stats = svc.stats();
        assert_eq!(
            (stats.inline, stats.batches),
            (1, 1),
            "only the claim above"
        );

        // Over the cap (4 x 32 KiB = 128 KiB): queued, idle shard or not.
        let big = svc.submit_encode(1, make_stripe(4, 32 * 1024, 0), None);
        assert!(big.unwrap().wait().is_ok());

        // Paused: admission still runs, nothing is dispatched by anybody.
        svc.set_paused(true);
        let parked = svc.submit_encode(1, make_stripe(4, 1024, 2), None).unwrap();
        assert_eq!(parked.wait_timeout(Duration::from_millis(20)), None);
        assert_eq!(svc.stats().shard_occupancy, vec![1]);
        svc.set_paused(false);
        assert!(parked.wait().is_ok());
        let stats = svc.stats();
        assert_eq!((stats.inline, stats.batches), (1, 3));

        // Idle again — as soon as the master, which replies before it
        // releases the shard, has let go — and small requests are inline.
        let inline_again = (0..1_000).any(|salt| {
            let ticket = svc.submit_encode(1, make_stripe(4, 1024, salt), None);
            assert!(ticket.unwrap().wait().is_ok());
            svc.stats().inline == 2
        });
        assert!(inline_again);
    }

    #[test]
    fn zero_deadline_expires_on_the_inline_path() {
        let svc = one_shard();
        let ticket = svc
            .submit_encode(1, make_stripe(4, 1024, 0), Some(Duration::ZERO))
            .unwrap();
        assert!(matches!(
            ticket.wait(),
            Err(ServiceError::Expired { waited }) if waited > Duration::ZERO
        ));
        let stats = svc.stats();
        assert_eq!((stats.submitted, stats.expired, stats.inline), (1, 1, 1));
        assert_eq!((stats.completed, stats.batches), (0, 0));
    }

    #[test]
    fn a_panicking_dispatcher_releases_the_shard() {
        let svc = one_shard();
        let shard = Arc::clone(&svc.shards[0]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _active = shard.claim_idle(1).expect("shard is idle");
            panic!("dispatch blew up");
        }));
        assert!(unwound.is_err());
        let ticket = svc.submit_encode(1, make_stripe(4, 1024, 0), None).unwrap();
        assert!(ticket
            .wait_timeout(Duration::ZERO)
            .is_some_and(|r| r.is_ok()));
        assert_eq!(svc.stats().inline, 2, "the shard is idle again, not wedged");
    }

    /// A backing image whose every read pays a delay: makes the recovery
    /// window wide enough to observe deterministically.
    struct SlowImage {
        inner: dialga_store::MemImage,
        delay: Duration,
    }

    impl PmImage for SlowImage {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), dialga_store::StoreError> {
            std::thread::sleep(self.delay);
            self.inner.read(offset, out)
        }
        fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), dialga_store::StoreError> {
            self.inner.store(offset, bytes)
        }
        fn persist(&mut self, offset: u64, len: usize) -> Result<(), dialga_store::StoreError> {
            self.inner.persist(offset, len)
        }
    }

    #[test]
    fn recovery_phase_backpressures_then_serves() {
        use dialga_store::{Geometry, MemImage, StripeStore};
        // A store with a few committed stripes…
        let geo = Geometry::new(4, 2, 256, 8).unwrap();
        let mut store = StripeStore::format(MemImage::new(geo.image_len()), geo).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 256]).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        for stripe in 0..8 {
            store.write_stripe(stripe, &refs).unwrap();
        }
        // …reopened behind a slow image so recovery visibly takes time.
        let slow = SlowImage {
            inner: store.into_image(),
            delay: Duration::from_micros(300),
        };
        let svc = StripeService::with_store(small_cfg(), Box::new(slow)).unwrap();
        assert!(svc.recovering());
        assert!(matches!(
            svc.submit_encode(1, make_stripe(4, 256, 0), None),
            Err(ServiceError::Recovering)
        ));
        assert_eq!(svc.stats().inline, 0, "refused, not served inline");
        assert!(svc.recovery_report().is_none());
        assert!(svc.with_store_mut(|_| ()).is_none());

        assert!(svc.wait_recovered(Duration::from_secs(30)));
        let report = svc.recovery_report().unwrap();
        assert_eq!(report.committed, 8);
        assert!(report.corrupt.is_empty());
        assert!(svc.recovery_error().is_none());
        let read = svc.with_store_mut(|s| s.read_stripe(3).unwrap()).unwrap();
        assert_eq!(read, data);
        // And admission is open again.
        let ticket = svc.submit_encode(1, make_stripe(4, 256, 1), None).unwrap();
        assert!(ticket.wait().is_ok());
    }

    #[test]
    fn failed_recovery_surfaces_the_error_and_reopens_admission() {
        use dialga_store::MemImage;
        // Garbage image: no superblock.
        let svc = StripeService::with_store(small_cfg(), Box::new(MemImage::new(1 << 16))).unwrap();
        assert!(svc.wait_recovered(Duration::from_secs(30)));
        assert!(svc.recovery_report().is_none());
        let err = svc.recovery_error().unwrap();
        assert!(err.contains("superblock"), "unexpected error: {err}");
        // The coding planes still serve: no store, but no deadlock.
        let ticket = svc.submit_encode(1, make_stripe(4, 256, 2), None).unwrap();
        assert!(ticket.wait().is_ok());
    }

    #[test]
    fn plain_service_is_never_recovering() {
        let svc = StripeService::new(small_cfg()).unwrap();
        assert!(!svc.recovering());
        assert!(svc.wait_recovered(Duration::from_millis(1)));
        assert!(svc.recovery_report().is_none());
        assert!(svc.recovery_error().is_none());
    }

    #[test]
    fn mix64_spreads_tenant_seq_pairs() {
        let mut hits = [0usize; 4];
        for tenant in 0..8u32 {
            for seq in 0..64u64 {
                hits[(mix64(((tenant as u64) << 32) ^ seq) % 4) as usize] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 64, "shard {i} starved by the hash: {hits:?}");
        }
    }
}
