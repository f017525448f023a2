//! The benchmark's fixed tables: workloads (shapes and op counts) and the
//! metric dictionary. `BENCHMARK.json` is the machine-readable copy of
//! these tables; a test keeps the two equal.
//!
//! Nothing here depends on the seed or on the host: op counts per round
//! are constants, so the counters a later change compares repeat exactly.

/// One simulated-plane point: an RS(k, m) encode of `block`-byte blocks
/// by `threads` simulated threads over ~4 MiB of data per thread.
#[derive(Debug, Clone, Copy)]
pub struct SimPoint {
    /// Label used in the per-point table.
    pub label: &'static str,
    /// Data blocks per stripe.
    pub k: usize,
    /// Parity blocks per stripe.
    pub m: usize,
    /// Block bytes.
    pub block: u64,
    /// Simulated threads.
    pub threads: usize,
}

impl SimPoint {
    /// Stripes per simulated thread: ~4 MiB of data, at least two stripes.
    pub fn stripes_per_thread(&self) -> u64 {
        ((4u64 << 20) / (self.k as u64 * self.block)).max(2)
    }
}

/// One workload: a traffic shape driven through all three planes
/// (service, store, simulator).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name (final; later changes quote it).
    pub name: &'static str,
    /// Why this workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Data blocks per stripe on the host plane.
    pub k: usize,
    /// Parity blocks per stripe on the host plane.
    pub m: usize,
    /// Block (= store shard) bytes.
    pub block: usize,
    /// Distinct stripes in the seeded corpus.
    pub corpus_stripes: usize,
    /// Stripes in the store image (sized so the image stays <= 256 MiB).
    pub store_stripes: usize,
    /// Client window: 1 = wait for each reply, 32 = submit a whole group
    /// back-to-back, then await all.
    pub window: usize,
    /// Tenants, assigned round-robin over ops.
    pub tenants: u32,
    /// Groups of 32 ops per service round (fixed, so per-round counts repeat).
    pub groups_per_round: usize,
    /// Store ops per store round (a multiple of 10: 7 puts, 3 gets each).
    pub store_ops_per_round: usize,
    /// Simulated points of this workload.
    pub sim_points: &'static [SimPoint],
}

const fn pt(label: &'static str, k: usize, m: usize, block: u64, threads: usize) -> SimPoint {
    SimPoint {
        label,
        k,
        m,
        block,
        threads,
    }
}

const SIM_LARGE: [SimPoint; 2] = [
    pt("k10m4.b256k.t1", 10, 4, 256 << 10, 1),
    pt("k10m4.b256k.t12", 10, 4, 256 << 10, 12),
];
const SIM_SMALL: [SimPoint; 2] = [
    pt("k10m4.b4k.t1", 10, 4, 4 << 10, 1),
    pt("k10m4.b4k.t12", 10, 4, 4 << 10, 12),
];
const SIM_STORE: [SimPoint; 2] = [
    pt("k10m4.b64k.t1", 10, 4, 64 << 10, 1),
    pt("k10m4.b64k.t12", 10, 4, 64 << 10, 12),
];
/// The Fig 17/19 shapes.
const SIM_PAPER: [SimPoint; 4] = [
    pt("k12m8.t1", 12, 8, 1024, 1),
    pt("k12m8.t12", 12, 8, 1024, 12),
    pt("k28m24.t1", 28, 24, 1024, 1),
    pt("k28m24.t12", 28, 24, 1024, 12),
];

/// The five workloads. Names are final.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "svc_large",
        why: "256 KiB blocks, window 1: a stripe (3.5 MiB) exceeds L2, so the fused GF kernel and the pool hand-off do most of the work; gf/core.pool/prefetch-knob gains show here.",
        k: 10,
        m: 4,
        block: 256 << 10,
        corpus_stripes: 16,
        store_stripes: 32,
        window: 1,
        tenants: 1,
        groups_per_round: 6,
        store_ops_per_round: 30,
        sim_points: &SIM_LARGE,
    },
    Workload {
        name: "svc_small",
        why: "4 KiB blocks, window 1: the kernel is under half of an 18 us op; admission, channels, wake-ups and allocation are the rest, so a dispatch-overhead cut shows mainly here.",
        k: 10,
        m: 4,
        block: 4 << 10,
        corpus_stripes: 16,
        store_stripes: 2048,
        window: 1,
        tenants: 1,
        groups_per_round: 160,
        store_ops_per_round: 2000,
        sim_points: &SIM_SMALL,
    },
    Workload {
        name: "svc_burst",
        why: "4 KiB blocks, 8 tenants, windows of 32 submitted back-to-back: the only standing queue, so coalescing, DRR and fused batch dispatch do the work; compare per-op time with svc_small.",
        k: 10,
        m: 4,
        block: 4 << 10,
        corpus_stripes: 16,
        store_stripes: 2048,
        window: 32,
        tenants: 8,
        groups_per_round: 200,
        store_ops_per_round: 2000,
        sim_points: &SIM_SMALL,
    },
    Workload {
        name: "store_mixed",
        why: "64 KiB shards x 128 stripes (224 MiB image, no store cache): serial encode is under a tenth of a put, hashing, copies and the two persists dominate; the path into open/roll-forward/boot-scrub.",
        k: 10,
        m: 4,
        block: 64 << 10,
        corpus_stripes: 16,
        store_stripes: 128,
        window: 1,
        tenants: 1,
        groups_per_round: 25,
        store_ops_per_round: 120,
        sim_points: &SIM_STORE,
    },
    Workload {
        name: "sim_paper",
        why: "The paper's shapes: RS(12,8)/RS(28,24), 1 KiB blocks, 1 and 12 simulated threads on the PM model; simulated numbers repeat to the bit, so coordinator/policy changes compare exactly.",
        k: 12,
        m: 8,
        block: 1 << 10,
        corpus_stripes: 16,
        store_stripes: 4096,
        window: 1,
        tenants: 1,
        groups_per_round: 200,
        store_ops_per_round: 5000,
        sim_points: &SIM_PAPER,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One row of the metric dictionary.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name; the prefix before the last `.` is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics (no bound).
    pub bound: Option<f64>,
    /// What it is, and for a per-layer metric which end-to-end metric it
    /// should move on which workload.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload with tracing off.
#[rustfmt::skip] // one row per metric
pub const END_TO_END: [Metric; 11] = [
    e2e("setup_s", "s", Lower, 0.25, "one full set-up: corpus + format + populate + service boot over the store (open + boot scrub) + one verified op per class + the fixed ISA-L baseline simulations; quiet quartile of 5+ set-ups"),
    e2e("encode_p50_us", "us", Lower, 0.25, "stripe write: submit_encode -> parity received; quiet (first) quartile over rounds of the per-round p50, at the reference clock"),
    e2e("repair_p50_us", "us", Lower, 0.25, "degraded read: submit_repair of one lost data shard -> rebuilt shard received; quiet quartile over rounds of the per-round p50"),
    e2e("user_mibs", "MiB/s", Higher, 0.25, "user bytes per second of request time: per 32-op group, bytes / (first submit -> last reply) summed over its windows; per round the median group, over rounds the quiet (third) quartile"),
    e2e("put_p50_us", "us", Lower, 0.25, "durable put: StripeStore::write_stripe through the service's store; quiet quartile over rounds of the per-round p50"),
    e2e("get_p50_us", "us", Lower, 0.25, "get: StripeStore::read_stripe; quiet quartile over rounds of the per-round p50"),
    e2e("recover_ms", "ms", Lower, 0.25, "restart over a dirty store: StripeService::with_store -> first admitted op; quiet quartile of >= 9 boots"),
    e2e("stored_bytes_per_user_byte", "ratio", Lower, 0.0, "image bytes / user bytes held (exact)"),
    e2e("sim_gbs", "GB/s", Higher, 0.0, "simulated GB/s of adaptive DIALGA, geomean over the workload's points (exact)"),
    e2e("sim_speedup", "ratio", Higher, 0.0, "simulated DIALGA / fixed ISA-L, geomean over the workload's points (exact)"),
    e2e("sim_host_mloads_per_s", "Mloads/s", Higher, 0.25, "simulator speed: simulated loads per host microsecond at the reference clock; quiet (third) quartile of >= 5 passes over the DIALGA point set"),
];

/// Per-layer metrics, printed by every workload in the traced pass.
#[rustfmt::skip] // one row per metric
pub const PER_LAYER: [Metric; 84] = [
    // gen: the benchmark itself. Moves nothing; says whether the box held still.
    layer("gen.wake_rtt_us", "us", Lower, "std-mpsc two-thread ping-pong before the timed window (no SUT)"),
    layer("gen.wake_rtt_after_us", "us", Lower, "the same after the timed window"),
    layer("gen.calib_copy_gibs", "GiB/s", Higher, "8 MiB memcpy before the timed window"),
    layer("gen.calib_copy_after_gibs", "GiB/s", Higher, "the same after the timed window"),
    layer("gen.unsteady", "count", Lower, "1 if either calibration moved > 25% across the window"),
    layer("gen.clock_ghz", "GHz", Higher, "median core clock over the service rounds, by the dependent-multiply probe"),
    layer("gen.clock_unsteady_share", "ratio", Lower, "share of service rounds left out because the clock stepped > 3% inside them"),
    layer("gen.payload_us", "us", Lower, "client time building one encode request (span median)"),
    layer("gen.verify_us", "us", Lower, "client time checking one encode reply bit-exactly (span median)"),
    layer("gen.rounds", "count", Higher, "service rounds in the traced block"),
    layer("gen.samples", "count", Higher, "encode samples in the traced block"),
    layer("gen.trace_overhead_ratio", "ratio", Lower, "traced / untraced encode_p50_us in this run (expected < 1.05)"),
    // gf: the fused kernel alone. -> encode/repair_p50_us on svc_large, put_p50_us by store.encode_share; no move on svc_small/svc_burst.
    layer("gf.fused_us", "us", Lower, "dot_prod_fused on one stripe of the workload's shape (tables via NibbleTables::new)"),
    layer("gf.fused_gibs", "GiB/s", Higher, "k*block / gf.fused_us"),
    layer("gf.verify_us", "us", Lower, "dot_prod_verify on the same stripe"),
    layer("gf.bytes_per_op", "count", Lower, "(k+m)*block bytes touched per stripe"),
    // core.encoder: serial coder. -> as gf, plus recover_ms (boot scrub).
    layer("core.encoder.encode_us", "us", Lower, "Dialga::encode into preallocated parity"),
    layer("core.encoder.encode_vec_us", "us", Lower, "Dialga::encode_vec (allocates parity; what the store calls)"),
    layer("core.encoder.repair_us", "us", Lower, "repair_plan + RepairPlan::apply of one data shard"),
    layer("core.encoder.decode_plan_us", "us", Lower, "Dialga::decode_plan for two lost shards"),
    layer("core.encoder.decode_us", "us", Lower, "Dialga::decode of two lost shards"),
    layer("core.encoder.scrub_us", "us", Lower, "Dialga::scrub of a clean stripe"),
    // core.pool. -> encode_p50_us on svc_small (most of it) and svc_large; stripes_per_dispatch -> user_mibs on svc_burst.
    layer("core.pool.encode_us", "us", Lower, "EncodePool::encode on a private 1-worker pool, same stripes"),
    layer("core.pool.dispatch_overhead_us", "us", Lower, "core.pool.encode_us - core.encoder.encode_us"),
    layer("core.pool.split2_us", "us", Lower, "EncodePool::encode on a private 2-worker pool (the 2-way split)"),
    layer("core.pool.batch8_us_per_stripe", "us", Lower, "encode_batch of 8 stripes on the 1-worker pool / 8"),
    layer("core.pool.busy_share", "ratio", Higher, "service shard pool: busy_ns / wall over the traced block"),
    layer("core.pool.stall_share", "ratio", Lower, "service shard pool: stall_ns / busy_ns"),
    layer("core.pool.chunks_per_stripe", "ratio", Lower, "service shard pool: chunks / stripes"),
    layer("core.pool.stripes_per_dispatch", "ratio", Higher, "service shard pool: stripes / dispatches"),
    layer("core.pool.batch_retries", "count", Lower, "service shard pool: batches re-submitted"),
    layer("core.pool.worker_deaths", "count", Lower, "service shard pool: workers found dead"),
    // core.coordinator. -> encode_p50_us on svc_large only; sim_gbs/sim_speedup on the simulated plane.
    layer("core.coordinator.samples", "count", Higher, "samples taken by the shard's coordinator"),
    layer("core.coordinator.policy_changes", "count", Lower, "policy changes it published"),
    layer("core.coordinator.knob_switches", "count", Lower, "knob changes workers observed between chunks"),
    layer("core.coordinator.sw_distance", "count", Lower, "software prefetch distance in effect (0 = none)"),
    layer("core.coordinator.settle_ms", "ms", Lower, "pool-clock time of the newest policy change (0 = none)"),
    // service. -> user_mibs on svc_burst; encode/repair_p50_us on svc_small.
    layer("service.submit_us", "us", Lower, "submit_encode call (span median)"),
    layer("service.wait_us", "us", Lower, "Ticket::wait after an encode submit (span median)"),
    layer("service.overhead_us", "us", Lower, "encode_p50_us - core.pool.encode_us"),
    layer("service.decode_p50_us", "us", Lower, "decode of two lost shards through the service"),
    layer("service.scrub_p50_us", "us", Lower, "scrub of a clean stripe through the service"),
    layer("service.op_p50_us", "us", Lower, "per-op latency over all classes (a mixed-class median: diagnostic only)"),
    layer("service.op_amortised_us", "us", Lower, "median group time / 32: per-op time with the window's overlap"),
    layer("service.p99_us", "us", Lower, "p99 of encode latency over the traced block (moves between identical runs)"),
    layer("service.internal_p50_us", "us", Lower, "the service's own encode histogram p50 (bucket upper bound; cross-check)"),
    layer("service.coalesce_ratio", "ratio", Higher, "requests per fused batch over the traced block"),
    layer("service.queue_peak", "count", Lower, "queue-depth high-water mark"),
    layer("service.rejected", "count", Lower, "submissions refused"),
    layer("service.expired", "count", Lower, "requests dropped past their deadline"),
    layer("service.fallbacks", "count", Lower, "batches re-run request by request"),
    layer("service.build_ms", "ms", Lower, "StripeService::new, median of 21 builds"),
    // store. -> put/get_p50_us, recover_ms and every setup_s.
    layer("store.populate_ms", "ms", Lower, "format + populate of the store image in set-up"),
    layer("store.open_ms", "ms", Lower, "StripeStore::open of the clean image in set-up (its recovery_ns)"),
    layer("store.put_self_us", "us", Lower, "store.put span minus its image.* children (encode, hash, footer)"),
    layer("store.get_self_us", "us", Lower, "store.get span minus its image.* children (allocation)"),
    layer("store.encode_share", "ratio", Lower, "core.encoder.encode_vec_us / put p50 in the traced block"),
    layer("store.recovery_ns", "ns", Lower, "RecoveryReport::recovery_ns of a dirty boot (median)"),
    layer("store.rolled_back", "count", Lower, "interrupted writes rolled back per dirty boot"),
    layer("store.rolled_forward", "count", Lower, "interrupted writes rolled forward per dirty boot (1 injected)"),
    layer("store.shards_repaired", "count", Lower, "shards re-derived by the boot scrub per dirty boot (8 injected)"),
    // image: the counting PmImage wrapper. -> put/get_p50_us; counts repeat exactly.
    layer("image.store_calls_per_put", "ratio", Lower, "PmImage::store calls per put"),
    layer("image.store_bytes_per_put", "ratio", Lower, "bytes stored per put"),
    layer("image.persists_per_put", "ratio", Lower, "persist boundaries per put (2 today)"),
    layer("image.store_us_per_put", "us", Lower, "time in PmImage::store per put"),
    layer("image.persist_us_per_put", "us", Lower, "time in PmImage::persist per put"),
    layer("image.read_calls_per_get", "ratio", Lower, "PmImage::read calls per get"),
    layer("image.read_bytes_per_get", "ratio", Lower, "bytes read per get (today all k+m shards for a k-shard get)"),
    // memsim. -> sim_gbs, sim_speedup (simulated) and sim_host_mloads_per_s (host).
    layer("memsim.dialga_gbs", "GB/s", Higher, "adaptive DIALGA, geomean over points (= sim_gbs)"),
    layer("memsim.isal_gbs", "GB/s", Higher, "fixed ISA-L, geomean over points"),
    layer("memsim.t1.dialga_gbs", "GB/s", Higher, "adaptive DIALGA, geomean over the 1-thread points"),
    layer("memsim.t1.isal_gbs", "GB/s", Higher, "fixed ISA-L, geomean over the 1-thread points"),
    layer("memsim.t12.dialga_gbs", "GB/s", Higher, "adaptive DIALGA, geomean over the 12-thread points"),
    layer("memsim.t12.isal_gbs", "GB/s", Higher, "fixed ISA-L, geomean over the 12-thread points"),
    layer("memsim.stall_cyc_per_load", "ratio", Lower, "DIALGA demand-stall cycles per load, all points pooled (Fig 17)"),
    layer("memsim.isal_stall_cyc_per_load", "ratio", Lower, "the same for fixed ISA-L"),
    layer("memsim.media_read_amp", "ratio", Lower, "DIALGA media bytes / demand bytes, all points pooled (Fig 19)"),
    layer("memsim.isal_media_read_amp", "ratio", Lower, "the same for fixed ISA-L"),
    layer("memsim.useless_prefetch_ratio", "ratio", Lower, "DIALGA useless + late hardware prefetches / issued, all points pooled"),
    layer("memsim.policy_changes", "count", Lower, "coordinator policy changes over the DIALGA point set"),
    layer("memsim.loads", "count", Lower, "simulated loads of the DIALGA point set"),
    layer("memsim.host_ns_per_load", "ns", Lower, "host time per simulated load (median repeat)"),
    // setup split, so a change to setup_s can be placed.
    layer("gen.corpus_ms", "ms", Lower, "corpus generation + reference parity in set-up"),
    layer("service.boot_ms", "ms", Lower, "with_store -> wait_recovered over the clean image in set-up"),
];

/// Ops per group, fixed composition (19 encode, 7 repair, 3 decode, 3 scrub
/// = 59/22/9/9 %), shuffled per group by the seed.
pub const GROUP_OPS: usize = 32;
/// Encodes per group.
pub const GROUP_ENCODES: usize = 19;
/// Repairs per group.
pub const GROUP_REPAIRS: usize = 7;
/// Decodes per group.
pub const GROUP_DECODES: usize = 3;
/// Scrubs per group.
pub const GROUP_SCRUBS: usize = 3;

/// Untimed identical traffic before the timed window, seconds.
pub const LEAD_IN_S: f64 = 2.0;
/// Full set-ups per run (one before the window, the rest inside it);
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Minimum untraced service rounds per run.
pub const MIN_SERVICE_ROUNDS: usize = 9;
/// Minimum store rounds per run.
pub const MIN_STORE_ROUNDS: usize = 5;
/// Minimum dirty boots per run.
pub const MIN_BOOTS: usize = 9;
/// Minimum passes over the DIALGA point set per run.
pub const MIN_SIM_REPEATS: usize = 5;
/// Torn shards injected into the dirty image.
pub const TORN_SHARDS: usize = 8;
/// Shares of the timed window (`--seconds`) the scheduler gives each kind
/// of work; minimum counts are met after the window if need be.
pub const SHARE_SERVICE: f64 = 0.40;
/// Share for store put/get rounds.
pub const SHARE_STORE: f64 = 0.20;
/// Share for dirty boots.
pub const SHARE_BOOTS: f64 = 0.10;
/// Share for simulator passes.
pub const SHARE_SIM: f64 = 0.12;
/// Share for further set-ups.
pub const SHARE_SETUP: f64 = 0.18;

/// How the driver invokes the benchmark (`BENCHMARK.json`'s `command`).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// `BENCHMARK.json`'s `run_seconds`: the length of the timed window.
pub const RUN_SECONDS: u32 = 15;
