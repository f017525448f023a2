//! One run of one workload: set-up, lead-in, the timed blocks, and the
//! metrics derived from them.
//!
//! ```text
//! set-up (timed) -> dirty image -> untimed identical traffic -> calibration
//! -> timed window: service rounds, store rounds, dirty boots, simulator
//!    passes and further set-ups, interleaved -> calibration
//! ```
//!
//! With tracing off the run yields the end-to-end metrics. With tracing on
//! service rounds alternate untraced and traced (their ratio is the
//! tracing overhead), store rounds record spans, the layer ladder runs on
//! the same corpus, and the run yields the per-layer metrics instead.
//! End-to-end numbers never come from a traced round.

use crate::gen::{Class, OpGen, StoreOpGen};
use crate::host::{fingerprint, steady_samples, Calibration, ClockScale, REF_GHZ};
use crate::image::BufferPool;
use crate::ladder::{self, Ladder};
use crate::setup::{self, service_config, SetupTimes, Sut};
use crate::sim::{self, SimBlock};
use crate::spec::{self, Metric, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, quartiles_of_rounds, quiet_quartile, RoundStat};
use crate::store::{self, Boot, DirtyImage, StoreBlock};
use crate::svc::{self, SvcBlock};
use crate::trace::{self, Span, Summary};
use dialga::PoolStats;
use dialga_service::{ServiceStats, StripeService};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Directory the span dump is written to (traced pass only).
    pub out_dir: std::path::PathBuf,
}

/// The result of one run.
pub struct RunOutput {
    /// Metric values by name: the end-to-end set, or the per-layer set.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted, over all blocks.
    pub attempted: u64,
    /// Operations refused, failed or answered wrongly.
    pub failed: u64,
    /// Human-readable report.
    pub text: String,
}

impl RunOutput {
    /// Did every output check out?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    pub fn json_line(&self, table: &[Metric]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in table.iter().enumerate() {
            let value = self.metrics.get(m.name).copied().unwrap_or(f64::NAN);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn stat_line(out: &mut String, name: &str, unit: &str, s: &RoundStat) {
    let _ = writeln!(
        out,
        "  {name:<28} {:>12.3} {unit:<8} rounds median {:.3} q3 {:.3}  ({} steady rounds, {} samples)",
        s.quiet, s.median, s.q3, s.rounds, s.samples
    );
}

fn require(stat: Option<RoundStat>, what: &str) -> Result<RoundStat, String> {
    stat.ok_or_else(|| format!("no {what} sample was taken"))
}

/// The kinds of work a run interleaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// One service round.
    Service,
    /// One store put/get round.
    Store,
    /// One dirty boot.
    Boot,
    /// One DIALGA pass over the simulated points.
    Sim,
    /// One more full set-up.
    Setup,
}

const UNITS: [Unit; 5] = [
    Unit::Service,
    Unit::Store,
    Unit::Boot,
    Unit::Sim,
    Unit::Setup,
];

/// Deficit scheduler over the unit kinds: always runs the kind that has
/// had the least time relative to its share, so every kind is sampled
/// across the whole timed window rather than in one contiguous block.
///
/// Why: this host's speed moves by tens of percent for seconds at a time
/// (the neighbours' share of the memory system, on top of the clock steps
/// the brackets take out). A metric measured in one 2 s block reads
/// whatever that block met; the same 2 s spread thinly over the window
/// meets the episodes in the proportion they occur, and its quartiles over
/// rounds repeat from run to run.
struct Schedule {
    used_s: [f64; 5],
    count: [usize; 5],
}

impl Schedule {
    fn share(unit: Unit) -> f64 {
        match unit {
            Unit::Service => spec::SHARE_SERVICE,
            Unit::Store => spec::SHARE_STORE,
            Unit::Boot => spec::SHARE_BOOTS,
            Unit::Sim => spec::SHARE_SIM,
            Unit::Setup => spec::SHARE_SETUP,
        }
    }

    fn min_count(unit: Unit) -> usize {
        match unit {
            Unit::Service => spec::MIN_SERVICE_ROUNDS,
            Unit::Store => spec::MIN_STORE_ROUNDS,
            Unit::Boot => spec::MIN_BOOTS,
            Unit::Sim => spec::MIN_SIM_REPEATS,
            Unit::Setup => spec::SETUP_REPS - 1,
        }
    }

    /// The next unit to run, or `None` when the window is over and every
    /// kind has met its minimum count.
    fn next(&self, window_over: bool) -> Option<Unit> {
        if window_over {
            return UNITS
                .into_iter()
                .find(|&u| self.count[u as usize] < Self::min_count(u));
        }
        UNITS.into_iter().min_by(|&a, &b| {
            let key = |u: Unit| self.used_s[u as usize] / Self::share(u);
            key(a).total_cmp(&key(b))
        })
    }

    fn charge(&mut self, unit: Unit, seconds: f64) {
        self.used_s[unit as usize] += seconds;
        self.count[unit as usize] += 1;
    }
}

/// Counter movement of the service shard's pool and of the service over
/// the traced rounds only.
#[derive(Default)]
struct TracedDeltas {
    busy_ns: u64,
    stall_ns: u64,
    chunks: u64,
    stripes: u64,
    dispatches: u64,
    batch_retries: u64,
    worker_deaths: u64,
    batches: u64,
    coalesced: u64,
}

impl TracedDeltas {
    fn add(&mut self, p0: &PoolStats, p1: &PoolStats, s0: &ServiceStats, s1: &ServiceStats) {
        self.busy_ns += p1.busy_ns - p0.busy_ns;
        self.stall_ns += p1.stall_ns - p0.stall_ns;
        self.chunks += p1.chunks - p0.chunks;
        self.stripes += p1.stripes - p0.stripes;
        self.dispatches += p1.dispatches - p0.dispatches;
        self.batch_retries += p1.batch_retries - p0.batch_retries;
        self.worker_deaths += p1.worker_deaths - p0.worker_deaths;
        self.batches += s1.batches - s0.batches;
        self.coalesced += s1.coalesced - s0.coalesced;
    }
}

/// Run workload `w`.
pub fn run_workload(w: &Workload, args: &RunArgs) -> Result<RunOutput, String> {
    let run_start = Instant::now();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload {}  seed {}  seconds {}  trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(text, "host: {}", fingerprint());
    let _ = writeln!(
        text,
        "shape: RS({},{}) block {} B, corpus {} stripes, store {} stripes, window {}, tenants {}, {} ops/service round, {} ops/store round",
        w.k, w.m, w.block, w.corpus_stripes, w.store_stripes, w.window, w.tenants,
        w.groups_per_round * spec::GROUP_OPS, w.store_ops_per_round
    );
    if cfg!(debug_assertions) {
        let _ = writeln!(text, "WARNING: debug build; the numbers mean nothing");
    }

    // First set-up: the instance every later block measures.
    let pool = BufferPool::default();
    let (mut sut, first_setup) = setup::build(w, args.seed, &pool)?;
    let mut setups = vec![first_setup];
    let dirty = DirtyImage::build(w, &sut.corpus, args.seed, &pool)?;

    let mut ops = OpGen::new(w, args.seed);
    let mut store_ops = StoreOpGen::new(w, args.seed);
    let mut op_id = 0u64;

    // Untimed identical traffic first: allocator, caches and the shard's
    // coordinator settle, and the buffer pool gets its boot buffer.
    let mut warm = SvcBlock::default();
    let lead_in = Instant::now();
    while lead_in.elapsed().as_secs_f64() < spec::LEAD_IN_S {
        svc::run_round(&sut, w, &mut ops, &mut warm, &mut op_id);
    }
    let mut warm_store = StoreBlock::default();
    store::run_round(&mut sut, w, &mut store_ops, &mut warm_store, &mut op_id);
    let warm_boot = store::boot_dirty(w, &sut.corpus, &dirty, &pool)?;
    let mut attempted = warm.attempted + warm_store.attempted + 1;
    let mut failed = warm.failed + warm_store.failed + u64::from(!warm_boot.ok);
    let before = Calibration::take();

    // The timed window: the unit kinds interleaved by the scheduler. In the
    // traced pass service rounds alternate untraced / traced, so the two
    // see the same stretch of time and their ratio is the tracing overhead.
    let mut schedule = Schedule {
        used_s: [0.0; 5],
        count: [0; 5],
    };
    let mut untraced = SvcBlock::default();
    let mut traced = SvcBlock::default();
    let mut deltas = TracedDeltas::default();
    let mut store_block = StoreBlock::default();
    let mut boots: Vec<Boot> = Vec::new();
    let mut sim_block = SimBlock::new(std::mem::take(&mut sut.isal));
    if args.trace {
        trace::enable();
        trace::set_paused(true);
    }
    let window = Instant::now();
    while let Some(unit) = schedule.next(window.elapsed().as_secs_f64() >= args.seconds) {
        let t = Instant::now();
        match unit {
            Unit::Service if args.trace && untraced.rounds.len() > traced.rounds.len() => {
                let (p0, s0) = (
                    sut.svc.shard_pool_stats(0).unwrap_or_default(),
                    sut.svc.stats(),
                );
                trace::set_paused(false);
                svc::run_round(&sut, w, &mut ops, &mut traced, &mut op_id);
                trace::set_paused(true);
                let (p1, s1) = (
                    sut.svc.shard_pool_stats(0).unwrap_or_default(),
                    sut.svc.stats(),
                );
                deltas.add(&p0, &p1, &s0, &s1);
            }
            Unit::Service => svc::run_round(&sut, w, &mut ops, &mut untraced, &mut op_id),
            Unit::Store => {
                trace::set_paused(false);
                store::run_round(&mut sut, w, &mut store_ops, &mut store_block, &mut op_id);
                trace::set_paused(true);
            }
            Unit::Boot => boots.push(store::boot_dirty(w, &sut.corpus, &dirty, &pool)?),
            Unit::Sim => sim_block.run_pass(w.sim_points),
            Unit::Setup => {
                let (again, times) = setup::build(w, args.seed, &pool)?;
                drop(again);
                setups.push(times);
            }
        }
        schedule.charge(unit, t.elapsed().as_secs_f64());
    }
    let spans = trace::take();
    let after = Calibration::take();
    let unsteady = before.unsteady(&after);

    attempted += untraced.attempted
        + traced.attempted
        + store_block.attempted
        + boots.len() as u64
        + sim_block.attempted;
    failed += untraced.failed
        + traced.failed
        + store_block.failed
        + boots.iter().filter(|b| !b.ok).count() as u64
        + sim_block.failed;

    // End-to-end numbers: untraced rounds only.
    let setup_of = |f: fn(&SetupTimes) -> f64| phase_median(&setups, f);
    let setup_totals: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let setup_s = quiet_quartile(&setup_totals, false);
    let encode = require(
        quartiles_of_rounds(&untraced.class_rounds(Class::Encode)),
        "encode",
    )?;
    let repair = require(
        quartiles_of_rounds(&untraced.class_rounds(Class::Repair)),
        "repair",
    )?;
    let _ = writeln!(
        text,
        "steadiness: wake_rtt {:.2} -> {:.2} us, copy {:.2} -> {:.2} GiB/s, unsteady {}",
        before.wake_rtt_us,
        after.wake_rtt_us,
        before.copy_gibs,
        after.copy_gibs,
        u8::from(unsteady)
    );
    let _ = writeln!(
        text,
        "set-up ({} of them; phase medians): total {:.4} s = corpus {:.4} + populate {:.4} + boot {:.4} + verified ops {:.4} + ISA-L baselines {:.4}",
        setups.len(), setup_of(|t| t.total_s), setup_of(|t| t.corpus_s), setup_of(|t| t.populate_s), setup_of(|t| t.boot_s),
        setup_of(|t| t.verify_s), setup_of(|t| t.isal_s)
    );
    let _ = writeln!(
        text,
        "timed window {:.1} s: {} service rounds ({:.1} s), {} store rounds ({:.1} s), {} boots ({:.1} s), {} sim passes ({:.1} s), {} more set-ups ({:.1} s)",
        window.elapsed().as_secs_f64(),
        schedule.count[0], schedule.used_s[0], schedule.count[1], schedule.used_s[1], schedule.count[2], schedule.used_s[2],
        schedule.count[3], schedule.used_s[3], schedule.count[4], schedule.used_s[4]
    );

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !args.trace {
        let put = require(quartiles_of_rounds(&store_block.steady_puts()), "put")?;
        let get = require(quartiles_of_rounds(&store_block.steady_gets()), "get")?;
        let recover = recover_samples(&boots);
        let mibs = untraced.group_rounds(&untraced.group_mibs);
        let ratio = store::stored_bytes_per_user_byte(&sut).ok_or("service lost its store")?;
        let points = w.sim_points;
        metrics.insert("setup_s", setup_s);
        metrics.insert("encode_p50_us", encode.quiet);
        metrics.insert("repair_p50_us", repair.quiet);
        metrics.insert("user_mibs", quiet_quartile(&mibs, true));
        metrics.insert("put_p50_us", put.quiet);
        metrics.insert("get_p50_us", get.quiet);
        metrics.insert("recover_ms", quiet_quartile(&recover, false));
        metrics.insert("stored_bytes_per_user_byte", ratio);
        metrics.insert(
            "sim_gbs",
            SimBlock::gbs(&sim_block.dialga, points, |_| true),
        );
        metrics.insert("sim_speedup", sim_block.speedup());
        metrics.insert(
            "sim_host_mloads_per_s",
            quiet_quartile(&sim_block.host_mloads_per_s, true),
        );

        let _ = writeln!(text, "end-to-end (tracing off):");
        stat_line(&mut text, "encode_p50_us", "us", &encode);
        stat_line(&mut text, "repair_p50_us", "us", &repair);
        for class in [Class::Decode, Class::Scrub] {
            if let Some(s) = quartiles_of_rounds(&untraced.class_rounds(class)) {
                stat_line(
                    &mut text,
                    &format!("({} p50, not gated)", class.name()),
                    "us",
                    &s,
                );
            }
        }
        stat_line(&mut text, "put_p50_us", "us", &put);
        stat_line(&mut text, "get_p50_us", "us", &get);
        for (name, unit, values, higher, what) in [
            ("user_mibs", "MiB/s", &mibs, true, "steady rounds"),
            ("recover_ms", "ms", &recover, false, "steady boots"),
            (
                "sim_host_mloads_per_s",
                "Mloads/s",
                &sim_block.host_mloads_per_s,
                true,
                "passes",
            ),
            ("setup_s", "s", &setup_totals, false, "set-ups"),
        ] {
            let _ = writeln!(
                text,
                "  {name:<28} {:>12.3} {unit:<8} median {:.3}, quartiles {:.3} .. {:.3}  ({} {what})",
                quiet_quartile(values, higher), median(values), quantile(values, 0.25), quantile(values, 0.75), values.len()
            );
        }
        sim_table(&mut text, w, &sim_block);
        metric_table(&mut text, &END_TO_END, &metrics);
    } else {
        let summary =
            trace::summarise(&spans).map_err(|e| format!("span dump is inconsistent: {e}"))?;
        let ladder = ladder::run(w, &sut.corpus, &sut.coder);
        attempted += ladder.attempted;
        failed += ladder.failed;
        let builds = time_service_builds(w)?;
        per_layer_metrics(
            &mut metrics,
            &PerLayerInputs {
                w,
                sut: &sut,
                setups: &setups,
                before,
                after,
                unsteady,
                untraced_encode: encode.quiet,
                traced: &traced,
                deltas: &deltas,
                store: &store_block,
                boots: &boots,
                sim: &sim_block,
                ladder: &ladder,
                summary: &summary,
                spans: &spans,
                build_ms: builds,
            },
        )?;
        let path = args.out_dir.join(format!("{}.trace.jsonl", w.name));
        let dumped = dump_spans(&spans, &path)?;
        let _ = writeln!(
            text,
            "spans: {} of {} ops, well-formed (children inside parents, self >= 0, one root per op); the first {dumped} -> {}",
            spans.len(), summary.ops, path.display()
        );
        sim_table(&mut text, w, &sim_block);
        metric_table(&mut text, &PER_LAYER, &metrics);
    }
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(missing) = table.iter().find(|m| !metrics.contains_key(m.name)) {
        return Err(format!("metric {} was not measured", missing.name));
    }
    let _ = writeln!(
        text,
        "attempted {attempted}  failed {failed}  correct {}  (run took {:.1} s)",
        failed == 0,
        run_start.elapsed().as_secs_f64()
    );
    Ok(RunOutput {
        metrics,
        attempted,
        failed,
        text,
    })
}

/// Median over set-ups of one phase's time.
fn phase_median(setups: &[SetupTimes], phase: fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(phase).collect::<Vec<_>>())
}

/// Recovery times of the boots whose clock held steady.
fn recover_samples(boots: &[Boot]) -> Vec<f64> {
    let ms: Vec<f64> = boots.iter().map(|b| b.recover_ms).collect();
    let scales: Vec<ClockScale> = boots.iter().map(|b| b.scale).collect();
    steady_samples(&ms, &scales)
}

/// `StripeService::new` timed 21 times over; median milliseconds.
fn time_service_builds(w: &Workload) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(21);
    for _ in 0..21 {
        let t = Instant::now();
        let svc = StripeService::new(service_config(w)).map_err(|e| e.to_string())?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(svc);
    }
    Ok(median(&ms))
}

/// Most spans a dump holds; the metrics use all of them.
const DUMP_SPANS: usize = 50_000;

/// Write the first [`DUMP_SPANS`] spans, cut at the next root so that no
/// operation of the dump is cut short. Returns how many were written.
fn dump_spans(spans: &[Span], path: &Path) -> Result<usize, String> {
    let cut = spans
        .iter()
        .enumerate()
        .skip(DUMP_SPANS)
        .find(|(_, s)| s.parent.is_none())
        .map_or(spans.len(), |(i, _)| i);
    let spans = &spans[..cut];
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    trace::dump(spans, std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(cut)
}

fn sim_table(text: &mut String, w: &Workload, sim: &SimBlock) {
    let _ = writeln!(
        text,
        "simulated plane (PM model, unvalidated against hardware; exact run to run):"
    );
    for (i, p) in w.sim_points.iter().enumerate() {
        let (d, b) = (&sim.dialga[i], &sim.isal[i]);
        let _ = writeln!(
            text,
            "  {:<18} DIALGA {:>7.3} GB/s  ISA-L {:>7.3} GB/s  x{:.3}  stall cyc/load {:.2} vs {:.2}  media amp {:.3} vs {:.3}  useless pf {:.3}  policy changes {}",
            p.label, d.throughput_gbs(), b.throughput_gbs(), d.throughput_gbs() / b.throughput_gbs(),
            sim::stall_cycles_per_load(&d.counters), sim::stall_cycles_per_load(&b.counters),
            d.counters.media_read_amplification(), b.counters.media_read_amplification(),
            d.counters.useless_prefetch_ratio(), sim.policy_changes[i]
        );
    }
}

fn metric_table(text: &mut String, table: &[Metric], metrics: &BTreeMap<&'static str, f64>) {
    let _ = writeln!(
        text,
        "{:<36} {:>16} {:<9} {:<7} bound",
        "metric", "value", "unit", "better"
    );
    for m in table {
        let value = metrics.get(m.name).copied().unwrap_or(f64::NAN);
        let bound = m.bound.map_or_else(|| "-".to_string(), |b| format!("{b}"));
        let _ = writeln!(
            text,
            "{:<36} {:>16.4} {:<9} {:<7} {bound}",
            m.name,
            value,
            m.unit,
            m.better.as_str()
        );
    }
}

struct PerLayerInputs<'a> {
    w: &'a Workload,
    sut: &'a Sut,
    setups: &'a [SetupTimes],
    before: Calibration,
    after: Calibration,
    unsteady: bool,
    untraced_encode: f64,
    traced: &'a SvcBlock,
    deltas: &'a TracedDeltas,
    store: &'a StoreBlock,
    boots: &'a [Boot],
    sim: &'a SimBlock,
    ladder: &'a Ladder,
    summary: &'a Summary,
    spans: &'a [Span],
    build_ms: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median duration (or self time) of the spans named `name` whose root op
/// satisfies `keep`; 0 when there is none.
fn span_median(spans: &[Span], name: &str, keep_op: &dyn Fn(u64) -> bool) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && keep_op(s.op_id))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

fn per_layer_metrics(
    out: &mut BTreeMap<&'static str, f64>,
    x: &PerLayerInputs<'_>,
) -> Result<(), String> {
    let w = x.w;
    let setup_of = |f: fn(&SetupTimes) -> f64| phase_median(x.setups, f);
    let traced_encode = require(
        quartiles_of_rounds(&x.traced.class_rounds(Class::Encode)),
        "traced encode",
    )?;

    // gen
    out.insert("gen.wake_rtt_us", x.before.wake_rtt_us);
    out.insert("gen.wake_rtt_after_us", x.after.wake_rtt_us);
    out.insert("gen.calib_copy_gibs", x.before.copy_gibs);
    out.insert("gen.calib_copy_after_gibs", x.after.copy_gibs);
    out.insert("gen.unsteady", f64::from(u8::from(x.unsteady)));
    let scales = x.traced.round_scale.iter();
    out.insert(
        "gen.clock_ghz",
        median(
            &scales
                .clone()
                .map(|s| s.factor * REF_GHZ)
                .collect::<Vec<_>>(),
        ),
    );
    out.insert(
        "gen.clock_unsteady_share",
        scales.filter(|s| !s.steady).count() as f64 / x.traced.rounds.len().max(1) as f64,
    );
    out.insert("gen.rounds", x.traced.rounds.len() as f64);
    out.insert("gen.samples", traced_encode.samples as f64);
    out.insert(
        "gen.trace_overhead_ratio",
        traced_encode.quiet / x.untraced_encode,
    );
    out.insert("gen.corpus_ms", setup_of(|t| t.corpus_s) * 1e3);

    // Client and service spans of encode ops only, so the medians are
    // those of one class.
    let is_encode = |op: u64| x.traced.encode_ops.binary_search(&op).is_ok();
    out.insert(
        "gen.payload_us",
        span_median(x.spans, "gen.payload", &is_encode),
    );
    out.insert(
        "gen.verify_us",
        span_median(x.spans, "gen.verify", &is_encode),
    );
    out.insert(
        "service.submit_us",
        span_median(x.spans, "service.submit", &is_encode),
    );
    out.insert(
        "service.wait_us",
        span_median(x.spans, "service.wait", &is_encode),
    );

    // gf, core.encoder, core.pool ladder
    let l = x.ladder;
    let stripe_bytes = (w.k * w.block) as f64;
    out.insert("gf.fused_us", l.gf_fused_us);
    out.insert(
        "gf.fused_gibs",
        stripe_bytes / (l.gf_fused_us / 1e6) / (1u64 << 30) as f64,
    );
    out.insert("gf.verify_us", l.gf_verify_us);
    out.insert("gf.bytes_per_op", ((w.k + w.m) * w.block) as f64);
    out.insert("core.encoder.encode_us", l.encode_us);
    out.insert("core.encoder.encode_vec_us", l.encode_vec_us);
    out.insert("core.encoder.repair_us", l.repair_us);
    out.insert("core.encoder.decode_plan_us", l.decode_plan_us);
    out.insert("core.encoder.decode_us", l.decode_us);
    out.insert("core.encoder.scrub_us", l.scrub_us);
    out.insert("core.pool.encode_us", l.pool_encode_us);
    out.insert(
        "core.pool.dispatch_overhead_us",
        l.pool_encode_us - l.encode_us,
    );
    out.insert("core.pool.split2_us", l.pool_split2_us);
    out.insert(
        "core.pool.batch8_us_per_stripe",
        l.pool_batch8_us_per_stripe,
    );

    // core.pool / core.coordinator: the service shard's pool over the traced block
    let d = x.deltas;
    out.insert(
        "core.pool.busy_share",
        d.busy_ns as f64 / (x.traced.wall_s * 1e9),
    );
    out.insert("core.pool.stall_share", ratio(d.stall_ns, d.busy_ns));
    out.insert("core.pool.chunks_per_stripe", ratio(d.chunks, d.stripes));
    out.insert(
        "core.pool.stripes_per_dispatch",
        ratio(d.stripes, d.dispatches),
    );
    out.insert("core.pool.batch_retries", d.batch_retries as f64);
    out.insert("core.pool.worker_deaths", d.worker_deaths as f64);
    let coord = x.sut.svc.shard_coordinator(0);
    let pool_now = x.sut.svc.shard_pool_stats(0).unwrap_or_default();
    out.insert(
        "core.coordinator.samples",
        coord.map_or(0.0, |c| c.samples as f64),
    );
    out.insert(
        "core.coordinator.policy_changes",
        coord.map_or(0.0, |c| c.policy_changes as f64),
    );
    out.insert(
        "core.coordinator.knob_switches",
        pool_now.knob_switches as f64,
    );
    out.insert(
        "core.coordinator.sw_distance",
        coord.and_then(|c| c.sw_distance).map_or(0.0, f64::from),
    );
    out.insert(
        "core.coordinator.settle_ms",
        coord
            .and_then(|c| c.last_change_ns)
            .map_or(0.0, |ns| ns / 1e6),
    );

    // service
    let s1 = x.sut.svc.stats();
    let class_p50 =
        |class: Class| quartiles_of_rounds(&x.traced.class_rounds(class)).map_or(0.0, |s| s.quiet);
    let all: Vec<f64> = Class::ALL
        .iter()
        .flat_map(|&c| x.traced.class_samples(c))
        .collect();
    out.insert("service.overhead_us", x.untraced_encode - l.pool_encode_us);
    out.insert("service.decode_p50_us", class_p50(Class::Decode));
    out.insert("service.scrub_p50_us", class_p50(Class::Scrub));
    out.insert("service.op_p50_us", median(&all));
    out.insert(
        "service.op_amortised_us",
        median(&x.traced.group_us) / spec::GROUP_OPS as f64,
    );
    out.insert(
        "service.p99_us",
        quantile(&x.traced.class_samples(Class::Encode), 0.99),
    );
    out.insert(
        "service.internal_p50_us",
        s1.classes.first().map_or(0.0, |c| c.p50_us),
    );
    out.insert("service.coalesce_ratio", ratio(d.coalesced, d.batches));
    out.insert(
        "service.queue_peak",
        s1.shard_queue_peak.iter().copied().max().unwrap_or(0) as f64,
    );
    out.insert("service.rejected", s1.rejected as f64);
    out.insert("service.expired", s1.expired as f64);
    out.insert("service.fallbacks", s1.fallbacks as f64);
    out.insert("service.build_ms", x.build_ms);
    out.insert("service.boot_ms", setup_of(|t| t.boot_s) * 1e3);

    // store and image
    let put = require(quartiles_of_rounds(&x.store.steady_puts()), "put")?;
    let self_median = |name: &str| x.summary.self_us.get(name).map_or(0.0, |v| median(v));
    out.insert("store.populate_ms", setup_of(|t| t.populate_s) * 1e3);
    out.insert("store.open_ms", setup_of(|t| t.open_s) * 1e3);
    out.insert("store.put_self_us", self_median("store.put"));
    out.insert("store.get_self_us", self_median("store.get"));
    out.insert("store.encode_share", l.encode_vec_us / put.quiet);
    let boot_stat = |f: fn(&Boot) -> f64| median(&x.boots.iter().map(f).collect::<Vec<_>>());
    out.insert(
        "store.recovery_ns",
        boot_stat(|b| b.report.recovery_ns as f64),
    );
    out.insert(
        "store.rolled_back",
        boot_stat(|b| b.report.rolled_back as f64),
    );
    out.insert(
        "store.rolled_forward",
        boot_stat(|b| b.report.rolled_forward as f64),
    );
    out.insert(
        "store.shards_repaired",
        boot_stat(|b| b.report.shards_repaired as f64),
    );
    let (puts, gets) = (x.store.puts() as u64, x.store.gets() as u64);
    let (pc, gc) = (&x.store.put_counts, &x.store.get_counts);
    out.insert("image.store_calls_per_put", ratio(pc.store_calls, puts));
    out.insert("image.store_bytes_per_put", ratio(pc.store_bytes, puts));
    out.insert("image.persists_per_put", ratio(pc.persists, puts));
    out.insert("image.store_us_per_put", ratio(pc.store_ns, puts) / 1e3);
    out.insert("image.persist_us_per_put", ratio(pc.persist_ns, puts) / 1e3);
    out.insert("image.read_calls_per_get", ratio(gc.read_calls, gets));
    out.insert("image.read_bytes_per_get", ratio(gc.read_bytes, gets));

    // memsim
    let sim = x.sim;
    let points = w.sim_points;
    let dc = SimBlock::pooled(&sim.dialga);
    let i = SimBlock::pooled(&sim.isal);
    out.insert(
        "memsim.dialga_gbs",
        SimBlock::gbs(&sim.dialga, points, |_| true),
    );
    out.insert(
        "memsim.isal_gbs",
        SimBlock::gbs(&sim.isal, points, |_| true),
    );
    out.insert(
        "memsim.t1.dialga_gbs",
        SimBlock::gbs(&sim.dialga, points, |p| p.threads == 1),
    );
    out.insert(
        "memsim.t1.isal_gbs",
        SimBlock::gbs(&sim.isal, points, |p| p.threads == 1),
    );
    out.insert(
        "memsim.t12.dialga_gbs",
        SimBlock::gbs(&sim.dialga, points, |p| p.threads == 12),
    );
    out.insert(
        "memsim.t12.isal_gbs",
        SimBlock::gbs(&sim.isal, points, |p| p.threads == 12),
    );
    out.insert("memsim.stall_cyc_per_load", sim::stall_cycles_per_load(&dc));
    out.insert(
        "memsim.isal_stall_cyc_per_load",
        sim::stall_cycles_per_load(&i),
    );
    out.insert("memsim.media_read_amp", dc.media_read_amplification());
    out.insert("memsim.isal_media_read_amp", i.media_read_amplification());
    out.insert("memsim.useless_prefetch_ratio", dc.useless_prefetch_ratio());
    out.insert(
        "memsim.policy_changes",
        sim.policy_changes.iter().sum::<u64>() as f64,
    );
    out.insert("memsim.loads", dc.loads as f64);
    out.insert(
        "memsim.host_ns_per_load",
        1e3 / quiet_quartile(&sim.host_mloads_per_s, true),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scheduler_honours_shares_and_minimum_counts() {
        let mut schedule = Schedule {
            used_s: [0.0; 5],
            count: [0; 5],
        };
        // Every unit costs 0.1 s; run a 20 s window.
        let mut elapsed = 0.0;
        while let Some(unit) = schedule.next(elapsed >= 20.0) {
            schedule.charge(unit, 0.1);
            elapsed += 0.1;
        }
        for unit in UNITS {
            let share = schedule.used_s[unit as usize] / elapsed;
            assert!(
                (share - Schedule::share(unit)).abs() < 0.02,
                "{unit:?} got {share}"
            );
            assert!(schedule.count[unit as usize] >= Schedule::min_count(unit));
        }
        // Kinds alternate: no kind waits for another to finish its share.
        let mut fresh = Schedule {
            used_s: [0.0; 5],
            count: [0; 5],
        };
        let mut first_ten = Vec::new();
        for _ in 0..10 {
            let unit = fresh.next(false).unwrap();
            fresh.charge(unit, 0.1);
            first_ten.push(unit);
        }
        for unit in UNITS {
            assert!(
                first_ten.contains(&unit),
                "{unit:?} not among {first_ten:?}"
            );
        }

        // A window that is over at once still meets every minimum.
        let mut late = Schedule {
            used_s: [0.0; 5],
            count: [0; 5],
        };
        while let Some(unit) = late.next(true) {
            late.charge(unit, 1.0);
        }
        assert_eq!(late.count[Unit::Boot as usize], spec::MIN_BOOTS);
        assert_eq!(late.count[Unit::Setup as usize], spec::SETUP_REPS - 1);
    }

    #[test]
    fn shares_cover_the_window() {
        let total: f64 = UNITS.into_iter().map(Schedule::share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
