//! The replayer: turn a [`WorkloadSpec`] into live traffic.
//!
//! [`replay_service`] drives a freshly built [`StripeService`] phase by
//! phase from one seeded RNG. Every phase:
//!
//! 1. arms its [`FaultSchedule`] plan on every shard (only with the
//!    `fault-injection` feature; plain builds replay clean),
//! 2. snapshots each shard's coordinator (policy-change count + clock)
//!    so the phase can report convergence-after-shift,
//! 3. issues `ops` operations — tenant and stripe drawn Zipf-hot, class
//!    drawn from the mix, arrivals closed- or open-loop with optional
//!    on/off bursts — measuring **client-observed** latency per class,
//! 4. drains, disarms, and closes the books: throughput, scrub
//!    outcomes, rejections, worker deaths, convergence.

use crate::report::{ClassReport, PhaseReport, RunReport, ScrubOutcomes, ServiceSummary};
use crate::spec::{Arrival, Phase, WorkloadSpec};
use crate::zipf::Zipf;
use dialga::encoder::Dialga;
use dialga_ec::EcError;
use dialga_faultkit::{flip_byte, FaultSchedule};
use dialga_service::{OpKind, ServiceConfig, ServiceError, StripeService, Ticket};
use dialga_testkit::Rng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One stripe of the working set: its data blocks and the full verified
/// `k + m` shard vector (data ++ parity).
struct Stripe {
    data: Vec<Vec<u8>>,
    full: Vec<Vec<u8>>,
}

fn build_working_set(
    coder: &Dialga,
    rng: &mut Rng,
    count: usize,
    block_bytes: usize,
) -> Result<Vec<Stripe>, EcError> {
    let k = coder.params().k;
    let mut set = Vec::with_capacity(count);
    for _ in 0..count.max(1) {
        let data: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(block_bytes)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = coder.encode_vec(&refs)?;
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        set.push(Stripe { data, full });
    }
    Ok(set)
}

/// One outstanding request and what we expect back.
struct InFlight {
    ticket: Ticket,
    kind: OpKind,
    expect_corrupt: bool,
    bytes: usize,
    issued: Instant,
}

/// Tallies accumulated while a phase runs.
#[derive(Default)]
struct PhaseAccum {
    class_ns: [Vec<u64>; 4],
    ops_done: u64,
    bytes_done: u64,
    expired: u64,
    scrubs: ScrubOutcomes,
}

impl PhaseAccum {
    fn settle(&mut self, flight: &InFlight, result: Result<Vec<Vec<u8>>, ServiceError>) {
        match result {
            Ok(_) => {
                self.record_done(flight);
                if flight.kind == OpKind::Scrub {
                    if flight.expect_corrupt {
                        // A corrupted stripe sailed through verification:
                        // the report surfaces this as a hard red flag.
                        self.scrubs.missed += 1;
                    } else {
                        self.scrubs.clean += 1;
                    }
                }
            }
            Err(ServiceError::Coding(EcError::Corrupt { .. })) => {
                self.record_done(flight);
                if flight.kind == OpKind::Scrub {
                    self.scrubs.corrupt_detected += 1;
                }
            }
            Err(ServiceError::Expired { .. }) => self.expired += 1,
            // Chaos can surface other coding errors (a batch that lost
            // its workers mid-flight); the response still completes the
            // request, so it still counts toward throughput.
            Err(_) => self.record_done(flight),
        }
    }

    fn record_done(&mut self, flight: &InFlight) {
        self.ops_done += 1;
        self.bytes_done += flight.bytes as u64;
        self.class_ns[flight.kind.index()].push(flight.issued.elapsed().as_nanos() as u64);
    }
}

/// Poll-drain every already-completed request at the front of the
/// window (non-blocking), keeping client-observed latency honest for
/// pipelined completions.
fn drain_ready(window: &mut VecDeque<InFlight>, accum: &mut PhaseAccum) {
    while let Some(front) = window.front() {
        match front.ticket.wait_timeout(Duration::ZERO) {
            Some(result) => {
                let flight = window.pop_front().expect("front exists");
                accum.settle(&flight, result);
            }
            None => break,
        }
    }
}

/// Block on the oldest outstanding request.
fn drain_one(window: &mut VecDeque<InFlight>, accum: &mut PhaseAccum) {
    if let Some(flight) = window.pop_front() {
        let result = flight.ticket.wait_timeout(Duration::from_secs(30));
        match result {
            Some(r) => accum.settle(&flight, r),
            // A request stuck past 30 s means the harness itself is
            // wedged; count it as expired rather than hanging the bench.
            None => accum.expired += 1,
        }
    }
}

fn build_op(
    rng: &mut Rng,
    stripes: &[Stripe],
    hot_stripe: &Zipf,
    phase: &Phase,
    k: usize,
    m: usize,
) -> (OpKind, OpBody, bool) {
    let kind = phase.mix.sample(rng);
    let stripe = &stripes[hot_stripe.sample(rng)];
    let total = k + m;
    match kind {
        OpKind::Encode => (kind, OpBody::Encode(stripe.data.clone()), false),
        OpKind::Decode => {
            let mut shards: Vec<Option<Vec<u8>>> = stripe.full.iter().cloned().map(Some).collect();
            let holes = 1 + rng.below(m as u64) as usize;
            let mut punched = 0;
            while punched < holes {
                let at = rng.below(total as u64) as usize;
                if shards[at].is_some() {
                    shards[at] = None;
                    punched += 1;
                }
            }
            (kind, OpBody::Decode(shards), false)
        }
        OpKind::Repair => {
            let target = rng.below(total as u64) as usize;
            let mut shards: Vec<Option<Vec<u8>>> = stripe.full.iter().cloned().map(Some).collect();
            shards[target] = None;
            (kind, OpBody::Repair(shards, target), false)
        }
        OpKind::Scrub => {
            let mut shards = stripe.full.clone();
            let corrupt = phase.corrupt_prob > 0.0 && rng.bool_with(phase.corrupt_prob);
            if corrupt {
                let victim = rng.below(total as u64) as usize;
                let len = shards[victim].len().max(1);
                let offset = rng.below(len as u64) as usize;
                flip_byte(&mut shards[victim], offset, rng.u8());
            }
            (kind, OpBody::Scrub(shards), corrupt)
        }
    }
}

enum OpBody {
    Encode(Vec<Vec<u8>>),
    Decode(Vec<Option<Vec<u8>>>),
    Repair(Vec<Option<Vec<u8>>>, usize),
    Scrub(Vec<Vec<u8>>),
}

impl OpBody {
    fn bytes(&self) -> usize {
        match self {
            OpBody::Encode(data) => data.iter().map(Vec::len).sum(),
            OpBody::Decode(shards) | OpBody::Repair(shards, _) => {
                shards.iter().flatten().map(Vec::len).sum()
            }
            OpBody::Scrub(shards) => shards.iter().map(Vec::len).sum(),
        }
    }

    fn submit(self, svc: &StripeService, tenant: u32) -> Result<Ticket, ServiceError> {
        match self {
            OpBody::Encode(data) => svc.submit_encode(tenant, data, None),
            OpBody::Decode(shards) => svc.submit_decode(tenant, shards, None),
            OpBody::Repair(shards, target) => svc.submit_repair(tenant, shards, target, None),
            OpBody::Scrub(shards) => svc.submit_scrub(tenant, shards, None),
        }
    }
}

/// Sum of worker deaths across all shard pools.
fn total_worker_deaths(svc: &StripeService) -> u64 {
    (0..svc.shards())
        .filter_map(|s| svc.shard_pool_stats(s))
        .map(|stats| stats.worker_deaths)
        .sum()
}

/// Per-shard coordinator baseline: (policy changes so far, clock now).
fn coordinator_baselines(svc: &StripeService) -> Vec<Option<(u64, f64)>> {
    (0..svc.shards())
        .map(|s| {
            svc.shard_coordinator(s)
                .and_then(|snap| svc.shard_clock_ns(s).map(|t0| (snap.policy_changes, t0)))
        })
        .collect()
}

/// Convergence after the phase started: the latest policy-change
/// timestamp (relative to the phase start) over shards whose coordinator
/// changed policy during the phase.
fn convergence_since(svc: &StripeService, baselines: &[Option<(u64, f64)>]) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for (s, baseline) in baselines.iter().enumerate() {
        let Some((changes0, t0)) = baseline else {
            continue;
        };
        let Some(snap) = svc.shard_coordinator(s) else {
            continue;
        };
        if snap.policy_changes <= *changes0 {
            continue;
        }
        if let Some(t) = snap.last_change_ns {
            if t >= *t0 {
                let ms = (t - t0) / 1e6;
                worst = Some(worst.map_or(ms, |w| w.max(ms)));
            }
        }
    }
    worst
}

/// Replay `spec` against a freshly built [`StripeService`], arming
/// `chaos` phase by phase (a no-op without the `fault-injection`
/// feature), and return the full profile report.
pub fn replay_service(
    profile: &str,
    spec: &WorkloadSpec,
    chaos: &FaultSchedule,
) -> Result<RunReport, EcError> {
    let coder = Dialga::new(spec.k, spec.m)?;
    let first_block = spec.phases.first().map_or(16 * 1024, |p| p.block_bytes);
    let svc = StripeService::new(ServiceConfig {
        shards: spec.shards,
        threads_per_shard: spec.threads_per_shard,
        k: spec.k,
        m: spec.m,
        block_bytes: first_block as u64,
        queue_depth: spec.queue_depth,
        ..ServiceConfig::default()
    })?;
    #[cfg(not(feature = "fault-injection"))]
    let _ = chaos;

    let mut rng = Rng::new(spec.seed);
    let mut overall_ns: [Vec<u64>; 4] = Default::default();
    let mut phase_reports = Vec::with_capacity(spec.phases.len());
    let run_start = Instant::now();
    let mut total_bytes = 0u64;

    for phase in &spec.phases {
        let stripes = build_working_set(&coder, &mut rng, spec.working_set, phase.block_bytes)?;
        let hot_stripe = Zipf::new(stripes.len(), phase.zipf_theta);
        let hot_tenant = Zipf::new(spec.tenants.max(1) as usize, phase.zipf_theta);

        #[cfg(feature = "fault-injection")]
        if let Some(plan) = chaos.plan_for(&phase.name) {
            for s in 0..svc.shards() {
                svc.arm_shard_faults(s, plan);
            }
        }

        let stats_before = svc.stats();
        let deaths_before = total_worker_deaths(&svc);
        let baselines = coordinator_baselines(&svc);
        let mut accum = PhaseAccum::default();
        let mut window: VecDeque<InFlight> = VecDeque::new();
        let mut rejected = 0u64;
        let phase_start = Instant::now();

        let (closed_window, pace) = match phase.arrival {
            Arrival::Closed { in_flight } => (in_flight.max(1), None),
            Arrival::Open { ops_per_s } => (
                usize::MAX,
                Some(Duration::from_secs_f64(1.0 / ops_per_s.max(1.0))),
            ),
        };
        let mut next_at = Instant::now();

        for op_idx in 0..phase.ops {
            if let Some(gap) = pace {
                let now = Instant::now();
                if now < next_at {
                    std::thread::sleep(next_at - now);
                }
                next_at += gap;
            }
            let (kind, body, expect_corrupt) =
                build_op(&mut rng, &stripes, &hot_stripe, phase, spec.k, spec.m);
            let tenant = hot_tenant.sample(&mut rng) as u32;
            let bytes = body.bytes();
            // Stamp BEFORE submitting: the service may caller-run
            // dispatch, completing the op inside `submit`, and that
            // time is part of the client-observed latency.
            let issued = Instant::now();
            match body.submit(&svc, tenant) {
                Ok(ticket) => window.push_back(InFlight {
                    ticket,
                    kind,
                    expect_corrupt,
                    bytes,
                    issued,
                }),
                Err(ServiceError::Rejected { .. }) => {
                    rejected += 1;
                    // Open loop: rejected work is lost, by design.
                    // Closed loop: free a slot and retry once; if the
                    // retry also bounces, drop the op.
                    if pace.is_none() {
                        drain_one(&mut window, &mut accum);
                        let (_, retry_body, _) =
                            build_op(&mut rng, &stripes, &hot_stripe, phase, spec.k, spec.m);
                        let issued = Instant::now();
                        match retry_body.submit(&svc, tenant) {
                            Ok(ticket) => window.push_back(InFlight {
                                ticket,
                                kind,
                                expect_corrupt,
                                bytes,
                                issued,
                            }),
                            Err(_) => rejected += 1,
                        }
                    }
                }
                // Geometry errors cannot happen for generated ops; treat
                // any other submit error as a dropped op.
                Err(_) => {}
            }
            drain_ready(&mut window, &mut accum);
            while window.len() >= closed_window {
                drain_one(&mut window, &mut accum);
            }
            if let Some(burst) = phase.burst {
                if burst.on_ops > 0 && (op_idx + 1) % burst.on_ops == 0 {
                    std::thread::sleep(Duration::from_micros(burst.off_us));
                    next_at = Instant::now();
                }
            }
        }
        while !window.is_empty() {
            drain_one(&mut window, &mut accum);
        }

        let wall = phase_start.elapsed().as_secs_f64().max(1e-9);
        let convergence_ms = convergence_since(&svc, &baselines);
        #[cfg(feature = "fault-injection")]
        if chaos.plan_for(&phase.name).is_some() {
            for s in 0..svc.shards() {
                svc.disarm_shard_faults(s);
            }
        }
        let stats_after = svc.stats();

        let mut classes = Vec::with_capacity(4);
        for kind in OpKind::ALL {
            let samples = &mut accum.class_ns[kind.index()];
            overall_ns[kind.index()].extend_from_slice(samples);
            classes.push(ClassReport::from_samples(kind.name(), samples));
        }
        total_bytes += accum.bytes_done;
        phase_reports.push(PhaseReport {
            name: phase.name.clone(),
            ops_done: accum.ops_done,
            rejected,
            expired: accum.expired + stats_after.expired.saturating_sub(stats_before.expired),
            wall_s: wall,
            ops_per_s: accum.ops_done as f64 / wall,
            mib_s: accum.bytes_done as f64 / wall / (1024.0 * 1024.0),
            convergence_ms,
            worker_deaths: total_worker_deaths(&svc).saturating_sub(deaths_before),
            scrubs: accum.scrubs,
            classes,
        });
    }

    let wall_s = run_start.elapsed().as_secs_f64().max(1e-9);
    let stats = svc.stats();
    // Per-class reports plus an "all" aggregate over every completed op,
    // so consumers that want one combined p50/p99 don't have to merge
    // quantiles approximately.
    let mut all_ns: Vec<u64> = overall_ns.iter().flatten().copied().collect();
    let mut classes: Vec<ClassReport> = OpKind::ALL
        .iter()
        .map(|kind| ClassReport::from_samples(kind.name(), &mut overall_ns[kind.index()]))
        .collect();
    classes.push(ClassReport::from_samples("all", &mut all_ns));
    let mut report = RunReport {
        profile: profile.to_string(),
        seed: spec.seed,
        k: spec.k,
        m: spec.m,
        shards: spec.shards,
        threads_per_shard: spec.threads_per_shard,
        tenants: spec.tenants,
        wall_s,
        mib_s: total_bytes as f64 / wall_s / (1024.0 * 1024.0),
        classes,
        phases: phase_reports,
        service: ServiceSummary {
            submitted: stats.submitted,
            completed: stats.completed,
            rejected: stats.rejected,
            expired: stats.expired,
            spilled: stats.spilled,
            batches: stats.batches,
            coalesced: stats.coalesced,
            fallbacks: stats.fallbacks,
            queue_peak: stats.shard_queue_peak,
        },
        ..RunReport::default()
    };
    report.fold_phases();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Mix;

    fn tiny_spec(seed: u64) -> WorkloadSpec {
        let mut spec = WorkloadSpec::new(seed);
        spec.k = 4;
        spec.m = 2;
        spec.shards = 1;
        spec.threads_per_shard = 1;
        spec.working_set = 4;
        spec.phase(
            Phase::new("tiny", 48, Mix::new(4, 2, 1, 2))
                .block(2048)
                .closed(8),
        )
    }

    #[test]
    fn tiny_replay_completes_and_accounts_every_op() {
        let report = replay_service("tiny", &tiny_spec(5), &FaultSchedule::new()).expect("replay");
        assert_eq!(report.phases.len(), 1);
        let phase = &report.phases[0];
        assert_eq!(
            phase.ops_done + phase.expired,
            48 - phase.rejected.min(48),
            "every issued op must be accounted: {phase:?}"
        );
        assert!(report.ops > 0);
        assert!(report.ops_per_s > 0.0);
        assert_eq!(report.scrubs.missed, 0);
        assert_eq!(report.scrubs.corrupt_detected, 0, "no corruption scripted");
        let encode = report.classes.iter().find(|c| c.op == "encode").unwrap();
        assert!(encode.count > 0);
        assert!(encode.p50_us <= encode.p99_us && encode.p99_us <= encode.p999_us);
    }

    #[test]
    fn corrupting_phase_reports_detected_scrubs() {
        let mut spec = tiny_spec(6);
        spec.phases[0].corrupt_prob = 0.5;
        spec.phases[0].mix = Mix::new(1, 0, 0, 6);
        let report = replay_service("corrupt", &spec, &FaultSchedule::new()).expect("replay");
        assert!(
            report.scrubs.corrupt_detected > 0,
            "50% corruption over a scrub-heavy mix must be caught: {:?}",
            report.scrubs
        );
        assert_eq!(report.scrubs.missed, 0, "verify must never miss");
    }

    #[test]
    fn replay_is_trace_deterministic() {
        // Same seed → identical op counts and scrub outcomes (timings of
        // course differ; the trace must not).
        let a = replay_service("a", &tiny_spec(9), &FaultSchedule::new()).expect("a");
        let b = replay_service("b", &tiny_spec(9), &FaultSchedule::new()).expect("b");
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.scrubs, b.scrubs);
        let counts = |r: &RunReport| -> Vec<u64> { r.classes.iter().map(|c| c.count).collect() };
        assert_eq!(counts(&a), counts(&b));
    }
}
