//! Workload-harness integration tests (PR 7): service latency accounting
//! under injected delay, fixed-seed replay reporting, the three canonical
//! profiles, and chaos-armed integrity-scrub outcomes.

use dialga_faultkit::FaultSchedule;
use dialga_service::{ServiceConfig, StripeService};
use dialga_workload::{replay_service, Mix, Phase, WorkloadSpec};
use std::time::{Duration, Instant};

const K: usize = 4;
const M: usize = 2;

fn stripe(block: usize) -> Vec<Vec<u8>> {
    (0..K)
        .map(|i| {
            (0..block)
                .map(|j| ((i * 131 + j * 17) % 256) as u8)
                .collect()
        })
        .collect()
}

/// Pause dispatch, park a batch of encodes behind the pause for a known
/// delay, then resume: every op's client-observed latency must include
/// the injected delay, so the per-class p50 and p99 the service reports
/// must bracket it (lower bound: the delay itself; upper bound: a
/// generous 8x for the drain).
#[test]
fn per_class_latency_brackets_injected_service_delay() {
    let svc = StripeService::new(ServiceConfig {
        shards: 1,
        threads_per_shard: 1,
        k: K,
        m: M,
        block_bytes: 4096,
        queue_depth: 64,
        ..ServiceConfig::default()
    })
    .expect("service");
    let delay = Duration::from_millis(60);

    svc.set_paused(true);
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            svc.submit_encode(i % 4, stripe(4096), None)
                .expect("paused submits are queued, not rejected")
        })
        .collect();
    let parked_at = Instant::now();
    std::thread::sleep(delay);
    svc.set_paused(false);
    for ticket in tickets {
        ticket.wait().expect("encode completes after resume");
    }
    let drained = parked_at.elapsed();

    let stats = svc.stats();
    let encode = stats
        .classes
        .iter()
        .find(|c| c.op == "encode")
        .expect("encode class present");
    assert_eq!(encode.count, 12, "every encode recorded exactly once");
    let delay_us = delay.as_secs_f64() * 1e6;
    let ceiling_us = (drained.as_secs_f64() * 1e6 * 8.0).max(8.0 * delay_us);
    assert!(
        encode.p50_us >= delay_us,
        "p50 {:.1} us cannot undercut the {delay_us:.0} us injected delay",
        encode.p50_us
    );
    assert!(
        encode.p99_us >= encode.p50_us,
        "quantiles must be monotone: p50 {:.1} > p99 {:.1}",
        encode.p50_us,
        encode.p99_us
    );
    assert!(
        encode.p99_us <= ceiling_us,
        "p99 {:.1} us exceeds the {ceiling_us:.0} us bracket",
        encode.p99_us
    );
}

/// A fixed-seed replay must produce an internally consistent report.
#[test]
fn fixed_seed_replay_report_is_consistent_and_schema_valid() {
    let mut spec = WorkloadSpec::new(42);
    spec.k = K;
    spec.m = M;
    spec.shards = 2;
    spec.threads_per_shard = 1;
    spec.working_set = 6;
    let spec = spec
        .phase(
            Phase::new("small", 60, Mix::new(5, 3, 1, 1))
                .block(2048)
                .closed(12),
        )
        .phase(
            Phase::new("shift", 48, Mix::new(2, 5, 1, 2))
                .block(16 * 1024)
                .zipf(0.99)
                .closed(8),
        );
    let report = replay_service("fixed", &spec, &FaultSchedule::new()).expect("replay");

    assert_eq!(report.phases.len(), 2);
    let phase_ops: u64 = report.phases.iter().map(|p| p.ops_done).sum();
    assert_eq!(report.ops, phase_ops, "profile ops must equal phase sum");
    let all = report.classes.iter().find(|c| c.op == "all").expect("all");
    assert_eq!(all.count, report.ops, "aggregate class counts every op");
    for class in &report.classes {
        assert!(
            class.p50_us <= class.p99_us && class.p99_us <= class.p999_us,
            "non-monotone quantiles in {class:?}"
        );
    }
    assert_eq!(report.scrubs.missed, 0);
}

/// Each canonical profile, shrunk: every op is accounted to a phase and no
/// scrub passes a corrupted stripe (`chaos` corrupts 30 % of its storm
/// phase's scrub targets even with no fault plan armed).
#[test]
fn canonical_profiles_replay_without_a_missed_scrub() {
    let seed = 0xD1A1_6A07;
    for (name, spec) in [
        ("steady", WorkloadSpec::steady(seed)),
        ("skewed_bursty", WorkloadSpec::skewed_bursty(seed)),
        ("chaos", WorkloadSpec::chaos(seed)),
    ] {
        let report = replay_service(name, &spec.smoke(8), &FaultSchedule::new()).expect("replay");
        assert_eq!(report.scrubs.missed, 0, "{name}: {:?}", report.scrubs);
        let phase_ops: u64 = report.phases.iter().map(|p| p.ops_done).sum();
        assert_eq!(
            report.ops, phase_ops,
            "{name}: ops must equal the phase sum"
        );
        assert!(report.ops > 0, "{name}: nothing completed");
    }
}

/// The chaos profile with a seeded fault schedule armed: scripted stripe
/// corruption must be *detected* by scrubs (never missed), even while
/// workers are being killed and revived underneath the service.
#[test]
fn chaos_armed_replay_detects_every_scripted_corruption() {
    let spec = WorkloadSpec::chaos(7).smoke(4);
    let chaos = FaultSchedule::seeded(7, spec.threads_per_shard, &["chaos_storm"]);
    assert!(!chaos.is_empty(), "seeded schedule must carry plans");
    let report = replay_service("chaos", &spec, &chaos).expect("replay");

    assert!(
        report.scrubs.corrupt_detected > 0,
        "a 30% corruption probability over a scrub-heavy storm must trip: {:?}",
        report.scrubs
    );
    assert_eq!(
        report.scrubs.missed, 0,
        "verification must never pass a corrupted stripe"
    );
    assert!(report.ops > 0 && report.ops_per_s > 0.0);
    // The storm phase is armed per-phase: deaths recorded there must be
    // reflected in the phase report (0 is legal if the plan's cells all
    // miss, but accounting must never go negative/overflow).
    let storm = report
        .phases
        .iter()
        .find(|p| p.name == "chaos_storm")
        .expect("storm phase");
    assert!(storm.worker_deaths < 1_000, "sane death count");
}
