//! Run reports: what [`replay_service`] returns for one replayed profile —
//! throughput, exact client-observed latency quantiles per op class,
//! integrity-scrub outcomes, coordinator convergence after each phase
//! shift, and the final service counters.
//!
//! [`replay_service`]: crate::replay::replay_service

/// Client-observed latency summary for one op class (exact quantiles
/// over the recorded samples, unlike the service's bucketed histogram).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassReport {
    /// Class name (`"encode"`, `"decode"`, `"repair"`, `"scrub"`).
    pub op: String,
    /// Completed operations of this class.
    pub count: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Worst sample, µs.
    pub max_us: f64,
}

impl ClassReport {
    /// Summarise raw nanosecond samples (sorted in place). Empty sample
    /// sets yield an all-zero report with just the name set.
    pub fn from_samples(op: &str, samples: &mut [u64]) -> ClassReport {
        samples.sort_unstable();
        let n = samples.len();
        if n == 0 {
            return ClassReport {
                op: op.to_string(),
                ..ClassReport::default()
            };
        }
        let q = |frac: f64| -> f64 {
            let rank = ((frac * n as f64).ceil() as usize).clamp(1, n);
            samples[rank - 1] as f64 / 1_000.0
        };
        let total: u64 = samples.iter().sum();
        ClassReport {
            op: op.to_string(),
            count: n as u64,
            mean_us: total as f64 / n as f64 / 1_000.0,
            p50_us: q(0.50),
            p99_us: q(0.99),
            p999_us: q(0.999),
            max_us: samples[n - 1] as f64 / 1_000.0,
        }
    }
}

/// Integrity-scrub outcome tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubOutcomes {
    /// Scrubs of untouched stripes that verified clean.
    pub clean: u64,
    /// Scrubs of corrupted stripes that the syndrome check caught.
    pub corrupt_detected: u64,
    /// Corrupted stripes reported clean — must be zero; a non-zero value
    /// is a correctness bug in the verify path.
    pub missed: u64,
}

impl ScrubOutcomes {
    fn add(&mut self, other: &ScrubOutcomes) {
        self.clean += other.clean;
        self.corrupt_detected += other.corrupt_detected;
        self.missed += other.missed;
    }
}

/// Per-phase results within one profile run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    /// Phase name from the spec.
    pub name: String,
    /// Operations completed (excludes rejected submissions).
    pub ops_done: u64,
    /// Submissions rejected by admission control during this phase.
    pub rejected: u64,
    /// Requests that expired in queue during this phase.
    pub expired: u64,
    /// Phase wall-clock, seconds.
    pub wall_s: f64,
    /// Completed operations per second.
    pub ops_per_s: f64,
    /// Payload throughput, MiB/s (data bytes of completed ops).
    pub mib_s: f64,
    /// Milliseconds from phase start until the last coordinator policy
    /// change triggered by this phase's load (`None` when no shard's
    /// coordinator changed policy — e.g. the load didn't shift regimes).
    pub convergence_ms: Option<f64>,
    /// Worker deaths observed during the phase (chaos evidence).
    pub worker_deaths: u64,
    /// Scrub outcomes within the phase.
    pub scrubs: ScrubOutcomes,
    /// Client-observed per-class latency within the phase.
    pub classes: Vec<ClassReport>,
}

/// Final service-side counter snapshot for one profile run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSummary {
    /// Requests admitted.
    pub submitted: u64,
    /// Responses delivered.
    pub completed: u64,
    /// Admission rejections.
    pub rejected: u64,
    /// Deadline expiries.
    pub expired: u64,
    /// Load-aware spills to the neighbour shard.
    pub spilled: u64,
    /// Fused batches dispatched.
    pub batches: u64,
    /// Requests carried by those batches.
    pub coalesced: u64,
    /// Batch-level failures retried request-by-request.
    pub fallbacks: u64,
    /// Queue-depth high-water mark per shard.
    pub queue_peak: Vec<usize>,
}

/// The complete result of replaying one profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Profile name (`steady`, `skewed_bursty`, `chaos`, …).
    pub profile: String,
    /// Spec seed (reproduces the trace).
    pub seed: u64,
    /// Data blocks per stripe.
    pub k: usize,
    /// Parity blocks per stripe.
    pub m: usize,
    /// Service shards.
    pub shards: usize,
    /// Workers per shard.
    pub threads_per_shard: usize,
    /// Tenants offering load.
    pub tenants: u32,
    /// Operations completed across all phases.
    pub ops: u64,
    /// Total wall-clock, seconds.
    pub wall_s: f64,
    /// Overall completed operations per second.
    pub ops_per_s: f64,
    /// Overall payload throughput, MiB/s.
    pub mib_s: f64,
    /// Convergence time of the *last* phase that both shifted the load
    /// and produced a coordinator policy change (`None` when no shift
    /// re-converged — single-phase profiles usually report `None`).
    pub convergence_after_shift_ms: Option<f64>,
    /// Scrub outcomes across all phases.
    pub scrubs: ScrubOutcomes,
    /// Client-observed per-class latency across all phases.
    pub classes: Vec<ClassReport>,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseReport>,
    /// Final service counter snapshot.
    pub service: ServiceSummary,
}

impl RunReport {
    /// Fold phase tallies into the profile-level totals (ops, scrubs,
    /// rejected/expired come from phases; rates need `wall_s` set).
    pub fn fold_phases(&mut self) {
        self.ops = self.phases.iter().map(|p| p.ops_done).sum();
        let mut scrubs = ScrubOutcomes::default();
        for phase in &self.phases {
            scrubs.add(&phase.scrubs);
        }
        self.scrubs = scrubs;
        self.convergence_after_shift_ms = self
            .phases
            .iter()
            .skip(1)
            .rev()
            .find_map(|p| p.convergence_ms);
        if self.wall_s > 0.0 {
            self.ops_per_s = self.ops as f64 / self.wall_s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut encode_ns = vec![10_000u64, 20_000, 30_000, 900_000];
        let mut report = RunReport {
            profile: "steady".to_string(),
            seed: 7,
            k: 6,
            m: 3,
            shards: 2,
            threads_per_shard: 2,
            tenants: 8,
            wall_s: 0.5,
            mib_s: 12.5,
            classes: vec![ClassReport::from_samples("encode", &mut encode_ns)],
            phases: vec![PhaseReport {
                name: "steady".to_string(),
                ops_done: 4,
                wall_s: 0.5,
                ops_per_s: 8.0,
                mib_s: 12.5,
                scrubs: ScrubOutcomes {
                    clean: 2,
                    corrupt_detected: 1,
                    missed: 0,
                },
                classes: Vec::new(),
                ..PhaseReport::default()
            }],
            ..RunReport::default()
        };
        report.fold_phases();
        report
    }

    #[test]
    fn class_report_quantiles_are_exact() {
        let mut samples: Vec<u64> = (1..=1000).map(|i| i * 1_000).collect();
        let c = ClassReport::from_samples("encode", &mut samples);
        assert_eq!(c.count, 1000);
        assert_eq!(c.p50_us, 500.0);
        assert_eq!(c.p99_us, 990.0);
        assert_eq!(c.p999_us, 999.0);
        assert_eq!(c.max_us, 1000.0);
        let mut empty = Vec::new();
        let e = ClassReport::from_samples("scrub", &mut empty);
        assert_eq!(e.count, 0);
        assert_eq!(e.p999_us, 0.0);
    }

    #[test]
    fn fold_phases_picks_latest_shift_convergence() {
        let mut report = sample_report();
        report.phases.push(PhaseReport {
            name: "shift".to_string(),
            ops_done: 2,
            convergence_ms: Some(12.0),
            ..PhaseReport::default()
        });
        report.phases.push(PhaseReport {
            name: "tail".to_string(),
            ops_done: 2,
            convergence_ms: None,
            ..PhaseReport::default()
        });
        report.fold_phases();
        assert_eq!(report.convergence_after_shift_ms, Some(12.0));
        assert_eq!(report.ops, 8);
        // Phase 0's convergence (if any) is warm-up, not a shift.
        report.phases[0].convergence_ms = Some(99.0);
        report.phases[1].convergence_ms = None;
        report.fold_phases();
        assert_eq!(report.convergence_after_shift_ms, None);
    }
}
