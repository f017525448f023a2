//! The adaptive coordinator (§4.1): counter sampling, threshold heuristics,
//! I/O-pattern rules and the Eq. (1) distance bound.

use crate::hillclimb::HillClimber;
use crate::isal::Knobs;
use dialga_memsim::{Counters, MachineConfig};
use std::collections::VecDeque;

/// Latency threshold: contention is declared when the interval's average
/// load latency exceeds 110 % of the low-pressure baseline (§4.1, after
/// MT^2 \[33\]).
pub const LATENCY_THRESHOLD: f64 = 1.10;
/// Useless-prefetch threshold: the hardware prefetcher is declared
/// inefficient when the interval's useless-prefetch count exceeds 150 % of
/// the baseline interval's (§4.1).
pub const USELESS_THRESHOLD: f64 = 1.50;
/// Concurrency threshold: beyond this many threads DIALGA pre-emptively
/// disables the hardware prefetcher and expands task granularity (§4.1,
/// derived from the 96 KiB read buffer in §4.3.3).
pub const THREAD_THRESHOLD: usize = 12;
/// Default sampling interval: 1 kHz, the rate the paper samples PMU
/// counters at to stay low-overhead (§4.1, after Shim \[32\]).
pub const SAMPLE_INTERVAL_NS: f64 = 1_000_000.0;

/// Interval pressure assessment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureState {
    /// Read-traffic contention (latency over 110 % of baseline).
    pub contended: bool,
    /// Hardware prefetcher inefficiency (useless prefetches over 150 % of
    /// baseline).
    pub prefetcher_inefficient: bool,
}

/// The strategy the coordinator currently dispatches (one of the "entry
/// point variants" of §4.1 — the coordinator switches between statically
/// compiled kernels rather than instrumenting dynamically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Scheduling knobs handed to the encode kernels.
    pub knobs: Knobs,
    /// Whether the hardware prefetcher is currently being suppressed via
    /// the shuffle mapping.
    pub hw_suppressed: bool,
    /// Last pressure assessment.
    pub pressure: PressureState,
}

/// Maximum software prefetch distance permitted by Eq. (1):
/// `nthread * k * unit * ceil(max(d)/(k+m)) <= buffersize`, with `m = 0`
/// because parity is written with non-temporal stores. `unit_bytes` is the
/// device's implicit-load granularity (256 B XPLines on Optane).
pub fn eq1_max_distance(threads: usize, k: usize, buffer_bytes: u64, unit_bytes: u64) -> u32 {
    const CEILING: u64 = 4096;
    let per_wave = threads as u64 * k as u64 * unit_bytes;
    // Degenerate wave size (threads = 0, k = 0, or unit_bytes = 0): the
    // buffer imposes no constraint, so the distance is limited only by the
    // documented ceiling below — not `u32::MAX`, which would hand the hill
    // climber an unbounded search space no real device justifies.
    // (`checked_div`: None exactly in the degenerate case above.)
    let d = buffer_bytes
        .checked_div(per_wave)
        // Floor of the allowed multiple of k rows.
        .map_or(u64::MAX, |waves| waves.saturating_mul(k as u64));
    // Never clamp below one row (d = k): the pipelined kernel needs at
    // least the next row in flight, and the ablation harness shows d = k
    // strictly beats shorter distances even past the budget. (The floor
    // itself saturates at the ceiling so stripes wider than 4096 rows
    // cannot invert the clamp.)
    d.clamp((k as u64).min(CEILING), CEILING) as u32
}

/// Read-only snapshot of coordinator activity (the benchmark's
/// `memsim.policy_changes` sums its `policy_changes` over the simulated
/// points): the coordinator has settled once no further policy change
/// lands, so the interesting quantities are how many changes have happened
/// and when the newest one did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinatorSnapshot {
    /// Samples taken so far.
    pub samples: u64,
    /// Policy changes published so far (monotone; unlike the ring-buffered
    /// policy log, this never forgets evicted changes).
    pub policy_changes: u64,
    /// Timestamp of the newest policy change, if any (same clock as
    /// [`Coordinator::on_tick`]'s `now_ns`).
    pub last_change_ns: Option<f64>,
    /// Eq. (1) distance bound in effect.
    pub d_max: u32,
    /// Currently dispatched software prefetch distance.
    pub sw_distance: Option<u32>,
    /// Whether the hardware prefetcher is currently suppressed.
    pub hw_suppressed: bool,
}

/// The adaptive coordinator.
#[derive(Debug, Clone)]
pub struct Coordinator {
    k: usize,
    wide_stripe: bool,
    /// More than [`THREAD_THRESHOLD`] threads: the hardware prefetcher stays
    /// suppressed and tasks are 256 B-expanded, for the coordinator's life.
    high_threads: bool,
    d_max: u32,
    l2_hit_ns: f64,
    /// Sampling interval (simulated ns).
    pub sample_interval_ns: f64,
    next_sample_ns: f64,
    last: Counters,
    last_sample_ns: f64,
    baseline_latency: Option<f64>,
    baseline_useless: Option<f64>,
    climber: HillClimber,
    policy: Policy,
    samples: u64,
    /// Total policy changes published (not capped like the log).
    changes: u64,
    /// Timestamp of the newest policy change.
    last_change_ns: Option<f64>,
    /// Timestamped policy changes (ring buffer of the most recent
    /// [`LOG_CAP`]), for tracing/telemetry.
    log: VecDeque<(f64, Policy)>,
}

/// Maximum retained policy-log entries (oldest are evicted first).
pub const LOG_CAP: usize = 4096;

impl Coordinator {
    /// Build a coordinator for one encoding configuration. The static
    /// I/O-pattern rules of §4.1 pick the initial policy; sampling then
    /// adapts it.
    pub fn new(k: usize, threads: usize, cfg: &MachineConfig) -> Self {
        let wide_stripe = k > cfg.prefetcher.streams;
        let high_threads = threads > THREAD_THRESHOLD;
        let d_max = eq1_max_distance(threads, k, cfg.pm.read_buffer_bytes, cfg.pm.unit_bytes);
        let climber = HillClimber::new(k as u32, 4, d_max.max(4));

        // Initial policy:
        // * high concurrency -> suppress HW prefetching (shuffle) and
        //   expand task granularity to XPLines (§4.1, §4.3.3);
        // * wide stripes -> no HW management needed (the prefetcher's
        //   stream table overflows and it silences itself);
        // * otherwise leave the HW prefetcher on (its amplified traffic is
        //   harmless at low pressure) and add pipelined SW prefetching with
        //   the buffer-friendly per-XPLine distance split.
        let hw_suppressed = high_threads;
        let knobs = Knobs {
            d: Some(climber.current()),
            // Initial first-cacheline distance k + 4 (§4.3.2); the sampler
            // then scales it with the climbed distance.
            d_long: if high_threads {
                None
            } else {
                Some((k as u32 + 4).min(d_max))
            },
            shuffle: hw_suppressed,
        };
        Coordinator {
            k,
            wide_stripe,
            high_threads,
            d_max,
            l2_hit_ns: cfg.l2.hit_ns,
            sample_interval_ns: SAMPLE_INTERVAL_NS,
            next_sample_ns: SAMPLE_INTERVAL_NS,
            last: Counters::default(),
            last_sample_ns: 0.0,
            baseline_latency: None,
            baseline_useless: None,
            climber,
            policy: Policy {
                knobs,
                hw_suppressed,
                pressure: PressureState::default(),
            },
            samples: 0,
            changes: 0,
            last_change_ns: None,
            log: VecDeque::new(),
        }
    }

    /// Change the sampling interval (and realign the next sample).
    pub fn set_sample_interval(&mut self, ns: f64) {
        self.sample_interval_ns = ns;
        self.next_sample_ns = self.last_sample_ns + ns;
    }

    /// Current policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Whether tasks run at 256 B (XPLine) granularity (§4.3.3): decided by
    /// the thread count alone, so a source takes it once, when it is built.
    pub fn xpline_expand(&self) -> bool {
        self.high_threads
    }

    /// Eq. (1) bound in effect.
    pub fn d_max(&self) -> u32 {
        self.d_max
    }

    /// Number of samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Stat snapshot for telemetry and the benchmark's
    /// `core.coordinator.*` metrics (see [`CoordinatorSnapshot`]).
    pub fn snapshot(&self) -> CoordinatorSnapshot {
        CoordinatorSnapshot {
            samples: self.samples,
            policy_changes: self.changes,
            last_change_ns: self.last_change_ns,
            d_max: self.d_max,
            sw_distance: self.policy.knobs.d,
            hw_suppressed: self.policy.hw_suppressed,
        }
    }

    /// Called on every task issue with the live clock and counters; takes a
    /// sample when the interval has elapsed. Returns the new knobs if the
    /// policy changed.
    pub fn on_tick(&mut self, now_ns: f64, counters: &Counters) -> Option<Knobs> {
        if now_ns < self.next_sample_ns {
            return None;
        }
        let delta = counters.delta(&self.last);
        let interval = (now_ns - self.last_sample_ns).max(1.0);
        self.last = *counters;
        self.last_sample_ns = now_ns;
        self.next_sample_ns = now_ns + self.sample_interval_ns;
        self.samples += 1;

        if delta.loads == 0 {
            return None;
        }
        let latency = delta.avg_load_latency_ns(self.l2_hit_ns);
        let useless = (delta.useless_prefetches + delta.late_prefetches) as f64;

        // First sample establishes the low-pressure baselines (§4.1).
        let base_lat = *self.baseline_latency.get_or_insert(latency);
        let base_useless = *self.baseline_useless.get_or_insert(useless.max(1.0));

        let pressure = PressureState {
            contended: latency > LATENCY_THRESHOLD * base_lat,
            prefetcher_inefficient: useless > USELESS_THRESHOLD * base_useless,
        };

        // Threshold heuristic for the HW prefetcher: suppress when both
        // contention and inefficiency are detected; restore when pressure
        // subsides (unless concurrency alone demands suppression). Wide
        // stripes need no management — the prefetcher silenced itself.
        let mut hw_suppressed = self.policy.hw_suppressed;
        if !self.wide_stripe {
            if pressure.contended && pressure.prefetcher_inefficient {
                hw_suppressed = true;
            } else if !pressure.contended && !self.high_threads {
                // Whatever the block size — small blocks keep the prefetcher
                // despite inefficiency: amplified traffic under low pressure
                // is harmless (§4.1).
                hw_suppressed = false;
            }
        }

        // Hill-climb the prefetch distance on the mean row latency
        // (the per-sub-task objective of §4.1).
        let rows = (delta.loads as f64 / self.k as f64).max(1.0);
        let row_latency = interval / rows;
        let d = self.climber.observe(row_latency).min(self.d_max);

        let knobs = Knobs {
            d: Some(d),
            // XPLine-first lines pay media (not buffer) latency, so their
            // distance is scaled up from the climbed value (§4.3.2). The
            // split is a low-pressure tool: it widens the simultaneously
            // touched XPLine set, so it is dropped under contention.
            d_long: if hw_suppressed || self.high_threads || pressure.contended {
                None
            } else {
                Some((4 * d).max(d + 4).min(self.d_max))
            },
            shuffle: hw_suppressed,
        };
        let changed = knobs != self.policy.knobs;
        self.policy = Policy {
            knobs,
            hw_suppressed,
            pressure,
        };
        if changed {
            self.changes += 1;
            self.last_change_ns = Some(now_ns);
            // Ring buffer: retain the newest LOG_CAP entries. (The old
            // `len() < LOG_CAP` guard silently stopped recording once the
            // log filled, so long runs lost exactly the changes an operator
            // would be debugging.)
            if self.log.len() == LOG_CAP {
                self.log.pop_front();
            }
            self.log.push_back((now_ns, self.policy));
        }
        changed.then_some(knobs)
    }

    /// Timestamped policy changes recorded so far, oldest first (what the
    /// scheduler did and when — the observability surface for operators).
    /// Retains the most recent [`LOG_CAP`] changes.
    pub fn policy_log(&self) -> Vec<(f64, Policy)> {
        self.log.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::pm()
    }

    #[test]
    fn eq1_bound_matches_paper_example() {
        // §4.3.3: "on our 6 channel system with a total 96 KB read buffer,
        // thrashing occurs when the number of threads exceeds 12" — at 12
        // threads and k = 28 the bound still admits one wave (d <= k);
        // at 14 threads it collapses to the floor.
        let buffer = 96 * 1024;
        assert!(eq1_max_distance(12, 28, buffer, 256) >= 28);
        // Past the thread budget the bound collapses to its floor (one
        // row, d = k).
        assert_eq!(eq1_max_distance(14, 28, buffer, 256), 28);
        // Single thread: plenty of headroom.
        assert!(eq1_max_distance(1, 28, buffer, 256) >= 13 * 28);
        // Larger-granularity devices tighten the bound proportionally.
        assert!(eq1_max_distance(4, 28, buffer, 1024) < eq1_max_distance(4, 28, buffer, 256));
    }

    #[test]
    fn eq1_bound_edge_cases() {
        // Degenerate wave size (threads = 0, k = 0, or unit_bytes = 0):
        // nothing constrains the distance, so the bound is the documented
        // ceiling rather than a divide-by-zero.
        assert_eq!(eq1_max_distance(0, 28, 96 * 1024, 256), 4096);
        assert_eq!(eq1_max_distance(4, 0, 96 * 1024, 256), 4096);
        assert_eq!(eq1_max_distance(4, 28, 96 * 1024, 0), 4096);
        // Buffer smaller than one wave: zero waves, clamped to the d = k
        // floor instead of zero.
        let per_wave = 4u64 * 28 * 256;
        assert_eq!(eq1_max_distance(4, 28, per_wave - 1, 256), 28);
        assert_eq!(eq1_max_distance(4, 28, 0, 256), 28);
        // Huge buffer: the 4096 ceiling holds.
        assert_eq!(eq1_max_distance(1, 28, u64::MAX, 256), 4096);
    }

    /// Regression (PR 7): the `per_wave == 0` early return used to yield
    /// `u32::MAX`, bypassing the `clamp(k, 4096)` the doc comment promises.
    /// Every zero-input combination must respect the documented ceiling.
    #[test]
    fn eq1_zero_wave_inputs_respect_documented_ceiling() {
        for (threads, k, unit) in [
            (0usize, 28usize, 256u64),
            (0, 0, 256),
            (8, 0, 256),
            (8, 28, 0),
            (0, 0, 0),
        ] {
            let d = eq1_max_distance(threads, k, 96 * 1024, unit);
            assert!(
                d <= 4096,
                "eq1_max_distance({threads}, {k}, 96K, {unit}) = {d} exceeds the 4096 ceiling"
            );
            assert!(d >= k.min(4096) as u32, "bound fell below the d = k floor");
        }
        // A stripe wider than the ceiling cannot invert the clamp (which
        // would panic); it saturates at the ceiling instead.
        assert_eq!(eq1_max_distance(1, 5000, u64::MAX, 256), 4096);
        assert_eq!(eq1_max_distance(0, 5000, 96 * 1024, 256), 4096);
    }

    #[test]
    fn initial_policy_low_pressure() {
        let c = Coordinator::new(12, 1, &cfg());
        let p = c.policy();
        assert!(!p.hw_suppressed);
        assert!(!p.knobs.shuffle);
        assert!(!c.xpline_expand());
        assert_eq!(p.knobs.d, Some(12));
        assert_eq!(p.knobs.d_long, Some(16)); // k + 4
    }

    #[test]
    fn initial_policy_high_concurrency() {
        let c = Coordinator::new(28, 16, &cfg());
        let p = c.policy();
        assert!(p.hw_suppressed, "threads > 12 must suppress HW prefetch");
        assert!(p.knobs.shuffle);
        assert!(c.xpline_expand());
        assert!(p.knobs.d_long.is_none());
    }

    #[test]
    fn wide_stripe_needs_no_management() {
        let c = Coordinator::new(48, 1, &cfg());
        assert!(!c.policy().hw_suppressed, "prefetcher silences itself");
        assert!(c.policy().knobs.d.is_some());
    }

    #[test]
    fn sampling_detects_contention_and_suppresses_hw() {
        let mut c = Coordinator::new(12, 4, &cfg());
        c.sample_interval_ns = 1000.0;
        c.next_sample_ns = 1000.0;
        // Baseline interval: calm (100 ns/load).
        let mut ctr = Counters {
            loads: 1000,
            demand_stall_ns: 100_000.0,
            useless_prefetches: 10,
            ..Default::default()
        };
        c.on_tick(1500.0, &ctr);

        // Pressure interval: latency x2, useless x10.
        ctr.loads += 1000;
        ctr.demand_stall_ns += 250_000.0;
        ctr.useless_prefetches += 200;
        c.on_tick(3000.0, &ctr);
        assert!(c.policy().pressure.contended);
        assert!(c.policy().pressure.prefetcher_inefficient);
        assert!(c.policy().hw_suppressed);

        // Calm again: restored.
        ctr.loads += 1000;
        ctr.demand_stall_ns += 100_000.0;
        ctr.useless_prefetches += 10;
        c.on_tick(4500.0, &ctr);
        assert!(!c.policy().hw_suppressed);
    }

    #[test]
    fn distance_respects_eq1_under_many_threads() {
        let mut c = Coordinator::new(28, 16, &cfg());
        c.sample_interval_ns = 1000.0;
        c.next_sample_ns = 1000.0;
        let mut ctr = Counters::default();
        for i in 1..40u64 {
            ctr.loads += 2800;
            ctr.demand_stall_ns += 280_000.0;
            c.on_tick(1000.0 * i as f64 + 500.0, &ctr);
            if let Some(d) = c.policy().knobs.d {
                assert!(d <= c.d_max(), "d={d} exceeds Eq.1 bound {}", c.d_max());
            }
        }
        assert!(c.samples() > 30);
    }

    #[test]
    fn policy_log_records_changes_with_timestamps() {
        let mut c = Coordinator::new(12, 4, &cfg());
        c.set_sample_interval(1000.0);
        let mut ctr = Counters {
            loads: 1000,
            demand_stall_ns: 100_000.0,
            ..Default::default()
        };
        c.on_tick(1500.0, &ctr);
        ctr.loads += 1000;
        ctr.demand_stall_ns += 400_000.0;
        ctr.useless_prefetches += 500;
        ctr.hw_prefetches += 600;
        c.on_tick(3000.0, &ctr);
        let log = c.policy_log();
        assert!(!log.is_empty());
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "log out of order");
        }
        assert_eq!(log.last().unwrap().1, c.policy());
    }

    #[test]
    fn policy_log_retains_newest_past_capacity() {
        let mut c = Coordinator::new(12, 4, &cfg());
        c.set_sample_interval(1000.0);
        let mut ctr = Counters::default();
        let mut now = 0.0;
        // Alternate calm and pressured intervals so every sample flips the
        // policy; run well past LOG_CAP changes.
        let mut changes = 0usize;
        let mut last_change_ns = 0.0;
        for i in 0.. {
            now += 1500.0;
            ctr.loads += 1000;
            if i % 2 == 0 {
                ctr.demand_stall_ns += 100_000.0;
                ctr.useless_prefetches += 10;
            } else {
                ctr.demand_stall_ns += 400_000.0;
                ctr.useless_prefetches += 500;
            }
            if c.on_tick(now, &ctr).is_some() {
                changes += 1;
                last_change_ns = now;
            }
            if changes >= LOG_CAP + 50 {
                break;
            }
            assert!(i < 100_000, "policy stopped changing; test stuck");
        }
        let log = c.policy_log();
        assert_eq!(log.len(), LOG_CAP, "ring buffer caps retention");
        // The newest change is retained; the evicted ones are the oldest.
        assert_eq!(log.last().unwrap().0, last_change_ns);
        for w in log.windows(2) {
            assert!(w[0].0 < w[1].0, "log out of order");
        }
    }

    #[test]
    fn snapshot_tracks_change_count_and_newest_timestamp() {
        let mut c = Coordinator::new(12, 4, &cfg());
        c.set_sample_interval(1000.0);
        let snap = c.snapshot();
        assert_eq!(snap.samples, 0);
        assert_eq!(snap.policy_changes, 0);
        assert_eq!(snap.last_change_ns, None);
        assert_eq!(snap.d_max, c.d_max());

        let mut ctr = Counters {
            loads: 1000,
            demand_stall_ns: 100_000.0,
            ..Default::default()
        };
        c.on_tick(1500.0, &ctr);
        ctr.loads += 1000;
        ctr.demand_stall_ns += 400_000.0;
        ctr.useless_prefetches += 500;
        let changed = c.on_tick(3000.0, &ctr).is_some();
        let snap = c.snapshot();
        assert_eq!(snap.samples, 2);
        assert_eq!(changed, snap.policy_changes > 0);
        if changed {
            assert_eq!(snap.last_change_ns, Some(3000.0));
        }
        assert_eq!(snap.hw_suppressed, c.policy().hw_suppressed);
        assert_eq!(snap.sw_distance, c.policy().knobs.d);
    }

    #[test]
    fn no_sample_before_interval() {
        let mut c = Coordinator::new(12, 1, &cfg());
        let ctr = Counters::default();
        assert!(c.on_tick(10.0, &ctr).is_none());
        assert_eq!(c.samples(), 0);
    }
}
