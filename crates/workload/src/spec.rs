//! Declarative workload descriptions: op mixes, phases, arrival shapes.
//!
//! A [`WorkloadSpec`] is plain data — the replayer in [`crate::replay`]
//! turns it into traffic. Phases run back to back against one long-lived
//! service, so a phase boundary that changes block size or mix is a
//! genuine mid-run workload *shift*: the coordinator keeps its state and
//! must re-converge, and the replayer measures how long that takes.

use dialga_service::OpKind;
use dialga_testkit::Rng;

/// Operation mix as integer weights over the four op classes. Weights
/// are relative; `Mix::new(8, 3, 1, 1)` offers 8 encodes per 3 degraded
/// reads per 1 repair per 1 scrub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Stripe-encode weight.
    pub encode: u32,
    /// Degraded-read (decode) weight.
    pub decode: u32,
    /// Single-shard repair weight.
    pub repair: u32,
    /// Integrity-scrub weight.
    pub scrub: u32,
}

impl Mix {
    /// Build a mix from the four class weights.
    pub const fn new(encode: u32, decode: u32, repair: u32, scrub: u32) -> Mix {
        Mix {
            encode,
            decode,
            repair,
            scrub,
        }
    }

    /// Draw one op class according to the weights (all-zero mixes
    /// degrade to pure encode).
    pub fn sample(&self, rng: &mut Rng) -> OpKind {
        let total = self.encode + self.decode + self.repair + self.scrub;
        if total == 0 {
            return OpKind::Encode;
        }
        let mut x = rng.below(total as u64) as u32;
        for (kind, weight) in [
            (OpKind::Encode, self.encode),
            (OpKind::Decode, self.decode),
            (OpKind::Repair, self.repair),
            (OpKind::Scrub, self.scrub),
        ] {
            if x < weight {
                return kind;
            }
            x -= weight;
        }
        OpKind::Encode
    }
}

/// How requests arrive within a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Closed loop: at most `in_flight` outstanding requests; a new one
    /// is issued as soon as the window has room (throughput-seeking).
    Closed {
        /// Window of outstanding requests (≥ 1).
        in_flight: usize,
    },
    /// Open loop: requests are paced at `ops_per_s` regardless of
    /// completions (latency-under-load; queues absorb the excess).
    Open {
        /// Offered rate, operations per second (> 0).
        ops_per_s: f64,
    },
}

/// On/off burst shaping layered over the arrival process: after every
/// `on_ops` submissions the generator goes silent for `off_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Submissions per on-period.
    pub on_ops: u64,
    /// Silent gap between on-periods, microseconds.
    pub off_us: u64,
}

/// One contiguous segment of a workload: a fixed mix, skew, block size
/// and arrival shape for `ops` operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name — keys [`dialga_faultkit::FaultSchedule`] plans and
    /// labels report rows.
    pub name: String,
    /// Operations to issue in this phase.
    pub ops: u64,
    /// Op-class mix.
    pub mix: Mix,
    /// Zipf skew for hot-tenant and hot-stripe selection (0 = uniform,
    /// ≈ 0.99 = YCSB-style).
    pub zipf_theta: f64,
    /// Data-block size in bytes for stripes issued by this phase.
    pub block_bytes: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Optional on/off burst shaping.
    pub burst: Option<Burst>,
    /// Probability that a scrub's stripe is corrupted (one byte flipped)
    /// before submission — drives the integrity-outcome accounting.
    pub corrupt_prob: f64,
}

impl Phase {
    /// A closed-loop phase with uniform skew, 16 KiB blocks, window 32,
    /// no bursts and no corruption; adjust with the builder methods.
    pub fn new(name: &str, ops: u64, mix: Mix) -> Phase {
        Phase {
            name: name.to_string(),
            ops,
            mix,
            zipf_theta: 0.0,
            block_bytes: 16 * 1024,
            arrival: Arrival::Closed { in_flight: 32 },
            burst: None,
            corrupt_prob: 0.0,
        }
    }

    /// Set the Zipf skew.
    pub fn zipf(mut self, theta: f64) -> Phase {
        self.zipf_theta = theta;
        self
    }

    /// Set the block size.
    pub fn block(mut self, bytes: usize) -> Phase {
        self.block_bytes = bytes;
        self
    }

    /// Use open-loop arrivals at `ops_per_s`.
    pub fn open(mut self, ops_per_s: f64) -> Phase {
        self.arrival = Arrival::Open { ops_per_s };
        self
    }

    /// Use closed-loop arrivals with the given window.
    pub fn closed(mut self, in_flight: usize) -> Phase {
        self.arrival = Arrival::Closed {
            in_flight: in_flight.max(1),
        };
        self
    }

    /// Add on/off burst shaping.
    pub fn bursty(mut self, on_ops: u64, off_us: u64) -> Phase {
        self.burst = Some(Burst { on_ops, off_us });
        self
    }

    /// Corrupt scrub stripes with probability `p`.
    pub fn corrupt(mut self, p: f64) -> Phase {
        self.corrupt_prob = p.clamp(0.0, 1.0);
        self
    }
}

/// A complete deterministic workload: service geometry plus phases.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Master seed; every random draw in the replay derives from it.
    pub seed: u64,
    /// Data blocks per stripe.
    pub k: usize,
    /// Parity blocks per stripe.
    pub m: usize,
    /// Distinct tenants offering load.
    pub tenants: u32,
    /// Service shards.
    pub shards: usize,
    /// Encode-pool workers per shard.
    pub threads_per_shard: usize,
    /// Per-shard admission-queue depth.
    pub queue_depth: usize,
    /// Distinct stripes in the working set (hot-stripe Zipf domain).
    pub working_set: usize,
    /// The phases, replayed in order against one service.
    pub phases: Vec<Phase>,
}

impl WorkloadSpec {
    /// An empty spec with the repo's default geometry (k=6, m=3, two
    /// shards × two workers, 8 tenants); add phases with
    /// [`WorkloadSpec::phase`].
    pub fn new(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            k: 6,
            m: 3,
            tenants: 8,
            shards: 2,
            threads_per_shard: 2,
            queue_depth: 256,
            working_set: 24,
            phases: Vec::new(),
        }
    }

    /// Builder-style phase append.
    pub fn phase(mut self, phase: Phase) -> WorkloadSpec {
        self.phases.push(phase);
        self
    }

    /// Total operations across all phases.
    pub fn total_ops(&self) -> u64 {
        self.phases.iter().map(|p| p.ops).sum()
    }

    /// Shrink every phase for CI smoke runs: op counts divided by
    /// `factor` (floor 24 per phase), burst gaps untouched.
    pub fn smoke(mut self, factor: u64) -> WorkloadSpec {
        let factor = factor.max(1);
        for phase in &mut self.phases {
            phase.ops = (phase.ops / factor).max(24);
        }
        self
    }

    /// Profile `steady`: one uniform closed-loop phase, encode-heavy
    /// with all four classes represented — the baseline profile.
    pub fn steady(seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(seed).phase(
            Phase::new("steady", 960, Mix::new(8, 3, 1, 2))
                .block(16 * 1024)
                .closed(32),
        )
    }

    /// Profile `skewed_bursty`: a Zipf-hot bursty small-block phase, then
    /// a mid-run shift to large blocks and a read-heavy mix — the phase
    /// boundary forces the per-shard coordinators to re-converge, which
    /// the replayer times.
    pub fn skewed_bursty(seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(seed)
            .phase(
                Phase::new("hot_burst", 600, Mix::new(10, 2, 1, 1))
                    .block(4 * 1024)
                    .zipf(0.99)
                    .closed(24)
                    .bursty(48, 1_500),
            )
            .phase(
                Phase::new("shift_large", 360, Mix::new(3, 8, 2, 1))
                    .block(64 * 1024)
                    .zipf(0.99)
                    .closed(16),
            )
    }

    /// Profile `chaos`: scrub-heavy traffic with stripe corruption, plus
    /// (when the `fault-injection` feature is on) a phase-scoped fault
    /// plan armed inside the shard pools — the integrity-accounting row.
    pub fn chaos(seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(seed)
            .phase(
                Phase::new("chaos_warm", 240, Mix::new(6, 2, 1, 3))
                    .block(8 * 1024)
                    .closed(16),
            )
            .phase(
                Phase::new("chaos_storm", 480, Mix::new(4, 2, 2, 6))
                    .block(8 * 1024)
                    .closed(16)
                    .corrupt(0.3),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_sampling_tracks_weights() {
        let mix = Mix::new(6, 3, 1, 0);
        let mut rng = Rng::new(11);
        let mut counts = [0u32; 4];
        for _ in 0..10_000 {
            counts[mix.sample(&mut rng).index()] += 1;
        }
        assert_eq!(counts[3], 0, "zero-weight class must never fire");
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
        // Rough proportions: encode ≈ 60 %, decode ≈ 30 %, repair ≈ 10 %.
        assert!((5000..7000).contains(&counts[0]), "{counts:?}");
        assert!((2200..3800).contains(&counts[1]), "{counts:?}");
    }

    #[test]
    fn zero_mix_degrades_to_encode() {
        let mix = Mix::new(0, 0, 0, 0);
        let mut rng = Rng::new(1);
        assert_eq!(mix.sample(&mut rng), OpKind::Encode);
    }

    #[test]
    fn smoke_shrinks_but_keeps_phases() {
        let spec = WorkloadSpec::skewed_bursty(1).smoke(8);
        assert_eq!(spec.phases.len(), 2);
        assert!(spec.total_ops() < WorkloadSpec::skewed_bursty(1).total_ops());
        assert!(spec.phases.iter().all(|p| p.ops >= 24));
    }

    #[test]
    fn canonical_profiles_cover_required_shapes() {
        let steady = WorkloadSpec::steady(7);
        assert_eq!(steady.phases.len(), 1);
        let sb = WorkloadSpec::skewed_bursty(7);
        assert!(sb.phases[0].burst.is_some());
        assert_ne!(
            sb.phases[0].block_bytes, sb.phases[1].block_bytes,
            "the shift phase must change the access pattern"
        );
        let chaos = WorkloadSpec::chaos(7);
        assert!(chaos.phases.iter().any(|p| p.corrupt_prob > 0.0));
    }
}
