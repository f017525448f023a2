//! Property-based tests for the memory-system model: cache behaviour
//! against a reference model, queueing invariants, and traffic
//! conservation under arbitrary workloads.
//!
//! Randomized with the in-tree deterministic harness (`dialga-testkit`).

use dialga_memsim::cache::{Cache, Probe};
use dialga_memsim::config::CacheConfig;
use dialga_memsim::device::MemorySystem;
use dialga_memsim::{Counters, Engine, MachineConfig, RowTask, TaskSource};
use dialga_testkit::run_cases;
use std::collections::HashMap;

/// Reference model of a set-associative LRU cache.
struct RefCache {
    sets: usize,
    ways: usize,
    /// set -> Vec<line> in LRU order (front = LRU).
    sets_v: HashMap<usize, Vec<u64>>,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache {
            sets,
            ways,
            sets_v: HashMap::new(),
        }
    }
    fn probe(&mut self, line: u64) -> bool {
        let set = self.sets_v.entry((line as usize) % self.sets).or_default();
        if let Some(pos) = set.iter().position(|&l| l == line) {
            let l = set.remove(pos);
            set.push(l);
            true
        } else {
            false
        }
    }
    fn insert(&mut self, line: u64) {
        let ways = self.ways;
        let set = self.sets_v.entry((line as usize) % self.sets).or_default();
        if let Some(pos) = set.iter().position(|&l| l == line) {
            let l = set.remove(pos);
            set.push(l);
            return;
        }
        if set.len() >= ways {
            set.remove(0);
        }
        set.push(line);
    }
}

/// The cache must agree hit-for-hit with a reference LRU model under
/// arbitrary interleavings of demand probes, presence checks and inserts,
/// on a small 4-way cache, the LLC's 11-way non-power-of-two set count and
/// the L2's 16-way power-of-two one. (Evictions and `invalidate` are
/// checked against a tick-LRU reference in `cache.rs`'s unit tests.)
#[test]
fn cache_matches_reference_lru() {
    for (sets, ways) in [(4usize, 4usize), (6, 11), (4, 16)] {
        let cfg = CacheConfig {
            bytes: (sets * ways) as u64 * 64,
            ways,
            hit_ns: 1.0,
        };
        run_cases(64, |rng| {
            let n_ops = rng.range(1, 400 * ways);
            let mut cache = Cache::new(&cfg);
            let mut reference = RefCache::new(cfg.sets(), cfg.ways);
            for _ in 0..n_ops {
                let line = rng.below((4 * sets * ways) as u64);
                match rng.below(4) {
                    0 | 1 => {
                        cache.insert(line, 0.0, false);
                        reference.insert(line);
                    }
                    2 => {
                        let got = matches!(cache.probe_demand(line), Probe::Hit { .. });
                        let want = reference.probe(line);
                        assert_eq!(got, want, "{ways}-way: probe {line}");
                    }
                    _ => {
                        let want = reference.sets_v.get(&(line as usize % sets));
                        let want = want.is_some_and(|set| set.contains(&line));
                        assert_eq!(cache.contains(line), want, "{ways}-way: contains {line}");
                    }
                }
            }
        });
    }
}

/// Completion times never precede request times, and identical request
/// sequences produce identical timings (determinism).
#[test]
fn reads_complete_after_issue_and_deterministically() {
    run_cases(64, |rng| {
        let addrs: Vec<u64> = (0..rng.range(1, 200)).map(|_| rng.below(1 << 22)).collect();
        let cfg = if rng.bool() {
            MachineConfig::pm()
        } else {
            MachineConfig::dram()
        };
        let run = |cfg: &MachineConfig| {
            let mut m = MemorySystem::new(cfg);
            let mut c = Counters::default();
            let mut times = Vec::new();
            let mut now = 0.0;
            for &a in &addrs {
                let t = m.read_line(a / 64, now, &mut c);
                assert!(t >= now, "completion {t} before issue {now}");
                times.push(t);
                now += 10.0;
            }
            (times, c)
        };
        let (t1, c1) = run(&cfg);
        let (t2, c2) = run(&cfg);
        assert_eq!(t1, t2);
        assert_eq!(c1, c2);
    });
}

/// PM media traffic is unit-quantized, bounded below by distinct units
/// touched and above by one fetch per request.
#[test]
fn pm_media_traffic_bounds() {
    run_cases(64, |rng| {
        let addrs: Vec<u64> = (0..rng.range(1, 300)).map(|_| rng.below(1 << 20)).collect();
        let cfg = MachineConfig::pm();
        let mut m = MemorySystem::new(&cfg);
        let mut c = Counters::default();
        let mut now = 0.0;
        for &a in &addrs {
            m.read_line(a / 64, now, &mut c);
            now += 50.0;
        }
        let unit = cfg.pm.unit_bytes;
        assert_eq!(c.media_read_bytes % unit, 0);
        let distinct_units: std::collections::HashSet<u64> =
            addrs.iter().map(|a| a / unit).collect();
        assert!(c.xpline_fetches >= distinct_units.len() as u64);
        assert!(c.xpline_fetches <= addrs.len() as u64);
        assert_eq!(c.buffer_hits + c.xpline_fetches, addrs.len() as u64);
    });
}

/// Engine-level conservation for arbitrary strided row workloads.
#[test]
fn engine_traffic_conservation() {
    run_cases(48, |rng| {
        let k = rng.range(1, 16);
        let rows = rng.range_u64(1, 200);
        let stride = [64u64, 128, 4096][rng.range(0, 3)];
        let threads = rng.range(1, 4);
        let pf = rng.bool();
        struct Src {
            k: usize,
            rows: u64,
            stride: u64,
            pos: Vec<u64>,
            threads: usize,
        }
        impl TaskSource for Src {
            fn next_task(
                &mut self,
                tid: usize,
                _n: f64,
                _c: &Counters,
                task: &mut RowTask,
            ) -> bool {
                let r = self.pos[tid];
                if r >= self.rows {
                    return false;
                }
                for j in 0..self.k as u64 {
                    task.loads
                        .push(tid as u64 * (1 << 30) + j * (1 << 20) + r * self.stride);
                }
                task.compute_cycles = 10.0;
                self.pos[tid] = r + 1;
                true
            }
            fn data_bytes(&self) -> u64 {
                self.rows * self.k as u64 * 64 * self.threads as u64
            }
        }
        let mut cfg = MachineConfig::pm();
        cfg.prefetcher.enabled = pf;
        let mut eng = Engine::new(cfg, threads);
        let r = eng.run(&mut Src {
            k,
            rows,
            stride,
            pos: vec![0; threads],
            threads,
        });
        let c = r.counters;
        assert_eq!(c.loads, (k as u64) * rows * threads as u64);
        assert_eq!(c.loads, c.l2_hits + c.llc_hits + c.demand_misses);
        assert_eq!(
            c.imc_read_bytes,
            (c.demand_misses + c.hw_prefetches + c.sw_prefetches) * 64
        );
        assert_eq!(c.media_read_bytes, c.xpline_fetches * 256);
        assert!(r.elapsed_ns > 0.0);
    });
}
