//! The multi-core simulation engine.
//!
//! Logical threads execute *row tasks* (the unit of the paper's encoding
//! loop: k loads, one vector compute, m stores). The engine interleaves
//! threads by earliest local clock, so all cross-thread contention (shared
//! LLC, channel queues, PM read buffer) is deterministic.

use crate::cache::{Cache, Evicted, Probe};
use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::device::MemorySystem;
use crate::persist::PersistDomain;
use crate::prefetcher::StreamPrefetcher;
use crate::CACHELINE;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One loop-iteration's memory and compute work.
#[derive(Debug, Clone, Default)]
pub struct RowTask {
    /// Software prefetch target addresses (issued before the loads).
    pub sw_prefetches: Vec<u64>,
    /// Demand load addresses (byte addresses; one per 64 B line touched).
    pub loads: Vec<u64>,
    /// Compute cycles after the loads complete.
    pub compute_cycles: f64,
    /// Non-temporal 64 B store addresses.
    pub stores: Vec<u64>,
    /// Write-allocate (cached) 64 B store addresses — the read-modify-write
    /// parity updates of XOR-based codes. They allocate into L2/LLC so later
    /// loads hit; their write traffic is carried by the explicit NT flush
    /// the patterns emit at stripe end (writeback is not modelled).
    pub cached_stores: Vec<u64>,
    /// MSR-style per-core prefetcher toggle (ablation only; costs
    /// `msr_toggle_ns`).
    pub toggle_hw_prefetch: Option<bool>,
    /// Issue a store fence after the stores (drains channel queues).
    pub fence: bool,
}

impl RowTask {
    /// Reset for reuse without freeing buffers.
    pub fn clear(&mut self) {
        self.sw_prefetches.clear();
        self.loads.clear();
        self.compute_cycles = 0.0;
        self.stores.clear();
        self.cached_stores.clear();
        self.toggle_hw_prefetch = None;
        self.fence = false;
    }
}

/// Produces the task stream for every logical thread.
pub trait TaskSource {
    /// Fill `task` with thread `tid`'s next row. Return `false` when the
    /// thread has no more work. `task` arrives cleared.
    ///
    /// `now_ns` is the thread's local clock and `counters` the live global
    /// counter block — together they are the sampling interface DIALGA's
    /// adaptive coordinator uses (1 kHz PMU sampling, §4.1).
    fn next_task(
        &mut self,
        tid: usize,
        now_ns: f64,
        counters: &Counters,
        task: &mut RowTask,
    ) -> bool;

    /// Total payload (data) bytes processed across all threads, for
    /// throughput accounting.
    fn data_bytes(&self) -> u64;
}

/// Outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock of the slowest thread, ns.
    pub elapsed_ns: f64,
    /// Payload bytes processed.
    pub data_bytes: u64,
    /// Aggregated counters.
    pub counters: Counters,
    /// Number of logical threads.
    pub threads: usize,
}

impl RunReport {
    /// Payload throughput in GB/s (the paper's headline metric).
    pub fn throughput_gbs(&self) -> f64 {
        if self.elapsed_ns == 0.0 {
            return 0.0;
        }
        self.data_bytes as f64 / self.elapsed_ns
    }

    /// Demand-stall cycles per load (Fig. 17's metric), at the given
    /// frequency.
    pub fn stall_cycles_per_load(&self, freq_ghz: f64) -> f64 {
        if self.counters.loads == 0 {
            return 0.0;
        }
        self.counters.demand_stall_ns * freq_ghz / self.counters.loads as f64
    }
}

/// Heap key: earliest time first, ties by thread id for determinism.
struct Sched(f64, usize);

impl PartialEq for Sched {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl Eq for Sched {}
impl PartialOrd for Sched {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sched {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .0
            .total_cmp(&self.0)
            .then_with(|| other.1.cmp(&self.1))
    }
}

/// The simulator.
pub struct Engine {
    cfg: MachineConfig,
    mem: MemorySystem,
    llc: Cache,
    l2: Vec<Cache>,
    pf: Vec<StreamPrefetcher>,
    counters: Counters,
    /// Scratch for prefetcher output.
    pf_lines: Vec<u64>,
    /// Optional persistence-domain tracker (see [`PersistDomain`]).
    persist: Option<PersistDomain>,
}

impl Engine {
    /// Build an engine with `threads` logical cores.
    pub fn new(cfg: MachineConfig, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread");
        Engine {
            mem: MemorySystem::new(&cfg),
            llc: Cache::new(&cfg.llc),
            l2: (0..threads).map(|_| Cache::new(&cfg.l2)).collect(),
            pf: (0..threads)
                .map(|_| StreamPrefetcher::new(cfg.prefetcher))
                .collect(),
            cfg,
            counters: Counters::default(),
            pf_lines: Vec::with_capacity(16),
            persist: None,
        }
    }

    /// The machine config.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Start tracking the persistence domain: NT-stored lines are pending
    /// until a `fence` task completes, after which they are durable.
    /// Costs nothing in simulated time — it observes, never prices.
    pub fn enable_persist_tracking(&mut self) {
        self.persist = Some(PersistDomain::new());
    }

    /// The persistence-domain tracker, if enabled.
    pub fn persist_domain(&self) -> Option<&PersistDomain> {
        self.persist.as_ref()
    }

    /// Live counters (read-only).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Run a task source to completion on all threads.
    pub fn run<S: TaskSource>(&mut self, source: &mut S) -> RunReport {
        let threads = self.l2.len();
        let mut heap: BinaryHeap<Sched> = (0..threads).map(|tid| Sched(0.0, tid)).collect();
        let mut finish = vec![0.0f64; threads];
        let mut task = RowTask::default();

        while let Some(Sched(now, tid)) = heap.pop() {
            task.clear();
            if !source.next_task(tid, now, &self.counters, &mut task) {
                finish[tid] = now;
                continue;
            }
            let t = self.execute(tid, now, &task);
            heap.push(Sched(t, tid));
        }

        // Fold stream-eviction counts collected inside the prefetchers.
        self.counters.stream_evictions = self.pf.iter().map(|p| p.evictions).sum();

        let elapsed = finish.iter().copied().fold(0.0, f64::max);
        RunReport {
            elapsed_ns: elapsed,
            data_bytes: source.data_bytes(),
            counters: self.counters,
            threads,
        }
    }

    /// Execute one row task for a thread; returns the new local time.
    fn execute(&mut self, tid: usize, mut t: f64, task: &RowTask) -> f64 {
        if let Some(enable) = task.toggle_hw_prefetch {
            if self.pf[tid].enabled() != enable {
                self.pf[tid].set_enabled(enable);
                t += self.cfg.msr_toggle_ns;
            }
        }

        // Software prefetches: issue cost each, fills tagged as prefetch.
        let sw_cost = self.cfg.cycles_to_ns(self.cfg.sw_prefetch_cycles);
        for &addr in &task.sw_prefetches {
            t += sw_cost;
            self.issue_prefetch(tid, addr / CACHELINE, t, false);
        }

        // Demand loads, overlapped up to the MSHR count.
        let issue = self.cfg.cycles_to_ns(self.cfg.load_issue_cycles);
        for chunk in task.loads.chunks(self.cfg.mshr.max(1)) {
            let mut done = t;
            for (i, &addr) in chunk.iter().enumerate() {
                let at = t + i as f64 * issue;
                let c = self.demand_load(tid, addr, at);
                if c > done {
                    done = c;
                }
            }
            t = done.max(t + chunk.len() as f64 * issue);
        }

        // Compute.
        t += self.cfg.cycles_to_ns(task.compute_cycles);

        // Cached (write-allocate) stores: allocate in L2/LLC, no immediate
        // memory traffic.
        let st_issue = self.cfg.cycles_to_ns(self.cfg.store_issue_cycles);
        for &addr in &task.cached_stores {
            t += st_issue;
            let line = addr / CACHELINE;
            let _ = self.llc.insert(line, t, false);
            self.fill_l2(tid, line, t, false);
        }

        // Posted NT stores.
        for &addr in &task.stores {
            t += st_issue;
            if let Some(dom) = self.persist.as_mut() {
                dom.nt_store(addr / CACHELINE);
            }
            let stall_until = self.mem.write_line(addr / CACHELINE, t, &mut self.counters);
            if stall_until > t {
                self.counters.store_stall_ns += stall_until - t;
                t = stall_until;
            }
        }

        if task.fence {
            t = t.max(self.mem.drain_time());
            if let Some(dom) = self.persist.as_mut() {
                dom.fence();
            }
        }
        t
    }

    fn demand_load(&mut self, tid: usize, addr: u64, t: f64) -> f64 {
        let line = addr / CACHELINE;
        self.counters.loads += 1;
        self.counters.encode_read_bytes += CACHELINE;

        // Train the stream prefetcher on every demand access, then issue
        // whatever it asks for (at this access's time).
        self.pf_lines.clear();
        let mut pf_lines = std::mem::take(&mut self.pf_lines);
        self.pf[tid].on_demand_access(line, &mut pf_lines);
        for &pl in &pf_lines {
            self.issue_prefetch(tid, pl, t, true);
        }
        self.pf_lines = pf_lines;

        let l2_hit = self.cfg.l2.hit_ns;
        let completion = match self.l2[tid].probe_demand(line) {
            Probe::Hit {
                ready_ns,
                was_prefetch,
            } => {
                if was_prefetch {
                    self.counters.useful_prefetches += 1;
                    if ready_ns > t + l2_hit {
                        self.counters.late_prefetches += 1;
                    }
                }
                self.counters.l2_hits += 1;
                ready_ns.max(t + l2_hit)
            }
            Probe::Miss => match self.llc.probe_demand(line) {
                Probe::Hit { ready_ns, .. } => {
                    self.counters.llc_hits += 1;
                    let done = ready_ns.max(t + self.cfg.llc.hit_ns);
                    self.install_l2(tid, line, done, false);
                    done
                }
                Probe::Miss => {
                    self.counters.demand_misses += 1;
                    let done = self.mem.read_line(line, t, &mut self.counters);
                    self.llc.install(line, done, false);
                    self.install_l2(tid, line, done, false);
                    done
                }
            },
        };
        let stall = completion - t - l2_hit;
        if stall > 0.0 {
            self.counters.demand_stall_ns += stall;
        }
        completion
    }

    fn issue_prefetch(&mut self, tid: usize, line: u64, t: f64, hw: bool) {
        // Drop prefetches to already-cached lines.
        if self.l2[tid].contains(line) || self.llc.contains(line) {
            return;
        }
        if hw {
            // Hardware prefetches are low priority: under queue pressure
            // the throttle sheds roughly half of them (alternate lines —
            // deterministic), so prefetching degrades rather than stops.
            // Software prefetches are demand-class and never shed.
            if line.is_multiple_of(2)
                && self.mem.read_queue_delay(line, t) > self.cfg.prefetcher.drop_queue_ns
            {
                self.counters.hw_prefetch_drops += 1;
                return;
            }
            self.counters.hw_prefetches += 1;
        } else {
            self.counters.sw_prefetches += 1;
        }
        // Both caches just missed `line` and the read fills neither, so
        // the fills skip the presence check.
        let done = self.mem.read_line(line, t, &mut self.counters);
        self.llc.install(line, done, true);
        self.install_l2(tid, line, done, true);
    }

    /// Count an L2 eviction of an unconsumed prefetch. (LLC evictions of
    /// prefetched lines are already counted at L2, so LLC fills drop
    /// theirs.)
    fn count_eviction(&mut self, evicted: Option<Evicted>) {
        if evicted.is_some_and(|ev| ev.useless_prefetch) {
            self.counters.useless_prefetches += 1;
        }
    }

    /// Fill a line that may already be resident in `tid`'s L2.
    fn fill_l2(&mut self, tid: usize, line: u64, ready: f64, prefetched: bool) {
        let evicted = self.l2[tid].insert(line, ready, prefetched);
        self.count_eviction(evicted);
    }

    /// Fill a line that `tid`'s L2 has just missed.
    fn install_l2(&mut self, tid: usize, line: u64, ready: f64, prefetched: bool) {
        let evicted = self.l2[tid].install(line, ready, prefetched);
        self.count_eviction(evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, MemKind};

    /// A source that streams `bytes` sequentially per thread, `lines_per
    /// row` loads per task, each thread in its own address region.
    struct SeqScan {
        bytes_per_thread: u64,
        row_lines: usize,
        pos: Vec<u64>,
        region_stride: u64,
        threads: usize,
    }

    impl SeqScan {
        fn new(threads: usize, bytes_per_thread: u64, row_lines: usize) -> Self {
            SeqScan {
                bytes_per_thread,
                row_lines,
                pos: vec![0; threads],
                region_stride: 1 << 30,
                threads,
            }
        }
    }

    impl TaskSource for SeqScan {
        fn next_task(&mut self, tid: usize, _now: f64, _c: &Counters, task: &mut RowTask) -> bool {
            if self.pos[tid] >= self.bytes_per_thread {
                return false;
            }
            let base = tid as u64 * self.region_stride + self.pos[tid];
            for i in 0..self.row_lines as u64 {
                task.loads.push(base + i * 64);
            }
            task.compute_cycles = 8.0;
            self.pos[tid] += self.row_lines as u64 * 64;
            true
        }

        fn data_bytes(&self) -> u64 {
            self.bytes_per_thread * self.threads as u64
        }
    }

    fn run_seq(cfg: MachineConfig, threads: usize, bytes: u64) -> RunReport {
        let mut eng = Engine::new(cfg, threads);
        let mut src = SeqScan::new(threads, bytes, 4);
        eng.run(&mut src)
    }

    #[test]
    fn dram_faster_than_pm() {
        let d = run_seq(MachineConfig::dram(), 1, 1 << 20);
        let p = run_seq(MachineConfig::pm(), 1, 1 << 20);
        assert!(
            d.throughput_gbs() > p.throughput_gbs() * 1.5,
            "DRAM {:.2} GB/s vs PM {:.2} GB/s",
            d.throughput_gbs(),
            p.throughput_gbs()
        );
    }

    #[test]
    fn prefetcher_speeds_up_sequential_scan() {
        let on = run_seq(MachineConfig::pm(), 1, 1 << 20);
        let mut off_cfg = MachineConfig::pm();
        off_cfg.prefetcher.enabled = false;
        let off = run_seq(off_cfg, 1, 1 << 20);
        assert!(
            on.throughput_gbs() > off.throughput_gbs() * 1.15,
            "pf-on {:.2} vs pf-off {:.2}",
            on.throughput_gbs(),
            off.throughput_gbs()
        );
        assert!(on.counters.hw_prefetches > 0);
        assert_eq!(off.counters.hw_prefetches, 0);
    }

    #[test]
    fn pm_implicit_amplification_bounded_for_sequential() {
        // A full sequential scan uses every line of every XPLine: media
        // traffic must equal demand traffic (no amplification).
        let r = run_seq(MachineConfig::pm(), 1, 1 << 20);
        let amp = r.counters.media_read_amplification();
        assert!(
            (amp - 1.0).abs() < 0.05,
            "sequential scan amplification {amp}"
        );
    }

    #[test]
    fn multithread_scales_then_contends() {
        let t1 = run_seq(MachineConfig::pm(), 1, 4 << 20);
        let t4 = run_seq(MachineConfig::pm(), 4, 4 << 20);
        let s4 = t4.throughput_gbs() / t1.throughput_gbs();
        assert!(s4 > 2.0, "4-thread speedup only {s4:.2}x");
        let t18 = run_seq(MachineConfig::pm(), 18, 4 << 20);
        let s18 = t18.throughput_gbs() / t1.throughput_gbs();
        assert!(
            s18 < 18.0,
            "18-thread speedup implausibly linear: {s18:.2}x"
        );
    }

    #[test]
    fn counters_conserve_traffic() {
        let r = run_seq(MachineConfig::pm(), 2, 1 << 20);
        let c = &r.counters;
        assert_eq!(c.loads, (2 << 20) / 64);
        assert_eq!(c.encode_read_bytes, 2 << 20);
        // Every load is a hit somewhere or a miss.
        assert_eq!(c.loads, c.l2_hits + c.llc_hits + c.demand_misses);
        // Controller traffic == fills requested.
        assert_eq!(
            c.imc_read_bytes,
            (c.demand_misses + c.hw_prefetches + c.sw_prefetches) * 64
        );
        // Media traffic is XPLine-quantized.
        assert_eq!(c.media_read_bytes % 256, 0);
        assert_eq!(c.media_read_bytes, c.xpline_fetches * 256);
    }

    #[test]
    fn stores_account_write_traffic() {
        struct StoreSrc {
            rows: u64,
        }
        impl TaskSource for StoreSrc {
            fn next_task(
                &mut self,
                _tid: usize,
                _now: f64,
                _c: &Counters,
                task: &mut RowTask,
            ) -> bool {
                if self.rows == 0 {
                    return false;
                }
                task.stores.push(self.rows * 64);
                self.rows -= 1;
                true
            }
            fn data_bytes(&self) -> u64 {
                0
            }
        }
        let mut eng = Engine::new(MachineConfig::pm(), 1);
        let r = eng.run(&mut StoreSrc { rows: 100 });
        assert_eq!(r.counters.nt_stores, 100);
        assert_eq!(r.counters.imc_write_bytes, 6400);
    }

    #[test]
    fn msr_toggle_costs_time() {
        struct ToggleSrc {
            left: u32,
        }
        impl TaskSource for ToggleSrc {
            fn next_task(
                &mut self,
                _tid: usize,
                _now: f64,
                _c: &Counters,
                task: &mut RowTask,
            ) -> bool {
                if self.left == 0 {
                    return false;
                }
                task.toggle_hw_prefetch = Some(self.left.is_multiple_of(2));
                task.compute_cycles = 1.0;
                self.left -= 1;
                true
            }
            fn data_bytes(&self) -> u64 {
                0
            }
        }
        let mut eng = Engine::new(MachineConfig::pm(), 1);
        let r = eng.run(&mut ToggleSrc { left: 10 });
        // 10 toggles (alternating, always a change... first sets false
        // when enabled==true etc.) — at least several toggles' cost.
        assert!(
            r.elapsed_ns >= 5.0 * MachineConfig::pm().msr_toggle_ns,
            "elapsed {} too small",
            r.elapsed_ns
        );
    }

    #[test]
    fn shared_llc_serves_cross_thread_reuse() {
        // Two threads scanning the SAME region: the second visitor of each
        // line must hit the shared LLC (its L2 is private).
        struct SharedScan {
            pos: Vec<u64>,
            lines: u64,
        }
        impl TaskSource for SharedScan {
            fn next_task(
                &mut self,
                tid: usize,
                _n: f64,
                _c: &Counters,
                task: &mut RowTask,
            ) -> bool {
                let p = self.pos[tid];
                if p >= self.lines {
                    return false;
                }
                task.loads.push(p * 64);
                task.compute_cycles = 50.0;
                self.pos[tid] = p + 1;
                true
            }
            fn data_bytes(&self) -> u64 {
                self.lines * 64 * 2
            }
        }
        let mut cfg = MachineConfig::pm();
        cfg.prefetcher.enabled = false;
        let mut eng = Engine::new(cfg, 2);
        let r = eng.run(&mut SharedScan {
            pos: vec![0; 2],
            lines: 2000,
        });
        assert!(
            r.counters.llc_hits > 1000,
            "expected cross-thread LLC hits, got {}",
            r.counters.llc_hits
        );
        assert!(r.counters.demand_misses < 3000);
    }

    #[test]
    fn fence_waits_for_store_drain() {
        struct FenceSrc {
            done: bool,
        }
        impl TaskSource for FenceSrc {
            fn next_task(&mut self, _t: usize, _n: f64, _c: &Counters, task: &mut RowTask) -> bool {
                if self.done {
                    return false;
                }
                for i in 0..32u64 {
                    task.stores.push(i * 64);
                }
                task.fence = true;
                self.done = true;
                true
            }
            fn data_bytes(&self) -> u64 {
                0
            }
        }
        let mut eng = Engine::new(MachineConfig::pm(), 1);
        let r = eng.run(&mut FenceSrc { done: false });
        // 32 stores on one channel at 24ns write service must take at
        // least ~their serialized drain time.
        assert!(
            r.elapsed_ns >= 32.0 * 20.0,
            "fence returned too early: {}",
            r.elapsed_ns
        );
    }

    #[test]
    fn persist_tracking_splits_durable_from_pending() {
        // Two rows of 8 NT stores; only the first fences. After the run,
        // the first row's lines are durable, the second row's pending.
        struct TwoRows {
            row: u64,
        }
        impl TaskSource for TwoRows {
            fn next_task(&mut self, _t: usize, _n: f64, _c: &Counters, task: &mut RowTask) -> bool {
                if self.row >= 2 {
                    return false;
                }
                for i in 0..8u64 {
                    task.stores.push((self.row * 8 + i) * 64);
                }
                task.fence = self.row == 0;
                self.row += 1;
                true
            }
            fn data_bytes(&self) -> u64 {
                0
            }
        }
        let mut eng = Engine::new(MachineConfig::pm(), 1);
        assert!(eng.persist_domain().is_none());
        eng.enable_persist_tracking();
        eng.run(&mut TwoRows { row: 0 });
        let dom = eng.persist_domain().unwrap();
        assert_eq!(dom.durable_lines(), 8);
        assert_eq!(dom.pending_lines(), 8);
        assert_eq!(dom.boundaries(), 1);
        assert!(dom.is_durable(0) && !dom.is_durable(8 * 64));
        let image = dom.crash_image(3);
        assert!(image.len() >= 8 && image.len() <= 16);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_seq(MachineConfig::pm(), 4, 1 << 20);
        let b = run_seq(MachineConfig::pm(), 4, 1 << 20);
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn dram_vs_pm_kind_exposed() {
        let eng = Engine::new(MachineConfig::dram(), 1);
        assert_eq!(eng.config().mem, MemKind::Dram);
    }

    /// Loads and NT stores above 2^44 bytes, where an interleave-unit
    /// number no longer fits 32 bits: the digest of the run is pinned, so
    /// an address truncation anywhere in the model (a `u32` channel
    /// modulo, a narrowed set index) fails here rather than in a figure.
    #[test]
    fn high_addresses_keep_their_digest() {
        struct HighSrc {
            row: Vec<u64>,
        }
        impl TaskSource for HighSrc {
            fn next_task(
                &mut self,
                tid: usize,
                _n: f64,
                _c: &Counters,
                task: &mut RowTask,
            ) -> bool {
                let r = self.row[tid];
                if r >= 600 {
                    return false;
                }
                let base = (1u64 << 44) + ((tid as u64) << 41) + 0x1234_5000;
                for j in 0..6u64 {
                    // Six sequential blocks 1 MiB + 4 KiB apart, plus one
                    // strided line that skips across channels.
                    task.loads.push(base + j * ((1 << 20) + 4096) + r * 64);
                }
                task.loads.push(base + (1 << 30) + r * 4160);
                task.compute_cycles = 12.0;
                task.stores
                    .push((1u64 << 45) + ((tid as u64) << 40) + r * 64);
                task.stores.push((1u64 << 47) + r * 4096);
                self.row[tid] = r + 1;
                true
            }
            fn data_bytes(&self) -> u64 {
                2 * 600 * 7 * 64
            }
        }
        // FNV-1a over the exact (round-tripping) debug text of the run.
        let digest = |cfg: MachineConfig| {
            let r = Engine::new(cfg, 2).run(&mut HighSrc { row: vec![0; 2] });
            let text = format!("{:?}", (r.elapsed_ns.to_bits(), r.counters));
            let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            });
            (hash, text)
        };
        for (name, cfg, want) in [
            ("pm", MachineConfig::pm(), 9_824_959_477_808_933_536),
            ("cmm_h", MachineConfig::cmm_h(), 1_128_110_518_477_504_022),
        ] {
            let (hash, text) = digest(cfg);
            assert_eq!(hash, want, "{name}: {text}");
        }
    }
}
