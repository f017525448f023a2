//! Memory devices: Optane-like PM (with on-DIMM XPLine read buffer) and
//! DRAM, both with per-channel queueing.
//!
//! The PM model is the core of the substitution: a 64 B read that misses
//! the read buffer fetches the whole 256 B XPLine from media (*implicit
//! load*, §2.1/Fig. 1), so media traffic is counted in XPLines. The buffer
//! is per channel, with pseudo-random replacement; evicting an XPLine whose
//! lines were never all read is the read-buffer-thrashing signal of Obs. 5.

use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::CACHELINE;

/// Exact index from media-unit number to read-buffer slot: open
/// addressing with linear probing over a power-of-two table kept at most a
/// quarter full, and backward-shift deletion (no tombstones).
#[derive(Debug, Clone, Default)]
struct SlotIndex {
    /// Unit number per bucket, `EMPTY` when free.
    keys: Vec<u64>,
    /// Buffer slot per bucket.
    slots: Vec<u32>,
}

const EMPTY: u64 = u64::MAX;

impl SlotIndex {
    fn with_capacity(slots: usize) -> Self {
        let buckets = (4 * slots).next_power_of_two();
        SlotIndex {
            keys: vec![EMPTY; buckets],
            slots: vec![0; buckets],
        }
    }

    #[inline]
    fn home(&self, xp: u64) -> usize {
        (xp.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.keys.len() - 1)
    }

    /// The bucket holding `xp`, or the free bucket where it would go.
    #[inline]
    fn bucket(&self, xp: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut b = self.home(xp);
        while self.keys[b] != xp && self.keys[b] != EMPTY {
            b = (b + 1) & mask;
        }
        b
    }

    #[inline]
    fn get(&self, xp: u64) -> Option<usize> {
        let b = self.bucket(xp);
        (self.keys[b] == xp).then(|| self.slots[b] as usize)
    }

    /// Map `xp` to `slot`, inserting or overwriting.
    fn set(&mut self, xp: u64, slot: usize) {
        let b = self.bucket(xp);
        self.keys[b] = xp;
        self.slots[b] = slot as u32;
    }

    fn remove(&mut self, xp: u64) {
        let mask = self.keys.len() - 1;
        let mut hole = self.bucket(xp);
        debug_assert_eq!(self.keys[hole], xp, "removing an unindexed unit");
        // Pull back every later entry of the run whose home is not
        // cyclically inside (hole, b].
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let key = self.keys[b];
            if key == EMPTY {
                break;
            }
            let home = self.home(key);
            let stays = if hole <= b {
                hole < home && home <= b
            } else {
                hole < home || home <= b
            };
            if !stays {
                self.keys[hole] = key;
                self.slots[hole] = self.slots[b];
                hole = b;
            }
        }
        self.keys[hole] = EMPTY;
    }
}

#[derive(Debug, Clone, Default)]
struct Channel {
    /// Serial transfer bus (DDR-T / DDR4), modelled as a leaky-bucket
    /// backlog: `bus_backlog_ns` of queued transfer time as of
    /// `bus_last_ns`. The backlog drains in simulated time, so a request
    /// from a thread whose local clock lags another thread's is delayed by
    /// the *standing queue*, never by absolute reservations made in its
    /// future (which would serialize logical threads artificially).
    bus_backlog_ns: f64,
    bus_last_ns: f64,
    /// Media access slots (PM only): each entry is the time its current
    /// access finishes occupying the slot.
    media_slots: Vec<f64>,
    /// Read-buffer slots (PM only) as two parallel arrays: the media unit
    /// each holds, and which of its cachelines have been read since the
    /// fetch (units hold at most 64 lines).
    buffer_xp: Vec<u64>,
    buffer_used: Vec<u64>,
    /// Where each buffered unit sits in the two arrays above.
    buffer_index: SlotIndex,
    /// XPLine fetches currently in flight, as `(xpline, completion time)`.
    /// Merges concurrent reads of one XPLine into one media fetch. Entries
    /// are unique per XPLine and retired as soon as their completion time
    /// has passed, so there are only ever a few: a scan beats hashing.
    inflight: Vec<(u64, f64)>,
    /// The earliest completion time in `inflight` (infinite when empty):
    /// a read before it has nothing to retire.
    inflight_first_done: f64,
    tick: u64,
}

impl Channel {
    /// Queue a bus transfer of `svc` ns at time `now`; returns the queueing
    /// delay before it starts.
    fn bus_access(&mut self, now_ns: f64, svc_ns: f64) -> f64 {
        if now_ns > self.bus_last_ns {
            self.bus_backlog_ns = (self.bus_backlog_ns - (now_ns - self.bus_last_ns)).max(0.0);
            self.bus_last_ns = now_ns;
        }
        let delay = self.bus_backlog_ns;
        self.bus_backlog_ns += svc_ns;
        delay
    }

    /// Current standing queue at `now` without enqueueing.
    fn bus_peek(&self, now_ns: f64) -> f64 {
        if now_ns > self.bus_last_ns {
            (self.bus_backlog_ns - (now_ns - self.bus_last_ns)).max(0.0)
        } else {
            self.bus_backlog_ns
        }
    }
}

/// The shared memory system (device + channels). All reads/writes from
/// every simulated core funnel through here, which is what produces the
/// multi-thread contention and thrashing of Obs. 5.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MachineConfig,
    channels: Vec<Channel>,
    buffer_slots_per_channel: usize,
    /// log2 of `cfg.interleave_bytes` and of `cfg.pm.unit_bytes`.
    interleave_shift: u32,
    unit_shift: u32,
    /// Deterministic fault cell: scripted media-latency spikes (an Optane
    /// DIMM stalling on internal maintenance) land on the XPLine fetch
    /// path. Disarmed cost is one atomic load per media fetch.
    #[cfg(feature = "fault-injection")]
    fault: Option<std::sync::Arc<dialga_faultkit::FaultCell>>,
}

impl MemorySystem {
    /// Build from the machine config.
    pub fn new(cfg: &MachineConfig) -> Self {
        let slots = cfg.buffer_xplines_per_channel();
        assert!(
            cfg.interleave_bytes.is_power_of_two() && cfg.pm.unit_bytes.is_power_of_two(),
            "interleave and media-unit sizes must be powers of two"
        );
        MemorySystem {
            cfg: cfg.clone(),
            channels: (0..cfg.channels)
                .map(|_| Channel {
                    media_slots: vec![0.0; cfg.pm.media_slots],
                    inflight_first_done: f64::INFINITY,
                    buffer_index: SlotIndex::with_capacity(slots),
                    ..Channel::default()
                })
                .collect(),
            buffer_slots_per_channel: slots,
            interleave_shift: cfg.interleave_bytes.trailing_zeros(),
            unit_shift: cfg.pm.unit_bytes.trailing_zeros(),
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    /// Attach a fault cell so scripted PM media spikes reach this memory
    /// system (see `dialga-faultkit`).
    #[cfg(feature = "fault-injection")]
    pub fn attach_fault_cell(&mut self, cell: std::sync::Arc<dialga_faultkit::FaultCell>) {
        self.fault = Some(cell);
    }

    #[inline]
    fn channel_of(&self, byte_addr: u64) -> usize {
        // The modulo keeps the full 64-bit interleave-unit number: a
        // truncated one would remap channels above 2^44 bytes.
        ((byte_addr >> self.interleave_shift) % self.cfg.channels as u64) as usize
    }

    /// Standing queue a read issued now would see at the memory controller
    /// (the queue-pressure signal used to drop low-priority prefetches).
    /// Deliberately excludes DIMM-internal media-slot occupancy: the
    /// controller — like a real prefetch throttle — cannot see inside the
    /// DIMM, which is precisely why hardware prefetching keeps hammering an
    /// already-thrashing PM read buffer (Obs. 5).
    pub fn read_queue_delay(&self, line: u64, now_ns: f64) -> f64 {
        let addr = line * CACHELINE;
        let c = &self.channels[self.channel_of(addr)];
        c.bus_peek(now_ns)
    }

    /// Read one cacheline (by line address). Returns the completion time.
    /// Counter attribution (imc/media/buffer) goes to `ctr`.
    pub fn read_line(&mut self, line: u64, now_ns: f64, ctr: &mut Counters) -> f64 {
        let addr = line * CACHELINE;
        ctr.imc_read_bytes += CACHELINE;
        match self.cfg.mem {
            crate::MemKind::Dram => {
                let (lat, svc) = (self.cfg.dram.latency_ns, self.cfg.dram.service_ns);
                let ch = self.channel_of(addr);
                let c = &mut self.channels[ch];
                let delay = c.bus_access(now_ns, svc);
                ctr.media_read_bytes += CACHELINE; // media == DIMM for DRAM
                now_ns + delay + lat
            }
            crate::MemKind::Pm => self.pm_read(addr, now_ns, ctr),
        }
    }

    fn pm_read(&mut self, addr: u64, now_ns: f64, ctr: &mut Counters) -> f64 {
        let pm = self.cfg.pm;
        let ch_idx = self.channel_of(addr);
        let slots = self.buffer_slots_per_channel;
        let lines_per_unit = pm.unit_bytes / CACHELINE;
        let c = &mut self.channels[ch_idx];
        let xp = addr >> self.unit_shift;
        let line_in_xp = (addr / CACHELINE) & (lines_per_unit - 1);
        c.tick += 1;

        // Retire finished fetches (only once the earliest has finished:
        // until then the pass would keep every entry), then look for one
        // of this XPLine.
        if now_ns >= c.inflight_first_done {
            c.inflight.retain(|&(_, done)| done > now_ns);
            c.inflight_first_done = c.inflight.iter().fold(f64::INFINITY, |m, e| m.min(e.1));
        }
        let merged = c.inflight.iter().find(|e| e.0 == xp).map(|e| e.1);
        let buffered = c.buffer_index.get(xp);

        // Merge with an in-flight fetch of the same XPLine.
        if let Some(done) = merged {
            if let Some(b) = buffered {
                c.buffer_used[b] |= 1 << line_in_xp;
            }
            ctr.buffer_hits += 1;
            return done.max(now_ns) + pm.buffer_bus_ns;
        }

        // Read-buffer hit: a 64 B transfer over the bus at buffer latency.
        if let Some(b) = buffered {
            c.buffer_used[b] |= 1 << line_in_xp;
            let delay = c.bus_access(now_ns, pm.buffer_bus_ns);
            ctr.buffer_hits += 1;
            return now_ns + delay + pm.buffer_hit_ns;
        }

        // Media fetch: implicit load of the whole XPLine. Takes the
        // earliest media slot plus a bus delivery.
        let bus_delay = c.bus_access(now_ns, pm.media_bus_ns);
        // The first earliest slot (free times are finite and positive, so
        // `<` orders them as `total_cmp` would).
        let mut slot_idx = 0;
        for (i, &free) in c.media_slots.iter().enumerate().skip(1) {
            if free < c.media_slots[slot_idx] {
                slot_idx = i;
            }
        }
        let slot_free = c.media_slots[slot_idx];
        let start = (now_ns + bus_delay).max(slot_free);
        // Scripted fault: this media fetch stalls for extra nanoseconds
        // (an Optane DIMM on internal maintenance); the occupied slot and
        // completion time both slip, so the spike also queues behind it.
        #[cfg(not(feature = "fault-injection"))]
        let spike_ns = 0.0;
        #[cfg(feature = "fault-injection")]
        let spike_ns = self
            .fault
            .as_ref()
            .and_then(|f| f.on_media_read())
            .unwrap_or(0.0);
        c.media_slots[slot_idx] = start + pm.media_occupancy_ns + spike_ns;
        let done = start + pm.media_latency_ns + spike_ns;
        ctr.media_read_bytes += pm.unit_bytes;
        ctr.xpline_fetches += 1;
        c.inflight.push((xp, done));
        c.inflight_first_done = c.inflight_first_done.min(done);

        // Install into the buffer. Replacement is pseudo-random (xorshift
        // on the access tick): round-robin scans over a working set just
        // past capacity then degrade gracefully instead of falling off the
        // LRU cliff — matching the progressive thrashing the paper
        // measures (Fig. 19's +66 % media amplification, not a collapse).
        if c.buffer_xp.len() >= slots {
            let mut x = c.tick ^ (xp << 1) ^ 0x9E37_79B9;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // The buffer is full here, so its length is `slots`: a mask
            // when that is a power of two, the same value either way.
            let idx = if slots.is_power_of_two() {
                x as usize & (slots - 1)
            } else {
                (x % slots as u64) as usize
            };
            let victim = c.buffer_xp.swap_remove(idx);
            c.buffer_index.remove(victim);
            if let Some(&moved) = c.buffer_xp.get(idx) {
                c.buffer_index.set(moved, idx);
            }
            let used = c.buffer_used.swap_remove(idx);
            let unused = lines_per_unit - used.count_ones() as u64;
            if unused > 0 {
                ctr.buffer_evicted_unused += 1;
                ctr.buffer_unused_lines += unused;
            }
        }
        c.buffer_index.set(xp, c.buffer_xp.len());
        c.buffer_xp.push(xp);
        c.buffer_used.push(1 << line_in_xp);
        done
    }

    /// Posted non-temporal store of one cacheline. Returns the time until
    /// which the *thread* must stall (normally `now_ns`; later only when
    /// the channel write backlog is full).
    pub fn write_line(&mut self, line: u64, now_ns: f64, ctr: &mut Counters) -> f64 {
        let addr = line * CACHELINE;
        ctr.imc_write_bytes += CACHELINE;
        ctr.nt_stores += 1;
        let ch = self.channel_of(addr);
        let svc = match self.cfg.mem {
            crate::MemKind::Dram => self.cfg.dram.write_service_ns,
            crate::MemKind::Pm => self.cfg.pm.write_service_ns,
        };
        ctr.media_write_bytes += CACHELINE;
        let c = &mut self.channels[ch];
        let delay = c.bus_access(now_ns, svc);
        // Backlog control: if the queue runs too far ahead, the thread
        // stalls until it drains to the threshold.
        let backlog = delay + svc;
        if backlog > self.cfg.write_backlog_ns {
            now_ns + (backlog - self.cfg.write_backlog_ns)
        } else {
            now_ns
        }
    }

    /// Drain point for fences: time at which all channel queues are empty.
    pub fn drain_time(&self) -> f64 {
        self.channels
            .iter()
            .map(|c| c.bus_last_ns + c.bus_backlog_ns)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn pm_sys() -> (MemorySystem, Counters) {
        (MemorySystem::new(&MachineConfig::pm()), Counters::default())
    }

    #[test]
    fn slot_index_matches_a_map_through_inserts_and_removals() {
        dialga_testkit::run_cases(64, |rng| {
            let mut index = SlotIndex::with_capacity(16);
            let mut map = std::collections::HashMap::new();
            for _ in 0..rng.range(1, 600) {
                // Few distinct keys with clustered homes: long probe runs.
                let xp = rng.below(48) * 64 + rng.below(2);
                if map.contains_key(&xp) && rng.bool() {
                    index.remove(xp);
                    map.remove(&xp);
                } else if map.len() < 16 || map.contains_key(&xp) {
                    let slot = rng.range(0, 16);
                    index.set(xp, slot);
                    map.insert(xp, slot);
                }
                for probe in (0..48 * 64).step_by(64).flat_map(|x| [x, x + 1]) {
                    assert_eq!(index.get(probe), map.get(&probe).copied(), "unit {probe}");
                }
            }
        });
    }

    #[test]
    fn first_read_hits_media_next_lines_hit_buffer() {
        let (mut m, mut c) = pm_sys();
        let t0 = m.read_line(0, 0.0, &mut c); // line 0 -> XPLine 0
        assert!((t0 - 380.0).abs() < 1e-9, "media latency, got {t0}");
        assert_eq!(c.xpline_fetches, 1);
        assert_eq!(c.media_read_bytes, 256);
        // Lines 1..3 of the same XPLine after the fetch completes.
        let t1 = m.read_line(1, 400.0, &mut c);
        assert!(
            t1 - 400.0 <= 166.0,
            "buffer hit latency, got {}",
            t1 - 400.0
        );
        assert_eq!(c.xpline_fetches, 1, "no second media fetch");
        assert_eq!(c.buffer_hits, 1);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn scripted_media_spike_is_deterministic_and_slot_scoped() {
        use dialga_faultkit::{Fault, FaultCell, FaultPlan};
        let cell = std::sync::Arc::new(FaultCell::new());
        // Spike the second media fetch by 10 µs; buffer hits must neither
        // trigger nor consume it.
        cell.arm(
            &FaultPlan::new().with(Fault::MediaSpike {
                nth_read: 1,
                extra_ns: 10_000.0,
            }),
            1,
        );
        let run = |fault: Option<std::sync::Arc<FaultCell>>| {
            let (mut m, mut c) = pm_sys();
            if let Some(f) = fault {
                m.attach_fault_cell(f);
            }
            let t0 = m.read_line(0, 0.0, &mut c); // media fetch 0
            let tb = m.read_line(1, 500.0, &mut c); // buffer hit
            let t1 = m.read_line(64, 1000.0, &mut c); // media fetch 1 (new XPLine, ch 1)
            let t2 = m.read_line(128, 2000.0, &mut c); // media fetch 2
            (t0, tb, t1, t2)
        };
        let clean = run(None);
        let faulty = run(Some(std::sync::Arc::clone(&cell)));
        assert_eq!(cell.injected(), 1, "exactly one spike fired");
        assert!((faulty.0 - clean.0).abs() < 1e-9, "fetch 0 unaffected");
        assert!((faulty.1 - clean.1).abs() < 1e-9, "buffer hit unaffected");
        assert!(
            (faulty.2 - (clean.2 + 10_000.0)).abs() < 1e-9,
            "fetch 1 absorbs the spike: {} vs {}",
            faulty.2,
            clean.2
        );
        assert!((faulty.3 - clean.3).abs() < 1e-9, "fetch 2 unaffected");
        // Re-running with the plan exhausted is clean again.
        let replay = run(Some(cell));
        assert!((replay.2 - clean.2).abs() < 1e-9, "plan fires once");
    }

    #[test]
    fn concurrent_reads_of_one_xpline_merge() {
        let (mut m, mut c) = pm_sys();
        let t0 = m.read_line(0, 0.0, &mut c);
        // Second line requested while the fetch is in flight: completes with
        // (not after twice) the media fetch.
        let t1 = m.read_line(1, 10.0, &mut c);
        assert_eq!(c.xpline_fetches, 1);
        assert!(
            t1 >= t0 && t1 < t0 + 50.0,
            "merged completion, got {t1} vs {t0}"
        );
    }

    #[test]
    fn implicit_load_amplification_counted() {
        let (mut m, mut c) = pm_sys();
        // Touch one line each from 10 distinct XPLines on one channel.
        for i in 0..10u64 {
            m.read_line(i * 4, (i as f64) * 1000.0, &mut c);
        }
        assert_eq!(c.imc_read_bytes, 10 * 64);
        assert_eq!(c.media_read_bytes, 10 * 256, "4x implicit amplification");
    }

    #[test]
    fn buffer_eviction_tracks_unused_lines() {
        let cfg = MachineConfig::pm();
        let slots = cfg.buffer_xplines_per_channel() as u64;
        let mut m = MemorySystem::new(&cfg);
        let mut c = Counters::default();
        // Fill one channel's buffer past capacity with single-line touches;
        // every evicted XPLine has 3 unused lines. Stay inside one 4KiB
        // interleave unit per XPLine? XPLines 0..slots+8 on channel 0:
        // use addresses within channel 0 (first 4KiB of every 24KiB).
        let mut n = 0u64;
        let mut t = 0.0;
        let mut xp_count = 0u64;
        'outer: for region in 0.. {
            let base = region * cfg.interleave_bytes * cfg.channels as u64; // channel 0
            for xp_in_region in 0..(cfg.interleave_bytes / crate::XPLINE) {
                let addr = base + xp_in_region * crate::XPLINE;
                m.read_line(addr / 64, t, &mut c);
                t += 1000.0;
                n += 1;
                xp_count += 1;
                if xp_count > slots + 8 {
                    break 'outer;
                }
            }
        }
        assert!(n > slots);
        assert!(c.buffer_evicted_unused >= 8);
        assert_eq!(c.buffer_unused_lines, c.buffer_evicted_unused * 3);
    }

    #[test]
    fn bus_spaces_back_to_back_media_reads() {
        let (mut m, mut c) = pm_sys();
        // Two different XPLines, same channel, both at t=0: second queues
        // only behind the 16 ns bus delivery (slots are plentiful).
        let t0 = m.read_line(0, 0.0, &mut c);
        let t1 = m.read_line(4, 0.0, &mut c); // XPLine 1, channel 0
        assert!((t0 - 380.0).abs() < 1e-9);
        assert!((t1 - 396.0).abs() < 1e-9, "bus-spaced start, got {t1}");
    }

    #[test]
    fn media_slots_limit_channel_concurrency() {
        let cfg = MachineConfig::pm();
        let slots = cfg.pm.media_slots;
        let (mut m, mut c) = pm_sys();
        // slots+1 distinct XPLines on channel 0 at t=0: the last one waits
        // for a slot to free (~media_occupancy).
        let mut last = 0.0;
        for i in 0..=(slots as u64) {
            last = m.read_line(i * 4, 0.0, &mut c);
        }
        assert!(
            last >= cfg.pm.media_occupancy_ns + cfg.pm.media_latency_ns - 1.0,
            "slot exhaustion should delay: {last}"
        );
        // The controller-visible queue probe only reports bus backlog
        // (slots are DIMM-internal and invisible to prefetch throttling).
        let d = m.read_queue_delay((slots as u64 + 1) * 4, 0.0);
        let bus_expected = (slots + 1) as f64 * cfg.pm.media_bus_ns;
        assert!(
            (d - bus_expected).abs() < 1e-6,
            "bus queue {d} vs {bus_expected}"
        );
    }

    #[test]
    fn different_channels_do_not_queue() {
        let (mut m, mut c) = pm_sys();
        let t0 = m.read_line(0, 0.0, &mut c);
        // 4096 bytes later -> channel 1.
        let t1 = m.read_line(4096 / 64, 0.0, &mut c);
        assert!((t0 - 380.0).abs() < 1e-9);
        assert!((t1 - 380.0).abs() < 1e-9);
    }

    #[test]
    fn cmm_h_units_are_1kib() {
        let cfg = MachineConfig::cmm_h();
        let mut m = MemorySystem::new(&cfg);
        let mut c = Counters::default();
        let t0 = m.read_line(0, 0.0, &mut c);
        assert!((t0 - cfg.pm.media_latency_ns).abs() < 1e-9);
        assert_eq!(c.media_read_bytes, 1024, "one flash unit");
        // All 15 remaining lines of the unit hit the DRAM buffer.
        for l in 1..16u64 {
            let at = 3000.0 + 100.0 * l as f64; // spaced past bus backlog
            let t = m.read_line(l, at, &mut c);
            assert!(t - at <= cfg.pm.buffer_hit_ns + 1.0, "line {l}");
        }
        assert_eq!(c.xpline_fetches, 1);
        assert_eq!(c.buffer_hits, 15);
    }

    #[test]
    fn dram_reads_have_no_implicit_amplification() {
        let mut m = MemorySystem::new(&MachineConfig::dram());
        let mut c = Counters::default();
        for i in 0..8u64 {
            m.read_line(i, (i as f64) * 100.0, &mut c);
        }
        assert_eq!(c.media_read_bytes, c.imc_read_bytes);
        assert_eq!(c.xpline_fetches, 0);
    }

    #[test]
    fn write_backlog_stalls_thread() {
        let (mut m, mut c) = pm_sys();
        let mut stall_until = 0.0f64;
        // Hammer one channel (lines within the first 4 KiB interleave unit)
        // with NT stores at t=0 until the backlog threshold trips.
        for i in 0..300u64 {
            stall_until = m.write_line(i % 64, 0.0, &mut c);
        }
        assert!(stall_until > 0.0, "backlog should eventually stall");
        assert_eq!(c.nt_stores, 300);
    }
}
