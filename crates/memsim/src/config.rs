//! Hardware configuration. All timing constants live here so every figure
//! binary can print the digest it ran with.

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in nanoseconds.
    pub hit_ns: f64,
}

impl CacheConfig {
    /// Number of 64 B lines.
    pub fn lines(&self) -> usize {
        (self.bytes / crate::CACHELINE) as usize
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.ways
    }
}

/// Which memory device backs the encoded data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemKind {
    /// DDR4 DRAM (the paper's DRAM comparison arm).
    Dram,
    /// Optane-like persistent memory (the default).
    #[default]
    Pm,
}

/// PM device timing/geometry (Optane DCPMM 100-series-like).
///
/// Each channel (DIMM) has two resources: a pool of `media_slots`
/// concurrent media accesses (3D-XPoint internal banks — per-DIMM media
/// read bandwidth = 256 B * slots / occupancy) and a serial transfer bus
/// (DDR-T) that every 64 B delivery crosses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmConfig {
    /// Media access granularity in bytes (the "implicit load" unit):
    /// 256 B XPLines on Optane; larger DRAM-buffered flash units on
    /// CMM-H-class devices (§6). A power of two from 64 to 4096.
    pub unit_bytes: u64,
    /// Media read latency for a media-unit fetch, ns.
    pub media_latency_ns: f64,
    /// Latency of a read served by the on-DIMM read buffer, ns.
    pub buffer_hit_ns: f64,
    /// Concurrent media accesses a DIMM sustains.
    pub media_slots: usize,
    /// Time one media access occupies its slot, ns. Per-DIMM media read
    /// bandwidth = 256 B * media_slots / this (defaults ≈ 6.8 GB/s).
    pub media_occupancy_ns: f64,
    /// Bus time of one XPLine delivery from media, ns.
    pub media_bus_ns: f64,
    /// Bus time of a buffer-hit 64 B transfer, ns.
    pub buffer_bus_ns: f64,
    /// Total on-DIMM read buffer across all channels, bytes (the paper's
    /// system: 96 KiB over 6 channels).
    pub read_buffer_bytes: u64,
    /// Bus time of one 64 B non-temporal store, ns (sets per-channel write
    /// bandwidth; defaults ≈ 2.3 GB/s per DIMM, Optane's write ceiling).
    pub write_service_ns: f64,
}

/// DRAM device timing (serial-bus channel model; bank parallelism is folded
/// into the short service time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Load-to-use latency, ns.
    pub latency_ns: f64,
    /// Channel occupancy of one 64 B read, ns.
    pub service_ns: f64,
    /// Channel occupancy of one 64 B write, ns.
    pub write_service_ns: f64,
}

/// L2 stream hardware prefetcher model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetcherConfig {
    /// Globally enabled (the BIOS/MSR-style switch used by the ISA-L-noPF
    /// baselines; DIALGA itself never flips this — it uses shuffle).
    pub enabled: bool,
    /// Stream-table capacity. 32 unidirectional streams on the paper's
    /// Cascade Lake testbed; 64 from 3rd-gen Xeon Scalable on (§3.2).
    pub streams: usize,
    /// Confidence needed before prefetches are issued. High enough that
    /// ≤512 B blocks (≤8-line streams) never train — Obs. 4's "no effect,
    /// no amplification" regime.
    pub confidence_threshold: u8,
    /// Confidence ceiling.
    pub max_confidence: u8,
    /// Confidence lost on a non-(+1) delta. 3 keeps short +1 runs inside
    /// shuffled/expanded patterns from ever reaching the threshold.
    pub confidence_penalty: u8,
    /// Maximum prefetch degree (lines ahead per trigger) at full
    /// confidence.
    pub max_degree: u32,
    /// Hardware prefetches are low priority: one is *dropped* if serving it
    /// would queue behind more than this much channel busy time. This is
    /// the throttling real prefetchers apply under memory pressure, and it
    /// is why they help high-latency, queue-prone PM less than DRAM
    /// (Obs. 1).
    pub drop_queue_ns: f64,
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        PrefetcherConfig {
            enabled: true,
            streams: 32,
            confidence_threshold: 6,
            max_confidence: 8,
            confidence_penalty: 3,
            max_degree: 2,
            drop_queue_ns: 45.0,
        }
    }
}

/// Full machine description. `Default` is the paper's testbed (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Core frequency in GHz (Fig. 4 sweeps this).
    pub freq_ghz: f64,
    /// Per-core L2.
    pub l2: CacheConfig,
    /// Shared LLC.
    pub llc: CacheConfig,
    /// Memory channels (DIMMs).
    pub channels: usize,
    /// Address-interleave granularity across channels, bytes (a power of
    /// two).
    pub interleave_bytes: u64,
    /// Which device backs the data.
    pub mem: MemKind,
    /// PM timing.
    pub pm: PmConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Hardware prefetcher model.
    pub prefetcher: PrefetcherConfig,
    /// Outstanding demand misses a core can overlap.
    pub mshr: usize,
    /// Issue cost per load µop, cycles.
    pub load_issue_cycles: f64,
    /// Issue cost per software prefetch instruction, cycles.
    pub sw_prefetch_cycles: f64,
    /// Issue cost per 64 B non-temporal store, cycles.
    pub store_issue_cycles: f64,
    /// Max per-channel write backlog before stores stall the thread, ns.
    pub write_backlog_ns: f64,
    /// Cost of an MSR-style per-core prefetcher toggle (kernel mode switch),
    /// ns — used only by the ablation comparing DIALGA's shuffle against
    /// privileged toggling (§4.2 challenge (i)).
    pub msr_toggle_ns: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            freq_ghz: 3.3,
            l2: CacheConfig {
                bytes: 1 << 20,
                ways: 16,
                hit_ns: 4.2, // ~14 cycles @ 3.3 GHz
            },
            llc: CacheConfig {
                // 24.75 MiB, 11-way (Gold 6240).
                bytes: (24.75 * 1024.0 * 1024.0) as u64,
                ways: 11,
                hit_ns: 13.3, // ~44 cycles @ 3.3 GHz
            },
            channels: 6,
            interleave_bytes: 4096,
            mem: MemKind::Pm,
            pm: PmConfig {
                unit_bytes: crate::XPLINE,
                media_latency_ns: 380.0,
                buffer_hit_ns: 165.0,
                media_slots: 8,
                media_occupancy_ns: 300.0,
                media_bus_ns: 16.0,
                buffer_bus_ns: 7.0,
                read_buffer_bytes: 96 * 1024,
                write_service_ns: 24.0,
            },
            dram: DramConfig {
                latency_ns: 85.0,
                service_ns: 9.0,
                write_service_ns: 9.0,
            },
            prefetcher: PrefetcherConfig::default(),
            mshr: 10,
            load_issue_cycles: 0.5,
            sw_prefetch_cycles: 1.0,
            store_issue_cycles: 1.0,
            write_backlog_ns: 2000.0,
            msr_toggle_ns: 2500.0,
        }
    }
}

impl MachineConfig {
    /// The paper's testbed with data sourced from DRAM instead of PM.
    pub fn dram() -> Self {
        MachineConfig {
            mem: MemKind::Dram,
            ..Self::default()
        }
    }

    /// The paper's testbed (data on PM). Same as `Default`.
    pub fn pm() -> Self {
        Self::default()
    }

    /// 3rd-gen-Xeon-like variant: 64-stream prefetch table (§3.2).
    pub fn gen3() -> Self {
        let mut c = Self::default();
        c.prefetcher.streams = 64;
        c
    }

    /// CMM-H-like CXL memory-semantic SSD (§6 generality): a DRAM buffer
    /// fronting flash media. Larger implicit-load units (1 KiB here),
    /// higher media latency, a much larger (but still finite) active
    /// buffer window, and fewer, wider channels. The same DIALGA
    /// mechanisms apply because the hierarchy has the same shape: a
    /// buffered, high-latency, large-granularity tier below the CPU cache.
    #[allow(clippy::field_reassign_with_default)] // clearer as a delta off the testbed
    pub fn cmm_h() -> Self {
        let mut c = Self::default();
        c.channels = 4;
        c.pm = PmConfig {
            unit_bytes: 1024,
            media_latency_ns: 1800.0,
            buffer_hit_ns: 350.0,
            media_slots: 16,
            media_occupancy_ns: 1600.0, // ≈10 GB/s media per channel
            media_bus_ns: 32.0,
            buffer_bus_ns: 7.0,
            read_buffer_bytes: 1 << 20, // 1 MiB active DRAM-buffer window
            write_service_ns: 16.0,
        };
        c
    }

    /// Convert cycles to nanoseconds at the configured frequency.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.freq_ghz
    }

    /// Convert nanoseconds to cycles at the configured frequency.
    #[inline]
    pub fn ns_to_cycles(&self, ns: f64) -> f64 {
        ns * self.freq_ghz
    }

    /// Media units the PM read buffer holds per channel.
    pub fn buffer_units_per_channel(&self) -> usize {
        (self.pm.read_buffer_bytes / self.pm.unit_bytes) as usize / self.channels
    }

    /// Alias for the Optane case (256 B units = XPLines).
    pub fn buffer_xplines_per_channel(&self) -> usize {
        self.buffer_units_per_channel()
    }

    /// Cachelines per media unit.
    pub fn lines_per_unit(&self) -> u64 {
        self.pm.unit_bytes / crate::CACHELINE
    }

    /// One-line config digest for figure outputs.
    pub fn digest(&self) -> String {
        format!(
            "{:?} {:.1}GHz L2={}KiB LLC={:.2}MiB ch={} pf={}({} streams) mshr={}",
            self.mem,
            self.freq_ghz,
            self.l2.bytes / 1024,
            self.llc.bytes as f64 / (1024.0 * 1024.0),
            self.channels,
            if self.prefetcher.enabled { "on" } else { "off" },
            self.prefetcher.streams,
            self.mshr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = MachineConfig::default();
        assert_eq!(c.channels, 6);
        assert_eq!(c.pm.read_buffer_bytes, 96 * 1024);
        assert_eq!(c.buffer_xplines_per_channel(), 64);
        assert_eq!(c.prefetcher.streams, 32);
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.l2.lines(), 16384);
    }

    #[test]
    fn cycle_conversion_roundtrip() {
        let c = MachineConfig::default();
        let ns = c.cycles_to_ns(330.0);
        assert!((ns - 100.0).abs() < 1e-9);
        assert!((c.ns_to_cycles(ns) - 330.0).abs() < 1e-9);
    }

    #[test]
    fn gen3_has_wider_table() {
        assert_eq!(MachineConfig::gen3().prefetcher.streams, 64);
    }

    #[test]
    fn dram_config_switches_device() {
        assert_eq!(MachineConfig::dram().mem, MemKind::Dram);
        assert_eq!(MachineConfig::pm().mem, MemKind::Pm);
    }

    #[test]
    fn cmm_h_is_a_buffered_flash_tier() {
        let c = MachineConfig::cmm_h();
        assert_eq!(c.mem, MemKind::Pm, "same load/store tier semantics");
        assert_eq!(c.pm.unit_bytes, 1024);
        assert_eq!(c.lines_per_unit(), 16);
        assert!(c.pm.media_latency_ns > MachineConfig::pm().pm.media_latency_ns * 3.0);
        assert!(c.pm.read_buffer_bytes > MachineConfig::pm().pm.read_buffer_bytes);
        assert_eq!(c.buffer_units_per_channel(), 256);
    }
}
