//! L2 stream hardware prefetcher model.
//!
//! Captures the three properties the paper's observations depend on:
//!
//! 1. a finite LRU **stream table** (32 unidirectional streams on the
//!    testbed CPU; 64 on 3rd-gen Xeon) — exceeding it makes every access
//!    miss the table, confidence never builds, and prefetching stops
//!    (Obs. 3, the k > 32 collapse);
//! 2. **confidence-ramped degree** — short streams (small blocks) never
//!    reach useful aggressiveness (Obs. 4);
//! 3. **no prefetching across 4 KiB boundaries** — 4 KiB-aligned blocks
//!    incur no overshoot (Obs. 4), and DIALGA's shuffle mapping defeats
//!    detection entirely because shuffled deltas are never +1 (§4.2).

use crate::config::PrefetcherConfig;
use crate::PAGE;

#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Last line accessed within the page.
    last: u64,
    /// Detector confidence.
    confidence: u8,
    /// Next line to prefetch (monotone within the page).
    head: u64,
    /// LRU tick.
    lru: u64,
}

/// Per-core stream prefetcher.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    cfg: PrefetcherConfig,
    streams: Vec<Stream>,
    /// Page number (line address / 64) of each stream, kept in step with
    /// `streams`: the per-access lookup scans this dense array.
    pages: Vec<u64>,
    tick: u64,
    /// Streams evicted due to capacity (Obs. 3 signal).
    pub evictions: u64,
}

impl StreamPrefetcher {
    /// Build from a config.
    pub fn new(cfg: PrefetcherConfig) -> Self {
        StreamPrefetcher {
            streams: Vec::with_capacity(cfg.streams),
            pages: Vec::with_capacity(cfg.streams),
            cfg,
            tick: 0,
            evictions: 0,
        }
    }

    /// Enable/disable at the core level (the MSR-style switch; DIALGA never
    /// uses this — it defeats detection with shuffle instead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.cfg.enabled = enabled;
        if !enabled {
            self.streams.clear();
            self.pages.clear();
        }
    }

    /// Whether the core-level switch is on.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Observe one demand access (line address) and append the lines to
    /// prefetch into `out`. The caller filters lines already cached.
    pub fn on_demand_access(&mut self, line: u64, out: &mut Vec<u64>) {
        if !self.cfg.enabled {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        let page = line / (PAGE / crate::CACHELINE);
        let page_last_line = (page + 1) * (PAGE / crate::CACHELINE) - 1;

        if let Some(i) = self.pages.iter().position(|&p| p == page) {
            let s = &mut self.streams[i];
            s.lru = tick;
            if line == s.last + 1 {
                s.confidence = (s.confidence + 1).min(self.cfg.max_confidence);
            } else if line != s.last {
                s.confidence = s.confidence.saturating_sub(self.cfg.confidence_penalty);
            }
            s.last = line;
            if s.confidence >= self.cfg.confidence_threshold {
                // Degree ramps with confidence above the threshold.
                let over = (s.confidence - self.cfg.confidence_threshold) as u32;
                let degree = (2 + 2 * over).min(self.cfg.max_degree);
                let from = s.head.max(line + 1);
                let to = (line + degree as u64).min(page_last_line);
                for l in from..=to {
                    out.push(l);
                }
                if to + 1 > s.head {
                    s.head = to + 1;
                }
            }
            return;
        }

        // New stream: allocate, evicting LRU on capacity.
        if self.streams.len() >= self.cfg.streams {
            let (idx, _) = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.lru)
                .expect("nonempty table");
            self.streams.swap_remove(idx);
            self.pages.swap_remove(idx);
            self.evictions += 1;
        }
        self.pages.push(page);
        self.streams.push(Stream {
            last: line,
            confidence: 0,
            head: line + 1,
            lru: tick,
        });
    }

    /// Number of live streams (for tests/telemetry).
    pub fn live_streams(&self) -> usize {
        self.streams.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf(streams: usize) -> StreamPrefetcher {
        StreamPrefetcher::new(PrefetcherConfig {
            streams,
            ..Default::default()
        })
    }

    /// Feed a pure sequential scan of one page; prefetches must start after
    /// the confidence threshold and stay within the page.
    #[test]
    fn sequential_stream_trains_and_prefetches() {
        let mut p = pf(32);
        let mut out = Vec::new();
        let base = 64 * 10; // page 10
        let mut total = 0;
        for i in 0..64u64 {
            out.clear();
            p.on_demand_access(base + i, &mut out);
            if i < 6 {
                assert!(out.is_empty(), "prefetch before confidence at i={i}");
            }
            for &l in &out {
                assert!(l > base + i, "prefetch behind demand");
                assert!(l <= base + 63, "prefetch crossed page boundary");
            }
            total += out.len();
        }
        assert!(total > 40, "too few prefetches: {total}");
    }

    #[test]
    fn no_duplicate_prefetches() {
        let mut p = pf(32);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for i in 0..64u64 {
            out.clear();
            p.on_demand_access(i, &mut out);
            for &l in &out {
                assert!(seen.insert(l), "line {l} prefetched twice");
            }
        }
    }

    #[test]
    fn shuffled_access_never_trains() {
        let mut p = pf(32);
        let mut out = Vec::new();
        // A fixed non-sequential permutation pattern within one page.
        let order = [0u64, 17, 3, 41, 9, 55, 22, 36, 5, 48, 13, 60, 27, 38, 2, 50];
        for &l in order.iter().cycle().take(200) {
            p.on_demand_access(l, &mut out);
        }
        assert!(out.is_empty(), "shuffle produced prefetches: {out:?}");
    }

    #[test]
    fn table_overflow_stops_prefetching() {
        // 40 interleaved streams > 32 capacity: constant eviction, zero
        // prefetches (Obs. 3's k > 32 collapse).
        let mut p = pf(32);
        let mut out = Vec::new();
        let streams = 40u64;
        for row in 0..64u64 {
            for s in 0..streams {
                p.on_demand_access(s * 64 + row, &mut out);
            }
        }
        assert!(out.is_empty(), "prefetches despite table overflow");
        assert!(p.evictions > 0);
    }

    #[test]
    fn table_at_capacity_still_prefetches() {
        // 32 streams == capacity: every stream survives, all train.
        let mut p = pf(32);
        let mut out = Vec::new();
        for row in 0..64u64 {
            for s in 0..32u64 {
                p.on_demand_access(s * 64 + row, &mut out);
            }
        }
        assert!(out.len() > 32 * 40, "expected heavy prefetching");
        assert_eq!(p.evictions, 0);
    }

    #[test]
    fn gen3_capacity_64_handles_wide_stripes() {
        let mut p = pf(64);
        let mut out = Vec::new();
        for row in 0..64u64 {
            for s in 0..48u64 {
                p.on_demand_access(s * 64 + row, &mut out);
            }
        }
        assert!(!out.is_empty(), "64-stream table should track 48 streams");
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = pf(32);
        p.set_enabled(false);
        let mut out = Vec::new();
        for i in 0..128u64 {
            p.on_demand_access(i, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(p.live_streams(), 0);
    }

    /// Satellite audit (PR 7): once a stream's `head` has advanced past
    /// `page_last_line`, further demand accesses near the page end must
    /// issue nothing — the `from..=to` window is empty, never clamped
    /// into the next page.
    #[test]
    fn head_past_page_end_issues_no_out_of_page_lines() {
        let mut p = pf(32);
        let mut out = Vec::new();
        // Page 3: lines 192..=255. Scan the whole page.
        let base = 64 * 3;
        for i in 0..64u64 {
            p.on_demand_access(base + i, &mut out);
        }
        for &l in &out {
            assert!(
                (base..base + 64).contains(&l),
                "prefetch {l} escaped page 3 (lines {base}..{})",
                base + 63
            );
        }
        // Head is now saturated at/past the page's last line. Hammering
        // the final lines must stay silent — nothing left in-page, and
        // nothing may spill into page 4.
        out.clear();
        for _ in 0..10 {
            p.on_demand_access(base + 62, &mut out);
            p.on_demand_access(base + 63, &mut out);
        }
        assert!(
            out.is_empty(),
            "saturated stream emitted lines: {out:?} (out-of-page leak)"
        );
    }

    /// Satellite audit (PR 7): a repeated access to the same line
    /// (`line == s.last`) must neither ramp nor penalize confidence —
    /// it is not a new +1 delta and not a stride break.
    #[test]
    fn same_line_repeats_leave_confidence_unchanged() {
        let mut p = pf(32);
        let mut out = Vec::new();
        // Default confidence_threshold is 6: accesses 0..=5 leave the
        // stream exactly one sequential hit short of prefetching.
        for i in 0..6u64 {
            p.on_demand_access(i, &mut out);
        }
        assert!(out.is_empty(), "prefetched below threshold: {out:?}");
        // 50 repeats of the same line: no ramp (would cross the threshold
        // and emit) and no penalty (would need >1 further hit to recover).
        for _ in 0..50 {
            p.on_demand_access(5, &mut out);
        }
        assert!(out.is_empty(), "same-line repeats ramped confidence");
        // One genuine sequential hit now crosses the threshold — proving
        // the repeats did not silently penalize the stream either.
        p.on_demand_access(6, &mut out);
        assert!(
            !out.is_empty(),
            "confidence was penalized by same-line repeats"
        );
    }

    /// Property sweep: random demand walks within one page. Invariants:
    /// every emitted line is ahead of the demand line, stays in-page, and
    /// (because `head` is monotone) is never emitted twice.
    #[test]
    fn random_in_page_walks_hold_prefetch_invariants() {
        dialga_testkit::run_cases(64, |rng| {
            let mut p = pf(32);
            let page = rng.below(1024);
            let base = page * 64;
            let mut out = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..200 {
                let line = base + rng.below(64);
                out.clear();
                p.on_demand_access(line, &mut out);
                for &l in &out {
                    assert!(l > line, "prefetch {l} not ahead of demand {line}");
                    assert!(
                        (base..base + 64).contains(&l),
                        "prefetch {l} escaped page {page}"
                    );
                    assert!(seen.insert(l), "line {l} prefetched twice");
                }
            }
        });
    }

    #[test]
    fn backward_jump_drops_confidence() {
        let mut p = pf(32);
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            p.on_demand_access(i, &mut out);
        }
        assert!(!out.is_empty(), "trained by now");
        // Jump backwards repeatedly: confidence decays, prefetching stops.
        for _ in 0..6 {
            out.clear();
            p.on_demand_access(2, &mut out);
            p.on_demand_access(40, &mut out);
        }
        out.clear();
        p.on_demand_access(41, &mut out);
        assert!(out.is_empty(), "confidence should have collapsed");
    }
}
