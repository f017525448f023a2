//! Set-associative LRU cache with prefetch tagging.
//!
//! Entries carry a `ready_ns` fill-completion time so an in-flight fill
//! (demand or prefetch) can be modelled without a global event queue: a
//! later demand to the line simply waits until `ready_ns`. Prefetch-tagged
//! entries that get evicted unused feed the useless-prefetch counter
//! (PMU 0xf2 analogue).
//!
//! Layout: tags and fill times live in two flat per-way arrays; each set
//! keeps its LRU order as one `u64` of 4-bit way indices (most recent in
//! the low nibble, invalid ways at the tail) and a `u16` mask of its
//! prefetched ways. A touch rotates nibbles, so no entry ever moves, and
//! the victim is the tail nibble: no timestamp search.

use crate::config::CacheConfig;

/// Invalid tag sentinel.
const INVALID: u64 = u64::MAX;
/// One in every nibble: `way * NIBBLES` repeats `way` in all sixteen.
const NIBBLES: u64 = 0x1111_1111_1111_1111;

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// Line present; `ready_ns` is when the fill completes (may be past),
    /// `was_prefetch` reports whether this is the first demand touch of a
    /// prefetched line.
    Hit {
        /// Fill completion time of the resident line.
        ready_ns: f64,
        /// First demand touch of a prefetched line.
        was_prefetch: bool,
    },
    /// Line absent.
    Miss,
}

/// What an insert evicted, if anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evicted {
    /// The evicted line address.
    pub line: u64,
    /// It was prefetched and never consumed — a useless prefetch.
    pub useless_prefetch: bool,
}

/// Per-set replacement state.
#[derive(Debug, Clone, Copy)]
struct SetState {
    /// Way indices by recency, one nibble each, most recent lowest.
    order: u64,
    /// Bit `w`: way `w` was filled by a prefetch and not yet consumed.
    prefetched: u16,
}

/// A set-associative LRU cache over 64 B lines (at most 16 ways).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two, so a mask picks the set.
    set_mask: Option<usize>,
    ways: usize,
    /// The low `4 * ways` bits: the nibbles of an order word that name a way.
    order_mask: u64,
    /// Line address (byte address / 64) per way, or `INVALID`.
    tags: Vec<u64>,
    /// Fill completion time per way.
    ready_ns: Vec<f64>,
    state: Vec<SetState>,
}

impl Cache {
    /// Build from a config.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways;
        assert!(sets > 0 && ways > 0, "degenerate cache geometry");
        assert!(ways <= 16, "a set's LRU order holds at most 16 ways");
        let order_mask = u64::MAX >> (64 - 4 * ways);
        // Ways 0, 1, … from the low nibble: all invalid, any order serves.
        let order = (0..ways as u64).fold(0, |o, w| o | w << (4 * w));
        Cache {
            sets,
            set_mask: sets.is_power_of_two().then_some(sets - 1),
            ways,
            order_mask,
            tags: vec![INVALID; sets * ways],
            ready_ns: vec![0.0; sets * ways],
            state: vec![
                SetState {
                    order,
                    prefetched: 0,
                };
                sets
            ],
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => line as usize & mask,
            None => line as usize % self.sets,
        }
    }

    /// The way of `set` holding `line`, if any.
    #[inline]
    fn way_of(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
    }

    /// Make `way` the most recent of `set`.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let order = self.state[set].order;
        // The lowest zero nibble of `order ^ way…` is `way`'s position
        // (borrows only run upward from a zero nibble, so the lowest flag
        // is exact; the unused high nibbles sit above every real one).
        let x = order ^ (way as u64 * NIBBLES);
        let zero = x.wrapping_sub(NIBBLES) & !x & (NIBBLES << 3);
        let shift = zero.trailing_zeros() & !3;
        let below = order & !(u64::MAX << shift);
        let above = order & u64::MAX.checked_shl(shift + 4).unwrap_or(0);
        self.state[set].order = above | below << 4 | way as u64;
    }

    /// Demand probe: on hit, touches LRU and clears the prefetch tag.
    pub fn probe_demand(&mut self, line: u64) -> Probe {
        let set = self.set_of(line);
        let Some(way) = self.way_of(set, line) else {
            return Probe::Miss;
        };
        self.touch(set, way);
        let state = &mut self.state[set];
        let bit = 1u16 << way;
        let was_prefetch = state.prefetched & bit != 0;
        state.prefetched &= !bit;
        Probe::Hit {
            ready_ns: self.ready_ns[set * self.ways + way],
            was_prefetch,
        }
    }

    /// Prefetch probe: reports presence without clearing the tag (a
    /// prefetch to a resident line is dropped by the issuer).
    pub fn contains(&self, line: u64) -> bool {
        self.way_of(self.set_of(line), line).is_some()
    }

    /// Insert a line filled at `ready_ns`. Returns eviction info.
    pub fn insert(&mut self, line: u64, ready_ns: f64, prefetched: bool) -> Option<Evicted> {
        let set = self.set_of(line);
        // Already present (e.g. race between prefetch and demand): refresh.
        if let Some(way) = self.way_of(set, line) {
            self.touch(set, way);
            let ready = &mut self.ready_ns[set * self.ways + way];
            *ready = ready.min(ready_ns);
            return None;
        }
        self.replace_lru(set, line, ready_ns, prefetched)
    }

    /// [`Cache::insert`] for a line the caller has just seen miss (a
    /// `contains` or `probe_demand` with no fill in between): skips the
    /// presence check.
    #[inline]
    pub(crate) fn install(
        &mut self,
        line: u64,
        ready_ns: f64,
        prefetched: bool,
    ) -> Option<Evicted> {
        debug_assert!(!self.contains(line), "install of a resident line");
        self.replace_lru(self.set_of(line), line, ready_ns, prefetched)
    }

    /// Fill `line` into `set`'s tail way and make it the most recent.
    #[inline]
    fn replace_lru(
        &mut self,
        set: usize,
        line: u64,
        ready_ns: f64,
        prefetched: bool,
    ) -> Option<Evicted> {
        let state = &mut self.state[set];
        let tail = 4 * (self.ways as u32 - 1);
        let way = (state.order >> tail) as usize & 15;
        let bit = 1u16 << way;
        let was_prefetched = state.prefetched & bit != 0;
        state.order = (state.order << 4 | way as u64) & self.order_mask;
        state.prefetched = state.prefetched & !bit | if prefetched { bit } else { 0 };
        let slot = set * self.ways + way;
        let old = std::mem::replace(&mut self.tags[slot], line);
        self.ready_ns[slot] = ready_ns;
        (old != INVALID).then_some(Evicted {
            line: old,
            useless_prefetch: was_prefetched,
        })
    }

    /// Drop a line if present; its way becomes the set's next victim.
    #[cfg(test)]
    pub(crate) fn invalidate(&mut self, line: u64) {
        let set = self.set_of(line);
        let Some(way) = self.way_of(set, line) else {
            return;
        };
        self.tags[set * self.ways + way] = INVALID;
        let state = &mut self.state[set];
        state.prefetched &= !(1 << way);
        // Rotate `way` from its position to the tail.
        let mut rest = Vec::with_capacity(self.ways);
        for p in 0..self.ways {
            let w = (state.order >> (4 * p)) as usize & 15;
            if w != way {
                rest.push(w);
            }
        }
        rest.push(way);
        state.order = rest
            .iter()
            .enumerate()
            .fold(0, |o, (p, &w)| o | (w as u64) << (4 * p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    /// A plain tick-LRU cache: one entry per way with a timestamp, victims
    /// found by `min_by_key`. The reference [`Cache`]'s probes and
    /// evictions are checked against.
    mod tick_lru {
        use super::super::{Evicted, Probe, INVALID};
        use crate::config::CacheConfig;

        #[derive(Debug, Clone, Copy)]
        struct Entry {
            tag: u64,
            lru: u64,
            ready_ns: f64,
            prefetched: bool,
        }

        pub struct TickLru {
            sets: usize,
            ways: usize,
            entries: Vec<Entry>,
            tick: u64,
        }

        impl TickLru {
            pub fn new(cfg: &CacheConfig) -> Self {
                let sets = cfg.sets();
                assert!(sets > 0 && cfg.ways > 0, "degenerate cache geometry");
                TickLru {
                    sets,
                    ways: cfg.ways,
                    entries: vec![
                        Entry {
                            tag: INVALID,
                            lru: 0,
                            ready_ns: 0.0,
                            prefetched: false,
                        };
                        sets * cfg.ways
                    ],
                    tick: 0,
                }
            }

            fn set_range(&self, line: u64) -> std::ops::Range<usize> {
                let set = (line as usize) % self.sets;
                set * self.ways..(set + 1) * self.ways
            }

            pub fn probe_demand(&mut self, line: u64) -> Probe {
                self.tick += 1;
                let tick = self.tick;
                let range = self.set_range(line);
                for e in &mut self.entries[range] {
                    if e.tag == line {
                        e.lru = tick;
                        let was_prefetch = e.prefetched;
                        e.prefetched = false;
                        return Probe::Hit {
                            ready_ns: e.ready_ns,
                            was_prefetch,
                        };
                    }
                }
                Probe::Miss
            }

            pub fn contains(&self, line: u64) -> bool {
                let range = self.set_range(line);
                self.entries[range].iter().any(|e| e.tag == line)
            }

            pub fn insert(
                &mut self,
                line: u64,
                ready_ns: f64,
                prefetched: bool,
            ) -> Option<Evicted> {
                self.tick += 1;
                let tick = self.tick;
                let range = self.set_range(line);
                if let Some(e) = self.entries[range.clone()]
                    .iter_mut()
                    .find(|e| e.tag == line)
                {
                    e.lru = tick;
                    e.ready_ns = e.ready_ns.min(ready_ns);
                    return None;
                }
                let victim = self.entries[range]
                    .iter_mut()
                    .min_by_key(|e| if e.tag == INVALID { 0 } else { e.lru + 1 })
                    .expect("nonzero ways");
                let evicted = if victim.tag != INVALID {
                    Some(Evicted {
                        line: victim.tag,
                        useless_prefetch: victim.prefetched,
                    })
                } else {
                    None
                };
                *victim = Entry {
                    tag: line,
                    lru: tick,
                    ready_ns,
                    prefetched,
                };
                evicted
            }

            pub fn invalidate(&mut self, line: u64) {
                let range = self.set_range(line);
                for e in &mut self.entries[range] {
                    if e.tag == line {
                        e.tag = INVALID;
                        e.prefetched = false;
                    }
                }
            }
        }
    }

    /// Every probe, presence check and eviction agrees with the tick-LRU
    /// reference, on the LLC's 11-way non-power-of-two geometry and the
    /// L2's 16-way power-of-two one (few sets, so sets fill and evict).
    #[test]
    fn matches_the_tick_lru_reference() {
        for (sets, ways) in [(6usize, 11usize), (4, 16)] {
            let cfg = CacheConfig {
                bytes: (sets * ways) as u64 * 64,
                ways,
                hit_ns: 1.0,
            };
            dialga_testkit::run_cases(64, |rng| {
                let mut cache = Cache::new(&cfg);
                let mut reference = tick_lru::TickLru::new(&cfg);
                // Enough distinct lines to overflow every set, few enough
                // to hit often.
                let span = (sets * ways * 2) as u64;
                for step in 0..rng.range(1, 2000) {
                    let line = rng.below(span);
                    match rng.below(8) {
                        0..=2 => assert_eq!(
                            cache.probe_demand(line),
                            reference.probe_demand(line),
                            "step {step}: probe {line}"
                        ),
                        3 => assert_eq!(
                            cache.contains(line),
                            reference.contains(line),
                            "step {step}: contains {line}"
                        ),
                        4..=6 => {
                            let ready = rng.below(1000) as f64;
                            let prefetched = rng.bool();
                            assert_eq!(
                                cache.insert(line, ready, prefetched),
                                reference.insert(line, ready, prefetched),
                                "step {step}: insert {line}"
                            );
                        }
                        _ => {
                            cache.invalidate(line);
                            reference.invalidate(line);
                        }
                    }
                }
            });
        }
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways = 8 lines.
        Cache::new(&CacheConfig {
            bytes: 8 * 64,
            ways: 2,
            hit_ns: 1.0,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe_demand(5), Probe::Miss);
        assert!(c.insert(5, 10.0, false).is_none());
        match c.probe_demand(5) {
            Probe::Hit {
                ready_ns,
                was_prefetch,
            } => {
                assert_eq!(ready_ns, 10.0);
                assert!(!was_prefetch);
            }
            Probe::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn lru_evicts_oldest_in_set() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0, 0.0, false);
        c.insert(4, 0.0, false);
        // Touch 0 so 4 becomes LRU.
        c.probe_demand(0);
        let ev = c.insert(8, 0.0, false).expect("eviction");
        assert_eq!(ev.line, 4);
        assert!(c.contains(0));
        assert!(!c.contains(4));
    }

    #[test]
    fn useless_prefetch_detected_on_eviction() {
        let mut c = tiny();
        c.insert(0, 0.0, true); // prefetched, never touched
        c.insert(4, 0.0, false);
        let ev = c.insert(8, 0.0, false).expect("eviction");
        assert_eq!(ev.line, 0);
        assert!(ev.useless_prefetch);
    }

    #[test]
    fn demand_touch_clears_prefetch_tag() {
        let mut c = tiny();
        c.insert(0, 0.0, true);
        match c.probe_demand(0) {
            Probe::Hit { was_prefetch, .. } => assert!(was_prefetch),
            _ => panic!(),
        }
        // Second touch no longer reports prefetch; eviction not useless.
        match c.probe_demand(0) {
            Probe::Hit { was_prefetch, .. } => assert!(!was_prefetch),
            _ => panic!(),
        }
        c.insert(4, 0.0, false);
        let ev = c.insert(8, 0.0, false).unwrap();
        assert!(!ev.useless_prefetch);
    }

    #[test]
    fn reinsert_keeps_earlier_ready_time() {
        let mut c = tiny();
        c.insert(3, 50.0, true);
        assert!(c.insert(3, 20.0, false).is_none());
        match c.probe_demand(3) {
            Probe::Hit { ready_ns, .. } => assert_eq!(ready_ns, 20.0),
            _ => panic!(),
        }
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(7, 0.0, false);
        assert!(c.contains(7));
        c.invalidate(7);
        assert!(!c.contains(7));
    }

    #[test]
    fn fills_all_ways_before_evicting() {
        let mut c = tiny();
        assert!(c.insert(1, 0.0, false).is_none());
        assert!(c.insert(5, 0.0, false).is_none()); // same set, second way
        assert!(c.insert(9, 0.0, false).is_some()); // now evicts
    }
}
