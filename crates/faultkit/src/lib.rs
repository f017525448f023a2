#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Deterministic fault injection for the DIALGA workspace.
//!
//! Production code cannot be trusted on its failure paths unless those
//! paths can be *driven*: a worker thread that dies mid-batch, a queue
//! send that fails, a power failure at a persist boundary, a shard whose
//! bytes rot. This crate scripts all of those as data — a [`FaultPlan`] is
//! a plain list of [`Fault`]s, either hand-written or generated from a
//! seed — and delivers them through a [`FaultCell`] that the instrumented
//! crates poll from `#[cfg(feature = "fault-injection")]`-gated hooks.
//!
//! # Hot-path contract
//!
//! The cell publishes through a hand-off flag (a `flag` in lint rule R9's
//! role table): a packed `AtomicU64` generation word written with
//! `Ordering::Release` on [`FaultCell::arm`]/[`FaultCell::disarm`] and
//! read with `Ordering::Acquire` by every hook. While the cell is
//! disarmed — always, in production; almost always, in tests — a hook
//! costs exactly one `Acquire` load of zero and touches no locks. Only
//! an armed cell takes the internal mutex to consult the plan.
//!
//! # Determinism
//!
//! Fault matching is counter-based ("worker 2's 3rd chunk", "the 5th
//! queue send"), and the counters live inside the cell, so a plan fires
//! the same way on every run with the same submission order. Counters
//! persist across worker respawns (a respawned worker keeps its slot
//! index), so a `nth_chunk` fault fires exactly once per arm.
//!
//! Everything here is 100 % safe code: the crate is a *plan*, the
//! instrumented crates own the consequences.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use dialga_testkit::Rng;

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Worker `worker` panics instead of running its `nth_chunk`-th
    /// chunk (0-based, counted per worker slot across respawns). The
    /// pool's `catch_unwind` converts this into a failed chunk; the
    /// worker thread itself survives.
    WorkerPanic {
        /// Worker slot index.
        worker: usize,
        /// 0-based chunk ordinal for that slot.
        nth_chunk: u64,
    },
    /// Worker `worker` exits its receive loop instead of running its
    /// `nth_chunk`-th chunk: the thread tears down, queued chunks are
    /// dropped (completing the batch latch as failures), and the slot
    /// stays dead until the pool heals it.
    WorkerExit {
        /// Worker slot index.
        worker: usize,
        /// 0-based chunk ordinal for that slot.
        nth_chunk: u64,
    },
    /// The `nth_send`-th queue submission (0-based, counted across all
    /// workers in submission order) is dropped as if the channel were
    /// disconnected.
    SendFail {
        /// 0-based global send ordinal.
        nth_send: u64,
    },
    /// Power fails at the `nth_persist`-th persist boundary (0-based,
    /// counted per arm across every fence the instrumented persistence
    /// domain issues). The boundary does *not* complete: lines flushed
    /// but not yet fenced may tear (an arbitrary cacheline subset
    /// persists, chosen by the domain's seeded RNG) and everything after
    /// the crash observes a dead domain.
    CrashPoint {
        /// 0-based persist-boundary ordinal.
        nth_persist: u64,
    },
}

/// What a worker should do with the chunk it just dequeued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFault {
    /// Run it normally.
    None,
    /// Panic instead of running it (caught by the worker's
    /// `catch_unwind`; the thread survives).
    Panic,
    /// Exit the worker loop instead of running it (the thread dies).
    Exit,
}

/// An ordered script of faults. Plain data: build one by hand for a
/// targeted test, or derive one from a seed for chaos sweeps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (arming it is equivalent to staying disarmed).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style push.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Append a fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The scripted faults, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Derive a small randomized pool-fault plan from `seed` for a pool
    /// of `workers` threads: one to three faults drawn from worker
    /// panics, worker exits and send failures, with small ordinals so
    /// they actually land inside test-sized batches. Equal seeds give
    /// equal plans.
    pub fn seeded(seed: u64, workers: usize) -> Self {
        let mut rng = Rng::new(seed);
        let workers = workers.max(1);
        let n = rng.range(1, 4);
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            let fault = match rng.below(3) {
                0 => Fault::WorkerPanic {
                    worker: rng.range(0, workers),
                    nth_chunk: rng.range_u64(0, 4),
                },
                1 => Fault::WorkerExit {
                    worker: rng.range(0, workers),
                    nth_chunk: rng.range_u64(0, 4),
                },
                _ => Fault::SendFail {
                    nth_send: rng.range_u64(0, 4 * workers as u64),
                },
            };
            plan.push(fault);
        }
        plan
    }
}

/// Counter state for an armed plan. Lives behind the cell's mutex, so
/// plain integers suffice; hooks only reach here after observing a
/// non-zero generation word.
#[derive(Debug)]
struct Armed {
    faults: Vec<Fault>,
    /// Per-worker-slot chunk ordinals (index = worker slot).
    chunks_seen: Vec<u64>,
    sends_seen: u64,
    persists_seen: u64,
    injected: u64,
}

/// The hook cell: a generation word plus the armed plan's counters.
///
/// Embedded (under `#[cfg(feature = "fault-injection")]`) in the encode
/// pool and the simulated persistence domain. See the module docs for
/// the memory-ordering contract.
#[derive(Debug, Default)]
pub struct FaultCell {
    /// Generation word: `0` = disarmed; any other value = armed with the
    /// plan behind `armed`. Published with `Release`, observed with
    /// `Acquire` so a hook that sees generation `g` also sees the plan
    /// stored before `g` (the `flag` role, lint rule R9).
    fault_word: AtomicU64,
    armed: Mutex<Option<Armed>>,
    /// Monotonic generation source so re-arming is always visible.
    generation: AtomicU64,
}

impl FaultCell {
    /// A disarmed cell.
    pub const fn new() -> Self {
        FaultCell {
            fault_word: AtomicU64::new(0),
            armed: Mutex::new(None),
            generation: AtomicU64::new(0),
        }
    }

    fn lock_armed(&self) -> std::sync::MutexGuard<'_, Option<Armed>> {
        self.armed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm the cell with `plan` for a pool of `workers` slots. Replaces
    /// any previous plan and resets all counters.
    pub fn arm(&self, plan: &FaultPlan, workers: usize) {
        let mut armed = self.lock_armed();
        *armed = Some(Armed {
            faults: plan.faults.clone(),
            chunks_seen: vec![0; workers],
            sends_seen: 0,
            persists_seen: 0,
            injected: 0,
        });
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        self.fault_word.store(generation, Ordering::Release);
    }

    /// Disarm: hooks go back to the single-load fast path.
    pub fn disarm(&self) {
        let mut armed = self.lock_armed();
        *armed = None;
        self.fault_word.store(0, Ordering::Release);
    }

    /// Is a plan armed?
    pub fn armed(&self) -> bool {
        self.fault_word.load(Ordering::Acquire) != 0
    }

    /// How many faults have fired since the last [`arm`](Self::arm).
    pub fn injected(&self) -> u64 {
        if !self.armed() {
            return 0;
        }
        self.lock_armed().as_ref().map_or(0, |a| a.injected)
    }

    /// Hook: a worker dequeued a chunk. Returns what it should do.
    pub fn on_worker_chunk(&self, worker: usize) -> ChunkFault {
        if !self.armed() {
            return ChunkFault::None;
        }
        let mut guard = self.lock_armed();
        let Some(armed) = guard.as_mut() else {
            return ChunkFault::None;
        };
        let Some(seen) = armed.chunks_seen.get_mut(worker) else {
            return ChunkFault::None;
        };
        let nth = *seen;
        *seen += 1;
        for fault in &armed.faults {
            match *fault {
                Fault::WorkerPanic {
                    worker: w,
                    nth_chunk,
                } if w == worker && nth_chunk == nth => {
                    armed.injected += 1;
                    return ChunkFault::Panic;
                }
                Fault::WorkerExit {
                    worker: w,
                    nth_chunk,
                } if w == worker && nth_chunk == nth => {
                    armed.injected += 1;
                    return ChunkFault::Exit;
                }
                _ => {}
            }
        }
        ChunkFault::None
    }

    /// Hook: the pool is about to enqueue a chunk. `true` means the send
    /// must be dropped as if the channel were disconnected.
    pub fn on_send(&self) -> bool {
        if !self.armed() {
            return false;
        }
        let mut guard = self.lock_armed();
        let Some(armed) = guard.as_mut() else {
            return false;
        };
        let nth = armed.sends_seen;
        armed.sends_seen += 1;
        let hit = armed
            .faults
            .iter()
            .any(|f| matches!(*f, Fault::SendFail { nth_send } if nth_send == nth));
        if hit {
            armed.injected += 1;
        }
        hit
    }

    /// Hook: a persistence domain is about to complete a persist
    /// boundary (flush + fence). `true` means power fails *at* this
    /// boundary: the fence must not complete, and the domain should
    /// freeze to its crash image.
    pub fn on_persist(&self) -> bool {
        if !self.armed() {
            return false;
        }
        let mut guard = self.lock_armed();
        let Some(armed) = guard.as_mut() else {
            return false;
        };
        let nth = armed.persists_seen;
        armed.persists_seen += 1;
        let hit = armed
            .faults
            .iter()
            .any(|f| matches!(*f, Fault::CrashPoint { nth_persist } if nth_persist == nth));
        if hit {
            armed.injected += 1;
        }
        hit
    }
}

/// Flip one byte of a shard in place: XOR `mask` (coerced to `0x01` when
/// zero, so the shard always actually changes) into `shard[offset]`.
pub fn flip_byte(shard: &mut [u8], offset: usize, mask: u8) {
    let mask = if mask == 0 { 1 } else { mask };
    if let Some(b) = shard.get_mut(offset) {
        *b ^= mask;
    }
}

/// Truncate a shard to `new_len` bytes (no-op when already shorter).
/// Models a torn trailing write; decode planning must reject the stripe
/// with a length mismatch rather than read past the tear.
pub fn truncate_shard(shard: &mut Vec<u8>, new_len: usize) {
    shard.truncate(new_len);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_cell_is_inert() {
        let cell = FaultCell::new();
        assert!(!cell.armed());
        assert_eq!(cell.on_worker_chunk(0), ChunkFault::None);
        assert!(!cell.on_send());
        assert!(!cell.on_persist());
        assert_eq!(cell.injected(), 0);
    }

    #[test]
    fn worker_chunk_faults_fire_exactly_once_at_the_scripted_ordinal() {
        let cell = FaultCell::new();
        let plan = FaultPlan::new()
            .with(Fault::WorkerPanic {
                worker: 1,
                nth_chunk: 2,
            })
            .with(Fault::WorkerExit {
                worker: 0,
                nth_chunk: 0,
            });
        cell.arm(&plan, 2);
        // Worker 0 exits on its very first chunk, then (respawned, same
        // slot) runs clean forever.
        assert_eq!(cell.on_worker_chunk(0), ChunkFault::Exit);
        for _ in 0..5 {
            assert_eq!(cell.on_worker_chunk(0), ChunkFault::None);
        }
        // Worker 1 panics on its third chunk only.
        assert_eq!(cell.on_worker_chunk(1), ChunkFault::None);
        assert_eq!(cell.on_worker_chunk(1), ChunkFault::None);
        assert_eq!(cell.on_worker_chunk(1), ChunkFault::Panic);
        assert_eq!(cell.on_worker_chunk(1), ChunkFault::None);
        assert_eq!(cell.injected(), 2);
    }

    #[test]
    fn send_faults_count_globally() {
        let cell = FaultCell::new();
        cell.arm(&FaultPlan::new().with(Fault::SendFail { nth_send: 1 }), 4);
        assert!(!cell.on_send());
        assert!(cell.on_send());
        assert!(!cell.on_send());
        assert_eq!(cell.injected(), 1);
    }

    #[test]
    fn crash_points_fire_at_exactly_the_scripted_boundary() {
        let cell = FaultCell::new();
        assert!(!cell.on_persist(), "disarmed cell never crashes");
        cell.arm(
            &FaultPlan::new().with(Fault::CrashPoint { nth_persist: 2 }),
            1,
        );
        assert!(!cell.on_persist());
        assert!(!cell.on_persist());
        assert!(cell.on_persist(), "third boundary is ordinal 2");
        assert!(!cell.on_persist(), "a crash point fires exactly once");
        assert_eq!(cell.injected(), 1);
        // Re-arming resets the boundary counter.
        cell.arm(
            &FaultPlan::new().with(Fault::CrashPoint { nth_persist: 0 }),
            1,
        );
        assert!(cell.on_persist());
    }

    #[test]
    fn rearming_resets_counters_and_disarming_silences() {
        let cell = FaultCell::new();
        let plan = FaultPlan::new().with(Fault::SendFail { nth_send: 0 });
        cell.arm(&plan, 1);
        assert!(cell.on_send());
        cell.arm(&plan, 1);
        assert!(cell.on_send(), "re-arm must reset the send counter");
        cell.disarm();
        assert!(!cell.on_send());
        assert_eq!(cell.injected(), 0);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, 4);
            let b = FaultPlan::seeded(seed, 4);
            assert_eq!(a, b);
            assert!(!a.is_empty() && a.faults().len() <= 3);
            for f in a.faults() {
                match *f {
                    Fault::WorkerPanic { worker, nth_chunk }
                    | Fault::WorkerExit { worker, nth_chunk } => {
                        assert!(worker < 4 && nth_chunk < 4);
                    }
                    Fault::SendFail { nth_send } => assert!(nth_send < 16),
                    _ => panic!("seeded plans script pool faults only"),
                }
            }
        }
    }

    #[test]
    fn corruption_helpers() {
        let mut shard = vec![7u8; 8];
        flip_byte(&mut shard, 3, 0);
        assert_eq!(shard[3], 6, "zero mask coerces to 0x01");
        flip_byte(&mut shard, 3, 0xFF);
        assert_eq!(shard[3], 6 ^ 0xFF);
        flip_byte(&mut shard, 100, 0xFF); // out of range: no-op
        let mut shard = vec![1u8; 8];
        truncate_shard(&mut shard, 3);
        assert_eq!(shard.len(), 3);
        truncate_shard(&mut shard, 9);
        assert_eq!(shard.len(), 3);
    }
}
