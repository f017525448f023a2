//! The persistence domain: what is actually *durable* when power fails.
//!
//! The rest of this crate prices persistence (`RowTask::fence` drains the
//! channel queues; NT stores pay write bandwidth) but never models it:
//! nothing says which bytes survive a power failure. This module adds the
//! missing semantics in two layers:
//!
//! * [`PersistMem`] — a contents-bearing persistent image with the ADR
//!   store/flush/fence state machine. A store is *visible* immediately
//!   (program order) but becomes *durable* only once its cacheline has
//!   been flushed **and** a subsequent fence completed. `crash()` — or a
//!   scripted `dialga_faultkit::Fault::CrashPoint` fault delivered at a
//!   fence — freezes the domain to its crash image:
//!   everything fenced, plus an arbitrary seeded subset of the lines that
//!   were flushed but not yet fenced. Tearing is at [`CACHELINE`] (64 B)
//!   granularity inside the [`XPLINE`] (256 B) media granularity, so an
//!   8-byte aligned word always persists atomically — the property the
//!   stripe store's commit record is built on.
//! * [`PersistDomain`] — the address-set analogue wired into
//!   [`Engine`](crate::Engine): it tracks which *line addresses* of a
//!   simulated run are durable versus pending, and counts persist
//!   boundaries, without carrying byte contents.
//!
//! # Epoch invariant
//!
//! Flushing a line snapshots its bytes *at flush time*. A later store to
//! the same line before the next fence dirties the line again and a later
//! flush replaces the snapshot, so the crash image can only ever expose
//! one pre-fence version of a line — never a blend of two epochs of the
//! same cacheline. The property tests below pin this.

use crate::{CACHELINE, XPLINE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

#[cfg(feature = "fault-injection")]
use std::sync::Arc;

/// Errors from persistence-domain operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmError {
    /// Access beyond the end of the image.
    OutOfRange {
        /// Requested byte offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Image length.
        image_len: usize,
    },
    /// Power has failed: only [`PersistMem::durable_image`] remains.
    Crashed,
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmError::OutOfRange {
                offset,
                len,
                image_len,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) outside image of {image_len} bytes"
            ),
            PmError::Crashed => write!(f, "persistence domain has crashed (power failed)"),
        }
    }
}

impl std::error::Error for PmError {}

/// SplitMix64 step, used to draw the torn-line subset deterministically.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A contents-bearing persistent image with ADR crash semantics.
///
/// See the module docs for the model. All offsets are byte offsets; the
/// image length is rounded up to a whole number of XPLines.
#[derive(Debug)]
pub struct PersistMem {
    /// Program-visible contents (every store lands here immediately).
    volatile: Vec<u8>,
    /// Crash-survivable contents (updated only at completed fences).
    durable: Vec<u8>,
    /// Lines stored since their last flush — always lost on crash.
    dirty: BTreeSet<u64>,
    /// Flushed-but-not-fenced lines, with the bytes snapshotted at flush
    /// time. On crash an arbitrary subset of these snapshots persists.
    flushed: BTreeMap<u64, Vec<u8>>,
    /// Completed persist boundaries (fences).
    persists: u64,
    /// Total stores issued.
    stores: u64,
    crashed: bool,
    /// Deterministic source for the torn-subset draw.
    rng_state: u64,
    /// Crash scripted without faultkit: power fails at this 0-based
    /// persist boundary.
    armed_crash: Option<u64>,
    #[cfg(feature = "fault-injection")]
    fault: Option<Arc<dialga_faultkit::FaultCell>>,
}

impl PersistMem {
    /// A zero-filled image of at least `len` bytes (rounded up to a whole
    /// number of XPLines), with tearing seed 0.
    pub fn new(len: usize) -> Self {
        PersistMem::with_seed(len, 0)
    }

    /// A zero-filled image with an explicit tearing seed: equal seeds
    /// draw equal torn-line subsets at equal crash points.
    pub fn with_seed(len: usize, seed: u64) -> Self {
        let len = (len as u64).next_multiple_of(XPLINE) as usize;
        PersistMem {
            volatile: vec![0; len],
            durable: vec![0; len],
            dirty: BTreeSet::new(),
            flushed: BTreeMap::new(),
            persists: 0,
            stores: 0,
            crashed: false,
            rng_state: seed,
            armed_crash: None,
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    /// Rebuild a domain from a previously captured durable image (e.g.
    /// the crash image of another domain): volatile and durable start
    /// equal, nothing pending.
    pub fn from_bytes(bytes: Vec<u8>, seed: u64) -> Self {
        let mut mem = PersistMem::with_seed(bytes.len(), seed);
        let len = bytes.len();
        mem.volatile[..len].copy_from_slice(&bytes);
        mem.durable[..len].copy_from_slice(&bytes);
        mem
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.volatile.len()
    }

    /// True for a zero-length image.
    pub fn is_empty(&self) -> bool {
        self.volatile.is_empty()
    }

    /// Completed persist boundaries (fences) so far.
    pub fn persist_boundaries(&self) -> u64 {
        self.persists
    }

    /// Total stores issued.
    pub fn stores_issued(&self) -> u64 {
        self.stores
    }

    /// Has power failed?
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Script a power failure at the `nth` (0-based) future persist
    /// boundary, counted from now. Replaces any earlier arming.
    pub fn arm_crash(&mut self, nth: u64) {
        self.armed_crash = Some(self.persists + nth);
    }

    /// Cancel a scripted [`arm_crash`](Self::arm_crash).
    pub fn disarm_crash(&mut self) {
        self.armed_crash = None;
    }

    /// Attach a [`FaultCell`](dialga_faultkit::FaultCell): every fence
    /// consults [`on_persist`](dialga_faultkit::FaultCell::on_persist),
    /// so a scripted `CrashPoint` power-fails the domain at exactly the
    /// scripted boundary.
    #[cfg(feature = "fault-injection")]
    pub fn attach_fault_cell(&mut self, cell: Arc<dialga_faultkit::FaultCell>) {
        self.fault = Some(cell);
    }

    fn check_range(&self, offset: u64, len: usize) -> Result<usize, PmError> {
        let image_len = self.volatile.len();
        let end = offset.checked_add(len as u64);
        match end {
            Some(end) if end <= image_len as u64 => Ok(offset as usize),
            _ => Err(PmError::OutOfRange {
                offset,
                len,
                image_len,
            }),
        }
    }

    /// Read `out.len()` bytes at `offset` from the program-visible image.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), PmError> {
        if self.crashed {
            return Err(PmError::Crashed);
        }
        let start = self.check_range(offset, out.len())?;
        out.copy_from_slice(&self.volatile[start..start + out.len()]);
        Ok(())
    }

    /// Store `bytes` at `offset`: visible immediately, durable only after
    /// flush + fence. Marks every touched cacheline dirty.
    pub fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), PmError> {
        if self.crashed {
            return Err(PmError::Crashed);
        }
        if bytes.is_empty() {
            return Ok(());
        }
        let start = self.check_range(offset, bytes.len())?;
        self.volatile[start..start + bytes.len()].copy_from_slice(bytes);
        self.stores += 1;
        let first = offset / CACHELINE;
        let last = (offset + bytes.len() as u64 - 1) / CACHELINE;
        for line in first..=last {
            self.dirty.insert(line);
        }
        Ok(())
    }

    /// Flush (`clwb`-like) every dirty cacheline intersecting
    /// `[offset, offset+len)`: their current bytes are snapshotted and
    /// *may* survive a crash, but only a fence makes them durable.
    pub fn flush(&mut self, offset: u64, len: usize) -> Result<(), PmError> {
        if self.crashed {
            return Err(PmError::Crashed);
        }
        if len == 0 {
            return Ok(());
        }
        self.check_range(offset, len)?;
        let first = offset / CACHELINE;
        let last = (offset + len as u64 - 1) / CACHELINE;
        for line in first..=last {
            if self.dirty.remove(&line) {
                let start = (line * CACHELINE) as usize;
                let snapshot = self.volatile[start..start + CACHELINE as usize].to_vec();
                // A re-flush of a line replaces the earlier snapshot: only
                // the latest pre-fence version of a line can ever persist.
                self.flushed.insert(line, snapshot);
            }
        }
        Ok(())
    }

    /// Fence (`sfence`-like): one persist boundary. Every flushed
    /// snapshot becomes durable — unless a crash is scripted for this
    /// boundary, in which case the domain power-fails *instead* and the
    /// flushed set tears.
    pub fn fence(&mut self) -> Result<(), PmError> {
        if self.crashed {
            return Err(PmError::Crashed);
        }
        let nth = self.persists;
        let crash = self.armed_crash == Some(nth);
        // Consult the fault cell unconditionally so its per-arm boundary
        // counter advances on every fence, hit or not.
        #[cfg(feature = "fault-injection")]
        let crash = self.fault.as_ref().is_some_and(|c| c.on_persist()) | crash;
        if crash {
            self.crash_now();
            return Err(PmError::Crashed);
        }
        let flushed = std::mem::take(&mut self.flushed);
        for (line, snapshot) in flushed {
            let start = (line * CACHELINE) as usize;
            self.durable[start..start + CACHELINE as usize].copy_from_slice(&snapshot);
        }
        self.persists = nth + 1;
        Ok(())
    }

    /// Flush + fence the range in one call: exactly one persist boundary.
    pub fn persist(&mut self, offset: u64, len: usize) -> Result<(), PmError> {
        self.flush(offset, len)?;
        self.fence()
    }

    /// Power-fail immediately. Dirty (unflushed) lines are lost outright;
    /// each flushed-but-unfenced snapshot persists or tears away per an
    /// independent seeded draw. Idempotent.
    pub fn crash_now(&mut self) {
        if self.crashed {
            return;
        }
        let flushed = std::mem::take(&mut self.flushed);
        for (line, snapshot) in flushed {
            if splitmix(&mut self.rng_state) & 1 == 0 {
                let start = (line * CACHELINE) as usize;
                self.durable[start..start + CACHELINE as usize].copy_from_slice(&snapshot);
            }
        }
        self.dirty.clear();
        self.crashed = true;
    }

    /// The crash-survivable image: exactly what a reboot would read.
    pub fn durable_image(&self) -> &[u8] {
        &self.durable
    }

    /// The program-visible image (pre-crash view).
    pub fn volatile_image(&self) -> Result<&[u8], PmError> {
        if self.crashed {
            return Err(PmError::Crashed);
        }
        Ok(&self.volatile)
    }

    /// Lines currently flushed but not yet fenced.
    pub fn pending_lines(&self) -> usize {
        self.flushed.len()
    }

    /// Lines stored but not yet flushed.
    pub fn dirty_lines(&self) -> usize {
        self.dirty.len()
    }
}

/// Address-set persistence tracker for the simulation [`Engine`]: which
/// NT-stored line addresses are durable versus pending, and how many
/// persist boundaries the run issued. Carries no byte contents — the
/// engine is timing-only; [`PersistMem`] is the contents-bearing twin.
///
/// [`Engine`]: crate::Engine
#[derive(Debug, Default, Clone)]
pub struct PersistDomain {
    /// Lines NT-stored since the last completed fence.
    pending: BTreeSet<u64>,
    /// Lines covered by a completed fence.
    durable: BTreeSet<u64>,
    /// Completed persist boundaries.
    boundaries: u64,
}

impl PersistDomain {
    /// A fresh, empty domain.
    pub fn new() -> Self {
        PersistDomain::default()
    }

    /// Record an NT store to `line` (a cacheline index, not a byte
    /// address).
    pub fn nt_store(&mut self, line: u64) {
        self.pending.insert(line);
    }

    /// Record a completed fence: everything pending becomes durable.
    pub fn fence(&mut self) {
        self.durable.append(&mut self.pending);
        self.boundaries += 1;
    }

    /// Lines stored but not yet covered by a fence.
    pub fn pending_lines(&self) -> usize {
        self.pending.len()
    }

    /// Lines covered by a completed fence.
    pub fn durable_lines(&self) -> usize {
        self.durable.len()
    }

    /// Completed persist boundaries.
    pub fn boundaries(&self) -> u64 {
        self.boundaries
    }

    /// Is the line holding byte address `addr` durable?
    pub fn is_durable(&self, addr: u64) -> bool {
        self.durable.contains(&(addr / CACHELINE))
    }

    /// The crash image as a line-address set: all durable lines plus a
    /// seeded arbitrary subset of the pending ones (the torn tail of an
    /// interrupted stripe write).
    pub fn crash_image(&self, seed: u64) -> BTreeSet<u64> {
        let mut state = seed;
        let mut image = self.durable.clone();
        for &line in &self.pending {
            if splitmix(&mut state) & 1 == 0 {
                image.insert(line);
            }
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_testkit::Rng;

    const LINE: usize = CACHELINE as usize;

    fn filled(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
    }

    #[test]
    fn stores_are_visible_but_not_durable_until_fenced() {
        let mut mem = PersistMem::new(1024);
        let payload = filled(3 * LINE, 7);
        mem.store(0, &payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        mem.read(0, &mut back).unwrap();
        assert_eq!(back, payload, "stores are program-visible immediately");
        assert_eq!(mem.durable_image()[..payload.len()], vec![0; payload.len()]);
        mem.flush(0, payload.len()).unwrap();
        assert_eq!(
            mem.durable_image()[..payload.len()],
            vec![0; payload.len()],
            "flush alone is not durability"
        );
        mem.fence().unwrap();
        assert_eq!(mem.durable_image()[..payload.len()], payload);
        assert_eq!(mem.persist_boundaries(), 1);
    }

    #[test]
    fn crash_drops_dirty_lines_and_tears_flushed_ones() {
        // Property: the durable image is always composed of, per line,
        // either the pre-crash durable bytes or the latest flushed
        // snapshot — never unflushed (dirty) bytes.
        let mut cases = 0;
        let mut torn = 0;
        for seed in 0..32u64 {
            let mut mem = PersistMem::with_seed(4096, seed);
            let base = filled(4096, 1);
            mem.store(0, &base).unwrap();
            mem.persist(0, 4096).unwrap();
            // New epoch: flush 8 lines, leave 2 dirty, then crash.
            let flushed_new = filled(8 * LINE, 101);
            let dirty_new = filled(2 * LINE, 201);
            mem.store(0, &flushed_new).unwrap();
            mem.flush(0, flushed_new.len()).unwrap();
            mem.store(8 * LINE as u64, &dirty_new).unwrap();
            mem.crash_now();
            assert!(mem.crashed());
            assert!(mem.read(0, &mut [0u8; 1]).is_err());
            let image = mem.durable_image();
            for line in 0..8 {
                let got = &image[line * LINE..(line + 1) * LINE];
                let old = &base[line * LINE..(line + 1) * LINE];
                let new = &flushed_new[line * LINE..(line + 1) * LINE];
                assert!(
                    got == old || got == new,
                    "seed {seed} line {line} torn blend"
                );
                cases += 1;
                if got == old {
                    torn += 1;
                }
            }
            for line in 8..10 {
                let got = &image[line * LINE..(line + 1) * LINE];
                let old = &base[line * LINE..(line + 1) * LINE];
                assert_eq!(got, old, "dirty lines must never persist");
            }
        }
        assert!(torn > 0 && torn < cases, "tearing draw is non-degenerate");
    }

    #[test]
    fn torn_lines_never_blend_two_epochs_of_the_same_cacheline() {
        // v1 fenced; v2 flushed (unfenced); v3 stored (dirty). The crash
        // image must show v1 or v2 per line — v3 and any blend are bugs.
        for seed in 0..32u64 {
            let mut mem = PersistMem::with_seed(1024, seed);
            let v1 = filled(4 * LINE, 10);
            let v2 = filled(4 * LINE, 90);
            let v3 = filled(4 * LINE, 170);
            mem.store(0, &v1).unwrap();
            mem.persist(0, v1.len()).unwrap();
            mem.store(0, &v2).unwrap();
            mem.flush(0, v2.len()).unwrap();
            mem.store(0, &v3).unwrap(); // dirties the lines again, post-flush
            mem.crash_now();
            let image = mem.durable_image();
            for line in 0..4 {
                let got = &image[line * LINE..(line + 1) * LINE];
                assert!(
                    got == &v1[line * LINE..(line + 1) * LINE]
                        || got == &v2[line * LINE..(line + 1) * LINE],
                    "seed {seed} line {line}: crash image leaked a post-flush store"
                );
            }
        }
    }

    #[test]
    fn durable_image_is_always_a_subset_of_issued_stores() {
        // Randomized: every durable byte matches what the program wrote
        // (volatile view at the last fence or flush), never invented data.
        let mut rng = Rng::new(0xD1A7_5EED);
        for case in 0..24 {
            let mut mem = PersistMem::with_seed(2048, rng.u64());
            let mut shadow = vec![0u8; mem.len()]; // mirror of volatile
            for _ in 0..rng.range(2, 20) {
                let off = rng.below((mem.len() - LINE) as u64);
                let len = rng.range(1, 2 * LINE);
                let len = len.min(mem.len() - off as usize);
                let bytes: Vec<u8> = (0..len).map(|_| rng.u8()).collect();
                mem.store(off, &bytes).unwrap();
                shadow[off as usize..off as usize + len].copy_from_slice(&bytes);
                if rng.bool() {
                    mem.flush(off, len).unwrap();
                }
                if rng.bool_with(0.3) {
                    mem.fence().unwrap();
                }
            }
            // Fence makes the flushed subset total…
            mem.flush(0, mem.len()).unwrap();
            mem.fence().unwrap();
            assert_eq!(
                mem.durable_image(),
                &shadow[..],
                "case {case}: after flush-all + fence, durable == volatile"
            );
        }
    }

    #[test]
    fn armed_crash_fires_at_the_scripted_boundary() {
        let mut mem = PersistMem::new(512);
        mem.arm_crash(1); // second future fence
        mem.store(0, &filled(LINE, 1)).unwrap();
        mem.persist(0, LINE).unwrap(); // boundary 0: survives
        mem.store(0, &filled(LINE, 2)).unwrap();
        assert_eq!(mem.persist(0, LINE), Err(PmError::Crashed));
        assert!(mem.crashed());
        assert_eq!(
            mem.persist_boundaries(),
            1,
            "crashed boundary never completes"
        );
        // Disarmed domains never crash.
        let mut mem = PersistMem::new(512);
        mem.arm_crash(0);
        mem.disarm_crash();
        mem.store(0, &filled(LINE, 3)).unwrap();
        mem.persist(0, LINE).unwrap();
        assert!(!mem.crashed());
    }

    #[test]
    fn out_of_range_accesses_are_rejected() {
        let mut mem = PersistMem::new(XPLINE as usize);
        assert_eq!(mem.len() as u64, XPLINE, "length rounds to XPLines");
        assert!(matches!(
            mem.store(XPLINE - 1, &[0, 0]),
            Err(PmError::OutOfRange { .. })
        ));
        assert!(mem.read(XPLINE, &mut [0u8; 1]).is_err());
        assert!(mem.flush(0, mem.len() + 1).is_err());
        assert!(mem.store(0, &[]).is_ok(), "empty store is a no-op");
    }

    #[test]
    fn from_bytes_round_trips_a_crash_image() {
        let mut mem = PersistMem::with_seed(1024, 9);
        let payload = filled(1024, 42);
        mem.store(0, &payload).unwrap();
        mem.persist(0, 1024).unwrap();
        mem.crash_now();
        let reborn = PersistMem::from_bytes(mem.durable_image().to_vec(), 10);
        let mut back = vec![0u8; 1024];
        reborn.read(0, &mut back).unwrap();
        assert_eq!(back, payload);
        assert!(!reborn.crashed());
        assert_eq!(reborn.persist_boundaries(), 0);
    }

    #[test]
    fn domain_tracker_counts_boundaries_and_draws_seeded_crash_images() {
        let mut dom = PersistDomain::new();
        for line in 0..8 {
            dom.nt_store(line);
        }
        assert_eq!(dom.pending_lines(), 8);
        assert_eq!(dom.durable_lines(), 0);
        dom.fence();
        assert_eq!(dom.pending_lines(), 0);
        assert_eq!(dom.durable_lines(), 8);
        assert_eq!(dom.boundaries(), 1);
        assert!(dom.is_durable(3 * CACHELINE));
        for line in 8..24 {
            dom.nt_store(line);
        }
        let a = dom.crash_image(7);
        let b = dom.crash_image(7);
        assert_eq!(a, b, "equal seeds draw equal torn subsets");
        assert!(a.len() >= 8 && a.len() <= 24, "durable ⊆ image ⊆ stored");
        assert!(
            (0..8).all(|l| a.contains(&l)),
            "durable lines always survive"
        );
        let c = dom.crash_image(8);
        assert!(a != c || dom.pending_lines() == 0, "seeds vary the tear");
    }
}
