#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! Journaled stripe store: crash-consistent erasure-coded stripes over a
//! persistence-domain image.
//!
//! The paper's stack prices persistence but (before this crate) never
//! *survived* it: nothing guaranteed a stripe is readable after power
//! fails mid-write. This crate closes that gap with a shadow-write +
//! atomic-commit-record protocol layered over any [`PmImage`] backing —
//! [`PersistMem`] for crash-injected tests,
//! [`MemImage`]/[`FileImage`] for the archive CLI.
//!
//! # On-image layout
//!
//! ```text
//! [ superblock: 1 XPLine ]
//! [ commit table: one 8 B word per stripe, padded to an XPLine ]
//! [ stripe 0 slot A | stripe 0 slot B ]    each slot:
//! [ stripe 1 slot A | stripe 1 slot B ]      (k+m) shards of shard_len
//! ...                                        + one cacheline footer
//! ```
//!
//! # Commit protocol
//!
//! Every stripe write goes to the *inactive* slot (A/B shadow pair):
//!
//! 1. store the `k+m` shard payloads and the slot footer (magic, stripe,
//!    sequence, payload hash, checksum), then **persist** the slot
//!    — persist boundary #1;
//! 2. store the stripe's 8-byte commit word — sequence + slot bit,
//!    checksummed and mixed with the stripe index — then **persist** it —
//!    persist boundary #2.
//!
//! The commit word lives inside one cacheline and is 8-byte aligned, so
//! under the persistence domain's 64 B tearing granularity it persists
//! atomically: a crash anywhere leaves either the old word or the new
//! word, never a blend. [`StripeStore::open`] derives the recovery
//! decision purely from durable state:
//!
//! * inactive slot carries a valid footer with `seq = committed + 1` and
//!   a matching payload hash → the crash hit *after* the slot persisted
//!   but before (or during) the commit persisted: **roll forward**;
//! * footer claims `seq = committed + 1` but the payload hash mismatches
//!   → the slot write itself tore: **roll back** (the committed slot is
//!   untouched by construction);
//! * anything else → the stripe is wherever its commit word says.
//!
//! After rollback/forward, a **boot scrub** re-verifies every committed
//! stripe with [`Dialga::scrub`], re-derives localizable corrupt shards
//! from the stripe's other shards — persisting the repair only if the
//! repaired payload hashes to what the slot footer committed — and
//! quarantines what cannot be localized.
//!
//! # Payload hash and layout version
//!
//! The footer's payload hash is one 8-byte hash over the slot's `k+m`
//! shards in order, covering every payload byte. It has XXH3's long-input
//! shape (not XXH3's digests): eight 64-bit lanes over 64-byte stripes,
//! each step a 32×32→64 multiply that a baseline x86-64 build runs two
//! lanes to an SSE2 register, and a lane scramble every 1 KiB. A put
//! moves each shard into the image in 4 KiB pieces and hashes each piece
//! right after its store, while it is still in L1, so the hash rides in
//! the copy instead of re-reading the slot. Layout **version 3** marks
//! it; a version-1 (FNV-1a) or version-2 (XXH64) image is refused at
//! [`open`](StripeStore::open) with
//! [`BadSuperblock`](StoreError::BadSuperblock) `"unknown layout
//! version"`. A get reads only the `k` data shards of the committed slot;
//! parity is read by [`read_all_shards`](StripeStore::read_all_shards)
//! and the boot scrub.

use dialga::Dialga;
use dialga_ec::EcError;
use dialga_memsim::{PersistMem, PmError, CACHELINE, XPLINE};
use std::collections::BTreeSet;
use std::fmt;
use std::fs::File;
use std::io;
use std::time::Instant;

/// Superblock magic: `b"DIALGAST"`.
const SB_MAGIC: u64 = u64::from_le_bytes(*b"DIALGAST");
/// Slot-footer magic: `b"DLGASLOT"`.
const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"DLGASLOT");
/// Commit-word domain separator mixed into the checksum.
const COMMIT_MAGIC: u64 = 0xD1A1_6A5A_C0DE_C0DE;
/// Layout version: 3 = the [`SlotHasher`] payload hash in the slot footer
/// (1 was FNV-1a, 2 XXH64; such images are refused).
const VERSION: u64 = 3;
/// Bytes `write_stripe` moves into the image per store call: it hashes
/// each piece right after its store, while the piece is still in L1.
const SWEEP: usize = 4096;
/// Largest commit sequence: the commit word carries 31 sequence bits and
/// 0 means "never committed".
const SEQ_MAX: u32 = 0x7FFF_FFFF;

/// splitmix64 finalizer: the store's checksum mixer.
const fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn le64(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(w)
}

/// splitmix64 over a fixed seed, as a table: rows 0–15 key the sixteen
/// 64-byte stripes of each 1 KiB block of a [`SlotHasher`] input; row 16
/// keys the scramble that closes a block, and the final fold.
const fn slot_hash_keys() -> [[u64; 8]; 17] {
    let mut keys = [[0u64; 8]; 17];
    let mut state = SB_MAGIC;
    let mut n = 0;
    while n < 17 * 8 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        keys[n / 8][n % 8] = mix64(state);
        n += 1;
    }
    keys
}

const KEYS: [[u64; 8]; 17] = slot_hash_keys();
/// The odd multiplier of the block scramble.
const PRIME32: u64 = 0x9E37_79B1;

/// Streaming slot payload hash in XXH3's long-input shape (not
/// XXH3-compatible): eight 64-bit lanes, one word each per 64-byte
/// stripe. A lane adds its word to its neighbour and the product of the
/// keyed word's 32-bit halves to itself, so the loop is 32×32→64
/// multiplies a baseline x86-64 build vectorizes (`pmuludq`); every 1 KiB
/// the lanes are scrambled, so stripe order counts across blocks as the
/// per-stripe keys make it count within one. Input is whole stripes:
/// [`Geometry::new`] holds a shard to a multiple of 64 bytes.
struct SlotHasher {
    acc: [u64; 8],
    /// Stripes absorbed so far.
    stripes: u64,
}

impl SlotHasher {
    fn new() -> Self {
        SlotHasher {
            acc: [0; 8],
            stripes: 0,
        }
    }

    /// Absorb the whole 64-byte stripes of `bytes`.
    fn update(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len().is_multiple_of(CACHELINE as usize));
        // A local copy keeps the lanes in registers across the loop.
        let mut acc = self.acc;
        for stripe in bytes.chunks_exact(CACHELINE as usize) {
            let n = (self.stripes % 16) as usize;
            for (i, (word, key)) in stripe.chunks_exact(8).zip(KEYS[n]).enumerate() {
                let d = le64(word);
                let dk = d ^ key;
                acc[i ^ 1] = acc[i ^ 1].wrapping_add(d);
                acc[i] = acc[i].wrapping_add((dk & 0xFFFF_FFFF) * (dk >> 32));
            }
            self.stripes += 1;
            if n == 15 {
                for (a, key) in acc.iter_mut().zip(KEYS[16]) {
                    *a = (*a ^ (*a >> 47) ^ key).wrapping_mul(PRIME32);
                }
            }
        }
        self.acc = acc;
    }

    /// Fold the lane pairs through 64×64→128 multiplies, add the byte
    /// length, and mix.
    fn finish(self) -> u64 {
        let (acc, keys) = (self.acc, KEYS[16]);
        let folded = (0..8).step_by(2).fold(self.stripes * CACHELINE, |h, i| {
            let product = u128::from(acc[i] ^ keys[i]) * u128::from(acc[i + 1] ^ keys[i + 1]);
            h.wrapping_add(product as u64 ^ (product >> 64) as u64)
        });
        mix64(folded)
    }
}

/// The slot hash of `bytes` in one shot.
fn slot_hash(bytes: &[u8]) -> u64 {
    let mut h = SlotHasher::new();
    h.update(bytes);
    h.finish()
}

/// Check word over the superblock's six header words.
fn superblock_check(sb: &[u8]) -> u64 {
    sb.chunks_exact(8)
        .take(6)
        .enumerate()
        .fold(SB_MAGIC, |check, (i, w)| {
            mix64(check ^ le64(w).rotate_left(i as u32))
        })
}

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// The backing persistence domain has power-failed; reopen from its
    /// durable image.
    Crashed,
    /// Access outside the backing image.
    OutOfRange {
        /// Requested byte offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Image length.
        image_len: usize,
    },
    /// Backing-file I/O failure.
    Io(io::Error),
    /// The superblock is absent, corrupt, or from a different layout.
    BadSuperblock {
        /// What failed to validate.
        why: &'static str,
    },
    /// Rejected geometry (zero stripes, unaligned shard length, image
    /// too small, …).
    BadGeometry {
        /// What was wrong.
        why: &'static str,
    },
    /// Stripe index beyond the formatted stripe count.
    NoSuchStripe {
        /// Requested stripe.
        stripe: usize,
        /// Formatted stripe count.
        stripes: usize,
    },
    /// The stripe has never been committed.
    Unallocated {
        /// Requested stripe.
        stripe: usize,
    },
    /// The boot scrub could not localize this stripe's corruption; it is
    /// quarantined until rewritten.
    Quarantined {
        /// The corrupt stripe.
        stripe: usize,
    },
    /// Erasure-coding failure.
    Coding(EcError),
    /// Caller-supplied stripe data has the wrong shape.
    BadStripeData {
        /// What was wrong.
        why: &'static str,
    },
    /// The stripe's committed sequence is the largest the commit word can
    /// carry; one more write would read back as "never committed".
    SequenceExhausted {
        /// The stripe that cannot be written again.
        stripe: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Crashed => write!(f, "backing persistence domain has crashed"),
            StoreError::OutOfRange {
                offset,
                len,
                image_len,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) outside image of {image_len} bytes"
            ),
            StoreError::Io(e) => write!(f, "backing file i/o: {e}"),
            StoreError::BadSuperblock { why } => write!(f, "bad superblock: {why}"),
            StoreError::BadGeometry { why } => write!(f, "bad geometry: {why}"),
            StoreError::NoSuchStripe { stripe, stripes } => {
                write!(f, "stripe {stripe} out of range (store has {stripes})")
            }
            StoreError::Unallocated { stripe } => {
                write!(f, "stripe {stripe} has never been committed")
            }
            StoreError::Quarantined { stripe } => write!(
                f,
                "stripe {stripe} is quarantined (unlocalizable corruption found at boot)"
            ),
            StoreError::Coding(e) => write!(f, "erasure coding: {e}"),
            StoreError::BadStripeData { why } => write!(f, "bad stripe data: {why}"),
            StoreError::SequenceExhausted { stripe } => {
                write!(f, "stripe {stripe} has used all {SEQ_MAX} commit sequences")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<PmError> for StoreError {
    fn from(e: PmError) -> Self {
        match e {
            PmError::Crashed => StoreError::Crashed,
            PmError::OutOfRange {
                offset,
                len,
                image_len,
            } => StoreError::OutOfRange {
                offset,
                len,
                image_len,
            },
        }
    }
}

impl From<EcError> for StoreError {
    fn from(e: EcError) -> Self {
        StoreError::Coding(e)
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A byte-addressed persistent backing image.
///
/// `persist` must make `[offset, offset+len)` durable and constitutes
/// one persist boundary; a crash strictly before a `persist` returns may
/// leave any 64 B-cacheline-granular subset of the range durable.
pub trait PmImage {
    /// Image length in bytes.
    fn len(&self) -> usize;
    /// True for a zero-length image.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Read `out.len()` bytes at `offset`.
    fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), StoreError>;
    /// Store bytes at `offset` (not yet durable).
    fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError>;
    /// Flush + fence the range: one persist boundary.
    fn persist(&mut self, offset: u64, len: usize) -> Result<(), StoreError>;
}

impl<T: PmImage + ?Sized> PmImage for Box<T> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), StoreError> {
        (**self).read(offset, out)
    }
    fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        (**self).store(offset, bytes)
    }
    fn persist(&mut self, offset: u64, len: usize) -> Result<(), StoreError> {
        (**self).persist(offset, len)
    }
}

impl PmImage for PersistMem {
    fn len(&self) -> usize {
        PersistMem::len(self)
    }
    fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), StoreError> {
        Ok(PersistMem::read(self, offset, out)?)
    }
    fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        Ok(PersistMem::store(self, offset, bytes)?)
    }
    fn persist(&mut self, offset: u64, len: usize) -> Result<(), StoreError> {
        Ok(PersistMem::persist(self, offset, len)?)
    }
}

/// A plain in-memory image: every store is instantly "durable". The
/// zero-fault backing for unit tests and in-process archives.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    bytes: Vec<u8>,
}

impl MemImage {
    /// A zero-filled image.
    pub fn new(len: usize) -> Self {
        MemImage {
            bytes: vec![0; len],
        }
    }

    /// Wrap existing bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemImage { bytes }
    }

    /// The raw bytes (e.g. to corrupt in integrity tests).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Unwrap into the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl PmImage for MemImage {
    fn len(&self) -> usize {
        self.bytes.len()
    }
    fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), StoreError> {
        let (start, end) = range_of(offset, out.len(), self.bytes.len())?;
        out.copy_from_slice(&self.bytes[start..end]);
        Ok(())
    }
    fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let (start, end) = range_of(offset, bytes.len(), self.bytes.len())?;
        self.bytes[start..end].copy_from_slice(bytes);
        Ok(())
    }
    fn persist(&mut self, _offset: u64, _len: usize) -> Result<(), StoreError> {
        Ok(())
    }
}

fn range_of(offset: u64, len: usize, image_len: usize) -> Result<(usize, usize), StoreError> {
    match offset.checked_add(len as u64) {
        Some(end) if end <= image_len as u64 => Ok((offset as usize, offset as usize + len)),
        _ => Err(StoreError::OutOfRange {
            offset,
            len,
            image_len,
        }),
    }
}

/// A file-backed image for the archive CLI: `persist` is `sync_data`.
#[derive(Debug)]
pub struct FileImage {
    file: File,
    len: usize,
}

impl FileImage {
    /// Create (truncating) a zero-filled file image of `len` bytes.
    pub fn create(path: &std::path::Path, len: usize) -> Result<Self, StoreError> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(len as u64)?;
        Ok(FileImage { file, len })
    }

    /// Open an existing file image.
    pub fn open(path: &std::path::Path) -> Result<Self, StoreError> {
        let file = File::options().read(true).write(true).open(path)?;
        let len = file.metadata()?.len() as usize;
        Ok(FileImage { file, len })
    }
}

impl PmImage for FileImage {
    fn len(&self) -> usize {
        self.len
    }
    fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), StoreError> {
        range_of(offset, out.len(), self.len)?;
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(out, offset)?;
        Ok(())
    }
    fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        range_of(offset, bytes.len(), self.len)?;
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(bytes, offset)?;
        Ok(())
    }
    fn persist(&mut self, _offset: u64, _len: usize) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// Stripe-store layout parameters and offset arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Data shards per stripe.
    pub k: usize,
    /// Parity shards per stripe.
    pub m: usize,
    /// Bytes per shard (a multiple of 64).
    pub shard_len: usize,
    /// Stripes in the store.
    pub stripes: usize,
}

impl Geometry {
    /// Validate and build a geometry.
    pub fn new(k: usize, m: usize, shard_len: usize, stripes: usize) -> Result<Self, StoreError> {
        if shard_len == 0 || !(shard_len as u64).is_multiple_of(CACHELINE) {
            return Err(StoreError::BadGeometry {
                why: "shard_len must be a positive multiple of the 64 B cacheline",
            });
        }
        if stripes == 0 {
            return Err(StoreError::BadGeometry {
                why: "at least one stripe",
            });
        }
        if k == 0 || m == 0 || k + m > 255 {
            return Err(StoreError::BadGeometry {
                why: "code geometry outside GF(2^8) bounds",
            });
        }
        let geo = Geometry {
            k,
            m,
            shard_len,
            stripes,
        };
        if geo.checked_image_len().is_none() {
            return Err(StoreError::BadGeometry {
                why: "layout overflows the address space",
            });
        }
        Ok(geo)
    }

    fn checked_image_len(&self) -> Option<usize> {
        let table = (self.stripes as u64).checked_mul(8)?;
        let table = table.checked_next_multiple_of(XPLINE)?;
        let payload = (self.k + self.m).checked_mul(self.shard_len)? as u64;
        let slot = payload.checked_add(CACHELINE)?.checked_mul(2)?;
        let slots = slot.checked_mul(self.stripes as u64)?;
        usize::try_from(XPLINE.checked_add(table)?.checked_add(slots)?).ok()
    }

    /// One slot's shard payload: `k+m` shards (non-overflowing, validated
    /// in `new`).
    fn payload_len(&self) -> usize {
        (self.k + self.m) * self.shard_len
    }

    /// One slot: `k+m` shards plus the footer cacheline.
    pub fn slot_len(&self) -> u64 {
        self.payload_len() as u64 + CACHELINE
    }

    /// Byte offset of the stripe's 8-byte commit word.
    pub fn commit_word_off(&self, stripe: usize) -> u64 {
        XPLINE + stripe as u64 * 8
    }

    fn slots_off(&self) -> u64 {
        XPLINE + (self.stripes as u64 * 8).next_multiple_of(XPLINE)
    }

    /// Byte offset of a stripe's slot (`slot` is 0 = A, 1 = B).
    pub fn slot_off(&self, stripe: usize, slot: u8) -> u64 {
        self.slots_off() + stripe as u64 * 2 * self.slot_len() + slot as u64 * self.slot_len()
    }

    /// Byte offset of one shard inside a slot.
    pub fn shard_off(&self, stripe: usize, slot: u8, shard: usize) -> u64 {
        self.slot_off(stripe, slot) + (shard * self.shard_len) as u64
    }

    /// Byte offset of a slot's footer cacheline.
    pub fn footer_off(&self, stripe: usize, slot: u8) -> u64 {
        self.slot_off(stripe, slot) + self.payload_len() as u64
    }

    /// Total image bytes this geometry needs.
    pub fn image_len(&self) -> usize {
        // Validated non-overflowing in `new`.
        self.slots_off() as usize + self.stripes * 2 * self.slot_len() as usize
    }
}

/// Pack a commit word: 31-bit sequence + slot bit, checksummed against
/// the stripe index. An all-zero word means "never committed", so
/// sequences start at 1.
fn pack_commit(stripe: usize, seq: u32, slot: u8) -> u64 {
    let payload = (seq & SEQ_MAX) as u64 | ((slot as u64) << 31);
    let check = mix64(payload ^ ((stripe as u64) << 32) ^ COMMIT_MAGIC) >> 32;
    payload | (check << 32)
}

/// Decode a commit word; `None` when absent or failing its checksum.
fn unpack_commit(stripe: usize, word: u64) -> Option<(u32, u8)> {
    if word == 0 {
        return None;
    }
    let payload = word & 0xFFFF_FFFF;
    let check = mix64(payload ^ ((stripe as u64) << 32) ^ COMMIT_MAGIC) >> 32;
    if word >> 32 != check {
        return None;
    }
    let seq = payload as u32 & SEQ_MAX;
    if seq == 0 {
        return None;
    }
    Some((seq, ((payload >> 31) & 1) as u8))
}

/// Slot footer: the durable claim "this slot holds sequence `seq` of
/// stripe `stripe`, and its payload hashes to `payload_hash`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Footer {
    stripe: u64,
    seq: u32,
    payload_hash: u64,
}

impl Footer {
    fn encode(&self) -> [u8; CACHELINE as usize] {
        let mut out = [0u8; CACHELINE as usize];
        let words = [
            FOOTER_MAGIC,
            self.stripe,
            self.seq as u64,
            self.payload_hash,
        ];
        let mut check = FOOTER_MAGIC;
        for (i, w) in words.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
            check = mix64(check ^ w.rotate_left(i as u32));
        }
        out[32..40].copy_from_slice(&check.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<Footer> {
        if bytes.len() < 40 || le64(bytes) != FOOTER_MAGIC {
            return None;
        }
        let mut check = FOOTER_MAGIC;
        for i in 0..4 {
            check = mix64(check ^ le64(&bytes[i * 8..]).rotate_left(i as u32));
        }
        if le64(&bytes[32..]) != check {
            return None;
        }
        let seq = le64(&bytes[16..]);
        if seq == 0 || seq > SEQ_MAX as u64 {
            return None;
        }
        Some(Footer {
            stripe: le64(&bytes[8..]),
            seq: seq as u32,
            payload_hash: le64(&bytes[24..]),
        })
    }
}

/// What [`StripeStore::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Wall-clock nanoseconds recovery took (commit-table walk + scrub).
    pub recovery_ns: u64,
    /// Stripes in the store.
    pub stripes: usize,
    /// Stripes with a committed version after recovery.
    pub committed: usize,
    /// Interrupted writes rolled back (torn shadow slot discarded).
    pub rolled_back: usize,
    /// Interrupted writes rolled forward (slot durable, commit re-issued).
    pub rolled_forward: usize,
    /// Shards re-derived by the boot scrub, summed over stripes.
    pub shards_repaired: usize,
    /// Per-stripe repaired shard sets: `(stripe, shard indices)`.
    pub repaired: Vec<(usize, Vec<usize>)>,
    /// Per-stripe unlocalizable corruption evidence: `(stripe, shards)`.
    /// A repair the slot footer's payload hash refused is listed here with
    /// the shards the scrub had named.
    pub corrupt: Vec<(usize, Vec<usize>)>,
    /// Of `recovery_ns`, nanoseconds in [`Dialga::scrub`] on the stripes it
    /// did not find clean: detection plus localization (0 on a clean open).
    pub localize_ns: u64,
    /// Of `recovery_ns`, nanoseconds re-deriving, hash-checking, storing
    /// and persisting the shards those scrubs named (0 on a clean open).
    pub repair_ns: u64,
}

/// A crash-consistent erasure-coded stripe store over a [`PmImage`].
///
/// See the module docs for the layout and commit protocol. All writes go
/// through [`write_stripe`](Self::write_stripe) (exactly two persist
/// boundaries); [`open`](Self::open) recovers a dirty image and scrubs
/// every committed stripe before serving reads.
pub struct StripeStore<I> {
    image: I,
    geo: Geometry,
    coder: Dialga,
    /// Committed sequence per stripe (0 = never committed).
    committed: Vec<u32>,
    /// Slot holding the committed version (meaningful when `committed>0`).
    active: Vec<u8>,
    /// Stripes quarantined by the boot scrub.
    quarantined: BTreeSet<usize>,
    /// Parity scratch `write_stripe` encodes into: `m` shards.
    parity: Vec<u8>,
    report: RecoveryReport,
}

impl<I: PmImage> StripeStore<I> {
    /// Format a fresh store: writes the superblock and an all-zero commit
    /// table, then persists the metadata region (one persist boundary).
    pub fn format(mut image: I, geo: Geometry) -> Result<Self, StoreError> {
        let need = geo.image_len();
        if image.len() < need {
            return Err(StoreError::BadGeometry {
                why: "backing image smaller than the geometry needs",
            });
        }
        let mut sb = vec![0u8; XPLINE as usize];
        let words = [
            SB_MAGIC,
            VERSION,
            geo.k as u64,
            geo.m as u64,
            geo.shard_len as u64,
            geo.stripes as u64,
        ];
        for (i, w) in words.iter().enumerate() {
            sb[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        let check = superblock_check(&sb);
        sb[48..56].copy_from_slice(&check.to_le_bytes());
        image.store(0, &sb)?;
        let table_len = geo.slots_off() - XPLINE;
        image.store(XPLINE, &vec![0u8; table_len as usize])?;
        image.persist(0, geo.slots_off() as usize)?;
        Self::over(image, geo)
    }

    /// A store over `image` with nothing committed yet. `image` is at
    /// least `geo.image_len()` bytes, which bounds the scratch allocated
    /// here.
    fn over(image: I, geo: Geometry) -> Result<Self, StoreError> {
        Ok(StripeStore {
            image,
            coder: Dialga::new(geo.k, geo.m)?,
            committed: vec![0; geo.stripes],
            active: vec![0; geo.stripes],
            quarantined: BTreeSet::new(),
            parity: vec![0; geo.m * geo.shard_len],
            report: RecoveryReport {
                stripes: geo.stripes,
                ..RecoveryReport::default()
            },
            geo,
        })
    }

    /// Open (and recover) an existing store from its durable image:
    /// validate the superblock, roll every interrupted write forward or
    /// back, then boot-scrub all committed stripes.
    pub fn open(image: I) -> Result<Self, StoreError> {
        let start = Instant::now();
        let geo = Self::read_superblock(&image)?;
        if image.len() < geo.image_len() {
            return Err(StoreError::BadSuperblock {
                why: "image truncated below its declared geometry",
            });
        }
        let mut store = Self::over(image, geo)?;
        // One slot payload, read into by every roll decision and scrub.
        let mut payload = vec![0u8; geo.payload_len()];
        store.recover(&mut payload)?;
        store.boot_scrub(&mut payload)?;
        store.report.committed = store.committed.iter().filter(|&&s| s > 0).count();
        store.report.recovery_ns = start.elapsed().as_nanos() as u64;
        Ok(store)
    }

    fn read_superblock(image: &I) -> Result<Geometry, StoreError> {
        if image.len() < XPLINE as usize {
            return Err(StoreError::BadSuperblock {
                why: "image smaller than one superblock",
            });
        }
        let mut sb = vec![0u8; XPLINE as usize];
        image.read(0, &mut sb)?;
        if le64(&sb) != SB_MAGIC {
            return Err(StoreError::BadSuperblock { why: "bad magic" });
        }
        if le64(&sb[48..]) != superblock_check(&sb) {
            return Err(StoreError::BadSuperblock {
                why: "checksum mismatch",
            });
        }
        if le64(&sb[8..]) != VERSION {
            return Err(StoreError::BadSuperblock {
                why: "unknown layout version",
            });
        }
        Geometry::new(
            le64(&sb[16..]) as usize,
            le64(&sb[24..]) as usize,
            le64(&sb[32..]) as usize,
            le64(&sb[40..]) as usize,
        )
    }

    /// Walk the commit table, resolving each stripe per the recovery
    /// state machine in the module docs.
    fn recover(&mut self, payload: &mut [u8]) -> Result<(), StoreError> {
        for stripe in 0..self.geo.stripes {
            let mut word_bytes = [0u8; 8];
            self.image
                .read(self.geo.commit_word_off(stripe), &mut word_bytes)?;
            let committed = unpack_commit(stripe, u64::from_le_bytes(word_bytes));

            match committed {
                Some((seq, slot)) => {
                    self.committed[stripe] = seq;
                    self.active[stripe] = slot;
                    // Did an interrupted successor write leave a durable
                    // shadow slot?
                    let shadow = 1 - slot;
                    match self.read_footer(stripe, shadow)? {
                        Some(f) if f.stripe == stripe as u64 && f.seq == seq.wrapping_add(1) => {
                            if self.payload_hash(stripe, shadow, payload)? == f.payload_hash {
                                self.commit(stripe, f.seq, shadow)?;
                                self.report.rolled_forward += 1;
                            } else {
                                // Torn shadow write: evidence of an
                                // in-flight epoch that did not survive.
                                self.report.rolled_back += 1;
                            }
                        }
                        _ => {}
                    }
                }
                None => {
                    // Never committed — unless a first write's slot
                    // persisted and only its commit word was lost.
                    let footers = [self.read_footer(stripe, 0)?, self.read_footer(stripe, 1)?];
                    let best = (0u8..)
                        .zip(footers)
                        .filter_map(|(s, f)| Some((f.filter(|f| f.stripe == stripe as u64)?, s)))
                        .max_by_key(|(f, _)| f.seq);
                    if let Some((f, slot)) = best {
                        if self.payload_hash(stripe, slot, payload)? == f.payload_hash {
                            self.commit(stripe, f.seq, slot)?;
                            self.report.rolled_forward += 1;
                        } else {
                            self.report.rolled_back += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Verify every committed stripe; re-derive localizable corruption
    /// from the stripe's other shards, quarantine the rest.
    fn boot_scrub(&mut self, payload: &mut [u8]) -> Result<(), StoreError> {
        for stripe in 0..self.geo.stripes {
            if self.committed[stripe] == 0 {
                continue;
            }
            let slot = self.active[stripe];
            self.image.read(self.geo.slot_off(stripe, slot), payload)?;
            let shards: Vec<&[u8]> = payload.chunks_exact(self.geo.shard_len).collect();
            let scrub_start = Instant::now();
            let verdict = self.coder.scrub(&shards);
            if matches!(&verdict, Ok(bad) if bad.is_empty()) {
                continue;
            }
            self.report.localize_ns += scrub_start.elapsed().as_nanos() as u64;
            let evidence = match verdict {
                Ok(bad) => {
                    let repair_start = Instant::now();
                    let restored = self.repair_shards(stripe, slot, &shards, &bad)?;
                    self.report.repair_ns += repair_start.elapsed().as_nanos() as u64;
                    if restored {
                        self.report.shards_repaired += bad.len();
                        self.report.repaired.push((stripe, bad));
                        continue;
                    }
                    bad
                }
                Err(EcError::Corrupt { shards }) => shards,
                Err(e) => return Err(StoreError::Coding(e)),
            };
            self.quarantined.insert(stripe);
            self.report.corrupt.push((stripe, evidence));
        }
        Ok(())
    }

    /// Re-derive the shards the scrub named from `k` of the others and make
    /// them durable — if that restores the committed bytes. The slot footer
    /// still holds the hash of the payload as it was committed: a repaired
    /// payload that hashes to anything else is a miscorrection (more
    /// corrupt shards than the code can tell apart, aliasing to a smaller
    /// consistent set), so nothing is stored and `false` sends the stripe
    /// to quarantine with the evidence intact. A footer that does not
    /// decode is itself torn and cannot vouch either way; the parity
    /// check stands alone then.
    fn repair_shards(
        &mut self,
        stripe: usize,
        slot: u8,
        shards: &[&[u8]],
        bad: &[usize],
    ) -> Result<bool, StoreError> {
        let geo = self.geo;
        let footer = self.read_footer(stripe, slot)?;
        // One plan and one pass for every named shard. The scrub names them
        // ascending, the order the plan rebuilds its holes in, and fewer than
        // `m`, so the parity scratch holds them all.
        let holed: Vec<Option<&[u8]>> = (0..shards.len())
            .map(|i| (!bad.contains(&i)).then_some(shards[i]))
            .collect();
        let plan = self.coder.decode_plan(&holed)?;
        let sources: Vec<&[u8]> = plan.survivors().iter().map(|&s| shards[s]).collect();
        let fixed = &mut self.parity[..bad.len() * geo.shard_len];
        plan.apply(&sources, fixed, self.coder.prefetch_distance(), false)?;
        let fixed: Vec<&[u8]> = fixed.chunks_exact(geo.shard_len).collect();
        if let Some(footer) = footer {
            let mut h = SlotHasher::new();
            for (i, &shard) in shards.iter().enumerate() {
                h.update(match bad.iter().position(|&b| b == i) {
                    Some(n) => fixed[n],
                    None => shard,
                });
            }
            if h.finish() != footer.payload_hash {
                return Ok(false);
            }
        }
        for (&i, bytes) in bad.iter().zip(&fixed) {
            self.image.store(geo.shard_off(stripe, slot, i), bytes)?;
        }
        // One persist makes the repair durable.
        self.image
            .persist(geo.slot_off(stripe, slot), geo.slot_len() as usize)?;
        Ok(true)
    }

    fn read_footer(&self, stripe: usize, slot: u8) -> Result<Option<Footer>, StoreError> {
        let mut bytes = [0u8; CACHELINE as usize];
        self.image
            .read(self.geo.footer_off(stripe, slot), &mut bytes)?;
        Ok(Footer::decode(&bytes))
    }

    /// The slot hash of a slot's whole shard payload region, read into
    /// `payload`.
    fn payload_hash(&self, stripe: usize, slot: u8, payload: &mut [u8]) -> Result<u64, StoreError> {
        self.image.read(self.geo.slot_off(stripe, slot), payload)?;
        Ok(slot_hash(payload))
    }

    /// Write + persist a commit word and update the in-memory map.
    fn commit(&mut self, stripe: usize, seq: u32, slot: u8) -> Result<(), StoreError> {
        let word = pack_commit(stripe, seq, slot);
        self.image
            .store(self.geo.commit_word_off(stripe), &word.to_le_bytes())?;
        self.image.persist(self.geo.commit_word_off(stripe), 8)?;
        self.committed[stripe] = seq;
        self.active[stripe] = slot;
        Ok(())
    }

    /// Encode and durably commit one stripe of `k` data shards. Exactly
    /// two persist boundaries: the shadow slot, then the commit word.
    /// A crash anywhere leaves the previous version intact.
    pub fn write_stripe(&mut self, stripe: usize, data: &[&[u8]]) -> Result<(), StoreError> {
        let geo = self.geo;
        if stripe >= geo.stripes {
            return Err(StoreError::NoSuchStripe {
                stripe,
                stripes: geo.stripes,
            });
        }
        if data.len() != geo.k {
            return Err(StoreError::BadStripeData {
                why: "need exactly k data shards",
            });
        }
        if data.iter().any(|d| d.len() != geo.shard_len) {
            return Err(StoreError::BadStripeData {
                why: "every data shard must be shard_len bytes",
            });
        }
        if self.committed[stripe] >= SEQ_MAX {
            return Err(StoreError::SequenceExhausted { stripe });
        }
        let seq = self.committed[stripe] + 1;
        let slot = if self.committed[stripe] == 0 {
            0
        } else {
            1 - self.active[stripe]
        };
        let mut parity: Vec<&mut [u8]> = self.parity.chunks_exact_mut(geo.shard_len).collect();
        self.coder.encode(data, &mut parity)?;

        let mut h = SlotHasher::new();
        let mut off = geo.slot_off(stripe, slot);
        for shard in data.iter().copied().chain(parity.iter().map(|p| &**p)) {
            for piece in shard.chunks(SWEEP) {
                self.image.store(off, piece)?;
                h.update(piece);
                off += piece.len() as u64;
            }
        }
        let footer = Footer {
            stripe: stripe as u64,
            seq,
            payload_hash: h.finish(),
        };
        self.image
            .store(geo.footer_off(stripe, slot), &footer.encode())?;
        self.image
            .persist(geo.slot_off(stripe, slot), geo.slot_len() as usize)?;

        self.commit(stripe, seq, slot)?;
        self.quarantined.remove(&stripe);
        Ok(())
    }

    /// Read a committed stripe's `k` data shards.
    pub fn read_stripe(&self, stripe: usize) -> Result<Vec<Vec<u8>>, StoreError> {
        self.read_shards(stripe, self.geo.k)
    }

    /// Read all `k+m` shards of a committed stripe.
    pub fn read_all_shards(&self, stripe: usize) -> Result<Vec<Vec<u8>>, StoreError> {
        self.read_shards(stripe, self.geo.k + self.geo.m)
    }

    /// Read the first `count` shards of a committed stripe.
    fn read_shards(&self, stripe: usize, count: usize) -> Result<Vec<Vec<u8>>, StoreError> {
        if stripe >= self.geo.stripes {
            return Err(StoreError::NoSuchStripe {
                stripe,
                stripes: self.geo.stripes,
            });
        }
        if self.quarantined.contains(&stripe) {
            return Err(StoreError::Quarantined { stripe });
        }
        if self.committed[stripe] == 0 {
            return Err(StoreError::Unallocated { stripe });
        }
        let slot = self.active[stripe];
        (0..count)
            .map(|shard| {
                let mut buf = vec![0u8; self.geo.shard_len];
                self.image
                    .read(self.geo.shard_off(stripe, slot, shard), &mut buf)?;
                Ok(buf)
            })
            .collect()
    }

    /// The store's geometry.
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// Committed sequence number of a stripe (0 = never committed).
    pub fn committed_seq(&self, stripe: usize) -> u32 {
        self.committed.get(stripe).copied().unwrap_or(0)
    }

    /// Stripes quarantined by the boot scrub.
    pub fn quarantined(&self) -> impl Iterator<Item = usize> + '_ {
        self.quarantined.iter().copied()
    }

    /// What the last `open` found and did (empty after `format`).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Borrow the backing image.
    pub fn image(&self) -> &I {
        &self.image
    }

    /// Mutably borrow the backing image (tests corrupt bytes here).
    pub fn image_mut(&mut self) -> &mut I {
        &mut self.image
    }

    /// Unwrap the backing image.
    pub fn into_image(self) -> I {
        self.image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_testkit::Rng;
    use std::cell::RefCell;

    /// The digests the slot hash must keep: the layout-3 format, in debug
    /// and release codegen alike. A change here is a new layout version.
    #[test]
    fn slot_hash_golden_digests_are_pinned() {
        let digests = [64, 1024, 14 * 65536].map(|len| slot_hash(&Rng::new(0x601D).bytes(len)));
        assert_eq!(
            digests,
            [
                0x409a_4068_5526_95e6,
                0xc60e_7571_c7f2_729e,
                0xf916_fe05_b7d8_eabd
            ],
            "{digests:#018x?}"
        );
    }

    /// Swapping two distinct 64 B lines, or two shards, moves the digest:
    /// the accumulate is keyed by stripe position and scrambled per 1 KiB,
    /// not a sum a permutation leaves alone.
    #[test]
    fn slot_hash_moves_when_lines_or_shards_swap() {
        const LINE: usize = CACHELINE as usize;
        let mut rng = Rng::new(0x5A4F);
        let payload = rng.bytes(14 * 4096);
        let want = slot_hash(&payload);
        let lines = payload.len() / LINE;
        for _ in 0..200 {
            let (a, b) = (rng.range(0, lines), rng.range(0, lines));
            if a == b {
                continue;
            }
            let mut swapped = payload.clone();
            let (lo, hi) = swapped.split_at_mut(a.max(b) * LINE);
            lo[a.min(b) * LINE..][..LINE].swap_with_slice(&mut hi[..LINE]);
            assert_ne!(slot_hash(&swapped), want, "lines {a} and {b}");
        }
        for (a, b) in [(0, 1), (2, 9), (12, 13)] {
            let mut shards: Vec<&[u8]> = payload.chunks_exact(4096).collect();
            shards.swap(a, b);
            assert_ne!(slot_hash(&shards.concat()), want, "shards {a} and {b}");
        }
    }

    /// Streaming in pieces of any whole-stripe size equals one shot, across
    /// the 1 KiB scramble boundary too.
    #[test]
    fn slot_hash_streaming_equals_one_shot() {
        let payload = Rng::new(0x5EED).bytes(14 * 5 * 1024);
        let want = slot_hash(&payload);
        for piece in [64, 960, 1024 + 64, SWEEP, payload.len()] {
            let mut h = SlotHasher::new();
            for bytes in payload.chunks(piece) {
                h.update(bytes);
            }
            assert_eq!(h.finish(), want, "{piece} B pieces");
        }
    }

    /// A torn slot is some cachelines of one epoch among the lines of
    /// another (or of a never-written slot); any single such line, and
    /// any single flipped bit, must move the hash.
    #[test]
    fn any_single_cacheline_change_moves_the_hash() {
        const LINE: usize = CACHELINE as usize;
        let mut rng = Rng::new(0xC0FFEE);
        for (k, m) in [(4, 2), (6, 3), (10, 4)] {
            for shard_len in [64, 512, 4096, 65536] {
                let new = rng.bytes((k + m) * shard_len);
                let old = rng.bytes(new.len());
                let want = slot_hash(&new);
                for _ in 0..6 {
                    let at = rng.range(0, new.len() / LINE) * LINE;
                    let flipped: Vec<u8> = {
                        let mut line = new[at..at + LINE].to_vec();
                        line[rng.range(0, LINE)] ^= 1 << rng.range(0, 8);
                        line
                    };
                    for line in [&old[at..at + LINE], &[0u8; LINE], &flipped] {
                        let mut torn = new.clone();
                        torn[at..at + LINE].copy_from_slice(line);
                        assert_ne!(
                            slot_hash(&torn),
                            want,
                            "({k},{m}) x {shard_len} B, line at {at}"
                        );
                    }
                }
            }
        }
    }

    /// Sizes of every call the store made into its image.
    #[derive(Default)]
    struct Calls {
        reads: Vec<usize>,
        stores: Vec<usize>,
        persists: usize,
    }

    struct Counting {
        inner: MemImage,
        calls: RefCell<Calls>,
    }

    impl Counting {
        fn new(inner: MemImage) -> Self {
            Counting {
                inner,
                calls: RefCell::default(),
            }
        }
    }

    impl PmImage for Counting {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), StoreError> {
            self.calls.borrow_mut().reads.push(out.len());
            self.inner.read(offset, out)
        }
        fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
            self.calls.get_mut().stores.push(bytes.len());
            self.inner.store(offset, bytes)
        }
        fn persist(&mut self, offset: u64, len: usize) -> Result<(), StoreError> {
            self.calls.get_mut().persists += 1;
            self.inner.persist(offset, len)
        }
    }

    fn stripe_data(rng: &mut Rng, geo: &Geometry) -> Vec<Vec<u8>> {
        (0..geo.k).map(|_| rng.bytes(geo.shard_len)).collect()
    }

    fn refs(data: &[Vec<u8>]) -> Vec<&[u8]> {
        data.iter().map(|d| d.as_slice()).collect()
    }

    #[test]
    fn image_calls_per_put_get_and_clean_open_are_pinned() {
        // A put stores each shard in SWEEP-byte pieces: one for a short
        // shard, three (two whole, one partial) for a long one.
        for (shard_len, pieces) in [(512, vec![512]), (2 * SWEEP + 512, vec![SWEEP, SWEEP, 512])] {
            image_calls_are_pinned(Geometry::new(4, 3, shard_len, 5).unwrap(), &pieces);
        }
    }

    fn image_calls_are_pinned(geo: Geometry, pieces: &[usize]) {
        let (k, n) = (geo.k, geo.k + geo.m);
        let image = Counting::new(MemImage::new(geo.image_len()));
        let mut store = StripeStore::format(image, geo).unwrap();
        let mut rng = Rng::new(7);
        let data = stripe_data(&mut rng, &geo);
        store.image().calls.take();

        // A put: k+m shards in pieces, the footer, the commit word; two
        // boundaries.
        for stripe in [0, 1, 3, 3] {
            store.write_stripe(stripe, &refs(&data)).unwrap();
            let calls = store.image().calls.take();
            let mut want = pieces.repeat(n);
            want.extend([CACHELINE as usize, 8]);
            assert_eq!(calls.stores, want);
            assert_eq!(calls.persists, 2);
            assert!(calls.reads.is_empty());
        }

        // A get reads the k data shards; only read_all_shards reads parity.
        assert_eq!(store.read_stripe(3).unwrap(), data);
        assert_eq!(store.image().calls.take().reads, vec![geo.shard_len; k]);
        assert_eq!(store.read_all_shards(3).unwrap()[..k], data[..]);
        assert_eq!(store.image().calls.take().reads, vec![geo.shard_len; n]);

        // A clean open: the superblock, then per stripe its commit word and
        // shadow footer (both footers where nothing is committed), then one
        // whole-payload read per committed stripe for the scrub.
        let reopened = StripeStore::open(Counting::new(store.into_image().inner)).unwrap();
        assert_eq!(reopened.recovery_report().committed, 3);
        let calls = reopened.image().calls.take();
        let count = |len: usize| calls.reads.iter().filter(|&&l| l == len).count();
        assert_eq!(count(XPLINE as usize), 1);
        assert_eq!(count(8), geo.stripes);
        assert_eq!(count(CACHELINE as usize), 3 + 2 * 2);
        assert_eq!(count(geo.payload_len()), 3);
        assert_eq!(calls.reads.len(), 1 + 3 * geo.stripes);
        assert!(calls.stores.is_empty());
        assert_eq!(calls.persists, 0);

        // A dirty open: over the clean one, each repaired stripe costs its
        // footer read, a store per named shard and one persist — the payload
        // the scrub read is the payload the repair works from.
        let mut image = reopened.into_image().inner;
        for (stripe, shard) in [(0, 1), (1, 2), (1, 5)] {
            let at = geo.shard_off(stripe, 0, shard) as usize + CACHELINE as usize;
            rng.fill(&mut image.bytes_mut()[at..at + CACHELINE as usize]);
        }
        let repaired = StripeStore::open(Counting::new(image)).unwrap();
        assert_eq!(
            repaired.recovery_report().repaired,
            vec![(0, vec![1]), (1, vec![2, 5])]
        );
        let calls = repaired.image().calls.take();
        let count = |len: usize| calls.reads.iter().filter(|&&l| l == len).count();
        assert_eq!(count(CACHELINE as usize), 3 + 2 * 2 + 2);
        assert_eq!(count(geo.payload_len()), 3);
        assert_eq!(calls.reads.len(), 1 + 3 * geo.stripes + 2);
        assert_eq!(calls.stores, vec![geo.shard_len; 3]);
        assert_eq!(calls.persists, 2);
        assert_eq!(repaired.read_stripe(0).unwrap(), data);
        assert_eq!(repaired.read_stripe(1).unwrap(), data);
    }

    /// A boot repair is checked against the committed hash before it is
    /// written. Forge the footer (its check word is no secret) to claim a
    /// different payload: the localized, parity-consistent repair of a torn
    /// shard no longer restores "the committed bytes", so nothing is stored
    /// and the stripe is quarantined with the image as found.
    #[test]
    fn a_repair_the_footer_hash_refuses_is_not_written() {
        let geo = Geometry::new(4, 2, 512, 2).unwrap();
        let mut store = StripeStore::format(MemImage::new(geo.image_len()), geo).unwrap();
        let mut rng = Rng::new(23);
        let data = stripe_data(&mut rng, &geo);
        for stripe in 0..2 {
            store.write_stripe(stripe, &refs(&data)).unwrap();
        }
        let mut image = store.into_image();
        let bytes = image.bytes_mut();
        let at = geo.shard_off(0, 0, 2) as usize;
        rng.fill(&mut bytes[at..at + CACHELINE as usize]);
        let at = geo.footer_off(0, 0) as usize;
        let mut footer = Footer::decode(&bytes[at..]).unwrap();
        footer.payload_hash ^= 1;
        bytes[at..at + CACHELINE as usize].copy_from_slice(&footer.encode());
        let found = bytes.to_vec();

        let store = StripeStore::open(Counting::new(image)).unwrap();
        let calls = store.image().calls.take();
        assert!(calls.stores.is_empty() && calls.persists == 0);
        let report = store.recovery_report();
        assert_eq!(report.corrupt, vec![(0, vec![2])]);
        assert!(report.repaired.is_empty() && report.shards_repaired == 0);
        assert!(matches!(
            store.read_stripe(0),
            Err(StoreError::Quarantined { stripe: 0 })
        ));
        assert_eq!(store.read_stripe(1).unwrap(), data);
        assert_eq!(store.into_image().inner.into_bytes(), found);
    }

    /// A committed slot whose footer does not decode cannot vouch for a
    /// repair either way: the parity check stands alone, so a localized
    /// torn shard is still repaired, and the committed data reads back.
    #[test]
    fn a_torn_footer_leaves_the_parity_check_to_vouch_for_a_repair() {
        let geo = Geometry::new(4, 2, 512, 2).unwrap();
        let mut store = StripeStore::format(MemImage::new(geo.image_len()), geo).unwrap();
        let mut rng = Rng::new(29);
        let data = stripe_data(&mut rng, &geo);
        store.write_stripe(0, &refs(&data)).unwrap();
        let mut image = store.into_image();
        let bytes = image.bytes_mut();
        let at = geo.footer_off(0, 0) as usize;
        bytes[at + 24] ^= 0x01;
        assert_eq!(Footer::decode(&bytes[at..]), None);
        let at = geo.shard_off(0, 0, 1) as usize;
        rng.fill(&mut bytes[at..at + CACHELINE as usize]);

        let store = StripeStore::open(image).unwrap();
        let report = store.recovery_report();
        assert_eq!(report.repaired, vec![(0, vec![1])]);
        assert!(report.corrupt.is_empty());
        assert_eq!(store.read_stripe(0).unwrap(), data);
        let store = StripeStore::open(store.into_image()).unwrap();
        let report = store.recovery_report();
        assert!(report.repaired.is_empty() && report.corrupt.is_empty());
        assert_eq!((report.rolled_back, report.rolled_forward), (0, 0));
        assert_eq!(store.read_stripe(0).unwrap(), data);
    }

    /// Overwrite one superblock header word and re-seal the check word, as
    /// anyone holding the image can (mix64 is not a secret).
    fn forge_superblock(image: &mut MemImage, word: usize, value: u64) {
        let sb = &mut image.bytes_mut()[..XPLINE as usize];
        sb[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes());
        let check = superblock_check(sb);
        sb[48..56].copy_from_slice(&check.to_le_bytes());
    }

    #[test]
    fn overflowing_geometry_is_a_typed_error() {
        const OVERFLOWS: &str = "layout overflows the address space";
        for (k, m, shard_len) in [(10, 6, 1 << 60), (1, 1, 1 << 62), (100, 100, 1 << 57)] {
            assert!(
                matches!(
                    Geometry::new(k, m, shard_len, 1),
                    Err(StoreError::BadGeometry { why: OVERFLOWS })
                ),
                "({k},{m}) x {shard_len}"
            );
        }

        // The same geometry arriving in a superblock with a valid check word.
        let geo = Geometry::new(10, 6, 64, 1).unwrap();
        let mut image = StripeStore::format(MemImage::new(geo.image_len()), geo)
            .unwrap()
            .into_image();
        forge_superblock(&mut image, 4, 1 << 60);
        assert!(matches!(
            StripeStore::open(image),
            Err(StoreError::BadGeometry { why: OVERFLOWS })
        ));
    }

    #[test]
    fn layout_versions_1_and_2_are_refused() {
        let geo = Geometry::new(4, 2, 64, 2).unwrap();
        for version in [1, 2] {
            let mut image = StripeStore::format(MemImage::new(geo.image_len()), geo)
                .unwrap()
                .into_image();
            forge_superblock(&mut image, 1, version);
            assert!(matches!(
                StripeStore::open(image),
                Err(StoreError::BadSuperblock {
                    why: "unknown layout version"
                })
            ));
        }
    }

    /// An image whose every read at one offset fails with an I/O error.
    struct FailingRead {
        inner: MemImage,
        at: u64,
    }

    impl PmImage for FailingRead {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), StoreError> {
            if offset == self.at {
                return Err(StoreError::Io(io::Error::other("injected read failure")));
            }
            self.inner.read(offset, out)
        }
        fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
            self.inner.store(offset, bytes)
        }
        fn persist(&mut self, offset: u64, len: usize) -> Result<(), StoreError> {
            self.inner.persist(offset, len)
        }
    }

    /// A footer that cannot be read is not "no footer": for a committed
    /// stripe's shadow slot and for both slots of a never-committed one,
    /// `open` returns the I/O error instead of guessing.
    #[test]
    fn a_footer_read_error_fails_open() {
        let geo = Geometry::new(4, 2, 64, 2).unwrap();
        let mut store = StripeStore::format(MemImage::new(geo.image_len()), geo).unwrap();
        let data = stripe_data(&mut Rng::new(41), &geo);
        store.write_stripe(0, &refs(&data)).unwrap();
        let image = store.into_image();
        for at in [
            geo.footer_off(0, 1),
            geo.footer_off(1, 0),
            geo.footer_off(1, 1),
        ] {
            let failing = FailingRead {
                inner: image.clone(),
                at,
            };
            assert!(
                matches!(StripeStore::open(failing), Err(StoreError::Io(_))),
                "read failure at {at}"
            );
        }
        assert_eq!(
            StripeStore::open(image).unwrap().read_stripe(0).unwrap(),
            data
        );
    }

    #[test]
    fn last_sequence_commits_and_the_next_write_is_refused() {
        let geo = Geometry::new(4, 2, 64, 2).unwrap();
        let mut rng = Rng::new(31);
        let mut store = StripeStore::format(MemImage::new(geo.image_len()), geo).unwrap();
        store
            .write_stripe(0, &refs(&stripe_data(&mut rng, &geo)))
            .unwrap();

        // Re-stamp stripe 0's committed slot one short of the last sequence.
        let mut image = store.into_image();
        let bytes = image.bytes_mut();
        let at = geo.footer_off(0, 0) as usize;
        let footer = Footer {
            seq: SEQ_MAX - 1,
            ..Footer::decode(&bytes[at..]).unwrap()
        };
        bytes[at..at + CACHELINE as usize].copy_from_slice(&footer.encode());
        let at = geo.commit_word_off(0) as usize;
        bytes[at..at + 8].copy_from_slice(&pack_commit(0, SEQ_MAX - 1, 0).to_le_bytes());

        let mut store = StripeStore::open(image).unwrap();
        assert_eq!(store.committed_seq(0), SEQ_MAX - 1);
        let last = stripe_data(&mut rng, &geo);
        store.write_stripe(0, &refs(&last)).unwrap();
        assert_eq!(store.committed_seq(0), SEQ_MAX);

        // The last sequence survives a reopen; the write after it touches
        // nothing and says why.
        let mut store = StripeStore::open(Counting::new(store.into_image())).unwrap();
        assert_eq!(store.committed_seq(0), SEQ_MAX);
        store.image().calls.take();
        let err = store
            .write_stripe(0, &refs(&stripe_data(&mut rng, &geo)))
            .unwrap_err();
        assert!(matches!(err, StoreError::SequenceExhausted { stripe: 0 }));
        assert_eq!(
            err.to_string(),
            "stripe 0 has used all 2147483647 commit sequences"
        );
        let calls = store.image().calls.take();
        assert!(calls.stores.is_empty() && calls.persists == 0);
        assert_eq!(store.read_stripe(0).unwrap(), last);
        store.write_stripe(1, &refs(&last)).unwrap();
    }
}
