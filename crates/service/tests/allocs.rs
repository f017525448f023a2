//! Heap allocations per operation, counted exactly.
//!
//! A counting global allocator tallies every allocation the calling thread
//! makes. One small op of each class on an idle shard runs inline, on that
//! thread, from admission to reply, so its count is the whole op: the reply
//! it hands back plus whatever bookkeeping the service and the pool still
//! allocate. The store's put and get run on the calling thread too.
//!
//! The counts are pinned the way `results/*.csv` pins the figures: a
//! change that allocates more on one of these paths fails here, and a change
//! that allocates less lowers the pin. Each count is the second of two
//! identical ops, so it is the steady state: the first op may still grow
//! storage that lives as long as the shard or its pool.
//!
//! Shape: RS(10, 4), 4 KiB blocks, one shard, one executor per shard.

use dialga_service::{ServiceConfig, StripeService};
use dialga_store::{Geometry, MemImage, StripeStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const K: usize = 10;
const M: usize = 4;
const BLOCK: usize = 4096;

/// Pinned allocations per op, exact: a change may only lower them, and
/// then lowers the pin with it.
///
/// An encode is its `m` parity blocks, the reply holding them and the
/// batch's list of replies. A decode is its two rebuilt shards, the batch's
/// list of plans, and the plan's five: the survivors and the lost shards
/// (one list), the parity minor's indices, its inversion, every lost
/// shard's row, data and parity alike, and their tables. A repair is its
/// rebuilt shard, the reply and the plan's five: the survivors and the
/// target, the minor's indices, its inversion, the row and its tables. A
/// clean scrub allocates nothing.
const ENCODE: u64 = M as u64 + 2;
const DECODE: u64 = 8;
const REPAIR: u64 = 7;
const SCRUB_CLEAN: u64 = 0;
/// The store's put and get run no service or pool code; pinned so a
/// change to them shows.
const STORE_PUT: u64 = 2;
const STORE_GET: u64 = 13;

thread_local! {
    /// Allocations made by this thread. A `Cell` per thread, not a shared
    /// atomic: the harness runs tests on parallel threads.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation (a `realloc` is one).
struct Counting;

fn count_one() {
    // A const-initialized `Cell` has no destructor, so it is reachable for
    // the thread's whole life; `try_with` only guards the impossible case.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; counting
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made running it (the
/// result's drop is not inside the count).
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn stripe(salt: usize) -> Vec<Vec<u8>> {
    (0..K)
        .map(|i| {
            (0..BLOCK)
                .map(|j| (salt * 7 + i * 131 + j * 17) as u8)
                .collect()
        })
        .collect()
}

fn service() -> StripeService {
    StripeService::new(ServiceConfig {
        shards: 1,
        threads_per_shard: 1,
        k: K,
        m: M,
        ..ServiceConfig::default()
    })
    .unwrap()
}

/// The full `k + m` stripe: data, then its parity.
fn full_stripe(svc: &StripeService, salt: usize) -> Vec<Vec<u8>> {
    let data = stripe(salt);
    let parity = svc.submit_encode(0, data.clone(), None).unwrap().wait();
    data.into_iter().chain(parity.unwrap()).collect()
}

/// Run `op` twice on identical inputs built by `input`, each inline, and
/// return the second run's reply and allocation count.
fn steady<I>(
    svc: &StripeService,
    input: impl Fn() -> I,
    op: impl Fn(I) -> Vec<Vec<u8>>,
) -> (Vec<Vec<u8>>, u64) {
    let inline = svc.stats().inline;
    let _ = op(input());
    let second = input();
    let out = counted(|| op(second));
    assert_eq!(svc.stats().inline, inline + 2, "both ops ran inline");
    out
}

#[test]
fn an_inline_encode_allocates_its_parity_and_one_reply() {
    let svc = service();
    let full = full_stripe(&svc, 1);
    let (parity, n) = steady(
        &svc,
        || full[..K].to_vec(),
        |data| svc.submit_encode(0, data, None).unwrap().wait().unwrap(),
    );
    assert_eq!(parity, full[K..]);
    assert_eq!(n, ENCODE, "encode: {n} allocations, pinned {ENCODE}");
}

#[test]
fn an_inline_decode_allocates_its_rebuilt_shards_and_plan() {
    let svc = service();
    let full = full_stripe(&svc, 2);
    let holes = || {
        let mut s: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        s[1] = None;
        s[K] = None;
        s
    };
    let (restored, n) = steady(&svc, holes, |shards| {
        svc.submit_decode(0, shards, None).unwrap().wait().unwrap()
    });
    assert_eq!(restored, full);
    assert_eq!(n, DECODE, "decode: {n} allocations, pinned {DECODE}");
}

#[test]
fn an_inline_repair_allocates_its_rebuilt_shard_and_plan() {
    let svc = service();
    let full = full_stripe(&svc, 3);
    let survivors = || {
        let mut s: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        s[2] = None;
        s
    };
    let (rebuilt, n) = steady(&svc, survivors, |shards| {
        svc.submit_repair(0, shards, 2, None)
            .unwrap()
            .wait()
            .unwrap()
    });
    assert_eq!(rebuilt, vec![full[2].clone()]);
    assert_eq!(n, REPAIR, "repair: {n} allocations, pinned {REPAIR}");
}

#[test]
fn an_inline_clean_scrub_allocates_nothing() {
    let svc = service();
    let full = full_stripe(&svc, 4);
    let (reply, n) = steady(
        &svc,
        || full.clone(),
        |shards| svc.submit_scrub(0, shards, None).unwrap().wait().unwrap(),
    );
    assert!(reply.is_empty(), "a clean stripe");
    assert_eq!(
        n, SCRUB_CLEAN,
        "clean scrub: {n} allocations, pinned {SCRUB_CLEAN}"
    );
}

#[test]
fn a_store_put_and_get_allocate_a_pinned_count() {
    let geo = Geometry::new(K, M, BLOCK, 4).unwrap();
    let mut store = StripeStore::format(MemImage::new(geo.image_len()), geo).unwrap();
    let data = stripe(5);
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    store.write_stripe(0, &refs).unwrap();
    let (put, puts) = counted(|| store.write_stripe(1, &refs));
    put.unwrap();
    let _ = store.read_stripe(0).unwrap();
    let (got, gets) = counted(|| store.read_stripe(1));
    assert_eq!(got.unwrap(), data);
    assert_eq!(
        puts, STORE_PUT,
        "store put: {puts} allocations, pinned {STORE_PUT}"
    );
    assert_eq!(
        gets, STORE_GET,
        "store get: {gets} allocations, pinned {STORE_GET}"
    );
}
