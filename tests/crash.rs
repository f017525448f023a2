//! Exhaustive crash-point recovery suite (the tentpole's acceptance
//! gate): power-fail an encode→commit→overwrite cycle at *every* persist
//! boundary and prove recovery always lands on exactly the pre- or
//! post-image, bit for bit — never a torn hybrid.
//!
//! Two delivery mechanisms are exercised:
//! * the faultkit [`FaultCell`] protocol (`Fault::CrashPoint`), arming
//!   the persistence domain exactly as the chaos suite arms the pool;
//! * `PersistMem::arm_crash`, the featureless path the seeded sweeps and
//!   the recovery benchmark use.
//!
//! Seed count for the random sweeps comes from `CRASH_SEEDS` (default 4;
//! `just crash` raises it).

use dialga_faultkit::{Fault, FaultCell, FaultPlan};
use dialga_repro::memsim::PersistMem;
use dialga_repro::store::{Geometry, StoreError, StripeStore};
use dialga_testkit::Rng;
use std::sync::Arc;

const SHARD: usize = 256;
/// A shard a put moves into the image in three pieces: two whole 4 KiB
/// ones and a partial one, hashed piece by piece.
const WIDE_SHARD: usize = 2 * 4096 + 1024;

fn sweep_seeds() -> u64 {
    std::env::var("CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn stripe_data(rng: &mut Rng, k: usize, shard: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|_| (0..shard).map(|_| rng.u8()).collect())
        .collect()
}

fn refs(data: &[Vec<u8>]) -> Vec<&[u8]> {
    data.iter().map(|d| d.as_slice()).collect()
}

/// What a crashed cycle recovered to.
#[derive(Debug, PartialEq)]
enum Image {
    Unallocated,
    Old,
    New,
}

/// Run format → write(old) → write(new) on a (k,m) store, power-failing
/// at post-arm persist boundary `crash_at` (None = run to completion)
/// via the faultkit `CrashPoint` protocol. Returns the recovered image
/// classification plus how many boundaries a full cycle has.
fn crashed_cycle(
    k: usize,
    m: usize,
    shard: usize,
    crash_at: Option<u64>,
    seed: u64,
) -> (Image, u64) {
    let geo = Geometry::new(k, m, shard, 2).unwrap();
    let mut mem = PersistMem::with_seed(geo.image_len(), seed);
    let cell = Arc::new(FaultCell::new());
    mem.attach_fault_cell(cell.clone());

    // Format runs unarmed: its persist boundary is not enumerated.
    let mut store = StripeStore::format(mem, geo).unwrap();
    let mut rng = Rng::new(0xC0FFEE ^ seed);
    let old = stripe_data(&mut rng, k, shard);
    let new = stripe_data(&mut rng, k, shard);

    let mut plan = FaultPlan::new();
    if let Some(nth) = crash_at {
        plan.push(Fault::CrashPoint { nth_persist: nth });
    }
    cell.arm(&plan, 1);

    let survived = store
        .write_stripe(0, &refs(&old))
        .and_then(|()| store.write_stripe(0, &refs(&new)));
    let boundaries = store.image().persist_boundaries() - 1; // minus format's

    if crash_at.is_none() {
        survived.unwrap();
        assert_eq!(store.read_stripe(0).unwrap(), new);
        return (Image::New, boundaries);
    }
    assert!(
        matches!(survived, Err(StoreError::Crashed)),
        "crash at boundary {crash_at:?} did not surface"
    );
    assert_eq!(cell.injected(), 1);

    // Reboot: recover from the durable (possibly torn) image.
    let image = store.into_image().durable_image().to_vec();
    let store = StripeStore::open(PersistMem::from_bytes(image, seed + 1)).unwrap();
    let got = match store.read_stripe(0) {
        Err(StoreError::Unallocated { .. }) => Image::Unallocated,
        Err(e) => panic!("recovered stripe unreadable: {e}"),
        Ok(got) if got == old => Image::Old,
        Ok(got) => {
            assert_eq!(got, new, "recovered stripe is a torn hybrid");
            Image::New
        }
    };
    (got, boundaries)
}

/// (4,2): enumerate every persist boundary of the cycle, across several
/// tearing seeds, and pin the allowed outcome set per boundary — with
/// one-piece shards and with shards a put stores and hashes in several
/// pieces (the pieces add store calls, not persist boundaries).
#[test]
fn every_boundary_of_a_4_2_cycle_recovers_old_or_new() {
    for shard in [SHARD, WIDE_SHARD] {
        every_boundary_recovers_old_or_new(shard);
    }
}

fn every_boundary_recovers_old_or_new(shard: usize) {
    let (_, total) = crashed_cycle(4, 2, shard, None, 0);
    assert_eq!(total, 4, "write+commit twice = four persist boundaries");
    for nth in 0..total {
        for seed in 0..8u64 {
            let (got, _) = crashed_cycle(4, 2, shard, Some(nth), seed);
            match nth {
                // Old slot persist torn: nothing or all of `old`.
                0 => assert!(
                    got == Image::Unallocated || got == Image::Old,
                    "boundary 0 seed {seed}: {got:?}"
                ),
                // Old slot durable, commit lost: deterministic roll-forward.
                1 => assert_eq!(got, Image::Old, "seed {seed}"),
                // New slot persist torn: old stays committed, or the
                // whole shadow happened to persist and rolls forward.
                2 => assert!(
                    got == Image::Old || got == Image::New,
                    "boundary 2 seed {seed}: {got:?}"
                ),
                // New slot durable: deterministic roll-forward.
                _ => assert_eq!(got, Image::New, "seed {seed}"),
            }
        }
    }
}

/// A slot-persist crash with enough seeds must actually produce both
/// outcomes — rollback (torn) *and* roll-forward (every line happened to
/// persist) — otherwise the tearing model is degenerate and the suite
/// proves less than it claims. Uses the smallest slot (a (1,1) code with
/// one-cacheline shards = 3 lines) so the all-lines-persist draw has
/// probability 1/8 per seed rather than 2^-25.
#[test]
fn tearing_produces_both_rollback_and_rollforward() {
    let geo = Geometry::new(1, 1, 64, 1).unwrap();
    let mut seen = [false; 2];
    for seed in 0..64u64 {
        let mut store =
            StripeStore::format(PersistMem::with_seed(geo.image_len(), seed), geo).unwrap();
        let mut rng = Rng::new(seed);
        let data = vec![(0..64).map(|_| rng.u8()).collect::<Vec<u8>>()];
        store.image_mut().arm_crash(0); // the slot persist
        assert!(matches!(
            store.write_stripe(0, &refs(&data)),
            Err(StoreError::Crashed)
        ));
        let image = store.into_image().durable_image().to_vec();
        let store = StripeStore::open(PersistMem::from_bytes(image, seed + 1)).unwrap();
        match store.read_stripe(0) {
            Err(StoreError::Unallocated { .. }) => seen[0] = true,
            Ok(got) => {
                assert_eq!(got, data, "seed {seed}: torn hybrid");
                seen[1] = true;
            }
            Err(e) => panic!("seed {seed}: {e}"),
        }
        if seen[0] && seen[1] {
            return;
        }
    }
    panic!("64 seeds never exercised both torn outcomes: {seen:?}");
}

/// Seeded random sweeps on the wider geometries: a multi-stripe store
/// takes a random write workload, power-fails at a random boundary, and
/// every stripe must recover to its exact last-committed (or in-flight
/// new) value. The last case's shards span several store pieces.
#[test]
fn seeded_sweeps_recover_exact_images_on_wide_codes() {
    for &(k, m, shard) in &[(6usize, 3usize, SHARD), (10, 4, SHARD), (6, 3, WIDE_SHARD)] {
        for seed in 0..sweep_seeds() {
            sweep_one(k, m, shard, seed);
        }
    }
}

fn sweep_one(k: usize, m: usize, shard: usize, seed: u64) {
    let stripes = 4;
    let writes = 10;
    let geo = Geometry::new(k, m, shard, stripes).unwrap();
    let mem = PersistMem::with_seed(geo.image_len(), seed);
    let mut store = StripeStore::format(mem, geo).unwrap();
    let mut rng = Rng::new(0x5EED ^ seed);

    // Plan the workload up front so expectations are derivable.
    let plan: Vec<(usize, Vec<Vec<u8>>)> = (0..writes)
        .map(|_| {
            let stripe = rng.below(stripes as u64) as usize;
            (stripe, stripe_data(&mut rng, k, shard))
        })
        .collect();
    // Each write is exactly two persist boundaries.
    let crash_at = rng.below(writes as u64 * 2);
    store.image_mut().arm_crash(crash_at);

    let mut committed: Vec<Option<Vec<Vec<u8>>>> = vec![None; stripes];
    let mut in_flight: Option<(usize, &Vec<Vec<u8>>, bool)> = None;
    for (i, (stripe, data)) in plan.iter().enumerate() {
        match store.write_stripe(*stripe, &refs(data)) {
            Ok(()) => committed[*stripe] = Some(data.clone()),
            Err(StoreError::Crashed) => {
                // Crash at an even boundary tore the slot write; at an
                // odd one the slot was durable and only the commit died.
                let at_commit = crash_at == i as u64 * 2 + 1;
                in_flight = Some((*stripe, data, at_commit));
                break;
            }
            Err(e) => panic!("unexpected write failure: {e}"),
        }
    }
    let (stripe_hit, new_data, at_commit) =
        in_flight.expect("crash boundary inside the planned writes");

    let image = store.into_image().durable_image().to_vec();
    let store = StripeStore::open(PersistMem::from_bytes(image, seed + 99)).unwrap();
    assert!(
        store.recovery_report().corrupt.is_empty(),
        "({k},{m}) seed {seed}: boot scrub found corruption after a pure crash"
    );

    for (stripe, prior) in committed.iter().enumerate() {
        let got = store.read_stripe(stripe);
        if stripe == stripe_hit {
            match got {
                Ok(got) => {
                    let is_new = got == *new_data;
                    let is_old = prior.as_ref() == Some(&got);
                    assert!(
                        is_new || is_old,
                        "({k},{m}) seed {seed}: in-flight stripe is a torn hybrid"
                    );
                    if at_commit {
                        assert!(
                            is_new,
                            "({k},{m}) seed {seed}: durable slot must roll forward"
                        );
                    }
                }
                Err(StoreError::Unallocated { .. }) => assert!(
                    prior.is_none() && !at_commit,
                    "({k},{m}) seed {seed}: committed stripe vanished"
                ),
                Err(e) => panic!("({k},{m}) seed {seed}: {e}"),
            }
        } else {
            match prior {
                Some(want) => assert_eq!(
                    &got.unwrap(),
                    want,
                    "({k},{m}) seed {seed}: settled stripe {stripe} changed"
                ),
                None => assert!(matches!(got, Err(StoreError::Unallocated { .. }))),
            }
        }
    }
}
