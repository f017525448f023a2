//! End-to-end stripe integrity: `Dialga::verify` / `Dialga::scrub`
//! localization sweeps, the pool's verified decode/repair paths
//! (acceptance criteria of the robustness PR), and the stripe store's
//! boot scrub — every torn-shard pattern must be repaired in place or
//! reported as `Corrupt` with its evidence; silent misses are zero.

use dialga_faultkit::{flip_byte, truncate_shard};
use dialga_repro::coder::encoder::Dialga;
use dialga_repro::coder::EncodePool;
use dialga_repro::ec::EcError;
use dialga_repro::store::{Geometry, MemImage, StoreError, StripeStore};
use dialga_testkit::run_cases;

fn stripe(coder: &Dialga, len: usize, seed: usize) -> Vec<Vec<u8>> {
    let k = coder.params().k;
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            (0..len)
                .map(|j| ((seed + i * 89 + j * 7) % 256) as u8)
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = coder.encode_vec(&refs).unwrap();
    data.into_iter().chain(parity).collect()
}

/// `Dialga::scrub` must localize *every* single-shard corruption across
/// the acceptance geometries, at randomized offsets and flip masks.
#[test]
fn scrub_localizes_every_single_shard_corruption() {
    for (k, m) in [(4usize, 2usize), (6, 3), (10, 4)] {
        let coder = Dialga::new(k, m).unwrap();
        let clean = stripe(&coder, 1024 + 37, k * 10 + m);
        {
            let refs: Vec<&[u8]> = clean.iter().map(|s| s.as_slice()).collect();
            assert_eq!(coder.scrub(&refs).unwrap(), Vec::<usize>::new());
        }
        for victim in 0..k + m {
            // Deterministic sub-cases per victim: random offset and mask.
            run_cases(4, |rng| {
                let mut bad = clean.clone();
                let offset = rng.range(0, bad[victim].len());
                let mask = rng.u8() | 1; // never a zero mask
                flip_byte(&mut bad[victim], offset, mask);
                let refs: Vec<&[u8]> = bad.iter().map(|s| s.as_slice()).collect();
                assert_eq!(
                    coder.scrub(&refs).unwrap(),
                    vec![victim],
                    "k={k} m={m} victim={victim} offset={offset} mask={mask:#04x}"
                );
            });
        }
    }
}

/// Every erasure set of `size` shards out of `n`, ascending.
fn erasure_sets(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new()];
    for _ in 0..size {
        sets = sets
            .into_iter()
            .flat_map(|set: Vec<usize>| {
                let from = set.last().map_or(0, |&l| l + 1);
                (from..n).map(move |i| [set.clone(), vec![i]].concat())
            })
            .collect();
    }
    sets
}

/// The pool's verified decode must reject a corrupted survivor with
/// `EcError::Corrupt` naming exactly that shard: every single erasure ×
/// every corrupt survivor on (6,3) and (10,4), and every erased pair ×
/// every corrupt survivor on (10,4) — |E| + 2 <= m leaves the spare
/// parity constraint localization needs. One erasure more (|E| + 1 == m)
/// is beyond the budget: still `Corrupt`, carrying the mismatching parity
/// rows of the decoded stripe as evidence, never a name. `missed` counts
/// corrupt survivors that decoded `Ok`, `wrong` any other answer; both
/// must end at zero.
#[test]
fn decode_verified_names_the_corrupt_survivor() {
    let pool = EncodePool::new(4);
    let (mut missed, mut wrong) = (Vec::new(), Vec::new());
    for (k, m) in [(6usize, 3usize), (10, 4)] {
        let coder = Dialga::new(k, m).unwrap();
        let n = k + m;
        let clean = stripe(&coder, 2048 + 5, 3);
        for size in 1..m {
            let localizable = size + 2 <= m;
            for lost in erasure_sets(n, size) {
                for corrupt in (0..n).filter(|c| !lost.contains(c)) {
                    let mut shards: Vec<Option<Vec<u8>>> =
                        clean.iter().cloned().map(Some).collect();
                    for &l in &lost {
                        shards[l] = None;
                    }
                    if let Some(s) = shards[corrupt].as_mut() {
                        flip_byte(s, 1000, 0x20);
                    }
                    let got = pool.decode_verified(&coder, &mut shards);
                    let want = if localizable {
                        Err(EcError::Corrupt {
                            shards: vec![corrupt],
                        })
                    } else {
                        let full: Vec<&[u8]> = shards.iter().flatten().map(Vec::as_slice).collect();
                        coder.verify(&full[..k], &full[k..])
                    };
                    let case = format!("k={k} m={m} lost={lost:?} corrupt={corrupt}: {got:?}");
                    if got.is_ok() {
                        missed.push(case);
                    } else if got != want {
                        wrong.push(case);
                    }
                }
            }
        }
    }
    assert!(missed.is_empty(), "not rejected: {missed:?}");
    assert!(wrong.is_empty(), "wrong localization: {wrong:?}");
    // And a clean stripe decodes verified, bit-exactly.
    let coder = Dialga::new(6, 3).unwrap();
    let clean = stripe(&coder, 2048 + 5, 3);
    let mut shards: Vec<Option<Vec<u8>>> = clean.iter().cloned().map(Some).collect();
    shards[0] = None;
    shards[7] = None;
    pool.decode_verified(&coder, &mut shards).unwrap();
    for (i, s) in shards.iter().enumerate() {
        assert_eq!(s.as_deref(), Some(clean[i].as_slice()), "shard {i}");
    }
}

/// The pool's verified repair rejects corrupt survivors and otherwise
/// matches the fast-path repair bit-exactly.
#[test]
fn repair_verified_matches_and_rejects() {
    let coder = Dialga::new(4, 2).unwrap();
    let pool = EncodePool::new(2);
    let clean = stripe(&coder, 4096, 5);
    let target = 1usize;
    let mut shards: Vec<Option<Vec<u8>>> = clean.iter().cloned().map(Some).collect();
    shards[target] = None;
    assert_eq!(
        pool.repair_verified(&coder, &shards, target).unwrap(),
        clean[target]
    );
    // Corrupt one survivor: the verified path must refuse where the fast
    // path would silently fold the corruption into the rebuilt shard.
    if let Some(s) = shards[3].as_mut() {
        flip_byte(s, 0, 0x80);
    }
    assert!(matches!(
        pool.repair_verified(&coder, &shards, target),
        Err(EcError::Corrupt { .. })
    ));
    assert!(
        pool.repair(&coder, &shards, target).is_ok(),
        "fast path stays oblivious — that contrast is the point"
    );
}

/// Pool-side verify agrees with the serial verifier, including on
/// truncation-shaped corruption (caught as a length error, not a panic).
#[test]
fn pool_verify_matches_serial_and_handles_truncation() {
    let coder = Dialga::new(6, 3).unwrap();
    let pool = EncodePool::new(4);
    let clean = stripe(&coder, 1024, 9);
    let refs: Vec<&[u8]> = clean.iter().map(|s| s.as_slice()).collect();
    pool.verify(&coder, &refs[..6], &refs[6..]).unwrap();
    coder.verify(&refs[..6], &refs[6..]).unwrap();

    let mut bad = clean.clone();
    flip_byte(&mut bad[8], 512, 0x04); // parity row 2
    let refs: Vec<&[u8]> = bad.iter().map(|s| s.as_slice()).collect();
    for result in [
        pool.verify(&coder, &refs[..6], &refs[6..]),
        coder.verify(&refs[..6], &refs[6..]),
    ] {
        assert!(matches!(result, Err(EcError::Corrupt { shards }) if shards == vec![8]));
    }

    let mut short = clean;
    truncate_shard(&mut short[2], 1000);
    let refs: Vec<&[u8]> = short.iter().map(|s| s.as_slice()).collect();
    assert!(matches!(
        pool.verify(&coder, &refs[..6], &refs[6..]),
        Err(EcError::BlockLength { .. })
    ));
}

// ---------------------------------------------------------------------------
// Boot-scrub integrity (PR 10): corruption planted in a committed store
// image must be repaired bit-exactly (with the exact shard set named) or
// quarantined with `Corrupt` evidence — never served silently.
// ---------------------------------------------------------------------------

const STORE_SHARD: usize = 512;
const GEOMETRIES: [(usize, usize); 3] = [(4, 2), (6, 3), (10, 4)];

/// Format a two-stripe store and commit deterministic data to both.
/// Returns the raw image bytes plus the committed data shards.
fn committed_image(k: usize, m: usize) -> (Geometry, Vec<u8>, Vec<Vec<Vec<u8>>>) {
    let geo = Geometry::new(k, m, STORE_SHARD, 2).unwrap();
    let mut store = StripeStore::format(MemImage::new(geo.image_len()), geo).unwrap();
    let data: Vec<Vec<Vec<u8>>> = (0..2)
        .map(|stripe| {
            (0..k)
                .map(|i| {
                    (0..STORE_SHARD)
                        .map(|j| ((stripe * 251 + i * 89 + j * 7 + 13) % 256) as u8)
                        .collect()
                })
                .collect()
        })
        .collect();
    for (stripe, shards) in data.iter().enumerate() {
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        store.write_stripe(stripe, &refs).unwrap();
    }
    (geo, store.into_image().into_bytes(), data)
}

/// What a torn shard holds instead of its bytes.
#[derive(Debug, Clone, Copy)]
enum Tear {
    /// One cacheline per victim, each at its own offset.
    Scattered,
    /// One cacheline per victim, all at the same offset: every damaged
    /// byte column carries as many errors as there are victims.
    SameOffset,
    /// The whole shard.
    WholeShard,
}

/// Tear `victims` of stripe 0's committed slot (first writes land in
/// slot 0): the torn bytes of each victim shard are overwritten with a
/// distinct stale-looking pattern, the way a lost flush leaves bytes
/// from an older epoch.
fn tear_shards_as(image: &mut [u8], geo: &Geometry, victims: &[usize], how: Tear) {
    for (n, &victim) in victims.iter().enumerate() {
        let (at, len) = match how {
            Tear::Scattered => ((victim * 64) % (STORE_SHARD - 64), 64),
            Tear::SameOffset => (128, 64),
            Tear::WholeShard => (0, STORE_SHARD),
        };
        let off = geo.shard_off(0, 0, victim) as usize + at;
        for (i, b) in image[off..off + len].iter_mut().enumerate() {
            *b = ((n * 151 + i * 3 + 0xA5) % 256) as u8;
        }
    }
}

fn tear_shards(image: &mut [u8], geo: &Geometry, victims: &[usize]) {
    tear_shards_as(image, geo, victims, Tear::Scattered);
}

/// Every single-shard tear, on every geometry and every shard position,
/// is repaired in place with the exact victim named — and the repaired
/// stripe reads back bit-identical. `missed` counts corrupted reopens
/// that reported nothing; it must end at zero.
#[test]
fn boot_scrub_repairs_every_single_shard_tear() {
    let mut missed = 0u32;
    for (k, m) in GEOMETRIES {
        let (geo, image, data) = committed_image(k, m);
        for victim in 0..k + m {
            let mut torn = image.clone();
            tear_shards(&mut torn, &geo, &[victim]);
            let store = StripeStore::open(MemImage::from_bytes(torn)).unwrap();
            let report = store.recovery_report();
            if report.repaired.is_empty() && report.corrupt.is_empty() {
                missed += 1;
                continue;
            }
            assert_eq!(
                report.repaired,
                vec![(0, vec![victim])],
                "k={k} m={m} victim={victim}: wrong repair set"
            );
            assert!(report.corrupt.is_empty(), "k={k} m={m} victim={victim}");
            assert_eq!(report.shards_repaired, 1);
            assert_eq!(
                store.read_stripe(0).unwrap(),
                data[0],
                "repair not bit-exact"
            );
            assert_eq!(store.read_stripe(1).unwrap(), data[1], "bystander changed");
            // The repair persisted: a second reopen is clean.
            let again =
                StripeStore::open(MemImage::from_bytes(store.into_image().into_bytes())).unwrap();
            assert!(again.recovery_report().repaired.is_empty());
            assert!(again.recovery_report().corrupt.is_empty());
        }
    }
    assert_eq!(missed, 0, "corrupted stores reopened without a report");
}

/// Multi-shard tears within the scrub's localization budget (at most
/// m - 1 shards) are repaired with the exact shard set: pairs wherever
/// m >= 3, every triple of (10,4), as scattered cachelines, as cachelines
/// at one offset and as whole shards of garbage.
#[test]
fn boot_scrub_repairs_localizable_multi_shard_tears() {
    for (k, m) in GEOMETRIES {
        if m < 3 {
            continue; // m - 1 < 2: pairs are beyond this code's budget
        }
        let (geo, image, data) = committed_image(k, m);
        let mut sets: Vec<Vec<usize>> = [(0usize, 1usize), (1, k), (k, k + m - 1), (2, k - 1)]
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .collect();
        if m >= 4 {
            let n = k + m;
            sets.extend((0..n).flat_map(|a| {
                (a + 1..n).flat_map(move |b| (b + 1..n).map(move |c| vec![a, b, c]))
            }));
        }
        for victims in sets {
            for how in [Tear::Scattered, Tear::SameOffset, Tear::WholeShard] {
                let mut torn = image.clone();
                tear_shards_as(&mut torn, &geo, &victims, how);
                let store = StripeStore::open(MemImage::from_bytes(torn)).unwrap();
                let report = store.recovery_report();
                let mut want = victims.clone();
                want.sort_unstable();
                assert_eq!(
                    report.repaired,
                    vec![(0, want)],
                    "k={k} m={m} {victims:?} {how:?}: wrong repair set"
                );
                assert_eq!(
                    store.read_stripe(0).unwrap(),
                    data[0],
                    "k={k} m={m} {victims:?} {how:?}: repair not bit-exact"
                );
            }
        }
    }
}

/// Tears beyond localization (m shards at once) must be quarantined
/// with `Corrupt` evidence — reads refuse rather than serve garbage,
/// and the undamaged stripe keeps serving.
#[test]
fn boot_scrub_quarantines_unlocalizable_tears() {
    for (k, m) in GEOMETRIES {
        let (geo, image, data) = committed_image(k, m);
        let victims: Vec<usize> = (0..m).collect();
        let mut torn = image.clone();
        tear_shards(&mut torn, &geo, &victims);
        let store = StripeStore::open(MemImage::from_bytes(torn)).unwrap();
        let report = store.recovery_report();
        assert!(
            !report.corrupt.is_empty(),
            "k={k} m={m}: {m}-shard tear was not reported"
        );
        assert_eq!(report.corrupt[0].0, 0, "wrong stripe blamed");
        assert!(!report.corrupt[0].1.is_empty(), "empty corruption evidence");
        assert!(
            matches!(
                store.read_stripe(0),
                Err(StoreError::Quarantined { stripe: 0 })
            ),
            "k={k} m={m}: quarantined stripe served a read"
        );
        assert_eq!(store.read_stripe(1).unwrap(), data[1], "bystander affected");
        assert_eq!(store.quarantined().count(), 1);
    }
}
