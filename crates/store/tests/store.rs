//! Stripe-store unit suite: layout, commit protocol, recovery state
//! machine, and boot scrub — over both `MemImage` and `PersistMem`.

use dialga_memsim::PersistMem;
use dialga_store::{FileImage, Geometry, MemImage, PmImage, StoreError, StripeStore};
use dialga_testkit::Rng;

const SHARD: usize = 256;

fn geo(k: usize, m: usize, stripes: usize) -> Geometry {
    Geometry::new(k, m, SHARD, stripes).unwrap()
}

fn stripe_data(rng: &mut Rng, k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|_| (0..SHARD).map(|_| rng.u8()).collect())
        .collect()
}

fn refs(data: &[Vec<u8>]) -> Vec<&[u8]> {
    data.iter().map(|d| d.as_slice()).collect()
}

#[test]
fn geometry_rejects_bad_shapes() {
    assert!(matches!(
        Geometry::new(4, 2, 100, 8),
        Err(StoreError::BadGeometry { .. })
    ));
    assert!(Geometry::new(4, 2, 0, 8).is_err());
    assert!(Geometry::new(4, 2, SHARD, 0).is_err());
    assert!(Geometry::new(0, 2, SHARD, 8).is_err());
    assert!(Geometry::new(200, 100, SHARD, 8).is_err());
}

#[test]
fn format_write_read_round_trips() {
    let g = geo(4, 2, 6);
    let mut store = StripeStore::format(MemImage::new(g.image_len()), g).unwrap();
    let mut rng = Rng::new(1);
    let mut written = Vec::new();
    for stripe in 0..6 {
        let data = stripe_data(&mut rng, 4);
        store.write_stripe(stripe, &refs(&data)).unwrap();
        written.push(data);
    }
    for (stripe, data) in written.iter().enumerate() {
        assert_eq!(&store.read_stripe(stripe).unwrap(), data);
        assert_eq!(store.committed_seq(stripe), 1);
    }
    // Overwrites bump the sequence and flip the slot.
    let newer = stripe_data(&mut rng, 4);
    store.write_stripe(2, &refs(&newer)).unwrap();
    assert_eq!(store.read_stripe(2).unwrap(), newer);
    assert_eq!(store.committed_seq(2), 2);
}

#[test]
fn unallocated_and_out_of_range_stripes_error() {
    let g = geo(4, 2, 3);
    let store = StripeStore::format(MemImage::new(g.image_len()), g).unwrap();
    assert!(matches!(
        store.read_stripe(1),
        Err(StoreError::Unallocated { stripe: 1 })
    ));
    assert!(matches!(
        store.read_stripe(3),
        Err(StoreError::NoSuchStripe { .. })
    ));
}

#[test]
fn write_rejects_malformed_data() {
    let g = geo(4, 2, 3);
    let mut store = StripeStore::format(MemImage::new(g.image_len()), g).unwrap();
    let short = vec![vec![0u8; SHARD]; 3];
    assert!(matches!(
        store.write_stripe(0, &refs(&short)),
        Err(StoreError::BadStripeData { .. })
    ));
    let ragged = vec![
        vec![0u8; SHARD],
        vec![0u8; SHARD],
        vec![0u8; SHARD],
        vec![0u8; 7],
    ];
    assert!(store.write_stripe(0, &refs(&ragged)).is_err());
    assert!(matches!(
        store.write_stripe(9, &refs(&vec![vec![0u8; SHARD]; 4])),
        Err(StoreError::NoSuchStripe { .. })
    ));
}

#[test]
fn clean_reopen_recovers_everything_with_no_rolls() {
    let g = geo(6, 3, 4);
    let mut store = StripeStore::format(MemImage::new(g.image_len()), g).unwrap();
    let mut rng = Rng::new(2);
    let mut written = Vec::new();
    for stripe in 0..4 {
        let data = stripe_data(&mut rng, 6);
        store.write_stripe(stripe, &refs(&data)).unwrap();
        written.push(data);
    }
    let store = StripeStore::open(store.into_image()).unwrap();
    let report = store.recovery_report();
    assert_eq!(report.committed, 4);
    assert_eq!(report.rolled_back + report.rolled_forward, 0);
    assert_eq!(report.shards_repaired, 0);
    assert!(report.corrupt.is_empty());
    assert_eq!((report.localize_ns, report.repair_ns), (0, 0));
    for (stripe, data) in written.iter().enumerate() {
        assert_eq!(&store.read_stripe(stripe).unwrap(), data);
    }
}

#[test]
fn open_rejects_garbage_and_truncated_images() {
    assert!(matches!(
        StripeStore::open(MemImage::new(64)),
        Err(StoreError::BadSuperblock { .. })
    ));
    assert!(matches!(
        StripeStore::open(MemImage::new(1 << 16)),
        Err(StoreError::BadSuperblock { .. })
    ));
    // Valid superblock, image cut short.
    let g = geo(4, 2, 4);
    let store = StripeStore::format(MemImage::new(g.image_len()), g).unwrap();
    let mut bytes = store.into_image().into_bytes();
    bytes.truncate(g.image_len() / 2);
    assert!(matches!(
        StripeStore::open(MemImage::from_bytes(bytes)),
        Err(StoreError::BadSuperblock { .. })
    ));
}

/// Crash between the slot persist and the commit persist: the shadow
/// slot is fully durable, so reopen rolls *forward* to the new version.
#[test]
fn crash_after_slot_persist_rolls_forward() {
    let g = geo(4, 2, 2);
    let mem = PersistMem::with_seed(g.image_len(), 7);
    let mut store = StripeStore::format(mem, g).unwrap();
    let mut rng = Rng::new(3);
    let old = stripe_data(&mut rng, 4);
    store.write_stripe(0, &refs(&old)).unwrap();
    let new = stripe_data(&mut rng, 4);
    // Boundaries from now: 0 = new slot persist, 1 = new commit persist.
    store.image_mut().arm_crash(1);
    let err = store.write_stripe(0, &refs(&new)).unwrap_err();
    assert!(matches!(err, StoreError::Crashed));
    let image = store.into_image().durable_image().to_vec();
    let store = StripeStore::open(PersistMem::from_bytes(image, 8)).unwrap();
    assert_eq!(store.recovery_report().rolled_forward, 1);
    assert_eq!(store.read_stripe(0).unwrap(), new);
    assert_eq!(store.committed_seq(0), 2);
}

/// Crash *during* the slot persist: the shadow may tear, and the old
/// version must survive untouched (or the new one commit, if every line
/// happened to persist).
#[test]
fn crash_during_slot_persist_preserves_old_or_adopts_new() {
    let mut outcomes = [0usize; 2];
    for seed in 0..24u64 {
        let g = geo(4, 2, 2);
        let mem = PersistMem::with_seed(g.image_len(), seed);
        let mut store = StripeStore::format(mem, g).unwrap();
        let mut rng = Rng::new(100 + seed);
        let old = stripe_data(&mut rng, 4);
        store.write_stripe(0, &refs(&old)).unwrap();
        let new = stripe_data(&mut rng, 4);
        store.image_mut().arm_crash(0); // the slot persist itself
        assert!(store.write_stripe(0, &refs(&new)).is_err());
        let image = store.into_image().durable_image().to_vec();
        let store = StripeStore::open(PersistMem::from_bytes(image, seed + 1)).unwrap();
        let got = store.read_stripe(0).unwrap();
        if got == old {
            outcomes[0] += 1;
        } else {
            assert_eq!(got, new, "seed {seed}: torn hybrid escaped recovery");
            outcomes[1] += 1;
        }
    }
    assert!(outcomes[0] > 0, "some tears must roll back");
}

/// First-ever write to a stripe crashing at the commit persist: the slot
/// is durable so recovery commits it (roll forward from an empty word).
#[test]
fn first_write_crash_at_commit_rolls_forward() {
    let g = geo(4, 2, 1);
    let mem = PersistMem::with_seed(g.image_len(), 11);
    let mut store = StripeStore::format(mem, g).unwrap();
    let mut rng = Rng::new(4);
    let data = stripe_data(&mut rng, 4);
    store.image_mut().arm_crash(1);
    assert!(store.write_stripe(0, &refs(&data)).is_err());
    let image = store.into_image().durable_image().to_vec();
    let store = StripeStore::open(PersistMem::from_bytes(image, 12)).unwrap();
    assert_eq!(store.recovery_report().rolled_forward, 1);
    assert_eq!(store.read_stripe(0).unwrap(), data);
}

/// Boot scrub: localized shard corruption in the committed slot is
/// repaired bit-exact; the repair itself persists.
#[test]
fn boot_scrub_repairs_localized_corruption() {
    let g = geo(6, 3, 2);
    let mut store = StripeStore::format(MemImage::new(g.image_len()), g).unwrap();
    let mut rng = Rng::new(5);
    let data = stripe_data(&mut rng, 6);
    store.write_stripe(0, &refs(&data)).unwrap();
    // Flip bytes in shards 1 and 4 of the committed (active) slot.
    let mut image = store.into_image();
    for shard in [1usize, 4] {
        let off = g.shard_off(0, 0, shard) as usize + 17;
        image.bytes_mut()[off] ^= 0x5A;
    }
    let store = StripeStore::open(image).unwrap();
    let report = store.recovery_report();
    assert_eq!(report.shards_repaired, 2);
    assert_eq!(report.repaired, vec![(0usize, vec![1usize, 4])]);
    assert!(report.corrupt.is_empty());
    // The dirty stripe's share of the boot is attributed, and is a share.
    assert!(report.localize_ns > 0 && report.repair_ns > 0);
    assert!(report.localize_ns + report.repair_ns <= report.recovery_ns);
    assert_eq!(store.read_stripe(0).unwrap(), data);
    // And the repair was written back: a second reopen is clean.
    let store = StripeStore::open(store.into_image()).unwrap();
    let report = store.recovery_report();
    assert_eq!(report.shards_repaired, 0);
    assert_eq!((report.localize_ns, report.repair_ns), (0, 0));
}

/// Unlocalizable corruption (more than m-1 shards) quarantines the
/// stripe; a fresh write un-quarantines it.
#[test]
fn boot_scrub_quarantines_unlocalizable_corruption() {
    let g = geo(4, 2, 3);
    let mut store = StripeStore::format(MemImage::new(g.image_len()), g).unwrap();
    let mut rng = Rng::new(6);
    let data = stripe_data(&mut rng, 4);
    store.write_stripe(1, &refs(&data)).unwrap();
    let mut image = store.into_image();
    for shard in [0usize, 2, 5] {
        let off = g.shard_off(1, 0, shard) as usize + 3;
        image.bytes_mut()[off] ^= 0xFF;
    }
    let mut store = StripeStore::open(image).unwrap();
    let report = store.recovery_report().clone();
    assert_eq!(report.corrupt.len(), 1);
    assert_eq!(report.corrupt[0].0, 1);
    assert!(!report.corrupt[0].1.is_empty());
    // Time went into failing to localize, none into a repair.
    assert!(report.localize_ns > 0 && report.localize_ns <= report.recovery_ns);
    assert_eq!(report.repair_ns, 0);
    assert!(matches!(
        store.read_stripe(1),
        Err(StoreError::Quarantined { stripe: 1 })
    ));
    assert_eq!(store.quarantined().collect::<Vec<_>>(), vec![1]);
    let fresh = stripe_data(&mut rng, 4);
    store.write_stripe(1, &refs(&fresh)).unwrap();
    assert_eq!(store.read_stripe(1).unwrap(), fresh);
    assert!(store.quarantined().next().is_none());
}

/// A corrupted commit word fails its checksum and the stripe falls back
/// to footer-based recovery (here: roll forward from the valid slot).
#[test]
fn corrupt_commit_word_falls_back_to_footers() {
    let g = geo(4, 2, 1);
    let mut store = StripeStore::format(MemImage::new(g.image_len()), g).unwrap();
    let mut rng = Rng::new(7);
    let data = stripe_data(&mut rng, 4);
    store.write_stripe(0, &refs(&data)).unwrap();
    let mut image = store.into_image();
    let off = g.commit_word_off(0) as usize;
    image.bytes_mut()[off + 4] ^= 0x80; // break the checksum half
    let store = StripeStore::open(image).unwrap();
    assert_eq!(store.recovery_report().rolled_forward, 1);
    assert_eq!(store.read_stripe(0).unwrap(), data);
}

#[test]
fn file_image_round_trips_through_a_real_file() {
    let dir = std::env::temp_dir().join(format!("dialga-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.img");
    let g = geo(4, 2, 3);
    let mut rng = Rng::new(8);
    let data = stripe_data(&mut rng, 4);
    {
        let img = FileImage::create(&path, g.image_len()).unwrap();
        let mut store = StripeStore::format(img, g).unwrap();
        store.write_stripe(0, &refs(&data)).unwrap();
    }
    let store = StripeStore::open(FileImage::open(&path).unwrap()).unwrap();
    assert_eq!(store.read_stripe(0).unwrap(), data);
    assert_eq!(store.geometry(), g);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn image_access_is_bounds_checked() {
    let mut img = MemImage::new(128);
    assert!(matches!(
        img.read(120, &mut [0u8; 16]),
        Err(StoreError::OutOfRange { .. })
    ));
    assert!(img.store(u64::MAX, &[1]).is_err());
    assert_eq!(PmImage::len(&img), 128);
}
