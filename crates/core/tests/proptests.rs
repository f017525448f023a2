//! Property-based tests for the persistent encode pool: pool encoding must
//! be bit-exact with serial encoding for every geometry.
//!
//! Randomized with the in-tree deterministic harness (`dialga-testkit`).

use dialga::encoder::Dialga;
use dialga::pool::{split_ranges, EncodePool, StripeJob, CHUNK_ALIGN};
use dialga_ec::ReedSolomon;
use dialga_testkit::run_cases;

/// `split_ranges` partitions exactly, aligned, and evenly for arbitrary
/// lengths and worker counts.
#[test]
fn split_ranges_partitions_evenly() {
    run_cases(128, |rng| {
        let len = rng.range(1, 1 << 20);
        let parts = rng.range(1, 33);
        let ranges: Vec<_> = split_ranges(len, parts).collect();
        assert!(!ranges.is_empty());
        assert!(ranges.len() <= parts);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, len);
        for w in ranges.windows(2) {
            assert_eq!(
                w[0].end, w[1].start,
                "gap/overlap at len={len} parts={parts}"
            );
        }
        for r in &ranges[..ranges.len() - 1] {
            assert_eq!(r.end % CHUNK_ALIGN, 0, "interior boundary unaligned");
        }
        let min = ranges.iter().map(|r| r.len()).min().unwrap();
        let max = ranges.iter().map(|r| r.len()).max().unwrap();
        assert!(
            max - min <= CHUNK_ALIGN,
            "uneven split len={len} parts={parts}: min={min} max={max}"
        );
    });
}

/// Pool encoding is bit-exact with serial encoding for arbitrary
/// (k, m, block length, thread count), including unaligned tails, both for
/// single-stripe and batched submission.
#[test]
fn pool_encode_bit_exact_with_serial() {
    run_cases(24, |rng| {
        let k = rng.range(2, 17);
        let m = rng.range(1, 5);
        let threads = rng.range(1, 9);
        // Lengths around chunk boundaries, plus random unaligned tails.
        let len = rng.range(1, 9) * CHUNK_ALIGN + rng.range(0, 260);
        let coder = Dialga::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(len)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let serial = coder.encode_vec(&refs).unwrap();

        let pool = EncodePool::new(threads);
        assert_eq!(
            pool.encode_vec(&coder, &refs).unwrap(),
            serial,
            "k={k} m={m} len={len} threads={threads}"
        );

        // Batched: several stripes of differing lengths in one submission.
        let n_stripes = rng.range(1, 4);
        let stripes_data: Vec<Vec<Vec<u8>>> = (0..n_stripes)
            .map(|_| {
                let l = rng.range(1, 5) * CHUNK_ALIGN + rng.range(0, 300);
                (0..k).map(|_| rng.bytes(l)).collect()
            })
            .collect();
        let expected: Vec<Vec<Vec<u8>>> = stripes_data
            .iter()
            .map(|sd| {
                let r: Vec<&[u8]> = sd.iter().map(|d| d.as_slice()).collect();
                coder.encode_vec(&r).unwrap()
            })
            .collect();
        let mut parity: Vec<Vec<Vec<u8>>> = stripes_data
            .iter()
            .map(|sd| vec![vec![0u8; sd[0].len()]; m])
            .collect();
        {
            let data_refs: Vec<Vec<&[u8]>> = stripes_data
                .iter()
                .map(|sd| sd.iter().map(|d| d.as_slice()).collect())
                .collect();
            let mut parity_refs: Vec<Vec<&mut [u8]>> = parity
                .iter_mut()
                .map(|sp| sp.iter_mut().map(|p| p.as_mut_slice()).collect())
                .collect();
            let mut jobs: Vec<StripeJob<'_, '_>> = data_refs
                .iter()
                .zip(parity_refs.iter_mut())
                .map(|(d, p)| StripeJob {
                    data: d.as_slice(),
                    parity: p.as_mut_slice(),
                })
                .collect();
            pool.encode_batch(&coder, &mut jobs).unwrap();
        }
        assert_eq!(parity, expected, "batch k={k} m={m} threads={threads}");
    });
}

/// Pool decode is bit-exact with serial decode for arbitrary geometry,
/// block length, erasure pattern and thread count. Pools are built once
/// per thread count and reused across every case, so this also exercises
/// queue reuse across decode submissions.
#[test]
fn pool_decode_bit_exact_with_serial() {
    let pools: Vec<EncodePool> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| EncodePool::new(t))
        .collect();
    run_cases(24, |rng| {
        let k = rng.range(2, 17);
        let m = rng.range(1, 5);
        let len = rng.range(1, 9) * CHUNK_ALIGN + rng.range(0, 260);
        let coder = Dialga::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(len)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = coder.encode_vec(&refs).unwrap();
        let full: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();

        // Random erasure pattern: 1..=m lost blocks, anywhere in the stripe.
        let mut idx: Vec<usize> = (0..k + m).collect();
        rng.shuffle(&mut idx);
        let lost_n = rng.range(1, m + 1);
        let mut erased = full.clone();
        for &i in &idx[..lost_n] {
            erased[i] = None;
        }

        let mut serial = erased.clone();
        coder.decode(&mut serial).unwrap();
        assert_eq!(serial, full, "serial decode k={k} m={m} len={len}");

        for pool in &pools {
            let mut shards = erased.clone();
            pool.decode(&coder, &mut shards).unwrap();
            assert_eq!(
                shards,
                full,
                "pool decode k={k} m={m} len={len} lost={:?} threads={}",
                &idx[..lost_n],
                pool.threads()
            );
        }

        // Single-block repair of a random block agrees with the stripe.
        let target = idx[0];
        let got = pools[rng.range(0, pools.len())]
            .repair(&coder, &erased, target)
            .unwrap();
        assert_eq!(&got, full[target].as_ref().unwrap(), "repair {target}");
    });
}

/// The one-pass decode is the two-stage reference's: `Dialga::decode` and
/// `EncodePool::decode` on 1, 2 and 4 executors rebuild exactly what
/// `ReedSolomon::decode` (the `k x k` inversion, lost data, then lost
/// parity re-encoded, all on the portable kernel) rebuilds, on every
/// erasure pattern of up to `m` shards, at a length of whole chunk units
/// and at one with a ragged tail.
#[test]
fn one_pass_decode_is_the_reference_on_every_erasure_pattern() {
    let pools: Vec<EncodePool> = [1usize, 2, 4].map(EncodePool::new).into();
    let mut rng = dialga_testkit::Rng::new(0x48);
    for (k, m) in [(6usize, 3usize), (10, 4)] {
        let (coder, rs) = (Dialga::new(k, m).unwrap(), ReedSolomon::new(k, m).unwrap());
        let n = k + m;
        for len in [4 * CHUNK_ALIGN, 4 * CHUNK_ALIGN + 37] {
            let data: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(len)).collect();
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = rs.encode_vec(&refs).unwrap();
            let full: Vec<Option<Vec<u8>>> =
                data.iter().chain(&parity).cloned().map(Some).collect();
            for lost in (0u32..1 << n).filter(|l| l.count_ones() as usize <= m) {
                let mut holed = full.clone();
                for (i, shard) in holed.iter_mut().enumerate() {
                    if lost >> i & 1 == 1 {
                        *shard = None;
                    }
                }
                let ctx = format!("k={k} m={m} len={len} lost={lost:#b}");
                let mut want = holed.clone();
                rs.decode(&mut want).unwrap();
                assert_eq!(want, full, "reference {ctx}");
                let mut serial = holed.clone();
                coder.decode(&mut serial).unwrap();
                assert_eq!(serial, want, "Dialga::decode {ctx}");
                for pool in &pools {
                    let mut shards = holed.clone();
                    pool.decode(&coder, &mut shards).unwrap();
                    assert_eq!(shards, want, "{ctx} threads={}", pool.threads());
                }
            }
        }
    }
}

/// Every pool operation is bit-exact with serial `Dialga` on every
/// executor count — including 1, where the pool owns no thread, and 3,
/// where chunks deal unevenly — and on every length class: empty,
/// sub-cacheline, either side of one `CHUNK_ALIGN` unit, the paper's 4 KiB,
/// one unit per executor plus a ragged tail, and large with an unaligned
/// tail.
#[test]
fn every_pool_operation_is_bit_exact_on_every_executor_count() {
    let (k, m) = (6usize, 3usize);
    let coder = Dialga::new(k, m).unwrap();
    let pools: Vec<EncodePool> = [1usize, 2, 3, 8]
        .iter()
        .map(|&t| EncodePool::new(t))
        .collect();
    let lens = [
        0usize,
        1,
        255,
        256,
        257,
        4096,
        8 * CHUNK_ALIGN + 52,
        64 * 1024 + 192,
    ];
    let mut rng = dialga_testkit::Rng::new(0x16);
    for len in lens {
        let data: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(len)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = coder.encode_vec(&refs).unwrap();
        let full: Vec<Option<Vec<u8>>> = data.iter().chain(&parity).cloned().map(Some).collect();
        let all: Vec<&[u8]> = full.iter().flatten().map(|s| s.as_slice()).collect();
        let mut holed = full.clone();
        holed[1] = None; // data
        holed[k + 1] = None; // parity
        let mut wider = holed.clone();
        wider[0] = None; // two lost data shards: a 2 x 2 parity minor

        for pool in &pools {
            let ctx = format!("len={len} threads={}", pool.threads());

            assert_eq!(pool.encode_vec(&coder, &refs).unwrap(), parity, "{ctx}");
            let mut out = vec![vec![0u8; len]; m];
            let mut outs: Vec<&mut [u8]> = out.iter_mut().map(|p| p.as_mut_slice()).collect();
            pool.encode(&coder, &refs, &mut outs).unwrap();
            assert_eq!(out, parity, "encode {ctx}");
            // A batch whose stripes alternate between this length and a
            // single unit, so chunk dealing crosses stripe boundaries.
            let unit: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(CHUNK_ALIGN)).collect();
            let unit_refs: Vec<&[u8]> = unit.iter().map(|d| d.as_slice()).collect();
            let mut batch_out: Vec<Vec<Vec<u8>>> = (0..4)
                .map(|i| vec![vec![0u8; if i % 2 == 0 { len } else { CHUNK_ALIGN }]; m])
                .collect();
            {
                let mut batch_refs: Vec<Vec<&mut [u8]>> = batch_out
                    .iter_mut()
                    .map(|sp| sp.iter_mut().map(|p| p.as_mut_slice()).collect())
                    .collect();
                let mut jobs: Vec<StripeJob<'_, '_>> = batch_refs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, parity)| StripeJob {
                        data: if i % 2 == 0 { &refs } else { &unit_refs },
                        parity,
                    })
                    .collect();
                pool.encode_batch(&coder, &mut jobs).unwrap();
            }
            let unit_parity = coder.encode_vec(&unit_refs).unwrap();
            for (i, got) in batch_out.iter().enumerate() {
                let want = if i % 2 == 0 { &parity } else { &unit_parity };
                assert_eq!(got, want, "encode_batch stripe {i} {ctx}");
            }
            // The same batch into parity the pool allocates unwritten.
            let stripes: Vec<&[&[u8]]> = (0..4)
                .map(|i| {
                    if i % 2 == 0 {
                        &refs[..]
                    } else {
                        &unit_refs[..]
                    }
                })
                .collect();
            let fresh = pool
                .encode_batch_vec(&coder, stripes.iter().copied())
                .unwrap();
            assert_eq!(fresh, batch_out, "encode_batch_vec {ctx}");

            for holes in [&holed, &wider] {
                let mut shards = holes.clone();
                pool.decode(&coder, &mut shards).unwrap();
                assert_eq!(shards, full, "decode {ctx}");
            }
            let mut batch = [holed.clone(), full.clone(), wider.clone()];
            pool.decode_batch(&coder, &mut batch).unwrap();
            assert!(batch.iter().all(|s| *s == full), "decode_batch {ctx}");

            for target in [1, k + 1, 0] {
                for holes in [&holed, &wider] {
                    let got = pool.repair(&coder, holes, target).unwrap();
                    assert_eq!(Some(&got), full[target].as_ref(), "repair {target} {ctx}");
                }
            }
            pool.verify(&coder, &all[..k], &all[k..]).unwrap();
            if len > 0 {
                // Row 2 differs in the first chunk, row 1 in the last: the
                // chunks' rows merge, in order, once each.
                let (mut bad, mut first) = (parity[1].clone(), parity[2].clone());
                bad[len - 1] ^= 0x40;
                first[0] ^= 0x01;
                let stored: Vec<&[u8]> = vec![&parity[0], &bad, &first];
                assert_eq!(
                    pool.verify(&coder, &refs, &stored),
                    Err(dialga_ec::EcError::Corrupt {
                        shards: vec![k + 1, k + 2]
                    }),
                    "verify {ctx}"
                );
            }
        }
    }
}
