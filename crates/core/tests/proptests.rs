//! Property-based tests for the scheduler and the persistent encode pool:
//! the hill climber, the Eq. (1) bound, the prefetch-pointer construction
//! and the coordinator must be robust to arbitrary inputs, and pool
//! encoding must be bit-exact with serial encoding for every geometry.
//!
//! Randomized with the in-tree deterministic harness (`dialga-testkit`).

use dialga::coordinator::{eq1_max_distance, Coordinator};
use dialga::encoder::Dialga;
use dialga::hillclimb::HillClimber;
use dialga::operator::build_prefetch_ptrs;
use dialga::pool::{split_ranges, DecodeJob, EncodePool, StripeJob, CHUNK_ALIGN};
use dialga_ec::Lrc;
use dialga_memsim::{Counters, MachineConfig};
use dialga_testkit::run_cases;

/// The climber's candidate never leaves its bounds, for any objective.
#[test]
fn hillclimber_stays_in_bounds() {
    run_cases(64, |rng| {
        let init = rng.range_u32(1, 500);
        let min = rng.range_u32(1, 100);
        let max = min + rng.range_u32(0, 400);
        let n = rng.range(1, 120);
        let mut hc = HillClimber::new(init, min, max);
        for _ in 0..n {
            let d = hc.current();
            assert!(
                (min..=max).contains(&d),
                "candidate {d} out of [{min}, {max}]"
            );
            hc.observe(rng.range_f64(0.0, 1e6));
        }
    });
}

/// On a deterministic objective the climber settles in bounded time, at a
/// point no worse than its start.
#[test]
fn hillclimber_settles_and_never_regresses() {
    run_cases(64, |rng| {
        let init = rng.range_u32(1, 256);
        let opt = rng.range_u32(1, 256);
        let f = |d: u32| {
            let x = d as f64 - opt as f64;
            10.0 + x * x
        };
        let mut hc = HillClimber::new(init, 1, 256);
        let start_score = f(init);
        for _ in 0..400 {
            if hc.settled() {
                break;
            }
            let d = hc.current();
            hc.observe(f(d));
        }
        assert!(hc.settled(), "no convergence from {init} toward {opt}");
        assert!(f(hc.current()) <= start_score + 1e-9);
    });
}

/// Eq. (1): monotone non-increasing in threads and unit size; never below
/// its floor (k); always a sane value.
#[test]
fn eq1_bound_monotone() {
    run_cases(64, |rng| {
        let threads = rng.range(1, 32);
        let k = rng.range(1, 128);
        let buffer = rng.range_u64(1, 1024) * 1024;
        let unit = [256u64, 512, 1024][rng.range(0, 3)];
        let d = eq1_max_distance(threads, k, buffer, unit);
        assert!(d >= k.min(4096) as u32);
        assert!(d <= 4096);
        assert!(eq1_max_distance(threads + 1, k, buffer, unit) <= d);
        assert!(eq1_max_distance(threads, k, buffer, unit * 2) <= d);
    });
}

/// Prefetch-pointer coverage: over a whole stripe, every step except the
/// d-length warm-up is targeted exactly once, in bounds, for any
/// (k, rows, d, shuffle).
#[test]
fn prefetch_ptrs_cover_exactly_once() {
    run_cases(64, |rng| {
        let k = rng.range(1, 32);
        let rows = 1u64 << rng.range(0, 7);
        let d = rng.range_u32(1, 300);
        let shuffled = rng.bool();
        let total = rows * k as u64;
        let mut seen = std::collections::HashSet::new();
        for row in 0..rows {
            for p in build_prefetch_ptrs(row, k, rows, d, shuffled)
                .into_iter()
                .flatten()
            {
                assert!(p.block < k);
                assert!(p.row < rows);
                assert!(seen.insert((p.block, p.row)), "duplicate {p:?}");
            }
        }
        assert_eq!(seen.len() as u64, total.saturating_sub(d as u64));
    });
}

/// `build_prefetch_ptrs` past the end of the stripe: when the distance
/// exceeds the remaining steps (including d > rows * k, where the warm-up
/// swallows the whole stripe), the pointers must be empty rather than out
/// of bounds.
#[test]
fn prefetch_ptrs_beyond_stripe_are_empty() {
    run_cases(64, |rng| {
        let k = rng.range(1, 16);
        let rows = rng.range_u64(1, 32);
        let total = rows * k as u64;
        // Distances at and beyond the stripe total.
        let d = total as u32 + rng.range_u32(0, 1000);
        let shuffled = rng.bool();
        for row in 0..rows {
            let ptrs = build_prefetch_ptrs(row, k, rows, d, shuffled);
            assert!(
                ptrs.into_iter().flatten().next().is_none(),
                "d={d} >= total={total} must prefetch nothing (row {row})"
            );
        }
    });
}

/// The coordinator never panics and never violates the Eq. (1) bound for
/// arbitrary counter streams.
#[test]
fn coordinator_robust_to_arbitrary_counters() {
    run_cases(64, |rng| {
        let k = rng.range(1, 64);
        let threads = rng.range(1, 20);
        let steps = rng.range(1, 40);
        let cfg = MachineConfig::pm();
        let mut coord = Coordinator::new(k, threads, &cfg);
        coord.set_sample_interval(100.0);
        let mut ctr = Counters::default();
        let mut now = 0.0;
        for _ in 0..steps {
            ctr.loads += rng.range_u64(1, 10_000);
            ctr.demand_stall_ns += rng.range_f64(0.0, 1e7);
            let useless = rng.range_u64(0, 5_000);
            ctr.useless_prefetches += useless;
            ctr.hw_prefetches += useless + 1;
            now += 150.0;
            coord.on_tick(now, &ctr);
            let p = coord.policy();
            if let Some(d) = p.knobs.d {
                assert!(d <= coord.d_max(), "d {} > bound {}", d, coord.d_max());
            }
            // BF split and shuffle are mutually exclusive by construction.
            if p.knobs.shuffle {
                assert!(p.knobs.d_long.is_none());
            }
        }
    });
}

/// `split_ranges` partitions exactly, aligned, and evenly for arbitrary
/// lengths and worker counts.
#[test]
fn split_ranges_partitions_evenly() {
    run_cases(128, |rng| {
        let len = rng.range(1, 1 << 20);
        let parts = rng.range(1, 33);
        let ranges = split_ranges(len, parts);
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

/// Every pool operation is bit-exact with serial `Dialga` (and serial
/// `Lrc` for local repair) on every executor count — including 1, where
/// the pool owns no thread, and 3, where chunks deal unevenly — and on
/// every length class: empty, sub-cacheline, either side of one
/// `CHUNK_ALIGN` unit, the paper's 4 KiB, one unit per executor plus a
/// ragged tail, and large with an unaligned tail. The pool side runs with
/// every schedule knob set (distance, §4.3 long distance, shuffle), the
/// reference with none: scheduling may move hints, never bytes.
#[test]
fn every_pool_operation_is_bit_exact_on_every_executor_count() {
    let (k, m) = (6usize, 3usize);
    let plain = Dialga::new(k, m).unwrap();
    let opts = dialga::encoder::DialgaOptions {
        prefetch_distance: Some(10),
        bf_first_distance: Some(14),
        shuffle: true,
        ..Default::default()
    };
    let coder = Dialga::with_options(k, m, opts).unwrap();
    let lrc = Lrc::new(12, 4, 2).unwrap();
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
        let parity = plain.encode_vec(&refs).unwrap();
        let full: Vec<Option<Vec<u8>>> = data.iter().chain(&parity).cloned().map(Some).collect();
        let all: Vec<&[u8]> = full.iter().flatten().map(|s| s.as_slice()).collect();
        let mut holed = full.clone();
        holed[1] = None; // data
        holed[k + 1] = None; // parity, so both decode stages run

        let lrc_data: Vec<Vec<u8>> = (0..12).map(|_| rng.bytes(len)).collect();
        let lrc_refs: Vec<&[u8]> = lrc_data.iter().map(|d| d.as_slice()).collect();
        let lrc_parity = lrc.encode_vec(&lrc_refs).unwrap();
        let local = lrc.local_repair_plan(3).unwrap();
        let peers: Vec<&[u8]> = local.peers.iter().map(|&i| lrc_refs[i]).collect();

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
            let unit_parity = plain.encode_vec(&unit_refs).unwrap();
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
            let fresh = pool.encode_batch_vec(&coder, &stripes).unwrap();
            assert_eq!(fresh, batch_out, "encode_batch_vec {ctx}");

            let mut shards = holed.clone();
            pool.decode(&coder, &mut shards).unwrap();
            assert_eq!(shards, full, "decode {ctx}");
            let mut batch = [holed.clone(), full.clone(), holed.clone()];
            batch[2][0] = None;
            {
                let mut jobs: Vec<DecodeJob<'_>> = batch
                    .iter_mut()
                    .map(|shards| DecodeJob { shards })
                    .collect();
                pool.decode_batch(&coder, &mut jobs).unwrap();
            }
            assert!(batch.iter().all(|s| *s == full), "decode_batch {ctx}");
            let mut shards = holed.clone();
            pool.decode_verified(&coder, &mut shards).unwrap();
            assert_eq!(shards, full, "decode_verified {ctx}");

            for target in [1, k + 1, 0] {
                let got = pool.repair(&coder, &holed, target).unwrap();
                assert_eq!(Some(&got), full[target].as_ref(), "repair {target} {ctx}");
                let got = pool.repair_verified(&coder, &holed, target).unwrap();
                assert_eq!(
                    Some(&got),
                    full[target].as_ref(),
                    "repair_verified {target} {ctx}"
                );
            }
            let got = pool
                .repair_local(&lrc, 3, &peers, &lrc_parity[local.parity_index])
                .unwrap();
            assert_eq!(got, lrc_data[3], "repair_local {ctx}");

            pool.verify(&coder, &all[..k], &all[k..]).unwrap();
            if len > 0 {
                let mut bad = parity[1].clone();
                bad[len - 1] ^= 0x40;
                let stored: Vec<&[u8]> = vec![&parity[0], &bad, &parity[2]];
                assert_eq!(
                    pool.verify(&coder, &refs, &stored),
                    Err(dialga_ec::EcError::Corrupt {
                        shards: vec![k + 1]
                    }),
                    "verify {ctx}"
                );
            }
        }
    }
}
