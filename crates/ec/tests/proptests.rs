//! Property-based tests: every code in the crate must survive arbitrary
//! erasure patterns within its fault tolerance, on arbitrary data.
//!
//! Randomized with the in-tree deterministic harness (`dialga-testkit`).

use dialga_ec::decompose::DecomposedRs;
use dialga_ec::rs::MatrixKind;
use dialga_ec::xor::XorFlavor;
use dialga_ec::{Lrc, ReedSolomon, XorCode};
use dialga_testkit::run_cases;

#[test]
fn rs_roundtrip_any_erasure() {
    run_cases(64, |rng| {
        let k = rng.range(2, 21);
        let m = rng.range(1, 7);
        let len = rng.range(1, 6) * 16;
        let seed = rng.u64();
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((seed as usize + i * 31 + j * 7) % 256) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode_vec(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        // Erase up to m blocks chosen at random.
        let n = k + m;
        let lost = rng.range(0, m + 2).min(m);
        let mut idx: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut idx);
        for &e in idx.iter().take(lost) {
            shards[e] = None;
        }
        rs.decode(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d);
        }
    });
}

#[test]
fn decompose_equals_full() {
    run_cases(64, |rng| {
        let k = rng.range(4, 40);
        let m = rng.range(1, 5);
        let sub_k = rng.range(2, 12);
        let seed = rng.u64();
        let rs = ReedSolomon::new(k, m).unwrap();
        let dec = DecomposedRs::new(rs.clone(), sub_k).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..32)
                    .map(|j| ((seed as usize + i * 13 + j) % 256) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(
            dec.encode_vec(&refs).unwrap(),
            rs.encode_vec(&refs).unwrap()
        );
    });
}

#[test]
fn xor_roundtrip_data_erasures() {
    run_cases(64, |rng| {
        let k = rng.range(3, 10);
        let m = rng.range(1, 4);
        let seed = rng.u64();
        let xc = XorCode::new(k, m, XorFlavor::Cerasure).unwrap();
        let len = 64usize;
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((seed as usize ^ (i * 97 + j * 3)) % 256) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = xc.encode_vec(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        let lost = 1 + (seed as usize % m);
        for e in 0..lost.min(k) {
            shards[(seed as usize + e * 5) % k] = None; // data-block erasures
        }
        xc.decode(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d, "block {i}");
        }
    });
}

#[test]
fn lrc_local_repair_any_block() {
    run_cases(64, |rng| {
        let gs = rng.range(2, 6);
        let l = rng.range(1, 4);
        let m = rng.range(1, 4);
        let seed = rng.u64();
        let k = gs * l;
        let lost = rng.range(0, k);
        let lrc = Lrc::new(k, m, l).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..32)
                    .map(|j| ((seed as usize + i * 11 + j * 5) % 256) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = lrc.encode_vec(&refs).unwrap();
        let g = lrc.group_of(lost);
        let peers: Vec<&[u8]> = (g * gs..(g + 1) * gs)
            .filter(|&i| i != lost)
            .map(|i| refs[i])
            .collect();
        let repaired = lrc.repair_local(lost, &peers, &parity[m + g]).unwrap();
        assert_eq!(repaired, data[lost].clone());
    });
}

#[test]
fn smart_schedule_equals_naive_schedule() {
    run_cases(64, |rng| {
        let k = rng.range(2, 9);
        let m = rng.range(1, 4);
        let seed = rng.u64();
        // The CSE-optimized schedule must compute exactly the same parity
        // as the naive one, for arbitrary Cauchy matrices and data.
        use dialga_ec::GfMatrix;
        use dialga_ec::Schedule;
        use dialga_gf::bitmatrix::BitMatrix;

        let p = GfMatrix::cauchy_parity(k, m);
        let bm = BitMatrix::from_gf_matrix(&p.to_rows());
        let naive = Schedule::from_bitmatrix(&bm, k, m);
        let smart = Schedule::smart_from_bitmatrix(&bm, k, m);

        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..64)
                    .map(|j| ((seed as usize ^ (i * 131 + j * 7)) % 256) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();

        // Run both schedules with a minimal interpreter.
        fn run(schedule: &Schedule, refs: &[&[u8]], m: usize, len: usize) -> Vec<Vec<u8>> {
            use dialga_ec::schedule::{Dst, Src};
            let psize = len / 8;
            let mut parity = vec![vec![0u8; len]; m];
            let mut temps = vec![vec![0u8; psize]; schedule.n_temps];
            for op in &schedule.ops {
                let src: Vec<u8> = match op.src {
                    Src::Data(c) => refs[c / 8][(c % 8) * psize..(c % 8 + 1) * psize].to_vec(),
                    Src::Parity(r) => parity[r / 8][(r % 8) * psize..(r % 8 + 1) * psize].to_vec(),
                    Src::Temp(t) => temps[t].clone(),
                };
                let dst: &mut [u8] = match op.dst {
                    Dst::Parity(r) => &mut parity[r / 8][(r % 8) * psize..(r % 8 + 1) * psize],
                    Dst::Temp(t) => &mut temps[t],
                };
                if op.init {
                    dst.copy_from_slice(&src);
                } else {
                    for (d, s) in dst.iter_mut().zip(&src) {
                        *d ^= s;
                    }
                }
            }
            parity
        }
        let a = run(&naive, &refs, m, 64);
        let b = run(&smart, &refs, m, 64);
        assert_eq!(a, b, "schedules diverge for k={k} m={m}");
    });
}

#[test]
fn update_parity_equals_reencode() {
    run_cases(64, |rng| {
        let k = rng.range(2, 10);
        let m = rng.range(1, 5);
        let seed = rng.u64();
        let idx = rng.range(0, k);
        let rs = ReedSolomon::new(k, m).unwrap();
        let mut data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..48)
                    .map(|j| ((seed as usize + i + j * 3) % 256) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = rs.encode_vec(&refs).unwrap();
        let old = data[idx].clone();
        let new: Vec<u8> = old
            .iter()
            .map(|b| b.wrapping_mul(3).wrapping_add(seed as u8))
            .collect();
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
            rs.update_parity(idx, &old, &new, &mut prefs).unwrap();
        }
        data[idx] = new;
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(parity, rs.encode_vec(&refs).unwrap());
    });
}

#[test]
fn lrc_local_repair_plan_recovers_any_data_block() {
    run_cases(64, |rng| {
        let l = rng.range(1, 5);
        let k = l * rng.range(1, 6);
        let m = rng.range(1, 4);
        let len = rng.range(1, 6) * 16;
        let lost = rng.range(0, k);
        let lrc = Lrc::new(k, m, l).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(len)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = lrc.encode_vec(&refs).unwrap();

        let plan = lrc.local_repair_plan(lost).unwrap();
        assert_eq!(plan.peers.len(), k / l - 1, "k={k} l={l} lost={lost}");
        assert!(!plan.peers.contains(&lost));
        assert!(plan.peers.iter().all(|&p| p / (k / l) == plan.group));
        assert_eq!(plan.parity_index, m + plan.group);

        // Reading exactly the planned set reconstructs the block, both via
        // the allocating and the in-place entry points.
        let peers: Vec<&[u8]> = plan.peers.iter().map(|&i| refs[i]).collect();
        let local = &parity[plan.parity_index];
        let rebuilt = lrc.repair_local(lost, &peers, local).unwrap();
        assert_eq!(rebuilt, data[lost]);
        let mut out = vec![0u8; len];
        lrc.repair_local_into(lost, &peers, local, &mut out)
            .unwrap();
        assert_eq!(out, data[lost]);
    });
}

/// `GfMatrix::decode_rows` from the parity minor against the whole `k x k`
/// inversion: data targets (lost, and surviving ones' unit rows) are
/// `decode_matrix(survivors).select_rows(targets)`, parity targets their
/// parity rows times it, and a singular minor, a malformed survivor list
/// or a target outside the stripe the same `Err`. Both matrix kinds; every
/// erasure pattern of (6,3) and (10,4) with survivors the first and the
/// last k present; seeded k-subsets, in seeded order, of (12,8) and
/// (28,24).
#[test]
fn decode_rows_are_the_decode_matrix_rows() {
    fn check(rs: &ReedSolomon, kind: MatrixKind, survivors: &[usize], targets: &[usize]) {
        let k = rs.params().k;
        let pm = rs.parity_matrix();
        let (data, parity): (Vec<usize>, Vec<usize>) = targets.iter().partition(|&&t| t < k);
        let parity_rows: Vec<usize> = parity.iter().map(|&t| t - k).collect();
        let dec = rs.decode_matrix(survivors);
        let ctx = format!("{kind:?} k={k} survivors={survivors:?}");
        assert_eq!(
            pm.decode_rows(survivors, &data),
            dec.clone().map(|d| d.select_rows(&data)),
            "{ctx} data targets {data:?}"
        );
        assert_eq!(
            pm.decode_rows(survivors, &parity),
            dec.map(|d| pm.select_rows(&parity_rows).matmul(&d)),
            "{ctx} parity targets {parity:?}"
        );
    }
    for kind in [MatrixKind::Cauchy, MatrixKind::Vandermonde] {
        for (k, m) in [(6usize, 3usize), (10, 4)] {
            let rs = ReedSolomon::with_matrix(k, m, kind).unwrap();
            let n = k + m;
            let every: Vec<usize> = (0..n).collect();
            for lost in (0u32..1 << n).filter(|l| l.count_ones() as usize <= m) {
                let present: Vec<usize> = (0..n).filter(|&i| lost >> i & 1 == 0).collect();
                check(&rs, kind, &present[..k], &every);
                check(&rs, kind, &present[present.len() - k..], &every);
            }
        }
        for (k, m) in [(12usize, 8usize), (28, 24)] {
            let rs = ReedSolomon::with_matrix(k, m, kind).unwrap();
            let n = k + m;
            run_cases(64, |rng| {
                let mut order: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut order);
                let survivors = &order[..k];
                let mut targets: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut targets);
                targets.truncate(rng.range(1, n + 1));
                check(&rs, kind, survivors, &targets);

                let mut doubled = survivors.to_vec();
                doubled[rng.range(0, k)] = survivors[rng.range(0, k)];
                let mut outside = survivors.to_vec();
                outside[rng.range(0, k)] = rng.range(n, 2 * n);
                for bad in [&doubled[..], &outside, &order[..k - 1], &order[..k + 1]] {
                    check(&rs, kind, bad, &targets);
                }
                let pm = rs.parity_matrix();
                let far = rng.range(n, 2 * n);
                assert_eq!(
                    pm.decode_rows(survivors, &[0, far]),
                    Err(dialga_ec::EcError::BlockCount {
                        expected: n,
                        got: far
                    })
                );
            });
        }
    }
}
