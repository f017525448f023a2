//! Chaos suite: seeded fault plans driven through the self-healing
//! encode pool (tentpole of the robustness PR).
//!
//! For every plan in a fixed-seed corpus, across thread counts and the
//! three kernel paths (encode / decode / repair), the contract is:
//!
//! 1. the submitting call **returns** (no hang — the batch latch
//!    quiesces every attempt and the watchdog bounds lost completions);
//! 2. when the faulted call succeeds (healing + bounded retry), its
//!    result is **bit-exact** with the serial reference;
//! 3. after disarming, the pool **services a clean batch at full
//!    capacity**: the follow-up succeeds, matches the reference, and
//!    `workers_alive` is back to `threads()`.
//!
//! The same plans armed inside a `StripeService`'s shards must never let
//! a scrub pass a corrupted stripe.
//!
//! The corpus is fixed so failures replay exactly; the whole suite is
//! sized to stay well under the 5 s `just chaos` budget.

use dialga_faultkit::{flip_byte, Fault, FaultPlan};
use dialga_repro::coder::encoder::Dialga;
use dialga_repro::coder::EncodePool;
use dialga_repro::ec::EcError;
use dialga_repro::service::{ServiceConfig, ServiceError, StripeService};

const K: usize = 6;
const M: usize = 3;
const LEN: usize = 8 * 256 + 192; // >= threads chunks for every thread count
const SEEDS: [u64; 5] = [
    0xD1A1_6A05_0000_0001,
    0xD1A1_6A05_0000_0002,
    0xD1A1_6A05_0000_0003,
    0x00C0_FFEE_0000_BEEF,
    0x1234_5678_9ABC_DEF0,
];

fn make_data(seed: usize) -> Vec<Vec<u8>> {
    (0..K)
        .map(|i| {
            (0..LEN)
                .map(|j| ((seed + i * 131 + j * 17) % 256) as u8)
                .collect()
        })
        .collect()
}

/// After a faulted run: disarm, then the pool must serve a clean encode
/// bit-exactly and report every worker slot alive again.
fn assert_recovered(pool: &EncodePool, coder: &Dialga, refs: &[&[u8]], expected: &[Vec<u8>]) {
    pool.disarm_faults();
    let clean = pool
        .encode_vec(coder, refs)
        .expect("pool must service a clean batch after healing");
    assert_eq!(clean, expected, "clean follow-up must be bit-exact");
    assert_eq!(
        pool.stats().workers_alive,
        pool.threads(),
        "pool must be back at full capacity"
    );
}

#[test]
fn seeded_pool_faults_heal_across_threads_and_paths() {
    let coder = Dialga::new(K, M).unwrap();
    let data = make_data(7);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = coder.encode_vec(&refs).unwrap();

    // Serial references for the decode and repair paths.
    let full: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
    let lost = [1usize, K + 1];
    let repair_target = 2usize;

    for threads in [1usize, 2, 4, 8] {
        let pool = EncodePool::new(threads);
        for &seed in &SEEDS {
            let plan = FaultPlan::seeded(seed ^ threads as u64, threads);

            // Encode path.
            pool.arm_faults(&plan);
            if let Ok(par) = pool.encode_vec(&coder, &refs) {
                assert_eq!(par, parity, "faulted encode succeeded but diverged");
            }
            assert_recovered(&pool, &coder, &refs, &parity);

            // Decode path (two erasures: one data, one parity).
            pool.arm_faults(&plan);
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for &l in &lost {
                shards[l] = None;
            }
            if pool.decode(&coder, &mut shards).is_ok() {
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(
                        s.as_deref(),
                        Some(full[i].as_slice()),
                        "faulted decode succeeded but shard {i} diverged"
                    );
                }
            } else {
                // The error contract: a failed decode fills no hole.
                for &l in &lost {
                    assert_eq!(shards[l], None, "failed decode filled hole {l}");
                }
            }
            assert_recovered(&pool, &coder, &refs, &parity);

            // Repair path (single-shard degraded read).
            pool.arm_faults(&plan);
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[repair_target] = None;
            if let Ok(out) = pool.repair(&coder, &shards, repair_target) {
                assert_eq!(out, full[repair_target], "faulted repair diverged");
            }
            assert_recovered(&pool, &coder, &refs, &parity);
        }
    }
}

#[test]
fn a_decode_that_fails_in_either_stage_fills_no_hole() {
    // One executor, no retries: a scripted panic on the pool's chunk 0
    // fails stage 1 (lost data); on chunk 1 it fails stage 2 (lost
    // parity), after stage 1's data went into its hole for stage 2 to
    // read. Either way the caller gets every hole back as `None`.
    let opts = dialga_repro::coder::encoder::DialgaOptions {
        max_batch_retries: Some(0),
        ..Default::default()
    };
    let coder = Dialga::with_options(K, M, opts).unwrap();
    let data = make_data(13);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = coder.encode_vec(&refs).unwrap();
    let full: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
    let pool = EncodePool::new(1);
    for nth_chunk in [0, 1] {
        pool.arm_faults(&FaultPlan::new().with(Fault::WorkerPanic {
            worker: 0,
            nth_chunk,
        }));
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        shards[1] = None;
        shards[K] = None;
        assert!(matches!(
            pool.decode(&coder, &mut shards),
            Err(EcError::Internal { .. })
        ));
        assert_eq!(
            (shards[1].as_ref(), shards[K].as_ref()),
            (None, None),
            "stage {nth_chunk}"
        );
        assert_eq!(pool.faults_injected(), 1);
        pool.disarm_faults();
        pool.decode(&coder, &mut shards).unwrap();
        assert!(shards.iter().zip(&full).all(|(s, f)| s.as_ref() == Some(f)));
    }
}

#[test]
fn scripted_worker_exit_is_healed_and_counted() {
    let coder = Dialga::new(K, M).unwrap();
    let data = make_data(11);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = coder.encode_vec(&refs).unwrap();

    let pool = EncodePool::new(4);
    pool.arm_faults(&FaultPlan::new().with(Fault::WorkerExit {
        worker: 2,
        nth_chunk: 0,
    }));
    // The exit fires on worker 2's first chunk; healing + retry recover.
    assert_eq!(pool.encode_vec(&coder, &refs).unwrap(), parity);
    assert_eq!(pool.faults_injected(), 1);
    let stats = pool.stats();
    assert!(stats.worker_deaths >= 1, "the exited worker was detected");
    assert_eq!(stats.worker_respawns, stats.worker_deaths);
    assert!(stats.batch_retries >= 1, "the failed batch was retried");
    assert_recovered(&pool, &coder, &refs, &parity);
}

/// Pool fault plans armed on every shard of a service: a scrub of a
/// corrupted stripe resolves to an error (`Corrupt` naming the victim, or
/// the fault's own typed error) and never to `Ok`; a clean one is never
/// reported corrupt. Disarmed, both answers are exact again.
#[test]
fn chaos_armed_scrubs_never_pass_a_corrupted_stripe() {
    let coder = Dialga::new(K, M).unwrap();
    let data = make_data(31);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = coder.encode_vec(&refs).unwrap();
    let full: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
    let corrupted = |victim: usize| {
        let mut shards = full.clone();
        flip_byte(&mut shards[victim], 97 * victim, 0x5A);
        shards
    };
    // Two data victims and two parity victims.
    let victims = [1usize, K - 1, K, K + M - 1];
    let svc = StripeService::new(ServiceConfig {
        shards: 2,
        threads_per_shard: 2,
        k: K,
        m: M,
        ..ServiceConfig::default()
    })
    .unwrap();
    let retries = || -> u64 {
        (0..svc.shards())
            .filter_map(|s| svc.shard_pool_stats(s))
            .map(|p| p.batch_retries)
            .sum()
    };

    // The seeded corpus, plus one plan that outlasts the pool's retries:
    // both executors panic on their first six chunks, so the first scrubs
    // resolve to the fault's own error rather than to a verdict.
    let exhausting = (0..2)
        .flat_map(|worker| (0..6).map(move |nth_chunk| Fault::WorkerPanic { worker, nth_chunk }))
        .fold(FaultPlan::new(), FaultPlan::with);
    let plans = SEEDS
        .iter()
        .map(|&seed| FaultPlan::seeded(seed, 2))
        .chain([exhausting]);
    let mut fault_errors = 0;

    for (p, plan) in plans.enumerate() {
        let retries_before = retries();
        for shard in 0..svc.shards() {
            assert!(svc.arm_shard_faults(shard, &plan));
        }
        let mut tickets = Vec::new();
        for (tenant, &victim) in victims.iter().enumerate() {
            let tenant = tenant as u32;
            tickets.push((None, svc.submit_scrub(tenant, full.clone(), None)));
            tickets.push((
                Some(victim),
                svc.submit_scrub(tenant, corrupted(victim), None),
            ));
        }
        for (victim, ticket) in tickets {
            let reply = ticket.unwrap().wait();
            match (victim, reply) {
                (Some(v), Ok(_)) => panic!("plan {p}: corrupted shard {v} passed the scrub"),
                (Some(v), Err(ServiceError::Coding(EcError::Corrupt { shards }))) => {
                    assert_eq!(shards, vec![v], "plan {p}: wrong shard named");
                }
                (None, Err(ServiceError::Coding(EcError::Corrupt { shards }))) => {
                    panic!("plan {p}: clean stripe reported corrupt at {shards:?}")
                }
                (_, Err(_)) => fault_errors += 1,
                (None, Ok(_)) => {}
            }
        }

        assert!(retries() > retries_before, "plan {p}: no fault fired");
        for shard in 0..svc.shards() {
            assert!(svc.disarm_shard_faults(shard));
        }
        let clean = svc.submit_scrub(0, full.clone(), None).unwrap().wait();
        assert_eq!(clean, Ok(Vec::new()), "plan {p}");
        for &victim in &victims {
            let reply = svc.submit_scrub(0, corrupted(victim), None).unwrap().wait();
            let named = EcError::Corrupt {
                shards: vec![victim],
            };
            assert_eq!(reply, Err(ServiceError::Coding(named)), "plan {p}");
        }
    }
    assert!(fault_errors > 0, "no plan outlasted the pool's retries");
}
