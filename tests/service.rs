//! Service-layer property tests (PR 6 tentpole):
//!
//! 1. results through the sharded service are **bit-exact** with direct
//!    coder/pool submission across shard counts {1, 2, 4}, for all three
//!    operations;
//! 2. **per-tenant fairness**: a light tenant sharing a shard with a
//!    saturating tenant is served within the first DRR rounds, not after
//!    the saturator's whole backlog;
//! 3. **backpressure**: a full admission queue rejects at submit time and
//!    deadline-carrying requests expire instead of being served late —
//!    the service never blocks a submitter, and the per-class latency
//!    quantiles include time spent queued;
//! 4. **chaos isolation**: a fault plan armed inside one shard leaves the
//!    other shards serving bit-exact results;
//! 5. **who dispatches** (PR 23): four clients on one shard are bit-exact
//!    with both the submitter-run and the queued path taken, no `stats()`
//!    snapshot shows a request retired before it was submitted, per-tenant
//!    order is submission order across the two paths, and a kernel panic
//!    inside a submitter-run dispatch resolves the ticket and releases
//!    the shard.

use dialga_faultkit::{Fault, FaultPlan};
use dialga_repro::scheduler::encoder::Dialga;
use dialga_repro::service::{ServiceConfig, ServiceError, StripeService};
use std::time::{Duration, Instant};

const K: usize = 6;
const M: usize = 3;

fn make_stripe(len: usize, salt: usize) -> Vec<Vec<u8>> {
    (0..K)
        .map(|i| {
            (0..len)
                .map(|j| ((salt * 7 + i * 131 + j * 17) % 256) as u8)
                .collect()
        })
        .collect()
}

fn cfg(shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        threads_per_shard: 2,
        k: K,
        m: M,
        ..ServiceConfig::default()
    }
}

#[test]
fn service_results_bit_exact_across_shard_counts() {
    let coder = Dialga::new(K, M).unwrap();
    for shards in [1usize, 2, 4] {
        let svc = StripeService::new(cfg(shards)).unwrap();
        let mut tickets = Vec::new();
        let mut expected = Vec::new();

        for salt in 0..12 {
            let len = 2048 + (salt % 3) * 512; // mixed block sizes
            let data = make_stripe(len, salt);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = coder.encode_vec(&refs).unwrap();
            let full: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();

            match salt % 3 {
                0 => {
                    expected.push(parity.clone());
                    tickets.push(svc.submit_encode(salt as u32, data, None).unwrap());
                }
                1 => {
                    let mut holes: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                    holes[2] = None;
                    holes[K + 1] = None;
                    expected.push(full.clone());
                    tickets.push(svc.submit_decode(salt as u32, holes, None).unwrap());
                }
                _ => {
                    let mut survivors: Vec<Option<Vec<u8>>> =
                        full.iter().cloned().map(Some).collect();
                    survivors[3] = None;
                    expected.push(vec![full[3].clone()]);
                    tickets.push(svc.submit_repair(salt as u32, survivors, 3, None).unwrap());
                }
            }
        }
        for (ticket, want) in tickets.into_iter().zip(expected) {
            let got = ticket
                .wait()
                .unwrap_or_else(|e| panic!("request failed on {shards}-shard service: {e}"));
            assert_eq!(got, want, "shards={shards}");
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, 12, "shards={shards}");
        assert_eq!(stats.rejected + stats.expired, 0, "shards={shards}");
    }
}

#[test]
fn light_tenant_is_served_fairly_under_saturation() {
    // One shard, one worker, tiny batches: tenant 1 floods 40 requests,
    // tenant 2 submits 4. With DRR (quantum = one request's cost) each
    // round serves both tenants, so all of tenant 2's dispatches must
    // appear in the first rounds — not behind the saturator's backlog.
    let len = 4096;
    let cost = K * len;
    let svc = StripeService::new(ServiceConfig {
        shards: 1,
        threads_per_shard: 1,
        k: K,
        m: M,
        queue_depth: 64,
        batch_limit: 4,
        quantum_bytes: cost,
        ..ServiceConfig::default()
    })
    .unwrap();

    svc.set_paused(true); // make the queue contents deterministic
    let mut tickets = Vec::new();
    for i in 0..40 {
        tickets.push(svc.submit_encode(1, make_stripe(len, i), None).unwrap());
    }
    let mut light = Vec::new();
    for i in 0..4 {
        light.push(
            svc.submit_encode(2, make_stripe(len, 100 + i), None)
                .unwrap(),
        );
    }
    svc.set_paused(false);

    for t in tickets {
        t.wait().unwrap();
    }
    for t in light {
        t.wait().unwrap();
    }

    let traces = svc.shard_traces(0).unwrap();
    assert_eq!(traces.len(), 44, "every dispatch is traced");
    let light_positions: Vec<usize> = traces
        .iter()
        .enumerate()
        .filter(|(_, t)| t.tenant == 2)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(light_positions.len(), 4);
    let last = *light_positions.last().unwrap();
    assert!(
        last < 12,
        "light tenant must finish within the first DRR rounds, \
         not at position {last} of 44: {light_positions:?}"
    );
}

#[test]
fn backpressure_rejects_and_expires_instead_of_blocking() {
    let svc = StripeService::new(ServiceConfig {
        shards: 1,
        threads_per_shard: 1,
        k: K,
        m: M,
        queue_depth: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    svc.set_paused(true);

    // Admission beyond queue_depth returns Rejected at submit time.
    let mut admitted = Vec::new();
    let mut rejections = 0;
    for i in 0..10 {
        match svc.submit_encode(1, make_stripe(512, i), Some(Duration::from_millis(5))) {
            Ok(t) => admitted.push(t),
            Err(ServiceError::Rejected { shard: 0, depth }) => {
                assert!(depth >= 4);
                rejections += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(admitted.len(), 4);
    assert_eq!(rejections, 6);
    assert_eq!(svc.stats().rejected, 6);

    // Hold the queue past every deadline; on resume the master expires
    // the stale requests rather than serving them late.
    std::thread::sleep(Duration::from_millis(30));
    svc.set_paused(false);
    for t in admitted {
        match t.wait() {
            Err(ServiceError::Expired { waited }) => {
                assert!(waited >= Duration::from_millis(5));
            }
            other => panic!("expected Expired, got {other:?}"),
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.expired, 4);
    assert_eq!(stats.completed, 0);

    // The shard is still healthy for fresh traffic.
    let fresh = svc.submit_encode(1, make_stripe(512, 99), None).unwrap();
    assert!(fresh.wait().is_ok());
}

/// Pause dispatch, park a batch of encodes behind the pause for a known
/// delay, then resume: every op's latency includes the delay, so the
/// encode class's p50 and p99 must bracket it (lower bound: the delay
/// itself; upper bound: a generous 8x for the drain).
#[test]
fn per_class_latency_brackets_injected_service_delay() {
    let svc = StripeService::new(ServiceConfig {
        threads_per_shard: 1,
        queue_depth: 64,
        ..cfg(1)
    })
    .unwrap();
    let delay = Duration::from_millis(60);

    svc.set_paused(true);
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            svc.submit_encode(i % 4, make_stripe(4096, i as usize), None)
                .expect("paused submits are queued, not rejected")
        })
        .collect();
    let parked_at = Instant::now();
    std::thread::sleep(delay);
    svc.set_paused(false);
    for ticket in tickets {
        ticket.wait().expect("encode completes after resume");
    }
    let drained = parked_at.elapsed();

    let stats = svc.stats();
    let encode = stats
        .classes
        .iter()
        .find(|c| c.op == "encode")
        .expect("encode class present");
    assert_eq!(encode.count, 12, "every encode recorded exactly once");
    let delay_us = delay.as_secs_f64() * 1e6;
    let ceiling_us = (drained.as_secs_f64() * 1e6 * 8.0).max(8.0 * delay_us);
    assert!(
        encode.p50_us >= delay_us,
        "p50 {:.1} us cannot undercut the {delay_us:.0} us injected delay",
        encode.p50_us
    );
    assert!(
        encode.p50_us <= encode.p99_us && encode.p99_us <= ceiling_us,
        "p50 {:.1} us, p99 {:.1} us: not monotone or past the {ceiling_us:.0} us bracket",
        encode.p50_us,
        encode.p99_us
    );
}

#[test]
fn faults_in_one_shard_leave_other_shards_serving() {
    let coder = Dialga::new(K, M).unwrap();
    let svc = StripeService::new(ServiceConfig {
        threads_per_shard: 2,
        ..cfg(3)
    })
    .unwrap();

    // Kill a worker (repeatedly, via scripted exits) inside shard 0 only.
    assert!(svc.arm_shard_faults(
        0,
        &FaultPlan::new()
            .with(Fault::WorkerExit {
                worker: 0,
                nth_chunk: 0,
            })
            .with(Fault::WorkerExit {
                worker: 1,
                nth_chunk: 2,
            }),
    ));

    let mut submitted = Vec::new();
    for salt in 0..24 {
        let data = make_stripe(2048, salt);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = coder.encode_vec(&refs).unwrap();
        let ticket = svc.submit_encode(salt as u32, data, None).unwrap();
        submitted.push((ticket, parity));
    }

    let mut off_shard0 = 0;
    for (ticket, want) in submitted {
        let shard = ticket.shard();
        let result = ticket.wait();
        if shard != 0 {
            off_shard0 += 1;
            assert_eq!(
                result.expect("un-faulted shard must serve"),
                want,
                "shard {shard} diverged while shard 0 was faulted"
            );
        } else if let Ok(got) = result {
            // Shard 0 may heal and succeed; if it does, bytes are exact.
            assert_eq!(got, want, "healed shard 0 diverged");
        }
    }
    assert!(
        off_shard0 >= 8,
        "hashing must spread load off the faulted shard (got {off_shard0}/24)"
    );

    // Disarm; the whole service serves cleanly again.
    assert!(svc.disarm_shard_faults(0));
    let data = make_stripe(2048, 777);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let want = coder.encode_vec(&refs).unwrap();
    let got = svc.submit_encode(9, data, None).unwrap().wait().unwrap();
    assert_eq!(got, want);
}

/// One reference stripe and every answer the direct coder gives for it.
struct Reference {
    data: Vec<Vec<u8>>,
    parity: Vec<Vec<u8>>,
    full: Vec<Vec<u8>>,
}

fn reference(coder: &Dialga, len: usize, salt: usize) -> Reference {
    let data = make_stripe(len, salt);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = coder.encode_vec(&refs).unwrap();
    let full = data.iter().chain(parity.iter()).cloned().collect();
    Reference { data, parity, full }
}

/// Submit op number `i` over `r` and return the ticket with its expected reply.
fn submit_mixed(
    svc: &StripeService,
    tenant: u32,
    r: &Reference,
    i: usize,
) -> (dialga_repro::service::Ticket, Vec<Vec<u8>>) {
    let holes = |lost: &[usize]| -> Vec<Option<Vec<u8>>> {
        let mut shards: Vec<Option<Vec<u8>>> = r.full.iter().cloned().map(Some).collect();
        for &l in lost {
            shards[l] = None;
        }
        shards
    };
    match i % 4 {
        0 => (
            svc.submit_encode(tenant, r.data.clone(), None).unwrap(),
            r.parity.clone(),
        ),
        1 => (
            svc.submit_decode(tenant, holes(&[1, K + 1]), None).unwrap(),
            r.full.clone(),
        ),
        2 => (
            svc.submit_repair(tenant, holes(&[4]), 4, None).unwrap(),
            vec![r.full[4].clone()],
        ),
        _ => (
            svc.submit_scrub(tenant, r.full.clone(), None).unwrap(),
            Vec::new(),
        ),
    }
}

#[test]
fn four_clients_on_one_shard_bit_exact_on_both_paths_with_sane_counters() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const CLIENTS: usize = 4;
    const OPS: usize = 2_000;
    let coder = Dialga::new(K, M).unwrap();
    // Small stripes (inline when the shard is idle) and, one op in sixteen,
    // a 96 KiB one: over the inline cap, so queued by construction.
    let small: Vec<Reference> = (0..6)
        .map(|s| reference(&coder, 512 << (s % 3), s))
        .collect();
    let large = reference(&coder, 16 * 1024, 99);
    let svc = StripeService::new(ServiceConfig {
        queue_depth: 4 * CLIENTS,
        ..cfg(1)
    })
    .unwrap();

    // The shard is idle here, so this one is inline for certain.
    let (first, want) = submit_mixed(&svc, 0, &small[0], 0);
    assert_eq!(first.wait().unwrap(), want);
    assert_eq!(svc.stats().inline, 1);

    let running = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut snapshots = 0u64;
            while running.load(Ordering::Relaxed) {
                let s = svc.stats();
                assert!(
                    s.completed + s.expired <= s.submitted,
                    "snapshot shows a request retired before it was submitted: {s:?}"
                );
                snapshots += 1;
            }
            snapshots
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (svc, small, large) = (&svc, &small, &large);
                scope.spawn(move || {
                    for i in 0..OPS {
                        let r = if i % 16 == 7 {
                            large
                        } else {
                            &small[(i + c) % small.len()]
                        };
                        let (ticket, want) = submit_mixed(svc, c as u32, r, i + c);
                        assert_eq!(ticket.wait().unwrap(), want, "client {c} op {i}");
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        running.store(false, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0);
    });

    let s = svc.stats();
    assert_eq!(s.submitted, (CLIENTS * OPS + 1) as u64);
    assert_eq!(s.completed + s.expired, s.submitted);
    assert_eq!((s.expired, s.rejected), (0, 0));
    assert!(s.inline >= 1 && s.inline <= s.batches, "{s:?}");
    assert!(s.batches > s.inline, "the master dispatched the large ops");
    assert_eq!(s.shard_occupancy, vec![0]);
}

#[test]
fn per_tenant_order_holds_across_inline_and_queued_requests() {
    // Two tenants, one thread each, one shard. Every third encode is over
    // the inline cap (queued); the small ones are inline whenever the
    // shard is idle. A request is only ever inline when nothing earlier is
    // queued or in flight, so dispatch order — the trace ring — and
    // completion order are submission order per tenant.
    let svc = StripeService::new(cfg(1)).unwrap();
    std::thread::scope(|scope| {
        for tenant in 0..2u32 {
            let svc = &svc;
            scope.spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..60 {
                    let len = if i % 3 == 1 { 16 * 1024 } else { 1024 };
                    let ticket = svc.submit_encode(tenant, make_stripe(len, i), None);
                    tickets.push(ticket.unwrap());
                }
                // Once the newest has completed, every older one has.
                let newest = tickets.pop().unwrap();
                newest.wait().unwrap();
                for (i, older) in tickets.iter().enumerate() {
                    let done = older.wait_timeout(Duration::ZERO);
                    assert!(
                        done.is_some_and(|r| r.is_ok()),
                        "tenant {tenant}: request {i} overtaken by a later one"
                    );
                }
            });
        }
    });
    let stats = svc.stats();
    assert!(
        stats.inline > 0 && stats.batches > stats.inline,
        "{stats:?}"
    );
    let traces = svc.shard_traces(0).unwrap();
    assert_eq!(traces.len(), 120);
    for tenant in 0..2u32 {
        let seqs: Vec<u64> = traces
            .iter()
            .filter(|t| t.tenant == tenant)
            .map(|t| t.seq)
            .collect();
        assert_eq!(seqs.len(), 60);
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "tenant {tenant} dispatched out of submission order: {seqs:?}"
        );
    }
}

#[test]
fn kernel_panic_during_an_inline_run_resolves_and_releases_the_shard() {
    let coder = Dialga::new(K, M).unwrap();
    let r = reference(&coder, 1024, 5);
    // One executor: the submitting thread is executor 0 of the shard's
    // pool, so the scripted panics fire inside the inline run itself —
    // first attempt and retries alike.
    let svc = StripeService::new(ServiceConfig {
        threads_per_shard: 1,
        ..cfg(1)
    })
    .unwrap();
    let mut plan = FaultPlan::new();
    for nth_chunk in 0..3 {
        plan = plan.with(Fault::WorkerPanic {
            worker: 0,
            nth_chunk,
        });
    }
    assert!(svc.arm_shard_faults(0, &plan));

    let ticket = svc.submit_encode(1, r.data.clone(), None).unwrap();
    match ticket.wait_timeout(Duration::ZERO) {
        // The pool retried (or the per-request fallback ran) past the fault…
        Some(Ok(parity)) => assert_eq!(parity, r.parity),
        // …or gave up with a typed error; never a hang, never an unwind.
        Some(Err(ServiceError::Coding(_))) => {}
        other => panic!("inline ticket must be resolved at submit, got {other:?}"),
    }
    assert!(svc.shard_pool_stats(0).unwrap().batch_retries > 0);
    assert_eq!(svc.stats().inline, 1);

    assert!(svc.disarm_shard_faults(0));
    let ticket = svc.submit_encode(1, r.data.clone(), None).unwrap();
    assert_eq!(ticket.wait_timeout(Duration::ZERO), Some(Ok(r.parity)));
    assert_eq!(svc.stats().inline, 2, "the shard is idle again");
}

#[test]
fn kernel_panic_during_an_inline_decode_never_answers_zeros() {
    // The decode twin of the test above. The fused batch fails past its
    // retries, so the per-request fallback decodes the same shard vectors
    // again: their holes must still be holes. A batch that filled them
    // before it ran handed the fallback a stripe with nothing to rebuild,
    // and the ticket resolved `Ok` with zeros in the lost shards.
    let coder = Dialga::new(K, M).unwrap();
    let r = reference(&coder, 1024, 9);
    let svc = StripeService::new(ServiceConfig {
        threads_per_shard: 1,
        ..cfg(1)
    })
    .unwrap();
    let mut plan = FaultPlan::new();
    for nth_chunk in 0..3 {
        plan = plan.with(Fault::WorkerPanic {
            worker: 0,
            nth_chunk,
        });
    }
    assert!(svc.arm_shard_faults(0, &plan));

    let mut holes: Vec<Option<Vec<u8>>> = r.full.iter().cloned().map(Some).collect();
    holes[1] = None;
    holes[K] = None;
    let ticket = svc.submit_decode(1, holes, None).unwrap();
    match ticket.wait_timeout(Duration::ZERO) {
        Some(Ok(restored)) => assert_eq!(restored, r.full, "a decode answered wrong shards"),
        Some(Err(ServiceError::Coding(_))) => {}
        other => panic!("inline ticket must be resolved at submit, got {other:?}"),
    }
    assert_eq!(svc.stats().fallbacks, 1, "the fused batch failed");
    assert_eq!(svc.stats().inline, 1);
}
