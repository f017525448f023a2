//! Behaviour of the executor pool through its public API: what it counts,
//! what it rejects, and — under `--features fault-injection` — how a batch
//! whose *submitting thread's* chunk fails is quiesced, retried and healed.
//! (Bit-exactness of every operation is `proptests.rs`; tests that need
//! the pool's private parts live in `src/pool.rs`.)

use dialga::encoder::Dialga;
use dialga::pool::{split_ranges, EncodePool, StripeJob, CHUNK_ALIGN};
use dialga_ec::EcError;

fn make_data(k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..len).map(|j| ((i * 37 + j * 11) % 256) as u8).collect())
        .collect()
}

fn refs(blocks: &[Vec<u8>]) -> Vec<&[u8]> {
    blocks.iter().map(|b| b.as_slice()).collect()
}

#[test]
fn split_ranges_edge_shapes() {
    assert_eq!(split_ranges(0, 4).count(), 0);
    assert_eq!(split_ranges(100, 0).count(), 0);
    assert_eq!(split_ranges(100, 4).collect::<Vec<_>>(), vec![0..100]);
    // Rounding `len / parts` up to the alignment left 3 of 8 executors
    // idle here (chunks of 512 B); every executor must get a chunk.
    let ranges: Vec<_> = split_ranges(8 * CHUNK_ALIGN + 52, 8).collect();
    assert_eq!(ranges.len(), 8);
    assert!(ranges.iter().all(|r| !r.is_empty()));
}

#[test]
fn malformed_input_is_rejected_before_anything_runs() {
    let coder = Dialga::new(4, 2).unwrap();
    let pool = EncodePool::new(2);
    let wrong_k = make_data(3, 4096);
    assert!(matches!(
        pool.encode_vec(&coder, &refs(&wrong_k)),
        Err(EcError::BlockCount { .. })
    ));
    let mut ragged = make_data(4, 4096);
    ragged[2].truncate(4095);
    assert!(matches!(
        pool.encode_vec(&coder, &refs(&ragged)),
        Err(EcError::BlockLength { .. })
    ));
    // A decode with a short survivor fails before any shard is touched.
    let data = make_data(4, 4096);
    let parity = coder.encode_vec(&refs(&data)).unwrap();
    let mut shards: Vec<Option<Vec<u8>>> = data.into_iter().chain(parity).map(Some).collect();
    shards[0] = None;
    shards[3].as_mut().unwrap().truncate(100);
    let before = shards.clone();
    assert!(matches!(
        pool.decode(&coder, &mut shards),
        Err(EcError::BlockLength { .. })
    ));
    assert_eq!(shards, before, "failed decode must not mutate shards");
    assert_eq!(pool.stats().chunks, 0, "nothing must have run");
}

#[test]
fn a_batch_is_one_dispatch_of_its_stripes_on_any_pool() {
    // threads = 1 is the worker-less pool: a multi-chunk batch there runs
    // wholly on the submitting thread and must never index a worker.
    let coder = Dialga::new(6, 3).unwrap();
    for threads in [1usize, 4] {
        let pool = EncodePool::new(threads);
        let stripes: Vec<Vec<Vec<u8>>> = (0..5).map(|s| make_data(6, 4096 + s * 300)).collect();
        let expected: Vec<Vec<Vec<u8>>> = stripes
            .iter()
            .map(|sd| coder.encode_vec(&refs(sd)).unwrap())
            .collect();
        let mut parity: Vec<Vec<Vec<u8>>> = stripes
            .iter()
            .map(|sd| vec![vec![0u8; sd[0].len()]; 3])
            .collect();
        {
            let data_refs: Vec<Vec<&[u8]>> = stripes.iter().map(|sd| refs(sd)).collect();
            let mut parity_refs: Vec<Vec<&mut [u8]>> = parity
                .iter_mut()
                .map(|sp| sp.iter_mut().map(|p| p.as_mut_slice()).collect())
                .collect();
            let mut jobs: Vec<StripeJob<'_, '_>> = data_refs
                .iter()
                .zip(parity_refs.iter_mut())
                .map(|(data, parity)| StripeJob { data, parity })
                .collect();
            pool.encode_batch(&coder, &mut jobs).unwrap();
        }
        assert_eq!(parity, expected, "threads={threads}");

        let mut shards: Vec<Vec<Option<Vec<u8>>>> = stripes
            .iter()
            .zip(&expected)
            .map(|(d, p)| d.iter().chain(p).cloned().map(Some).collect())
            .collect();
        let full = shards.clone();
        for (i, s) in shards.iter_mut().enumerate() {
            s[i] = None; // data
            s[6 + i % 3] = None; // parity: both decode stages run
        }
        pool.decode_batch(&coder, &mut shards).unwrap();
        assert_eq!(shards, full, "threads={threads}");
        let stats = pool.stats();
        assert_eq!((stats.stripes, stats.dispatches), (10, 2));
        assert_eq!(stats.batch_retries, 0);
    }
}

#[test]
fn stats_count_full_lines_for_ragged_tails() {
    // `len / CACHELINE` would truncate ragged tails — a 255 B chunk
    // touches 4 lines, not 3 — and undercounted `loads` skew every
    // per-load latency downstream.
    let coder = Dialga::new(4, 2).unwrap();
    let pool = EncodePool::new(1);
    pool.encode_vec(&coder, &refs(&make_data(4, 255))).unwrap();
    assert_eq!(pool.stats().loads, 4 * 4, "4 sources x 4 lines");
    // Multi-chunk split with a ragged final chunk: interior boundaries are
    // CHUNK_ALIGN-aligned (a multiple of the cache line), so per-chunk
    // ceilings must sum to the global ceiling.
    let pool = EncodePool::new(2);
    let len = 2 * CHUNK_ALIGN + 100;
    pool.encode_vec(&coder, &refs(&make_data(4, len))).unwrap();
    assert_eq!(pool.stats().loads, len.div_ceil(64) as u64 * 4);
    assert_eq!(pool.stats().chunks, 2);
}

#[test]
fn chunks_run_by_the_submitter_are_counted_like_a_workers() {
    // On a pool of 1 every chunk runs on the submitting thread. The
    // activity counters must see them all the same.
    let pool = EncodePool::new(1);
    let coder = Dialga::new(4, 2).unwrap();
    let data = make_data(4, 8192);
    let expected = coder.encode_vec(&refs(&data)).unwrap();
    let ops = 50u64;
    for _ in 0..ops {
        assert_eq!(pool.encode_vec(&coder, &refs(&data)).unwrap(), expected);
    }
    let stats = pool.stats();
    assert_eq!(stats.chunks, ops);
    assert_eq!(stats.loads, ops * 4 * (8192 / 64));
    assert!(stats.busy_ns > 0);
}

#[cfg(feature = "fault-injection")]
mod executor_zero_faults {
    use super::*;
    use dialga::pool::BATCH_RETRIES;
    use dialga_faultkit::{Fault, FaultPlan};

    /// `fault` on every attempt of one submission: the first try and all
    /// [`BATCH_RETRIES`] retries.
    fn on_every_attempt(fault: impl Fn(u64) -> Fault) -> FaultPlan {
        (0..=u64::from(BATCH_RETRIES)).fold(FaultPlan::new(), |plan, nth| plan.with(fault(nth)))
    }

    /// Big enough that a worker is still inside its chunk long after the
    /// submitting thread's chunk has failed (which it does before its
    /// kernel starts).
    const LEN: usize = 3 << 20;

    #[test]
    fn a_batch_whose_submitter_chunk_panics_first_is_still_quiesced() {
        // Three executors, three 1 MiB chunks. Executor 0 — the submitting
        // thread — panics on its chunk microseconds after handing the
        // other two to workers that have not even woken yet. `run_jobs`
        // must not report the failure until those two are done: their
        // spans point into this frame (the PR 3 use-after-free window).
        // The panic is scripted on every attempt, so what we read back is
        // the last one.
        let coder = Dialga::new(4, 2).unwrap();
        let data = make_data(4, LEN);
        let expected = coder.encode_vec(&refs(&data)).unwrap();
        let pool = EncodePool::new(3);
        pool.arm_faults(&on_every_attempt(|nth_chunk| Fault::WorkerPanic {
            worker: 0,
            nth_chunk,
        }));
        let mut parity = vec![vec![0u8; LEN]; 2];
        let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
        assert!(matches!(
            pool.encode(&coder, &refs(&data), &mut outs),
            Err(EcError::Internal { .. })
        ));
        let stats = pool.stats();
        let attempts = u64::from(BATCH_RETRIES) + 1;
        assert_eq!(pool.faults_injected(), attempts);
        assert_eq!(
            stats.chunks,
            3 * attempts,
            "every chunk accounted for on return"
        );
        assert_eq!(stats.batch_retries, attempts - 1);
        assert_eq!(stats.worker_deaths, 0);
        let ranges: Vec<_> = split_ranges(LEN, 3).collect();
        for (row, want) in parity.iter().zip(&expected) {
            assert!(
                row[ranges[0].clone()].iter().all(|&b| b == 0),
                "chunk 0 never ran"
            );
            for r in &ranges[1..] {
                assert!(
                    row[r.clone()] == want[r.clone()],
                    "a worker's chunk was still in flight when encode returned"
                );
            }
        }
    }

    #[test]
    fn a_dead_worker_is_healed_and_the_batch_retried() {
        // A worker that exits mid-batch must neither hang nor unwind the
        // submitter: the failed attempt quiesces, the dead slot is
        // respawned, and the retry succeeds.
        let exit = FaultPlan::new().with(Fault::WorkerExit {
            worker: 1,
            nth_chunk: 0,
        });
        let data = make_data(4, 4096);
        let coder = Dialga::new(4, 2).unwrap();
        let expected = coder.encode_vec(&refs(&data)).unwrap();
        let pool = EncodePool::new(2);
        pool.arm_faults(&exit);
        assert_eq!(pool.encode_vec(&coder, &refs(&data)).unwrap(), expected);
        let stats = pool.stats();
        assert_eq!(stats.workers_alive, 2, "executor 1 respawned");
        assert_eq!((stats.worker_deaths, stats.worker_respawns), (1, 1));
        assert_eq!(stats.batch_retries, 1);
        // An exit on every attempt surfaces as an error — but the pool
        // must still heal for the *next* submission.
        let pool = EncodePool::new(2);
        pool.arm_faults(&on_every_attempt(|nth_chunk| Fault::WorkerExit {
            worker: 1,
            nth_chunk,
        }));
        assert!(matches!(
            pool.encode_vec(&coder, &refs(&data)),
            Err(EcError::Internal { .. })
        ));
        let attempts = u64::from(BATCH_RETRIES) + 1;
        assert_eq!(pool.faults_injected(), attempts);
        let stats = pool.stats();
        assert_eq!(
            (stats.worker_deaths, stats.worker_respawns),
            (attempts, attempts)
        );
        assert_eq!(stats.batch_retries, attempts - 1);
        assert_eq!(pool.encode_vec(&coder, &refs(&data)).unwrap(), expected);
        assert_eq!(pool.stats().workers_alive, 2);
    }

    #[test]
    fn scripted_faults_on_executor_zero_are_retried_without_a_death() {
        // A panic is caught where a worker's would be; an exit cannot kill
        // the submitting thread, so it skips the chunk. Either way the
        // batch fails, is retried, and nobody needs healing.
        let coder = Dialga::new(4, 2).unwrap();
        let data = make_data(4, 4096);
        let expected = coder.encode_vec(&refs(&data)).unwrap();
        for threads in [1usize, 3] {
            for (nth, fault) in [
                Fault::WorkerPanic {
                    worker: 0,
                    nth_chunk: 0,
                },
                Fault::WorkerExit {
                    worker: 0,
                    nth_chunk: 0,
                },
            ]
            .into_iter()
            .enumerate()
            {
                let pool = EncodePool::new(threads);
                pool.arm_faults(&FaultPlan::new().with(fault));
                assert_eq!(
                    pool.encode_vec(&coder, &refs(&data)).unwrap(),
                    expected,
                    "threads={threads} fault #{nth}"
                );
                let stats = pool.stats();
                assert_eq!(pool.faults_injected(), 1);
                assert_eq!(stats.batch_retries, 1);
                assert_eq!((stats.worker_deaths, stats.worker_respawns), (0, 0));
                assert_eq!(stats.workers_alive, threads);
            }
        }
    }
}
