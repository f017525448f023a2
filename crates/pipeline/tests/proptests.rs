//! Property-based tests for the access-pattern generators: exact coverage
//! (every data line loaded exactly once per stripe, every parity line
//! stored exactly once) must hold under every knob combination — that is
//! what guarantees the timed patterns model the same work the functional
//! encoders do. The scheduler that drives them — the hill climber, the
//! Eq. (1) bound, the prefetch-pointer construction and the coordinator —
//! must be robust to arbitrary inputs.
//!
//! Randomized with the in-tree deterministic harness (`dialga-testkit`).

use dialga_memsim::{Counters, MachineConfig, RowTask, TaskSource};
use dialga_pipeline::coordinator::{eq1_max_distance, Coordinator};
use dialga_pipeline::cost::CostModel;
use dialga_pipeline::decomp::DecomposeSource;
use dialga_pipeline::hillclimb::HillClimber;
use dialga_pipeline::isal::{shuffle_row, IsalSource, Knobs};
use dialga_pipeline::layout::StripeLayout;
use dialga_pipeline::lrc_pat::LrcSource;
use dialga_pipeline::operator::build_prefetch_ptrs;
use dialga_pipeline::update_pat::UpdateSource;
use dialga_testkit::{run_cases, Rng};
use std::collections::HashSet;

fn drain(src: &mut impl TaskSource, tid: usize) -> Vec<RowTask> {
    let ctr = Counters::default();
    let mut out = Vec::new();
    let mut task = RowTask::default();
    while {
        task.clear();
        src.next_task(tid, 0.0, &ctr, &mut task)
    } {
        out.push(task.clone());
        if out.len() > 1_000_000 {
            panic!("source never terminates");
        }
    }
    out
}

fn arb_knobs(rng: &mut Rng) -> Knobs {
    arb_knobs_within(rng, 200)
}

/// Knobs whose distances (when set) fall in `1..reach`, `d_long` up to half
/// as far again.
fn arb_knobs_within(rng: &mut Rng, reach: u32) -> Knobs {
    let d = rng.bool().then(|| rng.range_u32(1, reach));
    let d_long = rng.bool().then(|| rng.range_u32(1, reach + reach / 2));
    Knobs {
        d,
        d_long: if d.is_some() { d_long } else { None },
        shuffle: rng.bool(),
    }
}

/// Every data line loaded once, every parity line stored once, prefetches
/// only on data lines — also when the schedule is replaced after `at` tasks.
fn assert_exact_coverage(
    (k, m, block, stripes): (usize, usize, u64, u64),
    knobs: Knobs,
    expand: bool,
    switch: Option<(usize, Knobs)>,
) {
    let layout = StripeLayout::new(k, m, block, stripes);
    let mut src =
        IsalSource::new(layout, CostModel::default(), knobs, 1).with_xpline_expand(expand);
    let mut tasks = Vec::new();
    if let Some((at, next)) = switch {
        let ctr = Counters::default();
        let mut task = RowTask::default();
        while tasks.len() < at && src.next_task(0, 0.0, &ctr, &mut task) {
            tasks.push(std::mem::take(&mut task));
        }
        src.set_knobs(next);
    }
    tasks.extend(drain(&mut src, 0));
    let case =
        format!("RS({k},{m}) x {block} B x {stripes}, {knobs:?}, expand {expand}, {switch:?}");

    let mut loads: Vec<u64> = tasks.iter().flat_map(|t| t.loads.clone()).collect();
    let n_loads = loads.len() as u64;
    loads.sort_unstable();
    loads.dedup();
    assert_eq!(loads.len() as u64, n_loads, "duplicate loads: {case}");
    assert_eq!(
        n_loads,
        stripes * k as u64 * (block / 64),
        "load coverage: {case}"
    );

    let mut expected: HashSet<u64> = HashSet::new();
    for s in 0..stripes {
        for j in 0..k {
            for r in 0..block / 64 {
                expected.insert(layout.data_line(0, s, j, r));
            }
        }
    }
    for l in &loads {
        assert!(expected.contains(l), "load {l} outside data: {case}");
    }

    let mut stores: Vec<u64> = tasks.iter().flat_map(|t| t.stores.clone()).collect();
    let n_stores = stores.len() as u64;
    stores.sort_unstable();
    stores.dedup();
    assert_eq!(stores.len() as u64, n_stores, "duplicate stores: {case}");
    assert_eq!(
        n_stores,
        stripes * m as u64 * (block / 64),
        "store coverage: {case}"
    );

    // Prefetches target only data lines (never parity or padding).
    for t in &tasks {
        for p in &t.sw_prefetches {
            assert!(expected.contains(p), "prefetch {p} outside data: {case}");
        }
    }
}

/// Exact coverage under arbitrary knobs and either task granularity, with
/// and without a schedule change mid-stripe. Granularity is fixed when the
/// source is built: when it was a knob, flipping it after 3 or 10 tasks of
/// RS(3,2) x 1 KiB x 2 stripes re-read the cursor in the other unit and
/// lost or repeated lines (86-106 loads instead of 96). Either distance
/// may change at any step. The row order (`shuffle`) may change between
/// stripes only: flipped inside one, the rows still to come are mapped by
/// the other permutation and lines are read twice or never — which the
/// adaptive simulated runs do today (ROADMAP item 5, "found").
#[test]
fn isal_pattern_exact_coverage() {
    let off = Knobs::default();
    let on = Knobs {
        d: Some(5),
        d_long: Some(9),
        shuffle: false,
    };
    let shuffled = Knobs {
        shuffle: true,
        ..on
    };
    for (expand, per_stripe) in [(false, 16), (true, 12)] {
        for at in [3, 10] {
            assert_exact_coverage((3, 2, 1024, 2), off, expand, Some((at, on)));
            assert_exact_coverage((3, 2, 1024, 2), on, expand, Some((at, off)));
        }
        assert_exact_coverage((3, 2, 1024, 2), on, expand, Some((per_stripe, shuffled)));
        assert_exact_coverage((3, 2, 1024, 2), shuffled, expand, Some((per_stripe, off)));
    }
    run_cases(48, |rng| {
        let k = rng.range(1, 20);
        let m = rng.range(1, 6);
        let block = rng.range_u64(1, 8) * 256;
        let stripes = rng.range_u64(1, 4);
        let (knobs, expand) = (arb_knobs(rng), rng.bool());
        assert_exact_coverage((k, m, block, stripes), knobs, expand, None);
        let per_stripe = if expand {
            block / 256 * k as u64
        } else {
            block / 64
        };
        let at = rng.range(0, (stripes * per_stripe) as usize + 2);
        let mut next = arb_knobs(rng);
        if !(at as u64).is_multiple_of(per_stripe) {
            next.shuffle = knobs.shuffle;
        }
        assert_exact_coverage((k, m, block, stripes), knobs, expand, Some((at, next)));
    });
}

/// The oracle: the definitional `n + d` arithmetic the three pattern
/// sources each carried inline before they shared the kernel's
/// `for_each_prefetch_target`. The (stream, physical row) targets a task
/// at visual row `vr` of a `rows x width` walk issues, in issue order.
fn reference_targets(vr: u64, width: u64, rows: u64, knobs: &Knobs) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    let Some(d) = knobs.d.map(u64::from) else {
        return out;
    };
    let row_of = |r: u64| {
        if knobs.shuffle {
            shuffle_row(r, rows)
        } else {
            r
        }
    };
    let total = rows * width;
    // BF split only applies without shuffle.
    let df = if knobs.shuffle {
        None
    } else {
        knobs.d_long.map(u64::from)
    };
    for j in 0..width {
        let n = vr * width + j;
        match df {
            None => {
                let t = n + d;
                if t < total {
                    out.push(((t % width) as usize, row_of(t / width)));
                }
            }
            Some(df) => {
                // Each future step is covered exactly once: by the long
                // distance if it starts an XPLine, by the short one
                // otherwise.
                let t1 = n + d;
                if t1 < total && !(t1 / width).is_multiple_of(4) {
                    out.push(((t1 % width) as usize, t1 / width));
                }
                let t2 = n + df;
                if t2 < total && (t2 / width).is_multiple_of(4) {
                    out.push(((t2 % width) as usize, t2 / width));
                }
            }
        }
    }
    out
}

/// Each source's software prefetches equal the oracle's, task by task and
/// **in order** (memsim issues them in order, so order is part of the
/// bit-identical record): RS with and without the long distance and the
/// shuffle, LRC over its k data streams, update over its `1 + m` streams.
#[test]
fn sw_prefetches_equal_the_reference_arithmetic_in_order() {
    run_cases(128, |rng| {
        let k = rng.range(1, 20);
        let m = rng.range(1, 6);
        let block = rng.range_u64(1, 24) * 64;
        let stripes = rng.range_u64(1, 3);
        let rows = block / 64;
        // Distances around the stripe's own reach, so most cases have both
        // a short and a long target in flight and some run past the end.
        let knobs = arb_knobs_within(rng, (rows * k as u64) as u32 + 6);
        let layout = StripeLayout::new(k, m, block, stripes);
        let cost = CostModel::default();
        // (stripe, visual row) of task `i`: row tasks walk a stripe in order.
        let at = |i: usize| (i as u64 / rows, i as u64 % rows);

        let tasks = drain(&mut IsalSource::new(layout, cost, knobs, 1), 0);
        assert_eq!(tasks.len() as u64, stripes * rows);
        for (i, t) in tasks.iter().enumerate() {
            let (s, vr) = at(i);
            let want: Vec<u64> = reference_targets(vr, k as u64, rows, &knobs)
                .into_iter()
                .map(|(j, r)| layout.data_line(0, s, j, r))
                .collect();
            assert_eq!(t.sw_prefetches, want, "RS({k},{m}) {knobs:?} task {i}");
        }

        // LRC and update read a distance only.
        let d_only = Knobs {
            d: knobs.d,
            ..Knobs::default()
        };
        let l = if k.is_multiple_of(2) { 2 } else { 1 };
        let lrc_layout = StripeLayout::new(k, m + l, block, stripes);
        let tasks = drain(&mut LrcSource::new(lrc_layout, cost, m, l, knobs.d, 1), 0);
        assert_eq!(tasks.len() as u64, stripes * rows);
        for (i, t) in tasks.iter().enumerate() {
            let (s, vr) = at(i);
            let want: Vec<u64> = reference_targets(vr, k as u64, rows, &d_only)
                .into_iter()
                .map(|(j, r)| lrc_layout.data_line(0, s, j, r))
                .collect();
            assert_eq!(
                t.sw_prefetches, want,
                "LRC({k},{m},{l}) {d_only:?} task {i}"
            );
        }

        let tasks = drain(&mut UpdateSource::new(layout, cost, knobs.d, 1), 0);
        assert_eq!(tasks.len() as u64, stripes * rows);
        for (i, t) in tasks.iter().enumerate() {
            let (s, vr) = at(i);
            let want: Vec<u64> = reference_targets(vr, 1 + m as u64, rows, &d_only)
                .into_iter()
                .map(|(j, r)| match j {
                    0 => layout.data_line(0, s, 0, r),
                    j => layout.parity_line(0, s, j - 1, r),
                })
                .collect();
            assert_eq!(t.sw_prefetches, want, "update m={m} {d_only:?} task {i}");
        }
    });
}

/// With BF split off, the prefetch stream covers every data line except
/// the per-stripe warm-up prefix, each exactly once.
#[test]
fn isal_prefetch_stream_covers_all_but_warmup() {
    run_cases(48, |rng| {
        let k = rng.range(1, 12);
        let d = rng.range_u32(1, 100);
        let stripes = rng.range_u64(1, 3);
        let block = 1024u64;
        let layout = StripeLayout::new(k, 2, block, stripes);
        let mut src = IsalSource::new(layout, CostModel::default(), Knobs::distance(d), 1);
        let tasks = drain(&mut src, 0);
        let mut pf: Vec<u64> = tasks.iter().flat_map(|t| t.sw_prefetches.clone()).collect();
        let n = pf.len() as u64;
        pf.sort_unstable();
        pf.dedup();
        assert_eq!(pf.len() as u64, n, "duplicate prefetches");
        let steps = (block / 64) * k as u64;
        let expected = stripes * steps.saturating_sub(d as u64);
        assert_eq!(n, expected, "warm-up accounting");
    });
}

/// The shuffle map is a bijection for any row count.
#[test]
fn shuffle_row_bijective() {
    run_cases(64, |rng| {
        let rows = rng.range_u64(1, 2048);
        let mut seen = vec![false; rows as usize];
        for r in 0..rows {
            let s = shuffle_row(r, rows);
            assert!(s < rows);
            assert!(!seen[s as usize], "duplicate {s}");
            seen[s as usize] = true;
        }
    });
}

/// Decompose pass accounting: loads = data once + parity reloads for
/// every pass after the first; stores = m lines per row per pass.
#[test]
fn decompose_traffic_accounting() {
    run_cases(48, |rng| {
        let k = rng.range(2, 24);
        let m = rng.range(1, 4);
        let sub_k = rng.range(1, 24).min(k);
        let stripes = rng.range_u64(1, 3);
        let block = 512u64;
        let rows = block / 64;
        let layout = StripeLayout::new(k, m, block, stripes);
        let mut src = DecomposeSource::new(layout, CostModel::default(), sub_k, 1);
        let passes = (k as u64).div_ceil(sub_k as u64);
        let tasks = drain(&mut src, 0);
        let loads: u64 = tasks.iter().map(|t| t.loads.len() as u64).sum();
        let stores: u64 = tasks.iter().map(|t| t.stores.len() as u64).sum();
        assert_eq!(loads, stripes * rows * (k as u64 + (passes - 1) * m as u64));
        assert_eq!(stores, stripes * rows * passes * m as u64);
    });
}

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
