//! The simulated DIALGA is the kernel that ships: the row walk the fused
//! GF kernel *executes* — recorded from the body of its portable group
//! pass, one entry per prefetch / load / store — equals, access for access
//! and in order, the `RowTask` stream [`IsalSource`] feeds the simulator
//! under the same schedule.

use dialga_gf::sched::FusedSched;
use dialga_gf::simd::{dot_prod_fused_traced, Access, FUSED_GROUP};
use dialga_gf::tables::NibbleTables;
use dialga_memsim::{Counters, RowTask, TaskSource};
use dialga_pipeline::cost::CostModel;
use dialga_pipeline::isal::IsalSource;
use dialga_pipeline::layout::StripeLayout;
use std::collections::HashMap;

/// What the kernel did for one `k`-source, `outputs`-output, `rows`-line
/// stripe (its bytes are `dialga-gf`'s tier sweep's business).
fn kernel_trace(k: usize, outputs: usize, rows: u64, sched: FusedSched) -> Vec<Access> {
    let len = rows as usize * 64;
    let data = vec![vec![0x5Au8; len]; k];
    let sources: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let tables: Vec<NibbleTables> = (0..outputs * k)
        .map(|c| NibbleTables::new(c as u8 + 2))
        .collect();
    let mut parity = vec![vec![0u8; len]; outputs];
    let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
    dot_prod_fused_traced(&tables, &sources, &mut outs, sched)
}

/// The simulated side of one `k x rows` stripe with `outputs` parities: its
/// layout, and its line addresses mapped back to (block, row).
struct Simulated {
    layout: StripeLayout,
    lines: HashMap<u64, (usize, u64)>,
}

impl Simulated {
    fn new(k: usize, outputs: usize, rows: u64) -> Self {
        let layout = StripeLayout::new(k, outputs, rows * 64, 1);
        let mut lines = HashMap::new();
        for r in 0..rows {
            for j in 0..k {
                lines.insert(layout.data_line(0, 0, j, r), (j, r));
            }
            for i in 0..outputs {
                lines.insert(layout.parity_line(0, 0, i, r), (i, r));
            }
        }
        Simulated { layout, lines }
    }

    /// What the simulator is fed under `sched`: every task's prefetches,
    /// then its loads, then its stores (the order memsim issues them in).
    fn trace(&self, sched: FusedSched) -> Vec<Access> {
        let mut src = IsalSource::new(self.layout, CostModel::default(), sched, 1);
        let (ctr, mut task, mut trace) = (Counters::default(), RowTask::default(), Vec::new());
        while {
            task.clear();
            src.next_task(0, 0.0, &ctr, &mut task)
        } {
            let at = |addr: &u64| self.lines[addr];
            let prefetches = task.sw_prefetches.iter().map(at);
            trace.extend(prefetches.map(|(b, r)| Access::Prefetch(b, r)));
            trace.extend(task.loads.iter().map(at).map(|(b, r)| Access::Load(b, r)));
            trace.extend(task.stores.iter().map(at).map(|(b, r)| Access::Store(b, r)));
        }
        trace
    }
}

/// {no prefetch, `d`, `d` + `d_long`} x shuffle, on distances that divide
/// `k`, do not, wrap a row, and pass the end of the stripe.
fn schedules(k: u32, rows: u32) -> Vec<FusedSched> {
    let mut ds = vec![1, k - 1, k, k + 1, 2 * k + 3, rows * k, rows * k + 5];
    ds.retain(|&d| d > 0);
    ds.sort_unstable();
    ds.dedup();
    let mut out = vec![FusedSched::plain()];
    for d in ds {
        out.push(FusedSched::distance(d));
        for d_long in [k + 4, 4 * d] {
            out.push(FusedSched {
                d_long: Some(d_long),
                ..FusedSched::distance(d)
            });
        }
    }
    let shuffled = out
        .clone()
        .into_iter()
        .map(|s| FusedSched { shuffle: true, ..s });
    out.into_iter().chain(shuffled).collect()
}

#[test]
fn the_kernels_row_walk_is_the_simulators_task_stream() {
    let mut compared = 0usize;
    for k in [1usize, 3, 4, 10, 12, 28] {
        // 63 / 65 / 130: a short last shuffle window; 1 / 2: a degenerate one.
        for rows in [1u64, 2, 63, 64, 65, 130] {
            let (one, group) = (
                Simulated::new(k, 1, rows),
                Simulated::new(k, FUSED_GROUP, rows),
            );
            for sched in schedules(k as u32, rows as u32) {
                let case = format!("k={k} rows={rows} {sched:?}");

                // One group pass: the two sequences are equal.
                let sim = one.trace(sched);
                assert_eq!(kernel_trace(k, 1, rows, sched), sim, "{case}");
                let prefetches = sim.iter().filter(|a| matches!(a, Access::Prefetch(..)));
                let reach = rows * k as u64;
                let d = sched.d.map_or(reach, u64::from);
                if sched.d_long.is_none() || sched.shuffle {
                    assert_eq!(prefetches.count() as u64, reach.saturating_sub(d), "{case}");
                }

                // More outputs than one group holds: the first pass is the
                // simulated stream over its FUSED_GROUP outputs; each later
                // pass re-loads the same rows in the same order, stores its
                // own outputs and prefetches nothing — the `ceil(m /
                // FUSED_GROUP)` passes `pipeline::cost` prices.
                let outputs = FUSED_GROUP + 1;
                let kernel = kernel_trace(k, outputs, rows, sched);
                let first = group.trace(sched);
                assert_eq!(kernel[..first.len()], first, "first pass, {case}");
                let again: Vec<Access> = one
                    .trace(FusedSched { d: None, ..sched })
                    .into_iter()
                    .map(|a| match a {
                        Access::Store(i, r) => Access::Store(FUSED_GROUP + i, r),
                        other => other,
                    })
                    .collect();
                assert_eq!(kernel[first.len()..], again, "second pass, {case}");
                compared += 2;
            }
        }
    }
    assert!(compared >= 2900, "grid shrank: {compared} comparisons");
}
