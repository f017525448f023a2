//! Access pattern of in-place parity *updates* (the write path studied by
//! TVARAK / Vilamb / CodePM, §7): one data block changes, and every parity
//! block is patched with the delta instead of re-encoding the stripe.
//!
//! Per 64 B row: load the old data line and the m old parity lines,
//! compute `delta = old ^ new` and m GF multiply-accumulates, then NT-store
//! the new data line and the m new parity lines. Reads span `m + 1`
//! streams — short prefetch windows, which is where DIALGA's pipelined
//! software prefetch helps again.

use crate::cost::CostModel;
use crate::isal::Knobs;
use crate::layout::StripeLayout;
use dialga_gf::sched::for_each_prefetch_target;
use dialga_memsim::{Counters, RowTask, TaskSource};

#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    stripe: u64,
    row: u64,
}

/// Task source for delta parity updates: one updated block per stripe.
#[derive(Debug, Clone)]
pub struct UpdateSource {
    layout: StripeLayout,
    cost: CostModel,
    /// The pipelined prefetch over the (m+1)-stream row walk (distance only).
    sched: Knobs,
    cur: Vec<Cursor>,
    threads: usize,
}

impl UpdateSource {
    /// Build an update source; `sw_distance` enables DIALGA-style pipelined
    /// prefetching over the update's read streams.
    pub fn new(
        layout: StripeLayout,
        cost: CostModel,
        sw_distance: Option<u32>,
        threads: usize,
    ) -> Self {
        UpdateSource {
            layout,
            cost,
            sched: Knobs {
                d: sw_distance,
                ..Knobs::default()
            },
            cur: vec![Cursor::default(); threads],
            threads,
        }
    }

    /// Streams read per row (old data + m parities).
    pub fn read_streams(&self) -> usize {
        1 + self.layout.m
    }

    /// Line `r` of read stream `j`: the updated block (block 0 of the
    /// stripe, a deterministic choice), then the m parities.
    fn stream_line(&self, tid: usize, s: u64, j: usize, r: u64) -> u64 {
        match j.checked_sub(1) {
            None => self.layout.data_line(tid, s, 0, r),
            Some(i) => self.layout.parity_line(tid, s, i, r),
        }
    }

    fn row_addrs(&self, tid: usize, s: u64, r: u64) -> impl Iterator<Item = u64> + '_ {
        (0..self.read_streams()).map(move |j| self.stream_line(tid, s, j, r))
    }
}

impl TaskSource for UpdateSource {
    fn next_task(
        &mut self,
        tid: usize,
        _now_ns: f64,
        _counters: &Counters,
        task: &mut RowTask,
    ) -> bool {
        let c = self.cur[tid];
        if c.stripe >= self.layout.stripes_per_thread {
            return false;
        }
        let m = self.layout.m;
        let rows = self.layout.rows_per_block();

        for_each_prefetch_target(c.row, 1 + m, rows, &self.sched, |stream, prow| {
            task.sw_prefetches
                .push(self.stream_line(tid, c.stripe, stream, prow));
        });
        task.loads.extend(self.row_addrs(tid, c.stripe, c.row));
        // delta XOR + m GF multiply-accumulates per row.
        task.compute_cycles = self.cost.xor_lines_cycles(1)
            + self.cost.rs_line_cycles(m)
            + self.cost.row_overhead_cycles;
        task.stores.extend(self.row_addrs(tid, c.stripe, c.row));

        let cur = &mut self.cur[tid];
        cur.row += 1;
        if cur.row >= rows {
            cur.row = 0;
            cur.stripe += 1;
        }
        true
    }

    fn data_bytes(&self) -> u64 {
        // Payload = the updated block per stripe.
        self.layout.block_bytes * self.layout.stripes_per_thread * self.threads as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_memsim::MachineConfig;

    #[test]
    fn task_shape() {
        let layout = StripeLayout::new(12, 4, 1024, 2);
        let mut src = UpdateSource::new(layout, CostModel::default(), None, 1);
        let ctr = Counters::default();
        let mut task = RowTask::default();
        assert!(src.next_task(0, 0.0, &ctr, &mut task));
        assert_eq!(task.loads.len(), 5, "old data + 4 parities");
        assert_eq!(task.stores.len(), 5, "new data + 4 parities");
        assert!(task.sw_prefetches.is_empty());
    }

    #[test]
    fn terminates_after_all_stripes() {
        let layout = StripeLayout::new(4, 2, 512, 3);
        let mut src = UpdateSource::new(layout, CostModel::default(), Some(6), 1);
        let ctr = Counters::default();
        let mut task = RowTask::default();
        let mut n = 0;
        while {
            task.clear();
            src.next_task(0, 0.0, &ctr, &mut task)
        } {
            n += 1;
        }
        assert_eq!(n, 3 * 8, "stripes x rows");
    }

    #[test]
    fn prefetching_speeds_up_updates() {
        let layout = StripeLayout::sized_for(12, 4, 1024, 1 << 20);
        let cfg = MachineConfig::pm();
        let mut plain = UpdateSource::new(layout, CostModel::default(), None, 1);
        let r_plain = crate::runner::run_source(&cfg, 1, &mut plain);
        let mut pf = UpdateSource::new(layout, CostModel::default(), Some(10), 1);
        let r_pf = crate::runner::run_source(&cfg, 1, &mut pf);
        assert!(
            r_pf.throughput_gbs() > 1.1 * r_plain.throughput_gbs(),
            "prefetch {:.2} vs plain {:.2}",
            r_pf.throughput_gbs(),
            r_plain.throughput_gbs()
        );
    }
}
