//! Access pattern of LRC(k, m, l) encoding (Fig. 16).
//!
//! Identical read side to the RS pattern (all k data blocks are loaded
//! once), but the store side writes `m + l` parity streams and the compute
//! adds one XOR per data line for the local parity — the "higher proportion
//! of store instructions" the paper cites for LRC's smaller DIALGA gains.

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

/// Task source for LRC encoding. The layout's `m` must equal the total
/// parity count `m_global + l` so local parities have a home.
#[derive(Debug, Clone)]
pub struct LrcSource {
    layout: StripeLayout,
    cost: CostModel,
    m_global: usize,
    l: usize,
    /// The pipelined prefetch over the k read streams (distance only).
    sched: Knobs,
    cur: Vec<Cursor>,
    threads: usize,
}

impl LrcSource {
    /// Build a source for LRC(k, m_global, l); `sw_distance` enables
    /// DIALGA-style pipelined prefetching over the data streams.
    pub fn new(
        layout: StripeLayout,
        cost: CostModel,
        m_global: usize,
        l: usize,
        sw_distance: Option<u32>,
        threads: usize,
    ) -> Self {
        assert_eq!(
            layout.m,
            m_global + l,
            "layout.m must cover global + local parities"
        );
        assert!(l > 0 && layout.k.is_multiple_of(l), "l must divide k");
        LrcSource {
            layout,
            cost,
            m_global,
            l,
            sched: Knobs {
                d: sw_distance,
                ..Knobs::default()
            },
            cur: vec![Cursor::default(); threads],
            threads,
        }
    }

    /// Total parity streams written per row.
    pub fn parity_streams(&self) -> usize {
        self.m_global + self.l
    }
}

impl TaskSource for LrcSource {
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
        let k = self.layout.k;
        let rows = self.layout.rows_per_block();

        for_each_prefetch_target(c.row, k, rows, &self.sched, |block, prow| {
            task.sw_prefetches
                .push(self.layout.data_line(tid, c.stripe, block, prow));
        });
        for j in 0..k {
            task.loads
                .push(self.layout.data_line(tid, c.stripe, j, c.row));
        }
        // Global RS compute + one XOR per data line for its local parity.
        task.compute_cycles =
            self.cost.rs_row_cycles(k, self.m_global) + self.cost.xor_lines_cycles(k as u64);
        for i in 0..self.parity_streams() {
            task.stores
                .push(self.layout.parity_line(tid, c.stripe, i, c.row));
        }

        let cur = &mut self.cur[tid];
        cur.row += 1;
        if cur.row >= rows {
            cur.row = 0;
            cur.stripe += 1;
        }
        true
    }

    fn data_bytes(&self) -> u64 {
        self.layout.data_bytes_per_thread() * self.threads as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_memsim::{Engine, MachineConfig};

    #[test]
    fn task_shape_includes_local_parity_stores() {
        let layout = StripeLayout::new(12, 4 + 2, 1024, 1);
        let mut src = LrcSource::new(layout, CostModel::default(), 4, 2, None, 1);
        let ctr = Counters::default();
        let mut task = RowTask::default();
        assert!(src.next_task(0, 0.0, &ctr, &mut task));
        assert_eq!(task.loads.len(), 12);
        assert_eq!(task.stores.len(), 6);
    }

    #[test]
    fn lrc_slower_than_rs_same_k() {
        let cost = CostModel::default();
        let rs_layout = StripeLayout::sized_for(12, 4, 1024, 1 << 20);
        let lrc_layout = StripeLayout::sized_for(12, 6, 1024, 1 << 20);
        let mut rs = crate::isal::IsalSource::new(rs_layout, cost, Knobs::default(), 1);
        let mut lrc = LrcSource::new(lrc_layout, cost, 4, 2, None, 1);
        let mut e1 = Engine::new(MachineConfig::pm(), 1);
        let r_rs = e1.run(&mut rs);
        let mut e2 = Engine::new(MachineConfig::pm(), 1);
        let r_lrc = e2.run(&mut lrc);
        assert!(
            r_lrc.throughput_gbs() < r_rs.throughput_gbs(),
            "LRC {:.2} should be below RS {:.2}",
            r_lrc.throughput_gbs(),
            r_rs.throughput_gbs()
        );
    }

    #[test]
    #[should_panic(expected = "layout.m must cover")]
    fn layout_parity_mismatch_panics() {
        let layout = StripeLayout::new(12, 4, 1024, 1);
        LrcSource::new(layout, CostModel::default(), 4, 2, None, 1);
    }
}
