//! The ISA-L-style table-driven encode/decode access pattern, under
//! DIALGA's schedule.
//!
//! One *row task* is one iteration of the `ec_encode_data` dot-product
//! loop: load one 64 B line from each of the k data blocks, fold them into
//! m parity accumulators, NT-store m parity lines. The k read streams
//! advance in lockstep — the structure behind the paper's prefetch-window
//! analysis (Obs. 3) and behind DIALGA's Fig. 9 pipelined prefetch.
//!
//! [`Knobs`] — distance `d`, §4.3.2 long distance `d_long`, `shuffle` — is
//! the host kernels' own schedule struct, and a row task's software
//! prefetches are whatever [`for_each_prefetch_target`] visits for its row:
//! the simulated pattern and the shipped kernel share one definition
//! (`tests/differential.rs` holds the two sequences against each other).
//! 256 B task-granularity expansion (§4.3.3) is not part of the schedule: it
//! changes what a task *is*, so it is fixed when the source is built
//! ([`IsalSource::with_xpline_expand`]) and exists in the simulator only.

use crate::cost::CostModel;
use crate::layout::StripeLayout;
use dialga_gf::sched::{for_each_prefetch_target, LINES_PER_XPLINE};
use dialga_memsim::{Counters, RowTask, TaskSource};

// The schedule and the shuffle mapping are the real-bytes fused kernels'
// own — one definition in `dialga_gf::sched`, re-exported for the simulator.
pub use dialga_gf::sched::{shuffle_row, FusedSched as Knobs};

#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    stripe: u64,
    step: u64,
}

/// Task source for the table-driven (ISA-L-like) pattern.
///
/// For decode workloads, construct the layout with `k` = surviving source
/// blocks and `m` = blocks being reconstructed: the memory pattern is
/// identical (§4.1, "encoding and decoding tasks share the same memory
/// load pattern").
#[derive(Debug, Clone)]
pub struct IsalSource {
    layout: StripeLayout,
    cost: CostModel,
    knobs: Knobs,
    expand: bool,
    cur: Vec<Cursor>,
    threads: usize,
}

impl IsalSource {
    /// Build a source for `threads` logical threads.
    pub fn new(layout: StripeLayout, cost: CostModel, knobs: Knobs, threads: usize) -> Self {
        IsalSource {
            layout,
            cost,
            knobs,
            expand: false,
            cur: vec![Cursor::default(); threads],
            threads,
        }
    }

    /// Expand loop tasks to 256 B (XPLine) granularity (§4.3.3). Set when
    /// the source is built, never after: it decides the unit the cursor
    /// counts in. Blocks that are not whole XPLines keep row tasks.
    pub fn with_xpline_expand(mut self, expand: bool) -> Self {
        self.expand = expand
            && self
                .layout
                .rows_per_block()
                .is_multiple_of(LINES_PER_XPLINE);
        self
    }

    /// Whether tasks are 256 B-expanded.
    pub fn xpline_expand(&self) -> bool {
        self.expand
    }

    /// Replace the knobs (DIALGA's coordinator does this between samples).
    pub fn set_knobs(&mut self, knobs: Knobs) {
        self.knobs = knobs;
    }

    /// Current knobs.
    pub fn knobs(&self) -> Knobs {
        self.knobs
    }

    /// The layout.
    pub fn layout(&self) -> &StripeLayout {
        &self.layout
    }

    fn steps_per_stripe(&self) -> u64 {
        if self.expand {
            (self.layout.rows_per_block() / LINES_PER_XPLINE) * self.layout.k as u64
        } else {
            self.layout.rows_per_block()
        }
    }

    /// Visual index `visual` of `n` rows (or XPLine groups) in the
    /// schedule's row order.
    fn in_order(&self, visual: u64, n: u64) -> u64 {
        if self.knobs.shuffle {
            shuffle_row(visual, n)
        } else {
            visual
        }
    }

    fn fill_normal(&self, tid: usize, c: Cursor, task: &mut RowTask) {
        let (k, m) = (self.layout.k, self.layout.m);
        let rows = self.layout.rows_per_block();
        let row = self.in_order(c.step, rows);

        for_each_prefetch_target(c.step, k, rows, &self.knobs, |block, prow| {
            task.sw_prefetches
                .push(self.layout.data_line(tid, c.stripe, block, prow));
        });
        for j in 0..k {
            task.loads
                .push(self.layout.data_line(tid, c.stripe, j, row));
        }
        task.compute_cycles = self.cost.rs_row_cycles(k, m);
        for i in 0..m {
            task.stores
                .push(self.layout.parity_line(tid, c.stripe, i, row));
        }
    }

    /// The simulator-only 256 B variant: one task is the `LINES_PER_XPLINE`
    /// lines of one XPLine of one block, so its prefetch distance counts in
    /// those steps and does not go through `for_each_prefetch_target`.
    fn fill_expanded(&self, tid: usize, c: Cursor, task: &mut RowTask) {
        let (k, m) = (self.layout.k, self.layout.m);
        let groups = self.layout.rows_per_block() / LINES_PER_XPLINE;
        let j = (c.step % k as u64) as usize;
        let g = self.in_order(c.step / k as u64, groups);
        let lines = |g: u64| (0..LINES_PER_XPLINE).map(move |l| g * LINES_PER_XPLINE + l);

        if let Some(d) = self.knobs.d {
            // Translate the line distance into expanded steps.
            let t = c.step + (d as u64 / LINES_PER_XPLINE).max(1);
            if t < self.steps_per_stripe() {
                let (tg, tj) = (self.in_order(t / k as u64, groups), (t % k as u64) as usize);
                task.sw_prefetches
                    .extend(lines(tg).map(|r| self.layout.data_line(tid, c.stripe, tj, r)));
            }
        }

        task.loads
            .extend(lines(g).map(|r| self.layout.data_line(tid, c.stripe, j, r)));
        task.compute_cycles =
            LINES_PER_XPLINE as f64 * self.cost.rs_line_cycles(m) + self.cost.row_overhead_cycles;
        if j == k - 1 {
            for i in 0..m {
                task.stores
                    .extend(lines(g).map(|r| self.layout.parity_line(tid, c.stripe, i, r)));
            }
        }
    }
}

impl TaskSource for IsalSource {
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
        if self.expand {
            self.fill_expanded(tid, c, task);
        } else {
            self.fill_normal(tid, c, task);
        }
        let steps = self.steps_per_stripe();
        let cur = &mut self.cur[tid];
        cur.step += 1;
        if cur.step >= steps {
            cur.step = 0;
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
    use dialga_memsim::MachineConfig;

    fn collect_tasks(src: &mut IsalSource, tid: usize, n: usize) -> Vec<RowTask> {
        let ctr = Counters::default();
        let mut out = Vec::new();
        for _ in 0..n {
            let mut t = RowTask::default();
            if !src.next_task(tid, 0.0, &ctr, &mut t) {
                break;
            }
            out.push(t);
        }
        out
    }

    #[test]
    fn shuffle_row_is_bijective() {
        for rows in [4u64, 8, 16, 32, 48, 64, 80, 160] {
            let mut seen = vec![false; rows as usize];
            for r in 0..rows {
                let s = shuffle_row(r, rows);
                assert!(s < rows, "rows={rows} r={r} -> {s}");
                assert!(!seen[s as usize], "rows={rows}: duplicate {s}");
                seen[s as usize] = true;
            }
        }
    }

    #[test]
    fn shuffle_avoids_sequential_deltas() {
        for rows in [8u64, 16, 32, 64] {
            for r in 0..rows - 1 {
                let a = shuffle_row(r, rows);
                let b = shuffle_row(r + 1, rows);
                // Within the same window, consecutive visual steps must not
                // produce +1 (the stream detector's trigger).
                if r / 64 == (r + 1) / 64 {
                    assert_ne!(b, a + 1, "rows={rows} r={r}");
                }
            }
        }
    }

    #[test]
    fn normal_task_shape() {
        let layout = StripeLayout::new(12, 4, 1024, 4);
        let mut src = IsalSource::new(layout, CostModel::default(), Knobs::default(), 1);
        let tasks = collect_tasks(&mut src, 0, 3);
        assert_eq!(tasks.len(), 3);
        for t in &tasks {
            assert_eq!(t.loads.len(), 12);
            assert_eq!(t.stores.len(), 4);
            assert!(t.sw_prefetches.is_empty());
            assert!(t.compute_cycles > 0.0);
        }
        // Loads advance by one row (64 B) per task.
        assert_eq!(tasks[1].loads[0], tasks[0].loads[0] + 64);
    }

    #[test]
    fn stripe_count_limits_tasks() {
        let layout = StripeLayout::new(4, 2, 1024, 2);
        let mut src = IsalSource::new(layout, CostModel::default(), Knobs::default(), 1);
        // 16 rows per block x 2 stripes = 32 tasks.
        let tasks = collect_tasks(&mut src, 0, 100);
        assert_eq!(tasks.len(), 32);
    }

    #[test]
    fn sw_prefetch_targets_d_steps_ahead() {
        let layout = StripeLayout::new(4, 2, 1024, 1);
        // Exactly one row ahead when k = 4.
        let mut src = IsalSource::new(layout, CostModel::default(), Knobs::distance(4), 1);
        let tasks = collect_tasks(&mut src, 0, 2);
        // Row 0's prefetches are row 1's loads.
        assert_eq!(tasks[0].sw_prefetches, tasks[1].loads);
    }

    #[test]
    fn sw_prefetch_skips_tail() {
        let layout = StripeLayout::new(4, 2, 1024, 1); // 16 rows
        let mut src = IsalSource::new(layout, CostModel::default(), Knobs::distance(8), 1);
        let tasks = collect_tasks(&mut src, 0, 16);
        // Last two rows (steps 56..64 of 64) have no prefetches at d=8.
        assert!(tasks[15].sw_prefetches.is_empty());
        assert!(tasks[14].sw_prefetches.is_empty());
        assert_eq!(tasks[0].sw_prefetches.len(), 4);
    }

    #[test]
    fn bf_split_covers_each_step_once() {
        let layout = StripeLayout::new(4, 2, 1024, 1);
        let knobs = Knobs {
            d: Some(6),
            d_long: Some(10),
            shuffle: false,
        };
        let mut src = IsalSource::new(layout, CostModel::default(), knobs, 1);
        let tasks = collect_tasks(&mut src, 0, 16);
        // Union of all prefetch targets == union of all loads minus the
        // warm-up prefix (steps 0..min(d)) — and no duplicates.
        let mut targets: Vec<u64> = tasks.iter().flat_map(|t| t.sw_prefetches.clone()).collect();
        let before = targets.len();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(before, targets.len(), "duplicate prefetch targets");
        let loads: std::collections::HashSet<u64> =
            tasks.iter().flat_map(|t| t.loads.clone()).collect();
        for t in &targets {
            assert!(loads.contains(t), "prefetch {t} never loaded");
        }
    }

    #[test]
    fn expanded_mode_visits_all_lines_and_stores_once() {
        let layout = StripeLayout::new(3, 2, 1024, 1);
        let mut src = IsalSource::new(layout, CostModel::default(), Knobs::default(), 1)
            .with_xpline_expand(true);
        let tasks = collect_tasks(&mut src, 0, 1000);
        // 16 rows / 4 = 4 groups x 3 blocks = 12 tasks.
        assert_eq!(tasks.len(), 12);
        let mut loads: Vec<u64> = tasks.iter().flat_map(|t| t.loads.clone()).collect();
        loads.sort_unstable();
        loads.dedup();
        assert_eq!(loads.len(), 3 * 16, "every data line exactly once");
        let stores: usize = tasks.iter().map(|t| t.stores.len()).sum();
        assert_eq!(stores, 2 * 16, "every parity line exactly once");
        // Loads within a task are 4 consecutive lines of one block.
        for t in &tasks {
            assert_eq!(t.loads.len(), 4);
            assert_eq!(t.loads[3] - t.loads[0], 192);
        }
    }

    #[test]
    fn shuffled_run_defeats_hw_prefetcher_end_to_end() {
        let layout = StripeLayout::sized_for(12, 4, 4096, 2 << 20);
        let plain = IsalSource::new(layout, CostModel::default(), Knobs::default(), 1);
        let shuf = IsalSource::new(
            layout,
            CostModel::default(),
            Knobs {
                shuffle: true,
                ..Default::default()
            },
            1,
        );
        let mut e1 = dialga_memsim::Engine::new(MachineConfig::pm(), 1);
        let r1 = e1.run(&mut { plain });
        let mut e2 = dialga_memsim::Engine::new(MachineConfig::pm(), 1);
        let r2 = e2.run(&mut { shuf });
        assert!(r1.counters.hw_prefetches > 1000, "plain should prefetch");
        assert_eq!(r2.counters.hw_prefetches, 0, "shuffle must silence HW PF");
        // Shuffle still touches every line exactly once.
        assert_eq!(r1.counters.loads, r2.counters.loads);
    }
}
