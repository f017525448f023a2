//! Timed DIALGA: the task source that couples the scheduler to the PM
//! simulator, with the Fig. 18 breakdown variants.

use crate::coordinator::Coordinator;
use dialga_memsim::{Counters, MachineConfig, RowTask, TaskSource};
use dialga_pipeline::cost::CostModel;
use dialga_pipeline::isal::{IsalSource, Knobs};
use dialga_pipeline::layout::StripeLayout;

/// Feature selection for the Fig. 18 breakdown (each variant adds one
/// mechanism) plus the full adaptive scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// All optimizations off (hardware prefetching suppressed too): the
    /// breakdown baseline.
    Vanilla,
    /// + pipelined software prefetching (d = k, static).
    Sw,
    /// + hardware prefetching (shuffle released).
    SwHw,
    /// + buffer-friendly prefetching (per-XPLine distance split).
    SwHwBf,
    /// The full adaptive coordinator (what every other figure runs).
    Adaptive,
}

impl Variant {
    /// Static knobs for the non-adaptive variants.
    pub fn knobs(self, k: usize) -> Knobs {
        let d = k as u32;
        match self {
            Variant::Vanilla => Knobs {
                shuffle: true,
                ..Knobs::default()
            },
            Variant::Sw => Knobs {
                shuffle: true,
                ..Knobs::distance(d)
            },
            Variant::SwHw => Knobs::distance(d),
            Variant::SwHwBf => Knobs {
                // First cacheline of each XPLine is prefetched much
                // earlier: it pays media (not buffer) latency (§4.3.2).
                d_long: Some(4 * d),
                ..Knobs::distance(d)
            },
            Variant::Adaptive => Knobs::default(), // replaced by the coordinator
        }
    }
}

/// DIALGA as a [`TaskSource`]: an ISA-L-pattern encode whose knobs are
/// driven by the adaptive coordinator (or pinned, for the breakdown).
#[derive(Debug, Clone)]
pub struct DialgaSource {
    inner: IsalSource,
    coord: Option<Coordinator>,
}

impl DialgaSource {
    /// Build the full adaptive scheduler for a workload.
    pub fn new(layout: StripeLayout, cost: CostModel, threads: usize, cfg: &MachineConfig) -> Self {
        Self::with_variant(layout, cost, threads, cfg, Variant::Adaptive)
    }

    /// Build a specific breakdown variant.
    pub fn with_variant(
        layout: StripeLayout,
        cost: CostModel,
        threads: usize,
        cfg: &MachineConfig,
        variant: Variant,
    ) -> Self {
        match variant {
            Variant::Adaptive => {
                let coord = Coordinator::new(layout.k, threads, cfg);
                let inner = IsalSource::new(layout, cost, coord.policy().knobs, threads)
                    .with_xpline_expand(coord.xpline_expand());
                DialgaSource {
                    inner,
                    coord: Some(coord),
                }
            }
            pinned => DialgaSource {
                inner: IsalSource::new(layout, cost, pinned.knobs(layout.k), threads),
                coord: None,
            },
        }
    }

    /// The coordinator (None for pinned variants).
    pub fn coordinator(&self) -> Option<&Coordinator> {
        self.coord.as_ref()
    }

    /// Current knobs in effect.
    pub fn knobs(&self) -> Knobs {
        self.inner.knobs()
    }

    /// Override the sampling interval (simulated ns) — figure harnesses use
    /// shorter intervals than the 1 kHz default so short runs still adapt.
    pub fn set_sample_interval(&mut self, ns: f64) {
        if let Some(c) = &mut self.coord {
            c.set_sample_interval(ns);
        }
    }
}

impl TaskSource for DialgaSource {
    fn next_task(
        &mut self,
        tid: usize,
        now_ns: f64,
        counters: &Counters,
        task: &mut RowTask,
    ) -> bool {
        // Thread 0 hosts the coordinator (the paper's coordinator is a
        // single lightweight sampling loop).
        if tid == 0 {
            if let Some(coord) = &mut self.coord {
                if let Some(knobs) = coord.on_tick(now_ns, counters) {
                    self.inner.set_knobs(knobs);
                }
            }
        }
        self.inner.next_task(tid, now_ns, counters, task)
    }

    fn data_bytes(&self) -> u64 {
        self.inner.data_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_pipeline::run_source;

    fn layout(k: usize, m: usize, block: u64) -> StripeLayout {
        StripeLayout::sized_for(k, m, block, 2 << 20)
    }

    fn run(variant: Variant, k: usize, m: usize, block: u64, threads: usize) -> f64 {
        let cfg = MachineConfig::pm();
        let mut src = DialgaSource::with_variant(
            layout(k, m, block),
            CostModel::default(),
            threads,
            &cfg,
            variant,
        );
        src.set_sample_interval(50_000.0);
        run_source(&cfg, threads, &mut src).throughput_gbs()
    }

    /// Fig. 18 ordering: each added mechanism helps.
    #[test]
    fn breakdown_variants_are_monotone() {
        let (k, m, block) = (12, 4, 1024);
        let vanilla = run(Variant::Vanilla, k, m, block, 1);
        let sw = run(Variant::Sw, k, m, block, 1);
        let swhw = run(Variant::SwHw, k, m, block, 1);
        let full = run(Variant::SwHwBf, k, m, block, 1);
        assert!(sw > 1.1 * vanilla, "+SW: {sw:.2} vs {vanilla:.2}");
        assert!(
            swhw > sw * 0.98,
            "+HW must not regress: {swhw:.2} vs {sw:.2}"
        );
        assert!(
            full >= swhw * 0.98,
            "+BF must not regress: {full:.2} vs {swhw:.2}"
        );
        assert!(
            full > 1.3 * vanilla,
            "full stack: {full:.2} vs {vanilla:.2}"
        );
    }

    /// The adaptive scheduler must beat plain ISA-L (the headline claim)
    /// on a narrow stripe with 1 KiB blocks.
    #[test]
    fn adaptive_beats_plain_isal_narrow_stripe() {
        let cfg = MachineConfig::pm();
        let mut isal = IsalSource::new(
            layout(12, 4, 1024),
            CostModel::default(),
            Knobs::default(),
            1,
        );
        let plain = run_source(&cfg, 1, &mut isal).throughput_gbs();
        let dialga = run(Variant::Adaptive, 12, 4, 1024, 1);
        assert!(
            dialga > 1.25 * plain,
            "DIALGA {dialga:.2} should clearly beat ISA-L {plain:.2}"
        );
    }

    /// Wide stripes: ISA-L collapses (prefetcher table overflow), DIALGA's
    /// software prefetching does not.
    #[test]
    fn adaptive_rescues_wide_stripes() {
        let cfg = MachineConfig::pm();
        let mut isal = IsalSource::new(
            layout(48, 4, 1024),
            CostModel::default(),
            Knobs::default(),
            1,
        );
        let plain = run_source(&cfg, 1, &mut isal).throughput_gbs();
        let dialga = run(Variant::Adaptive, 48, 4, 1024, 1);
        assert!(
            dialga > 1.8 * plain,
            "wide stripe: DIALGA {dialga:.2} vs ISA-L {plain:.2}"
        );
    }

    /// Under high concurrency the coordinator's initial policy suppresses
    /// hardware prefetching, and the run completes with zero HW prefetches
    /// issued by thread tasks generated after suppression.
    #[test]
    fn adaptive_suppresses_hw_under_high_concurrency() {
        let cfg = MachineConfig::pm();
        let mut src = DialgaSource::new(layout(28, 4, 1024), CostModel::default(), 16, &cfg);
        assert!(src.knobs().shuffle, "initial policy at 16 threads shuffles");
        assert!(src.inner.xpline_expand(), "and runs 256 B tasks");
        let r = run_source(&cfg, 16, &mut src);
        assert_eq!(r.counters.hw_prefetches, 0, "shuffle must silence HW PF");
    }

    /// The adaptive coordinator must take samples during a run.
    #[test]
    fn coordinator_takes_samples_during_run() {
        let cfg = MachineConfig::pm();
        let mut src = DialgaSource::new(layout(12, 4, 1024), CostModel::default(), 1, &cfg);
        src.set_sample_interval(20_000.0);
        let _ = run_source(&cfg, 1, &mut src);
        assert!(
            src.coordinator().unwrap().samples() > 10,
            "too few samples: {}",
            src.coordinator().unwrap().samples()
        );
    }
}
