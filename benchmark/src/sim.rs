//! The simulated plane: adaptive DIALGA against fixed ISA-L on the PM
//! machine model, AVX-512 cost model, 50 us coordinator sample interval
//! (the settings of the paper-figure binaries). Simulated numbers repeat
//! to the bit; only host time is noisy. The model is not validated
//! against hardware, so no error figure is printed.

use crate::host::ClockBracket;
use crate::spec::SimPoint;
use crate::stats::geomean;
use dialga::source::DialgaSource;
use dialga_memsim::{Counters, MachineConfig, RunReport};
use dialga_pipeline::cost::{CostModel, Simd};
use dialga_pipeline::isal::{IsalSource, Knobs};
use dialga_pipeline::layout::StripeLayout;
use dialga_pipeline::runner::run_source;
use std::time::Instant;

/// Coordinator sample interval, simulated nanoseconds.
const SAMPLE_INTERVAL_NS: f64 = 50_000.0;

fn layout(p: &SimPoint) -> StripeLayout {
    StripeLayout::new(p.k, p.m, p.block, p.stripes_per_thread())
}

/// Simulate fixed ISA-L on every point (the baseline; part of set-up).
pub fn run_isal(points: &[SimPoint]) -> Vec<RunReport> {
    let cfg = MachineConfig::pm();
    points
        .iter()
        .map(|p| {
            let cost = CostModel::new(Simd::Avx512);
            let mut src = IsalSource::new(layout(p), cost, Knobs::default(), p.threads);
            run_source(&cfg, p.threads, &mut src)
        })
        .collect()
}

/// One pass of adaptive DIALGA over every point.
pub struct DialgaPass {
    /// Report per point.
    pub reports: Vec<RunReport>,
    /// Coordinator policy changes per point.
    pub policy_changes: Vec<u64>,
    /// Host nanoseconds the pass took, at the reference clock (each point
    /// normalised by its own clock bracket).
    pub host_ns: f64,
}

/// Simulate adaptive DIALGA on every point, timing the host.
pub fn run_dialga(points: &[SimPoint]) -> DialgaPass {
    let cfg = MachineConfig::pm();
    let mut host_ns = 0.0;
    let mut reports = Vec::with_capacity(points.len());
    let mut policy_changes = Vec::with_capacity(points.len());
    for p in points {
        let clock = ClockBracket::open();
        let t0 = Instant::now();
        let cost = CostModel::new(Simd::Avx512);
        let mut src = DialgaSource::new(layout(p), cost, p.threads, &cfg);
        src.set_sample_interval(SAMPLE_INTERVAL_NS);
        reports.push(run_source(&cfg, p.threads, &mut src));
        let point_ns = t0.elapsed().as_nanos() as f64;
        host_ns += point_ns * clock.close().factor;
        policy_changes.push(src.coordinator().map_or(0, |c| c.snapshot().policy_changes));
    }
    DialgaPass {
        reports,
        policy_changes,
        host_ns,
    }
}

/// Are two reports of the same point identical in every simulated number?
pub fn identical(a: &RunReport, b: &RunReport) -> bool {
    a.elapsed_ns.to_bits() == b.elapsed_ns.to_bits()
        && a.data_bytes == b.data_bytes
        && a.threads == b.threads
        && a.counters == b.counters
}

/// The simulated plane's numbers for one run.
pub struct SimBlock {
    /// ISA-L baseline reports (from set-up).
    pub isal: Vec<RunReport>,
    /// DIALGA reports of the first pass (all passes are checked equal).
    pub dialga: Vec<RunReport>,
    /// Policy changes per point.
    pub policy_changes: Vec<u64>,
    /// Simulated loads per host microsecond at the reference clock, per pass.
    pub host_mloads_per_s: Vec<f64>,
    /// Point-passes attempted (passes x points).
    pub attempted: u64,
    /// Point-passes whose simulated numbers differed from the first pass.
    pub failed: u64,
}

impl SimBlock {
    /// An empty block over the baselines `isal`.
    pub fn new(isal: Vec<RunReport>) -> SimBlock {
        SimBlock {
            isal,
            dialga: Vec::new(),
            policy_changes: Vec::new(),
            host_mloads_per_s: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// One more DIALGA pass over `points`, checked against the first.
    pub fn run_pass(&mut self, points: &[SimPoint]) {
        let pass = run_dialga(points);
        let loads: u64 = pass.reports.iter().map(|r| r.counters.loads).sum();
        self.host_mloads_per_s
            .push(loads as f64 / (pass.host_ns / 1e3));
        self.attempted += points.len() as u64;
        if self.dialga.is_empty() {
            self.dialga = pass.reports;
            self.policy_changes = pass.policy_changes;
        } else {
            for (a, b) in self.dialga.iter().zip(&pass.reports) {
                self.failed += u64::from(!identical(a, b));
            }
        }
    }

    /// Geomean simulated GB/s of DIALGA over points accepted by `keep`.
    pub fn gbs(
        reports: &[RunReport],
        points: &[SimPoint],
        keep: impl Fn(&SimPoint) -> bool,
    ) -> f64 {
        let v: Vec<f64> = reports
            .iter()
            .zip(points)
            .filter(|(_, p)| keep(p))
            .map(|(r, _)| r.throughput_gbs())
            .collect();
        if v.is_empty() {
            0.0
        } else {
            geomean(&v)
        }
    }

    /// Geomean DIALGA / ISA-L over all points.
    pub fn speedup(&self) -> f64 {
        let v: Vec<f64> = self
            .dialga
            .iter()
            .zip(&self.isal)
            .map(|(d, i)| d.throughput_gbs() / i.throughput_gbs())
            .collect();
        geomean(&v)
    }

    /// Counters of `reports` summed over all points.
    pub fn pooled(reports: &[RunReport]) -> Counters {
        let mut c = Counters::default();
        for r in reports {
            c.add(&r.counters);
        }
        c
    }
}

/// Demand-stall cycles per load of pooled counters, at the model's clock.
pub fn stall_cycles_per_load(c: &Counters) -> f64 {
    if c.loads == 0 {
        return 0.0;
    }
    c.demand_stall_ns * MachineConfig::pm().freq_ghz / c.loads as f64
}
