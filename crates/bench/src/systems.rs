//! Systems under test: constructors that map each library the paper
//! compares (§5.1) onto a simulated task source.
//!
//! * **ISA-L** — table-driven dot-product pattern, HW prefetcher on.
//! * **ISA-L-noPF** — same with the BIOS-level prefetcher switch off.
//! * **ISA-L-D** — ISA-L with wide stripes decomposed into sub-stripes of
//!   24 (the same size Cerasure uses, §5.1).
//! * **Zerasure** — annealed-bitmatrix XOR code. Reported only for
//!   k ≤ 32: the paper notes its search does not converge for wide
//!   stripes ("some missing results", §5.2.1) — we reproduce the gap.
//! * **Cerasure** — greedy-bitmatrix XOR code; for wide stripes it
//!   decomposes into 24-wide sub-stripes (approximated by the decompose
//!   pattern with XOR-derived compute costs — see DESIGN.md).
//! * **DIALGA** — the adaptive scheduler (or a pinned Fig. 18 variant).

use dialga::source::{DialgaSource, Variant};
use dialga_ec::xor::{XorCode, XorFlavor};
use dialga_memsim::{MachineConfig, RunReport};
use dialga_pipeline::cost::{CostModel, Simd};
use dialga_pipeline::decomp::DecomposeSource;
use dialga_pipeline::isal::{IsalSource, Knobs};
use dialga_pipeline::layout::StripeLayout;
use dialga_pipeline::lrc_pat::LrcSource;
use dialga_pipeline::runner::run_source;
use dialga_pipeline::xorpat::XorSource;
use std::collections::HashMap;
use std::sync::Mutex;

/// Decomposition sub-stripe width (the size Cerasure uses; §5.1).
pub const SUB_K: usize = 24;
/// Coordinator sampling interval used by figure runs (short enough that
/// multi-millisecond simulations adapt within the run).
pub const FIG_SAMPLE_NS: f64 = 50_000.0;

/// One workload point.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Data blocks per stripe.
    pub k: usize,
    /// Parity blocks per stripe.
    pub m: usize,
    /// Block size in bytes.
    pub block: u64,
    /// Concurrent encoding threads.
    pub threads: usize,
    /// Data footprint per thread.
    pub bytes_per_thread: u64,
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// Vector instruction set.
    pub simd: Simd,
}

impl Spec {
    /// Default-testbed spec.
    pub fn new(k: usize, m: usize, block: u64, threads: usize, bytes_per_thread: u64) -> Spec {
        Spec {
            k,
            m,
            block,
            threads,
            bytes_per_thread,
            cfg: MachineConfig::pm(),
            simd: Simd::Avx512,
        }
    }

    fn layout(&self) -> StripeLayout {
        StripeLayout::sized_for(self.k, self.m, self.block, self.bytes_per_thread)
    }

    fn cost(&self) -> CostModel {
        CostModel::new(self.simd)
    }
}

/// The compared systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Zerasure-like annealed XOR code (k ≤ 32 only).
    Zerasure,
    /// Cerasure-like greedy XOR code (+ decompose for wide stripes).
    Cerasure,
    /// Plain ISA-L.
    Isal,
    /// ISA-L with the hardware prefetcher disabled machine-wide.
    IsalNoPf,
    /// ISA-L with decompose.
    IsalD,
    /// DIALGA (adaptive).
    Dialga,
    /// A pinned DIALGA breakdown variant (Fig. 18).
    DialgaVariant(Variant),
}

impl System {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            System::Zerasure => "Zerasure",
            System::Cerasure => "Cerasure",
            System::Isal => "ISA-L",
            System::IsalNoPf => "ISA-L-noPF",
            System::IsalD => "ISA-L-D",
            System::Dialga => "DIALGA",
            System::DialgaVariant(Variant::Vanilla) => "Vanilla",
            System::DialgaVariant(Variant::Sw) => "+SW",
            System::DialgaVariant(Variant::SwHw) => "+HW",
            System::DialgaVariant(Variant::SwHwBf) => "+BF",
            System::DialgaVariant(Variant::Adaptive) => "DIALGA",
        }
    }
}

/// XOR codes are expensive to construct (matrix search + scheduling);
/// cache them per (k, m, flavor).
fn xor_code(k: usize, m: usize, flavor: XorFlavor) -> XorCode {
    type CodeCache = HashMap<(usize, usize, XorFlavor), XorCode>;
    static CACHE: Mutex<Option<CodeCache>> = Mutex::new(None);
    let mut guard = CACHE.lock().unwrap();
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry((k, m, flavor))
        .or_insert_with(|| XorCode::new(k, m, flavor).expect("valid geometry"))
        .clone()
}

/// Compute-cost model for a decomposed XOR encode: derive the per-source
/// per-parity cycle cost from the narrow sub-code's real schedule so the
/// decompose pattern carries Cerasure's (higher, XOR-schedule) compute.
fn xor_decomposed_cost(sub: &XorCode, block: u64, simd: Simd) -> CostModel {
    let mut cost = CostModel::new(simd);
    let packet_lines = (block / 8).div_ceil(64).max(1) as f64;
    let rows = (block / 64) as f64;
    let cycles_per_row =
        sub.schedule().op_count() as f64 * (packet_lines * cost.xor_cycles + 1.0) / rows;
    let (k, m) = (sub.params().k, sub.params().m);
    cost.gf_mad_cycles = cycles_per_row / (k as f64 * m as f64);
    cost
}

/// Run an encode workload; `None` when the system has no result at this
/// point (Zerasure on wide stripes).
pub fn encode_report(system: System, spec: &Spec) -> Option<RunReport> {
    let layout = spec.layout();
    let cost = spec.cost();
    match system {
        System::Isal => {
            let mut src = IsalSource::new(layout, cost, Knobs::default(), spec.threads);
            Some(run_source(&spec.cfg, spec.threads, &mut src))
        }
        System::IsalNoPf => {
            let mut cfg = spec.cfg.clone();
            cfg.prefetcher.enabled = false;
            let mut src = IsalSource::new(layout, cost, Knobs::default(), spec.threads);
            Some(run_source(&cfg, spec.threads, &mut src))
        }
        System::IsalD => {
            let sub_k = SUB_K.min(spec.k);
            let mut src = DecomposeSource::new(layout, cost, sub_k, spec.threads);
            Some(run_source(&spec.cfg, spec.threads, &mut src))
        }
        System::Zerasure => {
            if spec.k > 32 {
                return None; // search does not converge (paper §5.2.1)
            }
            // Zerasure and Cerasure only support AVX256 (§5.1).
            let cost = CostModel::new(Simd::Avx256);
            let code = xor_code(spec.k, spec.m, XorFlavor::Zerasure);
            let mut src = XorSource::new(layout, cost, code.schedule().clone(), spec.threads);
            Some(run_source(&spec.cfg, spec.threads, &mut src))
        }
        System::Cerasure => {
            if spec.k <= 32 {
                let cost = CostModel::new(Simd::Avx256);
                let code = xor_code(spec.k, spec.m, XorFlavor::Cerasure);
                let mut src = XorSource::new(layout, cost, code.schedule().clone(), spec.threads);
                Some(run_source(&spec.cfg, spec.threads, &mut src))
            } else {
                // Wide stripe: decompose into SUB_K-wide XOR sub-encodes.
                let sub = xor_code(SUB_K, spec.m, XorFlavor::Cerasure);
                let cost = xor_decomposed_cost(&sub, spec.block, Simd::Avx256);
                let mut src = DecomposeSource::new(layout, cost, SUB_K, spec.threads);
                Some(run_source(&spec.cfg, spec.threads, &mut src))
            }
        }
        System::Dialga => {
            let mut src = DialgaSource::new(layout, cost, spec.threads, &spec.cfg);
            src.set_sample_interval(FIG_SAMPLE_NS);
            Some(run_source(&spec.cfg, spec.threads, &mut src))
        }
        System::DialgaVariant(v) => {
            let mut src = DialgaSource::with_variant(layout, cost, spec.threads, &spec.cfg, v);
            src.set_sample_interval(FIG_SAMPLE_NS);
            Some(run_source(&spec.cfg, spec.threads, &mut src))
        }
    }
}

/// Run a decode workload repairing `lost` data blocks per stripe.
/// Survivors are the remaining data blocks plus the first parities; the
/// memory pattern reads k blocks and writes `lost` (§4.1: decode shares the
/// encode load pattern).
pub fn decode_report(system: System, spec: &Spec, lost: usize) -> Option<RunReport> {
    assert!(lost >= 1 && lost <= spec.m, "lost out of range");
    let layout = StripeLayout::sized_for(spec.k, lost, spec.block, spec.bytes_per_thread);
    let cost = spec.cost();
    // Decode compute: k sources into `lost` outputs.
    match system {
        System::Isal | System::IsalNoPf | System::IsalD => {
            let mut cfg = spec.cfg.clone();
            if system == System::IsalNoPf {
                cfg.prefetcher.enabled = false;
            }
            let mut src = IsalSource::new(layout, cost, Knobs::default(), spec.threads);
            Some(run_source(&cfg, spec.threads, &mut src))
        }
        System::Zerasure | System::Cerasure => {
            if system == System::Zerasure && spec.k > 32 {
                return None;
            }
            let flavor = if system == System::Zerasure {
                XorFlavor::Zerasure
            } else {
                XorFlavor::Cerasure
            };
            let cost = CostModel::new(Simd::Avx256); // XOR libraries are AVX256-only
            let code = xor_code(spec.k, spec.m, flavor);
            // Lose the first `lost` data blocks; survive on the rest plus
            // parity. The decode schedule is dense — the §5.4 effect.
            let lost_ids: Vec<usize> = (0..lost).collect();
            let survivors: Vec<usize> = (lost..spec.k + lost).collect();
            let schedule = code
                .decode_schedule(&survivors, &lost_ids)
                .expect("decodable");
            let mut src = XorSource::new(layout, cost, schedule, spec.threads);
            Some(run_source(&spec.cfg, spec.threads, &mut src))
        }
        System::Dialga | System::DialgaVariant(_) => {
            let mut src = DialgaSource::new(layout, cost, spec.threads, &spec.cfg);
            src.set_sample_interval(FIG_SAMPLE_NS);
            Some(run_source(&spec.cfg, spec.threads, &mut src))
        }
    }
}

/// Run an LRC(k, m, l) encode (Fig. 16). DIALGA applies its pipelined
/// software prefetching to the LRC pattern; the baselines run it plain.
pub fn lrc_report(system: System, spec: &Spec, l: usize) -> Option<RunReport> {
    let layout = StripeLayout::sized_for(spec.k, spec.m + l, spec.block, spec.bytes_per_thread);
    let cost = spec.cost();
    let sw_distance = match system {
        System::Dialga => Some(spec.k as u32),
        System::Isal | System::IsalNoPf => None,
        _ => return None,
    };
    let mut cfg = spec.cfg.clone();
    if system == System::IsalNoPf {
        cfg.prefetcher.enabled = false;
    }
    let mut src = LrcSource::new(layout, cost, spec.m, l, sw_distance, spec.threads);
    Some(run_source(&cfg, spec.threads, &mut src))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(k: usize, m: usize) -> Spec {
        Spec::new(k, m, 1024, 1, 1 << 20)
    }

    #[test]
    fn all_systems_produce_reports_on_narrow_stripes() {
        for sys in [
            System::Zerasure,
            System::Cerasure,
            System::Isal,
            System::IsalNoPf,
            System::IsalD,
            System::Dialga,
        ] {
            let r = encode_report(sys, &spec(8, 4)).expect("narrow stripe result");
            assert!(r.throughput_gbs() > 0.0, "{sys:?}");
        }
    }

    #[test]
    fn zerasure_has_no_wide_stripe_result() {
        assert!(encode_report(System::Zerasure, &spec(48, 4)).is_none());
        assert!(encode_report(System::Cerasure, &spec(48, 4)).is_some());
    }

    #[test]
    fn dialga_beats_isal_at_default_point() {
        let d = encode_report(System::Dialga, &spec(12, 4)).unwrap();
        let i = encode_report(System::Isal, &spec(12, 4)).unwrap();
        assert!(
            d.throughput_gbs() > i.throughput_gbs(),
            "DIALGA {:.2} vs ISA-L {:.2}",
            d.throughput_gbs(),
            i.throughput_gbs()
        );
    }

    #[test]
    fn decode_reports_exist() {
        for sys in [System::Cerasure, System::Isal, System::Dialga] {
            let r = decode_report(sys, &spec(8, 4), 2).expect("decode result");
            assert!(r.throughput_gbs() > 0.0, "{sys:?}");
        }
    }

    #[test]
    fn lrc_reports_exist_for_supported_systems() {
        let s = spec(12, 4);
        assert!(lrc_report(System::Isal, &s, 2).is_some());
        assert!(lrc_report(System::Dialga, &s, 2).is_some());
        assert!(lrc_report(System::Cerasure, &s, 2).is_none());
    }
}
