//! The figure registry: every table this repository regenerates, as one
//! function each behind [`FIGURES`].
//!
//! A table function takes the per-thread data footprint in bytes and
//! returns its rows; the column names and the default footprint live in
//! the registry entry. Every table is simulated and repeats to the byte,
//! so its committed form (`results/<name>.csv`) is checked against a
//! fresh run by `figures --check`.

use crate::systems::{decode_report, encode_report, lrc_report, Spec, System, FIG_SAMPLE_NS};
use crate::table::{gbs, pct, Rows};
use dialga_gf::sched::LINES_PER_XPLINE;
use dialga_memsim::{Counters, MachineConfig, RowTask, RunReport, TaskSource};
use dialga_pipeline::cost::{CostModel, Simd};
use dialga_pipeline::isal::{IsalSource, Knobs};
use dialga_pipeline::layout::StripeLayout;
use dialga_pipeline::runner::run_source;
use dialga_pipeline::source::{DialgaSource, Variant};
use dialga_pipeline::update_pat::UpdateSource;

/// One regenerable table.
pub struct Figure {
    /// Table name: the `figures` argument and the CSV stem.
    pub name: &'static str,
    /// Column names (the CSV header line).
    pub header: &'static [&'static str],
    /// Per-thread data footprint the committed numbers were produced at.
    pub default_bytes: u64,
    run: fn(u64) -> Rows,
}

impl Figure {
    /// Regenerate the table at `bytes_per_thread`.
    pub fn rows(&self, bytes_per_thread: u64) -> Rows {
        let rows = (self.run)(bytes_per_thread);
        for row in &rows {
            assert_eq!(row.len(), self.header.len(), "{}: column count", self.name);
        }
        rows
    }
}

/// A registry entry.
const fn table(
    name: &'static str,
    header: &'static [&'static str],
    default_bytes: u64,
    run: fn(u64) -> Rows,
) -> Figure {
    Figure {
        name,
        header,
        default_bytes,
        run,
    }
}

/// Every table, in the order `figures` runs them.
pub static FIGURES: &[Figure] = &[
    table(
        "fig03",
        &[
            "source",
            "prefetcher",
            "throughput_gbs",
            "stall_cyc_per_load",
        ],
        8 << 20,
        fig03,
    ),
    table(
        "fig04",
        &[
            "freq_ghz",
            "pm_avx512",
            "pm_avx256",
            "dram_avx512",
            "dram_avx256",
        ],
        8 << 20,
        fig04,
    ),
    table(
        "fig05",
        &[
            "k",
            "throughput_gbs",
            "useless_pf_ratio",
            "l2_pf_ratio",
            "stream_evictions",
        ],
        8 << 20,
        fig05,
    ),
    table(
        "fig06",
        &[
            "block",
            "pf_on_gbs",
            "pf_off_gbs",
            "media_amp_on",
            "media_amp_off",
        ],
        8 << 20,
        fig06,
    ),
    table(
        "fig07",
        &[
            "threads",
            "pf_on_gbs",
            "pf_off_gbs",
            "amp_on",
            "buffer_hit_on",
        ],
        2 << 20,
        fig07,
    ),
    table(
        "fig10",
        &["k", "Zerasure", "Cerasure", "ISA-L", "ISA-L-D", "DIALGA"],
        4 << 20,
        fig10,
    ),
    table(
        "fig11",
        &[
            "k", "m", "Zerasure", "Cerasure", "ISA-L", "ISA-L-D", "DIALGA",
        ],
        4 << 20,
        fig11,
    ),
    table(
        "fig12",
        &[
            "code",
            "block",
            "Zerasure",
            "Cerasure",
            "ISA-L",
            "ISA-L-noPF",
            "DIALGA",
        ],
        4 << 20,
        fig12,
    ),
    table(
        "fig13",
        &["code", "block", "threads", "ISA-L", "ISA-L-D", "DIALGA"],
        2 << 20,
        fig13,
    ),
    table(
        "fig14",
        &["k", "Zerasure", "Cerasure", "ISA-L", "DIALGA"],
        4 << 20,
        fig14,
    ),
    table(
        "fig15",
        &["code", "simd", "Cerasure", "ISA-L", "DIALGA"],
        4 << 20,
        fig15,
    ),
    table(
        "fig16",
        &["lrc", "ISA-L", "ISA-L-noPF", "DIALGA", "dialga_gain"],
        4 << 20,
        fig16,
    ),
    table(
        "fig17",
        &["code", "ISA-L", "ISA-L-D", "DIALGA"],
        4 << 20,
        fig17,
    ),
    table(
        "fig18",
        &["code", "Vanilla", "+SW", "+HW", "+BF"],
        4 << 20,
        fig18,
    ),
    table(
        "fig19",
        &[
            "threads",
            "system",
            "throughput_gbs",
            "encode_norm",
            "imc_norm",
            "media_norm",
        ],
        2 << 20,
        fig19,
    ),
    table(
        "generality",
        &["device", "code", "ISA-L", "DIALGA", "dialga_gain"],
        4 << 20,
        generality,
    ),
    table(
        "ablation_switch",
        &["mechanism", "throughput_gbs", "media_amp"],
        1 << 20,
        ablation_switch,
    ),
    table(
        "ablation_eq1",
        &[
            "policy",
            "throughput_gbs",
            "media_amp",
            "buffer_evicted_unused",
        ],
        1 << 20,
        ablation_eq1,
    ),
    table(
        "ablation_distance",
        &["d", "throughput_gbs"],
        1 << 20,
        ablation_distance,
    ),
    table(
        "update_path",
        &["k", "m", "plain_gbs", "dialga_sw_gbs", "gain"],
        2 << 20,
        update_path,
    ),
    table(
        "repair_path",
        &["scheme", "reads", "plain_gbs", "dialga_gbs", "gain"],
        4 << 20,
        repair_path,
    ),
];

/// Throughput cell, or `-` where the system has no result at this point.
fn gbs_or_dash(report: Option<RunReport>) -> String {
    report.map_or("-".into(), |r| gbs(r.throughput_gbs()))
}

/// Signed percentage gain of `new` over `base`.
fn gain(new: f64, base: f64) -> String {
    format!("{:+.1}%", 100.0 * (new / base - 1.0))
}

/// `RS(n,k)` label in the paper's notation.
fn rs_label(k: usize, m: usize) -> String {
    format!("RS({},{})", k + m, k)
}

/// An encode run of a system that has a result at every point.
fn encode(system: System, spec: &Spec) -> RunReport {
    encode_report(system, spec).expect("system has a result at every point")
}

/// Figure 3: RS(12,8) encoding throughput and demand-miss stall cycles with
/// different load sources (DRAM vs PM) and the hardware prefetcher on/off.
///
/// Paper shape: DRAM 195–272 % above PM; the prefetcher buys DRAM ~109 %
/// but PM only ~50 %. (Block size: the §3.2 default of 4 KiB; see
/// EXPERIMENTS.md for the "1 KB stripes" reading.)
fn fig03(bytes: u64) -> Rows {
    let mut rows = Rows::new();
    for (label, dram) in [("PM", false), ("DRAM", true)] {
        for (pf_label, sys) in [("on", System::Isal), ("off", System::IsalNoPf)] {
            let mut spec = Spec::new(12, 8, 4096, 1, bytes);
            if dram {
                spec.cfg = MachineConfig::dram();
            }
            let r = encode(sys, &spec);
            rows.push(vec![
                label.into(),
                pf_label.into(),
                gbs(r.throughput_gbs()),
                format!("{:.1}", r.stall_cycles_per_load(spec.cfg.freq_ghz)),
            ]);
        }
    }
    rows
}

/// Figure 4: RS(12,8) encoding throughput vs CPU frequency, on DRAM and PM,
/// under AVX512 and AVX256.
///
/// Paper shape: on PM, gains flatten beyond ~2 GHz (cycles are spent
/// waiting on memory); DRAM keeps improving; the effect is stronger under
/// AVX256.
fn fig04(bytes: u64) -> Rows {
    let mut rows = Rows::new();
    for freq10 in [10u32, 14, 18, 22, 26, 30, 33] {
        let freq = freq10 as f64 / 10.0;
        let mut row = vec![format!("{freq:.1}")];
        for dram in [false, true] {
            for simd in [Simd::Avx512, Simd::Avx256] {
                let mut spec = Spec::new(12, 8, 4096, 1, bytes);
                spec.cfg = if dram {
                    MachineConfig::dram()
                } else {
                    MachineConfig::pm()
                };
                spec.cfg.freq_ghz = freq;
                spec.simd = simd;
                row.push(gbs(encode(System::Isal, &spec).throughput_gbs()));
            }
        }
        rows.push(row);
    }
    rows
}

/// Figure 5: impact of stripe width k on PM encoding (m = 4, 4 KiB blocks):
/// throughput, useless-prefetch ratio, and L2 prefetch ratio.
///
/// Paper shape: throughput climbs with k while the prefetch window grows,
/// peaks near the 32-stream table limit, then collapses for k > 32 where
/// the stream prefetcher loses confidence and shuts off (prefetch ratio
/// drops to ~0).
fn fig05(bytes: u64) -> Rows {
    [4usize, 8, 12, 16, 20, 24, 28, 32, 36, 40, 48, 56, 64]
        .into_iter()
        .map(|k| {
            let r = encode(System::Isal, &Spec::new(k, 4, 4096, 1, bytes));
            vec![
                k.to_string(),
                gbs(r.throughput_gbs()),
                pct(r.counters.useless_prefetch_ratio()),
                pct(r.counters.prefetch_ratio()),
                r.counters.stream_evictions.to_string(),
            ]
        })
        .collect()
}

/// Figure 6: RS(28,24) encoding throughput and PM media read amplification
/// across block sizes, hardware prefetcher on vs off.
///
/// Paper shape: no prefetcher effect (and no amplification) at ≤512 B;
/// speedup plus 23–37 % amplification at 1–3 KiB; best case at 4 KiB with
/// no amplification (page-clamped prefetching); mixed behaviour at 5 KiB.
fn fig06(bytes: u64) -> Rows {
    [256u64, 512, 1024, 2048, 3072, 4096, 5120]
        .into_iter()
        .map(|block| {
            let spec = Spec::new(28, 24, block, 1, bytes);
            let on = encode(System::Isal, &spec);
            let off = encode(System::IsalNoPf, &spec);
            vec![
                block.to_string(),
                gbs(on.throughput_gbs()),
                gbs(off.throughput_gbs()),
                format!("{:.2}", on.counters.media_read_amplification()),
                format!("{:.2}", off.counters.media_read_amplification()),
            ]
        })
        .collect()
}

/// Figure 7: multi-thread scalability of RS(28,24) encoding on PM, hardware
/// prefetcher on vs off.
///
/// Paper shape: with the prefetcher on, throughput plateaus (then declines)
/// around 8–10 threads as aggressive prefetching thrashes the PM read
/// buffer; with it off, scaling continues further at a lower single-thread
/// level.
fn fig07(bytes: u64) -> Rows {
    [1usize, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        .into_iter()
        .map(|threads| {
            let spec = Spec::new(28, 24, 4096, threads, bytes);
            let on = encode(System::Isal, &spec);
            let off = encode(System::IsalNoPf, &spec);
            let c = &on.counters;
            vec![
                threads.to_string(),
                gbs(on.throughput_gbs()),
                gbs(off.throughput_gbs()),
                format!("{:.2}", c.media_read_amplification()),
                format!(
                    "{:.0}%",
                    100.0 * c.buffer_hits as f64 / (c.buffer_hits + c.xpline_fetches).max(1) as f64
                ),
            ]
        })
        .collect()
}

/// The five systems of Figs. 10 and 11, in column order.
const FIVE_SYSTEMS: [System; 5] = [
    System::Zerasure,
    System::Cerasure,
    System::Isal,
    System::IsalD,
    System::Dialga,
];

/// Figure 10: encoding throughput vs number of data blocks k (m = 4, 1 KiB
/// blocks) across the five systems.
///
/// Paper shape: DIALGA best everywhere (+54–102 % narrow, +194–199 % over
/// ISA-L on wide stripes, only ~+22 % at the k = 32 sweet spot); ISA-L
/// collapses past k = 32; decompose (ISA-L-D) recovers part of it and
/// beats Cerasure; Zerasure has no wide-stripe results.
fn fig10(bytes: u64) -> Rows {
    [4usize, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64]
        .into_iter()
        .map(|k| {
            let spec = Spec::new(k, 4, 1024, 1, bytes);
            let mut row = vec![k.to_string()];
            row.extend(FIVE_SYSTEMS.map(|sys| gbs_or_dash(encode_report(sys, &spec))));
            row
        })
        .collect()
}

/// Figure 11: encoding throughput with different numbers of parity blocks
/// (m ∈ {2,3,4}) for narrow, medium, and wide stripes (1 KiB blocks).
///
/// Paper shape: Cerasure degrades faster than ISA-L as m grows (XOR
/// schedule complexity is super-linear in m); DIALGA leads by 20–97 % over
/// the best alternative and stays stable on wide stripes.
fn fig11(bytes: u64) -> Rows {
    let mut rows = Rows::new();
    for k in [12usize, 28, 48] {
        for m in [2usize, 3, 4] {
            let spec = Spec::new(k, m, 1024, 1, bytes);
            let mut row = vec![k.to_string(), m.to_string()];
            row.extend(FIVE_SYSTEMS.map(|sys| gbs_or_dash(encode_report(sys, &spec))));
            rows.push(row);
        }
    }
    rows
}

/// Figure 12: encoding throughput across block sizes for RS(12,8) and
/// RS(28,24), all systems plus ISA-L with the prefetcher off.
///
/// Paper shape: at ≤512 B the prefetcher gives ISA-L nothing and the XOR
/// codes suffer tiny packets; DIALGA leads by 64–180 % at ≤1 KiB; at 4 KiB
/// the hardware prefetcher peaks and DIALGA's edge shrinks; at 5 KiB the
/// gain is 8–26 %.
fn fig12(bytes: u64) -> Rows {
    let systems = [
        System::Zerasure,
        System::Cerasure,
        System::Isal,
        System::IsalNoPf,
        System::Dialga,
    ];
    let mut rows = Rows::new();
    for (k, m) in [(12usize, 8usize), (28, 24)] {
        for block in [256u64, 512, 1024, 2048, 4096, 5120] {
            let spec = Spec::new(k, m, block, 1, bytes);
            let mut row = vec![rs_label(k, m), block.to_string()];
            row.extend(systems.map(|sys| gbs_or_dash(encode_report(sys, &spec))));
            rows.push(row);
        }
    }
    rows
}

/// Figure 13: multi-thread encoding scalability for RS(28,24) at 1 KiB and
/// 4 KiB blocks and RS(52,48) at 1 KiB.
///
/// Paper shape: at RS(28,24)/1 KiB DIALGA scales further than ISA-L and
/// peaks ~50 % higher; at 4 KiB the gap is marginal until ISA-L's
/// high-concurrency degradation (then ~21 %); on the wide stripe DIALGA
/// beats ISA-L by up to ~183 % and the decompose strategy by up to ~140 %.
fn fig13(bytes: u64) -> Rows {
    let mut rows = Rows::new();
    for (k, m, block) in [(28usize, 24usize, 1024u64), (28, 24, 4096), (48, 4, 1024)] {
        for threads in [1usize, 2, 4, 8, 12, 16, 18] {
            let spec = Spec::new(k, m, block, threads, bytes);
            let mut row = vec![rs_label(k, m), block.to_string(), threads.to_string()];
            row.extend(
                [System::Isal, System::IsalD, System::Dialga]
                    .map(|sys| gbs_or_dash(encode_report(sys, &spec))),
            );
            rows.push(row);
        }
    }
    rows
}

/// Figure 14: decoding throughput with different stripe sizes (m = 4,
/// 1 KiB blocks, repairing m lost data blocks).
///
/// Paper shape: XOR-based libraries collapse on decode — their decode
/// bitmatrix is derived by inversion and cannot be optimized like the
/// encode matrix — while table-driven ISA-L and DIALGA are stable;
/// DIALGA decodes 142–341 % above Cerasure and 76–88 % above ISA-L.
fn fig14(bytes: u64) -> Rows {
    let systems = [
        System::Zerasure,
        System::Cerasure,
        System::Isal,
        System::Dialga,
    ];
    [12usize, 20, 28, 48]
        .into_iter()
        .map(|k| {
            let spec = Spec::new(k, 4, 1024, 1, bytes);
            let mut row = vec![k.to_string()];
            row.extend(systems.map(|sys| gbs_or_dash(decode_report(sys, &spec, 4))));
            row
        })
        .collect()
}

/// Figure 15: encoding throughput under AVX512 vs AVX256 (1 KiB blocks).
///
/// Paper shape: dropping to AVX256 costs ISA-L only 12–24 % (it is
/// memory-latency-bound) but DIALGA 25–31 % (its prefetching exposes the
/// compute); DIALGA still leads ISA-L/Cerasure by 37–104 % under AVX256.
/// Zerasure/Cerasure are AVX256-only, so their columns repeat.
fn fig15(bytes: u64) -> Rows {
    let mut rows = Rows::new();
    for (k, m) in [(12usize, 8usize), (28, 24)] {
        for simd in [Simd::Avx512, Simd::Avx256] {
            let mut spec = Spec::new(k, m, 1024, 1, bytes);
            spec.simd = simd;
            let mut row = vec![rs_label(k, m), format!("{simd:?}")];
            row.extend(
                [System::Cerasure, System::Isal, System::Dialga]
                    .map(|sys| gbs_or_dash(encode_report(sys, &spec))),
            );
            rows.push(row);
        }
    }
    rows
}

/// Figure 16: LRC(k, m, l) encoding throughput (1 KiB blocks).
///
/// Paper shape: every system loses throughput relative to RS (the extra
/// local parities add computation and stores); DIALGA gains 24–33 % on
/// non-wide stripes and 35–38 % on wide ones — smaller margins than RS
/// because the store share grows.
fn fig16(bytes: u64) -> Rows {
    [(12usize, 4usize, 2usize), (24, 4, 4), (48, 4, 4)]
        .into_iter()
        .map(|(k, m, l)| {
            let spec = Spec::new(k, m, 1024, 1, bytes);
            let [isal, nopf, dialga] =
                [System::Isal, System::IsalNoPf, System::Dialga].map(|sys| {
                    lrc_report(sys, &spec, l)
                        .expect("LRC pattern is defined for ISA-L and DIALGA")
                        .throughput_gbs()
                });
            vec![
                format!("LRC({k},{m},{l})"),
                gbs(isal),
                gbs(nopf),
                gbs(dialga),
                gain(dialga, isal.max(nopf)),
            ]
        })
        .collect()
}

/// The three codes of Figs. 17 and 18: narrow, medium, wide.
const BREAKDOWN_CODES: [(usize, usize); 3] = [(12, 8), (28, 24), (48, 4)];

/// Figure 17: CPU cache-miss stall cycles per load during encoding (1 KiB
/// blocks), normalized by load count.
///
/// Paper shape: at RS(12,8) ISA-L stalls ~2x DIALGA (mirroring the ~2x
/// throughput gap); at RS(28,24) the prefetcher is already efficient so
/// the gap narrows; at RS(52,48) DIALGA cuts ~35 % of the decompose
/// strategy's cycles (no parity reloading, better prefetch).
fn fig17(bytes: u64) -> Rows {
    BREAKDOWN_CODES
        .into_iter()
        .map(|(k, m)| {
            let spec = Spec::new(k, m, 1024, 1, bytes);
            let mut row = vec![rs_label(k, m)];
            row.extend([System::Isal, System::IsalD, System::Dialga].map(|sys| {
                let r = encode(sys, &spec);
                format!("{:.1}", r.stall_cycles_per_load(spec.cfg.freq_ghz))
            }));
            row
        })
        .collect()
}

/// Figure 18: breakdown of 1 KiB encoding throughput across DIALGA's
/// mechanisms: Vanilla → +SW (pipelined software prefetch) → +HW (managed
/// hardware prefetching) → +BF (buffer-friendly prefetch).
///
/// Paper shape: +SW adds 29–49 %, +HW another 9–16 % (single-thread runs
/// are low-pressure), +BF another 18–29 % — smallest on narrow stripes.
fn fig18(bytes: u64) -> Rows {
    let variants = [
        Variant::Vanilla,
        Variant::Sw,
        Variant::SwHw,
        Variant::SwHwBf,
    ];
    BREAKDOWN_CODES
        .into_iter()
        .map(|(k, m)| {
            let spec = Spec::new(k, m, 1024, 1, bytes);
            let mut row = vec![rs_label(k, m)];
            row.extend(
                variants.map(|v| gbs(encode(System::DialgaVariant(v), &spec).throughput_gbs())),
            );
            row
        })
        .collect()
}

/// Figure 19: read traffic at the encode / memory-controller / PM-media
/// layers for RS(28,24) 1 KiB encoding, under low pressure (1 thread) and
/// high pressure (18 threads), normalized by the demanded bytes.
///
/// Paper shape: at low pressure DIALGA actually reads *more* through the
/// controller (software prefetches train the hardware prefetcher) but is
/// faster; at high pressure ISA-L's media amplification jumps (read-buffer
/// thrashing) while DIALGA suppresses hardware prefetching and expands
/// task granularity, cutting media amplification sharply.
fn fig19(bytes: u64) -> Rows {
    let mut rows = Rows::new();
    for threads in [1usize, 18] {
        for sys in [System::Isal, System::Dialga] {
            let r = encode(sys, &Spec::new(28, 24, 1024, threads, bytes));
            let c = &r.counters;
            let base = c.encode_read_bytes as f64;
            rows.push(vec![
                threads.to_string(),
                sys.label().into(),
                gbs(r.throughput_gbs()),
                format!("{:.2}", 1.0),
                format!("{:.2}", c.imc_read_bytes as f64 / base),
                format!("{:.2}", c.media_read_bytes as f64 / base),
            ]);
        }
    }
    rows
}

/// §6 generality: DIALGA's mechanisms target PM's *general* shape — a
/// buffered, high-latency, large-granularity tier — so they also apply to
/// CMM-H-class CXL devices (DRAM-buffered flash). ISA-L vs DIALGA on the
/// Optane-like testbed, on the CMM-H-like config, and on the 3rd-gen-Xeon
/// (64-stream prefetcher) variant.
fn generality(bytes: u64) -> Rows {
    let devices: [(&str, MachineConfig); 3] = [
        ("Optane", MachineConfig::pm()),
        ("CMM-H", MachineConfig::cmm_h()),
        ("Optane-gen3", MachineConfig::gen3()),
    ];
    let mut rows = Rows::new();
    for (name, cfg) in devices {
        for (k, m) in [(12usize, 4usize), (48, 4)] {
            let mut spec = Spec::new(k, m, 1024, 1, bytes);
            spec.cfg = cfg.clone();
            let isal = encode(System::Isal, &spec).throughput_gbs();
            let dialga = encode(System::Dialga, &spec).throughput_gbs();
            rows.push(vec![
                name.into(),
                rs_label(k, m),
                gbs(isal),
                gbs(dialga),
                gain(dialga, isal),
            ]);
        }
    }
    rows
}

/// The point the three ablations (DESIGN.md §6) share: RS(32,28), 1 KiB
/// blocks on the PM testbed.
const ABLATION_K: usize = 28;

fn ablation_layout(bytes: u64) -> StripeLayout {
    StripeLayout::sized_for(ABLATION_K, 4, 1024, bytes)
}

/// Wraps a source, injecting MSR-style prefetcher toggles every
/// `period` tasks (emulating per-encode-call toggling via msr-tools).
struct MsrToggled {
    inner: IsalSource,
    period: u64,
    count: Vec<u64>,
}

impl TaskSource for MsrToggled {
    fn next_task(&mut self, tid: usize, now: f64, c: &Counters, task: &mut RowTask) -> bool {
        if !self.inner.next_task(tid, now, c, task) {
            return false;
        }
        let n = &mut self.count[tid];
        // Off at the start of each period, back on at its midpoint —
        // the "switch around each coding call" pattern of prior work.
        if (*n).is_multiple_of(self.period) {
            task.toggle_hw_prefetch = Some(false);
        } else if *n % self.period == self.period / 2 {
            task.toggle_hw_prefetch = Some(true);
        }
        *n += 1;
        true
    }
    fn data_bytes(&self) -> u64 {
        self.inner.data_bytes()
    }
}

/// Ablation 1, the switching mechanism: the lightweight shuffle-based
/// hardware-prefetcher control (§4.2) vs MSR-style per-call toggling
/// (privileged mode switches, ~2.5 µs each) vs no control, at 16 threads.
///
/// All three arms run DIALGA's high-pressure kernel (SW prefetch + 256 B
/// expansion); they differ only in how the HW prefetcher is kept out of
/// the way. MSR toggling pays a privileged mode switch per encode call;
/// the shuffle mapping is free; leaving the prefetcher uncontrolled lets
/// it pollute the read buffer.
fn ablation_switch(bytes: u64) -> Rows {
    let cost = CostModel::default();
    let layout = ablation_layout(bytes);
    let threads = 16;
    let hp_knobs = Knobs::distance(ABLATION_K as u32);
    let hp_source = |knobs| IsalSource::new(layout, cost, knobs, threads).with_xpline_expand(true);
    fn row<S: TaskSource>(label: &str, threads: usize, mut src: S) -> Vec<String> {
        let r = run_source(&MachineConfig::pm(), threads, &mut src);
        vec![
            label.into(),
            gbs(r.throughput_gbs()),
            format!("{:.2}", r.counters.media_read_amplification()),
        ]
    }
    // MSR arm: prefetcher held off for the whole call, but each call
    // boundary costs two privileged toggles.
    let steps_per_stripe = (layout.rows_per_block() / LINES_PER_XPLINE) * ABLATION_K as u64;
    let shuffled = Knobs {
        shuffle: true,
        ..hp_knobs
    };
    vec![
        row("none (HW PF uncontrolled)", threads, hp_source(hp_knobs)),
        row(
            "MSR toggle per call",
            threads,
            MsrToggled {
                inner: hp_source(hp_knobs),
                period: steps_per_stripe,
                count: vec![0; threads],
            },
        ),
        row("shuffle mapping (DIALGA)", threads, hp_source(shuffled)),
    ]
}

/// Ablation 2, the Eq. (1) bound on the software prefetch distance vs an
/// unbounded distance.
///
/// At 14 threads the Eq. (1) budget is exhausted; a long prefetch distance
/// multiplies the simultaneously-live XPLines per stream and thrashes the
/// read buffer. (No expansion here — this isolates the distance's buffer
/// footprint.)
fn ablation_eq1(bytes: u64) -> Rows {
    let cfg = MachineConfig::pm();
    let layout = ablation_layout(bytes);
    let k = ABLATION_K as u32;
    let threads = 14;
    [
        ("Eq.1 floor (d=k)", k),
        ("5x over (d=5k)", 5 * k),
        ("13x over (d=13k)", 13 * k),
    ]
    .into_iter()
    .map(|(label, d)| {
        let knobs = Knobs {
            shuffle: true,
            ..Knobs::distance(d)
        };
        let mut src = IsalSource::new(layout, CostModel::default(), knobs, threads);
        let r = run_source(&cfg, threads, &mut src);
        vec![
            label.into(),
            gbs(r.throughput_gbs()),
            format!("{:.2}", r.counters.media_read_amplification()),
            r.counters.buffer_evicted_unused.to_string(),
        ]
    })
    .collect()
}

/// Ablation 3: hill-climbed prefetch distance vs a fixed-d sweep, single
/// thread (at four times the footprint of the other two, so the climber
/// has samples to settle on).
fn ablation_distance(bytes: u64) -> Rows {
    let cfg = MachineConfig::pm();
    let cost = CostModel::default();
    let layout = ablation_layout(bytes * 4);
    let mut rows = Rows::new();
    let mut best_fixed = 0.0f64;
    for d in [4u32, 8, 16, 28, 56, 112, 224] {
        let r = run_source(
            &cfg,
            1,
            &mut IsalSource::new(layout, cost, Knobs::distance(d), 1),
        );
        best_fixed = best_fixed.max(r.throughput_gbs());
        rows.push(vec![format!("fixed {d}"), gbs(r.throughput_gbs())]);
    }
    let mut adaptive = DialgaSource::with_variant(layout, cost, 1, &cfg, Variant::Adaptive);
    adaptive.set_sample_interval(FIG_SAMPLE_NS);
    let r = run_source(&cfg, 1, &mut adaptive);
    rows.push(vec![
        "hill-climbed (DIALGA)".into(),
        gbs(r.throughput_gbs()),
    ]);
    rows.push(vec![
        "adaptive / best-fixed".into(),
        format!("{:.2}x", r.throughput_gbs() / best_fixed),
    ]);
    rows
}

/// Extension experiment: the parity-*update* write path (one block of a
/// stripe changes; all parities are delta-patched in place). This is the
/// workload the TVARAK/Vilamb/CodePM line of work (§7) optimizes with
/// hardware or crash-consistency tricks; here we show DIALGA's load-side
/// scheduling also transfers to it — the update reads m+1 short streams,
/// another bad case for the hardware prefetcher.
fn update_path(bytes: u64) -> Rows {
    let cfg = MachineConfig::pm();
    [(12usize, 2usize), (12, 4), (28, 4), (48, 4)]
        .into_iter()
        .map(|(k, m)| {
            let layout = StripeLayout::sized_for(k, m, 1024, bytes);
            let run = |d: Option<u32>| {
                let mut src = UpdateSource::new(layout, CostModel::default(), d, 1);
                run_source(&cfg, 1, &mut src).throughput_gbs()
            };
            let plain = run(None);
            let dialga = run(Some(2 * (m as u32 + 1)));
            vec![
                k.to_string(),
                m.to_string(),
                gbs(plain),
                gbs(dialga),
                gain(dialga, plain),
            ]
        })
        .collect()
}

/// Extension experiment: degraded reads (single-block repair latency
/// path) on the PM simulator. LRC's selling point is repairing one block
/// from `k/l` local reads instead of `k`; DIALGA's prefetch scheduling
/// applies to both: RS(16,12) full repair vs LRC(12,4,2) local repair
/// (6+1 reads) at 1 KiB, plain vs DIALGA-scheduled.
fn repair_path(bytes: u64) -> Rows {
    let cfg = MachineConfig::pm();
    // Repair one block from `reads` sources (the decode load pattern with
    // a single output stream). Throughput counts repaired bytes, i.e.
    // survivor bytes read / reads.
    let repair = |reads: usize, d: Option<u32>| {
        let layout = StripeLayout::sized_for(reads, 1, 1024, bytes);
        let knobs = Knobs {
            d,
            d_long: d.map(|x| 4 * x),
            shuffle: false,
        };
        let mut src = IsalSource::new(layout, CostModel::default(), knobs, 1);
        let r = run_source(&cfg, 1, &mut src);
        r.data_bytes as f64 / reads as f64 / r.elapsed_ns
    };
    [("RS full decode", 12usize), ("LRC local repair", 7)]
        .into_iter()
        .map(|(label, reads)| {
            let plain = repair(reads, None);
            let dialga = repair(reads, Some(reads as u32));
            vec![
                label.into(),
                reads.to_string(),
                gbs(plain),
                gbs(dialga),
                gain(dialga, plain),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::csv;
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    fn results_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    #[test]
    fn registry_names_are_unique() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len());
    }

    #[test]
    fn every_simulated_table_has_a_committed_csv_with_its_header() {
        for fig in FIGURES {
            let path = results_dir().join(format!("{}.csv", fig.name));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                text.lines().next(),
                Some(csv(fig.header, &[]).trim_end()),
                "{}: header line",
                fig.name
            );
        }
    }

    #[test]
    fn every_committed_csv_has_a_simulated_table() {
        for entry in std::fs::read_dir(results_dir()).expect("results/") {
            let path = entry.expect("dir entry").path();
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8");
            assert!(
                FIGURES.iter().any(|f| f.name == stem),
                "{} has no registry entry",
                path.display()
            );
        }
    }
}
