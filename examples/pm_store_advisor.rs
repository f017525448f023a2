//! PM store advisor: given a stripe geometry, block size, and expected
//! concurrency for a PM-resident store (e.g. a persistent KV cache that
//! erasure-codes its segments), run the simulated testbed and report which
//! encoding strategy to deploy and what DIALGA's coordinator would do.
//!
//! ```sh
//! cargo run --release --example pm_store_advisor -- 28 4 1024 8
//! ```
//! (arguments: k m block_bytes threads — all optional)

use dialga_repro::memsim::MachineConfig;
use dialga_repro::pipeline::cost::CostModel;
use dialga_repro::pipeline::isal::{IsalSource, Knobs};
use dialga_repro::pipeline::layout::StripeLayout;
use dialga_repro::pipeline::run_source;
use dialga_repro::scheduler::coordinator::Coordinator;
use dialga_repro::scheduler::DialgaSource;

fn main() {
    let mut args = std::env::args().skip(1);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(28);
    let m: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let block: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let cfg = MachineConfig::pm();
    println!(
        "workload: RS({},{k}) {block}B blocks, {threads} writer thread(s)",
        k + m
    );
    println!("machine:  {}", cfg.digest());
    println!();

    // What the coordinator decides statically for this pattern (§4.1).
    let coord = Coordinator::new(k, threads, &cfg);
    let policy = coord.policy();
    println!("DIALGA initial policy:");
    println!(
        "  hardware prefetcher : {}",
        if policy.hw_suppressed {
            "suppressed (shuffle mapping)"
        } else {
            "on"
        }
    );
    println!("  software prefetch d : {:?}", policy.knobs.d);
    println!("  XPLine-first dist.  : {:?}", policy.knobs.d_long);
    println!("  256B task expansion : {}", coord.xpline_expand());
    println!("  Eq.(1) max distance : {}", coord.d_max());
    println!();

    // Measure plain ISA-L, ISA-L without prefetching, and DIALGA.
    let bytes = 4 << 20;
    let layout = StripeLayout::sized_for(k, m, block, bytes);
    let cost = CostModel::default();

    let mut isal = IsalSource::new(layout, cost, Knobs::default(), threads);
    let r_isal = run_source(&cfg, threads, &mut isal);

    let mut nopf_cfg = cfg.clone();
    nopf_cfg.prefetcher.enabled = false;
    let mut isal_nopf = IsalSource::new(layout, cost, Knobs::default(), threads);
    let r_nopf = run_source(&nopf_cfg, threads, &mut isal_nopf);

    let mut dialga = DialgaSource::new(layout, cost, threads, &cfg);
    dialga.set_sample_interval(50_000.0);
    let r_dialga = run_source(&cfg, threads, &mut dialga);

    println!("simulated encode throughput:");
    println!(
        "  ISA-L                : {:6.2} GB/s (media amp {:.2}x)",
        r_isal.throughput_gbs(),
        r_isal.counters.media_read_amplification()
    );
    println!(
        "  ISA-L, prefetcher off: {:6.2} GB/s (media amp {:.2}x)",
        r_nopf.throughput_gbs(),
        r_nopf.counters.media_read_amplification()
    );
    println!(
        "  DIALGA               : {:6.2} GB/s (media amp {:.2}x)",
        r_dialga.throughput_gbs(),
        r_dialga.counters.media_read_amplification()
    );
    println!();

    if let Some(coord) = dialga.coordinator() {
        let log = coord.policy_log();
        if !log.is_empty() {
            println!(
                "coordinator activity ({} samples, {} policy changes):",
                coord.samples(),
                log.len()
            );
            for (t, p) in log.iter().take(6) {
                println!(
                    "  t={:7.0}us  d={:?} first={:?} shuffle={} contended={}",
                    t / 1000.0,
                    p.knobs.d,
                    p.knobs.d_long,
                    p.knobs.shuffle,
                    p.pressure.contended,
                );
            }
            if log.len() > 6 {
                println!("  ... {} more", log.len() - 6);
            }
            println!();
        }
    }

    let best = r_dialga
        .throughput_gbs()
        .max(r_isal.throughput_gbs())
        .max(r_nopf.throughput_gbs());
    let gain = 100.0 * (r_dialga.throughput_gbs() / r_isal.throughput_gbs() - 1.0);
    if (r_dialga.throughput_gbs() - best).abs() < 1e-9 {
        println!("recommendation: deploy DIALGA ({gain:+.0}% vs plain ISA-L)");
    } else {
        println!("recommendation: plain ISA-L is already optimal for this point");
    }
    if k > cfg.prefetcher.streams {
        println!("note: k = {k} exceeds the {}-stream prefetcher table — the HW prefetcher is self-disabled here, software prefetching is doing the work", cfg.prefetcher.streams);
    }
    if threads > 12 {
        println!("note: {threads} threads exceed the PM read-buffer budget (Eq. 1) — DIALGA is running with suppressed HW prefetch and 256B task expansion");
    }
}
