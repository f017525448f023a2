//! Wide-stripe tuning: sweep the stripe width k (VAST-style wide stripes
//! motivate the paper) and watch the hardware prefetcher collapse past its
//! stream-table capacity while DIALGA's pipelined software prefetch keeps
//! scaling. Also shows the hill-climbed prefetch distance per point.
//!
//! ```sh
//! cargo run --release --example wide_stripe_tuning
//! ```

use dialga_repro::memsim::MachineConfig;
use dialga_repro::pipeline::cost::CostModel;
use dialga_repro::pipeline::isal::{IsalSource, Knobs};
use dialga_repro::pipeline::layout::StripeLayout;
use dialga_repro::pipeline::run_source;
use dialga_repro::scheduler::DialgaSource;

fn main() {
    let cfg = MachineConfig::pm();
    let (m, block, bytes) = (4usize, 1024u64, 4u64 << 20);
    println!("machine: {}", cfg.digest());
    println!(
        "{:>4}  {:>10} {:>12} {:>8}  {:>10} {:>8}",
        "k", "ISA-L GB/s", "DIALGA GB/s", "gain", "hw pf/MiB", "final d"
    );
    for k in [8usize, 16, 24, 32, 40, 48, 56, 64] {
        let layout = StripeLayout::sized_for(k, m, block, bytes);
        let cost = CostModel::default();

        let mut isal = IsalSource::new(layout, cost, Knobs::default(), 1);
        let r_isal = run_source(&cfg, 1, &mut isal);

        let mut dialga = DialgaSource::new(layout, cost, 1, &cfg);
        dialga.set_sample_interval(50_000.0);
        let r_dialga = run_source(&cfg, 1, &mut dialga);

        let mib = (r_isal.data_bytes as f64 / (1 << 20) as f64).max(1.0);
        println!(
            "{:>4}  {:>10.2} {:>12.2} {:>7.0}%  {:>10.0} {:>8}",
            k,
            r_isal.throughput_gbs(),
            r_dialga.throughput_gbs(),
            100.0 * (r_dialga.throughput_gbs() / r_isal.throughput_gbs() - 1.0),
            r_isal.counters.hw_prefetches as f64 / mib,
            dialga.knobs().d.map_or("-".to_string(), |d| d.to_string()),
        );
    }
    println!();
    println!(
        "the ISA-L hw-prefetch column collapses past k = {} (stream-table capacity);",
        cfg.prefetcher.streams
    );
    println!("DIALGA's software prefetch distance adapts with k and keeps wide stripes fast.");
}
