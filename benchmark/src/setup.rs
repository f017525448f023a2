//! Set-up of the system under test: what `setup_s` times.
//!
//! One set-up = seeded corpus with reference parity, a formatted and fully
//! populated store image whose shard size is the workload's block size, a
//! [`StripeService`] booted over that image (open + boot scrub), one
//! verified operation of every class, and the fixed ISA-L baseline
//! simulations the simulated speed-up is taken against. Mostly
//! single-threaded CPU-bound work, so it repeats.

use crate::gen::Corpus;
use crate::host::ClockBracket;
use crate::image::{BufferPool, CountingImage, ImageCounters};
use crate::sim;
use crate::spec::Workload;
use dialga::Dialga;
use dialga_memsim::RunReport;
use dialga_service::{ServiceConfig, StripeService};
use dialga_store::{Geometry, StripeStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a boot may take before it counts as failed.
pub const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// The system under test and the references its outputs are checked against.
pub struct Sut {
    /// The service, owning the recovered store.
    pub svc: StripeService,
    /// Tallies of the store image the service owns.
    pub image: Arc<ImageCounters>,
    /// Serial reference coder.
    pub coder: Dialga,
    /// Seeded corpus with reference parity.
    pub corpus: Corpus,
    /// Corpus stripe each store stripe currently holds (get = last put).
    pub held: Vec<usize>,
    /// ISA-L baseline reports, one per simulated point.
    pub isal: Vec<RunReport>,
}

/// Where one set-up's time went, seconds at the reference clock (each
/// phase normalised by its own clock bracket).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Corpus generation + reference parity.
    pub corpus_s: f64,
    /// Format + populate of the store image.
    pub populate_s: f64,
    /// `with_store` -> `wait_recovered`.
    pub boot_s: f64,
    /// `StripeStore::open`'s own clock for that boot.
    pub open_s: f64,
    /// One verified op per class.
    pub verify_s: f64,
    /// ISA-L baseline simulations.
    pub isal_s: f64,
    /// All of it.
    pub total_s: f64,
}

/// Times consecutive phases, each at the reference clock.
struct Phase {
    clock: ClockBracket,
    start: Instant,
}

impl Phase {
    fn start() -> Phase {
        Phase {
            clock: ClockBracket::open(),
            start: Instant::now(),
        }
    }

    /// Seconds since the last lap (or the start), at the reference clock.
    fn lap(&mut self) -> f64 {
        let raw = self.start.elapsed().as_secs_f64();
        let done = std::mem::replace(self, Phase::start());
        raw * done.clock.close().factor
    }
}

/// The service configuration every workload runs: one shard, one worker,
/// so at most two threads are runnable on the 2-vCPU box.
pub fn service_config(w: &Workload) -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        threads_per_shard: 1,
        k: w.k,
        m: w.m,
        block_bytes: w.block as u64,
        ..ServiceConfig::default()
    }
}

/// Format a store over a counting in-memory image and put corpus stripe
/// `i % corpus` into store stripe `i`.
pub fn populate(
    w: &Workload,
    corpus: &Corpus,
    pool: &BufferPool,
    counters: Arc<ImageCounters>,
) -> Result<StripeStore<CountingImage>, String> {
    let geo = Geometry::new(w.k, w.m, w.block, w.store_stripes).map_err(|e| e.to_string())?;
    let image = pool.zeroed(geo.image_len(), counters);
    let mut store = StripeStore::format(image, geo).map_err(|e| format!("format: {e}"))?;
    for stripe in 0..w.store_stripes {
        let refs = corpus.data_refs(stripe % w.corpus_stripes);
        store
            .write_stripe(stripe, &refs)
            .map_err(|e| format!("populate stripe {stripe}: {e}"))?;
    }
    Ok(store)
}

/// Build the system under test for `(w, seed)` and time it.
pub fn build(w: &Workload, seed: u64, pool: &BufferPool) -> Result<(Sut, SetupTimes), String> {
    let mut phase = Phase::start();
    let coder = Dialga::new(w.k, w.m).map_err(|e| e.to_string())?;
    let corpus = Corpus::generate(w, seed, &coder)?;
    let corpus_s = phase.lap();

    let counters = Arc::new(ImageCounters::default());
    let store = populate(w, &corpus, pool, Arc::clone(&counters))?;
    let image = store.into_image();
    let populate_s = phase.lap();

    let svc = StripeService::with_store(service_config(w), Box::new(image))
        .map_err(|e| format!("service build: {e}"))?;
    if !svc.wait_recovered(BOOT_TIMEOUT) {
        return Err("service did not leave recovery".into());
    }
    if let Some(e) = svc.recovery_error() {
        return Err(format!("clean boot failed: {e}"));
    }
    let report = svc.recovery_report().ok_or("no recovery report")?;
    if report.committed != w.store_stripes || report.shards_repaired != 0 {
        return Err(format!("clean boot reported {report:?}"));
    }
    let boot_s = phase.lap();

    let held = (0..w.store_stripes).map(|s| s % w.corpus_stripes).collect();
    let mut sut = Sut {
        svc,
        image: counters,
        coder,
        corpus,
        held,
        isal: Vec::new(),
    };

    crate::svc::verified_op_of_each_class(&sut)?;
    crate::store::verified_put_and_get(&mut sut)?;
    let verify_s = phase.lap();

    sut.isal = sim::run_isal(w.sim_points);
    let isal_s = phase.lap();

    let times = SetupTimes {
        corpus_s,
        populate_s,
        boot_s,
        open_s: report.recovery_ns as f64 / 1e9,
        verify_s,
        isal_s,
        total_s: corpus_s + populate_s + boot_s + verify_s + isal_s,
    };
    Ok((sut, times))
}
