//! The store blocks: durable put/get through the service's own
//! [`StripeStore`](dialga_store::StripeStore), and timed restarts of the
//! service over a deterministically dirtied image.
//!
//! The store has no cache of its own: every get reads the image. Puts
//! write corpus stripes, so a get is checked against the last put.

use crate::gen::{Corpus, StoreOpGen};
use crate::host::{steady_samples, ClockBracket, ClockScale};
use crate::image::{BufferPool, ImageCounters, ImageCounts};
use crate::setup::{populate, service_config, Sut, BOOT_TIMEOUT};
use crate::spec::{Workload, TORN_SHARDS};
use crate::trace;
use dialga_memsim::PersistMem;
use dialga_service::StripeService;
use dialga_store::{Geometry, PmImage, RecoveryReport, StoreError, StripeStore};
use dialga_testkit::Rng;
use std::sync::Arc;
use std::time::Instant;

/// What one stretch of put/get traffic measured.
#[derive(Default)]
pub struct StoreBlock {
    /// Put latencies per round, microseconds at the reference clock.
    pub put_rounds: Vec<Vec<f64>>,
    /// Get latencies per round, microseconds at the reference clock.
    pub get_rounds: Vec<Vec<f64>>,
    /// Per round: factor from measured time to time at the reference clock.
    pub round_scale: Vec<ClockScale>,
    /// Image tallies accumulated by the puts alone.
    pub put_counts: ImageCounts,
    /// Image tallies accumulated by the gets alone.
    pub get_counts: ImageCounts,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or returned other bytes than the last put.
    pub failed: u64,
}

impl StoreBlock {
    /// Per-round put latencies of the rounds whose clock held steady.
    pub fn steady_puts(&self) -> Vec<Vec<f64>> {
        steady_samples(&self.put_rounds, &self.round_scale)
    }

    /// Per-round get latencies of the rounds whose clock held steady.
    pub fn steady_gets(&self) -> Vec<Vec<f64>> {
        steady_samples(&self.get_rounds, &self.round_scale)
    }

    /// Puts over all rounds.
    pub fn puts(&self) -> usize {
        self.put_rounds.iter().map(Vec::len).sum()
    }

    /// Gets over all rounds.
    pub fn gets(&self) -> usize {
        self.get_rounds.iter().map(Vec::len).sum()
    }
}

/// Run one put/get round, adding to `out`.
pub fn run_round(
    sut: &mut Sut,
    w: &Workload,
    ops: &mut StoreOpGen,
    out: &mut StoreBlock,
    next_op_id: &mut u64,
) {
    {
        let clock = ClockBracket::open();
        let (mut puts, mut gets) = (Vec::new(), Vec::new());
        for _ in 0..w.store_ops_per_round / 10 {
            for op in ops.next_ten() {
                let op_id = *next_op_id;
                *next_op_id += 1;
                let _root = trace::root("op", op_id);
                let before = sut.image.snapshot();
                out.attempted += 1;
                if op.put {
                    let refs = sut.corpus.data_refs(op.payload);
                    let t = Instant::now();
                    let result = {
                        let _span = trace::scoped("store.put");
                        sut.svc
                            .with_store_mut(|store| store.write_stripe(op.stripe, &refs))
                    };
                    puts.push(t.elapsed().as_nanos() as f64 / 1e3);
                    out.put_counts.add(&sut.image.snapshot().since(&before));
                    if matches!(result, Some(Ok(()))) {
                        sut.held[op.stripe] = op.payload;
                    } else {
                        out.failed += 1;
                    }
                } else {
                    let t = Instant::now();
                    let result = {
                        let _span = trace::scoped("store.get");
                        sut.svc.with_store_mut(|store| store.read_stripe(op.stripe))
                    };
                    gets.push(t.elapsed().as_nanos() as f64 / 1e3);
                    out.get_counts.add(&sut.image.snapshot().since(&before));
                    let _span = trace::scoped("gen.verify");
                    let ok = matches!(&result, Some(Ok(data)) if *data == sut.corpus.data[sut.held[op.stripe]]);
                    out.failed += u64::from(!ok);
                }
            }
        }
        let scale = clock.close();
        out.put_rounds
            .push(puts.iter().map(|us| us * scale.factor).collect());
        out.get_rounds
            .push(gets.iter().map(|us| us * scale.factor).collect());
        out.round_scale.push(scale);
    }
}

/// One verified put and get on store stripe 0 (part of set-up).
pub fn verified_put_and_get(sut: &mut Sut) -> Result<(), String> {
    let payload = sut.corpus.data.len() - 1;
    let refs = sut.corpus.data_refs(payload);
    let got = sut
        .svc
        .with_store_mut(|store| -> Result<Vec<Vec<u8>>, StoreError> {
            store.write_stripe(0, &refs)?;
            store.read_stripe(0)
        })
        .ok_or("service has no store")?
        .map_err(|e| format!("set-up put/get: {e}"))?;
    if got != sut.corpus.data[payload] {
        return Err("set-up get did not return the last put".into());
    }
    sut.held[0] = payload;
    Ok(())
}

/// Image bytes per user byte held: the whole image over `k * shard_len`
/// for every committed stripe. Exact.
pub fn stored_bytes_per_user_byte(sut: &Sut) -> Option<f64> {
    sut.svc.with_store_mut(|store| {
        let geo = store.geometry();
        let committed = (0..geo.stripes)
            .filter(|&s| store.committed_seq(s) > 0)
            .count();
        store.image().len() as f64 / (committed * geo.k * geo.shard_len) as f64
    })
}

/// A store image with known damage, and what recovery must find.
pub struct DirtyImage {
    bytes: Vec<u8>,
    geo: Geometry,
    /// The stripe whose overwrite lost power between the slot persist and
    /// the commit word, and the corpus stripe that overwrite carried.
    rolled_forward: (usize, usize),
    /// Torn `(stripe, shard)` pairs, ascending by stripe.
    torn: Vec<(usize, usize)>,
}

/// Find a tearing seed whose first draw drops a flushed-but-unfenced
/// line, by asking a one-line [`PersistMem`]: the draw depends on the
/// seed alone.
fn seed_that_tears() -> Result<u64, String> {
    for seed in 0..64 {
        let mut probe = PersistMem::with_seed(256, seed);
        probe.store(0, &[0xFF; 8]).map_err(|e| e.to_string())?;
        probe.arm_crash(0);
        if probe.persist(0, 8).is_ok() {
            return Err("armed crash did not fire".into());
        }
        if probe.durable_image()[..8] == [0; 8] {
            return Ok(seed);
        }
    }
    Err("no tearing seed among 64".into())
}

impl DirtyImage {
    /// Dirty a freshly populated image: overwrite one stripe on a
    /// [`PersistMem`] armed to lose power between the slot persist and the
    /// commit word (the commit line tears away, so recovery must roll the
    /// write forward), then tear one cacheline in each of
    /// [`TORN_SHARDS`] other stripes' active slots.
    pub fn build(
        w: &Workload,
        corpus: &Corpus,
        seed: u64,
        pool: &BufferPool,
    ) -> Result<DirtyImage, String> {
        let store = populate(w, corpus, pool, Arc::new(ImageCounters::default()))?;
        let geo = store.geometry();
        let mut clean = vec![0u8; geo.image_len()];
        store
            .image()
            .read(0, &mut clean)
            .map_err(|e| e.to_string())?;
        drop(store);

        let mut rng = Rng::new(seed ^ 0x00D1_247E);
        let mut stripes: Vec<usize> = (0..w.store_stripes).collect();
        rng.shuffle(&mut stripes);
        let victim = stripes[0];
        let new_payload = (victim + 1 + rng.range(0, w.corpus_stripes - 1)) % w.corpus_stripes;

        let word = geo.commit_word_off(victim) as usize;
        let old_word = clean[word..word + 8].to_vec();
        let mem = PersistMem::from_bytes(clean, seed_that_tears()?);
        let mut store = StripeStore::open(mem).map_err(|e| format!("open for dirtying: {e}"))?;
        store.image_mut().arm_crash(1);
        match store.write_stripe(victim, &corpus.data_refs(new_payload)) {
            Err(StoreError::Crashed) => {}
            other => return Err(format!("armed overwrite returned {other:?}")),
        }
        let mut bytes = store.into_image().durable_image().to_vec();
        bytes.truncate(geo.image_len());
        if bytes[word..word + 8] != old_word[..] {
            return Err("the commit word survived the crash: nothing to roll forward".into());
        }

        // Which stripes tear and where in the shard come from the seed; which
        // shard of the stripe does not: the boot scrub's search for a torn
        // shard costs more the later the shard comes (and a parity shard is
        // found without searching), so the j-th torn stripe always loses
        // shard j * (k + m) / TORN_SHARDS and every seed recovers the same
        // amount of work.
        let mut torn: Vec<(usize, usize)> = stripes[1..=TORN_SHARDS]
            .iter()
            .enumerate()
            .map(|(j, &stripe)| (stripe, j * (w.k + w.m) / TORN_SHARDS))
            .collect();
        torn.sort_unstable();
        for &(stripe, shard) in &torn {
            let line = rng.range(0, w.block / 64) * 64;
            let off = geo.shard_off(stripe, 0, shard) as usize + line;
            for b in &mut bytes[off..off + 64] {
                *b ^= 0xA5;
            }
        }
        Ok(DirtyImage {
            bytes,
            geo,
            rolled_forward: (victim, new_payload),
            torn,
        })
    }

    /// Does `report` account for exactly the injected damage?
    fn report_matches(&self, report: &RecoveryReport) -> bool {
        let repaired: Vec<(usize, Vec<usize>)> =
            self.torn.iter().map(|&(s, i)| (s, vec![i])).collect();
        report.stripes == self.geo.stripes
            && report.committed == self.geo.stripes
            && report.rolled_forward == 1
            && report.rolled_back == 0
            && report.shards_repaired == self.torn.len()
            && report.repaired == repaired
            && report.corrupt.is_empty()
    }
}

/// One timed restart over the dirty image.
pub struct Boot {
    /// `with_store` -> first admitted op, milliseconds at the reference clock.
    pub recover_ms: f64,
    /// The clock over the boot.
    pub scale: ClockScale,
    /// What recovery reported.
    pub report: RecoveryReport,
    /// Did the report and the recovered contents match the injected damage?
    pub ok: bool,
}

/// Boot a service over a clone of `dirty` and time it to the first
/// admitted op; then check the report and the damaged stripes' contents.
pub fn boot_dirty(
    w: &Workload,
    corpus: &Corpus,
    dirty: &DirtyImage,
    pool: &BufferPool,
) -> Result<Boot, String> {
    let image = pool.copy_of(&dirty.bytes, Arc::new(ImageCounters::default()));
    let probe = corpus.data[0].clone();
    let clock = ClockBracket::open();
    let t0 = Instant::now();
    let svc = StripeService::with_store(service_config(w), Box::new(image))
        .map_err(|e| format!("service build: {e}"))?;
    if !svc.wait_recovered(BOOT_TIMEOUT) {
        return Err("dirty boot did not leave recovery".into());
    }
    let ticket = svc.submit_encode(0, probe, None);
    let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
    let scale = clock.close();
    let recover_ms = raw_ms * scale.factor;

    let admitted = matches!(ticket.map(|t| t.wait()), Ok(Ok(parity)) if parity == corpus.parity[0]);
    let report = svc
        .recovery_report()
        .ok_or_else(|| format!("dirty boot failed: {:?}", svc.recovery_error()))?;
    let contents_ok = svc
        .with_store_mut(|store| {
            let holds = |stripe: usize, payload: usize| {
                matches!(store.read_stripe(stripe), Ok(d) if d == corpus.data[payload])
            };
            holds(dirty.rolled_forward.0, dirty.rolled_forward.1)
                && dirty
                    .torn
                    .iter()
                    .all(|&(stripe, _)| holds(stripe, stripe % w.corpus_stripes))
        })
        .unwrap_or(false);
    let ok = admitted && contents_ok && dirty.report_matches(&report);
    Ok(Boot {
        recover_ms,
        scale,
        report,
        ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Corpus;
    use crate::spec::{SimPoint, Workload};
    use dialga::Dialga;

    const TINY: Workload = Workload {
        name: "tiny",
        why: "test shape",
        k: 4,
        m: 2,
        block: 256,
        corpus_stripes: 5,
        store_stripes: 24,
        window: 1,
        tenants: 1,
        groups_per_round: 1,
        store_ops_per_round: 10,
        sim_points: &[SimPoint {
            label: "tiny",
            k: 4,
            m: 2,
            block: 256,
            threads: 1,
        }],
    };

    /// The dirty image carries exactly the damage a boot is checked
    /// against: one write to roll forward, eight torn shards to repair.
    #[test]
    fn a_dirty_boot_reports_the_injected_damage_and_serves_the_right_bytes() {
        let coder = Dialga::new(TINY.k, TINY.m).unwrap();
        let pool = BufferPool::default();
        for seed in [1, 2, 3] {
            let corpus = Corpus::generate(&TINY, seed, &coder).unwrap();
            let dirty = DirtyImage::build(&TINY, &corpus, seed, &pool).unwrap();
            assert_eq!(dirty.torn.len(), TORN_SHARDS);
            assert!(dirty.torn.iter().all(|&(s, _)| s != dirty.rolled_forward.0));
            let boot = boot_dirty(&TINY, &corpus, &dirty, &pool).unwrap();
            assert!(boot.ok, "{:?}", boot.report);
            assert_eq!(boot.report.rolled_forward, 1);
            assert_eq!(boot.report.shards_repaired, TORN_SHARDS);
            assert!(boot.recover_ms > 0.0);
        }
    }

    #[test]
    fn a_clean_image_is_not_mistaken_for_the_dirty_one() {
        let coder = Dialga::new(TINY.k, TINY.m).unwrap();
        let pool = BufferPool::default();
        let corpus = Corpus::generate(&TINY, 1, &coder).unwrap();
        let mut dirty = DirtyImage::build(&TINY, &corpus, 1, &pool).unwrap();
        // Boot a clean image against the dirty image's expectations.
        let store = populate(&TINY, &corpus, &pool, Arc::default()).unwrap();
        store.image().read(0, &mut dirty.bytes).unwrap();
        drop(store);
        let boot = boot_dirty(&TINY, &corpus, &dirty, &pool).unwrap();
        assert!(!boot.ok);
    }
}
