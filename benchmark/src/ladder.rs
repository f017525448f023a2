//! The layer ladder of the traced pass: the same corpus stripes pushed
//! through each layer below the service in turn — fused GF kernel, serial
//! coder, private encode pools — so each layer's overhead is a subtraction
//! on one artifact. Every call's output is checked against the reference;
//! building arguments and checking results are outside the timed call.

use crate::gen::Corpus;
use crate::host::ClockBracket;
use crate::spec::Workload;
use crate::stats::median;
use dialga::pool::StripeJob;
use dialga::{Dialga, EncodePool};
use dialga_gf::sched::FusedSched;
use dialga_gf::simd::{dot_prod_fused, dot_prod_verify};
use dialga_gf::tables::NibbleTables;
use std::time::Instant;

/// Ladder medians, microseconds at the reference clock.
#[derive(Debug, Default)]
pub struct Ladder {
    /// `dot_prod_fused` on one stripe.
    pub gf_fused_us: f64,
    /// `dot_prod_verify` on one stripe.
    pub gf_verify_us: f64,
    /// `Dialga::encode`.
    pub encode_us: f64,
    /// `Dialga::encode_vec`.
    pub encode_vec_us: f64,
    /// `repair_plan` + `RepairPlan::apply`.
    pub repair_us: f64,
    /// `Dialga::decode_plan`.
    pub decode_plan_us: f64,
    /// `Dialga::decode`.
    pub decode_us: f64,
    /// `Dialga::scrub`.
    pub scrub_us: f64,
    /// 1-worker `EncodePool::encode`.
    pub pool_encode_us: f64,
    /// 2-worker `EncodePool::encode`.
    pub pool_split2_us: f64,
    /// 1-worker `encode_batch` of 8 stripes, per stripe.
    pub pool_batch8_us_per_stripe: f64,
    /// Calls made.
    pub attempted: u64,
    /// Calls whose output differed from the reference.
    pub failed: u64,
}

/// Microseconds `f` took, and its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_nanos() as f64 / 1e3, r)
}

impl Ladder {
    /// Call `f` on every corpus stripe, `passes` times over after one
    /// untimed pass. `f` returns the microseconds of its timed call and
    /// whether the output was correct. Each pass is bracketed by clock
    /// probes like a round. Returns the median, at the reference clock.
    fn rung(
        &mut self,
        stripes: usize,
        passes: usize,
        mut f: impl FnMut(usize) -> (f64, bool),
    ) -> f64 {
        let mut us = Vec::with_capacity(stripes * passes);
        for pass in 0..=passes {
            let clock = ClockBracket::open();
            let first = us.len();
            for s in 0..stripes {
                let (t, ok) = f(s);
                self.attempted += 1;
                self.failed += u64::from(!ok);
                if pass > 0 {
                    us.push(t);
                }
            }
            let scale = clock.close().factor;
            for t in &mut us[first..] {
                *t *= scale;
            }
        }
        median(&us)
    }
}

/// Run the ladder on `corpus`. Passes scale with the stripe size so the
/// whole ladder stays around a second.
pub fn run(w: &Workload, corpus: &Corpus, coder: &Dialga) -> Ladder {
    let (k, m, n) = (w.k, w.m, w.corpus_stripes);
    let passes = ((8usize << 20) / (k * w.block)).clamp(2, 40);
    let d = coder.prefetch_distance();
    let mut ladder = Ladder::default();
    let mut parity = vec![vec![0u8; w.block]; m];

    // gf: the fused kernel alone, tables built through the public
    // NibbleTables from the code's parity matrix (row-major m x k).
    let matrix = coder.inner().parity_matrix();
    let tables: Vec<NibbleTables> = (0..m)
        .flat_map(|r| matrix.row(r).iter().map(|c| NibbleTables::new(c.0)))
        .collect();
    let sched = FusedSched::distance(d);
    ladder.gf_fused_us = ladder.rung(n, passes, |s| {
        let data = corpus.data_refs(s);
        let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        let (us, ()) = timed(|| dot_prod_fused(&tables, &data, &mut outs, sched));
        (us, parity == corpus.parity[s])
    });
    ladder.gf_verify_us = ladder.rung(n, passes, |s| {
        let data = corpus.data_refs(s);
        let expected: Vec<&[u8]> = corpus.parity[s].iter().map(Vec::as_slice).collect();
        let (us, bad) = timed(|| dot_prod_verify(&tables, &data, &expected, sched));
        (us, bad.is_empty())
    });

    // core.encoder: the serial coder.
    ladder.encode_us = ladder.rung(n, passes, |s| {
        let data = corpus.data_refs(s);
        let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        let (us, r) = timed(|| coder.encode(&data, &mut outs));
        (us, r.is_ok() && parity == corpus.parity[s])
    });
    ladder.encode_vec_us = ladder.rung(n, passes, |s| {
        let data = corpus.data_refs(s);
        let (us, r) = timed(|| coder.encode_vec(&data));
        (us, r.is_ok_and(|p| p == corpus.parity[s]))
    });
    let mut rebuilt = vec![0u8; w.block];
    ladder.repair_us = ladder.rung(n, passes, |s| {
        let target = s % k;
        let survivors: Vec<usize> = (0..k + m).filter(|&i| i != target).take(k).collect();
        let (us, r) = timed(|| {
            let plan = coder.repair_plan(&survivors, target)?;
            let sources: Vec<&[u8]> = plan
                .survivors()
                .iter()
                .map(|&i| corpus.shard(s, i))
                .collect();
            plan.apply(&sources, &mut rebuilt, d, false)
        });
        (us, r.is_ok() && rebuilt == corpus.shard(s, target))
    });
    let holed = |s: usize| -> Vec<Option<Vec<u8>>> {
        let mut shards: Vec<Option<Vec<u8>>> = corpus.all_shards(s).into_iter().map(Some).collect();
        shards[s % k] = None;
        shards[(s + 1) % k] = None;
        shards
    };
    ladder.decode_plan_us = ladder.rung(n, passes, |s| {
        let shards = holed(s);
        let (us, r) = timed(|| coder.decode_plan(&shards));
        (us, r.is_ok_and(|p| p.lost_data().len() == 2))
    });
    ladder.decode_us = ladder.rung(n, passes, |s| {
        let mut shards = holed(s);
        let (us, r) = timed(|| coder.decode(&mut shards));
        let exact = shards
            .iter()
            .enumerate()
            .all(|(i, sh)| sh.as_deref() == Some(corpus.shard(s, i)));
        (us, r.is_ok() && exact)
    });
    ladder.scrub_us = ladder.rung(n, passes, |s| {
        let refs: Vec<&[u8]> = (0..k + m).map(|i| corpus.shard(s, i)).collect();
        let (us, r) = timed(|| coder.scrub(&refs));
        (us, r.is_ok_and(|bad| bad.is_empty()))
    });

    // core.pool: private pools on the same stripes.
    let pool1 = EncodePool::new(1);
    ladder.pool_encode_us = ladder.rung(n, passes, |s| {
        let data = corpus.data_refs(s);
        let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        let (us, r) = timed(|| pool1.encode(coder, &data, &mut outs));
        (us, r.is_ok() && parity == corpus.parity[s])
    });
    let pool2 = EncodePool::new(2);
    ladder.pool_split2_us = ladder.rung(n, passes, |s| {
        let data = corpus.data_refs(s);
        let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        let (us, r) = timed(|| pool2.encode(coder, &data, &mut outs));
        (us, r.is_ok() && parity == corpus.parity[s])
    });
    drop(pool2);

    // Batches of 8 consecutive corpus stripes; "stripe" here indexes the
    // batch's first stripe.
    let mut batch_parity = vec![vec![vec![0u8; w.block]; m]; 8];
    ladder.pool_batch8_us_per_stripe = ladder.rung(n.div_ceil(8), passes, |b| {
        let stripe = |i: usize| (b * 8 + i) % n;
        let datas: Vec<Vec<&[u8]>> = (0..8).map(|i| corpus.data_refs(stripe(i))).collect();
        let mut outs: Vec<Vec<&mut [u8]>> = batch_parity
            .iter_mut()
            .map(|p| p.iter_mut().map(Vec::as_mut_slice).collect())
            .collect();
        let mut jobs: Vec<StripeJob<'_, '_>> = datas
            .iter()
            .zip(outs.iter_mut())
            .map(|(data, parity)| StripeJob { data, parity })
            .collect();
        let (us, r) = timed(|| pool1.encode_batch(coder, &mut jobs));
        drop(jobs);
        drop(outs);
        let exact = (0..8).all(|i| batch_parity[i] == corpus.parity[stripe(i)]);
        (us / 8.0, r.is_ok() && exact)
    });
    ladder
}
