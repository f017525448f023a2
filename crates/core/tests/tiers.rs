//! Every GF kernel tier this CPU has, through the library's own entry
//! points: encode, decode, repair, verify, scrub and the pool must produce
//! the same bytes and verdicts whichever tier runs them. One test in its
//! own binary, because the tier override is process-global.

use dialga::encoder::Dialga;
use dialga::pool::EncodePool;
use dialga_gf::simd::{selected_kernel, set_kernel_override, Kernel};

/// Restores auto selection on every way out of the test.
struct AutoOnDrop;
impl Drop for AutoOnDrop {
    fn drop(&mut self) {
        set_kernel_override(None);
    }
}

/// Everything one tier produced for one shape; compared whole.
#[derive(Debug, PartialEq)]
struct Transcript {
    parity: Vec<Vec<u8>>,
    pool_parity: Vec<Vec<u8>>,
    decoded: Vec<Vec<Option<Vec<u8>>>>,
    repaired: Vec<Vec<u8>>,
    scrubbed: Vec<usize>,
}

fn run_shape(pool: &EncodePool, k: usize, m: usize, len: usize) -> Transcript {
    let coder = Dialga::new(k, m).unwrap();
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..len).map(|j| (i * 37 + j * 11 + 5) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = coder.encode_vec(&refs).unwrap();
    let pool_parity = pool.encode_vec(&coder, &refs).unwrap();
    let stripe: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();

    // 1..=m erasures, walking across the data/parity boundary.
    let decoded = (1..=m)
        .map(|lost| {
            let mut shards: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
            for e in 0..lost {
                shards[(k - 1 + e * 2) % (k + m)] = None;
            }
            coder.decode(&mut shards).unwrap();
            assert!(shards.iter().flatten().eq(stripe.iter()), "decode");
            shards
        })
        .collect();

    // Single-block repair of a data block and of a parity block.
    let repaired = [0, k]
        .into_iter()
        .map(|target| {
            let survivors: Vec<usize> = (0..k + m).filter(|&i| i != target).take(k).collect();
            let plan = coder.repair_plan(&survivors, target).unwrap();
            let srcs: Vec<&[u8]> = survivors.iter().map(|&s| stripe[s].as_slice()).collect();
            let mut out = vec![0u8; len];
            plan.apply(&srcs, &mut out, 6, false).unwrap();
            assert_eq!(out, stripe[target], "repair of {target}");
            out
        })
        .collect();

    let parity_refs: Vec<&[u8]> = parity.iter().map(|p| p.as_slice()).collect();
    coder.verify(&refs, &parity_refs).unwrap();

    // One torn cacheline in data shard 1: verify must refuse the stripe and
    // scrub must name the shard.
    let mut torn = stripe.clone();
    let line = (len / 64 - 1) * 64;
    for b in &mut torn[1][line..line + 64] {
        *b ^= 0x5A;
    }
    let torn_refs: Vec<&[u8]> = torn.iter().map(|s| s.as_slice()).collect();
    assert!(coder.verify(&torn_refs[..k], &torn_refs[k..]).is_err());
    let scrubbed = coder.scrub(&torn_refs).unwrap();
    assert_eq!(scrubbed, vec![1]);

    Transcript {
        parity,
        pool_parity,
        decoded,
        repaired,
        scrubbed,
    }
}

#[test]
fn every_available_tier_produces_the_same_bytes_end_to_end() {
    let _auto = AutoOnDrop;
    let pool = EncodePool::new(2);
    let (mut run, mut skipped) = (Vec::new(), Vec::new());
    let mut reference: Vec<Transcript> = Vec::new();
    for tier in Kernel::ALL {
        set_kernel_override(Some(tier));
        if selected_kernel() != tier {
            skipped.push(tier);
            continue;
        }
        let mut shapes = Vec::new();
        for (k, m) in [(4, 2), (10, 4), (12, 8)] {
            for len in [64, 4096 + 37] {
                let t = run_shape(&pool, k, m, len);
                assert_eq!(t.pool_parity, t.parity, "{tier:?} ({k},{m}) len {len}");
                shapes.push(t);
            }
        }
        // The first tier run is `Portable`, the table-kernel reference.
        if reference.is_empty() {
            reference = shapes;
        } else {
            assert_eq!(shapes, reference, "{tier:?} differs from {:?}", run[0]);
        }
        run.push(tier);
    }
    println!("tiers run: {run:?} / skipped (not on this CPU): {skipped:?}");
}
