//! Property-based tests for GF(2^8) field axioms and kernel equivalence.
//!
//! Randomized with the in-tree deterministic harness (`dialga-testkit`);
//! each property runs over many seeded cases and failures print the seed
//! to replay.

use dialga_gf::bitmatrix::BitMatrix;
use dialga_gf::slice::{mul_add_slice, mul_slice, xor_slice};
use dialga_gf::tables::mul_notable;
use dialga_gf::Gf8;
use dialga_testkit::run_cases;

#[test]
fn add_commutative() {
    run_cases(256, |rng| {
        let (a, b) = (rng.u8(), rng.u8());
        assert_eq!(Gf8(a) + Gf8(b), Gf8(b) + Gf8(a));
    });
}

#[test]
fn mul_commutative() {
    run_cases(256, |rng| {
        let (a, b) = (rng.u8(), rng.u8());
        assert_eq!(Gf8(a) * Gf8(b), Gf8(b) * Gf8(a));
    });
}

#[test]
fn mul_associative() {
    run_cases(256, |rng| {
        let (a, b, c) = (rng.u8(), rng.u8(), rng.u8());
        assert_eq!((Gf8(a) * Gf8(b)) * Gf8(c), Gf8(a) * (Gf8(b) * Gf8(c)));
    });
}

#[test]
fn distributive() {
    run_cases(256, |rng| {
        let (a, b, c) = (rng.u8(), rng.u8(), rng.u8());
        assert_eq!(
            Gf8(a) * (Gf8(b) + Gf8(c)),
            Gf8(a) * Gf8(b) + Gf8(a) * Gf8(c)
        );
    });
}

#[test]
fn mul_matches_bitwise_reference() {
    // Exhaustive: the full 256x256 multiplication table.
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            assert_eq!((Gf8(a) * Gf8(b)).0, mul_notable(a, b));
        }
    }
}

#[test]
fn nonzero_has_inverse() {
    for a in 1..=255u8 {
        assert_eq!(Gf8(a) * Gf8(a).inv(), Gf8::ONE);
    }
}

#[test]
fn pow_adds_exponents() {
    run_cases(256, |rng| {
        let a = 1 + rng.below(255) as u8;
        let e1 = rng.range_u32(0, 300);
        let e2 = rng.range_u32(0, 300);
        assert_eq!(Gf8(a).pow(e1) * Gf8(a).pow(e2), Gf8(a).pow(e1 + e2));
    });
}

#[test]
fn mul_slice_equals_scalar_loop() {
    run_cases(64, |rng| {
        let c = rng.u8();
        let n = rng.range(0, 256);
        let src = rng.bytes(n);
        let mut dst = vec![0u8; src.len()];
        mul_slice(c, &src, &mut dst);
        for (d, &s) in dst.iter().zip(&src) {
            assert_eq!(*d, mul_notable(c, s));
        }
    });
}

#[test]
fn mul_add_is_mul_then_xor() {
    run_cases(64, |rng| {
        let c = rng.u8();
        let n = rng.range(1, 200);
        let src = rng.bytes(n);
        let seed = rng.u8();
        let mut dst: Vec<u8> = (0..src.len())
            .map(|i| (i as u8).wrapping_add(seed))
            .collect();
        let mut expect = dst.clone();
        mul_add_slice(c, &src, &mut dst);
        let mut prod = vec![0u8; src.len()];
        mul_slice(c, &src, &mut prod);
        xor_slice(&prod, &mut expect);
        assert_eq!(dst, expect);
    });
}

#[test]
fn bitmatrix_mul_is_gf_mul() {
    run_cases(256, |rng| {
        let (e, x) = (rng.u8(), rng.u8());
        let bm = BitMatrix::from_gf_matrix(&[vec![Gf8(e)]]);
        let bits: Vec<bool> = (0..8).map(|i| (x >> i) & 1 != 0).collect();
        let out = bm.apply(&bits);
        let got = out
            .iter()
            .enumerate()
            .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << i));
        assert_eq!(got, mul_notable(e, x));
    });
}

#[test]
fn bitmatrix_inverse_roundtrip() {
    run_cases(128, |rng| {
        let (a, b, c, d) = (rng.u8(), rng.u8(), rng.u8(), rng.u8());
        // Only test when the GF matrix is invertible (det != 0).
        let det = Gf8(a) * Gf8(d) + Gf8(b) * Gf8(c);
        if det == Gf8::ZERO {
            return;
        }
        let m = BitMatrix::from_gf_matrix(&[vec![Gf8(a), Gf8(b)], vec![Gf8(c), Gf8(d)]]);
        let inv = m
            .inverse()
            .expect("invertible GF matrix must yield invertible bitmatrix");
        assert_eq!(m.matmul(&inv), BitMatrix::identity(16));
    });
}

// ---------------------------------------------------------------------------
// Fused multi-output dot-product vs. the scalar reference (PR 4).
// ---------------------------------------------------------------------------

use dialga_gf::sched::FusedSched;
use dialga_gf::simd::{
    dot_prod_fused, dot_prod_fused_vec, dot_prod_syndromes, dot_prod_verify, selected_kernel,
    set_kernel_override, Kernel, Support, FUSED_GROUP,
};
use dialga_gf::tables::NibbleTables;

/// Scalar, table-free-of-SIMD reference: `out[r][i] = XOR_b tab[r*k+b](src[b][i])`.
/// Overwrite semantics, matching `dot_prod_fused`.
fn reference_dot_prod(tables: &[NibbleTables], sources: &[&[u8]], outputs: &mut [&mut [u8]]) {
    let k = sources.len();
    for (r, out) in outputs.iter_mut().enumerate() {
        for i in 0..out.len() {
            let mut acc = 0u8;
            for (b, src) in sources.iter().enumerate() {
                acc ^= tables[r * k + b].mul(src[i]);
            }
            out[i] = acc;
        }
    }
}

/// Schedule shapes that exercise every branch of the fused inner loop:
/// no prefetch, §4.2 two-group construction (`d % k != 0` via d=7, k=5),
/// §4.3 long/short split, shuffle remapping, and an out-of-range distance.
fn sched_variants(k: usize) -> Vec<FusedSched> {
    vec![
        FusedSched::plain(),
        FusedSched::distance(k.max(1) as u32),
        FusedSched {
            d: Some(7),
            d_long: Some(13),
            shuffle: false,
        },
        FusedSched {
            d: Some(3),
            d_long: None,
            shuffle: true,
        },
        FusedSched::distance(1000),
    ]
}

/// One fused case against the scalar reference. Every source starts
/// `src_skew` bytes into its allocation and every output `skew`: a 64 B
/// lane straddles cachelines on any `Vec<u8>`, and a source need not share
/// its output's alignment, so the kernels must not care.
///
/// Table `i` multiplies by `(37 i + 1) mod 256` with 0 and 38 swapped — a
/// bijection on `0..256` that puts 1 and 0 first — so `n_out * k = 256`
/// covers every coefficient.
fn check_fused_case(
    k: usize,
    n_out: usize,
    len: usize,
    sched: FusedSched,
    (src_skew, skew): (usize, usize),
) {
    let tables: Vec<NibbleTables> = (0..n_out * k)
        .map(|i| match (i * 37 + 1) % 256 {
            38 => NibbleTables::new(0),
            0 => NibbleTables::new(38),
            c => NibbleTables::new(c as u8),
        })
        .collect();
    let srcs: Vec<Vec<u8>> = (0..k)
        .map(|b| {
            (0..src_skew + len)
                .map(|i| ((b * 31 + i * 7) & 0xFF) as u8)
                .collect()
        })
        .collect();
    let src_refs: Vec<&[u8]> = srcs.iter().map(|s| &s[src_skew..]).collect();

    // Prefill with garbage so accumulate-instead-of-overwrite bugs show.
    let mut got: Vec<Vec<u8>> = (0..n_out)
        .map(|r| vec![r as u8 ^ 0xA5; skew + len])
        .collect();
    let mut want = got.clone();
    {
        let mut got_refs: Vec<&mut [u8]> = got.iter_mut().map(|o| &mut o[skew..]).collect();
        dot_prod_fused(&tables, &src_refs, &mut got_refs, sched);
        let mut want_refs: Vec<&mut [u8]> = want.iter_mut().map(|o| &mut o[skew..]).collect();
        reference_dot_prod(&tables, &src_refs, &mut want_refs);
    }
    // Whole allocations: the bytes before `skew` must be untouched.
    assert_eq!(
        got, want,
        "fused != reference for k={k} n_out={n_out} len={len} sched={sched:?} \
         skews=({src_skew}, {skew})"
    );
    // The write-only entry into fresh, never-written blocks: the garbage
    // above proves overwrite, this path rests on every byte being stored.
    let fresh = dot_prod_fused_vec(&tables, &src_refs, n_out, len, sched);
    let want_rows: Vec<&[u8]> = want.iter().map(|w| &w[skew..]).collect();
    assert_eq!(
        fresh, want_rows,
        "fresh fused != reference for k={k} n_out={n_out} len={len} sched={sched:?} \
         skews=({src_skew}, {skew})"
    );
}

/// `dot_prod_verify` / `dot_prod_syndromes` against syndromes worked out
/// by the scalar reference: two output groups, lengths from one byte to
/// many lines with a ragged tail, every shard cut from one buffer at a
/// 4 KiB-multiple stride (the store's payload layout). Damage to a stored
/// row in each group and in the last byte, then to a source as well; the
/// rows the verdict names are exactly the rows with a non-zero syndrome.
fn check_verify_and_syndromes() {
    let (k, n_out) = (4usize, FUSED_GROUP + 2);
    let tables: Vec<NibbleTables> = (0..n_out * k)
        .map(|i| NibbleTables::new((i as u8).wrapping_mul(31).wrapping_add(7)))
        .collect();
    let scheds = [
        FusedSched {
            d: Some(7),
            d_long: Some(13),
            shuffle: false,
        },
        FusedSched {
            d: Some(3),
            d_long: None,
            shuffle: true,
        },
    ];
    for len in [1usize, 63, 64, 4096, 32_968] {
        let stride = len.div_ceil(4096) * 4096;
        let mut payload: Vec<u8> = (0..(k + n_out) * stride)
            .map(|i| (i * 37 + 11) as u8)
            .collect();
        let reference = |payload: &mut [u8]| {
            let (data, parity) = payload.split_at_mut(k * stride);
            let srcs: Vec<&[u8]> = data.chunks_exact(stride).map(|d| &d[..len]).collect();
            let mut rows: Vec<&mut [u8]> = parity
                .chunks_exact_mut(stride)
                .map(|p| &mut p[..len])
                .collect();
            reference_dot_prod(&tables, &srcs, &mut rows);
        };
        reference(&mut payload);
        let run = |payload: &[u8], sched: FusedSched| {
            let shards: Vec<&[u8]> = payload.chunks_exact(stride).map(|s| &s[..len]).collect();
            let (srcs, exp) = shards.split_at(k);
            (
                dot_prod_verify(&tables, srcs, exp, sched),
                dot_prod_syndromes(&tables, srcs, exp, sched),
            )
        };
        let byte = |shard: usize, at: usize| shard * stride + at;
        let stored_damage = [(1, 0), (FUSED_GROUP + 1, len / 2), (3, len - 1)];
        let source_damage = (2, len / 3);
        for with_source in [false, true] {
            let mut dirty = payload.clone();
            if with_source {
                dirty[byte(source_damage.0, source_damage.1)] ^= 0x03;
            }
            for &(row, at) in &stored_damage {
                dirty[byte(k + row, at)] ^= 0x40;
            }
            let mut recomputed = dirty.clone();
            reference(&mut recomputed);
            let mut want = Support::default();
            for at in 0..len {
                let column =
                    (0..n_out).map(|i| dirty[byte(k + i, at)] ^ recomputed[byte(k + i, at)]);
                if column.clone().any(|s| s != 0) {
                    want.positions.push(at);
                    want.syndromes.extend(column);
                }
            }
            // The damage is all the reference sees.
            let mut damaged: Vec<usize> = stored_damage.iter().map(|&(_, at)| at).collect();
            if with_source {
                damaged.push(source_damage.1);
            }
            damaged.sort_unstable();
            damaged.dedup();
            assert_eq!(want.positions, damaged, "len={len}");
            for sched in scheds {
                let ctx = format!("len={len} with_source={with_source} {sched:?}");
                assert_eq!(run(&payload, sched), (vec![], Support::default()), "{ctx}");
                let (verdict, support) = run(&dirty, sched);
                assert_eq!(support, want, "{ctx}");
                let columns = || support.syndromes.chunks_exact(n_out);
                let named: Vec<usize> = (0..n_out)
                    .filter(|&i| columns().any(|c| c[i] != 0))
                    .collect();
                assert_eq!(verdict, named, "{ctx}");
                if !with_source {
                    assert_eq!(verdict, vec![1, 3, FUSED_GROUP + 1], "{ctx}");
                }
            }
        }
    }
}

/// Run `body` under every tier this CPU has, lowest first, and say which
/// were run and which were not: a green run on a narrower CPU must not
/// read as covering the top tier. The override is process-global, so this
/// is called from one test body per binary; auto selection is restored on
/// every way out, a failed assert included.
fn for_each_available_tier(mut body: impl FnMut()) {
    struct AutoOnDrop;
    impl Drop for AutoOnDrop {
        fn drop(&mut self) {
            set_kernel_override(None);
        }
    }
    let _auto = AutoOnDrop;
    let (mut run, mut skipped) = (Vec::new(), Vec::new());
    for tier in Kernel::ALL {
        set_kernel_override(Some(tier));
        if selected_kernel() == tier {
            body();
            run.push(tier);
        } else {
            skipped.push(tier);
        }
    }
    println!("tiers run: {run:?} / skipped (not on this CPU): {skipped:?}");
}

/// Every kernel tier the CPU has × output counts spanning a group boundary
/// × tail shapes (empty, sub-cacheline, exact lines, ragged tails, exactly
/// one XPLine = 256 B) × every schedule branch × aligned and unaligned
/// starts, sources and outputs skewed alike and apart, then every
/// coefficient and the verify/syndrome scans on the same tier. Tier
/// overrides are process global, so the whole sweep lives in one test body.
#[test]
fn fused_matches_reference_for_all_tiers_and_tail_shapes() {
    let lens = [0usize, 1, 63, 64, 65, 192, 256, 257, 320, 1000];
    let skews = [(0usize, 0usize), (1, 1), (17, 17), (1, 0), (17, 1)];
    for_each_available_tier(|| {
        for skews in skews {
            for &len in &lens {
                for n_out in 1..=(FUSED_GROUP + 2) {
                    for sched in sched_variants(5) {
                        check_fused_case(5, n_out, len, sched, skews);
                    }
                }
                // 16 x 16 tables: all 256 coefficients, in three groups.
                check_fused_case(16, 16, len, FusedSched::distance(16), skews);
            }
        }
        // k = 0 must zero-fill; k = 1 exercises the single-source path.
        check_fused_case(0, 3, 256, FusedSched::plain(), (0, 0));
        check_fused_case(1, 2, 257, FusedSched::distance(4), (0, 0));
        check_verify_and_syndromes();
    });
}

/// Randomized geometry sweep on the auto-selected kernel. The assertion
/// holds for *every* tier, so this stays correct even if it interleaves
/// with the tier-override sweep above.
#[test]
fn fused_matches_reference_randomized() {
    run_cases(64, |rng| {
        let k = rng.range(1, 11);
        let n_out = rng.range(1, 9);
        let len = rng.range(0, 1500);
        let sched = FusedSched {
            d: rng.bool().then(|| rng.range_u32(1, 64)),
            d_long: rng.bool().then(|| rng.range_u32(1, 128)),
            shuffle: rng.bool(),
        };
        let tables: Vec<NibbleTables> = (0..n_out * k)
            .map(|_| NibbleTables::new(rng.u8()))
            .collect();
        let srcs: Vec<Vec<u8>> = (0..k).map(|_| rng.bytes(len)).collect();
        let src_refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut got: Vec<Vec<u8>> = (0..n_out).map(|_| rng.bytes(len)).collect();
        let mut want: Vec<Vec<u8>> = (0..n_out).map(|_| rng.bytes(len)).collect();
        {
            let mut got_refs: Vec<&mut [u8]> = got.iter_mut().map(|o| o.as_mut_slice()).collect();
            dot_prod_fused(&tables, &src_refs, &mut got_refs, sched);
            let mut want_refs: Vec<&mut [u8]> = want.iter_mut().map(|o| o.as_mut_slice()).collect();
            reference_dot_prod(&tables, &src_refs, &mut want_refs);
        }
        assert_eq!(got, want, "k={k} n_out={n_out} len={len} sched={sched:?}");
    });
}
