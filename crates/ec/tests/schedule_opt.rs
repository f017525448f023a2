//! Property tests for the schedule-optimizer pipeline (PR 9): every pass
//! must preserve the encoded bytes bit-for-bit across the whole code zoo,
//! ragged lengths and random data, and must never make the static cost
//! worse.

use dialga_ec::schedule::{opt, Dst, Src, XorOp};
use dialga_ec::zoo::{code_zoo, ZooEntry};
use dialga_ec::{execute_schedule, ReedSolomon, Schedule, XorCode, XorScratch};
use dialga_gf::bitmatrix::W;
use dialga_gf::sched::FusedSched;
use dialga_gf::xorexec::{execute_packets, TempArena};
use dialga_testkit::run_cases;

/// The zoo plus each family's (naive, optimized) schedule pair, built once
/// per process: Cerasure's annealing and the wide-k CSE are too expensive
/// to re-run per property case in debug builds.
fn zoo() -> &'static [(ZooEntry, Schedule, Schedule)] {
    static ZOO: std::sync::OnceLock<Vec<(ZooEntry, Schedule, Schedule)>> =
        std::sync::OnceLock::new();
    ZOO.get_or_init(|| {
        code_zoo()
            .expect("code zoo builds")
            .into_iter()
            .map(|entry| {
                let naive = entry.code.naive_schedule();
                let optimized = opt::optimize(&naive).expect("optimize");
                (entry, naive, optimized)
            })
            .collect()
    })
}

fn random_data(rng: &mut dialga_testkit::Rng, k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|_| (0..len).map(|_| rng.u8()).collect())
        .collect()
}

/// Run `schedule` through the serial staging executor.
fn run_serial(schedule: &Schedule, data: &[Vec<u8>], len: usize) -> Vec<Vec<u8>> {
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let mut out = vec![vec![0u8; len]; schedule.m];
    let mut scratch = XorScratch::new();
    execute_schedule(schedule, &refs, &mut out, len, &mut scratch).expect("serial execute");
    out
}

/// Run `schedule` lowered to a program through the tiled gf executor.
fn run_tiled(schedule: &Schedule, data: &[Vec<u8>], len: usize) -> Vec<Vec<u8>> {
    let prog = schedule.to_program().expect("lower schedule");
    let psize = len / W;
    let srcs: Vec<&[u8]> = data.iter().flat_map(|b| b.chunks(psize)).collect();
    let mut out = vec![vec![0u8; len]; schedule.m];
    let mut outs: Vec<&mut [u8]> = out.iter_mut().flat_map(|b| b.chunks_mut(psize)).collect();
    let mut arena = TempArena::new();
    execute_packets(
        &prog,
        &srcs,
        &mut outs,
        &mut arena,
        FusedSched::distance(schedule.k as u32),
    );
    out
}

#[test]
fn optimizer_is_bit_exact_across_the_zoo() {
    run_cases(12, |rng| {
        for (entry, naive, optimized) in zoo() {
            // Ragged: a multiple of W that is not cacheline- or
            // tile-aligned most of the time.
            let len = rng.range(1, 80) * W;
            let data = random_data(rng, entry.code.params().k, len);
            let want = run_serial(naive, &data, len);
            assert_eq!(
                want,
                run_serial(optimized, &data, len),
                "{} serial len={len}",
                entry.name
            );
            assert_eq!(
                want,
                run_tiled(optimized, &data, len),
                "{} tiled len={len}",
                entry.name
            );
        }
    });
}

#[test]
fn passes_never_worsen_cost() {
    for (entry, naive, optimized) in zoo() {
        let cse = opt::eliminate_common_subexpressions(naive).expect("cse");
        let reordered = opt::reorder_for_reuse(&cse).expect("reorder");

        // CSE only hoists pairs appearing at least twice: each hoist
        // spends 2 ops to save >= 2, so the total never grows.
        assert!(
            cse.cost().xors <= naive.cost().xors,
            "{}: cse grew xors",
            entry.name
        );
        // Reorder permutes and re-slots; it must not change the op count
        // and recycling must not grow the arena.
        assert_eq!(
            reordered.cost().xors,
            cse.cost().xors,
            "{}: reorder changed xors",
            entry.name
        );
        assert!(
            reordered.cost().n_temps <= cse.cost().n_temps,
            "{}: reorder grew temps",
            entry.name
        );
        // The pipeline picks the best candidate including the input, so
        // the final key is monotone.
        assert!(
            optimized.cost().key() <= naive.cost().key(),
            "{}: optimize worsened the cost key",
            entry.name
        );
    }
}

#[test]
fn optimizer_reduces_xors_on_most_families() {
    // The PR 9 acceptance bar, as a test: >= 3 zoo families must strictly
    // shrink (`figures xor_opt` prints the counts).
    let improved = zoo()
        .iter()
        .filter(|(_, naive, optimized)| optimized.cost().xors < naive.cost().xors)
        .count();
    assert!(improved >= 3, "only {improved} families improved");
}

#[test]
fn decomposed_xor_passes_match_single_pass_program() {
    run_cases(16, |rng| {
        let k = rng.range(8, 30);
        let m = rng.range(1, 5);
        let sub_k = rng.range(2, 10);
        let rs = ReedSolomon::new(k, m).expect("rs");
        let dec = dialga_ec::decompose::DecomposedRs::new(rs.clone(), sub_k).expect("decomposed");
        let single =
            XorCode::from_parity_matrix(rs.parity_matrix().clone()).expect("single-pass code");
        let len = rng.range(1, 20) * W;
        let data = random_data(rng, k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(
            dec.encode_xor_vec(&refs).expect("decomposed xor encode"),
            single.encode_vec(&refs).expect("single-pass encode"),
            "k={k} m={m} sub_k={sub_k} len={len}"
        );
    });
}

#[test]
fn validate_rejects_malformed_schedules() {
    // Read-before-init temp.
    let s = Schedule {
        k: 1,
        m: 1,
        n_temps: 1,
        ops: (0..W)
            .map(|r| XorOp {
                dst: Dst::Parity(r),
                src: Src::Temp(0),
                init: true,
            })
            .collect(),
    };
    assert!(s.validate().is_err(), "uninitialized temp read accepted");

    // Out-of-range data column.
    let s = Schedule {
        k: 1,
        m: 1,
        n_temps: 0,
        ops: (0..W)
            .map(|r| XorOp {
                dst: Dst::Parity(r),
                src: Src::Data(W + r),
                init: true,
            })
            .collect(),
    };
    assert!(s.validate().is_err(), "out-of-range column accepted");

    // Accumulate into a parity packet that was never initialized.
    let s = Schedule {
        k: 1,
        m: 1,
        n_temps: 0,
        ops: (0..W)
            .map(|r| XorOp {
                dst: Dst::Parity(r),
                src: Src::Data(0),
                init: false,
            })
            .collect(),
    };
    assert!(s.validate().is_err(), "accumulate-before-init accepted");

    // A parity packet left unwritten.
    let mut ops: Vec<XorOp> = (0..W - 1)
        .map(|r| XorOp {
            dst: Dst::Parity(r),
            src: Src::Data(0),
            init: true,
        })
        .collect();
    ops.push(XorOp {
        dst: Dst::Temp(0),
        src: Src::Data(0),
        init: true,
    });
    let s = Schedule {
        k: 1,
        m: 1,
        n_temps: 1,
        ops,
    };
    assert!(s.validate().is_err(), "unwritten parity accepted");
}
