//! Cross-crate integration tests: functional coding correctness across the
//! whole stack, and consistency between the functional and simulated
//! surfaces.

use dialga_repro::coder::encoder::Dialga;
use dialga_repro::ec::xor::{XorCode, XorFlavor};
use dialga_repro::ec::{Lrc, ReedSolomon};
use dialga_repro::gf::Gf8;
use dialga_repro::memsim::MachineConfig;
use dialga_repro::pipeline::cost::CostModel;
use dialga_repro::pipeline::isal::{IsalSource, Knobs};
use dialga_repro::pipeline::layout::StripeLayout;
use dialga_repro::pipeline::run_source;
use dialga_repro::pipeline::DialgaSource;

fn make_data(k: usize, len: usize, seed: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|j| ((seed + i * 131 + j * 17) % 256) as u8)
                .collect()
        })
        .collect()
}

/// The DIALGA functional encoder and the plain RS substrate must agree on
/// every geometry — the prefetch schedule must never change bytes.
#[test]
fn dialga_encoder_is_bit_exact_with_rs() {
    for (k, m) in [(4usize, 2usize), (12, 4), (28, 4), (48, 4)] {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data = make_data(k, 1024, k + m);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let coder = Dialga::new(k, m).unwrap();
        assert_eq!(
            coder.encode_vec(&refs).unwrap(),
            rs.encode_vec(&refs).unwrap(),
            "k={k} m={m}"
        );
    }
}

/// Any k blocks (data or parity) must reconstruct the stripe, through the
/// DIALGA decode path.
#[test]
fn dialga_decode_from_any_k_survivors() {
    let (k, m) = (6usize, 3usize);
    let coder = Dialga::new(k, m).unwrap();
    let data = make_data(k, 512, 7);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = coder.encode_vec(&refs).unwrap();
    // Erase every 3-subset of blocks.
    for a in 0..k + m {
        for b in (a + 1)..k + m {
            for c in (b + 1)..k + m {
                let mut shards: Vec<Option<Vec<u8>>> = data
                    .iter()
                    .cloned()
                    .map(Some)
                    .chain(parity.iter().cloned().map(Some))
                    .collect();
                shards[a] = None;
                shards[b] = None;
                shards[c] = None;
                coder.decode(&mut shards).unwrap();
                for (i, d) in data.iter().enumerate() {
                    assert_eq!(shards[i].as_ref().unwrap(), d, "erased {a},{b},{c}");
                }
            }
        }
    }
}

/// XOR codes and RS implement the same code: a stripe encoded by one must
/// decode under the other (via the shared GF parity matrix).
#[test]
fn xor_and_rs_are_interchangeable() {
    let (k, m) = (6usize, 3usize);
    let xc = XorCode::new(k, m, XorFlavor::Cerasure).unwrap();
    let rs = ReedSolomon::from_parity_matrix(xc.parity_matrix().clone()).unwrap();
    let data = make_data(k, 512, 3);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    // Note the layouts differ (bit-sliced vs byte-wise), so parity BYTES
    // differ — but each system must round-trip data through its own parity
    // and the codes share the same fault tolerance.
    let px = xc.encode_vec(&refs).unwrap();
    let pr = rs.encode_vec(&refs).unwrap();

    let mut shards_x: Vec<Option<Vec<u8>>> = data
        .iter()
        .cloned()
        .map(Some)
        .chain(px.into_iter().map(Some))
        .collect();
    let mut shards_r: Vec<Option<Vec<u8>>> = data
        .iter()
        .cloned()
        .map(Some)
        .chain(pr.into_iter().map(Some))
        .collect();
    for lost in [0usize, 2, 4] {
        shards_x[lost] = None;
        shards_r[lost] = None;
    }
    xc.decode(&mut shards_x).unwrap();
    rs.decode(&mut shards_r).unwrap();
    for i in 0..k {
        assert_eq!(shards_x[i].as_ref().unwrap(), &data[i]);
        assert_eq!(shards_r[i].as_ref().unwrap(), &data[i]);
    }
}

/// LRC built on the RS substrate: local parity is the XOR of its group,
/// global parities are plain RS parities (checked via GF arithmetic).
#[test]
fn lrc_parities_decompose_correctly() {
    let lrc = Lrc::new(8, 2, 2).unwrap();
    let data = make_data(8, 256, 11);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = lrc.encode_vec(&refs).unwrap();
    // Local parity 0 = XOR of blocks 0..4.
    for t in 0..256 {
        let mut x = Gf8::ZERO;
        for block in data.iter().take(4) {
            x += Gf8(block[t]);
        }
        assert_eq!(parity[2][t], x.0);
    }
    // Global parities match the inner RS code.
    let rs_parity = lrc.global_code().encode_vec(&refs).unwrap();
    assert_eq!(&parity[..2], &rs_parity[..]);
}

/// The timed surface must mirror the paper's central result on a
/// representative grid: DIALGA ≥ ISA-L everywhere, strictly better off the
/// hardware prefetcher's sweet spot.
#[test]
fn timed_dialga_dominates_isal_grid() {
    let cfg = MachineConfig::pm();
    for (k, m, block) in [(12usize, 4usize, 1024u64), (28, 4, 1024), (48, 4, 1024)] {
        let layout = StripeLayout::sized_for(k, m, block, 1 << 20);
        let cost = CostModel::default();
        let mut isal = IsalSource::new(layout, cost, Knobs::default(), 1);
        let r_isal = run_source(&cfg, 1, &mut isal);
        let mut dialga = DialgaSource::new(layout, cost, 1, &cfg);
        dialga.set_sample_interval(50_000.0);
        let r_dialga = run_source(&cfg, 1, &mut dialga);
        assert!(
            r_dialga.throughput_gbs() > 1.2 * r_isal.throughput_gbs(),
            "k={k} m={m}: DIALGA {:.2} vs ISA-L {:.2}",
            r_dialga.throughput_gbs(),
            r_isal.throughput_gbs()
        );
    }
}

/// Traffic conservation on a real multi-thread simulated run: every layer
/// of the read path must account consistently.
#[test]
fn simulated_traffic_is_conserved() {
    let cfg = MachineConfig::pm();
    let layout = StripeLayout::sized_for(12, 4, 1024, 1 << 20);
    let mut src = IsalSource::new(layout, CostModel::default(), Knobs::default(), 4);
    let r = run_source(&cfg, 4, &mut src);
    let c = &r.counters;
    assert_eq!(c.loads, c.l2_hits + c.llc_hits + c.demand_misses);
    assert_eq!(
        c.imc_read_bytes,
        (c.demand_misses + c.hw_prefetches + c.sw_prefetches) * 64
    );
    assert_eq!(c.media_read_bytes, c.xpline_fetches * 256);
    assert!(
        c.media_read_bytes >= c.demand_misses * 64,
        "implicit loads only add"
    );
    assert_eq!(c.encode_read_bytes, r.data_bytes);
}

/// The archive CLI refuses a numeric flag whose value is not a number, a
/// flag with no value, an unknown flag (`--shards` among them: its sharded
/// encode is gone) and a second path: it prints the usage, exits 2 and
/// writes nothing. The same command with a well-formed `--k` writes the
/// archive into the same directory, so the empty directory means the
/// refusal came first. The other subcommands refuse leftovers too.
#[test]
fn cli_rejects_malformed_flags_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("dialga-cli-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join("out");
    std::fs::create_dir_all(&out).unwrap();
    let input = dir.join("input.bin");
    std::fs::write(&input, make_data(1, 4096, 7).concat()).unwrap();
    let encode = |tail: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_dialga"))
            .arg("encode")
            .arg(&input)
            .arg("--out")
            .arg(&out)
            .args(tail)
            .output()
            .unwrap()
    };
    let refused: [&[&str]; 5] = [
        &["--k", "x"],
        &["--k"],
        &["--bogus", "1"],
        &["--shards", "4"],
        &["second.bin"],
    ];
    for tail in refused {
        let run = encode(tail);
        assert_eq!(run.status.code(), Some(2), "{tail:?}");
        assert!(
            String::from_utf8_lossy(&run.stderr).contains("usage"),
            "{tail:?}"
        );
        assert_eq!(std::fs::read_dir(&out).unwrap().count(), 0, "{tail:?}");
    }
    let run = encode(&["--k", "4"]);
    assert!(run.status.success());
    assert!(std::fs::read_dir(&out).unwrap().count() > 0);
    let manifest = out.join("input.dialga");
    let restored = dir.join("restored.bin");
    for (cmd, tail) in [
        ("verify", &["--bogus"][..]),
        ("repair", &["second.dialga"]),
        (
            "restore",
            &["--out", restored.to_str().unwrap(), "--k", "4"],
        ),
    ] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_dialga"))
            .arg(cmd)
            .arg(&manifest)
            .args(tail)
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(2), "{cmd} {tail:?}");
        assert!(!restored.exists(), "{cmd} {tail:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
