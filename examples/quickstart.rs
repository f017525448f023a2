//! Quickstart: encode, corrupt, and repair data with the DIALGA coder.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This exercises the *functional* API on real bytes: a DIALGA encoder is
//! a table-driven Reed–Solomon coder whose kernels are row-pipelined with
//! software prefetch hints `k` rows ahead (the paper's Fig. 9 mechanism).
//! Output is bit-exact with plain Reed–Solomon.

use dialga_repro::coder::encoder::Dialga;

fn main() {
    // RS(16, 12): 12 data blocks, 4 parity blocks -> tolerates any 4 losses.
    let (k, m) = (12, 4);
    let coder = Dialga::new(k, m).expect("valid geometry");

    // Some application data: 12 blocks of 4 KiB.
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..4096).map(|j| ((i * 131 + j * 7) % 256) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();

    // Encode.
    let parity = coder.encode_vec(&refs).expect("encode");
    println!(
        "encoded {} data blocks + {} parity blocks of {} bytes",
        k,
        m,
        data[0].len()
    );

    // Simulate failures: lose three data blocks and one parity block.
    let mut shards: Vec<Option<Vec<u8>>> = data
        .iter()
        .cloned()
        .map(Some)
        .chain(parity.iter().cloned().map(Some))
        .collect();
    for lost in [2usize, 5, 9, 13] {
        shards[lost] = None;
        println!("lost block {lost}");
    }

    // Repair.
    coder.decode(&mut shards).expect("decode");
    for (i, original) in data.iter().enumerate() {
        assert_eq!(shards[i].as_ref().unwrap(), original, "block {i} mismatch");
    }
    for (i, original) in parity.iter().enumerate() {
        assert_eq!(shards[k + i].as_ref().unwrap(), original);
    }
    println!("all {} blocks repaired bit-exactly", k + m);
}
