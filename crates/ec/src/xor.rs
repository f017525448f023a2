//! XOR/bitmatrix erasure coding (the Jerasure / Zerasure / Cerasure family).
//!
//! Blocks are split into [`W`] = 8 packets; every
//! GF(2^8) coefficient becomes an 8x8 binary block, and encoding executes a
//! [`Schedule`] of packet XORs. Compared with the table-driven RS path this
//! trades fewer "multiplications" for many more packet reads — the memory
//! behaviour the paper shows is a liability on PM.

use crate::schedule::{Dst, Src};
use crate::{CodeParams, EcError, GfMatrix, Schedule};
use dialga_gf::bitmatrix::{BitMatrix, W};
use dialga_gf::slice::xor_slice;

/// Which schedule/matrix optimization pipeline built this code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XorFlavor {
    /// Canonical Cauchy matrix, naive schedule (plain Jerasure).
    Plain,
    /// Annealed X/Y matrix search + normalization + smart schedule
    /// (Zerasure-like).
    Zerasure,
    /// Greedy X/Y matrix search + smart schedule (Cerasure-like).
    Cerasure,
}

/// Execute a schedule over packetized blocks: `sources` are the schedule's
/// `k` source blocks, `outputs` its `m` destination blocks, all of `len`
/// bytes (`len` must be a multiple of 8 so packets are equal-sized).
///
/// The schedule is validated first ([`Schedule::validate`]); a malformed
/// schedule is rejected instead of silently producing garbage (it would
/// otherwise read a temp packet before anything was written to it).
pub fn execute_schedule(
    schedule: &Schedule,
    sources: &[&[u8]],
    outputs: &mut [Vec<u8>],
    len: usize,
) -> Result<(), EcError> {
    schedule.validate()?;
    if !len.is_multiple_of(W) {
        return Err(EcError::BlockLength {
            expected: len.next_multiple_of(W),
            got: len,
        });
    }
    if sources.len() != schedule.k {
        return Err(EcError::BlockCount {
            expected: schedule.k,
            got: sources.len(),
        });
    }
    if outputs.len() != schedule.m {
        return Err(EcError::BlockCount {
            expected: schedule.m,
            got: outputs.len(),
        });
    }
    for s in sources {
        if s.len() != len {
            return Err(EcError::BlockLength {
                expected: len,
                got: s.len(),
            });
        }
    }
    for o in outputs.iter() {
        if o.len() != len {
            return Err(EcError::BlockLength {
                expected: len,
                got: o.len(),
            });
        }
    }
    let psize = len / W;
    let mut temps = vec![vec![0u8; psize]; schedule.n_temps];
    let mut packet = vec![0u8; psize];
    for op in &schedule.ops {
        // Stage the source packet (borrow-safety: source and dest can alias
        // only between parity packets; the staging copy keeps this simple
        // and matches the packet-movement cost anyway).
        match op.src {
            Src::Data(c) => {
                let (b, p) = (c / W, c % W);
                packet.copy_from_slice(&sources[b][p * psize..(p + 1) * psize]);
            }
            Src::Parity(r) => {
                let (b, p) = (r / W, r % W);
                packet.copy_from_slice(&outputs[b][p * psize..(p + 1) * psize]);
            }
            Src::Temp(t) => packet.copy_from_slice(&temps[t]),
        }
        match op.dst {
            Dst::Parity(r) => {
                let (b, p) = (r / W, r % W);
                let dst = &mut outputs[b][p * psize..(p + 1) * psize];
                if op.init {
                    dst.copy_from_slice(&packet);
                } else {
                    xor_slice(&packet, dst);
                }
            }
            Dst::Temp(t) => {
                let dst = &mut temps[t];
                if op.init {
                    dst.copy_from_slice(&packet);
                } else {
                    xor_slice(&packet, dst);
                }
            }
        }
    }
    Ok(())
}

/// A bitmatrix XOR code with a pre-built encode schedule.
///
/// # Examples
///
/// ```
/// use dialga_ec::xor::{XorCode, XorFlavor};
///
/// let code = XorCode::new(4, 2, XorFlavor::Cerasure).unwrap();
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 64]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
/// let parity = code.encode_vec(&refs).unwrap();
///
/// let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some)
///     .chain(parity.into_iter().map(Some)).collect();
/// shards[0] = None;
/// code.decode(&mut shards).unwrap();
/// assert_eq!(shards[0].as_deref(), Some(&data[0][..]));
/// ```
#[derive(Debug, Clone)]
pub struct XorCode {
    params: CodeParams,
    /// The m x k GF parity matrix this code realizes.
    parity_matrix: GfMatrix,
    /// The encode schedule.
    schedule: Schedule,
    flavor: XorFlavor,
}

impl XorCode {
    /// Build a code with the requested optimization flavor.
    ///
    /// `Zerasure` runs a seeded simulated-annealing matrix search (a few
    /// thousand proposals), `Cerasure` a greedy search; both then apply
    /// smart (common-subexpression) scheduling.
    pub fn new(k: usize, m: usize, flavor: XorFlavor) -> Result<Self, EcError> {
        let params = CodeParams::new(k, m)?;
        let parity_matrix = match flavor {
            XorFlavor::Plain => GfMatrix::cauchy_parity(k, m),
            XorFlavor::Zerasure => crate::schedule::anneal_xy(k, m, 4000, 0x5EED)?.parity,
            XorFlavor::Cerasure => crate::schedule::greedy_xy(k, m)?.parity,
        };
        let bitmatrix = BitMatrix::from_gf_matrix(&parity_matrix.to_rows());
        let schedule = match flavor {
            XorFlavor::Plain => Schedule::from_bitmatrix(&bitmatrix, k, m),
            XorFlavor::Zerasure | XorFlavor::Cerasure => {
                Schedule::smart_from_bitmatrix(&bitmatrix, k, m)
            }
        };
        schedule.validate()?;
        Ok(XorCode {
            params,
            parity_matrix,
            schedule,
            flavor,
        })
    }

    /// Code geometry.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The optimization flavor.
    pub fn flavor(&self) -> XorFlavor {
        self.flavor
    }

    /// The encode schedule (consumed by the timing model).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The underlying GF parity matrix.
    pub fn parity_matrix(&self) -> &GfMatrix {
        &self.parity_matrix
    }

    /// Encode the k data blocks into m freshly allocated parity blocks.
    pub fn encode_vec(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError> {
        if data.len() != self.params.k {
            return Err(EcError::BlockCount {
                expected: self.params.k,
                got: data.len(),
            });
        }
        let len = data[0].len();
        let mut parity = vec![vec![0u8; len]; self.params.m];
        execute_schedule(&self.schedule, data, &mut parity, len)?;
        Ok(parity)
    }

    /// Build the decode schedule for a survivor set. As the paper's §5.4
    /// explains, the decode bitmatrix is *derived* ([`GfMatrix::decode_rows`])
    /// and cannot be optimized like the encode matrix — it is dense, so the
    /// schedule is long. We still apply smart scheduling, mirroring what the
    /// libraries do, but the density dominates.
    ///
    /// Every `lost` index must name a data block (`< k`) — parity is
    /// re-encoded, not scheduled — and every survivor a block of the stripe
    /// (`< k + m`); the first index that does not is returned in
    /// [`EcError::BlockCount`].
    pub fn decode_schedule(
        &self,
        survivors: &[usize],
        lost: &[usize],
    ) -> Result<Schedule, EcError> {
        let k = self.params.k;
        if let Some(&l) = lost.iter().find(|&&l| l >= k) {
            return Err(EcError::BlockCount {
                expected: k,
                got: l,
            });
        }
        // Refuses a survivor outside the stripe.
        let rows = self.parity_matrix.decode_rows(survivors, lost)?;
        let bm = BitMatrix::from_gf_matrix(&rows.to_rows());
        Ok(Schedule::smart_from_bitmatrix(&bm, k, lost.len()))
    }

    /// Reconstruct missing blocks in place (same contract as
    /// [`ReedSolomon::decode`](crate::ReedSolomon::decode)).
    pub fn decode(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        let (k, m) = (self.params.k, self.params.m);
        if shards.len() != k + m {
            return Err(EcError::BlockCount {
                expected: k + m,
                got: shards.len(),
            });
        }
        let lost: Vec<usize> = (0..k + m).filter(|&i| shards[i].is_none()).collect();
        if lost.is_empty() {
            return Ok(());
        }
        if lost.len() > m {
            return Err(EcError::TooManyErasures {
                lost: lost.len(),
                tolerance: m,
            });
        }
        let survivors: Vec<usize> = (0..k + m).filter(|&i| shards[i].is_some()).collect();
        let survivors = &survivors[..k];
        let len = crate::present_shard(shards, survivors[0], "XOR survivor shard absent")?.len();

        let lost_data: Vec<usize> = lost.iter().copied().filter(|&i| i < k).collect();
        if !lost_data.is_empty() {
            let schedule = self.decode_schedule(survivors, &lost_data)?;
            let srcs: Vec<&[u8]> = survivors
                .iter()
                .map(|&s| {
                    crate::present_shard(shards, s, "XOR survivor shard absent")
                        .map(|v| v.as_slice())
                })
                .collect::<Result<_, _>>()?;
            let mut outs = vec![vec![0u8; len]; lost_data.len()];
            execute_schedule(&schedule, &srcs, &mut outs, len)?;
            for (&ld, out) in lost_data.iter().zip(outs) {
                shards[ld] = Some(out);
            }
        }
        let lost_parity: Vec<usize> = lost.iter().copied().filter(|&i| i >= k).collect();
        if !lost_parity.is_empty() {
            let data_refs: Vec<&[u8]> = (0..k)
                .map(|i| {
                    crate::present_shard(shards, i, "XOR data shard absent after rebuild")
                        .map(|v| v.as_slice())
                })
                .collect::<Result<_, _>>()?;
            let parity = self.encode_vec(&data_refs)?;
            for &lp in &lost_parity {
                shards[lp] = Some(parity[lp - k].clone());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 7 + j * 13 + 3) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    /// Extract the GF(2^8) symbol at bit-sliced coordinate (`byte`, `bit`)
    /// from a packetized block: bit `c` of the symbol is bit `bit` of byte
    /// `byte` inside packet `c`.
    fn symbol_at(block: &[u8], psize: usize, byte: usize, bit: usize) -> u8 {
        let mut s = 0u8;
        for c in 0..dialga_gf::bitmatrix::W {
            let b = (block[c * psize + byte] >> bit) & 1;
            s |= b << c;
        }
        s
    }

    /// Bitmatrix XOR encoding uses a bit-sliced symbol layout; verify that
    /// under that layout the parity symbols are exactly the GF linear
    /// combination given by the parity matrix — i.e. the XOR path computes
    /// the same *code* as table-driven RS (the two implementations of
    /// Fig. 2), just in transposed layout.
    fn assert_bitmatrix_semantics(flavor: XorFlavor, k: usize, m: usize, len: usize) {
        let xc = XorCode::new(k, m, flavor).unwrap();
        let pmat = xc.parity_matrix().clone();
        let data = make_data(k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = xc.encode_vec(&refs).unwrap();
        let psize = len / dialga_gf::bitmatrix::W;
        for byte in (0..psize).step_by((psize / 4).max(1)) {
            for bit in 0..8 {
                for i in 0..m {
                    let mut expect = dialga_gf::Gf8::ZERO;
                    for j in 0..k {
                        let s = symbol_at(&data[j], psize, byte, bit);
                        expect += pmat[(i, j)] * dialga_gf::Gf8(s);
                    }
                    let got = symbol_at(&parity[i], psize, byte, bit);
                    assert_eq!(
                        got, expect.0,
                        "flavor {flavor:?} k={k} m={m} i={i} byte={byte} bit={bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn plain_implements_gf_code() {
        assert_bitmatrix_semantics(XorFlavor::Plain, 4, 2, 64);
        assert_bitmatrix_semantics(XorFlavor::Plain, 6, 3, 128);
    }

    #[test]
    fn zerasure_implements_gf_code() {
        assert_bitmatrix_semantics(XorFlavor::Zerasure, 4, 2, 64);
        assert_bitmatrix_semantics(XorFlavor::Zerasure, 6, 4, 64);
    }

    #[test]
    fn cerasure_implements_gf_code() {
        assert_bitmatrix_semantics(XorFlavor::Cerasure, 4, 2, 64);
        assert_bitmatrix_semantics(XorFlavor::Cerasure, 8, 4, 64);
    }

    #[test]
    fn decode_repairs_data() {
        let xc = XorCode::new(6, 3, XorFlavor::Cerasure).unwrap();
        let data = make_data(6, 96);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = xc.encode_vec(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        shards[1] = None;
        shards[4] = None;
        shards[7] = None;
        xc.decode(&mut shards).unwrap();
        assert_eq!(shards[1].as_ref().unwrap(), &data[1]);
        assert_eq!(shards[4].as_ref().unwrap(), &data[4]);
        assert_eq!(shards[7].as_ref().unwrap(), &parity[1]);
    }

    #[test]
    fn optimized_flavors_have_fewer_ops() {
        let k = 8;
        let m = 4;
        let plain = XorCode::new(k, m, XorFlavor::Plain).unwrap();
        let zer = XorCode::new(k, m, XorFlavor::Zerasure).unwrap();
        let cer = XorCode::new(k, m, XorFlavor::Cerasure).unwrap();
        assert!(zer.schedule().op_count() < plain.schedule().op_count());
        assert!(cer.schedule().op_count() < plain.schedule().op_count());
    }

    /// The schedules the figures simulate, pinned: any change to the
    /// matrix searches or the CSE moves these before it moves a table.
    #[test]
    fn paper_shape_schedules_are_pinned() {
        for (k, m, flavor, ops, temps) in [
            (12, 8, XorFlavor::Cerasure, 1530, 372),
            (12, 8, XorFlavor::Zerasure, 1559, 376),
            (28, 24, XorFlavor::Cerasure, 9483, 2328),
            (28, 24, XorFlavor::Zerasure, 9514, 2318),
        ] {
            let code = XorCode::new(k, m, flavor).unwrap();
            let s = code.schedule();
            assert_eq!(
                (s.op_count(), s.n_temps),
                (ops, temps),
                "({k}, {m}) {flavor:?}"
            );
        }
    }

    /// The widest figure code's schedule builds in well under the time a
    /// figure table takes to simulate.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "a release-build time bound")]
    fn wide_zerasure_builds_in_two_seconds() {
        let started = std::time::Instant::now();
        XorCode::new(28, 24, XorFlavor::Zerasure).unwrap();
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 2.0, "(28, 24) Zerasure took {took:?}");
    }

    #[test]
    fn decode_schedule_denser_than_encode() {
        // The §5.4 effect: decode bitmatrices are dense, schedules long.
        let xc = XorCode::new(6, 3, XorFlavor::Cerasure).unwrap();
        let enc_ops_per_out = xc.schedule().op_count() as f64 / 3.0;
        let dec = xc.decode_schedule(&[2, 3, 4, 5, 6, 7], &[0, 1]).unwrap();
        let dec_ops_per_out = dec.op_count() as f64 / 2.0;
        assert!(
            dec_ops_per_out > enc_ops_per_out,
            "decode {dec_ops_per_out} <= encode {enc_ops_per_out}"
        );
    }

    #[test]
    fn decode_schedule_refuses_out_of_range_indices() {
        let xc = XorCode::new(6, 3, XorFlavor::Cerasure).unwrap();
        let survivors = [1, 2, 3, 4, 5, 7];
        for lost in [6, 8, 9, usize::MAX] {
            assert_eq!(
                xc.decode_schedule(&survivors, &[0, lost]).unwrap_err(),
                EcError::BlockCount {
                    expected: 6,
                    got: lost
                },
                "lost = {lost}"
            );
        }
        assert_eq!(
            xc.decode_schedule(&[1, 2, 3, 4, 5, 9], &[0]).unwrap_err(),
            EcError::BlockCount {
                expected: 9,
                got: 9
            }
        );
        assert!(xc.decode_schedule(&survivors, &[0]).is_ok());
    }

    #[test]
    fn unaligned_length_rejected() {
        let xc = XorCode::new(3, 2, XorFlavor::Plain).unwrap();
        let data = make_data(3, 13); // not a multiple of 8
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert!(matches!(
            xc.encode_vec(&refs),
            Err(EcError::BlockLength { .. })
        ));
    }
}
