//! Table-driven Reed–Solomon coding (the ISA-L style of the paper), kept
//! portable: the scalar reference the fused kernels are held to.
//!
//! Encoding accumulates each parity row from the k data blocks with the
//! portable table kernel (`mul_add_slice_tab` over ISA-L's `ec_init_tables`
//! tables). Decoding inverts the k surviving generator rows whole
//! ([`ReedSolomon::decode_matrix`]), rebuilds the lost data from the
//! survivors, then re-encodes the lost parity from the data. None of it
//! shares code with the vector tiers of `dialga_gf::simd`: the coder built
//! on this code's tables (`dialga::encoder::Dialga`) runs the fused kernel
//! with the paper's load-once access pattern (§3), and its one-pass decode
//! ([`GfMatrix::decode_rows`]) is checked against this two-stage one.

use crate::{check_blocks, check_count, CodeParams, EcError, GfMatrix};
use dialga_gf::slice::{mul_add_slice, mul_add_slice_tab};
use dialga_gf::tables::NibbleTables;
use dialga_gf::Gf8;

/// Which parity-matrix construction to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixKind {
    /// Cauchy construction — MDS for every (k, m) with k+m <= 255 (default).
    #[default]
    Cauchy,
    /// ISA-L-style Vandermonde-derived systematic construction.
    Vandermonde,
}

/// A systematic Reed–Solomon code over GF(2^8).
///
/// # Examples
///
/// ```
/// use dialga_ec::ReedSolomon;
///
/// let rs = ReedSolomon::new(4, 2).unwrap(); // RS(6,4)
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 64]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
/// let parity = rs.encode_vec(&refs).unwrap();
///
/// // Lose two blocks, repair them.
/// let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some)
///     .chain(parity.into_iter().map(Some)).collect();
/// shards[1] = None;
/// shards[4] = None;
/// rs.decode(&mut shards).unwrap();
/// assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    params: CodeParams,
    /// m x k parity coefficients.
    parity: GfMatrix,
    /// Precomputed split-nibble tables, m x k (ISA-L's `ec_init_tables`).
    tables: Vec<NibbleTables>,
}

impl ReedSolomon {
    /// Build RS(k+m, k) with the default (Cauchy) matrix.
    pub fn new(k: usize, m: usize) -> Result<Self, EcError> {
        Self::with_matrix(k, m, MatrixKind::Cauchy)
    }

    /// Build RS(k+m, k) with an explicit matrix construction.
    pub fn with_matrix(k: usize, m: usize, kind: MatrixKind) -> Result<Self, EcError> {
        let params = CodeParams::new(k, m)?;
        let _ = params;
        let parity = match kind {
            MatrixKind::Cauchy => GfMatrix::cauchy_parity(k, m),
            MatrixKind::Vandermonde => GfMatrix::vandermonde_parity(k, m)?,
        };
        Self::from_parity_matrix(parity)
    }

    /// Build from a caller-supplied m x k parity matrix (used by the
    /// XOR-baseline searches, which choose Cauchy X/Y sets themselves).
    pub fn from_parity_matrix(parity: GfMatrix) -> Result<Self, EcError> {
        let params = CodeParams::new(parity.cols(), parity.rows())?;
        let mut tables = Vec::with_capacity(params.m * params.k);
        for i in 0..params.m {
            for j in 0..params.k {
                tables.push(NibbleTables::new(parity[(i, j)].0));
            }
        }
        Ok(ReedSolomon {
            params,
            parity,
            tables,
        })
    }

    /// Code geometry.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The m x k parity coefficient matrix.
    pub fn parity_matrix(&self) -> &GfMatrix {
        &self.parity
    }

    /// The precomputed split-nibble tables of the parity matrix, `m x k`
    /// row-major: the coefficient tables every encode kernel reads.
    pub fn tables(&self) -> &[NibbleTables] {
        &self.tables
    }

    /// Encode: compute all m parity blocks from the k data blocks.
    ///
    /// `parity` buffers are overwritten and must all match the data block
    /// length.
    pub fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), EcError> {
        let len = check_blocks(data, self.params.k, None)?;
        check_blocks(parity, self.params.m, Some(len))?;
        for (i, p) in parity.iter_mut().enumerate() {
            p.fill(0);
            self.accumulate(i, data, p);
        }
        Ok(())
    }

    /// Convenience encode returning freshly allocated parity blocks: each
    /// allocated zeroed once, and accumulated into.
    pub fn encode_vec(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError> {
        let len = check_blocks(data, self.params.k, None)?;
        let parity = (0..self.params.m).map(|i| {
            let mut p = vec![0u8; len];
            self.accumulate(i, data, &mut p);
            p
        });
        Ok(parity.collect())
    }

    /// Fold parity row `i` of `data` into `p` with the portable table
    /// kernel: the `ec_init_tables` + `gf_vect_mad` structure of ISA-L.
    fn accumulate(&self, i: usize, data: &[&[u8]], p: &mut [u8]) {
        let row = &self.tables[i * self.params.k..(i + 1) * self.params.k];
        for (t, d) in row.iter().zip(data) {
            mul_add_slice_tab(t, d, p);
        }
    }

    /// Build the k x k decode matrix for a set of surviving block indices
    /// (0..k are data blocks, k..k+m parity) by inverting it whole: what
    /// [`Self::decode`] runs, and the reference the tests hold
    /// [`GfMatrix::decode_rows`] to. A survivor outside the stripe
    /// (`>= k + m`) is [`EcError::BlockCount`].
    pub fn decode_matrix(&self, survivors: &[usize]) -> Result<GfMatrix, EcError> {
        let (k, n) = (self.params.k, self.params.n());
        check_count(survivors.len() == k, k, survivors.len())?;
        let mut rows = Vec::with_capacity(k);
        for &s in survivors {
            check_count(s < n, n, s)?;
            rows.push(match s.checked_sub(k) {
                Some(r) => self.parity.row(r).to_vec(),
                None => (0..k).map(|j| Gf8((j == s).into())).collect(),
            });
        }
        GfMatrix::from_rows(rows).inverse()
    }

    /// Reconstruct all missing blocks in place.
    ///
    /// `shards` must have k+m entries; `None` marks an erasure. On success
    /// every entry is `Some` and data entries contain the original bytes.
    pub fn decode(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        let (k, m) = (self.params.k, self.params.m);
        check_count(shards.len() == k + m, k + m, shards.len())?;
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
        let sources = survivors
            .iter()
            .map(|&s| crate::present_shard(shards, s, "RS survivor shard absent"))
            .collect::<Result<Vec<_>, _>>()?;
        let len = check_blocks(&sources, k, None)?;
        let dec = self.decode_matrix(survivors)?;

        // Reconstruct lost *data* blocks first.
        let (lost_data, lost_parity) = lost.split_at(lost.partition_point(|&i| i < k));
        let data: Vec<Vec<u8>> = lost_data
            .iter()
            .map(|&ld| {
                let mut out = vec![0u8; len];
                for (col, src) in sources.iter().enumerate() {
                    mul_add_slice(dec[(ld, col)].0, src, &mut out);
                }
                out
            })
            .collect();
        for (&ld, out) in lost_data.iter().zip(data) {
            shards[ld] = Some(out);
        }
        // Then re-encode any lost parity from the (now complete) data.
        for &lp in lost_parity {
            let mut out = vec![0u8; len];
            for (j, c) in self.parity.row(lp - k).iter().enumerate() {
                let src = crate::present_shard(shards, j, "RS data shard absent after rebuild")?;
                mul_add_slice(c.0, src, &mut out);
            }
            shards[lp] = Some(out);
        }
        Ok(())
    }

    /// Incremental parity update: when data block `idx` changes from `old`
    /// to `new`, fold the delta into every parity block without touching
    /// the other k-1 data blocks. (The update path studied by the CodePM /
    /// TVARAK line of work referenced in §7.)
    pub fn update_parity(
        &self,
        idx: usize,
        old: &[u8],
        new: &[u8],
        parity: &mut [&mut [u8]],
    ) -> Result<(), EcError> {
        check_count(idx < self.params.k, self.params.k, idx)?;
        let len = check_blocks(&[old, new], 2, None)?;
        check_blocks(parity, self.params.m, Some(len))?;
        // delta = old ^ new; parity_i ^= c_i * delta
        let mut delta = old.to_vec();
        dialga_gf::slice::xor_slice(new, &mut delta);
        for (i, p) in parity.iter_mut().enumerate() {
            mul_add_slice(self.parity[(i, idx)].0, &delta, p);
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
                    .map(|j| ((i * 131 + j * 17 + 5) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    fn roundtrip(k: usize, m: usize, len: usize, erase: &[usize]) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data = make_data(k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode_vec(&refs).unwrap();

        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        for &e in erase {
            shards[e] = None;
        }
        rs.decode(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d, "data block {i}");
        }
        for (i, p) in parity.iter().enumerate() {
            assert_eq!(shards[k + i].as_ref().unwrap(), p, "parity block {i}");
        }
    }

    #[test]
    fn encode_decode_no_erasure() {
        roundtrip(4, 2, 64, &[]);
    }

    #[test]
    fn repair_single_data_block() {
        roundtrip(4, 2, 64, &[1]);
    }

    #[test]
    fn repair_max_erasures() {
        roundtrip(6, 3, 128, &[0, 3, 7]); // two data + one parity
        roundtrip(6, 3, 128, &[6, 7, 8]); // all parity
        roundtrip(6, 3, 128, &[0, 1, 2]); // all data
    }

    #[test]
    fn paper_geometries() {
        roundtrip(12, 8, 96, &[0, 5, 13]);
        roundtrip(28, 24, 32, &[27, 30, 51]);
        roundtrip(48, 4, 32, &[10, 20, 30, 40]);
    }

    #[test]
    fn too_many_erasures_rejected() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = make_data(4, 16);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode_vec(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert!(matches!(
            rs.decode(&mut shards),
            Err(EcError::TooManyErasures {
                lost: 3,
                tolerance: 2
            })
        ));
    }

    #[test]
    fn decode_matrix_refuses_a_survivor_outside_the_stripe() {
        // Regression: `parity.row(s - k)` used to panic for s >= k + m.
        let rs = ReedSolomon::new(4, 2).unwrap();
        for s in [6, 7, usize::MAX] {
            assert_eq!(
                rs.decode_matrix(&[0, 1, 2, s]).unwrap_err(),
                EcError::BlockCount {
                    expected: 6,
                    got: s
                },
                "survivor {s}"
            );
        }
        assert!(rs.decode_matrix(&[0, 1, 4, 5]).is_ok());
    }

    #[test]
    fn vandermonde_m2_roundtrip() {
        let rs = ReedSolomon::with_matrix(8, 2, MatrixKind::Vandermonde).unwrap();
        let data = make_data(8, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode_vec(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[2] = None;
        shards[9] = None;
        rs.decode(&mut shards).unwrap();
        assert_eq!(shards[2].as_ref().unwrap(), &data[2]);
    }

    #[test]
    fn update_parity_matches_reencode() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let mut data = make_data(5, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = rs.encode_vec(&refs).unwrap();

        let old = data[2].clone();
        let new: Vec<u8> = old.iter().map(|b| b.wrapping_add(77)).collect();
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
            rs.update_parity(2, &old, &new, &mut prefs).unwrap();
        }
        data[2] = new;
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let expect = rs.encode_vec(&refs).unwrap();
        assert_eq!(parity, expect);
    }

    #[test]
    fn zero_length_blocks_ok() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data: Vec<Vec<u8>> = vec![vec![]; 3];
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode_vec(&refs).unwrap();
        assert!(parity.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let a = vec![0u8; 8];
        let b = vec![0u8; 9];
        let refs: Vec<&[u8]> = vec![&a, &b];
        assert!(matches!(
            rs.encode_vec(&refs),
            Err(EcError::BlockLength { .. })
        ));
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(2, 0).is_err());
        assert!(ReedSolomon::new(200, 60).is_err());
    }
}
