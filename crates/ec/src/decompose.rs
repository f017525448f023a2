//! Wide-stripe decomposition (the "decompose" strategy of Cerasure and
//! ISA-L-D in §5.1).
//!
//! A wide stripe RS(k+m, k) with k beyond the hardware prefetcher's stream
//! budget is split into `ceil(k / sub_k)` sub-stripes of at most `sub_k`
//! data blocks. Each sub-stripe is encoded with its slice of the parity
//! matrix and the partial parities are XOR-accumulated. This re-activates
//! the hardware prefetcher (few streams per pass) but *re-reads and
//! re-writes the parity blocks once per sub-stripe* — the extra write
//! traffic and parity reloading the paper charges against this strategy
//! (§5.2.1, §5.7).

use crate::{CodeParams, EcError, ReedSolomon};
use dialga_gf::slice::mul_add_slice;

/// A decomposed wide-stripe encoder built on a full-width RS code.
#[derive(Debug, Clone)]
pub struct DecomposedRs {
    inner: ReedSolomon,
    sub_k: usize,
}

impl DecomposedRs {
    /// Wrap an RS code, splitting encodes into sub-stripes of at most
    /// `sub_k` data blocks. `sub_k` defaults in the paper's comparison to
    /// the same size Cerasure uses (we default to 24 at call sites).
    pub fn new(inner: ReedSolomon, sub_k: usize) -> Result<Self, EcError> {
        if sub_k == 0 {
            return Err(EcError::InvalidParams {
                k: inner.params().k,
                m: inner.params().m,
                reason: "sub_k must be positive",
            });
        }
        Ok(DecomposedRs { inner, sub_k })
    }

    /// Geometry of the full code.
    pub fn params(&self) -> CodeParams {
        self.inner.params()
    }

    /// Sub-stripe width.
    pub fn sub_k(&self) -> usize {
        self.sub_k
    }

    /// The wrapped full-width code.
    pub fn inner(&self) -> &ReedSolomon {
        &self.inner
    }

    /// Number of encode passes (`ceil(k / sub_k)`); pass count - 1 is the
    /// number of parity reload rounds the timing model charges.
    pub fn passes(&self) -> usize {
        self.inner.params().k.div_ceil(self.sub_k)
    }

    /// Ranges of data-block indices per pass.
    pub fn pass_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let k = self.inner.params().k;
        (0..self.passes())
            .map(|p| p * self.sub_k..((p + 1) * self.sub_k).min(k))
            .collect()
    }

    /// Encode by sub-stripe accumulation. Produces parity identical to the
    /// full-width encode (verified by tests) while touching only `sub_k`
    /// data streams per pass.
    pub fn encode_vec(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError> {
        let params = self.inner.params();
        if data.len() != params.k {
            return Err(EcError::BlockCount {
                expected: params.k,
                got: data.len(),
            });
        }
        let len = data[0].len();
        for d in data {
            if d.len() != len {
                return Err(EcError::BlockLength {
                    expected: len,
                    got: d.len(),
                });
            }
        }
        let pm = self.inner.parity_matrix();
        let mut parity = vec![vec![0u8; len]; params.m];
        for range in self.pass_ranges() {
            // One pass: accumulate this sub-stripe's contribution into every
            // parity block (the parity "reload").
            for (i, p) in parity.iter_mut().enumerate() {
                for j in range.clone() {
                    mul_add_slice(pm[(i, j)].0, data[j], p);
                }
            }
        }
        Ok(parity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 37 + j * 11 + 1) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn decomposed_matches_full_encode() {
        for (k, m, sub_k) in [(48, 4, 24), (52 - 4, 4, 16), (12, 4, 5)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let dec = DecomposedRs::new(rs.clone(), sub_k).unwrap();
            let data = make_data(k, 64);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            assert_eq!(
                dec.encode_vec(&refs).unwrap(),
                rs.encode_vec(&refs).unwrap()
            );
        }
    }

    #[test]
    fn pass_ranges_cover_exactly() {
        let rs = ReedSolomon::new(50, 4).unwrap();
        let dec = DecomposedRs::new(rs, 24).unwrap();
        assert_eq!(dec.passes(), 3);
        let ranges = dec.pass_ranges();
        assert_eq!(ranges.len(), 3);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 50);
        assert_eq!(ranges[0], 0..24);
        assert_eq!(ranges[2], 48..50);
    }

    #[test]
    fn sub_k_of_k_is_single_pass() {
        let rs = ReedSolomon::new(12, 4).unwrap();
        let dec = DecomposedRs::new(rs, 12).unwrap();
        assert_eq!(dec.passes(), 1);
    }

    #[test]
    fn zero_sub_k_rejected() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        assert!(DecomposedRs::new(rs, 0).is_err());
    }

    #[test]
    fn decomposed_parity_decodable() {
        let k = 40;
        let rs = ReedSolomon::new(k, 4).unwrap();
        let dec = DecomposedRs::new(rs.clone(), 16).unwrap();
        let data = make_data(k, 32);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = dec.encode_vec(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[3] = None;
        shards[17] = None;
        rs.decode(&mut shards).unwrap();
        assert_eq!(shards[3].as_ref().unwrap(), &data[3]);
        assert_eq!(shards[17].as_ref().unwrap(), &data[17]);
    }
}
