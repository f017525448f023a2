//! Locally Repairable Codes, Azure-style LRC(k, m, l) (§4.1 "Other Coding
//! Tasks", Fig. 16).
//!
//! The k data blocks are split into `l` equal groups; each group gets one
//! local XOR parity, and the whole stripe gets `m` global RS parities.
//! Single failures inside a group repair by reading only `k/l` blocks;
//! bigger failures fall back to global decoding. Encoding still reads all k
//! data blocks (the paper's point: the load bottleneck is the same as RS),
//! but stores `m + l` parity blocks.

use crate::{CodeParams, EcError, ReedSolomon};
use dialga_gf::slice::xor_slice;

/// The read set for repairing one lost data block from its local group:
/// which peers and which parity to fetch. Built by
/// [`Lrc::local_repair_plan`]; the persistent pool and the repair-path
/// bench schedule their reads from this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalRepairPlan {
    /// The lost block's group.
    pub group: usize,
    /// Surviving peer data-block indices to read (`k/l − 1` of them).
    pub peers: Vec<usize>,
    /// Index of the group's local parity within the encoded parity array
    /// (after the `m` global parities — i.e. `m + group`).
    pub parity_index: usize,
}

/// An LRC(k, m, l) code: `l` local XOR parities over equal groups plus `m`
/// global Reed–Solomon parities.
///
/// # Examples
///
/// ```
/// use dialga_ec::Lrc;
///
/// let lrc = Lrc::new(6, 2, 2).unwrap(); // two groups of 3
/// let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 32]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
/// let parity = lrc.encode_vec(&refs).unwrap();
///
/// // Single failure in group 0: local repair reads only 2 peers + 1 parity.
/// let peers: Vec<&[u8]> = vec![refs[0], refs[2]];
/// let repaired = lrc.repair_local(1, &peers, &parity[2]).unwrap();
/// assert_eq!(repaired, data[1]);
/// ```
#[derive(Debug, Clone)]
pub struct Lrc {
    global: ReedSolomon,
    l: usize,
}

impl Lrc {
    /// Build LRC(k, m, l). `l` must divide `k` evenly.
    pub fn new(k: usize, m: usize, l: usize) -> Result<Self, EcError> {
        if l == 0 || !k.is_multiple_of(l) {
            return Err(EcError::InvalidGroups { l, k });
        }
        Ok(Lrc {
            global: ReedSolomon::new(k, m)?,
            l,
        })
    }

    /// Global-code geometry (k data, m global parities).
    pub fn params(&self) -> CodeParams {
        self.global.params()
    }

    /// Number of local groups.
    pub fn groups(&self) -> usize {
        self.l
    }

    /// Blocks per local group.
    pub fn group_size(&self) -> usize {
        self.global.params().k / self.l
    }

    /// Total parity blocks produced per stripe (m global + l local).
    pub fn parity_count(&self) -> usize {
        self.global.params().m + self.l
    }

    /// The inner global RS code.
    pub fn global_code(&self) -> &ReedSolomon {
        &self.global
    }

    /// Encode: returns `m` global parities followed by `l` local parities.
    pub fn encode_vec(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError> {
        let k = self.global.params().k;
        if data.len() != k {
            return Err(EcError::BlockCount {
                expected: k,
                got: data.len(),
            });
        }
        let mut out = self.global.encode_vec(data)?;
        let len = data[0].len();
        let gs = self.group_size();
        for g in 0..self.l {
            let mut local = vec![0u8; len];
            for d in &data[g * gs..(g + 1) * gs] {
                xor_slice(d, &mut local);
            }
            out.push(local);
        }
        Ok(out)
    }

    /// Plan a single-block local repair: the peers and parity to read for
    /// rebuilding data block `lost` from its group alone.
    pub fn local_repair_plan(&self, lost: usize) -> Result<LocalRepairPlan, EcError> {
        let k = self.global.params().k;
        if lost >= k {
            return Err(EcError::BlockCount {
                expected: k,
                got: lost,
            });
        }
        let group = self.group_of(lost);
        let gs = self.group_size();
        Ok(LocalRepairPlan {
            group,
            peers: (group * gs..(group + 1) * gs)
                .filter(|&i| i != lost)
                .collect(),
            parity_index: self.global.params().m + group,
        })
    }

    /// Repair a single lost *data* block using only its local group
    /// (reads `k/l - 1` data blocks + 1 local parity).
    pub fn repair_local(
        &self,
        lost: usize,
        group_data: &[&[u8]],
        local_parity: &[u8],
    ) -> Result<Vec<u8>, EcError> {
        let mut out = vec![0u8; local_parity.len()];
        self.repair_local_into(lost, group_data, local_parity, &mut out)?;
        Ok(out)
    }

    /// In-place variant of [`Self::repair_local`]: writes the rebuilt
    /// block into `out` (which must match the parity length) instead of
    /// allocating.
    pub fn repair_local_into(
        &self,
        lost: usize,
        group_data: &[&[u8]],
        local_parity: &[u8],
        out: &mut [u8],
    ) -> Result<(), EcError> {
        let gs = self.group_size();
        if lost >= self.global.params().k {
            return Err(EcError::BlockCount {
                expected: self.global.params().k,
                got: lost,
            });
        }
        if group_data.len() != gs - 1 {
            return Err(EcError::BlockCount {
                expected: gs - 1,
                got: group_data.len(),
            });
        }
        if out.len() != local_parity.len() {
            return Err(EcError::BlockLength {
                expected: local_parity.len(),
                got: out.len(),
            });
        }
        for d in group_data {
            if d.len() != local_parity.len() {
                return Err(EcError::BlockLength {
                    expected: local_parity.len(),
                    got: d.len(),
                });
            }
        }
        out.copy_from_slice(local_parity);
        for d in group_data {
            xor_slice(d, out);
        }
        Ok(())
    }

    /// Group index of a data block.
    pub fn group_of(&self, block: usize) -> usize {
        block / self.group_size()
    }

    /// Full-stripe decode. `shards` holds k data, then m global parities,
    /// then l local parities (`k + m + l` entries). Uses local repair when
    /// a group has exactly one loss and its local parity survives,
    /// otherwise global RS decode; finally recomputes lost parities.
    #[allow(clippy::needless_range_loop)] // shards are addressed by block id
    pub fn decode(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        let (k, m) = (self.global.params().k, self.global.params().m);
        let expected = k + m + self.l;
        if shards.len() != expected {
            return Err(EcError::BlockCount {
                expected,
                got: shards.len(),
            });
        }
        let gs = self.group_size();

        // Pass 1: local repairs.
        for g in 0..self.l {
            let lp_idx = k + m + g;
            if shards[lp_idx].is_none() {
                continue;
            }
            let lost_in_group: Vec<usize> = (g * gs..(g + 1) * gs)
                .filter(|&i| shards[i].is_none())
                .collect();
            if lost_in_group.len() == 1 {
                let lost = lost_in_group[0];
                let mut out =
                    crate::present_shard(shards, lp_idx, "LRC local parity absent")?.clone();
                for i in g * gs..(g + 1) * gs {
                    if i != lost {
                        let s = crate::present_shard(shards, i, "LRC group survivor absent")?;
                        xor_slice(s, &mut out);
                    }
                }
                shards[lost] = Some(out);
            }
        }

        // Pass 2: global decode for whatever data/global-parity is missing.
        {
            let mut global_shards: Vec<Option<Vec<u8>>> = shards[..k + m].to_vec();
            let still_lost = global_shards.iter().filter(|s| s.is_none()).count();
            if still_lost > 0 {
                self.global.decode(&mut global_shards)?;
                shards[..k + m].clone_from_slice(&global_shards);
            }
        }

        // Pass 3: recompute missing local parities from repaired data.
        for g in 0..self.l {
            let lp_idx = k + m + g;
            if shards[lp_idx].is_some() {
                continue;
            }
            let len = crate::present_shard(shards, 0, "LRC data shard absent after decode")?.len();
            let mut local = vec![0u8; len];
            for i in g * gs..(g + 1) * gs {
                let s = crate::present_shard(shards, i, "LRC data shard absent after decode")?;
                xor_slice(s, &mut local);
            }
            shards[lp_idx] = Some(local);
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
                    .map(|j| ((i * 53 + j * 29 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn encode_all(lrc: &Lrc, data: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = lrc.encode_vec(&refs).unwrap();
        data.iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect()
    }

    #[test]
    fn geometry() {
        let lrc = Lrc::new(12, 4, 2).unwrap();
        assert_eq!(lrc.group_size(), 6);
        assert_eq!(lrc.parity_count(), 6);
        assert_eq!(lrc.group_of(0), 0);
        assert_eq!(lrc.group_of(6), 1);
    }

    #[test]
    fn invalid_groups_rejected() {
        assert!(Lrc::new(12, 4, 5).is_err()); // 5 does not divide 12
        assert!(Lrc::new(12, 4, 0).is_err());
    }

    #[test]
    fn local_repair_single_failure() {
        let lrc = Lrc::new(12, 4, 2).unwrap();
        let data = make_data(12, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = lrc.encode_vec(&refs).unwrap();
        // Lose block 3 (group 0); repair from the 5 peers + local parity 0.
        let peers: Vec<&[u8]> = (0..6).filter(|&i| i != 3).map(|i| refs[i]).collect();
        let repaired = lrc.repair_local(3, &peers, &parity[4]).unwrap();
        assert_eq!(repaired, data[3]);
    }

    #[test]
    fn local_repair_plan_names_the_read_set() {
        let lrc = Lrc::new(12, 4, 2).unwrap();
        let plan = lrc.local_repair_plan(8).unwrap();
        assert_eq!(plan.group, 1);
        assert_eq!(plan.peers, vec![6, 7, 9, 10, 11]);
        assert_eq!(plan.parity_index, 5); // m + group
        assert!(lrc.local_repair_plan(12).is_err());

        // The planned read set actually repairs the block.
        let data = make_data(12, 96);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = lrc.encode_vec(&refs).unwrap();
        let peers: Vec<&[u8]> = plan.peers.iter().map(|&i| refs[i]).collect();
        let repaired = lrc
            .repair_local(8, &peers, &parity[plan.parity_index])
            .unwrap();
        assert_eq!(repaired, data[8]);
    }

    #[test]
    fn repair_local_into_matches_alloc_variant() {
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let data = make_data(6, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = lrc.encode_vec(&refs).unwrap();
        let peers: Vec<&[u8]> = vec![refs[0], refs[2]];
        let alloc = lrc.repair_local(1, &peers, &parity[2]).unwrap();
        let mut out = vec![0u8; 64];
        lrc.repair_local_into(1, &peers, &parity[2], &mut out)
            .unwrap();
        assert_eq!(out, alloc);
        assert_eq!(out, data[1]);
        // Wrong output length is rejected, not truncated.
        let mut short = vec![0u8; 32];
        assert!(matches!(
            lrc.repair_local_into(1, &peers, &parity[2], &mut short),
            Err(EcError::BlockLength { .. })
        ));
    }

    #[test]
    fn full_decode_mixed_failures() {
        let lrc = Lrc::new(12, 4, 2).unwrap();
        let data = make_data(12, 64);
        let mut shards = encode_all(&lrc, &data);
        let originals = shards.clone();
        // One local-repairable loss, two global losses, one local parity.
        shards[2] = None; // group 0, single loss -> local repair
        shards[6] = None; // group 1
        shards[8] = None; // group 1 (two losses -> global decode)
        shards[17] = None; // local parity of group 1
        lrc.decode(&mut shards).unwrap();
        assert_eq!(shards, originals);
    }

    #[test]
    fn decode_with_all_global_parity_lost() {
        let lrc = Lrc::new(8, 2, 2).unwrap();
        let data = make_data(8, 32);
        let mut shards = encode_all(&lrc, &data);
        let originals = shards.clone();
        shards[8] = None;
        shards[9] = None;
        lrc.decode(&mut shards).unwrap();
        assert_eq!(shards, originals);
    }

    #[test]
    fn too_many_global_losses_error() {
        let lrc = Lrc::new(8, 2, 2).unwrap();
        let data = make_data(8, 32);
        let mut shards = encode_all(&lrc, &data);
        // Three data losses in one group: local parity can't help, global
        // tolerance (2) exceeded.
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert!(matches!(
            lrc.decode(&mut shards),
            Err(EcError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn paper_lrc_geometries_roundtrip() {
        for (k, m, l) in [(12, 4, 2), (24, 4, 4), (48, 4, 4)] {
            let lrc = Lrc::new(k, m, l).unwrap();
            let data = make_data(k, 32);
            let mut shards = encode_all(&lrc, &data);
            let originals = shards.clone();
            shards[k - 1] = None;
            shards[k + 1] = None;
            lrc.decode(&mut shards).unwrap();
            assert_eq!(shards, originals, "LRC({k},{m},{l})");
        }
    }
}
