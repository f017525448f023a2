//! Seeded inputs: the stripe corpus and the op sequences. Everything the
//! system under test receives is generated here from `--seed` with the
//! in-tree [`Rng`]; the same seed gives the same inputs.

use crate::spec::{Workload, GROUP_DECODES, GROUP_ENCODES, GROUP_OPS, GROUP_REPAIRS, GROUP_SCRUBS};
use dialga::Dialga;
use dialga_testkit::Rng;

/// Service operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Stripe write: k data blocks in, m parity blocks out.
    Encode,
    /// Degraded read: one lost data shard rebuilt.
    Repair,
    /// Two lost shards reconstructed.
    Decode,
    /// Integrity scrub of a clean stripe.
    Scrub,
}

impl Class {
    /// All classes, in reporting order.
    pub const ALL: [Class; 4] = [Class::Encode, Class::Repair, Class::Decode, Class::Scrub];

    /// Index into per-class arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Encode => "encode",
            Class::Repair => "repair",
            Class::Decode => "decode",
            Class::Scrub => "scrub",
        }
    }
}

/// One service operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Class.
    pub class: Class,
    /// Corpus stripe it works on.
    pub stripe: usize,
    /// Submitting tenant.
    pub tenant: u32,
    /// Lost shards: `lost[0]` (a data shard) for a repair, both for a
    /// decode (any two distinct shards), unused otherwise.
    pub lost: [usize; 2],
}

/// The seeded stripe corpus with its reference parity.
pub struct Corpus {
    /// `stripes x k` data blocks.
    pub data: Vec<Vec<Vec<u8>>>,
    /// `stripes x m` reference parity blocks, from [`Dialga::encode_vec`].
    pub parity: Vec<Vec<Vec<u8>>>,
}

impl Corpus {
    /// Generate the corpus for `w` from `seed` and encode its reference
    /// parity with the serial coder.
    pub fn generate(w: &Workload, seed: u64, coder: &Dialga) -> Result<Corpus, String> {
        let mut rng = Rng::new(seed ^ 0xC0_4B05);
        let mut data = Vec::with_capacity(w.corpus_stripes);
        let mut parity = Vec::with_capacity(w.corpus_stripes);
        for _ in 0..w.corpus_stripes {
            let stripe: Vec<Vec<u8>> = (0..w.k).map(|_| rng.bytes(w.block)).collect();
            let refs: Vec<&[u8]> = stripe.iter().map(Vec::as_slice).collect();
            parity.push(
                coder
                    .encode_vec(&refs)
                    .map_err(|e| format!("reference encode: {e}"))?,
            );
            data.push(stripe);
        }
        Ok(Corpus { data, parity })
    }

    /// Shard `i` (data first, then parity) of `stripe`.
    pub fn shard(&self, stripe: usize, i: usize) -> &[u8] {
        let k = self.data[stripe].len();
        if i < k {
            &self.data[stripe][i]
        } else {
            &self.parity[stripe][i - k]
        }
    }

    /// All `k + m` shards of `stripe`, cloned.
    pub fn all_shards(&self, stripe: usize) -> Vec<Vec<u8>> {
        self.data[stripe]
            .iter()
            .chain(self.parity[stripe].iter())
            .cloned()
            .collect()
    }

    /// The `k` data blocks of `stripe` as slices.
    pub fn data_refs(&self, stripe: usize) -> Vec<&[u8]> {
        self.data[stripe].iter().map(Vec::as_slice).collect()
    }
}

/// Generator of the service op sequence: groups of [`GROUP_OPS`] ops with
/// a fixed class composition, shuffled, on uniformly drawn stripes.
pub struct OpGen {
    rng: Rng,
    k: usize,
    m: usize,
    stripes: usize,
    tenants: u32,
    issued: u64,
}

impl OpGen {
    /// The sequence for workload `w` and `seed`.
    pub fn new(w: &Workload, seed: u64) -> OpGen {
        OpGen {
            rng: Rng::new(seed ^ 0x0095_5EED),
            k: w.k,
            m: w.m,
            stripes: w.corpus_stripes,
            tenants: w.tenants.max(1),
            issued: 0,
        }
    }

    /// The next group of ops.
    pub fn next_group(&mut self) -> Vec<Op> {
        let mut classes = Vec::with_capacity(GROUP_OPS);
        classes.extend(std::iter::repeat_n(Class::Encode, GROUP_ENCODES));
        classes.extend(std::iter::repeat_n(Class::Repair, GROUP_REPAIRS));
        classes.extend(std::iter::repeat_n(Class::Decode, GROUP_DECODES));
        classes.extend(std::iter::repeat_n(Class::Scrub, GROUP_SCRUBS));
        debug_assert_eq!(classes.len(), GROUP_OPS);
        self.rng.shuffle(&mut classes);
        classes
            .into_iter()
            .map(|class| {
                let stripe = self.rng.range(0, self.stripes);
                let first = self.rng.range(0, self.k);
                // Second lost shard: any other of the k + m.
                let mut second = self.rng.range(0, self.k + self.m - 1);
                if second >= first {
                    second += 1;
                }
                let tenant = (self.issued % self.tenants as u64) as u32;
                self.issued += 1;
                Op {
                    class,
                    stripe,
                    tenant,
                    lost: [first, second],
                }
            })
            .collect()
    }
}

/// One store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOp {
    /// `true` = `write_stripe`, `false` = `read_stripe`.
    pub put: bool,
    /// Store stripe, uniform over the store.
    pub stripe: usize,
    /// Corpus stripe a put writes.
    pub payload: usize,
}

/// Generator of the store op sequence: groups of ten (7 puts, 3 gets),
/// shuffled.
pub struct StoreOpGen {
    rng: Rng,
    store_stripes: usize,
    corpus_stripes: usize,
}

impl StoreOpGen {
    /// The sequence for workload `w` and `seed`.
    pub fn new(w: &Workload, seed: u64) -> StoreOpGen {
        StoreOpGen {
            rng: Rng::new(seed ^ 0x0057_08E5),
            store_stripes: w.store_stripes,
            corpus_stripes: w.corpus_stripes,
        }
    }

    /// The next ten ops.
    pub fn next_ten(&mut self) -> Vec<StoreOp> {
        let mut puts = [
            true, true, true, true, true, true, true, false, false, false,
        ];
        self.rng.shuffle(&mut puts);
        puts.iter()
            .map(|&put| StoreOp {
                put,
                stripe: self.rng.range(0, self.store_stripes),
                payload: self.rng.range(0, self.corpus_stripes),
            })
            .collect()
    }
}

/// FNV-1a digest of the first `groups` service groups and `groups` store
/// tens of `(w, seed)`: equal for equal inputs, different otherwise.
pub fn sequence_digest(w: &Workload, seed: u64, groups: usize) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let mut ops = OpGen::new(w, seed);
    let mut store = StoreOpGen::new(w, seed);
    for _ in 0..groups {
        for op in ops.next_group() {
            mix(op.class.index() as u64);
            mix(op.stripe as u64);
            mix(op.tenant as u64);
            mix(op.lost[0] as u64);
            mix(op.lost[1] as u64);
        }
        for op in store.next_ten() {
            mix(op.put as u64);
            mix(op.stripe as u64);
            mix(op.payload as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        for w in &WORKLOADS {
            assert_eq!(sequence_digest(w, 7, 20), sequence_digest(w, 7, 20));
            assert_ne!(sequence_digest(w, 7, 20), sequence_digest(w, 8, 20));
        }
    }

    #[test]
    fn groups_have_the_fixed_composition_and_valid_targets() {
        for w in &WORKLOADS {
            let mut gen = OpGen::new(w, 3);
            for _ in 0..50 {
                let group = gen.next_group();
                assert_eq!(group.len(), GROUP_OPS);
                let count = |c| group.iter().filter(|op| op.class == c).count();
                assert_eq!(count(Class::Encode), GROUP_ENCODES);
                assert_eq!(count(Class::Repair), GROUP_REPAIRS);
                assert_eq!(count(Class::Decode), GROUP_DECODES);
                assert_eq!(count(Class::Scrub), GROUP_SCRUBS);
                for op in &group {
                    assert!(op.stripe < w.corpus_stripes);
                    assert!(op.tenant < w.tenants);
                    assert!(op.lost[0] < w.k);
                    assert!(op.lost[1] < w.k + w.m);
                    assert_ne!(op.lost[0], op.lost[1]);
                }
            }
            let mut store = StoreOpGen::new(w, 3);
            let ten = store.next_ten();
            assert_eq!(ten.iter().filter(|op| op.put).count(), 7);
            assert!(ten.iter().all(|op| op.stripe < w.store_stripes));
        }
    }

    #[test]
    fn corpus_is_seeded_and_parity_is_the_reference() {
        let w = &WORKLOADS[1];
        let coder = Dialga::new(w.k, w.m).unwrap();
        let a = Corpus::generate(w, 1, &coder).unwrap();
        let b = Corpus::generate(w, 1, &coder).unwrap();
        let c = Corpus::generate(w, 2, &coder).unwrap();
        assert_eq!(a.data, b.data);
        assert_ne!(a.data, c.data);
        assert_eq!(a.parity[0], coder.encode_vec(&a.data_refs(0)).unwrap());
        assert_eq!(a.all_shards(0).len(), w.k + w.m);
        assert_eq!(a.shard(0, w.k), a.parity[0][0].as_slice());
    }
}
