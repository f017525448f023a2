//! Functional DIALGA encoder/decoder on real bytes.
//!
//! Bit-exact with `dialga-ec`'s Reed–Solomon, organized the way the
//! paper's kernels are: the fused multi-output dot product
//! ([`dialga_gf::simd::dot_prod_fused`]) loads each 64 B source line once
//! and accumulates it into up to `FUSED_GROUP` register-resident parity
//! rows, with the Fig. 9 prefetch-pointer pipeline emitting real
//! `prefetcht0` hints `k` row steps ahead and tail bytes reverting to the
//! standard kernel. On non-PM hardware the prefetches are
//! performance-neutral; the kernel's tests hold every schedule (distance,
//! §4.3 long/short split, shuffle) to identical bytes.

use dialga_ec::{check_blocks, CodeParams, EcError, GfMatrix, ReedSolomon};
use dialga_gf::sched::FusedSched;
use dialga_gf::simd::{dot_prod_fused, dot_prod_fused_vec, dot_prod_syndromes};
use dialga_gf::tables::NibbleTables;
use dialga_gf::Gf8;

/// Row-pipelined multiply-accumulate: `outputs[i] = sum_j T[i][j] src[j]`
/// via the fused multi-output kernel — every 64 B source line is loaded
/// once per register-blocked output group, prefetched `sched.d` steps
/// ahead (long/short split per `sched.d_long`).
///
/// This is the kernel every serial DIALGA path into caller-owned outputs
/// bottoms out in (fresh outputs take [`dot_prod_fused_vec`], pool chunks
/// its write-only entry); `tables` is row-major, `outputs.len() x
/// sources.len()`. Scheduling never changes the bytes produced.
pub(crate) fn apply_tables(
    tables: &[NibbleTables],
    sources: &[&[u8]],
    outputs: &mut [&mut [u8]],
    sched: FusedSched,
) {
    if outputs.is_empty() {
        return;
    }
    dot_prod_fused(tables, sources, outputs, sched);
}

/// The split-nibble tables of every coefficient of `rows`, row-major.
fn nibble_tables(rows: &GfMatrix) -> Vec<NibbleTables> {
    let mut tables = Vec::with_capacity(rows.rows() * rows.cols());
    for i in 0..rows.rows() {
        tables.extend(rows.row(i).iter().map(|c| NibbleTables::new(c.0)));
    }
    tables
}

/// The common length of every present shard — not just the survivors': a
/// mismatched survivor would otherwise reach the kernel and panic, and a
/// mismatched non-survivor silently corrupt a later parity recompute.
fn present_len(shards: &[Option<Vec<u8>>]) -> Result<usize, EcError> {
    let len = shards.iter().flatten().next().map_or(0, Vec::len);
    match shards.iter().flatten().find(|s| s.len() != len) {
        Some(bad) => Err(EcError::BlockLength {
            expected: len,
            got: bad.len(),
        }),
        None => Ok(len),
    }
}

/// Check that `sources`/`outputs` agree with the table geometry and with
/// each other in length (the apply kernels index without bounds slack).
fn check_apply(
    n_src: usize,
    n_out: usize,
    sources: &[&[u8]],
    outputs: &[&mut [u8]],
) -> Result<(), EcError> {
    if sources.len() != n_src {
        return Err(EcError::BlockCount {
            expected: n_src,
            got: sources.len(),
        });
    }
    if outputs.len() != n_out {
        return Err(EcError::BlockCount {
            expected: n_out,
            got: outputs.len(),
        });
    }
    let len = sources.first().map_or(0, |s| s.len());
    for s in sources {
        if s.len() != len {
            return Err(EcError::BlockLength {
                expected: len,
                got: s.len(),
            });
        }
    }
    for o in outputs {
        if o.len() != len {
            return Err(EcError::BlockLength {
                expected: len,
                got: o.len(),
            });
        }
    }
    Ok(())
}

/// A decode plan: survivor selection and decode-matrix tables, separated
/// from kernel application so the kernel can be chunked across the
/// persistent pool's workers ([`Dialga::decode`] runs it serially).
///
/// Built by [`Dialga::decode_plan`]. Reconstruction is two stages: lost
/// *data* blocks from the k survivors (decode-matrix rows), then lost
/// *parity* rows from the completed data (the encode tables' subset for
/// just those rows — never all m rows).
#[derive(Debug, Clone)]
pub struct DecodePlan {
    survivors: Vec<usize>,
    /// Lost shard indices, ascending: the first `data_lost` are data.
    lost: Vec<usize>,
    data_lost: usize,
    data_tables: Vec<NibbleTables>,
    parity_tables: Vec<NibbleTables>,
    len: usize,
}

impl DecodePlan {
    /// The k survivor shard indices the data stage reads.
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// Lost data-block indices, ascending.
    pub fn lost_data(&self) -> &[usize] {
        &self.lost[..self.data_lost]
    }

    /// Lost parity shard indices (>= k), ascending.
    pub fn lost_parity(&self) -> &[usize] {
        &self.lost[self.data_lost..]
    }

    /// Common shard length (validated over every present shard).
    pub fn shard_len(&self) -> usize {
        self.len
    }

    /// Whether there is nothing to reconstruct.
    pub fn is_noop(&self) -> bool {
        self.lost.is_empty()
    }

    /// Data-stage tables, `lost_data.len() x survivors.len()` row-major.
    pub(crate) fn data_tables(&self) -> &[NibbleTables] {
        &self.data_tables
    }

    /// Parity-stage tables, `lost_parity.len() x k` row-major.
    pub(crate) fn parity_tables(&self) -> &[NibbleTables] {
        &self.parity_tables
    }
}

/// A single-block repair plan (the degraded-read fast path): one composed
/// coefficient row over k survivors, built by [`Dialga::repair_plan`].
///
/// Works for any target block — a lost *parity* target with lost data
/// among the non-survivors composes the parity row with those blocks'
/// decode rows, so the kernel still runs once over k sources.
#[derive(Debug, Clone)]
pub struct RepairPlan {
    survivors: Vec<usize>,
    tables: Vec<NibbleTables>,
}

impl RepairPlan {
    /// The k survivor shard indices the kernel reads, in source order.
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// The composed `1 x k` coefficient tables.
    pub(crate) fn tables(&self) -> &[NibbleTables] {
        &self.tables
    }

    /// Reconstruct the target block (or any equal-length horizontal chunk
    /// of it) from survivor slices in plan order, prefetching `d` steps
    /// ahead (no §4.3 split) in natural or shuffled row order.
    pub fn apply(
        &self,
        sources: &[&[u8]],
        out: &mut [u8],
        d: u32,
        shuffle: bool,
    ) -> Result<(), EcError> {
        let mut outputs = [out];
        check_apply(self.survivors.len(), 1, sources, &outputs)?;
        let mut sched = FusedSched::distance(d);
        sched.shuffle = shuffle;
        apply_tables(&self.tables, sources, &mut outputs, sched);
        Ok(())
    }
}

/// The DIALGA erasure coder: ISA-L-style table-driven Reed–Solomon with
/// pipelined software prefetching.
///
/// # Examples
///
/// ```
/// use dialga::encoder::Dialga;
///
/// let coder = Dialga::new(6, 2).unwrap();
/// let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8 * 7; 1024]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
/// let parity = coder.encode_vec(&refs).unwrap();
/// assert_eq!(parity.len(), 2);
///
/// // The prefetch schedule never changes the bytes produced.
/// let rs = dialga_ec::ReedSolomon::new(6, 2).unwrap();
/// assert_eq!(rs.encode_vec(&refs).unwrap(), parity);
/// ```
#[derive(Debug, Clone)]
pub struct Dialga {
    rs: ReedSolomon,
}

impl Dialga {
    /// Build RS(k+m, k).
    pub fn new(k: usize, m: usize) -> Result<Self, EcError> {
        Ok(Dialga {
            rs: ReedSolomon::new(k, m)?,
        })
    }

    /// Code geometry.
    pub fn params(&self) -> CodeParams {
        self.rs.params()
    }

    /// The prefetch distance in row-major cacheline steps: `k`, the
    /// paper's initial value.
    pub fn prefetch_distance(&self) -> u32 {
        self.params().k as u32
    }

    /// The schedule this coder's kernels run with, serially and on the
    /// pool: [`FusedSched::distance`] at [`Self::prefetch_distance`].
    pub(crate) fn sched(&self) -> FusedSched {
        FusedSched::distance(self.prefetch_distance())
    }

    /// The wrapped Reed–Solomon code.
    pub fn inner(&self) -> &ReedSolomon {
        &self.rs
    }

    /// The common length of a stripe's `data` and `parity` blocks,
    /// through [`check_blocks`]: data, then parity against the data.
    pub(crate) fn stripe_len<D: AsRef<[u8]>, B: AsRef<[u8]>>(
        &self,
        data: &[D],
        parity: &[B],
    ) -> Result<usize, EcError> {
        let params = self.params();
        let len = check_blocks(data, params.k, None)?;
        check_blocks(parity, params.m, Some(len))
    }

    /// The precomputed `m x k` encode tables (row-major per parity row),
    /// the wrapped code's own.
    pub(crate) fn tables(&self) -> &[NibbleTables] {
        self.rs.tables()
    }

    /// Encode the k data blocks into the m parity blocks.
    pub fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), EcError> {
        self.stripe_len(data, parity)?;
        apply_tables(self.tables(), data, parity, self.sched());
        Ok(())
    }

    /// Convenience encode returning freshly allocated parity, which the
    /// kernel writes once (never zero-filled first).
    pub fn encode_vec(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, EcError> {
        let CodeParams { k, m } = self.params();
        let len = check_blocks(data, k, None)?;
        Ok(dot_prod_fused_vec(
            self.tables(),
            data,
            m,
            len,
            self.sched(),
        ))
    }

    /// Build the reconstruction plan for the erasure pattern in `shards`:
    /// validate geometry and every present shard's length, select the k
    /// survivors, take the lost data rows from their parity minor
    /// ([`GfMatrix::decode_rows`]) and subset the encode tables
    /// for lost parity rows.
    pub fn decode_plan(&self, shards: &[Option<Vec<u8>>]) -> Result<DecodePlan, EcError> {
        let params = self.params();
        let (k, m) = (params.k, params.m);
        if shards.len() != k + m {
            return Err(EcError::BlockCount {
                expected: k + m,
                got: shards.len(),
            });
        }
        let mut lost = Vec::with_capacity(m);
        lost.extend((0..k + m).filter(|&i| shards[i].is_none()));
        if lost.len() > m {
            return Err(EcError::TooManyErasures {
                lost: lost.len(),
                tolerance: m,
            });
        }
        let len = present_len(shards)?;
        let mut survivors = Vec::with_capacity(k);
        survivors.extend((0..k + m).filter(|&i| shards[i].is_some()).take(k));
        let data_lost = lost.partition_point(|&i| i < k);
        let (lost_data, lost_parity) = lost.split_at(data_lost);

        let pm = self.rs.parity_matrix();
        let data_tables = nibble_tables(&pm.decode_rows(&survivors, lost_data)?);
        let mut parity_tables = Vec::with_capacity(lost_parity.len() * k);
        for &lp in lost_parity {
            parity_tables.extend_from_slice(&self.tables()[(lp - k) * k..(lp - k + 1) * k]);
        }
        Ok(DecodePlan {
            survivors,
            lost,
            data_lost,
            data_tables,
            parity_tables,
            len,
        })
    }

    /// The repair plan for block `target` of the full stripe `shards`
    /// (holes `None`), and the stripe's shard length: validate geometry
    /// and every present shard's length, as [`Self::decode_plan`] does, and
    /// plan over the first k present shards other than `target`.
    pub(crate) fn stripe_repair_plan(
        &self,
        shards: &[Option<Vec<u8>>],
        target: usize,
    ) -> Result<(RepairPlan, usize), EcError> {
        let CodeParams { k, m } = self.params();
        let wrong_count = (shards.len() != k + m).then_some(shards.len());
        if let Some(got) = wrong_count.or((target >= k + m).then_some(target)) {
            return Err(EcError::BlockCount {
                expected: k + m,
                got,
            });
        }
        let mut survivors = Vec::with_capacity(k);
        let present = (0..k + m).filter(|&i| i != target && shards[i].is_some());
        survivors.extend(present.take(k));
        if survivors.len() < k {
            let lost = shards.iter().filter(|s| s.is_none()).count().max(1);
            return Err(EcError::TooManyErasures { lost, tolerance: m });
        }
        let len = present_len(shards)?;
        let rows = self.rs.parity_matrix().decode_rows(&survivors, &[target])?;
        let tables = nibble_tables(&rows);
        Ok((RepairPlan { survivors, tables }, len))
    }

    /// The single-block repair plan that rebuilds block `target` from the
    /// given k survivors (the degraded-read fast path — one kernel pass,
    /// no full-stripe decode).
    ///
    /// For a data target this is its row of the decode matrix; a parity
    /// target's row is composed with the lost data's rows, so it works even
    /// when some data blocks are among the erasures. Both come from the
    /// parity minor ([`GfMatrix::decode_rows`]) on each call.
    pub fn repair_plan(&self, survivors: &[usize], target: usize) -> Result<RepairPlan, EcError> {
        let params = self.params();
        let (k, m) = (params.k, params.m);
        if target >= k + m {
            return Err(EcError::BlockCount {
                expected: k + m,
                got: target,
            });
        }
        if survivors.contains(&target) {
            return Err(EcError::BlockCount {
                expected: k,
                got: target,
            });
        }
        let rows = self.rs.parity_matrix().decode_rows(survivors, &[target])?;
        Ok(RepairPlan {
            survivors: survivors.to_vec(),
            tables: nibble_tables(&rows),
        })
    }

    /// Reconstruct missing blocks in place (same contract as
    /// [`ReedSolomon::decode`]); lost blocks are rebuilt with the
    /// pipelined kernel — decoding shares the encode load pattern (§4.1).
    pub fn decode(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        let plan = self.decode_plan(shards)?;
        if plan.is_noop() {
            return Ok(());
        }
        let len = plan.shard_len();
        let k = self.params().k;
        if !plan.lost_data().is_empty() {
            let srcs: Vec<&[u8]> = plan
                .survivors()
                .iter()
                .map(|&s| {
                    dialga_ec::present_shard(shards, s, "decode-plan survivor absent")
                        .map(|v| v.as_slice())
                })
                .collect::<Result<_, _>>()?;
            let (tables, n) = (plan.data_tables(), plan.lost_data().len());
            let outs = dot_prod_fused_vec(tables, &srcs, n, len, self.sched());
            for (&ld, out) in plan.lost_data().iter().zip(outs) {
                shards[ld] = Some(out);
            }
        }
        if !plan.lost_parity().is_empty() {
            let data_refs: Vec<&[u8]> = (0..k)
                .map(|i| {
                    dialga_ec::present_shard(shards, i, "data shard absent after rebuild")
                        .map(|v| v.as_slice())
                })
                .collect::<Result<_, _>>()?;
            let (tables, n) = (plan.parity_tables(), plan.lost_parity().len());
            let outs = dot_prod_fused_vec(tables, &data_refs, n, len, self.sched());
            for (&lp, out) in plan.lost_parity().iter().zip(outs) {
                shards[lp] = Some(out);
            }
        }
        Ok(())
    }

    /// Which parity rows disagree with parity recomputed from `data`
    /// (sorted ascending; one fused check pass, no scratch). Empty means
    /// the stripe is consistent. A corrupt *data* shard mismatches every
    /// row (all MDS parity coefficients are nonzero); a corrupt parity
    /// shard mismatches only its own row — the localization signal
    /// [`Self::scrub`] is built on.
    fn parity_syndromes(&self, data: &[&[u8]], parity: &[&[u8]]) -> Result<Vec<usize>, EcError> {
        self.stripe_len(data, parity)?;
        Ok(dialga_gf::simd::dot_prod_verify(
            self.tables(),
            data,
            parity,
            self.sched(),
        ))
    }

    /// Verify stripe integrity: one fused pass over `data` folds every
    /// parity line onto its stored line in `parity` and tests the result
    /// for zero in registers — nothing recomputed is stored, and nothing
    /// is allocated for a clean stripe
    /// ([`dialga_gf::simd::dot_prod_verify`]).
    ///
    /// On mismatch returns [`EcError::Corrupt`] naming the disagreeing
    /// *parity rows* (indices `k..k+m`). A mismatch proves the stripe is
    /// inconsistent but not *which* shard is bad — a corrupt data shard
    /// also trips every row. Use [`Self::scrub`] to localize.
    pub fn verify(&self, data: &[&[u8]], parity: &[&[u8]]) -> Result<(), EcError> {
        let k = self.params().k;
        let bad = self.parity_syndromes(data, parity)?;
        if bad.is_empty() {
            Ok(())
        } else {
            Err(EcError::Corrupt {
                shards: bad.into_iter().map(|r| k + r).collect(),
            })
        }
    }

    /// Localize corrupt shards in a full stripe: [`Self::locate`] with
    /// nothing erased.
    pub fn scrub(&self, shards: &[&[u8]]) -> Result<Vec<usize>, EcError> {
        self.locate(shards, &[])
    }

    /// Localize corrupt shards in a full stripe (data first) whose
    /// `erased` shards were just rebuilt from the others, so are untrusted.
    /// Returns the corrupt shards outside `erased`, sorted (empty = stripe
    /// consistent); [`EcError::Corrupt`] with the mismatching parity rows
    /// as evidence when the corruption is ambiguous or more than
    /// `max(m - 1, 1) - |erased|` shards.
    ///
    /// Syndrome decoding. With nothing erased, `|S| < m` mismatching rows
    /// can only be corrupt parity shards (a corrupt data byte trips *every*
    /// row: MDS coefficients are nonzero). Otherwise one more pass collects
    /// the *support* — the byte columns where some syndrome `S_i =
    /// parity_i ^ sum_j c_ij · data_j` is non-zero, with their `m` bytes;
    /// rebuilding the erased shards first keeps their clean columns out —
    /// and candidates `erased ∪ X` are tried on it alone in ascending
    /// `|X|` (`syndromes_fit`: nothing is cloned, decoded or re-verified).
    /// The unique fitting `X` at the smallest size is the answer (unique
    /// for one corrupt shard: MDS codewords differ in `m + 1` positions or
    /// more); two at one size are ambiguous.
    pub fn locate(&self, shards: &[&[u8]], erased: &[usize]) -> Result<Vec<usize>, EcError> {
        let params = self.params();
        let (k, m) = (params.k, params.m);
        let outside = erased.iter().copied().find(|&e| e >= k + m);
        if shards.len() != k + m || outside.is_some() {
            return Err(EcError::BlockCount {
                expected: k + m,
                got: outside.unwrap_or(shards.len()),
            });
        }
        let (data, parity) = shards.split_at(k);
        let syndromes = self.parity_syndromes(data, parity)?;
        if syndromes.is_empty() {
            return Ok(Vec::new());
        }
        if erased.is_empty() && syndromes.len() < m {
            // Data must be clean, so the mismatching rows are themselves
            // the corrupt shards.
            return Ok(syndromes.into_iter().map(|r| k + r).collect());
        }
        let corrupt = || EcError::Corrupt {
            shards: syndromes.iter().map(|&r| k + r).collect(),
        };
        let support = dot_prod_syndromes(self.tables(), data, parity, self.sched());
        let (forced, rest): (Vec<usize>, Vec<usize>) = (0..k + m).partition(|i| erased.contains(i));
        // The empty set never explains a non-zero syndrome.
        for t in forced.len().max(1)..=m.saturating_sub(1).max(1) {
            let mut found: Option<Vec<usize>> = None;
            let mut pick: Vec<usize> = (0..t - forced.len()).collect();
            loop {
                let named = || pick.iter().map(|&i| rest[i]);
                let mut candidate: Vec<usize> = forced.iter().copied().chain(named()).collect();
                candidate.sort_unstable();
                if self.syndromes_fit(&support.syndromes, &candidate, &forced) {
                    if found.is_some() {
                        // Two consistent candidates at one cardinality:
                        // the corruption cannot be localized.
                        return Err(corrupt());
                    }
                    found = Some(named().collect());
                }
                if !next_subset(&mut pick, rest.len()) {
                    break;
                }
            }
            if let Some(bad) = found {
                return Ok(bad);
            }
        }
        Err(corrupt())
    }

    /// Do errors confined to the shards in `candidate` (ascending) explain
    /// `syndromes` (`m` bytes per support column), with every member
    /// outside `forced` in error at some column?
    ///
    /// Split the candidate into data members `D` and parity members `P`.
    /// A parity member's error is free — it absorbs whatever its own row
    /// shows, `S_r ^ sum_{j in D} c_rj · e_j` — so only the rows outside
    /// `P` constrain the data errors: `|D|` of them (a square submatrix of
    /// the parity coefficients, invertible for an MDS code) solve for
    /// `e_D` at a column, and the candidate is consistent there when the
    /// remaining `m - |candidate|` rows agree. The first inconsistent
    /// column rejects, which for a wrong candidate is almost always the
    /// first; only a fitting candidate walks the whole support.
    fn syndromes_fit(&self, syndromes: &[u8], candidate: &[usize], forced: &[usize]) -> bool {
        let params = self.params();
        let (k, m) = (params.k, params.m);
        let coeff = self.rs.parity_matrix();
        let (data, parity) = candidate.split_at(candidate.partition_point(|&c| c < k));
        let d = data.len();
        let free: Vec<usize> = (0..m).filter(|r| !parity.contains(&(k + r))).collect();
        let (solve, check) = free.split_at(d);
        // Not MDS (a caller-supplied matrix): nothing to solve with.
        let Ok(inv) = coeff.minor_inverse(solve, data) else {
            return false;
        };

        let mut in_error = vec![false; candidate.len()];
        let mut err = vec![Gf8::ZERO; d];
        for s in syndromes.chunks_exact(m) {
            for (i, e) in err.iter_mut().enumerate() {
                *e = solve
                    .iter()
                    .enumerate()
                    .fold(Gf8::ZERO, |acc, (c, &r)| acc + inv[(i, c)] * Gf8(s[r]));
            }
            // What row `r` still shows once the data errors are taken out.
            let residual = |r: usize| {
                data.iter()
                    .zip(&err)
                    .fold(Gf8(s[r]), |acc, (&j, &e)| acc + coeff[(r, j)] * e)
            };
            if check.iter().any(|&r| residual(r) != Gf8::ZERO) {
                return false;
            }
            for (seen, e) in in_error.iter_mut().zip(&err) {
                *seen |= *e != Gf8::ZERO;
            }
            for (seen, &p) in in_error[d..].iter_mut().zip(parity) {
                *seen |= residual(p - k) != Gf8::ZERO;
            }
        }
        candidate
            .iter()
            .zip(&in_error)
            .all(|(c, &seen)| seen || forced.contains(c))
    }
}

/// Advance `subset` (ascending, drawn from `0..n`) to its lexicographic
/// successor; `false` once it was the last.
fn next_subset(subset: &mut [usize], n: usize) -> bool {
    let t = subset.len();
    let Some(i) = (0..t).rfind(|&i| subset[i] < n - t + i) else {
        return false;
    };
    subset[i] += 1;
    for j in i + 1..t {
        subset[j] = subset[j - 1] + 1;
    }
    true
}

/// The erase-decode-reverify search [`Dialga::scrub`] used before it
/// localized from the syndromes, and the pool's verified decode and the
/// archive used next to missing shards: kept as the reference the tests
/// hold [`Dialga::locate`] to.
#[cfg(test)]
impl Dialga {
    fn scrub_reference(&self, shards: &[&[u8]], erased: &[usize]) -> Result<Vec<usize>, EcError> {
        let params = self.params();
        let (k, m) = (params.k, params.m);
        if shards.len() != k + m {
            return Err(EcError::BlockCount {
                expected: k + m,
                got: shards.len(),
            });
        }
        let syndromes = self.parity_syndromes(&shards[..k], &shards[k..])?;
        if syndromes.is_empty() {
            return Ok(Vec::new());
        }
        if erased.is_empty() && syndromes.len() < m {
            // Data must be clean, so the mismatching rows are themselves
            // the corrupt shards.
            return Ok(syndromes.into_iter().map(|r| k + r).collect());
        }
        // Erase `erased` plus candidate subsets of the rest, re-decode,
        // and keep candidates whose fixed stripe is a codeword again and
        // whose members all actually changed (otherwise a smaller subset
        // explains the stripe).
        let evidence: Vec<usize> = syndromes.iter().map(|&r| k + r).collect();
        let forced: Vec<usize> = (0..k + m).filter(|i| erased.contains(i)).collect();
        let max_t = m.saturating_sub(1).max(1);
        for t in forced.len().max(1)..=max_t {
            let mut found: Option<Vec<usize>> = None;
            let mut candidate = vec![0usize; t - forced.len()];
            if !self.scrub_candidates(shards, &forced, &mut candidate, 0, 0, &mut found)? {
                // Ambiguous at this cardinality: more than one consistent
                // candidate — the corruption cannot be localized.
                return Err(EcError::Corrupt { shards: evidence });
            }
            if let Some(bad) = found {
                return Ok(bad);
            }
        }
        Err(EcError::Corrupt { shards: evidence })
    }

    /// Depth-first sweep over `t`-subsets of the shards outside `forced`
    /// (positions `depth..` filled from `from..k+m`) for
    /// [`Self::scrub_reference`]. Returns `false` the moment two distinct
    /// consistent candidates exist (ambiguous).
    fn scrub_candidates(
        &self,
        shards: &[&[u8]],
        forced: &[usize],
        candidate: &mut Vec<usize>,
        depth: usize,
        from: usize,
        found: &mut Option<Vec<usize>>,
    ) -> Result<bool, EcError> {
        let n = shards.len();
        if depth == candidate.len() {
            if !self.scrub_candidate_fits(shards, forced, candidate)? {
                return Ok(true);
            }
            if found.is_some() {
                return Ok(false);
            }
            *found = Some(candidate.clone());
            return Ok(true);
        }
        for i in (from..n).filter(|i| !forced.contains(i)) {
            candidate[depth] = i;
            if !self.scrub_candidates(shards, forced, candidate, depth + 1, i + 1, found)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Does erasing `forced` and `candidate` and re-decoding yield a
    /// consistent stripe in which every candidate member actually changed?
    fn scrub_candidate_fits(
        &self,
        shards: &[&[u8]],
        forced: &[usize],
        candidate: &[usize],
    ) -> Result<bool, EcError> {
        let k = self.params().k;
        let mut trial: Vec<Option<Vec<u8>>> = shards.iter().map(|s| Some(s.to_vec())).collect();
        for &c in forced.iter().chain(candidate) {
            trial[c] = None;
        }
        if self.decode(&mut trial).is_err() {
            return Ok(false);
        }
        let all_changed = candidate
            .iter()
            .all(|&c| trial[c].as_deref().is_some_and(|fixed| fixed != shards[c]));
        if !all_changed {
            return Ok(false);
        }
        let data: Vec<&[u8]> = (0..k)
            .map(|i| dialga_ec::present_shard(&trial, i, "scrub trial data absent"))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|v| v.as_slice())
            .collect();
        let parity: Vec<&[u8]> = (k..shards.len())
            .map(|i| dialga_ec::present_shard(&trial, i, "scrub trial parity absent"))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|v| v.as_slice())
            .collect();
        Ok(self.parity_syndromes(&data, &parity)?.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_gf::CACHELINE;
    use dialga_testkit::run_cases;

    fn make_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 89 + j * 7 + 3) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn assert_matches_rs(k: usize, m: usize, len: usize) {
        let dialga = Dialga::new(k, m).unwrap();
        let rs = ReedSolomon::new(k, m).unwrap();
        let data = make_data(k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(
            dialga.encode_vec(&refs).unwrap(),
            rs.encode_vec(&refs).unwrap(),
            "k={k} m={m} len={len}"
        );
    }

    #[test]
    fn encode_matches_rs_default() {
        assert_matches_rs(4, 2, 1024);
        assert_matches_rs(12, 4, 4096);
    }

    #[test]
    fn encode_handles_unaligned_tail() {
        // Lengths that are not multiples of 64 exercise the tail kernel.
        for len in [1usize, 63, 65, 127, 1000] {
            assert_matches_rs(5, 2, len);
        }
    }

    #[test]
    fn decode_roundtrip() {
        let dialga = Dialga::new(10, 4).unwrap();
        let data = make_data(10, 2048);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = dialga.encode_vec(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        shards[0] = None;
        shards[7] = None;
        shards[11] = None; // one parity
        shards[13] = None; // another parity
        dialga.decode(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_ref().unwrap(), d, "data {i}");
        }
        for (i, p) in parity.iter().enumerate() {
            assert_eq!(shards[10 + i].as_ref().unwrap(), p, "parity {i}");
        }
    }

    fn shards_of(data: &[Vec<u8>], parity: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        data.iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect()
    }

    #[test]
    fn decode_rejects_mismatched_survivor_lengths() {
        // Regression: decode used to read the length off the first
        // survivor only, letting a short later survivor reach the kernel
        // (panic) or a mismatched non-survivor corrupt the parity stage.
        let dialga = Dialga::new(4, 2).unwrap();
        let data = make_data(4, 128);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = dialga.encode_vec(&refs).unwrap();
        for bad in 1..6 {
            let mut shards = shards_of(&data, &parity);
            shards[0] = None;
            shards[bad].as_mut().unwrap().truncate(100);
            assert!(
                matches!(dialga.decode(&mut shards), Err(EcError::BlockLength { .. })),
                "mismatched shard {bad} must be rejected"
            );
        }
    }

    #[test]
    fn decode_lost_parity_only_recomputes_lost_rows() {
        // Regression: lost-parity reconstruction used to recompute all m
        // parity rows and clone out the lost ones. The plan now carries
        // tables for the lost rows only; output stays bit-exact.
        let dialga = Dialga::new(6, 4).unwrap();
        let data = make_data(6, 1000); // unaligned tail
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = dialga.encode_vec(&refs).unwrap();
        let mut shards = shards_of(&data, &parity);
        shards[7] = None;
        shards[9] = None;
        let plan = dialga.decode_plan(&shards).unwrap();
        assert!(plan.lost_data().is_empty());
        assert_eq!(plan.lost_parity(), &[7, 9]);
        assert_eq!(plan.parity_tables().len(), 2 * 6, "lost rows only");
        dialga.decode(&mut shards).unwrap();
        assert_eq!(shards, shards_of(&data, &parity));
    }

    #[test]
    fn repair_plan_rebuilds_any_single_block() {
        let dialga = Dialga::new(6, 3).unwrap();
        let data = make_data(6, 513);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = dialga.encode_vec(&refs).unwrap();
        let shards = shards_of(&data, &parity);
        for target in 0..9usize {
            // Survivors: the k lowest-indexed other blocks — includes a
            // parity survivor when the target is a data block, and
            // exercises the composed parity row when the target is parity.
            let survivors: Vec<usize> = (0..9).filter(|&i| i != target).take(6).collect();
            let plan = dialga.repair_plan(&survivors, target).unwrap();
            let srcs: Vec<&[u8]> = survivors
                .iter()
                .map(|&s| shards[s].as_ref().unwrap().as_slice())
                .collect();
            let mut out = vec![0u8; 513];
            plan.apply(&srcs, &mut out, 6, false).unwrap();
            let expect = shards[target].as_ref().unwrap();
            assert_eq!(&out, expect, "target {target}");
        }
        // A parity target with a *data* block among the erasures: the
        // composed row must route around the missing data block.
        let survivors = [1usize, 2, 3, 4, 5, 6]; // data 0 lost, parity 6 survives
        let plan = dialga.repair_plan(&survivors, 8).unwrap();
        let srcs: Vec<&[u8]> = survivors
            .iter()
            .map(|&s| shards[s].as_ref().unwrap().as_slice())
            .collect();
        let mut out = vec![0u8; 513];
        plan.apply(&srcs, &mut out, 6, true).unwrap();
        assert_eq!(&out, shards[8].as_ref().unwrap());
        // The target itself can never be a survivor.
        assert!(dialga.repair_plan(&[0, 1, 2, 3, 4, 5], 3).is_err());
    }

    /// The repair tables for `target` from `survivors`, straight from
    /// `ReedSolomon::decode_matrix` on a code of the same geometry.
    fn reference_repair_tables(
        k: usize,
        m: usize,
        survivors: &[usize],
        target: usize,
    ) -> Vec<NibbleTables> {
        let rs = ReedSolomon::new(k, m).unwrap();
        let dec = rs.decode_matrix(survivors).unwrap();
        let pm = rs.parity_matrix();
        (0..k)
            .map(|col| {
                let c = if target < k {
                    dec[(target, col)]
                } else {
                    (0..k).fold(Gf8::ZERO, |acc, j| {
                        acc + pm[(target - k, j)] * dec[(j, col)]
                    })
                };
                NibbleTables::new(c.0)
            })
            .collect()
    }

    fn rebuild(plan: &RepairPlan, stripe: &[Vec<u8>], d: u32) -> Vec<u8> {
        let srcs: Vec<&[u8]> = plan.survivors().iter().map(|&s| &stripe[s][..]).collect();
        let mut out = vec![0u8; stripe[0].len()];
        plan.apply(&srcs, &mut out, d, false).unwrap();
        out
    }

    /// Every target's plan, from the first k others and from the last k
    /// others, is the plan `decode_matrix` gives and rebuilds the target.
    #[test]
    fn single_erasure_plans_match_the_decode_matrix_for_any_survivors() {
        for (k, m) in [(10usize, 4usize), (12, 8), (28, 24)] {
            let dialga = Dialga::new(k, m).unwrap();
            let n = k + m;
            let stripe = encoded_stripe(&dialga, 1000);
            for target in 0..n {
                let first: Vec<usize> = (0..n).filter(|&i| i != target).take(k).collect();
                let last: Vec<usize> = (0..n).rev().filter(|&i| i != target).take(k).collect();
                for survivors in [first, last] {
                    let ctx = format!("k={k} m={m} target={target} survivors={survivors:?}");
                    let plan = dialga.repair_plan(&survivors, target).unwrap();
                    let want = reference_repair_tables(k, m, &survivors, target);
                    assert_eq!(plan.tables(), want, "{ctx}");
                    assert_eq!(plan.survivors(), survivors);
                    let d = dialga.prefetch_distance();
                    assert_eq!(rebuild(&plan, &stripe, d), stripe[target], "{ctx}");
                }
            }
        }
    }

    /// A malformed request returns the error it always did, even when it
    /// differs from the first k others by one index.
    #[test]
    fn a_rejected_repair_plan_request_returns_its_error() {
        for (k, m) in [(10usize, 4usize), (12, 8), (28, 24)] {
            let dialga = Dialga::new(k, m).unwrap();
            let n = k + m;
            let count = |expected, got| Err(EcError::BlockCount { expected, got });
            for target in 0..n {
                let first: Vec<usize> = (0..n).filter(|&i| i != target).take(k).collect();
                let mut with_target = first.clone();
                with_target[k - 1] = target;
                let short = &first[..k - 1];
                let mut out_of_range = first.clone();
                out_of_range[k - 1] = n;
                let mut doubled = first.clone();
                doubled[k - 1] = first[0];
                let long: Vec<usize> = (0..n).filter(|&i| i != target).take(k + 1).collect();
                let plan = |survivors: &[usize]| dialga.repair_plan(survivors, target).map(|_| ());
                assert_eq!(plan(&with_target), count(k, target));
                assert_eq!(plan(short), count(k, k - 1));
                assert_eq!(plan(&long), count(k, k + 1));
                assert_eq!(plan(&out_of_range), count(n, n));
                assert_eq!(plan(&doubled), Err(EcError::SingularMatrix));
            }
            assert_eq!(dialga.repair_plan(&[], n).map(|_| ()), count(n, n));
        }
    }

    #[test]
    fn decode_rejects_excess_erasures() {
        let dialga = Dialga::new(4, 2).unwrap();
        let data = make_data(4, 128);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = dialga.encode_vec(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert!(matches!(
            dialga.decode(&mut shards),
            Err(EcError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn geometry_errors_propagate() {
        assert!(Dialga::new(0, 2).is_err());
        let dialga = Dialga::new(3, 2).unwrap();
        let a = vec![0u8; 64];
        let b = vec![0u8; 64];
        let refs: Vec<&[u8]> = vec![&a, &b]; // k mismatch
        assert!(matches!(
            dialga.encode_vec(&refs),
            Err(EcError::BlockCount { .. })
        ));
    }

    fn encoded_stripe(dialga: &Dialga, len: usize) -> Vec<Vec<u8>> {
        let k = dialga.params().k;
        let data = make_data(k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = dialga.encode_vec(&refs).unwrap();
        data.into_iter().chain(parity).collect()
    }

    #[test]
    fn verify_accepts_clean_and_names_mismatching_rows() {
        let dialga = Dialga::new(6, 3).unwrap();
        let mut stripe = encoded_stripe(&dialga, 2048 + 17);
        {
            let refs: Vec<&[u8]> = stripe.iter().map(|s| s.as_slice()).collect();
            dialga.verify(&refs[..6], &refs[6..]).unwrap();
        }
        // Flip one byte of parity row 1: exactly that row mismatches.
        stripe[7][100] ^= 0x40;
        let refs: Vec<&[u8]> = stripe.iter().map(|s| s.as_slice()).collect();
        assert!(matches!(
            dialga.verify(&refs[..6], &refs[6..]),
            Err(EcError::Corrupt { shards }) if shards == vec![7]
        ));
        // A corrupt data shard trips every parity row.
        let mut stripe2 = encoded_stripe(&dialga, 512);
        stripe2[2][13] ^= 0x01;
        let refs2: Vec<&[u8]> = stripe2.iter().map(|s| s.as_slice()).collect();
        assert!(matches!(
            dialga.verify(&refs2[..6], &refs2[6..]),
            Err(EcError::Corrupt { shards }) if shards == vec![6, 7, 8]
        ));
    }

    #[test]
    fn scrub_localizes_data_and_parity_corruption() {
        let dialga = Dialga::new(4, 2).unwrap();
        let clean = encoded_stripe(&dialga, 1024 + 5);
        {
            let refs: Vec<&[u8]> = clean.iter().map(|s| s.as_slice()).collect();
            assert_eq!(dialga.scrub(&refs).unwrap(), Vec::<usize>::new());
        }
        for victim in 0..6usize {
            let mut stripe = clean.clone();
            stripe[victim][511] ^= 0x80;
            let refs: Vec<&[u8]> = stripe.iter().map(|s| s.as_slice()).collect();
            assert_eq!(
                dialga.scrub(&refs).unwrap(),
                vec![victim],
                "victim={victim}"
            );
        }
        // Two corrupt parity shards stay localizable for m = 3 codes.
        let dialga3 = Dialga::new(4, 3).unwrap();
        let mut stripe = encoded_stripe(&dialga3, 700);
        stripe[4][0] ^= 0xAA;
        stripe[6][699] ^= 0x11;
        let refs: Vec<&[u8]> = stripe.iter().map(|s| s.as_slice()).collect();
        assert_eq!(dialga3.scrub(&refs).unwrap(), vec![4, 6]);
    }

    /// The syndrome localizer is the search it replaced: on every
    /// geometry, shard length, erasure set E (|E| in 0..m, data and parity,
    /// rebuilt from the damaged survivors as every caller does) and
    /// corruption shape — single bytes, whole cachelines at one shared
    /// offset and at scattered ones, whole-shard garbage, mixed over
    /// 0..=m - |E| survivors — `locate` and the erase-decode-reverify
    /// reference return the same `Ok(indices)` or the same
    /// `Err(Corrupt { shards })`.
    ///
    /// The reference decodes a stripe per candidate, 0.7 ms each
    /// unoptimized, and a (12,8) stripe past localizing has C(20, 1..=7) =
    /// 137 k candidates: a debug build skips the cases whose search passes
    /// 2 000 (4..=8 corrupt shards of (12,8); (3,6) reaches the same depth
    /// on 9 shards). `scripts/lint.sh` runs them all in release
    /// (`just release-sweep`).
    #[test]
    fn locate_is_the_reference_search_on_every_erasure_and_corruption_shape() {
        let budget = if cfg!(debug_assertions) {
            2_000
        } else {
            usize::MAX
        };
        for (k, m) in [(4usize, 1usize), (4, 2), (6, 3), (10, 4), (12, 8), (3, 6)] {
            let dialga = Dialga::new(k, m).unwrap();
            let n = k + m;
            for len in [CACHELINE, 1024 + 37] {
                let clean = encoded_stripe(&dialga, len);
                for erased in 0..m {
                    for corrupt in 0..=m - erased {
                        // Every size of X up to the corrupt set's is swept.
                        let choose =
                            |t: usize| (0..t).fold(1, |c, i| c * (n - erased - i) / (i + 1));
                        let deepest = corrupt.min((m - 1).max(1).saturating_sub(erased));
                        let searched: usize = (0..=deepest).map(choose).sum();
                        if searched > budget {
                            break;
                        }
                        run_cases(if m == 8 { 1 } else { 4 }, |rng| {
                            let mut stripe = clean.clone();
                            let mut order: Vec<usize> = (0..n).collect();
                            rng.shuffle(&mut order);
                            let (lost, rest) = order.split_at(erased);
                            let victims = &rest[..corrupt];
                            let shared = rng.range(0, len / CACHELINE) * CACHELINE;
                            for &v in victims {
                                let shard = &mut stripe[v];
                                match rng.range(0, 4) {
                                    0 => shard[rng.range(0, len)] ^= rng.u8() | 1,
                                    1 => rng.fill(&mut shard[shared..shared + CACHELINE]),
                                    2 => {
                                        let at = rng.range(0, len / CACHELINE) * CACHELINE;
                                        rng.fill(&mut shard[at..at + CACHELINE]);
                                    }
                                    _ => rng.fill(shard),
                                }
                            }
                            let mut holed: Vec<Option<Vec<u8>>> =
                                stripe.into_iter().map(Some).collect();
                            for &l in lost {
                                holed[l] = None;
                            }
                            dialga.decode(&mut holed).unwrap();
                            let refs: Vec<&[u8]> =
                                holed.iter().flatten().map(Vec::as_slice).collect();
                            assert_eq!(
                                dialga.locate(&refs, lost),
                                dialga.scrub_reference(&refs, lost),
                                "k={k} m={m} len={len} erased={lost:?} victims={victims:?}"
                            );
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn scrub_rejects_bad_geometry_and_overwhelming_corruption() {
        let dialga = Dialga::new(4, 2).unwrap();
        let stripe = encoded_stripe(&dialga, 256);
        let refs: Vec<&[u8]> = stripe[..5].iter().map(|s| s.as_slice()).collect();
        assert!(matches!(
            dialga.scrub(&refs),
            Err(EcError::BlockCount { .. })
        ));
        // m = 2 tolerates localizing one corrupt shard; corrupting two
        // (one data + one parity) must surface Corrupt, not a wrong
        // localization.
        let mut bad = stripe.clone();
        bad[0][0] ^= 0x01;
        bad[5][1] ^= 0x02;
        let refs: Vec<&[u8]> = bad.iter().map(|s| s.as_slice()).collect();
        assert!(matches!(dialga.scrub(&refs), Err(EcError::Corrupt { .. })));
        // An erased index outside the stripe is a geometry error too.
        assert_eq!(
            dialga.locate(&refs, &[1, 6]),
            Err(EcError::BlockCount {
                expected: 6,
                got: 6
            })
        );
    }
}
