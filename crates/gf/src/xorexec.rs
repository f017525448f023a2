//! Batched executor for lowered XOR schedules (bitmatrix codes).
//!
//! A bitmatrix erasure code compiles to a linear *program* of packet XORs
//! (`dialga-ec`'s `Schedule`). This module is the execution back end: the
//! schedule is lowered into a flat [`XorProgram`] over packet indices, and
//! [`execute_ops`] runs it in cacheline-sized tiles with the paper's
//! §4.2/§4.3 prefetch-distance construction
//! ([`crate::sched::for_each_prefetch_target`]) applied to the
//! schedule-driven access stream.
//!
//! Two properties distinguish this from a naive per-op interpreter:
//!
//! * **Tiling.** Ops are executed over one tile ([`TILE_LINES`] cachelines)
//!   of the packet range at a time, so every `Temp` buffer is tile-sized and
//!   L1-resident regardless of stripe size, and each data line is touched
//!   while still hot across the ops of a tile.
//! * **Prefetch.** The access stream is the row-major walk `step = op ×
//!   tile-line`; mapping *row → op* and *column → line-within-tile* makes
//!   the fused kernels' exactly-once distance construction apply verbatim.
//!   The shuffle is forcibly disabled: schedule ops carry real data
//!   dependencies (temps), so their order is not ours to permute.
//!
//! The executor is 100% safe Rust: sources and outputs arrive as disjoint
//! per-packet slices, and same-array aliasing (parity read while writing
//! another parity) is resolved with `split_at_mut`.

use crate::sched::{FusedSched, PassSched};
use crate::slice::{prefetch_read, xor_slice};
use crate::CACHELINE;

/// Cachelines per execution tile: 16 lines = 1 KiB per packet buffer, so a
/// schedule with a few dozen live temps still fits L1 comfortably.
pub const TILE_LINES: usize = 16;

/// One operand of a lowered XOR op, addressed in flat packet index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Source data packet (`block*8 + packet` bit-column index).
    Data(u32),
    /// Parity packet (bit-row index).
    Parity(u32),
    /// Scratch packet in the temp arena.
    Temp(u32),
}

/// One lowered op: `dst = src` when `init`, else `dst ^= src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgOp {
    /// Destination packet (never `Operand::Data`).
    pub dst: Operand,
    /// Source packet.
    pub src: Operand,
    /// `true` for the first write to `dst` (a copy, not an accumulate).
    pub init: bool,
}

/// A lowered, validated XOR program over packet slices.
#[derive(Debug, Clone)]
pub struct XorProgram {
    /// Number of source packets (`k * 8`).
    pub n_data: usize,
    /// Number of parity packets (`m * 8`).
    pub n_parity: usize,
    /// Number of temp packets the ops reference.
    pub n_temps: usize,
    /// Ops in execution order.
    pub ops: Vec<ProgOp>,
}

/// Reusable temp-packet arena: callers keep one per thread so repeated
/// executions allocate nothing (each buffer is at most one tile).
#[derive(Debug, Default)]
pub struct TempArena {
    bufs: Vec<Vec<u8>>,
}

impl TempArena {
    /// Empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow `n` buffers of at least `len` bytes each.
    fn ensure(&mut self, n: usize, len: usize) -> &mut [Vec<u8>] {
        if self.bufs.len() < n {
            self.bufs.resize_with(n, Vec::new);
        }
        for b in &mut self.bufs[..n] {
            if b.len() < len {
                b.resize(len, 0);
            }
        }
        &mut self.bufs[..n]
    }
}

/// `dst = src` or `dst ^= src` over equal-length slices.
#[inline]
fn fold(src: &[u8], dst: &mut [u8], init: bool) {
    if init {
        dst.copy_from_slice(src);
    } else {
        xor_slice(src, dst);
    }
}

/// Disjoint `(&mut xs[a], &mut xs[b])` for `a != b`.
#[inline]
fn two_mut<T>(xs: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    if a < b {
        let (lo, hi) = xs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Pointer to prefetch for a future op's source at byte `offset` of the
/// packet range. Temps are skipped: they are tile-sized and L1-resident, so
/// a prefetch slot is better spent on real memory.
#[inline]
fn prefetch_src_ptr(
    ops: &[ProgOp],
    sources: &[&[u8]],
    outputs: &[&mut [u8]],
    op_idx: usize,
    offset: usize,
) -> Option<*const u8> {
    let op = ops.get(op_idx)?;
    match op.src {
        Operand::Data(c) => Some(&sources[c as usize][offset] as *const u8),
        Operand::Parity(p) => Some(&outputs[p as usize][offset] as *const u8),
        Operand::Temp(_) => None,
    }
}

/// Execute one op over `[start, start + tlen)` of the packet range (temps
/// address `[0, tlen)` of their tile buffer).
#[inline]
fn apply_op(
    op: &ProgOp,
    sources: &[&[u8]],
    outputs: &mut [&mut [u8]],
    temps: &mut [Vec<u8>],
    start: usize,
    tlen: usize,
) {
    let r = start..start + tlen;
    match (op.dst, op.src) {
        (Operand::Parity(d), Operand::Data(s)) => fold(
            &sources[s as usize][r.clone()],
            &mut outputs[d as usize][r],
            op.init,
        ),
        (Operand::Parity(d), Operand::Temp(s)) => fold(
            &temps[s as usize][..tlen],
            &mut outputs[d as usize][r],
            op.init,
        ),
        (Operand::Parity(d), Operand::Parity(s)) => {
            if d == s {
                // x ^= x zeroes; x = x is a no-op.
                if !op.init {
                    outputs[d as usize][r].fill(0);
                }
            } else {
                let (dst, src) = two_mut(outputs, d as usize, s as usize);
                fold(&src[r.clone()], &mut dst[r], op.init);
            }
        }
        (Operand::Temp(d), Operand::Data(s)) => fold(
            &sources[s as usize][r],
            &mut temps[d as usize][..tlen],
            op.init,
        ),
        (Operand::Temp(d), Operand::Parity(s)) => fold(
            &outputs[s as usize][r],
            &mut temps[d as usize][..tlen],
            op.init,
        ),
        (Operand::Temp(d), Operand::Temp(s)) => {
            if d == s {
                if !op.init {
                    temps[d as usize][..tlen].fill(0);
                }
            } else {
                let (dst, src) = two_mut(temps, d as usize, s as usize);
                fold(&src[..tlen], &mut dst[..tlen], op.init);
            }
        }
        // Lowering never emits a Data destination (rejected upfront).
        (Operand::Data(_), _) => {}
    }
}

/// Check every op addresses in-range packets and never writes `Data`.
fn check_ops(ops: &[ProgOp], n_data: usize, n_parity: usize, n_temps: usize) {
    let ok = |o: Operand, write: bool| match o {
        Operand::Data(c) => !write && (c as usize) < n_data,
        Operand::Parity(p) => (p as usize) < n_parity,
        Operand::Temp(t) => (t as usize) < n_temps,
    };
    for op in ops {
        assert!(
            ok(op.src, false) && ok(op.dst, true),
            "xorexec: op out of range or Data destination: {op:?}"
        );
    }
}

/// Execute a lowered op list over per-packet slices.
///
/// `sources` are the `n_data` source packets and `outputs` the `n_parity`
/// parity packets, all the same length; `arena` supplies tile-sized temp
/// buffers and is reused across calls. `sched` carries the §4.2/§4.3
/// prefetch distances; its shuffle flag is ignored (schedule ops have
/// dependencies).
///
/// # Panics
///
/// Panics if slice counts or lengths disagree, or if an op addresses an
/// out-of-range packet / writes a `Data` operand.
pub fn execute_ops(
    ops: &[ProgOp],
    n_temps: usize,
    sources: &[&[u8]],
    outputs: &mut [&mut [u8]],
    arena: &mut TempArena,
    sched: FusedSched,
) {
    check_ops(ops, sources.len(), outputs.len(), n_temps);
    let plen = match (sources.first(), outputs.first()) {
        (Some(s), _) => s.len(),
        (None, Some(o)) => o.len(),
        (None, None) => return,
    };
    for s in sources {
        assert_eq!(s.len(), plen, "xorexec: ragged source packet");
    }
    for o in outputs.iter() {
        assert_eq!(o.len(), plen, "xorexec: ragged output packet");
    }
    // Dependencies between ops (temps, parity reads) forbid reordering, so
    // the shuffle never applies to schedule streams.
    let sched = FusedSched {
        shuffle: false,
        ..sched
    };
    let tile = TILE_LINES * CACHELINE;
    let temps = arena.ensure(n_temps, tile.min(plen.max(1)));
    let n_ops = ops.len() as u64;
    let mut start = 0usize;
    while start < plen {
        let tlen = tile.min(plen - start);
        let lines = tlen.div_ceil(CACHELINE);
        let pass = PassSched::new(lines, n_ops, &sched);
        for (n, op) in ops.iter().enumerate() {
            // §4.2/§4.3 exactly-once construction over the op × tile-line
            // stream: prefetch the source lines of the ops `d` steps ahead.
            pass.for_each_target(n as u64, |j, target_op| {
                let offset = start + j * CACHELINE;
                if let Some(ptr) =
                    prefetch_src_ptr(ops, sources, outputs, target_op as usize, offset)
                {
                    prefetch_read(ptr);
                }
            });
            apply_op(op, sources, outputs, temps, start, tlen);
        }
        start += tlen;
    }
}

/// Execute a whole [`XorProgram`] over per-packet slices (see
/// [`execute_ops`] for the contract).
///
/// # Panics
///
/// Panics if `sources`/`outputs` don't match the program's
/// `n_data`/`n_parity`, or on the [`execute_ops`] conditions.
pub fn execute_packets(
    prog: &XorProgram,
    sources: &[&[u8]],
    outputs: &mut [&mut [u8]],
    arena: &mut TempArena,
    sched: FusedSched,
) {
    assert_eq!(sources.len(), prog.n_data, "xorexec: source packet count");
    assert_eq!(outputs.len(), prog.n_parity, "xorexec: parity packet count");
    execute_ops(&prog.ops, prog.n_temps, sources, outputs, arena, sched);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference interpreter: whole-packet ops, no tiling, no prefetch.
    fn reference(prog: &XorProgram, sources: &[&[u8]], outputs: &mut [&mut [u8]]) {
        let plen = sources
            .first()
            .map_or_else(|| outputs[0].len(), |s| s.len());
        let mut temps = vec![vec![0u8; plen]; prog.n_temps];
        for op in &prog.ops {
            let src: Vec<u8> = match op.src {
                Operand::Data(c) => sources[c as usize].to_vec(),
                Operand::Parity(p) => outputs[p as usize].to_vec(),
                Operand::Temp(t) => temps[t as usize].clone(),
            };
            match op.dst {
                Operand::Parity(p) => fold(&src, outputs[p as usize], op.init),
                Operand::Temp(t) => fold(&src, &mut temps[t as usize], op.init),
                Operand::Data(_) => unreachable!("test programs never write Data"),
            }
        }
    }

    /// Deterministic pseudo-random test program: every parity is a mix of
    /// data packets routed partly through temps.
    fn test_program(n_data: usize, n_parity: usize, n_temps: usize) -> XorProgram {
        let mut ops = Vec::new();
        for t in 0..n_temps {
            ops.push(ProgOp {
                dst: Operand::Temp(t as u32),
                src: Operand::Data((t % n_data) as u32),
                init: true,
            });
            ops.push(ProgOp {
                dst: Operand::Temp(t as u32),
                src: Operand::Data(((t * 7 + 1) % n_data) as u32),
                init: false,
            });
        }
        for p in 0..n_parity {
            ops.push(ProgOp {
                dst: Operand::Parity(p as u32),
                src: Operand::Data((p % n_data) as u32),
                init: true,
            });
            for step in 1..4 {
                let src = if n_temps > 0 && step == 2 {
                    Operand::Temp(((p + step) % n_temps) as u32)
                } else {
                    Operand::Data(((p * 3 + step) % n_data) as u32)
                };
                ops.push(ProgOp {
                    dst: Operand::Parity(p as u32),
                    src,
                    init: false,
                });
            }
        }
        XorProgram {
            n_data,
            n_parity,
            n_temps,
            ops,
        }
    }

    fn run_both(prog: &XorProgram, plen: usize, sched: FusedSched) {
        let data: Vec<Vec<u8>> = (0..prog.n_data)
            .map(|i| {
                (0..plen)
                    .map(|j| ((i * 31 + j * 7 + 5) % 251) as u8)
                    .collect()
            })
            .collect();
        let srcs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();

        let mut want = vec![vec![0u8; plen]; prog.n_parity];
        let mut want_refs: Vec<&mut [u8]> = want.iter_mut().map(|v| v.as_mut_slice()).collect();
        reference(prog, &srcs, &mut want_refs);

        let mut got = vec![vec![0u8; plen]; prog.n_parity];
        let mut got_refs: Vec<&mut [u8]> = got.iter_mut().map(|v| v.as_mut_slice()).collect();
        let mut arena = TempArena::new();
        execute_packets(prog, &srcs, &mut got_refs, &mut arena, sched);

        assert_eq!(got, want, "plen={plen} sched={sched:?}");
    }

    #[test]
    fn tiled_executor_matches_reference_across_lengths() {
        let prog = test_program(6, 4, 3);
        // Below one tile, exactly one tile, ragged multi-tile, many tiles.
        for plen in [
            1usize,
            63,
            TILE_LINES * CACHELINE,
            2500,
            5 * TILE_LINES * CACHELINE,
        ] {
            run_both(&prog, plen, FusedSched::plain());
        }
    }

    #[test]
    fn prefetch_distances_do_not_change_bytes() {
        let prog = test_program(5, 3, 2);
        for sched in [
            FusedSched::distance(1),
            FusedSched::distance(8),
            FusedSched::distance(1000),
            FusedSched {
                d: Some(6),
                d_long: Some(18),
                shuffle: false,
            },
            // Shuffle must be ignored, not applied.
            FusedSched {
                d: Some(6),
                d_long: Some(18),
                shuffle: true,
            },
        ] {
            run_both(&prog, 1500, sched);
        }
    }

    #[test]
    fn parity_to_parity_and_self_ops() {
        // P1 = D0; P0 = P1 (copy); P0 ^= P0 (zero); P0 ^= D1.
        let prog = XorProgram {
            n_data: 2,
            n_parity: 2,
            n_temps: 0,
            ops: vec![
                ProgOp {
                    dst: Operand::Parity(1),
                    src: Operand::Data(0),
                    init: true,
                },
                ProgOp {
                    dst: Operand::Parity(0),
                    src: Operand::Parity(1),
                    init: true,
                },
                ProgOp {
                    dst: Operand::Parity(0),
                    src: Operand::Parity(0),
                    init: false,
                },
                ProgOp {
                    dst: Operand::Parity(0),
                    src: Operand::Data(1),
                    init: false,
                },
            ],
        };
        run_both(&prog, 777, FusedSched::distance(4));
    }

    #[test]
    fn arena_is_reused_across_calls() {
        let prog = test_program(4, 2, 2);
        let mut arena = TempArena::new();
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 2048]).collect();
        let srcs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut out = vec![vec![0u8; 2048]; 2];
        let mut first = Vec::new();
        for round in 0..3 {
            let mut refs: Vec<&mut [u8]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
            execute_packets(&prog, &srcs, &mut refs, &mut arena, FusedSched::plain());
            if round == 0 {
                first = out.clone();
            } else {
                assert_eq!(out, first, "stale arena state leaked between runs");
            }
        }
        assert_eq!(arena.bufs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_operand_rejected() {
        let prog = XorProgram {
            n_data: 1,
            n_parity: 1,
            n_temps: 0,
            ops: vec![ProgOp {
                dst: Operand::Parity(0),
                src: Operand::Data(7),
                init: true,
            }],
        };
        let data = [3u8; 8];
        let mut out = vec![0u8; 8];
        let mut refs: Vec<&mut [u8]> = vec![out.as_mut_slice()];
        execute_packets(
            &prog,
            &[&data],
            &mut refs,
            &mut TempArena::new(),
            FusedSched::plain(),
        );
    }
}
