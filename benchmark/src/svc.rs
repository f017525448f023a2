//! The service block: one closed-loop client driving
//! [`StripeService`](dialga_service::StripeService) with the seeded op
//! sequence.
//!
//! The client submits a *window* of requests back-to-back and then awaits
//! them all, in order: window 1 waits for each reply, window 32 is the
//! burst. There is no open-loop rate sweep: a pacing thread would
//! oversubscribe the two cores. Request building and reply checking are
//! client time and lie outside every latency.

use crate::gen::{Class, Corpus, Op, OpGen};
use crate::host::{steady_samples, ClockBracket, ClockScale};
use crate::setup::Sut;
use crate::spec::{Workload, GROUP_OPS};
use crate::trace;
use dialga_service::{ServiceError, StripeService, Ticket};
use std::time::Instant;

/// A built request, ready to submit.
enum Payload {
    Encode(Vec<Vec<u8>>),
    Holes(Vec<Option<Vec<u8>>>),
    Scrub(Vec<Vec<u8>>),
}

fn build_payload(corpus: &Corpus, op: &Op) -> Payload {
    match op.class {
        Class::Encode => Payload::Encode(corpus.data[op.stripe].clone()),
        Class::Scrub => Payload::Scrub(corpus.all_shards(op.stripe)),
        Class::Repair | Class::Decode => {
            let lost = if op.class == Class::Repair {
                &op.lost[..1]
            } else {
                &op.lost[..]
            };
            let mut shards: Vec<Option<Vec<u8>>> =
                corpus.all_shards(op.stripe).into_iter().map(Some).collect();
            for &i in lost {
                shards[i] = None;
            }
            Payload::Holes(shards)
        }
    }
}

fn submit(svc: &StripeService, op: &Op, payload: Payload) -> Result<Ticket, ServiceError> {
    match payload {
        Payload::Encode(data) => svc.submit_encode(op.tenant, data, None),
        Payload::Scrub(shards) => svc.submit_scrub(op.tenant, shards, None),
        Payload::Holes(shards) => match op.class {
            Class::Repair => svc.submit_repair(op.tenant, shards, op.lost[0], None),
            _ => svc.submit_decode(op.tenant, shards, None),
        },
    }
}

/// Is `reply` bit-exactly what the reference says `op` must return?
fn reply_is_correct(corpus: &Corpus, op: &Op, reply: &Result<Vec<Vec<u8>>, ServiceError>) -> bool {
    let Ok(blocks) = reply else { return false };
    match op.class {
        Class::Encode => *blocks == corpus.parity[op.stripe],
        Class::Repair => blocks.len() == 1 && blocks[0] == corpus.shard(op.stripe, op.lost[0]),
        Class::Decode => {
            let n = corpus.data[op.stripe].len() + corpus.parity[op.stripe].len();
            blocks.len() == n
                && blocks
                    .iter()
                    .enumerate()
                    .all(|(i, b)| b.as_slice() == corpus.shard(op.stripe, i))
        }
        Class::Scrub => blocks.is_empty(),
    }
}

/// User bytes an op delivers or protects: the stripe's `k` blocks, except
/// a repair, which returns one block.
fn user_bytes(w: &Workload, class: Class) -> u64 {
    match class {
        Class::Repair => w.block as u64,
        _ => (w.k * w.block) as u64,
    }
}

/// What one stretch of the stream measured.
#[derive(Default)]
pub struct SvcBlock {
    /// Latencies (us, as measured) per round, per class (indexed by
    /// [`Class::index`]).
    pub rounds: Vec<[Vec<f64>; 4]>,
    /// Per group: user MiB per second of request time, at the reference clock.
    pub group_mibs: Vec<f64>,
    /// Per group: request time, microseconds at the reference clock.
    pub group_us: Vec<f64>,
    /// Per round: factor from measured time to time at the reference clock.
    pub round_scale: Vec<ClockScale>,
    /// Ids of the encode ops, ascending (selects their spans).
    pub encode_ops: Vec<u64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops refused, failed, or answered wrongly.
    pub failed: u64,
    /// Wall time of the rounds, seconds.
    pub wall_s: f64,
}

impl SvcBlock {
    /// Per-round latency samples of one class, at the reference clock;
    /// rounds inside which the clock stepped are left out.
    pub fn class_rounds(&self, class: Class) -> Vec<Vec<f64>> {
        let rounds: Vec<Vec<f64>> = self
            .rounds
            .iter()
            .zip(&self.round_scale)
            .map(|(r, scale)| {
                r[class.index()]
                    .iter()
                    .map(|us| us * scale.factor)
                    .collect()
            })
            .collect();
        steady_samples(&rounds, &self.round_scale)
    }

    /// Per round, the median over its groups of `per_group` (which holds
    /// `groups_per_round` values a round); unsteady rounds left out.
    pub fn group_rounds(&self, per_group: &[f64]) -> Vec<f64> {
        let n = per_group.len() / self.rounds.len().max(1);
        let rounds: Vec<f64> = per_group
            .chunks(n.max(1))
            .map(crate::stats::median)
            .collect();
        steady_samples(&rounds, &self.round_scale)
    }

    /// All latency samples of one class, at the reference clock.
    pub fn class_samples(&self, class: Class) -> Vec<f64> {
        self.class_rounds(class).concat()
    }
}

/// Drive the service with the next round of `ops`, adding to `out`.
/// Spans are recorded when the calling thread is tracing; `next_op_id`
/// numbers the ops.
pub fn run_round(
    sut: &Sut,
    w: &Workload,
    ops: &mut OpGen,
    out: &mut SvcBlock,
    next_op_id: &mut u64,
) {
    let t0 = Instant::now();
    let clock = ClockBracket::open();
    let first_group = out.group_us.len();
    let mut round: [Vec<f64>; 4] = Default::default();
    for _ in 0..w.groups_per_round {
        let group = ops.next_group();
        debug_assert_eq!(group.len(), GROUP_OPS);
        let mut group_ns = 0u64;
        let mut group_bytes = 0u64;
        for window in group.chunks(w.window) {
            group_ns += run_window(sut, window, &mut round, out, next_op_id);
            group_bytes += window.iter().map(|op| user_bytes(w, op.class)).sum::<u64>();
        }
        out.group_us.push(group_ns as f64 / 1e3);
        out.group_mibs
            .push(group_bytes as f64 / (1u64 << 20) as f64 / (group_ns as f64 / 1e9));
    }
    let scale = clock.close();
    for us in &mut out.group_us[first_group..] {
        *us *= scale.factor;
    }
    for mibs in &mut out.group_mibs[first_group..] {
        *mibs /= scale.factor;
    }
    out.rounds.push(round);
    out.round_scale.push(scale);
    out.wall_s += t0.elapsed().as_secs_f64();
}

/// Build, submit back-to-back, await in order and check one window.
/// Returns first submit -> last reply, nanoseconds.
fn run_window(
    sut: &Sut,
    window: &[Op],
    round: &mut [Vec<f64>; 4],
    out: &mut SvcBlock,
    next_op_id: &mut u64,
) -> u64 {
    let n = window.len();
    let mut roots = Vec::with_capacity(n);
    let mut payloads = Vec::with_capacity(n);
    for op in window {
        let op_id = *next_op_id;
        *next_op_id += 1;
        if op.class == Class::Encode {
            out.encode_ops.push(op_id);
        }
        let root = trace::begin("op", None, op_id);
        let span = trace::begin("gen.payload", root, op_id);
        payloads.push(build_payload(&sut.corpus, op));
        trace::end(span);
        roots.push((root, op_id));
    }

    let mut submitted = Vec::with_capacity(n);
    let mut tickets = Vec::with_capacity(n);
    for ((op, payload), &(root, op_id)) in window.iter().zip(payloads).zip(&roots) {
        submitted.push(Instant::now());
        let span = trace::begin("service.submit", root, op_id);
        tickets.push(submit(&sut.svc, op, payload));
        trace::end(span);
    }

    let mut replies = Vec::with_capacity(n);
    let mut last_reply = submitted[0];
    for ((ticket, &(root, op_id)), op) in tickets.into_iter().zip(&roots).zip(window) {
        let span = trace::begin("service.wait", root, op_id);
        let reply = ticket.and_then(Ticket::wait);
        trace::end(span);
        last_reply = Instant::now();
        let i = replies.len();
        round[op.class.index()].push((last_reply - submitted[i]).as_nanos() as f64 / 1e3);
        replies.push(reply);
    }

    for ((reply, op), &(root, op_id)) in replies.iter().zip(window).zip(&roots) {
        let span = trace::begin("gen.verify", root, op_id);
        let ok = reply_is_correct(&sut.corpus, op, reply);
        trace::end(span);
        trace::end(root);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    (last_reply - submitted[0]).as_nanos() as u64
}

/// One verified op of each class on corpus stripe 0 (part of set-up).
pub fn verified_op_of_each_class(sut: &Sut) -> Result<(), String> {
    for class in Class::ALL {
        let op = Op {
            class,
            stripe: 0,
            tenant: 0,
            lost: [0, 1],
        };
        let reply = submit(&sut.svc, &op, build_payload(&sut.corpus, &op)).and_then(Ticket::wait);
        if !reply_is_correct(&sut.corpus, &op, &reply) {
            return Err(format!(
                "set-up {} was not answered correctly: {:?}",
                class.name(),
                reply.as_ref().map(Vec::len)
            ));
        }
    }
    Ok(())
}
