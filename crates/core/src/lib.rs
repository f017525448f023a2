#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]
//! DIALGA — adaptive hardware/software prefetcher scheduling for erasure
//! coding on persistent memory.
//!
//! This crate is the paper's primary contribution. It layers three
//! mechanisms over the table-driven Reed–Solomon substrate of `dialga-ec`:
//!
//! * the **adaptive coordinator** ([`coordinator`]) — samples PMU-analogue
//!   counters at a fixed rate, tracks the I/O access pattern (k, m, block
//!   size, thread count) and switches prefetch strategy with threshold
//!   heuristics (110 % load-latency threshold, 150 % useless-prefetch
//!   threshold, 12-thread concurrency threshold) plus hill climbing
//!   ([`hillclimb`]) for the software prefetch distance — on the simulator;
//! * the **lightweight operator** ([`operator`]) — the static shuffle
//!   mapping that silences the L2 stream prefetcher from userspace, and the
//!   branchless prefetch-pointer construction of Fig. 9;
//! * **PM read-buffer-friendly prefetch** — the per-XPLine distance split
//!   (first line at `k+4`) under low pressure, 256 B task expansion under
//!   high pressure, and the Eq. (1) bound on the maximum prefetch distance
//!   (all dispatched from [`coordinator::Policy`]).
//!
//! Two execution surfaces:
//!
//! * [`encoder::Dialga`] — a *functional* encoder/decoder on real bytes
//!   (bit-exact with `dialga-ec`), whose kernels really are row-pipelined
//!   and emit real `prefetcht0` hints on x86-64;
//! * [`source::DialgaSource`] — the *timed* coupling to the PM simulator,
//!   used by every figure reproduction, and the only place the coordinator
//!   runs: it samples PMU counters on PM, and the host has neither.
//!
//! Multi-threaded encoding goes through the persistent executor pool of
//! [`pool::EncodePool`] (the submitting thread plus long-lived workers,
//! batch submission; every chunk runs its coder's schedule).

pub mod coordinator;
pub mod encoder;
pub mod hillclimb;
pub mod operator;
pub mod pool;
pub mod source;

pub use coordinator::{Coordinator, CoordinatorSnapshot, Policy, PressureState};
pub use encoder::{DecodePlan, Dialga, RepairPlan};
pub use pool::{DecodeJob, EncodePool, PoolStats, StripeJob};
pub use source::{DialgaSource, Variant};
