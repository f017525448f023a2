#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! DIALGA on real bytes: the coder and the pool that runs its schedule.
//!
//! * [`encoder::Dialga`] — a functional Reed–Solomon encoder/decoder
//!   (bit-exact with `dialga-ec`) whose fused kernels are row-pipelined and
//!   emit the paper's software prefetches (`prefetcht0` on x86-64) from the
//!   schedule it carries;
//! * [`pool::EncodePool`] — the persistent executor pool (the submitting
//!   thread plus long-lived workers, batch submission); every chunk runs its
//!   coder's schedule.
//!
//! The adaptive coordinator (§4.1), its hill climber, the timed DIALGA
//! source and the Fig. 9 operator specification run on the PM simulator
//! and live in `dialga-pipeline`: the coordinator samples PMU counters on
//! PM, and the host has neither.

pub mod encoder;
pub mod pool;

pub use encoder::{DecodePlan, Dialga, RepairPlan};
pub use pool::{DecodeJob, EncodePool, PoolStats, StripeJob};

/// Shim: `benchmark/` still imports `dialga::source::DialgaSource`.
/// ROADMAP.md item 1f deletes it, with [`CoordinatorSnapshot`] below and
/// this crate's `dialga-memsim` / `dialga-pipeline` dependencies; other
/// code uses [`dialga_pipeline::source`].
pub mod source {
    pub use dialga_pipeline::source::DialgaSource;
}

/// Shim for `StripeService::shard_coordinator`'s signature, which
/// `benchmark/` calls (ROADMAP.md item 1f).
pub use dialga_pipeline::coordinator::CoordinatorSnapshot;
