#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Facade crate for the DIALGA reproduction workspace.
//!
//! Re-exports the public surfaces of every sub-crate so examples and
//! integration tests can use a single dependency:
//!
//! * [`gf`] — GF(2^8) arithmetic and slice kernels.
//! * [`ec`] — Reed–Solomon, XOR-bitmatrix, and LRC codes (plus the
//!   Zerasure/Cerasure-style baselines and decompose strategy).
//! * [`memsim`] — the persistent-memory + cache-hierarchy + hardware
//!   prefetcher simulator that substitutes for Optane hardware.
//! * [`pipeline`] — access-pattern generators, the timed executor that
//!   couples coding strategies to the simulator, and the DIALGA scheduler
//!   that runs there (adaptive coordinator, hill climber, buffer-friendly
//!   prefetch, the Fig. 9 operator specification).
//! * [`coder`] — DIALGA on real bytes: the row-pipelined coder and the
//!   persistent encode pool that runs its schedule.
//! * [`service`] — the sharded stripe-service front end (bounded
//!   admission, tenant-fair scheduling, fused batch dispatch).
//! * [`store`] — the journaled stripe store (shadow-write + atomic
//!   commit record, crash recovery, boot scrub).

pub mod archive;

pub use dialga as coder;
pub use dialga_ec as ec;
pub use dialga_gf as gf;
pub use dialga_memsim as memsim;
pub use dialga_pipeline as pipeline;
pub use dialga_service as service;
pub use dialga_store as store;
