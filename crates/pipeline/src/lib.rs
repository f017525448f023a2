#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Access-pattern generation and timed execution.
//!
//! This crate couples the coding strategies of `dialga-ec` to the memory
//! simulator of `dialga-memsim`. Each strategy gets a *pattern*: a
//! [`TaskSource`](dialga_memsim::TaskSource) that emits, row by row, the
//! memory accesses the strategy's kernels perform:
//!
//! * [`isal::IsalSource`] — the table-driven dot-product loop (k interleaved
//!   read streams, m NT-store streams per row), with knobs for DIALGA's
//!   pipelined software prefetch, shuffle mapping and XPLine task expansion;
//! * [`source::DialgaSource`] — timed DIALGA: an `IsalSource` whose knobs
//!   the adaptive [`coordinator`] (§4.1) retunes from the simulated PMU
//!   counters, with [`hillclimb`] searching the prefetch distance, plus the
//!   static Fig. 18 breakdown variants;
//! * [`xorpat::XorSource`] — schedule-driven packet XORs with repeated
//!   loads and cached parity read-modify-writes;
//! * [`decomp::DecomposeSource`] — sub-stripe passes with parity reload and
//!   re-store (the ISA-L-D / Cerasure-decompose strategy);
//! * [`lrc_pat::LrcSource`] — RS pattern plus local-parity XOR stores;
//! * decode variants of the above.
//!
//! [`layout::StripeLayout`] fixes where blocks live in simulated physical
//! memory, and [`cost::CostModel`] supplies the per-row compute cycles
//! (AVX512 vs AVX256, §5.5).
//!
//! [`operator`] keeps the Fig. 9 prefetch-pointer array as an executable
//! specification of the schedule the fused kernels run.

pub mod coordinator;
pub mod cost;
pub mod decomp;
pub mod hillclimb;
pub mod isal;
pub mod layout;
pub mod lrc_pat;
pub mod operator;
pub mod runner;
pub mod source;
pub mod update_pat;
pub mod xorpat;

pub use coordinator::{Coordinator, CoordinatorSnapshot, Policy, PressureState};
pub use cost::{CostModel, Simd};
pub use isal::{IsalSource, Knobs};
pub use layout::StripeLayout;
pub use runner::{run_source, run_source_with_hook, ObservedSource};
pub use source::{DialgaSource, Variant};
