#![forbid(unsafe_code)]
#![deny(missing_docs)]
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
//! Erasure codes for the DIALGA reproduction.
//!
//! This crate implements every coding system the paper evaluates:
//!
//! * [`rs`] — table-driven Reed–Solomon à la Intel ISA-L (the "lookup table
//!   approach" of Fig. 2): `m x k` Cauchy/Vandermonde parity matrices, each
//!   data block read exactly once per encode.
//! * [`xor`] + [`schedule`] — XOR/bitmatrix codes à la Jerasure, with the
//!   two optimizing baselines the paper compares against:
//!   a Zerasure-style simulated-annealing matrix search and a
//!   Cerasure-style greedy search, both with common-subexpression
//!   ("smart") scheduling.
//! * [`decompose`] — wide-stripe decomposition (the ISA-L-D / Cerasure
//!   decompose strategy of §5.1): split k into sub-stripes, accumulate
//!   partial parities with extra parity reloads.
//! * [`lrc`] — Azure-style Locally Repairable Codes LRC(k, m, l) (§4.1
//!   "Other Coding Tasks" and Fig. 16).
//!
//! All encoders/decoders operate on real bytes and are verified by unit,
//! integration and property tests; the timing behaviour on persistent
//! memory is modelled separately by `dialga-pipeline` + `dialga-memsim`.

pub mod decompose;
pub mod error;
pub mod lrc;
pub mod matrix;
pub mod rs;
pub mod schedule;
pub mod xor;

pub use error::{check_blocks, check_count, present_shard, EcError};
pub use lrc::{LocalRepairPlan, Lrc};
pub use matrix::GfMatrix;
pub use rs::ReedSolomon;
pub use schedule::Schedule;
pub use xor::{execute_schedule, XorCode};

/// Stripe geometry shared by every code in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeParams {
    /// Number of data blocks per stripe.
    pub k: usize,
    /// Number of parity blocks per stripe.
    pub m: usize,
}

impl CodeParams {
    /// Construct and validate RS(k+m, k) geometry for GF(2^8).
    pub fn new(k: usize, m: usize) -> Result<Self, EcError> {
        if k == 0 || m == 0 {
            return Err(EcError::InvalidParams {
                k,
                m,
                reason: "k and m must be positive",
            });
        }
        if k + m > 255 {
            return Err(EcError::InvalidParams {
                k,
                m,
                reason: "k + m must not exceed 255 in GF(2^8)",
            });
        }
        Ok(CodeParams { k, m })
    }

    /// Total blocks per stripe.
    pub fn n(&self) -> usize {
        self.k + self.m
    }
}
