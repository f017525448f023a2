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
//! GF(2^8) finite-field arithmetic for erasure coding.
//!
//! This crate is the arithmetic substrate of the DIALGA reproduction. It
//! provides:
//!
//! * scalar field operations over GF(2^8) with the AES-adjacent primitive
//!   polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11D), the polynomial used by
//!   Intel ISA-L and Jerasure;
//! * data-plane slice kernels ([`mod@slice`]) mirroring ISA-L's
//!   `gf_vect_mul`/`gf_vect_mad` split-nibble lookup scheme (the scheme the
//!   paper's Figure 2 calls the "lookup table approach");
//! * bitmatrix expansion ([`bitmatrix`]) used by XOR-based codes
//!   (Zerasure/Cerasure-style baselines), where each GF(2^8) element becomes
//!   an 8x8 binary companion matrix and multiplication becomes XOR groups.
//!
//! All operations are implemented in portable Rust written so the compiler
//! can autovectorize the hot loops; correctness is exercised by unit and
//! property tests rather than by trusting any table constant.

pub mod arith;
pub mod bitmatrix;
pub mod sched;
pub mod simd;
pub mod slice;
pub mod tables;

pub use arith::Gf8;
pub use bitmatrix::BitMatrix;

/// Cacheline granularity of the row-pipelined kernels: every fused
/// dot-product step processes one 64 B line per source block, and prefetch
/// distances count in these units. Name this constant instead of writing a
/// bare `64` so the geometry cannot drift (lint rule R6).
pub const CACHELINE: usize = 64;
