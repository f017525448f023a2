#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! The repository's benchmark: five workloads driven through the public
//! API from outside — `dialga_gf::simd`, `dialga::{Dialga, EncodePool}`,
//! `dialga_service::StripeService`, `dialga_store::{StripeStore, PmImage}`,
//! `dialga_pipeline::runner::run_source` with `dialga::source::DialgaSource`.
//!
//! See `README.md` beside this crate for the metric dictionary and how to
//! read the output. This crate claims no gain; later performance claims
//! are stated as one of its metric names on one of its workload names.

pub mod describe;
pub mod gen;
pub mod host;
pub mod image;
pub mod ladder;
pub mod run;
pub mod selfcheck;
pub mod setup;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod store;
pub mod svc;
pub mod trace;
