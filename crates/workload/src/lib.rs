#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! `dialga-workload` — the std-only JSON reader the benchmark's tests
//! import (the workspace builds offline, without serde).
//!
//! [`json`] parses the JSON this repository writes: `BENCHMARK.json` and
//! the benchmark's span dumps. The benchmark generates its own load in
//! `benchmark/src/gen.rs`; nothing here drives the service.

pub mod json;
