#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! `dialga-workload` — the trace-driven production-workload harness.
//!
//! The adaptive scheduling this repository reproduces (DIALGA, ICPP'25)
//! only pays off under realistic, *shifting* load: Pythia argues tuning
//! must be driven by live system feedback, and DSPatch shows a policy
//! needs both bandwidth-bound and latency-bound regimes exercised before
//! its variant choice means anything. This crate supplies those regimes
//! deterministically:
//!
//! * [`spec`] — a declarative workload description: phases with op mixes
//!   (encode / degraded-read / repair / scrub), Zipf-skewed hot tenants
//!   and stripes, open- or closed-loop arrivals, on/off burst shaping,
//!   and per-phase block sizes so a mid-run phase boundary is a genuine
//!   workload *shift* that forces coordinator re-convergence;
//! * [`replay`] — the replayer: drives a [`StripeService`] from a
//!   testkit-seeded RNG, phase by phase, arming phase-scoped
//!   [`FaultSchedule`] chaos when the `fault-injection` feature is on, and
//!   measuring client-observed latency per op class;
//! * [`report`] — the run report: throughput plus p50/p99/p999 per op
//!   class, integrity-scrub outcomes and coordinator convergence time
//!   after each shift;
//! * [`json`] — the std-only JSON value and reader (the container pins no
//!   serde); the benchmark's tests read `BENCHMARK.json` and span dumps
//!   through it.
//!
//! Determinism: every random choice (tenant, op, stripe, hole positions,
//! corruption, burst jitter) flows from one `dialga_testkit::Rng` seeded
//! by [`spec::WorkloadSpec::seed`], so a replay is reproducible
//! trace-for-trace; wall-clock timings of course vary with the host.
//!
//! [`StripeService`]: dialga_service::StripeService
//! [`FaultSchedule`]: dialga_faultkit::FaultSchedule

pub mod json;
pub mod replay;
pub mod report;
pub mod spec;
mod zipf;

pub use replay::replay_service;
pub use report::{ClassReport, PhaseReport, RunReport, ScrubOutcomes, ServiceSummary};
pub use spec::{Arrival, Burst, Mix, Phase, WorkloadSpec};
pub use zipf::Zipf;
