# Developer entry points. `just` is optional — every recipe is a one-line
# shell command you can paste, and scripts/lint.sh works without just.

# Build + tests (tier-1 verify)
test:
    cargo build --release && cargo test -q --workspace

# Formatting + clippy + dialga-lint, hard-failing (tier-1.5 verify)
lint:
    sh scripts/lint.sh

# Self-tests of the in-tree static analyzer (fixtures + live-workspace scan)
lint-fixtures:
    cargo test -q -p dialga-lint

# Full seeded interleaving sweep: every dialga-race model (pool latch,
# heal/respawn, DRR admission, lock order) across 1000 PCT schedules per
# seed, plus the bounded-exhaustive and PR 3 bug-model self-tests.
# Deterministic; RACE_SCHEDULES overrides the budget.
race:
    RACE_SCHEDULES=1000 cargo test -q -p dialga-race

# Fixed-seed chaos smoke: seeded fault plans through the self-healing
# pool plus the stripe-integrity suite (deterministic, <= 5 s)
chaos:
    cargo test -q --test chaos --test integrity

# The scheduler crate's own tests (pool, coordinator, encoder) with the
# fault hooks compiled in (a stage of `just lint`)
core-test:
    cargo test -q -p dialga --features fault-injection

# Every crate's unit, integration and doc tests — gf, ec, memsim,
# pipeline, service, store, workload, testkit and the lint fixtures run
# nowhere else; the root `cargo test` is the facade package only
# (a stage of `just lint`)
workspace-test:
    cargo test -q --workspace

# Crash-point recovery sweep: exhaustive persist-boundary enumeration on
# (4,2) plus seeded random crash sweeps on (6,3)/(10,4). Deterministic;
# CRASH_SEEDS widens the random sweeps.
crash:
    CRASH_SEEDS=16 cargo test -q --test crash

# Figure tables (see crates/bench/src/bin)
figures:
    cargo run --release -p dialga-bench --bin all_figures

# Repair-path smoke: simulated + host repair tables, on tiny inputs
repair-bench:
    cargo run --release -p dialga-bench --bin repair_path -- --quick

# Host microbenchmarks (in-tree harness, no external deps)
bench:
    cargo bench -p dialga-bench

# Kernel-fusion ablation (fused vs per-row GF dot-product), full sweep,
# committed as BENCH_PR4.json
kernel-bench:
    cargo run --release -p dialga-bench --bin kernel_fusion -- --json BENCH_PR4.json

# Sharded stripe-service load generator: closed-loop mixed
# encode/decode/repair over a 1→8 shard sweep, committed as BENCH_PR6.json
service-bench:
    cargo run --release -p dialga-bench --bin service_bench -- --json BENCH_PR6.json

# Trace-driven production workload replay: steady / skewed+bursty /
# chaos-armed profiles plus the raw-pool baseline, committed as
# BENCH_PR7.json (the artifact self-validates before it is written)
workload-bench:
    cargo run --release -p dialga-bench --features fault-injection --bin workload_bench -- --json BENCH_PR7.json

# XOR-schedule optimizer over the code zoo: naive vs optimized schedules
# through the tiled executor, fused-RS reference for MDS families,
# committed as BENCH_PR9.json
xor-bench:
    cargo run --release -p dialga-bench --bin xor_opt -- --json BENCH_PR9.json

# Seeded power-fail sweeps over the journaled stripe store: timed
# recovery (commit-table walk + boot scrub) per crash, roll tallies,
# committed as BENCH_PR10.json (self-validated before the write; the
# gate hard-fails any torn-hybrid recovery)
recovery-bench:
    cargo run --release -p dialga-bench --bin recovery_bench -- --json BENCH_PR10.json

# Cross-PR latency/throughput trajectory over every committed
# BENCH_PRn.json; exits non-zero on any schema drift
trajectory:
    cargo run --release -p dialga-bench --bin trajectory
