#!/usr/bin/env sh
# Tier-1.5 verify: formatting and lints, both hard-failing.
# Run from the repository root (or via `just lint`).
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== dialga-lint (unsafe surface, atomic/lock/latch protocols, panic paths, const drift) =="
cargo run -q -p dialga-lint

echo "== race smoke (seeded interleaving models, bounded schedule budget) =="
# Fixed seeds are baked into the models; RACE_SCHEDULES caps the PCT
# sweep per model so the gate stays fast. `just race` runs the full
# 1000-schedule sweep.
RACE_SCHEDULES=64 cargo test -q -p dialga-race

echo "== kernel_fusion smoke (fused/per-row bit-exactness gate) =="
cargo run -q -p dialga-bench --bin kernel_fusion -- --smoke

echo "== xor_opt smoke (schedule optimizer bit-exactness + monotonicity gate) =="
cargo run -q -p dialga-bench --bin xor_opt -- --smoke

echo "== chaos smoke (fixed-seed fault plans + stripe integrity) =="
cargo test -q --test chaos --test integrity

echo "== core tests (pool, coordinator, encoder; fault hooks compiled in) =="
cargo test -q -p dialga --features fault-injection

echo "== workspace tests (every crate's unit, integration and doc tests, the lint fixtures included) =="
cargo test -q --workspace

echo "== crash smoke (every (4,2) persist boundary, sampled wide-code sweeps) =="
# Exhaustive enumeration for the smallest code; CRASH_SEEDS stays at its
# small default here. `just crash` runs the widened sweep.
cargo test -q --test crash

echo "== recovery smoke (seeded power-fail + timed reopen, torn-hybrid gate) =="
cargo run -q -p dialga-bench --bin recovery_bench -- --smoke

echo "== workload smoke (trace replay over all profiles, artifact self-check) =="
cargo run -q --release -p dialga-bench --features fault-injection \
    --bin workload_bench -- --smoke --json target/BENCH_SMOKE.json

echo "== trajectory (schema gate over committed BENCH_*.json artifacts) =="
cargo run -q --release -p dialga-bench --bin trajectory

echo "lint OK"
