#!/usr/bin/env sh
# Tier-1.5 verify, thirteen stages, every one hard-failing: formatting,
# clippy, rustdoc, the locked benchmark build check, the in-tree static
# analyzer, the race / chaos / crash smokes, the core, release-sweep,
# tier-sweep and workspace test runs, and the figure record check over all
# 21 tables. Run from the repository root (or via `just lint`).
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings: no link to a private, renamed or deleted item) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== benchmark build check (benchmark/ against this tree, lock file frozen) =="
# The benchmark is its own package over path dependencies: a renamed item
# it uses, or a dependency change that would make cargo rewrite
# benchmark/Cargo.lock, fails here instead of in the benchmark run.
cargo check --offline --locked --manifest-path benchmark/Cargo.toml --all-targets

echo "== dialga-lint (unsafe surface, atomic/lock protocols, panic paths, const drift) =="
cargo run -q -p dialga-lint

echo "== race smoke (seeded interleaving models, bounded schedule budget) =="
# Fixed seeds are baked into the models; RACE_SCHEDULES caps the PCT
# sweep per model so the gate stays fast. `just race` runs the full
# 1000-schedule sweep.
RACE_SCHEDULES=64 cargo test -q -p dialga-race

echo "== chaos smoke (fixed-seed fault plans + stripe integrity) =="
cargo test -q --test chaos --test integrity

echo "== core tests (pool, encoder; fault hooks compiled in) =="
cargo test -q -p dialga --features fault-injection

echo "== release sweeps (Dialga::locate against the erase-decode-reverify reference, every case; the XOR scheduler's time bound; the store's slot hash; the write-only kernel and pool outputs) =="
# A debug build skips the cases whose reference search passes 2 000
# candidates — the deep (12,8) and (3,6) ones; only this stage runs them.
cargo test -q --release -p dialga --lib locate_is_the_reference
# The widest figure code's schedule must build in under 2 s: a time bound
# a debug build cannot hold, so it is ignored there and run here.
cargo test -q --release -p dialga-ec --lib wide_zerasure_builds_in_two_seconds -- --include-ignored
# Only a release build vectorizes the slot hash's lane loop: the pinned
# digests, and the hash's position and streaming properties, must hold
# in that codegen too.
cargo test -q --release -p dialga-store --lib hash
# Fresh outputs get their length only on the argument that every byte was
# stored: the fused pass on every tier and tail shape, and the pool's
# chunks tiling every output. These two tests carry that argument, so they
# must hold in the codegen that ships, not only in a debug build.
cargo test -q --release -p dialga-gf --test proptests fused_matches_reference_for_all_tiers_and_tail_shapes
cargo test -q --release -p dialga --test proptests every_pool_operation_is_bit_exact_on_every_executor_count

echo "== kernel tier sweep (every GF tier this CPU has against the scalar reference, then end to end; prints the tiers run / skipped) =="
# A green gate on a CPU without GFNI must say so rather than pass the top
# tier unseen; the workspace stage below runs the same two tests quietly.
cargo test -q -p dialga-gf --test proptests fused_matches_reference_for_all_tiers_and_tail_shapes -- --nocapture
cargo test -q -p dialga --test tiers -- --nocapture

echo "== workspace tests (every crate's unit, integration and doc tests, the lint fixtures included) =="
cargo test -q --workspace

echo "== crash smoke (every (4,2) persist boundary, sampled wide-code sweeps) =="
# Exhaustive enumeration for the smallest code; CRASH_SEEDS stays at its
# small default here. `just crash` runs the widened sweep.
cargo test -q --test crash

echo "== figures --check (all 21 simulated tables against results/*.csv) =="
# Byte-for-byte: a model change that moves a committed number fails here
# until results/ and EXPERIMENTS.md are regenerated. About 20 s on a
# 2-vCPU host; each table's host milliseconds go to stderr.
cargo run -q --release -p dialga-bench --bin figures -- --check

echo "lint OK"
