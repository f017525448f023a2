# Developer entry points. `just` is optional — every recipe is a one-line
# shell command you can paste, and scripts/lint.sh works without just.

# Build + every crate's tests (tier-1 verify is the root package only:
# `cargo build --release && cargo test -q`)
test:
    cargo build --release && cargo test -q --workspace

# Formatting, clippy, rustdoc, dialga-lint, the smokes, every crate's
# tests and the figure record check, all hard-failing (tier-1.5 verify)
lint:
    sh scripts/lint.sh

# Rustdoc over every crate with warnings as errors: a doc comment that
# links a private, renamed or deleted item fails (a stage of `just lint`)
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The benchmark package (benchmark/) built against this tree with its lock
# file frozen: a renamed item it uses, or a dependency change that would
# rewrite benchmark/Cargo.lock, fails here (a stage of `just lint`)
bench-check:
    cargo check --offline --locked --manifest-path benchmark/Cargo.toml --all-targets

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

# The host coder crate's own tests (pool, encoder) with the pool's fault
# hooks compiled in (a stage of `just lint`)
core-test:
    cargo test -q -p dialga --features fault-injection

# The release-only tests: Dialga::locate against the erase-decode-reverify
# reference, the deep (12,8) / (3,6) cases a debug build skips included,
# the XOR scheduler's 2 s bound on the widest figure code, the store's
# slot-hash tests in the codegen that vectorizes the lane loop, and the two
# tests the write-only outputs' `assume_written` argument rests on (the
# fused kernel on every tier and tail shape, every pool operation on ragged
# chunks; a stage of `just lint`)
release-sweep:
    cargo test -q --release -p dialga --lib locate_is_the_reference
    cargo test -q --release -p dialga-ec --lib wide_zerasure_builds_in_two_seconds -- --include-ignored
    cargo test -q --release -p dialga-store --lib hash
    cargo test -q --release -p dialga-gf --test proptests fused_matches_reference_for_all_tiers_and_tail_shapes
    cargo test -q --release -p dialga --test proptests every_pool_operation_is_bit_exact_on_every_executor_count

# Every GF kernel tier this CPU has, against the scalar reference and end
# to end through core; prints which tiers ran and which the CPU lacks
# (a stage of `just lint`)
tier-sweep:
    cargo test -q -p dialga-gf --test proptests fused_matches_reference_for_all_tiers_and_tail_shapes -- --nocapture
    cargo test -q -p dialga --test tiers -- --nocapture

# Every crate's unit, integration and doc tests — gf, ec, memsim,
# pipeline, service, store, testkit, the JSON reader and the lint fixtures
# run nowhere else; the root `cargo test` is the facade package only
# (a stage of `just lint`)
workspace-test:
    cargo test -q --workspace

# Crash-point recovery sweep: exhaustive persist-boundary enumeration on
# (4,2) plus seeded random crash sweeps on (6,3)/(10,4). Deterministic;
# CRASH_SEEDS widens the random sweeps.
crash:
    CRASH_SEEDS=16 cargo test -q --test crash

# Regenerate every figure table (crates/bench/src/figures.rs) and rewrite
# results/*.csv (~20 s; name tables after `--csv` to run only those)
figures:
    cargo run --release -p dialga-bench --bin figures -- --csv

# Regenerate every simulated table at its default size and compare with
# the committed results/*.csv byte for byte (~20 s on a 2-vCPU host; the
# last stage of `just lint`)
figures-check:
    cargo run --release -p dialga-bench --bin figures -- --check
