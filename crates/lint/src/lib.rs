#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! `dialga-lint` — in-tree static safety analyzer for the DIALGA workspace.
//!
//! DIALGA's performance rests on a small, deliberate unsafe surface: the
//! raw-span chunk handoff in the persistent pool (`core/src/pool.rs`), the
//! SSSE3 / AVX2 / AVX-512+GFNI GF kernels (`gf/src/simd.rs`) and the
//! prefetch hint (`gf/src/slice.rs`). PR 2 proved that surface bites when its invariants
//! are conventions rather than checked facts (a truncated survivor shard
//! reached the unsafe kernel). This crate machine-checks the conventions.
//! It is std-only and offline: a lexer-grade scanner ([`scan`]) plus a
//! rule engine ([`rules`]), run as a hard-failing stage of
//! `scripts/lint.sh` (tier-1.5).
//!
//! ## Rules
//!
//! | id | key | checks |
//! |----|-----|--------|
//! | R2 | `unsafe-confine` | `unsafe` only in whitelisted kernel modules; other crate roots `#![forbid(unsafe_code)]`, kernel crates `#![deny(unsafe_op_in_unsafe_fn)]` |
//! | R6 | `const-drift` | no bare `256` (`CHUNK_ALIGN`/`XPLINE`) or `64` (`CACHELINE`) literals in geometry-bearing library code outside the constants' defining modules |
//! | R8 | `lock-order` | the declared Mutex acquisition graph is acyclic across the workspace; no channel `send`/`recv` under a held lock, directly or through same-file calls; every acquisition in the pool/service/fault paths resolves to a declared lock |
//! | R9 | `atomic-protocol` | every atomic in protocol scope has a declared role — `knob` (store Release / load Acquire), `counter` (Relaxed only), `latch` (fetch_add/fetch_sub AcqRel\|Release + load Acquire), `flag` (store Release / load Acquire / RMW Acquire\|Release\|AcqRel) — and each op follows its role; the knob arm is checked in every scanned file, tests included |
//!
//! Rule ids are stable, and nothing was renumbered when a rule left:
//!
//! * R1 (`safety-comment`) and R4 (`panic-path`) are clippy lints set at
//!   the crate roots that need them. `clippy::undocumented_unsafe_blocks`
//!   and `clippy::missing_safety_doc` sit on `dialga` and `dialga-gf`, the
//!   only crates R2 lets hold `unsafe` (the root `clippy.toml` extends the
//!   second to private items). `clippy::{unwrap_used, expect_used, panic,
//!   unreachable, todo, unimplemented}` sit outside `cfg(test)` on
//!   `dialga`, `dialga-ec`, `dialga-gf`, `dialga-pipeline`,
//!   `dialga-faultkit`, `dialga-service` and `dialga-store`.
//! * R3 (`atomic-order`, the knob-word check) was one arm of R9's role
//!   table and is folded into it.
//! * R5 (`raw-ptr`) is folded into R2: it flagged pointer arithmetic only
//!   inside `unsafe` regions, and `from_raw_parts` is an `unsafe fn`, so
//!   every site it caught is an `unsafe` site R2 confines already.
//! * R7 (span-range provenance) and R10 (latch completion) each guarded
//!   one site in the pool, and the pool's own structure now makes their
//!   checks true: a chunk passes its own `split_ranges` range straight to
//!   every span's `sub`, and a worker chunk completes its latch seat only
//!   in its `Drop`.
//!
//! Per-site suppressions use `// lint:allow(<key>): <justification>` on the
//! finding's line or the line above; the justification lives in the source
//! next to the site it licenses.
//!
//! ## Known lexical limits
//!
//! The scanner is comment- and string-exact but does not parse. Receiver
//! resolution for R9 is the identifier before `.op(` (walking back
//! through one `[index]` group), so rebinding an atomic field to a
//! differently-named local escapes the check; R8's guard-lifetime model is
//! binder-traced per function body, so a guard returned from a non-helper
//! function or stashed in a struct escapes the walk. The live-workspace
//! integration test (`tests/workspace_clean.rs`) pins the conventions that
//! keep these approximations sound.

pub mod rules;
pub mod scan;

pub use rules::{
    check_source, check_sources, AtomicDecl, AtomicRole, Config, Finding, LiteralGuard, LockDecl,
    Rule,
};

use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned (build output, VCS, the linter's own
/// deliberately-dirty rule fixtures).
const SKIP_DIRS: &[&str] = &["target", ".git"];
const SKIP_PREFIXES: &[&str] = &["crates/lint/fixtures"];

/// The workspace policy for this repository: whitelists, crate-root
/// attribute obligations, and the declared atomic fields of the pool's
/// knob/stat protocol.
pub fn workspace_config() -> Config {
    let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect();
    Config {
        unsafe_whitelist: s(&[
            "crates/core/src/pool.rs",
            "crates/gf/src/simd.rs",
            "crates/gf/src/slice.rs",
            // The allocation-count test's counting `#[global_allocator]`:
            // an `unsafe impl GlobalAlloc` that forwards to `System`.
            "crates/service/tests/allocs.rs",
        ]),
        forbid_roots: s(&[
            "crates/ec/src/lib.rs",
            "crates/memsim/src/lib.rs",
            "crates/pipeline/src/lib.rs",
            "crates/testkit/src/lib.rs",
            // The fault-injection plane stays 100% safe code by design:
            // its hooks publish through an atomic word and a Mutex, never
            // raw pointers (so it needs no R2 whitelisting either).
            "crates/faultkit/src/lib.rs",
            // The service layer composes pool submissions; all raw-span
            // handling stays inside the pool it drives.
            "crates/service/src/lib.rs",
            // The benchmark tests' JSON reader: string parsing only.
            "crates/workload/src/lib.rs",
            // The journaled stripe store is pure byte-slice code over the
            // PmImage trait; crash consistency comes from the protocol,
            // never from raw memory tricks.
            "crates/store/src/lib.rs",
            "crates/bench/src/lib.rs",
            "crates/lint/src/lib.rs",
            // The interleaving explorer is pure std: scheduler, shim
            // primitives and models all live in safe code.
            "crates/race/src/lib.rs",
            "src/lib.rs",
        ]),
        deny_unsafe_op_roots: s(&["crates/core/src/lib.rs", "crates/gf/src/lib.rs"]),
        // The declared-atomic registry (R9): each
        // entry is a field name plus the ordering protocol its role
        // implies. DESIGN.md's "Concurrency protocols" appendix tabulates
        // the same registry with per-field rationale.
        atomics: {
            let knob = |f: &str| AtomicDecl {
                field: f.to_string(),
                role: AtomicRole::Knob,
            };
            let counter = |f: &str| AtomicDecl {
                field: f.to_string(),
                role: AtomicRole::Counter,
            };
            let flag = |f: &str| AtomicDecl {
                field: f.to_string(),
                role: AtomicRole::Flag,
            };
            let latch = |f: &str| AtomicDecl {
                field: f.to_string(),
                role: AtomicRole::Latch,
            };
            let mut v = vec![
                // GF kernel-dispatch override (dialga-gf::simd).
                knob("KERNEL_OVERRIDE"),
                // dialga-faultkit's arm word: Release on arm/disarm,
                // Acquire on the hook's armed check, swap on one-shot
                // consume — a hand-off flag, not a policy knob.
                flag("fault_word"),
                // dialga-service's recovery gate: the recovery thread
                // stores false (Release) only after publishing the opened
                // store; submit/accessors load Acquire. Same shape as the
                // stripe store's on-image commit word (below).
                flag("recovering"),
                // The stripe store's 8-byte commit record. It lives in
                // the persistence domain, not a Rust atomic, so R9 never
                // sees an op on it — declared so the role registry (and
                // DESIGN.md's table) names every publication word in the
                // workspace, and so the dialga-race model that mirrors it
                // cites a declared role.
                flag("commit_word"),
                // dialga-service's two retirement tallies (moved here from
                // the counter list in PR 23): a request retires with
                // `fetch_add(Release)` after the admission that counted it
                // in `submitted`; `stats()` loads them `Acquire` and only
                // then `submitted`, so no snapshot shows
                // `completed + expired > submitted`.
                latch("completed"),
                latch("expired"),
            ];
            // `PoolCounters` stats plus the round-robin dispatch cursor,
            // faultkit's arm-generation stamp, dialga-service tallies
            // (ServiceCounters), the service-wide submission sequence, the
            // lock-free shard occupancy gauge with its `fetch_max`
            // high-water ratchet and the LatencyHist fields — monotone or
            // advisory values with no cross-field consistency contract
            // (queue consistency lives under the shard mutex).
            for f in [
                "loads",
                "busy_ns",
                "chunks",
                "stripes",
                "dispatches",
                "worker_deaths",
                "worker_respawns",
                "batch_retries",
                "next_worker",
                "generation",
                "submitted",
                "rejected",
                "spilled",
                "batches",
                "coalesced",
                "fallbacks",
                "seq",
                "occupancy",
                "occupancy_peak",
                "count",
                "total_ns",
                "max_ns",
                "bucket",
            ] {
                v.push(counter(f));
            }
            v
        },
        // R9 runs over library code; the race shims (which accept any
        // ordering by design), testkit/bench harness code and the lint
        // crate itself stay out.
        atomic_scope_prefixes: s(&[
            "crates/core/src/",
            "crates/service/src/",
            "crates/faultkit/src/",
            "crates/gf/src/",
            "crates/ec/src/",
            "crates/memsim/src/",
            "crates/pipeline/src/",
            "crates/store/src/",
        ]),
        // The R8 lock graph: every Mutex in the pool/service/fault paths,
        // named once, with the receivers and helper methods that acquire
        // it. The pool's batch latch is a Mutex+Condvar pair (`inner`);
        // `Chunk`'s `Drop` is its only completer.
        locks: vec![
            LockDecl {
                name: "slots".to_string(),
                receivers: s(&["slots"]),
                helpers: s(&["lock_slots"]),
            },
            LockDecl {
                name: "batch_inner".to_string(),
                receivers: s(&["inner"]),
                helpers: vec![],
            },
            // The pool's span storage: taken by a submission and put back
            // after it, one statement each; nothing runs under it.
            LockDecl {
                name: "spans".to_string(),
                receivers: s(&["spans"]),
                helpers: vec![],
            },
            // A pool verify's dirty-row set: a chunk that found a row
            // differing merges it here, holding no other lock.
            LockDecl {
                name: "dirty".to_string(),
                receivers: s(&["dirty"]),
                helpers: vec![],
            },
            LockDecl {
                name: "queue".to_string(),
                receivers: s(&["queue"]),
                helpers: s(&["lock_queue"]),
            },
            LockDecl {
                name: "traces".to_string(),
                receivers: s(&["traces"]),
                helpers: vec![],
            },
            LockDecl {
                name: "armed".to_string(),
                receivers: s(&["armed"]),
                helpers: s(&["lock_armed"]),
            },
            // The service's recovery hand-off slot: the recovery thread
            // publishes the opened store and clears the `recovering` flag
            // under it, then notifies its condvar; `wait_recovered` waits on
            // that condvar under it, and the other accessors take it only
            // after observing the flag clear. It never nests inside
            // another lock.
            LockDecl {
                name: "recovered".to_string(),
                receivers: s(&["recovered"]),
                helpers: vec![],
            },
        ],
        lock_scope_prefixes: s(&[
            "crates/core/src/",
            "crates/service/src/",
            "crates/faultkit/src/",
        ]),
        literal_guards: vec![
            LiteralGuard {
                value: 256,
                name: "`CHUNK_ALIGN` (dialga::pool) / `XPLINE` (dialga-memsim)".to_string(),
                scope_prefixes: s(&[
                    "crates/core/src/",
                    "crates/memsim/src/",
                    "crates/pipeline/src/",
                ]),
                defining_modules: s(&["crates/core/src/pool.rs", "crates/memsim/src/lib.rs"]),
            },
            LiteralGuard {
                value: 64,
                name: "`CACHELINE` (dialga-gf / dialga-memsim)".to_string(),
                scope_prefixes: s(&[
                    "crates/core/src/",
                    "crates/gf/src/simd.rs",
                    "crates/pipeline/src/",
                ]),
                defining_modules: s(&["crates/gf/src/lib.rs", "crates/memsim/src/lib.rs"]),
            },
        ],
    }
}

/// Scan every `.rs` file under `root` (skipping build output and rule
/// fixtures) and return all findings plus the number of files checked.
pub fn check_workspace(root: &Path, cfg: &Config) -> io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        sources.push((rel.replace('\\', "/"), source));
    }
    // Batched so R8's cross-file cycle detection sees every edge at once.
    let findings = check_sources(&sources, cfg);
    Ok((findings, files.len()))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") && !SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            out.push(rel);
        }
    }
    Ok(())
}

/// Default workspace root when running via `cargo run -p dialga-lint`:
/// two levels above this crate's manifest.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}
