//! Fixture-based self-tests: every rule must fire on its bad fixture and
//! stay silent on its good one. Fixtures live in `fixtures/` (excluded
//! from the live-workspace scan and never compiled); each is checked under
//! a *virtual* workspace path so the path-scoped rules (whitelists, crate
//! roots, rule scopes) exercise exactly the policy the real workspace runs
//! under.

use dialga_lint::{check_source, workspace_config, Rule};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn findings_for(virtual_path: &str, name: &str) -> Vec<dialga_lint::Finding> {
    check_source(virtual_path, &fixture(name), &workspace_config())
}

fn rules_fired(virtual_path: &str, name: &str) -> Vec<Rule> {
    findings_for(virtual_path, name)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// Virtual paths: one inside the unsafe whitelist, one ordinary library
// module in each scoped crate.
const KERNEL: &str = "crates/core/src/pool.rs";
const LIB_EC: &str = "crates/ec/src/fixture.rs";

#[test]
fn r2_fires_on_unsafe_outside_whitelist() {
    let fired = rules_fired("crates/memsim/src/engine.rs", "r2_bad.rs");
    assert!(fired.contains(&Rule::UnsafeConfine), "{fired:?}");
    // The same content inside the whitelist is R2-clean.
    let fired = rules_fired(KERNEL, "r2_bad.rs");
    assert!(!fired.contains(&Rule::UnsafeConfine), "{fired:?}");
    // Raw-pointer surgery needs `unsafe` too, so R2 confines it as well.
    let fired = rules_fired(LIB_EC, "r2_ptr_bad.rs");
    assert!(fired.contains(&Rule::UnsafeConfine), "{fired:?}");
    let fired = rules_fired(KERNEL, "r2_ptr_bad.rs");
    assert!(!fired.contains(&Rule::UnsafeConfine), "{fired:?}");
}

#[test]
fn r2_fires_on_crate_root_missing_forbid() {
    let fired = rules_fired("crates/ec/src/lib.rs", "r2_root_bad.rs");
    assert!(fired.contains(&Rule::UnsafeConfine), "{fired:?}");
    let fired = rules_fired("crates/ec/src/lib.rs", "r2_root_good.rs");
    assert!(!fired.contains(&Rule::UnsafeConfine), "{fired:?}");
    // Kernel crate roots need deny(unsafe_op_in_unsafe_fn) instead; the
    // good fixture lacks it, so it must fail *there*.
    let fired = rules_fired("crates/gf/src/lib.rs", "r2_root_good.rs");
    assert!(fired.contains(&Rule::UnsafeConfine), "{fired:?}");
}

// `r3_*.rs` are the knob-word fixtures of the former R3 `atomic-order`,
// now the knob arm of R9.
#[test]
fn r9_knob_arm_fires_on_protocol_violations() {
    let findings = findings_for(LIB_EC, "r3_bad.rs");
    let r9: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::AtomicProtocol)
        .collect();
    assert_eq!(r9.len(), 3, "{findings:?}");
    assert!(
        r9[0].message.contains("store(Relaxed)"),
        "{}",
        r9[0].message
    );
    assert!(r9[1].message.contains("load(Relaxed)"), "{}", r9[1].message);
    assert!(r9[2].message.contains("mystery"), "{}", r9[2].message);
}

#[test]
fn r9_knob_arm_is_not_scope_limited() {
    // Outside the protocol-scope prefixes, and inside a test region, the
    // two knob-word findings still fire; only the undeclared `mystery`
    // (scope-limited since roles landed) goes quiet.
    let wrapped = format!("#[cfg(test)]\nmod tests {{\n{}}}\n", fixture("r3_bad.rs"));
    for source in [fixture("r3_bad.rs"), wrapped] {
        let findings = check_source(
            "crates/bench/src/bin/figures.rs",
            &source,
            &workspace_config(),
        );
        let messages: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == Rule::AtomicProtocol)
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(messages.len(), 2, "{findings:?}");
        assert!(messages
            .iter()
            .all(|m| m.contains("knob `KERNEL_OVERRIDE`")));
    }
}

#[test]
fn r9_knob_arm_accepts_protocol_and_ignores_non_atomic_lookalikes() {
    for path in [LIB_EC, "crates/bench/src/bin/figures.rs"] {
        let fired = rules_fired(path, "r3_good.rs");
        assert!(!fired.contains(&Rule::AtomicProtocol), "{path}: {fired:?}");
    }
}

#[test]
fn diagnostics_carry_file_line_rule_and_rationale() {
    let findings = findings_for(LIB_EC, "r2_bad.rs");
    let first = &findings[0];
    let rendered = first.to_string();
    assert!(
        rendered.starts_with("crates/ec/src/fixture.rs:5:"),
        "{rendered}"
    );
    assert!(rendered.contains("[R2 unsafe-confine]"), "{rendered}");
    assert!(rendered.contains("kernel whitelist"), "{rendered}");
}

#[test]
fn r6_fires_on_bare_geometry_literals() {
    // Both guards in scope: 256 spelled four ways + 64 spelled twice.
    let findings = findings_for("crates/core/src/fixture.rs", "r6_bad.rs");
    let r6 = findings
        .iter()
        .filter(|f| f.rule == Rule::ConstDrift)
        .count();
    assert_eq!(r6, 6, "{findings:?}");
}

#[test]
fn r6_scopes_guards_independently() {
    // memsim is in the 256 guard's scope but not the 64 guard's: only the
    // four 256-spellings fire.
    let findings = findings_for("crates/memsim/src/fixture.rs", "r6_bad.rs");
    let r6 = findings
        .iter()
        .filter(|f| f.rule == Rule::ConstDrift)
        .count();
    assert_eq!(r6, 4, "{findings:?}");
    // pool.rs *defines* CHUNK_ALIGN (256 exempt) but not CACHELINE: only
    // the two 64-spellings fire.
    let findings = findings_for(KERNEL, "r6_bad.rs");
    let r6 = findings
        .iter()
        .filter(|f| f.rule == Rule::ConstDrift)
        .count();
    assert_eq!(r6, 2, "{findings:?}");
    // Outside every scope the same content is silent.
    let fired = rules_fired(LIB_EC, "r6_bad.rs");
    assert!(!fired.contains(&Rule::ConstDrift), "{fired:?}");
}

#[test]
fn r6_accepts_named_constants_tests_near_misses_and_allows() {
    let fired = rules_fired("crates/core/src/fixture.rs", "r6_good.rs");
    assert!(!fired.contains(&Rule::ConstDrift), "{fired:?}");
}

// ---------------------------------------------------------------- R8, R9

/// Virtual path inside the R8/R9 scope prefixes (service crate).
const LIB_SVC: &str = "crates/service/src/fixture.rs";

#[test]
fn r8_fires_on_lock_order_violations() {
    let findings = findings_for(LIB_SVC, "r8_bad.rs");
    let r8: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::LockOrder)
        .collect();
    assert_eq!(r8.len(), 4, "{findings:?}");
    let messages: Vec<&str> = r8.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("lock-order cycle")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("channel `.send(..)`")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("does not resolve to a declared lock")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("already held")),
        "{messages:?}"
    );
}

#[test]
fn r8_accepts_disciplined_locking() {
    let fired = rules_fired(LIB_SVC, "r8_good.rs");
    assert!(!fired.contains(&Rule::LockOrder), "{fired:?}");
}

#[test]
fn r8_respects_per_site_allow_directive() {
    let fired = rules_fired(LIB_SVC, "r8_allowed.rs");
    assert!(!fired.contains(&Rule::LockOrder), "{fired:?}");
}

#[test]
fn r8_follows_same_file_calls_to_the_channel_op() {
    // PR 23: `dispatch` reaches `done.send` through `dispatch_encodes` and
    // `complete`; calling it with `queue` held is the hand-off bug.
    let findings = findings_for(LIB_SVC, "r8_dispatch_bad.rs");
    let r8: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::LockOrder)
        .collect();
    assert_eq!(r8.len(), 1, "{findings:?}");
    let rendered = r8[0].to_string();
    assert!(
        rendered.contains("`dispatch(..)` called while holding `queue`"),
        "{rendered}"
    );
    assert!(
        rendered
            .contains("`dispatch_encodes`, which reaches `complete`, which reaches `.send(..)`"),
        "{rendered}"
    );
    assert!(
        rendered.contains("acquired via `.lock_queue()`"),
        "{rendered}"
    );
    // The shipped shape — claim under the lock, dispatch after — is clean.
    let fired = rules_fired(LIB_SVC, "r8_dispatch_good.rs");
    assert!(!fired.contains(&Rule::LockOrder), "{fired:?}");
}

#[test]
fn r8_findings_carry_held_lock_trace() {
    // Satellite: diagnostics print the binder trace, not just file:line.
    let findings = findings_for(LIB_SVC, "r8_bad.rs");
    let send = findings
        .iter()
        .find(|f| f.rule == Rule::LockOrder && f.message.contains("channel"))
        .expect("send-under-lock finding");
    let rendered = send.to_string();
    assert!(
        rendered.contains("= note: holding `slots` since line"),
        "{rendered}"
    );
    assert!(rendered.contains("acquired via"), "{rendered}");
    let cycle = findings
        .iter()
        .find(|f| f.message.contains("lock-order cycle"))
        .expect("cycle finding");
    let rendered = cycle.to_string();
    assert!(rendered.contains("`slots` → `queue`"), "{rendered}");
    assert!(rendered.contains("= note:"), "{rendered}");
}

/// Workspace config extended with a latch-role atomic of the fixtures'
/// own: the live workspace's only latch-role atomics are the service's
/// two retirement tallies, which never `fetch_sub` (the pool's batch latch
/// is a Mutex+Condvar pair), so the whole latch leg of the role taxonomy
/// is exercised here.
fn cfg_with_latch_atomic() -> dialga_lint::Config {
    let mut cfg = workspace_config();
    cfg.atomics.push(dialga_lint::AtomicDecl {
        field: "outstanding".to_string(),
        role: dialga_lint::AtomicRole::Latch,
    });
    cfg
}

#[test]
fn r9_fires_on_role_protocol_violations() {
    let findings = check_source(LIB_SVC, &fixture("r9_bad.rs"), &cfg_with_latch_atomic());
    let r9: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::AtomicProtocol)
        .collect();
    assert_eq!(r9.len(), 6, "{findings:?}");
    let messages: Vec<&str> = r9.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("counter `submitted`") && m.contains("fetch_add(Release)")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("flag `fault_word`") && m.contains("store(Relaxed)")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("flag `fault_word`") && m.contains("swap(SeqCst)")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("latch `outstanding`") && m.contains("store(Release)")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("latch `outstanding`") && m.contains("fetch_sub(Relaxed)")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("mystery")),
        "{messages:?}"
    );
}

#[test]
fn r9_accepts_protocol_and_ignores_non_atomic_lookalikes() {
    let findings = check_source(LIB_SVC, &fixture("r9_good.rs"), &cfg_with_latch_atomic());
    assert!(
        !findings.iter().any(|f| f.rule == Rule::AtomicProtocol),
        "{findings:?}"
    );
}

#[test]
fn r9_is_scope_limited() {
    // The same violations outside the protocol-scope prefixes are silent
    // (harness/bench code tunes orderings freely).
    let findings = check_source(
        "crates/bench/src/bin/fixture.rs",
        &fixture("r9_bad.rs"),
        &cfg_with_latch_atomic(),
    );
    assert!(
        !findings.iter().any(|f| f.rule == Rule::AtomicProtocol),
        "{findings:?}"
    );
}

#[test]
fn r9_respects_per_site_allow_directive() {
    let fired = rules_fired(LIB_SVC, "r9_allowed.rs");
    assert!(!fired.contains(&Rule::AtomicProtocol), "{fired:?}");
}

#[test]
fn every_rule_fires_on_a_bad_fixture_and_every_bad_fixture_fires() {
    // Every `*_bad*.rs` fixture under every virtual path the tests above
    // use: a rule with no bad fixture left, or a bad fixture whose rule
    // is gone, fails here.
    let paths = [
        KERNEL,
        LIB_EC,
        LIB_SVC,
        "crates/core/src/fixture.rs",
        "crates/memsim/src/engine.rs",
        "crates/ec/src/lib.rs",
    ];
    let dir = format!("{}/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut fired: Vec<Rule> = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("read fixtures dir") {
        let name = entry.expect("fixture entry").file_name();
        let name = name.to_string_lossy();
        if !name.contains("_bad") {
            continue;
        }
        let source = fixture(&name);
        let here: Vec<Rule> = paths
            .iter()
            .flat_map(|p| check_source(p, &source, &cfg_with_latch_atomic()))
            .map(|f| f.rule)
            .collect();
        assert!(!here.is_empty(), "{name} fires no rule under any path");
        fired.extend(here);
    }
    for rule in Rule::ALL {
        assert!(
            fired.contains(&rule),
            "{} fires on no bad fixture",
            rule.id()
        );
    }
}
