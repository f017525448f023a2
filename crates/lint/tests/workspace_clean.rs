//! Integration test: the live workspace is clean under every rule.
//!
//! This is the same scan `scripts/lint.sh` runs as the tier-1.5 gate, so a
//! regression that introduces an `unsafe` outside the kernel modules, a
//! knob-word ordering violation or a lock-order cycle fails `cargo test`
//! too — the gate cannot be forgotten even if the lint script is skipped.

#[test]
fn live_workspace_is_clean_under_all_rules() {
    let root = dialga_lint::default_root();
    let cfg = dialga_lint::workspace_config();
    let (findings, files) =
        dialga_lint::check_workspace(&root, &cfg).expect("scan workspace sources");
    assert!(
        files > 50,
        "suspiciously few files scanned ({files}) — wrong root {}?",
        root.display()
    );
    assert!(
        findings.is_empty(),
        "workspace has {} lint finding(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_config_names_existing_files() {
    // Guard against the policy drifting away from reality: a renamed kernel
    // module must be re-pinned here deliberately, and a renamed directory
    // must not silently empty R6's, R8's or R9's scope. A path ending in
    // `/` names a directory, any other a file.
    let root = dialga_lint::default_root();
    let cfg = dialga_lint::workspace_config();
    let guards = cfg
        .literal_guards
        .iter()
        .flat_map(|g| g.scope_prefixes.iter().chain(&g.defining_modules));
    for p in cfg
        .unsafe_whitelist
        .iter()
        .chain(&cfg.forbid_roots)
        .chain(&cfg.deny_unsafe_op_roots)
        .chain(&cfg.atomic_scope_prefixes)
        .chain(&cfg.lock_scope_prefixes)
        .chain(guards)
    {
        let exists = if p.ends_with('/') {
            root.join(p).is_dir()
        } else {
            root.join(p).is_file()
        };
        assert!(exists, "lint config names missing path {p}");
    }
}
