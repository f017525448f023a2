//! The rule engine: R2, R6, R8 and R9 over scanned source files, with
//! per-rule inline allow directives.
//!
//! Every rule reports `file:line`, a rule id and a rationale. A finding may
//! be suppressed at a specific site with a justification comment on the
//! same line or the line above:
//!
//! ```text
//! // lint:allow(lock-order): non-blocking probe on an unbounded
//! // channel; the receiver never takes this lock.
//! ```
//!
//! The directive names the rule key (`unsafe-confine`, `const-drift`,
//! `lock-order`, `atomic-protocol`), never a blanket "allow all" —
//! suppressions stay per-rule and per-site, and the justification text
//! travels with the site in the source.
//!
//! R8 is the only cross-file rule: each file contributes lock-acquisition
//! edges, and cycle detection runs over the whole batch passed to
//! [`check_sources`]. A `lint:allow(lock-order)` directive on an edge's
//! *inner* acquisition line removes that edge from the graph (and with it
//! any cycle through it), so suppression still lives at a concrete site.

use crate::scan::{scan, Scanned, TokKind};

/// The rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R2: `unsafe` confined to whitelisted kernel modules; other crate
    /// roots carry `#![forbid(unsafe_code)]` (whitelisted crates carry
    /// `#![deny(unsafe_op_in_unsafe_fn)]`).
    UnsafeConfine,
    /// R6: integer literals shadowing guarded geometry constants
    /// (`CHUNK_ALIGN`/`XPLINE` = 256, `CACHELINE` = 64) outside the
    /// constants' defining modules.
    ConstDrift,
    /// R8: the declared Mutex acquisition graph is acyclic, no channel
    /// `send`/`recv` happens while a lock is held, and every acquisition
    /// in the scoped crates resolves to a declared lock.
    LockOrder,
    /// R9: every atomic in protocol scope carries a declared role
    /// (`knob` | `counter` | `latch` | `flag`) and each of its
    /// load/store/RMW sites follows that role's ordering protocol. The
    /// knob arm (formerly R3 `atomic-order`) applies in every scanned
    /// file, not only in protocol scope.
    AtomicProtocol,
}

impl Rule {
    /// Every rule, in id order: what the analyzer runs and reports.
    pub const ALL: [Rule; 4] = [
        Rule::UnsafeConfine,
        Rule::ConstDrift,
        Rule::LockOrder,
        Rule::AtomicProtocol,
    ];

    /// Display id, e.g. `R9 atomic-protocol`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeConfine => "R2 unsafe-confine",
            Rule::ConstDrift => "R6 const-drift",
            Rule::LockOrder => "R8 lock-order",
            Rule::AtomicProtocol => "R9 atomic-protocol",
        }
    }

    /// Key used by `lint:allow(<key>)` directives.
    pub fn key(self) -> &'static str {
        match self {
            Rule::UnsafeConfine => "unsafe-confine",
            Rule::ConstDrift => "const-drift",
            Rule::LockOrder => "lock-order",
            Rule::AtomicProtocol => "atomic-protocol",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Rationale for this site.
    pub message: String,
    /// Binder/edge trace: the chain of assignments, loop bindings or held
    /// locks that led the rule here. Rendered as `= note:` lines under
    /// the diagnostic, rustc-style.
    pub notes: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )?;
        for n in &self.notes {
            write!(f, "\n    = note: {n}")?;
        }
        Ok(())
    }
}

/// Workspace policy the rules check against. Paths are workspace-relative
/// with forward slashes.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files allowed to contain `unsafe` (R2): the kernel modules whose
    /// unsafety is the point.
    pub unsafe_whitelist: Vec<String>,
    /// Crate roots that must carry `#![forbid(unsafe_code)]` (R2).
    pub forbid_roots: Vec<String>,
    /// Crate roots that must carry `#![deny(unsafe_op_in_unsafe_fn)]`
    /// (R2) — the crates hosting whitelisted kernel modules.
    pub deny_unsafe_op_roots: Vec<String>,
    /// Every declared atomic in the workspace, with its protocol role
    /// (R9: `Knob` members are checked everywhere, the rest in scope,
    /// where every atomic op must also resolve to a declaration).
    pub atomics: Vec<AtomicDecl>,
    /// Path prefixes where R9 runs: library code whose atomics must all
    /// carry declared roles. Test harness crates (`testkit`, `bench`) and
    /// the `race` shims (which accept any ordering by design) stay out.
    pub atomic_scope_prefixes: Vec<String>,
    /// Every declared Mutex in the lock-order graph, keyed by the binder
    /// names and helper methods that acquire it (R8).
    pub locks: Vec<LockDecl>,
    /// Path prefixes where R8 runs: the pool/service/shard paths whose
    /// lock discipline the acquisition graph models.
    pub lock_scope_prefixes: Vec<String>,
    /// Guarded geometry constants: integer literals equal to a guard's
    /// value are flagged inside its scope (R6).
    pub literal_guards: Vec<LiteralGuard>,
}

/// Protocol role of a declared atomic (R9). Each role is an ordering
/// contract, not a type: the same `AtomicU64` shape serves all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicRole {
    /// Published configuration word: `store(Release)` by its setter,
    /// `load(Acquire)` by its readers, nothing else.
    Knob,
    /// Advisory statistic: every access is `Relaxed`; cross-thread
    /// ordering must come from a lock or a knob/flag edge, never from
    /// the counter itself.
    Counter,
    /// Completion latch: participants retire with
    /// `fetch_add`/`fetch_sub(AcqRel|Release)`, the closer observes with
    /// `load(Acquire)`. Plain stores would lose completions.
    Latch,
    /// Hand-off flag: `store(Release)` to publish, `load(Acquire)` to
    /// observe, RMW (`swap`/`compare_exchange*`/`fetch_*`) only at
    /// `Acquire`/`Release`/`AcqRel`.
    Flag,
}

/// One declared atomic field and its role (R9). Resolution is
/// lexer-grade: the receiver identifier before `.op(`, with
/// `bucket[i].op(..)`-style indexing walked back through the brackets.
#[derive(Debug, Clone)]
pub struct AtomicDecl {
    /// Field or static name as it appears before the `.op(` call.
    pub field: String,
    /// The ordering contract this atomic must follow.
    pub role: AtomicRole,
}

/// One declared Mutex in the R8 acquisition graph.
#[derive(Debug, Clone, Default)]
pub struct LockDecl {
    /// Graph-node name of the lock (diagnostic label).
    pub name: String,
    /// Receiver identifiers whose `.lock()`/`.try_lock()` acquire it
    /// (e.g. the field name `slots`).
    pub receivers: Vec<String>,
    /// Helper method names that acquire and return the guard (e.g.
    /// `lock_slots`); listed separately from receivers so a field and an
    /// unrelated method sharing a name cannot alias each other.
    pub helpers: Vec<String>,
}

/// One R6 guard: a named geometry constant whose raw value must not be
/// written as a bare literal inside its scope.
#[derive(Debug, Clone, Default)]
pub struct LiteralGuard {
    /// The guarded value (e.g. 256).
    pub value: u64,
    /// Human name of the constant(s), used in diagnostics.
    pub name: String,
    /// Path prefixes the guard applies to (library code where the value
    /// has the constant's meaning).
    pub scope_prefixes: Vec<String>,
    /// Files that define (and may therefore spell out) the constant.
    pub defining_modules: Vec<String>,
}

/// Atomic methods whose call sites R9 inspects. A call only counts as
/// atomic if an `Ordering::` token appears among its arguments, which
/// keeps `Vec::swap`, simulator `load` methods etc. out of scope.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

// Paths are workspace-relative on both sides, so matching is exact — a
// suffix match would let the facade root `src/lib.rs` claim every crate's
// `lib.rs`.
fn matches_path(path: &str, entry: &str) -> bool {
    path == entry
}

fn in_any_region(line: u32, regions: &[(u32, u32)]) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Run all rules over one source file. `path` must be workspace-relative
/// with forward slashes; it selects which rules apply. Cross-file R8
/// cycle detection degenerates to single-file cycles here — batch scans
/// go through [`check_sources`].
pub fn check_source(path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    check_sources(&[(path.to_string(), source.to_string())], cfg)
}

/// Run all rules over a batch of source files, then detect lock-order
/// cycles over the union of every file's acquisition edges. This is what
/// `check_workspace` calls: an A→B edge in `pool.rs` and a B→A edge in
/// `shard.rs` only meet here.
pub fn check_sources(files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for (path, source) in files {
        check_one(path, source, cfg, &mut findings, &mut edges);
    }
    findings.extend(lock_cycle_findings(&edges));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

fn check_one(
    path: &str,
    source: &str,
    cfg: &Config,
    findings: &mut Vec<Finding>,
    edges: &mut Vec<LockEdge>,
) {
    let s = scan(source);
    let mut out = Vec::new();
    let whitelisted = cfg.unsafe_whitelist.iter().any(|w| matches_path(path, w));
    let test_regions = s.cfg_test_regions();
    let allows = collect_allows(&s);

    rule_unsafe_confine(path, &s, cfg, whitelisted, &mut out);
    rule_const_drift(path, &s, cfg, &test_regions, &mut out);
    rule_lock_order(path, &s, cfg, &test_regions, &allows, &mut out, edges);
    rule_atomic_protocol(path, &s, cfg, &test_regions, &mut out);

    apply_allow_directives(&allows, &mut out);
    out.sort_by_key(|f| f.line);
    findings.append(&mut out);
}

/// R2: `unsafe` keywords outside the whitelist, and missing crate-root
/// attributes (`forbid(unsafe_code)` resp. `deny(unsafe_op_in_unsafe_fn)`).
fn rule_unsafe_confine(
    path: &str,
    s: &Scanned,
    cfg: &Config,
    whitelisted: bool,
    out: &mut Vec<Finding>,
) {
    if !whitelisted {
        for site in s.unsafe_sites() {
            out.push(Finding {
                path: path.to_string(),
                line: s.tokens[site].line,
                rule: Rule::UnsafeConfine,
                message: format!(
                    "`unsafe` outside the kernel whitelist ({}) — move the unsafety \
                     into a whitelisted kernel module or make this safe",
                    cfg.unsafe_whitelist.join(", ")
                ),
                notes: Vec::new(),
            });
        }
    }
    if cfg.forbid_roots.iter().any(|r| matches_path(path, r))
        && !s.has_attr_call("forbid", "unsafe_code")
    {
        out.push(Finding {
            path: path.to_string(),
            line: 1,
            rule: Rule::UnsafeConfine,
            message: "crate root must carry `#![forbid(unsafe_code)]` — this crate is \
                      outside the unsafe kernel whitelist"
                .to_string(),
            notes: Vec::new(),
        });
    }
    if cfg
        .deny_unsafe_op_roots
        .iter()
        .any(|r| matches_path(path, r))
        && !s.has_attr_call("deny", "unsafe_op_in_unsafe_fn")
    {
        out.push(Finding {
            path: path.to_string(),
            line: 1,
            rule: Rule::UnsafeConfine,
            message: "crate root must carry `#![deny(unsafe_op_in_unsafe_fn)]` — every \
                      unsafe operation inside its kernels needs its own block and \
                      SAFETY comment"
                .to_string(),
            notes: Vec::new(),
        });
    }
}

/// One atomic op call site: `(op, receiver, orderings, line)`. A call
/// only counts when an `Ordering::` token appears among its arguments
/// (keeps `Vec::swap`, simulator `load` methods etc. out of scope).
///
/// Lexer-grade receiver resolution: the identifier immediately before the
/// `.op(` call, walking back through one `[index]` bracket group (so
/// `bucket[i].fetch_add(..)` resolves to `bucket`). Rebinding an atomic
/// to a local with a different name escapes the check; the workspace
/// convention is to access the fields directly, which the
/// live-workspace integration test keeps true.
fn atomic_call_at(s: &Scanned, i: usize) -> Option<(String, String, Vec<String>, u32)> {
    let op = s.ident(i)?;
    if !ATOMIC_OPS.contains(&op) || i < 2 || !s.is_punct(i - 1, '.') || !s.is_punct(i + 1, '(') {
        return None;
    }
    let recv = if let Some(r) = s.ident(i - 2) {
        r.to_string()
    } else if s.is_punct(i - 2, ']') {
        // `bucket[Self::index(ns)].fetch_add(..)` — walk to the matching
        // `[` and take the identifier before it.
        let mut depth = 0i64;
        let mut j = i - 2;
        loop {
            match s.tokens[j].kind {
                TokKind::Punct(']') => depth += 1,
                TokKind::Punct('[') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        s.ident(j.checked_sub(1)?)?.to_string()
    } else {
        return None;
    };
    // Collect `Ordering::X` arguments up to the matching ')'.
    let mut orderings: Vec<String> = Vec::new();
    let mut depth = 0i64;
    let mut j = i + 1;
    while j < s.tokens.len() {
        match &s.tokens[j].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth <= 0 {
                    break;
                }
            }
            TokKind::Ident(t)
                if t == "Ordering" && s.is_punct(j + 1, ':') && s.is_punct(j + 2, ':') =>
            {
                if let Some(ord) = s.ident(j + 3) {
                    orderings.push(ord.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    if orderings.is_empty() {
        return None; // not an atomic call (no explicit Ordering argument)
    }
    Some((op.to_string(), recv, orderings, s.tokens[i].line))
}

/// Parse an integer literal's value from its raw text: `_` separators,
/// `0x`/`0o`/`0b` radix prefixes and `u*`/`i*` type suffixes are handled;
/// floats and exponent forms are out of scope (they can't spell a
/// geometry constant).
fn num_value(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(r) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (r, 16u32)
    } else if let Some(r) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        (r, 8)
    } else if let Some(r) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        (r, 2)
    } else {
        (t.as_str(), 10)
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    let (val, suffix) = digits.split_at(end);
    if val.is_empty() || !(suffix.is_empty() || suffix.starts_with('u') || suffix.starts_with('i'))
    {
        return None;
    }
    u64::from_str_radix(val, radix).ok()
}

/// R6: integer literals whose value shadows a guarded geometry constant
/// (e.g. a bare `256` where `CHUNK_ALIGN`/`XPLINE` is meant, `64` for
/// `CACHELINE`), outside the constant's defining module. Bare values
/// compile fine when the constant changes — which is exactly the drift
/// this rule pins. Test code is exempt (literal geometry in assertions is
/// often the clearer spelling).
fn rule_const_drift(
    path: &str,
    s: &Scanned,
    cfg: &Config,
    test_regions: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    for guard in &cfg.literal_guards {
        if !guard
            .scope_prefixes
            .iter()
            .any(|p| path.starts_with(p.as_str()) || matches_path(path, p))
        {
            continue;
        }
        if guard.defining_modules.iter().any(|m| matches_path(path, m)) {
            continue;
        }
        for t in &s.tokens {
            let TokKind::Num(text) = &t.kind else {
                continue;
            };
            if num_value(text) != Some(guard.value) || in_any_region(t.line, test_regions) {
                continue;
            }
            out.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: Rule::ConstDrift,
                message: format!(
                    "bare `{text}` shadows {} = {} — name the constant so the \
                     geometry cannot drift, or justify with \
                     `// lint:allow(const-drift): <why>`",
                    guard.name, guard.value
                ),
                notes: Vec::new(),
            });
        }
    }
}

/// One lock-acquisition edge for the R8 graph: `acquired` was taken while
/// `held` was already held. Site info survives into cycle diagnostics.
#[derive(Debug, Clone)]
struct LockEdge {
    held: String,
    acquired: String,
    path: String,
    line: u32,
    held_line: u32,
    held_via: String,
}

/// A lock currently held at some point of the R8 walk.
struct Held {
    name: String,
    via: String,
    line: u32,
    /// `Some` for guards bound by a `let` (released by `drop(binder)` or
    /// end of block); `None` for temporaries (released at the end of
    /// their statement).
    binder: Option<String>,
    /// Brace depth at acquisition, for scope-based release.
    depth: i64,
}

/// Channel methods R8 refuses to see under a held lock. `Condvar` waits
/// and notifies are deliberately absent: waiting *requires* the guard and
/// notifying under the lock is benign (if wasteful), while a blocked
/// channel peer turns a held lock into a convoy or a deadlock.
const CHANNEL_OPS: &[&str] = &["send", "recv", "try_recv", "recv_timeout"];

/// Every `fn` in the file as `(name, open_brace, close_brace)` token
/// indices. The name requirement (`fn` followed by an identifier) keeps
/// `fn(..)` pointer types out; bodyless trait methods are skipped.
fn fn_bodies(s: &Scanned) -> Vec<(&str, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < s.tokens.len() {
        if let (true, Some(name)) = (s.is_ident(i, "fn"), s.ident(i + 1)) {
            let mut j = i + 2;
            let mut nest = 0i64;
            let mut open = None;
            while j < s.tokens.len() {
                match s.tokens[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => nest += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => {
                        nest -= 1;
                        if nest < 0 {
                            break; // `fn` token inside an enclosing list: not a def
                        }
                    }
                    TokKind::Punct('{') if nest == 0 => {
                        open = Some(j);
                        break;
                    }
                    TokKind::Punct(';') if nest == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = open {
                if let Some(close) = s.matching_brace(open) {
                    out.push((name, open, close));
                    i = open + 1; // descend: nested fns get their own walk
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// The channel method called at token `i` (`.send(`, `.recv(`, …), if any.
fn channel_op_at(s: &Scanned, i: usize) -> Option<&str> {
    let id = s.ident(i)?;
    (CHANNEL_OPS.contains(&id) && s.is_punct(i.wrapping_sub(1), '.') && s.is_punct(i + 1, '('))
        .then_some(id)
}

/// Is token `i` a call of `name` — `name(` or `.name(`, not its `fn`
/// definition?
fn is_call(s: &Scanned, i: usize, name: &str) -> bool {
    s.is_ident(i, name) && s.is_punct(i + 1, '(') && !s.is_ident(i.wrapping_sub(1), "fn")
}

/// The file's functions from which a channel op is reachable through
/// same-file calls, each with the step that gets it there (`.send(..)`
/// itself, or the callee it goes through). Resolution is by bare name
/// within one file: coarse, but it is what lets R8 see that a `dispatch`
/// three calls above `done.send` must not run under a lock. The argument
/// of a `spawn(..)` runs on another thread and is not followed.
fn channel_reaching_fns<'a>(
    s: &'a Scanned,
    bodies: &[(&'a str, usize, usize)],
) -> std::collections::BTreeMap<&'a str, String> {
    let spawned: Vec<(usize, usize)> = (0..s.tokens.len())
        .filter(|&i| s.is_ident(i, "spawn"))
        .filter_map(|i| Some((i + 1, matching_paren(s, i + 1)?)))
        .collect();
    let here = |open: usize, close: usize| {
        let spawned = &spawned;
        (open..close).filter(move |&i| !spawned.iter().any(|&(a, b)| a < i && i < b))
    };
    let mut reach = std::collections::BTreeMap::new();
    for &(name, open, close) in bodies {
        if let Some(op) = here(open, close).find_map(|i| channel_op_at(s, i)) {
            reach.insert(name, format!("`.{op}(..)`"));
        }
    }
    loop {
        let grown = bodies.iter().find_map(|&(name, open, close)| {
            if reach.contains_key(name) {
                return None;
            }
            let via = reach
                .keys()
                .find(|callee| here(open, close).any(|i| is_call(s, i, callee)))?;
            Some((name, format!("`{via}`, which reaches {}", reach[via])))
        });
        match grown {
            Some((name, how)) => reach.insert(name, how),
            None => return reach,
        };
    }
}

/// R8: lock-order discipline over the declared Mutex graph.
///
/// Per function body (the unit a thread executes without the analyzer
/// losing track of its stack), the walk tracks which declared locks are
/// held. Acquisitions are `<receiver>.lock()` / `<receiver>.try_lock()`
/// on a declared receiver, or a call of a declared helper method. Guard
/// lifetime is binder-traced: a `let`-bound guard lives until
/// `drop(binder)` or the end of its block; a temporary (any acquisition
/// whose call chain does not end the statement) dies at its statement's
/// `;`. `Condvar::wait(guard)` keeps the guard held — the wait reacquires
/// before returning, so the model matches the runtime.
///
/// Violations at a site: acquiring a lock already held (std Mutex is not
/// reentrant), any channel send/recv while holding a lock — directly, or
/// by calling a same-file function a channel op is reachable from
/// ([`channel_reaching_fns`]) — and `.lock()` on an undeclared receiver in
/// scope (the graph must stay total).
/// Acquiring a *different* lock records a [`LockEdge`]; cycles over the
/// whole batch are reported by [`check_sources`]. Edge suppression:
/// `lint:allow(lock-order)` on the inner acquisition line.
#[allow(clippy::too_many_arguments)]
fn rule_lock_order(
    path: &str,
    s: &Scanned,
    cfg: &Config,
    test_regions: &[(u32, u32)],
    allows: &[(u32, String)],
    out: &mut Vec<Finding>,
    edges: &mut Vec<LockEdge>,
) {
    if !cfg
        .lock_scope_prefixes
        .iter()
        .any(|p| path.starts_with(p.as_str()))
    {
        return;
    }
    let bodies = fn_bodies(s);
    let reaching = channel_reaching_fns(s, &bodies);
    for &(_, open, close) in &bodies {
        if in_any_region(s.tokens[open].line, test_regions) {
            continue; // tests lock freely (local mutexes, induced hangs)
        }
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0i64;
        let mut i = open;
        while i <= close {
            match &s.tokens[i].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    held.retain(|h| h.depth <= depth);
                }
                TokKind::Punct(';') => {
                    held.retain(|h| h.binder.is_some() || h.depth != depth);
                }
                TokKind::Ident(id) => {
                    // `drop(binder)` releases a bound guard early.
                    if id == "drop"
                        && !s.is_punct(i.wrapping_sub(1), '.')
                        && s.is_punct(i + 1, '(')
                        && s.is_punct(i + 3, ')')
                    {
                        if let Some(b) = s.ident(i + 2) {
                            held.retain(|h| h.binder.as_deref() != Some(b));
                        }
                    }
                    if channel_op_at(s, i).is_some() && !held.is_empty() {
                        let line = s.tokens[i].line;
                        let names: Vec<String> =
                            held.iter().map(|h| format!("`{}`", h.name)).collect();
                        out.push(Finding {
                            path: path.to_string(),
                            line,
                            rule: Rule::LockOrder,
                            message: format!(
                                "channel `.{id}(..)` while holding {} — a blocked peer \
                                 turns the critical section into a convoy and a \
                                 closed/contended channel into a deadlock; move the \
                                 channel op outside the lock or justify with \
                                 `// lint:allow(lock-order): <why>`",
                                names.join(", ")
                            ),
                            notes: held
                                .iter()
                                .map(|h| {
                                    format!(
                                        "holding `{}` since line {} (acquired via {})",
                                        h.name, h.line, h.via
                                    )
                                })
                                .collect(),
                        });
                    }
                    // A same-file call that gets to a channel op (one named
                    // like a channel op was reported just above).
                    let reached = reaching
                        .get(id.as_str())
                        .filter(|_| is_call(s, i, id) && !CHANNEL_OPS.contains(&id.as_str()));
                    if let (Some(how), Some(h)) = (reached, held.first()) {
                        out.push(Finding {
                            path: path.to_string(),
                            line: s.tokens[i].line,
                            rule: Rule::LockOrder,
                            message: format!(
                                "`{id}(..)` called while holding `{}` — it reaches \
                                 channel {how}, so the lock is held across a \
                                 channel op; release the guard before the call \
                                 or justify with `// lint:allow(lock-order): <why>`",
                                h.name
                            ),
                            notes: vec![format!(
                                "holding `{}` since line {} (acquired via {})",
                                h.name, h.line, h.via
                            )],
                        });
                    }
                    if let Some((decl, via)) = acquisition_at(s, i, cfg) {
                        let line = s.tokens[i].line;
                        if let Some(h) = held.iter().find(|h| h.name == decl) {
                            out.push(Finding {
                                path: path.to_string(),
                                line,
                                rule: Rule::LockOrder,
                                message: format!(
                                    "`{decl}` acquired again while already held — \
                                     `std::sync::Mutex` is not reentrant; this \
                                     deadlocks at runtime"
                                ),
                                notes: vec![format!(
                                    "already held since line {} (acquired via {})",
                                    h.line, h.via
                                )],
                            });
                        } else {
                            for h in &held {
                                if !allowed_at(allows, "lock-order", line) {
                                    edges.push(LockEdge {
                                        held: h.name.clone(),
                                        acquired: decl.clone(),
                                        path: path.to_string(),
                                        line,
                                        held_line: h.line,
                                        held_via: h.via.clone(),
                                    });
                                }
                            }
                            held.push(Held {
                                name: decl,
                                via,
                                line,
                                binder: guard_binder(s, i),
                                depth,
                            });
                        }
                    } else if (id == "lock" || id == "try_lock")
                        && s.is_punct(i.wrapping_sub(1), '.')
                        && s.is_punct(i + 1, '(')
                    {
                        // An acquisition the graph cannot name: the walk
                        // would silently lose track of it, so require a
                        // declaration (or a justified allow).
                        let recv = s.ident(i.wrapping_sub(2)).unwrap_or("<expr>").to_string();
                        out.push(Finding {
                            path: path.to_string(),
                            line: s.tokens[i].line,
                            rule: Rule::LockOrder,
                            message: format!(
                                "`{recv}.{id}()` does not resolve to a declared lock — \
                                 R8's acquisition graph must stay total over the \
                                 scoped crates; declare the lock (name, receivers, \
                                 helpers) in the lint config or justify with \
                                 `// lint:allow(lock-order): <why>`"
                            ),
                            notes: Vec::new(),
                        });
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Resolve token `i` as a declared-lock acquisition: either
/// `<receiver>.lock(` / `<receiver>.try_lock(` with a declared receiver,
/// or `.helper(` with a declared helper name. Returns the lock's graph
/// name and a human `via` string.
fn acquisition_at(s: &Scanned, i: usize, cfg: &Config) -> Option<(String, String)> {
    let id = s.ident(i)?;
    if !s.is_punct(i.wrapping_sub(1), '.') || !s.is_punct(i + 1, '(') {
        return None;
    }
    if id == "lock" || id == "try_lock" {
        let recv = s.ident(i.wrapping_sub(2))?;
        let decl = cfg
            .locks
            .iter()
            .find(|l| l.receivers.iter().any(|r| r == recv))?;
        return Some((decl.name.clone(), format!("`{recv}.{id}()`")));
    }
    let decl = cfg
        .locks
        .iter()
        .find(|l| l.helpers.iter().any(|h| h == id))?;
    Some((decl.name.clone(), format!("`.{id}()`")))
}

/// Classify the guard produced by the acquisition at token `i`: `Some`
/// binder name when the call chain (through `unwrap`/`unwrap_or_else`/
/// `expect`) directly ends a `let` statement, `None` for a temporary.
fn guard_binder(s: &Scanned, i: usize) -> Option<String> {
    // Skip the call's argument list, then any adapter chain.
    let mut j = matching_paren(s, i + 1)?;
    loop {
        if s.is_punct(j + 1, '?') {
            j += 1;
            continue;
        }
        if s.is_punct(j + 1, '.') {
            let adapter = s.ident(j + 2)?;
            if matches!(adapter, "unwrap" | "unwrap_or_else" | "expect") && s.is_punct(j + 3, '(') {
                j = matching_paren(s, j + 3)?;
                continue;
            }
            return None; // `.iter()`, `.drain(..)` …: guard is a temporary
        }
        break;
    }
    if !(s.is_punct(j + 1, ';') || s.is_ident(j + 1, "else")) {
        return None;
    }
    // Statement starts after the previous `;`/`{`/`}`; a guard binding
    // must open with `let`. The binder is the last non-`mut` identifier
    // before the `=` (handles `let Ok(mut state) = …`).
    let mut b = i;
    while b > 0 {
        match s.tokens[b - 1].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
            _ => b -= 1,
        }
    }
    if !s.is_ident(b, "let") {
        return None;
    }
    let mut binder = None;
    let mut k = b + 1;
    while k < i {
        if s.is_punct(k, '=') && !s.is_punct(k + 1, '=') {
            break;
        }
        if let Some(id) = s.ident(k) {
            if id != "mut" {
                binder = Some(id.to_string());
            }
        }
        k += 1;
    }
    binder
}

/// Token index of the `)` matching the `(` at `open`.
fn matching_paren(s: &Scanned, open: usize) -> Option<usize> {
    if !s.is_punct(open, '(') {
        return None;
    }
    let mut depth = 0i64;
    for j in open..s.tokens.len() {
        match s.tokens[j].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Cycle detection over the batch's lock-acquisition edges: a DFS from
/// every node, reporting each distinct cycle once (rotation-normalized),
/// anchored at one of its edge sites with the full edge chain as notes.
fn lock_cycle_findings(edges: &[LockEdge]) -> Vec<Finding> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.held.as_str()).or_default().push(e);
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();
    let starts: Vec<&str> = adj.keys().copied().collect();
    for start in starts {
        let mut stack: Vec<&LockEdge> = Vec::new();
        let mut on_path: Vec<&str> = vec![start];
        dfs_cycles(start, &adj, &mut stack, &mut on_path, &mut seen, &mut out);
    }
    out
}

fn dfs_cycles<'a>(
    node: &'a str,
    adj: &std::collections::BTreeMap<&'a str, Vec<&'a LockEdge>>,
    stack: &mut Vec<&'a LockEdge>,
    on_path: &mut Vec<&'a str>,
    seen: &mut std::collections::BTreeSet<Vec<String>>,
    out: &mut Vec<Finding>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for e in nexts {
        let to = e.acquired.as_str();
        if let Some(pos) = on_path.iter().position(|n| *n == to) {
            let cyc: Vec<&LockEdge> = stack[pos..].iter().copied().chain([*e]).collect();
            let names: Vec<String> = cyc.iter().map(|e| e.held.clone()).collect();
            // Normalize rotation so the same cycle found from another
            // start node deduplicates.
            let rot = (0..names.len())
                .map(|r| {
                    let mut v = names.clone();
                    v.rotate_left(r);
                    v
                })
                .min()
                .unwrap_or_default();
            if seen.insert(rot) {
                let shape: Vec<&str> = names
                    .iter()
                    .map(String::as_str)
                    .chain([names[0].as_str()])
                    .collect();
                out.push(Finding {
                    path: cyc[0].path.clone(),
                    line: cyc[0].line,
                    rule: Rule::LockOrder,
                    message: format!(
                        "lock-order cycle `{}` — these locks are acquired in \
                         conflicting orders across the workspace, so a concurrent \
                         schedule deadlocks; pick one global order (or break an edge \
                         and justify it with `// lint:allow(lock-order): <why>` at \
                         the inner acquisition)",
                        shape.join(" → ")
                    ),
                    notes: cyc
                        .iter()
                        .map(|e| {
                            format!(
                                "`{}` → `{}` at {}:{} (holding `{}` acquired line {} via {})",
                                e.held, e.acquired, e.path, e.line, e.held, e.held_line, e.held_via
                            )
                        })
                        .collect(),
                });
            }
        } else {
            on_path.push(to);
            stack.push(e);
            dfs_cycles(to, adj, stack, on_path, seen, out);
            stack.pop();
            on_path.pop();
        }
    }
}

/// R9: atomic-protocol dataflow. Every atomic op with an `Ordering::`
/// argument on a declared atomic must satisfy the declared role's
/// contract. The knob word is checked in every scanned file, test regions
/// included — a mis-ordered knob access is wrong wherever it appears; the
/// other roles, and the requirement that an atomic be declared at all,
/// apply to non-test code in protocol scope.
fn rule_atomic_protocol(
    path: &str,
    s: &Scanned,
    cfg: &Config,
    test_regions: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    let in_scope = cfg
        .atomic_scope_prefixes
        .iter()
        .any(|p| path.starts_with(p.as_str()));
    for i in 0..s.tokens.len() {
        let Some((op, recv, orderings, line)) = atomic_call_at(s, i) else {
            continue;
        };
        let decl = cfg.atomics.iter().find(|a| a.field == recv);
        let is_knob = decl.is_some_and(|a| a.role == AtomicRole::Knob);
        if !is_knob && (!in_scope || in_any_region(line, test_regions)) {
            continue;
        }
        let ords = orderings.join(", ");
        let Some(decl) = decl else {
            out.push(Finding {
                path: path.to_string(),
                line,
                rule: Rule::AtomicProtocol,
                message: format!(
                    "atomic `{recv}` has no declared role — every atomic in protocol \
                     scope is declared in the lint config as knob, counter, latch or \
                     flag; declare it or justify with \
                     `// lint:allow(atomic-protocol): <why>`"
                ),
                notes: vec![
                    "roles: knob = store(Release)/load(Acquire); counter = Relaxed \
                     everywhere; latch = fetch_add/fetch_sub(AcqRel|Release) + \
                     load(Acquire); flag = store(Release)/load(Acquire) + RMW at \
                     Acquire/Release/AcqRel"
                        .to_string(),
                ],
            });
            continue;
        };
        let (ok, contract) = match decl.role {
            AtomicRole::Knob => (
                match op.as_str() {
                    "store" => orderings.iter().all(|o| o == "Release"),
                    "load" => orderings.iter().all(|o| o == "Acquire"),
                    _ => false,
                },
                "the knob word is published with `store(…, Release)` and consumed with \
                 `load(Acquire)`; anything else breaks the setter→reader protocol",
            ),
            AtomicRole::Counter => (
                orderings.iter().all(|o| o == "Relaxed"),
                "counters are advisory statistics: every access is `Relaxed`; \
                 cross-thread ordering must come from a lock or a knob/flag edge, \
                 never from the counter itself",
            ),
            AtomicRole::Latch => (
                match op.as_str() {
                    "fetch_add" | "fetch_sub" => {
                        orderings.iter().all(|o| o == "AcqRel" || o == "Release")
                    }
                    "load" => orderings.iter().all(|o| o == "Acquire"),
                    _ => false,
                },
                "latch participants retire with `fetch_add`/`fetch_sub(AcqRel|Release)` \
                 and the closer observes with `load(Acquire)`; anything else can lose \
                 a completion",
            ),
            AtomicRole::Flag => (
                match op.as_str() {
                    "store" => orderings.iter().all(|o| o == "Release"),
                    "load" => orderings.iter().all(|o| o == "Acquire"),
                    "swap"
                    | "compare_exchange"
                    | "compare_exchange_weak"
                    | "fetch_and"
                    | "fetch_or"
                    | "fetch_xor"
                    | "fetch_update" => orderings
                        .iter()
                        .all(|o| o == "Acquire" || o == "Release" || o == "AcqRel"),
                    _ => false,
                },
                "flags publish with `store(Release)`, observe with `load(Acquire)` and \
                 hand off with RMW at `Acquire`/`Release`/`AcqRel`",
            ),
        };
        if !ok {
            let role = match decl.role {
                AtomicRole::Knob => "knob",
                AtomicRole::Counter => "counter",
                AtomicRole::Latch => "latch",
                AtomicRole::Flag => "flag",
            };
            out.push(Finding {
                path: path.to_string(),
                line,
                rule: Rule::AtomicProtocol,
                message: format!(
                    "{role} `{recv}`: `{op}({ords})` is outside the {role} protocol — \
                     {contract}"
                ),
                notes: Vec::new(),
            });
        }
    }
}

/// Collect every `lint:allow(<key>)` directive as `(comment end line,
/// key)`. Used both to drop finished findings and to suppress R8 edges
/// before they enter the cross-file graph.
fn collect_allows(s: &Scanned) -> Vec<(u32, String)> {
    let mut allows: Vec<(u32, String)> = Vec::new();
    for c in &s.comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            rest = &rest[pos + "lint:allow(".len()..];
            if let Some(end) = rest.find(')') {
                allows.push((c.end_line, rest[..end].trim().to_string()));
                rest = &rest[end..];
            } else {
                break;
            }
        }
    }
    allows
}

/// True when a directive for `key` covers `line` (directive comment ends
/// on the line itself or the line above).
fn allowed_at(allows: &[(u32, String)], key: &str, line: u32) -> bool {
    allows
        .iter()
        .any(|(l, k)| k == key && (line == *l || line == *l + 1))
}

/// Drop findings covered by a `lint:allow(<rule-key>)` directive in a
/// comment on the finding's line or the line above.
fn apply_allow_directives(allows: &[(u32, String)], findings: &mut Vec<Finding>) {
    findings.retain(|f| !allowed_at(allows, f.rule.key(), f.line));
}
