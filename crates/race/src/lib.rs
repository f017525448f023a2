#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! `dialga-race` — a deterministic, seeded interleaving explorer in the
//! loom/PCT shape, std-only, built on `dialga-testkit`'s SplitMix64 RNG.
//!
//! The workspace's concurrency protocols (the pool's batch latch, worker
//! healing, the shard admission queue) are pinned statically by
//! `dialga-lint` rules R8 and R9 and, for the latch's exactly-once
//! completion, by the type itself (a pool chunk completes only in its
//! `Drop`); this crate pins them *dynamically*: small
//! models of those protocols written against shim sync primitives
//! ([`Mutex`], [`Condvar`], [`channel`], [`AtomicU64`] & friends,
//! [`spawn`]) run under a scheduler that serializes every sync operation
//! and explores thread interleavings:
//!
//! * **PCT mode** ([`Explorer::pct`]): seeded randomized priorities with
//!   `d` priority-change points per schedule (probabilistic concurrency
//!   testing). Every schedule is reproducible from `(seed, index)`.
//! * **Bounded exhaustive mode** ([`Explorer::exhaustive`]): depth-first
//!   enumeration of every scheduling choice, practical for models with
//!   ≤ 3 threads and short op sequences; reports completeness.
//!
//! A model is an ordinary closure using the shim types. When no
//! exploration is active the shims behave exactly like their `std::sync`
//! counterparts (pass-through mode), so model code can also run under
//! plain `cargo test`; inside [`Explorer::run`] every operation becomes a
//! *schedule point* routed through the scheduler. (The original design
//! sketch gated scheduling under `cfg(race)`; routing on an active
//! explorer instead keeps one set of compiled artifacts for tier-1 and
//! the race sweep, with zero cost outside a run — pass-through is one
//! thread-local read.)
//!
//! The explorer detects three violation classes: **deadlock** (no thread
//! runnable, not all finished — includes lost-completion hangs), **panic**
//! (any model thread panics, e.g. an assertion on a protocol invariant)
//! and **step-limit** (livelock guard). The failing schedule's op trace
//! and replay coordinates are carried on the [`Violation`].
//!
//! Scope: interleavings are explored under sequential consistency — the
//! shim atomics accept `Ordering` arguments for API fidelity but execute
//! `SeqCst` (one thread runs at a time). Weak-memory reorderings are out
//! of scope; the lint R9 role taxonomy covers ordering discipline
//! statically.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, PoisonError};

use dialga_testkit::Rng;

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

/// Sentinel panic payload used to unwind model threads when a run aborts
/// (violation found elsewhere); never reported as a model failure.
struct Abort;

#[derive(Clone)]
struct Ctx {
    sched: Arc<Sched>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// What a blocked thread is waiting for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Wait {
    /// Mutex acquisition (resource id).
    Lock(usize),
    /// Condvar wait (resource id).
    Cond(usize),
    /// Channel receive (resource id).
    Recv(usize),
    /// Thread join (thread id).
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked(Wait),
    Done,
}

/// One recorded scheduling decision (exhaustive mode).
#[derive(Clone, Copy, Debug)]
struct Choice {
    /// How many runnable threads there were to choose from.
    options: usize,
    /// Which one (by index into the sorted runnable set) ran.
    chosen: usize,
}

enum Strategy {
    /// Probabilistic concurrency testing: random per-thread priorities,
    /// lowered at `change_at` step indices; highest priority runs.
    Pct {
        rng: Rng,
        prio: Vec<u64>,
        change_at: Vec<usize>,
        next_change: usize,
    },
    /// Replay a recorded choice prefix, then first-choice; records every
    /// decision for the DFS driver.
    Replay { choices: Vec<Choice>, pos: usize },
}

struct SchedState {
    status: Vec<Status>,
    current: usize,
    abort: bool,
    all_done: bool,
    violation: Option<Violation>,
    steps: usize,
    max_steps: usize,
    trace: Vec<String>,
    /// Mutex resource id → owning thread id.
    lock_owner: Vec<(usize, usize)>,
    strategy: Strategy,
    /// Pending result slots of spawned threads (panic messages).
    panic_msg: Vec<Option<String>>,
}

struct Sched {
    m: StdMutex<SchedState>,
    cv: StdCondvar,
    /// Monotonic resource-id source for mutexes/condvars/channels created
    /// during this run.
    next_resource: std::sync::atomic::AtomicUsize,
    os: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Sched {
    fn new(strategy: Strategy, max_steps: usize) -> Arc<Sched> {
        Arc::new(Sched {
            m: StdMutex::new(SchedState {
                status: Vec::new(),
                current: 0,
                abort: false,
                all_done: false,
                violation: None,
                steps: 0,
                max_steps,
                trace: Vec::new(),
                lock_owner: Vec::new(),
                strategy,
                panic_msg: Vec::new(),
            }),
            cv: StdCondvar::new(),
            next_resource: std::sync::atomic::AtomicUsize::new(0),
            os: StdMutex::new(Vec::new()),
        })
    }

    fn resource_id(&self) -> usize {
        // Plain id mint; never contended for ordering (one thread runs at
        // a time), so Relaxed is enough.
        self.next_resource.fetch_add(1, Ordering::Relaxed)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a new logical thread; returns its id.
    fn register(&self) -> usize {
        let mut st = self.lock_state();
        let tid = st.status.len();
        st.status.push(Status::Runnable);
        st.panic_msg.push(None);
        if let Strategy::Pct { rng, prio, .. } = &mut st.strategy {
            // Initial priorities sit above every change-point value (which
            // are < 64): random and distinct with overwhelming probability.
            prio.push(64 + (rng.u64() >> 1));
        }
        tid
    }

    /// Pick the next thread to run among runnable ones. Returns `None`
    /// when nothing is runnable.
    fn pick_next(st: &mut SchedState) -> Option<usize> {
        let runnable: Vec<usize> = (0..st.status.len())
            .filter(|&t| st.status[t] == Status::Runnable)
            .collect();
        if runnable.is_empty() {
            return None;
        }
        let idx = match &mut st.strategy {
            Strategy::Pct {
                prio,
                change_at,
                next_change,
                ..
            } => {
                // PCT priority change: at each scripted step index, the
                // thread about to be descheduled drops below everyone.
                while *next_change < change_at.len() && st.steps >= change_at[*next_change] {
                    let cur = st.current;
                    if cur < prio.len() {
                        prio[cur] = (change_at.len() - *next_change) as u64;
                    }
                    *next_change += 1;
                }
                runnable
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &t)| prio.get(t).copied().unwrap_or(0))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
            Strategy::Replay { choices, pos } => {
                let chosen = if *pos < choices.len() {
                    choices[*pos].chosen.min(runnable.len() - 1)
                } else {
                    choices.push(Choice {
                        options: runnable.len(),
                        chosen: 0,
                    });
                    0
                };
                choices[*pos].options = runnable.len();
                *pos += 1;
                chosen
            }
        };
        Some(runnable[idx])
    }

    /// Record a violation (first wins), abort the run, wake everyone.
    fn violate(&self, st: &mut SchedState, kind: ViolationKind, message: String) {
        if st.violation.is_none() {
            st.violation = Some(Violation {
                kind,
                message,
                trace: st.trace.clone(),
                schedule: 0,
            });
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// One schedule point: log `label`, let the strategy pick who runs
    /// next, and block until it is this thread's turn again.
    fn point(&self, tid: usize, label: &str) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            std::panic::panic_any(Abort);
        }
        st.steps += 1;
        let step = st.steps;
        st.trace.push(format!("t{tid}: {label}"));
        if step > st.max_steps {
            let budget = st.max_steps;
            self.violate(
                &mut st,
                ViolationKind::StepLimit,
                format!("schedule exceeded {budget} steps (livelock?)"),
            );
            drop(st);
            std::panic::panic_any(Abort);
        }
        match Self::pick_next(&mut st) {
            Some(next) => st.current = next,
            None => {
                // The caller is runnable, so this cannot happen; guard
                // anyway to keep the host from hanging.
                st.current = tid;
            }
        }
        self.cv.notify_all();
        while st.current != tid && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.abort {
            drop(st);
            std::panic::panic_any(Abort);
        }
    }

    /// Block this thread on `wait` until [`Self::unblock`] frees it.
    /// Detects deadlock: nothing runnable while threads are blocked.
    fn block_on(&self, tid: usize, wait: Wait, label: &str) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            std::panic::panic_any(Abort);
        }
        st.status[tid] = Status::Blocked(wait);
        st.trace.push(format!("t{tid}: blocked {label}"));
        match Self::pick_next(&mut st) {
            Some(next) => {
                st.current = next;
                self.cv.notify_all();
            }
            None => {
                let blocked: Vec<String> = (0..st.status.len())
                    .filter_map(|t| match st.status[t] {
                        Status::Blocked(w) => Some(format!("t{t} on {w:?}")),
                        _ => None,
                    })
                    .collect();
                self.violate(
                    &mut st,
                    ViolationKind::Deadlock,
                    format!("deadlock: no runnable thread ({})", blocked.join(", ")),
                );
                drop(st);
                std::panic::panic_any(Abort);
            }
        }
        while st.status[tid] != Status::Runnable || st.current != tid {
            if st.abort {
                drop(st);
                std::panic::panic_any(Abort);
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Make every thread blocked on a wait matching `f` runnable again.
    fn unblock(st: &mut SchedState, f: impl Fn(Wait) -> bool) {
        for t in 0..st.status.len() {
            if let Status::Blocked(w) = st.status[t] {
                if f(w) {
                    st.status[t] = Status::Runnable;
                }
            }
        }
    }

    /// Like [`Self::unblock`] but frees at most one thread (lowest id —
    /// deterministic), for `notify_one` semantics.
    fn unblock_one(st: &mut SchedState, f: impl Fn(Wait) -> bool) {
        for t in 0..st.status.len() {
            if let Status::Blocked(w) = st.status[t] {
                if f(w) {
                    st.status[t] = Status::Runnable;
                    return;
                }
            }
        }
    }

    /// Mark `tid` finished (with its panic message, if it panicked on a
    /// model error), wake joiners, hand off or close out the run.
    fn finish(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = self.lock_state();
        st.status[tid] = Status::Done;
        st.trace.push(format!("t{tid}: exit"));
        if let Some(msg) = panic_msg {
            st.panic_msg[tid] = Some(msg.clone());
            self.violate(
                &mut st,
                ViolationKind::Panic,
                format!("thread t{tid} panicked: {msg}"),
            );
        }
        Self::unblock(&mut st, |w| w == Wait::Join(tid));
        if st.status.iter().all(|&s| s == Status::Done) {
            st.all_done = true;
            self.cv.notify_all();
            return;
        }
        match Self::pick_next(&mut st) {
            Some(next) => {
                st.current = next;
                self.cv.notify_all();
            }
            None => {
                if !st.abort {
                    let blocked: Vec<String> = (0..st.status.len())
                        .filter_map(|t| match st.status[t] {
                            Status::Blocked(w) => Some(format!("t{t} on {w:?}")),
                            _ => None,
                        })
                        .collect();
                    self.violate(
                        &mut st,
                        ViolationKind::Deadlock,
                        format!("deadlock after t{tid} exited ({})", blocked.join(", ")),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

/// Which violation class a failing schedule hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// No thread runnable while at least one is blocked — includes
    /// lost-completion hangs (a latch that never closes).
    Deadlock,
    /// A model thread panicked (failed assertion, explicit panic).
    Panic,
    /// The per-schedule step budget was exhausted (livelock guard).
    StepLimit,
}

/// A failing schedule: what went wrong, where, and how to replay it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Violation class.
    pub kind: ViolationKind,
    /// Human-readable description (panic payload, blocked-thread set, …).
    pub message: String,
    /// The serialized op trace of the failing schedule (`t<id>: <op>`).
    pub trace: Vec<String>,
    /// Index of the failing schedule within the exploration — replay with
    /// the same [`Explorer`] parameters to reproduce it.
    pub schedule: usize,
}

/// Outcome of an exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules actually executed.
    pub schedules: usize,
    /// First violation found, if any (exploration stops at the first).
    pub violation: Option<Violation>,
    /// Exhaustive mode only: the whole bounded space was covered.
    pub complete: bool,
}

impl Report {
    /// Panic with the violation trace if one was found — the assertion
    /// helper for "this protocol model must be clean" tests.
    pub fn assert_clean(&self) {
        if let Some(v) = &self.violation {
            panic!(
                "schedule {} violated ({:?}): {}\n  trace:\n    {}",
                v.schedule,
                v.kind,
                v.message,
                v.trace.join("\n    ")
            );
        }
    }
}

enum Mode {
    Pct { seed: u64, preemptions: usize },
    Exhaustive,
}

/// Deterministic interleaving explorer. Construct with [`Explorer::pct`]
/// or [`Explorer::exhaustive`], then [`Explorer::run`] a model closure.
pub struct Explorer {
    mode: Mode,
    schedules: usize,
    max_steps: usize,
}

impl Explorer {
    /// Seeded PCT exploration over at most `schedules` schedules, with 3
    /// priority-change points per schedule (override with
    /// [`Explorer::preemptions`]).
    pub fn pct(seed: u64, schedules: usize) -> Explorer {
        Explorer {
            mode: Mode::Pct {
                seed,
                preemptions: 3,
            },
            schedules,
            max_steps: 20_000,
        }
    }

    /// Bounded exhaustive (DFS) exploration of every scheduling choice,
    /// capped at `max_schedules`. Practical for ≤ 3 threads; the report's
    /// `complete` flag says whether the bound was reached.
    pub fn exhaustive(max_schedules: usize) -> Explorer {
        Explorer {
            mode: Mode::Exhaustive,
            schedules: max_schedules,
            max_steps: 20_000,
        }
    }

    /// Set the PCT priority-change-point count (`d` in the PCT paper).
    pub fn preemptions(mut self, d: usize) -> Explorer {
        if let Mode::Pct { preemptions, .. } = &mut self.mode {
            *preemptions = d;
        }
        self
    }

    /// Set the per-schedule step budget (livelock guard).
    pub fn max_steps(mut self, steps: usize) -> Explorer {
        self.max_steps = steps;
        self
    }

    /// Explore `model` until a violation is found, the schedule budget is
    /// exhausted, or (exhaustive mode) the space is fully covered.
    pub fn run<F>(&self, model: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let model = Arc::new(model);
        let mut dfs: Vec<Choice> = Vec::new();
        let mut prev_steps = 64usize;
        for i in 0..self.schedules {
            let strategy = match &self.mode {
                Mode::Pct { seed, preemptions } => {
                    // Derive the schedule seed SplitMix-style so schedule
                    // i is reproducible in isolation.
                    let mut rng =
                        Rng::new(seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                    let mut change_at: Vec<usize> = (0..*preemptions)
                        .map(|_| rng.below(prev_steps.max(1) as u64) as usize)
                        .collect();
                    change_at.sort_unstable();
                    Strategy::Pct {
                        rng,
                        prio: Vec::new(),
                        change_at,
                        next_change: 0,
                    }
                }
                Mode::Exhaustive => Strategy::Replay {
                    choices: dfs.clone(),
                    pos: 0,
                },
            };
            let (violation, choices, steps) = run_one(strategy, self.max_steps, &model);
            prev_steps = steps.max(1);
            if let Some(mut v) = violation {
                v.schedule = i;
                return Report {
                    schedules: i + 1,
                    violation: Some(v),
                    complete: false,
                };
            }
            if let Mode::Exhaustive = self.mode {
                dfs = choices;
                // Advance DFS: increment the deepest incrementable choice,
                // truncating everything after it.
                loop {
                    match dfs.last_mut() {
                        None => {
                            return Report {
                                schedules: i + 1,
                                violation: None,
                                complete: true,
                            };
                        }
                        Some(last) if last.chosen + 1 < last.options => {
                            last.chosen += 1;
                            break;
                        }
                        Some(_) => {
                            dfs.pop();
                        }
                    }
                }
            }
        }
        Report {
            schedules: self.schedules,
            violation: None,
            complete: false,
        }
    }
}

/// Execute one schedule of `model` under `strategy`. Returns the
/// violation (if any), the recorded choices (exhaustive mode) and the
/// step count.
fn run_one(
    strategy: Strategy,
    max_steps: usize,
    model: &Arc<impl Fn() + Send + Sync + 'static>,
) -> (Option<Violation>, Vec<Choice>, usize) {
    let sched = Sched::new(strategy, max_steps);
    let t0 = sched.register();
    debug_assert_eq!(t0, 0);
    let body = Arc::clone(model);
    let sched2 = Arc::clone(&sched);
    let h = std::thread::Builder::new()
        .name("race-t0".into())
        .spawn(move || {
            CTX.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    sched: Arc::clone(&sched2),
                    tid: 0,
                });
            });
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body()));
            sched2.finish(0, panic_message(result));
        })
        .expect("spawn model thread");
    sched
        .os
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(h);

    // Host: wait until every logical thread has finished. Aborted runs
    // unwind their threads via the Abort payload, so Done is guaranteed.
    {
        let mut st = sched.lock_state();
        while !st.status.iter().all(|&s| s == Status::Done) {
            st = sched.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
    // Reap OS threads (spawned handles accumulate in sched.os).
    loop {
        let h = sched
            .os
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match h {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }
    let st = sched.lock_state();
    let choices = match &st.strategy {
        Strategy::Replay { choices, .. } => choices.clone(),
        Strategy::Pct { .. } => Vec::new(),
    };
    (st.violation.clone(), choices, st.steps)
}

/// Extract a printable message from a thread result; `Abort` unwinds (run
/// teardown) are not failures.
fn panic_message(result: std::thread::Result<()>) -> Option<String> {
    match result {
        Ok(()) => None,
        Err(payload) => {
            if payload.downcast_ref::<Abort>().is_some() {
                None
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                Some((*s).to_string())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                Some(s.clone())
            } else {
                Some("opaque panic payload".to_string())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shim: thread spawn / join
// ---------------------------------------------------------------------------

/// Join handle returned by [`spawn`]: logical join under an exploration,
/// plain `std::thread` join otherwise.
pub struct JoinHandle<T> {
    inner: HandleInner<T>,
}

enum HandleInner<T> {
    Scheduled {
        sched: Arc<Sched>,
        target: usize,
        result: Arc<StdMutex<Option<T>>>,
    },
    Std(std::thread::JoinHandle<T>),
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish; `Err` carries its panic message.
    pub fn join(self) -> Result<T, String> {
        match self.inner {
            HandleInner::Scheduled {
                sched,
                target,
                result,
            } => {
                // Handles can move between model threads (e.g. a healer
                // returns a worker handle to the submitter), so resolve
                // the *calling* thread's identity here, not at spawn.
                let tid = current_ctx()
                    .expect("joining a scheduled handle outside its exploration")
                    .tid;
                loop {
                    sched.point(tid, "join");
                    let done = {
                        let st = sched.lock_state();
                        st.status[target] == Status::Done
                    };
                    if done {
                        break;
                    }
                    sched.block_on(tid, Wait::Join(target), "join");
                }
                let msg = {
                    let st = sched.lock_state();
                    st.panic_msg[target].clone()
                };
                match msg {
                    Some(m) => Err(m),
                    None => result
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        .ok_or_else(|| "thread produced no result".to_string()),
                }
            }
            HandleInner::Std(h) => match h.join() {
                Ok(v) => Ok(v),
                Err(payload) => Err(panic_message(Err(payload)).unwrap_or_default()),
            },
        }
    }
}

/// Spawn a model thread. Under an exploration the thread is registered
/// with the scheduler and runs only when scheduled; otherwise this is
/// `std::thread::spawn`.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    match current_ctx() {
        Some(ctx) => {
            let tid = ctx.sched.register();
            let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
            let result2 = Arc::clone(&result);
            let sched = Arc::clone(&ctx.sched);
            let h = std::thread::Builder::new()
                .name(format!("race-t{tid}"))
                .spawn(move || {
                    CTX.with(|c| {
                        *c.borrow_mut() = Some(Ctx {
                            sched: Arc::clone(&sched),
                            tid,
                        });
                    });
                    // Wait for the first turn before touching the model.
                    {
                        let mut st = sched.lock_state();
                        while st.current != tid && !st.abort {
                            st = sched.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                        }
                        if st.abort {
                            drop(st);
                            sched.finish(tid, None);
                            return;
                        }
                    }
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                    let msg = match out {
                        Ok(v) => {
                            *result2.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
                            None
                        }
                        Err(payload) => panic_message(Err(payload)),
                    };
                    sched.finish(tid, msg);
                })
                .expect("spawn race thread");
            ctx.sched
                .os
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(h);
            // Give the scheduler the chance to run the child immediately.
            ctx.sched.point(ctx.tid, "spawn");
            JoinHandle {
                inner: HandleInner::Scheduled {
                    sched: ctx.sched,
                    target: tid,
                    result,
                },
            }
        }
        None => JoinHandle {
            inner: HandleInner::Std(std::thread::spawn(f)),
        },
    }
}

// ---------------------------------------------------------------------------
// Shim: Mutex + Condvar
// ---------------------------------------------------------------------------

/// Shim mutex: logical ownership goes through the scheduler during an
/// exploration; plain `std::sync::Mutex` otherwise.
pub struct Mutex<T> {
    name: &'static str,
    id: StdMutex<Option<usize>>,
    data: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// New unnamed mutex.
    pub fn new(value: T) -> Mutex<T> {
        Mutex::named("mutex", value)
    }

    /// New mutex with a `name` used in schedule traces.
    pub fn named(name: &'static str, value: T) -> Mutex<T> {
        Mutex {
            name,
            id: StdMutex::new(None),
            data: StdMutex::new(value),
        }
    }

    fn ensure_id(&self, sched: &Sched) -> usize {
        let mut id = self.id.lock().unwrap_or_else(PoisonError::into_inner);
        *id.get_or_insert_with(|| sched.resource_id())
    }

    /// Acquire the lock (a schedule point; blocks logically while owned).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match current_ctx() {
            Some(ctx) => {
                let id = self.ensure_id(&ctx.sched);
                loop {
                    ctx.sched.point(ctx.tid, self.name);
                    let acquired = {
                        let mut st = ctx.sched.lock_state();
                        if st.lock_owner.iter().any(|&(l, _)| l == id) {
                            false
                        } else {
                            st.lock_owner.push((id, ctx.tid));
                            let name = self.name;
                            let tid = ctx.tid;
                            st.trace.push(format!("t{tid}: acquired {name}"));
                            true
                        }
                    };
                    if acquired {
                        break;
                    }
                    ctx.sched.block_on(ctx.tid, Wait::Lock(id), self.name);
                }
                let inner = self.data.lock().unwrap_or_else(PoisonError::into_inner);
                MutexGuard {
                    mutex: self,
                    inner: Some(inner),
                    ctx: Some(ctx),
                    id,
                }
            }
            None => MutexGuard {
                mutex: self,
                inner: Some(self.data.lock().unwrap_or_else(PoisonError::into_inner)),
                ctx: None,
                id: 0,
            },
        }
    }
}

/// Guard for [`Mutex`]; releasing it (drop) is a scheduler event.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    ctx: Option<Ctx>,
    id: usize,
}

impl<T> MutexGuard<'_, T> {
    /// Release logical ownership (scheduler bookkeeping only).
    fn release(&mut self) {
        self.inner = None;
        if let Some(ctx) = &self.ctx {
            let mut st = ctx.sched.lock_state();
            st.lock_owner.retain(|&(l, _)| l != self.id);
            let name = self.mutex.name;
            let tid = ctx.tid;
            st.trace.push(format!("t{tid}: released {name}"));
            Sched::unblock(&mut st, |w| w == Wait::Lock(self.id));
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard released")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard released")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.release();
            // Make the handoff visible as a schedule point — but never
            // unwind out of a drop that is itself part of an unwind.
            if let Some(ctx) = self.ctx.clone() {
                if !std::thread::panicking() {
                    ctx.sched.point(ctx.tid, "unlock");
                }
            }
        }
    }
}

/// Shim condvar paired with [`Mutex`].
pub struct Condvar {
    id: StdMutex<Option<usize>>,
    std: StdCondvar,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    /// New condvar.
    pub fn new() -> Condvar {
        Condvar {
            id: StdMutex::new(None),
            std: StdCondvar::new(),
        }
    }

    fn ensure_id(&self, sched: &Sched) -> usize {
        let mut id = self.id.lock().unwrap_or_else(PoisonError::into_inner);
        *id.get_or_insert_with(|| sched.resource_id())
    }

    /// Release the guard's lock, wait for a notification, reacquire.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match guard.ctx.clone() {
            Some(ctx) => {
                let id = self.ensure_id(&ctx.sched);
                let mutex = guard.mutex;
                guard.release();
                drop(guard); // fully released; drop sees inner == None
                ctx.sched.block_on(ctx.tid, Wait::Cond(id), "condvar wait");
                mutex.lock()
            }
            None => {
                let mutex = guard.mutex;
                let inner = guard.inner.take().expect("guard released");
                // Forget the shim bookkeeping (no scheduler): plain wait.
                let inner = self.std.wait(inner).unwrap_or_else(PoisonError::into_inner);
                MutexGuard {
                    mutex,
                    inner: Some(inner),
                    ctx: None,
                    id: 0,
                }
            }
        }
    }

    /// Wake one waiter (deterministically the lowest thread id).
    pub fn notify_one(&self) {
        match current_ctx() {
            Some(ctx) => {
                let id = self.ensure_id(&ctx.sched);
                let mut st = ctx.sched.lock_state();
                Sched::unblock_one(&mut st, |w| w == Wait::Cond(id));
            }
            None => self.std.notify_one(),
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        match current_ctx() {
            Some(ctx) => {
                let id = self.ensure_id(&ctx.sched);
                let mut st = ctx.sched.lock_state();
                Sched::unblock(&mut st, |w| w == Wait::Cond(id));
            }
            None => self.std.notify_all(),
        }
    }
}

// ---------------------------------------------------------------------------
// Shim: mpsc-style channel
// ---------------------------------------------------------------------------

struct ChanInner<T> {
    q: VecDeque<T>,
    senders: usize,
    rx_alive: bool,
}

struct Chan<T> {
    id: StdMutex<Option<usize>>,
    inner: StdMutex<ChanInner<T>>,
    cv: StdCondvar,
}

impl<T> Chan<T> {
    fn ensure_id(&self, sched: &Sched) -> usize {
        let mut id = self.id.lock().unwrap_or_else(PoisonError::into_inner);
        *id.get_or_insert_with(|| sched.resource_id())
    }
}

/// Sending half of [`channel`]. Cloneable, like `std::sync::mpsc`.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone; carries
/// the unsent value (mirrors `std::sync::mpsc::SendError`).
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// every sender is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Receiving half of [`channel`].
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Unbounded FIFO channel shim in the `std::sync::mpsc` shape.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        id: StdMutex::new(None),
        inner: StdMutex::new(ChanInner {
            q: VecDeque::new(),
            senders: 1,
            rx_alive: true,
        }),
        cv: StdCondvar::new(),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        let mut inner = self
            .chan
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inner.senders += 1;
        drop(inner);
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Sender<T> {
    /// Send one value; fails when the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match current_ctx() {
            Some(ctx) => {
                let id = self.chan.ensure_id(&ctx.sched);
                ctx.sched.point(ctx.tid, "send");
                let mut inner = self
                    .chan
                    .inner
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if !inner.rx_alive {
                    return Err(SendError(value));
                }
                inner.q.push_back(value);
                drop(inner);
                let mut st = ctx.sched.lock_state();
                Sched::unblock(&mut st, |w| w == Wait::Recv(id));
                Ok(())
            }
            None => {
                let mut inner = self
                    .chan
                    .inner
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if !inner.rx_alive {
                    return Err(SendError(value));
                }
                inner.q.push_back(value);
                drop(inner);
                self.chan.cv.notify_all();
                Ok(())
            }
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self
            .chan
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inner.senders -= 1;
        let disconnected = inner.senders == 0;
        drop(inner);
        if disconnected {
            // Blocked receivers must observe the disconnect.
            if let Some(ctx) = current_ctx() {
                let id = self.chan.ensure_id(&ctx.sched);
                let mut st = ctx.sched.lock_state();
                Sched::unblock(&mut st, |w| w == Wait::Recv(id));
            } else {
                self.chan.cv.notify_all();
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Receive one value, blocking until one arrives or every sender is
    /// dropped with the queue empty.
    pub fn recv(&self) -> Result<T, RecvError> {
        match current_ctx() {
            Some(ctx) => {
                let id = self.chan.ensure_id(&ctx.sched);
                loop {
                    ctx.sched.point(ctx.tid, "recv");
                    let mut inner = self
                        .chan
                        .inner
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    if let Some(v) = inner.q.pop_front() {
                        return Ok(v);
                    }
                    if inner.senders == 0 {
                        return Err(RecvError);
                    }
                    drop(inner);
                    ctx.sched.block_on(ctx.tid, Wait::Recv(id), "recv");
                }
            }
            None => {
                let mut inner = self
                    .chan
                    .inner
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(v) = inner.q.pop_front() {
                        return Ok(v);
                    }
                    if inner.senders == 0 {
                        return Err(RecvError);
                    }
                    inner = self
                        .chan
                        .cv
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Non-blocking receive (`None` when empty — disconnects surface via
    /// [`Receiver::recv`]).
    pub fn try_recv(&self) -> Option<T> {
        if let Some(ctx) = current_ctx() {
            ctx.sched.point(ctx.tid, "try_recv");
        }
        self.chan
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .q
            .pop_front()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self
            .chan
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inner.rx_alive = false;
        inner.q.clear();
    }
}

// ---------------------------------------------------------------------------
// Shim: atomics
// ---------------------------------------------------------------------------

macro_rules! shim_atomic {
    ($name:ident, $std:ty, $val:ty) => {
        /// Shim atomic: every op is a schedule point under an
        /// exploration. `Ordering` arguments are accepted for API
        /// fidelity but execute `SeqCst` — interleavings are explored
        /// under sequential consistency (see crate docs).
        pub struct $name {
            v: $std,
        }

        impl $name {
            /// New shim atomic with `value`.
            pub fn new(value: $val) -> $name {
                $name {
                    v: <$std>::new(value),
                }
            }

            fn pt(&self, label: &str) {
                if let Some(ctx) = current_ctx() {
                    ctx.sched.point(ctx.tid, label);
                }
            }

            /// Atomic load (schedule point).
            pub fn load(&self, _order: Ordering) -> $val {
                self.pt(concat!(stringify!($name), ".load"));
                self.v.load(Ordering::SeqCst)
            }

            /// Atomic store (schedule point).
            pub fn store(&self, value: $val, _order: Ordering) {
                self.pt(concat!(stringify!($name), ".store"));
                self.v.store(value, Ordering::SeqCst);
            }

            /// Atomic swap (schedule point).
            pub fn swap(&self, value: $val, _order: Ordering) -> $val {
                self.pt(concat!(stringify!($name), ".swap"));
                self.v.swap(value, Ordering::SeqCst)
            }
        }
    };
}

shim_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

macro_rules! shim_atomic_arith {
    ($name:ident, $val:ty) => {
        impl $name {
            /// Atomic add, returning the previous value (schedule point).
            pub fn fetch_add(&self, value: $val, _order: Ordering) -> $val {
                self.pt(concat!(stringify!($name), ".fetch_add"));
                self.v.fetch_add(value, Ordering::SeqCst)
            }

            /// Atomic subtract, returning the previous value (schedule
            /// point).
            pub fn fetch_sub(&self, value: $val, _order: Ordering) -> $val {
                self.pt(concat!(stringify!($name), ".fetch_sub"));
                self.v.fetch_sub(value, Ordering::SeqCst)
            }

            /// Atomic max ratchet, returning the previous value (schedule
            /// point).
            pub fn fetch_max(&self, value: $val, _order: Ordering) -> $val {
                self.pt(concat!(stringify!($name), ".fetch_max"));
                self.v.fetch_max(value, Ordering::SeqCst)
            }
        }
    };
}

shim_atomic_arith!(AtomicU64, u64);
shim_atomic_arith!(AtomicUsize, usize);

// ---------------------------------------------------------------------------
// Self-tests of the scheduler machinery
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each do a non-atomic read-modify-write (load, then
    /// store) on a shared counter. Exhaustive exploration must find the
    /// lost update; the final assert runs on the model's main thread.
    fn lost_update_model() {
        let n = Arc::new(AtomicU64::new(0));
        let mk = |n: Arc<AtomicU64>| {
            move || {
                let v = n.load(Ordering::Acquire);
                n.store(v + 1, Ordering::Release);
            }
        };
        let a = spawn(mk(Arc::clone(&n)));
        let b = spawn(mk(Arc::clone(&n)));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(n.load(Ordering::Acquire), 2, "lost update");
    }

    #[test]
    fn exhaustive_finds_lost_update() {
        let report = Explorer::exhaustive(10_000).run(lost_update_model);
        let v = report.violation.expect("exhaustive must find the race");
        assert_eq!(v.kind, ViolationKind::Panic);
        assert!(v.message.contains("lost update"), "{}", v.message);
    }

    #[test]
    fn pct_finds_lost_update() {
        let report = Explorer::pct(0xD1A1, 500).run(lost_update_model);
        assert!(report.violation.is_some(), "PCT must find the race");
    }

    #[test]
    fn pct_is_deterministic() {
        let r1 = Explorer::pct(42, 200).run(lost_update_model);
        let r2 = Explorer::pct(42, 200).run(lost_update_model);
        let (v1, v2) = (r1.violation.unwrap(), r2.violation.unwrap());
        assert_eq!(v1.schedule, v2.schedule);
        assert_eq!(v1.trace, v2.trace);
    }

    #[test]
    fn fetch_add_model_is_clean() {
        // The same counter bumped with a real RMW has no race.
        let report = Explorer::exhaustive(10_000).run(|| {
            let n = Arc::new(AtomicU64::new(0));
            let mk = |n: Arc<AtomicU64>| move || n.fetch_add(1, Ordering::AcqRel);
            let a = spawn(mk(Arc::clone(&n)));
            let b = spawn(mk(Arc::clone(&n)));
            a.join().unwrap();
            b.join().unwrap();
            assert_eq!(n.load(Ordering::Acquire), 2);
        });
        report.assert_clean();
        assert!(report.complete, "2-thread RMW model must be exhaustible");
    }

    #[test]
    fn deadlock_is_detected() {
        // Classic AB/BA lock inversion across two threads.
        let report = Explorer::pct(7, 500).run(|| {
            let a = Arc::new(Mutex::named("A", ()));
            let b = Arc::new(Mutex::named("B", ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
            let _ = t.join();
        });
        let v = report.violation.expect("inversion must deadlock");
        assert_eq!(v.kind, ViolationKind::Deadlock);
    }

    #[test]
    fn channel_disconnect_surfaces() {
        let report = Explorer::pct(3, 100).run(|| {
            let (tx, rx) = channel::<u32>();
            let t = spawn(move || {
                tx.send(1).unwrap();
                // tx dropped here: receiver must see Ok(1) then Err.
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
            t.join().unwrap();
        });
        report.assert_clean();
    }

    #[test]
    fn condvar_wakes_waiter() {
        let report = Explorer::pct(11, 200).run(|| {
            let state = Arc::new((Mutex::named("flag", false), Condvar::new()));
            let s2 = Arc::clone(&state);
            let t = spawn(move || {
                let (m, cv) = &*s2;
                let mut g = m.lock();
                *g = true;
                drop(g);
                cv.notify_all();
            });
            let (m, cv) = &*state;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
            drop(g);
            t.join().unwrap();
        });
        report.assert_clean();
    }

    #[test]
    fn passthrough_mode_works_without_explorer() {
        // Shims degrade to plain std behavior outside a run.
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        let (tx, rx) = channel();
        tx.send(9u8).unwrap();
        assert_eq!(rx.recv(), Ok(9));
        let h = spawn(|| 123u64);
        assert_eq!(h.join().unwrap(), 123);
    }
}
