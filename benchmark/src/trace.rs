//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer, on the client thread only (a thread-local recorder:
//! no lock, and a disabled recorder costs one thread-local read). They
//! are kept in memory and written out as JSON lines when the workload
//! ends. A layer's self time is its span's duration minus its children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. `parent` indexes the recorder's span list; spans of
/// one operation share `op_id`, and each `op_id` has exactly one root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`service.submit`, `image.persist`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was enabled.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Operation the span belongs to.
    pub op_id: u64,
}

struct Recorder {
    origin: Instant,
    /// Paused: nothing is recorded, what was recorded is kept.
    paused: bool,
    spans: Vec<Span>,
    /// Innermost open [`Scope`]: the parent and op of the next scoped span.
    current: Option<(u32, u64)>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            paused: false,
            spans: Vec::new(),
            current: None,
        });
    });
}

/// Stop recording on this thread and return what was recorded.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Is this thread recording right now?
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().as_ref().is_some_and(|rec| !rec.paused))
}

/// Pause or resume recording on this thread, keeping what was recorded:
/// traced and untraced rounds can then alternate inside one window.
pub fn set_paused(paused: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.paused = paused;
        }
    });
}

/// Open a span with an explicit parent (for operations that interleave,
/// as in a burst window). Returns `None` when not recording.
pub fn begin(name: &'static str, parent: Option<u32>, op_id: u64) -> Option<u32> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().filter(|rec| !rec.paused)?;
        let now = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        Some((rec.spans.len() - 1) as u32)
    })
}

/// Close a span opened by [`begin`].
pub fn end(id: Option<u32>) {
    let Some(id) = id else { return };
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let now = rec.origin.elapsed().as_nanos() as u64;
            if let Some(span) = rec.spans.get_mut(id as usize) {
                span.end_ns = now;
            }
        }
    });
}

/// A span that nests by scope: opened under the innermost live `Scope` of
/// this thread, closed on drop.
pub struct Scope {
    id: Option<u32>,
    outer: Option<(u32, u64)>,
}

/// Open a root span for operation `op_id`; scoped spans opened while it
/// lives become its descendants.
pub fn root(name: &'static str, op_id: u64) -> Scope {
    open_scope(name, Some(op_id))
}

/// Open a span under the innermost live [`Scope`]. Outside any scope (or
/// when not recording) nothing is recorded.
pub fn scoped(name: &'static str) -> Scope {
    open_scope(name, None)
}

fn open_scope(name: &'static str, new_op: Option<u64>) -> Scope {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut().filter(|rec| !rec.paused) else {
            return Scope {
                id: None,
                outer: None,
            };
        };
        let outer = rec.current;
        let (parent, op_id) = match (new_op, outer) {
            (Some(op), _) => (None, op),
            (None, Some((p, op))) => (Some(p), op),
            (None, None) => {
                return Scope {
                    id: None,
                    outer: None,
                }
            }
        };
        let now = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        let id = (rec.spans.len() - 1) as u32;
        rec.current = Some((id, op_id));
        Scope {
            id: Some(id),
            outer,
        }
    })
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let now = rec.origin.elapsed().as_nanos() as u64;
                if let Some(span) = rec.spans.get_mut(id as usize) {
                    span.end_ns = now;
                }
                rec.current = self.outer;
            }
        });
    }
}

/// Self times per span name, microseconds.
#[derive(Debug, Default)]
pub struct Summary {
    /// Span self times (duration minus children) by name.
    pub self_us: BTreeMap<&'static str, Vec<f64>>,
    /// Distinct operations.
    pub ops: usize,
}

/// Check that `spans` form well-formed trees and summarise them: every
/// parent precedes its child and shares its `op_id`, children lie inside
/// their parent, self time is non-negative, and each `op_id` has exactly
/// one root.
pub fn summarise(spans: &[Span]) -> Result<Summary, String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        match s.parent {
            None => *roots.entry(s.op_id).or_insert(0) += 1,
            Some(p) => {
                let p = p as usize;
                if p >= i {
                    return Err(format!("span {i} ({}) precedes its parent {p}", s.name));
                }
                let parent = &spans[p];
                if parent.op_id != s.op_id {
                    return Err(format!(
                        "span {i} ({}) and its parent differ in op_id",
                        s.name
                    ));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) lies outside its parent {} ",
                        s.name, parent.name
                    ));
                }
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
    }
    for s in spans {
        if !roots.contains_key(&s.op_id) {
            return Err(format!("op {} has no root span", s.op_id));
        }
    }
    if let Some((op, n)) = roots.iter().find(|(_, n)| **n != 1) {
        return Err(format!("op {op} has {n} root spans"));
    }
    let mut out = Summary {
        ops: roots.len(),
        ..Summary::default()
    };
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let Some(own) = dur.checked_sub(child_ns[i]) else {
            return Err(format!(
                "span {i} ({}) is shorter than its children: negative self time",
                s.name
            ));
        };
        out.self_us
            .entry(s.name)
            .or_default()
            .push(own as f64 / 1e3);
    }
    Ok(out)
}

/// Write spans as JSON lines: `{"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,"op_id":..}`.
pub fn dump(spans: &[Span], mut w: impl Write) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_two_ops() -> Vec<Span> {
        enable();
        for op in 0..2u64 {
            let _op = root("op", op);
            {
                let _p = scoped("gen.payload");
            }
            {
                let _put = scoped("store.put");
                let _s = scoped("image.store");
            }
        }
        // Interleaved ops with explicit parents, as a burst window records.
        let a = begin("op", None, 10);
        let b = begin("op", None, 11);
        let sa = begin("service.submit", a, 10);
        end(sa);
        let sb = begin("service.submit", b, 11);
        end(sb);
        end(a);
        end(b);
        take()
    }

    #[test]
    fn span_trees_are_well_formed() {
        let spans = record_two_ops();
        assert!(!enabled());
        let summary = summarise(&spans).expect("well-formed");
        assert_eq!(summary.ops, 4);
        assert_eq!(summary.self_us["op"].len(), 4);
        assert_eq!(summary.self_us["image.store"].len(), 2);
        // image.store nests under store.put, which nests under op.
        let put = spans.iter().position(|s| s.name == "store.put").unwrap();
        let store = spans.iter().position(|s| s.name == "image.store").unwrap();
        assert_eq!(spans[store].parent, Some(put as u32));
        assert_eq!(spans[put].parent, Some(0));
        assert!(summary.self_us.values().flatten().all(|&us| us >= 0.0));
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let ok = Span {
            name: "op",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            op_id: 1,
        };
        let child = |start_ns, end_ns, op_id| Span {
            name: "c",
            start_ns,
            end_ns,
            parent: Some(0),
            op_id,
        };
        assert!(summarise(&[ok.clone(), child(10, 20, 1)]).is_ok());
        // Child outside its parent.
        assert!(summarise(&[ok.clone(), child(90, 120, 1)]).is_err());
        // Child of another op.
        assert!(summarise(&[ok.clone(), child(10, 20, 2)]).is_err());
        // Two roots for one op.
        assert!(summarise(&[ok.clone(), ok.clone()]).is_err());
        // Children that overrun their parent's duration: negative self.
        assert!(summarise(&[ok, child(0, 80, 1), child(10, 90, 1)]).is_err());
    }

    #[test]
    fn disabled_or_paused_recorder_records_nothing() {
        assert!(!enabled());
        {
            let _r = root("op", 1);
            let _s = scoped("x");
            assert_eq!(begin("y", None, 1), None);
        }
        assert!(take().is_empty());

        enable();
        drop(root("op", 1));
        set_paused(true);
        assert!(!enabled());
        drop(root("op", 2));
        assert_eq!(begin("y", None, 2), None);
        set_paused(false);
        drop(root("op", 3));
        let ops: Vec<u64> = take().iter().map(|s| s.op_id).collect();
        assert_eq!(ops, [1, 3]);
    }

    #[test]
    fn dump_is_one_json_object_per_line() {
        let spans = record_two_ops();
        let mut buf = Vec::new();
        dump(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), spans.len());
        for (i, line) in text.lines().enumerate() {
            let v = dialga_workload::json::parse(line).expect("valid JSON");
            assert_eq!(v.get("id").and_then(|x| x.as_f64()), Some(i as f64));
            assert_eq!(v.get("name").and_then(|x| x.as_str()), Some(spans[i].name));
            let parent = v.get("parent").unwrap();
            match spans[i].parent {
                None => assert!(parent.is_null()),
                Some(p) => assert_eq!(parent.as_f64(), Some(p as f64)),
            }
        }
    }
}
