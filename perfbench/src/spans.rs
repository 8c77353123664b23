//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call into a layer's public function and
//! closed when the call returns. Spans nest through a per-thread stack,
//! so each span knows the span that caused it, and every span carries
//! the id of the operation it belongs to. Nothing is written while the
//! benchmark runs: spans stay in memory and are written out at the end.
//! With no recorder installed, opening a span costs one thread-local
//! lookup.

use serde::Value;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: Option<u32>,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
    stack: Vec<usize>,
    op: Option<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier spans.
pub fn install() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            stack: Vec::new(),
            op: None,
        })
    });
}

/// Stops recording and returns every span, in opening order, and the
/// counters.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| (rec.spans, rec.counts))
            .unwrap_or_default()
    })
}

/// Adds `v` to counter `name`, recorded at a layer boundary next to
/// the spans.
pub fn count(name: &'static str, v: f64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.counts.entry(name).or_default() += v;
        }
    });
}

/// Sets the operation id that spans opened from now on carry.
pub fn set_op(op: Option<u32>) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard is dropped"]
pub struct Guard(Option<usize>);

/// Opens a span named `name`, child of the innermost open span.
pub fn enter(name: impl Into<Cow<'static, str>>) -> Guard {
    Guard(RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let start_ns = rec.t0.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: rec.stack.last().copied(),
            op: rec.op,
        });
        rec.stack.push(id);
        Some(id)
    }))
}

/// Nanoseconds since the recorder started (0 without a recorder).
pub fn now_ns() -> u64 {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map_or(0, |rec| rec.t0.elapsed().as_nanos() as u64)
    })
}

/// Records a finished span whose start and end were measured
/// elsewhere, and returns its id.
pub fn record(
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: Option<u32>,
) -> usize {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return 0 };
        rec.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op,
        });
        rec.spans.len() - 1
    })
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_ns = rec.t0.elapsed().as_nanos() as u64;
                if rec.stack.last() == Some(&id) {
                    rec.stack.pop();
                }
            }
        });
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover (overlapping children are
/// merged, so time is never subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: (self milliseconds, calls).
pub fn totals(spans: &[Span]) -> BTreeMap<String, (f64, u64)> {
    let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.to_string()).or_default();
        e.0 += self_ns as f64 / 1e6;
        e.1 += 1;
    }
    out
}

/// Whether span `id` lies in the subtree of a span named `root`.
pub fn under(spans: &[Span], mut id: usize, root: &str) -> bool {
    loop {
        if spans[id].name == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

/// Writes one JSON object per span: name, start and end (microseconds
/// since the recorder started), parent span id, operation id and self
/// time.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for ((id, s), self_ns) in spans.iter().enumerate().zip(self_times(spans)) {
        let line = crate::common::obj(vec![
            ("id", Value::UInt(id as u64)),
            ("name", Value::Str(s.name.to_string())),
            ("start_us", Value::Float(s.start_ns as f64 / 1e3)),
            ("end_us", Value::Float(s.end_ns as f64 / 1e3)),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
            ),
            ("op", s.op.map_or(Value::Null, |o| Value::UInt(o as u64))),
            ("self_us", Value::Float(self_ns as f64 / 1e3)),
        ]);
        let text = serde_json::to_string(&line).expect("span serializes");
        writeln!(out, "{text}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            mk("root", 0, 100, None),
            mk("a", 10, 40, Some(0)),
            // Overlaps `a`: only 40..50 is new coverage.
            mk("b", 30, 50, Some(0)),
            mk("c", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 25, 20, 5]);
        let t = totals(&spans);
        assert_eq!(t["root"].1, 1);
        assert!(under(&spans, 3, "root"));
        assert!(!under(&spans, 2, "a"));
    }

    #[test]
    fn guards_nest_and_record_ops() {
        install();
        set_op(Some(7));
        {
            let _outer = enter("outer");
            span("inner", || ());
        }
        count("things", 2.0);
        let (spans, counts) = take();
        assert_eq!(counts["things"], 2.0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        // Without a recorder, spans are no-ops.
        span("ignored", || ());
        assert!(take().0.is_empty());
    }
}
