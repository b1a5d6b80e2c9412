//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: every span here is opened
//! and closed in the benchmark's own code, kept in memory, and written out
//! once when the traced run ends.

use serde_json::{json, Value};
use std::time::Instant;

/// One timed call (or group of calls) into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`, e.g. `exec.execute`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Which repetition of the traced phase the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), rep: 0 }
    }

    /// Spans recorded from now on belong to repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its `exit`.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span around `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_secs(&self, id: usize) -> f64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = me.start_ns;
        for (s, e) in kids {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        (me.end_ns - me.start_ns - covered) as f64 / 1e9
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map(|p| p as u64),
                    "rep": s.rep,
                })
            })
            .collect();
        json!({ "spans": spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span { name, start_ns, end_ns, parent, rep: 0 });
        }
        t
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // Parent 0..100; children 10..30, 20..50 (overlap), 60..70; a
        // grandchild and a child of another span are not subtracted.
        let t = tracer_with(&[
            ("p", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 20, 50, Some(0)),
            ("c", 60, 70, Some(0)),
            ("grandchild", 12, 18, Some(1)),
            ("other", 0, 100, None),
            ("elsewhere", 80, 90, Some(5)),
        ]);
        assert_eq!(t.self_secs(0), 50e-9);
        assert_eq!(t.self_secs(1), 14e-9);
        assert_eq!(t.self_secs(3), 10e-9);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let t = tracer_with(&[("p", 10, 20, None), ("late", 15, 40, Some(0))]);
        assert_eq!(t.self_secs(0), 5e-9);
    }

    #[test]
    fn nesting_records_parents_and_reps() {
        let mut t = Tracer::new();
        t.set_rep(3);
        let outer = t.enter("outer");
        let got = t.span("inner", || 7);
        t.exit(outer);
        assert_eq!(got, 7);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].rep, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.total_secs("outer") >= t.total_secs("inner"));
    }
}
