//! Bounded in-memory trace of tick / wavefront spans, exportable as Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` and Perfetto).
//!
//! Spans are recorded with microsecond offsets from the start of the run.
//! Ticks run one at a time, so they share one track (`tid`); wavefront
//! spans live on a dedicated track above it.

use crate::span::{AuxKind, AuxSpan, SlackPoint, ADAPT_TID, INGEST_TID, OP_TID};
use serde_json::{json, Value};

/// What a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One subplan tick (one incremental or final execution).
    Tick,
    /// One wavefront: all ticks sharing an arrival fraction.
    Wavefront,
}

/// One recorded span. For `Tick` spans `sp` is the subplan index and
/// `num`/`den` its arrival fraction; for `Wavefront` spans `sp` is the
/// wavefront's ordinal and `num`/`den` the shared fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Tick or wavefront.
    pub kind: SpanKind,
    /// Subplan index (ticks) or wavefront ordinal (wavefronts).
    pub sp: u32,
    /// Arrival-fraction numerator.
    pub num: u32,
    /// Arrival-fraction denominator.
    pub den: u32,
    /// Dependency depth level within the wavefront (0 for wavefront spans).
    pub depth: u32,
    /// Start offset from the beginning of the run, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Work units charged during the span.
    pub work: f64,
    /// `true` iff this is the subplan's final (fraction 1) execution.
    pub is_final: bool,
}

impl Span {
    fn name(&self) -> String {
        match self.kind {
            SpanKind::Tick => {
                let suffix = if self.is_final { " final" } else { "" };
                format!("sp{} {}/{}{}", self.sp, self.num, self.den, suffix)
            }
            SpanKind::Wavefront => format!("front {} ({}/{})", self.sp, self.num, self.den),
        }
    }
}

/// Track id carrying wavefront spans.
pub const WAVEFRONT_TID: u64 = 0;
/// Track id carrying tick spans.
pub const TICK_TID: u64 = 1;

/// A bounded append-only span buffer. When full, further spans are counted
/// in [`dropped`](TraceBuffer::dropped) but not stored, so a long run cannot
/// grow the trace without bound.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBuffer {
    spans: Vec<Span>,
    /// Auxiliary operator / ingest-poll / adapt-search spans (separate
    /// storage so the primary span layout — and its byte-golden Chrome
    /// export — is untouched when no aux spans are recorded).
    aux: Vec<AuxSpan>,
    /// Per-query slack samples, exported as Chrome counter events.
    slack: Vec<SlackPoint>,
    capacity: usize,
    dropped: usize,
}

impl TraceBuffer {
    /// Default capacity: enough for every tick of any bench workload while
    /// bounding worst-case memory to a few MiB.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Empty buffer holding at most `capacity` spans (primary and auxiliary
    /// spans each get their own `capacity` budget).
    pub fn new(capacity: usize) -> Self {
        Self { spans: Vec::new(), aux: Vec::new(), slack: Vec::new(), capacity, dropped: 0 }
    }

    /// Record a span, dropping it (counted) if the buffer is full.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Record an auxiliary span, dropping it (counted) if its budget is full.
    pub fn push_aux(&mut self, span: AuxSpan) {
        if self.aux.len() < self.capacity {
            self.aux.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Record a per-query slack sample for the counter track.
    pub fn push_slack(&mut self, point: SlackPoint) {
        if self.slack.len() < self.capacity {
            self.slack.push(point);
        } else {
            self.dropped += 1;
        }
    }

    /// Absorb another buffer's spans (used when folding per-run traces).
    pub fn extend(&mut self, other: &TraceBuffer) {
        for s in &other.spans {
            self.push(*s);
        }
        for s in &other.aux {
            self.push_aux(*s);
        }
        for p in &other.slack {
            self.push_slack(*p);
        }
        self.dropped += other.dropped;
    }

    /// Recorded spans, in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded auxiliary spans, in insertion order.
    pub fn aux_spans(&self) -> &[AuxSpan] {
        &self.aux
    }

    /// Recorded slack samples, in insertion order.
    pub fn slack_points(&self) -> &[SlackPoint] {
        &self.slack
    }

    /// Number of spans that did not fit.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// `true` iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.aux.is_empty() && self.slack.is_empty()
    }

    /// Export as a Chrome `trace_event` JSON document:
    /// `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Every span becomes
    /// a complete (`"ph": "X"`) event with `ts`/`dur` in microseconds; tick
    /// spans ride on [`TICK_TID`] and wavefront spans on [`WAVEFRONT_TID`],
    /// each track named via a `thread_name` metadata event.
    ///
    /// Auxiliary spans follow the primary ones on their own tracks —
    /// operator spans on `ops` ([`OP_TID`]), ingest polls on
    /// [`INGEST_TID`], adapt re-searches on [`ADAPT_TID`] — and slack
    /// samples render last as counter (`"ph": "C"`) events, one `slack
    /// q{i}` counter per query with `remaining`/`consumed` series. Every
    /// track's metadata event comes first.
    pub fn chrome_trace(&self) -> Value {
        let mut events: Vec<Value> = Vec::with_capacity(self.spans.len() + 8);
        let mut name_track = |tid: u64, name: &str| {
            events.push(json!({
                "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                "args": { "name": name },
            }));
        };
        if self.spans.iter().any(|s| s.kind == SpanKind::Wavefront) {
            name_track(WAVEFRONT_TID, "wavefronts");
        }
        if self.spans.iter().any(|s| s.kind == SpanKind::Tick) {
            name_track(TICK_TID, "ticks");
        }
        for (kind, tid, name) in [
            (AuxKind::IngestPoll, INGEST_TID, "ingest"),
            (AuxKind::AdaptSearch, ADAPT_TID, "adapt"),
        ] {
            if self.aux.iter().any(|s| s.kind == kind) {
                name_track(tid, name);
            }
        }
        if self.aux.iter().any(|s| matches!(s.kind, AuxKind::Operator(_))) {
            name_track(OP_TID, "ops");
        }
        for s in &self.spans {
            let (tid, cat) = match s.kind {
                SpanKind::Tick => (TICK_TID, "tick"),
                SpanKind::Wavefront => (WAVEFRONT_TID, "wavefront"),
            };
            events.push(json!({
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": s.start_us,
                "dur": s.dur_us,
                "name": s.name(),
                "cat": cat,
                "args": {
                    "sp": s.sp,
                    "frac": format!("{}/{}", s.num, s.den),
                    "depth": s.depth,
                    "work": s.work,
                    "is_final": s.is_final,
                },
            }));
        }
        for s in &self.aux {
            events.push(json!({
                "ph": "X",
                "pid": 1,
                "tid": s.tid(),
                "ts": s.start_us,
                "dur": s.dur_us,
                "name": s.name(),
                "cat": s.cat(),
                "args": { "sp": s.sp, "work": s.work },
            }));
        }
        // Slack samples: one counter track per query, stepped area chart of
        // remaining slack vs consumed budget.
        for p in &self.slack {
            events.push(json!({
                "ph": "C",
                "pid": 1,
                "ts": p.ts_us,
                "name": format!("slack q{}", p.query),
                "cat": "slo",
                "args": { "remaining": p.remaining, "consumed": p.consumed },
            }));
        }
        json!({ "traceEvents": events, "displayTimeUnit": "ms" })
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(sp: u32, start_us: u64, dur_us: u64) -> Span {
        Span {
            kind: SpanKind::Tick,
            sp,
            num: 1,
            den: 2,
            depth: 0,
            start_us,
            dur_us,
            work: 10.0,
            is_final: false,
        }
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let mut t = TraceBuffer::new(2);
        for i in 0..5 {
            t.push(tick(0, i * 10, 5));
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn golden_chrome_trace_for_two_subplan_run() {
        // A tiny 2-subplan run: two wavefronts. Spans are built
        // by hand (real drivers stamp wall-clock durations, which are not
        // reproducible) so the exported JSON is byte-stable.
        let mut t = TraceBuffer::new(16);
        t.push(Span {
            kind: SpanKind::Wavefront,
            sp: 0,
            num: 1,
            den: 2,
            depth: 0,
            start_us: 0,
            dur_us: 30,
            work: 25.0,
            is_final: false,
        });
        t.push(tick(0, 0, 10));
        t.push(tick(1, 10, 15));
        t.push(Span {
            kind: SpanKind::Wavefront,
            sp: 1,
            num: 2,
            den: 2,
            depth: 0,
            start_us: 30,
            dur_us: 20,
            work: 50.0,
            is_final: true,
        });
        t.push(Span {
            kind: SpanKind::Tick,
            sp: 0,
            num: 2,
            den: 2,
            depth: 0,
            start_us: 30,
            dur_us: 18,
            work: 50.0,
            is_final: true,
        });
        let got = serde_json::to_string(&t.chrome_trace()).unwrap();
        let want = concat!(
            "{\"traceEvents\":[",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",",
            "\"args\":{\"name\":\"wavefronts\"}},",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",",
            "\"args\":{\"name\":\"ticks\"}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":30,",
            "\"name\":\"front 0 (1/2)\",\"cat\":\"wavefront\",",
            "\"args\":{\"sp\":0,\"frac\":\"1/2\",\"depth\":0,",
            "\"work\":25.0,\"is_final\":false}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":10,",
            "\"name\":\"sp0 1/2\",\"cat\":\"tick\",",
            "\"args\":{\"sp\":0,\"frac\":\"1/2\",\"depth\":0,",
            "\"work\":10.0,\"is_final\":false}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10,\"dur\":15,",
            "\"name\":\"sp1 1/2\",\"cat\":\"tick\",",
            "\"args\":{\"sp\":1,\"frac\":\"1/2\",\"depth\":0,",
            "\"work\":10.0,\"is_final\":false}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":30,\"dur\":20,",
            "\"name\":\"front 1 (2/2)\",\"cat\":\"wavefront\",",
            "\"args\":{\"sp\":1,\"frac\":\"2/2\",\"depth\":0,",
            "\"work\":50.0,\"is_final\":true}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":30,\"dur\":18,",
            "\"name\":\"sp0 2/2 final\",\"cat\":\"tick\",",
            "\"args\":{\"sp\":0,\"frac\":\"2/2\",\"depth\":0,",
            "\"work\":50.0,\"is_final\":true}}",
            "],\"displayTimeUnit\":\"ms\"}",
        );
        assert_eq!(got, want);

        // And the export survives the compat parser.
        let reparsed = serde_json::from_str(&got).unwrap();
        assert_eq!(reparsed["traceEvents"][2]["ph"], "X");
        assert_eq!(reparsed["traceEvents"][2]["dur"].as_i64(), Some(30));
    }

    #[test]
    fn aux_spans_and_slack_points_extend_the_export() {
        use crate::span::{AuxKind, AuxSpan, SlackPoint};
        use ishare_common::OpKind;

        let mut t = TraceBuffer::new(16);
        t.push(tick(0, 0, 10));
        t.push_aux(AuxSpan {
            kind: AuxKind::Operator(OpKind::Scan),
            sp: 0,
            start_us: 0,
            dur_us: 6,
            work: 7.0,
        });
        t.push_aux(AuxSpan {
            kind: AuxKind::IngestPoll,
            sp: 0,
            start_us: 0,
            dur_us: 2,
            work: 40.0,
        });
        t.push_aux(AuxSpan {
            kind: AuxKind::AdaptSearch,
            sp: 0,
            start_us: 10,
            dur_us: 1,
            work: 0.0,
        });
        t.push_slack(SlackPoint {
            query: 2,
            wavefront: 0,
            ts_us: 11,
            remaining: 90.0,
            consumed: 10.0,
        });
        let doc = t.chrome_trace();
        let events = doc["traceEvents"].as_array().unwrap();
        // Thread-name metadata appears for ingest, adapt, and the ops track.
        let names: Vec<String> = events
            .iter()
            .filter(|e| e["ph"] == "M")
            .map(|e| e["args"]["name"].as_str().unwrap().to_string())
            .collect();
        assert!(names.contains(&"ingest".to_string()), "{names:?}");
        assert!(names.contains(&"adapt".to_string()), "{names:?}");
        assert!(names.contains(&"ops".to_string()), "{names:?}");
        // Operator span rides on the ops track.
        let op = events
            .iter()
            .find(|e| e["cat"] == "operator")
            .unwrap_or_else(|| panic!("no operator event"));
        assert_eq!(op["tid"].as_i64(), Some(OP_TID as i64));
        assert_eq!(op["name"], "sp0 scan");
        // Slack point renders as a counter event with both series.
        let c = events.iter().find(|e| e["ph"] == "C").unwrap();
        assert_eq!(c["name"], "slack q2");
        assert_eq!(c["args"]["remaining"].as_f64(), Some(90.0));
        assert_eq!(c["args"]["consumed"].as_f64(), Some(10.0));

        // An empty aux/slack buffer exports no extra events (byte-stability
        // of the primary format is covered by the golden test above).
        let mut plain = TraceBuffer::new(16);
        plain.push(tick(0, 0, 10));
        let plain_doc = plain.chrome_trace();
        assert!(plain_doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .all(|e| e["ph"] != "C" && e["cat"] != "operator"));
    }
}
