//! Bounded in-memory span trace, exportable as Chrome `trace_event` JSON
//! (loadable in `chrome://tracing` and Perfetto).
//!
//! One [`Span`] type covers every timed interval of a run: ticks,
//! wavefronts, the operator subdivision of each tick, ingest polls and
//! adapt re-searches. Each kind rides on its own track (`tid`), so the
//! per-track non-overlap invariant holds by construction: ticks run one at
//! a time, operator spans subdivide their tick, and polls, wavefronts and
//! adapt evaluations follow one another at the boundary.
//!
//! [`SlackPoint`]s are not spans but counter samples: one per budgeted
//! query per wavefront boundary, exported as Chrome `ph: "C"` counter
//! events (one `charged q{i}` counter track per query) so the work charged
//! to each query renders as a rising staircase above the execution tracks.
//!
//! Timestamps are microsecond offsets from the start of the run.

use ishare_common::OpKind;
use serde_json::{json, Value};

/// Track id carrying wavefront spans.
pub const WAVEFRONT_TID: u64 = 0;
/// Track id carrying tick spans.
pub const TICK_TID: u64 = 1;
/// Track id carrying ingest poll spans.
pub const INGEST_TID: u64 = 900;
/// Track id carrying adapt re-search spans.
pub const ADAPT_TID: u64 = 901;
/// Track id carrying operator spans.
pub const OP_TID: u64 = 1000;

/// Every track, in the order its `thread_name` metadata event is emitted.
const TRACKS: [(u64, &str); 5] = [
    (WAVEFRONT_TID, "wavefronts"),
    (TICK_TID, "ticks"),
    (INGEST_TID, "ingest"),
    (ADAPT_TID, "adapt"),
    (OP_TID, "ops"),
];

/// What a [`Span`] covers, with the fields only that kind carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One subplan execution at arrival fraction `num/den`; `sp` is the
    /// subplan index.
    Tick {
        /// Arrival-fraction numerator.
        num: u32,
        /// Arrival-fraction denominator.
        den: u32,
        /// Dependency depth of the subplan (`SharedPlan::depths`).
        depth: u32,
        /// `true` iff this is the subplan's final (fraction 1) execution.
        is_final: bool,
    },
    /// One wavefront: every tick sharing the arrival fraction `num/den`;
    /// `sp` is the wavefront ordinal.
    Wavefront {
        /// Arrival-fraction numerator.
        num: u32,
        /// Arrival-fraction denominator.
        den: u32,
        /// `true` iff the wavefront ran a final execution.
        is_final: bool,
    },
    /// The work of one operator kind within one tick: the tick's wall
    /// interval subdivided in proportion to its per-kind work; `sp` is the
    /// subplan index.
    Operator(OpKind),
    /// One per-wavefront cut of the ingest topics; `sp` is the wavefront
    /// ordinal and `work` the number of delta records delivered.
    IngestPoll,
    /// One adapt-controller evaluation at a wavefront boundary; `sp` is the
    /// wavefront ordinal and `work` is 1.0 iff it installed a pace switch.
    AdaptSearch,
}

/// One recorded span (see [`SpanKind`] for what `sp` and `work` mean).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// Subplan index or wavefront ordinal, by kind.
    pub sp: u32,
    /// Start offset from the beginning of the run, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Work units charged during the span, or the kind's count.
    pub work: f64,
}

impl Span {
    /// Chrome track id.
    pub fn tid(&self) -> u64 {
        match self.kind {
            SpanKind::Tick { .. } => TICK_TID,
            SpanKind::Wavefront { .. } => WAVEFRONT_TID,
            SpanKind::Operator(_) => OP_TID,
            SpanKind::IngestPoll => INGEST_TID,
            SpanKind::AdaptSearch => ADAPT_TID,
        }
    }

    /// Chrome `cat` field.
    pub fn cat(&self) -> &'static str {
        match self.kind {
            SpanKind::Tick { .. } => "tick",
            SpanKind::Wavefront { .. } => "wavefront",
            SpanKind::Operator(_) => "operator",
            SpanKind::IngestPoll => "ingest",
            SpanKind::AdaptSearch => "adapt",
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        let sp = self.sp;
        match self.kind {
            SpanKind::Tick { num, den, is_final, .. } => {
                let suffix = if is_final { " final" } else { "" };
                format!("sp{sp} {num}/{den}{suffix}")
            }
            SpanKind::Wavefront { num, den, .. } => format!("front {sp} ({num}/{den})"),
            SpanKind::Operator(k) => format!("sp{sp} {}", k.label()),
            SpanKind::IngestPoll => format!("poll front {sp}"),
            SpanKind::AdaptSearch if self.work > 0.0 => format!("re-search front {sp} (switched)"),
            SpanKind::AdaptSearch => format!("evaluate front {sp}"),
        }
    }

    /// Chrome `args` object.
    fn args(&self) -> Value {
        let (sp, work) = (self.sp, self.work);
        match self.kind {
            SpanKind::Tick { num, den, depth, is_final } => json!({
                "sp": sp, "frac": format!("{num}/{den}"), "depth": depth,
                "work": work, "is_final": is_final,
            }),
            SpanKind::Wavefront { num, den, is_final } => json!({
                "sp": sp, "frac": format!("{num}/{den}"), "depth": 0,
                "work": work, "is_final": is_final,
            }),
            SpanKind::Operator(_) | SpanKind::IngestPoll | SpanKind::AdaptSearch => {
                json!({ "sp": sp, "work": work })
            }
        }
    }
}

/// One budgeted query's sample at a wavefront boundary, exported as a
/// Chrome counter event on the query's `charged q{i}` counter track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackPoint {
    /// Query index (`QueryId.0`).
    pub query: u16,
    /// Wavefront ordinal the sample was taken after.
    pub wavefront: u32,
    /// Sample timestamp (end of the wavefront), microseconds from run start.
    pub ts_us: u64,
    /// Cumulative work charged to the query's subplans (incremental +
    /// final), work units.
    pub charged: f64,
}

/// A bounded append-only trace: spans and slack samples share one
/// capacity. When it is full, further records are counted in
/// [`dropped`](TraceBuffer::dropped) but not stored, so a long run cannot
/// grow the trace without bound.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBuffer {
    spans: Vec<Span>,
    slack: Vec<SlackPoint>,
    capacity: usize,
    dropped: usize,
}

impl TraceBuffer {
    /// Default capacity: enough for every span of any bench workload while
    /// bounding worst-case memory to a few MiB.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Empty buffer holding at most `capacity` spans and slack samples.
    pub fn new(capacity: usize) -> Self {
        Self { spans: Vec::new(), slack: Vec::new(), capacity, dropped: 0 }
    }

    /// `true` iff one more record fits; otherwise counts it as dropped.
    fn admit(&mut self) -> bool {
        let fits = self.spans.len() + self.slack.len() < self.capacity;
        self.dropped += usize::from(!fits);
        fits
    }

    /// Record a span, dropping it (counted) if the buffer is full.
    pub fn push(&mut self, span: Span) {
        if self.admit() {
            self.spans.push(span);
        }
    }

    /// Record a per-query slack sample, dropping it (counted) if the buffer
    /// is full.
    pub fn push_slack(&mut self, point: SlackPoint) {
        if self.admit() {
            self.slack.push(point);
        }
    }

    /// Recorded spans, in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded slack samples, in insertion order.
    pub fn slack_points(&self) -> &[SlackPoint] {
        &self.slack
    }

    /// Number of spans and slack samples that did not fit.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Export as a Chrome `trace_event` JSON document:
    /// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
    ///
    /// A `thread_name` metadata event names each track that carries a span
    /// (wavefronts, ticks, ingest, adapt, ops, in that order). Every span
    /// then becomes a complete (`"ph": "X"`) event with `ts`/`dur` in
    /// microseconds, in insertion order, and slack samples render last as
    /// counter (`"ph": "C"`) events, one `charged q{i}` counter per query
    /// with a `charged` series.
    pub fn chrome_trace(&self) -> Value {
        let mut events: Vec<Value> = Vec::with_capacity(self.spans.len() + self.slack.len() + 5);
        for (tid, name) in TRACKS {
            if self.spans.iter().any(|s| s.tid() == tid) {
                events.push(json!({
                    "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                    "args": { "name": name },
                }));
            }
        }
        for s in &self.spans {
            events.push(json!({
                "ph": "X",
                "pid": 1,
                "tid": s.tid(),
                "ts": s.start_us,
                "dur": s.dur_us,
                "name": s.name(),
                "cat": s.cat(),
                "args": s.args(),
            }));
        }
        for p in &self.slack {
            events.push(json!({
                "ph": "C",
                "pid": 1,
                "ts": p.ts_us,
                "name": format!("charged q{}", p.query),
                "cat": "slo",
                "args": { "charged": p.charged },
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

    fn span(kind: SpanKind, sp: u32, start_us: u64, dur_us: u64, work: f64) -> Span {
        Span { kind, sp, start_us, dur_us, work }
    }

    fn tick(sp: u32, start_us: u64, dur_us: u64) -> Span {
        let kind = SpanKind::Tick { num: 1, den: 2, depth: 0, is_final: false };
        span(kind, sp, start_us, dur_us, 10.0)
    }

    fn slack_point(ts_us: u64) -> SlackPoint {
        SlackPoint { query: 2, wavefront: 0, ts_us, charged: 10.0 }
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
    fn spans_and_slack_points_share_one_capacity() {
        let mut t = TraceBuffer::new(3);
        t.push(tick(0, 0, 5));
        t.push_slack(slack_point(5));
        t.push(span(SpanKind::IngestPoll, 1, 5, 1, 4.0));
        t.push(tick(1, 6, 5));
        t.push_slack(slack_point(11));
        assert_eq!((t.spans().len(), t.slack_points().len(), t.dropped()), (2, 1, 2));
    }

    #[test]
    fn span_tracks_and_names() {
        let op = span(SpanKind::Operator(OpKind::Scan), 3, 0, 5, 10.0);
        assert_eq!((op.tid(), op.cat(), op.name().as_str()), (OP_TID, "operator", "sp3 scan"));
        let poll = span(SpanKind::IngestPoll, 1, 0, 2, 40.0);
        assert_eq!((poll.tid(), poll.name().as_str()), (INGEST_TID, "poll front 1"));
        let switched = span(SpanKind::AdaptSearch, 2, 9, 1, 1.0);
        assert_eq!(switched.tid(), ADAPT_TID);
        assert_eq!(switched.name(), "re-search front 2 (switched)");
        assert_eq!(span(SpanKind::AdaptSearch, 2, 9, 1, 0.0).name(), "evaluate front 2");
    }

    #[test]
    fn golden_chrome_trace_for_two_subplan_run() {
        // A tiny 2-subplan run: two wavefronts. Spans are built
        // by hand (real drivers stamp wall-clock durations, which are not
        // reproducible) so the exported JSON is byte-stable.
        let mut t = TraceBuffer::new(16);
        let front = |num, is_final| SpanKind::Wavefront { num, den: 2, is_final };
        t.push(span(front(1, false), 0, 0, 30, 25.0));
        t.push(tick(0, 0, 10));
        t.push(tick(1, 10, 15));
        t.push(span(front(2, true), 1, 30, 20, 50.0));
        let last = SpanKind::Tick { num: 2, den: 2, depth: 0, is_final: true };
        t.push(span(last, 0, 30, 18, 50.0));
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
    fn operator_poll_adapt_spans_and_slack_points_extend_the_export() {
        let mut t = TraceBuffer::new(16);
        t.push(span(SpanKind::IngestPoll, 0, 0, 2, 40.0));
        t.push(tick(0, 2, 10));
        t.push(span(SpanKind::Operator(OpKind::Scan), 0, 2, 6, 7.0));
        t.push(span(SpanKind::AdaptSearch, 0, 12, 1, 0.0));
        t.push_slack(slack_point(12));
        let doc = t.chrome_trace();
        let events = doc["traceEvents"].as_array().unwrap();
        // Thread-name metadata comes first, in fixed track order.
        let names: Vec<&str> = events
            .iter()
            .take_while(|e| e["ph"] == "M")
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, ["ticks", "ingest", "adapt", "ops"]);
        // Spans follow in insertion order, each on its kind's track.
        let spans: Vec<(&str, Option<i64>)> = events
            .iter()
            .filter(|e| e["ph"] == "X")
            .map(|e| (e["cat"].as_str().unwrap(), e["tid"].as_i64()))
            .collect();
        assert_eq!(
            spans,
            [
                ("ingest", Some(INGEST_TID as i64)),
                ("tick", Some(TICK_TID as i64)),
                ("operator", Some(OP_TID as i64)),
                ("adapt", Some(ADAPT_TID as i64)),
            ]
        );
        let op = events.iter().find(|e| e["cat"] == "operator").unwrap();
        assert_eq!(op["name"], "sp0 scan");
        assert_eq!(op["args"]["work"].as_f64(), Some(7.0));
        // The slack point renders last, as a counter event.
        let c = events.last().unwrap();
        assert_eq!((c["ph"].as_str(), c["name"].as_str()), (Some("C"), Some("charged q2")));
        assert_eq!(c["args"]["charged"].as_f64(), Some(10.0));
    }
}
