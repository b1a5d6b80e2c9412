//! Structured auxiliary spans: the second, finer-grained layer of the span
//! model (DESIGN.md §13).
//!
//! The primary [`Span`](crate::trace::Span)s cover wavefronts and subplan
//! ticks. Aux spans refine them three ways without disturbing the primary
//! tracks (so PR-2-era trace consumers and the per-track non-overlap
//! invariant keep holding):
//!
//! * **Operator spans** subdivide one tick's wall interval proportionally to
//!   the tick's per-[`OpKind`] work breakdown — they live on a dedicated
//!   `ops` track below the tick track, so the operator mix of a slow tick
//!   is visible at a glance.
//! * **Ingest poll spans** cover each per-wavefront cut of the ingest
//!   topics (the `feed` phase the tick tracks never show), on one `ingest`
//!   track; `work` carries the number of delta records delivered.
//! * **Adapt re-search spans** cover each [`AdaptController`] evaluation at
//!   a wavefront boundary on an `adapt` track; `work` is 1.0 when the
//!   evaluation installed a pace switch and 0.0 otherwise.
//!
//! [`SlackPoint`]s are not spans but counter samples: one per query per
//! wavefront boundary, exported as Chrome `ph: "C"` counter events (one
//! `slack q{i}` counter track per query) so remaining slack renders as a
//! stepped area chart above the execution tracks.
//!
//! [`AdaptController`]: ../../ishare_core/adapt/struct.AdaptController.html

use ishare_common::OpKind;

/// Track id carrying ingest poll spans.
pub const INGEST_TID: u64 = 900;
/// Track id carrying adapt re-search spans.
pub const ADAPT_TID: u64 = 901;
/// Track id carrying operator spans.
pub const OP_TID: u64 = 1000;

/// What an auxiliary span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxKind {
    /// Work of one operator kind within one tick.
    Operator(OpKind),
    /// One per-wavefront cut of the ingest topics.
    IngestPoll,
    /// One adapt-controller evaluation at a wavefront boundary.
    AdaptSearch,
}

/// One auxiliary span (see the module docs for the three kinds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuxSpan {
    /// Which kind of span.
    pub kind: AuxKind,
    /// Subplan index (operator spans) or wavefront ordinal (poll/adapt).
    pub sp: u32,
    /// Start offset from the beginning of the run, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Operator spans: work units charged under the kind. Poll spans: delta
    /// records delivered. Adapt spans: 1.0 iff a pace switch was installed.
    pub work: f64,
}

impl AuxSpan {
    /// Chrome track id for this span.
    pub fn tid(&self) -> u64 {
        match self.kind {
            AuxKind::Operator(_) => OP_TID,
            AuxKind::IngestPoll => INGEST_TID,
            AuxKind::AdaptSearch => ADAPT_TID,
        }
    }

    /// Chrome `cat` field.
    pub fn cat(&self) -> &'static str {
        match self.kind {
            AuxKind::Operator(_) => "operator",
            AuxKind::IngestPoll => "ingest",
            AuxKind::AdaptSearch => "adapt",
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self.kind {
            AuxKind::Operator(k) => format!("sp{} {}", self.sp, k.label()),
            AuxKind::IngestPoll => format!("poll front {}", self.sp),
            AuxKind::AdaptSearch => {
                if self.work > 0.0 {
                    format!("re-search front {} (switched)", self.sp)
                } else {
                    format!("evaluate front {}", self.sp)
                }
            }
        }
    }
}

/// One per-query slack sample at a wavefront boundary, exported as a Chrome
/// counter event on the query's `slack q{i}` counter track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackPoint {
    /// Query index (`QueryId.0`).
    pub query: u16,
    /// Wavefront ordinal the sample was taken after.
    pub wavefront: u32,
    /// Sample timestamp (end of the wavefront), microseconds from run start.
    pub ts_us: u64,
    /// Remaining slack: `max(0, L(q) − consumed)`, work units.
    pub remaining: f64,
    /// Final work charged against the budget so far, work units.
    pub consumed: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aux_span_tracks_and_names() {
        let op = AuxSpan {
            kind: AuxKind::Operator(OpKind::Scan),
            sp: 3,
            start_us: 0,
            dur_us: 5,
            work: 10.0,
        };
        assert_eq!(op.tid(), OP_TID);
        assert_eq!(op.cat(), "operator");
        assert_eq!(op.name(), "sp3 scan");

        let poll = AuxSpan { kind: AuxKind::IngestPoll, sp: 1, start_us: 0, dur_us: 2, work: 40.0 };
        assert_eq!(poll.tid(), INGEST_TID);
        assert_eq!(poll.name(), "poll front 1");

        let adapt =
            AuxSpan { kind: AuxKind::AdaptSearch, sp: 2, start_us: 9, dur_us: 1, work: 1.0 };
        assert_eq!(adapt.tid(), ADAPT_TID);
        assert_eq!(adapt.name(), "re-search front 2 (switched)");
    }
}
