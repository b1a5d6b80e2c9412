//! # ishare-obs
//!
//! Zero-dependency observability for the iShare engine: a metrics registry
//! ([`MetricsRegistry`]) with Prometheus text exposition ([`prometheus_text`]),
//! a bounded trace of one [`Span`] type — tick, wavefront, operator, ingest
//! poll and adapt search — plus per-query charged-work counter samples,
//! with Chrome `trace_event` export ([`TraceBuffer`]), the per-query slack
//! ledger ([`SlackLedger`]), and the per-run bundle the drivers hand back
//! ([`ObsReport`]).
//!
//! ## Design constraints
//!
//! Instrumentation is **opt-in** (drivers take an `Option<ObsConfig>`) and
//! **passive**: recording only *reads* the engine's [`WorkCounter`]s and the
//! wall clock, never charges work or takes locks on the execution path, so a
//! run with observability enabled produces bit-identical work numbers to one
//! without — the obs axis of the differential lattice (`tests/lattice.rs`)
//! asserts exactly that. The one caveat is float association: the flat `total_work`
//! accumulates in charge order while the breakdown regroups the same terms
//! by operator kind, so the two agree to ~1e-12 relative, not bitwise; the
//! test suites assert agreement at 1e-6.
//!
//! [`WorkCounter`]: ishare_common::WorkCounter

#![warn(missing_docs)]

pub mod metrics;
pub mod prom;
pub mod report;
pub mod slack;
pub mod trace;

pub use metrics::{Histogram, MetricsRegistry, DEFAULT_BUCKETS};
pub use prom::{prom_name, prometheus_text};
pub use report::{ExecCounts, ObsConfig, ObsReport};
pub use slack::{QuerySlack, SlackLedger};
pub use trace::{
    SlackPoint, Span, SpanKind, TraceBuffer, ADAPT_TID, INGEST_TID, OP_TID, WAVEFRONT_TID,
};
