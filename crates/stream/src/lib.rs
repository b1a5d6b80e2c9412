//! # ishare-stream
//!
//! The paced runtime: the piece of the paper's prototype that Spark + Kafka
//! provided, rebuilt in-process (see DESIGN.md §1 for the substitution
//! rationale).
//!
//! A workload run consists of
//!
//! * base relations whose rows *arrive* uniformly over one trigger
//!   condition (the paper preloads Kafka and pulls at a fixed rate —
//!   "we assume a fixed data arrival rate"),
//! * a [`SharedPlan`] whose subplans execute at their configured paces — a
//!   subplan at pace `k` starts one incremental execution whenever `1/k` of
//!   the trigger's data has arrived, children before parents on shared
//!   ticks, and
//! * measurement: measured *total work* (Σ work of all incremental
//!   executions), per-query *final work* (Σ work of the query's subplans'
//!   final executions — the latency proxy of Sec. 2.1), wall-clock
//!   equivalents, and the final query results.
//!
//! Every run goes through one wavefront loop ([`driver`]): poll the source
//! to the front's arrival fraction, run the front's ticks on the calling
//! thread in global schedule order, compact, then churn → commit/verify →
//! stop → adapt at the boundary. The loop has no worker pool; DESIGN.md
//! §12 gives the measurements that retired it.
//!
//! Input is pulled from an [`ishare_ingest::Source`] — an in-process
//! Kafka-analog with partitioned bounded topics, producer backpressure,
//! out-of-order arrival under event-time watermarks, and offset-commit /
//! replay ([`execute_from_source_obs`]). The `Vec`-feed conveniences
//! ([`execute_planned`], [`execute_planned_deltas`],
//! [`execute_planned_deltas_with`]) are thin adapters over an in-order
//! source, so there is exactly one feed path, and source-fed runs (jittered
//! or not, killed-and-resumed or not) stay bit-identical to the `Vec`-fed
//! ones.
//!
//! Two optional boundary steps extend a run. It can adapt
//! ([`execute_adaptive_from_source_obs`]): an
//! [`ishare_core::adapt::AdaptController`] watches measured delivery
//! tallies at every wavefront boundary and, when the live stream drifts
//! from the catalog statistics the paces were planned against, re-runs the
//! pace search and installs the new configuration for the remaining
//! wavefronts. And its query set can churn ([`execute_churn_from_source`],
//! see [`admission`]): queries are admitted and removed at boundaries with
//! incremental re-sharing and state hand-off. Both are deterministic, so
//! such runs replay bit-identically too.
//!
//! [`SharedPlan`]: ishare_plan::SharedPlan

#![warn(missing_docs)]

pub mod admission;
pub mod driver;
mod engine;
mod fold;
pub mod measure;
pub mod schedule;

pub use admission::{
    execute_churn_from_source, ChurnEvent, ChurnOp, ChurnOptions, ChurnOutcome, ChurnRunResult,
    ChurnScript,
};
pub use driver::{
    execute_adaptive_from_source_obs, execute_from_source_obs, execute_from_source_parallel_obs,
    execute_planned, execute_planned_deltas, execute_planned_deltas_with, insert_feeds, RunResult,
    SourceOptions, SourceOutcome,
};
pub use ishare_exec::{ExecMode, ExecOptions};
pub use ishare_ingest::{ChurnKind, ChurnRecord, CommitLog, Source, SourceConfig};
pub use ishare_obs::{
    AuxKind, AuxSpan, ExecCounts, ObsConfig, ObsReport, QuerySlack, SlackLedger, SlackPoint,
    SlackSample,
};
pub use measure::{missed_latency_stats, MissedLatencyStats};
