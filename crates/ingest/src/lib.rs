//! # ishare-ingest
//!
//! The streaming ingest subsystem: an in-process Kafka-analog the paced
//! drivers pull from instead of pre-materialized `Vec` feeds.
//!
//! The paper's prototype continuously loads data through "a Kafka topic per
//! buffer" (Sec. 2.2). This crate rebuilds that boundary in-process while
//! keeping the repo's determinism contract intact:
//!
//! * [`Topic`] — a partitioned append-only log. Each [`Partition`] is a
//!   bounded ring holding [`Record`]s (a row delta stamped with an
//!   *event time*), with absolute offsets, a single registered consumer
//!   cursor, and a low-water *frontier* watermark (every event time below
//!   the frontier has arrived).
//! * Producer-side **backpressure** — a push into a full partition fails
//!   ([`PushError::Full`]); the [`Source`] pump records a *stall tick*,
//!   yields to the consumer so the ring drains, and resumes. High-water
//!   marks and stall counts are exported as `ishare-obs` gauges by the
//!   drivers.
//! * **Out-of-order arrival with watermarks** — [`jitter`] derives a
//!   seeded, bounded-displacement arrival permutation of each feed; the
//!   consumer side holds early records in a reorder buffer and releases a
//!   batch only up to the partition frontiers, so a wavefront's input is
//!   cut at "all rows with event time < target" rather than by arrival
//!   prefix. For any seed the released batches are *identical* to the
//!   in-order feed's prefixes — the drivers stay bit-identical to the
//!   `Vec`-fed path.
//! * **Offset commit + replay** — the drivers commit consumed offsets per
//!   (topic, partition) at every wavefront boundary into a [`CommitLog`]
//!   (JSON-serializable). A killed run resumes by deterministically
//!   replaying the source from the beginning and verifying each replayed
//!   wavefront against the log, reproducing the uninterrupted
//!   run's `RunResult` bit-for-bit.
//! * **Late readers read the topic back** — [`Source::released`] returns
//!   every row released so far, in event-time order: a query admitted
//!   mid-run gets its base history there, so the engine keeps none.

#![warn(missing_docs)]

pub mod commit;
pub mod jitter;
pub mod source;
pub mod topic;

pub use commit::{ChurnKind, ChurnRecord, CommitEntry, CommitLog, TopicCommit};
pub use jitter::jittered_arrivals;
pub use source::{Source, SourceConfig, TopicStats};
pub use topic::{Partition, PushError, Record, Topic};
