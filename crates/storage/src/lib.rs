//! # ishare-storage
//!
//! The storage substrate under iShare's shared incremental execution engine:
//!
//! * [`Schema`]/[`Field`] — positional row schemas.
//! * [`Row`] — an immutable, cheaply-clonable tuple of [`Value`]s.
//! * [`DeltaRow`]/[`DeltaBatch`] — *signed, weighted* tuples annotated with a
//!   query bitvector. Weight `+1` is an insertion, `-1` a deletion, and an
//!   update is a deletion plus an insertion (Sec. 2.3 of the paper).
//! * [`ColumnarBatch`]/[`Column`] — the SoA twin of `DeltaBatch` (one typed
//!   `Vec` per column plus parallel weight/mask vectors). A measurement
//!   surface for the benchmark's conversion and batch-predicate replays; no
//!   exec datapath uses it.
//! * [`DeltaBuffer`] — the materialization buffer at a subplan boundary.
//!   When a subplan's root has two or more parent subplans it materializes
//!   its output so that each parent can consume the intermediate results *at
//!   its own pace*; each parent tracks the offset of the tuples it has
//!   processed (Sec. 2.2). Base-relation delta logs use the same structure.
//! * [`Catalog`]/[`TableDef`]/[`TableStats`] — base relation metadata and the
//!   column statistics the cost model's cardinality estimation consumes.
//!
//! [`Value`]: ishare_common::Value

#![warn(missing_docs)]

pub mod buffer;
pub mod catalog;
pub mod columnar;
pub mod row;
pub mod schema;

pub use buffer::{ConsumerId, DeltaBuffer, Retain};
pub use catalog::{Catalog, ColumnStats, TableDef, TableStats};
pub use columnar::{Column, ColumnarBatch};
pub use row::{consolidate, DeltaBatch, DeltaRow, Row};
pub use schema::{Field, Schema};
