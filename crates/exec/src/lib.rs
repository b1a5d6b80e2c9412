//! # ishare-exec
//!
//! The shared incremental execution engine (Sec. 2.3 of the paper): iShare
//! "combines the ideas of SharedDB and prior work in incremental view
//! maintenance to support shared incremental execution of scan, select,
//! project, aggregate, and inner join operators with respect to insert,
//! delete, and update operations."
//!
//! Key mechanics, all implemented here:
//!
//! * **Weighted deltas** — every tuple carries a signed multiset weight
//!   (insert `+1`, delete `-1`; updates are delete+insert). Operators are
//!   closed under this algebra: joins multiply weights, aggregates sum them.
//! * **Query bitvectors** — every tuple carries the SharedDB mask of queries
//!   it is valid for; marking selects clear bits instead of dropping rows,
//!   and rows die only when no query needs them.
//! * **Mask-partitioned aggregate state** — when marking selects upstream
//!   give tuples of one group different masks, the group's state is split
//!   into disjoint mask classes via partition refinement, so each query sees
//!   exactly the aggregate over *its* tuples while the common all-bits case
//!   keeps a single shared accumulator.
//! * **Delete amplification** — an aggregate refresh that changes a group
//!   emits a retraction of the previously output row plus the new row. This
//!   is the eager-execution overhead the whole paper is about (Fig. 1).
//! * **Non-incrementable MIN/MAX** — deleting the current extremum forces a
//!   rescan of the group's value multiset, charged to the work counter at
//!   [`CostWeights::minmax_rescan`] per stored value (the paper's Q15
//!   behaviour).
//!
//! [`SubplanExecutor`] runs one subplan's operator tree over one incremental
//! input batch: built once into a post-order program of operators, it runs
//! each execution as one pass over that program, children before parents —
//! the order work is charged in. The paced driver in `ishare-stream` owns
//! the buffers and calls it repeatedly. [`batch_ref`] provides an independent, naive batch
//! executor used by the test suites to check that incremental execution at
//! *any* pace produces identical final results.
//!
//! The operator implementations come in two interchangeable datapaths
//! ([`ExecMode`]): the default *kernel* datapath ([`join`], [`aggregate`],
//! [`operators`] over [`flat`] state and compiled expressions) and the
//! original interpreter-shaped *reference* datapath ([`mod@reference`]), kept
//! verbatim as a differential oracle. Both produce bit-identical outputs
//! and charged work; only wall-clock differs. There is no columnar
//! datapath (DESIGN.md §15).
//!
//! [`CostWeights::minmax_rescan`]: ishare_common::CostWeights

#![warn(missing_docs)]

pub mod aggregate;
pub mod batch_ref;
pub mod executor;
pub mod flat;
pub mod join;
pub mod operators;
pub mod reference;
pub mod result;

pub use executor::{ExecMode, ExecOptions, SubplanExecutor};
pub use result::{approx_result_eq, fold_result, query_result, QueryResult};
