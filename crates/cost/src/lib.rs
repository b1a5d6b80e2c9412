//! # ishare-cost
//!
//! iShare's cost model: everything the optimizer needs to know about a pace
//! configuration *without executing it*.
//!
//! * [`stats`] — [`CardVec`] (total + per-query cardinalities, the paper's
//!   Fig. 7 input-cardinality vectors) and [`StreamEstimate`]
//!   (cardinalities + retraction fraction + column statistics for one
//!   inter-subplan stream).
//! * [`selectivity`] — heuristic predicate selectivity over column
//!   statistics.
//! * [`simulate`] — per-subplan pace simulation: given full-trigger input
//!   estimates and a pace `k`, simulate `k` incremental executions, mirroring
//!   the engine's work charges (including aggregate retract+insert churn and
//!   MIN/MAX rescans), and produce the subplan's *private total work*,
//!   *private final work* and output stream estimate. A subplan is compiled
//!   once into a flat program over dense query slots; estimates are
//!   reproducible to the bit, which the pace searches' exact tie-breaks rely
//!   on.
//! * [`estimator`] — the whole-plan estimator with the **memoization
//!   algorithm** of Sec. 3.2 (Algorithm 1): each subplan memoizes
//!   `(private total work, private final work, output estimate)` keyed by its
//!   *private pace configuration* (its own pace plus its descendants'), so
//!   the greedy pace search — which evaluates thousands of configurations
//!   differing in a single subplan's pace — only re-simulates the changed
//!   subplan and its ancestors. [`PlanEstimator::estimate_unmemoized`]
//!   recomputes everything from scratch, reproducing the prior work the
//!   paper compares against in Fig. 15.
//!
//! Estimated and measured work share the same [`CostWeights`] so they are
//! directly comparable; the cross-crate tests assert the estimator tracks
//! the engine's counters on real executions.
//!
//! [`CostWeights`]: ishare_common::CostWeights
//! [`PlanEstimator::estimate_unmemoized`]: estimator::PlanEstimator::estimate_unmemoized

#![warn(missing_docs)]

pub mod estimator;
pub mod selectivity;
pub mod simulate;
pub mod stats;

pub use estimator::{CostReport, EstimatorCounters, LeafInputs, ObservedBase, PlanEstimator};
pub use simulate::SubplanSim;
pub use stats::{CardVec, StreamEstimate};
