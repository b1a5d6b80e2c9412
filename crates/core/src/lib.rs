//! # ishare-core
//!
//! The paper's contribution: the iShare optimization framework for scheduled
//! queries with heterogeneous latency goals.
//!
//! Given a set of queries with the same trigger condition and per-query
//! *final work constraints* (Sec. 2.1), iShare minimizes *total work* while
//! meeting every constraint by:
//!
//! 1. **Nonuniform paces** ([`pace_search`], Sec. 3) — a greedy search that
//!    starts from batch execution and repeatedly raises the pace of the
//!    subplan with the highest [`mod@incrementability`] (Eq. 1–2), powered by
//!    the memoized cost estimator of `ishare-cost` (Algorithm 1).
//! 2. **Decomposition / un-sharing** ([`decompose`], Sec. 4) — a clustering
//!    algorithm over the *sharing benefit* metric (Eq. 4) that splits a
//!    shared subplan's query set into partitions executed at their own
//!    (lazier) paces, plus the plan regeneration that restores the engine's
//!    query-set subsumption requirement and the pace relaxation that
//!    exploits the slack the split created. Partial decomposition
//!    (Sec. 4.3) splits only a root-anchored subtree.
//! 3. **Full-plan application** ([`decompose::decompose_plan`], Sec. 4.4)
//!    — subplans are visited parents-first and each beneficial
//!    decomposition is adopted.
//! 4. **Online re-optimization** ([`adapt`]) — at wavefront boundaries the
//!    stream drivers feed measured delivery counts back into the cost
//!    stats; when drift crosses a threshold the pace search re-runs on the
//!    refreshed estimator (memo reuse). Final work is charged only at the
//!    trigger, so a mid-run re-plan budgets each query's whole `L(q)`.
//!
//! [`baselines`] plans every comparison system of the evaluation (Sec. 5.2)
//! through one pipeline, [`plan_workload`]: NoShare-Uniform,
//! NoShare-Nonuniform, Share-Uniform, iShare with and without unsharing,
//! the brute-force decomposition variant and OneShot.

#![warn(missing_docs)]

pub mod adapt;
pub mod baselines;
pub mod constraint;
pub mod decompose;
pub mod incrementability;
pub mod pace;
pub mod pace_search;

pub use adapt::{
    AdaptController, AdaptMetrics, AdaptOptions, ObservedTable, PaceSwitch, WavefrontObservation,
};
pub use baselines::{plan_workload, Approach, PlannedExecution, PlanningOptions};
pub use constraint::{resolve_constraints, ConstraintMap, FinalWorkConstraint};
pub use incrementability::{benefit, incrementability};
pub use pace::PaceConfiguration;
pub use pace_search::{find_grouped_paces, find_pace_configuration, relax_pace_configuration};
