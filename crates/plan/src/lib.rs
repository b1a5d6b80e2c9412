//! # ishare-plan
//!
//! Query plan representations, from single-query logical plans to the shared
//! subplan DAGs iShare optimizes:
//!
//! * [`LogicalPlan`] — one query's operator tree over the supported algebra
//!   (scan, select, project, group-by aggregate, inner equi-join; Sec. 2.3 of
//!   the paper), plus [`builder::PlanBuilder`] for ergonomic, name-resolved
//!   construction.
//! * [`SharedDag`] — the merged multi-query DAG an MQO optimizer produces:
//!   nodes annotated with query bitvectors, *marking* selects carrying one
//!   predicate branch per query subset, and merged projects.
//! * [`SharedPlan`] / [`Subplan`] — the DAG broken into subplans at operators
//!   with more than one parent (Sec. 2.2). Subplans are the granularity at
//!   which iShare assigns execution paces and decides what to un-share; the
//!   boundaries between them are materialization buffers.
//! * [`typing`] — the one typing rule per operator that every one of these
//!   representations is checked with.

#![warn(missing_docs)]

pub mod agg;
pub mod builder;
pub mod dag;
pub mod logical;
pub mod shared;
pub mod typing;

pub use agg::{AggExpr, AggFunc};
pub use builder::PlanBuilder;
pub use dag::{restrict_branches, DagNode, DagOp, SelectBranch, SharedDag};
pub use logical::LogicalPlan;
pub use shared::{InputSource, OpTree, SharedPlan, Subplan, TreeOp};
