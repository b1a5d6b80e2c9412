//! The operator algebra (Sec. 2.2–2.3): scan, marking select, project,
//! inner equi-join and group-by aggregate, defined once.
//!
//! A shared-DAG node and a subplan-tree node differ only in what a leaf
//! reads — a base table in the DAG ([`DagOp`]), a buffer in a subplan tree
//! ([`TreeOp`]) — so both are one [`Op`] over that leaf type, and each rule
//! that depends on the operator (arity, label, typing, restriction to a
//! query subset) is written once, here.

use crate::agg::AggExpr;
use crate::shared::InputSource;
use crate::typing;
use ishare_common::{Error, QuerySet, Result, TableId};
use ishare_expr::Expr;
use ishare_storage::Schema;
use std::fmt;

/// One predicate branch of a shared (marking) select: the predicate applies
/// to the queries in `queries`. A tuple keeps a branch's bits iff the
/// predicate passes; bits of the node's queries not covered by any branch
/// are kept unconditionally (which never happens for well-formed DAGs — the
/// MQO emits one branch per query, using `TRUE` for unfiltered queries).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectBranch {
    /// Queries this branch filters for.
    pub queries: QuerySet,
    /// The predicate.
    pub predicate: Expr,
}

/// Checks that `branches` are disjoint and cover exactly `queries`, the
/// query set of their `owner` (a DAG node or a subplan, named in the error).
pub(crate) fn check_branches(
    owner: impl fmt::Display,
    queries: QuerySet,
    branches: &[SelectBranch],
) -> Result<()> {
    let mut seen = QuerySet::EMPTY;
    for b in branches {
        if b.queries.intersects(seen) {
            return Err(Error::InvalidPlan(format!(
                "{owner}: select branches overlap on {}",
                b.queries.intersect(seen)
            )));
        }
        seen = seen.union(b.queries);
    }
    if seen != queries {
        return Err(Error::InvalidPlan(format!(
            "{owner}: select branches cover {seen} but its queries are {queries}"
        )));
    }
    Ok(())
}

/// One operator whose leaves read an `L`.
#[derive(Debug, Clone, PartialEq)]
pub enum Op<L> {
    /// Leaf: pull new deltas from `L`. In a subplan tree, rows are narrowed
    /// to the subplan's query set on the way in (the σ_filter of Fig. 2)
    /// and rows whose mask becomes empty are dropped.
    Input(L),
    /// Shared marking select (σ*): per-query-subset predicate branches.
    Select {
        /// Predicate branches; their query sets are disjoint and their
        /// union is the owner's query set.
        branches: Vec<SelectBranch>,
    },
    /// Projection: one output column per expression.
    Project {
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Inner equi-join shared by all the owner's queries (keys identical).
    Join {
        /// `(left expr, right expr)` key pairs.
        keys: Vec<(Expr, Expr)>,
    },
    /// Group-by aggregate shared by all the owner's queries (spec
    /// identical).
    Aggregate {
        /// Group keys.
        group_by: Vec<(Expr, String)>,
        /// Aggregate columns.
        aggs: Vec<AggExpr>,
    },
}

/// A shared-DAG operator: its leaves scan a base relation's delta log.
pub type DagOp = Op<TableId>;

/// A subplan-tree operator: its leaves read a base delta log or another
/// subplan's buffer.
pub type TreeOp = Op<InputSource>;

impl<L> Op<L> {
    /// Short operator label for diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Input(_) => "input",
            Op::Select { .. } => "select",
            Op::Project { .. } => "project",
            Op::Join { .. } => "join",
            Op::Aggregate { .. } => "aggregate",
        }
    }

    /// Number of inputs (DAG children) this operator expects.
    pub fn arity(&self) -> usize {
        match self {
            Op::Input(_) => 0,
            Op::Join { .. } => 2,
            _ => 1,
        }
    }

    /// Restricts the operator to `queries`: select branches not meeting
    /// them are dropped and the rest narrowed (the paper's Fig. 6: a split
    /// copies every operator except the selects that do not belong to the
    /// query set). Every other operator is shared as it is by all the
    /// owner's queries, so it is unchanged.
    pub fn restrict(&mut self, queries: QuerySet) {
        if let Op::Select { branches } = self {
            branches.retain_mut(|b| {
                b.queries = b.queries.intersect(queries);
                !b.queries.is_empty()
            });
        }
    }

    /// The same operator with its leaf mapped through `f`.
    pub fn map_input<M>(self, f: impl FnOnce(L) -> M) -> Op<M> {
        match self {
            Op::Input(l) => Op::Input(f(l)),
            Op::Select { branches } => Op::Select { branches },
            Op::Project { exprs } => Op::Project { exprs },
            Op::Join { keys } => Op::Join { keys },
            Op::Aggregate { group_by, aggs } => Op::Aggregate { group_by, aggs },
        }
    }

    /// Output schema: a leaf's is `leaf`'s, every other operator is typed
    /// by its rule in [`typing`] over `input(k)`, the schema of its `k`-th
    /// input.
    pub fn schema(
        &self,
        mut input: impl FnMut(usize) -> Result<Schema>,
        leaf: impl FnOnce(&L) -> Result<Schema>,
    ) -> Result<Schema> {
        match self {
            Op::Input(l) => leaf(l),
            Op::Select { branches } => {
                typing::select(input(0)?, branches.iter().map(|b| &b.predicate))
            }
            Op::Project { exprs } => typing::project(&input(0)?, exprs),
            Op::Join { keys } => typing::join(&input(0)?, &input(1)?, keys),
            Op::Aggregate { group_by, aggs } => typing::aggregate(&input(0)?, group_by, aggs),
        }
    }
}
