//! The shared multi-query plan DAG produced by an MQO optimizer.
//!
//! A [`SharedDag`] merges several queries' logical plans into one DAG whose
//! nodes are annotated with the bitvector of queries sharing them
//! (Sec. 2.3). Selects become *marking* selects: a shared select carries one
//! predicate branch per query subset, and a tuple failing a branch merely
//! loses that branch's query bits — it is dropped only when no query needs it
//! (the σ* operator of Fig. 2). Projects are merged by unioning their
//! projection expressions.

use crate::agg::AggExpr;
use crate::typing;
use ishare_common::{Error, NodeId, QueryId, QuerySet, Result, TableId};
use ishare_expr::Expr;
use ishare_storage::{Catalog, Schema};
use std::collections::HashMap;
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

/// Restricts `branches` to `queries`: branches not meeting them are dropped
/// and the rest narrowed (the paper's Fig. 6: a split copies every operator
/// except the selects that do not belong to the query set).
pub fn restrict_branches(branches: &mut Vec<SelectBranch>, queries: QuerySet) {
    branches.retain_mut(|b| {
        b.queries = b.queries.intersect(queries);
        !b.queries.is_empty()
    });
}

/// A shared operator in the DAG.
#[derive(Debug, Clone, PartialEq)]
pub enum DagOp {
    /// Scan of a base relation delta log.
    Scan {
        /// The relation.
        table: TableId,
    },
    /// Shared marking select (σ*): per-query-subset predicate branches.
    Select {
        /// Predicate branches; branch query sets are disjoint and their
        /// union must equal the node's query set.
        branches: Vec<SelectBranch>,
    },
    /// Merged projection: union of participating queries' expressions.
    Project {
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Inner equi-join shared by all the node's queries (keys identical).
    Join {
        /// `(left expr, right expr)` key pairs.
        keys: Vec<(Expr, Expr)>,
    },
    /// Group-by aggregate shared by all the node's queries (spec identical).
    Aggregate {
        /// Group keys.
        group_by: Vec<(Expr, String)>,
        /// Aggregate columns.
        aggs: Vec<AggExpr>,
    },
}

impl DagOp {
    /// Short operator label for diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            DagOp::Scan { .. } => "scan",
            DagOp::Select { .. } => "select",
            DagOp::Project { .. } => "project",
            DagOp::Join { .. } => "join",
            DagOp::Aggregate { .. } => "aggregate",
        }
    }

    /// Number of children this operator expects.
    pub fn expected_children(&self) -> usize {
        match self {
            DagOp::Scan { .. } => 0,
            DagOp::Join { .. } => 2,
            _ => 1,
        }
    }
}

/// A node of the shared DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNode {
    /// Node id (index into [`SharedDag::nodes`]).
    pub id: NodeId,
    /// The shared operator.
    pub op: DagOp,
    /// Children in operator order (left, right for joins).
    pub children: Vec<NodeId>,
    /// Queries sharing this operator.
    pub queries: QuerySet,
}

/// A multi-query shared plan DAG.
#[derive(Debug, Clone, Default)]
pub struct SharedDag {
    /// Nodes, indexed by [`NodeId`]. Children always have smaller ids than
    /// parents (the DAG is built bottom-up), which several traversals rely
    /// on.
    pub nodes: Vec<DagNode>,
    /// For each query, the node computing its final result.
    pub query_roots: Vec<(QueryId, NodeId)>,
}

impl SharedDag {
    /// Empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a node; returns its id. Enforces bottom-up construction
    /// (children must already exist).
    pub fn add_node(
        &mut self,
        op: DagOp,
        children: Vec<NodeId>,
        queries: QuerySet,
    ) -> Result<NodeId> {
        let id = NodeId(self.nodes.len() as u32);
        if children.len() != op.expected_children() {
            return Err(Error::InvalidPlan(format!(
                "{} expects {} children, got {}",
                op.label(),
                op.expected_children(),
                children.len()
            )));
        }
        for c in &children {
            if c.0 >= id.0 {
                return Err(Error::InvalidPlan(format!(
                    "node {id} references child {c} not yet defined (DAGs are built bottom-up)"
                )));
            }
        }
        if queries.is_empty() {
            return Err(Error::InvalidPlan(format!("node {id} has an empty query set")));
        }
        self.nodes.push(DagNode { id, op, children, queries });
        Ok(id)
    }

    /// Mark `node` as the root computing query `q`'s result.
    pub fn set_query_root(&mut self, q: QueryId, node: NodeId) -> Result<()> {
        if node.0 as usize >= self.nodes.len() {
            return Err(Error::NotFound(format!("node {node}")));
        }
        if self.query_roots.iter().any(|(qq, _)| *qq == q) {
            return Err(Error::InvalidPlan(format!("query {q} already has a root")));
        }
        self.query_roots.push((q, node));
        Ok(())
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> Result<&DagNode> {
        self.nodes.get(id.0 as usize).ok_or_else(|| Error::NotFound(format!("node {id}")))
    }

    /// The node at tree `path` of the subplan rooted at `root`: tree inputs
    /// are the node's children in [`DagNode::children`] order, which is how
    /// [`SharedPlan::from_dag_with_roots`](crate::SharedPlan::from_dag_with_roots)
    /// builds them. This is the one path → node mapping; churn moves state
    /// by it and decomposition finds the nodes it splits or cuts by it.
    pub fn node_at(&self, root: NodeId, path: &[usize]) -> NodeId {
        path.iter().fold(root, |n, &k| self.nodes[n.0 as usize].children[k])
    }

    /// The DAG edge — (parent node, input index) — that the leaf at tree
    /// `path` of the subplan rooted at `root` reads through. The leaf of a
    /// bare-scan subplan has no parent and is keyed by its scan node.
    pub fn leaf_edge(&self, root: NodeId, path: &[usize]) -> (NodeId, usize) {
        match path.split_last() {
            Some((&k, parent)) => (self.node_at(root, parent), k),
            None => (root, usize::MAX),
        }
    }

    /// All queries participating in the DAG.
    pub fn all_queries(&self) -> QuerySet {
        self.query_roots.iter().fold(QuerySet::EMPTY, |acc, (q, _)| acc.union(QuerySet::single(*q)))
    }

    /// Output schema of every node a query root reaches, each typed by its
    /// operator's rule in [`typing`].
    pub fn schemas(&self, catalog: &Catalog) -> Result<HashMap<NodeId, Schema>> {
        let mut schemas = HashMap::new();
        for (_, root) in &self.query_roots {
            self.type_node(*root, catalog, &mut schemas)?;
        }
        Ok(schemas)
    }

    fn type_node(
        &self,
        id: NodeId,
        catalog: &Catalog,
        schemas: &mut HashMap<NodeId, Schema>,
    ) -> Result<()> {
        if schemas.contains_key(&id) {
            return Ok(());
        }
        let n = self.node(id)?;
        for &c in &n.children {
            self.type_node(c, catalog, schemas)?;
        }
        let input = |k: usize| &schemas[&n.children[k]];
        let schema = match &n.op {
            DagOp::Scan { table } => catalog.table(*table)?.schema.clone(),
            DagOp::Select { branches } => {
                typing::select(input(0).clone(), branches.iter().map(|b| &b.predicate))?
            }
            DagOp::Project { exprs } => typing::project(input(0), exprs)?,
            DagOp::Join { keys } => typing::join(input(0), input(1), keys)?,
            DagOp::Aggregate { group_by, aggs } => typing::aggregate(input(0), group_by, aggs)?,
        };
        schemas.insert(id, schema);
        Ok(())
    }

    /// Structural validation: child query sets subsume parents', select
    /// branches partition the node's query set, query roots exist, and every
    /// node a root reaches is well typed.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        for n in &self.nodes {
            for &c in &n.children {
                let child = self.node(c)?;
                if !n.queries.is_subset_of(child.queries) {
                    return Err(Error::InvalidPlan(format!(
                        "node {} (queries {}) not subsumed by child {} (queries {})",
                        n.id, n.queries, child.id, child.queries
                    )));
                }
            }
            if let DagOp::Select { branches } = &n.op {
                check_branches(format_args!("node {}", n.id), n.queries, branches)?;
            }
        }
        for (q, root) in &self.query_roots {
            if !self.node(*root)?.queries.contains(*q) {
                return Err(Error::InvalidPlan(format!(
                    "query {q} roots at node {root} which does not include it"
                )));
            }
        }
        self.schemas(catalog)?;
        Ok(())
    }
}

impl fmt::Display for SharedDag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for n in &self.nodes {
            write!(f, "{}: {} {} <- [", n.id, n.op.label(), n.queries)?;
            for (i, c) in n.children.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            writeln!(f, "]")?;
        }
        for (q, r) in &self.query_roots {
            writeln!(f, "root({q}) = {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::DataType;
    use ishare_storage::{Field, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Float)]),
            TableStats::unknown(100.0, 2),
        )
        .unwrap();
        c
    }

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    /// Build the Fig. 2-style DAG: scan -> marking select -> per-query roots.
    fn sample_dag(c: &Catalog) -> SharedDag {
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).gt(Expr::lit(5.0)),
                        },
                    ],
                },
                vec![scan],
                qs(&[0, 1]),
            )
            .unwrap();
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(crate::agg::AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![sel],
                qs(&[0, 1]),
            )
            .unwrap();
        let proj0 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(1), "s".into())] },
                vec![agg],
                qs(&[0]),
            )
            .unwrap();
        let proj1 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(0), "k".into())] },
                vec![agg],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), proj0).unwrap();
        d.set_query_root(QueryId(1), proj1).unwrap();
        d
    }

    #[test]
    fn build_and_validate() {
        let c = catalog();
        let d = sample_dag(&c);
        d.validate(&c).unwrap();
        assert_eq!(d.all_queries(), qs(&[0, 1]));
        assert_eq!(d.schemas(&c).unwrap()[&NodeId(2)].arity(), 2);
        assert!(d.to_string().contains("root(q0)"));
    }

    #[test]
    fn bottom_up_enforced() {
        let c = catalog();
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0])).unwrap();
        // Forward reference rejected.
        assert!(d
            .add_node(
                DagOp::Select {
                    branches: vec![SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() }]
                },
                vec![NodeId(5)],
                qs(&[0])
            )
            .is_err());
        // Wrong child count rejected.
        assert!(d.add_node(DagOp::Join { keys: vec![] }, vec![scan], qs(&[0])).is_err());
        // Empty query set rejected.
        assert!(d.add_node(DagOp::Scan { table: t }, vec![], QuerySet::EMPTY).is_err());
    }

    #[test]
    fn validation_catches_subsumption_violation() {
        let c = catalog();
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0])).unwrap();
        // Parent claims q1 which the child does not have.
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![SelectBranch { queries: qs(&[1]), predicate: Expr::true_lit() }],
                },
                vec![scan],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(1), sel).unwrap();
        assert!(d.validate(&c).is_err());
    }

    #[test]
    fn validation_catches_branch_partition_violation() {
        let c = catalog();
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1])).unwrap();
        // Branches only cover q0; node claims q0,q1.
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() }],
                },
                vec![scan],
                qs(&[0, 1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), sel).unwrap();
        d.set_query_root(QueryId(1), sel).unwrap();
        assert!(d.validate(&c).is_err());
    }

    #[test]
    fn duplicate_query_root_rejected() {
        let c = catalog();
        let mut d = sample_dag(&c);
        assert!(d.set_query_root(QueryId(0), NodeId(3)).is_err());
        assert!(d.set_query_root(QueryId(7), NodeId(99)).is_err());
    }
}
