//! The shared multi-query plan DAG produced by an MQO optimizer.
//!
//! A [`SharedDag`] merges several queries' logical plans into one DAG whose
//! nodes are annotated with the bitvector of queries sharing them
//! (Sec. 2.3). Selects become *marking* selects: a shared select carries one
//! predicate branch per query subset, and a tuple failing a branch merely
//! loses that branch's query bits — it is dropped only when no query needs it
//! (the σ* operator of Fig. 2). Every other operator is shared only when it
//! is identical for all the node's queries.

use crate::op::{check_branches, DagOp, Op};
use ishare_common::{Error, NodeId, QueryId, QuerySet, Result};
use ishare_storage::{Catalog, Schema};
use std::collections::HashMap;
use std::fmt;

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
        if children.len() != op.arity() {
            return Err(Error::InvalidPlan(format!(
                "{} expects {} children, got {}",
                op.label(),
                op.arity(),
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

    /// Output schema of every node a query root reaches, each typed by
    /// [`Op::schema`].
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
        let schema = n.op.schema(
            |k| Ok(schemas[&n.children[k]].clone()),
            |t| Ok(catalog.table(*t)?.schema.clone()),
        )?;
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
            if let Op::Select { branches } = &n.op {
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
    use crate::agg::AggExpr;
    use crate::SelectBranch;
    use ishare_common::{DataType, QueryId};
    use ishare_expr::Expr;
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
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0, 1])).unwrap();
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
        assert_eq!(d.schemas(&c).unwrap()[&NodeId(2)].arity(), 2);
        assert!(d.to_string().contains("root(q0)"));
    }

    #[test]
    fn bottom_up_enforced() {
        let c = catalog();
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0])).unwrap();
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
        assert!(d.add_node(DagOp::Input(t), vec![], QuerySet::EMPTY).is_err());
    }

    #[test]
    fn validation_catches_subsumption_violation() {
        let c = catalog();
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0])).unwrap();
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
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0, 1])).unwrap();
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
