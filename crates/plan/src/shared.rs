//! Shared plans: the DAG broken into subplans.
//!
//! "A subplan in iShare represents a subtree of operators that are shared by
//! the same set of queries. We break the shared plan into subplans at the
//! operators that have more than one parent operator. … When the root
//! operator of one subplan has two or more parent operators, it materializes
//! its output into a buffer … we treat all base relations or delta logs as
//! buffers as well." (Sec. 2.2)
//!
//! [`SharedPlan::from_dag`] performs exactly that split, with one extra: bare
//! scan (`Input`) nodes are never turned into subplans of their own — base
//! relations are already buffers, so each consumer reads the base delta log
//! directly at its own pace. [`SharedPlan::from_dag_with_roots`] adds the forced cuts that
//! decomposition, churn and the NoShare-Nonuniform baseline (which cuts at
//! every aggregate) use.

use crate::dag::{DagNode, SharedDag};
use crate::op::{check_branches, Op, TreeOp};
use ishare_common::{Error, NodeId, QueryId, QuerySet, Result, SubplanId, TableId};
use ishare_storage::{Catalog, Schema};
use std::collections::HashMap;
use std::fmt;

/// Where a subplan leaf reads its input deltas from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSource {
    /// A base relation's delta log.
    Base(TableId),
    /// Another subplan's materialization buffer.
    Subplan(SubplanId),
}

/// A node of a subplan's operator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTree {
    /// The operator.
    pub op: TreeOp,
    /// Operator inputs (empty for leaves; `[left, right]` for joins).
    pub inputs: Vec<OpTree>,
}

/// One operator of an [`OpTree::post_order`] walk.
#[derive(Debug, Clone, Copy)]
pub struct PostOrderStep<'t, 'p> {
    /// The operator's node.
    pub node: &'t OpTree,
    /// Its tree path: child indices from the root (empty at the root).
    /// [`SharedDag::node_at`] maps it to the operator's DAG node.
    pub path: &'p [usize],
    /// The step indices of its inputs, left to right; as many as
    /// [`Op::arity`].
    pub inputs: &'p [usize],
}

impl OpTree {
    /// Leaf reading from `src`.
    pub fn input(src: InputSource) -> OpTree {
        OpTree { op: TreeOp::Input(src), inputs: vec![] }
    }

    /// Internal node.
    pub fn node(op: TreeOp, inputs: Vec<OpTree>) -> OpTree {
        OpTree { op, inputs }
    }

    /// Number of operators in the tree.
    pub fn operator_count(&self) -> usize {
        1 + self.inputs.iter().map(|i| i.operator_count()).sum::<usize>()
    }

    /// Subplan buffers this tree reads from (with duplicates).
    pub fn referenced_subplans(&self) -> Vec<SubplanId> {
        let mut out = Vec::new();
        self.visit(&mut |t| {
            if let Op::Input(InputSource::Subplan(id)) = t.op {
                out.push(id);
            }
        });
        out
    }

    /// Base tables this tree reads from (with duplicates).
    pub fn referenced_tables(&self) -> Vec<TableId> {
        let mut out = Vec::new();
        self.visit(&mut |t| {
            if let Op::Input(InputSource::Base(id)) = t.op {
                out.push(id);
            }
        });
        out
    }

    /// Pre-order visit.
    pub fn visit(&self, f: &mut impl FnMut(&OpTree)) {
        f(self);
        for i in &self.inputs {
            i.visit(f);
        }
    }

    /// Walk the tree in post-order (children before parents, left before
    /// right, the root last), calling `visit` once per node, leaves
    /// included. A step's index is the number of steps before it, so a
    /// program that pushes one entry per step finds each input at its
    /// index. Each operator's arity ([`Op::arity`]) is checked
    /// before the walk descends into it, so a malformed tree reports its
    /// outermost fault as [`Error::InvalidPlan`]. The walk allocates only
    /// its path buffer.
    pub fn post_order<'t>(
        &'t self,
        mut visit: impl FnMut(PostOrderStep<'t, '_>) -> Result<()>,
    ) -> Result<()> {
        fn walk<'t>(
            t: &'t OpTree,
            path: &mut Vec<usize>,
            next: &mut usize,
            visit: &mut impl FnMut(PostOrderStep<'t, '_>) -> Result<()>,
        ) -> Result<usize> {
            let expected = t.op.arity();
            if t.inputs.len() != expected {
                return Err(Error::InvalidPlan(format!(
                    "{} at path {path:?} has {} inputs, expects {expected}",
                    t.op.label(),
                    t.inputs.len(),
                )));
            }
            let mut inputs = [0; 2];
            for (i, child) in t.inputs.iter().enumerate() {
                path.push(i);
                inputs[i] = walk(child, path, next, visit)?;
                path.pop();
            }
            visit(PostOrderStep { node: t, path, inputs: &inputs[..expected] })?;
            *next += 1;
            Ok(*next - 1)
        }
        walk(self, &mut Vec::new(), &mut 0, &mut visit).map(|_| ())
    }

    /// Output schema of this tree, given the catalog and the schemas of
    /// referenced child subplans; each operator is typed by [`Op::schema`].
    pub fn schema(
        &self,
        catalog: &Catalog,
        subplan_schemas: &HashMap<SubplanId, Schema>,
    ) -> Result<Schema> {
        self.op.schema(
            |k| self.inputs[k].schema(catalog, subplan_schemas),
            |src| match src {
                InputSource::Base(t) => Ok(catalog.table(*t)?.schema.clone()),
                InputSource::Subplan(id) => subplan_schemas
                    .get(id)
                    .cloned()
                    .ok_or_else(|| Error::NotFound(format!("schema of subplan {id}"))),
            },
        )
    }
}

/// One subplan: an operator tree executed as a unit at one pace, reading
/// from buffers and materializing into its own buffer (or emitting final
/// query results).
#[derive(Debug, Clone, PartialEq)]
pub struct Subplan {
    /// Index into [`SharedPlan::subplans`].
    pub id: SubplanId,
    /// The operator tree.
    pub root: OpTree,
    /// Queries sharing this subplan.
    pub queries: QuerySet,
    /// Queries for which this subplan's output *is* the final query result.
    pub output_queries: QuerySet,
}

impl Subplan {
    /// Child subplans read by this subplan (deduplicated, in first-reference
    /// order).
    pub fn children(&self) -> Vec<SubplanId> {
        let mut seen = Vec::new();
        for id in self.root.referenced_subplans() {
            if !seen.contains(&id) {
                seen.push(id);
            }
        }
        seen
    }

    /// Restrict the subplan to a subset of its queries: select branches not
    /// intersecting the subset are dropped (the paper's Fig. 6: the split
    /// copies all operators except the selects that do not belong to the
    /// query set), and all query sets are intersected with the subset.
    ///
    /// Projections are copied unchanged — they already contain the union of
    /// attributes any ancestor needs.
    pub fn restrict(&self, subset: QuerySet) -> Result<Subplan> {
        let queries = self.queries.intersect(subset);
        if queries.is_empty() {
            return Err(Error::InvalidPlan(format!(
                "restricting subplan {} (queries {}) to disjoint set {}",
                self.id, self.queries, subset
            )));
        }
        let mut root = self.root.clone();
        let mut stack = vec![&mut root];
        while let Some(t) = stack.pop() {
            t.op.restrict(queries);
            stack.extend(&mut t.inputs);
        }
        Ok(Subplan {
            id: self.id,
            root,
            queries,
            output_queries: self.output_queries.intersect(subset),
        })
    }
}

/// A shared plan: subplans wired together through buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SharedPlan {
    /// Subplans, indexed by [`SubplanId`].
    pub subplans: Vec<Subplan>,
}

impl SharedPlan {
    /// Break a shared DAG into subplans: cut at query roots and at nodes with
    /// more than one parent.
    pub fn from_dag(dag: &SharedDag) -> Result<SharedPlan> {
        Self::from_dag_with_roots(dag, |_| false, &[]).map(|(plan, _)| plan)
    }

    /// [`from_dag`](Self::from_dag), generalized for live query churn and
    /// decomposition.
    ///
    /// Also returns, per subplan, the DAG node its root came from — the
    /// stable identity the stream layer uses to match subplans across churn
    /// events (subplan ids are re-dealt on every re-split; node ids never
    /// move).
    ///
    /// Two extensions over the plain split:
    ///
    /// * **Tombstones** — nodes with an empty query set (left behind by
    ///   `ishare_mqo::IncrementalSharer::remove`) are skipped entirely:
    ///   they produce no subplan, contribute no parent edges, and are never
    ///   reached from a live root (a live node's children are live, because
    ///   every parent's query set is a subset of its child's).
    /// * **Forced cuts** — `forced_cuts` lists nodes that must become
    ///   subplan roots even when single-parent. The stream layer forces a
    ///   cut at every *previous* subplan root so re-splitting after churn
    ///   never fuses subplans whose operator state and buffers already
    ///   exist, and at each admission's attachment frontier so a new
    ///   query's private cone taps a materialized buffer rather than
    ///   duplicating shared operators. Scans ignore forced cuts (base
    ///   relations are already buffers), matching the standard rule.
    ///
    /// `extra_cut` is a predicate form of `forced_cuts`. Every caller passes
    /// `|_| false`; the parameter stays only because the benchmark pins this
    /// signature.
    pub fn from_dag_with_roots(
        dag: &SharedDag,
        extra_cut: impl Fn(&DagNode) -> bool,
        forced_cuts: &[NodeId],
    ) -> Result<(SharedPlan, Vec<NodeId>)> {
        let live = |n: &DagNode| !n.queries.is_empty();
        // Parent counts over live nodes only: a tombstoned parent must not
        // force a cut below it.
        let mut parent_counts = vec![0usize; dag.nodes.len()];
        for n in dag.nodes.iter().filter(|n| live(n)) {
            for c in &n.children {
                parent_counts[c.0 as usize] += 1;
            }
        }
        let mut root_queries: HashMap<u32, QuerySet> = HashMap::new();
        for (q, n) in &dag.query_roots {
            root_queries.entry(n.0).or_insert(QuerySet::EMPTY).insert(*q);
        }

        // Decide which nodes become subplan roots.
        let mut is_sp_root = vec![false; dag.nodes.len()];
        for n in dag.nodes.iter().filter(|n| live(n)) {
            let idx = n.id.0 as usize;
            let is_query_root = root_queries.contains_key(&n.id.0);
            let multi_parent = parent_counts[idx] > 1;
            let cut = is_query_root || multi_parent || extra_cut(n) || forced_cuts.contains(&n.id);
            let is_scan = matches!(n.op, Op::Input(_));
            // Scans are buffers already; only a bare-scan *query root* needs
            // an identity subplan to have somewhere to emit results.
            is_sp_root[idx] = cut && (!is_scan || is_query_root);
        }

        // Allocate subplan ids bottom-up (children get smaller ids).
        let mut node_to_sp: HashMap<u32, SubplanId> = HashMap::new();
        let mut roots_in_order = Vec::new();
        for n in &dag.nodes {
            if is_sp_root[n.id.0 as usize] {
                let id = SubplanId(roots_in_order.len() as u32);
                node_to_sp.insert(n.id.0, id);
                roots_in_order.push(n.id);
            }
        }

        // Build each subplan's tree.
        let mut subplans = Vec::with_capacity(roots_in_order.len());
        for (i, &root_node) in roots_in_order.iter().enumerate() {
            let id = SubplanId(i as u32);
            let n = dag.node(root_node)?;
            let root = build_tree(dag, n, &node_to_sp, true)?;
            subplans.push(Subplan {
                id,
                root,
                queries: n.queries,
                output_queries: root_queries.get(&root_node.0).copied().unwrap_or(QuerySet::EMPTY),
            });
        }
        let plan = SharedPlan { subplans };
        Ok((plan, roots_in_order))
    }

    /// Look up a subplan.
    pub fn subplan(&self, id: SubplanId) -> Result<&Subplan> {
        self.subplans.get(id.index()).ok_or_else(|| Error::NotFound(format!("subplan {id}")))
    }

    /// Number of subplans.
    pub fn len(&self) -> usize {
        self.subplans.len()
    }

    /// `true` iff there are no subplans.
    pub fn is_empty(&self) -> bool {
        self.subplans.is_empty()
    }

    /// All queries participating in the plan.
    pub fn queries(&self) -> QuerySet {
        self.subplans.iter().fold(QuerySet::EMPTY, |acc, sp| acc.union(sp.queries))
    }

    /// Parent lists: `parents()[i]` = subplans reading subplan `i`'s buffer.
    pub fn parents(&self) -> Vec<Vec<SubplanId>> {
        let mut parents = vec![Vec::new(); self.subplans.len()];
        for sp in &self.subplans {
            for c in sp.children() {
                parents[c.index()].push(sp.id);
            }
        }
        parents
    }

    /// Children-first topological order, by depth then id; errors on a
    /// missing child or a cycle.
    pub fn topo_order(&self) -> Result<Vec<SubplanId>> {
        let (mut order, depth) = self.kahn()?;
        order.sort_unstable_by_key(|id| (depth[id.index()], id.0));
        Ok(order)
    }

    /// Dependency depth of every subplan: `depths()?[i]` is the longest
    /// child chain below subplan `i` (leaves are 0). A parent is strictly
    /// deeper than each of its children, so subplans sharing a depth never
    /// read each other's buffers. Tick spans carry it as their `depth`.
    /// Errors like [`Self::topo_order`].
    pub fn depths(&self) -> Result<Vec<usize>> {
        Ok(self.kahn()?.1)
    }

    /// Kahn's pass over the child edges: some children-first order, and
    /// each subplan's depth.
    fn kahn(&self) -> Result<(Vec<SubplanId>, Vec<usize>)> {
        let n = self.subplans.len();
        let mut indegree = vec![0usize; n]; // number of unprocessed children
        let mut parents = vec![Vec::new(); n];
        for sp in &self.subplans {
            let cs = sp.children();
            for &c in &cs {
                if c.index() >= n {
                    return Err(Error::InvalidPlan(format!(
                        "subplan {} references missing child {c}",
                        sp.id
                    )));
                }
                parents[c.index()].push(sp.id);
            }
            indegree[sp.id.index()] = cs.len();
        }
        let mut queue: Vec<SubplanId> =
            (0..n).filter(|&i| indegree[i] == 0).map(|i| SubplanId(i as u32)).collect();
        let mut order = Vec::with_capacity(n);
        // A subplan's depth is final by the time it is popped: every child
        // was popped before it.
        let mut depth = vec![0usize; n];
        while let Some(id) = queue.pop() {
            order.push(id);
            for &p in &parents[id.index()] {
                depth[p.index()] = depth[p.index()].max(depth[id.index()] + 1);
                indegree[p.index()] -= 1;
                if indegree[p.index()] == 0 {
                    queue.push(p);
                }
            }
        }
        if order.len() != n {
            return Err(Error::InvalidPlan("subplan graph contains a cycle".into()));
        }
        Ok((order, depth))
    }

    /// The subplan producing query `q`'s final results.
    pub fn query_root(&self, q: QueryId) -> Option<SubplanId> {
        self.subplans.iter().find(|sp| sp.output_queries.contains(q)).map(|sp| sp.id)
    }

    /// All subplans query `q` participates in (the set whose final
    /// executions make up the query's latency).
    pub fn subplans_of_query(&self, q: QueryId) -> Vec<SubplanId> {
        self.subplans.iter().filter(|sp| sp.queries.contains(q)).map(|sp| sp.id).collect()
    }

    /// Output schema of every subplan (children-first evaluation).
    pub fn schemas(&self, catalog: &Catalog) -> Result<HashMap<SubplanId, Schema>> {
        let order = self.topo_order()?;
        let mut schemas = HashMap::new();
        for id in order {
            let sp = self.subplan(id)?;
            let s = sp.root.schema(catalog, &schemas)?;
            schemas.insert(id, s);
        }
        Ok(schemas)
    }

    /// Structural validation:
    /// * ids are positional,
    /// * operator arities are correct,
    /// * subplan query sets subsume their parents' (the engine requirement
    ///   of Sec. 2.2),
    /// * select branches partition the subplan's query set,
    /// * every query in the plan has exactly one output subplan,
    /// * all schemas/types check out,
    /// * the graph is acyclic.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        for (i, sp) in self.subplans.iter().enumerate() {
            if sp.id.index() != i {
                return Err(Error::InvalidPlan(format!(
                    "subplan at position {i} has id {}",
                    sp.id
                )));
            }
            if sp.queries.is_empty() {
                return Err(Error::InvalidPlan(format!("subplan {} has no queries", sp.id)));
            }
            if !sp.output_queries.is_subset_of(sp.queries) {
                return Err(Error::InvalidPlan(format!(
                    "subplan {}: output queries {} not within {}",
                    sp.id, sp.output_queries, sp.queries
                )));
            }
            check_ops(sp)?;
            for c in sp.children() {
                let child = self.subplan(c)?;
                if !sp.queries.is_subset_of(child.queries) {
                    return Err(Error::InvalidPlan(format!(
                        "subplan {} (queries {}) reads subplan {} (queries {}) — \
                         child must subsume parent",
                        sp.id, sp.queries, child.id, child.queries
                    )));
                }
            }
        }
        // One output subplan per query.
        let mut seen = QuerySet::EMPTY;
        for sp in &self.subplans {
            if sp.output_queries.intersects(seen) {
                return Err(Error::InvalidPlan(format!(
                    "queries {} have more than one output subplan",
                    sp.output_queries.intersect(seen)
                )));
            }
            seen = seen.union(sp.output_queries);
        }
        if seen != self.queries() {
            return Err(Error::InvalidPlan(format!(
                "queries {} participate but have no output subplan",
                self.queries().difference(seen)
            )));
        }
        // Acyclicity + schema/type checks.
        self.schemas(catalog)?;
        Ok(())
    }
}

/// Checks the input arity (through [`OpTree::post_order`]) and the select
/// branches of every operator of `sp`.
fn check_ops(sp: &Subplan) -> Result<()> {
    sp.root.post_order(|step| match &step.node.op {
        Op::Select { branches } => {
            check_branches(format_args!("subplan {}", sp.id), sp.queries, branches)
        }
        _ => Ok(()),
    })
}

fn build_tree(
    dag: &SharedDag,
    node: &DagNode,
    node_to_sp: &HashMap<u32, SubplanId>,
    is_root: bool,
) -> Result<OpTree> {
    // Non-root references to subplan-cut nodes become buffer reads.
    if !is_root {
        if let Some(&sp) = node_to_sp.get(&node.id.0) {
            return Ok(OpTree::input(InputSource::Subplan(sp)));
        }
    }
    let op = node.op.clone().map_input(InputSource::Base);
    let mut inputs = Vec::with_capacity(node.children.len());
    for &c in &node.children {
        inputs.push(build_tree(dag, dag.node(c)?, node_to_sp, false)?);
    }
    Ok(OpTree { op, inputs })
}

impl fmt::Display for SharedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(t: &OpTree, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            for _ in 0..=depth {
                write!(f, "  ")?;
            }
            match &t.op {
                Op::Input(InputSource::Base(id)) => writeln!(f, "input base {id}")?,
                Op::Input(InputSource::Subplan(id)) => writeln!(f, "input {id}")?,
                Op::Select { branches } => {
                    write!(f, "select")?;
                    for b in branches {
                        write!(f, " [{} {}]", b.queries, b.predicate)?;
                    }
                    writeln!(f)?;
                }
                Op::Project { exprs } => writeln!(f, "project ({} exprs)", exprs.len())?,
                Op::Join { keys } => writeln!(f, "join ({} keys)", keys.len())?,
                Op::Aggregate { group_by, aggs } => {
                    writeln!(f, "aggregate by {} compute {}", group_by.len(), aggs.len())?
                }
            }
            for i in &t.inputs {
                go(i, f, depth + 1)?;
            }
            Ok(())
        }
        for sp in &self.subplans {
            writeln!(f, "{} queries={} outputs={}", sp.id, sp.queries, sp.output_queries)?;
            go(&sp.root, f, 0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggExpr, AggFunc};
    use crate::op::{DagOp, SelectBranch};
    use ishare_common::DataType;
    use ishare_expr::Expr;
    use ishare_storage::{Field, TableStats};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Float)]),
            TableStats::unknown(100.0, 2),
        )
        .unwrap();
        c.add_table(
            "u",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("w", DataType::Float)]),
            TableStats::unknown(50.0, 2),
        )
        .unwrap();
        c
    }

    /// DAG shaped like Fig. 2: a shared scan→select→agg feeding two
    /// per-query parents.
    fn fig2_dag(c: &Catalog) -> SharedDag {
        let t = c.table_by_name("t").unwrap().id;
        let u = c.table_by_name("u").unwrap().id;
        let mut d = SharedDag::new();
        let scan_t = d.add_node(DagOp::Input(t), vec![], qs(&[0, 1])).unwrap();
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
                vec![scan_t],
                qs(&[0, 1]),
            )
            .unwrap();
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![sel],
                qs(&[0, 1]),
            )
            .unwrap();
        // Q0: project the aggregate.
        let p0 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(1), "s".into())] },
                vec![agg],
                qs(&[0]),
            )
            .unwrap();
        // Q1: join the aggregate with table u then aggregate again.
        let scan_u = d.add_node(DagOp::Input(u), vec![], qs(&[1])).unwrap();
        let join = d
            .add_node(
                DagOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
                vec![agg, scan_u],
                qs(&[1]),
            )
            .unwrap();
        let agg2 = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::new(AggFunc::Avg, Expr::col(1), "a")],
                },
                vec![join],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), p0).unwrap();
        d.set_query_root(QueryId(1), agg2).unwrap();
        d
    }

    #[test]
    fn from_dag_splits_at_multi_parent() {
        let c = catalog();
        let dag = fig2_dag(&c);
        dag.validate(&c).unwrap();
        let plan = SharedPlan::from_dag(&dag).unwrap();
        plan.validate(&c).unwrap();
        // Expect 3 subplans: the shared scan+select+agg, Q0's project,
        // Q1's join+agg2 (scan u folds into it as a base input).
        assert_eq!(plan.len(), 3);
        let shared = plan.subplan(SubplanId(0)).unwrap();
        assert_eq!(shared.queries, qs(&[0, 1]));
        assert_eq!(shared.output_queries, QuerySet::EMPTY);
        assert_eq!(shared.children(), vec![]);
        assert_eq!(shared.root.referenced_tables().len(), 1);

        let q0 = plan.query_root(QueryId(0)).unwrap();
        let q1 = plan.query_root(QueryId(1)).unwrap();
        assert_ne!(q0, q1);
        assert_eq!(plan.subplan(q0).unwrap().children(), vec![SubplanId(0)]);
        assert_eq!(plan.subplan(q1).unwrap().children(), vec![SubplanId(0)]);
        // Q1's subplan reads base table u directly.
        assert_eq!(plan.subplan(q1).unwrap().root.referenced_tables().len(), 1);
        assert_eq!(plan.subplans_of_query(QueryId(1)).len(), 2);
    }

    #[test]
    fn extra_cut_at_aggregates() {
        let c = catalog();
        let dag = fig2_dag(&c);
        let is_agg = |n: &DagNode| matches!(n.op, DagOp::Aggregate { .. });
        let (plan, _) = SharedPlan::from_dag_with_roots(&dag, is_agg, &[]).unwrap();
        plan.validate(&c).unwrap();
        // The second aggregate (Q1's root) is already a cut; the first
        // aggregate is cut anyway (multi-parent). Same subplan count but the
        // policy must not break anything; assert the plan still validates
        // and has >= 3 subplans.
        assert!(plan.len() >= 3);
    }

    #[test]
    fn topo_order_children_first() {
        let c = catalog();
        let plan = SharedPlan::from_dag(&fig2_dag(&c)).unwrap();
        let order = plan.topo_order().unwrap();
        let pos: HashMap<SubplanId, usize> =
            order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for sp in &plan.subplans {
            for ch in sp.children() {
                assert!(pos[&ch] < pos[&sp.id], "{ch} must precede {}", sp.id);
            }
        }
        let depths = plan.depths().unwrap();
        let mut by_depth: Vec<SubplanId> = (0..plan.len()).map(|i| SubplanId(i as u32)).collect();
        by_depth.sort_by_key(|id| (depths[id.index()], id.0));
        assert_eq!(order, by_depth, "the order is the (depth, id) sort");
    }

    #[test]
    fn schemas_computed() {
        let c = catalog();
        let plan = SharedPlan::from_dag(&fig2_dag(&c)).unwrap();
        let schemas = plan.schemas(&c).unwrap();
        assert_eq!(schemas[&SubplanId(0)].arity(), 2); // (k, s)
        let q1 = plan.query_root(QueryId(1)).unwrap();
        assert_eq!(schemas[&q1].arity(), 1); // (a)
    }

    #[test]
    fn restrict_drops_other_branches() {
        let c = catalog();
        let plan = SharedPlan::from_dag(&fig2_dag(&c)).unwrap();
        let shared = plan.subplan(SubplanId(0)).unwrap();
        let only_q1 = shared.restrict(qs(&[1])).unwrap();
        assert_eq!(only_q1.queries, qs(&[1]));
        let mut branch_count = 0;
        only_q1.root.visit(&mut |t| {
            if let TreeOp::Select { branches } = &t.op {
                branch_count += branches.len();
            }
        });
        assert_eq!(branch_count, 1);
        assert!(shared.restrict(qs(&[7])).is_err());
    }

    #[test]
    fn post_order_paths_map_to_dag_nodes() {
        let c = catalog();
        let dag = fig2_dag(&c);
        let (plan, roots) = SharedPlan::from_dag_with_roots(&dag, |_| false, &[]).unwrap();
        let shared = &plan.subplan(SubplanId(0)).unwrap().root;
        // The scan leaf, then the select reading it, then the root aggregate
        // reading the select.
        let mut steps = Vec::new();
        shared
            .post_order(|step| {
                let node = dag.node(dag.node_at(roots[0], step.path))?;
                steps.push((step.path.to_vec(), step.inputs.to_vec(), node.op.label()));
                Ok(())
            })
            .unwrap();
        let expected = [(vec![0, 0], vec![], "input"), (vec![0], vec![0], "select")];
        assert_eq!(steps[..2], expected);
        assert_eq!(steps[2], (vec![], vec![1], "aggregate"));
        // The leaf reads the scan through the select's only input.
        let select = dag.node_at(roots[0], &[0]);
        assert_eq!(dag.leaf_edge(roots[0], &[0, 0]), (select, 0));
        assert_eq!(dag.leaf_edge(roots[0], &[]), (roots[0], usize::MAX));
    }

    /// The outermost malformed operator is reported, before the walk visits
    /// anything below it.
    #[test]
    fn post_order_checks_arity_outermost_first() {
        let leaf = || OpTree::input(InputSource::Base(TableId(0)));
        let join = OpTree::node(TreeOp::Join { keys: vec![] }, vec![leaf()]);
        let project = || TreeOp::Project { exprs: vec![] };
        let fault = |tree: OpTree| match tree.post_order(|_| panic!("visited")) {
            Err(Error::InvalidPlan(msg)) => msg,
            other => panic!("{other:?}"),
        };
        let outer = fault(OpTree::node(project(), vec![join.clone(), leaf()]));
        assert!(outer.starts_with("project at path [] has 2 inputs"), "{outer}");
        let inner = fault(OpTree::node(project(), vec![join]));
        assert!(inner.starts_with("join at path [0] has 1 inputs"), "{inner}");
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let c = catalog();
        let mut plan = SharedPlan::from_dag(&fig2_dag(&c)).unwrap();
        // Break subsumption: shrink the shared subplan's query set.
        plan.subplans[0].queries = qs(&[0]);
        // Also fix branches to keep the select-partition check from firing
        // first.
        if let TreeOp::Select { branches } = &mut plan.subplans[0].root.inputs[0].op {
            branches.retain(|b| b.queries == qs(&[0]));
        }
        assert!(plan.validate(&c).is_err());
    }

    #[test]
    fn cyclic_plans_are_rejected_without_recursing() {
        // `subplans` is public, so a hand-built plan can close a cycle:
        // point a child subplan at one of its readers. The depth pass is
        // Kahn's, like the order's, and reports the cycle.
        let c = catalog();
        let mut plan = SharedPlan::from_dag(&fig2_dag(&c)).unwrap();
        let (reader, child) = plan
            .subplans
            .iter()
            .find_map(|sp| sp.children().first().map(|&ch| (sp.id, ch)))
            .unwrap();
        plan.subplans[child.index()].root = OpTree::input(InputSource::Subplan(reader));
        assert!(matches!(plan.depths(), Err(Error::InvalidPlan(_))));
        assert!(matches!(plan.topo_order(), Err(Error::InvalidPlan(_))));
        assert!(plan.validate(&c).is_err());
    }

    #[test]
    fn bare_scan_query_gets_identity_subplan() {
        // A query that is just `SELECT * FROM t` roots at a scan node; the
        // split must give it an identity subplan reading the base buffer.
        let c = catalog();
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0])).unwrap();
        d.set_query_root(QueryId(0), scan).unwrap();
        d.validate(&c).unwrap();
        let plan = SharedPlan::from_dag(&d).unwrap();
        plan.validate(&c).unwrap();
        assert_eq!(plan.len(), 1);
        let sp = plan.subplan(SubplanId(0)).unwrap();
        assert!(matches!(sp.root.op, TreeOp::Input(InputSource::Base(_))));
        assert_eq!(sp.output_queries, qs(&[0]));
    }

    #[test]
    fn from_dag_with_roots_skips_tombstones_and_honors_forced_cuts() {
        let c = catalog();
        let mut dag = fig2_dag(&c);
        let (plan, roots) = SharedPlan::from_dag_with_roots(&dag, |_| false, &[]).unwrap();
        plan.validate(&c).unwrap();
        assert_eq!(roots.len(), plan.len());
        // Root mapping points at the node whose queries/outputs match.
        for (sp, node) in plan.subplans.iter().zip(&roots) {
            assert_eq!(sp.queries, dag.node(*node).unwrap().queries);
        }

        // Forcing a cut at the first select re-splits the shared subplan in
        // two without changing query coverage.
        let sel =
            dag.nodes.iter().find(|n| matches!(n.op, DagOp::Select { .. })).map(|n| n.id).unwrap();
        let (forced, froots) = SharedPlan::from_dag_with_roots(&dag, |_| false, &[sel]).unwrap();
        forced.validate(&c).unwrap();
        assert_eq!(forced.len(), plan.len() + 1);
        assert!(froots.contains(&sel));
        assert_eq!(forced.queries(), plan.queries());
        // Forced cuts at scans are ignored: base relations are buffers.
        let scan = dag.nodes.iter().find(|n| matches!(n.op, Op::Input(_))).map(|n| n.id).unwrap();
        let (scut, _) = SharedPlan::from_dag_with_roots(&dag, |_| false, &[scan]).unwrap();
        assert_eq!(scut.len(), plan.len());

        // Tombstone Q1's private cone (join + agg2 + scan u): the split must
        // skip those nodes and drop the query-1 plan entirely.
        dag.query_roots.retain(|(q, _)| *q != QueryId(1));
        for n in &mut dag.nodes {
            n.queries.remove(QueryId(1));
        }
        let (gc, gc_roots) = SharedPlan::from_dag_with_roots(&dag, |_| false, &[]).unwrap();
        assert_eq!(gc.queries(), qs(&[0]));
        assert!(gc.len() < plan.len());
        for node in gc_roots {
            assert!(!dag.node(node).unwrap().queries.is_empty());
        }
        // A select branch still referencing q1 would fail validation; the
        // churn path clears branches via the sharer, emulated here.
        for n in &mut dag.nodes {
            n.op.restrict(qs(&[0]));
        }
        let (gc, _) = SharedPlan::from_dag_with_roots(&dag, |_| false, &[]).unwrap();
        gc.validate(&c).unwrap();
    }

    #[test]
    fn display_smoke() {
        let c = catalog();
        let plan = SharedPlan::from_dag(&fig2_dag(&c)).unwrap();
        let s = plan.to_string();
        assert!(s.contains("sp0"));
        assert!(s.contains("aggregate"));
    }
}
