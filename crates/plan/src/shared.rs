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
//! `Scan` nodes are never turned into subplans of their own — base relations
//! are already buffers, so each consumer reads the base delta log directly at
//! its own pace. [`SharedPlan::from_dag_with_roots`] adds the forced cuts that
//! decomposition, churn and the NoShare-Nonuniform baseline (which cuts at
//! every aggregate) use.

use crate::agg::AggExpr;
use crate::dag::{check_branches, restrict_branches, DagNode, DagOp, SelectBranch, SharedDag};
use crate::typing;
use ishare_common::{Error, NodeId, QueryId, QuerySet, Result, SubplanId, TableId};
use ishare_expr::Expr;
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

/// An operator inside a subplan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeOp {
    /// Leaf: pull new deltas from a buffer. Rows are narrowed to the
    /// subplan's query set on the way in (the σ_filter of Fig. 2) and rows
    /// whose mask becomes empty are dropped.
    Input(InputSource),
    /// Shared marking select (σ*).
    Select {
        /// Per-query-subset predicate branches; they partition the
        /// subplan's query set.
        branches: Vec<SelectBranch>,
    },
    /// Merged projection.
    Project {
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Inner equi-join.
    Join {
        /// `(left expr, right expr)` key pairs.
        keys: Vec<(Expr, Expr)>,
    },
    /// Group-by aggregate.
    Aggregate {
        /// Group keys.
        group_by: Vec<(Expr, String)>,
        /// Aggregate columns.
        aggs: Vec<AggExpr>,
    },
}

impl TreeOp {
    /// Short label for diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            TreeOp::Input(_) => "input",
            TreeOp::Select { .. } => "select",
            TreeOp::Project { .. } => "project",
            TreeOp::Join { .. } => "join",
            TreeOp::Aggregate { .. } => "aggregate",
        }
    }

    /// Number of inputs this operator expects.
    pub fn expected_inputs(&self) -> usize {
        match self {
            TreeOp::Input(_) => 0,
            TreeOp::Join { .. } => 2,
            _ => 1,
        }
    }
}

/// A node of a subplan's operator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTree {
    /// The operator.
    pub op: TreeOp,
    /// Operator inputs (empty for leaves; `[left, right]` for joins).
    pub inputs: Vec<OpTree>,
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
            if let TreeOp::Input(InputSource::Subplan(id)) = t.op {
                out.push(id);
            }
        });
        out
    }

    /// Base tables this tree reads from (with duplicates).
    pub fn referenced_tables(&self) -> Vec<TableId> {
        let mut out = Vec::new();
        self.visit(&mut |t| {
            if let TreeOp::Input(InputSource::Base(id)) = t.op {
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

    /// Tree paths (child indices from the root) of every operator — every
    /// position but the leaves. [`SharedDag::node_at`] maps each to its DAG
    /// node.
    pub fn operator_paths(&self) -> Vec<Vec<usize>> {
        fn walk(t: &OpTree, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if matches!(t.op, TreeOp::Input(_)) {
                return;
            }
            out.push(path.clone());
            for (i, child) in t.inputs.iter().enumerate() {
                path.push(i);
                walk(child, path, out);
                path.pop();
            }
        }
        let mut out = Vec::new();
        walk(self, &mut Vec::new(), &mut out);
        out
    }

    /// Output schema of this tree, given the catalog and the schemas of
    /// referenced child subplans; each operator is typed by its rule in
    /// [`typing`].
    pub fn schema(
        &self,
        catalog: &Catalog,
        subplan_schemas: &HashMap<SubplanId, Schema>,
    ) -> Result<Schema> {
        let input = |k: usize| self.inputs[k].schema(catalog, subplan_schemas);
        match &self.op {
            TreeOp::Input(InputSource::Base(t)) => Ok(catalog.table(*t)?.schema.clone()),
            TreeOp::Input(InputSource::Subplan(id)) => subplan_schemas
                .get(id)
                .cloned()
                .ok_or_else(|| Error::NotFound(format!("schema of subplan {id}"))),
            TreeOp::Select { branches } => {
                typing::select(input(0)?, branches.iter().map(|b| &b.predicate))
            }
            TreeOp::Project { exprs } => typing::project(&input(0)?, exprs),
            TreeOp::Join { keys } => typing::join(&input(0)?, &input(1)?, keys),
            TreeOp::Aggregate { group_by, aggs } => typing::aggregate(&input(0)?, group_by, aggs),
        }
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
        restrict_tree(&mut root, queries);
        Ok(Subplan {
            id: self.id,
            root,
            queries,
            output_queries: self.output_queries.intersect(subset),
        })
    }
}

fn restrict_tree(tree: &mut OpTree, queries: QuerySet) {
    if let TreeOp::Select { branches } = &mut tree.op {
        restrict_branches(branches, queries);
    }
    for input in &mut tree.inputs {
        restrict_tree(input, queries);
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
            let is_scan = matches!(n.op, DagOp::Scan { .. });
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

    /// Children-first topological order; errors on cycles.
    pub fn topo_order(&self) -> Result<Vec<SubplanId>> {
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
        // Longest child chain below each subplan (`depths()`), final by the
        // time the subplan is popped: every child was popped before it.
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
        // Deterministic children-first order: by depth, then id.
        order.sort_unstable_by_key(|id| (depth[id.index()], id.0));
        Ok(order)
    }

    /// Dependency depth of every subplan: `depths()[i]` is the longest
    /// child chain below subplan `i` (leaves are 0). A parent is strictly
    /// deeper than each of its children, so subplans sharing a depth never
    /// read each other's buffers. Tick spans carry it as their `depth`.
    pub fn depths(&self) -> Vec<usize> {
        let mut memo = HashMap::new();
        (0..self.subplans.len())
            .map(|i| Self::depth_go(self, SubplanId(i as u32), &mut memo))
            .collect()
    }

    // Longest child chain below; subplan DAGs are tiny, recursion is fine.
    fn depth_go(plan: &SharedPlan, id: SubplanId, memo: &mut HashMap<SubplanId, usize>) -> usize {
        if let Some(&d) = memo.get(&id) {
            return d;
        }
        let d = plan.subplans[id.index()]
            .children()
            .iter()
            .map(|&c| Self::depth_go(plan, c, memo) + 1)
            .max()
            .unwrap_or(0);
        memo.insert(id, d);
        d
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
            check_ops(sp, &sp.root)?;
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

    /// Total operator count across subplans.
    pub fn operator_count(&self) -> usize {
        self.subplans.iter().map(|sp| sp.root.operator_count()).sum()
    }
}

/// Checks, pre-order, the input arity and select branches of every operator
/// of `t`, a tree of subplan `sp`.
fn check_ops(sp: &Subplan, t: &OpTree) -> Result<()> {
    if t.inputs.len() != t.op.expected_inputs() {
        return Err(Error::InvalidPlan(format!(
            "subplan {}: {} has {} inputs, expected {}",
            sp.id,
            t.op.label(),
            t.inputs.len(),
            t.op.expected_inputs()
        )));
    }
    if let TreeOp::Select { branches } = &t.op {
        check_branches(format_args!("subplan {}", sp.id), sp.queries, branches)?;
    }
    t.inputs.iter().try_for_each(|i| check_ops(sp, i))
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
    let op = match &node.op {
        DagOp::Scan { table } => return Ok(OpTree::input(InputSource::Base(*table))),
        DagOp::Select { branches } => TreeOp::Select { branches: branches.clone() },
        DagOp::Project { exprs } => TreeOp::Project { exprs: exprs.clone() },
        DagOp::Join { keys } => TreeOp::Join { keys: keys.clone() },
        DagOp::Aggregate { group_by, aggs } => {
            TreeOp::Aggregate { group_by: group_by.clone(), aggs: aggs.clone() }
        }
    };
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
                TreeOp::Input(InputSource::Base(id)) => writeln!(f, "input base {id}")?,
                TreeOp::Input(InputSource::Subplan(id)) => writeln!(f, "input {id}")?,
                TreeOp::Select { branches } => {
                    write!(f, "select")?;
                    for b in branches {
                        write!(f, " [{} {}]", b.queries, b.predicate)?;
                    }
                    writeln!(f)?;
                }
                TreeOp::Project { exprs } => writeln!(f, "project ({} exprs)", exprs.len())?,
                TreeOp::Join { keys } => writeln!(f, "join ({} keys)", keys.len())?,
                TreeOp::Aggregate { group_by, aggs } => {
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
    use crate::agg::AggFunc;
    use ishare_common::DataType;
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
        let scan_t = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1])).unwrap();
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
        let scan_u = d.add_node(DagOp::Scan { table: u }, vec![], qs(&[1])).unwrap();
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
        let depths = plan.depths();
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
    fn operator_paths_map_to_dag_nodes() {
        let c = catalog();
        let dag = fig2_dag(&c);
        let (plan, roots) = SharedPlan::from_dag_with_roots(&dag, |_| false, &[]).unwrap();
        let shared = &plan.subplan(SubplanId(0)).unwrap().root;
        // Root aggregate, child select; the scan below is a leaf, not an
        // operator.
        assert_eq!(shared.operator_paths(), vec![vec![], vec![0]]);
        let labels: Vec<&str> = shared
            .operator_paths()
            .iter()
            .map(|p| dag.node(dag.node_at(roots[0], p)).unwrap().op.label())
            .collect();
        assert_eq!(labels, ["aggregate", "select"]);
        // The leaf reads the scan through the select's only input.
        let select = dag.node_at(roots[0], &[0]);
        assert_eq!(dag.leaf_edge(roots[0], &[0, 0]), (select, 0));
        assert_eq!(dag.leaf_edge(roots[0], &[]), (roots[0], usize::MAX));
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
    fn bare_scan_query_gets_identity_subplan() {
        // A query that is just `SELECT * FROM t` roots at a scan node; the
        // split must give it an identity subplan reading the base buffer.
        let c = catalog();
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0])).unwrap();
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
        let scan =
            dag.nodes.iter().find(|n| matches!(n.op, DagOp::Scan { .. })).map(|n| n.id).unwrap();
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
            if let DagOp::Select { branches } = &mut n.op {
                for b in branches.iter_mut() {
                    b.queries.remove(QueryId(1));
                }
                branches.retain(|b| !b.queries.is_empty());
            }
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
