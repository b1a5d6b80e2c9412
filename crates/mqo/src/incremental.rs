//! Incremental multi-query sharing: admit and remove queries against a
//! *persistent* hash-consing state instead of rebuilding the shared DAG from
//! scratch.
//!
//! [`IncrementalSharer`] owns exactly the state the batch builder
//! ([`crate::build_shared_dag`]) uses internally — the [`SharedDag`], the
//! signature table, the per-select predicate lists and the subtree operator
//! counts — and keeps it alive across admissions. The batch builder is a
//! thin loop over [`IncrementalSharer::admit`], so for any pure admission
//! sequence the incremental path and a from-scratch rebuild produce the
//! same DAG *by construction* (pinned by proptests in `tests/`).
//!
//! # Live (post-seal) admission
//!
//! Once a run is live ([`seal`](IncrementalSharer::seal)), admission rules
//! tighten in one way: a select may only merge into an existing select node
//! if the new query's predicate **equals one of the predicates already
//! collected there**. Pre-seal, a select with a brand-new predicate joins
//! the shared node as a new marking branch — that is the paper's sharing
//! model, and it is fine when execution starts from row zero. On a live run
//! it would be wrong: rows that already flowed through the node were never
//! evaluated under the new predicate, so no downstream mask can say which
//! historical rows the new query should see. Joining an *existing* branch
//! keeps a witness: any query already on that branch has seen exactly the
//! rows the new query would have seen, so its mask bit can stand in for the
//! new query's over all history (the state-handoff rule the stream layer's
//! admission module builds on). A predicate with no equal branch gets a
//! fresh select node at the next free occurrence index, which makes every
//! node above it fresh too — the new query's private *divergence cone*,
//! fed by replay/handoff at its leaves instead of shared masks.
//!
//! The witness rule is enforced *transitively*: a structural match is only
//! merged into if some live query witnesses the candidate's **entire input
//! cone** (it flows through every node below and sits on the same branch
//! at every select the new query joins there). Without such a query the
//! node's resident state could not be handed off — no stored mask bit
//! means "the rows the new query would have seen" — so the sealed sharer
//! declines the merge and gives the new query a private clone instead,
//! leaving the signature table pointing at the original for future
//! admissions that do have a witness.
//!
//! # Removal
//!
//! [`remove`](IncrementalSharer::remove) clears the query's bit from every
//! node and branch, drops its predicates and query root, and *tombstones*
//! nodes whose query set goes empty: their signature-table entries are
//! deleted (so a later admission can never resurrect a dead node's state)
//! but the node stays in the DAG with an empty query set — `NodeId`s are
//! append-only and stable, which is what lets the engine key live operator
//! state by node id across churn events. Plan construction skips empty
//! nodes ([`ishare_plan::SharedPlan::from_dag_with_roots`]).

use crate::builder::MqoConfig;
use ishare_common::{Error, NodeId, QueryId, QuerySet, Result};
use ishare_expr::Expr;
use ishare_plan::{DagOp, LogicalPlan, SelectBranch, SharedDag};
use std::collections::HashMap;

/// What one admission did to the shared DAG — the "diff" of the merge.
#[derive(Debug, Clone)]
pub struct AdmitDiff {
    /// The admitted query.
    pub query: QueryId,
    /// The query's root node in the DAG.
    pub root: NodeId,
    /// Pre-existing nodes the query was merged into, in bottom-up
    /// hash-consing order, deduplicated (a diamond reuses a node twice but
    /// lists it once).
    pub reused: Vec<NodeId>,
    /// Nodes created for this query, in creation order.
    pub created: Vec<NodeId>,
    /// Reused nodes that gained at least one *created* parent — the
    /// attachment frontier where the query's private cone taps into shared
    /// structure. The engine cuts subplans at every non-scan frontier node.
    pub frontier: Vec<NodeId>,
    /// Per consed node, the queries that witness its whole input cone for
    /// the admitted query: the intersection, over every node of the cone,
    /// of the node's query set taken *before* the admission, refined at
    /// each select to the branch the query joined (before
    /// [`seal`](IncrementalSharer::seal), selects leave it unconstrained).
    /// Any member has seen exactly the rows the new query would have seen
    /// there. Never contains the admitted query; full but for it at created
    /// nodes, which carry no old state.
    pub pools: HashMap<NodeId, QuerySet>,
}

/// What one removal did to the shared DAG.
#[derive(Debug, Clone)]
pub struct RemoveDiff {
    /// The removed query.
    pub query: QueryId,
    /// Nodes whose query set went empty — tombstoned, signature entries
    /// dropped.
    pub removed_nodes: Vec<NodeId>,
    /// Nodes that retained other queries after the bit was cleared.
    pub shrunk_nodes: Vec<NodeId>,
}

/// Persistent hash-consing state for incremental multi-query sharing.
///
/// See the module docs for the admission/removal semantics. Cloning the
/// sharer is cheap enough to use for speculative admission (mutate a clone,
/// swap it in only if the whole churn event validates).
#[derive(Debug, Clone)]
pub struct IncrementalSharer {
    dag: SharedDag,
    /// signature → node.
    by_signature: HashMap<String, NodeId>,
    /// Per select node: the (query, predicate) pairs collected so far, in
    /// insertion order (that order fixes the branch order).
    select_preds: HashMap<u32, Vec<(QueryId, Expr)>>,
    config: MqoConfig,
    sealed: bool,
}

impl IncrementalSharer {
    /// Empty sharer with the given MQO configuration.
    pub fn new(config: MqoConfig) -> Self {
        IncrementalSharer {
            dag: SharedDag::new(),
            by_signature: HashMap::new(),
            select_preds: HashMap::new(),
            config,
            sealed: false,
        }
    }

    /// The shared DAG in its current state. Tombstoned (empty-query) nodes
    /// are present but belong to no query.
    pub fn dag(&self) -> &SharedDag {
        &self.dag
    }

    /// Consume the sharer, yielding its DAG.
    pub fn into_dag(self) -> SharedDag {
        self.dag
    }

    /// Queries currently admitted (those with a query root).
    pub fn queries(&self) -> QuerySet {
        QuerySet::from_iter(self.dag.query_roots.iter().map(|(q, _)| *q))
    }

    /// Mark the run live: subsequent admissions use the branch-compatible
    /// merge rule (see module docs). Idempotent.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Admit `q` with normalized `plan`, diff-merging it into the DAG.
    ///
    /// Errors with [`Error::Churn`] on a duplicate query id or an id outside
    /// the engine's 64-query bitvector.
    pub fn admit(&mut self, q: QueryId, plan: &LogicalPlan) -> Result<AdmitDiff> {
        if q.index() >= 64 {
            return Err(Error::Churn(format!(
                "query id {q} exceeds the 64-query bitvector capacity"
            )));
        }
        if self.dag.query_roots.iter().any(|(rq, _)| *rq == q) {
            return Err(Error::Churn(format!("duplicate query id {q}")));
        }
        let mut tr = AdmitTrace::default();
        let root = self.cons(q, plan, &mut tr)?;
        self.dag.set_query_root(q, root)?;
        self.materialize_branches()?;
        let created: Vec<NodeId> = tr.created.clone();
        let mut reused: Vec<NodeId> = Vec::new();
        for id in &tr.reused {
            if !reused.contains(id) {
                reused.push(*id);
            }
        }
        // Attachment frontier: reused nodes with a created parent.
        let mut frontier: Vec<NodeId> = Vec::new();
        for id in &created {
            for child in &self.dag.nodes[id.0 as usize].children {
                if reused.contains(child) && !frontier.contains(child) {
                    frontier.push(*child);
                }
            }
        }
        // A node consed twice (a diamond) already carries the query's bit
        // on the second visit; a query never witnesses itself.
        let pools = tr
            .pools
            .into_iter()
            .map(|(n, mut pool)| {
                pool.remove(q);
                (NodeId(n), pool)
            })
            .collect();
        Ok(AdmitDiff { query: q, root, reused, created, frontier, pools })
    }

    /// Remove `q`: clear its bit everywhere, drop its predicates and query
    /// root, tombstone nodes that go empty. Errors with [`Error::Churn`]
    /// when `q` is not an admitted query.
    pub fn remove(&mut self, q: QueryId) -> Result<RemoveDiff> {
        let Some(pos) = self.dag.query_roots.iter().position(|(rq, _)| *rq == q) else {
            return Err(Error::Churn(format!("cannot remove unknown query {q}")));
        };
        self.dag.query_roots.remove(pos);
        let mut removed_nodes = Vec::new();
        let mut shrunk_nodes = Vec::new();
        for node in &mut self.dag.nodes {
            if !node.queries.contains(q) {
                continue;
            }
            node.queries.remove(q);
            if node.queries.is_empty() {
                removed_nodes.push(node.id);
            } else {
                shrunk_nodes.push(node.id);
            }
        }
        // Drop the query's select predicates, then rebuild branches.
        for preds in self.select_preds.values_mut() {
            preds.retain(|(pq, _)| *pq != q);
        }
        // Tombstones: no signature may resolve to a dead node again, and no
        // stale predicate entry may linger.
        for id in &removed_nodes {
            self.by_signature.retain(|_, nid| nid != id);
            self.select_preds.remove(&id.0);
        }
        self.materialize_branches()?;
        Ok(RemoveDiff { query: q, removed_nodes, shrunk_nodes })
    }

    /// Rewrite every live select node's branches from its collected
    /// predicate list: one branch per distinct predicate, in first-insertion
    /// order. Identical to the batch builder's end-of-build materialization,
    /// applied after every churn event so the DAG is always consistent.
    fn materialize_branches(&mut self) -> Result<()> {
        for (node_idx, preds) in &self.select_preds {
            let node = &mut self.dag.nodes[*node_idx as usize];
            let mut branches: Vec<SelectBranch> = Vec::new();
            for (q, pred) in preds {
                if let Some(existing) = branches.iter_mut().find(|br| &br.predicate == pred) {
                    existing.queries.insert(*q);
                } else {
                    branches.push(SelectBranch {
                        queries: QuerySet::single(*q),
                        predicate: pred.clone(),
                    });
                }
            }
            match &mut node.op {
                DagOp::Select { branches: slot } => *slot = branches,
                other => {
                    return Err(Error::InvalidPlan(format!(
                        "collected predicates for non-select node ({})",
                        other.label()
                    )))
                }
            }
        }
        Ok(())
    }

    fn cons(&mut self, q: QueryId, plan: &LogicalPlan, tr: &mut AdmitTrace) -> Result<NodeId> {
        match plan {
            LogicalPlan::Scan { table } => {
                let sig = format!("scan({table})");
                self.intern(q, sig, DagOp::Input(*table), vec![], tr)
            }
            LogicalPlan::Select { input, predicate } => {
                let child = self.cons(q, input, tr)?;
                self.intern_select(q, child, predicate, tr)
            }
            LogicalPlan::Project { input, exprs } => {
                let child = self.cons(q, input, tr)?;
                // Expressions included: only identical projects merge (see
                // crate docs for the documented deviation on union-merge).
                let mut sig = format!("project({child};");
                for (e, _) in exprs {
                    sig.push_str(&format!("{e},"));
                }
                sig.push(')');
                self.intern(q, sig, DagOp::Project { exprs: exprs.clone() }, vec![child], tr)
            }
            LogicalPlan::Join { left, right, keys } => {
                let l = self.cons(q, left, tr)?;
                let r = self.cons(q, right, tr)?;
                let mut sig = format!("join({l},{r};");
                for (lk, rk) in keys {
                    sig.push_str(&format!("{lk}={rk},"));
                }
                sig.push(')');
                self.intern(q, sig, DagOp::Join { keys: keys.clone() }, vec![l, r], tr)
            }
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                let child = self.cons(q, input, tr)?;
                // Group exprs and aggregate (func, arg) included; output
                // names excluded (they differ per query without changing
                // the computation).
                let mut sig = format!("agg({child};by=");
                for (e, _) in group_by {
                    sig.push_str(&format!("{e},"));
                }
                sig.push_str(";aggs=");
                for a in aggs {
                    sig.push_str(&format!("{}({}),", a.func, a.arg));
                }
                sig.push(')');
                self.intern(
                    q,
                    sig,
                    DagOp::Aggregate { group_by: group_by.clone(), aggs: aggs.clone() },
                    vec![child],
                    tr,
                )
            }
        }
    }

    /// Intern a select node. Predicates are excluded from signatures (that
    /// is what makes differing selects sharable), which creates one wrinkle:
    /// a single query may contain two *different* selects over the same
    /// child (a self-join with different filters). Such occurrences must not
    /// merge — their branches would overlap on the query. Each (child)
    /// signature therefore carries an occurrence index, and a query's select
    /// takes the first occurrence that has no conflicting predicate for it.
    ///
    /// Post-seal, joining an occurrence additionally requires the predicate
    /// to equal one already collected there (see module docs).
    fn intern_select(
        &mut self,
        q: QueryId,
        child: NodeId,
        predicate: &Expr,
        tr: &mut AdmitTrace,
    ) -> Result<NodeId> {
        for attempt in 0.. {
            let sig = format!("select({child})#{attempt}");
            let salted = self.salt(q, sig);
            if let Some(&id) = self.by_signature.get(&salted) {
                let preds = self.select_preds.get(&id.0);
                let conflict = preds
                    .map(|ps| ps.iter().any(|(pq, pp)| *pq == q && pp != predicate))
                    .unwrap_or(false);
                if conflict {
                    continue;
                }
                let own = tr.created.contains(&id);
                let mut pool = QuerySet(u64::MAX);
                if self.sealed && !own {
                    // Live merge: only onto an existing equal-predicate
                    // branch — the witness rule — and only if some member
                    // of that branch also witnesses the child cone (its
                    // mask bit stands in for the new query's over every
                    // row the node's consumers have already absorbed).
                    let joined: QuerySet = QuerySet::from_iter(
                        preds
                            .into_iter()
                            .flatten()
                            .filter(|(_, pp)| pp == predicate)
                            .map(|(pq, _)| *pq),
                    );
                    pool = joined
                        .intersect(self.dag.nodes[id.0 as usize].queries)
                        .intersect(tr.pool(child));
                    if pool.is_empty() {
                        continue;
                    }
                }
                tr.reused.push(id);
                tr.pools.insert(id.0, if own { QuerySet(u64::MAX) } else { pool });
                self.dag.nodes[id.0 as usize].queries.insert(q);
                let preds = self.select_preds.entry(id.0).or_default();
                if !preds.iter().any(|(pq, pp)| *pq == q && pp == predicate) {
                    preds.push((q, predicate.clone()));
                }
                return Ok(id);
            }
            let id = self.dag.add_node(
                DagOp::Select { branches: vec![] },
                vec![child],
                QuerySet::single(q),
            )?;
            self.by_signature.insert(salted, id);
            self.select_preds.entry(id.0).or_default().push((q, predicate.clone()));
            tr.pools.insert(id.0, QuerySet(u64::MAX));
            tr.created.push(id);
            return Ok(id);
        }
        unreachable!("occurrence loop always returns")
    }

    fn salt(&self, q: QueryId, sig: String) -> String {
        if !self.config.enable_sharing {
            format!("{sig}@{q}")
        } else {
            sig
        }
    }

    fn intern(
        &mut self,
        q: QueryId,
        sig: String,
        op: DagOp,
        children: Vec<NodeId>,
        tr: &mut AdmitTrace,
    ) -> Result<NodeId> {
        let sig = self.salt(q, sig);
        if let Some(&id) = tr.private.get(&sig) {
            return Ok(id);
        }
        if let Some(&id) = self.by_signature.get(&sig) {
            let own = tr.created.contains(&id);
            let pool = if own {
                QuerySet(u64::MAX)
            } else {
                children
                    .iter()
                    .fold(self.dag.nodes[id.0 as usize].queries, |p, c| p.intersect(tr.pool(*c)))
            };
            if own || !self.sealed || !pool.is_empty() {
                tr.reused.push(id);
                tr.pools.insert(id.0, pool);
                self.dag.nodes[id.0 as usize].queries.insert(q);
                return Ok(id);
            }
            // Live admission, structural match, but *nobody* witnesses the
            // candidate's input cone for the new query: the node's resident
            // state could not be handed off, so decline the merge and give
            // the query a private clone. The signature keeps pointing at
            // the original — a later admission with a valid witness may
            // still share it.
            let clone = self.dag.add_node(op, children, QuerySet::single(q))?;
            tr.private.insert(sig, clone);
            tr.pools.insert(clone.0, QuerySet(u64::MAX));
            tr.created.push(clone);
            return Ok(clone);
        }
        let id = self.dag.add_node(op, children, QuerySet::single(q))?;
        self.by_signature.insert(sig, id);
        tr.pools.insert(id.0, QuerySet(u64::MAX));
        tr.created.push(id);
        Ok(id)
    }
}

/// Per-admission bookkeeping threaded through the hash-consing walk.
#[derive(Default)]
struct AdmitTrace {
    reused: Vec<NodeId>,
    created: Vec<NodeId>,
    /// Per consed node: the queries that witness the node's whole input
    /// cone for the admitted query (pre-admission query sets, refined to
    /// the joined branch at selects). `u64::MAX` for created nodes — they
    /// carry no old state, so they never constrain a parent.
    pools: HashMap<u32, QuerySet>,
    /// Signature → private clone created after a witness decline, so a
    /// diamond inside the admitted plan still shares its own clone.
    private: HashMap<String, NodeId>,
}

impl AdmitTrace {
    fn pool(&self, n: NodeId) -> QuerySet {
        self.pools.get(&n.0).copied().unwrap_or(QuerySet(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_shared_dag;
    use crate::normalize::normalize;
    use ishare_common::DataType;
    use ishare_plan::PlanBuilder;
    use ishare_storage::{Catalog, Field, Schema, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats::unknown(100.0, 2),
        )
        .unwrap();
        c
    }

    fn agg_query(c: &Catalog, pred: Option<Expr>) -> LogicalPlan {
        let mut b = PlanBuilder::scan(c, "t").unwrap();
        if let Some(p) = pred {
            b = b.select(move |_| Ok(p)).unwrap();
        }
        normalize(&b.aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?])).unwrap().build())
    }

    fn dags_equal(a: &SharedDag, b: &SharedDag) -> bool {
        if a.nodes.len() != b.nodes.len() || a.query_roots != b.query_roots {
            return false;
        }
        a.nodes.iter().zip(&b.nodes).all(|(x, y)| {
            x.id == y.id && x.children == y.children && x.queries == y.queries && {
                match (&x.op, &y.op) {
                    (DagOp::Select { branches: bx }, DagOp::Select { branches: by }) => bx == by,
                    (ox, oy) => ox.label() == oy.label(),
                }
            }
        })
    }

    #[test]
    fn incremental_admission_matches_batch_build() {
        let c = catalog();
        let q0 = agg_query(&c, None);
        let q1 = agg_query(&c, Some(Expr::col(1).gt(Expr::lit(5i64))));
        let batch = build_shared_dag(
            &[(QueryId(0), q0.clone()), (QueryId(1), q1.clone())],
            &c,
            &MqoConfig::default(),
        )
        .unwrap();
        let mut s = IncrementalSharer::new(MqoConfig::default());
        s.admit(QueryId(0), &q0).unwrap();
        s.admit(QueryId(1), &q1).unwrap();
        assert!(dags_equal(s.dag(), &batch), "incremental admissions must equal batch build");
    }

    #[test]
    fn duplicate_and_oversized_ids_rejected() {
        let c = catalog();
        let q0 = agg_query(&c, None);
        let mut s = IncrementalSharer::new(MqoConfig::default());
        s.admit(QueryId(0), &q0).unwrap();
        assert!(matches!(s.admit(QueryId(0), &q0), Err(Error::Churn(_))));
        assert!(matches!(s.admit(QueryId(64), &q0), Err(Error::Churn(_))));
    }

    #[test]
    fn remove_unknown_query_rejected() {
        let mut s = IncrementalSharer::new(MqoConfig::default());
        assert!(matches!(s.remove(QueryId(3)), Err(Error::Churn(_))));
    }

    #[test]
    fn sealed_admission_with_equal_predicate_shares_fully() {
        let c = catalog();
        let p = Expr::col(1).gt(Expr::lit(5i64));
        let q0 = agg_query(&c, Some(p.clone()));
        let mut s = IncrementalSharer::new(MqoConfig::default());
        s.admit(QueryId(0), &q0).unwrap();
        s.seal();
        let diff = s.admit(QueryId(1), &agg_query(&c, Some(p))).unwrap();
        assert!(diff.created.is_empty(), "equal-predicate admission reuses every node");
        assert_eq!(diff.pools[&diff.root].iter().next(), Some(QueryId(0)));
        // Root is shared: both queries root at the same node.
        assert_eq!(s.dag().query_roots[0].1, s.dag().query_roots[1].1);
    }

    #[test]
    fn sealed_admission_with_new_predicate_diverges() {
        let c = catalog();
        let q0 = agg_query(&c, Some(Expr::col(1).gt(Expr::lit(5i64))));
        let mut s = IncrementalSharer::new(MqoConfig::default());
        s.admit(QueryId(0), &q0).unwrap();
        s.seal();
        let q1 = agg_query(&c, Some(Expr::col(1).lt(Expr::lit(2i64))));
        let diff = s.admit(QueryId(1), &q1).unwrap();
        // The scan is reused; the divergent select and everything above it
        // is a private cone.
        assert!(!diff.created.is_empty());
        assert!(diff
            .reused
            .iter()
            .any(|id| matches!(s.dag().nodes[id.0 as usize].op, DagOp::Input(_))));
        for id in &diff.created {
            assert!(s.dag().nodes[id.0 as usize].queries == QuerySet::single(QueryId(1)));
        }
        // Pre-seal the same pair would have merged the selects into one
        // marking node; post-seal they must not.
        let batch =
            build_shared_dag(&[(QueryId(0), q0), (QueryId(1), q1)], &c, &MqoConfig::default())
                .unwrap();
        assert!(s.dag().nodes.len() > batch.nodes.len());
    }

    #[test]
    fn removal_tombstones_private_nodes_and_keeps_shared() {
        let c = catalog();
        let p = Expr::col(1).gt(Expr::lit(5i64));
        let q0 = agg_query(&c, Some(p.clone()));
        let q1 = agg_query(&c, Some(Expr::col(1).lt(Expr::lit(2i64))));
        let mut s = IncrementalSharer::new(MqoConfig::default());
        s.admit(QueryId(0), &q0).unwrap();
        s.admit(QueryId(1), &q1).unwrap();
        let before = s.dag().nodes.len();
        let diff = s.remove(QueryId(1)).unwrap();
        assert_eq!(s.dag().nodes.len(), before, "node ids are stable; removal tombstones");
        assert!(s.queries() == QuerySet::single(QueryId(0)));
        // The shared scan shrank; q1's select branch is gone.
        assert!(!diff.shrunk_nodes.is_empty());
        for node in &s.dag().nodes {
            if let DagOp::Select { branches } = &node.op {
                for b in branches {
                    assert!(!b.queries.contains(QueryId(1)));
                    assert!(!b.queries.is_empty());
                }
            }
            assert!(!node.queries.contains(QueryId(1)));
        }
        // A dead node's signature can never be reused: re-admitting q1
        // creates fresh nodes for its private parts.
        s.seal();
        let readd = s.admit(QueryId(1), &q1).unwrap();
        assert!(readd.created.iter().all(|id| id.0 as usize >= before || {
            // created ids may only be tombstoned slots? No: ids are
            // append-only, so every created node is brand new.
            false
        }));
    }

    #[test]
    fn removal_then_rebuild_replay_equivalence() {
        // A fresh sharer replaying the same admit/seal/admit/remove script
        // reaches an identical DAG — the from-scratch rebuild oracle.
        let c = catalog();
        let p = Expr::col(1).gt(Expr::lit(5i64));
        let plans = [agg_query(&c, Some(p.clone())), agg_query(&c, None), agg_query(&c, Some(p))];
        let script = |s: &mut IncrementalSharer| {
            s.admit(QueryId(0), &plans[0]).unwrap();
            s.admit(QueryId(1), &plans[1]).unwrap();
            s.seal();
            s.admit(QueryId(2), &plans[2]).unwrap();
            s.remove(QueryId(1)).unwrap();
        };
        let mut a = IncrementalSharer::new(MqoConfig::default());
        let mut b = IncrementalSharer::new(MqoConfig::default());
        script(&mut a);
        script(&mut b);
        assert!(dags_equal(a.dag(), b.dag()));
    }
}
