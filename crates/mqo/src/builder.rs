//! Signature-based hash-consing of normalized query plans into a
//! [`SharedDag`].

use ishare_common::{QueryId, Result};
use ishare_plan::{LogicalPlan, SharedDag};
use ishare_storage::Catalog;

/// Configuration of the MQO pass.
#[derive(Debug, Clone)]
pub struct MqoConfig {
    /// Share equal-signature subplans across queries. Disabling yields the
    /// NoShare baselines' plans (each query fully private) in the same
    /// [`SharedDag`] representation.
    pub enable_sharing: bool,
    /// Minimum operator count of a subtree for it to be shared. Subtrees
    /// smaller than this get query-private nodes even when signatures match
    /// — the materialization-cost guard the paper adds to its MQO optimizer
    /// ("we extend this optimizer to account for the materialization cost of
    /// intermediate tuples", Sec. 5.1). `1` shares everything.
    pub min_shared_ops: usize,
}

impl Default for MqoConfig {
    fn default() -> Self {
        MqoConfig { enable_sharing: true, min_shared_ops: 1 }
    }
}

impl MqoConfig {
    /// Configuration producing fully private plans (NoShare baselines).
    pub fn no_sharing() -> Self {
        MqoConfig { enable_sharing: false, min_shared_ops: 1 }
    }
}

/// Merge normalized query plans into a shared DAG.
///
/// Every query should be normalized first ([`crate::normalize()`]); the caller
/// keeps control so tests can exercise non-normalized shapes.
///
/// This is a thin replay over [`crate::IncrementalSharer`]: each query is
/// admitted in order against a fresh (unsealed) sharer, so a batch build and
/// an incremental admission sequence over the same queries produce the same
/// DAG by construction.
pub fn build_shared_dag(
    queries: &[(QueryId, LogicalPlan)],
    catalog: &Catalog,
    config: &MqoConfig,
) -> Result<SharedDag> {
    let mut sharer = crate::IncrementalSharer::new(config.clone());
    for (q, plan) in queries {
        sharer.admit(*q, plan)?;
    }
    let dag = sharer.into_dag();
    dag.validate(catalog)?;
    Ok(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use ishare_common::DataType;
    use ishare_expr::Expr;
    use ishare_plan::{DagOp, PlanBuilder, SharedPlan};
    use ishare_storage::{Field, Schema, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats::unknown(100.0, 2),
        )
        .unwrap();
        c.add_table(
            "u",
            Schema::new(vec![Field::new("uk", DataType::Int), Field::new("w", DataType::Int)]),
            TableStats::unknown(50.0, 2),
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

    #[test]
    fn identical_structure_different_predicates_share() {
        let c = catalog();
        let q0 = agg_query(&c, None);
        let q1 = agg_query(&c, Some(Expr::col(1).gt(Expr::lit(5i64))));
        let dag =
            build_shared_dag(&[(QueryId(0), q0), (QueryId(1), q1)], &c, &MqoConfig::default())
                .unwrap();
        // One scan, one shared select with two branches, one shared agg,
        // plus the pass-through select normalization puts above the root.
        assert_eq!(dag.nodes.len(), 4);
        let sel = dag.nodes.iter().find(|n| matches!(n.op, DagOp::Select { .. })).unwrap();
        if let DagOp::Select { branches } = &sel.op {
            assert_eq!(branches.len(), 2);
        }
        assert_eq!(sel.queries.len(), 2);
        // Both queries root at the same aggregate node.
        assert_eq!(dag.query_roots[0].1, dag.query_roots[1].1);
    }

    #[test]
    fn identical_predicates_coalesce_into_one_branch() {
        let c = catalog();
        let p = Expr::col(1).gt(Expr::lit(5i64));
        let q0 = agg_query(&c, Some(p.clone()));
        let q1 = agg_query(&c, Some(p));
        let dag =
            build_shared_dag(&[(QueryId(0), q0), (QueryId(1), q1)], &c, &MqoConfig::default())
                .unwrap();
        let sel = dag.nodes.iter().find(|n| matches!(n.op, DagOp::Select { .. })).unwrap();
        if let DagOp::Select { branches } = &sel.op {
            assert_eq!(branches.len(), 1);
            assert_eq!(branches[0].queries.len(), 2);
        }
    }

    #[test]
    fn different_aggregates_do_not_share() {
        let c = catalog();
        let q0 = agg_query(&c, None);
        let q1 = normalize(
            &PlanBuilder::scan(&c, "t")
                .unwrap()
                .aggregate(&["k"], |x| Ok(vec![x.max("v", "m")?]))
                .unwrap()
                .build(),
        );
        let dag =
            build_shared_dag(&[(QueryId(0), q0), (QueryId(1), q1)], &c, &MqoConfig::default())
                .unwrap();
        // Scan and select shared; two distinct aggregate nodes.
        let aggs: Vec<_> =
            dag.nodes.iter().filter(|n| matches!(n.op, DagOp::Aggregate { .. })).collect();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].queries.len(), 1);
    }

    #[test]
    fn no_sharing_config_keeps_queries_private() {
        let c = catalog();
        let q0 = agg_query(&c, None);
        let q1 = agg_query(&c, None);
        let dag =
            build_shared_dag(&[(QueryId(0), q0), (QueryId(1), q1)], &c, &MqoConfig::no_sharing())
                .unwrap();
        // 4 normalized ops per query (scan, select, agg, top select), all
        // private.
        assert_eq!(dag.nodes.len(), 8, "every node private per query");
        for n in &dag.nodes {
            assert_eq!(n.queries.len(), 1);
        }
    }

    #[test]
    fn min_shared_ops_guard() {
        let c = catalog();
        let q0 = agg_query(&c, None);
        let q1 = agg_query(&c, None);
        // Subtrees smaller than 3 ops stay private: the scan (1) and select
        // (2) do not merge; the aggregate (3 ops) would be shareable, but
        // its children are private per query, so its signatures differ and
        // nothing merges at all — 4 normalized ops × 2 queries.
        let dag = build_shared_dag(
            &[(QueryId(0), q0), (QueryId(1), q1)],
            &c,
            &MqoConfig { enable_sharing: true, min_shared_ops: 3 },
        )
        .unwrap();
        assert_eq!(dag.nodes.len(), 8);
    }

    #[test]
    fn joins_share_when_keys_match() {
        let c = catalog();
        let mk = |pred: Option<Expr>| {
            let mut t = PlanBuilder::scan(&c, "t").unwrap();
            if let Some(p) = pred {
                t = t.select(move |_| Ok(p)).unwrap();
            }
            normalize(
                &t.join(PlanBuilder::scan(&c, "u").unwrap(), &[("k", "uk")])
                    .unwrap()
                    .aggregate(&["k"], |x| Ok(vec![x.sum("w", "sw")?]))
                    .unwrap()
                    .build(),
            )
        };
        let dag = build_shared_dag(
            &[(QueryId(0), mk(None)), (QueryId(1), mk(Some(Expr::col(1).lt(Expr::lit(3i64)))))],
            &c,
            &MqoConfig::default(),
        )
        .unwrap();
        let join = dag.nodes.iter().find(|n| matches!(n.op, DagOp::Join { .. })).unwrap();
        assert_eq!(join.queries.len(), 2, "join shared across both queries");
        // End-to-end: the DAG converts into a valid shared plan.
        let plan = SharedPlan::from_dag(&dag).unwrap();
        plan.validate(&c).unwrap();
    }

    #[test]
    fn self_join_with_different_predicates_stays_correct() {
        // A single query selecting the same table twice with different
        // predicates: the two selects must NOT merge (their branches would
        // overlap on the query), while the scan may be a shared diamond.
        let c = catalog();
        let left = PlanBuilder::scan(&c, "t")
            .unwrap()
            .select(|x| Ok(x.col("v")?.gt(Expr::lit(5i64))))
            .unwrap();
        let right = PlanBuilder::scan(&c, "t")
            .unwrap()
            .select(|x| Ok(x.col("v")?.lt(Expr::lit(2i64))))
            .unwrap()
            .alias("r")
            .unwrap();
        let q = normalize(
            &left
                .join(right, &[("k", "r.k")])
                .unwrap()
                .aggregate(&["k"], |_| Ok(vec![ishare_plan::AggExpr::count_star("n")]))
                .unwrap()
                .build(),
        );
        let dag = build_shared_dag(&[(QueryId(0), q)], &c, &MqoConfig::default()).unwrap();
        // validate() checks branch partitions; this is the regression the
        // occurrence index prevents.
        let selects: Vec<_> =
            dag.nodes.iter().filter(|n| matches!(n.op, DagOp::Select { .. })).collect();
        assert!(selects.len() >= 2, "the two filters stay separate nodes");
        let scans: Vec<_> =
            dag.nodes.iter().filter(|n| matches!(n.op, DagOp::Scan { .. })).collect();
        assert_eq!(scans.len(), 1, "the scan is a shared diamond");
    }

    #[test]
    fn self_join_with_same_predicate_reuses_node() {
        let c = catalog();
        let p = Expr::col(1).gt(Expr::lit(5i64));
        let pc = p.clone();
        let left = PlanBuilder::scan(&c, "t").unwrap().select(move |_| Ok(p)).unwrap();
        let right = PlanBuilder::scan(&c, "t")
            .unwrap()
            .select(move |_| Ok(pc))
            .unwrap()
            .alias("r")
            .unwrap();
        let q = normalize(
            &left
                .join(right, &[("k", "r.k")])
                .unwrap()
                .aggregate(&["k"], |_| Ok(vec![ishare_plan::AggExpr::count_star("n")]))
                .unwrap()
                .build(),
        );
        let dag = build_shared_dag(&[(QueryId(0), q)], &c, &MqoConfig::default()).unwrap();
        // Identical subtrees collapse into a diamond: one scan, and exactly
        // one select carrying the (shared) non-trivial predicate.
        let scans = dag.nodes.iter().filter(|n| matches!(n.op, DagOp::Scan { .. })).count();
        assert_eq!(scans, 1);
        let filter_selects = dag
            .nodes
            .iter()
            .filter(|n| match &n.op {
                DagOp::Select { branches } => branches.iter().any(|b| !b.predicate.is_true_lit()),
                _ => false,
            })
            .count();
        assert_eq!(filter_selects, 1, "identical filter selects form a diamond");
    }

    #[test]
    fn shared_roots_serve_both_queries() {
        let c = catalog();
        let q0 = agg_query(&c, None);
        let q1 = agg_query(&c, None);
        let dag =
            build_shared_dag(&[(QueryId(0), q0), (QueryId(1), q1)], &c, &MqoConfig::default())
                .unwrap();
        let plan = SharedPlan::from_dag(&dag).unwrap();
        plan.validate(&c).unwrap();
        let r0 = plan.query_root(QueryId(0)).unwrap();
        let r1 = plan.query_root(QueryId(1)).unwrap();
        assert_eq!(r0, r1, "identical queries share one output subplan");
    }
}
