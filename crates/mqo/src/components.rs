//! Connected components of a shared plan.
//!
//! The Share-Uniform baseline (Sec. 5.2) runs each *connected* shared plan
//! at its own single pace: "Share-Uniform uses an existing MQO optimizer to
//! generate several separate shared plans, where each plan is assigned a
//! separate pace." Two queries are connected iff some subplan serves both
//! (directly or transitively).

use ishare_common::{QueryId, QuerySet};
use ishare_plan::SharedPlan;

/// Partition the plan's queries into connected components (sorted by their
/// smallest query id, members implicit in the [`QuerySet`]).
pub fn connected_components(plan: &SharedPlan) -> Vec<QuerySet> {
    let queries: Vec<QueryId> = plan.queries().iter().collect();
    let index = |q: QueryId| queries.iter().position(|&x| x == q).expect("known query");

    // Union-find over query indices.
    let mut parent: Vec<usize> = (0..queries.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for sp in &plan.subplans {
        let members: Vec<usize> = sp.queries.iter().map(index).collect();
        for w in members.windows(2) {
            let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if a != b {
                parent[a] = b;
            }
        }
    }

    let mut comps: Vec<(usize, QuerySet)> = Vec::new();
    for (i, &q) in queries.iter().enumerate() {
        let root = find(&mut parent, i);
        if let Some((_, set)) = comps.iter_mut().find(|(r, _)| *r == root) {
            set.insert(q);
        } else {
            comps.push((root, QuerySet::single(q)));
        }
    }
    let mut out: Vec<QuerySet> = comps.into_iter().map(|(_, s)| s).collect();
    out.sort_by_key(|s| s.min_query().map(|q| q.0).unwrap_or(u16::MAX));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_shared_dag, MqoConfig};
    use crate::normalize::normalize;
    use ishare_common::DataType;
    use ishare_plan::{PlanBuilder, SharedPlan};
    use ishare_storage::{Catalog, Field, Schema, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for name in ["t", "u"] {
            c.add_table(
                name,
                Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
                TableStats::unknown(10.0, 2),
            )
            .unwrap();
        }
        c
    }

    fn agg_on(c: &Catalog, table: &str) -> ishare_plan::LogicalPlan {
        normalize(
            &PlanBuilder::scan(c, table)
                .unwrap()
                .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
                .unwrap()
                .build(),
        )
    }

    #[test]
    fn sharing_connects_disjoint_tables_split() {
        let c = catalog();
        // q0 and q1 share (same query over t); q2 is alone over u.
        let dag = build_shared_dag(
            &[
                (QueryId(0), agg_on(&c, "t")),
                (QueryId(1), agg_on(&c, "t")),
                (QueryId(2), agg_on(&c, "u")),
            ],
            &c,
            &MqoConfig::default(),
        )
        .unwrap();
        let plan = SharedPlan::from_dag(&dag).unwrap();
        let comps = connected_components(&plan);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], QuerySet::from_iter([QueryId(0), QueryId(1)]));
        assert_eq!(comps[1], QuerySet::single(QueryId(2)));
    }

    #[test]
    fn no_sharing_means_singletons() {
        let c = catalog();
        let dag = build_shared_dag(
            &[(QueryId(0), agg_on(&c, "t")), (QueryId(1), agg_on(&c, "t"))],
            &c,
            &MqoConfig::no_sharing(),
        )
        .unwrap();
        let plan = SharedPlan::from_dag(&dag).unwrap();
        let comps = connected_components(&plan);
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn empty_plan() {
        let plan = SharedPlan::default();
        assert!(connected_components(&plan).is_empty());
    }
}
