//! Final work constraints (Sec. 2.1).
//!
//! "The final work constraint of a query can be specified as an absolute
//! number of units of work based on a cost model (i.e. absolute final work
//! constraint) or a relative value defined as the ratio between the final
//! work users want to achieve and the final work of separately executing the
//! query in one batch (i.e. relative final work constraint)."

use ishare_common::{CostWeights, QueryId, Result};
use ishare_cost::PlanEstimator;
use ishare_mqo::{build_shared_dag, MqoConfig};
use ishare_plan::{LogicalPlan, SharedPlan};
use ishare_storage::Catalog;
use std::collections::BTreeMap;

/// A per-query latency goal, expressed in cost-model work units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FinalWorkConstraint {
    /// Absolute bound on the query's final work.
    Absolute(f64),
    /// Fraction of the query's *batch* final work (executing the query
    /// separately in one batch). `Relative(1.0)` asks for batch latency;
    /// `Relative(0.1)` asks for a 10× lower final work.
    Relative(f64),
}

impl FinalWorkConstraint {
    /// Resolve against the query's batch final work.
    pub fn resolve(self, batch_final: f64) -> f64 {
        match self {
            FinalWorkConstraint::Absolute(w) => w,
            FinalWorkConstraint::Relative(r) => r * batch_final,
        }
    }
}

/// Resolved absolute constraints per query — L(q) in the paper's formulas.
pub type ConstraintMap = BTreeMap<QueryId, f64>;

/// Estimated batch final work per query: the cost of executing each query
/// separately in one batch (the denominator of relative constraints, and the
/// quantity the evaluation's latency goals are derived from).
pub fn batch_final_works(
    queries: &[(QueryId, LogicalPlan)],
    catalog: &Catalog,
    weights: CostWeights,
) -> Result<BTreeMap<QueryId, f64>> {
    let mut out = BTreeMap::new();
    for (q, plan) in queries {
        let normalized = ishare_mqo::normalize(plan);
        let dag = build_shared_dag(&[(*q, normalized)], catalog, &MqoConfig::no_sharing())?;
        let shared = SharedPlan::from_dag(&dag)?;
        let mut est = PlanEstimator::new(&shared, catalog, weights)?;
        let report = est.estimate(&vec![1; shared.len()])?;
        out.insert(*q, report.final_of(*q).get());
    }
    Ok(out)
}

/// Resolve per-query constraints to absolute work bounds.
pub fn resolve_constraints(
    queries: &[(QueryId, LogicalPlan)],
    constraints: &BTreeMap<QueryId, FinalWorkConstraint>,
    catalog: &Catalog,
    weights: CostWeights,
) -> Result<ConstraintMap> {
    // Queries without an explicit constraint default to Relative(1.0), so a
    // missing entry also needs the batch baseline.
    let needs_batch = queries
        .iter()
        .any(|(q, _)| !matches!(constraints.get(q), Some(FinalWorkConstraint::Absolute(_))));
    let batch =
        if needs_batch { batch_final_works(queries, catalog, weights)? } else { BTreeMap::new() };
    Ok(resolve_against(queries, constraints, &batch))
}

/// [`resolve_constraints`] against batch final works the caller already
/// computed with [`batch_final_works`].
pub(crate) fn resolve_against(
    queries: &[(QueryId, LogicalPlan)],
    constraints: &BTreeMap<QueryId, FinalWorkConstraint>,
    batch: &BTreeMap<QueryId, f64>,
) -> ConstraintMap {
    queries
        .iter()
        .map(|(q, _)| {
            let c = constraints.get(q).copied().unwrap_or(FinalWorkConstraint::Relative(1.0));
            (*q, c.resolve(batch.get(q).copied().unwrap_or(0.0)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::DataType;
    use ishare_plan::PlanBuilder;
    use ishare_storage::{ColumnStats, Field, Schema, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 1000.0,
                columns: vec![ColumnStats::ndv(20.0), ColumnStats::ndv(500.0)],
            },
        )
        .unwrap();
        c
    }

    fn query(c: &Catalog) -> LogicalPlan {
        PlanBuilder::scan(c, "t")
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .build()
    }

    #[test]
    fn resolve_forms() {
        assert_eq!(FinalWorkConstraint::Absolute(42.0).resolve(1000.0), 42.0);
        assert_eq!(FinalWorkConstraint::Relative(0.1).resolve(1000.0), 100.0);
    }

    #[test]
    fn batch_final_work_positive_and_scales() {
        let c = catalog();
        let qs = vec![(QueryId(0), query(&c))];
        let batch = batch_final_works(&qs, &c, CostWeights::default()).unwrap();
        assert!(batch[&QueryId(0)] > 0.0);
    }

    #[test]
    fn resolve_constraints_mixed() {
        let c = catalog();
        let qs = vec![(QueryId(0), query(&c)), (QueryId(1), query(&c))];
        let mut cons = BTreeMap::new();
        cons.insert(QueryId(0), FinalWorkConstraint::Relative(0.5));
        cons.insert(QueryId(1), FinalWorkConstraint::Absolute(7.0));
        let resolved = resolve_constraints(&qs, &cons, &c, CostWeights::default()).unwrap();
        let batch = batch_final_works(&qs, &c, CostWeights::default()).unwrap();
        assert!((resolved[&QueryId(0)] - 0.5 * batch[&QueryId(0)]).abs() < 1e-9);
        assert_eq!(resolved[&QueryId(1)], 7.0);
    }

    #[test]
    fn missing_constraint_defaults_to_relative_one() {
        let c = catalog();
        let qs = vec![(QueryId(0), query(&c))];
        let resolved =
            resolve_constraints(&qs, &BTreeMap::new(), &c, CostWeights::default()).unwrap();
        let batch = batch_final_works(&qs, &c, CostWeights::default()).unwrap();
        assert!((resolved[&QueryId(0)] - batch[&QueryId(0)]).abs() < 1e-9);
    }
}
