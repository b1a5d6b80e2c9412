//! Single-query logical plans.

use crate::agg::AggExpr;
use crate::typing;
use ishare_common::{Result, TableId};
use ishare_expr::Expr;
use ishare_storage::{Catalog, Schema};

/// One query's operator tree over the algebra the paper's prototype supports
/// (Sec. 2.3): scan, select, project, group-by aggregate, inner equi-join.
///
/// Select predicates and projections may differ between otherwise-identical
/// plans without destroying sharability; everything else (join keys,
/// aggregate specifications, tree shape) must match exactly for two subplans
/// to be shared.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a base relation's delta log.
    Scan {
        /// The relation.
        table: TableId,
    },
    /// Filter rows by a predicate.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate over the input schema.
        predicate: Expr,
    },
    /// Compute output columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Group-by aggregation. Output layout: group columns then aggregate
    /// columns, in declaration order.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` group keys (may be empty for a global
        /// aggregate).
        group_by: Vec<(Expr, String)>,
        /// Aggregate columns.
        aggs: Vec<AggExpr>,
    },
    /// Inner equi-join. Output layout: left columns then right columns.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Equi-join keys: `(left expression, right expression)`, each over
        /// its own side's schema.
        keys: Vec<(Expr, Expr)>,
    },
}

impl LogicalPlan {
    /// Output schema of this plan over `catalog`, validating expression
    /// types and column bounds along the way (the rules of
    /// [`typing`]).
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        match self {
            LogicalPlan::Scan { table } => Ok(catalog.table(*table)?.schema.clone()),
            LogicalPlan::Select { input, predicate } => {
                typing::select(input.schema(catalog)?, [predicate])
            }
            LogicalPlan::Project { input, exprs } => {
                typing::project(&input.schema(catalog)?, exprs)
            }
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                typing::aggregate(&input.schema(catalog)?, group_by, aggs)
            }
            LogicalPlan::Join { left, right, keys } => {
                typing::join(&left.schema(catalog)?, &right.schema(catalog)?, keys)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::{DagOp, PlanBuilder, SelectBranch, SharedDag, SharedPlan};
    use ishare_common::{DataType, NodeId, QueryId, QuerySet};
    use ishare_storage::{Field, TableStats};

    fn catalog() -> (Catalog, TableId, TableId) {
        let mut c = Catalog::new();
        let orders = c
            .add_table(
                "orders",
                Schema::new(vec![
                    Field::new("o_id", DataType::Int),
                    Field::new("o_cust", DataType::Int),
                    Field::new("o_total", DataType::Float),
                ]),
                TableStats::unknown(100.0, 3),
            )
            .unwrap();
        let cust = c
            .add_table(
                "customer",
                Schema::new(vec![
                    Field::new("c_id", DataType::Int),
                    Field::new("c_name", DataType::Str),
                ]),
                TableStats::unknown(10.0, 2),
            )
            .unwrap();
        (c, orders, cust)
    }

    fn sample_plan(orders: TableId, cust: TableId) -> LogicalPlan {
        // SELECT c_name, sum(o_total) FROM orders JOIN customer ON o_cust=c_id
        // WHERE o_total > 10 GROUP BY c_name
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(LogicalPlan::Select {
                    input: Box::new(LogicalPlan::Scan { table: orders }),
                    predicate: Expr::col(2).gt(Expr::lit(10.0)),
                }),
                right: Box::new(LogicalPlan::Scan { table: cust }),
                keys: vec![(Expr::col(1), Expr::col(0))],
            }),
            group_by: vec![(Expr::col(4), "c_name".into())],
            aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(2), "total")],
        }
    }

    /// Replays `p` through the builder's steps.
    fn build(p: &LogicalPlan, c: &Catalog) -> Result<PlanBuilder> {
        match p {
            LogicalPlan::Scan { table } => PlanBuilder::scan(c, &c.table(*table)?.name),
            LogicalPlan::Select { input, predicate } => {
                build(input, c)?.select(|_| Ok(predicate.clone()))
            }
            LogicalPlan::Project { input, exprs } => {
                build(input, c)?.project(|_| Ok(exprs.clone()))
            }
            LogicalPlan::Aggregate { input, group_by, aggs } => {
                build(input, c)?.aggregate_exprs(group_by.clone(), aggs.clone())
            }
            LogicalPlan::Join { left, right, keys } => {
                build(left, c)?.join_on(build(right, c)?, |_, _| Ok(keys.clone()))
            }
        }
    }

    /// Lowers `p` to a one-query DAG, bottom-up.
    fn lower(p: &LogicalPlan, d: &mut SharedDag) -> NodeId {
        let q = QuerySet::single(QueryId(0));
        let (op, children) = match p {
            LogicalPlan::Scan { table } => (DagOp::Input(*table), vec![]),
            LogicalPlan::Select { input, predicate } => {
                let branches = vec![SelectBranch { queries: q, predicate: predicate.clone() }];
                (DagOp::Select { branches }, vec![lower(input, d)])
            }
            LogicalPlan::Project { input, exprs } => {
                (DagOp::Project { exprs: exprs.clone() }, vec![lower(input, d)])
            }
            LogicalPlan::Aggregate { input, group_by, aggs } => (
                DagOp::Aggregate { group_by: group_by.clone(), aggs: aggs.clone() },
                vec![lower(input, d)],
            ),
            LogicalPlan::Join { left, right, keys } => {
                (DagOp::Join { keys: keys.clone() }, vec![lower(left, d), lower(right, d)])
            }
        };
        d.add_node(op, children, q).unwrap()
    }

    /// `p` typed by all four entry points: the builder, the plan, the DAG
    /// and the subplans.
    fn entry_points(p: &LogicalPlan, c: &Catalog) -> [Result<Schema>; 4] {
        let mut dag = SharedDag::new();
        let node = lower(p, &mut dag);
        dag.set_query_root(QueryId(0), node).unwrap();
        let plan = SharedPlan::from_dag(&dag).unwrap();
        let sp = plan.query_root(QueryId(0)).unwrap();
        [
            build(p, c).map(|b| b.schema().clone()),
            p.schema(c),
            dag.validate(c).and_then(|()| Ok(dag.schemas(c)?[&node].clone())),
            plan.validate(c).and_then(|()| Ok(plan.schemas(c)?[&sp].clone())),
        ]
    }

    #[test]
    fn schema_computation() {
        let (c, orders, cust) = catalog();
        let p = sample_plan(orders, cust);
        let s = p.schema(&c).unwrap();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.fields()[0].name, "c_name");
        assert_eq!(s.fields()[0].ty, DataType::Str);
        assert_eq!(s.fields()[1].name, "total");
        assert_eq!(s.fields()[1].ty, DataType::Float);
        for (i, r) in entry_points(&p, &c).into_iter().enumerate() {
            assert_eq!(r.unwrap(), s, "entry point {i}");
        }
    }

    #[test]
    fn invalid_plans_rejected() {
        let (c, orders, cust) = catalog();
        let scan = |table| Box::new(LogicalPlan::Scan { table });
        let cases = [
            (
                "out-of-range column",
                LogicalPlan::Select {
                    input: scan(orders),
                    predicate: Expr::col(9).eq(Expr::lit(1i64)),
                },
            ),
            (
                "non-boolean predicate",
                LogicalPlan::Select { input: scan(orders), predicate: Expr::col(0) },
            ),
            (
                "keyless join",
                LogicalPlan::Join { left: scan(orders), right: scan(cust), keys: vec![] },
            ),
        ];
        let names = ["PlanBuilder", "LogicalPlan::schema", "SharedDag", "SharedPlan"];
        for (case, p) in &cases {
            for (name, r) in names.iter().zip(entry_points(p, &c)) {
                assert!(r.is_err(), "{name} accepted a plan with a {case}");
            }
        }
    }
}
