//! Naive single-query batch reference executor.
//!
//! Completely independent of the incremental shared engine: evaluates a
//! [`LogicalPlan`] over full base-table contents with plain multiset
//! operators (no deltas, no masks, no shared state). The test suites use it
//! as ground truth — every approach (any pace configuration, shared or not,
//! decomposed or not) must produce final query results identical to this.

use crate::aggregate::Accumulator;
use ishare_common::{DataType, Error, Result, TableId, Value, WorkCounter};
use ishare_expr::eval::{eval, eval_predicate};
use ishare_plan::LogicalPlan;
use ishare_storage::{Catalog, Row};
use std::collections::HashMap;

/// A multiset of output rows (row → multiplicity).
pub type RowMultiset = HashMap<Row, i64>;

/// Evaluate `plan` over `data` (full contents per base table).
pub fn run_logical(
    plan: &LogicalPlan,
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<Row>>,
) -> Result<RowMultiset> {
    let rows = eval_plan(plan, catalog, data)?;
    let mut out = RowMultiset::new();
    for r in rows {
        *out.entry(r).or_insert(0) += 1;
    }
    out.retain(|_, w| *w != 0);
    Ok(out)
}

fn eval_plan(
    plan: &LogicalPlan,
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<Row>>,
) -> Result<Vec<Row>> {
    match plan {
        LogicalPlan::Scan { table } => Ok(data.get(table).cloned().unwrap_or_default()),
        LogicalPlan::Select { input, predicate } => {
            let rows = eval_plan(input, catalog, data)?;
            let mut out = Vec::new();
            for r in rows {
                if eval_predicate(predicate, &r)? {
                    out.push(r);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs } => {
            let rows = eval_plan(input, catalog, data)?;
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let mut vals = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    vals.push(eval(e, &r)?);
                }
                out.push(Row::new(vals));
            }
            Ok(out)
        }
        LogicalPlan::Join { left, right, keys } => {
            let lrows = eval_plan(left, catalog, data)?;
            let rrows = eval_plan(right, catalog, data)?;
            // Hash the right side.
            let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
            'right: for r in &rrows {
                let mut key = Vec::with_capacity(keys.len());
                for (_, rk) in keys {
                    let v = eval(rk, r)?;
                    if v.is_null() {
                        continue 'right;
                    }
                    key.push(v);
                }
                table.entry(key).or_default().push(r);
            }
            let mut out = Vec::new();
            'left: for l in &lrows {
                let mut key = Vec::with_capacity(keys.len());
                for (lk, _) in keys {
                    let v = eval(lk, l)?;
                    if v.is_null() {
                        continue 'left;
                    }
                    key.push(v);
                }
                if let Some(matches) = table.get(&key) {
                    for r in matches {
                        out.push(l.concat(r));
                    }
                }
            }
            Ok(out)
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            let in_schema = input.schema(catalog)?;
            let rows = eval_plan(input, catalog, data)?;
            let counter = WorkCounter::new(); // reference executor: work discarded
            let weights = ishare_common::CostWeights::default();
            let mut int_flags = Vec::with_capacity(aggs.len());
            for a in aggs {
                let ty = ishare_expr::typecheck::infer_type(&a.arg, &in_schema)?;
                int_flags.push(ty == DataType::Int);
            }
            let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
            let mut order: Vec<Vec<Value>> = Vec::new();
            for r in &rows {
                let mut key = Vec::with_capacity(group_by.len());
                for (e, _) in group_by {
                    key.push(eval(e, r)?);
                }
                let accs = groups.entry(key.clone()).or_insert_with(|| {
                    order.push(key.clone());
                    aggs.iter()
                        .zip(&int_flags)
                        .map(|(a, &int)| Accumulator::new(a.func, int))
                        .collect()
                });
                for (acc, a) in accs.iter_mut().zip(aggs) {
                    let v = eval(&a.arg, r)?;
                    acc.update(&v, 1, &weights, &counter)?;
                }
            }
            let mut out = Vec::with_capacity(groups.len());
            for key in order {
                let accs = groups
                    .get(&key)
                    .ok_or_else(|| Error::InvalidPlan("aggregate group vanished".into()))?;
                let mut vals = key.clone();
                vals.extend(accs.iter().map(|a| a.value()));
                out.push(Row::new(vals));
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, PlanBuilder};
    use ishare_storage::{Field, Schema, TableStats};

    fn setup() -> (Catalog, HashMap<TableId, Vec<Row>>) {
        let mut c = Catalog::new();
        let orders = c
            .add_table(
                "orders",
                Schema::new(vec![
                    Field::new("o_cust", DataType::Int),
                    Field::new("o_total", DataType::Int),
                ]),
                TableStats::unknown(4.0, 2),
            )
            .unwrap();
        let cust = c
            .add_table(
                "customer",
                Schema::new(vec![
                    Field::new("c_id", DataType::Int),
                    Field::new("c_name", DataType::Str),
                ]),
                TableStats::unknown(2.0, 2),
            )
            .unwrap();
        let mut data = HashMap::new();
        data.insert(
            orders,
            vec![
                Row::new(vec![Value::Int(1), Value::Int(10)]),
                Row::new(vec![Value::Int(1), Value::Int(20)]),
                Row::new(vec![Value::Int(2), Value::Int(5)]),
                Row::new(vec![Value::Int(3), Value::Int(7)]), // no matching customer
            ],
        );
        data.insert(
            cust,
            vec![
                Row::new(vec![Value::Int(1), Value::str("ann")]),
                Row::new(vec![Value::Int(2), Value::str("bob")]),
            ],
        );
        (c, data)
    }

    #[test]
    fn join_aggregate_reference() {
        let (c, data) = setup();
        let plan = PlanBuilder::scan(&c, "orders")
            .unwrap()
            .join(PlanBuilder::scan(&c, "customer").unwrap(), &[("o_cust", "c_id")])
            .unwrap()
            .aggregate(&["c_name"], |x| Ok(vec![x.sum("o_total", "t")?]))
            .unwrap()
            .build();
        let out = run_logical(&plan, &c, &data).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[&Row::new(vec![Value::str("ann"), Value::Int(30)])], 1);
        assert_eq!(out[&Row::new(vec![Value::str("bob"), Value::Int(5)])], 1);
    }

    #[test]
    fn select_and_project_reference() {
        let (c, data) = setup();
        let plan = PlanBuilder::scan(&c, "orders")
            .unwrap()
            .select(|x| Ok(x.col("o_total")?.ge(Expr::lit(10i64))))
            .unwrap()
            .project(|x| Ok(vec![(x.col("o_cust")?, "c".into())]))
            .unwrap()
            .build();
        let out = run_logical(&plan, &c, &data).unwrap();
        // Two rows for customer 1 survive (multiset multiplicity 2).
        assert_eq!(out[&Row::new(vec![Value::Int(1)])], 2);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn global_aggregate_reference() {
        let (c, data) = setup();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(PlanBuilder::scan(&c, "orders").unwrap().build()),
            group_by: vec![],
            aggs: vec![AggExpr::count_star("n"), AggExpr::new(AggFunc::Max, Expr::col(1), "mx")],
        };
        let out = run_logical(&plan, &c, &data).unwrap();
        assert_eq!(out.len(), 1);
        let row = out.keys().next().unwrap();
        assert_eq!(row.values()[..], [Value::Int(4), Value::Int(20)]);
    }

    #[test]
    fn missing_table_is_empty() {
        let (c, _) = setup();
        let plan = PlanBuilder::scan(&c, "orders").unwrap().build();
        let out = run_logical(&plan, &c, &HashMap::new()).unwrap();
        assert!(out.is_empty());
    }
}
