//! The typing rule of the supported algebra, one function per operator.
//!
//! Each rule takes an operator's payload and its input schema(s), checks
//! every expression against them, and returns the operator's output schema.
//! Scans and subplan inputs have no rule: their schema is the catalog's or
//! the child subplan's. [`LogicalPlan::schema`](crate::LogicalPlan::schema),
//! the [`PlanBuilder`](crate::PlanBuilder) steps,
//! [`SharedDag::validate`](crate::SharedDag::validate) and
//! [`OpTree::schema`](crate::OpTree::schema) are walks that call these rules,
//! so a plan outside the algebra is rejected at every entry point.

use crate::agg::{AggExpr, AggFunc};
use ishare_common::{DataType, Error, Result};
use ishare_expr::typecheck::{check_predicate, infer_type};
use ishare_expr::Expr;
use ishare_storage::{Field, Schema};

/// Select: every predicate is boolean over the input; the output is the
/// input.
pub fn select<'a>(input: Schema, predicates: impl IntoIterator<Item = &'a Expr>) -> Result<Schema> {
    for p in predicates {
        check_predicate(p, &input)?;
    }
    Ok(input)
}

/// Project: one output column per `(expression, name)` pair.
pub fn project(input: &Schema, exprs: &[(Expr, String)]) -> Result<Schema> {
    named(input, exprs).map(Schema::new)
}

/// Inner equi-join: at least one key, each key typed over its own side; the
/// output is the left columns then the right columns.
pub fn join(left: &Schema, right: &Schema, keys: &[(Expr, Expr)]) -> Result<Schema> {
    if keys.is_empty() {
        return Err(Error::InvalidPlan("join requires at least one equi-join key".into()));
    }
    for (lk, rk) in keys {
        infer_type(lk, left)?;
        infer_type(rk, right)?;
    }
    Ok(left.concat(right))
}

/// Group-by aggregate: the group columns, then the aggregate columns.
pub fn aggregate(input: &Schema, group_by: &[(Expr, String)], aggs: &[AggExpr]) -> Result<Schema> {
    let mut fields = named(input, group_by)?;
    for a in aggs {
        fields.push(Field::new(a.name.clone(), agg_output_type(a, input)?));
    }
    Ok(Schema::new(fields))
}

fn named(input: &Schema, exprs: &[(Expr, String)]) -> Result<Vec<Field>> {
    exprs.iter().map(|(e, name)| Ok(Field::new(name.clone(), infer_type(e, input)?))).collect()
}

/// Output type of an aggregate column.
fn agg_output_type(a: &AggExpr, input: &Schema) -> Result<DataType> {
    let in_ty = infer_type(&a.arg, input)?;
    Ok(match a.func {
        AggFunc::Count => DataType::Int,
        AggFunc::Avg => DataType::Float,
        AggFunc::Sum => match in_ty {
            DataType::Int => DataType::Int,
            _ => DataType::Float,
        },
        AggFunc::Min | AggFunc::Max => in_ty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_types() {
        let s = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("total", DataType::Float),
            Field::new("name", DataType::Str),
        ]);
        let ty = |func, col| agg_output_type(&AggExpr::new(func, Expr::col(col), "a"), &s).unwrap();
        assert_eq!(ty(AggFunc::Count, 2), DataType::Int);
        assert_eq!(ty(AggFunc::Sum, 0), DataType::Int);
        assert_eq!(ty(AggFunc::Sum, 1), DataType::Float);
        assert_eq!(ty(AggFunc::Min, 2), DataType::Str);
        assert_eq!(ty(AggFunc::Avg, 0), DataType::Float);
    }
}
