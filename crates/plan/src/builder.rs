//! Ergonomic, name-resolved construction of [`LogicalPlan`]s.
//!
//! Logical plans use positional column references; writing 22 TPC-H queries
//! against raw positions would be unreadable and error-prone. The builder
//! tracks the evolving schema and resolves names to positions at build time:
//!
//! ```
//! use ishare_plan::{PlanBuilder, AggFunc};
//! use ishare_expr::Expr;
//! use ishare_storage::{Catalog, Schema, Field, TableStats};
//! use ishare_common::DataType;
//!
//! let mut catalog = Catalog::new();
//! catalog.add_table(
//!     "orders",
//!     Schema::new(vec![
//!         Field::new("o_custkey", DataType::Int),
//!         Field::new("o_total", DataType::Float),
//!     ]),
//!     TableStats::unknown(1000.0, 2),
//! ).unwrap();
//!
//! let plan = PlanBuilder::scan(&catalog, "orders").unwrap()
//!     .select(|c| Ok(c.col("o_total")?.gt(Expr::lit(100.0)))).unwrap()
//!     .aggregate(&["o_custkey"], |c| {
//!         Ok(vec![c.sum("o_total", "total")?])
//!     }).unwrap()
//!     .build();
//! assert_eq!(plan.schema(&catalog).unwrap().arity(), 2);
//! ```

use crate::agg::{AggExpr, AggFunc};
use crate::logical::LogicalPlan;
use crate::typing;
use ishare_common::{Error, Result};
use ishare_expr::Expr;
use ishare_storage::{Catalog, Schema};

/// Resolves column names against a schema inside builder closures.
pub struct Cols<'a> {
    schema: &'a Schema,
}

impl Cols<'_> {
    /// Column reference by name. Errors if missing or ambiguous.
    pub fn col(&self, name: &str) -> Result<Expr> {
        Ok(Expr::Column(self.index(name)?))
    }

    /// Position of a column by name.
    pub fn index(&self, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name)
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(Error::NotFound(format!("column `{name}`"))),
            1 => Ok(matches[0]),
            n => Err(Error::InvalidPlan(format!(
                "column `{name}` is ambiguous ({n} matches); use `alias` to disambiguate"
            ))),
        }
    }

    /// The underlying schema.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// `SUM(col) AS name` convenience.
    pub fn sum(&self, col: &str, name: &str) -> Result<AggExpr> {
        Ok(AggExpr::new(AggFunc::Sum, self.col(col)?, name))
    }

    /// `AVG(col) AS name` convenience.
    pub fn avg(&self, col: &str, name: &str) -> Result<AggExpr> {
        Ok(AggExpr::new(AggFunc::Avg, self.col(col)?, name))
    }

    /// `MIN(col) AS name` convenience.
    pub fn min(&self, col: &str, name: &str) -> Result<AggExpr> {
        Ok(AggExpr::new(AggFunc::Min, self.col(col)?, name))
    }

    /// `MAX(col) AS name` convenience.
    pub fn max(&self, col: &str, name: &str) -> Result<AggExpr> {
        Ok(AggExpr::new(AggFunc::Max, self.col(col)?, name))
    }

    /// `COUNT(col) AS name` convenience.
    pub fn count(&self, col: &str, name: &str) -> Result<AggExpr> {
        Ok(AggExpr::new(AggFunc::Count, self.col(col)?, name))
    }
}

/// A logical-plan builder carrying the current output schema.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: LogicalPlan,
    schema: Schema,
}

impl PlanBuilder {
    /// Start from a base-relation scan.
    pub fn scan(catalog: &Catalog, table: &str) -> Result<Self> {
        let t = catalog.table_by_name(table)?;
        Ok(PlanBuilder { plan: LogicalPlan::Scan { table: t.id }, schema: t.schema.clone() })
    }

    /// Rename every output column to `prefix.original` (self-join
    /// disambiguation). Inserts a pass-through project.
    pub fn alias(self, prefix: &str) -> Result<Self> {
        let exprs = self
            .schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| (Expr::Column(i), format!("{prefix}.{}", f.name)))
            .collect();
        self.project(|_| Ok(exprs))
    }

    /// Add a select (filter) whose predicate is built by `f` against the
    /// current schema.
    pub fn select(self, f: impl FnOnce(&Cols<'_>) -> Result<Expr>) -> Result<Self> {
        let predicate = f(&self.cols())?;
        let schema = typing::select(self.schema, [&predicate])?;
        Ok(PlanBuilder {
            plan: LogicalPlan::Select { input: Box::new(self.plan), predicate },
            schema,
        })
    }

    /// Add a projection; `f` returns `(expr, name)` pairs.
    pub fn project(self, f: impl FnOnce(&Cols<'_>) -> Result<Vec<(Expr, String)>>) -> Result<Self> {
        let exprs = f(&self.cols())?;
        let schema = typing::project(&self.schema, &exprs)?;
        Ok(PlanBuilder { plan: LogicalPlan::Project { input: Box::new(self.plan), exprs }, schema })
    }

    /// Keep only the named columns (in the given order).
    pub fn project_cols(self, names: &[&str]) -> Result<Self> {
        self.project(|c| names.iter().map(|n| Ok((c.col(n)?, n.to_string()))).collect())
    }

    /// Group by the named columns and compute the aggregates returned by `f`.
    pub fn aggregate(
        self,
        group_cols: &[&str],
        f: impl FnOnce(&Cols<'_>) -> Result<Vec<AggExpr>>,
    ) -> Result<Self> {
        let cols = Cols { schema: &self.schema };
        let mut group_by = Vec::with_capacity(group_cols.len());
        for name in group_cols {
            group_by.push((cols.col(name)?, name.to_string()));
        }
        let aggs = f(&cols)?;
        self.aggregate_exprs(group_by, aggs)
    }

    /// Group by arbitrary expressions.
    pub fn aggregate_exprs(
        self,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggExpr>,
    ) -> Result<Self> {
        let schema = typing::aggregate(&self.schema, &group_by, &aggs)?;
        Ok(PlanBuilder {
            plan: LogicalPlan::Aggregate { input: Box::new(self.plan), group_by, aggs },
            schema,
        })
    }

    /// Inner equi-join with `other` on `(left column, right column)` name
    /// pairs.
    pub fn join(self, other: PlanBuilder, on: &[(&str, &str)]) -> Result<Self> {
        self.join_on(other, |l, r| on.iter().map(|(a, b)| Ok((l.col(a)?, r.col(b)?))).collect())
    }

    /// Inner equi-join with arbitrary key *expressions* per side. `f`
    /// receives resolvers for the left and right schemas. Two idioms rely on
    /// this: value-equality joins (TPC-H Q15 joins revenue to its maximum)
    /// and scalar-subquery cross joins through a constant key
    /// (`lit(1) = lit(1)` against a single-row aggregate side).
    pub fn join_on(
        self,
        other: PlanBuilder,
        f: impl FnOnce(&Cols<'_>, &Cols<'_>) -> Result<Vec<(Expr, Expr)>>,
    ) -> Result<Self> {
        let keys = f(&self.cols(), &other.cols())?;
        let schema = typing::join(&self.schema, &other.schema, &keys)?;
        Ok(PlanBuilder {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
                keys,
            },
            schema,
        })
    }

    /// The current output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Access the current schema through a resolver (for building
    /// expressions outside the closures).
    pub fn cols(&self) -> Cols<'_> {
        Cols { schema: &self.schema }
    }

    /// Finish and return the plan.
    pub fn build(self) -> LogicalPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::DataType;
    use ishare_storage::{Field, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "orders",
            Schema::new(vec![
                Field::new("o_id", DataType::Int),
                Field::new("o_cust", DataType::Int),
                Field::new("o_total", DataType::Float),
            ]),
            TableStats::unknown(100.0, 3),
        )
        .unwrap();
        c.add_table(
            "customer",
            Schema::new(vec![
                Field::new("c_id", DataType::Int),
                Field::new("c_name", DataType::Str),
            ]),
            TableStats::unknown(10.0, 2),
        )
        .unwrap();
        c
    }

    #[test]
    fn end_to_end_build() {
        let c = catalog();
        let plan = PlanBuilder::scan(&c, "orders")
            .unwrap()
            .select(|x| Ok(x.col("o_total")?.gt(Expr::lit(10.0))))
            .unwrap()
            .join(PlanBuilder::scan(&c, "customer").unwrap(), &[("o_cust", "c_id")])
            .unwrap()
            .aggregate(&["c_name"], |x| Ok(vec![x.sum("o_total", "total")?]))
            .unwrap()
            .project_cols(&["c_name", "total"])
            .unwrap()
            .build();
        let s = plan.schema(&c).unwrap();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.fields()[1].name, "total");
    }

    #[test]
    fn missing_column_errors() {
        let c = catalog();
        let r = PlanBuilder::scan(&c, "orders")
            .unwrap()
            .select(|x| Ok(x.col("nope")?.gt(Expr::lit(1i64))));
        assert!(r.is_err());
        assert!(PlanBuilder::scan(&c, "missing_table").is_err());
    }

    #[test]
    fn alias_disambiguates_self_join() {
        let c = catalog();
        let l1 = PlanBuilder::scan(&c, "orders").unwrap().alias("l1").unwrap();
        let l2 = PlanBuilder::scan(&c, "orders").unwrap().alias("l2").unwrap();
        let joined = l1.join(l2, &[("l1.o_id", "l2.o_id")]).unwrap();
        // Both sides' columns visible with distinct names.
        assert!(joined.cols().col("l1.o_total").is_ok());
        assert!(joined.cols().col("l2.o_total").is_ok());
    }

    #[test]
    fn ambiguous_column_errors() {
        let c = catalog();
        let j = PlanBuilder::scan(&c, "orders")
            .unwrap()
            .join(PlanBuilder::scan(&c, "orders").unwrap(), &[("o_id", "o_id")])
            .unwrap();
        let err = j.cols().col("o_total");
        assert!(matches!(err, Err(Error::InvalidPlan(_))));
    }

    #[test]
    fn agg_helpers() {
        let c = catalog();
        let b = PlanBuilder::scan(&c, "orders").unwrap();
        let cols = b.cols();
        assert_eq!(cols.min("o_total", "m").unwrap().func, AggFunc::Min);
        assert_eq!(cols.max("o_total", "m").unwrap().func, AggFunc::Max);
        assert_eq!(cols.avg("o_total", "m").unwrap().func, AggFunc::Avg);
        assert_eq!(cols.count("o_id", "m").unwrap().func, AggFunc::Count);
        assert_eq!(cols.index("o_cust").unwrap(), 1);
    }

    #[test]
    fn join_on_arbitrary_exprs() {
        let c = catalog();
        // Scalar-subquery idiom: cross join a single-row side through a
        // constant key, then value-compare.
        let total = PlanBuilder::scan(&c, "orders")
            .unwrap()
            .aggregate(&[], |x| Ok(vec![x.sum("o_total", "grand")?]))
            .unwrap();
        let j = PlanBuilder::scan(&c, "orders")
            .unwrap()
            .join_on(total, |_, _| Ok(vec![(Expr::lit(1i64), Expr::lit(1i64))]))
            .unwrap();
        assert!(j.cols().col("grand").is_ok());
        assert_eq!(j.schema().arity(), 4);
        // Value-equality keys (the Q15 idiom).
        let max_total = PlanBuilder::scan(&c, "orders")
            .unwrap()
            .aggregate(&[], |x| Ok(vec![x.max("o_total", "m")?]))
            .unwrap();
        let q15ish = PlanBuilder::scan(&c, "orders")
            .unwrap()
            .join_on(max_total, |l, r| Ok(vec![(l.col("o_total")?, r.col("m")?)]))
            .unwrap()
            .build();
        assert!(q15ish.schema(&c).is_ok());
    }
}
