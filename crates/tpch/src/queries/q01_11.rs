//! TPC-H Q1–Q11.

use ishare_common::{date, Result};
use ishare_expr::{Expr, LikePattern};
use ishare_plan::{AggExpr, AggFunc, LogicalPlan, PlanBuilder};
use ishare_storage::Catalog;

fn scan(c: &Catalog, t: &str) -> Result<PlanBuilder> {
    PlanBuilder::scan(c, t)
}

/// Q1: pricing summary report.
pub fn q1(c: &Catalog) -> Result<LogicalPlan> {
    // REWRITE: ORDER BY dropped.
    scan(c, "lineitem")?
        .select(|x| Ok(x.col("l_shipdate")?.le(Expr::lit(date("1998-09-02")))))?
        .aggregate(&["l_returnflag", "l_linestatus"], |x| {
            let price = x.col("l_extendedprice")?;
            let disc = x.col("l_discount")?;
            let tax = x.col("l_tax")?;
            let disc_price = price.clone().mul(Expr::lit(1.0).sub(disc.clone()));
            let charge = disc_price.clone().mul(Expr::lit(1.0).add(tax));
            Ok(vec![
                x.sum("l_quantity", "sum_qty")?,
                x.sum("l_extendedprice", "sum_base_price")?,
                AggExpr::new(AggFunc::Sum, disc_price, "sum_disc_price"),
                AggExpr::new(AggFunc::Sum, charge, "sum_charge"),
                x.avg("l_quantity", "avg_qty")?,
                x.avg("l_extendedprice", "avg_price")?,
                x.avg("l_discount", "avg_disc")?,
                AggExpr::count_star("count_order"),
            ])
        })
        .map(PlanBuilder::build)
}

/// Q2: minimum cost supplier.
pub fn q2(c: &Catalog) -> Result<LogicalPlan> {
    // REWRITE: the correlated min-cost subquery becomes an aggregate joined
    // back on partkey; the supplier-detail re-join and ORDER BY/LIMIT are
    // dropped (the maintained work is the min-cost aggregation).
    let min_cost = scan(c, "partsupp")?
        .join(scan(c, "supplier")?, &[("ps_suppkey", "s_suppkey")])?
        .join(scan(c, "nation")?, &[("s_nationkey", "n_nationkey")])?
        .join(
            scan(c, "region")?.select(|x| Ok(x.col("r_name")?.eq(Expr::lit("EUROPE"))))?,
            &[("n_regionkey", "r_regionkey")],
        )?
        .aggregate(&["ps_partkey"], |x| Ok(vec![x.min("ps_supplycost", "min_cost")?]))?;
    scan(c, "part")?
        .select(|x| {
            Ok(x.col("p_size")?
                .eq(Expr::lit(15i64))
                .and(x.col("p_type")?.like(LikePattern::Suffix("BRASS".into()))))
        })?
        .join(min_cost, &[("p_partkey", "ps_partkey")])?
        .project_cols(&["p_partkey", "p_mfgr", "min_cost"])
        .map(PlanBuilder::build)
}

/// Q3: shipping priority.
pub fn q3(c: &Catalog) -> Result<LogicalPlan> {
    // REWRITE: ORDER BY/LIMIT dropped. Joins follow the workload's
    // canonical lineitem → orders → customer spine so the MQO optimizer can
    // share the join core across queries (the paper's optimizer [17] picks
    // join orders jointly over the whole workload; our signature-based one
    // needs the queries authored consistently — DESIGN.md §5).
    scan(c, "lineitem")?
        .select(|x| Ok(x.col("l_shipdate")?.gt(Expr::lit(date("1995-03-15")))))?
        .join(
            scan(c, "orders")?
                .select(|x| Ok(x.col("o_orderdate")?.lt(Expr::lit(date("1995-03-15")))))?,
            &[("l_orderkey", "o_orderkey")],
        )?
        .join(
            scan(c, "customer")?
                .select(|x| Ok(x.col("c_mktsegment")?.eq(Expr::lit("BUILDING"))))?,
            &[("o_custkey", "c_custkey")],
        )?
        .aggregate(&["l_orderkey", "o_orderdate", "o_shippriority"], |x| {
            let rev = x.col("l_extendedprice")?.mul(Expr::lit(1.0).sub(x.col("l_discount")?));
            Ok(vec![AggExpr::new(AggFunc::Sum, rev, "revenue")])
        })
        .map(PlanBuilder::build)
}

/// Q4: order priority checking.
pub fn q4(c: &Catalog) -> Result<LogicalPlan> {
    // REWRITE: EXISTS(lineitem …) becomes an aggregate on l_orderkey (one
    // row per qualifying order — exact semi-join) joined to orders.
    let qualifying = scan(c, "lineitem")?
        .select(|x| Ok(x.col("l_commitdate")?.lt(x.col("l_receiptdate")?)))?
        .aggregate(&["l_orderkey"], |_| Ok(vec![AggExpr::count_star("n_lines")]))?;
    scan(c, "orders")?
        .select(|x| {
            Ok(x.col("o_orderdate")?
                .ge(Expr::lit(date("1993-07-01")))
                .and(x.col("o_orderdate")?.lt(Expr::lit(date("1993-10-01")))))
        })?
        .join(qualifying, &[("o_orderkey", "l_orderkey")])?
        .aggregate(&["o_orderpriority"], |_| Ok(vec![AggExpr::count_star("order_count")]))
        .map(PlanBuilder::build)
}

/// Q5: local supplier volume.
pub fn q5(c: &Catalog) -> Result<LogicalPlan> {
    // Canonical lineitem → orders → customer → supplier spine (see q3).
    scan(c, "lineitem")?
        .join(
            scan(c, "orders")?.select(|x| {
                Ok(x.col("o_orderdate")?
                    .ge(Expr::lit(date("1994-01-01")))
                    .and(x.col("o_orderdate")?.lt(Expr::lit(date("1995-01-01")))))
            })?,
            &[("l_orderkey", "o_orderkey")],
        )?
        .join(scan(c, "customer")?, &[("o_custkey", "c_custkey")])?
        .join(scan(c, "supplier")?, &[("l_suppkey", "s_suppkey")])?
        // The c_nationkey = s_nationkey condition of the original is a
        // post-join filter here.
        .select(|x| Ok(x.col("c_nationkey")?.eq(x.col("s_nationkey")?)))?
        .join(scan(c, "nation")?, &[("s_nationkey", "n_nationkey")])?
        .join(
            scan(c, "region")?.select(|x| Ok(x.col("r_name")?.eq(Expr::lit("ASIA"))))?,
            &[("n_regionkey", "r_regionkey")],
        )?
        .aggregate(&["n_name"], |x| {
            let rev = x.col("l_extendedprice")?.mul(Expr::lit(1.0).sub(x.col("l_discount")?));
            Ok(vec![AggExpr::new(AggFunc::Sum, rev, "revenue")])
        })
        .map(PlanBuilder::build)
}

/// Q6: forecasting revenue change.
pub fn q6(c: &Catalog) -> Result<LogicalPlan> {
    scan(c, "lineitem")?
        .select(|x| {
            Ok(x.col("l_shipdate")?
                .ge(Expr::lit(date("1994-01-01")))
                .and(x.col("l_shipdate")?.lt(Expr::lit(date("1995-01-01"))))
                .and(x.col("l_discount")?.ge(Expr::lit(0.05)))
                .and(x.col("l_discount")?.le(Expr::lit(0.07)))
                .and(x.col("l_quantity")?.lt(Expr::lit(24i64))))
        })?
        .aggregate(&[], |x| {
            Ok(vec![AggExpr::new(
                AggFunc::Sum,
                x.col("l_extendedprice")?.mul(x.col("l_discount")?),
                "revenue",
            )])
        })
        .map(PlanBuilder::build)
}

/// Q7: volume shipping.
pub fn q7(c: &Catalog) -> Result<LogicalPlan> {
    let n1 = scan(c, "nation")?.alias("n1")?;
    let n2 = scan(c, "nation")?.alias("n2")?;
    let b = scan(c, "lineitem")?
        .select(|x| {
            Ok(x.col("l_shipdate")?
                .ge(Expr::lit(date("1995-01-01")))
                .and(x.col("l_shipdate")?.le(Expr::lit(date("1996-12-31")))))
        })?
        .join(scan(c, "orders")?, &[("l_orderkey", "o_orderkey")])?
        .join(scan(c, "customer")?, &[("o_custkey", "c_custkey")])?
        .join(scan(c, "supplier")?, &[("l_suppkey", "s_suppkey")])?
        .join(n1, &[("s_nationkey", "n1.n_nationkey")])?
        .join(n2, &[("c_nationkey", "n2.n_nationkey")])?
        .select(|x| {
            let fr_de = x
                .col("n1.n_name")?
                .eq(Expr::lit("FRANCE"))
                .and(x.col("n2.n_name")?.eq(Expr::lit("GERMANY")));
            let de_fr = x
                .col("n1.n_name")?
                .eq(Expr::lit("GERMANY"))
                .and(x.col("n2.n_name")?.eq(Expr::lit("FRANCE")));
            Ok(fr_de.or(de_fr))
        })?;
    let (groups, aggs) = {
        let cols = b.cols();
        let volume = cols.col("l_extendedprice")?.mul(Expr::lit(1.0).sub(cols.col("l_discount")?));
        (
            vec![
                (cols.col("n1.n_name")?, "supp_nation".to_string()),
                (cols.col("n2.n_name")?, "cust_nation".to_string()),
                (cols.col("l_shipdate")?.year(), "l_year".to_string()),
            ],
            vec![AggExpr::new(AggFunc::Sum, volume, "revenue")],
        )
    };
    b.aggregate_exprs(groups, aggs).map(PlanBuilder::build)
}

/// Q8: national market share.
pub fn q8(c: &Catalog) -> Result<LogicalPlan> {
    let n1 = scan(c, "nation")?.alias("n1")?;
    let n2 = scan(c, "nation")?.alias("n2")?;
    let b = scan(c, "lineitem")?
        .join(
            scan(c, "orders")?.select(|x| {
                Ok(x.col("o_orderdate")?
                    .ge(Expr::lit(date("1995-01-01")))
                    .and(x.col("o_orderdate")?.le(Expr::lit(date("1996-12-31")))))
            })?,
            &[("l_orderkey", "o_orderkey")],
        )?
        .join(scan(c, "customer")?, &[("o_custkey", "c_custkey")])?
        .join(scan(c, "supplier")?, &[("l_suppkey", "s_suppkey")])?
        .join(
            scan(c, "part")?
                .select(|x| Ok(x.col("p_type")?.eq(Expr::lit("ECONOMY ANODIZED STEEL"))))?,
            &[("l_partkey", "p_partkey")],
        )?
        .join(n1, &[("c_nationkey", "n1.n_nationkey")])?
        .join(
            scan(c, "region")?.select(|x| Ok(x.col("r_name")?.eq(Expr::lit("AMERICA"))))?,
            &[("n1.n_regionkey", "r_regionkey")],
        )?
        .join(n2, &[("s_nationkey", "n2.n_nationkey")])?;
    let (groups, aggs) = {
        let cols = b.cols();
        let volume = cols.col("l_extendedprice")?.mul(Expr::lit(1.0).sub(cols.col("l_discount")?));
        let brazil =
            cols.col("n2.n_name")?.eq(Expr::lit("BRAZIL")).case(volume.clone(), Expr::lit(0.0));
        (
            vec![(cols.col("o_orderdate")?.year(), "o_year".to_string())],
            vec![
                AggExpr::new(AggFunc::Sum, brazil, "brazil_volume"),
                AggExpr::new(AggFunc::Sum, volume, "total_volume"),
            ],
        )
    };
    b.aggregate_exprs(groups, aggs)?
        .project(|x| {
            Ok(vec![
                (x.col("o_year")?, "o_year".into()),
                (x.col("brazil_volume")?.div(x.col("total_volume")?), "mkt_share".into()),
            ])
        })
        .map(PlanBuilder::build)
}

/// Q9: product type profit measure.
pub fn q9(c: &Catalog) -> Result<LogicalPlan> {
    let b = scan(c, "lineitem")?
        .join(scan(c, "orders")?, &[("l_orderkey", "o_orderkey")])?
        .join(scan(c, "supplier")?, &[("l_suppkey", "s_suppkey")])?
        .join(
            scan(c, "part")?
                .select(|x| Ok(x.col("p_name")?.like(LikePattern::Contains("green".into()))))?,
            &[("l_partkey", "p_partkey")],
        )?
        .join(scan(c, "partsupp")?, &[("l_suppkey", "ps_suppkey"), ("l_partkey", "ps_partkey")])?
        .join(scan(c, "nation")?, &[("s_nationkey", "n_nationkey")])?;
    let (groups, amount) = {
        let cols = b.cols();
        (
            vec![
                (cols.col("n_name")?, "nation".to_string()),
                (cols.col("o_orderdate")?.year(), "o_year".to_string()),
            ],
            cols.col("l_extendedprice")?
                .mul(Expr::lit(1.0).sub(cols.col("l_discount")?))
                .sub(cols.col("ps_supplycost")?.mul(cols.col("l_quantity")?)),
        )
    };
    b.aggregate_exprs(groups, vec![AggExpr::new(AggFunc::Sum, amount, "sum_profit")])
        .map(PlanBuilder::build)
}

/// Q10: returned item reporting.
pub fn q10(c: &Catalog) -> Result<LogicalPlan> {
    // REWRITE: ORDER BY/LIMIT dropped.
    scan(c, "lineitem")?
        .select(|x| Ok(x.col("l_returnflag")?.eq(Expr::lit("R"))))?
        .join(
            scan(c, "orders")?.select(|x| {
                Ok(x.col("o_orderdate")?
                    .ge(Expr::lit(date("1993-10-01")))
                    .and(x.col("o_orderdate")?.lt(Expr::lit(date("1994-01-01")))))
            })?,
            &[("l_orderkey", "o_orderkey")],
        )?
        .join(scan(c, "customer")?, &[("o_custkey", "c_custkey")])?
        .join(scan(c, "nation")?, &[("c_nationkey", "n_nationkey")])?
        .aggregate(&["c_custkey", "c_name", "c_acctbal", "c_phone", "n_name"], |x| {
            let rev = x.col("l_extendedprice")?.mul(Expr::lit(1.0).sub(x.col("l_discount")?));
            Ok(vec![AggExpr::new(AggFunc::Sum, rev, "revenue")])
        })
        .map(PlanBuilder::build)
}

/// Q11: important stock identification.
pub fn q11(c: &Catalog) -> Result<LogicalPlan> {
    // REWRITE: the HAVING-threshold scalar subquery becomes a global
    // aggregate cross-joined through a constant key.
    let base =
        scan(c, "partsupp")?.join(scan(c, "supplier")?, &[("ps_suppkey", "s_suppkey")])?.join(
            scan(c, "nation")?.select(|x| Ok(x.col("n_name")?.eq(Expr::lit("GERMANY"))))?,
            &[("s_nationkey", "n_nationkey")],
        )?;
    let (partkey, value) = {
        let cols = base.cols();
        (cols.col("ps_partkey")?, cols.col("ps_supplycost")?.mul(cols.col("ps_availqty")?))
    };
    let per_part = base.clone().aggregate_exprs(
        vec![(partkey, "ps_partkey".to_string())],
        vec![AggExpr::new(AggFunc::Sum, value.clone(), "value")],
    )?;
    let total =
        base.aggregate_exprs(vec![], vec![AggExpr::new(AggFunc::Sum, value, "total_value")])?;
    per_part
        .join_on(total, |_, _| Ok(vec![(Expr::lit(1i64), Expr::lit(1i64))]))?
        .select(|x| Ok(x.col("value")?.gt(x.col("total_value")?.mul(Expr::lit(0.0001)))))?
        .project_cols(&["ps_partkey", "value"])
        .map(PlanBuilder::build)
}
