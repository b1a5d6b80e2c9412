//! Differential tests: intra-subplan data parallelism (hash-partitioned
//! join/aggregate state behind a per-operator exchange, DESIGN.md §12) is
//! bit-identical to unpartitioned sequential execution.
//!
//! Random small shared plans — the aggregate fan-out shape and the
//! join-shaped variant (select → join → project → aggregate) — random
//! insert+delete feeds (including extremum deletes that trigger MIN/MAX
//! rescans), and random pace vectors: at 1/2/4/8 partitions, with 1 or 2
//! partition workers, alone or stacked on the 2-thread inter-subplan
//! parallel driver, every run must produce the same `QueryResult`s,
//! bitwise-equal `total_work` and per-query `final_work`, and the same
//! execution counts as the sequential unpartitioned oracle — with the
//! passive observability layer on or off.

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::stream::{
    execute_planned_deltas, execute_planned_deltas_with, insert_feeds, ObsConfig, RunResult,
    SourceOptions,
};
use ishare::tpch::{generate, queries::sharing_friendly_queries};
use ishare_common::{CostWeights, DataType, QueryId, QuerySet, TableId, Value};
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag, SharedPlan};
use ishare_storage::{Catalog, Field, Row, Schema, TableStats};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

fn qs(ids: &[u16]) -> QuerySet {
    QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
}

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
        Schema::new(vec![Field::new("k", DataType::Int), Field::new("w", DataType::Int)]),
        TableStats::unknown(100.0, 2),
    )
    .unwrap();
    c
}

/// Shared trunk (scan → marking select) feeding one aggregate subplan per
/// query (same generator family as `parallel_equivalence`).
fn build_agg_plan(c: &Catalog, n_queries: usize, cutoffs: &[i64], funcs: &[usize]) -> SharedPlan {
    let t = c.table_by_name("t").unwrap().id;
    let all: Vec<u16> = (0..n_queries as u16).collect();
    let mut d = SharedDag::new();
    let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&all)).unwrap();
    let branches = (0..n_queries)
        .map(|q| SelectBranch {
            queries: qs(&[q as u16]),
            predicate: if cutoffs[q % cutoffs.len()] >= 95 {
                Expr::true_lit()
            } else {
                Expr::col(1).lt(Expr::lit(cutoffs[q % cutoffs.len()]))
            },
        })
        .collect();
    let sel = d.add_node(DagOp::Select { branches }, vec![scan], qs(&all)).unwrap();
    for q in 0..n_queries {
        let func =
            [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max][funcs[q % funcs.len()] % 4];
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(func, Expr::col(1), "a")],
                },
                vec![sel],
                qs(&[q as u16]),
            )
            .unwrap();
        d.set_query_root(QueryId(q as u16), agg).unwrap();
    }
    SharedPlan::from_dag(&d, |_| false).unwrap()
}

/// Join-shaped trunk: marking select over `t`, join with `u` on `k` (the
/// join partitions on the join key), a computing projection, then one
/// aggregate per query (each aggregate partitions on its group key — a
/// different exchange than the join's, which is exactly what the
/// per-operator design must survive).
fn build_join_plan(c: &Catalog, n_queries: usize, cutoffs: &[i64], funcs: &[usize]) -> SharedPlan {
    let t = c.table_by_name("t").unwrap().id;
    let u = c.table_by_name("u").unwrap().id;
    let all: Vec<u16> = (0..n_queries as u16).collect();
    let mut d = SharedDag::new();
    let scan_t = d.add_node(DagOp::Scan { table: t }, vec![], qs(&all)).unwrap();
    let scan_u = d.add_node(DagOp::Scan { table: u }, vec![], qs(&all)).unwrap();
    let branches = (0..n_queries)
        .map(|q| SelectBranch {
            queries: qs(&[q as u16]),
            predicate: if cutoffs[q % cutoffs.len()] >= 95 {
                Expr::true_lit()
            } else {
                Expr::col(1).lt(Expr::lit(cutoffs[q % cutoffs.len()]))
            },
        })
        .collect();
    let sel = d.add_node(DagOp::Select { branches }, vec![scan_t], qs(&all)).unwrap();
    let join = d
        .add_node(
            DagOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
            vec![sel, scan_u],
            qs(&all),
        )
        .unwrap();
    let proj = d
        .add_node(
            DagOp::Project {
                exprs: vec![
                    (Expr::col(0), "k".into()),
                    (Expr::col(1).add(Expr::col(3)), "vw".into()),
                ],
            },
            vec![join],
            qs(&all),
        )
        .unwrap();
    for q in 0..n_queries {
        let func =
            [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max][funcs[q % funcs.len()] % 4];
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(func, Expr::col(1), "a")],
                },
                vec![proj],
                qs(&[q as u16]),
            )
            .unwrap();
        d.set_query_root(QueryId(q as u16), agg).unwrap();
    }
    SharedPlan::from_dag(&d, |_| false).unwrap()
}

/// Insert+delete feed that never over-retracts. A delete with
/// `extremum == true` removes the live row with the extreme `v`
/// (alternating max/min), exercising the MIN/MAX rescan path through the
/// exchange.
fn build_feed(spec: &[(i64, i64, bool, bool)]) -> Vec<(Row, i64)> {
    let v_of = |r: &Row| match r.get(1) {
        Value::Int(v) => *v,
        _ => 0,
    };
    let mut live: Vec<Row> = Vec::new();
    let mut out = Vec::new();
    for &(k, v, is_delete, extremum) in spec {
        if is_delete && !live.is_empty() {
            let idx = if extremum {
                let pick_max = out.len() % 2 == 0;
                let (idx, _) = live
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, r)| if pick_max { v_of(r) } else { -v_of(r) })
                    .unwrap();
                idx
            } else {
                live.len() - 1
            };
            let row = live.swap_remove(idx);
            out.push((row, -1));
        } else {
            let row = Row::new(vec![Value::Int(k), Value::Int(v)]);
            live.push(row.clone());
            out.push((row, 1));
        }
    }
    out
}

fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.results, &b.results, "{}: query results differ", label);
    prop_assert_eq!(
        a.total_work.get().to_bits(),
        b.total_work.get().to_bits(),
        "{}: total_work differs ({} vs {})",
        label,
        a.total_work.get(),
        b.total_work.get()
    );
    prop_assert_eq!(&a.final_work, &b.final_work, "{}: final_work differs", label);
    for (q, w) in &a.final_work {
        prop_assert_eq!(
            w.to_bits(),
            b.final_work[q].to_bits(),
            "{}: final_work bits differ for {}",
            label,
            q
        );
    }
    prop_assert_eq!(a.executions, b.executions, "{}: executions differ", label);
    prop_assert_eq!(
        &a.executions_per_query,
        &b.executions_per_query,
        "{}: per-query execution counts differ",
        label
    );
    Ok(())
}

/// Obs must stay passive through the exchange: breakdown sums back to the
/// flat total, execution counts agree, and — new with partitioning — the
/// per-partition gauges exist and the routed-row tallies they carry are
/// non-negative with a skew ratio ≥ 1.
fn assert_obs_consistent(
    run: &RunResult,
    partitions: usize,
    label: &str,
) -> Result<(), TestCaseError> {
    let report = run.obs.as_ref().expect("obs requested");
    let total = run.total_work.get();
    let tol = 1e-6 * total.abs().max(1.0);
    prop_assert!(
        (report.breakdown_total() - total).abs() <= tol,
        "{}: breakdown {} != total_work {}",
        label,
        report.breakdown_total(),
        total
    );
    let execs: u64 = report.executions_by_subplan.iter().map(|e| e.total()).sum();
    prop_assert_eq!(execs as usize, run.executions, "{}: execution counts differ", label);
    let skews: Vec<f64> = report
        .metrics
        .gauges()
        .filter(|(name, _)| name.starts_with("partition.sp") && name.ends_with(".skew"))
        .map(|(_, v)| v)
        .collect();
    if partitions > 1 {
        prop_assert!(!skews.is_empty(), "{}: partitioned run must record partition gauges", label);
        for s in &skews {
            prop_assert!(
                *s >= 1.0 - 1e-9 && *s <= partitions as f64 + 1e-9,
                "{}: skew ratio {} out of [1, {}]",
                label,
                s,
                partitions
            );
        }
    } else {
        prop_assert!(skews.is_empty(), "{}: unpartitioned run must not record them", label);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Partitioned ≡ sequential at 1/2/4/8 partitions, with 1/2 partition
    /// workers, stacked or not on the 2-thread parallel driver, obs on or
    /// off — over random plans (aggregate fan-out and join shaped), random
    /// insert+delete feeds, and random pace vectors.
    #[test]
    fn partitioned_matches_sequential(
        n_queries in 2usize..5,
        cutoffs in proptest::collection::vec(5i64..100, 4),
        funcs in proptest::collection::vec(0usize..4, 4),
        spec in proptest::collection::vec(
            (0i64..6, 0i64..100, proptest::bool::weighted(0.3), proptest::bool::ANY),
            2..50,
        ),
        paces_seed in proptest::collection::vec(1u32..6, 10),
        join_shape in proptest::bool::ANY,
    ) {
        let c = catalog();
        let plan = if join_shape {
            build_join_plan(&c, n_queries, &cutoffs, &funcs)
        } else {
            build_agg_plan(&c, n_queries, &cutoffs, &funcs)
        };
        let t = c.table_by_name("t").unwrap().id;
        let u = c.table_by_name("u").unwrap().id;
        // In the join shape, alternate events between the two base tables so
        // both join sides stream deltas through the exchange.
        let (spec_t, spec_u): (Vec<_>, Vec<_>) = if join_shape {
            let st: Vec<_> = spec.iter().step_by(2).copied().collect();
            let su: Vec<_> = spec.iter().skip(1).step_by(2).copied().collect();
            (st, su)
        } else {
            (spec.clone(), Vec::new())
        };
        let mut feeds: HashMap<TableId, Vec<(Row, i64)>> =
            [(t, build_feed(&spec_t))].into_iter().collect();
        if join_shape {
            feeds.insert(u, build_feed(&spec_u));
        }
        let mut paces = paces_seed;
        paces.resize(plan.len(), 1);
        let paces = &paces[..plan.len()];
        let w = CostWeights::default();
        let shape = if join_shape { "join" } else { "agg" };

        let seq = execute_planned_deltas(&plan, paces, &c, &feeds, w).unwrap();
        let run = |opts| execute_planned_deltas_with(&plan, paces, &c, &feeds, w, opts).unwrap();
        let with_obs = SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() };
        let seq_obs = run(with_obs.clone());
        assert_bit_identical(&seq, &seq_obs, &format!("{shape} obs-on"))?;
        assert_obs_consistent(&seq_obs, 1, &format!("{shape} obs-on"))?;

        for partitions in [1usize, 2, 4, 8] {
            let part = run(SourceOptions { partitions, ..Default::default() });
            assert_bit_identical(&seq, &part, &format!("{shape} P={partitions}"))?;
            for partition_threads in [1usize, 2] {
                let part_obs =
                    run(SourceOptions { partitions, partition_threads, ..with_obs.clone() });
                let label = format!("{shape} P={partitions} pt={partition_threads} obs-on");
                assert_bit_identical(&seq, &part_obs, &label)?;
                assert_obs_consistent(&part_obs, partitions, &label)?;
            }
        }
        // Intra-subplan parallelism stacked on inter-subplan parallelism.
        for partitions in [2usize, 4] {
            let stacked = run(SourceOptions {
                workers: 2,
                partitions,
                partition_threads: 2,
                ..with_obs.clone()
            });
            let label = format!("{shape} threads=2 P={partitions} pt=2");
            assert_bit_identical(&seq, &stacked, &label)?;
            assert_obs_consistent(&stacked, partitions, &label)?;
        }
    }
}

/// Acceptance-level: an iShare-planned TPC-H workload run unpartitioned and
/// at 2/4/8 partitions (with 2 partition workers) — all bit-identical.
#[test]
fn tpch_workload_partitioned_matches_sequential() {
    let tpch = generate(0.002, 11).unwrap();
    let queries: Vec<(QueryId, _)> = sharing_friendly_queries(&tpch.catalog)
        .unwrap()
        .into_iter()
        .take(6)
        .enumerate()
        .map(|(i, q)| (QueryId(i as u16), q.plan))
        .collect();
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        queries.iter().map(|(q, _)| (*q, FinalWorkConstraint::Relative(0.25))).collect();
    let opts = PlanningOptions { max_pace: 8, ..Default::default() };
    let planned = plan_workload(Approach::IShare, &queries, &cons, &tpch.catalog, &opts).unwrap();
    let feeds = insert_feeds(&tpch.data);
    let w = CostWeights::default();

    let seq =
        execute_planned_deltas(&planned.plan, planned.paces.as_slice(), &tpch.catalog, &feeds, w)
            .unwrap();
    for partitions in [2usize, 4, 8] {
        let part = execute_planned_deltas_with(
            &planned.plan,
            planned.paces.as_slice(),
            &tpch.catalog,
            &feeds,
            w,
            SourceOptions {
                partitions,
                partition_threads: 2,
                obs: Some(ObsConfig::default()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.results, part.results, "P={partitions}: results differ");
        assert_eq!(
            seq.total_work.get().to_bits(),
            part.total_work.get().to_bits(),
            "P={partitions}: total_work differs"
        );
        for (q, w) in &seq.final_work {
            assert_eq!(w.to_bits(), part.final_work[q].to_bits(), "P={partitions}: final_work {q}");
        }
        assert_eq!(seq.executions, part.executions, "P={partitions}: executions differ");
        let report = part.obs.as_ref().unwrap();
        assert!(
            report.metrics.gauges().any(|(name, _)| name.starts_with("partition.sp")),
            "P={partitions}: TPC-H run must record partition gauges"
        );
    }
}
