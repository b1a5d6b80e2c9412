//! Differential tests: the wavefront loop on several workers is
//! bit-identical to the same loop on one (every tick inline on the calling
//! thread, in global schedule order).
//!
//! Random small shared plans (a shared scan+select trunk fanning out to one
//! aggregate subplan per query, covering SUM/COUNT/MIN/MAX, and a join-shaped
//! variant: select → join → project → aggregate), random delta feeds with
//! inserts and deletes (including deletes of a group's current extremum,
//! which trigger MIN/MAX rescans), and random pace vectors: at 2, 4 and 8
//! worker threads, with observability on or off, the run must produce the
//! same `QueryResult`s, bitwise-equal `total_work` and per-query
//! `final_work`, and the same execution count as on one.

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
/// query. `from_dag` cuts at the multi-parent select, yielding `1 + n`
/// subplans. With `join_shape` the select's output is joined with `u` on
/// `k` and projected to `[k, v + w]` before the per-query aggregates.
fn build_plan(
    c: &Catalog,
    n_queries: usize,
    cutoffs: &[i64],
    funcs: &[usize],
    join_shape: bool,
) -> SharedPlan {
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
    let mut trunk = d.add_node(DagOp::Select { branches }, vec![scan], qs(&all)).unwrap();
    if join_shape {
        let u = c.table_by_name("u").unwrap().id;
        let scan_u = d.add_node(DagOp::Scan { table: u }, vec![], qs(&all)).unwrap();
        let keys = vec![(Expr::col(0), Expr::col(0))];
        let join = d.add_node(DagOp::Join { keys }, vec![trunk, scan_u], qs(&all)).unwrap();
        let exprs = vec![(Expr::col(0), "k".into()), (Expr::col(1).add(Expr::col(3)), "vw".into())];
        trunk = d.add_node(DagOp::Project { exprs }, vec![join], qs(&all)).unwrap();
    }
    for q in 0..n_queries {
        let func =
            [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max][funcs[q % funcs.len()] % 4];
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(func, Expr::col(1), "a")],
                },
                vec![trunk],
                qs(&[q as u16]),
            )
            .unwrap();
        d.set_query_root(QueryId(q as u16), agg).unwrap();
    }
    SharedPlan::from_dag(&d, |_| false).unwrap()
}

/// Turn feed specs into a delta feed that never over-retracts. A delete
/// with `extremum == true` removes the live row with the extreme `v`
/// (alternating max/min), exercising the MIN/MAX rescan path.
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

fn assert_bit_identical(
    seq: &RunResult,
    par: &RunResult,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&seq.results, &par.results, "{}: query results differ", label);
    prop_assert_eq!(
        seq.total_work.get().to_bits(),
        par.total_work.get().to_bits(),
        "{}: total_work differs ({} vs {})",
        label,
        seq.total_work.get(),
        par.total_work.get()
    );
    prop_assert_eq!(&seq.final_work, &par.final_work, "{}: final_work differs", label);
    for (q, w) in &seq.final_work {
        prop_assert_eq!(
            w.to_bits(),
            par.final_work[q].to_bits(),
            "{}: final_work bits differ for {}",
            label,
            q
        );
    }
    prop_assert_eq!(seq.executions, par.executions, "{}: executions differ", label);
    prop_assert_eq!(
        &seq.executions_per_query,
        &par.executions_per_query,
        "{}: per-query execution counts differ",
        label
    );
    Ok(())
}

/// The opt-in instrumentation must be passive: same run, obs on, must stay
/// bit-identical, and the per-operator × per-subplan breakdown must sum back
/// to the flat total (same terms regrouped, so only float re-association
/// separates them).
fn assert_obs_consistent(run: &RunResult, label: &str) -> Result<(), TestCaseError> {
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
    prop_assert!(
        (report.total_work - total).abs() <= tol,
        "{}: report.total_work {} != total_work {}",
        label,
        report.total_work,
        total
    );
    let execs: u64 = report.executions_by_subplan.iter().map(|e| e.total()).sum();
    prop_assert_eq!(execs as usize, run.executions, "{}: execution counts differ", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel at 2/4/8 threads ≡ sequential, obs on or off, over random
    /// plans (aggregate fan-out and join shaped), random insert+delete
    /// feeds, and random pace vectors.
    #[test]
    fn parallel_matches_sequential(
        n_queries in 2usize..5,
        cutoffs in proptest::collection::vec(5i64..100, 4),
        funcs in proptest::collection::vec(0usize..4, 4),
        spec in proptest::collection::vec(
            (0i64..6, 0i64..100, proptest::bool::weighted(0.3), proptest::bool::ANY),
            1..50,
        ),
        paces_seed in proptest::collection::vec(1u32..7, 8),
        join_shape in proptest::bool::ANY,
    ) {
        let c = catalog();
        let plan = build_plan(&c, n_queries, &cutoffs, &funcs, join_shape);
        let t = c.table_by_name("t").unwrap().id;
        // In the join shape, alternate events between the two base tables so
        // both join sides stream deltas.
        let mut data: HashMap<TableId, Vec<(Row, i64)>> = HashMap::new();
        if join_shape {
            let u = c.table_by_name("u").unwrap().id;
            let spec_t: Vec<_> = spec.iter().step_by(2).copied().collect();
            let spec_u: Vec<_> = spec.iter().skip(1).step_by(2).copied().collect();
            data.insert(t, build_feed(&spec_t));
            data.insert(u, build_feed(&spec_u));
        } else {
            data.insert(t, build_feed(&spec));
        }
        let mut paces = paces_seed;
        paces.resize(plan.len(), 1);
        let paces = &paces[..plan.len()];

        let seq = execute_planned_deltas(&plan, paces, &c, &data, CostWeights::default())
            .unwrap();
        let run = |workers: usize, obs: Option<ObsConfig>| {
            let opts = SourceOptions { workers, obs, ..Default::default() };
            execute_planned_deltas_with(&plan, paces, &c, &data, CostWeights::default(), opts)
                .unwrap()
        };
        let seq_obs = run(1, Some(ObsConfig::default()));
        assert_bit_identical(&seq, &seq_obs, "sequential obs-on")?;
        assert_obs_consistent(&seq_obs, "sequential obs-on")?;
        for threads in [2usize, 4, 8] {
            let par = run(threads, None);
            assert_bit_identical(&seq, &par, &format!("threads={threads}"))?;
            let par_obs = run(threads, Some(ObsConfig::default()));
            assert_bit_identical(&seq, &par_obs, &format!("threads={threads} obs-on"))?;
            assert_obs_consistent(&par_obs, &format!("threads={threads} obs-on"))?;
        }
    }
}

/// The acceptance-level check: a multi-query TPC-H workload planned by
/// iShare itself, run sequentially and at 2/4 worker threads.
#[test]
fn tpch_workload_parallel_matches_sequential() {
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

    let seq = execute_planned_deltas(
        &planned.plan,
        planned.paces.as_slice(),
        &tpch.catalog,
        &feeds,
        CostWeights::default(),
    )
    .unwrap();
    for threads in [2usize, 4] {
        let par = execute_planned_deltas_with(
            &planned.plan,
            planned.paces.as_slice(),
            &tpch.catalog,
            &feeds,
            CostWeights::default(),
            SourceOptions {
                workers: threads,
                obs: Some(ObsConfig::default()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.results, par.results, "threads={threads}");
        assert_eq!(
            seq.total_work.get().to_bits(),
            par.total_work.get().to_bits(),
            "threads={threads}: total work must be bit-identical even with obs on"
        );
        assert_eq!(seq.final_work, par.final_work, "threads={threads}");
        assert_eq!(seq.executions, par.executions, "threads={threads}");
        let report = par.obs.as_ref().unwrap();
        let total = par.total_work.get();
        assert!(
            (report.breakdown_total() - total).abs() <= 1e-6 * total.abs().max(1.0),
            "threads={threads}: breakdown {} != total {total}",
            report.breakdown_total()
        );
    }
}
