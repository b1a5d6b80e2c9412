//! Property test: pace configurations are a pure performance knob.
//!
//! For any valid pace vector, the final per-query results equal the
//! pace-all-1 (single batch) results — over random shared plans, random
//! insert+delete feeds, and in particular MIN/MAX aggregate groups whose
//! current extremum gets deleted mid-stream (the rescan-on-delete path of
//! the engine, Sec. 2.3).

use ishare::stream::{
    execute_planned_deltas, execute_planned_deltas_with, ObsConfig, SourceOptions,
};
use ishare_common::{CostWeights, DataType, OpKind, QueryId, QuerySet, TableId, Value};
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag, SharedPlan};
use ishare_storage::{Catalog, Field, Row, Schema, TableStats};
use proptest::prelude::*;
use std::collections::HashMap;

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
    c
}

/// Shared scan+select trunk with one aggregate subplan per query; the
/// aggregate functions always include MIN and MAX so extremum deletes hit
/// the rescan path.
fn build_plan(c: &Catalog, n_queries: usize, cutoffs: &[i64], funcs: &[usize]) -> SharedPlan {
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
        // Queries 0 and 1 are pinned to MIN and MAX; the rest draw from the
        // full pool.
        let func = match q {
            0 => AggFunc::Min,
            1 => AggFunc::Max,
            _ => [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max]
                [funcs[q % funcs.len()] % 4],
        };
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

/// Delta feed that never over-retracts; `extremum` deletes remove the live
/// row holding the current max (or min, alternating) of `v`.
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
                live.iter()
                    .enumerate()
                    .max_by_key(|(_, r)| if pick_max { v_of(r) } else { -v_of(r) })
                    .unwrap()
                    .0
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Final results are invariant under the pace configuration.
    #[test]
    fn any_pace_equals_batch(
        n_queries in 2usize..5,
        cutoffs in proptest::collection::vec(5i64..100, 4),
        funcs in proptest::collection::vec(0usize..4, 4),
        spec in proptest::collection::vec(
            (0i64..6, 0i64..100, proptest::bool::weighted(0.35), proptest::bool::weighted(0.6)),
            1..60,
        ),
        paces_seed in proptest::collection::vec(1u32..9, 8),
    ) {
        let c = catalog();
        let plan = build_plan(&c, n_queries, &cutoffs, &funcs);
        let t = c.table_by_name("t").unwrap().id;
        let feed = build_feed(&spec);
        let data: HashMap<TableId, Vec<(Row, i64)>> = [(t, feed)].into_iter().collect();

        let batch_paces = vec![1u32; plan.len()];
        let batch = execute_planned_deltas(&plan, &batch_paces, &c, &data, CostWeights::default())
            .unwrap();

        let mut paces = paces_seed;
        paces.resize(plan.len(), 1);
        let paces = &paces[..plan.len()];
        let paced = execute_planned_deltas(&plan, paces, &c, &data, CostWeights::default())
            .unwrap();

        prop_assert_eq!(&batch.results, &paced.results, "paces {:?}", paces);

        // Observability must be passive: identical results and bitwise-equal
        // work with obs on, and the per-operator breakdown regroups exactly
        // the charged terms, so it sums back to the flat total.
        let with_obs =
            SourceOptions { obs: Some(ObsConfig::default()), partitions: 1, ..Default::default() };
        let obs = execute_planned_deltas_with(
            &plan, paces, &c, &data, CostWeights::default(), with_obs.clone(),
        )
        .unwrap();
        prop_assert_eq!(&paced.results, &obs.results, "obs-on results, paces {:?}", paces);
        prop_assert_eq!(
            paced.total_work.get().to_bits(),
            obs.total_work.get().to_bits(),
            "obs-on total_work not bit-identical"
        );
        let report = obs.obs.as_ref().expect("obs requested");
        let total = obs.total_work.get();
        prop_assert!(
            (report.breakdown_total() - total).abs() <= 1e-6 * total.abs().max(1.0),
            "breakdown {} != total {}",
            report.breakdown_total(),
            total
        );

        // `SourceOptions::partitions` is inert (the benchmark still sets it,
        // DESIGN.md §12): a run asking for 4 partitions is accepted and is
        // the `partitions: 1` run, bit for bit — total work and every
        // per-subplan × per-kind breakdown cell.
        let inert = execute_planned_deltas_with(
            &plan, paces, &c, &data, CostWeights::default(),
            SourceOptions { partitions: 4, ..with_obs },
        )
        .unwrap();
        prop_assert_eq!(&obs.results, &inert.results, "partitions: 4 results");
        prop_assert_eq!(
            obs.total_work.get().to_bits(),
            inert.total_work.get().to_bits(),
            "partitions: 4 total_work not bit-identical"
        );
        let inert_report = inert.obs.as_ref().expect("obs requested");
        prop_assert_eq!(report.work_by_subplan.len(), inert_report.work_by_subplan.len());
        for (sp, (a, b)) in
            report.work_by_subplan.iter().zip(&inert_report.work_by_subplan).enumerate()
        {
            for kind in OpKind::ALL {
                prop_assert_eq!(
                    a.get(kind).to_bits(),
                    b.get(kind).to_bits(),
                    "sp{} {:?}: partitions: 4 charge {} != partitions: 1 {}",
                    sp,
                    kind,
                    b.get(kind),
                    a.get(kind)
                );
            }
        }
    }
}
