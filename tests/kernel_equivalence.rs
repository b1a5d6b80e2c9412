//! Differential tests: the kernel datapath (`ExecMode::Kernels` — encoded
//! keys, compiled expressions, flat operator state, batched work charges)
//! is bit-identical to the original interpreter-shaped datapath
//! (`ExecMode::Reference`).
//!
//! Random shared plans — a scan+marking-select trunk fanning out to one
//! aggregate subplan per query (SUM/COUNT/MIN/MAX), and a join-shaped
//! variant (select → join → project → aggregate) — random insert+delete
//! feeds (including extremum deletes that trigger MIN/MAX rescans), and
//! random pace vectors: the kernel datapath must produce the same
//! `QueryResult`s, bitwise-equal `total_work` and per-query `final_work`,
//! and the same execution counts as the reference, sequentially and at 2/4
//! worker threads, and under a jittered multi-partition ingest source with
//! kill-after-wavefront + replay.

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::stream::{
    execute_from_source_obs, execute_planned_deltas, execute_planned_deltas_with, insert_feeds,
    ExecMode, RunResult, Source, SourceConfig, SourceOptions, SourceOutcome,
};
use ishare::tpch::{generate, queries::sharing_friendly_queries};
use ishare_common::{CostWeights, DataType, QueryId, QuerySet, TableId, Value};
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag, SharedPlan};
use ishare_storage::{Catalog, Field, Row, Schema, TableStats};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// A `Vec`-fed run under `opts` at default cost weights.
fn run_with(
    plan: &SharedPlan,
    paces: &[u32],
    c: &Catalog,
    feeds: &HashMap<TableId, Vec<(Row, i64)>>,
    opts: SourceOptions,
) -> RunResult {
    execute_planned_deltas_with(plan, paces, c, feeds, CostWeights::default(), opts).unwrap()
}

fn in_mode(mode: ExecMode) -> SourceOptions {
    SourceOptions { mode, ..Default::default() }
}

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

/// Join-shaped trunk exercising every kernel: marking select over `t`, join
/// with `u` on `k`, a computing projection, then one aggregate per query.
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
    // Computing projection: [k, v + w] — not an identity, so the project
    // kernel's program path runs too.
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

/// Insert+delete feed that never over-retracts (see `parallel_equivalence`).
fn build_feed(spec: &[(i64, i64, bool)]) -> Vec<(Row, i64)> {
    let mut live: Vec<Row> = Vec::new();
    let mut out = Vec::new();
    for &(k, v, is_delete) in spec {
        if is_delete && !live.is_empty() {
            let row = live.pop().unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kernels ≡ reference over random plans (aggregate-only and join
    /// shaped), random insert+delete feeds, random paces — sequentially and
    /// at 2/4 worker threads. Every worker count must land on the
    /// reference's bits.
    #[test]
    fn kernels_match_reference(
        n_queries in 2usize..5,
        cutoffs in proptest::collection::vec(5i64..100, 4),
        funcs in proptest::collection::vec(0usize..4, 4),
        spec in proptest::collection::vec(
            (0i64..6, 0i64..100, proptest::bool::weighted(0.3), proptest::bool::weighted(0.3)),
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
        // The 4th flag routes the event to table `u` (join probe side); in
        // the aggregate-only shape all events go to `t`.
        let spec_t: Vec<(i64, i64, bool)> = spec
            .iter()
            .filter(|e| !(join_shape && e.3))
            .map(|e| (e.0, e.1, e.2))
            .collect();
        let spec_u: Vec<(i64, i64, bool)> =
            spec.iter().filter(|e| join_shape && e.3).map(|e| (e.0, e.1, e.2)).collect();
        let mut feeds: HashMap<TableId, Vec<(Row, i64)>> =
            [(t, build_feed(&spec_t))].into_iter().collect();
        if join_shape {
            feeds.insert(u, build_feed(&spec_u));
        }
        let mut paces = paces_seed;
        paces.resize(plan.len(), 1);
        let paces = &paces[..plan.len()];

        let reference = run_with(&plan, paces, &c, &feeds, in_mode(ExecMode::Reference));
        let kernels =
            execute_planned_deltas(&plan, paces, &c, &feeds, CostWeights::default()).unwrap();
        let shape = if join_shape { "join" } else { "agg" };
        assert_bit_identical(&reference, &kernels, &format!("{shape} sequential"))?;
        for threads in [2usize, 4] {
            let workers = SourceOptions { workers: threads, ..Default::default() };
            let par = run_with(&plan, paces, &c, &feeds, workers);
            assert_bit_identical(&reference, &par, &format!("{shape} threads={threads}"))?;
        }
    }
}

/// Acceptance-level: an iShare-planned TPC-H workload run on both datapaths,
/// sequentially and at 2/4 worker threads — all bit-identical.
#[test]
fn tpch_workload_kernels_match_reference() {
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

    let run = |opts| run_with(&planned.plan, planned.paces.as_slice(), &tpch.catalog, &feeds, opts);
    let reference = run(in_mode(ExecMode::Reference));
    let kernels = execute_planned_deltas(
        &planned.plan,
        planned.paces.as_slice(),
        &tpch.catalog,
        &feeds,
        CostWeights::default(),
    )
    .unwrap();
    let check = |a: &RunResult, b: &RunResult, label: &str| {
        assert_eq!(a.results, b.results, "{label}: results differ");
        assert_eq!(
            a.total_work.get().to_bits(),
            b.total_work.get().to_bits(),
            "{label}: total_work differs"
        );
        for (q, w) in &a.final_work {
            assert_eq!(w.to_bits(), b.final_work[q].to_bits(), "{label}: final_work {q}");
        }
        assert_eq!(a.executions, b.executions, "{label}: executions differ");
    };
    check(&reference, &kernels, "sequential");
    for threads in [2usize, 4] {
        let par = run(SourceOptions { workers: threads, ..Default::default() });
        check(&reference, &par, &format!("threads={threads}"));
    }
}

/// Kernels under ingest stress: a jittered, partitioned, backpressured
/// source — killed after a wavefront and replayed against the commit log —
/// must still land bit-exactly on the reference datapath's numbers.
#[test]
fn kernels_match_reference_under_jittered_source_kill_resume() {
    let c = catalog();
    let plan = build_join_plan(&c, 3, &[40, 95, 60, 25], &[0, 1, 2, 3]);
    let t = c.table_by_name("t").unwrap().id;
    let u = c.table_by_name("u").unwrap().id;
    let spec_t: Vec<(i64, i64, bool)> =
        (0..60).map(|i| (i % 5, i * 13 % 100, i % 7 == 3)).collect();
    let spec_u: Vec<(i64, i64, bool)> =
        (0..30).map(|i| (i % 5, i * 31 % 100, i % 9 == 4)).collect();
    let feeds: HashMap<TableId, Vec<(Row, i64)>> =
        [(t, build_feed(&spec_t)), (u, build_feed(&spec_u))].into_iter().collect();
    let paces: Vec<u32> = vec![4; plan.len()];
    let cfg = SourceConfig { partitions: 3, capacity: 64, jitter: 9, seed: 42 };

    let reference = run_with(&plan, &paces, &c, &feeds, in_mode(ExecMode::Reference));

    // Kernels, source-fed sequentially, uninterrupted.
    let mut source = Source::new(&feeds, cfg).unwrap();
    let SourceOutcome::Completed { result: full, log } = execute_from_source_obs(
        &plan,
        &paces,
        &c,
        &mut source,
        CostWeights::default(),
        SourceOptions::default(),
    )
    .unwrap() else {
        panic!("uninterrupted run must complete");
    };
    let bit_eq = |a: &RunResult, b: &RunResult, label: &str| {
        assert_eq!(a.results, b.results, "{label}: results differ");
        assert_eq!(
            a.total_work.get().to_bits(),
            b.total_work.get().to_bits(),
            "{label}: total_work differs"
        );
        for (q, w) in &a.final_work {
            assert_eq!(w.to_bits(), b.final_work[q].to_bits(), "{label}: final_work {q}");
        }
    };
    bit_eq(&reference, &full, "source-fed kernels");

    // Kill after wavefront 2, rebuild, replay against the log — parallel.
    let mut source = Source::new(&feeds, cfg).unwrap();
    let SourceOutcome::Suspended { log: partial } = execute_from_source_obs(
        &plan,
        &paces,
        &c,
        &mut source,
        CostWeights::default(),
        SourceOptions { workers: 2, stop_after: Some(2), ..Default::default() },
    )
    .unwrap() else {
        panic!("stop_after must suspend");
    };
    assert_eq!(partial.len(), 2);
    let mut source = Source::new(&feeds, cfg).unwrap();
    let SourceOutcome::Completed { result: resumed, log: resumed_log } = execute_from_source_obs(
        &plan,
        &paces,
        &c,
        &mut source,
        CostWeights::default(),
        SourceOptions { workers: 2, verify: Some(partial), ..Default::default() },
    )
    .unwrap() else {
        panic!("resume must complete");
    };
    bit_eq(&reference, &resumed, "resumed kernels");
    assert_eq!(resumed_log.entries, log.entries, "commit logs agree");

    // And the reference datapath itself survives the same source treatment
    // (mode threads through SourceOptions).
    let mut source = Source::new(&feeds, cfg).unwrap();
    let SourceOutcome::Completed { result: ref_src, .. } = execute_from_source_obs(
        &plan,
        &paces,
        &c,
        &mut source,
        CostWeights::default(),
        SourceOptions { mode: ExecMode::Reference, ..Default::default() },
    )
    .unwrap() else {
        panic!("reference source-fed run must complete");
    };
    bit_eq(&reference, &ref_src, "source-fed reference");
}
