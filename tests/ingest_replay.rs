//! Differential tests for the ingest subsystem: source-fed execution is
//! bit-identical to `Vec`-fed execution, and a killed run resumed from its
//! commit log is bit-identical to an uninterrupted one.
//!
//! Random small shared plans and delta feeds (the same generators as
//! `parallel_equivalence`), random topic topologies (partitions, ring
//! capacity, jitter, seed), random pace vectors, sequential and parallel
//! drivers: pulling watermark cuts from an out-of-order, backpressured
//! source must reproduce the `Vec` driver's `QueryResult`s, bitwise-equal
//! `total_work` and `final_work`, and execution counts — and killing the
//! run after any wavefront, rebuilding the source, and replaying against
//! the commit log must land on the same bits.

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::stream::{
    execute_from_source_obs, execute_planned_deltas, RunResult, Source, SourceConfig,
    SourceOptions, SourceOutcome,
};
use ishare::tpch::{generate, produce_source, queries::sharing_friendly_queries, StreamConfig};
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
    c
}

/// Shared trunk (scan → marking select) feeding one aggregate subplan per
/// query (see `parallel_equivalence`).
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

/// Run `plan` from a fresh source built with `cfg`, at `threads` workers.
fn run_from_source(
    plan: &SharedPlan,
    paces: &[u32],
    c: &Catalog,
    feeds: &HashMap<TableId, Vec<(Row, i64)>>,
    cfg: SourceConfig,
    threads: usize,
    opts: SourceOptions,
) -> SourceOutcome {
    let mut source = Source::new(feeds, cfg).unwrap();
    let opts = SourceOptions { workers: threads, ..opts };
    execute_from_source_obs(plan, paces, c, &mut source, CostWeights::default(), opts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Source-fed ≡ Vec-fed over random plans, feeds, topologies, paces, and
    /// thread counts — and kill-after-wavefront-k + replay ≡ uninterrupted.
    #[test]
    fn source_fed_matches_vec_fed_and_replay_is_exact(
        shape in (
            2usize..4,
            proptest::collection::vec(5i64..100, 4),
            proptest::collection::vec(0usize..4, 4),
        ),
        spec in proptest::collection::vec(
            (0i64..6, 0i64..100, proptest::bool::weighted(0.3)),
            1..40,
        ),
        paces_seed in proptest::collection::vec(1u32..6, 8),
        topo in (
            1usize..4,
            prop_oneof![Just(1usize), Just(3), Just(64)],
            prop_oneof![Just(0u64), Just(2), Just(9)],
            0u64..1000,
        ),
        run_shape in (prop_oneof![Just(1usize), Just(2), Just(4)], 1usize..4),
    ) {
        let (n_queries, cutoffs, funcs) = shape;
        let (partitions, capacity, jitter, seed) = topo;
        let (threads, kill_after) = run_shape;
        let c = catalog();
        let plan = build_plan(&c, n_queries, &cutoffs, &funcs);
        let t = c.table_by_name("t").unwrap().id;
        let feeds: HashMap<TableId, Vec<(Row, i64)>> =
            [(t, build_feed(&spec))].into_iter().collect();
        let mut paces = paces_seed;
        paces.resize(plan.len(), 1);
        let paces = &paces[..plan.len()];
        let cfg = SourceConfig { partitions, capacity, jitter, seed };

        // Reference: the Vec-fed sequential driver.
        let reference =
            execute_planned_deltas(&plan, paces, &c, &feeds, CostWeights::default()).unwrap();

        // Source-fed, uninterrupted.
        let outcome = run_from_source(
            &plan, paces, &c, &feeds, cfg, threads, SourceOptions::default(),
        );
        let SourceOutcome::Completed { result: full, log } = outcome else {
            panic!("no stop requested, run must complete");
        };
        let label = format!("P{partitions} C{capacity} J{jitter} s{seed} th{threads}");
        assert_bit_identical(&reference, &full, &label)?;
        prop_assert!(!log.is_empty(), "{}: completed run must have commits", label);

        // Kill after wavefront `kill_after` (clamped into the schedule),
        // rebuild the source from the same config, replay under
        // verification, and land on the same bits.
        let stop = kill_after.min(log.len() - 1).max(1);
        let killed = run_from_source(
            &plan, paces, &c, &feeds, cfg, threads,
            SourceOptions { stop_after: Some(stop), ..Default::default() },
        );
        let SourceOutcome::Suspended { log: partial } = killed else {
            panic!("stop_after {stop} of {} wavefronts must suspend", log.len());
        };
        prop_assert_eq!(partial.len(), stop, "{}: commit log cut at the stop", &label);
        let resumed = run_from_source(
            &plan, paces, &c, &feeds, cfg, threads,
            SourceOptions { verify: Some(partial), ..Default::default() },
        );
        let SourceOutcome::Completed { result: resumed, log: resumed_log } = resumed else {
            panic!("resume must complete");
        };
        assert_bit_identical(&full, &resumed, &format!("{label} resumed@{stop}"))?;
        prop_assert_eq!(
            resumed_log.entries.len(), log.entries.len(),
            "{}: resumed log covers the full schedule", &label
        );
        prop_assert_eq!(&resumed_log.entries, &log.entries, "{}: commit logs agree", &label);
    }
}

/// Acceptance-level: an iShare-planned TPC-H workload with an update stream
/// (deletes + inserts), pulled from a jittered partitioned source, killed
/// after wavefront 2 and resumed — all bit-identical to the Vec-fed run.
#[test]
fn tpch_source_fed_matches_vec_fed_with_kill_resume() {
    let tpch = generate(0.002, 11).unwrap();
    let queries: Vec<(QueryId, _)> = sharing_friendly_queries(&tpch.catalog)
        .unwrap()
        .into_iter()
        .take(4)
        .enumerate()
        .map(|(i, q)| (QueryId(i as u16), q.plan))
        .collect();
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        queries.iter().map(|(q, _)| (*q, FinalWorkConstraint::Relative(0.25))).collect();
    let opts = PlanningOptions { max_pace: 8, ..Default::default() };
    let planned = plan_workload(Approach::IShare, &queries, &cons, &tpch.catalog, &opts).unwrap();
    let stream_cfg = StreamConfig {
        update_frac: 0.1,
        source: SourceConfig { partitions: 3, capacity: 32, jitter: 15, seed: 11 },
    };
    let feeds =
        ishare::tpch::with_updates(&tpch, stream_cfg.update_frac, stream_cfg.source.seed).unwrap();

    let reference = execute_planned_deltas(
        &planned.plan,
        planned.paces.as_slice(),
        &tpch.catalog,
        &feeds,
        CostWeights::default(),
    )
    .unwrap();

    // Jittered source, sequential and parallel.
    for threads in [1usize, 4] {
        let mut source = produce_source(&tpch, stream_cfg).unwrap();
        let outcome = execute_from_source_obs(
            &planned.plan,
            planned.paces.as_slice(),
            &tpch.catalog,
            &mut source,
            CostWeights::default(),
            SourceOptions { workers: threads, ..Default::default() },
        )
        .unwrap();
        let run = outcome.into_result().unwrap();
        assert_eq!(reference.results, run.results, "threads={threads}");
        assert_eq!(
            reference.total_work.get().to_bits(),
            run.total_work.get().to_bits(),
            "threads={threads}: source-fed total work must be bit-identical to Vec-fed"
        );
        assert_eq!(reference.final_work, run.final_work, "threads={threads}");
        assert_eq!(reference.executions, run.executions, "threads={threads}");
    }

    // Kill after wavefront 2, rebuild the source deterministically, replay.
    let mut source = produce_source(&tpch, stream_cfg).unwrap();
    let killed = execute_from_source_obs(
        &planned.plan,
        planned.paces.as_slice(),
        &tpch.catalog,
        &mut source,
        CostWeights::default(),
        SourceOptions { stop_after: Some(2), ..Default::default() },
    )
    .unwrap();
    let SourceOutcome::Suspended { log } = killed else {
        panic!("stop_after 2 must suspend");
    };
    assert_eq!(log.len(), 2);
    let mut source = produce_source(&tpch, stream_cfg).unwrap();
    let resumed = execute_from_source_obs(
        &planned.plan,
        planned.paces.as_slice(),
        &tpch.catalog,
        &mut source,
        CostWeights::default(),
        SourceOptions { verify: Some(log), ..Default::default() },
    )
    .unwrap()
    .into_result()
    .unwrap();
    assert_eq!(reference.results, resumed.results);
    assert_eq!(
        reference.total_work.get().to_bits(),
        resumed.total_work.get().to_bits(),
        "kill-after-2 + replay must be bit-identical to the uninterrupted Vec-fed run"
    );
    assert_eq!(reference.executions, resumed.executions);
}

/// Kill/resume with intra-subplan data parallelism on (DESIGN.md §12): the
/// exchange rebuilds hash-partitioned operator state deterministically from
/// the replayed deltas, so a run killed at a wavefront boundary and resumed
/// against its commit log at 2/4 partitions — through the jittered source,
/// on the parallel driver — must land bit-exactly on the unpartitioned
/// Vec-fed run's numbers.
#[test]
fn partitioned_kill_resume_replays_bit_exact() {
    let c = catalog();
    let plan = build_plan(&c, 3, &[50, 90, 30, 70], &[0, 2, 3, 1]);
    let t = c.table_by_name("t").unwrap().id;
    let spec: Vec<(i64, i64, bool)> = (0..50).map(|i| (i % 5, i * 17 % 100, i % 6 == 4)).collect();
    let feeds: HashMap<TableId, Vec<(Row, i64)>> = [(t, build_feed(&spec))].into_iter().collect();
    let paces = vec![3u32; plan.len()];
    let cfg = SourceConfig { partitions: 3, capacity: 32, jitter: 7, seed: 13 };

    let reference =
        execute_planned_deltas(&plan, &paces, &c, &feeds, CostWeights::default()).unwrap();

    for exec_partitions in [2usize, 4] {
        let popts = SourceOptions {
            partitions: exec_partitions,
            partition_threads: 2,
            ..Default::default()
        };
        let label = format!("exec partitions={exec_partitions}");

        // Uninterrupted source-fed partitioned run on the parallel driver.
        let SourceOutcome::Completed { result: full, log } =
            run_from_source(&plan, &paces, &c, &feeds, cfg, 2, popts.clone())
        else {
            panic!("{label}: uninterrupted run must complete");
        };
        assert_bit_identical(&reference, &full, &label).unwrap();

        // Kill after wavefront 2, rebuild, replay under verification.
        let killed = run_from_source(
            &plan,
            &paces,
            &c,
            &feeds,
            cfg,
            2,
            SourceOptions { stop_after: Some(2), ..popts.clone() },
        );
        let SourceOutcome::Suspended { log: partial } = killed else {
            panic!("{label}: stop_after 2 must suspend");
        };
        assert_eq!(partial.len(), 2, "{label}: commit log cut at the stop");
        let resumed = run_from_source(
            &plan,
            &paces,
            &c,
            &feeds,
            cfg,
            2,
            SourceOptions { verify: Some(partial), ..popts },
        );
        let SourceOutcome::Completed { result: resumed, log: resumed_log } = resumed else {
            panic!("{label}: resume must complete");
        };
        assert_bit_identical(&reference, &resumed, &format!("{label} resumed")).unwrap();
        assert_eq!(resumed_log.entries, log.entries, "{label}: commit logs agree");
    }
}

/// A tampered commit log must make the replay fail loudly instead of
/// silently diverging.
#[test]
fn replay_against_wrong_log_errors() {
    let c = catalog();
    let plan = build_plan(&c, 2, &[50, 90], &[0, 1]);
    let t = c.table_by_name("t").unwrap().id;
    let feed: Vec<(Row, i64)> =
        (0..30).map(|i| (Row::new(vec![Value::Int(i % 4), Value::Int(i)]), 1)).collect();
    let feeds: HashMap<TableId, Vec<(Row, i64)>> = [(t, feed)].into_iter().collect();
    let paces = vec![2u32; plan.len()];
    let cfg = SourceConfig { partitions: 2, capacity: 8, jitter: 3, seed: 5 };

    let mut source = Source::new(&feeds, cfg).unwrap();
    let SourceOutcome::Completed { mut log, .. } = execute_from_source_obs(
        &plan,
        &paces,
        &c,
        &mut source,
        CostWeights::default(),
        SourceOptions::default(),
    )
    .unwrap() else {
        panic!("must complete");
    };

    // Corrupt the first commit's delivered count.
    let first = log.entries.first_mut().unwrap();
    for tc in first.topics.values_mut() {
        tc.delivered += 1;
    }
    let mut source = Source::new(&feeds, cfg).unwrap();
    let err = execute_from_source_obs(
        &plan,
        &paces,
        &c,
        &mut source,
        CostWeights::default(),
        SourceOptions { verify: Some(log), ..Default::default() },
    );
    assert!(err.is_err(), "verification against a tampered log must error");
}
