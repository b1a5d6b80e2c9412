//! Live churn must leave *every* query that is live at the end with the
//! right answer — the survivors of the original set, not only the queries
//! admitted mid-run (the churn scenario of `tests/lattice.rs` checks the
//! same on a smaller script).
//!
//! The script shape is the benchmark's `live_churn`: the ten sharing-friendly
//! TPC-H queries by position, seven live from the start, three admitted at
//! 1/8, 3/8 and 5/8 of the stream and three removed at 2/8, 4/8 and 6/8. The
//! oracle is the final query set run as one unshared `Reference` batch; the
//! tolerance is the repository's 1e-9 (a different plan and the state
//! hand-off re-associate float sums).
//!
//! Two admissions due at one boundary are checked on a small table: the
//! second one can share the first one's fresh cone while that cone's
//! history still waits in its seeds.

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::exec::approx_result_eq;
use ishare::exec::batch_ref::run_logical;
use ishare::expr::Expr;
use ishare::plan::{LogicalPlan, PlanBuilder};
use ishare::storage::{Catalog, ColumnStats, Field, Row, Schema, TableStats};
use ishare::stream::{
    execute_churn_from_source, execute_from_source_obs, ChurnEvent, ChurnOp, ChurnOptions,
    ChurnScript, ExecMode, ObsConfig, ObsReport, Source, SourceConfig, SourceOptions,
    SourceOutcome,
};
use ishare::tpch::queries::sharing_friendly_queries;
use ishare::tpch::{generate, with_updates};
use ishare_common::{CostWeights, DataType, QueryId, TableId, Value};
use std::collections::{BTreeMap, HashMap};

const SEED: u64 = 42;
const REL_EPS: f64 = 1e-9;

/// Run the script with obs on and return the queries live at the end whose
/// results differ from the oracle's, with the churn run's report.
fn wrong_at_the_end(admitted: [usize; 3], removed: [usize; 3]) -> (Vec<QueryId>, ObsReport) {
    let data = generate(0.01, SEED).unwrap();
    let feeds = with_updates(&data, 0.0, SEED).unwrap();
    let source_cfg = SourceConfig { partitions: 2, capacity: 1024, jitter: 9, seed: SEED };
    let weights = CostWeights::default();
    let all: Vec<(QueryId, LogicalPlan)> = sharing_friendly_queries(&data.catalog)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, q)| (QueryId(i as u16), q.plan))
        .collect();
    let position = |q: &QueryId| q.0 as usize;

    let admit_constraint = FinalWorkConstraint::Relative(0.9);
    let mut events = Vec::new();
    for (k, (&a, &r)) in admitted.iter().zip(&removed).enumerate() {
        let op = ChurnOp::Admit {
            query: all[a].0,
            plan: all[a].1.clone(),
            constraint: admit_constraint,
        };
        events.push(ChurnEvent { num: (2 * k + 1) as u32, den: 8, op });
        let op = ChurnOp::Remove { query: all[r].0 };
        events.push(ChurnEvent { num: (2 * k + 2) as u32, den: 8, op });
    }
    let initial: Vec<(QueryId, LogicalPlan)> =
        all.iter().filter(|(q, _)| !admitted.contains(&position(q))).cloned().collect();
    let constraints: BTreeMap<QueryId, FinalWorkConstraint> =
        initial.iter().map(|(q, _)| (*q, FinalWorkConstraint::Relative(0.3))).collect();

    let mut source = Source::new(&feeds, source_cfg).unwrap();
    let churned = execute_churn_from_source(
        &initial,
        &constraints,
        &ChurnScript::new(events),
        &data.catalog,
        &mut source,
        weights,
        &ChurnOptions {
            source: SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() },
            max_pace: 16,
        },
    )
    .unwrap()
    .into_result()
    .unwrap();

    let live: Vec<(QueryId, LogicalPlan)> =
        all.iter().filter(|(q, _)| !removed.contains(&position(q))).cloned().collect();
    let oracle_plan = plan_workload(
        Approach::NoShareUniform,
        &live,
        &BTreeMap::new(),
        &data.catalog,
        &PlanningOptions { max_pace: 1, ..Default::default() },
    )
    .unwrap();
    let mut source = Source::new(&feeds, source_cfg).unwrap();
    let oracle = execute_from_source_obs(
        &oracle_plan.plan,
        oracle_plan.paces.as_slice(),
        &data.catalog,
        &mut source,
        weights,
        SourceOptions { mode: ExecMode::Reference, ..Default::default() },
    )
    .unwrap()
    .into_result()
    .unwrap();

    let results = &churned.run.results;
    assert_eq!(
        results.keys().collect::<Vec<_>>(),
        oracle.results.keys().collect::<Vec<_>>(),
        "exactly the queries live at the end answer"
    );
    let wrong = oracle
        .results
        .iter()
        .filter(|(q, expect)| !approx_result_eq(&results[*q], expect, REL_EPS))
        .map(|(q, _)| *q)
        .collect();
    (wrong, churned.run.obs.expect("obs was on"))
}

/// Sum of the report's gauges named `{prefix}…{suffix}`.
fn gauge_sum(report: &ObsReport, prefix: &str, suffix: &str) -> f64 {
    let named = |n: &str| n.starts_with(prefix) && n.ends_with(suffix);
    report.metrics.gauges().filter(|(n, _)| named(n)).map(|(_, v)| v).sum()
}

#[test]
fn survivors_and_admitted_queries_match_the_unshared_reference() {
    // The benchmark's script: admit q15, q17, q21; remove q5, q8, q18.
    let (wrong, report) = wrong_at_the_end([5, 6, 9], [1, 3, 7]);
    assert_eq!(wrong, Vec::<QueryId>::new());
    // An admitted cone reads its base history back from the source, so base
    // buffers drop what they have consumed and none keeps the whole stream.
    let high_water = gauge_sum(&report, "buffer.base.t", ".high_water");
    let delivered = gauge_sum(&report, "ingest.t", ".delivered");
    assert!(delivered > 0.0);
    assert!(high_water < delivered, "base high-water {high_water} of {delivered} delivered rows");
}

#[test]
fn admitting_q18_q20_leaves_survivors_intact() {
    // Admit q18, q20, q21; remove q5, q8, q15. q18's and q20's frontier cuts
    // excise a stateless scan → select subtree from surviving subplans.
    assert_eq!(wrong_at_the_end([7, 8, 9], [1, 3, 5]).0, Vec::<QueryId>::new());
}

/// One table `t(k, v)` of 120 rows, as in the admission unit tests.
fn small_table() -> (Catalog, HashMap<TableId, Vec<(Row, i64)>>) {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]);
    let stats = TableStats {
        row_count: 120.0,
        columns: vec![ColumnStats::ndv(10.0), ColumnStats::ndv(100.0)],
    };
    let t = c.add_table("t", schema, stats).unwrap();
    let rows = (0..120i64)
        .map(|i| (Row::new(vec![Value::Int(i % 10), Value::Int(i * 7 % 100)]), 1))
        .collect();
    (c, [(t, rows)].into_iter().collect())
}

/// Sum(v) as s by k, optionally over `v < 50` only.
fn sum_by_k(c: &Catalog, below_50: bool) -> PlanBuilder {
    let mut b = PlanBuilder::scan(c, "t").unwrap();
    if below_50 {
        b = b.select(|x| Ok(x.col("v")?.lt(Expr::lit(50i64)))).unwrap();
    }
    b.aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?])).unwrap()
}

#[test]
fn two_admissions_at_one_boundary_see_the_whole_history() {
    // q1 and q2 run one plan, admitted at 1/4 and 2/8: the same boundary, so
    // q2 joins q1's fresh cone while that cone's history still waits in its
    // seeds, not yet in its state. At 1/4 and 2/4 the seeds have run in
    // between. Each plan's fresh cone is another kind of subplan:
    // stateful over a shared subplan (max of sums), stateful over the base
    // table (select then sum), stateless over the base table (select), and
    // stateless over a shared subplan (large sums). Every live query is
    // checked against the batch reference, which `churn_errors_are_typed`
    // (same-boundary admissions of select-then-sum, `is_ok` only) does not.
    let (c, feed) = small_table();
    let rows: HashMap<_, Vec<Row>> =
        feed.iter().map(|(t, v)| (*t, v.iter().map(|(r, _)| r.clone()).collect())).collect();
    let q0 = sum_by_k(&c, false).project_cols(&["k", "s"]).unwrap().build();
    let fifty = Expr::lit(50i64);
    let plans = [
        ("max of sums", sum_by_k(&c, false).aggregate(&[], |x| Ok(vec![x.max("s", "m")?]))),
        ("select then sum", sum_by_k(&c, true).project_cols(&["k", "s"])),
        ("select", PlanBuilder::scan(&c, "t").unwrap().select(|x| Ok(x.col("v")?.lt(fifty)))),
        ("large sums", sum_by_k(&c, false).select(|x| Ok(x.col("s")?.gt(Expr::lit(600i64))))),
    ];
    let tight: BTreeMap<QueryId, FinalWorkConstraint> =
        (0..3).map(|q| (QueryId(q), FinalWorkConstraint::Relative(0.5))).collect();
    for (name, plan) in plans {
        let plan = plan.unwrap().build();
        for (second, boundaries) in [((2, 8), 1), ((2, 4), 2)] {
            let admit = |q: u16, (num, den): (u32, u32)| ChurnEvent {
                num,
                den,
                op: ChurnOp::Admit {
                    query: QueryId(q),
                    plan: plan.clone(),
                    constraint: FinalWorkConstraint::Relative(1.0),
                },
            };
            let script = ChurnScript::new(vec![admit(1, (1, 4)), admit(2, second)]);
            let mut source = Source::in_order(&feed);
            let outcome = execute_churn_from_source(
                &[(QueryId(0), q0.clone())],
                &tight,
                &script,
                &c,
                &mut source,
                CostWeights::default(),
                &ChurnOptions { max_pace: 4, ..Default::default() },
            );
            let label = format!("{name}, second admission at {second:?}");
            let (out, log) = match outcome.unwrap() {
                SourceOutcome::Completed { result, log } => (*result, log),
                SourceOutcome::Suspended { .. } => panic!("{label}: the run completes"),
            };
            let churned = log.entries.iter().filter(|e| !e.churn.is_empty()).count();
            assert_eq!(churned, boundaries, "{label}: boundaries that admit");
            for (q, lp) in [(0, &q0), (1, &plan), (2, &plan)] {
                let expect = run_logical(lp, &c, &rows).unwrap();
                assert_eq!(out.run.results[&QueryId(q)], expect, "{label}: q{q}");
            }
        }
    }
}
