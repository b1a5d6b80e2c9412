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

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::exec::approx_result_eq;
use ishare::plan::LogicalPlan;
use ishare::stream::{
    execute_churn_from_source, execute_from_source_obs, ChurnEvent, ChurnOp, ChurnOptions,
    ChurnScript, ExecMode, Source, SourceConfig, SourceOptions,
};
use ishare::tpch::queries::sharing_friendly_queries;
use ishare::tpch::{generate, with_updates};
use ishare_common::{CostWeights, QueryId};
use std::collections::BTreeMap;

const SEED: u64 = 42;
const REL_EPS: f64 = 1e-9;

/// Run the script and return the queries live at the end whose results
/// differ from the oracle's.
fn wrong_at_the_end(admitted: [usize; 3], removed: [usize; 3]) -> Vec<QueryId> {
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
        &ChurnOptions { max_pace: 16, ..Default::default() },
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
    oracle
        .results
        .iter()
        .filter(|(q, expect)| !approx_result_eq(&results[*q], expect, REL_EPS))
        .map(|(q, _)| *q)
        .collect()
}

#[test]
fn survivors_and_admitted_queries_match_the_unshared_reference() {
    // The benchmark's script: admit q15, q17, q21; remove q5, q8, q18.
    assert_eq!(wrong_at_the_end([5, 6, 9], [1, 3, 7]), Vec::<QueryId>::new());
}

#[test]
fn admitting_q18_q20_leaves_survivors_intact() {
    // Admit q18, q20, q21; remove q5, q8, q15. q18's and q20's frontier cuts
    // excise a stateless scan → select subtree from surviving subplans.
    assert_eq!(wrong_at_the_end([7, 8, 9], [1, 3, 5]), Vec::<QueryId>::new());
}
