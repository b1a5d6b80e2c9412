//! Final work is charged only at the trigger, and the slack ledger records
//! it there.
//!
//! Every final tick sits at arrival fraction 1 — which is why the adapt
//! controller and the churn runner re-plan under the budgets `L(q)`
//! themselves — and each budgeted query's account holds, as `consumed`, the
//! run's measured final work to the bit. One adaptive run that switches
//! paces and one churn run that admits and removes queries are checked,
//! each with observability on and off (which must not change a work
//! number).

mod harness;

use harness::{fig2_and_q6, sharing_friendly, tpch_plan};
use ishare::core::adapt::{AdaptController, AdaptOptions};
use ishare::core::FinalWorkConstraint;
use ishare::obs::SpanKind;
use ishare::plan::LogicalPlan;
use ishare::stream::{
    execute_adaptive_from_source_obs, execute_churn_from_source, insert_feeds, ChurnEvent, ChurnOp,
    ChurnOptions, ChurnScript, ObsConfig, RunResult, Source, SourceOptions,
};
use ishare::tpch::{generate, with_updates};
use ishare_common::{CostWeights, QueryId};
use std::collections::BTreeMap;

/// Every final tick in the trace ran at fraction 1, one per final execution
/// folded; the ledger holds one account per answering query, and its
/// `consumed` is the measured final work.
fn assert_charged_only_at_the_trigger(run: &RunResult, label: &str) {
    let report = run.obs.as_ref().expect("an obs run has a report");
    assert_eq!(report.trace.dropped(), 0, "{label}: the trace was cut short");
    let mut finals = 0u64;
    for s in report.trace.spans() {
        if let SpanKind::Tick { num, den, is_final: true, .. } = s.kind {
            assert_eq!(num, den, "{label}: sp{} ran a final tick at {num}/{den}", s.sp);
            finals += 1;
        }
    }
    let folded: u64 = report.executions_by_subplan.iter().map(|e| e.finals).sum();
    assert_eq!(finals, folded + report.replaced_executions.finals, "{label}: finals");

    let ledger = report.slack.as_ref().expect("an obs run has a ledger");
    ledger.verify().unwrap();
    let accounts: Vec<QueryId> = ledger.queries().map(|(q, _)| q).collect();
    let answered: Vec<QueryId> = run.final_work.keys().copied().collect();
    assert_eq!(accounts, answered, "{label}: one account per answering query");
    for (q, slot) in ledger.queries() {
        assert_eq!(
            slot.consumed.to_bits(),
            run.final_work[&q].to_bits(),
            "{label}: {q} consumed {} != final work {}",
            slot.consumed,
            run.final_work[&q]
        );
    }
}

/// Observability changes no work number.
fn assert_same_work(on: &RunResult, off: &RunResult, label: &str) {
    assert!(off.obs.is_none());
    assert_eq!(on.total_work.get().to_bits(), off.total_work.get().to_bits(), "{label}: total");
    assert_eq!(on.executions, off.executions, "{label}: executions");
    assert_eq!(on.final_work.len(), off.final_work.len(), "{label}: queries");
    for (q, w) in &on.final_work {
        assert_eq!(w.to_bits(), off.final_work[q].to_bits(), "{label}: {q} final work");
    }
}

/// `qa`/`qb`/`q6` planned at `Relative(0.35)` from clean statistics and fed
/// a stream with 40% updates: the controller switches paces mid-run.
#[test]
fn adaptive_run_charges_final_work_only_at_the_trigger() {
    let data = generate(0.004, 42).unwrap();
    let planned = tpch_plan(&data, &fig2_and_q6(&data), 0.35, 100);
    let feeds = with_updates(&data, 0.4, 42 ^ 0x00ad_a917).unwrap();
    let w = CostWeights::default();
    let run = |obs: bool| {
        let opts = AdaptOptions::default();
        let mut ctrl = AdaptController::from_planned(&planned, &data.catalog, w, opts).unwrap();
        // No explicit `slo`: the ledger's budgets are the controller's L(q).
        let src_opts = SourceOptions { obs: obs.then(ObsConfig::default), ..Default::default() };
        let mut source = Source::in_order(&feeds);
        let out = execute_adaptive_from_source_obs(
            &planned.plan,
            &data.catalog,
            &mut source,
            w,
            src_opts,
            &mut ctrl,
        );
        (out.unwrap().into_result().unwrap(), ctrl.switches().len())
    };
    let (on, switches) = run(true);
    assert!(switches > 0, "the drifted stream must make the controller switch");
    assert_charged_only_at_the_trigger(&on, "adapt");
    assert_same_work(&on, &run(false).0, "adapt obs off");
}

/// Three sharing-friendly queries live, two admitted at 1/4 and 2/4 and q1
/// removed at 3/4.
#[test]
fn churn_run_charges_final_work_only_at_the_trigger() {
    let data = generate(0.002, 11).unwrap();
    let pool = sharing_friendly(&data, 5);
    let initial: Vec<(QueryId, LogicalPlan)> =
        (0..3).map(|i| (QueryId(i as u16), pool[i].clone())).collect();
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        (0..5).map(|q| (QueryId(q), FinalWorkConstraint::Relative(0.35))).collect();
    let admit = |q: u16| ChurnOp::Admit {
        query: QueryId(q),
        plan: pool[q as usize].clone(),
        constraint: FinalWorkConstraint::Relative(0.9),
    };
    let script = ChurnScript::new(vec![
        ChurnEvent { num: 1, den: 4, op: admit(3) },
        ChurnEvent { num: 2, den: 4, op: admit(4) },
        ChurnEvent { num: 3, den: 4, op: ChurnOp::Remove { query: QueryId(1) } },
    ]);
    let feeds = insert_feeds(&data.data);
    let run = |obs: bool| {
        let source = SourceOptions { obs: obs.then(ObsConfig::default), ..Default::default() };
        let opts = ChurnOptions { source, max_pace: 16 };
        let (c, w) = (&data.catalog, CostWeights::default());
        let mut src = Source::in_order(&feeds);
        let out = execute_churn_from_source(&initial, &cons, &script, c, &mut src, w, &opts);
        out.unwrap().into_result().unwrap()
    };
    let on = run(true);
    assert_eq!(on.churn.len(), 3, "both admissions and the removal applied");
    assert_eq!(on.removed, [QueryId(1)]);
    let live: Vec<QueryId> = on.run.final_work.keys().copied().collect();
    assert_eq!(live, [0, 2, 3, 4].map(QueryId), "exactly the live queries answer");
    assert_charged_only_at_the_trigger(&on.run, "churn");
    assert_same_work(&on.run, &run(false).run, "churn obs off");
}
