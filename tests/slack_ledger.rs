//! The slack ledger audits, bit for bit, the same residual-budget
//! arithmetic the adaptive controller plans with.
//!
//! `core::adapt` computes `R(q) = headroom · max(0, L(q) − charged_final)`
//! at every wavefront from quantities folded in global schedule order; the
//! ledger computes `remaining = max(0, budget − consumed)` from the same
//! fold. At headroom 1 the two must be `to_bits`-equal on every wavefront
//! of every query — across worker-thread counts, and with observability on
//! or off (the off runs must reproduce the identical work numbers the ledger
//! was derived from).

use ishare::core::adapt::{AdaptController, AdaptOptions};
use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::stream::{
    execute_adaptive_from_source_obs, ObsConfig, RunResult, SlackLedger, Source, SourceOptions,
};
use ishare::tpch::{generate, query_by_name, with_updates};
use ishare_common::{CostWeights, QueryId};
use std::collections::BTreeMap;

/// Exercise every wavefront: observe-only adaptation (infinite drift
/// threshold) at headroom 1, so the controller's residual log spans the
/// whole run and `R(q)` carries no headroom scaling.
fn observer_opts() -> AdaptOptions {
    AdaptOptions { headroom: 1.0, ..AdaptOptions::disabled() }
}

fn run_adaptive(
    seed: u64,
    update_frac: f64,
    threads: usize,
    obs: bool,
) -> (RunResult, AdaptController) {
    let data = generate(0.004, seed).unwrap();
    let names = ["qa", "qb", "q6"];
    let queries: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (QueryId(i as u16), query_by_name(&data.catalog, n).unwrap().plan))
        .collect();
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        (0..names.len()).map(|i| (QueryId(i as u16), FinalWorkConstraint::Relative(0.3))).collect();
    let opts = PlanningOptions { max_pace: 100, ..Default::default() };
    let planned = plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts).unwrap();
    let feeds = with_updates(&data, update_frac, seed ^ 7).unwrap();
    let w = CostWeights::default();

    let mut ctrl =
        AdaptController::from_planned(&planned, &data.catalog, w, observer_opts()).unwrap();
    let mut source = Source::in_order(&feeds);
    // No explicit `slo`: the adaptive entry points default the ledger's
    // budgets to the controller's constraints — the L(q) the residuals use.
    let src_opts =
        SourceOptions { obs: obs.then(ObsConfig::default), workers: threads, ..Default::default() };
    let run = execute_adaptive_from_source_obs(
        &planned.plan,
        &data.catalog,
        &mut source,
        w,
        src_opts,
        &mut ctrl,
    )
    .unwrap()
    .into_result()
    .unwrap();
    (run, ctrl)
}

/// The heart of the suite: every ledger sample's `remaining` equals the
/// controller's residual budget for that query at that wavefront, bitwise.
fn assert_ledger_matches_residuals(ledger: &SlackLedger, ctrl: &AdaptController, label: &str) {
    let log = ctrl.residual_log();
    assert_eq!(ledger.fronts(), log.len(), "{label}: ledger fronts != controller observations");
    for (q, slot) in ledger.queries() {
        assert_eq!(
            slot.budget.to_bits(),
            ctrl.constraints()[&q].to_bits(),
            "{label}: q{} budget != controller L(q)",
            q.0
        );
        for (sample, front) in slot.samples.iter().zip(log) {
            assert_eq!(sample.wavefront as usize, front.wavefront, "{label}: front order");
            assert_eq!((sample.num, sample.den), (front.num, front.den), "{label}: arrival frac");
            assert_eq!(
                sample.remaining.to_bits(),
                front.residuals[&q].to_bits(),
                "{label}: q{} wavefront {}: ledger remaining {} != residual budget {}",
                q.0,
                front.wavefront,
                sample.remaining,
                front.residuals[&q],
            );
        }
    }
}

fn assert_same_ledger(a: &SlackLedger, b: &SlackLedger, label: &str) {
    assert_eq!(a, b, "{label}: ledgers differ");
    for ((qa, sa), (_, sb)) in a.queries().zip(b.queries()) {
        for (x, y) in sa.samples.iter().zip(&sb.samples) {
            assert_eq!(
                x.remaining.to_bits(),
                y.remaining.to_bits(),
                "{label}: q{} front {} remaining bits",
                qa.0,
                x.wavefront
            );
            assert_eq!(x.consumed.to_bits(), y.consumed.to_bits(), "{label}: consumed bits");
            assert_eq!(
                x.charged_total.to_bits(),
                y.charged_total.to_bits(),
                "{label}: charged bits"
            );
            assert_eq!(x.front_work.to_bits(), y.front_work.to_bits(), "{label}: front_work bits");
        }
    }
}

fn check_case(seed: u64, update_frac: f64) {
    // Reference: sequential, obs on.
    let (run_ref, ctrl_ref) = run_adaptive(seed, update_frac, 1, true);
    let ledger_ref = run_ref.obs.as_ref().unwrap().slack.clone().expect("adaptive run has ledger");
    ledger_ref.verify().unwrap();
    assert_ledger_matches_residuals(&ledger_ref, &ctrl_ref, "reference");
    // The fold's consumed must be the driver's measured final work.
    for (q, slot) in ledger_ref.queries() {
        assert_eq!(slot.consumed().to_bits(), run_ref.final_work[&q].to_bits());
    }

    // Obs off: identical work numbers, no report — observation is free.
    let (run_off, ctrl_off) = run_adaptive(seed, update_frac, 1, false);
    assert!(run_off.obs.is_none());
    assert_eq!(run_ref.total_work.get().to_bits(), run_off.total_work.get().to_bits());
    for (q, w) in &run_ref.final_work {
        assert_eq!(w.to_bits(), run_off.final_work[q].to_bits(), "obs off: q{}", q.0);
    }
    // The controller saw the same residuals whether or not obs was on.
    for (a, b) in ctrl_ref.residual_log().iter().zip(ctrl_off.residual_log()) {
        for (q, r) in &a.residuals {
            assert_eq!(r.to_bits(), b.residuals[q].to_bits(), "obs off residuals: q{}", q.0);
        }
    }

    // Every worker count reproduces the identical ledger.
    for threads in [2usize, 4] {
        let label = format!("threads {threads}");
        let (run, ctrl) = run_adaptive(seed, update_frac, threads, true);
        assert_eq!(
            run_ref.total_work.get().to_bits(),
            run.total_work.get().to_bits(),
            "{label}: total work"
        );
        let ledger = run.obs.as_ref().unwrap().slack.clone().unwrap();
        ledger.verify().unwrap();
        assert_ledger_matches_residuals(&ledger, &ctrl, &label);
        assert_same_ledger(&ledger_ref, &ledger, &label);
    }
}

proptest::proptest! {
    // Each case executes the workload 4 times (reference at 1 thread +
    // obs-off + 2 and 4 threads); a few cases keep the suite's wall clock
    // sane while still varying seed and update mix.
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]
    #[test]
    fn ledger_remaining_is_bitwise_equal_to_adapt_residuals(
        seed in 0u64..256,
        update_frac in 0.1f64..0.6,
    ) {
        check_case(seed, update_frac);
    }
}

/// A pinned single case so plain `cargo test` failures reproduce without
/// proptest shrinking.
#[test]
fn ledger_matches_residuals_pinned_case() {
    check_case(42, 0.4);
}
