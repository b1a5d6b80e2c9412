//! Integration tests of the optimizer's *decisions* — the behaviours the
//! paper's evaluation hinges on, checked on real (small) TPC-H data with
//! measured work.

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::stream::execute_planned;
use ishare::tpch::{generate, query_by_name};
use ishare_common::{CostWeights, QueryId};
use std::collections::BTreeMap;

fn queries_by_name(
    data: &ishare::tpch::TpchData,
    names: &[&str],
) -> Vec<(QueryId, ishare::plan::LogicalPlan)> {
    names
        .iter()
        .enumerate()
        .map(|(i, n)| (QueryId(i as u16), query_by_name(&data.catalog, n).unwrap().plan))
        .collect()
}

#[test]
fn sharing_wins_when_constraints_are_loose() {
    // Fig. 17c left side: at relative 1.0 and 0.5, Share-Uniform and iShare
    // beat the NoShare approaches on measured work.
    let data = generate(0.004, 21).unwrap();
    let queries = queries_by_name(&data, &["qa", "qb"]);
    for frac in [1.0, 0.5] {
        let cons: BTreeMap<QueryId, FinalWorkConstraint> = [
            (QueryId(0), FinalWorkConstraint::Relative(1.0)),
            (QueryId(1), FinalWorkConstraint::Relative(frac)),
        ]
        .into_iter()
        .collect();
        let opts = PlanningOptions { max_pace: 60, ..Default::default() };
        let mut measured = BTreeMap::new();
        for a in [Approach::NoShareUniform, Approach::ShareUniform, Approach::IShare] {
            let p = plan_workload(a, &queries, &cons, &data.catalog, &opts).unwrap();
            let run = execute_planned(
                &p.plan,
                p.paces.as_slice(),
                &data.catalog,
                &data.data,
                CostWeights::default(),
            )
            .unwrap();
            measured.insert(a.label(), run.total_work.get());
        }
        assert!(measured["iShare"] < measured["NoShare-Uniform"], "frac {frac}: {measured:?}");
        assert!(
            measured["Share-Uniform"] < measured["NoShare-Uniform"],
            "frac {frac}: {measured:?}"
        );
    }
}

#[test]
fn single_pace_sharing_loses_when_constraints_tighten() {
    // Fig. 17c right side: at relative 0.1 the single-pace shared plan's
    // eager churn makes it worse than not sharing; iShare stays at least
    // competitive with the best of the two.
    let data = generate(0.004, 22).unwrap();
    let queries = queries_by_name(&data, &["qa", "qb"]);
    let cons: BTreeMap<QueryId, FinalWorkConstraint> = [
        (QueryId(0), FinalWorkConstraint::Relative(1.0)),
        (QueryId(1), FinalWorkConstraint::Relative(0.1)),
    ]
    .into_iter()
    .collect();
    let opts = PlanningOptions { max_pace: 100, ..Default::default() };
    let mut measured = BTreeMap::new();
    for a in [Approach::NoShareUniform, Approach::ShareUniform, Approach::IShare] {
        let p = plan_workload(a, &queries, &cons, &data.catalog, &opts).unwrap();
        let run = execute_planned(
            &p.plan,
            p.paces.as_slice(),
            &data.catalog,
            &data.data,
            CostWeights::default(),
        )
        .unwrap();
        measured.insert(a.label(), run.total_work.get());
    }
    assert!(measured["NoShare-Uniform"] < measured["Share-Uniform"], "{measured:?}");
    // The paper's claim for this regime is "similar performance to NoShare
    // approaches"; iShare must at least not be meaningfully worse than the
    // single-pace shared plan.
    assert!(measured["iShare"] <= measured["Share-Uniform"] * 1.05, "{measured:?}");
}

#[test]
fn decomposition_pass_changes_the_plan_under_pressure() {
    // A broad lazy query and a narrow tight one sharing a max-over-sum
    // pipeline (the Q15/Fig. 2 mechanism): the decomposition pass must
    // fire — iShare's plan differs from the w/o-unshare plan and costs
    // less, both estimated and measured.
    use ishare::plan::PlanBuilder;
    use ishare_common::{DataType, Value};
    use ishare_expr::Expr;
    use ishare_storage::{Catalog, ColumnStats, Field, Row, Schema, TableStats};

    let mut catalog = Catalog::new();
    let n_rows = 30_000usize;
    let t = catalog
        .add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: n_rows as f64,
                columns: vec![
                    ColumnStats::ndv(40.0),
                    ColumnStats::with_range(2000.0, Value::Int(0), Value::Int(1999)),
                ],
            },
        )
        .unwrap();
    let broad = PlanBuilder::scan(&catalog, "t")
        .unwrap()
        .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
        .unwrap()
        .aggregate(&[], |x| Ok(vec![x.max("s", "m")?]))
        .unwrap()
        .build();
    let narrow = PlanBuilder::scan(&catalog, "t")
        .unwrap()
        .select(|x| Ok(x.col("v")?.lt(Expr::lit(40i64))))
        .unwrap()
        .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
        .unwrap()
        .aggregate(&[], |x| Ok(vec![x.max("s", "m")?]))
        .unwrap()
        .build();
    let queries = vec![(QueryId(0), broad), (QueryId(1), narrow)];
    let cons: BTreeMap<QueryId, FinalWorkConstraint> = [
        (QueryId(0), FinalWorkConstraint::Relative(1.0)),
        (QueryId(1), FinalWorkConstraint::Relative(0.05)),
    ]
    .into_iter()
    .collect();
    let opts = PlanningOptions { max_pace: 100, ..Default::default() };
    let without =
        plan_workload(Approach::IShareNoUnshare, &queries, &cons, &catalog, &opts).unwrap();
    let with = plan_workload(Approach::IShare, &queries, &cons, &catalog, &opts).unwrap();
    assert!(
        with.report.total_work.get() <= without.report.total_work.get(),
        "unsharing may only help: {} vs {}",
        with.report.total_work.get(),
        without.report.total_work.get()
    );
    assert!(with.plan != without.plan, "expected the decomposition pass to adopt a new plan");

    // Measured confirmation on real rows, including result equality.
    let rows: Vec<Row> = (0..n_rows as i64)
        .map(|i| Row::new(vec![Value::Int(i % 40), Value::Int(i * 7 % 2000)]))
        .collect();
    let data = [(t, rows)].into_iter().collect();
    let run_without = execute_planned(
        &without.plan,
        without.paces.as_slice(),
        &catalog,
        &data,
        CostWeights::default(),
    )
    .unwrap();
    let run_with =
        execute_planned(&with.plan, with.paces.as_slice(), &catalog, &data, CostWeights::default())
            .unwrap();
    assert!(
        run_with.total_work.get() < run_without.total_work.get(),
        "measured: decomposed {} vs shared {}",
        run_with.total_work.get(),
        run_without.total_work.get()
    );
    for q in [QueryId(0), QueryId(1)] {
        assert!(ishare::exec::approx_result_eq(
            &run_with.results[&q],
            &run_without.results[&q],
            1e-9
        ));
    }
}

#[test]
fn q15_tight_constraint_planned_and_met_by_both_noshare_variants() {
    // The Q15 discussion (Sec. 5.3) concerns paper-scale data, where the
    // MAX's arrived-value rescans dominate. At this repo's test scale the
    // robust claims are: both NoShare variants plan the query, the
    // blocking-operator cuts give Nonuniform strictly more pace knobs, and
    // both meet the measured latency goal (goal = 0.1 × measured batch
    // final work).
    let data = generate(0.004, 24).unwrap();
    let queries = queries_by_name(&data, &["q15"]);
    // Measured batch baseline.
    let loose: BTreeMap<QueryId, FinalWorkConstraint> =
        [(QueryId(0), FinalWorkConstraint::Relative(1.0))].into_iter().collect();
    let batch_opts = PlanningOptions { max_pace: 1, ..Default::default() };
    let batch =
        plan_workload(Approach::NoShareUniform, &queries, &loose, &data.catalog, &batch_opts)
            .unwrap();
    let batch_run = execute_planned(
        &batch.plan,
        batch.paces.as_slice(),
        &data.catalog,
        &data.data,
        CostWeights::default(),
    )
    .unwrap();
    let goal = batch_run.final_work[&QueryId(0)] * 0.1;

    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        [(QueryId(0), FinalWorkConstraint::Relative(0.1))].into_iter().collect();
    let opts = PlanningOptions { max_pace: 100, ..Default::default() };
    let uni =
        plan_workload(Approach::NoShareUniform, &queries, &cons, &data.catalog, &opts).unwrap();
    let non =
        plan_workload(Approach::NoShareNonuniform, &queries, &cons, &data.catalog, &opts).unwrap();
    assert!(non.plan.len() > uni.plan.len(), "blocking cuts add subplans");
    for planned in [&uni, &non] {
        let run = execute_planned(
            &planned.plan,
            planned.paces.as_slice(),
            &data.catalog,
            &data.data,
            CostWeights::default(),
        )
        .unwrap();
        assert!(
            run.final_work[&QueryId(0)] <= goal * 1.5,
            "measured final {} vs goal {goal}",
            run.final_work[&QueryId(0)]
        );
    }
}

#[test]
fn absolute_constraints_respected_by_estimates() {
    let data = generate(0.004, 25).unwrap();
    let queries = queries_by_name(&data, &["q6"]);
    // Find the batch final work first.
    let loose: BTreeMap<QueryId, FinalWorkConstraint> =
        [(QueryId(0), FinalWorkConstraint::Relative(1.0))].into_iter().collect();
    let opts = PlanningOptions { max_pace: 50, ..Default::default() };
    let base = plan_workload(Approach::IShare, &queries, &loose, &data.catalog, &opts).unwrap();
    let batch_final = base.batch_finals[&QueryId(0)];
    // Now demand an absolute bound at 30% of it.
    let abs: BTreeMap<QueryId, FinalWorkConstraint> =
        [(QueryId(0), FinalWorkConstraint::Absolute(batch_final * 0.3))].into_iter().collect();
    let planned = plan_workload(Approach::IShare, &queries, &abs, &data.catalog, &opts).unwrap();
    assert!(planned.feasible);
    assert!(
        planned.report.final_of(QueryId(0)).get() <= batch_final * 0.3 + 1e-6,
        "estimated final work violates the absolute constraint"
    );
}

#[test]
fn infeasible_workload_still_plans_and_runs() {
    // An absurd constraint is reported as infeasible (missed latency), not
    // an error, and the plan still executes correctly.
    let data = generate(0.003, 26).unwrap();
    let queries = queries_by_name(&data, &["q15"]);
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        [(QueryId(0), FinalWorkConstraint::Absolute(1.0))].into_iter().collect();
    let opts = PlanningOptions { max_pace: 10, ..Default::default() };
    let planned = plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts).unwrap();
    assert!(!planned.feasible);
    let run = execute_planned(
        &planned.plan,
        planned.paces.as_slice(),
        &data.catalog,
        &data.data,
        CostWeights::default(),
    )
    .unwrap();
    let expected =
        ishare::exec::batch_ref::run_logical(&queries[0].1, &data.catalog, &data.data).unwrap();
    assert!(ishare::exec::approx_result_eq(&run.results[&QueryId(0)], &expected, 1e-9));
}

/// One line capturing everything the optimizer decided: the approach's
/// paces, the plan shape, and the bit patterns of the estimated work.
/// Any nondeterminism in planning — map iteration order, float reduction
/// order, tie-breaking — shows up as a differing summary.
fn optimize_summary() -> String {
    let data = generate(0.004, 42).unwrap();
    let queries = queries_by_name(&data, &["qa", "qb", "q6"]);
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        (0..3).map(|i| (QueryId(i), FinalWorkConstraint::Relative(0.3))).collect();
    let opts = PlanningOptions { max_pace: 100, ..Default::default() };
    let p = plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts).unwrap();
    let finals: Vec<String> = p
        .plan
        .queries()
        .iter()
        .map(|q| format!("q{}:{:016x}", q.0, p.report.final_of(q).get().to_bits()))
        .collect();
    format!(
        "paces={:?} subplans={} feasible={} total={:016x} {}",
        p.paces,
        p.plan.len(),
        p.feasible,
        p.report.total_work.get().to_bits(),
        finals.join(" ")
    )
}

#[test]
fn optimize_is_deterministic_across_processes() {
    // HashMap iteration order varies *between processes* (random SipHash
    // keys), so in-process repetition cannot catch ordering bugs. Re-run
    // the whole planning pipeline in a child process and demand an
    // identical decision summary.
    let summary = optimize_summary();
    if std::env::var_os("ISHARE_OPT_SUMMARY_CHILD").is_some() {
        println!("SUMMARY:{summary}");
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args(["optimize_is_deterministic_across_processes", "--exact", "--nocapture"])
        .env("ISHARE_OPT_SUMMARY_CHILD", "1")
        .output()
        .unwrap();
    assert!(out.status.success(), "child test run failed: {:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The libtest harness prints "test <name> ... " on the same line before
    // captured output, so match the marker anywhere in a line.
    let child = stdout
        .lines()
        .find_map(|l| l.split_once("SUMMARY:").map(|(_, s)| s))
        .unwrap_or_else(|| panic!("child printed no summary:\n{stdout}"));
    assert_eq!(summary, child, "optimizer decisions differ across processes");
}

// The adaptive drivers with an infinite drift threshold must be
// bit-identical to the static driver — the controller still observes
// every wavefront, so this proves observation itself perturbs nothing —
// and identical across 1/2/4 worker threads, for any seed and update mix.
fn check_disabled_adaptation_invariance(seed: u64, update_frac: f64) {
    use ishare::core::adapt::{AdaptController, AdaptOptions};
    use ishare::stream::{
        execute_adaptive_from_source_obs, execute_planned_deltas, Source, SourceOptions,
    };
    use ishare::tpch::with_updates;

    let data = generate(0.004, seed).unwrap();
    let queries = queries_by_name(&data, &["qa", "qb", "q6"]);
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        (0..3).map(|i| (QueryId(i), FinalWorkConstraint::Relative(0.3))).collect();
    let opts = PlanningOptions { max_pace: 100, ..Default::default() };
    let planned = plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts).unwrap();
    let feeds = with_updates(&data, update_frac, seed ^ 7).unwrap();
    let w = CostWeights::default();

    let baseline =
        execute_planned_deltas(&planned.plan, planned.paces.as_slice(), &data.catalog, &feeds, w)
            .unwrap();
    for threads in [1usize, 2, 4] {
        let mut ctrl =
            AdaptController::from_planned(&planned, &data.catalog, w, AdaptOptions::disabled())
                .unwrap();
        let mut source = Source::in_order(&feeds);
        let run = execute_adaptive_from_source_obs(
            &planned.plan,
            &data.catalog,
            &mut source,
            w,
            SourceOptions { workers: threads, ..Default::default() },
            &mut ctrl,
        )
        .unwrap()
        .into_result()
        .unwrap();
        assert_eq!(
            baseline.total_work.get().to_bits(),
            run.total_work.get().to_bits(),
            "threads {threads}: total work drifted"
        );
        for (q, work) in &baseline.final_work {
            assert_eq!(
                work.to_bits(),
                run.final_work[q].to_bits(),
                "threads {threads}: final work drifted for q{}",
                q.0
            );
        }
        assert_eq!(baseline.results, run.results, "threads {threads}: results drifted");
        assert!(ctrl.switches().is_empty(), "disabled controller must never switch");
        assert!(ctrl.metrics().evaluations > 0, "controller must still observe wavefronts");
    }
}

proptest::proptest! {
    // Each case plans and runs the workload four times; a few cases keep the
    // suite's wall clock sane while still varying seed and update mix.
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]
    #[test]
    fn disabled_adaptation_is_invariant_across_thread_counts(
        seed in 0u64..256,
        update_frac in 0.1f64..0.6,
    ) {
        check_disabled_adaptation_invariance(seed, update_frac);
    }
}
