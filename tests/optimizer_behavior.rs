//! Integration tests of the optimizer's *decisions* — the behaviours the
//! paper's evaluation hinges on, checked on real (small) TPC-H data with
//! measured work.

mod harness;

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

/// Decomposition is an edit of the shared DAG: on the lattice's generated
/// plans (a shared select, or a select → join → project trunk, fanning out
/// to per-query MIN / MAX / SUM / COUNT), a random query partition of the
/// trunk — after a random partial cut, or none — re-derives a valid plan
/// whose results at random paces are exactly the unedited plan's.
#[test]
fn decomposition_edits_preserve_results() {
    use harness::{build_feeds, build_plan, catalog, SplitMix, SEED};
    use ishare::core::decompose::partial::{cut_points, force_cut_points, subtree_candidates};
    use ishare::core::decompose::{regenerate, DagPlan};
    use ishare::stream::{execute_planned_deltas_with, SourceOptions};
    use ishare_common::{QuerySet, SubplanId};

    let c = catalog();
    let mut rng = SplitMix(SEED ^ 0xdec0);
    for case_no in 0..48 {
        let join = rng.chance(50);
        let (dag, plan) = build_plan(&c, &mut rng, join);
        let feeds = build_feeds(&c, &mut rng, join);
        let mut current = DagPlan::cut(dag, Vec::new()).unwrap();
        assert_eq!(current.plan, plan);
        let trunk = current.plan.subplans.iter().find(|sp| sp.queries.len() > 1).unwrap();
        let (queries, root) = (trunk.queries, current.roots[trunk.id.index()]);

        // A random partial cut of the trunk: its bottoms must stay shared.
        let mut bottoms = Vec::new();
        let candidates = subtree_candidates(trunk);
        if !candidates.is_empty() && rng.chance(60) {
            let included = &candidates[rng.range(0, candidates.len() as u64) as usize];
            let paths = cut_points(trunk, included);
            bottoms = paths.iter().map(|p| current.dag.node_at(root, p)).collect();
            current = force_cut_points(&current, trunk.id, included).unwrap();
        }
        let target = current.roots.iter().position(|r| *r == root).unwrap();

        // A random partition of the trunk's queries into at least two parts.
        let k = rng.range(2, queries.len() as u64 + 1) as usize;
        let mut parts = vec![QuerySet::EMPTY; k];
        for (i, q) in queries.iter().enumerate() {
            parts[if i < 2 { i } else { rng.range(0, k as u64) as usize }].insert(q);
        }
        parts.retain(|p| !p.is_empty());

        let label = format!("case {case_no} (join {join}, parts {parts:?}, bottoms {bottoms:?})");
        let (edited, clone_of) = regenerate(&current, SubplanId(target as u32), &parts).unwrap();
        edited.dag.validate(&c).unwrap_or_else(|e| panic!("{label}: edited DAG: {e}"));
        edited.plan.validate(&c).unwrap_or_else(|e| panic!("{label}: derived plan: {e}"));
        assert_eq!(edited.plan.queries(), plan.queries(), "{label}");
        for q in plan.queries().iter() {
            assert!(edited.plan.query_root(q).is_some(), "{label}: q{} has no output", q.0);
        }
        // The pieces — the subplans holding a clone of the trunk's root —
        // are exactly the partitions.
        let (n_old, holders) = (current.dag.nodes.len(), edited.holders());
        let mut pieces: Vec<QuerySet> = clone_of
            .iter()
            .enumerate()
            .filter(|(_, origin)| **origin == root)
            .map(|(i, _)| edited.plan.subplans[holders[n_old + i].unwrap().index()].queries)
            .collect();
        pieces.sort();
        parts.sort();
        assert_eq!(pieces, parts, "{label}: pieces");
        // Nothing left over: every subplan answers a query or feeds one.
        let parents = edited.plan.parents();
        for sp in &edited.plan.subplans {
            let used = !sp.output_queries.is_empty() || !parents[sp.id.index()].is_empty();
            assert!(used, "{label}: subplan {} feeds nothing", sp.id);
        }
        for b in &bottoms {
            let j = edited.roots.iter().position(|r| r == b);
            let shared = j.is_some_and(|j| edited.plan.subplans[j].queries == queries);
            assert!(shared, "{label}: bottom {b} is not a shared subplan");
        }

        let run = |plan: &ishare::plan::SharedPlan, rng: &mut SplitMix| {
            let paces: Vec<u32> = (0..plan.len()).map(|_| rng.range(1, 7) as u32).collect();
            let w = CostWeights::default();
            let opts = SourceOptions::default();
            execute_planned_deltas_with(plan, &paces, &c, &feeds, w, opts).unwrap().results
        };
        let want = run(&plan, &mut rng);
        assert!(run(&edited.plan, &mut rng) == want, "{label}: results differ");
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

/// The adaptive driver with adaptation disabled is the static driver bit
/// for bit with obs off and on — the controller still observes every
/// front, so observation itself perturbs nothing — for three seeded draws
/// of data seed and update mix (the run-kind × obs face of the
/// differential lattice, `tests/lattice.rs`, on TPC-H).
#[test]
fn disabled_adaptation_is_invariant_across_thread_counts() {
    use harness::{fig2_and_q6, run_vec, tpch_plan, SplitMix, SEED};
    use ishare::core::adapt::{AdaptController, AdaptOptions};
    use ishare::stream::{execute_adaptive_from_source_obs, ObsConfig, Source, SourceOptions};
    use ishare::tpch::with_updates;

    let mut rng = SplitMix(SEED ^ 0xad);
    for _ in 0..3 {
        let (seed, update_frac) = (rng.range(0, 256), rng.range(10, 60) as f64 / 100.0);
        let data = generate(0.004, seed).unwrap();
        let planned = tpch_plan(&data, &fig2_and_q6(&data), 0.3, 100);
        let feeds = with_updates(&data, update_frac, seed ^ 7).unwrap();
        let baseline = run_vec(&planned, &data, &feeds, SourceOptions::default());
        let w = CostWeights::default();
        for obs in [None, Some(ObsConfig::default())] {
            let label = format!("seed {seed}, updates {update_frac}, obs {}", obs.is_some());
            let off = AdaptOptions::disabled();
            let mut ctrl = AdaptController::from_planned(&planned, &data.catalog, w, off).unwrap();
            let opts = SourceOptions { obs, ..Default::default() };
            let mut source = Source::in_order(&feeds);
            let out = execute_adaptive_from_source_obs(
                &planned.plan,
                &data.catalog,
                &mut source,
                w,
                opts,
                &mut ctrl,
            );
            let got = harness::Ran::adaptive(out.unwrap(), &ctrl).done(&label);
            harness::assert_same(&baseline, &got, &label);
            assert!(ctrl.switches().is_empty(), "{label}: a disabled controller switched");
            assert!(ctrl.metrics().evaluations > 0, "{label}: the controller never observed");
        }
    }
}
