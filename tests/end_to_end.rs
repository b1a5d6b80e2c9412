//! End-to-end integration tests: queries → MQO → iShare optimization →
//! paced execution, checked against the independent reference executor.
//!
//! These are the repo's strongest correctness guarantees: *every* approach,
//! at *any* pace configuration the optimizers produce, must return results
//! identical to naive single-query batch evaluation.

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::exec::approx_result_eq;
use ishare::exec::batch_ref::run_logical;
use ishare::stream::execute_planned;
use ishare::tpch::{generate, query_by_name};
use ishare_common::{CostWeights, QueryId};
use std::collections::BTreeMap;

fn small_workload(
    data: &ishare::tpch::TpchData,
    names: &[&str],
) -> Vec<(QueryId, ishare::plan::LogicalPlan)> {
    names
        .iter()
        .enumerate()
        .map(|(i, n)| (QueryId(i as u16), query_by_name(&data.catalog, n).unwrap().plan))
        .collect()
}

fn rel_constraints(n: usize, frac: f64) -> BTreeMap<QueryId, FinalWorkConstraint> {
    (0..n).map(|i| (QueryId(i as u16), FinalWorkConstraint::Relative(frac))).collect()
}

/// Execute one planned workload and assert results equal the reference.
fn check_results_match_reference(
    approach: Approach,
    names: &[&str],
    frac: f64,
    data: &ishare::tpch::TpchData,
) {
    let queries = small_workload(data, names);
    let cons = rel_constraints(names.len(), frac);
    let opts = PlanningOptions { max_pace: 12, ..Default::default() };
    let planned = plan_workload(approach, &queries, &cons, &data.catalog, &opts)
        .unwrap_or_else(|e| panic!("{} planning failed: {e}", approach.label()));
    planned.paces.respects_plan(&planned.plan).unwrap();
    let run = execute_planned(
        &planned.plan,
        planned.paces.as_slice(),
        &data.catalog,
        &data.data,
        CostWeights::default(),
    )
    .unwrap_or_else(|e| panic!("{} execution failed: {e}", approach.label()));
    for (i, name) in names.iter().enumerate() {
        let q = QueryId(i as u16);
        let expected = run_logical(&queries[i].1, &data.catalog, &data.data).unwrap();
        assert!(
            approx_result_eq(&run.results[&q], &expected, 1e-9),
            "{}: query {name} differs from reference (paces {})",
            approach.label(),
            planned.paces
        );
    }
}

#[test]
fn qa_qb_all_approaches_match_reference() {
    let data = generate(0.002, 77).unwrap();
    for approach in [
        Approach::NoShareUniform,
        Approach::NoShareNonuniform,
        Approach::ShareUniform,
        Approach::IShareNoUnshare,
        Approach::IShare,
    ] {
        check_results_match_reference(approach, &["qa", "qb"], 0.4, &data);
    }
}

#[test]
fn mixed_tpch_queries_match_reference_under_ishare() {
    let data = generate(0.002, 78).unwrap();
    check_results_match_reference(Approach::IShare, &["q1", "q6", "q3"], 0.3, &data);
}

#[test]
fn q15_variant_pair_matches_reference() {
    // The non-incrementable max-over-sum query together with an
    // incrementable one — the PairB shape of Fig. 17b.
    let data = generate(0.002, 79).unwrap();
    check_results_match_reference(Approach::IShare, &["q7", "q15"], 0.5, &data);
    check_results_match_reference(Approach::ShareUniform, &["q7", "q15"], 0.5, &data);
}

#[test]
fn tight_constraints_reduce_measured_final_work() {
    let data = generate(0.002, 80).unwrap();
    let queries = small_workload(&data, &["qa", "qb"]);
    let opts = PlanningOptions { max_pace: 20, ..Default::default() };

    let loose =
        plan_workload(Approach::IShare, &queries, &rel_constraints(2, 1.0), &data.catalog, &opts)
            .unwrap();
    let tight =
        plan_workload(Approach::IShare, &queries, &rel_constraints(2, 0.2), &data.catalog, &opts)
            .unwrap();

    let run_loose = execute_planned(
        &loose.plan,
        loose.paces.as_slice(),
        &data.catalog,
        &data.data,
        CostWeights::default(),
    )
    .unwrap();
    let run_tight = execute_planned(
        &tight.plan,
        tight.paces.as_slice(),
        &data.catalog,
        &data.data,
        CostWeights::default(),
    )
    .unwrap();

    for q in [QueryId(0), QueryId(1)] {
        assert!(
            run_tight.final_work[&q] < run_loose.final_work[&q],
            "query {q}: tight {} !< loose {}",
            run_tight.final_work[&q],
            run_loose.final_work[&q]
        );
    }
    // And the laziness is paid for with less total work.
    assert!(run_loose.total_work.get() <= run_tight.total_work.get());
}

#[test]
fn ishare_total_work_not_worse_than_share_uniform_measured() {
    // Measured (not just estimated) total work: iShare must not lose to
    // Share-Uniform on the Fig. 2 pair with asymmetric constraints.
    let data = generate(0.002, 81).unwrap();
    let queries = small_workload(&data, &["qa", "qb"]);
    let mut cons = BTreeMap::new();
    cons.insert(QueryId(0), FinalWorkConstraint::Relative(1.0));
    cons.insert(QueryId(1), FinalWorkConstraint::Relative(0.1));
    let opts = PlanningOptions { max_pace: 20, ..Default::default() };

    let su = plan_workload(Approach::ShareUniform, &queries, &cons, &data.catalog, &opts).unwrap();
    let is = plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts).unwrap();
    let run_su = execute_planned(
        &su.plan,
        su.paces.as_slice(),
        &data.catalog,
        &data.data,
        CostWeights::default(),
    )
    .unwrap();
    let run_is = execute_planned(
        &is.plan,
        is.paces.as_slice(),
        &data.catalog,
        &data.data,
        CostWeights::default(),
    )
    .unwrap();
    assert!(
        run_is.total_work.get() <= run_su.total_work.get() * 1.10,
        "iShare measured {} vs Share-Uniform {}",
        run_is.total_work.get(),
        run_su.total_work.get()
    );
}

#[test]
fn all_22_tpch_queries_match_reference_under_ishare() {
    // The flagship correctness check: the entire TPC-H workload, shared and
    // paced by the full optimizer, must reproduce every query's reference
    // result.
    let data = generate(0.002, 99).unwrap();
    let defs = ishare::tpch::all_queries(&data.catalog).unwrap();
    let queries: Vec<(QueryId, ishare::plan::LogicalPlan)> =
        defs.iter().enumerate().map(|(i, d)| (QueryId(i as u16), d.plan.clone())).collect();
    let cons = rel_constraints(queries.len(), 0.5);
    let opts = PlanningOptions { max_pace: 8, ..Default::default() };
    let planned = plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts).unwrap();
    planned.paces.respects_plan(&planned.plan).unwrap();
    let run = execute_planned(
        &planned.plan,
        planned.paces.as_slice(),
        &data.catalog,
        &data.data,
        CostWeights::default(),
    )
    .unwrap();
    for (i, d) in defs.iter().enumerate() {
        let q = QueryId(i as u16);
        let expected = run_logical(&d.plan, &data.catalog, &data.data).unwrap();
        assert!(
            approx_result_eq(&run.results[&q], &expected, 1e-9),
            "{} differs from reference under the shared paced plan",
            d.name
        );
    }
}

#[test]
fn update_streams_match_reference_over_net_rows() {
    // The engine's delete/update paths end to end: a quarter of lineitem
    // and orders arrivals are in-place updates (delete + insert). The final
    // results must equal batch evaluation over the NET rows, at any pace.
    use ishare::stream::execute_planned_deltas;
    use ishare::tpch::{net_rows, with_updates};
    use std::collections::HashMap;

    let data = generate(0.002, 55).unwrap();
    let feeds = with_updates(&data, 0.25, 7).unwrap();
    let net: HashMap<_, _> = feeds.iter().map(|(t, f)| (*t, net_rows(f))).collect();

    let queries = small_workload(&data, &["q1", "q3", "qa"]);
    let cons = rel_constraints(queries.len(), 0.3);
    let opts = PlanningOptions { max_pace: 10, ..Default::default() };
    let planned = plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts).unwrap();
    let run = execute_planned_deltas(
        &planned.plan,
        planned.paces.as_slice(),
        &data.catalog,
        &feeds,
        CostWeights::default(),
    )
    .unwrap();
    for (i, (q, plan)) in queries.iter().enumerate() {
        let expected = run_logical(plan, &data.catalog, &net).unwrap();
        assert!(
            approx_result_eq(&run.results[q], &expected, 1e-9),
            "query #{i} differs from net-rows reference under updates"
        );
    }
}
