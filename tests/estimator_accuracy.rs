//! The cost model and the engine share one unit (CostWeights-weighted
//! tuples). With exact statistics, estimated totals must *track*
//! measurements — not match them (the paper leans on cost-model imprecision
//! to explain its missed latencies), but stay within a small factor and
//! preserve ordering across pace configurations.

use ishare::cost::PlanEstimator;
use ishare::mqo::{build_shared_dag, normalize, MqoConfig};
use ishare::plan::SharedPlan;
use ishare::stream::execute_planned;
use ishare::tpch::{generate, query_by_name};
use ishare_common::{CostWeights, QueryId};

fn setup(names: &[&str], seed: u64) -> (ishare::tpch::TpchData, SharedPlan) {
    let data = generate(0.002, seed).unwrap();
    let queries: Vec<(QueryId, ishare::plan::LogicalPlan)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            (QueryId(i as u16), normalize(&query_by_name(&data.catalog, n).unwrap().plan))
        })
        .collect();
    let dag = build_shared_dag(&queries, &data.catalog, &MqoConfig::default()).unwrap();
    let plan = SharedPlan::from_dag(&dag).unwrap();
    (data, plan)
}

#[test]
fn estimates_track_measurements_within_a_small_factor() {
    let (data, plan) = setup(&["q1", "q6", "qa"], 61);
    let mut est = PlanEstimator::new(&plan, &data.catalog, CostWeights::default()).unwrap();
    for pace in [1u32, 4, 10] {
        let paces = vec![pace; plan.len()];
        let estimated = est.estimate(&paces).unwrap().total_work.get();
        let measured =
            execute_planned(&plan, &paces, &data.catalog, &data.data, CostWeights::default())
                .unwrap()
                .total_work
                .get();
        let ratio = estimated / measured;
        assert!(
            (0.4..2.5).contains(&ratio),
            "pace {pace}: estimated {estimated:.0} vs measured {measured:.0} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn estimates_preserve_the_pace_ordering() {
    // The greedy search only needs the estimator to RANK configurations
    // correctly: more eager ⇒ more total work, less final work — and the
    // measured engine must agree.
    let (data, plan) = setup(&["qa", "qb"], 62);
    let mut est = PlanEstimator::new(&plan, &data.catalog, CostWeights::default()).unwrap();
    let mut prev_est_total = 0.0f64;
    let mut prev_meas_total = 0.0f64;
    let mut prev_est_final = f64::INFINITY;
    let mut prev_meas_final = f64::INFINITY;
    for pace in [1u32, 5, 20] {
        let paces = vec![pace; plan.len()];
        let rep = est.estimate(&paces).unwrap();
        let run = execute_planned(&plan, &paces, &data.catalog, &data.data, CostWeights::default())
            .unwrap();
        let est_total = rep.total_work.get();
        let meas_total = run.total_work.get();
        let est_final: f64 = rep.final_work().map(|(_, w)| w.get()).sum();
        let meas_final: f64 = run.final_work.values().sum();
        assert!(est_total >= prev_est_total, "estimated total monotone in pace");
        assert!(meas_total >= prev_meas_total, "measured total monotone in pace");
        assert!(est_final <= prev_est_final, "estimated final anti-monotone in pace");
        assert!(meas_final <= prev_meas_final, "measured final anti-monotone in pace");
        prev_est_total = est_total;
        prev_meas_total = meas_total;
        prev_est_final = est_final;
        prev_meas_final = meas_final;
    }
}
