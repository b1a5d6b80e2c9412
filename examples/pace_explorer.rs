//! Pace explorer: inspect how the optimizer sees a workload — the shared
//! plan's subplans, per-subplan paces, estimated vs measured work, and the
//! incrementability surface the greedy search walks.
//!
//! ```text
//! cargo run --release --example pace_explorer [-- <query> <query> ...]
//! ```
//!
//! Defaults to the paper's Fig. 2 pair (qa, qb).

use ishare::core::{
    find_pace_configuration, resolve_constraints, FinalWorkConstraint, PaceConfiguration,
};
use ishare::cost::PlanEstimator;
use ishare::mqo::{build_shared_dag, normalize, MqoConfig};
use ishare::plan::SharedPlan;
use ishare::stream::execute_planned;
use ishare::tpch::{generate, query_by_name};
use ishare_common::{CostWeights, QueryId};
use std::collections::BTreeMap;

fn main() -> ishare::Result<()> {
    let names: Vec<String> = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.is_empty() {
            vec!["qa".into(), "qb".into()]
        } else {
            args
        }
    };
    let data = generate(0.003, 5)?;
    let queries: Vec<(QueryId, ishare::plan::LogicalPlan)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| Ok((QueryId(i as u16), normalize(&query_by_name(&data.catalog, n)?.plan))))
        .collect::<ishare::Result<_>>()?;

    // Build the shared plan and show its structure.
    let dag = build_shared_dag(&queries, &data.catalog, &MqoConfig::default())?;
    let plan = SharedPlan::from_dag(&dag)?;
    println!("shared plan ({} subplans):\n{plan}", plan.len());

    // Resolve 0.2-relative constraints and walk the greedy search.
    let constraints: BTreeMap<QueryId, FinalWorkConstraint> =
        (0..names.len()).map(|i| (QueryId(i as u16), FinalWorkConstraint::Relative(0.2))).collect();
    let resolved =
        resolve_constraints(&queries, &constraints, &data.catalog, CostWeights::default())?;
    let mut est = PlanEstimator::new(&plan, &data.catalog, CostWeights::default())?;
    println!("resolved constraints (work units):");
    for (q, l) in &resolved {
        println!("  {} [{}]: {:.0}", q, names[q.0 as usize], l);
    }

    let outcome = find_pace_configuration(&mut est, &resolved, 50)?;
    println!(
        "\ngreedy search: {} steps, feasible={}, paces {}",
        outcome.steps, outcome.feasible, outcome.paces
    );
    println!(
        "estimator: {} simulations, {} memo hits",
        est.counters.simulations, est.counters.memo_hits
    );

    // Estimated vs measured per subplan.
    let run = execute_planned(
        &plan,
        outcome.paces.as_slice(),
        &data.catalog,
        &data.data,
        CostWeights::default(),
    )?;
    println!(
        "\nestimated total {:.0} vs measured total {:.0}",
        outcome.report.total_work.get(),
        run.total_work.get()
    );
    for sp in &plan.subplans {
        println!(
            "  {}: pace {:>3}, est private total {:>12.0}",
            sp.id,
            outcome.paces.pace(sp.id),
            outcome.report.subplan_output[sp.id.index()].private_total,
        );
    }

    // The incrementability surface around batch execution.
    println!("\nincrementability of the first eagerness step per subplan:");
    let base = PaceConfiguration::batch(plan.len());
    let base_report = est.estimate(base.as_slice())?;
    for sp in &plan.subplans {
        let cand = base.with_pace(sp.id, 2);
        if cand.respects_plan(&plan).is_err() {
            println!("  {}: blocked (parent pace would exceed child)", sp.id);
            continue;
        }
        let cand_report = est.estimate(cand.as_slice())?;
        let inc = ishare::core::incrementability(&cand_report, &base_report, &resolved);
        println!("  {}: InC = {inc:.4}", sp.id);
    }
    Ok(())
}
