//! Recurring-dashboard scenario (the paper's introduction): several daily
//! reports over the same TPC-H stream, due at different times — plus the
//! live observability view of the winning plan.
//!
//! ```text
//! cargo run --release --example dashboard
//! ```
//!
//! The 6am data load feeds four dashboards: two due right away (tight
//! constraints) and two due mid-morning (loose constraints). The example
//! compares all four planning approaches on measured work and per-dashboard
//! final work, then renders the iShare run's [`ObsReport`]: the
//! per-operator work breakdown, per-subplan execution counts, delta-buffer
//! high-water and ingest gauges from the metrics registry, the
//! partition-skew gauges of the hash-partitioned operator state, the
//! per-dashboard slack ledger (budget vs consumed final work at every
//! wavefront, met/missed), and per-dashboard missed-latency statistics
//! against the resolved goals.
//!
//! [`ObsReport`]: ishare::stream::ObsReport

use ishare::core::{
    plan_workload, resolve_constraints, Approach, FinalWorkConstraint, PlanningOptions,
};
use ishare::stream::{
    execute_churn_from_source, execute_from_source_obs, execute_planned_deltas_with, insert_feeds,
    missed_latency_stats, ChurnEvent, ChurnKind, ChurnOp, ChurnOptions, ChurnScript, ObsConfig,
    ObsReport, Source, SourceConfig, SourceOptions,
};
use ishare::tpch::{generate, query_by_name};
use ishare_common::{CostWeights, OpKind, QueryId};
use std::collections::BTreeMap;

fn bar(value: f64, max: f64) -> String {
    const WIDTH: f64 = 40.0;
    let n = if max > 0.0 { (WIDTH * value / max).round() as usize } else { 0 };
    "#".repeat(n)
}

fn render_report(
    report: &ObsReport,
    goals: &BTreeMap<QueryId, f64>,
    final_work: &BTreeMap<QueryId, f64>,
    dashboards: &[(&str, &str, f64)],
) {
    println!("\n== iShare observability report ==");

    let breakdown = report.breakdown();
    let max = OpKind::ALL.iter().map(|&k| breakdown.get(k)).fold(0.0, f64::max);
    println!(
        "\nwork by operator (total {:.0}, breakdown {:.0}):",
        report.total_work,
        breakdown.sum()
    );
    for kind in OpKind::ALL {
        let w = breakdown.get(kind);
        if w != 0.0 {
            println!("  {:<14} {:>12.0}  {}", kind.label(), w, bar(w, max));
        }
    }

    println!("\nexecutions per subplan (incremental + final):");
    for (i, e) in report.executions_by_subplan.iter().enumerate() {
        println!(
            "  sp{i:<3} {:>4} incremental + {} final  (work {:.0})",
            e.incremental,
            e.finals,
            report.work_by_subplan[i].sum()
        );
    }

    println!("\ndelta-buffer high-water gauges (resident rows at peak):");
    for (name, value) in report.metrics.gauges() {
        if name.ends_with(".high_water") && value > 0.0 && !name.starts_with("ingest.") {
            println!("  {name:<28} {value:>8.0}");
        }
    }

    println!("\ningest gauges (per-topic delivery, backpressure stalls, lag):");
    for (name, value) in report.metrics.gauges() {
        if name.starts_with("ingest.") {
            println!("  {name:<28} {value:>8.0}");
        }
    }

    println!("\npartition skew (max/mean per-partition work, 1.0 = balanced):");
    for (name, value) in report.metrics.gauges() {
        if name.starts_with("partition.sp") && name.ends_with(".skew") {
            println!("  {name:<28} {value:>8.2}");
        }
    }

    if let Some(ledger) = &report.slack {
        println!("\nslack ledger (budget L(q) vs final work consumed, per dashboard):");
        let max = ledger.queries().map(|(_, s)| s.budget.max(s.consumed())).fold(0.0, f64::max);
        for (q, slot) in ledger.queries() {
            let (label, _, _) = dashboards[q.index()];
            println!(
                "  {label:<32} budget {:>9.0}  consumed {:>9.0}  slack {:>9.0}  {}",
                slot.budget,
                slot.consumed(),
                slot.remaining(),
                if slot.met() {
                    "met".to_string()
                } else {
                    format!("MISS (over by {:.0})", slot.overrun())
                },
            );
            println!("    consumed {}", bar(slot.consumed(), max));
            println!("    budget   {}", bar(slot.budget, max));
        }
        println!(
            "  {} of {} deadlines met over {} wavefronts",
            ledger.queries().count() - ledger.misses(),
            ledger.queries().count(),
            ledger.fronts(),
        );
    }

    println!("\nmissed latency per dashboard (goal = rel × batch final work):");
    for (i, (label, name, _)) in dashboards.iter().enumerate() {
        let q = QueryId(i as u16);
        let (goal, tested) = (goals[&q], final_work[&q]);
        let missed = (tested - goal).max(0.0);
        println!(
            "  {label:<32} [{name}] goal {goal:>10.0}  final {tested:>10.0}  missed {:>8.0} ({:.1}%)",
            missed,
            if goal > 0.0 { 100.0 * missed / goal } else { 0.0 },
        );
    }
    let stats = missed_latency_stats(goals, final_work);
    println!(
        "  across dashboards: mean missed {:.0} ({:.1}%), max missed {:.0} ({:.1}%)",
        stats.mean_abs, stats.mean_pct, stats.max_abs, stats.max_pct
    );
}

fn main() -> ishare::Result<()> {
    let data = generate(0.003, 7)?;

    // Four dashboards over the shared TPC-H stream. q3 and q5 share scans
    // and joins of customer/orders/lineitem; q1 and q6 share the lineitem
    // scan.
    let dashboards = [
        ("revenue by nation (due 10am)", "q5", 1.0),
        ("shipping priorities (due 7am)", "q3", 0.2),
        ("pricing summary (due 10am)", "q1", 1.0),
        ("promo forecast (due 7am)", "q6", 0.2),
    ];
    let queries: Vec<(QueryId, ishare::plan::LogicalPlan)> = dashboards
        .iter()
        .enumerate()
        .map(|(i, (_, name, _))| Ok((QueryId(i as u16), query_by_name(&data.catalog, name)?.plan)))
        .collect::<ishare::Result<_>>()?;
    let constraints: BTreeMap<QueryId, FinalWorkConstraint> = dashboards
        .iter()
        .enumerate()
        .map(|(i, (_, _, frac))| (QueryId(i as u16), FinalWorkConstraint::Relative(*frac)))
        .collect();
    let goals = resolve_constraints(&queries, &constraints, &data.catalog, CostWeights::default())?;

    let feeds = insert_feeds(&data.data);
    let opts = PlanningOptions { max_pace: 50, ..Default::default() };
    let mut ishare_view: Option<(ObsReport, BTreeMap<QueryId, f64>)> = None;
    for approach in [
        Approach::NoShareUniform,
        Approach::NoShareNonuniform,
        Approach::ShareUniform,
        Approach::IShare,
    ] {
        let obs = (approach == Approach::IShare).then(ObsConfig::default);
        let planned = plan_workload(approach, &queries, &constraints, &data.catalog, &opts)?;
        let mut run = if approach == Approach::IShare {
            // The winning plan pulls from a jittered, bounded ingest source
            // (the in-process Kafka substitute) instead of the Vec feeds the
            // other approaches use — its work numbers are bit-identical, and
            // the report below gains the ingest gauges (delivery,
            // backpressure stalls, per-topic lag).
            let mut source = Source::new(
                &feeds,
                SourceConfig { partitions: 2, capacity: 128, jitter: 11, seed: 7 },
            )?;
            execute_from_source_obs(
                &planned.plan,
                planned.paces.as_slice(),
                &data.catalog,
                &mut source,
                CostWeights::default(),
                // Partitioned operator state (bit-identical; adds the
                // partition.sp*.skew gauges) and per-dashboard SLO budgets
                // (the resolved goals) for the slack ledger.
                SourceOptions {
                    obs,
                    partitions: 2,
                    slo: Some(goals.clone()),
                    ..Default::default()
                },
            )?
            .into_result()?
        } else {
            execute_planned_deltas_with(
                &planned.plan,
                planned.paces.as_slice(),
                &data.catalog,
                &feeds,
                CostWeights::default(),
                SourceOptions { obs, ..Default::default() },
            )?
        };
        println!(
            "\n{} — total work {:.0}, wall {:?}, {} subplans, paces {}",
            approach.label(),
            run.total_work.get(),
            run.total_wall,
            planned.plan.len(),
            planned.paces,
        );
        for (i, (label, name, frac)) in dashboards.iter().enumerate() {
            let q = QueryId(i as u16);
            println!(
                "  {label:<32} [{name}, rel {frac}] final work {:>10.0}  ({} result rows)",
                run.final_work[&q],
                run.results[&q].len()
            );
        }
        if let Some(report) = run.obs.take() {
            ishare_view = Some((report, run.final_work.clone()));
        }
    }

    if let Some((report, final_work)) = &ishare_view {
        render_report(report, &goals, final_work, &dashboards);
    }

    // — live churn: a quarter into the 6am load a second analyst opens a
    // regional variant of the revenue dashboard (the paper's
    // recurring-query setting — same join spine, different filters), and
    // the 7am promo forecast is retired at the halfway mark once its
    // report has shipped. The variant's shared prefix widens live operator
    // state in place; its divergent filter cone is seeded from snapshots
    // of the shared children's history — no replay of the stream — and the
    // forecast's state is reclaimed, all recorded in the commit log so the
    // whole trajectory replays bit-identically.
    println!("\n== live churn: a revenue-dashboard variant joins the 6am load ==");
    let drilldown = ishare::tpch::variant_plan(&query_by_name(&data.catalog, "q5")?.plan, 1);
    let script = ChurnScript::new(vec![
        ChurnEvent {
            num: 1,
            den: 4,
            op: ChurnOp::Admit {
                query: QueryId(4),
                plan: drilldown,
                constraint: FinalWorkConstraint::Relative(0.9),
            },
        },
        ChurnEvent { num: 1, den: 2, op: ChurnOp::Remove { query: QueryId(3) } },
    ]);
    let mut source = Source::in_order(&feeds);
    let mut churn_opts = ChurnOptions { max_pace: 16, ..Default::default() };
    churn_opts.source.obs = Some(ObsConfig::default());
    // The morning deadlines leave headroom for churn: re-cutting a live
    // plan at the admission frontier adds materialization boundaries, so
    // budgets right at the batch edge would reject the newcomer.
    let churn_cons: BTreeMap<QueryId, FinalWorkConstraint> = dashboards
        .iter()
        .enumerate()
        .map(|(i, (_, _, frac))| (QueryId(i as u16), FinalWorkConstraint::Relative(frac.max(0.4))))
        .collect();
    let churn_run = execute_churn_from_source(
        &queries,
        &churn_cons,
        &script,
        &data.catalog,
        &mut source,
        CostWeights::default(),
        &churn_opts,
    )?
    .into_result()?;
    for r in &churn_run.churn {
        match r.kind {
            ChurnKind::Admit => println!(
                "  admit  q{} at the boundary: {} nodes reused + {} created, {} subplans, \
                 {} rows handed off (work {:.0})",
                r.query,
                r.nodes_reused,
                r.nodes_created,
                r.subplans,
                r.handoff_rows,
                f64::from_bits(r.handoff_work_bits),
            ),
            ChurnKind::Remove => println!(
                "  remove q{}: {} state rows reclaimed, {} subplans survive",
                r.query, r.reclaimed_rows, r.subplans,
            ),
        }
    }
    println!(
        "  variant dashboard delivered {} result rows; promo forecast retired mid-run ({})",
        churn_run.run.results[&QueryId(4)].len(),
        if churn_run.run.results.contains_key(&QueryId(3)) { "still present!" } else { "gone" },
    );
    if let Some(report) = &churn_run.run.obs {
        println!("  churn gauges from the observability registry:");
        for (name, value) in report.metrics.gauges() {
            if name.starts_with("churn.") {
                println!("    {name:<28} {value:>8.0}");
            }
        }
    }
    Ok(())
}
