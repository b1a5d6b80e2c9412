//! Quickstart: two scheduled queries with different latency goals,
//! end-to-end.
//!
//! ```text
//! cargo run --release --example quickstart [-- --threads N]
//!     [--trace-out trace.json] [--metrics-out metrics.json]
//! ```
//!
//! Builds a tiny catalog, registers two queries over the same stream — a
//! broad daily report that can wait (relative constraint 1.0) and a narrow
//! alert that cannot (0.1) — lets iShare plan them, and executes the plan
//! against simulated arrivals, comparing against Share-Uniform. With
//! `--threads N > 1` independent subplans of a wavefront run on `N` workers;
//! the work numbers are bit-identical to one worker's. `--trace-out` /
//! `--metrics-out` enable observability on the iShare run and write its
//! Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto) and
//! per-operator work/metrics snapshot; a `--metrics-out` path ending in
//! `.prom` writes the Prometheus text exposition instead of JSON.

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::plan::PlanBuilder;
use ishare::stream::{execute_planned_deltas_with, insert_feeds, ObsConfig, SourceOptions};
use ishare_common::{CostWeights, DataType, QueryId, Value};
use ishare_expr::Expr;
use ishare_storage::{Catalog, Field, Row, Schema, TableStats};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn write_json(path: &PathBuf, value: &serde_json::Value) -> ishare::Result<()> {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| ishare_common::Error::InvalidConfig(format!("serialize {path:?}: {e}")))?;
    std::fs::write(path, text)
        .map_err(|e| ishare_common::Error::InvalidConfig(format!("write {path:?}: {e}")))?;
    println!("[saved {}]", path.display());
    Ok(())
}

fn main() -> ishare::Result<()> {
    // 0. Worker threads (1 = every tick on this thread) and optional
    //    observability artifact paths.
    let args: Vec<String> = std::env::args().collect();
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let threads = flag("--threads").and_then(|v| v.parse::<usize>().ok()).unwrap_or(1);
    let trace_out = flag("--trace-out").map(PathBuf::from);
    let metrics_out = flag("--metrics-out").map(PathBuf::from);
    let want_obs = trace_out.is_some() || metrics_out.is_some();

    // 1. A catalog with one streamed relation: orders(customer, amount).
    let mut catalog = Catalog::new();
    let n_rows = 20_000usize;
    let orders = catalog.add_table(
        "orders",
        Schema::new(vec![
            Field::new("customer", DataType::Int),
            Field::new("amount", DataType::Int),
        ]),
        TableStats {
            row_count: n_rows as f64,
            columns: vec![
                ishare_storage::ColumnStats::ndv(500.0),
                ishare_storage::ColumnStats::with_range(1000.0, Value::Int(0), Value::Int(999)),
            ],
        },
    )?;

    // 2. Two structurally identical queries with different predicates:
    //    a broad report and a narrow alert.
    let report = PlanBuilder::scan(&catalog, "orders")?
        .aggregate(&["customer"], |x| Ok(vec![x.sum("amount", "total")?]))?
        .build();
    let alert = PlanBuilder::scan(&catalog, "orders")?
        .select(|x| Ok(x.col("amount")?.gt(Expr::lit(950i64))))?
        .aggregate(&["customer"], |x| Ok(vec![x.sum("amount", "total")?]))?
        .build();
    let queries = vec![(QueryId(0), report), (QueryId(1), alert)];

    // 3. Latency goals: the report tolerates batch latency, the alert wants
    //    a 10× lower final work.
    let mut constraints = BTreeMap::new();
    constraints.insert(QueryId(0), FinalWorkConstraint::Relative(1.0));
    constraints.insert(QueryId(1), FinalWorkConstraint::Relative(0.1));

    // 4. Simulated arrivals: one trigger condition's worth of rows.
    let rows: Vec<Row> = (0..n_rows)
        .map(|i| Row::new(vec![Value::Int((i % 500) as i64), Value::Int(((i * 37) % 1000) as i64)]))
        .collect();
    let feeds = insert_feeds(&[(orders, rows)].into_iter().collect());

    // 5. Plan and execute under iShare and Share-Uniform.
    let opts = PlanningOptions { max_pace: 50, ..Default::default() };
    println!("worker threads: {threads}");
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>10}",
        "approach", "total work", "report final", "alert final", "elapsed"
    );
    for approach in [Approach::ShareUniform, Approach::IShare] {
        // Observability is opt-in and passive: enabling it on the iShare run
        // leaves every measured work number bit-identical.
        let obs = (want_obs && approach == Approach::IShare).then(ObsConfig::default);
        let planned = plan_workload(approach, &queries, &constraints, &catalog, &opts)?;
        let mut run = execute_planned_deltas_with(
            &planned.plan,
            planned.paces.as_slice(),
            &catalog,
            &feeds,
            CostWeights::default(),
            SourceOptions { obs, workers: threads, ..Default::default() },
        )?;
        println!(
            "{:<16} {:>14.0} {:>14.0} {:>14.0} {:>9.3}s   (paces {})",
            approach.label(),
            run.total_work.get(),
            run.final_work[&QueryId(0)],
            run.final_work[&QueryId(1)],
            run.elapsed.as_secs_f64(),
            planned.paces
        );
        if let Some(report) = run.obs.take() {
            if let Some(path) = &trace_out {
                write_json(path, &report.chrome_trace())?;
            }
            if let Some(path) = &metrics_out {
                if path.extension().and_then(|e| e.to_str()) == Some("prom") {
                    if let Some(parent) = path.parent() {
                        let _ = std::fs::create_dir_all(parent);
                    }
                    std::fs::write(path, report.prometheus()).map_err(|e| {
                        ishare_common::Error::InvalidConfig(format!("write {path:?}: {e}"))
                    })?;
                    println!("[saved {}]", path.display());
                } else {
                    write_json(path, &report.metrics_json())?;
                }
            }
        }
    }
    println!(
        "\niShare runs the shared scan+aggregate eagerly only where the alert \
         needs it and leaves the report's private work lazy — same results, \
         less total work than pushing the whole shared plan to the alert's pace."
    );
    Ok(())
}
