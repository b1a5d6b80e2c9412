//! Streaming quickstart: pull-based ingest, kill, and exact resume.
//!
//! ```text
//! cargo run --release --example streaming -- --out run.json
//! cargo run --release --example streaming -- --kill-after 2 --out resumed.json
//! cargo run -p ishare-bench --bin validate_replay -- run.json resumed.json
//! ```
//!
//! Generates a small TPC-H instance, turns its update stream into an ingest
//! [`Source`] (partitioned bounded topics with jittered, watermarked
//! arrivals — the repo's in-process Kafka substitute), plans the paper's
//! Fig. 2 queries Q_A/Q_B under iShare, and executes by *pulling* watermark
//! cuts from the source instead of reading pre-materialized feeds.
//!
//! With `--kill-after K` the run is stopped after `K` committed wavefronts
//! (simulating a crash), then resumed: the source is rebuilt from the same
//! seed and replayed from offset zero, each wavefront's commit verified
//! against the killed run's commit log. The resumed run must be
//! bit-identical to an uninterrupted one — the summary JSON records every
//! work number as exact f64 bits so `validate_replay` can diff two runs
//! with zero tolerance. `--mode vec` runs the classic `Vec`-fed driver on
//! the same workload; its summary must also match ingest-mode runs exactly.
//!
//! Options: `--mode ingest|vec`, `--threads N`, `--sf F`, `--seed N`,
//! `--jitter N`, `--update-frac F`, `--kill-after K` (0 = none, ingest
//! only), `--out <path>`.

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::stream::{
    execute_from_source_obs, execute_planned_deltas_with, RunResult, SourceOptions, SourceOutcome,
};
use ishare::tpch::{generate, produce_source, query_by_name, with_updates, StreamConfig};
use ishare_common::{CostWeights, Error, QueryId, Result};
use ishare_ingest::SourceConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let mode = flag("--mode").unwrap_or_else(|| "ingest".into());
    let threads = flag("--threads").and_then(|v| v.parse::<usize>().ok()).unwrap_or(1);
    let sf = flag("--sf").and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.002);
    let seed = flag("--seed").and_then(|v| v.parse::<u64>().ok()).unwrap_or(42);
    let jitter = flag("--jitter").and_then(|v| v.parse::<u64>().ok()).unwrap_or(13);
    let update_frac = flag("--update-frac").and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.1);
    let kill_after = flag("--kill-after").and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
    let out = flag("--out").map(PathBuf::from);

    // 1. Workload: a tiny TPC-H instance and the paper's Fig. 2 pair — the
    //    broad Q_A (relative constraint 1.0) and the urgent Q_B (0.1).
    let data = generate(sf, seed)?;
    let qa = query_by_name(&data.catalog, "qa")?;
    let qb = query_by_name(&data.catalog, "qb")?;
    let queries = vec![(QueryId(0), qa.plan), (QueryId(1), qb.plan)];
    let mut constraints = BTreeMap::new();
    constraints.insert(QueryId(0), FinalWorkConstraint::Relative(1.0));
    constraints.insert(QueryId(1), FinalWorkConstraint::Relative(0.1));
    let opts = PlanningOptions { max_pace: 20, ..Default::default() };
    let planned = plan_workload(Approach::IShare, &queries, &constraints, &data.catalog, &opts)?;

    // 2. Arrival model: `update_frac` of fact arrivals are delete+insert
    //    updates; topics are partitioned with a bounded ring (so the
    //    producer genuinely stalls) and jittered arrival order.
    let cfg = StreamConfig {
        update_frac,
        source: SourceConfig { partitions: 2, capacity: 256, jitter, seed },
    };
    let weights = CostWeights::default();
    println!("mode {mode}, {threads} thread(s), sf {sf}, seed {seed}, jitter {jitter}");

    let (run, committed) = match mode.as_str() {
        "vec" => {
            // The classic pre-materialized path, as a cross-check target.
            let feeds = with_updates(&data, update_frac, seed)?;
            let run = execute_planned_deltas_with(
                &planned.plan,
                planned.paces.as_slice(),
                &data.catalog,
                &feeds,
                weights,
                SourceOptions { workers: threads, ..Default::default() },
            )?;
            (run, 0usize)
        }
        "ingest" => {
            let run_once = |source: &mut _, sopts: SourceOptions| -> Result<SourceOutcome> {
                execute_from_source_obs(
                    &planned.plan,
                    planned.paces.as_slice(),
                    &data.catalog,
                    source,
                    weights,
                    SourceOptions { workers: threads, ..sopts },
                )
            };
            let mut source = produce_source(&data, cfg)?;
            let verify = if kill_after > 0 {
                // Kill: stop after `kill_after` committed wavefronts …
                let SourceOutcome::Suspended { log } = run_once(
                    &mut source,
                    SourceOptions { stop_after: Some(kill_after), ..Default::default() },
                )?
                else {
                    return Err(Error::InvalidConfig(format!(
                        "--kill-after {kill_after} exceeds the schedule's wavefront count"
                    )));
                };
                println!(
                    "killed after wavefront {} (commit log: {} entries)",
                    kill_after,
                    log.len()
                );
                // … resume: rebuild the source from the same seed and replay
                // from offset zero, verifying every commit against the log.
                source = produce_source(&data, cfg)?;
                Some(log)
            } else {
                None
            };
            match run_once(&mut source, SourceOptions { verify, ..Default::default() })? {
                SourceOutcome::Completed { result, log } => (*result, log.len()),
                SourceOutcome::Suspended { .. } => unreachable!("no stop requested"),
            }
        }
        other => {
            return Err(Error::InvalidConfig(format!("--mode must be ingest or vec, got {other}")))
        }
    };

    println!(
        "total work {:.0} ({} executions, {} wavefronts committed), \
         Q_A final {:.0}, Q_B final {:.0}",
        run.total_work.get(),
        run.executions,
        committed,
        run.final_work[&QueryId(0)],
        run.final_work[&QueryId(1)],
    );
    if let Some(path) = &out {
        let summary = summarize(&run, &mode, threads, kill_after);
        let text = serde_json::to_string_pretty(&summary)
            .map_err(|e| Error::InvalidConfig(format!("serialize summary: {e}")))?;
        std::fs::write(path, text)
            .map_err(|e| Error::InvalidConfig(format!("write {path:?}: {e}")))?;
        println!("[saved {}]", path.display());
    }
    Ok(())
}

/// Run summary with every work number as exact f64 bits (hex), so two runs
/// can be diffed with zero tolerance by `validate_replay`.
fn summarize(run: &RunResult, mode: &str, threads: usize, kill_after: usize) -> serde_json::Value {
    let final_work: Vec<(String, serde_json::Value)> = run
        .final_work
        .iter()
        .map(|(q, w)| (format!("q{}", q.0), format!("{:016x}", w.to_bits()).into()))
        .collect();
    serde_json::json!({
        "mode": mode,
        "threads": threads as u64,
        "kill_after": kill_after as u64,
        "executions": run.executions as u64,
        "total_work": run.total_work.get(),
        "total_work_bits": format!("{:016x}", run.total_work.get().to_bits()),
        "final_work_bits": serde_json::Value::Object(final_work),
        "result_checksum": format!("{:016x}", result_checksum(run)),
    })
}

/// Order-independent FNV-1a digest of every query's final result multiset.
fn result_checksum(run: &RunResult) -> u64 {
    let mut lines: Vec<String> = Vec::new();
    for (q, result) in &run.results {
        for (row, w) in result {
            lines.push(format!("q{}|{row:?}|{w}", q.0));
        }
    }
    lines.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash ^= 0x0a;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}
