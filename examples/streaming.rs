//! Streaming quickstart: pull-based ingest, kill, and exact resume.
//!
//! ```text
//! cargo run --release --example streaming
//! cargo run --release --example streaming -- --kill-after 2
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
//! bit-identical to an uninterrupted one; the example exits with an error
//! if its total work differs by a single bit.
//!
//! Options: `--sf F`, `--seed N`, `--jitter N`,
//! `--update-frac F`, `--kill-after K` (0 = none).
//!
//! [`Source`]: ishare::stream::Source

use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::stream::{execute_from_source_obs, Source, SourceConfig, SourceOptions, SourceOutcome};
use ishare::tpch::{generate, query_by_name, with_updates};
use ishare_common::{CostWeights, Error, QueryId, Result};
use std::collections::BTreeMap;

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let sf = flag("--sf").and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.002);
    let seed = flag("--seed").and_then(|v| v.parse::<u64>().ok()).unwrap_or(42);
    let jitter = flag("--jitter").and_then(|v| v.parse::<u64>().ok()).unwrap_or(13);
    let update_frac = flag("--update-frac").and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.1);
    let kill_after = flag("--kill-after").and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);

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
    //    producer genuinely stalls) and jittered arrival order. The seed
    //    drives both the update stream and the arrival permutation.
    let feeds = with_updates(&data, update_frac, seed)?;
    let cfg = SourceConfig { partitions: 2, capacity: 256, jitter, seed };
    println!("sf {sf}, seed {seed}, jitter {jitter}");

    // Every run pulls from a source rebuilt from the same seed.
    let run_once = |sopts: SourceOptions| -> Result<SourceOutcome> {
        let mut source = Source::new(&feeds, cfg)?;
        execute_from_source_obs(
            &planned.plan,
            planned.paces.as_slice(),
            &data.catalog,
            &mut source,
            CostWeights::default(),
            sopts,
        )
    };
    let SourceOutcome::Completed { result: run, log } = run_once(SourceOptions::default())? else {
        unreachable!("no stop requested");
    };
    println!(
        "total work {:.0} ({} executions, {} wavefronts committed), \
         Q_A final {:.0}, Q_B final {:.0}",
        run.total_work.get(),
        run.executions,
        log.len(),
        run.final_work[&QueryId(0)],
        run.final_work[&QueryId(1)],
    );
    if kill_after == 0 {
        return Ok(());
    }

    // 3. Kill: stop after `kill_after` committed wavefronts …
    let stop = SourceOptions { stop_after: Some(kill_after), ..Default::default() };
    let SourceOutcome::Suspended { log } = run_once(stop)? else {
        return Err(Error::InvalidConfig(format!(
            "--kill-after {kill_after} exceeds the schedule's wavefront count"
        )));
    };
    println!("killed after wavefront {kill_after} (commit log: {} entries)", log.len());
    // … resume: replay from offset zero, verifying every commit against the
    // log, and land on the uninterrupted run's numbers to the bit.
    let resumed = run_once(SourceOptions { verify: Some(log), ..Default::default() })?;
    let resumed = resumed.into_result()?;
    let (want, got) = (run.total_work.get(), resumed.total_work.get());
    if want.to_bits() != got.to_bits() {
        return Err(Error::InvalidConfig(format!(
            "resumed run charged {got} ({:016x}), uninterrupted {want} ({:016x})",
            got.to_bits(),
            want.to_bits()
        )));
    }
    println!("resumed: total work {got:.0}, bit-identical to the uninterrupted run");
    Ok(())
}
