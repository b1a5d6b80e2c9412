//! CI smoke gate for adaptive re-optimization.
//!
//! ```text
//! cargo run -p ishare-bench --release --bin validate_adapt -- [--sf f] [--seed n] [--out path]
//! ```
//!
//! Plans an iShare configuration from clean catalog statistics, streams a
//! drifted feed (updates turn ~40% of the rows into delete+insert pairs),
//! and asserts the adaptive controller's whole contract:
//!
//! * the drift triggers at least one pace switch,
//! * at least one final-work constraint the static configuration misses is
//!   met by the adaptive run, and the adaptive run misses no constraint the
//!   static run meets,
//! * a killed run (stopped after 2 wavefronts) resumed from scratch with
//!   commit-log verification re-derives the identical switch sequence and a
//!   bit-identical result (work bits, result checksum, executions, and the
//!   commit log's per-wavefront `paces` trail),
//! * the parallel adaptive driver (2 threads) is bit-identical to the
//!   sequential one, switch log included.
//!
//! Exits 0 when every check holds, 1 with the first violation otherwise.
//! `--out` writes the sequential adaptive run's summary in the same format
//! `examples/streaming.rs --out` uses, so `validate_replay` can diff it.

use ishare_common::{CostWeights, QueryId, Result, TableId};
use ishare_core::adapt::{AdaptController, AdaptOptions, PaceSwitch};
use ishare_core::{
    plan_workload, Approach, FinalWorkConstraint, PlannedExecution, PlanningOptions,
};
use ishare_stream::{
    execute_adaptive_from_source_obs, execute_from_source_obs, CommitLog, RunResult, Source,
    SourceOptions, SourceOutcome,
};
use ishare_tpch::updates::DeltaFeed;
use ishare_tpch::{generate, query_by_name, with_updates, TpchData};
use std::collections::{BTreeMap, HashMap};

fn fail(msg: &str) -> ! {
    eprintln!("validate_adapt: {msg}");
    std::process::exit(1);
}

const NAMES: [&str; 3] = ["qa", "qb", "q6"];
const UPDATE_FRAC: f64 = 0.4;

fn plan(data: &TpchData, max_pace: u32) -> Result<PlannedExecution> {
    let mut queries = Vec::new();
    let mut cons = BTreeMap::new();
    for (i, name) in NAMES.iter().enumerate() {
        let q = query_by_name(&data.catalog, name)?;
        queries.push((QueryId(i as u16), q.plan));
        cons.insert(QueryId(i as u16), FinalWorkConstraint::Relative(0.35));
    }
    let opts = PlanningOptions { max_pace, ..Default::default() };
    plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts)
}

/// Run the adaptive driver over a fresh source + fresh controller.
fn adaptive_run(
    planned: &PlannedExecution,
    data: &TpchData,
    feeds: &HashMap<TableId, DeltaFeed>,
    threads: usize,
    opts: SourceOptions,
) -> Result<(SourceOutcome, AdaptController)> {
    let w = CostWeights::default();
    let mut ctrl =
        AdaptController::from_planned(planned, &data.catalog, w, AdaptOptions::default())?;
    let mut source = Source::in_order(feeds);
    let opts = SourceOptions { workers: threads, ..opts };
    let out = execute_adaptive_from_source_obs(
        &planned.plan,
        &data.catalog,
        &mut source,
        w,
        opts,
        &mut ctrl,
    )?;
    Ok((out, ctrl))
}

fn completed(out: SourceOutcome, label: &str) -> (RunResult, CommitLog) {
    match out {
        SourceOutcome::Completed { result, log } => (*result, log),
        SourceOutcome::Suspended { .. } => fail(&format!("{label}: run suspended unexpectedly")),
    }
}

fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
    if a.total_work.get().to_bits() != b.total_work.get().to_bits() {
        fail(&format!(
            "{label}: total_work differs: {} vs {}",
            a.total_work.get(),
            b.total_work.get()
        ));
    }
    for (q, w) in &a.final_work {
        if w.to_bits() != b.final_work[q].to_bits() {
            fail(&format!("{label}: final_work bits differ for q{}", q.0));
        }
    }
    if a.results != b.results {
        fail(&format!("{label}: query results differ"));
    }
    if a.executions != b.executions {
        fail(&format!("{label}: executions differ: {} vs {}", a.executions, b.executions));
    }
}

fn assert_same_switches(a: &[PaceSwitch], b: &[PaceSwitch], label: &str) {
    if a != b {
        fail(&format!("{label}: switch logs differ: {a:?} vs {b:?}"));
    }
    // Drift is an f64 decision input: require bit equality, not just `==`.
    for (x, y) in a.iter().zip(b) {
        if x.drift.to_bits() != y.drift.to_bits() {
            fail(&format!("{label}: switch drift bits differ at wavefront {}", x.wavefront));
        }
    }
}

/// Order-independent FNV-1a digest of every query's final result multiset
/// (same digest `examples/streaming.rs` writes).
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

fn summarize(run: &RunResult) -> serde_json::Value {
    let final_work: Vec<(String, serde_json::Value)> = run
        .final_work
        .iter()
        .map(|(q, w)| (format!("q{}", q.0), format!("{:016x}", w.to_bits()).into()))
        .collect();
    serde_json::json!({
        "mode": "adaptive",
        "threads": 1u64,
        "kill_after": 0u64,
        "executions": run.executions as u64,
        "total_work": run.total_work.get(),
        "total_work_bits": format!("{:016x}", run.total_work.get().to_bits()),
        "final_work_bits": serde_json::Value::Object(final_work),
        "result_checksum": format!("{:016x}", result_checksum(run)),
    })
}

fn run(sf: f64, seed: u64, out: Option<std::path::PathBuf>) -> Result<()> {
    let data = generate(sf, seed)?;
    let planned = plan(&data, 100)?;
    let feeds = with_updates(&data, UPDATE_FRAC, seed ^ 0x00ad_a917)?;
    let w = CostWeights::default();

    // Static run: the planned paces on the drifted stream.
    let mut static_source = Source::in_order(&feeds);
    let static_run = execute_from_source_obs(
        &planned.plan,
        planned.paces.as_slice(),
        &data.catalog,
        &mut static_source,
        w,
        SourceOptions::default(),
    )?
    .into_result()?;

    // 1. Sequential adaptive run: must switch, must improve on static.
    let (out_seq, ctrl_seq) = adaptive_run(&planned, &data, &feeds, 1, SourceOptions::default())?;
    let (run_seq, log_seq) = completed(out_seq, "sequential adaptive");
    if ctrl_seq.switches().is_empty() {
        fail("drifted stream produced no pace switch");
    }
    let mut rescued = 0;
    for (i, name) in NAMES.iter().enumerate() {
        let q = QueryId(i as u16);
        let l = planned.constraints[&q];
        let s_met = static_run.final_work[&q] <= l;
        let a_met = run_seq.final_work[&q] <= l;
        println!(
            "validate_adapt: {name}: L {:.0}, static {:.0} ({}), adaptive {:.0} ({})",
            l,
            static_run.final_work[&q],
            if s_met { "met" } else { "miss" },
            run_seq.final_work[&q],
            if a_met { "met" } else { "miss" },
        );
        if !s_met && a_met {
            rescued += 1;
        }
        if s_met && !a_met {
            fail(&format!("{name}: adaptation broke a constraint the static run met"));
        }
    }
    if rescued == 0 {
        fail("adaptation met no constraint the static configuration missed");
    }
    // The commit log must record the pace trajectory.
    if log_seq.entries.first().map(|e| e.paces.as_slice()) != Some(planned.paces.as_slice()) {
        fail("first commit entry does not record the planned paces");
    }
    if log_seq.entries.last().map(|e| e.paces.as_slice()) != Some(ctrl_seq.current_paces()) {
        fail("last commit entry does not record the switched paces");
    }

    // 2. Kill after 2 wavefronts, resume from scratch with verification.
    let (out_killed, _) = adaptive_run(
        &planned,
        &data,
        &feeds,
        1,
        SourceOptions { stop_after: Some(2), ..Default::default() },
    )?;
    let partial = match out_killed {
        SourceOutcome::Suspended { log } => log,
        SourceOutcome::Completed { .. } => fail("stop_after=2 did not suspend"),
    };
    if partial.len() != 2 {
        fail(&format!("killed run committed {} wavefronts, expected 2", partial.len()));
    }
    let (out_res, ctrl_res) = adaptive_run(
        &planned,
        &data,
        &feeds,
        1,
        SourceOptions { verify: Some(partial), ..Default::default() },
    )?;
    let (run_res, log_res) = completed(out_res, "resumed adaptive");
    assert_bit_identical(&run_seq, &run_res, "killed+resumed");
    assert_same_switches(ctrl_seq.switches(), ctrl_res.switches(), "killed+resumed");
    if log_res != log_seq {
        fail("resumed commit log differs from the uninterrupted one");
    }

    // 3. Parallel adaptive (2 threads) is bit-identical to sequential.
    let (out_par, ctrl_par) = adaptive_run(&planned, &data, &feeds, 2, SourceOptions::default())?;
    let (run_par, _) = completed(out_par, "parallel adaptive");
    assert_bit_identical(&run_seq, &run_par, "parallel vs sequential");
    assert_same_switches(ctrl_seq.switches(), ctrl_par.switches(), "parallel vs sequential");

    println!(
        "validate_adapt: OK — {} switch(es), {} constraint(s) rescued, total work bits {:016x}",
        ctrl_seq.switches().len(),
        rescued,
        run_seq.total_work.get().to_bits()
    );
    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&summarize(&run_seq))
            .map_err(|e| ishare_common::Error::InvalidConfig(format!("serialize summary: {e}")))?;
        std::fs::write(&path, text)
            .map_err(|e| ishare_common::Error::InvalidConfig(format!("write {path:?}: {e}")))?;
        println!("[saved {}]", path.display());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sf = 0.004f64;
    let mut seed = 42u64;
    let mut out: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--sf" => sf = value(&mut i).parse().unwrap_or_else(|_| fail("bad --sf")),
            "--seed" => seed = value(&mut i).parse().unwrap_or_else(|_| fail("bad --seed")),
            "--out" => out = Some(value(&mut i).into()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Err(e) = run(sf, seed, out) {
        fail(&format!("error: {e}"));
    }
}
