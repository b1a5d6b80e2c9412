//! Bit-exact differential gate for online query churn (DESIGN.md §14).
//!
//! ```text
//! cargo run -p ishare-bench --release --bin validate_churn -- [--sf 0.002] [--seed 11] [--out summary.json]
//! ```
//!
//! Runs a sharing-friendly TPC-H workload with a live churn script — two
//! queries admitted mid-run, one removed later — and checks:
//!
//! * the incremental sharer's DAG equals the from-scratch batch build for
//!   the initial set (merge-equivalence smoke; the full property is pinned
//!   by `crates/mqo/tests/churn_props.rs`),
//! * every run of the matrix — obs off/on × partitions 1/2/4 × 1/2
//!   partition workers × 1/2 wavefront workers — agrees **to the bit** on
//!   charged total work, per-query final work, execution counts, churn
//!   records, and result multisets,
//! * a run killed after two wavefronts — on two workers — resumes
//!   deterministically: its commit log (churn records included) is a prefix
//!   of the one-worker reference's, verifies on replay, and the resumed
//!   trajectory reproduces the uninterrupted run exactly,
//! * every query live at the end — survivors of the initial set as well
//!   as the admitted ones — matches its standalone batch oracle, and the
//!   removed query is gone from the output.
//!
//! With `--out`, writes the reference run's summary in the same shape
//! `examples/streaming.rs --out` produces, so two invocations can be
//! diffed by `validate_replay` — cross-process churn determinism.
//!
//! Exits 0 on exact agreement, 1 with the first difference otherwise.

use ishare_common::{CostWeights, QueryId};
use ishare_core::FinalWorkConstraint;
use ishare_mqo::{build_shared_dag, normalize, IncrementalSharer, MqoConfig};
use ishare_plan::LogicalPlan;
use ishare_storage::Row;
use ishare_stream::{
    execute_churn_from_source, insert_feeds, ChurnEvent, ChurnOp, ChurnOptions, ChurnOutcome,
    ChurnRunResult, ObsConfig, Source,
};
use ishare_tpch::{generate, queries::sharing_friendly_queries};
use std::collections::{BTreeMap, HashMap};

fn fail(msg: &str) -> ! {
    eprintln!("validate_churn: {msg}");
    std::process::exit(1);
}

fn check(label: &str, reference: &ChurnRunResult, other: &ChurnRunResult) {
    if reference.run.results != other.run.results {
        fail(&format!("{label}: query results differ from reference"));
    }
    let (ra, rb) = (reference.run.total_work.get(), other.run.total_work.get());
    if ra.to_bits() != rb.to_bits() {
        fail(&format!(
            "{label}: total_work differs: {ra} ({:016x}) vs {rb} ({:016x})",
            ra.to_bits(),
            rb.to_bits()
        ));
    }
    for (q, w) in &reference.run.final_work {
        let other_w = other.run.final_work[q];
        if w.to_bits() != other_w.to_bits() {
            fail(&format!("{label}: final_work[{q}] differs: {w} vs {other_w}"));
        }
    }
    if reference.run.executions != other.run.executions {
        fail(&format!(
            "{label}: executions differ: {} vs {}",
            reference.run.executions, other.run.executions
        ));
    }
    if reference.churn != other.churn {
        fail(&format!("{label}: churn records differ"));
    }
    if reference.handoff_rows != other.handoff_rows
        || reference.reclaimed_rows != other.reclaimed_rows
    {
        fail(&format!("{label}: handoff/reclaimed rows differ"));
    }
    println!("validate_churn: {label} OK — total work bits {:016x}", rb.to_bits());
}

/// Result multisets equal up to float round-off. A query admitted mid-run
/// accumulates its aggregates from a consolidated state snapshot plus the
/// remaining stream, so float sums associate differently than a
/// from-row-zero run; every *within-matrix* comparison stays bit-exact,
/// only the cross-trajectory oracle check tolerates the last few ulps.
fn results_approx_equal(a: &HashMap<Row, i64>, b: &HashMap<Row, i64>) -> bool {
    use ishare_common::Value;
    if a.len() != b.len() {
        return false;
    }
    let value_close = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(fx), Value::Float(fy)) => {
            let scale = fx.abs().max(fy.abs()).max(1.0);
            (fx - fy).abs() <= 1e-9 * scale
        }
        _ => x == y,
    };
    let row_close = |x: &Row, y: &Row| {
        x.values().len() == y.values().len()
            && x.values().iter().zip(y.values()).all(|(vx, vy)| value_close(vx, vy))
    };
    let bs: Vec<(&Row, i64)> = b.iter().map(|(r, w)| (r, *w)).collect();
    let mut used = vec![false; bs.len()];
    a.iter().all(|(row, w)| {
        bs.iter().enumerate().any(|(i, (r2, w2))| {
            if used[i] || *w != *w2 || !row_close(row, r2) {
                return false;
            }
            used[i] = true;
            true
        })
    })
}

/// Order-independent FNV-1a digest of every query's final result multiset
/// (same digest the other validate bins write, so `validate_replay` can
/// compare summaries across producers).
fn result_checksum(run: &ChurnRunResult) -> u64 {
    let mut lines: Vec<String> = Vec::new();
    for (q, result) in &run.run.results {
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

fn summarize(run: &ChurnRunResult) -> serde_json::Value {
    let final_work: Vec<(String, serde_json::Value)> = run
        .run
        .final_work
        .iter()
        .map(|(q, w)| (format!("q{}", q.0), format!("{:016x}", w.to_bits()).into()))
        .collect();
    serde_json::json!({
        "mode": "churn",
        "threads": 1u64,
        "kill_after": 0u64,
        "admitted": run.churn.iter().filter(|r| r.reclaimed_rows == 0).count() as u64,
        "removed": run.removed.len() as u64,
        "handoff_rows": run.handoff_rows,
        "reclaimed_rows": run.reclaimed_rows,
        "executions": run.run.executions as u64,
        "total_work": run.run.total_work.get(),
        "total_work_bits": format!("{:016x}", run.run.total_work.get().to_bits()),
        "final_work_bits": serde_json::Value::Object(final_work),
        "result_checksum": format!("{:016x}", result_checksum(run)),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sf = 0.002f64;
    let mut seed = 11u64;
    let mut out: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .cloned()
                .unwrap_or_else(|| fail(&format!("{} expects a value", args[*i - 1])))
        };
        match args[i].as_str() {
            "--sf" => sf = value(&mut i).parse().unwrap_or_else(|_| fail("--sf expects an f64")),
            "--seed" => {
                seed = value(&mut i).parse().unwrap_or_else(|_| fail("--seed expects a u64"))
            }
            "--out" => out = Some(value(&mut i).into()),
            other => fail(&format!("unknown option {other}")),
        }
        i += 1;
    }

    let tpch = generate(sf, seed).unwrap_or_else(|e| fail(&format!("tpch generate: {e}")));
    let pool: Vec<LogicalPlan> = sharing_friendly_queries(&tpch.catalog)
        .unwrap_or_else(|e| fail(&format!("queries: {e}")))
        .into_iter()
        .take(5)
        .map(|q| q.plan)
        .collect();
    if pool.len() < 5 {
        fail("need at least 5 sharing-friendly queries");
    }
    let initial: Vec<(QueryId, LogicalPlan)> =
        pool.iter().take(3).cloned().enumerate().map(|(i, p)| (QueryId(i as u16), p)).collect();
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        (0..5).map(|q| (QueryId(q), FinalWorkConstraint::Relative(0.35))).collect();
    let script = ishare_stream::ChurnScript::new(vec![
        ChurnEvent {
            num: 1,
            den: 4,
            op: ChurnOp::Admit {
                query: QueryId(3),
                plan: pool[3].clone(),
                constraint: FinalWorkConstraint::Relative(0.9),
            },
        },
        ChurnEvent {
            num: 2,
            den: 4,
            op: ChurnOp::Admit {
                query: QueryId(4),
                plan: pool[4].clone(),
                constraint: FinalWorkConstraint::Relative(0.9),
            },
        },
        ChurnEvent { num: 3, den: 4, op: ChurnOp::Remove { query: QueryId(1) } },
    ]);
    let feeds = insert_feeds(&tpch.data);

    // Merge-equivalence smoke: incremental admissions == batch build.
    {
        let normalized: Vec<(QueryId, LogicalPlan)> =
            initial.iter().map(|(q, lp)| (*q, normalize(lp))).collect();
        let batch = build_shared_dag(&normalized, &tpch.catalog, &MqoConfig::default())
            .unwrap_or_else(|e| fail(&format!("batch build: {e}")));
        let mut inc = IncrementalSharer::new(MqoConfig::default());
        for (q, lp) in &initial {
            inc.admit(*q, &normalize(lp)).unwrap_or_else(|e| fail(&format!("admit {q}: {e}")));
        }
        if inc.dag().nodes.len() != batch.nodes.len() {
            fail(&format!(
                "incremental DAG ({} nodes) != batch rebuild ({} nodes)",
                inc.dag().nodes.len(),
                batch.nodes.len()
            ));
        }
        println!(
            "validate_churn: incremental merge == batch rebuild ({} nodes)",
            batch.nodes.len()
        );
    }

    let base_opts = || ChurnOptions { max_pace: 16, ..Default::default() };
    let run = |opts: &ChurnOptions| -> ChurnOutcome {
        let mut source = Source::in_order(&feeds);
        execute_churn_from_source(
            &initial,
            &cons,
            &script,
            &tpch.catalog,
            &mut source,
            CostWeights::default(),
            opts,
        )
        .unwrap_or_else(|e| fail(&format!("churn run: {e}")))
    };
    let complete = |o: ChurnOutcome| -> (ChurnRunResult, ishare_stream::CommitLog) {
        match o {
            ChurnOutcome::Completed { result, log } => (*result, log),
            ChurnOutcome::Suspended { .. } => fail("run suspended unexpectedly"),
        }
    };

    let (reference, log) = complete(run(&base_opts()));
    println!(
        "validate_churn: sf {sf}, seed {seed} — {} churn events, {} handoff rows, {} reclaimed",
        reference.churn.len(),
        reference.handoff_rows,
        reference.reclaimed_rows
    );
    if reference.churn.len() != 3 {
        fail(&format!("expected 3 churn records, got {}", reference.churn.len()));
    }
    if reference.removed != vec![QueryId(1)] {
        fail("removed set is not exactly q1");
    }
    if reference.run.results.contains_key(&QueryId(1)) {
        fail("removed query still has a result");
    }

    // Every live query's result must equal its standalone batch oracle:
    // the admitted ones (state handed off) and the survivors (state kept).
    for q in reference.live.iter() {
        let single = vec![(q, pool[q.0 as usize].clone())];
        let mut source = Source::in_order(&feeds);
        let solo = execute_churn_from_source(
            &single,
            &BTreeMap::new(),
            &ishare_stream::ChurnScript::default(),
            &tpch.catalog,
            &mut source,
            CostWeights::default(),
            &base_opts(),
        )
        .unwrap_or_else(|e| fail(&format!("solo run {q}: {e}")))
        .into_result()
        .unwrap_or_else(|e| fail(&format!("solo run {q}: {e}")));
        if !results_approx_equal(&reference.run.results[&q], &solo.run.results[&q]) {
            fail(&format!("live query {q}: churn result != standalone oracle"));
        }
    }
    println!("validate_churn: all live queries match their standalone oracles");

    // Bit-identity matrix: obs, partitioned state, partition workers,
    // wavefront workers.
    for obs in [None, Some(ObsConfig::default())] {
        for partitions in [1usize, 2, 4] {
            for (partition_threads, workers) in [(1usize, 1usize), (2, 1), (1, 2), (2, 2)] {
                let mut o = base_opts();
                o.source.obs = obs;
                o.source.partitions = partitions;
                o.source.partition_threads = partition_threads;
                o.source.workers = workers;
                let label = format!(
                    "obs-{} {partitions}-partition {partition_threads}-partition-worker \
                     {workers}-worker vs reference",
                    if obs.is_some() { "on" } else { "off" },
                );
                check(&label, &reference, &complete(run(&o)).0);
            }
        }
    }

    // Kill after two wavefronts, then replay under log verification — both
    // on two workers: the churn trajectory (records included) must
    // reproduce the one-worker reference bit-for-bit.
    let mut kill = base_opts();
    kill.source.workers = 2;
    kill.source.stop_after = Some(2);
    let partial = match run(&kill) {
        ChurnOutcome::Suspended { log } => log,
        ChurnOutcome::Completed { .. } => fail("kill-after-2 run did not suspend"),
    };
    if partial.entries.len() != 2 || partial.entries != log.entries[..2] {
        fail("suspended run's commit log is not a prefix of the full log");
    }
    let mut resume = base_opts();
    resume.source.workers = 2;
    resume.source.verify = Some(log.clone());
    check("kill/resume replay vs reference", &reference, &complete(run(&resume)).0);
    if !log.entries.iter().any(|e| !e.churn.is_empty()) {
        fail("commit log carries no churn records");
    }

    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&summarize(&reference))
            .unwrap_or_else(|e| fail(&format!("serialize summary: {e}")));
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .unwrap_or_else(|e| fail(&format!("mkdir {parent:?}: {e}")));
            }
        }
        std::fs::write(&path, text).unwrap_or_else(|e| fail(&format!("write {path:?}: {e}")));
        println!("[saved {}]", path.display());
    }
    println!("validate_churn: OK — churn matrix bit-identical incl. kill/resume");
}
