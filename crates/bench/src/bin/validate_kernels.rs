//! Bit-exact differential gate for the kernel datapath.
//!
//! ```text
//! cargo run -p ishare-bench --release --bin validate_kernels -- [--sf 0.002] [--seed 11] [--out summary.json]
//! ```
//!
//! Plans a sharing-friendly TPC-H workload under the iShare approach, then
//! executes it through both datapaths ([`ExecMode::Kernels`] — encoded
//! keys, compiled expressions, flat operator state — and
//! [`ExecMode::Reference`], the original interpreter-shaped operators kept
//! as oracle) and through the parallel driver at 2 and 4 workers. Every run
//! must agree **to the bit** on charged total work, per-query final work,
//! execution counts, and the query result multisets.
//!
//! With `--out`, writes the kernel run's summary in the same shape
//! `examples/streaming.rs --out` produces (work numbers as f64 bit patterns
//! in hex), so two invocations of this bin can be diffed by
//! `validate_replay` — the cross-process determinism check that proves the
//! flat state has no hasher-seed dependence.
//!
//! Exits 0 on exact agreement, 1 with the first difference otherwise.

use ishare_common::{CostWeights, QueryId};
use ishare_core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare_stream::{
    execute_planned_deltas_with, insert_feeds, ExecMode, RunResult, SourceOptions,
};
use ishare_tpch::{generate, queries::sharing_friendly_queries};
use std::collections::BTreeMap;

fn fail(msg: &str) -> ! {
    eprintln!("validate_kernels: {msg}");
    std::process::exit(1);
}

fn check(label: &str, reference: &RunResult, other: &RunResult) {
    if reference.results != other.results {
        fail(&format!("{label}: query results differ from reference"));
    }
    let (ra, rb) = (reference.total_work.get(), other.total_work.get());
    if ra.to_bits() != rb.to_bits() {
        fail(&format!(
            "{label}: total_work differs: {ra} ({:016x}) vs {rb} ({:016x})",
            ra.to_bits(),
            rb.to_bits()
        ));
    }
    for (q, w) in &reference.final_work {
        let other_w = other.final_work[q];
        if w.to_bits() != other_w.to_bits() {
            fail(&format!("{label}: final_work[{q}] differs: {w} vs {other_w}"));
        }
    }
    if reference.executions != other.executions {
        fail(&format!(
            "{label}: executions differ: {} vs {}",
            reference.executions, other.executions
        ));
    }
    println!("validate_kernels: {label} OK — total work bits {:016x}", rb.to_bits());
}

/// Order-independent FNV-1a digest of every query's final result multiset
/// (same digest `examples/streaming.rs` writes, so `validate_replay` can
/// compare summaries across the two producers).
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
        "mode": "kernels",
        "threads": 1u64,
        "kill_after": 0u64,
        "executions": run.executions as u64,
        "total_work": run.total_work.get(),
        "total_work_bits": format!("{:016x}", run.total_work.get().to_bits()),
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
    let queries: Vec<(QueryId, _)> = sharing_friendly_queries(&tpch.catalog)
        .unwrap_or_else(|e| fail(&format!("queries: {e}")))
        .into_iter()
        .take(6)
        .enumerate()
        .map(|(i, q)| (QueryId(i as u16), q.plan))
        .collect();
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        queries.iter().map(|(q, _)| (*q, FinalWorkConstraint::Relative(0.25))).collect();
    let opts = PlanningOptions { max_pace: 8, ..Default::default() };
    let planned = plan_workload(Approach::IShare, &queries, &cons, &tpch.catalog, &opts)
        .unwrap_or_else(|e| fail(&format!("planning: {e}")));
    let feeds = insert_feeds(&tpch.data);
    println!(
        "validate_kernels: sf {sf}, seed {seed}, {} queries, {} subplans",
        queries.len(),
        planned.plan.len()
    );

    let run = |label: &str, mode: ExecMode, workers: usize| {
        execute_planned_deltas_with(
            &planned.plan,
            planned.paces.as_slice(),
            &tpch.catalog,
            &feeds,
            CostWeights::default(),
            SourceOptions { mode, workers, ..Default::default() },
        )
        .unwrap_or_else(|e| fail(&format!("{label}: {e}")))
    };
    let reference = run("reference run", ExecMode::Reference, 1);
    let kernels = run("kernel run", ExecMode::Kernels, 1);
    check("kernels sequential vs reference", &reference, &kernels);
    for threads in [2usize, 4] {
        let par = run(&format!("parallel run ({threads} threads)"), ExecMode::Kernels, threads);
        check(&format!("kernels {threads}-thread vs reference"), &reference, &par);
    }

    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&summarize(&kernels))
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
    println!("validate_kernels: OK — both datapaths bit-identical at 1/2/4 threads");
}
