//! CI perf-regression gate for the slack ledger / SLO observability layer.
//!
//! ```text
//! cargo run -p ishare-bench --release --bin validate_slo -- \
//!     [--sf f] [--seed n] [--tol f] [--update-golden] [--out path]
//! ```
//!
//! Plans the `qa`/`qb`/`q6` workload at `Relative(0.5)` final-work
//! constraints, streams it through the source-fed driver with observability
//! and per-query SLO budgets on, and asserts the slack ledger's whole
//! contract (DESIGN.md §13):
//!
//! * the report carries a [`SlackLedger`] with one sample per query per
//!   wavefront, and [`SlackLedger::verify`] holds (remaining is bitwise
//!   `max(0, L(q) − consumed)`, `consumed + remaining == budget` when met,
//!   monotone across fronts),
//! * every query's final `consumed` is `to_bits`-equal to the driver's
//!   measured `final_work`, and budgets are bitwise the planner's `L(q)`,
//! * when the optimizer reported the configuration feasible, the ledger
//!   records **zero** deadline misses and non-negative remaining slack,
//! * the `slo.*` metrics mirror the ledger bitwise and render through the
//!   Prometheus exposition,
//! * the ledger is *identical* (`==`, plus explicit `to_bits` on every
//!   sample) across: obs-on vs obs-off work numbers, 2- and 4-thread
//!   parallel runs, and a killed run (2 wavefronts) resumed under
//!   commit-log verification,
//! * the run agrees with the committed golden snapshot
//!   `results/GOLDEN_slo.json` within the tolerance band `--tol` (relative,
//!   default 1e-6) — the perf-regression gate. `--update-golden` rewrites
//!   the snapshot; the diff is skipped (with a notice) off the default
//!   `--sf`/`--seed` since the golden numbers are workload-specific.
//!
//! Exits 0 when every check holds, 1 with the first violation otherwise.
//! `--out` writes the sequential run's summary in the same format
//! `examples/streaming.rs --out` uses, so `validate_replay` can diff it.

use ishare_common::{CostWeights, QueryId, Result, TableId};
use ishare_core::{
    plan_workload, Approach, FinalWorkConstraint, PlannedExecution, PlanningOptions,
};
use ishare_stream::{
    execute_from_source_obs, insert_feeds, ObsConfig, RunResult, SlackLedger, Source,
    SourceOptions, SourceOutcome,
};
use ishare_tpch::updates::DeltaFeed;
use ishare_tpch::{generate, query_by_name, TpchData};
use std::collections::{BTreeMap, HashMap};

fn fail(msg: &str) -> ! {
    eprintln!("validate_slo: {msg}");
    std::process::exit(1);
}

const NAMES: [&str; 3] = ["qa", "qb", "q6"];
/// Relative final-work constraint. Laxer than `validate_adapt`'s 0.35: the
/// optimizer plans against *estimated* work, the ledger audits *measured*
/// work, and the zero-miss assertion below needs enough slack to absorb the
/// cost model's estimation error on a clean (undrifted) stream.
const REL_CONSTRAINT: f64 = 0.5;
const GOLDEN_PATH: &str = "results/GOLDEN_slo.json";
const DEFAULT_SF: f64 = 0.004;
const DEFAULT_SEED: u64 = 42;

fn plan(data: &TpchData) -> Result<PlannedExecution> {
    let mut queries = Vec::new();
    let mut cons = BTreeMap::new();
    for (i, name) in NAMES.iter().enumerate() {
        let q = query_by_name(&data.catalog, name)?;
        queries.push((QueryId(i as u16), q.plan));
        cons.insert(QueryId(i as u16), FinalWorkConstraint::Relative(REL_CONSTRAINT));
    }
    let opts = PlanningOptions { max_pace: 100, ..Default::default() };
    plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts)
}

fn run_once(
    planned: &PlannedExecution,
    data: &TpchData,
    feeds: &HashMap<TableId, DeltaFeed>,
    threads: usize,
    opts: SourceOptions,
) -> Result<SourceOutcome> {
    let w = CostWeights::default();
    let mut source = Source::in_order(feeds);
    execute_from_source_obs(
        &planned.plan,
        planned.paces.as_slice(),
        &data.catalog,
        &mut source,
        w,
        SourceOptions { workers: threads, ..opts },
    )
}

fn completed(out: SourceOutcome, label: &str) -> RunResult {
    match out {
        SourceOutcome::Completed { result, .. } => *result,
        SourceOutcome::Suspended { .. } => fail(&format!("{label}: run suspended unexpectedly")),
    }
}

fn slo_opts(planned: &PlannedExecution) -> SourceOptions {
    SourceOptions {
        obs: Some(ObsConfig::default()),
        slo: Some(planned.constraints.clone()),
        ..Default::default()
    }
}

fn ledger_of<'a>(run: &'a RunResult, label: &str) -> &'a SlackLedger {
    run.obs
        .as_ref()
        .and_then(|r| r.slack.as_ref())
        .unwrap_or_else(|| fail(&format!("{label}: report carries no slack ledger")))
}

/// `==` plus an explicit bitwise sweep — `PartialEq` on f64 would accept
/// `-0.0 == 0.0`, and this gate promises bit identity.
fn assert_same_ledger(a: &SlackLedger, b: &SlackLedger, label: &str) {
    if a != b {
        fail(&format!("{label}: slack ledgers differ"));
    }
    for ((qa, sa), (qb, sb)) in a.queries().zip(b.queries()) {
        if qa != qb || sa.budget.to_bits() != sb.budget.to_bits() {
            fail(&format!("{label}: ledger budgets differ for q{}", qa.0));
        }
        for (x, y) in sa.samples.iter().zip(&sb.samples) {
            let same = x.wavefront == y.wavefront
                && x.front_work.to_bits() == y.front_work.to_bits()
                && x.charged_total.to_bits() == y.charged_total.to_bits()
                && x.consumed.to_bits() == y.consumed.to_bits()
                && x.remaining.to_bits() == y.remaining.to_bits();
            if !same {
                fail(&format!(
                    "{label}: ledger sample bits differ for q{} front {}",
                    qa.0, x.wavefront
                ));
            }
        }
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
        "mode": "slo",
        "threads": 1u64,
        "kill_after": 0u64,
        "executions": run.executions as u64,
        "total_work": run.total_work.get(),
        "total_work_bits": format!("{:016x}", run.total_work.get().to_bits()),
        "final_work_bits": serde_json::Value::Object(final_work),
        "result_checksum": format!("{:016x}", result_checksum(run)),
    })
}

/// The golden snapshot: the numbers the regression gate bands around.
fn golden_doc(sf: f64, seed: u64, run: &RunResult, ledger: &SlackLedger) -> serde_json::Value {
    let queries: Vec<serde_json::Value> = ledger
        .queries()
        .map(|(q, slot)| {
            serde_json::json!({
                "query": format!("q{}", q.0),
                "budget": slot.budget,
                "consumed": slot.consumed(),
                "remaining": slot.remaining(),
                "met": slot.met(),
            })
        })
        .collect();
    serde_json::json!({
        "sf": sf,
        "seed": seed,
        "total_work": run.total_work.get(),
        "executions": run.executions as u64,
        "fronts": ledger.fronts() as u64,
        "deadline_misses": ledger.misses() as u64,
        "queries": queries,
    })
}

/// Diff `got` against the committed golden within a relative tolerance band
/// on every float; integers and booleans must match exactly.
fn diff_golden(golden: &serde_json::Value, got: &serde_json::Value, tol: f64) {
    let num = |doc: &serde_json::Value, name: &str, where_: &str| -> f64 {
        doc.get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| fail(&format!("golden diff: {where_} missing numeric `{name}`")))
    };
    let band = |name: &str, want: f64, have: f64| {
        let lim = tol * want.abs().max(1.0);
        if (have - want).abs() > lim {
            fail(&format!(
                "golden regression: {name} = {have}, golden {want} (tolerance ±{lim}); \
                 re-bless with --update-golden if the change is intended"
            ));
        }
    };
    band("total_work", num(golden, "total_work", "golden"), num(got, "total_work", "run"));
    for name in ["executions", "fronts", "deadline_misses"] {
        let (want, have) = (num(golden, name, "golden"), num(got, name, "run"));
        if want != have {
            fail(&format!("golden regression: {name} = {have}, golden {want} (exact)"));
        }
    }
    let arr = |doc: &serde_json::Value, where_: &str| -> Vec<serde_json::Value> {
        doc.get("queries")
            .and_then(|v| v.as_array())
            .cloned()
            .unwrap_or_else(|| fail(&format!("golden diff: {where_} missing `queries`")))
    };
    let (gq, rq) = (arr(golden, "golden"), arr(got, "run"));
    if gq.len() != rq.len() {
        fail(&format!("golden regression: {} queries, golden {}", rq.len(), gq.len()));
    }
    for (g, r) in gq.iter().zip(&rq) {
        let name = g.get("query").and_then(|v| v.as_str()).unwrap_or("?").to_string();
        for field in ["budget", "consumed", "remaining"] {
            band(&format!("{name}.{field}"), num(g, field, "golden"), num(r, field, "run"));
        }
        if g.get("met") != r.get("met") {
            fail(&format!("golden regression: {name}.met flipped"));
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run(
    sf: f64,
    seed: u64,
    tol: f64,
    update_golden: bool,
    out: Option<std::path::PathBuf>,
) -> Result<()> {
    let data = generate(sf, seed)?;
    let planned = plan(&data)?;
    // Clean insert-only feeds: no drift, so the planned configuration stays
    // feasible and the zero-miss assertion is meaningful.
    let feeds = insert_feeds(&data.data);

    // 1. Sequential obs-on run with SLO budgets: the reference ledger.
    let run_seq =
        completed(run_once(&planned, &data, &feeds, 1, slo_opts(&planned))?, "sequential");
    let ledger = ledger_of(&run_seq, "sequential").clone();
    if ledger.fronts() == 0 {
        fail("ledger recorded no wavefronts");
    }
    if let Err(e) = ledger.verify() {
        fail(&format!("ledger invariant violated: {e}"));
    }

    // 2. Ledger vs planner and driver, bitwise.
    for (i, name) in NAMES.iter().enumerate() {
        let q = QueryId(i as u16);
        let slot = ledger.query(q).unwrap_or_else(|| fail(&format!("{name}: no ledger entry")));
        let l = planned.constraints[&q];
        if slot.budget.to_bits() != l.to_bits() {
            fail(&format!("{name}: ledger budget {} != planned L(q) {l}", slot.budget));
        }
        if slot.consumed().to_bits() != run_seq.final_work[&q].to_bits() {
            fail(&format!(
                "{name}: ledger consumed {} != measured final work {}",
                slot.consumed(),
                run_seq.final_work[&q]
            ));
        }
        if slot.remaining() < 0.0 {
            fail(&format!("{name}: negative remaining slack {}", slot.remaining()));
        }
        println!(
            "validate_slo: {name}: L {:.0}, consumed {:.0}, slack {:.0} ({})",
            slot.budget,
            slot.consumed(),
            slot.remaining(),
            if slot.met() { "met" } else { "MISS" },
        );
    }
    if planned.feasible && ledger.misses() != 0 {
        fail(&format!(
            "optimizer reported feasible but ledger records {} miss(es)",
            ledger.misses()
        ));
    }

    // 3. slo.* metrics mirror the ledger bitwise and render as Prometheus text.
    let obs = run_seq.obs.as_ref().expect("obs was enabled");
    for (q, slot) in ledger.queries() {
        let g = |suffix: &str| {
            obs.metrics
                .gauge(&format!("slo.q{}.{suffix}", q.index()))
                .unwrap_or_else(|| fail(&format!("missing gauge slo.q{}.{suffix}", q.index())))
        };
        if g("slack_remaining").to_bits() != slot.remaining().to_bits()
            || g("consumed").to_bits() != slot.consumed().to_bits()
            || g("budget").to_bits() != slot.budget.to_bits()
        {
            fail(&format!("slo.q{}.* gauges disagree with the ledger", q.index()));
        }
    }
    if obs.metrics.counter("slo.deadline_misses") != Some(ledger.misses() as f64) {
        fail("slo.deadline_misses counter disagrees with the ledger");
    }
    let prom = obs.prometheus();
    for needle in ["ishare_slo_q0_slack_remaining", "ishare_slo_deadline_misses"] {
        if !prom.contains(needle) {
            fail(&format!("Prometheus exposition lacks `{needle}`"));
        }
    }

    // 4. Obs-off run: identical work numbers (observability is passive).
    let run_off =
        completed(run_once(&planned, &data, &feeds, 1, SourceOptions::default())?, "obs-off");
    assert_bit_identical(&run_seq, &run_off, "obs-off vs obs-on");

    // 5. Parallel runs (2 and 4 workers): identical ledger.
    for threads in [2usize, 4] {
        let label = format!("{threads}-thread parallel");
        let run_par =
            completed(run_once(&planned, &data, &feeds, threads, slo_opts(&planned))?, &label);
        assert_bit_identical(&run_seq, &run_par, &label);
        assert_same_ledger(&ledger, ledger_of(&run_par, &label), &label);
    }

    // 6. Kill after 2 wavefronts, resume under commit-log verification:
    //    the resumed run re-derives the identical ledger.
    let killed = run_once(
        &planned,
        &data,
        &feeds,
        1,
        SourceOptions { stop_after: Some(2), ..slo_opts(&planned) },
    )?;
    let partial = match killed {
        SourceOutcome::Suspended { log } => log,
        SourceOutcome::Completed { .. } => fail("stop_after=2 did not suspend"),
    };
    let run_res = completed(
        run_once(
            &planned,
            &data,
            &feeds,
            1,
            SourceOptions { verify: Some(partial), ..slo_opts(&planned) },
        )?,
        "killed+resumed",
    );
    assert_bit_identical(&run_seq, &run_res, "killed+resumed");
    assert_same_ledger(&ledger, ledger_of(&run_res, "killed+resumed"), "killed+resumed");

    // 7. Golden snapshot diff (the perf-regression gate).
    let doc = golden_doc(sf, seed, &run_seq, &ledger);
    let golden_path = std::path::Path::new(GOLDEN_PATH);
    if update_golden {
        let text = serde_json::to_string_pretty(&doc)
            .map_err(|e| ishare_common::Error::InvalidConfig(format!("serialize golden: {e}")))?;
        if let Some(parent) = golden_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(golden_path, text)
            .map_err(|e| ishare_common::Error::InvalidConfig(format!("write golden: {e}")))?;
        println!("validate_slo: golden snapshot re-blessed at {GOLDEN_PATH}");
    } else if sf != DEFAULT_SF || seed != DEFAULT_SEED {
        println!(
            "validate_slo: golden diff skipped (sf {sf} / seed {seed} differ from the committed \
             snapshot's {DEFAULT_SF} / {DEFAULT_SEED})"
        );
    } else {
        let text = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
            fail(&format!("cannot read {GOLDEN_PATH}: {e} (run --update-golden once)"))
        });
        let golden: serde_json::Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(&format!("{GOLDEN_PATH} is not valid JSON: {e}")));
        diff_golden(&golden, &doc, tol);
        println!("validate_slo: golden diff OK (tolerance {tol})");
    }

    println!(
        "validate_slo: OK — {} fronts, {} misses, total work bits {:016x}",
        ledger.fronts(),
        ledger.misses(),
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
    let mut sf = DEFAULT_SF;
    let mut seed = DEFAULT_SEED;
    let mut tol = 1e-6f64;
    let mut update_golden = false;
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
            "--tol" => tol = value(&mut i).parse().unwrap_or_else(|_| fail("bad --tol")),
            "--update-golden" => update_golden = true,
            "--out" => out = Some(value(&mut i).into()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Err(e) = run(sf, seed, tol, update_golden, out) {
        fail(&format!("error: {e}"));
    }
}
