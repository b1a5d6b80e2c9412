//! The timed phase: tracing off, warm-up repetitions discarded, then timed
//! repetitions for `--seconds`; yields the end-to-end metrics.

use crate::api::*;
use crate::metrics::Report;
use crate::run::{self, Variant};
use crate::workloads::{setup, Inputs, Kind, Spec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up runs at least this many times, and goes on (up to `MAX_SETUPS`)
/// until it has taken `SETUP_BUDGET` in all, so that the small workloads'
/// millisecond set-ups get a median worth reporting. `setup_s` is the median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Repetitions discarded before timing starts.
const WARMUP_REPS: usize = 1;

/// Tolerance for `live_churn` results. Its oracle is a different plan (the
/// churn runner has no reference datapath), and both state hand-off and
/// incremental retraction re-associate float sums, so results match a
/// from-scratch batch only to round-off. Everywhere else results are
/// bit-equal.
const CHURN_REL_EPS: f64 = 1e-9;

/// Run set-up repeatedly, recording each wall; returns the last inputs.
pub fn timed_setup(spec: &Spec, seed: u64, report: &mut Report) -> Result<Inputs> {
    let phase = Instant::now();
    let mut inputs = None;
    let mut done = 0;
    while done < MIN_SETUPS || (done < MAX_SETUPS && phase.elapsed() < SETUP_BUDGET) {
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(setup(spec, seed)?);
        report.record("setup_s", started.elapsed().as_secs_f64());
        done += 1;
    }
    Ok(inputs.expect("MIN_SETUPS > 0"))
}

/// Every final query's result from an `ExecMode::Reference` run.
///
/// Static and adaptive workloads re-run the same plan (and controller) on
/// the reference datapath, which the repository guarantees bit-identical.
/// The churn runner has no reference datapath, so its oracle runs the
/// queries live at the end as one unshared batch.
///
/// Also returns the wall of the reference `execute_*` call.
pub fn oracle(spec: &Spec, inputs: &Inputs) -> Result<(BTreeMap<QueryId, QueryResult>, f64)> {
    let reference = Variant { mode: ExecMode::Reference, ..Variant::TIMED };
    if spec.kind != Kind::Churn {
        let rep = run::run_rep(spec, inputs, reference)?.0;
        return Ok((rep.run.results, rep.run_s));
    }
    let catalog = &inputs.data.catalog;
    let planned = plan_workload(
        Approach::NoShareUniform,
        &inputs.final_queries,
        &inputs.final_constraints,
        catalog,
        &PlanningOptions { max_pace: 1, ..Default::default() },
    )?;
    let mut source = Source::new(&inputs.feeds, inputs.source_cfg)?;
    let started = Instant::now();
    let run = execute_from_source_obs(
        &planned.plan,
        planned.paces.as_slice(),
        catalog,
        &mut source,
        CostWeights::default(),
        SourceOptions { mode: ExecMode::Reference, ..Default::default() },
    )?
    .into_result()?;
    Ok((run.results, started.elapsed().as_secs_f64()))
}

/// Count one repetition's query results against the oracle: one operation
/// per expected query, plus one failed operation per result that should not
/// exist (a removed query still answering).
pub fn check_results(
    spec: &Spec,
    oracle: &BTreeMap<QueryId, QueryResult>,
    results: &BTreeMap<QueryId, QueryResult>,
    report: &mut Report,
) {
    for (q, expect) in oracle {
        report.attempted += 1;
        let ok = results.get(q).is_some_and(|got| {
            if spec.kind == Kind::Churn {
                approx_result_eq(got, expect, CHURN_REL_EPS)
            } else {
                got == expect
            }
        });
        if !ok {
            report.failed += 1;
            eprintln!("query {q}: result differs from the reference oracle");
        }
    }
    for q in results.keys().filter(|q| !oracle.contains_key(q)) {
        report.attempted += 1;
        report.failed += 1;
        eprintln!("query {q}: has a result but is not live at the end of the run");
    }
}

/// The timed phase of one run.
pub fn timed_phase(spec: &Spec, seed: u64, seconds: f64) -> Result<Report> {
    let mut report = Report::new(spec.name, seed, false);
    let inputs = timed_setup(spec, seed, &mut report)?;
    let limits = run::limits(&inputs)?;
    let expected = oracle(spec, &inputs)?.0;

    let budget = Duration::from_secs_f64(seconds);
    let phase = Instant::now();
    for _ in 0..WARMUP_REPS {
        run::run_rep(spec, &inputs, Variant::TIMED)?;
    }
    let mut reps = 0;
    let mut charged: Option<u64> = None;
    while reps < spec.min_reps || phase.elapsed() < budget {
        let rep = match run::run_rep(spec, &inputs, Variant::TIMED) {
            Ok((rep, _)) => rep,
            // The program is deterministic: a repetition that errors would
            // error again. Its results all count as failed operations.
            Err(e) if reps > 0 => {
                eprintln!("repetition failed: {e}");
                report.attempted += expected.len() as u64;
                report.failed += expected.len() as u64;
                break;
            }
            Err(e) => return Err(e),
        };
        check_results(spec, &expected, &rep.run.results, &mut report);
        report.record("opt_to_result_s", rep.opt_to_result_s());
        report.record("run_s", rep.run_s);
        report.record("total_work", rep.run.total_work.get());
        report.record("deadline_fit_pct", run::deadline_fit_pct(&rep.run, &limits));
        // The charged work is a count: every repetition must charge the same.
        let bits = rep.run.total_work.get().to_bits();
        if *charged.get_or_insert(bits) != bits {
            eprintln!("total_work differs between repetitions of the same inputs");
            report.correct = false;
        }
        reps += 1;
    }
    report.record("peak_rss_mb", peak_rss_mb());
    report.correct &= report.failed == 0;
    Ok(report)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
