//! One repetition of a workload: plan, build the source, run — through the
//! public entry points only.

use crate::api::*;
use crate::workloads::{Inputs, Kind, Spec};
use std::time::Instant;

/// What differs between the timed repetitions and the single variant runs of
/// the traced phase.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Run with `ObsConfig` and the slack ledger on.
    pub obs: bool,
    pub mode: ExecMode,
    /// State partitions per join/aggregate (1 = unpartitioned).
    pub partitions: usize,
    /// Wavefront worker threads (1 = the sequential driver).
    pub workers: usize,
}

impl Variant {
    /// The configuration every end-to-end number is measured in.
    pub const TIMED: Variant =
        Variant { obs: false, mode: ExecMode::Kernels, partitions: 1, workers: 1 };
}

/// Adaptive-controller totals of one `optimizer_bound` repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptTotals {
    pub reopt_s: f64,
    pub switches: u64,
    pub evaluations: u64,
}

/// Churn totals of one `live_churn` repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnTotals {
    pub handoff_rows: u64,
    pub reclaimed_rows: u64,
    pub quiesce_ticks: u64,
}

/// One measured repetition.
pub struct Rep {
    /// Wall of planning: `plan_workload` plus, on `optimizer_bound`, the
    /// controller's construction (0 on `live_churn`, which plans inside the
    /// run).
    pub plan_s: f64,
    /// Wall of the `execute_*` call alone.
    pub run_s: f64,
    pub run: RunResult,
    pub adapt: AdaptTotals,
    pub churn: ChurnTotals,
}

impl Rep {
    pub fn opt_to_result_s(&self) -> f64 {
        self.plan_s + self.run_s
    }
}

pub fn planning_options(spec: &Spec) -> PlanningOptions {
    PlanningOptions { max_pace: spec.max_pace, ..Default::default() }
}

pub fn adapt_options(spec: &Spec) -> AdaptOptions {
    AdaptOptions { max_pace: spec.max_pace, max_switches: 1, ..Default::default() }
}

/// Plan the workload's initial queries (`None` on `live_churn`).
pub fn plan(spec: &Spec, inputs: &Inputs) -> Result<Option<PlannedExecution>> {
    if spec.kind == Kind::Churn {
        return Ok(None);
    }
    plan_workload(
        Approach::IShare,
        &inputs.queries,
        &inputs.constraints,
        &inputs.data.catalog,
        &planning_options(spec),
    )
    .map(Some)
}

/// Build a `Source` and run `planned` over it, timing the `execute_*` call
/// alone: the source build is the load generator. `plan_s` of the result
/// holds only the controller's construction.
pub fn execute(
    spec: &Spec,
    inputs: &Inputs,
    planned: Option<&PlannedExecution>,
    v: Variant,
) -> Result<Rep> {
    let catalog = &inputs.data.catalog;
    let weights = CostWeights::default();
    let mut source = Source::new(&inputs.feeds, inputs.source_cfg)?;
    let mut opts = SourceOptions {
        obs: v.obs.then(ObsConfig::default),
        mode: v.mode,
        partitions: v.partitions,
        ..Default::default()
    };
    let Some(planned) = planned else {
        let opts = ChurnOptions { source: opts, max_pace: spec.max_pace, ..Default::default() };
        let started = Instant::now();
        let out = execute_churn_from_source(
            &inputs.queries,
            &inputs.constraints,
            &inputs.script,
            catalog,
            &mut source,
            weights,
            &opts,
        )?
        .into_result()?;
        return Ok(Rep {
            plan_s: 0.0,
            run_s: started.elapsed().as_secs_f64(),
            churn: ChurnTotals {
                handoff_rows: out.handoff_rows,
                reclaimed_rows: out.reclaimed_rows,
                quiesce_ticks: out.quiesce_ticks as u64,
            },
            run: out.run,
            adapt: AdaptTotals::default(),
        });
    };
    if v.obs {
        opts.slo = Some(planned.constraints.clone());
    }
    let started = Instant::now();
    let mut ctrl = match spec.kind {
        Kind::Adaptive => {
            Some(AdaptController::from_planned(planned, catalog, weights, adapt_options(spec))?)
        }
        _ => None,
    };
    let plan_s = started.elapsed().as_secs_f64();

    let paces = planned.paces.as_slice();
    let started = Instant::now();
    let outcome = match (ctrl.as_mut(), v.workers) {
        (Some(ctrl), _) => execute_adaptive_from_source_obs(
            &planned.plan,
            catalog,
            &mut source,
            weights,
            opts,
            ctrl,
        ),
        (None, 1) => {
            execute_from_source_obs(&planned.plan, paces, catalog, &mut source, weights, opts)
        }
        (None, workers) => execute_from_source_parallel_obs(
            &planned.plan,
            paces,
            catalog,
            &mut source,
            weights,
            workers,
            opts,
        ),
    };
    let run = outcome?.into_result()?;
    let run_s = started.elapsed().as_secs_f64();
    let adapt = ctrl.as_ref().map_or_else(AdaptTotals::default, |c| {
        let m = c.metrics();
        AdaptTotals {
            reopt_s: m.reopt_time.as_secs_f64(),
            switches: m.switches,
            evaluations: m.evaluations,
        }
    });
    Ok(Rep { plan_s, run_s, run, adapt, churn: ChurnTotals::default() })
}

/// One repetition as the timed phase defines it: plan, build the source,
/// run. Returns the plan too, for the phases that reuse it.
pub fn run_rep(
    spec: &Spec,
    inputs: &Inputs,
    v: Variant,
) -> Result<(Rep, Option<PlannedExecution>)> {
    let started = Instant::now();
    let planned = plan(spec, inputs)?;
    let plan_s = started.elapsed().as_secs_f64();
    let mut rep = execute(spec, inputs, planned.as_ref(), v)?;
    rep.plan_s += plan_s;
    Ok((rep, planned))
}

/// The final-work limits `L(q)` of the queries live at the end of a run.
pub fn limits(inputs: &Inputs) -> Result<ConstraintMap> {
    resolve_constraints(
        &inputs.final_queries,
        &inputs.final_constraints,
        &inputs.data.catalog,
        CostWeights::default(),
    )
}

/// Mean over queries of `max(0, final_work(q) − L(q)) / L(q)`, in percent:
/// the paper's missed latency in work units. 0 when every deadline is met.
pub fn missed_work_pct(run: &RunResult, limits: &ConstraintMap) -> f64 {
    missed_latency_stats(limits, &run.final_work).mean_pct
}

/// Mean over queries of `min(1, L(q) / final_work(q))`, in percent: the
/// share of each query's final work that fits its limit. 100 when every
/// deadline is met; a query that misses by `m` percent contributes
/// `100 / (1 + m/100)`, so the metric falls as misses grow but is never 0.
pub fn deadline_fit_pct(run: &RunResult, limits: &ConstraintMap) -> f64 {
    let fits: Vec<f64> = limits
        .iter()
        .filter_map(|(q, &limit)| run.final_work.get(q).map(|&work| (work, limit)))
        .filter(|&(work, _)| work > 0.0)
        .map(|(work, limit)| 100.0 * (limit / work).min(1.0))
        .collect();
    if fits.is_empty() {
        return 100.0;
    }
    fits.iter().sum::<f64>() / fits.len() as f64
}
