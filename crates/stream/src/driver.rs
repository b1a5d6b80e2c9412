//! The wavefront loop and the entry points onto it.
//!
//! Every run — fixed-plan, adaptive, live churn — goes through
//! `run_wavefronts`: poll the source to the front's arrival fraction, run
//! the front's ticks on the calling thread in schedule order (`engine.rs`),
//! compact, then the boundary steps in one fixed order:
//!
//! 1. **churn** due at this fraction — quiesce sweep, then each event's
//!    surgery swaps plan, paces, engine and the schedule suffix;
//! 2. **commit** the consumed offsets with the paces that were in effect
//!    *during* the front and the boundary's churn records, and **verify**
//!    the entry against [`SourceOptions::verify`];
//! 3. **stop** if [`SourceOptions::stop_after`] says so;
//! 4. **adapt** — the controller observes the committed front and may
//!    install new paces for the fronts after it.
//!
//! Commit precedes adapt so the log entry records the paces a front ran
//! under; a switch only governs subsequent fronts, and a resumed run
//! re-derives it from the same observation.

use crate::admission::Runner;
use crate::engine::{EngineState, TickRec};
use crate::fold::{adapt_gauges, engine_gauges, ingest_gauges, Fold};
use crate::schedule::{build_schedule, front_at, reschedule_after, Tick};
use ishare_common::{CostWeights, Error, QueryId, Result, TableId, WorkUnits};
use ishare_core::adapt::{AdaptController, ObservedTable, WavefrontObservation};
use ishare_exec::{ExecMode, ExecOptions, QueryResult};
use ishare_ingest::{CommitLog, Source};
use ishare_obs::{ExecCounts, ObsConfig, ObsReport};
use ishare_plan::SharedPlan;
use ishare_storage::{Catalog, DeltaRow, Row};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Measured outcome of one paced run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Measured total work: Σ work of all incremental executions.
    pub total_work: WorkUnits,
    /// Wall-clock spent inside executions, summed over all of them (the
    /// paper's "total execution time").
    pub total_wall: Duration,
    /// Per query: measured final work (Σ work of the final executions of
    /// the query's subplans).
    pub final_work: BTreeMap<QueryId, f64>,
    /// Per query: wall-clock latency (Σ wall of the final executions of the
    /// query's subplans).
    pub latency: BTreeMap<QueryId, Duration>,
    /// Per query: its result view, which the engine folded as the query's
    /// root emitted.
    pub results: BTreeMap<QueryId, QueryResult>,
    /// Number of incremental executions performed.
    pub executions: usize,
    /// Per query: how many times its subplans executed, split into
    /// incremental (fraction < 1) and final refreshes. A subplan shared by
    /// several queries counts once for each.
    pub executions_per_query: BTreeMap<QueryId, ExecCounts>,
    /// End-to-end wall clock of the whole run — setup, feeding, execution,
    /// and result extraction.
    pub elapsed: Duration,
    /// Observability report; present iff the run was started with
    /// [`SourceOptions::obs`].
    pub obs: Option<ObsReport>,
}

/// Options of a run.
#[derive(Debug, Clone, Default)]
pub struct SourceOptions {
    /// Opt-in observability: when set, [`RunResult::obs`] carries the
    /// per-subplan work breakdown, metrics, and a span trace.
    /// Instrumentation is passive (it reads tick-local counters and the
    /// wall clock only), so the run's work numbers are bit-identical with
    /// `obs` on or off.
    pub obs: Option<ObsConfig>,
    /// Stop (kill) the run after this many wavefronts have completed and
    /// committed, returning [`SourceOutcome::Suspended`] with the commit
    /// log. `None` runs to completion; `Some(0)` is rejected.
    pub stop_after: Option<usize>,
    /// A commit log from a previous (killed) run over the same workload.
    /// Each replayed wavefront's commit is verified against it; divergence —
    /// a non-deterministic source — is an error rather than a silently
    /// different run, and so is a log with entries beyond the run's last
    /// wavefront.
    pub verify: Option<CommitLog>,
    /// Which exec-layer datapath to run ([`ExecMode::Kernels`] by default).
    /// [`ExecMode::Reference`] selects the original interpreter-shaped
    /// operators — bit-identical results and work, only wall-clock differs.
    /// [`ExecMode::Vectorized`] is inert and runs as `Kernels` (DESIGN.md
    /// §15).
    pub mode: ExecMode,
    /// Ignored: nothing reads it, and any value runs exactly like `1`. The
    /// per-operator partition exchange it configured was removed (DESIGN.md
    /// §12); the field survives only because the benchmark package pins it
    /// (`benchmark/src/api.rs`), and the next `[benchmark]` PR deletes it.
    pub partitions: usize,
    /// Per-query final-work budgets `L(q)` for the slack ledger. When set
    /// (and `obs` is on), the report carries a
    /// [`SlackLedger`](ishare_obs::SlackLedger) with one account per query
    /// plus `slo.*` metrics, and the Chrome trace a per-query counter track
    /// of the work charged to it at each wavefront. Adaptive runs default this
    /// to the controller's constraints, churn runs to the live queries'
    /// resolved budgets. Purely observational: budgets never influence
    /// execution.
    pub slo: Option<BTreeMap<QueryId, f64>>,
}

impl SourceOptions {
    /// The exec-layer options this run configures.
    pub(crate) fn exec_options(&self) -> ExecOptions {
        ExecOptions { mode: self.mode }
    }
}

/// What a run produced: a [`RunResult`] for the plain drivers, a
/// [`crate::ChurnRunResult`] for a churn run ([`crate::ChurnOutcome`]).
#[derive(Debug)]
pub enum SourceOutcome<R = RunResult> {
    /// The run executed every wavefront.
    Completed {
        /// The measured run.
        result: Box<R>,
        /// Commit log of every wavefront (for later replay verification).
        log: CommitLog,
    },
    /// The run was stopped by [`SourceOptions::stop_after`]; resume by
    /// rebuilding the source from the same feeds and config and re-running
    /// with [`SourceOptions::verify`] set to the log.
    Suspended {
        /// Commit log of the wavefronts that completed before the stop.
        log: CommitLog,
    },
}

impl<R> SourceOutcome<R> {
    /// Unwrap a completed run's result; errors on [`Suspended`].
    ///
    /// [`Suspended`]: SourceOutcome::Suspended
    pub fn into_result(self) -> Result<R> {
        match self {
            SourceOutcome::Completed { result, .. } => Ok(*result),
            SourceOutcome::Suspended { log } => Err(Error::InvalidConfig(format!(
                "run suspended after {} wavefronts, no result",
                log.len()
            ))),
        }
    }
}

/// What the loop is running right now. A churn event swaps all of it.
pub(crate) struct Live<'p> {
    pub(crate) started: Instant,
    pub(crate) plan: Cow<'p, SharedPlan>,
    pub(crate) paces: Vec<u32>,
    pub(crate) engine: EngineState,
}

impl<'p> Live<'p> {
    pub(crate) fn new(
        plan: Cow<'p, SharedPlan>,
        paces: &[u32],
        catalog: &Catalog,
        weights: CostWeights,
        opts: &SourceOptions,
    ) -> Result<Live<'p>> {
        let started = Instant::now();
        let engine = EngineState::new(&plan, catalog, weights, opts.exec_options())?;
        Ok(Live { started, plan, paces: paces.to_vec(), engine })
    }
}

/// The one wavefront loop (see the module docs). `adapt` and `churn` are
/// the optional boundary steps; no entry point passes both, because the
/// controller cannot yet rebind to a re-cut plan.
pub(crate) fn run_wavefronts(
    mut live: Live<'_>,
    source: &mut Source,
    opts: &SourceOptions,
    mut adapt: Option<&mut AdaptController>,
    mut churn: Option<&mut Runner<'_>>,
) -> Result<SourceOutcome> {
    if opts.stop_after == Some(0) {
        return Err(Error::InvalidConfig(
            "stop_after must be at least 1: a run stops after a committed wavefront".into(),
        ));
    }
    let started = live.started;
    let mut schedule = build_schedule(&live.plan, &live.paces)?;
    let mut depths = live.plan.depths()?;
    let budgets = opts
        .slo
        .clone()
        .or_else(|| adapt.as_deref().map(|c| c.constraints().clone()))
        .or_else(|| churn.as_deref().map(|c| c.budgets().clone()));
    let mut fold = Fold::new(live.plan.len(), opts.obs, budgets);

    // One wavefront (= one arrival fraction) at a time. Fronts are
    // discovered incrementally because an adaptive pace switch or a churn
    // event rebuilds the unexecuted tail of the schedule. `recs` holds the
    // current front's executions only.
    let mut recs: Vec<TickRec> = Vec::new();
    let mut tallies: BTreeMap<TableId, (u64, u64)> = BTreeMap::new();
    let (mut pos, mut wf) = (0, 0);
    while pos < schedule.len() {
        let front = front_at(&schedule, pos);
        let Tick { num, den, .. } = schedule[front.start];

        // Cut every registered topic at the front's fraction. Tables are
        // independent topics, so sorted order is deterministic and does not
        // affect any downstream state.
        let poll_start = started.elapsed();
        let mut poll_rows = 0u64;
        let all_queries = live.plan.queries();
        for &t in &live.engine.base_tables {
            let buffer = live.engine.base_buffers.get_mut(&t).expect("registered table");
            let (mut delivered, mut deletes) = (0u64, 0u64);
            source.advance_to(t, num, den, |row, weight| {
                delivered += 1;
                deletes += u64::from(weight < 0);
                buffer.push(DeltaRow { row, weight, mask: all_queries })
            })?;
            if delivered > 0 {
                let tally = tallies.entry(t).or_insert((0, 0));
                tally.0 += delivered;
                tally.1 += deletes;
                poll_rows += delivered;
            }
        }
        fold.poll(wf, poll_start..started.elapsed(), poll_rows);

        let front_start = started.elapsed();
        recs.clear();
        live.engine.run_ticks(&schedule[front.clone()], false, &depths, started, &mut recs)?;
        live.engine.compact();

        // Churn events due here are applied on a quiesced engine: one
        // children-first sweep drains every buffer first, and its
        // executions count as non-final executions of this front.
        let due = churn.as_deref_mut().map_or_else(Vec::new, |c| c.take_due(num, den));
        if let (Some(runner), Some(ev)) = (churn.as_deref_mut(), due.first()) {
            if num == den {
                return Err(Error::Churn(format!(
                    "churn due at fraction {}/{} but the only remaining boundary is final; \
                     lower the event fraction or raise a pace",
                    ev.num, ev.den
                )));
            }
            let sweep: Vec<Tick> = live
                .plan
                .topo_order()?
                .into_iter()
                .enumerate()
                .map(|(topo_rank, sp)| Tick { num, den, topo_rank, sp, is_final: false })
                .collect();
            let swept = recs.len();
            live.engine.run_ticks(&sweep, true, &depths, started, &mut recs)?;
            runner.quiesce_ticks += recs.len() - swept;
        }
        fold.front(&live.plan, wf, (num, den), front_start..started.elapsed(), &recs);

        let front_paces = (!due.is_empty()).then(|| live.paces.clone());
        let mut records = Vec::new();
        if let Some(runner) = churn.as_deref_mut() {
            for ev in due {
                records.push(runner.apply(&mut live, &mut fold, source, ev)?);
            }
        }
        let mut reschedule = !records.is_empty();
        if reschedule {
            depths = live.plan.depths()?;
        }

        let front_paces = front_paces.as_deref().unwrap_or(&live.paces);
        let entry = source.commit_with_churn(wf, num, den, front_paces, records);
        if let Some(expect) = opts.verify.as_ref().and_then(|log| log.entries.get(wf)) {
            if expect != entry {
                let what = if expect.churn != entry.churn {
                    "the churn trajectory"
                } else if expect.paces != entry.paces {
                    "pace decisions"
                } else {
                    "the source"
                };
                return Err(Error::InvalidDelta(format!(
                    "replay diverged from commit log at wavefront {wf} (fraction {num}/{den}): \
                     {what} did not replay deterministically"
                )));
            }
        }
        if opts.stop_after == Some(wf + 1) {
            return Ok(SourceOutcome::Suspended { log: source.log().clone() });
        }

        if let Some(ctrl) = adapt.as_deref_mut() {
            // Deterministic measured quantities only: cumulative delivery
            // tallies as counted by the feed path.
            let obs = WavefrontObservation {
                wavefront: wf,
                num,
                den,
                charged_final: BTreeMap::new(),
                tables: (tallies.iter())
                    .map(|(&table, &(delivered, deletes))| ObservedTable {
                        table,
                        delivered,
                        deletes,
                    })
                    .collect(),
            };
            let adapt_start = started.elapsed();
            let switch = ctrl.observe(&obs)?;
            fold.adapt(wf, adapt_start..started.elapsed(), switch.is_some());
            if let Some(new_paces) = switch {
                live.paces = new_paces;
                reschedule = true;
            }
        }

        // A switch or a re-cut only governs the fractions strictly beyond
        // this boundary; every subplan's final tick sits at 1/1 in every
        // schedule, so the last front always runs all finals.
        if reschedule {
            schedule = reschedule_after(&live.plan, &[], num, den, &live.paces)?;
            pos = 0;
        } else {
            pos = front.end;
        }
        wf += 1;
    }
    if let Some(log) = opts.verify.as_ref().filter(|log| log.len() > wf) {
        return Err(Error::InvalidDelta(format!(
            "commit log holds {} wavefronts but the replay completed after {wf}: \
             the log is not this run's",
            log.len()
        )));
    }

    let mut obs = fold.report();
    if let Some(report) = obs.as_mut() {
        engine_gauges(report, &live.engine);
        ingest_gauges(report, &source.stats());
        if let Some(ctrl) = adapt.as_deref() {
            adapt_gauges(report, ctrl);
        }
    }
    let plan = &*live.plan;
    let mut final_work = BTreeMap::new();
    let mut latency = BTreeMap::new();
    let mut executions_per_query = BTreeMap::new();
    for q in plan.queries().iter() {
        final_work.insert(q, fold.final_work(plan, q));
        latency.insert(q, fold.final_wall(plan, q));
        executions_per_query.insert(q, fold.exec_counts(plan, q));
    }
    Ok(SourceOutcome::Completed {
        result: Box::new(RunResult {
            total_work: fold.total_work,
            total_wall: fold.total_wall,
            final_work,
            latency,
            results: std::mem::take(&mut live.engine.results),
            executions: fold.executions,
            executions_per_query,
            elapsed: started.elapsed(),
            obs,
        }),
        log: source.log().clone(),
    })
}

/// Wrap insert-only rows as weight-`+1` delta feeds.
pub fn insert_feeds(data: &HashMap<TableId, Vec<Row>>) -> HashMap<TableId, Vec<(Row, i64)>> {
    data.iter().map(|(t, rows)| (*t, rows.iter().map(|r| (r.clone(), 1i64)).collect())).collect()
}

/// Execute `plan` at `paces` over insert-only `data` (each base relation's
/// full trigger of rows in arrival order). See [`execute_planned_deltas`]
/// for streams containing deletes/updates.
pub fn execute_planned(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<Row>>,
    weights: CostWeights,
) -> Result<RunResult> {
    execute_planned_deltas(plan, paces, catalog, &insert_feeds(data), weights)
}

/// Execute `plan` at `paces` over weighted delta feeds, with deltas arriving
/// uniformly.
///
/// Each base relation's feed is a sequence of `(row, weight)` deltas in
/// arrival order: weight `+1` inserts, `-1` deletes, and an update is a
/// delete followed by an insert (the engine semantics of Sec. 2.3); any
/// other weight is rejected with [`Error::InvalidDelta`] when it arrives.
/// Subplans at pace `k` run at arrival fractions `1/k … k/k`; subplans
/// sharing a tick run children-first (Sec. 5.1: "the child subplans are
/// executed earlier than their parent subplans").
pub fn execute_planned_deltas(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
) -> Result<RunResult> {
    execute_planned_deltas_with(plan, paces, catalog, data, weights, SourceOptions::default())
}

/// [`execute_planned_deltas`] under `opts` — observability, datapath,
/// kill/resume. A thin adapter over an in-order [`Source`], so there
/// is exactly one feed path.
pub fn execute_planned_deltas_with(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
    opts: SourceOptions,
) -> Result<RunResult> {
    let mut source = Source::in_order(data);
    execute_from_source_obs(plan, paces, catalog, &mut source, weights, opts)?.into_result()
}

/// Execute `plan` at `paces` pulling input from an ingest [`Source`] instead
/// of pre-materialized `Vec` feeds.
///
/// The source may deliver out of order (bounded jitter + watermarks) and
/// exert backpressure; the run's results and every measured work number are
/// still bit-identical to [`execute_planned_deltas`] over the same feeds. At
/// every wavefront boundary the consumed offsets are committed to the
/// source's [`CommitLog`]; [`SourceOptions::stop_after`] kills the run at a
/// boundary and [`SourceOptions::verify`] replays a killed run against its
/// log (see [`SourceOutcome`]).
pub fn execute_from_source_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    opts: SourceOptions,
) -> Result<SourceOutcome> {
    let live = Live::new(Cow::Borrowed(plan), paces, catalog, weights, &opts)?;
    run_wavefronts(live, source, &opts, None, None)
}

/// [`execute_from_source_obs`] behind a thread count that is checked and
/// then ignored: `threads == 0` is rejected with [`Error::InvalidConfig`],
/// and any other count runs the same single-threaded loop, bit for bit. The
/// wavefront worker pool it once configured was deleted (DESIGN.md §12);
/// this shim survives only because the benchmark package pins it
/// (`benchmark/src/api.rs`), and the next `[benchmark]` PR removes it.
pub fn execute_from_source_parallel_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    threads: usize,
    opts: SourceOptions,
) -> Result<SourceOutcome> {
    if threads == 0 {
        return Err(Error::InvalidConfig("thread count must be at least 1".into()));
    }
    execute_from_source_obs(plan, paces, catalog, source, weights, opts)
}

/// [`execute_from_source_obs`] with online re-optimization: after every
/// committed wavefront the controller sees the cumulative delivery tallies
/// and charged final work (`WavefrontObservation`); when it installs new
/// paces the remaining schedule is rebuilt via
/// [`reschedule_after`] and the switch
/// takes effect at the next wavefront. The controller's decisions depend
/// only on deterministic measured quantities gathered on the coordinating
/// thread between wavefronts, so killed-and-resumed runs re-derive the
/// identical switch sequence (verified through the commit log's `paces`
/// field).
pub fn execute_adaptive_from_source_obs(
    plan: &SharedPlan,
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    opts: SourceOptions,
    ctrl: &mut AdaptController,
) -> Result<SourceOutcome> {
    let live = Live::new(Cow::Borrowed(plan), ctrl.current_paces(), catalog, weights, &opts)?;
    run_wavefronts(live, source, &opts, Some(ctrl), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{DataType, QuerySet, Value};
    use ishare_exec::batch_ref::run_logical;
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, DagOp, PlanBuilder, SelectBranch, SharedDag};
    use ishare_storage::{ColumnStats, Field, Schema, TableStats};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 200.0,
                columns: vec![ColumnStats::ndv(10.0), ColumnStats::ndv(100.0)],
            },
        )
        .unwrap();
        c
    }

    fn data(c: &Catalog, n: i64) -> HashMap<TableId, Vec<Row>> {
        let t = c.table_by_name("t").unwrap().id;
        let rows =
            (0..n).map(|i| Row::new(vec![Value::Int(i % 10), Value::Int(i * 7 % 100)])).collect();
        [(t, rows)].into_iter().collect()
    }

    /// Fig. 2-style shared plan over two queries with different predicates.
    fn shared_plan(c: &Catalog) -> SharedPlan {
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0, 1])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).lt(Expr::lit(50i64)),
                        },
                    ],
                },
                vec![scan],
                qs(&[0, 1]),
            )
            .unwrap();
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![sel],
                qs(&[0, 1]),
            )
            .unwrap();
        let p0 = d
            .add_node(
                DagOp::Project {
                    exprs: vec![(Expr::col(0), "k".into()), (Expr::col(1), "s".into())],
                },
                vec![agg],
                qs(&[0]),
            )
            .unwrap();
        let p1 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(1), "s".into())] },
                vec![agg],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), p0).unwrap();
        d.set_query_root(QueryId(1), p1).unwrap();
        SharedPlan::from_dag(&d).unwrap()
    }

    /// The reference results computed per query by the naive executor.
    fn reference(c: &Catalog, data: &HashMap<TableId, Vec<Row>>) -> Vec<HashMap<Row, i64>> {
        let q0 = PlanBuilder::scan(c, "t")
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .project_cols(&["k", "s"])
            .unwrap()
            .build();
        let q1 = PlanBuilder::scan(c, "t")
            .unwrap()
            .select(|x| Ok(x.col("v")?.lt(Expr::lit(50i64))))
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .project(|x| Ok(vec![(x.col("s")?, "s".into())]))
            .unwrap()
            .build();
        vec![run_logical(&q0, c, data).unwrap(), run_logical(&q1, c, data).unwrap()]
    }

    #[test]
    fn batch_run_matches_reference() {
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 200);
        let run = execute_planned(&plan, &[1, 1, 1], &c, &d, CostWeights::default()).unwrap();
        let expected = reference(&c, &d);
        assert_eq!(run.results[&QueryId(0)], expected[0]);
        assert_eq!(run.results[&QueryId(1)], expected[1]);
        assert_eq!(run.executions, 3);
        assert!(run.total_work.get() > 0.0);
        assert!(run.elapsed >= run.total_wall);
    }

    #[test]
    fn any_pace_configuration_same_results() {
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 200);
        let expected = reference(&c, &d);
        for paces in [[1u32, 1, 1], [5, 1, 1], [10, 10, 10], [7, 3, 2]] {
            let run = execute_planned(&plan, &paces, &c, &d, CostWeights::default()).unwrap();
            assert_eq!(run.results[&QueryId(0)], expected[0], "paces {paces:?}");
            assert_eq!(run.results[&QueryId(1)], expected[1], "paces {paces:?}");
        }
    }

    #[test]
    fn eager_costs_more_total_less_final() {
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 200);
        let lazy = execute_planned(&plan, &[1, 1, 1], &c, &d, CostWeights::default()).unwrap();
        let eager = execute_planned(&plan, &[20, 20, 20], &c, &d, CostWeights::default()).unwrap();
        assert!(eager.total_work.get() > lazy.total_work.get());
        for q in [QueryId(0), QueryId(1)] {
            assert!(
                eager.final_work[&q] < lazy.final_work[&q],
                "query {q}: eager {} vs lazy {}",
                eager.final_work[&q],
                lazy.final_work[&q]
            );
        }
        assert_eq!(eager.executions, 60);
    }

    #[test]
    fn pace_mismatch_rejected() {
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 10);
        assert!(execute_planned(&plan, &[1, 1], &c, &d, CostWeights::default()).is_err());
    }

    /// A zero pace schedules no execution of its subplan; it must not run
    /// the others and return a result missing that subplan's rows.
    #[test]
    fn zero_pace_rejected() {
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 10);
        let run = execute_planned(&plan, &[0, 1, 1], &c, &d, CostWeights::default());
        assert!(matches!(run, Err(Error::InvalidConfig(_))), "{run:?}");
    }

    #[test]
    fn missing_table_data_is_empty_results() {
        let c = catalog();
        let plan = shared_plan(&c);
        let run = execute_planned(&plan, &[2, 1, 1], &c, &HashMap::new(), CostWeights::default())
            .unwrap();
        assert!(run.results[&QueryId(0)].is_empty());
        assert!(run.results[&QueryId(1)].is_empty());
    }

    #[test]
    fn delta_feeds_with_updates_net_out() {
        // Insert (k=1, v=10), then update it to v=30 mid-stream: the final
        // aggregate must reflect only the updated value, at any pace.
        let c = catalog();
        let plan = shared_plan(&c);
        let t = c.table_by_name("t").unwrap().id;
        let feed: Vec<(Row, i64)> = vec![
            (Row::new(vec![Value::Int(1), Value::Int(10)]), 1),
            (Row::new(vec![Value::Int(2), Value::Int(5)]), 1),
            (Row::new(vec![Value::Int(1), Value::Int(10)]), -1), // update: delete…
            (Row::new(vec![Value::Int(1), Value::Int(30)]), 1),  // …plus insert
        ];
        let feeds: HashMap<TableId, Vec<(Row, i64)>> = [(t, feed)].into_iter().collect();
        for paces in [[1u32, 1, 1], [4, 2, 1]] {
            let run =
                execute_planned_deltas(&plan, &paces, &c, &feeds, CostWeights::default()).unwrap();
            // Q0 = sum(v) by k over all rows: k=1 → 30, k=2 → 5.
            let r0 = &run.results[&QueryId(0)];
            assert_eq!(r0[&Row::new(vec![Value::Int(1), Value::Int(30)])], 1, "paces {paces:?}");
            assert_eq!(r0[&Row::new(vec![Value::Int(2), Value::Int(5)])], 1);
            assert_eq!(r0.len(), 2);
        }
    }

    #[test]
    fn uneven_data_sizes_fully_consumed() {
        // 199 rows and pace 7: integer arrival arithmetic must still feed
        // every row by the final tick.
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 199);
        let expected = reference(&c, &d);
        let run = execute_planned(&plan, &[7, 7, 7], &c, &d, CostWeights::default()).unwrap();
        assert_eq!(run.results[&QueryId(0)], expected[0]);
    }
}

#[cfg(test)]
mod worker_tests {
    use super::*;
    use ishare_common::{DataType, QuerySet, Value};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag};
    use ishare_storage::{ColumnStats, Field, Schema, TableStats};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    /// Catalog with one table and a plan fanning out to `n` independent
    /// aggregate subplans (one per query) over a shared scan+select trunk.
    #[allow(clippy::type_complexity)]
    fn fan_out(n: u16) -> (Catalog, SharedPlan, HashMap<TableId, Vec<(Row, i64)>>) {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 120.0,
                columns: vec![ColumnStats::ndv(12.0), ColumnStats::ndv(100.0)],
            },
        )
        .unwrap();
        let t = c.table_by_name("t").unwrap().id;
        let all: Vec<u16> = (0..n).collect();
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&all)).unwrap();
        for q in 0..n {
            let sel = d
                .add_node(
                    DagOp::Select {
                        branches: vec![SelectBranch {
                            queries: qs(&[q]),
                            predicate: Expr::col(0).lt(Expr::lit(2 + q as i64)),
                        }],
                    },
                    vec![scan],
                    qs(&[q]),
                )
                .unwrap();
            let agg = d
                .add_node(
                    DagOp::Aggregate {
                        group_by: vec![(Expr::col(0), "k".into())],
                        aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                    },
                    vec![sel],
                    qs(&[q]),
                )
                .unwrap();
            d.set_query_root(QueryId(q), agg).unwrap();
        }
        let plan = SharedPlan::from_dag(&d).unwrap();
        let feed: Vec<(Row, i64)> = (0..120)
            .map(|i| (Row::new(vec![Value::Int(i % 12), Value::Int(i * 13 % 100)]), 1))
            .collect();
        let data = [(t, feed)].into_iter().collect();
        (c, plan, data)
    }

    fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
        assert_eq!(a.results, b.results, "{label}: results differ");
        assert_eq!(
            a.total_work.get().to_bits(),
            b.total_work.get().to_bits(),
            "{label}: total_work differs"
        );
        assert_eq!(a.final_work, b.final_work, "{label}: final_work differs");
        for (q, w) in &a.final_work {
            assert_eq!(
                w.to_bits(),
                b.final_work[q].to_bits(),
                "{label}: final_work bits differ for {q}"
            );
        }
        assert_eq!(a.executions, b.executions, "{label}: executions differ");
    }

    /// The pinned thread-count shim rejects `0` and runs every other count
    /// as the inline loop, bit for bit.
    #[test]
    fn zero_threads_rejected() {
        let (c, plan, data) = fan_out(2);
        let paces = vec![1u32; plan.len()];
        let run = |threads| {
            let mut source = Source::in_order(&data);
            let (w, opts) = (CostWeights::default(), SourceOptions::default());
            execute_from_source_parallel_obs(&plan, &paces, &c, &mut source, w, threads, opts)
        };
        assert!(matches!(run(0), Err(Error::InvalidConfig(_))));
        let inline = execute_planned_deltas(&plan, &paces, &c, &data, CostWeights::default());
        let inline = inline.unwrap();
        for threads in [1, 2, 4, 8] {
            let got = run(threads).unwrap().into_result().unwrap();
            assert_bit_identical(&got, &inline, &format!("threads={threads}"));
        }
    }

    fn controller(
        c: &Catalog,
        plan: &SharedPlan,
        paces: &[u32],
        constraints: ishare_core::ConstraintMap,
        opts: ishare_core::AdaptOptions,
    ) -> AdaptController {
        AdaptController::new(plan, c, CostWeights::default(), paces, constraints, opts).unwrap()
    }

    #[test]
    fn adaptive_disabled_is_bit_identical_to_static() {
        let (c, plan, data) = fan_out(4);
        let paces: Vec<u32> = (0..plan.len()).map(|i| 1 + i as u32 % 3).collect();
        let w = CostWeights::default();
        let static_run = execute_planned_deltas(&plan, &paces, &c, &data, w).unwrap();
        let opts = ishare_core::AdaptOptions::disabled();
        for obs in [None, Some(ObsConfig::default())] {
            let mut ctrl = controller(&c, &plan, &paces, ishare_core::ConstraintMap::new(), opts);
            let mut source = Source::in_order(&data);
            let label = format!("adaptive off, obs {}", obs.is_some());
            let opts = SourceOptions { obs, ..Default::default() };
            let run = execute_adaptive_from_source_obs(&plan, &c, &mut source, w, opts, &mut ctrl)
                .unwrap()
                .into_result()
                .unwrap();
            assert_bit_identical(&static_run, &run, &label);
            assert_eq!(ctrl.metrics().switches, 0, "disabled controller must never switch");
            assert!(ctrl.metrics().evaluations > 0, "controller must still observe fronts");
        }
    }

    /// A drifted stream (3× the cataloged rows, with deletes) plus an
    /// unreachable constraint force a pace switch; the switch must replay
    /// bit-identically with obs on and across kill/resume.
    #[test]
    fn adaptive_switch_replays_and_parallelizes_bit_identically() {
        let (c, plan, mut data) = fan_out(3);
        let feed = data.values_mut().next().unwrap();
        let extra: Vec<(Row, i64)> = (120..330)
            .map(|i| (Row::new(vec![Value::Int(i % 12), Value::Int(i * 13 % 100)]), 1))
            .collect();
        let dels: Vec<(Row, i64)> = feed.iter().step_by(4).map(|(r, _)| (r.clone(), -1)).collect();
        feed.extend(extra);
        feed.extend(dels);
        let w = CostWeights::default();
        let initial = vec![2u32; plan.len()];
        let cons: ishare_core::ConstraintMap = [(QueryId(0), 1.0)].into_iter().collect();
        let opts = ishare_core::AdaptOptions { max_pace: 6, ..Default::default() };

        let run = |src_opts: SourceOptions| {
            let mut ctrl = controller(&c, &plan, &initial, cons.clone(), opts);
            let mut source = Source::in_order(&data);
            let out =
                execute_adaptive_from_source_obs(&plan, &c, &mut source, w, src_opts, &mut ctrl)
                    .unwrap();
            (out, ctrl)
        };

        let (out_seq, ctrl_seq) = run(SourceOptions::default());
        assert!(
            !ctrl_seq.switches().is_empty(),
            "3x drift against an unreachable constraint must switch paces"
        );
        let (result_seq, log_seq) = match out_seq {
            SourceOutcome::Completed { result, log } => (*result, log),
            SourceOutcome::Suspended { .. } => panic!("run must complete"),
        };
        // The commit log records the pace trajectory: initial paces on the
        // first front, switched paces on the last.
        assert_eq!(log_seq.entries.first().unwrap().paces, initial);
        assert_eq!(
            log_seq.entries.last().unwrap().paces,
            ctrl_seq.current_paces(),
            "last front must run under the switched configuration"
        );

        let (out, ctrl) =
            run(SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() });
        assert_bit_identical(&result_seq, &out.into_result().unwrap(), "adaptive obs on");
        assert_eq!(ctrl.switches(), ctrl_seq.switches(), "switch log, obs on");

        // Kill after the first committed wavefront, then resume from scratch
        // with the partial log: the fresh controller must re-derive the same
        // switches and the run must verify against — and extend — the log.
        let (killed, _) = run(SourceOptions { stop_after: Some(1), ..Default::default() });
        let partial = match killed {
            SourceOutcome::Suspended { log } => log,
            SourceOutcome::Completed { .. } => panic!("stop_after must suspend"),
        };
        assert_eq!(partial.len(), 1);
        let (resumed, ctrl_res) =
            run(SourceOptions { verify: Some(partial), ..Default::default() });
        let (result_res, log_res) = match resumed {
            SourceOutcome::Completed { result, log } => (*result, log),
            SourceOutcome::Suspended { .. } => panic!("resume must complete"),
        };
        assert_bit_identical(&result_seq, &result_res, "killed+resumed");
        assert_eq!(log_res, log_seq, "resumed commit log (incl. paces) must match");
        assert_eq!(ctrl_res.switches(), ctrl_seq.switches(), "resumed switch log must match");
    }
}
