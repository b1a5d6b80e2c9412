//! The one accounting fold: per-tick records → run totals, per-query views,
//! the slack ledger, and the observability report.
//!
//! The loop folds each wavefront at its boundary, in schedule order.
//! Per-subplan accumulators describe the plan in effect; a churn re-cut
//! renumbers subplans, so [`Fold::recut`] carries what the outgoing plan
//! charged each surviving query over to per-query totals, and what it
//! charged in all over to the report's replaced-plan totals. A fixed-plan
//! run never re-cuts: it is the one-epoch case, and every sum it reports is
//! a plain Σ over `subplans_of_query` of per-subplan numbers.
//!
//! With observability on, the fold also owns the run's trace and metrics,
//! and each span is recorded at the boundary that measured it: the loop
//! hands over its ingest poll ([`Fold::poll`]) and adapt evaluation
//! ([`Fold::adapt`]) as soon as it times them, and [`Fold::front`] records
//! the front's wavefront, tick and operator spans, tick histograms and,
//! per budgeted query, its front-work histogram and charged-work counter.
//! Nothing is kept per execution beyond the front, and nothing per front
//! beyond the trace and the histograms.

use crate::engine::{EngineState, TickRec};
use crate::schedule::Tick;
use ishare_common::{OpKind, QueryId, WorkBreakdown, WorkUnits};
use ishare_core::adapt::AdaptController;
use ishare_ingest::TopicStats;
use ishare_obs::{
    ExecCounts, MetricsRegistry, ObsConfig, ObsReport, SlackLedger, SlackPoint, Span, SpanKind,
    TraceBuffer,
};
use ishare_plan::SharedPlan;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Duration;

/// What one subplan of the plan in effect has been charged so far.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// The final execution's work (what the slack ledger and
    /// `RunResult::final_work` read) and wall.
    final_work: f64,
    final_wall: Duration,
    total: f64,
    exec: ExecCounts,
    breakdown: WorkBreakdown,
}

/// Running totals of one run.
pub(crate) struct Fold {
    /// One running sum in global schedule order, carried across churn
    /// epochs (never a sum of per-epoch partial sums).
    pub(crate) total_work: WorkUnits,
    pub(crate) total_wall: Duration,
    pub(crate) executions: usize,
    exec: ExecCounts,
    sp: Vec<Tally>,
    /// Per live query: executions and total work charged under plans a
    /// churn re-cut has since replaced. Empty in a fixed-plan run.
    carried: BTreeMap<QueryId, (ExecCounts, f64)>,
    /// Everything charged under replaced plans, by kind, and their
    /// executions. Zero in a fixed-plan run.
    carried_breakdown: WorkBreakdown,
    carried_exec: ExecCounts,
    /// Per-query slack ledger: charged work updated at every folded front,
    /// final work settled at the trigger.
    pub(crate) ledger: Option<SlackLedger>,
    /// The run's trace and metrics; present iff observability is on.
    obs: Option<Recorder>,
}

/// What an observed run records as it goes.
#[derive(Default)]
struct Recorder {
    trace: TraceBuffer,
    metrics: MetricsRegistry,
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

impl Recorder {
    fn span(&mut self, kind: SpanKind, sp: u32, at: Range<Duration>, work: f64) {
        let (start_us, dur_us) = (micros(at.start), micros(at.end - at.start));
        self.trace.push(Span { kind, sp, start_us, dur_us, work });
    }

    /// One execution: its tick span, its operator spans — one per kind of
    /// nonzero work, the tick's wall interval subdivided in proportion to
    /// the per-kind work breakdown, so a sub-µs share is a zero-length
    /// span — and its histograms.
    fn tick(&mut self, rec: &TickRec) {
        let Tick { sp, num, den, is_final, .. } = rec.tick;
        let (work, wall) = (rec.work.get(), rec.wall);
        let kind = SpanKind::Tick { num, den, depth: rec.depth, is_final };
        self.span(kind, sp.0, rec.start..rec.start + wall, work);
        self.metrics.histogram_record("tick.work", work);
        self.metrics.histogram_record("tick.wall_us", wall.as_micros() as f64);
        let (start_us, dur_total) = (micros(rec.start), micros(wall) as f64);
        let mut cum = 0.0;
        for kind in OpKind::ALL {
            let w = rec.breakdown.get(kind);
            if w == 0.0 {
                continue;
            }
            let s = (dur_total * (cum / work)) as u64;
            cum += w;
            let e = (dur_total * (cum / work)) as u64;
            self.trace.push(Span {
                kind: SpanKind::Operator(kind),
                sp: sp.0,
                start_us: start_us + s,
                dur_us: e - s,
                work: w,
            });
        }
    }
}

/// Σ over `plan.subplans_of_query(q)` of a per-subplan number — the one
/// per-query summation order the ledger and the result views share, so
/// they agree to the bit.
fn of_query(plan: &SharedPlan, q: QueryId, per_sp: impl Fn(usize) -> f64) -> f64 {
    plan.subplans_of_query(q).iter().map(|id| per_sp(id.index())).sum()
}

impl Fold {
    /// A run over a plan of `subplans` subplans. With `obs` on, the fold
    /// records a trace and metrics, and a slack ledger over `budgets` if
    /// any are declared.
    pub(crate) fn new(
        subplans: usize,
        obs: Option<ObsConfig>,
        budgets: Option<BTreeMap<QueryId, f64>>,
    ) -> Fold {
        let obs = obs.map(|_| Recorder::default());
        let ledger =
            budgets.filter(|b| obs.is_some() && !b.is_empty()).map(|b| SlackLedger::new(&b));
        Fold {
            total_work: WorkUnits::ZERO,
            total_wall: Duration::ZERO,
            executions: 0,
            exec: ExecCounts::default(),
            sp: vec![Tally::default(); subplans],
            carried: BTreeMap::new(),
            carried_breakdown: WorkBreakdown::default(),
            carried_exec: ExecCounts::default(),
            ledger,
            obs,
        }
    }

    /// Query `q`'s final work: Σ work of its subplans' final executions.
    pub(crate) fn final_work(&self, plan: &SharedPlan, q: QueryId) -> f64 {
        of_query(plan, q, |i| self.sp[i].final_work)
    }

    /// Query `q`'s latency: Σ wall of its subplans' final executions.
    pub(crate) fn final_wall(&self, plan: &SharedPlan, q: QueryId) -> Duration {
        plan.subplans_of_query(q).iter().map(|id| self.sp[id.index()].final_wall).sum()
    }

    /// All work charged to `q`'s subplans over the whole run.
    fn charged_total(&self, plan: &SharedPlan, q: QueryId) -> f64 {
        let total = of_query(plan, q, |i| self.sp[i].total);
        self.carried.get(&q).map_or(total, |(_, c)| c + total)
    }

    /// How many times `q`'s subplans executed over the whole run.
    pub(crate) fn exec_counts(&self, plan: &SharedPlan, q: QueryId) -> ExecCounts {
        let mut counts = self.carried.get(&q).map_or_else(ExecCounts::default, |(c, _)| *c);
        for id in plan.subplans_of_query(q) {
            counts.incremental += self.sp[id.index()].exec.incremental;
            counts.finals += self.sp[id.index()].exec.finals;
        }
        counts
    }

    /// The loop cut the ingest topics for wavefront `wf` over `at`,
    /// delivering `rows` delta records.
    pub(crate) fn poll(&mut self, wf: usize, at: Range<Duration>, rows: u64) {
        if let Some(r) = self.obs.as_mut() {
            r.span(SpanKind::IngestPoll, wf as u32, at, rows as f64);
            r.metrics.histogram_record("ingest.poll.rows", rows as f64);
        }
    }

    /// The adapt controller evaluated wavefront `wf` over `at`.
    pub(crate) fn adapt(&mut self, wf: usize, at: Range<Duration>, switched: bool) {
        if let Some(r) = self.obs.as_mut() {
            r.span(SpanKind::AdaptSearch, wf as u32, at, if switched { 1.0 } else { 0.0 });
        }
    }

    /// Fold wavefront `wf` — every execution at fraction `num/den`, run
    /// over `at` — from its records, in schedule order.
    pub(crate) fn front(
        &mut self,
        plan: &SharedPlan,
        wf: usize,
        (num, den): (u32, u32),
        at: Range<Duration>,
        recs: &[TickRec],
    ) {
        if let Some(r) = self.obs.as_mut() {
            let is_final = recs.iter().any(|rec| rec.tick.is_final);
            let work: f64 = recs.iter().map(|rec| rec.work.get()).sum();
            r.span(SpanKind::Wavefront { num, den, is_final }, wf as u32, at.clone(), work);
        }
        let mut sp_front: Vec<f64> =
            if self.ledger.is_some() { vec![0.0; plan.len()] } else { Vec::new() };
        for rec in recs {
            let i = rec.tick.sp.index();
            let w = rec.work.get();
            self.total_work += rec.work;
            self.total_wall += rec.wall;
            self.executions += 1;
            let sp = &mut self.sp[i];
            sp.total += w;
            sp.breakdown += rec.breakdown;
            if let Some(f) = sp_front.get_mut(i) {
                *f += w;
            }
            if rec.tick.is_final {
                // Final work is charged only at the trigger: every decision
                // made at an earlier boundary budgets the whole L(q).
                debug_assert!(num == den, "final tick folded at {num}/{den}");
                sp.final_work = w;
                sp.final_wall = rec.wall;
                sp.exec.finals += 1;
                self.exec.finals += 1;
            } else {
                sp.exec.incremental += 1;
                self.exec.incremental += 1;
            }
            if let Some(r) = self.obs.as_mut() {
                r.tick(rec);
            }
        }
        let Some(mut ledger) = self.ledger.take() else { return };
        let mut r = self.obs.take().expect("a slack ledger is kept only with obs on");
        let (live, wavefront, ts_us) = (plan.queries(), wf as u32, micros(at.end));
        ledger.record_front(|q, slot| {
            // A budget for a query the plan does not run is charged nothing.
            if !live.contains(q) {
                return;
            }
            let front_work = of_query(plan, q, |i| sp_front[i]);
            r.metrics.histogram_record(&format!("slo.q{}.front_work", q.index()), front_work);
            slot.charged_total = self.charged_total(plan, q);
            if num == den {
                slot.consumed = self.final_work(plan, q);
            }
            r.trace.push_slack(SlackPoint {
                query: q.0,
                wavefront,
                ts_us,
                charged: slot.charged_total,
            });
        });
        self.obs = Some(r);
        self.ledger = Some(ledger);
    }

    /// A churn event replaces `old` with `new`: move what `old`'s subplans
    /// charged each query that stays live into the per-query carry, and
    /// everything they charged into the run-wide carry; then start `new`'s
    /// per-subplan tallies at zero.
    pub(crate) fn recut(&mut self, old: &SharedPlan, new: &SharedPlan) {
        let live = new.queries();
        self.carried = old
            .queries()
            .iter()
            .filter(|q| live.contains(*q))
            .map(|q| (q, (self.exec_counts(old, q), self.charged_total(old, q))))
            .collect();
        for sp in &self.sp {
            self.carried_breakdown.add(&sp.breakdown);
            self.carried_exec.incremental += sp.exec.incremental;
            self.carried_exec.finals += sp.exec.finals;
        }
        self.sp = vec![Tally::default(); new.len()];
    }

    /// The observability report — the recorded trace and metrics, the
    /// per-subplan breakdown of the plan in effect at the end, and what
    /// plans a churn re-cut replaced were charged — or `None` with
    /// observability off.
    pub(crate) fn report(&mut self) -> Option<ObsReport> {
        let Recorder { trace, mut metrics } = self.obs.take()?;
        if let Some(ledger) = &self.ledger {
            ledger.record_metrics(&mut metrics);
        }
        let mut report = ObsReport {
            total_work: self.total_work.get(),
            work_by_subplan: self.sp.iter().map(|sp| sp.breakdown).collect(),
            executions_by_subplan: self.sp.iter().map(|sp| sp.exec).collect(),
            replaced_work: self.carried_breakdown,
            replaced_executions: self.carried_exec,
            metrics,
            trace,
            slack: self.ledger.clone(),
        };
        let global = report.breakdown();
        let metrics = &mut report.metrics;
        metrics.counter_add("work.total", self.total_work.get());
        for kind in OpKind::ALL {
            let w = global.get(kind);
            if w != 0.0 {
                metrics.counter_add(&format!("work.{kind}"), w);
            }
        }
        metrics.counter_add("executions.incremental", self.exec.incremental as f64);
        metrics.counter_add("executions.final", self.exec.finals as f64);
        Some(report)
    }
}

/// Record end-of-run engine gauges into an [`ObsReport`]'s registry: buffer
/// high-water marks, retained/compacted rows and consumer lags.
pub(crate) fn engine_gauges(report: &mut ObsReport, engine: &EngineState) {
    for t in &engine.base_tables {
        let b = &engine.base_buffers[t];
        report
            .metrics
            .gauge_set(&format!("buffer.base.t{}.high_water", t.0), b.high_water() as f64);
        report.metrics.gauge_set(&format!("buffer.base.t{}.len", t.0), b.len() as f64);
    }
    for (i, b) in engine.sp_buffers.iter().enumerate() {
        report.metrics.gauge_set(&format!("buffer.sp{i}.high_water"), b.high_water() as f64);
        report.metrics.gauge_set(&format!("buffer.sp{i}.len"), b.len() as f64);
        report.metrics.gauge_set(&format!("buffer.sp{i}.compacted"), b.compacted() as f64);
        for (c, lag) in b.lags().into_iter().enumerate() {
            report.metrics.gauge_set(&format!("buffer.sp{i}.lag.c{c}"), lag as f64);
        }
    }
}

/// Record end-of-run ingest gauges (per-partition ring high-water marks,
/// producer stall ticks, consumer lag, delivered cuts) into an
/// [`ObsReport`]'s registry.
pub(crate) fn ingest_gauges(report: &mut ObsReport, stats: &[TopicStats]) {
    for s in stats {
        let t = s.table.0;
        report.metrics.gauge_set(&format!("ingest.t{t}.delivered"), s.delivered as f64);
        report.metrics.gauge_set(&format!("ingest.t{t}.stall_ticks"), s.stall_ticks as f64);
        report.metrics.gauge_set(&format!("ingest.t{t}.polls"), s.polls as f64);
        report
            .metrics
            .gauge_set(&format!("ingest.t{t}.reorder_high_water"), s.reorder_high_water as f64);
        let lag: u64 = s.partitions.iter().map(|p| p.lag).sum();
        report.metrics.gauge_set(&format!("ingest.t{t}.lag"), lag as f64);
        for (i, p) in s.partitions.iter().enumerate() {
            report.metrics.gauge_set(&format!("ingest.t{t}.p{i}.high_water"), p.high_water as f64);
        }
    }
}

/// Record end-of-run adaptation counters into an [`ObsReport`]'s registry.
pub(crate) fn adapt_gauges(report: &mut ObsReport, ctrl: &AdaptController) {
    let m = ctrl.metrics();
    report.metrics.counter_add("adapt.evaluations", m.evaluations as f64);
    report.metrics.counter_add("adapt.triggers", m.triggers as f64);
    report.metrics.counter_add("adapt.pace_switches", m.switches as f64);
    report.metrics.gauge_set("adapt.max_drift", m.max_drift);
    report.metrics.gauge_set("adapt.reopt_time_us", m.reopt_time.as_micros() as f64);
}
