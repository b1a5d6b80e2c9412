//! The one accounting fold: per-tick records → run totals, per-query views,
//! the slack ledger, and the observability report.
//!
//! The loop folds each wavefront at its boundary, on the coordinating
//! thread, in schedule order — so every derived number is identical at any
//! worker count. Per-subplan accumulators describe the plan in effect; a
//! churn re-cut renumbers subplans, so [`Fold::recut`] carries what the
//! outgoing plan charged each surviving query over to per-query totals. A
//! fixed-plan run never re-cuts: it is the one-epoch case, and every sum it
//! reports is a plain Σ over `subplans_of_query` of per-subplan numbers.

use crate::engine::{EngineState, TickRec};
use ishare_common::{OpKind, QueryId, WorkBreakdown, WorkUnits};
use ishare_core::adapt::AdaptController;
use ishare_ingest::TopicStats;
use ishare_obs::{
    AuxKind, AuxSpan, ExecCounts, FrontCharge, MetricsRegistry, ObsConfig, ObsReport, SlackLedger,
    SlackPoint, Span, SpanKind, TraceBuffer,
};
use ishare_plan::SharedPlan;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Duration;

/// Timing of one wavefront (all executions at one arrival fraction,
/// including a churn boundary's quiesce sweep).
#[derive(Debug, Clone)]
pub(crate) struct FrontRec {
    /// The front's records, as a range into the run's [`TickRec`]s.
    pub(crate) range: Range<usize>,
    pub(crate) num: u32,
    pub(crate) den: u32,
    pub(crate) start: Duration,
    pub(crate) dur: Duration,
}

/// Timing of one per-wavefront ingest cut; becomes an `ingest`-track aux
/// span. `rows` is the deterministic delta count; the durations are
/// observability-only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollRec {
    pub(crate) start: Duration,
    pub(crate) dur: Duration,
    pub(crate) rows: u64,
}

/// Timing of one adapt-controller evaluation at a wavefront boundary;
/// becomes an `adapt`-track aux span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdaptRec {
    pub(crate) front: u32,
    pub(crate) start: Duration,
    pub(crate) dur: Duration,
    pub(crate) switched: bool,
}

/// What one subplan of the plan in effect has been charged so far.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// The final execution's work (what the adapt controller, the slack
    /// ledger and `RunResult::final_work` all read) and wall.
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
    carried_breakdown: WorkBreakdown,
    /// Per-query slack ledger, sampled at every folded front. (A churn
    /// run's ledger is not `verify()`-able: mid-run admissions start
    /// sampling at their admission front, which the whole-run invariants
    /// do not model.)
    pub(crate) ledger: Option<SlackLedger>,
    slack: Vec<SlackPoint>,
}

/// Σ over `plan.subplans_of_query(q)` of a per-subplan number — the one
/// per-query summation order the ledger, the adapt observation and the
/// result views share, so they agree to the bit.
fn of_query(plan: &SharedPlan, q: QueryId, per_sp: impl Fn(usize) -> f64) -> f64 {
    plan.subplans_of_query(q).iter().map(|id| per_sp(id.index())).sum()
}

impl Fold {
    pub(crate) fn new(subplans: usize, ledger: Option<SlackLedger>) -> Fold {
        Fold {
            total_work: WorkUnits::ZERO,
            total_wall: Duration::ZERO,
            executions: 0,
            exec: ExecCounts::default(),
            sp: vec![Tally::default(); subplans],
            carried: BTreeMap::new(),
            carried_breakdown: WorkBreakdown::default(),
            ledger,
            slack: Vec::new(),
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

    /// Fold wavefront `wf`'s records, in schedule order.
    pub(crate) fn front(
        &mut self,
        plan: &SharedPlan,
        wf: usize,
        front: &FrontRec,
        recs: &[TickRec],
    ) {
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
                sp.final_work = w;
                sp.final_wall = rec.wall;
                sp.exec.finals += 1;
                self.exec.finals += 1;
            } else {
                sp.exec.incremental += 1;
                self.exec.incremental += 1;
            }
        }
        let Some(mut ledger) = self.ledger.take() else { return };
        let charges: BTreeMap<QueryId, FrontCharge> = plan
            .queries()
            .iter()
            .map(|q| {
                let charge = FrontCharge {
                    front_work: of_query(plan, q, |i| sp_front[i]),
                    charged_total: self.charged_total(plan, q),
                    consumed: self.final_work(plan, q),
                };
                (q, charge)
            })
            .collect();
        ledger.record_front(wf as u32, front.num, front.den, &charges);
        let ts_us = (front.start + front.dur).as_micros() as u64;
        for (q, qs) in ledger.queries() {
            if let Some(s) = qs.samples.last() {
                self.slack.push(SlackPoint {
                    query: q.0,
                    wavefront: wf as u32,
                    ts_us,
                    remaining: s.remaining,
                    consumed: s.consumed,
                });
            }
        }
        self.ledger = Some(ledger);
    }

    /// A churn event replaces `old` with `new`: move what `old`'s subplans
    /// charged each query that stays live into the per-query carry, and
    /// start `new`'s per-subplan tallies at zero.
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
        }
        self.sp = vec![Tally::default(); new.len()];
    }

    /// The observability report: span trace (ticks, then wavefronts; aux
    /// operator / ingest / adapt tracks; slack counter tracks), metrics,
    /// and the per-subplan breakdown of the plan in effect at the end (in
    /// a churn run: counted since the last re-cut).
    pub(crate) fn report(
        &self,
        cfg: ObsConfig,
        recs: &[TickRec],
        fronts: &[FrontRec],
        polls: &[PollRec],
        adapt_recs: &[AdaptRec],
    ) -> ObsReport {
        let mut trace = TraceBuffer::new(cfg.trace_capacity);
        let mut metrics = MetricsRegistry::new();
        for rec in recs {
            trace.push(Span {
                kind: SpanKind::Tick,
                sp: rec.tick.sp.0,
                num: rec.tick.num,
                den: rec.tick.den,
                depth: rec.depth,
                worker: rec.worker,
                start_us: rec.start.as_micros() as u64,
                dur_us: rec.wall.as_micros() as u64,
                work: rec.work.get(),
                is_final: rec.tick.is_final,
            });
            metrics.histogram_record("tick.work", rec.work.get());
            metrics.histogram_record("tick.wall_us", rec.wall.as_micros() as f64);
            // Operator spans: subdivide the tick's wall interval
            // proportionally to its per-kind work breakdown, on the
            // worker's dedicated ops track.
            let dur_total = rec.wall.as_micros() as u64;
            let work_total = rec.work.get();
            if work_total > 0.0 && dur_total > 0 {
                let mut cum = 0.0;
                for kind in OpKind::ALL {
                    let w = rec.breakdown.get(kind);
                    if w == 0.0 {
                        continue;
                    }
                    let s = (dur_total as f64 * (cum / work_total)) as u64;
                    cum += w;
                    let e = (dur_total as f64 * (cum / work_total)) as u64;
                    if e > s {
                        trace.push_aux(AuxSpan {
                            kind: AuxKind::Operator(kind),
                            sp: rec.tick.sp.0,
                            worker: rec.worker,
                            start_us: rec.start.as_micros() as u64 + s,
                            dur_us: e - s,
                            work: w,
                        });
                    }
                }
            }
        }
        for (fi, front) in fronts.iter().enumerate() {
            let recs = &recs[front.range.clone()];
            trace.push(Span {
                kind: SpanKind::Wavefront,
                sp: fi as u32,
                num: front.num,
                den: front.den,
                depth: 0,
                worker: 0,
                start_us: front.start.as_micros() as u64,
                dur_us: front.dur.as_micros() as u64,
                work: recs.iter().map(|r| r.work.get()).sum(),
                is_final: recs.iter().any(|r| r.tick.is_final),
            });
        }
        for (i, p) in polls.iter().enumerate() {
            trace.push_aux(AuxSpan {
                kind: AuxKind::IngestPoll,
                sp: i as u32,
                worker: 0,
                start_us: p.start.as_micros() as u64,
                dur_us: p.dur.as_micros() as u64,
                work: p.rows as f64,
            });
            metrics.histogram_record("ingest.poll.rows", p.rows as f64);
        }
        for a in adapt_recs {
            trace.push_aux(AuxSpan {
                kind: AuxKind::AdaptSearch,
                sp: a.front,
                worker: 0,
                start_us: a.start.as_micros() as u64,
                dur_us: a.dur.as_micros() as u64,
                work: if a.switched { 1.0 } else { 0.0 },
            });
        }
        for point in &self.slack {
            trace.push_slack(*point);
        }
        if let Some(ledger) = &self.ledger {
            ledger.record_metrics(&mut metrics);
        }
        let mut global = self.carried_breakdown;
        for sp in &self.sp {
            global.add(&sp.breakdown);
        }
        metrics.counter_add("work.total", self.total_work.get());
        for kind in OpKind::ALL {
            let w = global.get(kind);
            if w != 0.0 {
                metrics.counter_add(&format!("work.{kind}"), w);
            }
        }
        metrics.counter_add("executions.incremental", self.exec.incremental as f64);
        metrics.counter_add("executions.final", self.exec.finals as f64);
        ObsReport {
            total_work: self.total_work.get(),
            work_by_subplan: self.sp.iter().map(|sp| sp.breakdown).collect(),
            executions_by_subplan: self.sp.iter().map(|sp| sp.exec).collect(),
            metrics,
            trace,
            slack: self.ledger.clone(),
        }
    }
}

/// Record end-of-run engine gauges into an [`ObsReport`]'s registry: buffer
/// high-water marks, retained/compacted rows and consumer lags; per
/// partitioned subplan, routed rows, charged work and a max/mean skew
/// ratio; per vectorized subplan, mean input batch length and select
/// survival fraction.
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
    for (i, ex) in engine.executors.iter().enumerate() {
        let stats: Vec<(u64, f64)> =
            ex.partition_stats().iter().map(|s| (s.rows, s.work)).collect();
        ishare_obs::record_partition_gauges(&mut report.metrics, i, &stats);
        let s = ex.batch_stats();
        ishare_obs::record_batch_gauges(
            &mut report.metrics,
            i,
            s.batches,
            s.mean_fill(),
            s.selectivity(),
        );
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
