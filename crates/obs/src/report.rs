//! Per-run observability report: the per-operator × per-subplan work
//! breakdown, the metrics registry, and the span trace, bundled so a caller
//! (bench harness, example, test) gets everything from one handle.

use crate::metrics::MetricsRegistry;
use crate::prom::prometheus_text;
use crate::slack::SlackLedger;
use crate::trace::TraceBuffer;
use ishare_common::{OpKind, WorkBreakdown};
use serde_json::{json, Value};

/// Opt-in observability, passed to the drivers as `Some(ObsConfig::default())`:
/// everything on, with a trace of at most [`TraceBuffer::DEFAULT_CAPACITY`]
/// spans (further spans are counted but dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {}

/// Execution counts for one subplan over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    /// Incremental (fraction < 1) executions.
    pub incremental: u64,
    /// Final (fraction = 1) executions.
    pub finals: u64,
}

impl ExecCounts {
    /// Incremental + final.
    pub fn total(&self) -> u64 {
        self.incremental + self.finals
    }
}

/// Everything observed during one driver run.
///
/// `work_by_subplan[i]` is the per-operator breakdown of subplan `i`'s work
/// under the plan in effect at the end of the run; `replaced_work` holds
/// what plans a churn re-cut replaced were charged. Summing every cell of
/// both reproduces the run's `total_work` up to float
/// re-association (the driver accumulates the flat total in charge order,
/// the breakdown regroups the same terms by kind — identical values, added
/// in a different order, so equality holds to ~1e-12 relative, asserted at
/// 1e-6 throughout the test suite).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// The run's total work, copied from the flat counter.
    pub total_work: f64,
    /// Per-subplan, per-operator-kind work.
    pub work_by_subplan: Vec<WorkBreakdown>,
    /// Per-subplan execution counts.
    pub executions_by_subplan: Vec<ExecCounts>,
    /// Per-operator-kind work charged under plans a churn re-cut replaced
    /// (zero in a fixed-plan run).
    pub replaced_work: WorkBreakdown,
    /// Executions of subplans of replaced plans (zero in a fixed-plan run).
    pub replaced_executions: ExecCounts,
    /// Named counters/gauges/histograms recorded during the run.
    pub metrics: MetricsRegistry,
    /// Every span of the run, and the slack counter samples.
    pub trace: TraceBuffer,
    /// Per-query slack ledger; `None` when the run declared no `L(q)`
    /// budgets (e.g. best-effort plans with no constraints).
    pub slack: Option<SlackLedger>,
}

impl ObsReport {
    /// Global per-operator breakdown: replaced plans, then the sum over
    /// subplans.
    pub fn breakdown(&self) -> WorkBreakdown {
        let mut total = WorkBreakdown::default();
        for b in std::iter::once(&self.replaced_work).chain(&self.work_by_subplan) {
            total.add(b);
        }
        total
    }

    /// Sum of every breakdown cell, replaced plans included; equals
    /// [`total_work`](Self::total_work) up to float re-association.
    pub fn breakdown_total(&self) -> f64 {
        self.replaced_work.sum() + self.work_by_subplan.iter().map(WorkBreakdown::sum).sum::<f64>()
    }

    /// Executions over the whole run, replaced plans included.
    pub fn executions(&self) -> u64 {
        let current: u64 = self.executions_by_subplan.iter().map(ExecCounts::total).sum();
        self.replaced_executions.total() + current
    }

    /// Metrics snapshot plus the work breakdown, as one JSON document
    /// (what `--metrics-out` writes).
    pub fn metrics_json(&self) -> Value {
        let by_subplan: Vec<Value> = self
            .work_by_subplan
            .iter()
            .zip(&self.executions_by_subplan)
            .enumerate()
            .map(|(i, (b, e))| {
                let kinds: Vec<(String, Value)> = OpKind::ALL
                    .iter()
                    .filter(|&&k| b.get(k) != 0.0)
                    .map(|&k| (k.label().to_string(), Value::from(b.get(k))))
                    .collect();
                json!({
                    "subplan": i,
                    "work": Value::Object(kinds),
                    "work_total": b.sum(),
                    "executions": { "incremental": e.incremental, "final": e.finals },
                })
            })
            .collect();
        let global = self.breakdown();
        let global_kinds: Vec<(String, Value)> = OpKind::ALL
            .iter()
            .filter(|&&k| global.get(k) != 0.0)
            .map(|&k| (k.label().to_string(), Value::from(global.get(k))))
            .collect();
        let mut doc = json!({
            "total_work": self.total_work,
            "breakdown_total": self.breakdown_total(),
            "work_by_kind": Value::Object(global_kinds),
            "subplans": by_subplan,
            "metrics": self.metrics.snapshot(),
            "trace_spans": self.trace.spans().len(),
            "trace_dropped": self.trace.dropped(),
        });
        if let (Some(ledger), Value::Object(map)) = (&self.slack, &mut doc) {
            map.push(("slack".to_string(), ledger.to_json()));
        }
        doc
    }

    /// Chrome `trace_event` JSON (what `--trace-out` writes).
    pub fn chrome_trace(&self) -> Value {
        self.trace.chrome_trace()
    }

    /// Prometheus text exposition of the metrics registry (what
    /// `--metrics-out foo.prom` writes). The slack ledger is already folded
    /// into the registry as `slo.*` series, so this single document carries
    /// work, batch, ingest, adapt, and SLO metrics.
    pub fn prometheus(&self) -> String {
        prometheus_text(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_across_subplans() {
        let mut r = ObsReport::default();
        let mut b0 = WorkBreakdown::default();
        b0.0[OpKind::Scan.index()] = 3.0;
        b0.0[OpKind::Filter.index()] = 1.0;
        let mut b1 = WorkBreakdown::default();
        b1.0[OpKind::Scan.index()] = 2.0;
        r.work_by_subplan = vec![b0, b1];
        r.executions_by_subplan = vec![ExecCounts::default(); 2];
        r.total_work = 6.0;
        assert_eq!(r.breakdown().get(OpKind::Scan), 5.0);
        assert_eq!(r.breakdown_total(), 6.0);
        assert_eq!(r.breakdown().get(OpKind::Filter), 1.0);
    }

    #[test]
    fn metrics_json_reports_totals_and_counts() {
        let mut r = ObsReport::default();
        let mut b = WorkBreakdown::default();
        b.0[OpKind::AggUpdate.index()] = 4.0;
        r.work_by_subplan = vec![b];
        r.executions_by_subplan = vec![ExecCounts { incremental: 3, finals: 1 }];
        r.total_work = 4.0;
        let j = r.metrics_json();
        assert_eq!(j["total_work"].as_f64(), Some(4.0));
        assert_eq!(j["work_by_kind"]["agg_update"].as_f64(), Some(4.0));
        assert_eq!(j["subplans"][0]["executions"]["incremental"].as_i64(), Some(3));
        // Kinds with zero work are omitted.
        assert!(j["work_by_kind"].get("scan").is_none());
    }
}
