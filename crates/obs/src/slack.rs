//! Per-query slack ledger: one deadline account per budgeted query
//! (DESIGN.md §13).
//!
//! The paper's premise is *time slackness*: each query `q` carries a latency
//! constraint `L(q)` expressed as a final-work budget, and the optimizer
//! spends the gap between required and actual completion work. The ledger
//! makes that gap observable. It keeps, per query:
//!
//! * `budget` — `L(q)`;
//! * `joined` — the front the query's account opened at;
//! * `consumed` — the query's final work, the quantity the optimizer's
//!   constraint `C_fin(q) ≤ L(q)` bounds. Final work is charged only at
//!   the trigger, so it is set once, at the front at fraction 1, from the
//!   expression `RunResult::final_work` reads, and 0 until then;
//! * `charged_total` — all work charged to the query's subplans (incremental
//!   + final) as of the last recorded front: what sharing cost it.
//!
//! The slack left, `max(0, L(q) − consumed)`, and whether the deadline was
//! met are derived from these. What moves from front to front — a query's
//! cumulative charged work and its per-front charge — is an observation,
//! not state: the fold records it as a trace counter point
//! ([`SlackPoint`](crate::trace::SlackPoint)) and into the
//! `slo.q{i}.front_work` histogram. So the ledger grows with the number of
//! queries, never with the number of fronts.
//!
//! Every quantity is a *deterministic measured* number folded from the
//! drivers' tick records in global schedule order. Wall clock never enters:
//! obs-on/obs-off and kill/resume replay produce the identical ledger.

use crate::metrics::MetricsRegistry;
use ishare_common::QueryId;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One query's deadline account.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySlack {
    /// The query's final-work budget `L(q)`.
    pub budget: f64,
    /// Ordinal of the first wavefront recorded for the query: 0, or the
    /// front after the boundary that admitted it.
    pub joined: u32,
    /// Final work charged against the budget: set at the trigger, 0 before.
    pub consumed: f64,
    /// Cumulative charged work (incremental + final) as of the last front.
    pub charged_total: f64,
}

impl QuerySlack {
    fn open(budget: f64, joined: u32) -> Self {
        QuerySlack { budget, joined, consumed: 0.0, charged_total: 0.0 }
    }

    /// Remaining slack: `max(0, budget − consumed)`.
    pub fn remaining(&self) -> f64 {
        (self.budget - self.consumed).max(0.0)
    }

    /// `true` iff the deadline was met: consumed work ≤ budget.
    pub fn met(&self) -> bool {
        self.consumed <= self.budget
    }

    /// How far over budget the query finished (0 when met).
    pub fn overrun(&self) -> f64 {
        (self.consumed - self.budget).max(0.0)
    }
}

/// The per-run slack ledger: one [`QuerySlack`] per query with a declared
/// budget, and the number of wavefronts recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlackLedger {
    queries: BTreeMap<QueryId, QuerySlack>,
    fronts: u32,
}

impl SlackLedger {
    /// New ledger over the given `L(q)` budgets.
    pub fn new(budgets: &BTreeMap<QueryId, f64>) -> Self {
        let queries =
            budgets.iter().map(|(&q, &budget)| (q, QuerySlack::open(budget, 0))).collect();
        Self { queries, fronts: 0 }
    }

    /// `true` iff no query has a budget.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Number of wavefronts recorded.
    pub fn fronts(&self) -> usize {
        self.fronts as usize
    }

    /// Per-query accounts in `QueryId` order.
    pub fn queries(&self) -> impl Iterator<Item = (QueryId, &QuerySlack)> {
        self.queries.iter().map(|(&q, s)| (q, s))
    }

    /// One query's account.
    pub fn query(&self, q: QueryId) -> Option<&QuerySlack> {
        self.queries.get(&q)
    }

    /// Admit a query mid-run (live churn): its account opens at the next
    /// recorded front with budget `l`. Replaces any previous account for
    /// the id (a re-admitted id starts fresh).
    pub fn add_query(&mut self, q: QueryId, l: f64) {
        self.queries.insert(q, QuerySlack::open(l, self.fronts));
    }

    /// Close a removed query's account (live churn), returning it. `None`
    /// when the id carried no budget.
    pub fn drop_query(&mut self, q: QueryId) -> Option<QuerySlack> {
        self.queries.remove(&q)
    }

    /// Number of queries whose consumed work exceeded the budget.
    pub fn misses(&self) -> usize {
        self.queries.values().filter(|q| !q.met()).count()
    }

    /// Record one wavefront boundary: count the front and hand each account
    /// to `charge`, which updates what the front changed.
    pub fn record_front(&mut self, mut charge: impl FnMut(QueryId, &mut QuerySlack)) {
        for (&q, slot) in &mut self.queries {
            charge(q, slot);
        }
        self.fronts += 1;
    }

    /// Re-check the ledger's invariants; returns the first violation as a
    /// human-readable message. Every account opened at a recorded front
    /// (`joined ≤ fronts`), and a query's final work is part of the work
    /// charged to it (`consumed ≤ charged_total`, 1e-9 relative).
    pub fn verify(&self) -> Result<(), String> {
        for (q, slot) in &self.queries {
            let i = q.index();
            if slot.joined > self.fronts {
                return Err(format!(
                    "q{i}: joined at front {} of {} recorded",
                    slot.joined, self.fronts
                ));
            }
            let tol = 1e-9 * slot.charged_total.abs().max(1.0);
            if slot.consumed > slot.charged_total + tol {
                return Err(format!(
                    "q{i}: consumed {} exceeds charged_total {}",
                    slot.consumed, slot.charged_total
                ));
            }
        }
        Ok(())
    }

    /// Record the final ledger state into the metrics registry under the
    /// `slo.` prefix: per query `slo.q{i}.budget` / `.consumed` /
    /// `.slack_remaining` / `.overrun` gauges, a `slo.q{i}.deadline_misses`
    /// counter (0 or 1 per run), and the aggregate `slo.deadline_misses`.
    /// (The per-front `slo.q{i}.front_work` histograms are recorded by the
    /// fold as each front is folded.)
    pub fn record_metrics(&self, m: &mut MetricsRegistry) {
        for (q, slot) in &self.queries {
            let i = q.index();
            m.gauge_set(&format!("slo.q{i}.budget"), slot.budget);
            m.gauge_set(&format!("slo.q{i}.consumed"), slot.consumed);
            m.gauge_set(&format!("slo.q{i}.slack_remaining"), slot.remaining());
            m.gauge_set(&format!("slo.q{i}.overrun"), slot.overrun());
            m.counter_add(&format!("slo.q{i}.deadline_misses"), if slot.met() { 0.0 } else { 1.0 });
        }
        m.counter_add("slo.deadline_misses", self.misses() as f64);
    }

    /// The ledger as a JSON document (embedded in `--metrics-out` output):
    /// `{"misses": n, "fronts": n, "queries": [{"query", "budget",
    /// "joined", "consumed", "charged_total", "remaining", "met",
    /// "overrun"}]}`.
    pub fn to_json(&self) -> Value {
        let queries: Vec<Value> = self
            .queries
            .iter()
            .map(|(q, slot)| {
                json!({
                    "query": q.index(),
                    "budget": slot.budget,
                    "joined": slot.joined,
                    "consumed": slot.consumed,
                    "charged_total": slot.charged_total,
                    "remaining": slot.remaining(),
                    "met": slot.met(),
                    "overrun": slot.overrun(),
                })
            })
            .collect();
        json!({ "misses": self.misses(), "fronts": self.fronts, "queries": queries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budgets(pairs: &[(u16, f64)]) -> BTreeMap<QueryId, f64> {
        pairs.iter().map(|&(q, l)| (QueryId(q), l)).collect()
    }

    /// Record a front that charges every query `charged` in all, settling
    /// `finals` (query, final work) at the trigger.
    fn front(l: &mut SlackLedger, charged: f64, finals: &[(u16, f64)]) {
        l.record_front(|q, slot| {
            slot.charged_total = charged;
            if let Some(&(_, w)) = finals.iter().find(|(f, _)| QueryId(*f) == q) {
                slot.consumed = w;
            }
        });
    }

    #[test]
    fn ledger_tracks_consumption_and_slack() {
        let mut l = SlackLedger::new(&budgets(&[(0, 100.0), (2, 50.0)]));
        front(&mut l, 10.0, &[]);
        assert_eq!(l.query(QueryId(0)).unwrap().remaining(), 100.0, "nothing final yet");
        front(&mut l, 70.0, &[(0, 40.0), (2, 65.0)]);

        assert_eq!(l.fronts(), 2);
        let q0 = l.query(QueryId(0)).unwrap();
        assert_eq!((q0.consumed, q0.charged_total), (40.0, 70.0));
        assert_eq!(q0.remaining(), 60.0);
        assert!(q0.met());
        assert_eq!(q0.overrun(), 0.0);
        let q2 = l.query(QueryId(2)).unwrap();
        assert!(!q2.met());
        assert_eq!(q2.remaining(), 0.0);
        assert_eq!(q2.overrun(), 15.0);
        assert_eq!(l.misses(), 1);
        l.verify().unwrap();
    }

    #[test]
    fn verify_rejects_tampered_accounts() {
        let mut l = SlackLedger::new(&budgets(&[(1, 10.0)]));
        front(&mut l, 4.0, &[(1, 4.0)]);
        l.verify().unwrap();
        let mut bad = l.clone();
        bad.queries.get_mut(&QueryId(1)).unwrap().consumed = 5.0;
        assert!(bad.verify().unwrap_err().contains("exceeds charged_total"));
        let mut bad = l.clone();
        bad.queries.get_mut(&QueryId(1)).unwrap().joined = 2;
        assert!(bad.verify().unwrap_err().contains("joined at front 2"));
    }

    #[test]
    fn admitted_query_opens_at_the_next_front() {
        let mut l = SlackLedger::new(&budgets(&[(0, 10.0)]));
        front(&mut l, 1.0, &[]);
        l.add_query(QueryId(1), 10.0);
        assert_eq!(l.query(QueryId(1)).unwrap().joined, 1);
        front(&mut l, 2.0, &[]);
        front(&mut l, 3.0, &[(0, 1.0), (1, 2.0)]);
        assert_eq!(l.query(QueryId(1)).unwrap().consumed, 2.0);
        l.verify().unwrap();
        assert_eq!(l.drop_query(QueryId(0)).map(|s| s.consumed), Some(1.0));
        assert_eq!(l.queries().count(), 1);
    }

    #[test]
    fn metrics_and_json_export() {
        let mut l = SlackLedger::new(&budgets(&[(0, 20.0)]));
        front(&mut l, 8.0, &[(0, 8.0)]);
        let mut m = MetricsRegistry::new();
        l.record_metrics(&mut m);
        assert_eq!(m.gauge("slo.q0.budget"), Some(20.0));
        assert_eq!(m.gauge("slo.q0.consumed"), Some(8.0));
        assert_eq!(m.gauge("slo.q0.slack_remaining"), Some(12.0));
        assert_eq!(m.counter("slo.q0.deadline_misses"), Some(0.0));
        assert_eq!(m.counter("slo.deadline_misses"), Some(0.0));

        let j = l.to_json();
        assert_eq!(j["misses"].as_i64(), Some(0));
        assert_eq!(j["fronts"].as_i64(), Some(1));
        assert_eq!(j["queries"][0]["query"].as_i64(), Some(0));
        assert_eq!(j["queries"][0]["remaining"].as_f64(), Some(12.0));
        assert_eq!(j["queries"][0]["charged_total"].as_f64(), Some(8.0));
    }

    #[test]
    fn empty_ledger_reports_nothing() {
        let l = SlackLedger::new(&BTreeMap::new());
        assert!(l.is_empty());
        assert_eq!(l.fronts(), 0);
        assert_eq!(l.misses(), 0);
        l.verify().unwrap();
    }
}
