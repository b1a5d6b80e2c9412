//! Per-query slack ledger: deadline/slack accounting at wavefront
//! granularity (DESIGN.md §13).
//!
//! The paper's premise is *time slackness*: each query `q` carries a latency
//! constraint `L(q)` expressed as a final-work budget, and the optimizer
//! spends the gap between required and actual completion work. The ledger
//! makes that gap observable. At every wavefront boundary it records, per
//! query:
//!
//! * `charged_total` — all work charged to the query's subplans so far
//!   (incremental + final), the "how much did sharing cost" view;
//! * `consumed` — final-tick work charged against the budget so far, the
//!   quantity the optimizer's constraint `C_fin(q) ≤ L(q)` bounds;
//! * `remaining` — `max(0, L(q) − consumed)`, the slack still available;
//! * `front_work` — work charged during this front alone (feeds the
//!   per-wavefront latency histograms `slo.q{i}.front_work`).
//!
//! Every quantity is a *deterministic measured* number folded from the
//! drivers' tick records in global schedule order — the same discipline as
//! `core::adapt`'s `WavefrontObservation`, and deliberately the same
//! summation order, so ledger `remaining` is `to_bits`-equal to the adapt
//! controller's residual budgets `R(q)` at headroom 1 (asserted by
//! `tests/slack_ledger.rs`). Wall clock never enters: obs-on/obs-off and
//! kill/resume replay produce the identical ledger.
//!
//! The ledger upholds (and [`SlackLedger::verify`] re-checks) these
//! invariants on every sample:
//!
//! 1. `remaining == max(0, budget − consumed)` (bitwise);
//! 2. `consumed + remaining == budget` whenever the deadline is met;
//! 3. `consumed` and `charged_total` are non-decreasing across fronts,
//!    `remaining` is non-increasing;
//! 4. every query has one sample per front from the front it joined at
//!    (0 unless live churn admitted it mid-run) through the last, with
//!    contiguous wavefront ordinals.

use crate::metrics::MetricsRegistry;
use ishare_common::QueryId;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Per-query work charged up to (and during) one wavefront, computed by the
/// driver's fold in canonical order. Inputs to [`SlackLedger::record_front`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrontCharge {
    /// Work charged to the query's subplans during this front alone.
    pub front_work: f64,
    /// Cumulative work charged to the query's subplans (incremental + final).
    pub charged_total: f64,
    /// Cumulative final-tick work — the quantity bounded by `L(q)`.
    pub consumed: f64,
}

/// One per-query sample at a wavefront boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackSample {
    /// Wavefront ordinal (0-based).
    pub wavefront: u32,
    /// Arrival-fraction numerator at this front.
    pub num: u32,
    /// Arrival-fraction denominator.
    pub den: u32,
    /// Work charged to the query's subplans during this front.
    pub front_work: f64,
    /// Cumulative charged work (incremental + final).
    pub charged_total: f64,
    /// Cumulative final work counted against the budget.
    pub consumed: f64,
    /// `max(0, budget − consumed)`.
    pub remaining: f64,
}

/// One query's budget and its per-front sample history.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySlack {
    /// The query's final-work budget `L(q)`.
    pub budget: f64,
    /// Ordinal of the query's first sampled wavefront: 0, or the front
    /// after the boundary that admitted it.
    pub joined: u32,
    /// One sample per wavefront from `joined` on, in front order.
    pub samples: Vec<SlackSample>,
}

impl QuerySlack {
    /// Final consumed work (0 if no fronts were recorded).
    pub fn consumed(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.consumed)
    }

    /// Final remaining slack (the full budget if no fronts were recorded).
    pub fn remaining(&self) -> f64 {
        self.samples.last().map_or(self.budget, |s| s.remaining)
    }

    /// `true` iff the deadline was met: final consumed work ≤ budget.
    pub fn met(&self) -> bool {
        self.consumed() <= self.budget
    }

    /// How far over budget the query finished (0 when met).
    pub fn overrun(&self) -> f64 {
        (self.consumed() - self.budget).max(0.0)
    }
}

/// The per-run slack ledger: one [`QuerySlack`] per query with a declared
/// budget, filled in by the drivers' fold at each wavefront boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlackLedger {
    queries: BTreeMap<QueryId, QuerySlack>,
    fronts: u32,
}

impl SlackLedger {
    /// New ledger over the given `L(q)` budgets.
    pub fn new(budgets: &BTreeMap<QueryId, f64>) -> Self {
        let queries = budgets
            .iter()
            .map(|(&q, &budget)| (q, QuerySlack { budget, joined: 0, samples: Vec::new() }))
            .collect();
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

    /// Per-query ledgers in `QueryId` order.
    pub fn queries(&self) -> impl Iterator<Item = (QueryId, &QuerySlack)> {
        self.queries.iter().map(|(&q, s)| (q, s))
    }

    /// One query's ledger.
    pub fn query(&self, q: QueryId) -> Option<&QuerySlack> {
        self.queries.get(&q)
    }

    /// Admit a query mid-run (live churn): it joins at the next recorded
    /// front with budget `l`, with no retroactive samples. Replaces any
    /// previous ledger for the id (a re-admitted id starts fresh).
    pub fn add_query(&mut self, q: QueryId, l: f64) {
        self.queries.insert(q, QuerySlack { budget: l, joined: self.fronts, samples: Vec::new() });
    }

    /// Release a removed query's ledger (live churn), returning it so the
    /// driver can fold the truncated history into its report if it wants.
    /// `None` when the id carried no budget.
    pub fn drop_query(&mut self, q: QueryId) -> Option<QuerySlack> {
        self.queries.remove(&q)
    }

    /// Number of queries whose final consumed work exceeded the budget.
    pub fn misses(&self) -> usize {
        self.queries.values().filter(|q| !q.met()).count()
    }

    /// Record one wavefront boundary. `charges` must contain exactly the
    /// budgeted queries; `remaining` is derived here as
    /// `max(0, budget − consumed)` so all samples share one definition.
    pub fn record_front(
        &mut self,
        wavefront: u32,
        num: u32,
        den: u32,
        charges: &BTreeMap<QueryId, FrontCharge>,
    ) {
        for (q, slot) in self.queries.iter_mut() {
            let c = charges.get(q).copied().unwrap_or_default();
            slot.samples.push(SlackSample {
                wavefront,
                num,
                den,
                front_work: c.front_work,
                charged_total: c.charged_total,
                consumed: c.consumed,
                remaining: (slot.budget - c.consumed).max(0.0),
            });
        }
        self.fronts += 1;
    }

    /// Re-check every ledger invariant (see the module docs); returns the
    /// first violation as a human-readable message.
    pub fn verify(&self) -> Result<(), String> {
        for (q, slot) in &self.queries {
            let i = q.index();
            let expected = self.fronts.saturating_sub(slot.joined) as usize;
            if slot.samples.len() != expected {
                return Err(format!(
                    "q{i}: {} samples, expected {expected} (one per front from front {})",
                    slot.samples.len(),
                    slot.joined
                ));
            }
            let mut prev: Option<&SlackSample> = None;
            for (s, w) in slot.samples.iter().zip(slot.joined..) {
                if s.wavefront != w {
                    return Err(format!(
                        "q{i}: sample of front {} where front {w} is due",
                        s.wavefront
                    ));
                }
                let want = (slot.budget - s.consumed).max(0.0);
                if s.remaining.to_bits() != want.to_bits() {
                    return Err(format!(
                        "q{i} front {w}: remaining {} != max(0, budget - consumed) {}",
                        s.remaining, want
                    ));
                }
                if s.consumed <= slot.budget {
                    let sum = s.consumed + s.remaining;
                    let tol = 1e-9 * slot.budget.abs().max(1.0);
                    if (sum - slot.budget).abs() > tol {
                        return Err(format!(
                            "q{i} front {w}: consumed {} + remaining {} != budget {}",
                            s.consumed, s.remaining, slot.budget
                        ));
                    }
                }
                if s.consumed > s.charged_total + 1e-9 * s.charged_total.abs().max(1.0) {
                    return Err(format!(
                        "q{i} front {w}: consumed {} exceeds charged_total {}",
                        s.consumed, s.charged_total
                    ));
                }
                if let Some(p) = prev {
                    if s.consumed < p.consumed {
                        return Err(format!("q{i} front {w}: consumed decreased"));
                    }
                    if s.charged_total < p.charged_total {
                        return Err(format!("q{i} front {w}: charged_total decreased"));
                    }
                    if s.remaining > p.remaining {
                        return Err(format!("q{i} front {w}: remaining increased"));
                    }
                }
                prev = Some(s);
            }
        }
        Ok(())
    }

    /// Record the final ledger state into the metrics registry under the
    /// `slo.` prefix: per query `slo.q{i}.budget` / `.consumed` /
    /// `.slack_remaining` / `.overrun` gauges, a `slo.q{i}.deadline_misses`
    /// counter (0 or 1 per run), a `slo.q{i}.front_work` histogram over the
    /// per-wavefront charges, and the aggregate `slo.deadline_misses`.
    pub fn record_metrics(&self, m: &mut MetricsRegistry) {
        for (q, slot) in &self.queries {
            let i = q.index();
            m.gauge_set(&format!("slo.q{i}.budget"), slot.budget);
            m.gauge_set(&format!("slo.q{i}.consumed"), slot.consumed());
            m.gauge_set(&format!("slo.q{i}.slack_remaining"), slot.remaining());
            m.gauge_set(&format!("slo.q{i}.overrun"), slot.overrun());
            m.counter_add(&format!("slo.q{i}.deadline_misses"), if slot.met() { 0.0 } else { 1.0 });
            for s in &slot.samples {
                m.histogram_record(&format!("slo.q{i}.front_work"), s.front_work);
            }
        }
        m.counter_add("slo.deadline_misses", self.misses() as f64);
    }

    /// The ledger as a JSON document (embedded in `--metrics-out` output):
    /// `{"misses": n, "queries": [{"query", "budget", "consumed",
    /// "remaining", "met", "overrun", "fronts": [...]}]}`.
    pub fn to_json(&self) -> Value {
        let queries: Vec<Value> = self
            .queries
            .iter()
            .map(|(q, slot)| {
                let fronts: Vec<Value> = slot
                    .samples
                    .iter()
                    .map(|s| {
                        json!({
                            "wavefront": s.wavefront,
                            "frac": format!("{}/{}", s.num, s.den),
                            "front_work": s.front_work,
                            "charged_total": s.charged_total,
                            "consumed": s.consumed,
                            "remaining": s.remaining,
                        })
                    })
                    .collect();
                json!({
                    "query": q.index(),
                    "budget": slot.budget,
                    "consumed": slot.consumed(),
                    "remaining": slot.remaining(),
                    "met": slot.met(),
                    "overrun": slot.overrun(),
                    "fronts": fronts,
                })
            })
            .collect();
        json!({ "misses": self.misses(), "queries": queries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budgets(pairs: &[(u16, f64)]) -> BTreeMap<QueryId, f64> {
        pairs.iter().map(|&(q, l)| (QueryId(q), l)).collect()
    }

    fn charge(front_work: f64, charged_total: f64, consumed: f64) -> FrontCharge {
        FrontCharge { front_work, charged_total, consumed }
    }

    #[test]
    fn ledger_tracks_consumption_and_slack() {
        let mut l = SlackLedger::new(&budgets(&[(0, 100.0), (2, 50.0)]));
        let mut c = BTreeMap::new();
        c.insert(QueryId(0), charge(10.0, 10.0, 0.0));
        c.insert(QueryId(2), charge(5.0, 5.0, 0.0));
        l.record_front(0, 1, 4, &c);
        c.insert(QueryId(0), charge(30.0, 40.0, 40.0));
        c.insert(QueryId(2), charge(60.0, 65.0, 65.0));
        l.record_front(1, 4, 4, &c);

        assert_eq!(l.fronts(), 2);
        let q0 = l.query(QueryId(0)).unwrap();
        assert_eq!(q0.consumed(), 40.0);
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
    fn verify_rejects_tampered_samples() {
        let mut l = SlackLedger::new(&budgets(&[(1, 10.0)]));
        let mut c = BTreeMap::new();
        c.insert(QueryId(1), charge(4.0, 4.0, 4.0));
        l.record_front(0, 1, 2, &c);
        l.verify().unwrap();
        let mut bad = l.clone();
        bad.queries.get_mut(&QueryId(1)).unwrap().samples[0].remaining = 7.0;
        assert!(bad.verify().is_err());
        let mut bad = l.clone();
        bad.queries.get_mut(&QueryId(1)).unwrap().samples[0].consumed = 5.0;
        assert!(bad.verify().is_err());
    }

    #[test]
    fn verify_rejects_nonmonotone_fronts() {
        let mut l = SlackLedger::new(&budgets(&[(0, 10.0)]));
        let mut c = BTreeMap::new();
        c.insert(QueryId(0), charge(4.0, 4.0, 4.0));
        l.record_front(0, 1, 2, &c);
        c.insert(QueryId(0), charge(0.0, 3.0, 3.0));
        l.record_front(1, 2, 2, &c);
        let err = l.verify().unwrap_err();
        assert!(err.contains("decreased"), "{err}");
    }

    #[test]
    fn admitted_query_is_checked_from_its_join_front() {
        let mut l = SlackLedger::new(&budgets(&[(0, 10.0)]));
        let mut c = BTreeMap::new();
        c.insert(QueryId(0), charge(1.0, 1.0, 0.0));
        l.record_front(0, 1, 3, &c);
        l.add_query(QueryId(1), 10.0);
        c.insert(QueryId(1), charge(2.0, 2.0, 0.0));
        l.record_front(1, 2, 3, &c);
        l.record_front(2, 3, 3, &c);
        assert_eq!(l.query(QueryId(1)).unwrap().joined, 1);
        l.verify().unwrap();
        // A missing sample, or one of the wrong front, is caught.
        let mut bad = l.clone();
        bad.queries.get_mut(&QueryId(1)).unwrap().samples.pop();
        assert!(bad.verify().unwrap_err().contains("expected 2"));
        let mut bad = l.clone();
        bad.queries.get_mut(&QueryId(1)).unwrap().samples[0].wavefront = 0;
        assert!(bad.verify().is_err());
        let mut bad = l.clone();
        bad.queries.get_mut(&QueryId(0)).unwrap().samples.remove(0);
        assert!(bad.verify().is_err(), "a query present from front 0 needs every front");
    }

    #[test]
    fn metrics_and_json_export() {
        let mut l = SlackLedger::new(&budgets(&[(0, 20.0)]));
        let mut c = BTreeMap::new();
        c.insert(QueryId(0), charge(8.0, 8.0, 8.0));
        l.record_front(0, 1, 1, &c);
        let mut m = MetricsRegistry::new();
        l.record_metrics(&mut m);
        assert_eq!(m.gauge("slo.q0.budget"), Some(20.0));
        assert_eq!(m.gauge("slo.q0.consumed"), Some(8.0));
        assert_eq!(m.gauge("slo.q0.slack_remaining"), Some(12.0));
        assert_eq!(m.counter("slo.q0.deadline_misses"), Some(0.0));
        assert_eq!(m.counter("slo.deadline_misses"), Some(0.0));
        assert_eq!(m.histogram("slo.q0.front_work").unwrap().count(), 1);

        let j = l.to_json();
        assert_eq!(j["misses"].as_i64(), Some(0));
        assert_eq!(j["queries"][0]["query"].as_i64(), Some(0));
        assert_eq!(j["queries"][0]["fronts"][0]["remaining"].as_f64(), Some(12.0));
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
