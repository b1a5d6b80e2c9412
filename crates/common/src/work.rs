//! Work accounting.
//!
//! The paper (Sec. 2.1) uses *total work* as a proxy for total execution time
//! / CPU consumption and *final work* as a proxy for query latency, both
//! "quantified based on the DBMS's cost model — for example … the number of
//! tuples processed by all operators". This module provides the unit type and
//! the counter that the execution engine increments while physically
//! processing tuples; the cost model (`ishare-cost`) produces *estimates* in
//! the same unit so that estimated and measured work are directly comparable.

use std::cell::Cell;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Cost-model work units (weighted tuples processed). A plain `f64` newtype
/// so that work can't be accidentally mixed with cardinalities.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct WorkUnits(pub f64);

impl WorkUnits {
    /// Zero work.
    pub const ZERO: WorkUnits = WorkUnits(0.0);

    /// The raw amount.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Saturating subtraction (work differences are clamped at zero where the
    /// paper's formulas take `max(0, …)`).
    pub fn saturating_sub(self, other: WorkUnits) -> WorkUnits {
        WorkUnits((self.0 - other.0).max(0.0))
    }
}

impl Add for WorkUnits {
    type Output = WorkUnits;
    fn add(self, rhs: WorkUnits) -> WorkUnits {
        WorkUnits(self.0 + rhs.0)
    }
}

impl AddAssign for WorkUnits {
    fn add_assign(&mut self, rhs: WorkUnits) {
        self.0 += rhs.0;
    }
}

impl Sub for WorkUnits {
    type Output = WorkUnits;
    fn sub(self, rhs: WorkUnits) -> WorkUnits {
        WorkUnits(self.0 - rhs.0)
    }
}

impl std::iter::Sum for WorkUnits {
    fn sum<I: Iterator<Item = WorkUnits>>(iter: I) -> WorkUnits {
        WorkUnits(iter.map(|w| w.0).sum())
    }
}

impl fmt::Display for WorkUnits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}wu", self.0)
    }
}

/// Per-operator cost weights. Tuples processed by different operators cost
/// differently; these weights are the engine's crude CPU model and are shared
/// verbatim by the estimator so that estimates and measurements line up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Reading one tuple from a buffer / base delta log.
    pub scan: f64,
    /// Evaluating one select branch on one tuple.
    pub filter: f64,
    /// Computing one projection expression on one tuple.
    pub project: f64,
    /// Hashing + probing one tuple through a join (per side).
    pub join_probe: f64,
    /// Inserting one tuple into join state.
    pub join_insert: f64,
    /// Emitting one joined output tuple.
    pub join_emit: f64,
    /// Updating one aggregate accumulator with one input tuple.
    pub agg_update: f64,
    /// Emitting one aggregate output tuple (retraction or insertion).
    pub agg_emit: f64,
    /// Touching one stored value during a MIN/MAX rescan after the current
    /// extremum was deleted. Rescans are what make MIN/MAX queries
    /// non-incrementable (the paper's Q15 discussion).
    pub minmax_rescan: f64,
    /// Materialising one tuple into a subplan output buffer.
    pub materialize: f64,
}

impl CostWeights {
    /// The weight charged per occurrence of `kind`.
    pub fn of(&self, kind: OpKind) -> f64 {
        match kind {
            OpKind::Scan => self.scan,
            OpKind::Filter => self.filter,
            OpKind::Project => self.project,
            OpKind::JoinProbe => self.join_probe,
            OpKind::JoinInsert => self.join_insert,
            OpKind::JoinEmit => self.join_emit,
            OpKind::AggUpdate => self.agg_update,
            OpKind::AggEmit => self.agg_emit,
            OpKind::MinmaxRescan => self.minmax_rescan,
            OpKind::Materialize => self.materialize,
        }
    }
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            scan: 1.0,
            filter: 1.0,
            project: 0.5,
            join_probe: 2.0,
            join_insert: 2.0,
            join_emit: 1.0,
            agg_update: 2.0,
            agg_emit: 1.0,
            minmax_rescan: 1.0,
            materialize: 1.0,
        }
    }
}

/// The kind of operator action a work charge is attributed to. Mirrors the
/// fields of [`CostWeights`] one-to-one, so that every charge the engine
/// makes lands in exactly one breakdown bucket and the per-kind totals
/// provably account for all of [`WorkCounter::total`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Reading tuples from a buffer / base delta log ([`CostWeights::scan`]).
    Scan,
    /// Select-branch predicate evaluations ([`CostWeights::filter`]).
    Filter,
    /// Projection expression evaluations ([`CostWeights::project`]).
    Project,
    /// Join hash probes ([`CostWeights::join_probe`]).
    JoinProbe,
    /// Join state insertions ([`CostWeights::join_insert`]).
    JoinInsert,
    /// Joined output emissions ([`CostWeights::join_emit`]).
    JoinEmit,
    /// Aggregate accumulator updates ([`CostWeights::agg_update`]).
    AggUpdate,
    /// Aggregate output emissions ([`CostWeights::agg_emit`]).
    AggEmit,
    /// MIN/MAX rescans after extremum deletes ([`CostWeights::minmax_rescan`]).
    MinmaxRescan,
    /// Materialization into subplan output buffers ([`CostWeights::materialize`]).
    Materialize,
}

impl OpKind {
    /// Number of distinct kinds.
    pub const COUNT: usize = 10;

    /// Every kind, in breakdown-index order.
    pub const ALL: [OpKind; OpKind::COUNT] = [
        OpKind::Scan,
        OpKind::Filter,
        OpKind::Project,
        OpKind::JoinProbe,
        OpKind::JoinInsert,
        OpKind::JoinEmit,
        OpKind::AggUpdate,
        OpKind::AggEmit,
        OpKind::MinmaxRescan,
        OpKind::Materialize,
    ];

    /// Index into a [`WorkBreakdown`].
    pub fn index(self) -> usize {
        match self {
            OpKind::Scan => 0,
            OpKind::Filter => 1,
            OpKind::Project => 2,
            OpKind::JoinProbe => 3,
            OpKind::JoinInsert => 4,
            OpKind::JoinEmit => 5,
            OpKind::AggUpdate => 6,
            OpKind::AggEmit => 7,
            OpKind::MinmaxRescan => 8,
            OpKind::Materialize => 9,
        }
    }

    /// Stable snake_case label (metric names, JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Scan => "scan",
            OpKind::Filter => "filter",
            OpKind::Project => "project",
            OpKind::JoinProbe => "join_probe",
            OpKind::JoinInsert => "join_insert",
            OpKind::JoinEmit => "join_emit",
            OpKind::AggUpdate => "agg_update",
            OpKind::AggEmit => "agg_emit",
            OpKind::MinmaxRescan => "minmax_rescan",
            OpKind::Materialize => "materialize",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-operator-kind work totals (work units per [`OpKind`], indexed by
/// [`OpKind::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkBreakdown(pub [f64; OpKind::COUNT]);

impl WorkBreakdown {
    /// Work attributed to one kind.
    pub fn get(&self, kind: OpKind) -> f64 {
        self.0[kind.index()]
    }

    /// Sum over all kinds. Equal to the matching [`WorkCounter::total`] up
    /// to float re-association (the counter accumulates chronologically, the
    /// breakdown per kind), so compare with a small epsilon.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Accumulate another breakdown in place.
    pub fn add(&mut self, other: &WorkBreakdown) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }
}

impl AddAssign for WorkBreakdown {
    fn add_assign(&mut self, rhs: WorkBreakdown) {
        self.add(&rhs);
    }
}

/// A mutable work counter threaded through operator execution.
///
/// Uses `Cell` so that operators holding shared references can still account
/// work without threading `&mut` through the whole operator tree. Every
/// charge is tagged with the [`OpKind`] it belongs to; the counter maintains
/// the chronological `total` exactly as before *and* a per-kind breakdown,
/// so observability can be layered on without perturbing the totals the
/// engine's determinism guarantees are stated over.
#[derive(Debug, Default)]
pub struct WorkCounter {
    total: Cell<f64>,
    by_kind: [Cell<f64>; OpKind::COUNT],
}

impl WorkCounter {
    /// Fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` occurrences of a `kind` action costing `weight` each.
    pub fn charge(&self, kind: OpKind, weight: f64, n: usize) {
        let amount = weight * n as f64;
        self.total.set(self.total.get() + amount);
        let cell = &self.by_kind[kind.index()];
        cell.set(cell.get() + amount);
    }

    /// Total work recorded so far.
    pub fn total(&self) -> WorkUnits {
        WorkUnits(self.total.get())
    }

    /// Snapshot of the per-kind breakdown.
    pub fn breakdown(&self) -> WorkBreakdown {
        let mut out = [0.0; OpKind::COUNT];
        for (o, c) in out.iter_mut().zip(self.by_kind.iter()) {
            *o = c.get();
        }
        WorkBreakdown(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = WorkUnits(3.0) + WorkUnits(4.0);
        assert_eq!(a, WorkUnits(7.0));
        assert_eq!(a - WorkUnits(2.0), WorkUnits(5.0));
        assert_eq!(WorkUnits(1.0).saturating_sub(WorkUnits(5.0)), WorkUnits::ZERO);
        let s: WorkUnits = [WorkUnits(1.0), WorkUnits(2.5)].into_iter().sum();
        assert_eq!(s, WorkUnits(3.5));
    }

    #[test]
    fn counter_charges_by_kind() {
        let c = WorkCounter::new();
        assert_eq!(c.breakdown(), WorkBreakdown::default());
        c.charge(OpKind::Scan, 2.0, 3);
        c.charge(OpKind::Filter, 0.5, 1);
        assert_eq!(c.total(), WorkUnits(6.5));
        assert_eq!(c.breakdown().get(OpKind::Scan), 6.0);
        assert_eq!(c.breakdown().get(OpKind::Filter), 0.5);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let c = WorkCounter::new();
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            c.charge(kind, 0.5 + i as f64, i + 1);
        }
        let b = c.breakdown();
        assert!((b.sum() - c.total().get()).abs() < 1e-9);
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(b.get(kind), (0.5 + i as f64) * (i + 1) as f64);
        }
    }

    #[test]
    fn opkind_index_and_labels_are_consistent() {
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(kind.to_string(), kind.label());
        }
        let labels: std::collections::HashSet<&str> =
            OpKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), OpKind::COUNT);
    }

    #[test]
    fn breakdown_accumulates() {
        let mut a = WorkBreakdown::default();
        let mut b = WorkBreakdown::default();
        b.0[OpKind::JoinProbe.index()] = 2.0;
        a += b;
        a += b;
        assert_eq!(a.get(OpKind::JoinProbe), 4.0);
        assert_eq!(a.sum(), 4.0);
    }

    #[test]
    fn default_weights_positive() {
        let w = CostWeights::default();
        for v in [
            w.scan,
            w.filter,
            w.project,
            w.join_probe,
            w.join_insert,
            w.join_emit,
            w.agg_update,
            w.agg_emit,
            w.minmax_rescan,
            w.materialize,
        ] {
            assert!(v > 0.0);
        }
    }
}
