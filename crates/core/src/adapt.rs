//! Online re-optimization: feed measured runtime statistics back into the
//! pace search at wavefront boundaries.
//!
//! The static optimizer picks paces from *catalog* statistics. When the live
//! stream drifts from those estimates — more rows than the catalog promised,
//! or an unexpected delete/update mix — the chosen paces may blow the very
//! final-work constraints they were selected to meet. [`AdaptController`]
//! closes the loop: the stream drivers hand it one [`WavefrontObservation`]
//! per committed wavefront, it measures drift between observed and estimated
//! base-stream statistics, and when drift crosses a threshold it refreshes
//! the estimator's base stats ([`ishare_cost::PlanEstimator::refresh_base`],
//! which keeps every memoized simulation the change cannot affect) and
//! re-runs [`find_pace_configuration`] under `HEADROOM · L(q)`. Final work
//! is charged only at the trigger — every final tick sits at fraction 1,
//! past the last front the controller evaluates — so a re-plan budgets the
//! whole `L(q)`: nothing of it is spent yet.
//!
//! Everything the controller consumes is deterministic — charged work units,
//! delivered/deleted record counts, exact arrival fractions — never
//! wall-clock time. Re-running the same stream therefore re-derives the
//! identical switch sequence, which is what lets killed-and-resumed runs and
//! parallel runs stay bit-identical to sequential ones (wall time is used
//! only for the `reopt_time` metric, which is observability, not input).

use crate::baselines::PlannedExecution;
use crate::constraint::ConstraintMap;
use crate::pace::PaceConfiguration;
use crate::pace_search::find_pace_configuration;
use ishare_common::{CostWeights, Error, QueryId, Result, TableId};
use ishare_cost::{ObservedBase, PlanEstimator};
use ishare_plan::SharedPlan;
use ishare_storage::Catalog;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Relative drift at or above which a re-optimization fires. Drift is
/// measured against the stats the previous trigger refreshed, so a
/// corrected model does not fire again until the stream drifts anew.
const DRIFT_THRESHOLD: f64 = 0.25;

/// Fraction of each budget `L(q)` a re-optimization targets. Final work is
/// charged only at the trigger, so the whole `L(q)` is unspent at every
/// front the controller re-plans at; but the cost model that mispredicted
/// badly enough to trigger adaptation cannot be trusted to land exactly on
/// the budget either, so the search aims below it and the slack absorbs
/// the remaining estimate-vs-measured error.
const HEADROOM: f64 = 0.8;

/// Knobs for the re-optimization trigger rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptOptions {
    /// Hard cap on the number of pace switches per run. `0` disables
    /// adaptation: the controller still tallies drift metrics but never
    /// re-plans.
    pub max_switches: usize,
    /// Maximum pace handed to the re-entrant pace search.
    pub max_pace: u32,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions { max_switches: 8, max_pace: 100 }
    }
}

impl AdaptOptions {
    /// Options that never trigger: drift is still measured (metrics), but no
    /// re-optimization ever runs. Used by the adaptation-invariance tests.
    pub fn disabled() -> Self {
        AdaptOptions { max_switches: 0, ..AdaptOptions::default() }
    }

    fn validate(&self) -> Result<()> {
        if self.max_pace == 0 {
            return Err(Error::InvalidConfig("max_pace must be >= 1".into()));
        }
        Ok(())
    }
}

/// Cumulative per-base-table delivery counts, as tallied by the driver's
/// feed path up to (and including) the current wavefront.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedTable {
    /// Which base stream.
    pub table: TableId,
    /// Gross delta records delivered so far (inserts + deletes).
    pub delivered: u64,
    /// Deletion records among `delivered`.
    pub deletes: u64,
}

/// Everything the controller is allowed to see about one committed
/// wavefront. All fields are deterministic functions of the input stream and
/// the schedule — no wall-clock quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct WavefrontObservation {
    /// Zero-based wavefront index.
    pub wavefront: usize,
    /// Arrival fraction numerator of this wavefront's ticks.
    pub num: u32,
    /// Arrival fraction denominator of this wavefront's ticks.
    pub den: u32,
    /// Unread: final work is charged only at the trigger, so it is zero at
    /// every front the controller evaluates. The stream driver passes an
    /// empty map; the field stays only because the repo benchmark's shadow
    /// loop builds it, and the next change to the benchmark deletes it.
    pub charged_final: BTreeMap<QueryId, f64>,
    /// Cumulative delivery tallies per base table.
    pub tables: Vec<ObservedTable>,
}

/// One recorded pace switch. Contains only deterministic fields, so replayed
/// runs can compare switch logs bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PaceSwitch {
    /// Wavefront after which the switch takes effect.
    pub wavefront: usize,
    /// Arrival fraction numerator at the trigger point.
    pub num: u32,
    /// Arrival fraction denominator at the trigger point.
    pub den: u32,
    /// Measured drift that fired the trigger.
    pub drift: f64,
    /// Paces in effect before the switch.
    pub from: Vec<u32>,
    /// Paces installed by the switch.
    pub to: Vec<u32>,
    /// Whether the re-run search believes `HEADROOM · L(q)` is met for
    /// every query.
    pub feasible: bool,
    /// Pace-search steps the re-optimization took.
    pub steps: usize,
}

/// Counters and gauges the controller accumulates; surfaced as `adapt.*`
/// metrics by the observability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdaptMetrics {
    /// Wavefront observations evaluated.
    pub evaluations: u64,
    /// Times the trigger rule fired (a re-optimization ran).
    pub triggers: u64,
    /// Times a re-optimization actually changed the paces.
    pub switches: u64,
    /// Largest drift seen across the run.
    pub max_drift: f64,
    /// Wall time spent inside re-optimizations (observability only — never
    /// an input to any decision).
    pub reopt_time: Duration,
}

/// The online re-optimization controller. Owns a [`PlanEstimator`] (with its
/// memo) across the whole run so consecutive re-optimizations reuse every
/// simulation that drift did not invalidate.
pub struct AdaptController {
    est: PlanEstimator,
    constraints: ConstraintMap,
    opts: AdaptOptions,
    paces: PaceConfiguration,
    switches: Vec<PaceSwitch>,
    metrics: AdaptMetrics,
}

impl AdaptController {
    /// Build a controller for `plan`, starting from `initial_paces` (the
    /// statically optimized configuration) and absolute final-work
    /// `constraints` L(q).
    pub fn new(
        plan: &SharedPlan,
        catalog: &Catalog,
        weights: CostWeights,
        initial_paces: &[u32],
        constraints: ConstraintMap,
        opts: AdaptOptions,
    ) -> Result<Self> {
        opts.validate()?;
        if initial_paces.len() != plan.len() {
            return Err(Error::InvalidConfig(format!(
                "initial paces cover {} subplans, plan has {}",
                initial_paces.len(),
                plan.len()
            )));
        }
        let est = PlanEstimator::new(plan, catalog, weights)?;
        let paces = PaceConfiguration::new(initial_paces.to_vec())?;
        Ok(AdaptController {
            est,
            constraints,
            opts,
            paces,
            switches: Vec::new(),
            metrics: AdaptMetrics::default(),
        })
    }

    /// Convenience constructor from a static planning result.
    pub fn from_planned(
        planned: &PlannedExecution,
        catalog: &Catalog,
        weights: CostWeights,
        opts: AdaptOptions,
    ) -> Result<Self> {
        Self::new(
            &planned.plan,
            catalog,
            weights,
            planned.paces.as_slice(),
            planned.constraints.clone(),
            opts,
        )
    }

    /// Paces currently in effect.
    pub fn current_paces(&self) -> &[u32] {
        self.paces.as_slice()
    }

    /// The absolute constraints the controller protects.
    pub fn constraints(&self) -> &ConstraintMap {
        &self.constraints
    }

    /// The recorded switch log, in trigger order.
    pub fn switches(&self) -> &[PaceSwitch] {
        &self.switches
    }

    /// Accumulated counters and gauges.
    pub fn metrics(&self) -> &AdaptMetrics {
        &self.metrics
    }

    /// Each planned table's observed statistics: delivered counts
    /// extrapolated to full-stream size by the exact arrival fraction
    /// `num/den`, and the observed delete fraction.
    fn observed_bases(&self, obs: &WavefrontObservation) -> Vec<(TableId, ObservedBase)> {
        obs.tables
            .iter()
            .filter(|t| self.est.base_estimate(t.table).is_some())
            .map(|t| {
                let rows = (t.delivered as f64) * (obs.den as f64) / (obs.num as f64);
                let delete_frac =
                    if t.delivered > 0 { t.deletes as f64 / t.delivered as f64 } else { 0.0 };
                (t.table, ObservedBase { rows, delete_frac })
            })
            .collect()
    }

    /// Largest relative error between the estimator's base-stream stats and
    /// the observed ones, maximized over tables and over (row count, delete
    /// fraction).
    fn drift_of(&self, observed: &[(TableId, ObservedBase)]) -> f64 {
        let mut worst: f64 = 0.0;
        for (table, o) in observed {
            let Some(est) = self.est.base_estimate(*table) else { continue };
            let row_err = (o.rows - est.rows.total).abs() / est.rows.total.max(1.0);
            let df_err = (o.delete_frac - est.delete_frac).abs();
            worst = worst.max(row_err).max(df_err);
        }
        worst
    }

    /// Evaluate one committed wavefront. Returns `Some(new_paces)` when a
    /// re-optimization fired *and* changed the configuration — the driver
    /// must then reschedule the remaining ticks under the new paces.
    ///
    /// Decisions depend only on the observation and prior observations, so
    /// the switch sequence is a deterministic function of the stream.
    pub fn observe(&mut self, obs: &WavefrontObservation) -> Result<Option<Vec<u32>>> {
        self.metrics.evaluations += 1;
        if obs.num == obs.den {
            // Final wavefront: nothing left to reschedule.
            return Ok(None);
        }
        let observed = self.observed_bases(obs);
        let drift = self.drift_of(&observed);
        if drift > self.metrics.max_drift {
            self.metrics.max_drift = drift;
        }
        if drift < DRIFT_THRESHOLD || self.switches.len() >= self.opts.max_switches {
            return Ok(None);
        }

        // Trigger: fold the observation into the estimator, then re-run the
        // pace search under the budgets, none of which is spent yet.
        self.metrics.triggers += 1;
        let started = Instant::now();
        for (table, o) in observed {
            self.est.refresh_base(table, o)?;
        }
        let budgets: ConstraintMap =
            self.constraints.iter().map(|(&q, &l)| (q, l.max(0.0) * HEADROOM)).collect();
        let outcome = find_pace_configuration(&mut self.est, &budgets, self.opts.max_pace)?;
        self.metrics.reopt_time += started.elapsed();
        if outcome.paces == self.paces {
            return Ok(None);
        }
        self.switches.push(PaceSwitch {
            wavefront: obs.wavefront,
            num: obs.num,
            den: obs.den,
            drift,
            from: self.paces.as_slice().to_vec(),
            to: outcome.paces.as_slice().to_vec(),
            feasible: outcome.feasible,
            steps: outcome.steps,
        });
        self.metrics.switches += 1;
        self.paces = outcome.paces;
        Ok(Some(self.paces.as_slice().to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{DataType, QuerySet};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag};
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
                row_count: 20_000.0,
                columns: vec![ColumnStats::ndv(100.0), ColumnStats::ndv(5000.0)],
            },
        )
        .unwrap();
        c
    }

    /// Shared agg feeding two per-query projects (same shape as the
    /// pace-search fixture).
    fn shared_plan(c: &Catalog) -> SharedPlan {
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0, 1])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![SelectBranch {
                        queries: qs(&[0, 1]),
                        predicate: Expr::true_lit(),
                    }],
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
                DagOp::Project { exprs: vec![(Expr::col(1), "a".into())] },
                vec![agg],
                qs(&[0]),
            )
            .unwrap();
        let p1 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(0), "b".into())] },
                vec![agg],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), p0).unwrap();
        d.set_query_root(QueryId(1), p1).unwrap();
        SharedPlan::from_dag(&d).unwrap()
    }

    /// Plan statically, then build a controller around the result.
    fn planned_controller(frac: f64, opts: AdaptOptions) -> (AdaptController, Vec<u32>, TableId) {
        let c = catalog();
        let plan = shared_plan(&c);
        let t = c.table_by_name("t").unwrap().id;
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let batch = est.estimate(&vec![1; plan.len()]).unwrap();
        let cons: ConstraintMap =
            [(QueryId(0), batch.final_of(QueryId(0)).get() * frac)].into_iter().collect();
        let out = find_pace_configuration(&mut est, &cons, 50).unwrap();
        let initial = out.paces.as_slice().to_vec();
        let ctrl =
            AdaptController::new(&plan, &c, CostWeights::default(), &initial, cons, opts).unwrap();
        (ctrl, initial, t)
    }

    /// An observation claiming `factor`× the cataloged rows at fraction 1/4.
    fn drifted_obs(table: TableId, factor: f64) -> WavefrontObservation {
        WavefrontObservation {
            wavefront: 0,
            num: 1,
            den: 4,
            charged_final: BTreeMap::new(),
            tables: vec![ObservedTable {
                table,
                delivered: (20_000.0 * factor / 4.0) as u64,
                deletes: 0,
            }],
        }
    }

    #[test]
    fn disabled_options_never_trigger() {
        let (mut ctrl, initial, t) = planned_controller(0.4, AdaptOptions::disabled());
        for wf in 0..3 {
            let mut obs = drifted_obs(t, 5.0);
            obs.wavefront = wf;
            assert_eq!(ctrl.observe(&obs).unwrap(), None);
        }
        assert_eq!(ctrl.metrics().triggers, 0);
        assert_eq!(ctrl.metrics().switches, 0);
        assert_eq!(ctrl.metrics().evaluations, 3);
        assert!(ctrl.metrics().max_drift > 3.0);
        assert_eq!(ctrl.current_paces(), &initial[..]);
    }

    #[test]
    fn drift_triggers_switch_to_eagerer_paces() {
        let (mut ctrl, initial, t) = planned_controller(0.4, AdaptOptions::default());
        let new = ctrl
            .observe(&drifted_obs(t, 4.0))
            .unwrap()
            .expect("4x row drift against a tight constraint must re-plan");
        assert_eq!(ctrl.metrics().triggers, 1);
        assert_eq!(ctrl.metrics().switches, 1);
        assert_eq!(ctrl.current_paces(), &new[..]);
        let sw = &ctrl.switches()[0];
        assert_eq!(sw.from, initial);
        assert_eq!(sw.to, new);
        assert!(sw.drift >= 2.9, "drift {} should be ~3", sw.drift);
        // More rows against the same absolute budget demands strictly more
        // incremental work somewhere.
        assert!(
            new.iter().zip(&initial).any(|(n, o)| n > o),
            "expected an eagerer pace: {initial:?} -> {new:?}"
        );
    }

    #[test]
    fn refreshed_stats_absorb_the_drift_that_fired() {
        let (mut ctrl, _, t) = planned_controller(0.4, AdaptOptions::default());
        assert!(ctrl.observe(&drifted_obs(t, 4.0)).unwrap().is_some());
        // The refreshed stats make the same observation near-zero drift on
        // the next front: no second trigger.
        let mut obs = drifted_obs(t, 4.0);
        obs.wavefront = 1;
        assert_eq!(ctrl.observe(&obs).unwrap(), None);
        assert_eq!(ctrl.metrics().triggers, 1);
        // A fresh drift spike against the refreshed stats triggers again.
        let mut spike = drifted_obs(t, 12.0);
        spike.wavefront = 2;
        let again = ctrl.observe(&spike).unwrap();
        assert_eq!(ctrl.metrics().triggers, 2);
        // The second search may or may not move paces further, but if it
        // did, the switch log must have recorded it.
        assert_eq!(ctrl.metrics().switches as usize, ctrl.switches().len());
        if let Some(p) = again {
            assert_eq!(ctrl.current_paces(), &p[..]);
        }
    }

    #[test]
    fn final_wavefront_is_never_evaluated() {
        let (mut ctrl, _, t) = planned_controller(0.4, AdaptOptions::default());
        let mut obs = drifted_obs(t, 8.0);
        obs.num = 4;
        obs.den = 4;
        assert_eq!(ctrl.observe(&obs).unwrap(), None);
        assert_eq!(ctrl.metrics().triggers, 0);
        assert_eq!(ctrl.metrics().evaluations, 1);
    }

    #[test]
    fn max_switches_caps_replanning() {
        let opts = AdaptOptions { max_switches: 1, ..AdaptOptions::default() };
        let (mut ctrl, _, t) = planned_controller(0.4, opts);
        assert!(ctrl.observe(&drifted_obs(t, 4.0)).unwrap().is_some());
        // Spike again on the next front: drift clears the threshold, but
        // the cap is reached, so no trigger.
        let mut spike = drifted_obs(t, 20.0);
        spike.wavefront = 1;
        assert_eq!(ctrl.observe(&spike).unwrap(), None);
        assert_eq!(ctrl.metrics().triggers, 1);
        assert_eq!(ctrl.metrics().switches, 1);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mk = |opts: AdaptOptions| {
            AdaptController::new(
                &plan,
                &c,
                CostWeights::default(),
                &vec![1; plan.len()],
                ConstraintMap::new(),
                opts,
            )
        };
        assert!(mk(AdaptOptions { max_pace: 0, ..AdaptOptions::default() }).is_err());
        // Wrong pace arity.
        assert!(AdaptController::new(
            &plan,
            &c,
            CostWeights::default(),
            &[1],
            ConstraintMap::new(),
            AdaptOptions::default()
        )
        .is_err());
    }
}
