//! Whole-plan cost estimation with memoization (Algorithm 1 of the paper).
//!
//! The estimator walks the subplans children-first; each subplan's
//! simulation result is memoized keyed by its *private pace configuration* —
//! the paces of the subplan and all of its descendants — because those are
//! exactly the inputs its private total/final work and output cardinality
//! depend on. The greedy pace search evaluates many configurations that
//! differ in a single subplan's pace; with the memo only that subplan and
//! its ancestors are re-simulated.
//!
//! A search step costs its candidates next to the report of the
//! configuration it stands on ([`PlanEstimator::estimate_candidate`]): only
//! the changed cone — the changed subplans and their ancestors — builds a
//! memo key, and every other subplan reads its costs from that report. A
//! candidate yields total work and per-query final work in a buffer the
//! estimator reuses; only the step's winner becomes a [`CostReport`]
//! ([`PlanEstimator::keep_candidate`], [`PlanEstimator::adopt_kept`]).

use crate::simulate::{SimProgram, SimScratch, SubplanSim};
use crate::stats::StreamEstimate;
use ishare_common::{
    CostWeights, Error, FxHashMap, QueryId, QuerySet, Result, SubplanId, TableId, WorkUnits,
};
use ishare_plan::{InputSource, SharedPlan};
use ishare_storage::Catalog;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The estimator's view of one pace configuration.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Total work C_T(P): sum of every subplan's private total work.
    pub total_work: WorkUnits,
    /// Final work C_F(P, q) per query: sum of the private final work of the
    /// query's subplans.
    pub final_work: BTreeMap<QueryId, WorkUnits>,
    /// Private total work per subplan.
    pub subplan_total: Vec<f64>,
    /// Private final work per subplan.
    pub subplan_final: Vec<f64>,
    /// Simulation result per subplan, shared with the estimator's memo; its
    /// `output` is the subplan's full-trigger output estimate.
    pub subplan_output: Vec<Arc<SubplanSim>>,
    /// The estimator's statistics epoch when the report was made: a report
    /// older than a [`PlanEstimator::refresh_base`] that changed a stream is
    /// no base for a candidate.
    epoch: u64,
}

impl CostReport {
    /// Final work of one query.
    pub fn final_of(&self, q: QueryId) -> WorkUnits {
        self.final_work.get(&q).copied().unwrap_or(WorkUnits::ZERO)
    }
}

/// What the pace searches and the incrementability metric read of a costed
/// pace configuration: its total work and each query's final work. A
/// [`CostReport`] answers it, and so does the [`CandidateCost`] of a search
/// step.
pub trait PlanCost {
    /// Total work C_T(P).
    fn total_work(&self) -> WorkUnits;
    /// Final work C_F(P, q) of one query; zero for a query the plan does not
    /// serve.
    fn final_of(&self, q: QueryId) -> WorkUnits;
}

impl PlanCost for CostReport {
    fn total_work(&self) -> WorkUnits {
        self.total_work
    }

    fn final_of(&self, q: QueryId) -> WorkUnits {
        CostReport::final_of(self, q)
    }
}

/// One candidate's costs from [`PlanEstimator::estimate_candidate`]: total
/// work, and per-query final work borrowed from the estimator's buffer,
/// which the next call overwrites.
#[derive(Debug, Clone, Copy)]
pub struct CandidateCost<'a> {
    total_work: WorkUnits,
    /// Final work indexed by `QueryId`.
    finals: &'a [f64],
}

impl PlanCost for CandidateCost<'_> {
    fn total_work(&self) -> WorkUnits {
        self.total_work
    }

    fn final_of(&self, q: QueryId) -> WorkUnits {
        WorkUnits(self.finals.get(q.index()).copied().unwrap_or(0.0))
    }
}

/// One base table's observed full-trigger statistics, fed back into the
/// estimator by the runtime adaptation controller. Both fields are derived
/// from deterministic delta counts (never wall-clock), so a refresh driven
/// by them replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedBase {
    /// Extrapolated full-trigger row count (delivered rows scaled up by the
    /// inverse of the arrival fraction observed so far).
    pub rows: f64,
    /// Observed fraction of delta rows that are retractions.
    pub delete_frac: f64,
}

/// Cheap observability into memo effectiveness (Fig. 15's mechanism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstimatorCounters {
    /// Subplan simulations actually run.
    pub simulations: usize,
    /// Simulations skipped thanks to the memo.
    pub memo_hits: usize,
}

/// Memoized whole-plan cost estimator, bound to one [`SharedPlan`].
pub struct PlanEstimator {
    plan: SharedPlan,
    weights: CostWeights,
    /// Children-first subplan order.
    topo: Vec<SubplanId>,
    /// Per subplan: its children's indices (a candidate's changed cone
    /// spreads from a child to its parents).
    children: Vec<Vec<usize>>,
    /// Per subplan: sorted list of (that subplan + descendants) — the key
    /// domain of its private pace configuration.
    descendants: Vec<Vec<SubplanId>>,
    /// Per subplan: its compiled simulation program.
    programs: Vec<SimProgram>,
    /// Per subplan: the base tables its input cone reads (its own and its
    /// descendants'), sorted — what [`PlanEstimator::refresh_base`]
    /// invalidates by.
    cone_tables: Vec<Vec<TableId>>,
    /// Base-table full-trigger stream estimates (`BTreeMap` so refresh and
    /// drift scans iterate in a deterministic order).
    base: BTreeMap<TableId, StreamEstimate>,
    /// Per subplan: memo from private pace configuration to simulation
    /// (Arc so hits are O(1), not a deep clone of the stream estimate).
    memo: Vec<FxHashMap<Vec<u32>, Arc<SubplanSim>>>,
    /// Bumped by every [`PlanEstimator::refresh_base`] that changes a
    /// stream; stamped on each report.
    epoch: u64,
    /// The memo key under construction; per subplan, whether the call under
    /// way costs it afresh (its changed cone) or reads it from a base
    /// report, its simulation if costed afresh, and its private final work;
    /// per query, its final work; the simulations of the candidate
    /// [`PlanEstimator::keep_candidate`] kept; and the simulator's buffers.
    /// All reused across calls, so an estimate allocates only its report
    /// and each miss only its memo entry.
    key: Vec<u32>,
    dirty: Vec<bool>,
    sims: Vec<Option<Arc<SubplanSim>>>,
    subplan_final: Vec<f64>,
    finals: Vec<f64>,
    kept: Vec<Option<Arc<SubplanSim>>>,
    scratch: SimScratch,
    /// Hit/miss counters.
    pub counters: EstimatorCounters,
    /// When `false`, [`PlanEstimator::estimate`] behaves like
    /// [`PlanEstimator::estimate_unmemoized`] — used to run whole searches
    /// without memoization (the Fig. 15 `w/o memo` variant).
    memo_enabled: bool,
}

impl PlanEstimator {
    /// Build an estimator for `plan` using the catalog's table statistics.
    pub fn new(plan: &SharedPlan, catalog: &Catalog, weights: CostWeights) -> Result<Self> {
        let topo = plan.topo_order()?;
        let n = plan.subplans.len();

        let programs: Vec<SimProgram> =
            plan.subplans.iter().map(SimProgram::compile).collect::<Result<_>>()?;
        let tables_of = |i: usize| {
            programs[i].leaves().iter().filter_map(|src| match src {
                InputSource::Base(t) => Some(*t),
                InputSource::Subplan(_) => None,
            })
        };

        let children: Vec<Vec<usize>> = plan
            .subplans
            .iter()
            .map(|sp| sp.children().iter().map(|c| c.index()).collect())
            .collect();
        // Descendant closure and the tables under it (children-first order
        // makes one pass enough).
        let mut descendants: Vec<Vec<SubplanId>> = vec![Vec::new(); n];
        let mut cone_tables: Vec<Vec<TableId>> = vec![Vec::new(); n];
        for &id in &topo {
            let mut set: Vec<SubplanId> = vec![id];
            for &c in &children[id.index()] {
                for &d in &descendants[c] {
                    if !set.contains(&d) {
                        set.push(d);
                    }
                }
            }
            set.sort();
            let mut tables: Vec<TableId> = set.iter().flat_map(|d| tables_of(d.index())).collect();
            tables.sort();
            tables.dedup();
            descendants[id.index()] = set;
            cone_tables[id.index()] = tables;
        }

        // Base streams: every row of a base table is valid for every query
        // of the whole plan (leaf narrowing restricts per subplan).
        let queries = plan.queries();
        let mut base = BTreeMap::new();
        for i in 0..n {
            for t in tables_of(i) {
                if let std::collections::btree_map::Entry::Vacant(e) = base.entry(t) {
                    let def = catalog.table(t)?;
                    e.insert(StreamEstimate::insert_only(
                        def.stats.row_count,
                        queries,
                        def.stats.columns.clone(),
                    ));
                }
            }
        }

        Ok(PlanEstimator {
            plan: plan.clone(),
            weights,
            topo,
            children,
            descendants,
            programs,
            cone_tables,
            base,
            memo: vec![FxHashMap::default(); n],
            epoch: 0,
            key: Vec::new(),
            dirty: vec![true; n],
            sims: vec![None; n],
            subplan_final: vec![0.0; n],
            finals: vec![0.0; QuerySet::MAX_QUERIES],
            kept: vec![None; n],
            scratch: SimScratch::default(),
            counters: EstimatorCounters::default(),
            memo_enabled: true,
        })
    }

    /// Enable or disable memoization for subsequent [`PlanEstimator::estimate`]
    /// calls.
    pub fn set_memo_enabled(&mut self, on: bool) {
        self.memo_enabled = on;
    }

    /// The plan this estimator is bound to.
    pub fn plan(&self) -> &SharedPlan {
        &self.plan
    }

    /// The current base-stream estimate for `t`, if the plan references it.
    pub fn base_estimate(&self, t: TableId) -> Option<&StreamEstimate> {
        self.base.get(&t)
    }

    /// The base tables the plan references, in deterministic order.
    pub fn base_tables(&self) -> Vec<TableId> {
        self.base.keys().copied().collect()
    }

    /// Refresh one base table's stream statistics from observed quantities.
    ///
    /// The row estimate is rescaled via [`crate::stats::CardVec::scaled`] so
    /// the per-query structure (which leaf narrowing established) is
    /// preserved; column statistics are kept. Exactly the memo entries of subplans whose input
    /// cone references `t` are invalidated, so re-optimizations after a
    /// refresh still reuse every simulation the change cannot affect.
    ///
    /// Returns `true` iff the estimate actually changed (and memos were
    /// dropped).
    pub fn refresh_base(&mut self, t: TableId, observed: ObservedBase) -> Result<bool> {
        if !observed.rows.is_finite() || observed.rows < 0.0 || !observed.delete_frac.is_finite() {
            return Err(Error::InvalidConfig(format!(
                "non-finite observed stats for {t}: rows {} delete_frac {}",
                observed.rows, observed.delete_frac
            )));
        }
        let queries = self.plan.queries();
        let est =
            self.base.get_mut(&t).ok_or_else(|| Error::NotFound(format!("base stream {t}")))?;
        let new_delete_frac = observed.delete_frac.clamp(0.0, 0.95);
        let old_rows = est.rows.total;
        let row_change = if old_rows > 0.0 {
            (observed.rows / old_rows - 1.0).abs()
        } else if observed.rows > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let changed = row_change > 1e-12 || (est.delete_frac - new_delete_frac).abs() > 1e-12;
        if !changed {
            return Ok(false);
        }
        est.rows = if old_rows > 0.0 {
            est.rows.scaled(observed.rows / old_rows)
        } else {
            crate::stats::CardVec::uniform(observed.rows, queries)
        };
        est.delete_frac = new_delete_frac;
        self.epoch += 1;
        // Cone-scoped invalidation: subplan `i` depends on `t` iff `t` is
        // referenced by `i` or any of its descendants.
        for (memo, tables) in self.memo.iter_mut().zip(&self.cone_tables) {
            if tables.binary_search(&t).is_ok() {
                memo.clear();
            }
        }
        Ok(true)
    }

    /// Estimate a pace configuration (one pace per subplan, positionally).
    pub fn estimate(&mut self, paces: &[u32]) -> Result<CostReport> {
        self.estimate_inner(paces, self.memo_enabled)
    }

    /// Estimate without the memo — recomputing every subplan from scratch,
    /// like the original simulation algorithm the paper compares against in
    /// Fig. 15 (`iShare (w/o memo)`).
    pub fn estimate_unmemoized(&mut self, paces: &[u32]) -> Result<CostReport> {
        self.estimate_inner(paces, false)
    }

    /// The full-trigger estimate of each leaf of subplan `sp`, in leaf-slot
    /// order (the Fig. 7 input cardinalities the decomposition algorithm
    /// consumes): a base stream, or a child's output in `report`, an
    /// estimate of this estimator's plan.
    pub fn leaf_inputs(&self, report: &CostReport, sp: SubplanId) -> Result<Vec<StreamEstimate>> {
        let program = self
            .programs
            .get(sp.index())
            .ok_or_else(|| Error::NotFound(format!("subplan {sp}")))?;
        let child = |c: usize| report.subplan_output.get(c).map(|sim| &**sim);
        program
            .leaves()
            .iter()
            .map(|&src| Ok(leaf_input(src, &self.base, child, sp)?.clone()))
            .collect()
    }

    /// Cost `paces`, a candidate one search step from `base_paces`, whose
    /// report is `base`: the inner loop of the pace searches.
    ///
    /// Only the changed cone — every subplan whose own or a descendant's
    /// pace differs from `base_paces` — is looked up in the memo or
    /// simulated. Every other subplan takes its private total and final
    /// work from `base` and counts as a memo hit, as the lookup in
    /// [`PlanEstimator::estimate`] would. Total work is summed children
    /// first and each query's final work in subplan order, as there, so
    /// both equal `estimate(paces)`'s to the bit and the counters advance
    /// alike. With the memo disabled nothing is reused: every subplan
    /// re-simulates.
    ///
    /// No report is built: [`PlanEstimator::keep_candidate`] keeps this
    /// candidate's simulations and [`PlanEstimator::adopt_kept`] turns `base`
    /// into its report. `base` must be this estimator's report of
    /// `base_paces`; one made before a [`PlanEstimator::refresh_base`] that
    /// changed a stream is [`Error::InvalidConfig`].
    pub fn estimate_candidate(
        &mut self,
        base: &CostReport,
        base_paces: &[u32],
        paces: &[u32],
    ) -> Result<CandidateCost<'_>> {
        self.check_base(base)?;
        self.check_paces(base_paces)?;
        self.check_paces(paces)?;
        let reuse = self.memo_enabled.then_some((base, base_paces));
        let total_work = self.cost_cone(paces, reuse, self.memo_enabled)?;
        sum_finals(&self.plan, &self.subplan_final, &mut self.finals);
        Ok(CandidateCost { total_work, finals: &self.finals })
    }

    /// Keep the simulations of the candidate last costed by
    /// [`PlanEstimator::estimate_candidate`], replacing any kept before.
    pub fn keep_candidate(&mut self) {
        std::mem::swap(&mut self.sims, &mut self.kept);
    }

    /// Turn `base` into the report of the kept candidate, which was costed
    /// next to it: the kept simulations replace its changed cone and the
    /// sums are redone in [`PlanEstimator::estimate`]'s order. Counts
    /// nothing: the candidate was counted when it was costed.
    pub fn adopt_kept(&mut self, base: &mut CostReport) -> Result<()> {
        self.check_base(base)?;
        for (i, kept) in self.kept.iter_mut().enumerate() {
            if let Some(sim) = kept.take() {
                base.subplan_total[i] = sim.private_total;
                base.subplan_final[i] = sim.private_final;
                base.subplan_output[i] = sim;
            }
        }
        base.total_work = WorkUnits::ZERO;
        for id in &self.topo {
            base.total_work += WorkUnits(base.subplan_total[id.index()]);
        }
        sum_finals(&self.plan, &base.subplan_final, &mut self.finals);
        for (q, w) in &mut base.final_work {
            *w = WorkUnits(self.finals[q.index()]);
        }
        Ok(())
    }

    fn check_paces(&self, paces: &[u32]) -> Result<()> {
        let n = self.plan.subplans.len();
        if paces.len() != n {
            return Err(Error::InvalidConfig(format!("{} paces for {n} subplans", paces.len())));
        }
        if let Some(&bad) = paces.iter().find(|&&p| p == 0) {
            return Err(Error::InvalidConfig(format!("pace {bad} must be >= 1")));
        }
        Ok(())
    }

    fn check_base(&self, base: &CostReport) -> Result<()> {
        let n = self.plan.subplans.len();
        if base.epoch != self.epoch {
            return Err(Error::InvalidConfig(
                "base report predates a refresh of the base streams".into(),
            ));
        }
        if [base.subplan_total.len(), base.subplan_final.len(), base.subplan_output.len()]
            .iter()
            .any(|&len| len != n)
        {
            return Err(Error::InvalidConfig(format!("base report is not of a {n}-subplan plan")));
        }
        Ok(())
    }

    fn estimate_inner(&mut self, paces: &[u32], use_memo: bool) -> Result<CostReport> {
        self.check_paces(paces)?;
        let total_work = self.cost_cone(paces, None, use_memo)?;
        let mut final_work = BTreeMap::new();
        for q in sum_finals(&self.plan, &self.subplan_final, &mut self.finals).iter() {
            final_work.insert(q, WorkUnits(self.finals[q.index()]));
        }
        let mut subplan_output = Vec::with_capacity(self.sims.len());
        subplan_output.extend(self.sims.iter_mut().filter_map(Option::take));
        Ok(CostReport {
            total_work,
            final_work,
            subplan_total: subplan_output.iter().map(|sim| sim.private_total).collect(),
            subplan_final: self.subplan_final.clone(),
            subplan_output,
            epoch: self.epoch,
        })
    }

    /// Cost every subplan children first and return the total work, summed
    /// in that order. Without `reuse` every subplan is costed afresh; with
    /// it, only the cone whose paces differ from the base's, and the rest
    /// read the base report. A subplan costed afresh is looked up in the
    /// memo (if `use_memo`) or simulated, and lands in `sims`; every
    /// subplan's private final work lands in `subplan_final`.
    fn cost_cone(
        &mut self,
        paces: &[u32],
        reuse: Option<(&CostReport, &[u32])>,
        use_memo: bool,
    ) -> Result<WorkUnits> {
        let PlanEstimator {
            weights,
            topo,
            children,
            descendants,
            programs,
            base,
            memo,
            key,
            dirty,
            sims,
            subplan_final,
            scratch,
            counters,
            ..
        } = self;
        sims.iter_mut().for_each(|sim| *sim = None);
        dirty.fill(true);
        let mut total_work = WorkUnits::ZERO;
        for &id in topo.iter() {
            let i = id.index();
            let reused = reuse.filter(|&(_, base_paces)| {
                paces[i] == base_paces[i] && children[i].iter().all(|&c| !dirty[c])
            });
            dirty[i] = reused.is_none();
            let (private_total, private_final) = match reused {
                Some((report, _)) => {
                    counters.memo_hits += 1;
                    (report.subplan_total[i], report.subplan_final[i])
                }
                None => {
                    let program = &programs[i];
                    key.clear();
                    key.extend(descendants[i].iter().map(|d| paces[d.index()]));
                    let hit = if use_memo { memo[i].get(key.as_slice()).cloned() } else { None };
                    let sim = match hit {
                        Some(sim) => {
                            counters.memo_hits += 1;
                            sim
                        }
                        // Only a miss reads the leaf inputs: children's
                        // outputs are borrowed from their simulations,
                        // never copied.
                        None => {
                            counters.simulations += 1;
                            let done = |c: usize| match reuse {
                                Some((report, _)) if !dirty[c] => {
                                    report.subplan_output.get(c).map(|sim| &**sim)
                                }
                                _ => sims[c].as_deref(),
                            };
                            let input =
                                |leaf: usize| leaf_input(program.leaves()[leaf], base, done, id);
                            let sim = Arc::new(program.run(paces[i], input, weights, scratch)?);
                            if use_memo {
                                memo[i].insert(key.clone(), sim.clone());
                            }
                            sim
                        }
                    };
                    let costs = (sim.private_total, sim.private_final);
                    sims[i] = Some(sim);
                    costs
                }
            };
            total_work += WorkUnits(private_total);
            subplan_final[i] = private_final;
        }
        if let Some(i) = dirty.iter().zip(sims.iter()).position(|(&d, sim)| d && sim.is_none()) {
            return Err(Error::InvalidPlan(format!(
                "subplan {i} missing from topological order (malformed DAG)"
            )));
        }
        Ok(total_work)
    }
}

/// Per query, its subplans' private final work summed in subplan order,
/// into `finals` (indexed by `QueryId`); returns the queries the plan
/// serves.
fn sum_finals(plan: &SharedPlan, subplan_final: &[f64], finals: &mut [f64]) -> QuerySet {
    finals.fill(0.0);
    let mut queries = QuerySet::EMPTY;
    for sp in &plan.subplans {
        queries = queries.union(sp.queries);
        for q in sp.queries.iter() {
            finals[q.index()] += subplan_final[sp.id.index()];
        }
    }
    queries
}

/// One leaf's full-trigger estimate: a base stream, or the output of a
/// child, found by its index through `child`.
fn leaf_input<'a>(
    src: InputSource,
    base: &'a BTreeMap<TableId, StreamEstimate>,
    child: impl FnOnce(usize) -> Option<&'a SubplanSim>,
    id: SubplanId,
) -> Result<&'a StreamEstimate> {
    match src {
        InputSource::Base(t) => {
            base.get(&t).ok_or_else(|| Error::NotFound(format!("base stream {t}")))
        }
        InputSource::Subplan(c) => child(c.index())
            .map(|sim| &sim.output)
            .ok_or_else(|| Error::InvalidPlan(format!("child {c} output missing for {id}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{DataType, QuerySet};
    use ishare_expr::Expr;
    use ishare_mqo_like::*;

    /// Build a small shared plan without depending on ishare-mqo (dependency
    /// direction): handcrafted DAG equivalent to two queries sharing an
    /// aggregate, one adding a further join.
    mod ishare_mqo_like {
        pub use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag};
        pub use ishare_storage::{ColumnStats, Field, Schema, TableStats};
    }
    use ishare_plan::SharedPlan;
    use ishare_storage::Catalog;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 10_000.0,
                columns: vec![ColumnStats::ndv(50.0), ColumnStats::ndv(1000.0)],
            },
        )
        .unwrap();
        c.add_table(
            "u",
            Schema::new(vec![Field::new("uk", DataType::Int), Field::new("w", DataType::Int)]),
            TableStats {
                row_count: 1_000.0,
                columns: vec![ColumnStats::ndv(50.0), ColumnStats::ndv(100.0)],
            },
        )
        .unwrap();
        c
    }

    /// sp0 = agg(select(scan t)) shared by q0,q1;
    /// sp1 = root of q0 (project);
    /// sp2 = root of q1 (join with u + agg).
    fn fig2_plan(c: &Catalog) -> SharedPlan {
        let t = c.table_by_name("t").unwrap().id;
        let u = c.table_by_name("u").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0, 1])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).lt(Expr::lit(100i64)),
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
                DagOp::Project { exprs: vec![(Expr::col(1), "s".into())] },
                vec![agg],
                qs(&[0]),
            )
            .unwrap();
        let scan_u = d.add_node(DagOp::Input(u), vec![], qs(&[1])).unwrap();
        let join = d
            .add_node(
                DagOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
                vec![agg, scan_u],
                qs(&[1]),
            )
            .unwrap();
        let agg2 = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::new(AggFunc::Max, Expr::col(1), "m")],
                },
                vec![join],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), p0).unwrap();
        d.set_query_root(QueryId(1), agg2).unwrap();
        d.validate(c).unwrap();
        SharedPlan::from_dag(&d).unwrap()
    }

    #[test]
    fn batch_config_baseline() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let ones = vec![1u32; plan.len()];
        let rep = est.estimate(&ones).unwrap();
        assert!(rep.total_work.get() > 0.0);
        assert_eq!(rep.final_work.len(), 2);
        // Batch execution: final work equals total work per subplan.
        for i in 0..plan.len() {
            assert!((rep.subplan_total[i] - rep.subplan_final[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn eager_shared_subplan_raises_total_lowers_final() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let n = plan.len();
        let lazy = est.estimate(&vec![1; n]).unwrap();
        let mut paces = vec![1u32; n];
        paces[0] = 10; // the shared aggregate subplan
        let eager = est.estimate(&paces).unwrap();
        assert!(eager.total_work > lazy.total_work);
        // The eager subplan's own final execution is cheaper…
        assert!(eager.subplan_final[0] < lazy.subplan_final[0]);
        // …but its churn inflates the lazy parents' inputs: q1's parent
        // (a MAX aggregate) sees retractions and its final work grows. This
        // is exactly the eager-execution overhead the paper optimizes away.
        let q1_root = plan.query_root(QueryId(1)).unwrap();
        assert!(eager.subplan_final[q1_root.index()] > lazy.subplan_final[q1_root.index()]);
    }

    #[test]
    fn memo_avoids_resimulation() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let n = plan.len();
        est.estimate(&vec![1; n]).unwrap();
        let sims_first = est.counters.simulations;
        assert_eq!(sims_first, n);
        // Same config again: all hits.
        est.estimate(&vec![1; n]).unwrap();
        assert_eq!(est.counters.simulations, sims_first);
        assert_eq!(est.counters.memo_hits, n);
        // Change only a root subplan's pace: descendants are hits.
        let root = plan.query_root(QueryId(0)).unwrap();
        let mut paces = vec![1u32; n];
        paces[root.index()] = 2;
        est.estimate(&paces).unwrap();
        assert_eq!(
            est.counters.simulations,
            sims_first + 1,
            "only the changed subplan re-simulates"
        );
    }

    /// Every float of a report, as bits.
    fn report_bits(r: &CostReport) -> Vec<u64> {
        let mut bits = vec![r.total_work.get().to_bits()];
        bits.extend(r.final_work.iter().flat_map(|(q, w)| [u64::from(q.0), w.get().to_bits()]));
        for (i, sim) in r.subplan_output.iter().enumerate() {
            assert_eq!(r.subplan_total[i].to_bits(), sim.private_total.to_bits());
            assert_eq!(r.subplan_final[i].to_bits(), sim.private_final.to_bits());
            bits.extend([sim.private_total, sim.private_final].map(f64::to_bits));
            let out = &sim.output;
            bits.extend([out.rows.total, out.delete_frac].map(f64::to_bits));
            bits.extend(out.rows.per_query.iter().flat_map(|(&q, n)| [u64::from(q), n.to_bits()]));
            bits.extend(out.cols.iter().map(|c| c.ndv.to_bits()));
        }
        bits
    }

    /// All 22 TPC-H queries merged into one shared plan, with its catalog.
    fn tpch22() -> (Catalog, SharedPlan) {
        let data = ishare_tpch::generate(0.002, 7).unwrap();
        let queries: Vec<_> = ishare_tpch::all_queries(&data.catalog)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, q)| (QueryId(i as u16), ishare_mqo::normalize(&q.plan)))
            .collect();
        let dag =
            ishare_mqo::build_shared_dag(&queries, &data.catalog, &Default::default()).unwrap();
        let plan = SharedPlan::from_dag(&dag).unwrap();
        (data.catalog, plan)
    }

    /// A seeded draw in `0..n`.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |n| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        }
    }

    /// A plan-respecting pace vector (no parent above a child), paces in
    /// `1..=6`.
    fn respecting_paces(plan: &SharedPlan, draw: &mut impl FnMut(u64) -> u64) -> Vec<u32> {
        let mut paces = vec![1u32; plan.len()];
        for id in plan.topo_order().unwrap() {
            let children = plan.subplans[id.index()].children();
            let cap = children.iter().map(|c| paces[c.index()]).min().unwrap_or(6);
            paces[id.index()] = 1 + draw(u64::from(cap)) as u32;
        }
        paces
    }

    /// Refresh a drawn base table of `ests` (all of one plan) with the same
    /// drawn statistics.
    fn refresh_drawn(ests: &mut [&mut PlanEstimator], draw: &mut impl FnMut(u64) -> u64) {
        let tables = ests[0].base_tables();
        let t = tables[draw(tables.len() as u64) as usize];
        let rows = ests[0].base_estimate(t).unwrap().rows.total * (0.5 + draw(100) as f64 / 64.0);
        let delete_frac = draw(30) as f64 / 100.0;
        for est in ests {
            assert!(est.refresh_base(t, ObservedBase { rows, delete_frac }).unwrap());
        }
    }

    #[test]
    fn memoized_equals_unmemoized() {
        // The 22-query TPC-H plan, seeded plan-respecting pace vectors drawn
        // from a small range so the memo hits often, and a base-table refresh
        // every few trials: a hit on an entry the refresh should have dropped
        // would differ from the from-scratch estimate.
        let (catalog, plan) = tpch22();
        let mut est = PlanEstimator::new(&plan, &catalog, CostWeights::default()).unwrap();
        let mut draw = rng(7);
        for trial in 0..60 {
            if trial % 4 == 3 {
                refresh_drawn(&mut [&mut est], &mut draw);
            }
            let paces = respecting_paces(&plan, &mut draw);
            let hits = est.counters.memo_hits;
            let memoized = est.estimate(&paces).unwrap();
            let scratch = est.estimate_unmemoized(&paces).unwrap();
            assert_eq!(report_bits(&memoized), report_bits(&scratch), "trial {trial}: {paces:?}");
            assert!(trial == 0 || est.counters.memo_hits > hits, "trial {trial} never hit");
        }
    }

    /// Total work and every query's final work of a costed configuration,
    /// as bits.
    fn cost_bits(cost: &impl PlanCost, plan: &SharedPlan) -> Vec<u64> {
        let mut bits = vec![cost.total_work().get().to_bits()];
        bits.extend(plan.queries().iter().map(|q| cost.final_of(q).get().to_bits()));
        bits
    }

    #[test]
    fn candidates_equal_estimates() {
        // Two estimators of the 22-query TPC-H plan see the same calls: a
        // seeded plan-respecting base, then one- and two-subplan steps from
        // it. One costs each step as a candidate next to the base's report,
        // the other estimates it whole. Costs must agree to the bit and the
        // counters must advance alike, with the memo on, after base-stream
        // refreshes, and with the memo off; the step kept last must become
        // the report `estimate` gives.
        let (catalog, plan) = tpch22();
        let new = || PlanEstimator::new(&plan, &catalog, CostWeights::default()).unwrap();
        let (mut cand_est, mut whole_est) = (new(), new());
        let n = plan.len();
        let mut draw = rng(11);
        for base_no in 0..24 {
            if base_no == 16 {
                cand_est.set_memo_enabled(false);
                whole_est.set_memo_enabled(false);
            }
            let base_paces = respecting_paces(&plan, &mut draw);
            let mut base = cand_est.estimate(&base_paces).unwrap();
            whole_est.estimate(&base_paces).unwrap();
            if base_no % 4 == 3 {
                refresh_drawn(&mut [&mut cand_est, &mut whole_est], &mut draw);
                let stale = cand_est.estimate_candidate(&base, &base_paces, &base_paces);
                assert!(matches!(stale, Err(Error::InvalidConfig(_))), "base {base_no}");
                base = cand_est.estimate(&base_paces).unwrap();
                whole_est.estimate(&base_paces).unwrap();
            }
            let mut kept = None;
            for step in 0..12 {
                let mut paces = base_paces.clone();
                for _ in 0..1 + step % 2 {
                    let i = draw(n as u64) as usize;
                    paces[i] =
                        if paces[i] > 1 && draw(2) == 0 { paces[i] - 1 } else { paces[i] + 1 };
                }
                let (cand_before, whole_before) = (cand_est.counters, whole_est.counters);
                let cand = cost_bits(
                    &cand_est.estimate_candidate(&base, &base_paces, &paces).unwrap(),
                    &plan,
                );
                let whole = cost_bits(&whole_est.estimate(&paces).unwrap(), &plan);
                assert_eq!(cand, whole, "base {base_no} step {step}: {paces:?}");
                let advance = |after: EstimatorCounters, before: EstimatorCounters| {
                    (after.simulations - before.simulations, after.memo_hits - before.memo_hits)
                };
                assert_eq!(
                    advance(cand_est.counters, cand_before),
                    advance(whole_est.counters, whole_before),
                    "base {base_no} step {step}: counters"
                );
                if draw(3) == 0 {
                    cand_est.keep_candidate();
                    kept = Some(paces);
                }
            }
            if let Some(paces) = kept {
                cand_est.adopt_kept(&mut base).unwrap();
                let want = whole_est.estimate(&paces).unwrap();
                assert_eq!(report_bits(&base), report_bits(&want), "base {base_no}: adopted");
            }
        }
    }

    #[test]
    fn report_shape() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let rep = est.estimate(&vec![2; plan.len()]).unwrap();
        assert_eq!(rep.subplan_output.len(), plan.len());
        let inputs = est.leaf_inputs(&rep, SubplanId(0)).unwrap();
        assert_eq!(inputs.len(), 1, "the shared subplan reads one scan");
        // The shared subplan's output feeds two parents; its estimate must
        // track per-query cardinalities for both.
        let shared = &rep.subplan_output[0].output;
        assert!(shared.rows.query(QueryId(0)) > 0.0);
        assert!(shared.rows.query(QueryId(1)) > 0.0);
        assert!(shared.delete_frac > 0.0, "pace 2 aggregate churns");
        // Final work sums subplans per query.
        let q1_subplans: Vec<_> = plan.subplans_of_query(QueryId(1));
        let sum: f64 = q1_subplans.iter().map(|id| rep.subplan_final[id.index()]).sum();
        assert!((rep.final_of(QueryId(1)).get() - sum).abs() < 1e-9);
    }

    #[test]
    fn bad_configs_rejected() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        assert!(est.estimate(&[1, 1]).is_err());
        assert!(est.estimate(&vec![0; plan.len()]).is_err());
    }

    #[test]
    fn malformed_topo_order_errors_instead_of_panicking() {
        // Regression: a topological order that misses a subplan used to hit
        // `o.expect("all subplans simulated")` and abort the process. With
        // re-optimization calling the estimator at runtime, a malformed DAG
        // must surface as Err.
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        est.topo.pop(); // corrupt: drop a root subplan from the order
        let r = est.estimate(&vec![1; plan.len()]);
        assert!(r.is_err(), "missing subplan must be an error, not a panic");
        let msg = format!("{}", r.unwrap_err());
        assert!(msg.contains("topological order"), "got: {msg}");
    }

    #[test]
    fn refresh_base_invalidates_only_the_affected_cone() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let n = plan.len();
        let paces = vec![2u32; n];
        let before = est.estimate(&paces).unwrap();
        let sims_full = est.counters.simulations;
        assert_eq!(sims_full, n);

        // Table `u` only feeds the join subplan (q1's root chain); sp0 (the
        // shared aggregate over `t`) and q0's project must keep their memos.
        let u = c.table_by_name("u").unwrap().id;
        let changed =
            est.refresh_base(u, ObservedBase { rows: 4_000.0, delete_frac: 0.1 }).unwrap();
        assert!(changed);
        let after = est.estimate(&paces).unwrap();
        let resimulated = est.counters.simulations - sims_full;
        assert_eq!(resimulated, 1, "only the join subplan's cone touches u");
        assert!(
            after.total_work.get() > before.total_work.get(),
            "4x the rows of u must cost more"
        );

        // Refreshing with identical stats is a no-op: no memo loss.
        let sims_now = est.counters.simulations;
        let changed =
            est.refresh_base(u, ObservedBase { rows: 4_000.0, delete_frac: 0.1 }).unwrap();
        assert!(!changed);
        est.estimate(&paces).unwrap();
        assert_eq!(est.counters.simulations, sims_now, "all memo hits after no-op refresh");
    }

    #[test]
    fn refresh_base_rejects_bad_inputs() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let t = c.table_by_name("t").unwrap().id;
        assert!(est.refresh_base(t, ObservedBase { rows: f64::NAN, delete_frac: 0.0 }).is_err());
        assert!(est.refresh_base(t, ObservedBase { rows: -1.0, delete_frac: 0.0 }).is_err());
        assert!(est.refresh_base(t, ObservedBase { rows: 1.0, delete_frac: f64::NAN }).is_err());
        assert!(est
            .refresh_base(TableId(99), ObservedBase { rows: 1.0, delete_frac: 0.0 })
            .is_err());
    }
}
