//! Whole-plan cost estimation with memoization (Algorithm 1 of the paper).
//!
//! The estimator walks the subplans children-first; each subplan's
//! simulation result is memoized keyed by its *private pace configuration* —
//! the paces of the subplan and all of its descendants — because those are
//! exactly the inputs its private total/final work and output cardinality
//! depend on. The greedy pace search evaluates many configurations that
//! differ in a single subplan's pace; with the memo only that subplan and
//! its ancestors are re-simulated.

use crate::simulate::{SimProgram, SimScratch, SubplanSim};
use crate::stats::StreamEstimate;
use ishare_common::{
    CostWeights, Error, FxHashMap, QueryId, QuerySet, Result, SubplanId, TableId, WorkUnits,
};
use ishare_plan::{InputSource, SharedPlan};
use ishare_storage::Catalog;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Leaf input estimates per subplan, keyed by leaf path. A `BTreeMap` so
/// every iteration over the inputs (decomposition, debugging output) is
/// deterministic — `HashMap` order escaping into tie-breaking was the bug
/// class behind cross-process nondeterminism.
pub type LeafInputs = BTreeMap<Vec<usize>, StreamEstimate>;

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
    /// Full-trigger input estimate per subplan leaf (the Fig. 7 input
    /// cardinalities the decomposition algorithm consumes).
    pub subplan_inputs: Vec<LeafInputs>,
    /// Simulation result per subplan, shared with the estimator's memo; its
    /// `output` is the subplan's full-trigger output estimate.
    pub subplan_output: Vec<Arc<SubplanSim>>,
}

impl CostReport {
    /// Final work of one query.
    pub fn final_of(&self, q: QueryId) -> WorkUnits {
        self.final_work.get(&q).copied().unwrap_or(WorkUnits::ZERO)
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
    /// The memo key under construction, each subplan's simulation in the
    /// call under way, and the simulator's buffers: reused across calls so
    /// a call allocates only its report and each miss only its memo entry.
    key: Vec<u32>,
    sims: Vec<Option<Arc<SubplanSim>>>,
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

        let programs: Vec<SimProgram> = plan.subplans.iter().map(SimProgram::compile).collect();
        let tables_of = |i: usize| {
            programs[i].leaves().iter().filter_map(|(_, src)| match src {
                InputSource::Base(t) => Some(*t),
                InputSource::Subplan(_) => None,
            })
        };

        // Descendant closure and the tables under it (children-first order
        // makes one pass enough).
        let mut descendants: Vec<Vec<SubplanId>> = vec![Vec::new(); n];
        let mut cone_tables: Vec<Vec<TableId>> = vec![Vec::new(); n];
        for &id in &topo {
            let mut set: Vec<SubplanId> = vec![id];
            for c in plan.subplans[id.index()].children() {
                for &d in &descendants[c.index()] {
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
            descendants,
            programs,
            cone_tables,
            base,
            memo: vec![FxHashMap::default(); n],
            key: Vec::new(),
            sims: Vec::new(),
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
    /// The report's `subplan_inputs` is left empty — the pace searches call
    /// this tens of thousands of times and only the decomposition pass needs
    /// the per-leaf stream estimates; use
    /// [`PlanEstimator::estimate_detailed`] for those.
    pub fn estimate(&mut self, paces: &[u32]) -> Result<CostReport> {
        self.estimate_inner(paces, self.memo_enabled, false)
    }

    /// Like [`PlanEstimator::estimate`] but also collects each subplan's
    /// full-trigger leaf input estimates (the Fig. 7 cardinalities the
    /// decomposition algorithm consumes).
    pub fn estimate_detailed(&mut self, paces: &[u32]) -> Result<CostReport> {
        self.estimate_inner(paces, self.memo_enabled, true)
    }

    /// Estimate without the memo — recomputing every subplan from scratch,
    /// like the original simulation algorithm the paper compares against in
    /// Fig. 15 (`iShare (w/o memo)`).
    pub fn estimate_unmemoized(&mut self, paces: &[u32]) -> Result<CostReport> {
        self.estimate_inner(paces, false, false)
    }

    fn estimate_inner(
        &mut self,
        paces: &[u32],
        use_memo: bool,
        collect_inputs: bool,
    ) -> Result<CostReport> {
        let n = self.plan.subplans.len();
        if paces.len() != n {
            return Err(Error::InvalidConfig(format!("{} paces for {n} subplans", paces.len())));
        }
        if let Some(&bad) = paces.iter().find(|&&p| p == 0) {
            return Err(Error::InvalidConfig(format!("pace {bad} must be >= 1")));
        }
        let mut report = CostReport {
            total_work: WorkUnits::ZERO,
            final_work: BTreeMap::new(),
            subplan_total: vec![0.0; n],
            subplan_final: vec![0.0; n],
            subplan_inputs: if collect_inputs { vec![LeafInputs::new(); n] } else { Vec::new() },
            subplan_output: Vec::new(),
        };
        let PlanEstimator {
            plan,
            weights,
            topo,
            descendants,
            programs,
            base,
            memo,
            key,
            sims,
            scratch,
            counters,
            ..
        } = self;
        sims.clear();
        sims.resize(n, None);
        for &id in topo.iter() {
            let i = id.index();
            let program = &programs[i];
            key.clear();
            key.extend(descendants[i].iter().map(|d| paces[d.index()]));
            let hit = if use_memo { memo[i].get(key.as_slice()).cloned() } else { None };
            let sim = match hit {
                Some(sim) => {
                    counters.memo_hits += 1;
                    sim
                }
                // Only a miss reads the leaf inputs: children's outputs are
                // borrowed from their simulations, never copied.
                None => {
                    counters.simulations += 1;
                    let input =
                        |(_, src): &(Vec<usize>, InputSource)| leaf_input(src, base, sims, id);
                    let sim = Arc::new(program.run(paces[i], input, weights, scratch)?);
                    if use_memo {
                        memo[i].insert(key.clone(), sim.clone());
                    }
                    sim
                }
            };
            report.total_work += WorkUnits(sim.private_total);
            report.subplan_total[i] = sim.private_total;
            report.subplan_final[i] = sim.private_final;
            if collect_inputs {
                report.subplan_inputs[i] = program
                    .leaves()
                    .iter()
                    .map(|(path, src)| Ok((path.clone(), leaf_input(src, base, sims, id)?.clone())))
                    .collect::<Result<_>>()?;
            }
            sims[i] = Some(sim);
        }
        // Per query, its subplans' final work summed in subplan order.
        let mut finals = [0.0f64; QuerySet::MAX_QUERIES];
        let mut queries = QuerySet::EMPTY;
        for sp in &plan.subplans {
            queries = queries.union(sp.queries);
            for q in sp.queries.iter() {
                finals[q.index()] += report.subplan_final[sp.id.index()];
            }
        }
        for q in queries.iter() {
            report.final_work.insert(q, WorkUnits(finals[q.index()]));
        }
        report.subplan_output.reserve_exact(n);
        for (i, sim) in sims.iter_mut().enumerate() {
            report.subplan_output.push(sim.take().ok_or_else(|| {
                Error::InvalidPlan(format!(
                    "subplan {i} missing from topological order (malformed DAG)"
                ))
            })?);
        }
        Ok(report)
    }
}

/// One leaf's full-trigger estimate: a base stream, or the output of a
/// child simulated earlier in the same call.
fn leaf_input<'a>(
    src: &InputSource,
    base: &'a BTreeMap<TableId, StreamEstimate>,
    sims: &'a [Option<Arc<SubplanSim>>],
    id: SubplanId,
) -> Result<&'a StreamEstimate> {
    match src {
        InputSource::Base(t) => {
            base.get(t).ok_or_else(|| Error::NotFound(format!("base stream {t}")))
        }
        InputSource::Subplan(c) => sims[c.index()]
            .as_deref()
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
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1])).unwrap();
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
        let scan_u = d.add_node(DagOp::Scan { table: u }, vec![], qs(&[1])).unwrap();
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

    #[test]
    fn memoized_equals_unmemoized() {
        // The 22-query TPC-H plan, seeded plan-respecting pace vectors drawn
        // from a small range so the memo hits often, and a base-table refresh
        // every few trials: a hit on an entry the refresh should have dropped
        // would differ from the from-scratch estimate.
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
        let mut est = PlanEstimator::new(&plan, &data.catalog, CostWeights::default()).unwrap();
        let tables = est.base_tables();
        let topo = plan.topo_order().unwrap();
        let mut state = 7u64;
        let mut draw = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for trial in 0..60 {
            if trial % 4 == 3 {
                let t = tables[draw(tables.len() as u64) as usize];
                let rows =
                    est.base_estimate(t).unwrap().rows.total * (0.5 + draw(100) as f64 / 64.0);
                let delete_frac = draw(30) as f64 / 100.0;
                est.refresh_base(t, ObservedBase { rows, delete_frac }).unwrap();
            }
            let mut paces = vec![1u32; plan.len()];
            for id in &topo {
                let children = plan.subplans[id.index()].children();
                let cap = children.iter().map(|c| paces[c.index()]).min().unwrap_or(6);
                paces[id.index()] = 1 + draw(u64::from(cap)) as u32;
            }
            let hits = est.counters.memo_hits;
            let memoized = est.estimate(&paces).unwrap();
            let scratch = est.estimate_unmemoized(&paces).unwrap();
            assert_eq!(report_bits(&memoized), report_bits(&scratch), "trial {trial}: {paces:?}");
            assert!(trial == 0 || est.counters.memo_hits > hits, "trial {trial} never hit");
        }
    }

    #[test]
    fn report_shape() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let rep = est.estimate(&vec![2; plan.len()]).unwrap();
        assert!(rep.subplan_inputs.is_empty(), "only a detailed estimate collects inputs");
        assert_eq!(rep.subplan_output.len(), plan.len());
        let detailed = est.estimate_detailed(&vec![2; plan.len()]).unwrap();
        assert_eq!(detailed.subplan_inputs.len(), plan.len());
        assert_eq!(detailed.subplan_inputs[0].len(), 1, "the shared subplan reads one scan");
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
