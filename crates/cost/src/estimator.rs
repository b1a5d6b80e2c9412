//! Whole-plan cost estimation with memoization (Algorithm 1 of the paper).
//!
//! The estimator walks the subplans children first. Each subplan memoizes
//! its simulation keyed by what the simulation reads: its own pace and one
//! output id per child. A subplan interns every output it simulates, so
//! equal ids mean bit-identical estimates, and a parent whose children
//! re-simulate to outputs seen before is not simulated again. The paper
//! keys by the *private pace configuration* — the paces of the subplan and
//! all its descendants — which determines those inputs too, but tells
//! apart configurations that reach the same inputs (a descendant's pace
//! that does not move its output, say), and simulates each of them.
//!
//! A search step costs its candidates next to the report of the
//! configuration it stands on ([`PlanEstimator::estimate_candidate`]): the
//! walk starts at the subplans whose pace changed and climbs to their
//! ancestors only while an output moves; every other subplan reads its
//! costs from that report. A candidate yields total work and per-query
//! final work in a buffer the estimator reuses; only the step's winner
//! becomes a [`CostReport`] ([`PlanEstimator::keep_candidate`],
//! [`PlanEstimator::adopt_kept`]).

use crate::simulate::{SimProgram, SimScratch, SubplanSim};
use crate::stats::StreamEstimate;
use ishare_common::{
    CostWeights, Error, FxHashMap, FxHasher, QueryId, QuerySet, Result, SubplanId, TableId,
    WorkUnits,
};
use ishare_plan::{InputSource, SharedPlan};
use ishare_storage::Catalog;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::Arc;

/// The estimator's view of one pace configuration.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Total work C_T(P): sum of every subplan's private total work.
    pub total_work: WorkUnits,
    /// Private total work per subplan.
    pub subplan_total: Vec<f64>,
    /// Private final work per subplan.
    pub subplan_final: Vec<f64>,
    /// Simulation result per subplan, shared with the estimator's memo; its
    /// `output` is the subplan's full-trigger output estimate.
    pub subplan_output: Vec<Arc<SubplanSim>>,
    /// Final work C_F(P, q) indexed by `QueryId` — the sum of the private
    /// final work of `q`'s subplans, zero for a query the plan does not
    /// serve: what [`CostReport::final_of`], [`CostReport::final_work`] and
    /// a candidate costed next to this report read.
    finals: [f64; QuerySet::MAX_QUERIES],
    /// The queries the plan serves.
    queries: QuerySet,
    /// The estimator's statistics epoch when the report was made: a report
    /// older than a [`PlanEstimator::refresh_base`] that changed a stream is
    /// no base for a candidate.
    epoch: u64,
}

impl CostReport {
    /// Final work of one query.
    pub fn final_of(&self, q: QueryId) -> WorkUnits {
        WorkUnits(self.finals.get(q.index()).copied().unwrap_or(0.0))
    }

    /// Final work C_F(P, q) of every query the plan serves, in `QueryId`
    /// order.
    pub fn final_work(&self) -> impl Iterator<Item = (QueryId, WorkUnits)> + '_ {
        self.queries.iter().map(|q| (q, WorkUnits(self.finals[q.index()])))
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

/// One subplan's simulated outputs, interned: each distinct output holds
/// one id, and outputs equal in every field the simulator reads, compared
/// as bits, share it.
#[derive(Default)]
struct Outputs {
    /// A hash of an output's cardinalities → the index in `chain` of the
    /// latest output with that hash. Outputs that differ only in column
    /// statistics share a hash and are told apart by the comparison.
    heads: FxHashMap<u64, usize>,
    /// Every distinct output, with the index of the one before it of the
    /// same hash.
    chain: Vec<(Arc<SubplanSim>, Option<usize>)>,
}

impl Outputs {
    /// `sim` with the id of its output: that of an earlier bit-identical
    /// output, or else a new one, `last + 1`.
    fn intern(&mut self, mut sim: SubplanSim, last: &mut u64) -> Arc<SubplanSim> {
        let hash = rows_hash(&sim.output);
        let head = self.heads.get(&hash).copied();
        let mut at = head;
        while let Some(j) = at {
            let (seen, before) = &self.chain[j];
            if same_bits(&seen.output, &sim.output) {
                sim.output_id = seen.output_id;
                return Arc::new(sim);
            }
            at = *before;
        }
        *last += 1;
        sim.output_id = *last;
        let sim = Arc::new(sim);
        self.heads.insert(hash, self.chain.len());
        self.chain.push((sim.clone(), head));
        sim
    }
}

/// A hash of an output's row count, retraction fraction and per-query rows.
fn rows_hash(out: &StreamEstimate) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(out.rows.total.to_bits());
    h.write_u64(out.delete_frac.to_bits());
    for (&q, n) in &out.rows.per_query {
        h.write_u64(u64::from(q));
        h.write_u64(n.to_bits());
    }
    h.finish()
}

/// Whether two outputs agree in every field the simulator reads, each
/// float compared as bits (so `-0.0` is not `0.0`, and an unknown bound is
/// not `0.0`).
fn same_bits(a: &StreamEstimate, b: &StreamEstimate) -> bool {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    a.rows.total.to_bits() == b.rows.total.to_bits()
        && a.delete_frac.to_bits() == b.delete_frac.to_bits()
        && a.rows.per_query.len() == b.rows.per_query.len()
        && a.rows
            .per_query
            .iter()
            .zip(&b.rows.per_query)
            .all(|((qa, na), (qb, nb))| qa == qb && na.to_bits() == nb.to_bits())
        && a.cols.len() == b.cols.len()
        && a.cols.iter().zip(&b.cols).all(|(x, y)| {
            x.ndv.to_bits() == y.ndv.to_bits()
                && bits(x.min) == bits(y.min)
                && bits(x.max) == bits(y.max)
        })
}

/// Memoized whole-plan cost estimator, bound to one [`SharedPlan`].
pub struct PlanEstimator {
    plan: SharedPlan,
    weights: CostWeights,
    /// Children-first subplan order.
    topo: Vec<SubplanId>,
    /// Per subplan: its children's indices, whose output ids key its memo.
    children: Vec<Vec<usize>>,
    /// Per subplan, as many words as `walk` has: the set of positions in
    /// `topo` of the subplan and its ancestors, the farthest a change to its
    /// pace can reach.
    ancestors: Vec<u64>,
    /// Per subplan: its compiled simulation program.
    programs: Vec<SimProgram>,
    /// Base-table full-trigger stream estimates (`BTreeMap` so refresh and
    /// drift scans iterate in a deterministic order).
    base: BTreeMap<TableId, StreamEstimate>,
    /// Per subplan: memo from its pace and its children's output ids to its
    /// simulation (Arc so hits are O(1), not a deep clone of the stream
    /// estimate).
    memo: Vec<FxHashMap<Vec<u64>, Arc<SubplanSim>>>,
    /// Per subplan: its simulated outputs, interned.
    outputs: Vec<Outputs>,
    /// The last output id handed out. Ids are never reused, so no memo key
    /// can name an output other than the one it was made from.
    last_output: u64,
    /// Bumped by every [`PlanEstimator::refresh_base`] that changes a
    /// stream; stamped on each report.
    epoch: u64,
    /// The memo key under construction; the set of positions in `topo` the
    /// call under way walks; per subplan, its simulation if the call costed it
    /// afresh; per query, its final work; the simulations of the candidate
    /// [`PlanEstimator::keep_candidate`] kept; and the simulator's buffers.
    /// All reused across calls, so an estimate allocates only its report
    /// and each miss only its memo entry.
    key: Vec<u64>,
    walk: Vec<u64>,
    sims: Vec<Option<Arc<SubplanSim>>>,
    finals: [f64; QuerySet::MAX_QUERIES],
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
        let children: Vec<Vec<usize>> = plan
            .subplans
            .iter()
            .map(|sp| sp.children().iter().map(|c| c.index()).collect())
            .collect();
        // Ancestor sets, parents first: every parent of a subplan comes
        // after it in `topo`, so its set is complete when it is passed down.
        let words = n.div_ceil(64);
        let mut ancestors = vec![0u64; n * words];
        for (pos, id) in topo.iter().enumerate().rev() {
            let i = id.index();
            ancestors[i * words + pos / 64] |= 1 << (pos % 64);
            for &c in &children[i] {
                for w in 0..words {
                    ancestors[c * words + w] |= ancestors[i * words + w];
                }
            }
        }

        // Base streams: every row of a base table is valid for every query
        // of the whole plan (leaf narrowing restricts per subplan).
        let queries = plan.queries();
        let mut base = BTreeMap::new();
        for src in programs.iter().flat_map(SimProgram::leaves) {
            if let InputSource::Base(t) = *src {
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
            ancestors,
            programs,
            base,
            memo: (0..n).map(|_| FxHashMap::default()).collect(),
            outputs: (0..n).map(|_| Outputs::default()).collect(),
            last_output: 0,
            epoch: 0,
            key: Vec::new(),
            walk: vec![0; words],
            sims: vec![None; n],
            finals: [0.0; QuerySet::MAX_QUERIES],
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
    /// preserved; column statistics are kept. Exactly the memo entries of
    /// the subplans that read `t` are dropped: every other key names the
    /// outputs its simulation read, and an output the refresh moves gets a
    /// new id, so re-optimizations after a refresh still reuse every
    /// simulation the change cannot affect.
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
        for (memo, program) in self.memo.iter_mut().zip(&self.programs) {
            if program.leaves().contains(&InputSource::Base(t)) {
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
    /// The walk starts at the subplans whose pace differs from
    /// `base_paces` and climbs to an ancestor only while a child's output
    /// differs from its output in `base`: each subplan it reaches is looked
    /// up in the memo or simulated, and every other subplan takes its
    /// private total and final work from `base` and counts as a memo hit,
    /// as the lookup in [`PlanEstimator::estimate`] would. Total work is
    /// summed children first over every subplan, and the final work of
    /// each query a re-costed subplan serves in subplan order, as there, so
    /// both equal `estimate(paces)`'s to the bit and the counters advance
    /// alike; every other query's final work is `base`'s. With the memo
    /// disabled nothing is reused: every subplan re-simulates.
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
        self.cost_walk(paces, reuse, self.memo_enabled)?;
        let PlanEstimator { plan, topo, sims, finals, .. } = self;
        let total_work = sum_total(topo, |j| {
            sims[j].as_ref().map_or(base.subplan_total[j], |sim| sim.private_total)
        });
        let costed = plan
            .subplans
            .iter()
            .filter(|sp| sims[sp.id.index()].is_some())
            .fold(QuerySet::EMPTY, |qs, sp| qs.union(sp.queries));
        *finals = base.finals;
        sum_finals(
            plan,
            |j| sims[j].as_ref().map_or(base.subplan_final[j], |sim| sim.private_final),
            costed,
            finals,
        );
        Ok(CandidateCost { total_work, finals: finals.as_slice() })
    }

    /// Keep the simulations of the candidate last costed by
    /// [`PlanEstimator::estimate_candidate`], replacing any kept before.
    pub fn keep_candidate(&mut self) {
        std::mem::swap(&mut self.sims, &mut self.kept);
    }

    /// Turn `base` into the report of the kept candidate, which was costed
    /// next to it: the kept simulations replace its re-costed subplans and
    /// the sums are redone in [`PlanEstimator::estimate`]'s order. Counts
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
        base.total_work = sum_total(&self.topo, |j| base.subplan_total[j]);
        sum_finals(&self.plan, |j| base.subplan_final[j], self.plan.queries(), &mut base.finals);
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
        self.cost_walk(paces, None, use_memo)?;
        let mut subplan_output = Vec::with_capacity(self.sims.len());
        subplan_output.extend(self.sims.iter_mut().filter_map(Option::take));
        let subplan_total: Vec<f64> = subplan_output.iter().map(|sim| sim.private_total).collect();
        let subplan_final: Vec<f64> = subplan_output.iter().map(|sim| sim.private_final).collect();
        let queries = self.plan.queries();
        let mut finals = [0.0; QuerySet::MAX_QUERIES];
        sum_finals(&self.plan, |j| subplan_final[j], queries, &mut finals);
        Ok(CostReport {
            total_work: sum_total(&self.topo, |j| subplan_total[j]),
            subplan_total,
            subplan_final,
            subplan_output,
            finals,
            queries,
            epoch: self.epoch,
        })
    }

    /// Cost afresh, children first, the subplans the call must: without
    /// `reuse`, every subplan; with a base report and its paces, each
    /// subplan whose pace differs from the base's or one of whose children
    /// re-costed to an output the base does not hold — every other subplan
    /// reads the base and counts as a memo hit. A subplan costed afresh is
    /// looked up in the memo (if `use_memo`) or simulated, and lands in
    /// `sims`.
    fn cost_walk(
        &mut self,
        paces: &[u32],
        reuse: Option<(&CostReport, &[u32])>,
        use_memo: bool,
    ) -> Result<()> {
        let PlanEstimator {
            weights,
            topo,
            children,
            ancestors,
            programs,
            base,
            memo,
            outputs,
            last_output,
            key,
            walk,
            sims,
            scratch,
            counters,
            ..
        } = self;
        let (n, words) = (sims.len(), walk.len());
        sims.fill(None);
        walk.fill(0);
        match reuse {
            None => (0..topo.len()).for_each(|pos| walk[pos / 64] |= 1 << (pos % 64)),
            Some((_, base_paces)) => {
                for i in (0..n).filter(|&i| paces[i] != base_paces[i]) {
                    let cone = &ancestors[i * words..(i + 1) * words];
                    walk.iter_mut().zip(cone).for_each(|(w, a)| *w |= a);
                }
            }
        }
        let mut costed = 0;
        for (w, &word) in walk.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let id = topo[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                let i = id.index();
                // Children's outputs: re-costed by this call, or the base's.
                let output = |c: usize| {
                    sims[c].as_deref().or_else(|| {
                        reuse.and_then(|(report, _)| report.subplan_output.get(c)).map(|s| &**s)
                    })
                };
                if let Some((report, base_paces)) = reuse {
                    let moved = |c: usize| {
                        sims[c]
                            .as_ref()
                            .is_some_and(|sim| sim.output_id != report.subplan_output[c].output_id)
                    };
                    if paces[i] == base_paces[i] && !children[i].iter().any(|&c| moved(c)) {
                        continue;
                    }
                }
                costed += 1;
                key.clear();
                key.push(u64::from(paces[i]));
                for &c in &children[i] {
                    let child = output(c).ok_or_else(|| {
                        Error::InvalidPlan(format!("child {c} output missing for {id}"))
                    })?;
                    key.push(child.output_id);
                }
                let hit = if use_memo { memo[i].get(key.as_slice()).cloned() } else { None };
                let sim = match hit {
                    Some(sim) => {
                        counters.memo_hits += 1;
                        sim
                    }
                    // Only a miss reads the leaf inputs: children's outputs
                    // are borrowed from their simulations, never copied.
                    None => {
                        counters.simulations += 1;
                        let program = &programs[i];
                        let input =
                            |leaf: usize| leaf_input(program.leaves()[leaf], base, output, id);
                        let sim = program.run(paces[i], input, weights, scratch)?;
                        if use_memo {
                            let sim = outputs[i].intern(sim, last_output);
                            memo[i].insert(key.clone(), sim.clone());
                            sim
                        } else {
                            *last_output += 1;
                            Arc::new(SubplanSim { output_id: *last_output, ..sim })
                        }
                    }
                };
                sims[i] = Some(sim);
            }
        }
        if reuse.is_some() {
            counters.memo_hits += n - costed;
        } else if let Some(i) = sims.iter().position(Option::is_none) {
            return Err(Error::InvalidPlan(format!(
                "subplan {i} missing from topological order (malformed DAG)"
            )));
        }
        Ok(())
    }
}

/// Every subplan's private total work, found by index through `total`,
/// summed children first.
fn sum_total(topo: &[SubplanId], total: impl Fn(usize) -> f64) -> WorkUnits {
    let mut sum = WorkUnits::ZERO;
    for id in topo {
        sum += WorkUnits(total(id.index()));
    }
    sum
}

/// For each query of `queries`, its subplans' private final work, found by
/// index through `subplan_final`, summed in subplan order into `finals`
/// (indexed by `QueryId`); other queries' entries are left as they are.
fn sum_finals(
    plan: &SharedPlan,
    subplan_final: impl Fn(usize) -> f64,
    queries: QuerySet,
    finals: &mut [f64],
) {
    for q in queries.iter() {
        finals[q.index()] = 0.0;
    }
    for sp in &plan.subplans {
        for q in sp.queries.intersect(queries).iter() {
            finals[q.index()] += subplan_final(sp.id.index());
        }
    }
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
    use crate::stats::CardVec;
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
        assert_eq!(rep.final_work().count(), 2);
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

    /// sp0 = select(scan t), shared by q0 and q1, each of which aggregates
    /// it in its own root subplan: a child whose output does not move with
    /// its pace.
    fn shared_select_plan(c: &Catalog) -> SharedPlan {
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0, 1])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![SelectBranch {
                        queries: qs(&[0, 1]),
                        predicate: Expr::col(1).lt(Expr::lit(500i64)),
                    }],
                },
                vec![scan],
                qs(&[0, 1]),
            )
            .unwrap();
        let sum = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![sel],
                qs(&[0]),
            )
            .unwrap();
        let max = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::new(AggFunc::Max, Expr::col(1), "m")],
                },
                vec![sel],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), sum).unwrap();
        d.set_query_root(QueryId(1), max).unwrap();
        d.validate(c).unwrap();
        SharedPlan::from_dag(&d).unwrap()
    }

    #[test]
    fn a_child_that_resimulates_to_the_same_output_spares_its_parents() {
        let c = catalog();
        let plan = shared_select_plan(&c);
        let n = plan.len();
        assert_eq!(n, 3, "the select and two aggregates");
        let shared = plan.subplans.iter().position(|sp| sp.queries.len() == 2).unwrap();
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let ones = vec![1u32; n];
        let lazy = est.estimate(&ones).unwrap();
        let mut paces = ones.clone();
        paces[shared] = 2;
        let sims = est.counters.simulations;
        let eager = est.estimate(&paces).unwrap();
        assert_eq!(est.counters.simulations - sims, 1, "only the select re-simulates");
        let (was, now) = (&lazy.subplan_output[shared], &eager.subplan_output[shared]);
        assert_eq!(now.output_id, was.output_id, "the select's output did not move");
        let scratch = est.estimate_unmemoized(&paces).unwrap();
        assert_eq!(report_bits(&eager), report_bits(&scratch));

        // A search step there stops at the select too.
        paces[shared] = 4;
        let sims = est.counters.simulations;
        let cand = cost_bits(&est.estimate_candidate(&lazy, &ones, &paces).unwrap(), &plan);
        assert_eq!(est.counters.simulations - sims, 1, "only the select re-simulates");
        assert_eq!(cand, cost_bits(&est.estimate_unmemoized(&paces).unwrap(), &plan));
    }

    #[test]
    fn outputs_differing_in_one_bit_get_distinct_ids() {
        let out = StreamEstimate {
            rows: CardVec { total: 100.0, per_query: [(0, 100.0), (1, 40.0)].into() },
            delete_frac: 0.0,
            cols: vec![
                ColumnStats { ndv: 10.0, min: Some(0.0), max: Some(9.0) },
                ColumnStats::ndv(3.0),
            ],
        };
        let flip = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        let mut variants = vec![out.clone(); 9];
        variants[1].rows.total = flip(100.0);
        *variants[2].rows.per_query.get_mut(&1).unwrap() = flip(40.0);
        variants[3].delete_frac = flip(0.0);
        variants[4].delete_frac = -0.0;
        // The rest differ in column statistics alone, which the hash leaves
        // to the comparison.
        variants[5].cols[1].ndv = flip(3.0);
        variants[6].cols[1].min = Some(0.0);
        variants[7].cols[0].min = Some(-0.0);
        variants[8].cols[0].max = Some(flip(9.0));
        let sim = |output: &StreamEstimate, cost: f64| SubplanSim {
            private_total: cost,
            private_final: cost,
            output: output.clone(),
            output_id: 0,
        };
        let mut outputs = Outputs::default();
        let mut last = 0;
        let ids: Vec<u64> =
            variants.iter().map(|v| outputs.intern(sim(v, 1.0), &mut last).output_id).collect();
        let mut distinct = ids.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), variants.len(), "ids {ids:?}");
        // A later simulation to any of those outputs, at whatever cost, gets
        // its id back.
        for (v, &id) in variants.iter().zip(&ids) {
            assert_eq!(outputs.intern(sim(v, 2.0), &mut last).output_id, id);
        }
    }

    /// Every float of a report, as bits.
    fn report_bits(r: &CostReport) -> Vec<u64> {
        let mut bits = vec![r.total_work.get().to_bits()];
        bits.extend(r.final_work().flat_map(|(q, w)| [u64::from(q.0), w.get().to_bits()]));
        bits.extend(r.finals.map(f64::to_bits));
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
