//! Online query churn: live admission and removal with incremental
//! re-sharing (DESIGN.md §14).
//!
//! A fixed-plan run fixes the query set before the first row arrives. This
//! module lifts that restriction: a [`ChurnScript`] names queries to admit
//! or remove at arrival fractions, and the wavefront loop
//! ([`crate::driver`]) applies each event at the first *wavefront boundary*
//! at or after its fraction — never mid-front, so every decision point is
//! a deterministic position in the schedule. This module is the surgery
//! the loop calls at such a boundary; it runs no ticks of its own.
//!
//! ## Admission
//!
//! An admission diff-merges the new query into the live shared DAG through
//! [`IncrementalSharer`] (no full rebuild: the existing nodes, and
//! therefore the existing operator state keyed by node identity, stay
//! put). The runner then
//!
//! 1. re-cuts the DAG with *sticky forced cuts* — every previous subplan
//!    root plus the admission's attachment frontier — so surviving subplans
//!    never fuse and the new query's private cone taps shared structure at
//!    materialized buffers;
//! 2. runs a fresh pace search over the whole re-cut plan, from batch,
//!    under the live queries' budgets `L(q)` — final work is charged only
//!    at the trigger, so none of a budget is spent at a churn boundary; an
//!    infeasible admission is rejected with [`Error::Churn`] before any
//!    engine state is touched (the merge happens on a clone of the sharer);
//! 3. reconciles the engine by DAG identity. Every post-edit executor is
//!    built fresh; each operator state moves to the executor that now holds
//!    its DAG node, each leaf cursor (with its pending seed) to the leaf
//!    that reads the same DAG edge (parent node, input index), and each
//!    buffer to the subplan rooted at its node. A surviving subplan, one
//!    split off by a frontier cut and the new query's fresh cone are the
//!    same rule: a split-off piece finds its state and cursors by identity,
//!    a fresh cone finds none and starts cold. This works because every
//!    live non-scan node sits at exactly one position of exactly one
//!    subplan (multi-parent nodes are cut), and the sharer never rewires an
//!    existing node's children. A leaf nothing claims reads from its
//!    buffer's end;
//! 4. hands existing state to the new query where subplans are shared:
//!    the *witness query* (a query that has seen exactly the rows the new
//!    query would have seen over the reused structure) indexes operator
//!    state snapshots which are re-masked to the new query and seeded into
//!    its private cone — no replay of history through shared prefixes. A
//!    private cone's base leaf is seeded with the rows the [`Source`] has
//!    released for its table, so base buffers keep no history. A new
//!    query whose root is fully shared starts its result view from the
//!    root's snapshot. Shared subplans widen their state and pending seeds;
//!    their buffers hold no rows to widen, because the quiesce sweep
//!    empties every buffer another subplan reads and the engine never
//!    writes one that nothing reads.
//!
//! ## Removal
//!
//! Removal reverses: the query's bit is cleared everywhere, query-empty
//! nodes are tombstoned, the re-cut drops subplans whose query set went
//! empty, and the same reconciliation counts whatever no live node or edge
//! claims — a dead cone's operator state, buffers and seeds — as
//! `churn.reclaimed_rows`. Surviving operator state drops the query's mask
//! column via `retire_query`, and the query's result view and slack-ledger
//! entry are released.
//!
//! ## Determinism
//!
//! Every churn event is applied on a *quiesced* boundary: the loop first
//! drains all delta buffers with one children-first execution sweep, so
//! operator state, buffers, and consumer cursors agree exactly when state
//! is snapshotted or moved. Events are recorded in the ingest commit log
//! as [`ChurnRecord`]s, so a killed run replays the exact churn trajectory
//! (replay verification compares whole commit entries, churn included).
//! The surgery itself runs between two fronts, and a churn run's fronts go
//! through the same tick function and the same fold as any other run's — so
//! results and all measured work numbers are bit-identical across obs
//! on/off and kill/resume.

use crate::driver::{run_wavefronts, Live, RunResult, SourceOptions, SourceOutcome};
use crate::engine::{EngineState, Seeds};
use crate::fold::Fold;
use crate::schedule::frac_cmp;
use ishare_common::{CostWeights, Error, NodeId, QueryId, QuerySet, Result, TableId, WorkCounter};
use ishare_core::pace_search::SearchOutcome;
use ishare_core::{find_pace_configuration, resolve_constraints, FinalWorkConstraint};
use ishare_cost::PlanEstimator;
use ishare_exec::executor::{OperatorState, StateBundle};
use ishare_exec::{fold_result, ExecMode, ExecOptions, SubplanExecutor};
use ishare_ingest::{ChurnKind, ChurnRecord, Source};
use ishare_mqo::{normalize, IncrementalSharer, MqoConfig};
use ishare_plan::{InputSource, LogicalPlan, SharedDag, SharedPlan, TreeOp};
use ishare_storage::{Catalog, ConsumerId, DeltaBatch, DeltaBuffer, DeltaRow};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

/// One churn operation.
#[derive(Debug, Clone)]
pub enum ChurnOp {
    /// Admit a new query into the live run.
    Admit {
        /// The query's id (must be free: never used, or removed earlier).
        query: QueryId,
        /// Its logical plan (normalized internally).
        plan: LogicalPlan,
        /// Its final-work budget `L(q)`; `Relative` is resolved against the
        /// query's own no-share batch final work, exactly like the planners.
        constraint: FinalWorkConstraint,
    },
    /// Remove a live query from the run.
    Remove {
        /// The query to remove.
        query: QueryId,
    },
}

/// A churn operation due at arrival fraction `num/den`. It is applied at
/// the first wavefront boundary whose fraction is ≥ `num/den`; fractions
/// ≥ 1 are rejected up front (there is nothing left to churn at the final
/// boundary).
#[derive(Debug, Clone)]
pub struct ChurnEvent {
    /// Fraction numerator.
    pub num: u32,
    /// Fraction denominator.
    pub den: u32,
    /// What to do.
    pub op: ChurnOp,
}

/// The full churn trajectory of one run, applied in order.
#[derive(Debug, Clone, Default)]
pub struct ChurnScript {
    /// Events in application order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnScript {
    /// Script with the given events.
    pub fn new(events: Vec<ChurnEvent>) -> Self {
        ChurnScript { events }
    }
}

/// Options for a churn run.
#[derive(Debug, Clone)]
pub struct ChurnOptions {
    /// Ingest/runtime options shared with the plain source drivers
    /// ([`ExecMode::Reference`] is rejected: the oracle datapath has no
    /// state surgery).
    pub source: SourceOptions,
    /// Pace-search bound: at least 1, 8 by default.
    pub max_pace: u32,
}

impl Default for ChurnOptions {
    fn default() -> Self {
        ChurnOptions { source: SourceOptions::default(), max_pace: 8 }
    }
}

/// What a churn run produced.
#[derive(Debug, Clone)]
pub struct ChurnRunResult {
    /// The measured run over the queries live at the end.
    pub run: RunResult,
    /// Applied churn events, in order (the same records land in the commit
    /// log).
    pub churn: Vec<ChurnRecord>,
    /// Queries live at the end of the run.
    pub live: QuerySet,
    /// Queries removed during the run, in removal order.
    pub removed: Vec<QueryId>,
    /// Total state/buffer rows reclaimed by removals.
    pub reclaimed_rows: u64,
    /// Total rows handed to admitted queries from shared state.
    pub handoff_rows: u64,
    /// Extra drain executions run to quiesce churn boundaries.
    pub quiesce_ticks: usize,
}

/// Outcome of a churn run: [`SourceOutcome`] carrying a [`ChurnRunResult`]
/// (the commit log holds wavefronts and churn records).
pub type ChurnOutcome = SourceOutcome<ChurnRunResult>;

/// Run `initial` queries (with optional final-work `constraints`; missing
/// entries default to `Relative(1.0)`) against `source`, applying `script`'s
/// churn events at wavefront boundaries. See the module docs.
pub fn execute_churn_from_source(
    initial: &[(QueryId, LogicalPlan)],
    constraints: &BTreeMap<QueryId, FinalWorkConstraint>,
    script: &ChurnScript,
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    opts: &ChurnOptions,
) -> Result<ChurnOutcome> {
    if opts.source.mode == ExecMode::Reference {
        return Err(Error::Churn(
            "the reference datapath does not support live churn (no state surgery)".into(),
        ));
    }
    if opts.max_pace == 0 {
        return Err(Error::InvalidConfig("max_pace must be >= 1".into()));
    }
    if initial.is_empty() {
        return Err(Error::InvalidConfig("churn run needs at least one initial query".into()));
    }
    for (i, ev) in script.events.iter().enumerate() {
        if ev.den == 0 {
            return Err(Error::InvalidConfig("churn event with zero denominator".into()));
        }
        if ev.num >= ev.den {
            return Err(Error::Churn(format!(
                "churn event at fraction {}/{} is at or beyond the final boundary",
                ev.num, ev.den
            )));
        }
        // The runner pops due events from the front, so a later event due
        // earlier would wait behind its predecessor.
        if let Some(prev) = i.checked_sub(1).map(|j| &script.events[j]) {
            if frac_cmp(ev.num, ev.den, prev.num, prev.den).is_lt() {
                return Err(Error::InvalidConfig(format!(
                    "churn event {i} at {}/{} comes before event {} at {}/{}: \
                     a script's fractions must not decrease",
                    ev.num,
                    ev.den,
                    i - 1,
                    prev.num,
                    prev.den
                )));
            }
        }
    }

    let started = Instant::now();
    let mut sharer = IncrementalSharer::new(MqoConfig::default());
    for (q, lp) in initial {
        sharer.admit(*q, &normalize(lp))?;
    }
    sharer.seal();
    let (plan, roots) = SharedPlan::from_dag_with_roots(sharer.dag(), |_| false, &[])?;
    let budgets = resolve_constraints(initial, constraints, catalog, weights)?;
    let outcome = search_from_batch(&plan, catalog, weights, &budgets, opts.max_pace)?;

    let paces = outcome.paces.as_slice();
    let mut live = Live::new(Cow::Owned(plan), paces, catalog, weights, &opts.source)?;
    live.started = started;
    let mut runner = Runner {
        catalog,
        weights,
        max_pace: opts.max_pace,
        exec_opts: opts.source.exec_options(),
        pending: script.events.iter().cloned().collect(),
        sharer,
        roots,
        forced: Vec::new(),
        budgets,
        churn: Vec::new(),
        quiesce_ticks: 0,
    };
    Ok(match run_wavefronts(live, source, &opts.source, None, Some(&mut runner))? {
        SourceOutcome::Suspended { log } => SourceOutcome::Suspended { log },
        SourceOutcome::Completed { result, log } => {
            SourceOutcome::Completed { result: Box::new(runner.finish(*result)), log }
        }
    })
}

/// The churn state of a run: the live sharer and budgets, the script's
/// pending events, and the records of the applied ones. The wavefront
/// loop owns plan, paces and engine ([`Live`]); [`Runner::apply`] swaps
/// them at a boundary.
pub(crate) struct Runner<'a> {
    catalog: &'a Catalog,
    weights: CostWeights,
    max_pace: u32,
    exec_opts: ExecOptions,
    /// Script events not yet applied, in application order.
    pending: VecDeque<ChurnEvent>,
    sharer: IncrementalSharer,
    /// Per subplan: the DAG node its root came from (stable identity across
    /// re-cuts).
    roots: Vec<NodeId>,
    /// Sticky forced cuts: every node that has ever been a subplan root or
    /// an admission frontier. Re-cutting never fuses live subplans.
    forced: Vec<NodeId>,
    /// Absolute final-work budgets `L(q)` of the live queries.
    budgets: BTreeMap<QueryId, f64>,
    /// Applied events, in order; every churn total derives from them.
    churn: Vec<ChurnRecord>,
    /// Extra drain executions the loop ran to quiesce churn boundaries.
    pub(crate) quiesce_ticks: usize,
}

impl Runner<'_> {
    pub(crate) fn budgets(&self) -> &BTreeMap<QueryId, f64> {
        &self.budgets
    }

    /// Pop the events due at the boundary with arrival fraction `num/den`.
    pub(crate) fn take_due(&mut self, num: u32, den: u32) -> Vec<ChurnEvent> {
        let mut due = Vec::new();
        while self.pending.front().is_some_and(|ev| frac_cmp(ev.num, ev.den, num, den).is_le()) {
            due.extend(self.pending.pop_front());
        }
        due
    }

    /// Apply one event on the quiesced engine: edit a clone of the sharer,
    /// re-cut, re-search and validate; then reconcile `live`'s engine, hand
    /// off (admission, reading base history back from `source`) or retire
    /// (removal), swap plan and paces, and tell `fold` about the re-cut.
    pub(crate) fn apply(
        &mut self,
        live: &mut Live<'_>,
        fold: &mut Fold,
        source: &Source,
        ev: ChurnEvent,
    ) -> Result<ChurnRecord> {
        // Speculate on a clone: nothing below touches live state until the
        // event has fully validated.
        let mut trial = self.sharer.clone();
        let mut cuts = self.roots.clone();
        let (kind, q, budget, created, pools, nodes) = match ev.op {
            ChurnOp::Admit { query, plan, constraint } => {
                let diff = trial.admit(query, &normalize(&plan))?;
                let one = BTreeMap::from([(query, constraint)]);
                let l = resolve_constraints(&[(query, plan)], &one, self.catalog, self.weights)?
                    [&query];
                cuts.extend(diff.frontier);
                let nodes = (diff.reused.len(), diff.created.len());
                (ChurnKind::Admit, query, Some(l), diff.created, diff.pools, nodes)
            }
            ChurnOp::Remove { query } => {
                let diff = trial.remove(query)?;
                if trial.queries().is_empty() {
                    return Err(Error::Churn(format!(
                        "cannot remove query {query}: it is the last live query"
                    )));
                }
                let nodes = (diff.shrunk_nodes.len(), diff.removed_nodes.len());
                (ChurnKind::Remove, query, None, Vec::new(), HashMap::new(), nodes)
            }
        };
        let mut forced = self.forced.clone();
        for r in cuts {
            if !forced.contains(&r) {
                forced.push(r);
            }
        }
        let (plan2, roots2) = SharedPlan::from_dag_with_roots(trial.dag(), |_| false, &forced)?;
        // A created node is never an old root, so "fresh" (everything cold)
        // is exactly "rooted at a node this admission created".
        let fresh: Vec<bool> = roots2.iter().map(|r| created.contains(r)).collect();

        // Final work is charged only at the trigger, past every churn
        // boundary, so the live queries' whole budgets are still unspent.
        let mut cons: BTreeMap<QueryId, f64> =
            self.budgets.iter().filter(|(&p, _)| p != q).map(|(&p, &l)| (p, l.max(0.0))).collect();
        let mut witnesses = Vec::new();
        if let Some(l) = budget {
            // Any shared (non-fresh) subplan now serving the new query needs
            // a witness query to index its state by — *per subplan*: a
            // global intersection over all reused nodes is too strict once
            // the new query taps several cones shared by disjoint query
            // subsets (routine in TPC-H workloads). The sharer's pool at the
            // subplan's root holds the queries whose mask bit equals the new
            // query's over the root's whole input cone; masks are a pure
            // function of branch membership, so any of them stands in for
            // the new query across all handed-off state. The smallest is
            // taken, which keeps the handoff deterministic.
            let shared = |j: usize| !fresh[j] && plan2.subplans[j].queries.contains(q);
            witnesses = (0..plan2.len())
                .map(|j| {
                    let pool = pools.get(&roots2[j]).filter(|_| shared(j));
                    pool.and_then(|p| p.iter().next())
                })
                .collect();
            if let Some(j) = (0..plan2.len()).find(|&j| shared(j) && witnesses[j].is_none()) {
                return Err(Error::Churn(format!(
                    "admission of query {q} shares subplan {j} (root {}) but no live query \
                     witnesses its input cone; state handoff would be ambiguous",
                    roots2[j]
                )));
            }
            cons.insert(q, l);
        }
        // A removal is never rejected for pace reasons: the remaining
        // queries' budgets may already be out of reach, so its search is
        // best effort.
        let outcome = search_from_batch(&plan2, self.catalog, self.weights, &cons, self.max_pace)?;
        if let Some(l) = budget.filter(|_| !outcome.feasible) {
            return Err(Error::Churn(format!(
                "admission of query {q} is infeasible under final-work budget {l} given the \
                 live queries' budgets"
            )));
        }

        let engine = &mut live.engine;
        let reclaimed = self.reconcile(engine, trial.dag(), &plan2, &roots2)?;
        let (handoff_rows, handoff_work, reclaimed_rows) = if budget.is_some() {
            let (rows, work) = hand_off(engine, source, &plan2, q, &witnesses, &fresh)?;
            (rows, work, 0)
        } else {
            // Surviving state drops the removed query's mask column.
            let mut retired = reclaimed;
            for (ex, root) in engine.executors.iter_mut().zip(&roots2) {
                if self.sharer.dag().nodes[root.0 as usize].queries.contains(q) {
                    retired += ex.retire_query(q)? as u64;
                }
            }
            (0, 0.0, retired)
        };

        let record = ChurnRecord {
            kind,
            query: q.0,
            nodes_reused: nodes.0 as u32,
            nodes_created: nodes.1 as u32,
            subplans: plan2.len() as u32,
            handoff_rows,
            reclaimed_rows,
            handoff_work_bits: handoff_work.to_bits(),
        };
        self.sharer = trial;
        self.roots = roots2;
        self.forced = forced;
        fold.recut(&live.plan, &plan2);
        match budget {
            Some(l) => {
                self.budgets.insert(q, l);
                if let Some(ledger) = fold.ledger.as_mut() {
                    ledger.add_query(q, l);
                }
            }
            None => {
                self.budgets.remove(&q);
                if let Some(ledger) = fold.ledger.as_mut() {
                    ledger.drop_query(q);
                }
            }
        }
        live.plan = Cow::Owned(plan2);
        live.paces = outcome.paces.as_slice().to_vec();
        self.churn.push(record.clone());
        Ok(record)
    }

    /// Rebuild `engine` around the re-cut plan by DAG identity (module docs,
    /// step 3): pool the old executors' operator states by node and their
    /// leaf cursors and seeds by edge, build every post-edit executor and
    /// install the pooled state at its new paths, claim cursors by edge and
    /// register the unclaimed leaves at their buffers' ends (history
    /// arrives as seeds, [`hand_off`]). Returns the rows nothing claimed — a
    /// dead cone's state, buffers and seeds — which are reclaimed.
    fn reconcile(
        &self,
        engine: &mut EngineState,
        dag: &SharedDag,
        plan2: &SharedPlan,
        roots2: &[NodeId],
    ) -> Result<u64> {
        let mut states: HashMap<NodeId, OperatorState> = HashMap::new();
        let mut cursors: HashMap<Edge, (InputSource, ConsumerId, Option<DeltaBatch>)> =
            HashMap::new();
        let mut buffers: HashMap<NodeId, DeltaBuffer> = HashMap::new();
        let old = std::mem::take(&mut engine.executors)
            .into_iter()
            .zip(std::mem::take(&mut engine.sp_buffers))
            .zip(std::mem::take(&mut engine.leaf_consumers))
            .zip(std::mem::take(&mut engine.seeds));
        for (i, (((ex, buf), leaves), mut seeds)) in old.enumerate() {
            let root = self.roots[i];
            for (path, st) in ex.into_state_bundle()? {
                states.insert(dag.node_at(root, &path), st);
            }
            for (path, src, cid) in leaves {
                let seed = seeds.remove(&path);
                cursors.insert(dag.leaf_edge(root, &path), (src, cid, seed));
            }
            buffers.insert(root, buf);
        }

        let schemas = plan2.schemas(self.catalog)?;
        let mut sp_buffers: Vec<DeltaBuffer> =
            roots2.iter().map(|r| buffers.remove(r).unwrap_or_default()).collect();
        let (mut executors, mut leaf_consumers, mut new_seeds) =
            (Vec::new(), Vec::new(), Vec::new());
        for (sp, &root) in plan2.subplans.iter().zip(roots2) {
            let mut ex = SubplanExecutor::new_with_options(
                sp,
                self.catalog,
                &schemas,
                self.weights,
                self.exec_opts,
            )?;
            let mut bundle = StateBundle::new();
            sp.root.post_order(|step| {
                if !matches!(step.node.op, TreeOp::Input(_)) {
                    if let Some(st) = states.remove(&dag.node_at(root, step.path)) {
                        bundle.insert(step.path.to_vec(), st);
                    }
                }
                Ok(())
            })?;
            ex.install_state_bundle(bundle)?;
            let (mut regs, mut seeds) = (Vec::new(), Seeds::new());
            for (path, src) in ex.leaf_paths() {
                let cid = match cursors.remove(&dag.leaf_edge(root, &path)) {
                    Some((_, cid, seed)) => {
                        if let Some(batch) = seed {
                            seeds.insert(path.clone(), batch);
                        }
                        cid
                    }
                    None => match src {
                        InputSource::Base(t) => engine.base_buffers.entry(t).or_default(),
                        InputSource::Subplan(c) => &mut sp_buffers[c.index()],
                    }
                    .register_consumer_at_end(),
                };
                regs.push((path, src, cid));
            }
            executors.push(ex);
            leaf_consumers.push(regs);
            new_seeds.push(seeds);
        }

        // Retire the cursors nothing claimed (a dead cone's reads) so the
        // buffers they read can compact past them; everything else left
        // over belonged to a dead cone too.
        let mut reclaimed = 0u64;
        for (src, cid, seed) in cursors.into_values() {
            reclaimed += seed.map_or(0, |b| b.rows.len() as u64);
            match src {
                InputSource::Base(t) => {
                    if let Some(b) = engine.base_buffers.get_mut(&t) {
                        b.retire_consumer(cid)?;
                    }
                }
                InputSource::Subplan(c) => {
                    if let Some(j) = roots2.iter().position(|r| *r == self.roots[c.index()]) {
                        sp_buffers[j].retire_consumer(cid)?;
                    }
                }
            }
        }
        reclaimed += states.values().map(|st| st.rows() as u64).sum::<u64>();
        reclaimed += buffers.values_mut().map(|b| b.drain() as u64).sum::<u64>();

        engine.executors = executors;
        engine.sp_buffers = sp_buffers;
        engine.leaf_consumers = leaf_consumers;
        engine.seeds = new_seeds;
        engine.settle(plan2);
        Ok(reclaimed)
    }

    /// Attach the churn totals (and, when obs is on, the `churn.*`
    /// metrics) to the measured run. Every total is a sum or a filter over
    /// the records.
    fn finish(self, mut run: RunResult) -> ChurnRunResult {
        let live = self.sharer.queries();
        let (admits, removes): (Vec<&ChurnRecord>, Vec<&ChurnRecord>) =
            self.churn.iter().partition(|r| r.kind == ChurnKind::Admit);
        let removed: Vec<QueryId> = removes.iter().map(|r| QueryId(r.query)).collect();
        let reclaimed_rows = self.churn.iter().map(|r| r.reclaimed_rows).sum();
        let handoff_rows = self.churn.iter().map(|r| r.handoff_rows).sum();
        if let Some(report) = run.obs.as_mut() {
            let merged = |f: fn(&ChurnRecord) -> u32| {
                admits.iter().map(|r| u64::from(f(r))).sum::<u64>() as f64
            };
            let m = &mut report.metrics;
            m.counter_add("churn.admissions", admits.len() as f64);
            m.counter_add("churn.removals", removes.len() as f64);
            m.counter_add("churn.merge_nodes_reused", merged(|r| r.nodes_reused));
            m.counter_add("churn.merge_nodes_created", merged(|r| r.nodes_created));
            m.counter_add("churn.quiesce_ticks", self.quiesce_ticks as f64);
            m.gauge_set("churn.reclaimed_rows", reclaimed_rows as f64);
            m.gauge_set("churn.handoff_rows", handoff_rows as f64);
            m.gauge_set("churn.live_queries", live.len() as f64);
            m.gauge_set("churn.subplans", self.roots.len() as f64);
        }
        ChurnRunResult {
            run,
            churn: self.churn,
            live,
            removed,
            reclaimed_rows,
            handoff_rows,
            quiesce_ticks: self.quiesce_ticks,
        }
    }
}

/// The DAG edge a tree leaf reads through: (parent node, input index).
type Edge = (NodeId, usize);

/// Admission hand-off (module docs, step 4): widen shared state and pending
/// seeds to `q_new`, then seed its fresh cone — shared children from
/// witness-indexed snapshots (each shared subplan by its *own* witness,
/// validated in [`Runner::apply`]), base tables from `source` — or, on a
/// fully shared root, fold the root's snapshot into `q_new`'s result view.
/// Returns the rows handed off from shared state and the work charged doing
/// so.
fn hand_off(
    engine: &mut EngineState,
    source: &Source,
    plan: &SharedPlan,
    q_new: QueryId,
    witnesses: &[Option<QueryId>],
    fresh: &[bool],
) -> Result<(u64, f64)> {
    let witness = |j: usize| witnesses[j].expect("witness validated for shared subplan");
    let n = plan.len();
    for j in (0..n).filter(|&j| !fresh[j] && plan.subplans[j].queries.contains(q_new)) {
        engine.executors[j].widen_query(witness(j), q_new)?;
        // A seed an earlier admission at this boundary left is history the
        // state has not absorbed yet.
        for dr in engine.seeds[j].values_mut().flat_map(|b| &mut b.rows) {
            if dr.mask.contains(witness(j)) {
                dr.mask.insert(q_new);
            }
        }
    }
    let counter = WorkCounter::new();
    let mut rows = 0u64;
    let history = |t: TableId| {
        let (rows, mask) = (source.released(t).into_iter(), plan.queries());
        DeltaBatch::from_rows(rows.map(|(row, weight)| DeltaRow { row, weight, mask }).collect())
    };
    let snapshot = |engine: &EngineState, c: usize| {
        snapshot_subplan(c, engine, &history, witness(c), q_new, &counter)
    };
    // Seed every fresh subplan's leaves but those reading a fresh child,
    // whose buffer is empty and fills as the child runs.
    for j in (0..n).filter(|&j| fresh[j]) {
        for (path, src) in engine.executors[j].leaf_paths() {
            let batch = match src {
                InputSource::Base(t) => history(t),
                InputSource::Subplan(c) if !fresh[c.index()] => {
                    let batch = snapshot(engine, c.index())?;
                    rows += batch.rows.len() as u64;
                    batch
                }
                InputSource::Subplan(_) => continue,
            };
            engine.seeds[j].insert(path, batch);
        }
    }
    // A fully shared root: the new query's results are served by an
    // existing subplan, so its result view starts as the root's witnessed
    // history.
    if let Some(r) = plan.query_root(q_new).map(|r| r.index()).filter(|&r| !fresh[r]) {
        let batch = snapshot(engine, r)?;
        rows += batch.rows.len() as u64;
        let view = engine.results.get_mut(&q_new).expect("settled for every live query");
        fold_result(view, &batch.rows, q_new);
    }
    Ok((rows, counter.total().get()))
}

/// The pace search a churn boundary runs: a fresh estimator for the whole
/// re-cut plan, searched from batch under the live queries' budgets.
fn search_from_batch(
    plan: &SharedPlan,
    catalog: &Catalog,
    weights: CostWeights,
    budgets: &BTreeMap<QueryId, f64>,
    max_pace: u32,
) -> Result<SearchOutcome> {
    let mut est = PlanEstimator::new(plan, catalog, weights)?;
    find_pace_configuration(&mut est, budgets, max_pace)
}

/// Reconstruct subplan `c`'s net witnessed history re-masked to `q_new`,
/// recursing through stateless subplans' leaf dependencies down to the
/// base tables' released rows (churn boundaries are quiesced, so the
/// reconstruction is exact).
fn snapshot_subplan(
    c: usize,
    engine: &EngineState,
    base_history: &impl Fn(TableId) -> DeltaBatch,
    q_ref: QueryId,
    q_new: QueryId,
    counter: &WorkCounter,
) -> Result<DeltaBatch> {
    let mut history = HashMap::new();
    for (path, src) in engine.executors[c].snapshot_leaf_dependencies() {
        // A leaf with a pending seed has read nothing but that seed, which
        // `hand_off` widened: it reaches the new query when the subplan runs.
        if engine.seeds[c].contains_key(&path) {
            continue;
        }
        let batch = match src {
            InputSource::Base(t) => base_history(t),
            InputSource::Subplan(d) => {
                // Reconstruct the child's history under the *witness's*
                // mask: the parent's own snapshot filters leaf rows by
                // `q_ref` before re-masking to `q_new`, so feeding it
                // `q_new`-masked rows would drop everything.
                snapshot_subplan(d.index(), engine, base_history, q_ref, q_ref, counter)?
            }
        };
        history.insert(path, batch);
    }
    engine.executors[c].snapshot_output(q_ref, q_new, &mut history, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{DataType, Value};
    use ishare_exec::batch_ref::run_logical;
    use ishare_expr::Expr;
    use ishare_ingest::CommitLog;
    use ishare_obs::ObsConfig;
    use ishare_plan::PlanBuilder;
    use ishare_storage::{ColumnStats, Field, Row, Schema, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 120.0,
                columns: vec![ColumnStats::ndv(10.0), ColumnStats::ndv(100.0)],
            },
        )
        .unwrap();
        c
    }

    fn feed(c: &Catalog, n: i64) -> HashMap<TableId, Vec<(Row, i64)>> {
        let t = c.table_by_name("t").unwrap().id;
        let rows = (0..n)
            .map(|i| (Row::new(vec![Value::Int(i % 10), Value::Int(i * 7 % 100)]), 1))
            .collect();
        [(t, rows)].into_iter().collect()
    }

    fn rows_of(feed: &HashMap<TableId, Vec<(Row, i64)>>) -> HashMap<TableId, Vec<Row>> {
        feed.iter().map(|(t, v)| (*t, v.iter().map(|(r, _)| r.clone()).collect())).collect()
    }

    /// Sum(v) by k over the whole table.
    fn q_all(c: &Catalog) -> LogicalPlan {
        PlanBuilder::scan(c, "t")
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .project_cols(&["k", "s"])
            .unwrap()
            .build()
    }

    /// Same aggregate over v < 50 only: shares the scan with `q_all`.
    fn q_sel(c: &Catalog) -> LogicalPlan {
        PlanBuilder::scan(c, "t")
            .unwrap()
            .select(|x| Ok(x.col("v")?.lt(Expr::lit(50i64))))
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .project_cols(&["k", "s"])
            .unwrap()
            .build()
    }

    /// Budgets tight enough that the pace search picks eager paces — the
    /// schedule then has intermediate wavefront boundaries for churn to
    /// land on.
    fn tight() -> BTreeMap<QueryId, FinalWorkConstraint> {
        let mut m = BTreeMap::new();
        for q in 0..4u16 {
            m.insert(QueryId(q), FinalWorkConstraint::Relative(0.5));
        }
        m
    }

    fn opts() -> ChurnOptions {
        ChurnOptions { max_pace: 4, ..Default::default() }
    }

    #[test]
    fn admit_identical_plan_hands_off_shared_root() {
        // Admitting a bit-for-bit copy of the live query reuses the whole
        // DAG: the new query's history arrives as a re-masked snapshot of
        // the shared root's state, never by replaying the stream.
        let c = catalog();
        let f = feed(&c, 120);
        let expected = run_logical(&q_all(&c), &c, &rows_of(&f)).unwrap();
        let script = ChurnScript::new(vec![ChurnEvent {
            num: 1,
            den: 3,
            op: ChurnOp::Admit {
                query: QueryId(1),
                plan: q_all(&c),
                constraint: FinalWorkConstraint::Relative(1.0),
            },
        }]);
        let mut source = Source::in_order(&f);
        let out = execute_churn_from_source(
            &[(QueryId(0), q_all(&c))],
            &tight(),
            &script,
            &c,
            &mut source,
            CostWeights::default(),
            &opts(),
        )
        .unwrap()
        .into_result()
        .unwrap();
        assert_eq!(out.run.results[&QueryId(0)], expected);
        assert_eq!(out.run.results[&QueryId(1)], expected);
        assert_eq!(out.churn.len(), 1);
        assert_eq!(out.churn[0].kind, ChurnKind::Admit);
        assert!(out.churn[0].nodes_reused > 0, "identical plan must reuse nodes");
        assert_eq!(out.churn[0].nodes_created, 0, "identical plan creates nothing");
        assert!(out.handoff_rows > 0, "shared-root admission must hand off state");
        assert!(out.live.contains(QueryId(0)) && out.live.contains(QueryId(1)));
    }

    #[test]
    fn admit_partial_share_splits_and_replays() {
        // The admitted query shares only the scan: the survivor splits at
        // the attachment frontier and the private cone is seeded from the source.
        let c = catalog();
        let f = feed(&c, 120);
        let e0 = run_logical(&q_all(&c), &c, &rows_of(&f)).unwrap();
        let e1 = run_logical(&q_sel(&c), &c, &rows_of(&f)).unwrap();
        let script = ChurnScript::new(vec![ChurnEvent {
            num: 1,
            den: 3,
            op: ChurnOp::Admit {
                query: QueryId(1),
                plan: q_sel(&c),
                constraint: FinalWorkConstraint::Relative(1.0),
            },
        }]);
        let mut source = Source::in_order(&f);
        let out = execute_churn_from_source(
            &[(QueryId(0), q_all(&c))],
            &tight(),
            &script,
            &c,
            &mut source,
            CostWeights::default(),
            &opts(),
        )
        .unwrap()
        .into_result()
        .unwrap();
        assert_eq!(out.run.results[&QueryId(0)], e0);
        assert_eq!(out.run.results[&QueryId(1)], e1);
        assert_eq!(out.churn.len(), 1);
        assert!(out.churn[0].nodes_reused > 0, "the scan is shared");
        assert!(out.churn[0].nodes_created > 0, "the select cone is new");
    }

    #[test]
    fn remove_mid_run_reclaims_state() {
        let c = catalog();
        let f = feed(&c, 120);
        let e0 = run_logical(&q_all(&c), &c, &rows_of(&f)).unwrap();
        let script = ChurnScript::new(vec![ChurnEvent {
            num: 1,
            den: 3,
            op: ChurnOp::Remove { query: QueryId(1) },
        }]);
        let mut source = Source::in_order(&f);
        let out = execute_churn_from_source(
            &[(QueryId(0), q_all(&c)), (QueryId(1), q_sel(&c))],
            &tight(),
            &script,
            &c,
            &mut source,
            CostWeights::default(),
            &opts(),
        )
        .unwrap()
        .into_result()
        .unwrap();
        assert_eq!(out.run.results[&QueryId(0)], e0);
        assert!(!out.run.results.contains_key(&QueryId(1)), "removed query has no result");
        assert_eq!(out.removed, vec![QueryId(1)]);
        assert!(out.reclaimed_rows > 0, "the private cone's state is reclaimed");
        assert!(out.live.contains(QueryId(0)) && !out.live.contains(QueryId(1)));
        assert_eq!(out.churn.len(), 1);
        assert_eq!(out.churn[0].kind, ChurnKind::Remove);
    }

    #[test]
    fn admit_then_remove_sequence() {
        // Admit a sharer mid-run, then remove the original: the run ends
        // serving only the admitted query, and its result is still exact.
        let c = catalog();
        let f = feed(&c, 120);
        let e1 = run_logical(&q_sel(&c), &c, &rows_of(&f)).unwrap();
        let script = ChurnScript::new(vec![
            ChurnEvent {
                num: 1,
                den: 3,
                op: ChurnOp::Admit {
                    query: QueryId(1),
                    plan: q_sel(&c),
                    constraint: FinalWorkConstraint::Relative(1.0),
                },
            },
            ChurnEvent { num: 2, den: 3, op: ChurnOp::Remove { query: QueryId(0) } },
        ]);
        let mut source = Source::in_order(&f);
        let out = execute_churn_from_source(
            &[(QueryId(0), q_all(&c))],
            &tight(),
            &script,
            &c,
            &mut source,
            CostWeights::default(),
            &opts(),
        )
        .unwrap()
        .into_result()
        .unwrap();
        assert_eq!(out.run.results.len(), 1);
        assert_eq!(out.run.results[&QueryId(1)], e1);
        assert_eq!(out.removed, vec![QueryId(0)]);
        assert_eq!(out.churn.len(), 2);
    }

    #[test]
    fn removed_id_readmits_with_another_plan() {
        // q1 leaves at 1/3 and comes back at 2/3 under a different
        // predicate: its new private cone is seeded with the base history
        // read back from the source, whose rows must all carry the
        // re-admitted bit again — including those pushed while q1 was gone.
        let c = catalog();
        let f = feed(&c, 120);
        let q_lt70 = PlanBuilder::scan(&c, "t")
            .unwrap()
            .select(|x| Ok(x.col("v")?.lt(Expr::lit(70i64))))
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .project_cols(&["k", "s"])
            .unwrap()
            .build();
        let e0 = run_logical(&q_all(&c), &c, &rows_of(&f)).unwrap();
        let e1 = run_logical(&q_lt70, &c, &rows_of(&f)).unwrap();
        let script = ChurnScript::new(vec![
            ChurnEvent { num: 1, den: 3, op: ChurnOp::Remove { query: QueryId(1) } },
            ChurnEvent {
                num: 2,
                den: 3,
                op: ChurnOp::Admit {
                    query: QueryId(1),
                    plan: q_lt70,
                    constraint: FinalWorkConstraint::Relative(1.0),
                },
            },
        ]);
        let mut source = Source::in_order(&f);
        let out = execute_churn_from_source(
            &[(QueryId(0), q_all(&c)), (QueryId(1), q_sel(&c))],
            &tight(),
            &script,
            &c,
            &mut source,
            CostWeights::default(),
            &opts(),
        )
        .unwrap()
        .into_result()
        .unwrap();
        let kinds: Vec<ChurnKind> = out.churn.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [ChurnKind::Remove, ChurnKind::Admit]);
        assert!(out.churn[1].nodes_created > 0, "the new predicate gets a private cone");
        assert_eq!(out.removed, vec![QueryId(1)]);
        assert_eq!(out.run.results[&QueryId(0)], e0);
        assert_eq!(out.run.results[&QueryId(1)], e1);
    }

    #[test]
    fn churn_errors_are_typed() {
        let c = catalog();
        let f = feed(&c, 30);
        let run = |initial: &[(QueryId, LogicalPlan)], script: ChurnScript, o: ChurnOptions| {
            let mut source = Source::in_order(&f);
            execute_churn_from_source(
                initial,
                &tight(),
                &script,
                &c,
                &mut source,
                CostWeights::default(),
                &o,
            )
        };
        let admit = |q: u16, num: u32, den: u32| {
            ChurnScript::new(vec![ChurnEvent {
                num,
                den,
                op: ChurnOp::Admit {
                    query: QueryId(q),
                    plan: q_sel(&c),
                    constraint: FinalWorkConstraint::Relative(1.0),
                },
            }])
        };
        let initial = vec![(QueryId(0), q_all(&c))];

        // Duplicate admission.
        assert!(matches!(run(&initial, admit(0, 1, 3), opts()), Err(Error::Churn(_))));
        // Unknown removal.
        let unknown = ChurnScript::new(vec![ChurnEvent {
            num: 1,
            den: 3,
            op: ChurnOp::Remove { query: QueryId(7) },
        }]);
        assert!(matches!(run(&initial, unknown, opts()), Err(Error::Churn(_))));
        // Removing the last live query.
        let last = ChurnScript::new(vec![ChurnEvent {
            num: 1,
            den: 3,
            op: ChurnOp::Remove { query: QueryId(0) },
        }]);
        assert!(matches!(run(&initial, last, opts()), Err(Error::Churn(_))));
        // Infeasible admission budget.
        let infeasible = ChurnScript::new(vec![ChurnEvent {
            num: 1,
            den: 3,
            op: ChurnOp::Admit {
                query: QueryId(1),
                plan: q_sel(&c),
                constraint: FinalWorkConstraint::Absolute(0.0),
            },
        }]);
        assert!(matches!(run(&initial, infeasible, opts()), Err(Error::Churn(_))));
        // Event at or past the final boundary.
        assert!(matches!(run(&initial, admit(1, 1, 1), opts()), Err(Error::Churn(_))));
        assert!(matches!(run(&initial, admit(1, 5, 3), opts()), Err(Error::Churn(_))));
        // Zero denominator.
        assert!(matches!(run(&initial, admit(1, 0, 0), opts()), Err(Error::InvalidConfig(_))));
        // Fractions that decrease: q2 is due before q1. Equal ones are legal.
        let two = |first: (u32, u32), second: (u32, u32)| {
            let mut script = admit(1, first.0, first.1);
            script.events.extend(admit(2, second.0, second.1).events);
            script
        };
        match run(&initial, two((2, 4), (1, 4)), opts()) {
            Err(Error::InvalidConfig(msg)) => {
                assert!(msg.contains("event 1 at 1/4") && msg.contains("event 0 at 2/4"), "{msg}")
            }
            other => panic!("{other:?}"),
        }
        assert!(run(&initial, two((1, 4), (2, 8)), opts()).is_ok());
        // Reference datapath has no state surgery.
        let mut ref_opts = opts();
        ref_opts.source.mode = ExecMode::Reference;
        assert!(matches!(run(&initial, admit(1, 1, 3), ref_opts), Err(Error::Churn(_))));
        // Empty initial set.
        assert!(matches!(run(&[], admit(1, 1, 3), opts()), Err(Error::InvalidConfig(_))));
        // A zero pace bound is rejected, not silently replaced.
        let zero = ChurnOptions { max_pace: 0, ..opts() };
        assert!(matches!(run(&initial, admit(1, 1, 3), zero), Err(Error::InvalidConfig(_))));
        assert_eq!(ChurnOptions::default().max_pace, 8);
    }

    #[test]
    fn obs_toggle_is_bit_identical() {
        let c = catalog();
        let f = feed(&c, 120);
        let script = ChurnScript::new(vec![
            ChurnEvent {
                num: 1,
                den: 3,
                op: ChurnOp::Admit {
                    query: QueryId(1),
                    plan: q_sel(&c),
                    constraint: FinalWorkConstraint::Relative(1.0),
                },
            },
            ChurnEvent { num: 2, den: 3, op: ChurnOp::Remove { query: QueryId(0) } },
        ]);
        let run = |obs: Option<ObsConfig>| {
            let mut source = Source::in_order(&f);
            let mut o = opts();
            o.source.obs = obs;
            execute_churn_from_source(
                &[(QueryId(0), q_all(&c))],
                &tight(),
                &script,
                &c,
                &mut source,
                CostWeights::default(),
                &o,
            )
            .unwrap()
            .into_result()
            .unwrap()
        };
        let plain = run(None);
        let obs = run(Some(ObsConfig::default()));
        assert!(plain.run.obs.is_none());
        let report = obs.run.obs.as_ref().expect("obs run carries a report");
        assert_eq!(plain.run.results, obs.run.results);
        assert_eq!(plain.run.final_work, obs.run.final_work);
        assert_eq!(plain.run.total_work.get().to_bits(), obs.run.total_work.get().to_bits());
        assert_eq!(plain.run.executions, obs.run.executions);
        assert_eq!(plain.run.executions_per_query, obs.run.executions_per_query);
        assert_eq!(plain.churn, obs.churn);
        assert_eq!(plain.reclaimed_rows, obs.reclaimed_rows);
        assert_eq!(plain.handoff_rows, obs.handoff_rows);
        assert_eq!(report.metrics.counter("churn.admissions"), Some(1.0));
        assert_eq!(report.metrics.counter("churn.removals"), Some(1.0));
        assert_eq!(report.metrics.gauge("churn.live_queries"), Some(1.0));
    }

    /// Three live queries (so a dependency level holds several ticks), a
    /// split-inducing admission at 1/3 and a removal at 2/3.
    fn churny(c: &Catalog) -> (Vec<(QueryId, LogicalPlan)>, ChurnScript) {
        let lt = |cutoff: i64| {
            PlanBuilder::scan(c, "t")
                .unwrap()
                .select(|x| Ok(x.col("v")?.lt(Expr::lit(cutoff))))
                .unwrap()
                .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
                .unwrap()
                .build()
        };
        let initial = vec![(QueryId(0), q_all(c)), (QueryId(2), lt(30)), (QueryId(3), lt(70))];
        let script = ChurnScript::new(vec![
            ChurnEvent {
                num: 1,
                den: 3,
                op: ChurnOp::Admit {
                    query: QueryId(1),
                    plan: q_sel(c),
                    constraint: FinalWorkConstraint::Relative(1.0),
                },
            },
            ChurnEvent { num: 2, den: 3, op: ChurnOp::Remove { query: QueryId(0) } },
        ]);
        (initial, script)
    }

    fn run_churny(c: &Catalog, source: SourceOptions) -> ChurnOutcome {
        try_churny(c, source).unwrap()
    }

    fn try_churny(c: &Catalog, source: SourceOptions) -> Result<ChurnOutcome> {
        let f = feed(c, 120);
        let (initial, script) = churny(c);
        let mut src = Source::in_order(&f);
        let o = ChurnOptions { source, max_pace: 8 };
        // Tight enough for intermediate boundaries, loose enough that the
        // admission stays feasible next to three live queries.
        let cons: BTreeMap<QueryId, FinalWorkConstraint> =
            (0..4).map(|q| (QueryId(q), FinalWorkConstraint::Relative(0.6))).collect();
        execute_churn_from_source(&initial, &cons, &script, c, &mut src, CostWeights::default(), &o)
    }

    fn completed(out: ChurnOutcome) -> (ChurnRunResult, CommitLog) {
        match out {
            ChurnOutcome::Completed { result, log } => (*result, log),
            ChurnOutcome::Suspended { .. } => panic!("run completed"),
        }
    }

    /// Results, every measured work number, the churn records (handoff work
    /// bits included) and the commit log agree to the bit.
    fn assert_same_run(
        a: &(ChurnRunResult, CommitLog),
        b: &(ChurnRunResult, CommitLog),
        label: &str,
    ) {
        let bits = |m: &BTreeMap<QueryId, f64>| -> Vec<(QueryId, u64)> {
            m.iter().map(|(q, w)| (*q, w.to_bits())).collect()
        };
        assert_eq!(a.0.run.results, b.0.run.results, "{label}: results");
        assert_eq!(
            a.0.run.total_work.get().to_bits(),
            b.0.run.total_work.get().to_bits(),
            "{label}: total_work"
        );
        assert_eq!(bits(&a.0.run.final_work), bits(&b.0.run.final_work), "{label}: final_work");
        assert_eq!(a.0.run.executions_per_query, b.0.run.executions_per_query, "{label}");
        assert_eq!(a.0.churn, b.0.churn, "{label}: churn records");
        assert_eq!(a.0.quiesce_ticks, b.0.quiesce_ticks, "{label}: quiesce ticks");
        assert_eq!(a.1, b.1, "{label}: commit log");
    }

    /// Obs on and off run the same churn, and the obs run's slack ledger
    /// upholds every invariant, the admitted query's included.
    #[test]
    fn worker_and_obs_runs_are_bit_identical() {
        let c = catalog();
        let base = completed(run_churny(&c, SourceOptions::default()));
        assert_eq!(base.0.churn.len(), 2);
        assert!(base.0.churn[0].nodes_created > 0, "the admission splits a survivor");
        assert!(base.0.quiesce_ticks > 0, "churn boundaries drain in-flight deltas");
        let obs = SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() };
        let alt = completed(run_churny(&c, obs));
        assert_same_run(&base, &alt, "obs on");
        let slack = alt.0.run.obs.and_then(|r| r.slack).expect("obs runs carry a slack ledger");
        assert!(slack.fronts() > 0, "ledger sampled");
        slack.verify().unwrap();
    }

    #[test]
    fn replay_verifies_churn_trajectory() {
        let c = catalog();
        let base = completed(run_churny(&c, SourceOptions::default()));
        let log = &base.1;
        assert!(log.entries.iter().any(|e| !e.churn.is_empty()), "log records churn");

        // Kill after the first churn boundary has committed: the partial
        // log is a prefix of the full one.
        let cut = 1 + log.entries.iter().position(|e| !e.churn.is_empty()).unwrap();
        let kill = SourceOptions { stop_after: Some(cut), ..Default::default() };
        let partial = match run_churny(&c, kill) {
            ChurnOutcome::Suspended { log } => log,
            ChurnOutcome::Completed { .. } => panic!("run suspended"),
        };
        assert_eq!(partial.entries, log.entries[..cut]);

        // Resume = replay under verification; the rerun is bit-identical.
        let resume = SourceOptions { verify: Some(partial), ..Default::default() };
        assert_same_run(&base, &completed(run_churny(&c, resume)), "killed+resumed");

        // A tampered churn trajectory is caught, not silently diverged.
        let mut tampered = log.clone();
        let wf = tampered.entries.iter().position(|e| !e.churn.is_empty()).unwrap();
        tampered.entries[wf].churn[0].nodes_reused += 1;
        let bad = SourceOptions { verify: Some(tampered), ..Default::default() };
        assert!(matches!(try_churny(&c, bad), Err(Error::InvalidDelta(_))));
    }
}
