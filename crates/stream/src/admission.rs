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
//! 2. runs the pace search over the re-cut plan under the live queries'
//!    *residual* budgets `R(q) = max(0, L(q) − charged final work)`; an
//!    infeasible admission is rejected with [`Error::Churn`] before any
//!    engine state is touched (the merge happens on a clone of the sharer);
//! 3. reconciles the engine: surviving subplans keep their executors,
//!    buffers, and consumer cursors (re-compiled in place via
//!    `refresh_subplan`); a frontier cut *inside* a surviving subplan
//!    splits it, transplanting operator state path-by-path with
//!    `StateBundle::extract_prefix`; new private subplans start cold;
//! 4. hands existing state to the new query where subplans are shared:
//!    the *witness query* (a query that has seen exactly the rows the new
//!    query would have seen over the reused structure) indexes operator
//!    state snapshots which are re-masked to the new query and seeded into
//!    its private cone — no replay of history through shared prefixes.
//!    Private cones over base tables replay the base buffers instead
//!    (base buffers retain their full stream in churn mode).
//!
//! ## Removal
//!
//! Removal reverses: the query's bit is cleared everywhere, query-empty
//! nodes are tombstoned, the re-cut drops subplans whose query set went
//! empty, their executors and buffers are garbage-collected (reported as
//! `churn.reclaimed_rows`), surviving operator state drops the query's
//! mask column via `retire_query`, and the query's slack-ledger entry is
//! released.
//!
//! ## Determinism
//!
//! Every churn event is applied on a *quiesced* boundary: the loop first
//! drains all delta buffers with one children-first execution sweep, so
//! operator state, buffers, and consumer cursors agree exactly when state
//! is snapshotted or transplanted. Events are recorded in the ingest commit
//! log as [`ChurnRecord`]s, so a killed run replays the exact churn
//! trajectory (replay verification compares whole commit entries, churn
//! included). The surgery itself runs on the coordinating thread between
//! two fronts, and a churn run's fronts go through the same tick function
//! and the same fold as any other run's — so results and all measured work
//! numbers are bit-identical across obs on/off, partition counts, worker
//! threads ([`SourceOptions::workers`]), and kill/resume.

use crate::driver::{run_wavefronts, Live, RunResult, SourceOptions, SourceOutcome};
use crate::engine::Seeds;
use crate::fold::Fold;
use ishare_common::{
    CostWeights, Error, NodeId, QueryId, QuerySet, Result, SubplanId, TableId, WorkCounter,
};
use ishare_core::constraint::batch_final_works;
use ishare_core::pace_search::SearchOutcome;
use ishare_core::{find_pace_configuration, resolve_constraints, FinalWorkConstraint};
use ishare_cost::PlanEstimator;
use ishare_exec::executor::StateBundle;
use ishare_exec::{ExecMode, ExecOptions, SubplanExecutor};
use ishare_ingest::{ChurnKind, ChurnRecord, CommitLog, Source};
use ishare_mqo::{normalize, IncrementalSharer, MqoConfig};
use ishare_plan::{DagOp, InputSource, LogicalPlan, SharedDag, SharedPlan};
use ishare_storage::{Catalog, ConsumerId, DeltaBatch, DeltaBuffer, Retain, Schema};
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
#[derive(Debug, Clone, Default)]
pub struct ChurnOptions {
    /// Ingest/runtime options shared with the plain source drivers
    /// ([`ExecMode::Reference`] is rejected: the oracle datapath has no
    /// state surgery).
    pub source: SourceOptions,
    /// MQO configuration for the incremental sharer.
    pub mqo: MqoConfig,
    /// Pace-search bound (0 falls back to 8).
    pub max_pace: u32,
}

impl ChurnOptions {
    fn max_pace(&self) -> u32 {
        if self.max_pace == 0 {
            8
        } else {
            self.max_pace
        }
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

/// Outcome of a churn run, mirroring [`crate::SourceOutcome`].
#[derive(Debug)]
pub enum ChurnOutcome {
    /// The run executed every wavefront.
    Completed {
        /// The measured run.
        result: Box<ChurnRunResult>,
        /// Commit log (wavefronts + churn records) for replay verification.
        log: CommitLog,
    },
    /// Stopped by [`SourceOptions::stop_after`].
    Suspended {
        /// Commit log of the completed wavefronts.
        log: CommitLog,
    },
}

impl ChurnOutcome {
    /// Unwrap a completed run's result; errors on `Suspended`.
    pub fn into_result(self) -> Result<ChurnRunResult> {
        match self {
            ChurnOutcome::Completed { result, .. } => Ok(*result),
            ChurnOutcome::Suspended { log } => Err(Error::InvalidConfig(format!(
                "churn run suspended after {} wavefronts, no result",
                log.len()
            ))),
        }
    }
}

/// `a/b <= c/d`, exact in `u64`.
fn frac_le(a: u32, b: u32, c: u32, d: u32) -> bool {
    u64::from(a) * u64::from(d) <= u64::from(c) * u64::from(b)
}

/// Where a post-churn subplan's executor and buffer came from.
#[derive(Debug, Clone, PartialEq)]
enum Origin {
    /// Same root node as old subplan `i`: executor, buffer, and consumer
    /// cursors carried over (a split *parent* is also a survivor — it keeps
    /// the old buffer and the state above the cut).
    Survivor(usize),
    /// Root was *interior* to old subplan `old` at tree path `prefix`:
    /// fresh executor with state transplanted from the donor's bundle,
    /// fresh buffer, consumer cursors carried from the donor's leaves
    /// under `prefix`.
    Split {
        /// Donor (old) subplan index.
        old: usize,
        /// Tree path of this subplan's root inside the donor.
        prefix: Vec<usize>,
    },
    /// Created for an admitted query's private cone: everything cold.
    Fresh,
}

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
    if initial.is_empty() {
        return Err(Error::InvalidConfig("churn run needs at least one initial query".into()));
    }
    for ev in &script.events {
        if ev.den == 0 {
            return Err(Error::InvalidConfig("churn event with zero denominator".into()));
        }
        if ev.num >= ev.den {
            return Err(Error::Churn(format!(
                "churn event at fraction {}/{} is at or beyond the final boundary",
                ev.num, ev.den
            )));
        }
    }

    let started = Instant::now();
    let mut sharer = IncrementalSharer::new(opts.mqo.clone());
    for (q, lp) in initial {
        sharer.admit(*q, &normalize(lp))?;
    }
    sharer.seal();
    let (plan, roots) = SharedPlan::from_dag_with_roots(sharer.dag(), |_| false, &[])?;
    let budgets = resolve_constraints(initial, constraints, catalog, weights)?;
    let outcome = search_from_batch(&plan, catalog, weights, &budgets, opts.max_pace())?;

    let mut live =
        Live::new(Cow::Owned(plan), outcome.paces.as_slice(), catalog, weights, &opts.source)?;
    live.started = started;
    let mut runner = Runner {
        catalog,
        weights,
        max_pace: opts.max_pace(),
        exec_opts: opts.source.exec_options(),
        pending: script.events.iter().cloned().collect(),
        sharer,
        roots,
        forced: Vec::new(),
        budgets,
        removed: Vec::new(),
        churn: Vec::new(),
        reclaimed_total: 0,
        handoff_total: 0,
        quiesce_ticks: 0,
        merge_reused: 0,
        merge_created: 0,
    };
    match run_wavefronts(live, source, &opts.source, None, Some(&mut runner))? {
        SourceOutcome::Suspended { log } => Ok(ChurnOutcome::Suspended { log }),
        SourceOutcome::Completed { result, log } => {
            Ok(ChurnOutcome::Completed { result: Box::new(runner.finish(*result)), log })
        }
    }
}

/// The churn state of a run: the live sharer and budgets, the script's
/// pending events, and what the applied ones added up to. The wavefront
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
    removed: Vec<QueryId>,
    churn: Vec<ChurnRecord>,
    reclaimed_total: u64,
    handoff_total: u64,
    /// Extra drain executions the loop ran to quiesce churn boundaries.
    pub(crate) quiesce_ticks: usize,
    merge_reused: u64,
    merge_created: u64,
}

impl Runner<'_> {
    pub(crate) fn budgets(&self) -> &BTreeMap<QueryId, f64> {
        &self.budgets
    }

    /// Pop the events due at the boundary with arrival fraction `num/den`.
    pub(crate) fn take_due(&mut self, num: u32, den: u32) -> Vec<ChurnEvent> {
        let mut due = Vec::new();
        while self.pending.front().is_some_and(|ev| frac_le(ev.num, ev.den, num, den)) {
            due.extend(self.pending.pop_front());
        }
        due
    }

    /// Live queries' budgets minus final work already charged.
    fn residual_constraints(&self, plan: &SharedPlan, fold: &Fold) -> BTreeMap<QueryId, f64> {
        self.budgets.iter().map(|(&q, &l)| (q, (l - fold.final_work(plan, q)).max(0.0))).collect()
    }

    /// Apply one event on the quiesced engine: validate on a clone of the
    /// sharer, re-cut, re-search, reconcile `live`'s engine, then swap
    /// plan and paces and tell `fold` about the re-cut.
    pub(crate) fn apply(
        &mut self,
        live: &mut Live<'_>,
        fold: &mut Fold,
        ev: ChurnEvent,
    ) -> Result<ChurnRecord> {
        let record = match ev.op {
            ChurnOp::Admit { query, plan, constraint } => {
                self.apply_admit(live, fold, query, &plan, constraint)?
            }
            ChurnOp::Remove { query } => self.apply_remove(live, fold, query)?,
        };
        self.churn.push(record.clone());
        Ok(record)
    }

    fn apply_admit(
        &mut self,
        live: &mut Live<'_>,
        fold: &mut Fold,
        q: QueryId,
        lp: &LogicalPlan,
        constraint: FinalWorkConstraint,
    ) -> Result<ChurnRecord> {
        // Speculate on a clone: nothing below touches live state until the
        // admission has fully validated.
        let mut trial = self.sharer.clone();
        let diff = trial.admit(q, &normalize(lp))?;
        let l = match constraint {
            FinalWorkConstraint::Absolute(x) => x,
            FinalWorkConstraint::Relative(r) => {
                let batch = batch_final_works(&[(q, lp.clone())], self.catalog, self.weights)?;
                r * batch.get(&q).copied().ok_or_else(|| {
                    Error::InvalidConfig(format!("no batch baseline for admitted query {q}"))
                })?
            }
        };

        let mut forced = self.forced.clone();
        for r in self.roots.iter().chain(diff.frontier.iter()) {
            if !forced.contains(r) {
                forced.push(*r);
            }
        }
        let (plan2, roots2) = SharedPlan::from_dag_with_roots(trial.dag(), |_| false, &forced)?;

        // Witness requirement: any shared (non-fresh) subplan now serving
        // the new query needs a witness query to index its state by. The
        // witness is *per subplan* — a global intersection over all reused
        // nodes is too strict once the new query taps several cones shared
        // by disjoint query subsets (routine in TPC-H workloads).
        let old_by_root: HashMap<u32, usize> =
            self.roots.iter().enumerate().map(|(i, r)| (r.0, i)).collect();
        let witnesses = subplan_witnesses(trial.dag(), &plan2, &roots2, q, |root| {
            !old_by_root.contains_key(&root.0) && diff.created.contains(root)
        });
        for (j, root) in roots2.iter().enumerate() {
            let fresh = !old_by_root.contains_key(&root.0) && diff.created.contains(root);
            if !fresh && plan2.subplans[j].queries.contains(q) && witnesses[j].is_none() {
                return Err(Error::Churn(format!(
                    "admission of query {q} shares subplan {j} (root {root}) but no live \
                     query witnesses its input cone; state handoff would be ambiguous"
                )));
            }
        }

        let mut cons = self.residual_constraints(&live.plan, fold);
        cons.insert(q, l);
        let outcome = search_from_batch(&plan2, self.catalog, self.weights, &cons, self.max_pace)?;
        if !outcome.feasible {
            return Err(Error::Churn(format!(
                "admission of query {q} is infeasible under final-work budget {l} given the \
                 live queries' residual budgets"
            )));
        }

        let (handoff_rows, handoff_work) =
            self.reconcile(live, &plan2, &roots2, Some((&witnesses, q, &diff.created)), None)?;

        let record = ChurnRecord {
            kind: ChurnKind::Admit,
            query: q.0,
            nodes_reused: diff.reused.len() as u32,
            nodes_created: diff.created.len() as u32,
            subplans: plan2.len() as u32,
            handoff_rows,
            reclaimed_rows: 0,
            handoff_work_bits: handoff_work.to_bits(),
        };
        self.sharer = trial;
        self.roots = roots2;
        self.forced = forced;
        self.budgets.insert(q, l);
        self.handoff_total += handoff_rows;
        self.merge_reused += u64::from(record.nodes_reused);
        self.merge_created += u64::from(record.nodes_created);
        fold.recut(&live.plan, &plan2);
        if let Some(ledger) = fold.ledger.as_mut() {
            ledger.add_query(q, l);
        }
        live.plan = Cow::Owned(plan2);
        live.paces = outcome.paces.as_slice().to_vec();
        Ok(record)
    }

    fn apply_remove(
        &mut self,
        live: &mut Live<'_>,
        fold: &mut Fold,
        q: QueryId,
    ) -> Result<ChurnRecord> {
        let mut trial = self.sharer.clone();
        let diff = trial.remove(q)?;
        if trial.queries().is_empty() {
            return Err(Error::Churn(format!(
                "cannot remove query {q}: it is the last live query"
            )));
        }
        let mut forced = self.forced.clone();
        for r in &self.roots {
            if !forced.contains(r) {
                forced.push(*r);
            }
        }
        let (plan2, roots2) = SharedPlan::from_dag_with_roots(trial.dag(), |_| false, &forced)?;
        let mut cons = self.residual_constraints(&live.plan, fold);
        cons.remove(&q);
        // Best effort: the remaining queries' residuals may already be
        // exhausted; removal itself is never rejected for pace reasons.
        let outcome = search_from_batch(&plan2, self.catalog, self.weights, &cons, self.max_pace)?;

        let (reclaimed, _) = self.reconcile(live, &plan2, &roots2, None, Some(q))?;

        let record = ChurnRecord {
            kind: ChurnKind::Remove,
            query: q.0,
            nodes_reused: diff.shrunk_nodes.len() as u32,
            nodes_created: diff.removed_nodes.len() as u32,
            subplans: plan2.len() as u32,
            handoff_rows: 0,
            reclaimed_rows: reclaimed,
            handoff_work_bits: 0,
        };
        self.sharer = trial;
        self.roots = roots2;
        self.forced = forced;
        self.budgets.remove(&q);
        self.removed.push(q);
        self.reclaimed_total += reclaimed;
        fold.recut(&live.plan, &plan2);
        if let Some(ledger) = fold.ledger.as_mut() {
            ledger.drop_query(q);
        }
        live.plan = Cow::Owned(plan2);
        live.paces = outcome.paces.as_slice().to_vec();
        Ok(record)
    }

    /// Rebuild the engine around the re-cut plan, carrying state by root
    /// node identity. Returns `(rows, handoff_work)`: admissions report
    /// rows/work seeded into the new query, removals report rows reclaimed
    /// (work 0).
    #[allow(clippy::type_complexity)]
    fn reconcile(
        &mut self,
        live: &mut Live<'_>,
        plan2: &SharedPlan,
        roots2: &[NodeId],
        admit: Option<(&[Option<QueryId>], QueryId, &Vec<NodeId>)>,
        remove: Option<QueryId>,
    ) -> Result<(u64, f64)> {
        let n2 = plan2.len();
        let schemas = plan2.schemas(self.catalog)?;
        let old_by_root: HashMap<u32, usize> =
            self.roots.iter().enumerate().map(|(i, r)| (r.0, i)).collect();
        let created: Option<&Vec<NodeId>> = admit.as_ref().map(|(_, _, c)| *c);

        let engine = &mut live.engine;
        let mut old_execs: Vec<Option<SubplanExecutor>> =
            std::mem::take(&mut engine.executors).into_iter().map(Some).collect();
        let mut old_bufs: Vec<Option<DeltaBuffer>> =
            std::mem::take(&mut engine.sp_buffers).into_iter().map(Some).collect();
        let old_cons: Vec<Vec<(Vec<usize>, InputSource, ConsumerId)>> =
            std::mem::take(&mut engine.leaf_consumers);
        let mut old_seeds: Vec<Seeds> = std::mem::take(&mut engine.seeds);

        let mut origin: Vec<Option<Origin>> = vec![None; n2];
        let mut new_execs: Vec<Option<SubplanExecutor>> = (0..n2).map(|_| None).collect();
        let mut new_bufs: Vec<Option<DeltaBuffer>> = (0..n2).map(|_| None).collect();

        // Pass 1 — survivors: same root node, carry executor + buffer.
        // A refresh rejection (shape change) marks a split donor.
        let mut split_parents: Vec<(usize, usize)> = Vec::new();
        for (j, root) in roots2.iter().enumerate() {
            let Some(&i) = old_by_root.get(&root.0) else { continue };
            origin[j] = Some(Origin::Survivor(i));
            new_bufs[j] = Some(old_bufs[i].take().ok_or_else(|| {
                Error::InvalidPlan(format!("old subplan {i} buffer claimed twice"))
            })?);
            let mut ex = old_execs[i]
                .take()
                .ok_or_else(|| Error::InvalidPlan(format!("old subplan {i} claimed twice")))?;
            match ex.refresh_subplan(&plan2.subplans[j], self.catalog, &schemas) {
                Ok(()) => new_execs[j] = Some(ex),
                Err(Error::Churn(_)) => {
                    old_execs[i] = Some(ex);
                    split_parents.push((i, j));
                }
                Err(e) => return Err(e),
            }
        }

        // Pass 2 — splits: a forced cut landed *inside* a surviving
        // subplan. Transplant operator state path-by-path from the donor.
        for &(i, j1) in &split_parents {
            let mut donor = old_execs[i]
                .take()
                .ok_or_else(|| Error::InvalidPlan(format!("split donor {i} missing")))?;
            let bundle = donor.take_state_bundle()?;
            self.build_split(
                plan2,
                roots2,
                &schemas,
                j1,
                bundle,
                i,
                Vec::new(),
                created,
                &mut origin,
                &mut new_execs,
                &mut new_bufs,
            )?;
        }

        // Pass 3 — everything else is a fresh private subplan.
        for j in 0..n2 {
            if origin[j].is_some() {
                continue;
            }
            origin[j] = Some(Origin::Fresh);
            new_execs[j] = Some(SubplanExecutor::new_with_options(
                &plan2.subplans[j],
                self.catalog,
                &schemas,
                self.weights,
                self.exec_opts,
            )?);
            new_bufs[j] = Some(DeltaBuffer::new());
        }
        for q in plan2.queries().iter() {
            if let Some(r) = plan2.query_root(q) {
                new_bufs[r.index()]
                    .as_mut()
                    .expect("all buffers placed")
                    .set_retention(Retain::All);
            }
        }

        // Old subplan index → new index of the survivor that kept its
        // buffer (for retiring stale cursors on moved buffers).
        let old_to_new: HashMap<usize, usize> = origin
            .iter()
            .enumerate()
            .filter_map(|(j, o)| match o {
                Some(Origin::Survivor(i)) => Some((*i, j)),
                _ => None,
            })
            .collect();

        // Pass 4 — consumers: carry cursors by (old subplan, full leaf
        // path); register fresh ones for new leaves. Pending seed batches
        // follow their leaf.
        let mut claimed: Vec<Vec<bool>> = old_cons.iter().map(|v| vec![false; v.len()]).collect();
        let mut new_cons: Vec<Vec<(Vec<usize>, InputSource, ConsumerId)>> =
            (0..n2).map(|_| Vec::new()).collect();
        let mut new_seeds: Vec<Seeds> = (0..n2).map(|_| Seeds::new()).collect();
        for j in 0..n2 {
            let leaves = new_execs[j].as_ref().expect("all executors placed").leaf_paths();
            let o = origin[j].clone().expect("all origins placed");
            let mut regs = Vec::with_capacity(leaves.len());
            for (path, src) in leaves {
                let carried = match &o {
                    Origin::Fresh => None,
                    Origin::Survivor(i) => claim(&old_cons[*i], &mut claimed[*i], &path)
                        .map(|cid| (*i, cid, path.clone())),
                    Origin::Split { old, prefix } => {
                        let mut full = prefix.clone();
                        full.extend_from_slice(&path);
                        claim(&old_cons[*old], &mut claimed[*old], &full)
                            .map(|cid| (*old, cid, full))
                    }
                };
                let cid = match carried {
                    Some((i, cid, full)) => {
                        if let Some(batch) = old_seeds[i].remove(&full) {
                            new_seeds[j].insert(path.clone(), batch);
                        }
                        cid
                    }
                    None => match src {
                        InputSource::Base(t) => {
                            self.catalog.table(t)?;
                            let b = engine.base_buffers.entry(t).or_default();
                            b.set_retention(Retain::All);
                            // Offset 0 on a Retain::All buffer = replay the
                            // full base history (an admitted query's
                            // private cone sees every row).
                            b.register_consumer()?
                        }
                        InputSource::Subplan(c) => {
                            let fresh_child = matches!(origin[c.index()], Some(Origin::Fresh));
                            let buf = new_bufs[c.index()].as_mut().expect("all buffers placed");
                            if matches!(o, Origin::Fresh) && !fresh_child {
                                // Shared child: its history arrives as a
                                // seeded snapshot, never by replaying the
                                // buffer (which may be compacted anyway).
                                buf.register_consumer_at_end()
                            } else {
                                buf.register_consumer()?
                            }
                        }
                    },
                };
                regs.push((path, src, cid));
            }
            new_cons[j] = regs;
        }

        // Pass 5 — retire cursors nothing claimed (a dead subplan's reads,
        // or a split donor's cut-away leaves) so surviving buffers can
        // compact past them.
        for (i, entries) in old_cons.iter().enumerate() {
            for (k, (_, src, cid)) in entries.iter().enumerate() {
                if claimed[i][k] {
                    continue;
                }
                match src {
                    InputSource::Base(t) => {
                        if let Some(b) = engine.base_buffers.get_mut(t) {
                            b.retire_consumer(*cid)?;
                        }
                    }
                    InputSource::Subplan(c) => {
                        if let Some(&jn) = old_to_new.get(&c.index()) {
                            new_bufs[jn]
                                .as_mut()
                                .expect("all buffers placed")
                                .retire_consumer(*cid)?;
                        }
                    }
                }
            }
        }

        // Pass 6 — GC dead subplans (a removed query's private cone).
        let mut reclaimed: u64 = 0;
        for i in 0..old_execs.len() {
            if let Some(ex) = old_execs[i].take() {
                reclaimed += ex.state_rows() as u64;
            }
            if let Some(mut b) = old_bufs[i].take() {
                reclaimed += b.drain() as u64;
            }
            reclaimed += old_seeds[i].values().map(|b| b.rows.len() as u64).sum::<u64>();
        }

        // Install the new engine before widening/seeding so the helpers
        // see consistent state.
        engine.executors =
            new_execs.into_iter().map(|e| e.expect("all executors placed")).collect();
        engine.sp_buffers = new_bufs.into_iter().map(|b| b.expect("all buffers placed")).collect();
        engine.leaf_consumers = new_cons;
        engine.seeds = new_seeds;
        let mut tables: Vec<TableId> = engine.base_buffers.keys().copied().collect();
        tables.sort();
        engine.base_tables = tables;

        // Pass 7 — removal: drop the query's mask column from surviving
        // operator state. (`live.plan` is still the pre-churn plan here.)
        if let Some(q) = remove {
            for (j, org) in origin.iter().enumerate().take(n2) {
                let served = match org {
                    Some(Origin::Survivor(i)) | Some(Origin::Split { old: i, .. }) => {
                        live.plan.subplans[*i].queries.contains(q)
                    }
                    _ => false,
                };
                if served {
                    reclaimed += engine.executors[j].retire_query(q)? as u64;
                }
            }
            return Ok((reclaimed, 0.0));
        }

        // Pass 8 — admission: widen shared state to the new query, then
        // seed its private cone from witness-indexed snapshots. Every
        // shared subplan uses its *own* witness (validated in
        // `apply_admit`), so disjoint shared cones hand off independently.
        let (witnesses, q_new, _) = admit.expect("reconcile is admit or remove");
        let mut handoff_rows: u64 = 0;
        let counter = WorkCounter::new();
        for (j, org) in origin.iter().enumerate().take(n2) {
            if plan2.subplans[j].queries.contains(q_new) && !matches!(org, Some(Origin::Fresh)) {
                let q_ref = witnesses[j].expect("witness validated for shared subplan");
                engine.executors[j].widen_query(q_ref, q_new)?;
            }
        }
        // Widen resident (in-flight) buffer rows only where a carried
        // downstream cursor serving the new query will still pull them
        // — never the new query's own root buffer, whose history is
        // handed off as a snapshot below (widening both would double
        // count).
        let mut widen_child = vec![false; n2];
        for (j, org) in origin.iter().enumerate().take(n2) {
            if matches!(org, Some(Origin::Fresh)) || !plan2.subplans[j].queries.contains(q_new) {
                continue;
            }
            for (_, src) in engine.executors[j].leaf_paths() {
                if let InputSource::Subplan(c) = src {
                    widen_child[c.index()] = true;
                }
            }
        }
        let new_root = plan2.query_root(q_new).map(|r| r.index());
        for (j, widen) in widen_child.iter().enumerate() {
            if *widen && Some(j) != new_root {
                let q_ref = witnesses[j].expect("witness validated for widened child");
                engine.sp_buffers[j].widen_where(q_ref, q_new);
            }
        }
        // Base buffers re-mark their whole retained stream: correct for a
        // re-admitted id, and what the private cone's replay-from-zero
        // cursors rely on.
        for t in engine.base_tables.clone() {
            engine.base_buffers.get_mut(&t).expect("registered table").widen_all(q_new);
        }
        // Seed every fresh subplan's shared-child leaves with the
        // child's reconstructed, re-masked history.
        for j in 0..n2 {
            if !matches!(origin[j], Some(Origin::Fresh)) {
                continue;
            }
            for (path, src) in engine.executors[j].leaf_paths() {
                let InputSource::Subplan(c) = src else { continue };
                if matches!(origin[c.index()], Some(Origin::Fresh)) {
                    continue;
                }
                let q_ref = witnesses[c.index()].expect("witness validated for shared child");
                let batch = snapshot_subplan(
                    c.index(),
                    &engine.executors,
                    &engine.base_buffers,
                    q_ref,
                    q_new,
                    &counter,
                )?;
                handoff_rows += batch.rows.len() as u64;
                engine.seeds[j].insert(path, batch);
            }
        }
        // A fully shared root: the new query's results are served by an
        // existing subplan whose buffer may have compacted its history.
        // Reconstruct the witnessed history straight into the root
        // buffer (which is Retain::All from here on).
        if let Some(r) = plan2.query_root(q_new) {
            if !matches!(origin[r.index()], Some(Origin::Fresh)) {
                let q_ref = witnesses[r.index()].expect("witness validated for shared root");
                let batch = snapshot_subplan(
                    r.index(),
                    &engine.executors,
                    &engine.base_buffers,
                    q_ref,
                    q_new,
                    &counter,
                )?;
                handoff_rows += batch.rows.len() as u64;
                engine.sp_buffers[r.index()].append(&batch);
            }
        }
        Ok((handoff_rows, counter.total().get()))
    }

    /// Build a split subplan's executor and, recursively, its split
    /// children's, moving the transplanted state down to each cut.
    #[allow(clippy::too_many_arguments)]
    fn build_split(
        &self,
        plan2: &SharedPlan,
        roots2: &[NodeId],
        schemas: &HashMap<SubplanId, Schema>,
        j: usize,
        mut bundle: StateBundle,
        old_i: usize,
        prefix: Vec<usize>,
        created: Option<&Vec<NodeId>>,
        origin: &mut [Option<Origin>],
        new_execs: &mut [Option<SubplanExecutor>],
        new_bufs: &mut [Option<DeltaBuffer>],
    ) -> Result<()> {
        let ex = SubplanExecutor::new_with_options(
            &plan2.subplans[j],
            self.catalog,
            schemas,
            self.weights,
            self.exec_opts,
        )?;
        for (path, src) in ex.leaf_paths() {
            let InputSource::Subplan(c) = src else { continue };
            let c = c.index();
            if origin[c].is_some() {
                continue; // survivor or an already-built split child
            }
            if created.is_some_and(|cr| cr.contains(&roots2[c])) {
                continue; // fresh private subplan, built in pass 3
            }
            // Interior node of the old subplan, now a forced cut: its
            // subtree's state lives under `path` in the donor bundle.
            let sub = bundle.extract_prefix(&path);
            let mut full = prefix.clone();
            full.extend_from_slice(&path);
            origin[c] = Some(Origin::Split { old: old_i, prefix: full.clone() });
            self.build_split(
                plan2, roots2, schemas, c, sub, old_i, full, created, origin, new_execs, new_bufs,
            )?;
        }
        let mut ex = ex;
        ex.install_state_bundle(bundle)?;
        new_execs[j] = Some(ex);
        if new_bufs[j].is_none() {
            new_bufs[j] = Some(DeltaBuffer::new());
        }
        Ok(())
    }

    /// Attach the churn totals (and, when obs is on, the `churn.*`
    /// metrics) to the measured run.
    fn finish(self, mut run: RunResult) -> ChurnRunResult {
        let live = self.sharer.queries();
        if let Some(report) = run.obs.as_mut() {
            let admissions = self.churn.iter().filter(|r| r.kind == ChurnKind::Admit).count();
            let m = &mut report.metrics;
            m.counter_add("churn.admissions", admissions as f64);
            m.counter_add("churn.removals", (self.churn.len() - admissions) as f64);
            m.counter_add("churn.merge_nodes_reused", self.merge_reused as f64);
            m.counter_add("churn.merge_nodes_created", self.merge_created as f64);
            m.counter_add("churn.quiesce_ticks", self.quiesce_ticks as f64);
            m.gauge_set("churn.reclaimed_rows", self.reclaimed_total as f64);
            m.gauge_set("churn.handoff_rows", self.handoff_total as f64);
            m.gauge_set("churn.live_queries", live.len() as f64);
            m.gauge_set("churn.subplans", self.roots.len() as f64);
        }
        ChurnRunResult {
            run,
            churn: self.churn,
            live,
            removed: self.removed,
            reclaimed_rows: self.reclaimed_total,
            handoff_rows: self.handoff_total,
            quiesce_ticks: self.quiesce_ticks,
        }
    }
}

/// The pace search a churn boundary runs: a fresh estimator for the re-cut
/// plan, searched from batch under the live queries' budgets.
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

/// Find the old consumer registered at `path`, marking it claimed.
fn claim(
    entries: &[(Vec<usize>, InputSource, ConsumerId)],
    claimed: &mut [bool],
    path: &[usize],
) -> Option<ConsumerId> {
    let k = entries.iter().position(|(p, _, _)| p == path)?;
    if claimed[k] {
        return None;
    }
    claimed[k] = true;
    Some(entries[k].2)
}

/// Per-subplan witness queries for an admission of `q_new`.
///
/// For each subplan serving the new query whose root pre-dates the
/// admission, pick a live query whose mask bit equals the new query's
/// would-be bit over the subplan's **entire input cone**: the intersection,
/// over every DAG node reachable from the subplan root, of the node's
/// pre-admission query set, refined at select nodes to the branch(es) the
/// new query joined (post-seal admission only ever joins an
/// equal-predicate branch, so any co-member of that branch has seen
/// exactly the rows the new query would have seen there). Masks are a pure
/// function of branch membership, so agreement over the whole cone makes
/// the witness's bit a stand-in for the new query's across all handed-off
/// state. Fresh subplans, and subplans not serving the new query, get
/// `None`. The smallest qualifying query id is chosen, which keeps the
/// handoff deterministic.
fn subplan_witnesses(
    dag: &SharedDag,
    plan2: &SharedPlan,
    roots2: &[NodeId],
    q_new: QueryId,
    is_fresh: impl Fn(&NodeId) -> bool,
) -> Vec<Option<QueryId>> {
    roots2
        .iter()
        .enumerate()
        .map(|(j, root)| {
            if is_fresh(root) || !plan2.subplans[j].queries.contains(q_new) {
                return None;
            }
            let mut pool = QuerySet(u64::MAX);
            let mut seen = vec![false; dag.nodes.len()];
            let mut stack = vec![*root];
            while let Some(n) = stack.pop() {
                if std::mem::replace(&mut seen[n.0 as usize], true) {
                    continue;
                }
                let node = &dag.nodes[n.0 as usize];
                let mut w = node.queries;
                w.remove(q_new);
                if let DagOp::Select { branches } = &node.op {
                    for b in branches {
                        if b.queries.contains(q_new) {
                            let mut bw = b.queries;
                            bw.remove(q_new);
                            w = w.intersect(bw);
                        }
                    }
                }
                pool = pool.intersect(w);
                stack.extend(node.children.iter().copied());
            }
            pool.iter().next()
        })
        .collect()
}

/// Reconstruct subplan `c`'s net witnessed history re-masked to `q_new`,
/// recursing through stateless subplans' leaf dependencies (base buffers
/// retain their full stream in churn mode, and churn boundaries are
/// quiesced, so the reconstruction is exact).
fn snapshot_subplan(
    c: usize,
    executors: &[SubplanExecutor],
    base_buffers: &HashMap<TableId, DeltaBuffer>,
    q_ref: QueryId,
    q_new: QueryId,
    counter: &WorkCounter,
) -> Result<DeltaBatch> {
    let mut history = HashMap::new();
    for (path, src) in executors[c].snapshot_leaf_dependencies() {
        let batch = match src {
            InputSource::Base(t) => DeltaBatch::from_rows(
                base_buffers
                    .get(&t)
                    .ok_or_else(|| Error::NotFound(format!("base buffer {t:?}")))?
                    .all_rows()
                    .to_vec(),
            ),
            InputSource::Subplan(d) => {
                // Reconstruct the child's history under the *witness's*
                // mask: the parent's own snapshot filters leaf rows by
                // `q_ref` before re-masking to `q_new`, so feeding it
                // `q_new`-masked rows would drop everything.
                snapshot_subplan(d.index(), executors, base_buffers, q_ref, q_ref, counter)?
            }
        };
        history.insert(path, batch);
    }
    executors[c].snapshot_output(q_ref, q_new, &mut history, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{DataType, Value};
    use ishare_exec::batch_ref::run_logical;
    use ishare_expr::Expr;
    use ishare_obs::{ObsConfig, SlackLedger};
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
        // the attachment frontier and the private cone replays base history.
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
        // Reference datapath has no state surgery.
        let mut ref_opts = opts();
        ref_opts.source.mode = ExecMode::Reference;
        assert!(matches!(run(&initial, admit(1, 1, 3), ref_opts), Err(Error::Churn(_))));
        // Empty initial set.
        assert!(matches!(run(&[], admit(1, 1, 3), opts()), Err(Error::InvalidConfig(_))));
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
        let o = ChurnOptions { source, max_pace: 8, ..Default::default() };
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

    #[test]
    fn partitioned_run_is_bit_identical() {
        let c = catalog();
        let base = completed(run_churny(&c, SourceOptions::default()));
        assert_eq!(base.0.churn.len(), 2);
        assert!(base.0.churn[0].nodes_created > 0, "the admission splits a survivor");
        assert!(base.0.quiesce_ticks > 0, "churn boundaries drain in-flight deltas");
        // The slack ledger of a churn run is deterministic too: every obs
        // run must carry the first one's, sample for sample.
        let mut ledger: Option<SlackLedger> = None;
        for workers in [1usize, 2, 4] {
            for (partitions, partition_threads) in [(1usize, 1usize), (4, 2)] {
                for obs in [None, Some(ObsConfig::default())] {
                    let alt = completed(run_churny(
                        &c,
                        SourceOptions {
                            workers,
                            partitions,
                            partition_threads,
                            obs,
                            ..Default::default()
                        },
                    ));
                    let label = format!("workers={workers} P={partitions} obs={}", obs.is_some());
                    assert_same_run(&base, &alt, &label);
                    if let Some(slack) = alt.0.run.obs.and_then(|r| r.slack) {
                        assert!(slack.fronts() > 0, "{label}: ledger sampled");
                        assert_eq!(ledger.get_or_insert_with(|| slack.clone()), &slack, "{label}");
                    }
                }
            }
        }
        assert!(ledger.is_some(), "obs runs carry a slack ledger");
    }

    #[test]
    fn replay_verifies_churn_trajectory() {
        let c = catalog();
        let base = completed(run_churny(&c, SourceOptions::default()));
        let log = &base.1;
        assert!(log.entries.iter().any(|e| !e.churn.is_empty()), "log records churn");

        for (workers, partitions) in [(1usize, 1usize), (2, 4), (4, 1)] {
            let at = |o: SourceOptions| SourceOptions { workers, partitions, ..o };
            // Kill after the first churn boundary has committed: the partial
            // log is a prefix of the one-worker log.
            let cut = 1 + log.entries.iter().position(|e| !e.churn.is_empty()).unwrap();
            let kill = at(SourceOptions { stop_after: Some(cut), ..Default::default() });
            let partial = match run_churny(&c, kill) {
                ChurnOutcome::Suspended { log } => log,
                ChurnOutcome::Completed { .. } => panic!("run suspended"),
            };
            assert_eq!(partial.entries, log.entries[..cut], "workers={workers}");

            // Resume = replay under verification; the rerun is bit-identical.
            let resume = at(SourceOptions { verify: Some(partial), ..Default::default() });
            let label = format!("killed+resumed workers={workers} P={partitions}");
            assert_same_run(&base, &completed(run_churny(&c, resume)), &label);
        }

        // A tampered churn trajectory is caught, not silently diverged.
        let mut tampered = log.clone();
        let wf = tampered.entries.iter().position(|e| !e.churn.is_empty()).unwrap();
        tampered.entries[wf].churn[0].nodes_reused += 1;
        let bad = SourceOptions { verify: Some(tampered), workers: 2, ..Default::default() };
        assert!(matches!(try_churny(&c, bad), Err(Error::InvalidDelta(_))));
    }
}
