//! The subplan executor: runs one subplan's operator tree over one
//! incremental input batch, keeping join/aggregate state alive across
//! executions.
//!
//! The paced driver (`ishare-stream`) owns the buffers; for each incremental
//! execution it pulls the new deltas for every leaf of the tree and hands
//! them to [`SubplanExecutor::execute`], which returns the subplan's output
//! delta (to be materialized into the subplan's buffer, or consumed as final
//! query results).
//!
//! Two interchangeable datapaths implement the operators ([`ExecMode`]):
//! the default [`ExecMode::Kernels`] datapath (encoded keys, compiled
//! expressions, flat state — `join`, `aggregate`, `operators`) and the
//! original [`ExecMode::Reference`] datapath (`reference`), kept as a
//! differential oracle. Both must produce bit-identical outputs and charged
//! work on every input — `tests/kernel_equivalence.rs` and the
//! `validate_kernels` smoke bin enforce it.

use crate::aggregate::{AggSpec, AggState};
use crate::join::{JoinKeys, JoinState};
use crate::operators::{apply_project, apply_select, narrow_input};
use crate::partition::{PartitionStat, PartitionedAgg, PartitionedJoin};
use crate::reference::{ref_apply_project, ref_apply_select, RefAggState, RefJoinState};
use crate::vectorized::{
    narrow_columnar, project_columnar, select_columnar, BatchStats, ColsView, VecDelta,
};
use ishare_common::{
    CostWeights, DataType, Error, QueryId, QuerySet, Result, SubplanId, WorkCounter,
};
use ishare_expr::compile::{CompiledPredicate, CompiledProjection};
use ishare_plan::{InputSource, OpTree, Subplan, TreeOp};
use ishare_storage::{Catalog, DeltaBatch, DeltaRow, Schema};
use std::collections::HashMap;

/// Which datapath a [`SubplanExecutor`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The optimized datapath: encoded keys, compiled expressions, flat
    /// operator state, batched work charges.
    #[default]
    Kernels,
    /// The original interpreter-shaped datapath, retained verbatim as a
    /// differential oracle ([`crate::reference`]). Results and charged work
    /// are bit-identical to [`ExecMode::Kernels`]; only wall-clock differs.
    Reference,
    /// The columnar batch-at-a-time datapath ([`crate::vectorized`]): inputs
    /// are narrowed into SoA [`ColumnarBatch`]es once per execution,
    /// select/project run as selection-vector kernels over typed columns,
    /// and join/aggregate consume the columnar view directly (encoding keys
    /// straight from columns). Shares all stateful-operator state layouts
    /// (and the partition exchange) with [`ExecMode::Kernels`]; results and
    /// charged work are bit-identical to both other modes.
    ///
    /// [`ColumnarBatch`]: ishare_storage::ColumnarBatch
    Vectorized,
}

/// How a [`SubplanExecutor`] is built: which datapath, and whether stateful
/// operators hash-partition their state behind an exchange
/// ([`crate::partition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// The datapath. [`ExecMode::Reference`] ignores the partition fields —
    /// the reference datapath stays the unpartitioned differential oracle at
    /// every requested partition count.
    pub mode: ExecMode,
    /// Hash partitions for join/aggregate state. `0` or `1` = unpartitioned
    /// (plain [`JoinState`]/[`AggState`], exactly as before).
    pub partitions: usize,
    /// Worker threads fanning one partitioned operator's partitions out
    /// (scoped threads per execution). `0` or `1` = run partitions inline.
    /// Purely a wall-clock knob — results and charges are thread-count
    /// independent.
    pub partition_threads: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { mode: ExecMode::default(), partitions: 1, partition_threads: 1 }
    }
}

impl ExecOptions {
    /// Options for `mode` with unpartitioned state.
    pub fn with_mode(mode: ExecMode) -> ExecOptions {
        ExecOptions { mode, ..ExecOptions::default() }
    }

    /// `true` iff stateful operators should be partitioned.
    fn partitioned(&self) -> bool {
        self.mode != ExecMode::Reference && self.partitions > 1
    }
}

/// Stateful-operator state, keyed by tree path.
#[derive(Debug)]
enum OpState {
    Join(JoinState),
    Agg(AggState),
    PartJoin(PartitionedJoin),
    PartAgg(PartitionedAgg),
    RefJoin(RefJoinState),
    RefAgg(RefAggState),
}

/// Expression kernels lowered once at executor construction, keyed by tree
/// path. Empty in [`ExecMode::Reference`] (the reference datapath walks the
/// plan's `Expr` trees directly).
#[derive(Debug, Default)]
struct CompiledOps {
    selects: HashMap<Vec<usize>, Vec<CompiledPredicate>>,
    projects: HashMap<Vec<usize>, CompiledProjection>,
    join_keys: HashMap<Vec<usize>, JoinKeys>,
    agg_specs: HashMap<Vec<usize>, AggSpec>,
}

/// Opaque transplantable operator state of one executor, keyed by tree
/// path. Produced by [`SubplanExecutor::take_state_bundle`] and consumed by
/// [`SubplanExecutor::install_state_bundle`] when query churn re-cuts the
/// shared plan: a surviving subplan hands its join/aggregate state to its
/// successor executor instead of replaying history.
/// [`StateBundle::extract_prefix`] supports subplan *splits* — the state
/// under a forced-cut path moves to the new child subplan with paths
/// re-rooted at the cut, while the remainder stays with the parent (whose
/// paths are unchanged: the cut node becomes an `Input` leaf in place).
#[derive(Debug, Default)]
pub struct StateBundle {
    states: HashMap<Vec<usize>, OpState>,
}

impl StateBundle {
    /// Number of stateful-operator states carried.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` iff no state is carried.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Remove every state whose tree path starts with `prefix` and return
    /// it as a new bundle with the prefix stripped (re-rooted at the cut
    /// node). States not under `prefix` stay in `self`.
    pub fn extract_prefix(&mut self, prefix: &[usize]) -> StateBundle {
        // `retain` cannot move values out, so drain the map and rebuild
        // `self` while peeling off the prefixed entries.
        let mut kept = HashMap::new();
        let mut out = HashMap::new();
        for (path, st) in std::mem::take(&mut self.states) {
            if path.starts_with(prefix) {
                out.insert(path[prefix.len()..].to_vec(), st);
            } else {
                kept.insert(path, st);
            }
        }
        self.states = kept;
        StateBundle { states: out }
    }
}

/// Executes one subplan incrementally, holding its operator state.
#[derive(Debug)]
pub struct SubplanExecutor {
    subplan: Subplan,
    weights: CostWeights,
    options: ExecOptions,
    /// Per-aggregate-node flags: is each aggregate argument integer-typed?
    agg_int: HashMap<Vec<usize>, Vec<bool>>,
    states: HashMap<Vec<usize>, OpState>,
    compiled: CompiledOps,
    /// Cumulative vectorized batch/selection statistics (only advanced in
    /// [`ExecMode::Vectorized`]; stays zero otherwise).
    batch_stats: BatchStats,
}

impl SubplanExecutor {
    /// Build an executor for `subplan` on the default (kernel) datapath.
    /// `child_schemas` must contain the output schema of every child subplan
    /// referenced by the tree (see [`ishare_plan::SharedPlan::schemas`]).
    pub fn new(
        subplan: &Subplan,
        catalog: &Catalog,
        child_schemas: &HashMap<SubplanId, Schema>,
        weights: CostWeights,
    ) -> Result<Self> {
        Self::new_with_mode(subplan, catalog, child_schemas, weights, ExecMode::default())
    }

    /// Build an executor on an explicit datapath (unpartitioned state).
    pub fn new_with_mode(
        subplan: &Subplan,
        catalog: &Catalog,
        child_schemas: &HashMap<SubplanId, Schema>,
        weights: CostWeights,
        mode: ExecMode,
    ) -> Result<Self> {
        Self::new_with_options(
            subplan,
            catalog,
            child_schemas,
            weights,
            ExecOptions::with_mode(mode),
        )
    }

    /// Build an executor with full [`ExecOptions`] — datapath plus
    /// state-partitioning configuration.
    pub fn new_with_options(
        subplan: &Subplan,
        catalog: &Catalog,
        child_schemas: &HashMap<SubplanId, Schema>,
        weights: CostWeights,
        options: ExecOptions,
    ) -> Result<Self> {
        let mut agg_int = HashMap::new();
        let mut states = HashMap::new();
        let mut compiled = CompiledOps::default();
        init_states(
            &subplan.root,
            &mut Vec::new(),
            catalog,
            child_schemas,
            options,
            &mut agg_int,
            &mut states,
            &mut compiled,
        )?;
        Ok(SubplanExecutor {
            subplan: subplan.clone(),
            weights,
            options,
            agg_int,
            states,
            compiled,
            batch_stats: BatchStats::default(),
        })
    }

    /// The executed subplan.
    pub fn subplan(&self) -> &Subplan {
        &self.subplan
    }

    /// The datapath this executor runs.
    pub fn mode(&self) -> ExecMode {
        self.options.mode
    }

    /// The full build options.
    pub fn options(&self) -> ExecOptions {
        self.options
    }

    /// Per-partition cumulative load, summed over this subplan's partitioned
    /// operators: entry `p` is the rows routed to and work charged by
    /// partition `p`. Empty when no operator is partitioned.
    pub fn partition_stats(&self) -> Vec<PartitionStat> {
        let mut acc: Vec<PartitionStat> = Vec::new();
        let mut fold = |stats: &[PartitionStat]| {
            if acc.len() < stats.len() {
                acc.resize(stats.len(), PartitionStat::default());
            }
            for (a, s) in acc.iter_mut().zip(stats) {
                a.rows += s.rows;
                a.work += s.work;
            }
        };
        // Deterministic order: sort by tree path (HashMap iteration order is
        // seed-free here but sorting keeps the fold order obvious).
        let mut paths: Vec<&Vec<usize>> = self.states.keys().collect();
        paths.sort();
        for path in paths {
            match &self.states[path] {
                OpState::PartJoin(pj) => fold(pj.stats()),
                OpState::PartAgg(pa) => fold(pa.stats()),
                _ => {}
            }
        }
        acc
    }

    /// All leaves of the tree with their tree paths, in pre-order. The
    /// driver registers one buffer consumer per leaf (a self-join reads the
    /// same source through two leaves, each with its own cursor).
    pub fn leaf_paths(&self) -> Vec<(Vec<usize>, InputSource)> {
        let mut out = Vec::new();
        collect_leaves(&self.subplan.root, &mut Vec::new(), &mut out);
        out
    }

    /// Run one incremental execution. `inputs` maps leaf paths to the new
    /// deltas pulled from the corresponding buffers; missing entries mean no
    /// new data for that leaf. Returns the subplan's output delta.
    pub fn execute(
        &mut self,
        inputs: &mut HashMap<Vec<usize>, DeltaBatch>,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        // `exec_node` borrows the tree and the mutable operator state from
        // disjoint fields, so the tree is walked in place — no per-execution
        // clone of the operator tree and its expression nodes.
        if self.options.mode == ExecMode::Vectorized {
            // The root reads no columns itself: its output materializes
            // through backing rows, so the needed-column descent starts
            // empty and accumulates reads op by op on the way down.
            return exec_node_vec(
                &self.subplan.root,
                &mut Vec::new(),
                inputs,
                counter,
                self.subplan.queries,
                &self.weights,
                &self.agg_int,
                &mut self.states,
                &self.compiled,
                &mut self.batch_stats,
                &[],
            )
            .map(VecDelta::into_rows);
        }
        exec_node(
            &self.subplan.root,
            &mut Vec::new(),
            inputs,
            counter,
            self.options.mode,
            self.subplan.queries,
            &self.weights,
            &self.agg_int,
            &mut self.states,
            &self.compiled,
        )
    }

    /// Cumulative vectorized batch statistics (input batch fill, select
    /// selectivity) — all zeros unless running [`ExecMode::Vectorized`].
    pub fn batch_stats(&self) -> BatchStats {
        self.batch_stats
    }

    /// The queries this subplan serves.
    pub fn queries(&self) -> QuerySet {
        self.subplan.queries
    }

    /// Total stored state entries across this subplan's stateful operators:
    /// join (row, mask) entries on both sides plus aggregate classes and
    /// outstanding emitted pairs. Feeds the churn reclaimed-rows accounting.
    pub fn state_rows(&self) -> usize {
        self.states
            .values()
            .map(|s| match s {
                OpState::Join(j) => j.left_size() + j.right_size(),
                OpState::PartJoin(p) => p.left_size() + p.right_size(),
                OpState::Agg(a) => a.state_size(),
                OpState::PartAgg(p) => p.state_size(),
                OpState::RefJoin(_) | OpState::RefAgg(_) => 0,
            })
            .sum()
    }

    /// Swap this subplan description (and its lowered kernels) for a
    /// structurally identical successor produced by a churn re-cut, keeping
    /// all operator state in place. "Structurally identical" means the same
    /// tree shape with stateful operators *and leaves* at the same paths —
    /// only select branch membership, the query sets, and expression lists
    /// may differ (e.g. an admitted query joined an existing predicate
    /// branch, or a removed query's branch disappeared). A re-cut that
    /// excises even a stateless subtree (scan → select/project) moves a
    /// leaf: the cut-away child then has to inherit this subplan's cursors,
    /// or it would replay the whole history into state that already holds
    /// it. Rejects shape changes with [`Error::Churn`]; splits must go
    /// through [`Self::take_state_bundle`] instead.
    pub fn refresh_subplan(
        &mut self,
        subplan: &Subplan,
        catalog: &Catalog,
        child_schemas: &HashMap<SubplanId, Schema>,
    ) -> Result<()> {
        let mut agg_int = HashMap::new();
        let mut fresh_states = HashMap::new();
        let mut compiled = CompiledOps::default();
        init_states(
            &subplan.root,
            &mut Vec::new(),
            catalog,
            child_schemas,
            self.options,
            &mut agg_int,
            &mut fresh_states,
            &mut compiled,
        )?;
        // Leaf *paths* only: the re-cut renumbers the `SubplanId`s behind
        // them.
        let leaf_paths = |root: &OpTree| -> Vec<Vec<usize>> {
            let mut out = Vec::new();
            collect_leaves(root, &mut Vec::new(), &mut out);
            out.into_iter().map(|(path, _)| path).collect()
        };
        if leaf_paths(&subplan.root) != leaf_paths(&self.subplan.root)
            || fresh_states.len() != self.states.len()
            || fresh_states.iter().any(|(path, st)| {
                self.states
                    .get(path)
                    .is_none_or(|old| std::mem::discriminant(old) != std::mem::discriminant(st))
            })
        {
            return Err(Error::Churn(format!(
                "subplan {:?} changed shape across re-cut; state cannot be kept in place",
                subplan.id
            )));
        }
        self.subplan = subplan.clone();
        self.agg_int = agg_int;
        self.compiled = compiled;
        Ok(())
    }

    /// Move all operator state out for transplant into successor executors
    /// (see [`StateBundle`]). This executor is left with fresh empty state —
    /// it stays runnable but has forgotten its history, so callers normally
    /// drop it afterwards. [`Error::Churn`] in [`ExecMode::Reference`]: the
    /// oracle datapath does not support state surgery.
    pub fn take_state_bundle(&mut self) -> Result<StateBundle> {
        if self.options.mode == ExecMode::Reference {
            return Err(churn_unsupported());
        }
        let states = std::mem::take(&mut self.states);
        for (path, keys) in &self.compiled.join_keys {
            let st = if self.options.partitioned() {
                OpState::PartJoin(PartitionedJoin::new(
                    self.options.partitions,
                    self.options.partition_threads,
                    keys,
                ))
            } else {
                OpState::Join(JoinState::new())
            };
            self.states.insert(path.clone(), st);
        }
        for (path, spec) in &self.compiled.agg_specs {
            let st = if self.options.partitioned() {
                OpState::PartAgg(PartitionedAgg::new(
                    self.options.partitions,
                    self.options.partition_threads,
                    spec,
                ))
            } else {
                OpState::Agg(AggState::new())
            };
            self.states.insert(path.clone(), st);
        }
        Ok(StateBundle { states })
    }

    /// Install transplanted operator state at matching tree paths, replacing
    /// this executor's (fresh) state there. Every carried path must exist in
    /// this executor with the same operator variant; paths this bundle does
    /// not carry keep their fresh empty state (new private operators of an
    /// admitted query start cold by design). [`Error::Churn`] on unknown
    /// paths, variant mismatches, or in [`ExecMode::Reference`].
    pub fn install_state_bundle(&mut self, bundle: StateBundle) -> Result<()> {
        if self.options.mode == ExecMode::Reference {
            return Err(churn_unsupported());
        }
        for (path, st) in bundle.states {
            match self.states.get_mut(&path) {
                Some(slot) if std::mem::discriminant(slot) == std::mem::discriminant(&st) => {
                    *slot = st;
                }
                Some(_) => {
                    return Err(Error::Churn(format!(
                        "transplanted state at path {path:?} has a different operator variant"
                    )));
                }
                None => {
                    return Err(Error::Churn(format!(
                        "transplanted state at path {path:?} has no stateful operator here"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Widen every stored state entry visible to `q_ref` with `q_new`'s bit,
    /// across all stateful operators. Called on surviving shared subplans
    /// when an admitted query reuses them: history the witness query `q_ref`
    /// can see becomes visible to `q_new` without replay. `q_new` must be a
    /// fresh bit (the sharer guarantees it), which makes widening injective —
    /// no two distinct masks become equal. [`Error::Churn`] in
    /// [`ExecMode::Reference`].
    pub fn widen_query(&mut self, q_ref: QueryId, q_new: QueryId) -> Result<()> {
        if self.options.mode == ExecMode::Reference {
            return Err(churn_unsupported());
        }
        for st in self.states.values_mut() {
            match st {
                OpState::Join(j) => j.widen_query(q_ref, q_new),
                OpState::PartJoin(p) => p.widen_query(q_ref, q_new),
                OpState::Agg(a) => a.widen_query(q_ref, q_new),
                OpState::PartAgg(p) => p.widen_query(q_ref, q_new),
                OpState::RefJoin(_) | OpState::RefAgg(_) => return Err(churn_unsupported()),
            }
        }
        Ok(())
    }

    /// Remove `q` from every stored state entry and GC entries whose mask
    /// goes empty, across all stateful operators. Returns the number of
    /// state entries reclaimed. Called on surviving subplans when a query is
    /// removed. [`Error::Churn`] in [`ExecMode::Reference`].
    pub fn retire_query(&mut self, q: QueryId) -> Result<usize> {
        if self.options.mode == ExecMode::Reference {
            return Err(churn_unsupported());
        }
        let mut reclaimed = 0usize;
        for st in self.states.values_mut() {
            reclaimed += match st {
                OpState::Join(j) => j.retire_query(q)?,
                OpState::PartJoin(p) => p.retire_query(q)?,
                OpState::Agg(a) => a.retire_query(q),
                OpState::PartAgg(p) => p.retire_query(q),
                OpState::RefJoin(_) | OpState::RefAgg(_) => return Err(churn_unsupported()),
            };
        }
        Ok(reclaimed)
    }

    /// The leaves the snapshot walk of [`Self::snapshot_output`] will read
    /// history from: leaves reachable from the root without crossing a
    /// stateful operator. Empty when a join/aggregate roots the spine (its
    /// state already nets everything below it); at most one entry otherwise,
    /// because stateless operators are unary.
    pub fn snapshot_leaf_dependencies(&self) -> Vec<(Vec<usize>, InputSource)> {
        let mut out = Vec::new();
        let mut t = &self.subplan.root;
        let mut path = Vec::new();
        loop {
            match &t.op {
                TreeOp::Input(src) => {
                    out.push((path.clone(), *src));
                    break;
                }
                TreeOp::Select { .. } | TreeOp::Project { .. } => {
                    path.push(0);
                    t = &t.inputs[0];
                }
                TreeOp::Join { .. } | TreeOp::Aggregate { .. } => break,
            }
        }
        out
    }

    /// Reconstruct this subplan's *net historical output* as seen by the
    /// witness query `q_ref`, re-masked to the admitted query `q_new` —
    /// the state handoff that lets a new query sharing this subplan skip
    /// replaying history.
    ///
    /// The walk descends the root spine to the topmost stateful operator and
    /// snapshots it — an aggregate's outstanding emitted pairs
    /// ([`AggState::snapshot_emitted`]) or a join's stored cross product
    /// ([`crate::join::JoinState::snapshot_product`]) — then re-runs the
    /// stateless operators *above* it over the snapshot with the normal
    /// kernels (charging `counter` as usual). Everything *below* the
    /// stateful operator is already netted into its state. If the spine is
    /// fully stateless, the history of its single leaf must be supplied in
    /// `leaf_history` (keyed by leaf path; see
    /// [`Self::snapshot_leaf_dependencies`]); witness-masked leaf rows are
    /// re-masked to `q_new` and pushed through the spine.
    ///
    /// Stateful-operator snapshots are canonicalized (sorted by encoded row,
    /// equal rows merged, zero weights dropped) before the spine re-run, so
    /// the result is independent of partition count and state insertion
    /// order. The caller must have [`Self::refresh_subplan`]-ed this
    /// executor first so `q_new` is in the subplan's query set and select
    /// branches. [`Error::Churn`] in [`ExecMode::Reference`].
    pub fn snapshot_output(
        &self,
        q_ref: QueryId,
        q_new: QueryId,
        leaf_history: &mut HashMap<Vec<usize>, DeltaBatch>,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        if self.options.mode == ExecMode::Reference {
            return Err(churn_unsupported());
        }
        self.snap_node(&self.subplan.root, &mut Vec::new(), q_ref, q_new, leaf_history, counter)
    }

    fn snap_node(
        &self,
        t: &OpTree,
        path: &mut Vec<usize>,
        q_ref: QueryId,
        q_new: QueryId,
        leaf_history: &mut HashMap<Vec<usize>, DeltaBatch>,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        match &t.op {
            TreeOp::Join { .. } => {
                let rows = match self.states.get(path.as_slice()) {
                    Some(OpState::Join(j)) => j.snapshot_product(q_ref, q_new),
                    Some(OpState::PartJoin(p)) => p.snapshot_product(q_ref, q_new),
                    Some(OpState::RefJoin(_)) | Some(OpState::RefAgg(_)) => {
                        return Err(churn_unsupported())
                    }
                    _ => {
                        return Err(Error::InvalidPlan(format!(
                            "missing join state at path {path:?}"
                        )))
                    }
                };
                Ok(DeltaBatch::from_rows(consolidate_snapshot(rows)))
            }
            TreeOp::Aggregate { .. } => {
                let rows = match self.states.get(path.as_slice()) {
                    Some(OpState::Agg(a)) => a.snapshot_emitted(q_ref, q_new),
                    Some(OpState::PartAgg(p)) => p.snapshot_emitted(q_ref, q_new),
                    Some(OpState::RefJoin(_)) | Some(OpState::RefAgg(_)) => {
                        return Err(churn_unsupported())
                    }
                    _ => {
                        return Err(Error::InvalidPlan(format!(
                            "missing aggregate state at path {path:?}"
                        )))
                    }
                };
                Ok(DeltaBatch::from_rows(consolidate_snapshot(rows)))
            }
            TreeOp::Select { branches } => {
                path.push(0);
                let input = self.snap_node(&t.inputs[0], path, q_ref, q_new, leaf_history, counter);
                path.pop();
                let preds = self.compiled.selects.get(path.as_slice()).ok_or_else(|| {
                    Error::InvalidPlan(format!("missing compiled select at path {path:?}"))
                })?;
                apply_select(input?, branches, preds, &self.weights, counter)
            }
            TreeOp::Project { .. } => {
                path.push(0);
                let input = self.snap_node(&t.inputs[0], path, q_ref, q_new, leaf_history, counter);
                path.pop();
                let proj = self.compiled.projects.get(path.as_slice()).ok_or_else(|| {
                    Error::InvalidPlan(format!("missing compiled project at path {path:?}"))
                })?;
                apply_project(input?, proj, &self.weights, counter)
            }
            TreeOp::Input(_) => {
                let batch = leaf_history.remove(path.as_slice()).unwrap_or_default();
                let mut witnessed = DeltaBatch::new();
                for dr in batch.rows {
                    if dr.mask.contains(q_ref) {
                        witnessed.push(DeltaRow {
                            row: dr.row,
                            weight: dr.weight,
                            mask: QuerySet::single(q_new),
                        });
                    }
                }
                Ok(narrow_input(witnessed, self.subplan.queries, &self.weights, counter))
            }
        }
    }
}

/// Pre-order leaves of `t` with their tree paths.
fn collect_leaves(t: &OpTree, path: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, InputSource)>) {
    if let TreeOp::Input(src) = &t.op {
        out.push((path.clone(), *src));
    }
    for (i, child) in t.inputs.iter().enumerate() {
        path.push(i);
        collect_leaves(child, path, out);
        path.pop();
    }
}

fn churn_unsupported() -> Error {
    Error::Churn("reference-mode executors do not support state surgery".into())
}

/// Canonicalize a state snapshot: sort by (row, mask), merge equal entries
/// by summing weights, drop zeros. Makes the snapshot a pure function of
/// the stored state *set*, independent of partition count and insertion
/// order.
fn consolidate_snapshot(mut rows: Vec<DeltaRow>) -> Vec<DeltaRow> {
    rows.sort_by(|a, b| a.row.cmp(&b.row).then_with(|| a.mask.cmp(&b.mask)));
    let mut out: Vec<DeltaRow> = Vec::with_capacity(rows.len());
    for dr in rows {
        match out.last_mut() {
            Some(last) if last.row == dr.row && last.mask == dr.mask => last.weight += dr.weight,
            _ => out.push(dr),
        }
    }
    out.retain(|dr| dr.weight != 0);
    out
}

#[allow(clippy::too_many_arguments)]
fn exec_node(
    t: &OpTree,
    path: &mut Vec<usize>,
    inputs: &mut HashMap<Vec<usize>, DeltaBatch>,
    counter: &WorkCounter,
    mode: ExecMode,
    queries: QuerySet,
    weights: &CostWeights,
    agg_int: &HashMap<Vec<usize>, Vec<bool>>,
    states: &mut HashMap<Vec<usize>, OpState>,
    compiled: &CompiledOps,
) -> Result<DeltaBatch> {
    let child = |i: usize,
                 inputs: &mut HashMap<Vec<usize>, DeltaBatch>,
                 path: &mut Vec<usize>,
                 states: &mut HashMap<Vec<usize>, OpState>|
     -> Result<DeltaBatch> {
        path.push(i);
        let out = exec_node(
            &t.inputs[i],
            path,
            inputs,
            counter,
            mode,
            queries,
            weights,
            agg_int,
            states,
            compiled,
        );
        path.pop();
        out
    };
    match &t.op {
        TreeOp::Input(_) => {
            let batch = inputs.remove(path.as_slice()).unwrap_or_default();
            Ok(narrow_input(batch, queries, weights, counter))
        }
        TreeOp::Select { branches } => {
            let input = child(0, inputs, path, states)?;
            match mode {
                ExecMode::Reference => ref_apply_select(input, branches, weights, counter),
                _ => {
                    let preds = compiled.selects.get(path.as_slice()).ok_or_else(|| {
                        Error::InvalidPlan(format!("missing compiled select at path {path:?}"))
                    })?;
                    apply_select(input, branches, preds, weights, counter)
                }
            }
        }
        TreeOp::Project { exprs } => {
            let input = child(0, inputs, path, states)?;
            match mode {
                ExecMode::Reference => ref_apply_project(input, exprs, weights, counter),
                _ => {
                    let proj = compiled.projects.get(path.as_slice()).ok_or_else(|| {
                        Error::InvalidPlan(format!("missing compiled project at path {path:?}"))
                    })?;
                    apply_project(input, proj, weights, counter)
                }
            }
        }
        TreeOp::Join { keys } => {
            let left = child(0, inputs, path, states)?;
            let right = child(1, inputs, path, states)?;
            match states.get_mut(path.as_slice()) {
                Some(OpState::Join(js)) => {
                    let ckeys = compiled.join_keys.get(path.as_slice()).ok_or_else(|| {
                        Error::InvalidPlan(format!("missing compiled join keys at path {path:?}"))
                    })?;
                    js.execute(left, right, ckeys, weights, counter)
                }
                Some(OpState::PartJoin(pj)) => {
                    let ckeys = compiled.join_keys.get(path.as_slice()).ok_or_else(|| {
                        Error::InvalidPlan(format!("missing compiled join keys at path {path:?}"))
                    })?;
                    pj.execute(left, right, ckeys, weights, counter)
                }
                Some(OpState::RefJoin(js)) => js.execute(left, right, keys, weights, counter),
                _ => Err(Error::InvalidPlan(format!("missing join state at path {path:?}"))),
            }
        }
        TreeOp::Aggregate { group_by, aggs } => {
            let input = child(0, inputs, path, states)?;
            let int_flags = agg_int.get(path.as_slice());
            let fallback;
            let int_flags = match int_flags {
                Some(f) => f.as_slice(),
                None => {
                    fallback = vec![false; aggs.len()];
                    fallback.as_slice()
                }
            };
            match states.get_mut(path.as_slice()) {
                Some(OpState::Agg(st)) => {
                    let spec = compiled.agg_specs.get(path.as_slice()).ok_or_else(|| {
                        Error::InvalidPlan(format!("missing compiled aggregate at path {path:?}"))
                    })?;
                    st.execute(input, spec, int_flags, weights, counter)
                }
                Some(OpState::PartAgg(pa)) => {
                    let spec = compiled.agg_specs.get(path.as_slice()).ok_or_else(|| {
                        Error::InvalidPlan(format!("missing compiled aggregate at path {path:?}"))
                    })?;
                    pa.execute(input, spec, int_flags, weights, counter)
                }
                Some(OpState::RefAgg(st)) => {
                    st.execute(input, group_by, aggs, int_flags, weights, counter)
                }
                _ => Err(Error::InvalidPlan(format!("missing aggregate state at path {path:?}"))),
            }
        }
    }
}

/// Union a base needed-column set with additional reads, sorted and
/// deduplicated (indices past a batch's arity are ignored downstream).
fn union_cols(base: &[usize], extra: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut v: Vec<usize> = base.to_vec();
    v.extend(extra);
    v.sort_unstable();
    v.dedup();
    v
}

/// The vectorized twin of `exec_node`: carries a [`VecDelta`] between
/// operators instead of a row batch. Scans, selects, and projects stay
/// columnar (selection vectors, no survivor materialization); joins and
/// aggregates consume the columnar view directly when unpartitioned — the
/// partition exchange routes row batches, so partitioned operators (and any
/// ragged fallback) materialize first. Stateful operators always produce
/// row outputs, which downstream vectorized operators handle via
/// [`VecDelta::Rows`].
///
/// `needed` is the late-materialization contract between a node and its
/// parent: the columns of this node's *output* batch the parent will read
/// columnar. Each arm unions in its own columnar reads (predicate fast-path
/// columns, bare projection outputs, join key / aggregate group-arg
/// columns) before recursing — schema-preserving selects pass the parent's
/// set through, schema-changing ops start their children fresh — so the
/// `Input` arm converts exactly the columns some kernel above will touch.
/// Sentinel `needed` set: the parent consumes rows directly and no operator
/// in between reads columns, so the `Input` arm skips columnarization
/// entirely (a bare scan feeding a join would otherwise pay the
/// prune + backing + re-materialize detour just to save key-encode
/// dispatch — a net loss).
const NEEDED_ROWS: &[usize] = &[usize::MAX];

#[allow(clippy::too_many_arguments)]
fn exec_node_vec(
    t: &OpTree,
    path: &mut Vec<usize>,
    inputs: &mut HashMap<Vec<usize>, DeltaBatch>,
    counter: &WorkCounter,
    queries: QuerySet,
    weights: &CostWeights,
    agg_int: &HashMap<Vec<usize>, Vec<bool>>,
    states: &mut HashMap<Vec<usize>, OpState>,
    compiled: &CompiledOps,
    stats: &mut BatchStats,
    needed: &[usize],
) -> Result<VecDelta> {
    let child = |i: usize,
                 inputs: &mut HashMap<Vec<usize>, DeltaBatch>,
                 path: &mut Vec<usize>,
                 states: &mut HashMap<Vec<usize>, OpState>,
                 stats: &mut BatchStats,
                 needed: &[usize]|
     -> Result<VecDelta> {
        path.push(i);
        let out = exec_node_vec(
            &t.inputs[i],
            path,
            inputs,
            counter,
            queries,
            weights,
            agg_int,
            states,
            compiled,
            stats,
            needed,
        );
        path.pop();
        out
    };
    match &t.op {
        TreeOp::Input(_) => {
            let batch = inputs.remove(path.as_slice());
            if let Some(b) = &batch {
                stats.batches += 1;
                stats.rows += b.len() as u64;
            }
            let batch = batch.unwrap_or_default();
            // An empty `needed` set means no operator above reads a typed
            // column — every consumer works over (backing) rows or takes a
            // row fallback — so the columnar detour is at best break-even
            // and at worst doubles row materialization. Produce rows. Tiny
            // (churn-era) batches likewise can't amortize the columnar
            // setup allocations, so they stay rows too; every vectorized
            // operator handles `VecDelta::Rows` via its kernel fallback, so
            // the per-batch choice never affects results or charges.
            const MIN_COLUMNAR_BATCH: usize = 32;
            if needed == NEEDED_ROWS || needed.is_empty() || batch.len() < MIN_COLUMNAR_BATCH {
                return Ok(VecDelta::Rows(narrow_input(batch, queries, weights, counter)));
            }
            Ok(narrow_columnar(&batch, queries, needed, weights, counter))
        }
        TreeOp::Select { branches } => {
            let preds = compiled.selects.get(path.as_slice()).ok_or_else(|| {
                Error::InvalidPlan(format!("missing compiled select at path {path:?}"))
            })?;
            // Selects pass the batch through unchanged, so the parent's
            // needed set still applies below — plus our own fast-path reads.
            let child_needed = union_cols(needed, preds.iter().filter_map(|p| p.fast_path_col()));
            let input = child(0, inputs, path, states, stats, &child_needed)?;
            let columnar = matches!(input, VecDelta::Cols { .. });
            let scanned = input.len();
            let out = select_columnar(input, branches, preds, weights, counter)?;
            if columnar {
                stats.scanned += scanned as u64;
                stats.kept += out.len() as u64;
            }
            Ok(out)
        }
        TreeOp::Project { .. } => {
            let proj = compiled.projects.get(path.as_slice()).ok_or_else(|| {
                Error::InvalidPlan(format!("missing compiled project at path {path:?}"))
            })?;
            // A non-identity projection emits a fresh batch, so the parent's
            // needed set refers to *our* output — but whether the runtime
            // identity fast path fires depends on the batch arity, so keep
            // the union: covers the pass-through case, and at worst
            // materializes a few extra columns for the rebuilt one.
            let child_needed = union_cols(needed, proj.input_cols());
            let input = child(0, inputs, path, states, stats, &child_needed)?;
            project_columnar(input, proj, weights, counter)
        }
        TreeOp::Join { .. } => {
            let ckeys = compiled.join_keys.get(path.as_slice()).ok_or_else(|| {
                Error::InvalidPlan(format!("missing compiled join keys at path {path:?}"))
            })?;
            // Join output is rows (materialized via backing), so the
            // parent's needed set ends here; each side needs its key
            // columns, and only when every key is a bare column — the same
            // eligibility test `execute_columnar` applies (a general key
            // falls back to encoding from materialized rows).
            let lneed: Vec<usize> =
                ckeys.side(false).map(|s| s.as_col()).collect::<Option<_>>().unwrap_or_default();
            let rneed: Vec<usize> =
                ckeys.side(true).map(|s| s.as_col()).collect::<Option<_>>().unwrap_or_default();
            // A bare scan feeding a join gains nothing from the columnar
            // detour (the join materializes rows anyway) — ask for rows.
            let lneed: &[usize] =
                if matches!(t.inputs[0].op, TreeOp::Input(_)) { NEEDED_ROWS } else { &lneed };
            let rneed: &[usize] =
                if matches!(t.inputs[1].op, TreeOp::Input(_)) { NEEDED_ROWS } else { &rneed };
            let left = child(0, inputs, path, states, stats, lneed)?;
            let right = child(1, inputs, path, states, stats, rneed)?;
            match states.get_mut(path.as_slice()) {
                Some(OpState::Join(js)) => match (left, right) {
                    (
                        VecDelta::Cols { batch: lb, sel: ls, masks: lm },
                        VecDelta::Cols { batch: rb, sel: rs, masks: rm },
                    ) => js
                        .execute_columnar(
                            ColsView { batch: &lb, sel: &ls, masks: &lm },
                            ColsView { batch: &rb, sel: &rs, masks: &rm },
                            ckeys,
                            weights,
                            counter,
                        )
                        .map(VecDelta::Rows),
                    (l, r) => js
                        .execute(l.into_rows(), r.into_rows(), ckeys, weights, counter)
                        .map(VecDelta::Rows),
                },
                Some(OpState::PartJoin(pj)) => pj
                    .execute(left.into_rows(), right.into_rows(), ckeys, weights, counter)
                    .map(VecDelta::Rows),
                _ => Err(Error::InvalidPlan(format!("missing join state at path {path:?}"))),
            }
        }
        TreeOp::Aggregate { aggs, .. } => {
            let spec = compiled.agg_specs.get(path.as_slice()).ok_or_else(|| {
                Error::InvalidPlan(format!("missing compiled aggregate at path {path:?}"))
            })?;
            // Aggregate output is rows; the child needs exactly the bare
            // group/arg columns — computed scalars read backing rows.
            let child_needed = spec.columnar_cols();
            let input = child(0, inputs, path, states, stats, &child_needed)?;
            let int_flags = agg_int.get(path.as_slice());
            let fallback;
            let int_flags = match int_flags {
                Some(f) => f.as_slice(),
                None => {
                    fallback = vec![false; aggs.len()];
                    fallback.as_slice()
                }
            };
            match states.get_mut(path.as_slice()) {
                Some(OpState::Agg(st)) => match input {
                    VecDelta::Cols { batch, sel, masks } => st
                        .execute_columnar(
                            ColsView { batch: &batch, sel: &sel, masks: &masks },
                            spec,
                            int_flags,
                            weights,
                            counter,
                        )
                        .map(VecDelta::Rows),
                    VecDelta::Rows(b) => {
                        st.execute(b, spec, int_flags, weights, counter).map(VecDelta::Rows)
                    }
                },
                Some(OpState::PartAgg(pa)) => pa
                    .execute(input.into_rows(), spec, int_flags, weights, counter)
                    .map(VecDelta::Rows),
                _ => Err(Error::InvalidPlan(format!("missing aggregate state at path {path:?}"))),
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn init_states(
    t: &OpTree,
    path: &mut Vec<usize>,
    catalog: &Catalog,
    child_schemas: &HashMap<SubplanId, Schema>,
    options: ExecOptions,
    agg_int: &mut HashMap<Vec<usize>, Vec<bool>>,
    states: &mut HashMap<Vec<usize>, OpState>,
    compiled: &mut CompiledOps,
) -> Result<()> {
    let mode = options.mode;
    match &t.op {
        TreeOp::Join { keys } => match mode {
            ExecMode::Reference => {
                states.insert(path.clone(), OpState::RefJoin(RefJoinState::new()));
            }
            _ => {
                let ckeys = JoinKeys::compile(keys);
                let state = if options.partitioned() {
                    OpState::PartJoin(PartitionedJoin::new(
                        options.partitions,
                        options.partition_threads,
                        &ckeys,
                    ))
                } else {
                    OpState::Join(JoinState::new())
                };
                compiled.join_keys.insert(path.clone(), ckeys);
                states.insert(path.clone(), state);
            }
        },
        TreeOp::Aggregate { group_by, aggs } => {
            let in_schema = t.inputs[0].schema(catalog, child_schemas)?;
            let mut flags = Vec::with_capacity(aggs.len());
            for a in aggs {
                let ty = ishare_expr::typecheck::infer_type(&a.arg, &in_schema)?;
                flags.push(ty == DataType::Int);
            }
            agg_int.insert(path.clone(), flags);
            match mode {
                ExecMode::Reference => {
                    states.insert(path.clone(), OpState::RefAgg(RefAggState::new()));
                }
                _ => {
                    let spec = AggSpec::compile(group_by, aggs);
                    let state = if options.partitioned() {
                        OpState::PartAgg(PartitionedAgg::new(
                            options.partitions,
                            options.partition_threads,
                            &spec,
                        ))
                    } else {
                        OpState::Agg(AggState::new())
                    };
                    compiled.agg_specs.insert(path.clone(), spec);
                    states.insert(path.clone(), state);
                }
            }
        }
        TreeOp::Select { branches } => {
            if mode != ExecMode::Reference {
                compiled.selects.insert(
                    path.clone(),
                    branches.iter().map(|b| CompiledPredicate::compile(&b.predicate)).collect(),
                );
            }
        }
        TreeOp::Project { exprs } => {
            if mode != ExecMode::Reference {
                let list: Vec<_> = exprs.iter().map(|(e, _)| e.clone()).collect();
                compiled.projects.insert(path.clone(), CompiledProjection::compile(&list));
            }
        }
        TreeOp::Input(_) => {}
    }
    for (i, child) in t.inputs.iter().enumerate() {
        path.push(i);
        init_states(child, path, catalog, child_schemas, options, agg_int, states, compiled)?;
    }
    path.pop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{QueryId, Value};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, SelectBranch};
    use ishare_storage::{consolidate, DeltaRow, Field, Row, TableStats};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats::unknown(100.0, 2),
        )
        .unwrap();
        c.add_table(
            "u",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("w", DataType::Int)]),
            TableStats::unknown(100.0, 2),
        )
        .unwrap();
        c
    }

    /// select(v>2 for q1; all for q0) -> join(t,u on k) -> agg sum(w) by t.k
    fn sample_subplan(c: &Catalog) -> Subplan {
        let t = c.table_by_name("t").unwrap().id;
        let u = c.table_by_name("u").unwrap().id;
        let tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![(Expr::col(0), "k".into())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(3), "sw")],
            },
            vec![OpTree::node(
                TreeOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
                vec![
                    OpTree::node(
                        TreeOp::Select {
                            branches: vec![
                                SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                                SelectBranch {
                                    queries: qs(&[1]),
                                    predicate: Expr::col(1).gt(Expr::lit(2i64)),
                                },
                            ],
                        },
                        vec![OpTree::input(InputSource::Base(t))],
                    ),
                    OpTree::input(InputSource::Base(u)),
                ],
            )],
        );
        Subplan { id: SubplanId(0), root: tree, queries: qs(&[0, 1]), output_queries: qs(&[0, 1]) }
    }

    fn t_row(k: i64, v: i64) -> DeltaRow {
        DeltaRow { row: Row::new(vec![Value::Int(k), Value::Int(v)]), weight: 1, mask: qs(&[0, 1]) }
    }

    #[test]
    fn end_to_end_one_batch() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let mut ex =
            SubplanExecutor::new(&sp, &c, &HashMap::new(), CostWeights::default()).unwrap();
        assert_eq!(ex.mode(), ExecMode::Kernels, "kernels are the default datapath");
        let leaves = ex.leaf_paths();
        assert_eq!(leaves.len(), 2);
        let counter = WorkCounter::new();
        let mut inputs = HashMap::new();
        // t rows: (1, v=1) fails q1's filter; (1, v=5) passes both.
        inputs.insert(leaves[0].0.clone(), DeltaBatch::from_rows(vec![t_row(1, 1), t_row(1, 5)]));
        inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(vec![t_row(1, 100)]));
        let out = ex.execute(&mut inputs, &counter).unwrap();
        let cons = consolidate(out.rows);
        // q0 joined both t rows with u's row: sum = 200 (two matches × 100).
        // q1 joined only (1,5): sum = 100.
        assert_eq!(cons[&(Row::new(vec![Value::Int(1), Value::Int(200)]), qs(&[0]))], 1);
        assert_eq!(cons[&(Row::new(vec![Value::Int(1), Value::Int(100)]), qs(&[1]))], 1);
        assert!(counter.total().get() > 0.0);
    }

    #[test]
    fn incremental_matches_single_batch() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();
        let counter = WorkCounter::new();

        let t_rows = vec![t_row(1, 1), t_row(1, 5), t_row(2, 9), t_row(2, 2)];
        let u_rows = vec![t_row(1, 10), t_row(2, 20), t_row(2, 30)];

        // One batch.
        let mut big = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        let leaves = big.leaf_paths();
        let mut inputs = HashMap::new();
        inputs.insert(leaves[0].0.clone(), DeltaBatch::from_rows(t_rows.clone()));
        inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(u_rows.clone()));
        let batch_out = big.execute(&mut inputs, &counter).unwrap();

        // Four incremental executions with interleaved arrivals.
        let mut inc = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        let mut acc = Vec::new();
        let steps: Vec<(Vec<DeltaRow>, Vec<DeltaRow>)> = vec![
            (vec![t_rows[0].clone()], vec![]),
            (vec![t_rows[1].clone(), t_rows[2].clone()], vec![u_rows[0].clone()]),
            (vec![], vec![u_rows[1].clone()]),
            (vec![t_rows[3].clone()], vec![u_rows[2].clone()]),
        ];
        for (ts, us) in steps {
            let mut inputs = HashMap::new();
            inputs.insert(leaves[0].0.clone(), DeltaBatch::from_rows(ts));
            inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(us));
            acc.extend(inc.execute(&mut inputs, &counter).unwrap().rows);
        }
        assert_eq!(consolidate(batch_out.rows), consolidate(acc));
    }

    #[test]
    fn eager_execution_costs_more() {
        // The paper's Fig. 1: more executions over the same data = more
        // total work, because aggregates retract and reinsert.
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();

        let t_rows: Vec<DeltaRow> = (0..40).map(|i| t_row(i % 4, i)).collect();
        let u_rows: Vec<DeltaRow> = (0..4).map(|k| t_row(k, 100)).collect();

        let work_of = |chunks: usize| {
            let mut ex = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
            let leaves = ex.leaf_paths();
            let counter = WorkCounter::new();
            let chunk = t_rows.len() / chunks;
            for i in 0..chunks {
                let mut inputs = HashMap::new();
                inputs.insert(
                    leaves[0].0.clone(),
                    DeltaBatch::from_rows(t_rows[i * chunk..(i + 1) * chunk].to_vec()),
                );
                if i == 0 {
                    inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(u_rows.clone()));
                }
                ex.execute(&mut inputs, &counter).unwrap();
            }
            counter.total().get()
        };
        let lazy = work_of(1);
        let eager = work_of(10);
        assert!(
            eager > lazy * 1.2,
            "eager ({eager}) must cost meaningfully more than lazy ({lazy})"
        );
    }

    #[test]
    fn missing_inputs_are_empty() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let mut ex =
            SubplanExecutor::new(&sp, &c, &HashMap::new(), CostWeights::default()).unwrap();
        let counter = WorkCounter::new();
        let out = ex.execute(&mut HashMap::new(), &counter).unwrap();
        assert!(out.is_empty());
        assert_eq!(ex.queries(), qs(&[0, 1]));
    }

    /// The partition exchange must be invisible: same output rows in the
    /// same order and bit-identical charges at every partition/thread
    /// count, across incremental executions with inserts and deletes —
    /// through a join AND an aggregate (different partition keys).
    #[test]
    fn partitioned_state_matches_unpartitioned_bitwise() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();
        let steps: Vec<(Vec<DeltaRow>, Vec<DeltaRow>)> = vec![
            (vec![t_row(1, 1), t_row(2, 5), t_row(3, 8)], vec![t_row(1, 100), t_row(2, 50)]),
            (vec![t_row(4, 9), t_row(1, 3)], vec![t_row(3, 20), t_row(4, 7), t_row(1, 7)]),
            (
                vec![DeltaRow {
                    row: Row::new(vec![Value::Int(1), Value::Int(1)]),
                    weight: -1,
                    mask: qs(&[0, 1]),
                }],
                vec![],
            ),
            (vec![t_row(2, 4), t_row(5, 6)], vec![t_row(5, 11)]),
        ];
        let run = |options: ExecOptions| {
            let mut ex =
                SubplanExecutor::new_with_options(&sp, &c, &HashMap::new(), weights, options)
                    .unwrap();
            let leaves = ex.leaf_paths();
            let counter = WorkCounter::new();
            let mut outs = Vec::new();
            for (ts, us) in &steps {
                let mut inputs = HashMap::new();
                inputs.insert(leaves[0].0.clone(), DeltaBatch::from_rows(ts.clone()));
                inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(us.clone()));
                outs.push(ex.execute(&mut inputs, &counter).unwrap().rows);
            }
            (outs, counter.total().get(), counter.breakdown(), ex.partition_stats())
        };
        let (base_outs, base_total, base_breakdown, base_stats) = run(ExecOptions::default());
        assert!(base_stats.is_empty(), "unpartitioned executor reports no partition stats");
        for partitions in [2usize, 4, 8] {
            for threads in [1usize, 2] {
                let opts =
                    ExecOptions { mode: ExecMode::Kernels, partitions, partition_threads: threads };
                let (outs, total, breakdown, stats) = run(opts);
                assert_eq!(
                    outs, base_outs,
                    "outputs differ at {partitions} partitions, {threads} threads"
                );
                assert_eq!(
                    total.to_bits(),
                    base_total.to_bits(),
                    "total work differs at {partitions} partitions, {threads} threads"
                );
                for kind in ishare_common::OpKind::ALL {
                    assert_eq!(
                        breakdown.get(kind).to_bits(),
                        base_breakdown.get(kind).to_bits(),
                        "{kind} charges differ at {partitions} partitions"
                    );
                }
                assert_eq!(stats.len(), partitions);
                let routed: u64 = stats.iter().map(|s| s.rows).sum();
                assert!(routed > 0, "exchange must have routed rows");
                let split: f64 = stats.iter().map(|s| s.work).sum();
                assert!(split > 0.0, "partitions must have charged work");
            }
        }
    }

    /// The aggregate-rooted snapshot must equal the witness query's net
    /// accumulated output, re-masked to the admitted query.
    #[test]
    fn snapshot_output_matches_witness_history() {
        let c = catalog();
        let mut sp = sample_subplan(&c);
        let mut ex =
            SubplanExecutor::new(&sp, &c, &HashMap::new(), CostWeights::default()).unwrap();
        let leaves = ex.leaf_paths();
        let counter = WorkCounter::new();
        let mut acc = Vec::new();
        let steps: Vec<(Vec<DeltaRow>, Vec<DeltaRow>)> = vec![
            (vec![t_row(1, 1), t_row(1, 5), t_row(2, 9)], vec![t_row(1, 100)]),
            (vec![t_row(2, 3)], vec![t_row(2, 20), t_row(1, 7)]),
        ];
        for (ts, us) in steps {
            let mut inputs = HashMap::new();
            inputs.insert(leaves[0].0.clone(), DeltaBatch::from_rows(ts));
            inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(us));
            acc.extend(ex.execute(&mut inputs, &counter).unwrap().rows);
        }
        // Admit q2 with q0 as witness: widen the subplan description, then
        // snapshot. The agg roots the spine, so no leaf history is needed.
        sp.queries = qs(&[0, 1, 2]);
        ex.refresh_subplan(&sp, &c, &HashMap::new()).unwrap();
        assert!(ex.snapshot_leaf_dependencies().is_empty());
        let snap =
            ex.snapshot_output(QueryId(0), QueryId(2), &mut HashMap::new(), &counter).unwrap();
        // Expected: net history visible to q0, re-masked to {q2}.
        let mut expected = HashMap::new();
        for dr in acc {
            if dr.mask.contains(QueryId(0)) {
                *expected.entry(dr.row).or_insert(0i64) += dr.weight;
            }
        }
        expected.retain(|_, w| *w != 0);
        let got: HashMap<Row, i64> = snap
            .rows
            .iter()
            .map(|dr| {
                assert_eq!(dr.mask, qs(&[2]));
                (dr.row.clone(), dr.weight)
            })
            .collect();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
        assert!(ex.state_rows() > 0);
    }

    /// A fully stateless subplan snapshots by pushing witness-masked leaf
    /// history through its own kernels.
    #[test]
    fn stateless_snapshot_replays_leaf_history() {
        let c = catalog();
        let t = c.table_by_name("t").unwrap().id;
        // Post-admission shape: q2 joined q0's (always-true) branch.
        let tree = OpTree::node(
            TreeOp::Select {
                branches: vec![
                    SelectBranch { queries: qs(&[0, 2]), predicate: Expr::true_lit() },
                    SelectBranch { queries: qs(&[1]), predicate: Expr::col(1).gt(Expr::lit(2i64)) },
                ],
            },
            vec![OpTree::input(InputSource::Base(t))],
        );
        let sp = Subplan {
            id: SubplanId(0),
            root: tree,
            queries: qs(&[0, 1, 2]),
            output_queries: qs(&[0, 1, 2]),
        };
        let ex = SubplanExecutor::new(&sp, &c, &HashMap::new(), CostWeights::default()).unwrap();
        let deps = ex.snapshot_leaf_dependencies();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].1, InputSource::Base(t));
        let mut hist = HashMap::new();
        hist.insert(deps[0].0.clone(), DeltaBatch::from_rows(vec![t_row(1, 1), t_row(2, 9)]));
        let counter = WorkCounter::new();
        let snap = ex.snapshot_output(QueryId(0), QueryId(2), &mut hist, &counter).unwrap();
        // q0's branch is always-true: both historical rows, re-masked {q2}.
        assert_eq!(snap.rows.len(), 2);
        assert!(snap.rows.iter().all(|dr| dr.mask == qs(&[2]) && dr.weight == 1));
        assert!(counter.total().get() > 0.0, "spine re-run charges work");
    }

    /// Transplanting state through a bundle must continue the stream
    /// bit-identically, and prefix extraction must re-root subtree state.
    #[test]
    fn state_bundle_transplant_preserves_stream() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();
        let steps: Vec<(Vec<DeltaRow>, Vec<DeltaRow>)> = vec![
            (vec![t_row(1, 1), t_row(2, 5)], vec![t_row(1, 100)]),
            (vec![t_row(1, 3)], vec![t_row(2, 20)]),
            (vec![t_row(2, 8)], vec![t_row(1, 7)]),
        ];
        let run_step = |ex: &mut SubplanExecutor,
                        step: &(Vec<DeltaRow>, Vec<DeltaRow>),
                        counter: &WorkCounter| {
            let leaves = ex.leaf_paths();
            let mut inputs = HashMap::new();
            inputs.insert(leaves[0].0.clone(), DeltaBatch::from_rows(step.0.clone()));
            inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(step.1.clone()));
            ex.execute(&mut inputs, counter).unwrap().rows
        };
        let cc = WorkCounter::new();
        let mut control = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        let mut control_out = Vec::new();
        for s in &steps {
            control_out.push(run_step(&mut control, s, &cc));
        }

        let tc = WorkCounter::new();
        let mut a = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        let mut out = vec![run_step(&mut a, &steps[0], &tc), run_step(&mut a, &steps[1], &tc)];
        let rows_before = a.state_rows();
        let bundle = a.take_state_bundle().unwrap();
        assert_eq!(bundle.len(), 2, "agg at [] and join at [0]");
        assert_eq!(a.state_rows(), 0, "donor is left with fresh empty state");
        let mut b = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        b.install_state_bundle(bundle).unwrap();
        assert_eq!(b.state_rows(), rows_before);
        out.push(run_step(&mut b, &steps[2], &tc));
        assert_eq!(out, control_out);
        assert_eq!(tc.total().get().to_bits(), cc.total().get().to_bits());
    }

    /// Splitting at the join: the extracted sub-bundle re-roots at [] and
    /// installs into an executor whose subplan is the join subtree.
    #[test]
    fn extract_prefix_moves_subtree_state() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();
        let counter = WorkCounter::new();
        let mut ex = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        let leaves = ex.leaf_paths();
        let mut inputs = HashMap::new();
        inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(vec![t_row(1, 100)]));
        ex.execute(&mut inputs, &counter).unwrap();

        let mut bundle = ex.take_state_bundle().unwrap();
        let sub = bundle.extract_prefix(&[0]);
        assert_eq!(sub.len(), 1, "join state re-rooted at []");
        assert_eq!(bundle.len(), 1, "agg state stays with the parent");

        let join_sp = Subplan {
            id: SubplanId(1),
            root: sp.root.inputs[0].clone(),
            queries: sp.queries,
            output_queries: sp.queries,
        };
        let mut jex = SubplanExecutor::new(&join_sp, &c, &HashMap::new(), weights).unwrap();
        jex.install_state_bundle(sub).unwrap();
        // The transplanted right side must join against a fresh left row.
        let jleaves = jex.leaf_paths();
        let mut inputs = HashMap::new();
        inputs.insert(jleaves[0].0.clone(), DeltaBatch::from_rows(vec![t_row(1, 5)]));
        let out = jex.execute(&mut inputs, &counter).unwrap();
        assert_eq!(out.rows.len(), 1, "probe matched the transplanted right row");
        assert_eq!(out.rows[0].mask, qs(&[0, 1]));
    }

    #[test]
    fn reference_mode_rejects_churn_ops() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let mut ex = SubplanExecutor::new_with_mode(
            &sp,
            &c,
            &HashMap::new(),
            CostWeights::default(),
            ExecMode::Reference,
        )
        .unwrap();
        let counter = WorkCounter::new();
        let msg = |e: Error| e.to_string();
        assert!(msg(ex.widen_query(QueryId(0), QueryId(2)).unwrap_err()).contains("churn"));
        assert!(msg(ex.retire_query(QueryId(1)).unwrap_err()).contains("churn"));
        assert!(msg(ex.take_state_bundle().unwrap_err()).contains("churn"));
        assert!(msg(ex.install_state_bundle(StateBundle::default()).unwrap_err()).contains("churn"));
        assert!(msg(ex
            .snapshot_output(QueryId(0), QueryId(2), &mut HashMap::new(), &counter)
            .unwrap_err())
        .contains("churn"));
    }

    /// The two datapaths must agree bit-for-bit: same output rows in the
    /// same order, same charged work to the last f64 bit, across multiple
    /// incremental executions with inserts and deletes.
    #[test]
    fn reference_mode_matches_kernels_bitwise() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();

        let mut kern = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        let mut refr =
            SubplanExecutor::new_with_mode(&sp, &c, &HashMap::new(), weights, ExecMode::Reference)
                .unwrap();
        let leaves = kern.leaf_paths();
        let kc = WorkCounter::new();
        let rc = WorkCounter::new();

        let steps: Vec<(Vec<DeltaRow>, Vec<DeltaRow>)> = vec![
            (vec![t_row(1, 1), t_row(1, 5)], vec![t_row(1, 100)]),
            (vec![t_row(2, 9)], vec![t_row(2, 20), t_row(1, 7)]),
            (
                vec![DeltaRow {
                    row: Row::new(vec![Value::Int(1), Value::Int(5)]),
                    weight: -1,
                    mask: qs(&[0, 1]),
                }],
                vec![],
            ),
        ];
        for (ts, us) in steps {
            let mut ki = HashMap::new();
            ki.insert(leaves[0].0.clone(), DeltaBatch::from_rows(ts.clone()));
            ki.insert(leaves[1].0.clone(), DeltaBatch::from_rows(us.clone()));
            let mut ri = HashMap::new();
            ri.insert(leaves[0].0.clone(), DeltaBatch::from_rows(ts));
            ri.insert(leaves[1].0.clone(), DeltaBatch::from_rows(us));
            let kout = kern.execute(&mut ki, &kc).unwrap();
            let rout = refr.execute(&mut ri, &rc).unwrap();
            assert_eq!(kout.rows, rout.rows, "outputs must match in order");
            assert_eq!(kc.total().get().to_bits(), rc.total().get().to_bits());
        }
    }

    #[test]
    fn vectorized_mode_matches_kernels_bitwise() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();

        let mut kern = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        let mut vect =
            SubplanExecutor::new_with_mode(&sp, &c, &HashMap::new(), weights, ExecMode::Vectorized)
                .unwrap();
        let leaves = kern.leaf_paths();
        let kc = WorkCounter::new();
        let vc = WorkCounter::new();

        let steps: Vec<(Vec<DeltaRow>, Vec<DeltaRow>)> = vec![
            (vec![t_row(1, 1), t_row(1, 5)], vec![t_row(1, 100)]),
            (vec![t_row(2, 9)], vec![t_row(2, 20), t_row(1, 7)]),
            (
                vec![DeltaRow {
                    row: Row::new(vec![Value::Int(1), Value::Int(5)]),
                    weight: -1,
                    mask: qs(&[0, 1]),
                }],
                vec![],
            ),
        ];
        for (ts, us) in steps {
            let mut ki = HashMap::new();
            ki.insert(leaves[0].0.clone(), DeltaBatch::from_rows(ts.clone()));
            ki.insert(leaves[1].0.clone(), DeltaBatch::from_rows(us.clone()));
            let mut vi = HashMap::new();
            vi.insert(leaves[0].0.clone(), DeltaBatch::from_rows(ts));
            vi.insert(leaves[1].0.clone(), DeltaBatch::from_rows(us));
            let kout = kern.execute(&mut ki, &kc).unwrap();
            let vout = vect.execute(&mut vi, &vc).unwrap();
            assert_eq!(kout.rows, vout.rows, "outputs must match in order");
            assert_eq!(kc.total().get().to_bits(), vc.total().get().to_bits());
            for kind in ishare_common::OpKind::ALL {
                assert_eq!(
                    kc.breakdown().get(kind).to_bits(),
                    vc.breakdown().get(kind).to_bits(),
                    "charge mismatch for {kind:?}"
                );
            }
        }
        let stats = vect.batch_stats();
        assert!(stats.batches > 0 && stats.rows > 0, "vectorized run must record batch stats");
        assert!(stats.scanned >= stats.kept);
        assert_eq!(kern.batch_stats(), crate::vectorized::BatchStats::default());
    }

    #[test]
    fn vectorized_partitioned_matches_unpartitioned_bitwise() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();
        let mut plain =
            SubplanExecutor::new_with_mode(&sp, &c, &HashMap::new(), weights, ExecMode::Vectorized)
                .unwrap();
        let mut part = SubplanExecutor::new_with_options(
            &sp,
            &c,
            &HashMap::new(),
            weights,
            ExecOptions { mode: ExecMode::Vectorized, partitions: 4, partition_threads: 2 },
        )
        .unwrap();
        let leaves = plain.leaf_paths();
        let pc = WorkCounter::new();
        let qc = WorkCounter::new();
        let steps: Vec<(Vec<DeltaRow>, Vec<DeltaRow>)> = vec![
            (vec![t_row(1, 1), t_row(2, 5), t_row(3, 9)], vec![t_row(1, 100), t_row(3, 4)]),
            (vec![t_row(2, 9)], vec![t_row(2, 20), t_row(1, 7)]),
        ];
        for (ts, us) in steps {
            let mut pi = HashMap::new();
            pi.insert(leaves[0].0.clone(), DeltaBatch::from_rows(ts.clone()));
            pi.insert(leaves[1].0.clone(), DeltaBatch::from_rows(us.clone()));
            let mut qi = HashMap::new();
            qi.insert(leaves[0].0.clone(), DeltaBatch::from_rows(ts));
            qi.insert(leaves[1].0.clone(), DeltaBatch::from_rows(us));
            let pout = plain.execute(&mut pi, &pc).unwrap();
            let qout = part.execute(&mut qi, &qc).unwrap();
            assert_eq!(pout.rows, qout.rows, "partitioned vectorized must keep emission order");
            assert_eq!(pc.total().get().to_bits(), qc.total().get().to_bits());
        }
        assert!(!part.partition_stats().is_empty(), "partitioned ops must report stats");
    }
}
