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
use crate::reference::{ref_apply_project, ref_apply_select, RefAggState, RefJoinState};
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
    /// Inert: runs exactly as [`ExecMode::Kernels`]. The columnar datapath
    /// it once selected was deleted because no workload ran faster on it
    /// (DESIGN.md §15); the variant stays only because the benchmark
    /// harness still names it, and the next `[benchmark]` PR deletes it.
    Vectorized,
}

/// How a [`SubplanExecutor`] is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// The datapath.
    pub mode: ExecMode,
}

/// Stateful-operator state, keyed by tree path.
#[derive(Debug)]
enum OpState {
    Join(JoinState),
    Agg(AggState),
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
    mode: ExecMode,
    /// Per-aggregate-node flags: is each aggregate argument integer-typed?
    agg_int: HashMap<Vec<usize>, Vec<bool>>,
    states: HashMap<Vec<usize>, OpState>,
    compiled: CompiledOps,
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
        Self::new_with_options(subplan, catalog, child_schemas, weights, ExecOptions::default())
    }

    /// Build an executor with explicit [`ExecOptions`] (the datapath).
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
            options.mode,
            &mut agg_int,
            &mut states,
            &mut compiled,
        )?;
        Ok(SubplanExecutor {
            subplan: subplan.clone(),
            weights,
            mode: options.mode,
            agg_int,
            states,
            compiled,
        })
    }

    /// The executed subplan.
    pub fn subplan(&self) -> &Subplan {
        &self.subplan
    }

    /// The datapath this executor runs.
    pub fn mode(&self) -> ExecMode {
        self.mode
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
        exec_node(
            &self.subplan.root,
            &mut Vec::new(),
            inputs,
            counter,
            self.mode,
            self.subplan.queries,
            &self.weights,
            &self.agg_int,
            &mut self.states,
            &self.compiled,
        )
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
                OpState::Agg(a) => a.state_size(),
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
            self.mode,
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
        if self.mode == ExecMode::Reference {
            return Err(churn_unsupported());
        }
        let states = std::mem::take(&mut self.states);
        for path in self.compiled.join_keys.keys() {
            self.states.insert(path.clone(), OpState::Join(JoinState::new()));
        }
        for path in self.compiled.agg_specs.keys() {
            self.states.insert(path.clone(), OpState::Agg(AggState::new()));
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
        if self.mode == ExecMode::Reference {
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
        if self.mode == ExecMode::Reference {
            return Err(churn_unsupported());
        }
        for st in self.states.values_mut() {
            match st {
                OpState::Join(j) => j.widen_query(q_ref, q_new),
                OpState::Agg(a) => a.widen_query(q_ref, q_new),
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
        if self.mode == ExecMode::Reference {
            return Err(churn_unsupported());
        }
        let mut reclaimed = 0usize;
        for st in self.states.values_mut() {
            reclaimed += match st {
                OpState::Join(j) => j.retire_query(q)?,
                OpState::Agg(a) => a.retire_query(q),
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
    /// Stateful-operator snapshots are canonicalized (sorted by row and
    /// mask, equal pairs merged, zero weights dropped) before the spine
    /// re-run, so the result is independent of state insertion order (see
    /// `consolidate_snapshot`). The caller must have
    /// [`Self::refresh_subplan`]-ed this executor first so `q_new` is in the
    /// subplan's query set and select branches. [`Error::Churn`] in
    /// [`ExecMode::Reference`].
    pub fn snapshot_output(
        &self,
        q_ref: QueryId,
        q_new: QueryId,
        leaf_history: &mut HashMap<Vec<usize>, DeltaBatch>,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        if self.mode == ExecMode::Reference {
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
/// the stored multiset, independent of insertion order: operators walk
/// their slots in key first-touch order, and a join's raw product still
/// holds the pending tails no probe has merged yet, so the same multiset
/// can be stored in many layouts.
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
                Some(OpState::RefAgg(st)) => {
                    st.execute(input, group_by, aggs, int_flags, weights, counter)
                }
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
    mode: ExecMode,
    agg_int: &mut HashMap<Vec<usize>, Vec<bool>>,
    states: &mut HashMap<Vec<usize>, OpState>,
    compiled: &mut CompiledOps,
) -> Result<()> {
    match &t.op {
        TreeOp::Join { keys } => match mode {
            ExecMode::Reference => {
                states.insert(path.clone(), OpState::RefJoin(RefJoinState::new()));
            }
            _ => {
                compiled.join_keys.insert(path.clone(), JoinKeys::compile(keys));
                states.insert(path.clone(), OpState::Join(JoinState::new()));
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
                    compiled.agg_specs.insert(path.clone(), AggSpec::compile(group_by, aggs));
                    states.insert(path.clone(), OpState::Agg(AggState::new()));
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
        init_states(child, path, catalog, child_schemas, mode, agg_int, states, compiled)?;
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
        let mut ex = SubplanExecutor::new_with_options(
            &sp,
            &c,
            &HashMap::new(),
            CostWeights::default(),
            ExecOptions { mode: ExecMode::Reference },
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
        let opts = ExecOptions { mode: ExecMode::Reference };
        let mut refr =
            SubplanExecutor::new_with_options(&sp, &c, &HashMap::new(), weights, opts).unwrap();
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
}
