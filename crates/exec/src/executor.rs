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
//! An executor compiles its tree once into a *program*: one loop over
//! [`OpTree::post_order`](ishare_plan::OpTree::post_order) lowers the
//! operators in post-order (children before parents, left before right, the
//! root last), each entry owning what its datapath needs — a leaf its tree
//! path, a kernel operator its compiled expressions and, for a join or
//! aggregate, its state, a reference operator the plan expressions the
//! oracle walks and its state. An execution is one pass over the program
//! with a stack of batches: a leaf pushes its narrowed input, an operator
//! pops its inputs and pushes its output, and the root's output is what is
//! left.
//!
//! Post-order is the charge order. An operator consumes the deltas its
//! inputs produce in the same execution, so every input must run before it;
//! and because charged work is an `f64` sum, the order among siblings must
//! be fixed too, or the same work would round to different bits. The cost
//! simulator (`ishare_cost::simulate`) lowers its program from the same
//! walk, so estimates and measurements add the same terms in the same
//! order.
//!
//! Two interchangeable datapaths implement the operators ([`ExecMode`]):
//! the default [`ExecMode::Kernels`] datapath (encoded keys, compiled
//! expressions, flat state — `join`, `aggregate`, `operators`) and the
//! original [`ExecMode::Reference`] datapath (`reference`), kept as a
//! differential oracle. Both must produce bit-identical outputs and charged
//! work on every input — the differential lattice (`tests/lattice.rs`)
//! enforces it.

use crate::aggregate::{AggSpec, AggState};
use crate::join::{JoinKeys, JoinState};
use crate::operators::{apply_project, apply_select, narrow_input};
use crate::reference::{ref_apply_project, ref_apply_select, RefAggState, RefJoinState};
use ishare_common::{
    CostWeights, DataType, Error, QueryId, QuerySet, Result, SubplanId, WorkCounter,
};
use ishare_expr::compile::{CompiledPredicate, CompiledProjection};
use ishare_expr::typecheck::infer_type;
use ishare_expr::Expr;
use ishare_plan::{AggExpr, InputSource, SelectBranch, Subplan, TreeOp};
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

/// One entry of an executor's post-order program.
#[derive(Debug)]
enum Step {
    /// A leaf: the input delta handed to [`SubplanExecutor::execute`] under
    /// `path`.
    Leaf { path: Vec<usize>, src: InputSource },
    /// Kernel marking select: the plan's branches and their predicates.
    Select { branches: Vec<SelectBranch>, preds: Vec<CompiledPredicate> },
    /// Kernel projection.
    Project(CompiledProjection),
    /// Kernel join at tree path `path`.
    Join { path: Vec<usize>, keys: JoinKeys, state: JoinState },
    /// Kernel aggregate at tree path `path`; `int_flags` tells, per
    /// aggregate, whether its argument is integer-typed.
    Aggregate { path: Vec<usize>, spec: AggSpec, int_flags: Vec<bool>, state: AggState },
    /// A reference-datapath operator.
    Reference(RefStep),
}

/// A reference-datapath operator: the plan expressions the oracle walks,
/// and its state.
#[derive(Debug)]
enum RefStep {
    Select(Vec<SelectBranch>),
    Project(Vec<(Expr, String)>),
    Join {
        keys: Vec<(Expr, Expr)>,
        state: RefJoinState,
    },
    Aggregate {
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggExpr>,
        int_flags: Vec<bool>,
        state: RefAggState,
    },
}

/// A kernel join's or aggregate's state.
#[derive(Debug)]
enum OpState {
    Join(JoinState),
    Agg(AggState),
}

/// The state of one stateful operator (a join or an aggregate), moved out
/// of an executor by [`SubplanExecutor::into_state_bundle`]. Opaque: query
/// churn only carries it to whichever executor holds the same DAG node
/// after a re-cut, or counts it as reclaimed.
#[derive(Debug)]
pub struct OperatorState(OpState);

impl OperatorState {
    /// Stored state entries (see [`SubplanExecutor::state_rows`]).
    pub fn rows(&self) -> usize {
        match &self.0 {
            OpState::Join(j) => j.left_size() + j.right_size(),
            OpState::Agg(a) => a.state_size(),
        }
    }
}

/// An executor's operator states, keyed by tree path. Produced by
/// [`SubplanExecutor::into_state_bundle`] and consumed by
/// [`SubplanExecutor::install_state_bundle`]: when query churn re-cuts the
/// shared plan, each state moves to the path its DAG node holds in the
/// successor executor (the same path for a surviving subplan, a path
/// re-rooted at the cut for a split-off one) instead of replaying history.
pub type StateBundle = HashMap<Vec<usize>, OperatorState>;

/// Executes one subplan incrementally, holding its operator state.
#[derive(Debug)]
pub struct SubplanExecutor {
    /// The tree's operators in post-order (see the module docs).
    program: Vec<Step>,
    queries: QuerySet,
    weights: CostWeights,
    mode: ExecMode,
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
        let kernels = options.mode != ExecMode::Reference;
        let mut program = Vec::with_capacity(subplan.root.operator_count());
        subplan.root.post_order(|step| {
            let int_flags = |aggs: &[AggExpr]| -> Result<Vec<bool>> {
                let in_schema = step.node.inputs[0].schema(catalog, child_schemas)?;
                aggs.iter().map(|a| Ok(infer_type(&a.arg, &in_schema)? == DataType::Int)).collect()
            };
            let path = || step.path.to_vec();
            program.push(match &step.node.op {
                TreeOp::Input(src) => Step::Leaf { path: path(), src: *src },
                TreeOp::Select { branches } if kernels => Step::Select {
                    preds: branches
                        .iter()
                        .map(|b| CompiledPredicate::compile(&b.predicate))
                        .collect(),
                    branches: branches.clone(),
                },
                TreeOp::Project { exprs } if kernels => {
                    let list: Vec<Expr> = exprs.iter().map(|(e, _)| e.clone()).collect();
                    Step::Project(CompiledProjection::compile(&list))
                }
                TreeOp::Join { keys } if kernels => Step::Join {
                    path: path(),
                    keys: JoinKeys::compile(keys),
                    state: JoinState::new(),
                },
                TreeOp::Aggregate { group_by, aggs } if kernels => Step::Aggregate {
                    path: path(),
                    spec: AggSpec::compile(group_by, aggs),
                    int_flags: int_flags(aggs)?,
                    state: AggState::new(),
                },
                TreeOp::Select { branches } => Step::Reference(RefStep::Select(branches.clone())),
                TreeOp::Project { exprs } => Step::Reference(RefStep::Project(exprs.clone())),
                TreeOp::Join { keys } => Step::Reference(RefStep::Join {
                    keys: keys.clone(),
                    state: RefJoinState::new(),
                }),
                TreeOp::Aggregate { group_by, aggs } => Step::Reference(RefStep::Aggregate {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    int_flags: int_flags(aggs)?,
                    state: RefAggState::new(),
                }),
            });
            Ok(())
        })?;
        Ok(SubplanExecutor { program, queries: subplan.queries, weights, mode: options.mode })
    }

    /// The datapath this executor runs.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// All leaves of the tree with their tree paths, in pre-order (the
    /// program's order: post-order and pre-order visit leaves alike). The
    /// driver registers one buffer consumer per leaf (a self-join reads the
    /// same source through two leaves, each with its own cursor).
    pub fn leaf_paths(&self) -> Vec<(Vec<usize>, InputSource)> {
        self.program
            .iter()
            .filter_map(|step| match step {
                Step::Leaf { path, src } => Some((path.clone(), *src)),
                _ => None,
            })
            .collect()
    }

    /// Run one incremental execution. `inputs` maps leaf paths to the new
    /// deltas pulled from the corresponding buffers; missing entries mean no
    /// new data for that leaf. Returns the subplan's output delta.
    pub fn execute(
        &mut self,
        inputs: &mut HashMap<Vec<usize>, DeltaBatch>,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        let w = &self.weights;
        let mut stack: Vec<DeltaBatch> = Vec::new();
        for step in &mut self.program {
            let out = match step {
                Step::Leaf { path, .. } => {
                    let batch = inputs.remove(path.as_slice()).unwrap_or_default();
                    narrow_input(batch, self.queries, w, counter)
                }
                Step::Select { branches, preds } => {
                    apply_select(pop(&mut stack), branches, preds, w, counter)?
                }
                Step::Project(proj) => apply_project(pop(&mut stack), proj, w, counter)?,
                Step::Join { keys, state, .. } => {
                    let right = pop(&mut stack);
                    state.execute(pop(&mut stack), right, keys, w, counter)?
                }
                Step::Aggregate { spec, int_flags, state, .. } => {
                    state.execute(pop(&mut stack), spec, int_flags, w, counter)?
                }
                Step::Reference(RefStep::Select(branches)) => {
                    ref_apply_select(pop(&mut stack), branches, w, counter)?
                }
                Step::Reference(RefStep::Project(exprs)) => {
                    ref_apply_project(pop(&mut stack), exprs, w, counter)?
                }
                Step::Reference(RefStep::Join { keys, state }) => {
                    let right = pop(&mut stack);
                    state.execute(pop(&mut stack), right, keys, w, counter)?
                }
                Step::Reference(RefStep::Aggregate { group_by, aggs, int_flags, state }) => {
                    state.execute(pop(&mut stack), group_by, aggs, int_flags, w, counter)?
                }
            };
            stack.push(out);
        }
        Ok(pop(&mut stack))
    }

    /// The queries this subplan serves.
    pub fn queries(&self) -> QuerySet {
        self.queries
    }

    /// Total stored state entries across this subplan's stateful operators:
    /// join (row, mask) entries on both sides plus aggregate classes and
    /// outstanding emitted pairs. Zero in [`ExecMode::Reference`].
    pub fn state_rows(&self) -> usize {
        self.program
            .iter()
            .map(|step| match step {
                Step::Join { state, .. } => state.left_size() + state.right_size(),
                Step::Aggregate { state, .. } => state.state_size(),
                _ => 0,
            })
            .sum()
    }

    /// Move all operator state out for transplant into successor executors
    /// (see [`StateBundle`]), consuming this executor. [`Error::Churn`] in
    /// [`ExecMode::Reference`]: the oracle datapath does not support state
    /// surgery.
    pub fn into_state_bundle(self) -> Result<StateBundle> {
        if self.mode == ExecMode::Reference {
            return Err(churn_unsupported());
        }
        Ok(self
            .program
            .into_iter()
            .filter_map(|step| match step {
                Step::Join { path, state, .. } => Some((path, OperatorState(OpState::Join(state)))),
                Step::Aggregate { path, state, .. } => {
                    Some((path, OperatorState(OpState::Agg(state))))
                }
                _ => None,
            })
            .collect())
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
        for (path, OperatorState(moved)) in bundle {
            let slot = self.program.iter_mut().find(|step| {
                matches!(step, Step::Join { path: p, .. } | Step::Aggregate { path: p, .. } if *p == path)
            });
            match (slot, moved) {
                (Some(Step::Join { state, .. }), OpState::Join(moved)) => *state = moved,
                (Some(Step::Aggregate { state, .. }), OpState::Agg(moved)) => *state = moved,
                (Some(_), _) => {
                    return Err(Error::Churn(format!(
                        "transplanted state at path {path:?} has a different operator variant"
                    )));
                }
                (None, _) => {
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
        for step in &mut self.program {
            match step {
                Step::Join { state, .. } => state.widen_query(q_ref, q_new),
                Step::Aggregate { state, .. } => state.widen_query(q_ref, q_new),
                _ => {}
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
        for step in &mut self.program {
            reclaimed += match step {
                Step::Join { state, .. } => state.retire_query(q)?,
                Step::Aggregate { state, .. } => state.retire_query(q),
                _ => 0,
            };
        }
        Ok(reclaimed)
    }

    /// The entry the root spine rests on: walking back from the root (the
    /// last entry) over kernel selects and projects — unary, so each one's
    /// input is the entry right before it — to the first leaf, join or
    /// aggregate (or, in [`ExecMode::Reference`], reference operator).
    fn spine_base(&self) -> usize {
        let mut at = self.program.len() - 1;
        while let Step::Select { .. } | Step::Project(_) = self.program[at] {
            at -= 1;
        }
        at
    }

    /// The leaves the snapshot walk of [`Self::snapshot_output`] will read
    /// history from: leaves reachable from the root without crossing a
    /// stateful operator. Empty when a join/aggregate roots the spine (its
    /// state already nets everything below it); at most one entry otherwise,
    /// because stateless operators are unary.
    pub fn snapshot_leaf_dependencies(&self) -> Vec<(Vec<usize>, InputSource)> {
        match &self.program[self.spine_base()] {
            Step::Leaf { path, src } => vec![(path.clone(), *src)],
            _ => Vec::new(),
        }
    }

    /// Reconstruct this subplan's *net historical output* as seen by the
    /// witness query `q_ref`, re-masked to the admitted query `q_new` —
    /// the state handoff that lets a new query sharing this subplan skip
    /// replaying history.
    ///
    /// The walk starts at the entry the root spine rests on and snapshots
    /// it — an aggregate's outstanding emitted pairs
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
    /// `consolidate_snapshot`). The executor must have been built from the
    /// post-admission subplan, so `q_new` is in its query set and select
    /// branches. [`Error::Churn`] in [`ExecMode::Reference`].
    pub fn snapshot_output(
        &self,
        q_ref: QueryId,
        q_new: QueryId,
        leaf_history: &mut HashMap<Vec<usize>, DeltaBatch>,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        let w = &self.weights;
        let mut batch = DeltaBatch::new();
        for step in &self.program[self.spine_base()..] {
            batch = match step {
                Step::Join { state, .. } => {
                    consolidate_snapshot(state.snapshot_product(q_ref, q_new))
                }
                Step::Aggregate { state, .. } => {
                    consolidate_snapshot(state.snapshot_emitted(q_ref, q_new))
                }
                Step::Leaf { path, .. } => {
                    let mut history = leaf_history.remove(path.as_slice()).unwrap_or_default();
                    history.rows.retain_mut(|dr| {
                        let witnessed = dr.mask.contains(q_ref);
                        dr.mask = QuerySet::single(q_new);
                        witnessed
                    });
                    narrow_input(history, self.queries, w, counter)
                }
                Step::Select { branches, preds } => {
                    apply_select(batch, branches, preds, w, counter)?
                }
                Step::Project(proj) => apply_project(batch, proj, w, counter)?,
                // The spine of a reference program rests on its root.
                Step::Reference(_) => return Err(churn_unsupported()),
            };
        }
        Ok(batch)
    }
}

/// An operator's input: the batch its nearest preceding unconsumed entry
/// pushed. Always present — the program is lowered from
/// [`OpTree::post_order`](ishare_plan::OpTree::post_order), which checks
/// every operator's arity, so every input precedes its operator.
fn pop(stack: &mut Vec<DeltaBatch>) -> DeltaBatch {
    stack.pop().expect("post-order program: an operator's inputs precede it")
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
fn consolidate_snapshot(mut rows: Vec<DeltaRow>) -> DeltaBatch {
    rows.sort_by(|a, b| a.row.cmp(&b.row).then_with(|| a.mask.cmp(&b.mask)));
    let mut out: Vec<DeltaRow> = Vec::with_capacity(rows.len());
    for dr in rows {
        match out.last_mut() {
            Some(last) if last.row == dr.row && last.mask == dr.mask => last.weight += dr.weight,
            _ => out.push(dr),
        }
    }
    out.retain(|dr| dr.weight != 0);
    DeltaBatch::from_rows(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::Value;
    use ishare_plan::{AggFunc, OpTree};
    use ishare_storage::{consolidate, Field, Row, TableStats};

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

    /// One execution's inputs: `rows[i]` for the executor's `i`-th leaf.
    fn feed<const N: usize>(
        ex: &SubplanExecutor,
        rows: [Vec<DeltaRow>; N],
    ) -> HashMap<Vec<usize>, DeltaBatch> {
        let paths = ex.leaf_paths().into_iter().map(|(path, _)| path);
        paths.zip(rows).map(|(path, rows)| (path, DeltaBatch::from_rows(rows))).collect()
    }

    #[test]
    fn end_to_end_one_batch() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let mut ex =
            SubplanExecutor::new(&sp, &c, &HashMap::new(), CostWeights::default()).unwrap();
        assert_eq!(ex.mode(), ExecMode::Kernels, "kernels are the default datapath");
        assert_eq!(ex.leaf_paths().len(), 2);
        let counter = WorkCounter::new();
        // t rows: (1, v=1) fails q1's filter; (1, v=5) passes both.
        let mut inputs = feed(&ex, [vec![t_row(1, 1), t_row(1, 5)], vec![t_row(1, 100)]]);
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
        let mut inputs = feed(&big, [t_rows.clone(), u_rows.clone()]);
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
            let mut inputs = feed(&inc, [ts, us]);
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
            let counter = WorkCounter::new();
            let chunk = t_rows.len() / chunks;
            for i in 0..chunks {
                let us = if i == 0 { u_rows.clone() } else { Vec::new() };
                let mut inputs = feed(&ex, [t_rows[i * chunk..(i + 1) * chunk].to_vec(), us]);
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
        let counter = WorkCounter::new();
        let mut acc = Vec::new();
        let steps = [
            [vec![t_row(1, 1), t_row(1, 5), t_row(2, 9)], vec![t_row(1, 100)]],
            [vec![t_row(2, 3)], vec![t_row(2, 20), t_row(1, 7)]],
        ];
        for step in steps {
            let mut inputs = feed(&ex, step);
            acc.extend(ex.execute(&mut inputs, &counter).unwrap().rows);
        }
        // Admit q2 with q0 as witness: move the state into an executor of
        // the widened subplan, then snapshot. The agg roots the spine, so no
        // leaf history is needed.
        sp.queries = qs(&[0, 1, 2]);
        let bundle = ex.into_state_bundle().unwrap();
        let mut ex =
            SubplanExecutor::new(&sp, &c, &HashMap::new(), CostWeights::default()).unwrap();
        ex.install_state_bundle(bundle).unwrap();
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
    /// bit-identically.
    #[test]
    fn state_bundle_transplant_preserves_stream() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();
        let steps = [
            [vec![t_row(1, 1), t_row(2, 5)], vec![t_row(1, 100)]],
            [vec![t_row(1, 3)], vec![t_row(2, 20)]],
            [vec![t_row(2, 8)], vec![t_row(1, 7)]],
        ];
        let run_step = |ex: &mut SubplanExecutor, step: &[Vec<DeltaRow>; 2], counter| {
            ex.execute(&mut feed(ex, step.clone()), counter).unwrap().rows
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
        let bundle = a.into_state_bundle().unwrap();
        assert_eq!(bundle.len(), 2, "agg at [] and join at [0]");
        let moved: usize = bundle.values().map(OperatorState::rows).sum();
        assert_eq!(moved, rows_before);
        let mut b = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        b.install_state_bundle(bundle).unwrap();
        assert_eq!(b.state_rows(), rows_before);
        out.push(run_step(&mut b, &steps[2], &tc));
        assert_eq!(out, control_out);
        assert_eq!(tc.total().get().to_bits(), cc.total().get().to_bits());
    }

    /// A cut at the join: the join's state moves from path [0] to the root
    /// of an executor whose subplan is the join subtree.
    #[test]
    fn state_moves_to_the_path_its_node_holds() {
        let c = catalog();
        let sp = sample_subplan(&c);
        let weights = CostWeights::default();
        let counter = WorkCounter::new();
        let mut ex = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        ex.execute(&mut feed(&ex, [vec![], vec![t_row(1, 100)]]), &counter).unwrap();

        let mut bundle = ex.into_state_bundle().unwrap();
        let join = bundle.remove([0].as_slice()).expect("join state at [0]");
        let sub = StateBundle::from([(Vec::new(), join)]);

        let join_sp = Subplan {
            id: SubplanId(1),
            root: sp.root.inputs[0].clone(),
            queries: sp.queries,
            output_queries: sp.queries,
        };
        let mut jex = SubplanExecutor::new(&join_sp, &c, &HashMap::new(), weights).unwrap();
        jex.install_state_bundle(sub).unwrap();
        // The transplanted right side must join against a fresh left row.
        let out = jex.execute(&mut feed(&jex, [vec![t_row(1, 5)]]), &counter).unwrap();
        assert_eq!(out.rows.len(), 1, "probe matched the transplanted right row");
        assert_eq!(out.rows[0].mask, qs(&[0, 1]));
    }

    /// The paths churn surgery maps through `SharedDag::node_at` /
    /// `leaf_edge`, on a tree with a join feeding a join's left input under
    /// an aggregate, and `t` read through two leaves (a self-join).
    #[test]
    fn state_and_leaf_paths_keep_their_tree_positions() {
        let c = catalog();
        let (t, u) = (c.table_by_name("t").unwrap().id, c.table_by_name("u").unwrap().id);
        let inner = OpTree::node(
            TreeOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
            vec![
                OpTree::node(
                    TreeOp::Select {
                        branches: vec![SelectBranch {
                            queries: qs(&[0, 1]),
                            predicate: Expr::col(1).gt(Expr::lit(2i64)),
                        }],
                    },
                    vec![OpTree::input(InputSource::Base(t))],
                ),
                OpTree::input(InputSource::Base(u)),
            ],
        );
        let tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![(Expr::col(0), "k".into())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(5), "sv")],
            },
            vec![OpTree::node(
                TreeOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
                vec![inner, OpTree::input(InputSource::Base(t))],
            )],
        );
        let sp = Subplan {
            id: SubplanId(0),
            root: tree,
            queries: qs(&[0, 1]),
            output_queries: qs(&[0, 1]),
        };
        let weights = CostWeights::default();
        let mut ex = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();

        let leaves = ex.leaf_paths();
        let expected = vec![
            (vec![0, 0, 0, 0], InputSource::Base(t)),
            (vec![0, 0, 1], InputSource::Base(u)),
            (vec![0, 1], InputSource::Base(t)),
        ];
        assert_eq!(leaves, expected, "leaves in pre-order");

        let counter = WorkCounter::new();
        let steps = [
            [vec![t_row(1, 5), t_row(2, 9)], vec![t_row(1, 10)], vec![t_row(1, 7)]],
            [vec![t_row(1, 3)], vec![t_row(2, 20)], vec![t_row(2, 4), t_row(1, 8)]],
        ];
        for step in steps {
            ex.execute(&mut feed(&ex, step), &counter).unwrap();
        }
        let rows = ex.state_rows();
        assert!(rows > 0);

        let bundle = ex.into_state_bundle().unwrap();
        let mut keys: Vec<Vec<usize>> = bundle.keys().cloned().collect();
        keys.sort();
        let mut stateful = Vec::new();
        sp.root
            .post_order(|step| {
                if let TreeOp::Join { .. } | TreeOp::Aggregate { .. } = step.node.op {
                    stateful.push(step.path.to_vec());
                }
                Ok(())
            })
            .unwrap();
        stateful.sort();
        assert_eq!(stateful, vec![vec![], vec![0], vec![0, 0]]);
        assert_eq!(keys, stateful, "bundle keys are the join/aggregate positions");

        let mut fresh = SubplanExecutor::new(&sp, &c, &HashMap::new(), weights).unwrap();
        assert_eq!(fresh.state_rows(), 0);
        fresh.install_state_bundle(bundle).unwrap();
        assert_eq!(fresh.state_rows(), rows);
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
        assert!(msg(ex.install_state_bundle(StateBundle::new()).unwrap_err()).contains("churn"));
        assert!(msg(ex
            .snapshot_output(QueryId(0), QueryId(2), &mut HashMap::new(), &counter)
            .unwrap_err())
        .contains("churn"));
        assert!(msg(ex.into_state_bundle().unwrap_err()).contains("churn"));
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
        let kc = WorkCounter::new();
        let rc = WorkCounter::new();

        let retract = DeltaRow { weight: -1, ..t_row(1, 5) };
        let steps = [
            [vec![t_row(1, 1), t_row(1, 5)], vec![t_row(1, 100)]],
            [vec![t_row(2, 9)], vec![t_row(2, 20), t_row(1, 7)]],
            [vec![retract], vec![]],
        ];
        for step in steps {
            let kout = kern.execute(&mut feed(&kern, step.clone()), &kc).unwrap();
            let rout = refr.execute(&mut feed(&refr, step), &rc).unwrap();
            assert_eq!(kout.rows, rout.rows, "outputs must match in order");
            assert_eq!(kc.total().get().to_bits(), rc.total().get().to_bits());
        }
    }
}
