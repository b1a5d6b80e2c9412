//! Incremental shared group-by aggregation — datapath-kernel implementation.
//!
//! Every group's state is a set of *disjoint query-mask classes*; a class
//! holds one accumulator per aggregate column covering exactly the input
//! tuples whose mask contains the class's bits. When all tuples of a group
//! carry the same mask (the common, fully shared case) there is exactly one
//! class and the accumulator is genuinely shared. When marking selects
//! upstream give tuples different masks, partition refinement splits classes
//! so that each query's aggregate stays correct.
//!
//! Emission implements the paper's delete amplification: after each
//! incremental execution, a touched group retracts its previously emitted
//! output rows and inserts the new ones (identical pairs cancel and are not
//! emitted). This retract+insert churn is exactly why eager incremental
//! execution of aggregates wastes work (Fig. 1 / Sec. 1).
//!
//! MIN/MAX accumulators keep the full value multiset; deleting the current
//! extremum triggers a rescan charged at `minmax_rescan × multiset size` —
//! the paper's "if a max value is deleted, the max operator needs to rescan
//! all arrived values" (Sec. 5.3, Q15).
//!
//! Kernel datapath vs. [`crate::reference::RefAggState`]: group keys are
//! [`KeyBuf`]-encoded into a [`FlatTable`] (no `Vec<Value>` hashing, no
//! SipHash); group-by and aggregate-argument expressions are pre-compiled
//! [`CompiledScalar`]s in an [`AggSpec`]; the per-execution touched set is an
//! epoch stamp on the group instead of a `HashSet<Vec<Value>>`; and
//! `AggUpdate`/`AggEmit` work is charged once per batch (bit-identical to the
//! reference's per-tuple charges because the default weights are dyadic).
//! Flush order is first-touch order in both datapaths, and each touched
//! group's output key uses the value representation produced by the row that
//! first touched it *this execution* — both properties the reference also
//! has, and both load-bearing for bit-identical results. `MinmaxRescan`
//! stays charged per event: its unit count depends on mutable state, so it
//! cannot be batched without changing observable totals on error paths.

use crate::flat::FlatTable;
use ishare_common::{
    CostWeights, Error, FxHashMap, KeyBuf, OpKind, QueryId, QuerySet, Result, StrInterner, Value,
    WorkCounter,
};
use ishare_expr::compile::CompiledScalar;
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc};
use ishare_storage::{prefetch_ahead, DeltaBatch, DeltaRow, Row};

/// One aggregate accumulator.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// SUM — integer-exact when the argument is an integer column.
    Sum {
        /// Argument type is integer (output stays `Value::Int`).
        int: bool,
        /// Integer sum (valid when `int`).
        sum_i: i64,
        /// Float sum (valid when `!int`).
        sum_f: f64,
        /// Weighted count of non-NULL contributions (SUM of nothing is NULL).
        nonnull: i64,
    },
    /// COUNT of non-NULL arguments.
    Count {
        /// Weighted count.
        count: i64,
    },
    /// AVG maintained as sum + count.
    Avg {
        /// Weighted sum.
        sum: f64,
        /// Weighted count of non-NULL contributions.
        count: i64,
    },
    /// MIN or MAX over a stored multiset.
    MinMax {
        /// `true` for MIN.
        min: bool,
        /// Value multiset (value → net weight). Deterministically hashed;
        /// only ever read via `keys().min()/max()`, which is order-free.
        values: FxHashMap<Value, i64>,
        /// Cached extremum.
        cached: Option<Value>,
        /// Monotone count of values ever inserted. A rescan after deleting
        /// the extremum is charged against *all arrived values* — the
        /// paper's Sec. 5.3: "the max operator needs to rescan all arrived
        /// values to find the new max one" — which is what makes MIN/MAX
        /// genuinely non-incrementable under churn.
        arrived: i64,
    },
}

impl Accumulator {
    /// Fresh accumulator for an aggregate column; `int` says whether the
    /// argument is integer-typed (affects SUM's output type).
    pub fn new(func: AggFunc, int: bool) -> Accumulator {
        match func {
            AggFunc::Sum => Accumulator::Sum { int, sum_i: 0, sum_f: 0.0, nonnull: 0 },
            AggFunc::Count => Accumulator::Count { count: 0 },
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => Accumulator::MinMax {
                min: true,
                values: FxHashMap::default(),
                cached: None,
                arrived: 0,
            },
            AggFunc::Max => Accumulator::MinMax {
                min: false,
                values: FxHashMap::default(),
                cached: None,
                arrived: 0,
            },
        }
    }

    /// Fold one weighted value in. NULLs are ignored (SQL aggregate
    /// semantics). Charges MIN/MAX rescans to `counter`.
    pub fn update(
        &mut self,
        v: &Value,
        w: i64,
        weights: &CostWeights,
        counter: &WorkCounter,
    ) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            Accumulator::Sum { int, sum_i, sum_f, nonnull } => {
                if *int {
                    let x = v.as_i64().ok_or_else(|| type_err("sum", v))?;
                    *sum_i += x * w;
                } else {
                    let x = v.as_f64().ok_or_else(|| type_err("sum", v))?;
                    *sum_f += x * w as f64;
                }
                *nonnull += w;
            }
            Accumulator::Count { count } => *count += w,
            Accumulator::Avg { sum, count } => {
                let x = v.as_f64().ok_or_else(|| type_err("avg", v))?;
                *sum += x * w as f64;
                *count += w;
            }
            Accumulator::MinMax { min, values, cached, arrived } => {
                let entry = values.entry(v.clone()).or_insert(0);
                *entry += w;
                let now = *entry;
                if now == 0 {
                    values.remove(v);
                }
                if now < 0 {
                    return Err(Error::InvalidDelta(format!(
                        "MIN/MAX multiset went negative for value {v}"
                    )));
                }
                if w > 0 {
                    *arrived += w;
                }
                if w > 0 && now > 0 {
                    // Insertion may improve the extremum — O(1).
                    let better = match cached {
                        None => true,
                        Some(c) => {
                            if *min {
                                v < c
                            } else {
                                v > c
                            }
                        }
                    };
                    if better {
                        *cached = Some(v.clone());
                    }
                } else if now == 0 && cached.as_ref() == Some(v) {
                    // The extremum was deleted: find the new one. The engine
                    // charges the rescan against all arrived values (paper
                    // Sec. 5.3) — the cost a log-backed IVM engine pays.
                    counter.charge(
                        OpKind::MinmaxRescan,
                        weights.minmax_rescan,
                        (*arrived).max(0) as usize,
                    );
                    *cached = if *min {
                        values.keys().min().cloned()
                    } else {
                        values.keys().max().cloned()
                    };
                }
            }
        }
        Ok(())
    }

    /// Current aggregate value.
    pub fn value(&self) -> Value {
        match self {
            Accumulator::Sum { int, sum_i, sum_f, nonnull } => {
                if *nonnull == 0 {
                    Value::Null
                } else if *int {
                    Value::Int(*sum_i)
                } else {
                    Value::Float(*sum_f)
                }
            }
            Accumulator::Count { count } => Value::Int(*count),
            Accumulator::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *count as f64)
                }
            }
            Accumulator::MinMax { cached, .. } => cached.clone().unwrap_or(Value::Null),
        }
    }
}

fn type_err(what: &str, v: &Value) -> Error {
    Error::TypeMismatch(format!("{what} over non-numeric value {v}"))
}

/// Compiled aggregate operator: group-by scalars plus per-aggregate
/// `(function, argument scalar)` pairs, lowered once at plan setup.
#[derive(Debug, Clone)]
pub struct AggSpec {
    group_by: Vec<CompiledScalar>,
    funcs: Vec<AggFunc>,
    args: Vec<CompiledScalar>,
}

impl AggSpec {
    /// Lower the planner's group-by and aggregate expressions.
    pub fn compile(group_by: &[(Expr, String)], aggs: &[AggExpr]) -> AggSpec {
        AggSpec {
            group_by: group_by.iter().map(|(e, _)| CompiledScalar::compile(e)).collect(),
            funcs: aggs.iter().map(|a| a.func).collect(),
            args: aggs.iter().map(|a| CompiledScalar::compile(&a.arg)).collect(),
        }
    }
}

/// One disjoint query-mask class within a group.
#[derive(Debug, Clone)]
struct ClassState {
    mask: QuerySet,
    /// Net weight of input rows attributed to this class.
    rows: i64,
    accums: Vec<Accumulator>,
}

/// Per-group state: mask classes plus the output rows currently outstanding
/// downstream (needed to emit exact retractions).
#[derive(Debug, Default)]
struct GroupState {
    classes: Vec<ClassState>,
    emitted: Vec<(QuerySet, Row)>,
    /// Execution epoch that last touched this group — replaces the
    /// reference's per-execution `HashSet<Vec<Value>>` membership test.
    touched_at: u64,
}

/// Persistent state of one aggregate operator across incremental executions.
#[derive(Debug, Default)]
pub struct AggState {
    groups: FlatTable<GroupState>,
    interner: StrInterner,
    scratch: KeyBuf,
    epoch: u64,
}

impl AggState {
    /// Fresh empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live groups (state-size diagnostics).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Run one incremental execution.
    ///
    /// `agg_int[i]` says whether aggregate `i`'s argument is integer-typed.
    pub fn execute(
        &mut self,
        input: DeltaBatch,
        spec: &AggSpec,
        agg_int: &[bool],
        weights: &CostWeights,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        self.epoch += 1;
        let epoch = self.epoch;
        counter.charge(
            OpKind::AggUpdate,
            weights.agg_update,
            input.rows.len() * spec.funcs.len().max(1),
        );
        // First-touch order, not map order: flush order must be a pure
        // function of the input stream so executions are reproducible (the
        // bit-identical work-unit guarantee relies on it). Group keys are encoded from
        // borrowed values. Only the first touch of a group evaluates its
        // output key — the representation the reference emits — into one
        // arena of `group_by.len()` values per touched group, while the row
        // is still in cache: re-reading the row at flush time costs a cache
        // miss per group on large batches.
        let mut touched: Vec<u32> = Vec::new();
        let mut keys: Vec<Value> = Vec::new();
        for (i, dr) in input.rows.iter().enumerate() {
            prefetch_ahead(&input.rows[i..]);
            self.scratch.clear();
            for g in &spec.group_by {
                self.scratch.push_value(&*g.eval_ref(&dr.row)?, &mut self.interner);
            }
            let id = self.groups.id_or_insert_with(self.scratch.as_words(), GroupState::default);
            let group = self.groups.get_by_id_mut(id).expect("live group");
            if group.touched_at != epoch {
                group.touched_at = epoch;
                touched.push(id);
                for g in &spec.group_by {
                    keys.push(g.eval(&dr.row)?);
                }
            }
            refine_classes(group, dr.mask, spec, agg_int);
            for class in &mut group.classes {
                if class.mask.is_subset_of(dr.mask) {
                    class.rows += dr.weight;
                    for (acc, arg) in class.accums.iter_mut().zip(&spec.args) {
                        acc.update(&*arg.eval_ref(&dr.row)?, dr.weight, weights, counter)?;
                    }
                }
            }
        }

        self.flush_touched(&touched, &keys, spec.group_by.len(), weights, counter)
    }

    /// Flush: per touched group, retract stale output rows and emit new
    /// ones (unchanged pairs cancel). The flush is where emission order and
    /// `AggEmit` charges are decided. Touched group `k`'s key is
    /// `keys[k * arity..(k + 1) * arity]`.
    fn flush_touched(
        &mut self,
        touched: &[u32],
        keys: &[Value],
        arity: usize,
        weights: &CostWeights,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        let mut out = DeltaBatch::new();
        let mut emit_units = 0usize;
        let mut canceled: Vec<bool> = Vec::new();
        for (k, &id) in touched.iter().enumerate() {
            let key = &keys[k * arity..(k + 1) * arity];
            let group = self.groups.get_by_id_mut(id).expect("touched group exists");
            if let Some(c) = group.classes.iter().find(|c| c.rows < 0) {
                return Err(Error::InvalidDelta(format!(
                    "group {key:?} class {} retracted below zero",
                    c.mask
                )));
            }
            let mut new_pairs: Vec<(QuerySet, Row)> =
                Vec::with_capacity(group.classes.iter().filter(|c| c.rows > 0).count());
            for c in group.classes.iter().filter(|c| c.rows > 0) {
                let mut vals = Vec::with_capacity(key.len() + c.accums.len());
                vals.extend_from_slice(key);
                vals.extend(c.accums.iter().map(|a| a.value()));
                new_pairs.push((c.mask, Row::new(vals)));
            }

            // Order-preserving diff: retract stale pairs first (in emitted
            // order), then insert fresh ones (in class order). Pairs within
            // a group are unique — class masks are disjoint — so an old pair
            // cancels against at most one identical new pair, and old rows
            // can be moved straight into the retraction deltas. Groups emit
            // a handful of rows, so linear matching beats hashing and keeps
            // emission order deterministic.
            let old_pairs = std::mem::take(&mut group.emitted);
            canceled.clear();
            canceled.resize(new_pairs.len(), false);
            for (m, r) in old_pairs {
                match new_pairs.iter().position(|(nm, nr)| *nm == m && *nr == r) {
                    Some(i) => canceled[i] = true,
                    None => {
                        emit_units += 1;
                        out.push(DeltaRow { row: r, weight: -1, mask: m });
                    }
                }
            }
            for (skip, (m, r)) in canceled.iter().zip(&new_pairs) {
                if !skip {
                    emit_units += 1;
                    out.push(DeltaRow { row: r.clone(), weight: 1, mask: *m });
                }
            }
            group.emitted = new_pairs;
            group.classes.retain(|c| c.rows > 0);
            if group.classes.is_empty() {
                self.groups.remove_id(id);
            }
        }
        counter.charge(OpKind::AggEmit, weights.agg_emit, emit_units);
        self.groups.maybe_compact();
        Ok(out)
    }

    /// Stored state entries (mask classes + outstanding emitted pairs), for
    /// churn GC accounting.
    pub fn state_size(&self) -> usize {
        self.groups
            .live_ids()
            .iter()
            .filter_map(|&id| self.groups.get_by_id(id))
            .map(|g| g.classes.len() + g.emitted.len())
            .sum()
    }

    /// Query admission: add `q_new`'s bit wherever the witness `q_ref`'s bit
    /// is set — in mask classes (so future inputs fold into the accumulator
    /// `q_new` now shares) *and* in outstanding emitted pairs. Widening the
    /// emitted pairs is required for correctness, not just bookkeeping: the
    /// next flush of a touched group retracts pairs by their stored mask,
    /// and if `q_new` were missing there the retraction would not reach it
    /// while the fresh insert would — double-counting the group downstream.
    /// Classes stay disjoint because `q_new` is a fresh bit added only to
    /// (mutually disjoint) classes containing `q_ref`.
    pub fn widen_query(&mut self, q_ref: QueryId, q_new: QueryId) {
        for id in self.groups.live_ids() {
            let g = self.groups.get_by_id_mut(id).expect("live group");
            for c in &mut g.classes {
                if c.mask.contains(q_ref) {
                    c.mask.insert(q_new);
                }
            }
            for (m, _) in &mut g.emitted {
                if m.contains(q_ref) {
                    m.insert(q_new);
                }
            }
        }
    }

    /// Query removal: clear `q`'s bit from every class and emitted pair,
    /// dropping those that go empty and removing groups left with no
    /// classes. Two distinct classes can never collapse into one — class
    /// masks are disjoint, so equal leftovers would mean both were subsets
    /// of `{q}` and thus both went empty. Returns state entries freed.
    pub fn retire_query(&mut self, q: QueryId) -> usize {
        let mut reclaimed = 0usize;
        for id in self.groups.live_ids() {
            let g = self.groups.get_by_id_mut(id).expect("live group");
            for c in &mut g.classes {
                c.mask.remove(q);
            }
            let before = g.classes.len();
            g.classes.retain(|c| !c.mask.is_empty());
            reclaimed += before - g.classes.len();
            for (m, _) in &mut g.emitted {
                m.remove(q);
            }
            let before = g.emitted.len();
            g.emitted.retain(|(m, _)| !m.is_empty());
            reclaimed += before - g.emitted.len();
            if g.classes.is_empty() && g.emitted.is_empty() {
                self.groups.remove_id(id);
            }
        }
        self.groups.maybe_compact();
        reclaimed
    }

    /// State handoff for admission: the aggregate output `q_ref` has netted
    /// so far. The flush diff retracts every superseded pair, so the net
    /// output visible to a query is exactly its outstanding emitted pairs,
    /// each at weight +1, re-masked to `{q_new}`. Unconsolidated, in
    /// storage order — the caller consolidates.
    pub fn snapshot_emitted(&self, q_ref: QueryId, q_new: QueryId) -> Vec<DeltaRow> {
        let mut out = Vec::new();
        for id in self.groups.live_ids() {
            let g = self.groups.get_by_id(id).expect("live group");
            for (m, r) in &g.emitted {
                if m.contains(q_ref) {
                    out.push(DeltaRow { row: r.clone(), weight: 1, mask: QuerySet::single(q_new) });
                }
            }
        }
        out
    }
}

/// Partition refinement: after this, every class is either a subset of
/// `mask` or disjoint from it, and `mask` is fully covered by classes.
fn refine_classes(group: &mut GroupState, mask: QuerySet, spec: &AggSpec, agg_int: &[bool]) {
    let mut covered = QuerySet::EMPTY;
    let mut splits = Vec::new();
    for class in &mut group.classes {
        let inter = class.mask.intersect(mask);
        covered = covered.union(inter);
        if !inter.is_empty() && inter != class.mask {
            // Split off the intersecting part; the accumulators describe the
            // same underlying tuples for both halves, so they are cloned.
            let outside = class.mask.difference(mask);
            let split = ClassState { mask: inter, rows: class.rows, accums: class.accums.clone() };
            class.mask = outside;
            splits.push(split);
        }
    }
    group.classes.extend(splits);
    let leftover = mask.difference(covered);
    if !leftover.is_empty() {
        group.classes.push(ClassState {
            mask: leftover,
            rows: 0,
            accums: spec
                .funcs
                .iter()
                .zip(agg_int)
                .map(|(&f, &int)| Accumulator::new(f, int))
                .collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::QueryId;
    use ishare_storage::consolidate;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn dr(k: i64, v: i64, w: i64, m: &[u16]) -> DeltaRow {
        DeltaRow { row: Row::new(vec![Value::Int(k), Value::Int(v)]), weight: w, mask: qs(m) }
    }

    fn sum_spec() -> (AggSpec, Vec<bool>) {
        let group_by = vec![(Expr::col(0), "k".to_string())];
        let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")];
        (AggSpec::compile(&group_by, &aggs), vec![true])
    }

    fn run(st: &mut AggState, rows: Vec<DeltaRow>) -> DeltaBatch {
        let (spec, agg_int) = sum_spec();
        let c = WorkCounter::new();
        st.execute(DeltaBatch::from_rows(rows), &spec, &agg_int, &CostWeights::default(), &c)
            .unwrap()
    }

    #[test]
    fn first_execution_only_inserts() {
        let mut st = AggState::new();
        let out = run(&mut st, vec![dr(1, 10, 1, &[0]), dr(1, 5, 1, &[0]), dr(2, 7, 1, &[0])]);
        let c = consolidate(out.rows);
        assert_eq!(c.len(), 2);
        assert_eq!(c[&(Row::new(vec![Value::Int(1), Value::Int(15)]), qs(&[0]))], 1);
        assert_eq!(c[&(Row::new(vec![Value::Int(2), Value::Int(7)]), qs(&[0]))], 1);
    }

    #[test]
    fn updates_emit_retract_plus_insert() {
        let mut st = AggState::new();
        run(&mut st, vec![dr(1, 10, 1, &[0])]);
        let out = run(&mut st, vec![dr(1, 5, 1, &[0])]);
        // Delete amplification: old sum (10) retracted, new sum (15) inserted.
        assert_eq!(out.len(), 2);
        let c = consolidate(out.rows);
        assert_eq!(c[&(Row::new(vec![Value::Int(1), Value::Int(10)]), qs(&[0]))], -1);
        assert_eq!(c[&(Row::new(vec![Value::Int(1), Value::Int(15)]), qs(&[0]))], 1);
    }

    #[test]
    fn untouched_groups_stay_silent() {
        let mut st = AggState::new();
        run(&mut st, vec![dr(1, 10, 1, &[0]), dr(2, 20, 1, &[0])]);
        let out = run(&mut st, vec![dr(1, 1, 1, &[0])]);
        // Group 2 untouched — nothing emitted for it.
        assert!(out.rows.iter().all(|r| r.row.get(0) == &Value::Int(1)));
    }

    #[test]
    fn group_deletion_retracts_only() {
        let mut st = AggState::new();
        run(&mut st, vec![dr(1, 10, 1, &[0])]);
        let out = run(&mut st, vec![dr(1, 10, -1, &[0])]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].weight, -1);
        assert_eq!(st.group_count(), 0);
    }

    #[test]
    fn mask_classes_keep_queries_correct() {
        let mut st = AggState::new();
        // q0 sees both rows; q1 sees only the second (marking select upstream).
        let out = run(&mut st, vec![dr(1, 10, 1, &[0, 1]), dr(1, 5, 1, &[0])]);
        let c = consolidate(out.rows);
        // q0's sum is 15, q1's sum is 10: two disjoint output classes.
        assert_eq!(c.len(), 2);
        assert_eq!(c[&(Row::new(vec![Value::Int(1), Value::Int(15)]), qs(&[0]))], 1);
        assert_eq!(c[&(Row::new(vec![Value::Int(1), Value::Int(10)]), qs(&[1]))], 1);
    }

    #[test]
    fn shared_case_single_output_row() {
        let mut st = AggState::new();
        let out = run(&mut st, vec![dr(1, 10, 1, &[0, 1]), dr(1, 5, 1, &[0, 1])]);
        assert_eq!(out.len(), 1, "fully shared masks collapse to one class");
        assert_eq!(out.rows[0].mask, qs(&[0, 1]));
        assert_eq!(out.rows[0].row.get(1), &Value::Int(15));
    }

    #[test]
    fn over_retraction_detected() {
        let mut st = AggState::new();
        run(&mut st, vec![dr(1, 10, 1, &[0])]);
        let (spec, agg_int) = sum_spec();
        let c = WorkCounter::new();
        let res = st.execute(
            DeltaBatch::from_rows(vec![dr(1, 10, -2, &[0])]),
            &spec,
            &agg_int,
            &CostWeights::default(),
            &c,
        );
        assert!(matches!(res, Err(Error::InvalidDelta(_))));
    }

    #[test]
    fn max_rescan_on_extremum_delete() {
        let weights = CostWeights::default();
        let counter = WorkCounter::new();
        let mut acc = Accumulator::new(AggFunc::Max, true);
        for v in [1i64, 5, 3] {
            acc.update(&Value::Int(v), 1, &weights, &counter).unwrap();
        }
        assert_eq!(acc.value(), Value::Int(5));
        let before = counter.total().get();
        // Deleting a non-extremum is O(1): no rescan charge.
        acc.update(&Value::Int(1), -1, &weights, &counter).unwrap();
        assert_eq!(counter.total().get(), before);
        assert_eq!(acc.value(), Value::Int(5));
        // Deleting the max rescans the remaining multiset.
        acc.update(&Value::Int(5), -1, &weights, &counter).unwrap();
        assert_eq!(acc.value(), Value::Int(3));
        assert!(counter.total().get() > before, "rescan must be charged");
    }

    /// Pins the MIN/MAX delete contract end to end: deleting the extremum
    /// after 3 arrivals yields the runner-up AND charges exactly
    /// `minmax_rescan × 3` (all arrived values, paper Sec. 5.3) — as raw f64
    /// bits, so a batching or reordering regression cannot hide in epsilon.
    #[test]
    fn minmax_delete_rescan_work_pinned() {
        let weights = CostWeights::default();
        let counter = WorkCounter::new();
        let mut acc = Accumulator::new(AggFunc::Max, true);
        for v in [1i64, 5, 3] {
            acc.update(&Value::Int(v), 1, &weights, &counter).unwrap();
        }
        assert_eq!(counter.breakdown().get(OpKind::MinmaxRescan), 0.0);
        acc.update(&Value::Int(5), -1, &weights, &counter).unwrap();
        assert_eq!(acc.value(), Value::Int(3), "rescan must find the runner-up");
        let charged = counter.breakdown().get(OpKind::MinmaxRescan);
        let expected = weights.minmax_rescan * 3.0;
        assert_eq!(
            charged.to_bits(),
            expected.to_bits(),
            "rescan charge must be exactly minmax_rescan × arrived (= {expected}), got {charged}"
        );
        // A second extremum delete rescans against arrived = 3 still (the
        // counter is monotone over insertions, deletions don't shrink it).
        acc.update(&Value::Int(3), -1, &weights, &counter).unwrap();
        assert_eq!(acc.value(), Value::Int(1));
        let charged2 = counter.breakdown().get(OpKind::MinmaxRescan);
        assert_eq!(charged2.to_bits(), (weights.minmax_rescan * 6.0).to_bits());
    }

    #[test]
    fn accumulator_values() {
        let w = CostWeights::default();
        let c = WorkCounter::new();
        let mut sum_f = Accumulator::new(AggFunc::Sum, false);
        sum_f.update(&Value::Float(1.5), 2, &w, &c).unwrap();
        assert_eq!(sum_f.value(), Value::Float(3.0));
        let empty_sum = Accumulator::new(AggFunc::Sum, true);
        assert_eq!(empty_sum.value(), Value::Null);
        let mut avg = Accumulator::new(AggFunc::Avg, false);
        avg.update(&Value::Int(4), 1, &w, &c).unwrap();
        avg.update(&Value::Int(8), 1, &w, &c).unwrap();
        assert_eq!(avg.value(), Value::Float(6.0));
        let mut cnt = Accumulator::new(AggFunc::Count, true);
        cnt.update(&Value::Int(1), 1, &w, &c).unwrap();
        cnt.update(&Value::Null, 1, &w, &c).unwrap();
        assert_eq!(cnt.value(), Value::Int(1), "NULLs not counted");
        let mut mn = Accumulator::new(AggFunc::Min, true);
        mn.update(&Value::Int(3), 1, &w, &c).unwrap();
        mn.update(&Value::Int(1), 1, &w, &c).unwrap();
        assert_eq!(mn.value(), Value::Int(1));
    }

    #[test]
    fn global_aggregate_empty_group_key() {
        let mut st = AggState::new();
        let spec = AggSpec::compile(&[], &[AggExpr::new(AggFunc::Count, Expr::lit(1i64), "n")]);
        let c = WorkCounter::new();
        let out = st
            .execute(
                DeltaBatch::from_rows(vec![dr(1, 1, 1, &[0]), dr(2, 2, 1, &[0])]),
                &spec,
                &[true],
                &CostWeights::default(),
                &c,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].row.values()[..], [Value::Int(2)]);
    }

    #[test]
    fn widen_retire_snapshot_roundtrip() {
        let mut st = AggState::new();
        // Group 1 shared by q0+q1, group 2 private to q1.
        run(&mut st, vec![dr(1, 10, 1, &[0, 1]), dr(2, 7, 1, &[1])]);
        // Snapshot for q2 witnessed by q0: only group 1's emitted pair.
        let snap = st.snapshot_emitted(QueryId(0), QueryId(2));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].row, Row::new(vec![Value::Int(1), Value::Int(10)]));
        assert_eq!(snap[0].mask, qs(&[2]));

        // Widen, then an update to group 1 retracts the old pair for q2 as
        // well — no double counting.
        st.widen_query(QueryId(0), QueryId(2));
        let out = run(&mut st, vec![dr(1, 5, 1, &[0, 1, 2])]);
        let c = consolidate(out.rows);
        assert_eq!(c[&(Row::new(vec![Value::Int(1), Value::Int(10)]), qs(&[0, 1, 2]))], -1);
        assert_eq!(c[&(Row::new(vec![Value::Int(1), Value::Int(15)]), qs(&[0, 1, 2]))], 1);

        // Retire q1: group 2 (private) is freed entirely.
        let before = st.group_count();
        let freed = st.retire_query(QueryId(1));
        assert!(freed >= 2, "group 2's class + emitted pair are q1-private");
        assert_eq!(st.group_count(), before - 1);
        let out = run(&mut st, vec![dr(2, 1, 1, &[0])]);
        let c = consolidate(out.rows);
        // Fresh group: no stale retraction from the retired state.
        assert_eq!(c.len(), 1);
        assert_eq!(c[&(Row::new(vec![Value::Int(2), Value::Int(1)]), qs(&[0]))], 1);
    }

    /// Charged work must be bit-identical to the reference datapath even
    /// though the kernel batches its `AggUpdate`/`AggEmit` charges.
    #[test]
    fn charges_match_reference_bitwise() {
        use crate::reference::RefAggState;
        let rows = vec![
            dr(1, 10, 1, &[0, 1]),
            dr(2, 7, 1, &[0]),
            dr(1, 5, 1, &[0]),
            dr(1, 10, -1, &[0, 1]),
            dr(3, 2, 1, &[1]),
        ];
        let group_by = vec![(Expr::col(0), "k".to_string())];
        let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")];
        let w = CostWeights::default();

        let kc = WorkCounter::new();
        let mut kst = AggState::new();
        let spec = AggSpec::compile(&group_by, &aggs);
        let kout =
            kst.execute(DeltaBatch::from_rows(rows.clone()), &spec, &[true], &w, &kc).unwrap();

        let rc = WorkCounter::new();
        let mut rst = RefAggState::new();
        let rout =
            rst.execute(DeltaBatch::from_rows(rows), &group_by, &aggs, &[true], &w, &rc).unwrap();

        assert_eq!(kout.rows, rout.rows, "emission (order included) must match");
        assert_eq!(kc.total().get().to_bits(), rc.total().get().to_bits());
        for kind in [OpKind::AggUpdate, OpKind::AggEmit, OpKind::MinmaxRescan] {
            assert_eq!(
                kc.breakdown().get(kind).to_bits(),
                rc.breakdown().get(kind).to_bits(),
                "charge mismatch for {kind:?}"
            );
        }
    }
}
