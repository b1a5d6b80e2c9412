//! The pre-kernel reference datapath, retained verbatim as a differential
//! oracle.
//!
//! Everything in this module is the engine's original interpreter-shaped
//! implementation: recursive [`eval`] per row, `Vec<Value>` keys through
//! SipHash maps, join state in `BTreeMap<(Row, QuerySet), i64>`, and one
//! `WorkCounter::charge` per tuple. The datapath kernels (`join`,
//! `aggregate`, `operators`) replace all of it on the hot path; this copy
//! exists so the differential lattice (`tests/lattice.rs`) can run the
//! same workloads through both datapaths and assert that charged work
//! units, per-query `final_work`, and `QueryResult`s are bit-identical —
//! the invariant that makes the kernel rewrite safe.
//!
//! Selected via [`crate::executor::ExecMode::Reference`]; nothing else
//! should call into this module.

use ishare_common::{CostWeights, Error, OpKind, QuerySet, Result, Value, WorkCounter};
use ishare_expr::eval::{eval, eval_predicate};
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc, SelectBranch};
use ishare_storage::{DeltaBatch, DeltaRow, Row};
use std::collections::{BTreeMap, HashMap, HashSet};

type Key = Vec<Value>;
// The inner map is ordered so that probe emission order is a pure function
// of the stored state, not of hasher seeds.
type SideMap = HashMap<Key, BTreeMap<(Row, QuerySet), i64>>;

/// Reference symmetric hash join state (legacy datapath).
#[derive(Debug, Default)]
pub struct RefJoinState {
    left: SideMap,
    right: SideMap,
    left_entries: usize,
    right_entries: usize,
}

impl RefJoinState {
    /// Fresh empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored (row, mask) entries on the left side.
    pub fn left_size(&self) -> usize {
        self.left_entries
    }

    /// Stored (row, mask) entries on the right side.
    pub fn right_size(&self) -> usize {
        self.right_entries
    }

    /// Run one incremental execution over the two input deltas.
    pub fn execute(
        &mut self,
        left_delta: DeltaBatch,
        right_delta: DeltaBatch,
        keys: &[(Expr, Expr)],
        weights: &CostWeights,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        let mut out = DeltaBatch::new();

        // ΔL ⋈ R_old
        let left_keyed = key_rows(&left_delta, keys.iter().map(|(l, _)| l))?;
        for (key, dr) in &left_keyed {
            counter.charge(OpKind::JoinProbe, weights.join_probe, 1);
            if let Some(matches) = self.right.get(key) {
                for ((rrow, rmask), rw) in matches {
                    emit(&mut out, dr, rrow, *rmask, *rw, false, weights, counter);
                }
            }
        }
        // Insert ΔL.
        for (key, dr) in &left_keyed {
            counter.charge(OpKind::JoinInsert, weights.join_insert, 1);
            insert_side(&mut self.left, &mut self.left_entries, key, dr)?;
        }
        // ΔR ⋈ L_new (covers L_old⋈ΔR and ΔL⋈ΔR).
        let right_keyed = key_rows(&right_delta, keys.iter().map(|(_, r)| r))?;
        for (key, dr) in &right_keyed {
            counter.charge(OpKind::JoinProbe, weights.join_probe, 1);
            if let Some(matches) = self.left.get(key) {
                for ((lrow, lmask), lw) in matches {
                    emit(&mut out, dr, lrow, *lmask, *lw, true, weights, counter);
                }
            }
        }
        for (key, dr) in &right_keyed {
            counter.charge(OpKind::JoinInsert, weights.join_insert, 1);
            insert_side(&mut self.right, &mut self.right_entries, key, dr)?;
        }
        Ok(out)
    }
}

fn key_rows<'a>(
    batch: &DeltaBatch,
    key_exprs: impl Iterator<Item = &'a Expr> + Clone,
) -> Result<Vec<(Key, DeltaRow)>> {
    let mut out = Vec::with_capacity(batch.len());
    'rows: for r in &batch.rows {
        let mut key = Vec::new();
        for e in key_exprs.clone() {
            let v = eval(e, &r.row)?;
            if v.is_null() {
                continue 'rows;
            }
            key.push(v);
        }
        out.push((key, r.clone()));
    }
    Ok(out)
}

fn insert_side(side: &mut SideMap, entries: &mut usize, key: &Key, dr: &DeltaRow) -> Result<()> {
    let slot = side.entry(key.clone()).or_default();
    let e = slot.entry((dr.row.clone(), dr.mask)).or_insert(0);
    let was_zero = *e == 0;
    *e += dr.weight;
    if *e == 0 {
        slot.remove(&(dr.row.clone(), dr.mask));
        *entries -= 1;
        if slot.is_empty() {
            side.remove(key);
        }
    } else if was_zero {
        *entries += 1;
    }
    if let Some(slot) = side.get(key) {
        if let Some(w) = slot.get(&(dr.row.clone(), dr.mask)) {
            if *w < 0 {
                return Err(Error::InvalidDelta(format!(
                    "join state went negative ({w}) for row {}",
                    dr.row
                )));
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn emit(
    out: &mut DeltaBatch,
    delta: &DeltaRow,
    stored_row: &Row,
    stored_mask: QuerySet,
    stored_weight: i64,
    delta_is_right: bool,
    weights: &CostWeights,
    counter: &WorkCounter,
) {
    let mask = delta.mask.intersect(stored_mask);
    if mask.is_empty() || stored_weight == 0 {
        return;
    }
    counter.charge(OpKind::JoinEmit, weights.join_emit, 1);
    let row =
        if delta_is_right { stored_row.concat(&delta.row) } else { delta.row.concat(stored_row) };
    out.push(DeltaRow { row, weight: delta.weight * stored_weight, mask });
}

/// Reference accumulator (legacy datapath): MIN/MAX multisets in SipHash
/// maps.
#[derive(Debug, Clone)]
enum RefAccumulator {
    Sum { int: bool, sum_i: i64, sum_f: f64, nonnull: i64 },
    Count { count: i64 },
    Avg { sum: f64, count: i64 },
    MinMax { min: bool, values: HashMap<Value, i64>, cached: Option<Value>, arrived: i64 },
}

impl RefAccumulator {
    fn new(func: AggFunc, int: bool) -> RefAccumulator {
        match func {
            AggFunc::Sum => RefAccumulator::Sum { int, sum_i: 0, sum_f: 0.0, nonnull: 0 },
            AggFunc::Count => RefAccumulator::Count { count: 0 },
            AggFunc::Avg => RefAccumulator::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => RefAccumulator::MinMax {
                min: true,
                values: HashMap::new(),
                cached: None,
                arrived: 0,
            },
            AggFunc::Max => RefAccumulator::MinMax {
                min: false,
                values: HashMap::new(),
                cached: None,
                arrived: 0,
            },
        }
    }

    fn update(
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
            RefAccumulator::Sum { int, sum_i, sum_f, nonnull } => {
                if *int {
                    let x = v.as_i64().ok_or_else(|| type_err("sum", v))?;
                    *sum_i += x * w;
                } else {
                    let x = v.as_f64().ok_or_else(|| type_err("sum", v))?;
                    *sum_f += x * w as f64;
                }
                *nonnull += w;
            }
            RefAccumulator::Count { count } => *count += w,
            RefAccumulator::Avg { sum, count } => {
                let x = v.as_f64().ok_or_else(|| type_err("avg", v))?;
                *sum += x * w as f64;
                *count += w;
            }
            RefAccumulator::MinMax { min, values, cached, arrived } => {
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

    fn value(&self) -> Value {
        match self {
            RefAccumulator::Sum { int, sum_i, sum_f, nonnull } => {
                if *nonnull == 0 {
                    Value::Null
                } else if *int {
                    Value::Int(*sum_i)
                } else {
                    Value::Float(*sum_f)
                }
            }
            RefAccumulator::Count { count } => Value::Int(*count),
            RefAccumulator::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *count as f64)
                }
            }
            RefAccumulator::MinMax { cached, .. } => cached.clone().unwrap_or(Value::Null),
        }
    }
}

fn type_err(what: &str, v: &Value) -> Error {
    Error::TypeMismatch(format!("{what} over non-numeric value {v}"))
}

#[derive(Debug, Clone)]
struct ClassState {
    mask: QuerySet,
    rows: i64,
    accums: Vec<RefAccumulator>,
}

#[derive(Debug, Default)]
struct GroupState {
    classes: Vec<ClassState>,
    emitted: Vec<(QuerySet, Row)>,
}

/// Reference aggregate state (legacy datapath).
#[derive(Debug, Default)]
pub struct RefAggState {
    groups: HashMap<Vec<Value>, GroupState>,
}

impl RefAggState {
    /// Fresh empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Run one incremental execution (see the kernel `AggState` for the
    /// semantics; this is the original tuple-at-a-time implementation).
    pub fn execute(
        &mut self,
        input: DeltaBatch,
        group_by: &[(Expr, String)],
        aggs: &[AggExpr],
        agg_int: &[bool],
        weights: &CostWeights,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        let mut touched: Vec<Vec<Value>> = Vec::new();
        let mut touched_set: HashSet<Vec<Value>> = HashSet::new();
        for dr in &input.rows {
            counter.charge(OpKind::AggUpdate, weights.agg_update, aggs.len().max(1));
            let mut key = Vec::with_capacity(group_by.len());
            for (e, _) in group_by {
                key.push(eval(e, &dr.row)?);
            }
            let group = self.groups.entry(key.clone()).or_default();
            if touched_set.insert(key.clone()) {
                touched.push(key);
            }
            refine_classes(group, dr.mask, aggs, agg_int);
            for class in &mut group.classes {
                if class.mask.is_subset_of(dr.mask) {
                    class.rows += dr.weight;
                    for (acc, agg) in class.accums.iter_mut().zip(aggs) {
                        let v = eval(&agg.arg, &dr.row)?;
                        acc.update(&v, dr.weight, weights, counter)?;
                    }
                }
            }
        }

        let mut out = DeltaBatch::new();
        for key in touched {
            let group = self.groups.get_mut(&key).expect("touched group exists");
            for class in &group.classes {
                if class.rows < 0 {
                    return Err(Error::InvalidDelta(format!(
                        "group {key:?} class {} retracted below zero",
                        class.mask
                    )));
                }
            }
            let new_pairs: Vec<(QuerySet, Row)> = group
                .classes
                .iter()
                .filter(|c| c.rows > 0)
                .map(|c| {
                    let mut vals = key.clone();
                    vals.extend(c.accums.iter().map(|a| a.value()));
                    (c.mask, Row::new(vals))
                })
                .collect();

            let mut diff: Vec<((QuerySet, Row), i64)> = Vec::new();
            let mut bump =
                |pair: (QuerySet, Row), delta: i64| match diff.iter_mut().find(|(p, _)| *p == pair)
                {
                    Some((_, w)) => *w += delta,
                    None => diff.push((pair, delta)),
                };
            for (m, r) in &group.emitted {
                bump((*m, r.clone()), -1);
            }
            for (m, r) in &new_pairs {
                bump((*m, r.clone()), 1);
            }
            for ((mask, row), w) in diff {
                if w != 0 {
                    counter.charge(OpKind::AggEmit, weights.agg_emit, w.unsigned_abs() as usize);
                    out.push(DeltaRow { row, weight: w, mask });
                }
            }
            group.emitted = new_pairs;
            group.classes.retain(|c| c.rows > 0);
            if group.classes.is_empty() {
                self.groups.remove(&key);
            }
        }
        Ok(out)
    }
}

fn refine_classes(group: &mut GroupState, mask: QuerySet, aggs: &[AggExpr], agg_int: &[bool]) {
    let mut covered = QuerySet::EMPTY;
    let mut splits = Vec::new();
    for class in &mut group.classes {
        let inter = class.mask.intersect(mask);
        covered = covered.union(inter);
        if !inter.is_empty() && inter != class.mask {
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
            accums: aggs
                .iter()
                .zip(agg_int)
                .map(|(a, &int)| RefAccumulator::new(a.func, int))
                .collect(),
        });
    }
}

/// Reference marking select (legacy per-tuple charging and recursive eval).
pub fn ref_apply_select(
    batch: DeltaBatch,
    branches: &[SelectBranch],
    weights: &CostWeights,
    counter: &WorkCounter,
) -> Result<DeltaBatch> {
    let mut out = DeltaBatch::new();
    for r in batch.rows {
        let mut mask = QuerySet::EMPTY;
        for b in branches {
            let bits = b.queries.intersect(r.mask);
            if bits.is_empty() {
                continue;
            }
            counter.charge(OpKind::Filter, weights.filter, 1);
            if b.predicate.is_true_lit() || eval_predicate(&b.predicate, &r.row)? {
                mask = mask.union(bits);
            }
        }
        if !mask.is_empty() {
            out.push(DeltaRow { row: r.row, weight: r.weight, mask });
        }
    }
    Ok(out)
}

/// Reference projection (legacy per-tuple charging and recursive eval).
pub fn ref_apply_project(
    batch: DeltaBatch,
    exprs: &[(Expr, String)],
    weights: &CostWeights,
    counter: &WorkCounter,
) -> Result<DeltaBatch> {
    let mut out = DeltaBatch::new();
    for r in batch.rows {
        counter.charge(OpKind::Project, weights.project, exprs.len());
        let mut vals = Vec::with_capacity(exprs.len());
        for (e, _) in exprs {
            vals.push(eval(e, &r.row)?);
        }
        out.push(DeltaRow { row: Row::new(vals), weight: r.weight, mask: r.mask });
    }
    Ok(out)
}
