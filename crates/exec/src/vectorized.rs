//! The vectorized (batch-at-a-time) datapath: columnar kernels over
//! [`ColumnarBatch`]es and selection vectors — `ExecMode::Vectorized`.
//!
//! The row kernels ([`crate::operators`]) process one [`DeltaRow`] at a
//! time: every tuple access pays an `Arc<[Value]>` indirection, an enum-tag
//! branch per column, and per-row compiled-expression dispatch. This module
//! instead carries a [`VecDelta`] between operators — a [`ColumnarBatch`]
//! (one typed `Vec` per column plus parallel weight/mask vectors) narrowed
//! by a *selection vector* of row indices — so scan→select→project chains
//! run as tight loops over primitive slices and filters never materialize
//! survivors.
//!
//! **Bit-identity contract.** Emission order, weights, masks, and every
//! per-subplan × per-`OpKind` work-charge cell are byte-identical to the
//! row-kernel datapath (and hence to the reference): the selection vector is
//! kept ascending, so selected rows keep arrival order; `Filter` is charged
//! per evaluated `(row, branch)` pair exactly as [`crate::operators::apply_select`]
//! counts them (branch-major iteration visits the same pair set); `Scan` and
//! `Project` charges use the same unit counts; and a batch that cannot be
//! laid out columnar (rows disagreeing on arity) falls back to the row
//! kernels wholesale via [`VecDelta::Rows`]. Error *ordering* is the one
//! documented divergence: branch-major selects and column-major projections
//! may surface a different (equally valid) error first; all bit-identity
//! gates cover non-error runs only, same as the partition exchange.
//!
//! Stateful operators (join, aggregate) keep their row-kernel state layout —
//! the vectorized mode shares `JoinState`/`AggState` (and their partitioned
//! wrappers) with `ExecMode::Kernels`, so churn surgery, state bundles, and
//! snapshots work unchanged. Their columnar entry points live with the
//! operators: [`crate::join::JoinState::execute_columnar`] and
//! [`crate::aggregate::AggState::execute_columnar`].

use crate::operators::{apply_project, apply_select};
use ishare_common::{CostWeights, OpKind, QuerySet, Result, WorkCounter};
use ishare_expr::compile::{CompiledPredicate, CompiledProjection};
use ishare_plan::SelectBranch;
use ishare_storage::{ColumnarBatch, DeltaBatch, DeltaRow};

/// A delta flowing between vectorized operators: columnar when the batch is
/// rectangular (the overwhelmingly common case), rows otherwise.
#[derive(Debug)]
pub enum VecDelta {
    /// Columnar payload: the batch, an ascending selection vector of live
    /// row indices, and the (possibly narrowed) mask of each *selected* row
    /// (parallel to `sel`, overriding `batch.masks`). Filters rewrite
    /// `sel`/`masks`; the batch itself is immutable once built.
    Cols {
        /// The SoA batch.
        batch: ColumnarBatch,
        /// Ascending indices of the selected rows.
        sel: Vec<u32>,
        /// Current mask of each selected row (parallel to `sel`).
        masks: Vec<QuerySet>,
    },
    /// Row fallback (ragged batches, and the output of row-path stateful
    /// operators). Downstream vectorized operators process this arm with
    /// the row kernels — bit-identical by construction.
    Rows(DeltaBatch),
}

impl VecDelta {
    /// Number of live (selected) rows.
    pub fn len(&self) -> usize {
        match self {
            VecDelta::Cols { sel, .. } => sel.len(),
            VecDelta::Rows(b) => b.len(),
        }
    }

    /// `true` iff no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the live rows as a [`DeltaBatch`] in selection order —
    /// exactly the batch the row datapath would be carrying at this point.
    pub fn into_rows(self) -> DeltaBatch {
        match self {
            VecDelta::Cols { batch, sel, masks } => batch.to_rows_selected(&sel, &masks),
            VecDelta::Rows(b) => b,
        }
    }

    /// Borrow as a [`ColsView`] when columnar.
    pub fn as_cols(&self) -> Option<ColsView<'_>> {
        match self {
            VecDelta::Cols { batch, sel, masks } => Some(ColsView { batch, sel, masks }),
            VecDelta::Rows(_) => None,
        }
    }
}

/// A borrowed columnar view (batch + selection + mask overrides) — what the
/// stateful operators' columnar entry points consume.
#[derive(Debug, Clone, Copy)]
pub struct ColsView<'a> {
    /// The SoA batch.
    pub batch: &'a ColumnarBatch,
    /// Ascending indices of the selected rows.
    pub sel: &'a [u32],
    /// Current mask of each selected row (parallel to `sel`).
    pub masks: &'a [QuerySet],
}

impl ColsView<'_> {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// `true` iff no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Materialize the selected rows (selection order, masks overridden).
    pub fn to_rows(&self) -> DeltaBatch {
        self.batch.to_rows_selected(self.sel, self.masks)
    }
}

/// Per-subplan vectorized batch statistics, feeding the `batch.fill` /
/// `batch.selectivity` obs gauges: how full the columnar batches entering
/// the subplan are, and what fraction of evaluated selection candidates
/// survive its marking selects. Makes the skew between tiny churn-era
/// batches and bulk fronts visible in the dashboard.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchStats {
    /// Input batches seen at the subplan's leaves (present entries only).
    pub batches: u64,
    /// Delta rows across those batches, pre-narrowing.
    pub rows: u64,
    /// Selected rows entering vectorized selects.
    pub scanned: u64,
    /// Selected rows surviving vectorized selects.
    pub kept: u64,
}

impl BatchStats {
    /// Mean input batch length (`batch.fill`); 0 when no batches were seen.
    pub fn mean_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.rows as f64 / self.batches as f64
        }
    }

    /// Fraction of select candidates surviving (`batch.selectivity`); 1.0
    /// when no select ran (nothing was filtered away).
    pub fn selectivity(&self) -> f64 {
        if self.scanned == 0 {
            1.0
        } else {
            self.kept as f64 / self.scanned as f64
        }
    }

    /// Fold another stats record in (parallel driver aggregation).
    pub fn merge(&mut self, other: &BatchStats) {
        self.batches += other.batches;
        self.rows += other.rows;
        self.scanned += other.scanned;
        self.kept += other.kept;
    }
}

/// Vectorized input narrowing — the σ_filter at a subplan boundary. Charges
/// `Scan × batch.len()` exactly like [`crate::operators::narrow_input`],
/// then builds the columnar batch *once* (it is reused by every operator
/// above) and narrows it to `queries` by rewriting the selection vector.
/// Ragged batches fall back to a row-narrowed [`VecDelta::Rows`].
///
/// `needed` is the late-materialization column set: only these columns are
/// converted to typed vectors (the executor computes the set by walking the
/// ops above this input — predicate fast-path columns, bare projection
/// outputs, join key and aggregate group/arg columns). Everything else stays
/// [`ishare_storage::Column::Pruned`]; whole-row expression programs and row
/// materialization go through the retained backing rows, so pruning never
/// changes results — only the conversion cost, which for wide inputs is the
/// bulk of the vectorized datapath's overhead.
pub fn narrow_columnar(
    batch: &DeltaBatch,
    queries: QuerySet,
    needed: &[usize],
    weights: &CostWeights,
    counter: &WorkCounter,
) -> VecDelta {
    counter.charge(OpKind::Scan, weights.scan, batch.len());
    match ColumnarBatch::from_rows_pruned(batch, needed) {
        Some(cb) => {
            let mut sel = Vec::with_capacity(cb.len());
            let mut masks = Vec::with_capacity(cb.len());
            for (i, m) in cb.masks.iter().enumerate() {
                let mm = m.intersect(queries);
                if !mm.is_empty() {
                    sel.push(i as u32);
                    masks.push(mm);
                }
            }
            VecDelta::Cols { batch: cb, sel, masks }
        }
        None => VecDelta::Rows(
            batch
                .rows
                .iter()
                .filter_map(|r| {
                    let mask = r.mask.intersect(queries);
                    if mask.is_empty() {
                        None
                    } else {
                        Some(DeltaRow { row: r.row.clone(), weight: r.weight, mask })
                    }
                })
                .collect(),
        ),
    }
}

/// Vectorized shared marking select (σ*). Branch-major: for each branch, the
/// applicable rows (those carrying the branch's query bits) are gathered
/// into a sub-selection, the predicate runs over it as one
/// [`CompiledPredicate::eval_batch`] call, and matches fold the branch's
/// bits into the row's output mask. Rows whose output mask ends up empty are
/// dropped from the selection — never materialized.
///
/// `Filter` is charged per evaluated `(row, branch)` pair — the same pair
/// set, and therefore the same batched charge, as the row-major
/// [`apply_select`].
pub fn select_columnar(
    delta: VecDelta,
    branches: &[SelectBranch],
    compiled: &[CompiledPredicate],
    weights: &CostWeights,
    counter: &WorkCounter,
) -> Result<VecDelta> {
    let (batch, sel, masks) = match delta {
        VecDelta::Rows(b) => {
            return apply_select(b, branches, compiled, weights, counter).map(VecDelta::Rows)
        }
        VecDelta::Cols { batch, sel, masks } => (batch, sel, masks),
    };
    debug_assert_eq!(branches.len(), compiled.len());
    let mut evals = 0usize;
    let mut new_masks: Vec<QuerySet> = vec![QuerySet::EMPTY; sel.len()];
    let mut app_pos: Vec<u32> = Vec::new(); // positions into `sel`
    let mut app_rows: Vec<u32> = Vec::new(); // batch row indices
    let mut matched: Vec<u32> = Vec::new();
    for (b, p) in branches.iter().zip(compiled) {
        app_pos.clear();
        app_rows.clear();
        matched.clear();
        for (k, m) in masks.iter().enumerate() {
            if !b.queries.intersect(*m).is_empty() {
                app_pos.push(k as u32);
                app_rows.push(sel[k]);
            }
        }
        if app_rows.is_empty() {
            continue;
        }
        evals += app_rows.len();
        p.eval_batch(&batch, &app_rows, &mut matched)?;
        // `matched` is an ascending subset of `app_rows`; one merge walk
        // recovers each match's position.
        let mut next = 0usize;
        for (&pos, &row) in app_pos.iter().zip(&app_rows) {
            if next < matched.len() && matched[next] == row {
                let k = pos as usize;
                new_masks[k] = new_masks[k].union(b.queries.intersect(masks[k]));
                next += 1;
            }
        }
    }
    counter.charge(OpKind::Filter, weights.filter, evals);
    let mut out_sel = Vec::with_capacity(sel.len());
    let mut out_masks = Vec::with_capacity(sel.len());
    for (k, m) in new_masks.iter().enumerate() {
        if !m.is_empty() {
            out_sel.push(sel[k]);
            out_masks.push(*m);
        }
    }
    Ok(VecDelta::Cols { batch, sel: out_sel, masks: out_masks })
}

/// Vectorized merged projection. Identity projections pass the batch (and
/// its selection) through untouched; everything else computes the output
/// columns with [`CompiledProjection::project_batch`] — bare-column outputs
/// become gathers, computed outputs evaluate over one scratch row per input
/// row — and the result is a fresh compact batch with an identity selection.
/// `Project` is charged `arity × live rows` upfront, exactly like
/// [`apply_project`].
pub fn project_columnar(
    delta: VecDelta,
    proj: &CompiledProjection,
    weights: &CostWeights,
    counter: &WorkCounter,
) -> Result<VecDelta> {
    let (batch, sel, masks) = match delta {
        VecDelta::Rows(b) => return apply_project(b, proj, weights, counter).map(VecDelta::Rows),
        VecDelta::Cols { batch, sel, masks } => (batch, sel, masks),
    };
    counter.charge(OpKind::Project, weights.project, proj.arity() * sel.len());
    if proj.is_identity_for(batch.arity()) {
        return Ok(VecDelta::Cols { batch, sel, masks });
    }
    let columns = proj.project_batch(&batch, &sel)?;
    let out_weights: Vec<i64> = sel.iter().map(|&i| batch.weights[i as usize]).collect();
    let n = sel.len();
    let out = ColumnarBatch::from_parts(columns, out_weights, masks.clone());
    Ok(VecDelta::Cols { batch: out, sel: (0..n as u32).collect(), masks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::narrow_input;
    use ishare_common::{QueryId, Value};
    use ishare_expr::Expr;
    use ishare_storage::Row;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn batch(rows: &[(i64, i64, i64, &[u16])]) -> DeltaBatch {
        rows.iter()
            .map(|&(a, b, w, m)| DeltaRow {
                row: Row::new(vec![Value::Int(a), Value::Int(b)]),
                weight: w,
                mask: qs(m),
            })
            .collect()
    }

    fn branches() -> Vec<SelectBranch> {
        vec![
            SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
            SelectBranch { queries: qs(&[1]), predicate: Expr::col(1).gt(Expr::lit(5i64)) },
        ]
    }

    fn compile(branches: &[SelectBranch]) -> Vec<CompiledPredicate> {
        branches.iter().map(|b| CompiledPredicate::compile(&b.predicate)).collect()
    }

    /// The full narrow→select→project chain must materialize to exactly what
    /// the row kernels produce, with bit-identical charges.
    #[test]
    fn chain_matches_row_kernels_bitwise() {
        let w = CostWeights::default();
        let b = batch(&[
            (1, 9, 1, &[0, 1]),
            (2, 3, 1, &[0, 1]),
            (3, 8, -1, &[1]),
            (4, 2, 1, &[1]),
            (5, 7, 2, &[2]), // narrowed away (subplan serves {0,1})
        ]);
        let br = branches();
        let preds = compile(&br);
        let proj = CompiledProjection::compile(&[Expr::col(1), Expr::col(0).add(Expr::lit(1i64))]);

        let rc = WorkCounter::new();
        let row_out = apply_project(
            apply_select(narrow_input(b.clone(), qs(&[0, 1]), &w, &rc), &br, &preds, &w, &rc)
                .unwrap(),
            &proj,
            &w,
            &rc,
        )
        .unwrap();

        // Late materialization: the select's fast path reads col 1 and the
        // projection's bare output reads col 1 (its computed output runs
        // over backing rows) — col 0 is never converted.
        let vc = WorkCounter::new();
        let narrowed = narrow_columnar(&b, qs(&[0, 1]), &[1], &w, &vc);
        match &narrowed {
            VecDelta::Cols { batch, .. } => {
                assert!(matches!(batch.columns[0], ishare_storage::Column::Pruned { .. }));
                assert!(matches!(batch.columns[1], ishare_storage::Column::Int(_)));
            }
            VecDelta::Rows(_) => panic!("expected columnar"),
        }
        let vec_out = project_columnar(
            select_columnar(narrowed, &br, &preds, &w, &vc).unwrap(),
            &proj,
            &w,
            &vc,
        )
        .unwrap()
        .into_rows();

        assert_eq!(vec_out.rows, row_out.rows, "rows, order, weights, masks must all match");
        assert_eq!(vc.total().get().to_bits(), rc.total().get().to_bits());
        for kind in ishare_common::OpKind::ALL {
            assert_eq!(
                vc.breakdown().get(kind).to_bits(),
                rc.breakdown().get(kind).to_bits(),
                "charge mismatch for {kind:?}"
            );
        }
    }

    #[test]
    fn ragged_batches_fall_back_to_rows() {
        let w = CostWeights::default();
        let c = WorkCounter::new();
        let ragged = DeltaBatch::from_rows(vec![
            DeltaRow::insert(Row::new(vec![Value::Int(1)]), qs(&[0])),
            DeltaRow::insert(Row::new(vec![Value::Int(1), Value::Int(2)]), qs(&[0])),
        ]);
        let v = narrow_columnar(&ragged, qs(&[0]), &[0], &w, &c);
        assert!(matches!(v, VecDelta::Rows(_)));
        assert_eq!(v.len(), 2);
        // The fallback arm still runs the (row) select/project kernels.
        let br = vec![SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() }];
        let out = select_columnar(v, &br, &compile(&br), &w, &c).unwrap();
        assert!(matches!(out, VecDelta::Rows(_)));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn identity_projection_keeps_selection_lazy() {
        let w = CostWeights::default();
        let c = WorkCounter::new();
        let b = batch(&[(1, 9, 1, &[0]), (2, 3, 1, &[0])]);
        let ident = CompiledProjection::compile(&[Expr::col(0), Expr::col(1)]);
        let v = narrow_columnar(&b, qs(&[0]), &[0, 1], &w, &c);
        let out = project_columnar(v, &ident, &w, &c).unwrap();
        match &out {
            VecDelta::Cols { batch, sel, .. } => {
                assert_eq!(batch.len(), 2, "identity must not rebuild the batch");
                assert_eq!(sel.as_slice(), &[0, 1]);
            }
            VecDelta::Rows(_) => panic!("expected columnar"),
        }
    }

    #[test]
    fn batch_stats_gauges() {
        let mut s = BatchStats::default();
        assert_eq!(s.mean_fill(), 0.0);
        assert_eq!(s.selectivity(), 1.0);
        s.batches = 2;
        s.rows = 10;
        s.scanned = 8;
        s.kept = 2;
        assert_eq!(s.mean_fill(), 5.0);
        assert_eq!(s.selectivity(), 0.25);
        let mut t = BatchStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.batches, 4);
        assert_eq!(t.kept, 4);
    }
}
