//! Columnar (SoA) delta batches and selection vectors.
//!
//! The row-at-a-time datapath carries [`DeltaBatch`]es of `Arc<[Value]>`
//! rows: every tuple access pays an `Arc` indirection and an enum-tag branch
//! per column. The vectorized datapath (`ExecMode::Vectorized`) instead
//! carries a [`ColumnarBatch`] — one typed `Vec` per column plus parallel
//! `weights` and `masks` vectors — so kernels loop over primitive slices,
//! and filters narrow a batch by rewriting a *selection vector* of row
//! indices instead of materializing survivors.
//!
//! Losslessness contract: `to_rows(from_rows(b)) == b` for every
//! uniform-arity batch, including float bit patterns. Floats are therefore
//! stored as **raw** `f64::to_bits` words (the engine's normalised key
//! encoding, [`ishare_common::norm_f64_bits`], collapses `-0.0` and NaN
//! payloads — key *encoding* applies that normalisation on top of the stored
//! raw bits; storage must not). Strings are stored as per-column dictionary
//! ids over `Arc<str>` (cloning an `Arc` on materialization, never the
//! bytes). A column holding NULLs or mixed value types falls back to
//! [`Column::Mixed`] — correct, just not vectorizable.

use crate::row::{DeltaBatch, DeltaRow, Row};
use ishare_common::{QuerySet, Value};
use std::sync::Arc;

/// One column of a [`ColumnarBatch`] in SoA layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// `Value::Int` column.
    Int(Vec<i64>),
    /// `Value::Float` column as raw `f64::to_bits` words (lossless — see
    /// the module docs on why these are *not* normalised bits).
    Float(Vec<u64>),
    /// `Value::Bool` column.
    Bool(Vec<bool>),
    /// `Value::Date` column (days since epoch).
    Date(Vec<i32>),
    /// `Value::Str` column: per-column dictionary ids. Equal ids are equal
    /// strings; distinct ids may still be equal strings across batches (the
    /// dictionary is per batch, not global).
    Str {
        /// Dictionary index per row.
        ids: Vec<u32>,
        /// The dictionary, in first-seen order.
        dict: Vec<Arc<str>>,
    },
    /// Fallback for columns containing NULLs or mixed value types.
    Mixed(Vec<Value>),
    /// A column left unconverted by late materialization
    /// ([`ColumnarBatch::from_rows_pruned`]): the caller proved no kernel
    /// reads it, and row materialization goes through the batch's backing
    /// rows. Reading a cell of a pruned column panics — loudly surfacing a
    /// wrong needed-column analysis rather than silently returning garbage.
    Pruned {
        /// Row count (kept so batch-shape invariants still hold).
        len: usize,
    },
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Date(v) => v.len(),
            Column::Str { ids, .. } => ids.len(),
            Column::Mixed(v) => v.len(),
            Column::Pruned { len } => *len,
        }
    }

    /// `true` iff no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i`, materialized (strings clone the `Arc`, never
    /// the bytes).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(f64::from_bits(v[i])),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Date(v) => Value::Date(v[i]),
            Column::Str { ids, dict } => Value::Str(dict[ids[i] as usize].clone()),
            Column::Mixed(v) => v[i].clone(),
            Column::Pruned { .. } => panic!("read of a pruned column (bad needed-column set)"),
        }
    }

    /// `true` iff the value at row `i` is NULL (only possible in `Mixed`).
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        match self {
            Column::Mixed(v) => v[i].is_null(),
            Column::Pruned { .. } => panic!("read of a pruned column (bad needed-column set)"),
            _ => false,
        }
    }

    /// Gather the selected rows into a new compact column.
    pub fn gather(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Float(v) => Column::Float(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Bool(v) => Column::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Date(v) => Column::Date(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Str { ids, dict } => Column::Str {
                ids: sel.iter().map(|&i| ids[i as usize]).collect(),
                dict: dict.clone(),
            },
            Column::Mixed(v) => Column::Mixed(sel.iter().map(|&i| v[i as usize].clone()).collect()),
            Column::Pruned { .. } => Column::Pruned { len: sel.len() },
        }
    }
}

/// Incremental builder for one column: starts typed on the first value and
/// degrades to [`Column::Mixed`] on the first NULL or type change.
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    col: Option<Column>,
    len: usize,
}

impl ColumnBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with capacity hints applied on first value.
    pub fn with_capacity(_n: usize) -> Self {
        Self::default()
    }

    fn degrade(&mut self) -> &mut Vec<Value> {
        let len = self.len;
        let cur = self.col.take();
        let vals = match cur {
            None => Vec::new(),
            Some(Column::Mixed(v)) => v,
            Some(c) => (0..len).map(|i| c.value_at(i)).collect(),
        };
        self.col = Some(Column::Mixed(vals));
        match self.col.as_mut() {
            Some(Column::Mixed(v)) => v,
            _ => unreachable!("just set Mixed"),
        }
    }

    /// Append one value.
    pub fn push(&mut self, v: &Value) {
        match (&mut self.col, v) {
            (None, Value::Int(x)) => self.col = Some(Column::Int(vec![*x])),
            (None, Value::Float(x)) => self.col = Some(Column::Float(vec![x.to_bits()])),
            (None, Value::Bool(x)) => self.col = Some(Column::Bool(vec![*x])),
            (None, Value::Date(x)) => self.col = Some(Column::Date(vec![*x])),
            (None, Value::Str(s)) => {
                self.col = Some(Column::Str { ids: vec![0], dict: vec![s.clone()] })
            }
            (None, Value::Null) => self.col = Some(Column::Mixed(vec![Value::Null])),
            (Some(Column::Int(col)), Value::Int(x)) => col.push(*x),
            (Some(Column::Float(col)), Value::Float(x)) => col.push(x.to_bits()),
            (Some(Column::Bool(col)), Value::Bool(x)) => col.push(*x),
            (Some(Column::Date(col)), Value::Date(x)) => col.push(*x),
            (Some(Column::Str { ids, dict }), Value::Str(s)) => {
                // First-seen-order dictionary; recent-first scan because
                // streams tend to cluster equal values.
                let id = match dict.iter().rposition(|d| **d == **s) {
                    Some(i) => i as u32,
                    None => {
                        dict.push(s.clone());
                        (dict.len() - 1) as u32
                    }
                };
                ids.push(id);
            }
            (Some(Column::Mixed(col)), v) => col.push(v.clone()),
            (Some(_), v) => self.degrade().push(v.clone()),
        }
        self.len += 1;
    }

    /// Finish the column (`Mixed([])` when no values were pushed; callers
    /// building zero-row batches don't care about the variant).
    pub fn finish(self) -> Column {
        self.col.unwrap_or(Column::Mixed(Vec::new()))
    }
}

/// A selection vector: the row indices of a [`ColumnarBatch`] that survive a
/// filter, in ascending order. Filters rewrite this instead of materializing
/// the surviving rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelVec {
    indices: Vec<u32>,
}

impl SelVec {
    /// Empty selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// The identity selection over `n` rows.
    pub fn identity(n: usize) -> Self {
        SelVec { indices: (0..n as u32).collect() }
    }

    /// Wrap explicit indices (must be ascending for the ordering contracts
    /// downstream operators rely on; debug-asserted).
    pub fn from_indices(indices: Vec<u32>) -> Self {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "selection must be ascending");
        SelVec { indices }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` iff nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The selected row indices.
    pub fn as_slice(&self) -> &[u32] {
        &self.indices
    }

    /// The underlying vector (for kernels that append).
    pub fn into_inner(self) -> Vec<u32> {
        self.indices
    }
}

/// A columnar (SoA) delta batch: one [`Column`] per attribute plus parallel
/// `weights` and `masks` vectors, all of length [`Self::len`].
#[derive(Debug, Clone, Default)]
pub struct ColumnarBatch {
    /// One column per attribute.
    pub columns: Vec<Column>,
    /// Signed multiset weight per row.
    pub weights: Vec<i64>,
    /// Query-set mask per row.
    pub masks: Vec<QuerySet>,
    len: usize,
    /// The source rows when this batch was converted *from* rows
    /// ([`Self::from_rows`]): selects only narrow the selection vector and
    /// never touch row contents, so materialization can hand back the
    /// original `Arc`-shared rows instead of reallocating each one cell by
    /// cell. Column-producing constructors (projection output, `gather`)
    /// drop it.
    backing: Option<Vec<Row>>,
}

/// Equality is over the logical batch (columns, weights, masks) — the
/// `backing` materialization cache is ignored, so a converted batch and an
/// identically-valued assembled one compare equal.
impl PartialEq for ColumnarBatch {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.weights == other.weights && self.masks == other.masks
    }
}

impl ColumnarBatch {
    /// Empty batch of the given arity.
    pub fn empty(arity: usize) -> Self {
        ColumnarBatch {
            columns: (0..arity).map(|_| Column::Mixed(Vec::new())).collect(),
            weights: Vec::new(),
            masks: Vec::new(),
            len: 0,
            backing: None,
        }
    }

    /// Assemble from parts (columns must all have `weights.len()` rows).
    pub fn from_parts(columns: Vec<Column>, weights: Vec<i64>, masks: Vec<QuerySet>) -> Self {
        let len = weights.len();
        debug_assert_eq!(masks.len(), len);
        debug_assert!(columns.iter().all(|c| c.len() == len));
        ColumnarBatch { columns, weights, masks, len, backing: None }
    }

    /// Convert a row batch. Returns `None` when rows disagree on arity —
    /// SoA layout requires a rectangle; callers fall back to the row
    /// datapath for such (pathological) batches.
    ///
    /// The source rows are retained (an `Arc` clone each) as the
    /// materialization backing: [`Self::row_at`] and the `to_rows` family
    /// return them directly, so a downstream row-consuming operator (a join,
    /// or the subplan root) pays per-row `Arc` clones — the same cost the
    /// row datapath pays — rather than rebuilding every row from columns.
    pub fn from_rows(batch: &DeltaBatch) -> Option<Self> {
        let mut cb =
            Self::from_delta_rows(batch.rows.iter().map(|r| (r.row.values(), r.weight, r.mask)))?;
        cb.backing = Some(batch.rows.iter().map(|r| r.row.clone()).collect());
        Some(cb)
    }

    /// Late-materializing variant of [`Self::from_rows`]: builds typed
    /// columns only for the indices in `needed` (indices past the batch's
    /// arity are ignored) and leaves the rest as [`Column::Pruned`]. The
    /// backing rows are retained as in `from_rows`, so materialization and
    /// any backing-row kernel path still see every column; only *columnar*
    /// cell reads are restricted to the needed set. Converting one wide
    /// input row costs `O(|needed|)` instead of `O(arity)` — the difference
    /// between the vectorized datapath winning and losing on tables whose
    /// operators read a few of many columns.
    pub fn from_rows_pruned(batch: &DeltaBatch, needed: &[usize]) -> Option<Self> {
        let rows = &batch.rows;
        let arity = match rows.first() {
            Some(r) => r.row.arity(),
            None => return Self::from_rows(batch),
        };
        if rows.iter().any(|r| r.row.arity() != arity) {
            return None;
        }
        let mut builders: Vec<Option<ColumnBuilder>> =
            (0..arity).map(|i| needed.contains(&i).then(ColumnBuilder::new)).collect();
        for r in rows {
            for (b, v) in builders.iter_mut().zip(r.row.values()) {
                if let Some(b) = b {
                    b.push(v);
                }
            }
        }
        let len = rows.len();
        Some(ColumnarBatch {
            columns: builders
                .into_iter()
                .map(|b| match b {
                    Some(b) => b.finish(),
                    None => Column::Pruned { len },
                })
                .collect(),
            weights: rows.iter().map(|r| r.weight).collect(),
            masks: rows.iter().map(|r| r.mask).collect(),
            len,
            backing: Some(rows.iter().map(|r| r.row.clone()).collect()),
        })
    }

    /// The source rows this batch was converted from, when it was built by
    /// the `from_rows` family. Kernels that evaluate general (whole-row)
    /// expressions read these instead of reassembling scratch rows from
    /// columns — and *must* when the batch is pruned.
    #[inline]
    pub fn backing_rows(&self) -> Option<&[Row]> {
        self.backing.as_deref()
    }

    /// Convert from `(values, weight, mask)` triples (same uniform-arity
    /// contract as [`Self::from_rows`]).
    pub fn from_delta_rows<'a>(
        rows: impl Iterator<Item = (&'a [Value], i64, QuerySet)>,
    ) -> Option<Self> {
        let mut builders: Option<Vec<ColumnBuilder>> = None;
        let mut weights = Vec::new();
        let mut masks = Vec::new();
        for (values, weight, mask) in rows {
            let builders = builders
                .get_or_insert_with(|| (0..values.len()).map(|_| ColumnBuilder::new()).collect());
            if values.len() != builders.len() {
                return None;
            }
            for (b, v) in builders.iter_mut().zip(values) {
                b.push(v);
            }
            weights.push(weight);
            masks.push(mask);
        }
        let len = weights.len();
        let columns = match builders {
            Some(bs) => bs.into_iter().map(ColumnBuilder::finish).collect(),
            None => Vec::new(),
        };
        Some(ColumnarBatch { columns, weights, masks, len, backing: None })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Materialize every row back into a [`DeltaBatch`] (the lossless
    /// inverse of [`Self::from_rows`]).
    pub fn to_rows(&self) -> DeltaBatch {
        let mut out = DeltaBatch::new();
        for i in 0..self.len {
            out.push(DeltaRow {
                row: self.row_at(i),
                weight: self.weights[i],
                mask: self.masks[i],
            });
        }
        out
    }

    /// Materialize the selected rows, with `masks[j]` overriding the stored
    /// mask of the `j`-th selected row (how filters narrow masks without
    /// rewriting the batch).
    pub fn to_rows_selected(&self, sel: &[u32], masks: &[QuerySet]) -> DeltaBatch {
        debug_assert_eq!(sel.len(), masks.len());
        let mut out = DeltaBatch::new();
        for (&i, &mask) in sel.iter().zip(masks) {
            let i = i as usize;
            out.push(DeltaRow { row: self.row_at(i), weight: self.weights[i], mask });
        }
        out
    }

    /// Materialize row `i` (an `Arc` clone of the source row when this batch
    /// was converted from rows, a cell-by-cell rebuild otherwise).
    pub fn row_at(&self, i: usize) -> Row {
        match &self.backing {
            Some(rows) => rows[i].clone(),
            None => Row::new(self.columns.iter().map(|c| c.value_at(i)).collect()),
        }
    }

    /// Compact the selected rows into a fresh batch (masks taken from the
    /// parallel override vector).
    pub fn gather(&self, sel: &[u32], masks: &[QuerySet]) -> ColumnarBatch {
        debug_assert_eq!(sel.len(), masks.len());
        ColumnarBatch {
            columns: self.columns.iter().map(|c| c.gather(sel)).collect(),
            weights: sel.iter().map(|&i| self.weights[i as usize]).collect(),
            masks: masks.to_vec(),
            len: sel.len(),
            backing: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::QueryId;
    use proptest::prelude::*;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn mask_from_bits(m: u64) -> QuerySet {
        QuerySet::from_iter((0..16).filter(|i| m & (1u64 << i) != 0).map(QueryId))
    }

    /// Decode one cell from a per-column type tag plus raw entropy. Tags 0–4
    /// give homogeneous typed columns (so every `Column` variant is
    /// exercised, not just `Mixed`); 5 is all-NULL; 6 mixes types per row.
    fn mk_value(tag: usize, raw: u64) -> Value {
        match tag {
            0 => Value::Int(raw as i64),
            // Raw bit patterns, with NaN and -0.0 forced in occasionally.
            1 => Value::Float(match raw % 8 {
                0 => f64::NAN,
                1 => -0.0,
                _ => f64::from_bits(raw),
            }),
            2 => Value::Bool(raw & 1 == 1),
            3 => Value::Date(raw as i32),
            4 => Value::str(["", "a", "b", "ab"][(raw % 4) as usize]),
            5 => Value::Null,
            _ => mk_value((raw % 6) as usize, raw / 7),
        }
    }

    const MAX_ARITY: usize = 3;

    /// Uniform-arity batches: column type tags are drawn per column and each
    /// row decodes `arity` cells from them (the shim has no `flat_map`, so
    /// rows carry `MAX_ARITY` raw cells and the map truncates).
    fn arb_batch() -> impl Strategy<Value = DeltaBatch> {
        (
            1usize..MAX_ARITY + 1,
            proptest::collection::vec(0usize..7, MAX_ARITY),
            proptest::collection::vec(
                (proptest::collection::vec(0u64..u64::MAX, MAX_ARITY), -3i64..4, 0u64..16),
                0..12,
            ),
        )
            .prop_map(|(arity, tags, rows)| {
                rows.into_iter()
                    .map(|(raw, w, m)| DeltaRow {
                        row: Row::new((0..arity).map(|c| mk_value(tags[c], raw[c])).collect()),
                        weight: w,
                        mask: mask_from_bits(m),
                    })
                    .collect()
            })
    }

    /// Bit-exact row equality: `Value`'s `Eq` treats `Int(3) == Float(3.0)`
    /// and collapses NaN payloads, so losslessness is asserted on the raw
    /// representation instead.
    fn bits_eq(a: &DeltaBatch, b: &DeltaBatch) -> bool {
        a.rows.len() == b.rows.len()
            && a.rows.iter().zip(&b.rows).all(|(x, y)| {
                x.weight == y.weight
                    && x.mask == y.mask
                    && x.row.arity() == y.row.arity()
                    && x.row.values().iter().zip(y.row.values()).all(|(v, w)| match (v, w) {
                        (Value::Float(f), Value::Float(g)) => f.to_bits() == g.to_bits(),
                        (Value::Int(i), Value::Int(j)) => i == j,
                        (Value::Date(i), Value::Date(j)) => i == j,
                        (Value::Null, Value::Null) => true,
                        (Value::Bool(p), Value::Bool(q)) => p == q,
                        (Value::Str(s), Value::Str(t)) => s == t,
                        _ => false,
                    })
            })
    }

    proptest! {
        /// from_rows → to_rows is lossless, including float bit patterns,
        /// NULLs, and mixed-type columns.
        #[test]
        fn round_trip_lossless(batch in arb_batch()) {
            let col = ColumnarBatch::from_rows(&batch).expect("uniform arity");
            prop_assert_eq!(col.len(), batch.len());
            let back = col.to_rows();
            prop_assert!(bits_eq(&batch, &back));
        }

        /// Gathering through a selection vector equals filtering the row
        /// batch by the same indices.
        #[test]
        fn selection_matches_row_filter(
            batch in arb_batch(),
            keep in proptest::collection::vec(proptest::bool::ANY, 0..12),
        ) {
            let col = ColumnarBatch::from_rows(&batch).expect("uniform arity");
            let sel: Vec<u32> = (0..batch.len())
                .filter(|&i| keep.get(i).copied().unwrap_or(false))
                .map(|i| i as u32)
                .collect();
            let masks: Vec<QuerySet> = sel.iter().map(|&i| batch.rows[i as usize].mask).collect();
            let expected: DeltaBatch =
                sel.iter().map(|&i| batch.rows[i as usize].clone()).collect();
            // Lazy materialization and eager compaction agree.
            prop_assert!(bits_eq(&expected, &col.to_rows_selected(&sel, &masks)));
            prop_assert!(bits_eq(&expected, &col.gather(&sel, &masks).to_rows()));
        }
    }

    #[test]
    fn ragged_batches_are_rejected() {
        let b = DeltaBatch::from_rows(vec![
            DeltaRow::insert(Row::new(vec![Value::Int(1)]), qs(&[0])),
            DeltaRow::insert(Row::new(vec![Value::Int(1), Value::Int(2)]), qs(&[0])),
        ]);
        assert!(ColumnarBatch::from_rows(&b).is_none());
    }

    #[test]
    fn builder_degrades_to_mixed() {
        let mut b = ColumnBuilder::new();
        b.push(&Value::Int(1));
        b.push(&Value::Int(2));
        b.push(&Value::Null);
        let col = b.finish();
        assert!(matches!(col, Column::Mixed(_)));
        assert_eq!(col.value_at(0), Value::Int(1));
        assert!(col.is_null_at(2));
    }

    #[test]
    fn string_dictionary_dedups() {
        let mut b = ColumnBuilder::new();
        for s in ["a", "b", "a", "a"] {
            b.push(&Value::str(s));
        }
        match b.finish() {
            Column::Str { ids, dict } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(ids, vec![0, 1, 0, 0]);
            }
            other => panic!("expected Str column, got {other:?}"),
        }
    }

    #[test]
    fn selvec_basics() {
        let s = SelVec::identity(3);
        assert_eq!(s.as_slice(), &[0, 1, 2]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(SelVec::new().is_empty());
        assert_eq!(SelVec::from_indices(vec![1, 4]).into_inner(), vec![1, 4]);
    }
}
