//! Columnar (SoA) delta batches — a measurement surface, not a datapath.
//!
//! No operator runs over these: both exec datapaths carry row
//! [`DeltaBatch`]es (DESIGN.md §15). [`ColumnarBatch::from_rows`],
//! [`ColumnarBatch::to_rows`] and the typed columns stay because the
//! benchmark's `storage.rows_to_cols_ns_per_row` /
//! `storage.cols_to_rows_ns_per_row` replays time the conversion, and its
//! `expr.pred_batch_ns` replay runs `CompiledPredicate::eval_batch` over
//! the columns.
//!
//! Losslessness contract: `to_rows(from_rows(b)) == b` for every
//! uniform-arity batch, including float bit patterns, and every column cell
//! reads back the bits of its source value. Floats are therefore stored as
//! **raw** `f64::to_bits` words (the engine's normalised key encoding,
//! [`ishare_common::norm_f64_bits`], collapses `-0.0` and NaN payloads —
//! key *encoding* applies that normalisation on top of the stored raw bits;
//! storage must not). Strings are stored as per-column dictionary ids over
//! `Arc<str>` (cloning an `Arc` on materialization, never the bytes). A
//! column holding NULLs or mixed value types falls back to
//! [`Column::Mixed`].

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
        }
    }
}

/// Incremental builder for one column: starts typed on the first value and
/// degrades to [`Column::Mixed`] on the first NULL or type change.
#[derive(Debug, Default)]
struct ColumnBuilder {
    col: Option<Column>,
    len: usize,
}

impl ColumnBuilder {
    /// Fresh builder.
    fn new() -> Self {
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
    fn push(&mut self, v: &Value) {
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
    fn finish(self) -> Column {
        self.col.unwrap_or(Column::Mixed(Vec::new()))
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
    /// The source rows: materialization hands back the original
    /// `Arc`-shared rows instead of rebuilding each one cell by cell.
    backing: Vec<Row>,
}

impl ColumnarBatch {
    /// Convert a row batch. Returns `None` when rows disagree on arity —
    /// SoA layout requires a rectangle.
    ///
    /// The source rows are retained (an `Arc` clone each) as the
    /// materialization backing: [`Self::row_at`] and [`Self::to_rows`]
    /// return them directly.
    pub fn from_rows(batch: &DeltaBatch) -> Option<Self> {
        let mut builders: Option<Vec<ColumnBuilder>> = None;
        let mut weights = Vec::new();
        let mut masks = Vec::new();
        for r in &batch.rows {
            let values = r.row.values();
            let builders = builders
                .get_or_insert_with(|| (0..values.len()).map(|_| ColumnBuilder::new()).collect());
            if values.len() != builders.len() {
                return None;
            }
            for (b, v) in builders.iter_mut().zip(values) {
                b.push(v);
            }
            weights.push(r.weight);
            masks.push(r.mask);
        }
        let columns = match builders {
            Some(bs) => bs.into_iter().map(ColumnBuilder::finish).collect(),
            None => Vec::new(),
        };
        let backing = batch.rows.iter().map(|r| r.row.clone()).collect();
        Some(ColumnarBatch { columns, weights, masks, backing })
    }

    /// The source rows this batch was converted from. Whole-row expression
    /// programs read these instead of reassembling rows from columns.
    #[inline]
    pub fn backing_rows(&self) -> &[Row] {
        &self.backing
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` iff no rows.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Materialize every row back into a [`DeltaBatch`] (the inverse of
    /// [`Self::from_rows`]).
    pub fn to_rows(&self) -> DeltaBatch {
        let mut out = DeltaBatch::new();
        for i in 0..self.len() {
            out.push(DeltaRow {
                row: self.row_at(i),
                weight: self.weights[i],
                mask: self.masks[i],
            });
        }
        out
    }

    /// Materialize row `i` (an `Arc` clone of the source row).
    pub fn row_at(&self, i: usize) -> Row {
        self.backing[i].clone()
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
            // The typed columns hold the same bits: floats as raw `to_bits`
            // words, never normalised ones.
            let from_cols: DeltaBatch = (0..col.len())
                .map(|i| DeltaRow {
                    row: Row::new(col.columns.iter().map(|c| c.value_at(i)).collect()),
                    weight: col.weights[i],
                    mask: col.masks[i],
                })
                .collect();
            prop_assert!(bits_eq(&batch, &from_cols));
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
        assert_eq!(col.value_at(2), Value::Null);
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
}
