//! Incremental shared symmetric hash join — datapath-kernel implementation.
//!
//! State is kept for both sides as `encoded key → [(row, mask, weight)]`.
//! One incremental execution processes the left delta against the *old*
//! right state, inserts the left delta, then processes the right delta
//! against the *updated* left state — covering `ΔL⋈R + L⋈ΔR + ΔL⋈ΔR`
//! exactly once.
//!
//! Kernel datapath vs. the reference implementation
//! ([`crate::reference::RefJoinState`]):
//!
//! * Keys are [`KeyBuf`]-encoded (u64 words, interned strings) and hashed
//!   with FxHash into a [`FlatTable`] — no `Vec<Value>` hashing, no SipHash,
//!   and probes reuse one scratch buffer. Both sides share one interner so
//!   left and right keys encode identically.
//! * Per-key entries are a `Vec` kept **sorted by `(row, mask)`** — the same
//!   order the reference's `BTreeMap` iterates in. This is load-bearing:
//!   emission order feeds downstream float aggregation and MIN/MAX rescan
//!   triggering, so it must be a pure function of the stored state for the
//!   work totals to stay bit-identical. (The *outer* key table is
//!   insertion-ordered and never iterated.)
//! * Work charges are coalesced per (OpKind, batch). The default cost
//!   weights are dyadic rationals, so `Σ w·1` and `w·n` produce the same
//!   f64 bit pattern at any grouping.
//!
//! Output masks are the intersection of the joined tuples' masks; empty
//! intersections are dropped before emission. Rows with a NULL join key
//! never match and are not stored (SQL inner equi-join semantics).

use crate::flat::FlatTable;
use ishare_common::{
    CostWeights, Error, KeyBuf, OpKind, QueryId, QuerySet, Result, StrInterner, WorkCounter,
};
use ishare_expr::compile::CompiledScalar;
use ishare_expr::Expr;
use ishare_storage::{DeltaBatch, DeltaRow, Row};

/// One stored join-side entry: `(row, mask, net weight)`, kept sorted by
/// `(row, mask)` within its key slot.
type Entry = (Row, QuerySet, i64);

/// A key slot's entries. Most keys hold exactly one `(row, mask)` pair
/// (e.g. a primary-key join side), so the single-entry case lives inline in
/// the slot — no per-key `Vec` allocation to create, chase, or free. Slots
/// spill to a sorted `Vec` only on the second distinct pair.
#[derive(Debug)]
enum EntryList {
    /// Transient: a freshly created slot the caller fills immediately.
    Empty,
    One(Entry),
    Many(Vec<Entry>),
}

impl EntryList {
    /// Entries in `(row, mask)` order — the emission order contract.
    #[inline]
    fn as_slice(&self) -> &[Entry] {
        match self {
            EntryList::Empty => &[],
            EntryList::One(e) => std::slice::from_ref(e),
            EntryList::Many(es) => es,
        }
    }
}

/// Compiled join key pairs (left expr, right expr per key column).
#[derive(Debug, Clone)]
pub struct JoinKeys {
    pairs: Vec<(CompiledScalar, CompiledScalar)>,
}

impl JoinKeys {
    /// Lower the planner's `(left, right)` key expression pairs.
    pub fn compile(keys: &[(Expr, Expr)]) -> JoinKeys {
        JoinKeys {
            pairs: keys
                .iter()
                .map(|(l, r)| (CompiledScalar::compile(l), CompiledScalar::compile(r)))
                .collect(),
        }
    }

    pub(crate) fn side(&self, right: bool) -> impl Iterator<Item = &CompiledScalar> + Clone {
        self.pairs.iter().map(move |(l, r)| if right { r } else { l })
    }

    /// Words per encoded key (both sides of every pair).
    pub(crate) fn stride(&self) -> usize {
        2 * self.pairs.len()
    }

    /// Partition-key extractor for one side: the exchange routes each side's
    /// rows by the *same* compiled key scalars the join probes with, so a
    /// left row and its matching right rows always share a partition.
    pub fn extractor(&self, right: bool) -> ishare_expr::KeyExtractor {
        ishare_expr::KeyExtractor::new(self.side(right).cloned().collect())
    }
}

/// Per-input-row emission counts of one join execution: `left[i]` /
/// `right[i]` is how many output rows the `i`-th left / right delta row
/// produced when probing (NULL-keyed rows produce 0). Since an execution
/// emits all left-probe output before any right-probe output, and within a
/// phase strictly in batch-row order, these counts let the partition
/// exchange splice per-partition outputs back into the exact sequential
/// emission order.
#[derive(Debug, Default)]
pub struct JoinTrace {
    /// Emissions per left delta row, in batch order.
    pub left: Vec<u32>,
    /// Emissions per right delta row, in batch order.
    pub right: Vec<u32>,
}

/// Persistent state of one join operator across incremental executions.
#[derive(Debug, Default)]
pub struct JoinState {
    left: FlatTable<EntryList>,
    right: FlatTable<EntryList>,
    /// Shared by both sides: left and right keys must encode identically.
    interner: StrInterner,
    scratch: KeyBuf,
    /// Total stored entries per side, for diagnostics and state-size stats.
    left_entries: usize,
    right_entries: usize,
}

impl JoinState {
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
        keys: &JoinKeys,
        weights: &CostWeights,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        self.execute_traced(left_delta, right_delta, keys, weights, counter, None)
    }

    /// [`Self::execute`] that additionally records per-input-row emission
    /// counts into `trace` (cleared and resized to the batch lengths first).
    /// The traced and untraced paths are byte-for-byte the same computation.
    pub fn execute_traced(
        &mut self,
        left_delta: DeltaBatch,
        right_delta: DeltaBatch,
        keys: &JoinKeys,
        weights: &CostWeights,
        counter: &WorkCounter,
        trace: Option<&mut JoinTrace>,
    ) -> Result<DeltaBatch> {
        // Both sides' keys are encoded up front. This is safe because
        // `insert_side` never touches the interner: encoding the right keys
        // before the left inserts evolves the interner identically to
        // encoding them after (the original interleaving). Only the point at
        // which a right-side key *error* surfaces moves — acceptable
        // error-path divergence, as with the partition exchange.
        let stride = keys.stride();
        let left_keyed =
            key_rows(&left_delta, keys.side(false), stride, &mut self.interner, &mut self.scratch)?;
        let right_keyed =
            key_rows(&right_delta, keys.side(true), stride, &mut self.interner, &mut self.scratch)?;
        self.execute_with_keys(
            left_delta,
            left_keyed,
            right_delta,
            right_keyed,
            weights,
            counter,
            trace,
        )
    }

    /// Columnar-input execution for `ExecMode::Vectorized`: keys are encoded
    /// straight from the batch's typed columns when every key scalar is a
    /// bare column reference (the common case), skipping per-row
    /// `Arc<[Value]>` traversal; anything fancier falls back to row-keying
    /// the materialized batch. Probe/insert/emit share
    /// [`Self::execute_traced`]'s body, so order, weights, masks, and
    /// charges are bit-identical.
    pub fn execute_columnar(
        &mut self,
        left: crate::vectorized::ColsView<'_>,
        right: crate::vectorized::ColsView<'_>,
        keys: &JoinKeys,
        weights: &CostWeights,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        let stride = keys.stride();
        let left_rows = left.to_rows();
        let right_rows = right.to_rows();
        let left_keyed = key_rows_columnar(
            &left,
            &left_rows,
            keys.side(false),
            stride,
            &mut self.interner,
            &mut self.scratch,
        )?;
        let right_keyed = key_rows_columnar(
            &right,
            &right_rows,
            keys.side(true),
            stride,
            &mut self.interner,
            &mut self.scratch,
        )?;
        self.execute_with_keys(
            left_rows,
            left_keyed,
            right_rows,
            right_keyed,
            weights,
            counter,
            None,
        )
    }

    /// The probe → insert-left → probe → insert-right → emit body shared by
    /// the row and columnar entry points. `left_keyed`/`right_keyed` index
    /// into their respective delta batches.
    #[allow(clippy::too_many_arguments)]
    fn execute_with_keys(
        &mut self,
        left_delta: DeltaBatch,
        left_keyed: KeyedRows,
        right_delta: DeltaBatch,
        right_keyed: KeyedRows,
        weights: &CostWeights,
        counter: &WorkCounter,
        mut trace: Option<&mut JoinTrace>,
    ) -> Result<DeltaBatch> {
        if let Some(t) = trace.as_deref_mut() {
            t.left.clear();
            t.left.resize(left_delta.len(), 0);
            t.right.clear();
            t.right.resize(right_delta.len(), 0);
        }
        let mut out = DeltaBatch::new();
        let mut emits = 0usize;

        // ΔL ⋈ R_old
        counter.charge(OpKind::JoinProbe, weights.join_probe, left_keyed.len());
        for j in 0..left_keyed.len() {
            let before = out.len();
            if let Some(entries) = self.right.get(left_keyed.key(j)) {
                emit_matches(&mut out, left_keyed.row(&left_delta, j), entries, false, &mut emits);
            }
            if let Some(t) = trace.as_deref_mut() {
                t.left[left_keyed.rows[j] as usize] = (out.len() - before) as u32;
            }
        }
        // Insert ΔL.
        counter.charge(OpKind::JoinInsert, weights.join_insert, left_keyed.len());
        for j in 0..left_keyed.len() {
            insert_side(
                &mut self.left,
                &mut self.left_entries,
                left_keyed.key(j),
                left_keyed.row(&left_delta, j),
            )?;
        }
        // ΔR ⋈ L_new (covers L_old⋈ΔR and ΔL⋈ΔR).
        counter.charge(OpKind::JoinProbe, weights.join_probe, right_keyed.len());
        for j in 0..right_keyed.len() {
            let before = out.len();
            if let Some(entries) = self.left.get(right_keyed.key(j)) {
                emit_matches(&mut out, right_keyed.row(&right_delta, j), entries, true, &mut emits);
            }
            if let Some(t) = trace.as_deref_mut() {
                t.right[right_keyed.rows[j] as usize] = (out.len() - before) as u32;
            }
        }
        counter.charge(OpKind::JoinInsert, weights.join_insert, right_keyed.len());
        for j in 0..right_keyed.len() {
            insert_side(
                &mut self.right,
                &mut self.right_entries,
                right_keyed.key(j),
                right_keyed.row(&right_delta, j),
            )?;
        }
        counter.charge(OpKind::JoinEmit, weights.join_emit, emits);
        self.left.maybe_compact();
        self.right.maybe_compact();
        Ok(out)
    }

    /// Query admission: add `q_new`'s bit to every stored entry whose mask
    /// contains the witness `q_ref` (those are exactly the tuples `q_new`
    /// would have stored had it run from the start). Entry lists are
    /// re-sorted because masks participate in the `(row, mask)` order;
    /// `q_new` is a fresh bit, so widening never makes two entries equal.
    pub fn widen_query(&mut self, q_ref: QueryId, q_new: QueryId) {
        for table in [&mut self.left, &mut self.right] {
            for id in table.live_ids() {
                let slot = table.get_by_id_mut(id).expect("live slot");
                match slot {
                    EntryList::Empty => {}
                    EntryList::One((_, m, _)) => {
                        if m.contains(q_ref) {
                            m.insert(q_new);
                        }
                    }
                    EntryList::Many(es) => {
                        let mut widened = false;
                        for (_, m, _) in es.iter_mut() {
                            if m.contains(q_ref) {
                                m.insert(q_new);
                                widened = true;
                            }
                        }
                        if widened {
                            es.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
                        }
                    }
                }
            }
        }
    }

    /// Query removal: clear `q`'s bit from every stored entry, dropping
    /// entries whose mask goes empty and merging entries that become equal
    /// in `(row, mask)` (their net weights add; both are positive, so the
    /// merge never cancels to zero). Returns the number of entries freed.
    pub fn retire_query(&mut self, q: QueryId) -> usize {
        let mut reclaimed = 0usize;
        for (table, entries) in
            [(&mut self.left, &mut self.left_entries), (&mut self.right, &mut self.right_entries)]
        {
            for id in table.live_ids() {
                let slot = table.get_by_id_mut(id).expect("live slot");
                let mut es: Vec<Entry> = match std::mem::replace(slot, EntryList::Empty) {
                    EntryList::Empty => Vec::new(),
                    EntryList::One(e) => vec![e],
                    EntryList::Many(es) => es,
                };
                let before = es.len();
                for (_, m, _) in es.iter_mut() {
                    m.remove(q);
                }
                es.retain(|(_, m, _)| !m.is_empty());
                es.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
                es.dedup_by(|dup, keep| {
                    if dup.0 == keep.0 && dup.1 == keep.1 {
                        keep.2 += dup.2;
                        true
                    } else {
                        false
                    }
                });
                reclaimed += before - es.len();
                *entries -= before - es.len();
                if es.is_empty() {
                    table.remove_id(id);
                } else if es.len() == 1 {
                    *table.get_by_id_mut(id).expect("live slot") =
                        EntryList::One(es.pop().expect("one entry"));
                } else {
                    *table.get_by_id_mut(id).expect("live slot") = EntryList::Many(es);
                }
            }
            table.maybe_compact();
        }
        reclaimed
    }

    /// State handoff for admission: the join output `q_ref` has netted so
    /// far, i.e. the per-key cross product of stored left × right entries
    /// whose masks both contain the witness, re-masked to `{q_new}`.
    /// Unconsolidated and in storage order — the caller consolidates (and
    /// thereby becomes partition-count independent).
    pub fn snapshot_product(&self, q_ref: QueryId, q_new: QueryId) -> Vec<DeltaRow> {
        let mut out = Vec::new();
        for lid in self.left.live_ids() {
            let (key, lentries) = self.left.get_by_id_with_key(lid).expect("live slot");
            let Some(rentries) = self.right.get(key) else { continue };
            for (lrow, lmask, lw) in lentries.as_slice() {
                if !lmask.contains(q_ref) {
                    continue;
                }
                for (rrow, rmask, rw) in rentries.as_slice() {
                    if !rmask.contains(q_ref) {
                        continue;
                    }
                    out.push(DeltaRow {
                        row: lrow.concat(rrow),
                        weight: lw * rw,
                        mask: QuerySet::single(q_new),
                    });
                }
            }
        }
        out
    }
}

/// One side's encoded join keys, packed into a single `u64` arena with a
/// fixed `stride` (words per key) — one allocation per batch instead of one
/// `KeyBuf` per row.
struct KeyedRows {
    arena: Vec<u64>,
    stride: usize,
    /// Indices of the kept (non-NULL-keyed) rows in the source batch.
    rows: Vec<u32>,
}

impl KeyedRows {
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Encoded key words of the `j`-th kept row.
    #[inline]
    fn key(&self, j: usize) -> &[u64] {
        &self.arena[j * self.stride..(j + 1) * self.stride]
    }

    /// The `j`-th kept row of its source batch.
    #[inline]
    fn row<'a>(&self, batch: &'a DeltaBatch, j: usize) -> &'a DeltaRow {
        &batch.rows[self.rows[j] as usize]
    }
}

/// Encode join keys for every row; rows with NULL keys are silently excluded
/// (they can never join).
fn key_rows<'a>(
    batch: &DeltaBatch,
    key_scalars: impl Iterator<Item = &'a CompiledScalar> + Clone,
    stride: usize,
    interner: &mut StrInterner,
    scratch: &mut KeyBuf,
) -> Result<KeyedRows> {
    let mut out = KeyedRows {
        arena: Vec::with_capacity(batch.len() * stride),
        stride,
        rows: Vec::with_capacity(batch.len()),
    };
    'rows: for (i, r) in batch.rows.iter().enumerate() {
        scratch.clear();
        for k in key_scalars.clone() {
            match k.eval_ref(r.row.values())? {
                Ok(v) => {
                    if v.is_null() {
                        continue 'rows;
                    }
                    scratch.push_value(v, interner);
                }
                Err(v) => {
                    if v.is_null() {
                        continue 'rows;
                    }
                    scratch.push_value(&v, interner);
                }
            }
        }
        out.arena.extend_from_slice(scratch.as_words());
        out.rows.push(i as u32);
    }
    Ok(out)
}

/// Columnar key encoding: when every key scalar is a bare in-bounds column,
/// keys are read straight from the typed columns of the selected rows —
/// `KeyBuf::push_value` sees the same `Value`s the row path's `eval_ref`
/// produces, so the encoded words (and interner evolution) are identical.
/// Returned row indices refer to `materialized` (selection order), which is
/// the batch [`JoinState::execute_with_keys`] later indexes.
fn key_rows_columnar<'a>(
    view: &crate::vectorized::ColsView<'_>,
    materialized: &DeltaBatch,
    key_scalars: impl Iterator<Item = &'a CompiledScalar> + Clone,
    stride: usize,
    interner: &mut StrInterner,
    scratch: &mut KeyBuf,
) -> Result<KeyedRows> {
    let cols: Option<Vec<usize>> =
        key_scalars.clone().map(|s| s.as_col().filter(|&c| c < view.batch.arity())).collect();
    let Some(cols) = cols else {
        // Computed or out-of-bounds key expression: row-path fallback
        // (including its error behavior).
        return key_rows(materialized, key_scalars, stride, interner, scratch);
    };
    let mut out = KeyedRows {
        arena: Vec::with_capacity(view.len() * stride),
        stride,
        rows: Vec::with_capacity(view.len()),
    };
    'rows: for (j, &i) in view.sel.iter().enumerate() {
        scratch.clear();
        for &c in &cols {
            let col = &view.batch.columns[c];
            if col.is_null_at(i as usize) {
                continue 'rows; // NULL keys never join
            }
            scratch.push_value(&col.value_at(i as usize), interner);
        }
        out.arena.extend_from_slice(scratch.as_words());
        out.rows.push(j as u32);
    }
    Ok(out)
}

fn negative_state(w: i64, row: &Row) -> Error {
    Error::InvalidDelta(format!("join state went negative ({w}) for row {row}"))
}

fn insert_side(
    table: &mut FlatTable<EntryList>,
    entries: &mut usize,
    key: &[u64],
    dr: &DeltaRow,
) -> Result<()> {
    if dr.weight == 0 {
        // A zero-weight delta is a no-op on the stored multiset (engine
        // streams never carry one; operators drop zero weights).
        return Ok(());
    }
    let id = table.id_or_insert_with(key, || EntryList::Empty);
    let slot = table.get_by_id_mut(id).expect("live slot");
    match slot {
        EntryList::Empty => {
            if dr.weight < 0 {
                return Err(negative_state(dr.weight, &dr.row));
            }
            *slot = EntryList::One((dr.row.clone(), dr.mask, dr.weight));
            *entries += 1;
        }
        EntryList::One((r, m, w)) => {
            match (*r).cmp(&dr.row).then((*m).cmp(&dr.mask)) {
                std::cmp::Ordering::Equal => {
                    *w += dr.weight;
                    let w = *w;
                    if w == 0 {
                        *entries -= 1;
                        table.remove_id(id);
                    } else if w < 0 {
                        return Err(negative_state(w, &dr.row));
                    }
                }
                ord => {
                    if dr.weight < 0 {
                        return Err(negative_state(dr.weight, &dr.row));
                    }
                    let new = (dr.row.clone(), dr.mask, dr.weight);
                    let old = std::mem::replace(slot, EntryList::Empty);
                    let old = match old {
                        EntryList::One(e) => e,
                        _ => unreachable!("matched One"),
                    };
                    // `ord` compares stored vs new: Less keeps the stored
                    // entry first, Greater puts the new entry first.
                    *slot = EntryList::Many(if ord == std::cmp::Ordering::Less {
                        vec![old, new]
                    } else {
                        vec![new, old]
                    });
                    *entries += 1;
                }
            }
        }
        EntryList::Many(es) => {
            match es.binary_search_by(|(r, m, _)| r.cmp(&dr.row).then(m.cmp(&dr.mask))) {
                Ok(pos) => {
                    es[pos].2 += dr.weight;
                    let w = es[pos].2;
                    if w == 0 {
                        es.remove(pos);
                        *entries -= 1;
                        if es.is_empty() {
                            table.remove_id(id);
                        }
                    } else if w < 0 {
                        return Err(negative_state(w, &dr.row));
                    }
                }
                Err(pos) => {
                    es.insert(pos, (dr.row.clone(), dr.mask, dr.weight));
                    *entries += 1;
                    if dr.weight < 0 {
                        return Err(negative_state(dr.weight, &dr.row));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Emit the join of one delta row against a key slot's stored entries, in
/// the slot's `(row, mask)` order.
fn emit_matches(
    out: &mut DeltaBatch,
    delta: &DeltaRow,
    entries: &EntryList,
    delta_is_right: bool,
    emits: &mut usize,
) {
    for (srow, smask, sweight) in entries.as_slice() {
        let mask = delta.mask.intersect(*smask);
        if mask.is_empty() || *sweight == 0 {
            continue;
        }
        *emits += 1;
        let row = if delta_is_right { srow.concat(&delta.row) } else { delta.row.concat(srow) };
        out.push(DeltaRow { row, weight: delta.weight * sweight, mask });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{QueryId, Value};
    use ishare_storage::consolidate;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn r2(a: i64, b: i64) -> Row {
        Row::new(vec![Value::Int(a), Value::Int(b)])
    }

    fn dr(a: i64, b: i64, w: i64, m: &[u16]) -> DeltaRow {
        DeltaRow { row: r2(a, b), weight: w, mask: qs(m) }
    }

    fn keys() -> JoinKeys {
        JoinKeys::compile(&[(Expr::col(0), Expr::col(0))])
    }

    fn run(st: &mut JoinState, l: Vec<DeltaRow>, r: Vec<DeltaRow>) -> DeltaBatch {
        let c = WorkCounter::new();
        st.execute(
            DeltaBatch::from_rows(l),
            DeltaBatch::from_rows(r),
            &keys(),
            &CostWeights::default(),
            &c,
        )
        .unwrap()
    }

    #[test]
    fn matches_within_one_batch() {
        let mut st = JoinState::new();
        let out = run(&mut st, vec![dr(1, 10, 1, &[0])], vec![dr(1, 20, 1, &[0])]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].row.values().len(), 4);
        assert_eq!(out.rows[0].weight, 1);
        assert_eq!(st.left_size(), 1);
        assert_eq!(st.right_size(), 1);
    }

    #[test]
    fn matches_across_batches() {
        let mut st = JoinState::new();
        let out1 = run(&mut st, vec![dr(1, 10, 1, &[0])], vec![]);
        assert!(out1.is_empty());
        let out2 = run(&mut st, vec![], vec![dr(1, 20, 1, &[0])]);
        assert_eq!(out2.len(), 1);
        // No duplicate emission for the same pair.
        let out3 = run(&mut st, vec![], vec![]);
        assert!(out3.is_empty());
    }

    #[test]
    fn incremental_equals_batch() {
        // Join the same data in one batch vs three batches; consolidated
        // outputs must match.
        let l = vec![dr(1, 10, 1, &[0]), dr(1, 11, 1, &[0]), dr(2, 12, 1, &[0])];
        let r = vec![dr(1, 20, 1, &[0]), dr(2, 21, 1, &[0]), dr(3, 22, 1, &[0])];

        let mut all = JoinState::new();
        let big = run(&mut all, l.clone(), r.clone());

        let mut inc = JoinState::new();
        let mut acc = Vec::new();
        acc.extend(run(&mut inc, vec![l[0].clone()], vec![r[2].clone()]).rows);
        acc.extend(run(&mut inc, vec![l[1].clone(), l[2].clone()], vec![]).rows);
        acc.extend(run(&mut inc, vec![], vec![r[0].clone(), r[1].clone()]).rows);

        assert_eq!(consolidate(big.rows), consolidate(acc));
    }

    #[test]
    fn deletes_retract_matches() {
        let mut st = JoinState::new();
        run(&mut st, vec![dr(1, 10, 1, &[0])], vec![dr(1, 20, 1, &[0])]);
        // Delete the left row: the joined row must be retracted.
        let out = run(&mut st, vec![dr(1, 10, -1, &[0])], vec![]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].weight, -1);
        assert_eq!(st.left_size(), 0);
    }

    #[test]
    fn masks_intersect() {
        let mut st = JoinState::new();
        let out = run(&mut st, vec![dr(1, 10, 1, &[0, 1])], vec![dr(1, 20, 1, &[1, 2])]);
        assert_eq!(out.rows[0].mask, qs(&[1]));
        // Disjoint masks produce nothing.
        let out = run(&mut st, vec![dr(2, 10, 1, &[0])], vec![dr(2, 20, 1, &[1])]);
        assert!(out.is_empty());
    }

    #[test]
    fn null_keys_never_match() {
        let mut st = JoinState::new();
        let null_row =
            DeltaRow { row: Row::new(vec![Value::Null, Value::Int(1)]), weight: 1, mask: qs(&[0]) };
        let out = run(&mut st, vec![null_row.clone()], vec![null_row]);
        assert!(out.is_empty());
        assert_eq!(st.left_size(), 0, "NULL-keyed rows are not stored");
    }

    #[test]
    fn weight_multiplication() {
        let mut st = JoinState::new();
        // Two identical left rows (weight 2 consolidated).
        let out = run(&mut st, vec![dr(1, 10, 2, &[0])], vec![dr(1, 20, 3, &[0])]);
        assert_eq!(out.rows[0].weight, 6);
    }

    #[test]
    fn over_retraction_is_error() {
        let mut st = JoinState::new();
        let c = WorkCounter::new();
        let res = st.execute(
            DeltaBatch::from_rows(vec![dr(1, 10, -1, &[0])]),
            DeltaBatch::new(),
            &keys(),
            &CostWeights::default(),
            &c,
        );
        assert!(matches!(res, Err(Error::InvalidDelta(_))));
    }

    #[test]
    fn string_keys_join_via_interner() {
        let mut st = JoinState::new();
        let keys = JoinKeys::compile(&[(Expr::col(0), Expr::col(0))]);
        let srow = |s: &str, v: i64, m: &[u16]| DeltaRow {
            row: Row::new(vec![Value::str(s), Value::Int(v)]),
            weight: 1,
            mask: qs(m),
        };
        let c = WorkCounter::new();
        let out = st
            .execute(
                DeltaBatch::from_rows(vec![srow("a", 1, &[0]), srow("b", 2, &[0])]),
                DeltaBatch::from_rows(vec![srow("b", 3, &[0]), srow("c", 4, &[0])]),
                &keys,
                &CostWeights::default(),
                &c,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].row.get(0), &Value::str("b"));
    }

    #[test]
    fn widen_retire_snapshot_roundtrip() {
        let mut st = JoinState::new();
        // q0 and q1 share the stored rows; key 2 is q1-private.
        run(
            &mut st,
            vec![dr(1, 10, 1, &[0, 1]), dr(2, 11, 1, &[1])],
            vec![dr(1, 20, 1, &[0, 1]), dr(2, 21, 1, &[1])],
        );
        // Snapshot for a new query q2 witnessed by q0: only key 1's product.
        let snap = st.snapshot_product(QueryId(0), QueryId(2));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].weight, 1);
        assert_eq!(snap[0].mask, qs(&[2]));
        assert_eq!(snap[0].row.values().len(), 4);

        // Widen q0 → q2, then a new right row on key 1 joins for q2 too.
        st.widen_query(QueryId(0), QueryId(2));
        let out = run(&mut st, vec![], vec![dr(1, 22, 1, &[0, 1, 2])]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].mask, qs(&[0, 1, 2]));

        // Retire q1: its private key-2 entries are freed; shared entries
        // survive with the bit cleared.
        let freed = st.retire_query(QueryId(1));
        assert_eq!(freed, 2, "key 2's left+right entries are q1-private");
        assert_eq!(st.left_size(), 1);
        let out = run(&mut st, vec![dr(2, 30, 1, &[0])], vec![]);
        assert!(out.is_empty(), "retired state no longer matches");
        let out = run(&mut st, vec![dr(1, 30, 1, &[0, 2])], vec![]);
        assert_eq!(out.len(), 2, "both right rows on key 1 survive");
        for r in &out.rows {
            assert!(!r.mask.contains(QueryId(1)));
        }
    }

    #[test]
    fn retire_merges_entries_left_equal() {
        // Same row stored under masks {0} and {0,1}: retiring q1 makes them
        // equal and they must merge, summing weights.
        let mut st = JoinState::new();
        run(&mut st, vec![dr(1, 10, 1, &[0]), dr(1, 10, 1, &[0, 1])], vec![]);
        assert_eq!(st.left_size(), 2);
        let freed = st.retire_query(QueryId(1));
        assert_eq!(freed, 1);
        assert_eq!(st.left_size(), 1);
        let out = run(&mut st, vec![], vec![dr(1, 20, 1, &[0])]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].weight, 2, "merged entry weight is the sum");
    }

    #[test]
    fn emission_order_matches_reference() {
        // Bit-identity depends on the kernel emitting probe matches in the
        // reference's BTreeMap (row, mask) order. Store several rows under
        // one key in scrambled arrival order, then probe once.
        use crate::reference::RefJoinState;
        let stored = vec![
            dr(1, 30, 1, &[0]),
            dr(1, 10, 1, &[1]),
            dr(1, 20, 1, &[0, 1]),
            dr(1, 10, 1, &[0]), // same row, different mask
        ];
        let probe = vec![dr(1, 99, 1, &[0, 1])];

        let mut kern = JoinState::new();
        run(&mut kern, vec![], stored.clone());
        let kout = run(&mut kern, probe.clone(), vec![]);

        let mut refr = RefJoinState::new();
        let c = WorkCounter::new();
        let w = CostWeights::default();
        let ekeys = vec![(Expr::col(0), Expr::col(0))];
        refr.execute(DeltaBatch::new(), DeltaBatch::from_rows(stored), &ekeys, &w, &c).unwrap();
        let rout =
            refr.execute(DeltaBatch::from_rows(probe), DeltaBatch::new(), &ekeys, &w, &c).unwrap();

        assert_eq!(kout.rows, rout.rows, "emission order must match the reference exactly");
    }
}
