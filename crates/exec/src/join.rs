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
//! * A key slot is a consolidated run — sorted by `(row, mask)`, the order
//!   the reference's `BTreeMap` iterates in, pairs distinct — plus an
//!   unsorted **pending tail** of raw deltas. An insert moves the delta row
//!   (never a clone: the operator consumes its input batch) onto the tail
//!   in O(1), right after that row's probe; the tail is merged into the run
//!   (weights of equal pairs summed, zeros dropped) only (a) right before
//!   the slot is probed, (b) at the end of an insert phase that pushed a
//!   negative weight into it, so an over-retraction is reported by the
//!   execution that caused it, (c) when the tail outgrows the run, and (d)
//!   before churn surgery counts or re-keys entries. Probes therefore always
//!   see a consolidated slot, and that is load-bearing: emission order feeds
//!   downstream float aggregation
//!   and MIN/MAX rescan triggering, so it must be a pure function of the
//!   stored multiset for the work totals to stay bit-identical. A lazily
//!   paced subplan writes its join state often and probes it seldom, so a
//!   slot pays a sort per probe, not an ordered insert per tuple (DESIGN.md
//!   §10). (The *outer* key table is insertion-ordered and never iterated.)
//! * A merge compares words before rows and moves only what it must. Each
//!   stored entry carries the order word of its row's column 0
//!   ([`Value::order_word`], computed while the key is encoded), and two
//!   entries whose words differ are ordered without reading a row; a
//!   retraction that meets its stored row compares equal by pointer
//!   (`Row`'s `Ord`). The tail is sorted where it lies, and only the run's
//!   suffix from the tail's first place is rebuilt, through one scratch
//!   buffer per side, so a warm slot consolidates without allocating.
//! * Work charges are coalesced per (OpKind, batch). The default cost
//!   weights are dyadic rationals, so `Σ w·1` and `w·n` produce the same
//!   f64 bit pattern at any grouping.
//!
//! Output masks are the intersection of the joined tuples' masks; empty
//! intersections are dropped before emission. Rows with a NULL join key
//! never match and are not stored (SQL inner equi-join semantics).

use crate::flat::FlatTable;
use ishare_common::{
    CostWeights, Error, KeyBuf, OpKind, QueryId, QuerySet, Result, StrInterner, Value, WorkCounter,
};
use ishare_expr::compile::CompiledScalar;
use ishare_expr::Expr;
use ishare_storage::{prefetch_ahead, Columns, DeltaBatch, DeltaRow, Row};
use std::cmp::Ordering;

/// One stored join-side entry: a `(row, mask)` pair, its net weight, and
/// the order word of the row's column 0.
#[derive(Debug, Clone)]
struct Entry {
    word: u64,
    row: Row,
    mask: QuerySet,
    weight: i64,
}

/// The `(row, mask)` order of a consolidated slot — the emission order
/// contract. Two non-zero words that differ decide it at once, since they
/// compare as the rows' first columns do; otherwise the rows are compared.
#[inline]
fn entry_order(a: &Entry, b: &Entry) -> Ordering {
    if a.word != b.word && a.word != 0 && b.word != 0 {
        return a.word.cmp(&b.word);
    }
    a.row.cmp(&b.row).then(a.mask.cmp(&b.mask))
}

/// A key slot's entries. Most keys hold exactly one `(row, mask)` pair
/// (e.g. a primary-key join side), so the single-entry case lives inline in
/// the slot — no per-key `Vec` allocation to create, chase, or free. Slots
/// spill to a `Vec` on the second insert.
#[derive(Debug)]
enum EntryList {
    /// Transient: a freshly created slot the caller fills immediately.
    Empty,
    /// A consolidated run of one pair.
    One(Entry),
    /// `entries[..sorted_len]` is the consolidated run: sorted by
    /// `(row, mask)`, pairs distinct, no zero weights. `entries[sorted_len..]`
    /// is the pending tail: raw deltas in arrival order. Between executions
    /// a tail holds positive weights only.
    Many { entries: Vec<Entry>, sorted_len: usize },
}

impl EntryList {
    /// Every stored entry — in `(row, mask)` order once consolidated.
    #[inline]
    fn as_slice(&self) -> &[Entry] {
        match self {
            EntryList::Empty => &[],
            EntryList::One(e) => std::slice::from_ref(e),
            EntryList::Many { entries, .. } => entries,
        }
    }

    /// How many `(row, mask)` pairs the slot holds once consolidated.
    fn consolidated_len(&self) -> usize {
        match self {
            EntryList::Many { entries, sorted_len } if !tail_in_order(entries, *sorted_len) => {
                let mut copy = entries.clone();
                let _ = merge_tail(&mut copy, *sorted_len, &mut Vec::new());
                copy.len()
            }
            other => other.as_slice().len(),
        }
    }
}

/// A pending tail shorter than this never triggers consolidation point (c):
/// small slots would otherwise re-merge at sizes 3, 7, 15, …, each time for
/// a sort the next probe does anyway.
const MIN_OUTGROWN_TAIL: usize = 32;

/// Whether the pending tail already extends the run in strict `(row, mask)`
/// order with positive weights (vacuously so when nothing is pending): the
/// slot is then consolidated as it stands. Streams that arrive in key order
/// take this exit — one comparison per pending entry, no sort, no move.
fn tail_in_order(entries: &[Entry], sorted_len: usize) -> bool {
    let in_order = |w: &[Entry]| entry_order(&w[0], &w[1]).is_lt() && w[1].weight > 0;
    sorted_len > 0 && entries[sorted_len - 1..].windows(2).all(in_order)
}

/// Where `t`'s pair sits in a sorted run (`binary_search_by` semantics),
/// galloping from the run's head: the bracket doubles until it holds the
/// place, so a tail as long as the run pays O(1) comparisons per pair and a
/// short tail O(log gap) — never a comparing walk of a long run.
fn gallop(run: &[Entry], t: &Entry) -> std::result::Result<usize, usize> {
    let mut hi = 1;
    while hi < run.len() && entry_order(&run[hi - 1], t).is_lt() {
        hi *= 2;
    }
    let (lo, hi) = (hi / 2, hi.min(run.len()));
    run[lo..hi].binary_search_by(|e| entry_order(e, t)).map(|p| lo + p).map_err(|p| lo + p)
}

/// Consolidate a slot in place: sort the pending tail where it lies, then
/// rebuild the run from the place of the tail's first pair on, summing the
/// weights of equal pairs and dropping zeros. Only that suffix moves — into
/// `scratch` and back, merged — and each distinct tail pair is placed by
/// [`gallop`] over what is left of it, so with `scratch` warm a merge
/// allocates nothing. A pair whose net weight is negative stays stored (the
/// state remains the true net multiset, as in the reference); the first one
/// in `(row, mask)` order is reported.
fn merge_tail(entries: &mut Vec<Entry>, sorted_len: usize, scratch: &mut Vec<Entry>) -> Result<()> {
    if entries.len() == sorted_len {
        return Ok(());
    }
    // Sorted, then reversed, so the drain below yields the run's suffix from
    // its front and the tail, smallest pair first, from its back. (Sorting
    // descending directly costs an insertion sort its worst case on a tail
    // that arrived in order.)
    let tail = &mut entries[sorted_len..];
    tail.sort_unstable_by(entry_order);
    tail.reverse();
    let smallest = &entries[entries.len() - 1];
    let start = gallop(&entries[..sorted_len], smallest).unwrap_or_else(|p| p);
    scratch.extend(entries.drain(start..));
    let mut rest = scratch.drain(..);
    let mut run_left = sorted_len - start;
    let mut tail_left = rest.len() - run_left;
    let mut negative = None;
    while tail_left > 0 {
        let mut t = rest.next_back().expect("a pending pair");
        tail_left -= 1;
        while tail_left > 0 && entry_order(rest.as_slice().last().expect("pending"), &t).is_eq() {
            t.weight += rest.next_back().expect("a pending pair").weight;
            tail_left -= 1;
        }
        let (before, found) = match gallop(&rest.as_slice()[..run_left], &t) {
            Ok(pos) => (pos, true),
            Err(pos) => (pos, false),
        };
        entries.extend(rest.by_ref().take(before));
        run_left -= before;
        if found {
            t.weight += rest.next().expect("found in run").weight;
            run_left -= 1;
        }
        if t.weight < 0 && negative.is_none() {
            negative = Some(negative_state(t.weight, &t.row));
        }
        if t.weight != 0 {
            entries.push(t);
        }
    }
    entries.extend(rest);
    negative.map_or(Ok(()), Err)
}

/// One side of the join: its key slots, the buffer its merges rebuild run
/// suffixes through, and the list of slots an insert phase retracted from
/// (both empty between executions, their capacity kept).
#[derive(Debug, Default)]
struct Side {
    slots: FlatTable<EntryList>,
    scratch: Vec<Entry>,
    /// `(slot id, arrival)` of each retraction in the current insert phase.
    retracted: Vec<(u32, u32)>,
}

impl Side {
    /// Consolidate the slot at `id` (a no-op on an inline, consolidated or
    /// dead slot) and drop it from the table if nothing is left.
    fn consolidate(&mut self, id: u32) -> Result<()> {
        let Some(EntryList::Many { entries, sorted_len }) = self.slots.get_by_id_mut(id) else {
            return Ok(());
        };
        let merged = if tail_in_order(entries, *sorted_len) {
            Ok(())
        } else {
            merge_tail(entries, *sorted_len, &mut self.scratch)
        };
        *sorted_len = entries.len();
        if entries.is_empty() {
            self.slots.remove_id(id);
        }
        merged
    }

    /// The consolidated entries stored under `key` — consolidation point (a).
    fn probe(&mut self, key: &[u64]) -> Result<&[Entry]> {
        let Some(id) = self.slots.id_of(key) else { return Ok(&[]) };
        self.consolidate(id)?;
        Ok(self.slots.get_by_id(id).map_or(&[], EntryList::as_slice))
    }

    /// Consolidated `(row, mask)` pairs stored on this side.
    fn size(&self) -> usize {
        let slots = self.slots.live_ids().into_iter().filter_map(|id| self.slots.get_by_id(id));
        slots.map(EntryList::consolidated_len).sum()
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
}

/// Persistent state of one join operator across incremental executions.
#[derive(Debug, Default)]
pub struct JoinState {
    left: Side,
    right: Side,
    /// Shared by both sides: left and right keys must encode identically.
    interner: StrInterner,
    scratch: KeyBuf,
}

impl JoinState {
    /// Fresh empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored (row, mask) entries on the left side: the exact consolidated
    /// count, computed by walking the state (diagnostics and churn
    /// accounting read it, never the per-execution path).
    pub fn left_size(&self) -> usize {
        self.left.size()
    }

    /// Stored (row, mask) entries on the right side (see [`Self::left_size`]).
    pub fn right_size(&self) -> usize {
        self.right.size()
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
        // Both sides' keys are encoded up front. This is safe because
        // `insert_delta` takes keys already encoded and never touches the
        // interner: encoding the right keys before the left insert phase
        // evolves the interner identically to encoding them after (the
        // reference's interleaving). Only the point at which a right-side key
        // *error* surfaces moves — before the left phases instead of after.
        // Like `insert_delta` accepting a batch whose net effect is valid,
        // that divergence is confined to error paths.
        let stride = keys.stride();
        let left_keyed =
            key_rows(&left_delta, keys.side(false), stride, &mut self.interner, &mut self.scratch)?;
        let right_keyed =
            key_rows(&right_delta, keys.side(true), stride, &mut self.interner, &mut self.scratch)?;

        let mut out = DeltaBatch::new();
        let mut emits = 0usize;

        // ΔL ⋈ R_old, each left row moving into L after its probe: the
        // probes read only R, so this equals probing all of ΔL first.
        counter.charge(OpKind::JoinProbe, weights.join_probe, left_keyed.len());
        counter.charge(OpKind::JoinInsert, weights.join_insert, left_keyed.len());
        insert_delta(&mut self.left, &left_keyed, left_delta, |key, dr| {
            emit_matches(&mut out, dr, self.right.probe(key)?, false, &mut emits);
            Ok(())
        })?;
        // ΔR ⋈ L_new (covers L_old⋈ΔR and ΔL⋈ΔR), then ΔR into R.
        counter.charge(OpKind::JoinProbe, weights.join_probe, right_keyed.len());
        counter.charge(OpKind::JoinInsert, weights.join_insert, right_keyed.len());
        insert_delta(&mut self.right, &right_keyed, right_delta, |key, dr| {
            emit_matches(&mut out, dr, self.left.probe(key)?, true, &mut emits);
            Ok(())
        })?;
        counter.charge(OpKind::JoinEmit, weights.join_emit, emits);
        self.left.slots.maybe_compact();
        self.right.slots.maybe_compact();
        Ok(out)
    }

    /// Query admission: add `q_new`'s bit to every stored entry (pending
    /// ones included) whose mask contains the witness `q_ref` — those are
    /// exactly the tuples `q_new` would have stored had it run from the
    /// start. Masks participate in the `(row, mask)` order, so a widened slot
    /// is marked wholly pending and re-sorted by its next consolidation;
    /// `q_new` is a fresh bit, so widening never makes two pairs equal.
    pub fn widen_query(&mut self, q_ref: QueryId, q_new: QueryId) {
        for table in [&mut self.left.slots, &mut self.right.slots] {
            for id in table.live_ids() {
                match table.get_by_id_mut(id).expect("live slot") {
                    EntryList::Empty => {}
                    EntryList::One(e) => {
                        if e.mask.contains(q_ref) {
                            e.mask.insert(q_new);
                        }
                    }
                    EntryList::Many { entries, sorted_len } => {
                        for e in entries.iter_mut() {
                            if e.mask.contains(q_ref) {
                                e.mask.insert(q_new);
                                *sorted_len = 0;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Query removal: clear `q`'s bit from every stored entry, dropping
    /// entries whose mask goes empty and merging entries that become equal
    /// in `(row, mask)` (their net weights add). Each slot is consolidated
    /// first, so the returned number of entries freed is exact.
    pub fn retire_query(&mut self, q: QueryId) -> Result<usize> {
        let mut reclaimed = 0usize;
        for side in [&mut self.left, &mut self.right] {
            for id in side.slots.live_ids() {
                side.consolidate(id)?;
                let Some(slot) = side.slots.get_by_id_mut(id) else { continue };
                let mut es: Vec<Entry> = match std::mem::replace(slot, EntryList::Empty) {
                    EntryList::Empty => Vec::new(),
                    EntryList::One(e) => vec![e],
                    EntryList::Many { entries, .. } => entries,
                };
                let before = es.len();
                for e in es.iter_mut() {
                    e.mask.remove(q);
                }
                es.retain(|e| !e.mask.is_empty());
                let merged = merge_tail(&mut es, 0, &mut side.scratch);
                reclaimed += before - es.len();
                if es.len() == 1 {
                    *slot = EntryList::One(es.pop().expect("one entry"));
                } else if es.is_empty() {
                    side.slots.remove_id(id);
                } else {
                    *slot = EntryList::Many { sorted_len: es.len(), entries: es };
                }
                merged?;
            }
            side.slots.maybe_compact();
        }
        Ok(reclaimed)
    }

    /// State handoff for admission: the join output `q_ref` has netted so
    /// far, i.e. the per-key cross product of stored left × right entries
    /// whose masks both contain the witness, re-masked to `{q_new}`.
    /// Unconsolidated and in storage order, pending tails included raw —
    /// weights distribute over the product, so the caller's consolidation
    /// nets them (and thereby becomes independent of slot layout).
    pub fn snapshot_product(&self, q_ref: QueryId, q_new: QueryId) -> Vec<DeltaRow> {
        let mut out = Vec::new();
        for lid in self.left.slots.live_ids() {
            let (key, lentries) = self.left.slots.get_by_id_with_key(lid).expect("live slot");
            let Some(rentries) = self.right.slots.get(key) else { continue };
            for l in lentries.as_slice() {
                if !l.mask.contains(q_ref) {
                    continue;
                }
                for r in rentries.as_slice() {
                    if !r.mask.contains(q_ref) {
                        continue;
                    }
                    out.push(DeltaRow {
                        row: l.row.concat(&r.row),
                        weight: l.weight * r.weight,
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
    /// Indices of the kept (non-NULL-keyed) rows in the source batch, each
    /// with the order word of the row's column 0.
    rows: Vec<(u32, u64)>,
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
}

/// Encode join keys for every row; rows with NULL keys are silently excluded
/// (they can never join). Each kept row's order word is taken here too,
/// while the row is in cache: the insert phase that stores it reads the row
/// again only after the probe has pushed it out.
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
        prefetch_ahead(&batch.rows[i..]);
        scratch.clear();
        for k in key_scalars.clone() {
            let v = k.eval_ref(&r.row)?;
            if v.is_null() {
                continue 'rows;
            }
            scratch.push_value(&v, interner);
        }
        out.arena.extend_from_slice(scratch.as_words());
        out.rows.push((i as u32, r.row.column(0).map_or(0, Value::order_word)));
    }
    Ok(out)
}

fn negative_state(w: i64, row: &Row) -> Error {
    Error::InvalidDelta(format!("join state went negative ({w}) for row {row}"))
}

/// One side's insert phase: hand every keyed delta row with its key to
/// `probe`, then move it onto its key slot's pending tail — no ordered
/// search, no comparison, no clone — and finally settle the slots that took
/// a negative weight, consolidation point (b), so a retraction is netted,
/// and an over-retraction reported, by the execution that brought it. The
/// phase runs to its end even after a slot fails: tails never carry a
/// negative weight into the next execution.
fn insert_delta(
    side: &mut Side,
    keyed: &KeyedRows,
    delta: DeltaBatch,
    mut probe: impl FnMut(&[u64], &DeltaRow) -> Result<()>,
) -> Result<()> {
    let (mut settled, mut retracted) = (Ok(()), std::mem::take(&mut side.retracted));
    let mut kept = keyed.rows.iter().enumerate().peekable();
    for (i, dr) in delta.rows.into_iter().enumerate() {
        let Some((j, &(_, word))) = kept.next_if(|(_, &(r, _))| r as usize == i) else {
            continue;
        };
        let key = keyed.key(j);
        probe(key, &dr)?;
        let DeltaRow { row, weight, mask } = dr;
        if weight == 0 {
            // A zero-weight delta is a no-op on the stored multiset (engine
            // streams never carry one; operators drop zero weights).
            continue;
        }
        let new = Entry { word, row, mask, weight };
        let id = side.slots.id_or_insert_with(key, || EntryList::Empty);
        let slot = side.slots.get_by_id_mut(id).expect("live slot");
        let outgrown = match slot {
            EntryList::Many { entries, sorted_len } => {
                entries.push(new);
                entries.len() - *sorted_len > (*sorted_len).max(MIN_OUTGROWN_TAIL)
            }
            EntryList::One(_) => {
                let EntryList::One(old) = std::mem::replace(slot, EntryList::Empty) else {
                    unreachable!("matched One")
                };
                *slot = EntryList::Many { entries: vec![old, new], sorted_len: 1 };
                false
            }
            EntryList::Empty if weight > 0 => {
                *slot = EntryList::One(new);
                false
            }
            EntryList::Empty => {
                *slot = EntryList::Many { entries: vec![new], sorted_len: 0 };
                false
            }
        };
        if outgrown {
            // Point (c), geometric: pending memory stays within the run's,
            // and a slot nobody probes costs O(log) sorts per entry.
            settled = settled.and(side.consolidate(id));
        }
        if weight < 0 {
            retracted.push((id, retracted.len() as u32));
        }
    }
    // Each slot once, in the order of its first retraction: the slots fail
    // in the order a consolidation per retraction would have found them.
    retracted.sort_unstable();
    retracted.dedup_by_key(|&mut (id, _)| id);
    retracted.sort_unstable_by_key(|&(_, first)| first);
    for &(id, _) in &retracted {
        settled = settled.and(side.consolidate(id));
    }
    retracted.clear();
    side.retracted = retracted;
    settled
}

/// Emit the join of one delta row against a key slot's stored entries, in
/// the slot's `(row, mask)` order. An output row shares both inputs' value
/// segments (`Row::concat` copies no value).
fn emit_matches(
    out: &mut DeltaBatch,
    delta: &DeltaRow,
    entries: &[Entry],
    delta_is_right: bool,
    emits: &mut usize,
) {
    for e in entries {
        let mask = delta.mask.intersect(e.mask);
        if mask.is_empty() || e.weight == 0 {
            continue;
        }
        *emits += 1;
        let row = if delta_is_right { e.row.concat(&delta.row) } else { delta.row.concat(&e.row) };
        out.push(DeltaRow { row, weight: delta.weight * e.weight, mask });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefJoinState;
    use ishare_common::{QueryId, Value};
    use ishare_storage::consolidate;
    use proptest::prelude::*;
    use std::collections::HashMap;

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

    fn try_left(st: &mut JoinState, l: Vec<DeltaRow>) -> Result<DeltaBatch> {
        let (w, c) = (CostWeights::default(), WorkCounter::new());
        st.execute(DeltaBatch::from_rows(l), DeltaBatch::new(), &keys(), &w, &c)
    }

    #[test]
    fn over_retraction_is_error() {
        let res = try_left(&mut JoinState::new(), vec![dr(1, 10, -1, &[0])]);
        assert!(matches!(res, Err(Error::InvalidDelta(_))));
    }

    #[test]
    fn over_retraction_into_populated_slot_is_error() {
        // The slot already holds two rows; deleting a third, absent one is
        // reported by that same execute, and the stored pairs are still
        // counted exactly afterwards.
        let mut st = JoinState::new();
        run(&mut st, vec![dr(1, 10, 1, &[0]), dr(1, 20, 1, &[0])], vec![]);
        let res = try_left(&mut st, vec![dr(1, 30, -1, &[0])]);
        assert!(matches!(res, Err(Error::InvalidDelta(_))));
        assert_eq!(st.left_size(), 3, "the net multiset, negative pair included");
    }

    #[test]
    fn over_retraction_names_the_first_pair_in_row_order() {
        // Keyed on column 1, so column 0's order words decide the slot's
        // order. Two absent rows are retracted, the larger one first; the
        // error names the smaller, the first negative pair in (row, mask)
        // order, whatever the arrival order.
        let row3 = |c0: Value, id: i64| Row::new(vec![c0, Value::Int(0), Value::Int(id)]);
        let keyed_on_1 = JoinKeys::compile(&[(Expr::col(1), Expr::col(1))]);
        let (w, c) = (CostWeights::default(), WorkCounter::new());
        let mut st = JoinState::new();
        let stored: Vec<DeltaRow> =
            (0..40).map(|i| DeltaRow::insert(row3(Value::Int(i % 7 - 3), i), qs(&[0]))).collect();
        let batch = |rows| DeltaBatch::from_rows(rows);
        st.execute(batch(stored), DeltaBatch::new(), &keyed_on_1, &w, &c).unwrap();
        let retract = vec![
            DeltaRow::delete(row3(Value::str("absent"), 900), qs(&[0])),
            DeltaRow::delete(row3(Value::Float(-3.5), 901), qs(&[0])),
            DeltaRow::delete(row3(Value::Int(-3), 0), qs(&[0])),
        ];
        let res = st.execute(batch(retract), DeltaBatch::new(), &keyed_on_1, &w, &c);
        match res {
            Err(Error::InvalidDelta(msg)) => {
                assert_eq!(msg, "join state went negative (-1) for row [-3.5, 0, 901]")
            }
            other => panic!("expected an over-retraction, got {other:?}"),
        }
        assert_eq!(st.left_size(), 41, "the net multiset: 39 stored, two negative");
    }

    #[test]
    fn second_retraction_across_executes_is_error() {
        for stored in [vec![dr(1, 10, 1, &[0])], vec![dr(1, 10, 1, &[0]), dr(1, 20, 1, &[0])]] {
            let mut st = JoinState::new();
            let others = stored.len() - 1;
            run(&mut st, stored, vec![]);
            assert!(try_left(&mut st, vec![dr(1, 10, -1, &[0])]).is_ok());
            assert_eq!(st.left_size(), others);
            let res = try_left(&mut st, vec![dr(1, 10, -1, &[0])]);
            assert!(matches!(res, Err(Error::InvalidDelta(_))), "{others} other rows stored");
        }
    }

    #[test]
    fn net_valid_batch_is_accepted() {
        // The one error-path divergence from the reference: a batch that
        // retracts a row before inserting it nets to a valid state.
        let mut st = JoinState::new();
        let out = try_left(&mut st, vec![dr(1, 10, -1, &[0]), dr(1, 10, 2, &[0])]).unwrap();
        assert!(out.is_empty());
        let out = run(&mut st, vec![], vec![dr(1, 20, 1, &[0])]);
        assert_eq!(out.rows[0].weight, 1);
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
        let freed = st.retire_query(QueryId(1)).unwrap();
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
        let freed = st.retire_query(QueryId(1)).unwrap();
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

    /// One generated delta: `(key, value, mask bits, weight, delete?, right side?)`.
    type Op = (i64, i64, u64, i64, bool, bool);

    fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
        let op = (
            0i64..4,
            0i64..40,
            1u64..8,
            1i64..3,
            proptest::bool::weighted(0.3),
            proptest::bool::ANY,
        );
        proptest::collection::vec(op, 1..max)
    }

    /// Cut `ops` into `(left, right)` delta batches at random boundaries. A
    /// delete retracts the whole stored weight of its pair, or turns into an
    /// insert when the pair is absent, so no prefix over-retracts and the
    /// reference accepts every batch. `keys` folds the key space (1 = every
    /// row on one slot).
    fn batches(ops: &[Op], cuts: &[usize], keys: i64) -> Vec<(Vec<DeltaRow>, Vec<DeltaRow>)> {
        let mut stored: HashMap<(bool, i64, i64, u64), i64> = HashMap::new();
        let mut out = vec![(Vec::new(), Vec::new())];
        let mut cuts = cuts.iter().cycle();
        let mut room = *cuts.next().unwrap();
        for &(k, v, m, w, delete, right) in ops {
            if room == 0 {
                out.push((Vec::new(), Vec::new()));
                room = *cuts.next().unwrap();
            }
            room -= 1;
            let have = stored.entry((right, k % keys, v, m)).or_insert(0);
            let weight = if delete && *have > 0 { -*have } else { w };
            *have += weight;
            let row = DeltaRow { row: r2(k % keys, v), weight, mask: QuerySet(m) };
            let batch = out.last_mut().unwrap();
            if right {
                batch.1.push(row)
            } else {
                batch.0.push(row)
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The kernel join against the `BTreeMap` oracle on the case the
        /// sparse tests miss: few keys, long slots, duplicate rows, deletes,
        /// and batch boundaries that leave probes facing pending tails and
        /// push tails across the geometric threshold.
        #[test]
        fn lazy_slots_match_reference(
            ops in ops(400),
            cuts in proptest::collection::vec(1usize..120, 8),
            n_keys in 1i64..5,
        ) {
            let ekeys = vec![(Expr::col(0), Expr::col(0))];
            let (w, kc, rc) = (CostWeights::default(), WorkCounter::new(), WorkCounter::new());
            let (mut kern, mut refr) = (JoinState::new(), RefJoinState::new());
            for (l, r) in batches(&ops, &cuts, n_keys) {
                let (lb, rb) = (DeltaBatch::from_rows(l), DeltaBatch::from_rows(r));
                let kout = kern.execute(lb.clone(), rb.clone(), &keys(), &w, &kc).unwrap();
                let rout = refr.execute(lb, rb, &ekeys, &w, &rc).unwrap();
                prop_assert_eq!(kout.rows, rout.rows);
                prop_assert_eq!(kern.left_size(), refr.left_size());
                prop_assert_eq!(kern.right_size(), refr.right_size());
            }
            prop_assert_eq!(kc.total().get().to_bits(), rc.total().get().to_bits());
        }

        /// The kernel join against the `BTreeMap` oracle with long slots
        /// keyed on column 1, so column 0's order words decide most
        /// comparisons: column 0 mixes NULL, booleans, numbers of both signs
        /// and strings sharing a 7-byte prefix. Many small batches retract
        /// and re-insert rows, some as the stored `Arc`, some as equal rows
        /// built anew, and insert duplicates of stored rows.
        #[test]
        fn long_slots_keyed_off_column_0_match_reference(seed in 0u64..u64::MAX) {
            let ekeys = vec![(Expr::col(1), Expr::col(1))];
            let jk = JoinKeys::compile(&ekeys);
            let (w, kc, rc) = (CostWeights::default(), WorkCounter::new(), WorkCounter::new());
            let (mut kern, mut refr) = (JoinState::new(), RefJoinState::new());
            let mut rng = seed | 1;
            let mut next = move |n: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % n as u64) as usize
            };
            let col0 = [
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
                Value::Int(-5),
                Value::Float(-2.5),
                Value::Float(-0.0),
                Value::Int(0),
                Value::Float(0.5),
                Value::Int(3),
                Value::Float(3.0),
                Value::Int(1 << 40),
                Value::str(""),
                Value::str("abcdefg1"),
                Value::str("abcdefg2"),
                Value::str("é"),
            ];
            // Every stored unit of weight, per side: (row, mask).
            let mut live: [Vec<(Row, QuerySet)>; 2] = [Vec::new(), Vec::new()];
            let mut id = 0i64;
            let mut fresh = |next: &mut dyn FnMut(usize) -> usize| {
                id += 1;
                let c0 = col0[next(col0.len())].clone();
                Row::new(vec![c0, Value::Int(next(2) as i64), Value::Int(id % 97)])
            };
            let mut batches = Vec::new();
            // Warm-up: about 600 entries per key on the left, a few on the right.
            for _ in 0..12 {
                let l = (0..100).map(|_| (fresh(&mut next), QuerySet(1 + next(3) as u64))).collect::<Vec<_>>();
                live[0].extend(l.iter().cloned());
                let l = l.into_iter().map(|(row, mask)| DeltaRow::insert(row, mask)).collect();
                batches.push((l, Vec::new()));
            }
            let r: Vec<_> = (0..6).map(|_| (fresh(&mut next), QuerySet(1 + next(3) as u64))).collect();
            live[1].extend(r.iter().cloned());
            batches.push((Vec::new(), r.into_iter().map(|(row, mask)| DeltaRow::insert(row, mask)).collect()));
            for _ in 0..40 {
                let mut sides = (Vec::new(), Vec::new());
                for side in [0, 0, 0, 0, 0, 1] {
                    for _ in 0..next(3) {
                        let pick = |live: &Vec<(Row, QuerySet)>, i: usize, anew: bool| {
                            let (row, mask) = &live[i];
                            let row = if anew { Row::new(row.iter().cloned().collect()) } else { row.clone() };
                            (row, *mask)
                        };
                        let units = &mut live[side];
                        let dr = match next(5) {
                            0 | 1 if !units.is_empty() => {
                                let (row, mask) = pick(units, next(units.len()), next(2) == 0);
                                let i = units.iter().position(|(r, m)| *r == row && *m == mask).unwrap();
                                units.swap_remove(i);
                                DeltaRow::delete(row, mask)
                            }
                            2 if !units.is_empty() => {
                                let (row, mask) = pick(units, next(units.len()), next(2) == 0);
                                units.push((row.clone(), mask));
                                DeltaRow::insert(row, mask)
                            }
                            _ => {
                                let (row, mask) = (fresh(&mut next), QuerySet(1 + next(3) as u64));
                                units.push((row.clone(), mask));
                                DeltaRow::insert(row, mask)
                            }
                        };
                        if side == 0 { sides.0.push(dr) } else { sides.1.push(dr) }
                    }
                }
                batches.push(sides);
            }
            for (l, r) in batches {
                let (lb, rb) = (DeltaBatch::from_rows(l), DeltaBatch::from_rows(r));
                let kout = kern.execute(lb.clone(), rb.clone(), &jk, &w, &kc).unwrap();
                let rout = refr.execute(lb, rb, &ekeys, &w, &rc).unwrap();
                prop_assert_eq!(kout.rows, rout.rows);
                prop_assert_eq!(kern.left_size(), refr.left_size());
                prop_assert_eq!(kern.right_size(), refr.right_size());
            }
            let long = kern.left.slots.live_ids().len() == 2 && kern.left_size() >= 1000;
            prop_assert!(long, "two left slots of about 600 entries each");
            prop_assert_eq!(kc.total().get().to_bits(), rc.total().get().to_bits());
        }

        /// Churn surgery on a state with pending tails equals the same
        /// surgery on a state whose every slot was consolidated first.
        #[test]
        fn churn_surgery_ignores_pending_tails(
            ops in ops(300),
            cuts in proptest::collection::vec(1usize..120, 8),
            n_keys in 1i64..5,
        ) {
            let (w, c) = (CostWeights::default(), WorkCounter::new());
            let jk = keys();
            let (mut lazy, mut eager) = (JoinState::new(), JoinState::new());
            for (l, r) in batches(&ops, &cuts, n_keys) {
                let (lb, rb) = (DeltaBatch::from_rows(l), DeltaBatch::from_rows(r));
                lazy.execute(lb.clone(), rb.clone(), &jk, &w, &c).unwrap();
                eager.execute(lb, rb, &jk, &w, &c).unwrap();
            }
            // Probe every key from both sides with rows no stored mask meets
            // (consolidating each slot), then retract the probe rows (which
            // settles the slots they sat in).
            for weight in [1, -1] {
                let probes = |bit: u16| (0..n_keys).map(|k| dr(k, -1, weight, &[bit])).collect();
                let out = eager
                    .execute(DeltaBatch::from_rows(probes(62)), DeltaBatch::from_rows(probes(63)), &jk, &w, &c)
                    .unwrap();
                prop_assert!(out.is_empty());
            }
            prop_assert_eq!(lazy.left_size(), eager.left_size());
            prop_assert_eq!(lazy.right_size(), eager.right_size());

            let snapshot = |st: &JoinState| consolidate(st.snapshot_product(QueryId(0), QueryId(5)));
            prop_assert_eq!(snapshot(&lazy), snapshot(&eager));
            lazy.widen_query(QueryId(0), QueryId(5));
            eager.widen_query(QueryId(0), QueryId(5));
            prop_assert_eq!(lazy.retire_query(QueryId(1)).unwrap(), eager.retire_query(QueryId(1)).unwrap());
            prop_assert_eq!(lazy.left_size(), eager.left_size());
            prop_assert_eq!(lazy.right_size(), eager.right_size());
            prop_assert_eq!(snapshot(&lazy), snapshot(&eager));
            // The states now emit the same matches in the same order.
            let probes = |bits: &[u16]| (0..n_keys).map(|k| dr(k, -1, 1, bits)).collect();
            for (l, r) in [(probes(&[0, 2, 5]), vec![]), (vec![], probes(&[0, 2, 5]))] {
                let (lb, rb) = (DeltaBatch::from_rows(l), DeltaBatch::from_rows(r));
                let lout = lazy.execute(lb.clone(), rb.clone(), &jk, &w, &c).unwrap();
                prop_assert_eq!(lout.rows, eager.execute(lb, rb, &jk, &w, &c).unwrap().rows);
            }
        }
    }
}
