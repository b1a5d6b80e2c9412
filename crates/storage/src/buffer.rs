//! Subplan materialization buffers with per-consumer offsets.
//!
//! "When the root operator of one subplan has two or more parent operators,
//! it materializes its output into a buffer such that the parent subplans can
//! consume the intermediate results at individual frequencies. … each parent
//! subplan will track the offsets of the tuples it has processed."
//! (paper, Sec. 2.2). Base relations / delta logs are treated as buffers too.
//!
//! The paper's prototype uses a Kafka topic per buffer; here a buffer is an
//! in-memory append-only vector of [`DeltaRow`]s with explicit consumer
//! cursors, which exercises the same pull-new-since-offset code path.

use crate::row::{DeltaBatch, DeltaRow};
use ishare_common::{Error, QueryId, Result};

/// Identifies one registered consumer (parent subplan) of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConsumerId(usize);

/// What a buffer keeps resident across [`compact`](DeltaBuffer::compact)
/// calls. The policy lives on the buffer, set once at wiring time, so
/// callers can compact uniformly instead of each re-deriving which buffers
/// are safe to trim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Retain {
    /// Keep the full stream: `compact` is a no-op. Query-root buffers use
    /// this — their whole stream backs the final result views
    /// ([`all_rows`](DeltaBuffer::all_rows)).
    All,
    /// Keep only what some registered consumer still has to read; the
    /// fully-consumed prefix is dropped on `compact`, and by a pull that
    /// leaves every live cursor at the end (see
    /// [`pull`](DeltaBuffer::pull)). The default.
    #[default]
    Consumed,
}

/// An append-only delta buffer with independently paced consumers.
///
/// Offsets are *absolute* stream positions; internally the buffer may drop a
/// prefix that every registered consumer has already read ([`compact`], or a
/// [`pull`] by the last reader), in which case `rows[i]` holds the row at
/// absolute position `base + i`.
///
/// Rows move through a buffer rather than being copied: [`extend`] takes a
/// batch by value, and the pull that leaves no live reader behind hands the
/// resident rows over instead of cloning them.
///
/// [`compact`]: DeltaBuffer::compact
/// [`pull`]: DeltaBuffer::pull
/// [`extend`]: DeltaBuffer::extend
#[derive(Debug, Default)]
pub struct DeltaBuffer {
    rows: Vec<DeltaRow>,
    /// Absolute position of `rows[0]`; rows before it were compacted away.
    base: usize,
    /// `offsets[c]` = absolute position of the first row consumer `c` has
    /// NOT yet read.
    offsets: Vec<usize>,
    /// `retired[c]` = consumer `c` was dropped by query churn: it no longer
    /// reads, holds no rows resident, and its id is never reused.
    retired: Vec<bool>,
    /// Largest number of rows ever resident at once (post-compaction peak).
    high_water: usize,
    /// Compaction policy (see [`Retain`]).
    retention: Retain,
}

impl DeltaBuffer {
    /// Empty buffer with no consumers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new consumer starting at the beginning of the stream.
    ///
    /// Consumers must be registered before any rows were dropped — by
    /// [`compact`], or by a [`pull`] that released the consumed prefix: a
    /// consumer registered later would start at position 0, below the
    /// compacted base, and silently read from the wrong place. Such late
    /// registration is an error.
    ///
    /// [`compact`]: DeltaBuffer::compact
    /// [`pull`]: DeltaBuffer::pull
    pub fn register_consumer(&mut self) -> Result<ConsumerId> {
        if self.base != 0 {
            return Err(Error::InvalidDelta(format!(
                "cannot register a consumer after compaction dropped {} rows",
                self.base
            )));
        }
        self.offsets.push(0);
        self.retired.push(false);
        Ok(ConsumerId(self.offsets.len() - 1))
    }

    /// Register a consumer starting at the *current end* of the stream —
    /// it sees only rows appended after this call. Unlike
    /// [`register_consumer`](Self::register_consumer) this is safe at any
    /// time, compacted or not: the cursor starts at `len()`, which is never
    /// below the compacted base. Query admission uses this to wire a new
    /// query's private cone onto a live buffer, shared subplan or base
    /// table, whose history arrives as a seed instead of by re-reading.
    pub fn register_consumer_at_end(&mut self) -> ConsumerId {
        self.offsets.push(self.len());
        self.retired.push(false);
        ConsumerId(self.offsets.len() - 1)
    }

    /// Retire a consumer: it stops reading and stops holding rows resident
    /// (compaction no longer waits for it). Query removal retires the
    /// cursors of garbage-collected subplans so the buffers they read can
    /// shrink again. Retiring twice is an error, as is an unknown id.
    pub fn retire_consumer(&mut self, c: ConsumerId) -> Result<()> {
        let slot = self
            .retired
            .get_mut(c.0)
            .ok_or_else(|| Error::NotFound(format!("buffer consumer #{}", c.0)))?;
        if *slot {
            return Err(Error::InvalidDelta(format!("buffer consumer #{} already retired", c.0)));
        }
        *slot = true;
        Ok(())
    }

    /// Drop every resident row (the owning subplan is being garbage
    /// collected), returning how many rows were freed. The stream position
    /// keeps counting from where it was.
    pub fn drain(&mut self) -> usize {
        let n = self.rows.len();
        self.base += n;
        self.rows.clear();
        n
    }

    /// Add `q_new`'s bit to every resident row whose mask contains
    /// `q_ref` (admission onto a *shared subplan* buffer: the witness
    /// query `q_ref` has seen exactly the rows `q_new` would have, so
    /// pending rows visible to the witness become visible to the new
    /// query too). Returns rows widened.
    pub fn widen_where(&mut self, q_ref: QueryId, q_new: QueryId) -> usize {
        let mut n = 0;
        for r in &mut self.rows {
            if r.mask.contains(q_ref) {
                r.mask.insert(q_new);
                n += 1;
            }
        }
        n
    }

    /// Set the compaction policy. Called once at wiring time by whoever
    /// builds the dataflow (drivers mark query-root buffers [`Retain::All`]).
    pub fn set_retention(&mut self, retention: Retain) {
        self.retention = retention;
    }

    /// Total rows ever appended (compacted rows included).
    pub fn len(&self) -> usize {
        self.base + self.rows.len()
    }

    /// Rows currently resident in memory.
    pub fn retained_len(&self) -> usize {
        self.rows.len()
    }

    /// Rows dropped by [`compact`](DeltaBuffer::compact) so far.
    pub fn compacted(&self) -> usize {
        self.base
    }

    /// Largest number of rows ever resident at once. This is the buffer's
    /// memory footprint peak: without compaction it equals [`len`], with
    /// per-wavefront compaction it tracks the widest consumer lag.
    ///
    /// [`len`]: DeltaBuffer::len
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// `true` iff nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one row.
    pub fn push(&mut self, row: DeltaRow) {
        self.rows.push(row);
        self.high_water = self.high_water.max(self.rows.len());
    }

    /// Append a whole batch, moving its rows in.
    pub fn extend(&mut self, batch: DeltaBatch) {
        if self.rows.is_empty() {
            self.rows = batch.rows;
        } else {
            self.rows.extend(batch.rows);
        }
        self.high_water = self.high_water.max(self.rows.len());
    }

    /// Append a copy of a whole batch.
    pub fn append(&mut self, batch: &DeltaBatch) {
        self.extend(batch.clone());
    }

    /// All rows appended so far (used by batch/one-shot execution, final
    /// query views, and tests). Only callable while the full stream is still
    /// resident — i.e. on buffers that were never compacted, such as query
    /// root buffers (no consumers) and batch-mode buffers.
    pub fn all_rows(&self) -> &[DeltaRow] {
        assert_eq!(self.base, 0, "all_rows() on a compacted buffer would miss dropped rows");
        &self.rows
    }

    /// Rows the consumer has not yet seen, *without* advancing its cursor.
    pub fn peek(&self, c: ConsumerId) -> Result<&[DeltaRow]> {
        let off = self.offset(c)?;
        Ok(&self.rows[off - self.base..])
    }

    /// Rows the consumer has not yet seen, advancing its cursor to the end.
    /// This is the pull a parent subplan performs at the start of each of its
    /// incremental executions.
    ///
    /// On a [`Retain::Consumed`] buffer, a pull that leaves every live
    /// cursor at the end is the last read of every resident row: it hands
    /// the rows over instead of cloning them and drops the prefix the other
    /// consumers had already read — a [`compact`](Self::compact) done early.
    /// Afterwards nothing is resident and later registration through
    /// [`register_consumer`](Self::register_consumer) errors. Any other pull
    /// copies its rows and keeps them resident for the lagging consumers.
    pub fn pull(&mut self, c: ConsumerId) -> Result<DeltaBatch> {
        let start = self.offset(c)? - self.base;
        let end = self.len();
        self.offsets[c.0] = end;
        if self.retention == Retain::Consumed && self.min_live_offset() == Some(end) {
            let mut rows = std::mem::take(&mut self.rows);
            rows.drain(..start);
            self.base = end;
            return Ok(DeltaBatch::from_rows(rows));
        }
        Ok(DeltaBatch::from_rows(self.rows[start..].to_vec()))
    }

    /// Current cursor of a consumer (absolute stream position).
    pub fn offset(&self, c: ConsumerId) -> Result<usize> {
        if self.retired.get(c.0) == Some(&true) {
            return Err(Error::InvalidDelta(format!("buffer consumer #{} is retired", c.0)));
        }
        self.offsets
            .get(c.0)
            .copied()
            .ok_or_else(|| Error::NotFound(format!("buffer consumer #{}", c.0)))
    }

    /// Rows pending for a consumer (its lag behind the head of the stream).
    pub fn pending(&self, c: ConsumerId) -> Result<usize> {
        Ok(self.len() - self.offset(c)?)
    }

    /// Lag of every registered consumer, indexed by registration order.
    /// Retired consumers report 0 (they hold nothing resident).
    pub fn lags(&self) -> Vec<usize> {
        let len = self.len();
        self.offsets
            .iter()
            .zip(&self.retired)
            .map(|(&off, &dead)| if dead { 0 } else { len - off })
            .collect()
    }

    /// The lowest cursor among consumers that still read. Retired consumers
    /// never read again; only active cursors pin rows.
    fn min_live_offset(&self) -> Option<usize> {
        self.offsets.iter().zip(&self.retired).filter(|(_, &dead)| !dead).map(|(&off, _)| off).min()
    }

    /// Drop the prefix every registered consumer has already read, returning
    /// the number of rows freed. A consumer never re-reads below its cursor,
    /// so this cannot change what any future `pull`/`peek` observes. A pull
    /// by the last reader does the same on the spot (see [`Self::pull`]), so
    /// on a buffer whose consumers all keep up this finds nothing to drop.
    ///
    /// No-op on [`Retain::All`] buffers and on buffers with no consumers
    /// (nothing is known to be consumed), so callers can compact every
    /// buffer uniformly.
    pub fn compact(&mut self) -> usize {
        if self.retention == Retain::All {
            return 0;
        }
        let Some(min_off) = self.min_live_offset() else {
            return 0;
        };
        let drop = min_off - self.base;
        if drop > 0 {
            self.rows.drain(..drop);
            self.base = min_off;
        }
        drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use ishare_common::{QueryId, QuerySet, Value};

    fn dr(v: i64) -> DeltaRow {
        DeltaRow::insert(Row::new(vec![Value::Int(v)]), QuerySet::single(QueryId(0)))
    }

    #[test]
    fn independent_consumers() {
        let mut b = DeltaBuffer::new();
        let c1 = b.register_consumer().unwrap();
        let c2 = b.register_consumer().unwrap();
        b.push(dr(1));
        b.push(dr(2));

        let got1 = b.pull(c1).unwrap();
        assert_eq!(got1.len(), 2);
        assert_eq!(b.pending(c1).unwrap(), 0);
        assert_eq!(b.pending(c2).unwrap(), 2);

        b.push(dr(3));
        assert_eq!(b.pull(c1).unwrap().len(), 1);
        // c2 is lazier: it sees all three at once.
        let got2 = b.pull(c2).unwrap();
        assert_eq!(got2.len(), 3);
        assert_eq!(got2.rows[2].row.get(0), &Value::Int(3));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut b = DeltaBuffer::new();
        let c = b.register_consumer().unwrap();
        b.push(dr(1));
        assert_eq!(b.peek(c).unwrap().len(), 1);
        assert_eq!(b.peek(c).unwrap().len(), 1);
        assert_eq!(b.pull(c).unwrap().len(), 1);
        assert_eq!(b.peek(c).unwrap().len(), 0);
    }

    #[test]
    fn unknown_consumer_errors() {
        let mut a = DeltaBuffer::new();
        let mut bsecond = DeltaBuffer::new();
        let _ = bsecond.register_consumer().unwrap();
        let c_other = bsecond.register_consumer().unwrap();
        // `a` has no consumer with that id.
        assert!(a.pull(c_other).is_err());
        assert!(a.peek(c_other).is_err());
    }

    #[test]
    fn compact_drops_only_fully_consumed_prefix() {
        let mut b = DeltaBuffer::new();
        let c1 = b.register_consumer().unwrap();
        let c2 = b.register_consumer().unwrap();
        for v in 0..6 {
            b.push(dr(v));
        }
        b.pull(c1).unwrap(); // c1 at 6
                             // c2 still at 0: nothing can be dropped.
        assert_eq!(b.compact(), 0);
        assert_eq!(b.retained_len(), 6);

        // c2 overtakes c1, which still has to read rows 6 and 7.
        b.push(dr(6));
        b.push(dr(7));
        let got2 = b.pull(c2).unwrap();
        assert_eq!(got2.len(), 8);
        assert_eq!(b.retained_len(), 8, "c1 lags, so the pull copied");
        assert_eq!(b.compact(), 6);
        assert_eq!(b.retained_len(), 2);
        assert_eq!(b.len(), 8);
        assert_eq!(b.compacted(), 6);

        // The stream continues seamlessly at absolute position 6.
        assert_eq!(b.pending(c1).unwrap(), 2);
        let got1 = b.pull(c1).unwrap();
        assert_eq!(got1.len(), 2);
        assert_eq!(got1.rows[0].row.get(0), &Value::Int(6));
        assert_eq!(b.compact(), 0, "the last reader's pull already released them");
        assert_eq!(b.compacted(), 8);
    }

    #[test]
    fn compact_is_noop_without_consumers() {
        let mut b = DeltaBuffer::new();
        b.push(dr(1));
        b.push(dr(2));
        assert_eq!(b.compact(), 0);
        assert_eq!(b.all_rows().len(), 2);
    }

    #[test]
    fn high_water_tracks_resident_peak() {
        let mut b = DeltaBuffer::new();
        let c = b.register_consumer().unwrap();
        for v in 0..4 {
            b.push(dr(v));
        }
        assert_eq!(b.high_water(), 4);
        b.pull(c).unwrap();
        b.compact();
        b.push(dr(4));
        // Peak stays at 4 even though only 1 row is resident now.
        assert_eq!(b.retained_len(), 1);
        assert_eq!(b.high_water(), 4);
        for v in 5..10 {
            b.push(dr(v));
        }
        assert_eq!(b.high_water(), 6);
    }

    #[test]
    fn lags_report_per_consumer_backlog() {
        let mut b = DeltaBuffer::new();
        let c1 = b.register_consumer().unwrap();
        let _c2 = b.register_consumer().unwrap();
        b.push(dr(1));
        b.push(dr(2));
        b.pull(c1).unwrap();
        assert_eq!(b.lags(), vec![0, 2]);
    }

    #[test]
    fn retain_all_makes_compact_a_noop() {
        let mut b = DeltaBuffer::new();
        b.set_retention(Retain::All);
        let c = b.register_consumer().unwrap();
        for v in 0..5 {
            b.push(dr(v));
        }
        b.pull(c).unwrap();
        assert_eq!(b.compact(), 0);
        assert_eq!(b.retained_len(), 5);
        assert_eq!(b.all_rows().len(), 5, "full stream still backs result views");
        // Switching back re-enables prefix dropping.
        b.set_retention(Retain::Consumed);
        assert_eq!(b.compact(), 5);
    }

    #[test]
    fn late_register_after_compaction_errors() {
        let mut b = DeltaBuffer::new();
        let c = b.register_consumer().unwrap();
        b.push(dr(1));
        b.pull(c).unwrap(); // the only reader: releases the row
        assert_eq!(b.compacted(), 1);
        assert!(b.register_consumer().is_err(), "would silently read from the compacted base");
        // Before any rows are dropped, late registration is still fine.
        let mut fresh = DeltaBuffer::new();
        fresh.push(dr(1));
        assert_eq!(fresh.compact(), 0);
        assert!(fresh.register_consumer().is_ok());
    }

    #[test]
    fn register_at_end_sees_only_future_rows() {
        let mut b = DeltaBuffer::new();
        let c0 = b.register_consumer().unwrap();
        b.push(dr(1));
        b.push(dr(2));
        b.pull(c0).unwrap();
        assert_eq!(b.compacted(), 2);
        // Plain registration is rejected after compaction, end-registration
        // always works.
        assert!(b.register_consumer().is_err());
        let c1 = b.register_consumer_at_end();
        assert_eq!(b.pending(c1).unwrap(), 0);
        b.push(dr(3));
        let got = b.pull(c1).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got.rows[0].row.get(0), &Value::Int(3));
    }

    #[test]
    fn last_reader_pull_hands_rows_over() {
        let mut b = DeltaBuffer::new();
        let c = b.register_consumer().unwrap();
        for v in 0..3 {
            b.push(dr(v));
        }
        assert_eq!(b.pull(c).unwrap().len(), 3);
        assert_eq!(b.retained_len(), 0, "a single consumer's pull releases every row");
        assert_eq!(b.len(), 3);
        // A retired sibling does not hold rows back either.
        let mut b = DeltaBuffer::new();
        let live = b.register_consumer().unwrap();
        let dead = b.register_consumer().unwrap();
        b.push(dr(0));
        b.retire_consumer(dead).unwrap();
        b.pull(live).unwrap();
        assert_eq!(b.retained_len(), 0);
    }

    #[test]
    fn retain_all_buffers_never_release() {
        let mut b = DeltaBuffer::new();
        b.set_retention(Retain::All);
        let c = b.register_consumer().unwrap();
        for v in 0..3 {
            b.push(dr(v));
        }
        assert_eq!(b.pull(c).unwrap().len(), 3);
        assert_eq!(b.retained_len(), 3);
        b.push(dr(3));
        assert_eq!(b.pull(c).unwrap().len(), 1);
        assert_eq!(b.all_rows().len(), 4, "the full stream stays resident");
        assert!(b.register_consumer().is_ok());
    }

    #[test]
    fn retired_consumers_release_their_prefix() {
        let mut b = DeltaBuffer::new();
        let live = b.register_consumer().unwrap();
        let dead = b.register_consumer().unwrap();
        for v in 0..4 {
            b.push(dr(v));
        }
        b.pull(live).unwrap();
        // `dead` lags at 0 and pins everything.
        assert_eq!(b.compact(), 0);
        b.retire_consumer(dead).unwrap();
        assert_eq!(b.lags(), vec![0, 0]);
        assert_eq!(b.compact(), 4, "retired cursor no longer pins rows");
        assert!(b.pull(dead).is_err(), "retired consumers cannot read");
        assert!(b.retire_consumer(dead).is_err(), "double retire rejected");
        // Live consumer is unaffected.
        b.push(dr(9));
        assert_eq!(b.pull(live).unwrap().len(), 1);
    }

    #[test]
    fn drain_frees_resident_rows_and_keeps_position() {
        let mut b = DeltaBuffer::new();
        b.push(dr(1));
        b.push(dr(2));
        assert_eq!(b.drain(), 2);
        assert_eq!(b.retained_len(), 0);
        assert_eq!(b.len(), 2, "stream position keeps counting");
        b.push(dr(3));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn widen_adds_query_bits() {
        let q0 = QueryId(0);
        let q1 = QueryId(1);
        let q2 = QueryId(2);
        let mut b = DeltaBuffer::new();
        b.push(DeltaRow::insert(Row::new(vec![Value::Int(1)]), QuerySet::single(q0)));
        b.push(DeltaRow::insert(Row::new(vec![Value::Int(2)]), QuerySet::single(q1)));
        assert_eq!(b.widen_where(q0, q2), 1);
        assert!(b.all_rows()[0].mask.contains(q2));
        assert!(!b.all_rows()[1].mask.contains(q2));
    }
}
