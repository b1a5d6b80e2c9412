//! Partitioned append-only topics with bounded rings and watermarks.
//!
//! A [`Topic`] is the in-process analog of one Kafka topic: records are
//! assigned to partitions by event time (`seq % partitions`), each
//! [`Partition`] is a bounded ring with absolute offsets, and the producer
//! stamps every push with its current *frontier* — the event time below
//! which every record is guaranteed to have arrived. Pushing into a full
//! partition fails with [`PushError::Full`]; the producer must let the
//! consumer drain before retrying (backpressure).

use ishare_common::{Error, Result};
use ishare_storage::Row;
use std::collections::VecDeque;

/// One ingested record: a weighted row delta stamped with its event time.
///
/// `seq` is the record's position in the original feed (its event time in
/// arrival-simulator units); arrival order may differ from `seq` order when
/// the producer applies a jittered arrival model.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Event time: the record's index in event-time order, unique per topic.
    pub seq: u64,
    /// The tuple.
    pub row: Row,
    /// Signed multiset weight (`+1` insert, `-1` delete).
    pub weight: i64,
}

/// Why a producer push was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The target partition's ring is at capacity; drain consumers first.
    Full,
}

/// A bounded ring of records with one consumer cursor and a watermark.
///
/// Offsets are absolute log positions: `appended` counts every record ever
/// pushed to this partition, `consumed` is the consumer's cursor, and the
/// ring holds positions `[appended - ring.len(), appended)`. Records below
/// `consumed` are dropped eagerly (single consumer), which is what frees
/// capacity and releases producer backpressure.
#[derive(Debug, Clone)]
pub struct Partition {
    ring: VecDeque<Record>,
    capacity: usize,
    /// Total records ever pushed (absolute head offset).
    appended: u64,
    /// Consumer cursor: absolute offset of the first unread record.
    consumed: u64,
    /// Event-time frontier: every record with `seq < frontier` has arrived
    /// *topic-wide* (the producer stamps its frontier onto each push and
    /// broadcasts it on flush).
    frontier: u64,
    /// Largest ring occupancy ever observed.
    high_water: usize,
}

impl Partition {
    fn new(capacity: usize) -> Self {
        Partition {
            ring: VecDeque::new(),
            capacity,
            appended: 0,
            consumed: 0,
            frontier: 0,
            high_water: 0,
        }
    }

    /// Absolute offset of the next record to be appended.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Consumer cursor (absolute offset of the first unread record).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Records appended but not yet consumed.
    pub fn lag(&self) -> u64 {
        self.appended - self.consumed
    }

    /// Event-time frontier carried by this partition.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Largest ring occupancy ever observed (memory peak).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    fn push(&mut self, rec: Record, frontier: u64) -> std::result::Result<(), PushError> {
        if self.ring.len() >= self.capacity {
            return Err(PushError::Full);
        }
        self.ring.push_back(rec);
        self.appended += 1;
        self.frontier = self.frontier.max(frontier);
        self.high_water = self.high_water.max(self.ring.len());
        Ok(())
    }

    /// Read and drop everything between the consumer cursor and the head.
    /// The single-consumer cursor advances to `appended`, freeing ring
    /// capacity immediately (this is what unblocks a stalled producer).
    fn drain(&mut self, out: &mut Vec<Record>) {
        out.extend(self.ring.drain(..));
        self.consumed = self.appended;
    }
}

/// A partitioned append-only topic with a single consumer group.
#[derive(Debug, Clone)]
pub struct Topic {
    partitions: Vec<Partition>,
}

impl Topic {
    /// New topic with `partitions` bounded rings of `capacity` records each.
    /// Errors when either is zero.
    pub fn new(partitions: usize, capacity: usize) -> Result<Topic> {
        if partitions == 0 {
            return Err(Error::InvalidConfig("topic needs at least one partition".into()));
        }
        if capacity == 0 {
            return Err(Error::InvalidConfig("partition capacity must be at least 1".into()));
        }
        Ok(Topic { partitions: (0..partitions).map(|_| Partition::new(capacity)).collect() })
    }

    /// The partition a record with event time `seq` is routed to.
    pub fn partition_of(&self, seq: u64) -> usize {
        (seq % self.partitions.len() as u64) as usize
    }

    /// Partition views (offsets, lags, frontiers, high-water marks).
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Append `rec` to its partition, stamping the producer's current
    /// `frontier`. Fails with [`PushError::Full`] when the partition ring is
    /// at capacity — the producer must let the consumer drain and retry.
    pub fn try_push(&mut self, rec: Record, frontier: u64) -> std::result::Result<(), PushError> {
        let p = self.partition_of(rec.seq);
        self.partitions[p].push(rec, frontier)
    }

    /// Broadcast the producer frontier to every partition (the analog of a
    /// watermark heartbeat: partitions that saw no recent push still learn
    /// that earlier event times are complete).
    pub fn broadcast_frontier(&mut self, frontier: u64) {
        for p in &mut self.partitions {
            p.frontier = p.frontier.max(frontier);
        }
    }

    /// The topic-wide safe frontier: the minimum over partition frontiers.
    /// Every record with `seq < safe_frontier()` has been appended to the
    /// topic (though it may still sit unread in a ring).
    pub fn safe_frontier(&self) -> u64 {
        self.partitions.iter().map(|p| p.frontier).min().unwrap_or(0)
    }

    /// Drain every partition's unread records into `out` (in partition
    /// order, arrival order within a partition) and advance the consumer
    /// cursors. Returns the number of records drained.
    pub fn drain_into(&mut self, out: &mut Vec<Record>) -> usize {
        let before = out.len();
        for p in &mut self.partitions {
            p.drain(out);
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::Value;

    fn rec(seq: u64) -> Record {
        Record { seq, row: Row::new(vec![Value::Int(seq as i64)]), weight: 1 }
    }

    #[test]
    fn zero_partitions_or_capacity_rejected() {
        assert!(Topic::new(0, 4).is_err());
        assert!(Topic::new(2, 0).is_err());
    }

    #[test]
    fn routes_by_seq_modulo() {
        let mut t = Topic::new(3, 8).unwrap();
        for s in 0..9 {
            t.try_push(rec(s), s + 1).unwrap();
        }
        for (i, p) in t.partitions().iter().enumerate() {
            assert_eq!(p.appended(), 3, "partition {i}");
        }
        assert_eq!(t.partition_of(7), 1);
    }

    #[test]
    fn full_partition_rejects_push_until_drained() {
        let mut t = Topic::new(1, 2).unwrap();
        t.try_push(rec(0), 1).unwrap();
        t.try_push(rec(1), 2).unwrap();
        assert_eq!(t.try_push(rec(2), 3), Err(PushError::Full));
        assert_eq!(t.partitions()[0].high_water(), 2);

        let mut out = Vec::new();
        assert_eq!(t.drain_into(&mut out), 2);
        assert_eq!(out.len(), 2);
        assert_eq!(t.partitions()[0].lag(), 0);
        t.try_push(rec(2), 3).unwrap();
        assert_eq!(t.partitions()[0].appended(), 3);
        assert_eq!(t.partitions()[0].consumed(), 2);
    }

    #[test]
    fn frontier_broadcast_reaches_idle_partitions() {
        let mut t = Topic::new(2, 8).unwrap();
        // Only partition 0 sees pushes (even seqs).
        t.try_push(rec(0), 1).unwrap();
        t.try_push(rec(2), 3).unwrap();
        assert_eq!(t.safe_frontier(), 0, "partition 1 has no watermark yet");
        t.broadcast_frontier(3);
        assert_eq!(t.safe_frontier(), 3);
        // Frontiers never move backwards.
        t.broadcast_frontier(1);
        assert_eq!(t.safe_frontier(), 3);
    }

    #[test]
    fn drain_preserves_arrival_order_within_partition() {
        let mut t = Topic::new(1, 16).unwrap();
        for s in [2u64, 0, 1, 3] {
            t.try_push(rec(s), 0).unwrap();
        }
        let mut out = Vec::new();
        t.drain_into(&mut out);
        let seqs: Vec<u64> = out.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 0, 1, 3]);
    }
}
