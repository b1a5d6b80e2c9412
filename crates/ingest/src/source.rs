//! The driver-facing ingest source: one topic per base relation, a
//! producer pump with backpressure, and a watermark-cut consumer.
//!
//! [`Source::advance_to`] is the replacement for the drivers' old
//! "materialize the feed, slice a prefix" step: it *pumps* the topic's
//! jittered arrival stream into the partitioned rings (stalling on full
//! partitions), *drains* the rings into a per-topic reorder buffer, and
//! *releases* rows in event-time order up to the wavefront's cut — every
//! row with event time below `num/den` of the topic's total. Because the
//! cut is an event-time threshold and release order is event-time order,
//! the delivered batches are byte-identical to the in-order feed's
//! prefixes for any jitter seed, which is what keeps the drivers'
//! bit-identical determinism contract intact.

use crate::commit::{ChurnRecord, CommitEntry, CommitLog, TopicCommit};
use crate::jitter::jittered_arrivals;
use crate::topic::{PushError, Record, Topic};
use ishare_common::{Error, Result, TableId};
use ishare_storage::Row;
use std::collections::{BTreeMap, HashMap};

/// Configuration of a [`Source`]: topology, capacity, and arrival model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceConfig {
    /// Partitions per topic (≥ 1).
    pub partitions: usize,
    /// Ring capacity per partition, in records (≥ 1). Small capacities
    /// exercise producer backpressure; results are unaffected.
    pub capacity: usize,
    /// Maximum event-time displacement of the arrival permutation
    /// (0 = in-order arrival).
    pub jitter: u64,
    /// Seed of the arrival-jitter model.
    pub seed: u64,
}

impl Default for SourceConfig {
    fn default() -> Self {
        SourceConfig { partitions: 2, capacity: 1024, jitter: 0, seed: 0 }
    }
}

/// Ingest-side gauges for one partition's bounded ring, read at any point of
/// a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    /// Records ever appended.
    pub appended: u64,
    /// Appended-but-unconsumed records.
    pub lag: u64,
    /// Peak ring occupancy.
    pub high_water: usize,
}

/// Ingest-side gauges for one topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicStats {
    /// The base relation this topic feeds.
    pub table: TableId,
    /// Total records of the feed.
    pub total: u64,
    /// Records released to the engine so far.
    pub delivered: u64,
    /// Times the producer pump hit a full partition and had to yield.
    pub stall_ticks: u64,
    /// Records currently held in the consumer's reorder buffer.
    pub reorder_buffered: usize,
    /// Peak reorder-buffer occupancy over the run — how far out-of-order
    /// the jittered arrivals actually got before the watermark released
    /// them (0 means perfectly in-order delivery).
    pub reorder_high_water: usize,
    /// Driver polls answered (`advance_to` calls), a deterministic count:
    /// one per wavefront per topic, however the run is threaded or resumed.
    pub polls: u64,
    /// Per-partition gauges.
    pub partitions: Vec<RingStats>,
}

struct TopicState {
    topic: Topic,
    /// The feed in jittered arrival order. `Record::seq` is the event time.
    arrivals: Vec<Record>,
    /// `suffix_min[i]` = smallest event time among `arrivals[i..]`
    /// (`arrivals.len()` entries plus a sentinel of `total`). After pushing
    /// the first `cursor` arrivals, every event time below
    /// `suffix_min[cursor]` is guaranteed in the topic — the producer's
    /// frontier watermark.
    suffix_min: Vec<u64>,
    cursor: usize,
    /// Reorder buffer: drained records not yet releasable (event time at or
    /// above the safe frontier or the wavefront cut).
    pending: BTreeMap<u64, (Row, i64)>,
    /// Event-time cut delivered so far: rows with `seq < delivered` have
    /// been handed to the driver, in event-time order.
    delivered: u64,
    stall_ticks: u64,
    reorder_high_water: usize,
    polls: u64,
}

impl TopicState {
    fn new(feed: &[(Row, i64)], cfg: &SourceConfig, topic_seed: u64) -> Result<TopicState> {
        let order = jittered_arrivals(feed.len(), cfg.jitter, topic_seed);
        let arrivals: Vec<Record> = order
            .iter()
            .map(|&seq| {
                let (row, weight) = &feed[seq as usize];
                Record { seq, row: row.clone(), weight: *weight }
            })
            .collect();
        let mut suffix_min = vec![feed.len() as u64; arrivals.len() + 1];
        for i in (0..arrivals.len()).rev() {
            suffix_min[i] = suffix_min[i + 1].min(arrivals[i].seq);
        }
        Ok(TopicState {
            topic: Topic::new(cfg.partitions, cfg.capacity)?,
            arrivals,
            suffix_min,
            cursor: 0,
            pending: BTreeMap::new(),
            delivered: 0,
            stall_ticks: 0,
            reorder_high_water: 0,
            polls: 0,
        })
    }

    fn total(&self) -> u64 {
        self.arrivals.len() as u64
    }

    /// Pump, drain, and release until every row with event time below
    /// `num/den · total` has been handed to `sink`, in event-time order.
    /// A released weight other than ±1 is an error: the engine's feeds
    /// carry inserts and deletes only, and joins multiply weights.
    fn advance_to(
        &mut self,
        table: TableId,
        num: u32,
        den: u32,
        mut sink: impl FnMut(Row, i64),
    ) -> Result<()> {
        self.polls += 1;
        let target = (num as u64 * self.total()) / den as u64;
        let mut drained: Vec<Record> = Vec::new();
        while self.delivered < target {
            let before = (self.cursor, self.delivered);
            // Pump: push arrivals until the producer frontier covers the
            // cut. A full partition is backpressure — count the stall and
            // yield to the consumer below, which drains the rings.
            while self.suffix_min[self.cursor] < target && self.cursor < self.arrivals.len() {
                let rec = self.arrivals[self.cursor].clone();
                match self.topic.try_push(rec, self.suffix_min[self.cursor + 1]) {
                    Ok(()) => self.cursor += 1,
                    Err(PushError::Full) => {
                        self.stall_ticks += 1;
                        break;
                    }
                }
            }
            self.topic.broadcast_frontier(self.suffix_min[self.cursor]);

            // Drain: consume the rings into the reorder buffer (this is
            // what frees partition capacity and unblocks the producer).
            drained.clear();
            self.topic.drain_into(&mut drained);
            for rec in drained.drain(..) {
                self.pending.insert(rec.seq, (rec.row, rec.weight));
            }
            self.reorder_high_water = self.reorder_high_water.max(self.pending.len());

            // Release: hand over everything below both the safe frontier
            // (all partitions agree it has fully arrived) and the cut.
            let safe = self.topic.safe_frontier().min(target);
            while let Some(entry) = self.pending.first_entry() {
                if *entry.key() >= safe {
                    break;
                }
                let (seq, (row, weight)) = entry.remove_entry();
                debug_assert_eq!(seq, self.delivered, "release must be gapless in event time");
                if !matches!(weight, 1 | -1) {
                    return Err(Error::InvalidDelta(format!(
                        "table {table} offset {seq}: weight {weight} is not +1 (insert) or -1 (delete)"
                    )));
                }
                sink(row, weight);
                self.delivered += 1;
            }

            if (self.cursor, self.delivered) == before {
                return Err(Error::InvalidConfig(format!(
                    "ingest pump stalled without progress (delivered {}, cut {target})",
                    self.delivered
                )));
            }
        }
        Ok(())
    }

    fn stats(&self, table: TableId) -> TopicStats {
        TopicStats {
            table,
            total: self.total(),
            delivered: self.delivered,
            stall_ticks: self.stall_ticks,
            reorder_buffered: self.pending.len(),
            reorder_high_water: self.reorder_high_water,
            polls: self.polls,
            partitions: self
                .topic
                .partitions()
                .iter()
                .map(|p| RingStats {
                    appended: p.appended(),
                    lag: p.lag(),
                    high_water: p.high_water(),
                })
                .collect(),
        }
    }
}

/// An in-process ingest source: one partitioned topic per base relation,
/// plus the commit log of everything the drivers consumed.
pub struct Source {
    topics: BTreeMap<TableId, TopicState>,
    log: CommitLog,
}

impl Source {
    /// Build a source over `feeds` (one `(row, weight)` feed per base
    /// relation, in event-time order) with the given topology and arrival
    /// model. The per-topic jitter streams are seeded from `cfg.seed` and
    /// the table id, so a source rebuilt from the same feeds and config
    /// replays identically — the property resume relies on.
    pub fn new(feeds: &HashMap<TableId, Vec<(Row, i64)>>, cfg: SourceConfig) -> Result<Source> {
        let mut topics = BTreeMap::new();
        for (t, feed) in feeds {
            topics.insert(*t, TopicState::new(feed, &cfg, cfg.seed ^ (t.0 as u64) << 17)?);
        }
        Ok(Source { topics, log: CommitLog::new() })
    }

    /// An in-order source (single partition, effectively unbounded rings,
    /// no jitter): the adapter the `Vec`-fed driver entry points use.
    pub fn in_order(feeds: &HashMap<TableId, Vec<(Row, i64)>>) -> Source {
        Source::new(feeds, SourceConfig { partitions: 1, capacity: usize::MAX, jitter: 0, seed: 0 })
            .expect("in-order config is always valid")
    }

    /// Advance table `t`'s topic to arrival fraction `num/den`, handing each
    /// newly released `(row, weight)` delta to `sink` in event-time order.
    /// Unknown tables are empty topics (no-op), matching the `Vec` drivers'
    /// treatment of missing feeds. Releasing a weight other than ±1 is an
    /// [`Error::InvalidDelta`] naming the table, offset and weight.
    pub fn advance_to(
        &mut self,
        t: TableId,
        num: u32,
        den: u32,
        sink: impl FnMut(Row, i64),
    ) -> Result<()> {
        match self.topics.get_mut(&t) {
            Some(ts) => ts.advance_to(t, num, den, sink),
            None => Ok(()),
        }
    }

    /// Every `(row, weight)` delta [`Self::advance_to`] has released for
    /// table `t` so far, in event-time order: the topic read back from
    /// offset 0, as a consumer that joins late reads it. The released rows
    /// are the event times below the delivered cut, all of them among the
    /// pushed arrivals. Empty for an unknown table.
    pub fn released(&self, t: TableId) -> Vec<(Row, i64)> {
        let Some(ts) = self.topics.get(&t) else { return Vec::new() };
        let mut recs: Vec<&Record> =
            ts.arrivals[..ts.cursor].iter().filter(|r| r.seq < ts.delivered).collect();
        recs.sort_unstable_by_key(|r| r.seq);
        recs.into_iter().map(|r| (r.row.clone(), r.weight)).collect()
    }

    /// Commit every topic's consumer state at a wavefront boundary,
    /// appending to (and returning) the new entry of the commit log.
    /// `paces` records the pace configuration that was in effect during the
    /// wavefront, so adaptive runs can verify replayed pace switches.
    pub fn commit(&mut self, wavefront: usize, num: u32, den: u32, paces: &[u32]) -> &CommitEntry {
        self.commit_with_churn(wavefront, num, den, paces, Vec::new())
    }

    /// [`Self::commit`] plus the query-churn events applied at this
    /// boundary, in application order. Churn is committed *with* the
    /// boundary it took effect at, so a resumed run replays admissions and
    /// removals at exactly the same wavefronts.
    pub fn commit_with_churn(
        &mut self,
        wavefront: usize,
        num: u32,
        den: u32,
        paces: &[u32],
        churn: Vec<ChurnRecord>,
    ) -> &CommitEntry {
        let topics = self
            .topics
            .iter()
            .map(|(t, ts)| {
                (
                    format!("t{}", t.0),
                    TopicCommit {
                        delivered: ts.delivered,
                        offsets: ts.topic.partitions().iter().map(|p| p.consumed()).collect(),
                    },
                )
            })
            .collect();
        self.log.entries.push(CommitEntry {
            wavefront,
            num,
            den,
            paces: paces.to_vec(),
            churn,
            topics,
        });
        self.log.entries.last().expect("just pushed")
    }

    /// The commit log accumulated so far.
    pub fn log(&self) -> &CommitLog {
        &self.log
    }

    /// Ingest gauges per topic, ordered by table id.
    pub fn stats(&self) -> Vec<TopicStats> {
        self.topics.iter().map(|(t, ts)| ts.stats(*t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::Value;

    fn feed(n: usize) -> Vec<(Row, i64)> {
        (0..n).map(|i| (Row::new(vec![Value::Int(i as i64)]), 1i64)).collect()
    }

    fn feeds(n: usize) -> HashMap<TableId, Vec<(Row, i64)>> {
        [(TableId(0), feed(n))].into_iter().collect()
    }

    fn collect_advance(src: &mut Source, num: u32, den: u32) -> Vec<i64> {
        let mut got = Vec::new();
        src.advance_to(TableId(0), num, den, |row, _w| {
            got.push(row.get(0).as_i64().unwrap());
        })
        .unwrap();
        got
    }

    #[test]
    fn in_order_source_releases_exact_prefixes() {
        let mut src = Source::in_order(&feeds(10));
        assert_eq!(collect_advance(&mut src, 1, 4), vec![0, 1]);
        assert_eq!(collect_advance(&mut src, 1, 2), vec![2, 3, 4]);
        assert_eq!(collect_advance(&mut src, 1, 2), Vec::<i64>::new(), "idempotent");
        assert_eq!(collect_advance(&mut src, 1, 1), vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn jittered_source_matches_in_order_cuts() {
        for (jitter, partitions, capacity) in [(3u64, 1usize, 4usize), (7, 3, 2), (16, 2, 1024)] {
            let cfg = SourceConfig { partitions, capacity, jitter, seed: 11 };
            let mut src = Source::new(&feeds(37), cfg).unwrap();
            let mut all = Vec::new();
            for num in 1..=5u32 {
                let batch = collect_advance(&mut src, num, 5);
                all.extend(batch);
            }
            assert_eq!(
                all,
                (0..37).collect::<Vec<i64>>(),
                "jitter {jitter} P{partitions} C{capacity}: cuts must restore event-time order"
            );
        }
    }

    #[test]
    fn tiny_capacity_stalls_but_still_delivers() {
        let cfg = SourceConfig { partitions: 2, capacity: 1, jitter: 4, seed: 3 };
        let mut src = Source::new(&feeds(50), cfg).unwrap();
        assert_eq!(collect_advance(&mut src, 1, 1), (0..50).collect::<Vec<i64>>());
        let stats = src.stats();
        assert!(stats[0].stall_ticks > 0, "capacity 1 must exercise backpressure");
        assert_eq!(stats[0].delivered, 50);
        assert!(stats[0].partitions.iter().all(|p| p.high_water == 1));
    }

    #[test]
    fn unknown_table_is_empty_topic() {
        let mut src = Source::in_order(&feeds(4));
        let mut called = false;
        src.advance_to(TableId(9), 1, 1, |_, _| called = true).unwrap();
        assert!(!called);
        assert!(src.released(TableId(9)).is_empty());
    }

    #[test]
    fn released_is_everything_advance_to_handed_over() {
        // Deletes among the inserts, so weights are compared too.
        let mut fs = feeds(41);
        fs.get_mut(&TableId(0)).unwrap().iter_mut().step_by(5).for_each(|(_, w)| *w = -1);
        for (jitter, partitions) in [(0u64, 1usize), (0, 2), (9, 1), (9, 2)] {
            let cfg = SourceConfig { partitions, capacity: 2, jitter, seed: 5 };
            let mut src = Source::new(&fs, cfg).unwrap();
            let mut handed = Vec::new();
            for (num, den) in [(0u32, 1u32), (1, 7), (1, 3), (1, 3), (5, 8), (7, 9), (1, 1)] {
                src.advance_to(TableId(0), num, den, |row, w| handed.push((row, w))).unwrap();
                assert_eq!(src.released(TableId(0)), handed, "jitter {jitter} P{partitions}");
            }
            assert_eq!(handed, fs[&TableId(0)]);
            assert!(src.stats()[0].stall_ticks > 0, "capacity 2 must stall the producer");
        }
    }

    #[test]
    fn commits_capture_offsets_and_rebuilds_replay_identically() {
        let cfg = SourceConfig { partitions: 2, capacity: 8, jitter: 5, seed: 21 };
        let fs = feeds(24);
        let mut a = Source::new(&fs, cfg).unwrap();
        let mut b = Source::new(&fs, cfg).unwrap();
        for (i, num) in (1..=4u32).enumerate() {
            let got_a = collect_advance(&mut a, num, 4);
            let got_b = collect_advance(&mut b, num, 4);
            assert_eq!(got_a, got_b, "deterministic regeneration");
            a.commit(i, num, 4, &[1, 4]);
            b.commit(i, num, 4, &[1, 4]);
        }
        assert_eq!(a.log(), b.log());
        assert_eq!(a.log().len(), 4);
        let last = &a.log().entries[3].topics["t0"];
        assert_eq!(last.delivered, 24);
        assert_eq!(last.offsets.iter().sum::<u64>(), 24, "all records consumed by the driver");
    }
}
