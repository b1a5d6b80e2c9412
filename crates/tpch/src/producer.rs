//! Feed → topic producer: turns generated TPC-H delta feeds into an ingest
//! [`Source`] whose topics deliver rows with seeded, jittered event times.
//!
//! This is the workload side of the ingest boundary: the paper's prototype
//! preloads Kafka topics and pulls from them at a fixed rate; here the
//! generator plays producer. Event time is a delta's position in the feed
//! (the arrival-simulator unit the drivers already pace by); the jitter in
//! [`StreamConfig`] displaces *arrival* order by a bounded, seeded amount,
//! which the consumer side undoes via watermarks — so the same workload can
//! be replayed in-order or out-of-order and produce bit-identical runs.

use crate::updates::with_updates;
use crate::TpchData;
use ishare_common::Result;
use ishare_ingest::{Source, SourceConfig};

/// Streaming-mode knobs of a TPC-H workload run.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Fraction of fact-table arrivals that are updates (delete + insert),
    /// as in [`with_updates`].
    pub update_frac: f64,
    /// Topic topology and arrival model (partitions, ring capacity, jitter,
    /// seed). The seed drives both the update stream and the arrival
    /// permutation, so one `StreamConfig` fully determines the source.
    pub source: SourceConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { update_frac: 0.0, source: SourceConfig::default() }
    }
}

/// Produce an ingest [`Source`] over `data`'s delta feeds. Deterministic in
/// `cfg`: rebuilding the source from the same instance and config replays
/// the identical arrival stream — the property kill/resume relies on.
pub fn produce_source(data: &TpchData, cfg: StreamConfig) -> Result<Source> {
    let feeds = with_updates(data, cfg.update_frac, cfg.source.seed)?;
    Source::new(&feeds, cfg.source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::generate;

    #[test]
    fn rebuilt_source_replays_identically() {
        let d = generate(0.001, 3).unwrap();
        let cfg = StreamConfig {
            update_frac: 0.15,
            source: SourceConfig { partitions: 2, capacity: 64, jitter: 9, seed: 42 },
        };
        let li = d.catalog.table_by_name("lineitem").unwrap().id;
        let mut a = produce_source(&d, cfg).unwrap();
        let mut b = produce_source(&d, cfg).unwrap();
        let mut rows_a = Vec::new();
        let mut rows_b = Vec::new();
        a.advance_to(li, 1, 2, |row, w| rows_a.push((row, w))).unwrap();
        b.advance_to(li, 1, 2, |row, w| rows_b.push((row, w))).unwrap();
        assert!(!rows_a.is_empty());
        assert_eq!(rows_a, rows_b);
    }

    #[test]
    fn jittered_cut_equals_in_order_cut() {
        // The watermark cut must deliver exactly the event-time prefix, so a
        // jittered source and an in-order source agree on every batch.
        let d = generate(0.001, 4).unwrap();
        let feeds = with_updates(&d, 0.1, 7).unwrap();
        let li = d.catalog.table_by_name("lineitem").unwrap().id;
        let cfg =
            |partitions, capacity, jitter| SourceConfig { partitions, capacity, jitter, seed: 7 };
        let mut jittered = Source::new(&feeds, cfg(3, 32, 17)).unwrap();
        let mut in_order = Source::new(&feeds, cfg(1, usize::MAX, 0)).unwrap();
        for num in 1..=4u32 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            jittered.advance_to(li, num, 4, |row, w| a.push((row, w))).unwrap();
            in_order.advance_to(li, num, 4, |row, w| b.push((row, w))).unwrap();
            assert_eq!(a, b, "cut {num}/4");
        }
    }
}
