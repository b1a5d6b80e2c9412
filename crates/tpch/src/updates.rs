//! Update-stream generation.
//!
//! The paper's engine supports "insert, delete, and update operations"
//! (Sec. 2.3; updates are a delete plus an insert). The evaluation streams
//! inserts only, so this module is the repo's exercise of the other two
//! paths end to end: it turns a generated TPC-H instance into delta feeds
//! where a configurable fraction of arrivals are in-place *updates* of
//! previously arrived rows (same keys, changed measure columns).

use crate::TpchData;
use ishare_common::{Error, Result, TableId, Value};
use ishare_storage::Row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// One relation's delta feed: `(row, weight)` in arrival order.
pub type DeltaFeed = Vec<(Row, i64)>;

/// How many of the most recently arrived row versions stay eligible as
/// update victims. Updates in the scenario hit *recent* rows (an order is
/// amended shortly after entry, not years later), so a sliding window both
/// models that and caps the generator's working set at `O(UPDATE_WINDOW)`
/// rows per fact table — previously it retained every live row, growing
/// without bound with the scale factor.
pub const UPDATE_WINDOW: usize = 4096;

/// Convert an instance into delta feeds where roughly `update_frac` of the
/// fact-table arrivals are updates (delete of an earlier row + insert of a
/// modified copy). Updates target `lineitem` and `orders` (the tables the
/// paper's scenario continuously loads); dimension tables stay insert-only.
///
/// Updated rows keep every key column and mutate one measure column
/// (`l_quantity` / `o_totalprice`), so referential integrity and join
/// cardinalities are preserved while aggregates genuinely churn. Victims
/// are drawn from the last [`UPDATE_WINDOW`] arrivals. An `update_frac`
/// outside `[0, 1)` is [`Error::InvalidConfig`].
pub fn with_updates(
    data: &TpchData,
    update_frac: f64,
    seed: u64,
) -> Result<HashMap<TableId, DeltaFeed>> {
    with_updates_windowed(data, update_frac, seed, UPDATE_WINDOW)
}

/// [`with_updates`] with an explicit victim-window size (tests use small
/// windows to exercise eviction; production callers use the default via
/// [`with_updates`]). For feeds shorter than the window the output is
/// identical for any window size.
pub fn with_updates_windowed(
    data: &TpchData,
    update_frac: f64,
    seed: u64,
    window: usize,
) -> Result<HashMap<TableId, DeltaFeed>> {
    if !(0.0..1.0).contains(&update_frac) {
        return Err(Error::InvalidConfig(format!("update_frac {update_frac} not in [0, 1)")));
    }
    if window == 0 {
        return Err(Error::InvalidConfig("victim window must hold at least one row".into()));
    }
    let mut feeds = HashMap::new();
    for (table_id, rows) in &data.data {
        // One RNG per table, seeded from (seed, table id): the output must
        // not depend on `HashMap` iteration order, which varies *between
        // processes* — kill/resume replays and cross-process run diffs rely
        // on `with_updates` being a pure function of `(data, frac, seed)`.
        let mut rng = StdRng::seed_from_u64(
            seed ^ 0x5eed_cafe ^ (table_id.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let def = data.catalog.table(*table_id)?;
        let measure = match def.name.as_str() {
            "lineitem" => Some(def.schema.index_of("l_quantity")?),
            "orders" => Some(def.schema.index_of("o_totalprice")?),
            _ => None,
        };
        let mut feed: DeltaFeed = Vec::with_capacity(rows.len());
        // Current versions of the rows still eligible as update victims:
        // a sliding window over the most recent `window` arrivals.
        let mut live: VecDeque<Row> = VecDeque::with_capacity(window.min(rows.len()));
        for row in rows {
            feed.push((row.clone(), 1));
            if let Some(col) = measure {
                if live.len() == window {
                    live.pop_front();
                }
                live.push_back(row.clone());
                if rng.gen_bool(update_frac) {
                    let victim_idx = rng.gen_range(0..live.len());
                    let old = live[victim_idx].clone();
                    let mut vals = old.values().to_vec();
                    vals[col] = bump(&vals[col], &mut rng);
                    let new = Row::new(vals);
                    feed.push((old, -1));
                    feed.push((new.clone(), 1));
                    live[victim_idx] = new;
                }
            }
        }
        feeds.insert(*table_id, feed);
    }
    Ok(feeds)
}

/// The multiset of rows a delta feed denotes once fully applied — the input
/// for reference (batch) evaluation.
pub fn net_rows(feed: &DeltaFeed) -> Vec<Row> {
    let mut counts: HashMap<Row, i64> = HashMap::new();
    for (row, w) in feed {
        *counts.entry(row.clone()).or_insert(0) += w;
    }
    let mut out = Vec::new();
    for (row, w) in counts {
        assert!(w >= 0, "feed retracts more than it inserted");
        for _ in 0..w {
            out.push(row.clone());
        }
    }
    out
}

fn bump(v: &Value, rng: &mut StdRng) -> Value {
    match v {
        Value::Int(i) => Value::Int((i + rng.gen_range(1..=5)).clamp(1, 50)),
        Value::Float(f) => Value::Float((f * rng.gen_range(1.01..1.25) * 100.0).round() / 100.0),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::generate;
    use ishare_ingest::{Source, SourceConfig};

    #[test]
    fn rebuilt_update_source_replays_identically() {
        // Kill/resume rebuilds the source from the same instance and seed:
        // it must replay the identical arrival stream, updates included.
        let d = generate(0.001, 3).unwrap();
        let cfg = SourceConfig { partitions: 2, capacity: 64, jitter: 9, seed: 42 };
        let li = d.catalog.table_by_name("lineitem").unwrap().id;
        let cut = || {
            let feeds = with_updates(&d, 0.15, cfg.seed).unwrap();
            let mut rows = Vec::new();
            Source::new(&feeds, cfg)
                .unwrap()
                .advance_to(li, 1, 2, |r, w| rows.push((r, w)))
                .unwrap();
            rows
        };
        let first = cut();
        assert!(first.iter().any(|(_, w)| *w < 0), "the cut carries deletes");
        assert_eq!(first, cut());
    }

    #[test]
    fn jittered_update_cut_equals_in_order_cut() {
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

    #[test]
    fn updates_are_balanced_deletes_plus_inserts() {
        let d = generate(0.002, 5).unwrap();
        let feeds = with_updates(&d, 0.2, 9).unwrap();
        let li = d.catalog.table_by_name("lineitem").unwrap().id;
        let feed = &feeds[&li];
        let deletes = feed.iter().filter(|(_, w)| *w < 0).count();
        let inserts = feed.iter().filter(|(_, w)| *w > 0).count();
        let originals = d.data[&li].len();
        assert!(deletes > 0, "some updates must occur at 20%");
        assert_eq!(inserts, originals + deletes, "each update = delete + insert");
        // Net rows count matches the original count (updates replace).
        assert_eq!(net_rows(feed).len(), originals);
    }

    #[test]
    fn dimension_tables_stay_insert_only() {
        let d = generate(0.002, 5).unwrap();
        let feeds = with_updates(&d, 0.3, 9).unwrap();
        for name in ["part", "customer", "supplier", "nation", "region", "partsupp"] {
            let id = d.catalog.table_by_name(name).unwrap().id;
            assert!(feeds[&id].iter().all(|(_, w)| *w == 1), "{name} must be insert-only");
        }
    }

    #[test]
    fn zero_fraction_is_identity() {
        let d = generate(0.002, 5).unwrap();
        let feeds = with_updates(&d, 0.0, 9).unwrap();
        let li = d.catalog.table_by_name("lineitem").unwrap().id;
        assert_eq!(feeds[&li].len(), d.data[&li].len());
        assert!(feeds[&li].iter().all(|(_, w)| *w == 1));
    }

    #[test]
    fn out_of_range_inputs_are_invalid_configs() {
        let d = generate(0.001, 5).unwrap();
        for frac in [1.0, -0.1, f64::NAN] {
            let got = with_updates(&d, frac, 9);
            assert!(matches!(got, Err(Error::InvalidConfig(_))), "update_frac {frac}");
        }
        let got = with_updates_windowed(&d, 0.2, 9, 0);
        assert!(matches!(got, Err(Error::InvalidConfig(_))), "window 0");
    }

    #[test]
    fn victim_window_stays_bounded() {
        // Replicate the generator's sliding window from the feed structure
        // alone (a delete is always immediately followed by its replacement
        // insert; any other insert is an original arrival) and assert the
        // generator's working set never exceeds the window — and that every
        // update victim was still inside it.
        let d = generate(0.004, 7).unwrap();
        let li = d.catalog.table_by_name("lineitem").unwrap().id;
        let window = 32;
        assert!(
            d.data[&li].len() > 4 * window,
            "feed must be much longer than the window to exercise eviction"
        );
        let feeds = with_updates_windowed(&d, 0.25, 11, window).unwrap();
        let feed = &feeds[&li];

        let mut live: VecDeque<Row> = VecDeque::new();
        let mut peak = 0usize;
        let mut evictions = 0usize;
        let mut i = 0;
        while i < feed.len() {
            if feed[i].1 < 0 {
                let victim = live
                    .iter()
                    .position(|r| r == &feed[i].0)
                    .expect("update victim must still be inside the sliding window");
                live[victim] = feed[i + 1].0.clone(); // replacement insert
                i += 2;
            } else {
                if live.len() == window {
                    live.pop_front();
                    evictions += 1;
                }
                live.push_back(feed[i].0.clone());
                i += 1;
            }
            peak = peak.max(live.len());
        }
        assert_eq!(peak, window, "peak working set is exactly the window cap");
        assert!(evictions > 0, "a long feed must actually evict");
    }

    #[test]
    fn small_feeds_unaffected_by_window_size() {
        // Feeds shorter than the window: the windowed generator degenerates
        // to the unbounded one, so the default constant changes nothing for
        // small scale factors.
        let d = generate(0.0005, 5).unwrap();
        let small = with_updates_windowed(&d, 0.2, 9, 1 << 20).unwrap();
        let def = with_updates(&d, 0.2, 9).unwrap();
        let li = d.catalog.table_by_name("lineitem").unwrap().id;
        assert!(d.data[&li].len() <= UPDATE_WINDOW, "premise: feed fits the default window");
        assert_eq!(small[&li], def[&li]);
    }

    #[test]
    fn updated_rows_keep_keys() {
        let d = generate(0.002, 6).unwrap();
        let feeds = with_updates(&d, 0.25, 10).unwrap();
        let li = d.catalog.table_by_name("lineitem").unwrap().id;
        let qty =
            d.catalog.table_by_name("lineitem").unwrap().schema.index_of("l_quantity").unwrap();
        // Every delete is immediately followed by its replacement insert
        // differing only in the measure column.
        let feed = &feeds[&li];
        for i in 0..feed.len() {
            if feed[i].1 < 0 {
                let (old, _) = &feed[i];
                let (new, w) = &feed[i + 1];
                assert_eq!(*w, 1);
                for c in 0..old.arity() {
                    if c != qty {
                        assert_eq!(old.get(c), new.get(c), "non-measure column changed");
                    }
                }
            }
        }
    }
}
