//! Model-based property tests: [`DeltaBuffer`] against a plain offset model.
//!
//! Two properties:
//! * every consumer sees every row exactly once, in order, regardless of how
//!   pulls interleave with appends and compactions;
//! * under arbitrary interleavings of register/push/consume/compact — in
//!   both retention modes — the buffer's bookkeeping (total length, resident
//!   prefix, compacted count) matches the model exactly, and registering a
//!   consumer after compaction has dropped rows errors instead of silently
//!   reading from the compacted base. In the model, as in the buffer, a
//!   `Retain::Consumed` pull that leaves every cursor at the end drops the
//!   consumed prefix on the spot.

use ishare_common::{QueryId, QuerySet, Value};
use ishare_storage::{ConsumerId, DeltaBuffer, DeltaRow, Retain, Row};
use proptest::prelude::*;

fn dr(v: i64) -> DeltaRow {
    DeltaRow::insert(Row::new(vec![Value::Int(v)]), QuerySet::single(QueryId(0)))
}

proptest! {
    #[test]
    fn every_consumer_sees_the_full_stream_once(
        // Events: Some(v) = append row v; None = pull for consumer (idx % n).
        events in proptest::collection::vec(
            proptest::option::of(0i64..100), 1..60,
        ),
        n_consumers in 1usize..4,
    ) {
        let mut buf = DeltaBuffer::new();
        let consumers: Vec<_> =
            (0..n_consumers).map(|_| buf.register_consumer().unwrap()).collect();
        let mut appended: Vec<i64> = Vec::new();
        let mut seen: Vec<Vec<i64>> = vec![Vec::new(); n_consumers];
        let mut turn = 0usize;
        for ev in events {
            match ev {
                Some(v) => {
                    buf.push(dr(v));
                    appended.push(v);
                }
                None => {
                    let c = turn % n_consumers;
                    turn += 1;
                    let batch = buf.pull(consumers[c]).unwrap();
                    seen[c].extend(
                        batch.rows.iter().map(|r| r.row.get(0).as_i64().unwrap()),
                    );
                    // Immediately pulling again yields nothing.
                    prop_assert!(buf.pull(consumers[c]).unwrap().is_empty());
                    // Compacting after a pull never changes what anyone sees.
                    buf.compact();
                }
            }
        }
        // Drain everyone.
        for (c, id) in consumers.iter().enumerate() {
            let batch = buf.pull(*id).unwrap();
            seen[c].extend(batch.rows.iter().map(|r| r.row.get(0).as_i64().unwrap()));
        }
        for s in &seen {
            prop_assert_eq!(s, &appended, "each consumer sees the stream exactly once, in order");
        }
    }

    #[test]
    fn interleaved_ops_match_offset_model(
        // (op, arg) pairs: 0 = push arg, 1 = pull consumer arg%N, 2 = compact,
        // 3 = register a new consumer, 4 = peek consumer arg%N.
        ops in proptest::collection::vec((0u8..5, 0i64..100), 1..80),
        retain_all in proptest::bool::weighted(0.5),
    ) {
        let mut buf = DeltaBuffer::new();
        buf.set_retention(if retain_all { Retain::All } else { Retain::Consumed });

        // The model: the full stream, per-consumer absolute offsets, and the
        // absolute position of the first resident row.
        let mut appended: Vec<i64> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        let mut consumers: Vec<ConsumerId> = Vec::new();
        let mut base = 0usize;

        for (op, arg) in ops {
            match op {
                0 => {
                    buf.push(dr(arg));
                    appended.push(arg);
                }
                1 | 4 if !consumers.is_empty() => {
                    let c = arg as usize % consumers.len();
                    let expect: Vec<i64> = appended[offsets[c]..].to_vec();
                    let got: Vec<i64> = if op == 1 {
                        let batch = buf.pull(consumers[c]).unwrap();
                        offsets[c] = appended.len();
                        if !retain_all && offsets.iter().all(|&o| o == appended.len()) {
                            base = appended.len();
                        }
                        batch.rows.iter().map(|r| r.row.get(0).as_i64().unwrap()).collect()
                    } else {
                        // Peek must not advance the model offset.
                        buf.peek(consumers[c]).unwrap()
                            .iter().map(|r| r.row.get(0).as_i64().unwrap()).collect()
                    };
                    prop_assert_eq!(got, expect, "consumer {} sees its backlog", c);
                }
                2 => {
                    let min_off = offsets.iter().copied().min();
                    let expect_drop = match (retain_all, min_off) {
                        (true, _) | (false, None) => 0,
                        (false, Some(m)) => m - base,
                    };
                    prop_assert_eq!(buf.compact(), expect_drop);
                    base += expect_drop;
                }
                3 => {
                    // Late registration after rows were dropped must error —
                    // the consumer would silently start below the base.
                    match buf.register_consumer() {
                        Ok(id) => {
                            prop_assert_eq!(base, 0, "registration only valid at base 0");
                            consumers.push(id);
                            offsets.push(0);
                        }
                        Err(_) => prop_assert!(base > 0, "spurious registration failure"),
                    }
                }
                _ => {} // pull/peek with no consumers yet: no-op
            }
            // Bookkeeping invariants against the model, after every op.
            prop_assert_eq!(buf.len(), appended.len());
            prop_assert_eq!(buf.compacted(), base);
            prop_assert_eq!(buf.retained_len(), appended.len() - base);
            prop_assert!(buf.high_water() >= buf.retained_len());
            if retain_all {
                prop_assert_eq!(buf.all_rows().len(), appended.len());
            }
        }

        // Every consumer can still drain its exact backlog at the end.
        for (c, id) in consumers.iter().enumerate() {
            let expect: Vec<i64> = appended[offsets[c]..].to_vec();
            let got: Vec<i64> = buf.pull(*id).unwrap()
                .rows.iter().map(|r| r.row.get(0).as_i64().unwrap()).collect();
            prop_assert_eq!(got, expect, "final drain of consumer {}", c);
        }
    }
}
