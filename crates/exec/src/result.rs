//! Extracting per-query final results from an output subplan's delta stream.

use ishare_common::QueryId;
use ishare_storage::{DeltaRow, Row};
use std::collections::HashMap;

/// A query's materialized result: row → multiplicity.
pub type QueryResult = HashMap<Row, i64>;

/// Consolidate the delta rows valid for query `q` into its final result
/// multiset. This is what a dashboard reading query `q`'s output buffer
/// observes after the final incremental execution.
pub fn query_result<'a>(rows: impl IntoIterator<Item = &'a DeltaRow>, q: QueryId) -> QueryResult {
    let mut out = QueryResult::new();
    for r in rows {
        if r.mask.contains(q) {
            *out.entry(r.row.clone()).or_insert(0) += r.weight;
        }
    }
    out.retain(|_, w| *w != 0);
    out
}

/// Compare two result multisets with relative tolerance on float columns.
///
/// Incremental execution folds values in a different order than batch
/// execution, so float aggregates differ in the last few bits; exact
/// equality would be wrong to demand. Two rows match when non-float values
/// are equal and floats agree within `rel_eps` (relative, with an absolute
/// floor of the same magnitude).
pub fn approx_result_eq(a: &QueryResult, b: &QueryResult, rel_eps: f64) -> bool {
    if a.values().sum::<i64>() != b.values().sum::<i64>() {
        return false;
    }
    let mut remaining: Vec<(&Row, i64)> = b.iter().map(|(r, w)| (r, *w)).collect();
    for (row, w) in a {
        let mut need = *w;
        for slot in remaining.iter_mut() {
            if slot.1 != 0 && rows_approx_eq(row, slot.0, rel_eps) {
                let take = need.min(slot.1);
                slot.1 -= take;
                need -= take;
                if need == 0 {
                    break;
                }
            }
        }
        if need != 0 {
            return false;
        }
    }
    remaining.iter().all(|(_, w)| *w == 0)
}

fn rows_approx_eq(a: &Row, b: &Row, rel_eps: f64) -> bool {
    use ishare_common::Value;
    if a.arity() != b.arity() {
        return false;
    }
    a.iter().zip(b.iter()).all(|(x, y)| match (x, y) {
        (Value::Float(p), Value::Float(q)) => {
            let scale = p.abs().max(q.abs()).max(1.0);
            (p - q).abs() <= rel_eps * scale
        }
        _ => x == y,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{QuerySet, Value};

    fn row(v: i64) -> Row {
        Row::new(vec![Value::Int(v)])
    }

    #[test]
    fn approx_eq_tolerates_float_noise() {
        let mut a = QueryResult::new();
        let mut b = QueryResult::new();
        a.insert(Row::new(vec![Value::str("x"), Value::Float(100.0)]), 1);
        b.insert(Row::new(vec![Value::str("x"), Value::Float(100.0 + 1e-9)]), 1);
        assert!(approx_result_eq(&a, &b, 1e-9));
        assert!(!approx_result_eq(&a, &b, 1e-13));
        // Non-float differences are exact.
        let mut c = QueryResult::new();
        c.insert(Row::new(vec![Value::str("y"), Value::Float(100.0)]), 1);
        assert!(!approx_result_eq(&a, &c, 1e-6));
        // Multiplicity differences fail.
        let mut d = a.clone();
        d.insert(Row::new(vec![Value::str("z"), Value::Float(1.0)]), 1);
        assert!(!approx_result_eq(&a, &d, 1e-6));
        // Empty == empty.
        assert!(approx_result_eq(&QueryResult::new(), &QueryResult::new(), 1e-6));
    }

    #[test]
    fn filters_by_query_and_consolidates() {
        let q0 = QuerySet::single(QueryId(0));
        let q01 = QuerySet::from_iter([QueryId(0), QueryId(1)]);
        let rows = vec![
            DeltaRow { row: row(1), weight: 1, mask: q01 },
            DeltaRow { row: row(1), weight: -1, mask: q01 },
            DeltaRow { row: row(2), weight: 1, mask: q0 },
            DeltaRow { row: row(3), weight: 1, mask: QuerySet::single(QueryId(1)) },
        ];
        let r0 = query_result(&rows, QueryId(0));
        assert_eq!(r0.len(), 1);
        assert_eq!(r0[&row(2)], 1);
        let r1 = query_result(&rows, QueryId(1));
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[&row(3)], 1);
        assert!(query_result(&rows, QueryId(5)).is_empty());
    }
}
