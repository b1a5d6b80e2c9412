//! A joined [`Row`] behaves exactly like the flat row of its values.
//!
//! `Row::concat` shares its inputs' value segments instead of copying them,
//! so a join output is a list of segments. Every observable behaviour must
//! still be that of the flattened sequence — the kernel join sorts slots by
//! `Ord`, results are keyed by `Hash`/`Eq`, and the validate summaries hash
//! `Debug` — whatever the segmentation and association order. Values are
//! drawn from small domains so equal and cross-type-equal columns (`Int(3)`
//! vs `Float(3.0)` vs `Date(3)`, `0.0` vs `-0.0`, NaN, empty strings) are
//! common, and rows are short so comparisons often run to the last column.

use ishare_common::{FxHasher, Value};
use ishare_storage::{Columns, Row};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        proptest::bool::ANY.prop_map(Value::Bool),
        (-3i64..4).prop_map(Value::Int),
        (0usize..6).prop_map(|i| Value::Float([3.0, 0.0, -0.0, 1.5, -3.0, f64::NAN][i])),
        (-3i32..4).prop_map(Value::Date),
        "[ab]{0,2}".prop_map(Value::str),
    ]
}

/// One generated row: its values, the raw entropy for its segment cuts,
/// and the raw entropy for the order its segments are joined in.
type Case = (Vec<Value>, Vec<usize>, Vec<usize>);

fn case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(value(), 0..7),
        proptest::collection::vec(0usize..1000, 8),
        proptest::collection::vec(0usize..1000, 8),
    )
}

/// Split `values` into 1–8 segments (possibly empty) at the places `cuts`
/// names, then join adjacent segments in the order `assoc` names until one
/// row is left. A single segment is joined with an empty row, so the result
/// is always a joined row.
fn joined(values: &[Value], cuts: &[usize], assoc: &[usize]) -> Row {
    let n_segments = 1 + cuts[0] % 8;
    let mut bounds: Vec<usize> =
        cuts[1..n_segments].iter().map(|c| c % (values.len() + 1)).collect();
    bounds.sort_unstable();
    let mut rows = Vec::new();
    let mut start = 0;
    for end in bounds.into_iter().chain([values.len()]) {
        rows.push(Row::new(values[start..end].to_vec()));
        start = end;
    }
    if rows.len() == 1 {
        let empty = Row::new(Vec::new());
        return if assoc[0].is_multiple_of(2) {
            rows[0].concat(&empty)
        } else {
            empty.concat(&rows[0])
        };
    }
    let mut picks = assoc.iter().cycle();
    while rows.len() > 1 {
        let i = picks.next().expect("cycled") % (rows.len() - 1);
        let right = rows.remove(i + 1);
        rows[i] = rows[i].concat(&right);
    }
    rows.pop().expect("one row left")
}

fn fx(r: &Row) -> u64 {
    let mut h = FxHasher::default();
    r.hash(&mut h);
    h.finish()
}

fn sip(r: &Row) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// Everything `joined` must share with `flat`, its flattened twin.
fn same_row(joined: &Row, flat: &Row) -> Result<(), TestCaseError> {
    prop_assert_eq!(joined, flat);
    prop_assert_eq!(flat, joined);
    prop_assert_eq!(joined.cmp(flat), std::cmp::Ordering::Equal);
    prop_assert_eq!(fx(joined), fx(flat));
    prop_assert_eq!(sip(joined), sip(flat));
    prop_assert_eq!(joined.arity(), flat.arity());
    prop_assert_eq!(joined.width(), flat.width());
    for i in 0..=flat.arity() {
        prop_assert_eq!(joined.column(i), flat.column(i), "column {}", i);
    }
    for i in 0..flat.arity() {
        prop_assert_eq!(joined.get(i), flat.get(i));
    }
    prop_assert!(joined.iter().eq(flat.iter()));
    prop_assert_eq!(joined.values(), flat.values());
    prop_assert_eq!(joined.to_string(), flat.to_string());
    prop_assert_eq!(format!("{joined:?}"), format!("{flat:?}"));
    prop_assert_eq!(format!("{joined:#?}"), format!("{flat:#?}"));
    Ok(())
}

/// Every comparison between any representation of `a` and of `b` agrees
/// with the comparison of their flat forms.
fn same_order(a: [&Row; 2], b: [&Row; 2]) -> Result<(), TestCaseError> {
    let (fa, fb) = (a[1], b[1]);
    for x in a {
        for y in b {
            prop_assert_eq!(x.cmp(y), fa.cmp(fb));
            prop_assert_eq!(y.cmp(x), fb.cmp(fa));
            prop_assert_eq!(x.partial_cmp(y), Some(fa.cmp(fb)));
            prop_assert_eq!(x == y, fa == fb);
            prop_assert_eq!(y == x, fb == fa);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn joined_rows_behave_as_their_flattened_values(
        a in case(),
        b in case(),
        b_reuses_a_cuts in proptest::bool::ANY,
    ) {
        let (va, cuts_a, assoc_a) = a;
        let (vb, cuts_b, assoc_b) = b;
        let (cuts_b, assoc_b) =
            if b_reuses_a_cuts { (&cuts_a, &assoc_a) } else { (&cuts_b, &assoc_b) };
        let (ja, fa) = (joined(&va, &cuts_a, &assoc_a), Row::new(va.clone()));
        let (jb, fb) = (joined(&vb, cuts_b, assoc_b), Row::new(vb.clone()));
        same_row(&ja, &fa)?;
        same_row(&jb, &fb)?;
        same_order([&ja, &fa], [&jb, &fb])?;

        // Rows that share segments (one input joined into two outputs) must
        // still order like their flattened values.
        let (left, right) = (ja.concat(&jb), ja.concat(&ja));
        let flat = |x: &[Value], y: &[Value]| Row::new([x, y].concat());
        let (flat_left, flat_right) = (flat(&va, &vb), flat(&va, &va));
        same_row(&left, &flat_left)?;
        same_row(&right, &flat_right)?;
        same_order([&left, &flat_left], [&right, &flat_right])?;
        same_order([&jb.concat(&ja), &flat(&vb, &va)], [&left, &flat_left])?;
    }
}

#[test]
fn cross_type_equal_values_stay_equal_when_joined() {
    let flat = Row::new(vec![Value::Int(3), Value::Float(0.0), Value::str("")]);
    let joined = Row::new(vec![Value::Float(3.0)])
        .concat(&Row::new(vec![Value::Float(-0.0), Value::str("")]));
    assert_eq!(joined, flat);
    assert_eq!(fx(&joined), fx(&flat));
    assert_eq!(sip(&joined), sip(&flat));
    assert_eq!(joined.column(3), None);
    assert_eq!(format!("{joined:?}"), "Row { values: [Float(3.0), Float(-0.0), Str(\"\")] }");
}
