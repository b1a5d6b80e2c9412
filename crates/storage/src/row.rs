//! Rows and weighted delta rows.
//!
//! Incremental execution in iShare is *multiset-delta* execution: every tuple
//! carries a signed weight. Weight `+1` is an insertion; `-1` a deletion; an
//! update is modeled as a deletion plus an insertion (Sec. 2.3). Operators
//! such as shared hash joins multiply weights, so weights are full `i64`s
//! rather than a single sign bit — this is the standard generalisation used
//! by IVM engines and keeps the delta algebra closed under composition.
//!
//! Every delta row additionally carries the SharedDB query bitvector
//! ([`QuerySet`]) saying which queries the tuple is valid for.

use ishare_common::{QuerySet, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Positional read access to a row's columns, shared by value slices and
/// [`Row`], so expressions evaluate a joined row in place instead of
/// flattening it first.
pub trait Columns {
    /// The value in column `i`; `None` past the last column.
    fn column(&self, i: usize) -> Option<&Value>;
    /// Number of columns.
    fn width(&self) -> usize;
}

impl Columns for [Value] {
    #[inline]
    fn column(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }

    #[inline]
    fn width(&self) -> usize {
        self.len()
    }
}

/// An immutable tuple. Cloning is cheap (`Arc`), and so is joining: a join's
/// output row holds its inputs' shared value segments rather than a copy of
/// their values, so a tuple that reaches join state, materialization
/// buffers and downstream joins is stored once however many rows it is
/// part of (DESIGN.md §10, "Rows share, never copy").
///
/// Every observable behaviour is that of the flattened value sequence:
/// `Eq`, lexicographic `Ord`, `Hash`, `Debug` and `Display` cannot tell a
/// joined row from [`Row::new`] over the same values.
#[derive(Clone)]
pub struct Row {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// One value sequence: base rows, projections, aggregate outputs.
    Flat(Arc<[Value]>),
    /// A join output: its inputs' segments, in column order.
    Joined(Arc<[Arc<[Value]>]>),
}

impl Row {
    /// Build from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { repr: Repr::Flat(values.into()) }
    }

    /// The segments whose concatenation is this row (one if it is flat).
    #[inline]
    fn segments(&self) -> &[Arc<[Value]>] {
        match &self.repr {
            Repr::Flat(values) => std::slice::from_ref(values),
            Repr::Joined(segments) => segments,
        }
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.segments().iter().map(|s| s.len()).sum()
    }

    /// Every value, in column order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.segments().iter().flat_map(|s| s.iter())
    }

    /// All values as one slice: borrowed when the row is flat, a flattened
    /// copy when it is joined. Because of that copy no per-row path calls
    /// this; read columns through [`Columns`] or [`Self::iter`] instead.
    #[inline]
    pub fn values(&self) -> Cow<'_, [Value]> {
        match &self.repr {
            Repr::Flat(values) => Cow::Borrowed(values),
            Repr::Joined(_) => Cow::Owned(self.iter().cloned().collect()),
        }
    }

    /// Value at position `i` (panics if out of bounds — expression
    /// evaluation validates indices against schemas up front).
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        self.column(i).unwrap_or_else(|| {
            panic!("column {i} out of bounds for a row of arity {}", self.arity())
        })
    }

    /// Concatenate two rows (join output). No value is copied: the result
    /// clones both inputs' segment pointers into one allocation of 16 bytes
    /// per segment (joining joined rows merges their segment lists).
    pub fn concat(&self, other: &Row) -> Row {
        let segments = self.segments().iter().chain(other.segments()).cloned().collect();
        Row { repr: Repr::Joined(segments) }
    }

    /// Start loading the row's first level — a flat row's values, a joined
    /// row's segment list — into cache, without waiting for it.
    #[inline]
    fn prefetch(&self) {
        match &self.repr {
            Repr::Flat(values) => prefetch_line(values.as_ptr()),
            Repr::Joined(segments) => prefetch_line(segments.as_ptr()),
        }
    }

    /// Start loading every segment of a joined row. Reads the segment list,
    /// so it pays only after [`Self::prefetch`] brought that list in.
    #[inline]
    fn prefetch_segments(&self) {
        if let Repr::Joined(segments) = &self.repr {
            for s in segments.iter() {
                prefetch_line(s.as_ptr());
            }
        }
    }
}

/// A cache hint for the line holding `p`; a no-op off x86-64.
#[inline]
fn prefetch_line<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is only a hint to the cache; it never faults,
    // whatever the address, and reads nothing the program can observe.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Rows between the two stages of [`prefetch_ahead`].
const PREFETCH_DISTANCE: usize = 8;

/// Prefetch the rows a loop is about to read, given the rows it has not read
/// yet, the current one first. Call it once per row.
///
/// Rows move through buffers and operators without being touched, so the
/// first operator that reads a row's values pays the cache misses that a
/// copy on the way used to pay. This hides them: it hints the first level
/// of the row `2 * PREFETCH_DISTANCE` ahead, and the segments of the row
/// `PREFETCH_DISTANCE` ahead, whose segment list the earlier hint loaded.
#[inline]
pub fn prefetch_ahead(upcoming: &[DeltaRow]) {
    if let Some(dr) = upcoming.get(2 * PREFETCH_DISTANCE) {
        dr.row.prefetch();
    }
    if let Some(dr) = upcoming.get(PREFETCH_DISTANCE) {
        dr.row.prefetch_segments();
    }
}

impl Columns for Row {
    #[inline]
    fn column(&self, mut i: usize) -> Option<&Value> {
        match &self.repr {
            Repr::Flat(values) => values.get(i),
            Repr::Joined(segments) => {
                for s in segments.iter() {
                    if i < s.len() {
                        return Some(&s[i]);
                    }
                    i -= s.len();
                }
                None
            }
        }
    }

    #[inline]
    fn width(&self) -> usize {
        self.arity()
    }
}

impl Row {
    /// Whether both rows are the same allocation — then they are equal
    /// without reading a value (a retraction meets the row it retracts).
    #[inline]
    fn same_arc(&self, other: &Row) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Flat(a), Repr::Flat(b)) => Arc::ptr_eq(a, b),
            (Repr::Joined(a), Repr::Joined(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PartialEq for Row {
    #[inline]
    fn eq(&self, other: &Row) -> bool {
        if self.same_arc(other) {
            return true;
        }
        match (&self.repr, &other.repr) {
            (Repr::Flat(a), Repr::Flat(b)) => a[..] == b[..],
            _ => self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Row {}

impl Ord for Row {
    #[inline]
    fn cmp(&self, other: &Row) -> Ordering {
        if self.same_arc(other) {
            return Ordering::Equal;
        }
        match (&self.repr, &other.repr) {
            (Repr::Flat(a), Repr::Flat(b)) => a[..].cmp(&b[..]),
            _ => self.iter().cmp(other.iter()),
        }
    }
}

impl PartialOrd for Row {
    #[inline]
    fn partial_cmp(&self, other: &Row) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Row {
    /// What `[Value]::hash` writes for the flattened values: the length
    /// prefix, then every value.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.repr {
            Repr::Flat(values) => values.hash(state),
            Repr::Joined(_) => {
                // `()` hashes to nothing, so this writes exactly the slice
                // hash's length prefix, whatever the hasher does with it.
                vec![(); self.arity()].hash(state);
                for v in self.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Debug for Row {
    /// `Row { values: [..] }`, the derived form of the flat representation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Row").field("values", &self.values()).finish()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row::new(v)
    }
}

/// A weighted, query-annotated tuple flowing through the shared engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// The tuple.
    pub row: Row,
    /// Signed multiset weight. `+1` insert, `-1` delete; operators may
    /// produce larger magnitudes (e.g. joining two weighted deltas).
    pub weight: i64,
    /// Which queries this tuple is valid for (SharedDB bitvector).
    pub mask: QuerySet,
}

impl DeltaRow {
    /// An insertion valid for `mask`.
    pub fn insert(row: Row, mask: QuerySet) -> Self {
        DeltaRow { row, weight: 1, mask }
    }

    /// A deletion valid for `mask`.
    pub fn delete(row: Row, mask: QuerySet) -> Self {
        DeltaRow { row, weight: -1, mask }
    }
}

/// An ordered batch of delta rows — the unit of data exchanged between
/// operators within one incremental execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// The rows, in arrival order.
    pub rows: Vec<DeltaRow>,
}

impl DeltaBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from rows.
    pub fn from_rows(rows: Vec<DeltaRow>) -> Self {
        DeltaBatch { rows }
    }

    /// Number of delta rows (not weighted).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row.
    pub fn push(&mut self, row: DeltaRow) {
        self.rows.push(row);
    }
}

impl FromIterator<DeltaRow> for DeltaBatch {
    fn from_iter<T: IntoIterator<Item = DeltaRow>>(iter: T) -> Self {
        DeltaBatch { rows: iter.into_iter().collect() }
    }
}

/// Sum weights per `(row, mask)` and drop zero-weight entries.
///
/// Two delta streams are *equivalent* iff they consolidate to the same map;
/// this is the correctness notion used throughout the test suites.
pub fn consolidate(rows: impl IntoIterator<Item = DeltaRow>) -> HashMap<(Row, QuerySet), i64> {
    let mut acc: HashMap<(Row, QuerySet), i64> = HashMap::new();
    for r in rows {
        *acc.entry((r.row, r.mask)).or_insert(0) += r.weight;
    }
    acc.retain(|_, w| *w != 0);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::QueryId;

    fn row(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn row_basics() {
        let r = row(&[1, 2]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.get(1), &Value::Int(2));
        let s = r.concat(&row(&[3]));
        assert_eq!(s.arity(), 3);
        assert_eq!(s.to_string(), "[1, 2, 3]");
    }

    #[test]
    fn shared_rows_compare_equal() {
        let flat = Row::new(vec![Value::Float(f64::NAN), Value::Int(1)]);
        let joined = flat.concat(&row(&[2]));
        for r in [&flat, &joined] {
            let same = r.clone();
            assert_eq!(r.cmp(&same), Ordering::Equal);
            assert_eq!(r, &same);
            let copy = Row::new(r.iter().cloned().collect());
            assert_eq!(r.cmp(&copy), Ordering::Equal, "a NaN equals every NaN");
        }
        assert_eq!(flat.cmp(&joined), Ordering::Less, "a prefix sorts first");
        assert_eq!(joined.cmp(&flat), Ordering::Greater);
    }

    #[test]
    fn delta_constructors() {
        let m = QuerySet::single(QueryId(0));
        let i = DeltaRow::insert(row(&[1]), m);
        let d = DeltaRow::delete(row(&[1]), m);
        assert_eq!(i.weight, 1);
        assert_eq!(d.weight, -1);
    }

    #[test]
    fn consolidation_cancels() {
        let m = QuerySet::single(QueryId(0));
        let batch = DeltaBatch::from_rows(vec![
            DeltaRow::insert(row(&[1]), m),
            DeltaRow::insert(row(&[1]), m),
            DeltaRow::delete(row(&[1]), m),
            DeltaRow::insert(row(&[2]), m),
            DeltaRow::delete(row(&[2]), m),
        ]);
        let c = consolidate(batch.rows);
        assert_eq!(c.len(), 1);
        assert_eq!(c[&(row(&[1]), m)], 1);
    }

    #[test]
    fn consolidation_respects_masks() {
        let m0 = QuerySet::single(QueryId(0));
        let m1 = QuerySet::single(QueryId(1));
        let c = consolidate(vec![DeltaRow::insert(row(&[1]), m0), DeltaRow::insert(row(&[1]), m1)]);
        // Same row under different masks stays distinct.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn batch_collect() {
        let m = QuerySet::single(QueryId(0));
        let b: DeltaBatch = (0..3).map(|i| DeltaRow::insert(row(&[i]), m)).collect();
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(DeltaBatch::new().is_empty());
    }
}
