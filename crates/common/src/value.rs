//! Scalar values and data types.
//!
//! iShare tuples are vectors of [`Value`]. The engine needs values to be
//! usable as hash-map keys (group-by keys, join keys), so [`Value`]
//! implements a *total* `Eq`/`Ord`/`Hash`: numerics (`Int`, `Float`, `Date`)
//! compare by value, `-0.0` equals `0.0`, and every NaN equals every other
//! NaN and sorts above every other numeric, `+inf` included. Analytical
//! plans in this workspace never produce NaN, so the NaN rule only exists to
//! keep the invariants of the containers (`sort_by`, `BTreeMap`, the join
//! slots' [`Value::order_word`]) honest.
//!
//! One tie is known and left alone: `Int` against `Float` compares through
//! `f64`, so beyond 2^53 `Int(2^53 + 1)` equals `Float(2^53)`, which equals
//! `Int(2^53)`, while the two `Int`s differ. No plan here mixes integers
//! that large with floats.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer (also used for TPC-H identifiers and counts).
    Int,
    /// 64-bit IEEE float (used for TPC-H decimals; exactness is not needed
    /// for the paper's workloads).
    Float,
    /// Calendar date stored as days since 1970-01-01.
    Date,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Date => "date",
            DataType::Str => "str",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar value.
///
/// `Null` compares less than every other value and is equal to itself; this
/// gives containers a total order without a separate three-valued logic at
/// the storage layer (SQL-style NULL semantics live in `ishare-expr`).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Days since the Unix epoch.
    Date(i32),
    /// Shared immutable string (cheap to clone when rows are copied between
    /// subplan buffers).
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// The [`DataType`] of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Date(_) => Some(DataType::Date),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// `true` iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value (`Int`, `Float` and `Date` coerce), used by
    /// arithmetic and aggregation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Integer view of the value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(*d as i64),
            _ => None,
        }
    }

    /// Boolean view of the value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Normalised float bits used for `Eq`/`Hash` — see [`norm_f64_bits`].
    fn norm_f64_bits(f: f64) -> u64 {
        norm_f64_bits(f)
    }

    /// A word that orders like the value, as far as it can: whenever two
    /// values both have a non-zero word and the words differ, the words
    /// compare as the values do. Equal values have equal words; 0 means "no
    /// word" (`Null`), and equal words decide nothing.
    ///
    /// The top two bits hold the type rank. A numeric keeps its `f64` bits
    /// in unsigned order (the sign bit set if positive, every bit inverted
    /// if negative) shifted right by two, so rounding and truncation only merge
    /// neighbouring values into one word; NaN, normalised, lands above
    /// `+inf`. A string keeps its first 7 bytes, big-endian, zero-padded.
    pub fn order_word(&self) -> u64 {
        let rank = u64::from(self.type_rank()) << 62;
        match self {
            Value::Null => 0,
            Value::Bool(b) => rank | u64::from(*b),
            Value::Int(_) | Value::Float(_) | Value::Date(_) => {
                let bits = norm_f64_bits(self.as_f64().expect("numeric"));
                let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
                rank | ordered >> 2
            }
            Value::Str(s) => {
                let mut prefix = [0u8; 8];
                let n = s.len().min(7);
                prefix[1..=n].copy_from_slice(&s.as_bytes()[..n]);
                rank | u64::from_be_bytes(prefix)
            }
        }
    }

    /// Rank used to order values of different types (Null < Bool < Int/Float/Date < Str).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Date(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            // Numeric cross-type comparisons go through f64 (TPC-H decimals
            // mix with integer literals in predicates). `partial_cmp` fails
            // only on a NaN, which sorts above every number.
            (a, b) if a.type_rank() == 2 && b.type_rank() == 2 => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y).unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
            }
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Int, Float and Date share the numeric equivalence class, so
            // they must share a hash: hash through normalised f64 bits when
            // the value is exactly representable, otherwise the raw i64.
            Value::Int(i) => {
                state.write_u8(2);
                state.write_u64(Self::norm_f64_bits(*i as f64));
            }
            Value::Float(f) => {
                state.write_u8(2);
                state.write_u64(Self::norm_f64_bits(*f));
            }
            Value::Date(d) => {
                state.write_u8(2);
                state.write_u64(Self::norm_f64_bits(*d as f64));
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Date(d) => {
                let (y, m, day) = days_to_ymd(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

/// Normalised float bit pattern: collapses `-0.0`/`0.0` and all NaN
/// payloads. This is the payload [`Value`]'s `Hash` uses for the numeric
/// equivalence class (`Int`/`Float`/`Date`), and the encoded-key layer
/// ([`crate::key::KeyBuf`]) must agree with it word for word.
pub fn norm_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0u64
    } else {
        f.to_bits()
    }
}

/// Convert a calendar date to days since 1970-01-01 (proleptic Gregorian).
///
/// Valid for the TPC-H date range (1992–1998); used by the data generator and
/// by date literals in query predicates.
pub fn ymd_to_days(year: i32, month: u32, day: u32) -> i32 {
    // Algorithm from Howard Hinnant's `days_from_civil`.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let mp = ((month + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Inverse of [`ymd_to_days`].
pub fn days_to_ymd(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m, d)
}

/// Parse `YYYY-MM-DD` into a [`Value::Date`]. Panics on malformed input;
/// date literals are compile-time constants in this workspace.
pub fn date(s: &str) -> Value {
    let mut it = s.split('-');
    let y: i32 = it.next().expect("year").parse().expect("year");
    let m: u32 = it.next().expect("month").parse().expect("month");
    let d: u32 = it.next().expect("day").parse().expect("day");
    Value::Date(ymd_to_days(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (1992, 1, 2), (1998, 12, 31), (2000, 2, 29), (1996, 3, 1)]
        {
            let days = ymd_to_days(y, m, d);
            assert_eq!(days_to_ymd(days), (y, m, d), "date {y}-{m}-{d}");
        }
        assert_eq!(ymd_to_days(1970, 1, 1), 0);
        assert_eq!(ymd_to_days(1970, 1, 2), 1);
    }

    #[test]
    fn date_parse_display() {
        let v = date("1995-03-15");
        assert_eq!(v.to_string(), "1995-03-15");
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn negative_zero_normalised() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn null_orders_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn string_order() {
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::Int(i64::MAX) < Value::str(""));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Null.as_f64(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Date(10).as_i64(), Some(10));
    }

    #[test]
    fn order_is_total_with_nan() {
        let big = (1i64 << 53) + 1;
        let vals = [
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-1.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(big),
            Value::Date(3),
            Value::Float(f64::INFINITY),
            Value::Null,
            Value::str(""),
        ];
        for a in &vals {
            assert_eq!(a.cmp(a), Ordering::Equal, "{a:?} is not equal to itself");
            for b in &vals {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetry: {a:?} vs {b:?}");
                for c in &vals {
                    if a.cmp(b).is_le() && b.cmp(c).is_le() {
                        assert!(a.cmp(c).is_le(), "transitivity: {a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(-f64::NAN), "NaNs are all equal");
        assert!(Value::Float(f64::INFINITY) < nan && Value::Int(i64::MAX) < nan);
        assert!(nan < Value::str(""));
    }

    #[test]
    fn data_type_display() {
        assert_eq!(DataType::Int.to_string(), "int");
        assert_eq!(DataType::Date.to_string(), "date");
        assert_eq!(Value::Date(0).data_type(), Some(DataType::Date));
        assert_eq!(Value::Null.data_type(), None);
    }

    /// Values whose order words sit close together: every numeric type
    /// around zero and around 2^53, both zeros, NaN, `Null`, and strings
    /// that share a 7-byte prefix, are empty or hold multi-byte UTF-8.
    fn values() -> impl Strategy<Value = Value> {
        let near_2_53 = (1i64 << 53) - 4..(1i64 << 53) + 4;
        prop_oneof![
            Just(Value::Null),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(0.0)),
            proptest::bool::ANY.prop_map(Value::Bool),
            (-3i64..3).prop_map(Value::Int),
            (-3.0f64..3.0).prop_map(Value::Float),
            (-3i32..3).prop_map(Value::Date),
            (i64::MIN..=i64::MAX).prop_map(Value::Int),
            (-1e300f64..1e300).prop_map(Value::Float),
            near_2_53.clone().prop_map(Value::Int),
            near_2_53.prop_map(|i| Value::Float(i as f64)),
            "[ab]{0,3}".prop_map(Value::from),
            "abcdefg[ab]{0,2}".prop_map(Value::from),
            "[aé€]{0,4}".prop_map(Value::from),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The order word's contract: equal values have equal words, and two
        /// non-zero words that differ compare as their values do.
        #[test]
        fn order_words_order_like_values(vals in proptest::collection::vec(values(), 12)) {
            for a in &vals {
                for b in &vals {
                    let (wa, wb) = (a.order_word(), b.order_word());
                    if a == b {
                        prop_assert_eq!(wa, wb, "{:?} == {:?}", a, b);
                    } else if wa != 0 && wb != 0 && wa != wb {
                        prop_assert_eq!(wa.cmp(&wb), a.cmp(b), "{:?} vs {:?}", a, b);
                    }
                }
            }
        }
    }
}
