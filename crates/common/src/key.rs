//! Fixed-width encoded join/group keys.
//!
//! The datapath kernels key their flat operator state by [`KeyBuf`] instead
//! of `Vec<Value>`: each key column encodes to exactly two `u64` words — a
//! type tag and a payload — so hashing and equality are word compares
//! instead of `Value` enum walks and string compares.
//!
//! The encoding mirrors [`Value`]'s `Eq`/`Hash` exactly:
//!
//! | value            | tag | payload                                  |
//! |------------------|-----|------------------------------------------|
//! | `Null`           | 0   | 0                                        |
//! | `Bool(b)`        | 1   | `b as u64`                               |
//! | `Int`/`Float`/`Date` | 2 | [`norm_f64_bits`]`(v.as_f64())`       |
//! | `Str(s)`         | 3   | interner id of `s` (see [`StrInterner`]) |
//!
//! Numerics share tag 2 because `Value` puts `Int`, `Float` and `Date` in
//! one equivalence class (`Int(3) == Float(3.0)`); the payload is the same
//! normalised-bit scheme `Value::hash` uses, so two values encode to the
//! same words iff the legacy `Vec<Value>` maps would have grouped them.
//! The one documented divergence: integers with `|i| > 2^53` are not exactly
//! representable as `f64`, where `Value`'s equality is already
//! non-transitive (`Int(2^53)` ≠ `Int(2^53+1)` but both `== Float(2^53)`);
//! no fixed-width encoding can agree with a non-transitive relation, and the
//! engine's workloads (TPC-H keys, dates, decimals) stay far below 2^53.
//!
//! String payloads are per-operator interner ids, deterministic in
//! first-seen order — see [`crate::interner`] for the determinism argument.
//!
//! [`norm_f64_bits`]: crate::value::norm_f64_bits

use crate::interner::StrInterner;
use crate::value::{norm_f64_bits, Value};
use std::borrow::Borrow;

/// An encoded key: two `u64` words per key column.
///
/// Reusable as a scratch buffer — `clear` + `push_value` per column, then
/// look up state by `&[u64]` (zero-allocation probe) or clone into the table
/// on first insert.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyBuf {
    words: Vec<u64>,
}

impl KeyBuf {
    /// Empty key.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for reuse (keeps the allocation).
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Append one key column. Strings are interned through `interner`.
    #[inline]
    pub fn push_value(&mut self, v: &Value, interner: &mut StrInterner) {
        match v {
            Value::Null => {
                self.words.push(0);
                self.words.push(0);
            }
            Value::Bool(b) => {
                self.words.push(1);
                self.words.push(*b as u64);
            }
            Value::Int(i) => {
                self.words.push(2);
                self.words.push(norm_f64_bits(*i as f64));
            }
            Value::Float(f) => {
                self.words.push(2);
                self.words.push(norm_f64_bits(*f));
            }
            Value::Date(d) => {
                self.words.push(2);
                self.words.push(norm_f64_bits(*d as f64));
            }
            Value::Str(s) => {
                self.words.push(3);
                self.words.push(interner.intern(s) as u64);
            }
        }
    }

    /// The encoded words.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

impl Borrow<[u64]> for KeyBuf {
    fn borrow(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(vals: &[Value], i: &mut StrInterner) -> KeyBuf {
        let mut k = KeyBuf::new();
        for v in vals {
            k.push_value(v, i);
        }
        k
    }

    #[test]
    fn mirrors_value_equality() {
        let mut i = StrInterner::new();
        // Int(3) == Float(3.0) == Date? (3 days) — same numeric class.
        let a = enc(&[Value::Int(3)], &mut i);
        let b = enc(&[Value::Float(3.0)], &mut i);
        let c = enc(&[Value::Date(3)], &mut i);
        assert_eq!(a, b);
        assert_eq!(a, c);
        // -0.0 normalises to 0.0.
        assert_eq!(enc(&[Value::Float(0.0)], &mut i), enc(&[Value::Float(-0.0)], &mut i));
        // Distinct types stay distinct.
        assert_ne!(enc(&[Value::Null], &mut i), enc(&[Value::Bool(false)], &mut i));
        assert_ne!(enc(&[Value::Bool(true)], &mut i), enc(&[Value::Int(1)], &mut i));
    }

    #[test]
    fn strings_encode_by_interner_id() {
        let mut i = StrInterner::new();
        let a1 = enc(&[Value::str("a")], &mut i);
        let b = enc(&[Value::str("b")], &mut i);
        let a2 = enc(&[Value::str("a")], &mut i);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn scratch_reuse() {
        let mut i = StrInterner::new();
        let mut k = KeyBuf::new();
        k.push_value(&Value::Int(1), &mut i);
        let one = k.clone();
        k.clear();
        k.push_value(&Value::Int(2), &mut i);
        assert_ne!(k, one);
        assert_eq!(k.as_words().len(), 2);
    }

    #[test]
    fn borrow_matches_hash() {
        use crate::fxhash::FxBuildHasher;
        use std::hash::BuildHasher;
        let mut i = StrInterner::new();
        let k = enc(&[Value::Int(7), Value::str("x")], &mut i);
        let h = FxBuildHasher::default();
        let via_key = h.hash_one(&k);
        let words: &[u64] = k.borrow();
        assert_eq!(via_key, h.hash_one(words), "Borrow<[u64]> must hash identically");
    }
}
