//! Insertion-ordered flat hash table for operator state.
//!
//! [`FlatTable`] keys dense state slots by encoded key words (see
//! [`KeyBuf`]): an FxHash index maps the 64-bit hash of a key's `u64` words
//! to a `u32` slot id into a `Vec` of values, so lookups hash a few words (no
//! `Value` enum walks, no SipHash seeds) and the values live contiguously in
//! insertion order. Every key of one table has the same number of words, so
//! all keys live in one arena of that fixed stride beside the values: slot
//! `id`'s key is `keys[id * stride..][..stride]`, and inserting a fresh key
//! appends words to the arena instead of allocating. The index holds only
//! `(hash, id)`. Hash collisions (distinct keys, equal 64-bit hash) are
//! handled by an id overflow list and resolved by comparing the slot's
//! stored key words. Removal tombstones the slot — ids handed out during
//! one incremental execution stay valid for its whole duration — and
//! [`FlatTable::maybe_compact`], called by operators *between* executions,
//! reclaims tombstoned slots once they outnumber live ones.
//!
//! Layout (slot order, index bucket order) is a pure function of the
//! operation sequence: FxHash has no per-process seed, and the drivers
//! guarantee a deterministic operation sequence per operator. Nothing the
//! engine emits depends on layout anyway — emission order comes from
//! per-slot consolidated entry runs (join) or first-touch lists (aggregation) —
//! so layout determinism is defense in depth, extending the cross-process
//! guarantee of `tests/lattice.rs`'s golden constants to the state itself.
//!
//! [`KeyBuf`]: ishare_common::KeyBuf

use ishare_common::fxhash::hash_words;
use ishare_common::FxHashMap;

/// Slot ids sharing one 64-bit hash. Almost always exactly one; the `Many`
/// arm exists so a genuine 64-bit collision degrades to a short scan
/// instead of a wrong answer.
#[derive(Debug, Clone)]
enum IdList {
    One(u32),
    Many(Vec<u32>),
}

impl IdList {
    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            IdList::One(id) => std::slice::from_ref(id),
            IdList::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: u32) {
        match self {
            IdList::One(first) => *self = IdList::Many(vec![*first, id]),
            IdList::Many(ids) => ids.push(id),
        }
    }
}

/// A hash-indexed dense table keyed by encoded keys of one fixed width.
#[derive(Debug, Clone)]
pub struct FlatTable<V> {
    index: FxHashMap<u64, IdList>,
    /// Words per key, fixed by the first insert into an empty table.
    stride: usize,
    /// Slot `id`'s key words are `keys[id * stride..(id + 1) * stride]`;
    /// a tombstoned slot keeps its words until [`Self::maybe_compact`].
    keys: Vec<u64>,
    values: Vec<Option<V>>,
    live: usize,
    tombstones: usize,
}

impl<V> Default for FlatTable<V> {
    fn default() -> Self {
        FlatTable {
            index: FxHashMap::default(),
            stride: 0,
            keys: Vec::new(),
            values: Vec::new(),
            live: 0,
            tombstones: 0,
        }
    }
}

impl<V> FlatTable<V> {
    /// Fresh empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` iff no live entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn key(&self, id: u32) -> &[u64] {
        let start = id as usize * self.stride;
        &self.keys[start..start + self.stride]
    }

    #[inline]
    fn find(&self, key: &[u64], hash: u64) -> Option<u32> {
        let ids = self.index.get(&hash)?.as_slice();
        ids.iter().copied().find(|&id| self.values[id as usize].is_some() && self.key(id) == key)
    }

    /// Look up by encoded key words (zero-allocation probe from a scratch
    /// key buffer).
    #[inline]
    pub fn get(&self, key: &[u64]) -> Option<&V> {
        let id = self.find(key, hash_words(key))?;
        self.values[id as usize].as_ref()
    }

    /// Slot id for a key, if present. Ids are stable until the next
    /// [`Self::maybe_compact`].
    #[inline]
    pub fn id_of(&self, key: &[u64]) -> Option<u32> {
        self.find(key, hash_words(key))
    }

    /// Value at a live slot id.
    #[inline]
    pub fn get_by_id_mut(&mut self, id: u32) -> Option<&mut V> {
        self.values[id as usize].as_mut()
    }

    /// Value at a live slot id (shared).
    #[inline]
    pub fn get_by_id(&self, id: u32) -> Option<&V> {
        self.values[id as usize].as_ref()
    }

    /// Slot id for `key`, inserting `make()` into a fresh slot when absent.
    /// A miss appends the key words to the arena; the probe path copies
    /// nothing. Every key of a table must have the same number of words.
    #[inline]
    pub fn id_or_insert_with(&mut self, key: &[u64], make: impl FnOnce() -> V) -> u32 {
        let hash = hash_words(key);
        if let Some(id) = self.find(key, hash) {
            return id;
        }
        if self.values.is_empty() {
            self.stride = key.len();
        }
        assert_eq!(key.len(), self.stride, "flat table keys must have one width");
        let id = u32::try_from(self.values.len()).expect("flat table overflow");
        self.keys.extend_from_slice(key);
        self.values.push(Some(make()));
        self.live += 1;
        self.index_id(hash, id);
        id
    }

    fn index_id(&mut self, hash: u64, id: u32) {
        match self.index.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(id),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(IdList::One(id));
            }
        }
    }

    /// Ids of all live slots, in slot (= insertion) order. Stable until the
    /// next [`Self::maybe_compact`]; used by query churn to walk operator
    /// state for mask widening / retirement.
    pub fn live_ids(&self) -> Vec<u32> {
        (0..self.values.len() as u32).filter(|&id| self.values[id as usize].is_some()).collect()
    }

    /// Key words and value at a live slot id.
    #[inline]
    pub fn get_by_id_with_key(&self, id: u32) -> Option<(&[u64], &V)> {
        self.values[id as usize].as_ref().map(|v| (self.key(id), v))
    }

    /// Remove the entry at `id`, tombstoning its slot. No-op on a dead id.
    pub fn remove_id(&mut self, id: u32) {
        if self.values[id as usize].take().is_some() {
            let hash = hash_words(self.key(id));
            match self.index.get_mut(&hash) {
                Some(IdList::One(_)) => {
                    self.index.remove(&hash);
                }
                Some(IdList::Many(ids)) => {
                    ids.retain(|&i| i != id);
                    if let [only] = ids[..] {
                        self.index.insert(hash, IdList::One(only));
                    }
                }
                None => unreachable!("indexed slot"),
            }
            self.live -= 1;
            self.tombstones += 1;
        }
    }

    /// Reclaim tombstoned slots when they outnumber live entries. Slot ids
    /// change (live entries are renumbered in insertion order), so this must
    /// only run between incremental executions, never while ids are held.
    pub fn maybe_compact(&mut self) {
        if self.tombstones <= self.live {
            return;
        }
        let stride = self.stride;
        let mut next = 0;
        for id in 0..self.values.len() {
            if self.values[id].is_some() {
                self.keys.copy_within(id * stride..(id + 1) * stride, next * stride);
                next += 1;
            }
        }
        self.keys.truncate(next * stride);
        self.values.retain(Option::is_some);
        self.index.clear();
        for id in 0..next as u32 {
            self.index_id(hash_words(self.key(id)), id);
        }
        self.tombstones = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{KeyBuf, StrInterner, Value};

    fn key(i: i64) -> KeyBuf {
        let mut k = KeyBuf::new();
        k.push_value(&Value::Int(i), &mut StrInterner::new());
        k
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t: FlatTable<i64> = FlatTable::new();
        let a = t.id_or_insert_with(key(1).as_words(), || 10);
        let b = t.id_or_insert_with(key(2).as_words(), || 20);
        assert_ne!(a, b);
        assert_eq!(t.id_or_insert_with(key(1).as_words(), || 99), a, "existing key keeps its slot");
        assert_eq!(t.get(key(1).as_words()), Some(&10));
        assert_eq!(t.id_of(key(2).as_words()), Some(b));
        *t.get_by_id_mut(a).unwrap() += 1;
        assert_eq!(t.get_by_id(a), Some(&11));
        assert_eq!(t.len(), 2);
        t.remove_id(a);
        assert_eq!(t.get(key(1).as_words()), None);
        assert_eq!(t.len(), 1);
        t.remove_id(a); // dead id: no-op
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn compaction_renumbers_but_preserves_entries() {
        let mut t: FlatTable<i64> = FlatTable::new();
        for i in 0..10 {
            t.id_or_insert_with(key(i).as_words(), || i * 100);
        }
        for i in [0, 1, 2, 4, 5, 6, 8] {
            let id = t.id_of(key(i).as_words()).unwrap();
            t.remove_id(id);
        }
        t.maybe_compact();
        assert_eq!(t.len(), 3);
        for (id, i) in [3, 7, 9].into_iter().enumerate() {
            assert_eq!(t.get(key(i).as_words()), Some(&(i * 100)));
            assert_eq!(t.id_of(key(i).as_words()), Some(id as u32), "dense, in insertion order");
            let (k, _) = t.get_by_id_with_key(id as u32).unwrap();
            assert_eq!(k, key(i).as_words(), "key words move with their slot");
        }
        // And the table keeps working after compaction.
        let id = t.id_or_insert_with(key(42).as_words(), || 7);
        assert_eq!(t.get_by_id(id), Some(&7));
    }

    #[test]
    fn compaction_skipped_while_mostly_live() {
        let mut t: FlatTable<i64> = FlatTable::new();
        for i in 0..4 {
            t.id_or_insert_with(key(i).as_words(), || i);
        }
        let id0 = t.id_of(key(0).as_words()).unwrap();
        t.remove_id(id0);
        t.maybe_compact(); // 1 tombstone vs 3 live: keep ids stable
        assert_eq!(t.id_of(key(3).as_words()), Some(3));
    }

    #[test]
    fn colliding_hashes_stay_distinct() {
        // Force the Many arm by inserting through a table whose index we
        // seed with an artificial collision: two distinct keys that the
        // 64-bit hash maps together are astronomically unlikely to occur
        // naturally, so exercise the overflow list directly instead.
        let mut t: FlatTable<i64> = FlatTable::new();
        let a = t.id_or_insert_with(key(1).as_words(), || 1);
        let b = t.id_or_insert_with(key(2).as_words(), || 2);
        // Merge both ids under both hash entries: lookups must still
        // resolve by comparing stored key words.
        let ha = hash_words(key(1).as_words());
        let hb = hash_words(key(2).as_words());
        t.index.insert(ha, IdList::Many(vec![a, b]));
        t.index.insert(hb, IdList::Many(vec![a, b]));
        assert_eq!(t.get(key(1).as_words()), Some(&1));
        assert_eq!(t.get(key(2).as_words()), Some(&2));
        t.remove_id(a);
        assert_eq!(t.get(key(1).as_words()), None);
        assert_eq!(t.get(key(2).as_words()), Some(&2));
    }
}
