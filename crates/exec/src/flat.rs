//! Insertion-ordered flat hash table for operator state.
//!
//! [`FlatTable`] keys dense state slots by encoded [`KeyBuf`]s: an FxHash
//! index maps the 64-bit hash of a key's `u64` words to a `u32` slot id
//! into a `Vec` of values, so lookups hash a few words (no `Value` enum
//! walks, no SipHash seeds) and the values live contiguously in insertion
//! order. The key itself is materialized exactly once, in the slot — the
//! index holds only `(hash, id)`, so inserting a fresh key costs one
//! allocation, not two. Hash collisions (distinct keys, equal 64-bit hash)
//! are handled by an id overflow list and resolved by comparing the slot's
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
//! so layout determinism is defense in depth, extending `validate_replay`'s
//! cross-process guarantee to the state itself.

use ishare_common::fxhash::{hash_words, partition_of};
use ishare_common::{FxHashMap, KeyBuf};

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

/// A hash-indexed dense table keyed by encoded keys.
#[derive(Debug, Clone)]
pub struct FlatTable<V> {
    index: FxHashMap<u64, IdList>,
    slots: Vec<Option<(KeyBuf, V)>>,
    live: usize,
    tombstones: usize,
}

impl<V> Default for FlatTable<V> {
    fn default() -> Self {
        FlatTable { index: FxHashMap::default(), slots: Vec::new(), live: 0, tombstones: 0 }
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
    fn find(&self, key: &[u64], hash: u64) -> Option<u32> {
        for &id in self.index.get(&hash)?.as_slice() {
            if let Some((k, _)) = &self.slots[id as usize] {
                if k.as_words() == key {
                    return Some(id);
                }
            }
        }
        None
    }

    /// Look up by encoded key words (zero-allocation probe from a scratch
    /// [`KeyBuf`]).
    #[inline]
    pub fn get(&self, key: &[u64]) -> Option<&V> {
        let id = self.find(key, hash_words(key))?;
        self.slots[id as usize].as_ref().map(|(_, v)| v)
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
        self.slots[id as usize].as_mut().map(|(_, v)| v)
    }

    /// Value at a live slot id (shared).
    #[inline]
    pub fn get_by_id(&self, id: u32) -> Option<&V> {
        self.slots[id as usize].as_ref().map(|(_, v)| v)
    }

    /// Slot id for `key`, inserting `make()` into a fresh slot when absent.
    /// The key words are materialized into one owned [`KeyBuf`] only on
    /// insert (misses), never on the probe path.
    #[inline]
    pub fn id_or_insert_with(&mut self, key: &[u64], make: impl FnOnce() -> V) -> u32 {
        let hash = hash_words(key);
        if let Some(id) = self.find(key, hash) {
            return id;
        }
        let id = u32::try_from(self.slots.len()).expect("flat table overflow");
        self.slots.push(Some((KeyBuf::from_words(key), make())));
        self.live += 1;
        match self.index.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(id),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(IdList::One(id));
            }
        }
        id
    }

    /// Ids of all live slots, in slot (= insertion) order. Stable until the
    /// next [`Self::maybe_compact`]; used by query churn to walk operator
    /// state for mask widening / retirement.
    pub fn live_ids(&self) -> Vec<u32> {
        (0..self.slots.len() as u32).filter(|&id| self.slots[id as usize].is_some()).collect()
    }

    /// Key words and value at a live slot id.
    #[inline]
    pub fn get_by_id_with_key(&self, id: u32) -> Option<(&[u64], &V)> {
        self.slots[id as usize].as_ref().map(|(k, v)| (k.as_words(), v))
    }

    /// Remove the entry at `id`, tombstoning its slot. No-op on a dead id.
    pub fn remove_id(&mut self, id: u32) {
        if let Some((key, _)) = self.slots[id as usize].take() {
            let hash = hash_words(key.as_words());
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
        self.slots.retain(|s| s.is_some());
        self.index.clear();
        for (next, slot) in self.slots.iter().enumerate() {
            let (key, _) = slot.as_ref().expect("retained slot");
            let id = next as u32;
            match self.index.entry(hash_words(key.as_words())) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(id),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(IdList::One(id));
                }
            }
        }
        self.tombstones = 0;
    }

    /// Split this table into `partitions` tables by key hash
    /// ([`partition_of`] over each slot's stored key words), consuming it.
    ///
    /// Live entries are distributed in slot (= insertion) order, so each
    /// partition's insertion order is the subsequence of the original's that
    /// it owns — the invariant the exchange's deterministic merge relies on.
    /// Tombstones are dropped; slot ids are renumbered per partition.
    pub fn split_by(self, partitions: usize) -> Vec<FlatTable<V>> {
        assert!(partitions > 0, "split_by needs at least one partition");
        let mut parts: Vec<FlatTable<V>> = (0..partitions).map(|_| FlatTable::new()).collect();
        for slot in self.slots.into_iter().flatten() {
            let (key, value) = slot;
            let p = partition_of(key.as_words(), partitions);
            let mut value = Some(value);
            parts[p].id_or_insert_with(key.as_words(), || value.take().expect("fresh key"));
            debug_assert!(value.is_none(), "duplicate key within one table");
        }
        parts
    }

    /// Rebuild one table from partitioned tables (inverse of
    /// [`Self::split_by`] up to slot renumbering), consuming them.
    ///
    /// Entries are inserted in partition-index order, and within each
    /// partition in its insertion order — deterministic regardless of how
    /// the partitions were populated concurrently.
    pub fn merge(parts: Vec<FlatTable<V>>) -> FlatTable<V> {
        let mut out = FlatTable::new();
        for part in parts {
            for slot in part.slots.into_iter().flatten() {
                let (key, value) = slot;
                let mut value = Some(value);
                out.id_or_insert_with(key.as_words(), || value.take().expect("fresh key"));
                debug_assert!(value.is_none(), "key owned by two partitions");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{StrInterner, Value};

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
        for i in 0..9 {
            let id = t.id_of(key(i).as_words()).unwrap();
            t.remove_id(id);
        }
        t.maybe_compact();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(key(9).as_words()), Some(&900));
        assert_eq!(t.id_of(key(9).as_words()), Some(0), "renumbered to dense prefix");
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

    /// Split distributes every entry to its hash-owner and merge restores
    /// the full table with a deterministic insertion order: partition-index
    /// order, then per-partition insertion order. Running split→merge twice
    /// must produce identical slot numbering.
    #[test]
    fn split_merge_roundtrip_is_deterministic() {
        let build = || {
            let mut t: FlatTable<i64> = FlatTable::new();
            for i in 0..40 {
                t.id_or_insert_with(key(i).as_words(), || i * 10);
            }
            t
        };
        for partitions in [1usize, 2, 4, 8] {
            let parts = build().split_by(partitions);
            assert_eq!(parts.len(), partitions);
            let total: usize = parts.iter().map(|p| p.len()).sum();
            assert_eq!(total, 40, "no entry lost or duplicated");
            for (p, part) in parts.iter().enumerate() {
                for i in 0..40 {
                    if part.get(key(i).as_words()).is_some() {
                        assert_eq!(partition_of(key(i).as_words(), partitions), p);
                    }
                }
            }
            let merged = FlatTable::merge(parts);
            assert_eq!(merged.len(), 40);
            let merged2 = FlatTable::merge(build().split_by(partitions));
            for i in 0..40 {
                assert_eq!(merged.get(key(i).as_words()), Some(&(i * 10)));
                assert_eq!(
                    merged.id_of(key(i).as_words()),
                    merged2.id_of(key(i).as_words()),
                    "merge order must be deterministic"
                );
            }
        }
    }

    /// Each partition compacts its tombstones independently without
    /// disturbing the other partitions' live entries.
    #[test]
    fn per_partition_tombstone_compaction() {
        let mut t: FlatTable<i64> = FlatTable::new();
        for i in 0..32 {
            t.id_or_insert_with(key(i).as_words(), || i);
        }
        let mut parts = t.split_by(4);
        // Tombstone most of partition 0, none of the others.
        let victims: Vec<u32> = (0..32)
            .filter_map(|i| parts[0].id_of(key(i).as_words()))
            .take(parts[0].len().saturating_sub(1))
            .collect();
        let survivors_before: usize = parts.iter().map(|p| p.len()).sum();
        for id in victims {
            parts[0].remove_id(id);
        }
        let removed = survivors_before - parts.iter().map(|p| p.len()).sum::<usize>();
        for p in parts.iter_mut() {
            p.maybe_compact();
        }
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 32 - removed);
        let merged = FlatTable::merge(parts);
        let mut live = 0;
        for i in 0..32 {
            if let Some(v) = merged.get(key(i).as_words()) {
                assert_eq!(*v, i);
                live += 1;
            }
        }
        assert_eq!(live, 32 - removed);
    }

    /// Skew pin: when every key hashes to one partition, that partition
    /// holds everything, the rest stay empty, and the roundtrip is still
    /// correct and ordered.
    #[test]
    fn skewed_split_pins_one_partition() {
        // A single repeated key value obviously pins; use many distinct keys
        // that share an owner instead, by filtering for a fixed partition.
        let partitions = 4;
        let target = partition_of(key(0).as_words(), partitions);
        let pinned: Vec<i64> =
            (0..500).filter(|&i| partition_of(key(i).as_words(), partitions) == target).collect();
        assert!(pinned.len() >= 8, "need a few keys owned by one partition");
        let mut t: FlatTable<i64> = FlatTable::new();
        for &i in &pinned {
            t.id_or_insert_with(key(i).as_words(), || i);
        }
        let parts = t.split_by(partitions);
        for (p, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), if p == target { pinned.len() } else { 0 });
        }
        let merged = FlatTable::merge(parts);
        for (pos, &i) in pinned.iter().enumerate() {
            assert_eq!(merged.get(key(i).as_words()), Some(&i));
            assert_eq!(merged.id_of(key(i).as_words()), Some(pos as u32), "insertion order kept");
        }
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
