//! Deterministic FxHash-style hasher for engine-internal hash maps.
//!
//! `std::collections::HashMap` seeds SipHash from process randomness, so map
//! *layout* (bucket order, iteration order) differs between processes. The
//! engine never lets layout leak into results or work totals, but the flat
//! operator state of the datapath kernels keys everything by [`KeyBuf`]s of
//! `u64` words, and hashing those through randomly-seeded SipHash is both
//! slow and a standing hazard: any future code that iterates a map would
//! silently become seed-dependent. [`FxHasher`] is the fixed-seed
//! multiply-rotate hash used by rustc (firefox's "Fx" hash): two processes
//! always agree on every hash, so state layout is a pure function of the
//! operation sequence — the same guarantee the golden constants of
//! `tests/lattice.rs` check end to end.
//!
//! Fx is not DoS-resistant; it is only used for engine-internal state keyed
//! by trusted data, never for user-facing collections.
//!
//! [`KeyBuf`]: crate::key::KeyBuf

use std::hash::{BuildHasherDefault, Hasher};

/// The multiply constant from rustc's `FxHasher` (a 64-bit truncation of
/// π's digits with good avalanche behaviour under `mul`+`rotate`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fixed-seed multiply-rotate hasher (rustc's FxHash).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply spreads entropy upward only, and engine keys often
        // vary in few input bits (e.g. [`norm_f64_bits`] of small integers
        // has 40+ trailing zeros, so the product's low bits are constant
        // across keys). hashbrown derives the bucket index from the LOW bits
        // and the SIMD control byte from the TOP 7 — a rotate can feed one
        // but never both, and a constant control byte degrades every probe
        // into full key comparisons. Full xor-shift-multiply avalanche
        // (Murmur3's fmix64) makes every output bit depend on every input
        // bit for a couple of cycles per lookup.
        //
        // [`norm_f64_bits`]: crate::value::norm_f64_bits
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

/// Hash a slice of `u64` key words (an encoded [`KeyBuf`]) with [`FxHasher`].
///
/// This is *the* key hash of the engine: flat operator state uses it to
/// index slots.
///
/// [`KeyBuf`]: crate::key::KeyBuf
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// `BuildHasher` producing [`FxHasher`]s — zero-sized, no per-map seed.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with deterministic (seed-free) hashing.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with deterministic (seed-free) hashing.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        // No per-instance seed: every builder hashes identically. (The
        // cross-*process* half of this guarantee is exercised end to end by
        // the golden constants of tests/lattice.rs.)
        assert_eq!(fx_of(0x1234_5678_9abc_def0u64), fx_of(0x1234_5678_9abc_def0u64));
        assert_eq!(fx_of("hello"), fx_of("hello"));
        assert_eq!(fx_of(vec![1u64, 2, 3]), fx_of(vec![1u64, 2, 3]));
    }

    #[test]
    fn distinguishes_inputs() {
        assert_ne!(fx_of(1u64), fx_of(2u64));
        assert_ne!(fx_of([1u64, 2]), fx_of([2u64, 1]));
        assert_ne!(fx_of("abc"), fx_of("abd"));
    }

    #[test]
    fn hash_words_matches_manual_hasher() {
        let words = [0xdead_beefu64, 7, u64::MAX];
        let mut h = FxHasher::default();
        for &w in &words {
            h.write_u64(w);
        }
        assert_eq!(hash_words(&words), h.finish());
        // Empty key (global aggregate) hashes to a constant.
        assert_eq!(hash_words(&[]), hash_words(&[]));
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&((i * 2) as u32)));
        }
    }
}
