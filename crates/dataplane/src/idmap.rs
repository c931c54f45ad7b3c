//! Hash maps keyed by engine-assigned identifiers.
//!
//! The agent and merger tables are keyed by MIDs, segment indices, PIDs and
//! merge sequence numbers — small integers the classifier and the agent
//! hand out themselves, densely and in order. They are **not**
//! attacker-chosen bytes, so std's SipHash buys no collision protection
//! here and costs most of a lookup. [`IdMap`] hashes such keys with one
//! multiply-rotate round per integer instead. Do not use it for keys that
//! arrive from outside the program (flow tuples, payload bytes): those keep
//! the default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hasher for integer keys (the `FxHash` construction):
/// each written integer is folded in with a rotate, an xor and one
/// multiplication by an odd constant, which spreads dense ids over both
/// the low bits hashbrown indexes buckets with and the high bits it tags
/// them with.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl IdHasher {
    #[inline]
    fn mix(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn dense_ids_spread_over_bucket_and_tag_bits() {
        // 1024 consecutive PIDs must not pile up in either the low bits
        // (bucket index) or the top seven (control-byte tag).
        let mut low = [0u32; 64];
        let mut high = [0u32; 128];
        for pid in 0..1024u64 {
            let h = hash_of(pid);
            low[(h & 63) as usize] += 1;
            high[(h >> 57) as usize] += 1;
        }
        assert!(low.iter().all(|&n| (8..=24).contains(&n)), "{low:?}");
        assert!(high.iter().all(|&n| n <= 24), "{high:?}");
    }

    #[test]
    fn tuple_keys_depend_on_every_component() {
        let base = hash_of((1u32, 2u32, 3u64));
        assert_ne!(base, hash_of((2u32, 2u32, 3u64)));
        assert_ne!(base, hash_of((1u32, 3u32, 3u64)));
        assert_ne!(base, hash_of((1u32, 2u32, 4u64)));
        assert_eq!(base, hash_of((1u32, 2u32, 3u64)));
    }

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: IdMap<(u32, u32, u64), usize> = IdMap::default();
        for pid in 0..500u64 {
            m.insert((1, 0, pid), pid as usize);
        }
        for pid in (0..500u64).step_by(2) {
            assert_eq!(m.remove(&(1, 0, pid)), Some(pid as usize));
        }
        assert_eq!(m.len(), 250);
        assert_eq!(m.get(&(1, 0, 7)), Some(&7));
        assert_eq!(m.get(&(1, 0, 8)), None);
    }
}
