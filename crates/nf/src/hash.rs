//! The one hasher behind this crate's per-packet and control-plane maps:
//! a keyed folded multiply over whole `u64` words.
//!
//! [`FlowTable`](crate::state::FlowTable) is probed once per packet by
//! every stateful NF with a key an outside sender chooses, so its hasher
//! has two jobs: cost a few cycles, and keep bucket placement
//! uncomputable offline. [`FoldState`] draws two 64-bit keys per table
//! from `RandomState` (the process's OS-seeded SipHash keys): one starts
//! the accumulator, the other is XORed in before the last mixing step.
//! A step is one 64×64→128 multiply by a fixed odd constant whose halves
//! are XORed together — the keys enter by XOR, never as a multiplier, so
//! no key value is weak. Without the keys nobody can precompute a set of
//! 5-tuples that land in one bucket — the property SipHash gave these
//! tables. It is **not** a PRF: an observer who can time individual
//! probes of one table could in principle learn about its keys, which
//! SipHash is designed to withstand and this is not.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Odd multiplier of the mixing step (Knuth's MMIX LCG constant).
const MULTIPLE: u64 = 6_364_136_223_846_793_005;

/// Full 128-bit product of `a` and `b`, high half folded onto the low:
/// every input bit reaches every output bit through the carries.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Per-table hasher keys; `Default` draws a fresh pair.
#[derive(Debug, Clone)]
pub(crate) struct FoldState {
    k0: u64,
    k1: u64,
}

impl Default for FoldState {
    fn default() -> Self {
        // `RandomState` exposes no key material; hashing two constants
        // through it is the supported way to get words that depend on it.
        let seed = RandomState::new();
        Self {
            k0: seed.hash_one(0u64),
            k1: seed.hash_one(1u64),
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.k0,
            k1: self.k1,
        }
    }
}

/// Streaming state of one hash: the accumulator and the finishing key.
#[derive(Debug, Clone)]
pub(crate) struct FoldHasher {
    acc: u64,
    k1: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = folded_multiply(self.acc ^ word, MULTIPLE);
    }

    /// Byte strings go through the word step eight bytes at a time, the
    /// tail zero-padded and followed by the length. The crate's own keys
    /// never take this path — they hash as whole words.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.write_u64(u64::from_le_bytes(tail));
        self.write_u64(bytes.len() as u64);
    }

    /// The second key, then one more step: the fold carries the product's
    /// well-mixed high half into the low bits the map picks buckets by.
    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc ^ self.k1, MULTIPLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_packet::flow::FlowKey;
    use nfp_packet::ipv4::Ipv4Addr;

    fn key(dip_low: u8, sport: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 9, 9, dip_low),
            sport,
            80,
            6,
        )
    }

    #[test]
    fn one_builder_is_stable_and_two_builders_disagree() {
        let a = FoldState::default();
        let b = FoldState::default();
        let k = key(9, 1234);
        assert_eq!(a.hash_one(k), a.hash_one(k));
        assert_eq!(a.clone().hash_one(k), a.hash_one(k));
        assert_ne!(a.hash_one(k), a.hash_one(key(9, 1235)));
        // Independent keys: 2^-64 odds of a false failure.
        assert_ne!(a.hash_one(k), b.hash_one(k));
    }

    /// `keys` hashed under `state`, counted per class of `class(hash)`:
    /// (classes hit, most keys in one class).
    fn spread(
        state: &FoldState,
        keys: &[FlowKey],
        classes: usize,
        class: impl Fn(u64) -> usize,
    ) -> (usize, usize) {
        let mut load = vec![0usize; classes];
        for k in keys {
            load[class(state.hash_one(k))] += 1;
        }
        (
            load.iter().filter(|&&n| n > 0).count(),
            load.into_iter().max().unwrap_or(0),
        )
    }

    /// hashbrown picks the bucket from the hash's low bits and tells
    /// bucket-mates apart by its top seven. Keys that differ in one
    /// narrow field — 4096 flows apart only in `sport` (the `ns_dc`
    /// shape), 256 apart only in `dip`'s low byte — must look random in
    /// both. Throwing n keys into n buckets at random hits 63% of them
    /// (σ < 1%) with 7–8 in the fullest; a mixer that leaks input
    /// structure shows up as long probe chains, never as a wrong answer,
    /// so the bounds are stated here: ≥ 55% of buckets hit, ≤ 16 in one
    /// bucket, and the top-7-bit classes within 4× of even.
    #[test]
    fn narrow_key_differences_spread_over_bucket_and_tag_bits() {
        let by_sport: Vec<FlowKey> = (0..4096).map(|s| key(9, s)).collect();
        let by_dip: Vec<FlowKey> = (0..=255).map(|d| key(d, 1234)).collect();
        let fixed = [
            (0, 0),
            (1, 2),
            (u64::MAX, u64::MAX),
            (0x9e37_79b9, 0x7f4a_7c15),
        ];
        let states = fixed
            .into_iter()
            .map(|(k0, k1)| FoldState { k0, k1 })
            .chain([FoldState::default()]);
        for state in states {
            for keys in [&by_sport, &by_dip] {
                let n = keys.len();
                let (hit, fullest) = spread(&state, keys, n, |h| h as usize & (n - 1));
                assert!(hit * 100 >= n * 55, "{state:?}: {hit}/{n} buckets hit");
                assert!(fullest <= 16, "{state:?}: {fullest} keys in one bucket");
                let (tags, fullest) = spread(&state, keys, 128, |h| (h >> 57) as usize);
                let even = n.div_ceil(128);
                assert!(tags >= 64, "{state:?}: {tags}/128 tags used by {n} keys");
                assert!(
                    fullest <= 4 * even + 4,
                    "{state:?}: {fullest} keys share a tag"
                );
            }
        }
    }

    #[test]
    fn byte_strings_are_length_and_content_sensitive() {
        let s = FoldState { k0: 1, k1: 2 };
        let h = |b: &[u8]| {
            let mut hasher = s.build_hasher();
            hasher.write(b);
            hasher.finish()
        };
        assert_ne!(h(b""), h(b"\0"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefgh\0"));
        assert_ne!(h(b"abcdefghi"), h(b"abcdefghj"));
        assert_eq!(h(b"abcdefghi"), h(b"abcdefghi"));
    }
}
