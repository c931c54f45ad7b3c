//! The canonical flow identity: the immutable 5-tuple and its RSS hash.
//!
//! Three consumers must agree byte-for-byte on how a packet maps to a
//! flow — the sharded engine's RSS dispatcher, the classifier (which
//! stamps the admission-time key into the packet metadata sidecar), and
//! every stateful NF keying its per-flow table. Hosting the key and the
//! FNV-1a hash here, in the one crate all three depend on, makes drift
//! between them impossible by construction: `shard_of` in the dataplane
//! and `FlowTable` partition checks in `nfp-nf` both call
//! [`FlowKey::shard`].
//!
//! The hash is computed over the 5-tuple *at admission*. NFs downstream
//! of a header-rewriting NF (a NAT rewrites sip/sport before a load
//! balancer sees the packet) must key their state by the admission-time
//! key carried in [`Metadata::flow`](crate::meta::Metadata::flow), never
//! by re-parsing the (possibly rewritten) headers — otherwise a flow's
//! state would land on a different shard than the flow itself.

use crate::ipv4::Ipv4Addr;
use crate::packet::Packet;

/// Length of the serialized key: 4 + 4 + 2 + 2 + 1 bytes.
#[cfg(test)]
const FLOW_KEY_BYTES: usize = 13;

/// The immutable 5-tuple identifying one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source address.
    pub sip: Ipv4Addr,
    /// Destination address.
    dip: Ipv4Addr,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    dport: u16,
    /// L4 protocol.
    proto: u8,
}

/// In-memory maps hash a key as two packed words — both addresses, then
/// ports and protocol — so a word-at-a-time hasher mixes twice per key
/// instead of once per field. Equal keys pack equally, which is all
/// `Hash` owes `Eq`. Not to be confused with [`FlowKey::hash`], the RSS
/// wire contract, which this does not touch.
impl core::hash::Hash for FlowKey {
    #[inline]
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.sip.to_u32()) << 32 | u64::from(self.dip.to_u32()));
        state.write_u64(
            u64::from(self.sport) << 24 | u64::from(self.dport) << 8 | u64::from(self.proto),
        );
    }
}

impl FlowKey {
    /// Build a key from explicit tuple parts.
    #[inline]
    pub fn new(sip: Ipv4Addr, dip: Ipv4Addr, sport: u16, dport: u16, proto: u8) -> Self {
        Self {
            sip,
            dip,
            sport,
            dport,
            proto,
        }
    }

    /// Extract the key from a parseable packet; `None` when the frame
    /// does not carry an Ethernet/IPv4/TCP|UDP 5-tuple (such packets all
    /// land on shard 0 and carry no flow sidecar).
    #[inline]
    pub fn of(pkt: &Packet) -> Option<Self> {
        let (sip, dip, sport, dport, proto) = pkt.five_tuple().ok()?;
        Some(Self::new(sip, dip, sport, dport, proto))
    }

    /// FNV-1a over the tuple bytes — the RSS hash. Byte order matches
    /// the original dataplane `shard_of`: address octets as they sit on
    /// the wire, ports big-endian, protocol last.
    #[inline]
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in self.sip.0.into_iter().chain(self.dip.0) {
            eat(b);
        }
        for b in self
            .sport
            .to_be_bytes()
            .into_iter()
            .chain(self.dport.to_be_bytes())
        {
            eat(b);
        }
        eat(self.proto);
        h
    }

    /// The shard this flow belongs to in a `shards`-way fleet.
    #[inline]
    pub fn shard(&self, shards: usize) -> usize {
        if shards <= 1 {
            0
        } else {
            (self.hash() % shards as u64) as usize
        }
    }

    /// Serialize for state snapshots (fixed-width, byte order as hashed).
    #[cfg(test)]
    fn to_bytes(self) -> [u8; FLOW_KEY_BYTES] {
        let mut out = [0u8; FLOW_KEY_BYTES];
        out[0..4].copy_from_slice(&self.sip.0);
        out[4..8].copy_from_slice(&self.dip.0);
        out[8..10].copy_from_slice(&self.sport.to_be_bytes());
        out[10..12].copy_from_slice(&self.dport.to_be_bytes());
        out[12] = self.proto;
        out
    }

    /// Rebuild from [`FlowKey::to_bytes`] output.
    #[cfg(test)]
    fn from_bytes(b: &[u8; FLOW_KEY_BYTES]) -> Self {
        Self {
            sip: Ipv4Addr([b[0], b[1], b[2], b[3]]),
            dip: Ipv4Addr([b[4], b[5], b[6], b[7]]),
            sport: u16::from_be_bytes([b[8], b[9]]),
            dport: u16::from_be_bytes([b[10], b[11]]),
            proto: b[12],
        }
    }
}

impl core::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{}->{}:{}/{}",
            self.sip, self.sport, self.dip, self.dport, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sport: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 9, 9, 9),
            sport,
            80,
            6,
        )
    }

    #[test]
    fn hash_is_stable_and_tuple_sensitive() {
        assert_eq!(key(1).hash(), key(1).hash());
        assert_ne!(key(1).hash(), key(2).hash());
        // Locked against an independent FNV-1a reference: the shard
        // function is a wire contract (state snapshots partition by it),
        // so a hash change is a migration-breaking event and must be
        // deliberate.
        let k = key(1234);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in k.to_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(k.hash(), h, "to_bytes order and hash order must agree");
    }

    #[test]
    fn map_hash_agrees_with_eq_and_sees_every_field() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |k: &FlowKey| {
            let mut s = DefaultHasher::new();
            Hash::hash(k, &mut s); // not the inherent RSS `FlowKey::hash`
            s.finish()
        };
        let k = key(1234);
        // Equal keys — copied, rebuilt from parts, round-tripped — hash alike.
        assert_eq!(h(&k), h(&{ k }));
        assert_eq!(h(&k), h(&FlowKey::from_bytes(&k.to_bytes())));
        assert_eq!(
            h(&k),
            h(&FlowKey::new(k.sip, k.dip, k.sport, k.dport, k.proto))
        );
        // Keys unequal in exactly one field hash apart: the packing drops
        // no field and lets no two overlap (extremes included).
        let edits: [fn(&mut FlowKey); 7] = [
            |k| k.sip.0[0] ^= 0x80,
            |k| k.sip.0[3] ^= 1,
            |k| k.dip.0[0] ^= 0x80,
            |k| k.dip.0[3] ^= 1,
            |k| k.sport ^= 0x8001,
            |k| k.dport ^= 0x8001,
            |k| k.proto ^= 0x81,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut other = k;
            edit(&mut other);
            assert_ne!(other, k);
            assert_ne!(h(&other), h(&k), "edit {i} invisible to the map hash");
        }
        // A set keyed by the hand-written impl finds what it stored.
        let set: std::collections::HashSet<FlowKey> = (0..512).map(key).collect();
        assert_eq!(set.len(), 512);
        assert!((0..512).all(|s| set.contains(&key(s))));
    }

    #[test]
    fn shard_is_hash_mod_n_and_single_shard_is_zero() {
        let k = key(7);
        assert_eq!(k.shard(1), 0);
        for n in 2..=8usize {
            assert_eq!(k.shard(n), (k.hash() % n as u64) as usize);
        }
    }

    #[test]
    fn bytes_round_trip() {
        for sport in [0u16, 1, 80, 65535] {
            let k = key(sport);
            assert_eq!(FlowKey::from_bytes(&k.to_bytes()), k);
        }
    }

    #[test]
    fn extraction_matches_manual_tuple() {
        let pkt = crate::testutil::tcp_packet(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            1111,
            2222,
            b"payload",
        );
        let k = FlowKey::of(&pkt).unwrap();
        assert_eq!(k.sip, Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(k.dport, 2222);
        assert_eq!(k.proto, crate::ipv4::PROTO_TCP);
    }

    #[test]
    fn garbage_has_no_key() {
        let garbage = Packet::from_bytes(&[0u8; 40]).unwrap();
        assert_eq!(FlowKey::of(&garbage), None);
    }
}
