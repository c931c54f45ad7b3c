//! Longest-prefix-match table backing the L3 forwarder ("a longest prefix
//! matching table with 1000 entries", §6.1): a from-scratch stride-8
//! multibit trie with controlled prefix expansion, the shape of DPDK's
//! `rte_lpm` the paper's forwarder uses.
//!
//! A lookup reads one 256-entry node per address byte — at most four
//! dependent loads, against one per address *bit* in a binary trie. A
//! prefix whose length is not a multiple of eight is expanded, at insert
//! time, over every entry of its node that it covers; each entry keeps
//! the length of the prefix that owns it so that a shorter prefix
//! inserted later does not overwrite a longer one. The /0 route covers
//! every entry of the root and is kept beside it instead.
//!
//! Expansion loses which prefixes were installed (a /22 and a /24 can
//! share their first entry), so exact-prefix questions — `LpmTable::get` (test-only)
//! and "is this insert a replacement?" — are answered by a control-plane
//! index from `(masked prefix, length)` to the rule's value slot.
//! Replacing a route's value touches only that slot.
//!
//! Memory is 3 KiB per node: the paper's table (1000 /24s under
//! 10.0.0.0/14 plus a default route) is the root, one second-level and
//! four third-level nodes — 18 KiB.

use crate::hash::FoldState;
use nfp_packet::ipv4::Ipv4Addr;
use std::collections::{hash_map, HashMap};

/// A routing table mapping IPv4 prefixes to values (next hops).
#[derive(Debug, Clone)]
pub struct LpmTable<T> {
    /// One value per installed prefix, in insertion order.
    values: Vec<T>,
    /// `nodes[0]` is the root (first address byte); never empty.
    nodes: Vec<Node>,
    /// Value slot of the /0 route.
    default_route: u32,
    /// [`rule_key`] of every installed prefix → its value slot.
    rules: HashMap<u64, u32, FoldState>,
}

type Node = [Entry; 256];

/// "No value" / "no /0 route" marker; `insert` keeps real slots below it.
const NO_VALUE: u32 = u32::MAX;

/// What one node entry knows about the addresses whose next byte selects
/// it: the longest installed prefix ending in this node that covers them,
/// and the node holding longer ones.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Index of the next-level node; 0 (the root is nobody's child) when
    /// no longer prefix exists below this entry.
    child: u32,
    /// Value slot of the owning prefix, or [`NO_VALUE`].
    value: u32,
    /// Length of the owning prefix (meaningless without a value).
    len: u8,
}

const EMPTY_NODE: Node = [Entry {
    child: 0,
    value: NO_VALUE,
    len: 0,
}; 256];

/// `prefix` with the bits beyond `len` cleared.
fn mask(prefix: Ipv4Addr, len: u8) -> u32 {
    match len {
        0 => 0,
        _ => prefix.to_u32() & (u32::MAX << (32 - u32::from(len))),
    }
}

/// A masked prefix and its length as the one word the rule index hashes.
fn rule_key(addr: u32, len: u8) -> u64 {
    u64::from(addr) << 8 | u64::from(len)
}

impl<T> Default for LpmTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LpmTable<T> {
    /// Create an empty table.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            nodes: vec![EMPTY_NODE],
            default_route: NO_VALUE,
            rules: HashMap::default(),
        }
    }

    /// Number of installed prefixes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no prefix is installed.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Insert `prefix/prefix_len → value`, replacing any previous value for
    /// the same prefix (bits of `prefix` beyond `prefix_len` are ignored).
    /// Returns the old value if one existed.
    ///
    /// Panics if `prefix_len > 32`.
    pub fn insert(&mut self, prefix: Ipv4Addr, prefix_len: u8, value: T) -> Option<T> {
        assert!(prefix_len <= 32, "prefix length {prefix_len} > 32");
        let addr = mask(prefix, prefix_len);
        let slot = match self.rules.entry(rule_key(addr, prefix_len)) {
            hash_map::Entry::Occupied(rule) => {
                let old = &mut self.values[*rule.get() as usize];
                return Some(std::mem::replace(old, value));
            }
            hash_map::Entry::Vacant(rule) => {
                assert!(self.values.len() < NO_VALUE as usize, "too many prefixes");
                *rule.insert(self.values.len() as u32)
            }
        };
        self.values.push(value);
        if prefix_len == 0 {
            self.default_route = slot;
            return None;
        }
        // Walk (creating) one node per whole byte in front of the
        // prefix's last, partial-or-full byte.
        let levels = usize::from(prefix_len - 1) / 8;
        let bytes = addr.to_be_bytes();
        let mut node = 0usize;
        for &byte in &bytes[..levels] {
            let child = self.nodes[node][usize::from(byte)].child;
            node = if child != 0 {
                child as usize
            } else {
                let fresh = u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes");
                self.nodes.push(EMPTY_NODE);
                self.nodes[node][usize::from(byte)].child = fresh;
                fresh as usize
            };
        }
        // Expand over the 2^(spare bits) entries the prefix covers here.
        let first = usize::from(bytes[levels]);
        let span = 1usize << (8 * (levels + 1) - usize::from(prefix_len));
        for e in &mut self.nodes[node][first..first + span] {
            if e.value == NO_VALUE || e.len < prefix_len {
                e.value = slot;
                e.len = prefix_len;
            }
        }
        None
    }

    /// Longest-prefix lookup: the value of the most specific installed
    /// prefix covering `addr`.
    #[inline]
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&T> {
        let mut best = self.default_route;
        let mut node = 0usize;
        for byte in addr.0 {
            let e = &self.nodes[node][usize::from(byte)];
            if e.value != NO_VALUE {
                best = e.value;
            }
            if e.child == 0 {
                break;
            }
            node = e.child as usize;
        }
        // `NO_VALUE` is beyond any table `insert` can build.
        self.values.get(best as usize)
    }

    /// Exact-prefix lookup (diagnostics).
    #[cfg(test)]
    fn get(&self, prefix: Ipv4Addr, prefix_len: u8) -> Option<&T> {
        assert!(prefix_len <= 32);
        let key = rule_key(mask(prefix, prefix_len), prefix_len);
        let slot = *self.rules.get(&key)?;
        self.values.get(slot as usize)
    }
}

/// The retained reference implementation the multibit trie is tested
/// against — slow, obviously right, and compiled for tests only.
#[cfg(test)]
mod reference {
    use nfp_packet::ipv4::Ipv4Addr;

    /// The binary trie this table used to be: one node per prefix bit.
    #[derive(Debug, Clone)]
    pub(super) struct BinaryTrie<T> {
        nodes: Vec<Node<T>>,
        len: usize,
    }

    #[derive(Debug, Clone)]
    struct Node<T> {
        children: [Option<u32>; 2],
        value: Option<T>,
    }

    impl<T> Default for Node<T> {
        fn default() -> Self {
            Self {
                children: [None, None],
                value: None,
            }
        }
    }

    impl<T> BinaryTrie<T> {
        /// Create an empty table.
        pub(super) fn new() -> Self {
            Self {
                nodes: vec![Node::default()],
                len: 0,
            }
        }

        /// Number of installed prefixes.
        pub(super) fn len(&self) -> usize {
            self.len
        }

        /// True when no prefix is installed.
        pub(super) fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Insert `prefix/prefix_len → value`, replacing any previous value for
        /// the same prefix. Returns the old value if one existed.
        ///
        /// Panics if `prefix_len > 32`.
        pub(super) fn insert(&mut self, prefix: Ipv4Addr, prefix_len: u8, value: T) -> Option<T> {
            assert!(prefix_len <= 32, "prefix length {prefix_len} > 32");
            let addr = prefix.to_u32();
            let mut node = 0usize;
            for depth in 0..prefix_len {
                let bit = ((addr >> (31 - depth)) & 1) as usize;
                node = match self.nodes[node].children[bit] {
                    Some(c) => c as usize,
                    None => {
                        let idx = self.nodes.len() as u32;
                        self.nodes.push(Node::default());
                        self.nodes[node].children[bit] = Some(idx);
                        idx as usize
                    }
                };
            }
            let old = self.nodes[node].value.replace(value);
            if old.is_none() {
                self.len += 1;
            }
            old
        }

        /// Longest-prefix lookup: the value of the most specific installed
        /// prefix covering `addr`.
        pub(super) fn lookup(&self, addr: Ipv4Addr) -> Option<&T> {
            let a = addr.to_u32();
            let mut node = 0usize;
            let mut best = self.nodes[0].value.as_ref();
            for depth in 0..32 {
                let bit = ((a >> (31 - depth)) & 1) as usize;
                match self.nodes[node].children[bit] {
                    Some(c) => {
                        node = c as usize;
                        if let Some(v) = self.nodes[node].value.as_ref() {
                            best = Some(v);
                        }
                    }
                    None => break,
                }
            }
            best
        }

        /// Exact-prefix lookup (diagnostics).
        pub(super) fn get(&self, prefix: Ipv4Addr, prefix_len: u8) -> Option<&T> {
            assert!(prefix_len <= 32);
            let addr = prefix.to_u32();
            let mut node = 0usize;
            for depth in 0..prefix_len {
                let bit = ((addr >> (31 - depth)) & 1) as usize;
                node = self.nodes[node].children[bit]? as usize;
            }
            self.nodes[node].value.as_ref()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = LpmTable::new();
        t.insert(ip("10.0.0.0"), 8, "broad");
        t.insert(ip("10.1.0.0"), 16, "mid");
        t.insert(ip("10.1.2.0"), 24, "narrow");
        assert_eq!(t.lookup(ip("10.1.2.3")), Some(&"narrow"));
        assert_eq!(t.lookup(ip("10.1.9.9")), Some(&"mid"));
        assert_eq!(t.lookup(ip("10.200.0.1")), Some(&"broad"));
        assert_eq!(t.lookup(ip("11.0.0.1")), None);
    }

    #[test]
    fn default_route() {
        let mut t = LpmTable::new();
        t.insert(ip("0.0.0.0"), 0, "default");
        t.insert(ip("192.168.0.0"), 16, "lan");
        assert_eq!(t.lookup(ip("8.8.8.8")), Some(&"default"));
        assert_eq!(t.lookup(ip("192.168.3.4")), Some(&"lan"));
    }

    #[test]
    fn host_routes() {
        let mut t = LpmTable::new();
        t.insert(ip("1.2.3.4"), 32, 7u32);
        assert_eq!(t.lookup(ip("1.2.3.4")), Some(&7));
        assert_eq!(t.lookup(ip("1.2.3.5")), None);
    }

    #[test]
    fn replace_returns_old() {
        let mut t = LpmTable::new();
        assert_eq!(t.insert(ip("10.0.0.0"), 8, 1), None);
        assert_eq!(t.insert(ip("10.0.0.0"), 8, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(ip("10.0.0.0"), 8), Some(&2));
    }

    #[test]
    fn dense_table_consistency() {
        // 1000 /24 prefixes, like the paper's forwarder table.
        let mut t = LpmTable::new();
        for i in 0..1000u32 {
            let prefix = Ipv4Addr::from_u32((10 << 24) | (i << 8));
            t.insert(prefix, 24, i);
        }
        assert_eq!(t.len(), 1000);
        for i in (0..1000u32).step_by(37) {
            let host = Ipv4Addr::from_u32((10 << 24) | (i << 8) | 99);
            assert_eq!(t.lookup(host), Some(&i));
        }
    }
}

#[cfg(test)]
mod differential {
    use super::reference::BinaryTrie;
    use super::*;
    use proptest::prelude::*;

    /// First address covered by `addr/len`.
    fn first(addr: u32, len: u8) -> u32 {
        mask(Ipv4Addr::from_u32(addr), len)
    }

    /// Last address covered by `addr/len`.
    fn last(addr: u32, len: u8) -> u32 {
        first(addr, len) | !first(u32::MAX, len)
    }

    /// Addresses whose first three bytes come from a handful of values —
    /// so that prefixes nest, collide and repeat — with free host bits.
    fn addr_strategy() -> impl Strategy<Value = u32> {
        (
            0u32..3,
            0u32..3,
            0u32..4,
            any::<u8>(),
            any::<bool>(),
            any::<u32>(),
        )
            .prop_map(|(a, b, c, d, wild, anywhere)| {
                if wild {
                    anywhere
                } else {
                    (10 + a) << 24 | (b * 127) << 16 | (c * 85) << 8 | u32::from(d)
                }
            })
    }

    /// Every probe the two tables must agree on after `ops`: the
    /// addresses just inside and just outside each prefix, and `extra`.
    fn probes(ops: &[(u32, u8, u16)], extra: &[u32]) -> Vec<u32> {
        let mut out = extra.to_vec();
        for &(addr, len, _) in ops {
            let (lo, hi) = (first(addr, len), last(addr, len));
            out.extend([lo, lo.wrapping_sub(1), hi, hi.wrapping_add(1), addr]);
        }
        out
    }

    fn assert_same_answers(
        table: &LpmTable<u16>,
        trie: &BinaryTrie<u16>,
        ops: &[(u32, u8, u16)],
        extra: &[u32],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(table.len(), trie.len());
        prop_assert_eq!(table.is_empty(), trie.is_empty());
        for a in probes(ops, extra) {
            let ip = Ipv4Addr::from_u32(a);
            prop_assert_eq!(table.lookup(ip), trie.lookup(ip), "lookup {}", ip);
        }
        for &(addr, len, _) in ops {
            // The prefix itself (host bits and all) and its neighbours in
            // length, which may or may not be installed.
            for l in [len, len.saturating_sub(1), (len + 1).min(32)] {
                let ip = Ipv4Addr::from_u32(addr);
                prop_assert_eq!(table.get(ip, l), trie.get(ip, l), "get {}/{}", ip, l);
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn lpm_matches_reference(
            ops in proptest::collection::vec((addr_strategy(), 0u8..=32, any::<u16>()), 0..48),
            extra in proptest::collection::vec(addr_strategy(), 0..32),
        ) {
            // As given: duplicates replace, and `insert` says what it replaced.
            let mut table = LpmTable::new();
            let mut trie = BinaryTrie::new();
            for &(addr, len, v) in &ops {
                let ip = Ipv4Addr::from_u32(addr);
                prop_assert_eq!(table.insert(ip, len, v), trie.insert(ip, len, v), "insert {}/{}", ip, len);
                prop_assert_eq!(table.len(), trie.len());
            }
            assert_same_answers(&table, &trie, &ops, &extra)?;

            // The same rule set (last value per prefix) built shortest
            // prefix first and longest prefix first answers the same.
            let mut rules: Vec<(u32, u8, u16)> = Vec::new();
            for &(addr, len, v) in &ops {
                match rules.iter_mut().find(|r| (r.0, r.1) == (first(addr, len), len)) {
                    Some(r) => r.2 = v,
                    None => rules.push((first(addr, len), len, v)),
                }
            }
            rules.sort_by_key(|r| r.1);
            let mut short_first = LpmTable::new();
            let mut long_first = LpmTable::new();
            for (up, down) in rules.iter().zip(rules.iter().rev()) {
                prop_assert_eq!(short_first.insert(Ipv4Addr::from_u32(up.0), up.1, up.2), None);
                prop_assert_eq!(long_first.insert(Ipv4Addr::from_u32(down.0), down.1, down.2), None);
            }
            assert_same_answers(&short_first, &trie, &ops, &extra)?;
            assert_same_answers(&long_first, &trie, &ops, &extra)?;
        }
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// A /22 and a /24 share their node and the /22's first entry: the
    /// shorter one, inserted second, must not take the entry back.
    #[test]
    fn short_after_long_keeps_the_longer_owner() {
        for order in [[0usize, 1], [1, 0]] {
            let routes = [(ip("10.1.4.0"), 22, "wide"), (ip("10.1.4.0"), 24, "narrow")];
            let mut t = LpmTable::new();
            for i in order {
                t.insert(routes[i].0, routes[i].1, routes[i].2);
            }
            assert_eq!(t.lookup(ip("10.1.4.9")), Some(&"narrow"));
            assert_eq!(t.lookup(ip("10.1.5.9")), Some(&"wide"));
            assert_eq!(t.lookup(ip("10.1.7.255")), Some(&"wide"));
            assert_eq!(t.lookup(ip("10.1.8.0")), None);
            assert_eq!(t.get(ip("10.1.4.0"), 22), Some(&"wide"));
            assert_eq!(t.get(ip("10.1.4.0"), 23), None);
        }
    }

    /// A replaced route answers with the new value at every entry it was
    /// expanded over, and host bits in the prefix name the same route.
    #[test]
    fn replacement_reaches_every_expanded_entry() {
        let mut t = LpmTable::new();
        assert_eq!(t.insert(ip("192.168.77.1"), 18, 1), None);
        assert_eq!(t.insert(ip("192.168.64.0"), 18, 2), Some(1));
        assert_eq!(t.len(), 1);
        for host in ["192.168.64.0", "192.168.100.3", "192.168.127.255"] {
            assert_eq!(t.lookup(ip(host)), Some(&2));
        }
        assert_eq!(t.lookup(ip("192.168.128.0")), None);
        assert_eq!(t.get(ip("192.168.99.99"), 18), Some(&2));
    }

    /// /0 lives beside the root: it loses to every real prefix, survives
    /// replacement, and an empty table has no answer at all.
    #[test]
    fn default_route_sits_beside_the_root() {
        let mut t = LpmTable::new();
        assert_eq!(t.lookup(ip("1.2.3.4")), None);
        assert_eq!(t.insert(ip("7.7.7.7"), 0, "any"), None);
        assert_eq!(t.insert(ip("128.0.0.0"), 1, "upper half"), None);
        assert_eq!(t.lookup(ip("127.255.255.255")), Some(&"any"));
        assert_eq!(t.lookup(ip("128.0.0.0")), Some(&"upper half"));
        assert_eq!(t.insert(ip("0.0.0.0"), 0, "still any"), Some("any"));
        assert_eq!(t.lookup(ip("1.2.3.4")), Some(&"still any"));
        assert_eq!(t.len(), 2);
    }

    /// The layout DESIGN §4 quotes for the paper's table.
    #[test]
    fn paper_table_is_six_nodes() {
        let mut t = LpmTable::new();
        for i in 0..1000u32 {
            t.insert(Ipv4Addr::from_u32((10 << 24) | (i << 8)), 24, i);
        }
        t.insert(ip("0.0.0.0"), 0, u32::MAX);
        assert_eq!(t.nodes.len(), 6);
        assert_eq!(std::mem::size_of::<Node>(), 3072);
    }
}
