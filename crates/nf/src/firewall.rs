//! The firewall NF: "a firewall similar to the Click IPFilter element. It
//! passes or drops packets according to the Access Control List (ACL)
//! containing 100 rules" (§6.1).
//!
//! Click's IPFilter compiles its rules into a classification program; this
//! one compiles them into a tuple-space classifier (Srinivasan, Suri &
//! Varghese, SIGCOMM 1999; the Open vSwitch classifier, Pfaff et al., NSDI
//! 2015). Rules are grouped by *shape*: source and destination prefix
//! lengths, and whether each port is any or one exact value. A rule with
//! any other port range, an empty one included, stays in a residual
//! first-match list. The shaped rules go into one open-addressing table
//! keyed by shape and masked fields. A lookup probes only the shapes whose
//! lowest rule index is below the best match so far, confirms each
//! candidate with `AclRule::matches` and keeps the lowest index: the
//! verdict is exactly that of the first matching rule in ACL order.
//!
//! Cost, on the 100-rule synthetic ACL (one shape) on a 2-vCPU x86-64
//! host: the build is one pass and one table allocation, and adds about
//! 1 µs to the ~0.5 µs of generating the rules; `process` takes 20–30 ns
//! a packet, where the scan of all 100 rules it replaces took ~150 ns.

use crate::nf::{NetworkFunction, PacketView, Verdict};
use nfp_orchestrator::ActionProfile;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::FieldId;
use std::ops::RangeInclusive;

/// What a matching rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AclAction {
    /// Let the packet through.
    Allow,
    /// Drop the packet.
    Deny,
}

/// One ACL rule: prefix matches on addresses, ranges on ports; first match
/// wins.
#[derive(Debug, Clone)]
struct AclRule {
    /// Source prefix (address, length).
    src: (Ipv4Addr, u8),
    /// Destination prefix (address, length).
    dst: (Ipv4Addr, u8),
    /// Source port range.
    sport: RangeInclusive<u16>,
    /// Destination port range.
    dport: RangeInclusive<u16>,
    /// Verdict on match.
    action: AclAction,
}

impl AclRule {
    /// A rule matching everything.
    #[cfg(test)]
    fn any(action: AclAction) -> Self {
        Self {
            src: (Ipv4Addr::new(0, 0, 0, 0), 0),
            dst: (Ipv4Addr::new(0, 0, 0, 0), 0),
            sport: 0..=u16::MAX,
            dport: 0..=u16::MAX,
            action,
        }
    }

    fn prefix_matches(addr: Ipv4Addr, (p, len): (Ipv4Addr, u8)) -> bool {
        (addr.to_u32() ^ p.to_u32()) & prefix_mask(len) == 0
    }

    /// Does this rule match the 4-tuple?
    fn matches(&self, sip: Ipv4Addr, dip: Ipv4Addr, sport: u16, dport: u16) -> bool {
        Self::prefix_matches(sip, self.src)
            && Self::prefix_matches(dip, self.dst)
            && self.sport.contains(&sport)
            && self.dport.contains(&dport)
    }
}

/// A rule shape: the prefix lengths and port masks that put a rule in it,
/// and the address masks that turn a 4-tuple into its key there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    src_len: u8,
    dst_len: u8,
    src: u32,
    dst: u32,
    sport: u16,
    dport: u16,
}

impl Shape {
    /// The shape of `rule`, or `None` for the residual list. Panics if a
    /// prefix is longer than 32 bits: its mask does not exist, and the
    /// packet path is no place to find that out.
    fn of(index: u32, rule: &AclRule) -> Option<Self> {
        let (src_len, dst_len) = (rule.src.1, rule.dst.1);
        if let Some((what, len)) = [("source", src_len), ("destination", dst_len)]
            .into_iter()
            .find(|&(_, len)| len > 32)
        {
            panic!("ACL rule {index}: {what} prefix length {len} > 32");
        }
        Some(Self {
            src_len,
            dst_len,
            src: prefix_mask(src_len),
            dst: prefix_mask(dst_len),
            sport: port_mask(&rule.sport)?,
            dport: port_mask(&rule.dport)?,
        })
    }

    /// Whether `rule` is of this shape: `Shape::of(rule) == Some(self)` in
    /// fewer steps, and without a branch, since most rules share the shape
    /// of the rule before.
    #[inline]
    fn fits(self, rule: &AclRule) -> bool {
        let lens_off = (rule.src.1 ^ self.src_len) | (rule.dst.1 ^ self.dst_len);
        (u16::from(lens_off)
            | port_off(self.sport, &rule.sport)
            | port_off(self.dport, &rule.dport))
            == 0
    }

    /// The key of a 4-tuple in this shape, the `number`th: its masked
    /// fields and the shape's number, packed.
    #[inline]
    fn key(self, number: usize, sip: u32, dip: u32, sport: u16, dport: u16) -> (u64, u64) {
        (
            u64::from(sip & self.src) << 32 | u64::from(dip & self.dst),
            (number as u64) << 32
                | u64::from(sport & self.sport) << 16
                | u64::from(dport & self.dport),
        )
    }
}

/// The mask of a prefix length in `0..=32`.
#[inline]
fn prefix_mask(len: u8) -> u32 {
    // A 64-bit shift by 32 - len: /0 shifts every one out of the low word.
    (u64::MAX << (32 - u32::from(len))) as u32
}

/// The mask a port range classifies under: all ones for one exact port,
/// zero for every port, `None` for anything else (`start > end`
/// included), which only a scan can decide. A range exhausted by
/// iteration classifies by its bounds, and `AclRule::matches` never lets
/// it match.
fn port_mask(range: &RangeInclusive<u16>) -> Option<u16> {
    [u16::MAX, 0].into_iter().find(|&m| port_off(m, range) == 0)
}

/// Zero exactly when `range` classifies under port mask `m`. For `m` all
/// ones, `lo | !m == hi` and `lo & !m == 0` say "lo == hi"; for `m` zero,
/// they say "0..=MAX".
#[inline]
fn port_off(m: u16, range: &RangeInclusive<u16>) -> u16 {
    let (lo, hi) = (*range.start(), *range.end());
    ((lo | !m) ^ hi) | (lo & !m)
}

/// The slot of a table of `64 - shift` bits that a key hashes to: a
/// multiplicative hash of the packed key.
#[inline]
fn home((addrs, ports): (u64, u64), shift: u32) -> usize {
    let h = (addrs.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ports).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    (h >> shift) as usize
}

/// Marks an empty slot of the table.
const EMPTY: u32 = u32::MAX;

/// The ACL compiled for lookup (a tuple-space classifier): its shapes in
/// the order of their first rules, one open-addressing table of the
/// shaped rules keyed by shape and masked fields, and the residual rules
/// in ACL order. Indices are into the firewall's `rules`, which stay the
/// source of truth.
///
/// The shapes share one table, sized for every rule before the first is
/// classified: one pass and one allocation, where a table per shape would
/// need a counting pass before it could be sized, and that pass costs as
/// much again as the build.
#[derive(Debug)]
struct TupleSpace {
    /// Each shape with its lowest rule index, below which a lookup that
    /// has already matched need not probe it.
    shapes: Vec<(Shape, u32)>,
    /// Linear probing, at most a quarter full, so that most misses stop at
    /// their home slot; `EMPTY` ends a probe.
    slots: Box<[u32]>,
    /// `64 - log2(slots.len())`: the hash's top bits index the table.
    shift: u32,
    residual: Vec<u32>,
}

impl TupleSpace {
    /// Compile `rules` in one pass. Rules of one shape tend to sit
    /// together, so once a rule is classified, the rules after it that fit
    /// its shape go straight into the table.
    ///
    /// Panics if a rule's prefix is longer than 32 bits (see
    /// [`Shape::of`]): a rule that fits a shape has that shape's lengths.
    fn new(rules: &[AclRule]) -> Self {
        let len = (4 * rules.len()).next_power_of_two().max(2);
        let shift = 64 - len.trailing_zeros();
        let mut slots = vec![EMPTY; len].into_boxed_slice();
        let (mut shapes, mut residual) = (Vec::<(Shape, u32)>::new(), Vec::new());
        let mut index = 0;
        while let Some(rule) = rules.get(index as usize) {
            let Some(shape) = Shape::of(index, rule) else {
                residual.push(index);
                index += 1;
                continue;
            };
            let number = match shapes.iter().position(|&(s, _)| s == shape) {
                Some(number) => number,
                None => {
                    shapes.push((shape, index));
                    shapes.len() - 1
                }
            };
            let run = rules[index as usize..].iter().enumerate();
            for (_, rule) in run.take_while(|&(k, r)| k == 0 || shape.fits(r)) {
                let (src, dst) = (rule.src.0.to_u32(), rule.dst.0.to_u32());
                let key = shape.key(number, src, dst, *rule.sport.start(), *rule.dport.start());
                let mut at = home(key, shift);
                while slots[at] != EMPTY {
                    at = (at + 1) & (len - 1);
                }
                slots[at] = index;
                index += 1;
            }
        }
        Self {
            shapes,
            slots,
            shift,
            residual,
        }
    }

    /// The index of the first rule that matches the 4-tuple, if any.
    ///
    /// A shape's probe walks its chain to the first empty slot and keeps
    /// the lowest matching index below the best so far: the chain holds
    /// every rule of that key and shape, duplicates included, and may hold
    /// rules of other keys and shapes, which `matches` tells apart.
    #[inline]
    fn first_match(
        &self,
        rules: &[AclRule],
        sip: Ipv4Addr,
        dip: Ipv4Addr,
        sport: u16,
        dport: u16,
    ) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut best = EMPTY;
        for (number, &(shape, first)) in self.shapes.iter().enumerate() {
            if first >= best {
                break;
            }
            let key = shape.key(number, sip.to_u32(), dip.to_u32(), sport, dport);
            let mut at = home(key, self.shift);
            loop {
                let index = self.slots[at];
                if index == EMPTY {
                    break;
                }
                if index < best && rules[index as usize].matches(sip, dip, sport, dport) {
                    best = index;
                }
                at = (at + 1) & mask;
            }
        }
        let residual = self.residual.iter().take_while(|&&i| i < best);
        match residual
            .copied()
            .find(|&i| rules[i as usize].matches(sip, dip, sport, dport))
        {
            Some(index) => Some(index),
            None => (best != EMPTY).then_some(best),
        }
    }
}

/// First-match ACL firewall.
#[derive(Debug)]
pub struct Firewall {
    name: String,
    rules: Vec<AclRule>,
    /// `rules` compiled for lookup.
    table: TupleSpace,
    default_action: AclAction,
    /// Packets dropped (diagnostics).
    dropped: u64,
    /// Packets passed (diagnostics).
    passed: u64,
}

impl Firewall {
    /// Create a firewall with explicit rules and a default action.
    ///
    /// Panics if a rule's source or destination prefix is longer than 32
    /// bits: the mask that compiles it does not exist, and the packet path
    /// is no place to find that out.
    fn new(name: impl Into<String>, rules: Vec<AclRule>, default_action: AclAction) -> Self {
        Self {
            name: name.into(),
            table: TupleSpace::new(&rules),
            rules,
            default_action,
            dropped: 0,
            passed: 0,
        }
    }

    /// The paper's shape: 100 deny rules over synthetic prefixes, default
    /// allow. Packets to 172.16.`i`.0/24 with dport 7000+`i` are denied.
    pub fn with_synthetic_acl(name: impl Into<String>, n: u16) -> Self {
        let rules = (0..n)
            .map(|i| AclRule {
                src: (Ipv4Addr::new(0, 0, 0, 0), 0),
                dst: (Ipv4Addr::new(172, 16, (i % 256) as u8, 0), 24),
                sport: 0..=u16::MAX,
                dport: (7000 + i)..=(7000 + i),
                action: AclAction::Deny,
            })
            .collect();
        Self::new(name, rules, AclAction::Allow)
    }

    /// Number of rules in the ACL.
    #[cfg(test)]
    fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The reference the compiled table must agree with: the index of
    /// the first rule, in ACL order, that matches.
    #[cfg(test)]
    fn linear_first_match(
        &self,
        sip: Ipv4Addr,
        dip: Ipv4Addr,
        sport: u16,
        dport: u16,
    ) -> Option<u32> {
        let index = self
            .rules
            .iter()
            .position(|r| r.matches(sip, dip, sport, dport))?;
        Some(u32::try_from(index).expect("ACLs in tests are short"))
    }
}

impl NetworkFunction for Firewall {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        // Table 2's Firewall row: reads the 4-tuple, may drop.
        ActionProfile::new(self.name.clone())
            .reads([FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport])
            .drops()
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        let Ok((sip, dip, sport, dport, _)) = pkt.five_tuple() else {
            return Verdict::Pass;
        };
        let action = match self.table.first_match(&self.rules, sip, dip, sport, dport) {
            Some(index) => self.rules[index as usize].action,
            None => self.default_action,
        };
        match action {
            AclAction::Allow => {
                self.passed += 1;
                Verdict::Pass
            }
            AclAction::Deny => {
                self.dropped += 1;
                Verdict::Drop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::testutil::*;

    #[test]
    fn synthetic_acl_denies_matching_traffic() {
        let mut fw = Firewall::with_synthetic_acl("fw", 100);
        assert_eq!(fw.rule_count(), 100);
        let mut denied = tcp_packet(ip(1, 1, 1, 1), ip(172, 16, 5, 9), 1234, 7005, b"");
        let mut v = PacketView::Exclusive(&mut denied);
        assert_eq!(fw.process(&mut v), Verdict::Drop);
        let mut ok = tcp_packet(ip(1, 1, 1, 1), ip(172, 16, 5, 9), 1234, 80, b"");
        let mut v = PacketView::Exclusive(&mut ok);
        assert_eq!(fw.process(&mut v), Verdict::Pass);
        assert_eq!((fw.dropped, fw.passed), (1, 1));
    }

    #[test]
    fn first_match_wins() {
        let rules = vec![
            AclRule {
                dport: 80..=80,
                action: AclAction::Allow,
                ..AclRule::any(AclAction::Allow)
            },
            AclRule::any(AclAction::Deny),
        ];
        let mut fw = Firewall::new("fw", rules, AclAction::Allow);
        let mut web = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 999, 80, b"");
        assert_eq!(
            fw.process(&mut PacketView::Exclusive(&mut web)),
            Verdict::Pass
        );
        let mut ssh = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 999, 22, b"");
        assert_eq!(
            fw.process(&mut PacketView::Exclusive(&mut ssh)),
            Verdict::Drop
        );
    }

    #[test]
    fn prefix_matching_semantics() {
        let r = AclRule {
            src: (ip(10, 1, 0, 0), 16),
            ..AclRule::any(AclAction::Deny)
        };
        assert!(r.matches(ip(10, 1, 200, 3), ip(0, 0, 0, 0), 1, 1));
        assert!(!r.matches(ip(10, 2, 0, 1), ip(0, 0, 0, 0), 1, 1));
        // /0 matches anything, including with a nonzero address bits set.
        let r0 = AclRule {
            src: (ip(99, 99, 99, 99), 0),
            ..AclRule::any(AclAction::Deny)
        };
        assert!(r0.matches(ip(1, 2, 3, 4), ip(0, 0, 0, 0), 1, 1));
    }

    #[test]
    fn host_prefixes_are_the_longest_accepted() {
        let rule = AclRule {
            dst: (ip(2, 2, 2, 2), 32),
            ..AclRule::any(AclAction::Deny)
        };
        let mut fw = Firewall::new("fw", vec![rule], AclAction::Allow);
        let mut hit = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"");
        let mut miss = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 3), 1, 2, b"");
        assert_eq!(
            fw.process(&mut PacketView::Exclusive(&mut hit)),
            Verdict::Drop
        );
        assert_eq!(
            fw.process(&mut PacketView::Exclusive(&mut miss)),
            Verdict::Pass
        );
    }

    #[test]
    #[should_panic(expected = "ACL rule 1: destination prefix length 33 > 32")]
    fn overlong_prefix_is_refused_at_construction() {
        let bad = AclRule {
            dst: (ip(2, 2, 2, 2), 33),
            ..AclRule::any(AclAction::Deny)
        };
        Firewall::new(
            "fw",
            vec![AclRule::any(AclAction::Allow), bad],
            AclAction::Allow,
        );
    }

    #[test]
    fn default_action_applies_when_no_rule_matches() {
        let mut fw = Firewall::new("fw", vec![], AclAction::Deny);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"");
        assert_eq!(
            fw.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Drop
        );
    }

    #[test]
    fn works_in_shared_mode() {
        use nfp_packet::pool::PacketPool;
        let pool = PacketPool::new(2);
        let r = pool
            .insert(tcp_packet(ip(1, 1, 1, 1), ip(172, 16, 3, 3), 5, 7003, b""))
            .unwrap();
        let mut fw = Firewall::with_synthetic_acl("fw", 100);
        let mut v = PacketView::Shared { pool: &pool, r };
        assert_eq!(fw.process(&mut v), Verdict::Drop);
        pool.release(r);
    }

    #[test]
    fn residual_range_rule_wins_inside_its_range() {
        // Rule 0's dport range is neither one port nor all of them, so it
        // stays in the residual list; rule 1's exact port is in a table.
        let rules = vec![
            AclRule {
                dport: 1000..=2000,
                ..AclRule::any(AclAction::Allow)
            },
            AclRule {
                dport: 1500..=1500,
                ..AclRule::any(AclAction::Deny)
            },
            AclRule {
                dport: 2500..=2500,
                ..AclRule::any(AclAction::Allow)
            },
        ];
        let mut fw = Firewall::new("fw", rules, AclAction::Deny);
        for (dport, want) in [
            (999, Verdict::Drop),
            (1000, Verdict::Pass),
            (1500, Verdict::Pass),
            (2000, Verdict::Pass),
            (2001, Verdict::Drop),
            (2500, Verdict::Pass),
        ] {
            let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 9, dport, b"");
            let got = fw.process(&mut PacketView::Exclusive(&mut p));
            assert_eq!(got, want, "dport {dport}");
        }
    }

    #[test]
    fn later_shape_holding_the_lower_rule_wins() {
        // Shape (/8, exact dport) starts at rule 0 and holds rule 2; shape
        // (/24, any port) starts at rule 1. The packet matches rules 1 and
        // 2, and rule 1 decides although its shape is probed second.
        let rules = vec![
            AclRule {
                dst: (ip(10, 0, 0, 0), 8),
                dport: 1..=1,
                ..AclRule::any(AclAction::Allow)
            },
            AclRule {
                dst: (ip(2, 2, 2, 0), 24),
                ..AclRule::any(AclAction::Deny)
            },
            AclRule {
                dst: (ip(2, 0, 0, 0), 8),
                dport: 80..=80,
                ..AclRule::any(AclAction::Allow)
            },
        ];
        let mut fw = Firewall::new("fw", rules, AclAction::Allow);
        let mut both = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 9, 80, b"");
        assert_eq!(
            fw.process(&mut PacketView::Exclusive(&mut both)),
            Verdict::Drop
        );
        let mut only_rule_2 = tcp_packet(ip(1, 1, 1, 1), ip(2, 9, 9, 9), 9, 80, b"");
        assert_eq!(
            fw.process(&mut PacketView::Exclusive(&mut only_rule_2)),
            Verdict::Pass
        );
    }

    #[test]
    fn rule_shadowed_by_an_identical_one_never_decides() {
        let deny = AclRule {
            dst: (ip(2, 2, 2, 0), 24),
            dport: 80..=80,
            ..AclRule::any(AclAction::Deny)
        };
        let allow = AclRule {
            action: AclAction::Allow,
            ..deny.clone()
        };
        let mut fw = Firewall::new("fw", vec![deny, allow], AclAction::Allow);
        let mut hit = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 7), 9, 80, b"");
        assert_eq!(
            fw.process(&mut PacketView::Exclusive(&mut hit)),
            Verdict::Drop
        );
    }

    #[test]
    fn prefix_mask_sets_the_top_len_bits() {
        // Both the table and `AclRule::matches` use it, so the
        // differential test below cannot see it wrong.
        for len in 0..=32u8 {
            let want = (0..u32::from(len)).fold(0u32, |m, bit| m | 1 << (31 - bit));
            assert_eq!(prefix_mask(len), want, "/{len}");
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Addresses that overlap often: a few /8s and /16s, or anywhere.
        fn addr() -> impl Strategy<Value = u32> {
            (0u32..3, 0u32..3, any::<u16>(), any::<bool>(), any::<u32>()).prop_map(
                |(a, b, low, wild, anywhere)| {
                    if wild {
                        anywhere
                    } else {
                        (10 + a) << 24 | (b * 127) << 16 | u32::from(low)
                    }
                },
            )
        }

        /// Prefix lengths /0–/32, host routes and /0 drawn often.
        fn prefix_len() -> impl Strategy<Value = u8> {
            prop_oneof![0u8..=32, Just(32u8), Just(0u8)]
        }

        /// A few ports rules share, or anywhere.
        fn port() -> impl Strategy<Value = u16> {
            prop_oneof![0u16..4, 79u16..82, Just(u16::MAX), any::<u16>()]
        }

        /// Any port, one exact port, an arbitrary range, or an empty one;
        /// the first two weighted up so that about half the rules land in
        /// a shape's table rather than the residual list.
        fn port_range() -> impl Strategy<Value = RangeInclusive<u16>> {
            prop_oneof![
                Just(0..=u16::MAX),
                Just(0..=u16::MAX),
                port().prop_map(|p| p..=p),
                port().prop_map(|p| p..=p),
                port().prop_map(|p| p..=p),
                (port(), port()).prop_map(|(a, b)| a.min(b)..=a.max(b)),
                (port(), port())
                    .prop_filter("start > end", |(a, b)| a != b)
                    .prop_map(|(a, b)| a.max(b)..=a.min(b)),
            ]
        }

        fn action() -> impl Strategy<Value = AclAction> {
            any::<bool>().prop_map(|deny| {
                if deny {
                    AclAction::Deny
                } else {
                    AclAction::Allow
                }
            })
        }

        fn rule() -> impl Strategy<Value = AclRule> {
            (
                (addr(), prefix_len()),
                (addr(), prefix_len()),
                port_range(),
                port_range(),
                action(),
            )
                .prop_map(|((s, sl), (d, dl), sport, dport, action)| AclRule {
                    src: (Ipv4Addr::from_u32(s), sl),
                    dst: (Ipv4Addr::from_u32(d), dl),
                    sport,
                    dport,
                    action,
                })
        }

        /// A prefix's edges: its base, the address below, its last
        /// address and the one above.
        fn addr_edges((addr, len): (Ipv4Addr, u8)) -> [u32; 4] {
            let mask = prefix_mask(len);
            let (base, last) = (addr.to_u32() & mask, addr.to_u32() | !mask);
            [base, base.wrapping_sub(1), last, last.wrapping_add(1)]
        }

        /// A port range's edges: lo−1, lo, hi and hi+1.
        fn port_edges(range: &RangeInclusive<u16>) -> [u16; 4] {
            let (lo, hi) = (*range.start(), *range.end());
            [lo.wrapping_sub(1), lo, hi, hi.wrapping_add(1)]
        }

        /// A rule's edges, field by field: source, destination, source
        /// port, destination port.
        type Edges = ([u32; 4], [u32; 4], [u16; 4], [u16; 4]);

        fn edges(rule: &AclRule) -> Edges {
            (
                addr_edges(rule.src),
                addr_edges(rule.dst),
                port_edges(&rule.sport),
                port_edges(&rule.dport),
            )
        }

        proptest! {
            #[test]
            fn compiled_acl_matches_linear_scan(
                mut rules in proptest::collection::vec(rule(), 0..=120),
                dups in proptest::collection::vec((any::<u32>(), any::<u32>(), action()), 0..=10),
                mixes in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()), 0..64),
                default_action in action(),
            ) {
                // Duplicates (same fields, either action) anywhere in the
                // list: the earlier copy shadows the later one.
                for (from, at, action) in dups {
                    if rules.is_empty() {
                        break;
                    }
                    let copy = AclRule { action, ..rules[from as usize % rules.len()].clone() };
                    rules.insert(at as usize % (rules.len() + 1), copy);
                }
                let edges: Vec<Edges> = rules.iter().map(edges).collect();
                // Each rule's edges one field at a time, the other fields
                // at the rule's base and low port; then random mixes of
                // every rule's edges.
                let mut probes: Vec<(u32, u32, u16, u16)> = Vec::new();
                for &(s, d, sp, dp) in &edges {
                    for e in 0..4 {
                        probes.push((s[e], d[0], sp[1], dp[1]));
                        probes.push((s[0], d[e], sp[1], dp[1]));
                        probes.push((s[0], d[0], sp[e], dp[1]));
                        probes.push((s[0], d[0], sp[1], dp[e]));
                    }
                }
                // A mix takes each field from a rule picked by the draw's
                // low bits, at the edge its top two bits pick.
                if !edges.is_empty() {
                    let pick = |draw: u32| (draw as usize % edges.len(), (draw >> 30) as usize);
                    for &(s, d, sp, dp) in &mixes {
                        let ((s, e), (d, f), (sp, g), (dp, h)) = (pick(s), pick(d), pick(sp), pick(dp));
                        probes.push((edges[s].0[e], edges[d].1[f], edges[sp].2[g], edges[dp].3[h]));
                    }
                }
                probes.push((0, 0, 0, 0));
                // The build's shortcut: a rule fits the shape of the rule
                // before exactly when it would be classified into it.
                for (i, pair) in (1u32..).zip(rules.windows(2)) {
                    if let Some(shape) = Shape::of(i - 1, &pair[0]) {
                        prop_assert_eq!(shape.fits(&pair[1]), Shape::of(i, &pair[1]) == Some(shape));
                    }
                }
                let fw = Firewall::new("fw", rules, default_action);
                for (s, d, sport, dport) in probes {
                    let (sip, dip) = (Ipv4Addr::from_u32(s), Ipv4Addr::from_u32(d));
                    prop_assert_eq!(
                        fw.table.first_match(&fw.rules, sip, dip, sport, dport),
                        fw.linear_first_match(sip, dip, sport, dport),
                        "{}:{} -> {}:{}", sip, sport, dip, dport
                    );
                }
            }
        }
    }
}
