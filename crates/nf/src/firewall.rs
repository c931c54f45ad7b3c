//! The firewall NF: "a firewall similar to the Click IPFilter element. It
//! passes or drops packets according to the Access Control List (ACL)
//! containing 100 rules" (§6.1).

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

    fn prefix_matches(addr: Ipv4Addr, prefix: (Ipv4Addr, u8)) -> bool {
        let (p, len) = prefix;
        if len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(len));
        (addr.to_u32() & mask) == (p.to_u32() & mask)
    }

    /// Does this rule match the 4-tuple?
    fn matches(&self, sip: Ipv4Addr, dip: Ipv4Addr, sport: u16, dport: u16) -> bool {
        Self::prefix_matches(sip, self.src)
            && Self::prefix_matches(dip, self.dst)
            && self.sport.contains(&sport)
            && self.dport.contains(&dport)
    }
}

/// First-match ACL firewall.
#[derive(Debug)]
pub struct Firewall {
    name: String,
    rules: Vec<AclRule>,
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
    /// bits: the mask `prefix_matches` shifts for it does not exist, and
    /// the packet path is no place to find that out.
    fn new(name: impl Into<String>, rules: Vec<AclRule>, default_action: AclAction) -> Self {
        if let Some(i) = rules.iter().position(|r| r.src.1.max(r.dst.1) > 32) {
            let (what, len) = match rules[i].src.1 {
                len if len > 32 => ("source", len),
                _ => ("destination", rules[i].dst.1),
            };
            panic!("ACL rule {i}: {what} prefix length {len} > 32");
        }
        Self {
            name: name.into(),
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
        let action = self
            .rules
            .iter()
            .find(|r| r.matches(sip, dip, sport, dport))
            .map(|r| r.action)
            .unwrap_or(self.default_action);
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
}
