//! The L3 forwarder NF: "a simple forwarder that obtains the matching
//! entry from a longest prefix matching table with 1000 entries to find
//! out the next hop" (§6.1).

use crate::lpm::LpmTable;
use crate::nf::{NetworkFunction, PacketView, Verdict};
use nfp_orchestrator::ActionProfile;
use nfp_packet::ether::MacAddr;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::FieldId;

/// A next hop: the MAC the frame is rewritten toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NextHop {
    /// Destination MAC of the next hop.
    dmac: MacAddr,
}

/// Longest-prefix-match L3 forwarder.
#[derive(Debug)]
pub struct L3Forwarder {
    name: String,
    table: LpmTable<NextHop>,
    own_mac: MacAddr,
    /// Packets forwarded (diagnostics).
    forwarded: u64,
    /// Packets with no matching route (passed unmodified).
    no_route: u64,
}

impl L3Forwarder {
    /// Create a forwarder with an empty table.
    fn new(name: impl Into<String>, own_mac: MacAddr) -> Self {
        Self {
            name: name.into(),
            table: LpmTable::new(),
            own_mac,
            forwarded: 0,
            no_route: 0,
        }
    }

    /// Create a forwarder pre-loaded with `n` /24 routes under 10.0.0.0/8 —
    /// the paper's 1000-entry table shape.
    pub fn with_uniform_table(name: impl Into<String>, n: u32) -> Self {
        let mut fwd = Self::new(name, MacAddr([0x02, 0, 0, 0, 0, 0xfe]));
        for i in 0..n {
            let prefix = Ipv4Addr::from_u32((10 << 24) | (i << 8));
            let mac = MacAddr([0x02, 0, (i >> 16) as u8, (i >> 8) as u8, i as u8, 1]);
            fwd.add_route(prefix, 24, NextHop { dmac: mac });
        }
        // Default route so every packet forwards.
        fwd.add_route(
            Ipv4Addr::new(0, 0, 0, 0),
            0,
            NextHop {
                dmac: MacAddr([0x02, 0, 0, 0, 0, 0xaa]),
            },
        );
        fwd
    }

    /// Install a route.
    fn add_route(&mut self, prefix: Ipv4Addr, len: u8, hop: NextHop) {
        self.table.insert(prefix, len, hop);
    }

    /// Number of installed routes.
    #[cfg(test)]
    fn route_count(&self) -> usize {
        self.table.len()
    }
}

impl NetworkFunction for L3Forwarder {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        ActionProfile::new(self.name.clone())
            .reads([FieldId::Dip])
            .writes([FieldId::Dmac, FieldId::Smac, FieldId::Ttl])
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        let dip = match pkt.read_scalar(FieldId::Dip) {
            Ok(v) => Ipv4Addr::from_u32(v as u32),
            Err(_) => return Verdict::Pass,
        };
        match self.table.lookup(dip) {
            Some(hop) => {
                let ttl = pkt.read_scalar(FieldId::Ttl).unwrap_or(1) as u8;
                if ttl <= 1 {
                    return Verdict::Drop; // TTL exceeded
                }
                let hop = *hop;
                let _ = pkt.write(FieldId::Dmac, &hop.dmac.0);
                let _ = pkt.write(FieldId::Smac, &self.own_mac.0);
                let _ = pkt.write(FieldId::Ttl, &[ttl - 1]);
                self.forwarded += 1;
                Verdict::Pass
            }
            None => {
                self.no_route += 1;
                Verdict::Pass
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::testutil::*;

    #[test]
    fn forwards_and_rewrites_l2() {
        let mut fwd = L3Forwarder::with_uniform_table("fwd", 1000);
        assert_eq!(fwd.route_count(), 1001);
        let mut p = tcp_packet(ip(10, 0, 7, 1), ip(10, 0, 42, 9), 1, 2, b"");
        let mut v = PacketView::Exclusive(&mut p);
        assert_eq!(fwd.process(&mut v), Verdict::Pass);
        assert_eq!(fwd.forwarded, 1);
        // /24 route for 10.0.42.0 → dmac ends ..42,1 with the /24 index 42.
        assert_eq!(p.dmac().unwrap(), MacAddr([0x02, 0, 0, 0, 42, 1]));
        assert_eq!(p.smac().unwrap(), MacAddr([0x02, 0, 0, 0, 0, 0xfe]));
        assert_eq!(p.ttl().unwrap(), 63);
    }

    #[test]
    fn default_route_catches_everything() {
        let mut fwd = L3Forwarder::with_uniform_table("fwd", 10);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(99, 9, 9, 9), 1, 2, b"");
        let mut v = PacketView::Exclusive(&mut p);
        assert_eq!(fwd.process(&mut v), Verdict::Pass);
        assert_eq!(p.dmac().unwrap(), MacAddr([0x02, 0, 0, 0, 0, 0xaa]));
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut fwd = L3Forwarder::with_uniform_table("fwd", 1);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(10, 0, 0, 5), 1, 2, b"");
        p.set_ttl(1).unwrap();
        let mut v = PacketView::Exclusive(&mut p);
        assert_eq!(fwd.process(&mut v), Verdict::Drop);
    }

    #[test]
    fn no_route_passes_unmodified() {
        let mut fwd = L3Forwarder::new("fwd", MacAddr([2, 0, 0, 0, 0, 1]));
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(8, 8, 8, 8), 1, 2, b"");
        let before_dmac = p.dmac().unwrap();
        let mut v = PacketView::Exclusive(&mut p);
        assert_eq!(fwd.process(&mut v), Verdict::Pass);
        assert_eq!(fwd.no_route, 1);
        assert_eq!(p.dmac().unwrap(), before_dmac);
    }

    #[test]
    fn profile_matches_behaviour() {
        let fwd = L3Forwarder::with_uniform_table("fwd", 1);
        let p = fwd.profile();
        assert!(p.read_mask().contains(FieldId::Dip));
        assert!(p.write_mask().contains(FieldId::Dmac));
        assert!(!p.has_add_rm());
    }
}
