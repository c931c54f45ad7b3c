//! The monitor NF: "maintains per-flow counters, which can be obtained by
//! the operator. The counter table uses the hash value of the 5-tuple as
//! the key" (§6.1).
//!
//! The counter table is a [`FlowTable`] keyed by the canonical
//! [`FlowKey`] (whose FNV-1a hash is the RSS shard function), so a
//! shard-count change migrates every flow's counters to the shard its
//! flow moves to instead of resetting them.

use crate::nf::{NetworkFunction, PacketView, Verdict};
use crate::state::{FlowSnapshot, FlowTable};
use nfp_orchestrator::ActionProfile;
use nfp_packet::flow::FlowKey;
use nfp_packet::FieldId;

/// Per-flow statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets observed.
    pub packets: u64,
    /// Bytes observed (frame lengths).
    pub bytes: u64,
}

impl FlowStats {
    /// Snapshot wire format: 16 bytes, `packets` then `bytes`, both BE.
    fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.packets.to_be_bytes());
        out.extend_from_slice(&self.bytes.to_be_bytes());
        out
    }

    /// Decode the `FlowStats::to_bytes` format; `None` on any other
    /// length (migration rejects, it never guesses).
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() != 16 {
            return None;
        }
        Some(Self {
            packets: u64::from_be_bytes(b[..8].try_into().ok()?),
            bytes: u64::from_be_bytes(b[8..].try_into().ok()?),
        })
    }
}

/// NetFlow-style per-flow monitor.
#[derive(Debug, Default)]
pub struct Monitor {
    name: String,
    flows: FlowTable<FlowStats>,
    /// Total packets observed.
    pub total_packets: u64,
}

impl Monitor {
    /// Create a monitor.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            flows: FlowTable::new(),
            total_packets: 0,
        }
    }

    /// Number of distinct flows observed.
    #[cfg(test)]
    fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Stats for one flow, if observed.
    #[cfg(test)]
    fn stats(&self, key: &FlowKey) -> Option<FlowStats> {
        self.flows.get(key).copied()
    }
}

impl NetworkFunction for Monitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        // Table 2's Monitor row: reads the 4-tuple (no modification).
        ActionProfile::new(self.name.clone())
            .reads([FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport])
            .stateful()
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        let key = match pkt.meta().flow() {
            Some(k) => k,
            None => match pkt.five_tuple() {
                Ok((sip, dip, sport, dport, proto)) => FlowKey::new(sip, dip, sport, dport, proto),
                Err(_) => return Verdict::Pass,
            },
        };
        let entry = self.flows.entry(key);
        entry.packets += 1;
        entry.bytes += pkt.len() as u64;
        self.total_packets += 1;
        Verdict::Pass
    }

    fn stateful(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> FlowSnapshot {
        self.flows.snapshot_with(&self.name, |s| s.to_bytes())
    }

    fn restore_state(&mut self, snap: &FlowSnapshot) {
        self.flows.restore_with(snap, FlowStats::from_bytes);
    }

    fn bind_partition(&mut self, index: usize, total: usize) {
        self.flows.bind_partition(index, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::testutil::*;

    #[test]
    fn counts_per_flow() {
        let mut m = Monitor::new("mon");
        for _ in 0..3 {
            let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 10, 20, b"abc");
            m.process(&mut PacketView::Exclusive(&mut p));
        }
        let mut other = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 11, 20, b"");
        m.process(&mut PacketView::Exclusive(&mut other));
        assert_eq!(m.flow_count(), 2);
        assert_eq!(m.total_packets, 4);
        let key = FlowKey::new(
            ip(1, 1, 1, 1),
            ip(2, 2, 2, 2),
            10,
            20,
            nfp_packet::ipv4::PROTO_TCP,
        );
        let stats = m.stats(&key).unwrap();
        assert_eq!(stats.packets, 3);
        assert_eq!(stats.bytes, 3 * (14 + 20 + 20 + 3));
    }

    #[test]
    fn never_modifies_the_packet() {
        let mut m = Monitor::new("mon");
        let mut p = tcp_packet(ip(9, 9, 9, 9), ip(8, 8, 8, 8), 1, 2, b"payload");
        let before = p.data().to_vec();
        assert_eq!(m.process(&mut PacketView::Exclusive(&mut p)), Verdict::Pass);
        assert_eq!(p.data(), &before[..]);
        assert!(m.profile().is_read_only());
    }

    #[test]
    fn shared_mode_counting() {
        use nfp_packet::pool::PacketPool;
        let pool = PacketPool::new(2);
        let r = pool
            .insert(tcp_packet(ip(1, 2, 3, 4), ip(5, 6, 7, 8), 1, 2, b""))
            .unwrap();
        let mut m = Monitor::new("mon");
        m.process(&mut PacketView::Shared { pool: &pool, r });
        assert_eq!(m.total_packets, 1);
        pool.release(r);
    }

    #[test]
    fn counters_survive_migration() {
        let mut m = Monitor::new("mon");
        for i in 0..5u16 {
            for _ in 0..=i {
                let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 100 + i, 80, b"xy");
                m.process(&mut PacketView::Exclusive(&mut p));
            }
        }
        let snap = m.snapshot_state();
        assert_eq!(snap.len(), 5);
        let mut moved = Monitor::new("mon");
        moved.restore_state(&snap);
        for i in 0..5u16 {
            let key = FlowKey::new(
                ip(1, 1, 1, 1),
                ip(2, 2, 2, 2),
                100 + i,
                80,
                nfp_packet::ipv4::PROTO_TCP,
            );
            assert_eq!(
                moved.stats(&key).unwrap().packets,
                u64::from(i) + 1,
                "flow {i} counters lost"
            );
        }
    }
}
