//! Source NAT with dynamic port allocation (Table 2's NAT row: `R/W` on
//! all four header-tuple fields).
//!
//! Bindings are **per flow** (full admission 5-tuple, via
//! [`FlowTable`]), not per internal endpoint: that is what makes the
//! state migratable — every binding belongs to exactly one RSS shard
//! and moves with its flow on a shard-count change. External ports are
//! allocated deterministically from the flow hash (probe on local
//! conflict), so a flow's port does not depend on which packets
//! happened to precede it on the shard.
//!
//! Forward bindings are authoritative. The reverse index (external port
//! → internal endpoint) is first-wins: after a migration merges tables
//! that were allocated independently on different shards, two flows can
//! in principle hold the same external port — the forward mappings of
//! both survive exactly, the reverse ambiguity is counted in
//! [`Nat::port_collisions`] and surfaced by the migration audit.

use crate::nf::{NetworkFunction, PacketView, Verdict};
use crate::state::{FlowSnapshot, FlowTable};
use nfp_orchestrator::ActionProfile;
use nfp_packet::flow::FlowKey;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::FieldId;
use std::collections::HashMap;

/// Masquerading source NAT.
#[derive(Debug)]
pub(crate) struct Nat {
    name: String,
    external_ip: Ipv4Addr,
    /// flow → external port (authoritative, migrates with the flows).
    bindings: FlowTable<u16>,
    /// external port → flow, for the reverse path (first-wins index,
    /// rebuilt on restore).
    reverse: HashMap<u16, FlowKey>,
    /// Packets translated.
    translated: u64,
    /// Packets dropped because the port pool is exhausted.
    exhausted: u64,
    /// Reverse-index conflicts observed while importing migrated
    /// bindings (two flows allocated the same external port on
    /// different shards before the merge).
    port_collisions: u64,
}

impl Nat {
    /// Ports allocated from this base upward.
    const PORT_BASE: u16 = 30000;

    /// Create a NAT masquerading as `external_ip`.
    pub(crate) fn new(name: impl Into<String>, external_ip: Ipv4Addr) -> Self {
        Self {
            name: name.into(),
            external_ip,
            bindings: FlowTable::new(),
            reverse: HashMap::new(),
            translated: 0,
            exhausted: 0,
            port_collisions: 0,
        }
    }

    /// Number of active bindings.
    #[cfg(test)]
    fn binding_count(&self) -> usize {
        self.bindings.len()
    }

    /// The external port bound to a flow, if any.
    #[cfg(test)]
    fn binding(&self, key: &FlowKey) -> Option<u16> {
        self.bindings.get(key).copied()
    }

    /// Look up the internal endpoint behind an external port.
    #[cfg(test)]
    fn reverse_lookup(&self, external_port: u16) -> Option<(Ipv4Addr, u16)> {
        self.reverse
            .get(&external_port)
            .map(|key| (key.sip, key.sport))
    }

    /// Deterministic allocation: start at the flow-hash-derived port and
    /// probe linearly past locally taken slots. Independent of arrival
    /// order, so migrated and freshly computed bindings agree wherever
    /// no conflict forced a probe.
    fn allocate(&mut self, key: FlowKey) -> Option<u16> {
        if let Some(&p) = self.bindings.get(&key) {
            return Some(p);
        }
        let span = u32::from(u16::MAX - Self::PORT_BASE) + 1;
        let start = Self::PORT_BASE + (key.hash() % u64::from(span)) as u16;
        let mut candidate = start;
        for _ in 0..span {
            if !self.reverse.contains_key(&candidate) {
                self.bindings.insert(key, candidate);
                self.reverse.insert(candidate, key);
                return Some(candidate);
            }
            candidate = if candidate == u16::MAX {
                Self::PORT_BASE
            } else {
                candidate + 1
            };
        }
        None
    }
}

impl NetworkFunction for Nat {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        ActionProfile::new(self.name.clone())
            .reads_writes([FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport])
            .stateful()
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        // Key by the admission-time tuple from the metadata sidecar when
        // the classifier stamped one; headers may already be rewritten
        // by an upstream NF. Direct (un-admitted) packets fall back to
        // parsing.
        let key = match pkt.meta().flow() {
            Some(k) => k,
            None => match pkt.five_tuple() {
                Ok((sip, dip, sport, dport, proto)) => FlowKey::new(sip, dip, sport, dport, proto),
                Err(_) => return Verdict::Pass,
            },
        };
        match self.allocate(key) {
            Some(ext_port) => {
                let _ = pkt.write(FieldId::Sip, &self.external_ip.0);
                let _ = pkt.write(FieldId::Sport, &ext_port.to_be_bytes());
                self.translated += 1;
                Verdict::Pass
            }
            None => {
                self.exhausted += 1;
                Verdict::Drop
            }
        }
    }

    fn stateful(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> FlowSnapshot {
        self.bindings
            .snapshot_with(&self.name, |port| port.to_be_bytes().to_vec())
    }

    fn restore_state(&mut self, snap: &FlowSnapshot) {
        self.bindings
            .restore_with(snap, |b| b.try_into().ok().map(u16::from_be_bytes));
        // Rebuild the reverse index first-wins; count the conflicts
        // (flows that allocated the same port on different shards).
        self.reverse.clear();
        self.port_collisions = 0;
        for (key, &port) in self.bindings.iter() {
            if let Some(prev) = self.reverse.insert(port, *key) {
                if prev != *key {
                    self.port_collisions += 1;
                }
            }
        }
    }

    fn bind_partition(&mut self, index: usize, total: usize) {
        self.bindings.bind_partition(index, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::testutil::*;

    #[test]
    fn translates_source_and_keeps_binding() {
        let mut nat = Nat::new("nat", ip(203, 0, 113, 1));
        let mut p1 = tcp_packet(ip(192, 168, 0, 5), ip(8, 8, 8, 8), 40000, 443, b"");
        nat.process(&mut PacketView::Exclusive(&mut p1));
        assert_eq!(p1.sip().unwrap(), ip(203, 0, 113, 1));
        let ext1 = p1.sport().unwrap();
        assert!(ext1 >= Nat::PORT_BASE);
        // Same flow → same external port.
        let mut p2 = tcp_packet(ip(192, 168, 0, 5), ip(8, 8, 8, 8), 40000, 443, b"");
        nat.process(&mut PacketView::Exclusive(&mut p2));
        assert_eq!(p2.sport().unwrap(), ext1);
        assert_eq!(nat.binding_count(), 1);
        // Reverse mapping installed.
        assert_eq!(nat.reverse_lookup(ext1), Some((ip(192, 168, 0, 5), 40000)));
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let mut nat = Nat::new("nat", ip(203, 0, 113, 1));
        let mut seen = std::collections::HashSet::new();
        for sport in 1000..1100u16 {
            let mut p = tcp_packet(ip(192, 168, 0, 9), ip(8, 8, 8, 8), sport, 80, b"");
            nat.process(&mut PacketView::Exclusive(&mut p));
            assert!(seen.insert(p.sport().unwrap()), "port reused");
        }
        assert_eq!(nat.binding_count(), 100);
        assert_eq!(nat.translated, 100);
    }

    #[test]
    fn allocation_is_arrival_order_independent() {
        let flows: Vec<u16> = (2000..2032).collect();
        let run = |order: &[u16]| -> Vec<(u16, u16)> {
            let mut nat = Nat::new("nat", ip(203, 0, 113, 1));
            let mut out: Vec<(u16, u16)> = order
                .iter()
                .map(|&sport| {
                    let mut p = tcp_packet(ip(10, 0, 0, 7), ip(8, 8, 8, 8), sport, 80, b"");
                    nat.process(&mut PacketView::Exclusive(&mut p));
                    (sport, p.sport().unwrap())
                })
                .collect();
            out.sort_unstable();
            out
        };
        let forward = run(&flows);
        let mut reversed = flows.clone();
        reversed.reverse();
        assert_eq!(
            forward,
            run(&reversed),
            "hash-derived ports must not depend on arrival order"
        );
    }

    #[test]
    fn profile_is_full_tuple_rw_and_stateful() {
        let nat = Nat::new("nat", ip(1, 1, 1, 1));
        let p = nat.profile();
        for f in [FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport] {
            assert!(p.read_mask().contains(f));
            assert!(p.write_mask().contains(f));
        }
        assert!(p.per_flow_state);
        assert!(nat.stateful());
    }

    #[test]
    fn state_snapshot_survives_migration() {
        let mut nat = Nat::new("nat", ip(203, 0, 113, 1));
        let mut ports = std::collections::HashMap::new();
        for sport in 3000..3040u16 {
            let mut p = tcp_packet(ip(192, 168, 1, 2), ip(8, 8, 8, 8), sport, 80, b"");
            nat.process(&mut PacketView::Exclusive(&mut p));
            ports.insert(sport, p.sport().unwrap());
        }
        let snap = nat.snapshot_state();
        assert_eq!(snap.len(), 40);

        let mut moved = Nat::new("nat", ip(203, 0, 113, 1));
        moved.restore_state(&snap);
        assert_eq!(moved.binding_count(), 40);
        assert_eq!(moved.port_collisions, 0);
        // Re-processing an established flow reuses the migrated binding.
        for (&sport, &ext) in &ports {
            let mut p = tcp_packet(ip(192, 168, 1, 2), ip(8, 8, 8, 8), sport, 80, b"");
            moved.process(&mut PacketView::Exclusive(&mut p));
            assert_eq!(p.sport().unwrap(), ext, "binding lost in migration");
        }
    }

    #[test]
    fn keys_by_admission_sidecar_when_stamped() {
        use nfp_packet::Metadata;
        let mut nat = Nat::new("nat", ip(203, 0, 113, 1));
        // The packet's headers say one tuple, the sidecar another (as if
        // an upstream NF rewrote the headers post-admission).
        let admission = FlowKey::new(ip(172, 16, 0, 1), ip(8, 8, 8, 8), 5555, 80, 6);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(8, 8, 8, 8), 7777, 80, b"");
        p.set_meta(Metadata::new(1, 0, 1).with_flow(Some(admission)));
        nat.process(&mut PacketView::Exclusive(&mut p));
        assert_eq!(nat.binding_count(), 1);
        assert_eq!(nat.binding(&admission), Some(p.sport().unwrap()));
    }
}
