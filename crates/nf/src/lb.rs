//! The load balancer NF (§6.1's data-center balancer), upgraded from
//! stateless ECMP to a **sticky, flow-aware** balancer: the first packet
//! of a flow picks the backend with the fewest assigned flows
//! (deterministic tie-break: lowest index) and the flow is pinned there
//! in a [`FlowTable`] for its lifetime. The pin is real state — unlike a
//! pure hash, it cannot be recomputed after a shard-count change — which
//! is exactly what makes the balancer a migration test subject: lose the
//! table and established connections land on different backends.

use crate::nf::{NetworkFunction, PacketView, Verdict};
use crate::state::{FlowSnapshot, FlowTable};
use nfp_orchestrator::ActionProfile;
use nfp_packet::flow::FlowKey;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::FieldId;

/// Sticky least-connections load balancer: rewrites the destination IP
/// to the flow's pinned backend, and the source IP to its virtual IP
/// (matching Table 2's `R/W` on both addresses).
#[derive(Debug)]
pub struct LoadBalancer {
    name: String,
    vip: Ipv4Addr,
    backends: Vec<Ipv4Addr>,
    /// flow → backend index (authoritative, migrates with the flows).
    assignments: FlowTable<u8>,
    /// Live-flow count per backend (derived: recomputed on restore).
    assigned: Vec<u64>,
    /// Per-backend packet counts (diagnostics / balance tests).
    hits: Vec<u64>,
}

impl LoadBalancer {
    /// Create a balancer over `backends` (at most 256), fronted by `vip`.
    fn new(name: impl Into<String>, vip: Ipv4Addr, backends: Vec<Ipv4Addr>) -> Self {
        assert!(!backends.is_empty(), "load balancer needs backends");
        assert!(backends.len() <= 256, "backend index is a u8");
        let hits = vec![0; backends.len()];
        let assigned = vec![0; backends.len()];
        Self {
            name: name.into(),
            vip,
            backends,
            assignments: FlowTable::new(),
            assigned,
            hits,
        }
    }

    /// A balancer with `n` synthetic backends 192.168.1.1..=n.
    pub fn with_uniform_backends(name: impl Into<String>, n: u8) -> Self {
        let backends = (1..=n).map(|i| Ipv4Addr::new(192, 168, 1, i)).collect();
        Self::new(name, Ipv4Addr::new(10, 255, 0, 1), backends)
    }

    /// Number of flows currently pinned.
    #[cfg(test)]
    fn pinned_flows(&self) -> usize {
        self.assignments.len()
    }

    /// Pick for a new flow: fewest assigned flows, lowest index on ties.
    fn least_loaded(&self) -> u8 {
        let mut best = 0usize;
        for (i, &n) in self.assigned.iter().enumerate() {
            if n < self.assigned[best] {
                best = i;
            }
        }
        best as u8
    }
}

impl NetworkFunction for LoadBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        // Table 2's LoadBalancer row: R/W SIP, R/W DIP, R SPORT, R DPORT.
        ActionProfile::new(self.name.clone())
            .reads_writes([FieldId::Sip, FieldId::Dip])
            .reads([FieldId::Sport, FieldId::Dport])
            .stateful()
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        // Key by the admission-time tuple (sidecar) so an upstream NAT's
        // rewrites cannot re-key the flow mid-chain.
        let key = match pkt.meta().flow() {
            Some(k) => k,
            None => match pkt.five_tuple() {
                Ok((sip, dip, sport, dport, proto)) => FlowKey::new(sip, dip, sport, dport, proto),
                Err(_) => return Verdict::Pass,
            },
        };
        let idx = match self.assignments.get(&key) {
            Some(&idx) => usize::from(idx),
            None => {
                let idx = self.least_loaded();
                self.assignments.insert(key, idx);
                self.assigned[usize::from(idx)] += 1;
                usize::from(idx)
            }
        };
        let backend = self.backends[idx];
        let _ = pkt.write(FieldId::Dip, &backend.0);
        let _ = pkt.write(FieldId::Sip, &self.vip.0);
        self.hits[idx] += 1;
        Verdict::Pass
    }

    fn stateful(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> FlowSnapshot {
        self.assignments.snapshot_with(&self.name, |idx| vec![*idx])
    }

    fn restore_state(&mut self, snap: &FlowSnapshot) {
        let backends = self.backends.len();
        self.assignments.restore_with(snap, |b| match b {
            [idx] if usize::from(*idx) < backends => Some(*idx),
            _ => None,
        });
        // The load tally is derived state: recompute from the merged
        // table so post-migration picks stay balanced.
        self.assigned = vec![0; backends];
        for (_, &idx) in self.assignments.iter() {
            self.assigned[usize::from(idx)] += 1;
        }
    }

    fn bind_partition(&mut self, index: usize, total: usize) {
        self.assignments.bind_partition(index, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::testutil::*;

    #[test]
    fn rewrites_to_backend_and_vip() {
        let mut lb = LoadBalancer::with_uniform_backends("lb", 4);
        let mut p = tcp_packet(ip(1, 2, 3, 4), ip(10, 255, 0, 1), 50000, 80, b"");
        let mut v = PacketView::Exclusive(&mut p);
        assert_eq!(lb.process(&mut v), Verdict::Pass);
        let dip = p.dip().unwrap();
        assert!(dip.0[0] == 192 && dip.0[3] >= 1 && dip.0[3] <= 4);
        assert_eq!(p.sip().unwrap(), ip(10, 255, 0, 1));
    }

    #[test]
    fn same_flow_sticks_to_one_backend() {
        let mut lb = LoadBalancer::with_uniform_backends("lb", 8);
        let mut chosen = None;
        for _ in 0..10 {
            let mut p = tcp_packet(ip(1, 2, 3, 4), ip(10, 255, 0, 1), 50000, 80, b"");
            let mut v = PacketView::Exclusive(&mut p);
            lb.process(&mut v);
            let dip = p.dip().unwrap();
            match chosen {
                None => chosen = Some(dip),
                Some(c) => assert_eq!(c, dip),
            }
        }
        assert_eq!(lb.pinned_flows(), 1);
    }

    #[test]
    fn different_flows_spread() {
        let mut lb = LoadBalancer::with_uniform_backends("lb", 4);
        for sport in 0..400u16 {
            let mut p = tcp_packet(ip(1, 2, 3, 4), ip(10, 255, 0, 1), 10_000 + sport, 80, b"");
            let mut v = PacketView::Exclusive(&mut p);
            lb.process(&mut v);
        }
        // Least-connections spreads new flows exactly evenly.
        for (i, &h) in lb.hits.iter().enumerate() {
            assert!(h > 40, "backend {i} got {h}/400");
        }
        assert_eq!(lb.hits.iter().sum::<u64>(), 400);
        assert_eq!(lb.pinned_flows(), 400);
    }

    #[test]
    fn pins_survive_migration() {
        let mut lb = LoadBalancer::with_uniform_backends("lb", 4);
        let mut picks = std::collections::HashMap::new();
        for sport in 0..32u16 {
            let mut p = tcp_packet(ip(9, 9, 9, 9), ip(10, 255, 0, 1), 20_000 + sport, 80, b"");
            lb.process(&mut PacketView::Exclusive(&mut p));
            picks.insert(sport, p.dip().unwrap());
        }
        let snap = lb.snapshot_state();
        let mut moved = LoadBalancer::with_uniform_backends("lb", 4);
        moved.restore_state(&snap);
        assert_eq!(moved.pinned_flows(), 32);
        // Established flows keep their backend; the derived load tally
        // matches the migrated table.
        for (&sport, &dip) in &picks {
            let mut p = tcp_packet(ip(9, 9, 9, 9), ip(10, 255, 0, 1), 20_000 + sport, 80, b"");
            moved.process(&mut PacketView::Exclusive(&mut p));
            assert_eq!(p.dip().unwrap(), dip, "pin lost in migration");
        }
        assert_eq!(moved.assigned.iter().sum::<u64>(), 32);
    }

    #[test]
    #[should_panic(expected = "needs backends")]
    fn empty_backends_rejected() {
        LoadBalancer::new("lb", Ipv4Addr::new(1, 1, 1, 1), vec![]);
    }
}
