//! Run-to-completion chain execution (BESS/NetBricks model).
//!
//! "The RTC model abandons virtualization techniques and consolidates the
//! entire service chain inside one CPU core" (§7). One function call walks
//! the packet through every NF; a drop anywhere ends processing — which is
//! precisely the sequential semantics NFP's result-correctness principle
//! is defined against, so this executor is also the reference for the
//! §6.4 replay experiment.

use nfp_nf::{FlowSnapshot, NetworkFunction, PacketView, Verdict};
use nfp_packet::io::{DropCause, RunRecord};
use nfp_packet::Packet;

/// A consolidated sequential chain.
pub struct RunToCompletion {
    nfs: Vec<Box<dyn NetworkFunction>>,
    /// Packets processed to completion (delivered).
    delivered: u64,
    /// Packets dropped mid-chain.
    dropped: u64,
}

impl RunToCompletion {
    /// Build from NF instances in chain order.
    pub fn new(nfs: Vec<Box<dyn NetworkFunction>>) -> Self {
        Self {
            nfs,
            delivered: 0,
            dropped: 0,
        }
    }

    /// Access an NF by position (stats inspection).
    #[cfg(test)]
    fn nf(&self, i: usize) -> &dyn NetworkFunction {
        self.nfs[i].as_ref()
    }

    /// Each NF's per-flow state ([`NetworkFunction::snapshot_state`]), in
    /// chain order.
    pub fn snapshot_state(&self) -> Vec<FlowSnapshot> {
        self.nfs.iter().map(|nf| nf.snapshot_state()).collect()
    }

    /// What the chain has done over its lifetime. It has no classifier,
    /// so nothing is rejected, and its one kind of drop is an NF verdict;
    /// it keeps no per-NF counters.
    pub fn record(&self) -> RunRecord {
        let mut record = RunRecord::default();
        (record.delivered, record.dropped) = (self.delivered, self.dropped);
        record.pulled = self.delivered + self.dropped;
        record.causes[DropCause::NfVerdict as usize] = self.dropped;
        record
    }

    /// Process one packet through the whole chain. Returns the processed
    /// packet, or `None` if some NF dropped it. Checksums are finalized on
    /// delivery, matching the NFP engines' output behaviour.
    pub fn process(&mut self, mut pkt: Packet) -> Option<Packet> {
        for nf in &mut self.nfs {
            let mut view = PacketView::Exclusive(&mut pkt);
            if nf.process(&mut view) == Verdict::Drop {
                self.dropped += 1;
                return None;
            }
        }
        pkt.finalize_checksums().ok();
        self.delivered += 1;
        Some(pkt)
    }

    /// Process a batch, returning delivered packets in order.
    pub fn process_batch(&mut self, pkts: Vec<Packet>) -> Vec<Packet> {
        pkts.into_iter().filter_map(|p| self.process(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_nf::firewall::Firewall;
    use nfp_nf::lb::LoadBalancer;
    use nfp_nf::monitor::Monitor;
    use nfp_packet::ipv4::Ipv4Addr;

    fn chain() -> RunToCompletion {
        RunToCompletion::new(vec![
            Box::new(Monitor::new("mon")),
            Box::new(Firewall::with_synthetic_acl("fw", 100)),
            Box::new(LoadBalancer::with_uniform_backends("lb", 4)),
        ])
    }

    fn pkt(dip: Ipv4Addr, dport: u16) -> Packet {
        nfp_traffic::gen::build_tcp_frame(Ipv4Addr::new(1, 2, 3, 4), dip, 999, dport, b"data")
    }

    #[test]
    fn chain_applies_all_nfs_in_order() {
        let mut rtc = chain();
        let out = rtc.process(pkt(Ipv4Addr::new(9, 9, 9, 9), 80)).unwrap();
        assert_eq!(out.dip().unwrap().0[0], 192, "LB ran");
        assert_eq!(rtc.record().delivered, 1);
    }

    #[test]
    fn drop_short_circuits() {
        let mut rtc = chain();
        let out = rtc.process(pkt(Ipv4Addr::new(172, 16, 5, 5), 7005));
        assert!(out.is_none());
        assert_eq!(rtc.record().causes[DropCause::NfVerdict as usize], 1);
        // The monitor (before the firewall) still saw the packet; the LB
        // (after) must not have.
        let mon = rtc.nf(0).profile();
        assert_eq!(mon.nf_type, "mon");
    }

    #[test]
    fn batch_filters_drops() {
        let mut rtc = chain();
        let pkts = vec![
            pkt(Ipv4Addr::new(9, 9, 9, 9), 80),
            pkt(Ipv4Addr::new(172, 16, 5, 5), 7005),
            pkt(Ipv4Addr::new(9, 9, 9, 9), 443),
        ];
        let out = rtc.process_batch(pkts);
        assert_eq!(out.len(), 2);
        let record = rtc.record();
        assert_eq!((record.pulled, record.delivered, record.dropped), (3, 2, 1));
    }
}
