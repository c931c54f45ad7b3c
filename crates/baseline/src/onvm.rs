//! An OpenNetVM-style pipelining data plane with a centralized switch.
//!
//! "In previous work, packet steering among NFs relies on a centralized
//! virtual switch, which according to our evaluation incurs a performance
//! overhead due to packet queuing" (§5). This baseline is that design as
//! a wiring of NFP's own [`Engine`]: a sequential program sealed
//! [`Program::via_switch`] relays **every** hop through one switch stage
//! on a thread of its own, so a chain of `n` NFs costs `n + 1` switch
//! transits per packet and the switch serializes all traffic (the hot
//! spot NFP's distributed runtime removes). Only that hop differs.

use nfp_dataplane::{Engine, EngineConfig, EngineReport};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::graph::{GraphNode, Segment};
use nfp_orchestrator::{Program, ServiceGraph};
use nfp_packet::Packet;

/// Closed-loop window: packets in flight.
const WINDOW: usize = 64;

/// The OpenNetVM-style pipeline.
pub struct OnvmPipeline(Engine);

impl OnvmPipeline {
    /// Build from NF instances in chain order.
    pub fn new(nfs: Vec<Box<dyn NetworkFunction>>) -> Self {
        Self(Self::engine(nfs, false))
    }

    /// The engine behind [`OnvmPipeline::new`]: the NFs' own names and
    /// profiles as a sequential graph, sealed and switched; window 64 over
    /// a pool that covers it; `n + 2` stage threads, so each NF has one.
    /// With `keep_packets`, each report keeps the delivered packets.
    pub fn engine(nfs: Vec<Box<dyn NetworkFunction>>, keep_packets: bool) -> Engine {
        let nodes = nfs.iter().map(|nf| (nf.name().into(), nf.profile()));
        let graph = ServiceGraph {
            nodes: nodes
                .map(|(name, profile)| GraphNode { name, profile })
                .collect(),
            segments: (0..nfs.len()).map(Segment::Sequential).collect(),
        };
        let program = Program::compile(&graph, 1).and_then(Program::via_switch);
        let program = program.expect("a sequential chain seals and switches");
        let config = EngineConfig {
            pool_size: WINDOW * program.slots_per_packet(),
            mergers: 1,
            max_in_flight: WINDOW,
            keep_packets,
            core_budget: nfs.len() + 2,
            ..EngineConfig::default()
        };
        Engine::new(program, nfs, config).expect("the pool covers the window")
    }

    /// Run the pipeline over `packets` and report. What it delivers, in
    /// order, is what [`crate::RunToCompletion`] over the same NFs does.
    pub fn run(&mut self, packets: Vec<Packet>) -> EngineReport {
        self.0.run(packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunToCompletion;
    use nfp_nf::firewall::Firewall;
    use nfp_nf::lb::LoadBalancer;
    use nfp_nf::monitor::Monitor;
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};

    fn nfs() -> Vec<Box<dyn NetworkFunction>> {
        vec![
            Box::new(Monitor::new("mon")),
            Box::new(Firewall::with_synthetic_acl("fw", 100)),
            Box::new(LoadBalancer::with_uniform_backends("lb", 4)),
        ]
    }

    fn traffic(n: usize) -> Vec<Packet> {
        TrafficGenerator::new(TrafficSpec {
            flows: 8,
            sizes: SizeDistribution::Fixed(96),
            ..TrafficSpec::default()
        })
        .batch(n)
    }

    /// Every hop goes through the switch, and the packets come out as
    /// run-to-completion's do, in the same order.
    #[test]
    fn pipeline_matches_rtc_semantics() {
        let pkts = traffic(100);
        let bytes = |ps: &[Packet]| ps.iter().map(|p| p.data().to_vec()).collect::<Vec<_>>();
        let expected = RunToCompletion::new(nfs()).process_batch(pkts.clone());
        let report = OnvmPipeline::engine(nfs(), true).run(pkts);
        assert_eq!(bytes(&report.packets), bytes(&expected));
        assert_eq!(report.delivered, 100);
        assert_eq!(report.stats.switch.unwrap().packets_in, 4 * 100);
    }

    #[test]
    fn drops_counted() {
        let mut pkts = traffic(40);
        for p in pkts.iter_mut().take(15) {
            p.set_dip(Ipv4Addr::new(172, 16, 9, 1)).unwrap();
            p.set_dport(7009).unwrap();
            p.finalize_checksums().unwrap();
        }
        let mut pipe = OnvmPipeline::new(nfs());
        let report = pipe.run(pkts);
        assert_eq!(report.dropped, 15);
        assert_eq!(report.delivered, 25);
        assert!(report.latency.unwrap().count == 25);
        // The firewall's drops: its own verdicts, none at admission.
        let r = report.record();
        assert_eq!((r.rejected, r.per_nf().unwrap()[1]), (0, (40, 15)));
    }

    #[test]
    fn reusable_after_run() {
        let mut pipe = OnvmPipeline::new(nfs());
        let r1 = pipe.run(traffic(20));
        let r2 = pipe.run(traffic(20));
        assert_eq!(r1.delivered + r2.delivered, 40);
        assert_eq!(r2.pool_in_use, 0);
    }
}
