//! Elastic rescaling never loses flow state: random traffic interleaved
//! with random shard-count changes, with three independent oracles.
//!
//! The fleet runs the all-stateful chain Monitor → NAT → LoadBalancer.
//! Between randomly-sized traffic chunks the shard count jumps to a
//! random value in 1..=4 (the ISSUE's "reconfigure events"), forcing a
//! full export → re-partition → import migration each time. Across the
//! whole storm:
//!
//! * **behavioral** — every delivered packet of an established flow
//!   keeps the NAT translation (external source port) and the LB pick
//!   (backend DIP) the flow was first given; a lost binding would
//!   reallocate and change bytes on the wire;
//! * **census** — every rescale exports exactly as many flow-state
//!   entries as it imports;
//! * **state** — the Monitor's final per-flow packet counts equal the
//!   offered per-flow packet counts: state accumulated monotonically
//!   across every migration, never reset or dropped.

use nfp_core::nf::catalogue;
use nfp_core::prelude::*;
use nfp_dataplane::shard::ShardedEngine;
use nfp_packet::flow::FlowKey;
use nfp_packet::ipv4::Ipv4Addr;
use proptest::prelude::*;
use std::collections::HashMap;

const CHAIN: [&str; 3] = ["Monitor", "NAT", "LoadBalancer"];

/// A fresh generator replays the same `flows` flows every chunk, so
/// established flows keep offering traffic across rescales.
fn traffic(n: usize, flows: usize) -> Vec<Packet> {
    TrafficGenerator::new(TrafficSpec {
        flows,
        sizes: SizeDistribution::Fixed(160),
        ..TrafficSpec::default()
    })
    .batch(n)
}

proptest! {
    // Each case spins up a threaded fleet several times; keep the case
    // count moderate so the suite stays seconds, not minutes.
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn rescale_storm_never_loses_flow_state(
        flows in 2usize..24,
        start_shards in 1usize..=4,
        chunks in proptest::collection::vec((8usize..48, 1usize..=4), 2..6),
    ) {
        let compiled = compile(
            &Policy::from_chain(CHAIN),
            &Registry::paper_table2(),
            &[],
            &CompileOptions::default(),
        ).unwrap();
        let program = compiled.program(1).unwrap();
        let monitor_node = compiled.graph.nodes.iter()
            .position(|n| n.name.as_str() == "Monitor").unwrap();
        let names: Vec<String> = compiled.graph.nodes.iter()
            .map(|n| n.name.as_str().to_string()).collect();
        let make_nfs = move || -> Vec<Box<dyn NetworkFunction>> {
            names.iter().map(|n| catalogue::make(n.as_str()).unwrap()).collect()
        };

        let mut fleet = ShardedEngine::new(
            &program,
            make_nfs,
            &EngineConfig {
                keep_packets: true,
                max_in_flight: 8,
                pool_size: 1024,
                ..EngineConfig::default()
            },
            start_shards,
        ).unwrap();

        let mut offered: HashMap<FlowKey, u64> = HashMap::new();
        // First-observed (external sport, backend dip) per admission flow.
        let mut wire: HashMap<FlowKey, (u16, Ipv4Addr)> = HashMap::new();
        for (n, to_shards) in chunks {
            let pkts = traffic(n, flows);
            for p in &pkts {
                *offered.entry(FlowKey::of(p).unwrap()).or_default() += 1;
            }
            let report = fleet.run(pkts);
            prop_assert_eq!(report.delivered, n as u64, "this chain drops nothing");
            for p in &report.packets {
                let key = p.meta().flow().expect("admission sidecar survives delivery");
                let obs = (p.sport().unwrap(), p.dip().unwrap());
                match wire.get(&key) {
                    None => { wire.insert(key, obs); }
                    Some(&first) => prop_assert_eq!(
                        obs, first,
                        "flow {} changed NAT translation or LB pick mid-storm", key
                    ),
                }
            }
            // The reconfigure event: rescale under the accumulated state.
            let scale = fleet.rescale(to_shards).unwrap();
            prop_assert_eq!(
                scale.flows_exported, scale.flows_imported,
                "migration census unbalanced"
            );
        }

        prop_assert!(fleet.migration().balanced());
        // Monitor's migrated counters must equal the offered load per flow.
        let checkpoint = fleet.export_flow_state();
        let counted: HashMap<FlowKey, u64> = checkpoint[monitor_node]
            .entries
            .iter()
            .map(|(k, b)| {
                (*k, nfp_core::nf::monitor::FlowStats::from_bytes(b).unwrap().packets)
            })
            .collect();
        prop_assert_eq!(counted, offered);
    }
}
