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

use nfp_core::prelude::*;
use nfp_packet::flow::FlowKey;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_testkit::{Chain, Nfs, Traffic};
use proptest::prelude::*;
use std::collections::HashMap;

const CHAIN: [&str; 3] = ["Monitor", "NAT", "LoadBalancer"];

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
        let chain = Chain::with_registry(&CHAIN, &Registry::paper_table2());
        let config = EngineConfig {
            keep_packets: true,
            max_in_flight: 8,
            pool_size: 1024,
            ..EngineConfig::default()
        };
        let nodes = chain.nodes();
        let make = move || Nfs::catalogue().build(&nodes);
        let mut fleet = ShardedEngine::new(&chain.program, make, &config, start_shards).unwrap();

        let mut offered: HashMap<FlowKey, u64> = HashMap::new();
        // First-observed (external sport, backend dip) per admission flow.
        let mut wire: HashMap<FlowKey, (u16, Ipv4Addr)> = HashMap::new();
        for (n, to_shards) in chunks {
            // A fresh generator replays the same `flows` flows every
            // chunk, so established flows keep offering traffic across
            // rescales.
            let pkts = Traffic::clean(flows, 160).build(n);
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
        let state = fleet.export_flow_state();
        let monitor = state.iter().find(|s| s.nf == "Monitor").unwrap();
        let counted: HashMap<FlowKey, u64> = monitor
            .entries
            .iter()
            .map(|(k, b)| {
                (*k, nfp_core::nf::monitor::FlowStats::from_bytes(b).unwrap().packets)
            })
            .collect();
        prop_assert_eq!(counted, offered);
    }
}
