//! RSS sharding preserves result correctness: for arbitrary chains,
//! arbitrary traffic and 1–4 shards, the sharded threaded engine's
//! per-shard output is byte-for-byte equal to a deterministic sync-engine
//! reference fed the same sub-stream (the packets `partition_by_flow`
//! routes to that shard, in arrival order).
//!
//! This is the §4.3 result-correctness argument lifted to the scale-out
//! deployment: because every packet of a flow hashes to one shard and
//! traverses it FIFO, sharding may only change *cross-shard* interleaving,
//! never any per-flow byte.

use nfp_core::nf::catalogue;
use nfp_core::prelude::*;
use nfp_dataplane::exec::IdlePolicy;
use nfp_dataplane::shard::{partition_by_flow, ShardedEngine};
use nfp_dataplane::sync_engine::{ProcessOutcome, SyncEngine};
use nfp_packet::ipv4::Ipv4Addr;
use proptest::prelude::*;
use std::time::Duration;

/// Deterministic NFs only — replayable against the sync reference. The
/// stateful ones (Monitor, LoadBalancer, NAT, IDS) key their flow
/// tables by the admission 5-tuple, so their inclusion also proves the
/// per-flow state layer never perturbs packet bytes: NAT's hash-derived
/// port allocation and the LB's sticky least-connections pins are
/// order-sensitive, and per-shard FIFO makes them replayable.
const NFS: [&str; 7] = [
    "Monitor",
    "Firewall",
    "LoadBalancer",
    "NAT",
    "IDS",
    "Gateway",
    "Caching",
];

fn chain_strategy() -> impl Strategy<Value = Vec<&'static str>> {
    proptest::sample::subsequence(NFS.to_vec(), 1..=4).prop_shuffle()
}

/// Traffic mixing pass, firewall-deny and IDS-alert paths across a
/// configurable number of flows.
fn traffic(n: usize, flows: usize, deny_stride: usize, malicious: bool) -> Vec<Packet> {
    let mut gen = TrafficGenerator::new(TrafficSpec {
        flows,
        sizes: SizeDistribution::Fixed(160),
        malicious_fraction: if malicious { 0.25 } else { 0.0 },
        ..TrafficSpec::default()
    });
    let mut pkts = gen.batch(n);
    for (i, p) in pkts.iter_mut().enumerate() {
        if i % (3 + deny_stride) == 0 {
            let x = (i % 100) as u16;
            p.set_dip(Ipv4Addr::new(172, 16, (x % 256) as u8, 1))
                .unwrap();
            p.set_dport(7000 + x).unwrap();
            p.finalize_checksums().unwrap();
        }
    }
    pkts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn sharded_engine_equals_per_shard_sync_reference(
        chain in chain_strategy(),
        shards in 1usize..=4,
        flows in 1usize..24,
        n in 16usize..64,
        deny_stride in 0usize..3,
        malicious in any::<bool>(),
        mergers in 1usize..=2,
        core_budget in 1usize..=4,
        aggressive_park in any::<bool>(),
    ) {
        let compiled = compile(
            &Policy::from_chain(chain.iter().copied()),
            &Registry::evaluated(),
            &[],
            &CompileOptions::default(),
        ).unwrap();
        let program = compiled.program(1).unwrap();
        let names: Vec<String> =
            compiled.graph.nodes.iter().map(|node| node.name.as_str().to_string()).collect();
        let make_nfs = {
            let names = names.clone();
            move || -> Vec<Box<dyn NetworkFunction>> {
                names.iter().map(|n| catalogue::make(n.as_str()).unwrap()).collect()
            }
        };
        let pkts = traffic(n, flows, deny_stride, malicious);

        let mut sharded = ShardedEngine::new(
            &program,
            make_nfs,
            &EngineConfig {
                keep_packets: true,
                max_in_flight: 4,
                mergers,
                pool_size: shards * 64,
                // Exercise the whole coalescing spectrum — from every
                // shard fully coalesced onto one thread up to the
                // pipeline-split plan — and both idle extremes: an
                // almost-immediately-parking backoff stresses the wakeup
                // protocol, pure spin reproduces the pre-refactor loop.
                core_budget: core_budget * shards,
                idle_policy: if aggressive_park {
                    IdlePolicy::Backoff {
                        spin: Duration::from_nanos(1),
                        yields: Duration::from_nanos(1),
                        park_timeout: Duration::from_millis(5),
                    }
                } else {
                    IdlePolicy::Spin
                },
                ..EngineConfig::default()
            },
            shards,
        ).unwrap();
        let reports = sharded.run_per_shard(pkts.clone());
        prop_assert_eq!(reports.len(), shards);

        // Reference: one fresh deterministic engine per shard, fed exactly
        // the sub-stream the RSS dispatcher routes there.
        let parts = partition_by_flow(pkts, shards);
        for (s, (report, part)) in reports.iter().zip(parts).enumerate() {
            let mut reference = SyncEngine::new(
                program.clone(),
                names.iter().map(|n| catalogue::make(n.as_str()).unwrap()).collect(),
                64,
            );
            let mut expected: Vec<Vec<u8>> = Vec::new();
            let mut expected_drops = 0u64;
            for pkt in part {
                match reference.process(pkt).unwrap() {
                    ProcessOutcome::Delivered(out) => expected.push(out.data().to_vec()),
                    ProcessOutcome::Dropped => expected_drops += 1,
                }
            }
            prop_assert_eq!(
                report.dropped, expected_drops,
                "shard {} drop count diverges for chain {:?}", s, &chain
            );
            let got: Vec<Vec<u8>> =
                report.packets.iter().map(|p| p.data().to_vec()).collect();
            prop_assert_eq!(
                got, expected,
                "shard {} output diverges for chain {:?}", s, &chain
            );
        }
    }
}
