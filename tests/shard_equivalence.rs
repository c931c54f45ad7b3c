//! RSS sharding preserves result correctness: for arbitrary chains,
//! arbitrary traffic and 1–4 shards, each replica of the sharded threaded
//! engine matches a deterministic sync-engine reference fed the same
//! sub-stream (the packets `partition_by_flow` routes to that shard, in
//! arrival order) at the kit's byte order level: the same frames in the
//! same order, the same drops and taxonomy, and the same per-flow state
//! for the flows of its partition.
//!
//! This is the §4.3 result-correctness argument lifted to the scale-out
//! deployment: because every packet of a flow hashes to one shard and
//! traverses it FIFO, sharding may only change *cross-shard* interleaving,
//! never any per-flow byte.

use nfp_core::prelude::*;
use nfp_dataplane::exec::IdlePolicy;
use nfp_dataplane::shard::partition_by_flow;
use nfp_testkit::{chains, run, Chain, Entry, Executor, Level, Nfs, Runner, Traffic};
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn sharded_engine_equals_per_shard_sync_reference(
        chain in chains(&NFS, 1, 4),
        shards in 1usize..=4,
        flows in 1usize..24,
        n in 16usize..64,
        deny_stride in 0usize..3,
        malicious in any::<bool>(),
        mergers in 1usize..=2,
        core_budget in 1usize..=4,
        aggressive_park in any::<bool>(),
    ) {
        let chain = Chain::new(&chain);
        let traffic = Traffic::clean(flows, 160)
            .malicious(if malicious { 0.25 } else { 0.0 })
            .deny(3 + deny_stride, 1);
        let pkts = traffic.build(n);
        let fleet = Executor::Sharded {
            shards,
            config: EngineConfig {
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
                keep_packets: true,
                ..EngineConfig::default()
            },
        };
        let replicas = Runner::new(&fleet, &chain, &Nfs::catalogue()).feed_per_shard(&pkts);
        prop_assert_eq!(replicas.len(), shards);

        // Reference: one fresh deterministic engine per shard, fed exactly
        // the sub-stream the RSS dispatcher routes there.
        let parts = partition_by_flow(pkts, shards);
        for (s, (replica, part)) in replicas.iter().zip(parts).enumerate() {
            let sync = Executor::sync(Entry::Process);
            let reference = run(&sync, &chain, &Nfs::catalogue(), &part);
            let at = format!("shard {s} of {shards}, chain {:?}", chain.order);
            replica.assert_matches(&reference, Level::ByteOrder, at);
        }
    }
}
