//! RSS-style flow sharding: a placement of one [`Engine`] over N replicas.
//!
//! The paper's deployment scales out the way hardware RSS does: a
//! front-end hashes each packet's **immutable 5-tuple** to one of N
//! shards, and each shard runs a full replica of the sealed [`Program`] —
//! its own classifier, NF instances, merger agent and merger instances over
//! its own pool partition. Because every packet of a flow hashes to the
//! same shard and traverses that shard FIFO, the §4.3 result-correctness
//! argument is preserved per flow: a shard's output is byte-identical to a
//! sequential reference fed the same sub-stream, and flows never
//! interleave across shards. Only *cross-flow* output order is unspecified
//! — exactly the freedom hardware RSS takes.
//!
//! The fan-out is not a runtime of its own. A [`ShardedEngine`] is one
//! [`Engine`] holding a replica per shard: its run loop's injector is the
//! RSS front-end (`shard_of` per packet, each replica under its own
//! window), every replica hangs off the engine's one program handle, and
//! runs, I/O, reconfiguration and reports are the engine's. What this
//! module adds is the placement: how the fleet budgets divide, which
//! partition each replica's NFs are bound to, and how flow state moves
//! when the shard count changes ([`ShardedEngine::rescale`]).

use crate::engine::{
    Engine, EngineConfig, EngineController, EngineError, EngineReport, MigrationStats,
};
use crate::swap::{EpochReport, ReconfigError};
use nfp_nf::{FlowSnapshot, NetworkFunction};
use nfp_orchestrator::Program;
use nfp_packet::flow::FlowKey;
use nfp_packet::io::{Egress, Ingress, IoError, IoRunStats};
use nfp_packet::Packet;
use std::time::{Duration, Instant};

/// The shard a packet's flow belongs to: the canonical
/// [`FlowKey::shard`] FNV-1a hash over the immutable 5-tuple, modulo
/// `shards`. Packets whose 5-tuple cannot be parsed all land on shard 0
/// (they will be rejected by that shard's classifier and counted as
/// drops there). Delegating to [`FlowKey`] — the same function stateful
/// NFs partition their [`nfp_nf::state::FlowTable`]s by and
/// [`ShardedEngine::rescale`] re-partitions snapshots with — makes
/// hash/partition drift impossible by construction.
pub(crate) fn shard_of(pkt: &Packet, shards: usize) -> usize {
    match FlowKey::of(pkt) {
        Some(key) => key.shard(shards),
        None => 0,
    }
}

/// Split `packets` into per-shard sub-streams, preserving arrival order
/// within each shard (per-flow FIFO).
pub fn partition_by_flow(packets: Vec<Packet>, shards: usize) -> Vec<Vec<Packet>> {
    let mut parts: Vec<Vec<Packet>> = (0..shards.max(1)).map(|_| Vec::new()).collect();
    for pkt in packets {
        let s = shard_of(&pkt, shards.max(1));
        parts[s].push(pkt);
    }
    parts
}

/// The outcome of one [`ShardedEngine::rescale`]: how much flow state
/// moved, where it landed, and how long the migration window was.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Flow-state entries exported from the retiring fleet.
    pub flows_exported: u64,
    /// Flow-state entries imported into the replacement fleet. Equal to
    /// `flows_exported` by construction — [`FlowSnapshot::retain_shard`]
    /// partitions, it never drops — and audited anyway.
    pub flows_imported: u64,
    /// Wall-clock of the whole export → re-partition → import window.
    pub latency: Duration,
}

/// N engine replicas behind an RSS-style 5-tuple front-end.
///
/// The fleet is **elastic**: [`ShardedEngine::rescale`] changes the
/// shard count between runs, re-partitioning every stateful NF's flow
/// tables by the same [`FlowKey::shard`] hash the front-end routes
/// packets with, so a flow's state is always on the shard its packets
/// reach next run.
pub struct ShardedEngine {
    /// The fleet: one engine, a replica per shard.
    engine: Engine,
    /// Replica NF factory, retained so a rescale can build a fresh fleet
    /// and restore migrated state into it.
    make_nfs: Box<dyn Fn() -> Vec<Box<dyn NetworkFunction>> + Send>,
    /// Fleet-level config (total pool and core budgets, re-partitioned
    /// on every shard-count change).
    config: EngineConfig,
    /// Lifetime migration census, surfaced in every run's report.
    migration: MigrationStats,
}

impl ShardedEngine {
    /// Build `shards` replicas of `program`, each with fresh NFs from
    /// `make_nfs`, bound to its partition
    /// ([`NetworkFunction::bind_partition`]: in debug builds a stateful NF
    /// panics on a flow that does not hash to its shard).
    /// `config.pool_size` and `config.core_budget` are *fleet* budgets,
    /// divided evenly (at least one stage thread per replica, so shard
    /// count never multiplies threads past the host); a pool partition too
    /// small for the window fails with [`EngineError::PoolTooSmall`], as a
    /// lone engine would. `config.max_in_flight` is each replica's window.
    pub fn new(
        program: &Program,
        make_nfs: impl Fn() -> Vec<Box<dyn NetworkFunction>> + Send + 'static,
        config: &EngineConfig,
        shards: usize,
    ) -> Result<ShardedEngine, EngineError> {
        let make_nfs: Box<dyn Fn() -> Vec<Box<dyn NetworkFunction>> + Send> = Box::new(make_nfs);
        let engine = Self::build(program.clone(), make_nfs.as_ref(), config, shards)?;
        Ok(ShardedEngine {
            engine,
            make_nfs,
            config: config.clone(),
            migration: MigrationStats::default(),
        })
    }

    /// Build a partition-bound fleet of `shards` replicas under a fresh
    /// program handle. Shared by [`ShardedEngine::new`] and
    /// [`ShardedEngine::rescale`] so both paths divide the pool/core
    /// budgets and arm the RSS-ownership assertions identically.
    fn build(
        program: Program,
        make_nfs: &dyn Fn() -> Vec<Box<dyn NetworkFunction>>,
        config: &EngineConfig,
        shards: usize,
    ) -> Result<Engine, EngineError> {
        assert!(shards >= 1, "at least one shard");
        if config.core_budget == 0 {
            // Validate the fleet-level knob here: the per-shard division
            // below floors at 1 and would otherwise mask the bad config.
            return Err(EngineError::ZeroCoreBudget);
        }
        let replicas = (0..shards)
            .map(|s| {
                let mut nfs = make_nfs();
                for nf in &mut nfs {
                    nf.bind_partition(s, shards);
                }
                nfs
            })
            .collect();
        let replica_config = EngineConfig {
            pool_size: config.pool_size / shards,
            core_budget: (config.core_budget / shards).max(1),
            ..config.clone()
        };
        Engine::fleet(program, replicas, replica_config)
    }

    /// Number of shard replicas.
    pub fn shards(&self) -> usize {
        self.engine.replicas()
    }

    /// A detached [`EngineController`] for the whole fleet — for driving
    /// a rollout from another thread while the fleet is live. Every
    /// replica executes the one program handle, so one swap reaches them
    /// all.
    pub fn controller(&self) -> EngineController {
        self.engine.controller()
    }

    /// Hot-swap `program` in across the fleet: one install and one drain
    /// of the old epoch over every replica ([`Engine::reconfigure`]).
    pub fn reconfigure(&mut self, program: Program) -> Result<EpochReport, ReconfigError> {
        self.engine.reconfigure(program)
    }

    /// Change the fleet to `new_shards` replicas, migrating every
    /// stateful NF's per-flow state with its flows.
    ///
    /// Call between runs — the closed-loop run leaves nothing in flight,
    /// so the gap between two runs *is* the drain window. The fleet's
    /// state is exported (`Engine::export_flow_state`), a replacement
    /// fleet is built from the NF factory at the current program under a
    /// fresh program handle (its epoch history starts over; DESIGN.md §13)
    /// and each new replica imports its partition
    /// (`Engine::import_flow_state`). The replacement is built *before*
    /// the old fleet is dropped, so a config rejection (e.g. a pool
    /// partition too small for the window) leaves the running fleet and
    /// its state untouched. Only per-flow state survives
    /// ([`NetworkFunction::snapshot_state`]); failure tallies and
    /// chaos-wrapper arming restart.
    pub fn rescale(&mut self, new_shards: usize) -> Result<ScaleReport, EngineError> {
        let started = Instant::now();
        let program = self.engine.handle().current().program().clone();
        let merged = self.engine.export_flow_state();
        let flows_exported = merged.iter().map(|snap| snap.len() as u64).sum();

        // Build the replacement fleet before touching the old one.
        let mut fleet = Self::build(program, self.make_nfs.as_ref(), &self.config, new_shards)?;
        let flows_imported = fleet.import_flow_state(&merged);

        self.engine = fleet;
        self.migration.rescales += 1;
        self.migration.flows_exported += flows_exported;
        self.migration.flows_imported += flows_imported;
        Ok(ScaleReport {
            flows_exported,
            flows_imported,
            latency: started.elapsed(),
        })
    }

    /// The fleet's lifetime migration census (also carried in every
    /// [`ShardedEngine::run`] report).
    pub fn migration(&self) -> MigrationStats {
        self.migration
    }

    /// Checkpoint the whole fleet's flow state
    /// (`Engine::export_flow_state`): one fleet-wide [`FlowSnapshot`] per
    /// NF position, entries sorted by flow key.
    pub fn export_flow_state(&self) -> Vec<FlowSnapshot> {
        self.engine.export_flow_state()
    }

    /// Run the fleet over `packets` ([`Engine::run`]): one report, whose
    /// `elapsed` is the wall-clock of the whole run (so
    /// [`EngineReport::pps`] reflects actual scale-out) and which carries
    /// the migration census.
    pub fn run(&mut self, packets: Vec<Packet>) -> EngineReport {
        EngineReport {
            migration: self.migration,
            ..self.engine.run(packets)
        }
    }

    /// Stream a pluggable [`Ingress`] through the fleet ([`Engine::run_io`]):
    /// deliveries reach `egress` as they complete, so the fleet holds a
    /// window per replica, not the trace.
    pub fn run_io(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
    ) -> Result<(EngineReport, IoRunStats), IoError> {
        let (report, io) = self.engine.run_io(ingress, egress)?;
        let report = EngineReport {
            migration: self.migration,
            ..report
        };
        Ok((report, io))
    }

    /// Like [`ShardedEngine::run`] but with one report per shard, in
    /// shard order. Equivalence tests compare each shard's delivered
    /// packets against a sequential reference fed the same sub-stream.
    pub fn run_per_shard(&mut self, packets: Vec<Packet>) -> Vec<EngineReport> {
        self.engine.run_per_replica(packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{first_emission, flows as traffic, program_and_nfs};

    fn firewall_program() -> Program {
        program_and_nfs(&["Monitor", "Firewall"]).0
    }

    fn nfs() -> Vec<Box<dyn NetworkFunction>> {
        program_and_nfs(&["Monitor", "Firewall"]).1
    }

    #[test]
    fn sharding_is_per_flow_and_deterministic() {
        let pkts = traffic(64, 16);
        for pkt in &pkts {
            let s = shard_of(pkt, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(pkt, 4), "stable for a given packet");
        }
        // Every packet of one flow lands on one shard.
        let mut by_tuple: std::collections::HashMap<_, usize> = std::collections::HashMap::new();
        for pkt in &pkts {
            let t = pkt.five_tuple().unwrap();
            let s = shard_of(pkt, 4);
            assert_eq!(
                *by_tuple.entry(t).or_insert(s),
                s,
                "flow split across shards"
            );
        }
        // 16 flows over 4 shards actually spread.
        let used: std::collections::HashSet<_> = pkts.iter().map(|p| shard_of(p, 4)).collect();
        assert!(used.len() > 1, "all flows hashed to one shard");
    }

    #[test]
    fn partition_preserves_per_shard_order() {
        let pkts = traffic(50, 8);
        let tagged: Vec<usize> = pkts.iter().map(|p| shard_of(p, 3)).collect();
        let parts = partition_by_flow(pkts, 3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 50);
        // Shard s receives exactly the packets tagged s, in arrival order
        // (lengths + per-shard tuple sequence check).
        for (s, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), tagged.iter().filter(|&&t| t == s).count());
        }
    }

    #[test]
    fn sharded_run_aggregates_shards() {
        let program = firewall_program();
        let mut sharded = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                keep_packets: true,
                max_in_flight: 8,
                ..EngineConfig::default()
            },
            2,
        )
        .unwrap();
        let report = sharded.run(traffic(120, 12));
        assert_eq!(report.injected, 120);
        assert_eq!(report.delivered, 120);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.packets.len(), 120);
        assert_eq!(report.latency.unwrap().count, 120);
        // Merged stage counters still balance across the fleet.
        assert_eq!(report.stats.classifier.packets_in, 120);
        assert_eq!(report.stats.collector.packets_out, 120);
    }

    /// `run_io` streams for a fleet as it does for one engine: the egress
    /// sees its first packet while the ingress is still feeding — within
    /// a window per replica plus the pulled bursts — and no packet stays
    /// behind in a report the caller did not ask to keep.
    #[test]
    fn sharded_run_io_emits_while_the_ingress_is_still_feeding() {
        const WINDOW: u64 = 8;
        const IO_BURST: u64 = 32;
        for shards in [2, 3] {
            let config = EngineConfig {
                max_in_flight: WINDOW as usize,
                io_burst: IO_BURST as usize,
                ..EngineConfig::default()
            };
            let mut fleet = ShardedEngine::new(&firewall_program(), nfs, &config, shards).unwrap();
            let (at_first, report) = first_emission(traffic(4096, 16), |i, o| fleet.run_io(i, o));
            let bound = shards as u64 * WINDOW + 2 * IO_BURST;
            assert!(
                at_first <= bound,
                "{shards} shards: first emission after {at_first} pulls (bound {bound})"
            );
            assert!(report.packets.is_empty());
        }
    }

    /// The one injector keeps every replica's window: a sampler beside a
    /// 2-shard run over hostile traffic (deliveries, firewall drops and
    /// malformed rejects) never sees a replica's gauge slot hold more than
    /// its window in flight. As in `tests/threaded_engine.rs`'s
    /// `burst_injection_keeps_the_window`, a sample counts only if the
    /// slot's settled counters did not move across its `injected` read
    /// ([`crate::audit::ProbeGauges`]).
    #[test]
    fn one_injector_keeps_every_replica_window() {
        use crate::audit::EngineProbe;
        use std::sync::atomic::{AtomicBool, Ordering};

        const WINDOW: u64 = 4;
        let mut pkts = Vec::new();
        for (i, mut p) in traffic(3000, 16).into_iter().enumerate() {
            if i % 5 == 0 {
                let x = (i % 100) as u16;
                p.set_dip(nfp_packet::ipv4::Ipv4Addr::new(172, 16, x as u8, 1))
                    .unwrap();
                p.set_dport(7000 + x).unwrap();
                p.finalize_checksums().unwrap();
            }
            pkts.push(p);
            if i % 7 == 6 {
                pkts.push(Packet::from_bytes(&[0u8; 60]).unwrap());
            }
        }
        let probe = EngineProbe::new();
        let config = EngineConfig {
            max_in_flight: WINDOW as usize,
            probe: Some(probe.clone()),
            ..EngineConfig::default()
        };
        let mut fleet = ShardedEngine::new(&firewall_program(), nfs, &config, 2).unwrap();
        let (sampling, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let (report, (samples, peak)) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let (mut samples, mut peak) = (0u64, 0u64);
                while !done.load(Ordering::Acquire) {
                    let slots = probe.slots.lock().unwrap().clone();
                    for g in &slots {
                        let settled = || {
                            let dropped = g.dropped.load(Ordering::Acquire);
                            dropped + g.delivered.load(Ordering::Acquire)
                        };
                        let before = settled();
                        let injected = g.injected.load(Ordering::Acquire);
                        if g.active.load(Ordering::Relaxed) && settled() == before {
                            samples += 1;
                            peak = peak.max(injected - before);
                        }
                    }
                    sampling.store(true, Ordering::Release);
                    std::thread::yield_now();
                }
                (samples, peak)
            });
            while !sampling.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let report = fleet.run(pkts.clone());
            done.store(true, Ordering::Release);
            (report, sampler.join().unwrap())
        });
        assert!(
            samples > 0,
            "no replica was ever sampled: nothing was checked"
        );
        assert!(
            peak <= WINDOW,
            "{peak} packets seen in flight on one replica ({samples} samples)"
        );
        assert!(report.dropped > 0 && report.stats.classifier.rejects() > 0);
        assert_eq!(report.injected, pkts.len() as u64);
        assert_eq!(report.injected, report.delivered + report.dropped);
        assert_eq!(report.pool_in_use, 0);
    }

    #[test]
    fn fleet_core_budget_divides_and_validates() {
        let program = firewall_program();
        // Zero fleet budget is rejected up front, not masked by the
        // per-shard floor of one.
        let err = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                core_budget: 0,
                ..EngineConfig::default()
            },
            2,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, EngineError::ZeroCoreBudget));
        // A fleet budget smaller than the shard count still builds: each
        // replica coalesces onto its single thread.
        let mut sharded = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                core_budget: 2,
                max_in_flight: 8,
                ..EngineConfig::default()
            },
            3,
        )
        .unwrap();
        let report = sharded.run(traffic(90, 9));
        assert_eq!(report.delivered + report.dropped, 90);
        assert_eq!(report.pool_in_use, 0);
    }

    #[test]
    fn rescale_migrates_flow_state_losslessly() {
        let program = firewall_program();
        let mut sharded = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                max_in_flight: 8,
                ..EngineConfig::default()
            },
            2,
        )
        .unwrap();
        let batch = traffic(120, 12);
        let report = sharded.run(batch.clone());
        assert_eq!(report.delivered + report.dropped, 120);
        assert_eq!(report.migration, MigrationStats::default());

        // The Monitor (node 0) tracked all 12 flows across the fleet.
        let before = sharded.export_flow_state();
        assert_eq!(before[0].len(), 12);
        assert!(before[1].is_empty(), "firewall is stateless");

        // Grow 2 → 3: the checkpoint is byte-identical after migration.
        let scale = sharded.rescale(3).unwrap();
        assert_eq!(sharded.shards(), 3);
        assert_eq!(scale.flows_exported, 12);
        assert_eq!(scale.flows_imported, 12);
        assert_eq!(sharded.export_flow_state(), before);

        // Replaying the same batch doubles every flow's packet count —
        // the counters kept counting on migrated state, they were not
        // rebuilt from zero.
        sharded.run(batch);
        let after = sharded.export_flow_state();
        assert_eq!(after[0].len(), 12);
        for ((key, old), (_, new)) in before[0].entries.iter().zip(&after[0].entries) {
            let old = nfp_nf::monitor::FlowStats::from_bytes(old).unwrap();
            let new = nfp_nf::monitor::FlowStats::from_bytes(new).unwrap();
            assert_eq!(new.packets, 2 * old.packets, "flow {key}");
            assert_eq!(new.bytes, 2 * old.bytes);
        }

        // Shrink 3 → 1: still lossless, census still balanced.
        let scale = sharded.rescale(1).unwrap();
        assert_eq!((scale.flows_exported, scale.flows_imported), (12, 12));
        assert_eq!(sharded.export_flow_state(), after);
        let census = sharded.migration();
        assert_eq!(census.rescales, 2);
        assert!(census.balanced());
        // The run report carries the lifetime census.
        let report = sharded.run(traffic(10, 12));
        assert_eq!(report.migration, census);
    }

    /// Satellite of the partition-binding contract: every replica built
    /// by [`ShardedEngine::new`]/[`rescale`] is partition-bound, so the
    /// stateful runs above would already panic in debug builds if the
    /// dispatcher ever handed a shard a flow outside its RSS partition.
    /// This test drives the assertion directly at the [`Engine`] level:
    /// state for a flow that hashes elsewhere must not be importable
    /// into a bound shard.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "RSS partition drift")]
    fn misdirected_flow_state_trips_partition_assertion() {
        let program = firewall_program();
        let mut engine = Engine::new(
            program,
            nfs(),
            EngineConfig {
                max_in_flight: 8,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // A flow that does not hash to shard 1 of 4.
        let stray = (1..)
            .map(|sport| {
                FlowKey::new(
                    nfp_packet::ipv4::Ipv4Addr::new(10, 0, 0, 1),
                    nfp_packet::ipv4::Ipv4Addr::new(10, 9, 9, 9),
                    sport,
                    80,
                    6,
                )
            })
            .find(|k| k.shard(4) != 1)
            .unwrap();
        engine.bind_partition(1, 4);
        let monitor_state = FlowSnapshot {
            nf: "Monitor".to_string(),
            entries: vec![(stray, vec![0; 16])],
        };
        engine.import_flow_state(&[monitor_state]);
    }

    #[test]
    fn rescale_rejection_leaves_fleet_untouched() {
        let program = firewall_program();
        // 64-slot pool: fine for 2 shards (32 ≥ 2 slots × 16 in flight),
        // too small per shard at 4.
        let mut sharded = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                pool_size: 64,
                max_in_flight: 16,
                ..EngineConfig::default()
            },
            2,
        )
        .unwrap();
        sharded.run(traffic(60, 6));
        let before = sharded.export_flow_state();
        let err = sharded.rescale(4).map(|_| ()).unwrap_err();
        assert!(matches!(err, EngineError::PoolTooSmall { .. }));
        // Old fleet still intact and serviceable, no census movement.
        assert_eq!(sharded.shards(), 2);
        assert_eq!(sharded.export_flow_state(), before);
        assert_eq!(sharded.migration().rescales, 0);
        let report = sharded.run(traffic(30, 6));
        assert_eq!(report.delivered + report.dropped, 30);
    }

    #[test]
    fn undersized_pool_partition_rejected() {
        let program = firewall_program();
        // Total pool 64 over 4 shards = 16 slots/shard; the firewall graph
        // needs 2 slots/packet × 16 in flight = 32.
        let err = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                pool_size: 64,
                max_in_flight: 16,
                ..EngineConfig::default()
            },
            4,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::PoolTooSmall { pool_size: 16, .. }
        ));
    }
}
