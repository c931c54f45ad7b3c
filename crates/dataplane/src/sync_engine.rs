//! Deterministic single-threaded execution of a sealed [`Program`].
//!
//! The sync engine is one stage dispatcher (`crate::dispatch`) holding
//! *every* stage, driven by the caller: no rings, no threads, plain
//! per-stage queues drained in pipeline order, so a packet's journey is
//! fully deterministic. Packets enter in admission windows of `w`, each
//! one epoch pin, one clock tick and one run of the dispatcher to dry:
//! `w` is what the caller offers capped at `pool / slots_per_packet`, so
//! no copy can find the pool dry. The threaded [`crate::engine::Engine`]
//! runs the very same dispatcher code, one instance per thread group — the
//! two cannot drift semantically. It is the reference executor for the
//! paper's §6.4 result-correctness replay and for property tests; the
//! threaded (and sharded) engines are correct precisely when their output
//! matches this one byte-for-byte.

use crate::classifier::AdmitError;
use crate::dispatch::{Clock, Dispatcher, Layout, Rings, Shared};
use crate::engine::NfFailure;
use crate::runtime::NfRuntime;
use crate::stats::StageSnapshot;
use crate::swap::{EpochReport, EpochTally, ProgramHandle, ReconfigError};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
use nfp_nf::{FlowSnapshot, NetworkFunction};
use nfp_orchestrator::Program;
use nfp_packet::io::{Egress, Ingress, IoError, RunRecord};
use nfp_packet::Packet;
use std::sync::Arc;
use std::time::Duration;

/// What happened to a processed packet.
#[derive(Debug)]
pub enum ProcessOutcome {
    /// The packet traversed the graph; here is the merged output.
    Delivered(Box<Packet>),
    /// The packet was dropped (NF verdict or merge resolution).
    Dropped,
}

impl ProcessOutcome {
    /// The delivered packet, if any.
    pub fn delivered(self) -> Option<Packet> {
        match self {
            ProcessOutcome::Delivered(p) => Some(*p),
            ProcessOutcome::Dropped => None,
        }
    }
}

/// Single-threaded reference executor for a sealed [`Program`].
pub struct SyncEngine {
    /// Pool, swappable program slot, telemetry and per-stage counters —
    /// recorded at the same points as the threaded engine's stage threads
    /// (one merger instance, so merges record as `merger0`) — and the
    /// virtual clock: one tick per admission window. Accumulating-table
    /// entries are stamped with it, and every entry still pending once the
    /// window has run dry is expired — the merge deadline is zero ticks
    /// and falls at the window's end, so every packet of a window finishes
    /// in it even when a failed NF never sends its copy.
    cx: Shared,
    /// The one dispatcher, holding every stage. One agent and one merger
    /// instance: sequencing is trivially in-order here, but running the
    /// same cores keeps the reference path identical.
    dispatcher: Dispatcher,
    /// Packets delivered.
    delivered: u64,
    /// Packets that did not come out: drops and admission rejects.
    lost: u64,
}

impl SyncEngine {
    /// Build an engine over a sealed `program` and NF instances ordered by
    /// `NodeId` (the same order as the compiled graph's nodes).
    pub fn new(program: Program, nfs: Vec<Box<dyn NetworkFunction>>, pool_size: usize) -> Self {
        assert_eq!(
            nfs.len(),
            program.nf_count(),
            "one NF instance per graph node"
        );
        let layout = Layout {
            nfs: nfs.len(),
            mergers: 1,
            switch: program.wiring().switched(),
        };
        let tables = Arc::clone(program.tables());
        let mut runtimes = nfs
            .into_iter()
            .zip(tables.nf_configs.iter().cloned())
            .map(|(nf, config)| NfRuntime::new(nf, config));
        let cx = Shared::new(
            layout,
            pool_size,
            Arc::new(ProgramHandle::new(program)),
            Telemetry::new(TelemetryConfig::default(), layout.nfs, 1),
            Clock::Tick(0),
            0,
        );
        Self {
            dispatcher: Dispatcher::new(&cx, 0..layout.len(), &mut runtimes, Rings::default()),
            cx,
            delivered: 0,
            lost: 0,
        }
    }

    /// The current program epoch.
    pub fn epoch(&self) -> u64 {
        self.cx.handle.epoch()
    }

    /// Per-epoch completion tallies over the engine's lifetime, sorted by
    /// epoch — every delivered or dropped packet counts under exactly one.
    pub fn epochs(&self) -> Vec<EpochTally> {
        self.cx.handle.tallies()
    }

    /// Hot-swap to `program`: validate its footprint against the fixed
    /// pool for one packet (windows follow the installed footprint), run
    /// the compatibility diff and install it as the new current epoch.
    /// Between calls no packet is in flight, so the superseded epoch drains
    /// instantly and is retired before this returns. Rejections leave the
    /// running engine untouched.
    pub fn reconfigure(&mut self, program: Program) -> Result<EpochReport, ReconfigError> {
        let pool_size = self.cx.pool.capacity();
        self.cx.handle.swap(program, pool_size, 1, Duration::ZERO)
    }

    /// Access an NF runtime (stats inspection).
    pub fn runtime(&self, node: usize) -> &NfRuntime<Box<dyn NetworkFunction>> {
        &self.dispatcher.runtimes[node]
    }

    /// NFs that have failed so far, in `NodeId` order.
    pub fn failures(&self) -> Vec<NfFailure> {
        let runtimes = self.dispatcher.runtimes.iter().enumerate();
        runtimes
            .filter_map(|(i, rt)| NfFailure::of(i, rt))
            .collect()
    }

    /// Accumulating-table entries still waiting for sibling copies.
    pub fn pending(&self) -> usize {
        self.dispatcher.merge_pending()
    }

    /// What the engine has done over its lifetime, every entry point
    /// included.
    pub fn record(&self) -> RunRecord {
        let mut all = StageSnapshot::default();
        for stage in &self.cx.stats {
            all.absorb(&stage.snapshot());
        }
        let per_nf = self.dispatcher.runtimes.iter();
        let per_nf = per_nf.map(|rt| (rt.processed, rt.dropped));
        let pulled = self.delivered + self.lost;
        all.record(pulled, self.delivered, self.lost, per_nf)
    }

    /// Each NF's per-flow state, one [`FlowSnapshot`] per NF in `NodeId`
    /// order, as [`crate::engine::Engine::export_flow_state`] exports it.
    pub fn export_flow_state(&self) -> Vec<FlowSnapshot> {
        let runtimes = self.dispatcher.runtimes.iter();
        runtimes.map(|rt| rt.nf().snapshot_state()).collect()
    }

    /// Replace the telemetry configuration, resetting the recorder (the
    /// number of NF and merger histograms is preserved).
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.cx.telemetry = Telemetry::new(config, self.cx.layout.nfs, 1);
    }

    /// Snapshot of the per-stage latency histograms and recorded traces.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.cx.telemetry.snapshot()
    }

    /// Process a batch of packets, collecting delivered outputs in order.
    pub fn process_batch(&mut self, pkts: Vec<Packet>) -> Vec<Packet> {
        let mut out = Vec::with_capacity(pkts.len());
        let mut pkts = pkts.into_iter();
        while pkts.len() > 0 {
            self.drive(pkts.by_ref().take(self.window()));
            out.append(&mut self.dispatcher.outputs);
            self.dispatcher.spent.clear();
        }
        out
    }

    /// Process one packet through the whole graph — an admission window of
    /// one. The packet is pinned to the epoch current at admission and
    /// every stage resolves its tables against that epoch; the pin
    /// settles exactly once before returning.
    pub fn process(&mut self, pkt: Packet) -> Result<ProcessOutcome, AdmitError> {
        let rejected = self.drive(std::iter::once(pkt));
        self.dispatcher.spent.clear();
        if let Some(why) = rejected {
            return Err(why);
        }
        Ok(match self.dispatcher.outputs.pop() {
            Some(p) => ProcessOutcome::Delivered(Box::new(p)),
            None => ProcessOutcome::Dropped,
        })
    }

    /// The largest admission window the pool covers at the installed
    /// program's worst-case footprint (at least one).
    fn window(&self) -> usize {
        (self.cx.pool.capacity() / self.footprint()).max(1)
    }

    /// The installed program's worst-case pool slots per packet.
    fn footprint(&self) -> usize {
        self.cx.handle.current().program().slots_per_packet()
    }

    /// Run one admission window of at most [`window`](Self::window) packets
    /// to the end: admit them under one epoch pin, run the dispatcher dry
    /// and expire until expiry yields nothing (partial forwards enqueue the
    /// merge spec's next actions). The caller drains the outputs, in
    /// completion order. Returns the first admission reject's reason.
    fn drive(&mut self, pkts: impl ExactSizeIterator<Item = Packet>) -> Option<AdmitError> {
        let n = pkts.len();
        debug_assert!(
            n == 1 || n * self.footprint() <= self.cx.pool.capacity(),
            "a window's worst case must fit the pool: nothing inside the graph retries"
        );
        if let Clock::Tick(tick) = &mut self.cx.clock {
            *tick += 1;
        }
        let mut why = None;
        self.dispatcher.classifier.begin_burst(n);
        for pkt in pkts {
            if let Err((e, _)) = self.dispatcher.admit(&self.cx, pkt) {
                why = why.or(Some(e));
            }
        }
        self.dispatcher.classifier.end_burst();
        self.dispatcher.publish(&self.cx);
        loop {
            while !self.dispatcher.idle() {
                self.dispatcher.pass(&self.cx);
            }
            if !self.dispatcher.expire(&self.cx) {
                break;
            }
        }
        debug_assert_eq!(
            self.dispatcher.merge_pending(),
            0,
            "a window's copies must all merge or expire before it ends"
        );
        let delivered = self.dispatcher.outputs.len() as u64;
        self.delivered += delivered;
        self.lost += n as u64 - delivered;
        why
    }

    /// Pool occupancy (leak detection in tests).
    pub fn pool_in_use(&self) -> usize {
        self.cx.pool.in_use()
    }

    /// Stream an [`Ingress`] through the engine and emit every delivered
    /// packet to `egress`, in `burst`-sized pulls, until the source ends.
    /// Each pull is admitted in windows, and each window's outputs leave
    /// through the egress as one burst as soon as it ends: the
    /// fully-streaming counterpart of [`SyncEngine::process_batch`],
    /// holding nothing beyond one pull in memory. Each emitted burst then
    /// goes back to the ingress ([`Ingress::recycle`]), whose next pulls
    /// may refill those packets in place — and so, window by window, do
    /// the buffers of the packets dropped or rejected, which the
    /// classifier takes out of the pool when it admits the next ones.
    /// Returns the record of this call.
    pub fn run_io(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
        burst: usize,
    ) -> Result<RunRecord, IoError> {
        let before = self.record();
        while let Some(pkts) = ingress.next_burst(burst.max(1))? {
            let mut pkts = pkts.into_iter();
            while pkts.len() > 0 {
                let n = pkts.len().min(self.window());
                self.drive(pkts.by_ref().take(n));
                ingress.recycle(&mut self.dispatcher.spent);
                if !self.dispatcher.outputs.is_empty() {
                    let emitted = egress.emit_burst(&self.dispatcher.outputs);
                    ingress.recycle(&mut self.dispatcher.outputs);
                    self.dispatcher.outputs.clear();
                    emitted?;
                }
            }
        }
        egress.flush()?;
        Ok(self.record().since(&before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_packet::io::DropCause;
    use nfp_packet::ipv4::Ipv4Addr;

    fn engine_for(chain: &[&str]) -> SyncEngine {
        let (program, nfs) = crate::engine::tests::program_and_nfs(chain);
        SyncEngine::new(program, nfs, 64)
    }

    fn pkt(dport: u16) -> Packet {
        nfp_traffic::gen::build_tcp_frame(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 2, 3, 4),
            4321,
            dport,
            b"some payload data",
        )
    }

    #[test]
    fn monitor_firewall_parallel_delivers_and_counts() {
        let mut e = engine_for(&["Monitor", "Firewall"]);
        let out = e.process(pkt(80)).unwrap().delivered().unwrap();
        assert_eq!(out.dport().unwrap(), 80);
        assert_eq!(e.pool_in_use(), 0, "no leaks");
        assert_eq!(e.record().delivered, 1);
    }

    #[test]
    fn firewall_drop_propagates_through_merge() {
        let mut e = engine_for(&["Monitor", "Firewall"]);
        // Hit deny rule #3: dst 172.16.3.0/24 with dport 7003.
        let mut p = pkt(7003);
        p.set_dip(Ipv4Addr::new(172, 16, 3, 9)).unwrap();
        p.finalize_checksums().unwrap();
        let out = e.process(p).unwrap();
        assert!(matches!(out, ProcessOutcome::Dropped));
        assert_eq!(e.pool_in_use(), 0);
        let record = e.record();
        let resolved = record.causes[DropCause::MergeResolved as usize];
        assert_eq!((record.dropped, record.rejected, resolved), (1, 0, 1));
    }

    #[test]
    fn monitor_lb_copy_merge_applies_rewrite() {
        let mut e = engine_for(&["Monitor", "LoadBalancer"]);
        let out = e.process(pkt(80)).unwrap().delivered().unwrap();
        // The LB's rewrite (performed on the header-only copy) must appear
        // in the merged output.
        assert_eq!(out.dip().unwrap().0[0], 192);
        assert_eq!(out.sip().unwrap(), Ipv4Addr::new(10, 255, 0, 1));
        // Payload survives from v1.
        assert_eq!(out.payload().unwrap(), b"some payload data");
        assert_eq!(e.pool_in_use(), 0);
    }

    #[test]
    fn north_south_chain_end_to_end() {
        let mut e = engine_for(&["VPN", "Monitor", "Firewall", "LoadBalancer"]);
        let out = e.process(pkt(443)).unwrap().delivered().unwrap();
        // VPN encapsulated: AH present, proto = AH.
        let l = out.parsed().unwrap();
        assert!(l.ah.is_some());
        // LB ran after the parallel group (sequential tail).
        assert_eq!(out.dip().unwrap().0[0], 192);
        assert_eq!(e.pool_in_use(), 0);
    }

    /// Every hop of a switched chain passes the switch: n + 1 transits
    /// for each delivered packet and k + 1 for each packet NF k drops, on
    /// this engine and on the threaded one at budgets 1, 2 and n + 2.
    #[test]
    fn switch_transits_count_every_hop() {
        use crate::engine::{tests::program_and_nfs, Engine, EngineConfig};
        let chain = ["NAT", "Firewall", "LoadBalancer"];
        let program = program_and_nfs(&chain).0.via_switch().unwrap();
        // Every fourth packet hits a deny rule of the Firewall (NF 1).
        let pkts = nfp_testkit::Traffic::clean(8, 96).deny(4, 7).build(120);
        let mut e = SyncEngine::new(program.clone(), program_and_nfs(&chain).1, 64);
        e.process_batch(pkts.clone());
        let sync = e.record();
        assert_eq!(sync.per_nf().unwrap(), [(120, 0), (120, 30), (90, 0)]);
        let mut switch = vec![e.cx.stats_of(nfp_orchestrator::Stage::Switch).snapshot()];
        for core_budget in [1, 2, chain.len() + 2] {
            let config = EngineConfig {
                core_budget,
                ..EngineConfig::default()
            };
            let engine = Engine::new(program.clone(), program_and_nfs(&chain).1, config);
            let report = engine.unwrap().run(pkts.clone());
            assert_eq!(report.record(), sync, "budget {core_budget}");
            switch.extend(report.stats.switch);
        }
        // Sync, then budgets 1, 2 and n + 2: n + 1 transits per delivered
        // packet, k + 1 per packet dropped at NF k, each in and out.
        let counted: Vec<_> = switch
            .iter()
            .map(|s| (s.packets_in, s.packets_out))
            .collect();
        assert_eq!(counted, [(90 * 4 + 30 * 2, 90 * 4 + 30 * 2); 4]);
    }

    #[test]
    fn many_packets_no_leaks() {
        let mut e = engine_for(&["Monitor", "LoadBalancer"]);
        for i in 0..200u16 {
            let _ = e.process(pkt(80 + i % 50)).unwrap();
            assert_eq!(e.pool_in_use(), 0, "packet {i}");
        }
        let record = e.record();
        assert_eq!((record.pulled, record.delivered), (200, 200));
        // The monitor saw every packet exactly once.
        assert_eq!(record.per_nf().unwrap()[0], (200, 0));
    }
}
