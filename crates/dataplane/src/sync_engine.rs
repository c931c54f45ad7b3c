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
use crate::runtime::{FailureKind, NfRuntime};
use crate::stats::StageSnapshot;
use crate::swap::{EpochReport, EpochTally, ProgramHandle, ReconfigError};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::Program;
use nfp_packet::io::{Egress, Ingress, IoError, IoRunStats};
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
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
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
            dropped: 0,
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

    /// NFs that have failed so far, as `(node id, failure kind)` pairs.
    pub fn failures(&self) -> Vec<(usize, FailureKind)> {
        self.dispatcher
            .runtimes
            .iter()
            .enumerate()
            .filter_map(|(i, rt)| rt.failure().map(|f| (i, f.clone())))
            .collect()
    }

    /// Accumulating-table entries still waiting for sibling copies.
    pub fn pending(&self) -> usize {
        self.dispatcher.merge_pending()
    }

    /// Engine-wide counters: every stage's counters folded into one
    /// snapshot (sums; `ring_high_water` stays 0 — there are no rings).
    pub fn stats(&self) -> StageSnapshot {
        let mut all = StageSnapshot::default();
        for stage in &self.cx.stats {
            all.absorb(&stage.snapshot());
        }
        all
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
    /// Admit rejects and drops both count toward `dropped`.
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
    /// settles exactly once before returning. An admission reject counts
    /// toward `dropped` here, like every other packet that does not come
    /// out.
    pub fn process(&mut self, pkt: Packet) -> Result<ProcessOutcome, AdmitError> {
        let (_, rejected) = self.drive(std::iter::once(pkt));
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
    /// completion order. Returns the admission rejects and the last reason.
    fn drive(&mut self, pkts: impl ExactSizeIterator<Item = Packet>) -> (u64, Option<AdmitError>) {
        let n = pkts.len();
        debug_assert!(
            n == 1 || n * self.footprint() <= self.cx.pool.capacity(),
            "a window's worst case must fit the pool: nothing inside the graph retries"
        );
        if let Clock::Tick(tick) = &mut self.cx.clock {
            *tick += 1;
        }
        let (mut rejected, mut why) = (0, None);
        self.dispatcher.classifier.begin_burst(n);
        for pkt in pkts {
            if let Err((e, _)) = self.dispatcher.admit(&self.cx, pkt) {
                (rejected, why) = (rejected + 1, Some(e));
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
        self.dropped += n as u64 - delivered;
        (rejected, why)
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
    pub fn run_io(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
        burst: usize,
    ) -> Result<IoRunStats, IoError> {
        let mut io = IoRunStats::default();
        while let Some(pkts) = ingress.next_burst(burst.max(1))? {
            io.pulled += pkts.len() as u64;
            let mut pkts = pkts.into_iter();
            while pkts.len() > 0 {
                let n = pkts.len().min(self.window()) as u64;
                let (rejected, _) = self.drive(pkts.by_ref().take(n as usize));
                let delivered = self.dispatcher.outputs.len() as u64;
                (io.rejected, io.delivered) = (io.rejected + rejected, io.delivered + delivered);
                io.dropped += n - rejected - delivered;
                ingress.recycle(&mut self.dispatcher.spent);
                if delivered > 0 {
                    let emitted = egress.emit_burst(&self.dispatcher.outputs);
                    ingress.recycle(&mut self.dispatcher.outputs);
                    self.dispatcher.outputs.clear();
                    emitted?;
                }
            }
        }
        egress.flush()?;
        Ok(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_nf::catalogue;
    use nfp_orchestrator::{compile, CompileOptions, Registry};
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_policy::Policy;

    fn engine_for(chain: &[&str]) -> SyncEngine {
        let reg = Registry::paper_table2();
        let compiled = compile(
            &Policy::from_chain(chain.iter().copied()),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        let program = compiled.program(1).unwrap();
        let nfs: Vec<Box<dyn NetworkFunction>> = compiled
            .graph
            .nodes
            .iter()
            .map(|n| catalogue::make(n.name.as_str()).unwrap())
            .collect();
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
        assert_eq!(e.delivered, 1);
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
        assert_eq!(e.dropped, 1);
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

    #[test]
    fn many_packets_no_leaks() {
        let mut e = engine_for(&["Monitor", "LoadBalancer"]);
        for i in 0..200u16 {
            let _ = e.process(pkt(80 + i % 50)).unwrap();
            assert_eq!(e.pool_in_use(), 0, "packet {i}");
        }
        assert_eq!(e.delivered, 200);
        // The monitor saw every packet exactly once.
        let mon = e.runtime(0);
        assert_eq!(mon.processed, 200);
    }
}
