//! Every way the repo executes a program, behind one entry point.

use crate::outcome::{normalise, Delivery, Outcome};
use crate::program::{Chain, Nfs};
use nfp_baseline::{OnvmPipeline, RunToCompletion};
use nfp_dataplane::runtime::FailureKind;
use nfp_dataplane::stats::StageSnapshot;
use nfp_dataplane::{Engine, EngineConfig, EngineReport, ShardedEngine, SyncEngine};
use nfp_io::{CollectEgress, Ingress, PcapIngress, VecIngress};
use nfp_orchestrator::Program;
use nfp_packet::flow::FlowKey;
use nfp_packet::Packet;

/// A [`SyncEngine`] entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// A `process()` loop: one packet at a time.
    Process,
    /// One `process_batch` over the whole trace.
    Batch,
    /// `run_io` from a `VecIngress` (or the capture) into a
    /// `CollectEgress`, pulling bursts of this many packets.
    RunIo(usize),
}

/// An executor of a sealed program.
#[derive(Debug, Clone)]
pub enum Executor {
    /// Sequential composition: the policy's NFs in chain order, one call
    /// per packet ([`RunToCompletion::process`]), as `perf` runs it. It has
    /// no classifier, so its NFs see no admission flow (see
    /// [`Chain::rekeyed`]); each delivery is filed under its packet's
    /// ingress 5-tuple, the flow the engines' classifier stamps.
    Rtc,
    /// ONVM's switch pipeline over the chain, one NF per thread. Its
    /// deliveries carry no flow: it is held to the multiset level only.
    Onvm,
    /// The deterministic [`SyncEngine`] over a pool of `pool` slots.
    Sync {
        /// How packets enter.
        entry: Entry,
        /// Pool slots.
        pool: usize,
    },
    /// The threaded [`Engine`] (`core_budget` 1 and up), on the caller's
    /// configuration. A packet trace runs through `run`, which hands the
    /// deliveries back only with `keep_packets` on; a capture runs through
    /// `run_io`, which recycles every spent buffer into the `PcapIngress`
    /// only with it off. A feed panics on the other setting.
    Engine(EngineConfig),
    /// A [`ShardedEngine`] fleet of `shards` replicas; `config` holds the
    /// fleet's budgets (and `keep_packets`, as for [`Executor::Engine`]).
    Sharded {
        /// Replicas.
        shards: usize,
        /// Fleet configuration.
        config: EngineConfig,
    },
}

impl Executor {
    /// The sync engine through `entry`, on a 64-slot pool.
    pub fn sync(entry: Entry) -> Self {
        Executor::Sync { entry, pool: 64 }
    }
}

/// What a run is fed.
#[derive(Debug, Clone, Copy)]
pub enum Trace<'a> {
    /// Packets, in order.
    Packets(&'a [Packet]),
    /// A pcap capture: `run_io` entry points replay it through a
    /// `PcapIngress`, the others take every record that decodes.
    Pcap(&'a [u8]),
}

impl<'a> From<&'a [Packet]> for Trace<'a> {
    fn from(pkts: &'a [Packet]) -> Self {
        Trace::Packets(pkts)
    }
}

impl<'a> From<&'a Vec<Packet>> for Trace<'a> {
    fn from(pkts: &'a Vec<Packet>) -> Self {
        Trace::Packets(pkts)
    }
}

impl Trace<'_> {
    fn packets(self) -> Vec<Packet> {
        match self {
            Trace::Packets(pkts) => pkts.to_vec(),
            Trace::Pcap(capture) => crate::corpus::golden(capture),
        }
    }

    fn ingress(self) -> Box<dyn Ingress> {
        match self {
            Trace::Packets(pkts) => Box::new(VecIngress::new(pkts.to_vec())),
            Trace::Pcap(capture) => Box::new(PcapIngress::from_bytes(capture.to_vec()).unwrap()),
        }
    }
}

/// Run `trace` through a fresh `executor` over `chain` built with `nfs`.
pub fn run<'a>(
    executor: &Executor,
    chain: &Chain,
    nfs: &Nfs,
    trace: impl Into<Trace<'a>>,
) -> Outcome {
    let mut runner = Runner::new(executor, chain, nfs);
    runner.feed(trace);
    runner.outcome()
}

enum Arm {
    Rtc(RunToCompletion),
    Onvm(OnvmPipeline),
    Sync(Box<SyncEngine>, Entry),
    Engine(Engine),
    Sharded(Box<ShardedEngine>),
}

/// One executor kept across feeds: a warm replay, a reconfigure between
/// two feeds, or a suite that reads the engine behind the outcome.
pub struct Runner {
    arm: Arm,
    /// A threaded arm's `keep_packets`.
    keeps: bool,
    /// NF positions.
    nodes: usize,
    delivered: Vec<Delivery>,
    /// Offered packets not delivered: drops and rejects, split by
    /// [`Outcome::counted`].
    lost: u64,
    /// Folded stage counters over every threaded run.
    folded: StageSnapshot,
    failures: Vec<(usize, FailureKind)>,
    report: Option<EngineReport>,
}

/// Every stage snapshot of `report` folded into one.
fn fold(report: &EngineReport) -> StageSnapshot {
    let mut all = StageSnapshot::default();
    for (_, stage) in report.stats.stages() {
        all.absorb(stage);
    }
    all
}

impl Runner {
    /// A fresh `executor` over `chain`, its NFs built by `nfs`.
    pub fn new(executor: &Executor, chain: &Chain, nfs: &Nfs) -> Self {
        let nodes = chain.nodes();
        let mut keeps = false;
        let arm = match executor {
            Executor::Rtc => Arm::Rtc(RunToCompletion::new(nfs.build(&chain.order))),
            Executor::Onvm => {
                Arm::Onvm(OnvmPipeline::new(nfs.build(&chain.order)).keep_packets(true))
            }
            Executor::Sync { entry, pool } => {
                let e = SyncEngine::new(chain.program.clone(), nfs.build(&nodes), *pool);
                Arm::Sync(Box::new(e), *entry)
            }
            Executor::Engine(config) => {
                keeps = config.keep_packets;
                let e = Engine::new(chain.program.clone(), nfs.build(&nodes), config.clone());
                Arm::Engine(e.unwrap())
            }
            Executor::Sharded { shards, config } => {
                keeps = config.keep_packets;
                let nfs = nfs.clone();
                let make = move || nfs.build(&nodes);
                let fleet = ShardedEngine::new(&chain.program, make, config, *shards);
                Arm::Sharded(Box::new(fleet.unwrap()))
            }
        };
        Runner {
            arm,
            keeps,
            nodes: chain.graph.nodes.len(),
            delivered: Vec::new(),
            lost: 0,
            folded: StageSnapshot::default(),
            failures: Vec::new(),
            report: None,
        }
    }

    /// Run `trace` through the executor; returns this feed's deliveries.
    /// Holds the executor's own accounting as it goes: the pool drains,
    /// nothing stays pending, and every offered packet is delivered,
    /// dropped or rejected exactly once.
    pub fn feed<'a>(&mut self, trace: impl Into<Trace<'a>>) -> &[Delivery] {
        let trace = trace.into();
        let start = self.delivered.len();
        let (out, offered): (Vec<Delivery>, u64) = match &mut self.arm {
            Arm::Engine(_) | Arm::Sharded(_) => {
                let (report, out, offered) = self.threaded(trace);
                assert_eq!(report.pool_in_use, 0, "pool leak");
                self.folded.absorb(&fold(&report));
                for f in &report.failures {
                    if !self.failures.iter().any(|(node, _)| *node == f.node) {
                        self.failures.push((f.node, f.kind.clone()));
                    }
                }
                self.report = Some(report);
                (out.iter().map(Delivery::of).collect(), offered)
            }
            Arm::Rtc(rtc) => {
                let pkts = trace.packets();
                let n = pkts.len() as u64;
                let out = pkts.into_iter().filter_map(|p| {
                    let flow = FlowKey::of(&p);
                    let p = rtc.process(p)?;
                    Some(Delivery {
                        flow,
                        ..Delivery::of(&p)
                    })
                });
                (out.collect(), n)
            }
            Arm::Onvm(onvm) => {
                let pkts = trace.packets();
                let n = pkts.len() as u64;
                let report = onvm.run(pkts);
                assert_eq!(report.delivered + report.dropped, n, "ONVM accounting");
                (report.packets.iter().map(Delivery::of).collect(), n)
            }
            Arm::Sync(e, entry) => {
                let (out, offered) = match *entry {
                    Entry::Process => {
                        let (s0, pkts) = (e.stats(), trace.packets());
                        let (n, mut rejects) = (pkts.len() as u64, 0);
                        let mut out = Vec::new();
                        for p in pkts {
                            match e.process(p) {
                                Ok(outcome) => out.extend(outcome.delivered()),
                                Err(_) => rejects += 1,
                            }
                            assert_eq!(e.pool_in_use(), 0, "pool leak after a packet");
                        }
                        let s = e.stats();
                        assert_eq!(rejects, s.rejects() - s0.rejects(), "process() rejects");
                        (out, n)
                    }
                    Entry::Batch => {
                        let pkts = trace.packets();
                        let n = pkts.len() as u64;
                        (e.process_batch(pkts), n)
                    }
                    Entry::RunIo(burst) => {
                        let (s0, mut egress) = (e.stats(), CollectEgress::new());
                        let io = e
                            .run_io(trace.ingress().as_mut(), &mut egress, burst)
                            .unwrap();
                        assert_eq!(io.pulled, io.delivered + io.dropped + io.rejected);
                        assert_eq!(io.delivered, egress.pkts.len() as u64);
                        let s = e.stats();
                        let rejects = s.rejects() - s0.rejects();
                        assert_eq!(io.rejected, rejects, "run_io rejects");
                        if let Trace::Packets(pkts) = trace {
                            assert_eq!(io.pulled, pkts.len() as u64, "run_io pulls everything");
                        }
                        (egress.pkts, io.pulled)
                    }
                };
                assert_eq!(e.pool_in_use(), 0, "pool leak");
                assert_eq!(e.pending(), 0, "merges left pending");
                (out.iter().map(Delivery::of).collect(), offered)
            }
        };
        self.lost += offered - out.len() as u64;
        self.delivered.extend(out);
        &self.delivered[start..]
    }

    /// One threaded run: its report, deliveries and offered packets.
    fn threaded(&mut self, trace: Trace<'_>) -> (EngineReport, Vec<Packet>, u64) {
        if let Trace::Pcap(_) = trace {
            assert!(
                !self.keeps,
                "a capture replays with every spent buffer recycled into its ingress: \
                 run it with keep_packets off"
            );
            let mut egress = CollectEgress::new();
            let mut ingress = trace.ingress();
            let (report, io) = match &mut self.arm {
                Arm::Engine(e) => e.run_io(ingress.as_mut(), &mut egress),
                Arm::Sharded(f) => f.run_io(ingress.as_mut(), &mut egress),
                _ => unreachable!(),
            }
            .unwrap();
            assert_eq!(io.pulled, io.delivered + io.dropped + io.rejected);
            assert_eq!(io.delivered, egress.pkts.len() as u64);
            return (report, egress.pkts, io.pulled);
        }
        assert!(
            self.keeps,
            "`run` hands deliveries back only with keep_packets on"
        );
        let pkts = trace.packets();
        let n = pkts.len() as u64;
        let mut report = match &mut self.arm {
            Arm::Engine(e) => e.run(pkts),
            Arm::Sharded(f) => f.run(pkts),
            _ => unreachable!(),
        };
        assert_eq!(report.injected, n, "injected");
        assert_eq!(report.injected, report.delivered + report.dropped);
        assert_eq!(report.stats.total_drops(), report.dropped, "stage drops");
        let out = std::mem::take(&mut report.packets);
        (report, out, n)
    }

    /// Run `pkts` through a [`Executor::Sharded`] fleet (`keep_packets`
    /// on), one outcome per replica in shard order: its report's
    /// deliveries and counters, and the flows of its RSS partition in the
    /// fleet's state. Not added to [`Runner::outcome`].
    pub fn feed_per_shard(&mut self, pkts: &[Packet]) -> Vec<Outcome> {
        assert!(
            self.keeps,
            "`run_per_shard` hands deliveries back only with keep_packets on"
        );
        let Arm::Sharded(fleet) = &mut self.arm else {
            panic!("not a fleet");
        };
        let reports = fleet.run_per_shard(pkts.to_vec());
        let (state, shards) = (fleet.export_flow_state(), reports.len());
        let outcomes = reports.into_iter().enumerate().map(|(shard, r)| {
            assert_eq!(r.pool_in_use, 0, "pool leak");
            assert_eq!(r.injected, r.delivered + r.dropped);
            let mut state = state.clone();
            for snap in &mut state {
                snap.retain_shard(shard, shards);
            }
            let failures = r.failures.iter().map(|f| (f.node, f.kind.clone()));
            Outcome {
                delivered: r.packets.iter().map(Delivery::of).collect(),
                dropped: r.dropped,
                state: Some(normalise(state)),
                failures: Some(failures.collect()),
                ..Outcome::default()
            }
            .counted(&fold(&r))
        });
        outcomes.collect()
    }

    /// Hot-swap to `program` at the next epoch, between two feeds.
    pub fn reconfigure(&mut self, program: &Program) {
        let next = |epoch: u64| program.clone().with_epoch(epoch + 1);
        match &mut self.arm {
            Arm::Sync(e, _) => e.reconfigure(next(e.epoch())).map(drop),
            Arm::Engine(e) => e.reconfigure(next(e.epoch())).map(drop),
            Arm::Sharded(f) => {
                let epoch = self.report.as_ref().map_or(0, |r| r.epoch);
                f.reconfigure(next(epoch)).map(drop)
            }
            Arm::Rtc(_) | Arm::Onvm(_) => panic!("a sequential chain has no program"),
        }
        .unwrap();
    }

    /// Everything observed so far.
    pub fn outcome(&self) -> Outcome {
        let o = Outcome {
            delivered: self.delivered.clone(),
            dropped: self.lost,
            ..Outcome::default()
        };
        let threaded = |state| Outcome {
            state: Some(normalise(state)),
            failures: Some(self.failures.clone()),
            ..o.clone().counted(&self.folded)
        };
        match &self.arm {
            Arm::Rtc(rtc) => Outcome {
                state: Some(normalise(rtc.snapshot_state())),
                ..o
            },
            Arm::Onvm(_) => o,
            Arm::Sync(e, _) => {
                let delivered = self.delivered.len() as u64;
                assert_eq!(e.delivered, delivered, "the engine's own delivery count");
                assert_eq!(e.dropped, self.lost, "the engine's own drop count");
                let nfs: Vec<_> = (0..self.nodes).map(|i| e.runtime(i)).collect();
                let state = nfs.iter().map(|rt| rt.nf().snapshot_state());
                Outcome {
                    per_nf: Some(nfs.iter().map(|rt| (rt.processed, rt.dropped)).collect()),
                    state: Some(normalise(state.collect())),
                    failures: Some(e.failures()),
                    ..o.counted(&e.stats())
                }
            }
            Arm::Engine(e) => threaded(e.export_flow_state()),
            Arm::Sharded(f) => threaded(f.export_flow_state()),
        }
    }

    /// The sync engine behind a [`Executor::Sync`] runner.
    pub fn sync(&mut self) -> &mut SyncEngine {
        match &mut self.arm {
            Arm::Sync(e, _) => e,
            _ => panic!("not a sync engine"),
        }
    }

    /// The engine behind a [`Executor::Engine`] runner.
    pub fn engine(&mut self) -> &mut Engine {
        match &mut self.arm {
            Arm::Engine(e) => e,
            _ => panic!("not a threaded engine"),
        }
    }

    /// The last threaded run's report (its delivered packets moved into
    /// the outcome).
    pub fn report(&self) -> &EngineReport {
        self.report.as_ref().expect("a threaded run has been fed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::GOLDEN_MIXED;
    use crate::Traffic;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn engine(keep_packets: bool) -> Executor {
        Executor::Engine(EngineConfig {
            keep_packets,
            ..EngineConfig::default()
        })
    }

    /// A capture through the threaded engine replays on `run_io` with its
    /// buffers recycled (`keep_packets` off) and matches the sync engine's
    /// `run_io`; with `keep_packets` on it would keep every delivery out of
    /// the ingress's refill path, so the runner refuses it.
    #[test]
    fn captures_replay_with_recycled_buffers() {
        let chain = Chain::new(&["Monitor", "Firewall"]);
        let nfs = Nfs::catalogue();
        let sync = run(
            &Executor::sync(Entry::RunIo(32)),
            &chain,
            &nfs,
            Trace::Pcap(GOLDEN_MIXED),
        );
        assert!(
            sync.rejected > 0 && sync.dropped > 0,
            "the capture drops and rejects"
        );
        let threaded = run(&engine(false), &chain, &nfs, Trace::Pcap(GOLDEN_MIXED));
        threaded.assert_matches(&sync, crate::Level::PerFlow, "recycled capture replay");
        let kept = catch_unwind(AssertUnwindSafe(|| {
            run(&engine(true), &chain, &nfs, Trace::Pcap(GOLDEN_MIXED))
        }));
        assert!(kept.is_err(), "a capture ran with keep_packets on");
        let pkts = Traffic::mixed().build(8);
        let lost = catch_unwind(AssertUnwindSafe(|| {
            run(&engine(false), &chain, &nfs, &pkts)
        }));
        assert!(lost.is_err(), "a packet trace ran with keep_packets off");
    }

    /// Run-to-completion sees packets unstamped but files each delivery
    /// under its ingress flow; an NF behind its address rewrite is
    /// `rekeyed`. A frame the classifier refuses counts as a reject, not a
    /// drop, so it cannot pass for run-to-completion's NF drop.
    #[test]
    fn run_to_completion_files_by_ingress_flow_and_has_no_rejects() {
        let chain = Chain::new(&["LoadBalancer", "Monitor"]);
        let nfs = Nfs::catalogue();
        assert_eq!(chain.rekeyed(&nfs), ["Monitor"]);
        let pkts = Traffic::mixed().build(16);
        let rtc = run(&Executor::Rtc, &chain, &nfs, &pkts);
        for (d, p) in rtc.delivered.iter().zip(&pkts) {
            assert_eq!(d.flow, FlowKey::of(p));
            assert_ne!(d.packet().dip(), p.dip(), "the balancer rewrote it");
        }
        let truncated = vec![Packet::from_bytes(&[0xff; 14]).unwrap()];
        let sync = run(&Executor::sync(Entry::Process), &chain, &nfs, &truncated);
        assert_eq!((sync.rejected, sync.dropped), (1, 0));
        let rtc = run(&Executor::Rtc, &chain, &nfs, &truncated);
        assert_eq!(rtc.rejected, 0);
        let m = sync.diff(&rtc, crate::Level::ByteOrder).map(|m| m.field);
        assert!(matches!(m, Some("multiset" | "dropped")), "{m:?}");
    }
}
