//! Every way the repo executes a program, behind one entry point.

use crate::outcome::{normalise, Delivery, Outcome};
use crate::program::{Chain, Nfs};
use nfp_baseline::{OnvmPipeline, RunToCompletion};
use nfp_dataplane::runtime::FailureKind;
use nfp_dataplane::shard::partition_by_flow;
use nfp_dataplane::{Engine, EngineConfig, EngineReport, NfFailure, ShardedEngine, SyncEngine};
use nfp_io::{CollectEgress, DropCause, Ingress, PcapIngress, RunRecord, VecIngress};
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

    /// Packets the trace offers: a capture's records.
    fn len(self) -> usize {
        match self {
            Trace::Packets(pkts) => pkts.len(),
            Trace::Pcap(capture) => crate::corpus::golden(capture).len(),
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
    delivered: Vec<Delivery>,
    /// Every feed's record, added up.
    record: RunRecord,
    /// The threaded runs' failures, the first of each NF.
    failures: Vec<NfFailure>,
    report: Option<EngineReport>,
}

/// Hold a feed's record to its own accounting and to what the feed was:
/// `offered` packets went in, `delivered` came out, and every other one
/// was dropped or rejected exactly once, under exactly one cause.
fn check(r: &RunRecord, offered: usize, delivered: usize) {
    assert_eq!(r.pulled, offered as u64, "every offered packet taken in");
    assert_eq!(r.delivered, delivered as u64, "the record's deliveries");
    assert_eq!(r.pulled, r.delivered + r.dropped + r.rejected, "accounting");
    assert_eq!(
        r.causes.iter().sum::<u64>(),
        r.dropped + r.rejected,
        "drop taxonomy"
    );
}

/// The failures an [`Outcome`] compares: which NF, and how.
fn failures(fs: &[NfFailure]) -> Vec<(usize, FailureKind)> {
    fs.iter().map(|f| (f.node, f.kind.clone())).collect()
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
            delivered: Vec::new(),
            record: RunRecord::default(),
            failures: Vec::new(),
            report: None,
        }
    }

    /// Run `trace` through the executor; returns this feed's deliveries.
    /// Holds the executor's own accounting as it goes: the pool drains,
    /// nothing stays pending, and the feed's record closes: every packet
    /// the trace offers is delivered, dropped or rejected once, under one
    /// cause.
    pub fn feed<'a>(&mut self, trace: impl Into<Trace<'a>>) -> &[Delivery] {
        let trace = trace.into();
        let (out, record): (Vec<Delivery>, RunRecord) = match &mut self.arm {
            Arm::Engine(_) | Arm::Sharded(_) => self.threaded(trace),
            Arm::Rtc(rtc) => {
                let before = rtc.record();
                let out = trace.packets().into_iter().filter_map(|p| {
                    let flow = FlowKey::of(&p);
                    let p = rtc.process(p)?;
                    Some(Delivery {
                        flow,
                        ..Delivery::of(&p)
                    })
                });
                (out.collect(), rtc.record().since(&before))
            }
            Arm::Onvm(onvm) => {
                let report = onvm.run(trace.packets());
                let mut record = RunRecord::default();
                (record.pulled, record.delivered) = (report.injected, report.delivered);
                record.dropped = report.dropped;
                // Its NFs' verdicts are the pipeline's only drops.
                record.causes[DropCause::NfVerdict as usize] = report.dropped;
                (report.packets.iter().map(Delivery::of).collect(), record)
            }
            Arm::Sync(e, entry) => {
                let before = e.record();
                let out = match *entry {
                    Entry::Process => {
                        let (mut out, mut rejected) = (Vec::new(), 0);
                        for p in trace.packets() {
                            match e.process(p) {
                                Ok(outcome) => out.extend(outcome.delivered()),
                                Err(_) => rejected += 1,
                            }
                            assert_eq!(e.pool_in_use(), 0, "pool leak after a packet");
                        }
                        let record = e.record().since(&before);
                        assert_eq!(rejected, record.rejected, "process() reports each reject");
                        out
                    }
                    Entry::Batch => e.process_batch(trace.packets()),
                    Entry::RunIo(burst) => {
                        let mut egress = CollectEgress::new();
                        let io = e.run_io(trace.ingress().as_mut(), &mut egress, burst);
                        assert_eq!(io.unwrap(), e.record().since(&before), "run_io's record");
                        egress.pkts
                    }
                };
                assert_eq!(e.pool_in_use(), 0, "pool leak");
                assert_eq!(e.pending(), 0, "merges left pending");
                let record = e.record().since(&before);
                (out.iter().map(Delivery::of).collect(), record)
            }
        };
        check(&record, trace.len(), out.len());
        self.record.absorb(&record);
        let start = self.delivered.len();
        self.delivered.extend(out);
        &self.delivered[start..]
    }

    /// One threaded run: its deliveries and record. Keeps its report and
    /// the first failure of each NF.
    fn threaded(&mut self, trace: Trace<'_>) -> (Vec<Delivery>, RunRecord) {
        let capture = matches!(trace, Trace::Pcap(_));
        assert_eq!(
            self.keeps, !capture,
            "a capture replays through `run_io` with keep_packets off, a packet trace with it on"
        );
        let mut egress = CollectEgress::new();
        let mut report = match &mut self.arm {
            Arm::Engine(e) if capture => e.run_io(trace.ingress().as_mut(), &mut egress).unwrap().0,
            Arm::Sharded(f) if capture => {
                f.run_io(trace.ingress().as_mut(), &mut egress).unwrap().0
            }
            Arm::Engine(e) => e.run(trace.packets()),
            Arm::Sharded(f) => f.run(trace.packets()),
            _ => unreachable!(),
        };
        assert_eq!(report.pool_in_use, 0, "pool leak");
        for f in &report.failures {
            if !self.failures.iter().any(|seen| seen.node == f.node) {
                self.failures.push(f.clone());
            }
        }
        egress.pkts.append(&mut report.packets);
        let record = report.record();
        self.report = Some(report);
        (egress.pkts.iter().map(Delivery::of).collect(), record)
    }

    /// Run `pkts` through a [`Executor::Sharded`] fleet (`keep_packets`
    /// on), one outcome per replica in shard order: its report's
    /// deliveries and record, and the flows of its RSS partition in the
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
        let parts = partition_by_flow(pkts.to_vec(), shards);
        let outcomes = reports.into_iter().zip(parts).enumerate();
        let outcomes = outcomes.map(|(shard, (r, part))| {
            assert_eq!(r.pool_in_use, 0, "pool leak");
            let record = r.record();
            check(&record, part.len(), r.packets.len());
            let mut state = state.clone();
            for snap in &mut state {
                snap.retain_shard(shard, shards);
            }
            let delivered = r.packets.iter().map(Delivery::of).collect();
            Outcome {
                state: Some(normalise(state)),
                failures: Some(failures(&r.failures)),
                ..Outcome::recorded(delivered, &record, true)
            }
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
        let engine = !matches!(self.arm, Arm::Rtc(_) | Arm::Onvm(_));
        let o = Outcome::recorded(self.delivered.clone(), &self.record, engine);
        let (state, failures) = match &self.arm {
            Arm::Rtc(rtc) => (Some(rtc.snapshot_state()), None),
            Arm::Onvm(_) => (None, None),
            Arm::Sync(e, _) => (Some(e.export_flow_state()), Some(failures(&e.failures()))),
            Arm::Engine(e) => (Some(e.export_flow_state()), Some(failures(&self.failures))),
            Arm::Sharded(f) => (Some(f.export_flow_state()), Some(failures(&self.failures))),
        };
        Outcome {
            state: state.map(normalise),
            failures,
            ..o
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

    /// Every arm's record closes on the golden mixed capture: each packet
    /// taken in is delivered, dropped or rejected once, under one cause;
    /// and every engine counts per NF what the sync `process()` loop does.
    #[test]
    fn every_arm_records_the_same_run() {
        let (chain, nfs) = (Chain::new(&["Monitor", "Firewall"]), Nfs::catalogue());
        let budget = |core_budget| EngineConfig {
            core_budget,
            ..EngineConfig::default()
        };
        let sync = [Entry::Process, Entry::Batch, Entry::RunIo(32)].map(Executor::sync);
        let fleet = Executor::Sharded {
            shards: 2,
            config: budget(2),
        };
        let threaded = [
            Executor::Engine(budget(1)),
            Executor::Engine(budget(2)),
            fleet,
        ];
        let mut first = None;
        for executor in sync.iter().chain(&threaded).chain([&Executor::Rtc]) {
            let mut runner = Runner::new(executor, &chain, &nfs);
            runner.feed(Trace::Pcap(GOLDEN_MIXED));
            let r = runner.record;
            // Whatever was not delivered was dropped or rejected, under
            // one cause each.
            let lost = r.dropped + r.rejected;
            let counts = (r.pulled - r.delivered, r.causes.iter().sum::<u64>());
            assert_eq!(counts, (lost, lost), "{executor:?}");
            let reference: RunRecord = *first.get_or_insert(r);
            let want = match executor {
                Executor::Rtc => None,
                _ => reference.per_nf(),
            };
            assert_eq!(r.per_nf(), want, "{executor:?}");
        }
        let nodes = first.unwrap().per_nf().map(<[_]>::len);
        assert_eq!(nodes, Some(chain.graph.nodes.len()));
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
