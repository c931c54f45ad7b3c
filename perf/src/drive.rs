//! One pass of a workload's input through one executor, timed, with the
//! accounting every timed run must satisfy.
//!
//! Everything here goes through the engines' public functions only (the
//! list is in `perf/README.md`). Generated workloads enter through
//! `process`/`run`; the replay workload enters through `run_io` with a
//! pcap ingress and an in-memory pcap egress.

use crate::workloads::Input;
use nfp_baseline::RunToCompletion;
use nfp_dataplane::engine::{Engine, EngineReport};
use nfp_dataplane::shard::ShardedEngine;
use nfp_dataplane::sync_engine::{ProcessOutcome, SyncEngine};
use nfp_io::pcap::PcapFormat;
use nfp_io::{PcapEgress, PcapIngress};
use nfp_packet::io::{Egress, Ingress, IoError, IoRunStats};
use nfp_packet::Packet;
use std::hint::black_box;
use std::time::Instant;

/// Pull size of the harness's own RTC replay loop and of `SyncEngine::run_io`.
pub const IO_BURST: usize = 64;

/// What happened to the packets of one pass. Drops and rejects are
/// outcomes, not failures.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub rejected: u64,
}

/// One timed pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Seconds the executor spent on the pass (the harness's own input
    /// cloning excluded).
    pub secs: f64,
    pub counts: Counts,
    /// Packets the pass failed on: unaccounted packets, leaked pool
    /// slots, NF failures. Must be 0.
    pub faults: u64,
}

impl Pass {
    /// Packets finished per second — delivered, dropped and rejected all
    /// count, as in `EngineReport::pps`.
    pub fn pps(&self) -> f64 {
        self.counts.offered as f64 / self.secs
    }

    /// Nanoseconds per offered packet.
    pub fn ns_per_pkt(&self) -> f64 {
        self.secs * 1e9 / self.counts.offered as f64
    }
}

/// Running total of packets offered and packets failed, over every timed
/// pass and the correctness gate. `failed / attempted` is `fail_share`.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the operator.
    pub notes: Vec<String>,
}

impl Tally {
    /// Record `pass`. When `expected` is given the pass's outcome counts
    /// must equal it (cross-engine equality: same input, same outcome).
    pub fn absorb(&mut self, what: &str, pass: &Pass, expected: Option<&Counts>) {
        self.attempted += pass.counts.offered;
        if pass.faults > 0 {
            self.fail(
                pass.faults,
                format!("{what}: {} accounting faults", pass.faults),
            );
        }
        if let Some(exp) = expected {
            if *exp != pass.counts {
                let off = exp.delivered.abs_diff(pass.counts.delivered)
                    + exp.dropped.abs_diff(pass.counts.dropped)
                    + exp.rejected.abs_diff(pass.counts.rejected);
                self.fail(
                    off.max(1),
                    format!(
                        "{what}: outcome {:?} differs from reference {exp:?}",
                        pass.counts
                    ),
                );
            }
        }
    }

    pub fn fail(&mut self, packets: u64, note: String) {
        self.failed += packets;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }
}

fn balance_faults(c: &Counts) -> u64 {
    c.offered.abs_diff(c.delivered + c.dropped + c.rejected)
}

fn pcap_pair(bytes: &[u8]) -> (PcapIngress<std::io::Cursor<Vec<u8>>>, PcapEgress<Vec<u8>>) {
    (
        PcapIngress::from_bytes(bytes.to_vec()).expect("own pcap parses"),
        PcapEgress::in_memory(PcapFormat::default()),
    )
}

/// The sequential reference on one packet: reject what the classifier
/// would reject (frames that do not parse), run the chain on the rest.
#[inline]
fn rtc_one(rtc: &mut RunToCompletion, mut pkt: Packet, c: &mut Counts) -> Option<Packet> {
    c.offered += 1;
    if pkt.parse().is_err() {
        c.rejected += 1;
        return None;
    }
    match rtc.process(pkt) {
        Some(out) => {
            c.delivered += 1;
            Some(out)
        }
        None => {
            c.dropped += 1;
            None
        }
    }
}

/// `RunToCompletion` over the input — the BESS floor of Table 4. The
/// replay workload runs the same `Ingress`/`Egress` pair the engines do,
/// in a harness loop.
pub fn rtc_pass(rtc: &mut RunToCompletion, input: &Input) -> Pass {
    let mut c = Counts::default();
    let secs = match input {
        Input::Packets(template) => {
            let pkts = template.clone();
            let t = Instant::now();
            for pkt in pkts {
                black_box(rtc_one(rtc, pkt, &mut c));
            }
            t.elapsed().as_secs_f64()
        }
        Input::Pcap(bytes) => {
            let (mut ingress, mut egress) = pcap_pair(bytes);
            let mut out = Vec::with_capacity(IO_BURST);
            let t = Instant::now();
            while let Some(pkts) = ingress.next_burst(IO_BURST).expect("pcap ingress") {
                for pkt in pkts {
                    if let Some(p) = rtc_one(rtc, pkt, &mut c) {
                        out.push(p);
                    }
                }
                egress.emit_burst(&out).expect("pcap egress");
                out.clear();
            }
            egress.flush().expect("pcap egress");
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(egress.records(), c.delivered, "every delivery is a record");
            secs
        }
    };
    Pass {
        secs,
        counts: c,
        faults: balance_faults(&c),
    }
}

pub(crate) fn io_counts(io: &IoRunStats) -> Counts {
    Counts {
        offered: io.pulled,
        delivered: io.delivered,
        dropped: io.dropped,
        rejected: io.rejected,
    }
}

/// `SyncEngine` executing the sealed program on the calling thread.
pub fn sync_pass(engine: &mut SyncEngine, input: &Input) -> Pass {
    let (counts, secs, unwritten) = match input {
        Input::Packets(template) => {
            let pkts = template.clone();
            let mut c = Counts {
                offered: pkts.len() as u64,
                ..Counts::default()
            };
            let t = Instant::now();
            for pkt in pkts {
                match engine.process(pkt) {
                    Ok(ProcessOutcome::Delivered(p)) => {
                        c.delivered += 1;
                        black_box(p);
                    }
                    Ok(ProcessOutcome::Dropped) => c.dropped += 1,
                    Err(_) => c.rejected += 1,
                }
            }
            (c, t.elapsed().as_secs_f64(), 0)
        }
        Input::Pcap(bytes) => {
            let (mut ingress, mut egress) = pcap_pair(bytes);
            let t = Instant::now();
            let io = engine
                .run_io(&mut ingress, &mut egress, IO_BURST)
                .expect("sync replay");
            let secs = t.elapsed().as_secs_f64();
            (
                io_counts(&io),
                secs,
                io.delivered.abs_diff(egress.records()),
            )
        }
    };
    let faults = balance_faults(&counts)
        + unwritten
        + engine.pool_in_use() as u64
        + engine.pending() as u64
        + engine.failures().len() as u64;
    Pass {
        secs,
        counts,
        faults,
    }
}

pub(crate) fn report_faults(report: &EngineReport) -> u64 {
    report.injected.abs_diff(report.delivered + report.dropped)
        + report.pool_in_use as u64
        + report.failures.len() as u64
}

pub(crate) fn report_counts(report: &EngineReport) -> Counts {
    let rejected = report.stats.classifier.rejects();
    Counts {
        offered: report.injected,
        delivered: report.delivered,
        dropped: report.dropped.saturating_sub(rejected),
        rejected,
    }
}

/// The two threaded executors share the `run`/`run_io` shape but no
/// trait; this is the harness's view of it.
pub trait Threaded {
    fn run_batch(&mut self, pkts: Vec<Packet>) -> EngineReport;
    fn run_stream(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
    ) -> Result<(EngineReport, IoRunStats), IoError>;
}

impl Threaded for Engine {
    fn run_batch(&mut self, pkts: Vec<Packet>) -> EngineReport {
        self.run(pkts)
    }
    fn run_stream(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
    ) -> Result<(EngineReport, IoRunStats), IoError> {
        self.run_io(ingress, egress)
    }
}

impl Threaded for ShardedEngine {
    fn run_batch(&mut self, pkts: Vec<Packet>) -> EngineReport {
        self.run(pkts)
    }
    fn run_stream(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
    ) -> Result<(EngineReport, IoRunStats), IoError> {
        self.run_io(ingress, egress)
    }
}

/// The threaded `Engine`, or a `ShardedEngine` fleet (closed loop: the
/// caller's thread injects with the configured in-flight window, so pps
/// is the zero-loss rate).
pub fn threaded_pass(engine: &mut impl Threaded, input: &Input) -> (Pass, EngineReport) {
    match input {
        Input::Packets(template) => {
            let report = engine.run_batch(template.clone());
            let pass = Pass {
                secs: report.elapsed.as_secs_f64(),
                counts: report_counts(&report),
                faults: report_faults(&report),
            };
            (pass, report)
        }
        Input::Pcap(bytes) => {
            let (mut ingress, mut egress) = pcap_pair(bytes);
            let t = Instant::now();
            let (report, io) = engine
                .run_stream(&mut ingress, &mut egress)
                .expect("threaded replay");
            let secs = t.elapsed().as_secs_f64();
            let counts = io_counts(&io);
            let faults = report_faults(&report)
                + balance_faults(&counts)
                + io.delivered.abs_diff(egress.records());
            (
                Pass {
                    secs,
                    counts,
                    faults,
                },
                report,
            )
        }
    }
}
