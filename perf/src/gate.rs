//! The correctness gate: parallel output ≡ sequential composition,
//! checked — not trusted — inside the runner, untimed.
//!
//! The first packets of the workload go through `SyncEngine`, `Engine`
//! and a 2-shard `ShardedEngine` with delivered packets kept; each
//! delivered multiset must be byte-identical to `RunToCompletion` over
//! the same NFs. (The fleet's reference is the sequential chain run per
//! RSS partition with fresh NF instances, which is what a fleet of
//! replicas is: per-instance state such as VPN sequence numbers is
//! shard-local by design.) Expected drops and rejects are outcomes;
//! divergence, leaks and unaccounted packets are failures.

use crate::drive::{io_counts, report_counts, report_faults, Counts, Tally, IO_BURST};
use crate::host::HostFacts;
use crate::spans::Recorder;
use crate::workloads::{make_nfs, Input};
use nfp_baseline::RunToCompletion;
use nfp_dataplane::engine::{Engine, EngineConfig, EngineReport};
use nfp_dataplane::shard::{partition_by_flow, ShardedEngine};
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_io::PcapIngress;
use nfp_orchestrator::Program;
use nfp_packet::io::{CollectEgress, IoRunStats};
use nfp_packet::Packet;

type Multiset = Vec<Vec<u8>>;

fn multiset(pkts: &[Packet]) -> Multiset {
    let mut v: Multiset = pkts.iter().map(|p| p.data().to_vec()).collect();
    v.sort();
    v
}

/// Elements of either sorted multiset with no partner in the other.
fn divergent(a: &Multiset, b: &Multiset) -> u64 {
    let (mut i, mut j, mut off) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                off += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                off += 1;
            }
        }
    }
    off + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// Sequential reference: fresh NFs, classifier-equivalent parse check.
fn reference(names: &[String], pkts: Vec<Packet>) -> (Multiset, Counts) {
    let mut rtc = RunToCompletion::new(make_nfs(names));
    let mut c = Counts {
        offered: pkts.len() as u64,
        ..Counts::default()
    };
    let mut out = Vec::new();
    for mut pkt in pkts {
        if pkt.parse().is_err() {
            c.rejected += 1;
            continue;
        }
        match rtc.process(pkt) {
            Some(p) => out.push(p),
            None => c.dropped += 1,
        }
    }
    c.delivered = out.len() as u64;
    (multiset(&out), c)
}

fn judge(tally: &mut Tally, what: &str, got: (Multiset, Counts, u64), want: &(Multiset, Counts)) {
    let (set, counts, leaks) = got;
    tally.attempted += counts.offered;
    let off = divergent(&set, &want.0);
    if off > 0 {
        tally.fail(
            off,
            format!("gate {what}: {off} delivered packets diverge from RunToCompletion"),
        );
    }
    if counts != want.1 {
        tally.fail(
            1,
            format!("gate {what}: outcome {counts:?}, reference {:?}", want.1),
        );
    }
    if leaks > 0 {
        tally.fail(
            leaks,
            format!("gate {what}: {leaks} leaked slots / NF failures"),
        );
    }
}

/// Run the gate over `input` (the workload's first packets). `inject_fault`
/// corrupts the reference on purpose (`--inject-fault`).
pub fn run(
    program: &Program,
    names: &[String],
    input: &Input,
    host: &HostFacts,
    inject_fault: bool,
    tally: &mut Tally,
    rec: &mut Recorder,
) {
    let pkts = input.packets();
    let span = rec.enter("gate");

    let mut want = rec.span("gate.rtc", || reference(names, pkts.clone()));
    if inject_fault {
        // Demonstrates that the gate bites: one flipped reference byte
        // must surface as failed packets and a non-zero exit.
        if let Some(byte) = want.0.first_mut().and_then(|frame| frame.last_mut()) {
            *byte ^= 0xff;
            want.0.sort();
        }
    }

    let got = rec.span("gate.sync", || {
        let mut engine = SyncEngine::new(program.clone(), make_nfs(names), 512);
        let (set, counts) = match input {
            Input::Packets(_) => {
                let mut c = Counts {
                    offered: pkts.len() as u64,
                    ..Counts::default()
                };
                let mut out = Vec::new();
                for pkt in pkts.clone() {
                    match engine.process(pkt) {
                        Ok(o) => match o.delivered() {
                            Some(p) => out.push(p),
                            None => c.dropped += 1,
                        },
                        Err(_) => c.rejected += 1,
                    }
                }
                c.delivered = out.len() as u64;
                (multiset(&out), c)
            }
            Input::Pcap(bytes) => {
                let mut ingress = PcapIngress::from_bytes(bytes.clone()).expect("own pcap");
                let mut egress = CollectEgress::new();
                let io = engine
                    .run_io(&mut ingress, &mut egress, IO_BURST)
                    .expect("sync replay");
                (multiset(&egress.pkts), io_counts(&io))
            }
        };
        let leaks = (engine.pool_in_use() + engine.pending() + engine.failures().len()) as u64;
        (set, counts, leaks)
    });
    judge(tally, "sync", got, &want);

    let keep = EngineConfig {
        keep_packets: true,
        ..host.engine_config(64)
    };
    let threaded = |report: EngineReport, io: Option<(IoRunStats, CollectEgress)>| {
        let leaks = report_faults(&report);
        match io {
            None => (multiset(&report.packets), report_counts(&report), leaks),
            Some((io, egress)) => (multiset(&egress.pkts), io_counts(&io), leaks),
        }
    };

    let got = rec.span("gate.threaded", || {
        let mut engine =
            Engine::new(program.clone(), make_nfs(names), keep.clone()).expect("gate engine");
        match input {
            Input::Packets(_) => threaded(engine.run(pkts.clone()), None),
            Input::Pcap(bytes) => {
                let mut ingress = PcapIngress::from_bytes(bytes.clone()).expect("own pcap");
                let mut egress = CollectEgress::new();
                let (report, io) = engine.run_io(&mut ingress, &mut egress).expect("replay");
                threaded(report, Some((io, egress)))
            }
        }
    });
    judge(tally, "threaded", got, &want);

    // The fleet's reference: the sequential chain per RSS partition.
    let want_fleet = rec.span("gate.rtc_per_shard", || {
        let mut set = Vec::new();
        let mut counts = Counts::default();
        for part in partition_by_flow(pkts.clone(), 2) {
            let (s, c) = reference(names, part);
            set.extend(s);
            counts.offered += c.offered;
            counts.delivered += c.delivered;
            counts.dropped += c.dropped;
            counts.rejected += c.rejected;
        }
        set.sort();
        (set, counts)
    });
    let got = rec.span("gate.sharded_x2", || {
        let factory_names = names.to_vec();
        let mut fleet = ShardedEngine::new(
            program,
            move || make_nfs(&factory_names),
            &EngineConfig {
                pool_size: 1024,
                core_budget: 2,
                pin_cpus: Vec::new(),
                ..keep.clone()
            },
            2,
        )
        .expect("gate fleet");
        match input {
            Input::Packets(_) => threaded(fleet.run(pkts.clone()), None),
            Input::Pcap(bytes) => {
                let mut ingress = PcapIngress::from_bytes(bytes.clone()).expect("own pcap");
                let mut egress = CollectEgress::new();
                let (report, io) = fleet.run_io(&mut ingress, &mut egress).expect("replay");
                threaded(report, Some((io, egress)))
            }
        }
    });
    judge(tally, "sharded_x2", got, &want_fleet);

    rec.exit(span);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergent_counts_unmatched_elements() {
        let a: Multiset = vec![vec![1], vec![2], vec![2], vec![5]];
        let b: Multiset = vec![vec![2], vec![3], vec![5]];
        assert_eq!(divergent(&a, &b), 3); // [1], one [2], [3]
        assert_eq!(divergent(&a, &a), 0);
    }
}
