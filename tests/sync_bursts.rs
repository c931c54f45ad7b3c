//! Burst admission in the sync engine is invisible in everything it
//! produces.
//!
//! `SyncEngine::process` admits one packet and runs the graph dry;
//! `process_batch` and `run_io` admit windows of up to `w` packets (the
//! batch or the ingress burst, capped at the pool's capacity over the
//! program's `slots_per_packet`), so several PIDs are in flight at once
//! and the merger's accumulating table holds several entries. Chain
//! output and state must not depend on that interleaving (Khalid &
//! Akella, arXiv:1612.01497): for every graph and trace below, every
//! windowed entry point must equal a `process()` loop on
//!
//! * the delivered bytes, **in order**;
//! * `delivered` / `dropped`;
//! * the `stats()` drop taxonomy;
//! * each NF's `processed` / `dropped`;
//! * each NF's `snapshot_state`.
//!
//! Each comparison runs three times: with a roomy pool, with a pool of
//! three packets' worst-case footprint (windows of three, drained many
//! times inside one ingress burst), and with the fail-closed Firewall of
//! a parallel segment panicking part-way through the trace.

use nfp_core::nf::catalogue;
use nfp_core::prelude::*;
use nfp_dataplane::runtime::FailureKind;
use nfp_dataplane::stats::StageSnapshot;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_io::backends::packet_from_record;
use nfp_io::pcap::read_pcap_bytes;
use nfp_io::{CollectEgress, VecIngress};
use nfp_nf::chaos::PanicAfter;
use nfp_nf::state::FlowSnapshot;
use nfp_traffic::hostile::{HostileGenerator, HostileSpec};
use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// The graphs: Fig 13's east-west and north-south policies, a parallel
/// pair whose Firewall drops as a nil, and a stateful rewriting chain.
const GRAPHS: [&[&str]; 4] = [
    &["IDS", "Monitor", "LB"],
    &["VPN", "Monitor", "Firewall", "LB"],
    &["Monitor", "Firewall"],
    &["NAT", "LB"],
];

/// Every frame of a committed pcap that decodes into a packet.
fn golden(bytes: &[u8]) -> Vec<Packet> {
    read_pcap_bytes(bytes)
        .expect("committed corpus parses")
        .iter()
        .filter_map(|rec| packet_from_record(rec).ok())
        .collect()
}

/// A SYN flood and an elephant/mice mix, each with corrupted frames.
fn hostile() -> Vec<Packet> {
    [HostileSpec::syn_flood(3), HostileSpec::elephant_mice(5)]
        .into_iter()
        .flat_map(|spec| {
            HostileGenerator::new(HostileSpec {
                malformed_rate: 0.1,
                ..spec
            })
            .batch(200)
        })
        .collect()
}

const MIXED: &[u8] = include_bytes!("data/golden_mixed.pcap");
const CLEAN: &[u8] = include_bytes!("data/golden_clean.pcap");

fn traces() -> [(&'static str, Vec<Packet>); 3] {
    [
        ("golden_mixed", golden(MIXED)),
        ("golden_clean", golden(CLEAN)),
        ("hostile", hostile()),
    ]
}

/// How the engine is built around a graph.
#[derive(Debug, Clone, Copy)]
enum Setup {
    /// A 64-slot pool.
    Roomy,
    /// A pool of three packets' worst-case footprint.
    SmallPool,
    /// A roomy pool, and every Firewall (fail-closed, in a parallel
    /// segment) panics after this many packets.
    Panicking(u64),
}

/// A fresh engine over `chain`, compiled with the evaluation registry.
fn engine(chain: &[&str], setup: Setup) -> SyncEngine {
    let compiled = compile(
        &Policy::from_chain(chain.iter().copied()),
        &Registry::evaluated(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let program = compiled.program(1).unwrap();
    let pool = match setup {
        Setup::SmallPool => 3 * program.slots_per_packet(),
        Setup::Roomy | Setup::Panicking(_) => 64,
    };
    let nfs = compiled.graph.nodes.iter().map(|node| {
        let nf = catalogue::make(node.name.as_str()).unwrap();
        match setup {
            Setup::Panicking(after) if node.name.as_str() == "Firewall" => {
                Box::new(PanicAfter::new(nf, after)) as Box<dyn NetworkFunction>
            }
            _ => nf,
        }
    });
    SyncEngine::new(program, nfs.collect(), pool)
}

/// An entry point of the engine.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Process,
    Batch,
    RunIo(usize),
}

/// The drop-cause taxonomy of a stage snapshot.
fn taxonomy(s: &StageSnapshot) -> [u64; 8] {
    [
        s.drop_admit_rejected,
        s.drop_admit_malformed,
        s.drop_nf_verdict,
        s.drop_nf_error,
        s.drop_nf_failed,
        s.drop_merge_resolved,
        s.drop_merge_error,
        s.drop_merge_expired,
    ]
}

/// Everything that must not depend on the admission window.
#[derive(Debug, PartialEq)]
struct Observed {
    delivered: Vec<Vec<u8>>,
    counts: (u64, u64),
    taxonomy: [u64; 8],
    per_nf: Vec<(u64, u64)>,
    state: Vec<FlowSnapshot>,
    failures: Vec<(usize, FailureKind)>,
}

/// Run `pkts` through a fresh engine's `entry` and observe the result.
fn observe(chain: &[&str], setup: Setup, entry: Entry, pkts: &[Packet]) -> Observed {
    let mut e = engine(chain, setup);
    let pkts = pkts.to_vec();
    let out = match entry {
        Entry::Process => pkts
            .into_iter()
            .filter_map(|p| e.process(p).ok().and_then(|o| o.delivered()))
            .collect(),
        Entry::Batch => e.process_batch(pkts),
        Entry::RunIo(burst) => {
            let n = pkts.len() as u64;
            let mut egress = CollectEgress::new();
            let io = e
                .run_io(&mut VecIngress::new(pkts), &mut egress, burst)
                .unwrap();
            assert_eq!(io.pulled, n);
            assert_eq!(io.pulled, io.delivered + io.dropped + io.rejected);
            assert_eq!(io.delivered, egress.pkts.len() as u64);
            let s = e.stats();
            assert_eq!(io.rejected, s.drop_admit_rejected + s.drop_admit_malformed);
            egress.pkts
        }
    };
    assert_eq!(e.pool_in_use(), 0, "{chain:?} {setup:?} {entry:?}: leak");
    assert_eq!(e.pending(), 0, "{chain:?} {setup:?} {entry:?}: pending");
    let nfs = (0..chain.len()).map(|i| e.runtime(i));
    Observed {
        delivered: out.iter().map(|p| p.data().to_vec()).collect(),
        counts: (e.delivered, e.dropped),
        taxonomy: taxonomy(&e.stats()),
        per_nf: nfs.clone().map(|rt| (rt.processed, rt.dropped)).collect(),
        state: nfs
            .map(|rt| {
                let mut s = rt.nf().snapshot_state();
                s.entries.sort();
                s
            })
            .collect(),
        failures: e.failures(),
    }
}

/// [`observe`] on a thread of its own, failing instead of hanging when the
/// run never ends: a nil that waits for a slot on a pool the window filled
/// spins forever on one thread (which is then left behind, unjoined).
fn observe_bounded(
    chain: &'static [&'static str],
    setup: Setup,
    entry: Entry,
    pkts: &[Packet],
) -> Observed {
    let (tx, rx) = mpsc::channel();
    let pkts = pkts.to_vec();
    // The receiver is gone only once the run has already timed out.
    let run = thread::spawn(move || tx.send(observe(chain, setup, entry, &pkts)).ok());
    let observed = rx.recv_timeout(Duration::from_secs(60));
    if let Err(RecvTimeoutError::Timeout) = observed {
        panic!("{chain:?} {setup:?} {entry:?}: still running after 60 s");
    }
    if let Err(panic) = run.join() {
        panic::resume_unwind(panic);
    }
    observed.expect("the run sent its result before it ended")
}

/// Every windowed entry point equals the `process()` loop on `setup`.
fn windows_match_one_at_a_time(setup: Setup) {
    for (trace, pkts) in traces() {
        for chain in GRAPHS {
            if matches!(setup, Setup::Panicking(_)) && !chain.contains(&"Firewall") {
                continue;
            }
            let reference = observe_bounded(chain, setup, Entry::Process, &pkts);
            assert!(
                !reference.delivered.is_empty(),
                "{trace} {chain:?} {setup:?}: nothing delivered"
            );
            assert_eq!(
                reference.failures.is_empty(),
                !matches!(setup, Setup::Panicking(_)),
                "{trace} {chain:?} {setup:?}: the injected panic fires"
            );
            for entry in [
                Entry::Batch,
                Entry::RunIo(1),
                Entry::RunIo(7),
                Entry::RunIo(64),
            ] {
                let windowed = observe_bounded(chain, setup, entry, &pkts);
                assert!(
                    windowed == reference,
                    "{trace} {chain:?} {setup:?}: {entry:?} differs from a process() loop\n\
                     counts {:?} vs {:?}, taxonomy {:?} vs {:?}, per-NF {:?} vs {:?}, \
                     {} vs {} delivered",
                    windowed.counts,
                    reference.counts,
                    windowed.taxonomy,
                    reference.taxonomy,
                    windowed.per_nf,
                    reference.per_nf,
                    windowed.delivered.len(),
                    reference.delivered.len(),
                );
            }
        }
    }
}

#[test]
fn windows_match_one_at_a_time_with_a_roomy_pool() {
    windows_match_one_at_a_time(Setup::Roomy);
}

/// Windows of three packets' footprint drain many times inside one
/// ingress burst. A window that ignored `slots_per_packet` would fill the
/// pool with originals here and turn the north-south VPN's copy into an
/// `NfError` drop.
#[test]
fn windows_match_one_at_a_time_with_a_small_pool() {
    windows_match_one_at_a_time(Setup::SmallPool);
}

/// A fail-closed member of a parallel segment panics mid-trace (and so
/// mid-window): the packets behind it take its failure policy in the
/// same order either way.
#[test]
fn windows_match_one_at_a_time_when_a_parallel_member_panics() {
    windows_match_one_at_a_time(Setup::Panicking(37));
}
