//! Golden-trace differential suite: the committed pcap corpus replayed
//! through every engine must agree.
//!
//! Three layers of lock-down:
//!
//! 1. **Corpus provenance** — the committed `tests/data/*.pcap` files
//!    byte-equal the seeded builder's output
//!    ([`nfp_io::trace::build_golden_pcap`]), so the corpus can never
//!    drift silently; regenerate with
//!    `cargo run -p nfp-io --bin golden_trace -- tests/data` and this
//!    test fails first on any deliberate change.
//! 2. **Cross-engine differential** — the same capture through `run_io`
//!    on the `SyncEngine` (deterministic reference), the threaded `Engine`
//!    and the RSS `ShardedEngine` must agree at the kit's per-flow order
//!    level: the same delivered records, each flow's in the same order,
//!    the same drop taxonomy, copies and merges, and the same per-flow
//!    state in every NF (the fleet's replicas merged). The chains are
//!    order-insensitive: each NF's verdict depends on the packet alone
//!    (Monitor counts, Firewall's stateless ACL, inline IDS signatures,
//!    Gateway session tallies). NAT, LoadBalancer and VPN are left to the
//!    per-shard equivalence suite: their outputs are order- or
//!    instance-sensitive.
//! 3. **Mid-replay reconfigure** — the agreement must survive a live
//!    `reconfigure()` landing between two replay windows, cycling the
//!    soak harness's fail-closed/fail-open program variants.

use nfp_dataplane::EngineConfig;
use nfp_io::pcap::{read_pcap_bytes, write_pcap_bytes};
use nfp_io::trace::{build_golden_pcap, GoldenTraceSpec};
use nfp_io::{PcapFormat, PcapReader, PcapRecord};
use nfp_orchestrator::Registry;
use nfp_packet::testutil::{indexed_payload, ip, tcp_frame_bytes};
use nfp_testkit::corpus::{GOLDEN_CLEAN as CLEAN, GOLDEN_MIXED as MIXED};
use nfp_testkit::{
    fail_open, run, Chain, Delivery, Entry, Executor, Level, Nfs, Outcome, Runner, Trace,
};

const CHAINS: [&[&str]; 3] = [
    &["Monitor", "Firewall"],
    &["Firewall", "IDS"],
    &["Monitor", "Firewall", "IDS", "Gateway"],
];

/// The reference: the sync engine's `run_io` in bursts of 16.
fn sync() -> Executor {
    Executor::sync(Entry::RunIo(16))
}

/// The threaded engine and fleets of two and three replicas.
fn parallel() -> [(&'static str, Executor); 3] {
    let config = EngineConfig {
        pool_size: 256,
        max_in_flight: 16,
        io_burst: 16,
        ..EngineConfig::default()
    };
    let fleet = |shards: usize| Executor::Sharded {
        shards,
        config: EngineConfig {
            pool_size: 256 * shards,
            core_budget: 2 * shards,
            ..config.clone()
        },
    };
    [
        ("threaded", Executor::Engine(config.clone())),
        ("sharded x2", fleet(2)),
        ("sharded x3", fleet(3)),
    ]
}

#[test]
fn committed_corpus_matches_seeded_builder() {
    assert_eq!(
        MIXED,
        &build_golden_pcap(&GoldenTraceSpec::mixed(42))[..],
        "tests/data/golden_mixed.pcap drifted from GoldenTraceSpec::mixed(42); \
         regenerate with `cargo run -p nfp-io --bin golden_trace -- tests/data` \
         if the change is deliberate"
    );
    assert_eq!(
        CLEAN,
        &build_golden_pcap(&GoldenTraceSpec::clean(7))[..],
        "tests/data/golden_clean.pcap drifted from GoldenTraceSpec::clean(7)"
    );
}

#[test]
fn corpus_is_replayable_and_mixed_contains_rejects() {
    let recs = PcapReader::new(std::io::Cursor::new(MIXED.to_vec()))
        .unwrap()
        .collect_records()
        .unwrap();
    assert_eq!(recs.len(), 256);
    assert!(recs.iter().any(|r| r.truncated()));
    let clean = PcapReader::new(std::io::Cursor::new(CLEAN.to_vec()))
        .unwrap()
        .collect_records()
        .unwrap();
    assert_eq!(clean.len(), 128);
    assert!(clean.iter().all(|r| !r.truncated()));
}

/// Admission rejects in an outcome's taxonomy.
fn rejects(o: &Outcome) -> u64 {
    let tax = o.taxonomy.unwrap();
    tax[0] + tax[1]
}

#[test]
fn engines_agree_on_golden_traces() {
    for trace in [MIXED, CLEAN] {
        for chain in CHAINS {
            let chain = Chain::new(chain);
            let reference = run(&sync(), &chain, &Nfs::catalogue(), Trace::Pcap(trace));
            for (label, exec) in parallel() {
                run(&exec, &chain, &Nfs::catalogue(), Trace::Pcap(trace)).assert_matches(
                    &reference,
                    Level::PerFlow,
                    format!("{label}, chain {:?}", chain.order),
                );
            }
            // The mixed trace must actually exercise every interesting
            // path, or the agreement above is vacuous.
            if std::ptr::eq(trace, MIXED) {
                let at = format!("chain {:?}", chain.order);
                assert!(rejects(&reference) > 0, "no admission rejects, {at}");
                assert!(!reference.delivered.is_empty(), "nothing delivered, {at}");
                if chain.order.iter().any(|n| n == "Firewall") {
                    let drops: u64 = reference.taxonomy.unwrap().iter().sum();
                    assert!(drops > rejects(&reference), "no policy drops, {at}");
                }
            }
        }
    }
}

/// Split the mixed trace in two replay windows with a live
/// `reconfigure()` between them (soak-style fail-closed → fail-open
/// Firewall table edit). Every engine family applies the same swap at
/// the same trace position, so their outcomes must still agree.
#[test]
fn engines_agree_across_mid_replay_reconfigure() {
    let order: &[&str] = &["Monitor", "Firewall", "IDS"];
    let chain = Chain::new(order);
    let edit = Chain::with_registry(order, &fail_open(Registry::evaluated(), "Firewall"));
    let recs = read_pcap_bytes(MIXED).unwrap();
    let (first, second) = recs.split_at(recs.len() / 2);
    let halves = [first, second].map(|recs| write_pcap_bytes(recs, PcapFormat::default()));
    let replay = |exec: &Executor| {
        let mut runner = Runner::new(exec, &chain, &Nfs::catalogue());
        runner.feed(Trace::Pcap(&halves[0]));
        runner.reconfigure(&edit.program);
        runner.feed(Trace::Pcap(&halves[1]));
        runner.outcome()
    };
    let reference = replay(&sync());
    assert!(!reference.delivered.is_empty());
    for (label, exec) in parallel().into_iter().take(2) {
        let at = format!("{label} across reconfigure");
        replay(&exec).assert_matches(&reference, Level::PerFlow, at);
    }
}

/// A capture whose frames alternate long (~1.5 kB) and short (60–64 B),
/// with every ninth aimed at the firewall's deny space and every
/// thirteenth damaged past parsing: under recycling, short frames keep
/// landing in buffers that last held a long one, beside fresh buffers
/// standing in for the drops and rejects that never came back.
fn alternating_capture() -> Vec<u8> {
    let recs: Vec<PcapRecord> = (0..512u16)
        .map(|i| {
            let len = if i % 2 == 0 { 1460 - i % 7 } else { 6 + i % 5 };
            let (dip, dport) = if i % 9 == 4 {
                (ip(172, 16, 3, 1), 7003)
            } else {
                (ip(10, 2, 0, (i % 16) as u8), 80)
            };
            let sip = ip(10, 1, 0, (i % 16) as u8);
            let mut frame = tcp_frame_bytes(
                sip,
                dip,
                20_000 + i % 16,
                dport,
                &indexed_payload(usize::from(len), u64::from(i)),
            );
            if i % 13 == 6 {
                frame[12] = 0x86; // an IPv6 ethertype: rejected at admission
            }
            PcapRecord::full(1_000_000 + u64::from(i) * 2_000, frame)
        })
        .collect();
    write_pcap_bytes(&recs, PcapFormat::default())
}

/// Only the deliveries of `d`, to compare one warm replay's output.
fn deliveries(d: &[Delivery]) -> Outcome {
    Outcome {
        delivered: d.to_vec(),
        ..Outcome::default()
    }
}

/// Replay `capture` twice, warm, through a sync engine, a threaded engine
/// and a two-shard fleet on `run_io`, and hold every output to what a
/// `process()` loop over fresh packets delivers: in byte order from the
/// sync engine, and in per-flow order (each record keeps its capture
/// timestamp) from the threaded engine and the fleet. After the first,
/// cold replay every outcome matches the loop's whole outcome.
/// `check_reference` sees that loop's outcome first.
fn assert_warm_replays_match_process_loop(capture: &[u8], check_reference: impl FnOnce(&Outcome)) {
    let chain = Chain::new(CHAINS[0]);
    let nfs = Nfs::catalogue();
    let reference = run(
        &Executor::sync(Entry::Process),
        &chain,
        &nfs,
        Trace::Pcap(capture),
    );
    check_reference(&reference);
    let [(_, threaded), (_, sharded), _] = parallel();
    for (label, exec, level) in [
        ("sync", sync(), Level::ByteOrder),
        ("threaded", threaded, Level::PerFlow),
        ("sharded x2", sharded, Level::PerFlow),
    ] {
        let mut runner = Runner::new(&exec, &chain, &nfs);
        runner.feed(Trace::Pcap(capture));
        runner
            .outcome()
            .assert_matches(&reference, level, format!("{label}, cold"));
        let warm = deliveries(runner.feed(Trace::Pcap(capture)));
        let at = format!("{label}, warm replay");
        warm.assert_matches(&deliveries(&reference.delivered), level, at);
    }
}

/// `run_io` hands every emitted burst back to the pcap ingress, which
/// refills those packets in place: short frames keep landing in buffers a
/// long one left.
#[test]
fn recycled_buffers_replay_byte_identically() {
    assert_warm_replays_match_process_loop(&alternating_capture(), |reference| {
        assert!(
            rejects(reference) > 0,
            "the capture exercises admission rejects"
        );
        let drops: u64 = reference.taxonomy.unwrap().iter().sum();
        assert!(
            drops > rejects(reference),
            "the capture exercises policy drops"
        );
    });
}

/// A capture in which drops and rejects dominate: of every eight records,
/// four are long (~1.4 kB) frames aimed at the firewall's deny space, one
/// is long with an IPv6 ethertype, one is cut by the snaplen inside its
/// TCP header, and two are short accepted frames. Under recycling, the
/// buffers of the long drops and rejects come back to the ingress, and
/// the short frames keep landing in them.
fn drop_heavy_capture() -> Vec<u8> {
    let recs: Vec<PcapRecord> = (0..512u16)
        .map(|i| {
            let (kind, flow) = (i % 8, (i % 16) as u8);
            let (dip, dport) = match kind {
                1 | 2 | 5 | 7 => (ip(172, 16, 3, flow), 7003),
                _ => (ip(10, 2, 0, flow), 80),
            };
            let len = if kind % 4 == 0 {
                4 + i % 9
            } else {
                1400 - i % 11
            };
            let mut frame = tcp_frame_bytes(
                ip(10, 1, 0, flow),
                dip,
                20_000 + u16::from(flow),
                dport,
                &indexed_payload(usize::from(len), u64::from(i)),
            );
            let ts_ns = 1_000_000 + u64::from(i) * 2_000;
            match kind {
                3 => frame[12] = 0x86, // an IPv6 ethertype: unparseable
                6 => {
                    let orig_len = frame.len() as u32;
                    frame.truncate(40); // snaplen cut: truncated at admission
                    return PcapRecord {
                        ts_ns,
                        orig_len,
                        data: frame,
                    };
                }
                _ => {}
            }
            PcapRecord::full(ts_ns, frame)
        })
        .collect();
    write_pcap_bytes(&recs, PcapFormat::default())
}

/// The buffers of drops and rejects go back to the pcap ingress too (the
/// classifier hands them over as it admits), so here most refills land in
/// a buffer a long dropped or rejected frame left.
#[test]
fn drop_and_reject_buffers_replay_byte_identically() {
    assert_warm_replays_match_process_loop(&drop_heavy_capture(), |reference| {
        let tax = reference.taxonomy.unwrap();
        let (malformed, policy) = (tax[1], tax[2] + tax[5]);
        assert_eq!(malformed, 128, "both reject kinds: {tax:?}");
        assert_eq!(policy, 256, "every denied frame dropped: {tax:?}");
        assert_eq!(
            reference.delivered.len(),
            128,
            "drops and rejects are 3 in 4"
        );
    });
}
