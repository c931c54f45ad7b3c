//! Golden-trace differential suite: the committed pcap corpus replayed
//! through every engine must agree byte-for-byte.
//!
//! Three layers of lock-down:
//!
//! 1. **Corpus provenance** — the committed `tests/data/*.pcap` files
//!    byte-equal the seeded builder's output
//!    ([`nfp_io::trace::build_golden_pcap`]), so the corpus can never
//!    drift silently; regenerate with
//!    `cargo run -p nfp-io --bin golden_trace -- tests/data` and this
//!    test fails first on any deliberate change.
//! 2. **Cross-engine differential** — the same trace through
//!    [`SyncEngine`] (deterministic reference), the threaded [`Engine`]
//!    and the RSS [`ShardedEngine`] must produce identical delivered
//!    *byte multisets* and identical drop taxonomies (per
//!    [`StageSnapshot`] drop cause), for order-insensitive chains.
//!    Cross-flow output order is the one freedom parallel execution
//!    takes, so deliveries are compared as sorted multisets.
//! 3. **Mid-replay reconfigure** — the agreement must survive a live
//!    `reconfigure()` landing between two replay windows, cycling the
//!    soak harness's fail-closed/fail-open program variants.

use nfp_core::nf::catalogue;
use nfp_core::prelude::*;
use nfp_dataplane::stats::StageSnapshot;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_io::backends::packet_from_record;
use nfp_io::pcap::{read_pcap_bytes, write_pcap_bytes};
use nfp_io::trace::{build_golden_pcap, GoldenTraceSpec};
use nfp_io::{
    CollectEgress, Egress, PcapEgress, PcapFormat, PcapIngress, PcapReader, PcapRecord, VecIngress,
};
use nfp_packet::testutil::{indexed_payload, ip, tcp_frame_bytes};

const MIXED: &[u8] = include_bytes!("data/golden_mixed.pcap");
const CLEAN: &[u8] = include_bytes!("data/golden_clean.pcap");

/// Order-insensitive, byte-preserving chains only: each NF's verdict
/// depends on the packet alone (Monitor counts, Firewall's stateless
/// ACL, inline IDS signatures, Gateway session tallies), so delivered
/// byte-sets cannot depend on cross-flow interleaving — exactly what
/// differs between the sync reference, the threaded engine and the
/// sharded fleet. NAT/LoadBalancer/VPN are deliberately excluded: their
/// outputs are order- or instance-sensitive and are covered by the
/// per-shard equivalence suite instead.
const CHAINS: [&[&str]; 3] = [
    &["Monitor", "Firewall"],
    &["Firewall", "IDS"],
    &["Monitor", "Firewall", "IDS", "Gateway"],
];

fn compile_chain(chain: &[&str], fail_open_firewall: bool) -> (Program, Vec<String>) {
    let mut reg = Registry::evaluated();
    if fail_open_firewall {
        let mut fw = reg.get("Firewall").unwrap().clone();
        fw.failure = Some(FailurePolicy::FailOpen);
        reg.register(fw);
    }
    let compiled = compile(
        &Policy::from_chain(chain.iter().copied()),
        &reg,
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let names = compiled
        .graph
        .nodes
        .iter()
        .map(|n| n.name.as_str().to_string())
        .collect();
    (compiled.program(1).unwrap(), names)
}

fn nfs_for(names: &[String]) -> Vec<Box<dyn NetworkFunction>> {
    names
        .iter()
        .map(|n| catalogue::make(n.as_str()).unwrap())
        .collect()
}

fn config() -> EngineConfig {
    EngineConfig {
        pool_size: 256,
        max_in_flight: 16,
        io_burst: 16,
        ..EngineConfig::default()
    }
}

/// The drop-cause taxonomy of a stage snapshot, as a comparable tuple.
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

/// Fold a threaded-engine report's per-stage snapshots into one, the
/// same shape the sync engine's single shared counter set has.
fn folded_taxonomy(report: &EngineReport) -> [u64; 8] {
    let mut all = report.stats.classifier;
    for nf in &report.stats.nfs {
        all.absorb(nf);
    }
    all.absorb(&report.stats.agent);
    for m in &report.stats.mergers {
        all.absorb(m);
    }
    all.absorb(&report.stats.collector);
    taxonomy(&all)
}

/// Delivered packets as a sorted byte multiset (cross-flow order is the
/// engines' one legitimate freedom).
fn multiset(pkts: &[Packet]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = pkts.iter().map(|p| p.data().to_vec()).collect();
    v.sort();
    v
}

/// One engine family's replay result, reduced to what must agree.
struct Outcome {
    delivered: Vec<Vec<u8>>,
    taxonomy: [u64; 8],
    pulled: u64,
    rejected: u64,
}

fn replay_sync(chain: &[&str], trace: &[u8]) -> Outcome {
    let (program, names) = compile_chain(chain, false);
    let mut engine = SyncEngine::new(program, nfs_for(&names), 64);
    let mut ingress = PcapIngress::from_bytes(trace.to_vec()).unwrap();
    let mut egress = CollectEgress::new();
    let io = engine.run_io(&mut ingress, &mut egress, 16).unwrap();
    assert_eq!(
        io.pulled,
        io.delivered + io.dropped + io.rejected,
        "sync accounting"
    );
    Outcome {
        delivered: multiset(&egress.pkts),
        taxonomy: taxonomy(&engine.stats()),
        pulled: io.pulled,
        rejected: io.rejected,
    }
}

fn replay_threaded(chain: &[&str], trace: &[u8]) -> Outcome {
    let (program, names) = compile_chain(chain, false);
    let mut engine = Engine::new(program, nfs_for(&names), config()).unwrap();
    let mut ingress = PcapIngress::from_bytes(trace.to_vec()).unwrap();
    let mut egress = CollectEgress::new();
    let (report, io) = engine.run_io(&mut ingress, &mut egress).unwrap();
    assert_eq!(
        io.pulled,
        io.delivered + io.dropped + io.rejected,
        "threaded accounting"
    );
    Outcome {
        delivered: multiset(&egress.pkts),
        taxonomy: folded_taxonomy(&report),
        pulled: io.pulled,
        rejected: io.rejected,
    }
}

fn replay_sharded(chain: &[&str], trace: &[u8], shards: usize) -> Outcome {
    let (program, names) = compile_chain(chain, false);
    let mut engine = ShardedEngine::new(
        &program,
        move || nfs_for(&names),
        &EngineConfig {
            pool_size: 256 * shards,
            core_budget: 2 * shards,
            ..config()
        },
        shards,
    )
    .unwrap();
    let mut ingress = PcapIngress::from_bytes(trace.to_vec()).unwrap();
    let mut egress = CollectEgress::new();
    let (report, io) = engine.run_io(&mut ingress, &mut egress).unwrap();
    assert_eq!(
        io.pulled,
        io.delivered + io.dropped + io.rejected,
        "sharded accounting"
    );
    Outcome {
        delivered: multiset(&egress.pkts),
        taxonomy: folded_taxonomy(&report),
        pulled: io.pulled,
        rejected: io.rejected,
    }
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

#[test]
fn engines_agree_on_golden_traces() {
    for trace in [MIXED, CLEAN] {
        for chain in CHAINS {
            let sync = replay_sync(chain, trace);
            let threaded = replay_threaded(chain, trace);
            let sharded2 = replay_sharded(chain, trace, 2);
            let sharded3 = replay_sharded(chain, trace, 3);
            for (label, other) in [
                ("threaded", &threaded),
                ("sharded x2", &sharded2),
                ("sharded x3", &sharded3),
            ] {
                assert_eq!(sync.pulled, other.pulled, "{label} pulled, chain {chain:?}");
                assert_eq!(
                    sync.rejected, other.rejected,
                    "{label} admission rejects diverge, chain {chain:?}"
                );
                assert_eq!(
                    sync.taxonomy, other.taxonomy,
                    "{label} drop taxonomy diverges, chain {chain:?}"
                );
                assert_eq!(
                    sync.delivered, other.delivered,
                    "{label} delivered byte-set diverges, chain {chain:?}"
                );
            }
            // The mixed trace must actually exercise every interesting
            // path, or the agreement above is vacuous.
            if std::ptr::eq(trace, MIXED) {
                assert!(sync.rejected > 0, "no admission rejects, chain {chain:?}");
                assert!(
                    !sync.delivered.is_empty(),
                    "nothing delivered, chain {chain:?}"
                );
                if chain.contains(&"Firewall") {
                    assert!(
                        sync.taxonomy.iter().sum::<u64>() > sync.rejected,
                        "no policy drops, chain {chain:?}"
                    );
                }
            }
        }
    }
}

/// Split the mixed trace's packets in two replay windows with a live
/// `reconfigure()` between them (soak-style fail-closed → fail-open
/// Firewall table edit). Every engine family applies the same swap at
/// the same trace position, so their outputs must still agree.
#[test]
fn engines_agree_across_mid_replay_reconfigure() {
    let chain: &[&str] = &["Monitor", "Firewall", "IDS"];
    let recs = PcapReader::new(std::io::Cursor::new(MIXED.to_vec()))
        .unwrap()
        .collect_records()
        .unwrap();
    let pkts: Vec<Packet> = recs
        .iter()
        .map(|r| packet_from_record(r).unwrap())
        .collect();
    let half = pkts.len() / 2;
    let (base_program, names) = compile_chain(chain, false);
    let (edit_program, _) = compile_chain(chain, true);

    // Sync reference.
    let (sync_bytes, sync_tax) = {
        let mut engine = SyncEngine::new(base_program.clone(), nfs_for(&names), 64);
        let mut egress = CollectEgress::new();
        let mut first = VecIngress::new(pkts[..half].to_vec());
        engine.run_io(&mut first, &mut egress, 16).unwrap();
        engine
            .reconfigure(edit_program.clone().with_epoch(engine.epoch() + 1))
            .unwrap();
        let mut second = VecIngress::new(pkts[half..].to_vec());
        engine.run_io(&mut second, &mut egress, 16).unwrap();
        (multiset(&egress.pkts), taxonomy(&engine.stats()))
    };

    // Threaded engine.
    let (thr_bytes, thr_tax) = {
        let mut engine = Engine::new(base_program.clone(), nfs_for(&names), config()).unwrap();
        let mut egress = CollectEgress::new();
        let mut first = VecIngress::new(pkts[..half].to_vec());
        let (r1, _) = engine.run_io(&mut first, &mut egress).unwrap();
        engine
            .reconfigure(edit_program.clone().with_epoch(engine.epoch() + 1))
            .unwrap();
        let mut second = VecIngress::new(pkts[half..].to_vec());
        let (r2, _) = engine.run_io(&mut second, &mut egress).unwrap();
        let mut tax = [0u64; 8];
        for (t, (a, b)) in tax
            .iter_mut()
            .zip(folded_taxonomy(&r1).iter().zip(folded_taxonomy(&r2).iter()))
        {
            *t = a + b;
        }
        (multiset(&egress.pkts), tax)
    };

    // Sharded fleet (2 shards).
    let (shard_bytes, shard_tax) = {
        let names = names.clone();
        let mut engine = ShardedEngine::new(
            &base_program,
            move || nfs_for(&names),
            &EngineConfig {
                pool_size: 512,
                core_budget: 4,
                ..config()
            },
            2,
        )
        .unwrap();
        let mut egress = CollectEgress::new();
        let mut first = VecIngress::new(pkts[..half].to_vec());
        let (r1, _) = engine.run_io(&mut first, &mut egress).unwrap();
        engine
            .reconfigure(edit_program.clone().with_epoch(r1.epoch + 1))
            .unwrap();
        let mut second = VecIngress::new(pkts[half..].to_vec());
        let (r2, _) = engine.run_io(&mut second, &mut egress).unwrap();
        let mut tax = [0u64; 8];
        for (t, (a, b)) in tax
            .iter_mut()
            .zip(folded_taxonomy(&r1).iter().zip(folded_taxonomy(&r2).iter()))
        {
            *t = a + b;
        }
        (multiset(&egress.pkts), tax)
    };

    assert_eq!(
        sync_bytes, thr_bytes,
        "threaded diverges across reconfigure"
    );
    assert_eq!(
        sync_bytes, shard_bytes,
        "sharded diverges across reconfigure"
    );
    assert_eq!(sync_tax, thr_tax, "threaded taxonomy diverges");
    assert_eq!(sync_tax, shard_tax, "sharded taxonomy diverges");
    assert!(!sync_bytes.is_empty());
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

/// A pcap capture's records in capture-timestamp order, re-encoded. Every
/// input record has its own timestamp and the egress reuses it, so this
/// undoes the one freedom parallel execution takes, cross-packet order.
fn in_capture_order(capture: &[u8]) -> Vec<u8> {
    let mut recs = read_pcap_bytes(capture).unwrap();
    recs.sort_by_key(|r| r.ts_ns);
    write_pcap_bytes(&recs, PcapFormat::default())
}

/// Panic with the first differing record, not a dump of two captures,
/// unless `got` equals `want` byte for byte.
fn assert_same_capture(got: &[u8], want: &[u8], what: &str) {
    if got != want {
        let (got, want) = (
            read_pcap_bytes(got).unwrap(),
            read_pcap_bytes(want).unwrap(),
        );
        let first = got.iter().zip(&want).position(|(g, w)| g != w);
        panic!(
            "{what}: {} records against {}, first difference at record {first:?}",
            got.len(),
            want.len()
        );
    }
}

/// Replay `capture` twice, warm, through a sync engine, a threaded engine
/// and a two-shard fleet on `run_io`, and hold every output to what a
/// `process()` loop over fresh packets writes: byte for byte from the sync
/// engine, and record for record in capture order from the threaded
/// engine and the fleet. `check_reference` sees that loop's outcome first:
/// the stage counters' drop taxonomy, the packets delivered and the number
/// of admission rejects.
fn assert_warm_replays_match_process_loop(
    capture: &[u8],
    check_reference: impl FnOnce([u64; 8], &[Packet], u64),
) {
    let (program, names) = compile_chain(CHAINS[0], false);
    let egress = || PcapEgress::in_memory(PcapFormat::default());
    let ingress = || PcapIngress::from_bytes(capture.to_vec()).unwrap();

    let reference = {
        let mut engine = SyncEngine::new(program.clone(), nfs_for(&names), 64);
        let (mut delivered, mut rejected) = (Vec::new(), 0);
        for rec in read_pcap_bytes(capture).unwrap() {
            match engine.process(packet_from_record(&rec).unwrap()) {
                Ok(outcome) => delivered.extend(outcome.delivered()),
                Err(_) => rejected += 1,
            }
        }
        check_reference(taxonomy(&engine.stats()), &delivered, rejected);
        let mut out = egress();
        out.emit_burst(&delivered).unwrap();
        out.into_inner().unwrap()
    };

    let mut sync = SyncEngine::new(program.clone(), nfs_for(&names), 64);
    let mut threaded = Engine::new(program.clone(), nfs_for(&names), config()).unwrap();
    let fleet_names = names.clone();
    let mut sharded = ShardedEngine::new(
        &program,
        move || nfs_for(&fleet_names),
        &EngineConfig {
            pool_size: 512,
            core_budget: 4,
            ..config()
        },
        2,
    )
    .unwrap();
    for replay in 1..=2 {
        let (mut i, mut o) = (ingress(), egress());
        sync.run_io(&mut i, &mut o, 16).unwrap();
        let got = o.into_inner().unwrap();
        assert_same_capture(&got, &reference, &format!("sync, replay {replay}"));
        let (mut i, mut o) = (ingress(), egress());
        threaded.run_io(&mut i, &mut o).unwrap();
        let got = in_capture_order(&o.into_inner().unwrap());
        assert_same_capture(&got, &reference, &format!("threaded, replay {replay}"));
        let (mut i, mut o) = (ingress(), egress());
        sharded.run_io(&mut i, &mut o).unwrap();
        let got = in_capture_order(&o.into_inner().unwrap());
        assert_same_capture(&got, &reference, &format!("sharded x2, replay {replay}"));
    }
}

/// `run_io` hands every emitted burst back to the pcap ingress, which
/// refills those packets in place: short frames keep landing in buffers a
/// long one left.
#[test]
fn recycled_buffers_replay_byte_identically() {
    assert_warm_replays_match_process_loop(&alternating_capture(), |tax, _, rejected| {
        assert!(rejected > 0, "the capture exercises admission rejects");
        assert!(
            tax.iter().sum::<u64>() > rejected,
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
    assert_warm_replays_match_process_loop(&drop_heavy_capture(), |tax, delivered, _| {
        let (malformed, policy) = (tax[1], tax[2] + tax[5]);
        assert_eq!(malformed, 128, "both reject kinds: {tax:?}");
        assert_eq!(policy, 256, "every denied frame dropped: {tax:?}");
        assert_eq!(delivered.len(), 128, "drops and rejects are 3 in 4");
    });
}
