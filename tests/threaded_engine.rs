//! Cross-crate integration: the multi-threaded engine must agree with the
//! deterministic sync engine (same tables, same NF types) on delivery,
//! drops and packet contents.

use nfp_core::nf::catalogue;
use nfp_core::prelude::*;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_packet::ipv4::Ipv4Addr;
use std::collections::BTreeSet;

fn build(chain: &[&str]) -> (nfp_orchestrator::Compiled, Program) {
    let compiled = compile(
        &Policy::from_chain(chain.iter().copied()),
        &Registry::evaluated(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let program = compiled.program(1).unwrap();
    (compiled, program)
}

fn traffic(n: usize) -> Vec<Packet> {
    let mut gen = TrafficGenerator::new(TrafficSpec {
        flows: 16,
        sizes: SizeDistribution::Fixed(200),
        ..TrafficSpec::default()
    });
    let mut pkts = gen.batch(n);
    for (i, p) in pkts.iter_mut().enumerate() {
        if i % 5 == 0 {
            let x = (i % 100) as u16;
            p.set_dip(Ipv4Addr::new(172, 16, (x % 256) as u8, 1))
                .unwrap();
            p.set_dport(7000 + x).unwrap();
            p.finalize_checksums().unwrap();
        }
    }
    pkts
}

#[test]
fn threaded_matches_sync_engine_with_copies_and_drops() {
    let chain = ["Monitor", "Firewall", "LoadBalancer"];
    let (compiled, program) = build(&chain);
    let nfs_threaded: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| catalogue::make(n.name.as_str()).unwrap())
        .collect();
    let nfs_sync: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| catalogue::make(n.name.as_str()).unwrap())
        .collect();

    let pkts = traffic(400);
    let mut sync = SyncEngine::new(program.clone(), nfs_sync, 128);
    let mut expected: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut expected_drops = 0u64;
    for p in pkts.clone() {
        match sync.process(p).unwrap().delivered() {
            Some(out) => {
                expected.insert(out.data().to_vec());
            }
            None => expected_drops += 1,
        }
    }

    let mut engine = Engine::new(
        program,
        nfs_threaded,
        EngineConfig {
            keep_packets: true,
            max_in_flight: 32,
            mergers: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(pkts);
    assert_eq!(report.dropped, expected_drops);
    assert_eq!(report.delivered as usize, expected.len());
    let got: BTreeSet<Vec<u8>> = report.packets.iter().map(|p| p.data().to_vec()).collect();
    assert_eq!(got, expected, "threaded and sync outputs differ");
    assert!(report.latency.is_some());
}

#[test]
fn threaded_engine_with_single_merger() {
    let chain = ["Monitor", "Firewall"];
    let (compiled, program) = build(&chain);
    let nfs: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| catalogue::make(n.name.as_str()).unwrap())
        .collect();
    let mut engine = Engine::new(
        program,
        nfs,
        EngineConfig {
            mergers: 1,
            max_in_flight: 8,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(traffic(200));
    assert_eq!(report.injected, 200);
    assert_eq!(report.delivered + report.dropped, 200);
}

#[test]
fn graph_with_two_parallel_segments_merges_twice() {
    // Monitor∥LB(copy) → Caching∥Gateway: two merge points per packet.
    let compiled = compile(
        &Policy::from_chain(["Monitor", "LoadBalancer", "Caching", "Gateway"]),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let g = &compiled.graph;
    let parallel_segments = g
        .segments
        .iter()
        .filter(|s| matches!(s, nfp_orchestrator::graph::Segment::Parallel(_)))
        .count();
    assert_eq!(parallel_segments, 2, "{}", g.describe());
    let program = compiled.program(1).unwrap();
    assert_eq!(program.tables().merge_specs.len(), 2);

    let make_all = |g: &nfp_orchestrator::ServiceGraph| -> Vec<Box<dyn NetworkFunction>> {
        g.nodes
            .iter()
            .map(|n| catalogue::make(n.name.as_str()).unwrap())
            .collect()
    };

    // Sync oracle.
    let mut sync = SyncEngine::new(program.clone(), make_all(g), 128);
    let pkts = traffic(150);
    let mut expected = Vec::new();
    for p in pkts.clone() {
        if let Some(out) = sync.process(p).unwrap().delivered() {
            expected.push(out.data().to_vec());
        }
    }
    // Threaded engine.
    let mut engine = Engine::new(
        program,
        make_all(g),
        EngineConfig {
            keep_packets: true,
            max_in_flight: 16,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(pkts);
    assert_eq!(report.delivered as usize, expected.len());
    let mut got: Vec<Vec<u8>> = report.packets.iter().map(|p| p.data().to_vec()).collect();
    got.sort();
    expected.sort();
    assert_eq!(got, expected);
}

#[test]
fn engine_rerun_accumulates() {
    let chain = ["Monitor", "Firewall"];
    let (compiled, program) = build(&chain);
    let nfs: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| catalogue::make(n.name.as_str()).unwrap())
        .collect();
    let mut engine = Engine::new(program, nfs, EngineConfig::default()).unwrap();
    let r1 = engine.run(traffic(50));
    let r2 = engine.run(traffic(50));
    assert_eq!(r1.injected + r2.injected, 100);
    assert_eq!(r1.delivered + r1.dropped + r2.delivered + r2.dropped, 100);
}

/// A parked engine must stay live: with an idle policy that parks almost
/// immediately and a long park timeout, a mid-run stall sends every
/// downstream stage thread to sleep — and the late burst the stalled NF
/// finally emits must still wake them and be delivered in full. A lost
/// wakeup here shows up as a multi-second run (every ring crossing waits
/// out a full park timeout) or a hang.
#[test]
fn parked_engine_wakes_for_late_burst() {
    use nfp_core::nf::chaos::StallOnce;
    use nfp_dataplane::exec::IdlePolicy;
    use std::time::Duration;

    let chain = ["Monitor", "Firewall"];
    let (compiled, program) = build(&chain);
    let nfs: Vec<Box<dyn NetworkFunction>> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| {
            if n.name.as_str() == "Firewall" {
                Box::new(StallOnce::new(
                    nfp_core::nf::firewall::Firewall::with_synthetic_acl("Firewall", 100),
                    20,
                    Duration::from_millis(80),
                )) as Box<dyn NetworkFunction>
            } else {
                catalogue::make(n.name.as_str()).unwrap()
            }
        })
        .collect();
    let mut engine = Engine::new(
        program,
        nfs,
        EngineConfig {
            max_in_flight: 8,
            // Park after two no-progress passes, for up to a second — far
            // longer than the stall, so delivery depends on the wakeup
            // protocol rather than the timeout.
            idle_policy: IdlePolicy::Backoff {
                spin: Duration::from_nanos(1),
                yields: Duration::from_nanos(1),
                park_timeout: Duration::from_secs(1),
            },
            // Two threads: the stalled NF blocks the front section while
            // the back section (agent, merger, collector) goes idle.
            core_budget: 2,
            stall_timeout: Duration::from_secs(30),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(traffic(120));
    assert_eq!(report.delivered + report.dropped, 120);
    assert_eq!(report.pool_in_use, 0);
    assert!(
        report.elapsed < Duration::from_secs(5),
        "late-burst delivery took {:?}: parked threads likely missed a wakeup",
        report.elapsed
    );
}

/// The seed graphs of the paper's evaluation: east-west (`IDS ->
/// [Monitor | LB]`, a header copy and a merge), north-south (`VPN ->
/// [Monitor | Firewall] -> LB`, stateful per-packet VPN sequence numbers)
/// and a two-segment chain that merges twice per packet.
const SEED_GRAPHS: [&[&str]; 3] = [
    &["IDS", "Monitor", "LoadBalancer"],
    &["VPN", "Monitor", "Firewall", "LoadBalancer"],
    &["Monitor", "LoadBalancer", "Caching", "Gateway"],
];

fn nfs_of(compiled: &nfp_orchestrator::Compiled) -> Vec<Box<dyn NetworkFunction>> {
    let nodes = compiled.graph.nodes.iter();
    nodes
        .map(|n| catalogue::make(n.name.as_str()).unwrap())
        .collect()
}

/// Firewall-deniable and IDS-triggering traffic with a malformed frame
/// after every seventh packet, so NF drops, merge-resolved drops and
/// classifier rejects all occur.
fn hostile_traffic(n: usize) -> Vec<Packet> {
    let mut gen = TrafficGenerator::new(TrafficSpec {
        flows: 16,
        sizes: SizeDistribution::Fixed(200),
        malicious_fraction: 0.3,
        ..TrafficSpec::default()
    });
    let mut pkts = Vec::new();
    for (i, mut p) in gen.batch(n).into_iter().enumerate() {
        if i % 5 == 0 {
            let x = (i % 100) as u16;
            p.set_dip(Ipv4Addr::new(172, 16, (x % 256) as u8, 1))
                .unwrap();
            p.set_dport(7000 + x).unwrap();
            p.finalize_checksums().unwrap();
        }
        pkts.push(p);
        if i % 7 == 6 {
            pkts.push(Packet::from_bytes(&[0u8; 60]).unwrap());
        }
    }
    pkts
}

/// The 8-way drop taxonomy of a snapshot.
fn taxonomy(s: &nfp_dataplane::stats::StageSnapshot) -> [u64; 8] {
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

/// `core_budget = 1` is the sync engine's loop behind one ring: every
/// stage is local to one dispatcher, so delivery order — not just the
/// delivered set — is exactly `SyncEngine::process_batch`'s.
#[test]
fn single_group_engine_delivers_in_sync_engine_order() {
    for chain in SEED_GRAPHS {
        let (compiled, program) = build(chain);
        let pkts = hostile_traffic(300);
        let mut sync = SyncEngine::new(program.clone(), nfs_of(&compiled), 128);
        let expected: Vec<Vec<u8>> = sync
            .process_batch(pkts.clone())
            .iter()
            .map(|p| p.data().to_vec())
            .collect();
        assert!(!expected.is_empty() && expected.len() < pkts.len());

        let mut engine = Engine::new(
            program,
            nfs_of(&compiled),
            EngineConfig {
                keep_packets: true,
                max_in_flight: 32,
                core_budget: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let report = engine.run(pkts);
        let got: Vec<Vec<u8>> = report.packets.iter().map(|p| p.data().to_vec()).collect();
        assert_eq!(got, expected, "delivery order diverges on {chain:?}");
    }
}

/// However the stages are grouped onto threads — from one group to one
/// thread per stage — the engine delivers the sync engine's byte
/// multiset, attributes every drop to the same cause, and its per-stage
/// counters balance exactly.
#[test]
fn every_core_budget_agrees_with_sync_engine() {
    for chain in SEED_GRAPHS {
        let (compiled, program) = build(chain);
        let pkts = hostile_traffic(300);
        let mut sync = SyncEngine::new(program.clone(), nfs_of(&compiled), 128);
        let mut expected: Vec<Vec<u8>> = sync
            .process_batch(pkts.clone())
            .iter()
            .map(|p| p.data().to_vec())
            .collect();
        expected.sort();
        let reference = sync.stats();

        let mergers = 2;
        let stages = 3 + compiled.graph.nodes.len() + mergers;
        for core_budget in 1..=stages {
            let mut engine = Engine::new(
                program.clone(),
                nfs_of(&compiled),
                EngineConfig {
                    keep_packets: true,
                    max_in_flight: 16,
                    mergers,
                    core_budget,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let report = engine.run(pkts.clone());
            let at = format!("{chain:?} at core_budget {core_budget}");

            let mut got: Vec<Vec<u8>> = report.packets.iter().map(|p| p.data().to_vec()).collect();
            got.sort();
            assert_eq!(got, expected, "delivered bytes diverge on {at}");

            let s = &report.stats;
            let mut folded = nfp_dataplane::stats::StageSnapshot::default();
            for (_, stage) in s.stages() {
                folded.absorb(stage);
            }
            assert_eq!(taxonomy(&folded), taxonomy(&reference), "drop causes, {at}");
            assert_eq!(folded.copies, reference.copies, "copies, {at}");
            assert_eq!(folded.merges, reference.merges, "merges, {at}");

            // The balance of `stage_counters_balance_exactly`.
            assert_eq!(report.injected, pkts.len() as u64, "{at}");
            assert_eq!(report.injected, report.delivered + report.dropped, "{at}");
            assert_eq!(s.total_drops(), report.dropped, "{at}");
            assert_eq!(s.classifier.packets_in, report.injected, "{at}");
            assert_eq!(s.collector.packets_out, report.delivered, "{at}");
            let merger_in: u64 = s.mergers.iter().map(|m| m.packets_in).sum();
            assert_eq!(merger_in, s.agent.packets_in, "{at}");
            let nf_nils: u64 = s.nfs.iter().map(|n| n.nil_packets).sum();
            let merger_nils: u64 = s.mergers.iter().map(|m| m.nil_packets).sum();
            assert_eq!(nf_nils, merger_nils, "{at}");
            assert_eq!(report.pool_in_use, 0, "{at}");
            assert!(report.failures.is_empty(), "{at}");
        }
    }
}

/// Epoch bookkeeping by the burst under a swap storm: the east-west chain
/// on one stage thread at window 64, hot-swapped to an identical successor
/// about every 500 packets while it runs. Admission pins a whole intake
/// burst to one epoch and stages pay their settlements once per burst, so
/// every swap's drain waits on pins and settlements in flight — and still
/// no packet resolves against a retired epoch, every finished packet is
/// tallied under exactly one epoch, no pool slot leaks, and the delivered
/// bytes are the sync engine's.
#[test]
fn per_burst_epoch_bookkeeping_survives_a_swap_storm() {
    use nfp_dataplane::audit::EngineProbe;
    use nfp_dataplane::chaos_schedule::{drive_swaps, ChaosScript};

    const PACKETS: usize = 12_000;
    let (compiled, program) = build(SEED_GRAPHS[0]);
    let pkts = traffic(PACKETS);
    let mut sync = SyncEngine::new(program.clone(), nfs_of(&compiled), 128);
    let mut expected: Vec<Vec<u8>> = sync
        .process_batch(pkts.clone())
        .iter()
        .map(|p| p.data().to_vec())
        .collect();
    expected.sort();
    let script = ChaosScript::swap_storm(PACKETS as u64, PACKETS * 3 / 5 / 500);

    let probe = EngineProbe::new();
    let mut engine = Engine::new(
        program.clone(),
        nfs_of(&compiled),
        EngineConfig {
            keep_packets: true,
            max_in_flight: 64,
            core_budget: 1,
            probe: Some(probe.clone()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let controller = engine.controller();
    let (report, log) = std::thread::scope(|s| {
        let storm = s.spawn(|| {
            drive_swaps(&controller, &probe, &script.swap_points(), |epoch| {
                program.clone().with_epoch(epoch)
            })
        });
        let report = engine.run(pkts.clone());
        (report, storm.join().unwrap())
    });
    assert!(log.completed > 0, "no swap landed inside the run");
    assert_eq!(log.rejected, 0, "{:?}", log.failures);

    let mut folded = nfp_dataplane::stats::StageSnapshot::default();
    for (_, stage) in report.stats.stages() {
        folded.absorb(stage);
    }
    assert_eq!(folded.epoch_conflicts, 0, "a packet outlived its epoch");
    assert_eq!(report.injected, report.delivered + report.dropped);
    let tallied: u64 = report.epochs.iter().map(|t| t.completed).sum();
    assert_eq!(
        tallied,
        report.delivered + report.dropped,
        "{:?}",
        report.epochs
    );
    assert_eq!(report.epochs.len() as u64, 1 + log.completed);
    assert_eq!(report.pool_in_use, 0);
    let mut got: Vec<Vec<u8>> = report.packets.iter().map(|p| p.data().to_vec()).collect();
    got.sort();
    assert_eq!(
        got, expected,
        "delivered bytes diverge from the sync engine"
    );
}

/// `EngineReport.latency` pairs each delivery with its own injection. A
/// rejected packet takes an injection slot but no PID, so pairing by PID
/// alone shifts every later sample by one more packet per reject — a
/// trace with interleaved malformed frames then reads milliseconds for a
/// microsecond path (14 ms against 94 us when the bug was found: 150x).
/// Its median must stay within 8x of the same trace with the rejects
/// removed: wide enough that the window-4 spin/park bistability of two
/// shared vCPUs (either run can land in the ~2x slower mode) cannot fail
/// it, far too narrow for a pairing error to pass.
#[test]
fn rejected_packets_do_not_skew_latency_pairing() {
    let (compiled, program) = build(&["Monitor", "Firewall"]);
    let clean = traffic(3000);
    let mut interleaved = Vec::new();
    for (i, p) in clean.iter().enumerate() {
        interleaved.push(p.clone());
        if i % 3 == 2 {
            interleaved.push(Packet::from_bytes(&[0u8; 60]).unwrap());
        }
    }
    // Best of three runs each, so one scheduling hiccup cannot decide it.
    let p50 = |pkts: &[Packet], rejects: u64| {
        let runs = (0..3).map(|_| {
            let nfs = compiled.graph.nodes.iter();
            let mut engine = Engine::new(
                program.clone(),
                nfs.map(|n| catalogue::make(n.name.as_str()).unwrap())
                    .collect(),
                EngineConfig {
                    max_in_flight: 4,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let report = engine.run(pkts.to_vec());
            assert_eq!(report.stats.classifier.rejects(), rejects);
            let latency = report.latency.expect("packets were delivered");
            assert_eq!(latency.count as u64, report.delivered);
            latency.p50
        });
        runs.min().unwrap()
    };
    let base = p50(&clean, 0);
    let with_rejects = p50(&interleaved, 1000);
    assert!(
        with_rejects <= base * 8,
        "p50 {with_rejects:?} with interleaved rejects vs {base:?} without"
    );
}

/// The injector pushes a burst per read of the finished count, and the
/// window still bounds what is in flight — at every instant, not just on
/// average. An `EngineProbe` sampler runs beside `Engine::run` (hostile
/// traffic: deliveries, drops and rejects) and never sees `injected −
/// delivered − dropped` above `max_in_flight`. A sample's fields may come
/// from different publications, so only samples whose settled counters
/// did not move across the `injected` read count (`ProbeGauges`): the
/// engine publishes what was finished before it injects against it, so
/// in such a sample `injected` is no newer than the settled counters
/// allowed. At window 1 the engine is the sync engine one packet at a
/// time, at any budget: same deliveries, same order.
#[test]
fn burst_injection_keeps_the_window() {
    use nfp_dataplane::audit::EngineProbe;
    use std::sync::atomic::{AtomicBool, Ordering};

    let chain = SEED_GRAPHS[0];
    let (compiled, program) = build(chain);
    let pkts = hostile_traffic(3000);
    let mut sync = SyncEngine::new(program.clone(), nfs_of(&compiled), 128);
    let expected: Vec<Vec<u8>> = sync
        .process_batch(pkts.clone())
        .iter()
        .map(|p| p.data().to_vec())
        .collect();

    let mut sampled = 0;
    for window in [1usize, 4, 64] {
        let probe = EngineProbe::new();
        let mut engine = Engine::new(
            program.clone(),
            nfs_of(&compiled),
            EngineConfig {
                keep_packets: true,
                max_in_flight: window,
                probe: Some(probe.clone()),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let (sampling, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let (report, (samples, peak)) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let (mut samples, mut peak) = (0u64, 0u64);
                while !done.load(Ordering::Acquire) {
                    let (a, b) = (probe.sample(), probe.sample());
                    if a.active && (a.delivered, a.dropped) == (b.delivered, b.dropped) {
                        samples += 1;
                        peak = peak.max(a.injected - a.delivered - a.dropped);
                    }
                    sampling.store(true, Ordering::Release);
                    std::thread::yield_now();
                }
                (samples, peak)
            });
            while !sampling.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let report = engine.run(pkts.clone());
            done.store(true, Ordering::Release);
            (report, sampler.join().unwrap())
        });
        sampled += samples;
        assert!(
            peak <= window as u64,
            "window {window}: {peak} packets seen in flight ({samples} samples)"
        );
        assert_eq!(report.injected, pkts.len() as u64);
        assert_eq!(report.injected, report.delivered + report.dropped);
        assert_eq!(report.pool_in_use, 0);
        let mut got: Vec<Vec<u8>> = report.packets.iter().map(|p| p.data().to_vec()).collect();
        if window > 1 {
            got.sort();
            let mut expected = expected.clone();
            expected.sort();
            assert_eq!(got, expected, "window {window}: delivered bytes diverge");
        } else {
            assert_eq!(got, expected, "window 1: delivery order diverges");
        }
    }
    assert!(sampled > 0, "no run was ever sampled: nothing was checked");
}
