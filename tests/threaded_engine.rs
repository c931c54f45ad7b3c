//! Cross-crate integration: the multi-threaded engine must agree with the
//! deterministic sync engine (same tables, same NF types) on delivery,
//! drops, packet contents and NF state. One stage group (`core_budget`
//! 1, or a window of one) is held at the kit's byte order level, every
//! other grouping at per-flow order.

use nfp_core::nf::chaos::StallOnce;
use nfp_core::prelude::*;
use nfp_dataplane::audit::EngineProbe;
use nfp_dataplane::exec::IdlePolicy;
use nfp_testkit::{run, Chain, Entry, Executor, Level, Nfs, Outcome, Runner, Traffic};
use std::time::Duration;

/// 16 flows of 200 B, every fifth packet denied by the firewall.
fn deny_mix() -> Traffic {
    Traffic::clean(16, 200).deny(5, 1)
}

/// [`deny_mix`] with 30% IDS signatures and a malformed frame after
/// every seventh packet, so NF drops, merge-resolved drops and classifier
/// rejects all occur.
fn hostile_mix() -> Traffic {
    deny_mix().malicious(0.3).malformed(7)
}

/// A threaded engine over `chain`, for the tests that read only its
/// reports (the equivalence tests run theirs through the kit).
fn engine(chain: &Chain, nfs: &Nfs, config: EngineConfig) -> Engine {
    Engine::new(chain.program.clone(), nfs.build(&chain.nodes()), config).unwrap()
}

/// The sync engine's outcome for `pkts` through `entry` on a 128-slot pool.
fn sync(entry: Entry, chain: &Chain, pkts: &[Packet]) -> Outcome {
    let exec = Executor::Sync { entry, pool: 128 };
    run(&exec, chain, &Nfs::catalogue(), pkts)
}

#[test]
fn threaded_matches_sync_engine_with_copies_and_drops() {
    let chain = Chain::new(&["Monitor", "Firewall", "LoadBalancer"]);
    let pkts = deny_mix().build(400);
    let expected = sync(Entry::Process, &chain, &pkts);
    let config = EngineConfig {
        max_in_flight: 32,
        mergers: 2,
        keep_packets: true,
        ..EngineConfig::default()
    };
    let mut engine = Runner::new(&Executor::Engine(config), &chain, &Nfs::catalogue());
    engine.feed(&pkts);
    let at = "threaded against sync";
    engine
        .outcome()
        .assert_matches(&expected, Level::PerFlow, at);
    assert!(engine.report().latency.is_some());
}

#[test]
fn threaded_engine_with_single_merger() {
    let config = EngineConfig {
        mergers: 1,
        max_in_flight: 8,
        ..EngineConfig::default()
    };
    let chain = Chain::new(&["Monitor", "Firewall"]);
    let report = engine(&chain, &Nfs::catalogue(), config).run(deny_mix().build(200));
    assert_eq!(report.injected, 200);
    assert_eq!(report.delivered + report.dropped, 200);
}

#[test]
fn graph_with_two_parallel_segments_merges_twice() {
    // Monitor∥LB(copy) → Caching∥Gateway: two merge points per packet.
    let order = ["Monitor", "LoadBalancer", "Caching", "Gateway"];
    let chain = Chain::with_registry(&order, &Registry::paper_table2());
    let g = &chain.graph;
    let parallel_segments = g
        .segments
        .iter()
        .filter(|s| matches!(s, nfp_orchestrator::graph::Segment::Parallel(_)))
        .count();
    assert_eq!(parallel_segments, 2, "{}", g.describe());
    assert_eq!(chain.program.tables().merge_specs.len(), 2);

    let pkts = deny_mix().build(150);
    let expected = sync(Entry::Process, &chain, &pkts);
    let config = EngineConfig {
        max_in_flight: 16,
        keep_packets: true,
        ..EngineConfig::default()
    };
    run(&Executor::Engine(config), &chain, &Nfs::catalogue(), &pkts).assert_matches(
        &expected,
        Level::PerFlow,
        "two merge points",
    );
}

#[test]
fn engine_rerun_accumulates() {
    let chain = Chain::new(&["Monitor", "Firewall"]);
    let mut engine = engine(&chain, &Nfs::catalogue(), EngineConfig::default());
    let reports = [50, 50].map(|n| {
        let r = engine.run(deny_mix().build(n));
        (r.injected, r.delivered + r.dropped)
    });
    assert_eq!(reports[0].0 + reports[1].0, 100);
    assert_eq!(reports[0].1 + reports[1].1, 100);
}

/// A parked engine must stay live: with an idle policy that parks almost
/// immediately and a long park timeout, a mid-run stall sends every
/// downstream stage thread to sleep — and the late burst the stalled NF
/// finally emits must still wake them and be delivered in full. A lost
/// wakeup here shows up as a multi-second run (every ring crossing waits
/// out a full park timeout) or a hang.
#[test]
fn parked_engine_wakes_for_late_burst() {
    let nfs = Nfs::wrapping("Firewall", |nf| {
        Box::new(StallOnce::new(nf, 20, Duration::from_millis(80)))
    });
    let config = EngineConfig {
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
    };
    let chain = Chain::new(&["Monitor", "Firewall"]);
    let report = engine(&chain, &nfs, config).run(deny_mix().build(120));
    assert_eq!(report.delivered + report.dropped, 120);
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

/// `core_budget = 1` is the sync engine's loop behind one ring: every
/// stage is local to one dispatcher, so delivery order — not just the
/// delivered set — is exactly `SyncEngine::process_batch`'s.
#[test]
fn single_group_engine_delivers_in_sync_engine_order() {
    for chain in SEED_GRAPHS {
        let chain = Chain::new(chain);
        let pkts = hostile_mix().build(300);
        let expected = sync(Entry::Batch, &chain, &pkts);
        assert!(!expected.delivered.is_empty() && expected.delivered.len() < pkts.len());
        let config = EngineConfig {
            max_in_flight: 32,
            core_budget: 1,
            keep_packets: true,
            ..EngineConfig::default()
        };
        let at = format!("{:?} on one stage group", chain.order);
        run(&Executor::Engine(config), &chain, &Nfs::catalogue(), &pkts).assert_matches(
            &expected,
            Level::ByteOrder,
            at,
        );
    }
}

/// However the stages are grouped onto threads — from one group to one
/// thread per stage — the engine delivers the sync engine's frames in
/// per-flow order, attributes every drop to the same cause, copies and
/// merges as often, leaves every NF in the same state, and its per-stage
/// counters balance exactly.
#[test]
fn every_core_budget_agrees_with_sync_engine() {
    for chain in SEED_GRAPHS {
        let chain = Chain::new(chain);
        let pkts = hostile_mix().build(300);
        let expected = sync(Entry::Batch, &chain, &pkts);
        let mergers = 2;
        let stages = 3 + chain.graph.nodes.len() + mergers;
        for core_budget in 1..=stages {
            let config = EngineConfig {
                max_in_flight: 16,
                mergers,
                core_budget,
                keep_packets: true,
                ..EngineConfig::default()
            };
            let mut engine = Runner::new(&Executor::Engine(config), &chain, &Nfs::catalogue());
            engine.feed(&pkts);
            let at = format!("{:?} at core_budget {core_budget}", chain.order);
            engine
                .outcome()
                .assert_matches(&expected, Level::PerFlow, &at);

            // The balance of `stage_counters_balance_exactly`.
            let report = engine.report();
            let s = &report.stats;
            assert_eq!(s.classifier.packets_in, report.injected, "{at}");
            assert_eq!(s.collector.packets_out, report.delivered, "{at}");
            let merger_in: u64 = s.mergers.iter().map(|m| m.packets_in).sum();
            assert_eq!(merger_in, s.agent.packets_in, "{at}");
            let nf_nils: u64 = s.nfs.iter().map(|n| n.nil_packets).sum();
            let merger_nils: u64 = s.mergers.iter().map(|m| m.nil_packets).sum();
            assert_eq!(nf_nils, merger_nils, "{at}");
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
/// tallied under exactly one epoch, no pool slot leaks, and the outcome is
/// the sync engine's.
#[test]
fn per_burst_epoch_bookkeeping_survives_a_swap_storm() {
    use nfp_dataplane::chaos_schedule::{drive_swaps, ChaosScript};

    const PACKETS: usize = 12_000;
    let chain = Chain::new(SEED_GRAPHS[0]);
    let pkts = deny_mix().build(PACKETS);
    let expected = sync(Entry::Batch, &chain, &pkts);
    let script = ChaosScript::swap_storm(PACKETS as u64, PACKETS * 3 / 5 / 500);

    let probe = EngineProbe::new();
    let config = EngineConfig {
        max_in_flight: 64,
        core_budget: 1,
        probe: Some(probe.clone()),
        keep_packets: true,
        ..EngineConfig::default()
    };
    let mut engine = Runner::new(&Executor::Engine(config), &chain, &Nfs::catalogue());
    let controller = engine.engine().controller();
    let log = std::thread::scope(|s| {
        let storm = s.spawn(|| {
            drive_swaps(&controller, &probe, &script.swap_points(), |epoch| {
                chain.program.clone().with_epoch(epoch)
            })
        });
        engine.feed(&pkts);
        storm.join().unwrap()
    });
    assert!(log.completed > 0, "no swap landed inside the run");
    assert_eq!(log.rejected, 0, "{:?}", log.failures);

    let report = engine.report();
    let mut folded = nfp_dataplane::stats::StageSnapshot::default();
    for (_, stage) in report.stats.stages() {
        folded.absorb(stage);
    }
    assert_eq!(folded.epoch_conflicts, 0, "a packet outlived its epoch");
    let tallied: u64 = report.epochs.iter().map(|t| t.completed).sum();
    assert_eq!(
        tallied,
        report.delivered + report.dropped,
        "{:?}",
        report.epochs
    );
    assert_eq!(report.epochs.len() as u64, 1 + log.completed);
    let at = "swap storm against the sync engine";
    engine
        .outcome()
        .assert_matches(&expected, Level::PerFlow, at);
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
    let chain = Chain::new(&["Monitor", "Firewall"]);
    let clean = deny_mix().build(3000);
    let interleaved = deny_mix().malformed(3).build(3000);
    // Best of three runs each, so one scheduling hiccup cannot decide it.
    let p50 = |pkts: &[Packet], rejects: u64| {
        let runs = (0..3).map(|_| {
            let config = EngineConfig {
                max_in_flight: 4,
                ..EngineConfig::default()
            };
            let report = engine(&chain, &Nfs::catalogue(), config).run(pkts.to_vec());
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
    use std::sync::atomic::{AtomicBool, Ordering};

    let chain = Chain::new(SEED_GRAPHS[0]);
    let pkts = hostile_mix().build(3000);
    let expected = sync(Entry::Batch, &chain, &pkts);

    let mut sampled = 0;
    for window in [1usize, 4, 64] {
        let probe = EngineProbe::new();
        let config = EngineConfig {
            max_in_flight: window,
            probe: Some(probe.clone()),
            keep_packets: true,
            ..EngineConfig::default()
        };
        let mut engine = Runner::new(&Executor::Engine(config), &chain, &Nfs::catalogue());
        let (sampling, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let (samples, peak) = std::thread::scope(|s| {
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
            engine.feed(&pkts);
            done.store(true, Ordering::Release);
            sampler.join().unwrap()
        });
        sampled += samples;
        assert!(
            peak <= window as u64,
            "window {window}: {peak} packets seen in flight ({samples} samples)"
        );
        let level = if window > 1 {
            Level::PerFlow
        } else {
            Level::ByteOrder
        };
        let at = format!("window {window}");
        engine.outcome().assert_matches(&expected, level, at);
    }
    assert!(sampled > 0, "no run was ever sampled: nothing was checked");
}
