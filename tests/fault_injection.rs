//! Failure-model integration tests: hostile inputs, panicking NFs,
//! stalled NFs and merge deadlines. The invariant under test is always
//! the same — every injected packet is accounted for exactly once
//! (delivered + dropped + rejected), no pool slot leaks, and the engine
//! finishes instead of wedging.
//!
//! The first test is the promoted `fault_injection` example; the rest
//! exercise the failure paths the example's healthy NFs never reach, via
//! the [`nfp_core::nf::chaos`] wrappers.

use nfp_core::nf::catalogue;
use nfp_core::nf::chaos::{PanicAfter, StallOnce};
use nfp_core::prelude::*;
use nfp_dataplane::runtime::FailureKind;
use nfp_dataplane::sync_engine::SyncEngine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn compile_chain(chain: &[&str], reg: &Registry) -> Compiled {
    compile(
        &Policy::from_chain(chain.iter().copied()),
        reg,
        &[],
        &CompileOptions::default(),
    )
    .unwrap()
}

/// Clean traffic that hits no ACL deny rule and carries no IDS signature.
fn clean_traffic(n: usize) -> Vec<Packet> {
    TrafficGenerator::new(TrafficSpec {
        flows: 16,
        sizes: SizeDistribution::Fixed(128),
        ..TrafficSpec::default()
    })
    .batch(n)
}

/// The promoted example: hostile inputs (malicious payloads, corrupted
/// frames, a deliberately tiny pool) against healthy NFs. Exact
/// accounting, zero leakage after every single packet.
#[test]
fn hostile_inputs_degrade_gracefully() {
    let compiled = compile_chain(&["IDS", "Monitor", "LoadBalancer"], &Registry::evaluated());
    let program = compiled.program(1).unwrap();
    let nfs: Vec<Box<dyn NetworkFunction>> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| catalogue::make(n.name.as_str()).unwrap())
        .collect();
    // A deliberately tiny pool: 8 slots for a graph needing 2 per packet.
    let mut engine = SyncEngine::new(program, nfs, 8);

    let mut gen = TrafficGenerator::new(TrafficSpec {
        flows: 16,
        sizes: SizeDistribution::Fixed(256),
        malicious_fraction: 0.3,
        ..TrafficSpec::default()
    });
    let mut rng = StdRng::seed_from_u64(1);
    let (mut ok, mut dropped, mut rejected) = (0u64, 0u64, 0u64);
    for _ in 0..2_000 {
        let mut pkt = gen.next_packet();
        if rng.gen::<f64>() < 0.10 {
            pkt.data_mut()[12] ^= 0xff;
            pkt.invalidate();
        }
        match engine.process(pkt) {
            Ok(out) => match out.delivered() {
                Some(_) => ok += 1,
                None => dropped += 1,
            },
            Err(_) => rejected += 1,
        }
        assert_eq!(engine.pool_in_use(), 0, "leak under fault injection");
    }
    assert_eq!(ok + dropped + rejected, 2_000);
    assert!(dropped > 300, "IDS should catch the malicious share");
    assert!(rejected > 100, "classifier should reject corrupted frames");
    assert!(engine.failures().is_empty(), "healthy NFs never fail");
}

/// Tentpole acceptance: one member of a parallel segment panics mid-run.
/// The threaded engine must complete without deadlock, record the
/// failure, keep exact packet accounting and leak nothing. The firewall
/// drops, so its default policy is fail-closed: traffic after the panic
/// is discarded rather than slipping past an enforcing NF.
#[test]
fn panicking_parallel_member_fail_closed() {
    let compiled = compile_chain(&["Monitor", "Firewall"], &Registry::evaluated());
    let program = compiled.program(1).unwrap();
    let fw_node = compiled.graph.node_by_name("Firewall").unwrap();
    let nfs: Vec<Box<dyn NetworkFunction>> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| -> Box<dyn NetworkFunction> {
            if n.name.as_str() == "Firewall" {
                Box::new(PanicAfter::new(
                    nfp_core::nf::firewall::Firewall::with_synthetic_acl("Firewall", 100),
                    50,
                ))
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
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(clean_traffic(200));

    assert_eq!(report.injected, 200);
    assert_eq!(
        report.delivered + report.dropped,
        200,
        "every packet accounted"
    );
    assert!(report.dropped >= 1, "post-panic traffic is fail-closed");
    assert!(report.delivered >= 1, "pre-panic traffic was delivered");
    assert_eq!(report.pool_in_use, 0, "no pool leakage");
    assert_eq!(report.failures.len(), 1);
    let f = &report.failures[0];
    assert_eq!(f.node, fw_node);
    assert_eq!(f.nf, "Firewall");
    assert!(matches!(f.kind, FailureKind::Panicked(_)));
    assert_eq!(f.policy, FailurePolicy::FailClosed);
    assert!(f.policy_drops >= 1);
    assert_eq!(f.bypassed, 0, "fail-closed never bypasses");
}

/// Same panic, but the firewall is pinned fail-open: its traffic is
/// forwarded unprocessed, every merge completes, and nothing is lost.
#[test]
fn panicking_member_fail_open_bypasses() {
    let mut reg = Registry::evaluated();
    let fw = reg.get("Firewall").unwrap().clone().fail_open();
    reg.register(fw);
    let compiled = compile_chain(&["Monitor", "Firewall"], &reg);
    let program = compiled.program(1).unwrap();
    let nfs: Vec<Box<dyn NetworkFunction>> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| -> Box<dyn NetworkFunction> {
            if n.name.as_str() == "Firewall" {
                Box::new(PanicAfter::new(
                    nfp_core::nf::firewall::Firewall::with_synthetic_acl("Firewall", 100),
                    50,
                ))
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
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(clean_traffic(200));

    assert_eq!(report.delivered, 200, "fail-open loses nothing");
    assert_eq!(report.dropped, 0);
    assert_eq!(report.pool_in_use, 0);
    assert_eq!(report.failures.len(), 1);
    let f = &report.failures[0];
    assert_eq!(f.policy, FailurePolicy::FailOpen);
    assert!(f.bypassed >= 1, "post-panic traffic bypassed the firewall");
    assert_eq!(f.policy_drops, 0);
}

/// A parallel member stalls long enough for its merges to hit the
/// deadline: the accumulating table resolves them from the arrived
/// copies (fail-closed member missing → dropped), the stalled NF's late
/// copies are swallowed by tombstones, and the pool still drains to 0.
#[test]
fn stalled_member_merges_expire_at_deadline() {
    let compiled = compile_chain(&["Monitor", "Firewall"], &Registry::evaluated());
    let program = compiled.program(1).unwrap();
    let nfs: Vec<Box<dyn NetworkFunction>> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| -> Box<dyn NetworkFunction> {
            if n.name.as_str() == "Firewall" {
                Box::new(StallOnce::new(
                    nfp_core::nf::firewall::Firewall::with_synthetic_acl("Firewall", 100),
                    20,
                    Duration::from_millis(500),
                ))
            } else {
                catalogue::make(n.name.as_str()).unwrap()
            }
        })
        .collect();
    let mut engine = Engine::new(
        program,
        nfs,
        EngineConfig {
            max_in_flight: 4,
            merge_deadline: Duration::from_millis(60),
            // Keep the watchdog out of this test: expiries *are* progress,
            // and the stall is finite, so only the deadline machinery acts.
            stall_timeout: Duration::from_secs(30),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(clean_traffic(60));

    assert_eq!(
        report.delivered + report.dropped,
        60,
        "every packet accounted"
    );
    assert!(report.dropped >= 1, "stalled-window merges expired");
    assert!(
        report.delivered >= 1,
        "traffic before/after the stall flowed"
    );
    assert_eq!(report.pool_in_use, 0, "tombstones released every straggler");
    let expired: u64 = report
        .stats
        .mergers
        .iter()
        .map(|m| m.drop_merge_expired)
        .sum();
    assert!(expired >= 1, "drops attributed to MergeExpired");
    let late: u64 = report.stats.mergers.iter().map(|m| m.late_arrivals).sum();
    assert!(
        late >= 1,
        "the woken NF's copies arrived late into tombstones"
    );
    // A stall, not a death: every copy an expiry was still owed arrived,
    // so the straggler debt the live auditor allows for is back to zero.
    let owed: u64 = report.stats.mergers.iter().map(|m| m.stragglers_owed).sum();
    assert_eq!(owed, late, "straggler debt settled");
}

/// A stalled NF in a *sequential* position makes no merge progress the
/// deadline could unblock — the watchdog must notice the engine-wide
/// stall, fail the busy NF, and its queued traffic then follows the
/// failure policy (monitor: fail-open bypass).
#[test]
fn watchdog_fails_stalled_sequential_nf() {
    let compiled = compile_chain(&["Monitor"], &Registry::evaluated());
    let program = compiled.program(1).unwrap();
    let nfs: Vec<Box<dyn NetworkFunction>> = vec![Box::new(StallOnce::new(
        nfp_core::nf::monitor::Monitor::new("Monitor"),
        5,
        Duration::from_millis(600),
    )) as Box<dyn NetworkFunction>];
    let mut engine = Engine::new(
        program,
        nfs,
        EngineConfig {
            max_in_flight: 4,
            stall_timeout: Duration::from_millis(150),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(clean_traffic(60));

    assert_eq!(report.delivered, 60, "monitor is fail-open: nothing lost");
    assert_eq!(report.dropped, 0);
    assert_eq!(report.pool_in_use, 0);
    assert_eq!(report.failures.len(), 1);
    let f = &report.failures[0];
    assert_eq!(f.kind, FailureKind::Stalled);
    assert_eq!(f.policy, FailurePolicy::FailOpen);
    assert!(
        f.bypassed >= 1,
        "queued traffic bypassed the failed monitor"
    );
}

// Property: under a random subset of panicking NFs with random
// fail-open/fail-closed pins, the sync engine still accounts every
// packet exactly once, quiesces with an empty accumulating table, and
// leaks nothing.
proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn random_failures_never_leak_or_miscount(
        chain in proptest::sample::subsequence(
            vec!["Monitor", "Firewall", "LoadBalancer", "IDS"], 1..=4).prop_shuffle(),
        fail_mask in proptest::collection::vec(any::<bool>(), 4),
        // Per-NF policy pin: 0 = registry default, 1 = fail-open, 2 = fail-closed.
        pins in proptest::collection::vec(0u8..3u8, 4),
        healthy_for in 0u64..30,
    ) {
        let mut reg = Registry::evaluated();
        for (name, pin) in chain.iter().zip(&pins) {
            let p = reg.get(name).unwrap().clone();
            match pin {
                1 => reg.register(p.fail_open()),
                2 => reg.register(p.fail_closed()),
                _ => {}
            }
        }
        let compiled = compile_chain(&chain, &reg);
        let program = compiled.program(1).unwrap();
        let nfs: Vec<Box<dyn NetworkFunction>> = compiled
            .graph
            .nodes
            .iter()
            .map(|n| {
                let pos = chain.iter().position(|c| *c == n.name.as_str()).unwrap();
                let inner = catalogue::make(n.name.as_str()).unwrap();
                if fail_mask[pos] {
                    Box::new(PanicAfter::new(inner, healthy_for)) as Box<dyn NetworkFunction>
                } else {
                    inner
                }
            })
            .collect();
        let mut engine = SyncEngine::new(program, nfs, 64);

        let total = 60u64;
        let (mut delivered, mut dropped, mut rejected) = (0u64, 0u64, 0u64);
        for pkt in clean_traffic(total as usize) {
            match engine.process(pkt) {
                Ok(out) => match out.delivered() {
                    Some(_) => delivered += 1,
                    None => dropped += 1,
                },
                Err(_) => rejected += 1,
            }
            prop_assert_eq!(engine.pool_in_use(), 0, "leak after a packet");
        }
        prop_assert_eq!(delivered + dropped + rejected, total);
        prop_assert_eq!(engine.pending(), 0, "accumulating table quiesced");
        // Exactly the wrapped NFs that saw enough traffic have failed,
        // and each failure is a recorded panic.
        for (node, kind) in engine.failures() {
            prop_assert!(matches!(kind, FailureKind::Panicked(_)));
            let pos = chain.iter().position(|c| {
                *c == compiled.graph.nodes[node].name.as_str()
            }).unwrap();
            prop_assert!(fail_mask[pos], "only wrapped NFs may fail");
        }
    }
}
