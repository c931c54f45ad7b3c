//! Failure-model integration tests: hostile inputs, panicking NFs,
//! stalled NFs and merge deadlines. The invariant under test is always
//! the same — every injected packet is accounted for exactly once
//! (delivered + dropped + rejected), no pool slot leaks, and the engine
//! finishes instead of wedging.
//!
//! The first test is the promoted `fault_injection` example; the rest
//! exercise the failure paths the example's healthy NFs never reach, via
//! the [`nfp_core::nf::chaos`] wrappers.

use nfp_core::nf::chaos::{PanicAfter, StallOnce};
use nfp_core::prelude::*;
use nfp_dataplane::runtime::FailureKind;
use nfp_io::DropCause;
use nfp_testkit::{chains, fail_open, run, Chain, Entry, Executor, Nfs, Traffic};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Run `n` clean packets (16 flows of 128 B: no ACL deny rule, no IDS
/// signature) through a threaded engine on `config`; the run's report,
/// exactly accounted, its pool drained.
fn clean_run(chain: &Chain, nfs: &Nfs, config: EngineConfig, n: usize) -> EngineReport {
    let nfs = nfs.build(&chain.nodes());
    let mut engine = Engine::new(chain.program.clone(), nfs, config).unwrap();
    let report = engine.run(Traffic::clean(16, 128).build(n));
    assert_eq!(report.injected, n as u64);
    assert_eq!(report.injected, report.delivered + report.dropped);
    let causes: u64 = report.record().causes.iter().sum();
    assert_eq!(causes, report.dropped, "stage drops");
    assert_eq!(report.pool_in_use, 0, "pool leak");
    report
}

/// The promoted example: hostile inputs (malicious payloads, corrupted
/// frames, a deliberately tiny pool) against healthy NFs. Exact
/// accounting, zero leakage after every single packet.
#[test]
fn hostile_inputs_degrade_gracefully() {
    let chain = Chain::new(&["IDS", "Monitor", "LoadBalancer"]);
    let mut rng = StdRng::seed_from_u64(1);
    let mut pkts = Traffic::clean(16, 256).malicious(0.3).build(2_000);
    for pkt in &mut pkts {
        if rng.gen::<f64>() < 0.10 {
            pkt.data_mut()[12] ^= 0xff;
            pkt.invalidate();
        }
    }
    // A deliberately tiny pool: 8 slots for a graph needing 2 per packet.
    // The kit holds the pool empty after every single packet and the
    // accounting exact.
    let sync = Executor::Sync {
        entry: Entry::Process,
        pool: 8,
    };
    let outcome = run(&sync, &chain, &Nfs::catalogue(), &pkts);
    assert!(
        outcome.dropped > 300,
        "IDS should catch the malicious share"
    );
    assert!(
        outcome.rejected > 100,
        "classifier should reject corrupted frames"
    );
    let failures = outcome.failures.unwrap();
    assert!(failures.is_empty(), "healthy NFs never fail");
}

/// The catalogue, the Firewall panicking after 50 packets.
fn panicking_firewall() -> Nfs {
    Nfs::wrapping("Firewall", |nf| Box::new(PanicAfter::new(nf, 50)))
}

/// Tentpole acceptance: one member of a parallel segment panics mid-run.
/// The threaded engine must complete without deadlock, record the
/// failure, keep exact packet accounting and leak nothing. The firewall
/// drops, so its default policy is fail-closed: traffic after the panic
/// is discarded rather than slipping past an enforcing NF.
#[test]
fn panicking_parallel_member_fail_closed() {
    let chain = Chain::new(&["Monitor", "Firewall"]);
    let fw_node = chain.graph.node_by_name("Firewall").unwrap();
    let config = EngineConfig {
        max_in_flight: 8,
        ..EngineConfig::default()
    };
    let report = clean_run(&chain, &panicking_firewall(), config, 200);

    assert!(report.dropped >= 1, "post-panic traffic is fail-closed");
    assert!(report.delivered >= 1, "pre-panic traffic was delivered");
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
    let registry = fail_open(Registry::evaluated(), "Firewall");
    let chain = Chain::with_registry(&["Monitor", "Firewall"], &registry);
    let config = EngineConfig {
        max_in_flight: 8,
        ..EngineConfig::default()
    };
    let report = clean_run(&chain, &panicking_firewall(), config, 200);

    assert_eq!(report.delivered, 200, "fail-open loses nothing");
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
    let chain = Chain::new(&["Monitor", "Firewall"]);
    let nfs = Nfs::wrapping("Firewall", |nf| {
        Box::new(StallOnce::new(nf, 20, Duration::from_millis(500)))
    });
    let config = EngineConfig {
        max_in_flight: 4,
        merge_deadline: Duration::from_millis(60),
        // Keep the watchdog out of this test: expiries *are* progress,
        // and the stall is finite, so only the deadline machinery acts.
        stall_timeout: Duration::from_secs(30),
        ..EngineConfig::default()
    };
    let report = clean_run(&chain, &nfs, config, 60);

    assert!(report.dropped >= 1, "stalled-window merges expired");
    assert!(
        report.delivered >= 1,
        "traffic before/after the stall flowed"
    );
    let expired = report.record().causes[DropCause::MergeExpired as usize];
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
    let chain = Chain::new(&["Monitor"]);
    let nfs = Nfs::wrapping("Monitor", |nf| {
        Box::new(StallOnce::new(nf, 5, Duration::from_millis(600)))
    });
    let config = EngineConfig {
        max_in_flight: 4,
        stall_timeout: Duration::from_millis(150),
        ..EngineConfig::default()
    };
    let report = clean_run(&chain, &nfs, config, 60);

    assert_eq!(report.delivered, 60, "monitor is fail-open: nothing lost");
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
// leaks nothing (the kit holds all three after every packet).
proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn random_failures_never_leak_or_miscount(
        chain in chains(&["Monitor", "Firewall", "LoadBalancer", "IDS"], 1, 4),
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
        let failing: Vec<String> = chain
            .iter()
            .zip(&fail_mask)
            .filter(|(_, fail)| **fail)
            .map(|(name, _)| name.to_string())
            .collect();
        let nfs = {
            let failing = failing.clone();
            Nfs::new(move |name| {
                let inner = nfp_core::nf::catalogue::make(name).unwrap();
                if failing.iter().any(|f| f == name) {
                    Box::new(PanicAfter::new(inner, healthy_for))
                } else {
                    inner
                }
            })
        };
        let chain = Chain::with_registry(&chain, &reg);
        let sync = Executor::sync(Entry::Process);
        let outcome = run(&sync, &chain, &nfs, &Traffic::clean(16, 128).build(60));
        // Exactly the wrapped NFs that saw enough traffic have failed,
        // and each failure is a recorded panic.
        for (node, kind) in outcome.failures.unwrap() {
            prop_assert!(matches!(kind, FailureKind::Panicked(_)));
            let name = chain.graph.nodes[node].name.as_str();
            prop_assert!(failing.iter().any(|f| f == name), "only wrapped NFs may fail");
        }
    }
}
