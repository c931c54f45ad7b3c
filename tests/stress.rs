//! Robustness under hostile configurations: tiny rings, tiny pools, heavy
//! drop shares, and full-throttle injection — the engine must neither
//! wedge, leak, nor miscount.

use nfp_core::prelude::*;
use nfp_testkit::{run, Chain, Entry, Executor, Nfs, Traffic};

fn chain(order: &[&str]) -> Chain {
    Chain::with_registry(order, &Registry::paper_table2())
}

/// Run `n` packets of 64 flows, every `deny_every`-th one denied (0:
/// none), through a threaded engine on `config`; the run's report,
/// exactly accounted, its pool drained.
fn stress(order: &[&str], config: EngineConfig, n: usize, deny_every: usize) -> EngineReport {
    let chain = chain(order);
    let nfs = Nfs::catalogue().build(&chain.nodes());
    let mut engine = Engine::new(chain.program, nfs, config).unwrap();
    let report = engine.run(Traffic::clean(64, 128).deny(deny_every, 1).build(n));
    assert_eq!(report.injected, n as u64);
    assert_eq!(report.injected, report.delivered + report.dropped);
    assert_eq!(report.stats.total_drops(), report.dropped, "stage drops");
    assert_eq!(report.pool_in_use, 0, "pool leak");
    report
}

#[test]
fn tiny_rings_backpressure_instead_of_wedging() {
    let config = EngineConfig {
        ring_capacity: 2,
        pool_size: 32,
        max_in_flight: 8,
        mergers: 2,
        ..EngineConfig::default()
    };
    let report = stress(&["Monitor", "Firewall", "LoadBalancer"], config, 500, 4);
    assert_eq!(report.injected, 500);
    assert_eq!(report.delivered + report.dropped, 500);
    assert_eq!(report.dropped, 125);
}

#[test]
fn pool_that_cannot_cover_the_window_is_rejected_up_front() {
    // Pool of 8 slots, window of 16 packets needing 2 slots each: the
    // engine must refuse to build instead of wedging mid-run.
    let chain = chain(&["Monitor", "LoadBalancer"]);
    let config = EngineConfig {
        pool_size: 8,
        max_in_flight: 16,
        ..EngineConfig::default()
    };
    let nfs = Nfs::catalogue().build(&chain.nodes());
    let err = Engine::new(chain.program, nfs, config)
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::PoolTooSmall {
                pool_size: 8,
                required: 32,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn tiny_pool_applies_backpressure() {
    // The smallest pool the validator admits (4 packets × 2 slots): the
    // classifier must stall on exhaustion rather than lose packets.
    let config = EngineConfig {
        pool_size: 8,
        max_in_flight: 4,
        ..EngineConfig::default()
    };
    let report = stress(&["Monitor", "LoadBalancer"], config, 300, 0);
    assert_eq!(report.delivered, 300);
    assert_eq!(report.dropped, 0);
}

#[test]
fn all_drop_traffic_terminates() {
    // Every packet hits a deny rule.
    let report = stress(&["Monitor", "Firewall"], EngineConfig::default(), 200, 1);
    assert_eq!(report.dropped, 200);
    assert_eq!(report.delivered, 0);
}

#[test]
fn wide_open_throttle_throughput_run() {
    let config = EngineConfig {
        max_in_flight: 256,
        pool_size: 1024,
        ..EngineConfig::default()
    };
    let report = stress(&["Monitor", "Firewall"], config, 5_000, 0);
    assert_eq!(report.delivered, 5_000);
    assert!(report.pps() > 0.0);
}

#[test]
fn sync_engine_survives_pathological_packets() {
    // Garbage, truncated, non-IP, and minimum frames: none may panic, any
    // may be rejected, and the pool drains after each.
    let frames = [
        vec![0u8; 60],
        vec![0xffu8; 14],
        vec![0x08u8; 64],
        Traffic::clean(64, 128).build(1)[0].data().to_vec(),
    ];
    let pkts: Vec<Packet> = frames
        .iter()
        .map(|b| Packet::from_bytes(b).unwrap())
        .collect();
    let sync = Executor::Sync {
        entry: Entry::Process,
        pool: 16,
    };
    run(
        &sync,
        &chain(&["Monitor", "Firewall"]),
        &Nfs::catalogue(),
        &pkts,
    );
}
