//! Robustness under hostile configurations: tiny rings, tiny pools, heavy
//! drop shares, and full-throttle injection — the engine must neither
//! wedge, leak, nor miscount.

use nfp_core::nf::catalogue;
use nfp_core::prelude::*;
use nfp_packet::ipv4::Ipv4Addr;

fn try_engine(chain: &[&str], config: EngineConfig) -> Result<Engine, EngineError> {
    let compiled = compile(
        &Policy::from_chain(chain.iter().copied()),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let program = compiled.program(1).unwrap();
    let nfs: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| catalogue::make(n.name.as_str()).unwrap())
        .collect();
    Engine::new(program, nfs, config)
}

fn engine(chain: &[&str], config: EngineConfig) -> Engine {
    try_engine(chain, config).expect("valid stress config")
}

fn traffic(n: usize, drop_share: usize) -> Vec<Packet> {
    let mut pkts = TrafficGenerator::new(TrafficSpec {
        flows: 64,
        sizes: SizeDistribution::Fixed(128),
        ..TrafficSpec::default()
    })
    .batch(n);
    for (i, p) in pkts.iter_mut().enumerate() {
        if drop_share > 0 && i % drop_share == 0 {
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
fn tiny_rings_backpressure_instead_of_wedging() {
    let mut e = engine(
        &["Monitor", "Firewall", "LoadBalancer"],
        EngineConfig {
            ring_capacity: 2,
            pool_size: 32,
            max_in_flight: 8,
            mergers: 2,
            ..EngineConfig::default()
        },
    );
    let report = e.run(traffic(500, 4));
    assert_eq!(report.injected, 500);
    assert_eq!(report.delivered + report.dropped, 500);
    assert_eq!(report.dropped, 125);
}

#[test]
fn pool_that_cannot_cover_the_window_is_rejected_up_front() {
    // Pool of 8 slots, window of 16 packets needing 2 slots each: the
    // engine must refuse to build instead of wedging mid-run.
    let err = try_engine(
        &["Monitor", "LoadBalancer"],
        EngineConfig {
            pool_size: 8,
            max_in_flight: 16,
            ..EngineConfig::default()
        },
    )
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
    let mut e = engine(
        &["Monitor", "LoadBalancer"],
        EngineConfig {
            pool_size: 8,
            max_in_flight: 4,
            ..EngineConfig::default()
        },
    );
    let report = e.run(traffic(300, 0));
    assert_eq!(report.delivered, 300);
    assert_eq!(report.dropped, 0);
}

#[test]
fn all_drop_traffic_terminates() {
    let mut e = engine(&["Monitor", "Firewall"], EngineConfig::default());
    let report = e.run(traffic(200, 1)); // every packet hits a deny rule
    assert_eq!(report.dropped, 200);
    assert_eq!(report.delivered, 0);
}

#[test]
fn wide_open_throttle_throughput_run() {
    let mut e = engine(
        &["Monitor", "Firewall"],
        EngineConfig {
            max_in_flight: 256,
            pool_size: 1024,
            ..EngineConfig::default()
        },
    );
    let report = e.run(traffic(5_000, 0));
    assert_eq!(report.delivered, 5_000);
    assert!(report.pps() > 0.0);
}

#[test]
fn sync_engine_survives_pathological_packets() {
    let compiled = compile(
        &Policy::from_chain(["Monitor", "Firewall"]),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let program = compiled.program(1).unwrap();
    let nfs: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| catalogue::make(n.name.as_str()).unwrap())
        .collect();
    let mut e = nfp_dataplane::SyncEngine::new(program, nfs, 16);
    // Garbage, truncated, non-IP, and minimum frames.
    for bytes in [
        vec![0u8; 60],
        vec![0xffu8; 14],
        vec![0x08u8; 64],
        traffic(1, 0)[0].data().to_vec(),
    ] {
        let pkt = Packet::from_bytes(&bytes).unwrap();
        let _ = e.process(pkt); // must not panic; may reject
        assert_eq!(e.pool_in_use(), 0);
    }
}
