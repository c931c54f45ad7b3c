//! Threaded-engine observability run: drive the multi-threaded engine over
//! a few representative chains and print the per-stage counters
//! ([`nfp_dataplane::StageStats`]) next to the report, so throughput
//! anomalies and correctness failures can be localized to a stage — which
//! ring backs up, where packets drop and why, how hard OP#2 copying hits
//! the pool, and how evenly the merger agent spreads load.
//!
//! It ends with what the thread boundary itself cost: the two 64 B seed
//! graphs of the benchmark (three forwarders in sequence; east-west
//! `IDS -> [Monitor | LB]`) on one stage thread at window 64, one JSON
//! line each with the run's park and wake counts per packet
//! (the engine's wake hub; DESIGN.md §11, "who pays for a wake").
//!
//! Usage: `cargo run --release --bin threaded [packets]`

use nfp_bench::setups::{compile_chain, fixed_traffic, forced_sequential, nf_factory};
use nfp_dataplane::engine::{Engine, EngineConfig};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::Program;
use nfp_packet::ipv4::Ipv4Addr;

fn run_chain(chain: &[&str], n: usize, mergers: usize) {
    let compiled = compile_chain(chain);
    let program = compiled.program(1).unwrap();
    let nfs = nf_factory(&compiled.graph)();
    let mut engine = Engine::new(
        program,
        nfs,
        EngineConfig {
            mergers,
            max_in_flight: 64,
            pool_size: 1024,
            ..EngineConfig::default()
        },
    )
    .expect("engine config");
    // A tenth of the traffic hits firewall deny rules so the drop-cause
    // columns are exercised.
    let mut pkts = fixed_traffic(n, 200);
    for (i, p) in pkts.iter_mut().enumerate() {
        if i % 10 == 0 {
            let x = (i % 100) as u16;
            p.set_dip(Ipv4Addr::new(172, 16, (x % 256) as u8, 1))
                .unwrap();
            p.set_dport(7000 + x).unwrap();
            p.finalize_checksums().unwrap();
        }
    }
    let report = engine.run(pkts);
    println!("== chain {chain:?}, {mergers} mergers ==");
    println!(
        "injected {}  delivered {}  dropped {}  {:.2} Mpps  elapsed {:?}",
        report.injected,
        report.delivered,
        report.dropped,
        report.pps() / 1e6,
        report.elapsed
    );
    if let Some(lat) = &report.latency {
        println!("latency p50 {:?}  p99 {:?}", lat.p50, lat.p99);
    }
    println!("{}", report.stats);
}

/// One warm run of `program` at 64 B on a single stage thread, closed
/// loop at window 64, as one JSON line: throughput and the wake traffic
/// between the injector and the stage thread, per packet.
fn wake_traffic(label: &str, program: Program, nfs: Vec<Box<dyn NetworkFunction>>, n: usize) {
    let config = EngineConfig {
        core_budget: 1,
        max_in_flight: 64,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(program, nfs, config).expect("engine config");
    engine.run(fixed_traffic(n, 64));
    let report = engine.run(fixed_traffic(n, 64));
    let per_packet = |count: u64| count as f64 / report.injected.max(1) as f64;
    println!(
        "{{\"bench\": \"threaded\", \"graph\": \"{label}\", \"frame\": 64, \"core_budget\": 1, \
         \"window\": 64, \"packets\": {}, \"pps\": {:.0}, \"parks\": {}, \"wakes\": {}, \
         \"parks_per_packet\": {:.5}, \"wakes_per_packet\": {:.5}}}",
        report.injected,
        report.pps(),
        report.parks,
        report.wakes,
        per_packet(report.parks),
        per_packet(report.wakes),
    );
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    run_chain(&["Monitor", "Firewall"], n, 2);
    run_chain(&["Monitor", "Firewall", "VPN", "IDS"], n, 3);

    let sequential = forced_sequential("Forwarder", 3);
    let forwarders = nf_factory(&sequential)();
    let program = Program::compile(&sequential, 1).expect("sequential graph compiles");
    wake_traffic("seq3", program, forwarders, n);
    let east_west = compile_chain(&["IDS", "Monitor", "LB"]);
    let nfs = nf_factory(&east_west.graph)();
    let program = east_west.program(1).expect("east-west graph compiles");
    wake_traffic("east_west", program, nfs, n);
}
