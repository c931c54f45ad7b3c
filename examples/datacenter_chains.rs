//! The paper's two real-world data-center chains (Figure 13), end to end:
//! compile, inspect warnings, execute on the *threaded* engine (one thread
//! per NF, classifier, merger agent, two merger instances) and verify the
//! outputs against run-to-completion sequential semantics.
//!
//! ```sh
//! cargo run --release --example datacenter_chains
//! ```

use nfp_core::nf::catalogue;
use nfp_core::prelude::*;
use std::collections::HashMap;

fn main() {
    for (label, chain) in [
        ("north-south", vec!["VPN", "Monitor", "Firewall", "LB"]),
        ("east-west", vec!["IDS", "Monitor", "LB"]),
    ] {
        println!("== {label} chain: {chain:?} ==");
        let policy = Policy::from_chain(chain.iter().copied());
        // The §6.1 NF types (LB, the inline IDS) are evaluated-registry rows.
        let registry = Registry::evaluated();
        let compiled = compile(&policy, &registry, &[], &CompileOptions::default()).unwrap();
        println!("  graph: {}", compiled.graph.describe());
        for w in &compiled.warnings {
            println!("  warning: {w:?}");
        }

        // Threaded run.
        let program = compiled.program(1).unwrap();
        let nfs: Vec<_> = compiled
            .graph
            .nodes
            .iter()
            .map(|n| catalogue::make(n.name.as_str()).unwrap())
            .collect();
        // In-flight window of 1 keeps packet order identical to the
        // sequential oracle — the VPN's AH sequence numbers (and thus its
        // CTR nonces) depend on processing order.
        let mut engine = Engine::new(
            program,
            nfs,
            EngineConfig {
                keep_packets: true,
                max_in_flight: 1,
                ..EngineConfig::default()
            },
        )
        .expect("engine config");
        let traffic = TrafficGenerator::new(TrafficSpec {
            flows: 32,
            sizes: SizeDistribution::datacenter(),
            ..TrafficSpec::default()
        })
        .batch(500);
        let report = engine.run(traffic.clone());
        println!(
            "  threaded engine: {} delivered, {} dropped, wall {:?}",
            report.delivered, report.dropped, report.elapsed
        );

        // Oracle: run-to-completion sequential semantics.
        let mut rtc =
            RunToCompletion::new(chain.iter().map(|n| catalogue::make(n).unwrap()).collect());
        let expected = rtc.process_batch(traffic);
        let expect_by_payload: HashMap<Vec<u8>, Vec<u8>> = expected
            .iter()
            .map(|p| (p.payload().unwrap()[..8].to_vec(), p.data().to_vec()))
            .collect();
        let mut matched = 0usize;
        for p in &report.packets {
            // North-south outputs are VPN-encapsulated; match on the
            // packet-ID the generator stamped before encryption... the
            // parallel and sequential VPNs encrypt identically, so the
            // full frame comparison is still exact.
            let key = p.meta().pid().to_be_bytes().to_vec();
            let _ = key;
            if expect_by_payload.values().any(|d| d == p.data()) {
                matched += 1;
            }
        }
        println!(
            "  correctness: {matched}/{} parallel outputs found among sequential outputs\n",
            report.packets.len()
        );
        assert_eq!(matched, report.packets.len());
    }
}
