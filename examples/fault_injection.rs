//! Fault injection (in the spirit of smoltcp's example options): drive the
//! NFP graph with hostile inputs — malicious payloads that trip the inline
//! IDS, ACL-matching flows the firewall denies, corrupted frames the
//! classifier must reject, and a deliberately undersized packet pool — and
//! watch the system degrade gracefully (drops and rejections, never leaks
//! or wedges).
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use nfp_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // IDS -> [Monitor | LB(copy)] — the east-west graph.
    let compiled = compile(
        &Policy::from_chain(["IDS", "Monitor", "LoadBalancer"]),
        &Registry::evaluated(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    println!("graph under test: {}\n", compiled.graph.describe());

    let program = compiled.program(1).unwrap();
    let nfs: Vec<Box<dyn NetworkFunction>> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| nfp_core::nf::catalogue::make(n.name.as_str()).unwrap())
        .collect();
    // A deliberately tiny pool: 8 slots for a graph needing 2 per packet.
    let mut engine = nfp_core::dataplane::SyncEngine::new(program, nfs, 8);

    // 30% of packets carry an IDS signature; 10% are corrupted frames.
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
            // Corrupt the EtherType or truncate — the classifier must
            // reject, not crash.
            let len = pkt.len();
            pkt.data_mut()[12] ^= 0xff;
            let _ = len;
            pkt.invalidate();
        }
        match engine.process(pkt) {
            Ok(out) => match out.delivered() {
                Some(_) => ok += 1,
                None => dropped += 1,
            },
            Err(e) => {
                rejected += 1;
                assert!(matches!(
                    e,
                    nfp_core::dataplane::classifier::AdmitError::Unparseable
                ));
            }
        }
        assert_eq!(engine.pool_in_use(), 0, "leak under fault injection");
    }
    println!("delivered: {ok}");
    println!("dropped by IDS: {dropped}");
    println!("rejected by classifier (corrupted): {rejected}");
    assert_eq!(ok + dropped + rejected, 2_000);
    assert!(dropped > 300, "IDS should catch the malicious share");
    assert!(rejected > 100, "classifier should reject corrupted frames");
    println!("\nno leaks, no wedges: every packet accounted for.");
}
