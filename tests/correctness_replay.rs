//! §6.4 result-correctness replay as an integration test: for every
//! evaluation chain, the compiled NFP graph must produce bit-identical
//! outputs (and identical drop decisions) to sequential composition —
//! including under traffic that triggers firewall denies and IDS alerts.

use nfp_core::nf::catalogue;
use nfp_core::prelude::*;
use nfp_dataplane::sync_engine::{ProcessOutcome, SyncEngine};
use nfp_packet::ipv4::Ipv4Addr;

/// Traffic that exercises pass, firewall-deny and IDS-alert paths.
fn adversarial_traffic(n: usize) -> Vec<Packet> {
    let mut gen = TrafficGenerator::new(TrafficSpec {
        flows: 24,
        sizes: SizeDistribution::datacenter(),
        malicious_fraction: 0.15,
        ..TrafficSpec::default()
    });
    let mut pkts = gen.batch(n);
    for (i, p) in pkts.iter_mut().enumerate() {
        if i % 7 == 0 {
            // Hit firewall deny rule #(i%100): dst 172.16.x.0/24, dport 7000+x.
            let x = (i % 100) as u16;
            p.set_dip(Ipv4Addr::new(172, 16, (x % 256) as u8, 9))
                .unwrap();
            p.set_dport(7000 + x).unwrap();
            p.finalize_checksums().unwrap();
        }
    }
    pkts
}

fn replay(chain: &[&str], packets: usize) {
    let compiled = compile(
        &Policy::from_chain(chain.iter().copied()),
        &Registry::evaluated(),
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
    let mut parallel = SyncEngine::new(program, nfs, 128);
    let mut sequential =
        RunToCompletion::new(chain.iter().map(|n| catalogue::make(n).unwrap()).collect());

    let traffic = adversarial_traffic(packets);
    let mut sequential_out = Vec::new();
    let mut drops = 0u64;
    for (i, pkt) in traffic.iter().cloned().enumerate() {
        let seq = sequential.process(pkt.clone());
        let par = parallel.process(pkt).unwrap();
        match (seq, par) {
            (Some(a), ProcessOutcome::Delivered(b)) => {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "chain {chain:?} packet {i}: outputs diverge"
                );
                sequential_out.push(a.data().to_vec());
            }
            (None, ProcessOutcome::Dropped) => drops += 1,
            (a, b) => panic!(
                "chain {chain:?} packet {i}: drop decisions diverge (seq {:?} vs par {:?})",
                a.is_some(),
                matches!(b, ProcessOutcome::Delivered(_))
            ),
        }
        assert_eq!(parallel.pool_in_use(), 0, "leak at packet {i}");
    }
    assert!(drops > 0, "chain {chain:?}: replay never exercised drops");

    // The ONVM baseline runs the same chain through its central switch:
    // one NF per thread, so completion order interleaves, but the
    // delivered set and the drop count are sequential composition's.
    let onvm = OnvmPipeline::new(chain.iter().map(|n| catalogue::make(n).unwrap()).collect())
        .keep_packets(true)
        .run(traffic);
    let mut onvm_out: Vec<Vec<u8>> = onvm.packets.iter().map(|p| p.data().to_vec()).collect();
    onvm_out.sort();
    sequential_out.sort();
    assert_eq!(
        onvm_out, sequential_out,
        "chain {chain:?}: ONVM outputs diverge"
    );
    assert_eq!(
        onvm.dropped, drops,
        "chain {chain:?}: ONVM drop count diverges"
    );
}

#[test]
fn north_south_chain_replay() {
    replay(&["VPN", "Monitor", "Firewall", "LB"], 1_000);
}

#[test]
fn east_west_chain_replay() {
    replay(&["IDS", "Monitor", "LB"], 1_000);
}

#[test]
fn monitor_firewall_pair_replay() {
    replay(&["Monitor", "Firewall"], 1_000);
}

#[test]
fn firewall_then_ids_sequential_replay() {
    // Drop-capable NF first: compiles sequential; replay must still agree.
    replay(&["Firewall", "IDS", "Monitor"], 600);
}

#[test]
fn longer_mixed_chain_replay() {
    replay(&["IDS", "Monitor", "Gateway", "LB"], 600);
}
