//! End-to-end VPN tunnel through compiled graphs: encapsulate at the
//! ingress, traverse NFs over the AH-protected packet, decapsulate at the
//! egress — the full tunnel-mode lifecycle of the paper's VPN NF.

use nfp_core::nf::*;
use nfp_core::prelude::*;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_testkit::{run, Chain, Entry, Executor, Nfs, Outcome, Traffic};

const KEY: [u8; 16] = [0x77; 16];

fn registry() -> Registry {
    let mut r = Registry::paper_table2();
    for name in ["VPN-encap", "VPN-decap"] {
        let mut p = r.get("VPN").unwrap().clone();
        p.nf_type = name.into();
        r.register(p);
    }
    r
}

/// The tunnel's NFs, both endpoints keyed with `key`.
fn nfs(key: [u8; 16]) -> Nfs {
    Nfs::new(move |name| -> Box<dyn NetworkFunction> {
        match name {
            "VPN-encap" => Box::new(vpn::Vpn::new(name, key, 31, vpn::VpnMode::Encapsulate)),
            "VPN-decap" => Box::new(vpn::Vpn::new(name, key, 31, vpn::VpnMode::Decapsulate)),
            "Monitor" => Box::new(monitor::Monitor::new(name)),
            "Firewall" => Box::new(firewall::Firewall::with_synthetic_acl(name, 100)),
            other => unreachable!("{other}"),
        }
    })
}

/// `pkts` through a sync engine's `process()` loop over `chain`.
fn tunnel(chain: &[&str], key: [u8; 16], pkts: &[Packet]) -> Outcome {
    let chain = Chain::with_registry(chain, &registry());
    run(&Executor::sync(Entry::Process), &chain, &nfs(key), pkts)
}

#[test]
fn tunnel_roundtrip_through_graph() {
    // Both VPN endpoints add/remove headers → fully sequential graph; the
    // Monitor∥Firewall in between parallelizes if placed adjacently... but
    // between two AddRm NFs everything is fenced. Verify structure + data.
    let chain = ["VPN-encap", "Monitor", "Firewall", "VPN-decap"];
    let graph = Chain::with_registry(&chain, &registry()).graph;
    assert_eq!(graph.equivalent_chain_length(), 3, "{}", graph.describe());

    let pkts = Traffic::clean(8, 400).build(200);
    let outcome = tunnel(&chain, KEY, &pkts);
    assert_eq!(outcome.delivered.len(), 200, "the tunnel delivers");
    for (out, pkt) in outcome.delivered.iter().zip(&pkts) {
        // Decapsulated: no AH, plaintext restored, addressing intact.
        let out = out.packet();
        assert_eq!(out.parsed().unwrap().ah, None);
        assert_eq!(out.payload().unwrap(), pkt.payload().unwrap());
        assert_eq!(out.five_tuple().unwrap(), pkt.five_tuple().unwrap());
    }
    // The monitor in the middle observed AH-encapsulated traffic.
    assert_eq!(outcome.per_nf.unwrap()[1].0, 200);
}

#[test]
fn tampering_inside_the_tunnel_is_dropped_at_egress() {
    // A hostile "NF" isn't needed: corrupt the packet between two engines.
    let pkts = Traffic::clean(2, 300).build(50);
    let protected = tunnel(&["VPN-encap"], KEY, &pkts);
    assert_eq!(protected.delivered.len(), 50, "encap delivers");
    let mut protected: Vec<Packet> = protected.delivered.iter().map(|d| d.packet()).collect();
    for pkt in protected.iter_mut().step_by(2) {
        // Flip one byte of ciphertext.
        let len = pkt.len();
        pkt.data_mut()[len - 1] ^= 0x80;
        pkt.invalidate();
    }
    let egress = tunnel(&["VPN-decap"], KEY, &protected);
    for out in &egress.delivered {
        assert_eq!(out.packet().parsed().unwrap().ah, None);
    }
    assert_eq!(egress.rejected, 0, "nothing is rejected at admission");
    assert_eq!(
        egress.dropped, 25,
        "every tampered packet must fail the ICV"
    );
}

#[test]
fn mismatched_tunnel_keys_fail_closed() {
    let pkt = nfp_traffic::gen::build_tcp_frame(
        Ipv4Addr::new(1, 1, 1, 1),
        Ipv4Addr::new(2, 2, 2, 2),
        1,
        2,
        b"secret",
    );
    let protected = tunnel(&["VPN-encap"], KEY, &[pkt]);
    let protected = protected.delivered[0].packet();
    // Egress with a different key.
    let egress = tunnel(&["VPN-decap"], [0x88; 16], &[protected]);
    assert!(egress.delivered.is_empty() && egress.dropped == 1);
    assert_eq!(
        egress.rejected, 0,
        "dropped by the VPN, not rejected at admission"
    );
}
