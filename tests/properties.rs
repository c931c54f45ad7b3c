//! Cross-crate property tests: for *arbitrary* chains drawn from the
//! paper's Table 2 NFs and arbitrary traffic, the compiled NFP graph is
//! structurally sound and semantically equal to sequential composition —
//! the result correctness principle, as a property: the sync engine's
//! `process()` loop matches run-to-completion at the kit's byte order
//! level (outputs, drops and every NF's state), the multi-merger threaded
//! engine at the per-flow order level.

use nfp_core::prelude::*;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_testkit::corpus::arbitrary_packet;
use nfp_testkit::{chains, run, Chain, Entry, Executor, Level, Nfs, Outcome, Traffic, REPLAYABLE};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn compiled_graphs_are_structurally_sound(chain in chains(&REPLAYABLE, 1, REPLAYABLE.len())) {
        let g = &Chain::new(&chain).graph;
        prop_assert_eq!(g.validate(), Ok(()));
        prop_assert_eq!(g.nf_count(), chain.len());
        prop_assert!(g.equivalent_chain_length() <= chain.len());
        prop_assert!(g.equivalent_chain_length() >= 1);
        prop_assert!(g.copies_per_packet() < chain.len().max(1));
        // The graph compiles to a sealed, validated Program whose tables
        // cover every node.
        let program = Program::compile(g, 9).unwrap();
        prop_assert_eq!(program.tables().nf_configs.len(), chain.len());
        prop_assert_eq!(program.nf_count(), chain.len());
        prop_assert!(program.slots_per_packet() >= 1);
    }

    #[test]
    fn parallel_equals_sequential_for_any_chain_and_packet(
        chain in chains(&REPLAYABLE, 1, REPLAYABLE.len()),
        pkts in proptest::collection::vec(arbitrary_packet(400), 1..8),
    ) {
        replay(&chain, &pkts);
    }

    #[test]
    fn resource_overhead_equation_bounds_reality(
        size in 64usize..1500,
        degree in 2usize..=5,
    ) {
        let ro = nfp_sim::resource_overhead(size, degree);
        prop_assert!(ro >= 0.0);
        // A header copy can never exceed (d-1) full packets.
        prop_assert!(ro <= (degree - 1) as f64);
        // Monotone in degree.
        prop_assert!(nfp_sim::resource_overhead(size, degree + 1) > ro);
    }
}

/// Run-to-completion over `chain`, and the NFs whose state is not held to
/// it. Run-to-completion stamps no admission flow, so a stateful NF behind
/// an address or port rewrite keys its state by the rewritten tuple there
/// and by the admission flow in the engines ([`Chain::rekeyed`]): the
/// chain `LoadBalancer → VPN → IDS` diverged on IDS's one flow key. Their
/// outputs and drops are still compared.
fn run_to_completion(chain: &Chain, nfs: &Nfs, pkts: &[Packet]) -> (Outcome, Vec<String>) {
    let rekeyed = chain.rekeyed(nfs);
    let outcome = run(&Executor::Rtc, chain, nfs, pkts).without_state_of(&rekeyed);
    (outcome, rekeyed)
}

/// The sync engine's `process()` loop against run-to-completion, packet
/// by packet: byte order, drops and state.
fn replay(order: &[&str], pkts: &[Packet]) {
    let chain = Chain::new(order);
    let nfs = Nfs::catalogue();
    let (sequential, rekeyed) = run_to_completion(&chain, &nfs, pkts);
    let parallel = run(&Executor::sync(Entry::Process), &chain, &nfs, pkts);
    let at = format!("chain {order:?}");
    parallel
        .without_state_of(&rekeyed)
        .assert_matches(&sequential, Level::ByteOrder, at);
}

// ---------------------------------------------------------------------------
// Named regressions promoted from proptest failures.
//
// Both cases were found by `parallel_equals_sequential_for_any_chain_and_
// packet` and root-caused to the parallel-merge ordering bug: with two or
// more merger instances, merges completed in racy order and crossed the
// merge boundary out of sequence, so a stateful downstream NF (the VPN's
// per-packet sequence counter feeding its AES-CTR nonce and AH sequence
// field) produced byte-different output. The recorded payloads replay the
// original failures against the deterministic engine; the threaded variants
// re-run the same chains through the multi-merger engine, where the bug
// actually lived. See DESIGN.md "Merge-order sequencing".
// ---------------------------------------------------------------------------

/// Recorded payload from the first failing proptest case
/// (chain `["Monitor", "VPN", "IDS"]`).
const REGRESSION_PAYLOAD_1: [u8; 276] = [
    3, 185, 51, 235, 241, 103, 91, 73, 46, 213, 37, 141, 69, 193, 184, 47, 172, 103, 167, 102, 96,
    8, 20, 168, 108, 117, 65, 241, 92, 140, 206, 7, 199, 68, 67, 200, 174, 145, 74, 61, 144, 248,
    33, 51, 192, 45, 233, 99, 246, 153, 202, 179, 184, 136, 190, 183, 242, 255, 93, 251, 3, 70,
    154, 189, 196, 21, 234, 208, 243, 60, 213, 21, 192, 50, 230, 97, 145, 197, 216, 245, 17, 243,
    218, 139, 21, 64, 237, 109, 118, 207, 255, 217, 153, 46, 128, 80, 94, 167, 148, 145, 195, 139,
    214, 14, 47, 186, 110, 118, 26, 162, 55, 166, 83, 119, 6, 248, 205, 85, 252, 4, 163, 142, 82,
    57, 64, 36, 139, 165, 172, 171, 168, 158, 166, 37, 135, 38, 121, 255, 187, 120, 114, 145, 98,
    239, 36, 79, 224, 244, 241, 16, 192, 219, 128, 253, 223, 27, 138, 109, 123, 95, 200, 9, 142,
    55, 132, 241, 228, 209, 107, 78, 204, 108, 73, 134, 183, 29, 170, 180, 16, 6, 63, 232, 218,
    189, 240, 22, 22, 120, 14, 193, 235, 64, 142, 238, 46, 109, 13, 16, 90, 41, 96, 135, 234, 16,
    65, 132, 79, 16, 82, 82, 253, 118, 187, 248, 167, 60, 228, 121, 237, 84, 131, 160, 254, 221,
    124, 127, 138, 0, 205, 231, 27, 76, 159, 6, 18, 64, 146, 1, 251, 40, 8, 153, 75, 237, 254, 151,
    87, 187, 199, 200, 5, 56, 20, 136, 134, 116, 63, 214, 137, 129, 22, 205, 96, 85, 103, 141, 180,
    22, 250, 33, 164, 34, 9, 89, 72, 58,
];

/// Recorded payload from the second failing proptest case (the eight-NF
/// chain `["Firewall","Monitor","Proxy","LoadBalancer","Gateway",
/// "Compression","IDS","VPN"]`).
const REGRESSION_PAYLOAD_2: [u8; 308] = [
    149, 75, 79, 4, 84, 247, 135, 104, 239, 17, 105, 193, 98, 144, 192, 15, 51, 56, 131, 229, 123,
    26, 84, 155, 64, 67, 40, 215, 71, 158, 93, 231, 239, 79, 210, 7, 35, 9, 168, 4, 154, 88, 36,
    197, 3, 12, 71, 95, 221, 65, 88, 220, 12, 189, 115, 62, 231, 90, 90, 237, 236, 226, 160, 174,
    4, 122, 169, 66, 21, 5, 118, 97, 86, 11, 132, 88, 217, 50, 132, 218, 75, 94, 218, 170, 207,
    224, 19, 48, 181, 166, 52, 150, 219, 245, 34, 85, 164, 234, 37, 197, 220, 211, 157, 94, 212,
    19, 210, 37, 172, 233, 171, 69, 249, 11, 22, 189, 215, 131, 88, 44, 22, 178, 147, 53, 214, 154,
    77, 205, 167, 5, 193, 8, 232, 204, 22, 19, 157, 233, 231, 54, 37, 130, 144, 24, 254, 228, 154,
    190, 134, 104, 180, 215, 36, 187, 188, 80, 243, 239, 37, 16, 126, 61, 195, 134, 22, 22, 180,
    231, 3, 109, 187, 93, 243, 10, 88, 45, 206, 47, 127, 250, 138, 149, 144, 170, 81, 56, 172, 41,
    92, 186, 213, 87, 128, 167, 149, 112, 207, 186, 53, 181, 228, 213, 205, 124, 35, 174, 131, 19,
    216, 3, 124, 0, 214, 151, 87, 106, 132, 17, 18, 135, 10, 59, 205, 136, 82, 209, 127, 15, 40,
    232, 206, 174, 135, 60, 134, 67, 155, 44, 83, 162, 13, 254, 67, 154, 85, 40, 223, 48, 81, 122,
    32, 48, 76, 82, 210, 43, 35, 149, 214, 142, 5, 167, 30, 157, 209, 244, 139, 226, 185, 244, 94,
    231, 213, 113, 31, 145, 78, 178, 60, 103, 129, 190, 31, 188, 225, 30, 121, 0, 35, 62, 212, 3,
    248, 122, 229, 207, 129, 108, 100, 47, 210, 141, 127, 156, 102, 100, 75, 203,
];

const REGRESSION_CHAIN_1: [&str; 3] = ["Monitor", "VPN", "IDS"];
const REGRESSION_CHAIN_2: [&str; 8] = [
    "Firewall",
    "Monitor",
    "Proxy",
    "LoadBalancer",
    "Gateway",
    "Compression",
    "IDS",
    "VPN",
];

/// Replay recorded bytes through the deterministic engine and require
/// byte-identical output against run-to-completion.
fn replay_recorded(chain: &[&str], payload: &[u8]) {
    let pkt = nfp_traffic::gen::build_tcp_frame(
        Ipv4Addr::from_u32(0),
        Ipv4Addr::from_u32(0),
        0,
        0,
        payload,
    );
    replay(chain, &[pkt]);
}

/// Run the chain through the threaded engine with `mergers` merger
/// instances — the configuration the ordering bug needed — over distinct
/// packets (varied flows, firewall-deniable and IDS-triggering shares),
/// comparing the delivered frames in per-flow order, drops and state
/// against run-to-completion over the same traffic, `iters` times.
fn threaded_matches_sequential(order: &[&str], iters: usize, mergers: usize) {
    let chain = Chain::new(order);
    let nfs = Nfs::catalogue();
    let pkts = Traffic::mixed().build(160);
    let (sequential, rekeyed) = run_to_completion(&chain, &nfs, &pkts);
    let threaded = Executor::Engine(EngineConfig {
        max_in_flight: 16,
        mergers,
        keep_packets: true,
        ..EngineConfig::default()
    });
    for it in 0..iters {
        let at = format!("iter {it}: {order:?}");
        let parallel = run(&threaded, &chain, &nfs, &pkts).without_state_of(&rekeyed);
        parallel.assert_matches(&sequential, Level::PerFlow, at);
    }
}

#[test]
fn regression_monitor_vpn_ids_replay() {
    replay_recorded(&REGRESSION_CHAIN_1, &REGRESSION_PAYLOAD_1);
}

#[test]
fn regression_eight_nf_chain_replay() {
    replay_recorded(&REGRESSION_CHAIN_2, &REGRESSION_PAYLOAD_2);
}

#[test]
fn regression_monitor_vpn_ids_parallel_merge_order() {
    threaded_matches_sequential(&REGRESSION_CHAIN_1, 8, 3);
}

#[test]
fn regression_eight_nf_chain_parallel_merge_order() {
    threaded_matches_sequential(&REGRESSION_CHAIN_2, 8, 3);
}
