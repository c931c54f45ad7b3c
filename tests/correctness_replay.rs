//! §6.4 result-correctness replay as an integration test: for every
//! evaluation chain, the compiled NFP graph must produce bit-identical
//! outputs, identical drop decisions and identical NF state to
//! sequential composition — including under traffic that triggers
//! firewall denies and IDS alerts.
//!
//! The sync engine's `process()` loop and ONVM's switch pipeline (a
//! switched sequential program on the threaded engine, one NF per thread)
//! are both held to run-to-completion at the kit's byte order level, NF
//! state included: every hop of a switched chain is a FIFO ring, so its
//! threads cannot reorder packets.

use nfp_testkit::{run, Chain, Entry, Executor, Level, Nfs, Traffic};

fn replay(order: &[&str], packets: usize) {
    let chain = Chain::new(order);
    let pkts = Traffic::adversarial().build(packets);
    let nfs = Nfs::catalogue();
    let sequential = run(&Executor::Rtc, &chain, &nfs, &pkts);
    assert!(
        sequential.dropped > 0,
        "chain {order:?}: replay never exercised drops"
    );
    let stateful = sequential.state.iter().flatten().any(|nf| !nf.is_empty());
    assert!(
        stateful,
        "chain {order:?}: no NF kept state, so the state comparison is vacuous"
    );
    let parallel = run(&Executor::sync(Entry::Process), &chain, &nfs, &pkts);
    parallel.assert_matches(&sequential, Level::ByteOrder, format!("chain {order:?}"));
    let onvm = run(&Executor::Onvm, &chain, &nfs, &pkts);
    onvm.assert_matches(
        &sequential,
        Level::ByteOrder,
        format!("ONVM, chain {order:?}"),
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
