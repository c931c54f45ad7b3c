//! The switch only steers: a sequential program sealed through
//! `Program::via_switch` must run on the sync engine exactly as the same
//! program without it — the same frames in the same order, the same drops,
//! rejects and taxonomy, per-NF counters and NF state.

use nfp_orchestrator::{compile, CompileOptions, Registry};
use nfp_policy::Policy;
use nfp_testkit::{run, Chain, Entry, Executor, Level, Nfs, Traffic};

#[test]
fn switched_program_equals_unswitched_on_the_sync_engine() {
    let opts = CompileOptions {
        force_sequential: true,
        ..CompileOptions::default()
    };
    let nfs = Nfs::catalogue();
    let pkts = Traffic::adversarial().build(600);
    for order in [
        &["VPN", "Monitor", "Firewall", "LB"][..],
        &["IDS", "Monitor", "Gateway", "LB"],
    ] {
        let policy = Policy::from_chain(order.iter().copied());
        let graph = compile(&policy, &Registry::evaluated(), &[], &opts);
        let plain = Chain::from_graph(graph.unwrap().graph);
        let switched = Chain {
            program: plain.program.clone().via_switch().unwrap(),
            ..plain.clone()
        };
        for entry in [Entry::Process, Entry::Batch] {
            let want = run(&Executor::sync(entry), &plain, &nfs, &pkts);
            let stateful = want.state.iter().flatten().any(|nf| !nf.is_empty());
            assert!(
                want.dropped > 0 && stateful,
                "{order:?}: nothing to compare"
            );
            let got = run(&Executor::sync(entry), &switched, &nfs, &pkts);
            got.assert_matches(&want, Level::ByteOrder, format!("{order:?} {entry:?}"));
        }
    }
}
