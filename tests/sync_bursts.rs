//! Burst admission in the sync engine is invisible in everything it
//! produces.
//!
//! `SyncEngine::process` admits one packet and runs the graph dry;
//! `process_batch` and `run_io` admit windows of up to `w` packets (the
//! batch or the ingress burst, capped at the pool's capacity over the
//! program's `slots_per_packet`), so several PIDs are in flight at once
//! and the merger's accumulating table holds several entries. Chain
//! output and state must not depend on that interleaving (Khalid &
//! Akella, arXiv:1612.01497): for every graph and trace below, every
//! windowed entry point must equal a `process()` loop at the kit's byte
//! order level — delivered bytes in order, drop counts and taxonomy, each
//! NF's counters and `snapshot_state`, and the NF failures.
//!
//! Each comparison runs three times: with a roomy pool, with a pool of
//! three packets' worst-case footprint (windows of three, drained many
//! times inside one ingress burst), and with the fail-closed Firewall of
//! a parallel segment panicking part-way through the trace.

use nfp_nf::chaos::PanicAfter;
use nfp_nf::NetworkFunction;
use nfp_packet::Packet;
use nfp_testkit::corpus::{golden, hostile, GOLDEN_CLEAN, GOLDEN_MIXED};
use nfp_testkit::{run, Chain, Entry, Executor, Level, Nfs, Outcome};
use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// The graphs: Fig 13's east-west and north-south policies, a parallel
/// pair whose Firewall drops as a nil, and a stateful rewriting chain.
const GRAPHS: [&[&str]; 4] = [
    &["IDS", "Monitor", "LB"],
    &["VPN", "Monitor", "Firewall", "LB"],
    &["Monitor", "Firewall"],
    &["NAT", "LB"],
];

/// How the engine is built around a graph.
#[derive(Debug, Clone, Copy)]
enum Setup {
    /// A 64-slot pool.
    Roomy,
    /// A pool of three packets' worst-case footprint.
    SmallPool,
    /// A roomy pool, and every Firewall (fail-closed, in a parallel
    /// segment) panics after this many packets.
    Panicking(u64),
}

/// Run `pkts` through a fresh engine's `entry` on a thread of its own,
/// failing instead of hanging when the run never ends: a nil that waits
/// for a slot on a pool the window filled spins forever on one thread
/// (which is then left behind, unjoined).
fn observe_bounded(chain: &[&str], setup: Setup, entry: Entry, pkts: &[Packet]) -> Outcome {
    let chain = Chain::new(chain);
    let pool = match setup {
        Setup::SmallPool => 3 * chain.program.slots_per_packet(),
        Setup::Roomy | Setup::Panicking(_) => 64,
    };
    let nfs = match setup {
        Setup::Panicking(after) => Nfs::wrapping("Firewall", move |nf| {
            Box::new(PanicAfter::new(nf, after)) as Box<dyn NetworkFunction>
        }),
        Setup::Roomy | Setup::SmallPool => Nfs::catalogue(),
    };
    let (tx, rx) = mpsc::channel();
    let what = format!("{:?} {setup:?} {entry:?}", chain.order);
    let pkts = pkts.to_vec();
    // The receiver is gone only once the run has already timed out.
    let run = thread::spawn(move || {
        let sync = Executor::Sync { entry, pool };
        tx.send(run(&sync, &chain, &nfs, &pkts)).ok()
    });
    let observed = rx.recv_timeout(Duration::from_secs(60));
    if let Err(RecvTimeoutError::Timeout) = observed {
        panic!("{what}: still running after 60 s");
    }
    if let Err(panic) = run.join() {
        panic::resume_unwind(panic);
    }
    observed.expect("the run sent its result before it ended")
}

/// Every windowed entry point equals the `process()` loop on `setup`.
fn windows_match_one_at_a_time(setup: Setup) {
    let traces = [
        ("golden_mixed", golden(GOLDEN_MIXED)),
        ("golden_clean", golden(GOLDEN_CLEAN)),
        ("hostile", hostile(3, 5, 200)),
    ];
    for (trace, pkts) in traces {
        for chain in GRAPHS {
            if matches!(setup, Setup::Panicking(_)) && !chain.contains(&"Firewall") {
                continue;
            }
            let reference = observe_bounded(chain, setup, Entry::Process, &pkts);
            let at = format!("{trace} {chain:?} {setup:?}");
            assert!(!reference.delivered.is_empty(), "{at}: nothing delivered");
            assert_eq!(
                reference.failures.as_ref().unwrap().is_empty(),
                !matches!(setup, Setup::Panicking(_)),
                "{at}: the injected panic fires"
            );
            for entry in [
                Entry::Batch,
                Entry::RunIo(1),
                Entry::RunIo(7),
                Entry::RunIo(64),
            ] {
                observe_bounded(chain, setup, entry, &pkts).assert_matches(
                    &reference,
                    Level::ByteOrder,
                    format!("{at}: {entry:?} against a process() loop"),
                );
            }
        }
    }
}

#[test]
fn windows_match_one_at_a_time_with_a_roomy_pool() {
    windows_match_one_at_a_time(Setup::Roomy);
}

/// Windows of three packets' footprint drain many times inside one
/// ingress burst. A window that ignored `slots_per_packet` would fill the
/// pool with originals here and turn the north-south VPN's copy into an
/// `NfError` drop.
#[test]
fn windows_match_one_at_a_time_with_a_small_pool() {
    windows_match_one_at_a_time(Setup::SmallPool);
}

/// A fail-closed member of a parallel segment panics mid-trace (and so
/// mid-window): the packets behind it take its failure policy in the
/// same order either way.
#[test]
fn windows_match_one_at_a_time_when_a_parallel_member_panics() {
    windows_match_one_at_a_time(Setup::Panicking(37));
}
