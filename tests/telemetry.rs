//! Differential telemetry tests: the per-stage latency histograms and
//! sampled packet-path traces must tell the *same story* no matter which
//! executor ran the packets.
//!
//! The deterministic [`SyncEngine`] and the threaded [`Engine`] share
//! every dataplane core, so for identical traffic they must produce:
//!
//! 1. identical per-stage histogram totals (classify, each NF, agent,
//!    merger, collector),
//! 2. identical traced-PID sets (`pid % trace_every == 0` — sampling is
//!    keyed on the admission PID, not wall clock, precisely so the two
//!    executors sample the same packets), and
//! 3. per-packet hop multisets that agree hop-for-hop, with sequences
//!    that are valid walks of the compiled service graph — classifier
//!    first, mergers before the collector, collector terminal, and the
//!    admission epoch constant across every hop, including across a
//!    mid-run `reconfigure()`.
//!
//! A final structural test pins the zero-sampling contract: disabled
//! telemetry must never touch the monotonic clock and the per-stage calls
//! must be cheap enough to be invisible on the packet path.

use nfp_core::prelude::*;
use nfp_dataplane::telemetry::{
    stage_label, HistogramSnapshot, PacketTrace, Telemetry, CLOCK_PERIOD,
};
use nfp_orchestrator::Stage;
use nfp_testkit::corpus::arbitrary_packet;
use nfp_testkit::{
    chains, fail_open, Chain, Entry, Executor, Level, Nfs, Outcome, Runner, Traffic, REPLAYABLE,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn sampled_cfg(trace_every: u64) -> TelemetryConfig {
    TelemetryConfig {
        histograms: true,
        trace_every,
        trace_capacity: 1 << 20,
    }
}

/// Run the chain through the deterministic engine; returns the snapshot
/// and the outcome.
fn run_sync(chain: &[&str], pkts: &[Packet], trace_every: u64) -> (TelemetrySnapshot, Outcome) {
    let sync = Executor::Sync {
        entry: Entry::Process,
        pool: 256,
    };
    let mut engine = Runner::new(&sync, &Chain::new(chain), &Nfs::catalogue());
    engine.sync().set_telemetry(sampled_cfg(trace_every));
    engine.feed(pkts);
    (engine.sync().telemetry(), engine.outcome())
}

/// Run the chain through the threaded engine, one merger instance so the
/// merger-stage labels line up with the sync engine's `merger0`, and hold
/// it to the sync engine's outcome at the kit's per-flow order level (so
/// it keeps its delivered packets). The runner holds the run's report.
fn run_threaded(chain: &[&str], pkts: &[Packet], trace_every: u64, sync: &Outcome) -> Runner {
    let threaded = Executor::Engine(EngineConfig {
        max_in_flight: 16,
        mergers: 1,
        telemetry: sampled_cfg(trace_every),
        keep_packets: true,
        ..EngineConfig::default()
    });
    let mut engine = Runner::new(&threaded, &Chain::new(chain), &Nfs::catalogue());
    engine.feed(pkts);
    let at = format!("threaded against sync, {chain:?}");
    engine.outcome().assert_matches(sync, Level::PerFlow, at);
    engine
}

/// A hop reduced to its executor-independent identity: which stage saw
/// which copy in which state. (Timestamps and racy sibling order differ.)
fn hop_key(h: &nfp_dataplane::TraceHop) -> (String, u8, bool) {
    (stage_label(h.stage), h.version, h.nil)
}

/// Per-PID sorted hop multisets — the comparable essence of a trace set.
fn trace_essence(snap: &TelemetrySnapshot) -> BTreeMap<u64, Vec<(String, u8, bool)>> {
    let mut out = BTreeMap::new();
    for trace in snap.traces() {
        let mut keys: Vec<_> = trace.hops.iter().map(hop_key).collect();
        keys.sort();
        let prev = out.insert(trace.pid, keys);
        assert!(
            prev.is_none(),
            "pid {} traced twice in one snapshot",
            trace.pid
        );
    }
    out
}

/// Every trace must be a valid walk of the compiled service graph.
fn assert_valid_walk(trace: &PacketTrace, nf_count: usize, mergers: usize) {
    let hops = &trace.hops;
    assert!(!hops.is_empty(), "empty trace for pid {}", trace.pid);
    assert!(
        matches!(hops[0].stage, Stage::Classifier),
        "pid {}: first hop {:?}, not the classifier",
        trace.pid,
        hops[0].stage
    );
    let epoch = hops[0].epoch;
    let mut collector_seen = false;
    for (i, h) in hops.iter().enumerate() {
        assert_eq!(
            h.epoch, epoch,
            "pid {}: epoch changed mid-trace at hop {i}",
            trace.pid
        );
        assert!(
            !collector_seen,
            "pid {}: hop {:?} after the collector",
            trace.pid, h.stage
        );
        match h.stage {
            Stage::Classifier => {
                assert_eq!(i, 0, "pid {}: classifier hop not first", trace.pid)
            }
            Stage::Nf(id) => assert!(id < nf_count, "pid {}: NF {id} out of range", trace.pid),
            Stage::Agent | Stage::Switch => {}
            Stage::Merger(m) => assert!(m < mergers, "pid {}: merger {m} out of range", trace.pid),
            Stage::Collector => collector_seen = true,
        }
    }
    // Merger-before-collector holds by construction here: the collector
    // hop is terminal, so any merger hop precedes it. (Chains whose whole
    // graph is one sequential NF can deliver without a merge stage at
    // all, so a merger hop is not required for delivery.)
}

/// The full differential contract between the two executors' snapshots.
fn assert_snapshots_agree(
    sync: &TelemetrySnapshot,
    threaded: &TelemetrySnapshot,
    trace_every: u64,
    nf_count: usize,
    chain: &[&str],
) {
    assert_eq!(sync.trace_drops, 0, "sync trace buffer overflowed");
    assert_eq!(threaded.trace_drops, 0, "threaded trace buffer overflowed");

    // 1. Histogram totals per stage.
    for st in &sync.stages {
        let other = threaded
            .stage(&st.label)
            .unwrap_or_else(|| panic!("threaded snapshot lacks stage {}", st.label));
        assert_eq!(
            st.hist.count, other.hist.count,
            "histogram totals diverge at stage {} for {chain:?}",
            st.label
        );
    }
    assert_eq!(sync.stages.len(), threaded.stages.len());

    // 2. Same traced PIDs, each a multiple of the sampling interval.
    let a = trace_essence(sync);
    let b = trace_essence(threaded);
    let pids_a: BTreeSet<u64> = a.keys().copied().collect();
    let pids_b: BTreeSet<u64> = b.keys().copied().collect();
    assert_eq!(pids_a, pids_b, "traced PID sets diverge for {chain:?}");
    for pid in &pids_a {
        assert_eq!(pid % trace_every, 0, "pid {pid} traced off-sample");
    }

    // 3. Hop-for-hop agreement per traced packet.
    for (pid, hops) in &a {
        assert_eq!(
            hops, &b[pid],
            "hop multiset diverges for pid {pid} in {chain:?}"
        );
    }

    // 4. Both trace sets are valid walks (one merger in both setups).
    for trace in sync.traces().iter().chain(threaded.traces().iter()) {
        assert_valid_walk(trace, nf_count, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// The differential property: for arbitrary chains over the seed NFs
    /// and arbitrary traffic, both executors emit the same telemetry.
    #[test]
    fn executors_emit_identical_telemetry(
        chain in chains(&REPLAYABLE, 1, REPLAYABLE.len()),
        pkts in proptest::collection::vec(arbitrary_packet(200), 1..24),
        trace_every in 1u64..4,
    ) {
        let (sync_snap, sync) = run_sync(&chain, &pkts, trace_every);
        let threaded = run_threaded(&chain, &pkts, trace_every, &sync);
        let report = threaded.report();
        assert_snapshots_agree(&sync_snap, &report.telemetry, trace_every, chain.len(), &chain);

        // Histogram totals reconcile with the threaded engine's own
        // per-stage packet counters: every message a stage ingested was
        // timed, nothing more.
        prop_assert_eq!(
            sync_snap.stage("classifier").unwrap().hist.count,
            report.injected,
            "classifier histogram must count every admitted packet"
        );
        for (i, nf) in report.stats.nfs.iter().enumerate() {
            prop_assert_eq!(
                report.telemetry.stage(&format!("nf{i}")).unwrap().hist.count,
                nf.packets_in,
                "nf{} histogram vs stage counter", i
            );
        }
        prop_assert_eq!(
            report.telemetry.stage("agent").unwrap().hist.count,
            report.stats.agent.packets_in,
            "agent histogram vs stage counter"
        );
        prop_assert_eq!(
            report.telemetry.stage("merger0").unwrap().hist.count,
            report.stats.mergers[0].packets_in,
            "merger histogram vs stage counter"
        );
        prop_assert_eq!(
            report.telemetry.stage("collector").unwrap().hist.count,
            report.stats.collector.packets_in,
            "collector histogram vs stage counter"
        );
    }
}

/// Full-sampling differential over the eight-NF seed chain with mixed
/// (deniable + malicious) traffic: every packet is traced, so the trace
/// set must reconcile *exactly* with the delivered/dropped split — a
/// collector hop if and only if the packet was delivered.
#[test]
fn full_sampling_traces_reconcile_with_drop_accounting() {
    const CHAIN: [&str; 8] = [
        "Firewall",
        "Monitor",
        "Proxy",
        "LoadBalancer",
        "Gateway",
        "Compression",
        "IDS",
        "VPN",
    ];
    let pkts = Traffic::mixed().build(160);
    let (sync_snap, sync) = run_sync(&CHAIN, &pkts, 1);
    let threaded = run_threaded(&CHAIN, &pkts, 1, &sync);
    let report = threaded.report();
    let (delivered, dropped) = (sync.delivered.len() as u64, sync.dropped);
    assert!(dropped > 0, "mixed traffic must exercise the drop paths");
    assert_snapshots_agree(&sync_snap, &report.telemetry, 1, CHAIN.len(), &CHAIN);

    for snap in [&sync_snap, &report.telemetry] {
        let traces = snap.traces();
        assert_eq!(
            traces.len() as u64,
            delivered + dropped,
            "with trace_every=1 every admitted packet leaves a trace"
        );
        let with_collector = traces
            .iter()
            .filter(|t| t.hops.iter().any(|h| matches!(h.stage, Stage::Collector)))
            .count() as u64;
        assert_eq!(with_collector, delivered, "collector hop iff delivered");
        assert_eq!(
            traces.len() as u64 - with_collector,
            dropped,
            "traces ending before the collector are exactly the drops"
        );
    }
}

/// Under a mid-run `reconfigure()` on the deterministic engine, each
/// trace stays pinned to its admission epoch: packets admitted before the
/// swap carry the old epoch on every hop, packets after carry the new one,
/// and no trace mixes the two.
#[test]
fn sync_reconfigure_keeps_traces_epoch_constant() {
    const CHAIN: [&str; 2] = ["Monitor", "Firewall"];
    let mut chain = Chain::new(&CHAIN);
    chain.program = chain.program.with_epoch(1);
    let new = Chain::with_registry(&CHAIN, &fail_open(Registry::paper_table2(), "Firewall"));
    let sync = Executor::sync(Entry::Process);
    let mut engine = Runner::new(&sync, &chain, &Nfs::catalogue());
    engine.sync().set_telemetry(sampled_cfg(1));
    let pkts = Traffic::mixed().build(60);
    engine.feed(&pkts[..30]);
    engine.reconfigure(&new.program);
    engine.feed(&pkts[30..]);

    let snap = engine.sync().telemetry();
    let traces = snap.traces();
    assert_eq!(traces.len(), 60);
    for trace in &traces {
        assert_valid_walk(trace, CHAIN.len(), 1);
        let expect = if trace.pid < 30 { 1 } else { 2 };
        assert_eq!(
            trace.hops[0].epoch, expect,
            "pid {} admitted under the wrong epoch",
            trace.pid
        );
    }
}

/// The same epoch-constancy contract on the threaded engine, with the
/// swap fired from a detached controller mid-stream: wherever it lands,
/// every trace is a valid single-epoch walk and the epochs observed are
/// exactly the programs that ran.
#[test]
fn threaded_reconfigure_keeps_traces_epoch_constant() {
    const CHAIN: [&str; 2] = ["Monitor", "Firewall"];
    let new = Chain::with_registry(&CHAIN, &fail_open(Registry::paper_table2(), "Firewall"));
    let new = new.program.with_epoch(1);
    let config = EngineConfig {
        max_in_flight: 8,
        mergers: 1,
        telemetry: sampled_cfg(1),
        ..EngineConfig::default()
    };
    let chain = Chain::new(&CHAIN);
    let nfs = Nfs::catalogue().build(&chain.nodes());
    let mut engine = Engine::new(chain.program, nfs, config).unwrap();
    let controller = engine.controller();
    let swap = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(3));
        controller.reconfigure(new)
    });
    let report = engine.run(Traffic::mixed().build(2000));
    swap.join().unwrap().expect("policy edit must hot-swap");

    assert_eq!(report.telemetry.trace_drops, 0);
    let traces = report.telemetry.traces();
    assert_eq!(
        traces.len() as u64,
        report.delivered + report.dropped,
        "every admitted packet leaves a trace at trace_every=1"
    );
    let mut epochs = BTreeSet::new();
    for trace in &traces {
        assert_valid_walk(trace, CHAIN.len(), 1);
        epochs.insert(trace.hops[0].epoch);
    }
    assert!(
        epochs.iter().all(|e| *e == 0 || *e == 1),
        "unexpected epochs {epochs:?}"
    );
}

/// East-west (Fig 13): `IDS -> [Monitor | LB]` — one copy, one merge.
const EAST_WEST: [&str; 3] = ["IDS", "Monitor", "LoadBalancer"];

/// Messages one packet brings to a stage of the east-west graph in one
/// `SyncEngine::process` call, i.e. the stage's burst length there: both
/// parallel members' outputs reach the agent, then the merger, together.
fn east_west_burst(label: &str) -> u64 {
    match label {
        "agent" | "merger0" => 2,
        _ => 1,
    }
}

/// What every histogram snapshot must satisfy, clocked burst or not:
/// the buckets hold exactly `count` observations and no more of them
/// were clocked than one burst of `east_west_burst` messages per period.
fn assert_histogram_identities(at: &str, label: &str, h: &HistogramSnapshot) {
    let burst = east_west_burst(label);
    let label = format!("{label} {at}");
    assert_eq!(
        h.buckets.iter().sum::<u64>(),
        h.count,
        "{label}: buckets do not add up to count"
    );
    if h.count > 0 {
        assert!(
            1 <= h.timed && h.timed <= (h.count / CLOCK_PERIOD + 1) * burst,
            "{label}: timed {} of count {} at period {CLOCK_PERIOD}",
            h.timed,
            h.count
        );
        assert!(h.sum_ns >= h.max_ns, "{label}: sum below max");
    } else {
        assert_eq!(h.timed, 0, "{label}: timed without a count");
    }
}

/// One-message bursts (`SyncEngine::process`): every message is counted,
/// one burst per period is clocked. Around the period boundary and well
/// past it, each stage's `count` equals the messages the stage stepped —
/// the threaded engine's own per-stage `packets_in` for the same traffic
/// (for the classifier: admitted packets).
#[test]
fn one_message_bursts_count_every_message_and_clock_one_per_period() {
    let pkts = Traffic::mixed().build(5000);
    for n in [1usize, 15, 16, 17, 5000] {
        let (snap, sync) = run_sync(&EAST_WEST, &pkts[..n], 0);
        let threaded = run_threaded(&EAST_WEST, &pkts[..n], 0, &sync);
        let report = threaded.report();
        let stats = &report.stats;
        let mut stepped = vec![
            ("classifier".to_string(), report.injected),
            ("agent".to_string(), stats.agent.packets_in),
            ("merger0".to_string(), stats.mergers[0].packets_in),
            ("collector".to_string(), stats.collector.packets_in),
        ];
        for (i, nf) in stats.nfs.iter().enumerate() {
            stepped.push((format!("nf{i}"), nf.packets_in));
        }
        for (label, messages) in &stepped {
            let hist = &snap.stage(label).unwrap().hist;
            assert!(*messages > 0, "{label} is not traversed at n = {n}");
            assert_eq!(hist.count, *messages, "{label} at n = {n}");
            assert_histogram_identities(&format!("at n = {n}"), label, hist);
        }
    }
}

/// A snapshot taken mid-period carries the uncredited tail in the last
/// observed bucket — in the copy only: more traffic and a second snapshot
/// must not count those messages twice.
#[test]
fn mid_period_snapshot_credits_the_tail_exactly_once() {
    let sync = Executor::Sync {
        entry: Entry::Process,
        pool: 256,
    };
    let mut engine = Runner::new(&sync, &Chain::new(&EAST_WEST), &Nfs::catalogue());
    let first = CLOCK_PERIOD as usize + 5; // five messages past a clocked burst
    let pkts = Traffic::mixed().build(first + 100);

    engine.feed(&pkts[..first]);
    let mid = engine.sync().telemetry();
    engine.feed(&pkts[first..]);
    let end = engine.sync().telemetry();

    let classifier = &mid.stage("classifier").unwrap().hist;
    assert_eq!((classifier.count, classifier.timed), (first as u64, 2));
    for (snap, sent) in [(&mid, first), (&end, pkts.len())] {
        assert_eq!(snap.stage("classifier").unwrap().hist.count, sent as u64);
        for st in &snap.stages {
            assert_histogram_identities(&format!("after {sent}"), &st.label, &st.hist);
        }
    }
}

/// The two-shard roll-up (`absorb`) keeps the identities: per stage the
/// fleet's `count` and `timed` are the sums over the shards and the
/// buckets still add up to `count`.
#[test]
fn sharded_roll_up_keeps_buckets_equal_to_count_and_sums_timed() {
    let config = EngineConfig {
        max_in_flight: 8,
        mergers: 1,
        ..EngineConfig::default()
    };
    let chain = Chain::new(&EAST_WEST);
    let nodes = chain.nodes();
    let make = move || Nfs::catalogue().build(&nodes);
    let mut fleet = ShardedEngine::new(&chain.program, make, &config, 2).unwrap();
    let shards = fleet.run_per_shard(Traffic::mixed().build(600));
    assert!(shards.iter().all(|r| r.injected > 0), "a shard sat idle");
    let mut fleet_wide = TelemetrySnapshot::empty();
    for shard in &shards {
        fleet_wide.merge(&shard.telemetry);
    }
    for st in &fleet_wide.stages {
        let parts = shards
            .iter()
            .map(|r| &r.telemetry.stage(&st.label).unwrap().hist);
        let (count, timed) = parts.fold((0, 0), |(c, t), h| (c + h.count, t + h.timed));
        assert_eq!(
            (st.hist.count, st.hist.timed),
            (count, timed),
            "{}",
            st.label
        );
        assert_eq!(
            st.hist.buckets.iter().sum::<u64>(),
            st.hist.count,
            "{}: buckets do not add up after absorb",
            st.label
        );
        assert!(st.hist.timed <= st.hist.count, "{}", st.label);
    }
    let admitted = shards
        .iter()
        .map(|r| r.injected - r.stats.classifier.rejects());
    let classifier = &fleet_wide.stage("classifier").unwrap().hist;
    assert_eq!(classifier.count, admitted.sum::<u64>());
}

/// The zero-sampling contract, structurally: a disabled `Telemetry` never
/// reads the monotonic clock (`begin()` is `None`) and the three per-stage
/// calls the engines make are cheap enough to disappear on the packet
/// path. The wall-clock bound is deliberately loose (hundreds of ns per
/// call on any plausible host is still passing) — the real overhead
/// number comes from `cargo run --release --bin telemetry_overhead`.
#[test]
fn zero_sampling_telemetry_is_near_free() {
    let tele = Telemetry::off();
    assert!(
        tele.begin(Stage::Classifier, 1).is_none(),
        "disabled clock must not tick"
    );
    assert!(!tele.tracing());

    let pool = PacketPool::new(4);
    let r = pool
        .insert(Packet::from_bytes(&[0u8; 60]).unwrap())
        .unwrap();
    const ITERS: u64 = 2_000_000;
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        let t = std::hint::black_box(&tele).begin(Stage::Classifier, 1);
        tele.end(std::hint::black_box(Stage::Classifier), t, 1);
        tele.trace_ref(std::hint::black_box(Stage::Agent), &pool, r);
    }
    let per_iter_ns = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    assert!(
        per_iter_ns < 1000.0,
        "disabled telemetry costs {per_iter_ns:.0} ns per stage touch — not near-zero"
    );
    // And disabled recording leaves no observable state behind.
    let snap = tele.snapshot();
    assert_eq!(snap.total_count(), 0);
    assert!(snap.hops.is_empty());
}
