//! The traced pass: per-layer numbers, measured from outside each layer
//! by timing its public calls, and the closure check that they add up.
//!
//! Separate from the end-to-end pass on purpose — this pass wraps calls
//! in spans, times single packets and turns the engines' histograms on,
//! all of which cost time the end-to-end numbers must not carry. What
//! that costs is itself reported (`trace.overhead_frac`,
//! `telemetry.*_overhead_frac`).

use crate::drive::{rtc_pass, sync_pass, threaded_pass, Pass, Tally};
use crate::endtoend::{
    latency_trial, timed_trials, Plan, Prepared, LATENCY_WINDOW, THROUGHPUT_WINDOW,
};
use crate::host::{rss_mb, HostFacts};
use crate::spans::Recorder;
use crate::stats::{median, percentile_sorted};
use crate::workloads::{make_nfs, Input};
use nfp_baseline::{OnvmPipeline, RunToCompletion};
use nfp_dataplane::actions::{Deliver, Msg};
use nfp_dataplane::engine::{Engine, EngineConfig};
use nfp_dataplane::merger::{arrival_from, resolve_and_merge, Arrival, MergeOutcome};
use nfp_dataplane::shard::ShardedEngine;
use nfp_dataplane::swap::ProgramHandle;
use nfp_dataplane::telemetry::{HistogramSnapshot, TelemetryConfig, TelemetrySnapshot};
use nfp_dataplane::{ring, Classifier, StageStats};
use nfp_io::pcap::PcapFormat;
use nfp_io::{PcapEgress, PcapIngress};
use nfp_nf::{PacketView, Verdict};
use nfp_orchestrator::graph::CopyKind;
use nfp_orchestrator::tables::{FtAction, GraphTables, MergeSpec, Target};
use nfp_orchestrator::{compile, CompileOptions, Program};
use nfp_packet::io::{Egress, Ingress};
use nfp_packet::pool::PacketPool;
use nfp_packet::{Metadata, Packet};
use nfp_policy::parse_policy;
use nfp_sim::CostModel;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Packets handed to an NF (or the classifier, the merger…) between two
/// clock reads: large enough that the clock costs < 1 ns per packet,
/// small enough that the batch stays in L1/L2 as it would in the engines.
const BATCH: usize = 32;

/// `sync.unattributed_frac` above this flags the workload's row.
pub const UNATTRIBUTED_FLAG: f64 = 0.15;

/// The per-layer numbers of one workload.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric name → value. Every name in `metrics::PER_LAYER` is present.
    pub values: BTreeMap<&'static str, f64>,
    /// Rows a reader must not take at face value, and why.
    pub flags: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        let old = self.values.insert(name, value);
        debug_assert!(old.is_none(), "metric `{name}` set twice");
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Median ns per operation of `batch`, which times one fixed batch of
/// work and returns `(elapsed, operations)`. One discarded warm-up, then
/// at least five batches and as many as fit in `budget`.
fn probe(
    rec: &mut Recorder,
    name: &str,
    budget: Duration,
    mut batch: impl FnMut() -> (Duration, u64),
) -> f64 {
    let span = rec.enter(name);
    let samples = timed_trials(budget, 5, || {
        let (elapsed, ops) = batch();
        elapsed.as_nanos() as f64 / ops.max(1) as f64
    });
    rec.exit(span);
    median(&samples)
}

/// A `Deliver` sink that gives every reference straight back to the pool.
struct ReleaseSink<'a>(&'a PacketPool);

impl Deliver for ReleaseSink<'_> {
    fn deliver(&mut self, _target: Target, msg: Msg) {
        self.0.release(msg.r);
    }
}

/// Every forwarding action in the sealed tables, wherever it is installed.
fn all_actions(tables: &GraphTables) -> impl Iterator<Item = &FtAction> {
    tables
        .entry_actions
        .iter()
        .chain(tables.nf_configs.iter().flat_map(|c| c.actions.iter()))
        .chain(tables.merge_specs.iter().flat_map(|m| m.next.iter()))
}

/// Copy actions anywhere in the sealed tables, by kind: `(header, full)`.
pub fn copies_per_packet(tables: &GraphTables) -> (usize, usize) {
    all_actions(tables).fold((0, 0), |(header, full), action| match action {
        FtAction::Copy {
            kind: CopyKind::Full,
            ..
        } => (header, full + 1),
        FtAction::Copy { .. } => (header + 1, full),
        _ => (header, full),
    })
}

/// How the copy tagged `version` is made (header-only unless the tables
/// say full).
fn copy_kind_of(tables: &GraphTables, version: u8) -> CopyKind {
    all_actions(tables)
        .find_map(|a| match a {
            FtAction::Copy { to, kind, .. } if *to == version => Some(*kind),
            _ => None,
        })
        .unwrap_or(CopyKind::HeaderOnly)
}

/// The frames the probes run on: the trial input's packets, parsed, split
/// into those the classifier admits and those it rejects.
struct Frames {
    admitted: Vec<Packet>,
    rejected: Vec<Packet>,
    /// The admitted frame whose length is nearest the mean.
    typical: Packet,
}

impl Frames {
    fn of(input: &Input) -> Self {
        let (mut admitted, mut rejected) = (Vec::new(), Vec::new());
        for mut p in input.packets() {
            if p.parse().is_ok() {
                admitted.push(p);
            } else {
                rejected.push(p);
            }
        }
        let mean = admitted.iter().map(|p| p.len() as f64).sum::<f64>() / admitted.len() as f64;
        let typical = admitted
            .iter()
            .min_by(|a, b| {
                (a.len() as f64 - mean)
                    .abs()
                    .total_cmp(&(b.len() as f64 - mean).abs())
            })
            .expect("the workload admits at least one frame")
            .clone();
        Self {
            admitted,
            rejected,
            typical,
        }
    }
}

/// `policy` and `orchestrator`: the set-up path, phase by phase.
fn setup_probes(prep: &Prepared, budget: Duration, rec: &mut Recorder, out: &mut Layers) {
    let w = prep.workload;
    match w.policy {
        None => {
            out.set("policy.parse_us", 0.0);
            out.set("orchestrator.compile_us", 0.0);
        }
        Some(text) => {
            let ns = probe(rec, "policy.parse", budget, || {
                let t = Instant::now();
                for _ in 0..BATCH {
                    black_box(parse_policy(black_box(text)).expect("policy parses"));
                }
                (t.elapsed(), BATCH as u64)
            });
            out.set("policy.parse_us", ns / 1e3);
            let policy = parse_policy(text).expect("policy parses");
            let opts = CompileOptions::default();
            let ns = probe(rec, "orchestrator.compile", budget, || {
                let t = Instant::now();
                for _ in 0..BATCH {
                    black_box(compile(&policy, &prep.registry, &[], &opts).expect("compiles"));
                }
                (t.elapsed(), BATCH as u64)
            });
            out.set("orchestrator.compile_us", ns / 1e3);
        }
    }
    let ns = probe(rec, "orchestrator.seal", budget, || {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(Program::compile(&prep.graph, 1).expect("seals"));
        }
        (t.elapsed(), BATCH as u64)
    });
    out.set("orchestrator.seal_us", ns / 1e3);
}

/// `packet`: pool slot churn, the two copy kinds at the workload's mean
/// frame, and the checksum pass every delivered packet pays.
fn packet_probes(frames: &Frames, budget: Duration, rec: &mut Recorder, out: &mut Layers) {
    const OPS: u64 = 4096;
    let pool = PacketPool::new(64);

    let mut pkt = Some(frames.typical.clone());
    let ns = probe(rec, "packet.pool_insert_release", budget, || {
        let t = Instant::now();
        for _ in 0..OPS {
            let r = pool
                .insert(pkt.take().expect("packet in hand"))
                .expect("slot free");
            pkt = Some(pool.take(r));
        }
        (t.elapsed(), OPS)
    });
    out.set("packet.pool_insert_release_ns", ns);

    let r = pool.insert(frames.typical.clone()).expect("slot free");
    let ns = probe(rec, "packet.copy_header", budget, || {
        let t = Instant::now();
        for _ in 0..OPS {
            let c = pool.header_only_copy(r, 2).expect("header copy");
            pool.release(c);
        }
        (t.elapsed(), OPS)
    });
    out.set("packet.copy_header_ns", ns);
    let ns = probe(rec, "packet.copy_full", budget, || {
        let t = Instant::now();
        for _ in 0..OPS {
            let c = pool.full_copy(r, 2).expect("full copy");
            pool.release(c);
        }
        (t.elapsed(), OPS)
    });
    out.set("packet.copy_full_ns", ns);
    pool.release(r);

    let mut batch: Vec<Packet> = frames.admitted.iter().take(1024).cloned().collect();
    let ns = probe(rec, "packet.finalize_checksums", budget, || {
        let t = Instant::now();
        for p in &mut batch {
            p.finalize_checksums().ok();
        }
        (t.elapsed(), batch.len() as u64)
    });
    out.set("packet.finalize_checksums_ns", ns);
}

/// `dataplane::ring`: one hop of a `Msg`, singly and in 32-item bursts.
fn ring_probes(frames: &Frames, budget: Duration, rec: &mut Recorder, out: &mut Layers) {
    const OPS: u64 = 1 << 15;
    let pool = PacketPool::new(4);
    let msg = Msg::plain(pool.insert(frames.typical.clone()).expect("slot free"));
    let (tx, rx) = ring::channel::<Msg>(256);
    let ns = probe(rec, "ring.hop", budget, || {
        let t = Instant::now();
        for _ in 0..OPS {
            tx.push(black_box(msg)).expect("ring has room");
            black_box(rx.pop());
        }
        (t.elapsed(), OPS)
    });
    out.set("ring.hop_ns", ns);

    let burst = [msg; BATCH];
    let mut popped = Vec::with_capacity(BATCH);
    let ns = probe(rec, "ring.burst_hop", budget, || {
        let t = Instant::now();
        for _ in 0..OPS / BATCH as u64 {
            black_box(tx.push_burst(black_box(&burst)));
            rx.pop_burst(&mut popped, BATCH);
            black_box(&popped);
            popped.clear();
        }
        (t.elapsed(), OPS)
    });
    out.set("ring.burst_hop_ns", ns);
    pool.release(msg.r);
}

/// `dataplane::classifier`: admission against the workload's own tables
/// into a null sink, and the reject path on frames that do not parse.
fn classifier_probes(
    prep: &Prepared,
    frames: &Frames,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Layers,
) {
    let handle = Arc::new(ProgramHandle::new(prep.program.clone()));
    let mut classifier = Classifier::live(Arc::clone(&handle));
    let pool = PacketPool::new(64);
    let stats = StageStats::new();
    let epoch = handle.epoch();

    // The whole trial's frames, freshly cloned: the classifier is the
    // first stage to touch a packet, so it pays the cache miss.
    let ns = probe(rec, "classifier.admit", budget, || {
        let batch = frames.admitted.clone();
        let n = batch.len() as u64;
        let mut sink = ReleaseSink(&pool);
        let t = Instant::now();
        for pkt in batch {
            classifier
                .admit(pkt, &pool, &mut sink, &stats)
                .expect("admitted frame");
            handle.finish(epoch);
        }
        (t.elapsed(), n)
    });
    out.set("classifier.admit_ns", ns);
    assert_eq!(pool.in_use(), 0, "the null sink releases every reference");

    if frames.rejected.is_empty() {
        out.set("classifier.reject_ns", 0.0);
        return;
    }
    let template: Vec<Packet> = frames.rejected.iter().take(1024).cloned().collect();
    let ns = probe(rec, "classifier.reject", budget, || {
        let batch = template.clone();
        let n = batch.len() as u64;
        let mut sink = ReleaseSink(&pool);
        let t = Instant::now();
        for pkt in batch {
            black_box(classifier.admit(pkt, &pool, &mut sink, &stats).is_err());
        }
        (t.elapsed(), n)
    });
    out.set("classifier.reject_ns", ns);
}

/// `nf`: each NF of the chain on the frames it really sees — NF k gets
/// what NFs 0..k left of the packet, in batches of 32 so each batch is
/// still cache-warm when the next NF takes it. A batch is copied just
/// before NF 0 runs, so every NF sees warm headers: in the engines the
/// classifier has already pulled them into cache (and the classifier
/// probe is the one charged for that miss).
/// Returns ns per *offered* packet for the whole chain, and ns per packet
/// seen for each NF instance.
fn nf_probes(
    prep: &Prepared,
    frames: &Frames,
    offered: usize,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Layers,
) -> (f64, Vec<f64>) {
    let names = &prep.names;
    let mut nfs = make_nfs(names);
    let span = rec.enter("nf.chain");
    // Per pass: (ns spent, packets seen) for every NF instance.
    let passes: Vec<Vec<(f64, u64)>> = timed_trials(budget, 3, || {
        let mut acc = vec![(0f64, 0u64); nfs.len()];
        for chunk in frames.admitted.chunks(BATCH) {
            let mut live: Vec<Packet> = chunk.to_vec();
            for (i, nf) in nfs.iter_mut().enumerate() {
                let mut keep = Vec::with_capacity(live.len());
                let t = Instant::now();
                for pkt in &mut live {
                    let mut view = PacketView::Exclusive(pkt);
                    keep.push(nf.process(&mut view) != Verdict::Drop);
                }
                acc[i].0 += t.elapsed().as_nanos() as f64;
                acc[i].1 += live.len() as u64;
                let mut k = keep.into_iter();
                live.retain(|_| k.next().unwrap_or(false));
            }
        }
        acc
    });
    rec.exit(span);

    // Per instance: median over passes of ns per packet seen, and of ns
    // per offered packet (what the chain total is made of).
    let per_seen: Vec<f64> = (0..names.len())
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| p[i].0 / p[i].1.max(1) as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let per_offered: Vec<f64> = (0..names.len())
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| p[i].0 / offered as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    for (metric, ty) in [
        ("nf.forwarder_ns", "Forwarder"),
        ("nf.firewall_ns", "Firewall"),
        ("nf.monitor_ns", "Monitor"),
        ("nf.lb_ns", "LB"),
        ("nf.vpn_ns", "VPN"),
        ("nf.ids_ns", "IDS"),
    ] {
        let of_type: Vec<f64> = names
            .iter()
            .zip(&per_seen)
            .filter(|(n, _)| n.split('#').next() == Some(ty))
            .map(|(_, v)| *v)
            .collect();
        let mean = if of_type.is_empty() {
            0.0
        } else {
            of_type.iter().sum::<f64>() / of_type.len() as f64
        };
        out.set(metric, mean);
    }
    let chain: f64 = per_offered.iter().sum();
    out.set("nf.chain_ns", chain);
    (chain, per_seen)
}

/// Build the arrivals one packet presents to `spec`'s merger: the v1
/// original (one share per v1 member) plus one copy per copied member.
fn arrivals_for(
    spec: &MergeSpec,
    tables: &GraphTables,
    pool: &PacketPool,
    frame: &Packet,
) -> Vec<Arrival> {
    let mut original = frame.clone();
    original.set_meta(Metadata::new(tables.mid, 1, 1));
    let v1 = pool.insert(original).expect("slot free");
    let mut arrivals = Vec::with_capacity(spec.members.len());
    let mut v1_shares = 0;
    for m in &spec.members {
        if m.version == 1 {
            if v1_shares > 0 {
                pool.retain(v1);
            }
            v1_shares += 1;
            arrivals.push(arrival_from(pool, v1));
        } else {
            let copy = match copy_kind_of(tables, m.version) {
                CopyKind::Full => pool.full_copy(v1, m.version),
                _ => pool.header_only_copy(v1, m.version),
            }
            .expect("copy");
            arrivals.push(arrival_from(pool, copy));
        }
    }
    if v1_shares == 0 {
        // No member works on the original: the merger still receives it.
        arrivals.push(arrival_from(pool, v1));
    }
    arrivals
}

/// `dataplane::merger`: the program's actual merge specs through
/// `resolve_and_merge`, ns per packet summed over the specs.
fn merger_probes(
    prep: &Prepared,
    frames: &Frames,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Layers,
) -> f64 {
    let tables = prep.program.tables();
    let (header, full) = copies_per_packet(tables);
    out.set("merger.copies_per_pkt", (header + full) as f64);
    out.set("merger.merges_per_pkt", tables.merge_specs.len() as f64);
    let mut total = 0.0;
    for spec in &tables.merge_specs {
        let pool = PacketPool::new(BATCH * (spec.members.len() + 1));
        let name = format!("merger.merge.segment{}", spec.segment);
        total += probe(
            rec,
            &name,
            budget / tables.merge_specs.len().max(1) as u32,
            || {
                let sets: Vec<Vec<Arrival>> = (0..BATCH)
                    .map(|_| arrivals_for(spec, tables, &pool, &frames.typical))
                    .collect();
                let mut forwarded = Vec::with_capacity(BATCH);
                let t = Instant::now();
                for arrivals in &sets {
                    if let Ok(MergeOutcome::Forward(r)) = resolve_and_merge(spec, arrivals, &pool) {
                        forwarded.push(r);
                    }
                }
                let elapsed = t.elapsed();
                assert_eq!(forwarded.len(), BATCH, "a full arrival set merges");
                for r in forwarded {
                    pool.release(r);
                }
                (elapsed, BATCH as u64)
            },
        );
        assert_eq!(pool.in_use(), 0, "merge probe leaks no slot");
    }
    out.set("merger.merge_ns", total);
    total
}

/// `io`: the pcap codec as `run_io` pays for it — records in through a
/// `PcapIngress`, delivered frames out through a `PcapEgress`.
fn io_probes(
    prep: &Prepared,
    frames: &Frames,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Layers,
) {
    let Input::Pcap(bytes) = &prep.input else {
        out.set("io.pcap_read_ns", 0.0);
        out.set("io.pcap_write_ns", 0.0);
        return;
    };
    let ns = probe(rec, "io.pcap_read", budget, || {
        let mut ingress = PcapIngress::from_bytes(bytes.clone()).expect("own pcap");
        let mut n = 0u64;
        let t = Instant::now();
        while let Some(burst) = ingress
            .next_burst(crate::drive::IO_BURST)
            .expect("pcap ingress")
        {
            n += burst.len() as u64;
            black_box(burst);
        }
        (t.elapsed(), n)
    });
    out.set("io.pcap_read_ns", ns);
    let ns = probe(rec, "io.pcap_write", budget, || {
        let mut egress = PcapEgress::in_memory(PcapFormat::default());
        let t = Instant::now();
        for chunk in frames.admitted.chunks(crate::drive::IO_BURST) {
            egress.emit_burst(chunk).expect("pcap egress");
        }
        egress.flush().expect("pcap egress");
        (t.elapsed(), frames.admitted.len() as u64)
    });
    out.set("io.pcap_write_ns", ns);
}

/// Per-packet `Instant` pairs around `process`, for `rtc.p50_ns` and
/// `sync.p50_ns`. With `samples = None` the identical loop runs without
/// the clock reads — the twin `trace.overhead_frac` is measured against.
/// Returns ns per packet over the whole loop.
fn per_packet_pass(
    pkts: &[Packet],
    mut process: impl FnMut(Packet),
    samples: Option<&mut Vec<u32>>,
) -> f64 {
    let batch = pkts.to_vec();
    let n = batch.len() as f64;
    let t = Instant::now();
    match samples {
        Some(samples) => {
            for pkt in batch {
                let t0 = Instant::now();
                process(pkt);
                samples.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            }
        }
        None => {
            for pkt in batch {
                process(pkt);
            }
        }
    }
    t.elapsed().as_nanos() as f64 / n
}

/// What every phase of the traced pass shares.
struct Ctx<'a> {
    prep: &'a Prepared,
    host: &'a HostFacts,
    plan: &'a Plan,
    /// Trials each phase runs at least.
    trials: usize,
    tally: &'a mut Tally,
    rec: &'a mut Recorder,
}

impl Ctx<'_> {
    /// One phase: `pass` repeated for `share` of the measuring time inside
    /// a span, every pass checked against the reference; returns the
    /// median ns per packet.
    fn phase(&mut self, name: &str, share: f64, mut pass: impl FnMut() -> Pass) -> f64 {
        let span = self.rec.enter(name);
        let ns = timed_trials(self.plan.share(share), self.trials, || {
            let pass = pass();
            self.tally.absorb(name, &pass, Some(&self.prep.reference));
            pass.ns_per_pkt()
        });
        self.rec.exit(span);
        median(&ns)
    }
}

/// The executors, untraced, with telemetry off: the numbers the layers
/// must add up to. Returns `(rtc, sync, threaded)` ns per packet.
fn executor_phases(cx: &mut Ctx, out: &mut Layers) -> (f64, f64, f64) {
    let prep = cx.prep;
    let mut rtc = RunToCompletion::new(make_nfs(&prep.names));
    let rtc_ns = cx.phase("rtc", 0.06, || rtc_pass(&mut rtc, &prep.input));
    let mut sync = prep.sync_engine();
    let sync_ns = cx.phase("sync", 0.08, || sync_pass(&mut sync, &prep.input));

    let mut engine = prep.engine(cx.host, THROUGHPUT_WINDOW);
    let mut last_report = None;
    let threaded_ns = cx.phase("threaded", 0.10, || {
        let (pass, report) = threaded_pass(&mut engine, &prep.input);
        last_report = Some(report);
        pass
    });
    let report = last_report.expect("at least one threaded trial");
    let (backpressure, high_water) = report.stats.stages().fold((0, 0), |(bp, hw), (_, s)| {
        (bp + s.backpressure, hw.max(s.ring_high_water))
    });
    out.set("engine.backpressure_events", backpressure as f64);
    out.set("engine.ring_high_water", high_water as f64);
    out.set(
        "engine.drop_share",
        report.dropped as f64 / report.injected.max(1) as f64,
    );

    // The window-4 tail: a user-visible number, but too unsteady on a
    // shared host to carry a regression bound, so it is reported here.
    let mut latency_engine = prep.engine(cx.host, LATENCY_WINDOW);
    let span = cx.rec.enter("threaded.latency");
    let p99 = timed_trials(cx.plan.share(0.06), cx.trials, || {
        latency_trial(&mut latency_engine, prep, cx.tally).1
    });
    cx.rec.exit(span);
    out.set("threaded_p99_us", median(&p99));
    (rtc_ns, sync_ns, threaded_ns)
}

/// `dataplane::telemetry`: what the histograms cost (on vs off), and what
/// they say about each stage.
fn telemetry_phases(cx: &mut Ctx, sync_ns: f64, threaded_ns: f64, out: &mut Layers) {
    let prep = cx.prep;
    let mut sync = prep.sync_engine();
    sync.set_telemetry(TelemetryConfig::default());
    let sync_on = cx.phase("sync.telemetry", 0.06, || sync_pass(&mut sync, &prep.input));
    let mut engine = Engine::new(
        prep.program.clone(),
        make_nfs(&prep.names),
        EngineConfig {
            telemetry: TelemetryConfig::default(),
            ..cx.host.engine_config(THROUGHPUT_WINDOW)
        },
    )
    .expect("engine configuration is valid");
    let mut snapshot = TelemetrySnapshot::empty();
    let threaded_on = cx.phase("threaded.telemetry", 0.08, || {
        let (pass, report) = threaded_pass(&mut engine, &prep.input);
        snapshot = report.telemetry;
        pass
    });
    out.set("telemetry.sync_overhead_frac", sync_on / sync_ns - 1.0);
    out.set(
        "telemetry.threaded_overhead_frac",
        threaded_on / threaded_ns - 1.0,
    );
    for (metric_p50, metric_p99, prefix) in [
        (
            "stage.classifier_p50_ns",
            "stage.classifier_p99_ns",
            "classifier",
        ),
        ("stage.nf_p50_ns", "stage.nf_p99_ns", "nf"),
        ("stage.agent_p50_ns", "stage.agent_p99_ns", "agent"),
        ("stage.merger_p50_ns", "stage.merger_p99_ns", "merger"),
        (
            "stage.collector_p50_ns",
            "stage.collector_p99_ns",
            "collector",
        ),
    ] {
        let mut hist = HistogramSnapshot::default();
        for s in snapshot
            .stages
            .iter()
            .filter(|s| s.label.starts_with(prefix))
        {
            hist.absorb(&s.hist);
        }
        let (p50, p99) = if hist.count == 0 {
            (0.0, 0.0)
        } else {
            (hist.p50_ns() as f64, hist.p99_ns() as f64)
        };
        out.set(metric_p50, p50);
        out.set(metric_p99, p99);
    }
}

/// Per-packet timing from the harness (`rtc.p50_ns`, `sync.p50_ns`, …),
/// and what that timing costs.
fn per_packet_phase(cx: &mut Ctx, out: &mut Layers) {
    let pkts = cx.prep.input.packets();
    let mut rtc = RunToCompletion::new(make_nfs(&cx.prep.names));
    let mut sync = cx.prep.sync_engine();
    let mut rtc_samples = Vec::with_capacity(pkts.len() * 4);
    let mut sync_samples = Vec::with_capacity(pkts.len() * 4);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let span = cx.rec.enter("per_packet");
    timed_trials(cx.plan.share(0.08), cx.trials, || {
        per_packet_pass(
            &pkts,
            |mut p| {
                if p.parse().is_ok() {
                    black_box(rtc.process(p));
                }
            },
            Some(&mut rtc_samples),
        );
        plain.push(per_packet_pass(
            &pkts,
            |p| drop(black_box(sync.process(p))),
            None,
        ));
        traced.push(per_packet_pass(
            &pkts,
            |p| drop(black_box(sync.process(p))),
            Some(&mut sync_samples),
        ));
    });
    cx.rec.exit(span);
    rtc_samples.sort_unstable();
    sync_samples.sort_unstable();
    out.set("rtc.p50_ns", percentile_sorted(&rtc_samples, 0.50) as f64);
    out.set("rtc.p99_ns", percentile_sorted(&rtc_samples, 0.99) as f64);
    out.set("sync.p50_ns", percentile_sorted(&sync_samples, 0.50) as f64);
    out.set("sync.p99_ns", percentile_sorted(&sync_samples, 0.99) as f64);
    out.set(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
}

/// Configurations that run more threads than a 2-core host has: the
/// engine's own defaults, a 2-shard fleet, the ONVM-style pipeline. Their
/// numbers are printed, flagged, and claim nothing.
fn diagnostic_phases(cx: &mut Ctx, frames: &Frames, threaded_ns: f64, out: &mut Layers) {
    let prep = cx.prep;
    let mut oversubscribed = Vec::new();

    let default_cfg = EngineConfig::default();
    let default_threads = 1 + default_cfg.core_budget;
    let mut engine = Engine::new(prep.program.clone(), make_nfs(&prep.names), default_cfg)
        .expect("default configuration is valid");
    let default_ns = cx.phase("threaded.default_cfg", 0.05, || {
        threaded_pass(&mut engine, &prep.input).0
    });
    out.set("engine.default_cfg_pps", 1e9 / default_ns);
    if cx.host.oversubscribed(default_threads) {
        oversubscribed.push(format!(
            "engine.default_cfg_pps ({default_threads} threads)"
        ));
    }

    let factory_names = prep.names.clone();
    let mut fleet = ShardedEngine::new(
        &prep.program,
        move || make_nfs(&factory_names),
        &EngineConfig {
            pool_size: 1024,
            core_budget: 2,
            pin_cpus: Vec::new(),
            ..cx.host.engine_config(THROUGHPUT_WINDOW)
        },
        2,
    )
    .expect("fleet configuration is valid");
    // Per-shard NF instances: outcome counts still equal the reference on
    // these chains (no verdict depends on another flow).
    let fleet_ns = cx.phase("sharded_x2", 0.05, || {
        threaded_pass(&mut fleet, &prep.input).0
    });
    out.set("shard.x2_pps", 1e9 / fleet_ns);
    out.set("shard.x2_speedup", threaded_ns / fleet_ns);
    if cx.host.oversubscribed(3) {
        oversubscribed.push("shard.x2_pps, shard.x2_speedup (3 threads)".to_string());
    }

    let mut onvm = OnvmPipeline::new(make_nfs(&prep.names));
    let onvm_threads = 2 + prep.names.len();
    let span = cx.rec.enter("onvm");
    let runs: Vec<(f64, f64)> = timed_trials(cx.plan.share(0.05), cx.trials, || {
        let r = onvm.run(frames.admitted.clone());
        cx.tally.attempted += r.injected;
        if r.injected != r.delivered + r.dropped {
            cx.tally
                .fail(1, "onvm: injected != delivered + dropped".into());
        }
        (
            r.injected as f64 / r.elapsed.as_secs_f64(),
            r.latency.map_or(0.0, |l| l.p50.as_secs_f64() * 1e6),
        )
    });
    cx.rec.exit(span);
    out.set(
        "onvm.pps",
        median(&runs.iter().map(|r| r.0).collect::<Vec<_>>()),
    );
    out.set(
        "onvm.p50_us",
        median(&runs.iter().map(|r| r.1).collect::<Vec<_>>()),
    );
    if cx.host.oversubscribed(onvm_threads) {
        oversubscribed.push(format!("onvm.pps, onvm.p50_us ({onvm_threads} threads)"));
    }
    if !oversubscribed.is_empty() {
        out.flags.push(format!(
            "oversubscribed on {} cores, diagnostic only: {}",
            cx.host.host_cores,
            oversubscribed.join("; ")
        ));
    }
}

/// Measure every per-layer metric of `prep`'s workload.
pub fn measure(
    prep: &Prepared,
    host: &HostFacts,
    plan: &Plan,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Layers {
    let mut out = Layers::default();
    let offered = prep.reference.offered as usize;
    let admitted_share = 1.0 - prep.reference.rejected as f64 / offered as f64;
    let delivered_share = prep.reference.delivered as f64 / offered as f64;

    out.set("harness.gen_s", prep.gen_s);
    let frames = Frames::of(&prep.input);
    out.set("harness.rss_mb", rss_mb());

    let small = plan.share(0.015);
    setup_probes(prep, small, rec, &mut out);
    packet_probes(&frames, small, rec, &mut out);
    ring_probes(&frames, small, rec, &mut out);
    classifier_probes(prep, &frames, plan.share(0.03), rec, &mut out);
    let (nf_chain_ns, nf_service_ns) =
        nf_probes(prep, &frames, offered, plan.share(0.06), rec, &mut out);
    let merge_ns = merger_probes(prep, &frames, plan.share(0.03), rec, &mut out);
    io_probes(prep, &frames, plan.share(0.02), rec, &mut out);

    let mut cx = Ctx {
        prep,
        host,
        plan,
        trials: plan.min_trials.min(3),
        tally,
        rec,
    };
    let (rtc_ns, sync_ns, threaded_ns) = executor_phases(&mut cx, &mut out);
    telemetry_phases(&mut cx, sync_ns, threaded_ns, &mut out);
    per_packet_phase(&mut cx, &mut out);
    diagnostic_phases(&mut cx, &frames, threaded_ns, &mut out);
    let rec = cx.rec;

    // --- The closure check: do the layers add up to the sync engine? ------
    let (header_copies, full_copies) = copies_per_packet(prep.program.tables());
    let copy_ns = header_copies as f64 * out.get("packet.copy_header_ns")
        + full_copies as f64 * out.get("packet.copy_full_ns");
    let classifier_ns = admitted_share * out.get("classifier.admit_ns")
        + (1.0 - admitted_share) * out.get("classifier.reject_ns")
        + delivered_share * out.get("packet.finalize_checksums_ns");
    let copy_merge_ns = admitted_share * (copy_ns + merge_ns);
    let io_ns = out.get("io.pcap_read_ns") + delivered_share * out.get("io.pcap_write_ns");
    let attributed = classifier_ns + copy_merge_ns + nf_chain_ns + io_ns;
    let unattributed = (sync_ns - attributed) / sync_ns;
    out.set("rtc.ns_per_pkt", rtc_ns);
    out.set("sync.ns_per_pkt", sync_ns);
    out.set("sync.framework_ns", sync_ns - rtc_ns);
    out.set("sync.attributed_ns", attributed);
    out.set("sync.unattributed_frac", unattributed);
    out.set("engine.ns_per_pkt", threaded_ns);
    out.set("engine.sched_overhead_ns", threaded_ns - sync_ns);
    if unattributed.abs() > UNATTRIBUTED_FLAG {
        out.flags.push(format!(
            "UNATTRIBUTED: the layer probes explain {:.0}% of sync.ns_per_pkt ({attributed:.0} of {sync_ns:.0} ns); \
             the rest is executor glue no probe covers (event queue, NF runtime dispatch, agent, collector)",
            (1.0 - unattributed) * 100.0
        ));
    }

    // Where a threaded packet's time goes, as shares of engine.ns_per_pkt.
    out.set("share.ring_sched", (threaded_ns - sync_ns) / threaded_ns);
    out.set("share.classifier_pool", classifier_ns / threaded_ns);
    out.set("share.copy_merge", copy_merge_ns / threaded_ns);
    out.set("share.nf", nf_chain_ns / threaded_ns);
    out.set("share.io", io_ns / threaded_ns);
    out.set("share.unattributed", (sync_ns - attributed) / threaded_ns);

    // --- The model, fed with this run's probes ----------------------------
    let merges = prep.program.tables().merge_specs.len().max(1) as f64;
    let payload = (frames.typical.len() as f64 - 54.0).max(1.0);
    let model = CostModel {
        classify_ns: out.get("classifier.admit_ns"),
        hop_ns: out.get("ring.hop_ns"),
        switch_ns: 2.0 * out.get("ring.hop_ns") + out.get("classifier.admit_ns"),
        copy_header_ns: out.get("packet.copy_header_ns"),
        copy_per_byte_ns: ((out.get("packet.copy_full_ns") - out.get("packet.copy_header_ns"))
            / payload)
            .max(0.0),
        merge_base_ns: merge_ns / merges,
        merge_per_arrival_ns: 0.0,
        merge_per_op_ns: 0.0,
        nf_service_ns,
    };
    let predicted = nfp_sim::model::nfp_throughput(&prep.graph, &model, payload as usize, 2);
    out.set("sim.pred_pps", predicted);
    out.set("sim.pred_over_measured", predicted * threaded_ns / 1e9);

    out.set("trace.spans", rec.len() as f64);
    out
}
