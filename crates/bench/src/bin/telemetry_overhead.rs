//! Telemetry overhead: what the per-stage histograms and sampled tracing
//! cost on the packet path, and proof that the disabled configuration is
//! near-free, dumped to `results/BENCH_telemetry.json`.
//!
//! Three measurements:
//!
//! 1. **Disabled-path micro cost** — the exact calls the engines make per
//!    stage when telemetry is off (`begin` → `None`, no-op `end`,
//!    early-return `trace_ref` guard), timed in a tight loop. This is the
//!    only cost a zero-sampling configuration adds to the hot path, so the
//!    headline number — `zero_sampling_overhead_frac` — is computed as
//!    (disabled-call cost × calls per packet) / measured per-packet cost,
//!    which is robust against run-to-run wall-clock noise.
//! 2. **Engine throughput per config** — the Monitor|Firewall chain on the
//!    deterministic engine under `disabled`, `histograms`, and
//!    `histograms + trace-every-16` configs: the three take turns for
//!    [`ROUNDS`] rounds and each keeps its best, so a host hiccup lands on
//!    one round of one config instead of deciding a whole config.
//! 3. **Per-stage quantiles** — the p50/p99 breakdown the histogram config
//!    yields, embedded in the JSON like the other bench bins.
//!
//! Usage: `cargo run --release --bin telemetry_overhead [packets] [--check]`
//!
//! `--check` exits nonzero unless the zero-sampling overhead is ≤ 2% and
//! the histogram overhead is ≤ [`HISTOGRAM_BOUND`].

use nfp_bench::setups::{compile_chain, fixed_traffic, nf_factory};
use nfp_bench::stage_latency_json;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_dataplane::telemetry::{Telemetry, TelemetryConfig};
use nfp_orchestrator::{Program, Stage};
use nfp_packet::{Packet, PacketPool};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Telemetry touch points per packet on the Monitor|Firewall graph:
/// classifier record, two NF trace_ref+record pairs, agent trace_ref +
/// record, merger trace_ref + record, collector record + hop_if_traced.
const CALLS_PER_PACKET: u64 = 10;

/// Rounds of the interleaved off / histograms / trace comparison.
const ROUNDS: usize = 9;

/// ROADMAP item 4's budget for histograms-on over telemetry-off.
const HISTOGRAM_TARGET: f64 = 0.10;

/// What `--check` enforces: the target plus headroom for the shared CI
/// host, where best-of-[`ROUNDS`] still moves a few points run to run.
const HISTOGRAM_BOUND: f64 = 0.15;

fn build_engine(program: &Program, config: TelemetryConfig) -> SyncEngine {
    let compiled = compile_chain(&["Monitor", "Firewall"]);
    let nfs = nf_factory(&compiled.graph)();
    let mut engine = SyncEngine::new(program.clone(), nfs, 256);
    engine.set_telemetry(config);
    engine
}

/// One wall-clock pass of `pkts` through a fresh engine; returns (ns per
/// packet, delivered).
fn run_once(program: &Program, config: &TelemetryConfig, pkts: &[Packet]) -> (f64, u64) {
    let mut engine = build_engine(program, config.clone());
    let mut delivered = 0u64;
    let t0 = Instant::now();
    for pkt in pkts {
        if let Ok(out) = engine.process(pkt.clone()) {
            if out.delivered().is_some() {
                delivered += 1;
            }
        }
    }
    (
        t0.elapsed().as_nanos() as f64 / pkts.len() as f64,
        delivered,
    )
}

/// The configs take turns for [`ROUNDS`] rounds; returns each config's
/// best (ns per packet, delivered), in `configs` order.
fn run_interleaved(
    program: &Program,
    configs: &[TelemetryConfig; 3],
    pkts: &[Packet],
) -> [(f64, u64); 3] {
    let mut best = [(f64::MAX, 0u64); 3];
    for _ in 0..ROUNDS {
        for (slot, config) in best.iter_mut().zip(configs) {
            let (ns, delivered) = run_once(program, config, pkts);
            *slot = (slot.0.min(ns), delivered);
        }
    }
    best
}

/// Time the disabled hot-path calls: one `begin` + `end` + the
/// `trace_ref` guard, i.e. what every stage pays when telemetry is off.
fn disabled_call_ns() -> f64 {
    let tele = Telemetry::off();
    let pool = PacketPool::new(4);
    let r = pool
        .insert(Packet::from_bytes(&[0u8; 60]).expect("valid frame"))
        .expect("slot free");
    const ITERS: u64 = 4_000_000;
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            let t = black_box(&tele).begin(Stage::Classifier, 1);
            tele.end(black_box(Stage::Classifier), t, 1);
            tele.trace_ref(black_box(Stage::Agent), &pool, black_box(r));
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let n: usize = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    let compiled = compile_chain(&["Monitor", "Firewall"]);
    let program = compiled.program(1).expect("program seals");
    let pkts = fixed_traffic(n, 200);

    println!("== telemetry overhead: {:?} ==", compiled.graph.describe());

    // 1. The disabled hot path, measured directly.
    let call_ns = disabled_call_ns();
    println!("disabled telemetry calls: {call_ns:.2} ns per stage touch");

    // 2. Engine throughput under each config, interleaved.
    let trace_cfg = TelemetryConfig {
        histograms: true,
        trace_every: 16,
        trace_capacity: 65_536,
    };
    let configs = [
        TelemetryConfig::disabled(),
        TelemetryConfig::default(),
        trace_cfg.clone(),
    ];
    let [(ns_off, delivered_off), (ns_hist, delivered_hist), (ns_trace, delivered_trace)] =
        run_interleaved(&program, &configs, &pkts);
    assert_eq!(
        delivered_off, delivered_hist,
        "telemetry must not alter results"
    );
    assert_eq!(
        delivered_off, delivered_trace,
        "tracing must not alter results"
    );

    let overhead_frac = (call_ns * CALLS_PER_PACKET as f64) / ns_off;
    let hist_frac = ns_hist / ns_off - 1.0;
    let trace_frac = ns_trace / ns_off - 1.0;
    println!("disabled:            {ns_off:.0} ns/pkt  ({delivered_off} delivered)");
    println!(
        "histograms:          {ns_hist:.0} ns/pkt  ({hist_frac:+.1}% vs disabled)",
        hist_frac = hist_frac * 100.0
    );
    println!(
        "histograms+trace/16: {ns_trace:.0} ns/pkt  ({trace_frac:+.1}% vs disabled)",
        trace_frac = trace_frac * 100.0
    );
    println!(
        "histogram overhead: {:.1}% (ROADMAP target <= {:.0}%, --check bound {:.0}%)",
        hist_frac * 100.0,
        HISTOGRAM_TARGET * 100.0,
        HISTOGRAM_BOUND * 100.0
    );
    println!(
        "zero-sampling overhead: {:.3}% of the packet path ({CALLS_PER_PACKET} touches x {call_ns:.2} ns / {ns_off:.0} ns)",
        overhead_frac * 100.0
    );

    // 3. Per-stage quantiles from the histogram run.
    let mut engine = build_engine(&program, trace_cfg);
    for pkt in &pkts {
        let _ = engine.process(pkt.clone());
    }
    let snap = engine.telemetry();
    let stage_json = stage_latency_json(&snap);
    for st in &snap.stages {
        if st.hist.count > 0 {
            println!(
                "  {:<12} count {:>7}  timed {:>6}  p50 {:>6} ns  p99 {:>6} ns",
                st.label,
                st.hist.count,
                st.hist.timed,
                st.hist.p50_ns(),
                st.hist.p99_ns()
            );
        }
    }
    println!(
        "  {} trace hops recorded ({} dropped)",
        snap.hops.len(),
        snap.trace_drops
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"telemetry_overhead\",");
    let _ = writeln!(json, "  \"chain\": \"Monitor|Firewall\",");
    let _ = writeln!(json, "  \"packets\": {n},");
    let _ = writeln!(json, "  \"rounds\": {ROUNDS},");
    let _ = writeln!(json, "  \"disabled_call_ns\": {call_ns:.3},");
    let _ = writeln!(json, "  \"calls_per_packet\": {CALLS_PER_PACKET},");
    let _ = writeln!(json, "  \"ns_per_packet\": {{\"disabled\": {ns_off:.1}, \"histograms\": {ns_hist:.1}, \"histograms_trace16\": {ns_trace:.1}}},");
    let _ = writeln!(
        json,
        "  \"zero_sampling_overhead_frac\": {overhead_frac:.5},"
    );
    let _ = writeln!(json, "  \"histogram_overhead_frac\": {hist_frac:.4},");
    let _ = writeln!(
        json,
        "  \"histogram_overhead_target\": {HISTOGRAM_TARGET}, \"histogram_overhead_bound\": {HISTOGRAM_BOUND},"
    );
    let _ = writeln!(json, "  \"trace_overhead_frac\": {trace_frac:.4},");
    let _ = writeln!(json, "  \"trace_hops\": {},", snap.hops.len());
    let _ = writeln!(json, "  \"stage_latency_ns\": {stage_json}");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_telemetry.json", &json).expect("write results");
    println!("\nwrote results/BENCH_telemetry.json");

    if check {
        assert!(
            overhead_frac <= 0.02,
            "zero-sampling telemetry overhead {:.3}% exceeds the 2% budget",
            overhead_frac * 100.0
        );
        assert!(
            hist_frac <= HISTOGRAM_BOUND,
            "histogram overhead {:.1}% exceeds the {:.0}% bound (ROADMAP target {:.0}%)",
            hist_frac * 100.0,
            HISTOGRAM_BOUND * 100.0,
            HISTOGRAM_TARGET * 100.0
        );
        println!(
            "check passed: zero-sampling overhead within the 2% budget, histogram overhead within the {:.0}% bound",
            HISTOGRAM_BOUND * 100.0
        );
    }
}
