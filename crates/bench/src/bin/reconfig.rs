//! Live-reconfiguration cost: epoch hot-swap latency and the throughput
//! dip a running engine takes while swaps are in flight, dumped to
//! `results/BENCH_reconfig.json`.
//!
//! Three measurements:
//!
//! 1. **Idle swap latency** — install + drain + retire on a quiescent
//!    engine (no packets pinned to the old epoch), the protocol floor.
//! 2. **Baseline throughput** — the firewall chain with no swaps.
//! 3. **Swap-storm throughput** — the same run while a controller thread
//!    hot-swaps between two policy variants every millisecond; the
//!    relative dip is the price of epoch churn (two live table sets,
//!    resolver misses, drain waits), and per-swap install-to-retire
//!    latencies are recorded under load.
//!
//! Usage: `cargo run --release --bin reconfig [packets]`

use nfp_bench::setups::fixed_traffic;
use nfp_bench::soak::{program_variants, SOAK_CHAIN};
use nfp_bench::stage_latency_json;
use nfp_dataplane::engine::{Engine, EngineConfig};
use nfp_nf::{catalogue, NetworkFunction};
use nfp_orchestrator::Program;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn engine(program: Program) -> Engine {
    let nfs: Vec<Box<dyn NetworkFunction>> = SOAK_CHAIN
        .iter()
        .map(|name| catalogue::make(name).unwrap())
        .collect();
    Engine::new(
        program,
        nfs,
        EngineConfig {
            max_in_flight: 64,
            pool_size: 512,
            mergers: 2,
            ..EngineConfig::default()
        },
    )
    .expect("engine builds")
}

fn stats_us(lat: &[Duration]) -> (f64, f64, f64) {
    if lat.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut us: Vec<f64> = lat.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(|a, b| a.total_cmp(b));
    let mean = us.iter().sum::<f64>() / us.len() as f64;
    (mean, us[us.len() / 2], us[us.len() - 1])
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);

    // Two hot-swappable table variants of the same chain: the canonical
    // policy edit (opposite Firewall failure policy, identical topology).
    let variant = program_variants();
    let pkts = fixed_traffic(n, 128);

    println!("== live reconfiguration: Monitor|Firewall policy edit ==");

    // 1. Idle swap latency: no traffic, so drain is instant — this is the
    //    pure install/diff/retire protocol cost.
    let mut e = engine(variant(0));
    let mut idle_lat: Vec<Duration> = Vec::new();
    for epoch in 1..=100u64 {
        let r = e.reconfigure(variant(epoch)).expect("idle swap");
        idle_lat.push(r.swap_latency);
    }
    let (idle_mean, idle_p50, idle_max) = stats_us(&idle_lat);
    println!(
        "idle swap latency: mean {idle_mean:.1} us  p50 {idle_p50:.1} us  max {idle_max:.1} us"
    );

    // 2. Baseline throughput, no swaps.
    let mut e = engine(variant(0));
    let baseline = e.run(pkts.clone());
    let pps_baseline = baseline.pps();
    println!(
        "baseline: delivered {} in {:?}  ({:.3} Mpps)",
        baseline.delivered,
        baseline.elapsed,
        pps_baseline / 1e6
    );

    // 3. Swap storm: a controller thread hot-swaps every millisecond for
    //    the whole run; packets keep flowing under whichever epoch
    //    admitted them.
    let mut e = engine(variant(0));
    let controller = e.controller();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_c = Arc::clone(&stop);
    let variant_c = variant.clone();
    let swapper = std::thread::spawn(move || {
        let mut lat: Vec<Duration> = Vec::new();
        let mut failed = 0u64;
        let mut epoch = 1u64;
        while !stop_c.load(Ordering::Acquire) {
            match controller.reconfigure(variant_c(epoch)) {
                Ok(r) => {
                    lat.push(r.swap_latency);
                    epoch += 1;
                }
                Err(_) => failed += 1,
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (lat, failed)
    });
    let stormed = e.run(pkts.clone());
    stop.store(true, Ordering::Release);
    let (live_lat, failed_swaps) = swapper.join().expect("controller thread");
    let pps_storm = stormed.pps();
    let dip = 1.0 - pps_storm / pps_baseline;
    let (live_mean, live_p50, live_max) = stats_us(&live_lat);
    println!(
        "swap storm: delivered {} dropped {} in {:?}  ({:.3} Mpps, dip {:.1}%)",
        stormed.delivered,
        stormed.dropped,
        stormed.elapsed,
        pps_storm / 1e6,
        dip * 100.0
    );
    println!(
        "  {} swaps ({failed_swaps} failed attempts), live swap latency: \
         mean {live_mean:.1} us  p50 {live_p50:.1} us  max {live_max:.1} us",
        live_lat.len()
    );
    println!(
        "  final epoch {}, epochs with completions: {}",
        stormed.epoch,
        stormed.epochs.iter().filter(|t| t.completed > 0).count()
    );
    assert_eq!(
        stormed.delivered + stormed.dropped,
        n as u64,
        "zero loss across swaps"
    );
    assert_eq!(stormed.pool_in_use, 0, "zero slot leakage across swaps");
    let attributed: u64 = stormed.epochs.iter().map(|t| t.completed).sum();
    assert_eq!(attributed, n as u64, "every packet settles under one epoch");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"reconfig\",");
    let _ = writeln!(json, "  \"chain\": \"Monitor|Firewall\",");
    let _ = writeln!(json, "  \"packets\": {n},");
    let _ = writeln!(
        json,
        "  \"idle_swap_us\": {{\"mean\": {idle_mean:.2}, \"p50\": {idle_p50:.2}, \"max\": {idle_max:.2}}},"
    );
    let _ = writeln!(json, "  \"baseline_pps\": {pps_baseline:.1},");
    let _ = writeln!(json, "  \"storm_pps\": {pps_storm:.1},");
    let _ = writeln!(json, "  \"throughput_dip_frac\": {dip:.4},");
    let _ = writeln!(json, "  \"live_swaps\": {},", live_lat.len());
    let _ = writeln!(json, "  \"failed_swap_attempts\": {failed_swaps},");
    let _ = writeln!(
        json,
        "  \"live_swap_us\": {{\"mean\": {live_mean:.2}, \"p50\": {live_p50:.2}, \"max\": {live_max:.2}}},"
    );
    let _ = writeln!(json, "  \"final_epoch\": {},", stormed.epoch);
    let _ = writeln!(
        json,
        "  \"baseline_stage_latency_ns\": {},",
        stage_latency_json(&baseline.telemetry)
    );
    let _ = writeln!(
        json,
        "  \"storm_stage_latency_ns\": {}",
        stage_latency_json(&stormed.telemetry)
    );
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_reconfig.json", &json).expect("write results");
    println!("\nwrote results/BENCH_reconfig.json");
}
