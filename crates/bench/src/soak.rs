//! Adversarial soak scenarios: hostile traffic × chaos scripts × engines,
//! audited live.
//!
//! One **cell** of the soak matrix drives one traffic profile through one
//! engine while one [`ChaosScript`] disrupts it — NF panics, stalls,
//! mid-storm live swaps and fleet rescale storms — with a continuous
//! [`auditor`](nfp_dataplane::audit::spawn_auditor) sampling the run and
//! an end-of-run [`InvariantReport`] over the five soak invariants (pool
//! census, exact accounting, no stale epochs, no wedge, migrated-state
//! census). Every cell is derived from one root seed (`cell_seed`), so
//! any failure replays bit-for-bit with `soak --seed N`.
//!
//! The `soak` binary iterates the full matrix and writes
//! `results/BENCH_soak_matrix.json`; `tests/soak_smoke.rs` runs a small
//! slice of it in CI.

use nfp_dataplane::audit::{
    spawn_auditor, AuditConfig, EngineProbe, InvariantReport, LiveAudit, SoakCounts,
};
use nfp_dataplane::chaos_schedule::{drive_swaps, ChaosScript, SwapLog};
use nfp_dataplane::engine::{Engine, EngineConfig};
use nfp_dataplane::shard::ShardedEngine;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_io::trace::{build_golden_pcap, GoldenTraceSpec};
use nfp_io::{Ingress, PcapIngress};
use nfp_nf::{catalogue, NetworkFunction};
use nfp_orchestrator::{compile, CompileOptions, Compiled, FailurePolicy, Program, Registry};
use nfp_packet::Packet;
use nfp_policy::Policy;
use nfp_traffic::{HostileGenerator, HostileSpec, SizeDistribution, TrafficGenerator, TrafficSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service chain every soak cell runs: the same hot-swappable
/// Monitor|Firewall pair the reconfig bench edits live.
pub const SOAK_CHAIN: [&str; 2] = ["Monitor", "Firewall"];

/// Traffic-profile axis of the matrix (see `traffic_batch`).
/// `pcap_replay` sits second so the `--smoke` slice (`[..2]`) always
/// covers both a generator profile and the trace-replay path.
pub const TRAFFIC_PROFILES: [&str; 4] = ["malformed", "pcap_replay", "syn_flood", "elephant_mice"];

/// Chaos-script axis of the matrix (see `chaos_script`). The
/// `scale_storm` column rescales the sharded fleet mid-run, migrating
/// per-flow NF state; on the sync and threaded engines (no fleet to
/// rescale) it degenerates to the quiet control cell.
pub const CHAOS_SCRIPTS: [&str; 4] = ["panic", "swap_storm", "combined", "scale_storm"];

/// Shard-count ceiling for scripted rescale storms. The soak engine
/// config keeps every per-shard pool ≥ `max_in_flight ×
/// slots_per_packet` up to this ceiling, so a scripted rescale is never
/// rejected for pool reasons.
const SCALE_MAX_SHARDS: usize = 4;

/// How long a scripted chaos stall blocks its NF. Kept under the engine's
/// soak `stall_timeout` so the stall exercises merge deadlines, not the
/// watchdog's failure path.
const CHAOS_STALL: Duration = Duration::from_millis(150);

/// Which executor a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Deterministic single-threaded [`SyncEngine`], chaos replayed
    /// inline between `process()` calls.
    Sync,
    /// The multi-threaded [`Engine`], swaps fired from a controller
    /// thread while packets flow.
    Threaded,
    /// A [`ShardedEngine`] fleet (RSS front-end over full replicas); each
    /// shard gets its own chaos-wrapped NF instances and epoch sequence.
    Sharded,
}

impl EngineKind {
    /// Every engine, in matrix order.
    pub const ALL: [EngineKind; 3] = [EngineKind::Sync, EngineKind::Threaded, EngineKind::Sharded];

    /// Axis label used in reports and JSON.
    fn label(self) -> &'static str {
        match self {
            EngineKind::Sync => "sync",
            EngineKind::Threaded => "threaded",
            EngineKind::Sharded => "sharded",
        }
    }
}

/// Per-run knobs shared by every cell of one matrix sweep.
#[derive(Debug, Clone, Copy)]
pub struct SoakOptions {
    /// Packets injected per cell.
    pub packets: usize,
    /// Root seed; each cell derives its own sub-seed via `cell_seed`.
    pub seed: u64,
    /// Shard count for [`EngineKind::Sharded`] cells.
    pub shards: usize,
}

impl Default for SoakOptions {
    fn default() -> Self {
        Self {
            packets: 4_000,
            seed: 0x50A6_50A6,
            shards: 2,
        }
    }
}

/// Derive the deterministic per-cell seed from the root seed and the
/// cell's matrix coordinates (FNV-1a over the axis labels). Keeping every
/// cell's RNG independent means a failure replays in isolation: rerunning
/// just that cell with the same root seed reproduces it bit-for-bit.
fn cell_seed(root: u64, traffic: &str, chaos: &str, engine: EngineKind) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ root;
    for byte in traffic
        .bytes()
        .chain([b'\x1f'])
        .chain(chaos.bytes())
        .chain([b'\x1f'])
        .chain(engine.label().bytes())
    {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Build one cell's traffic. Profiles:
///
/// * `"malformed"` — the standard data-center mix with 15 % of frames
///   corrupted in place ([`TrafficSpec::malformed_fraction`]): the
///   classifier-rejection path under otherwise normal load.
/// * `"pcap_replay"` — a seeded golden trace (deny tuples, IDS markers,
///   corrupted frames, snaplen-cut captures) written through the
///   classic-pcap codec and replayed back via [`PcapIngress`]: the whole
///   trace-replay admission path, capture timestamps included.
/// * `"syn_flood"` — spoofed-source minimum-size SYNs with a 5 % malformed
///   share: maximum flow churn, every packet a new 5-tuple.
/// * `"elephant_mice"` — 4 elephant flows carrying 70 % of packets over
///   512 mice: per-flow skew that concentrates load on single shards.
///
/// # Panics
/// On an unknown profile name.
fn traffic_batch(profile: &str, n: usize, seed: u64) -> Vec<Packet> {
    match profile {
        "malformed" => TrafficGenerator::new(TrafficSpec {
            flows: 64,
            sizes: SizeDistribution::datacenter(),
            malformed_fraction: 0.15,
            seed,
            ..TrafficSpec::default()
        })
        .batch(n),
        "pcap_replay" => {
            let spec = GoldenTraceSpec {
                packets: n,
                ..GoldenTraceSpec::mixed(seed)
            };
            let mut ingress =
                PcapIngress::from_bytes(build_golden_pcap(&spec)).expect("golden pcap parses");
            let mut out = Vec::with_capacity(n);
            while let Some(burst) = ingress.next_burst(64).expect("golden pcap replays") {
                out.extend(burst);
            }
            out
        }
        "syn_flood" => {
            let mut spec = HostileSpec::syn_flood(seed);
            spec.malformed_rate = 0.05;
            HostileGenerator::new(spec).batch(n)
        }
        "elephant_mice" => HostileGenerator::new(HostileSpec::elephant_mice(seed)).batch(n),
        other => panic!("unknown traffic profile `{other}`"),
    }
}

/// Build one cell's chaos script, seed-derived where the script is
/// randomized. Script names: `"quiet"`, `"panic"`, `"stall_deadline"`,
/// `"swap_storm"`, `"combined"`, `"scale_storm"`.
///
/// # Panics
/// On an unknown script name.
fn chaos_script(name: &str, nf_count: usize, total_packets: u64, seed: u64) -> ChaosScript {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match name {
        "quiet" => ChaosScript::quiet(),
        "panic" => ChaosScript::panic_storm(nf_count, total_packets, &mut rng),
        "stall_deadline" => {
            ChaosScript::stall_deadline(nf_count, total_packets, CHAOS_STALL, &mut rng)
        }
        "swap_storm" => ChaosScript::swap_storm(total_packets, 5),
        "combined" => ChaosScript::combined(nf_count, total_packets, CHAOS_STALL, &mut rng),
        "scale_storm" => ChaosScript::scale_storm(total_packets, SCALE_MAX_SHARDS, &mut rng),
        other => panic!("unknown chaos script `{other}`"),
    }
}

fn compiled_variant(fail_open: bool) -> Compiled {
    let mut reg = Registry::paper_table2();
    if fail_open {
        let mut fw = reg.get("Firewall").expect("profile").clone();
        fw.failure = Some(FailurePolicy::FailOpen);
        reg.register(fw);
    }
    compile(
        &Policy::from_chain(SOAK_CHAIN),
        &reg,
        &[],
        &CompileOptions::default(),
    )
    .expect("soak chain compiles")
}

/// The epoch→program function every cell's swaps cycle through: even
/// epochs run the fail-closed Firewall, odd epochs the fail-open edit —
/// the canonical live policy edit, which the reconfig bench times too, so
/// each swap lands mid-storm with real table differences.
pub fn program_variants() -> impl Fn(u64) -> Program + Clone + Send + 'static {
    let base = compiled_variant(false).program(1).expect("program seals");
    let edit = compiled_variant(true).program(1).expect("program seals");
    move |epoch: u64| {
        if epoch.is_multiple_of(2) {
            base.clone().with_epoch(epoch)
        } else {
            edit.clone().with_epoch(epoch)
        }
    }
}

fn soak_nfs() -> Vec<Box<dyn NetworkFunction>> {
    SOAK_CHAIN
        .iter()
        .map(|name| catalogue::make(name).unwrap())
        .collect()
}

fn soak_engine_config(probe: &Arc<EngineProbe>, shards: usize) -> EngineConfig {
    EngineConfig {
        max_in_flight: 32,
        // Fleet total; ShardedEngine divides per shard.
        pool_size: 256 * shards.max(1),
        mergers: 2,
        merge_deadline: Duration::from_millis(50),
        stall_timeout: Duration::from_millis(500),
        probe: Some(Arc::clone(probe)),
        ..EngineConfig::default()
    }
}

fn audit_config(script: &ChaosScript, config: &EngineConfig) -> AuditConfig {
    AuditConfig {
        interval: Duration::from_micros(500),
        // Progress may legitimately sit still for one watchdog recovery
        // plus the longest scripted stall; wedge only well past that.
        wedge_timeout: config.stall_timeout + script.max_stall() + Duration::from_secs(2),
    }
}

/// Outcome of one soak cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Traffic-profile axis label.
    pub traffic: String,
    /// Chaos-script axis label.
    pub chaos: String,
    /// Engine axis label.
    pub engine: &'static str,
    /// The cell's derived seed (replays this cell alone).
    pub seed: u64,
    /// Final flow counters.
    pub counts: SoakCounts,
    /// What the swap driver did.
    pub swaps: SwapLog,
    /// NF failures the engine recorded (scripted panics land here).
    pub nf_failures: usize,
    /// Wall-clock run time.
    pub elapsed: Duration,
    /// Live-audit observations (sample count, peak pool occupancy).
    pub samples: u64,
    /// Highest pool occupancy the auditor saw.
    pub peak_pool_in_use: u64,
    /// The five-invariant verdict.
    pub invariants: InvariantReport,
}

impl CellResult {
    /// `traffic×chaos×engine` coordinate string.
    pub fn label(&self) -> String {
        format!("{}×{}×{}", self.traffic, self.chaos, self.engine)
    }

    /// True when all five invariants held.
    pub fn passed(&self) -> bool {
        self.invariants.all_hold()
    }
}

/// Run one cell of the soak matrix: build the traffic and chaos script
/// from the cell seed, execute on the requested engine with a live
/// auditor attached, and evaluate the five invariants.
pub fn run_cell(traffic: &str, chaos: &str, kind: EngineKind, opts: &SoakOptions) -> CellResult {
    let seed = cell_seed(opts.seed, traffic, chaos, kind);
    let packets = traffic_batch(traffic, opts.packets, seed);
    let script = chaos_script(chaos, SOAK_CHAIN.len(), packets.len() as u64, seed);
    let variants = program_variants();
    let probe = EngineProbe::new();

    let (counts, swaps, nf_failures, elapsed, live) = match kind {
        EngineKind::Sync => run_sync(packets, &script, &variants, &probe),
        EngineKind::Threaded => run_threaded(packets, &script, &variants, &probe),
        EngineKind::Sharded => run_sharded(packets, &script, &variants, &probe, opts.shards),
    };

    let invariants = InvariantReport::evaluate(&counts, &live);
    CellResult {
        traffic: traffic.to_string(),
        chaos: chaos.to_string(),
        engine: kind.label(),
        seed,
        counts,
        swaps,
        nf_failures,
        elapsed,
        samples: live.samples,
        peak_pool_in_use: live.peak_pool_in_use,
        invariants,
    }
}

type CellRun = (SoakCounts, SwapLog, usize, Duration, LiveAudit);

/// Sync cell: the chaos swap timeline replays inline between `process()`
/// calls, and the harness publishes the gauges the threaded engines
/// publish themselves — so the same auditor covers all three executors.
fn run_sync(
    packets: Vec<Packet>,
    script: &ChaosScript,
    variants: &(impl Fn(u64) -> Program + Clone),
    probe: &Arc<EngineProbe>,
) -> CellRun {
    const POOL: usize = 256;
    let mut engine = SyncEngine::new(variants(0), script.wrap_nfs(soak_nfs()), POOL);
    let gauges = probe.register();
    gauges.pool_budget.store(POOL as u64, Ordering::Relaxed);
    gauges.active.store(true, Ordering::Release);
    let auditor = spawn_auditor(
        Arc::clone(probe),
        audit_config(script, &soak_engine_config(probe, 1)),
    );

    let points = script.swap_points();
    let mut next_point = 0usize;
    let mut swaps = SwapLog::default();
    let injected = packets.len() as u64;
    let (mut delivered, mut dropped, mut rejected) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for (i, pkt) in packets.into_iter().enumerate() {
        while next_point < points.len() && i as u64 >= points[next_point] {
            next_point += 1;
            swaps.attempted += 1;
            match engine.reconfigure(variants(engine.epoch() + 1)) {
                Ok(_) => swaps.completed += 1,
                Err(e) => {
                    swaps.rejected += 1;
                    if swaps.failures.len() < 16 {
                        swaps.failures.push(format!("swap rejected: {e}"));
                    }
                }
            }
        }
        match engine.process(pkt) {
            Ok(out) => match out.delivered() {
                Some(_) => delivered += 1,
                None => dropped += 1,
            },
            Err(_) => rejected += 1,
        }
        gauges.publish(
            i as u64 + 1,
            delivered,
            dropped + rejected,
            engine.pool_in_use() as u64,
            0, // the budget here is the whole pool: stragglers need no slack
            engine.epoch(),
        );
    }
    let elapsed = start.elapsed();
    gauges.active.store(false, Ordering::Release);
    let live = auditor.finish();

    let counts = SoakCounts {
        injected,
        delivered,
        // The uniform convention: `dropped` includes classifier rejects,
        // exactly as the threaded engine's report counts them.
        dropped: dropped + rejected,
        rejected,
        pool_in_use: engine.pool_in_use() as u64,
        epoch_completed: engine.epochs().iter().map(|t| t.completed).sum(),
        // A lone sync engine has no fleet to rescale.
        ..SoakCounts::default()
    };
    (counts, swaps, engine.failures().len(), elapsed, live)
}

/// Threaded cell: engine publishes its own gauges through the probe; a
/// controller thread executes the swap timeline keyed on injected counts.
fn run_threaded(
    packets: Vec<Packet>,
    script: &ChaosScript,
    variants: &(impl Fn(u64) -> Program + Clone + Send + 'static),
    probe: &Arc<EngineProbe>,
) -> CellRun {
    let config = soak_engine_config(probe, 1);
    let mut engine =
        Engine::new(variants(0), script.wrap_nfs(soak_nfs()), config.clone()).expect("engine");
    let auditor = spawn_auditor(Arc::clone(probe), audit_config(script, &config));
    let driver = spawn_swap_driver(engine.controller(), probe, script, variants);

    let start = Instant::now();
    let report = engine.run(packets);
    let elapsed = start.elapsed();
    let swaps = driver.join().expect("swap driver");
    let live = auditor.finish();
    (
        SoakCounts::from_report(&report),
        swaps,
        report.failures.len(),
        elapsed,
        live,
    )
}

/// Sharded cell: every shard gets its own chaos-wrapped NF instances, the
/// probe aggregates per-shard gauges, and the swap driver advances the
/// fleet's one epoch sequence at each scripted point.
///
/// Scripted rescales cannot fire from a controller thread the way swaps
/// do — `rescale` quiesces and rebuilds the fleet, so it needs `&mut`
/// access between runs. The driver therefore chunks the packet stream at
/// each scale point and rescales in the inter-chunk gap: the drain
/// window of the epoch machinery, where every stateful NF's per-flow
/// state is exported, re-partitioned by the new shard hash and
/// imported. (Scripts never mix swap and rescale timelines, so the swap
/// driver — which treats an idle probe as end-of-run — is never racing
/// a chunk boundary.)
fn run_sharded(
    packets: Vec<Packet>,
    script: &ChaosScript,
    variants: &(impl Fn(u64) -> Program + Clone + Send + 'static),
    probe: &Arc<EngineProbe>,
    shards: usize,
) -> CellRun {
    let config = soak_engine_config(probe, shards);
    // The factory outlives this call inside the engine (a rescale may
    // rebuild replicas later), so it owns its copy of the script.
    let nf_script = script.clone();
    let mut engine = ShardedEngine::new(
        &variants(0),
        move || nf_script.wrap_nfs(soak_nfs()),
        &config,
        shards,
    )
    .expect("sharded engine");
    let auditor = spawn_auditor(Arc::clone(probe), audit_config(script, &config));
    let driver = spawn_swap_driver(engine.controller(), probe, script, variants);

    // Split the stream at each scripted rescale threshold (cumulative
    // injected counts), keeping the remainder as the final chunk.
    let total = packets.len() as u64;
    let mut rest = packets;
    let mut chunks: Vec<(Vec<Packet>, Option<usize>)> = Vec::new();
    let mut consumed = 0u64;
    for (after, to_shards) in script.scale_points() {
        let take = after.min(total).saturating_sub(consumed) as usize;
        let tail = rest.split_off(take.min(rest.len()));
        let chunk = std::mem::replace(&mut rest, tail);
        consumed += chunk.len() as u64;
        chunks.push((chunk, Some(to_shards)));
    }
    chunks.push((rest, None));

    let mut counts = SoakCounts::default();
    let mut swaps = SwapLog::default();
    let mut nf_failures = 0usize;
    let start = Instant::now();
    for (chunk, rescale_to) in chunks {
        if !chunk.is_empty() {
            let report = engine.run(chunk);
            let c = SoakCounts::from_report(&report);
            counts.injected += c.injected;
            counts.delivered += c.delivered;
            counts.dropped += c.dropped;
            counts.rejected += c.rejected;
            counts.pool_in_use = c.pool_in_use;
            counts.epoch_completed += c.epoch_completed;
            nf_failures += report.failures.len();
        }
        if let Some(to) = rescale_to {
            if let Err(e) = engine.rescale(to) {
                if swaps.failures.len() < 16 {
                    swaps.failures.push(format!("rescale rejected: {e}"));
                }
            }
        }
    }
    let elapsed = start.elapsed();
    // Migration counters are cumulative on the fleet, not per chunk.
    let migration = engine.migration();
    counts.rescales = migration.rescales;
    counts.flows_exported = migration.flows_exported;
    counts.flows_imported = migration.flows_imported;

    let driven = driver.join().expect("swap driver");
    swaps.attempted += driven.attempted;
    swaps.completed += driven.completed;
    swaps.rejected += driven.rejected;
    swaps.failures.extend(driven.failures);
    let live = auditor.finish();
    (counts, swaps, nf_failures, elapsed, live)
}

fn spawn_swap_driver(
    controller: nfp_dataplane::EngineController,
    probe: &Arc<EngineProbe>,
    script: &ChaosScript,
    variants: &(impl Fn(u64) -> Program + Clone + Send + 'static),
) -> std::thread::JoinHandle<SwapLog> {
    let probe = Arc::clone(probe);
    let points = script.swap_points();
    let variants = variants.clone();
    std::thread::spawn(move || drive_swaps(&controller, &probe, &points, variants))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let a = cell_seed(7, "malformed", "panic", EngineKind::Sync);
        let b = cell_seed(7, "malformed", "panic", EngineKind::Threaded);
        let c = cell_seed(7, "syn_flood", "panic", EngineKind::Sync);
        let d = cell_seed(8, "malformed", "panic", EngineKind::Sync);
        assert_eq!(a, cell_seed(7, "malformed", "panic", EngineKind::Sync));
        assert!(a != b && a != c && a != d);
    }

    #[test]
    fn traffic_profiles_build_and_are_deterministic() {
        for profile in TRAFFIC_PROFILES {
            let a = traffic_batch(profile, 50, 11);
            let b = traffic_batch(profile, 50, 11);
            assert_eq!(a.len(), 50);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.data(), y.data(), "{profile} not deterministic");
            }
        }
    }

    #[test]
    fn chaos_scripts_build() {
        for name in CHAOS_SCRIPTS {
            let s = chaos_script(name, SOAK_CHAIN.len(), 1_000, 3);
            assert_eq!(s.name, name);
        }
        assert!(chaos_script("quiet", 2, 100, 0).actions.is_empty());
    }

    #[test]
    fn sharded_scale_cell_migrates_state_and_balances_census() {
        let opts = SoakOptions {
            packets: 600,
            seed: 2,
            shards: 2,
        };
        let cell = run_cell("elephant_mice", "scale_storm", EngineKind::Sharded, &opts);
        assert!(cell.passed(), "{:?}", cell.invariants.violations);
        assert_eq!(cell.counts.injected, 600);
        assert!(cell.counts.rescales >= 3, "{:?}", cell.counts);
        // The Monitor accumulates per-flow state, so every rescale
        // migrates real entries and the census must balance exactly.
        assert!(cell.counts.flows_exported > 0, "{:?}", cell.counts);
        assert_eq!(cell.counts.flows_exported, cell.counts.flows_imported);
        assert!(cell.invariants.migration_census);
    }

    #[test]
    fn sync_cell_holds_invariants() {
        let opts = SoakOptions {
            packets: 400,
            seed: 1,
            shards: 2,
        };
        let cell = run_cell("malformed", "swap_storm", EngineKind::Sync, &opts);
        assert!(cell.passed(), "{:?}", cell.invariants.violations);
        assert!(cell.counts.rejected > 0, "malformed share must reject");
        assert!(cell.swaps.attempted > 0);
    }
}
